//! Fixed-size little-endian codecs for values stored in SST cells.
//!
//! SST cells must have a fixed size so every node computes identical region
//! layouts, and must encode/decode without allocation (they are read on every
//! poll-loop iteration).

/// A value with a fixed-size byte representation.
pub trait FixedCodec: Sized + Copy + Default {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Encode into `buf` (`buf.len() == SIZE`).
    fn encode(&self, buf: &mut [u8]);
    /// Decode from `buf` (`buf.len() == SIZE`).
    fn decode(buf: &[u8]) -> Self;
}

/// The empty value: a record or cell with nothing but its position.
impl FixedCodec for () {
    const SIZE: usize = 0;
    fn encode(&self, _buf: &mut [u8]) {}
    fn decode(_buf: &[u8]) -> Self {}
}

impl FixedCodec for u32 {
    const SIZE: usize = 4;
    fn encode(&self, buf: &mut [u8]) {
        buf.copy_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &[u8]) -> Self {
        u32::from_le_bytes(buf.try_into().expect("u32 cell size"))
    }
}

impl FixedCodec for u64 {
    const SIZE: usize = 8;
    fn encode(&self, buf: &mut [u8]) {
        buf.copy_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &[u8]) -> Self {
        u64::from_le_bytes(buf.try_into().expect("u64 cell size"))
    }
}

impl<A: FixedCodec, B: FixedCodec> FixedCodec for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;
    fn encode(&self, buf: &mut [u8]) {
        self.0.encode(&mut buf[..A::SIZE]);
        self.1.encode(&mut buf[A::SIZE..]);
    }
    fn decode(buf: &[u8]) -> Self {
        (A::decode(&buf[..A::SIZE]), B::decode(&buf[A::SIZE..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: FixedCodec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = vec![0u8; T::SIZE];
        v.encode(&mut buf);
        assert_eq!(T::decode(&buf), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u32);
        roundtrip(u32::MAX);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(42u64);
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((7u32, 9u64));
        roundtrip((u32::MAX, (1u32, 2u32)));
        assert_eq!(<(u32, u64)>::SIZE, 12);
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut buf = [0u8; 4];
        0x0102_0304u32.encode(&mut buf);
        assert_eq!(buf, [4, 3, 2, 1]);
    }
}
