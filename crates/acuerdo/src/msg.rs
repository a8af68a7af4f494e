//! Ring-frame encoding for Acuerdo messages.
//!
//! Two frame kinds flow through the ring buffers:
//!
//! * **Normal** broadcast messages: header + client payload (Figure 4);
//! * **Diff** messages (§3.4): header with count 0 plus the log entries the
//!   receiving follower may be missing. Diffs larger than
//!   [`AcuerdoConfig::max_diff_part`](crate::AcuerdoConfig::max_diff_part)
//!   are split into consecutively-sent parts; a follower processes the diff
//!   once all parts arrived (parts travel back-to-back on the FIFO ring, so
//!   no other frame can interleave).

use abcast::MsgHdr;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rdma_prims::FixedCodec;

const TAG_NORMAL: u8 = 1;
const TAG_DIFF: u8 = 2;
/// Bytes of a diff part ahead of its entries: tag, header, part, parts and
/// entry count.
pub(crate) const DIFF_HEAD: usize = 1 + MsgHdr::SIZE + 8;

/// A decoded ring frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A broadcast message.
    Normal {
        /// Total-order position.
        hdr: MsgHdr,
        /// Client payload.
        payload: Bytes,
    },
    /// One part of a recovery diff.
    Diff {
        /// The diff's header: `(new_epoch, 0)`.
        hdr: MsgHdr,
        /// Index of this part.
        part: u16,
        /// Total number of parts.
        parts: u16,
        /// Log entries carried by this part.
        entries: Vec<(MsgHdr, Bytes)>,
    },
}

fn put_hdr(buf: &mut BytesMut, hdr: MsgHdr) {
    let mut tmp = [0u8; MsgHdr::SIZE];
    hdr.encode(&mut tmp);
    buf.put_slice(&tmp);
}

fn get_hdr(buf: &mut impl Buf) -> MsgHdr {
    let mut tmp = [0u8; MsgHdr::SIZE];
    buf.copy_to_slice(&mut tmp);
    MsgHdr::decode(&tmp)
}

/// The bytes a normal broadcast frame starts with; the payload follows
/// them. Senders that write frames in parts
/// ([`RingSender::send_parts`](rdma_prims::RingSender::send_parts)) put this
/// before the payload instead of building the frame with [`encode_normal`].
pub fn normal_header(hdr: MsgHdr) -> [u8; 1 + MsgHdr::SIZE] {
    let mut head = [TAG_NORMAL; 1 + MsgHdr::SIZE];
    hdr.encode(&mut head[1..]);
    head
}

/// Encode a normal broadcast frame.
pub fn encode_normal(hdr: MsgHdr, payload: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 + MsgHdr::SIZE + payload.len());
    buf.put_slice(&normal_header(hdr));
    buf.put_slice(payload);
    buf.freeze()
}

/// Encode one diff part.
pub fn encode_diff(hdr: MsgHdr, part: u16, parts: u16, entries: &[(MsgHdr, Bytes)]) -> Bytes {
    let body: usize = entries
        .iter()
        .map(|(_, p)| MsgHdr::SIZE + 4 + p.len())
        .sum();
    let mut buf = BytesMut::with_capacity(DIFF_HEAD + body);
    buf.put_u8(TAG_DIFF);
    put_hdr(&mut buf, hdr);
    buf.put_u16_le(part);
    buf.put_u16_le(parts);
    buf.put_u32_le(entries.len() as u32);
    for (h, p) in entries {
        put_hdr(&mut buf, *h);
        buf.put_u32_le(p.len() as u32);
        buf.put_slice(p);
    }
    buf.freeze()
}

/// Split `entries` into diff parts of at most `max_part` encoded bytes each
/// and encode them all. Always returns at least one part (an empty diff is a
/// valid epoch-entry message).
pub fn encode_diff_parts(hdr: MsgHdr, entries: &[(MsgHdr, Bytes)], max_part: usize) -> Vec<Bytes> {
    let mut chunks: Vec<&[(MsgHdr, Bytes)]> = Vec::new();
    let mut start = 0;
    let mut size = 0usize;
    for (i, (_, p)) in entries.iter().enumerate() {
        let e = MsgHdr::SIZE + 4 + p.len();
        if size > 0 && size + e > max_part {
            chunks.push(&entries[start..i]);
            start = i;
            size = 0;
        }
        size += e;
    }
    chunks.push(&entries[start..]);
    let parts = chunks.len() as u16;
    chunks
        .iter()
        .enumerate()
        .map(|(i, c)| encode_diff(hdr, i as u16, parts, c))
        .collect()
}

/// Decode a ring frame.
///
/// Returns `None` on a malformed frame (never produced by this codec; the
/// protocol treats it as a fatal desync in debug builds).
pub fn decode(mut raw: Bytes) -> Option<Frame> {
    if raw.len() < 1 + MsgHdr::SIZE {
        return None;
    }
    let tag = raw.get_u8();
    let hdr = get_hdr(&mut raw);
    match tag {
        TAG_NORMAL => Some(Frame::Normal { hdr, payload: raw }),
        TAG_DIFF => {
            if raw.len() < 8 {
                return None;
            }
            let part = raw.get_u16_le();
            let parts = raw.get_u16_le();
            let count = raw.get_u32_le();
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                if raw.len() < MsgHdr::SIZE + 4 {
                    return None;
                }
                let h = get_hdr(&mut raw);
                let len = raw.get_u32_le() as usize;
                if raw.len() < len {
                    return None;
                }
                entries.push((h, raw.split_to(len)));
            }
            Some(Frame::Diff {
                hdr,
                part,
                parts,
                entries,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast::Epoch;

    fn hdr(r: u32, l: u32, c: u32) -> MsgHdr {
        MsgHdr::new(Epoch::new(r, l), c)
    }

    #[test]
    fn normal_roundtrip() {
        let h = hdr(0, 1, 7);
        let p = Bytes::from_static(b"hello world");
        let f = decode(encode_normal(h, &p)).unwrap();
        assert_eq!(f, Frame::Normal { hdr: h, payload: p });
    }

    #[test]
    fn normal_header_is_the_frames_prefix() {
        let h = hdr(2, 5, 9);
        let p = Bytes::from_static(b"body");
        let mut parts = normal_header(h).to_vec();
        parts.extend_from_slice(&p);
        assert_eq!(encode_normal(h, &p), parts);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let h = hdr(0, 1, 1);
        let f = decode(encode_normal(h, &Bytes::new())).unwrap();
        match f {
            Frame::Normal { payload, .. } => assert!(payload.is_empty()),
            _ => panic!(),
        }
    }

    #[test]
    fn diff_roundtrip() {
        let h = hdr(1, 3, 0);
        let entries = vec![
            (hdr(0, 1, 5), Bytes::from_static(b"five")),
            (hdr(0, 1, 6), Bytes::from_static(b"")),
            (hdr(0, 1, 7), Bytes::from_static(b"seven")),
        ];
        let f = decode(encode_diff(h, 0, 1, &entries)).unwrap();
        assert_eq!(
            f,
            Frame::Diff {
                hdr: h,
                part: 0,
                parts: 1,
                entries
            }
        );
    }

    #[test]
    fn empty_diff_is_one_part() {
        let parts = encode_diff_parts(hdr(1, 2, 0), &[], 1024);
        assert_eq!(parts.len(), 1);
        match decode(parts[0].clone()).unwrap() {
            Frame::Diff {
                part,
                parts,
                entries,
                ..
            } => {
                assert_eq!((part, parts), (0, 1));
                assert!(entries.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn large_diff_splits_and_reassembles() {
        let entries: Vec<(MsgHdr, Bytes)> = (1..=50u32)
            .map(|c| (hdr(0, 1, c), Bytes::from(vec![c as u8; 100])))
            .collect();
        let parts = encode_diff_parts(hdr(1, 2, 0), &entries, 500);
        assert!(parts.len() > 5, "got {} parts", parts.len());
        let mut collected = Vec::new();
        let total = parts.len() as u16;
        for (i, raw) in parts.into_iter().enumerate() {
            match decode(raw).unwrap() {
                Frame::Diff {
                    hdr: h,
                    part,
                    parts,
                    entries,
                } => {
                    assert_eq!(h, hdr(1, 2, 0));
                    assert_eq!(part, i as u16);
                    assert_eq!(parts, total);
                    collected.extend(entries);
                }
                _ => panic!(),
            }
        }
        assert_eq!(collected, entries);
    }

    #[test]
    fn part_size_respected() {
        let entries: Vec<(MsgHdr, Bytes)> = (1..=20u32)
            .map(|c| (hdr(0, 1, c), Bytes::from(vec![0u8; 50])))
            .collect();
        for raw in encode_diff_parts(hdr(1, 2, 0), &entries, 200) {
            // Each entry is 66 bytes encoded; cap 200 → ≤ 3 entries/part,
            // frame ≤ header + 3*66.
            assert!(raw.len() <= 1 + 12 + 8 + 3 * 66);
        }
    }

    #[test]
    fn oversized_single_entry_still_ships() {
        // One entry larger than max_part must still go out (alone).
        let entries = vec![(hdr(0, 1, 1), Bytes::from(vec![9u8; 5000]))];
        let parts = encode_diff_parts(hdr(1, 2, 0), &entries, 100);
        assert_eq!(parts.len(), 1);
        match decode(parts[0].clone()).unwrap() {
            Frame::Diff { entries: e, .. } => assert_eq!(e.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn malformed_frames_rejected() {
        assert_eq!(decode(Bytes::from_static(b"")), None);
        assert_eq!(decode(Bytes::from_static(b"\x07garbage-here")), None);
        let mut truncated = encode_diff(
            hdr(1, 1, 0),
            0,
            1,
            &[(hdr(0, 1, 1), Bytes::from_static(b"xxxx"))],
        )
        .to_vec();
        truncated.truncate(truncated.len() - 2);
        assert_eq!(decode(Bytes::from(truncated)), None);
    }
}
