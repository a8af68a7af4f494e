//! # kvstore — the replicated hash table of §4.3
//!
//! The paper's application use case: a hash table replicated at every
//! broadcast replica. Update commands (create / set / delete) are broadcast
//! through the atomic-broadcast instance and applied at commit; reads go
//! directly to any replica over RDMA, bypassing broadcast entirely.
//!
//! This crate provides:
//!
//! * the operation codec ([`Op`]);
//! * [`ReplicatedMap`], an [`abcast::App`] that applies committed operations;
//! * the **YCSB-load** workload (§4.3): 100% updates with keys drawn from a
//!   zipfian distribution with θ = 0.99, packaged as a payload generator for
//!   [`abcast::WindowClient`].

use abcast::workload::Zipfian;
use abcast::{snapshot_as, App, MsgHdr, Snapshot};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simnet::FastMap;
use std::sync::Arc;

/// A key-value update command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Insert a fresh key (fails silently if present, like ZooKeeper
    /// create).
    Create {
        /// Key bytes.
        key: Bytes,
        /// Value bytes.
        value: Bytes,
    },
    /// Set a key unconditionally.
    Set {
        /// Key bytes.
        key: Bytes,
        /// Value bytes.
        value: Bytes,
    },
    /// Remove a key.
    Delete {
        /// Key bytes.
        key: Bytes,
    },
}

impl Op {
    /// Encode for broadcast.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Op::Create { key, value } => {
                buf.put_u8(1);
                buf.put_u32_le(key.len() as u32);
                buf.put_slice(key);
                buf.put_slice(value);
            }
            Op::Set { key, value } => {
                buf.put_u8(2);
                buf.put_u32_le(key.len() as u32);
                buf.put_slice(key);
                buf.put_slice(value);
            }
            Op::Delete { key } => {
                buf.put_u8(3);
                buf.put_u32_le(key.len() as u32);
                buf.put_slice(key);
            }
        }
        buf.freeze()
    }

    /// Decode a broadcast payload.
    pub fn decode(mut raw: Bytes) -> Option<Op> {
        if raw.len() < 5 {
            return None;
        }
        let tag = raw.get_u8();
        let klen = raw.get_u32_le() as usize;
        if raw.len() < klen {
            return None;
        }
        let key = raw.split_to(klen);
        match tag {
            1 => Some(Op::Create { key, value: raw }),
            2 => Some(Op::Set { key, value: raw }),
            3 => Some(Op::Delete { key }),
            _ => None,
        }
    }
}

/// The replicated hash table: one full copy per broadcast replica.
#[derive(Clone, Default)]
pub struct ReplicatedMap {
    /// The table.
    pub map: FastMap<Bytes, Bytes>,
    /// Operations applied.
    pub applied: u64,
    /// Payloads that failed to decode (should stay 0).
    pub malformed: u64,
}

impl ReplicatedMap {
    /// Direct read (the RDMA-get path that bypasses broadcast).
    pub fn get(&self, key: &[u8]) -> Option<&Bytes> {
        self.map.get(key)
    }
}

impl App for ReplicatedMap {
    fn deliver(&mut self, _hdr: MsgHdr, payload: &Bytes) {
        match Op::decode(payload.clone()) {
            Some(Op::Create { key, value }) => {
                self.map.entry(key).or_insert(value);
                self.applied += 1;
            }
            Some(Op::Set { key, value }) => {
                self.map.insert(key, value);
                self.applied += 1;
            }
            Some(Op::Delete { key }) => {
                self.map.remove(&key);
                self.applied += 1;
            }
            None => self.malformed += 1,
        }
    }

    /// A copy of the table: a checkpoint of a durable replica costs the
    /// table, not the history that built it.
    fn snapshot(&self) -> Option<Snapshot> {
        Some(Arc::new(self.clone()))
    }

    fn restore(&mut self, snap: &Snapshot) {
        *self = snapshot_as::<ReplicatedMap>(snap).clone();
    }
}

/// YCSB-load generator: 100% `Set` operations over a zipfian (θ = .99) key
/// space, with fixed-size values.
pub struct YcsbLoad {
    zipf: Zipfian,
    rng: SmallRng,
    value_size: usize,
}

/// YCSB key-space size used by the §4.3 experiment.
pub const YCSB_KEYS: u64 = 100_000;
/// YCSB zipfian skew used by YCSB-load.
pub const YCSB_THETA: f64 = 0.99;
/// Value bytes per record.
pub const YCSB_VALUE: usize = 100;

impl YcsbLoad {
    /// Create the generator with its own deterministic key stream.
    pub fn new(seed: u64) -> Self {
        YcsbLoad {
            zipf: Zipfian::new(YCSB_KEYS, YCSB_THETA),
            rng: SmallRng::seed_from_u64(seed),
            value_size: YCSB_VALUE,
        }
    }

    /// Key for operation `id`. Derived from the zipfian stream; the `id` is
    /// folded into the value so payloads are unique.
    pub fn op(&mut self, id: u64) -> Op {
        let k = self.zipf.sample(&mut self.rng);
        let key = Bytes::from(format!("user{k:016}"));
        let mut value = vec![0u8; self.value_size];
        value[..8].copy_from_slice(&id.to_le_bytes());
        for (i, b) in value.iter_mut().enumerate().skip(8) {
            *b = (i as u8).wrapping_mul(17).wrapping_add(k as u8);
        }
        Op::Set {
            key,
            value: Bytes::from(value),
        }
    }

    /// Boxed payload generator for [`abcast::WindowClient::payload_fn`].
    pub fn into_payload_fn(mut self) -> Box<dyn FnMut(u64) -> Bytes> {
        Box::new(move |id| self.op(id).encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast::Epoch;

    fn hdr(c: u32) -> MsgHdr {
        MsgHdr::new(Epoch::new(1, 0), c)
    }

    #[test]
    fn op_codec_roundtrips() {
        let ops = [
            Op::Create {
                key: Bytes::from_static(b"k1"),
                value: Bytes::from_static(b"v1"),
            },
            Op::Set {
                key: Bytes::from_static(b"k2"),
                value: Bytes::from_static(b""),
            },
            Op::Delete {
                key: Bytes::from_static(b"k3"),
            },
        ];
        for op in ops {
            assert_eq!(Op::decode(op.encode()), Some(op));
        }
    }

    #[test]
    fn malformed_ops_rejected() {
        assert_eq!(Op::decode(Bytes::from_static(b"")), None);
        assert_eq!(Op::decode(Bytes::from_static(b"\x09aaaaaaaa")), None);
        // Key length past the end.
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        buf.put_u32_le(100);
        buf.put_slice(b"short");
        assert_eq!(Op::decode(buf.freeze()), None);
    }

    #[test]
    fn map_applies_in_order() {
        let mut m = ReplicatedMap::default();
        m.deliver(
            hdr(1),
            &Op::Set {
                key: Bytes::from_static(b"a"),
                value: Bytes::from_static(b"1"),
            }
            .encode(),
        );
        m.deliver(
            hdr(2),
            &Op::Set {
                key: Bytes::from_static(b"a"),
                value: Bytes::from_static(b"2"),
            }
            .encode(),
        );
        assert_eq!(m.get(b"a").unwrap().as_ref(), b"2");
        m.deliver(
            hdr(3),
            &Op::Delete {
                key: Bytes::from_static(b"a"),
            }
            .encode(),
        );
        assert_eq!(m.get(b"a"), None);
        assert_eq!(m.applied, 3);
        assert_eq!(m.malformed, 0);
    }

    #[test]
    fn create_does_not_overwrite() {
        let mut m = ReplicatedMap::default();
        for v in [b"1" as &[u8], b"2"] {
            m.deliver(
                hdr(1),
                &Op::Create {
                    key: Bytes::from_static(b"a"),
                    value: Bytes::copy_from_slice(v),
                }
                .encode(),
            );
        }
        assert_eq!(m.get(b"a").unwrap().as_ref(), b"1");
    }

    #[test]
    fn identical_op_streams_converge() {
        // Two replicas applying the same committed stream end identical —
        // the state-machine-replication property.
        let mut gen = YcsbLoad::new(7);
        let ops: Vec<Bytes> = (0..500).map(|i| gen.op(i).encode()).collect();
        let mut a = ReplicatedMap::default();
        let mut b = ReplicatedMap::default();
        for (i, op) in ops.iter().enumerate() {
            a.deliver(hdr(i as u32), op);
            b.deliver(hdr(i as u32), op);
        }
        assert_eq!(a.applied, 500);
        assert_eq!(a.map.len(), b.map.len());
        for (k, v) in &a.map {
            assert_eq!(b.map.get(k), Some(v));
        }
    }

    #[test]
    fn ycsb_keys_are_skewed_and_deterministic() {
        let mut g1 = YcsbLoad::new(42);
        let mut g2 = YcsbLoad::new(42);
        let ops1: Vec<Bytes> = (0..100).map(|i| g1.op(i).encode()).collect();
        let ops2: Vec<Bytes> = (0..100).map(|i| g2.op(i).encode()).collect();
        assert_eq!(ops1, ops2);
        // Skew: far fewer distinct keys than operations.
        let mut m = ReplicatedMap::default();
        let mut g = YcsbLoad::new(1);
        for i in 0..2_000 {
            m.deliver(hdr(i as u32), &g.op(i).encode());
        }
        assert!(
            (m.map.len() as f64) < 1_600.0,
            "expected zipfian key reuse, got {} distinct keys",
            m.map.len()
        );
    }

    #[test]
    fn payload_fn_embeds_unique_ids() {
        let mut f = YcsbLoad::new(3).into_payload_fn();
        let a = f(1);
        let b = f(2);
        assert_ne!(a, b);
        let Op::Set { value, .. } = Op::decode(a).unwrap() else {
            panic!("YCSB-load is all sets");
        };
        assert_eq!(u64::from_le_bytes(value[..8].try_into().unwrap()), 1);
    }
}
