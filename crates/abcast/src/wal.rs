//! The journal of the durable modes (DESIGN §13), written once for Acuerdo,
//! Raft and ZAB. A record is `[tag u8 | head | payload]`, `head` being a
//! [`FixedCodec`] value (the little-endian codec of the SST cells). A
//! protocol declares each record kind once, as a [`Kind`] tying a tag to a
//! head type, and writes and reads through it: no protocol computes an
//! offset. [`recover`] hands the fsync'd records to the protocol's
//! [`Journaled::replay`] in order, then calls its
//! [`Journaled::restore_floor`], which has no default: replayed entries
//! imply a promise the node must keep (Acuerdo's epoch, Raft's term), and a
//! replay that forgot the epoch floor once let a rebooted Acuerdo cluster
//! reuse a committed epoch, so every protocol must state its floor, even
//! when it is "nothing to do".

pub use rdma_prims::FixedCodec;
use simnet::{Counter, Ctx, DurabilityMode, Event};
use std::marker::PhantomData;

/// One record kind: its tag, and the type of the head that follows it.
pub struct Kind<H>(u8, PhantomData<fn() -> H>);

impl<H: FixedCodec> Kind<H> {
    /// The kind whose records start with `tag`.
    pub const fn new(tag: u8) -> Self {
        Kind(tag, PhantomData)
    }

    /// The record `[tag | head | payload]`.
    pub fn encode(&self, head: &H, payload: &[u8]) -> Vec<u8> {
        let mut rec = Vec::with_capacity(1 + H::SIZE + payload.len());
        rec.push(self.0);
        rec.resize(1 + H::SIZE, 0);
        head.encode(&mut rec[1..]);
        rec.extend_from_slice(payload);
        rec
    }

    /// Stage one record on this node's log; nothing in volatile mode. The
    /// record survives a crash only after the next [`fsync`].
    pub fn append<M>(&self, ctx: &mut Ctx<M>, mode: DurabilityMode, head: &H, payload: &[u8]) {
        if mode.is_durable() {
            ctx.log_append(&self.encode(head, payload));
        }
    }

    /// The head and payload of `rec` if it is a record of this kind; `None`
    /// for another tag, and for a record too short to hold the head.
    pub fn read<'a>(&self, rec: &'a [u8]) -> Option<(H, &'a [u8])> {
        let (&tag, body) = rec.split_first()?;
        let (head, payload) = body.split_at_checked(H::SIZE)?;
        (tag == self.0).then(|| (H::decode(head), payload))
    }
}

/// An fsync barrier on this node's log; nothing in volatile mode.
pub fn fsync<M>(ctx: &mut Ctx<M>, mode: DurabilityMode) {
    if mode.is_durable() {
        ctx.log_fsync();
    }
}

/// A protocol node that rebuilds its state from its journal.
pub trait Journaled {
    /// Apply one persisted record, in journal order. Records of no known
    /// kind, or too short for their kind, are ignored.
    fn replay(&mut self, rec: &[u8]);

    /// After the last record: restore what the replayed entries promise
    /// beyond themselves (module docs).
    fn restore_floor(&mut self);
}

/// Replay `records` in order into `node`, then restore its floor. Returns
/// how many records were walked.
pub fn replay<J: Journaled>(node: &mut J, records: &[Vec<u8>]) -> u64 {
    for rec in records {
        node.replay(rec);
    }
    node.restore_floor();
    records.len() as u64
}

/// Rebuild `node` in place from the fsync'd prefix of its log, when it
/// boots in durable mode on a log that holds anything; count the records
/// (`wal_recovered_records`) and leave a `wal_recover` trace instant.
pub fn recover<M, J: Journaled>(node: &mut J, ctx: &mut Ctx<M>, mode: DurabilityMode) {
    if !mode.is_durable() || ctx.log_len() == 0 {
        return;
    }
    let records = replay(node, ctx.log_synced());
    ctx.count(Counter::WalRecoveredRecords, records);
    ctx.trace(Event::new("wal_recover").a(records));
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAIR: Kind<(u32, u64)> = Kind::new(7);

    #[test]
    fn a_record_is_tag_then_head_then_payload() {
        let rec = PAIR.encode(&(0x0102_0304, 5), b"xy");
        assert_eq!(rec, [7, 4, 3, 2, 1, 5, 0, 0, 0, 0, 0, 0, 0, b'x', b'y']);
        assert_eq!(Kind::<()>::new(2).encode(&(), &[]), [2]);
    }

    /// The reader never indexes past a record.
    #[test]
    fn another_kind_or_a_short_record_is_rejected() {
        let rec = PAIR.encode(&(1, 2), &[]);
        assert_eq!(Kind::<()>::new(2).read(&rec), None, "tag 7 is not tag 2");
        for len in 0..rec.len() {
            assert_eq!(PAIR.read(&rec[..len]), None, "{len} bytes");
        }
        assert_eq!(PAIR.read(&rec), Some(((1, 2), &[][..])));
    }
}
