//! The journal of the durable modes (DESIGN §13), written once for Acuerdo,
//! Raft and ZAB. A record is `[tag u8 | head | payload]`, `head` being a
//! [`FixedCodec`] value (the little-endian codec of the SST cells). A
//! protocol declares each record kind once, as a [`Kind`] tying a tag to a
//! head type, and writes and reads through it: no protocol computes an
//! offset.
//!
//! [`recover`] is the one recovery path. It restores the log's checkpoint,
//! if one was written, through [`Journaled::restore`], hands the fsync'd
//! records that follow it to [`Journaled::replay`] in order, then calls
//! [`Journaled::restore_floor`], which has no default: replayed entries
//! imply a promise the node must keep (Acuerdo's epoch, Raft's term), and a
//! replay that forgot the epoch floor once let a rebooted Acuerdo cluster
//! reuse a committed epoch, so every protocol must state its floor, even
//! when it is "nothing to do".
//!
//! A checkpoint ([`checkpoint`]) stands for a prefix of the journal: the
//! protocol writes what those records amounted to, and the device drops
//! them in the same step, so a reboot replays only what lies above it. Its
//! type is the protocol's ([`Journaled::Checkpoint`]); one that never
//! checkpoints (Raft, ZAB) names [`Infallible`](std::convert::Infallible),
//! and recovery for it is the replay of the whole journal. [`Tops`] tells
//! a protocol how long a prefix its checkpoint may drop.

pub use rdma_prims::FixedCodec;
use simnet::{Counter, Ctx, DurabilityMode, Event};
use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;

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
            ctx.log_append(self.encode(head, payload));
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
    /// What this protocol's checkpoints hold;
    /// [`Infallible`](std::convert::Infallible) for one that never writes
    /// one.
    type Checkpoint: Any + Send + Sync;

    /// Become the state `ckpt` holds, before the records that follow it
    /// are replayed.
    fn restore(&mut self, ckpt: &Self::Checkpoint);

    /// Apply one persisted record, in journal order. Records of no known
    /// kind, or too short for their kind, are ignored.
    fn replay(&mut self, rec: &[u8]);

    /// After the last record: restore what the replayed entries promise
    /// beyond themselves (module docs).
    fn restore_floor(&mut self);
}

/// Restore `ckpt` when there is one, replay `records` in order into
/// `node`, then restore its floor. Returns how many records were walked.
pub fn replay<J: Journaled>(
    node: &mut J,
    ckpt: Option<&J::Checkpoint>,
    records: &[Vec<u8>],
) -> u64 {
    if let Some(ckpt) = ckpt {
        node.restore(ckpt);
    }
    for rec in records {
        node.replay(rec);
    }
    node.restore_floor();
    records.len() as u64
}

/// Rebuild `node` in place from the fsync'd part of its log, checkpoint
/// first, when it boots in durable mode on a log that holds anything;
/// count the records walked (`wal_recovered_records`) and leave a
/// `wal_recover` trace instant.
pub fn recover<M, J: Journaled>(node: &mut J, ctx: &mut Ctx<M>, mode: DurabilityMode) {
    if !mode.is_durable() || ctx.log_is_empty() {
        return;
    }
    let ckpt = ctx.log_synced_checkpoint();
    let ckpt = ckpt.as_ref().map(|c| {
        c.downcast_ref::<J::Checkpoint>()
            .expect("a checkpoint another protocol wrote")
    });
    let records = replay(node, ckpt, ctx.log_synced());
    ctx.count(Counter::WalRecoveredRecords, records);
    ctx.trace(Event::new("wal_recover").a(records));
}

/// Write `ckpt` as this node's checkpoint and drop the first `trim`
/// persisted records, which it stands for, in one step priced as one fsync
/// barrier; leave a `wal_checkpoint` trace instant. Durable mode only: the
/// caller has a journal to trim.
pub fn checkpoint<M, C: Any + Send + Sync>(ctx: &mut Ctx<M>, ckpt: C, trim: usize) {
    ctx.log_checkpoint(Arc::new(ckpt), trim);
    ctx.trace(Event::new("wal_checkpoint").a(trim as u64));
}

/// The running top key of each record on a journal, in journal order: a
/// record with a key (an entry's header) raises it, one without (a cut)
/// carries it. A checkpoint at key `h` may drop the records whose top is
/// at most `h` ([`Tops::covered`]): the longest prefix holding no key above
/// it. A protocol notes every record it appends or replays, so the tops
/// line up with the device's records one for one.
#[derive(Debug)]
pub struct Tops<K>(VecDeque<Option<K>>);

impl<K> Default for Tops<K> {
    fn default() -> Self {
        Tops(VecDeque::new())
    }
}

impl<K: Ord + Copy> Tops<K> {
    /// Note the next record, keyed or not.
    pub fn note(&mut self, key: Option<K>) {
        let prev = self.0.back().copied().flatten();
        self.0.push_back(prev.max(key));
    }

    /// How many of the first `synced` records hold no key above `h`.
    pub fn covered(&self, h: K, synced: usize) -> usize {
        self.0.partition_point(|&top| top <= Some(h)).min(synced)
    }

    /// Forget the first `n` records: a checkpoint dropped them.
    pub fn trim(&mut self, n: usize) {
        self.0.drain(..n);
    }

    /// Records noted and not trimmed.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no record is noted.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
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

    /// The covered prefix ends at the first record holding a key above the
    /// horizon, even when a lower key follows it, and never passes the
    /// persisted records; unkeyed records ride with what precedes them.
    #[test]
    fn tops_cover_the_longest_prefix_without_a_key_above_the_horizon() {
        let mut tops = Tops::default();
        for key in [None, Some(1), Some(3), None, Some(2), Some(5), None] {
            tops.note(key);
        }
        assert_eq!(tops.covered(0, 7), 1, "a leading cut has no key");
        assert_eq!(tops.covered(2, 7), 2, "3 precedes the lower 2");
        assert_eq!(tops.covered(3, 7), 5);
        assert_eq!(tops.covered(3, 4), 4, "only persisted records");
        assert_eq!(tops.covered(9, 7), 7);
        tops.trim(5);
        assert_eq!(tops.len(), 2);
        assert_eq!(tops.covered(4, 2), 0);
        assert_eq!(tops.covered(5, 2), 2);
        tops.note(Some(4));
        assert_eq!(tops.covered(5, 3), 3, "a lower key after a higher one");
    }

    struct Counted {
        restored: Option<u32>,
        replayed: Vec<u8>,
        floor: bool,
    }

    impl Journaled for Counted {
        type Checkpoint = u32;
        fn restore(&mut self, ckpt: &u32) {
            assert!(
                self.replayed.is_empty() && !self.floor,
                "restore runs first"
            );
            self.restored = Some(*ckpt);
        }
        fn replay(&mut self, rec: &[u8]) {
            self.replayed.extend_from_slice(rec);
        }
        fn restore_floor(&mut self) {
            self.floor = true;
        }
    }

    /// Checkpoint, then the records after it, then the floor; the count is
    /// of records walked.
    #[test]
    fn replay_restores_the_checkpoint_before_the_records() {
        let mut node = Counted {
            restored: None,
            replayed: Vec::new(),
            floor: false,
        };
        assert_eq!(replay(&mut node, Some(&7), &[vec![1], vec![2]]), 2);
        assert_eq!(
            (node.restored, &node.replayed[..], node.floor),
            (Some(7), &[1, 2][..], true)
        );
    }
}
