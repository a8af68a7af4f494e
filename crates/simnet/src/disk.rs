//! Persistent-log device model.
//!
//! One [`DurableLog`] lives in each node's engine slot, *outside* the
//! protocol process — so it survives [`Sim::restart_at`](crate::Sim) (the
//! process is rebuilt from its factory, the platter is not) and is truncated
//! to the last fsync'd barrier by every crash flavour (fail-stop, scheduled
//! crash, whole-cluster power failure).
//!
//! Protocols talk to the device only through [`Ctx`](crate::Ctx):
//!
//! * [`Ctx::log_append`](crate::Ctx::log_append) — stage a record and charge
//!   the device's per-KiB append cost;
//! * [`Ctx::log_fsync`](crate::Ctx::log_fsync) — charge the fsync barrier and
//!   mark everything staged so far as persisted;
//! * [`Ctx::log_checkpoint`](crate::Ctx::log_checkpoint) — replace the
//!   log's one [`Checkpoint`] and drop a prefix of its persisted records,
//!   in one atomic step priced as one barrier;
//! * [`Ctx::log_synced`](crate::Ctx::log_synced) and
//!   [`Ctx::log_synced_checkpoint`](crate::Ctx::log_synced_checkpoint) —
//!   read back the persisted records, and the checkpoint they continue,
//!   during recovery.
//!
//! Both costs are charged as CPU time attributed to
//! [`SpanStage::Commit`](crate::SpanStage) (the node blocks on the barrier,
//! exactly like the etcd baseline's historical `ETCD_FSYNC` charge), and are
//! additionally tallied on the `Wal*` counters so the resource observatory
//! can split device time out of the commit stage.
//!
//! Records are opaque byte strings; encoding is the protocol's business. The
//! device model is a cost + truncation model, not a filesystem: there is one
//! log per node, appends are ordered, and a crash drops exactly the suffix
//! after the last barrier.
//!
//! A checkpoint is as opaque as a record: whatever state the protocol says
//! its trimmed records amounted to. It is written whole and never
//! modified, so the device keeps it as a shared immutable value and a
//! restart reads it without a copy. It lives beside the records, not among
//! them: a crash never touches it (it was written under its own barrier),
//! and the staged suffix is left as it was, still waiting for the next
//! [`Ctx::log_fsync`](crate::Ctx::log_fsync).

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

/// Cost parameters of one log device.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LogDevParams {
    /// CPU+device time to append one KiB (charged pro-rata per record).
    pub append_per_kib: Duration,
    /// CPU+device time of one fsync barrier.
    pub fsync: Duration,
}

impl LogDevParams {
    /// Persistent-memory DIMM: appends are a couple of cache-line flushes,
    /// the barrier is an `sfence` + ADR drain. The preset durable-mode
    /// device for the RDMA protocols (acuerdo), whose whole point is that
    /// persistence must not cost a syscall.
    pub fn pmem() -> Self {
        LogDevParams {
            append_per_kib: Duration::from_nanos(250),
            fsync: Duration::from_nanos(500),
        }
    }

    /// Datacenter NVMe SSD: cheap appends into the write cache, ~10 µs
    /// flush. The preset durable-mode device for the ZooKeeper baseline.
    pub fn nvme() -> Self {
        LogDevParams {
            append_per_kib: Duration::from_nanos(500),
            fsync: Duration::from_micros(10),
        }
    }

    /// The etcd WAL as the repo has always costed it: appends ride inside
    /// the existing `ETCD_ENTRY` bookkeeping charge (so zero extra here) and
    /// every entry batch ends in a 250 µs fsync — the constant that used to
    /// live in `simnet::params::cpu::ETCD_FSYNC` and put etcd's Figure 8
    /// latency near a millisecond. Raft charges fsync through this preset in
    /// *both* durability modes, so folding the constant into the device
    /// model changed no baseline timing.
    pub fn etcd_wal() -> Self {
        LogDevParams {
            append_per_kib: Duration::ZERO,
            fsync: Duration::from_micros(250),
        }
    }

    /// Append cost for one record of `bytes` bytes, pro-rata per KiB.
    pub fn append_cost(&self, bytes: usize) -> Duration {
        Duration::from_nanos((self.append_per_kib.as_nanos() as u64 * bytes as u64) / 1024)
    }
}

impl Default for LogDevParams {
    fn default() -> Self {
        LogDevParams::pmem()
    }
}

crate::registry! {
    /// Whether a protocol persists its log to the node's [`DurableLog`].
    #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
    pub enum DurabilityMode {
        /// Historical behaviour: nothing persisted, a restarted node rejoins
        /// from fresh state (Acuerdo's resync path; baselines stay down).
        #[default]
        Volatile = "volatile",
        /// Append-before-ack on the hot path, recovery-from-log on restart.
        Durable = "durable",
    }
}

impl DurabilityMode {
    /// Whether this mode persists the log.
    pub fn is_durable(self) -> bool {
        matches!(self, DurabilityMode::Durable)
    }
}

/// The state a log's trimmed records amounted to, as the protocol that
/// wrote them snapshots it (module docs).
pub type Checkpoint = Arc<dyn Any + Send + Sync>;

/// One node's persistent log: ordered opaque records plus the fsync barrier
/// position, and the checkpoint the records continue. Everything at index
/// `< synced` survives a crash, and so does the checkpoint; the staged
/// suffix does not.
#[derive(Clone, Debug)]
pub struct DurableLog {
    dev: LogDevParams,
    records: Vec<Vec<u8>>,
    synced: usize,
    checkpoint: Option<Checkpoint>,
}

impl Default for DurableLog {
    fn default() -> Self {
        DurableLog::new(LogDevParams::default())
    }
}

impl DurableLog {
    /// An empty log on a device with the given cost parameters.
    pub fn new(dev: LogDevParams) -> Self {
        DurableLog {
            dev,
            records: Vec::new(),
            synced: 0,
            checkpoint: None,
        }
    }

    /// Replace the device's cost parameters (records are untouched).
    pub fn set_dev(&mut self, dev: LogDevParams) {
        self.dev = dev;
    }

    /// Stage one record (not yet persisted); the log keeps a `Vec` it is
    /// handed, and copies a borrowed record. Returns the append cost the
    /// caller must charge.
    pub fn append(&mut self, rec: impl Into<Vec<u8>>) -> Duration {
        let rec = rec.into();
        let cost = self.dev.append_cost(rec.len());
        self.records.push(rec);
        cost
    }

    /// Persist everything staged so far. Returns the barrier cost the caller
    /// must charge.
    pub fn fsync(&mut self) -> Duration {
        self.synced = self.records.len();
        self.dev.fsync
    }

    /// Persist `ckpt` in place of the previous checkpoint and drop the
    /// first `trim` records, in one atomic step: a crash sees either the old
    /// checkpoint and every record or the new one and the rest. Only
    /// persisted records can be trimmed (panics otherwise); the staged
    /// suffix stays staged. Returns the barrier cost the caller must charge.
    pub fn checkpoint(&mut self, ckpt: Checkpoint, trim: usize) -> Duration {
        assert!(
            trim <= self.synced,
            "trimming {trim} records of which only {} are persisted",
            self.synced
        );
        self.checkpoint = Some(ckpt);
        self.records.drain(..trim);
        self.synced -= trim;
        self.dev.fsync
    }

    /// The checkpoint the persisted records continue, if one was written.
    pub fn synced_checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoint.as_ref()
    }

    /// Total records (persisted + staged), the checkpoint not counted.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds neither a record nor a checkpoint: a boot on
    /// it has nothing to recover.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.checkpoint.is_none()
    }

    /// How many records are persisted.
    pub fn synced_len(&self) -> usize {
        self.synced
    }

    /// The persisted prefix — what recovery may read. Records staged after
    /// the last barrier are deliberately invisible: a protocol must never
    /// act on state it could lose.
    pub fn synced_records(&self) -> &[Vec<u8>] {
        &self.records[..self.synced]
    }

    /// Crash: drop the un-fsync'd suffix. Returns how many staged records
    /// were lost (for the `WalTruncatedRecords` counter).
    pub fn crash_truncate(&mut self) -> usize {
        let dropped = self.records.len() - self.synced;
        self.records.truncate(self.synced);
        dropped
    }

    /// Test-only tampering: silently discard the last `k` *persisted*
    /// records, modelling a device that lied about its barrier. The
    /// checkpoint is untouched. The durability auditor's negative test uses
    /// this to prove that a lost committed entry is caught.
    pub fn corrupt_drop_tail(&mut self, k: usize) {
        let keep = self.records.len().saturating_sub(k);
        self.records.truncate(keep);
        self.synced = self.synced.min(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_cost_is_pro_rata() {
        let dev = LogDevParams {
            append_per_kib: Duration::from_nanos(1024),
            fsync: Duration::from_micros(1),
        };
        assert_eq!(dev.append_cost(1024), Duration::from_nanos(1024));
        assert_eq!(dev.append_cost(512), Duration::from_nanos(512));
        assert_eq!(dev.append_cost(0), Duration::ZERO);
        assert_eq!(LogDevParams::etcd_wal().append_cost(4096), Duration::ZERO);
    }

    /// `records` appended one by one.
    fn log_of(records: &[&[u8]]) -> DurableLog {
        let mut log = DurableLog::default();
        for rec in records {
            log.append(*rec);
        }
        log
    }

    fn ckpt(tag: u32) -> Checkpoint {
        Arc::new(tag)
    }

    fn ckpt_tag(log: &DurableLog) -> Option<u32> {
        log.synced_checkpoint()
            .map(|c| *c.downcast_ref::<u32>().expect("a u32 checkpoint"))
    }

    #[test]
    fn crash_truncates_to_last_barrier() {
        let mut log = DurableLog::new(LogDevParams::pmem());
        log.append(b"a");
        log.append(b"b");
        assert_eq!(log.fsync(), LogDevParams::pmem().fsync);
        log.append(b"c");
        assert_eq!(log.len(), 3);
        assert_eq!(log.synced_len(), 2);
        assert_eq!(log.crash_truncate(), 1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.synced_records(), &[b"a".to_vec(), b"b".to_vec()]);
        // Idempotent: a second crash loses nothing further.
        assert_eq!(log.crash_truncate(), 0);
    }

    #[test]
    fn staged_records_are_invisible_to_recovery() {
        let mut log = log_of(&[b"a"]);
        assert!(log.synced_records().is_empty());
        log.fsync();
        assert_eq!(log.synced_records().len(), 1);
    }

    #[test]
    fn corrupt_drop_tail_eats_persisted_records() {
        let mut log = log_of(&[b"a", b"b"]);
        log.fsync();
        log.corrupt_drop_tail(1);
        assert_eq!(log.synced_records(), &[b"a".to_vec()]);
        assert_eq!(log.crash_truncate(), 0);
    }

    /// A checkpoint replaces its predecessor and trims a persisted prefix;
    /// a crash then loses the staged suffix and nothing else: not the
    /// checkpoint, not the records it left.
    #[test]
    fn checkpoint_trims_a_persisted_prefix_and_survives_a_crash() {
        let mut log = log_of(&[b"a", b"b", b"c"]);
        log.fsync();
        log.append(b"d");
        assert!(ckpt_tag(&log).is_none());
        assert_eq!(log.checkpoint(ckpt(1), 2), LogDevParams::default().fsync);
        assert_eq!(ckpt_tag(&log), Some(1));
        assert_eq!((log.len(), log.synced_len()), (2, 1));
        assert_eq!(log.synced_records(), &[b"c".to_vec()]);
        log.checkpoint(ckpt(2), 0);
        assert_eq!(
            ckpt_tag(&log),
            Some(2),
            "the newer checkpoint replaces the old"
        );
        assert_eq!(log.crash_truncate(), 1, "the staged record is lost");
        assert_eq!(log.synced_records(), &[b"c".to_vec()]);
        assert_eq!(ckpt_tag(&log), Some(2));
        // A checkpoint over every record leaves a log that is not empty.
        log.checkpoint(ckpt(3), 1);
        assert_eq!(log.len(), 0);
        assert!(!log.is_empty());
        assert_eq!(log.crash_truncate(), 0);
        assert_eq!(ckpt_tag(&log), Some(3));
    }

    #[test]
    #[should_panic(expected = "only 1 are persisted")]
    fn checkpoint_trims_only_persisted_records() {
        let mut log = log_of(&[b"a"]);
        log.fsync();
        log.append(b"staged");
        log.checkpoint(ckpt(1), 2);
    }

    /// The tampering the auditor's negative test relies on eats the records
    /// a checkpoint left, never the checkpoint.
    #[test]
    fn corrupt_drop_tail_keeps_the_checkpoint() {
        let mut log = log_of(&[b"a", b"b", b"c"]);
        log.fsync();
        log.checkpoint(ckpt(7), 1);
        log.corrupt_drop_tail(5);
        assert!(log.synced_records().is_empty());
        assert_eq!(log.synced_len(), 0);
        assert_eq!(ckpt_tag(&log), Some(7));
    }

    #[test]
    fn durability_mode_defaults_to_volatile() {
        assert!(!DurabilityMode::default().is_durable());
    }
}
