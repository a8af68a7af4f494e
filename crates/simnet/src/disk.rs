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
//! * [`Ctx::log_synced`](crate::Ctx::log_synced) — read back the persisted
//!   records during recovery.
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

/// One node's persistent log: ordered opaque records plus the fsync barrier
/// position. Everything at index `< synced` survives a crash; the staged
/// suffix does not.
#[derive(Clone, Debug)]
pub struct DurableLog {
    dev: LogDevParams,
    records: Vec<Vec<u8>>,
    synced: usize,
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
        }
    }

    /// Replace the device's cost parameters (records are untouched).
    pub fn set_dev(&mut self, dev: LogDevParams) {
        self.dev = dev;
    }

    /// Stage one record (not yet persisted). Returns the append cost the
    /// caller must charge.
    pub fn append(&mut self, rec: &[u8]) -> Duration {
        self.records.push(rec.to_vec());
        self.dev.append_cost(rec.len())
    }

    /// Persist everything staged so far. Returns the barrier cost the caller
    /// must charge.
    pub fn fsync(&mut self) -> Duration {
        self.synced = self.records.len();
        self.dev.fsync
    }

    /// Total records (persisted + staged).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
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
    /// durability auditor's negative test uses this to prove that a lost
    /// committed entry is caught.
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
        let mut log = DurableLog::default();
        log.append(b"a");
        assert!(log.synced_records().is_empty());
        log.fsync();
        assert_eq!(log.synced_records().len(), 1);
    }

    #[test]
    fn corrupt_drop_tail_eats_persisted_records() {
        let mut log = DurableLog::default();
        log.append(b"a");
        log.append(b"b");
        log.fsync();
        log.corrupt_drop_tail(1);
        assert_eq!(log.synced_records(), &[b"a".to_vec()]);
        assert_eq!(log.crash_truncate(), 0);
    }

    #[test]
    fn durability_mode_defaults_to_volatile() {
        assert!(!DurabilityMode::default().is_durable());
    }
}
