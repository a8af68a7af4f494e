//! Zero-perturbation tracing and metrics for the simulated fabric.
//!
//! Three observability channels thread through the engine and every protocol
//! crate:
//!
//! * **Counters** ([`Counter`]) — per-node `u64` registers bumped through
//!   [`Ctx::count`](crate::Ctx::count) (protocol layer) and by the engine
//!   itself (fabric layer). Counting is *always on*: a plain array increment
//!   that charges no CPU, draws no randomness, and schedules no event, so it
//!   cannot perturb a run.
//! * **Gauges** ([`Gauge`]) — per-node instantaneous levels (inflight depth,
//!   frontier lags, ring occupancy, …) written through
//!   [`Ctx::gauge`](crate::Ctx::gauge) and by the engine, and periodically
//!   *sampled* into a time series ([`GaugeSample`]) by the engine's
//!   between-dispatch sampler
//!   ([`Sim::set_gauge_sampling`](crate::Sim::set_gauge_sampling)) — never by
//!   the protocol hot path and never through the event queue, so sampling
//!   consumes no event sequence numbers and cannot perturb tie-breaks.
//! * **Events** ([`TraceEvent`]) — a timeline of fabric spans (NIC egress /
//!   ingress serialization, CPU-busy intervals) and protocol instants
//!   ([`Event`] via [`Ctx::trace`](crate::Ctx::trace)), recorded only while
//!   tracing is enabled ([`Sim::set_tracing`](crate::Sim::set_tracing)).
//!   Recording appends to a buffer and nothing else — traced and untraced
//!   runs of the same seed are bit-identical (`tests/observability.rs` proves
//!   this). Because they are, a failed run needs no recorder of its own:
//!   its post-mortem dump is the tail of a traced replay of the same seed
//!   (`bench::flight_tail`).
//!
//! Every named slot ([`Counter`], [`Gauge`], [`MsgKind`], [`SpanStage`],
//! [`WaitReason`]) is declared through [`registry!`](crate::registry).
//! [`MetricsSnapshot::to_json`] renders the counter registry plus final
//! gauge levels for per-run metrics sidecars (hand-rolled JSON: the
//! workspace deliberately avoids serde, DESIGN.md §6); the Chrome
//! trace-event format of the timeline lives with its reader in
//! `bench::chrome`.

use crate::ctx::DeliveryClass;
use crate::hash::FastMap;
use crate::time::SimTime;
use crate::NodeId;

crate::registry! {
    /// Per-node counter registry slots; each name is the slot's JSON key.
    ///
    /// Fabric counters (`WireBytes`, `Packets`) are maintained by the engine;
    /// the rest are bumped by protocol crates at their natural instrument points.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    #[repr(usize)]
    pub enum Counter {
        /// Bytes this node placed on the wire (after min-wire-size clamping).
        WireBytes = "wire_bytes",
        /// Packets this node placed on the wire.
        Packets = "packets",
        /// RDMA verbs posted (writes + reads).
        VerbPosts = "verb_posts",
        /// One-sided writes applied into this node's registered memory.
        DmaWritesApplied = "dma_writes_applied",
        /// Completion-queue entries retired by polling.
        CompletionsPolled = "completions_polled",
        /// SST row pushes.
        SstPushes = "sst_pushes",
        /// Ring-buffer frames sent.
        RingFrames = "ring_frames",
        /// Sends refused because the remote ring had no reusable space.
        RingStalls = "ring_stalls",
        /// Ring wrap markers written (frame did not fit before the end).
        RingWraps = "ring_wraps",
        /// Broadcast messages accepted into the log.
        Accepts = "accepts",
        /// Messages committed / delivered to the application.
        Commits = "commits",
        /// Recovery-diff entries applied during an epoch change.
        DiffApplies = "diff_applies",
        /// Elections started.
        Elections = "elections",
        /// Elections won (this node became leader).
        ElectionsWon = "elections_won",
        /// Heartbeat-timeout expiries that marked the leader suspect.
        HeartbeatMisses = "heartbeat_misses",
        /// Client-side retransmissions.
        Retransmits = "retransmits",
        /// Messages dropped at the sender because a partition cut the
        /// (src, dst) connection.
        PartitionDrops = "partition_drops",
        /// Times this node rebooted via [`Sim::restart_at`](crate::Sim::restart_at).
        Restarts = "restarts",
        /// Recovery-diff frame bytes sent to re-synchronize peers (election and
        /// rejoin diffs).
        RejoinDiffBytes = "rejoin_diff_bytes",
        /// Inbound RDMA ops dropped by the NIC's rkey/bounds check — a peer
        /// wrote through a stale view of this node's region table (e.g. after a
        /// reboot re-registered fewer regions). The resync handshake replaces
        /// the stream, so these are survivable, but a nonzero count outside a
        /// fault window indicates a protocol bug.
        RkeyDrops = "rkey_drops",
        /// Lifecycle stage marks emitted through [`Ctx::span`](crate::Ctx::span).
        /// Bumped whether or not event recording is on, so traced and untraced
        /// runs report identical counters.
        SpanMarks = "span_marks",
        /// Invariant auditor: a node's current epoch moved backwards.
        AuditEpochRegress = "audit_epoch_regress",
        /// Invariant auditor: a node's commit point moved backwards.
        AuditCommitRegress = "audit_commit_regress",
        /// Invariant auditor: a node's commit point overtook its accept point.
        AuditCommitAheadAccept = "audit_commit_ahead_accept",
        /// Bytes appended to this node's persistent log
        /// ([`Ctx::log_append`](crate::Ctx::log_append)).
        WalAppendBytes = "wal_append_bytes",
        /// Fsync barriers issued on this node's persistent log
        /// ([`Ctx::log_fsync`](crate::Ctx::log_fsync)).
        WalFsyncs = "wal_fsyncs",
        /// Nanoseconds of log-device time (append + fsync) charged to this node,
        /// unscaled — the device-time share of the commit stage's CPU slot.
        WalDeviceNs = "wal_device_ns",
        /// Staged (un-fsync'd) log records dropped by crash truncation.
        WalTruncatedRecords = "wal_truncated_records",
        /// Records replayed from the persistent log during a durable-mode
        /// recovery.
        WalRecoveredRecords = "wal_recovered_records",
        /// Durability auditor: a committed entry vanished from the cluster's
        /// adopted history after a fault (bumped by the chaos harness).
        AuditCommitLost = "audit_commit_lost",
        /// Ring dissemination: payload frames forwarded one hop along the
        /// forwarder's arm (bumped by the forwarder, not the origin leader).
        RingForwards = "ring_forwards",
        /// Ring dissemination: payload frames the leader sent directly to a
        /// peer because the arm segment covering it was down (star fallback).
        RingFallbackSends = "ring_fallback_sends",
        /// Frames refused by the acceptance contiguity gate — a duplicate of an
        /// accepted header (fallback and forwarded copies racing) or a frame of
        /// a stale epoch — under either topology.
        RingDupDrops = "ring_dup_drops",
    }
}

/// One node's counter registers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CounterSet {
    vals: [u64; Counter::COUNT],
}

// Std's array Default stops at 32 elements; the registry outgrew it.
impl Default for CounterSet {
    fn default() -> Self {
        CounterSet {
            vals: [0; Counter::COUNT],
        }
    }
}

impl CounterSet {
    /// Read one counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Iterate `(counter, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c, self.vals[c as usize]))
    }
}

crate::registry! {
    /// Per-node time-series gauge slots: instantaneous *levels*, as opposed to
    /// the monotone [`Counter`] registers.
    ///
    /// Protocols write their current level through
    /// [`Ctx::gauge`](crate::Ctx::gauge) at the points where the level changes
    /// (a plain array store, always on); the engine maintains the fabric gauges
    /// ([`Gauge::InflightMsgs`], [`Gauge::NicEgressDepth`]) itself. Levels become
    /// a time series only when the engine's sampler is enabled
    /// ([`Sim::set_gauge_sampling`](crate::Sim::set_gauge_sampling)), which runs
    /// between event dispatches — never in a handler, never through the event
    /// queue — so gauge collection preserves the zero-perturbation invariant.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    #[repr(usize)]
    pub enum Gauge {
        /// Messages posted into the fabric but not yet delivered to this node
        /// (engine-maintained).
        InflightMsgs = "inflight_msgs",
        /// Committer-side SST ack-frontier lag: accept frontier minus the
        /// slowest peer's visible acknowledgement, in messages.
        AckFrontierLag = "ack_frontier_lag",
        /// Commit-frontier lag: accept frontier minus commit/delivery frontier,
        /// in messages.
        CommitFrontierLag = "commit_frontier_lag",
        /// Occupancy of the fullest outbound ring-buffer lane, in bytes.
        RingOccupancy = "ring_occupancy",
        /// NIC egress queue depth: nanoseconds of serialization backlog at this
        /// node's egress NIC, computed by the engine at each sample instant.
        NicEgressDepth = "nic_egress_depth",
        /// Client retransmit window: outstanding unacknowledged requests.
        RetransmitWindow = "retransmit_window",
        /// Current epoch round / term / ballot / view id.
        Epoch = "epoch",
    }
}

/// One node's current gauge levels.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GaugeSet {
    vals: [u64; Gauge::COUNT],
}

impl GaugeSet {
    /// Read one gauge level.
    #[inline]
    pub fn get(&self, g: Gauge) -> u64 {
        self.vals[g as usize]
    }

    /// Iterate `(gauge, level)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Gauge, u64)> + '_ {
        Gauge::ALL.iter().map(|&g| (g, self.vals[g as usize]))
    }
}

/// One point of a gauge time series: at sample instant `at`, `node`'s
/// `gauge` read `value`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GaugeSample {
    /// Sample instant (virtual time).
    pub at: SimTime,
    /// Sampled node.
    pub node: NodeId,
    /// Which gauge.
    pub gauge: Gauge,
    /// The level at the sample instant.
    pub value: u64,
}

crate::registry! {
    /// What a message on the wire *is for*, from the protocol's point of view.
    ///
    /// Every send carries a kind (default [`MsgKind::Control`]; protocol crates
    /// tag their hot paths through [`Ctx::send_kind`](crate::Ctx::send_kind) and
    /// the RDMA post wrappers), and the engine splits per-link and per-NIC byte
    /// accounting by it — the axis the bottleneck ranker reasons over: a leader
    /// whose egress is payload fan-out wants ring dissemination; one drowning in
    /// acks wants batching.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    #[repr(usize)]
    pub enum MsgKind {
        /// Application payload moving toward replicas: client requests, ring
        /// data frames, AppendEntries/Propose/Accept with entries, log-entry
        /// RDMA writes.
        Payload = "payload",
        /// Acknowledgement traffic: SST cell pushes (accept/commit/vote cells),
        /// AppendReply/Ack/Accepted, ring cumulative-ack writes, and hardware
        /// write-completion acks.
        Ack = "ack",
        /// Client-side retransmissions of requests already sent once.
        Retransmit = "retransmit",
        /// Everything else: heartbeats, elections, view changes, recovery
        /// diffs/state transfer, client responses, read probes.
        Control = "control",
    }
}

/// Number of CPU-attribution slots: one per [`SpanStage`] plus two trailing
/// slots — `"other"` for charges made through plain
/// [`Ctx::use_cpu`](crate::Ctx::use_cpu) (verb posts, election work, TCP
/// demux — real cost that belongs to no single message lifecycle stage) and
/// `"idle_poll"` for busy-wait poll ticks charged through
/// [`Ctx::use_cpu_idle`](crate::Ctx::use_cpu_idle). The split matters
/// because an RDMA process idles by spinning on an empty completion queue:
/// its core is 100% busy in wall-clock terms while doing no work, so
/// `idle_poll` is counted as scheduler busy time but excluded from CPU
/// *utilization* by the bottleneck ranker.
pub const CPU_SLOTS: usize = SpanStage::COUNT + 2;

/// Index of the `"other"` slot (plain `use_cpu` charges).
pub const CPU_SLOT_OTHER: usize = SpanStage::COUNT;

/// Index of the `"idle_poll"` slot (busy-wait poll ticks).
pub const CPU_SLOT_IDLE: usize = SpanStage::COUNT + 1;

/// JSON key of CPU slot `i` ([`SpanStage::name`] for stage slots, `"other"`
/// and `"idle_poll"` for the trailing slots).
pub fn cpu_slot_name(i: usize) -> &'static str {
    if i < SpanStage::COUNT {
        SpanStage::ALL[i].name()
    } else if i == CPU_SLOT_OTHER {
        "other"
    } else {
        "idle_poll"
    }
}

/// Byte/frame/busy tallies for one direction of one NIC, or for one directed
/// link, split by [`MsgKind`].
///
/// `busy_ns` integrates serializer occupancy: for egress it sums exact
/// serialization intervals (`depart - depart_start`), for ingress the
/// receive-side intervals; divided by elapsed sim time it is the classic
/// utilization fraction.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Wire bytes (after min-wire-size clamping), by kind slot.
    pub bytes: [u64; MsgKind::COUNT],
    /// Frames (packets), by kind slot.
    pub frames: [u64; MsgKind::COUNT],
    /// Nanoseconds the serializer spent on these frames.
    pub busy_ns: u64,
}

impl DirStats {
    /// Total bytes across kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    fn add(&mut self, kind: MsgKind, bytes: u64, busy_ns: u64) {
        self.bytes[kind as usize] += bytes;
        self.frames[kind as usize] += 1;
        self.busy_ns += busy_ns;
    }
}

/// One node's resource tallies: NIC egress, NIC ingress, and attributed CPU
/// busy-time.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeRes {
    /// Egress-NIC accounting (everything this node put on the wire).
    pub tx: DirStats,
    /// Ingress-NIC accounting (everything delivered to this node, loopback
    /// excluded).
    pub rx: DirStats,
    /// CPU busy nanoseconds by attribution slot (see [`CPU_SLOTS`]); the sum
    /// over slots equals the node's total charged CPU time.
    pub cpu_ns: [u64; CPU_SLOTS],
}

impl NodeRes {
    /// Total attributed CPU nanoseconds, busy-wait polling included.
    pub fn cpu_total_ns(&self) -> u64 {
        self.cpu_ns.iter().sum()
    }

    /// CPU nanoseconds spent on real work: everything except the
    /// `"idle_poll"` slot. This is the numerator of the utilization the
    /// bottleneck ranker compares against NIC busy time — a spinning poll
    /// loop occupies a core without being a throughput limiter.
    pub fn cpu_work_ns(&self) -> u64 {
        self.cpu_total_ns() - self.cpu_ns[CPU_SLOT_IDLE]
    }
}

/// Tallies for one directed link `src -> dst`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LinkRes {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Byte/frame/busy tallies for the link's traffic (busy is the sender's
    /// egress serialization time spent on this link's frames).
    pub stats: DirStats,
}

/// A point-in-time copy of the resource-utilization layer: per-node NIC and
/// CPU tallies plus per-directed-link tallies, with the elapsed sim time
/// needed to turn busy integrals into utilization fractions.
///
/// Accounting is **always on** and zero-perturbation: plain array adds on
/// paths the engine already executes, no RNG draws, no CPU charges, no queue
/// touches — traced and untraced runs of one seed produce identical
/// snapshots (`tests/observability.rs`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceSnapshot {
    /// Sim time elapsed at snapshot (0 when taken outside an engine, e.g.
    /// straight off a [`Probe`]).
    pub elapsed_ns: u64,
    /// One [`NodeRes`] per node, indexed by [`NodeId`].
    pub nodes: Vec<NodeRes>,
    /// Directed links with at least one frame, sorted by `(src, dst)` —
    /// deterministic regardless of accounting order.
    pub links: Vec<LinkRes>,
}

impl ResourceSnapshot {
    /// Cluster-total egress bytes of `kind`.
    pub fn tx_bytes(&self, kind: MsgKind) -> u64 {
        self.nodes.iter().map(|n| n.tx.bytes[kind as usize]).sum()
    }
}

/// A protocol-level instant: a static name plus up to two numeric arguments
/// (what they mean is up to the emitting protocol — typically an epoch and a
/// sequence number).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Static event name (becomes the timeline label).
    pub name: &'static str,
    /// First numeric argument (shown as `a` in the timeline).
    pub a: u64,
    /// Second numeric argument (shown as `b` in the timeline).
    pub b: u64,
}

impl Event {
    /// An event with both arguments zero.
    pub fn new(name: &'static str) -> Self {
        Event { name, a: 0, b: 0 }
    }

    /// Set the first argument.
    pub fn a(mut self, v: u64) -> Self {
        self.a = v;
        self
    }

    /// Set the second argument.
    pub fn b(mut self, v: u64) -> Self {
        self.b = v;
        self
    }
}

crate::registry! {
    /// A stage in a broadcast message's lifecycle, from client submission to the
    /// client seeing the response. Every protocol crate marks the same vocabulary
    /// (via [`Ctx::span`](crate::Ctx::span)) at its natural analog of each stage,
    /// so per-stage latency anatomy is comparable across protocols.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    #[repr(usize)]
    pub enum SpanStage {
        /// Client posted the request into the fabric.
        Submit = "submit",
        /// The leader (or sender/coordinator) ingested the request and assigned
        /// it a slot in the total order.
        LeaderRecv = "leader_recv",
        /// The ordered message was first written toward a replica (ring frame,
        /// AppendEntries, Propose, Accept — whatever the protocol's replication
        /// write is).
        RingWrite = "ring_write",
        /// A replica accepted the message into its log.
        FollowerAccept = "follower_accept",
        /// A replica's acknowledgement covering the message became visible to
        /// the committer (SST ack cell, AppendReply, Ack, Accepted).
        AckVisible = "ack_visible",
        /// The committer established a quorum (or all-ack) for the message.
        Quorum = "quorum",
        /// The commit point advanced past the message.
        Commit = "commit",
        /// The message was delivered to the application.
        Deliver = "deliver",
        /// The client observed the response.
        ClientResp = "client_resp",
    }
}

impl SpanStage {
    /// Whether marks of this stage are *covering*: protocols with batched /
    /// last-write-wins acknowledgement (Acuerdo's SST cells, Raft's
    /// `match_index`) emit one mark for the **latest** message and it covers
    /// every earlier count in the same epoch. Lifecycle assembly inherits
    /// covering marks downward.
    pub fn covering(self) -> bool {
        matches!(
            self,
            SpanStage::AckVisible | SpanStage::Quorum | SpanStage::Commit
        )
    }
}

/// Pack a client-space span id: bit 63 clear, the client's node id in bits
/// 48..63, the client's request sequence in bits 0..48.
///
/// A lifecycle starts in client space ([`SpanStage::Submit`]); the ordering
/// node joins the two spaces by emitting its first message-space mark with
/// `arg` set to the client-space id.
pub fn client_span(node: NodeId, req: u64) -> u64 {
    ((node as u64 & 0x7FFF) << 48) | (req & 0x0000_FFFF_FFFF_FFFF)
}

/// Pack a message-space span id: bit 63 set, epoch round in bits 48..63,
/// leader/origin in bits 32..48, in-epoch count in bits 0..32. The packing is
/// order-preserving within a run, and [`msg_span_parts`] recovers the fields
/// so covering marks (see [`SpanStage::covering`]) can be inherited by lower
/// counts of the same epoch.
pub fn msg_span(round: u32, ldr: u32, cnt: u32) -> u64 {
    (1u64 << 63) | ((round as u64 & 0x7FFF) << 48) | ((ldr as u64 & 0xFFFF) << 32) | cnt as u64
}

/// Decompose a message-space span id into `(round, ldr, cnt)`; `None` for
/// client-space ids.
pub fn msg_span_parts(id: u64) -> Option<(u32, u32, u32)> {
    if id >> 63 == 1 {
        Some((
            ((id >> 48) & 0x7FFF) as u32,
            ((id >> 32) & 0xFFFF) as u32,
            id as u32,
        ))
    } else {
        None
    }
}

crate::registry! {
    /// Machine-readable reasons a message (or a node's handler) waited inside
    /// the fabric, for tail-latency forensics. Every queueing interval the
    /// engine schedules is attributed to exactly one reason and integrated into
    /// per-node [`WaitStats`] — always on, plain adds, zero-perturbation like
    /// the counters.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    #[repr(usize)]
    pub enum WaitReason {
        /// A posted frame sat in the sender NIC's egress queue behind earlier
        /// serializations (`depart_start - post`).
        EgressQueue = "egress_queue",
        /// A deliverable event was deferred because the destination node's CPU
        /// was still busy with earlier handler work (`busy_until` frontier).
        BusyDefer = "busy_defer",
        /// A deliverable event was deferred because the destination node was
        /// descheduled by the fault layer (`paused_until` frontier binding).
        SchedHold = "sched_hold",
        /// Wire propagation plus remote ingress queueing
        /// (`ingress_start - depart`).
        LinkDelay = "link_delay",
        /// The persistent-log device stalled the handler on an fsync barrier
        /// ([`Ctx::log_fsync`](crate::Ctx::log_fsync), scaled device time).
        FsyncBarrier = "fsync_barrier",
    }
}

/// One node's accumulated wait integrals: nanoseconds waited and wait events
/// observed, by [`WaitReason`] slot.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Nanoseconds waited, by reason slot.
    pub ns: [u64; WaitReason::COUNT],
    /// Number of nonzero waits observed, by reason slot.
    pub events: [u64; WaitReason::COUNT],
}

/// One lifecycle-stage observation captured by the forensics collector: when
/// and where the stage happened, plus a snapshot of the observing node's
/// [`WaitStats`] integrals at that instant. Differencing two marks on the
/// same node bounds how much of each wait reason accrued *between* them —
/// the raw material of a blame vector.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ForensicMark {
    /// Stage instant in nanoseconds of sim time.
    pub at_ns: u64,
    /// Node the stage happened on.
    pub node: NodeId,
    /// The node's wait integrals at the mark.
    pub waits: WaitStats,
}

/// The forensic record of one committed broadcast: the full stage chain with
/// wait-integral snapshots, the named quorum straggler, and the retransmit
/// count. Collected online and always-on (see [`Probe::span_mark`]); the
/// slowest [`OUTLIER_RING_DEPTH`] of these per run form the outlier ring.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitForensics {
    /// Canonical span id: the client-space id once known, else the
    /// message-space id.
    pub id: u64,
    /// Message-space span id (0 before the leader joined the spaces).
    pub msg_id: u64,
    /// Earliest observed mark per lifecycle stage.
    pub marks: [Option<ForensicMark>; SpanStage::COUNT],
    /// Last-acking follower of the commit quorum, when the committer named
    /// one (the [`SpanStage::Quorum`] mark's `arg` minus one).
    pub straggler: Option<NodeId>,
    /// Client retransmit rounds observed for this request (duplicate
    /// [`SpanStage::Submit`] marks).
    pub retransmits: u32,
    /// Instant of the latest Submit mark (first == latest when
    /// `retransmits == 0`).
    pub last_submit_ns: u64,
    /// Commit latency the client measured: ClientResp minus first Submit.
    /// Zero until finalized.
    pub latency_ns: u64,
}

impl CommitForensics {
    /// The mark for `stage`, if observed.
    pub fn mark(&self, stage: SpanStage) -> Option<ForensicMark> {
        self.marks[stage as usize]
    }
}

/// Depth of the slowest-commit outlier ring kept per run.
pub const OUTLIER_RING_DEPTH: usize = 64;

/// Bound on concurrently-open (not yet client-acknowledged) forensic
/// records. Far above any real in-flight window; on overflow the oldest
/// span id is evicted deterministically.
const FORENSICS_OPEN_CAP: usize = 16384;

/// A point-in-time copy of the tail-latency forensics layer: per-node wait
/// integrals, the straggler leaderboard tallies, and the slowest-commit
/// outlier ring (sorted slowest-first).
///
/// Like the counters and the resource tallies this layer is **always on**
/// and zero-perturbation: plain map/array bookkeeping on instants the
/// engine already visits, no RNG draws, no CPU charges, no queue touches —
/// traced and untraced runs of one seed produce identical snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ForensicsSnapshot {
    /// One [`WaitStats`] per node, indexed by [`NodeId`].
    pub waits: Vec<WaitStats>,
    /// Per-node count of quorums this node was named the straggler of,
    /// indexed by [`NodeId`].
    pub straggler_quorums: Vec<u64>,
    /// Total client-acknowledged commits finalized by the collector.
    pub commits: u64,
    /// The slowest commits of the run, slowest first (ties broken toward
    /// the smaller span id), at most [`OUTLIER_RING_DEPTH`] entries.
    pub outliers: Vec<CommitForensics>,
}

/// Online per-commit collector behind [`Probe::span_mark`]. Open records
/// live in `BTreeMap`s keyed by span id so covering-mark inheritance is a
/// range scan and eviction order is deterministic; they are boxed (about
/// 1 KiB each) so inserts and node splits move pointers, not records.
#[derive(Debug, Default)]
struct ForensicsCollector {
    /// Client-space records that no ordering node has adopted yet.
    client: std::collections::BTreeMap<u64, Box<CommitForensics>>,
    /// Message-space records (post-join they carry the client id in `id`).
    msgs: std::collections::BTreeMap<u64, Box<CommitForensics>>,
    /// client-space id -> message-space id, installed at the LeaderRecv
    /// join so the ClientResp mark can find the adopted record.
    alias: std::collections::BTreeMap<u64, u64>,
    /// Straggler leaderboard tallies, indexed by node.
    straggler_quorums: Vec<u64>,
    /// Finalized commits.
    commits: u64,
    /// Bounded slowest-commit ring (unsorted; sorted at snapshot time).
    outliers: Vec<CommitForensics>,
    /// Per stage slot, how far covering marks have reached: every open
    /// record from the epoch base of `covered[slot]` up to it, exclusive,
    /// holds that stage's mark, so the next covering mark of the epoch
    /// scans only from there (`span_mark`).
    covered: [u64; SpanStage::COUNT],
}

/// The epoch base of a message-space span id: its count bits cleared.
fn epoch_base(id: u64) -> u64 {
    id & !0xFFFF_FFFFu64
}

impl ForensicsCollector {
    /// Keep the earliest observation per stage (covering marks and repeated
    /// per-peer marks arrive later than the first real occurrence).
    fn merge_mark(rec: &mut CommitForensics, slot: usize, mark: ForensicMark) {
        match &mut rec.marks[slot] {
            Some(m) if m.at_ns <= mark.at_ns => {}
            m => *m = Some(mark),
        }
    }

    /// Finalize one client-acknowledged record into the tallies and, if slow
    /// enough, the outlier ring. Replacement is deterministic: the current
    /// minimum (ties toward the earliest-captured entry) is evicted only by
    /// a strictly slower commit.
    fn finalize(&mut self, rec: Box<CommitForensics>) {
        self.commits += 1;
        if self.outliers.len() < OUTLIER_RING_DEPTH {
            self.outliers.push(*rec);
            return;
        }
        let (mi, min_lat) = self
            .outliers
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.latency_ns))
            .min_by_key(|&(i, lat)| (lat, i))
            .expect("ring is non-empty");
        if rec.latency_ns > min_lat {
            self.outliers[mi] = *rec;
        }
    }
}

/// One recorded timeline entry (virtual-time stamped).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A protocol instant emitted through [`Ctx::trace`](crate::Ctx::trace).
    Proto {
        /// Instant (dispatch time plus CPU charged so far).
        at: SimTime,
        /// Emitting node.
        node: NodeId,
        /// The protocol event.
        ev: Event,
    },
    /// A message was posted into the fabric.
    Send {
        /// Post instant (dispatch time plus CPU charged at the send).
        at: SimTime,
        /// Sender.
        src: NodeId,
        /// Destination.
        dst: NodeId,
        /// Delivery semantics.
        class: DeliveryClass,
        /// Bytes on the wire (after min-wire-size clamping).
        wire_bytes: u32,
    },
    /// The sender NIC serialized a packet onto the wire.
    NicEgress {
        /// Sending node (timeline row owner).
        node: NodeId,
        /// Serialization start.
        start: SimTime,
        /// Serialization end (packet fully on the wire).
        end: SimTime,
        /// Clamped packet size.
        bytes: u32,
        /// Destination node.
        dst: NodeId,
    },
    /// The receiver NIC serialized a packet off the wire.
    NicIngress {
        /// Receiving node (timeline row owner).
        node: NodeId,
        /// Serialization start.
        start: SimTime,
        /// Serialization end.
        end: SimTime,
        /// Clamped packet size.
        bytes: u32,
        /// Source node.
        src: NodeId,
    },
    /// A message reached its destination handler.
    Deliver {
        /// Delivery instant.
        at: SimTime,
        /// Receiving node.
        node: NodeId,
        /// Sender.
        from: NodeId,
        /// Delivery semantics.
        class: DeliveryClass,
    },
    /// A node's CPU was busy executing handler work.
    CpuBusy {
        /// Node whose CPU was busy.
        node: NodeId,
        /// Busy-interval start.
        start: SimTime,
        /// Busy-interval end.
        end: SimTime,
    },
    /// A lifecycle stage mark emitted through [`Ctx::span`](crate::Ctx::span):
    /// message `id` reached `stage` on `node`.
    Span {
        /// Instant (dispatch time plus CPU charged so far).
        at: SimTime,
        /// Node where the stage happened.
        node: NodeId,
        /// Span id ([`client_span`] or [`msg_span`]).
        id: u64,
        /// Which lifecycle stage.
        stage: SpanStage,
        /// Stage-specific argument: the client-space id on the joining
        /// [`SpanStage::LeaderRecv`] mark, otherwise a peer id or zero.
        arg: u64,
    },
}

impl TraceEvent {
    /// The node that owns this event's timeline row (the sender for
    /// [`TraceEvent::Send`]).
    pub fn node(&self) -> NodeId {
        match *self {
            TraceEvent::Proto { node, .. }
            | TraceEvent::NicEgress { node, .. }
            | TraceEvent::NicIngress { node, .. }
            | TraceEvent::Deliver { node, .. }
            | TraceEvent::CpuBusy { node, .. }
            | TraceEvent::Span { node, .. } => node,
            TraceEvent::Send { src, .. } => src,
        }
    }
}

/// The recording side of the observability layer, owned by the engine (or by
/// a thread in the threaded runner).
///
/// Counters and gauges are always on. Event recording is gated by
/// [`Probe::set_enabled`] and is append-only: it charges no CPU, draws no
/// randomness, and never touches the event schedule.
#[derive(Debug)]
pub struct Probe {
    enabled: bool,
    /// Rows every per-node table holds: `ensure_node`'s one comparison.
    rows: usize,
    events: Vec<TraceEvent>,
    counters: Vec<CounterSet>,
    gauges: Vec<GaugeSet>,
    /// Which gauge slots have been written at least once this run; the
    /// sampler skips never-written gauges so the series stays relevant.
    touched: [bool; Gauge::COUNT],
    samples: Vec<GaugeSample>,
    /// Per-node NIC/CPU resource tallies (always on), parallel to `counters`.
    res_nodes: Vec<NodeRes>,
    /// Per-directed-link tallies; sparse because most protocols use O(n) of
    /// the n² possible links. Sorted into determinism at snapshot time.
    res_links: FastMap<(NodeId, NodeId), DirStats>,
    /// Per-node wait-reason integrals (always on), parallel to `counters`.
    waits: Vec<WaitStats>,
    /// Always-on per-commit forensics collector fed by [`Probe::span_mark`].
    forensics: ForensicsCollector,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            enabled: false,
            rows: 0,
            events: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            touched: [false; Gauge::COUNT],
            samples: Vec::new(),
            res_nodes: Vec::new(),
            res_links: FastMap::default(),
            waits: Vec::new(),
            forensics: ForensicsCollector::default(),
        }
    }
}

impl Probe {
    /// A probe with tracing disabled and no nodes registered.
    pub fn new() -> Self {
        Probe::default()
    }

    /// Grow the per-node tables so row `node` exists.
    ///
    /// This is the **single** growth path for per-node rows — `add_node`,
    /// `count` and gauge writes all route through
    /// it. Invariant: after `ensure_node(n)`, every table has more than `n`
    /// rows and every row in `0..=n` is zero-initialized exactly once
    /// (existing rows are never touched), so probes outside an engine — e.g.
    /// the threaded runner — can count against any node id without panicking
    /// and without resetting earlier tallies.
    #[inline]
    fn ensure_node(&mut self, node: NodeId) {
        if node >= self.rows {
            self.grow_rows(node);
        }
    }

    /// The growth half of [`Probe::ensure_node`], off the hot path.
    #[cold]
    #[inline(never)]
    fn grow_rows(&mut self, node: NodeId) {
        if node >= self.counters.len() {
            self.counters.resize(node + 1, CounterSet::default());
        }
        if node >= self.gauges.len() {
            self.gauges.resize(node + 1, GaugeSet::default());
        }
        if node >= self.res_nodes.len() {
            self.res_nodes.resize(node + 1, NodeRes::default());
        }
        if node >= self.waits.len() {
            self.waits.resize(node + 1, WaitStats::default());
        }
        if node >= self.forensics.straggler_quorums.len() {
            self.forensics.straggler_quorums.resize(node + 1, 0);
        }
        self.rows = node + 1;
    }

    /// Register a counter row for a newly spawned node.
    pub fn add_node(&mut self) {
        let next = self.counters.len();
        self.ensure_node(next);
    }

    /// Turn event recording on or off (counters are unaffected).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether event recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Append `ev` to the timeline if tracing is on.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// Set a node's gauge level (always on; a plain array store).
    #[inline]
    pub fn gauge_set(&mut self, node: NodeId, g: Gauge, v: u64) {
        self.ensure_node(node);
        self.gauges[node].vals[g as usize] = v;
        self.touched[g as usize] = true;
    }

    /// Adjust a node's gauge level by a signed delta (saturating).
    #[inline]
    pub fn gauge_add(&mut self, node: NodeId, g: Gauge, delta: i64) {
        self.ensure_node(node);
        let v = &mut self.gauges[node].vals[g as usize];
        *v = if delta >= 0 {
            v.saturating_add(delta as u64)
        } else {
            v.saturating_sub(delta.unsigned_abs())
        };
        self.touched[g as usize] = true;
    }

    /// Read a node's current gauge level (0 for unregistered nodes).
    #[inline]
    pub fn gauge(&self, node: NodeId, g: Gauge) -> u64 {
        self.gauges.get(node).map_or(0, |s| s.get(g))
    }

    /// Append one [`GaugeSample`] per (node, written gauge) at instant `at`.
    /// Called only by the engine's between-dispatch sampler; gauges never
    /// written this run are skipped.
    pub fn sample_gauges(&mut self, at: SimTime) {
        for node in 0..self.gauges.len() {
            for g in Gauge::ALL {
                if self.touched[g as usize] {
                    self.samples.push(GaugeSample {
                        at,
                        node,
                        gauge: g,
                        value: self.gauges[node].vals[g as usize],
                    });
                }
            }
        }
    }

    /// The sampled gauge series so far.
    pub fn gauge_samples(&self) -> &[GaugeSample] {
        &self.samples
    }

    /// Take the sampled gauge series, leaving the buffer empty.
    pub fn take_gauge_samples(&mut self) -> Vec<GaugeSample> {
        std::mem::take(&mut self.samples)
    }

    /// Bump a per-node counter (always on; rows grow on demand through
    /// [`ensure_node`](Probe::ensure_node)).
    #[inline]
    pub fn count(&mut self, node: NodeId, c: Counter, n: u64) {
        self.ensure_node(node);
        self.counters[node].vals[c as usize] += n;
    }

    /// Read one node's counter (0 for unregistered nodes).
    #[inline]
    pub fn counter(&self, node: NodeId, c: Counter) -> u64 {
        self.counters.get(node).map_or(0, |s| s.get(c))
    }

    /// Account one frame leaving `src` toward `dst`: egress-NIC and
    /// directed-link tallies. `busy_ns` is the frame's exact egress
    /// serialization time. Always on; plain adds only.
    #[inline]
    pub fn account_tx(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: MsgKind,
        bytes: u64,
        busy_ns: u64,
    ) {
        self.ensure_node(src);
        self.res_nodes[src].tx.add(kind, bytes, busy_ns);
        self.res_links
            .entry((src, dst))
            .or_default()
            .add(kind, bytes, busy_ns);
    }

    /// Account one frame arriving at `dst`: ingress-NIC tallies. `busy_ns`
    /// is the receive-side serialization time. Loopback deliveries are not
    /// accounted (no NIC is traversed), mirroring the trace layer's
    /// [`TraceEvent::NicIngress`] rule.
    #[inline]
    pub fn account_rx(&mut self, dst: NodeId, kind: MsgKind, bytes: u64, busy_ns: u64) {
        self.ensure_node(dst);
        self.res_nodes[dst].rx.add(kind, bytes, busy_ns);
    }

    /// Attribute `ns` of (already-scaled) CPU busy-time on `node` to
    /// attribution slot `slot` (a [`SpanStage`] index, or
    /// [`SpanStage::COUNT`] for "other"). Called by
    /// [`Ctx::use_cpu`](crate::Ctx::use_cpu) /
    /// [`Ctx::use_cpu_at`](crate::Ctx::use_cpu_at) on every charge.
    #[inline]
    pub fn cpu_charge(&mut self, node: NodeId, slot: usize, ns: u64) {
        self.ensure_node(node);
        self.res_nodes[node].cpu_ns[slot] += ns;
    }

    /// Integrate `ns` of waiting on `node` attributed to `reason`. Always
    /// on; a plain array add on instants the engine already computes, so it
    /// cannot perturb the run. Zero-length waits are not counted as events.
    #[inline]
    pub fn wait(&mut self, node: NodeId, reason: WaitReason, ns: u64) {
        self.wait_n(node, reason, ns, 1);
    }

    /// [`Probe::wait`] for `n` waits of `ns` each (a deferral run re-keyed
    /// in one pass charges every member the same wait).
    #[inline]
    pub fn wait_n(&mut self, node: NodeId, reason: WaitReason, ns: u64, n: u64) {
        if ns == 0 {
            return;
        }
        self.ensure_node(node);
        let w = &mut self.waits[node];
        w.ns[reason as usize] += ns * n;
        w.events[reason as usize] += n;
    }

    /// Read one node's wait integrals (zeros for unregistered nodes).
    pub fn wait_stats(&self, node: NodeId) -> WaitStats {
        self.waits.get(node).copied().unwrap_or_default()
    }

    /// Feed one lifecycle stage mark to the always-on forensics collector.
    ///
    /// Called unconditionally from [`Ctx::span`](crate::Ctx::span) —
    /// independent of tracing, so untraced runs
    /// (the 64-node scale study) still capture their tail. All bookkeeping
    /// is deterministic map/array work keyed on the span id; no RNG, no CPU
    /// charge, no queue touch.
    ///
    /// Collection rules:
    /// * records are **created** only by `Submit` (client space) and by the
    ///   join below (message space). Only a joined record can ever be
    ///   finalized, so no other mark opens one: marks keep arriving for a
    ///   message after its client was answered (a ring follower past the
    ///   quorum point forwards it, a leader streams it to a lagging
    ///   follower), and a record opened then would stay open for good;
    /// * a message-space `LeaderRecv` whose `arg` carries a client-space id
    ///   joins the spaces: the client record is adopted and aliased;
    /// * duplicate `Submit` marks count client retransmit rounds;
    /// * covering stages ([`SpanStage::covering`]) are inherited by every
    ///   open lower count of the same epoch via a range scan, straggler
    ///   included;
    /// * `ClientResp` finalizes (latency = resp − first submit) into the
    ///   commit tallies and the bounded outlier ring.
    pub fn span_mark(&mut self, at: SimTime, node: NodeId, id: u64, stage: SpanStage, arg: u64) {
        self.ensure_node(node);
        let mark = ForensicMark {
            at_ns: at.as_nanos(),
            node,
            waits: self.waits[node],
        };
        let f = &mut self.forensics;
        if id >> 63 == 0 {
            // Client-space id.
            match stage {
                SpanStage::Submit => {
                    if let Some(rec) = f
                        .alias
                        .get(&id)
                        .copied()
                        .and_then(|mid| f.msgs.get_mut(&mid))
                        .or_else(|| f.client.get_mut(&id))
                    {
                        // A repeated Submit is a client retransmit round;
                        // the first submit instant stays the latency origin
                        // (mirroring the client's own latency measurement).
                        rec.retransmits += 1;
                        rec.last_submit_ns = mark.at_ns;
                    } else {
                        let mut rec = Box::new(CommitForensics {
                            id,
                            last_submit_ns: mark.at_ns,
                            ..CommitForensics::default()
                        });
                        rec.marks[SpanStage::Submit as usize] = Some(mark);
                        f.client.insert(id, rec);
                        if f.client.len() > FORENSICS_OPEN_CAP {
                            f.client.pop_first();
                        }
                    }
                }
                SpanStage::ClientResp => {
                    let rec = match f.alias.remove(&id) {
                        Some(mid) => f.msgs.remove(&mid),
                        None => f.client.remove(&id),
                    };
                    if let Some(mut rec) = rec {
                        if let Some(sub) = rec.marks[SpanStage::Submit as usize] {
                            ForensicsCollector::merge_mark(
                                &mut rec,
                                SpanStage::ClientResp as usize,
                                mark,
                            );
                            rec.latency_ns = mark.at_ns.saturating_sub(sub.at_ns);
                            f.finalize(rec);
                        }
                    }
                }
                other => {
                    // Mid-lifecycle stages on a client-space id (a protocol
                    // that never re-keys): merge if the record is open.
                    if let Some(rec) = f.client.get_mut(&id) {
                        ForensicsCollector::merge_mark(rec, other as usize, mark);
                    }
                }
            }
            return;
        }
        // Message-space id.
        if stage == SpanStage::LeaderRecv && arg != 0 && arg >> 63 == 0 {
            // The ordering node joined the spaces: adopt the client record.
            if !f.msgs.contains_key(&id) {
                let mut rec = f.client.remove(&arg).unwrap_or_else(|| {
                    Box::new(CommitForensics {
                        id: arg,
                        ..CommitForensics::default()
                    })
                });
                rec.id = arg;
                rec.msg_id = id;
                f.msgs.insert(id, rec);
                // A record opened below a covering watermark does not hold
                // that stage yet: the next covering mark must reach it.
                for w in &mut f.covered {
                    if id < *w && epoch_base(id) == epoch_base(*w) {
                        *w = id;
                    }
                }
                f.alias.insert(arg, id);
                if f.msgs.len() > FORENSICS_OPEN_CAP {
                    if let Some((_, dead)) = f.msgs.pop_first() {
                        f.alias.remove(&dead.id);
                    }
                }
            }
        }
        let straggler = if stage == SpanStage::Quorum && arg != 0 {
            Some((arg - 1) as NodeId)
        } else {
            None
        };
        if let Some(s) = straggler {
            self.ensure_node(s);
            // ensure_node may have reallocated the collector's tally row —
            // reborrow (the closure-free way to keep the borrow checker
            // happy after &mut self use).
            let f = &mut self.forensics;
            f.straggler_quorums[s] += 1;
        }
        let f = &mut self.forensics;
        if let Some(rec) = f.msgs.get_mut(&id) {
            ForensicsCollector::merge_mark(rec, stage as usize, mark);
            if let Some(s) = straggler {
                rec.straggler.get_or_insert(s);
            }
        }
        if stage.covering() {
            // Inherit into every open lower count of the same (round, ldr)
            // epoch: the msg-span packing keeps the count in the low 32
            // bits, so the epoch's ids form one contiguous key range. Below
            // the stage's watermark in the same epoch every open record
            // already holds the stage, so the scan starts there.
            let slot = stage as usize;
            let (lo, w) = (epoch_base(id), f.covered[slot]);
            let from = if epoch_base(w) == lo { w } else { lo };
            if from >= id {
                return;
            }
            f.covered[slot] = id;
            for (_, rec) in f.msgs.range_mut(from..id) {
                if rec.marks[slot].is_none() {
                    rec.marks[slot] = Some(mark);
                    if let Some(s) = straggler {
                        rec.straggler.get_or_insert(s);
                    }
                }
            }
        }
    }

    /// Forensic records currently open: submitted or ordered, not yet
    /// client-acknowledged. Bounded by the requests in flight, whatever the
    /// run length.
    pub fn forensics_open_records(&self) -> usize {
        self.forensics.client.len() + self.forensics.msgs.len()
    }

    /// Copy out the tail-latency forensics: per-node wait integrals,
    /// straggler tallies, and the outlier ring sorted slowest-first (ties
    /// toward the smaller span id).
    pub fn forensics_snapshot(&self) -> ForensicsSnapshot {
        let rows = self.counters.len();
        let mut waits = self.waits.clone();
        waits.resize(rows.max(waits.len()), WaitStats::default());
        let mut straggler_quorums = self.forensics.straggler_quorums.clone();
        straggler_quorums.resize(rows.max(straggler_quorums.len()), 0);
        let mut outliers = self.forensics.outliers.clone();
        outliers.sort_by(|a, b| {
            b.latency_ns
                .cmp(&a.latency_ns)
                .then_with(|| a.id.cmp(&b.id))
        });
        ForensicsSnapshot {
            waits,
            straggler_quorums,
            commits: self.forensics.commits,
            outliers,
        }
    }

    /// Copy out the resource tallies. `elapsed_ns` is left at zero — the
    /// engine's [`Sim::metrics`](crate::Sim::metrics) fills in its clock.
    pub fn resource_snapshot(&self) -> ResourceSnapshot {
        let mut nodes = self.res_nodes.clone();
        nodes.resize(self.counters.len().max(nodes.len()), NodeRes::default());
        let mut links: Vec<LinkRes> = self
            .res_links
            .iter()
            .map(|(&(src, dst), &stats)| LinkRes { src, dst, stats })
            .collect();
        links.sort_unstable_by_key(|l| (l.src, l.dst));
        ResourceSnapshot {
            elapsed_ns: 0,
            nodes,
            links,
        }
    }

    /// The recorded timeline so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Take the recorded timeline, leaving the buffer empty.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Copy out the counter registry and final gauge levels.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut gauges = self.gauges.clone();
        gauges.resize(self.counters.len(), GaugeSet::default());
        MetricsSnapshot {
            nodes: self.counters.clone(),
            gauges,
            res: self.resource_snapshot(),
            forensics: self.forensics_snapshot(),
        }
    }
}

/// A point-in-time copy of every node's counters and gauge levels.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// One [`CounterSet`] per node, indexed by [`NodeId`].
    pub nodes: Vec<CounterSet>,
    /// One [`GaugeSet`] per node (final levels at snapshot time), parallel
    /// to `nodes`.
    pub gauges: Vec<GaugeSet>,
    /// Resource-utilization tallies (NIC/link byte accounting by message
    /// kind, CPU busy-time by stage) at snapshot time.
    pub res: ResourceSnapshot,
    /// Tail-latency forensics (wait integrals, straggler tallies, outlier
    /// ring) at snapshot time.
    pub forensics: ForensicsSnapshot,
}

impl MetricsSnapshot {
    /// Sum of one counter across all nodes.
    pub fn total(&self, c: Counter) -> u64 {
        self.nodes.iter().map(|n| n.get(c)).sum()
    }

    /// How many distinct counters are nonzero on at least one node.
    pub fn distinct_nonzero(&self) -> usize {
        Counter::ALL.iter().filter(|&&c| self.total(c) > 0).count()
    }

    /// Render as JSON: per-node counter + gauge objects plus cross-node
    /// counter totals.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * (self.nodes.len() + 1));
        out.push_str("{\"nodes\":[");
        for (id, set) in self.nodes.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"node\":{id},\"counters\":{{"));
            for (i, (c, v)) in set.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", c.name(), v));
            }
            out.push_str("},\"gauges\":{");
            let gs = self.gauges.get(id).copied().unwrap_or_default();
            for (i, (g, v)) in gs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", g.name(), v));
            }
            out.push_str("}}");
        }
        out.push_str("],\"totals\":{");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), self.total(*c)));
        }
        out.push_str("}}");
        out
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The marks of `stage` the open message-space records hold, by count.
    fn stage_marks(p: &Probe, stage: SpanStage) -> Vec<(u32, Option<u64>)> {
        p.forensics
            .msgs
            .iter()
            .map(|(&id, r)| (id as u32, r.marks[stage as usize].map(|m| m.at_ns)))
            .collect()
    }

    /// A record opened after a higher covering mark of its epoch (the
    /// watermark passed it before it existed) still inherits the next
    /// covering mark above it, as a scan of the whole epoch gives it; a
    /// covering mark at or below the watermark changes nothing, and one in
    /// another epoch scans that epoch from its base.
    #[test]
    fn a_record_opened_below_the_covering_watermark_still_inherits() {
        let mut p = Probe::new();
        let t = SimTime::from_nanos;
        let open = |p: &mut Probe, cnt: u32| {
            p.span_mark(
                t(1),
                0,
                msg_span(1, 0, cnt),
                SpanStage::LeaderRecv,
                100 + cnt as u64,
            );
        };
        let commit = |p: &mut Probe, at: u64, round: u32, cnt: u32| {
            p.span_mark(t(at), 1, msg_span(round, 0, cnt), SpanStage::Commit, 0);
        };
        open(&mut p, 1);
        open(&mut p, 5);
        commit(&mut p, 10, 1, 5);
        open(&mut p, 3);
        open(&mut p, 8);
        commit(&mut p, 20, 1, 4);
        assert_eq!(
            stage_marks(&p, SpanStage::Commit),
            [(1, Some(10)), (3, Some(20)), (5, Some(10)), (8, None)]
        );
        commit(&mut p, 30, 1, 9);
        commit(&mut p, 40, 1, 7);
        open(&mut p, 2);
        commit(&mut p, 50, 2, 1);
        commit(&mut p, 60, 1, 6);
        assert_eq!(
            stage_marks(&p, SpanStage::Commit),
            [
                (1, Some(10)),
                (2, Some(60)),
                (3, Some(20)),
                (5, Some(10)),
                (8, Some(30))
            ]
        );
    }

    #[test]
    fn counters_accumulate_per_node() {
        let mut p = Probe::new();
        p.add_node();
        p.add_node();
        p.count(0, Counter::Commits, 3);
        p.count(1, Counter::Commits, 4);
        p.count(0, Counter::Commits, 1);
        let snap = p.snapshot();
        assert_eq!(snap.nodes[0].get(Counter::Commits), 4);
        assert_eq!(snap.nodes[1].get(Counter::Commits), 4);
        assert_eq!(snap.total(Counter::Commits), 8);
        assert_eq!(snap.total(Counter::Retransmits), 0);
    }

    #[test]
    fn count_grows_rows_on_demand() {
        let mut p = Probe::new();
        p.count(5, Counter::RingStalls, 1);
        assert_eq!(p.snapshot().nodes.len(), 6);
        assert_eq!(p.snapshot().nodes[5].get(Counter::RingStalls), 1);
    }

    #[test]
    fn recording_gated_by_enabled() {
        let mut p = Probe::new();
        let ev = TraceEvent::CpuBusy {
            node: 0,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(10),
        };
        p.record(ev);
        assert!(p.events().is_empty());
        p.set_enabled(true);
        p.record(ev);
        assert_eq!(p.events().len(), 1);
        assert_eq!(p.take_events().len(), 1);
        assert!(p.events().is_empty());
    }

    #[test]
    fn counter_names_are_unique_and_cover_all() {
        let names: std::collections::HashSet<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT);
        // The span/auditor counters are part of the registry.
        for c in [
            Counter::SpanMarks,
            Counter::AuditEpochRegress,
            Counter::AuditCommitRegress,
            Counter::AuditCommitAheadAccept,
        ] {
            assert!(names.contains(c.name()), "missing {}", c.name());
        }
    }

    #[test]
    fn span_id_packing_round_trips() {
        let c = client_span(3, 0x1234_5678);
        assert_eq!(c >> 63, 0, "client space has bit 63 clear");
        assert_eq!(msg_span_parts(c), None);
        let m = msg_span(7, 2, 41);
        assert_eq!(msg_span_parts(m), Some((7, 2, 41)));
        // Order-preserving within an epoch: higher cnt, higher id.
        assert!(msg_span(7, 2, 42) > m);
        assert!(msg_span(8, 0, 0) > msg_span(7, 0xFFFF, u32::MAX));
    }

    #[test]
    fn add_node_and_count_share_one_growth_path() {
        let mut p = Probe::new();
        p.add_node(); // row 0
        p.count(0, Counter::Commits, 2);
        p.count(3, Counter::Commits, 1); // grows 1..=3 on demand
        p.add_node(); // row 4 — must not disturb rows 0..=3
        let snap = p.snapshot();
        assert_eq!(snap.nodes.len(), 5);
        assert_eq!(snap.nodes[0].get(Counter::Commits), 2);
        assert_eq!(snap.nodes[3].get(Counter::Commits), 1);
        assert_eq!(snap.nodes[4].get(Counter::Commits), 0);
    }

    #[test]
    fn metrics_json_contains_every_counter() {
        let mut p = Probe::new();
        p.add_node();
        p.count(0, Counter::VerbPosts, 2);
        let json = p.snapshot().to_json();
        for c in Counter::ALL {
            assert!(json.contains(c.name()), "missing {}", c.name());
        }
        assert!(json.contains("\"verb_posts\":2"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn gauges_store_and_sample_only_written_slots() {
        let mut p = Probe::new();
        p.add_node();
        p.add_node();
        p.gauge_set(0, Gauge::Epoch, 3);
        p.gauge_add(1, Gauge::InflightMsgs, 2);
        p.gauge_add(1, Gauge::InflightMsgs, -5); // saturates at zero
        assert_eq!(p.gauge(0, Gauge::Epoch), 3);
        assert_eq!(p.gauge(1, Gauge::InflightMsgs), 0);
        assert_eq!(p.gauge(9, Gauge::Epoch), 0, "unregistered node reads 0");
        p.sample_gauges(SimTime::from_micros(1));
        // Two nodes × the two gauges written this run.
        let samples = p.gauge_samples();
        assert_eq!(samples.len(), 4);
        assert!(samples
            .iter()
            .all(|s| matches!(s.gauge, Gauge::Epoch | Gauge::InflightMsgs)));
        assert_eq!(p.take_gauge_samples().len(), 4);
        assert!(p.gauge_samples().is_empty());
    }

    #[test]
    fn metrics_json_contains_every_gauge() {
        let mut p = Probe::new();
        p.add_node();
        p.gauge_set(0, Gauge::RingOccupancy, 512);
        let json = p.snapshot().to_json();
        assert!(json.contains("\"ring_occupancy\":512"));
        for g in Gauge::ALL {
            assert!(json.contains(g.name()), "missing {}", g.name());
        }
    }
}
