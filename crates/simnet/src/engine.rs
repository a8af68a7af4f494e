//! The discrete-event engine: event queue, dispatch, CPU deferral, faults.

use crate::ctx::{scaled_charge, Ctx, DeliveryClass, Effect};
use crate::disk::{DurableLog, LogDevParams};
use crate::net::{draw_jitter, Network};
use crate::params::NetParams;
use crate::sched::{EventKey, SchedKind, Scheduler};
use crate::time::SimTime;
use crate::trace::{
    Counter, Gauge, GaugeSample, MetricsSnapshot, Probe, TraceEvent, WaitReason, CPU_SLOT_IDLE,
};
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::collections::VecDeque;
use std::time::Duration;

/// A protocol node: a sans-IO state machine driven entirely by the engine.
///
/// Implementations must be `'static` (they are stored as `dyn Any` for
/// harness inspection). All effects go through the [`Ctx`]; handlers must not
/// perform real I/O or consult wall-clock time.
pub trait Process<M>: Any {
    /// Called once when the simulation first runs, in spawn order.
    fn on_start(&mut self, _ctx: &mut Ctx<M>) {}
    /// Called when a message is delivered (see [`DeliveryClass`] for timing).
    fn on_message(&mut self, ctx: &mut Ctx<M>, from: NodeId, msg: M);
    /// Called when a timer armed with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<M>, _token: u64) {}
    /// Asked about timer `token` when it is about to fire, and again after
    /// each handler while the node is parked. A process whose `on_timer`
    /// would do nothing but `ctx.use_cpu_idle(cpu)` and
    /// `ctx.set_timer(rearm, token)` (a busy-poll loop that finds nothing)
    /// at every instant up to `until`, for as long as no event reaches it,
    /// may say so: the engine then runs no handler for those polls. It
    /// parks the node and books the polls in closed form when something
    /// reaches it (DESIGN.md §11), indistinguishably in virtual time. The
    /// answer may read only the process's own state.
    fn idle_poll(&self, _token: u64) -> Option<IdlePoll> {
        None
    }
}

/// How a poll that finds nothing runs (see [`Process::idle_poll`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IdlePoll {
    /// CPU the empty poll spins, charged to the `idle_poll` slot.
    pub cpu: Duration,
    /// The delay the poll re-arms its timer with.
    pub rearm: Duration,
    /// The last instant at which a poll still finds nothing, if there is
    /// one (a follower suspects its leader after it).
    pub until: Option<SimTime>,
}

/// A "long-latency node" profile: the process is periodically descheduled by
/// the OS for a bounded random duration. DMA deliveries still land while
/// descheduled (the NIC keeps working); timers and CPU deliveries wait.
///
/// This reproduces the effect §4.2 of the paper attributes election-time
/// variance to, and the receiver-side-batching story of §3: messages pile up
/// during a descheduling episode and are drained as one batch afterwards.
#[derive(Copy, Clone, Debug)]
pub struct DeschedProfile {
    /// Mean interval between descheduling episodes.
    pub mean_interval: Duration,
    /// Minimum episode duration.
    pub min_pause: Duration,
    /// Maximum episode duration.
    pub max_pause: Duration,
}

/// Aggregate counters for a simulation run.
#[derive(Copy, Clone, Debug, Default)]
pub struct EngineStats {
    /// Keys popped from the scheduler: every handler run, every drop, and
    /// every deferral that went through the queue. The unfiled members of a
    /// deferral run (DESIGN.md §11) are re-keyed without being popped, so a
    /// held node's backlog costs one event per wake-up, not one per member,
    /// and a parked node's idle polls are booked without being filed.
    pub events: u64,
    /// Messages delivered with [`DeliveryClass::Dma`].
    pub dma_msgs: u64,
    /// Messages delivered with [`DeliveryClass::Cpu`].
    pub cpu_msgs: u64,
    /// Bytes placed on the wire (after minimum-wire-size clamping): the
    /// [`Counter::WireBytes`] total, read when [`Sim::stats`] is called.
    pub wire_bytes: u64,
    /// Packets placed on the wire: the [`Counter::Packets`] total.
    pub packets: u64,
    /// Pre-crash in-flight deliveries and timers discarded because an
    /// endpoint restarted before they fired (the RC connection was torn down
    /// and re-established with a fresh incarnation).
    pub restart_drops: u64,
    /// Sends dropped at the source because a partition cut the connection:
    /// the [`Counter::PartitionDrops`] total.
    pub partition_drops: u64,
}

enum EventKind<M> {
    Start {
        node: NodeId,
        inc: u64,
    },
    Timer {
        node: NodeId,
        token: u64,
        inc: u64,
    },
    Deliver {
        node: NodeId,
        from: NodeId,
        class: DeliveryClass,
        msg: M,
        /// Sender's incarnation at post time.
        src_inc: u64,
        /// Receiver's incarnation at post time.
        dst_inc: u64,
    },
    PauseAt {
        node: NodeId,
        dur: Duration,
    },
    CrashAt(NodeId),
    RestartAt(NodeId),
    PartitionAt(Vec<Vec<NodeId>>),
    HealAt,
    /// Correlated fail-stop of a whole set of nodes at one instant (power
    /// failure): every listed node crashes, and each persistent log is
    /// truncated to its last fsync'd barrier.
    PowerFailAt(Vec<NodeId>),
    DeschedTick {
        node: NodeId,
        inc: u64,
    },
    /// A parked node's polls may pass its `until` here ([`Park`]). Not an
    /// event of the every-poll path: keyed ahead of every event of its node
    /// at its instant, and drawing no `seq`.
    Wake {
        node: NodeId,
    },
}

impl<M> EventKind<M> {
    /// The node an event is aimed at, which keys it (DESIGN.md §11);
    /// `None` for the cluster-wide faults.
    fn node(&self) -> Option<NodeId> {
        match *self {
            EventKind::Start { node, .. }
            | EventKind::Timer { node, .. }
            | EventKind::Deliver { node, .. }
            | EventKind::PauseAt { node, .. }
            | EventKind::CrashAt(node)
            | EventKind::RestartAt(node)
            | EventKind::DeschedTick { node, .. }
            | EventKind::Wake { node } => Some(node),
            EventKind::PartitionAt(_) | EventKind::HealAt | EventKind::PowerFailAt(_) => None,
        }
    }
}

/// The high bits of an event's `seq` hold the node it is aimed at, so the
/// scheduler's `(at, seq)` order is `(at, node, per-node seq)`.
const NODE_SHIFT: u32 = 48;
/// The id keying events aimed at no node: they fire after every node's
/// events at their instant.
const NO_NODE: u64 = 0xFFFF;

/// The lowest `seq` of node `id`'s events (`id` is [`NO_NODE`] for events
/// aimed at no node). A node's own counter starts one above it: the base
/// keys its [`EventKind::Wake`].
fn seq_base(id: u64) -> u64 {
    id << NODE_SHIFT
}

/// A parked poller's next poll, which is not in the scheduler: its key, its
/// payload's slab slot, and the cadence its successors follow. Nothing is
/// filed for the node while it is parked without first booking the polls
/// that fire before the filing ([`Sim::book`]), so poll `j >= 1` after this
/// one fires at `at + j * every` under the node's `seq` counter plus
/// `j - 1`: each poll draws the next `seq` for its successor as it fires.
#[derive(Copy, Clone)]
struct Park {
    at: SimTime,
    seq: u64,
    slot: u32,
    token: u64,
    /// One poll's scaled idle charge.
    cpu: Duration,
    /// The charge plus the re-arm delay: the poll period.
    every: Duration,
    /// The last instant a poll still finds nothing ([`IdlePoll::until`]).
    until: Option<SimTime>,
    /// The instant of the live [`EventKind::Wake`], if one is filed.
    wake: Option<SimTime>,
}

impl Park {
    /// The key of poll `j`, the next one being poll 0; `next` is the node's
    /// `seq` counter.
    fn key(&self, next: u64, j: u64) -> (SimTime, u64) {
        if j == 0 {
            (self.at, self.seq)
        } else {
            let at = self.at + Duration::from_nanos(self.every.as_nanos() as u64 * j);
            (at, next + j - 1)
        }
    }

    /// How many polls fire before the key `(at, seq)`.
    fn before(&self, next: u64, (at, seq): (SimTime, u64)) -> u64 {
        if self.key(next, 0) >= (at, seq) {
            return 0;
        }
        let gap = at.as_nanos() - self.at.as_nanos();
        let n = gap.div_ceil(self.every.as_nanos() as u64);
        n + u64::from(self.key(next, n) < (at, seq))
    }

    /// The first poll instant past `until`: the first poll that is not idle.
    fn stop(&self) -> Option<SimTime> {
        let until = self.until?;
        if self.at > until {
            return Some(self.at);
        }
        let every = self.every.as_nanos() as u64;
        let j = (until.as_nanos() - self.at.as_nanos()) / every + 1;
        Some(self.at + Duration::from_nanos(every * j))
    }
}

/// Event payload store: the scheduler moves only 24-byte [`EventKey`]s; the
/// (much larger, `M`-carrying) payloads live here in recycled slots, so the
/// queue allocates nothing per hop once warm.
struct Slab<M> {
    slots: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M> Slab<M> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, kind: EventKind<M>) -> u32 {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none());
                self.slots[i as usize] = Some(kind);
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Some(kind));
                i
            }
        }
    }

    fn take(&mut self, i: u32) -> EventKind<M> {
        let kind = self.slots[i as usize].take().expect("slab slot empty");
        self.free.push(i);
        kind
    }

    fn peek(&self, i: u32) -> &EventKind<M> {
        self.slots[i as usize].as_ref().expect("slab slot empty")
    }
}

/// A member of a deferral run that is not filed in the scheduler: the `seq`
/// half of its key (the `at` half is the run's) and its slab slot.
#[derive(Copy, Clone)]
struct Deferred {
    seq: u64,
    slot: u32,
}

/// The timers and `Cpu` deliveries a held (busy or descheduled) node has
/// deferred to one frontier, kept on the node instead of in the scheduler.
///
/// Every member carries exactly the `(at, seq)` key a per-event re-file
/// would have given it, so filing members under their present keys
/// ([`Sim::flush_run`]) is allowed at any moment and recreates the queue
/// the per-event path would have built. Only the run's front is filed.
/// When it pops and the node is held again, the per-event path would pop
/// every member in turn and re-file it at the new frontier with the next
/// `seq`; if no other key shares the instant nothing can run in between,
/// and [`Sim::rekey_run`] does the same in one pass without touching the
/// queue. (A plain FIFO of waiting events is *not* equivalent: a key filed
/// directly at the wake instant sorts between members by `seq`, and a
/// frontier that moved between two deferrals reorders them.)
struct Run {
    /// The frontier every member is keyed at.
    at: SimTime,
    /// `seq` of the front while it is filed in the scheduler.
    head: Option<u64>,
    /// The members behind the front, ascending by `seq`, not filed.
    /// Non-empty only while `head` is filed (or, inside [`Sim::step`], has
    /// just been popped and the run is about to be settled).
    tail: VecDeque<Deferred>,
}

/// Builds a fresh process when a node reboots (see
/// [`Sim::set_restart_factory`]).
type RestartFactory<M> = Box<dyn FnMut() -> Box<dyn Process<M>>>;

struct NodeSlot<M> {
    proc: Option<Box<dyn Process<M>>>,
    busy_until: SimTime,
    paused_until: SimTime,
    crashed: bool,
    /// Bumped on every restart; events carry the incarnation they were
    /// created under, and stale ones are discarded at dispatch.
    inc: u64,
    factory: Option<RestartFactory<M>>,
    cpu_scale: f64,
    timer_jitter: Duration,
    desched: Option<DeschedProfile>,
    /// The node's persistent log. Lives here — not in the process — so it
    /// survives restarts; every crash flavour truncates it to the last
    /// fsync'd barrier.
    disk: DurableLog,
    /// What this node has deferred while held (see [`Run`]).
    run: Run,
    /// The `seq` the next event filed for this node gets: the node's id in
    /// the high bits, a counter below.
    seq: u64,
    /// The node's next poll while it is parked.
    park: Option<Park>,
    /// Polls answered without a handler (booked ones included).
    idle_polls: u64,
}

impl<M> NodeSlot<M> {
    /// If the process cannot run at `now`: the instant it frees up and
    /// which frontier binds (forensics wait attribution).
    fn held(&self, now: SimTime) -> Option<(SimTime, WaitReason)> {
        let free = self.busy_until.max(self.paused_until);
        (free > now).then_some((
            free,
            if self.paused_until > self.busy_until {
                WaitReason::SchedHold
            } else {
                WaitReason::BusyDefer
            },
        ))
    }
}

/// The simulator: owns the clock, the event queue, every node, and the
/// network model.
pub struct Sim<M> {
    now: SimTime,
    /// The `seq` the next event aimed at no node gets.
    seq: u64,
    /// The key of the event being dispatched, or past everything at `now`
    /// between runs: what has fired, for booking parked polls.
    cur: (SimTime, u64),
    sched: Scheduler,
    slab: Slab<M>,
    nodes: Vec<NodeSlot<M>>,
    net: Network,
    rng: SmallRng,
    stats: EngineStats,
    probe: Probe,
    /// Gauge-sampling cadence; `None` disables the sampler.
    sample_every: Option<Duration>,
    /// Next sample instant when sampling is enabled.
    next_sample: SimTime,
    /// Recycled effects buffer handed to each [`Ctx`].
    effect_pool: Vec<Effect<M>>,
    /// Test oracle: file every deferral on its own, so no run ever forms.
    #[cfg(test)]
    per_event_only: bool,
    /// Test oracle: run every poll's handler, so no node ever parks.
    #[cfg(test)]
    queue_polls: bool,
}

impl<M: 'static> Sim<M> {
    /// Create a simulator with the given deterministic seed and network
    /// parameters, using the default (calendar-queue) scheduler
    /// ([`Sim::set_scheduler`] switches it).
    pub fn new(seed: u64, params: NetParams) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: seq_base(NO_NODE),
            cur: (SimTime::ZERO, 0),
            sched: Scheduler::new(SchedKind::default()),
            slab: Slab::new(),
            nodes: Vec::new(),
            net: Network::new(params.default_link, params.loopback, params.nic),
            rng: SmallRng::seed_from_u64(seed),
            stats: EngineStats::default(),
            probe: Probe::new(),
            sample_every: None,
            next_sample: SimTime::ZERO,
            effect_pool: Vec::new(),
            #[cfg(test)]
            per_event_only: false,
            #[cfg(test)]
            queue_polls: false,
        }
    }

    /// Switch scheduler implementations mid-run: queued events are drained in
    /// order and re-filed with their keys unchanged, so the event sequence —
    /// and therefore every observable result — is untouched.
    pub fn set_scheduler(&mut self, kind: SchedKind) {
        if self.sched.kind() == kind {
            return;
        }
        let mut fresh = Scheduler::new(kind);
        while let Some(k) = self.sched.pop() {
            fresh.push(k);
        }
        self.sched = fresh;
    }

    /// Spawn a node; `on_start` runs when the clock next advances, in spawn
    /// order.
    pub fn add_node(&mut self, proc: Box<dyn Process<M>>) -> NodeId {
        let id = self.nodes.len();
        assert!((id as u64) < NO_NODE, "too many nodes for the event key");
        self.nodes.push(NodeSlot {
            proc: Some(proc),
            busy_until: SimTime::ZERO,
            paused_until: SimTime::ZERO,
            crashed: false,
            inc: 0,
            factory: None,
            cpu_scale: 1.0,
            timer_jitter: Duration::ZERO,
            desched: None,
            disk: DurableLog::default(),
            run: Run {
                at: SimTime::ZERO,
                head: None,
                tail: VecDeque::new(),
            },
            seq: seq_base(id as u64) + 1,
            park: None,
            idle_polls: 0,
        });
        self.net.add_node();
        self.probe.add_node();
        self.push(self.now, EventKind::Start { node: id, inc: 0 });
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run counters. The wire and partition members are the counter
    /// registry's cluster-wide totals, summed here rather than kept twice.
    pub fn stats(&self) -> EngineStats {
        let total = |c| {
            (0..self.nodes.len())
                .map(|n| self.probe.counter(n, c))
                .sum()
        };
        EngineStats {
            wire_bytes: total(Counter::WireBytes),
            packets: total(Counter::Packets),
            partition_drops: total(Counter::PartitionDrops),
            ..self.stats
        }
    }

    /// Polls `node` ran that the engine answered without a handler
    /// ([`Process::idle_poll`]), parked ones up to now included.
    pub fn idle_polls(&self, node: NodeId) -> u64 {
        self.nodes[node].idle_polls + self.unbooked(node)
    }

    /// Parked polls of `node` that have fired and are not booked yet.
    fn unbooked(&self, node: NodeId) -> u64 {
        let slot = &self.nodes[node];
        slot.park.map_or(0, |p| p.before(slot.seq, self.cur))
    }

    // ---- observability -----------------------------------------------------

    /// Turn trace-event recording on or off. Counters are always on.
    ///
    /// Tracing is zero-perturbation: it charges no CPU, draws no randomness,
    /// and schedules nothing, so traced and untraced runs of the same seed
    /// produce bit-identical results (`tests/observability.rs`).
    pub fn set_tracing(&mut self, on: bool) {
        self.probe.set_enabled(on);
    }

    /// The recorded timeline so far (empty unless tracing was enabled).
    /// `bench::chrome::write` renders it as a Perfetto-compatible dump.
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.probe.events()
    }

    /// Take the recorded timeline, leaving the buffer empty.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.probe.take_events()
    }

    /// Snapshot every node's counters and final gauge levels. The resource
    /// snapshot's elapsed clock is stamped from the engine's virtual time so
    /// utilization (busy / elapsed) can be computed by consumers.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.probe.snapshot();
        m.res.elapsed_ns = self.now.as_nanos();
        for (node, slot) in self.nodes.iter().enumerate() {
            if let Some(p) = slot.park {
                let ns = self.unbooked(node) * p.cpu.as_nanos() as u64;
                m.res.nodes[node].cpu_ns[CPU_SLOT_IDLE] += ns;
            }
        }
        m
    }

    /// Open records of the always-on forensics collector
    /// ([`Probe::forensics_open_records`](crate::Probe::forensics_open_records)).
    pub fn forensics_open_records(&self) -> usize {
        self.probe.forensics_open_records()
    }

    /// Read one node's counter.
    pub fn counter(&self, node: NodeId, c: Counter) -> u64 {
        self.probe.counter(node, c)
    }

    /// Enable periodic gauge sampling: every `every` of virtual time the
    /// engine snapshots each node's gauge levels into a time series
    /// ([`Sim::gauge_samples`]).
    ///
    /// Sampling happens between event dispatches — never through the event
    /// queue and never in a protocol handler — so it draws no randomness,
    /// charges no CPU, and consumes no event sequence numbers: sampled and
    /// unsampled runs of the same seed are bit-identical. A zero interval is
    /// ignored.
    pub fn set_gauge_sampling(&mut self, every: Duration) {
        if every.is_zero() {
            return;
        }
        self.sample_every = Some(every);
        self.next_sample = self.now + every;
    }

    /// The sampled gauge series so far (empty unless
    /// [`Sim::set_gauge_sampling`] was called).
    pub fn gauge_samples(&self) -> &[GaugeSample] {
        self.probe.gauge_samples()
    }

    /// Take the sampled gauge series, leaving the buffer empty.
    pub fn take_gauge_samples(&mut self) -> Vec<GaugeSample> {
        self.probe.take_gauge_samples()
    }

    /// Read one node's current gauge level.
    pub fn gauge(&self, node: NodeId, g: Gauge) -> u64 {
        self.probe.gauge(node, g)
    }

    /// Immutable access to a node's state, downcast to its concrete type.
    ///
    /// # Panics
    /// If `id` is out of range, the node is mid-dispatch, or `T` is not the
    /// node's concrete type.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        let p = self.nodes[id].proc.as_ref().expect("node mid-dispatch");
        let any: &dyn Any = p.as_ref();
        any.downcast_ref::<T>().expect("node type mismatch")
    }

    /// Mutable access to a node's state (see [`Sim::node`]).
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.unpark(id);
        let p = self.nodes[id].proc.as_mut().expect("node mid-dispatch");
        let any: &mut dyn Any = p.as_mut();
        any.downcast_mut::<T>().expect("node type mismatch")
    }

    /// The engine RNG (also feeds link jitter); exposed for harnesses that
    /// want correlated randomness.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Read access to a node's persistent log (harness inspection).
    pub fn disk(&self, node: NodeId) -> &DurableLog {
        &self.nodes[node].disk
    }

    /// Mutable access to a node's persistent log. Harness-only: the
    /// durability auditor's negative test tampers with persisted records
    /// through here; protocols must go through [`Ctx`].
    pub fn disk_mut(&mut self, node: NodeId) -> &mut DurableLog {
        &mut self.nodes[node].disk
    }

    /// Replace the cost parameters of `node`'s log device (records are
    /// untouched). Cluster builders call this once at setup.
    pub fn set_log_device(&mut self, node: NodeId, dev: LogDevParams) {
        self.nodes[node].disk.set_dev(dev);
    }

    /// Bump one node's counter from harness code (the chaos harness books
    /// durability-auditor verdicts here; protocols use
    /// [`Ctx::count`](crate::Ctx::count)).
    pub fn bump_counter(&mut self, node: NodeId, c: Counter, n: u64) {
        self.probe.count(node, c, n);
    }

    // ---- fault injection -------------------------------------------------

    /// Crash `node` immediately: its process and NIC stop, and its
    /// persistent log is truncated to the last fsync'd barrier. Queued
    /// events for it stay in the queue but are skipped at dispatch time,
    /// which is observationally equivalent to dropping them (and keeps crash
    /// O(1) instead of a heap rebuild). A later [`Sim::restart_at`] cannot
    /// resurrect them: restart bumps the node's incarnation and pre-crash
    /// events carry the old one.
    pub fn crash(&mut self, node: NodeId) {
        self.crash_node(node);
    }

    /// Shared crash path: mark the node down and truncate its persistent log
    /// to the last barrier (counting dropped staged records).
    fn crash_node(&mut self, node: NodeId) {
        self.unpark(node);
        let slot = &mut self.nodes[node];
        slot.crashed = true;
        let dropped = slot.disk.crash_truncate();
        if dropped > 0 {
            self.probe
                .count(node, Counter::WalTruncatedRecords, dropped as u64);
        }
    }

    /// Correlated whole-set power failure: crash every node in `nodes`
    /// immediately, truncating each persistent log to its last barrier.
    /// Staggered [`Sim::restart_at`] calls bring the set back.
    pub fn power_failure(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            self.crash_node(n);
        }
    }

    /// [`Sim::power_failure`] at virtual time `at`, through the event queue
    /// (so traced and replayed runs stay bit-identical).
    pub fn power_failure_at(&mut self, nodes: Vec<NodeId>, at: SimTime) {
        self.push(at, EventKind::PowerFailAt(nodes));
    }

    /// Crash `node` at virtual time `at`.
    pub fn crash_at(&mut self, node: NodeId, at: SimTime) {
        self.push(at, EventKind::CrashAt(node));
    }

    /// Whether `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node].crashed
    }

    /// Register the factory that builds a fresh process when `node` reboots.
    /// Without a factory, [`Sim::restart_at`] is a no-op.
    pub fn set_restart_factory<F>(&mut self, node: NodeId, f: F)
    where
        F: FnMut() -> Box<dyn Process<M>> + 'static,
    {
        self.nodes[node].factory = Some(Box::new(f));
    }

    /// Reboot a crashed `node` at virtual time `at`: a fresh process from the
    /// registered factory starts with reset NIC/timer state and a new
    /// incarnation, so pre-crash in-flight deliveries and timers are dropped
    /// (counted in [`EngineStats::restart_drops`]) rather than resurrected.
    /// Ignored if the node is not crashed at `at` or has no factory.
    pub fn restart_at(&mut self, node: NodeId, at: SimTime) {
        self.push(at, EventKind::RestartAt(node));
    }

    /// How many times `node` has restarted.
    pub fn incarnation(&self, node: NodeId) -> u64 {
        self.nodes[node].inc
    }

    /// Partition the fabric at `at`: each inner vec is one connected group;
    /// messages crossing a cut are dropped at the sender (RC connection
    /// breakage), counted per node in [`Counter::PartitionDrops`]. Nodes not
    /// named in any group (e.g. clients) keep full connectivity. Replaces any
    /// previous partition.
    pub fn partition(&mut self, groups: Vec<Vec<NodeId>>, at: SimTime) {
        self.push(at, EventKind::PartitionAt(groups));
    }

    /// Remove the active partition at `at`.
    pub fn heal(&mut self, at: SimTime) {
        self.push(at, EventKind::HealAt);
    }

    /// Deschedule `node`'s process for `dur` starting at `at`. DMA deliveries
    /// still land; timers and CPU deliveries wait (the §4.2 election
    /// experiment repeatedly puts the leader to sleep for five seconds).
    pub fn pause_at(&mut self, node: NodeId, at: SimTime, dur: Duration) {
        self.push(at, EventKind::PauseAt { node, dur });
    }

    /// Scale all CPU charges of `node` by `scale` (>1 = slower CPU).
    pub fn set_cpu_scale(&mut self, node: NodeId, scale: f64) {
        self.unpark(node);
        self.nodes[node].cpu_scale = scale;
    }

    /// Apply a deterministic what-if [`InterventionSet`](crate::InterventionSet)
    /// to the constructed fabric. Called once, between cluster construction
    /// and the run; the null (empty) set touches nothing, so an intervened
    /// harness path with no interventions reproduces the uninstrumented run
    /// byte-identically (`tests/whatif.rs`).
    pub fn apply_interventions(&mut self, set: &crate::InterventionSet) {
        for iv in set.items() {
            match *iv {
                crate::Intervention::EgressTimeScale { node, factor } => {
                    self.net.set_egress_time_scale(node, factor)
                }
                crate::Intervention::LinkLatencyScale { factor } => {
                    self.net.set_latency_scale(factor)
                }
                crate::Intervention::CpuScale { node, factor } => {
                    let scale = self.nodes[node].cpu_scale * factor;
                    self.set_cpu_scale(node, scale);
                }
                crate::Intervention::LogDevice { node, dev } => self.set_log_device(node, dev),
            }
        }
    }

    /// Add bounded uniform noise to every timer of `node` (OS scheduling
    /// slop).
    pub fn set_timer_jitter(&mut self, node: NodeId, jitter: Duration) {
        self.unpark(node);
        self.nodes[node].timer_jitter = jitter;
    }

    /// Make `node` a "long-latency node" (see [`DeschedProfile`]).
    pub fn set_desched(&mut self, node: NodeId, profile: DeschedProfile) {
        self.nodes[node].desched = Some(profile);
        let inc = self.nodes[node].inc;
        let first = self.sample_interval(profile);
        self.push(self.now + first, EventKind::DeschedTick { node, inc });
    }

    /// Inject transient extra one-way latency on the (src, dst) link until
    /// `until`.
    pub fn add_link_latency(&mut self, src: NodeId, dst: NodeId, extra: Duration, until: SimTime) {
        self.net.add_link_latency(src, dst, extra, until);
    }

    /// Deliver `msg` to `dst` as if sent by `from`, after `delay` (test
    /// helper; bypasses the network model).
    pub fn inject(
        &mut self,
        from: NodeId,
        dst: NodeId,
        class: DeliveryClass,
        delay: Duration,
        msg: M,
    ) {
        let src_inc = self.nodes.get(from).map_or(0, |s| s.inc);
        let dst_inc = self.nodes[dst].inc;
        self.push(
            self.now + delay,
            EventKind::Deliver {
                node: dst,
                from,
                class,
                msg,
                src_inc,
                dst_inc,
            },
        );
    }

    // ---- run loop ----------------------------------------------------------

    /// Run until the queue drains or `deadline` passes. The clock ends at
    /// exactly `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.sched.next_at() {
            if at > deadline {
                break;
            }
            self.step();
        }
        // Everything up to `deadline` has fired, parked polls included.
        self.cur = (deadline, u64::MAX);
        if self.now < deadline {
            self.advance_samples(deadline);
            self.now = deadline;
        }
    }

    /// Run for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Dispatch the next event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(key) = self.sched.pop() else {
            return false;
        };
        debug_assert!(key.at >= self.now, "time went backwards");
        self.advance_samples(key.at);
        self.now = key.at;
        self.cur = (key.at, key.seq);
        self.stats.events += 1;

        // A parked node's own event: the polls before it have fired. A
        // handler may leave the next one idle (`repark`); a fault files it.
        let mut parked = None;
        if let Some(node) = self.slab.peek(key.slot).node() {
            if self.nodes[node].park.is_some() {
                match self.slab.peek(key.slot) {
                    EventKind::Wake { .. } => {}
                    EventKind::Timer { .. } | EventKind::Deliver { .. } => {
                        self.book(node, self.cur);
                        parked = Some(node);
                    }
                    _ => self.unpark(node),
                }
            }
        }
        let ran = self.fire(key);
        if let Some(node) = parked {
            self.repark(node);
        }
        ran
    }

    /// Everything [`Sim::step`] does with a popped key but the parking.
    fn fire(&mut self, key: EventKey) -> bool {
        // Gate timers and deliveries *before* taking the payload out of the
        // slab: a drop frees the slot in place, and a held-node deferral just
        // re-keys the same slot — no payload moves in either direction. Only
        // events that will actually run pay the take.
        //
        // `stale`: an endpoint restarted since the event was created (either
        // endpoint restarting tears down the RC connection, so in-flight
        // messages of the old incarnation are lost). `delivery`: the class,
        // for a delivery.
        let gated = match self.slab.peek(key.slot) {
            EventKind::Timer { node, inc, .. } => {
                Some((*node, self.nodes[*node].inc != *inc, None))
            }
            EventKind::Deliver {
                node,
                from,
                class,
                src_inc,
                dst_inc,
                ..
            } => {
                let src_stale = self.nodes.get(*from).is_some_and(|s| s.inc != *src_inc);
                let stale = self.nodes[*node].inc != *dst_inc || src_stale;
                Some((*node, stale, Some(*class)))
            }
            _ => None,
        };
        // The node whose run this key was the filed front of, if its handler
        // is about to run: the members behind it are settled afterwards.
        let mut lead = None;
        if let Some((node, stale, delivery)) = gated {
            if delivery.is_some() {
                // The queued delivery is consumed whatever happens next
                // (handled, deferred, or dropped).
                self.probe.gauge_add(node, Gauge::InflightMsgs, -1);
            }
            // A key that is the front of its node's run leaves the run here;
            // every path below settles the members behind it.
            let slot = &mut self.nodes[node];
            let was_lead = slot.run.head == Some(key.seq);
            if was_lead {
                slot.run.head = None;
            }
            if slot.crashed || stale {
                if !slot.crashed {
                    self.stats.restart_drops += 1;
                }
                drop(self.slab.take(key.slot));
                if was_lead {
                    self.flush_run(node);
                }
                return true;
            }
            if delivery != Some(DeliveryClass::Dma) {
                if let Some((free, reason)) = slot.held(self.now) {
                    if delivery.is_some() {
                        // In flight again: the gauge reads as after a
                        // pop-then-repush.
                        self.probe.gauge_add(node, Gauge::InflightMsgs, 1);
                    }
                    self.defer(node, key.slot, was_lead, free, reason);
                    return true;
                }
            }
            lead = was_lead.then_some(node);
            if delivery.is_none() && self.poll_in_place(node, key) {
                if was_lead {
                    self.settle_run(node);
                }
                return true;
            }
        }

        match self.slab.take(key.slot) {
            EventKind::Start { node, inc } => {
                let slot = &self.nodes[node];
                if !slot.crashed && slot.inc == inc {
                    self.dispatch(node, |p, ctx| p.on_start(ctx));
                }
            }
            EventKind::Timer { node, token, .. } => {
                self.dispatch(node, |p, ctx| p.on_timer(ctx, token));
            }
            EventKind::Deliver {
                node,
                from,
                class,
                msg,
                ..
            } => {
                match class {
                    DeliveryClass::Dma => self.stats.dma_msgs += 1,
                    DeliveryClass::Cpu => self.stats.cpu_msgs += 1,
                }
                self.probe.record(TraceEvent::Deliver {
                    at: self.now,
                    node,
                    from,
                    class,
                });
                self.dispatch(node, |p, ctx| p.on_message(ctx, from, msg));
            }
            EventKind::PauseAt { node, dur } => {
                let slot = &mut self.nodes[node];
                if !slot.crashed {
                    slot.paused_until = slot.paused_until.max(self.now + dur);
                }
            }
            EventKind::CrashAt(node) => {
                self.crash_node(node);
            }
            EventKind::PowerFailAt(nodes) => {
                for n in nodes {
                    self.crash_node(n);
                }
            }
            EventKind::RestartAt(node) => {
                let has_factory = self.nodes[node].factory.is_some();
                if self.nodes[node].crashed && has_factory {
                    let slot = &mut self.nodes[node];
                    slot.inc += 1;
                    slot.proc = Some(slot.factory.as_mut().expect("factory")());
                    slot.crashed = false;
                    slot.busy_until = self.now;
                    slot.paused_until = self.now;
                    let inc = slot.inc;
                    self.net.reset_node(node);
                    self.probe.count(node, Counter::Restarts, 1);
                    self.push(self.now, EventKind::Start { node, inc });
                    if let Some(profile) = self.nodes[node].desched {
                        let next = self.sample_interval(profile);
                        self.push(self.now + next, EventKind::DeschedTick { node, inc });
                    }
                }
            }
            EventKind::PartitionAt(groups) => {
                self.net.set_partition(&groups);
            }
            EventKind::HealAt => {
                self.net.heal_partition();
            }
            EventKind::Wake { node } => {
                let Some(p) = self.nodes[node].park.as_mut() else {
                    return true;
                };
                if p.wake != Some(self.now) {
                    return true;
                }
                p.wake = None;
                if p.stop().is_some_and(|stop| stop > self.now) {
                    // `until` moved on since this wake was filed.
                    self.arm_wake(node);
                } else {
                    self.unpark(node);
                }
            }
            EventKind::DeschedTick { node, inc } => {
                let slot = &self.nodes[node];
                if slot.crashed || slot.inc != inc {
                    return true;
                }
                if let Some(profile) = slot.desched {
                    let pause = self.sample_pause(profile);
                    let slot = &mut self.nodes[node];
                    slot.paused_until = slot.paused_until.max(self.now + pause);
                    let next = self.sample_interval(profile);
                    self.push(self.now + next, EventKind::DeschedTick { node, inc });
                }
            }
        }
        if let Some(node) = lead {
            self.settle_run(node);
        }
        true
    }

    // ---- internals ---------------------------------------------------------

    fn sample_interval(&mut self, p: DeschedProfile) -> Duration {
        let mean = p.mean_interval.as_nanos() as u64;
        if mean == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.rng.random_range(mean / 2..=mean + mean / 2))
    }

    fn sample_pause(&mut self, p: DeschedProfile) -> Duration {
        let lo = p.min_pause.as_nanos() as u64;
        let hi = p.max_pause.as_nanos() as u64;
        if hi <= lo {
            return p.min_pause;
        }
        Duration::from_nanos(self.rng.random_range(lo..=hi))
    }

    /// Sample gauges at every elapsed cadence instant up to `upto`
    /// (inclusive). Runs between dispatches only; touches neither the queue,
    /// the RNG, nor any node, so it cannot perturb the run.
    fn advance_samples(&mut self, upto: SimTime) {
        let Some(every) = self.sample_every else {
            return;
        };
        while self.next_sample <= upto {
            let at = self.next_sample;
            // NIC egress depth is derived from the network model's egress
            // serialization frontier at the sample instant (it drains between
            // events, so it must be computed here, not event-driven).
            for node in 0..self.nodes.len() {
                self.probe.gauge_set(
                    node,
                    Gauge::NicEgressDepth,
                    self.net.egress_backlog(node, at),
                );
            }
            self.probe.sample_gauges(at);
            self.next_sample = at + every;
        }
    }

    /// The event in `slot` popped for `node` while its process is held until
    /// `free`: charge the wait and key the event at `(free, next seq)` — a
    /// re-file that moves no payload, and that reaches the scheduler only if
    /// the event opens a run. `lead` says the popped key was the front of
    /// the node's run, whose other members are held for just as long.
    fn defer(&mut self, node: NodeId, slot: u32, lead: bool, free: SimTime, reason: WaitReason) {
        if lead && !self.nodes[node].run.tail.is_empty() {
            if self.sched.next_at() != Some(self.now) {
                let tail = &mut self.nodes[node].run.tail;
                tail.push_front(Deferred { seq: 0, slot });
                self.rekey_run(node, free, reason);
                return;
            }
            self.flush_run(node);
        }
        self.probe
            .wait(node, reason, free.as_nanos() - self.now.as_nanos());
        let seq = self.node_seq(node);
        let run = &mut self.nodes[node].run;
        let joins = run.head.is_some() && run.at == free;
        #[cfg(test)]
        let joins = joins && !self.per_event_only;
        if joins {
            run.tail.push_back(Deferred { seq, slot });
        } else {
            // No run yet, or one keyed at an older frontier (a pause, a
            // desched tick or a DMA handler that charged CPU moved it since):
            // its members pop one by one and join this run as they do.
            self.flush_run(node);
            let run = &mut self.nodes[node].run;
            run.at = free;
            run.head = Some(seq);
            self.sched.push(EventKey {
                at: free,
                seq,
                slot,
            });
        }
    }

    /// File the unfiled members of `node`'s run under their present keys:
    /// the slow path, after which the per-event gate in [`Sim::step`]
    /// handles each of them as it pops.
    fn flush_run(&mut self, node: NodeId) {
        let run = &mut self.nodes[node].run;
        let at = run.at;
        for m in run.tail.drain(..) {
            self.sched.push(EventKey {
                at,
                seq: m.seq,
                slot: m.slot,
            });
        }
    }

    /// Re-key every unfiled member of `node`'s run at the new frontier
    /// `free` and file the first: what popping them one after the other
    /// would do (one wait charge and the next `seq` each, in order) when no
    /// other key shares the instant, without popping them.
    fn rekey_run(&mut self, node: NodeId, free: SimTime, reason: WaitReason) {
        let slot = &mut self.nodes[node];
        let run = &mut slot.run;
        self.probe.wait_n(
            node,
            reason,
            free.as_nanos() - self.now.as_nanos(),
            run.tail.len() as u64,
        );
        for m in run.tail.iter_mut() {
            m.seq = slot.seq;
            slot.seq += 1;
        }
        let front = run.tail.pop_front().expect("re-keying an empty run");
        run.at = free;
        run.head = Some(front.seq);
        self.sched.push(EventKey {
            at: free,
            seq: front.seq,
            slot: front.slot,
        });
    }

    /// The front of `node`'s run has run its handler. The members behind it
    /// are keyed at this instant: if the handler left the node held and
    /// nothing else is due now, they move to the new frontier in one pass;
    /// otherwise (no CPU charged, or a shared instant) they are filed.
    fn settle_run(&mut self, node: NodeId) {
        let slot = &self.nodes[node];
        if slot.run.tail.is_empty() {
            return;
        }
        match slot.held(self.now) {
            Some((free, reason)) if self.sched.next_at() != Some(self.now) => {
                self.rekey_run(node, free, reason)
            }
            _ => self.flush_run(node),
        }
    }

    /// The timer behind `key` is about to fire on `node`. If the process
    /// says its handler would only spin and re-arm ([`Process::idle_poll`]),
    /// do here what [`Sim::dispatch`] would do for that handler — the scaled
    /// idle charge and the busy frontier (a spin leaves no `CpuBusy`
    /// record) — and park the node with the re-armed timer as its next
    /// poll, under the `seq` the handler's `set_timer` would have drawn and
    /// in the payload's slab slot (a take-then-insert would hand the same
    /// one back). The timer is filed instead if the next poll is past the
    /// answer's `until`. A node with timer jitter never parks: its polls
    /// draw from the engine's stream.
    fn poll_in_place(&mut self, node: NodeId, key: EventKey) -> bool {
        #[cfg(test)]
        if self.queue_polls {
            return false;
        }
        let EventKind::Timer { token, .. } = *self.slab.peek(key.slot) else {
            unreachable!("gated as a timer");
        };
        let slot = &mut self.nodes[node];
        if !slot.timer_jitter.is_zero() {
            return false;
        }
        let proc = slot.proc.as_ref().expect("re-entrant dispatch");
        let Some(idle) = proc.idle_poll(token) else {
            return false;
        };
        if idle.until.is_some_and(|u| self.now > u) {
            return false;
        }
        let cpu = scaled_charge(slot.cpu_scale, idle.cpu);
        self.probe
            .cpu_charge(node, CPU_SLOT_IDLE, cpu.as_nanos() as u64);
        slot.busy_until = slot.busy_until.max(self.now) + cpu;
        slot.idle_polls += 1;
        let every = cpu + idle.rearm;
        let park = Park {
            at: self.now + every,
            seq: slot.seq,
            slot: key.slot,
            token,
            cpu,
            every,
            until: idle.until,
            wake: None,
        };
        slot.seq += 1;
        if every.is_zero() || park.stop() == Some(park.at) {
            self.sched.push(EventKey {
                at: park.at,
                seq: park.seq,
                slot: park.slot,
            });
        } else {
            slot.park = Some(park);
            self.arm_wake(node);
        }
        true
    }

    /// Book the polls parked `node` has run before the key `upto`: their
    /// idle charges, the busy frontier of the last, and the `seq` each drew
    /// for its successor.
    fn book(&mut self, node: NodeId, upto: (SimTime, u64)) {
        let slot = &mut self.nodes[node];
        let Some(p) = slot.park.as_mut() else {
            return;
        };
        let k = p.before(slot.seq, upto);
        if k == 0 {
            return;
        }
        let (last, _) = p.key(slot.seq, k - 1);
        debug_assert!(
            p.stop().is_none_or(|stop| last < stop),
            "booked a poll past until"
        );
        (p.at, p.seq) = p.key(slot.seq, k);
        slot.seq += k;
        slot.busy_until = slot.busy_until.max(last) + p.cpu;
        slot.idle_polls += k;
        self.probe
            .cpu_charge(node, CPU_SLOT_IDLE, k * p.cpu.as_nanos() as u64);
    }

    /// File parked `node`'s next poll, booking the ones that fired before
    /// the current key.
    fn unpark(&mut self, node: NodeId) {
        self.book(node, self.cur);
        if let Some(p) = self.nodes[node].park.take() {
            self.sched.push(EventKey {
                at: p.at,
                seq: p.seq,
                slot: p.slot,
            });
        }
    }

    /// Parked `node` has handled one of its own events: it stays parked if
    /// its next poll still finds nothing and will not find it busy.
    fn repark(&mut self, node: NodeId) {
        let slot = &mut self.nodes[node];
        let Some(p) = slot.park.as_mut() else {
            return;
        };
        let free = !slot.crashed && slot.busy_until.max(slot.paused_until) <= p.at;
        let proc = slot.proc.as_ref().expect("re-entrant dispatch");
        match proc.idle_poll(p.token).filter(|_| free) {
            Some(idle) if idle.until.is_none_or(|u| p.at <= u) => {
                let cpu = scaled_charge(slot.cpu_scale, idle.cpu);
                p.cpu = cpu;
                p.every = cpu + idle.rearm;
                p.until = idle.until;
                if p.every.is_zero() {
                    self.unpark(node);
                } else {
                    self.arm_wake(node);
                }
            }
            _ => self.unpark(node),
        }
    }

    /// Make sure a [`EventKind::Wake`] is filed no later than parked
    /// `node`'s first poll past `until`.
    fn arm_wake(&mut self, node: NodeId) {
        let p = self.nodes[node].park.as_mut().expect("parked");
        let Some(stop) = p.stop() else {
            return;
        };
        if p.wake.is_some_and(|w| w <= stop) {
            return;
        }
        p.wake = Some(stop);
        let slot = self.slab.insert(EventKind::Wake { node });
        self.sched.push(EventKey {
            at: stop,
            seq: seq_base(node as u64),
            slot,
        });
    }

    /// Draw the next `seq` of `node`'s events.
    fn node_seq(&mut self, node: NodeId) -> u64 {
        let slot = &mut self.nodes[node];
        slot.seq += 1;
        slot.seq - 1
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        if let EventKind::Deliver { node, .. } = &kind {
            self.probe.gauge_add(*node, Gauge::InflightMsgs, 1);
        }
        let seq = match kind.node() {
            Some(node) => {
                // What the node's parked polls drew before this filing.
                self.book(node, self.cur);
                self.node_seq(node)
            }
            None => {
                self.seq += 1;
                self.seq - 1
            }
        };
        let slot = self.slab.insert(kind);
        self.sched.push(EventKey { at, seq, slot });
    }

    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Process<M>, &mut Ctx<M>),
    {
        let mut proc = self.nodes[node].proc.take().expect("re-entrant dispatch");
        let cpu_scale = self.nodes[node].cpu_scale;
        // The disk rides along the same way the process does: moved out for
        // the handler's exclusive use, moved back after (a default DurableLog
        // is two empty vecs — nothing is cloned).
        let mut disk = std::mem::take(&mut self.nodes[node].disk);
        let buf = std::mem::take(&mut self.effect_pool);
        let mut ctx = Ctx::new(
            self.now,
            node,
            cpu_scale,
            &mut self.rng,
            &mut self.probe,
            &mut disk,
            buf,
        );
        f(proc.as_mut(), &mut ctx);
        let cpu = ctx.cpu_used();
        let worked = ctx.worked();
        let mut effects = std::mem::take(&mut ctx.effects);
        drop(ctx);
        self.nodes[node].proc = Some(proc);
        self.nodes[node].disk = disk;
        if cpu > Duration::ZERO {
            let slot = &mut self.nodes[node];
            let start = slot.busy_until.max(self.now);
            slot.busy_until = start + cpu;
            // A handler that only spun (an idle poll) leaves no slice: the
            // engine books a parked node's idle polls without one.
            if worked {
                self.probe.record(TraceEvent::CpuBusy {
                    node,
                    start,
                    end: start + cpu,
                });
            }
        }
        let timer_jitter = self.nodes[node].timer_jitter;
        let crashed = self.nodes[node].crashed;

        // One pass, in effect order: each send is routed (its link jitter
        // drawn) and filed before the next effect is looked at, so RNG draws
        // and event sequence numbers follow the order the handler emitted.
        let inc = self.nodes[node].inc;
        for eff in effects.drain(..) {
            match eff {
                Effect::Send {
                    dst,
                    class,
                    kind,
                    wire_bytes,
                    at_cpu,
                    msg,
                } => {
                    if crashed {
                        continue;
                    }
                    if self.net.is_cut(node, dst) {
                        // The RC connection is severed: the post is lost at
                        // the source, nothing reaches the wire.
                        self.probe.count(node, Counter::PartitionDrops, 1);
                        continue;
                    }
                    let post = self.now + at_cpu;
                    let info = self.net.route(&mut self.rng, node, dst, post, wire_bytes);
                    self.probe
                        .count(node, Counter::WireBytes, u64::from(info.wire_bytes));
                    self.probe.count(node, Counter::Packets, 1);
                    // Resource accounting (always on, plain adds): the exact
                    // egress-serialization interval feeds link and NIC-egress
                    // utilization; ingress busy mirrors the NicIngress trace
                    // rule, so loopback (no NIC traversed) is not accounted.
                    self.probe.account_tx(
                        node,
                        dst,
                        kind,
                        u64::from(info.wire_bytes),
                        info.depart.as_nanos() - info.depart_start.as_nanos(),
                    );
                    if dst != node {
                        self.probe.account_rx(
                            dst,
                            kind,
                            u64::from(info.wire_bytes),
                            info.delivered.as_nanos() - info.ingress_start.as_nanos(),
                        );
                    }
                    // Forensics wait integrals, charged to the sender (the
                    // node whose queue the frame sat in / whose link it
                    // crossed): egress queueing is the lag between posting
                    // and serialization start; link delay is propagation
                    // plus remote ingress queueing.
                    self.probe.wait(
                        node,
                        WaitReason::EgressQueue,
                        info.depart_start.as_nanos().saturating_sub(post.as_nanos()),
                    );
                    if dst != node {
                        self.probe.wait(
                            node,
                            WaitReason::LinkDelay,
                            info.ingress_start
                                .as_nanos()
                                .saturating_sub(info.depart.as_nanos()),
                        );
                    }
                    self.probe.record(TraceEvent::Send {
                        at: post,
                        src: node,
                        dst,
                        class,
                        wire_bytes: info.wire_bytes,
                    });
                    self.probe.record(TraceEvent::NicEgress {
                        node,
                        start: info.depart_start,
                        end: info.depart,
                        bytes: info.wire_bytes,
                        dst,
                    });
                    if dst != node {
                        self.probe.record(TraceEvent::NicIngress {
                            node: dst,
                            start: info.ingress_start,
                            end: info.delivered,
                            bytes: info.wire_bytes,
                            src: node,
                        });
                    }
                    let dst_inc = self.nodes.get(dst).map_or(0, |s| s.inc);
                    self.push(
                        info.delivered,
                        EventKind::Deliver {
                            node: dst,
                            from: node,
                            class,
                            msg,
                            src_inc: inc,
                            dst_inc,
                        },
                    );
                }
                Effect::Timer {
                    delay,
                    at_cpu,
                    token,
                } => {
                    let jitter = draw_jitter(&mut self.rng, timer_jitter);
                    self.push(
                        self.now + at_cpu + delay + jitter,
                        EventKind::Timer { node, token, inc },
                    );
                }
            }
        }
        // Hand the drained buffer back for the next dispatch.
        self.effect_pool = effects;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NetParams;
    use crate::trace::WaitStats;

    /// Echoes every message back to its sender after charging CPU.
    struct Echo {
        got: Vec<(NodeId, u32)>,
        cpu: Duration,
    }

    impl Process<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<u32>, from: NodeId, msg: u32) {
            ctx.use_cpu(self.cpu);
            self.got.push((from, msg));
            if msg < 100 {
                ctx.send(from, DeliveryClass::Cpu, 64, msg + 1);
            }
        }
    }

    struct Pinger {
        peer: NodeId,
        replies: Vec<(SimTime, u32)>,
    }

    impl Process<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            ctx.send(self.peer, DeliveryClass::Cpu, 64, 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<u32>, _from: NodeId, msg: u32) {
            self.replies.push((ctx.now(), msg));
        }
    }

    fn sim() -> Sim<u32> {
        Sim::new(42, NetParams::rdma())
    }

    impl<M: 'static> Sim<M> {
        /// Every `seq` counter: each node's, parked polls that have fired
        /// included, then the one for events aimed at no node.
        fn seqs(&self) -> Vec<u64> {
            let nodes = (0..self.nodes.len()).map(|n| self.nodes[n].seq + self.unbooked(n));
            nodes.chain([self.seq]).collect()
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut s = sim();
        let a = s.add_node(Box::new(Pinger {
            peer: 1,
            replies: vec![],
        }));
        let _b = s.add_node(Box::new(Echo {
            got: vec![],
            cpu: Duration::from_nanos(500),
        }));
        s.run_until(SimTime::from_millis(1));
        let p = s.node::<Pinger>(a);
        assert_eq!(p.replies.len(), 1);
        assert_eq!(p.replies[0].1, 1);
        // Round trip: 2 links plus 500ns echo CPU; sanity window.
        let rtt = p.replies[0].0.as_nanos();
        assert!(rtt > 3_000 && rtt < 20_000, "rtt {rtt}ns");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = sim();
            let a = s.add_node(Box::new(Pinger {
                peer: 1,
                replies: vec![],
            }));
            let _ = s.add_node(Box::new(Echo {
                got: vec![],
                cpu: Duration::from_nanos(500),
            }));
            s.run_until(SimTime::from_millis(1));
            s.node::<Pinger>(a).replies.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_drops_messages() {
        let mut s = sim();
        let a = s.add_node(Box::new(Pinger {
            peer: 1,
            replies: vec![],
        }));
        let b = s.add_node(Box::new(Echo {
            got: vec![],
            cpu: Duration::ZERO,
        }));
        s.crash(b);
        s.run_until(SimTime::from_millis(1));
        assert!(s.node::<Pinger>(a).replies.is_empty());
        assert!(s.node::<Echo>(b).got.is_empty());
    }

    #[test]
    fn crash_at_takes_effect_later() {
        struct Timed {
            fired: Vec<SimTime>,
        }
        impl Process<u32> for Timed {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.set_timer(Duration::from_micros(10), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<u32>, _t: u64) {
                self.fired.push(ctx.now());
                ctx.set_timer(Duration::from_micros(10), 0);
            }
        }
        let mut s = sim();
        let a = s.add_node(Box::new(Timed { fired: vec![] }));
        s.crash_at(a, SimTime::from_micros(35));
        s.run_until(SimTime::from_millis(1));
        assert_eq!(s.node::<Timed>(a).fired.len(), 3); // 10, 20, 30
    }

    #[test]
    fn pause_defers_cpu_but_not_dma() {
        struct Recorder {
            got: Vec<(SimTime, u32)>,
        }
        impl Process<u32> for Recorder {
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _: NodeId, msg: u32) {
                self.got.push((ctx.now(), msg));
            }
        }
        let mut s = sim();
        let r = s.add_node(Box::new(Recorder { got: vec![] }));
        s.pause_at(r, SimTime::ZERO, Duration::from_micros(100));
        s.inject(0, r, DeliveryClass::Dma, Duration::from_micros(10), 1);
        s.inject(0, r, DeliveryClass::Cpu, Duration::from_micros(10), 2);
        s.run_until(SimTime::from_millis(1));
        let got = &s.node::<Recorder>(r).got;
        assert_eq!(got.len(), 2);
        // DMA lands at 10us even though paused; CPU waits until 100us.
        assert_eq!(got[0], (SimTime::from_micros(10), 1));
        assert_eq!(got[1].1, 2);
        assert!(got[1].0 >= SimTime::from_micros(100));
    }

    #[test]
    fn busy_node_defers_cpu_delivery() {
        struct Busy;
        impl Process<u32> for Busy {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.use_cpu(Duration::from_micros(50));
            }
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, _: u32) {}
        }
        struct Recorder {
            at: Option<SimTime>,
        }
        impl Process<u32> for Recorder {
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _: NodeId, _: u32) {
                self.at = Some(ctx.now());
            }
        }
        let mut s = sim();
        let b = s.add_node(Box::new(Busy));
        s.inject(9, b, DeliveryClass::Cpu, Duration::from_micros(1), 7);
        s.run_until(SimTime::from_millis(1));
        // Busy charges 50us at t=0; injection at 1us defers to 50us: verify
        // indirectly via a second node receiving nothing early... simplest:
        // check engine stats saw the delivery.
        assert_eq!(s.stats().cpu_msgs, 1);
        let _ = Recorder { at: None };
    }

    // ---- deferral runs -------------------------------------------------
    //
    // Every expectation below except the `stats().events` bound was pinned
    // by running the same case on the per-event engine this replaced.

    type Log = std::rc::Rc<std::cell::RefCell<Vec<(u64, NodeId, u32)>>>;

    /// Busy for `start_cpu` from its start; logs `(now ns, id, msg)` for
    /// every message and charges `msg_cpu` for it.
    struct Worker {
        log: Log,
        start_cpu: Duration,
        msg_cpu: Duration,
    }

    impl Process<u32> for Worker {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            ctx.use_cpu(self.start_cpu);
        }
        fn on_message(&mut self, ctx: &mut Ctx<u32>, _: NodeId, msg: u32) {
            self.log
                .borrow_mut()
                .push((ctx.now().as_nanos(), ctx.id(), msg));
            ctx.use_cpu(self.msg_cpu);
        }
    }

    fn worker(s: &mut Sim<u32>, log: &Log, start_us: u64, msg_us: u64) -> NodeId {
        s.add_node(Box::new(Worker {
            log: log.clone(),
            start_cpu: Duration::from_micros(start_us),
            msg_cpu: Duration::from_micros(msg_us),
        }))
    }

    fn cpu_msg(s: &mut Sim<u32>, dst: NodeId, at_us: u64, msg: u32) {
        let delay = SimTime::from_micros(at_us).saturating_since(s.now());
        s.inject(9, dst, DeliveryClass::Cpu, delay, msg);
    }

    #[test]
    fn held_node_backlog_costs_one_event_per_wakeup() {
        // 256 messages arrive within 2.6 us at a node that needs 10 us for
        // each: re-filing every waiting message at every wake-up is
        // K^2 / 2 = 33 k events; the run costs one arrival and one wake-up
        // per message.
        const K: u32 = 256;
        let log = Log::default();
        let mut s = sim();
        let w = worker(&mut s, &log, 0, 10);
        for i in 0..K {
            s.inject(
                9,
                w,
                DeliveryClass::Cpu,
                Duration::from_nanos(1_000 + 10 * u64::from(i)),
                i,
            );
        }
        s.run_until(SimTime::from_millis(10));
        let got: Vec<(u64, u32)> = log.borrow().iter().map(|&(t, _, m)| (t, m)).collect();
        let want: Vec<(u64, u32)> = (0..K).map(|i| (1_000 + 10_000 * u64::from(i), i)).collect();
        assert_eq!(got, want, "arrival order, one handler every 10 us");
        let waits = s.probe.wait_stats(w);
        assert_eq!(waits.events[WaitReason::BusyDefer as usize], 32_640);
        assert_eq!(waits.ns[WaitReason::BusyDefer as usize], 326_073_600);
        assert_eq!(waits.events[WaitReason::SchedHold as usize], 0);
        assert!(
            s.stats().events <= 4 * u64::from(K),
            "{} events for {K} messages",
            s.stats().events
        );
    }

    #[test]
    fn key_filed_at_the_wake_instant_before_the_run_fires_first() {
        // X is keyed at 50 us — the instant the node frees up — before A and
        // B are deferred to it, so it sorts ahead of both. A queue of waiting
        // events drained at the wake-up would run A first.
        let log = Log::default();
        let mut s = sim();
        let w = worker(&mut s, &log, 50, 5);
        cpu_msg(&mut s, w, 50, 'X' as u32);
        cpu_msg(&mut s, w, 10, 'A' as u32);
        cpu_msg(&mut s, w, 20, 'B' as u32);
        s.run_until(SimTime::from_millis(1));
        let got: Vec<(u64, u32)> = log.borrow().iter().map(|&(t, _, m)| (t, m)).collect();
        assert_eq!(
            got,
            [
                (50_000, 'X' as u32),
                (55_000, 'A' as u32),
                (60_000, 'B' as u32)
            ]
        );
        let waits = s.probe.wait_stats(w);
        assert_eq!(waits.events[WaitReason::BusyDefer as usize], 5);
        assert_eq!(waits.ns[WaitReason::BusyDefer as usize], 85_000);
    }

    #[test]
    fn key_filed_at_the_wake_instant_mid_run_sorts_by_push_order() {
        // X is keyed at 50 us after A was deferred to it and before B was:
        // behind the member older than it, ahead of the one deferred later.
        // (The wake instant is shared, so the members are filed and the
        // per-event path sorts them.) A queue of waiting events would run B
        // before X.
        let log = Log::default();
        let mut s = sim();
        let w = worker(&mut s, &log, 50, 5);
        cpu_msg(&mut s, w, 10, 'A' as u32);
        s.run_until(SimTime::from_micros(15));
        cpu_msg(&mut s, w, 50, 'X' as u32);
        cpu_msg(&mut s, w, 20, 'B' as u32);
        cpu_msg(&mut s, w, 30, 'C' as u32);
        s.run_until(SimTime::from_millis(1));
        let got: Vec<(u64, u32)> = log.borrow().iter().map(|&(t, _, m)| (t, m)).collect();
        assert_eq!(
            got,
            [
                (50_000, 'A' as u32),
                (55_000, 'X' as u32),
                (60_000, 'B' as u32),
                (65_000, 'C' as u32)
            ]
        );
        let waits = s.probe.wait_stats(w);
        assert_eq!(waits.events[WaitReason::BusyDefer as usize], 9);
        assert_eq!(waits.ns[WaitReason::BusyDefer as usize], 120_000);
    }

    #[test]
    fn another_nodes_event_at_the_wake_instant_takes_the_per_event_path() {
        // Node `m` runs a handler at 50 us, between A's handler and B's
        // deferral, and it arms a timer for 55 us, the instant B is re-filed
        // at. The timer's key is older, but the two are aimed at different
        // nodes, so node order decides the tie: B (node 0) runs first. The
        // shared instant still sends the run down the per-event path.
        struct Arm {
            log: Log,
        }
        impl Process<u32> for Arm {
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _: NodeId, _: u32) {
                ctx.set_timer(Duration::from_micros(5), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<u32>, _: u64) {
                self.log
                    .borrow_mut()
                    .push((ctx.now().as_nanos(), ctx.id(), 'T' as u32));
            }
        }
        let log = Log::default();
        let mut s = sim();
        let w = worker(&mut s, &log, 50, 5);
        let m = s.add_node(Box::new(Arm { log: log.clone() }));
        cpu_msg(&mut s, w, 10, 'A' as u32);
        s.run_until(SimTime::from_micros(15));
        cpu_msg(&mut s, m, 50, 0);
        cpu_msg(&mut s, w, 20, 'B' as u32);
        s.run_until(SimTime::from_millis(1));
        assert_eq!(
            *log.borrow(),
            [
                (50_000, w, 'A' as u32),
                (55_000, w, 'B' as u32),
                (55_000, m, 'T' as u32)
            ]
        );
    }

    /// Logs `(now ns, id, msg)` for every message, and nothing else.
    struct Tap {
        log: Log,
    }

    impl Process<u32> for Tap {
        fn on_message(&mut self, ctx: &mut Ctx<u32>, _: NodeId, msg: u32) {
            self.log
                .borrow_mut()
                .push((ctx.now().as_nanos(), ctx.id(), msg));
        }
    }

    #[test]
    fn same_instant_events_fire_in_node_order() {
        // Filed in the reverse of node order, all for one instant: they fire
        // by node id, not by filing order. A cluster-wide fault at the same
        // instant fires after every node's event.
        let log = Log::default();
        let mut s = sim();
        let ids: Vec<NodeId> = (0..4)
            .map(|_| s.add_node(Box::new(Tap { log: log.clone() })))
            .collect();
        s.heal(SimTime::from_micros(10));
        for (i, &id) in ids.iter().enumerate().rev() {
            cpu_msg(&mut s, id, 10, i as u32);
        }
        s.run_until(SimTime::from_micros(9));
        let pending: Vec<u64> = std::iter::from_fn(|| s.sched.pop())
            .map(|k| k.seq >> NODE_SHIFT)
            .collect();
        assert_eq!(pending, [0, 1, 2, 3, NO_NODE]);
        let log = Log::default();
        let mut s = sim();
        let ids: Vec<NodeId> = (0..4)
            .map(|_| s.add_node(Box::new(Tap { log: log.clone() })))
            .collect();
        for (i, &id) in ids.iter().enumerate().rev() {
            cpu_msg(&mut s, id, 10, i as u32);
        }
        s.run_until(SimTime::from_millis(1));
        assert_eq!(
            *log.borrow(),
            [
                (10_000, 0, 0),
                (10_000, 1, 1),
                (10_000, 2, 2),
                (10_000, 3, 3)
            ]
        );
    }

    #[test]
    fn one_nodes_events_fire_in_filing_order() {
        // One node's same-instant events fire in the order they were filed,
        // however their filings interleave with other nodes'.
        let log = Log::default();
        let mut s = sim();
        let a = s.add_node(Box::new(Tap { log: log.clone() }));
        let b = s.add_node(Box::new(Tap { log: log.clone() }));
        for m in [5, 3, 9, 1] {
            cpu_msg(&mut s, a, 10, m);
            cpu_msg(&mut s, b, 10, 100 + m);
        }
        s.run_until(SimTime::from_millis(1));
        let got: Vec<(NodeId, u32)> = log.borrow().iter().map(|&(_, n, m)| (n, m)).collect();
        assert_eq!(
            got,
            [
                (a, 5),
                (a, 3),
                (a, 9),
                (a, 1),
                (b, 105),
                (b, 103),
                (b, 109),
                (b, 101)
            ]
        );
    }

    #[test]
    fn pause_that_extends_the_frontier_reorders_the_run() {
        // A is deferred to 50 us; a pause then moves the frontier to 120 us
        // and B is deferred straight to it. A pops at 50 us, finds the node
        // still held and is re-keyed behind B.
        let log = Log::default();
        let mut s = sim();
        let w = worker(&mut s, &log, 50, 5);
        cpu_msg(&mut s, w, 10, 'A' as u32);
        s.pause_at(w, SimTime::from_micros(20), Duration::from_micros(100));
        cpu_msg(&mut s, w, 30, 'B' as u32);
        cpu_msg(&mut s, w, 40, 'C' as u32);
        s.run_until(SimTime::from_millis(1));
        let got: Vec<(u64, u32)> = log.borrow().iter().map(|&(t, _, m)| (t, m)).collect();
        assert_eq!(
            got,
            [
                (120_000, 'B' as u32),
                (125_000, 'C' as u32),
                (130_000, 'A' as u32)
            ]
        );
        let waits = s.probe.wait_stats(w);
        assert_eq!(waits.events[WaitReason::BusyDefer as usize], 4);
        assert_eq!(waits.ns[WaitReason::BusyDefer as usize], 55_000);
        assert_eq!(waits.events[WaitReason::SchedHold as usize], 3);
        assert_eq!(waits.ns[WaitReason::SchedHold as usize], 240_000);
    }

    #[test]
    fn cpu_fifo_holds_at_delivery_not_at_dispatch_to_a_held_node() {
        // One sender's A and B, sent in that order: A arrives 51 ns before
        // the node frees up at 50 us and is deferred there under a fresh
        // `seq`; B arrives exactly at 50 us under the `seq` it was filed
        // with when sent, which is older, so B runs first and A after it.
        // A durable Acuerdo leader ingested two client requests this way,
        // A arriving during a 60 ns idle poll (`tests/durability.rs`). The
        // per-event path does the same.
        for per_event_only in [false, true] {
            let log = Log::default();
            let mut s = sim();
            s.per_event_only = per_event_only;
            let w = worker(&mut s, &log, 50, 5);
            for (at_ns, m) in [(49_949, 'A'), (50_000, 'B')] {
                s.inject(
                    9,
                    w,
                    DeliveryClass::Cpu,
                    Duration::from_nanos(at_ns),
                    m as u32,
                );
            }
            s.run_until(SimTime::from_millis(1));
            let got: Vec<(u64, u32)> = log.borrow().iter().map(|&(t, _, m)| (t, m)).collect();
            assert_eq!(
                got,
                [(50_000, 'B' as u32), (55_000, 'A' as u32)],
                "per_event_only {per_event_only}"
            );
        }
    }

    #[test]
    fn crash_and_restart_drop_a_run_like_single_events() {
        // Three messages wait for a node that crashes before it frees up.
        let run = |restart: bool| {
            let log = Log::default();
            let mut s = sim();
            let w = worker(&mut s, &log, 50, 5);
            let l = log.clone();
            s.set_restart_factory(w, move || {
                Box::new(Worker {
                    log: l.clone(),
                    start_cpu: Duration::ZERO,
                    msg_cpu: Duration::ZERO,
                })
            });
            for (at, m) in [(10, 'A'), (20, 'B'), (30, 'C')] {
                cpu_msg(&mut s, w, at, m as u32);
            }
            s.crash_at(w, SimTime::from_micros(35));
            if restart {
                s.restart_at(w, SimTime::from_micros(40));
            }
            s.run_until(SimTime::from_millis(1));
            assert!(log.borrow().is_empty(), "a dropped message ran");
            assert_eq!(s.gauge(w, Gauge::InflightMsgs), 0);
            s.stats().restart_drops
        };
        // Down for good: skipped at dispatch, not counted. Rebooted: the
        // old incarnation's deliveries are counted one by one.
        assert_eq!(run(false), 0);
        assert_eq!(run(true), 3);
    }

    #[test]
    fn runs_match_the_per_event_path_on_random_schedules() {
        // Differential check against the path this replaced (every deferral
        // filed on its own): random CPU charges, timers, pauses, crashes and
        // restarts. Even seeds keep every instant on a 1 us grid, so wake
        // instants are shared all the time; odd seeds draw nanoseconds, so
        // they hardly ever are. Handler order, wait integrals and the `seq`
        // counter must agree.
        struct Chatter {
            log: Log,
            rng: SmallRng,
            grid: u64,
            budget: u32,
        }
        impl Chatter {
            fn act(&mut self, ctx: &mut Ctx<u32>, tag: u32) {
                self.log
                    .borrow_mut()
                    .push((ctx.now().as_nanos(), ctx.id(), tag));
                let grid = self.grid;
                let mut draw = |us: u64| {
                    Duration::from_nanos(self.rng.random_range(0..us * 1_000 / grid) * grid)
                };
                ctx.use_cpu(draw(4));
                for _ in 0..2 {
                    if self.budget > 0 && draw(4) >= Duration::from_micros(1) {
                        self.budget -= 1;
                        ctx.set_timer(draw(6), u64::from(self.budget));
                    }
                }
            }
        }
        impl Process<u32> for Chatter {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                self.act(ctx, u32::MAX);
            }
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _: NodeId, msg: u32) {
                self.act(ctx, msg);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<u32>, token: u64) {
                self.act(ctx, 1_000_000 + token as u32);
            }
        }
        let run = |seed: u64, per_event_only: bool| {
            let grid = if seed.is_multiple_of(2) { 1_000 } else { 1 };
            let log = Log::default();
            let mut s = sim();
            s.per_event_only = per_event_only;
            let mut rng = SmallRng::seed_from_u64(seed);
            for id in 0..3u64 {
                let mk = {
                    let log = log.clone();
                    move || -> Box<dyn Process<u32>> {
                        Box::new(Chatter {
                            log: log.clone(),
                            rng: SmallRng::seed_from_u64(seed * 8 + id),
                            grid,
                            budget: 150,
                        })
                    }
                };
                let n = s.add_node(mk());
                s.set_restart_factory(n, mk);
            }
            for i in 0..300u32 {
                let mut draw =
                    |us: u64| Duration::from_nanos(rng.random_range(0..us * 1_000 / grid) * grid);
                let at = SimTime::ZERO + draw(400);
                let node = i as usize % 3;
                match i % 50 {
                    0 | 25 => s.pause_at(node, at, draw(30)),
                    10 => {
                        s.crash_at(node, at);
                        s.restart_at(node, at + draw(20));
                    }
                    k if k % 5 == 1 => s.inject(9, node, DeliveryClass::Dma, at - s.now(), i),
                    _ => s.inject(9, node, DeliveryClass::Cpu, at - s.now(), i),
                }
            }
            s.run_until(SimTime::from_millis(5));
            let waits: Vec<WaitStats> = (0..3).map(|n| s.probe.wait_stats(n)).collect();
            let log = log.borrow().clone();
            (
                log,
                waits,
                s.seqs(),
                s.stats().restart_drops,
                s.stats().events,
            )
        };
        let mut saved = [0, 0];
        for seed in 0..40 {
            let (fast, slow) = (run(seed, false), run(seed, true));
            assert!(fast.0.len() > 200, "seed {seed}: schedule too thin");
            assert_eq!(fast.0, slow.0, "seed {seed}: handler order");
            assert_eq!(fast.1, slow.1, "seed {seed}: wait integrals");
            assert_eq!(
                (fast.2, fast.3),
                (slow.2, slow.3),
                "seed {seed}: seq / drops"
            );
            assert!(fast.4 <= slow.4, "seed {seed}: the run added events");
            saved[seed as usize % 2] += slow.4 - fast.4;
        }
        assert!(saved[0] > 0 && saved[1] > 0, "no run formed: {saved:?}");
    }

    #[test]
    fn parked_polls_match_the_queued_polls_on_random_schedules() {
        // Differential check of parking: a busy-poll loop whose empty polls
        // spin and re-arm, parked on one side and run by the handler every
        // time on the other (`queue_polls`). A poll stays empty for
        // `PATIENCE` after the last message that cost CPU; the one after
        // that does work (a follower suspecting its leader), so parked
        // nodes are woken at their `until`. Node 0 runs at a CPU scale that
        // rounds; node 1 carries an idle-slot factor (the what-if
        // intervention) and timer jitter, so it never parks; node 2 is
        // descheduled at random; node 3's CPU scale changes mid-run.
        // Messages make work (2 us a piece, so the 100 ns poll timer leads
        // deferral runs and Cpu deliveries queue behind it), DMA deposits
        // cost nothing and leave a node parked, a slow second timer wakes
        // it for nothing, pauses hold nodes, crashes and restarts leave
        // stale timers to drop. Handler order, the trace (every `CpuBusy`
        // interval), CPU and wait accounts, every `seq` counter, the drops,
        // the idle-poll count and the RNG must agree.
        const SPIN: Duration = Duration::from_nanos(40);
        const EVERY: Duration = Duration::from_nanos(100);
        const PATIENCE: Duration = Duration::from_micros(3);
        struct Spinner {
            log: Log,
            work: u32,
            heard: SimTime,
            idle: std::rc::Rc<std::cell::Cell<u64>>,
        }
        impl Spinner {
            fn note(&self, ctx: &Ctx<u32>, what: u32) {
                self.log
                    .borrow_mut()
                    .push((ctx.now().as_nanos(), ctx.id(), what));
            }
        }
        impl Process<u32> for Spinner {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                self.heard = ctx.now();
                ctx.set_timer(EVERY, 7);
                ctx.set_timer(Duration::from_micros(40), 8);
            }
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _: NodeId, msg: u32) {
                self.note(ctx, msg);
                if msg % 5 != 1 {
                    // Not a DMA deposit: the handler costs CPU and makes work.
                    self.work += msg % 3;
                    self.heard = ctx.now();
                    ctx.use_cpu(Duration::from_nanos(700));
                }
            }
            fn idle_poll(&self, token: u64) -> Option<IdlePoll> {
                (token == 7 && self.work == 0).then_some(IdlePoll {
                    cpu: SPIN,
                    rearm: EVERY,
                    until: Some(self.heard + PATIENCE),
                })
            }
            fn on_timer(&mut self, ctx: &mut Ctx<u32>, token: u64) {
                if token == 8 {
                    self.note(ctx, u32::MAX - 2);
                    ctx.set_timer(Duration::from_micros(40), 8);
                    return;
                }
                ctx.use_cpu_idle(SPIN);
                if self.work > 0 {
                    self.work -= 1;
                    self.note(ctx, u32::MAX);
                    ctx.use_cpu(Duration::from_micros(2));
                } else if ctx.now() > self.heard + PATIENCE {
                    self.note(ctx, u32::MAX - 1);
                    self.heard = ctx.now();
                    ctx.use_cpu(Duration::from_micros(1));
                } else {
                    self.idle.set(self.idle.get() + 1);
                }
                ctx.set_timer(EVERY, token);
            }
        }
        let run = |seed: u64, queue_polls: bool| {
            let log = Log::default();
            let idle = std::rc::Rc::new(std::cell::Cell::new(0));
            let mut s = sim();
            s.queue_polls = queue_polls;
            s.set_tracing(true);
            for _ in 0..4 {
                let mk = {
                    let (log, idle) = (log.clone(), idle.clone());
                    move || -> Box<dyn Process<u32>> {
                        Box::new(Spinner {
                            log: log.clone(),
                            work: 0,
                            heard: SimTime::ZERO,
                            idle: idle.clone(),
                        })
                    }
                };
                let n = s.add_node(mk());
                s.set_restart_factory(n, mk);
            }
            s.set_cpu_scale(0, 1.37);
            s.set_cpu_scale(1, 3.0);
            s.set_timer_jitter(1, Duration::from_nanos(30));
            s.set_desched(
                2,
                DeschedProfile {
                    mean_interval: Duration::from_micros(40),
                    min_pause: Duration::from_micros(1),
                    max_pause: Duration::from_micros(6),
                },
            );
            // Faults and messages are drawn a 50 us phase at a time: a
            // message is keyed to the incarnations alive when it is injected.
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in 0..320u32 {
                let phase = SimTime::from_micros(u64::from(i / 40) * 50);
                s.run_until(phase);
                if i == 160 {
                    s.set_cpu_scale(3, 0.83);
                }
                let mut ns = |max: u64| Duration::from_nanos(rng.random_range(0..max));
                let delay = ns(50_000);
                let node = i as usize % 4;
                match i % 40 {
                    0 | 20 => s.pause_at(node, phase + delay, ns(9_000)),
                    10 => {
                        s.crash_at(node, phase + delay);
                        s.restart_at(node, phase + delay + ns(9_000));
                    }
                    k if k % 5 == 1 => s.inject(9, node, DeliveryClass::Dma, delay, i),
                    _ => s.inject(9, node, DeliveryClass::Cpu, delay, i),
                }
            }
            s.run_until(SimTime::from_micros(400));
            let waits: Vec<WaitStats> = (0..4).map(|n| s.probe.wait_stats(n)).collect();
            let tail = (s.seqs(), s.stats().restart_drops);
            let idle = idle.get() + (0..4).map(|n| s.idle_polls(n)).sum::<u64>();
            let events = s.stats().events;
            let draw: u64 = s.rng().random();
            let log = log.borrow().clone();
            (
                log,
                idle,
                s.take_trace(),
                s.metrics(),
                waits,
                tail,
                draw,
                events,
            )
        };
        let mut saved = 0;
        for seed in 0..24 {
            let (fast, slow) = (run(seed, false), run(seed, true));
            assert!(
                fast.0.len() > 400,
                "seed {seed}: {} handler runs",
                fast.0.len()
            );
            assert!(fast.1 > 2_000, "seed {seed}: {} idle polls", fast.1);
            assert!(
                fast.0.iter().filter(|e| e.2 == u32::MAX - 1).count() > 20,
                "seed {seed}: no poll outlived its patience"
            );
            assert_eq!(fast.0, slow.0, "seed {seed}: handler order");
            assert_eq!(fast.1, slow.1, "seed {seed}: idle polls");
            assert_eq!(fast.2.len(), slow.2.len(), "seed {seed}: trace length");
            if let Some(i) = (0..fast.2.len()).find(|&i| fast.2[i] != slow.2[i]) {
                panic!(
                    "seed {seed}: trace event {i}: {:?} vs {:?}",
                    fast.2[i], slow.2[i]
                );
            }
            assert_eq!(fast.3, slow.3, "seed {seed}: metrics");
            assert_eq!(fast.4, slow.4, "seed {seed}: wait integrals");
            assert_eq!(fast.5, slow.5, "seed {seed}: seq / drops");
            assert_eq!(fast.6, slow.6, "seed {seed}: RNG position");
            saved += slow.7 as i64 - fast.7 as i64;
        }
        assert!(saved > 24_000, "parking saved only {saved} events");
    }

    #[test]
    fn run_until_advances_clock_to_deadline_when_idle() {
        let mut s = sim();
        s.run_until(SimTime::from_millis(5));
        assert_eq!(s.now(), SimTime::from_millis(5));
    }

    #[test]
    fn timer_jitter_bounded() {
        struct Once {
            fired: Option<SimTime>,
        }
        impl Process<u32> for Once {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.set_timer(Duration::from_micros(10), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<u32>, _: u64) {
                self.fired = Some(ctx.now());
            }
        }
        let mut s = sim();
        let a = s.add_node(Box::new(Once { fired: None }));
        s.set_timer_jitter(a, Duration::from_micros(5));
        s.run_until(SimTime::from_millis(1));
        let t = s.node::<Once>(a).fired.unwrap();
        assert!(t >= SimTime::from_micros(10) && t <= SimTime::from_micros(15));
    }

    #[test]
    fn desched_profile_pauses_periodically() {
        struct Poller {
            gaps: Vec<Duration>,
            last: SimTime,
        }
        impl Process<u32> for Poller {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.set_timer(Duration::from_micros(1), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<u32>, _: u64) {
                self.gaps.push(ctx.now().saturating_since(self.last));
                self.last = ctx.now();
                ctx.set_timer(Duration::from_micros(1), 0);
            }
        }
        let mut s = sim();
        let a = s.add_node(Box::new(Poller {
            gaps: vec![],
            last: SimTime::ZERO,
        }));
        s.set_desched(
            a,
            DeschedProfile {
                mean_interval: Duration::from_micros(200),
                min_pause: Duration::from_micros(50),
                max_pause: Duration::from_micros(80),
            },
        );
        s.run_until(SimTime::from_millis(2));
        let p = s.node::<Poller>(a);
        let long_gaps = p
            .gaps
            .iter()
            .filter(|g| **g >= Duration::from_micros(40))
            .count();
        assert!(
            long_gaps >= 3,
            "expected descheduling gaps, got {long_gaps}"
        );
    }

    #[test]
    fn restart_does_not_resurrect_pre_crash_timers_or_deliveries() {
        // A node with a periodic timer crashes with a timer and a delivery in
        // flight, then reboots: the fresh incarnation must see neither.
        struct Ticker {
            fired: Vec<SimTime>,
            got: Vec<u32>,
        }
        impl Process<u32> for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.set_timer(Duration::from_micros(10), 7);
            }
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, msg: u32) {
                self.got.push(msg);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<u32>, _t: u64) {
                self.fired.push(ctx.now());
                ctx.set_timer(Duration::from_micros(10), 7);
            }
        }
        let mut s = sim();
        let a = s.add_node(Box::new(Ticker {
            fired: vec![],
            got: vec![],
        }));
        s.set_restart_factory(a, || {
            Box::new(Ticker {
                fired: vec![],
                got: vec![],
            })
        });
        // Timer armed at 20us fires at 30us; crash at 25us leaves it queued.
        s.crash_at(a, SimTime::from_micros(25));
        // A delivery posted pre-crash and landing post-restart must vanish.
        s.inject(a, a, DeliveryClass::Dma, Duration::from_micros(40), 99);
        s.restart_at(a, SimTime::from_micros(30));
        s.run_until(SimTime::from_micros(55));
        let t = s.node::<Ticker>(a);
        // Fresh state: only the new incarnation's timers (armed at 30us,
        // fired at 40us and 50us), no resurrected 30us timer, no stale msg.
        assert_eq!(
            t.fired,
            vec![SimTime::from_micros(40), SimTime::from_micros(50)]
        );
        assert!(t.got.is_empty(), "stale delivery resurrected: {:?}", t.got);
        assert_eq!(s.incarnation(a), 1);
        assert!(s.stats().restart_drops >= 2, "timer+delivery dropped");
        assert_eq!(s.counter(a, Counter::Restarts), 1);
    }

    #[test]
    fn restart_requires_crash_and_factory() {
        let mut s = sim();
        let a = s.add_node(Box::new(Echo {
            got: vec![],
            cpu: Duration::ZERO,
        }));
        // No factory: restart of a crashed node is a no-op.
        s.crash(a);
        s.restart_at(a, SimTime::from_micros(5));
        s.run_until(SimTime::from_micros(10));
        assert!(s.is_crashed(a));
        assert_eq!(s.incarnation(a), 0);
        // With a factory but not crashed: also a no-op.
        let mut s = sim();
        let a = s.add_node(Box::new(Echo {
            got: vec![],
            cpu: Duration::ZERO,
        }));
        s.set_restart_factory(a, || {
            Box::new(Echo {
                got: vec![],
                cpu: Duration::ZERO,
            })
        });
        s.restart_at(a, SimTime::from_micros(5));
        s.run_until(SimTime::from_micros(10));
        assert_eq!(s.incarnation(a), 0);
    }

    #[test]
    fn partition_drops_cross_group_sends_and_heals() {
        struct Spammer {
            peer: NodeId,
        }
        impl Process<u32> for Spammer {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.set_timer(Duration::from_micros(10), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<u32>, _: u64) {
                ctx.send(self.peer, DeliveryClass::Dma, 64, 1);
                ctx.set_timer(Duration::from_micros(10), 0);
            }
        }
        struct Sink {
            got: Vec<SimTime>,
        }
        impl Process<u32> for Sink {
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _: NodeId, _: u32) {
                self.got.push(ctx.now());
            }
        }
        let mut s = sim();
        let _a = s.add_node(Box::new(Spammer { peer: 1 }));
        let b = s.add_node(Box::new(Sink { got: vec![] }));
        s.partition(vec![vec![0], vec![1]], SimTime::from_micros(95));
        s.heal(SimTime::from_micros(205));
        s.run_until(SimTime::from_micros(300));
        let got = &s.node::<Sink>(b).got;
        // Sends at 10..90us land; 100..200us are cut; 210us+ land again.
        assert!(got.iter().any(|&t| t < SimTime::from_micros(95)));
        assert!(!got
            .iter()
            .any(|&t| t > SimTime::from_micros(105) && t < SimTime::from_micros(205)));
        assert!(got.iter().any(|&t| t > SimTime::from_micros(210)));
        assert_eq!(s.counter(0, Counter::PartitionDrops), 11); // 100..200us
        assert_eq!(s.stats().partition_drops, 11);
    }

    #[test]
    fn dispatch_draws_and_files_effects_in_emission_order() {
        // One handler emits a send, a timer on a jittered node, a send across
        // a partition cut, and a second send. The RNG must be drawn link,
        // timer, link, in that order, and the cut send must draw nothing.
        struct Emitter {
            fired: Option<SimTime>,
        }
        impl Process<u32> for Emitter {
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _: NodeId, _: u32) {
                ctx.send(1, DeliveryClass::Dma, 64, 1);
                ctx.set_timer(Duration::from_micros(5), 0);
                ctx.send(3, DeliveryClass::Dma, 64, 3);
                ctx.send(2, DeliveryClass::Dma, 64, 2);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<u32>, _: u64) {
                self.fired = Some(ctx.now());
            }
        }
        struct Sink {
            got: Vec<SimTime>,
        }
        impl Process<u32> for Sink {
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _: NodeId, _: u32) {
                self.got.push(ctx.now());
            }
        }
        let timer_jitter = Duration::from_micros(2);
        let mut s = sim();
        s.add_node(Box::new(Emitter { fired: None }));
        for _ in 1..4 {
            s.add_node(Box::new(Sink { got: vec![] }));
        }
        s.set_timer_jitter(0, timer_jitter);
        s.partition(vec![vec![0, 1, 2], vec![3]], SimTime::ZERO);
        // Injected deliveries bypass the network: no draw before the handler.
        s.inject(1, 0, DeliveryClass::Cpu, Duration::from_micros(10), 0);
        s.run_until(SimTime::from_millis(1));

        let params = NetParams::rdma();
        let link = params.default_link;
        let ser = params.nic.serialize_time(64).as_nanos() as u64;
        let mut replay = SmallRng::seed_from_u64(42);
        let link_jitter = link.jitter.as_nanos() as u64;
        let j1 = replay.random_range(0..=link_jitter);
        let j2 = replay.random_range(0..=timer_jitter.as_nanos() as u64);
        let j3 = replay.random_range(0..=link_jitter);
        let post = SimTime::from_micros(10).as_nanos();
        let latency = link.latency.as_nanos() as u64;
        // Egress, propagation plus jitter, ingress; the second send waits
        // behind the first on the emitter's egress NIC.
        let first = post + ser + latency + j1 + ser;
        let second = post + 2 * ser + latency + j3 + ser;
        assert_eq!(s.node::<Sink>(1).got, [SimTime::from_nanos(first)]);
        assert_eq!(s.node::<Sink>(2).got, [SimTime::from_nanos(second)]);
        assert!(s.node::<Sink>(3).got.is_empty());
        let fired = post + Duration::from_micros(5).as_nanos() as u64 + j2;
        assert_eq!(s.node::<Emitter>(0).fired, Some(SimTime::from_nanos(fired)));
        assert_eq!(s.counter(0, Counter::PartitionDrops), 1);
    }

    #[test]
    fn node_downcast_panics_on_wrong_type() {
        let mut s = sim();
        let a = s.add_node(Box::new(Echo {
            got: vec![],
            cpu: Duration::ZERO,
        }));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.node::<Pinger>(a);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn gauge_sampler_does_not_perturb() {
        let run = |sampled: bool| {
            let mut s = sim();
            let a = s.add_node(Box::new(Pinger {
                peer: 1,
                replies: vec![],
            }));
            let _ = s.add_node(Box::new(Echo {
                got: vec![],
                cpu: Duration::from_nanos(500),
            }));
            if sampled {
                s.set_gauge_sampling(Duration::from_micros(100));
            }
            s.run_until(SimTime::from_millis(1));
            let series = s.gauge_samples().len();
            (s.node::<Pinger>(a).replies.clone(), series)
        };
        let (replies_on, series_on) = run(true);
        let (replies_off, series_off) = run(false);
        assert_eq!(replies_on, replies_off, "observability perturbed the run");
        assert!(series_on > 0, "sampler produced no series");
        assert_eq!(series_off, 0);
    }

    #[test]
    fn wire_accounting() {
        // The counters are the only wire tally: a 10 B post is charged the
        // 80 B minimum frame, a 1,000 B post its own size, both to the
        // sender.
        struct Sender;
        impl Process<u32> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.send(1, DeliveryClass::Dma, 10, 0);
                ctx.send(1, DeliveryClass::Dma, 1_000, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, _: u32) {}
        }
        struct Sink;
        impl Process<u32> for Sink {
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, _: u32) {}
        }
        let mut s = sim();
        s.add_node(Box::new(Sender));
        s.add_node(Box::new(Sink));
        s.run_until(SimTime::from_millis(1));
        assert_eq!(s.counter(0, Counter::Packets), 2);
        assert_eq!(s.counter(0, Counter::WireBytes), 80 + 1_000);
        assert_eq!(s.counter(1, Counter::Packets), 0);
        let st = s.stats();
        assert_eq!((st.packets, st.wire_bytes), (2, 80 + 1_000));
    }

    #[test]
    fn inflight_gauge_returns_to_zero_after_drain() {
        let mut s = sim();
        let _a = s.add_node(Box::new(Pinger {
            peer: 1,
            replies: vec![],
        }));
        let b = s.add_node(Box::new(Echo {
            got: vec![],
            cpu: Duration::ZERO,
        }));
        s.run_until(SimTime::from_millis(1));
        assert_eq!(s.gauge(b, Gauge::InflightMsgs), 0);
        assert_eq!(s.gauge(0, Gauge::InflightMsgs), 0);
    }

    #[test]
    fn sampler_cadence_is_honored_when_idle() {
        let mut s = sim();
        s.add_node(Box::new(Echo {
            got: vec![],
            cpu: Duration::ZERO,
        }));
        s.set_gauge_sampling(Duration::from_micros(250));
        s.run_until(SimTime::from_millis(1));
        // Samples at 250/500/750/1000 µs; idle-advance covers the tail.
        let at: Vec<u64> = s
            .gauge_samples()
            .iter()
            .map(|g| g.at.as_nanos())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(at, vec![250_000, 500_000, 750_000, 1_000_000]);
    }

    #[test]
    fn durable_log_survives_restart_and_crash_truncates_staged() {
        // Appends two records, fsyncs, stages a third, then re-arms. After a
        // crash the staged record must be gone; after restart the fresh
        // process must see exactly the synced prefix.
        struct Writer {
            recovered: Vec<Vec<u8>>,
            wrote: bool,
        }
        impl Process<u32> for Writer {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                self.recovered = ctx.log_synced().to_vec();
                ctx.set_timer(Duration::from_micros(10), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<u32>, _: u64) {
                if !self.wrote {
                    self.wrote = true;
                    ctx.log_append(b"a");
                    ctx.log_append(b"b");
                    ctx.log_fsync();
                    ctx.log_append(b"staged");
                }
            }
        }
        let mut s = sim();
        let a = s.add_node(Box::new(Writer {
            recovered: vec![],
            wrote: false,
        }));
        s.set_restart_factory(a, || {
            Box::new(Writer {
                recovered: vec![],
                wrote: true,
            })
        });
        s.crash_at(a, SimTime::from_micros(50));
        s.restart_at(a, SimTime::from_micros(60));
        s.run_until(SimTime::from_micros(100));
        let w = s.node::<Writer>(a);
        assert_eq!(w.recovered, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(s.disk(a).len(), 2, "staged record survived the crash");
        assert_eq!(s.counter(a, Counter::WalFsyncs), 1);
        assert_eq!(s.counter(a, Counter::WalAppendBytes), 8);
        assert_eq!(s.counter(a, Counter::WalTruncatedRecords), 1);
    }

    #[test]
    fn power_failure_crashes_the_whole_set_at_once() {
        let mut s = sim();
        let a = s.add_node(Box::new(Echo {
            got: vec![],
            cpu: Duration::ZERO,
        }));
        let b = s.add_node(Box::new(Echo {
            got: vec![],
            cpu: Duration::ZERO,
        }));
        let c = s.add_node(Box::new(Pinger {
            peer: 0,
            replies: vec![],
        }));
        s.power_failure_at(vec![a, b], SimTime::from_micros(5));
        s.run_until(SimTime::from_micros(20));
        assert!(s.is_crashed(a) && s.is_crashed(b));
        assert!(!s.is_crashed(c), "power failure hit a node outside the set");
        // Immediate flavour too.
        s.power_failure(&[c]);
        assert!(s.is_crashed(c));
    }

    #[test]
    fn fifo_order_preserved_under_load() {
        struct Blast {
            peer: NodeId,
        }
        impl Process<u32> for Blast {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                for i in 0..500 {
                    ctx.send(self.peer, DeliveryClass::Dma, 4096, i);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, _: u32) {}
        }
        struct Sink {
            got: Vec<u32>,
        }
        impl Process<u32> for Sink {
            fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, msg: u32) {
                self.got.push(msg);
            }
        }
        let mut s = sim();
        let _a = s.add_node(Box::new(Blast { peer: 1 }));
        let b = s.add_node(Box::new(Sink { got: vec![] }));
        s.run_until(SimTime::from_secs(1));
        let got = &s.node::<Sink>(b).got;
        assert_eq!(got.len(), 500);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "FIFO violated");
    }
}
