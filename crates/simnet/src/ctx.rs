//! The effect context handed to [`Process`](crate::Process) handlers.

use crate::disk::{Checkpoint, DurableLog};
use crate::time::SimTime;
use crate::trace::{Counter, Event, Gauge, MsgKind, Probe, SpanStage, TraceEvent, WaitReason};
use crate::NodeId;
use rand::rngs::SmallRng;
use std::time::Duration;

/// How a message is handed to its destination.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DeliveryClass {
    /// One-sided RDMA semantics: the payload is handed to the destination's
    /// handler at the instant it clears the destination NIC, even if the
    /// destination process is busy or descheduled — the NIC DMAs into
    /// registered memory without waking the CPU. Handlers for `Dma`
    /// deliveries must only deposit state (e.g. apply bytes into a memory
    /// region) and must not charge CPU.
    Dma,
    /// Kernel message semantics (TCP baselines): delivery waits until the
    /// destination process is neither busy nor descheduled, and the handler
    /// is expected to charge per-message CPU.
    Cpu,
}

pub(crate) enum Effect<M> {
    Send {
        dst: NodeId,
        class: DeliveryClass,
        wire_bytes: u32,
        /// CPU accrued in this handler at the moment of the send; the packet
        /// is posted at `dispatch_time + at_cpu`.
        at_cpu: Duration,
        /// What the message is for (resource-accounting axis).
        kind: MsgKind,
        msg: M,
    },
    Timer {
        /// Delay from `dispatch_time + at_cpu`.
        delay: Duration,
        at_cpu: Duration,
        token: u64,
    },
}

/// What a charge of `d` costs on a node with this CPU scale. One function,
/// so the idle polls the engine answers without a handler
/// ([`Process::idle_poll`](crate::Process::idle_poll)) round exactly as a
/// handler's [`Ctx::use_cpu_idle`] does.
#[inline]
pub(crate) fn scaled_charge(cpu_scale: f64, d: Duration) -> Duration {
    Duration::from_nanos((d.as_nanos() as f64 * cpu_scale) as u64)
}

/// Handler context: the only channel through which a [`Process`](crate::Process)
/// may affect the world.
///
/// All effects are buffered and applied by the engine after the handler
/// returns, which keeps protocol state machines pure and deterministic.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: NodeId,
    cpu: Duration,
    cpu_scale: f64,
    rng: &'a mut SmallRng,
    probe: &'a mut Probe,
    disk: &'a mut DurableLog,
    pub(crate) effects: Vec<Effect<M>>,
    /// Some charge went to a slot other than `idle_poll`.
    worked: bool,
}

impl<'a, M> Ctx<'a, M> {
    /// `effects` is the (empty) recycled buffer effects accumulate into; the
    /// engine hands each dispatch the previous dispatch's drained buffer so
    /// the hot path allocates nothing per event.
    pub(crate) fn new(
        now: SimTime,
        self_id: NodeId,
        cpu_scale: f64,
        rng: &'a mut SmallRng,
        probe: &'a mut Probe,
        disk: &'a mut DurableLog,
        effects: Vec<Effect<M>>,
    ) -> Self {
        debug_assert!(effects.is_empty());
        Ctx {
            now,
            self_id,
            cpu: Duration::ZERO,
            cpu_scale,
            rng,
            probe,
            disk,
            effects,
            worked: false,
        }
    }

    /// The virtual instant at which this handler was dispatched.
    ///
    /// CPU charged so far in this handler is *not* included; use
    /// [`Ctx::now_cpu`] for the node's instantaneous clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Dispatch time plus CPU charged so far: "what time is it for this CPU".
    #[inline]
    pub fn now_cpu(&self) -> SimTime {
        self.now + self.cpu
    }

    /// This node's id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Charge `d` of CPU time to this node. Subsequent effects are
    /// timestamped after the charge; CPU-class deliveries and timers for this
    /// node are deferred while it is busy.
    ///
    /// The charge is attributed to the `"other"` CPU slot of the resource
    /// accounting layer; use [`Ctx::use_cpu_at`] where the cost belongs to a
    /// specific lifecycle stage.
    #[inline]
    pub fn use_cpu(&mut self, d: Duration) {
        self.charge(SpanStage::COUNT, d);
    }

    /// Charge `d` of CPU time to this node, attributed to lifecycle `stage`
    /// in the resource accounting layer. Identical timing semantics to
    /// [`Ctx::use_cpu`] — attribution is bookkeeping only (a plain array
    /// add), so swapping one for the other can never perturb a run.
    #[inline]
    pub fn use_cpu_at(&mut self, stage: SpanStage, d: Duration) {
        self.charge(stage as usize, d);
    }

    /// Charge `d` of CPU time to this node as busy-wait polling (the
    /// `"idle_poll"` attribution slot). Identical timing semantics to
    /// [`Ctx::use_cpu`]; the separate slot lets the bottleneck ranker tell a
    /// core that spins on an empty completion queue apart from one doing
    /// real work.
    #[inline]
    pub fn use_cpu_idle(&mut self, d: Duration) {
        self.charge(crate::trace::CPU_SLOT_IDLE, d);
    }

    /// Charge `d`, scaled by the node's CPU scale, to attribution `slot`;
    /// returns the scaled duration.
    #[inline]
    fn charge(&mut self, slot: usize, d: Duration) -> Duration {
        let scaled = scaled_charge(self.cpu_scale, d);
        self.cpu += scaled;
        self.worked |= slot != crate::trace::CPU_SLOT_IDLE && scaled > Duration::ZERO;
        self.probe
            .cpu_charge(self.self_id, slot, scaled.as_nanos() as u64);
        scaled
    }

    /// Whether this handler charged CPU to a slot other than `idle_poll`.
    #[inline]
    pub(crate) fn worked(&self) -> bool {
        self.worked
    }

    /// Total CPU charged so far in this handler invocation.
    #[inline]
    pub fn cpu_used(&self) -> Duration {
        self.cpu
    }

    /// Stage one record on this node's persistent log and charge the
    /// device's append cost (attributed to [`SpanStage::Commit`], scaled by
    /// the node's CPU scale exactly like any other charge). The record is
    /// *not* persisted until [`Ctx::log_fsync`] — a crash in between loses
    /// it. The log keeps `rec` itself.
    pub fn log_append(&mut self, rec: Vec<u8>) {
        let bytes = rec.len() as u64;
        let cost = self.disk.append(rec);
        self.charge(SpanStage::Commit as usize, cost);
        self.probe
            .count(self.self_id, Counter::WalAppendBytes, bytes);
        self.probe
            .count(self.self_id, Counter::WalDeviceNs, cost.as_nanos() as u64);
    }

    /// Issue an fsync barrier on this node's persistent log: everything
    /// staged so far becomes crash-safe, and the device's barrier cost is
    /// charged (attributed to [`SpanStage::Commit`] so the bottleneck ranker
    /// shows device time under the commit stage, not `other`). The charge is
    /// unconditional — the etcd baseline fsyncs through here in volatile
    /// mode too, so its WAL discipline is costed from the same device
    /// parameters as the durable-mode protocols.
    pub fn log_fsync(&mut self) {
        let cost = self.disk.fsync();
        self.charge_barrier(cost);
    }

    /// Replace this node's checkpoint with `ckpt` and drop the first `trim`
    /// persisted records of its log, atomically
    /// ([`DurableLog::checkpoint`]). Priced and counted as one
    /// [`Ctx::log_fsync`] barrier; the staged suffix stays staged.
    pub fn log_checkpoint(&mut self, ckpt: Checkpoint, trim: usize) {
        let cost = self.disk.checkpoint(ckpt, trim);
        self.charge_barrier(cost);
    }

    /// Charge one barrier of `cost` at the commit stage, on the `Wal*`
    /// counters and as an fsync wait.
    fn charge_barrier(&mut self, cost: Duration) {
        let stall = self.charge(SpanStage::Commit as usize, cost);
        self.probe.count(self.self_id, Counter::WalFsyncs, 1);
        self.probe
            .count(self.self_id, Counter::WalDeviceNs, cost.as_nanos() as u64);
        // Forensics: the handler stalls for the scaled barrier time.
        self.probe.wait(
            self.self_id,
            WaitReason::FsyncBarrier,
            stall.as_nanos() as u64,
        );
    }

    /// The persisted records of this node's log — what survived the last
    /// crash. Recovery paths read this from `on_start`; records staged after
    /// the last [`Ctx::log_fsync`] are invisible.
    pub fn log_synced(&self) -> &[Vec<u8>] {
        self.disk.synced_records()
    }

    /// How many records of this node's log are persisted.
    pub fn log_synced_len(&self) -> usize {
        self.disk.synced_len()
    }

    /// The checkpoint the persisted records continue, shared, if one was
    /// written ([`Ctx::log_checkpoint`]).
    pub fn log_synced_checkpoint(&self) -> Option<Checkpoint> {
        self.disk.synced_checkpoint().cloned()
    }

    /// Total records on this node's log, staged included.
    pub fn log_len(&self) -> usize {
        self.disk.len()
    }

    /// Whether this node's log holds neither a record nor a checkpoint.
    pub fn log_is_empty(&self) -> bool {
        self.disk.is_empty()
    }

    /// Send `msg` to `dst`. `wire_bytes` is the logical size on the wire
    /// (clamped up to the NIC minimum by the network model).
    ///
    /// The message is accounted as [`MsgKind::Control`]; hot paths that move
    /// payload or acknowledgements tag themselves through
    /// [`Ctx::send_kind`].
    pub fn send(&mut self, dst: NodeId, class: DeliveryClass, wire_bytes: u32, msg: M) {
        self.send_kind(dst, class, wire_bytes, MsgKind::Control, msg);
    }

    /// [`Ctx::send`] with an explicit [`MsgKind`] for the resource
    /// accounting layer. The kind changes byte attribution only — never
    /// routing, timing, or delivery.
    pub fn send_kind(
        &mut self,
        dst: NodeId,
        class: DeliveryClass,
        wire_bytes: u32,
        kind: MsgKind,
        msg: M,
    ) {
        self.effects.push(Effect::Send {
            dst,
            class,
            wire_bytes,
            at_cpu: self.cpu,
            kind,
            msg,
        });
    }

    /// Arrange for `on_timer(token)` to run `delay` from now (plus any CPU
    /// already charged). Timers are one-shot; re-arm from the handler for
    /// periodic behaviour. There is no cancellation — protocols ignore stale
    /// tokens via generation counters.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.effects.push(Effect::Timer {
            delay,
            at_cpu: self.cpu,
            token,
        });
    }

    /// Deterministic per-simulation randomness.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Record a protocol-level trace instant, timestamped at
    /// [`Ctx::now_cpu`].
    ///
    /// Zero-perturbation: recording charges no CPU, draws no randomness, and
    /// schedules nothing; with tracing off it is one untaken branch. Traced
    /// and untraced runs of the same seed are bit-identical, which is what
    /// lets a failed run be dumped post-mortem from a traced replay.
    #[inline]
    pub fn trace(&mut self, ev: Event) {
        self.probe.record(TraceEvent::Proto {
            at: self.now + self.cpu,
            node: self.self_id,
            ev,
        });
    }

    /// Bump this node's `c` counter by `n`. Counters are always on — a plain
    /// array increment with the same zero-perturbation guarantee as
    /// [`Ctx::trace`].
    #[inline]
    pub fn count(&mut self, c: Counter, n: u64) {
        self.probe.count(self.self_id, c, n);
    }

    /// Set this node's `g` gauge to its current level `v`. Gauges are always
    /// on — a plain array store with the same zero-perturbation guarantee as
    /// [`Ctx::count`]. Levels become a time series only when the engine's
    /// sampler is enabled
    /// ([`Sim::set_gauge_sampling`](crate::Sim::set_gauge_sampling)); the
    /// protocol hot path never pays for series collection.
    #[inline]
    pub fn gauge(&mut self, g: Gauge, v: u64) {
        self.probe.gauge_set(self.self_id, g, v);
    }

    /// Mark that message `id` reached lifecycle `stage` on this node,
    /// timestamped at [`Ctx::now_cpu`].
    ///
    /// The [`Counter::SpanMarks`] bump is unconditional (counters must match
    /// between traced and untraced runs), and the record goes where
    /// [`Ctx::trace`]'s does: the timeline when tracing is on, nowhere
    /// otherwise. Nothing here could perturb the run.
    #[inline]
    pub fn span(&mut self, id: u64, stage: SpanStage, arg: u64) {
        self.probe.count(self.self_id, Counter::SpanMarks, 1);
        // Always-on tail-latency forensics: every mark also feeds the
        // per-commit collector, independent of tracing, so untraced runs
        // still capture their outlier ring.
        self.probe
            .span_mark(self.now + self.cpu, self.self_id, id, stage, arg);
        self.probe.record(TraceEvent::Span {
            at: self.now + self.cpu,
            node: self.self_id,
            id,
            stage,
            arg,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A probe with a row for each node up to `id`.
    fn probe_through(id: NodeId) -> Probe {
        let mut probe = Probe::new();
        for _ in 0..=id {
            probe.add_node();
        }
        probe
    }

    #[test]
    fn cpu_accrues_and_scales() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut probe = probe_through(3);
        let mut disk = DurableLog::default();
        let mut ctx: Ctx<'_, ()> = Ctx::new(
            SimTime::from_micros(10),
            3,
            2.0,
            &mut rng,
            &mut probe,
            &mut disk,
            Vec::new(),
        );
        assert_eq!(ctx.id(), 3);
        assert_eq!(ctx.now(), SimTime::from_micros(10));
        ctx.use_cpu(Duration::from_nanos(100));
        assert_eq!(ctx.cpu_used(), Duration::from_nanos(200));
        assert_eq!(ctx.now_cpu(), SimTime::from_nanos(10_200));
    }

    #[test]
    fn effects_capture_cpu_offset() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut probe = probe_through(0);
        let mut disk = DurableLog::default();
        let mut ctx: Ctx<'_, u32> = Ctx::new(
            SimTime::ZERO,
            0,
            1.0,
            &mut rng,
            &mut probe,
            &mut disk,
            Vec::new(),
        );
        ctx.send(1, DeliveryClass::Dma, 64, 42);
        ctx.use_cpu(Duration::from_nanos(500));
        ctx.send(1, DeliveryClass::Dma, 64, 43);
        match (&ctx.effects[0], &ctx.effects[1]) {
            (
                Effect::Send {
                    at_cpu: a, msg: 42, ..
                },
                Effect::Send {
                    at_cpu: b, msg: 43, ..
                },
            ) => {
                assert_eq!(*a, Duration::ZERO);
                assert_eq!(*b, Duration::from_nanos(500));
            }
            _ => panic!("unexpected effects"),
        }
    }

    #[test]
    fn log_api_charges_device_time_at_commit() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut probe = probe_through(0);
        let mut disk = DurableLog::new(crate::disk::LogDevParams {
            append_per_kib: Duration::from_nanos(1024),
            fsync: Duration::from_micros(2),
        });
        let mut ctx: Ctx<'_, ()> = Ctx::new(
            SimTime::ZERO,
            0,
            1.0,
            &mut rng,
            &mut probe,
            &mut disk,
            Vec::new(),
        );
        ctx.log_append(vec![0u8; 512]);
        assert_eq!(ctx.cpu_used(), Duration::from_nanos(512));
        assert!(ctx.log_synced().is_empty());
        ctx.log_fsync();
        assert_eq!(ctx.cpu_used(), Duration::from_nanos(2512));
        assert_eq!(ctx.log_synced().len(), 1);
        assert_eq!(ctx.log_len(), 1);
        let snap = probe.snapshot();
        assert_eq!(snap.nodes[0].get(Counter::WalAppendBytes), 512);
        assert_eq!(snap.nodes[0].get(Counter::WalFsyncs), 1);
        assert_eq!(snap.nodes[0].get(Counter::WalDeviceNs), 2512);
        // Attribution landed on the commit slot of the CPU table.
        assert_eq!(snap.res.nodes[0].cpu_ns[SpanStage::Commit as usize], 2512);
    }

    /// A checkpoint costs what a barrier costs, counted as one.
    #[test]
    fn log_checkpoint_is_priced_as_one_barrier() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut probe = probe_through(0);
        let mut disk = DurableLog::new(crate::disk::LogDevParams {
            append_per_kib: Duration::ZERO,
            fsync: Duration::from_micros(2),
        });
        let mut ctx: Ctx<'_, ()> = Ctx::new(
            SimTime::ZERO,
            0,
            1.0,
            &mut rng,
            &mut probe,
            &mut disk,
            Vec::new(),
        );
        ctx.log_append(vec![1]);
        ctx.log_append(vec![2]);
        ctx.log_fsync();
        assert!(ctx.log_synced_checkpoint().is_none());
        ctx.log_checkpoint(std::sync::Arc::new(()), 1);
        assert_eq!(ctx.cpu_used(), Duration::from_micros(4));
        assert_eq!(ctx.log_synced(), &[vec![2]]);
        assert_eq!(ctx.log_synced_len(), 1);
        assert!(ctx.log_synced_checkpoint().is_some());
        ctx.log_checkpoint(std::sync::Arc::new(()), 1);
        assert_eq!(ctx.log_len(), 0);
        assert!(!ctx.log_is_empty(), "the checkpoint is still there");
        let snap = probe.snapshot();
        assert_eq!(snap.nodes[0].get(Counter::WalFsyncs), 3);
        assert_eq!(snap.nodes[0].get(Counter::WalDeviceNs), 6000);
    }
}
