//! # bench — harness regenerating every table and figure of the paper
//!
//! One entry point per experiment family, each taking its observability
//! settings as data and returning one record:
//!
//! * [`run`] / [`sweep`] — Figure 8 (a–d): latency vs throughput under a
//!   swept client window for all seven systems; with [`Run::ycsb`],
//!   Figure 9: YCSB-load ops/s on the replicated hash table for acuerdo /
//!   zookeeper / etcd;
//! * [`election_experiment`] — Table 1: mean Acuerdo election duration
//!   (detection → new leader's diffs transferred) vs replica count, with
//!   "long-latency" nodes injected as §4.2 describes;
//! * [`ablation_point`] — the design-choice ablations DESIGN.md calls out
//!   (ring framing, slot-reuse rule, ack granularity, signaling period);
//! * [`chaos::run_chaos`] — seeded fault scripts.
//!
//! The drivers behind them are generic over [`abcast::Replica`]: a system
//! is one `impl Replica` in its crate plus one [`System`] arm here.
//!
//! The `paper` binary ([`paper::run_paper`]) prints the paper's tables and
//! writes them as one document, `baselines/BENCH_paper.json`; `figures`
//! draws the SVGs from it.

pub mod chaos;
pub mod chrome;
pub mod cli;
pub mod diff;
pub mod forensics;
pub mod json;
pub mod paper;
pub mod plot;
pub mod report;
pub mod util;
pub mod whatif;

use abcast::app::app_as;
use abcast::{
    check_cluster, cluster_with_client, snapshot_as, App, DeliveryLog, MsgHdr, Replica, RunResult,
    Snapshot, WindowClient,
};
use acuerdo::{AcWire, AcuerdoConfig, AcuerdoNode, DisseminationMode};
use apus::{ApusConfig, ApusNode};
use bytes::Bytes;
use dare::{DareConfig, DareNode};
use derecho::{DerechoConfig, DerechoNode, Mode};
use kvstore::{ReplicatedMap, YcsbLoad};
use paxos::{PaxosConfig, PaxosNode};
use raft::{RaftConfig, RaftNode};
use simnet::{
    Counter, GaugeSample, InterventionSet, MetricsSnapshot, SchedKind, Sim, SimTime, TraceEvent,
};
use std::sync::Arc;
use std::time::Duration;
use zab::{ZabConfig, ZabNode};

/// The seven systems of Figure 8, plus two that sit outside the paper's
/// figure legend: the ring-dissemination variant of Acuerdo and DARE.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum System {
    /// The paper's contribution.
    Acuerdo,
    /// Acuerdo with ring dissemination: the leader streams to its two ring
    /// neighbours and followers forward hop by hop along two arms (after
    /// Ring Paxos), breaking the leader-egress ceiling at large n.
    AcuerdoRing,
    /// Derecho, single-sender mode.
    DerechoLeader,
    /// Derecho, all-sender round-robin mode.
    DerechoAll,
    /// APUS (RDMA Paxos, single pending batch).
    Apus,
    /// libpaxos over TCP.
    Libpaxos,
    /// ZooKeeper (Zab) over TCP.
    Zookeeper,
    /// etcd (Raft) over TCP.
    Etcd,
    /// DARE (related work, §5 — useful for the qualitative comparison the
    /// paper makes: fine-grained completions put DARE below APUS, which sits
    /// below Acuerdo).
    Dare,
}

impl System {
    /// The seven systems of the paper's figure legend, in legend order.
    /// `AcuerdoRing` and `Dare` are deliberately absent: they appear only
    /// where a matrix asks for them (the scale sweep, `chaos
    /// --dissemination ring`, the paper's §5 lineage).
    pub fn all() -> [System; 7] {
        [
            System::Acuerdo,
            System::DerechoAll,
            System::DerechoLeader,
            System::Etcd,
            System::Libpaxos,
            System::Zookeeper,
            System::Apus,
        ]
    }

    /// Legend name.
    pub fn name(&self) -> &'static str {
        match self {
            System::Acuerdo => "acuerdo",
            System::AcuerdoRing => "acuerdo-ring",
            System::DerechoLeader => "derecho-leader",
            System::DerechoAll => "derecho-all",
            System::Apus => "apus",
            System::Libpaxos => "libpaxos",
            System::Zookeeper => "zookeeper",
            System::Etcd => "etcd",
            System::Dare => "dare",
        }
    }

    /// Whether the system runs over the RDMA fabric (vs kernel TCP).
    pub fn is_rdma(&self) -> bool {
        matches!(
            self,
            System::Acuerdo
                | System::AcuerdoRing
                | System::DerechoLeader
                | System::DerechoAll
                | System::Apus
                | System::Dare
        )
    }
}

/// One measured point of Figure 8.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Client window (outstanding messages).
    pub window: usize,
    /// Payload throughput (Figure 8's x-axis).
    pub mbps: f64,
    /// Message rate.
    pub msgs_per_sec: f64,
    /// Mean latency (Figure 8's y-axis).
    pub mean_us: f64,
    /// Median latency.
    pub p50_us: f64,
    /// Tail latency.
    pub p99_us: f64,
    /// Extreme-tail latency (the forensics layer's territory).
    pub p999_us: f64,
}

impl Point {
    fn from_result(window: usize, r: &RunResult) -> Point {
        Point {
            window,
            mbps: r.mb_per_sec(),
            msgs_per_sec: r.msgs_per_sec(),
            mean_us: r.latency.mean_us(),
            p50_us: r.latency.p50_us(),
            p99_us: r.latency.p99_us(),
            p999_us: r.latency.p999_us(),
        }
    }
}

/// Measurement durations for one run (RDMA systems settle fast; TCP systems
/// need longer windows to accumulate samples).
#[derive(Copy, Clone, Debug)]
pub struct RunSpec {
    /// Warmup discarded from the measurement.
    pub warmup: Duration,
    /// Measured interval after warmup.
    pub measure: Duration,
}

impl RunSpec {
    /// Default spec for a system class.
    pub fn for_system(s: System) -> RunSpec {
        if s.is_rdma() {
            RunSpec {
                warmup: Duration::from_millis(3),
                measure: Duration::from_millis(25),
            }
        } else {
            RunSpec {
                warmup: Duration::from_millis(20),
                measure: Duration::from_millis(200),
            }
        }
    }

    /// Reduced spec for smoke benches.
    pub fn quick(s: System) -> RunSpec {
        if s.is_rdma() {
            RunSpec {
                warmup: Duration::from_millis(1),
                measure: Duration::from_millis(6),
            }
        } else {
            RunSpec {
                warmup: Duration::from_millis(10),
                measure: Duration::from_millis(60),
            }
        }
    }

    /// [`RunSpec::for_system`] when `full`, else [`RunSpec::quick`].
    pub fn of(s: System, full: bool) -> RunSpec {
        if full {
            RunSpec::for_system(s)
        } else {
            RunSpec::quick(s)
        }
    }

    /// Figure 9's spec: RDMA systems take [`RunSpec::of`]; TCP systems
    /// need hundreds of committed YCSB ops (etcd commits a few thousand per
    /// second), so they measure 400 ms (1.5 s when `full`) after a 30 ms
    /// warmup.
    pub fn fig9(s: System, full: bool) -> RunSpec {
        if s.is_rdma() {
            return RunSpec::of(s, full);
        }
        RunSpec {
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(if full { 1_500 } else { 400 }),
        }
    }
}

/// Observability settings for a benchmark run. Tracing and gauge sampling
/// are zero-perturbation: whatever combination is enabled, the measured
/// point and counters are bit-identical to a bare run at the same seed.
/// `interventions` are the opposite — deliberate physics changes, the
/// what-if catalog's counterfactuals ([`whatif::price`]).
#[derive(Clone, Debug, Default)]
pub struct Observe {
    /// Record the full trace-event timeline.
    pub traced: bool,
    /// Sample the gauge time series every [`SAMPLE_EVERY`] of sim time.
    pub gauges: bool,
    /// Event-queue implementation. Like tracing, this can never change
    /// results — the schedulers share one `(at, seq)` total order (see
    /// `simnet::sched`) — so it defaults to the fast calendar queue and is
    /// pinned to the reference heap only by differential tests.
    pub scheduler: SchedKind,
    /// What-if counterfactual applied to the constructed fabric before the
    /// run starts. The default (null) set is a no-op and reproduces the
    /// uninstrumented run byte-identically (`tests/whatif.rs`).
    pub interventions: InterventionSet,
}

/// Gauge-series sampling cadence of every run whose [`Observe`] samples
/// gauges (`--trace-out`, and the `paper` run's quick and scale sections):
/// one sample per node per 100 µs of sim time.
pub const SAMPLE_EVERY: std::time::Duration = std::time::Duration::from_micros(100);

impl Observe {
    /// Event recording and gauge sampling on, for `--trace-out` (exported
    /// together via [`chrome::write`]).
    pub fn traced() -> Observe {
        Observe {
            traced: true,
            gauges: true,
            ..Observe::default()
        }
    }

    fn apply<M: 'static>(&self, sim: &mut Sim<M>) {
        sim.set_scheduler(self.scheduler);
        sim.set_tracing(self.traced);
        if self.gauges {
            sim.set_gauge_sampling(SAMPLE_EVERY);
        }
        sim.apply_interventions(&self.interventions);
    }
}

/// What the client broadcasts.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Filler messages of a fixed size (Figure 8).
    Fixed {
        /// Payload bytes per message.
        payload: usize,
    },
    /// YCSB-load update commands, applied to every replica's copy of the
    /// replicated hash table (Figure 9).
    Ycsb,
}

impl Workload {
    /// Fixed payload bytes per message; 0 under YCSB, whose commands carry
    /// their own sizes.
    fn payload(self) -> usize {
        match self {
            Workload::Fixed { payload } => payload,
            Workload::Ycsb => 0,
        }
    }
}

/// The three systems of Figure 9.
pub const FIG9_SYSTEMS: [System; 3] = [System::Acuerdo, System::Etcd, System::Zookeeper];

/// One closed-loop run: `system` on `n` replicas under `workload` with at
/// most `window` outstanding messages.
#[derive(Clone, Debug)]
pub struct Run {
    /// The system under test.
    pub system: System,
    /// Replica count.
    pub n: usize,
    /// What the client broadcasts.
    pub workload: Workload,
    /// Client window (outstanding messages).
    pub window: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Warmup and measurement durations.
    pub spec: RunSpec,
    /// Observability settings.
    pub observe: Observe,
}

impl Run {
    /// One Figure 8 point: fixed `payload` bytes, unobserved.
    pub fn new(
        system: System,
        n: usize,
        payload: usize,
        window: usize,
        seed: u64,
        spec: RunSpec,
    ) -> Run {
        Run {
            system,
            n,
            workload: Workload::Fixed { payload },
            window,
            seed,
            spec,
            observe: Observe::default(),
        }
    }

    /// One Figure 9 point: YCSB-load at the window the system's clients
    /// use. The windows are calibrated for [`FIG9_SYSTEMS`] only, so any
    /// other system is an error.
    pub fn ycsb(system: System, n: usize, seed: u64, spec: RunSpec) -> Result<Run, String> {
        if !FIG9_SYSTEMS.contains(&system) {
            return Err(format!("figure 9 does not include {}", system.name()));
        }
        // etcd serialises a WAL fsync per entry; a 256-deep window would
        // spend tens of milliseconds just filling the pipe, so cap its
        // concurrency the way etcd clients do.
        let window = if system == System::Etcd { 64 } else { 256 };
        Ok(Run {
            workload: Workload::Ycsb,
            ..Run::new(system, n, 0, window, seed, spec)
        })
    }

    /// The same run under `observe`.
    pub fn observe(mut self, observe: Observe) -> Run {
        self.observe = observe;
        self
    }
}

/// What one [`run`] produced. `events` and `gauges` are empty unless the
/// run's [`Observe`] turned tracing / gauge sampling on.
#[derive(Clone, Debug)]
pub struct Record {
    /// The client-visible point.
    pub point: Point,
    /// Cluster-wide counter snapshot (counters are always on).
    pub metrics: MetricsSnapshot,
    /// The trace timeline.
    pub events: Vec<TraceEvent>,
    /// The sampled gauge series.
    pub gauges: Vec<GaugeSample>,
}

/// The Figure 9 application: the replicated table, plus the delivery record
/// the §2.2 checkers read.
#[derive(Clone, Default)]
struct CheckedMap {
    map: ReplicatedMap,
    log: DeliveryLog,
}

impl App for CheckedMap {
    fn deliver(&mut self, hdr: MsgHdr, payload: &Bytes) {
        self.map.deliver(hdr, payload);
        self.log.deliver(hdr, payload);
    }

    fn delivery_log(&self) -> Option<&DeliveryLog> {
        Some(&self.log)
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(Arc::new(self.clone()))
    }

    fn restore(&mut self, snap: &Snapshot) {
        *self = snapshot_as::<CheckedMap>(snap).clone();
    }
}

/// Everything a driven cluster leaves behind.
struct Driven {
    /// Requests completed inside the measurement window.
    completed: u64,
    record: Record,
}

/// The one run body: build `R`'s cluster with its client, apply the
/// observability settings and `prepare`, run out the spec, check the §2.2
/// properties (and, under YCSB, that every replica applied the table), and
/// collect.
fn drive<R: Replica>(
    cfg: &R::Config,
    run: &Run,
    prepare: impl FnOnce(&mut Sim<R::Wire>),
) -> Driven {
    let (mut sim, ids, client) = cluster_with_client::<R>(
        run.seed,
        cfg,
        run.window,
        run.workload.payload(),
        run.spec.warmup,
    );
    run.observe.apply(&mut sim);
    if run.workload == Workload::Ycsb {
        for &id in &ids {
            *sim.node_mut::<R>(id).app_mut() = Box::<CheckedMap>::default();
        }
        sim.node_mut::<WindowClient<R::Wire>>(client).payload_fn =
            Some(YcsbLoad::new(run.seed).into_payload_fn());
    }
    prepare(&mut sim);
    sim.run_until(SimTime::ZERO + run.spec.warmup + run.spec.measure);
    let name = run.system.name();
    if let Err(v) = check_cluster::<R>(&sim, &ids) {
        panic!("{name} correctness: {v:?}");
    }
    if run.workload == Workload::Ycsb {
        for &id in &ids {
            let app = app_as::<CheckedMap>(sim.node::<R>(id).app()).expect("installed above");
            assert!(app.map.applied > 0, "{name}: replica {id} applied nothing");
        }
    }
    let result = sim.node::<WindowClient<R::Wire>>(client).result();
    Driven {
        record: Record {
            point: Point::from_result(run.window, &result),
            metrics: sim.metrics(),
            events: sim.take_trace(),
            gauges: sim.take_gauge_samples(),
        },
        completed: result.completed,
    }
}

fn acuerdo_config(n: usize, dissemination: DisseminationMode) -> AcuerdoConfig {
    AcuerdoConfig {
        dissemination,
        ..AcuerdoConfig::stable(n)
    }
}

/// Run one point of Figure 8 or Figure 9 (or of the related-work lineage,
/// the quick matrix and the scale sweep, built from the same experiment).
pub fn run(run: &Run) -> Record {
    use DisseminationMode::{Ring, Star};
    fn bare<M>(_: &mut Sim<M>) {}
    let n = run.n;
    let driven = match run.system {
        System::Acuerdo => drive::<AcuerdoNode>(&acuerdo_config(n, Star), run, bare),
        System::AcuerdoRing => drive::<AcuerdoNode>(&acuerdo_config(n, Ring), run, bare),
        System::DerechoLeader => {
            drive::<DerechoNode>(&DerechoConfig::sized(n, Mode::Leader), run, bare)
        }
        System::DerechoAll => {
            drive::<DerechoNode>(&DerechoConfig::sized(n, Mode::AllSender), run, bare)
        }
        System::Apus => drive::<ApusNode>(&ApusConfig { n }, run, bare),
        System::Libpaxos => drive::<PaxosNode>(&PaxosConfig { n }, run, bare),
        System::Zookeeper => drive::<ZabNode>(
            &ZabConfig {
                n,
                ..Default::default()
            },
            run,
            bare,
        ),
        System::Etcd => drive::<RaftNode>(
            &RaftConfig {
                n,
                ..Default::default()
            },
            run,
            bare,
        ),
        System::Dare => drive::<DareNode>(
            &DareConfig {
                n,
                ..Default::default()
            },
            run,
            bare,
        ),
    };
    driven.record
}

/// Sweep the window by powers of two "until reaching the saturation of the
/// system" (§4.1): stop once throughput stops improving meaningfully. The
/// last record is the saturated point. Every point runs under `observe`.
pub fn sweep(
    system: System,
    n: usize,
    payload: usize,
    max_window_log2: u32,
    seed: u64,
    spec: RunSpec,
    observe: &Observe,
) -> Vec<Record> {
    let mut out: Vec<Record> = Vec::new();
    let mut flat = 0;
    for w in (0..=max_window_log2).map(|e| 1usize << e) {
        let r = run(&Run::new(system, n, payload, w, seed, spec).observe(observe.clone()));
        let p = &r.point;
        if p.msgs_per_sec < 1.0 {
            // Deep windows can spend the whole (finite) measurement interval
            // filling the pipeline; past saturation that is an artifact, not
            // a data point.
            break;
        }
        let prev = out.last().map_or(0.0, |q| q.point.mbps);
        if p.mbps < prev * 1.03 {
            flat += 1;
        } else {
            flat = 0;
        }
        out.push(r);
        if flat >= 2 {
            break; // saturated: two windows without >3% gain
        }
    }
    out
}

/// Table 1: mean Acuerdo election duration vs replica count.
///
/// Setup per §4.2: an open-loop client keeps the leader proposing 10-byte
/// messages; the current leader is repeatedly descheduled (the paper sleeps
/// it for 5 s; we sleep 50 ms, which equally forces a failover — the old
/// leader plays no part in the election either way); a share of the replicas
/// are "long-latency" nodes that suffer multi-millisecond scheduler pauses.
/// The reported duration runs from the moment the eventual winner suspects
/// the old leader to the moment its recovery diffs finished transferring
/// (detection time excluded, diff transfer included — the paper's metric).
///
/// The failover path shows up in the returned counter snapshot (elections,
/// heartbeat misses, diff applies); the run is observed as `observe` says
/// (a traced one also records its timeline). The run gives up after
/// `40 * elections` settle attempts without a leader, so callers that need
/// all `elections` compare `stats.count` against it.
pub fn election_experiment(
    n: usize,
    elections: usize,
    seed: u64,
    observe: &Observe,
) -> ElectionRun {
    use abcast::OpenLoopClient;
    let cfg = AcuerdoConfig {
        n,
        initial_epoch: Some(abcast::Epoch::new(1, 0)),
        fail_timeout: Duration::from_micros(400),
        // Must exceed the long-latency nodes' response time, or impatient
        // fast nodes keep self-nominating and restarting the election (the
        // "slack timeout" requirement the paper discusses for DARE).
        candidate_patience: Duration::from_millis(100),
        ..AcuerdoConfig::default()
    };
    let mut sim: Sim<AcWire> = Sim::new(seed, AcuerdoNode::net());
    let ids = acuerdo::build_cluster(&mut sim, &cfg);
    let client = sim.add_node(Box::new(OpenLoopClient::<AcWire>::new(
        0,
        Duration::from_micros(20),
        10,
    )));
    // Long-latency nodes (§4.2): enough that, once the leader is
    // descheduled, the election quorum must include progressively more of
    // them as the cluster grows (two fast replicas always remain). Their
    // scheduler delay scales with the cluster, as the paper's own
    // measurements suggest ("far more sensitive to the proportion of
    // long-latency nodes than to the overall number of replicas").
    let long = long_latency_count(n);
    let jitter = Duration::from_millis(2 * n as u64);
    for i in 0..long {
        let node = n - 1 - i; // the highest-numbered replicas
        sim.set_timer_jitter(node, jitter);
    }
    // Mild scheduler noise on the fast replicas.
    for &id in &ids[..n - long] {
        sim.set_timer_jitter(id, Duration::from_micros(150));
    }
    observe.apply(&mut sim);

    let mut completed = 0usize;
    let mut guard = 0;
    while completed < elections && guard < elections * 40 {
        guard += 1;
        // Let the cluster settle, find the leader, deschedule it.
        sim.run_for(Duration::from_millis(4));
        let Some(leader) = acuerdo::current_leader(&sim, &ids) else {
            continue;
        };
        sim.node_mut::<OpenLoopClient<AcWire>>(client).target = leader;
        sim.pause_at(leader, sim.now(), Duration::from_millis(50));
        // Wait for a new leader to emerge (someone other than the paused one).
        let deadline = sim.now() + Duration::from_millis(45);
        loop {
            sim.run_for(Duration::from_millis(1));
            match acuerdo::current_leader(&sim, &ids) {
                Some(l) if l != leader => break,
                _ if sim.now() >= deadline => break,
                _ => {}
            }
        }
        completed += 1;
        // Let the old leader wake and rejoin before the next round.
        sim.run_for(Duration::from_millis(55));
    }
    check_cluster::<AcuerdoNode>(&sim, &ids).expect("acuerdo correctness across elections");

    let mut durations: Vec<f64> = Vec::new();
    for &id in &ids {
        let node = sim.node::<AcuerdoNode>(id);
        for (start, ready) in &node.election_spans {
            durations.push(ready.saturating_since(*start).as_secs_f64() * 1e3);
        }
    }
    ElectionRun {
        stats: ElectionStats::from_durations(n, durations),
        metrics: sim.metrics(),
        events: sim.take_trace(),
    }
}

/// What one [`election_experiment`] produced.
#[derive(Clone, Debug)]
pub struct ElectionRun {
    /// Election-duration summary.
    pub stats: ElectionStats,
    /// Cluster-wide counter snapshot.
    pub metrics: MetricsSnapshot,
    /// The failover timeline (empty unless traced).
    pub events: Vec<TraceEvent>,
}

/// How many "long-latency" replicas the Table 1 setup injects.
pub fn long_latency_count(n: usize) -> usize {
    n.saturating_sub(3)
}

/// Election-duration summary (milliseconds).
#[derive(Clone, Debug)]
pub struct ElectionStats {
    /// Replica count.
    pub n: usize,
    /// Number of elections measured.
    pub count: usize,
    /// Mean duration, ms.
    pub mean_ms: f64,
    /// Min duration, ms.
    pub min_ms: f64,
    /// Max duration, ms.
    pub max_ms: f64,
}

impl ElectionStats {
    fn from_durations(n: usize, d: Vec<f64>) -> ElectionStats {
        let count = d.len();
        let mean = if count == 0 {
            0.0
        } else {
            d.iter().sum::<f64>() / count as f64
        };
        ElectionStats {
            n,
            count,
            mean_ms: mean,
            min_ms: d.iter().copied().reduce(f64::min).unwrap_or(0.0),
            max_ms: d.iter().copied().fold(0.0, f64::max),
        }
    }

    /// The summary as one JSON object (zero samples read as all-zero
    /// durations, never as a non-JSON `inf`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nodes\":{},\"elections\":{},\"mean_ms\":{:.3},\"min_ms\":{:.3},\
             \"max_ms\":{:.3}}}",
            self.n, self.count, self.mean_ms, self.min_ms, self.max_ms
        )
    }
}

/// Which design choice an ablation disables.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Ablation {
    /// The paper's configuration.
    Baseline,
    /// Split ring framing: 2 RDMA writes per message (Derecho's framing).
    SplitRing,
    /// Reuse ring slots only at commit-at-all (Derecho's rule).
    SlotReuseOnCommit,
    /// Per-message Accept_SST pushes instead of per-batch (Zab-style acks).
    PerMessageAcks,
    /// Signal every write instead of every 1000 (no selective signaling).
    SignalEveryWrite,
}

impl Ablation {
    /// All ablations, baseline first.
    pub fn all() -> [Ablation; 5] {
        [
            Ablation::Baseline,
            Ablation::SplitRing,
            Ablation::SlotReuseOnCommit,
            Ablation::PerMessageAcks,
            Ablation::SignalEveryWrite,
        ]
    }

    /// Table label.
    pub fn name(&self) -> &'static str {
        match self {
            Ablation::Baseline => "baseline",
            Ablation::SplitRing => "split-ring (2 writes/msg)",
            Ablation::SlotReuseOnCommit => "slot-reuse-on-commit-all",
            Ablation::PerMessageAcks => "per-message acks",
            Ablation::SignalEveryWrite => "signal every write",
        }
    }

    /// Apply to a config.
    pub fn apply(&self, mut cfg: AcuerdoConfig) -> AcuerdoConfig {
        match self {
            Ablation::Baseline => {}
            Ablation::SplitRing => cfg.ring_mode = rdma_prims::RingMode::Split,
            Ablation::SlotReuseOnCommit => cfg.slot_reuse_on_commit = true,
            Ablation::PerMessageAcks => cfg.per_message_acks = true,
            Ablation::SignalEveryWrite => cfg.qp.signal_interval = 1,
        }
        cfg
    }
}

/// One ablation measurement: the client-visible point plus cluster-wide
/// wire efficiency (where the framing and acking choices show up even when
/// the leader CPU, not the follower, is the bottleneck).
#[derive(Clone, Debug)]
pub struct AblationOutcome {
    /// Client-visible latency/throughput.
    pub point: Point,
    /// RDMA packets on the wire per completed message, cluster-wide.
    pub packets_per_msg: f64,
}

/// The cluster an ablation point runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// The stable cluster.
    Stable,
    /// 4 KiB rings: the slow-follower scenario without the slow follower,
    /// its control.
    SmallRings,
    /// 4 KiB rings and one follower periodically descheduled for longer
    /// than a ring takes to drain: the §4.1 scenario where the slot-reuse
    /// rule binds (Acuerdo's reuse-on-accept sails through; Derecho's
    /// reuse-on-commit-at-all stalls the sender behind the slow node).
    SlowFollower,
}

/// Run one Acuerdo point (`run.system` must be [`System::Acuerdo`]) with an
/// ablated design choice in `scenario`. Also returns the counter snapshot.
pub fn ablation_point(
    ab: Ablation,
    run: &Run,
    scenario: Scenario,
) -> (AblationOutcome, MetricsSnapshot) {
    assert_eq!(run.system, System::Acuerdo, "ablations are Acuerdo's");
    let n = run.n;
    let mut cfg = ab.apply(AcuerdoConfig::stable(n));
    if scenario != Scenario::Stable {
        cfg.ring_bytes = 4 << 10;
    }
    let d = drive::<AcuerdoNode>(&cfg, run, |sim| {
        if scenario == Scenario::SlowFollower {
            sim.set_desched(
                n - 1,
                simnet::DeschedProfile {
                    mean_interval: Duration::from_millis(10),
                    min_pause: Duration::from_millis(4),
                    max_pause: Duration::from_millis(6),
                },
            );
        }
    });
    let packets = d.record.metrics.total(Counter::Packets) as f64;
    let outcome = AblationOutcome {
        point: d.record.point,
        packets_per_msg: packets / (d.completed as f64).max(1.0),
    };
    (outcome, d.record.metrics)
}

/// One `--metrics-out` record: run metadata, the client-visible point, the
/// per-node counter snapshot, the resource-utilization summary, and the
/// tail-latency forensics summary, as one hand-rolled JSON object
/// (DESIGN.md §6 keeps serde out of the tree). `tail` holds the record's
/// trailing members in order, each a name and its rendered JSON value: the
/// per-stage commit-latency anatomy of a traced run (`"stages"`), a
/// gauge-series summary, a what-if analysis.
pub fn run_record_json(
    label: &str,
    run: &Run,
    point: &Point,
    metrics: &MetricsSnapshot,
    tail: &[(&str, String)],
) -> String {
    let mut rec = format!(
        "{{\"label\":\"{}\",\"system\":\"{}\",\"nodes\":{},\"payload_bytes\":{},\
         \"seed\":{},\"warmup_ms\":{:.3},\"measure_ms\":{:.3},\"window\":{},\
         \"throughput_mbps\":{:.4},\"msgs_per_sec\":{:.1},\
         \"mean_us\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3},\"p999_us\":{:.3},\
         \"metrics\":{},\"util\":{},\
         \"forensics\":{}",
        simnet::json_escape(label),
        run.system.name(),
        run.n,
        run.workload.payload(),
        run.seed,
        run.spec.warmup.as_secs_f64() * 1e3,
        run.spec.measure.as_secs_f64() * 1e3,
        point.window,
        point.mbps,
        point.msgs_per_sec,
        point.mean_us,
        point.p50_us,
        point.p99_us,
        point.p999_us,
        metrics.to_json(),
        util::summary_json(&metrics.res, run.n),
        forensics::summary_json(&metrics.forensics),
    );
    for (name, value) in tail {
        rec.push_str(&format!(",\"{name}\":{value}"));
    }
    rec.push('}');
    rec
}

/// Whether an auditor — the online invariant auditor or the cross-fault
/// durability auditor — fired at least once during the run the snapshot
/// describes.
pub fn audit_fired(m: &MetricsSnapshot) -> bool {
    m.total(Counter::AuditEpochRegress) > 0
        || m.total(Counter::AuditCommitRegress) > 0
        || m.total(Counter::AuditCommitAheadAccept) > 0
        || m.total(Counter::AuditCommitLost) > 0
}

/// Per-node depth of a flight-recorder dump (events): a few poll ticks of
/// fabric and protocol activity around a failure.
pub const FLIGHT_RECORDER_DEPTH: usize = 256;

/// The flight recorder over a recorded timeline: the last
/// [`FLIGHT_RECORDER_DEPTH`] events of every node, in record order. A
/// failing run is replayed traced from its seed (tracing never moves a
/// run) and its timeline cut down to this tail for [`write_flightrec`].
pub fn flight_tail(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut kept: Vec<usize> = Vec::new();
    let mut tail: Vec<TraceEvent> = events
        .iter()
        .rev()
        .filter(|ev| {
            let node = ev.node();
            if node >= kept.len() {
                kept.resize(node + 1, 0);
            }
            kept[node] += 1;
            kept[node] <= FLIGHT_RECORDER_DEPTH
        })
        .copied()
        .collect();
    tail.reverse();
    tail
}

/// Dump a flight-recorder tail ([`flight_tail`]) as a loadable Chrome trace
/// document named `flightrec-<seed>.json` under `dir`. Returns the written
/// path.
pub fn write_flightrec(dir: &str, seed: u64, events: &[TraceEvent]) -> std::io::Result<String> {
    let name = format!("flightrec-{seed}.json");
    let path = if dir.is_empty() || dir == "." {
        name
    } else {
        format!("{}/{name}", dir.trim_end_matches('/'))
    };
    std::fs::write(&path, chrome::write(events, &[]))?;
    Ok(path)
}

/// Derive a per-record output path from a `--trace-out` base: Chrome trace
/// documents hold one run each (process ids are node ids), so
/// `traces.json` + label `acuerdo-n3` → `traces-acuerdo-n3.json`.
pub fn record_path(base: &str, label: &str) -> String {
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    match base.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{slug}.{ext}"),
        _ => format!("{base}-{slug}"),
    }
}

/// Assemble `records` into the metrics sidecar document and write it
/// ([`cli::write`]: exits 2 naming `path` when it cannot).
pub fn write_metrics_file(path: &str, bench: &str, seed: u64, records: &[String]) {
    let mut out = String::with_capacity(records.iter().map(String::len).sum::<usize>() + 128);
    out.push_str(&format!(
        "{{\"bench\":\"{}\",\"seed\":{seed},\"records\":[",
        simnet::json_escape(bench)
    ));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r);
    }
    out.push_str("]}\n");
    cli::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_recorder_keeps_last_n_per_node_in_record_order() {
        let ev = |node, n| TraceEvent::Proto {
            at: SimTime::from_nanos(n),
            node,
            ev: simnet::Event::new("e"),
        };
        // Node 0 records two events more than its tail holds; node 1 records
        // twice, once before and once inside node 0's run.
        let depth = FLIGHT_RECORDER_DEPTH as u64;
        let node_of = |n| if n == 1 || n == depth { 1 } else { 0 };
        let total = depth + 4;
        let timeline: Vec<TraceEvent> = (0..total).map(|n| ev(node_of(n), n)).collect();
        // Node 0 shed its two oldest entries (0 and 2); the rest keep
        // global record order across the nodes.
        let want: Vec<TraceEvent> = (0..total)
            .filter(|&n| n != 0 && n != 2)
            .map(|n| ev(node_of(n), n))
            .collect();
        assert_eq!(want.len(), FLIGHT_RECORDER_DEPTH + 2);
        assert_eq!(flight_tail(&timeline), want);
    }

    #[test]
    fn folding_the_flight_tail_in_slices_keeps_the_whole_timelines_tail() {
        let depth = FLIGHT_RECORDER_DEPTH as u64;
        // Four nodes at uneven rates; node 3 records only late.
        let node_of = |n: u64| match n % 7 {
            0 | 3 | 5 => 0,
            1 | 4 => 1,
            2 => 2,
            _ if n > 3 * depth => 3,
            _ => 2,
        };
        let timeline: Vec<TraceEvent> = (0..5 * depth)
            .map(|n| TraceEvent::Proto {
                at: SimTime::from_nanos(n),
                node: node_of(n),
                ev: simnet::Event::new("e"),
            })
            .collect();
        let whole = flight_tail(&timeline);
        for cut in [0, 1, depth - 1, depth, 2 * depth + 3, 4 * depth, 5 * depth] {
            let (a, b) = timeline.split_at(cut as usize);
            let folded = flight_tail(&[flight_tail(a), b.to_vec()].concat());
            assert_eq!(folded, whole, "cut at {cut}");
        }
        // Folding every few events, as a replay does every slice.
        let mut acc = Vec::new();
        for slice in timeline.chunks(37) {
            acc.extend_from_slice(slice);
            acc = flight_tail(&acc);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn every_system_produces_a_sane_point() {
        for s in System::all() {
            let spec = RunSpec::quick(s);
            let p = run(&Run::new(s, 3, 10, 4, 99, spec)).point;
            assert!(
                p.msgs_per_sec > 100.0,
                "{}: {} msgs/s",
                s.name(),
                p.msgs_per_sec
            );
            assert!(p.mean_us > 1.0, "{}: {}us", s.name(), p.mean_us);
        }
    }

    #[test]
    fn acuerdo_beats_everyone_on_latency() {
        let mut lat = Vec::new();
        for s in System::all() {
            let p = run(&Run::new(s, 3, 10, 1, 7, RunSpec::quick(s))).point;
            lat.push((s, p.mean_us));
        }
        let acuerdo = lat.iter().find(|(s, _)| *s == System::Acuerdo).unwrap().1;
        for (s, l) in &lat {
            if *s != System::Acuerdo {
                assert!(
                    acuerdo < *l,
                    "{} ({l:.1}us) beat acuerdo ({acuerdo:.1}us)",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn rdma_systems_beat_tcp_systems_by_10x() {
        let point = |s| run(&Run::new(s, 3, 10, 1, 7, RunSpec::quick(s))).point;
        let ac = point(System::Acuerdo);
        let zk = point(System::Zookeeper);
        assert!(
            zk.mean_us > ac.mean_us * 10.0,
            "zk {} vs acuerdo {}",
            zk.mean_us,
            ac.mean_us
        );
    }

    #[test]
    fn sweep_stops_at_saturation() {
        let pts = sweep(
            System::Acuerdo,
            3,
            10,
            13,
            5,
            RunSpec::quick(System::Acuerdo),
            &Observe::default(),
        );
        assert!(pts.len() >= 4, "sweep too short: {}", pts.len());
        let peak = pts.iter().map(|r| r.point.mbps).fold(0.0, f64::max);
        let last = &pts.last().unwrap().point;
        assert!(last.mbps > peak * 0.7, "sweep ended far below saturation");
    }

    #[test]
    fn election_experiment_small_cluster_is_sub_ms() {
        let st = election_experiment(3, 3, 11, &Observe::default()).stats;
        assert!(st.count >= 3, "only {} elections measured", st.count);
        assert!(st.mean_ms < 1.5, "3-node elections took {} ms", st.mean_ms);
    }

    #[test]
    fn ycsb_orders_match_figure9() {
        let spec = RunSpec::quick(System::Acuerdo);
        let tcp_spec = RunSpec::quick(System::Zookeeper);
        let ops = |s, spec| run(&Run::ycsb(s, 3, 3, spec).unwrap()).point.msgs_per_sec;
        let ac = ops(System::Acuerdo, spec);
        let zk = ops(System::Zookeeper, tcp_spec);
        let et = ops(System::Etcd, tcp_spec);
        println!("ycsb 3n: acuerdo {ac:.0} zk {zk:.0} etcd {et:.0}");
        assert!(ac > zk * 4.0, "acuerdo {ac} vs zk {zk}");
        assert!(zk > et * 2.0, "zk {zk} vs etcd {et}");
    }

    #[test]
    fn ycsb_outside_figure9_is_an_error() {
        let spec = RunSpec::quick(System::Apus);
        let err = Run::ycsb(System::Apus, 3, 3, spec).unwrap_err();
        assert!(err.contains("apus"), "{err}");
    }

    #[test]
    fn empty_election_stats_are_valid_json() {
        let st = ElectionStats::from_durations(3, Vec::new());
        assert_eq!((st.count, st.min_ms, st.max_ms), (0, 0.0, 0.0));
        let v = json::parse(&st.to_json()).expect("valid JSON");
        assert_eq!(v.get("min_ms").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn ablations_hurt_where_the_paper_says() {
        let spec = RunSpec::quick(System::Acuerdo);
        // Window 256: deep enough to saturate, shallow enough that the
        // client's initial burst fits the quick measurement window.
        let base = ablation_point(
            Ablation::Baseline,
            &Run::new(System::Acuerdo, 3, 10, 256, 5, spec),
            Scenario::Stable,
        )
        .0;
        let split = ablation_point(
            Ablation::SplitRing,
            &Run::new(System::Acuerdo, 3, 10, 256, 5, spec),
            Scenario::Stable,
        )
        .0;
        // Two writes per message: throughput drops and the wire carries ~2x
        // the packets per message.
        assert!(
            split.point.msgs_per_sec < base.point.msgs_per_sec * 0.8,
            "split ring should cut throughput: {} vs {}",
            split.point.msgs_per_sec,
            base.point.msgs_per_sec
        );
        // Data writes double (3 destinations x 1 -> 2 writes); total wire
        // packets (data + SST pushes + client traffic) grow ~1.4x.
        assert!(
            split.packets_per_msg > base.packets_per_msg * 1.3,
            "split ring should add ~3 wire packets/msg: {} vs {}",
            split.packets_per_msg,
            base.packets_per_msg
        );
        // Per-message acks never push fewer SST updates than batched acks
        // (at this load the busy-poll loop already drains batches of ~1, so
        // the difference only opens up during catch-up).
        let per_msg = ablation_point(
            Ablation::PerMessageAcks,
            &Run::new(System::Acuerdo, 3, 10, 256, 5, spec),
            Scenario::Stable,
        )
        .0;
        assert!(
            per_msg.packets_per_msg >= base.packets_per_msg * 0.99,
            "per-message acks cannot save packets: {} vs {}",
            per_msg.packets_per_msg,
            base.packets_per_msg
        );
        // The Derecho slot-reuse rule binds once a follower is slow and the
        // ring is small: throughput collapses toward the slow node's pace.
        let slow_spec = RunSpec {
            warmup: Duration::from_millis(2),
            measure: Duration::from_millis(25),
        };
        let slow_run = Run::new(System::Acuerdo, 3, 10, 512, 5, slow_spec);
        let ops = |ab, scenario| ablation_point(ab, &slow_run, scenario).0.point.msgs_per_sec;
        let reuse_base = ops(Ablation::Baseline, Scenario::SlowFollower);
        let reuse_all = ops(Ablation::SlotReuseOnCommit, Scenario::SlowFollower);
        assert!(
            reuse_all < reuse_base * 0.75,
            "commit-at-all slot reuse should stall behind the slow node: {reuse_all} vs {reuse_base}"
        );
        // Against the same small-ring run without the pauses: the paper's
        // configuration keeps its pace behind a slow follower (the pauses
        // even raise it: the CPU-bound leader stops posting into the paused
        // follower's full ring, EXPERIMENTS "Ablations"), Derecho's rule
        // loses a fifth at this seed (1.13 and 0.80; 1.25 and 0.59 at
        // seed 42).
        let base_ratio = reuse_base / ops(Ablation::Baseline, Scenario::SmallRings);
        let all_ratio = reuse_all / ops(Ablation::SlotReuseOnCommit, Scenario::SmallRings);
        assert!(base_ratio >= 0.95, "baseline slow/control {base_ratio}");
        assert!(
            all_ratio < 0.85,
            "slot-reuse-on-commit slow/control {all_ratio}"
        );
    }
}
