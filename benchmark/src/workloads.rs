//! The five workloads and the code that runs one repetition of one of them.
//!
//! A repetition is a complete simulation: build the fabric and the cluster,
//! warm up, measure, drain, check. It is a pure function of `(spec, seed)` —
//! every repetition of an invocation must reproduce the first bit for bit,
//! which is what lets host time be reported as best-of-R.

use crate::host::{Spans, Stopwatch};
use crate::loadgen::{LoadGen, Measured, Pacing, PayloadFn, Sample};
use abcast::{App, DurabilityAuditor, MsgHdr};
use acuerdo::{AcWire, AcuerdoConfig, AcuerdoNode, DisseminationMode};
use bytes::Bytes;
use kvstore::{ReplicatedMap, YcsbLoad};
use simnet::{
    Counter, DurabilityMode, GaugeSample, MetricsSnapshot, NetParams, NodeId, Sim, SimTime,
    TraceEvent,
};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Length of one `failover_5n` round: the leader is power-failed
/// [`FAULT_OFFSET`] into it and restarted [`RESTART_AFTER`] later, leaving
/// the rest of the round for the rejoin and for steady traffic.
pub const ROUND: Duration = Duration::from_millis(25);
const FAULT_OFFSET: Duration = Duration::from_millis(5);
const RESTART_AFTER: Duration = Duration::from_millis(5);
/// How finely the harness watches a restarted replica catch up.
const REJOIN_POLL: Duration = Duration::from_micros(100);
/// Gauge sampling cadence of the traced window.
const SAMPLE_EVERY: Duration = Duration::from_micros(100);

/// What a request carries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Filler of this many bytes.
    Fixed(usize),
    /// `kvstore::YcsbLoad`: zipfian (θ = .99) keys, 100 % updates, applied by
    /// a `kvstore::ReplicatedMap` on every replica.
    Ycsb,
}

/// One workload.
#[derive(Copy, Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload is in the set (one line, repeated in BENCHMARK.json).
    pub why: &'static str,
    pub n: usize,
    pub dissemination: DisseminationMode,
    pub payload: Payload,
    pub load: Pacing,
    pub warmup: Duration,
    /// Measure window; for a fault workload, `fault_rounds` × [`ROUND`].
    pub measure: Duration,
    pub drain: Duration,
    /// Repetitions per invocation at the reference `--seconds`.
    pub reps: usize,
    /// The paper's median commit latency for this configuration, where it
    /// gives one: the only reference figure the repo holds.
    pub paper_p50_us: Option<f64>,
    /// The regime the workload was chosen for, as a per-layer metric and the
    /// least it should read; the traced run says when it no longer does.
    pub regime: Option<(&'static str, f64)>,
    /// Rounds in which the current leader is power-failed and restarted;
    /// 0 for a fault-free workload. Non-zero also selects the durable (pmem
    /// WAL) configuration with retained logs and restart factories.
    pub fault_rounds: usize,
}

/// The workload set, in reporting order.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "lat_3n",
        why: "one 10 B request at a time on 3 nodes: nothing contends, so only the critical path shows; the bypass for batching",
        n: 3,
        dissemination: DisseminationMode::Star,
        payload: Payload::Fixed(10),
        load: Pacing::Closed { window: 1 },
        warmup: Duration::from_millis(100),
        measure: Duration::from_millis(1000),
        drain: Duration::from_millis(5),
        reps: 7,
        paper_p50_us: Some(10.0),
        regime: None,
        fault_rounds: 0,
    },
    Spec {
        name: "ycsb_3n",
        why: "YCSB-load updates, window 256, replicated map on 3 nodes: leader CPU saturated, throughput = 1 / leader CPU per message",
        n: 3,
        dissemination: DisseminationMode::Star,
        payload: Payload::Ycsb,
        load: Pacing::Closed { window: 256 },
        warmup: Duration::from_millis(30),
        measure: Duration::from_millis(300),
        drain: Duration::from_millis(5),
        reps: 6,
        paper_p50_us: None,
        regime: Some(("simnet.cpu.leader_util_pct", 85.0)),
        fault_rounds: 0,
    },
    Spec {
        name: "star_16n",
        why: "8 KiB messages, star fan-out to 16 nodes: leader NIC egress-bound, only bytes per commit can move it; control for ring_16n",
        n: 16,
        dissemination: DisseminationMode::Star,
        payload: Payload::Fixed(8 << 10),
        load: Pacing::Closed { window: 8 },
        warmup: Duration::from_millis(10),
        measure: Duration::from_millis(100),
        drain: Duration::from_millis(5),
        reps: 9,
        paper_p50_us: None,
        regime: Some(("simnet.net.leader_egress_util_pct", 95.0)),
        fault_rounds: 0,
    },
    Spec {
        name: "ring_16n",
        why: "8 KiB messages, ring dissemination on 16 nodes: leader CPU-bound under SST ack traffic, the forwarding path, host cost that grows with run length",
        n: 16,
        dissemination: DisseminationMode::Ring,
        payload: Payload::Fixed(8 << 10),
        load: Pacing::Closed { window: 4 },
        warmup: Duration::from_millis(10),
        measure: Duration::from_millis(80),
        drain: Duration::from_millis(5),
        reps: 8,
        paper_p50_us: None,
        regime: Some(("simnet.cpu.leader_util_pct", 85.0)),
        fault_rounds: 0,
    },
    Spec {
        name: "failover_5n",
        why: "open loop at 40 k/s on 5 durable nodes while the leader is power-failed every 25 ms: WAL, election, rejoin, client re-aim; p99 is the outage a retrying client sees",
        n: 5,
        dissemination: DisseminationMode::Star,
        payload: Payload::Fixed(10),
        load: Pacing::Open {
            interval: Duration::from_micros(25),
            rto: Duration::from_micros(500),
        },
        warmup: Duration::from_millis(50),
        measure: Duration::from_millis(400),
        drain: Duration::from_millis(20),
        reps: 9,
        paper_p50_us: None,
        regime: None,
        fault_rounds: 16,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// A tenth of the virtual time (two fault rounds), for `--smoke`.
    pub fn smoke(mut self) -> Spec {
        self.warmup /= 10;
        if self.fault_rounds > 0 {
            self.fault_rounds = 2;
            self.measure = ROUND * 2;
        } else {
            self.measure /= 10;
        }
        self
    }

    fn config(&self) -> AcuerdoConfig {
        let mut cfg = AcuerdoConfig {
            dissemination: self.dissemination,
            ..AcuerdoConfig::stable(self.n)
        };
        if self.fault_rounds > 0 {
            cfg.retain_log = true;
            cfg.durability = DurabilityMode::Durable;
        }
        cfg
    }

    /// One-line description of cluster, payload and load, for the report.
    pub fn describe(&self) -> String {
        let payload = match self.payload {
            Payload::Fixed(b) => format!("{b} B"),
            Payload::Ycsb => "YCSB-load ops (~130 B)".to_string(),
        };
        let load = match self.load {
            Pacing::Closed { window } => format!("closed loop, window {window}"),
            Pacing::Open { interval, rto } => format!(
                "open loop, one request per {} us, retransmit after {} us",
                interval.as_micros(),
                rto.as_micros()
            ),
        };
        let faults = if self.fault_rounds > 0 {
            format!(
                ", durable (pmem WAL), leader power-failed in each of {} rounds",
                self.fault_rounds
            )
        } else {
            ", volatile".to_string()
        };
        format!(
            "{} x{} nodes{faults}; {payload}; {load}; warm-up {} ms, measure {} ms, drain {} ms (virtual)",
            self.dissemination.name(),
            self.n,
            self.warmup.as_millis(),
            self.measure.as_millis(),
            self.drain.as_millis()
        )
    }
}

/// What the replicas of a fault-free workload deliver to: a digest of every
/// delivery, for the total-order check, and the replicated map under YCSB.
/// `abcast::DeliveryLog` would keep every payload — sixteen copies of every
/// 8 KiB message, more than the rings themselves. (`failover_5n` keeps
/// `DeliveryLog`: a restart rebuilds the replica with it.)
#[derive(Default)]
struct Checked {
    map: ReplicatedMap,
    applies: bool,
    log: Vec<(MsgHdr, u64)>,
}

/// Length plus the first and last 32 bytes: the whole of a small payload,
/// and of a large one the request id and both frame edges.
fn digest(payload: &[u8]) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    let edge = payload.len().min(32);
    (
        payload.len(),
        &payload[..edge],
        &payload[payload.len() - edge..],
    )
        .hash(&mut h);
    h.finish()
}

/// A digest in the form `abcast::check_histories` compares payloads in.
fn digest_bytes(digest: u64) -> Bytes {
    Bytes::copy_from_slice(&digest.to_le_bytes())
}

impl App for Checked {
    fn deliver(&mut self, hdr: MsgHdr, payload: &Bytes) {
        if self.applies {
            self.map.deliver(hdr, payload);
        }
        self.log.push((hdr, digest(payload)));
    }
}

fn payload_fn(spec: &Spec, seed: u64) -> PayloadFn {
    match spec.payload {
        Payload::Fixed(size) => {
            // Request bodies are a function of the seed and the request id.
            let salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Box::new(move |id| abcast::workload::payload(salt ^ id, size))
        }
        Payload::Ycsb => YcsbLoad::new(seed).into_payload_fn(),
    }
}

/// What the traced repetition recorded during the second measure quarter.
pub struct Traced {
    pub events: Vec<TraceEvent>,
    pub gauges: Vec<GaugeSample>,
}

/// Everything one repetition produced.
pub struct Rep {
    // ---- virtual time: identical across repetitions ----
    /// Due-to-reply latency of every request due in the measure window and
    /// answered by the end of the drain, ascending, in nanoseconds.
    pub latencies: Vec<u64>,
    /// Requests issued (closed loop) or due (open loop) in the window.
    pub attempted: u64,
    /// Those still unanswered at the end of the drain.
    pub failed: u64,
    /// Commit replies that arrived inside the window.
    pub commits: u64,
    /// Commit replies that arrived inside the second quarter of the window.
    pub q2_commits: u64,
    pub window: Duration,
    pub late_max: Duration,
    /// Engine events dispatched in each quarter of the window.
    pub quarter_events: [u64; 4],
    /// Cluster counters at the opening and closing of the window.
    pub at_open: MetricsSnapshot,
    pub at_close: MetricsSnapshot,
    /// Cluster counters after the drain.
    pub at_end: MetricsSnapshot,
    pub faults: u64,
    /// Rounds in which no unique leader existed at the fault instant.
    pub faults_skipped: u64,
    /// Per fault: fault instant to the first commit reply afterwards.
    pub outages: Vec<Duration>,
    /// Per election won: suspicion to new epoch ready (`election_spans`).
    pub elections: Vec<Duration>,
    /// Per restart: restart instant to the replica having caught up.
    pub rejoins: Vec<Duration>,
    /// Smallest `applied` over the replica tables (`ycsb_3n`; else 0).
    pub applied_min: u64,
    /// Everything that failed a correctness check, in words.
    pub violations: Vec<String>,
    /// Hash of every virtual result above plus `Sim::stats()`.
    pub digest: u64,

    // ---- host time: differs between repetitions ----
    /// Start of the repetition to the opening of the window.
    pub setup_cpu_ns: u64,
    /// Time inside `Sim::run_until` between opening and closing.
    pub measure_cpu_ns: u64,
    pub measure_wall_ns: u64,
    pub quarter_cpu_ns: [u64; 4],

    pub traced: Option<Traced>,
}

/// Accumulates the host time of the `run_until` slices of the window.
struct Meter {
    quarter: usize,
    cpu_ns: [u64; 4],
    wall_ns: u64,
    events: [u64; 4],
}

impl Meter {
    fn run_until(&mut self, sim: &mut Sim<AcWire>, t: SimTime) {
        let e0 = sim.stats().events;
        let sw = Stopwatch::start();
        sim.run_until(t);
        let (cpu, wall) = sw.elapsed();
        self.cpu_ns[self.quarter] += cpu;
        self.wall_ns += wall;
        self.events[self.quarter] += sim.stats().events - e0;
    }
}

enum Step {
    /// Power-fail the current leader.
    Fault,
    /// The victim's restart instant: start watching it catch up.
    Restarted,
    /// End of measure quarter `q`.
    QuarterEnd(usize),
}

fn checked(sim: &Sim<AcWire>, id: NodeId) -> &Checked {
    abcast::app::app_as::<Checked>(sim.node::<AcuerdoNode>(id).app.as_ref())
        .expect("fault-free replicas run a Checked app")
}

/// Delivery histories for the atomic-broadcast checker; of a fault-free
/// workload, with each payload stood in for by its digest.
fn histories(sim: &Sim<AcWire>, ids: &[NodeId], spec: &Spec) -> Vec<Vec<(MsgHdr, Bytes)>> {
    if spec.fault_rounds > 0 {
        return acuerdo::histories(sim, ids);
    }
    ids.iter()
        .map(|&id| {
            let log = &checked(sim, id).log;
            log.iter().map(|(h, d)| (*h, digest_bytes(*d))).collect()
        })
        .collect()
}

/// Run one repetition. `traced` turns event recording and gauge sampling on
/// for the second quarter of the window; both are zero-perturbation, so the
/// virtual results must still match the untraced repetitions.
pub fn run_rep(spec: &Spec, seed: u64, traced: bool, spans: &mut Spans) -> Rep {
    let setup = Stopwatch::start();
    let open = SimTime::ZERO + spec.warmup;
    let close = open + spec.measure;
    let end = close + spec.drain;

    spans.enter("build");
    let cfg = spec.config();
    let mut sim: Sim<AcWire> = Sim::new(seed, NetParams::rdma());
    let ids = acuerdo::build_cluster(&mut sim, &cfg);
    if spec.fault_rounds > 0 {
        acuerdo::enable_restarts(&mut sim, &cfg, &ids);
    } else {
        for &id in &ids {
            sim.node_mut::<AcuerdoNode>(id).app = Box::new(Checked {
                applies: spec.payload == Payload::Ycsb,
                ..Checked::default()
            });
        }
    }
    let client = sim.add_node(Box::new(LoadGen::<AcWire>::new(
        spec.load,
        0,
        ids.clone(),
        close,
        payload_fn(spec, seed),
    )));
    spans.exit();

    spans.enter("warmup");
    sim.run_until(open);
    spans.exit();
    let (setup_cpu_ns, _) = setup.elapsed();

    // ---- measure window ----
    let at_open = sim.metrics();
    let mut steps: Vec<(SimTime, Step)> = Vec::new();
    for r in 0..spec.fault_rounds as u32 {
        let fault_at = open + ROUND * r + FAULT_OFFSET;
        steps.push((fault_at, Step::Fault));
        steps.push((fault_at + RESTART_AFTER, Step::Restarted));
    }
    for q in 0..4u32 {
        steps.push((
            open + spec.measure * (q + 1) / 4,
            Step::QuarterEnd(q as usize),
        ));
    }
    steps.sort_by_key(|&(t, _)| t);

    let mut meter = Meter {
        quarter: 0,
        cpu_ns: [0; 4],
        wall_ns: 0,
        events: [0; 4],
    };
    let mut violations: Vec<String> = Vec::new();
    let mut auditor = DurabilityAuditor::new();
    let mut fault_times: Vec<SimTime> = Vec::new();
    let mut faults_skipped = 0u64;
    let mut elections: Vec<Duration> = Vec::new();
    let mut rejoins: Vec<Duration> = Vec::new();
    let mut victim: Option<NodeId> = None;
    // (replica, commit frontier it must reach, restart instant)
    let mut rejoining: Option<(NodeId, MsgHdr, SimTime)> = None;

    spans.enter("measure.q1");
    for (t, step) in steps {
        while let Some((node, frontier, since)) = rejoining {
            let next = sim.now() + REJOIN_POLL;
            if next >= t {
                break;
            }
            meter.run_until(&mut sim, next);
            let n = sim.node::<AcuerdoNode>(node);
            if !sim.is_crashed(node) && !n.is_resyncing() && n.committed() >= frontier {
                rejoins.push(sim.now().saturating_since(since));
                rejoining = None;
            }
        }
        meter.run_until(&mut sim, t);
        match step {
            Step::Fault => {
                if let Err(v) = auditor.observe(&acuerdo::histories(&sim, &ids)) {
                    violations.push(format!("durability before fault at {t}: {v:?}"));
                }
                rejoining = None;
                victim = acuerdo::current_leader(&sim, &ids);
                match victim {
                    Some(leader) => {
                        // A restart replaces the process, and with it the
                        // record of the elections it won.
                        harvest_elections(&sim, leader, &mut elections);
                        sim.power_failure(&[leader]);
                        sim.restart_at(leader, t + RESTART_AFTER);
                        fault_times.push(t);
                    }
                    None => faults_skipped += 1,
                }
            }
            Step::Restarted => {
                if let Some(node) = victim.take() {
                    let frontier = ids
                        .iter()
                        .filter(|&&id| id != node && !sim.is_crashed(id))
                        .map(|&id| sim.node::<AcuerdoNode>(id).committed())
                        .max()
                        .unwrap_or(MsgHdr::ZERO);
                    rejoining = Some((node, frontier, t));
                }
            }
            Step::QuarterEnd(q) => {
                spans.exit();
                if traced && q == 0 {
                    sim.set_tracing(true);
                    sim.set_gauge_sampling(SAMPLE_EVERY);
                }
                if traced && q == 1 {
                    sim.set_tracing(false);
                }
                if q < 3 {
                    meter.quarter = q + 1;
                    spans.enter(["measure.q2", "measure.q3", "measure.q4"][q]);
                }
            }
        }
    }
    let at_close = sim.metrics();

    spans.enter("drain");
    sim.run_until(end);
    spans.exit();

    // ---- checks ----
    spans.enter("check");
    let hs = histories(&sim, &ids, spec);
    // Integrity: everything delivered was sent by the client. The broadcast
    // set is regenerated from the seed, in the form the histories hold.
    let issued = sim.node::<LoadGen<AcWire>>(client).samples().len() as u64;
    let mut bodies = payload_fn(spec, seed);
    let broadcast: HashSet<Bytes> = (0..issued)
        .map(|id| match spec.fault_rounds {
            0 => digest_bytes(digest(&bodies(id))),
            _ => bodies(id),
        })
        .collect();
    if let Err(v) = abcast::check_histories(&hs, Some(&broadcast)) {
        violations.push(format!("atomic broadcast: {v:?}"));
    }
    if spec.fault_rounds > 0 {
        if let Err(v) = auditor.observe(&hs) {
            violations.push(format!("durability at the horizon: {v:?}"));
        }
        for &id in &ids {
            harvest_elections(&sim, id, &mut elections);
        }
    }
    let mut applied_min = 0;
    if spec.payload == Payload::Ycsb {
        let first = &checked(&sim, ids[0]).map;
        applied_min = first.applied;
        for &id in &ids {
            let m = &checked(&sim, id).map;
            applied_min = applied_min.min(m.applied);
            if m.map != first.map || m.applied != first.applied || m.malformed != 0 {
                violations.push(format!("replica {id}'s table differs from replica 0's"));
            }
        }
        if applied_min == 0 {
            violations.push("replicated table is empty".to_string());
        }
    }
    spans.exit();

    // ---- virtual results ----
    let lg = sim.node::<LoadGen<AcWire>>(client);
    let late_max = lg.late_max();
    let all: Vec<Sample> = lg.samples().to_vec();
    let Measured {
        latencies,
        attempted,
        commits,
    } = Measured::of(&all, open, close);
    let failed = attempted - latencies.len() as u64;
    if failed > 0 && spec.fault_rounds == 0 {
        violations.push(format!(
            "{failed} of {attempted} requests were never answered"
        ));
    }
    let (q2_from, q2_to) = (open + spec.measure / 4, open + spec.measure / 2);
    let q2_commits = Measured::of(&all, q2_from, q2_to).commits;
    let mut done_times: Vec<SimTime> = all.iter().filter_map(|s| s.done).collect();
    done_times.sort_unstable();
    let outages: Vec<Duration> = fault_times
        .iter()
        .filter_map(|&f| {
            let i = done_times.partition_point(|&d| d <= f);
            done_times.get(i).map(|d| d.saturating_since(f))
        })
        .collect();

    let at_end = sim.metrics();
    let mut h = std::hash::DefaultHasher::new();
    for s in &all {
        (s.due.as_nanos(), s.done.map(SimTime::as_nanos)).hash(&mut h);
    }
    let st = sim.stats();
    [
        st.events,
        st.dma_msgs,
        st.cpu_msgs,
        st.wire_bytes,
        st.packets,
        st.restart_drops,
        st.partition_drops,
    ]
    .hash(&mut h);
    for c in Counter::ALL {
        at_end.total(c).hash(&mut h);
    }
    (meter.events, applied_min, fault_times.len()).hash(&mut h);
    for d in elections.iter().chain(&rejoins) {
        d.hash(&mut h);
    }

    let traced = traced.then(|| Traced {
        events: sim.take_trace(),
        gauges: sim.take_gauge_samples(),
    });
    Rep {
        latencies,
        attempted,
        failed,
        commits,
        q2_commits,
        window: spec.measure,
        late_max,
        quarter_events: meter.events,
        at_open,
        at_close,
        at_end,
        faults: fault_times.len() as u64,
        faults_skipped,
        outages,
        elections,
        rejoins,
        applied_min,
        violations,
        digest: h.finish(),
        setup_cpu_ns,
        measure_cpu_ns: meter.cpu_ns.iter().sum(),
        measure_wall_ns: meter.wall_ns,
        quarter_cpu_ns: meter.cpu_ns,
        traced,
    }
}

fn harvest_elections(sim: &Sim<AcWire>, node: NodeId, out: &mut Vec<Duration>) {
    if sim.is_crashed(node) {
        return;
    }
    out.extend(
        sim.node::<AcuerdoNode>(node)
            .election_spans
            .iter()
            .map(|(suspected, ready)| ready.saturating_since(*suspected)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn smoke_rep(name: &str) -> Rep {
        let spec = Spec::by_name(name).unwrap().smoke();
        run_rep(&spec, 42, false, &mut Spans::new(false))
    }

    #[test]
    fn spec_names_are_unique_and_sized_for_p99() {
        for (i, a) in SPECS.iter().enumerate() {
            assert!(SPECS[i + 1..].iter().all(|b| b.name != a.name));
            assert!(a.why.len() <= 200 && !a.why.contains('\n'));
        }
        let f = Spec::by_name("failover_5n").unwrap();
        assert_eq!(f.measure, ROUND * f.fault_rounds as u32);
        assert!(Spec::by_name("ring_64n").is_none());
    }

    #[test]
    fn star_16n_p50_and_p99_are_distinct_numbers() {
        // The committed histogram baselines read p50 == p99 == 345.6 us
        // here; exact order statistics must separate them.
        let rep = smoke_rep("star_16n");
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert_eq!(rep.failed, 0);
        let p50 = stats::quantile(&rep.latencies, 0.50);
        let p99 = stats::quantile(&rep.latencies, 0.99);
        assert_ne!(p50, p99, "commit_p50_us == commit_p99_us ({p50} ns)");
        assert!(p50 > 200_000 && p50 < 500_000, "p50 {p50} ns");
    }

    #[test]
    fn repetitions_are_bit_identical_and_tracing_does_not_perturb() {
        let spec = Spec::by_name("lat_3n").unwrap().smoke();
        let a = run_rep(&spec, 7, false, &mut Spans::new(false));
        let b = run_rep(&spec, 7, false, &mut Spans::new(false));
        let t = run_rep(&spec, 7, true, &mut Spans::new(true));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, t.digest);
        assert_eq!(a.latencies, t.latencies);
        assert!(!t.traced.as_ref().unwrap().events.is_empty());
        let other = run_rep(&spec, 8, false, &mut Spans::new(false));
        assert_ne!(a.digest, other.digest, "the seed must reach the inputs");
    }

    #[test]
    fn ycsb_tables_agree_and_ring_forwards() {
        let y = smoke_rep("ycsb_3n");
        assert!(y.violations.is_empty(), "{:?}", y.violations);
        assert!(y.applied_min > 1000, "applied {}", y.applied_min);
        let r = smoke_rep("ring_16n");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.at_end.total(Counter::RingForwards) > 0);
        assert_eq!(y.at_end.total(Counter::RingForwards), 0);
    }

    #[test]
    fn failover_survives_every_round_and_charges_the_outage() {
        let rep = smoke_rep("failover_5n");
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert_eq!((rep.faults, rep.faults_skipped), (2, 0));
        assert_eq!(
            rep.failed, 0,
            "{} of {} unanswered",
            rep.failed, rep.attempted
        );
        assert_eq!(rep.outages.len(), 2);
        assert_eq!(rep.rejoins.len(), 2);
        assert!(rep.elections.len() >= 2);
        // Requests due during an outage wait for it: the worst latency is at
        // least the shortest outage.
        let worst = *rep.latencies.last().unwrap();
        let shortest = rep.outages.iter().min().unwrap().as_nanos() as u64;
        assert!(worst >= shortest, "worst {worst} ns, outage {shortest} ns");
        assert!(rep.at_end.total(Counter::WalFsyncs) > 0);
        assert!(rep.at_end.total(Counter::WalRecoveredRecords) > 0);
    }
}
