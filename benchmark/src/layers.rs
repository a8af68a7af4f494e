//! Per-layer metrics of the traced invocation.
//!
//! Three kinds of source, named after the letters the README uses:
//! (c) exact counts from `Sim::metrics()` / `Sim::stats()` differenced over
//! the measure window and divided by the commits in it; (s) lifecycle spans
//! of the traced window, assembled by `abcast::spans::collect`; and host
//! times of the untraced repetitions. The layer kernels (k) live in
//! [`crate::kernels`].

use crate::host::{Spans, Stopwatch};
use crate::loadgen::{LoadGen, Measured, Pacing};
use crate::metrics::Values;
use crate::stats::{self, Tail};
use crate::workloads::{Rep, Spec};
use abcast::{BlameCause, ClientPort, StageClass};
use kvstore::{ReplicatedMap, YcsbLoad};
use simnet::{
    Counter, Gauge, MetricsSnapshot, MsgKind, NetParams, NodeId, Sim, SimTime, SpanStage,
    TraceEvent, WaitReason, CPU_SLOT_OTHER,
};
use std::time::Duration;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn pct(num: f64, den: f64) -> f64 {
    100.0 * ratio(num, den)
}

fn p50_us(samples: &mut [u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    stats::quantile(samples, 0.5) as f64 / 1e3
}

fn p50_ms(durations: &[Duration]) -> f64 {
    let mut ns: Vec<u64> = durations.iter().map(|d| d.as_nanos() as u64).collect();
    p50_us(&mut ns) / 1e3
}

/// A cluster counter's growth over the measure window.
fn grew(rep: &Rep, c: Counter) -> f64 {
    (rep.at_close.total(c) - rep.at_open.total(c)) as f64
}

fn tx_frames(m: &MetricsSnapshot, kind: MsgKind) -> u64 {
    m.res.nodes.iter().map(|n| n.tx.frames[kind as usize]).sum()
}

/// Exact counts (c), from the first untraced repetition (all repetitions
/// agree — the determinism gate checked that).
pub fn counts(spec: &Spec, rep: &Rep, out: &mut Values) {
    let commits = rep.commits as f64;
    let per_commit = |c: Counter| ratio(grew(rep, c), commits);
    let window_ns = rep.window.as_nanos() as f64;
    let (open, close, end) = (&rep.at_open, &rep.at_close, &rep.at_end);

    // simnet
    let events: u64 = rep.quarter_events.iter().sum();
    out.put("simnet.events_per_commit", ratio(events as f64, commits));
    out.put(
        "simnet.net.wire_bytes_per_commit",
        per_commit(Counter::WireBytes),
    );
    out.put(
        "simnet.net.packets_per_commit",
        per_commit(Counter::Packets),
    );
    // "Leader" is the busiest replica: node 0 on the stable workloads, and
    // whichever replica led longest where leadership rotates.
    let replicas = 0..spec.n;
    let egress_busy = replicas
        .clone()
        .map(|i| close.res.nodes[i].tx.busy_ns - open.res.nodes[i].tx.busy_ns)
        .max()
        .unwrap_or(0);
    out.put(
        "simnet.net.leader_egress_util_pct",
        pct(egress_busy as f64, window_ns),
    );
    let work = |i: NodeId| close.res.nodes[i].cpu_work_ns() - open.res.nodes[i].cpu_work_ns();
    let busiest = replicas.max_by_key(|&i| work(i)).unwrap_or(0);
    out.put(
        "simnet.cpu.leader_util_pct",
        pct(work(busiest) as f64, window_ns),
    );
    let other = close.res.nodes[busiest].cpu_ns[CPU_SLOT_OTHER]
        - open.res.nodes[busiest].cpu_ns[CPU_SLOT_OTHER];
    out.put(
        "simnet.cpu.leader_other_pct",
        pct(other as f64, work(busiest) as f64),
    );
    let waited = |r: WaitReason| -> u64 {
        let sum = |m: &MetricsSnapshot| -> u64 {
            m.forensics.waits.iter().map(|w| w.ns[r as usize]).sum()
        };
        sum(close) - sum(open)
    };
    let all_waits: u64 = WaitReason::ALL.iter().map(|&r| waited(r)).sum();
    for r in WaitReason::ALL {
        out.put(
            &format!("simnet.wait.{}_pct", r.name()),
            pct(waited(r) as f64, all_waits as f64),
        );
    }
    out.put(
        "simnet.disk.fsyncs_per_commit",
        per_commit(Counter::WalFsyncs),
    );
    out.put(
        "simnet.disk.append_bytes_per_commit",
        per_commit(Counter::WalAppendBytes),
    );
    out.put(
        "simnet.disk.device_ns_per_commit",
        per_commit(Counter::WalDeviceNs),
    );
    out.put(
        "simnet.disk.recovered_records",
        end.total(Counter::WalRecoveredRecords) as f64,
    );
    out.put(
        "simnet.disk.truncated_records",
        end.total(Counter::WalTruncatedRecords) as f64,
    );

    // rdma-sim
    out.put(
        "rdma_sim.verb_posts_per_commit",
        per_commit(Counter::VerbPosts),
    );
    out.put(
        "rdma_sim.dma_writes_per_commit",
        per_commit(Counter::DmaWritesApplied),
    );
    out.put(
        "rdma_sim.completions_per_commit",
        per_commit(Counter::CompletionsPolled),
    );
    out.put("rdma_sim.rkey_drops", end.total(Counter::RkeyDrops) as f64);

    // rdma-prims
    out.put(
        "rdma_prims.sst_pushes_per_commit",
        per_commit(Counter::SstPushes),
    );
    let frames = |k: MsgKind| (tx_frames(close, k) - tx_frames(open, k)) as f64;
    out.put(
        "rdma_prims.ack_frames_per_payload_frame",
        ratio(frames(MsgKind::Ack), frames(MsgKind::Payload)),
    );
    out.put(
        "rdma_prims.ring_frames_per_commit",
        per_commit(Counter::RingFrames),
    );
    // Receiver-side batch: frames a follower accepted per acknowledgement it
    // sent the leader. Follower-to-leader ack frames are the accept-cell
    // pushes plus a commit-cell push per 50 us and a hardware ack per 1000
    // writes; no counter separates the three.
    let leader = busiest;
    let accepts: u64 = (0..spec.n)
        .filter(|&i| i != leader)
        .map(|i| close.nodes[i].get(Counter::Accepts) - open.nodes[i].get(Counter::Accepts))
        .sum();
    let acks_to_leader = |m: &MetricsSnapshot| -> u64 {
        m.res
            .links
            .iter()
            .filter(|l| l.dst == leader && l.src < spec.n)
            .map(|l| l.stats.frames[MsgKind::Ack as usize])
            .sum()
    };
    out.put(
        "rdma_prims.frames_per_poll_batch",
        ratio(
            accepts as f64,
            (acks_to_leader(close) - acks_to_leader(open)) as f64,
        ),
    );
    out.put(
        "rdma_prims.ring_stalls",
        end.total(Counter::RingStalls) as f64,
    );
    out.put(
        "rdma_prims.ring_wraps",
        end.total(Counter::RingWraps) as f64,
    );

    // abcast: blame of the slowest 64 commits of the whole run.
    let mut blamed = [0u64; BlameCause::COUNT];
    for b in end.forensics.outliers.iter().filter_map(abcast::blame) {
        for (sum, ns) in blamed.iter_mut().zip(b.ns) {
            *sum += ns;
        }
    }
    let blamed_total: u64 = blamed.iter().sum();
    for c in BlameCause::ALL {
        out.put(
            &format!("abcast.blame.{}_pct", c.name()),
            pct(blamed[c as usize] as f64, blamed_total as f64),
        );
    }
    let p999 = Tail::of(&rep.latencies, 0.999);
    out.put(
        "abcast.commit_p999_us",
        if p999.supported() { p999.us() } else { 0.0 },
    );
    out.put("abcast.retransmits", end.total(Counter::Retransmits) as f64);
    let fires = [
        Counter::AuditEpochRegress,
        Counter::AuditCommitRegress,
        Counter::AuditCommitAheadAccept,
        Counter::AuditCommitLost,
    ];
    out.put(
        "abcast.auditor_fires",
        fires.iter().map(|&c| end.total(c)).sum::<u64>() as f64,
    );

    // acuerdo
    out.put("acuerdo.accepts_per_commit", per_commit(Counter::Accepts));
    out.put(
        "acuerdo.ring_forwards_per_commit",
        per_commit(Counter::RingForwards),
    );
    out.put(
        "acuerdo.ring_fallback_sends",
        end.total(Counter::RingFallbackSends) as f64,
    );
    out.put(
        "acuerdo.ring_dup_drops",
        end.total(Counter::RingDupDrops) as f64,
    );
    out.put("acuerdo.outage_p50_ms", p50_ms(&rep.outages));
    let outage_max = rep.outages.iter().max().copied().unwrap_or_default();
    out.put("acuerdo.outage_max_ms", outage_max.as_secs_f64() * 1e3);
    out.put("acuerdo.election_p50_ms", p50_ms(&rep.elections));
    out.put("acuerdo.rejoin_p50_ms", p50_ms(&rep.rejoins));
    out.put("acuerdo.elections", end.total(Counter::Elections) as f64);
    out.put(
        "acuerdo.elections_per_fault",
        ratio(end.total(Counter::ElectionsWon) as f64, rep.faults as f64),
    );
    out.put(
        "acuerdo.heartbeat_misses",
        end.total(Counter::HeartbeatMisses) as f64,
    );
    out.put(
        "acuerdo.diff_applies",
        end.total(Counter::DiffApplies) as f64,
    );
    out.put(
        "acuerdo.rejoin_diff_bytes",
        end.total(Counter::RejoinDiffBytes) as f64,
    );
    // Every simulated figure without a reference is unvalidated.
    let model_err = spec.paper_p50_us.map_or(0.0, |paper| {
        let p50 = stats::quantile(&rep.latencies, 0.5) as f64 / 1e3;
        100.0 * (p50 - paper) / paper
    });
    out.put("acuerdo.model_err_lat_pct", model_err);

    out.put("kvstore.applied_min", rep.applied_min as f64);
    out.put("loadgen.late_max_us", rep.late_max.as_secs_f64() * 1e6);
}

/// Host times of the untraced repetitions.
pub fn host(reps: &[Rep], out: &mut Values) {
    let events: u64 = reps[0].quarter_events.iter().sum();
    let best = reps
        .iter()
        .min_by_key(|r| r.measure_cpu_ns)
        .expect("at least one repetition");
    out.put(
        "simnet.host_ns_per_event",
        ratio(best.measure_cpu_ns as f64, events as f64),
    );
    // ns/event of the last quarter over the first, each quarter best-of-R.
    let quarter = |q: usize| -> f64 {
        let ns = reps.iter().map(|r| r.quarter_cpu_ns[q]).min().unwrap_or(0);
        ratio(ns as f64, reps[0].quarter_events[q] as f64)
    };
    out.put(
        "simnet.host_cost_growth_ratio",
        ratio(quarter(3), quarter(0)),
    );
    out.put(
        "host.wall_over_cpu_ratio",
        ratio(best.measure_wall_ns as f64, best.measure_cpu_ns as f64),
    );
    out.put(
        "host.first_rep_ratio",
        ratio(reps[0].measure_cpu_ns as f64, best.measure_cpu_ns as f64),
    );
}

/// Lifecycle spans (s), gauges and tracing cost of the traced repetition.
pub fn traced(reps: &[Rep], traced: &Rep, out: &mut Values, spans: &mut Spans) {
    let t = traced.traced.as_ref().expect("the traced repetition");

    let sw = Stopwatch::start();
    let lifecycles = spans.scope("spans_collect", |_| abcast::spans::collect(&t.events));
    let (collect_cpu_ns, _) = sw.elapsed();
    let span_events = t
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Span { .. }))
        .count();
    out.put(
        "abcast.spans_collect_ns_per_span",
        ratio(collect_cpu_ns as f64, span_events as f64),
    );

    // Per-transition and per-class latency of every lifecycle that both
    // started and finished inside the traced window. A gap across a missing
    // mark goes to the transition ending at the later mark, as in
    // `StageHist::record_lifecycle`, but the medians are exact.
    let mut by_stage: Vec<Vec<u64>> = vec![Vec::new(); SpanStage::COUNT];
    let mut by_class: [Vec<u64>; 3] = Default::default();
    let class_slot = |c: StageClass| match c {
        StageClass::Wire => 0,
        StageClass::QuorumWait => 1,
        StageClass::Cpu => 2,
    };
    spans.scope("forensics", |_| {
        for l in lifecycles.iter().filter(|l| l.total_ns().is_some()) {
            let mut prev: Option<u64> = None;
            let mut class_ns = [0u64; 3];
            for (i, mark) in l.marks.iter().enumerate() {
                let Some(at) = *mark else { continue };
                if let Some(p) = prev {
                    let d = at.saturating_sub(p);
                    by_stage[i].push(d);
                    class_ns[class_slot(StageClass::of_transition(SpanStage::ALL[i]))] += d;
                }
                prev = Some(at);
            }
            for (all, ns) in by_class.iter_mut().zip(class_ns) {
                all.push(ns);
            }
        }
    });
    for (slot, c) in [StageClass::Wire, StageClass::QuorumWait, StageClass::Cpu]
        .into_iter()
        .enumerate()
    {
        out.put(
            &format!("abcast.class.{}_p50_us", c.name()),
            p50_us(&mut by_class[slot]),
        );
    }
    for stage in &SpanStage::ALL[1..] {
        out.put(
            &format!("acuerdo.stage.{}_p50_us", stage.name()),
            p50_us(&mut by_stage[*stage as usize]),
        );
    }

    let gauge_max = |g: Gauge| -> f64 {
        t.gauges
            .iter()
            .filter(|s| s.gauge == g)
            .map(|s| s.value)
            .max()
            .unwrap_or(0) as f64
    };
    out.put("acuerdo.ack_lag_max", gauge_max(Gauge::AckFrontierLag));
    out.put(
        "acuerdo.commit_lag_max",
        gauge_max(Gauge::CommitFrontierLag),
    );

    // Tracing ran in the second quarter only: compare that quarter with the
    // same quarter of the untraced repetitions.
    let untraced_q2 = reps.iter().map(|r| r.quarter_cpu_ns[1]).min().unwrap_or(0);
    out.put(
        "simnet.trace.overhead_pct",
        pct(traced.quarter_cpu_ns[1] as f64, untraced_q2 as f64) - 100.0,
    );
    out.put(
        "simnet.trace.events_per_commit",
        ratio(t.events.len() as f64, traced.q2_commits as f64),
    );
}

/// What one short run of a comparison system yields.
struct Short {
    ops_s: f64,
    p50_us: f64,
    host_us_per_commit: f64,
}

/// Attach a closed-loop generator to an already built cluster, run it, and
/// report rate, median latency and host cost per commit.
fn short_run<M: ClientPort>(
    mut sim: Sim<M>,
    window: usize,
    payload: crate::loadgen::PayloadFn,
    warmup: Duration,
    measure: Duration,
) -> Short {
    let open = SimTime::ZERO + warmup;
    let close = open + measure;
    let client = sim.add_node(Box::new(LoadGen::<M>::new(
        Pacing::Closed { window },
        0,
        Vec::new(),
        close,
        payload,
    )));
    sim.run_until(open);
    let sw = Stopwatch::start();
    sim.run_until(close);
    let (cpu_ns, _) = sw.elapsed();
    let mut m = Measured::of(sim.node::<LoadGen<M>>(client).samples(), open, close);
    Short {
        ops_s: ratio(m.commits as f64, measure.as_secs_f64()),
        p50_us: p50_us(&mut m.latencies),
        host_us_per_commit: ratio(cpu_ns as f64 / 1e3, m.commits as f64),
    }
}

/// One short run each of ZooKeeper (Zab) and etcd (Raft) under YCSB-load —
/// the simulated-TCP, `DeliveryClass::Cpu` path of simnet — and of Derecho
/// at window 1, the paper's "almost 2x" latency comparison.
pub fn comparison_systems(seed: u64, out: &mut Values, spans: &mut Spans) {
    let tcp_warmup = Duration::from_millis(20);
    let tcp_measure = Duration::from_millis(100);
    let ycsb = |seed| YcsbLoad::new(seed).into_payload_fn();

    let zab = spans.scope("compare.zab", |_| {
        let cfg = zab::ZabConfig::default();
        let mut sim = Sim::new(seed, NetParams::tcp());
        for id in zab::build_cluster(&mut sim, &cfg, true) {
            sim.node_mut::<zab::ZabNode>(id).app = Box::<ReplicatedMap>::default();
        }
        short_run(sim, 256, ycsb(seed), tcp_warmup, tcp_measure)
    });
    out.put("zab.ycsb_ops_s", zab.ops_s);
    out.put("zab.host_us_per_commit", zab.host_us_per_commit);

    let raft = spans.scope("compare.raft", |_| {
        let cfg = raft::RaftConfig::default();
        let mut sim = Sim::new(seed, NetParams::tcp());
        for id in raft::build_cluster(&mut sim, &cfg, true) {
            sim.node_mut::<raft::RaftNode>(id).app = Box::<ReplicatedMap>::default();
        }
        // etcd serialises a WAL fsync per entry: 64 outstanding, as etcd
        // clients cap it, instead of 256.
        short_run(sim, 64, ycsb(seed), tcp_warmup, tcp_measure)
    });
    out.put("raft.ycsb_ops_s", raft.ops_s);
    out.put("raft.host_us_per_commit", raft.host_us_per_commit);

    let derecho = spans.scope("compare.derecho", |_| {
        let cfg = derecho::DerechoConfig::default();
        let mut sim = Sim::new(seed, NetParams::rdma());
        derecho::build_cluster(&mut sim, &cfg);
        short_run(
            sim,
            1,
            Box::new(|id| abcast::workload::payload(id, 10)),
            Duration::from_millis(5),
            Duration::from_millis(50),
        )
    });
    out.put("derecho.lat_p50_us", derecho.p50_us);
    out.put("derecho.host_us_per_commit", derecho.host_us_per_commit);
}
