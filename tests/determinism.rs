//! Determinism: identical seeds reproduce identical executions bit-for-bit
//! (delivery histories, stats, epochs), across every system. This is what
//! makes the reproduced figures stable.

use acuerdo_repro::abcast::{cluster_with_client, MsgHdr, WindowClient};
use acuerdo_repro::acuerdo::{self, AcWire, AcuerdoConfig};
use acuerdo_repro::simnet::{Counter, SimTime};
use bytes::Bytes;
use std::time::Duration;

fn acuerdo_history(seed: u64, crash: bool) -> (Vec<Vec<(MsgHdr, Bytes)>>, u64) {
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(3)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<acuerdo::AcuerdoNode>(seed, &cfg, 8, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
    if crash {
        sim.crash_at(0, SimTime::from_millis(2));
    }
    sim.run_until(SimTime::from_millis(10));
    let completed = sim.node::<WindowClient<AcWire>>(client).total_completed;
    (acuerdo::histories(&sim, &ids), completed)
}

#[test]
fn same_seed_same_execution() {
    let (h1, c1) = acuerdo_history(1234, false);
    let (h2, c2) = acuerdo_history(1234, false);
    assert_eq!(c1, c2);
    assert_eq!(h1, h2);
}

#[test]
fn same_seed_same_execution_with_failover() {
    let (h1, c1) = acuerdo_history(555, true);
    let (h2, c2) = acuerdo_history(555, true);
    assert_eq!(c1, c2);
    assert_eq!(h1, h2);
}

#[test]
fn different_seeds_diverge() {
    // Jitter differs across seeds, so timing-sensitive counts should differ
    // (not a safety property — just evidence the seed is actually used).
    let (_, c1) = acuerdo_history(1, false);
    let (_, c2) = acuerdo_history(2, false);
    let (_, c3) = acuerdo_history(3, false);
    assert!(
        c1 != c2 || c2 != c3,
        "three seeds produced identical completions: {c1}"
    );
}

#[test]
fn tcp_systems_are_deterministic_too() {
    use acuerdo_repro::raft::{self, RaftConfig, RfWire};
    let run = |seed| {
        let cfg = RaftConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<raft::RaftNode>(seed, &cfg, 4, 10, Duration::from_millis(5));
        sim.run_until(SimTime::from_millis(80));
        let c = sim.node::<WindowClient<RfWire>>(client).total_completed;
        let d: Vec<u64> = ids
            .iter()
            .map(|&id| sim.counter(id, Counter::Commits))
            .collect();
        (c, d)
    };
    assert_eq!(run(9), run(9));
}

#[test]
fn chaos_schedules_and_runs_replay_bit_identically() {
    // The chaos harness is part of the reproducibility story: a failing seed
    // printed as a repro command must replay the exact same execution —
    // schedule, fault timing, delivery histories, and every counter.
    use acuerdo_repro::bench::chaos::{run_chaos, ChaosOpts, Proto, Schedule, CHAOS_N};
    let horizon = SimTime::from_millis(20);
    let s1 = Schedule::generate(42, CHAOS_N, horizon, true);
    let s2 = Schedule::generate(42, CHAOS_N, horizon, true);
    assert_eq!(s1, s2, "schedule generation is not deterministic");
    assert!(!s1.faults.is_empty());

    let opts = ChaosOpts::new(Proto::Acuerdo, 42, horizon);
    let r1 = run_chaos(&opts).report;
    let r2 = run_chaos(&opts).report;
    assert_eq!(
        r1.to_json(),
        r2.to_json(),
        "chaos run diverged between replays of the same seed"
    );
    assert!(r1.safety.is_none());
}

#[test]
fn calendar_and_heap_schedulers_replay_the_suite_bit_identically() {
    // The calendar queue is a pure scheduling-speed change: both event
    // queues drain the same (at, seq) total order, so swapping one for the
    // other can never move a message, a timer, or a counter. The strongest
    // statement of that is byte equality of the whole quick section — every
    // system, every window, every counter, every gauge sample.
    use acuerdo_repro::bench::paper::{run_paper, PaperConfig};
    use acuerdo_repro::simnet::SchedKind;
    let doc = |k: SchedKind| {
        let cfg = PaperConfig {
            seed: 42,
            only: Some("quick".to_string()),
            scheduler: k,
            ..PaperConfig::default()
        };
        run_paper(&cfg).0
    };
    let calendar = doc(SchedKind::Calendar);
    let heap = doc(SchedKind::Heap);
    assert!(
        calendar == heap,
        "schedulers diverged: the calendar queue broke the (at, seq) total order"
    );
}

#[test]
fn calendar_and_heap_schedulers_export_identical_traces() {
    // Byte equality of the exported Chrome trace is a stricter lens than the
    // benchmark document: it pins the exact event timeline (every delivery,
    // span, and gauge sample with its timestamp), not just the aggregates.
    use acuerdo_repro::bench::chrome;
    use acuerdo_repro::bench::{run, Observe, Run, RunSpec, System};
    use acuerdo_repro::simnet::SchedKind;
    let trace = |k: SchedKind| {
        let spec = RunSpec::quick(System::Acuerdo);
        let out = run(
            &Run::new(System::Acuerdo, 3, 64, 8, 7, spec).observe(Observe {
                scheduler: k,
                ..Observe::traced()
            }),
        );
        chrome::write(&out.events, &out.gauges)
    };
    let calendar = trace(SchedKind::Calendar);
    assert!(
        calendar == trace(SchedKind::Heap),
        "schedulers diverged at trace-event granularity"
    );
    assert!(calendar.len() > 1024, "traced run produced no timeline");
}

#[test]
fn calendar_and_heap_schedulers_agree_on_deep_deferral_runs() {
    // The quick matrix's and the scale sweep's windows (16 at most) never make a
    // leader's deferral run more than a few events long. Figure 9's window
    // of 256 keeps some 250 requests waiting on a saturated leader, and the
    // engine then peeks the scheduler (`next_at`) at every wake-up to decide
    // whether the run can be re-keyed in one pass: the peek must be as
    // non-perturbing on the calendar queue as on the heap, traced or not.
    use acuerdo_repro::bench::chrome;
    use acuerdo_repro::bench::{run, run_record_json, Observe, Run, RunSpec, System};
    use acuerdo_repro::simnet::{Counter, SchedKind};
    let export = |scheduler: SchedKind, traced: bool| {
        let base = if traced {
            Observe::traced()
        } else {
            Observe::default()
        };
        let spec = RunSpec::quick(System::Acuerdo);
        let r = Run::ycsb(System::Acuerdo, 3, 7, spec)
            .expect("acuerdo is a figure 9 system")
            .observe(Observe { scheduler, ..base });
        assert_eq!(r.window, 256);
        let out = run(&r);
        assert!(out.metrics.total(Counter::Commits) > 3 * 1_000);
        (
            run_record_json("deep", &r, &out.point, &out.metrics, &[]),
            chrome::write(&out.events, &out.gauges),
        )
    };
    let (record, trace) = export(SchedKind::Calendar, true);
    assert!(trace.len() > 1 << 20, "traced run produced no timeline");
    let (heap_record, heap_trace) = export(SchedKind::Heap, true);
    assert!(record == heap_record, "traced records diverged");
    assert!(
        trace == heap_trace,
        "schedulers diverged at trace-event granularity"
    );
    assert!(
        export(SchedKind::Calendar, false).0 == export(SchedKind::Heap, false).0,
        "untraced records diverged"
    );
}
