//! The tracing layer is zero-perturbation: turning it on must not change a
//! single scheduling decision. Traced and untraced runs of the same seed
//! must produce bit-identical delivery histories, client results, and
//! counters — tracing only *adds* the recorded timeline.

use acuerdo_repro::abcast::{cluster_with_client, MsgHdr, WindowClient};
use acuerdo_repro::acuerdo::{self, AcWire, AcuerdoConfig};
use acuerdo_repro::bench::chrome;
use acuerdo_repro::simnet::{SimTime, TraceEvent};
use bytes::Bytes;
use std::time::Duration;

struct Outcome {
    histories: Vec<Vec<(MsgHdr, Bytes)>>,
    completed: u64,
    payload_bytes: u64,
    samples: u64,
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
    counters_json: String,
    distinct_counters: usize,
    event_count: usize,
    timeline: Option<String>,
}

fn run(seed: u64, traced: bool, crash: bool) -> Outcome {
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(3)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<acuerdo::AcuerdoNode>(seed, &cfg, 8, 10, Duration::ZERO);
    sim.set_tracing(traced);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
    if crash {
        sim.crash_at(0, SimTime::from_millis(2));
    }
    sim.run_until(SimTime::from_millis(10));
    let r = sim.node::<WindowClient<AcWire>>(client).result();
    let snap = sim.metrics();
    Outcome {
        histories: acuerdo::histories(&sim, &ids),
        completed: r.completed,
        payload_bytes: r.payload_bytes,
        samples: r.latency.count(),
        mean_us: r.latency.mean_us(),
        p50_us: r.latency.p50_us(),
        p99_us: r.latency.p99_us(),
        counters_json: snap.to_json(),
        distinct_counters: snap.distinct_nonzero(),
        event_count: sim.trace_events().len(),
        timeline: traced.then(|| chrome::write(sim.trace_events(), &[])),
    }
}

fn assert_identical(a: &Outcome, b: &Outcome) {
    assert_eq!(a.histories, b.histories, "delivery histories diverged");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.payload_bytes, b.payload_bytes);
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.mean_us, b.mean_us, "latency mean diverged");
    assert_eq!(a.p50_us, b.p50_us);
    assert_eq!(a.p99_us, b.p99_us);
    assert_eq!(a.counters_json, b.counters_json, "counters diverged");
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let traced = run(42, true, false);
    let untraced = run(42, false, false);
    assert_identical(&traced, &untraced);
    assert!(traced.event_count > 0, "traced run recorded nothing");
    assert_eq!(untraced.event_count, 0, "untraced run recorded events");
}

#[test]
fn tracing_does_not_perturb_a_failover() {
    let traced = run(555, true, true);
    let untraced = run(555, false, true);
    assert_identical(&traced, &untraced);
    assert!(traced.event_count > 0);
}

#[test]
fn traced_run_yields_timeline_and_counters() {
    let o = run(7, true, false);
    assert!(
        o.distinct_counters >= 8,
        "only {} distinct counters nonzero",
        o.distinct_counters
    );
    let tl = o.timeline.expect("timeline present");
    let tl = tl.trim();
    assert!(
        tl.starts_with("{\"displayTimeUnit\"") && tl.ends_with("]}"),
        "not a trace-event document"
    );
    // Fabric spans and lifecycle marks both made it into the timeline; a
    // commit shows as its `commit` span mark.
    assert!(tl.contains("\"ph\":\"X\""), "no spans in timeline");
    assert!(
        tl.contains("\"name\":\"commit\",\"args\":{\"span\""),
        "no commit marks in timeline"
    );
    assert!(tl.contains("nic"), "no NIC lanes in timeline");
}

#[test]
fn tracing_does_not_perturb_a_chaos_schedule() {
    // Zero-perturbation must survive the full fault vocabulary: replay a
    // seeded chaos schedule (crash, restart, partition, pause, link delay,
    // CPU scaling) with tracing on and off and demand bit-identical outcomes.
    use acuerdo_repro::bench::chaos::Schedule;

    fn run_chaos_schedule(seed: u64, traced: bool) -> Outcome {
        let n = 5;
        let cfg = AcuerdoConfig {
            fail_timeout: Duration::from_micros(400),
            retain_log: true,
            ..AcuerdoConfig::stable(n)
        };
        let horizon = SimTime::from_millis(15);
        let (mut sim, ids, client) =
            cluster_with_client::<acuerdo::AcuerdoNode>(seed, &cfg, 8, 10, Duration::ZERO);
        acuerdo::enable_restarts(&mut sim, &cfg, &ids);
        sim.set_tracing(traced);
        {
            let c = sim.node_mut::<WindowClient<AcWire>>(client);
            c.retransmit = Some(Duration::from_millis(1));
            c.replicas = ids.clone();
        }
        let sched = Schedule::generate(seed, n, horizon, true);
        for tf in &sched.faults {
            if tf.at > sim.now() {
                sim.run_until(tf.at);
            }
            tf.apply(&mut sim, n);
        }
        sim.run_until(horizon);
        let r = sim.node::<WindowClient<AcWire>>(client).result();
        let snap = sim.metrics();
        Outcome {
            histories: acuerdo::histories(&sim, &ids),
            completed: r.completed,
            payload_bytes: r.payload_bytes,
            samples: r.latency.count(),
            mean_us: r.latency.mean_us(),
            p50_us: r.latency.p50_us(),
            p99_us: r.latency.p99_us(),
            counters_json: snap.to_json(),
            distinct_counters: snap.distinct_nonzero(),
            event_count: sim.trace_events().len(),
            timeline: traced.then(|| chrome::write(sim.trace_events(), &[])),
        }
    }

    let traced = run_chaos_schedule(11, true);
    let untraced = run_chaos_schedule(11, false);
    assert_identical(&traced, &untraced);
    assert!(traced.event_count > 0, "chaos run recorded no events");
    assert_eq!(untraced.event_count, 0);
    // The fault machinery itself showed up in the counters.
    assert!(
        traced.distinct_counters >= 10,
        "only {} distinct counters nonzero under chaos",
        traced.distinct_counters
    );
}

#[test]
fn committed_messages_get_complete_monotone_lifecycles() {
    // Every message the client saw commit must leave a joined-up lifecycle on
    // the timeline: all nine stages present, in non-decreasing time order.
    // (≥99% allowed: messages still in flight at the horizon are partial.)
    use acuerdo_repro::abcast::spans;

    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, _ids, client) =
        cluster_with_client::<acuerdo::AcuerdoNode>(21, &cfg, 8, 10, Duration::ZERO);
    sim.set_tracing(true);
    sim.run_until(SimTime::from_millis(10));
    let committed = sim.node::<WindowClient<AcWire>>(client).result().completed;
    assert!(committed > 100, "only {committed} commits in 10ms");

    let lifecycles = spans::collect(sim.trace_events());
    let complete = lifecycles
        .iter()
        .filter(|l| l.complete() && l.monotone())
        .count();
    assert!(
        complete as f64 >= 0.99 * committed as f64,
        "{complete} complete monotone lifecycles for {committed} committed messages"
    );
}

#[test]
fn auditor_is_silent_on_clean_runs() {
    // The online invariant auditor runs inside every instrumented protocol;
    // on a fault-free run none of its violation counters may fire.
    use acuerdo_repro::bench::{self, Run, RunSpec, System};
    use acuerdo_repro::simnet::Counter;

    for system in [
        System::Acuerdo,
        System::DerechoLeader,
        System::DerechoAll,
        System::Libpaxos,
        System::Zookeeper,
        System::Etcd,
    ] {
        let m = bench::run(&Run::new(system, 3, 10, 4, 13, RunSpec::quick(system))).metrics;
        for c in [
            Counter::AuditEpochRegress,
            Counter::AuditCommitRegress,
            Counter::AuditCommitAheadAccept,
        ] {
            assert_eq!(
                m.total(c),
                0,
                "{system:?}: auditor fired {} on a clean run",
                c.name()
            );
        }
    }
}

#[test]
fn observing_a_benchmark_run_never_changes_it_for_any_system() {
    // The one `run` entry point under its three observability levels — dark,
    // traced, traced + gauge-sampled — must yield the same point and the
    // same per-node counters for every system it can drive. (Gauge *levels*
    // are left out: the sampler itself writes `nic_egress_depth`.)
    use acuerdo_repro::bench::{self, Observe, Run, RunSpec, System};

    let systems = System::all()
        .into_iter()
        .chain([System::AcuerdoRing, System::Dare]);
    for system in systems {
        let observed = |observe: Observe| {
            let r = Run::new(system, 3, 10, 4, 13, RunSpec::quick(system)).observe(observe);
            let out = bench::run(&r);
            (
                out.point,
                format!("{:?}", out.metrics.nodes),
                out.events.len(),
            )
        };
        let dark = observed(Observe::default());
        let traced = observed(Observe {
            traced: true,
            ..Observe::default()
        });
        let sampled = observed(Observe::traced());
        assert_eq!(dark.2, 0, "{system:?}: dark run recorded events");
        assert!(traced.2 > 0, "{system:?}: traced run recorded nothing");
        for (what, other) in [("tracing", &traced), ("gauge sampling", &sampled)] {
            assert_eq!(dark.0, other.0, "{system:?}: {what} moved the point");
            assert_eq!(dark.1, other.1, "{system:?}: {what} moved the counters");
        }
    }
}

#[test]
fn gauges_and_flight_recorder_do_not_perturb_the_run() {
    // The full observability stack — gauge sampler ticking every 100µs plus
    // the timeline a failed run's flight-recorder dump is cut from — must be
    // as invisible to the schedule as tracing is: a sampled run and an
    // unsampled run of the same seed are bit-identical and leave the same
    // flight-recorder tail.
    use acuerdo_repro::bench::flight_tail;

    fn run_observed(seed: u64, observed: bool) -> (Outcome, usize, Vec<TraceEvent>) {
        let cfg = AcuerdoConfig {
            fail_timeout: Duration::from_micros(400),
            ..AcuerdoConfig::stable(3)
        };
        let (mut sim, ids, client) =
            cluster_with_client::<acuerdo::AcuerdoNode>(seed, &cfg, 8, 10, Duration::ZERO);
        if observed {
            sim.set_gauge_sampling(Duration::from_micros(100));
        }
        sim.set_tracing(true);
        sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
        sim.run_until(SimTime::from_millis(10));
        let r = sim.node::<WindowClient<AcWire>>(client).result();
        let snap = sim.metrics();
        // Compare per-node *counters* exactly, but not the sidecar's gauge
        // levels: `nic_egress_depth` is written by the sampler itself, so its
        // final level is observability output, not schedule state.
        let outcome = Outcome {
            histories: acuerdo::histories(&sim, &ids),
            completed: r.completed,
            payload_bytes: r.payload_bytes,
            samples: r.latency.count(),
            mean_us: r.latency.mean_us(),
            p50_us: r.latency.p50_us(),
            p99_us: r.latency.p99_us(),
            counters_json: format!("{:?}", snap.nodes),
            distinct_counters: snap.distinct_nonzero(),
            event_count: sim.trace_events().len(),
            timeline: None,
        };
        let gauge_samples = sim.gauge_samples().len();
        (outcome, gauge_samples, flight_tail(sim.trace_events()))
    }

    let (on, samples_on, flight_on) = run_observed(42, true);
    let (off, samples_off, flight_off) = run_observed(42, false);
    assert_identical(&on, &off);
    assert!(samples_on > 0, "sampler produced no gauge samples");
    assert_eq!(samples_off, 0, "dark run produced gauge samples");
    assert!(!flight_on.is_empty(), "flight recorder stayed empty");
    assert!(flight_on == flight_off, "the sampler moved the flight tail");
}

#[test]
fn suite_documents_are_byte_identical_per_seed() {
    // The quick section's contract: same pinned matrix, same seed ⇒ the
    // same document, byte for byte. That is what lets bench-diff hold
    // counters to exact equality.
    use acuerdo_repro::bench::json;
    use acuerdo_repro::bench::paper::{run_paper, PaperConfig, QUICK_SYSTEMS, SCHEMA};

    let cfg = PaperConfig {
        seed: 42,
        only: Some("quick".to_string()),
        ..PaperConfig::default()
    };
    let (a, _) = run_paper(&cfg);
    let (b, _) = run_paper(&cfg);
    assert_eq!(a, b, "quick section differs between identical runs");

    let doc = json::parse(&a).expect("quick section parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(SCHEMA),
        "schema tag missing"
    );
    let runs = doc.array_at("quick.records").expect("records array");
    assert_eq!(
        runs.len(),
        2 * QUICK_SYSTEMS.len(),
        "one record per quick system and window"
    );
    for run in runs {
        assert!(
            run.get("gauge_series").is_some(),
            "run record lacks a gauge_series summary"
        );
        assert!(run.get("metrics").is_some(), "run record lacks counters");
    }
}

#[test]
fn auditor_firing_produces_a_loadable_flight_recorder_dump() {
    // When the online auditor fires, the last-N events per node of the
    // run's traced timeline are dumped as flightrec-<seed>.json; the dump
    // must round-trip through the same loader trace-report uses.
    use acuerdo_repro::abcast::{check::Auditor, Epoch};
    use acuerdo_repro::bench::{audit_fired, flight_tail, write_flightrec};
    use acuerdo_repro::simnet::{Ctx, NetParams, NodeId, Process, Sim};

    // A deliberately misbehaving process: its second audit observation
    // reports a committed header *behind* the first — a commit regression.
    struct Regressor {
        audit: Auditor,
        step: u32,
    }
    impl Process<()> for Regressor {
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(Duration::from_micros(10), 1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<()>, _from: NodeId, _msg: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<()>, _token: u64) {
            let e = Epoch::new(1, 0);
            let committed = MsgHdr::new(e, if self.step == 0 { 5 } else { 3 });
            self.audit.observe(ctx, e, MsgHdr::new(e, 5), committed);
            self.step += 1;
            if self.step < 3 {
                ctx.set_timer(Duration::from_micros(10), 1);
            }
        }
    }

    let seed = 4242;
    let mut sim: Sim<()> = Sim::new(seed, NetParams::rdma());
    sim.set_tracing(true);
    sim.add_node(Box::new(Regressor {
        audit: Auditor::new(),
        step: 0,
    }));
    sim.run_until(SimTime::from_millis(1));

    assert!(
        audit_fired(&sim.metrics()),
        "regressing commits did not fire the auditor"
    );
    let flight = flight_tail(sim.trace_events());
    assert!(!flight.is_empty(), "flight recorder captured nothing");

    let dir = std::env::temp_dir().join(format!("flightrec-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = write_flightrec(dir.to_str().unwrap(), seed, &flight).expect("dump flight recorder");
    assert!(path.ends_with(&format!("flightrec-{seed}.json")));

    let text = std::fs::read_to_string(&path).expect("read dump");
    assert!(
        text.contains("audit_commit_regress"),
        "dump does not mention the violation"
    );
    // Loadable by the same reader trace-report uses.
    chrome::load(&path).expect("dump round-trips through the trace loader");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forensics_is_zero_perturbation_and_deterministic() {
    // The tail-latency forensics collector is always on — traced and
    // untraced runs of one seed must produce byte-identical snapshots
    // (wait integrals, straggler tallies, and the full outlier ring), and
    // identical runs must reproduce them exactly.
    use acuerdo_repro::simnet::ForensicsSnapshot;

    fn forensics_of(seed: u64, traced: bool) -> ForensicsSnapshot {
        let cfg = AcuerdoConfig::stable(3);
        let (mut sim, _ids, _client) =
            cluster_with_client::<acuerdo::AcuerdoNode>(seed, &cfg, 8, 10, Duration::ZERO);
        sim.set_tracing(traced);
        sim.run_until(SimTime::from_millis(10));
        sim.metrics().forensics
    }

    let traced = forensics_of(42, true);
    let untraced = forensics_of(42, false);
    assert_eq!(traced, untraced, "forensics snapshot depends on tracing");
    assert_eq!(
        untraced,
        forensics_of(42, false),
        "snapshot not reproducible"
    );

    assert!(
        traced.commits > 100,
        "only {} commits finalized",
        traced.commits
    );
    assert!(!traced.outliers.is_empty(), "outlier ring stayed empty");
    assert!(
        traced.outliers.len() <= acuerdo_repro::simnet::OUTLIER_RING_DEPTH,
        "outlier ring overflowed its bound"
    );
    assert!(
        traced.straggler_quorums.iter().sum::<u64>() > 0,
        "no quorum named a straggler"
    );
    assert!(
        traced.waits.iter().any(|w| w.ns.iter().any(|&ns| ns > 0)),
        "no wait interval was attributed"
    );
}

#[test]
fn forensic_records_stay_bounded_by_the_requests_in_flight() {
    // Marks keep arriving for a message after its client was answered: a
    // ring follower past the quorum point forwards it (`ring_write`), and a
    // star leader streams it to a follower that fell behind. A collector
    // that opens a record for such a mark never closes it again — one leaked
    // record per commit, each scanned by every later covering mark. Whatever
    // the run length, the open records are the requests in flight.
    use acuerdo_repro::acuerdo::DisseminationMode;
    use acuerdo_repro::simnet::Counter;

    const WINDOW: usize = 8;

    // 16-node ring: 13 of the 15 followers forward every message, most of
    // them after the 9-of-16 quorum answered the client.
    for traced in [false, true] {
        let cfg = AcuerdoConfig {
            dissemination: DisseminationMode::Ring,
            ..AcuerdoConfig::stable(16)
        };
        let (mut sim, _ids, client) =
            cluster_with_client::<acuerdo::AcuerdoNode>(5, &cfg, WINDOW, 64, Duration::ZERO);
        sim.set_tracing(traced);
        sim.run_until(SimTime::from_millis(25));
        let done = sim.node::<WindowClient<AcWire>>(client).total_completed;
        assert!(done >= 2_000, "only {done} ring commits");
        assert!(sim.metrics().total(Counter::RingForwards) > 13 * 2_000);
        let open = sim.forensics_open_records();
        assert!(
            open <= WINDOW,
            "{open} forensic records open after {done} ring commits (traced: {traced})"
        );
    }

    // 3-node star with small rings and a follower that stops polling for a
    // while: its lane fills, the leader commits on with the other follower,
    // and streams the backlog — late `ring_write` marks — once it resumes.
    let cfg = AcuerdoConfig {
        ring_bytes: 64 << 10,
        ..AcuerdoConfig::stable(3)
    };
    let (mut sim, _ids, client) =
        cluster_with_client::<acuerdo::AcuerdoNode>(5, &cfg, WINDOW, 8192, Duration::ZERO);
    sim.pause_at(2, SimTime::from_millis(1), Duration::from_micros(900));
    sim.run_until(SimTime::from_millis(4));
    let done = sim.node::<WindowClient<AcWire>>(client).total_completed;
    assert!(done > 100, "only {done} star commits");
    assert!(
        sim.counter(0, Counter::RingStalls) > 0,
        "the paused follower's lane never filled: no late ring_write marks"
    );
    let open = sim.forensics_open_records();
    assert!(
        open <= WINDOW,
        "{open} forensic records open after {done} star commits past a lagging follower"
    );
}

#[test]
fn outlier_blame_sums_exactly_and_names_stragglers() {
    // Every captured outlier must decompose: its blame vector sums to the
    // measured commit latency exactly (the within-1% acceptance bound is
    // met with zero slack), the ring is sorted slowest-first, and each
    // outlier names the commit quorum's last-acking follower.
    use acuerdo_repro::abcast::blame;

    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, _ids, _client) =
        cluster_with_client::<acuerdo::AcuerdoNode>(21, &cfg, 8, 10, Duration::ZERO);
    sim.run_until(SimTime::from_millis(10));
    let f = sim.metrics().forensics;
    assert!(!f.outliers.is_empty());
    let mut prev = u64::MAX;
    for rec in &f.outliers {
        assert!(
            rec.latency_ns <= prev,
            "outlier ring not sorted slowest-first"
        );
        prev = rec.latency_ns;
        let b = blame(rec).expect("finalized outlier must be blameable");
        assert_eq!(
            b.total_ns(),
            rec.latency_ns,
            "blame vector does not sum to the measured latency"
        );
        assert!(
            rec.straggler.is_some(),
            "outlier 0x{:016x} names no straggler",
            rec.id
        );
        assert!(b.dominant().is_some(), "no dominant cause");
    }
}

#[test]
fn crash_induced_outliers_blame_the_retransmit_rounds() {
    // A leader crash mid-run stalls in-flight requests until the client's
    // retransmit timer re-submits them to the new leader. Those commits are
    // the run's slowest by an order of magnitude, so the outlier ring must
    // capture them with their retransmit rounds, and the blame assembler
    // must charge the dead time to the retransmit cause.
    use acuerdo_repro::abcast::{blame, BlameCause};

    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(3)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<acuerdo::AcuerdoNode>(555, &cfg, 8, 10, Duration::ZERO);
    {
        let c = sim.node_mut::<WindowClient<AcWire>>(client);
        c.retransmit = Some(Duration::from_millis(1));
        c.replicas = ids.clone();
    }
    sim.crash_at(0, SimTime::from_millis(2));
    sim.run_until(SimTime::from_millis(10));

    let f = sim.metrics().forensics;
    let retried: Vec<_> = f
        .outliers
        .iter()
        .filter(|rec| rec.retransmits > 0)
        .collect();
    assert!(
        !retried.is_empty(),
        "no crash-stalled commit with retransmit rounds reached the outlier ring"
    );
    for rec in retried {
        let b = blame(rec).expect("retried outlier must be blameable");
        assert!(
            b.ns[BlameCause::Retransmit as usize] > 0,
            "outlier 0x{:016x} with {} retransmit rounds has zero retransmit blame",
            rec.id,
            rec.retransmits
        );
        assert_eq!(b.total_ns(), rec.latency_ns);
    }
}

#[test]
fn trace_report_agrees_with_the_metrics_sidecar() {
    // The offline pipeline (chrome export → re-parse → trace-report) must
    // account for exactly the stage marks the online counters saw, and the
    // gauge counter tracks must round-trip sample for sample.
    use acuerdo_repro::bench::{self, report, Observe, Record, Run, RunSpec, System};
    use acuerdo_repro::simnet::Counter;

    let spec = RunSpec::quick(System::Acuerdo);
    let Record {
        metrics,
        events,
        gauges,
        ..
    } = bench::run(&Run::new(System::Acuerdo, 3, 10, 8, 5, spec).observe(Observe::traced()));
    assert!(!gauges.is_empty(), "traced run sampled no gauges");
    let (parsed, regauged) =
        chrome::read(&chrome::write(&events, &gauges)).expect("parse own export");
    assert_eq!(
        regauged.len(),
        gauges.len(),
        "gauge samples lost in the chrome round-trip"
    );
    let r = report::build(&parsed);
    assert!(!r.is_empty(), "trace-report saw no stage marks");
    assert_eq!(
        r.total_marks(),
        metrics.total(Counter::SpanMarks),
        "trace-report mark total disagrees with the span_marks counter"
    );
    assert!(r.stages.totals_count() > 0, "empty stage anatomy");
    assert!(
        r.lifecycles.iter().any(|l| l.complete()),
        "no complete lifecycle in the report"
    );
    assert!(!r.talkers.is_empty(), "no NIC traffic in the report");
}
