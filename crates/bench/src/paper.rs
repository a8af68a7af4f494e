//! The paper's evaluation as one run: Figure 8 (a–d), Table 1, Figure 9,
//! the design-choice ablations (DESIGN.md §3) and the §5 lineage, then the
//! repo's own two matrices: the quick matrix (five protocol classes at two
//! client windows, traced and gauge-sampled) and the scale sweep (cluster
//! sizes up to 64 at a dissemination-bound payload, with the what-if
//! catalog priced on the sweep's own runs).
//!
//! Each section prints its table and contributes one member to a
//! schema-tagged `BENCH_paper.json` document that holds every number the
//! tables print (layout: docs/SIDECARS.md). A section's full run records
//! ([`run_record_json`], [`crate::ElectionStats::to_json`]) sit in its
//! `records` array; sweep points and the ablation and lineage columns are
//! written at full precision (`{}` round-trips an `f64`), so
//! [`render_figures`] draws from the document exactly what it would draw
//! from the runs.

use crate::json::{self, Value};
use crate::plot::{line_chart, Scale, Series};
use crate::whatif::{self, CATALOG};
use crate::{
    ablation_point, election_experiment, long_latency_count, record_path, run, run_record_json,
    sweep, Ablation, Observe, Point, Run, RunSpec, Scenario, System, FIG9_SYSTEMS, SAMPLE_EVERY,
};
use abcast::{spans, StageHist};
use simnet::{Gauge, GaugeSample, SchedKind, TraceEvent};
use std::time::Duration;

/// Document schema tag; bump when the document shape changes so `bench-diff`
/// refuses to compare across shapes.
pub const SCHEMA: &str = "acuerdo-bench-paper-v2";

/// The sections in run order; `--only` names one of them.
pub const SECTIONS: &str = "fig8a|fig8b|fig8c|fig8d|table1|fig9|ablations|related|quick|scale";

/// Figure 8's panels: section name, replica count, payload bytes.
const FIG8_PANELS: [(&str, usize, usize); 4] = [
    ("fig8a", 3, 10),
    ("fig8b", 3, 1000),
    ("fig8c", 7, 10),
    ("fig8d", 7, 1000),
];

/// Elections measured per Table 1 row.
const ELECTIONS: usize = 8;

/// The quick matrix's systems: one representative per protocol class
/// (Acuerdo, Derecho single-sender, Multi-Paxos, Zab, Raft).
pub const QUICK_SYSTEMS: [System; 5] = [
    System::Acuerdo,
    System::DerechoLeader,
    System::Libpaxos,
    System::Zookeeper,
    System::Etcd,
];

/// The scale sweep's systems: the quick matrix plus the ring-dissemination
/// variant of Acuerdo, right after its star twin, so the star-vs-ring
/// crossover sits in one section at every size the ring differs from the
/// star ([`swept`]).
pub const SCALE_SYSTEMS: [System; 6] = [
    System::Acuerdo,
    System::AcuerdoRing,
    System::DerechoLeader,
    System::Libpaxos,
    System::Zookeeper,
    System::Etcd,
];

/// Whether the scale sweep carries a `(system, n)` record. The ring variant
/// is swept only above three nodes: up to there `acuerdo::ring_route` has
/// no forwarding hop, so the run would be the star record's, byte for byte.
pub fn swept(system: System, n: usize) -> bool {
    !(system == System::AcuerdoRing && n <= 3)
}

/// The scale sweep's cluster sizes at `--full`, and by default: the floor,
/// the knee and the top of the full sweep, still proving the 64-node
/// configuration completes.
const SCALE_SIZES: [usize; 7] = [3, 5, 7, 9, 16, 32, 64];
const QUICK_SCALE_SIZES: [usize; 3] = [3, 16, 64];

/// The sizes the what-if catalog is priced at: n = 3, where nothing
/// saturates, and n = 64, where the leader NIC does; `--full` adds the knee.
const WHATIF_SIZES: [usize; 3] = [3, 16, 64];
const QUICK_WHATIF_SIZES: [usize; 2] = [3, 64];

/// The scale sweep's operating point. 16 KiB payloads make the leader's
/// (n-1)-way fan-out the dominant byte stream — serialization (bytes x 0.32
/// ns) dwarfs the fixed ~1.1 us verb-post CPU per write — so the section
/// shows how dissemination cost grows with cluster size and the bottleneck
/// ranker can watch the leader NIC saturate at n = 64. One fixed window:
/// the window sweep is Figure 8's axis, cluster size is this section's.
const SCALE_PAYLOAD: usize = 16384;
const SCALE_WINDOW: usize = 8;

/// One `paper` run's settings.
#[derive(Clone, Debug, Default)]
pub struct PaperConfig {
    /// Paper-scale sweeps and measurement windows instead of quick ones.
    pub full: bool,
    /// Simulation seed shared by every section.
    pub seed: u64,
    /// Run this one of the [`SECTIONS`] instead of all of them.
    pub only: Option<String>,
    /// Re-run Figure 8's saturated points, Table 1, Figure 9 and the scale
    /// sweep's smallest size traced and write one Chrome trace per record
    /// under this base name.
    pub trace_out: Option<String>,
    /// Event queue of every run. It can never change the document (the
    /// schedulers share one total order), so it is not part of it: the heap
    /// is the calendar queue's oracle.
    pub scheduler: SchedKind,
}

/// Run the selected sections, printing each table as it completes. Returns
/// the `BENCH_paper.json` document (newline-terminated) and whether a
/// Table 1 row measured fewer elections than it asked for.
pub fn run_paper(cfg: &PaperConfig) -> (String, bool) {
    let want = |s: &str| cfg.only.as_deref().is_none_or(|o| o == s);
    let mut members = vec![
        format!("\"schema\":\"{SCHEMA}\""),
        format!("\"mode\":\"{}\"", if cfg.full { "full" } else { "quick" }),
        format!("\"seed\":{}", cfg.seed),
    ];
    let panels: Vec<_> = FIG8_PANELS.into_iter().filter(|p| want(p.0)).collect();
    if !panels.is_empty() {
        members.push(format!("\"fig8\":{}", fig8(cfg, &panels)));
    }
    let mut short = false;
    if want("table1") {
        let (json, s) = table1(cfg);
        members.push(format!("\"table1\":{json}"));
        short = s;
    }
    if want("fig9") {
        members.push(format!("\"fig9\":{}", fig9(cfg)));
    }
    if want("ablations") {
        members.push(format!("\"ablations\":{}", ablations(cfg)));
    }
    if want("related") {
        members.push(format!("\"related\":{}", related(cfg)));
    }
    if want("quick") {
        members.push(format!("\"quick\":{}", quick(cfg)));
    }
    if want("scale") {
        members.push(format!("\"scale\":{}", scale(cfg)));
    }
    (format!("{{{}}}\n", members.join(",")), short)
}

/// A measured point's members at full precision.
fn point_members(p: &Point) -> String {
    format!(
        "\"window\":{},\"throughput_mbps\":{},\"msgs_per_sec\":{},\"mean_us\":{},\
         \"p50_us\":{},\"p99_us\":{},\"p999_us\":{}",
        p.window, p.mbps, p.msgs_per_sec, p.mean_us, p.p50_us, p.p99_us, p.p999_us
    )
}

/// The measurement interval's members, as [`run_record_json`] writes them.
fn interval_members(spec: RunSpec) -> String {
    format!(
        "\"warmup_ms\":{:.3},\"measure_ms\":{:.3}",
        spec.warmup.as_secs_f64() * 1e3,
        spec.measure.as_secs_f64() * 1e3
    )
}

/// One table column's measurement: the point and the interval behind it.
fn column_json(spec: RunSpec, p: &Point) -> String {
    format!("{{{},{}}}", point_members(p), interval_members(spec))
}

/// The Observe every run of the document is built from: the run's event
/// queue, plus the event timeline and the gauge series when `traced`.
fn observe(cfg: &PaperConfig, traced: bool) -> Observe {
    let base = if traced {
        Observe::traced()
    } else {
        Observe::default()
    };
    Observe {
        scheduler: cfg.scheduler,
        ..base
    }
}

/// Write a traced run's Chrome trace next to the `--trace-out` base and
/// return its stage anatomy.
fn write_trace(
    base: &str,
    label: &str,
    events: &[TraceEvent],
    gauges: &[GaugeSample],
) -> StageHist {
    let path = record_path(base, label);
    crate::cli::write(&path, crate::chrome::write(events, gauges));
    let (e, g) = (events.len(), gauges.len());
    eprintln!("wrote {path} ({e} events, {g} gauge samples)");
    spans::stage_hist(&spans::collect(events))
}

/// Figure 8: latency vs throughput under a swept client window, for all
/// seven systems, on each selected panel.
fn fig8(cfg: &PaperConfig, panels: &[(&str, usize, usize)]) -> String {
    let max_log2 = if cfg.full { 14 } else { 12 };
    let (dark, lit) = (observe(cfg, false), observe(cfg, cfg.trace_out.is_some()));
    let mut panel_docs = Vec::new();
    let mut records = Vec::new();
    for &(name, n, size) in panels {
        let panel = format!("{n}nodes_{size}B");
        println!("\n=== Figure 8 panel: {n} nodes, {size}-byte messages ===");
        let mut sweeps = Vec::new();
        for system in System::all() {
            let (sys, spec) = (system.name(), RunSpec::of(system, cfg.full));
            let runs = sweep(system, n, size, max_log2, cfg.seed, spec, &dark);
            let w = runs.last().map_or(1, |r| r.point.window);
            let r = Run::new(system, n, size, w, cfg.seed, spec).observe(lit.clone());
            // The sweep's last run is the saturated point; a traced re-run
            // at the same seed is bit-identical to it (tracing never
            // perturbs scheduling).
            let out = match runs.last() {
                Some(last) if cfg.trace_out.is_none() => last.clone(),
                _ => run(&r),
            };
            let label = format!("{panel}_{sys}");
            let stages = cfg.trace_out.as_ref().map(|base| {
                let hist = write_trace(base, &label, &out.events, &out.gauges);
                print!("\n{}", hist.table(&label));
                ("stages", hist.to_json())
            });
            let (p, m) = (&out.point, &out.metrics);
            records.push(run_record_json(&panel, &r, p, m, stages.as_slice()));
            println!("\n  {sys:<16} window  MB/s      msg/s      mean_us   p99_us");
            let mut points = Vec::new();
            for p in runs.iter().map(|r| &r.point) {
                println!(
                    "  {:<16} {:>6}  {:>8.3}  {:>9.0}  {:>8.2}  {:>8.2}",
                    "", p.window, p.mbps, p.msgs_per_sec, p.mean_us, p.p99_us
                );
                points.push(format!("{{{}}}", point_members(p)));
            }
            let (interval, points) = (interval_members(spec), points.join(","));
            sweeps.push(format!(
                "{{\"system\":\"{sys}\",{interval},\"points\":[{points}]}}"
            ));
        }
        panel_docs.push(format!(
            "{{\"panel\":\"{name}\",\"label\":\"{panel}\",\"nodes\":{n},\"payload_bytes\":{size},\
             \"sweeps\":[{}]}}",
            sweeps.join(",")
        ));
    }
    format!(
        "{{\"panels\":[{}],\"records\":[{}]}}",
        panel_docs.join(","),
        records.join(",")
    )
}

/// Table 1: mean election duration vs replica count. Returns the section
/// and whether a row measured fewer than [`ELECTIONS`].
fn table1(cfg: &PaperConfig) -> (String, bool) {
    println!(
        "Table 1: average Acuerdo election duration (ms), incl. diff transfer\n\
         paper:    3 nodes: .3    5 nodes: 6.8    7 nodes: 12.1    9 nodes: 12.6\n\n\
         \x20 nodes long-latency  elections    mean_ms     min_ms       max_ms",
    );
    let mut records = Vec::new();
    let mut long_latency = Vec::new();
    let mut stage_tables = String::new();
    let mut short = false;
    for n in [3usize, 5, 7, 9] {
        // Traced without the gauge series: the trace carries no gauges.
        let observe = Observe {
            traced: cfg.trace_out.is_some(),
            ..observe(cfg, false)
        };
        let out = election_experiment(n, ELECTIONS, cfg.seed, &observe);
        let st = &out.stats;
        let long = long_latency_count(n);
        // Splice the counters (and stage anatomy) into the stats object.
        let mut rec = st.to_json();
        rec.pop();
        rec.push_str(&format!(",\"metrics\":{}", out.metrics.to_json()));
        if let Some(base) = &cfg.trace_out {
            let label = format!("n{n}");
            let hist = write_trace(base, &label, &out.events, &[]);
            stage_tables.push_str(&format!("\n{}", hist.table(&label)));
            rec.push_str(&format!(",\"stages\":{}", hist.to_json()));
        }
        rec.push('}');
        records.push(rec);
        long_latency.push(long.to_string());
        let (count, mean, min, max) = (st.count, st.mean_ms, st.min_ms, st.max_ms);
        println!("{n:>7} {long:>12} {count:>10} {mean:>10.2} {min:>10.2} {max:>12.2}");
        if count < ELECTIONS {
            eprintln!("table1: {n} nodes: measured {count} of {ELECTIONS} elections");
            short = true;
        }
    }
    print!("{stage_tables}");
    let json = format!(
        "{{\"elections\":{ELECTIONS},\"long_latency_nodes\":[{}],\"records\":[{}]}}",
        long_latency.join(","),
        records.join(",")
    );
    (json, short)
}

/// Figure 9: YCSB-load ops/s on the replicated table vs node count.
fn fig9(cfg: &PaperConfig) -> String {
    println!(
        "Figure 9: YCSB-load throughput (ops/sec) vs node count\n\
         paper shape: acuerdo ~10x zookeeper, ~50x etcd, log-scale axis\n\n\
         \x20 nodes      acuerdo    zookeeper         etcd     acuerdo/zk   acuerdo/etcd",
    );
    let mut records = Vec::new();
    for n in [3usize, 5, 7, 9] {
        let mut vals = Vec::new();
        for s in FIG9_SYSTEMS {
            let label = format!("{}_n{n}", s.name());
            let r = Run::ycsb(s, n, cfg.seed, RunSpec::fig9(s, cfg.full))
                .expect("a figure 9 system")
                .observe(observe(cfg, cfg.trace_out.is_some()));
            let out = run(&r);
            let stages = cfg.trace_out.as_ref().map(|base| {
                let hist = write_trace(base, &label, &out.events, &out.gauges);
                ("stages", hist.to_json())
            });
            let (p, m) = (&out.point, &out.metrics);
            records.push(run_record_json(&label, &r, p, m, stages.as_slice()));
            vals.push(out.point.msgs_per_sec);
        }
        let (ac, et, zk) = (vals[0], vals[1], vals[2]);
        let (by_zk, by_et) = (ac / zk, ac / et);
        println!("{n:>7} {ac:>12.0} {zk:>12.0} {et:>12.0} {by_zk:>13.1}x {by_et:>13.1}x");
    }
    format!("{{\"records\":[{}]}}", records.join(","))
}

/// The design-choice ablations: disable one choice at a time and measure
/// the scenario it degrades — low-load latency (window 1), saturated
/// throughput (window 256) with cluster-wide wire packets per message, and
/// throughput with one periodically descheduled follower and small rings
/// (window 512, where the slot-reuse rule binds: §4.1's Derecho
/// comparison), beside its control: the same small-ring run without the
/// pauses, and the ratio of the two.
fn ablations(cfg: &PaperConfig) -> String {
    let (n, size) = (3usize, 10usize);
    let spec = RunSpec::of(System::Acuerdo, cfg.full);
    let slow_spec = RunSpec {
        warmup: Duration::from_millis(2),
        measure: Duration::from_millis(25),
    };
    println!(
        "Acuerdo design-choice ablations ({n} nodes, {size}-byte messages)\n\n\
         configuration                lat_us(w=1)    sat msg/s   pkts/msg slow-flwr msg/s\
         \x20 control msg/s  slow/ctl"
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ab in Ablation::all() {
        let at = |window, spec| {
            Run::new(System::Acuerdo, n, size, window, cfg.seed, spec).observe(observe(cfg, false))
        };
        let (low, _) = ablation_point(ab, &at(1, spec), Scenario::Stable);
        let sat_run = at(256, spec);
        let (sat, sat_metrics) = ablation_point(ab, &sat_run, Scenario::Stable);
        let (p, m) = (&sat.point, &sat_metrics);
        records.push(run_record_json(ab.name(), &sat_run, p, m, &[]));
        let (slow, _) = ablation_point(ab, &at(512, slow_spec), Scenario::SlowFollower);
        let (control, _) = ablation_point(ab, &at(512, slow_spec), Scenario::SmallRings);
        let ratio = slow.point.msgs_per_sec / control.point.msgs_per_sec;
        println!(
            "{:<28} {:>11.2} {:>12.0} {:>10.2} {:>14.0} {:>14.0} {ratio:>9.2}",
            ab.name(),
            low.point.mean_us,
            sat.point.msgs_per_sec,
            sat.packets_per_msg,
            slow.point.msgs_per_sec,
            control.point.msgs_per_sec
        );
        rows.push(format!(
            "{{\"label\":\"{}\",\"low_load\":{},\"packets_per_msg\":{},\"slow_follower\":{},\
             \"control\":{},\"slow_over_control\":{ratio}}}",
            ab.name(),
            column_json(spec, &low.point),
            sat.packets_per_msg,
            column_json(slow_spec, &slow.point),
            column_json(slow_spec, &control.point)
        ));
    }
    println!("\nbaseline = the paper's configuration; each row disables one design choice.");
    format!(
        "{{\"nodes\":{n},\"payload_bytes\":{size},\"rows\":[{}],\"records\":[{}]}}",
        rows.join(","),
        records.join(",")
    )
}

/// The §5 lineage: the RDMA consensus systems the paper discusses
/// qualitatively, measured on the common fabric.
fn related(cfg: &PaperConfig) -> String {
    let (n, size) = (3usize, 10usize);
    let spec = RunSpec::quick(System::Acuerdo);
    println!(
        "RDMA consensus lineage on {n} nodes, {size}-byte messages (§5)\n\n\
         system            lat_us(w=1)      sat msg/s   notes"
    );
    let lineage = [
        (System::Dare, "per-write completions; vote-once elections"),
        (System::Apus, "batch acks; single pending batch"),
        (System::DerechoLeader, "virtual synchrony; 2 writes/msg"),
        (System::Acuerdo, "implicit cumulative acks; quorum speed"),
    ];
    let mut rows = Vec::new();
    for (system, note) in lineage {
        let point = |window| {
            let r = Run::new(system, n, size, window, cfg.seed, spec);
            run(&r.observe(observe(cfg, false))).point
        };
        let (low, sat) = (point(1), point(512));
        let (name, lat, ops) = (system.name(), low.mean_us, sat.msgs_per_sec);
        println!("{name:<16} {lat:>12.2} {ops:>14.0}   {note}");
        rows.push(format!(
            "{{\"system\":\"{name}\",\"note\":\"{note}\",\"low_load\":{},\"saturated\":{}}}",
            column_json(spec, &low),
            column_json(spec, &sat)
        ));
    }
    println!("\n(Mu is discussed in §5 but could not run on the paper's RoCE cluster either.)");
    format!(
        "{{\"nodes\":{n},\"payload_bytes\":{size},\"rows\":[{}]}}",
        rows.join(",")
    )
}

/// The quick matrix: the five protocol classes on three nodes at 64-byte
/// messages and two client windows (three at `--full`), every run traced
/// for its stage anatomy and gauge-sampled.
fn quick(cfg: &PaperConfig) -> String {
    let (n, payload) = (3usize, 64usize);
    let windows: &[usize] = if cfg.full { &[1, 8, 64] } else { &[1, 16] };
    println!("Quick matrix: {n} nodes, {payload}-byte messages, traced and gauge-sampled\n");
    let (msgs, mean, p50, p99) = ("msg/s", "mean_us", "p50_us", "p99_us");
    println!(
        "  {:<20} {msgs:>10} {mean:>10} {p50:>10} {p99:>10}",
        "label"
    );
    let mut records = Vec::new();
    for system in QUICK_SYSTEMS {
        let spec = RunSpec::of(system, cfg.full);
        for &w in windows {
            let label = format!("{}-w{w}", system.name());
            let r = Run::new(system, n, payload, w, cfg.seed, spec).observe(observe(cfg, true));
            let out = run(&r);
            let hist = spans::stage_hist(&spans::collect(&out.events));
            let tail = [
                ("stages", hist.to_json()),
                ("gauge_series", gauge_series_json(&out.gauges)),
            ];
            let p = &out.point;
            records.push(run_record_json(&label, &r, p, &out.metrics, &tail));
            println!(
                "  {label:<20} {:>10.0} {:>10.2} {:>10.2} {:>10.2}",
                p.msgs_per_sec, p.mean_us, p.p50_us, p.p99_us
            );
        }
    }
    format!(
        "{{\"nodes\":{n},\"payload_bytes\":{payload},\"sample_every_us\":{},\
         \"windows\":{},\"records\":[{}]}}",
        SAMPLE_EVERY.as_micros(),
        list(windows),
        records.join(",")
    )
}

/// The scale sweep: the [`SCALE_SYSTEMS`] across cluster sizes at one
/// dissemination-bound operating point, gauge-sampled (64-node timelines
/// are too large to trace; `--trace-out` traces the smallest size). At the
/// what-if sizes each record also carries the what-if catalog priced
/// against it ([`whatif::price`]); the section's stdout ends with each
/// priced run's verdict and the `whatif-agree k/N` count.
fn scale(cfg: &PaperConfig) -> String {
    let (sizes, whatif_sizes): (&[usize], &[usize]) = if cfg.full {
        (&SCALE_SIZES, &WHATIF_SIZES)
    } else {
        (&QUICK_SCALE_SIZES, &QUICK_WHATIF_SIZES)
    };
    println!(
        "Scale sweep: {SCALE_PAYLOAD}-byte messages at window {SCALE_WINDOW}; \
         what-if catalog priced at sizes {whatif_sizes:?}\n"
    );
    let (mbps, msgs, mean, p99) = ("MB/s", "msg/s", "mean_us", "p99_us");
    println!(
        "  {:<18} {mbps:>8} {msgs:>10} {mean:>10} {p99:>10}",
        "label"
    );
    let mut records = Vec::new();
    for system in SCALE_SYSTEMS {
        let spec = RunSpec::of(system, cfg.full);
        for &n in sizes.iter().filter(|&&n| swept(system, n)) {
            let label = format!("{}-n{n}", system.name());
            let traced = cfg.trace_out.is_some() && n == sizes[0];
            let r =
                Run::new(system, n, SCALE_PAYLOAD, SCALE_WINDOW, cfg.seed, spec).observe(Observe {
                    traced,
                    gauges: true,
                    ..observe(cfg, false)
                });
            let out = run(&r);
            let mut tail = Vec::new();
            if let (true, Some(base)) = (traced, &cfg.trace_out) {
                let hist = write_trace(base, &label, &out.events, &out.gauges);
                tail.push(("stages", hist.to_json()));
            }
            tail.push(("gauge_series", gauge_series_json(&out.gauges)));
            if whatif_sizes.contains(&n) {
                tail.push(("whatif", whatif::price(&r, &out, &CATALOG)));
            }
            let p = &out.point;
            records.push(run_record_json(&label, &r, p, &out.metrics, &tail));
            println!(
                "  {label:<18} {:>8.2} {:>10.0} {:>10.2} {:>10.2}",
                p.mbps, p.msgs_per_sec, p.mean_us, p.p99_us
            );
        }
    }
    let section = format!(
        "{{\"payload_bytes\":{SCALE_PAYLOAD},\"sample_every_us\":{},\"window\":{SCALE_WINDOW},\
         \"sizes\":{},\"whatif_sizes\":{},\"records\":[{}]}}",
        SAMPLE_EVERY.as_micros(),
        list(sizes),
        list(whatif_sizes),
        records.join(",")
    );
    // The verdicts are read back from the section, as `trace-report
    // --whatif` reads them.
    let doc = Value::Obj(vec![(
        "scale".to_string(),
        json::parse(&section).expect("the scale section parses"),
    )]);
    println!();
    for r in json::records(&doc, "whatif").expect("scale records") {
        let line = whatif::verdict_line(r.system, r.nodes, r.member).expect("a whatif member");
        println!("{line}");
    }
    println!("{}", whatif::agree_line(&doc).expect("whatif members"));
    section
}

/// A JSON array of sizes or windows.
fn list(items: &[usize]) -> String {
    let items: Vec<String> = items.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Summarize a sampled gauge series as one JSON object: per gauge (in
/// registry order, only gauges that produced samples), the sample count and
/// the min/mean/max/p99 of the sampled levels across all nodes.
fn gauge_series_json(samples: &[GaugeSample]) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for g in Gauge::ALL {
        let mut vals: Vec<u64> = samples
            .iter()
            .filter(|s| s.gauge == g)
            .map(|s| s.value)
            .collect();
        if vals.is_empty() {
            continue;
        }
        vals.sort_unstable();
        let count = vals.len();
        let sum: u128 = vals.iter().map(|&v| u128::from(v)).sum();
        let mean = sum as f64 / count as f64;
        let p99 = vals[(count * 99).div_ceil(100) - 1];
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"samples\":{count},\"min\":{},\"max\":{},\"mean\":{mean:.3},\"p99\":{p99}}}",
            g.name(),
            vals[0],
            vals[count - 1],
        ));
    }
    out.push('}');
    out
}

/// The paper's figures drawn from a `paper` document: one
/// `(file name, SVG)` per Figure 8 panel it holds, then `fig9.svg`. The
/// document is read strictly; the error names the first member a figure
/// needs and the document lacks (`fig9.records[2].msgs_per_sec: missing`).
pub fn render_figures(doc: &Value) -> Result<Vec<(String, String)>, String> {
    let mut figures = doc.map_at("fig8.panels", |p| {
        let panel = p.str_at("panel")?;
        let letter = match panel.strip_prefix("fig8") {
            Some(l @ ("a" | "b" | "c" | "d")) => l,
            _ => return Err("panel: not a Figure 8 panel".to_string()),
        };
        let (n, size) = (p.u64_at("nodes")?, p.u64_at("payload_bytes")?);
        let series = p.map_at("sweeps", |s| {
            Ok(Series {
                name: s.str_at("system")?.to_string(),
                points: s.map_at("points", |pt| {
                    Ok((pt.f64_at("throughput_mbps")?, pt.f64_at("mean_us")?))
                })?,
            })
        })?;
        let svg = line_chart(
            &format!("Figure 8{letter}: {n} nodes, {size}-byte messages"),
            "Throughput (MB/sec)",
            "Latency (uSeconds)",
            Scale::Linear,
            Scale::Log,
            &series,
        );
        Ok((format!("{panel}.svg"), svg))
    })?;
    let mut series: Vec<Series> = Vec::new();
    let points = doc.map_at("fig9.records", |r| {
        Ok((
            r.str_at("system")?,
            r.u64_at("nodes")?,
            r.f64_at("msgs_per_sec")?,
        ))
    })?;
    for (system, n, ops) in points {
        let point = (n as f64, ops);
        match series.iter_mut().find(|s| s.name == system) {
            Some(s) => s.points.push(point),
            None => series.push(Series {
                name: system.to_string(),
                points: vec![point],
            }),
        }
    }
    let svg = line_chart(
        "Figure 9: YCSB-load throughput vs node count",
        "Node Count",
        "Throughput (ops/sec)",
        Scale::Linear,
        Scale::Log,
        &series,
    );
    figures.push(("fig9.svg".to_string(), svg));
    Ok(figures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

    fn sample(at: u64, node: usize, g: Gauge, v: u64) -> GaugeSample {
        GaugeSample {
            at: SimTime::from_nanos(at),
            node,
            gauge: g,
            value: v,
        }
    }

    #[test]
    fn gauge_series_summary_is_selective_and_ordered() {
        let samples = vec![
            sample(0, 0, Gauge::InflightMsgs, 4),
            sample(100, 0, Gauge::InflightMsgs, 8),
            sample(100, 1, Gauge::Epoch, 2),
        ];
        let j = gauge_series_json(&samples);
        let v = crate::json::parse(&j).unwrap();
        let inflight = v.get("inflight_msgs").unwrap();
        assert_eq!(inflight.get("samples").unwrap().as_u64(), Some(2));
        assert_eq!(inflight.get("min").unwrap().as_u64(), Some(4));
        assert_eq!(inflight.get("max").unwrap().as_u64(), Some(8));
        assert_eq!(inflight.get("p99").unwrap().as_u64(), Some(8));
        assert_eq!(
            v.get("epoch").unwrap().get("mean").unwrap().as_f64(),
            Some(2.0)
        );
        // Gauges that never sampled are absent entirely.
        assert!(v.get("ring_occupancy").is_none());
    }

    #[test]
    fn scale_and_whatif_sizes_nest_and_end_at_the_ceiling() {
        for (sizes, priced) in [
            (&QUICK_SCALE_SIZES[..], &QUICK_WHATIF_SIZES[..]),
            (&SCALE_SIZES[..], &WHATIF_SIZES[..]),
        ] {
            assert!(sizes.iter().all(|s| SCALE_SIZES.contains(s)));
            assert!(priced.iter().all(|s| sizes.contains(s)));
            assert_eq!(sizes.last(), Some(&64));
            assert_eq!(priced.last(), Some(&64));
            // The smallest size is the one `--trace-out` traces.
            assert_eq!(sizes.iter().min(), Some(&sizes[0]));
        }
        // The scale sweep is the quick matrix plus acuerdo-ring after its
        // star twin, which it only differs from above three nodes.
        assert_eq!(SCALE_SYSTEMS[0], System::Acuerdo);
        assert_eq!(SCALE_SYSTEMS[1], System::AcuerdoRing);
        assert!(QUICK_SYSTEMS.iter().all(|s| SCALE_SYSTEMS.contains(s)));
        assert!(!swept(System::AcuerdoRing, 3) && swept(System::AcuerdoRing, 16));
    }
}
