//! Run the 64-node scalability study: five systems swept across cluster
//! sizes at one fixed window, written as one schema'd `BENCH_<label>.json`
//! document (compare against `baselines/BENCH_scale.json` with
//! `bench-diff`). The simulator is deterministic, so the document is
//! byte-identical across re-runs of the same configuration.
//!
//! ```text
//! cargo run --release -p bench --bin scale -- --quick --out baselines
//! cargo run --release -p bench --bin scale -- --full
//! cargo run --release -p bench --bin scale -- --quick --metrics-out scale.metrics.json
//! cargo run --release -p bench --bin scale -- --quick --sizes 3,9 --trace-out scale.trace.json
//! ```
//!
//! Exit status: 0 on a written document, 2 on usage or I/O errors.

use abcast::spans;
use acuerdo::DisseminationMode;
use bench::cli::{dissemination, parsed, value};
use bench::scale::{run_scale, ScaleConfig};
use bench::{record_path, run, run_record_json, Observe, Run, RunSpec};
use simnet::SchedKind;
use std::process::exit;

fn usage() {
    eprintln!(
        "usage: scale [--quick|--full] [--out DIR] [--label NAME] [--seed N] [--sizes A,B,...]\n\
         \x20            [--dissemination MODE] [--sched KIND] [--metrics-out PATH] [--trace-out PATH]\n\
         \x20  --quick             down-sampled sizes + smoke windows (CI; the committed baseline)\n\
         \x20  --full              the full {{3,5,7,9,16,32,64}} sweep (default)\n\
         \x20  --dissemination MODE  acuerdo topology rows: star | ring | both (default both)\n\
         \x20  --out DIR           output directory (default .)\n\
         \x20  --label NAME        document name BENCH_<NAME>.json (default scale/scale-full)\n\
         \x20  --seed N            override the pinned seed (default 42)\n\
         \x20  --sizes A,B,...     override the swept cluster sizes\n\
         \x20  --sched KIND        event queue: heap | calendar (default calendar;\n\
         \x20                      can never change the document — differential knob)\n\
         \x20  --metrics-out PATH  also write the per-run metrics sidecar\n\
         \x20  --trace-out PATH    re-run the smallest size traced, write Chrome traces"
    );
}

fn main() {
    let mut quick = false;
    let mut full = false;
    let mut out_dir = ".".to_string();
    let mut label: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut sizes: Option<Vec<usize>> = None;
    let mut sched = SchedKind::default();
    let mut topology = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--full" => full = true,
            "--out" => out_dir = value(&mut args, "--out", "directory"),
            "--label" => label = Some(value(&mut args, "--label", "name")),
            "--seed" => seed = Some(parsed(&mut args, "--seed", "number")),
            "--sizes" => {
                let raw = value(&mut args, "--sizes", "list of cluster sizes");
                let parsed: Result<Vec<usize>, _> =
                    raw.split(',').map(|s| s.trim().parse()).collect();
                match parsed {
                    Ok(v) if !v.is_empty() && v.iter().all(|&n| n >= 1) => sizes = Some(v),
                    _ => {
                        eprintln!("--sizes needs a comma-separated list of cluster sizes >= 1");
                        exit(2);
                    }
                }
            }
            "--sched" => {
                let v = value(&mut args, "--sched", "scheduler kind");
                sched = SchedKind::from_name(&v).unwrap_or_else(|| {
                    eprintln!("--sched needs 'heap' or 'calendar', got '{v}'");
                    exit(2);
                });
            }
            "--dissemination" => topology = dissemination(&mut args, true),
            "--metrics-out" => metrics_out = Some(value(&mut args, "--metrics-out", "path")),
            "--trace-out" => trace_out = Some(value(&mut args, "--trace-out", "path")),
            "--help" | "-h" => {
                usage();
                exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
                exit(2);
            }
        }
    }
    if quick && full {
        eprintln!("--quick and --full are mutually exclusive");
        exit(2);
    }
    let mut cfg = ScaleConfig::new(quick);
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(s) = sizes {
        cfg.sizes = s;
    }
    cfg.scheduler = sched;
    match topology {
        Some(DisseminationMode::Star) => cfg.systems.retain(|s| *s != bench::System::AcuerdoRing),
        Some(DisseminationMode::Ring) => cfg.systems.retain(|s| *s != bench::System::Acuerdo),
        None => {}
    }

    let label = label.unwrap_or_else(|| if quick { "scale" } else { "scale-full" }.to_string());
    let path = format!("{}/BENCH_{label}.json", out_dir.trim_end_matches('/'));
    let doc = run_scale(&cfg);
    bench::cli::write(&path, &doc);
    println!(
        "wrote {path} ({} systems x {} sizes, window {}, seed {}, sched {})",
        cfg.systems.len(),
        cfg.sizes.len(),
        cfg.window,
        cfg.seed,
        cfg.scheduler.name()
    );

    // Sidecars follow the paper run's conventions: --metrics-out gets one
    // record per (system, size); --trace-out re-runs the smallest size of
    // every system traced (64-node timelines are enormous) and writes one
    // Chrome trace per record.
    if metrics_out.is_some() || trace_out.is_some() {
        let mut records = Vec::new();
        for &system in &cfg.systems {
            let spec = RunSpec::of(system, !cfg.quick);
            for &n in &cfg.sizes {
                let trace_this = trace_out.is_some() && Some(&n) == cfg.sizes.iter().min();
                let label = format!("{}-n{}", system.name(), n);
                let r =
                    Run::new(system, n, cfg.payload, cfg.window, cfg.seed, spec).observe(Observe {
                        traced: trace_this,
                        sample_every: Some(cfg.sample_every),
                        scheduler: cfg.scheduler,
                        ..Observe::default()
                    });
                let out = run(&r);
                let stages = trace_this.then(|| {
                    let hist = spans::stage_hist(&spans::collect(&out.events));
                    ("stages", hist.to_json())
                });
                if trace_this {
                    let base = trace_out.as_deref().expect("trace_this implies trace_out");
                    let path = record_path(base, &label);
                    let doc = bench::chrome::write(&out.events, &out.gauges);
                    bench::cli::write(&path, doc);
                    eprintln!(
                        "wrote {path} ({} events, {} gauge samples)",
                        out.events.len(),
                        out.gauges.len()
                    );
                }
                let (p, m) = (&out.point, &out.metrics);
                records.push(run_record_json(&label, &r, p, m, stages.as_slice()));
            }
        }
        if let Some(path) = &metrics_out {
            bench::write_metrics_file(path, "scale", cfg.seed, &records);
            eprintln!("wrote {path} ({} records)", records.len());
        }
    }
}
