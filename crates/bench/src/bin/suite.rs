//! Run the perf-regression observatory's canonical pinned-seed matrix (five
//! systems, fixed windows) and write one schema'd `BENCH_<label>.json`
//! document: throughput/latency points, stage anatomy, counter totals, and
//! gauge-series summaries per run. The simulator is deterministic, so the
//! document is byte-identical across re-runs of the same configuration —
//! compare against the committed baseline with `bench-diff`.
//!
//! ```text
//! cargo run --release -p bench --bin suite -- --quick --out baselines
//! cargo run --release -p bench --bin suite -- --quick --slow 1.5 --label slowed
//! ```
//!
//! Exit status: 0 on a written document, 2 on usage or I/O errors.

use acuerdo::DisseminationMode;
use bench::cli::{dissemination, parsed, value};
use bench::suite::{run_suite, SuiteConfig};
use simnet::SchedKind;
use std::process::exit;

fn usage() {
    eprintln!(
        "usage: suite [--quick] [--out DIR] [--label NAME] [--seed N] [--slow SCALE] [--sched KIND]\n\
         \x20            [--dissemination MODE]\n\
         \x20  --quick        smoke-sized measurement windows (the CI matrix)\n\
         \x20  --out DIR      output directory (default .)\n\
         \x20  --label NAME   document name BENCH_<NAME>.json (default quick/full)\n\
         \x20  --seed N       override the pinned seed (default 42)\n\
         \x20  --slow SCALE   inject a leader CPU slowdown (regression demo)\n\
         \x20  --dissemination MODE  acuerdo topology: star (default) | ring\n\
         \x20                 (ring swaps the acuerdo row for acuerdo-ring)\n\
         \x20  --sched KIND   event queue: heap | calendar (default calendar;\n\
         \x20                 can never change the document — differential knob)"
    );
}

fn main() {
    let mut cfg = SuiteConfig::new(false);
    let mut quick = false;
    let mut out_dir = ".".to_string();
    let mut label: Option<String> = None;
    let mut ring = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_dir = value(&mut args, "--out", "directory"),
            "--label" => label = Some(value(&mut args, "--label", "name")),
            "--seed" => cfg.seed = parsed(&mut args, "--seed", "number"),
            "--slow" => {
                let v: f64 = parsed(&mut args, "--slow", "scale factor");
                if !(v.is_finite() && v > 0.0) {
                    eprintln!("--slow needs a positive scale factor");
                    exit(2);
                }
                cfg.cpu_scale = Some(v);
            }
            "--sched" => {
                let v = value(&mut args, "--sched", "scheduler kind");
                cfg.scheduler = SchedKind::from_name(&v).unwrap_or_else(|| {
                    eprintln!("--sched needs 'heap' or 'calendar', got '{v}'");
                    exit(2);
                });
            }
            "--dissemination" => {
                ring = dissemination(&mut args, false) == Some(DisseminationMode::Ring);
            }
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
    if quick {
        let seed = cfg.seed;
        let scale = cfg.cpu_scale;
        let sched = cfg.scheduler;
        cfg = SuiteConfig::new(true);
        cfg.seed = seed;
        cfg.cpu_scale = scale;
        cfg.scheduler = sched;
    }
    if ring {
        for s in &mut cfg.systems {
            if *s == bench::System::Acuerdo {
                *s = bench::System::AcuerdoRing;
            }
        }
    }
    let label = label.unwrap_or_else(|| if quick { "quick" } else { "full" }.to_string());
    let path = format!("{}/BENCH_{label}.json", out_dir.trim_end_matches('/'));
    let doc = run_suite(&cfg);
    bench::cli::write(&path, &doc);
    println!(
        "wrote {path} ({} systems x {} windows, seed {}{})",
        cfg.systems.len(),
        cfg.windows.len(),
        cfg.seed,
        match cfg.cpu_scale {
            Some(s) => format!(", leader cpu x{s}"),
            None => String::new(),
        }
    );
}
