//! Run the causal what-if matrix (baseline + fixed counterfactual catalog
//! per system × cluster size) and write one schema'd `BENCH_<label>.json`
//! document: per run, the baseline record plus the measured
//! throughput/latency delta of every intervention, the gain ranking, and
//! the agree/disagree cross-check against the tail-blame prediction. The
//! simulator is deterministic, so the document is byte-identical across
//! re-runs of the same configuration — compare against the committed
//! baseline with `bench-diff`, render with `trace-report --whatif`. The
//! last stdout line is the document's `whatif-agree k/N` count.
//!
//! ```text
//! cargo run --release -p bench --bin whatif -- --quick --out baselines
//! cargo run --release -p bench --bin whatif -- --quick --systems acuerdo --sizes 64
//! ```
//!
//! Exit status: 0 on a written document, 2 on usage or I/O errors (or on a
//! document the agree count cannot be read from).

use bench::cli::{parsed, value};
use bench::whatif::{run_whatif, WhatifConfig, CATALOG, WHATIF_SYSTEMS};
use simnet::SchedKind;
use std::process::exit;

fn usage() {
    eprintln!(
        "usage: whatif [--quick] [--out DIR] [--label NAME] [--seed N] [--sched KIND]\n\
         \x20             [--systems A,B] [--sizes N,M] [--interventions X,Y]\n\
         \x20  --quick              sizes 3,64 (the committed baseline) vs 3,16,64\n\
         \x20  --out DIR            output directory (default .)\n\
         \x20  --label NAME         document name BENCH_<NAME>.json (default whatif)\n\
         \x20  --seed N             override the pinned seed (default 42)\n\
         \x20  --sched KIND         event queue: heap | calendar (default calendar)\n\
         \x20  --systems A,B        subset of the matrix by name ({})\n\
         \x20  --sizes N,M          subset of cluster sizes\n\
         \x20  --interventions X,Y  subset of the catalog: {}",
        WHATIF_SYSTEMS.map(|s| s.name()).join(","),
        CATALOG.join(",")
    );
}

fn main() {
    let mut quick = false;
    let mut out_dir = ".".to_string();
    let mut label = "whatif".to_string();
    let mut seed: Option<u64> = None;
    let mut sched: Option<SchedKind> = None;
    let mut systems: Option<Vec<String>> = None;
    let mut sizes: Option<Vec<usize>> = None;
    let mut interventions: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_dir = value(&mut args, "--out", "directory"),
            "--label" => label = value(&mut args, "--label", "name"),
            "--seed" => seed = Some(parsed(&mut args, "--seed", "number")),
            "--sched" => {
                let v = value(&mut args, "--sched", "scheduler kind");
                sched = Some(SchedKind::from_name(&v).unwrap_or_else(|| {
                    eprintln!("--sched needs 'heap' or 'calendar', got '{v}'");
                    exit(2);
                }));
            }
            "--systems" => {
                systems = Some(
                    value(&mut args, "--systems", "list of systems")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                )
            }
            "--sizes" => {
                sizes = Some(
                    value(&mut args, "--sizes", "list of cluster sizes")
                        .split(',')
                        .map(|s| {
                            s.parse().unwrap_or_else(|_| {
                                eprintln!("--sizes needs numbers, got '{s}'");
                                exit(2);
                            })
                        })
                        .collect(),
                )
            }
            "--interventions" => {
                interventions = Some(
                    value(&mut args, "--interventions", "list of interventions")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                )
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
    let mut cfg = WhatifConfig::new(quick);
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(k) = sched {
        cfg.scheduler = k;
    }
    if let Some(names) = systems {
        cfg.systems = names
            .iter()
            .map(|name| {
                WHATIF_SYSTEMS
                    .into_iter()
                    .find(|s| s.name() == name)
                    .unwrap_or_else(|| {
                        eprintln!(
                            "unknown system '{name}' (matrix: {})",
                            WHATIF_SYSTEMS.map(|s| s.name()).join(",")
                        );
                        exit(2);
                    })
            })
            .collect();
    }
    if let Some(s) = sizes {
        cfg.sizes = s;
    }
    if let Some(names) = interventions {
        // Keep catalog order regardless of the flag's order: the document's
        // counterfactual array is fixed-order by contract.
        for name in &names {
            if !CATALOG.contains(&name.as_str()) {
                eprintln!(
                    "unknown intervention '{name}' (catalog: {})",
                    CATALOG.join(",")
                );
                exit(2);
            }
        }
        cfg.interventions = CATALOG
            .into_iter()
            .filter(|c| names.iter().any(|n| n == c))
            .collect();
    }
    let path = format!("{}/BENCH_{label}.json", out_dir.trim_end_matches('/'));
    let doc = run_whatif(&cfg);
    bench::cli::write(&path, &doc);
    println!(
        "wrote {path} ({} systems x {} sizes x {} interventions, window {}, seed {}, sched {})",
        cfg.systems.len(),
        cfg.sizes.len(),
        cfg.interventions.len(),
        cfg.window,
        cfg.seed,
        cfg.scheduler.name()
    );
    match bench::json::parse(&doc).and_then(|v| bench::whatif::agree_line(&v)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{path}: {e}");
            exit(2)
        }
    }
}
