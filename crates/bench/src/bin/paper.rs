//! The paper's evaluation in one run: Figure 8 (a–d), Table 1, Figure 9,
//! the design-choice ablations and the §5 lineage, then the quick matrix
//! and the scale sweep with its what-if pricing, printed as tables and
//! written as one `BENCH_paper.json` document (compare it against
//! `baselines/BENCH_paper.json` with `bench-diff`; draw the SVGs from it
//! with `figures`; render its analyses with `trace-report`). The last
//! stdout line of a run with the scale section is its `whatif-agree k/N`
//! count.
//!
//! ```text
//! cargo run --release -p bench --bin paper                      # all sections, quick
//! cargo run --release -p bench --bin paper -- --out baselines   # regenerate the baseline
//! cargo run --release -p bench --bin paper -- --full            # paper-scale sweeps
//! cargo run --release -p bench --bin paper -- --only fig8a --trace-out fig8.trace.json
//! cargo run --release -p bench --bin paper -- --sched heap --out heap     # the queue oracle
//! ```
//!
//! Exit status: 0 on a written document, 1 when a Table 1 row measured
//! fewer elections than it asked for (the document is still written), 2 on
//! usage or I/O errors.

use bench::cli::{parsed, scheduler, value};
use bench::paper::{run_paper, PaperConfig, SECTIONS};
use std::process::exit;

fn usage() {
    eprintln!(
        "usage: paper [--full] [--seed N] [--out DIR] [--trace-out BASE] [--only SECTION]\n\
         \x20            [--sched KIND]\n\
         \x20  --full            paper-scale sweeps and measurement windows\n\
         \x20  --seed N          simulation seed (default 42)\n\
         \x20  --out DIR         where BENCH_paper.json (BENCH_paper-SECTION.json) goes (default .)\n\
         \x20  --trace-out BASE  one Chrome trace per fig8/table1/fig9 record and per scale\n\
         \x20                    record at the smallest size (all: ~1.4 GB)\n\
         \x20  --only SECTION    one of {SECTIONS}\n\
         \x20  --sched KIND      event queue of every run: calendar (default) or heap;\n\
         \x20                    never changes the document"
    );
}

fn main() {
    let mut cfg = PaperConfig {
        seed: 42,
        ..PaperConfig::default()
    };
    let mut out_dir = ".".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--full" => cfg.full = true,
            "--seed" => cfg.seed = parsed(&mut args, "--seed", "number"),
            "--out" => out_dir = value(&mut args, "--out", "directory"),
            "--trace-out" => cfg.trace_out = Some(value(&mut args, "--trace-out", "path")),
            "--only" => {
                let what = format!("section ({SECTIONS})");
                let v = value(&mut args, "--only", &what);
                if !SECTIONS.split('|').any(|s| s == v) {
                    eprintln!("--only needs a {what}");
                    exit(2);
                }
                cfg.only = Some(v);
            }
            "--sched" => cfg.scheduler = scheduler(&mut args),
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
    let name = match &cfg.only {
        Some(section) => format!("BENCH_paper-{section}.json"),
        None => "BENCH_paper.json".to_string(),
    };
    let path = format!("{}/{name}", out_dir.trim_end_matches('/'));
    let (doc, short) = run_paper(&cfg);
    bench::cli::write(&path, doc);
    eprintln!("wrote {path}");
    if short {
        // A mean over fewer elections than asked for is not the table's row.
        exit(1);
    }
}
