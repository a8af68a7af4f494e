//! Renders the paper's figures as SVG files under `figures/` from a `paper`
//! document; it runs no simulation.
//!
//! ```text
//! cargo run --release -p bench --bin figures                      # baselines/BENCH_paper.json
//! cargo run --release -p bench --bin figures -- BENCH_paper.json
//! ```
//!
//! Produces `fig8a.svg` … `fig8d.svg` (latency vs throughput, log-y, the
//! paper's axes) and `fig9.svg` (YCSB ops/s vs node count, log-y).
//!
//! Exit status: 0 when every figure was written, 2 on a usage error, a
//! document that cannot be read, one that lacks a member a figure needs
//! (named: `fig9.records[2].msgs_per_sec: missing`), or a file that cannot
//! be written.

use bench::cli::write;
use bench::json::read_doc;
use bench::paper::render_figures;
use std::path::PathBuf;
use std::process::exit;

fn usage() {
    eprintln!("usage: figures [DOC]   (default baselines/BENCH_paper.json)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [] => "baselines/BENCH_paper.json",
        [h] if h == "--help" || h == "-h" => {
            usage();
            exit(0)
        }
        [doc] if !doc.starts_with('-') => doc,
        _ => {
            if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
                eprintln!("unknown flag {flag}");
            }
            usage();
            exit(2)
        }
    };
    let figures = read_doc(path)
        .and_then(|doc| render_figures(&doc).map_err(|e| format!("{path}: {e}")))
        .unwrap_or_else(|e| {
            eprintln!("figures: {e}");
            exit(2)
        });
    let out = PathBuf::from("figures");
    // A directory that cannot be made fails the first write, by name.
    let _ = std::fs::create_dir_all(&out);
    for (name, svg) in figures {
        let path = out.join(name);
        write(&path, svg);
        println!("wrote {}", path.display());
    }
}
