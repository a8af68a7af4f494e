//! Renders the paper's figures as SVG files under `figures/`.
//!
//! ```text
//! cargo run --release -p bench --bin figures            # quick sweeps
//! cargo run --release -p bench --bin figures -- --full  # paper-scale
//! ```
//!
//! Produces `fig8a.svg` … `fig8d.svg` (latency vs throughput, log-y, the
//! paper's axes) and `fig9.svg` (YCSB ops/s vs node count, log-y).

use bench::cli::write;
use bench::plot::{line_chart, Scale, Series};
use bench::{run, sweep, Run, RunSpec, System, FIG9_SYSTEMS};
use std::path::PathBuf;

fn usage() {
    eprintln!("usage: figures [--full]");
}

fn main() {
    let mut full = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => full = true,
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                usage();
                std::process::exit(2);
            }
        }
    }
    let out = PathBuf::from("figures");
    // A directory that cannot be made fails the first write, by name.
    let _ = std::fs::create_dir_all(&out);
    let max_log2 = if full { 14 } else { 12 };

    for (panel, n, size) in [
        ("fig8a", 3usize, 10usize),
        ("fig8b", 3, 1000),
        ("fig8c", 7, 10),
        ("fig8d", 7, 1000),
    ] {
        let mut series = Vec::new();
        for system in System::all() {
            let spec = RunSpec::of(system, full);
            let pts = sweep(system, n, size, max_log2, 42, spec);
            series.push(Series {
                name: system.name().to_string(),
                points: pts.iter().map(|p| (p.mbps, p.mean_us)).collect(),
            });
            eprintln!(
                "{panel}: {} done ({} points)",
                system.name(),
                series.last().unwrap().points.len()
            );
        }
        let path = out.join(format!("{panel}.svg"));
        let svg = line_chart(
            &format!("Figure 8{}: {n} nodes, {size}-byte messages", &panel[4..]),
            "Throughput (MB/sec)",
            "Latency (uSeconds)",
            Scale::Linear,
            Scale::Log,
            &series,
        );
        write(&path, svg);
        println!("wrote {}", path.display());
    }

    // Figure 9.
    let mut series = vec![
        Series {
            name: "acuerdo".into(),
            points: vec![],
        },
        Series {
            name: "etcd".into(),
            points: vec![],
        },
        Series {
            name: "zookeeper".into(),
            points: vec![],
        },
    ];
    for n in [3usize, 5, 7, 9] {
        for (i, sys) in FIG9_SYSTEMS.into_iter().enumerate() {
            let r = Run::ycsb(sys, n, 42, RunSpec::fig9(sys, full)).expect("a figure 9 system");
            series[i]
                .points
                .push((n as f64, run(&r).point.msgs_per_sec));
        }
        eprintln!("fig9: {n} nodes done");
    }
    let path = out.join("fig9.svg");
    let svg = line_chart(
        "Figure 9: YCSB-load throughput vs node count",
        "Node Count",
        "Throughput (ops/sec)",
        Scale::Linear,
        Scale::Log,
        &series,
    );
    write(&path, svg);
    println!("wrote {}", path.display());
}
