//! Regenerates Figure 8 (a–d): broadcast latency vs throughput under a
//! swept client window, for all seven systems.
//!
//! ```text
//! cargo run --release -p bench --bin fig8                   # all four panels, quick
//! cargo run --release -p bench --bin fig8 -- --nodes 3 --size 10
//! cargo run --release -p bench --bin fig8 -- --full         # paper-scale sweeps
//! cargo run --release -p bench --bin fig8 -- --csv          # machine-readable
//! cargo run --release -p bench --bin fig8 -- --metrics-out fig8.metrics.json
//! cargo run --release -p bench --bin fig8 -- --trace-out fig8.trace.json
//! ```

use abcast::spans;
use bench::cli::{parsed, value};
use bench::{
    record_path, run, run_record_json, sweep, write_metrics_file, Observe, Run, RunSpec, System,
};

struct Args {
    nodes: Vec<usize>,
    sizes: Vec<usize>,
    full: bool,
    csv: bool,
    seed: u64,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

fn usage() {
    eprintln!(
        "usage: fig8 [--nodes N] [--size BYTES] [--seed N] [--full] [--csv]\n\
         \x20           [--metrics-out PATH] [--trace-out PATH]\n\
         metrics records carry a \"util\" resource-utilization summary\n\
         (read it with: trace-report --bottleneck PATH)"
    );
}

fn parse() -> Args {
    let mut a = Args {
        nodes: vec![3, 7],
        sizes: vec![10, 1000],
        full: false,
        csv: false,
        seed: 42,
        metrics_out: None,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--nodes" => a.nodes = vec![parsed(&mut args, "--nodes", "replica count")],
            "--size" => a.sizes = vec![parsed(&mut args, "--size", "byte count")],
            "--seed" => a.seed = parsed(&mut args, "--seed", "number"),
            "--metrics-out" => a.metrics_out = Some(value(&mut args, "--metrics-out", "path")),
            "--trace-out" => a.trace_out = Some(value(&mut args, "--trace-out", "path")),
            "--full" => a.full = true,
            "--csv" => a.csv = true,
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
    a
}

fn main() {
    let args = parse();
    let max_log2 = if args.full { 14 } else { 12 };
    let mut records: Vec<String> = Vec::new();
    if args.csv {
        println!("panel,system,window,throughput_mbps,msgs_per_sec,mean_us,p50_us,p99_us");
    }
    for &n in &args.nodes {
        for &size in &args.sizes {
            let panel = format!("{n}nodes_{size}B");
            if !args.csv {
                println!("\n=== Figure 8 panel: {n} nodes, {size}-byte messages ===");
            }
            for system in System::all() {
                let spec = RunSpec::of(system, args.full);
                let pts = sweep(system, n, size, max_log2, args.seed, spec);
                if args.metrics_out.is_some() || args.trace_out.is_some() {
                    // Re-run the saturated point to capture its counters
                    // (same seed, so the run is bit-identical to the sweep's;
                    // tracing never perturbs scheduling).
                    let w = pts.last().map_or(1, |p| p.window);
                    let label = format!("{panel}_{}", system.name());
                    let obs = if args.trace_out.is_some() {
                        Observe::traced()
                    } else {
                        Observe::default()
                    };
                    let r = Run::new(system, n, size, w, args.seed, spec).observe(obs);
                    let out = run(&r);
                    let stages = args.trace_out.as_ref().map(|base| {
                        let path = record_path(base, &label);
                        let doc = bench::chrome::write(&out.events, &out.gauges);
                        bench::cli::write(&path, doc);
                        eprintln!(
                            "wrote {path} ({} events, {} gauge samples)",
                            out.events.len(),
                            out.gauges.len()
                        );
                        let hist = spans::stage_hist(&spans::collect(&out.events));
                        if !args.csv {
                            print!("\n{}", hist.table(&label));
                        }
                        ("stages", hist.to_json())
                    });
                    if args.metrics_out.is_some() {
                        let (p, m) = (&out.point, &out.metrics);
                        records.push(run_record_json(&panel, &r, p, m, stages.as_slice()));
                    }
                }
                if args.csv {
                    for p in &pts {
                        println!(
                            "{panel},{},{},{:.4},{:.0},{:.2},{:.2},{:.2}",
                            system.name(),
                            p.window,
                            p.mbps,
                            p.msgs_per_sec,
                            p.mean_us,
                            p.p50_us,
                            p.p99_us
                        );
                    }
                } else {
                    println!(
                        "\n  {:<16} window  MB/s      msg/s      mean_us   p99_us",
                        system.name()
                    );
                    for p in &pts {
                        println!(
                            "  {:<16} {:>6}  {:>8.3}  {:>9.0}  {:>8.2}  {:>8.2}",
                            "", p.window, p.mbps, p.msgs_per_sec, p.mean_us, p.p99_us
                        );
                    }
                }
            }
        }
    }
    if let Some(path) = &args.metrics_out {
        write_metrics_file(path, "fig8", args.seed, &records);
        eprintln!("wrote {path} ({} records)", records.len());
    }
}
