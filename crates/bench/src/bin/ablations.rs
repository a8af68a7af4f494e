//! Ablations of Acuerdo's design choices (DESIGN.md §3): disable one choice
//! at a time and measure the scenario it degrades.
//!
//! ```text
//! cargo run --release -p bench --bin ablations
//! cargo run --release -p bench --bin ablations -- --nodes 3 --size 10 --full
//! ```
//!
//! Three scenarios per configuration:
//! * low-load latency (window 1);
//! * saturated throughput (window 1024) with cluster-wide wire packets per
//!   message (where the 1-vs-2-writes framing and the per-message-ack
//!   choices show up);
//! * throughput with one periodically descheduled follower and small rings
//!   (where the slot-reuse rule binds — §4.1's Derecho comparison).

use bench::cli::{parsed, value};
use bench::{ablation_point, run_record_json, write_metrics_file, Ablation, Run, RunSpec, System};

fn usage() {
    eprintln!(
        "usage: ablations [--nodes N] [--size BYTES] [--full] [--metrics-out PATH]\n\
         metrics records carry a \"util\" resource-utilization summary\n\
         (read it with: trace-report --bottleneck PATH)"
    );
}

fn main() {
    let mut n = 3usize;
    let mut size = 10usize;
    let mut full = false;
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--nodes" => n = parsed(&mut args, "--nodes", "replica count"),
            "--size" => size = parsed(&mut args, "--size", "byte count"),
            "--metrics-out" => metrics_out = Some(value(&mut args, "--metrics-out", "path")),
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
    let spec = RunSpec::of(System::Acuerdo, full);

    println!("Acuerdo design-choice ablations ({n} nodes, {size}-byte messages)");
    println!();
    println!(
        "{:<28} {:>11} {:>12} {:>10} {:>14}",
        "configuration", "lat_us(w=1)", "sat msg/s", "pkts/msg", "slow-flwr msg/s"
    );
    let mut records: Vec<String> = Vec::new();
    for ab in Ablation::all() {
        let at = |window, spec| Run::new(System::Acuerdo, n, size, window, 42, spec);
        let (low, _) = ablation_point(ab, &at(1, spec), false);
        let sat_run = at(256, spec);
        let (sat, sat_metrics) = ablation_point(ab, &sat_run, false);
        if metrics_out.is_some() {
            let (p, m) = (&sat.point, &sat_metrics);
            records.push(run_record_json(ab.name(), &sat_run, p, m, &[]));
        }
        let slow_spec = RunSpec {
            warmup: std::time::Duration::from_millis(2),
            measure: std::time::Duration::from_millis(25),
        };
        let (slow, _) = ablation_point(ab, &at(512, slow_spec), true);
        println!(
            "{:<28} {:>11.2} {:>12.0} {:>10.2} {:>14.0}",
            ab.name(),
            low.point.mean_us,
            sat.point.msgs_per_sec,
            sat.packets_per_msg,
            slow.point.msgs_per_sec
        );
    }
    println!();
    println!("baseline = the paper's configuration; each row disables one design choice.");
    if let Some(path) = &metrics_out {
        write_metrics_file(path, "ablations", 42, &records);
        eprintln!("wrote {path} ({} records)", records.len());
    }
}
