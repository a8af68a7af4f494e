//! Regenerates Table 1: average Acuerdo election duration (including the
//! diff transfer, excluding failure detection) as a function of replica
//! count, with the old leader repeatedly descheduled and a share of
//! long-latency replicas in the cluster (§4.2).
//!
//! ```text
//! cargo run --release -p bench --bin table1
//! cargo run --release -p bench --bin table1 -- --elections 12 --seed 7
//! cargo run --release -p bench --bin table1 -- --metrics-out table1.metrics.json
//! cargo run --release -p bench --bin table1 -- --trace-out table1.trace.json
//! ```

use abcast::spans;
use bench::cli::{parsed, value};
use bench::{election_experiment, long_latency_count, record_path, write_metrics_file};

fn usage() {
    eprintln!(
        "usage: table1 [--elections N] [--seed N] [--metrics-out PATH] [--trace-out PATH]\n\
         metrics records carry a \"util\" resource-utilization summary\n\
         (read it with: trace-report --bottleneck PATH)"
    );
}

fn main() {
    let mut elections = 8usize;
    let mut seed = 42u64;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--elections" => elections = parsed(&mut args, "--elections", "number"),
            "--seed" => seed = parsed(&mut args, "--seed", "number"),
            "--metrics-out" => metrics_out = Some(value(&mut args, "--metrics-out", "path")),
            "--trace-out" => trace_out = Some(value(&mut args, "--trace-out", "path")),
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
    let mut records: Vec<String> = Vec::new();
    let mut stage_tables: Vec<String> = Vec::new();

    println!("Table 1: average Acuerdo election duration (ms), incl. diff transfer");
    println!("paper:    3 nodes: .3    5 nodes: 6.8    7 nodes: 12.1    9 nodes: 12.6");
    println!();
    println!(
        "{:>7} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "nodes", "long-latency", "elections", "mean_ms", "min_ms", "max_ms"
    );
    let mut short = false;
    for n in [3usize, 5, 7, 9] {
        let out = election_experiment(n, elections, seed, trace_out.is_some());
        let st = &out.stats;
        let stages = trace_out.as_ref().map(|base| {
            let label = format!("n{n}");
            let path = record_path(base, &label);
            bench::cli::write(&path, bench::chrome::write(&out.events, &[]));
            eprintln!("wrote {path} ({} events)", out.events.len());
            let hist = spans::stage_hist(&spans::collect(&out.events));
            stage_tables.push(hist.table(&label));
            hist
        });
        println!(
            "{:>7} {:>12} {:>10} {:>10.2} {:>10.2} {:>12.2}",
            n,
            long_latency_count(n),
            st.count,
            st.mean_ms,
            st.min_ms,
            st.max_ms
        );
        if st.count < elections {
            eprintln!(
                "table1: {n} nodes: measured {} of {elections} elections",
                st.count
            );
            short = true;
        }
        if metrics_out.is_some() {
            // Splice the counters (and stage anatomy) into the stats object.
            let mut rec = st.to_json();
            rec.pop();
            rec.push_str(&format!(",\"metrics\":{}", out.metrics.to_json()));
            if let Some(h) = &stages {
                rec.push_str(&format!(",\"stages\":{}", h.to_json()));
            }
            rec.push('}');
            records.push(rec);
        }
    }
    for t in &stage_tables {
        print!("\n{t}");
    }
    if let Some(path) = &metrics_out {
        write_metrics_file(path, "table1", seed, &records);
        eprintln!("wrote {path} ({} records)", records.len());
    }
    if short {
        // A mean over fewer elections than asked for is not the table's row.
        std::process::exit(1);
    }
}
