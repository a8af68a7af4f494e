//! Regenerates Figure 9: YCSB-load throughput (ops/sec) on the replicated
//! hash table as a function of node count, for acuerdo / zookeeper / etcd.
//!
//! ```text
//! cargo run --release -p bench --bin fig9
//! cargo run --release -p bench --bin fig9 -- --full
//! cargo run --release -p bench --bin fig9 -- --metrics-out fig9.metrics.json
//! cargo run --release -p bench --bin fig9 -- --trace-out fig9.trace.json
//! ```

use abcast::spans;
use bench::cli::{parsed, value};
use bench::{
    record_path, run, run_record_json, write_metrics_file, Observe, Run, RunSpec, FIG9_SYSTEMS,
};

fn usage() {
    eprintln!(
        "usage: fig9 [--full] [--seed N] [--metrics-out PATH] [--trace-out PATH]\n\
         metrics records carry a \"util\" resource-utilization summary\n\
         (read it with: trace-report --bottleneck PATH)"
    );
}

fn main() {
    let mut full = false;
    let mut seed = 42u64;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--full" => full = true,
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
    println!("Figure 9: YCSB-load throughput (ops/sec) vs node count");
    println!("paper shape: acuerdo ~10x zookeeper, ~50x etcd, log-scale axis\n");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>14} {:>14}",
        "nodes", "acuerdo", "zookeeper", "etcd", "acuerdo/zk", "acuerdo/etcd"
    );
    for n in [3usize, 5, 7, 9] {
        let mut vals = Vec::new();
        for s in FIG9_SYSTEMS {
            let spec = RunSpec::fig9(s, full);
            let label = format!("{}_n{n}", s.name());
            let obs = if trace_out.is_some() {
                Observe::traced()
            } else {
                Observe::default()
            };
            let r = Run::ycsb(s, n, seed, spec)
                .expect("a figure 9 system")
                .observe(obs);
            let out = run(&r);
            let stages = trace_out.as_ref().map(|base| {
                let path = record_path(base, &label);
                let doc = bench::chrome::write(&out.events, &out.gauges);
                bench::cli::write(&path, doc);
                eprintln!("wrote {path} ({} events)", out.events.len());
                (
                    "stages",
                    spans::stage_hist(&spans::collect(&out.events)).to_json(),
                )
            });
            if metrics_out.is_some() {
                let (p, m) = (&out.point, &out.metrics);
                records.push(run_record_json(&label, &r, p, m, stages.as_slice()));
            }
            vals.push(out.point.msgs_per_sec);
        }
        let (ac, et, zk) = (vals[0], vals[1], vals[2]);
        println!(
            "{:>7} {:>12.0} {:>12.0} {:>12.0} {:>13.1}x {:>13.1}x",
            n,
            ac,
            zk,
            et,
            ac / zk,
            ac / et
        );
    }
    if let Some(path) = &metrics_out {
        write_metrics_file(path, "fig9", seed, &records);
        eprintln!("wrote {path} ({} records)", records.len());
    }
}
