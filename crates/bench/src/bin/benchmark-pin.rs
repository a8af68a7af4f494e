//! Pin the benchmark's virtual-time results to the newest committed
//! trajectory (`baselines/BENCHMARK_<pr>.json`, docs/SIDECARS.md).
//!
//! Virtual time is deterministic per seed and does not depend on
//! `--seconds`, so a short run of each workload must reproduce
//! `change.trace0` of the last PR that recorded one, to the last digit, in
//! `commit_p50_us`, `commit_p99_us`, `throughput_msgs_s`, `attempted` and
//! `failed`. The host-time members are not compared (they are one reading
//! of a noisy clock).
//!
//! ```text
//! for w in lat_3n ycsb_3n star_16n ring_16n failover_5n; do
//!   bash benchmark/run.sh --workload $w --seed 42 --seconds 2 --trace 0 \
//!     | tail -n 1 > pin/$w.json
//! done
//! cargo run --release -p bench --bin benchmark-pin -- --results pin
//! ```
//!
//! Exit status: 0 when every workload of the trajectory agrees, 1 on any
//! difference (each member is printed with both values), 2 on usage or
//! parse errors. The runs must use the seed the trajectory was recorded at
//! (its `seed` member, printed with the verdict).

use bench::json::{read_doc, Value};
use std::process::exit;

/// The members that are exact: the result's own counts, then metrics.
const COUNTS: [&str; 2] = ["attempted", "failed"];
const METRICS: [&str; 3] = ["commit_p50_us", "commit_p99_us", "throughput_msgs_s"];

fn usage() {
    eprintln!("usage: benchmark-pin [--baselines DIR] --results DIR");
    eprintln!("  DIR/<workload>.json holds the last stdout line of one `--trace 0` run");
}

/// The trajectory with the highest PR number in `dir`.
fn newest_trajectory(dir: &str) -> Result<String, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|name| {
            let pr = name.strip_prefix("BENCHMARK_")?.strip_suffix(".json")?;
            Some((pr.parse::<u64>().ok()?, name))
        })
        .max()
        .map(|(_, name)| format!("{dir}/{name}"))
        .ok_or_else(|| format!("no BENCHMARK_<pr>.json under {dir}"))
}

/// Every pinned member of `result` that differs from `want` (a missing one
/// differs), as `"<workload> <member>: baseline <x>, run <y>"`.
fn findings(workload: &str, want: &Value, result: &Value) -> Vec<String> {
    let paths = COUNTS
        .iter()
        .map(|c| (*c, c.to_string()))
        .chain(METRICS.iter().map(|m| (*m, format!("metrics.{m}.value"))));
    let mut out = Vec::new();
    for (name, path) in paths {
        let show = |v: Option<&Value>| match v.and_then(Value::as_f64) {
            Some(n) => format!("{n}"),
            None => "missing".to_string(),
        };
        let (a, b) = (want.at(&path).ok(), result.at(&path).ok());
        if a.and_then(Value::as_f64).is_none() || a != b {
            out.push(format!(
                "{workload} {name}: baseline {}, run {}",
                show(a),
                show(b)
            ));
        }
    }
    out
}

fn main() {
    let mut baselines = "baselines".to_string();
    let mut results = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baselines" => baselines = bench::cli::value(&mut args, "--baselines", "directory"),
            "--results" => results = Some(bench::cli::value(&mut args, "--results", "directory")),
            "--help" | "-h" => {
                usage();
                exit(0);
            }
            other => {
                eprintln!("unknown argument {other}");
                usage();
                exit(2);
            }
        }
    }
    let Some(results) = results else {
        usage();
        exit(2);
    };
    let fail = |e: String| -> ! {
        eprintln!("benchmark-pin: {e}");
        exit(2)
    };
    let path = newest_trajectory(&baselines).unwrap_or_else(|e| fail(e));
    let doc = read_doc(&path).unwrap_or_else(|e| fail(e));
    let Ok(seed) = doc.u64_at("seed") else {
        fail(format!("{path}: no seed (docs/SIDECARS.md)"));
    };
    let Ok(Value::Obj(workloads)) = doc.at("change.trace0") else {
        fail(format!("{path}: no change.trace0 (docs/SIDECARS.md)"));
    };
    let mut all = Vec::new();
    for (workload, want) in workloads {
        let result = read_doc(&format!("{results}/{workload}.json")).unwrap_or_else(|e| fail(e));
        all.extend(findings(workload, want, &result));
    }
    for f in &all {
        println!("MOVED {f}");
    }
    println!(
        "benchmark-pin: {} workloads against {path} (--seed {seed}): {}",
        workloads.len(),
        if all.is_empty() {
            "identical".to_string()
        } else {
            format!("{} members moved", all.len())
        }
    );
    exit(i32::from(!all.is_empty()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::json::parse;

    const LINE: &str = r#"{"correct": true, "attempted": 2338, "failed": 0, "metrics": {
        "commit_p50_us": {"value": 342.334, "unit": "us"},
        "commit_p99_us": {"value": 342.782, "unit": "us"},
        "throughput_msgs_s": {"value": 23380, "unit": "1/s"},
        "host_us_per_commit": {"value": 401.08, "unit": "us"}}}"#;

    #[test]
    fn equal_virtual_time_members_pass_whatever_the_host_clock_read() {
        let want = parse(LINE).unwrap();
        let run = parse(&LINE.replace("401.08", "227.3")).unwrap();
        assert!(findings("star_16n", &want, &run).is_empty());
    }

    #[test]
    fn a_last_digit_or_a_missing_member_is_a_finding() {
        let want = parse(LINE).unwrap();
        let moved = parse(&LINE.replace("342.782", "342.783")).unwrap();
        assert_eq!(
            findings("star_16n", &want, &moved),
            ["star_16n commit_p99_us: baseline 342.782, run 342.783"]
        );
        let failed = parse(&LINE.replace("\"failed\": 0", "\"failed\": 3")).unwrap();
        assert_eq!(
            findings("star_16n", &want, &failed),
            ["star_16n failed: baseline 0, run 3"]
        );
        let short = parse(r#"{"correct": false, "attempted": 2338, "failed": 0}"#).unwrap();
        assert_eq!(findings("star_16n", &want, &short).len(), 3);
        // A baseline that lacks a member pins nothing by it: say so.
        assert_eq!(findings("star_16n", &short, &short).len(), 3);
    }

    #[test]
    fn newest_trajectory_is_the_highest_pr_number() {
        let dir = std::env::temp_dir().join(format!("benchmark-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["BENCHMARK_9.json", "BENCHMARK_17.json", "BENCH_paper.json"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let d = dir.to_str().unwrap();
        assert_eq!(
            newest_trajectory(d).unwrap(),
            format!("{d}/BENCHMARK_17.json")
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(newest_trajectory(d).is_err());
    }
}
