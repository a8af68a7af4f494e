//! Compare a fresh `paper` document against the committed baseline with
//! deterministic-sim-tight thresholds (counters exact, latencies within a
//! formatting-noise epsilon, run records matched by label and system) and
//! fail loudly on any drift.
//!
//! ```text
//! cargo run --release -p bench --bin paper -- --out .
//! cargo run --release -p bench --bin bench-diff -- baselines/BENCH_paper.json BENCH_paper.json
//! ```
//!
//! `--json` swaps the human lines for one machine-readable JSON object on
//! stdout (`{"ok":…,"findings":[…],"warnings":[…]}`); exit status is
//! unchanged, so scripted callers can keep gating on it while parsing the
//! detail. The document shapes and exactness rules are specified in
//! docs/SIDECARS.md.
//!
//! Exit status: 0 when the documents agree (warnings about members the
//! baseline lacks — new instrumentation — are printed but do not fail the
//! gate), 1 on any regression (each offending metric is printed), 2 on
//! usage, parse, or comparability errors.

use bench::diff::diff_files;
use std::process::exit;

fn usage() {
    eprintln!("usage: bench-diff [--json] BASELINE.json CURRENT.json");
}

/// One string-array member of the machine-readable report.
fn json_list(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", simnet::json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

fn main() {
    let mut json_out = false;
    let mut files: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json_out = true,
            "--help" | "-h" => {
                usage();
                exit(0);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                usage();
                exit(2);
            }
            other => files.push(other.to_string()),
        }
    }
    let [baseline, current] = files.as_slice() else {
        usage();
        exit(2);
    };
    let report = diff_files(baseline, current).unwrap_or_else(|e| {
        if json_out {
            println!(
                "{{\"ok\":false,\"comparable\":false,\"error\":\"{}\"}}",
                simnet::json_escape(&e)
            );
        } else {
            eprintln!("bench-diff: {e}");
            eprintln!("bench-diff: document shapes are specified in docs/SIDECARS.md");
        }
        exit(2);
    });
    let ok = report.findings.is_empty();
    if json_out {
        println!(
            "{{\"ok\":{ok},\"comparable\":true,\"baseline\":\"{}\",\"current\":\"{}\",\
             \"findings\":{},\"warnings\":{}}}",
            simnet::json_escape(baseline),
            simnet::json_escape(current),
            json_list(&report.findings),
            json_list(&report.warnings),
        );
        exit(if ok { 0 } else { 1 });
    }
    for w in &report.warnings {
        eprintln!("bench-diff: warning: {w} (refresh the baseline to gate on it)");
    }
    if ok {
        println!("bench-diff: {current} matches {baseline}");
        return;
    }
    eprintln!(
        "bench-diff: {} regression finding(s) comparing {current} against {baseline}:",
        report.findings.len()
    );
    for f in &report.findings {
        eprintln!("  {f}");
    }
    eprintln!("bench-diff: member semantics and exactness rules: docs/SIDECARS.md");
    exit(1);
}
