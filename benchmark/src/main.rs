//! Two-clock benchmark of the Acuerdo reproduction.
//!
//! ```text
//! acuerdo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! acuerdo-benchmark compare <dirA> <dirB>
//! ```
//!
//! *Virtual time* is the modelled cluster's clock: deterministic per seed,
//! reported as exact order statistics over raw nanosecond samples. *Host
//! time* is what the simulator costs to run: the identical simulation is
//! repeated R times in this process and the minimum on-CPU time is reported.
//! See `README.md` beside this crate for every workload and metric.

mod compare;
mod echo;
mod host;
mod kernels;
mod layers;
mod loadgen;
mod metrics;
mod stats;
mod workloads;

use acuerdo::DisseminationMode;
use host::Spans;
use metrics::{Values, END_TO_END, PER_LAYER};
use simnet::NetParams;
use stats::Tail;
use std::process::ExitCode;
use workloads::{run_rep, Rep, Spec, SPECS};

/// The `--seconds` at which a workload runs its full repetition count;
/// `run_seconds` in `BENCHMARK.json`. Other values scale the count.
pub const REFERENCE_SECONDS: u64 = 12;

/// Untraced repetitions of the traced invocation: enough for a best-of and
/// a first-repetition ratio, few enough to leave room for the traced
/// repetition, the kernels and the comparison systems.
const TRACED_INVOCATION_REPS: usize = 3;

const USAGE: &str = "usage: acuerdo-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
       acuerdo-benchmark compare <dirA> <dirB>";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload: Option<String> = None;
    let mut seed = 42u64;
    let mut seconds = REFERENCE_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?.to_string()),
            "--seed" => {
                let v = value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds {v}: not a whole number from 1 to 60"))?;
            }
            "--trace" => {
                trace = match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&name).ok_or_else(|| {
        let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    Ok(Args {
        spec: if smoke { spec.smoke() } else { spec },
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Repetitions for this invocation: the workload's R at the reference
/// `--seconds`, scaled in proportion otherwise; one under `--smoke`.
fn repetitions(args: &Args) -> usize {
    if args.smoke {
        return 1;
    }
    let scaled = (args.spec.reps as u64 * args.seconds + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS;
    let reps = (scaled as usize).max(1);
    if args.trace {
        reps.min(TRACED_INVOCATION_REPS)
    } else {
        reps
    }
}

fn delay_model() -> String {
    let p = NetParams::rdma();
    format!(
        "injected delay model NetParams::rdma(): one-way link {} ns + U(0, {} ns) jitter, NIC {} Gb/s ({:.2} GB/s) store-and-forward at both ends, {} B minimum wire size; with it removed latency would be CPU cost only",
        p.default_link.latency.as_nanos(),
        p.default_link.jitter.as_nanos(),
        p.nic.line_rate_gbps,
        p.nic.line_rate_gbps / 8.0,
        p.nic.min_wire_bytes
    )
}

/// The six end-to-end metrics from the untraced repetitions.
fn end_to_end(reps: &[Rep], first_rep_rss_mb: f64, out: &mut Values) -> Result<(), String> {
    let first = &reps[0];
    let (p50, p99) = (
        Tail::of(&first.latencies, 0.50),
        Tail::of(&first.latencies, 0.99),
    );
    println!(
        "commit_p50_us        {:>14.3} us   virtual  {}",
        p50.us(),
        p50.evidence()
    );
    println!(
        "commit_p99_us        {:>14.3} us   virtual  {}",
        p99.us(),
        p99.evidence()
    );
    out.put("commit_p50_us", p50.us());
    out.put("commit_p99_us", p99.us());
    let throughput = first.commits as f64 / first.window.as_secs_f64();
    println!(
        "throughput_msgs_s    {throughput:>14.1} 1/s  virtual  {} commits in {} ms",
        first.commits,
        first.window.as_millis()
    );
    out.put("throughput_msgs_s", throughput);

    let measure: Vec<f64> = reps.iter().map(|r| r.measure_cpu_ns as f64).collect();
    let host_us = stats::best_of(&measure) / 1e3 / first.commits as f64;
    println!(
        "host_us_per_commit   {host_us:>14.4} us   host     best of {} repetitions: {}",
        reps.len(),
        per_rep(&measure, 1e9, "s")
    );
    out.put("host_us_per_commit", host_us);
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_cpu_ns as f64).collect();
    let setup_s = stats::best_of(&setup) / 1e9;
    println!(
        "setup_s              {setup_s:>14.6} s    host     best of {} repetitions: {}",
        reps.len(),
        per_rep(&setup, 1e9, "s")
    );
    out.put("setup_s", setup_s);
    // One simulation's peak. The at-exit figure beside it also holds what the
    // allocator kept of the earlier repetitions' small blocks.
    println!(
        "peak_rss_mb          {first_rep_rss_mb:>14.2} MiB  host     VmHWM after the first repetition; {:.2} MiB at exit",
        host::peak_rss_mb()?
    );
    out.put("peak_rss_mb", first_rep_rss_mb);
    Ok(())
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    format!("\"{}\"", simnet::json_escape(s))
}

fn per_rep(ns: &[f64], div: f64, unit: &str) -> String {
    let v: Vec<String> = ns.iter().map(|x| format!("{:.3}", x / div)).collect();
    format!("[{}] {unit}", v.join(", "))
}

/// The cross-repetition gate: every repetition must reproduce the first.
fn determinism(reps: &[&Rep]) -> Vec<String> {
    let first = reps[0];
    let mut out = Vec::new();
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.digest != first.digest || r.latencies != first.latencies {
            out.push(format!(
                "repetition {i} differs from repetition 0 (digest {:016x} vs {:016x}): the run is not deterministic",
                r.digest, first.digest
            ));
        }
    }
    out
}

/// Bottleneck verdict in the spirit of `trace-report --bottleneck`.
fn verdict(layer: &Values) -> String {
    let cpu = layer.get("simnet.cpu.leader_util_pct").unwrap_or(0.0);
    let nic = layer
        .get("simnet.net.leader_egress_util_pct")
        .unwrap_or(0.0);
    let (what, util) = if nic >= cpu {
        ("leader egress", nic)
    } else {
        ("leader cpu", cpu)
    };
    if util < 30.0 {
        format!("no resource above 30 % ({what} {util:.1} %): latency-bound")
    } else {
        format!("{what} {util:.1} % utilized")
    }
}

/// Whether the workload still sits in the regime it was chosen for. Printed,
/// never gated: an optimisation is allowed to move a workload out of its
/// regime, but whoever reads its numbers afterwards must know.
fn regime(spec: &Spec, layer: &Values) -> String {
    let read = |name: &str| layer.get(name).unwrap_or(0.0);
    let mut left = Vec::new();
    if let Some((name, floor)) = spec.regime {
        if read(name) < floor {
            left.push(format!("{name} {:.1} < {floor}", read(name)));
        }
    }
    let forwards = read("acuerdo.ring_forwards_per_commit");
    if spec.dissemination == DisseminationMode::Star && forwards != 0.0 {
        left.push(format!("{forwards} ring forwards per commit on a star"));
    }
    if left.is_empty() {
        "in the regime it was chosen for".to_string()
    } else {
        format!("LEFT ITS REGIME: {}", left.join("; "))
    }
}

/// Write `benchmark/out/trace-<workload>.json`: every host span with its
/// parent and self time, plus the per-layer values.
fn write_trace(args: &Args, spans: &Spans, layer: &Values) -> Result<String, String> {
    let own = spans.self_ns();
    let mut doc = format!(
        "{{\"workload\":{},\"seed\":{},\"smoke\":{},\"spans\":[",
        quote(args.spec.name),
        args.seed,
        args.smoke
    );
    for (i, s) in spans.all().iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        doc.push_str(&format!(
            "\n{{\"id\":{i},\"name\":{},\"workload\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"self_ns\":{}}}",
            quote(&s.name),
            quote(args.spec.name),
            s.start_ns,
            s.end_ns,
            s.cpu_ns,
            own[i]
        ));
    }
    doc.push_str(&format!(
        "\n],\"per_layer\":{},\"claim\":null}}\n",
        metrics_json(layer)
    ));
    let dir = "benchmark/out";
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = format!("{dir}/trace-{}.json", args.spec.name);
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}

/// `{"<name>": {"value": …, "unit": …}, …}` in registry order.
fn metrics_json(values: &Values) -> String {
    let members: Vec<String> = values
        .in_order()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(d.name),
                quote(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(values)
    )
}

fn run(args: &Args) -> Result<bool, String> {
    host::pin_mmap_threshold();
    let spec = &args.spec;
    let reps_wanted = repetitions(args);
    println!("workload {}: {}", spec.name, spec.why);
    println!("  {}", spec.describe());
    println!(
        "  seed {}, {} untraced repetition(s) of the identical simulation{}{}",
        args.seed,
        reps_wanted,
        if args.trace { " + 1 traced" } else { "" },
        if args.smoke {
            " (smoke: a tenth of the virtual time)"
        } else {
            ""
        }
    );
    println!("  {}", delay_model());
    println!(
        "  simulated figures are unvalidated except lat_3n's median against the paper's ~10 us"
    );

    // Host spans are recorded in the traced invocation only.
    let mut spans = Spans::new(args.trace);
    let mut reps: Vec<Rep> = Vec::with_capacity(reps_wanted);
    let mut first_rep_rss_mb = 0.0;
    for i in 0..reps_wanted {
        // Each repetition's simulator is dropped before the next is built.
        let rep = spans.scope(&format!("rep{i}"), |sp| run_rep(spec, args.seed, false, sp));
        reps.push(rep);
        if i == 0 {
            first_rep_rss_mb = host::peak_rss_mb()?;
        }
    }
    let traced = args
        .trace
        .then(|| spans.scope("rep.traced", |sp| run_rep(spec, args.seed, true, sp)));

    let mut problems: Vec<String> = reps[0].violations.clone();
    let all: Vec<&Rep> = reps.iter().chain(traced.as_ref()).collect();
    problems.extend(determinism(&all));
    if reps[0].latencies.is_empty() || reps[0].commits == 0 {
        return Err("no request committed inside the measure window".to_string());
    }

    println!();
    let first = &reps[0];
    let values = if let Some(traced) = &traced {
        let mut layer = Values::new(&PER_LAYER);
        layers::counts(spec, first, &mut layer);
        layers::host(&reps, &mut layer);
        layers::traced(&reps, traced, &mut layer, &mut spans);
        kernels::run_all(&mut layer, &mut spans);
        layers::comparison_systems(args.seed, &mut layer, &mut spans);
        spans.enter("render");
        for (d, v) in layer.in_order() {
            println!("{:<44} {v:>16.4} {}", d.name, d.unit);
        }
        println!("verdict: {}", verdict(&layer));
        println!("regime: {}", regime(spec, &layer));
        spans.exit();
        let err = spans.accounting_error();
        if err > 0.01 {
            problems.push(format!(
                "host span self-times miss their phase totals by {:.2} %",
                err * 100.0
            ));
        }
        println!("trace written to {}", write_trace(args, &spans, &layer)?);
        layer
    } else {
        let mut e2e = Values::new(&END_TO_END);
        end_to_end(&reps, first_rep_rss_mb, &mut e2e)?;
        e2e
    };
    let missing = values.missing();
    if !missing.is_empty() {
        return Err(format!("metrics not produced: {}", missing.join(", ")));
    }

    println!();
    println!(
        "requests: {} attempted in the window, {} unanswered after the drain; {} faults injected ({} skipped)",
        first.attempted, first.failed, first.faults, first.faults_skipped
    );
    for p in &problems {
        println!("INCORRECT: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "summary {{\"workload\": {}, \"seed\": {}, \"repetitions\": {}, \"measured_commits\": {}, \"digest\": \"{:016x}\", \"correct\": {correct}, \"claim\": null}}",
        quote(spec.name),
        args.seed,
        reps.len(),
        first.commits,
        first.digest
    );
    println!(
        "{}",
        result_line(correct, first.attempted, first.failed, &values)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(format!("compare takes two directories\n{USAGE}")),
        },
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&argv)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("acuerdo-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::json::{self, Value};

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_and_unknown_ones_are_refused() {
        let a = args(&[
            "--workload",
            "ring_16n",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.trace, a.smoke),
            ("ring_16n", 7, 12, true, false)
        );
        let d = args(&["--workload", "lat_3n"]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (42, REFERENCE_SECONDS, false));
        for bad in [
            &["--workload", "lat_3n", "--fast"][..],
            &["--workload", "ring_64n"],
            &["--workload"],
            &["--seed", "1"],
            &["--workload", "lat_3n", "--seed", "x"],
            &["--workload", "lat_3n", "--seconds", "0"],
            &["--workload", "lat_3n", "--seconds", "61"],
            &["--workload", "lat_3n", "--trace", "2"],
            &["lat_3n"],
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn repetitions_follow_seconds() {
        let mut a = args(&["--workload", "lat_3n"]).unwrap();
        assert_eq!(repetitions(&a), 7);
        a.seconds = 6;
        assert_eq!(repetitions(&a), 4);
        a.seconds = 1;
        assert_eq!(repetitions(&a), 1);
        a.seconds = 24;
        assert_eq!(repetitions(&a), 14);
        a.trace = true;
        assert_eq!(repetitions(&a), TRACED_INVOCATION_REPS);
        a.smoke = true;
        assert_eq!(repetitions(&a), 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = Values::new(&END_TO_END);
        for d in &END_TO_END {
            v.put(d.name, 1.5);
        }
        let doc = json::parse(&result_line(true, 10, 0, &v)).unwrap();
        let Value::Obj(members) = &doc else {
            panic!("the result line is not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Obj(m)) = doc.get("metrics") else {
            panic!("no metrics object")
        };
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m[0].1.get("unit").and_then(Value::as_str), Some("us"));
    }
}
