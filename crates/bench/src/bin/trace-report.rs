//! Analyze a Chrome trace file written by any `--trace-out` flag (`paper`,
//! `chaos`; read back by [`bench::chrome::load`]):
//! reassemble message lifecycles, print the per-stage commit-latency anatomy
//! with its quorum-wait / wire / CPU breakdown, sample the p50 and p99
//! critical paths, and list the heaviest network links.
//!
//! ```text
//! cargo run --release -p bench --bin paper -- --only fig8a --trace-out fig8.trace.json
//! cargo run --release -p bench --bin trace-report -- fig8.trace-3nodes-10B-acuerdo.json
//! ```
//!
//! With `--bottleneck` the input is instead a metrics document (a
//! `--metrics-out` sidecar or the sectioned `BENCH_paper.json`): the
//! resource
//! utilization tables are rendered and one ranked `bottleneck <system>@<n>`
//! verdict line is printed per run.
//!
//! With `--forensics` the input is likewise a metrics document: per-run tail
//! blame histograms, the straggler leaderboard, one explanatory paragraph
//! per captured outlier, and one `blame <system>@<n>` headline line per run.
//!
//! With `--whatif` the input is a `BENCH_paper.json` document with a scale
//! section: per-run counterfactual tables, one `whatif <system>@<n>` headline per measured
//! intervention (gain order), one `whatif-verdict <system>@<n>` line
//! stating whether the measurement agrees with the blame-vector prediction,
//! and last one `whatif-agree k/N` line counting the runs that agree.
//!
//! ```text
//! cargo run --release -p bench --bin trace-report -- --bottleneck BENCH_paper.json
//! cargo run --release -p bench --bin trace-report -- --forensics BENCH_paper.json
//! cargo run --release -p bench --bin trace-report -- --whatif BENCH_paper.json
//! ```
//!
//! Exit status: 0 on a report, 1 when the input holds nothing for the
//! requested analysis — the error names which analysis sections the
//! document *does* support (`util`, `forensics`, `whatif`, `stages`) so
//! older exports fail with a pointer instead of a bare refusal — and 2 on
//! usage or parse errors. Both inputs are read strictly: a trace entry that
//! lacks a field the writer always emits (`traceEvents[7] tx: missing dur`),
//! a metrics document without a `records` array, and a record that carries
//! the analysed member but lacks one of `label`, `system`, `nodes` or a
//! member the writer always emits
//! (`scale.records[etcd-n64].util.leader: missing`) each exit 2. `null` is read as
//! the writer means it wherever the writer writes it (an outlier's
//! `straggler`, a what-if run's `blame_top`).

use bench::json::{self, Value};
use bench::{chrome, forensics, report, util, whatif};
use std::process::exit;

const USAGE: &str = "usage: trace-report FILE.json\n       \
     trace-report --bottleneck|--forensics|--whatif METRICS.json";

/// Which analysis sections a metrics document's records carry, by member
/// name, read as the reports read them (a record without `label`, `system`
/// and `nodes`, such as a `table1` election record, carries none).
fn supported_sections(doc: &Value) -> Vec<&'static str> {
    [
        ("util", "util (--bottleneck)"),
        ("forensics", "forensics (--forensics)"),
        ("whatif", "whatif (--whatif)"),
        ("stages", "stages (traced runs)"),
    ]
    .into_iter()
    .filter(|(member, _)| json::records(doc, member).is_ok_and(|r| !r.is_empty()))
    .map(|(_, flag)| flag)
    .collect()
}

/// Which metrics-document analysis to render.
#[derive(Copy, Clone, PartialEq)]
enum DocMode {
    Bottleneck,
    Forensics,
    Whatif,
}

/// Render the requested metrics-document analysis. A document no record of
/// which carries the analysed member exits 1 naming what the document
/// supports instead; a record that does but lacks a member the writer
/// always emits exits 2.
fn metrics_doc_report(file: &str, mode: DocMode) -> ! {
    let doc = json::read_doc(file).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let (member, rendered) = match mode {
        DocMode::Forensics => ("forensics", forensics::forensics_report(&doc)),
        DocMode::Bottleneck => ("util", util::bottleneck_report(&doc)),
        DocMode::Whatif => ("whatif", whatif::whatif_report(&doc)),
    };
    match rendered {
        Ok(rep) => {
            print!("{rep}");
            exit(0);
        }
        Err(e) => {
            eprintln!("{file}: {e}");
            if !json::records(&doc, member).is_ok_and(|r| r.is_empty()) {
                exit(2);
            }
            let supported = supported_sections(&doc);
            if supported.is_empty() {
                eprintln!("{file}: supports no analysis sections");
            } else {
                eprintln!("{file}: supports: {}", supported.join(", "));
            }
            exit(1);
        }
    }
}

fn main() {
    let mut file: Option<String> = None;
    let mut modes: Vec<DocMode> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--bottleneck" => modes.push(DocMode::Bottleneck),
            "--forensics" => modes.push(DocMode::Forensics),
            "--whatif" => modes.push(DocMode::Whatif),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                exit(0);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                eprintln!("{USAGE}");
                exit(2);
            }
            other => {
                if file.replace(other.to_string()).is_some() {
                    eprintln!("only one input file per invocation");
                    exit(2);
                }
            }
        }
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        exit(2);
    };
    if modes.len() > 1 {
        eprintln!("--bottleneck, --forensics and --whatif are separate reports; pick one");
        exit(2);
    }
    if let Some(&mode) = modes.first() {
        metrics_doc_report(&file, mode);
    }
    let (events, gauges) = chrome::load(&file).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let r = report::build(&events);
    if r.is_empty() {
        eprintln!("{file}: no lifecycle stage marks in trace (untraced run?)");
        eprintln!(
            "{file}: supports: {}",
            if gauges.is_empty() {
                "nothing to analyze"
            } else {
                "gauge series (rendered below)"
            }
        );
        if !gauges.is_empty() {
            print!("{}", report::render_gauge_series(&gauges));
        }
        exit(1);
    }
    print!("{}", report::render(&r));
    if !gauges.is_empty() {
        println!();
        print!("{}", report::render_gauge_series(&gauges));
    }
}
