//! Baseline comparison for the perf-regression observatory.
//!
//! Compares two `BENCH_*.json` documents (a committed baseline and a fresh
//! [`crate::suite`] run) with deterministic-sim-tight thresholds: the
//! simulator is bit-deterministic per seed, so counters, gauge extremes,
//! sample counts, and lifecycle counts must match **exactly**; measured
//! latencies and rates are floats serialized at fixed precision and are
//! held to a small relative epsilon that only absorbs formatting noise.
//! Anything looser would let real regressions hide; anything structural
//! (missing run, extra member, length mismatch) is a finding too.
//!
//! There is exactly one JSON parser in the tree — [`crate::json`] — and
//! this module reuses it rather than growing a second one.

use crate::json::{self, Value};

/// Comparison thresholds.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Relative epsilon for non-exact numeric members (latencies, rates).
    pub rel_eps: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        // Points are serialized with 3-4 fractional digits; 0.2% relative
        // covers rounding at the smallest values we print while staying far
        // below any real perf change worth catching.
        DiffOptions { rel_eps: 2e-3 }
    }
}

/// Members whose value (and, for objects, whole subtree) must match
/// exactly: deterministic counts, integer gauge extremes, the
/// resource-utilization summary (rendered at fixed precision from exact
/// counters, so any drift is a real accounting change), and the tail-latency
/// forensics summary (integer nanoseconds from the deterministic collector,
/// so any drift is a real timing or attribution change), and the what-if
/// counterfactual table (measured deltas at fixed precision from
/// deterministic runs — see docs/SIDECARS.md).
const EXACT_KEYS: [&str; 12] = [
    "metrics",
    "window",
    "nodes",
    "seed",
    "payload_bytes",
    "samples",
    "min",
    "max",
    "count",
    "util",
    "forensics",
    "whatif",
];

/// Gauge p99 is an integer level pulled straight from the sorted samples —
/// exact. (Stage `p99_us` is a latency and stays under the epsilon rule;
/// the keys differ, so a simple name match suffices.)
const EXACT_LEAVES: [&str; 1] = ["p99"];

/// The outcome of a document comparison, split by severity.
///
/// `findings` are regressions: shared members that drifted, and members or
/// runs the baseline has but the current run lost. `warnings` are additions
/// only — members or runs present in the current document but absent from
/// the baseline. New instrumentation (a counter, the utilization summary)
/// must not force a baseline rewrite in the same commit, but it should be
/// visible until the baseline is refreshed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiffReport {
    /// Regressions, one line each; empty means the shared surface agrees.
    pub findings: Vec<String>,
    /// Named additions relative to the baseline, one line each.
    pub warnings: Vec<String>,
}

impl DiffReport {
    /// No findings and no warnings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.warnings.is_empty()
    }
}

/// Compare two parsed documents. `runs` are matched by label; every other
/// top-level member — a `paper` document's sections — is compared like a
/// run's members, arrays element by element. Returns the findings and
/// warnings; both empty when the documents agree within thresholds. `Err`
/// means the documents are not comparable at all (different schema or
/// matrix configuration) — that is an operator error, not a regression.
/// `schema`, `mode` and `seed` are required; the other comparability keys
/// only where either document has them (a `paper` document spans several
/// node counts and payloads, so it carries none of them).
pub fn diff_docs(base: &Value, cur: &Value, opts: &DiffOptions) -> Result<DiffReport, String> {
    for key in [
        "schema",
        "mode",
        "seed",
        "nodes",
        "payload_bytes",
        "sample_every_us",
    ] {
        let (b, c) = (base.get(key), cur.get(key));
        if b.is_none() && c.is_none() && !["schema", "mode", "seed"].contains(&key) {
            continue;
        }
        let b = b.ok_or_else(|| format!("baseline: missing \"{key}\""))?;
        let c = c.ok_or_else(|| format!("current: missing \"{key}\""))?;
        if b != c {
            return Err(format!(
                "documents are not comparable: \"{key}\" is {b:?} in the baseline but {c:?} in the current run"
            ));
        }
    }
    let mut out = DiffReport::default();
    // The injected-slowdown knob is a physics change: a baseline must never
    // carry one, and comparing a slowed run against a clean baseline is the
    // walkthrough's whole point — so it is a finding, not an error.
    let b_scale = base.get("cpu_scale").cloned().unwrap_or(Value::Null);
    let c_scale = cur.get("cpu_scale").cloned().unwrap_or(Value::Null);
    if b_scale != c_scale {
        out.findings.push(format!(
            "cpu_scale: baseline {b_scale:?}, current {c_scale:?}"
        ));
    }
    let (bruns, cruns) = match (base.get("runs"), cur.get("runs")) {
        (None, None) => (Vec::new(), Vec::new()),
        _ => (
            runs_by_label(base, "baseline")?,
            runs_by_label(cur, "current")?,
        ),
    };
    for (label, bv) in &bruns {
        match cruns.iter().find(|(l, _)| l == label) {
            None => out
                .findings
                .push(format!("run {label}: missing from current")),
            Some((_, cv)) => diff_value(&format!("runs[{label}]"), false, bv, cv, opts, &mut out),
        }
    }
    for (label, _) in &cruns {
        if !bruns.iter().any(|(l, _)| l == label) {
            out.warnings.push(format!("run {label}: not in baseline"));
        }
    }
    // Everything else, from the (already equal) comparability keys to a
    // paper document's sections.
    let rest = |doc: &Value| match doc {
        Value::Obj(kv) => Value::Obj(
            (kv.iter().filter(|(k, _)| k != "cpu_scale" && k != "runs"))
                .cloned()
                .collect(),
        ),
        _ => Value::Null,
    };
    diff_value("", false, &rest(base), &rest(cur), opts, &mut out);
    Ok(out)
}

/// Read, parse, and compare two document files.
pub fn diff_files(baseline: &str, current: &str, opts: &DiffOptions) -> Result<DiffReport, String> {
    let b = json::read_doc(baseline)?;
    let c = json::read_doc(current)?;
    diff_docs(&b, &c, opts)
}

fn runs_by_label<'a>(doc: &'a Value, which: &str) -> Result<Vec<(String, &'a Value)>, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{which}: missing \"runs\" array"))?;
    runs.iter()
        .map(|r| {
            r.get("label")
                .and_then(Value::as_str)
                .map(|l| (l.to_string(), r))
                .ok_or_else(|| format!("{which}: run without a \"label\""))
        })
        .collect()
}

fn diff_value(
    path: &str,
    exact: bool,
    b: &Value,
    c: &Value,
    opts: &DiffOptions,
    out: &mut DiffReport,
) {
    match (b, c) {
        (Value::Obj(bkv), Value::Obj(ckv)) => {
            // The document's own top level is the empty path.
            let at = |k: &str| match path {
                "" => k.to_string(),
                _ => format!("{path}.{k}"),
            };
            for (k, bv) in bkv {
                match c.get(k) {
                    None => out
                        .findings
                        .push(format!("{}: missing from current", at(k))),
                    Some(cv) => {
                        let exact = exact || EXACT_KEYS.contains(&k.as_str());
                        diff_value(&at(k), exact, bv, cv, opts, out)
                    }
                }
            }
            for (k, _) in ckv {
                if b.get(k).is_none() {
                    out.warnings.push(format!("{}: not in baseline", at(k)));
                }
            }
        }
        (Value::Arr(ba), Value::Arr(ca)) => {
            if ba.len() != ca.len() {
                out.findings.push(format!(
                    "{path}: length {} in baseline, {} in current",
                    ba.len(),
                    ca.len()
                ));
                return;
            }
            for (i, (bv, cv)) in ba.iter().zip(ca).enumerate() {
                diff_value(&format!("{path}[{i}]"), exact, bv, cv, opts, out);
            }
        }
        (Value::Num(bn), Value::Num(cn)) => {
            let leaf = path.rsplit('.').next().unwrap_or(path);
            let must_be_exact = exact || EXACT_LEAVES.contains(&leaf);
            let ok = if must_be_exact {
                bn == cn
            } else {
                rel_close(*bn, *cn, opts.rel_eps)
            };
            if !ok {
                out.findings
                    .push(format!("{path}: baseline {bn}, current {cn}"));
            }
        }
        _ => {
            if b != c {
                out.findings
                    .push(format!("{path}: baseline {b:?}, current {c:?}"));
            }
        }
    }
}

fn rel_close(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps * a.abs().max(b.abs()) + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(mean: f64, commits: u64, scale: &str) -> Value {
        json::parse(&format!(
            "{{\"schema\":\"acuerdo-bench-suite-v1\",\"mode\":\"quick\",\"seed\":42,\
             \"nodes\":3,\"payload_bytes\":64,\"sample_every_us\":100,\"cpu_scale\":{scale},\
             \"runs\":[{{\"label\":\"acuerdo-w1\",\"window\":1,\"mean_us\":{mean},\
             \"metrics\":{{\"totals\":{{\"commits\":{commits}}}}}}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let a = doc(5.25, 1000, "null");
        assert!(diff_docs(&a, &a, &DiffOptions::default())
            .unwrap()
            .is_clean());
    }

    #[test]
    fn latency_epsilon_absorbs_formatting_noise_only() {
        let a = doc(5.25, 1000, "null");
        let close = doc(5.2501, 1000, "null");
        assert!(diff_docs(&a, &close, &DiffOptions::default())
            .unwrap()
            .is_clean());
        let slow = doc(7.9, 1000, "null");
        let findings = diff_docs(&a, &slow, &DiffOptions::default())
            .unwrap()
            .findings;
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].contains("runs[acuerdo-w1].mean_us"),
            "{findings:?}"
        );
    }

    #[test]
    fn counters_are_exact() {
        let a = doc(5.25, 1000, "null");
        let off_by_one = doc(5.25, 999, "null");
        let findings = diff_docs(&a, &off_by_one, &DiffOptions::default())
            .unwrap()
            .findings;
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].contains("metrics.totals.commits"),
            "{findings:?}"
        );
    }

    #[test]
    fn injected_slowdown_is_a_finding_not_an_error() {
        let a = doc(5.25, 1000, "null");
        let b = doc(5.25, 1000, "1.5");
        let findings = diff_docs(&a, &b, &DiffOptions::default()).unwrap().findings;
        assert!(findings.iter().any(|f| f.starts_with("cpu_scale")));
    }

    #[test]
    fn different_matrices_refuse_to_compare() {
        let a = doc(5.25, 1000, "null");
        let mut b = doc(5.25, 1000, "null");
        if let Value::Obj(kv) = &mut b {
            for (k, v) in kv.iter_mut() {
                if k == "seed" {
                    *v = Value::Num(7.0);
                }
            }
        }
        assert!(diff_docs(&a, &b, &DiffOptions::default()).is_err());
    }

    #[test]
    fn malformed_documents_name_the_offending_member() {
        let good = doc(5.25, 1000, "null");
        // A comparability key of the wrong type is named, not diffed past.
        let head = "{\"schema\":\"acuerdo-bench-suite-v1\",\"mode\":\"quick\",\"seed\":42,\
                    \"nodes\":3,\"payload_bytes\":64,\"sample_every_us\":100";
        // "runs" holding a number instead of an array.
        let bad_runs = json::parse(&format!("{head},\"runs\":7}}")).unwrap();
        let err = diff_docs(&good, &bad_runs, &DiffOptions::default()).unwrap_err();
        assert!(err.contains("\"runs\""), "{err}");
        // A run without a "label".
        let unlabeled = json::parse(&format!("{head},\"runs\":[{{\"window\":1}}]}}")).unwrap();
        let err = diff_docs(&good, &unlabeled, &DiffOptions::default()).unwrap_err();
        assert!(err.contains("\"label\""), "{err}");
        // A truncated top level names the first missing comparability key.
        let bare = json::parse("{\"schema\":\"acuerdo-bench-suite-v1\"}").unwrap();
        let err = diff_docs(&good, &bare, &DiffOptions::default()).unwrap_err();
        assert!(err.contains("current: missing \"mode\""), "{err}");
    }

    #[test]
    fn missing_and_extra_runs_are_findings() {
        let a = doc(5.25, 1000, "null");
        let empty = json::parse(
            "{\"schema\":\"acuerdo-bench-suite-v1\",\"mode\":\"quick\",\"seed\":42,\
             \"nodes\":3,\"payload_bytes\":64,\"sample_every_us\":100,\"cpu_scale\":null,\
             \"runs\":[]}",
        )
        .unwrap();
        let gone = diff_docs(&a, &empty, &DiffOptions::default()).unwrap();
        assert!(gone
            .findings
            .iter()
            .any(|f| f.contains("missing from current")));
        assert!(gone.warnings.is_empty());
        // An extra run is an addition: warning, not regression.
        let added = diff_docs(&empty, &a, &DiffOptions::default()).unwrap();
        assert!(added.findings.is_empty());
        assert!(added.warnings.iter().any(|f| f.contains("not in baseline")));
    }

    #[test]
    fn new_members_warn_instead_of_failing() {
        // A current run that grew a "util" member (new instrumentation)
        // against a baseline without one: warning only, shared members
        // still compared exactly.
        let a = doc(5.25, 1000, "null");
        let mut b = doc(5.25, 1000, "null");
        if let Value::Obj(kv) = &mut b {
            if let Some((_, Value::Arr(runs))) = kv.iter_mut().find(|(k, _)| k == "runs") {
                if let Value::Obj(run) = &mut runs[0] {
                    run.push((
                        "util".to_string(),
                        json::parse("{\"elapsed_ns\":1}").unwrap(),
                    ));
                }
            }
        }
        let rep = diff_docs(&a, &b, &DiffOptions::default()).unwrap();
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.warnings, vec!["runs[acuerdo-w1].util: not in baseline"]);
        // The reverse direction (baseline has it, current lost it) is a
        // regression finding.
        let rep = diff_docs(&b, &a, &DiffOptions::default()).unwrap();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.contains("util: missing from current")));
    }

    #[test]
    fn forensics_member_is_exact_and_warns_when_new() {
        let with_forensics = |lat: u64| {
            json::parse(&format!(
                "{{\"schema\":\"acuerdo-bench-suite-v1\",\"mode\":\"quick\",\"seed\":42,\
                 \"nodes\":3,\"payload_bytes\":64,\"sample_every_us\":100,\"cpu_scale\":null,\
                 \"runs\":[{{\"label\":\"acuerdo-w1\",\"window\":1,\
                 \"forensics\":{{\"commits\":1000,\"outliers\":[{{\"id\":\"0x1\",\
                 \"latency_ns\":{lat},\"straggler\":2}}]}}}}]}}"
            ))
            .unwrap()
        };
        // The forensics subtree is integer-exact: a 1 ns outlier-latency
        // drift is a finding, not formatting noise.
        let a = with_forensics(400_000);
        let b = with_forensics(400_001);
        let rep = diff_docs(&a, &b, &DiffOptions::default()).unwrap();
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert!(rep.findings[0].contains("forensics.outliers[0].latency_ns"));
        // Against a pre-forensics baseline the new member is a named
        // warning, not a failure; losing it again is a regression.
        let old = doc(5.25, 1000, "null");
        let mut cur = doc(5.25, 1000, "null");
        if let Value::Obj(kv) = &mut cur {
            if let Some((_, Value::Arr(runs))) = kv.iter_mut().find(|(k, _)| k == "runs") {
                if let Value::Obj(run) = &mut runs[0] {
                    run.push((
                        "forensics".to_string(),
                        json::parse("{\"commits\":1000}").unwrap(),
                    ));
                }
            }
        }
        let rep = diff_docs(&old, &cur, &DiffOptions::default()).unwrap();
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(
            rep.warnings,
            vec!["runs[acuerdo-w1].forensics: not in baseline"]
        );
        let rep = diff_docs(&cur, &old, &DiffOptions::default()).unwrap();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.contains("forensics: missing from current")));
    }

    #[test]
    fn sections_compare_element_by_element_without_runs() {
        let paper = |mean: &str, extra: &str| {
            json::parse(&format!(
                "{{\"schema\":\"acuerdo-bench-paper-v1\",\"mode\":\"quick\",\"seed\":42,\
                 \"fig9\":{{\"records\":[{{\"label\":\"a\",\"mean_us\":{mean},\
                 \"metrics\":{{\"commits\":3}}}}]}}{extra}}}"
            ))
            .unwrap()
        };
        let opts = DiffOptions::default();
        let a = paper("5.25", "");
        assert!(diff_docs(&a, &a, &opts).unwrap().is_clean());
        let rep = diff_docs(&a, &paper("7.9", ""), &opts).unwrap();
        assert_eq!(
            rep.findings,
            vec!["fig9.records[0].mean_us: baseline 5.25, current 7.9"]
        );
        let rep = diff_docs(&a, &paper("5.25", ",\"related\":{}"), &opts).unwrap();
        assert_eq!(rep.warnings, vec!["related: not in baseline"]);
        let rep = diff_docs(&paper("5.25", ",\"related\":{}"), &a, &opts).unwrap();
        assert_eq!(rep.findings, vec!["related: missing from current"]);
        // A comparability key only one document carries still refuses.
        let err = diff_docs(&a, &doc(5.25, 1000, "null"), &opts).unwrap_err();
        assert!(err.contains("\"schema\""), "{err}");
    }

    #[test]
    fn shared_util_members_are_exact() {
        let with_util = |v: &str| {
            json::parse(&format!(
                "{{\"schema\":\"acuerdo-bench-suite-v1\",\"mode\":\"quick\",\"seed\":42,                 \"nodes\":3,\"payload_bytes\":64,\"sample_every_us\":100,\"cpu_scale\":null,                 \"runs\":[{{\"label\":\"acuerdo-w1\",\"window\":1,                 \"util\":{{\"leader\":{{\"egress_util_pct\":{v}}}}}}}]}}"
            ))
            .unwrap()
        };
        let a = with_util("94.0");
        let b = with_util("94.1");
        let rep = diff_docs(&a, &b, &DiffOptions::default()).unwrap();
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert!(rep.findings[0].contains("egress_util_pct"));
    }
}
