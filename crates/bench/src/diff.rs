//! Baseline comparison for the `paper` document.
//!
//! Compares two `BENCH_paper.json` documents (a committed baseline and a
//! fresh [`crate::paper`] run) with deterministic-sim-tight thresholds: the
//! simulator is bit-deterministic per seed, so counters, gauge extremes,
//! sample counts, and lifecycle counts must match **exactly**; measured
//! latencies and rates are floats serialized at fixed precision and are
//! held to a small relative epsilon that only absorbs formatting noise.
//! Anything looser would let real regressions hide; anything structural
//! (missing record, extra member, length mismatch) is a finding too.
//!
//! There is exactly one JSON parser in the tree — [`crate::json`] — and
//! this module reuses it rather than growing a second one.

use crate::json::{self, Value};

/// Relative epsilon for non-exact numeric members (latencies, rates).
/// Points are serialized with 3-4 fractional digits; 0.2% relative covers
/// rounding at the smallest values we print while staying far below any
/// real perf change worth catching.
const REL_EPS: f64 = 2e-3;

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

/// Compare two parsed documents member by member; the elements of every
/// `records` array are matched by key (label and system, or a Table 1
/// record's node count), of every other array by position.
/// Returns the findings and warnings; both empty when the documents agree
/// within thresholds. `Err` means the documents are not comparable at all
/// (a different `schema`, `mode` or `seed`) — that is an operator error,
/// not a regression.
pub fn diff_docs(base: &Value, cur: &Value) -> Result<DiffReport, String> {
    for key in ["schema", "mode", "seed"] {
        let b = base
            .get(key)
            .ok_or_else(|| format!("baseline: missing \"{key}\""))?;
        let c = cur
            .get(key)
            .ok_or_else(|| format!("current: missing \"{key}\""))?;
        if b != c {
            return Err(format!(
                "documents are not comparable: \"{key}\" is {b:?} in the baseline but {c:?} in the current run"
            ));
        }
    }
    let mut out = DiffReport::default();
    diff_value("", false, base, cur, &mut out);
    Ok(out)
}

/// Read, parse, and compare two document files.
pub fn diff_files(baseline: &str, current: &str) -> Result<DiffReport, String> {
    let b = json::read_doc(baseline)?;
    let c = json::read_doc(current)?;
    diff_docs(&b, &c)
}

/// A run record's identity within its `records` array: `label/system`
/// (a Figure 8 label names only the panel, so the system completes it), a
/// bare `label`, or `nodes=N` for a Table 1 election record; the element's
/// index when it has none of these. A key repeated within one array gets
/// its occurrence appended (`#2`, `#3`, …), so every element has one.
fn record_keys(items: &[Value]) -> Vec<String> {
    let mut bare: Vec<String> = Vec::new();
    let mut keys = Vec::new();
    for (i, r) in items.iter().enumerate() {
        let (label, system) = (r.get("label"), r.get("system"));
        let key = match (
            label.and_then(Value::as_str),
            system.and_then(Value::as_str),
        ) {
            (Some(l), Some(s)) => format!("{l}/{s}"),
            (Some(l), None) => l.to_string(),
            _ => match r.get("nodes").and_then(Value::as_u64) {
                Some(n) => format!("nodes={n}"),
                None => i.to_string(),
            },
        };
        let seen = bare.iter().filter(|k| **k == key).count();
        keys.push(match seen {
            0 => key.clone(),
            _ => format!("{key}#{}", seen + 1),
        });
        bare.push(key);
    }
    keys
}

/// Match two `records` arrays by key: a baseline record the current array
/// lacks is a finding, a current record the baseline lacks a warning, and
/// every matched pair is compared member by member.
fn diff_records(path: &str, exact: bool, ba: &[Value], ca: &[Value], out: &mut DiffReport) {
    let (bkeys, ckeys) = (record_keys(ba), record_keys(ca));
    for (key, bv) in bkeys.iter().zip(ba) {
        match ckeys.iter().position(|k| k == key) {
            None => out
                .findings
                .push(format!("{path}[{key}]: missing from current")),
            Some(i) => diff_value(&format!("{path}[{key}]"), exact, bv, &ca[i], out),
        }
    }
    for key in ckeys.iter().filter(|k| !bkeys.contains(k)) {
        out.warnings.push(format!("{path}[{key}]: not in baseline"));
    }
}

fn diff_value(path: &str, exact: bool, b: &Value, c: &Value, out: &mut DiffReport) {
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
                        diff_value(&at(k), exact, bv, cv, out)
                    }
                }
            }
            for (k, _) in ckv {
                if b.get(k).is_none() {
                    out.warnings.push(format!("{}: not in baseline", at(k)));
                }
            }
        }
        (Value::Arr(ba), Value::Arr(ca)) if path.rsplit('.').next() == Some("records") => {
            diff_records(path, exact, ba, ca, out)
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
                diff_value(&format!("{path}[{i}]"), exact, bv, cv, out);
            }
        }
        (Value::Num(bn), Value::Num(cn)) => {
            let leaf = path.rsplit('.').next().unwrap_or(path);
            let must_be_exact = exact || EXACT_LEAVES.contains(&leaf);
            let ok = if must_be_exact {
                bn == cn
            } else {
                rel_close(*bn, *cn, REL_EPS)
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

    /// A one-record quick section: `mean_us` is epsilon-held, the commit
    /// counter exact; `extra` is spliced into the record.
    fn doc_with(mean: f64, commits: u64, extra: &str) -> Value {
        json::parse(&format!(
            "{{\"schema\":\"acuerdo-bench-paper-v2\",\"mode\":\"quick\",\"seed\":42,\
             \"quick\":{{\"nodes\":3,\"records\":[{{\"label\":\"acuerdo-w1\",\
             \"system\":\"acuerdo\",\"window\":1,\"mean_us\":{mean},\
             \"metrics\":{{\"totals\":{{\"commits\":{commits}}}}}{extra}}}]}}}}"
        ))
        .unwrap()
    }

    fn doc(mean: f64, commits: u64) -> Value {
        doc_with(mean, commits, "")
    }

    const AT: &str = "quick.records[acuerdo-w1/acuerdo]";

    #[test]
    fn identical_documents_pass() {
        let a = doc(5.25, 1000);
        assert!(diff_docs(&a, &a).unwrap().is_clean());
    }

    #[test]
    fn latency_epsilon_absorbs_formatting_noise_only() {
        let a = doc(5.25, 1000);
        let close = doc(5.2501, 1000);
        assert!(diff_docs(&a, &close).unwrap().is_clean());
        let slow = doc(7.9, 1000);
        let findings = diff_docs(&a, &slow).unwrap().findings;
        assert_eq!(
            findings,
            [format!("{AT}.mean_us: baseline 5.25, current 7.9")]
        );
    }

    #[test]
    fn counters_are_exact() {
        let a = doc(5.25, 1000);
        let off_by_one = doc(5.25, 999);
        let findings = diff_docs(&a, &off_by_one).unwrap().findings;
        assert_eq!(
            findings,
            [format!(
                "{AT}.metrics.totals.commits: baseline 1000, current 999"
            )]
        );
    }

    #[test]
    fn different_runs_refuse_to_compare() {
        let a = doc(5.25, 1000);
        for (key, to) in [
            ("seed", Value::Num(7.0)),
            ("mode", Value::Str("full".into())),
            ("schema", Value::Str("acuerdo-bench-paper-v1".into())),
        ] {
            let mut b = doc(5.25, 1000);
            if let Value::Obj(kv) = &mut b {
                kv.iter_mut().find(|(k, _)| k == key).unwrap().1 = to;
            }
            let err = diff_docs(&a, &b).unwrap_err();
            assert!(err.contains(&format!("\"{key}\" is")), "{err}");
        }
        // A truncated top level names the first missing comparability key.
        let bare = json::parse("{\"schema\":\"acuerdo-bench-paper-v2\"}").unwrap();
        let err = diff_docs(&a, &bare).unwrap_err();
        assert_eq!(err, "current: missing \"mode\"");
    }

    #[test]
    fn records_match_by_key_so_a_missing_one_hides_no_other_drift() {
        // Figure 9's twelve records, keyed by label and system; the
        // baseline's third record dropped from the current document and
        // the fifth one's throughput moved.
        let fig9 = |drop: Option<usize>, bump: usize| {
            let mut records = Vec::new();
            for n in [3, 5, 7, 9] {
                for s in ["acuerdo", "etcd", "zookeeper"] {
                    let i = records.len();
                    let ops = if i == bump { 2000 } else { 1000 };
                    records.push(format!(
                        "{{\"label\":\"{s}_n{n}\",\"system\":\"{s}\",\"nodes\":{n},\
                         \"msgs_per_sec\":{ops}}}"
                    ));
                }
            }
            if let Some(i) = drop {
                records.remove(i);
            }
            json::parse(&format!(
                "{{\"schema\":\"s\",\"mode\":\"quick\",\"seed\":42,\
                 \"fig9\":{{\"records\":[{}]}}}}",
                records.join(",")
            ))
            .unwrap()
        };
        let rep = diff_docs(&fig9(None, 99), &fig9(Some(2), 4)).unwrap();
        assert_eq!(
            rep.findings,
            [
                "fig9.records[zookeeper_n3/zookeeper]: missing from current",
                "fig9.records[etcd_n5/etcd].msgs_per_sec: baseline 1000, current 2000",
            ]
        );
        assert!(rep.warnings.is_empty(), "{:?}", rep.warnings);
        // The other way round the record is an addition: a warning.
        let rep = diff_docs(&fig9(Some(2), 99), &fig9(None, 99)).unwrap();
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(
            rep.warnings,
            ["fig9.records[zookeeper_n3/zookeeper]: not in baseline"]
        );
    }

    #[test]
    fn table1_records_key_by_nodes_and_figure8_by_label_and_system() {
        let items = json::parse(
            r#"[{"nodes":3,"count":8},{"nodes":5},{"label":"3nodes_10B","system":"acuerdo"},
                {"label":"3nodes_10B","system":"etcd"},{"label":"baseline"},{"label":"baseline"},
                {"window":1}]"#,
        )
        .unwrap();
        assert_eq!(
            record_keys(items.as_array().unwrap()),
            [
                "nodes=3",
                "nodes=5",
                "3nodes_10B/acuerdo",
                "3nodes_10B/etcd",
                "baseline",
                "baseline#2",
                "6"
            ]
        );
    }

    #[test]
    fn new_members_warn_instead_of_failing() {
        // A current record that grew a "util" member (new instrumentation)
        // against a baseline without one: warning only, shared members
        // still compared exactly.
        let a = doc(5.25, 1000);
        let b = doc_with(5.25, 1000, ",\"util\":{\"elapsed_ns\":1}");
        let rep = diff_docs(&a, &b).unwrap();
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.warnings, [format!("{AT}.util: not in baseline")]);
        // The reverse direction (baseline has it, current lost it) is a
        // regression finding.
        let rep = diff_docs(&b, &a).unwrap();
        assert_eq!(rep.findings, [format!("{AT}.util: missing from current")]);
    }

    #[test]
    fn forensics_member_is_exact() {
        let with_forensics = |lat: u64| {
            doc_with(
                5.25,
                1000,
                &format!(
                    ",\"forensics\":{{\"commits\":1000,\"outliers\":[{{\"id\":\"0x1\",\
                     \"latency_ns\":{lat},\"straggler\":2}}]}}"
                ),
            )
        };
        // The forensics subtree is integer-exact: a 1 ns outlier-latency
        // drift is a finding, not formatting noise.
        let rep = diff_docs(&with_forensics(400_000), &with_forensics(400_001)).unwrap();
        assert_eq!(
            rep.findings,
            [format!(
                "{AT}.forensics.outliers[0].latency_ns: baseline 400000, current 400001"
            )]
        );
    }

    #[test]
    fn shared_util_members_are_exact() {
        let with_util = |v: &str| {
            doc_with(
                5.25,
                1000,
                &format!(",\"util\":{{\"egress_util_pct\":{v}}}"),
            )
        };
        let rep = diff_docs(&with_util("94.0"), &with_util("94.1")).unwrap();
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert!(rep.findings[0].contains("egress_util_pct"));
    }

    #[test]
    fn sections_and_other_arrays_compare_member_by_member() {
        let paper = |long: &str, mean: &str, extra: &str| {
            json::parse(&format!(
                "{{\"schema\":\"acuerdo-bench-paper-v2\",\"mode\":\"quick\",\"seed\":42,\
                 \"table1\":{{\"long_latency_nodes\":[{long}]}},\
                 \"fig9\":{{\"records\":[{{\"label\":\"a\",\"mean_us\":{mean},\
                 \"metrics\":{{\"commits\":3}}}}]}}{extra}}}"
            ))
            .unwrap()
        };
        let a = paper("0,1", "5.25", "");
        assert!(diff_docs(&a, &a).unwrap().is_clean());
        let rep = diff_docs(&a, &paper("0,1", "7.9", "")).unwrap();
        assert_eq!(
            rep.findings,
            ["fig9.records[a].mean_us: baseline 5.25, current 7.9"]
        );
        let with_related = paper("0,1", "5.25", ",\"related\":{}");
        let rep = diff_docs(&a, &with_related).unwrap();
        assert_eq!(rep.warnings, ["related: not in baseline"]);
        let rep = diff_docs(&with_related, &a).unwrap();
        assert_eq!(rep.findings, ["related: missing from current"]);
        // An array that is not a records array compares element by
        // element, and a length change is one finding.
        let rep = diff_docs(&a, &paper("0,1,2", "5.25", "")).unwrap();
        assert_eq!(
            rep.findings,
            ["table1.long_latency_nodes: length 2 in baseline, 3 in current"]
        );
    }
}
