//! `compare <dirA> <dirB>`: the noise report.
//!
//! Each directory holds one set of runs of the *same* build, one file per
//! run named `<workload>-<seed>.json` whose last line is the result line.
//! For every workload and end-to-end metric the report gives both sets'
//! medians and quartiles, each set's spread (interquartile range as a share
//! of the median, quartiles as Python's `statistics.quantiles(n=4)`), and
//! the relative difference of the medians, and fails when a difference or a
//! spread exceeds the metric's bound — the same judgement the pipeline makes
//! before it accepts the benchmark.

use crate::metrics::{Better, END_TO_END};
use crate::stats;
use crate::workloads::SPECS;
use bench::json::{self, Value};
use std::collections::BTreeMap;

/// workload -> metric -> one value per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &str) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let shown = path.display();
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let workload = stem
            .rsplit_once('-')
            .map(|(w, _)| w)
            .ok_or_else(|| format!("{shown}: expected <workload>-<seed>.json"))?;
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{shown}: {e}"))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{shown}: empty file"))?;
        let doc = json::parse(line).map_err(|e| format!("{shown}: {e}"))?;
        if doc.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("{shown}: the run did not report correct: true"));
        }
        let Some(Value::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{shown}: no metrics object"));
        };
        let per_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{shown}: metric {name} has no numeric value"))?;
            per_metric.entry(name.clone()).or_default().push(v);
        }
    }
    if set.is_empty() {
        return Err(format!("{dir}: no <workload>-<seed>.json files"));
    }
    Ok(set)
}

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
}

fn summarize(values: &[f64]) -> Option<Summary> {
    let (q1, q3) = stats::quartiles(values)?;
    Some(Summary {
        median: stats::median(values),
        q1,
        q3,
        spread: stats::spread(values)?,
    })
}

/// Render the report; `Ok(true)` when every metric is within its bound.
pub fn report(a: &Set, b: &Set) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut ok = true;
    out.push_str("| workload | metric | median A [q1, q3] | spread A | median B [q1, q3] | spread B | B vs A | bound | verdict |\n");
    out.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for spec in &SPECS {
        let (Some(wa), Some(wb)) = (a.get(spec.name), b.get(spec.name)) else {
            return Err(format!("workload {} is missing from a set", spec.name));
        };
        for def in &END_TO_END {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let pick = |w: &BTreeMap<String, Vec<f64>>| {
                w.get(def.name)
                    .and_then(|v| summarize(v))
                    .ok_or_else(|| format!("{}: {} needs at least two runs", spec.name, def.name))
            };
            let (sa, sb) = (pick(wa)?, pick(wb)?);
            // Positive = B is worse than A.
            let worse = match def.better {
                Better::Lower => (sb.median - sa.median) / sa.median,
                Better::Higher => (sa.median - sb.median) / sa.median,
            };
            let mut verdict = Vec::new();
            if worse.abs() > bound {
                verdict.push("MEDIANS DIFFER");
            }
            // The pipeline exempts setup_s from the spread rule only.
            if def.name != "setup_s" && sa.spread.max(sb.spread) > bound {
                verdict.push("TOO NOISY");
            }
            ok &= verdict.is_empty();
            let cell = |s: &Summary| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            out.push_str(&format!(
                "| {} | {} ({}) | {} | {:.2} % | {} | {:.2} % | {:+.2} % | {:.0} % | {} |\n",
                spec.name,
                def.name,
                def.unit,
                cell(&sa),
                sa.spread * 100.0,
                cell(&sb),
                sb.spread * 100.0,
                worse * 100.0,
                bound * 100.0,
                if verdict.is_empty() {
                    "ok".to_string()
                } else {
                    verdict.join(", ")
                }
            ));
        }
    }
    Ok((out, ok))
}

pub fn run(dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let (table, ok) = report(&a, &b)?;
    println!("{table}");
    println!(
        "{}",
        if ok {
            "every end-to-end metric of both sets is within its bound"
        } else {
            "FAILED: at least one metric differs or spreads beyond its bound"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_with(host: &[f64]) -> Set {
        let mut set = Set::new();
        for spec in &SPECS {
            let w = set.entry(spec.name.to_string()).or_default();
            for def in &END_TO_END {
                let vals = if def.name == "host_us_per_commit" {
                    host.to_vec()
                } else {
                    vec![5.0, 5.0, 5.0, 5.0]
                };
                w.insert(def.name.to_string(), vals);
            }
        }
        set
    }

    #[test]
    fn identical_sets_pass_and_a_shifted_median_fails() {
        let a = set_with(&[10.0, 10.1, 10.2, 10.3]);
        let (table, ok) = report(&a, &a).unwrap();
        assert!(ok, "{table}");
        assert!(table.contains("| lat_3n | commit_p50_us (us) |"));
        let b = set_with(&[14.0, 14.1, 14.2, 14.3]);
        let (table, ok) = report(&a, &b).unwrap();
        assert!(!ok);
        assert!(table.contains("MEDIANS DIFFER"));
    }

    #[test]
    fn a_wide_spread_fails_even_when_medians_agree() {
        let a = set_with(&[8.0, 10.0, 10.0, 12.5]);
        let (table, ok) = report(&a, &a).unwrap();
        assert!(!ok);
        assert!(table.contains("TOO NOISY"));
    }

    #[test]
    fn loads_result_files_and_rejects_incorrect_runs() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |ok: bool| {
            format!("noise\n{{\"correct\": {ok}, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"setup_s\": {{\"value\": 0.5, \"unit\": \"s\"}}}}}}\n")
        };
        std::fs::write(dir.join("lat_3n-1.json"), line(true)).unwrap();
        std::fs::write(dir.join("lat_3n-2.json"), line(true)).unwrap();
        let set = load(dir.to_str().unwrap()).unwrap();
        assert_eq!(set["lat_3n"]["setup_s"], vec![0.5, 0.5]);
        std::fs::write(dir.join("lat_3n-3.json"), line(false)).unwrap();
        assert!(load(dir.to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
