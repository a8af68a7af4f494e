//! Tail-latency forensics: the `"forensics"` sidecar member and the
//! `trace-report --forensics` renderer.
//!
//! Mirrors the split in [`crate::util`]: [`summary_json`] turns a live
//! [`ForensicsSnapshot`] into the compact fixed-order JSON member every
//! metrics record carries (integer nanoseconds only, so `bench-diff` can
//! gate on it exactly), and [`forensics_report`] re-ingests a previously
//! written document through [`crate::json`] and renders per-run blame
//! histograms, a straggler leaderboard, and a one-paragraph explanation per
//! outlier.
//!
//! The headline grammar is deliberately greppable (CI anchors on the
//! `blame ` prefix): `blame <system>@<nodes>: <cause> <share>% <cause>
//! <share>% …` — the shares aggregate the blame vectors over the outlier
//! ring, i.e. over the run's latency tail.

use abcast::{blame, BlameCause};
use simnet::{ForensicsSnapshot, SpanStage, WaitReason};

use crate::json::{self, Value};
use crate::util::share;

/// Outlier paragraphs rendered per run.
const TOP_OUTLIERS: usize = 8;

/// Render the fixed-order `"forensics"` JSON member for one run: finalized
/// commit count, cluster-total wait integrals by reason, the straggler
/// leaderboard (nonzero tallies, most-blamed first, ties toward the lower
/// node id), and the outlier ring slowest-first — each outlier with its
/// absolute stage marks and its assembled blame vector.
///
/// Everything is an integer (nanoseconds / counts) — formatting is part of
/// the document contract and byte-identical runs produce byte-identical
/// members.
pub fn summary_json(f: &ForensicsSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!("{{\"commits\":{}", f.commits));

    // Cluster-total wait integrals by reason.
    out.push_str(",\"waits\":{");
    for (i, r) in WaitReason::ALL.iter().enumerate() {
        let ns: u64 = f.waits.iter().map(|w| w.ns[*r as usize]).sum();
        let ev: u64 = f.waits.iter().map(|w| w.events[*r as usize]).sum();
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{{\"ns\":{ns},\"events\":{ev}}}", r.name()));
    }
    out.push('}');

    // Straggler leaderboard: nonzero tallies, most-blamed first.
    let mut board: Vec<(usize, u64)> = f
        .straggler_quorums
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect();
    board.sort_by_key(|&(n, c)| (std::cmp::Reverse(c), n));
    out.push_str(",\"stragglers\":[");
    for (i, (n, c)) in board.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"node\":{n},\"quorums\":{c}}}"));
    }
    out.push(']');

    // Outlier ring, slowest first (the snapshot is already sorted).
    out.push_str(",\"outliers\":[");
    for (i, rec) in f.outliers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"0x{:016x}\",\"latency_ns\":{}",
            rec.id, rec.latency_ns
        ));
        match rec.straggler {
            Some(s) => out.push_str(&format!(",\"straggler\":{s}")),
            None => out.push_str(",\"straggler\":null"),
        }
        out.push_str(&format!(",\"retransmits\":{}", rec.retransmits));
        let b = blame(rec).unwrap_or_default();
        match b.leader {
            Some(l) => out.push_str(&format!(",\"leader\":{l}")),
            None => out.push_str(",\"leader\":null"),
        }
        out.push_str(&format!(",\"fan_outs\":{}", b.fan_outs));
        out.push_str(",\"marks_ns\":{");
        let mut first = true;
        for st in SpanStage::ALL {
            if let Some(m) = rec.mark(st) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{}\":{}", st.name(), m.at_ns));
            }
        }
        out.push_str("},\"blame_ns\":{");
        for (j, c) in BlameCause::ALL.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), b.ns[*c as usize]));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// One outlier's blame vector, nanoseconds per cause.
fn blame_ns(o: &Value) -> Result<[u64; BlameCause::COUNT], String> {
    let mut ns = [0u64; BlameCause::COUNT];
    for c in BlameCause::ALL {
        ns[c as usize] = o.u64_at(&format!("blame_ns.{}", c.name()))?;
    }
    Ok(ns)
}

/// Aggregate blame nanoseconds per cause over a run's outlier array.
fn tail_blame(forensics: &Value) -> Result<[u64; BlameCause::COUNT], String> {
    let mut ns = [0u64; BlameCause::COUNT];
    for o in forensics.map_at("outliers", blame_ns)? {
        for (sum, v) in ns.iter_mut().zip(o) {
            *sum += v;
        }
    }
    Ok(ns)
}

/// The causes with nonzero blame, largest first (ties in enum order).
fn ranked(ns: &[u64; BlameCause::COUNT]) -> Vec<(BlameCause, u64)> {
    let mut ranked: Vec<(BlameCause, u64)> = BlameCause::ALL
        .iter()
        .map(|&c| (c, ns[c as usize]))
        .filter(|&(_, v)| v > 0)
        .collect();
    ranked.sort_by_key(|&(c, v)| (std::cmp::Reverse(v), c as usize));
    ranked
}

/// The headline blame line for one run's `"forensics"` member: aggregate
/// cause shares over the outlier ring (the latency tail), largest first,
/// zero causes omitted.
pub fn blame_line(system: &str, nodes: u64, forensics: &Value) -> Result<String, String> {
    let ns = tail_blame(forensics)?;
    let total: u64 = ns.iter().sum();
    let mut line = format!("blame {system}@{nodes}:");
    let ranked = ranked(&ns);
    if ranked.is_empty() {
        line.push_str(" no finalized outliers");
    }
    for (c, v) in ranked {
        line.push_str(&format!(" {} {:.1}%", c.name(), share(v, total)));
    }
    Ok(line)
}

/// One human paragraph explaining one outlier, in the issue's grammar:
/// "commit 0x… 412.3us: 71% leader egress queueing behind 12 payload
/// fan-outs; straggler n5; 1 retransmit round; then …".
fn outlier_paragraph(o: &Value) -> Result<String, String> {
    let lat = o.u64_at("latency_ns")?;
    let ranked = ranked(&blame_ns(o)?);
    let mut out = format!("outlier {} {:.1}us:", o.str_at("id")?, us(lat));
    match ranked.first() {
        Some(&(BlameCause::LeaderEgressQueue, v)) => {
            out.push_str(&format!(
                " {:.0}% leader egress queueing behind {} payload fan-outs",
                share(v, lat),
                o.u64_at("fan_outs")?
            ));
        }
        Some(&(c, v)) => {
            out.push_str(&format!(" {:.0}% {}", share(v, lat), c.name()));
        }
        None => out.push_str(" no attributed time"),
    }
    match o.at("straggler")? {
        Value::Null => out.push_str("; straggler unknown"),
        _ => out.push_str(&format!("; straggler n{}", o.u64_at("straggler")?)),
    }
    let retx = o.u64_at("retransmits")?;
    if retx > 0 {
        out.push_str(&format!(
            "; {retx} retransmit round{}",
            if retx == 1 { "" } else { "s" }
        ));
    }
    let rest: Vec<String> = ranked
        .iter()
        .skip(1)
        .take(3)
        .map(|&(c, v)| format!("{} {:.0}%", c.name(), share(v, lat)))
        .collect();
    if !rest.is_empty() {
        out.push_str(&format!("; then {}", rest.join(", ")));
    }
    Ok(out)
}

/// One run's block: finalized-commit count, cluster wait totals, the tail
/// blame histogram, the straggler leaderboard, and [`TOP_OUTLIERS`]
/// outlier paragraphs.
fn forensics_block(f: &Value) -> Result<String, String> {
    let paragraphs = f.map_at("outliers", outlier_paragraph)?;
    let mut out = format!(
        "commits finalized: {}   outliers kept: {}\n",
        f.u64_at("commits")?,
        paragraphs.len()
    );
    out.push_str("cluster waits:\n");
    for w in WaitReason::ALL {
        let ns = f.u64_at(&format!("waits.{}.ns", w.name()))?;
        let ev = f.u64_at(&format!("waits.{}.events", w.name()))?;
        if ns > 0 {
            out.push_str(&format!(
                "  {:>13}  {:>14.1}us  {:>10} events\n",
                w.name(),
                us(ns),
                ev
            ));
        }
    }
    let ns = tail_blame(f)?;
    let total: u64 = ns.iter().sum();
    if total > 0 {
        out.push_str("tail blame (over the outlier ring):\n");
        for (c, v) in ranked(&ns) {
            out.push_str(&format!(
                "  {:>19}  {:>5.1}%  {:>14.1}us\n",
                c.name(),
                share(v, total),
                us(v)
            ));
        }
    }
    let board = f.map_at("stragglers", |s| {
        Ok(format!(
            " n{}\u{00d7}{}",
            s.u64_at("node")?,
            s.u64_at("quorums")?
        ))
    })?;
    if !board.is_empty() {
        out.push_str("straggler leaderboard:");
        out.push_str(&board[..board.len().min(6)].concat());
        out.push('\n');
    }
    for p in paragraphs.iter().take(TOP_OUTLIERS) {
        out.push_str(&format!("{p}\n"));
    }
    Ok(out)
}

/// Render the full `--forensics` report for a parsed document: one
/// [`forensics_block`] per run carrying a `"forensics"` member, followed by
/// the greppable `blame ` headline lines. Returns `Err` when the document
/// carries no forensics members at all (a pre-feature export) or a run
/// lacks a member the writer always emits.
pub fn forensics_report(doc: &Value) -> Result<String, String> {
    json::report(
        doc,
        "forensics",
        "the tail-latency forensics layer",
        "headlines",
        |r| json::under("forensics", forensics_block(r.member)),
        |r| {
            let line = blame_line(r.system, r.nodes, r.member);
            Ok(format!("{}\n", json::under("forensics", line)?))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{CommitForensics, ForensicMark, WaitStats};

    fn snap() -> ForensicsSnapshot {
        let mut leader_waits = WaitStats::default();
        leader_waits.ns[WaitReason::EgressQueue as usize] = 800_000;
        leader_waits.events[WaitReason::EgressQueue as usize] = 40;
        let mut rec = CommitForensics {
            id: 0x0009_0000_0000_0001,
            msg_id: 0x8001_0000_0000_0002,
            straggler: Some(5),
            latency_ns: 400_000,
            last_submit_ns: 100,
            ..CommitForensics::default()
        };
        let m = |at_ns: u64, node: usize, eq_ns: u64, eq_ev: u64| {
            let mut waits = WaitStats::default();
            waits.ns[WaitReason::EgressQueue as usize] = eq_ns;
            waits.events[WaitReason::EgressQueue as usize] = eq_ev;
            ForensicMark { at_ns, node, waits }
        };
        rec.marks[SpanStage::Submit as usize] = Some(m(100, 9, 0, 0));
        rec.marks[SpanStage::LeaderRecv as usize] = Some(m(2_000, 0, 10_000, 2));
        rec.marks[SpanStage::Quorum as usize] = Some(m(390_000, 0, 310_000, 14));
        rec.marks[SpanStage::ClientResp as usize] = Some(m(400_100, 9, 0, 0));
        let mut straggler_quorums = vec![0; 10];
        straggler_quorums[5] = 12;
        straggler_quorums[2] = 3;
        ForensicsSnapshot {
            waits: vec![leader_waits; 1],
            straggler_quorums,
            commits: 1000,
            outliers: vec![rec],
        }
    }

    #[test]
    fn summary_is_valid_json_with_exact_integers() {
        let s = summary_json(&snap());
        let v = json::parse(&s).expect("valid JSON");
        assert_eq!(v.u64_at("commits").unwrap(), 1000);
        assert_eq!(v.u64_at("waits.egress_queue.ns").unwrap(), 800_000);
        let board = v.get("stragglers").and_then(Value::as_array).unwrap();
        assert_eq!(board[0].u64_at("node").unwrap(), 5);
        assert_eq!(board[0].u64_at("quorums").unwrap(), 12);
        let o = &v.get("outliers").and_then(Value::as_array).unwrap()[0];
        assert_eq!(o.u64_at("latency_ns").unwrap(), 400_000);
        assert_eq!(o.u64_at("straggler").unwrap(), 5);
        // The blame vector sums exactly to the measured latency.
        assert_eq!(blame_ns(o).unwrap().iter().sum::<u64>(), 400_000);
        // Deterministic rendering: same snapshot, same bytes.
        assert_eq!(s, summary_json(&snap()));
    }

    #[test]
    fn report_renders_blame_lines_and_paragraphs() {
        let doc = json::parse(&format!(
            "{{\"records\":[{{\"label\":\"acuerdo-n64\",\"system\":\"acuerdo\",\"nodes\":64,\
             \"forensics\":{}}}]}}",
            summary_json(&snap())
        ))
        .unwrap();
        let rep = forensics_report(&doc).unwrap();
        assert!(rep.contains("== acuerdo-n64 (acuerdo, n=64) =="), "{rep}");
        assert!(
            rep.contains("blame acuerdo@64: leader_egress_queue"),
            "{rep}"
        );
        assert!(rep.contains("straggler n5"), "{rep}");
        assert!(
            rep.contains("straggler leaderboard: n5\u{00d7}12 n2\u{00d7}3"),
            "{rep}"
        );
        // A document with no forensics members is rejected, not rendered
        // empty.
        let old = json::parse("{\"records\":[{\"label\":\"x\"}]}").unwrap();
        assert!(forensics_report(&old).is_err());
    }
}
