//! Resource-utilization tables and the automated bottleneck ranker.
//!
//! Two halves:
//!
//! * [`summary_json`] turns a live [`ResourceSnapshot`] into the compact
//!   `"util"` member every metrics record carries — fixed key order, fixed
//!   float formatting, so byte-identical runs produce byte-identical
//!   documents and `bench-diff` can gate on it exactly.
//! * [`bottleneck_report`] ingests a previously written document (the
//!   `paper` run's `BENCH_paper.json` or a `--metrics-out` sidecar) through
//!   [`crate::json`] and renders per-run utilization tables plus one ranked
//!   verdict line per system×scale — the `trace-report --bottleneck` mode.
//!
//! The verdict grammar is deliberately greppable (CI anchors on the
//! `bottleneck ` prefix): `bottleneck <system>@<nodes>: <top resource>
//! <util>% utilized, <share>% of bytes are <kind> — <prescription>;
//! closed-loop bound window <w> / p50 <t> µs ≈ <bound> msgs/s, <x> measured`.

use simnet::{cpu_slot_name, MsgKind, ResourceSnapshot, CPU_SLOTS};

use crate::json::{self, Value};

/// Utilization below which no resource is called a bottleneck (percent).
const SATURATION_FLOOR_PCT: f64 = 30.0;

/// Rows shown in the top-talker and hottest-link tables.
const TOP_N: usize = 4;

fn pct(busy_ns: u64, elapsed_ns: u64) -> f64 {
    if elapsed_ns == 0 {
        0.0
    } else {
        busy_ns as f64 * 100.0 / elapsed_ns as f64
    }
}

/// `part` as a percentage of `whole` (0 of nothing).
pub(crate) fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Render the fixed-order `"util"` JSON object for one run.
///
/// `proto_nodes` is the protocol cluster size `n`: nodes `0..n` are
/// replicas (node 0 the initial leader), nodes `>= n` are harness clients.
/// All percentages are printed with one fractional digit — formatting is
/// part of the document contract.
pub fn summary_json(res: &ResourceSnapshot, proto_nodes: usize) -> String {
    let elapsed = res.elapsed_ns;
    let mut out = String::with_capacity(1024);
    out.push_str(&format!("{{\"elapsed_ns\":{elapsed}"));

    // Cluster-wide byte/frame totals by kind.
    for (key, pick) in [("tx_bytes", true), ("tx_frames", false)] {
        out.push_str(&format!(",\"{key}\":{{"));
        let mut total = 0u64;
        for (i, k) in MsgKind::ALL.iter().enumerate() {
            let v: u64 = res
                .nodes
                .iter()
                .map(|n| {
                    if pick {
                        n.tx.bytes[*k as usize]
                    } else {
                        n.tx.frames[*k as usize]
                    }
                })
                .sum();
            total += v;
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", k.name()));
        }
        out.push_str(&format!(",\"total\":{total}}}"));
    }

    // Cluster-wide CPU attribution by stage.
    out.push_str(",\"cpu_ns\":{");
    let mut cpu_total = 0u64;
    for slot in 0..CPU_SLOTS {
        let v: u64 = res.nodes.iter().map(|n| n.cpu_ns[slot]).sum();
        cpu_total += v;
        if slot > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", cpu_slot_name(slot)));
    }
    out.push_str(&format!(",\"total\":{cpu_total}}}"));

    // Leader = node 0 by convention (every harness spawns the initial
    // leader first; elections in a measured run are themselves a finding).
    // CPU utilization counts work, not busy-wait polling: a spinning poll
    // loop occupies a core without limiting throughput (`cpu_work_ns`).
    let leader = res.nodes.first().copied().unwrap_or_default();
    let leader_tx = leader.tx.total_bytes();
    out.push_str(&format!(
        ",\"leader\":{{\"node\":0,\"egress_util_pct\":{:.1},\"ingress_util_pct\":{:.1},\
         \"cpu_util_pct\":{:.1},\"tx_bytes\":{},\"payload_share_pct\":{:.1}}}",
        pct(leader.tx.busy_ns, elapsed),
        pct(leader.rx.busy_ns, elapsed),
        pct(leader.cpu_work_ns(), elapsed),
        leader_tx,
        share(leader.tx.bytes[MsgKind::Payload as usize], leader_tx),
    ));

    // Followers: replicas 1..proto_nodes.
    let followers = res
        .nodes
        .iter()
        .enumerate()
        .take(proto_nodes)
        .skip(1)
        .collect::<Vec<_>>();
    let peak = followers
        .iter()
        .max_by_key(|(i, n)| (n.tx.busy_ns, std::cmp::Reverse(*i)))
        .map(|(i, n)| (*i, **n));
    let followers_tx: u64 = followers.iter().map(|(_, n)| n.tx.total_bytes()).sum();
    let (peak_node, peak_util) = match peak {
        Some((i, n)) => (i as i64, pct(n.tx.busy_ns, elapsed)),
        None => (-1, 0.0),
    };
    out.push_str(&format!(
        ",\"followers\":{{\"peak_node\":{peak_node},\"peak_egress_util_pct\":{peak_util:.1},\
         \"tx_bytes\":{followers_tx}}}"
    ));

    // Clients: everything spawned after the replicas.
    let clients_tx: u64 = res
        .nodes
        .iter()
        .skip(proto_nodes)
        .map(|n| n.tx.total_bytes())
        .sum();
    out.push_str(&format!(",\"clients\":{{\"tx_bytes\":{clients_tx}}}"));

    let all_tx = leader_tx + followers_tx + clients_tx;
    out.push_str(&format!(
        ",\"egress_share_pct\":{{\"leader\":{:.1},\"followers\":{:.1},\"clients\":{:.1}}}",
        share(leader_tx, all_tx),
        share(followers_tx, all_tx),
        share(clients_tx, all_tx),
    ));

    // Top talkers by egress bytes (ties broken toward the lower node id).
    let mut talkers: Vec<(usize, u64, u64)> = res
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (i, n.tx.total_bytes(), n.tx.busy_ns))
        .filter(|(_, b, _)| *b > 0)
        .collect();
    talkers.sort_by_key(|(i, b, _)| (std::cmp::Reverse(*b), *i));
    out.push_str(",\"top_talkers\":[");
    for (j, (i, b, busy)) in talkers.iter().take(TOP_N).enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"node\":{i},\"tx_bytes\":{b},\"egress_util_pct\":{:.1}}}",
            pct(*busy, elapsed)
        ));
    }
    out.push(']');

    // Hottest directed links by bytes (ties toward the smaller (src, dst)).
    let mut links: Vec<(usize, usize, u64, u64)> = res
        .links
        .iter()
        .map(|l| (l.src, l.dst, l.stats.total_bytes(), l.stats.busy_ns))
        .filter(|(_, _, b, _)| *b > 0)
        .collect();
    links.sort_by_key(|(s, d, b, _)| (std::cmp::Reverse(*b), *s, *d));
    out.push_str(",\"top_links\":[");
    for (j, (s, d, b, busy)) in links.iter().take(TOP_N).enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"src\":{s},\"dst\":{d},\"bytes\":{b},\"util_pct\":{:.1}}}",
            pct(*busy, elapsed)
        ));
    }
    out.push_str("]}");
    out
}

/// The closed-loop operating point of a run: a window of `window` requests
/// cannot complete faster than `window / latency`, however idle every
/// resource is. Printed beside each utilization verdict, because a busy
/// resource in a run that sits on this bound is not thereby the wall —
/// only a counterfactual (`whatif`: the resource ×2 against `window-x2`)
/// tells a resource-bound run from a latency-bound one.
#[derive(Copy, Clone, Debug)]
pub struct ClosedLoop {
    /// Client window (requests in flight).
    pub window: u64,
    /// Median commit latency, microseconds.
    pub p50_us: f64,
    /// Measured throughput, messages per second.
    pub msgs_per_sec: f64,
}

impl ClosedLoop {
    /// Read the operating point out of a run record; `None` for a run with
    /// no latency to bound by (zero window or zero commits).
    fn of_record(r: &Value) -> Result<Option<ClosedLoop>, String> {
        let c = ClosedLoop {
            window: r.u64_at("window")?,
            p50_us: r.f64_at("p50_us")?,
            msgs_per_sec: r.f64_at("msgs_per_sec")?,
        };
        Ok((c.window > 0 && c.p50_us > 0.0).then_some(c))
    }

    fn clause(&self) -> String {
        format!(
            "; closed-loop bound window {} / p50 {:.1} µs ≈ {:.0} msgs/s, {:.0} measured",
            self.window,
            self.p50_us,
            self.window as f64 * 1e6 / self.p50_us,
            self.msgs_per_sec
        )
    }
}

/// The ranked verdict line for one run's utilization summary.
///
/// Candidates, each a (utilization, description) pair: leader NIC egress,
/// the busiest follower's NIC egress, and leader CPU. The most-utilized one
/// wins; the tail clause turns the dominant byte kind into a prescription.
///
/// The prescription grammar is topology-aware: a system already running
/// ring dissemination (its name carries the `-ring` suffix) must never be
/// told to *adopt* it — a payload-heavy saturated leader there is feeding
/// its two arm heads (or, beyond two frames per message, star fallback),
/// and a saturated follower is the ring's expected steady state (the
/// forwarding hop), not a spread-out anomaly. Nor is a star of three or
/// fewer: `ring_route` gives every follower the leader as its upstream
/// there, so the ring it would be told to adopt is the star it runs.
///
/// Every utilization verdict ends with the run's closed-loop bound
/// ([`ClosedLoop`]) unless the run has none, and the CPU verdict names the
/// busiest resource without calling the run cpu-bound: utilization cannot
/// tell that apart from a latency-bound run whose leader fills its idle
/// time with periodic work.
pub fn verdict_line(
    system: &str,
    nodes: u64,
    util: &Value,
    closed_loop: Option<&ClosedLoop>,
) -> Result<String, String> {
    let ring = system.ends_with("-ring");
    let leader_egress = util.f64_at("leader.egress_util_pct")?;
    let follower_egress = util.f64_at("followers.peak_egress_util_pct")?;
    let leader_cpu = util.f64_at("leader.cpu_util_pct")?;
    let payload_share = util.f64_at("leader.payload_share_pct")?;

    let head = format!("bottleneck {system}@{nodes}");
    let top = leader_egress.max(follower_egress).max(leader_cpu);
    if top < SATURATION_FLOOR_PCT {
        return Ok(format!(
            "{head}: no saturated resource (leader egress {leader_egress:.1}%, \
             peak follower egress {follower_egress:.1}%, leader cpu {leader_cpu:.1}%)"
        ));
    }
    let verdict = if top == leader_egress {
        let total = util.u64_at("tx_bytes.total")?;
        let ack_share = share(util.u64_at("tx_bytes.ack")?, total);
        if payload_share >= 50.0 {
            if ring {
                format!(
                    "{head}: leader egress {leader_egress:.1}% utilized, {payload_share:.1}% of \
                     bytes are payload — the leader feeds two arm heads per message; anything \
                     beyond that is star fallback (ring_fallback_sends)"
                )
            } else if nodes > 3 {
                format!(
                    "{head}: leader egress {leader_egress:.1}% utilized, {payload_share:.1}% of \
                     bytes are payload fan-out — ring dissemination candidate"
                )
            } else {
                format!(
                    "{head}: leader egress {leader_egress:.1}% utilized, {payload_share:.1}% of \
                     bytes are payload fan-out to {} peers — a ring of {nodes} is this star \
                     (ring_route), only bytes per message can move it",
                    nodes.saturating_sub(1)
                )
            }
        } else if ack_share > payload_share {
            format!(
                "{head}: leader egress {leader_egress:.1}% utilized, {ack_share:.1}% of bytes \
                 are acks — ack batching/elision candidate"
            )
        } else {
            format!(
                "{head}: leader egress {leader_egress:.1}% utilized \
                 (payload share {payload_share:.1}%)"
            )
        }
    } else if top == follower_egress {
        let peak = util.f64_at("followers.peak_node")? as i64;
        if ring {
            format!(
                "{head}: follower egress {follower_egress:.1}% utilized (node {peak}) — \
                 arm forwarding hop at line rate; the ceiling is per-hop serialization, \
                 deepen the pipeline or shard the ring"
            )
        } else {
            format!(
                "{head}: follower egress {follower_egress:.1}% utilized (node {peak}) — \
                 dissemination already spread; look at per-follower work"
            )
        }
    } else {
        format!(
            "{head}: leader cpu {leader_cpu:.1}% utilized — busiest resource; \
             batching/elision candidate if whatif leader-cpu-x2 beats window-x2"
        )
    };
    Ok(match closed_loop {
        Some(c) => verdict + &c.clause(),
        None => verdict,
    })
}

fn table_row(out: &mut String, cols: &[String], widths: &[usize]) {
    for (i, c) in cols.iter().enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        out.push_str(&format!("{c:>w$}", w = widths[i]));
    }
    out.push('\n');
}

/// One run's utilization tables: byte totals by kind, CPU share by stage,
/// egress share, top talkers, hottest links.
fn util_tables(util: &Value) -> Result<String, String> {
    let mut out = String::from("bytes by kind:\n");
    let total = util.u64_at("tx_bytes.total")?;
    for k in MsgKind::ALL {
        let b = util.u64_at(&format!("tx_bytes.{}", k.name()))?;
        out.push_str(&format!(
            "  {:>10}  {:>14}  {:>5.1}%\n",
            k.name(),
            b,
            share(b, total)
        ));
    }
    out.push_str("cpu by stage:\n");
    let cpu_total = util.u64_at("cpu_ns.total")?;
    for slot in 0..CPU_SLOTS {
        let v = util.u64_at(&format!("cpu_ns.{}", cpu_slot_name(slot)))?;
        if v > 0 {
            out.push_str(&format!(
                "  {:>15}  {:>14}  {:>5.1}%\n",
                cpu_slot_name(slot),
                v,
                share(v, cpu_total)
            ));
        }
    }
    let pct = |path| util.f64_at(path);
    out.push_str(&format!(
        "egress share: leader {:.1}% / followers {:.1}% / clients {:.1}%   \
         leader egress util {:.1}%, peak follower {:.1}%, leader cpu {:.1}%\n",
        pct("egress_share_pct.leader")?,
        pct("egress_share_pct.followers")?,
        pct("egress_share_pct.clients")?,
        pct("leader.egress_util_pct")?,
        pct("followers.peak_egress_util_pct")?,
        pct("leader.cpu_util_pct")?,
    ));
    out.push_str("top talkers:\n");
    for row in util.map_at("top_talkers", |t| {
        Ok([
            format!("n{}", t.u64_at("node")?),
            t.u64_at("tx_bytes")?.to_string(),
            format!("{:.1}%", t.f64_at("egress_util_pct")?),
        ])
    })? {
        table_row(&mut out, &row, &[6, 14, 7]);
    }
    out.push_str("hottest links:\n");
    for row in util.map_at("top_links", |l| {
        Ok([
            format!("{}->{}", l.u64_at("src")?, l.u64_at("dst")?),
            l.u64_at("bytes")?.to_string(),
            format!("{:.1}%", l.f64_at("util_pct")?),
        ])
    })? {
        table_row(&mut out, &row, &[10, 14, 7]);
    }
    Ok(out)
}

/// Render the full `--bottleneck` report for a parsed document: one block
/// of [`util_tables`] per run with a `"util"` member, followed by the
/// ranked verdict lines. Returns `Err` when the document carries no
/// utilization summaries at all (an old export) or a run lacks a member
/// the writer always emits.
pub fn bottleneck_report(doc: &Value) -> Result<String, String> {
    json::report(
        doc,
        "util",
        "the resource-utilization layer",
        "verdicts",
        |r| json::under("util", util_tables(r.member)),
        |r| {
            let closed_loop = ClosedLoop::of_record(r.value)?;
            let line = verdict_line(r.system, r.nodes, r.member, closed_loop.as_ref());
            Ok(format!("{}\n", json::under("util", line)?))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{DirStats, LinkRes, NodeRes};

    fn snap() -> ResourceSnapshot {
        let mut leader = NodeRes::default();
        leader.tx.bytes[MsgKind::Payload as usize] = 7_000;
        leader.tx.frames[MsgKind::Payload as usize] = 70;
        leader.tx.bytes[MsgKind::Control as usize] = 1_000;
        leader.tx.frames[MsgKind::Control as usize] = 10;
        leader.tx.busy_ns = 900_000;
        leader.cpu_ns[1] = 50_000; // leader_recv
        leader.cpu_ns[simnet::CPU_SLOT_OTHER] = 10_000;
        leader.cpu_ns[simnet::CPU_SLOT_IDLE] = 700_000; // spinning, not work
        let mut follower = NodeRes::default();
        follower.tx.bytes[MsgKind::Ack as usize] = 2_000;
        follower.tx.frames[MsgKind::Ack as usize] = 40;
        follower.tx.busy_ns = 100_000;
        let mut client = NodeRes::default();
        client.tx.bytes[MsgKind::Payload as usize] = 500;
        client.tx.frames[MsgKind::Payload as usize] = 5;
        client.tx.busy_ns = 20_000;
        let link = LinkRes {
            src: 0,
            dst: 1,
            stats: DirStats {
                bytes: [7_000, 0, 0, 1_000],
                frames: [70, 0, 0, 10],
                busy_ns: 900_000,
            },
        };
        ResourceSnapshot {
            elapsed_ns: 1_000_000,
            nodes: vec![leader, follower, client],
            links: vec![link],
        }
    }

    #[test]
    fn summary_is_valid_json_with_fixed_members() {
        let s = summary_json(&snap(), 2);
        let v = json::parse(&s).expect("valid JSON");
        assert_eq!(v.f64_at("elapsed_ns").unwrap(), 1_000_000.0);
        assert_eq!(v.f64_at("tx_bytes.payload").unwrap(), 7_500.0);
        assert_eq!(v.f64_at("tx_bytes.total").unwrap(), 10_500.0);
        assert_eq!(v.f64_at("leader.egress_util_pct").unwrap(), 90.0);
        // 50k leader_recv + 10k other count as work; 700k idle_poll does not.
        assert_eq!(v.f64_at("leader.cpu_util_pct").unwrap(), 6.0);
        assert_eq!(v.f64_at("cpu_ns.idle_poll").unwrap(), 700_000.0);
        assert_eq!(v.f64_at("followers.peak_node").unwrap(), 1.0);
        assert_eq!(v.f64_at("clients.tx_bytes").unwrap(), 500.0);
        // Deterministic rendering: same snapshot, same bytes.
        assert_eq!(s, summary_json(&snap(), 2));
    }

    #[test]
    fn verdict_names_leader_egress_payload_fanout() {
        let s = summary_json(&snap(), 2);
        let v = json::parse(&s).unwrap();
        let line = verdict_line("acuerdo", 5, &v, None).unwrap();
        assert!(line.starts_with("bottleneck acuerdo@5: leader egress 90.0% utilized"));
        assert!(line.contains("ring dissemination candidate"), "{line}");
    }

    #[test]
    fn star_of_three_is_never_told_to_adopt_the_ring_it_already_is() {
        // Up to three nodes `ring_route` *is* star: the prescription would
        // change nothing. The verdict says what the egress is instead.
        let v = json::parse(&summary_json(&snap(), 2)).unwrap();
        for nodes in [2, 3] {
            let line = verdict_line("acuerdo", nodes, &v, None).unwrap();
            assert!(!line.contains("candidate"), "{line}");
            assert!(
                line.contains(&format!("payload fan-out to {} peers", nodes - 1)),
                "{line}"
            );
        }
        let line = verdict_line("acuerdo", 4, &v, None).unwrap();
        assert!(line.contains("ring dissemination candidate"), "{line}");
    }

    #[test]
    fn ring_system_is_never_told_to_adopt_ring_dissemination() {
        // Same payload-heavy saturated-leader snapshot, but the system is
        // already running the ring: the verdict must read it as arm-head
        // feeding or fallback, not prescribe the topology it is on.
        let s = summary_json(&snap(), 2);
        let v = json::parse(&s).unwrap();
        let line = verdict_line("acuerdo-ring", 2, &v, None).unwrap();
        assert!(
            line.starts_with("bottleneck acuerdo-ring@2: leader egress 90.0% utilized"),
            "{line}"
        );
        assert!(!line.contains("ring dissemination candidate"), "{line}");
        assert!(line.contains("star fallback"), "{line}");
        assert!(line.contains("ring_fallback_sends"), "{line}");
    }

    #[test]
    fn ring_system_saturated_follower_is_the_forwarding_hop() {
        // Make a follower the top talker: in ring mode that is the ring's
        // steady state and the verdict should name the per-hop ceiling; in
        // star mode the old "already spread" grammar must survive.
        let mut r = snap();
        r.nodes[1].tx.busy_ns = 950_000;
        let v = json::parse(&summary_json(&r, 2)).unwrap();
        let ring_line = verdict_line("acuerdo-ring", 2, &v, None).unwrap();
        assert!(
            ring_line.contains("arm forwarding hop at line rate"),
            "{ring_line}"
        );
        let star_line = verdict_line("acuerdo", 2, &v, None).unwrap();
        assert!(
            star_line.contains("dissemination already spread"),
            "{star_line}"
        );
    }

    #[test]
    fn quiet_cluster_has_no_bottleneck() {
        let mut r = snap();
        for n in &mut r.nodes {
            n.tx.busy_ns /= 100;
            n.cpu_ns = [0; CPU_SLOTS];
        }
        let v = json::parse(&summary_json(&r, 2)).unwrap();
        let quiet = ClosedLoop {
            window: 8,
            p50_us: 10.0,
            msgs_per_sec: 1.0,
        };
        let line = verdict_line("acuerdo", 2, &v, Some(&quiet)).unwrap();
        assert!(line.contains("no saturated resource"), "{line}");
        assert!(!line.contains("closed-loop"), "{line}");
    }

    #[test]
    fn busy_cpu_is_not_called_cpu_bound_and_meets_the_closed_loop_bound() {
        // Leader CPU the busiest resource at 96%: utilization alone cannot
        // tell a cpu-bound run from one that sits on window / latency, so
        // the line names the resource, prints the bound beside it and
        // points at the counterfactual that decides.
        let mut r = snap();
        r.nodes[0].tx.busy_ns = 100_000;
        r.nodes[0].cpu_ns[1] = 950_000;
        let v = json::parse(&summary_json(&r, 2)).unwrap();
        let at = ClosedLoop {
            window: 8,
            p50_us: 917.062,
            msgs_per_sec: 8714.5,
        };
        let line = verdict_line("acuerdo-ring", 64, &v, Some(&at)).unwrap();
        assert!(
            line.starts_with("bottleneck acuerdo-ring@64: leader cpu 96.0% utilized"),
            "{line}"
        );
        assert!(!line.contains("cpu-bound"), "{line}");
        assert!(line.contains("leader-cpu-x2 beats window-x2"), "{line}");
        assert!(
            line.ends_with(
                "; closed-loop bound window 8 / p50 917.1 µs ≈ 8724 msgs/s, 8714 measured"
            ),
            "{line}"
        );
    }

    #[test]
    fn report_renders_tables_and_verdicts() {
        let doc = json::parse(&format!(
            "{{\"records\":[{{\"label\":\"acuerdo-n3\",\"system\":\"acuerdo\",\"nodes\":3,\
             \"window\":8,\"msgs_per_sec\":62789.1,\"p50_us\":130.265,\"util\":{}}}]}}",
            summary_json(&snap(), 2)
        ))
        .unwrap();
        let rep = bottleneck_report(&doc).unwrap();
        assert!(rep.contains("== acuerdo-n3 (acuerdo, n=3) =="));
        assert!(rep.contains("bottleneck acuerdo@3"));
        // The record's operating point rides on the verdict.
        assert!(
            rep.contains(
                "closed-loop bound window 8 / p50 130.3 µs ≈ 61413 msgs/s, 62789 measured"
            ),
            "{rep}"
        );
        // A document with no util members is rejected, not rendered empty.
        let old = json::parse("{\"records\":[{\"label\":\"x\"}]}").unwrap();
        assert!(bottleneck_report(&old).is_err());
    }
}
