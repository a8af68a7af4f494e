//! Ring dissemination (ROADMAP item 3): the two-armed ring topology must
//! preserve every star-mode guarantee while collapsing the leader's O(n)
//! egress to O(1) per message.
//!
//! The battery proves five things:
//! * commits flow down both arms and every replica converges on the same
//!   delivery history (smoke + cluster check),
//! * determinism survives the forwarding hop — traced and untraced runs are
//!   byte-identical at the metrics-snapshot level, and replays reproduce,
//! * the forensics contract holds with the extra hop: every outlier's blame
//!   vector still sums *exactly* to its measured commit latency,
//! * the whole point — at the 64-node scale-study operating point the ring
//!   leader sends less than 40% of the star leader's egress bytes per
//!   request while committing at least 1.5x as many messages,
//! * large entries are cut through: a forwarder passes an entry's first
//!   segment on before its second has landed, and only ring forwarders'
//!   routes segment at all.

use acuerdo_repro::abcast::{blame, check_cluster, cluster_with_client, WindowClient};
use acuerdo_repro::acuerdo::{self, AcWire, AcuerdoConfig, AcuerdoNode, DisseminationMode};
use acuerdo_repro::simnet::{Counter, MetricsSnapshot, SimTime, TraceEvent};
use std::time::Duration;

fn ring_cfg(n: usize) -> AcuerdoConfig {
    AcuerdoConfig {
        dissemination: DisseminationMode::Ring,
        ..AcuerdoConfig::stable(n)
    }
}

/// Run an `n`-replica ring-mode cluster for `ms` simulated milliseconds and
/// return (delivery histories, completed requests, metrics).
fn ring_run(
    seed: u64,
    n: usize,
    payload: usize,
    window: usize,
    ms: u64,
    traced: bool,
) -> (
    Vec<Vec<(acuerdo_repro::abcast::MsgHdr, bytes::Bytes)>>,
    u64,
    MetricsSnapshot,
) {
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(seed, &ring_cfg(n), window, payload, Duration::ZERO);
    sim.set_tracing(traced);
    sim.run_until(SimTime::from_millis(ms));
    check_cluster::<AcuerdoNode>(&sim, &ids).expect("ring cluster check");
    let completed = sim.node::<WindowClient<AcWire>>(client).total_completed;
    let h = acuerdo::histories(&sim, &ids);
    let m = sim.metrics();
    (h, completed, m)
}

#[test]
fn ring_smoke_commits_and_forwards() {
    // 5 nodes: the leader streams to its two neighbours, 1 and 4, which
    // forward to 2 and 3 — the ends of the two arms. Every replica must
    // deliver the same prefix.
    let (h, completed, m) = ring_run(7, 5, 10, 8, 5, false);
    assert!(completed > 200, "only {completed} commits in ring mode");
    for (i, hist) in h.iter().enumerate() {
        assert!(!hist.is_empty(), "replica {i} delivered nothing");
    }
    // The arms actually carried the frames — two forwards per message, one
    // per arm head — and the fault-free run never fell back to star fan-out
    // nor dropped dupes.
    let forwards = m.total(Counter::RingForwards);
    assert!(
        (2 * completed..=2 * (completed + 8)).contains(&forwards),
        "{forwards} forwards for {completed} commits at window 8"
    );
    assert_eq!(m.total(Counter::RingFallbackSends), 0);
    assert_eq!(m.total(Counter::RingDupDrops), 0);
}

#[test]
fn ring_mode_traced_and_untraced_runs_are_byte_identical() {
    // The event recorder only observes; the forwarding hop must not leak
    // tracing state into the execution. Strongest cheap statement: the whole
    // metrics document (every counter, gauge extreme, forensics record on
    // every node) renders the same bytes with tracing on and off, and a
    // replay reproduces it.
    let (h1, c1, m1) = ring_run(42, 5, 64, 8, 5, true);
    let (h2, c2, m2) = ring_run(42, 5, 64, 8, 5, false);
    assert_eq!(c1, c2, "tracing changed completion count");
    assert_eq!(h1, h2, "tracing changed delivery histories");
    assert_eq!(m1.to_json(), m2.to_json(), "tracing changed the metrics");
    let (h3, c3, m3) = ring_run(42, 5, 64, 8, 5, false);
    assert_eq!(c2, c3, "replay diverged");
    assert_eq!(h2, h3, "replay diverged");
    assert_eq!(m2.to_json(), m3.to_json(), "replay diverged");
}

#[test]
fn ring_outlier_blame_still_sums_exactly() {
    // The forwarder stamps a RingWrite mark on every hop; blame telescopes
    // over whatever marks are present, so the decomposition must stay exact
    // (zero slack) with the extra stage in the path.
    let (_, _, m) = ring_run(21, 5, 10, 8, 8, false);
    let f = &m.forensics;
    assert!(!f.outliers.is_empty(), "outlier ring stayed empty");
    for rec in &f.outliers {
        let b = blame(rec).expect("finalized outlier must be blameable");
        assert_eq!(
            b.total_ns(),
            rec.latency_ns,
            "blame vector does not sum to the measured latency in ring mode"
        );
    }
}

#[test]
fn ring_collapses_leader_egress_at_64_nodes() {
    // The scale-study operating point (16 KiB payloads, window 8): in star
    // mode the leader serialises 63 copies of every payload and its NIC is
    // the committed bottleneck (113% requested utilization in the
    // baseline). The ring must cut the leader's egress per request below
    // 40% of star's, and to the two copies its arm heads get plus framing,
    // while committing at least 1.5x as many messages. Egress is counted
    // per request served (committed, or in the client's window at the
    // horizon): a byte total over a fixed horizon grows with the ring's own
    // throughput.
    let run = |mode: DisseminationMode| {
        let cfg = AcuerdoConfig {
            dissemination: mode,
            ..AcuerdoConfig::stable(64)
        };
        let (mut sim, ids, client) =
            cluster_with_client::<AcuerdoNode>(42, &cfg, 8, 16384, Duration::ZERO);
        sim.run_until(SimTime::from_millis(4));
        check_cluster::<AcuerdoNode>(&sim, &ids).expect("cluster check");
        let completed = sim.node::<WindowClient<AcWire>>(client).total_completed;
        let leader_tx = sim.metrics().res.nodes[0].tx.total_bytes();
        (completed, leader_tx)
    };
    let (star_done, star_tx) = run(DisseminationMode::Star);
    let (ring_done, ring_tx) = run(DisseminationMode::Ring);
    assert!(star_done > 0 && ring_done > 0);
    let copies = |tx: u64, done: u64| tx as f64 / ((done + 8) as f64 * 16384.0);
    let (star_copies, ring_copies) = (copies(star_tx, star_done), copies(ring_tx, ring_done));
    assert!(
        ring_copies < 0.40 * star_copies,
        "ring leader egress {ring_copies:.2} payload copies per request is not under 40% of \
         star's {star_copies:.2}"
    );
    assert!(
        ring_copies < 2.2,
        "ring leader egress {ring_copies:.2} payload copies per request: more than its two \
         arm heads' copies and framing"
    );
    assert!(
        ring_done as f64 >= 1.5 * star_done as f64,
        "ring committed {ring_done}, star {star_done}: no 1.5x win"
    );
}

#[test]
fn ring_survives_arm_head_crash_via_star_fallback() {
    // Crash the head of the counter-clockwise arm (4 feeds 3) while traffic
    // flows: the leader must bridge the broken segment (star fallback for
    // the node behind the dead one) and commits must keep flowing — quorum
    // never includes the dead node.
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..ring_cfg(5)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(11, &cfg, 8, 10, Duration::ZERO);
    sim.crash_at(4, SimTime::from_millis(2));
    sim.run_until(SimTime::from_millis(10));
    check_cluster::<AcuerdoNode>(&sim, &ids).expect("cluster check after crash");
    let before = sim.node::<WindowClient<AcWire>>(client).total_completed;
    assert!(before > 0);
    // Fallback lanes engaged for the segment downstream of the dead node.
    assert!(
        sim.counter(0, Counter::RingFallbackSends) > 0,
        "leader never bridged the broken arm segment"
    );
    // Survivors past the break kept delivering.
    for &id in &ids {
        if id == 4 {
            continue;
        }
        assert!(
            sim.counter(id, Counter::Commits) > 0,
            "survivor {id} starved after the arm broke"
        );
    }
}

/// A traced `n`-replica cluster under `mode` at `payload` bytes, window 8,
/// run for 3 ms: its trace.
fn traced_run(mode: DisseminationMode, n: usize, payload: usize) -> Vec<TraceEvent> {
    let cfg = AcuerdoConfig {
        dissemination: mode,
        ..AcuerdoConfig::stable(n)
    };
    let (mut sim, ids, _client) =
        cluster_with_client::<AcuerdoNode>(42, &cfg, 8, payload, Duration::ZERO);
    sim.set_tracing(true);
    sim.run_until(SimTime::from_millis(3));
    check_cluster::<AcuerdoNode>(&sim, &ids).expect("cluster check");
    sim.take_trace()
}

/// `(cnt, part, at)` of every segment node `node` posted.
fn seg_posts(trace: &[TraceEvent], node: usize) -> Vec<(u64, u64, SimTime)> {
    trace
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Proto { at, node: n, ev } if n == node && ev.name == "seg_post" => {
                Some((ev.a, ev.b, at))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn ring_forwarders_cut_large_entries_through_and_nothing_else_segments() {
    // 16 nodes at 8 KiB: every entry travels as two segments, and a
    // forwarder passes the first one on without waiting for the second:
    // the poll that posts segment 0 began before segment 1 had landed, so
    // it could not have seen it. The run is fault-free in one epoch, so
    // the k-th payload-sized packet a forwarder's upstream delivers to it
    // is segment k mod 2 of entry k / 2 + 1. A segment 0 that lands while
    // the forwarder's CPU is busy is read together with segment 1 by the
    // next poll (3 % of entries at this seed), hence the 90 % floor.
    let n = 16;
    assert_eq!(acuerdo::msg::segments(8192), 2);
    let trace = traced_run(DisseminationMode::Ring, n, 8192);
    let (mut checked, mut early) = (0, 0);
    for f in 1..n {
        let route = acuerdo::ring_route(n, 0, f);
        if route.downstream.is_none() {
            continue;
        }
        let landed: Vec<SimTime> = trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::NicIngress {
                    node,
                    src,
                    end,
                    bytes,
                    ..
                } if node == f && src == route.upstream && bytes > 2048 => Some(end),
                _ => None,
            })
            .collect();
        let handlers: Vec<(SimTime, SimTime)> = trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::CpuBusy { node, start, end } if node == f => Some((start, end)),
                _ => None,
            })
            .collect();
        let posts = seg_posts(&trace, f);
        assert!(!posts.is_empty(), "forwarder {f} cut nothing through");
        for (i, parts) in landed.chunks_exact(2).enumerate() {
            let cnt = i as u64 + 1;
            let Some(&(_, _, posted)) = posts.iter().find(|p| p.0 == cnt && p.1 == 0) else {
                break;
            };
            let (began, _) = *handlers
                .iter()
                .find(|&&(start, end)| start <= posted && posted <= end)
                .expect("a post inside a handler");
            checked += 1;
            early += usize::from(began < parts[1]);
        }
    }
    assert!(checked > 5_000, "only {checked} entries checked");
    assert!(
        early * 10 >= checked * 9,
        "segment 0 left before segment 1 landed for only {early} of {checked} entries"
    );
    // A star leader and a ring of three (whose followers all head an arm)
    // have nobody to cut through for: every payload-sized packet is a
    // whole entry.
    for (mode, n) in [(DisseminationMode::Star, 16), (DisseminationMode::Ring, 3)] {
        let trace = traced_run(mode, n, 8192);
        for node in 0..n {
            assert!(
                seg_posts(&trace, node).is_empty(),
                "{mode:?} n={n}: segment posted"
            );
        }
        let mut payloads = 0;
        for e in &trace {
            if let TraceEvent::NicEgress { bytes, .. } = *e {
                assert!(
                    bytes <= 2048 || bytes > 8192,
                    "{mode:?} n={n}: {bytes} B packet"
                );
                payloads += usize::from(bytes > 8192);
            }
        }
        assert!(
            payloads > 100,
            "{mode:?} n={n}: only {payloads} payload packets"
        );
    }
}
