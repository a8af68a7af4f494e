//! Additional edge-case coverage for the TCP baselines: Zab's cumulative
//! commit watermark, libpaxos under asymmetric link delays at scale, and
//! etcd/Raft log convergence after a partitioned-ish leader change.

use acuerdo_repro::abcast::{check_cluster, cluster_with_client, WindowClient};
use acuerdo_repro::simnet::{Counter, SimTime};
use std::time::Duration;

#[test]
fn zab_cumulative_commit_survives_delayed_acks() {
    use acuerdo_repro::zab::{self, ZabConfig, ZkWire};
    // Slow the leader→follower-2 proposal path: follower 1 alone forms the
    // quorum, commits advance cumulatively, and follower 2 must still
    // deliver the full prefix (from buffered proposals + the watermark).
    let cfg = ZabConfig::default();
    let (mut sim, ids, client) =
        cluster_with_client::<zab::ZabNode>(301, &cfg, 8, 10, Duration::from_millis(5));
    sim.add_link_latency(0, 2, Duration::from_millis(2), SimTime::from_millis(30));
    sim.run_until(SimTime::from_millis(80));
    check_cluster::<zab::ZabNode>(&sim, &ids).unwrap();
    let r = sim.node::<WindowClient<ZkWire>>(client).result();
    assert!(r.completed > 100, "quorum stalled: {}", r.completed);
    // The delayed follower converges once the transient passes.
    let d2 = sim.counter(2, Counter::Commits);
    let d1 = sim.counter(1, Counter::Commits);
    assert!(
        d2 * 10 >= d1 * 9,
        "delayed follower too far behind: {d2} vs {d1}"
    );
}

#[test]
fn zab_five_nodes_totally_order_under_load() {
    use acuerdo_repro::zab::{self, ZabConfig, ZkWire};
    let cfg = ZabConfig {
        n: 5,
        ..ZabConfig::default()
    };
    let (mut sim, ids, client) =
        cluster_with_client::<zab::ZabNode>(302, &cfg, 16, 100, Duration::from_millis(5));
    sim.run_until(SimTime::from_millis(80));
    check_cluster::<zab::ZabNode>(&sim, &ids).unwrap();
    assert!(sim.node::<WindowClient<ZkWire>>(client).result().completed > 100);
}

#[test]
fn libpaxos_scales_down_gracefully_to_single_node() {
    use acuerdo_repro::paxos::{self, PaxosConfig, PxWire};
    // n = 1: the degenerate quorum of one must self-choose instantly.
    let cfg = PaxosConfig { n: 1 };
    let (mut sim, ids, client) =
        cluster_with_client::<paxos::PaxosNode>(303, &cfg, 4, 10, Duration::from_millis(2));
    sim.run_until(SimTime::from_millis(30));
    check_cluster::<paxos::PaxosNode>(&sim, &ids).unwrap();
    let r = sim.node::<WindowClient<PxWire>>(client).result();
    assert!(r.completed > 50, "single-node paxos stalled");
    assert!(sim.counter(0, Counter::Commits) > 50);
}

#[test]
fn libpaxos_seven_acceptors_tolerate_three_slow() {
    use acuerdo_repro::paxos::{self, PaxosConfig, PxWire};
    let cfg = PaxosConfig { n: 7 };
    let (mut sim, ids, client) =
        cluster_with_client::<paxos::PaxosNode>(304, &cfg, 8, 10, Duration::from_millis(5));
    for slow in [4usize, 5, 6] {
        sim.pause_at(slow, SimTime::ZERO, Duration::from_secs(10));
    }
    sim.run_until(SimTime::from_millis(80));
    check_cluster::<paxos::PaxosNode>(&sim, &ids).unwrap();
    let r = sim.node::<WindowClient<PxWire>>(client).result();
    assert!(r.completed > 100, "4-of-7 quorum must commit");
}

#[test]
fn raft_log_conflict_is_truncated_after_leadership_change() {
    use acuerdo_repro::raft::{self, RaftConfig, RaftNode, RfWire};
    // Make follower 2 lag (descheduled) while the leader replicates, then
    // crash the leader: the new leader's AppendEntries consistency check
    // must walk follower 2 back and re-converge the logs.
    let cfg = RaftConfig::default();
    let (mut sim, ids, client) =
        cluster_with_client::<raft::RaftNode>(305, &cfg, 8, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<RfWire>>(client).retransmit = Some(Duration::from_millis(100));
    sim.pause_at(2, SimTime::from_millis(5), Duration::from_millis(60));
    sim.run_until(SimTime::from_millis(40));
    sim.crash(0);
    sim.run_until(SimTime::from_millis(900));
    let new_leader = ids
        .iter()
        .find(|&&id| {
            !sim.is_crashed(id)
                && sim.node::<RaftNode>(id).role() == acuerdo_repro::raft::RaftRole::Leader
        })
        .copied()
        .expect("new leader");
    sim.node_mut::<WindowClient<RfWire>>(client).targets = vec![new_leader];
    sim.run_until(SimTime::from_millis(2_000));
    check_cluster::<raft::RaftNode>(&sim, &ids).unwrap();
    // The lagged follower converged to the new leader's log.
    let dl = sim.counter(new_leader, Counter::Commits);
    let d2 = sim.counter(2, Counter::Commits);
    assert!(d2 > 0, "lagged follower never recovered");
    assert!(dl > 0);
}

#[test]
fn apus_recovers_after_transient_total_stall() {
    use acuerdo_repro::apus::{self, ApWire, ApusConfig};
    // All followers briefly unreachable (extra latency): the single pending
    // batch stalls, then the pipeline refills without loss or reorder.
    let cfg = ApusConfig::default();
    let (mut sim, ids, client) =
        cluster_with_client::<apus::ApusNode>(306, &cfg, 32, 10, Duration::from_millis(1));
    sim.add_link_latency(0, 1, Duration::from_millis(1), SimTime::from_millis(6));
    sim.add_link_latency(0, 2, Duration::from_millis(1), SimTime::from_millis(6));
    sim.run_until(SimTime::from_millis(20));
    check_cluster::<apus::ApusNode>(&sim, &ids).unwrap();
    let r = sim.node::<WindowClient<ApWire>>(client).result();
    assert!(
        r.completed > 500,
        "no recovery after stall: {}",
        r.completed
    );
}
