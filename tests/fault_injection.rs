//! Systematic fault injection across the Acuerdo stack: sequential leader
//! failures, transient descheduling, link delays, and the ring-backlog
//! catch-up path (§3's "efficient catch-up").

use acuerdo_repro::abcast::{check_cluster, cluster_with_client, Replica, WindowClient};
use acuerdo_repro::acuerdo::{self, current_leader, AcWire, AcuerdoConfig, AcuerdoNode, Role};
use acuerdo_repro::simnet::{Counter, DeschedProfile, SimTime};
use std::time::Duration;

fn fast_failover_cfg(n: usize) -> AcuerdoConfig {
    AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(n)
    }
}

#[test]
fn two_sequential_leader_failures_with_five_replicas() {
    // n = 5 tolerates f = 2: kill whoever leads, twice.
    let cfg = fast_failover_cfg(5);
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(77, &cfg, 8, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));

    sim.run_until(SimTime::from_millis(3));
    let l1 = current_leader(&sim, &ids).expect("first leader");
    sim.crash(l1);
    sim.run_until(SimTime::from_millis(12));
    let l2 = current_leader(&sim, &ids).expect("second leader");
    assert_ne!(l2, l1);
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![l2];
    sim.run_until(SimTime::from_millis(18));
    sim.crash(l2);
    sim.run_until(SimTime::from_millis(30));
    let l3 = current_leader(&sim, &ids).expect("third leader");
    assert!(l3 != l1 && l3 != l2);
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![l3];

    let before = sim.counter(l3, Counter::Commits);
    sim.run_until(SimTime::from_millis(45));
    let after = sim.counter(l3, Counter::Commits);
    assert!(after > before, "no progress with 3-of-5 quorum");
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn paused_leader_recovers_as_follower() {
    // The Table 1 scenario: the leader is descheduled (not crashed), a new
    // leader takes over, and the old one rejoins the new epoch when it
    // wakes.
    let cfg = fast_failover_cfg(3);
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(78, &cfg, 8, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
    sim.run_until(SimTime::from_millis(3));
    sim.pause_at(0, SimTime::from_millis(3), Duration::from_millis(10));
    // While node 0 is descheduled it still *believes* it leads; a unique
    // leader only exists again once it wakes (13ms) and accepts the new
    // epoch's diff.
    sim.run_until(SimTime::from_millis(20));
    let new_leader = current_leader(&sim, &ids).expect("replacement leader");
    assert_ne!(new_leader, 0);
    let old = sim.node::<AcuerdoNode>(0);
    assert_eq!(old.role(), Role::Follower, "old leader failed to rejoin");
    assert_eq!(old.epoch(), sim.node::<AcuerdoNode>(new_leader).epoch());
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![new_leader];
    let delivered_at_rejoin = sim.counter(0, Counter::Commits);
    sim.run_until(SimTime::from_millis(30));
    assert!(
        sim.counter(0, Counter::Commits) > delivered_at_rejoin,
        "rejoined follower stopped delivering"
    );
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn descheduled_follower_catches_up_from_ring_backlog() {
    // §3: a node that falls behind drains its ring in receiver-determined
    // batches and catches up, because the CPU processes messages faster than
    // the network delivers them.
    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, ids, _client) =
        cluster_with_client::<AcuerdoNode>(79, &cfg, 32, 10, Duration::ZERO);
    sim.run_until(SimTime::from_millis(2));
    sim.pause_at(2, SimTime::from_millis(2), Duration::from_millis(3));
    // Measure just before the wake-up at 5ms.
    sim.run_until(SimTime::from_micros(4_900));
    let lag_at_wake = {
        let leader = sim.counter(0, Counter::Commits);
        let lagger = sim.counter(2, Counter::Commits);
        leader.saturating_sub(lagger)
    };
    assert!(
        lag_at_wake > 100,
        "pause should create a backlog: {lag_at_wake}"
    );
    // Within a couple of milliseconds the lagger has drained the backlog to
    // within a commit-push interval of the leader.
    sim.run_until(SimTime::from_millis(8));
    let leader = sim.counter(0, Counter::Commits);
    let lagger = sim.counter(2, Counter::Commits);
    assert!(
        leader.saturating_sub(lagger) < lag_at_wake / 4,
        "no catch-up: {leader} vs {lagger} (was {lag_at_wake} behind)"
    );
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn transient_link_delay_does_not_stall_quorum() {
    // 200us of extra latency on the leader→follower-2 link: the quorum
    // (leader + follower 1) keeps committing at full speed.
    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(80, &cfg, 8, 10, Duration::from_millis(1));
    sim.add_link_latency(0, 2, Duration::from_micros(200), SimTime::from_millis(10));
    sim.run_until(SimTime::from_millis(15));
    let r = sim.node::<WindowClient<AcWire>>(client).result();
    assert!(
        r.latency.mean_us() < 60.0,
        "transient delay leaked into quorum latency: {}us",
        r.latency.mean_us()
    );
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn election_with_all_followers_slow_still_terminates() {
    // Every surviving node is long-latency: the election takes longer but
    // must still converge (the fixed-point argument of §3.3).
    let cfg = fast_failover_cfg(3);
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(81, &cfg, 4, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(5));
    sim.set_timer_jitter(1, Duration::from_millis(1));
    sim.set_timer_jitter(2, Duration::from_millis(1));
    sim.run_until(SimTime::from_millis(4));
    sim.crash(0);
    sim.run_until(SimTime::from_millis(60));
    let leader = current_leader(&sim, &ids).expect("election must terminate");
    assert_ne!(leader, 0);
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn repeated_elections_never_lose_committed_messages() {
    // Churn: pause each successive leader; after every failover, everything
    // committed before must still be in every live replica's history.
    let cfg = fast_failover_cfg(3);
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(82, &cfg, 8, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
    let mut min_committed = 0u64;
    for round in 0..4 {
        sim.run_for(Duration::from_millis(5));
        let Some(leader) = current_leader(&sim, &ids) else {
            continue;
        };
        let committed_now = sim.counter(leader, Counter::Commits);
        assert!(
            committed_now >= min_committed,
            "round {round}: commits went backwards"
        );
        min_committed = committed_now;
        sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![leader];
        sim.pause_at(leader, sim.now(), Duration::from_millis(8));
        sim.run_for(Duration::from_millis(10));
        check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
    }
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn derecho_view_change_under_load_keeps_total_order() {
    use acuerdo_repro::derecho::{self, DcWire, DerechoConfig, Mode};
    let cfg = DerechoConfig {
        n: 3,
        mode: Mode::AllSender,
        view_timeout: Duration::from_micros(500),
        ..DerechoConfig::default()
    };
    let (mut sim, ids, client) =
        cluster_with_client::<derecho::DerechoNode>(83, &cfg, 9, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<DcWire>>(client).retransmit = Some(Duration::from_millis(2));
    sim.run_until(SimTime::from_millis(3));
    sim.crash(1);
    sim.run_until(SimTime::from_millis(8));
    // Client stops aiming at the dead member.
    sim.node_mut::<WindowClient<DcWire>>(client).targets = vec![0, 2];
    sim.run_until(SimTime::from_millis(20));
    check_cluster::<derecho::DerechoNode>(&sim, &ids).unwrap();
    let n0 = sim.node::<acuerdo_repro::derecho::DerechoNode>(0);
    assert_eq!(n0.members(), vec![0, 2]);
}

#[test]
fn slow_node_descheduling_storm_acuerdo_vs_derecho() {
    // Heavier variant of the examples/slow_follower demo, asserted.
    let profile = DeschedProfile {
        mean_interval: Duration::from_micros(250),
        min_pause: Duration::from_micros(150),
        max_pause: Duration::from_micros(300),
    };
    // Acuerdo.
    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(84, &cfg, 8, 10, Duration::from_millis(1));
    sim.set_desched(2, profile);
    sim.run_until(SimTime::from_millis(12));
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
    let ac = sim.node::<WindowClient<AcWire>>(client).result();
    // Derecho.
    use acuerdo_repro::derecho::{self as d, DcWire, DerechoConfig, Mode};
    let dcfg = DerechoConfig {
        n: 3,
        mode: Mode::Leader,
        view_timeout: Duration::from_secs(10),
        ..DerechoConfig::default()
    };
    let (mut dsim, dids, dclient) =
        cluster_with_client::<d::DerechoNode>(84, &dcfg, 8, 10, Duration::from_millis(1));
    dsim.set_desched(2, profile);
    dsim.run_until(SimTime::from_millis(12));
    check_cluster::<d::DerechoNode>(&dsim, &dids).unwrap();
    let dc = dsim.node::<WindowClient<DcWire>>(dclient).result();

    assert!(
        ac.msgs_per_sec() > dc.msgs_per_sec() * 2.0,
        "quorum protocol should shrug off the slow node: acuerdo {} vs derecho {}",
        ac.msgs_per_sec(),
        dc.msgs_per_sec()
    );
}

#[test]
fn minority_partition_then_heal_keeps_total_order_acuerdo() {
    // Cut replicas {3,4} off from the majority (and the client), let the
    // quorum keep committing, then heal: the minority must catch back up and
    // every live history must still be totally ordered.
    let cfg = fast_failover_cfg(5);
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(90, &cfg, 8, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
    sim.partition(
        vec![vec![3, 4], vec![0, 1, 2, client]],
        SimTime::from_millis(4),
    );
    sim.heal(SimTime::from_millis(12));
    sim.run_until(SimTime::from_micros(11_900));
    let majority_at_heal = sim.counter(0, Counter::Commits);
    let minority_at_heal = sim.counter(3, Counter::Commits);
    assert!(
        majority_at_heal > minority_at_heal + 100,
        "partition did not isolate the minority: {majority_at_heal} vs {minority_at_heal}"
    );
    sim.run_until(SimTime::from_millis(28));
    for &id in &[3usize, 4] {
        assert!(
            sim.counter(id, Counter::Commits) > majority_at_heal,
            "node {id} never caught up past the partition point"
        );
    }
    let drops: u64 = ids
        .iter()
        .map(|&id| sim.counter(id, Counter::PartitionDrops))
        .sum();
    assert!(drops > 0, "partition dropped nothing");
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn minority_partition_then_heal_keeps_total_order_raft() {
    use acuerdo_repro::raft::{self, RaftConfig, RfWire};
    let cfg = RaftConfig {
        n: 5,
        ..RaftConfig::default()
    };
    let (mut sim, ids, client) =
        cluster_with_client::<raft::RaftNode>(91, &cfg, 4, 10, Duration::from_millis(5));
    sim.node_mut::<WindowClient<RfWire>>(client).retransmit = Some(Duration::from_millis(10));
    sim.partition(
        vec![vec![3, 4], vec![0, 1, 2, client]],
        SimTime::from_millis(40),
    );
    sim.heal(SimTime::from_millis(90));
    sim.run_until(SimTime::from_micros(89_900));
    let majority_at_heal = sim.counter(0, Counter::Commits);
    sim.run_until(SimTime::from_millis(200));
    for &id in &[3usize, 4] {
        assert!(
            sim.counter(id, Counter::Commits) > majority_at_heal,
            "raft node {id} never caught up past the partition point"
        );
    }
    check_cluster::<raft::RaftNode>(&sim, &ids).unwrap();
}

#[test]
fn crashed_leader_restarts_and_rejoins_via_multipart_diff() {
    // The rebooted ex-leader comes back with an empty log and must be
    // re-seeded from the first entry via the rejoin diff — forced here to
    // span several parts by shrinking `max_diff_part` far below the log size.
    let cfg = AcuerdoConfig {
        retain_log: true,
        max_diff_part: 256,
        ..fast_failover_cfg(3)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(92, &cfg, 8, 10, Duration::ZERO);
    acuerdo::enable_restarts(&mut sim, &cfg, &ids);
    {
        let c = sim.node_mut::<WindowClient<AcWire>>(client);
        c.retransmit = Some(Duration::from_millis(2));
        c.replicas = ids.clone();
    }
    sim.run_until(SimTime::from_millis(3));
    let old_leader = current_leader(&sim, &ids).expect("initial leader");
    // This incarnation's DeliveryLog, on both sides of the reboot: the
    // Commits counter would carry the pre-crash deliveries across it.
    let delivered = |r: &AcuerdoNode| r.delivery_log().expect("DeliveryLog app").len();
    let committed_before_crash = delivered(sim.node::<AcuerdoNode>(old_leader));
    assert!(committed_before_crash > 100, "no load before the crash");
    sim.crash(old_leader);
    sim.restart_at(old_leader, SimTime::from_millis(4));
    sim.run_until(SimTime::from_millis(20));

    let new_leader = current_leader(&sim, &ids).expect("replacement leader");
    assert_ne!(new_leader, old_leader);
    let rejoined = sim.node::<AcuerdoNode>(old_leader);
    assert_eq!(
        rejoined.role(),
        Role::Follower,
        "ex-leader failed to rejoin"
    );
    assert!(
        delivered(rejoined) >= committed_before_crash,
        "rejoin diff did not re-seed the full log: {} < {committed_before_crash}",
        delivered(rejoined)
    );
    // The whole history came through the diff path, in several parts.
    let snap = sim.metrics();
    assert_eq!(snap.total(Counter::Restarts), 1);
    assert!(
        snap.total(Counter::RejoinDiffBytes) > cfg.max_diff_part as u64,
        "rejoin diff was not multi-part: {} bytes <= {} per part",
        snap.total(Counter::RejoinDiffBytes),
        cfg.max_diff_part
    );
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}
