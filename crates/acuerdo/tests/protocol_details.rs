//! Protocol-detail tests for Acuerdo internals: GC, diff chunking through
//! the real recovery path, backlogged-ring flush, the implicit cumulative
//! acknowledgment, and commit-push heartbeats.

use abcast::{check_cluster, cluster_with_client, WindowClient};
use acuerdo::{current_leader, AcWire, AcuerdoConfig, AcuerdoNode, Role};
use simnet::{Counter, SimTime};
use std::time::Duration;

#[test]
fn log_is_garbage_collected_under_steady_load() {
    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, ids, _client) =
        cluster_with_client::<AcuerdoNode>(101, &cfg, 32, 10, Duration::ZERO);
    sim.run_until(SimTime::from_millis(20));
    // ~4000+ messages committed; the logs must stay bounded near the
    // in-flight window plus a few push intervals, nowhere near the total.
    for &id in &ids {
        let n = sim.node::<AcuerdoNode>(id);
        assert!(n.delivered_count > 2_000, "node {id} delivered too little");
        assert!(
            n.log_len() < 2_000,
            "node {id} log not GC'd: {} entries after {} deliveries",
            n.log_len(),
            n.delivered_count
        );
    }
}

#[test]
fn gc_stalls_while_a_replica_is_descheduled_then_resumes() {
    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, _ids, _client) =
        cluster_with_client::<AcuerdoNode>(102, &cfg, 32, 10, Duration::ZERO);
    sim.run_until(SimTime::from_millis(2));
    sim.pause_at(2, SimTime::from_millis(2), Duration::from_millis(4));
    sim.run_until(SimTime::from_micros(5_900));
    // Replica 2's frozen Commit_SST pins the leader's log.
    let pinned = sim.node::<AcuerdoNode>(0).log_len();
    assert!(pinned > 500, "log should grow while GC is pinned: {pinned}");
    // After it wakes and catches up, GC reclaims.
    sim.run_until(SimTime::from_millis(12));
    let after = sim.node::<AcuerdoNode>(0).log_len();
    assert!(
        after < pinned / 2,
        "GC did not resume: {after} vs pinned {pinned}"
    );
}

#[test]
fn ring_followers_prune_below_the_leaders_gc_horizon() {
    // A follower's Commit_SST cell goes to its leader alone, so a follower
    // holds no fresh cell of its fellow followers to take a minimum over:
    // it prunes below the GC horizon its leader publishes. Sixteen nodes
    // on the two-armed ring, no faults: each follower holds 103–166 entries
    // after 4,240–4,318 commits; reading its mirrors instead, it held them
    // all. The window does not set that length: the 13 peers off the arm
    // heads get the leader's row once per ten of its ticks, and this
    // CPU-bound leader (10 B messages, window 16) ticks about every 36 us,
    // so they learn a commit, and the horizon built from every follower's
    // commit point, up to ~360 us late.
    let cfg = AcuerdoConfig {
        dissemination: acuerdo::DisseminationMode::Ring,
        ..AcuerdoConfig::stable(16)
    };
    let (mut sim, ids, _client) =
        cluster_with_client::<AcuerdoNode>(111, &cfg, 16, 10, Duration::ZERO);
    sim.run_until(SimTime::from_millis(20));
    for &id in &ids[1..] {
        let n = sim.node::<AcuerdoNode>(id);
        assert!(n.delivered_count > 2_000, "node {id} delivered too little");
        assert!(
            n.log_len() < 200,
            "follower {id} log not GC'd: {} entries after {} deliveries",
            n.log_len(),
            n.delivered_count
        );
    }
}

/// One push tick of leader 0: the peers it posted its Commit_SST row to,
/// and the peers it was serving by star fallback at the time.
struct Tick {
    posted: Vec<simnet::NodeId>,
    fallback: std::collections::BTreeSet<simnet::NodeId>,
}

/// Leader 0's next `ticks` push ticks (tracing on). A leader's only SST
/// pushes are its commit row, and one engine step runs one handler, so a
/// step that moves its `SstPushes` counter is a push tick and the `Send`s
/// it traced are that tick's posts — all of them, unless a post to a dead
/// peer found its send queue full. Fallback is followed through the
/// leader's `ring_fallback_on`/`_off` events.
fn leader_push_census(sim: &mut simnet::Sim<AcWire>, ticks: usize) -> Vec<Tick> {
    let mut census = Vec::with_capacity(ticks);
    let mut fallback = std::collections::BTreeSet::new();
    while census.len() < ticks {
        let (pushes, seen) = (sim.counter(0, Counter::SstPushes), sim.trace_events().len());
        assert!(sim.step(), "the run ended");
        let mut posted = Vec::new();
        for e in &sim.trace_events()[seen..] {
            match e {
                simnet::TraceEvent::Send { src: 0, dst, .. } => posted.push(*dst),
                simnet::TraceEvent::Proto { node: 0, ev, .. } => match ev.name {
                    "ring_fallback_on" => drop(fallback.insert(ev.a as simnet::NodeId)),
                    "ring_fallback_off" => drop(fallback.remove(&(ev.a as simnet::NodeId))),
                    _ => {}
                },
                _ => {}
            }
        }
        if sim.counter(0, Counter::SstPushes) > pushes {
            census.push(Tick {
                posted,
                fallback: fallback.clone(),
            });
        }
    }
    census
}

/// How many ticks of `census` posted to `peer`.
fn ticks_reaching(census: &[Tick], peer: simnet::NodeId) -> usize {
    census.iter().filter(|t| t.posted.contains(&peer)).count()
}

#[test]
fn leader_commit_row_follows_the_payload_route() {
    // Sixteen nodes under load, 100 push ticks of leader 0. On the
    // two-armed ring it streams payload to its arm heads 1 and 15 alone, and
    // they get its row every tick; each of the 13 peers fed by forwards gets
    // it once per `FOLLOWER_PUSH_PERIOD` (10) ticks, staggered by index, so
    // no tick posts to more than ⌈13/10⌉ of them. Under star every follower
    // heads an arm and gets the row every tick.
    let census = |dissemination| {
        let cfg = AcuerdoConfig {
            dissemination,
            ..AcuerdoConfig::stable(16)
        };
        let (mut sim, _ids, _client) =
            cluster_with_client::<AcuerdoNode>(113, &cfg, 8, 64, Duration::ZERO);
        sim.run_until(SimTime::from_millis(2));
        assert!(sim.node::<AcuerdoNode>(0).delivered_count > 50, "no load");
        sim.set_tracing(true);
        let pushes = sim.counter(0, Counter::SstPushes);
        let census = leader_push_census(&mut sim, 100);
        let posted: usize = census.iter().map(|t| t.posted.len()).sum();
        assert_eq!(posted as u64, sim.counter(0, Counter::SstPushes) - pushes);
        assert!(census.iter().all(|t| t.fallback.is_empty()));
        census
    };
    let ring = census(acuerdo::DisseminationMode::Ring);
    for (i, tick) in ring.iter().enumerate() {
        let heads = tick.posted.iter().filter(|&&k| k == 1 || k == 15).count();
        assert_eq!(heads, 2, "tick {i} missed an arm head: {:?}", tick.posted);
        assert!(tick.posted.len() <= 2 + 2, "tick {i}: {:?}", tick.posted);
    }
    for peer in 2..15 {
        assert_eq!(ticks_reaching(&ring, peer), 10, "peer {peer}");
    }
    let star = census(acuerdo::DisseminationMode::Star);
    let everyone: Vec<simnet::NodeId> = (1..16).collect();
    assert!(star.iter().all(|t| t.posted == everyone));
}

#[test]
fn a_peer_under_star_fallback_gets_the_commit_row_every_tick() {
    // Ring of sixteen, origin 0: forwarder 2 crashes, so the clockwise arm
    // stalls behind it and the leader streams to the stalled peers directly
    // until each has caught up, at which point it forwards to the next
    // again. While the leader streams to a peer, that peer gets its row
    // every tick, like the arm heads; every other peer keeps the period.
    // (The leader's posts to the dead node 2 stop once its send queue is
    // full, with no completion to drain it.)
    let cfg = AcuerdoConfig {
        dissemination: acuerdo::DisseminationMode::Ring,
        ..AcuerdoConfig::stable(16)
    };
    let (mut sim, _ids, _client) =
        cluster_with_client::<AcuerdoNode>(114, &cfg, 8, 64, Duration::ZERO);
    sim.crash_at(2, SimTime::from_millis(1));
    sim.run_until(SimTime::from_millis(2));
    sim.set_tracing(true);
    let census = leader_push_census(&mut sim, 400);
    assert!(sim.counter(0, Counter::RingFallbackSends) > 0);
    let mut served = 0;
    for (i, tick) in census.iter().enumerate() {
        for &k in tick.fallback.iter().filter(|&&k| k != 2) {
            assert!(
                tick.posted.contains(&k),
                "tick {i} skipped {k}: {:?}",
                tick.posted
            );
            served += 1;
        }
        let periodic = tick.posted.iter().filter(|&&k| k != 1 && k != 15);
        assert!(periodic.filter(|k| !tick.fallback.contains(k)).count() <= 2);
    }
    // Peer 3, right behind the dead forwarder, cycles through fallback
    // every ~90 ticks for 6–7 ticks at a time: 39 rows in these 400 ticks.
    assert!(
        served > 30,
        "only {served} rows went to peers under fallback"
    );
    for peer in 9..15 {
        assert_eq!(ticks_reaching(&census, peer), 40, "peer {peer}");
    }
}

#[test]
fn election_diffs_start_at_each_peers_commit_point() {
    // `retain_log` keeps the whole history, so an election diff is exactly
    // the log from the winner's mirror of a peer's commit cell to the
    // winner's frontier. Followers push their cells to the leader alone;
    // a node entering an election pushes its cell to everyone at once, so
    // the winner's mirrors are fresh and each diff carries the entries in
    // flight when the leader died (8, the client window), not the history
    // (1,297 without that push, for every peer but the winner itself).
    let cfg = AcuerdoConfig {
        retain_log: true,
        durability: simnet::DurabilityMode::Durable,
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(5)
    };
    let (mut sim, ids, _client) =
        cluster_with_client::<AcuerdoNode>(112, &cfg, 8, 10, Duration::ZERO);
    sim.set_tracing(true);
    sim.power_failure_at(vec![0], SimTime::from_millis(10));
    sim.run_until(SimTime::from_millis(12));
    let leader = current_leader(&sim, &ids).expect("new leader");
    assert_ne!(leader, 0);
    let round = u64::from(sim.node::<AcuerdoNode>(leader).epoch().round);
    let history = sim.node::<AcuerdoNode>(leader).delivered_count;
    assert!(history > 1_000, "only {history} commits before the failure");
    let diffs: Vec<(simnet::NodeId, u64)> = sim
        .trace_events()
        .iter()
        .filter_map(|e| match e {
            simnet::TraceEvent::Proto { node, ev, .. }
                if ev.name == "diff_apply" && ev.a == round =>
            {
                Some((*node, ev.b))
            }
            _ => None,
        })
        .collect();
    assert_eq!(diffs.len(), 4, "one election diff per survivor: {diffs:?}");
    for (node, entries) in diffs {
        assert!(
            entries <= 32,
            "node {node}'s election diff carried {entries} of {history} entries"
        );
    }
}

#[test]
fn multi_part_diff_recovers_a_far_behind_follower() {
    // A follower descheduled long enough to miss more than max_diff_part
    // bytes of messages must be brought back by a chunked diff at the next
    // election.
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        max_diff_part: 2 << 10, // force many parts
        ..AcuerdoConfig::stable(3)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(103, &cfg, 32, 100, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(3));
    // Follower 2 sleeps while ~thousands of 100-byte messages commit.
    sim.pause_at(2, SimTime::from_millis(1), Duration::from_millis(6));
    sim.run_until(SimTime::from_millis(4));
    // Now kill the leader: the election winner (follower 1) must ship
    // follower 2 a diff far larger than max_diff_part.
    sim.crash(0);
    sim.run_until(SimTime::from_millis(30));
    let leader = current_leader(&sim, &ids).expect("new leader");
    assert_eq!(leader, 1);
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![leader];
    sim.run_until(SimTime::from_millis(45));
    let lagger = sim.node::<AcuerdoNode>(2);
    assert_eq!(lagger.role(), Role::Follower);
    assert!(
        lagger.delivered_count > 1_000,
        "lagger only delivered {}",
        lagger.delivered_count
    );
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn implicit_cumulative_ack_collapses_catch_up_traffic() {
    // The §3.2 claim: a follower that discovers many messages at once
    // acknowledges only the latest one — one SST write per receiver-side
    // batch. Under steady load the busy-poll loop drains batches of ~1, so
    // the effect shows during catch-up: deschedule the follower, let a
    // backlog build, and compare its post count against the messages it
    // accepted across the episode.
    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, _ids, client) =
        cluster_with_client::<AcuerdoNode>(104, &cfg, 64, 10, Duration::from_millis(1));
    sim.run_until(SimTime::from_millis(3));
    let before_posts = sim.node::<AcuerdoNode>(1).ep_writes_posted();
    let before_delivered = sim.node::<AcuerdoNode>(1).delivered_count;
    // 2 ms pause: several hundred messages pile up in the ring.
    sim.pause_at(1, SimTime::from_millis(3), Duration::from_millis(2));
    sim.run_until(SimTime::from_micros(5_300)); // just past the wake-up drain
    let accepted = sim.node::<AcuerdoNode>(1).accepted().cnt as u64;
    let posts = sim.node::<AcuerdoNode>(1).ep_writes_posted() - before_posts;
    let delivered = sim.node::<AcuerdoNode>(1).delivered_count - before_delivered;
    assert!(
        accepted > before_delivered + 200,
        "backlog too small: accepted {accepted}"
    );
    // The whole episode (including the post-wake drain) cost far fewer SST
    // writes than messages processed.
    assert!(
        (posts as f64) < (delivered.max(200) as f64) * 0.5,
        "catch-up posted {posts} writes for {delivered} deliveries"
    );
    let r = sim.node::<WindowClient<AcWire>>(client).result();
    assert!(r.completed > 0);
}

#[test]
fn per_message_acks_post_at_least_as_many_writes() {
    let run = |per_msg: bool| {
        let cfg = AcuerdoConfig {
            per_message_acks: per_msg,
            ..AcuerdoConfig::stable(3)
        };
        let (mut sim, _ids, _client) =
            cluster_with_client::<AcuerdoNode>(105, &cfg, 256, 10, Duration::from_millis(1));
        sim.run_until(SimTime::from_millis(10));
        let n = sim.node::<AcuerdoNode>(1);
        (n.delivered_count, n.ep_writes_posted())
    };
    let (d0, p0) = run(false);
    let (d1, p1) = run(true);
    assert!(d0 > 500 && d1 > 500);
    // Normalised per delivered message, the per-message variant never posts
    // fewer SST writes.
    assert!(
        p1 as f64 / d1 as f64 >= p0 as f64 / d0 as f64 * 0.99,
        "per-message acks posted less? {p1}/{d1} vs {p0}/{d0}"
    );
}

#[test]
fn commit_push_heartbeat_prevents_idle_elections() {
    // An idle cluster (no client traffic) must hold its epoch: the leader's
    // Commit_SST push sequence is the heartbeat.
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(500),
        ..AcuerdoConfig::stable(3)
    };
    let mut sim = simnet::Sim::new(106, simnet::NetParams::rdma());
    let ids = acuerdo::build_cluster(&mut sim, &cfg);
    sim.run_until(SimTime::from_millis(50)); // 100x the fail timeout
    for &id in &ids {
        let n = sim.node::<AcuerdoNode>(id);
        assert_eq!(
            n.epoch(),
            abcast::Epoch::new(1, 0),
            "node {id} left epoch 1"
        );
        assert_eq!(n.elections_won, 0);
    }
}

#[test]
fn follower_rejects_stale_epoch_frames() {
    // After a failover, late frames from the deposed leader's old epoch must
    // be ignored, not delivered.
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(3)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(107, &cfg, 8, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
    sim.run_until(SimTime::from_millis(2));
    // Delay the old leader's link to follower 2 so its last frames arrive
    // AFTER the new epoch is established there.
    sim.add_link_latency(0, 2, Duration::from_millis(5), SimTime::from_millis(6));
    sim.crash_at(0, SimTime::from_millis(3));
    sim.run_until(SimTime::from_millis(30));
    let leader = current_leader(&sim, &ids).expect("new leader");
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![leader];
    sim.run_until(SimTime::from_millis(45));
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn seven_replica_cluster_commits_with_three_crashes() {
    // n = 7 tolerates f = 3.
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(7)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(108, &cfg, 8, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
    for (i, at) in [(6usize, 2u64), (5, 8), (0, 14)] {
        sim.crash_at(i, SimTime::from_millis(at));
    }
    sim.run_until(SimTime::from_millis(40));
    let leader = current_leader(&sim, &ids).expect("leader with 4-of-7 alive");
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![leader];
    let before = sim.node::<AcuerdoNode>(leader).delivered_count;
    sim.run_until(SimTime::from_millis(60));
    assert!(sim.node::<AcuerdoNode>(leader).delivered_count > before);
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn mid_epoch_rejoin_diff_advances_accepted_to_its_top_entry() {
    // Star, three replicas, no client retransmission. Follower 2 dies for
    // good; follower 1 reboots empty while a full client window is in
    // flight, so the leader's rejoin diff carries entries `(e, 1..=k)` of the
    // *current* epoch and the rejoiner is the quorum's deciding member. Its
    // Accept_SST cell must say what the diff made it hold: a cell left at
    // the diff header `(e, 0)` cannot be counted toward `(e, 1..=k)`, and
    // with the window full no new frame would ever move it.
    let cfg = AcuerdoConfig {
        retain_log: true,
        ..AcuerdoConfig::stable(3)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(110, &cfg, 16, 64, Duration::ZERO);
    assert!(sim
        .node::<WindowClient<AcWire>>(client)
        .retransmit
        .is_none());
    acuerdo::enable_restarts(&mut sim, &cfg, &ids);
    sim.crash_at(2, SimTime::from_micros(500));
    sim.crash_at(1, SimTime::from_millis(1));
    sim.restart_at(1, SimTime::from_micros(1_200));
    sim.run_until(SimTime::from_micros(1_200));
    // The window is stuck behind the lost quorum.
    let leader = sim.node::<AcuerdoNode>(0);
    let (stuck_at, top) = (leader.delivered_count, leader.accepted());
    assert_eq!(u64::from(top.cnt), stuck_at + 16, "window not in flight");
    let applied = sim.counter(1, Counter::DiffApplies);
    while sim.counter(1, Counter::DiffApplies) == applied {
        assert!(sim.step(), "the rejoin diff never arrived");
    }
    assert_eq!(sim.node::<AcuerdoNode>(1).accepted(), top);
    sim.run_until(SimTime::from_millis(3));
    let leader = sim.node::<AcuerdoNode>(0);
    assert!(
        leader.delivered_count > stuck_at + 100,
        "the window never committed: {} after {stuck_at}",
        leader.delivered_count
    );
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

// ---- the idle poll ------------------------------------------------------------

/// Polls a node has run, full or skipped: each charges exactly one
/// `POLL_IDLE` to the idle-poll CPU slot and nothing else does.
fn polls(sim: &simnet::Sim<AcWire>, id: simnet::NodeId) -> u64 {
    let idle_ns = sim.metrics().res.nodes[id].cpu_ns[simnet::CPU_SLOT_IDLE];
    idle_ns / simnet::params::cpu::POLL_IDLE.as_nanos() as u64
}

/// Share of `ids`' polls that took the idle path.
fn skipped_share(sim: &simnet::Sim<AcWire>, ids: &[simnet::NodeId]) -> f64 {
    let skipped: u64 = ids
        .iter()
        .map(|&id| sim.node::<AcuerdoNode>(id).polls_skipped)
        .sum();
    let total: u64 = ids.iter().map(|&id| polls(sim, id)).sum();
    skipped as f64 / total as f64
}

#[test]
fn idle_cluster_skips_most_of_its_polls() {
    // Nothing arrives between two Commit_SST pushes, and only a push a node
    // reads costs it anything. A follower reads its leader's: one full poll
    // per push, the one that sees the heartbeat (a follower's fruitless
    // poll is a fixed point; its fellow followers' cells do not stir it).
    // The leader's own tick does not stir it; each follower's push, one in
    // ten ticks, costs it two full polls: the one that sees it and the one
    // that proves nothing is left. One is not enough for a leader — a poll
    // that charged only `POLL_IDLE` can still have changed state
    // (`observe_acks` and `reuse_slots` are free, and `publish_gauges` runs
    // before `reuse_slots`), and skipping after it left `ring_occupancy`
    // stale in `BENCH_quick` (`acuerdo-w1` mean 10.489 -> 18.436). So the
    // share depends on the push cadence: one push per 50 us leaves about
    // ninety polls between pushes, the default 5 us about nine.
    let shares = |push: Duration| {
        let cfg = AcuerdoConfig {
            commit_push_interval: push,
            ..AcuerdoConfig::stable(3)
        };
        let mut sim = simnet::Sim::new(106, simnet::NetParams::rdma());
        let ids = acuerdo::build_cluster(&mut sim, &cfg);
        sim.run_until(SimTime::from_millis(20));
        for &id in &ids {
            assert_eq!(
                sim.node::<AcuerdoNode>(id).epoch(),
                abcast::Epoch::new(1, 0)
            );
        }
        (
            skipped_share(&sim, &ids[..1]),
            skipped_share(&sim, &ids[1..]),
        )
    };
    // Measured: 99.8 % / 98.9 % sparse, 96.7 % / 91.9 % at the default
    // cadence.
    let (leader, followers) = shares(Duration::from_micros(50));
    assert!(leader >= 0.995, "leader skipped {:.1} %", leader * 100.0);
    assert!(
        followers >= 0.985,
        "followers skipped {:.1} %",
        followers * 100.0
    );
    let (leader, followers) = shares(AcuerdoConfig::default().commit_push_interval);
    assert!(leader >= 0.96, "leader skipped {:.1} %", leader * 100.0);
    assert!(
        followers >= 0.91,
        "followers skipped {:.1} %",
        followers * 100.0
    );
}

#[test]
fn quiet_follower_suspects_a_dead_leader_at_the_same_instant() {
    // The followers of an idle cluster are on the idle path when the leader
    // dies. The poll that crosses `fail_timeout` must be a full one: both
    // followers start their election at the instant the always-full poll
    // loop did (pinned by running this case on it once). The instants were
    // (1, 2 502 580) and (2, 2 503 700), and the election span (2 503 640,
    // 2 515 530), while every follower pushed its commit cell to every
    // peer. A follower's push tick now posts once, to its leader, so each
    // follower's polls and ticks run at other instants: node 1's polls sit
    // 40 ns earlier, and node 2's tick at 2 503 200 holds its CPU for one
    // 1.1 us post across the instant its crossing poll used to run, which
    // runs at 2 504 300 instead. The winner is ready later because entering
    // the election now broadcasts its commit cell (two posts before its
    // vote).
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(500),
        ..AcuerdoConfig::stable(3)
    };
    let mut sim = simnet::Sim::new(106, simnet::NetParams::rdma());
    let ids = acuerdo::build_cluster(&mut sim, &cfg);
    sim.set_tracing(true);
    sim.crash_at(0, SimTime::from_millis(2));
    sim.run_until(SimTime::from_millis(6));
    let started: Vec<(simnet::NodeId, u64)> = sim
        .trace_events()
        .iter()
        .filter_map(|e| match e {
            simnet::TraceEvent::Proto { at, node, ev } if ev.name == "election_start" => {
                Some((*node, at.as_nanos()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(started, [(1, 2_502_540), (2, 2_504_360)]);
    let leader = current_leader(&sim, &ids).expect("new leader");
    let span = sim.node::<AcuerdoNode>(leader).election_spans[0];
    assert_eq!(
        (leader, span.0.as_nanos(), span.1.as_nanos()),
        (2, 2_504_300, 2_518_370)
    );
    let skipped =
        sim.node::<AcuerdoNode>(1).polls_skipped + sim.node::<AcuerdoNode>(2).polls_skipped;
    assert!(skipped > 1_000, "the followers never idled: {skipped}");
}

#[test]
fn ring_forwarder_with_a_backlog_never_skips_a_poll() {
    // Five nodes, origin 0: node 1 forwards to node 2. Node 2 is descheduled,
    // so its acceptance frontier freezes, node 1's forward lane fills to
    // `ring_pipeline_depth` and the rest queues in `fwd_backlog`. Every poll
    // of node 1 from then on must be a full one: `RingStalls` counts failed
    // send *attempts*, one per poll on a full lane, so skipping polls while
    // work is blocked changes the counter with no change in timing (scale
    // ring n = 64: 504 -> 290 when the idle path ignored blocked sends).
    let cfg = AcuerdoConfig {
        dissemination: acuerdo::DisseminationMode::Ring,
        ring_pipeline_depth: 2,
        ..AcuerdoConfig::stable(5)
    };
    let (mut sim, _ids, _client) =
        cluster_with_client::<AcuerdoNode>(109, &cfg, 16, 64, Duration::ZERO);
    sim.pause_at(2, SimTime::from_micros(300), Duration::from_micros(400));
    sim.run_until(SimTime::from_micros(300));
    let before = sim.node::<AcuerdoNode>(1).polls_skipped;
    assert!(before > 0, "node 1 does skip polls while the arm flows");
    let mut held_polls = 0;
    let mut watched = None;
    while sim.now() < SimTime::from_micros(700) && sim.step() {
        let n = sim.node::<AcuerdoNode>(1);
        let now = (n.fwd_backlog_len() > 0, n.polls_skipped, polls(&sim, 1));
        if let Some((true, skipped, polled)) = watched {
            assert_eq!(
                now.1,
                skipped,
                "skipped a poll with a backlog at {}",
                sim.now()
            );
            held_polls += now.2 - polled;
        }
        watched = Some(now);
    }
    assert!(
        held_polls > 100,
        "the backlog never built: {held_polls} polls"
    );
}
