//! Protocol-detail tests for Acuerdo internals: GC, diff chunking through
//! the real recovery path, backlogged-ring flush, the implicit cumulative
//! acknowledgment, commit-push heartbeats, the leader's in-place
//! accept, and the order of a ring forwarder's posts.

use abcast::{check_cluster, cluster_with_client, ClientReq, MsgHdr, WindowClient};
use acuerdo::{current_leader, AcWire, AcuerdoConfig, AcuerdoNode, Role, MAX_DIFF_PART};
use rdma_prims::{ring_bytes_for, FixedCodec};
use simnet::{Counter, DeliveryClass, SimTime, TraceEvent};
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
        let (n, delivered) = (
            sim.node::<AcuerdoNode>(id),
            sim.counter(id, Counter::Commits),
        );
        assert!(delivered > 2_000, "node {id} delivered too little");
        assert!(
            n.log_len() < 2_000,
            "node {id} log not GC'd: {} entries after {delivered} deliveries",
            n.log_len()
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
    // on the two-armed ring, no faults: each follower holds 84–120 entries
    // after 5,613–5,667 commits; reading its mirrors instead, it held them
    // all. The window does not set that length: the 13 peers off the arm
    // heads get the leader's row once per ten of its ticks, and this
    // CPU-bound leader (10 B messages, window 16) ticks about every 21 us,
    // so they learn a commit, and the horizon built from every follower's
    // commit point, up to ~210 us late.
    let cfg = AcuerdoConfig {
        dissemination: acuerdo::DisseminationMode::Ring,
        ..AcuerdoConfig::stable(16)
    };
    let (mut sim, ids, _client) =
        cluster_with_client::<AcuerdoNode>(111, &cfg, 16, 10, Duration::ZERO);
    sim.run_until(SimTime::from_millis(20));
    for &id in &ids[1..] {
        let (n, delivered) = (
            sim.node::<AcuerdoNode>(id),
            sim.counter(id, Counter::Commits),
        );
        assert!(delivered > 2_000, "node {id} delivered too little");
        assert!(
            n.log_len() < 200,
            "follower {id} log not GC'd: {} entries after {delivered} deliveries",
            n.log_len()
        );
    }
}

/// One push tick of leader 0: its number, the peers it posted its row to,
/// and the peers it was serving by star fallback.
struct Tick {
    t: u64,
    posted: Vec<simnet::NodeId>,
    fallback: std::collections::BTreeSet<simnet::NodeId>,
}

/// Leader 0's next `ticks` push ticks (tracing on). One engine step runs
/// one handler, so the step that moves the leader's tick count is the tick
/// and the `Send`s it traced are that tick's posts (a leader's only SST
/// pushes are its row): all of them, unless a post to a dead peer found its
/// send queue full. Fallback is followed through the leader's
/// `ring_fallback_on`/`_off` events.
fn leader_push_census(sim: &mut simnet::Sim<AcWire>, ticks: usize) -> Vec<Tick> {
    let mut census = Vec::with_capacity(ticks);
    let mut fallback = std::collections::BTreeSet::new();
    while census.len() < ticks {
        let (t, seen) = (
            sim.node::<AcuerdoNode>(0).push_ticks(),
            sim.trace_events().len(),
        );
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
        let t_now = sim.node::<AcuerdoNode>(0).push_ticks();
        if t_now != t {
            census.push(Tick {
                t: t_now,
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

/// Hold leader 0's census to its rule, peer by peer and tick by tick: peer
/// `k` gets the row on its heartbeat turn (tick `t` with `(t + k) mod 10 =
/// 0`) and on no other tick, whatever the row carries and however the
/// leader streams to it. `dead` peers are left out (their posts fail once
/// the send queue fills).
fn assert_row_rule(n: usize, census: &[Tick], dead: &[simnet::NodeId]) {
    for tick in census {
        for k in (1..n).filter(|k| !dead.contains(k)) {
            let turn = (tick.t + k as u64).is_multiple_of(10);
            assert_eq!(
                tick.posted.contains(&k),
                turn,
                "tick {} peer {k}: posts {:?}",
                tick.t,
                tick.posted
            );
        }
    }
}

#[test]
fn leader_posts_its_row_to_each_peer_on_its_turn_alone() {
    // Sixteen nodes under load, 100 push ticks of leader 0. Commit news
    // rides the frame heads, so the row (heartbeat, GC horizon) reaches
    // each of the 15 peers once per `FOLLOWER_PUSH_PERIOD` (10) ticks,
    // staggered by index so no tick posts to more than ⌈15/10⌉ of them,
    // whether the peer heads an arm (every follower under star, 1 and 15
    // on the two-armed ring) or is fed by forwards.
    for dissemination in [
        acuerdo::DisseminationMode::Star,
        acuerdo::DisseminationMode::Ring,
    ] {
        let cfg = AcuerdoConfig {
            dissemination,
            ..AcuerdoConfig::stable(16)
        };
        let (mut sim, _ids, _client) =
            cluster_with_client::<AcuerdoNode>(113, &cfg, 8, 64, Duration::ZERO);
        sim.run_until(SimTime::from_millis(2));
        assert!(sim.counter(0, Counter::Commits) > 50, "no load");
        sim.set_tracing(true);
        let pushes = sim.counter(0, Counter::SstPushes);
        let census = leader_push_census(&mut sim, 100);
        let posted: usize = census.iter().map(|t| t.posted.len()).sum();
        assert_eq!(posted as u64, sim.counter(0, Counter::SstPushes) - pushes);
        assert!(census.iter().all(|t| t.fallback.is_empty()));
        assert_row_rule(16, &census, &[]);
        for (i, tick) in census.iter().enumerate() {
            assert!(tick.posted.len() <= 2, "tick {i}: {:?}", tick.posted);
        }
        for peer in 1..16 {
            assert_eq!(
                ticks_reaching(&census, peer),
                10,
                "{dissemination:?} peer {peer}"
            );
        }
    }
}

#[test]
fn a_star_follower_keeps_within_a_client_window_of_the_leader_from_frame_stamps() {
    // Three nodes under star, a window of 8: the leader's row reaches a
    // follower once per ten push ticks (~50 us), in which ~40 requests
    // commit, so a follower reading the row alone would trail by several
    // windows. The frames' commit stamps keep every follower's commit
    // point within one window of the leader's at every step, while the
    // leader posts its row on turns only.
    let window = 8;
    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, ids, _client) =
        cluster_with_client::<AcuerdoNode>(121, &cfg, window, 10, Duration::ZERO);
    sim.run_until(SimTime::from_millis(1));
    sim.set_tracing(true);
    let before = sim.counter(0, Counter::Commits);
    let mut worst = 0;
    let mut census = Vec::new();
    while census.len() < 200 {
        census.extend(leader_push_census(&mut sim, 1));
        let leader = sim.node::<AcuerdoNode>(0).committed();
        for &f in &ids[1..] {
            let c = sim.node::<AcuerdoNode>(f).committed();
            assert_eq!(c.epoch, leader.epoch, "follower {f}");
            worst = worst.max(leader.cnt - c.cnt);
        }
    }
    assert_row_rule(3, &census, &[]);
    let commits = sim.counter(0, Counter::Commits) - before;
    // Measured: 1,110 commits over the 200 ticks, ~55 per ten; a follower
    // trails by 6 at most.
    assert!(commits > 500, "only {commits} commits");
    assert!(
        worst <= window as u32,
        "a follower trailed by {worst} commits"
    );
}

#[test]
fn a_follower_learns_an_idle_leaders_last_commit_on_its_turn() {
    // Three nodes, twenty requests and then silence. A frame's stamp stays
    // below its own entry, so the last commit reaches the followers in the
    // leader's row, which each gets on its heartbeat turn: within
    // `FOLLOWER_PUSH_PERIOD` (10) of the leader's push ticks of the commit
    // (measured: node 1 after 7, node 2 after 6).
    let cfg = AcuerdoConfig::stable(3);
    let mut sim = simnet::Sim::new(122, simnet::NetParams::rdma());
    let ids = acuerdo::build_cluster(&mut sim, &cfg);
    // The responses' destination; it sends nothing itself.
    let client = sim.add_node(Box::new(WindowClient::<AcWire>::new(
        0,
        0,
        10,
        Duration::ZERO,
    )));
    sim.run_until(SimTime::from_micros(100));
    for id in 0..20u64 {
        let req = ClientReq {
            id,
            payload: abcast::workload::payload(id, 10),
        };
        let delay = Duration::from_micros(1 + id);
        sim.inject(client, 0, DeliveryClass::Cpu, delay, AcWire::Req(req));
    }
    while sim.node::<AcuerdoNode>(0).committed().cnt < 20 {
        assert!(sim.step(), "the leader never committed the last request");
    }
    let (last, tick) = {
        let leader = sim.node::<AcuerdoNode>(0);
        (leader.committed(), leader.push_ticks())
    };
    let mut learned = vec![None; ids.len()];
    while learned[1..].iter().any(Option::is_none) {
        assert!(sim.step(), "the run ended");
        let ticks = sim.node::<AcuerdoNode>(0).push_ticks() - tick;
        assert!(ticks <= 10, "after {ticks} ticks: {learned:?}");
        for &f in &ids[1..] {
            if learned[f].is_none() && sim.node::<AcuerdoNode>(f).committed() == last {
                learned[f] = Some(ticks);
            }
        }
    }
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn a_peer_under_star_fallback_gets_the_leaders_row_on_its_turn_alone() {
    // Ring of sixteen, origin 0: forwarder 2 crashes, so the clockwise arm
    // stalls behind it and the leader streams to the stalled peers directly
    // until each has caught up, at which point it forwards to the next
    // again. Direct or not, every live peer gets the row on its turn and on
    // no other tick: the frames the leader streams carry the commit point.
    // (The leader's posts to the dead node 2 fail once its send queue is
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
    // Measured: 387 of the 400 ticks.
    let served = census
        .iter()
        .filter(|t| t.fallback.iter().any(|&k| k != 2))
        .count();
    assert!(
        served > 300,
        "only {served} ticks served a live peer by fallback"
    );
    assert_row_rule(16, &census, &[2]);
    for peer in (1..16).filter(|&k| k != 2) {
        assert_eq!(ticks_reaching(&census, peer), 40, "peer {peer}");
    }
}

#[test]
fn the_leaders_heartbeat_keeps_ticking_through_a_fallback_catch_up() {
    // The scenario above: the peers behind the dead forwarder 2 have
    // stalled for a fail timeout, and the leader streams their backlog to
    // them directly. Posted from one poll, that backlog holds the leader's
    // CPU, and `TOK_PUSH` with it, for most of a fail timeout, and a
    // follower that misses the heartbeat for a whole one deposes a live
    // leader. A poll therefore stops streaming to peers under fallback once
    // it has used a push interval of CPU.
    let cfg = AcuerdoConfig {
        dissemination: acuerdo::DisseminationMode::Ring,
        ..AcuerdoConfig::stable(16)
    };
    let (mut sim, ids, _client) =
        cluster_with_client::<AcuerdoNode>(114, &cfg, 8, 64, Duration::ZERO);
    sim.crash_at(2, SimTime::from_millis(1));
    sim.run_until(SimTime::from_millis(1));
    let epoch = sim.node::<AcuerdoNode>(0).epoch();
    let mut last = (sim.node::<AcuerdoNode>(0).push_ticks(), sim.now());
    let mut longest = Duration::ZERO;
    while sim.now() < SimTime::from_millis(5) {
        sim.run_for(Duration::from_micros(5));
        let ticks = sim.node::<AcuerdoNode>(0).push_ticks();
        if ticks != last.0 {
            longest = longest.max(sim.now().saturating_since(last.1));
            last = (ticks, sim.now());
        }
    }
    longest = longest.max(sim.now().saturating_since(last.1));
    assert!(
        sim.counter(0, Counter::RingFallbackSends) > 0,
        "no catch-up"
    );
    assert!(
        longest <= cfg.fail_timeout / 4,
        "the leader's push ticks paused for {longest:?}"
    );
    let misses: u64 = ids
        .iter()
        .map(|&k| sim.counter(k, Counter::HeartbeatMisses))
        .sum();
    assert_eq!(misses, 0, "a follower missed the heartbeat");
    let leader = sim.node::<AcuerdoNode>(0);
    assert_eq!((leader.role(), leader.epoch()), (Role::Leader, epoch));
}

#[test]
fn a_ring_forwarder_posts_the_forward_before_its_acknowledgments() {
    // Sixteen nodes on the two-armed ring, origin 0, no faults. One engine
    // step runs one handler, so the `Send`s a forwarder traces in one step
    // are one poll's posts: the forward to its downstream neighbour, and
    // its Accept_SST cell to the leader and to its upstream. Only the
    // forward is on the way to the quorum, so it is posted first.
    let n = 16;
    let cfg = AcuerdoConfig {
        dissemination: acuerdo::DisseminationMode::Ring,
        ..AcuerdoConfig::stable(n)
    };
    let (mut sim, _ids, _client) =
        cluster_with_client::<AcuerdoNode>(120, &cfg, 8, 1024, Duration::ZERO);
    sim.run_until(SimTime::from_millis(1));
    sim.set_tracing(true);
    let routes: Vec<_> = (0..n).map(|k| cfg.dissemination.route(n, 0, k)).collect();
    let mut checked = 0;
    while sim.now() < SimTime::from_micros(1_500) {
        let seen = sim.trace_events().len();
        assert!(sim.step(), "the run ended");
        let mut posts = vec![Vec::new(); n];
        for e in &sim.trace_events()[seen..] {
            match e {
                TraceEvent::Send { src, dst, .. } if *src < n => posts[*src].push(*dst),
                _ => {}
            }
        }
        for (k, route) in routes.iter().enumerate().skip(1) {
            let Some(down) = route.downstream else {
                continue;
            };
            let forward = posts[k].iter().position(|&d| d == down);
            let ack = posts[k].iter().position(|&d| d == 0 || d == route.upstream);
            if let (Some(forward), Some(ack)) = (forward, ack) {
                assert!(
                    forward < ack,
                    "node {k} at {}: posts {:?}",
                    sim.now(),
                    posts[k]
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "only {checked} polls forwarded and acked");
}

/// Posts (`TraceEvent::Send`) from a node to itself.
fn posts_to_self(sim: &simnet::Sim<AcWire>) -> usize {
    sim.trace_events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Send { src, dst, .. } if src == dst))
        .count()
}

/// A traced cluster under a window client that retransmits, falling back
/// to every replica, and is re-aimed at each new leader by `elect`.
fn traced_cluster(
    seed: u64,
    cfg: &AcuerdoConfig,
) -> (simnet::Sim<AcWire>, Vec<simnet::NodeId>, simnet::NodeId) {
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(seed, cfg, 8, 64, Duration::ZERO);
    let c = sim.node_mut::<WindowClient<AcWire>>(client);
    c.retransmit = Some(Duration::from_micros(500));
    c.replicas = ids.clone();
    sim.set_tracing(true);
    (sim, ids, client)
}

/// Run until one of `ids` leads, aim the client at it, and run `then`
/// longer: the leader.
fn elect(
    sim: &mut simnet::Sim<AcWire>,
    ids: &[simnet::NodeId],
    client: simnet::NodeId,
    then: Duration,
) -> simnet::NodeId {
    let leader = loop {
        assert!(sim.step(), "nobody won");
        if let Some(l) = current_leader(sim, ids) {
            break l;
        }
    };
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![leader];
    sim.run_until(sim.now() + then);
    leader
}

#[test]
fn no_node_ever_posts_to_itself() {
    // A node's own log is local state: the leader accepts each proposal
    // where it makes it, and a winner enters its epoch in place, so no
    // node posts anything to itself: no ring frame, no diff, no SST cell.
    // That holds under load (where the leader still counts one accept per
    // request it ingests), across a leader crash and the election after it
    // (star and ring), and across a whole-cluster power failure, whose
    // winner enters its epoch over the log it recovered from its journal.
    for dissemination in [
        acuerdo::DisseminationMode::Star,
        acuerdo::DisseminationMode::Ring,
    ] {
        let cfg = AcuerdoConfig {
            dissemination,
            fail_timeout: Duration::from_micros(400),
            ..AcuerdoConfig::stable(5)
        };
        let (mut sim, ids, client) = traced_cluster(117, &cfg);
        sim.run_until(SimTime::from_millis(2));
        let commits = sim.counter(0, Counter::Commits);
        assert!(commits > 200, "{dissemination:?}: no load");
        assert!(sim.counter(0, Counter::Accepts) >= commits);
        assert_eq!(
            sim.node::<AcuerdoNode>(0).accepted().cnt,
            sim.counter(0, Counter::Accepts) as u32
        );
        sim.crash_at(0, SimTime::from_millis(2));
        let leader = elect(&mut sim, &ids[1..], client, Duration::from_millis(2));
        assert!(
            sim.counter(leader, Counter::Commits) > commits + 200,
            "{dissemination:?}: no load after the election"
        );
        assert_eq!(posts_to_self(&sim), 0, "{dissemination:?}");
    }
    let cfg = AcuerdoConfig {
        durability: simnet::DurabilityMode::Durable,
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(5)
    };
    let (mut sim, ids, client) = traced_cluster(118, &cfg);
    acuerdo::enable_restarts(&mut sim, &cfg, &ids);
    let failure = SimTime::from_millis(2);
    sim.power_failure_at(ids.clone(), failure);
    for &k in &ids {
        sim.restart_at(k, failure + Duration::from_micros(50 * (k as u64 + 1)));
    }
    sim.run_until(failure + Duration::from_micros(300));
    let leader = elect(&mut sim, &ids, client, Duration::from_millis(2));
    let round = u64::from(sim.node::<AcuerdoNode>(leader).epoch().round);
    let (mut entered, mut accepts) = (Vec::new(), 0);
    for e in sim.trace_events() {
        if let TraceEvent::Proto { node, ev, .. } = e {
            if *node == leader && ev.a == round {
                match ev.name {
                    "diff_apply" => entered.push(ev.b),
                    "accept" => accepts += 1,
                    _ => {}
                }
            }
        }
    }
    assert_eq!(entered, [0], "the winner enters its epoch over no entries");
    assert!(accepts > 200, "{accepts} requests after the power failure");
    assert_eq!(posts_to_self(&sim), 0, "power failure");
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
}

#[test]
fn election_diffs_start_at_each_peers_commit_point() {
    // A durable cluster collects its logs even with `retain_log` set, but
    // the GC horizon is at or below every mirrored commit cell, so an
    // election diff is still exactly the log from the winner's mirror of a
    // peer's commit cell to the winner's frontier. Followers push their
    // cells to the leader alone; a node entering an election pushes its
    // cell to everyone at once, so the winner's mirrors are fresh and each
    // diff carries the entries in flight when the leader died (8, the
    // client window), not the history (1,297 without that push, for every
    // peer but the winner itself, when this run kept its whole log).
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
    let history = sim.counter(leader, Counter::Commits);
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
    // A follower descheduled long enough to miss more than one diff part of
    // messages must be brought back by a chunked diff at the next election.
    // Rows: ring bytes, payload bytes, when the follower sleeps.
    let rows = [
        // The benchmark ring: a sleeping follower's backlog lands in its
        // ring, and the election diff is short (20 entries of 100-byte
        // payloads, under one `MAX_DIFF_PART` part). With 1 KB payloads
        // the ~56-entry diff takes two parts.
        (ring_bytes_for(3), 1_000, 1_000),
        // The 64 KiB rings of n ≥ 33. A 240-byte payload makes a 256-byte
        // entry, so a full part holds exactly 32 KiB of entries, and with
        // its framing more than the half ring a frame may take: the winner
        // has to size its parts to the ring. The ~230-entry diff takes two
        // of them.
        (64 << 10, 240, 2_900),
    ];
    for (ring_bytes, payload, sleep_at) in rows {
        let cfg = AcuerdoConfig {
            fail_timeout: Duration::from_micros(400),
            ring_bytes,
            ..AcuerdoConfig::stable(3)
        };
        let (mut sim, ids, client) =
            cluster_with_client::<AcuerdoNode>(103, &cfg, 32, payload, Duration::ZERO);
        sim.set_tracing(true);
        sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(3));
        // Follower 2 sleeps while more commit than its ring holds.
        sim.pause_at(2, SimTime::from_micros(sleep_at), Duration::from_millis(6));
        sim.run_until(SimTime::from_millis(4));
        // Now kill the leader: the election winner (follower 1) must ship
        // follower 2 a diff of more than one part.
        sim.crash(0);
        sim.run_until(SimTime::from_millis(30));
        let leader = current_leader(&sim, &ids).expect("new leader");
        assert_eq!(leader, 1);
        sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![leader];
        sim.run_until(SimTime::from_millis(45));
        let entries = sim.trace_events().iter().find_map(|e| match e {
            TraceEvent::Proto { node: 2, ev, .. } if ev.name == "diff_apply" => Some(ev.b),
            _ => None,
        });
        let entry_bytes = (MsgHdr::SIZE + 4 + payload) as u64;
        let part_entries = MAX_DIFF_PART as u64 / entry_bytes;
        assert!(
            entries.is_some_and(|k| k > part_entries),
            "ring {ring_bytes}: diff of {entries:?} entries, {part_entries} to a part"
        );
        assert_eq!(
            sim.node::<AcuerdoNode>(2).role(),
            Role::Follower,
            "ring {ring_bytes}"
        );
        let delivered = sim.counter(2, Counter::Commits);
        assert!(
            delivered > 1_000,
            "ring {ring_bytes}: lagger only delivered {delivered}"
        );
        check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
    }
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
    let before_posts = sim.node::<AcuerdoNode>(1).endpoint().writes_posted;
    let before_delivered = sim.counter(1, Counter::Commits);
    // 2 ms pause: several hundred messages pile up in the ring.
    sim.pause_at(1, SimTime::from_millis(3), Duration::from_millis(2));
    sim.run_until(SimTime::from_micros(5_300)); // just past the wake-up drain
    let accepted = sim.node::<AcuerdoNode>(1).accepted().cnt as u64;
    let posts = sim.node::<AcuerdoNode>(1).endpoint().writes_posted - before_posts;
    let delivered = sim.counter(1, Counter::Commits) - before_delivered;
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
        let posted = sim.node::<AcuerdoNode>(1).endpoint().writes_posted;
        (sim.counter(1, Counter::Commits), posted)
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
        assert_eq!(sim.counter(id, Counter::ElectionsWon), 0);
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
    let before = sim.counter(leader, Counter::Commits);
    sim.run_until(SimTime::from_millis(60));
    assert!(sim.counter(leader, Counter::Commits) > before);
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
    let (stuck_at, top) = (
        sim.counter(0, Counter::Commits),
        sim.node::<AcuerdoNode>(0).accepted(),
    );
    assert_eq!(u64::from(top.cnt), stuck_at + 16, "window not in flight");
    let applied = sim.counter(1, Counter::DiffApplies);
    while sim.counter(1, Counter::DiffApplies) == applied {
        assert!(sim.step(), "the rejoin diff never arrived");
    }
    assert_eq!(sim.node::<AcuerdoNode>(1).accepted(), top);
    sim.run_until(SimTime::from_millis(3));
    let delivered = sim.counter(0, Counter::Commits);
    assert!(
        delivered > stuck_at + 100,
        "the window never committed: {delivered} after {stuck_at}"
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
    let skipped: u64 = ids.iter().map(|&id| sim.idle_polls(id)).sum();
    let total: u64 = ids.iter().map(|&id| polls(sim, id)).sum();
    skipped as f64 / total as f64
}

#[test]
fn idle_cluster_skips_most_of_its_polls() {
    // Nothing arrives between two Commit_SST pushes, and only a push a node
    // reads costs it anything. A follower reads its leader's: one full poll
    // per push, the one that sees the heartbeat (a follower's fruitless
    // poll is a fixed point; its fellow followers' cells do not stir it),
    // and the leader's row reaches each follower on the follower's turn
    // only, one tick in ten. The leader's own tick
    // does not stir it; each follower's push, one in ten ticks, costs it
    // two full polls: the one that sees it and the one that proves nothing
    // is left. One is not enough for a leader — a poll
    // that charged only `POLL_IDLE` can still have changed state
    // (`observe_acks` and `reuse_slots` are free, and `publish_gauges` runs
    // before `reuse_slots`), and skipping after it left `ring_occupancy`
    // stale in the quick matrix (`acuerdo-w1` mean 10.489 -> 18.436). So the
    // share depends on the push cadence: a push every 5 us leaves about nine
    // polls between pushes.
    let cfg = AcuerdoConfig::stable(3);
    let mut sim = simnet::Sim::new(106, simnet::NetParams::rdma());
    let ids = acuerdo::build_cluster(&mut sim, &cfg);
    sim.run_until(SimTime::from_millis(20));
    for &id in &ids {
        assert_eq!(
            sim.node::<AcuerdoNode>(id).epoch(),
            abcast::Epoch::new(1, 0)
        );
    }
    // Measured: 97.6 % / 98.9 %.
    let leader = skipped_share(&sim, &ids[..1]);
    let followers = skipped_share(&sim, &ids[1..]);
    assert!(leader >= 0.96, "leader skipped {:.1} %", leader * 100.0);
    assert!(
        followers >= 0.98,
        "followers skipped {:.1} %",
        followers * 100.0
    );
}

#[test]
fn quiet_follower_suspects_a_dead_leader_at_the_same_instant() {
    // The followers of an idle cluster are on the idle path when the leader
    // dies. The poll that crosses `fail_timeout` must be a full one: both
    // followers start their election at the instant the always-full poll
    // loop does (`oracle_tests::quiet_followers_crossing_the_fail_timeout`
    // runs this case both ways). Each follower last heard the leader's row
    // on its own heartbeat turn, once per ten ticks: node 2's turn is the
    // tick before node 1's, about 6 us earlier, so node 2 suspects first,
    // 500 us after its last heartbeat and ~25 us before the crash plus
    // `fail_timeout`. Node 2's vote lands at node 1 before node 1 suspects,
    // so node 1 joins it at once rather than first voting for itself. The
    // span ends once node 2 has posted its peers' diffs, at 2,489,850 ns:
    // one verb post (1.1 us) sooner than when the winner also posted its
    // own epoch diff to its loopback lane.
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
    assert_eq!(started, [(2, 2_475_260), (1, 2_481_420)]);
    let leader = current_leader(&sim, &ids).expect("new leader");
    let span = sim.node::<AcuerdoNode>(leader).election_spans[0];
    assert_eq!(
        (leader, span.0.as_nanos(), span.1.as_nanos()),
        (2, 2_475_200, 2_489_850)
    );
    let skipped = sim.idle_polls(1) + sim.idle_polls(2);
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
    let before = sim.idle_polls(1);
    assert!(before > 0, "node 1 does skip polls while the arm flows");
    let mut held_polls = 0;
    let mut watched = None;
    while sim.now() < SimTime::from_micros(700) && sim.step() {
        let n = sim.node::<AcuerdoNode>(1);
        let now = (n.fwd_backlog_len() > 0, sim.idle_polls(1), polls(&sim, 1));
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

#[test]
fn large_payloads_reach_the_followers_as_views_and_small_ones_flat() {
    // The leader posts an entry's head and its payload as one gathered
    // write; a payload of at least `rdma_sim::VIEW_MIN` bytes lands in each
    // follower's ring as a view of the client's buffer. Steady state: an
    // 8 KiB star run copies no payload byte at any follower, on a two-armed
    // ring neither do the forwarders or the nodes past them (segments are
    // views of one buffer and rejoin without a copy), so every replica
    // delivers the client's one buffer; and a 10 B run lands no view at
    // all.
    use acuerdo::DisseminationMode;
    for (n, dissemination, payload) in [
        (16, DisseminationMode::Star, 8192),
        (8, DisseminationMode::Ring, 8192),
        (16, DisseminationMode::Star, 10),
    ] {
        let cfg = AcuerdoConfig {
            dissemination,
            ..AcuerdoConfig::stable(n)
        };
        let (mut sim, ids, _client) =
            cluster_with_client::<AcuerdoNode>(107, &cfg, 8, payload, Duration::ZERO);
        sim.run_until(SimTime::from_millis(5));
        let run = format!("{n} nodes {dissemination:?} {payload} B");
        for &id in &ids[1..] {
            let ep = sim.node::<AcuerdoNode>(id).endpoint();
            let commits = sim.counter(id, Counter::Commits);
            assert!(commits > 50, "{run}: node {id} committed {commits}");
            if payload >= rdma_sim::VIEW_MIN {
                assert_eq!(ep.body_bytes_copied, 0, "{run}: node {id} copied");
                assert!(
                    ep.body_bytes_viewed >= commits * payload as u64,
                    "{run}: node {id} viewed {} for {commits} commits",
                    ep.body_bytes_viewed
                );
            } else {
                assert_eq!(ep.body_bytes_viewed, 0, "{run}: node {id} viewed");
            }
        }
        let delivered = |id| {
            let log = sim.node::<AcuerdoNode>(id).app.delivery_log();
            log.expect("the default app logs").to_vec()
        };
        let leader = delivered(ids[0]);
        for &id in &ids[1..] {
            for ((hdr, payload), (_, own)) in delivered(id).iter().zip(&leader) {
                let shared = payload.as_ptr() == own.as_ptr();
                assert_eq!(
                    shared,
                    payload.len() >= rdma_sim::VIEW_MIN,
                    "{run}: {hdr:?}"
                );
            }
        }
        check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
    }
}
