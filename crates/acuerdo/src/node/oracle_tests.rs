//! Differential oracle for the dirty-driven poll: the same cluster, seed and
//! fault schedule run twice, once as shipped and once with every node
//! `naive` (each poll a full one that looks at every ring and every
//! Accept_SST cell, nothing ever settles, the engine never answers a poll in
//! place). The two must be the same execution: trace, delivery histories and
//! the whole metrics snapshot.

use super::*;
use crate::cluster::{build_cluster, histories};
use crate::config::DisseminationMode;
use abcast::WindowClient;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rdma_prims::RingMode;
use simnet::{DurabilityMode, GaugeSample, MetricsSnapshot, NetParams, Sim, TraceEvent};

const HORIZON: SimTime = SimTime::from_millis(6);

type History = Vec<(MsgHdr, Bytes)>;

/// What a run leaves behind, plus how many polls the engine answered
/// without a handler (`Sim::idle_polls`: parked ones, mostly).
struct Outcome {
    trace: Vec<TraceEvent>,
    /// Every gauge of every node, sampled each microsecond: a level that is
    /// published one poll late shows here and nowhere else.
    gauges: Vec<GaugeSample>,
    histories: Vec<History>,
    metrics: MetricsSnapshot,
    skipped: u64,
}

fn chaos_cfg(n: usize) -> AcuerdoConfig {
    AcuerdoConfig {
        retain_log: true,
        fail_timeout: Duration::from_micros(300),
        ..AcuerdoConfig::stable(n)
    }
}

/// A traced cluster of `naive` (or shipped) nodes under a retransmitting
/// window client that falls back to broadcasting; restarted replicas rejoin
/// in the same mode.
fn cluster(
    seed: u64,
    cfg: &AcuerdoConfig,
    naive: bool,
    window: usize,
    payload: usize,
) -> (Sim<AcWire>, Vec<NodeId>) {
    let mut sim = Sim::new(seed, NetParams::rdma());
    let ids = build_cluster(&mut sim, cfg);
    for &id in &ids {
        sim.node_mut::<AcuerdoNode>(id).naive = naive;
        let cfg = cfg.clone();
        sim.set_restart_factory(id, move || {
            let mut node = AcuerdoNode::rejoining(cfg.clone(), id);
            node.naive = naive;
            Box::new(node)
        });
    }
    let mut client = WindowClient::new(0, window, payload, Duration::from_micros(100));
    client.retransmit = Some(Duration::from_micros(500));
    client.replicas = ids.clone();
    sim.add_node(Box::new(client));
    sim.set_tracing(true);
    sim.set_gauge_sampling(Duration::from_micros(1));
    (sim, ids)
}

fn finish(mut sim: Sim<AcWire>, ids: &[NodeId]) -> Outcome {
    let skipped = ids.iter().map(|&id| sim.idle_polls(id)).sum();
    Outcome {
        histories: histories(&sim, ids),
        metrics: sim.metrics(),
        gauges: sim.take_gauge_samples(),
        trace: sim.take_trace(),
        skipped,
    }
}

/// The shipped node must have idled, the oracle never, and nothing else may
/// tell them apart.
fn assert_same(what: &str, shipped: &Outcome, naive: &Outcome) {
    assert_eq!(naive.skipped, 0, "{what}: the oracle idled");
    assert!(shipped.skipped > 0, "{what}: the shipped node never idled");
    assert_eq!(shipped.histories, naive.histories, "{what}: histories");
    let at = (0..shipped.trace.len().min(naive.trace.len()))
        .find(|&i| shipped.trace[i] != naive.trace[i]);
    if let Some(i) = at {
        panic!(
            "{what}: trace event {i}: shipped {:?}, oracle {:?}",
            shipped.trace[i], naive.trace[i]
        );
    }
    assert_eq!(
        shipped.trace.len(),
        naive.trace.len(),
        "{what}: trace length"
    );
    assert_eq!(shipped.metrics, naive.metrics, "{what}: metrics");
    let at = (0..shipped.gauges.len()).find(|&i| shipped.gauges[i] != naive.gauges[i]);
    if let Some(i) = at {
        panic!(
            "{what}: gauge sample {i}: shipped {:?}, oracle {:?}",
            shipped.gauges[i], naive.gauges[i]
        );
    }
}

/// Seeded fault script in the chaos harness's mix: 2–5 faults in
/// `[20 %, 60 %)` of the horizon (crash + reboot, minority partition + heal,
/// descheduling, link delay, CPU slowdown), the tail left to converge.
/// `correlated` opens with a whole-cluster power failure and staggered
/// reboots.
fn inject_faults(sim: &mut Sim<AcWire>, n: usize, seed: u64, correlated: bool) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0AC1E);
    let h = HORIZON.as_nanos();
    let us = |rng: &mut SmallRng, lo: u64, hi: u64| Duration::from_micros(rng.random_range(lo..hi));
    // Ascending instants: link delays and CPU scales take effect when
    // called, so the run advances to each fault in turn.
    let faults = rng.random_range(2..=5usize) + usize::from(correlated);
    let mut times: Vec<SimTime> = (0..faults)
        .map(|_| SimTime::from_nanos(rng.random_range(h / 5..h * 3 / 5)))
        .collect();
    times.sort();
    let mut times = times.into_iter();
    if correlated {
        let t = times.next().expect("the power failure's instant");
        sim.power_failure_at((0..n).collect(), t);
        for node in 0..n {
            let back = us(&mut rng, 20, 400);
            sim.restart_at(node, t + back);
        }
    }
    let f = (n - 1) / 2;
    for t in times {
        let node = rng.random_range(0..n);
        match rng.random_range(0..5u32) {
            // One crash at a time keeps a quorum whatever else is going on.
            0 if !correlated => {
                sim.crash_at(node, t);
                let back = us(&mut rng, 50, 800);
                sim.restart_at(node, t + back);
            }
            1 => {
                let minority: Vec<NodeId> = (0..f).map(|i| (node + i) % n).collect();
                let rest = (0..n).filter(|i| !minority.contains(i)).collect();
                sim.partition(vec![minority, rest], t);
                let dur = us(&mut rng, 100, 900);
                sim.heal(t + dur);
            }
            2 => {
                let dur = us(&mut rng, 50, 700);
                sim.pause_at(node, t, dur);
            }
            3 => {
                let dst = (node + 1 + rng.random_range(0..n - 1)) % n;
                let extra = us(&mut rng, 5, 200);
                let dur = us(&mut rng, 100, 900);
                sim.run_until(t);
                sim.add_link_latency(node, dst, extra, t + dur);
            }
            _ => {
                sim.run_until(t);
                sim.set_cpu_scale(node, 1.0 + f64::from(rng.random_range(1..40u32)) / 10.0);
            }
        }
    }
}

/// Recovery diffs applied in an epoch that was already streaming: the
/// leader re-seeding a rejoiner mid-epoch, entries of the current epoch
/// spliced in under the stream.
fn mid_epoch_diffs(trace: &[TraceEvent]) -> usize {
    let mut streaming = std::collections::BTreeSet::new();
    let mut diffs = 0;
    for e in trace {
        if let TraceEvent::Proto { ev, .. } = e {
            match ev.name {
                "accept" => drop(streaming.insert(ev.a)),
                "diff_apply" if ev.b > 0 && streaming.contains(&ev.a) => diffs += 1,
                _ => {}
            }
        }
    }
    diffs
}

fn chaos_run(cfg: &AcuerdoConfig, seed: u64, correlated: bool, naive: bool) -> Outcome {
    // Even seeds keep a few requests in flight, odd seeds enough to fill
    // the small rings of the slot-reuse case.
    let window = if seed.is_multiple_of(2) { 8 } else { 64 };
    let (mut sim, ids) = cluster(seed, cfg, naive, window, 64);
    inject_faults(&mut sim, cfg.n, seed, correlated);
    sim.run_until(HORIZON);
    finish(sim, &ids)
}

/// The sweep's schedules: name, configuration, correlated, seeds.
fn sweep() -> [(&'static str, AcuerdoConfig, bool, Vec<u64>); 5] {
    let ring8 = AcuerdoConfig {
        dissemination: DisseminationMode::Ring,
        ..chaos_cfg(8)
    };
    let durable5 = AcuerdoConfig {
        durability: DurabilityMode::Durable,
        ..chaos_cfg(5)
    };
    let reuse_on_commit = AcuerdoConfig {
        slot_reuse_on_commit: true,
        ring_bytes: 4 << 10,
        max_diff_part: 1 << 10,
        ..chaos_cfg(5)
    };
    let split = AcuerdoConfig {
        ring_mode: RingMode::Split,
        ..chaos_cfg(3)
    };
    // The star poll runs the same gate, park map and forward queue checks
    // as the ring's; a mid-epoch rejoin diff is what moves its frontier
    // under them.
    let star5 = chaos_cfg(5);
    [
        ("star n=5", star5, false, (0..12).collect()),
        // Seed 759 abdicates (`EDGES`).
        (
            "star n=5 correlated-durable",
            durable5,
            true,
            (0..12).chain([759]).collect(),
        ),
        // Seed 19 takes follower -> follower (`EDGES`).
        ("ring n=8", ring8, false, (0..12).chain([19]).collect()),
        (
            "slot_reuse_on_commit",
            reuse_on_commit,
            false,
            (0..8).collect(),
        ),
        ("RingMode::Split", split, false, (0..8).collect()),
    ]
}

#[test]
fn dirty_driven_node_matches_the_look_at_everything_oracle() {
    for (name, cfg, correlated, seeds) in sweep() {
        let cfg = &cfg;
        let (mut commits, mut rejoins) = (0, 0);
        for seed in seeds {
            let shipped = chaos_run(cfg, seed, correlated, false);
            let naive = chaos_run(cfg, seed, correlated, true);
            assert_same(&format!("{name} seed {seed}"), &shipped, &naive);
            commits += shipped.histories.iter().map(Vec::len).max().unwrap_or(0);
            rejoins += mid_epoch_diffs(&shipped.trace);
        }
        assert!(commits > 1_000, "{name}: only {commits} commits, too thin");
        assert!(
            correlated || rejoins > 0,
            "{name}: no mid-epoch rejoin diff in any seed"
        );
    }
}

/// Every `(from, to)` phase edge the sweep's schedules take, with its
/// trigger: DESIGN §9's edge table, and what exhaustive exploration must
/// cover at the least.
const EDGES: [(&str, &str); 12] = [
    // Heartbeat miss (`detect_failure` → `start_election`).
    ("follower", "electing"),
    // Another leader's epoch diff reaching a follower whose own leader
    // lived on with it (`apply_diff`). Ring n=8 seed 19: nodes 2 to 7
    // suspect the leader at 3.33 ms and elect node 7 at 3.37 ms; node 1
    // never suspects it and applies node 7's epoch diff at 3.43 ms.
    ("follower", "follower"),
    // Frames stalled past patience (`detect_desync` → `initiate_resync`).
    ("follower", "rejoining"),
    // A quorum of identical votes (`election_step` → `become_leader`).
    ("electing", "leader"),
    // Another leader's epoch diff (`apply_diff`).
    ("electing", "follower"),
    // A live epoch advancing without this elector (`detect_desync`).
    ("electing", "rejoining"),
    // Re-Hello after `2 × fail_timeout`, or a rebooted node's first Hello
    // (`detect_desync` or `on_start` → `initiate_resync`).
    ("rejoining", "rejoining"),
    // The recovery diff (`apply_diff`).
    ("rejoining", "follower"),
    // Give up after `MAX_RESYNC_ATTEMPTS` (`detect_desync` →
    // `start_election`).
    ("rejoining", "electing"),
    // Another leader's epoch diff (`apply_diff`).
    ("leader", "follower"),
    // A peer committed in a newer epoch (`detect_desync`).
    ("leader", "rejoining"),
    // Outbid past `fail_timeout`: abdication (`detect_outbid` →
    // `start_election`). Correlated-durable seed 759: after the power
    // failure node 3 wins round 1 at 3.65 ms, and only node 2 applies its
    // diff; node 1 wins round 2 at 3.96 ms, nodes 0 and 4 apply its diff,
    // which leaves leader 3 no quorum, and it abdicates at 4.38 ms.
    ("leader", "electing"),
];

#[test]
fn phase_edges_match_the_documented_table() {
    PHASE_EDGES.with(|e| e.borrow_mut().clear());
    for (_, cfg, correlated, seeds) in sweep() {
        for seed in seeds {
            chaos_run(&cfg, seed, correlated, false);
        }
    }
    let seen: Vec<_> = PHASE_EDGES.with(|e| e.take()).into_iter().collect();
    let mut table = EDGES.to_vec();
    table.sort();
    assert_eq!(seen, table, "phase edges taken vs DESIGN §9's table");
}

/// Run `cfg` for 4 ms under the chaos client (`payload` bytes, a window of
/// `window`), crashing `crashed` at 1 ms (and rebooting it at 1.5 ms if
/// `reboot`): the cluster and how many stamps each node read.
fn stamps_read(
    cfg: &AcuerdoConfig,
    (window, payload): (usize, usize),
    crashed: NodeId,
    reboot: bool,
) -> (Sim<AcWire>, Vec<u64>) {
    let (mut sim, ids) = cluster(12, cfg, false, window, payload);
    sim.crash_at(crashed, SimTime::from_millis(1));
    if reboot {
        sim.restart_at(crashed, SimTime::from_micros(1_500));
    }
    sim.run_until(SimTime::from_millis(4));
    let read = ids
        .iter()
        .map(|&k| {
            if sim.is_crashed(k) {
                0
            } else {
                sim.node::<AcuerdoNode>(k).stamps_read
            }
        })
        .collect();
    (sim, read)
}

#[test]
fn no_commit_stamp_reaches_its_own_frame() {
    // `read_stamp` asserts that every stamp it reads is below its frame's
    // header (`msg::EntryHead::new` cuts it there). These runs take each
    // path that writes a frame after its entry may have committed, and
    // segmented entries: a ring with a dead forwarder (forward backlogs,
    // the leader's star-fallback catch-up), 8 KiB entries cut through a
    // ring whose arm head 7 dies, and a star follower rebooting (the stream resumed after its
    // rejoin diff). Every live follower reads stamps in each.
    let ring = |n| AcuerdoConfig {
        dissemination: DisseminationMode::Ring,
        ..chaos_cfg(n)
    };
    let (sim, read) = stamps_read(&ring(16), (64, 64), 2, false);
    assert!(
        sim.counter(0, Counter::RingFallbackSends) > 0,
        "no fallback"
    );
    let live = |read: &[u64], dead| {
        read.iter()
            .enumerate()
            .skip(1)
            .all(|(k, &r)| k == dead || r > 100)
    };
    assert!(live(&read, 2), "fallback: {read:?}");
    let (sim, read) = stamps_read(&ring(8), (8, 8192), 7, false);
    let cut = |e: &TraceEvent| matches!(e, TraceEvent::Proto { ev, .. } if ev.name == "seg_post");
    assert!(sim.trace_events().iter().any(cut), "no segments");
    assert!(live(&read, 7), "segments: {read:?}");
    let (sim, read) = stamps_read(&chaos_cfg(3), (8, 64), 2, true);
    assert!(sim.counter(0, Counter::RejoinDiffBytes) > 0, "no rejoin");
    assert!(live(&read, usize::MAX), "rejoin: {read:?}");
}

// ---- the three traps, by name -----------------------------------------------
//
// Each runs a fault-free or one-fault case both ways, like the sweep above,
// after checking that the situation it is named for really arises in it.

#[test]
fn completion_arriving_while_a_send_is_blocked() {
    // A send queue of 16 with a completion every 8 posts, and 40 us of
    // extra latency on follower 1's way back: its lane at the leader fills,
    // the leader's flush stops on `QueueFull`, and only the hardware ack
    // that retires the queue's head lets it go on. That ack is the one
    // completion that must stir.
    let cfg = AcuerdoConfig {
        qp: rdma_sim::QpConfig {
            sq_depth: 16,
            signal_interval: 8,
            ..rdma_sim::QpConfig::default()
        },
        ..AcuerdoConfig::stable(3)
    };
    let run = |naive: bool| {
        let (mut sim, ids) = cluster(7, &cfg, naive, 64, 64);
        sim.add_link_latency(1, 0, Duration::from_micros(40), SimTime::from_millis(2));
        let (mut acked_while_blocked, mut completions) = (0, 0);
        while sim.now() < SimTime::from_millis(2) && sim.step() {
            let now = sim.counter(0, Counter::CompletionsPolled);
            if now != completions && sim.node::<AcuerdoNode>(0).send_blocked {
                acked_while_blocked += 1;
            }
            completions = now;
        }
        assert!(acked_while_blocked > 50, "{acked_while_blocked} such acks");
        finish(sim, &ids)
    };
    let shipped = run(false);
    assert!(shipped.histories[0].len() > 300, "the queue never drained");
    assert_same("blocked send", &shipped, &run(true));
}

#[test]
fn push_tick_under_slot_reuse_on_commit() {
    // Derecho's rule frees a lane off the minimum over every Commit_SST
    // cell, the leader's own included, and that one moves only when the
    // push tick writes it. Rings of 4 KiB under a window of 64 make flow
    // control bind, so a reuse that ran a poll late would show in
    // `RingStalls` and in the sampled occupancy.
    let cfg = AcuerdoConfig {
        slot_reuse_on_commit: true,
        ring_bytes: 4 << 10,
        max_diff_part: 1 << 10,
        ..AcuerdoConfig::stable(3)
    };
    let run = |naive: bool| {
        let (mut sim, ids) = cluster(8, &cfg, naive, 64, 64);
        sim.run_until(SimTime::from_millis(3));
        assert!(
            sim.counter(0, Counter::RingStalls) > 100,
            "rings never filled"
        );
        finish(sim, &ids)
    };
    assert_same("reuse on commit", &run(false), &run(true));
}

#[test]
fn accept_cell_landing_on_a_forwarder_with_an_empty_backlog() {
    // Ring of five, origin 0: node 1 forwards to node 2, and node 2 pushes
    // its Accept_SST cell back to node 1 after every acceptance batch. By
    // then node 1 has usually forwarded everything it had, and the cell is
    // read only by `flush_forwards`, which returns at once on an empty
    // backlog; the next frame to forward stirs node 1 by itself. Such a
    // write must not stir it.
    let cfg = AcuerdoConfig {
        dissemination: DisseminationMode::Ring,
        ..chaos_cfg(5)
    };
    let run = |naive: bool| {
        let (mut sim, ids) = cluster(10, &cfg, naive, 8, 64);
        let cell = |sim: &Sim<AcWire>| {
            let n = sim.node::<AcuerdoNode>(1);
            n.accept_sst.read(&n.ep, 2)
        };
        let mut quiet_landings = 0;
        while sim.now() < SimTime::from_millis(2) {
            let before = cell(&sim);
            if !sim.step() {
                break;
            }
            let n = sim.node::<AcuerdoNode>(1);
            if cell(&sim) != before && n.fwd_backlog.is_empty() && !n.stirred {
                quiet_landings += 1;
            }
        }
        // 372 in the shipped run.
        assert!(
            naive || quiet_landings > 100,
            "{quiet_landings} such landings"
        );
        finish(sim, &ids)
    };
    assert_same("forwarder's empty backlog", &run(false), &run(true));
}

#[test]
fn quiet_followers_crossing_the_fail_timeout() {
    // An idle cluster whose leader dies: both followers are on the idle
    // path, and the poll that crosses `fail_timeout` must be a full one, at
    // the instant the always-full loop runs it. The instants are pinned in
    // `quiet_follower_suspects_a_dead_leader_at_the_same_instant`.
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(500),
        ..AcuerdoConfig::stable(3)
    };
    let run = |naive: bool| {
        let mut sim = Sim::new(106, NetParams::rdma());
        let ids = build_cluster(&mut sim, &cfg);
        for &id in &ids {
            sim.node_mut::<AcuerdoNode>(id).naive = naive;
        }
        sim.set_tracing(true);
        sim.set_gauge_sampling(Duration::from_micros(1));
        sim.crash_at(0, SimTime::from_millis(2));
        sim.run_until(SimTime::from_millis(6));
        assert_eq!(sim.counter(1, Counter::Elections), 1);
        finish(sim, &ids)
    };
    assert_same("quiet followers", &run(false), &run(true));
}

#[test]
fn frame_landing_in_a_ring_re_registered_by_refresh_inbound() {
    // Follower 2 reboots: it and its peers abandon their rings for freshly
    // registered regions (ids past the boot-time plan), and everything it
    // accepts from then on lands in those. A dirty set that knew only the
    // boot-time regions would never look at them.
    let cfg = chaos_cfg(3);
    let run = |naive: bool| {
        let (mut sim, ids) = cluster(9, &cfg, naive, 8, 64);
        sim.crash_at(2, SimTime::from_millis(1));
        sim.restart_at(2, SimTime::from_micros(1_500));
        // What this incarnation delivered: the DeliveryLog, not the Commits
        // counter, which also holds node 2's deliveries before its reboot.
        let delivered = |sim: &Sim<AcWire>, id| {
            let log = sim.node::<AcuerdoNode>(id).app.delivery_log();
            log.expect("DeliveryLog app").len()
        };
        sim.run_until(SimTime::from_millis(2));
        let rejoined_at = delivered(&sim, 2);
        sim.run_until(SimTime::from_millis(5));
        let (leader, rejoiner) = (delivered(&sim, 0), delivered(&sim, 2));
        assert!(
            sim.counter(0, Counter::RejoinDiffBytes) > 0,
            "no rejoin diff"
        );
        assert!(
            rejoiner > rejoined_at + 500 && rejoiner + 8 >= leader,
            "the rejoiner fell behind: {rejoiner} of {leader}"
        );
        finish(sim, &ids)
    };
    assert_same("rejoin", &run(false), &run(true));
}
