//! Chaos at scale: the seeded fault harness on clusters far larger than the
//! 5-replica default. A small pinned seed set keeps this a smoke test — the
//! point is that safety checking, post-quiescence convergence, and the online
//! invariant auditor all still hold up when the membership (and therefore the
//! ring fabric, quorum sizes, and fault schedules) grows to 16 and 32 nodes.
//!
//! Broad seed sweeps stay in the `chaos` bin (`--nodes N --seeds K`); these
//! tests pin exact (proto, seed, n) triples so a failure is a one-line repro.

use acuerdo_repro::acuerdo::DisseminationMode;
use acuerdo_repro::bench::audit_fired;
use acuerdo_repro::bench::chaos::{
    run_chaos, ChaosOpts, ChaosReport, ChaosRun, Fault, Proto, Tier, Trace,
};
use acuerdo_repro::simnet::{DurabilityMode, SimTime, TraceEvent};

const HORIZON_MS: u64 = 20;

/// Run one pinned chaos scenario and assert the full verdict: no safety or
/// durability violation, every live replica covered the pre-fault commit
/// point, and the online auditor stayed silent.
fn assert_verdict(opts: &ChaosOpts) -> ChaosRun {
    let run = run_chaos(opts);
    let r = &run.report;
    assert!(
        !r.fatal(),
        "violation {:?}/{:?} (repro: {})",
        r.safety,
        r.durability_violation,
        r.repro()
    );
    assert!(
        r.converged,
        "live replicas stalled at [{}..{}] behind pre-fault {} (repro: {})",
        r.final_min,
        r.final_max,
        r.pre_fault_commits,
        r.repro()
    );
    assert!(
        !audit_fired(&r.metrics),
        "online invariant auditor fired on a run the offline checker passed (repro: {})",
        r.repro()
    );
    run
}

fn assert_clean(proto: Proto, seed: u64, n: usize) {
    assert_verdict(&ChaosOpts {
        n,
        ..ChaosOpts::new(proto, seed, SimTime::from_millis(HORIZON_MS))
    });
}

#[test]
fn chaos_sixteen_nodes_two_seeds() {
    // Two distinct schedules: different fault mixes against a 16-node ring.
    assert_clean(Proto::Acuerdo, 3, 16);
    assert_clean(Proto::Acuerdo, 11, 16);
}

#[test]
fn chaos_sixteen_nodes_derecho_sized_rings() {
    // Derecho at 16 nodes exercises `DerechoConfig::sized` (the scale-aware
    // ring schedule) under faults, not just in the clean-path sweep.
    assert_clean(Proto::Derecho, 3, 16);
}

#[test]
fn chaos_thirty_two_nodes() {
    // One 32-node schedule: ring sizing drops a tier (256 KiB) and the
    // quorum math runs over a membership 6x the default.
    assert_clean(Proto::Acuerdo, 7, 32);
}

/// [`assert_verdict`] under **ring dissemination**; returns the report so
/// callers can additionally assert on the fault mix the seed produced.
fn assert_clean_ring(seed: u64, n: usize, tier: Tier, durability: DurabilityMode) -> ChaosReport {
    let r = assert_verdict(&ChaosOpts {
        n,
        tier,
        durability,
        dissemination: DisseminationMode::Ring,
        ..ChaosOpts::new(Proto::Acuerdo, seed, SimTime::from_millis(HORIZON_MS))
    })
    .report;
    // The repro command round-trips the topology, so a failing ring seed
    // re-runs as a ring seed.
    assert!(r.repro().contains("--dissemination ring"), "{}", r.repro());
    r
}

#[test]
fn chaos_ring_sixteen_nodes_crash_mid_forward() {
    // A 16-node ring with crashes landing while frames are in flight along
    // its arms: the leader must bridge the dead segment star-style and hand
    // back to the healed arm after the rejoin.
    let has_crash = |r: &ChaosReport| {
        r.schedule
            .faults
            .iter()
            .any(|tf| matches!(tf.fault, Fault::Crash { .. }))
    };
    let a = assert_clean_ring(3, 16, Tier::Basic, DurabilityMode::Volatile);
    let b = assert_clean_ring(11, 16, Tier::Basic, DurabilityMode::Volatile);
    assert!(
        has_crash(&a) || has_crash(&b),
        "neither pinned 16-node seed crashed a replica; the scenario lost its point"
    );
}

#[test]
fn chaos_ring_thirty_two_nodes_partition_splits_chain() {
    // At 32 nodes the basic-tier schedule mixes partitions in: a partition
    // across the ring severs every arm crossing the cut, the worst case for
    // hop-by-hop dissemination.
    let r = assert_clean_ring(7, 32, Tier::Basic, DurabilityMode::Volatile);
    assert!(
        !r.schedule.faults.is_empty(),
        "seed 7 at 32 nodes generated no faults; pick a different pin"
    );
}

#[test]
fn chaos_ring_sixteen_nodes_crash_during_recovery_durable() {
    // Correlated tier, durable logs: reboots land while earlier reboots are
    // still replaying their WAL, with frames arriving over an arm rather
    // than a leader lane. Every committed entry must resurface.
    assert_clean_ring(5, 16, Tier::Correlated, DurabilityMode::Durable);
}

/// The `chaos` bin's default horizon: the election pins below need it — a
/// 20 ms log is short enough for every recovery diff to beat the patience.
const SWEEP_HORIZON_MS: u64 = 50;

#[test]
fn chaos_sixteen_nodes_outbid_leader_abdicates() {
    // Whole-cluster power failure, staggered durable reboots. The winner of
    // the post-reboot election ships 15 full-log diffs, which takes longer
    // than `candidate_patience`: voters whose diff is still queued outbid
    // it and then refuse the diff. With 8 of 16 promised above its epoch the
    // winner can never commit, and the 8 outbidders can never win while its
    // 7 followers keep following its heartbeat — each of these seeds sat in
    // that split to the horizon (no replica re-delivered its recovered log)
    // until `detect_outbid` made a quorum-blocked leader abdicate.
    let recovers = |seed, dissemination| {
        assert_verdict(&ChaosOpts {
            n: 16,
            dissemination,
            ..ChaosOpts::correlated_durable(
                Proto::Acuerdo,
                seed,
                SimTime::from_millis(SWEEP_HORIZON_MS),
            )
        });
    };
    // Two-armed ring; the deciding ninth vote landed 2 µs after the first
    // voters' patience ran out.
    recovers(30, DisseminationMode::Ring);
    // Livelocked on the single chain too (the parent of the two-armed ring).
    recovers(9, DisseminationMode::Ring);
    // Star: the quorum formed only once late rebooters joined.
    recovers(3, DisseminationMode::Star);
}

#[test]
fn chaos_sixteen_nodes_elector_waits_for_a_won_vote() {
    // Whole-cluster power failure on the two-armed ring, durable logs. The
    // logs are long by the time it strikes, so the winner's full-log diffs
    // take longer than `candidate_patience` (200 µs) to reach the last of
    // its 15 electors: 8 of them outbid a vote that a quorum of identical
    // cells already held, and every `detect_outbid` abdication repeated
    // the same 8-vs-8 split until the horizon (`final=[0..0] FAIL
    // CommittedEntryLost`). An elector now gives such a vote a whole
    // `fail_timeout`, and both seeds converge.
    for seed in [6, 9] {
        assert_verdict(&ChaosOpts {
            n: 16,
            dissemination: DisseminationMode::Ring,
            ..ChaosOpts::correlated_durable(
                Proto::Acuerdo,
                seed,
                SimTime::from_millis(SWEEP_HORIZON_MS),
            )
        });
    }
}

#[test]
fn chaos_elector_ignores_a_heartbeat_that_merely_reset() {
    // Must stay green. A rebooted peer's commit cell restarts from zero,
    // which *changes* its heartbeat without any leader behind it. An elector
    // that took any heartbeat change for a live leader resynced, the whole
    // 5-node cluster ended up resyncing at once, and the blank rebooted
    // node won a reused epoch with an empty log (OrderMismatch at position
    // 0). `detect_desync`'s elector rule therefore also demands that the
    // ticking cell name an epoch its owner leads.
    assert_verdict(&ChaosOpts::new(
        Proto::Acuerdo,
        90,
        SimTime::from_millis(SWEEP_HORIZON_MS),
    ));
}

#[test]
fn chaos_rebooted_ex_leader_does_not_rewin_its_old_epoch() {
    // Three nodes, volatile. Replica 2 wins epoch (1,2), proposes in it and
    // crashes; it reboots blank while its two peers are resyncing, so
    // nobody answers its Hellos and it falls back to an election. Replica
    // 1's resync retraction `((1,2), accepted)` is the best vote on the
    // table and names replica 2: joining it made the blank node "win" (1,2)
    // a second time, supported by that very retraction, and re-propose
    // headers its previous incarnation had already committed
    // (OrderMismatch at position 4037). A vote that names this node for an
    // epoch above anything it knows is not its own; it outbids it instead.
    assert_verdict(&ChaosOpts {
        n: 3,
        ..ChaosOpts::new(Proto::Acuerdo, 51, SimTime::from_millis(SWEEP_HORIZON_MS))
    });
}

#[test]
fn chaos_winner_behind_a_peers_commit_point_does_not_panic() {
    // Three nodes, volatile. Replica 2 falls behind a partition while
    // replica 1 commits on; volatile amnesia then lets replica 2 win round 1
    // without those entries, and seeding replica 1 asked the log for an
    // inverted range (replica 1's commit point down to replica 2's
    // frontier), which panicked the run. The seeding range is now guarded
    // like the commit rule's: replica 1 gets an empty diff, refuses it (it
    // has already bid round 2), wins round 2 with the full log, and the run
    // gets a verdict. The trace must show the guard firing exactly there,
    // or this test no longer reaches it.
    let opts = ChaosOpts {
        n: 3,
        trace: Trace::Timeline,
        ..ChaosOpts::new(Proto::Acuerdo, 288, SimTime::from_millis(SWEEP_HORIZON_MS))
    };
    let ahead: Vec<_> = assert_verdict(&opts)
        .trace
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Proto { node, ev, .. } if ev.name == "seed_peer_ahead" => {
                Some((node, ev.a))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        ahead,
        [(2, 1)],
        "replica 2 seeding replica 1 past its frontier"
    );
}
