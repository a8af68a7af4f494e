//! Durable-log robustness at the whole-repo level, table-driven over the
//! durable `Replica`s (Acuerdo, Raft, ZAB): recovery equivalence (a replica
//! rebuilt from its journal converges to the delivered prefix a fresh-state
//! rejoiner reaches) and the negative control for the durability auditor (a
//! deliberately truncated journal MUST be reported as a committed-entry loss
//! — if that test fails, the auditor is blind and every green chaos run is
//! meaningless).

use acuerdo_repro::abcast::{
    self, check_cluster, cluster_with_client, histories, DurabilityAuditor, MsgHdr, Replica,
    Violation, WindowClient,
};
use acuerdo_repro::acuerdo::{
    current_leader, AcWire, AcuerdoConfig, AcuerdoNode, DisseminationMode,
};
use acuerdo_repro::bench::chaos::ChaosReport;
use acuerdo_repro::raft::{RaftConfig, RaftNode, RfWire};
use acuerdo_repro::simnet::{Counter, DurabilityMode, Sim, SimTime};
use acuerdo_repro::zab::{ZabConfig, ZabNode};
use bytes::Bytes;
use std::time::Duration;

/// Replica 2 crashes and restarts under a window client that retransmits to
/// the preset leader, which never fails: `(seed, (window, payload bytes,
/// retransmit ms), [crash, restart, horizon] ms)`.
type Row = (u64, (usize, usize, u64), [u64; 3]);

/// Each row under both modes: the durable restart replays its journal and
/// the volatile one does not; in each run the rejoiner re-delivers what it
/// had and its history is a prefix of the longest; across the runs the
/// rejoiner's histories agree over a common prefix longer than `min` entry
/// for entry, or as sets of payloads if `as_set`.
fn recovery_equivalence<R: Replica>(
    cfg: impl Fn(DurabilityMode) -> R::Config,
    (min, as_set): (usize, bool),
    rows: &[Row],
) {
    let ms = SimTime::from_millis;
    for &(seed, (window, payload, rto), at) in rows {
        let run = |mode| {
            let cfg = cfg(mode);
            let (mut sim, ids, client) =
                cluster_with_client::<R>(seed, &cfg, window, payload, Duration::ZERO);
            abcast::enable_restarts::<R>(&mut sim, &cfg, &ids);
            sim.node_mut::<WindowClient<R::Wire>>(client).retransmit =
                Some(Duration::from_millis(rto));
            sim.crash_at(2, ms(at[0]));
            sim.restart_at(2, ms(at[1]));
            sim.run_until(ms(at[0]));
            let before = sim.node::<R>(2).delivery_log().expect("log").len();
            sim.run_until(ms(at[2]));
            check_cluster::<R>(&sim, &ids).expect("abcast safety");
            let hs = histories::<R>(&sim, &ids);
            assert_eq!(hs.len(), ids.len(), "seed {seed}: all live");
            let (mine, longest) = (&hs[2], hs.iter().max_by_key(|h| h.len()).unwrap());
            assert!(mine.len() >= before, "seed {seed}: {before} before");
            assert_eq!(mine[..], longest[..mine.len()], "seed {seed}: not a prefix");
            (mine.clone(), sim.counter(2, Counter::WalRecoveredRecords))
        };
        let (durable, replayed) = run(DurabilityMode::Durable);
        let (fresh, fresh_replayed) = run(DurabilityMode::Volatile);
        assert!(replayed > 0, "seed {seed}: no replay");
        assert_eq!(fresh_replayed, 0, "seed {seed}: volatile journal");
        let k = durable.len().min(fresh.len());
        assert!(k > min, "seed {seed}: common prefix of {k}");
        let (d, f) = (&durable[..k], &fresh[..k]);
        let same = if as_set {
            let (d, f) = (payloads(d), payloads(f));
            assert!(d.windows(2).all(|w| w[0] != w[1]), "seed {seed}: dup");
            d == f
        } else {
            d == f
        };
        assert!(same, "seed {seed}: the modes delivered different entries");
    }
}

/// The payloads of `h`, sorted.
fn payloads(h: &[(MsgHdr, Bytes)]) -> Vec<&[u8]> {
    let mut v: Vec<&[u8]> = h.iter().map(|(_, p)| p.as_ref()).collect();
    v.sort_unstable();
    v
}

fn acuerdo(dissemination: DisseminationMode) -> impl Fn(DurabilityMode) -> AcuerdoConfig {
    move |durability| AcuerdoConfig {
        retain_log: durability == DurabilityMode::Volatile,
        durability,
        dissemination,
        ..AcuerdoConfig::stable(5)
    }
}

/// Star: across the two modes only the set of payloads is comparable, not
/// their order: fsync charges shift the durable leader's clock, and a held
/// node can dispatch two client requests in the opposite order to their
/// arrival (Cpu-class FIFO holds at delivery, not at dispatch to a held
/// node; DESIGN §11). At seed 7 the durable leader ingests id 7904 before
/// 7903, which the client sent 50 ns earlier. Within each run the rejoiner
/// still matches the longest history exactly. The 100 ms retransmit is
/// inert: no request reaches the leader twice.
#[test]
fn acuerdo_recovery_equivalence_durable_vs_fresh_rejoin() {
    let rows = [(7, (8, 32, 100), [10, 15, 50])];
    recovery_equivalence::<AcuerdoNode>(acuerdo(DisseminationMode::Star), (100, true), &rows);
}

/// Ring: the crashed replica sits on an arm, so its rejoin happens while
/// frames reach it hop by hop (and, transiently, through the leader's star
/// fallback bridging the dead segment); recovery must not observe which
/// lane re-fed it. Window 1 pins the client's submission order exactly:
/// with several slots in flight the client refills completed slots a
/// delivery batch at a time, and the ring's bursty commit cadence makes
/// batch composition — hence the submitted id sequence — sensitive to the
/// fsync charges that differ across modes.
#[test]
fn acuerdo_ring_recovery_equivalence_durable_vs_fresh_rejoin() {
    let rows = [(7, (1, 32, 100), [10, 15, 50])];
    recovery_equivalence::<AcuerdoNode>(acuerdo(DisseminationMode::Ring), (100, false), &rows);
}

#[test]
fn raft_recovery_equivalence_durable_vs_fresh_rejoin() {
    let cfg = |durability| RaftConfig {
        durability,
        ..RaftConfig::default()
    };
    let c = (4, 10, 100);
    let rows = [(40, c, [60, 80, 500]), (41, c, [50, 80, 600])];
    recovery_equivalence::<RaftNode>(cfg, (10, false), &rows);
}

#[test]
fn zab_recovery_equivalence_durable_vs_fresh_rejoin() {
    let cfg = |durability| ZabConfig {
        durability,
        ..ZabConfig::default()
    };
    let c = (8, 10, 20);
    let rows = [(27, c, [20, 30, 120]), (28, c, [15, 25, 150])];
    recovery_equivalence::<ZabNode>(cfg, (10, false), &rows);
}

/// `failover_5n` in small: five durable replicas with `retain_log` set, as
/// the benchmark sets it, and the leader power-failed in each of four
/// rounds (re-aiming the client at its successor, as the harness does). A
/// durable replica recovers its own prefix from its checkpoint and
/// journal, so log GC stays on: the leader's log holds what some live
/// cell has not yet committed, not the history, and a rejoin diff carries
/// at most what committed since its replica failed (the horizon waits on
/// the dead node's stale cell), about 48 B an entry here, not everything
/// before. The rebooted replicas' histories still start at the first
/// entry: they restored it from their checkpoints' app snapshots.
#[test]
fn durable_gc_keeps_logs_and_rejoin_diffs_to_what_a_reboot_missed() {
    let ms = Duration::from_millis;
    let cfg = AcuerdoConfig {
        retain_log: true,
        durability: DurabilityMode::Durable,
        ..AcuerdoConfig::stable(5)
    };
    let (mut sim, ids, client) = cluster_with_client::<AcuerdoNode>(49, &cfg, 8, 32, ms(0));
    abcast::enable_restarts::<AcuerdoNode>(&mut sim, &cfg, &ids);
    let c = sim.node_mut::<WindowClient<AcWire>>(client);
    c.retransmit = Some(ms(1));
    c.replicas = ids.clone();
    let committed = |sim: &Sim<AcWire>| {
        let hs = histories::<AcuerdoNode>(sim, &ids);
        hs.iter().map(Vec::len).max().unwrap_or(0) as u64
    };
    let rejoin_bytes = |sim: &Sim<AcWire>| sim.metrics().total(Counter::RejoinDiffBytes);
    let mut victims = Vec::new();
    for round in 0..4 {
        let fault = SimTime::ZERO + ms(20 + 10 * round);
        sim.run_until(fault);
        let leader = current_leader(&sim, &ids).expect("a leader before the fault");
        let (log, commits) = (
            sim.node::<AcuerdoNode>(leader).log_len() as u64,
            sim.counter(leader, Counter::Commits),
        );
        assert!(
            log * 10 < commits,
            "round {round}: log of {log} after {commits} commits"
        );
        let (before, bytes) = (committed(&sim), rejoin_bytes(&sim));
        sim.power_failure(&[leader]);
        sim.restart_at(leader, fault + ms(2));
        sim.run_until(fault + ms(3));
        let next = current_leader(&sim, &ids).expect("a leader after the election");
        sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![next];
        sim.run_until(fault + ms(9));
        let (since, diff) = (committed(&sim) - before, rejoin_bytes(&sim) - bytes);
        assert!(diff > 0, "round {round}: no rejoin diff");
        assert!(
            diff <= (since + 8) * 64,
            "round {round}: a rejoin diff of {diff} B after {since} commits, {before} before"
        );
        victims.push(leader);
    }
    check_cluster::<AcuerdoNode>(&sim, &ids).expect("abcast safety");
    let hs = histories::<AcuerdoNode>(&sim, &ids);
    let longest = hs.iter().max_by_key(|h| h.len()).unwrap();
    assert!(longest.len() > 5_000, "only {} delivered", longest.len());
    for &v in &victims {
        assert_eq!(
            hs[v].first(),
            longest.first(),
            "replica {v} lost its prefix"
        );
    }
    assert!(
        sim.metrics().total(Counter::WalRecoveredRecords) > 0,
        "no replay"
    );
}

/// Journal records an Acuerdo checkpoint drops at the least (the node's
/// `CHECKPOINT_RECORDS`).
const CHECKPOINT_RECORDS: u64 = 1024;

/// Five durable replicas under a window client that follows the leader.
fn durable_five(seed: u64) -> (Sim<AcWire>, Vec<usize>, usize) {
    let cfg = AcuerdoConfig {
        retain_log: true,
        durability: DurabilityMode::Durable,
        ..AcuerdoConfig::stable(5)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(seed, &cfg, 8, 32, Duration::ZERO);
    abcast::enable_restarts::<AcuerdoNode>(&mut sim, &cfg, &ids);
    let c = sim.node_mut::<WindowClient<AcWire>>(client);
    c.retransmit = Some(Duration::from_millis(1));
    c.replicas = ids.clone();
    (sim, ids, client)
}

/// The identity of replica `id`'s checkpoint, if it wrote one.
fn checkpoint_id(sim: &Sim<AcWire>, id: usize) -> Option<usize> {
    let c = sim.disk(id).synced_checkpoint()?;
    Some(std::sync::Arc::as_ptr(c) as *const () as usize)
}

/// The leader of a durable five-node cluster is power-failed after it has
/// written at least two checkpoints. Its reboot restores the last one and
/// replays only the records above it: at most `CHECKPOINT_RECORDS` that
/// no checkpoint dropped yet, plus those of the entries its log held above
/// its GC horizon. Its history, restored whole from the app snapshot and
/// then extended, is a prefix of the survivors'; its `Commits` counter
/// grows by what it delivers after the reboot, not by its history again.
#[test]
fn a_rebooted_replica_replays_only_what_lies_above_its_checkpoint() {
    let ms = Duration::from_millis;
    let (mut sim, ids, client) = durable_five(52);
    let mut seen = Vec::new();
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + ms(20) {
        t += ms(1);
        sim.run_until(t);
        if let Some(c) = checkpoint_id(&sim, 0) {
            if seen.last() != Some(&c) {
                seen.push(c);
            }
        }
    }
    assert_eq!(current_leader(&sim, &ids), Some(0));
    assert!(seen.len() >= 2, "{} checkpoints by 20 ms", seen.len());
    let (log, commits) = (
        sim.node::<AcuerdoNode>(0).log_len() as u64,
        sim.counter(0, Counter::Commits),
    );
    sim.power_failure(&[0]);
    let back = t + ms(2);
    sim.restart_at(0, back);
    sim.run_until(back + Duration::from_nanos(1));
    let recovered = sim.counter(0, Counter::WalRecoveredRecords);
    assert!(
        recovered <= CHECKPOINT_RECORDS + log,
        "{recovered} records replayed; the log held {log} entries"
    );
    let restored = sim
        .node::<AcuerdoNode>(0)
        .delivery_log()
        .expect("log")
        .len() as u64;
    assert!(
        restored > commits / 2 && restored <= commits,
        "restored {restored} of {commits} delivered"
    );
    assert_eq!(
        sim.counter(0, Counter::Commits),
        commits,
        "the restore delivered"
    );
    sim.run_until(back + ms(1));
    let next = current_leader(&sim, &ids).expect("a leader after the election");
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![next];
    sim.run_until(back + ms(8));
    check_cluster::<AcuerdoNode>(&sim, &ids).expect("abcast safety");
    let hs = histories::<AcuerdoNode>(&sim, &ids);
    let longest = hs.iter().max_by_key(|h| h.len()).unwrap();
    let mine = &hs[0];
    assert!(
        mine.len() as u64 > commits,
        "the rebooted replica caught up"
    );
    assert_eq!(mine[..], longest[..mine.len()], "not the survivors' prefix");
    assert_eq!(
        sim.counter(0, Counter::Commits) - commits,
        mine.len() as u64 - restored,
        "Commits after the reboot"
    );
}

/// The whole cluster loses power after every replica has checkpointed:
/// each reboot restores its checkpoint and the records above it, the
/// cluster elects a leader whose log holds every committed entry, and the
/// durability auditor and the §2.2 oracle find nothing lost, duplicated
/// or reordered.
#[test]
fn whole_cluster_power_failure_after_checkpoints_loses_nothing() {
    let ms = SimTime::from_millis;
    let (mut sim, ids, _) = durable_five(53);
    sim.run_until(ms(20));
    for &id in &ids {
        assert!(
            checkpoint_id(&sim, id).is_some(),
            "replica {id} never checkpointed"
        );
    }
    let mut auditor = DurabilityAuditor::new();
    let pre = histories::<AcuerdoNode>(&sim, &ids);
    auditor.observe(&pre).expect("clean before the fault");
    let committed = pre.iter().map(Vec::len).max().unwrap();
    sim.power_failure(&ids);
    for (k, &id) in ids.iter().enumerate() {
        sim.restart_at(id, ms(21) + Duration::from_micros(300 * k as u64));
    }
    sim.run_until(ms(60));
    let recovered = sim.metrics().total(Counter::WalRecoveredRecords);
    assert!(
        recovered < 5 * 2 * CHECKPOINT_RECORDS,
        "{recovered} records replayed after {committed} commits"
    );
    let post = histories::<AcuerdoNode>(&sim, &ids);
    auditor
        .observe(&post)
        .expect("a checkpointed cluster loses nothing");
    check_cluster::<AcuerdoNode>(&sim, &ids).expect("abcast safety");
    assert!(
        post.iter().all(|h| h.len() > committed),
        "the cluster did not commit past the failure"
    );
}

/// Five durable replicas at seed 11 (window 8, 32 B) lose power at `warm`
/// ms and are back 2 ms later. With intact journals the auditor stays
/// silent at `horizon` ms; with half of every persisted journal dropped
/// behind the cluster's back, the `committed` prefix ratcheted before the
/// failure can no longer be covered, and it MUST report the loss.
fn tampered_log_is_caught<R: Replica>(
    cfg: &R::Config,
    (rto, broadcast): (u64, bool),
    [warm, horizon]: [u64; 2],
    committed: usize,
) {
    let ms = Duration::from_millis;
    for tamper in [false, true] {
        let (mut sim, ids, client) = cluster_with_client::<R>(11, cfg, 8, 32, Duration::ZERO);
        abcast::enable_restarts::<R>(&mut sim, cfg, &ids);
        let c = sim.node_mut::<WindowClient<R::Wire>>(client);
        c.retransmit = Some(ms(rto));
        if broadcast {
            c.replicas = ids.clone();
        }
        sim.run_until(SimTime::from_millis(warm));
        let mut auditor = DurabilityAuditor::new();
        let pre = histories::<R>(&sim, &ids);
        assert_eq!(pre.iter().map(Vec::len).max(), Some(committed));
        auditor.observe(&pre).expect("clean before the fault");

        sim.power_failure(&ids);
        for &id in ids.iter().filter(|_| tamper) {
            let disk = sim.disk_mut(id);
            let drop = disk.synced_records().len() - disk.synced_records().len() / 2;
            assert!(drop > 0, "tampering must remove something");
            disk.corrupt_drop_tail(drop);
        }
        let back = sim.now() + ms(2);
        for &id in &ids {
            sim.restart_at(id, back);
        }
        sim.run_until(SimTime::from_millis(horizon));
        match (tamper, auditor.observe(&histories::<R>(&sim, &ids))) {
            (false, verdict) => verdict.expect("intact journals lose nothing"),
            (true, Err(Violation::CommittedEntryLost { committed_len, .. })) => {
                assert_eq!(committed_len, committed, "the ratcheted prefix")
            }
            (true, other) => panic!("tampered logs must be caught, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_log_tail_is_reported_as_committed_entry_loss() {
    let (durability, n) = (DurabilityMode::Durable, 5);
    let acuerdo = acuerdo(DisseminationMode::Star)(durability);
    // The leader commits 2,629 entries by 15 ms: commit news rides the
    // frame heads, so its Commit_SST row goes to each follower on its
    // heartbeat turn only and leaves the leader's CPU to ingest requests.
    tampered_log_is_caught::<AcuerdoNode>(&acuerdo, (1, false), [15, 50], 2629);
    let raft = RaftConfig { n, durability };
    tampered_log_is_caught::<RaftNode>(&raft, (2, true), [100, 1200], 292);
    let zab = ZabConfig { n, durability };
    tampered_log_is_caught::<ZabNode>(&zab, (2, true), [30, 300], 392);
}

/// Raft's correlated-durable chaos run of `seed` to `horizon`, re-driven
/// here as `bench::chaos` drives it (window 8, 32 B, 100 µs warm-up, 2 ms
/// retransmit with broadcast fallback, restarts) so the replicas' journals
/// can be read at the horizon, and checked to be that run: the chaos
/// report, the simulation, the longest history seen before any fault, and
/// the durability auditor's verdict at the horizon.
fn raft_correlated_at(seed: u64, horizon: SimTime) -> RaftRedriven {
    use acuerdo_repro::bench::chaos::{run_chaos, ChaosOpts, Proto, Schedule};

    let n = 5;
    let report = run_chaos(&ChaosOpts::correlated_durable(Proto::Raft, seed, horizon)).report;
    let cfg = RaftConfig {
        n,
        durability: DurabilityMode::Durable,
    };
    let (mut sim, ids, client) =
        cluster_with_client::<RaftNode>(seed, &cfg, 8, 32, Duration::from_micros(100));
    let c = sim.node_mut::<WindowClient<RfWire>>(client);
    c.retransmit = Some(Duration::from_millis(2));
    c.replicas = ids.clone();
    abcast::enable_restarts::<RaftNode>(&mut sim, &cfg, &ids);
    let schedule = Schedule::generate_correlated(seed, n, horizon);
    let mut auditor = DurabilityAuditor::new();
    let mut committed: Vec<(MsgHdr, Bytes)> = Vec::new();
    sim.run_until(schedule.first_fault_at());
    for tf in &schedule.faults {
        if tf.at > sim.now() {
            sim.run_until(tf.at);
        }
        let hs = histories::<RaftNode>(&sim, &ids);
        let _ = auditor.observe(&hs);
        if let Some(longest) = hs.iter().max_by_key(|h| h.len()) {
            if longest.len() > committed.len() {
                committed = longest.clone();
            }
        }
        tf.apply(&mut sim, n);
    }
    sim.run_until(horizon);
    let verdict = auditor.observe(&histories::<RaftNode>(&sim, &ids));
    if verdict.is_err() {
        sim.bump_counter(0, Counter::AuditCommitLost, 1);
    }
    assert_eq!(
        sim.metrics().to_json(),
        report.metrics.to_json(),
        "the re-driven run is not the chaos run"
    );
    (report, sim, committed, verdict)
}

type RaftRedriven = (
    ChaosReport,
    Sim<RfWire>,
    Vec<(MsgHdr, Bytes)>,
    Result<(), Violation>,
);

/// Replica `id`'s fsync'd journal, replayed as Raft's recovery does: its
/// entry record `(index, (term, (client, id)))` + payload (`WAL_ENTRY`,
/// tag 1) at a covered index truncates the conflicting suffix. Entry `i`
/// reads as header `(term, 0) / i` and its payload, as delivered.
fn raft_journal(sim: &Sim<RfWire>, id: usize) -> Vec<(MsgHdr, Bytes)> {
    use acuerdo_repro::abcast::wal;
    let entry = wal::Kind::<(u64, (u32, (u32, u64)))>::new(1);
    let mut log = Vec::new();
    for rec in sim.disk(id).synced_records() {
        if let Some(((idx, (term, _)), payload)) = entry.read(rec) {
            log.truncate(idx as usize - 1);
            let hdr = MsgHdr::new(abcast::Epoch::new(term, 0), idx as u32);
            log.push((hdr, Bytes::copy_from_slice(payload)));
        }
    }
    log
}

/// Raft's correlated-durable seed 3 at a 50 ms horizon prints `final=[0..0]
/// FAIL CommittedEntryLost { position: 0, committed_len: 26 }`. The entries
/// are not lost: all five replicas reboot by about 16 ms, none starts an
/// election before the horizon (Raft's election timeout is 100–200 ms), so
/// no rebooted replica has re-delivered anything yet — while every
/// replica's fsync'd journal still holds all 26 committed entries, in
/// order. The horizon verdict reads an unfinished election as a loss; the
/// same seed at 600 ms elects a leader and ends `ok`.
#[test]
fn raft_seed_3_keeps_its_committed_entries_in_every_journal_at_50ms() {
    use acuerdo_repro::bench::chaos::{run_chaos, ChaosOpts, Proto};

    let seed = 3;
    let (report, sim, committed, verdict) = raft_correlated_at(seed, SimTime::from_millis(50));
    assert_eq!(report.verdict(), "FAIL CommittedEntryLost");
    assert_eq!((report.final_min, report.final_max), (0, 0));
    assert!(matches!(
        verdict,
        Err(Violation::CommittedEntryLost {
            position: 0,
            committed_len: 26
        })
    ));
    assert_eq!(committed.len(), 26);
    let m = sim.metrics();
    assert_eq!(m.total(Counter::Elections), 0, "an election started");
    assert_eq!(m.total(Counter::WalRecoveredRecords), 198);
    for id in 0..5 {
        let log = raft_journal(&sim, id);
        assert!(
            log.len() >= committed.len() && log[..committed.len()] == committed[..],
            "replica {id}'s journal lost a committed entry ({} entries)",
            log.len()
        );
    }

    let later = ChaosOpts::correlated_durable(Proto::Raft, seed, SimTime::from_millis(600));
    let report = run_chaos(&later).report;
    assert_eq!(report.verdict(), "ok", "{report:?}");
}

/// Raft's correlated-durable seed 10 at a 300 ms horizon prints `pre=314
/// final=[0..298] FAIL CommittedEntryLost { position: 298, committed_len:
/// 314 }`. The entries are not lost either. At 108 ms nodes 0, 2 and 4
/// crash, a majority, with 314 entries committed; they reboot at 119.4,
/// 121.5 and 126.6 ms and deliver nothing, because no leader is elected
/// before the horizon. Survivors 1 and 3 had delivered 298. At 300 ms
/// node 3 is a candidate in term 2 with 353 journalled entries, which
/// Raft's up-to-date rule cannot let nodes 0, 2 and 4 vote for: their
/// journals hold 375, 361 and 369 entries of the same last term. Every
/// replica's fsync'd journal holds all 314 committed entries, in order,
/// and the same seed at 400 ms elects a leader and ends `ok`. As for seed
/// 3, the horizon verdict reads an unfinished election as a loss.
#[test]
fn raft_seed_10_keeps_its_committed_entries_in_every_journal_at_300ms() {
    use acuerdo_repro::bench::chaos::{run_chaos, ChaosOpts, Proto};
    use acuerdo_repro::raft::RaftRole;

    let seed = 10;
    let (report, sim, committed, verdict) = raft_correlated_at(seed, SimTime::from_millis(300));
    assert_eq!(report.verdict(), "FAIL CommittedEntryLost");
    assert_eq!(
        (report.pre_fault_commits, report.final_min, report.final_max),
        (314, 0, 298)
    );
    assert!(matches!(
        verdict,
        Err(Violation::CommittedEntryLost {
            position: 298,
            committed_len: 314
        })
    ));
    assert_eq!(committed.len(), 314);
    let roles: Vec<RaftRole> = (0..5).map(|id| sim.node::<RaftNode>(id).role()).collect();
    assert!(
        !roles.contains(&RaftRole::Leader),
        "a leader at the horizon"
    );
    assert_eq!(roles[3], RaftRole::Candidate);
    let mut journals = Vec::new();
    for id in 0..5 {
        let log = raft_journal(&sim, id);
        assert!(
            log.len() >= committed.len() && log[..committed.len()] == committed[..],
            "replica {id}'s journal lost a committed entry ({} entries)",
            log.len()
        );
        journals.push(log.len());
    }
    assert_eq!(journals, [375, 345, 361, 353, 369]);

    let later = ChaosOpts::correlated_durable(Proto::Raft, seed, SimTime::from_millis(400));
    let report = run_chaos(&later).report;
    assert_eq!(report.verdict(), "ok", "{report:?}");
}
