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
use acuerdo_repro::acuerdo::{AcuerdoConfig, AcuerdoNode, DisseminationMode};
use acuerdo_repro::raft::{RaftConfig, RaftNode};
use acuerdo_repro::simnet::{Counter, DurabilityMode, SimTime};
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
            let before = sim.node::<R>(2).delivery_log().expect("log").entries.len();
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
        retain_log: true,
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
    let raft = RaftConfig {
        n,
        durability,
        ..RaftConfig::default()
    };
    tampered_log_is_caught::<RaftNode>(&raft, (2, true), [100, 1200], 292);
    let zab = ZabConfig {
        n,
        durability,
        ..ZabConfig::default()
    };
    tampered_log_is_caught::<ZabNode>(&zab, (2, true), [30, 300], 392);
}
