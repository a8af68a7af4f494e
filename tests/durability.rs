//! Durable-log robustness at the whole-repo level: recovery equivalence
//! (a replica rebuilt from its persistent log converges to the same
//! delivered prefix as a fresh-state rejoiner) and the negative control for
//! the durability auditor (a deliberately corrupted log tail MUST be
//! reported as a committed-entry loss — if this test fails, the auditor is
//! blind and every green chaos run is meaningless).

use acuerdo_repro::abcast::{
    check_cluster, cluster_with_client, DurabilityAuditor, Violation, WindowClient,
};
use acuerdo_repro::acuerdo::{self, AcWire, AcuerdoConfig, DisseminationMode};
use acuerdo_repro::simnet::{Counter, DurabilityMode, SimTime};
use bytes::Bytes;
use std::time::Duration;

/// One acuerdo run with a crash/restart of replica 2: returns every live
/// replica's delivered payload sequence plus replica 2's delivered length.
fn crash_restart_run(mode: DurabilityMode) -> (Vec<Vec<Bytes>>, usize, u64) {
    crash_restart_run_with(mode, DisseminationMode::Star, 8)
}

fn crash_restart_run_with(
    mode: DurabilityMode,
    dissemination: DisseminationMode,
    window: usize,
) -> (Vec<Vec<Bytes>>, usize, u64) {
    let cfg = AcuerdoConfig {
        retain_log: true,
        durability: mode,
        dissemination,
        ..AcuerdoConfig::stable(5)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<acuerdo::AcuerdoNode>(7, &cfg, window, 32, Duration::ZERO);
    acuerdo::enable_restarts(&mut sim, &cfg, &ids);
    // Inert retransmit: the leader never crashes in this schedule, so no
    // request reaches it twice.
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(100));
    sim.crash_at(2, SimTime::from_millis(10));
    sim.restart_at(2, SimTime::from_millis(15));
    sim.run_until(SimTime::from_millis(50));
    check_cluster::<acuerdo::AcuerdoNode>(&sim, &ids).expect("abcast safety");
    let hs = acuerdo::histories(&sim, &ids);
    assert_eq!(hs.len(), 5, "everyone is live at the horizon");
    let recovered_len = hs[2].len();
    // Within-run: the restarted replica's history, headers and payloads, is
    // a prefix of its leader's (replica 0 leads throughout).
    assert_eq!(
        &hs[0][..recovered_len],
        &hs[2][..],
        "restarted replica diverged from its leader's prefix"
    );
    let wal_records = sim.counter(2, Counter::WalRecoveredRecords);
    let payloads = hs
        .into_iter()
        .map(|h| h.into_iter().map(|(_, p)| p).collect())
        .collect();
    (payloads, recovered_len, wal_records)
}

/// Satellite: a replica recovered from its durable log must converge to its
/// own run's leader byte for byte (`crash_restart_run_with`), and to the
/// state a fresh-state rejoiner (volatile mode, re-seeded by the leader's
/// retained log) reaches on the same seed. Across the two modes only the
/// set of payloads is comparable, not their order: fsync charges shift the
/// durable leader's clock, and a held node can dispatch two client
/// requests in the opposite order to their arrival (Cpu-class FIFO holds
/// at delivery, not at dispatch to a held node; DESIGN §11). At seed 7 the
/// durable leader ingests id 7904 before 7903, which the client sent 50 ns
/// earlier. So over their common prefix the two modes must deliver the same
/// payloads, each once.
#[test]
fn acuerdo_recovery_equivalence_durable_vs_fresh_rejoin() {
    let (durable, durable_len, durable_wal) = crash_restart_run(DurabilityMode::Durable);
    let (fresh, fresh_len, fresh_wal) = crash_restart_run(DurabilityMode::Volatile);
    assert!(durable_wal > 0, "durable restart must replay its WAL");
    assert_eq!(fresh_wal, 0, "volatile restart must not touch a WAL");
    assert!(
        durable_len > 100 && fresh_len > 100,
        "recovered replica re-delivered too little (durable {durable_len}, fresh {fresh_len})"
    );
    let k = durable[2].len().min(fresh[2].len());
    assert!(k > 100, "common prefix too short to be meaningful ({k})");
    fn sorted(h: &[Bytes]) -> Vec<&[u8]> {
        let mut v: Vec<&[u8]> = h.iter().map(|p| p.as_ref()).collect();
        v.sort_unstable();
        v
    }
    let (d, f) = (sorted(&durable[2][..k]), sorted(&fresh[2][..k]));
    assert!(
        d.windows(2).all(|w| w[0] != w[1]),
        "a payload delivered twice"
    );
    assert_eq!(
        d, f,
        "durable recovery and fresh rejoin delivered different payloads"
    );
}

/// Ring-mode recovery equivalence: the crashed replica sits on an arm, so
/// its rejoin happens while frames reach it hop-by-hop (and, transiently,
/// via the leader's star fallback bridging the dead segment). The WAL-replay
/// path and the fresh-state rejoin path must still converge to a
/// byte-identical delivered payload prefix — recovery must not observe
/// *which* lane re-fed the replica.
///
/// Window 1 pins the client's submission order exactly: with multiple slots
/// in flight the client refills completed slots a delivery batch at a time,
/// and the ring's bursty commit cadence makes batch composition — hence
/// the submitted id sequence — sensitive to the fsync charges that differ
/// across durability modes. One outstanding request removes that freedom,
/// so any prefix mismatch here is a real recovery divergence.
#[test]
fn acuerdo_ring_recovery_equivalence_durable_vs_fresh_rejoin() {
    let (durable, durable_len, durable_wal) =
        crash_restart_run_with(DurabilityMode::Durable, DisseminationMode::Ring, 1);
    let (fresh, fresh_len, fresh_wal) =
        crash_restart_run_with(DurabilityMode::Volatile, DisseminationMode::Ring, 1);
    assert!(durable_wal > 0, "durable restart must replay its WAL");
    assert_eq!(fresh_wal, 0, "volatile restart must not touch a WAL");
    assert!(
        durable_len > 100 && fresh_len > 100,
        "recovered replica re-delivered too little (durable {durable_len}, fresh {fresh_len})"
    );
    let k = durable[2].len().min(fresh[2].len());
    assert!(k > 100, "common prefix too short to be meaningful ({k})");
    assert_eq!(
        &durable[2][..k],
        &fresh[2][..k],
        "ring-mode durable recovery and fresh rejoin delivered different payload sequences"
    );
}

/// Negative control: wipe half of every replica's persisted records behind
/// the cluster's back during a whole-cluster power failure. The recovered
/// cluster restarts from shorter logs, so the committed prefix the auditor
/// ratcheted before the failure can no longer be covered — `observe` at the
/// horizon MUST report the loss.
#[test]
fn corrupted_log_tail_is_reported_as_committed_entry_loss() {
    let cfg = AcuerdoConfig {
        retain_log: true,
        durability: DurabilityMode::Durable,
        ..AcuerdoConfig::stable(5)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<acuerdo::AcuerdoNode>(11, &cfg, 8, 32, Duration::ZERO);
    acuerdo::enable_restarts(&mut sim, &cfg, &ids);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(1));
    sim.run_until(SimTime::from_millis(15));

    let mut auditor = DurabilityAuditor::new();
    let pre = acuerdo::histories(&sim, &ids);
    let committed = pre.iter().map(Vec::len).max().unwrap_or(0);
    assert!(
        committed > 200,
        "need a substantial committed prefix ({committed})"
    );
    auditor.observe(&pre).expect("clean before the fault");

    sim.power_failure(&ids);
    for &id in &ids {
        let disk = sim.disk_mut(id);
        let keep = disk.synced_records().len() / 2;
        let drop = disk.synced_records().len() - keep;
        assert!(drop > 0, "tampering must remove something");
        disk.corrupt_drop_tail(drop);
    }
    let t = sim.now() + Duration::from_millis(2);
    for &id in &ids {
        sim.restart_at(id, t);
    }
    sim.run_until(SimTime::from_millis(50));

    let verdict = auditor.observe(&acuerdo::histories(&sim, &ids));
    match verdict {
        Err(Violation::CommittedEntryLost { committed_len, .. }) => {
            assert_eq!(
                committed_len, committed,
                "auditor tracked the ratcheted prefix"
            );
        }
        other => panic!("tampered logs must be caught, got {other:?}"),
    }
}
