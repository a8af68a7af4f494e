//! Property-based tests over the §2.2 atomic-broadcast properties.
//!
//! Random seeds, loads, payload sizes, and fault schedules; the invariant is
//! always the same: every live replica delivers a prefix of one common
//! total order, with no duplicates and no invented messages.

use acuerdo_repro::abcast::{self, cluster_with_client, WindowClient};
use acuerdo_repro::acuerdo::{self, AcWire, AcuerdoConfig};
use acuerdo_repro::simnet::SimTime;
use proptest::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

fn run_acuerdo(
    seed: u64,
    n: usize,
    window: usize,
    payload: usize,
    crash_at_ms: Option<(usize, u64)>,
    ms: u64,
) -> Result<(), TestCaseError> {
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(n)
    };
    let (mut sim, ids, client) =
        cluster_with_client::<acuerdo::AcuerdoNode>(seed, &cfg, window, payload, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
    if let Some((victim, at)) = crash_at_ms {
        sim.crash_at(victim, SimTime::from_millis(at));
    }
    sim.run_until(SimTime::from_millis(ms));

    // If a follower (not the leader) crashed, progress must continue; if the
    // leader crashed the client keeps aiming at it, so we only check safety.
    let histories = acuerdo::histories(&sim, &ids);
    // Integrity: payloads embed the client request id; every delivered
    // payload must decode to an id the client actually allocated.
    let sent: HashSet<bytes::Bytes> = (0..1_000_000u64)
        .take_while(|&i| i < sim.node::<WindowClient<AcWire>>(client).total_sent_upper())
        .map(|i| abcast::workload::payload(i, payload))
        .collect();
    abcast::check_histories(&histories, Some(&sent))
        .map_err(|v| TestCaseError::fail(format!("violation: {v:?}")))?;
    Ok(())
}

/// Test-only view of how many ids the client may have used.
trait SentUpper {
    fn total_sent_upper(&self) -> u64;
}
impl SentUpper for WindowClient<AcWire> {
    fn total_sent_upper(&self) -> u64 {
        // ids are allocated sequentially; total_completed + in-flight bounds
        // the universe tightly enough for integrity checking.
        self.total_completed + self.in_flight() as u64 + 64
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    #[test]
    fn stable_runs_satisfy_atomic_broadcast(
        seed in 0u64..10_000,
        window in 1usize..64,
        payload in prop_oneof![Just(1usize), Just(10), Just(100), Just(1000)],
    ) {
        run_acuerdo(seed, 3, window, payload, None, 8)?;
    }

    #[test]
    fn follower_crash_preserves_properties(
        seed in 0u64..10_000,
        victim in 1usize..3,
        at in 1u64..5,
    ) {
        run_acuerdo(seed, 3, 8, 10, Some((victim, at)), 12)?;
    }

    #[test]
    fn leader_crash_preserves_properties(
        seed in 0u64..10_000,
        at in 1u64..5,
    ) {
        run_acuerdo(seed, 3, 8, 10, Some((0, at)), 15)?;
    }

    #[test]
    fn five_replicas_random_crash(
        seed in 0u64..10_000,
        victim in 0usize..5,
        at in 1u64..6,
    ) {
        run_acuerdo(seed, 5, 16, 10, Some((victim, at)), 15)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    /// The checker itself: random mutations of a valid history set must be
    /// caught (meta-test of the §2.2 oracle).
    #[test]
    fn checker_catches_random_mutations(
        len in 3usize..40,
        node in 0usize..3,
        pos_frac in 0.0f64..1.0,
        kind in 0u8..3,
    ) {
        use acuerdo_repro::abcast::{check_histories, Epoch, MsgHdr};
        use bytes::Bytes;
        let mk = |c: u32| (MsgHdr::new(Epoch::new(1, 0), c), abcast::workload::payload(u64::from(c), 10));
        let base: Vec<_> = (1..=len as u32).map(mk).collect();
        let mut hs = vec![base.clone(), base.clone(), base];
        let pos = ((len as f64 * pos_frac) as usize).min(len - 1);
        match kind {
            0 => { // duplicate an entry
                let e = hs[node][pos].clone();
                hs[node].push(e);
            }
            1 => { // divergent payload
                hs[node][pos].1 = Bytes::from_static(b"mutated!!!");
            }
            _ => { // gap: drop a middle entry (only meaningful if not a suffix)
                if pos + 1 >= hs[node].len() {
                    // dropping the last element is a legal prefix; skip
                    return Ok(());
                }
                hs[node].remove(pos);
            }
        }
        prop_assert!(check_histories(&hs, None).is_err(), "mutation not caught");
    }
}
