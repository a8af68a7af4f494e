//! Property-based tests on the ring-dissemination forwarding layer: for any
//! small cluster, client load, and crash/restart schedule, every replica's
//! delivery history must show
//!
//! * **no double delivery** — a header is delivered at most once, even when
//!   the chain copy and a star-fallback copy of the same frame race,
//! * **no skipped origin-slot sequence** — within an epoch the delivered
//!   counts are gapless and ascending from 1 (the contiguity gate never
//!   lets a later slot slip past a missing one),
//! * **per-origin FIFO across fallback and resume** — frames originated by
//!   one proposer slot are delivered in origin order even when the leader
//!   bridges a dead chain segment star-style mid-stream and later hands
//!   back to the healed chain.
//!
//! The schedules deliberately crash a mid-chain replica with a short fail
//! timeout so most cases actually engage the fallback/resume path rather
//! than testing the fault-free chain over and over.

use abcast::{check_cluster, cluster_with_client, MsgHdr};
use acuerdo::{AcuerdoConfig, DisseminationMode};
use proptest::prelude::*;
use simnet::{Counter, SimTime};
use std::collections::BTreeMap;
use std::time::Duration;

/// Assert the three forwarding-layer properties on one delivery history.
fn check_history(case: &str, replica: usize, h: &[(MsgHdr, bytes::Bytes)]) {
    // Per-epoch delivered counts, in delivery order.
    let mut by_epoch: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
    for (hdr, _) in h {
        by_epoch
            .entry((hdr.epoch.round, hdr.epoch.ldr))
            .or_default()
            .push(hdr.cnt);
    }
    for ((round, origin), cnts) in &by_epoch {
        for w in cnts.windows(2) {
            // Ascending and strictly increasing: rules out double delivery
            // and any FIFO inversion within the origin slot in one shot.
            assert!(
                w[1] > w[0],
                "{case}: replica {replica} epoch ({round},{origin}) delivered \
                 cnt {} after {} (double delivery or origin-order inversion)",
                w[1],
                w[0]
            );
        }
        // Gapless from 1: the contiguity gate must never skip a slot.
        for (i, &c) in cnts.iter().enumerate() {
            assert_eq!(
                c,
                (i + 1) as u32,
                "{case}: replica {replica} epoch ({round},{origin}) has a hole \
                 in its delivered sequence {cnts:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    #[test]
    fn ring_forwarding_never_dups_skips_or_reorders(
        seed in 0u64..1_000_000,
        n in 3usize..=6,
        payload in prop_oneof![Just(8usize), Just(64), Just(512)],
        crash_frac in 0u64..=2,
        restart in any::<bool>(),
        depth in 1usize..=8,
    ) {
        // A short fail timeout makes the leader bridge the dead segment
        // quickly, so the fallback/resume path runs inside the horizon. The
        // pipeline depth ranges down to 1 (fully serialized forwarding) so a
        // shallow window cannot hide a contiguity bug behind backpressure.
        let cfg = AcuerdoConfig {
            dissemination: DisseminationMode::Ring,
            ring_pipeline_depth: depth,
            retain_log: true,
            fail_timeout: Duration::from_micros(300),
            ..AcuerdoConfig::stable(n)
        };
        let (mut sim, ids, _client) =
            cluster_with_client::<acuerdo::AcuerdoNode>(seed, &cfg, 4, payload, Duration::ZERO);
        if restart {
            acuerdo::enable_restarts(&mut sim, &cfg, &ids);
        }
        // Crash a mid-chain forwarder (never the initial leader): frames can
        // be mid-forward on both sides of it when it dies.
        let victim = 1 + (crash_frac as usize) % (n - 1);
        let crash_at = SimTime::from_micros(1_500 + 375 * (seed % 4));
        sim.crash_at(victim, crash_at);
        if restart {
            sim.restart_at(victim, crash_at + Duration::from_millis(2));
        }
        sim.run_until(SimTime::from_millis(8));

        let case = format!(
            "seed {seed} n={n} payload={payload} depth={depth} victim={victim} restart={restart}"
        );
        check_cluster::<acuerdo::AcuerdoNode>(&sim, &ids)
            .unwrap_or_else(|e| panic!("{case}: cluster check failed: {e:?}"));
        let hs = acuerdo::histories(&sim, &ids);
        let longest = hs.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert!(longest > 0, "{} delivered nothing anywhere", case);
        for (i, h) in hs.iter().enumerate() {
            if i == victim && !restart {
                continue; // stayed dead; its truncated history was checked above
            }
            check_history(&case, i, h);
        }
        // The schedule is built to exercise the chain: forwards must happen,
        // and a crashed forwarder must have pushed the leader into fallback.
        prop_assert!(sim.metrics().total(Counter::RingForwards) > 0, "{}: chain never forwarded", case);
        prop_assert!(
            sim.metrics().total(Counter::RingFallbackSends) > 0,
            "{}: crash of forwarder {} never engaged star fallback",
            case,
            victim
        );
    }
}
