//! Property-based tests on the dissemination path (contiguity gate, one-hop
//! forwards, star fallback): for either route, any small cluster, client
//! load, and crash/restart schedule, every replica's delivery history must
//! show
//!
//! * **no double delivery** — a header is delivered at most once, even when
//!   the forwarded copy and a star-fallback copy of the same frame race,
//! * **no skipped origin-slot sequence** — within an epoch the delivered
//!   counts are gapless and ascending from 1 (the contiguity gate never
//!   lets a later slot slip past a missing one),
//! * **per-origin FIFO across fallback and resume** — frames originated by
//!   one proposer slot are delivered in origin order even when the leader
//!   bridges a dead arm segment star-style mid-stream and later hands
//!   back to the healed arm.
//!
//! The schedules deliberately crash a forwarder — mid-arm, or the head of
//! the counter-clockwise arm — with a short fail timeout so most ring cases
//! actually engage the fallback/resume path rather than testing the
//! fault-free ring over and over. At 8192 B an entry travels the arms as
//! two segments, cut through hop by hop, so a forwarder can die between
//! two segments and whole fallback copies race segmented ones; 6000 B is
//! one segment short of that and stays whole. The properties hold per
//! entry. The star route runs the same schedules
//! through the same code with nothing to forward, nobody to fall back for
//! and nothing left parked; up to three nodes the two routes are one
//! execution.
//!
//! The topology itself ([`ring_route`]) is checked as a pure function over
//! every ring size the scale sweep can reach.

use abcast::{check_cluster, cluster_with_client, MsgHdr};
use acuerdo::{ring_route, AcuerdoConfig, DisseminationMode};
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
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn ring_forwarding_never_dups_skips_or_reorders(
        seed in 0u64..1_000_000,
        n in 3usize..=6,
        payload in prop_oneof![Just(8usize), Just(64), Just(512), Just(6000), Just(8192)],
        crash_pick in 0usize..=3,
        restart in any::<bool>(),
        depth in 1usize..=8,
        ring in any::<bool>(),
    ) {
        // A short fail timeout makes the leader bridge the dead segment
        // quickly, so the fallback/resume path runs inside the horizon. The
        // pipeline depth ranges down to 1 (fully serialized forwarding) so a
        // shallow window cannot hide a contiguity bug behind backpressure.
        let mode = if ring { DisseminationMode::Ring } else { DisseminationMode::Star };
        let cfg = AcuerdoConfig {
            dissemination: mode,
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
        // Crash a forwarder (never the initial leader): frames can be
        // mid-forward on both sides of it when it dies. Picks 0..=2 walk the
        // clockwise arm from its head; pick 3 is the leader's predecessor,
        // the head of the counter-clockwise arm.
        let victim = if crash_pick == 3 { n - 1 } else { 1 + crash_pick % (n - 1) };
        let crash_at = SimTime::from_micros(1_500 + 375 * (seed % 4));
        sim.crash_at(victim, crash_at);
        if restart {
            sim.restart_at(victim, crash_at + Duration::from_millis(2));
        }
        sim.run_until(SimTime::from_millis(8));

        let case = format!(
            "{} seed {seed} n={n} payload={payload} depth={depth} victim={victim} restart={restart}",
            mode.name()
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
        // The schedule is built to exercise the arms: forwards must happen
        // (from four nodes up — at three both arms are one node long and
        // nothing forwards), and the crash must have pushed the leader into
        // fallback for every node it left beyond the leader's direct reach:
        // the victim itself unless it heads an arm, and whoever it fed.
        // A star has no arms to exercise: nothing forwards, nobody needs
        // fallback, and with one FIFO lane per follower nothing stays parked.
        if ring && n >= 4 {
            prop_assert!(sim.metrics().total(Counter::RingForwards) > 0, "{}: ring never forwarded", case);
        } else {
            prop_assert_eq!(sim.metrics().total(Counter::RingForwards), 0, "{}: forward without an arm", case);
        }
        if !ring {
            prop_assert_eq!(sim.metrics().total(Counter::RingFallbackSends), 0, "{}: fallback in a star", case);
            for &id in ids.iter().filter(|&&id| !sim.is_crashed(id)) {
                let parked = sim.node::<acuerdo::AcuerdoNode>(id).parked_len();
                prop_assert_eq!(parked, 0, "{}: replica {} left frames parked", case, id);
            }
        } else if mode.route(n, 0, victim) != DisseminationMode::Star.route(n, 0, victim) {
            prop_assert!(
                sim.metrics().total(Counter::RingFallbackSends) > 0,
                "{}: crash of forwarder {} never engaged star fallback",
                case,
                victim
            );
        }
    }
}

#[test]
fn ring_and_star_are_one_execution_up_to_three_nodes() {
    // `ring_route` gives every follower of a ring of at most three the
    // leader as its upstream, and everything the node decides by topology
    // it decides from the route: under one crash/restart schedule the two
    // modes must leave the same trace and the same histories.
    let run = |mode, n: usize, seed: u64| {
        let cfg = AcuerdoConfig {
            dissemination: mode,
            retain_log: true,
            fail_timeout: Duration::from_micros(300),
            ..AcuerdoConfig::stable(n)
        };
        let (mut sim, ids, _client) =
            cluster_with_client::<acuerdo::AcuerdoNode>(seed, &cfg, 8, 64, Duration::ZERO);
        acuerdo::enable_restarts(&mut sim, &cfg, &ids);
        sim.set_tracing(true);
        // A follower reboots mid-epoch, then the leader dies and comes back
        // into the epoch its successor opened (at n = 2 there is no
        // successor: the survivor waits for the quorum to return).
        sim.crash_at(n - 1, SimTime::from_micros(1_000));
        sim.restart_at(n - 1, SimTime::from_micros(1_400));
        sim.crash_at(0, SimTime::from_micros(3_000));
        sim.restart_at(0, SimTime::from_micros(4_500));
        sim.run_until(SimTime::from_millis(8));
        (sim.take_trace(), acuerdo::histories(&sim, &ids))
    };
    for n in 2..=3 {
        for seed in [3, 15] {
            let star = run(DisseminationMode::Star, n, seed);
            let ring = run(DisseminationMode::Ring, n, seed);
            assert!(star.1.iter().any(|h| h.len() > 100), "n={n}: too thin");
            assert_eq!(star.1, ring.1, "n={n} seed {seed}: histories");
            assert!(star.0 == ring.0, "n={n} seed {seed}: traces");
        }
    }
}

proptest! {
    #[test]
    fn ring_route_reaches_every_follower_once_over_two_balanced_arms(
        n in 2usize..=65,
        origin_pick in 0usize..65,
    ) {
        let origin = origin_pick % n;
        prop_assert_eq!(ring_route(n, origin, origin).downstream, None);
        // Walk each arm from its head (a follower whose upstream is the
        // origin) to its end, counting hops.
        let heads: Vec<usize> = (0..n)
            .filter(|&i| i != origin && ring_route(n, origin, i).upstream == origin)
            .collect();
        prop_assert_eq!(heads.len(), (n - 1).min(2), "n={} origin={}", n, origin);
        let mut reached = vec![0u32; n];
        let mut arm_lens = Vec::new();
        for &head in &heads {
            let (mut at, mut depth) = (head, 1usize);
            reached[at] += 1;
            while let Some(next) = ring_route(n, origin, at).downstream {
                prop_assert_eq!(ring_route(n, origin, next).upstream, at, "upstream(downstream({})) at n={}", at, n);
                prop_assert!(next != origin, "arm runs back into the origin at n={}", n);
                at = next;
                depth += 1;
                reached[at] += 1;
                prop_assert!(depth < n, "arm does not end at n={}", n);
            }
            arm_lens.push(depth);
        }
        for (i, &hits) in reached.iter().enumerate() {
            prop_assert_eq!(hits, u32::from(i != origin), "n={} origin={} node {}", n, origin, i);
        }
        let longest = arm_lens.iter().copied().max().unwrap_or(0);
        let shortest = arm_lens.iter().copied().min().unwrap_or(0);
        prop_assert!(longest - shortest <= 1, "arms {:?} at n={}", arm_lens, n);
        prop_assert!(longest <= n / 2, "depth {} over ceil((n-1)/2) at n={}", longest, n);
    }
}
