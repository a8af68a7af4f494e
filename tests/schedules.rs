//! Systematic schedule exploration: instead of sampling random fault
//! schedules (tests/properties.rs), sweep a grid of fault times and victims
//! so every phase of the protocol gets hit — mid-broadcast, mid-commit,
//! mid-election, during catch-up. Every run must satisfy the §2.2
//! properties.

use acuerdo_repro::abcast::{check_cluster, cluster_with_client, WindowClient};
use acuerdo_repro::acuerdo::{self, AcWire, AcuerdoConfig, AcuerdoNode};
use acuerdo_repro::simnet::{Counter, SimTime};
use std::time::Duration;

fn cfg3() -> AcuerdoConfig {
    AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(3)
    }
}

#[test]
fn crash_grid_every_victim_every_phase() {
    // Crash each replica at 250 µs steps across the first 3 ms of a loaded
    // run: this lands crashes during ring fills, SST pushes, commits, and
    // (for repeated leaders) during diff transfers.
    for victim in 0..3usize {
        for step in 1..=12u64 {
            let at = SimTime::from_nanos(step * 250_000);
            let (mut sim, ids, client) =
                cluster_with_client::<AcuerdoNode>(1_000 + step, &cfg3(), 16, 10, Duration::ZERO);
            sim.node_mut::<WindowClient<AcWire>>(client).retransmit =
                Some(Duration::from_millis(2));
            sim.crash_at(victim, at);
            sim.run_until(SimTime::from_millis(12));
            check_cluster::<AcuerdoNode>(&sim, &ids).unwrap_or_else(|v| {
                panic!("victim {victim} at {at}: {v:?}");
            });
            // With a follower crashed the quorum keeps going; with the
            // leader crashed an election must have happened.
            if victim != 0 {
                let delivered = sim.counter(0, Counter::Commits);
                assert!(
                    delivered > 100,
                    "victim {victim} at {at}: quorum stalled ({delivered} delivered)"
                );
            }
        }
    }
}

#[test]
fn pause_grid_leader_during_every_phase() {
    // Deschedule (don't crash) the leader at each step; it must always
    // rejoin the new epoch as a follower and the cluster must stay
    // consistent.
    for step in 1..=8u64 {
        let at = SimTime::from_nanos(step * 300_000);
        let (mut sim, ids, client) =
            cluster_with_client::<AcuerdoNode>(2_000 + step, &cfg3(), 8, 10, Duration::ZERO);
        sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
        sim.pause_at(0, at, Duration::from_millis(3));
        sim.run_until(SimTime::from_millis(15));
        check_cluster::<AcuerdoNode>(&sim, &ids).unwrap_or_else(|v| panic!("pause at {at}: {v:?}"));
        let old = sim.node::<AcuerdoNode>(0);
        let e1 = sim.node::<AcuerdoNode>(1).epoch();
        assert_eq!(
            old.epoch(),
            e1,
            "pause at {at}: old leader stuck in old epoch"
        );
    }
}

#[test]
fn double_fault_grid_five_replicas() {
    // Two crashes at staggered offsets on a 5-replica group (f = 2): all
    // combinations of (first victim, gap) with the second victim chosen as
    // whoever leads afterwards.
    for first in [0usize, 2, 4] {
        for gap_ms in [2u64, 5] {
            let cfg = AcuerdoConfig {
                fail_timeout: Duration::from_micros(400),
                ..AcuerdoConfig::stable(5)
            };
            let (mut sim, ids, client) = cluster_with_client::<AcuerdoNode>(
                3_000 + first as u64,
                &cfg,
                8,
                10,
                Duration::ZERO,
            );
            sim.node_mut::<WindowClient<AcWire>>(client).retransmit =
                Some(Duration::from_millis(2));
            sim.crash_at(first, SimTime::from_millis(1));
            sim.run_until(SimTime::from_millis(1 + gap_ms));
            // Crash whichever node leads now (exercises back-to-back
            // elections when the first victim was the leader).
            let second = acuerdo::current_leader(&sim, &ids).unwrap_or((first + 1) % 5);
            if second != first {
                sim.crash(second);
            }
            sim.run_until(SimTime::from_millis(25));
            if let Some(leader) = acuerdo::current_leader(&sim, &ids) {
                sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![leader];
            }
            sim.run_until(SimTime::from_millis(40));
            check_cluster::<AcuerdoNode>(&sim, &ids).unwrap_or_else(|v| {
                panic!("first {first}, gap {gap_ms}ms, second {second}: {v:?}")
            });
            let survivor = ids
                .iter()
                .find(|&&id| !sim.is_crashed(id))
                .copied()
                .expect("3 survivors");
            assert!(
                sim.counter(survivor, Counter::Commits) > 0,
                "no progress with 3-of-5"
            );
        }
    }
}

#[test]
fn transient_link_delay_grid() {
    // Sweep transient one-way delays over every leader→follower link at
    // several magnitudes; the quorum path must keep the run consistent and
    // the cluster must never elect spuriously (delays are below the fail
    // timeout's effect because SST heartbeats keep flowing).
    for dst in 1..3usize {
        for delay_us in [50u64, 150, 400] {
            let (mut sim, ids, _client) = cluster_with_client::<AcuerdoNode>(
                4_000 + delay_us,
                &cfg3(),
                8,
                10,
                Duration::ZERO,
            );
            sim.add_link_latency(
                0,
                dst,
                Duration::from_micros(delay_us),
                SimTime::from_millis(6),
            );
            sim.run_until(SimTime::from_millis(12));
            check_cluster::<AcuerdoNode>(&sim, &ids)
                .unwrap_or_else(|v| panic!("dst {dst}, delay {delay_us}us: {v:?}"));
            for &id in &ids {
                assert_eq!(
                    sim.counter(id, Counter::ElectionsWon),
                    0,
                    "dst {dst}, delay {delay_us}us: spurious election"
                );
            }
        }
    }
}
