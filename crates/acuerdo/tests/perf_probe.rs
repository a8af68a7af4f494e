//! Performance-envelope probes for the Acuerdo implementation.
//!
//! These are correctness tests over the *shape* of the performance model:
//! low-load latency near the paper's ~10 µs, saturation near the calibrated
//! ~300 k msgs/s for 3 nodes / 10-byte messages, and failover behaviour.
//! Run with `--nocapture` to see the measured numbers.

use abcast::{check_cluster, cluster_with_client, WindowClient};
use acuerdo::{current_leader, AcWire, AcuerdoConfig, AcuerdoNode};
use simnet::{Counter, SimTime};
use std::time::Duration;

fn run_point(n: usize, window: usize, payload: usize, ms: u64) -> (f64, f64) {
    let cfg = AcuerdoConfig::stable(n);
    let (mut sim, ids, client) =
        cluster_with_client::<AcuerdoNode>(42, &cfg, window, payload, Duration::from_millis(2));
    sim.run_until(SimTime::from_millis(ms));
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
    let r = sim.node::<WindowClient<AcWire>>(client).result();
    (r.msgs_per_sec(), r.latency.mean_us())
}

#[test]
fn low_load_latency_is_near_ten_microseconds() {
    let (tput, lat) = run_point(3, 1, 10, 10);
    println!("3 nodes / 10B / window 1: {tput:.0} msg/s, {lat:.2} us");
    assert!(lat < 15.0, "latency {lat}us too high");
    assert!(lat > 3.0, "latency {lat}us implausibly low");
}

#[test]
fn saturation_throughput_matches_calibration() {
    let (tput, lat) = run_point(3, 4096, 10, 30);
    println!("3 nodes / 10B / window 4096: {tput:.0} msg/s, {lat:.2} us");
    // Calibrated knee: ~300 k msgs/s (≈3 MB/s of 10-byte payloads).
    assert!(tput > 150_000.0, "throughput {tput} too low");
    assert!(
        lat > 100.0,
        "saturated latency should show queueing, got {lat}"
    );
}

#[test]
fn knee_appears_as_window_grows() {
    let mut rows = Vec::new();
    for w in [1usize, 4, 16, 64, 256, 1024, 4096] {
        let (tput, lat) = run_point(3, w, 10, 20);
        rows.push((w, tput, lat));
    }
    for (w, t, l) in &rows {
        println!("window {w:5}: {t:10.0} msg/s  {l:8.2} us");
    }
    // Throughput grows with window, then flattens (it may sag again once a
    // huge window overruns the rings); latency at the largest window is much
    // worse than at window 1 (the knee).
    let peak = rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
    assert!(rows[1].1 > rows[0].1 * 1.5);
    assert!(peak > rows[0].1 * 3.0);
    assert!(rows.last().unwrap().2 > rows[0].2 * 5.0);
}

#[test]
fn leader_crash_triggers_election_and_no_divergence() {
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(300),
        ..AcuerdoConfig::stable(3)
    };
    let (mut sim, ids, client) = cluster_with_client::<AcuerdoNode>(5, &cfg, 8, 10, Duration::ZERO);
    // Give the client a retransmit path so progress resumes post-failover.
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));
    sim.run_until(SimTime::from_millis(3));
    let before = sim.counter(1, Counter::Commits);
    assert!(before > 0);
    sim.crash(0);
    sim.run_until(SimTime::from_millis(20));
    let leader = current_leader(&sim, &ids).expect("new leader elected");
    assert_ne!(leader, 0);
    // Repoint the client and confirm the new epoch makes progress.
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![leader];
    sim.run_until(SimTime::from_millis(40));
    let after = sim.counter(leader, Counter::Commits);
    println!("delivered before crash: {before}, after failover: {after}");
    assert!(after > before, "no progress after failover");
    check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
    let spans = &sim.node::<AcuerdoNode>(leader).election_spans;
    assert_eq!(spans.len(), 1);
    let dur = spans[0].1.saturating_since(spans[0].0);
    println!("election duration: {:.3} ms", dur.as_secs_f64() * 1e3);
    assert!(dur < Duration::from_millis(5), "election took {dur:?}");
}

#[test]
fn slow_follower_does_not_slow_the_quorum() {
    // Paper's central claim: run at the speed of the fastest quorum. A
    // descheduled follower must not hurt client latency.
    let mk = |slow: bool| {
        let cfg = AcuerdoConfig::stable(3);
        let (mut sim, ids, client) =
            cluster_with_client::<AcuerdoNode>(11, &cfg, 8, 10, Duration::from_millis(2));
        if slow {
            sim.set_desched(
                2,
                simnet::DeschedProfile {
                    mean_interval: Duration::from_micros(300),
                    min_pause: Duration::from_micros(100),
                    max_pause: Duration::from_micros(200),
                },
            );
        }
        sim.run_until(SimTime::from_millis(15));
        check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
        sim.node::<WindowClient<AcWire>>(client).result()
    };
    let fast = mk(false);
    let slow = mk(true);
    println!(
        "fast-cluster mean {:.2}us vs slow-follower mean {:.2}us",
        fast.latency.mean_us(),
        slow.latency.mean_us()
    );
    // Latency with one slow follower stays within 50% of the clean run.
    assert!(slow.latency.mean_us() < fast.latency.mean_us() * 1.5);
}
