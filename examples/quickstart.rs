//! Quickstart: a 3-replica Acuerdo group committing client messages.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the cluster inside the deterministic simulator, drives 500
//! broadcasts through a closed-loop client, verifies the atomic-broadcast
//! properties, and prints per-message latency statistics.

use acuerdo_repro::abcast::{check_cluster, cluster_with_client, WindowClient};
use acuerdo_repro::acuerdo::{current_leader, AcWire, AcuerdoConfig, AcuerdoNode};
use acuerdo_repro::simnet::Counter;
use std::time::Duration;

fn main() {
    // Three replicas (tolerating one crash fault), booted into a stable
    // epoch led by replica 0, plus a window-8 client.
    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, replicas, client) = cluster_with_client::<AcuerdoNode>(
        /*seed*/ 1,
        &cfg,
        /*window*/ 8,
        /*payload*/ 10,
        Duration::ZERO,
    );

    // Stop after 500 committed-and-acknowledged messages.
    while sim.node::<WindowClient<AcWire>>(client).result().completed < 500 && sim.step() {}

    let leader = current_leader(&sim, &replicas).expect("a unique leader");
    println!(
        "leader: replica {leader}, epoch {:?}",
        sim.node::<AcuerdoNode>(leader).epoch()
    );

    let result = sim.node::<WindowClient<AcWire>>(client).result();
    println!("committed messages : {}", result.completed);
    println!("mean commit latency: {:.2} us", result.latency.mean_us());
    println!("p99  commit latency: {:.2} us", result.latency.p99_us());
    println!("throughput         : {:.0} msgs/s", result.msgs_per_sec());

    // Every replica delivered the same totally-ordered prefix.
    check_cluster::<AcuerdoNode>(&sim, &replicas).expect("Integrity, No-Duplication, Total Order");
    for &r in &replicas {
        println!(
            "replica {r}: delivered {} messages, committed through {:?}",
            sim.counter(r, Counter::Commits),
            sim.node::<AcuerdoNode>(r).committed()
        );
    }
    println!("atomic-broadcast properties verified across all replicas");
}
