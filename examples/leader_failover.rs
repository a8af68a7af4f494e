//! Leader failure and Acuerdo's up-to-date election (§3.3–3.4).
//!
//! ```text
//! cargo run --release --example leader_failover
//! ```
//!
//! Crashes the leader mid-stream. The remaining replicas elect an
//! *up-to-date* leader through the Vote SST — no post-election state
//! transfer — and the new leader opens its epoch with a diff message. The
//! example prints the measured downtime (suspicion → diffs transferred) and
//! verifies no committed message was lost.

use acuerdo_repro::abcast::{check_cluster, cluster_with_client, WindowClient};
use acuerdo_repro::acuerdo::{current_leader, AcWire, AcuerdoConfig, AcuerdoNode};
use acuerdo_repro::simnet::{Counter, SimTime};
use std::time::Duration;

fn main() {
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(5)
    };
    let (mut sim, replicas, client) =
        cluster_with_client::<AcuerdoNode>(21, &cfg, 16, 10, Duration::ZERO);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));

    // Phase 1: normal broadcast.
    sim.run_until(SimTime::from_millis(5));
    let old_leader = current_leader(&sim, &replicas).expect("initial leader");
    let committed_before = sim.counter(1, Counter::Commits);
    println!("phase 1: leader {old_leader} committed {committed_before} messages");

    // Phase 2: kill the leader.
    println!("phase 2: crashing leader {old_leader} at t = {}", sim.now());
    sim.crash(old_leader);
    sim.run_until(SimTime::from_millis(15));

    let new_leader = current_leader(&sim, &replicas).expect("a new leader");
    let node = sim.node::<AcuerdoNode>(new_leader);
    println!(
        "phase 3: replica {new_leader} won epoch {:?} ({} election span(s) recorded)",
        node.epoch(),
        node.election_spans.len()
    );
    for (detected, ready) in &node.election_spans {
        println!(
            "  suspicion at {detected}, diffs transferred by {ready} -> downtime {:.3} ms",
            ready.saturating_since(*detected).as_secs_f64() * 1e3
        );
    }

    // Phase 3: client repoints (its retransmit path replays in-flight ids).
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![new_leader];
    sim.run_until(SimTime::from_millis(40));

    let committed_after = sim.counter(new_leader, Counter::Commits);
    println!("phase 4: new epoch committed up to {committed_after} deliveries");
    assert!(
        committed_after > committed_before,
        "no post-failover progress"
    );

    // Nothing committed was lost; all live replicas agree on one order.
    check_cluster::<AcuerdoNode>(&sim, &replicas).expect("no committed message lost or reordered");
    println!("verified: every committed message survived the failover in order");
}
