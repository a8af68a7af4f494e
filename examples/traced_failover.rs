//! A traced leader-pause election: watch a failover on the virtual-time
//! timeline.
//!
//! ```text
//! cargo run --release --example traced_failover
//! ```
//!
//! Runs a 3-replica Acuerdo cluster with tracing enabled, descheduled the
//! leader long enough to force an election, and dumps the whole run as
//! `traced_failover.json` — open it at <https://ui.perfetto.dev> (or
//! `chrome://tracing`) to see the heartbeat misses, the election instants,
//! the new leader's diff transfer, and the NIC/CPU spans underneath them.

use acuerdo_repro::abcast::{check_cluster, cluster_with_client, WindowClient};
use acuerdo_repro::acuerdo::{current_leader, AcWire, AcuerdoConfig, AcuerdoNode};
use acuerdo_repro::bench::chrome;
use acuerdo_repro::simnet::{Counter, SimTime};
use std::time::Duration;

fn main() {
    let cfg = AcuerdoConfig {
        fail_timeout: Duration::from_micros(400),
        ..AcuerdoConfig::stable(3)
    };
    let (mut sim, replicas, client) =
        cluster_with_client::<AcuerdoNode>(21, &cfg, 16, 10, Duration::ZERO);
    sim.set_tracing(true);
    sim.node_mut::<WindowClient<AcWire>>(client).retransmit = Some(Duration::from_millis(2));

    // Normal broadcast, then deschedule the leader (a GC pause, not a crash:
    // it wakes up later and finds itself deposed).
    sim.run_until(SimTime::from_millis(2));
    let old_leader = current_leader(&sim, &replicas).expect("initial leader");
    println!("pausing leader {old_leader} for 5 ms at t = {}", sim.now());
    sim.pause_at(old_leader, sim.now(), Duration::from_millis(5));

    // Step until a different leader has emerged. While the old leader is
    // descheduled it still *believes* it leads, so an unambiguous answer
    // only appears once it wakes, sees the higher epoch, and steps down.
    let deadline = SimTime::from_millis(15);
    loop {
        sim.run_for(Duration::from_millis(1));
        match current_leader(&sim, &replicas) {
            Some(l) if l != old_leader => break,
            _ => assert!(sim.now() < deadline, "no new leader by {deadline}"),
        }
    }

    let new_leader = current_leader(&sim, &replicas).expect("a new leader");
    assert_ne!(new_leader, old_leader, "election did not move the lead");
    let node = sim.node::<AcuerdoNode>(new_leader);
    println!("replica {new_leader} won epoch {:?}", node.epoch());
    for (detected, ready) in &node.election_spans {
        println!(
            "  suspicion at {detected}, diffs transferred by {ready} -> downtime {:.3} ms",
            ready.saturating_since(*detected).as_secs_f64() * 1e3
        );
    }

    // Repoint the client and let the new epoch make progress.
    sim.node_mut::<WindowClient<AcWire>>(client).targets = vec![new_leader];
    sim.run_for(Duration::from_millis(5));
    check_cluster::<AcuerdoNode>(&sim, &replicas).expect("no committed message lost or reordered");

    // What the counters saw.
    for &id in &replicas {
        println!(
            "node {id}: {} commits, {} elections ({} won), {} heartbeat misses, {} sst pushes",
            sim.counter(id, Counter::Commits),
            sim.counter(id, Counter::Elections),
            sim.counter(id, Counter::ElectionsWon),
            sim.counter(id, Counter::HeartbeatMisses),
            sim.counter(id, Counter::SstPushes),
        );
    }

    // Dump the timeline.
    let json = chrome::write(sim.trace_events(), &[]);
    let path = "traced_failover.json";
    std::fs::write(path, &json).expect("write timeline");
    println!(
        "wrote {path} ({} events, {} bytes) - open it at https://ui.perfetto.dev",
        sim.trace_events().len(),
        json.len()
    );
}
