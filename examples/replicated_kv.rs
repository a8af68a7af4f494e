//! The §4.3 application use case: a hash table replicated over Acuerdo.
//!
//! ```text
//! cargo run --release --example replicated_kv
//! ```
//!
//! Update commands (YCSB-load: 100% zipfian-keyed sets) are broadcast
//! through the Acuerdo instance and applied to every replica's table copy at
//! commit; reads then go directly to any replica, bypassing broadcast — the
//! RDMA-get path.

use acuerdo_repro::abcast::{app::app_as, cluster_with_client, WindowClient};
use acuerdo_repro::acuerdo::{AcWire, AcuerdoConfig, AcuerdoNode};
use acuerdo_repro::kvstore::{ReplicatedMap, YcsbLoad};
use acuerdo_repro::simnet::SimTime;
use std::time::Duration;

fn main() {
    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, replicas, client) = cluster_with_client::<AcuerdoNode>(
        7,
        &cfg,
        /*window*/ 64,
        0,
        Duration::from_millis(1),
    );

    // Install the replicated hash table on every replica and the YCSB-load
    // generator on the client.
    for &r in &replicas {
        sim.node_mut::<AcuerdoNode>(r).app = Box::<ReplicatedMap>::default();
    }
    sim.node_mut::<WindowClient<AcWire>>(client).payload_fn =
        Some(YcsbLoad::new(7).into_payload_fn());

    sim.run_until(SimTime::from_millis(30));

    let result = sim.node::<WindowClient<AcWire>>(client).result();
    println!("YCSB-load on 3 replicas:");
    println!(
        "  {:.0} ops/s, mean latency {:.1} us",
        result.msgs_per_sec(),
        result.latency.mean_us()
    );

    // All replicas converged to the same table.
    let tables: Vec<&ReplicatedMap> = replicas
        .iter()
        .map(|&r| app_as::<ReplicatedMap>(sim.node::<AcuerdoNode>(r).app.as_ref()).unwrap())
        .collect();
    println!(
        "  applied ops per replica: {:?}",
        tables.iter().map(|t| t.applied).collect::<Vec<_>>()
    );
    // State-machine replication: any two replicas that applied the same
    // number of committed ops hold byte-identical tables.
    for (i, a) in tables.iter().enumerate() {
        for (j, b) in tables.iter().enumerate().skip(i + 1) {
            if a.applied == b.applied {
                assert_eq!(a.map.len(), b.map.len(), "replicas {i} and {j} diverged");
                for (k, v) in &a.map {
                    assert_eq!(
                        b.map.get(k),
                        Some(v),
                        "replicas {i} and {j} diverged on {k:?}"
                    );
                }
            }
        }
    }
    println!(
        "  table sizes: {:?}",
        tables.iter().map(|t| t.map.len()).collect::<Vec<_>>()
    );

    // Direct read from a follower replica (bypasses broadcast).
    let hot_key = tables[0]
        .map
        .keys()
        .next()
        .cloned()
        .expect("table not empty");
    let follower = replicas[1];
    let val = app_as::<ReplicatedMap>(sim.node::<AcuerdoNode>(follower).app.as_ref())
        .unwrap()
        .get(&hot_key);
    println!(
        "  direct get({}) at replica {follower}: {} bytes",
        String::from_utf8_lossy(&hot_key),
        val.map(|v| v.len()).unwrap_or(0)
    );
}
