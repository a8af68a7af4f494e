//! The same Acuerdo state machines, on real OS threads.
//!
//! ```text
//! cargo run --release --example live_cluster
//! ```
//!
//! Everything else in this repository drives the protocol deterministically
//! through the discrete-event engine. This example runs the *identical*
//! `AcuerdoNode` code on the threaded fabric — one thread per replica plus a
//! client thread pumping requests through crossbeam channels — and verifies
//! the atomic-broadcast properties on the histories afterwards. It is the
//! "sans-IO means it" demonstration and the starting point for porting the
//! protocol onto a real RDMA transport.

use acuerdo_repro::abcast::{check_histories, Replica, WindowClient};
use acuerdo_repro::acuerdo::{AcWire, AcuerdoConfig, AcuerdoNode};
use acuerdo_repro::simnet::ThreadedRunner;
use std::time::Duration;

fn main() {
    let n = 3;
    let cfg = AcuerdoConfig {
        // Thread scheduling is far noisier than a busy-polled core: relax
        // the poll cadence and the failure detector accordingly.
        poll_interval: Duration::from_micros(100),
        commit_push_interval: Duration::from_micros(500),
        fail_timeout: Duration::from_millis(250),
        ..AcuerdoConfig::stable(n)
    };

    let mut runner: ThreadedRunner<AcWire> = ThreadedRunner::new();
    for me in 0..n {
        let id = runner.add_node(Box::new(AcuerdoNode::new(cfg.clone(), me)));
        assert_eq!(id, me);
    }
    let client = runner.add_node(Box::new(WindowClient::<AcWire>::new(
        0,
        16,
        10,
        Duration::from_millis(20),
    )));

    println!("running {n} Acuerdo replicas + 1 client on real threads for 400 ms ...");
    runner.start();
    std::thread::sleep(Duration::from_millis(400));
    let nodes = runner.stop();

    let result = ThreadedRunner::node_as::<WindowClient<AcWire>>(&nodes, client)
        .expect("client")
        .result();
    println!(
        "client: {} committed, mean latency {:.1} us (wall clock, channel transport)",
        result.completed,
        result.latency.mean_us()
    );
    assert!(result.completed > 100, "live cluster barely committed");

    let histories: Vec<_> = (0..n)
        .map(|id| {
            ThreadedRunner::node_as::<AcuerdoNode>(&nodes, id)
                .expect("replica")
                .delivery_log()
                .expect("DeliveryLog app")
                .to_vec()
        })
        .collect();
    for (id, h) in histories.iter().enumerate() {
        println!("replica {id}: delivered {} messages", h.len());
    }
    check_histories(&histories, None).expect("Integrity / No-Dup / Total Order");
    println!("atomic-broadcast properties verified on the threaded fabric");
}
