//! The paper's central performance claim, side by side (§3, §4.1).
//!
//! ```text
//! cargo run --release --example slow_follower
//! ```
//!
//! One follower suffers periodic multi-hundred-microsecond scheduler pauses.
//! Acuerdo commits at the speed of its fastest quorum and simply lets the
//! slow follower catch up from its ring backlog (receiver-side batching);
//! Derecho's virtual synchrony commits only when *all* members acknowledged,
//! so the same slow node drags the whole cluster down.

use acuerdo_repro::abcast::{check_cluster, cluster_with_client, WindowClient};
use acuerdo_repro::acuerdo::{self, AcWire, AcuerdoConfig};
use acuerdo_repro::derecho::{self, DcWire, DerechoConfig, Mode};
use acuerdo_repro::simnet::{DeschedProfile, SimTime};
use std::time::Duration;

const SLOW: DeschedProfile = DeschedProfile {
    mean_interval: Duration::from_micros(300),
    min_pause: Duration::from_micros(100),
    max_pause: Duration::from_micros(250),
};

fn acuerdo_run(slow: bool) -> (f64, f64) {
    let cfg = AcuerdoConfig::stable(3);
    let (mut sim, ids, client) =
        cluster_with_client::<acuerdo::AcuerdoNode>(3, &cfg, 8, 10, Duration::from_millis(2));
    if slow {
        sim.set_desched(2, SLOW);
    }
    sim.run_until(SimTime::from_millis(20));
    check_cluster::<acuerdo::AcuerdoNode>(&sim, &ids).unwrap();
    let r = sim.node::<WindowClient<AcWire>>(client).result();
    (r.latency.mean_us(), r.msgs_per_sec())
}

fn derecho_run(slow: bool) -> (f64, f64) {
    let cfg = DerechoConfig {
        n: 3,
        mode: Mode::Leader,
        // Long view timeout: the slow member stays in the view, as a
        // transiently-slow node would.
        view_timeout: Duration::from_secs(10),
        ..DerechoConfig::default()
    };
    let (mut sim, ids, client) =
        cluster_with_client::<derecho::DerechoNode>(3, &cfg, 8, 10, Duration::from_millis(2));
    if slow {
        sim.set_desched(2, SLOW);
    }
    sim.run_until(SimTime::from_millis(20));
    check_cluster::<derecho::DerechoNode>(&sim, &ids).unwrap();
    let r = sim.node::<WindowClient<DcWire>>(client).result();
    (r.latency.mean_us(), r.msgs_per_sec())
}

fn main() {
    println!(
        "3 replicas, window 8, 10-byte messages; follower 2 descheduled 100-250us every ~300us\n"
    );
    let (al0, at0) = acuerdo_run(false);
    let (al1, at1) = acuerdo_run(true);
    let (dl0, dt0) = derecho_run(false);
    let (dl1, dt1) = derecho_run(true);

    println!(
        "{:<18} {:>14} {:>14} {:>12}",
        "system", "clean", "slow member", "slowdown"
    );
    println!(
        "{:<18} {:>11.1} us {:>11.1} us {:>11.2}x",
        "acuerdo latency",
        al0,
        al1,
        al1 / al0
    );
    println!(
        "{:<18} {:>11.1} us {:>11.1} us {:>11.2}x",
        "derecho latency",
        dl0,
        dl1,
        dl1 / dl0
    );
    println!(
        "{:<18} {:>8.0} msg/s {:>8.0} msg/s {:>11.2}x",
        "acuerdo tput",
        at0,
        at1,
        at0 / at1
    );
    println!(
        "{:<18} {:>8.0} msg/s {:>8.0} msg/s {:>11.2}x",
        "derecho tput",
        dt0,
        dt1,
        dt0 / dt1
    );
    println!();
    println!("acuerdo runs at the speed of its fastest quorum; virtual synchrony");
    println!("runs at the speed of its slowest member.");
    assert!(
        dl1 / dl0 > (al1 / al0) * 1.3,
        "demo invariant: derecho hurt more"
    );
}
