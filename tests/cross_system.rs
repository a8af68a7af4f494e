//! Cross-system integration: every protocol in the evaluation commits,
//! totally orders, and sits where the paper's Figure 8 puts it relative to
//! the others.

use acuerdo_repro::abcast::{check_cluster, cluster_with_client, Replica, WindowClient};
use acuerdo_repro::acuerdo::{AcuerdoConfig, AcuerdoNode};
use acuerdo_repro::apus::{ApusConfig, ApusNode};
use acuerdo_repro::dare::{DareConfig, DareNode};
use acuerdo_repro::derecho::{DerechoConfig, DerechoNode, Mode};
use acuerdo_repro::paxos::{PaxosConfig, PaxosNode};
use acuerdo_repro::raft::{RaftConfig, RaftNode};
use acuerdo_repro::simnet::{Counter, SimTime, SpanStage, TraceEvent};
use acuerdo_repro::zab::{ZabConfig, ZabNode};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

struct Measured {
    name: &'static str,
    mean_us: f64,
    msgs_per_sec: f64,
}

/// One system through the generic harness: build, run to `end_ms`, check
/// the §2.2 properties, read the client.
fn measure<R: Replica>(
    name: &'static str,
    cfg: &R::Config,
    seed: u64,
    window: usize,
    warm_ms: u64,
    end_ms: u64,
) -> Measured {
    let warm = Duration::from_millis(warm_ms);
    let (mut sim, ids, c) = cluster_with_client::<R>(seed, cfg, window, 10, warm);
    sim.run_until(SimTime::from_millis(end_ms));
    check_cluster::<R>(&sim, &ids).unwrap_or_else(|v| panic!("{name}: {v:?}"));
    let r = sim.node::<WindowClient<R::Wire>>(c).result();
    Measured {
        name,
        mean_us: r.latency.mean_us(),
        msgs_per_sec: r.msgs_per_sec(),
    }
}

/// Every `Replica` impl (Derecho in both modes) on 3 nodes under the same
/// closed-loop load.
fn measure_all(seed: u64, window: usize) -> Vec<Measured> {
    let derecho = |mode| DerechoConfig {
        n: 3,
        mode,
        ..DerechoConfig::default()
    };
    let (s, w) = (seed, window);
    vec![
        measure::<AcuerdoNode>("acuerdo", &AcuerdoConfig::stable(3), s, w, 1, 8),
        measure::<DerechoNode>("derecho-leader", &derecho(Mode::Leader), s, w, 1, 8),
        measure::<DerechoNode>("derecho-all", &derecho(Mode::AllSender), s, w, 1, 8),
        measure::<ApusNode>("apus", &ApusConfig::default(), s, w, 1, 8),
        measure::<DareNode>("dare", &DareConfig::default(), s, w, 1, 8),
        measure::<PaxosNode>("libpaxos", &PaxosConfig::default(), s, w, 10, 80),
        measure::<ZabNode>("zookeeper", &ZabConfig::default(), s, w, 10, 80),
        measure::<RaftNode>("etcd", &RaftConfig::default(), s, w, 10, 200),
    ]
}

fn get<'a>(ms: &'a [Measured], name: &str) -> &'a Measured {
    ms.iter().find(|m| m.name == name).unwrap()
}

#[test]
fn every_replica_impl_commits_under_identical_load() {
    let ms = measure_all(42, 4);
    assert_eq!(ms.len(), 8, "seven impls, Derecho in both modes");
    for m in &ms {
        assert!(
            m.msgs_per_sec > 500.0,
            "{} barely committed: {} msg/s",
            m.name,
            m.msgs_per_sec
        );
    }
}

/// A fault-free traced run of `R` to `end_ms`: every live replica
/// delivered, and counted each delivery once, in `Counter::Commits`, in its
/// `DeliveryLog`, and in its `commit` and `deliver` marks alike; each
/// `deliver` mark lies strictly after its entry's `commit` mark (the deliver
/// CPU between them), and every delivered entry was joined to its client by
/// a `leader_recv` mark.
fn commits_match_the_delivery_log<R: Replica>(name: &str, cfg: &R::Config, end_ms: u64) {
    let (mut sim, ids, _) = cluster_with_client::<R>(42, cfg, 4, 10, Duration::ZERO);
    sim.set_tracing(true);
    sim.run_until(SimTime::from_millis(end_ms));
    let trace = sim.take_trace();
    let mut admitted = HashSet::new();
    for ev in &trace {
        if let TraceEvent::Span {
            id,
            stage: SpanStage::LeaderRecv,
            ..
        } = *ev
        {
            assert!(admitted.insert(id), "{name}: span {id:#x} admitted twice");
        }
    }
    for id in ids.into_iter().filter(|&id| !sim.is_crashed(id)) {
        let log = sim.node::<R>(id).delivery_log().expect("DeliveryLog app");
        let delivered = log.len() as u64;
        assert!(delivered > 0, "{name}: replica {id} delivered nothing");
        let commits = sim.counter(id, Counter::Commits);
        assert_eq!(commits, delivered, "{name}: replica {id}");
        let mut committed_at = HashMap::new();
        let mut delivers = 0;
        for ev in &trace {
            let TraceEvent::Span {
                at,
                node,
                id: span,
                stage,
                ..
            } = *ev
            else {
                continue;
            };
            if node != id {
                continue;
            }
            match stage {
                SpanStage::Commit => {
                    let again = committed_at.insert(span, at);
                    assert!(
                        again.is_none(),
                        "{name}: replica {id} committed {span:#x} twice"
                    );
                }
                SpanStage::Deliver => {
                    delivers += 1;
                    let commit = committed_at.get(&span).unwrap_or_else(|| {
                        panic!("{name}: replica {id} delivered {span:#x} uncommitted")
                    });
                    assert!(
                        at > *commit,
                        "{name}: replica {id} {span:#x} delivered at its commit"
                    );
                    assert!(
                        admitted.contains(&span),
                        "{name}: replica {id} delivered {span:#x} with no leader_recv mark"
                    );
                }
                _ => {}
            }
        }
        assert_eq!(
            committed_at.len() as u64,
            delivered,
            "{name}: replica {id} commit marks"
        );
        assert_eq!(delivers, delivered, "{name}: replica {id} deliver marks");
    }
}

#[test]
fn every_replica_impl_counts_each_commit_once() {
    let derecho = |mode| DerechoConfig {
        n: 3,
        mode,
        ..DerechoConfig::default()
    };
    commits_match_the_delivery_log::<AcuerdoNode>("acuerdo", &AcuerdoConfig::stable(3), 8);
    commits_match_the_delivery_log::<DerechoNode>("derecho-leader", &derecho(Mode::Leader), 8);
    commits_match_the_delivery_log::<DerechoNode>("derecho-all", &derecho(Mode::AllSender), 8);
    commits_match_the_delivery_log::<ApusNode>("apus", &ApusConfig::default(), 8);
    commits_match_the_delivery_log::<DareNode>("dare", &DareConfig::default(), 8);
    commits_match_the_delivery_log::<PaxosNode>("libpaxos", &PaxosConfig::default(), 80);
    commits_match_the_delivery_log::<ZabNode>("zookeeper", &ZabConfig::default(), 80);
    commits_match_the_delivery_log::<RaftNode>("etcd", &RaftConfig::default(), 200);
}

#[test]
fn figure8_latency_ordering_holds_at_low_load() {
    // The paper's headline: Acuerdo improves latency ~2x over the next-best
    // RDMA system and ~10x over the TCP systems.
    let ms = measure_all(42, 1);
    let acuerdo = get(&ms, "acuerdo").mean_us;
    let derecho = get(&ms, "derecho-leader").mean_us;
    let apus = get(&ms, "apus").mean_us;
    let zk = get(&ms, "zookeeper").mean_us;
    let etcd = get(&ms, "etcd").mean_us;
    let libpaxos = get(&ms, "libpaxos").mean_us;

    assert!(acuerdo < 16.0, "acuerdo latency {acuerdo}");
    assert!(
        derecho > acuerdo * 1.5 && derecho < acuerdo * 3.0,
        "derecho-leader {derecho} vs acuerdo {acuerdo} (paper: ~2x)"
    );
    assert!(apus > acuerdo, "apus {apus} vs acuerdo {acuerdo}");
    assert!(
        libpaxos > acuerdo * 8.0,
        "libpaxos {libpaxos} vs acuerdo {acuerdo} (paper: >=10x)"
    );
    assert!(zk > libpaxos, "zookeeper {zk} vs libpaxos {libpaxos}");
    assert!(etcd > zk, "etcd {etcd} vs zookeeper {zk}");
}

#[test]
fn figure8_throughput_ordering_holds_at_saturation() {
    let ms = measure_all(43, 1024);
    let acuerdo = get(&ms, "acuerdo").msgs_per_sec;
    let derecho = get(&ms, "derecho-leader").msgs_per_sec;
    let tcp_best = get(&ms, "libpaxos")
        .msgs_per_sec
        .max(get(&ms, "zookeeper").msgs_per_sec)
        .max(get(&ms, "etcd").msgs_per_sec);

    // The 2x bandwidth-efficiency claim (1 write vs 2 per small message).
    assert!(
        acuerdo > derecho * 1.5,
        "acuerdo {acuerdo} vs derecho-leader {derecho} (paper: ~2x)"
    );
    // RDMA systems clear the kernel-TCP systems by a wide margin.
    assert!(
        acuerdo > tcp_best * 3.0,
        "acuerdo {acuerdo} vs best TCP {tcp_best}"
    );
}

#[test]
fn derecho_all_trades_latency_for_bandwidth() {
    let low = measure_all(44, 1);
    let high = measure_all(44, 256);
    assert!(
        get(&low, "derecho-all").mean_us > get(&low, "derecho-leader").mean_us,
        "all-sender should have worse small-message latency"
    );
    assert!(
        get(&high, "derecho-all").msgs_per_sec > get(&high, "derecho-leader").msgs_per_sec * 1.5,
        "all-sender should have better aggregate bandwidth"
    );
}
