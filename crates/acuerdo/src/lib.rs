//! # acuerdo — the paper's contribution
//!
//! A faithful implementation of *Acuerdo: Fast Atomic Broadcast over RDMA*
//! (Izraelevitz et al., ICPP '22) over the simulated RDMA fabric:
//!
//! * **Broadcast mode** (Figures 4–6): a single leader pipelines messages
//!   through per-follower RDMA ring buffers with **one** write per message;
//!   followers acknowledge only their *latest* accepted header through the
//!   Accept_SST (FIFO delivery makes that acknowledgment cumulative); the
//!   leader commits at a **quorum** and propagates commits off the critical
//!   path through the Commit_SST.
//! * **Election** (Figure 7): a fixed-point vote-maximisation over the
//!   Vote_SST that always elects an *up-to-date* leader — no post-election
//!   state transfer, no split-vote livelock.
//! * **Transition** (§3.4): the new leader opens its epoch with a *diff*
//!   message (header count 0) carrying whatever entries each follower is
//!   missing; accepting the diff is joining the epoch.
//!
//! The node runs as fast as the fastest quorum: a slow or descheduled
//! follower is simply left behind and catches up from its ring backlog
//! (receiver-side batching), which is the paper's central performance claim.
//!
//! See `AcuerdoNode` for the state machine, `cluster` for harness helpers,
//! and the `bench` crate for the experiments of §4.

mod cluster;
mod config;
pub mod msg;
mod node;

pub use cluster::{build_cluster, current_leader, enable_restarts, histories};
pub use config::{ring_route, AcuerdoConfig, DisseminationMode, RingRoute};
pub use node::{AcWire, AcuerdoNode, Role};

#[cfg(test)]
mod tests {
    use super::*;
    use abcast::{check_cluster, ClientPort, Replica, WindowClient};
    use simnet::{NetParams, Sim, SimTime};
    use std::time::Duration;

    #[test]
    fn boots_into_stable_epoch_and_commits() {
        let cfg = AcuerdoConfig::stable(3);
        let (mut sim, ids, client) =
            abcast::cluster_with_client::<AcuerdoNode>(7, &cfg, 4, 10, Duration::from_micros(200));
        sim.run_until(SimTime::from_millis(5));
        let c = sim.node::<WindowClient<AcWire>>(client);
        let r = c.result();
        assert!(r.completed > 100, "completed {}", r.completed);
        // Commit latency in the ~10us regime the paper reports for small
        // groups and messages (window 4 adds a little queueing).
        assert!(
            r.latency.mean_us() < 40.0,
            "mean latency {}us",
            r.latency.mean_us()
        );
        check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
    }

    #[test]
    fn startup_election_converges_without_preset_epoch() {
        let cfg = AcuerdoConfig {
            n: 3,
            initial_epoch: None,
            ..AcuerdoConfig::default()
        };
        let mut sim = Sim::new(21, NetParams::rdma());
        let ids = build_cluster(&mut sim, &cfg);
        sim.run_until(SimTime::from_millis(20));
        let leader = current_leader(&sim, &ids);
        assert!(leader.is_some(), "no unique leader after startup election");
        // Everyone agrees on the epoch.
        let e = sim.node::<AcuerdoNode>(leader.unwrap()).epoch();
        for &id in &ids {
            assert_eq!(sim.node::<AcuerdoNode>(id).epoch(), e, "node {id}");
        }
        check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
    }

    #[test]
    fn follower_crash_restart_rejoins_with_full_log() {
        let cfg = AcuerdoConfig {
            retain_log: true,
            ..AcuerdoConfig::stable(3)
        };
        let (mut sim, ids, _client) =
            abcast::cluster_with_client::<AcuerdoNode>(11, &cfg, 4, 32, Duration::from_micros(100));
        enable_restarts(&mut sim, &cfg, &ids);
        // Let traffic flow, then reboot follower 2 mid-stream.
        sim.crash_at(2, SimTime::from_millis(2));
        sim.restart_at(2, SimTime::from_millis(3));
        sim.run_until(SimTime::from_millis(10));
        let survivor = sim.node::<AcuerdoNode>(1);
        let rejoined = sim.node::<AcuerdoNode>(2);
        assert!(!rejoined.is_resyncing(), "node 2 still resyncing");
        assert!(
            !rejoined.delivery_log().unwrap().is_empty(),
            "rejoined node delivered nothing"
        );
        assert_eq!(rejoined.epoch(), survivor.epoch());
        check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
        // The rejoiner's history must cover the whole committed prefix from
        // the very first entry, not just a post-reboot tail: it was
        // re-seeded from the leader's retained log.
        let h = histories(&sim, &ids);
        assert_eq!(
            h[2].first(),
            h[1].first(),
            "rejoiner must re-deliver from the start"
        );
        assert!(
            h[2].len() > 50,
            "rejoiner history too short: {}",
            h[2].len()
        );
        assert!(sim.counter(0, simnet::Counter::RejoinDiffBytes) > 0);
    }

    #[test]
    fn leader_crash_restart_rejoins_after_election() {
        let cfg = AcuerdoConfig {
            retain_log: true,
            ..AcuerdoConfig::stable(3)
        };
        let (mut sim, ids, _client) =
            abcast::cluster_with_client::<AcuerdoNode>(13, &cfg, 4, 32, Duration::from_micros(100));
        enable_restarts(&mut sim, &cfg, &ids);
        sim.crash_at(0, SimTime::from_millis(2));
        sim.restart_at(0, SimTime::from_millis(4));
        sim.run_until(SimTime::from_millis(20));
        let leader = current_leader(&sim, &ids).expect("unique leader after reboot");
        assert_ne!(leader, 0, "deposed leader must rejoin as follower");
        let rejoined = sim.node::<AcuerdoNode>(0);
        assert!(!rejoined.is_resyncing(), "node 0 still resyncing");
        assert_eq!(rejoined.epoch(), sim.node::<AcuerdoNode>(leader).epoch());
        assert!(!rejoined.delivery_log().unwrap().is_empty());
        check_cluster::<AcuerdoNode>(&sim, &ids).unwrap();
    }

    #[test]
    fn wire_implements_client_port() {
        let req = abcast::ClientReq {
            id: 9,
            payload: bytes::Bytes::from_static(b"x"),
        };
        let w = AcWire::request(req);
        assert!(w.response().is_none());
        let r = AcWire::Resp(abcast::ClientResp { id: 9 });
        assert_eq!(r.response().unwrap().id, 9);
    }
}
