//! # derecho — the virtual-synchrony baseline
//!
//! A performance-faithful reimplementation of Derecho's atomic multicast
//! (Jha et al., TOCS '19) over the same simulated RDMA fabric as Acuerdo, so
//! the §4.1 comparison isolates exactly the protocol-design differences the
//! paper discusses:
//!
//! * **Two RDMA writes per message** ([`rdma_prims::RingMode::Split`]): the
//!   data frame plus a separate per-pair message counter — for 10-byte
//!   messages that is twice Acuerdo's wire cost (§4.1's 2x bandwidth gap);
//! * **Commit at ALL active nodes** (virtual synchrony): a message is
//!   delivered once every member's published `nReceived` counter passed it,
//!   so the cluster runs at the speed of its slowest member;
//! * **Slot reuse only after global delivery**: a ring slot is reusable only
//!   once the message is stable at every member, magnifying the impact of a
//!   slow node;
//! * **SST stability rounds**: members publish their `nReceived` row
//!   periodically rather than immediately per batch;
//! * **Two modes** (§4 experiments): `Leader` (only the lowest-ranked member
//!   sends) and `AllSender` (round-robin total order with null messages
//!   filling idle slots — better aggregate bandwidth, worse small-message
//!   latency).
//!
//! Failures are handled with a simplified view-change: members heartbeat
//! through the shared state row; on suspicion the lowest live member proposes
//! the next view with a per-dead-sender *cut* (the count it received) and
//! forwards the undelivered frames below the cut. This reproduces virtual
//! synchrony's ragged-edge cleanup for a single failure at a time; Derecho's
//! full concurrent-failure protocol is out of scope for a baseline whose
//! benchmark role is stable-state performance (documented in DESIGN.md).

mod node;

pub use node::{DcWire, DerechoConfig, DerechoNode, Mode};

use abcast::{App, MsgHdr, Replica, WindowClient};
use bytes::Bytes;
use simnet::{NetParams, NodeId, Sim};

/// Build `cfg.n` replicas occupying simulation ids `0..n`.
pub fn build_cluster(sim: &mut Sim<DcWire>, cfg: &DerechoConfig) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(cfg.n);
    for me in 0..cfg.n {
        let id = sim.add_node(Box::new(DerechoNode::new(cfg.clone(), me)));
        assert_eq!(id, me, "replicas must occupy ids 0..n");
        ids.push(id);
    }
    ids
}

impl Replica for DerechoNode {
    type Wire = DcWire;
    type Config = DerechoConfig;

    fn net() -> NetParams {
        NetParams::rdma()
    }

    fn build_cluster(sim: &mut Sim<DcWire>, cfg: &DerechoConfig) -> Vec<NodeId> {
        build_cluster(sim, cfg)
    }

    /// In `Leader` mode the client stays at member 0; in `AllSender` mode it
    /// spreads requests round-robin over all members.
    fn aim_client(cfg: &DerechoConfig, ids: &[NodeId], client: &mut WindowClient<DcWire>) {
        if cfg.mode == Mode::AllSender {
            client.targets = ids.to_vec();
        }
    }

    fn app(&self) -> &dyn App {
        self.app.as_ref()
    }

    fn app_mut(&mut self) -> &mut Box<dyn App> {
        &mut self.app
    }

    /// A member configured out of the view is outside the virtual-synchrony
    /// contract from the moment of eviction (it must rejoin with a state
    /// transfer), so its history is not part of the group's order.
    fn in_group(&self) -> bool {
        !self.evicted()
    }
}

/// Delivery histories of live, non-evicted replicas.
pub fn histories(sim: &Sim<DcWire>, ids: &[NodeId]) -> Vec<Vec<(MsgHdr, Bytes)>> {
    abcast::histories::<DerechoNode>(sim, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast::{check_cluster, cluster_with_client};
    use simnet::SimTime;
    use std::time::Duration;

    fn run(
        mode: Mode,
        n: usize,
        window: usize,
        payload: usize,
        ms: u64,
        seed: u64,
    ) -> (Sim<DcWire>, Vec<NodeId>, NodeId) {
        let cfg = DerechoConfig {
            n,
            mode,
            ..DerechoConfig::default()
        };
        let (mut sim, ids, client) = cluster_with_client::<DerechoNode>(
            seed,
            &cfg,
            window,
            payload,
            Duration::from_millis(2),
        );
        sim.run_until(SimTime::from_millis(ms));
        (sim, ids, client)
    }

    #[test]
    fn leader_mode_commits_and_totally_orders() {
        let (sim, ids, client) = run(Mode::Leader, 3, 8, 10, 10, 3);
        check_cluster::<DerechoNode>(&sim, &ids).unwrap();
        let r = sim.node::<WindowClient<DcWire>>(client).result();
        assert!(r.completed > 100, "completed {}", r.completed);
    }

    #[test]
    fn all_sender_mode_commits_and_totally_orders() {
        let (sim, ids, client) = run(Mode::AllSender, 3, 9, 10, 10, 4);
        check_cluster::<DerechoNode>(&sim, &ids).unwrap();
        let r = sim.node::<WindowClient<DcWire>>(client).result();
        assert!(r.completed > 100, "completed {}", r.completed);
        // All three replicas actually sent data.
        for &id in &ids {
            assert!(sim.node::<DerechoNode>(id).sent_data > 0, "node {id} idle");
        }
    }

    #[test]
    fn leader_mode_latency_is_worse_than_acuerdo() {
        // The §4.1 claim: Derecho-leader ≥ ~19us vs Acuerdo ~10us for small
        // messages on 3 nodes.
        let (sim, ids, client) = run(Mode::Leader, 3, 1, 10, 10, 5);
        check_cluster::<DerechoNode>(&sim, &ids).unwrap();
        let r = sim.node::<WindowClient<DcWire>>(client).result();
        let lat = r.latency.mean_us();
        println!("derecho-leader 3n/10B window 1: {lat:.2} us");
        assert!(lat > 14.0, "derecho latency {lat}us suspiciously low");
        assert!(lat < 60.0, "derecho latency {lat}us too high");
    }

    #[test]
    fn split_ring_doubles_write_count() {
        let (sim, ids, _client) = run(Mode::Leader, 3, 8, 10, 10, 6);
        let n0 = sim.node::<DerechoNode>(ids[0]);
        // Leader posts ≥ 2 writes per message per receiver (data + counter).
        assert!(n0.sent_data > 0);
        let per_msg = n0.ep_writes_posted() as f64 / (n0.sent_data as f64 * (ids.len() as f64));
        assert!(per_msg >= 2.0, "writes per message per receiver {per_msg}");
    }

    #[test]
    fn member_crash_triggers_view_change_and_progress_resumes() {
        let cfg = DerechoConfig {
            n: 3,
            mode: Mode::Leader,
            view_timeout: Duration::from_micros(500),
            ..DerechoConfig::default()
        };
        let (mut sim, ids, client) =
            cluster_with_client::<DerechoNode>(7, &cfg, 8, 10, Duration::ZERO);
        sim.node_mut::<WindowClient<DcWire>>(client).retransmit = Some(Duration::from_millis(2));
        sim.run_until(SimTime::from_millis(3));
        // Crash a follower: virtual synchrony must reconfigure it out.
        sim.crash(2);
        sim.run_until(SimTime::from_millis(10));
        let before = sim.counter(0, simnet::Counter::Commits);
        sim.run_until(SimTime::from_millis(20));
        let after = sim.counter(0, simnet::Counter::Commits);
        assert!(after > before, "no progress after view change");
        assert_eq!(sim.node::<DerechoNode>(0).members(), vec![0, 1]);
        check_cluster::<DerechoNode>(&sim, &ids).unwrap();
    }

    #[test]
    fn leader_crash_fails_over_to_next_member() {
        let cfg = DerechoConfig {
            n: 3,
            mode: Mode::Leader,
            view_timeout: Duration::from_micros(500),
            ..DerechoConfig::default()
        };
        let (mut sim, ids, client) =
            cluster_with_client::<DerechoNode>(8, &cfg, 4, 10, Duration::ZERO);
        sim.node_mut::<WindowClient<DcWire>>(client).retransmit = Some(Duration::from_millis(2));
        sim.run_until(SimTime::from_millis(3));
        sim.crash(0);
        sim.run_until(SimTime::from_millis(10));
        // Repoint the client at the new sender.
        sim.node_mut::<WindowClient<DcWire>>(client).targets = vec![1];
        let before = sim.counter(1, simnet::Counter::Commits);
        sim.run_until(SimTime::from_millis(25));
        let after = sim.counter(1, simnet::Counter::Commits);
        assert!(after > before, "new leader made no progress");
        check_cluster::<DerechoNode>(&sim, &ids).unwrap();
    }

    #[test]
    fn slow_member_slows_the_whole_cluster() {
        // The anti-property vs Acuerdo: virtual synchrony runs at the
        // slowest member's speed.
        let mk = |slow: bool| {
            let cfg = DerechoConfig {
                n: 3,
                mode: Mode::Leader,
                // Long timeout so the slow node is NOT reconfigured out.
                view_timeout: Duration::from_secs(10),
                ..DerechoConfig::default()
            };
            let (mut sim, ids, client) =
                cluster_with_client::<DerechoNode>(9, &cfg, 8, 10, Duration::from_millis(2));
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
            check_cluster::<DerechoNode>(&sim, &ids).unwrap();
            sim.node::<WindowClient<DcWire>>(client).result()
        };
        let fast = mk(false);
        let slow = mk(true);
        println!(
            "derecho fast {:.2}us vs slow-member {:.2}us",
            fast.latency.mean_us(),
            slow.latency.mean_us()
        );
        assert!(
            slow.latency.mean_us() > fast.latency.mean_us() * 1.5,
            "slow member should hurt derecho: {} vs {}",
            slow.latency.mean_us(),
            fast.latency.mean_us()
        );
    }
}
