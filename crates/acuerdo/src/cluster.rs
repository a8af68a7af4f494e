//! Harness helpers: build an Acuerdo cluster inside a simulation and inspect
//! it afterwards.

use crate::config::AcuerdoConfig;
use crate::node::{AcWire, AcuerdoNode, Role};
use abcast::{App, MsgHdr, Replica, WindowClient};
use bytes::Bytes;
use simnet::{NetParams, NodeId, Sim};

/// Build `cfg.n` replicas (they take simulation ids `0..n`, as the region
/// plan requires) and return their ids.
pub fn build_cluster(sim: &mut Sim<AcWire>, cfg: &AcuerdoConfig) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(cfg.n);
    for me in 0..cfg.n {
        let id = sim.add_node(Box::new(AcuerdoNode::new(cfg.clone(), me)));
        assert_eq!(id, me, "replicas must occupy ids 0..n");
        // Durable mode journals to persistent memory; volatile mode never
        // touches the device.
        sim.set_log_device(id, simnet::LogDevParams::pmem());
        ids.push(id);
    }
    ids
}

/// Register restart factories so `Sim::restart_at` brings a crashed replica
/// back as a rejoiner ([`AcuerdoNode::rejoining`]; `abcast::enable_restarts`).
/// Volatile configs should set `retain_log` so the survivors can re-seed the
/// full history; a durable replica recovers its own prefix from its
/// checkpoint and journal, so durable configs collect their logs either way.
pub fn enable_restarts(sim: &mut Sim<AcWire>, cfg: &AcuerdoConfig, ids: &[NodeId]) {
    abcast::enable_restarts::<AcuerdoNode>(sim, cfg, ids);
}

impl Replica for AcuerdoNode {
    type Wire = AcWire;
    type Config = AcuerdoConfig;

    fn net() -> NetParams {
        NetParams::rdma()
    }

    fn build_cluster(sim: &mut Sim<AcWire>, cfg: &AcuerdoConfig) -> Vec<NodeId> {
        build_cluster(sim, cfg)
    }

    fn rejoiner(cfg: &AcuerdoConfig, id: NodeId) -> Option<Self> {
        Some(AcuerdoNode::rejoining(cfg.clone(), id))
    }

    /// The cluster boots directly into `cfg.initial_epoch` when one is set,
    /// so the client starts at that epoch's leader.
    fn aim_client(cfg: &AcuerdoConfig, _ids: &[NodeId], client: &mut WindowClient<AcWire>) {
        if let Some(e) = cfg.initial_epoch {
            client.targets = vec![e.ldr as usize];
        }
    }

    fn app(&self) -> &dyn App {
        self.app.as_ref()
    }

    fn app_mut(&mut self) -> &mut Box<dyn App> {
        &mut self.app
    }
}

/// Delivery histories of every non-crashed replica (for the §2.2 checkers).
pub fn histories(sim: &Sim<AcWire>, ids: &[NodeId]) -> Vec<Vec<(MsgHdr, Bytes)>> {
    abcast::histories::<AcuerdoNode>(sim, ids)
}

/// The id of the current leader, if exactly one live replica is leading.
pub fn current_leader(sim: &Sim<AcWire>, ids: &[NodeId]) -> Option<NodeId> {
    let leaders: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|&id| !sim.is_crashed(id) && sim.node::<AcuerdoNode>(id).role() == Role::Leader)
        .collect();
    match leaders.as_slice() {
        [one] => Some(*one),
        _ => None,
    }
}
