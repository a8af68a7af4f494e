//! The harness's view of a protocol: one [`Replica`] impl per node type is
//! everything a protocol-agnostic driver needs to build a cluster, aim a
//! client at it, restart it, and judge its delivery histories afterwards.
//! Adding a system to the harnesses is one `impl Replica`.

use crate::app::{App, DeliveryLog};
use crate::check::{check_histories, Violation};
use crate::client::{ClientPort, WindowClient};
use crate::types::MsgHdr;
use bytes::Bytes;
use simnet::{NetParams, NodeId, Process, Sim};
use std::time::Duration;

/// A protocol node as the harness sees it.
pub trait Replica: Process<Self::Wire> + Sized + 'static {
    /// The protocol's wire message type.
    type Wire: ClientPort;
    /// The protocol's configuration.
    type Config: Clone;

    /// The network preset the system runs over (RDMA fabric or kernel TCP).
    fn net() -> NetParams;

    /// Build the benchmark-setup cluster for `cfg` (stable leader preset
    /// where the protocol has one); replicas occupy simulation ids `0..n`.
    fn build_cluster(sim: &mut Sim<Self::Wire>, cfg: &Self::Config) -> Vec<NodeId>;

    /// The process a crash-restart of replica `id` boots, or `None` (the
    /// default) without a restart path. It replays any durable journal
    /// itself, in `on_start` (`wal::recover`).
    fn rejoiner(_cfg: &Self::Config, _id: NodeId) -> Option<Self> {
        None
    }

    /// Re-aim the client where `cfg` puts the load. The default leaves it
    /// at replica 0, where every preset leader boots.
    fn aim_client(_cfg: &Self::Config, _ids: &[NodeId], _client: &mut WindowClient<Self::Wire>) {}

    /// The replicated application.
    fn app(&self) -> &dyn App;

    /// The replicated application's slot, for installing another one.
    fn app_mut(&mut self) -> &mut Box<dyn App>;

    /// Whether this replica's history is part of the group's order.
    fn in_group(&self) -> bool {
        true
    }

    /// The delivery record, when the installed app keeps one.
    fn delivery_log(&self) -> Option<&DeliveryLog> {
        self.app().delivery_log()
    }
}

/// Create a simulation over `R`'s network preset holding a cluster plus a
/// closed-loop window client. Returns `(sim, replica_ids, client_id)`.
pub fn cluster_with_client<R: Replica>(
    seed: u64,
    cfg: &R::Config,
    window: usize,
    payload: usize,
    warmup: Duration,
) -> (Sim<R::Wire>, Vec<NodeId>, NodeId) {
    let mut sim = Sim::new(seed, R::net());
    let ids = R::build_cluster(&mut sim, cfg);
    let mut client = WindowClient::new(0, window, payload, warmup);
    R::aim_client(cfg, &ids, &mut client);
    let client = sim.add_node(Box::new(client));
    (sim, ids, client)
}

/// Register [`Replica::rejoiner`] as the restart factory of every replica in
/// `ids`, so `Sim::restart_at` brings a crashed one back. `R` must have a
/// rejoiner; a restart of one that has none panics.
pub fn enable_restarts<R: Replica>(sim: &mut Sim<R::Wire>, cfg: &R::Config, ids: &[NodeId]) {
    for &id in ids {
        let cfg = cfg.clone();
        sim.set_restart_factory(id, move || {
            Box::new(R::rejoiner(&cfg, id).expect("the protocol has no rejoiner"))
        });
    }
}

/// Delivery histories of every live, in-group replica (for the §2.2
/// checkers).
pub fn histories<R: Replica>(sim: &Sim<R::Wire>, ids: &[NodeId]) -> Vec<Vec<(MsgHdr, Bytes)>> {
    ids.iter()
        .filter(|&&id| !sim.is_crashed(id))
        .map(|&id| sim.node::<R>(id))
        .filter(|r| r.in_group())
        .map(|r| r.delivery_log().expect("DeliveryLog app").to_vec())
        .collect()
}

/// Check the §2.2 properties across all live, in-group replicas.
pub fn check_cluster<R: Replica>(sim: &Sim<R::Wire>, ids: &[NodeId]) -> Result<(), Violation> {
    check_histories(&histories::<R>(sim, ids), None)
}
