//! Calibrated network parameter presets.
//!
//! Values are calibrated against the paper's testbed (CloudLab xl170: Intel
//! E5-2640v4, dual-port Mellanox ConnectX-4 25 GbE, RoCE through one Mellanox
//! 2410 switch) so that the reproduced curves have the paper's shape. See
//! DESIGN.md §5 for the calibration table and EXPERIMENTS.md for measured
//! results.

use crate::disk::LogDevParams;
use crate::net::{LinkParams, NicParams};
use crate::NodeId;
use std::time::Duration;

/// Network-wide parameters handed to [`Sim::new`](crate::Sim::new).
#[derive(Copy, Clone, Debug)]
pub struct NetParams {
    /// Default directed-link parameters between distinct nodes.
    pub default_link: LinkParams,
    /// Loopback parameters (a node sending to itself through its own NIC).
    pub loopback: LinkParams,
    /// Per-node NIC parameters.
    pub nic: NicParams,
}

impl NetParams {
    /// RoCE preset: one-way ~1.5 µs with up to 300 ns of jitter, 25 Gb/s line
    /// rate, 80-byte minimum wire size (§4.1 of the paper).
    pub fn rdma() -> Self {
        NetParams {
            default_link: LinkParams {
                latency: Duration::from_nanos(1_500),
                jitter: Duration::from_nanos(300),
            },
            loopback: LinkParams {
                latency: Duration::from_nanos(300),
                jitter: Duration::from_nanos(50),
            },
            nic: NicParams {
                line_rate_gbps: 25.0,
                min_wire_bytes: 80,
            },
        }
    }

    /// Kernel TCP preset on the same physical network: one-way ~25 µs
    /// (syscall, interrupt, softirq, copy) with 5 µs jitter. Used by the
    /// libpaxos / ZooKeeper / etcd baselines.
    pub fn tcp() -> Self {
        NetParams {
            default_link: LinkParams {
                latency: Duration::from_micros(25),
                jitter: Duration::from_micros(5),
            },
            loopback: LinkParams {
                latency: Duration::from_micros(5),
                jitter: Duration::from_micros(1),
            },
            nic: NicParams {
                line_rate_gbps: 25.0,
                min_wire_bytes: 64,
            },
        }
    }
}

/// One deterministic what-if counterfactual, applied to a constructed fabric
/// by [`Sim::apply_interventions`](crate::Sim::apply_interventions).
///
/// Every factor is a **time/cost multiplier** — the same convention as
/// [`Sim::set_cpu_scale`](crate::Sim::set_cpu_scale): `> 1` models a slower
/// resource, `< 1` a faster one. A COZ-style virtual speedup of a resource
/// by `k` is therefore `factor = 1.0 / k`. Interventions change *parameters
/// only* — never the RNG draw sequence, the event vocabulary, or any
/// accounting — so an intervened run is exactly "the same workload on
/// different hardware", and the empty set reproduces the uninstrumented run
/// byte-identically.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Intervention {
    /// Scale one node's NIC egress serialization time (0.5 = a NIC with
    /// twice the egress bandwidth).
    EgressTimeScale {
        /// Target node.
        node: NodeId,
        /// Time multiplier.
        factor: f64,
    },
    /// Scale the base propagation latency of *every* link (loopback
    /// included). Jitter and fault-injected transient extras are untouched,
    /// which preserves the RNG draw sequence.
    LinkLatencyScale {
        /// Time multiplier.
        factor: f64,
    },
    /// Scale every CPU charge of one node (composes multiplicatively with
    /// any fault-layer [`Sim::set_cpu_scale`](crate::Sim::set_cpu_scale)).
    CpuScale {
        /// Target node.
        node: NodeId,
        /// Time multiplier.
        factor: f64,
    },
    /// Swap one node's log device for a different cost preset (e.g.
    /// `fsync → pmem`). Records are untouched.
    LogDevice {
        /// Target node.
        node: NodeId,
        /// Replacement device parameters.
        dev: LogDevParams,
    },
}

/// An ordered set of [`Intervention`]s — one counterfactual experiment.
///
/// The default (empty) value is the **null intervention**: applying it is a
/// no-op and must reproduce the uninstrumented run byte-identically
/// (`tests/whatif.rs` holds the proof over the five-system quick matrix).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InterventionSet {
    items: Vec<Intervention>,
}

impl InterventionSet {
    /// The null intervention (same as `Default`).
    pub fn null() -> Self {
        InterventionSet::default()
    }

    /// Append one intervention.
    pub fn push(&mut self, iv: Intervention) {
        self.items.push(iv);
    }

    /// Builder-style [`InterventionSet::push`].
    pub fn with(mut self, iv: Intervention) -> Self {
        self.push(iv);
        self
    }

    /// Whether this is the null intervention.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The interventions, in application order.
    pub fn items(&self) -> &[Intervention] {
        &self.items
    }
}

/// CPU-cost constants shared by the RDMA-based protocols. Centralised here so
/// Acuerdo, Derecho and APUS are costed identically and only their *protocol
/// design* differs (writes per message, commit rule, batching).
pub mod cpu {
    use std::time::Duration;

    /// Cost of posting one RDMA verb (WQE build + doorbell). Calibrated so a
    /// 3-node Acuerdo leader saturates near 300 k msgs/s for 10-byte payloads
    /// (Fig 8a's ~3 MB/s knee).
    pub const VERB_POST: Duration = Duration::from_nanos(1_100);
    /// Cost of ingesting one client request at the leader.
    pub const CLIENT_INGEST: Duration = Duration::from_nanos(600);
    /// Cost of processing one received frame in a poll loop.
    pub const FRAME_PROC: Duration = Duration::from_nanos(150);
    /// Cost of one poll-loop iteration that finds nothing.
    pub const POLL_IDLE: Duration = Duration::from_nanos(60);
    /// Busy-poll loop interval for RDMA protocols.
    pub const POLL_INTERVAL: Duration = Duration::from_nanos(500);

    /// Per-message CPU for kernel-TCP protocol nodes (syscalls + copies).
    pub const TCP_MSG: Duration = Duration::from_micros(3);
    /// Per-send CPU for kernel-TCP protocol nodes (write syscall).
    pub const TCP_SEND: Duration = Duration::from_micros(1);
    /// Extra per-entry cost used by the etcd baseline (gRPC marshalling,
    /// Raft bookkeeping).
    pub const ETCD_ENTRY: Duration = Duration::from_micros(30);
    /// Extra per-entry cost used by the ZooKeeper baseline (request pipeline
    /// threads, serialization, in-memory txn processing).
    pub const ZK_ENTRY: Duration = Duration::from_micros(40);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let r = NetParams::rdma();
        let t = NetParams::tcp();
        assert!(r.default_link.latency < t.default_link.latency);
        assert_eq!(r.nic.min_wire_bytes, 80);
        assert!(r.loopback.latency < r.default_link.latency);
    }

    #[test]
    fn tcp_latency_is_order_of_magnitude_slower() {
        let r = NetParams::rdma();
        let t = NetParams::tcp();
        let ratio =
            t.default_link.latency.as_nanos() as f64 / r.default_link.latency.as_nanos() as f64;
        assert!(ratio > 10.0, "ratio {ratio}");
    }
}
