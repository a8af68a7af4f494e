//! # simnet — deterministic discrete-event network simulator
//!
//! This crate is the substrate substitution for the CloudLab RDMA testbed used
//! by the Acuerdo paper (ICPP '22). It provides:
//!
//! * a **virtual clock** with nanosecond resolution and a stable event queue
//!   (ties broken by insertion order, so runs are fully deterministic);
//! * **per-node CPU accounting**: handlers charge [`Ctx::use_cpu`], and further
//!   CPU-class events for a busy node are deferred until the node frees up;
//! * a **NIC/link model**: per-node egress and ingress serialization at line
//!   rate, per-link propagation latency plus bounded uniform jitter, a minimum
//!   wire size (RDMA messages are never smaller than 80 bytes on the wire),
//!   and forced per-(src, dst) FIFO delivery — the reliable-connection
//!   property Acuerdo leans on;
//! * two **delivery classes**: [`DeliveryClass::Dma`] messages are handed to
//!   the destination at delivery time even if its process is busy or
//!   descheduled (this is how one-sided RDMA writes land in registered memory
//!   without waking the remote CPU), while [`DeliveryClass::Cpu`] messages
//!   queue behind the destination's busy time (kernel TCP);
//! * **fault injection**: crash and crash→restart (a rebooted node gets a
//!   fresh process from a per-node factory, reset NIC state, and a new
//!   incarnation so pre-crash in-flight deliveries are dropped), pause (the
//!   election experiment puts a leader to sleep for five seconds),
//!   descheduling profiles for "long-latency" nodes, per-link extra latency
//!   for transient network hiccups, and directed partitions
//!   ([`Sim::partition`] / [`Sim::heal`]) that model RC connection breakage.
//!   Every fault flows through the ordinary event queue, so traced and
//!   replayed runs stay bit-identical.
//!
//! Protocol nodes are sans-IO state machines implementing [`Process`]; all
//! effects flow through [`Ctx`], so protocol logic contains no wall-clock
//! time, no real I/O, and no hidden nondeterminism.

mod ctx;
pub mod disk;
mod engine;
pub mod hash;
mod net;
pub mod params;
mod registry;
pub mod sched;
pub mod threaded;
mod time;
pub mod trace;

pub use ctx::{Ctx, DeliveryClass};
pub use disk::{Checkpoint, DurabilityMode, DurableLog, LogDevParams};
pub use engine::{DeschedProfile, EngineStats, IdlePoll, Process, Sim};
pub use hash::{FastMap, FastSet};
pub use net::{LinkParams, NicParams};
pub use params::{Intervention, InterventionSet, NetParams};
pub use sched::SchedKind;
pub use threaded::ThreadedRunner;
pub use time::SimTime;
pub use trace::{
    client_span, cpu_slot_name, json_escape, msg_span, msg_span_parts, CommitForensics, Counter,
    CounterSet, DirStats, Event, ForensicMark, ForensicsSnapshot, Gauge, GaugeSample, GaugeSet,
    LinkRes, MetricsSnapshot, MsgKind, NodeRes, Probe, ResourceSnapshot, SpanStage, TraceEvent,
    WaitReason, WaitStats, CPU_SLOTS, CPU_SLOT_IDLE, CPU_SLOT_OTHER, OUTLIER_RING_DEPTH,
};

/// Identifier of a node (process) inside one simulation.
///
/// Node ids are dense indices assigned by [`Sim::add_node`] in spawn order.
pub type NodeId = usize;
