//! # abcast — shared atomic-broadcast machinery
//!
//! Everything that is common across Acuerdo and the six baseline systems:
//!
//! * [`types`]: the epoch / message-header / vote types of Figure 1 of the
//!   paper, with their total orders and fixed-size codecs;
//! * [`client`]: the closed-loop window client used by the §4.1 broadcast
//!   experiments (at most `window` outstanding messages) and the open-loop
//!   client used by the §4.2 election experiment;
//! * [`app`]: the delivery interface between a broadcast protocol and the
//!   replicated application (a recording log by default; the replicated hash
//!   table of §4.3 in the `kvstore` crate);
//! * [`instrument`]: the one entry lifecycle every protocol node calls —
//!   admit (the `leader_recv` mark and the origin record), then commit,
//!   deliver and answer;
//! * [`check`]: executable versions of the §2.2 correctness properties —
//!   Integrity, No Duplication, Total Order — applied to recorded delivery
//!   histories, plus the online invariant [`Auditor`] every protocol node
//!   feeds from its poll/commit path;
//! * [`stats`]: log-bucketed latency histograms, per-stage commit-latency
//!   anatomy ([`StageHist`]), and run summaries;
//! * [`replica`]: the [`Replica`] trait — the one adapter a protocol supplies
//!   so the protocol-agnostic harness can build, drive and check it;
//! * [`spans`]: assembly of recorded lifecycle span marks into per-message
//!   lifecycles (`submit → … → client_resp`);
//! * [`wal`]: the durable modes' journal: one record format, one replay
//!   driver, and the promise floor every durable protocol must restore;
//! * [`workload`]: payload generators, including the YCSB-load zipfian
//!   (θ = 0.99) key distribution of §4.3.

pub mod app;
pub mod check;
pub mod client;
pub mod forensics;
pub mod instrument;
pub mod replica;
pub mod spans;
pub mod stats;
pub mod types;
pub mod wal;
pub mod workload;

pub use app::{snapshot_as, App, DeliveryLog, Snapshot};
pub use check::{check_histories, AuditReport, Auditor, DurabilityAuditor, Violation};
pub use client::{ClientPort, ClientReq, ClientResp, OpenLoopClient, WindowClient};
pub use forensics::{blame, Blame, BlameCause};
pub use instrument::{Committed, Instrument};
pub use replica::{check_cluster, cluster_with_client, enable_restarts, histories, Replica};
pub use spans::{hdr_span, Lifecycle};
pub use stats::{LatencyHist, RunResult, StageClass, StageHist};
pub use types::{Epoch, MsgHdr, Vote};

/// Client requests a leader holds unfinished (log entries, pending
/// proposals, unstable frames) before it drops new ones. One bound for every
/// protocol; the benchmarks stay far below it.
pub const MAX_BACKLOG: usize = 1 << 20;
