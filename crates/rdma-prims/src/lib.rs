//! # rdma-prims — the paper's RDMA communication primitives
//!
//! Two building blocks sit under every RDMA protocol in this reproduction:
//!
//! * the **Shared State Table** ([`sst::Sst`], §3.1/Figure 2 of the paper): a
//!   replicated array indexed by node id where each node owns exactly its own
//!   slot and pushes updates with one-sided writes. Because later writes to
//!   the same address overwrite earlier ones, and the receiver only cares
//!   about the *last* value (monotone counters, latest accepted header), a
//!   slot push implicitly acknowledges everything older — the paper's key
//!   trick for avoiding per-message acknowledgments;
//! * the **RDMA ring buffer** ([`ring`], §3.2): a single-sender,
//!   single-receiver mirrored byte ring into which the sender RDMA-writes
//!   framed messages and from which the receiver polls batches (receiver-side
//!   batching). Two framings are provided, because the Acuerdo/Derecho
//!   bandwidth gap in §4.1 comes down to this choice:
//!   [`ring::RingMode::Coupled`] writes data and metadata in **one** RDMA
//!   write (Acuerdo), [`ring::RingMode::Split`] writes data and then a
//!   separate message counter — **two** writes (Derecho).
//!
//! Both primitives are plain values embedded in protocol nodes and operate on
//! an [`rdma_sim::Endpoint`].

pub mod codec;
pub mod ring;
pub mod sst;

pub use codec::FixedCodec;
pub use ring::{RingError, RingFrame, RingMode, RingReceiver, RingSender};
pub use sst::Sst;
