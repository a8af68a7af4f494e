//! # rdma-sim — simulated RDMA verbs over `simnet`
//!
//! Models the subset of the ibverbs reliable-connection (RC) API that the
//! Acuerdo paper uses, with the performance-relevant behaviours made
//! explicit:
//!
//! * **Memory regions**: each node registers regions in a deterministic order
//!   (the "region plan"); a remote write names `(region, offset)`.
//! * **One-sided writes**: [`Endpoint::post_write`] charges the *sender* a
//!   verb-post CPU cost and puts the payload on the wire; when it arrives the
//!   bytes are deposited into the target's region with **zero target CPU**
//!   ([`simnet::DeliveryClass::Dma`]). Writes on one connection apply in FIFO
//!   order (reliable connection), and a later write to the same address
//!   overwrites an earlier one — the two properties the SST and the implicit
//!   acknowledgment scheme rely on.
//! * **Completions and selective signaling** (§2.1): the sender's NIC keeps a
//!   work request outstanding until it is acknowledged. Because the RC
//!   connection is FIFO, the completion of a later write acknowledges all
//!   earlier ones, so only every `signal_interval`-th write requests a
//!   completion (the paper signals every 1000 messages). A full send queue
//!   makes [`Endpoint::post_write`] fail with [`PostError::QueueFull`].
//! * **Dirty regions**: the endpoint remembers which regions a remote write
//!   landed in since their reader last looked ([`Endpoint::take_dirty`]), so
//!   a busy-poll loop over many regions pays for the ones that changed, not
//!   for the table's width. Host-side bookkeeping only: what a reader finds
//!   in memory, and when, is unchanged.
//!
//! The endpoint is a plain struct embedded in each protocol node; packets
//! travel inside the protocol's own wire enum (which must implement
//! `From<RdmaPkt>`), so one simulation can mix RDMA traffic with client
//! traffic.

use bytes::Bytes;
use simnet::params::cpu;
use simnet::{Counter, Ctx, DeliveryClass, MsgKind, NodeId};
use std::time::Duration;

/// Identifier of a registered memory region. Region ids are assigned in
/// registration order and must be allocated identically on every node (see
/// the region-plan convention in `rdma-prims`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Number of bytes of RDMA header (RETH + BTH + ICRC) added to every write.
pub const WRITE_OVERHEAD: u32 = 30;
/// Wire size of a hardware acknowledgment packet.
pub const ACK_WIRE: u32 = 20;

/// A packet of the simulated RDMA protocol.
#[derive(Clone, Debug)]
pub enum RdmaPkt {
    /// A one-sided write into `(region, offset)` at the destination.
    Write {
        region: RegionId,
        offset: u32,
        data: Bytes,
        /// `Some(wr)` if the sender requested a completion for work request
        /// index `wr` (selective signaling).
        signal: Option<u64>,
    },
    /// A one-sided read of `(region, offset, len)` at the destination
    /// (served by the target NIC with no target CPU).
    Read {
        region: RegionId,
        offset: u32,
        len: u32,
        /// Caller-chosen token echoed in the response.
        token: u64,
    },
    /// Data returned for a [`RdmaPkt::Read`].
    ReadResp { token: u64, data: Bytes },
    /// Hardware acknowledgment: completes every work request `<= upto` on the
    /// reverse connection.
    Ack { upto: u64 },
}

/// Why a post failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PostError {
    /// The send queue toward this peer is full (outstanding, unacknowledged
    /// work requests reached `sq_depth`). The paper's systems treat this as
    /// backpressure.
    QueueFull,
    /// No queue pair was set up toward this peer.
    NoConnection,
}

/// Per-peer reliable-connection state.
#[derive(Debug)]
struct Qp {
    /// Index of the next work request to post.
    next_wr: u64,
    /// Highest work request known completed (via an [`RdmaPkt::Ack`]).
    completed: u64,
    /// Writes posted since the last signaled one.
    unsignaled: u32,
}

/// Configuration for all of a node's queue pairs.
#[derive(Copy, Clone, Debug)]
pub struct QpConfig {
    /// Maximum outstanding (posted, not completed) work requests per peer.
    pub sq_depth: u32,
    /// Request a completion every this many writes (selective signaling; the
    /// paper uses 1000).
    pub signal_interval: u32,
    /// CPU charged to the sender per posted verb.
    pub post_cost: Duration,
}

impl Default for QpConfig {
    fn default() -> Self {
        QpConfig {
            sq_depth: 4096,
            signal_interval: 1000,
            post_cost: cpu::VERB_POST,
        }
    }
}

/// One node's RDMA endpoint: registered memory plus queue pairs to peers.
pub struct Endpoint {
    regions: Vec<Vec<u8>>,
    /// Per region: a remote write landed in it since [`Endpoint::take_dirty`]
    /// last cleared the flag. A fresh region starts dirty (its reader has
    /// never looked); the owner's own `write_local`/`zero_local` do not mark
    /// it, the owner knows what it wrote.
    dirty: Vec<bool>,
    /// Queue pairs indexed by peer id (node ids are dense, so a flat table
    /// beats hashing on the per-post hot path).
    qps: Vec<Option<Qp>>,
    config: QpConfig,
    /// Completed one-sided reads, drained with
    /// [`Endpoint::take_read_completions`].
    reads_done: Vec<(u64, Bytes)>,
    /// Total one-sided writes applied into local memory.
    pub writes_applied: u64,
    /// Total writes posted by this endpoint.
    pub writes_posted: u64,
}

impl Endpoint {
    /// Create an endpoint with the given queue-pair configuration.
    pub fn new(config: QpConfig) -> Self {
        Endpoint {
            regions: Vec::new(),
            dirty: Vec::new(),
            qps: Vec::new(),
            config,
            reads_done: Vec::new(),
            writes_applied: 0,
            writes_posted: 0,
        }
    }

    /// Register a zero-initialised memory region of `len` bytes and return
    /// its id. Registration order must match on all nodes.
    pub fn register_region(&mut self, len: usize) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(vec![0; len]);
        self.dirty.push(true);
        id
    }

    /// Whether a remote write landed in `region` since the last call (or
    /// since registration), clearing the flag. One reader per region: a
    /// poller that finds `false` would read the bytes it read last time.
    pub fn take_dirty(&mut self, region: RegionId) -> bool {
        std::mem::take(&mut self.dirty[region.0 as usize])
    }

    /// Establish a reliable connection toward `peer` (exchange of rkeys in
    /// the real protocol; a bookkeeping entry here).
    pub fn connect(&mut self, peer: NodeId) {
        if peer >= self.qps.len() {
            self.qps.resize_with(peer + 1, || None);
        }
        self.qps[peer].get_or_insert(Qp {
            next_wr: 0,
            completed: 0,
            unsignaled: 0,
        });
    }

    /// Tear down and re-establish the connection toward `peer`: all
    /// outstanding work requests are discarded and work-request numbering
    /// restarts at zero. Called when `peer` reboots (its old incarnation can
    /// never ack the in-flight requests).
    pub fn reset_connection(&mut self, peer: NodeId) {
        if let Some(qp) = self.qps.get_mut(peer).and_then(Option::as_mut) {
            qp.next_wr = 0;
            qp.completed = 0;
            qp.unsignaled = 0;
        }
    }

    /// Whether `k` more posts toward `peer` would fit in the send queue.
    pub fn can_post(&self, peer: NodeId, k: u32) -> bool {
        match self.qps.get(peer).and_then(Option::as_ref) {
            Some(q) => q.next_wr - q.completed + u64::from(k) <= u64::from(self.config.sq_depth),
            None => false,
        }
    }

    /// Outstanding (not yet completed) work requests toward `peer`.
    pub fn outstanding(&self, peer: NodeId) -> u64 {
        self.qps
            .get(peer)
            .and_then(Option::as_ref)
            .map(|q| q.next_wr - q.completed)
            .unwrap_or(0)
    }

    /// Read `len` bytes of local region memory.
    ///
    /// # Panics
    /// On out-of-range access (a protocol bug, not a runtime condition).
    pub fn read(&self, region: RegionId, offset: u32, len: usize) -> &[u8] {
        let r = &self.regions[region.0 as usize];
        &r[offset as usize..offset as usize + len]
    }

    /// Write local region memory (the local half of an SST update, before
    /// pushing to peers).
    pub fn write_local(&mut self, region: RegionId, offset: u32, data: &[u8]) {
        let r = &mut self.regions[region.0 as usize];
        r[offset as usize..offset as usize + data.len()].copy_from_slice(data);
    }

    /// Zero `len` bytes of local region memory (ring consumption) without
    /// materializing a zero buffer.
    pub fn zero_local(&mut self, region: RegionId, offset: u32, len: usize) {
        let r = &mut self.regions[region.0 as usize];
        r[offset as usize..offset as usize + len].fill(0);
    }

    /// Length of a region, in bytes.
    pub fn region_len(&self, region: RegionId) -> usize {
        self.regions[region.0 as usize].len()
    }

    /// Post a one-sided write of `data` into `(region, offset)` at `dst`.
    ///
    /// Charges the verb-post CPU cost, consumes a send-queue slot, and
    /// requests a completion every `signal_interval` posts. The write is
    /// delivered [`DeliveryClass::Dma`]: it lands in the target's memory even
    /// if the target process is descheduled. `kind` classifies the bytes for
    /// the resource-accounting layer (the caller knows whether this write
    /// carries payload, an SST/ack row, a retransmission, or control state —
    /// the verb layer does not).
    pub fn post_write<M: From<RdmaPkt>>(
        &mut self,
        ctx: &mut Ctx<M>,
        dst: NodeId,
        region: RegionId,
        offset: u32,
        data: Bytes,
        kind: MsgKind,
    ) -> Result<(), PostError> {
        let cfg = self.config;
        let qp = self
            .qps
            .get_mut(dst)
            .and_then(Option::as_mut)
            .ok_or(PostError::NoConnection)?;
        if qp.next_wr - qp.completed >= u64::from(cfg.sq_depth) {
            return Err(PostError::QueueFull);
        }
        let wr = qp.next_wr;
        qp.next_wr += 1;
        qp.unsignaled += 1;
        let signal = if qp.unsignaled >= cfg.signal_interval {
            qp.unsignaled = 0;
            Some(wr)
        } else {
            None
        };
        self.writes_posted += 1;
        ctx.count(Counter::VerbPosts, 1);
        ctx.use_cpu(cfg.post_cost);
        let wire = data.len() as u32 + WRITE_OVERHEAD;
        ctx.send_kind(
            dst,
            DeliveryClass::Dma,
            wire,
            kind,
            M::from(RdmaPkt::Write {
                region,
                offset,
                data,
                signal,
            }),
        );
        Ok(())
    }

    /// Post a one-sided read of `(region, offset, len)` at `dst`; the data
    /// arrives later as a completion drained with
    /// [`Endpoint::take_read_completions`]. The target's CPU is never
    /// involved — its NIC serves the bytes (this is the "gets bypass the
    /// broadcast instance" path of §4.3 and DARE's log-probe primitive).
    pub fn post_read<M: From<RdmaPkt>>(
        &mut self,
        ctx: &mut Ctx<M>,
        dst: NodeId,
        region: RegionId,
        offset: u32,
        len: u32,
        token: u64,
    ) -> Result<(), PostError> {
        let cfg = self.config;
        let qp = self
            .qps
            .get_mut(dst)
            .and_then(Option::as_mut)
            .ok_or(PostError::NoConnection)?;
        if qp.next_wr - qp.completed >= u64::from(cfg.sq_depth) {
            return Err(PostError::QueueFull);
        }
        // Reads are always "signaled": the response is the completion.
        qp.next_wr += 1;
        qp.completed += 1; // retired by the response itself
        ctx.count(Counter::VerbPosts, 1);
        ctx.use_cpu(cfg.post_cost);
        ctx.send(
            dst,
            DeliveryClass::Dma,
            WRITE_OVERHEAD,
            M::from(RdmaPkt::Read {
                region,
                offset,
                len,
                token,
            }),
        );
        Ok(())
    }

    /// Drain data returned by completed [`Endpoint::post_read`]s, in
    /// completion order, as `(token, data)` pairs.
    pub fn take_read_completions(&mut self) -> Vec<(u64, Bytes)> {
        std::mem::take(&mut self.reads_done)
    }

    /// Handle an incoming RDMA packet. For a write, deposits the bytes into
    /// local memory (no CPU charge — this is the NIC) and emits a hardware
    /// ack if a completion was requested. For a read, serves the bytes from
    /// local memory (again the NIC, no CPU). For an ack, retires send-queue
    /// slots.
    pub fn on_packet<M: From<RdmaPkt>>(&mut self, ctx: &mut Ctx<M>, from: NodeId, pkt: RdmaPkt) {
        match pkt {
            RdmaPkt::Write {
                region,
                offset,
                data,
                signal,
            } => {
                // NIC-side rkey/bounds check: a write through a stale view
                // of this endpoint's region table (the sender targeting a
                // region a reboot de-registered) is dropped, not applied —
                // real hardware fails the rkey validation. The resync
                // handshake retargets the stream afterwards.
                let in_bounds = self
                    .regions
                    .get(region.0 as usize)
                    .is_some_and(|r| offset as usize + data.len() <= r.len());
                if !in_bounds {
                    ctx.count(Counter::RkeyDrops, 1);
                    return;
                }
                self.writes_applied += 1;
                ctx.count(Counter::DmaWritesApplied, 1);
                self.write_local(region, offset, &data);
                self.dirty[region.0 as usize] = true;
                if let Some(wr) = signal {
                    // Generated by the NIC: no CPU charge.
                    ctx.send_kind(
                        from,
                        DeliveryClass::Dma,
                        ACK_WIRE,
                        MsgKind::Ack,
                        M::from(RdmaPkt::Ack { upto: wr }),
                    );
                }
            }
            RdmaPkt::Read {
                region,
                offset,
                len,
                token,
            } => {
                // Same rkey/bounds check as for writes: a read through a
                // stale region table is dropped (no response; the reader's
                // request simply times out, as on real hardware).
                let in_bounds = self
                    .regions
                    .get(region.0 as usize)
                    .is_some_and(|r| offset as usize + len as usize <= r.len());
                if !in_bounds {
                    ctx.count(Counter::RkeyDrops, 1);
                    return;
                }
                let data = Bytes::copy_from_slice(self.read(region, offset, len as usize));
                ctx.send(
                    from,
                    DeliveryClass::Dma,
                    len + WRITE_OVERHEAD,
                    M::from(RdmaPkt::ReadResp { token, data }),
                );
            }
            RdmaPkt::ReadResp { token, data } => {
                ctx.count(Counter::CompletionsPolled, 1);
                self.reads_done.push((token, data));
            }
            RdmaPkt::Ack { upto } => {
                if let Some(qp) = self.qps.get_mut(from).and_then(Option::as_mut) {
                    let before = qp.completed;
                    // The min-clamp discards acks from a peer's previous
                    // incarnation after a connection reset: a completion can
                    // never outrun what this connection actually posted.
                    qp.completed = qp.completed.max(upto + 1).min(qp.next_wr);
                    ctx.count(Counter::CompletionsPolled, qp.completed - before);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetParams, Process, Sim, SimTime};

    /// Test node: an endpoint plus a script of writes to fire at start.
    struct TestNode {
        ep: Endpoint,
        script: Vec<(NodeId, RegionId, u32, Vec<u8>)>,
        post_errors: Vec<PostError>,
    }

    #[derive(Clone, Debug)]
    struct Wire(RdmaPkt);
    impl From<RdmaPkt> for Wire {
        fn from(p: RdmaPkt) -> Self {
            Wire(p)
        }
    }

    impl Process<Wire> for TestNode {
        fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
            let script = std::mem::take(&mut self.script);
            for (dst, region, offset, data) in script {
                if let Err(e) = self.ep.post_write(
                    ctx,
                    dst,
                    region,
                    offset,
                    Bytes::from(data),
                    MsgKind::Payload,
                ) {
                    self.post_errors.push(e);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
            self.ep.on_packet(ctx, from, msg.0);
        }
    }

    fn two_nodes(cfg: QpConfig) -> (Sim<Wire>, NodeId, NodeId) {
        let mut sim = Sim::new(1, NetParams::rdma());
        let mk = || {
            let mut ep = Endpoint::new(cfg);
            ep.register_region(1024);
            ep.connect(0);
            ep.connect(1);
            TestNode {
                ep,
                script: vec![],
                post_errors: vec![],
            }
        };
        let a = sim.add_node(Box::new(mk()));
        let b = sim.add_node(Box::new(mk()));
        (sim, a, b)
    }

    #[test]
    fn write_lands_in_remote_memory() {
        let (mut sim, a, b) = two_nodes(QpConfig::default());
        sim.node_mut::<TestNode>(a)
            .script
            .push((b, RegionId(0), 16, vec![7, 8, 9]));
        sim.run_until(SimTime::from_millis(1));
        let n = sim.node::<TestNode>(b);
        assert_eq!(n.ep.read(RegionId(0), 16, 3), &[7, 8, 9]);
        assert_eq!(n.ep.writes_applied, 1);
    }

    #[test]
    fn remote_writes_mark_their_region_dirty_and_nothing_else_does() {
        let (mut sim, a, b) = two_nodes(QpConfig::default());
        {
            let n = sim.node_mut::<TestNode>(b);
            let second = n.ep.register_region(64);
            assert!(n.ep.take_dirty(RegionId(0)), "a fresh region starts dirty");
            assert!(!n.ep.take_dirty(RegionId(0)), "taking clears the flag");
            assert!(n.ep.take_dirty(second));
            n.ep.write_local(RegionId(0), 0, &[1]);
            n.ep.zero_local(RegionId(0), 0, 1);
            assert!(!n.ep.take_dirty(RegionId(0)), "the owner's own writes mark");
        }
        // One applied write into region 0, one the rkey check drops.
        let script = &mut sim.node_mut::<TestNode>(a).script;
        script.push((b, RegionId(0), 16, vec![7]));
        script.push((b, RegionId(9), 0, vec![7]));
        sim.run_until(SimTime::from_millis(1));
        let n = sim.node_mut::<TestNode>(b);
        assert_eq!(n.ep.writes_applied, 1);
        assert!(n.ep.take_dirty(RegionId(0)));
        assert!(!n.ep.take_dirty(RegionId(1)), "a write elsewhere marked");
        assert!(!n.ep.take_dirty(RegionId(0)));
    }

    #[test]
    fn writes_apply_in_fifo_order_and_overwrite() {
        let (mut sim, a, b) = two_nodes(QpConfig::default());
        {
            let n = sim.node_mut::<TestNode>(a);
            for v in 1..=50u8 {
                n.script.push((b, RegionId(0), 0, vec![v]));
            }
        }
        sim.run_until(SimTime::from_millis(1));
        // Last write wins: FIFO order means the final value is 50.
        assert_eq!(sim.node::<TestNode>(b).ep.read(RegionId(0), 0, 1), &[50]);
    }

    #[test]
    fn write_lands_while_target_descheduled() {
        let (mut sim, a, b) = two_nodes(QpConfig::default());
        sim.pause_at(b, SimTime::ZERO, Duration::from_millis(10));
        sim.node_mut::<TestNode>(a)
            .script
            .push((b, RegionId(0), 0, vec![42]));
        // Run only 1 ms: the target process is still paused, yet memory
        // already holds the data — the one-sidedness property.
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.node::<TestNode>(b).ep.read(RegionId(0), 0, 1), &[42]);
    }

    #[test]
    fn selective_signaling_acks_periodically() {
        let cfg = QpConfig {
            sq_depth: 4096,
            signal_interval: 10,
            post_cost: Duration::ZERO,
        };
        let (mut sim, a, b) = two_nodes(cfg);
        {
            let n = sim.node_mut::<TestNode>(a);
            for _ in 0..25 {
                n.script.push((b, RegionId(0), 0, vec![1]));
            }
        }
        sim.run_until(SimTime::from_millis(1));
        let n = sim.node::<TestNode>(a);
        // Signals at wr 9 and wr 19 → completed = 20; 5 still outstanding.
        assert_eq!(n.ep.outstanding(b), 5);
    }

    #[test]
    fn queue_full_backpressure() {
        let cfg = QpConfig {
            sq_depth: 8,
            signal_interval: 1000, // never signals within depth → fills up
            post_cost: Duration::ZERO,
        };
        let (mut sim, a, b) = two_nodes(cfg);
        {
            let n = sim.node_mut::<TestNode>(a);
            for _ in 0..12 {
                n.script.push((b, RegionId(0), 0, vec![1]));
            }
        }
        sim.run_until(SimTime::from_millis(1));
        let n = sim.node::<TestNode>(a);
        assert_eq!(n.post_errors.len(), 4);
        assert!(n.post_errors.iter().all(|e| *e == PostError::QueueFull));
        assert_eq!(sim.node::<TestNode>(b).ep.writes_applied, 8);
    }

    #[test]
    fn no_connection_error() {
        let mut ep = Endpoint::new(QpConfig::default());
        ep.register_region(64);
        let mut sim: Sim<Wire> = Sim::new(3, NetParams::rdma());
        let a = sim.add_node(Box::new(TestNode {
            ep,
            script: vec![(1, RegionId(0), 0, vec![1])],
            post_errors: vec![],
        }));
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(
            sim.node::<TestNode>(a).post_errors,
            vec![PostError::NoConnection]
        );
    }

    #[test]
    fn posts_consume_sender_cpu() {
        let cfg = QpConfig {
            post_cost: Duration::from_micros(2),
            ..QpConfig::default()
        };
        let (mut sim, a, b) = two_nodes(cfg);
        {
            let n = sim.node_mut::<TestNode>(a);
            for _ in 0..10 {
                n.script.push((b, RegionId(0), 0, vec![1]));
            }
        }
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.node::<TestNode>(b).ep.writes_applied, 10);
        assert!(sim.stats().dma_msgs >= 10);
    }

    #[test]
    fn local_read_write_roundtrip() {
        let mut ep = Endpoint::new(QpConfig::default());
        let r = ep.register_region(128);
        assert_eq!(ep.region_len(r), 128);
        ep.write_local(r, 100, &[1, 2, 3]);
        assert_eq!(ep.read(r, 100, 3), &[1, 2, 3]);
        assert_eq!(ep.read(r, 0, 4), &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        let mut ep = Endpoint::new(QpConfig::default());
        let r = ep.register_region(8);
        let _ = ep.read(r, 4, 8);
    }

    #[test]
    fn region_ids_are_sequential() {
        let mut ep = Endpoint::new(QpConfig::default());
        assert_eq!(ep.register_region(8), RegionId(0));
        assert_eq!(ep.register_region(8), RegionId(1));
        assert_eq!(ep.register_region(8), RegionId(2));
    }

    /// Node that reads remote memory at start and collects completions on a
    /// poll timer.
    struct Reader {
        ep: Endpoint,
        target: NodeId,
        got: Vec<(u64, Vec<u8>)>,
    }

    impl Process<Wire> for Reader {
        fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
            self.ep
                .post_read(ctx, self.target, RegionId(0), 16, 3, 77)
                .unwrap();
            self.ep
                .post_read(ctx, self.target, RegionId(0), 0, 2, 78)
                .unwrap();
            ctx.set_timer(Duration::from_micros(1), 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
            self.ep.on_packet(ctx, from, msg.0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
            for (tok, data) in self.ep.take_read_completions() {
                self.got.push((tok, data.to_vec()));
            }
            ctx.set_timer(Duration::from_micros(1), 0);
        }
    }

    #[test]
    fn one_sided_read_returns_remote_bytes_without_target_cpu() {
        let mut sim: Sim<Wire> = Sim::new(2, NetParams::rdma());
        let mut rep = Endpoint::new(QpConfig::default());
        rep.connect(1);
        rep.register_region(64);
        let reader = sim.add_node(Box::new(Reader {
            ep: rep,
            target: 1,
            got: vec![],
        }));
        let mut tep = Endpoint::new(QpConfig::default());
        tep.connect(0);
        tep.register_region(64);
        tep.write_local(RegionId(0), 16, &[7, 8, 9]);
        tep.write_local(RegionId(0), 0, &[1, 2]);
        let target = sim.add_node(Box::new(TestNode {
            ep: tep,
            script: vec![],
            post_errors: vec![],
        }));
        // The target process is descheduled for the whole run: the NIC
        // serves the reads anyway.
        sim.pause_at(target, SimTime::ZERO, Duration::from_millis(10));
        sim.run_until(SimTime::from_millis(1));
        let got = &sim.node::<Reader>(reader).got;
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (77, vec![7, 8, 9]));
        assert_eq!(got[1], (78, vec![1, 2]));
    }

    #[test]
    fn read_requires_connection() {
        let mut ep = Endpoint::new(QpConfig::default());
        ep.register_region(8);
        let mut sim: Sim<Wire> = Sim::new(3, NetParams::rdma());
        struct NoConn {
            ep: Endpoint,
            err: Option<PostError>,
        }
        impl Process<Wire> for NoConn {
            fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
                self.err = self.ep.post_read(ctx, 1, RegionId(0), 0, 4, 0).err();
            }
            fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
                self.ep.on_packet(ctx, from, msg.0);
            }
        }
        let a = sim.add_node(Box::new(NoConn { ep, err: None }));
        sim.run_until(SimTime::from_micros(10));
        assert_eq!(sim.node::<NoConn>(a).err, Some(PostError::NoConnection));
    }
}
