//! # apus — the RDMA Paxos baseline
//!
//! A performance-faithful reimplementation of APUS (Wang et al., SoCC '17)
//! over the simulated RDMA fabric. APUS is leader-based like Acuerdo, but
//! its Paxos core (derived from "Paxos made practical") runs **one
//! consensus instance per batch and allows only a single pending batch at a
//! time** — the property §4.1 of the Acuerdo paper identifies as its
//! bottleneck: any delay on any message of the in-flight batch stalls the
//! entire system, and between batches the pipeline drains.
//!
//! Mechanics modeled here:
//!
//! * the leader writes each client message into the followers' logs with
//!   one-sided writes (through a ring, one write per follower per message),
//!   closes the batch with a small batch-end marker, and only then may open
//!   the next batch once a **quorum** of followers acknowledged the batch;
//! * followers acknowledge *batches*, not messages, through a one-slot SST
//!   (APUS's "more effective acknowledgment implementation that avoids the
//!   use of RDMA completion queues");
//! * commits propagate to followers through a commit counter the leader
//!   pushes off the critical path.
//!
//! Leader failure handling is Raft-style in real APUS; it is not modeled
//! here because the Acuerdo paper's APUS experiments are stable-network only
//! (see DESIGN.md).

use abcast::{
    hdr_span, App, ClientReq, ClientResp, Committed, DeliveryLog, Epoch, Instrument, MsgHdr,
    Replica, MAX_BACKLOG,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rdma_prims::{RingMode, RingReceiver, RingSender, Sst};
use rdma_sim::{Endpoint, QpConfig, RdmaPkt, RegionId};
use simnet::params::cpu;
use simnet::{Ctx, MsgKind, NetParams, NodeId, Process, Sim, SpanStage};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Configuration of one APUS instance.
#[derive(Clone, Debug)]
pub struct ApusConfig {
    /// Number of replicas.
    pub n: usize,
}

impl Default for ApusConfig {
    fn default() -> Self {
        ApusConfig { n: 3 }
    }
}

/// Wire type of an APUS simulation.
#[derive(Clone, Debug)]
pub enum ApWire {
    /// One-sided RDMA traffic.
    Rdma(RdmaPkt),
    /// Client request.
    Req(ClientReq),
    /// Client response.
    Resp(ClientResp),
}

impl From<RdmaPkt> for ApWire {
    fn from(p: RdmaPkt) -> Self {
        ApWire::Rdma(p)
    }
}

impl abcast::ClientPort for ApWire {
    fn request(req: ClientReq) -> Self {
        ApWire::Req(req)
    }
    fn response(&self) -> Option<ClientResp> {
        match self {
            ApWire::Resp(r) => Some(*r),
            _ => None,
        }
    }
}

enum Frame {
    Data {
        idx: u64,
        client: NodeId,
        id: u64,
        payload: Bytes,
    },
    BatchEnd {
        batch: u64,
        upto: u64,
    },
}

fn encode_frame(f: &Frame) -> Bytes {
    let mut buf = BytesMut::new();
    match f {
        Frame::Data {
            idx,
            client,
            id,
            payload,
        } => {
            buf.put_u8(1);
            buf.put_u64_le(*idx);
            buf.put_u32_le(*client as u32);
            buf.put_u64_le(*id);
            buf.put_slice(payload);
        }
        Frame::BatchEnd { batch, upto } => {
            buf.put_u8(2);
            buf.put_u64_le(*batch);
            buf.put_u64_le(*upto);
        }
    }
    buf.freeze()
}

fn decode_frame(mut raw: Bytes) -> Option<Frame> {
    if raw.is_empty() {
        return None;
    }
    match raw.get_u8() {
        1 => {
            if raw.len() < 20 {
                return None;
            }
            let idx = raw.get_u64_le();
            let client = raw.get_u32_le() as NodeId;
            let id = raw.get_u64_le();
            Some(Frame::Data {
                idx,
                client,
                id,
                payload: raw,
            })
        }
        2 => {
            if raw.len() < 16 {
                return None;
            }
            Some(Frame::BatchEnd {
                batch: raw.get_u64_le(),
                upto: raw.get_u64_le(),
            })
        }
        _ => None,
    }
}

const TOK_POLL: u64 = 1;
/// Bytes per ring buffer.
const RING_BYTES: usize = 1 << 20;
/// Maximum messages per batch (a batch holds at most one message per
/// logical client; the window acts as the client count).
const MAX_BATCH: usize = 1024;
/// Followers acknowledge batches at most this often ("the remote acceptor
/// periodically acknowledges batches of messages", §5).
const ACK_INTERVAL: Duration = Duration::from_micros(5);
/// Per-message CPU for the separate consensus instance APUS runs on every
/// message (§4.1 calls this its major bottleneck).
const INSTANCE_COST: Duration = Duration::from_nanos(1200);
const DELIVER_COST: Duration = Duration::from_nanos(100);

/// One APUS replica. Replica 0 is the fixed leader.
pub struct ApusNode {
    cfg: ApusConfig,
    me: usize,

    ep: Endpoint,
    out_ring: RingSender,
    in_rings: Vec<RingReceiver>,
    /// Follower's highest acknowledged batch id.
    ack_sst: Sst<u64>,
    /// Leader's committed message count.
    commit_sst: Sst<u64>,

    // Leader state.
    pending: VecDeque<(NodeId, u64, Bytes)>,
    next_idx: u64,
    next_batch: u64,
    /// `(batch id, last message idx)` currently awaiting quorum.
    in_flight: Option<(u64, u64)>,
    /// Per-follower (batch id, ring lane seq of the batch-end frame) for
    /// slot reuse.
    lane_marks: Vec<VecDeque<(u64, u64)>>,
    instrument: Instrument<u64>,

    // Replica state.
    log: BTreeMap<u64, Bytes>,
    delivered: u64,
    committed_count: u64,

    /// The replicated application.
    pub app: Box<dyn App>,
    /// Batches the leader has closed.
    pub batches_sent: u64,
    /// Follower-side: pending ack and when the last ack went out.
    pending_ack: Option<u64>,
    last_ack_at: simnet::SimTime,
}

impl ApusNode {
    /// Build replica `me` (simulation ids `0..n`; replica 0 leads).
    pub fn new(cfg: ApusConfig, me: usize) -> Self {
        let n = cfg.n;
        assert!(me < n);
        let mut ep = Endpoint::new(QpConfig::default());
        let mut in_rings = Vec::with_capacity(n);
        for _ in 0..n {
            let r = ep.register_region(RING_BYTES);
            in_rings.push(RingReceiver::new(r, RING_BYTES, RingMode::Coupled));
        }
        let ack_sst = Sst::<u64>::register(&mut ep, n, me);
        let commit_sst = Sst::<u64>::register(&mut ep, n, me);
        for p in 0..n {
            ep.connect(p);
        }
        let peers: Vec<NodeId> = (0..n).collect();
        let out_ring = RingSender::new(RegionId(me as u32), RING_BYTES, RingMode::Coupled, &peers);
        ApusNode {
            me,
            ep,
            out_ring,
            in_rings,
            ack_sst,
            commit_sst,
            pending: VecDeque::new(),
            next_idx: 0,
            next_batch: 1,
            in_flight: None,
            lane_marks: (0..n).map(|_| VecDeque::new()).collect(),
            instrument: Instrument::new(DELIVER_COST, Duration::ZERO),
            log: BTreeMap::new(),
            delivered: 0,
            committed_count: 0,
            app: Box::<DeliveryLog>::default(),
            batches_sent: 0,
            pending_ack: None,
            last_ack_at: simnet::SimTime::ZERO,
            cfg,
        }
    }

    fn is_leader(&self) -> bool {
        self.me == 0
    }

    /// The header message `idx` is delivered under.
    fn hdr(idx: u64) -> MsgHdr {
        MsgHdr::new(Epoch::new(1, 0), idx as u32 + 1)
    }

    fn quorum(&self) -> usize {
        self.cfg.n / 2 + 1
    }

    // ---- leader ---------------------------------------------------------------

    fn on_client_request(&mut self, ctx: &mut Ctx<ApWire>, from: NodeId, req: ClientReq) {
        if !self.is_leader() || self.pending.len() >= MAX_BACKLOG {
            return;
        }
        ctx.use_cpu_at(SpanStage::LeaderRecv, cpu::CLIENT_INGEST);
        self.pending.push_back((from, req.id, req.payload));
    }

    fn try_open_batch(&mut self, ctx: &mut Ctx<ApWire>) {
        if !self.is_leader() || self.in_flight.is_some() || self.pending.is_empty() {
            return;
        }
        let batch = self.next_batch;
        let take = self.pending.len().min(MAX_BATCH);
        let mut last_idx = 0;
        for _ in 0..take {
            let (client, id, payload) = self.pending.pop_front().expect("nonempty");
            let idx = self.next_idx;
            self.next_idx += 1;
            last_idx = idx;
            self.instrument
                .admit(ctx, idx, hdr_span(&Self::hdr(idx)), client, id);
            // One consensus instance per message (APUS's Paxos core).
            ctx.use_cpu_at(SpanStage::RingWrite, INSTANCE_COST);
            self.log.insert(idx, payload.clone());
            let frame = encode_frame(&Frame::Data {
                idx,
                client,
                id,
                payload,
            });
            for j in 1..self.cfg.n {
                // A full ring here means the follower fell behind a whole
                // ring of unacknowledged batches; APUS stalls (single
                // pending batch keeps this from happening in practice).
                let _ = self
                    .out_ring
                    .send_to(ctx, &mut self.ep, j, &frame, MsgKind::Payload);
            }
        }
        let end = encode_frame(&Frame::BatchEnd {
            batch,
            upto: last_idx,
        });
        for j in 1..self.cfg.n {
            if let Ok(seq) = self
                .out_ring
                .send_to(ctx, &mut self.ep, j, &end, MsgKind::Control)
            {
                self.lane_marks[j].push_back((batch, seq));
            }
        }
        self.next_batch += 1;
        self.batches_sent += 1;
        self.in_flight = Some((batch, last_idx));
    }

    fn leader_commit(&mut self, ctx: &mut Ctx<ApWire>) {
        let Some((batch, last_idx)) = self.in_flight else {
            return;
        };
        // Quorum: leader itself plus followers whose ack passed the batch.
        let mut acks = 1;
        for j in 1..self.cfg.n {
            if self.ack_sst.read(&self.ep, j) >= batch {
                acks += 1;
                // Ring slots for acknowledged batches are reusable.
                while let Some(&(b, seq)) = self.lane_marks[j].front() {
                    if b <= self.ack_sst.read(&self.ep, j) {
                        self.out_ring.ack(j, seq);
                        self.lane_marks[j].pop_front();
                    } else {
                        break;
                    }
                }
            }
        }
        if acks < self.quorum() {
            return;
        }
        // Deliver the batch, answer clients, publish the commit counter.
        while self.delivered <= last_idx {
            let idx = self.delivered;
            let payload = self.log.get(&idx).expect("own log entry").clone();
            self.deliver(ctx, idx, &payload);
            self.delivered += 1;
        }
        self.committed_count = self.delivered;
        self.commit_sst
            .write_mine(&mut self.ep, &self.committed_count);
        for j in 1..self.cfg.n {
            let _ = self.commit_sst.push_mine_to(ctx, &mut self.ep, j);
        }
        self.in_flight = None;
    }

    // ---- follower ---------------------------------------------------------------

    fn drain_rings(&mut self, ctx: &mut Ctx<ApWire>) {
        let mut new_ack = None;
        for s in 0..self.cfg.n {
            for frame in self.in_rings[s].poll(&mut self.ep) {
                ctx.use_cpu_at(SpanStage::FollowerAccept, cpu::FRAME_PROC);
                match decode_frame(frame.payload()) {
                    Some(Frame::Data { idx, payload, .. }) => {
                        self.log.insert(idx, payload);
                    }
                    Some(Frame::BatchEnd { batch, .. }) => {
                        new_ack = Some(batch);
                    }
                    None => debug_assert!(false, "malformed APUS frame"),
                }
            }
        }
        if let Some(batch) = new_ack {
            self.pending_ack = Some(batch.max(self.pending_ack.unwrap_or(0)));
        }
        // Batch-wise, *periodic* acknowledgment: one SST write per ack
        // interval, not per message.
        if let Some(batch) = self.pending_ack {
            if ctx.now().saturating_since(self.last_ack_at) >= ACK_INTERVAL {
                self.ack_sst.write_mine(&mut self.ep, &batch);
                let _ = self.ack_sst.push_mine_to(ctx, &mut self.ep, 0);
                self.pending_ack = None;
                self.last_ack_at = ctx.now();
            }
        }
    }

    fn follower_commit(&mut self, ctx: &mut Ctx<ApWire>) {
        let committed = self.commit_sst.read(&self.ep, 0);
        while self.delivered < committed {
            let idx = self.delivered;
            let Some(payload) = self.log.get(&idx).cloned() else {
                break; // commit counter outran our ring; wait
            };
            self.deliver(ctx, idx, &payload);
            self.delivered += 1;
        }
    }

    fn deliver(&mut self, ctx: &mut Ctx<ApWire>, idx: u64, payload: &Bytes) {
        let hdr = Self::hdr(idx);
        let entry = Committed {
            key: idx,
            span: hdr_span(&hdr),
            hdr,
            payload,
        };
        let reply = self.is_leader().then_some(ApWire::Resp);
        self.instrument.deliver(ctx, &mut *self.app, entry, reply);
    }
}

impl Process<ApWire> for ApusNode {
    fn on_start(&mut self, ctx: &mut Ctx<ApWire>) {
        ctx.set_timer(cpu::POLL_INTERVAL, TOK_POLL);
    }

    fn on_message(&mut self, ctx: &mut Ctx<ApWire>, from: NodeId, msg: ApWire) {
        match msg {
            ApWire::Rdma(pkt) => self.ep.on_packet(ctx, from, pkt),
            ApWire::Req(req) => self.on_client_request(ctx, from, req),
            ApWire::Resp(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<ApWire>, token: u64) {
        if token != TOK_POLL {
            return;
        }
        ctx.use_cpu_idle(cpu::POLL_IDLE);
        self.drain_rings(ctx);
        if self.is_leader() {
            self.leader_commit(ctx);
            self.try_open_batch(ctx);
        } else {
            self.follower_commit(ctx);
        }
        ctx.set_timer(cpu::POLL_INTERVAL, TOK_POLL);
    }
}

/// Build `cfg.n` replicas occupying simulation ids `0..n`.
pub fn build_cluster(sim: &mut Sim<ApWire>, cfg: &ApusConfig) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(cfg.n);
    for me in 0..cfg.n {
        let id = sim.add_node(Box::new(ApusNode::new(cfg.clone(), me)));
        assert_eq!(id, me);
        ids.push(id);
    }
    ids
}

impl Replica for ApusNode {
    type Wire = ApWire;
    type Config = ApusConfig;

    fn net() -> NetParams {
        NetParams::rdma()
    }

    fn build_cluster(sim: &mut Sim<ApWire>, cfg: &ApusConfig) -> Vec<NodeId> {
        build_cluster(sim, cfg)
    }

    fn app(&self) -> &dyn App {
        self.app.as_ref()
    }

    fn app_mut(&mut self) -> &mut Box<dyn App> {
        &mut self.app
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast::{check_cluster, cluster_with_client, WindowClient};
    use simnet::SimTime;

    fn run(window: usize, ms: u64) -> (Sim<ApWire>, Vec<NodeId>, NodeId) {
        let cfg = ApusConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<ApusNode>(13, &cfg, window, 10, Duration::from_millis(2));
        sim.run_until(SimTime::from_millis(ms));
        (sim, ids, client)
    }

    #[test]
    fn commits_and_totally_orders() {
        let (sim, ids, client) = run(8, 10);
        check_cluster::<ApusNode>(&sim, &ids).unwrap();
        let r = sim.node::<WindowClient<ApWire>>(client).result();
        assert!(r.completed > 100);
    }

    #[test]
    fn single_pending_batch_shapes_throughput() {
        // With window 1 every message is its own batch: throughput is gated
        // by a full round trip per message.
        let (sim, ids, client) = run(1, 10);
        check_cluster::<ApusNode>(&sim, &ids).unwrap();
        let n0 = sim.node::<ApusNode>(ids[0]);
        let r = sim.node::<WindowClient<ApWire>>(client).result();
        assert!(
            n0.batches_sent as f64 >= r.completed as f64,
            "every message needs its own batch at window 1"
        );
        // Larger windows amortise the round trip into bigger batches.
        let (sim2, _, client2) = run(64, 10);
        let r2 = sim2.node::<WindowClient<ApWire>>(client2).result();
        assert!(r2.msgs_per_sec() > r.msgs_per_sec() * 3.0);
    }

    #[test]
    fn latency_is_worse_than_acuerdo_shape() {
        let (sim, ids, client) = run(1, 10);
        check_cluster::<ApusNode>(&sim, &ids).unwrap();
        let lat = sim
            .node::<WindowClient<ApWire>>(client)
            .result()
            .latency
            .mean_us();
        println!("apus window-1 latency: {lat:.2} us");
        // Must commit in the tens of microseconds (RDMA), but not beat the
        // ~10us Acuerdo path: the batch round trip plus polling dominates.
        assert!(lat > 8.0 && lat < 100.0, "apus latency {lat}");
    }

    #[test]
    fn delayed_follower_in_quorum_stalls_batches() {
        // 3 nodes, quorum 2: delaying BOTH followers stalls the instance
        // (total system stall on one delayed message, §4.1).
        let cfg = ApusConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<ApusNode>(14, &cfg, 16, 10, Duration::from_millis(1));
        sim.run_until(SimTime::from_millis(4));
        let before = sim.node::<WindowClient<ApWire>>(client).result().completed;
        assert!(before > 0);
        // Pause both followers for 3 ms: nothing can commit.
        sim.pause_at(ids[1], SimTime::from_millis(4), Duration::from_millis(3));
        sim.pause_at(ids[2], SimTime::from_millis(4), Duration::from_millis(3));
        sim.run_until(SimTime::from_millis(6));
        let during = sim.node::<WindowClient<ApWire>>(client).result().completed;
        assert!(
            during - before <= 64,
            "commits continued during stall: {}",
            during - before
        );
        sim.run_until(SimTime::from_millis(12));
        let after = sim.node::<WindowClient<ApWire>>(client).result().completed;
        assert!(after > during + 100, "no recovery after stall");
        check_cluster::<ApusNode>(&sim, &ids).unwrap();
    }

    #[test]
    fn five_node_quorum_commits_without_slowest() {
        let cfg = ApusConfig { n: 5 };
        let (mut sim, ids, client) =
            cluster_with_client::<ApusNode>(15, &cfg, 8, 10, Duration::from_millis(1));
        // One permanently slow follower: quorum 3 of 5 still commits.
        sim.pause_at(ids[4], SimTime::ZERO, Duration::from_secs(10));
        sim.run_until(SimTime::from_millis(10));
        check_cluster::<ApusNode>(&sim, &ids).unwrap();
        let r = sim.node::<WindowClient<ApWire>>(client).result();
        assert!(r.completed > 100, "quorum should commit: {}", r.completed);
    }
}
