//! # paxos — the libpaxos baseline
//!
//! A Multi-Paxos implementation over simulated kernel TCP, modeling the
//! open-source libpaxos the Acuerdo paper benchmarks (§4). The
//! performance-relevant properties:
//!
//! * every message runs **its own consensus instance**: a phase-2
//!   ACCEPT/ACCEPTED round per message (steady-state Multi-Paxos with the
//!   coordinator holding a stable ballot), which §4.1 calls out as a major
//!   per-message overhead;
//! * all traffic crosses the **kernel TCP stack** (~25 µs one-way plus
//!   per-message syscall/copy CPU), an order of magnitude above RDMA.
//!
//! Roles are colocated as in libpaxos deployments: every node is an acceptor
//! and a learner; node 0 is the fixed coordinator/proposer (libpaxos's
//! evaluation, like the paper's, runs it with a stable coordinator — no
//! failover is modeled; see DESIGN.md).

use abcast::{
    App, Auditor, ClientReq, ClientResp, Committed, DeliveryLog, Epoch, Instrument, MsgHdr,
    Replica, MAX_BACKLOG,
};
use bytes::Bytes;
use simnet::params::cpu;
use simnet::FastMap;
use simnet::{
    msg_span, Ctx, DeliveryClass, Gauge, MsgKind, NetParams, NodeId, Process, Sim, SpanStage,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// Configuration of one libpaxos-style instance.
#[derive(Clone, Debug)]
pub struct PaxosConfig {
    /// Number of replicas (acceptor + learner each; node 0 proposes).
    pub n: usize,
}

impl Default for PaxosConfig {
    fn default() -> Self {
        PaxosConfig { n: 3 }
    }
}

/// Wire type of a libpaxos simulation (all [`DeliveryClass::Cpu`]).
#[derive(Clone, Debug)]
pub enum PxWire {
    /// Client request.
    Req(ClientReq),
    /// Client response.
    Resp(ClientResp),
    /// Phase 2a: the coordinator asks acceptors to accept a value. Its 48
    /// header bytes (and a Learn's) still carry the originating client and
    /// request id on the wire; only the coordinator, which answers from its
    /// own origin record, would read them.
    Accept {
        /// Instance number (one per message).
        inst: u64,
        /// The value.
        value: Bytes,
    },
    /// Phase 2b: an acceptor accepted the instance.
    Accepted {
        /// Instance number.
        inst: u64,
    },
    /// Learn: the coordinator announces the chosen value.
    Learn {
        /// Instance number.
        inst: u64,
        /// Chosen value.
        value: Bytes,
    },
}

impl abcast::ClientPort for PxWire {
    fn request(req: ClientReq) -> Self {
        PxWire::Req(req)
    }
    fn response(&self) -> Option<ClientResp> {
        match self {
            PxWire::Resp(r) => Some(*r),
            _ => None,
        }
    }
}

const DELIVER_COST: Duration = Duration::from_nanos(500);

/// One libpaxos replica.
pub struct PaxosNode {
    cfg: PaxosConfig,
    me: usize,

    // Proposer state (node 0).
    next_inst: u64,
    acks: FastMap<u64, usize>,
    proposals: FastMap<u64, Bytes>,
    instrument: Instrument<u64>,

    // Learner state.
    chosen: BTreeMap<u64, Bytes>,
    delivered: u64,

    /// Online invariant monitor.
    audit: Auditor,

    /// The replicated application.
    pub app: Box<dyn App>,
}

impl PaxosNode {
    /// Build replica `me` (node 0 is the coordinator).
    pub fn new(cfg: PaxosConfig, me: usize) -> Self {
        PaxosNode {
            cfg,
            me,
            next_inst: 0,
            acks: FastMap::default(),
            proposals: FastMap::default(),
            instrument: Instrument::new(DELIVER_COST, cpu::TCP_SEND),
            chosen: BTreeMap::new(),
            delivered: 0,
            audit: Auditor::new(),
            app: Box::<DeliveryLog>::default(),
        }
    }

    fn quorum(&self) -> usize {
        self.cfg.n / 2 + 1
    }

    fn send(&self, ctx: &mut Ctx<PxWire>, dst: NodeId, wire: u32, msg: PxWire) {
        ctx.use_cpu_at(SpanStage::RingWrite, cpu::TCP_SEND);
        let kind = match &msg {
            PxWire::Req(_) | PxWire::Accept { .. } | PxWire::Learn { .. } => MsgKind::Payload,
            PxWire::Accepted { .. } => MsgKind::Ack,
            PxWire::Resp(_) => MsgKind::Control,
        };
        ctx.send_kind(dst, DeliveryClass::Cpu, wire, kind, msg);
    }

    /// Lifecycle span id of an instance — the same `(1, 0, inst + 1)`
    /// packing as the delivered header.
    fn pspan(inst: u64) -> u64 {
        msg_span(1, 0, inst as u32 + 1)
    }

    /// Feed the invariant auditor. There are no ballot changes in this
    /// stable-coordinator deployment, so the epoch is constant; accept and
    /// commit points are instance counts (chosen-but-undelivered instances
    /// sit in `chosen`, so its tail is the local accept frontier).
    fn observe_audit(&mut self, ctx: &mut Ctx<PxWire>) {
        let e = Epoch::new(1, 0);
        let top = self
            .chosen
            .keys()
            .next_back()
            .map(|&i| i + 1)
            .unwrap_or(self.delivered);
        let acc = if self.me == 0 {
            self.next_inst.max(top)
        } else {
            top
        };
        self.audit.observe(
            ctx,
            e,
            MsgHdr::new(e, acc as u32),
            MsgHdr::new(e, self.delivered as u32),
        );
        ctx.gauge(Gauge::CommitFrontierLag, acc.saturating_sub(self.delivered));
    }

    fn on_request(&mut self, ctx: &mut Ctx<PxWire>, from: NodeId, req: ClientReq) {
        if self.me != 0 || self.proposals.len() >= MAX_BACKLOG {
            return;
        }
        let inst = self.next_inst;
        self.next_inst += 1;
        self.instrument
            .admit(ctx, inst, Self::pspan(inst), from, req.id);
        self.proposals.insert(inst, req.payload.clone());
        self.acks.insert(inst, 1); // self-accept
        let wire = req.payload.len() as u32 + 48;
        for a in 1..self.cfg.n {
            self.send(
                ctx,
                a,
                wire,
                PxWire::Accept {
                    inst,
                    value: req.payload.clone(),
                },
            );
            ctx.span(Self::pspan(inst), SpanStage::RingWrite, a as u64);
        }
        // A single-replica "cluster" chooses immediately.
        self.try_choose(ctx, inst, Some(self.me));
    }

    fn on_accept(&mut self, ctx: &mut Ctx<PxWire>, inst: u64) {
        // Stable-ballot Multi-Paxos: the acceptor acknowledges. Real
        // libpaxos keeps the value so a Learn only flips state; here the
        // Learn re-carries it.
        ctx.span(Self::pspan(inst), SpanStage::FollowerAccept, self.me as u64);
        self.send(ctx, 0, 48, PxWire::Accepted { inst });
    }

    fn on_accepted(&mut self, ctx: &mut Ctx<PxWire>, from: NodeId, inst: u64) {
        if let Some(c) = self.acks.get_mut(&inst) {
            *c += 1;
            ctx.span(Self::pspan(inst), SpanStage::AckVisible, from as u64);
            if *c == self.quorum() {
                self.try_choose(ctx, inst, Some(from));
            }
        }
    }

    /// `last_ack` names the acceptor whose Accepted completed the quorum —
    /// the straggler the [`SpanStage::Quorum`] mark records.
    fn try_choose(&mut self, ctx: &mut Ctx<PxWire>, inst: u64, last_ack: Option<NodeId>) {
        let quorum = self.quorum();
        let Some(&c) = self.acks.get(&inst) else {
            return;
        };
        if c < quorum {
            return;
        }
        let Some(value) = self.proposals.remove(&inst) else {
            return;
        };
        self.acks.remove(&inst);
        let straggler = last_ack.map_or(0, |a| a as u64 + 1);
        ctx.span(Self::pspan(inst), SpanStage::Quorum, straggler);
        let wire = value.len() as u32 + 48;
        for l in 1..self.cfg.n {
            self.send(
                ctx,
                l,
                wire,
                PxWire::Learn {
                    inst,
                    value: value.clone(),
                },
            );
        }
        self.on_learn(ctx, inst, value);
    }

    fn on_learn(&mut self, ctx: &mut Ctx<PxWire>, inst: u64, value: Bytes) {
        self.chosen.insert(inst, value);
        // Deliver in instance order, no gaps.
        let coordinates = self.me == 0;
        while let Some(value) = self.chosen.remove(&self.delivered) {
            let inst = self.delivered;
            let entry = Committed {
                key: inst,
                span: Self::pspan(inst),
                hdr: MsgHdr::new(Epoch::new(1, 0), inst as u32 + 1),
                payload: &value,
            };
            self.instrument.deliver(
                ctx,
                &mut *self.app,
                entry,
                coordinates.then_some(PxWire::Resp),
            );
            self.delivered += 1;
        }
        self.observe_audit(ctx);
    }
}

impl Process<PxWire> for PaxosNode {
    fn on_message(&mut self, ctx: &mut Ctx<PxWire>, from: NodeId, msg: PxWire) {
        ctx.use_cpu(cpu::TCP_MSG);
        match msg {
            PxWire::Req(req) => self.on_request(ctx, from, req),
            PxWire::Accept { inst, .. } => self.on_accept(ctx, inst),
            PxWire::Accepted { inst } => self.on_accepted(ctx, from, inst),
            PxWire::Learn { inst, value } => self.on_learn(ctx, inst, value),
            PxWire::Resp(_) => {}
        }
    }
}

/// Build `cfg.n` replicas occupying simulation ids `0..n`.
pub fn build_cluster(sim: &mut Sim<PxWire>, cfg: &PaxosConfig) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(cfg.n);
    for me in 0..cfg.n {
        let id = sim.add_node(Box::new(PaxosNode::new(cfg.clone(), me)));
        assert_eq!(id, me);
        ids.push(id);
    }
    ids
}

impl Replica for PaxosNode {
    type Wire = PxWire;
    type Config = PaxosConfig;

    fn net() -> NetParams {
        NetParams::tcp()
    }

    fn build_cluster(sim: &mut Sim<PxWire>, cfg: &PaxosConfig) -> Vec<NodeId> {
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

    #[test]
    fn commits_and_totally_orders() {
        let cfg = PaxosConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<PaxosNode>(17, &cfg, 8, 10, Duration::from_millis(5));
        sim.run_until(SimTime::from_millis(50));
        check_cluster::<PaxosNode>(&sim, &ids).unwrap();
        let r = sim.node::<WindowClient<PxWire>>(client).result();
        assert!(r.completed > 100, "completed {}", r.completed);
    }

    #[test]
    fn latency_is_an_order_of_magnitude_above_rdma() {
        let cfg = PaxosConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<PaxosNode>(18, &cfg, 1, 10, Duration::from_millis(5));
        sim.run_until(SimTime::from_millis(50));
        check_cluster::<PaxosNode>(&sim, &ids).unwrap();
        let lat = sim
            .node::<WindowClient<PxWire>>(client)
            .result()
            .latency
            .mean_us();
        println!("libpaxos window-1 latency: {lat:.1} us");
        // Figure 8a puts libpaxos around 10^2 us; Acuerdo sits near 10us.
        assert!(lat > 80.0 && lat < 400.0, "latency {lat}");
    }

    #[test]
    fn follower_slowness_outside_quorum_is_tolerated() {
        let cfg = PaxosConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<PaxosNode>(19, &cfg, 8, 10, Duration::from_millis(2));
        sim.pause_at(ids[2], SimTime::ZERO, Duration::from_secs(10));
        sim.run_until(SimTime::from_millis(50));
        check_cluster::<PaxosNode>(&sim, &ids).unwrap();
        let r = sim.node::<WindowClient<PxWire>>(client).result();
        assert!(r.completed > 50, "quorum must still commit");
    }

    #[test]
    fn instances_choose_out_of_order_but_deliver_in_order() {
        // Delay one acceptor link so later instances gather quorum first;
        // delivery order must still be by instance.
        let cfg = PaxosConfig::default();
        let (mut sim, ids, _client) =
            cluster_with_client::<PaxosNode>(20, &cfg, 16, 10, Duration::from_millis(2));
        sim.add_link_latency(0, 1, Duration::from_micros(400), SimTime::from_millis(20));
        sim.run_until(SimTime::from_millis(60));
        check_cluster::<PaxosNode>(&sim, &ids).unwrap();
        let log = sim.node::<PaxosNode>(ids[1]).delivery_log().unwrap();
        let hdrs: Vec<u32> = log.iter().map(|(h, _)| h.cnt).collect();
        assert!(hdrs.windows(2).all(|w| w[0] + 1 == w[1]), "gap in delivery");
    }
}
