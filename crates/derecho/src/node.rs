//! The Derecho replica state machine.

use abcast::{
    App, Auditor, ClientReq, ClientResp, Committed, DeliveryLog, Epoch, Instrument, MsgHdr,
    MAX_BACKLOG,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rdma_prims::{RingMode, RingReceiver, RingSender};
use rdma_sim::{Endpoint, QpConfig, RdmaPkt, RegionId};
use simnet::params::cpu;
use simnet::FastMap;
use simnet::{
    msg_span, Ctx, DeliveryClass, Event, Gauge, MsgKind, NodeId, Process, SimTime, SpanStage,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// Sending mode (§4.1: derecho-leader vs derecho-all).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Only the lowest-ranked member proposes messages.
    Leader,
    /// Every member proposes; total order is round-robin across senders with
    /// null messages filling idle slots.
    AllSender,
}

/// Configuration of one Derecho instance.
#[derive(Clone, Debug)]
pub struct DerechoConfig {
    /// Number of members.
    pub n: usize,
    /// Sending mode.
    pub mode: Mode,
    /// Bytes per ring buffer.
    pub ring_bytes: usize,
    /// Suspect a member after this much heartbeat silence.
    pub view_timeout: Duration,
}

impl Default for DerechoConfig {
    fn default() -> Self {
        DerechoConfig {
            n: 3,
            mode: Mode::Leader,
            ring_bytes: 1 << 20,
            // Generous by default: a saturated member must not be mistaken
            // for a dead one (suspicion evicts permanently in virtual
            // synchrony). Failover tests shorten this.
            view_timeout: Duration::from_millis(100),
        }
    }
}

impl DerechoConfig {
    /// Configuration for an `n`-member group in `mode`, with rings sized by
    /// [`rdma_prims::ring_bytes_for`], the schedule Acuerdo uses: the
    /// `n * (n-1) * ring_bytes` of mirrored registered memory stays bounded
    /// at scalability-sweep sizes, and small groups keep the benchmark
    /// geometry unchanged.
    pub fn sized(n: usize, mode: Mode) -> Self {
        DerechoConfig {
            n,
            mode,
            ring_bytes: rdma_prims::ring_bytes_for(n),
            ..DerechoConfig::default()
        }
    }
}

/// One forwarded frame in a view change: `(sender, seq, data)` where `data`
/// is `None` for a null frame and `Some((client, id, payload))` otherwise.
pub type ForwardedFrame = (u32, u64, Option<(u32, u64, Bytes)>);

/// A view-change proposal (simplified ragged-edge cleanup; see crate docs).
#[derive(Clone, Debug)]
pub struct ViewChange {
    /// Monotone view number.
    pub view_id: u32,
    /// Surviving members.
    pub members: Vec<u32>,
    /// Final frame count per excluded sender (frames `< cut` are delivered,
    /// the rest discarded).
    pub cuts: Vec<(u32, u64)>,
    /// Undelivered frames of excluded senders forwarded by the proposer.
    pub frames: Vec<ForwardedFrame>,
}

/// Wire type of a Derecho simulation.
#[derive(Clone, Debug)]
pub enum DcWire {
    /// One-sided RDMA traffic.
    Rdma(RdmaPkt),
    /// Client request.
    Req(ClientReq),
    /// Client response.
    Resp(ClientResp),
    /// View-change control message.
    View(ViewChange),
}

impl From<RdmaPkt> for DcWire {
    fn from(p: RdmaPkt) -> Self {
        DcWire::Rdma(p)
    }
}

impl abcast::ClientPort for DcWire {
    fn request(req: ClientReq) -> Self {
        DcWire::Req(req)
    }
    fn response(&self) -> Option<ClientResp> {
        match self {
            DcWire::Resp(r) => Some(*r),
            _ => None,
        }
    }
}

/// One frame body: a data message or a round-filling null.
#[derive(Clone, Debug)]
enum Body {
    Null,
    Data {
        client: NodeId,
        id: u64,
        payload: Bytes,
    },
}

fn encode_body(b: &Body) -> Bytes {
    match b {
        Body::Null => Bytes::from_static(&[0u8]),
        Body::Data {
            client,
            id,
            payload,
        } => {
            let mut buf = BytesMut::with_capacity(13 + payload.len());
            buf.put_u8(1);
            buf.put_u32_le(*client as u32);
            buf.put_u64_le(*id);
            buf.put_slice(payload);
            buf.freeze()
        }
    }
}

fn decode_body(mut raw: Bytes) -> Option<Body> {
    if raw.is_empty() {
        return None;
    }
    match raw.get_u8() {
        0 => Some(Body::Null),
        1 => {
            if raw.len() < 12 {
                return None;
            }
            let client = raw.get_u32_le() as NodeId;
            let id = raw.get_u64_le();
            Some(Body::Data {
                client,
                id,
                payload: raw,
            })
        }
        _ => None,
    }
}

const TOK_POLL: u64 = 1;
const TOK_ROW: u64 = 2;
/// How often each member publishes its SST row (`nReceived` counters +
/// heartbeat). Derecho's stability is discovered in these rounds rather than
/// per message.
const ROW_PUSH_INTERVAL: Duration = Duration::from_micros(10);
/// Max null messages manufactured per poll (all-sender mode).
const MAX_NULLS_PER_POLL: usize = 64;
const DELIVER_COST: Duration = Duration::from_nanos(100);

/// One Derecho member.
pub struct DerechoNode {
    cfg: DerechoConfig,
    me: usize,

    ep: Endpoint,
    out_ring: RingSender,
    in_rings: Vec<RingReceiver>,
    row_region: RegionId,

    // View state.
    view_id: u32,
    members: Vec<usize>,
    cuts: FastMap<usize, u64>,
    leader_order: Vec<usize>,
    proposed_view: u32,
    evicted: bool,

    // Sending.
    my_sent: u64,
    sent_frames: BTreeMap<u64, Bytes>,
    lane_next: FastMap<usize, u64>,
    instrument: Instrument<(usize, u64)>,

    // Receiving / delivery.
    store: Vec<BTreeMap<u64, Body>>,
    delivered_upto: Vec<u64>,
    rr_round: u64,
    rr_idx: usize,
    ldr_idx: usize,
    ldr_seq: u64,

    // Failure detection.
    row_push_seq: u64,
    hb_seen: Vec<(u64, SimTime)>,
    suspected: Vec<bool>,

    /// Stability frontier already announced as a lifecycle mark, per sender.
    stab_seen: Vec<u64>,
    /// Header of the most recent application delivery (audit commit point).
    committed_hdr: MsgHdr,
    /// Online invariant monitor.
    audit: Auditor,

    /// The replicated application.
    pub app: Box<dyn App>,
    /// Data frames this node sent.
    pub sent_data: u64,
    /// Null frames this node sent.
    pub sent_nulls: u64,
}

impl DerechoNode {
    /// Build member `me` of an `n`-member group (simulation ids `0..n`).
    pub fn new(cfg: DerechoConfig, me: usize) -> Self {
        let n = cfg.n;
        assert!(me < n);
        let mut ep = Endpoint::new(QpConfig::default());
        // Region plan: n rings, then the state-table rows.
        let mut in_rings = Vec::with_capacity(n);
        for _ in 0..n {
            let r = ep.register_region(cfg.ring_bytes);
            in_rings.push(RingReceiver::new(r, cfg.ring_bytes, RingMode::Split));
        }
        let rowlen = Self::rowlen(n);
        let row_region = ep.register_region(n * rowlen);
        for p in 0..n {
            ep.connect(p);
        }
        let peers: Vec<NodeId> = (0..n).collect();
        let out_ring =
            RingSender::new(RegionId(me as u32), cfg.ring_bytes, RingMode::Split, &peers);
        DerechoNode {
            me,
            ep,
            out_ring,
            in_rings,
            row_region,
            view_id: 0,
            members: (0..n).collect(),
            cuts: FastMap::default(),
            leader_order: vec![0],
            proposed_view: 0,
            evicted: false,
            my_sent: 0,
            sent_frames: BTreeMap::new(),
            lane_next: (0..n).map(|p| (p, 0)).collect(),
            instrument: Instrument::new(DELIVER_COST, Duration::ZERO),
            store: (0..n).map(|_| BTreeMap::new()).collect(),
            delivered_upto: vec![0; n],
            rr_round: 0,
            rr_idx: 0,
            ldr_idx: 0,
            ldr_seq: 0,
            row_push_seq: 0,
            hb_seen: vec![(0, SimTime::ZERO); n],
            suspected: vec![false; n],
            stab_seen: vec![0; n],
            committed_hdr: MsgHdr::ZERO,
            audit: Auditor::new(),
            app: Box::<DeliveryLog>::default(),
            sent_data: 0,
            sent_nulls: 0,
            cfg,
        }
    }

    fn rowlen(n: usize) -> usize {
        (n + 1) * 8
    }

    // ---- inspection ---------------------------------------------------------

    /// Current members.
    pub fn members(&self) -> Vec<usize> {
        self.members.clone()
    }

    /// Current view id.
    pub fn view_id(&self) -> u32 {
        self.view_id
    }

    /// Whether this member has been configured out of the view.
    pub fn evicted(&self) -> bool {
        self.evicted
    }

    /// Total RDMA writes posted (for the 2-writes-per-message test).
    pub fn ep_writes_posted(&self) -> u64 {
        self.ep.writes_posted
    }

    /// The member currently allowed to send in `Leader` mode.
    pub fn current_sender(&self) -> usize {
        *self.members.iter().min().expect("empty view")
    }

    // ---- rows ---------------------------------------------------------------

    fn row_count(&self, node: usize, sender: usize) -> u64 {
        if node == self.me {
            return self.in_rings[sender].next_seq();
        }
        let off = (node * Self::rowlen(self.cfg.n) + sender * 8) as u32;
        u64::from_le_bytes(
            self.ep.peek(self.row_region, off, 8)[..]
                .try_into()
                .unwrap(),
        )
    }

    fn row_hb(&self, node: usize) -> u64 {
        let off = (node * Self::rowlen(self.cfg.n) + self.cfg.n * 8) as u32;
        u64::from_le_bytes(
            self.ep.peek(self.row_region, off, 8)[..]
                .try_into()
                .unwrap(),
        )
    }

    fn push_row(&mut self, ctx: &mut Ctx<DcWire>) {
        if self.evicted {
            return;
        }
        let n = self.cfg.n;
        self.row_push_seq += 1;
        let mut row = Vec::with_capacity(Self::rowlen(n));
        for s in 0..n {
            row.extend_from_slice(&self.in_rings[s].next_seq().to_le_bytes());
        }
        row.extend_from_slice(&self.row_push_seq.to_le_bytes());
        let off = (self.me * Self::rowlen(n)) as u32;
        self.ep.write_local(self.row_region, off, &row);
        let data = Bytes::from(row);
        for &m in &self.members.clone() {
            if m != self.me {
                let _ =
                    self.ep
                        .post_write(ctx, m, self.row_region, off, data.clone(), MsgKind::Ack);
            }
        }
    }

    /// Lifecycle span id of a frame — one covering-mark lane per sender
    /// (sender in the `ldr` field, so stability marks inherit down the
    /// sender's own sequence numbers).
    fn dspan(sender: usize, seq: u64) -> u64 {
        msg_span(0, sender as u32, seq as u32 + 1)
    }

    /// Messages from `sender` stable at every member (virtual synchrony's
    /// commit rule: min over ALL active members).
    fn stability(&self, sender: usize) -> u64 {
        self.members
            .iter()
            .map(|&m| self.row_count(m, sender))
            .min()
            .unwrap_or(0)
    }

    /// The member holding stability back: the argmin of the SST rows the
    /// stability min ranges over (ties toward the smaller member id).
    /// Returns the [`SpanStage::Quorum`] mark argument (member id + 1; 0
    /// when the view is empty).
    fn stability_straggler(&self, sender: usize) -> u64 {
        self.members
            .iter()
            .map(|&m| (self.row_count(m, sender), m))
            .min()
            .map_or(0, |(_, m)| m as u64 + 1)
    }

    // ---- sending -------------------------------------------------------------

    fn is_sender(&self) -> bool {
        match self.cfg.mode {
            Mode::Leader => self.current_sender() == self.me,
            Mode::AllSender => self.members.contains(&self.me),
        }
    }

    fn on_client_request(&mut self, ctx: &mut Ctx<DcWire>, from: NodeId, req: ClientReq) {
        if self.evicted || !self.is_sender() || self.sent_frames.len() >= MAX_BACKLOG {
            return;
        }
        ctx.use_cpu_at(SpanStage::LeaderRecv, cpu::CLIENT_INGEST);
        let (me, seq) = (self.me, self.my_sent);
        self.instrument
            .admit(ctx, (me, seq), Self::dspan(me, seq), from, req.id);
        let body = Body::Data {
            client: from,
            id: req.id,
            payload: req.payload,
        };
        self.sent_frames.insert(self.my_sent, encode_body(&body));
        self.my_sent += 1;
        self.sent_data += 1;
        self.flush(ctx);
    }

    fn send_null(&mut self) {
        self.sent_frames
            .insert(self.my_sent, encode_body(&Body::Null));
        self.my_sent += 1;
        self.sent_nulls += 1;
    }

    fn flush(&mut self, ctx: &mut Ctx<DcWire>) {
        for m in self.members.clone() {
            let mut next = self.lane_next[&m];
            while next < self.my_sent {
                let frame = self.sent_frames[&next].clone();
                match self
                    .out_ring
                    .send_to(ctx, &mut self.ep, m, &frame, MsgKind::Payload)
                {
                    Ok(_) => {
                        if frame[0] == 1 {
                            ctx.span(Self::dspan(self.me, next), SpanStage::RingWrite, m as u64);
                        }
                        next += 1;
                    }
                    Err(_) => break,
                }
            }
            self.lane_next.insert(m, next);
        }
        // Prune frames every live lane has shipped.
        let min_next = self
            .members
            .iter()
            .map(|m| self.lane_next[m])
            .min()
            .unwrap_or(self.my_sent);
        while let Some((&k, _)) = self.sent_frames.first_key_value() {
            if k < min_next {
                self.sent_frames.remove(&k);
            } else {
                break;
            }
        }
    }

    /// Slot reuse at *global* stability (Derecho's rule, §4.1 of the paper).
    fn reuse_slots(&mut self) {
        let stab = self.stability(self.me);
        if stab == 0 {
            return;
        }
        for &m in &self.members {
            self.out_ring.ack(m, stab - 1);
        }
    }

    // ---- receiving / delivery ---------------------------------------------------

    fn drain_rings(&mut self, ctx: &mut Ctx<DcWire>) {
        for s in 0..self.cfg.n {
            for frame in self.in_rings[s].poll(&mut self.ep) {
                ctx.use_cpu_at(SpanStage::FollowerAccept, cpu::FRAME_PROC);
                let seq = frame.seq;
                if let Some(body) = decode_body(frame.payload()) {
                    if seq >= self.delivered_upto[s] {
                        if matches!(body, Body::Data { .. }) {
                            ctx.span(
                                Self::dspan(s, seq),
                                SpanStage::FollowerAccept,
                                self.me as u64,
                            );
                        }
                        self.store[s].insert(seq, body);
                    }
                }
            }
        }
    }

    /// Announce stability advances as covering lifecycle marks. Stability is
    /// Derecho's quorum event — the SST min over all members — so one mark on
    /// the frontier frame stands for every frame below it (`AckVisible` and
    /// `Quorum` are [`SpanStage::covering`] stages).
    fn observe_stability(&mut self, ctx: &mut Ctx<DcWire>) {
        for s in 0..self.cfg.n {
            let stab = self.stability(s);
            if stab > self.stab_seen[s] {
                ctx.span(Self::dspan(s, stab - 1), SpanStage::AckVisible, 0);
                ctx.span(
                    Self::dspan(s, stab - 1),
                    SpanStage::Quorum,
                    self.stability_straggler(s),
                );
                self.stab_seen[s] = stab;
            }
        }
    }

    fn make_nulls(&mut self, ctx: &mut Ctx<DcWire>) {
        if self.cfg.mode != Mode::AllSender || self.evicted {
            return;
        }
        let maxc = self
            .members
            .iter()
            .map(|&s| {
                if s == self.me {
                    self.my_sent
                } else {
                    self.in_rings[s].next_seq()
                }
            })
            .max()
            .unwrap_or(0);
        let mut made = 0;
        while self.my_sent < maxc && made < MAX_NULLS_PER_POLL {
            self.send_null();
            made += 1;
        }
        if made > 0 {
            self.flush(ctx);
        }
    }

    fn slot_ready(&self, sender: usize, seq: u64) -> Option<bool> {
        // Some(true) = deliver, Some(false) = excluded slot, None = wait.
        match self.cuts.get(&sender) {
            Some(&c) if seq >= c => Some(false),
            Some(_) => {
                if self.store[sender].contains_key(&seq) {
                    Some(true)
                } else {
                    None
                }
            }
            None => {
                if self.stability(sender) > seq {
                    Some(true)
                } else {
                    None
                }
            }
        }
    }

    fn deliver_loop(&mut self, ctx: &mut Ctx<DcWire>) {
        if self.evicted {
            return; // configured out: no longer part of the group's order
        }
        match self.cfg.mode {
            Mode::AllSender => self.deliver_all_sender(ctx),
            Mode::Leader => self.deliver_leader(ctx),
        }
    }

    fn deliver_all_sender(&mut self, ctx: &mut Ctx<DcWire>) {
        loop {
            // Senders participating in this round: alive, or dead with slots
            // left below their cut. The cut values are view-change constants,
            // so every member computes identical rounds.
            let senders: Vec<usize> = (0..self.cfg.n)
                .filter(|s| match self.cuts.get(s) {
                    Some(&c) => self.rr_round < c,
                    None => self.members.contains(s),
                })
                .collect();
            if senders.is_empty() {
                break;
            }
            if self.rr_idx >= senders.len() {
                self.rr_round += 1;
                self.rr_idx = 0;
                continue;
            }
            let s = senders[self.rr_idx];
            match self.slot_ready(s, self.rr_round) {
                Some(true) => {
                    let round = self.rr_round;
                    self.deliver_slot(ctx, s, round);
                    self.rr_idx += 1;
                }
                Some(false) => {
                    self.rr_idx += 1;
                }
                None => break,
            }
        }
    }

    fn deliver_leader(&mut self, ctx: &mut Ctx<DcWire>) {
        loop {
            let ldr = self.leader_order[self.ldr_idx];
            if let Some(&c) = self.cuts.get(&ldr) {
                if self.ldr_seq >= c {
                    if self.ldr_idx + 1 < self.leader_order.len() {
                        self.ldr_idx += 1;
                        self.ldr_seq = 0;
                        continue;
                    }
                    break;
                }
            }
            match self.slot_ready(ldr, self.ldr_seq) {
                Some(true) => {
                    let seq = self.ldr_seq;
                    self.deliver_slot(ctx, ldr, seq);
                    self.ldr_seq += 1;
                }
                _ => break,
            }
        }
    }

    fn deliver_slot(&mut self, ctx: &mut Ctx<DcWire>, sender: usize, seq: u64) {
        let body = self.store[sender]
            .remove(&seq)
            .expect("stable slot must be present");
        self.delivered_upto[sender] = seq + 1;
        if let Body::Data { payload, .. } = body {
            let hdr = match self.cfg.mode {
                Mode::AllSender => MsgHdr::new(Epoch::new(seq as u32, sender as u32), 1),
                Mode::Leader => MsgHdr::new(
                    Epoch::new(self.ldr_idx as u32, sender as u32),
                    seq as u32 + 1,
                ),
            };
            let entry = Committed {
                key: (sender, seq),
                span: Self::dspan(sender, seq),
                hdr,
                payload: &payload,
            };
            let reply = (sender == self.me).then_some(DcWire::Resp);
            self.instrument.deliver(ctx, &mut *self.app, entry, reply);
            self.committed_hdr = hdr;
        }
    }

    // ---- view changes ----------------------------------------------------------

    fn detect_failures(&mut self, ctx: &mut Ctx<DcWire>) {
        if self.evicted {
            return;
        }
        let now = ctx.now();
        for &m in &self.members {
            if m == self.me {
                continue;
            }
            let hb = self.row_hb(m);
            if hb != self.hb_seen[m].0 {
                self.hb_seen[m] = (hb, now);
            } else if now.saturating_since(self.hb_seen[m].1) > self.cfg.view_timeout {
                self.suspected[m] = true;
            }
        }
        let dead: Vec<usize> = self
            .members
            .iter()
            .copied()
            .filter(|&m| self.suspected[m])
            .collect();
        if dead.is_empty() {
            return;
        }
        let live: Vec<usize> = self
            .members
            .iter()
            .copied()
            .filter(|&m| !self.suspected[m])
            .collect();
        if live.first() != Some(&self.me) || self.proposed_view > self.view_id {
            return; // not the proposer, or already proposed
        }
        // Propose the next view: cut each dead sender at the count *we*
        // received (safe: anything delivered anywhere is below it) and
        // forward our undelivered frames below the cut.
        let next_view = self.view_id + 1;
        self.proposed_view = next_view;
        let mut cuts = self.cuts.clone();
        let mut frames = Vec::new();
        for &d in &dead {
            let cut = self.in_rings[d].next_seq();
            cuts.insert(d, cut);
            for (&seq, body) in &self.store[d] {
                if seq < cut {
                    let data = match body {
                        Body::Null => None,
                        Body::Data {
                            client,
                            id,
                            payload,
                        } => Some((*client as u32, *id, payload.clone())),
                    };
                    frames.push((d as u32, seq, data));
                }
            }
        }
        let vc = ViewChange {
            view_id: next_view,
            members: live.iter().map(|&m| m as u32).collect(),
            cuts: cuts.iter().map(|(&s, &c)| (s as u32, c)).collect(),
            frames,
        };
        let wire = 64
            + vc.frames
                .iter()
                .map(|f| 16 + f.2.as_ref().map_or(0, |d| d.2.len()))
                .sum::<usize>();
        // Notify survivors and, as a courtesy, the evicted members (real
        // Derecho tells removed nodes to shut down and rejoin).
        for m in 0..self.cfg.n {
            if m != self.me {
                ctx.use_cpu(cpu::TCP_MSG);
                ctx.send(m, DeliveryClass::Cpu, wire as u32, DcWire::View(vc.clone()));
            }
        }
        self.apply_view(ctx, vc);
    }

    fn apply_view(&mut self, ctx: &mut Ctx<DcWire>, vc: ViewChange) {
        if vc.view_id <= self.view_id {
            return;
        }
        ctx.trace(
            Event::new("view_change")
                .a(u64::from(vc.view_id))
                .b(vc.members.len() as u64),
        );
        self.view_id = vc.view_id;
        self.members = vc.members.iter().map(|&m| m as usize).collect();
        self.members.sort_unstable();
        if !self.members.contains(&self.me) {
            self.evicted = true;
        }
        for (s, c) in vc.cuts {
            self.cuts.entry(s as usize).or_insert(c);
        }
        for (s, seq, data) in vc.frames {
            let s = s as usize;
            if seq >= self.delivered_upto[s] {
                let body = match data {
                    None => Body::Null,
                    Some((client, id, payload)) => Body::Data {
                        client: client as NodeId,
                        id,
                        payload,
                    },
                };
                self.store[s].entry(seq).or_insert(body);
            }
        }
        // Discard frames past the cut of now-dead senders.
        for (&s, &c) in &self.cuts {
            let drop: Vec<u64> = self.store[s].range(c..).map(|(&k, _)| k).collect();
            for k in drop {
                self.store[s].remove(&k);
            }
        }
        // Leader-mode succession.
        let low = self.current_sender();
        if self.leader_order.last() != Some(&low) {
            self.leader_order.push(low);
        }
        // Fresh heartbeat baseline so survivors are not instantly suspected.
        let now = ctx.now();
        for &m in &self.members.clone() {
            self.hb_seen[m] = (self.row_hb(m), now);
        }
    }

    /// Publish protocol-level gauge levels: view id as epoch, the worst
    /// received-but-undelivered backlog across sender lanes, and the fullest
    /// outbound ring lane's occupancy.
    fn publish_gauges(&mut self, ctx: &mut Ctx<DcWire>) {
        let mut lag = 0u64;
        for s in 0..self.store.len() {
            if let Some(&top) = self.store[s].keys().next_back() {
                lag = lag.max((top + 1).saturating_sub(self.delivered_upto[s]));
            }
        }
        ctx.gauge(Gauge::CommitFrontierLag, lag);
        let mut occ = 0u64;
        for &m in &self.members {
            if m == self.me {
                continue;
            }
            occ = occ.max((self.cfg.ring_bytes as u64).saturating_sub(self.out_ring.free_space(m)));
        }
        ctx.gauge(Gauge::RingOccupancy, occ);
    }
}

impl Process<DcWire> for DerechoNode {
    fn on_start(&mut self, ctx: &mut Ctx<DcWire>) {
        let now = ctx.now();
        for m in 0..self.cfg.n {
            self.hb_seen[m] = (0, now);
        }
        ctx.set_timer(cpu::POLL_INTERVAL, TOK_POLL);
        ctx.set_timer(ROW_PUSH_INTERVAL, TOK_ROW);
    }

    fn on_message(&mut self, ctx: &mut Ctx<DcWire>, from: NodeId, msg: DcWire) {
        match msg {
            DcWire::Rdma(pkt) => self.ep.on_packet(ctx, from, pkt),
            DcWire::Req(req) => self.on_client_request(ctx, from, req),
            DcWire::View(vc) => {
                ctx.use_cpu(cpu::TCP_MSG);
                self.apply_view(ctx, vc);
            }
            DcWire::Resp(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<DcWire>, token: u64) {
        match token {
            TOK_POLL => {
                ctx.use_cpu_idle(cpu::POLL_IDLE);
                self.drain_rings(ctx);
                self.observe_stability(ctx);
                self.make_nulls(ctx);
                self.deliver_loop(ctx);
                self.reuse_slots();
                self.flush(ctx);
                self.detect_failures(ctx);
                // Audit: delivery happens only at SST stability, so the
                // delivery frontier is both the accept and commit point of
                // this one-sided protocol; delivered headers are monotone in
                // both sending modes, and the view id is the node's epoch.
                self.audit.observe(
                    ctx,
                    Epoch::new(self.view_id, 0),
                    self.committed_hdr,
                    self.committed_hdr,
                );
                self.publish_gauges(ctx);
                ctx.set_timer(cpu::POLL_INTERVAL, TOK_POLL);
            }
            TOK_ROW => {
                self.push_row(ctx);
                ctx.set_timer(ROW_PUSH_INTERVAL, TOK_ROW);
            }
            _ => {}
        }
    }
}
