//! # dare — the DARE baseline (related work, §5 of the Acuerdo paper)
//!
//! A performance-faithful reimplementation of DARE (Poke & Hoefler,
//! HPDC '15), the earliest RDMA state-machine replication system, built on
//! the same simulated fabric. The Acuerdo paper does not benchmark DARE
//! directly (APUS supersedes it), but §5 analyses exactly the two behaviours
//! this crate models:
//!
//! * **Fine-grained completions on the broadcast path**: "in order to send a
//!   message to a remote acceptor, leaders must first write to the log,
//!   ensure the write is completed, then mark the entry as valid." Every
//!   write is signaled (`signal_interval = 1`), and the leader serialises
//!   *entry write → completion → commit-pointer write → completion* per
//!   message — two full round trips on the critical path, which is why DARE
//!   is slow relative to APUS and Acuerdo.
//! * **Vote-once elections that can split**: each replica votes for at most
//!   one candidate per term. Two simultaneous candidates can split the vote,
//!   forcing "another expensive timeout and election round"; DARE mitigates
//!   (but does not eliminate) this with randomized timeouts. Contrast
//!   Acuerdo's fixed-point election, where voters *upgrade* their votes and
//!   termination is guaranteed while nodes keep responding.
//!
//! Followers are CPU-passive on the data path (DARE's headline idea): the
//! leader writes directly into their registered log regions, and followers
//! only poll the commit pointer to apply entries.

use abcast::{
    hdr_span, App, ClientReq, ClientResp, Committed, DeliveryLog, Epoch, Instrument, MsgHdr,
    Replica, MAX_BACKLOG,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::Rng;
use rdma_sim::{Endpoint, QpConfig, RdmaPkt, RegionId};
use simnet::params::cpu;
use simnet::{Ctx, DeliveryClass, MsgKind, NetParams, NodeId, Process, Sim, SimTime, SpanStage};
use std::collections::VecDeque;
use std::time::Duration;

/// Configuration of one DARE group.
#[derive(Clone, Debug)]
pub struct DareConfig {
    /// Group size.
    pub n: usize,
    /// Election timeout range (randomized — DARE's split-vote mitigation).
    pub election_timeout: (Duration, Duration),
}

impl Default for DareConfig {
    fn default() -> Self {
        DareConfig {
            n: 3,
            election_timeout: (Duration::from_millis(1), Duration::from_millis(3)),
        }
    }
}

/// Wire type of a DARE simulation. Data plane is one-sided RDMA; the control
/// plane (election) uses small messages, as in DARE's implementation.
#[derive(Clone, Debug)]
pub enum DareWire {
    /// One-sided RDMA traffic.
    Rdma(RdmaPkt),
    /// Client request.
    Req(ClientReq),
    /// Client response.
    Resp(ClientResp),
    /// Candidate soliciting a vote for `term`.
    VoteReq {
        /// Candidate's term.
        term: u32,
        /// Candidate's log end (bytes) — the up-to-date criterion.
        log_end: u64,
    },
    /// Vote response. DARE replicas vote **at most once per term**.
    VoteResp {
        /// Voter's term.
        term: u32,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// New leader announcement: followers adopt `term` and the leader's log
    /// is re-mirrored from `sync_from`.
    NewTerm {
        /// The new term.
        term: u32,
        /// Log bytes from offset 0 (DARE's log adjustment, simplified to a
        /// full mirror).
        log: Bytes,
        /// New valid-log end.
        log_end: u64,
    },
}

impl From<RdmaPkt> for DareWire {
    fn from(p: RdmaPkt) -> Self {
        DareWire::Rdma(p)
    }
}

impl abcast::ClientPort for DareWire {
    fn request(req: ClientReq) -> Self {
        DareWire::Req(req)
    }
    fn response(&self) -> Option<ClientResp> {
        match self {
            DareWire::Resp(r) => Some(*r),
            _ => None,
        }
    }
}

/// Role of a DARE replica.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DareRole {
    /// The term leader.
    Leader,
    /// Passive log target.
    Follower,
    /// Soliciting votes.
    Candidate,
}

/// Region plan: region 0 = the replicated log, region 1 = the control block
/// `(commit offset u64, entry count u64, heartbeat u64)`.
const CTRL_LEN: usize = 24;
/// Bytes of the replicated log region (no wrap: sized for the run).
const LOG_BYTES: usize = 8 << 20;

const TOK_POLL: u64 = 1;
const TOK_ELECT: u64 = 2;
/// Leader heartbeat (commit-pointer refresh) interval.
const HB_INTERVAL: Duration = Duration::from_micros(20);
const DELIVER_COST: Duration = Duration::from_nanos(100);

/// Entry layout: `[len u32][term u32][client u32][id u64][payload]`. The
/// term travels with the entry so replicas synthesise identical delivery
/// headers regardless of their own term.
const ENTRY_HDR: usize = 20;

fn encode_entry(term: u32, client: u32, id: u64, payload: &Bytes) -> Bytes {
    let mut b = BytesMut::with_capacity(ENTRY_HDR + payload.len());
    b.put_u32_le(payload.len() as u32);
    b.put_u32_le(term);
    b.put_u32_le(client);
    b.put_u64_le(id);
    b.put_slice(payload);
    b.freeze()
}

fn decode_entry(mut raw: Bytes) -> Option<(u32, u32, u64, Bytes)> {
    if raw.len() < ENTRY_HDR {
        return None;
    }
    let len = raw.get_u32_le() as usize;
    let term = raw.get_u32_le();
    let client = raw.get_u32_le();
    let id = raw.get_u64_le();
    if raw.len() < len {
        return None;
    }
    Some((term, client, id, raw.split_to(len)))
}

/// The leader's per-entry replication pipeline: DARE serialises
/// entry-write-completion then pointer-write-completion.
#[derive(Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    /// Entry bytes posted; waiting for write completions from a quorum.
    AwaitEntry {
        end: u64,
        count: u64,
    },
    /// Commit pointer posted; waiting for completions from a quorum.
    AwaitPointer {
        end: u64,
        count: u64,
    },
}

/// One DARE replica.
pub struct DareNode {
    cfg: DareConfig,
    me: usize,

    ep: Endpoint,
    log_region: RegionId,
    ctrl_region: RegionId,

    role: DareRole,
    term: u32,
    voted_in: u32,

    // Local log bookkeeping (the leader's view; followers read regions).
    log_end: u64,
    entry_count: u64,
    applied_off: u64,
    applied_count: u64,

    // Leader pipeline.
    pending: VecDeque<(NodeId, u64, Bytes)>,
    phase: Phase,
    instrument: Instrument<u64>,
    hb_seq: u64,

    // Election.
    votes: usize,
    election_gen: u64,
    last_hb_seen: (u64, SimTime),

    /// The replicated application.
    pub app: Box<dyn App>,
    /// Elections this node attempted (candidate rounds) — split votes show
    /// up as attempts ≫ wins.
    pub election_rounds: u64,
}

impl DareNode {
    /// Build replica `me`; with `preset_leader`, node 0 boots leading term 1.
    pub fn new(cfg: DareConfig, me: usize, preset_leader: bool) -> Self {
        let n = cfg.n;
        assert!(me < n);
        let mut ep = Endpoint::new(QpConfig {
            // DARE's defining choice: every write is signaled.
            signal_interval: 1,
            ..QpConfig::default()
        });
        let log_region = ep.register_region(LOG_BYTES);
        let ctrl_region = ep.register_region(CTRL_LEN);
        for p in 0..n {
            ep.connect(p);
        }
        let (role, term) = if preset_leader {
            (
                if me == 0 {
                    DareRole::Leader
                } else {
                    DareRole::Follower
                },
                1,
            )
        } else {
            (DareRole::Follower, 0)
        };
        DareNode {
            cfg,
            me,
            ep,
            log_region,
            ctrl_region,
            role,
            term,
            voted_in: if preset_leader { 1 } else { 0 },
            log_end: 0,
            entry_count: 0,
            applied_off: 0,
            applied_count: 0,
            pending: VecDeque::new(),
            phase: Phase::Idle,
            instrument: Instrument::new(DELIVER_COST, Duration::ZERO),
            hb_seq: 0,
            votes: 0,
            election_gen: 0,
            last_hb_seen: (0, SimTime::ZERO),
            app: Box::<DeliveryLog>::default(),
            election_rounds: 0,
        }
    }

    /// The header the entry after the first `count` is delivered under.
    fn hdr(term: u32, count: u64) -> MsgHdr {
        MsgHdr::new(Epoch::new(term, 0), count as u32 + 1)
    }

    fn quorum(&self) -> usize {
        self.cfg.n / 2 + 1
    }

    /// Current role.
    pub fn role(&self) -> DareRole {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u32 {
        self.term
    }

    fn ctrl(&self) -> (u64, u64, u64) {
        let raw = self.ep.peek(self.ctrl_region, 0, CTRL_LEN);
        (
            u64::from_le_bytes(raw[0..8].try_into().unwrap()),
            u64::from_le_bytes(raw[8..16].try_into().unwrap()),
            u64::from_le_bytes(raw[16..24].try_into().unwrap()),
        )
    }

    fn write_ctrl_local(&mut self, commit: u64, count: u64, hb: u64) {
        let mut b = [0u8; CTRL_LEN];
        b[0..8].copy_from_slice(&commit.to_le_bytes());
        b[8..16].copy_from_slice(&count.to_le_bytes());
        b[16..24].copy_from_slice(&hb.to_le_bytes());
        self.ep.write_local(self.ctrl_region, 0, &b);
    }

    // ---- leader pipeline -----------------------------------------------------

    fn on_request(&mut self, ctx: &mut Ctx<DareWire>, from: NodeId, req: ClientReq) {
        if self.role != DareRole::Leader || self.pending.len() >= MAX_BACKLOG {
            return;
        }
        ctx.use_cpu_at(SpanStage::LeaderRecv, cpu::CLIENT_INGEST);
        self.pending.push_back((from, req.id, req.payload));
    }

    fn pump(&mut self, ctx: &mut Ctx<DareWire>) {
        if self.role != DareRole::Leader {
            return;
        }
        match self.phase {
            Phase::Idle => {
                let Some((client, id, payload)) = self.pending.pop_front() else {
                    return;
                };
                let entry = encode_entry(self.term, client as u32, id, &payload);
                if self.log_end as usize + entry.len() > LOG_BYTES {
                    // Log region exhausted (no wrap in this baseline):
                    // refuse further proposals.
                    return;
                }
                let off = self.log_end as u32;
                self.ep.write_local(self.log_region, off, &entry);
                let span = hdr_span(&Self::hdr(self.term, self.entry_count));
                self.instrument
                    .admit(ctx, self.entry_count, span, client, id);
                // Step 1: write the entry to every follower's log, each
                // write individually signaled.
                for j in 0..self.cfg.n {
                    if j != self.me {
                        let _ = self.ep.post_write(
                            ctx,
                            j,
                            self.log_region,
                            off,
                            entry.clone(),
                            MsgKind::Payload,
                        );
                    }
                }
                self.phase = Phase::AwaitEntry {
                    end: self.log_end + entry.len() as u64,
                    count: self.entry_count + 1,
                };
            }
            Phase::AwaitEntry { end, count } => {
                // "Ensure the write is completed": wait for hardware
                // completions from a quorum before marking valid.
                let done = 1
                    + (0..self.cfg.n)
                        .filter(|&j| j != self.me && self.ep.outstanding(j) == 0)
                        .count();
                if done < self.quorum() {
                    return;
                }
                self.log_end = end;
                self.entry_count = count;
                self.hb_seq += 1;
                self.write_ctrl_local(end, count, self.hb_seq);
                let data = Bytes::copy_from_slice(self.ep.read(self.ctrl_region, 0, CTRL_LEN));
                for j in 0..self.cfg.n {
                    if j != self.me {
                        let _ = self.ep.post_write(
                            ctx,
                            j,
                            self.ctrl_region,
                            0,
                            data.clone(),
                            MsgKind::Control,
                        );
                    }
                }
                self.phase = Phase::AwaitPointer { end, count };
            }
            Phase::AwaitPointer { end, count } => {
                let done = 1
                    + (0..self.cfg.n)
                        .filter(|&j| j != self.me && self.ep.outstanding(j) == 0)
                        .count();
                if done < self.quorum() {
                    return;
                }
                let _ = (end, count);
                self.apply(ctx);
                self.phase = Phase::Idle;
                // Immediately try the next entry in the same poll.
                self.pump(ctx);
            }
        }
    }

    // ---- follower / apply -------------------------------------------------------

    fn apply(&mut self, ctx: &mut Ctx<DareWire>) {
        let (commit, count, hb) = self.ctrl();
        if hb != self.last_hb_seen.0 {
            self.last_hb_seen = (hb, ctx.now());
        }
        while self.applied_count < count && self.applied_off < commit {
            let remaining = (commit - self.applied_off) as usize;
            let raw = Bytes::copy_from_slice(self.ep.read(
                self.log_region,
                self.applied_off as u32,
                remaining.min(LOG_BYTES - self.applied_off as usize),
            ));
            let Some((term, _, _, payload)) = decode_entry(raw) else {
                break; // torn prefix: wait for the rest
            };
            let hdr = Self::hdr(term, self.applied_count);
            let entry = Committed {
                key: self.applied_count,
                span: hdr_span(&hdr),
                hdr,
                payload: &payload,
            };
            let reply = (self.role == DareRole::Leader).then_some(DareWire::Resp);
            self.instrument.deliver(ctx, &mut *self.app, entry, reply);
            self.applied_off += ENTRY_HDR as u64 + payload.len() as u64;
            self.applied_count += 1;
        }
    }

    // ---- election (vote-once, randomized timeouts) --------------------------------

    fn arm_election_timer(&mut self, ctx: &mut Ctx<DareWire>) {
        self.election_gen += 1;
        let (lo, hi) = self.cfg.election_timeout;
        let span = (hi - lo).as_nanos() as u64;
        let jitter = if span == 0 {
            0
        } else {
            ctx.rng().random_range(0..=span)
        };
        ctx.set_timer(
            lo + Duration::from_nanos(jitter),
            (TOK_ELECT << 32) | self.election_gen,
        );
    }

    fn start_candidacy(&mut self, ctx: &mut Ctx<DareWire>) {
        self.role = DareRole::Candidate;
        self.term += 1;
        self.voted_in = self.term;
        self.votes = 1;
        self.election_rounds += 1;
        self.arm_election_timer(ctx);
        for p in 0..self.cfg.n {
            if p != self.me {
                ctx.use_cpu(cpu::FRAME_PROC);
                ctx.send(
                    p,
                    DeliveryClass::Cpu,
                    64,
                    DareWire::VoteReq {
                        term: self.term,
                        log_end: self.log_end.max(self.applied_off),
                    },
                );
            }
        }
    }

    fn on_vote_req(&mut self, ctx: &mut Ctx<DareWire>, from: NodeId, term: u32, log_end: u64) {
        if term > self.term {
            self.term = term;
            if self.role != DareRole::Follower {
                self.role = DareRole::Follower;
            }
        }
        // DARE's rule: at most one vote per term — no upgrading, so
        // simultaneous candidates split the electorate.
        let my_end = self.log_end.max(self.applied_off);
        let grant = term == self.term && self.voted_in < term && log_end >= my_end;
        if grant {
            self.voted_in = term;
        }
        ctx.send(
            from,
            DeliveryClass::Cpu,
            48,
            DareWire::VoteResp {
                term: self.term,
                granted: grant,
            },
        );
    }

    fn on_vote_resp(&mut self, ctx: &mut Ctx<DareWire>, term: u32, granted: bool) {
        if self.role != DareRole::Candidate || term != self.term || !granted {
            return;
        }
        self.votes += 1;
        if self.votes >= self.quorum() {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Ctx<DareWire>) {
        self.role = DareRole::Leader;
        ctx.count(simnet::Counter::ElectionsWon, 1);
        self.phase = Phase::Idle;
        // Log adjustment (simplified to a full mirror): bring every follower
        // to this leader's log.
        let end = self.log_end.max(self.applied_off);
        self.log_end = end;
        self.entry_count = self.entry_count.max(self.applied_count);
        let log = Bytes::copy_from_slice(self.ep.read(self.log_region, 0, end as usize));
        for p in 0..self.cfg.n {
            if p != self.me {
                ctx.use_cpu(cpu::TCP_MSG);
                ctx.send(
                    p,
                    DeliveryClass::Cpu,
                    (64 + log.len()) as u32,
                    DareWire::NewTerm {
                        term: self.term,
                        log: log.clone(),
                        log_end: end,
                    },
                );
            }
        }
        self.hb_seq += 1;
        self.write_ctrl_local(end, self.entry_count, self.hb_seq);
        let data = Bytes::copy_from_slice(self.ep.read(self.ctrl_region, 0, CTRL_LEN));
        for j in 0..self.cfg.n {
            if j != self.me {
                let _ =
                    self.ep
                        .post_write(ctx, j, self.ctrl_region, 0, data.clone(), MsgKind::Control);
            }
        }
    }

    fn on_new_term(&mut self, ctx: &mut Ctx<DareWire>, term: u32, log: Bytes, log_end: u64) {
        if term < self.term {
            return;
        }
        self.term = term;
        self.role = DareRole::Follower;
        self.ep.write_local(self.log_region, 0, &log);
        self.log_end = log_end;
        self.last_hb_seen = (self.last_hb_seen.0, ctx.now());
        self.arm_election_timer(ctx);
    }

    fn heartbeat(&mut self, ctx: &mut Ctx<DareWire>) {
        if self.role != DareRole::Leader {
            return;
        }
        self.hb_seq += 1;
        let (c, n, _) = self.ctrl();
        self.write_ctrl_local(c, n, self.hb_seq);
        let data = Bytes::copy_from_slice(self.ep.read(self.ctrl_region, 0, CTRL_LEN));
        for j in 0..self.cfg.n {
            if j != self.me {
                let _ =
                    self.ep
                        .post_write(ctx, j, self.ctrl_region, 0, data.clone(), MsgKind::Control);
            }
        }
    }
}

impl Process<DareWire> for DareNode {
    fn on_start(&mut self, ctx: &mut Ctx<DareWire>) {
        self.last_hb_seen = (0, ctx.now());
        ctx.set_timer(cpu::POLL_INTERVAL, TOK_POLL);
        ctx.set_timer(HB_INTERVAL, TOK_ELECT << 16); // heartbeat tick
        if self.role != DareRole::Leader {
            self.arm_election_timer(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<DareWire>, from: NodeId, msg: DareWire) {
        match msg {
            DareWire::Rdma(pkt) => self.ep.on_packet(ctx, from, pkt),
            DareWire::Req(req) => self.on_request(ctx, from, req),
            DareWire::VoteReq { term, log_end } => self.on_vote_req(ctx, from, term, log_end),
            DareWire::VoteResp { term, granted } => self.on_vote_resp(ctx, term, granted),
            DareWire::NewTerm { term, log, log_end } => self.on_new_term(ctx, term, log, log_end),
            DareWire::Resp(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<DareWire>, token: u64) {
        if token == TOK_POLL {
            ctx.use_cpu_idle(cpu::POLL_IDLE);
            self.apply(ctx);
            self.pump(ctx);
            ctx.set_timer(cpu::POLL_INTERVAL, TOK_POLL);
        } else if token == TOK_ELECT << 16 {
            self.heartbeat(ctx);
            ctx.set_timer(HB_INTERVAL, TOK_ELECT << 16);
        } else if token >> 32 == TOK_ELECT {
            if (token & 0xFFFF_FFFF) != self.election_gen {
                return;
            }
            if self.role == DareRole::Leader {
                return;
            }
            // Leader silence? The poll loop records when the heartbeat
            // counter last moved; only a stale *timestamp* means silence.
            let (_, _, hb) = self.ctrl();
            if hb != self.last_hb_seen.0 {
                self.last_hb_seen = (hb, ctx.now());
            }
            if ctx.now().saturating_since(self.last_hb_seen.1) < self.cfg.election_timeout.0 {
                self.arm_election_timer(ctx);
                return;
            }
            self.start_candidacy(ctx);
        }
    }
}

/// Build a group occupying ids `0..n`.
pub fn build_cluster(
    sim: &mut Sim<DareWire>,
    cfg: &DareConfig,
    preset_leader: bool,
) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(cfg.n);
    for me in 0..cfg.n {
        let id = sim.add_node(Box::new(DareNode::new(cfg.clone(), me, preset_leader)));
        assert_eq!(id, me);
        ids.push(id);
    }
    ids
}

impl Replica for DareNode {
    type Wire = DareWire;
    type Config = DareConfig;

    fn net() -> NetParams {
        NetParams::rdma()
    }

    fn build_cluster(sim: &mut Sim<DareWire>, cfg: &DareConfig) -> Vec<NodeId> {
        build_cluster(sim, cfg, true)
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

    #[test]
    fn commits_and_totally_orders() {
        let cfg = DareConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<DareNode>(61, &cfg, 8, 10, Duration::from_millis(1));
        sim.run_until(SimTime::from_millis(10));
        check_cluster::<DareNode>(&sim, &ids).unwrap();
        let r = sim.node::<WindowClient<DareWire>>(client).result();
        assert!(r.completed > 100, "completed {}", r.completed);
    }

    #[test]
    fn fine_grained_completions_make_dare_slower_than_acuerdo_shape() {
        // Two serialized completion waits per entry: latency well above
        // Acuerdo's ~12.6us single-RTT pipeline.
        let cfg = DareConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<DareNode>(62, &cfg, 1, 10, Duration::from_millis(1));
        sim.run_until(SimTime::from_millis(10));
        check_cluster::<DareNode>(&sim, &ids).unwrap();
        let lat = sim
            .node::<WindowClient<DareWire>>(client)
            .result()
            .latency
            .mean_us();
        println!("dare window-1 latency: {lat:.2} us");
        assert!(lat > 8.0, "dare latency {lat} suspiciously low");
        assert!(lat < 80.0, "dare latency {lat} too high");
    }

    #[test]
    fn single_entry_pipeline_caps_throughput() {
        let cfg = DareConfig::default();
        let (mut sim, _ids, client) =
            cluster_with_client::<DareNode>(63, &cfg, 256, 10, Duration::from_millis(2));
        sim.run_until(SimTime::from_millis(20));
        let r = sim.node::<WindowClient<DareWire>>(client).result();
        println!("dare saturated: {:.0} msg/s", r.msgs_per_sec());
        // One entry at a time, two completion waits each: far below
        // Acuerdo's ~240k/s.
        assert!(r.msgs_per_sec() < 150_000.0);
        assert!(r.msgs_per_sec() > 20_000.0);
    }

    #[test]
    fn leader_crash_elects_replacement() {
        let cfg = DareConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<DareNode>(64, &cfg, 4, 10, Duration::ZERO);
        sim.node_mut::<WindowClient<DareWire>>(client).retransmit = Some(Duration::from_millis(5));
        sim.run_until(SimTime::from_millis(5));
        let before = sim.counter(1, simnet::Counter::Commits);
        assert!(before > 0);
        sim.crash(0);
        sim.run_until(SimTime::from_millis(40));
        let new_leader = ids
            .iter()
            .find(|&&id| !sim.is_crashed(id) && sim.node::<DareNode>(id).role() == DareRole::Leader)
            .copied()
            .expect("new leader");
        sim.node_mut::<WindowClient<DareWire>>(client).targets = vec![new_leader];
        sim.run_until(SimTime::from_millis(80));
        assert!(sim.counter(new_leader, simnet::Counter::Commits) > before);
        check_cluster::<DareNode>(&sim, &ids).unwrap();
    }

    #[test]
    fn vote_once_without_randomization_livelocks() {
        // §5: "DARE can deadlock when several acceptors fall into an
        // election but split their vote among several valid contenders" —
        // randomized timeouts are its only mitigation. Remove the
        // randomization (zero-width timeout range) and the split vote
        // repeats forever: candidacies pile up, nobody ever wins.
        let cfg = DareConfig {
            election_timeout: (Duration::from_millis(1), Duration::from_millis(1)),
            ..DareConfig::default()
        };
        let (mut sim, ids, _client) =
            cluster_with_client::<DareNode>(65, &cfg, 1, 10, Duration::ZERO);
        sim.run_until(SimTime::from_millis(2));
        sim.crash(0);
        sim.run_until(SimTime::from_millis(80));
        let mut rounds = 0;
        let mut wins = 0;
        for &id in &ids[1..] {
            let n = sim.node::<DareNode>(id);
            rounds += n.election_rounds;
            wins += sim.counter(id, simnet::Counter::ElectionsWon);
        }
        println!("dare zero-jitter: {rounds} candidate rounds, {wins} wins");
        assert_eq!(wins, 0, "perfectly synchronized candidates must split");
        assert!(rounds > 20, "candidacies should repeat: {rounds}");
        // Acuerdo's upgradeable votes terminate under the same conditions
        // (tests/fault_injection.rs::election_with_all_followers_slow_still_terminates).
    }

    #[test]
    fn randomized_timeouts_eventually_break_split_votes() {
        // The mitigation: with a wide randomized range a unique winner
        // emerges, possibly after extra rounds.
        for seed in [66u64, 67, 68] {
            let cfg = DareConfig {
                election_timeout: (Duration::from_millis(1), Duration::from_millis(3)),
                ..DareConfig::default()
            };
            let (mut sim, ids, _client) =
                cluster_with_client::<DareNode>(seed, &cfg, 1, 10, Duration::ZERO);
            sim.run_until(SimTime::from_millis(2));
            sim.crash(0);
            sim.run_until(SimTime::from_millis(80));
            let leaders = ids[1..]
                .iter()
                .filter(|&&id| sim.node::<DareNode>(id).role() == DareRole::Leader)
                .count();
            assert_eq!(leaders, 1, "seed {seed}: no unique leader");
            check_cluster::<DareNode>(&sim, &ids).unwrap();
        }
    }
}
