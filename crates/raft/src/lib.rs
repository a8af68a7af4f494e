//! # raft — the etcd baseline
//!
//! A complete Raft implementation (Ongaro & Ousterhout, ATC '14): terms,
//! randomized election timeouts, RequestVote with the up-to-date-log check,
//! AppendEntries with the prev-index consistency check and conflict
//! back-off, quorum commit with the current-term rule, and state-machine
//! application in log order.
//!
//! The cost model reproduces etcd 3.4 as the Acuerdo paper measured it
//! (§4): every hop crosses the kernel TCP stack, each proposal pays gRPC
//! marshalling and Raft bookkeeping (`ETCD_ENTRY`), and every appended entry
//! is fsynced to the WAL on both the leader and follower paths
//! (`ETCD_FSYNC`). That WAL discipline is what puts etcd near a millisecond
//! of commit latency in Figure 8 and ~50x below Acuerdo's YCSB throughput in
//! Figure 9.

use abcast::wal;
use abcast::{
    App, Auditor, ClientReq, ClientResp, Committed, DeliveryLog, Epoch, Instrument, MsgHdr,
    Replica, MAX_BACKLOG,
};
use bytes::Bytes;
use rand::Rng;
use simnet::params::cpu;
use simnet::{
    msg_span, Ctx, DeliveryClass, DurabilityMode, Gauge, LogDevParams, MsgKind, NetParams, NodeId,
    Process, Sim, SimTime, SpanStage,
};
use std::convert::Infallible;
use std::time::Duration;

/// Configuration of one Raft group.
#[derive(Clone, Debug)]
pub struct RaftConfig {
    /// Group size.
    pub n: usize,
    /// Volatile (default) charges the WAL fsync barrier but keeps no
    /// recoverable state; Durable additionally writes entry and hard-state
    /// records so a restarted node rebuilds its log from disk.
    pub durability: DurabilityMode,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            n: 3,
            durability: DurabilityMode::Volatile,
        }
    }
}

// ---- WAL records (durable mode, `abcast::wal`) -------------------------------
//
// Replay resolves conflicts the same way etcd's WAL does: entry records carry
// their index, and a record at an index the rebuilt log already covers
// truncates the conflicting suffix before appending.

/// `(index, (term, (client, id)))` of a log entry.
type EntryHead = (u64, (u32, (u32, u64)));
/// A log entry: its head, then its payload.
const WAL_ENTRY: wal::Kind<EntryHead> = wal::Kind::new(1);
/// The hard state `(term, voted_for)`, `u32::MAX` for no vote.
const WAL_HARD: wal::Kind<(u32, u32)> = wal::Kind::new(2);

/// One replicated log entry.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Term in which the entry was created.
    pub term: u32,
    /// Originating client.
    pub client: u32,
    /// Client request id.
    pub id: u64,
    /// Payload.
    pub payload: Bytes,
}

/// Wire type of a Raft simulation (all kernel-TCP).
#[derive(Clone, Debug)]
pub enum RfWire {
    /// Client request.
    Req(ClientReq),
    /// Client response.
    Resp(ClientResp),
    /// Candidate soliciting a vote.
    RequestVote {
        /// Candidate's term.
        term: u32,
        /// Candidate's last log index.
        last_idx: u64,
        /// Candidate's last log term.
        last_term: u32,
    },
    /// Vote response.
    VoteReply {
        /// Voter's term.
        term: u32,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat.
    AppendEntries {
        /// Leader's term.
        term: u32,
        /// Index preceding the shipped entries.
        prev_idx: u64,
        /// Term at `prev_idx`.
        prev_term: u32,
        /// Entries to append (empty = heartbeat).
        entries: Vec<Entry>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// AppendEntries response.
    AppendReply {
        /// Follower's term.
        term: u32,
        /// Whether the append matched.
        success: bool,
        /// On success, the follower's new match index; on failure, a back-off
        /// hint (the follower's last log index).
        match_idx: u64,
    },
}

impl abcast::ClientPort for RfWire {
    fn request(req: ClientReq) -> Self {
        RfWire::Req(req)
    }
    fn response(&self) -> Option<ClientResp> {
        match self {
            RfWire::Resp(r) => Some(*r),
            _ => None,
        }
    }
}

/// Raft role.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RaftRole {
    /// Passive replica.
    Follower,
    /// Soliciting votes.
    Candidate,
    /// The term leader.
    Leader,
}

const TOK_ELECTION: u64 = 1;
const TOK_HEARTBEAT: u64 = 2;
// etcd's defaults are 100 ms heartbeats and a 1 s election timeout; both are
// scaled to a tenth so failover tests stay fast while keeping the same margin
// over commit latency.
/// Leader heartbeat (empty AppendEntries) interval.
const HEARTBEAT: Duration = Duration::from_millis(10);
/// The election timeout is drawn uniformly from `[lo, hi]`.
const ELECTION_TIMEOUT: (Duration, Duration) =
    (Duration::from_millis(100), Duration::from_millis(200));
/// Max entries per AppendEntries RPC.
const MAX_BATCH: u64 = 64;
const DELIVER_COST: Duration = Duration::from_micros(1);

/// One Raft group member.
pub struct RaftNode {
    cfg: RaftConfig,
    me: usize,

    role: RaftRole,
    term: u32,
    voted_for: Option<usize>,
    /// 1-indexed log (index 0 is a sentinel).
    log: Vec<Entry>,
    commit_index: u64,
    last_applied: u64,
    leader_hint: usize,

    // Leader state.
    next_index: Vec<u64>,
    match_index: Vec<u64>,
    in_flight: Vec<bool>,
    instrument: Instrument<u64>,

    // Candidate state.
    votes: usize,

    // Timer staleness.
    election_gen: u64,
    last_heard: SimTime,

    /// Online invariant monitor.
    audit: Auditor,

    /// The replicated application.
    pub app: Box<dyn App>,
}

impl RaftNode {
    /// Build member `me`. With `preset_leader`, node 0 boots as the term-1
    /// leader (benchmark setup).
    pub fn new(cfg: RaftConfig, me: usize, preset_leader: bool) -> Self {
        let n = cfg.n;
        assert!(me < n);
        let (role, term) = if preset_leader {
            (
                if me == 0 {
                    RaftRole::Leader
                } else {
                    RaftRole::Follower
                },
                1,
            )
        } else {
            (RaftRole::Follower, 0)
        };
        RaftNode {
            cfg,
            me,
            role,
            term,
            voted_for: if preset_leader { Some(0) } else { None },
            log: Vec::new(),
            commit_index: 0,
            last_applied: 0,
            leader_hint: 0,
            next_index: vec![1; n],
            match_index: vec![0; n],
            in_flight: vec![false; n],
            instrument: Instrument::new(DELIVER_COST, cpu::TCP_SEND),
            votes: 0,
            election_gen: 0,
            last_heard: SimTime::ZERO,
            audit: Auditor::new(),
            app: Box::<DeliveryLog>::default(),
        }
    }

    fn quorum(&self) -> usize {
        self.cfg.n / 2 + 1
    }

    /// Current role.
    pub fn role(&self) -> RaftRole {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u32 {
        self.term
    }

    fn last_idx(&self) -> u64 {
        self.log.len() as u64
    }

    fn term_at(&self, idx: u64) -> u32 {
        if idx == 0 {
            0
        } else {
            self.log[idx as usize - 1].term
        }
    }

    /// Lifecycle span id of log position `idx`: the entry's own term plus
    /// its index — every replica derives the same id for the same entry.
    fn ispan(term: u32, idx: u64) -> u64 {
        msg_span(term, 0, idx as u32)
    }

    /// Feed the invariant auditor one `(term, accept point, commit point)`
    /// observation. The accept point is the log tip, the commit point the
    /// last *applied* entry (committed entries are never truncated, so both
    /// are monotone under Raft's conflict-suffix deletion).
    fn observe_audit(&mut self, ctx: &mut Ctx<RfWire>) {
        let tip = self.last_idx();
        let acc = MsgHdr::new(Epoch::new(self.term_at(tip), 0), tip as u32);
        let com = MsgHdr::new(
            Epoch::new(self.term_at(self.last_applied), 0),
            self.last_applied as u32,
        );
        self.audit.observe(ctx, Epoch::new(self.term, 0), acc, com);
        ctx.gauge(
            Gauge::CommitFrontierLag,
            tip.saturating_sub(self.last_applied),
        );
        if self.role == RaftRole::Leader {
            let min_match = self.match_index.iter().copied().min().unwrap_or(0);
            ctx.gauge(Gauge::AckFrontierLag, tip.saturating_sub(min_match));
        }
    }

    fn send(&self, ctx: &mut Ctx<RfWire>, dst: NodeId, wire: u32, msg: RfWire) {
        ctx.use_cpu_at(SpanStage::RingWrite, cpu::TCP_SEND);
        let kind = match &msg {
            RfWire::Req(_) => MsgKind::Payload,
            RfWire::AppendEntries { entries, .. } if !entries.is_empty() => MsgKind::Payload,
            RfWire::AppendReply { .. } => MsgKind::Ack,
            _ => MsgKind::Control,
        };
        ctx.send_kind(dst, DeliveryClass::Cpu, wire, kind, msg);
    }

    fn arm_election_timer(&mut self, ctx: &mut Ctx<RfWire>) {
        self.election_gen += 1;
        let (lo, hi) = ELECTION_TIMEOUT;
        let jitter = ctx.rng().random_range(0..=(hi - lo).as_nanos() as u64);
        ctx.set_timer(
            lo + Duration::from_nanos(jitter),
            TOK_ELECTION << 32 | self.election_gen,
        );
    }

    /// Persist `(currentTerm, votedFor)` before it becomes externally
    /// visible. Without this a node that votes, crashes, and recovers could
    /// vote again in the same term and elect two leaders.
    fn persist_hard_state(&mut self, ctx: &mut Ctx<RfWire>) {
        let vote = self.voted_for.map_or(u32::MAX, |p| p as u32);
        WAL_HARD.append(ctx, self.cfg.durability, &(self.term, vote), &[]);
        wal::fsync(ctx, self.cfg.durability);
    }

    fn step_down(&mut self, ctx: &mut Ctx<RfWire>, term: u32) {
        self.term = term;
        self.role = RaftRole::Follower;
        self.voted_for = None;
        self.persist_hard_state(ctx);
        self.last_heard = ctx.now();
        self.arm_election_timer(ctx);
    }

    // ---- client path -------------------------------------------------------

    fn on_request(&mut self, ctx: &mut Ctx<RfWire>, from: NodeId, req: ClientReq) {
        if self.role != RaftRole::Leader || self.log.len() >= MAX_BACKLOG {
            return;
        }
        // gRPC + Raft bookkeeping + WAL fsync for the new entry. The fsync
        // barrier is charged through the log device in both modes; durable
        // mode also stages the entry record it covers.
        ctx.use_cpu_at(SpanStage::LeaderRecv, cpu::ETCD_ENTRY);
        self.log.push(Entry {
            term: self.term,
            client: from as u32,
            id: req.id,
            payload: req.payload,
        });
        let idx = self.last_idx();
        let e = &self.log[idx as usize - 1];
        let head = (idx, (e.term, (e.client, e.id)));
        WAL_ENTRY.append(ctx, self.cfg.durability, &head, &e.payload);
        ctx.log_fsync();
        self.instrument
            .admit(ctx, idx, Self::ispan(self.term, idx), from, req.id);
        self.match_index[self.me] = idx;
        for j in 0..self.cfg.n {
            if j != self.me {
                self.replicate(ctx, j);
            }
        }
        self.advance_commit(ctx, Some(self.me));
    }

    fn replicate(&mut self, ctx: &mut Ctx<RfWire>, j: usize) {
        if self.role != RaftRole::Leader || self.in_flight[j] {
            return;
        }
        if self.next_index[j] > self.last_idx() {
            return;
        }
        let from = self.next_index[j];
        let to = (from + MAX_BATCH - 1).min(self.last_idx());
        let entries: Vec<Entry> = self.log[from as usize - 1..to as usize].to_vec();
        for (k, e) in entries.iter().enumerate() {
            ctx.span(
                Self::ispan(e.term, from + k as u64),
                SpanStage::RingWrite,
                j as u64,
            );
        }
        let wire = 64
            + entries
                .iter()
                .map(|e| 24 + e.payload.len() as u32)
                .sum::<u32>();
        self.in_flight[j] = true;
        let msg = RfWire::AppendEntries {
            term: self.term,
            prev_idx: from - 1,
            prev_term: self.term_at(from - 1),
            entries,
            leader_commit: self.commit_index,
        };
        self.send(ctx, j, wire, msg);
    }

    /// `last_ack` names the member whose AppendReply (or the leader's own
    /// append) triggered this check — if the commit index advances, that
    /// member is the quorum straggler the covering mark records.
    fn advance_commit(&mut self, ctx: &mut Ctx<RfWire>, last_ack: Option<NodeId>) {
        // Largest N replicated on a majority with log[N].term == currentTerm.
        let mut n = self.last_idx();
        while n > self.commit_index {
            let reps = self.match_index.iter().filter(|&&m| m >= n).count();
            if reps >= self.quorum() && self.term_at(n) == self.term {
                break;
            }
            n -= 1;
        }
        if n > self.commit_index {
            // One covering mark: the quorum index commits the whole prefix.
            let straggler = last_ack.map_or(0, |m| m as u64 + 1);
            ctx.span(
                Self::ispan(self.term_at(n), n),
                SpanStage::Quorum,
                straggler,
            );
            self.commit_index = n;
            self.apply(ctx);
        }
    }

    fn apply(&mut self, ctx: &mut Ctx<RfWire>) {
        let leads = self.role == RaftRole::Leader;
        while self.last_applied < self.commit_index {
            self.last_applied += 1;
            let idx = self.last_applied;
            let e = &self.log[idx as usize - 1];
            let entry = Committed {
                key: idx,
                span: Self::ispan(e.term, idx),
                hdr: MsgHdr::new(Epoch::new(e.term, 0), idx as u32),
                payload: &e.payload,
            };
            self.instrument
                .deliver(ctx, &mut *self.app, entry, leads.then_some(RfWire::Resp));
        }
        self.observe_audit(ctx);
    }

    // ---- elections ----------------------------------------------------------

    fn start_election(&mut self, ctx: &mut Ctx<RfWire>) {
        self.role = RaftRole::Candidate;
        self.term += 1;
        self.voted_for = Some(self.me);
        self.persist_hard_state(ctx);
        self.votes = 1;
        self.last_heard = ctx.now();
        self.arm_election_timer(ctx);
        let (last_idx, last_term) = (self.last_idx(), self.term_at(self.last_idx()));
        for p in 0..self.cfg.n {
            if p != self.me {
                self.send(
                    ctx,
                    p,
                    64,
                    RfWire::RequestVote {
                        term: self.term,
                        last_idx,
                        last_term,
                    },
                );
            }
        }
    }

    fn on_request_vote(
        &mut self,
        ctx: &mut Ctx<RfWire>,
        from: NodeId,
        term: u32,
        last_idx: u64,
        last_term: u32,
    ) {
        if term > self.term {
            self.step_down(ctx, term);
        }
        let up_to_date = (last_term, last_idx) >= (self.term_at(self.last_idx()), self.last_idx());
        let grant = term == self.term
            && up_to_date
            && (self.voted_for.is_none() || self.voted_for == Some(from));
        if grant {
            self.voted_for = Some(from);
            self.persist_hard_state(ctx);
            self.last_heard = ctx.now();
            self.arm_election_timer(ctx);
        }
        self.send(
            ctx,
            from,
            48,
            RfWire::VoteReply {
                term: self.term,
                granted: grant,
            },
        );
    }

    fn on_vote_reply(&mut self, ctx: &mut Ctx<RfWire>, term: u32, granted: bool) {
        if term > self.term {
            self.step_down(ctx, term);
            return;
        }
        if self.role != RaftRole::Candidate || term != self.term || !granted {
            return;
        }
        self.votes += 1;
        if self.votes >= self.quorum() {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Ctx<RfWire>) {
        self.role = RaftRole::Leader;
        ctx.count(simnet::Counter::ElectionsWon, 1);
        let next = self.last_idx() + 1;
        for j in 0..self.cfg.n {
            self.next_index[j] = next;
            self.match_index[j] = 0;
            self.in_flight[j] = false;
        }
        self.match_index[self.me] = self.last_idx();
        self.heartbeat(ctx);
        ctx.set_timer(HEARTBEAT, TOK_HEARTBEAT);
    }

    fn heartbeat(&mut self, ctx: &mut Ctx<RfWire>) {
        for j in 0..self.cfg.n {
            if j == self.me {
                continue;
            }
            if self.next_index[j] <= self.last_idx() {
                self.replicate(ctx, j);
            } else if !self.in_flight[j] {
                let prev = self.next_index[j] - 1;
                let msg = RfWire::AppendEntries {
                    term: self.term,
                    prev_idx: prev,
                    prev_term: self.term_at(prev),
                    entries: Vec::new(),
                    leader_commit: self.commit_index,
                };
                self.send(ctx, j, 64, msg);
            }
        }
    }

    // ---- replication --------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_append(
        &mut self,
        ctx: &mut Ctx<RfWire>,
        from: NodeId,
        term: u32,
        prev_idx: u64,
        prev_term: u32,
        entries: Vec<Entry>,
        leader_commit: u64,
    ) {
        if term > self.term || (term == self.term && self.role == RaftRole::Candidate) {
            self.step_down(ctx, term);
        }
        if term < self.term {
            self.send(
                ctx,
                from,
                48,
                RfWire::AppendReply {
                    term: self.term,
                    success: false,
                    match_idx: self.last_idx(),
                },
            );
            return;
        }
        self.leader_hint = from;
        self.last_heard = ctx.now();
        self.arm_election_timer(ctx);
        // Consistency check.
        if prev_idx > self.last_idx() || self.term_at(prev_idx) != prev_term {
            let hint = self.last_idx().min(prev_idx.saturating_sub(1));
            self.send(
                ctx,
                from,
                48,
                RfWire::AppendReply {
                    term: self.term,
                    success: false,
                    match_idx: hint,
                },
            );
            return;
        }
        // Append: delete conflicts, append new entries, fsync once per RPC.
        let appended = entries.len() as u64;
        if !entries.is_empty() {
            let mut idx = prev_idx;
            for e in entries {
                idx += 1;
                ctx.span(
                    Self::ispan(e.term, idx),
                    SpanStage::FollowerAccept,
                    self.me as u64,
                );
                let head = (idx, (e.term, (e.client, e.id)));
                WAL_ENTRY.append(ctx, self.cfg.durability, &head, &e.payload);
                if idx <= self.last_idx() {
                    if self.term_at(idx) != e.term {
                        self.log.truncate(idx as usize - 1);
                        self.log.push(e);
                    }
                } else {
                    self.log.push(e);
                }
            }
            ctx.log_fsync();
        }
        // Only the prefix through the shipped entries is known to match the
        // leader; any older suffix beyond it is unvalidated.
        let match_idx = prev_idx + appended;
        if leader_commit > self.commit_index {
            self.commit_index = leader_commit.min(match_idx);
            self.apply(ctx);
        }
        self.send(
            ctx,
            from,
            48,
            RfWire::AppendReply {
                term: self.term,
                success: true,
                match_idx,
            },
        );
    }

    fn on_append_reply(
        &mut self,
        ctx: &mut Ctx<RfWire>,
        from: NodeId,
        term: u32,
        success: bool,
        match_idx: u64,
    ) {
        if term > self.term {
            self.step_down(ctx, term);
            return;
        }
        if self.role != RaftRole::Leader || term != self.term {
            return;
        }
        self.in_flight[from] = false;
        if success {
            let prev_match = self.match_index[from];
            self.match_index[from] = prev_match.max(match_idx);
            self.next_index[from] = self.match_index[from] + 1;
            let m = self.match_index[from];
            if m > prev_match && m <= self.last_idx() {
                // Cumulative ack: one covering mark for the matched prefix.
                ctx.span(
                    Self::ispan(self.term_at(m), m),
                    SpanStage::AckVisible,
                    from as u64,
                );
            }
            self.advance_commit(ctx, Some(from));
        } else {
            // The hint is authoritative about the follower's log length: a
            // restarted replica can be far behind what match_index remembers
            // (empty on a fresh-state rejoin, the fsync'd prefix on a durable
            // recovery), so the remembered value must regress with it or the
            // back-off never reaches entries the follower actually holds.
            self.match_index[from] = self.match_index[from].min(match_idx);
            self.next_index[from] = match_idx + 1;
        }
        self.replicate(ctx, from);
    }
}

/// Durable recovery: term, vote, and log come back from the WAL, and replay
/// order resolves conflicting suffixes.
impl wal::Journaled for RaftNode {
    /// No checkpoint: recovery replays the whole journal.
    type Checkpoint = Infallible;

    fn restore(&mut self, never: &Infallible) {
        match *never {}
    }

    fn replay(&mut self, rec: &[u8]) {
        if let Some(((idx, (term, (client, id))), payload)) = WAL_ENTRY.read(rec) {
            // A record at an already-covered index supersedes the suffix it
            // conflicts with, exactly as the live path does.
            self.log.truncate(idx as usize - 1);
            self.log.push(Entry {
                term,
                client,
                id,
                payload: Bytes::copy_from_slice(payload),
            });
        } else if let Some(((term, vote), _)) = WAL_HARD.read(rec) {
            self.term = term;
            self.voted_for = (vote != u32::MAX).then_some(vote as usize);
        }
    }

    /// Entries outlive the hard-state record that created them: never come
    /// back believing a term older than the log tip, and come back a
    /// follower.
    fn restore_floor(&mut self) {
        self.term = self.term.max(self.term_at(self.last_idx()));
        self.role = RaftRole::Follower;
    }
}

impl Process<RfWire> for RaftNode {
    fn on_start(&mut self, ctx: &mut Ctx<RfWire>) {
        let mode = self.cfg.durability;
        wal::recover(self, ctx, mode);
        self.last_heard = ctx.now();
        if self.role == RaftRole::Leader {
            ctx.set_timer(HEARTBEAT, TOK_HEARTBEAT);
        } else {
            self.arm_election_timer(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<RfWire>, from: NodeId, msg: RfWire) {
        ctx.use_cpu(cpu::TCP_MSG);
        match msg {
            RfWire::Req(req) => self.on_request(ctx, from, req),
            RfWire::RequestVote {
                term,
                last_idx,
                last_term,
            } => self.on_request_vote(ctx, from, term, last_idx, last_term),
            RfWire::VoteReply { term, granted } => self.on_vote_reply(ctx, term, granted),
            RfWire::AppendEntries {
                term,
                prev_idx,
                prev_term,
                entries,
                leader_commit,
            } => self.on_append(ctx, from, term, prev_idx, prev_term, entries, leader_commit),
            RfWire::AppendReply {
                term,
                success,
                match_idx,
            } => self.on_append_reply(ctx, from, term, success, match_idx),
            RfWire::Resp(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RfWire>, token: u64) {
        match token >> 32 {
            0 if token == TOK_HEARTBEAT && self.role == RaftRole::Leader => {
                // The heartbeat tick doubles as the retransmission timer: an
                // AppendEntries still unacknowledged after a full interval is
                // presumed lost (a partition severs even the "reliable"
                // transport), so the pipeline gate is reopened and this tick
                // resends. Duplicates are harmless — the consistency check
                // makes appends idempotent.
                self.in_flight.fill(false);
                self.heartbeat(ctx);
                ctx.set_timer(HEARTBEAT, TOK_HEARTBEAT);
            }
            g if g == TOK_ELECTION => {
                if token & 0xFFFF_FFFF != self.election_gen {
                    return; // stale timer
                }
                if self.role != RaftRole::Leader {
                    self.start_election(ctx);
                }
            }
            _ => {}
        }
    }
}

/// Build a group occupying ids `0..n`. Every member's WAL barrier is routed
/// through the etcd WAL device preset, so volatile and durable modes charge
/// fsync from the same parameters.
pub fn build_cluster(sim: &mut Sim<RfWire>, cfg: &RaftConfig, preset_leader: bool) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(cfg.n);
    for me in 0..cfg.n {
        let id = sim.add_node(Box::new(RaftNode::new(cfg.clone(), me, preset_leader)));
        assert_eq!(id, me);
        sim.set_log_device(id, LogDevParams::etcd_wal());
        ids.push(id);
    }
    ids
}

impl Replica for RaftNode {
    type Wire = RfWire;
    type Config = RaftConfig;

    fn net() -> NetParams {
        NetParams::tcp()
    }

    fn build_cluster(sim: &mut Sim<RfWire>, cfg: &RaftConfig) -> Vec<NodeId> {
        build_cluster(sim, cfg, true)
    }

    fn rejoiner(cfg: &RaftConfig, id: NodeId) -> Option<Self> {
        Some(RaftNode::new(cfg.clone(), id, false))
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
        let cfg = RaftConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<RaftNode>(31, &cfg, 8, 10, Duration::from_millis(20));
        sim.run_until(SimTime::from_millis(200));
        check_cluster::<RaftNode>(&sim, &ids).unwrap();
        let r = sim.node::<WindowClient<RfWire>>(client).result();
        assert!(r.completed > 50, "completed {}", r.completed);
    }

    #[test]
    fn latency_reflects_wal_fsync() {
        let cfg = RaftConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<RaftNode>(32, &cfg, 1, 10, Duration::from_millis(20));
        sim.run_until(SimTime::from_millis(300));
        check_cluster::<RaftNode>(&sim, &ids).unwrap();
        let lat = sim
            .node::<WindowClient<RfWire>>(client)
            .result()
            .latency
            .mean_us();
        println!("etcd window-1 latency: {lat:.0} us");
        // Figure 8a puts etcd near 10^3 us.
        assert!(lat > 500.0 && lat < 3_000.0, "latency {lat}");
    }

    #[test]
    fn startup_election_without_preset_leader() {
        let cfg = RaftConfig::default();
        let mut sim: Sim<RfWire> = Sim::new(33, NetParams::tcp());
        let ids = build_cluster(&mut sim, &cfg, false);
        sim.run_until(SimTime::from_millis(800));
        let leaders: Vec<_> = ids
            .iter()
            .filter(|&&id| sim.node::<RaftNode>(id).role() == RaftRole::Leader)
            .collect();
        assert_eq!(leaders.len(), 1);
    }

    #[test]
    fn leader_crash_elects_replacement_and_preserves_log() {
        let cfg = RaftConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<RaftNode>(34, &cfg, 4, 10, Duration::ZERO);
        sim.node_mut::<WindowClient<RfWire>>(client).retransmit = Some(Duration::from_millis(100));
        sim.run_until(SimTime::from_millis(50));
        let before = sim.counter(1, simnet::Counter::Commits);
        assert!(before > 0);
        sim.crash(0);
        sim.run_until(SimTime::from_millis(800));
        let new_leader = ids
            .iter()
            .find(|&&id| !sim.is_crashed(id) && sim.node::<RaftNode>(id).role() == RaftRole::Leader)
            .copied()
            .expect("new leader");
        sim.node_mut::<WindowClient<RfWire>>(client).targets = vec![new_leader];
        sim.run_until(SimTime::from_millis(1_500));
        assert!(sim.counter(new_leader, simnet::Counter::Commits) > before);
        check_cluster::<RaftNode>(&sim, &ids).unwrap();
    }

    #[test]
    fn split_vote_resolves_via_randomized_timeouts() {
        // Crash the preset leader immediately: both followers race.
        let cfg = RaftConfig::default();
        let (mut sim, ids, _client) =
            cluster_with_client::<RaftNode>(35, &cfg, 1, 10, Duration::ZERO);
        sim.crash(0);
        sim.run_until(SimTime::from_millis(1_000));
        let leaders: Vec<_> = ids
            .iter()
            .filter(|&&id| {
                !sim.is_crashed(id) && sim.node::<RaftNode>(id).role() == RaftRole::Leader
            })
            .collect();
        assert_eq!(leaders.len(), 1, "randomized timeouts must break ties");
    }

    /// The bytes are pinned (record lengths set the device's
    /// `append_per_kib` charges). Replay truncates at a conflicting index,
    /// takes the last hard state, skips a record too short for its head, and
    /// comes back a follower of at least the tip's term.
    #[test]
    fn wal_replay_truncates_conflicts_and_restores_the_term_floor() {
        let entry = |idx: u64, term: u32, id: u64| WAL_ENTRY.encode(&(idx, (term, (9, id))), b"v");
        let golden = [
            1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(entry(1, 2, 4), [&golden[..], b"v"].concat());
        let hard = |term, vote| WAL_HARD.encode(&(term, vote), &[]);
        assert_eq!(hard(5, u32::MAX), [2, 5, 0, 0, 0, 255, 255, 255, 255]);
        let mut node = RaftNode::new(RaftConfig::default(), 0, true);
        let records = [
            hard(2, 1),
            entry(1, 1, 10),
            entry(2, 1, 11),
            entry(3, 1, 12),
            entry(2, 3, 13),
            vec![2, 7],
        ];
        assert_eq!(wal::replay(&mut node, None, &records), 6);
        let log: Vec<(u32, u64)> = node.log.iter().map(|e| (e.term, e.id)).collect();
        assert_eq!(log, [(1, 10), (3, 13)]);
        assert_eq!((node.term, node.voted_for), (3, Some(1)));
        assert_eq!(node.role, RaftRole::Follower);
    }

    #[test]
    fn five_nodes_tolerate_two_crashes() {
        let cfg = RaftConfig {
            n: 5,
            ..RaftConfig::default()
        };
        let (mut sim, ids, client) =
            cluster_with_client::<RaftNode>(36, &cfg, 4, 10, Duration::ZERO);
        sim.node_mut::<WindowClient<RfWire>>(client).retransmit = Some(Duration::from_millis(100));
        sim.run_until(SimTime::from_millis(40));
        sim.crash(3);
        sim.crash(4);
        sim.run_until(SimTime::from_millis(1_200));
        let r = sim.node::<WindowClient<RfWire>>(client).result();
        assert!(r.completed > 50, "3-of-5 quorum must keep committing");
        check_cluster::<RaftNode>(&sim, &ids).unwrap();
    }
}
