//! The Acuerdo protocol node: broadcast (Figures 4–6), election (Figure 7),
//! and the transition-by-diff (§3.4).
//!
//! One `AcuerdoNode` is one replica. It is a sans-IO state machine driven by
//! the `simnet` engine: client requests and RDMA packets arrive through
//! `on_message`, and a busy-poll timer drives the accept / commit / election
//! logic exactly as the paper's event loop does.
//!
//! ## Faithfulness notes
//!
//! * Variable names follow Figure 1 (`e_cur`, `e_new`, `accepted`,
//!   `committed`, `next`, `count`, the three SSTs, the per-peer rings).
//! * Acceptance batches: a poll drains whole receiver-side batches and pushes
//!   only the **latest** accepted header to the leader's Accept_SST — the
//!   FIFO implicit-acknowledgment trick of §3.2 (the `per_message_acks`
//!   ablation disables it).
//! * One deliberate deviation: after committing a diff we set `committed` to
//!   the diff's own header `(e, 0)` rather than to the last delivered entry.
//!   The paper's pseudocode leaves `committed` at the previous epoch, which
//!   stalls followers' diff commits until the first *new* message commits;
//!   marking the diff itself committed unblocks idle clusters and preserves
//!   all ordering invariants (the diff carries no application payload).
//! * Large recovery diffs are split into consecutive parts on the FIFO ring
//!   and applied atomically once complete (see `msg`).
//! * Deviation: on a ring route a large entry travels as consecutive
//!   segments that each forwarder passes on as they land (cut-through,
//!   `ingest_segment`, DESIGN §16); it is still accepted and acknowledged
//!   once, whole.
//! * Commit news rides the payload stream: every Normal and Seg frame head
//!   carries its writer's view of the leader's commit point (`msg`), the
//!   way Raft's AppendEntries carries `leaderCommit`, and a follower commits
//!   up to the larger of that stamp and the leader's Commit_SST row
//!   (`known_commit`). The periodic Commit_SST push (Figure 6 lines 93–95)
//!   goes only to the nodes that read it, when they need it: the leader's
//!   row (heartbeat, GC horizon, the commit point of an idle stream) to
//!   every peer on that peer's heartbeat turn once per push period; a
//!   follower's cell to its leader; an elector's cell to everyone, from the
//!   instant the election starts (`push_commit`).
//! * The leader's own log is local state, not a replication target: a
//!   winner adopts its epoch in place (`become_leader`, the epoch entry of
//!   `enter_epoch` over no entries) and accepts each proposal where it
//!   makes it (`accept_in_place`). No node writes a ring frame to itself.
//!
//! ## Rejoin and stream resynchronization
//!
//! A crash-restarted replica reboots with an empty log and epoch zero
//! ([`AcuerdoNode::rejoining`]), and partitions can sever an established RC
//! connection mid-stream, losing ring frames for good. Both are repaired by
//! the same mechanism: the out-of-date node broadcasts [`AcWire::Hello`],
//! which re-establishes connections the way real RDMA does — tear down the
//! QP, register a **fresh** ring region (straggler writes of the dead stream
//! land in the abandoned region and cannot corrupt the new one), and exchange
//! the new region ids out of band. A peer receiving a Hello forgets its SST
//! mirror of the sender (required for safety: a rebooted node's stale
//! Accept_SST cell must not count toward commit quorums it no longer backs),
//! and the current leader re-seeds the sender with a recovery diff over the
//! existing multi-part diff path of §3.4. While waiting for that diff the
//! node abstains from elections so its reset state cannot outbid the live
//! epoch; if no diff arrives it eventually falls back to a normal election.
//!
//! ## Phases
//!
//! The election, rejoin and leadership state lives in one `Phase`: a
//! follower's leader watch, an elector's election record, a rejoiner's
//! attempt clock, a leader's election start and outbid clock. Only
//! `enter` writes it; DESIGN §9 tabulates the edges, and a test census pins
//! the ones the oracle sweep takes.

use crate::config::{AcuerdoConfig, RingRoute};
use crate::msg::{self, Frame};
use abcast::wal;
use abcast::{
    hdr_span, App, Auditor, ClientReq, ClientResp, Committed, DeliveryLog, Epoch, Instrument,
    MsgHdr, Snapshot, Vote,
};
use bytes::Bytes;
use rdma_prims::{FixedCodec, RingError, RingFrame, RingReceiver, RingSender, Sst};
use rdma_sim::{Endpoint, RdmaPkt, RegionId};
use simnet::params::cpu;
use simnet::{
    Counter, Ctx, DeliveryClass, Event, Gauge, IdlePoll, MsgKind, NodeId, Process, SimTime,
    SpanStage,
};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound::{Excluded, Included};
use std::time::Duration;

/// Wire type of an Acuerdo simulation: RDMA packets plus client traffic.
#[derive(Clone, Debug)]
pub enum AcWire {
    /// One-sided RDMA traffic (rings, SSTs, completions).
    Rdma(RdmaPkt),
    /// A client broadcast request.
    Req(ClientReq),
    /// A commit acknowledgment to a client.
    Resp(ClientResp),
    /// Connection re-establishment handshake (rejoin / stream resync, see
    /// module docs). `ring` is the fresh region the *sender* just registered
    /// for frames from the recipient; `reply` asks the recipient to tear its
    /// side down too and answer with its own Hello.
    Hello { ring: RegionId, reply: bool },
}

impl From<RdmaPkt> for AcWire {
    fn from(p: RdmaPkt) -> Self {
        AcWire::Rdma(p)
    }
}

impl abcast::ClientPort for AcWire {
    fn request(req: ClientReq) -> Self {
        AcWire::Req(req)
    }
    fn response(&self) -> Option<ClientResp> {
        match self {
            AcWire::Resp(r) => Some(*r),
            _ => None,
        }
    }
}

/// A node's role in the current epoch (Figure 1 line 17).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// Participating in a leader election.
    Electing,
    /// Sole proposer of the current epoch.
    Leader,
    /// Accepting and committing the leader's messages.
    Follower,
}

const TOK_POLL: u64 = 1;
/// The push tick's token: `TOK_PUSH` in the low byte, the node's
/// `push_gen` above it, so a tick armed before the node won an election
/// (at a follower's stride) finds a newer generation and does nothing.
const TOK_PUSH: u64 = 2;

/// Wire bytes of a Hello handshake message (region id + flags + headers).
const HELLO_WIRE: u32 = 24;
/// Resync attempts before giving up and contesting a normal election.
const MAX_RESYNC_ATTEMPTS: u32 = 3;

/// CPU cost of delivering one committed message to the application.
const DELIVER_COST: Duration = Duration::from_nanos(100);

/// Journal records a checkpoint drops at the least (`checkpoint`): a
/// durable replica's journal holds at most this many records below its
/// log's oldest entry, and the app snapshot is taken at most once per this
/// many.
const CHECKPOINT_RECORDS: usize = 1024;

// ---- journal records (durable mode, `abcast::wal`) --------------------------
//
// Durable mode journals the log so a restarted replica recovers its accepted
// state instead of rejoining empty. Replay is order-sensitive: entry records
// re-insert by header, and a cut record replays the uncommitted-suffix
// truncation `apply_diff` performs. Log GC checkpoints the journal's
// collected prefix (`checkpoint`), so replay starts from a `Checkpoint`.

/// An accepted entry: its header, then its payload.
const WAL_ENTRY: wal::Kind<MsgHdr> = wal::Kind::new(1);
/// A truncation, `(cut, e)`: replay removes the log entries in
/// `[cut, (e, 0))`, as the diff of epoch `e` did.
const WAL_CUT: wal::Kind<(MsgHdr, Epoch)> = wal::Kind::new(2);

/// What a durable replica's journal amounts to below its log's oldest entry
/// (DESIGN §13): the state a reboot restores before it replays the records
/// that remain.
pub struct Checkpoint {
    /// The log's oldest entry, with its payload: GC keeps it (diffs start
    /// with it), and the journal records at or below it are gone.
    boundary: (MsgHdr, Bytes),
    /// The commit point, which `app` has delivered up to.
    committed: MsgHdr,
    /// The epoch floor: the epoch this node was in, which every cut in the
    /// dropped records entered or preceded.
    floor: Epoch,
    /// The application's state at `committed`.
    app: Snapshot,
}

/// Count and trace an acceptance (a frame's, or the leader's own in place).
fn note_accept(ctx: &mut Ctx<AcWire>, hdr: MsgHdr) {
    ctx.count(Counter::Accepts, 1);
    ctx.trace(
        Event::new("accept")
            .a(u64::from(hdr.epoch.round))
            .b(u64::from(hdr.cnt)),
    );
}

/// The trace mark of segment `part` of entry `hdr` posted to a ring lane.
fn seg_post(hdr: MsgHdr, part: u16) -> Event {
    Event::new("seg_post")
        .a(u64::from(hdr.cnt))
        .b(u64::from(part))
}

/// Followers push their Commit_SST cell to their leader (who reads it for the
/// GC horizon) every this many push ticks, and a leader posts its row to
/// each peer at least this often.
const FOLLOWER_PUSH_PERIOD: u64 = 10;

/// Extra star-fallback patience the leader grants per arm hop. One hop
/// costs an egress plus an ingress serialization, a link flight, and a
/// verb post: tens of microseconds for a whole scale-study frame stored and
/// forwarded, one segment's serialization less per hop for an entry cut
/// through (DESIGN §16). The grace covers the slower, whole-frame hop with
/// slack while keeping detection of a genuinely dead segment well under
/// the election timeout even at the far end of a 64-node ring's arms.
const RING_HOP_GRACE: Duration = Duration::from_micros(40);

/// Commit_SST cell.
#[derive(Copy, Clone, Default)]
struct CommitCell {
    /// The owner's last committed header.
    committed: MsgHdr,
    /// Push sequence number; only a leader advances it, so it doubles as
    /// the leader heartbeat.
    hb: u64,
    /// A leader's GC horizon: the minimum over every commit cell it holds,
    /// below which no replica needs an entry in a diff. Followers prune
    /// below it, since they hold no cells of each other to take the
    /// minimum over; a non-leader's own row carries `MsgHdr::ZERO`.
    horizon: MsgHdr,
}

impl FixedCodec for CommitCell {
    const SIZE: usize = 2 * MsgHdr::SIZE + u64::SIZE;
    fn encode(&self, buf: &mut [u8]) {
        (self.committed, (self.hb, self.horizon)).encode(buf);
    }
    fn decode(buf: &[u8]) -> Self {
        let (committed, (hb, horizon)) = <(MsgHdr, (u64, MsgHdr))>::decode(buf);
        CommitCell {
            committed,
            hb,
            horizon,
        }
    }
}

/// Per-peer outgoing bookkeeping at a (current or past) leader.
struct PeerOut {
    /// Encoded diff frames still to be pushed into this peer's ring.
    diff_backlog: VecDeque<Bytes>,
    /// Next normal message count (within `e_new`) to send to this peer.
    next_cnt: u32,
    /// First segment of entry `next_cnt` not yet sent (a segmented entry
    /// whose lane filled up part way resumes here).
    next_part: u16,
    /// `(hdr, ring seq)` of in-flight frames, for slot-reuse accounting.
    /// Every segment of an entry is booked under the entry's header.
    sent: VecDeque<(MsgHdr, u64)>,
    /// Entries booked in `sent`: its runs of equal headers.
    entries: usize,
    /// The queued diff re-seeds a rejoining peer (counts `RejoinDiffBytes`).
    rejoin: bool,
}

impl PeerOut {
    fn new() -> Self {
        PeerOut {
            diff_backlog: VecDeque::new(),
            next_cnt: 1,
            next_part: 0,
            sent: VecDeque::new(),
            entries: 0,
            rejoin: false,
        }
    }

    /// Book a frame of entry `hdr` in flight at ring seq `seq`.
    fn book(&mut self, hdr: MsgHdr, seq: u64) {
        if self.sent.back().is_none_or(|&(h, _)| h != hdr) {
            self.entries += 1;
        }
        self.sent.push_back((hdr, seq));
    }

    /// Drop the oldest frames while `done` holds for their entry; the ring
    /// seq of the last one dropped.
    fn drop_while(&mut self, done: impl Fn(MsgHdr) -> bool) -> Option<u64> {
        let mut last = None;
        while let Some(&(h, seq)) = self.sent.front() {
            if !done(h) {
                break;
            }
            self.sent.pop_front();
            last = Some(seq);
            if self.sent.front().is_none_or(|&(next, _)| next != h) {
                self.entries -= 1;
            }
        }
        last
    }
}

/// One frame queued for the one-hop forward: segment `part` of `parts` of
/// entry `hdr` (0 of 1 for a whole entry), with its share of the payload.
struct Fwd {
    hdr: MsgHdr,
    part: u16,
    parts: u16,
    bytes: Bytes,
}

/// An entry being reassembled from the segments of one inbound lane.
struct Reasm {
    hdr: MsgHdr,
    parts: u16,
    /// Segments collected so far (the next one expected).
    got: u16,
    /// Their shares, joined: still a view of the sender's buffer while the
    /// shares are adjacent views of it (`Bytes::unsplit`).
    payload: Bytes,
}

/// A diff being reassembled: header, expected part count, entries so far.
type PendingDiff = (MsgHdr, u16, Vec<(MsgHdr, Bytes)>);

/// Where this node stands in the election and rejoin logic (Figure 7,
/// §3.4), with the state only that phase reads. [`AcuerdoNode::enter`] is
/// the only writer; DESIGN §9 tabulates its edges.
enum Phase {
    /// Accepting and committing `e_cur.ldr`'s stream.
    Follower(Watch),
    /// Contesting an election.
    Electing(Election),
    /// Waiting for a recovery diff, and abstaining from elections.
    Rejoining(Rejoin),
    /// Sole proposer of `e_new`.
    Leader(Lead),
}

#[cfg(test)]
impl Phase {
    /// The phase's name in DESIGN §9's edge table.
    fn kind(&self) -> &'static str {
        match self {
            Phase::Follower(_) => "follower",
            Phase::Electing(_) => "electing",
            Phase::Rejoining(_) => "rejoining",
            Phase::Leader(_) => "leader",
        }
    }
}

/// A follower's watch on its leader.
#[derive(Default)]
struct Watch {
    /// Last sign of the leader's life (an accepted frame, the diff that
    /// made this node its follower, a heartbeat change); a poll
    /// `fail_timeout` past it suspects the leader.
    activity: SimTime,
    /// The leader's commit-cell heartbeat as last seen.
    hb: u64,
    /// When commit notifications first outran this node's ring frames
    /// (cleared on delivery; a long stall means the stream broke).
    frame_stall: Option<SimTime>,
}

/// An election as one node watches it.
#[derive(Default)]
struct Election {
    /// When this node suspected the old leader.
    started: SimTime,
    /// The best vote seen, and since when it has stood
    /// (`candidate_patience`).
    best: Vote,
    best_since: SimTime,
    /// Per peer, the last commit-cell heartbeat seq observed and when it
    /// was seen to change — to notice a live epoch advancing without us (a
    /// frozen-high seq from a dead leader must not count).
    hb: Vec<(u64, SimTime)>,
}

/// A resync in progress (module docs).
#[derive(Default)]
struct Rejoin {
    /// When the current attempt started.
    started: SimTime,
    /// Hello broadcasts sent for this desync episode.
    attempts: u32,
}

/// A leader's own state.
#[derive(Default)]
struct Lead {
    /// When the election this node won started: the Table 1 span's start.
    started: SimTime,
    /// `epoch_ready` is not stamped yet: diffs are still queued.
    ready_pending: bool,
    /// Since when a quorum-blocking share of the peers has been promised
    /// to epochs above ours (`detect_outbid`).
    outbid_since: Option<SimTime>,
}

#[cfg(test)]
thread_local! {
    /// `(from, to)` phase kinds of every `enter` on this thread.
    static PHASE_EDGES: std::cell::RefCell<std::collections::BTreeSet<(&'static str, &'static str)>> =
        Default::default();
}

/// One Acuerdo replica.
pub struct AcuerdoNode {
    cfg: AcuerdoConfig,
    me: usize,
    peers: Vec<NodeId>,

    ep: Endpoint,
    out_ring: RingSender,
    in_rings: Vec<RingReceiver>,
    accept_sst: Sst<MsgHdr>,
    vote_sst: Sst<Vote>,
    commit_sst: Sst<CommitCell>,

    // Figure 1 process variables.
    e_cur: Epoch,
    e_new: Epoch,
    accepted: MsgHdr,
    /// `accepted` (or the epoch it is read in) moved since the last
    /// Accept_SST push: the acceptance batch ends with one.
    ack_due: bool,
    committed: MsgHdr,
    /// The highest commit stamp of epoch `e_cur` read from a frame head:
    /// with the leader's row, what a follower commits up to.
    stamp: MsgHdr,
    next: MsgHdr,
    count: u32,
    phase: Phase,
    /// `e_cur` at the last `enter`, which asserts it never moves down.
    entered_at: Epoch,
    log: BTreeMap<MsgHdr, Bytes>,
    /// The running top header of each journal record (durable mode), for
    /// the prefix a checkpoint drops.
    journal: wal::Tops<MsgHdr>,

    // Leader-side bookkeeping.
    out: Vec<PeerOut>,
    instrument: Instrument<MsgHdr>,
    commit_push_seq: u64,
    push_ticks: u64,
    /// Push ticks the armed `TOK_PUSH` timer stands for: one at a leader,
    /// up to the next multiple of `FOLLOWER_PUSH_PERIOD` elsewhere (a
    /// follower's or elector's tick acts on no other).
    push_stride: u64,
    /// Generation of the armed push timer, bumped when the node wins an
    /// election and re-arms at the leader's cadence.
    push_gen: u64,

    /// Per inbound lane, the diff being reassembled from it. A diff's parts
    /// travel back to back on their lane, but two leaders' diffs (an old
    /// leader's rejoin diff, its successor's election diff) can interleave
    /// across lanes.
    diff_buf: Vec<Option<PendingDiff>>,

    /// Peers that sent a Hello since we last built them a diff.
    hello_from: Vec<bool>,
    /// Highest Accept_SST cell observed per peer, for `ack_visible`
    /// lifecycle marks (leader-side; cells are read anyway for commits).
    ack_seen: Vec<MsgHdr>,
    /// Observation order of `ack_seen` advances: `ack_obs_seq[k]` is the
    /// tick at which peer `k`'s cell last moved. Sorting quorum members by
    /// it names the last-acking follower (the straggler) per commit.
    ack_obs_seq: Vec<u64>,
    /// Monotonic source for `ack_obs_seq` ticks.
    ack_obs_counter: u64,

    // Dissemination (`route_from`): the route is the only thing that knows
    // the topology. Under a star route every follower heads an arm, so
    // nothing below ever fills.
    /// Peers that head an arm of this node's own route, i.e. receive the
    /// frames it originates directly (never this node itself).
    arm_head: Vec<bool>,
    /// Arm heads that forward further along their arm: the leader sends
    /// them its large entries as segments (`msg::segments`).
    head_forwards: Vec<bool>,
    /// Every peer is an arm head (star, or a ring of at most three): frames
    /// reach every follower straight from the leader, nobody forwards and
    /// nobody can need star fallback.
    all_direct: bool,
    /// Out-of-order frames parked until their contiguous turn — star
    /// fallback and forwarded copies of a frame can race, and an epoch-opening
    /// diff (leader lane) can lose a cross-lane race against forwarded
    /// frames of its own epoch. Acceptance stays strictly prefix-ordered so
    /// the cumulative Accept_SST acknowledgment stays truthful.
    pending: BTreeMap<MsgHdr, Bytes>,
    /// Frames queued for the one-hop forward to this node's downstream
    /// neighbour on its arm: accepted entries, and the segments of the
    /// entry being cut through. In-flight forwards are tracked in that
    /// peer's `out[..].sent`, like any frame on its lane.
    fwd_backlog: VecDeque<Fwd>,
    /// Per inbound lane, the segmented entry being reassembled from it.
    reasm: Vec<Option<Reasm>>,
    /// The entry whose segments are forwarded as they land (cut through),
    /// and the lane they arrive on. At most one: only the entry the
    /// contiguity gate expects next qualifies, and accepting it ends the
    /// cut.
    cut: Option<(MsgHdr, usize)>,
    /// Leader-side: peers currently served by star fallback because the
    /// arm segment covering them stalled (crash / partition upstream of it).
    fallback: Vec<bool>,
    /// Leader-side: when each peer's visible ack frontier last advanced or
    /// was fully caught up; a stall beyond `fail_timeout` engages fallback.
    lag_since: Vec<SimTime>,

    /// Online invariant monitor (fed every poll; see [`abcast::Auditor`]).
    audit: Auditor,

    // The idle poll (`inert_until`, `Process::idle_poll`).
    /// Something a poll reads may have changed since the last poll: a
    /// handler touched the request queue or the connection state, or a
    /// remote write or completion landed that this node in this role looks
    /// at (`stirs`). The next poll is a full one.
    stirred: bool,
    /// The last poll was a full one that changed nothing, and (for a
    /// leader) so was the one before it, with nothing stirred in between:
    /// until something stirs, every poll repeats it.
    settled: bool,
    /// The last full poll charged nothing beyond the spin.
    fruitless: bool,
    /// The last full poll left a send waiting for ring space or a
    /// send-queue slot.
    send_blocked: bool,
    /// This node changed, by its own hand, something the leader's Accept_SST
    /// scans compare: its own cell, a reset mirror, a lane's `sent` queue,
    /// `next`, the epoch, or the role itself. Together with the table's
    /// dirty flag (a peer's push landed) it says whether `observe_acks`,
    /// the commit rule and `reuse_slots` can find anything they did not
    /// find last time.
    acks_touched: bool,
    /// `e_new` when `detect_desync` last scanned Commit_SST as a leader and
    /// found no cell above it. Until a peer's push lands in the table or
    /// `e_new` falls below this, the scan would find none again (DESIGN §4,
    /// "The idle poll"); `None` until a scan comes up empty.
    outbid_clear: Option<Epoch>,
    /// Test oracle: every poll leaves the node stirred (so none is ever
    /// answered in place) and looks at every Accept_SST cell.
    #[cfg(test)]
    naive: bool,
    /// Test tally: commit stamps read (`read_stamp` checks each is below
    /// its frame).
    #[cfg(test)]
    stamps_read: u64,

    /// The replicated application messages are delivered to.
    pub app: Box<dyn App>,
    /// `(suspected_at, ready_at)` for each election this node won:
    /// `suspected_at` is when the old leader was declared failed,
    /// `ready_at` when the diffs finished transferring into every follower's
    /// ring and new messages could flow (the Table 1 metric).
    pub election_spans: Vec<(SimTime, SimTime)>,
}

impl AcuerdoNode {
    /// Build a replica. `me` must equal the node's eventual `simnet` id, and
    /// all replicas of a cluster must occupy ids `0..cfg.n`.
    pub fn new(cfg: AcuerdoConfig, me: usize) -> Self {
        let n = cfg.n;
        assert!(me < n, "replica index out of range");
        let mut ep = Endpoint::new(cfg.qp);
        // Region plan (identical on every node):
        //   regions 0..n   : incoming ring mirrored from sender j
        //   region  n      : Accept_SST
        //   region  n + 1  : Vote_SST
        //   region  n + 2  : Commit_SST
        let mut in_rings = Vec::with_capacity(n);
        for _ in 0..n {
            let r = ep.register_region(cfg.ring_bytes);
            in_rings.push(RingReceiver::new(r, cfg.ring_bytes, cfg.ring_mode));
        }
        let accept_sst = Sst::<MsgHdr>::register(&mut ep, n, me);
        let vote_sst = Sst::<Vote>::register(&mut ep, n, me);
        let commit_sst = Sst::<CommitCell>::register(&mut ep, n, me);
        let peers: Vec<NodeId> = (0..n).collect();
        // A lane and a QP to every other node; none to itself (region `me`
        // stays in the plan, and nothing writes it).
        let others: Vec<NodeId> = peers.iter().copied().filter(|&p| p != me).collect();
        for &p in &others {
            ep.connect(p);
        }
        let out_ring = RingSender::new(RegionId(me as u32), cfg.ring_bytes, cfg.ring_mode, &others);

        let e_cur = cfg.initial_epoch.unwrap_or(Epoch::ZERO);
        let phase = match cfg.initial_epoch {
            Some(e) if e.ldr as usize == me => Phase::Leader(Lead::default()),
            Some(_) => Phase::Follower(Watch::default()),
            None => Phase::Electing(Election::default()),
        };
        let boot_hdr = MsgHdr::new(e_cur, 0);
        let arm_head: Vec<bool> = (0..n)
            .map(|j| j != me && cfg.dissemination.route(n, me, j).upstream == me)
            .collect();
        let head_forwards = (0..n)
            .map(|j| arm_head[j] && cfg.dissemination.route(n, me, j).downstream.is_some())
            .collect();
        AcuerdoNode {
            all_direct: arm_head.iter().filter(|&&head| head).count() == n - 1,
            arm_head,
            head_forwards,
            out: (0..n).map(|_| PeerOut::new()).collect(),
            cfg,
            me,
            peers,
            ep,
            out_ring,
            in_rings,
            accept_sst,
            vote_sst,
            commit_sst,
            e_cur,
            e_new: e_cur,
            accepted: boot_hdr,
            ack_due: false,
            committed: boot_hdr,
            stamp: MsgHdr::ZERO,
            next: if e_cur == Epoch::ZERO {
                MsgHdr::ZERO
            } else {
                boot_hdr.next()
            },
            count: 0,
            phase,
            entered_at: e_cur,
            log: BTreeMap::new(),
            journal: wal::Tops::default(),
            instrument: Instrument::new(DELIVER_COST, Duration::ZERO),
            commit_push_seq: 0,
            push_ticks: 0,
            push_stride: 0,
            push_gen: 0,
            diff_buf: (0..n).map(|_| None).collect(),
            hello_from: vec![false; n],
            ack_seen: vec![MsgHdr::ZERO; n],
            ack_obs_seq: vec![0; n],
            ack_obs_counter: 0,
            pending: BTreeMap::new(),
            fwd_backlog: VecDeque::new(),
            reasm: (0..n).map(|_| None).collect(),
            cut: None,
            fallback: vec![false; n],
            lag_since: vec![SimTime::ZERO; n],
            audit: Auditor::new(),
            stirred: true,
            settled: false,
            fruitless: false,
            send_blocked: false,
            acks_touched: true,
            outbid_clear: None,
            #[cfg(test)]
            naive: false,
            #[cfg(test)]
            stamps_read: 0,
            app: Box::<DeliveryLog>::default(),
            election_spans: Vec::new(),
        }
    }

    /// Build a replica that boots as a crash-restarted rejoiner: empty log,
    /// epoch zero, and a resync handshake instead of a start-up election
    /// (module docs). This is the restart factory of the fault harness.
    pub fn rejoining(cfg: AcuerdoConfig, me: usize) -> Self {
        let cfg = AcuerdoConfig {
            initial_epoch: None,
            ..cfg
        };
        AcuerdoNode {
            phase: Phase::Rejoining(Rejoin::default()),
            ..AcuerdoNode::new(cfg, me)
        }
    }

    // ---- inspection -------------------------------------------------------

    /// Current role; a resyncing node reports `Electing`.
    pub fn role(&self) -> Role {
        match self.phase {
            Phase::Follower(_) => Role::Follower,
            Phase::Electing(_) | Phase::Rejoining(_) => Role::Electing,
            Phase::Leader(_) => Role::Leader,
        }
    }

    /// True while waiting for a recovery diff after a Hello broadcast.
    pub fn is_resyncing(&self) -> bool {
        matches!(self.phase, Phase::Rejoining(_))
    }

    /// Current epoch.
    pub fn epoch(&self) -> Epoch {
        self.e_cur
    }

    /// Last committed header.
    pub fn committed(&self) -> MsgHdr {
        self.committed
    }

    /// Last accepted header.
    pub fn accepted(&self) -> MsgHdr {
        self.accepted
    }

    /// Push ticks run so far; peer `k`'s heartbeat turn is every tick `t`
    /// with `(t + k) mod FOLLOWER_PUSH_PERIOD = 0`.
    pub fn push_ticks(&self) -> u64 {
        self.push_ticks
    }

    /// Log length (for GC tests).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// This node's RDMA endpoint, for its counters (wire-efficiency and
    /// payload-copy tests).
    pub fn endpoint(&self) -> &rdma_sim::Endpoint {
        &self.ep
    }

    /// Frames parked by the contiguity gate, waiting for their turn.
    pub fn parked_len(&self) -> usize {
        self.pending.len()
    }

    /// Accepted frames waiting for room on this node's forward lane.
    pub fn fwd_backlog_len(&self) -> usize {
        self.fwd_backlog.len()
    }

    // ---- broadcasting (Figure 4) -------------------------------------------

    fn on_client_request(&mut self, ctx: &mut Ctx<AcWire>, from: NodeId, req: ClientReq) {
        if self.role() != Role::Leader || self.log.len() >= abcast::MAX_BACKLOG {
            return;
        }
        ctx.use_cpu_at(SpanStage::LeaderRecv, cpu::CLIENT_INGEST);
        self.count += 1;
        let hdr = MsgHdr::new(self.e_new, self.count);
        self.instrument
            .admit(ctx, hdr, hdr_span(&hdr), from, req.id);
        // Append-before-ack on the leader's own hot path: the entry hits the
        // persistent log before the ring writes that solicit follower acks.
        self.journal_entry(ctx, hdr, &req.payload);
        wal::fsync(ctx, self.cfg.durability);
        self.log.insert(hdr, req.payload);
        self.accept_in_place(ctx, hdr);
        self.flush_all(ctx);
    }

    /// The leader's acceptance of its own proposal, after the durable
    /// append and fsync `on_client_request` already did: its Accept_SST
    /// cell is in its own memory. It leaves no `FollowerAccept` mark: it
    /// precedes the ring writes that carry the entry out, and that stage
    /// times the followers.
    fn accept_in_place(&mut self, ctx: &mut Ctx<AcWire>, hdr: MsgHdr) {
        debug_assert_eq!(hdr, self.accepted.next(), "a gap in the leader's log");
        self.accepted = hdr;
        note_accept(ctx, hdr);
        self.accept_sst.write_mine(&mut self.ep, &self.accepted);
        self.acks_touched = true;
    }

    /// Push backlog (diff parts first, then log entries) into every peer's
    /// ring, as far as flow control allows. This node's own slot of `out`
    /// never holds a diff, and it heads no arm: it sends nothing.
    fn flush_all(&mut self, ctx: &mut Ctx<AcWire>) {
        if self.role() != Role::Leader {
            return;
        }
        for j in 0..self.cfg.n {
            self.flush_peer(ctx, j);
        }
    }

    fn flush_peer(&mut self, ctx: &mut Ctx<AcWire>, j: usize) {
        // Diff parts first: they open the epoch on this peer's ring.
        while let Some(frame) = self.out[j].diff_backlog.front() {
            let hdr = MsgHdr::new(self.e_new, 0);
            let frame_len = frame.len() as u64;
            match self
                .out_ring
                .send_to(ctx, &mut self.ep, self.peers[j], frame, MsgKind::Control)
            {
                Ok(seq) => {
                    if self.out[j].rejoin {
                        ctx.count(Counter::RejoinDiffBytes, frame_len);
                    }
                    self.track_sent(j, hdr, seq);
                    self.out[j].diff_backlog.pop_front();
                }
                Err(RingError::TooLarge) => {
                    // Config error: `seed_peer` sizes parts to the ring, so
                    // only one entry larger than half of it gets here. Drop
                    // it; the peer will recover at the next election.
                    debug_assert!(false, "diff part larger than ring");
                    self.out[j].diff_backlog.pop_front();
                }
                Err(_) => {
                    self.send_blocked = true;
                    return;
                }
            }
        }
        // Then any log entries of the current epoch this peer hasn't got.
        // Payloads stream only to the arm heads and peers under star
        // fallback; everyone else receives frames forwarded hop by hop
        // along its arm.
        let direct = self.arm_head[j];
        if !direct && !self.fallback[j] {
            return;
        }
        while self.out[j].next_cnt <= self.count {
            let hdr = MsgHdr::new(self.e_new, self.out[j].next_cnt);
            let Some(payload) = self.log.get(&hdr).cloned() else {
                // GC can only have pruned entries this peer already
                // committed, so a miss means it is already past them.
                self.out[j].next_cnt += 1;
                self.out[j].next_part = 0;
                continue;
            };
            // A fallback catch-up can be a ring's worth of posts. Past a
            // push interval of CPU in this handler the rest waits for the
            // next poll, so `TOK_PUSH` (the heartbeat) runs in between. A
            // leader with a peer off the arm heads never skips a poll.
            if !direct && ctx.cpu_used() >= self.cfg.commit_push_interval {
                return;
            }
            // An arm head that forwards gets a large entry as segments, so
            // it can pass the first on while the rest are still on the wire.
            let parts = if self.head_forwards[j] {
                msg::segments(payload.len())
            } else {
                1
            };
            while self.out[j].next_part < parts {
                let part = self.out[j].next_part;
                let share = payload.slice(msg::segment_range(payload.len(), part, parts));
                let head = msg::EntryHead::new(hdr, self.committed, part, parts);
                match self.out_ring.send_parts(
                    ctx,
                    &mut self.ep,
                    self.peers[j],
                    head.as_bytes(),
                    &share,
                    MsgKind::Payload,
                ) {
                    Ok(seq) => {
                        self.track_sent(j, hdr, seq);
                        self.out[j].next_part += 1;
                        if parts > 1 {
                            ctx.trace(seg_post(hdr, part));
                        }
                    }
                    Err(_) => {
                        self.send_blocked = true;
                        return;
                    }
                }
            }
            ctx.span(hdr_span(&hdr), SpanStage::RingWrite, self.peers[j] as u64);
            if !direct {
                ctx.count(Counter::RingFallbackSends, 1);
            }
            self.out[j].next_part = 0;
            self.out[j].next_cnt += 1;
        }
    }

    // ---- dissemination ---------------------------------------------------------
    //
    // One payload path for every topology: the leader streams each payload
    // to the heads of its arms and every follower forwards accepted frames
    // one hop further along its arm, as far as `route_from` says the arm
    // goes. Star is the route whose every follower heads an arm (leader
    // egress O(n) bytes per message, nobody forwards); the two-armed ring
    // (after Ring Paxos) has two heads, O(1) leader egress and the quorum
    // ⌈⌊n/2⌋/2⌉ hops away. The frame header is the origin slot (`epoch.ldr`
    // names the proposer, and with it the route), so ack/commit semantics
    // over the three SSTs never depend on the route. An arm segment behind a
    // crashed or partitioned forwarder is bridged by star fallback from the
    // leader until a rejoin heals the arm.

    /// This node's place on the arms of `origin`'s route.
    fn route_from(&self, origin: usize) -> RingRoute {
        self.cfg.dissemination.route(self.cfg.n, origin, self.me)
    }

    /// The next frame the contiguity gate will accept.
    fn expected_frame(&self) -> MsgHdr {
        if self.accepted.epoch == self.e_cur {
            self.accepted.next()
        } else {
            MsgHdr::new(self.e_cur, 1)
        }
    }

    /// Segment `part` of `parts` of entry `hdr` landed on `lane` (a normal
    /// frame is segment 0 of 1). Segments of one entry travel back to back
    /// on their lane, so a lane reassembles one entry at a time and a new
    /// segment 0, or one out of turn, drops what it had. The entry the
    /// contiguity gate expects next is cut through: each of its segments
    /// is queued for the forward as it lands, and the entry is accepted
    /// (once, whole) when the last one does. Any other entry is forwarded
    /// whole after acceptance, so the downstream lane still carries
    /// entries in header order.
    fn ingest_segment(
        &mut self,
        ctx: &mut Ctx<AcWire>,
        lane: usize,
        hdr: MsgHdr,
        part: u16,
        parts: u16,
        bytes: Bytes,
    ) {
        if part == 0 {
            self.drop_partial(lane);
            if parts == 1 {
                self.ingest_frame(ctx, lane, hdr, bytes, false);
                return;
            }
            if self.cut.is_none()
                && hdr == self.expected_frame()
                && hdr.epoch == self.e_new
                && self.route_from(hdr.epoch.ldr as usize).downstream.is_some()
            {
                self.cut = Some((hdr, lane));
            }
            self.reasm[lane] = Some(Reasm {
                hdr,
                parts,
                got: 1,
                payload: bytes.clone(),
            });
        } else {
            match &mut self.reasm[lane] {
                Some(r) if r.hdr == hdr && r.parts == parts && r.got == part => {
                    r.payload.unsplit(bytes.clone());
                    r.got += 1;
                }
                _ => {
                    self.drop_partial(lane);
                    return;
                }
            }
        }
        let through = self.cut == Some((hdr, lane));
        if through {
            self.fwd_backlog.push_back(Fwd {
                hdr,
                part,
                parts,
                bytes,
            });
        }
        if part + 1 == parts {
            let r = self.reasm[lane].take().expect("reassembly in progress");
            if through {
                self.cut = None;
            }
            self.ingest_frame(ctx, lane, hdr, r.payload, through);
        }
    }

    /// Forget the partial entry of `lane`, and the cut through it: the
    /// entry, whenever it is accepted, is forwarded whole.
    fn drop_partial(&mut self, lane: usize) {
        self.reasm[lane] = None;
        if self.cut.is_some_and(|(_, l)| l == lane) {
            self.cut = None;
        }
    }

    /// Whole-entry ingestion (Figure 5 line 47 behind the contiguity gate):
    /// drop duplicates and stale epochs, park out-of-order and
    /// ahead-of-epoch frames, accept in strict header order and drain parked
    /// successors. The gate is what keeps the cumulative Accept_SST
    /// acknowledgment truthful when star-fallback and forwarded copies race.
    /// `forwarded`: the entry was cut through, so every segment of it is
    /// already queued downstream.
    fn ingest_frame(
        &mut self,
        ctx: &mut Ctx<AcWire>,
        lane: usize,
        hdr: MsgHdr,
        payload: Bytes,
        forwarded: bool,
    ) {
        if hdr.epoch != self.e_cur || hdr.epoch != self.e_new {
            if hdr.epoch > self.e_cur && self.e_new <= hdr.epoch {
                // A forwarded frame of an epoch whose opening diff (leader
                // lane) hasn't landed here yet: park it; the diff drains it.
                self.pending.insert(hdr, payload);
            } else {
                // Stale epoch: the leader that originated this is deposed.
                ctx.count(Counter::RingDupDrops, 1);
            }
            return;
        }
        let expected = self.expected_frame();
        if hdr < expected {
            // Fallback and forwarded copies of the same frame race; the loser
            // is a duplicate of an already-accepted header.
            ctx.count(Counter::RingDupDrops, 1);
        } else if hdr > expected {
            self.pending.insert(hdr, payload);
        } else {
            self.accept_frame(ctx, lane, hdr, payload, forwarded);
            self.drain_pending(ctx, lane);
        }
    }

    /// Accept parked frames that became contiguous (after an in-order accept
    /// or an applied diff).
    fn drain_pending(&mut self, ctx: &mut Ctx<AcWire>, lane: usize) {
        loop {
            let next = self.expected_frame();
            let Some(p) = self.pending.remove(&next) else {
                break;
            };
            self.accept_frame(ctx, lane, next, p, false);
        }
    }

    /// Accept one in-order entry and, unless it was cut through, queue its
    /// one-hop forward. Durable mode stages the entry; the fsync barrier
    /// lands in `push_accept`, before the ack becomes visible.
    fn accept_frame(
        &mut self,
        ctx: &mut Ctx<AcWire>,
        lane: usize,
        hdr: MsgHdr,
        payload: Bytes,
        forwarded: bool,
    ) {
        self.journal_entry(ctx, hdr, &payload);
        self.accepted = hdr;
        if let Phase::Follower(w) = &mut self.phase {
            w.activity = ctx.now();
        }
        ctx.span(hdr_span(&hdr), SpanStage::FollowerAccept, lane as u64);
        note_accept(ctx, hdr);
        // Queue the one-hop forward unless this node ends its arm (or is
        // the origin, which streams to the arm heads instead). A copy that
        // wins the race against the entry's cut ends the cut: the segments
        // still to land are not passed on, and the entry goes whole.
        if !forwarded && self.route_from(hdr.epoch.ldr as usize).downstream.is_some() {
            if self.cut.is_some_and(|(h, _)| h == hdr) {
                self.cut = None;
            }
            self.fwd_backlog.push_back(Fwd {
                hdr,
                part: 0,
                parts: 1,
                bytes: payload.clone(),
            });
        }
        self.log.insert(hdr, payload);
        self.ack_due = true;
        if self.cfg.per_message_acks {
            self.push_accept(ctx);
        }
    }

    /// Forward queued frames one hop to the downstream neighbour on this
    /// node's arm, each stamped with the commit point this node knows of,
    /// bounded by `ring_pipeline_depth` entries (the segments
    /// of an entry already on the lane always follow it), reusing the
    /// lane's slots as the downstream node's Accept_SST cell (pushed back
    /// to us, its upstream) advances. A poll runs it before `push_accept`:
    /// the forward is the one post of a forwarder's poll on the way to the
    /// quorum. A star route never queues a forward, so there this returns
    /// before charging anything.
    fn flush_forwards(&mut self, ctx: &mut Ctx<AcWire>) {
        if self.fwd_backlog.is_empty() {
            return;
        }
        // Only frames of the current epoch are forwarded, so its leader is
        // the origin that fixes the route.
        let Some(down) = self.route_from(self.e_cur.ldr as usize).downstream else {
            // The epoch moved on and this node ends its arm now; the queued
            // frames are all of superseded epochs.
            self.fwd_backlog.clear();
            return;
        };
        // Slot reuse on the forward lane: Acuerdo's rule (§4.1), off the
        // downstream node's acceptance frontier.
        let acc = self.accept_sst.read(&self.ep, down);
        self.ack_lane(down, acc);
        let commit = self.known_commit();
        while let Some(f) = self.fwd_backlog.front() {
            let hdr = f.hdr;
            if hdr.epoch != self.e_cur {
                // A diff moved the epoch on while this frame waited; the
                // downstream node is re-seeded by the leader's diff instead.
                self.fwd_backlog.pop_front();
                continue;
            }
            let lane = &self.out[down];
            let continues = lane.sent.back().is_some_and(|&(h, _)| h == hdr);
            if !continues && lane.entries >= self.cfg.ring_pipeline_depth {
                break;
            }
            let (part, parts) = (f.part, f.parts);
            match self.out_ring.send_parts(
                ctx,
                &mut self.ep,
                self.peers[down],
                msg::EntryHead::new(hdr, commit, part, parts).as_bytes(),
                &f.bytes,
                MsgKind::Payload,
            ) {
                Ok(seq) => {
                    ctx.use_cpu_at(SpanStage::RingWrite, cpu::FRAME_PROC);
                    if parts > 1 {
                        ctx.trace(seg_post(hdr, part));
                    }
                    // The entry's forward is done with its last segment.
                    if part + 1 == parts {
                        ctx.span(
                            hdr_span(&hdr),
                            SpanStage::RingWrite,
                            self.peers[down] as u64,
                        );
                        ctx.count(Counter::RingForwards, 1);
                    }
                    self.track_sent(down, hdr, seq);
                    self.fwd_backlog.pop_front();
                }
                Err(_) => break,
            }
        }
    }

    /// Leader-side arm health scan: a peer whose visible ack frontier
    /// stalled for a whole fail timeout sits behind a dead arm segment —
    /// stream to it directly (star fallback) until it is fully caught up,
    /// at which point the healed arm takes back over.
    ///
    /// Patience scales with arm depth: a frame needs `min(d, n − d)` store-
    /// and-forward hops (each an egress + ingress serialization plus a verb
    /// post) to even reach the peer `d` positions round the ring, so a flat
    /// timeout would read ordinary tail propagation as a dead segment and
    /// dump the whole backlog star-style — exactly the egress collapse the
    /// ring exists to avoid.
    fn fallback_scan(&mut self, ctx: &mut Ctx<AcWire>) {
        let now = ctx.now();
        let idle = self.accepted.epoch != self.e_cur || self.accepted == MsgHdr::new(self.e_cur, 0);
        for k in 0..self.cfg.n {
            if k == self.me || self.arm_head[k] {
                continue;
            }
            let a = self.ack_seen[k];
            let caught_up = idle || (a.epoch == self.accepted.epoch && a >= self.accepted);
            let d = (k + self.cfg.n - self.me) % self.cfg.n;
            let depth = d.min(self.cfg.n - d);
            let patience = self.cfg.fail_timeout + RING_HOP_GRACE * depth as u32;
            if caught_up {
                self.lag_since[k] = now;
                if self.fallback[k] {
                    self.fallback[k] = false;
                    ctx.trace(Event::new("ring_fallback_off").a(k as u64));
                }
            } else if !self.fallback[k] && now.saturating_since(self.lag_since[k]) > patience {
                self.fallback[k] = true;
                ctx.trace(Event::new("ring_fallback_on").a(k as u64));
                // Resume the direct stream from the peer's visible frontier;
                // the receiver's dedup gate absorbs any overlap with the arm.
                self.out[k].next_cnt = if a.epoch == self.e_new { a.cnt + 1 } else { 1 };
            }
        }
    }

    // ---- accepting (Figure 5) ----------------------------------------------

    fn accept_frames(&mut self, ctx: &mut Ctx<AcWire>) {
        for j in 0..self.cfg.n {
            // A lane nothing landed in since its last poll would read
            // nothing: test its bit here, and pay no call for it.
            if !self.ep.is_dirty(self.in_rings[j].region()) {
                continue;
            }
            let frames = self.in_rings[j].poll(&mut self.ep);
            for RingFrame { head, body, .. } in frames {
                ctx.use_cpu_at(SpanStage::FollowerAccept, cpu::FRAME_PROC);
                let Some(frame) = msg::decode_gathered(head, body) else {
                    debug_assert!(false, "malformed ring frame");
                    continue;
                };
                match frame {
                    Frame::Normal {
                        hdr,
                        commit,
                        payload,
                    } => {
                        self.read_stamp(hdr, commit);
                        self.ingest_segment(ctx, j, hdr, 0, 1, payload)
                    }
                    Frame::Seg {
                        hdr,
                        commit,
                        part,
                        parts,
                        bytes,
                    } => {
                        self.read_stamp(hdr, commit);
                        self.ingest_segment(ctx, j, hdr, part, parts, bytes)
                    }
                    Frame::Diff {
                        hdr,
                        part,
                        parts,
                        entries,
                    } => {
                        if self.e_new <= hdr.epoch {
                            debug_assert!(hdr.is_diff());
                            if self.collect_diff(j, hdr, part, parts, entries) {
                                self.apply_diff(ctx, j);
                                self.ack_due = true;
                                // Forwarded frames of the diff's epoch may
                                // have lost the cross-lane race and parked;
                                // they are contiguous now.
                                self.drain_pending(ctx, j);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Keep the commit stamp of a frame of entry `hdr` if it is of epoch
    /// `e_cur` and the highest yet. Whatever becomes of the frame (accepted,
    /// parked, dropped as a duplicate), its stamp is a fact about the
    /// leader of the stamp's epoch.
    fn read_stamp(&mut self, hdr: MsgHdr, commit: MsgHdr) {
        debug_assert!(commit < hdr, "stamp {commit:?} at or above frame {hdr:?}");
        #[cfg(test)]
        {
            self.stamps_read += 1;
        }
        if commit.epoch == self.e_cur {
            self.stamp = self.stamp.max(commit);
        }
    }

    /// Acknowledge an acceptance batch: post this node's Accept_SST cell
    /// to the leader and to the upstream node on its arm. A poll calls it
    /// after the batch's forwards. Append-before-ack still holds: the cell
    /// moves only after the fsync below, and a downstream node
    /// acknowledges a forwarded entry only after its own.
    fn push_accept(&mut self, ctx: &mut Ctx<AcWire>) {
        // Append-before-ack: everything staged by this acceptance batch is
        // fsync'd before the Accept_SST cell that acknowledges it is pushed.
        wal::fsync(ctx, self.cfg.durability);
        self.accept_sst.write_mine(&mut self.ep, &self.accepted);
        self.ack_due = false;
        self.acks_touched = true;
        let ldr = self.e_cur.ldr as usize;
        if ldr != self.me {
            let _ = self
                .accept_sst
                .push_mine_to(ctx, &mut self.ep, self.peers[ldr]);
        }
        // The upstream node on our arm reuses its forward-lane slots off our
        // Accept_SST cell — push it there too (the leader push above already
        // covers the arm heads, whose upstream is the leader).
        let up = self.route_from(ldr).upstream;
        if up != self.me && up != ldr {
            let _ = self
                .accept_sst
                .push_mine_to(ctx, &mut self.ep, self.peers[up]);
        }
    }

    fn collect_diff(
        &mut self,
        lane: usize,
        hdr: MsgHdr,
        part: u16,
        parts: u16,
        entries: Vec<(MsgHdr, Bytes)>,
    ) -> bool {
        match &mut self.diff_buf[lane] {
            Some((h, got, buf)) if *h == hdr => {
                debug_assert_eq!(*got, part, "diff parts out of order");
                buf.extend(entries);
                *got += 1;
                *got == parts
            }
            _ => {
                debug_assert_eq!(part, 0, "diff must start at part 0");
                self.diff_buf[lane] = Some((hdr, 1, entries));
                parts == 1
            }
        }
    }

    /// Remove the log entries in `[cut, (e, 0))`: the uncommitted suffix that
    /// a diff of epoch `e` whose entries start at `cut` supersedes. Shared by
    /// the live splice and its replay from the journal, so the two cannot
    /// drift apart.
    fn cut_log(&mut self, cut: MsgHdr, e: Epoch) {
        let upper = MsgHdr::new(e, 0);
        if cut < upper {
            let stale: Vec<MsgHdr> = self
                .log
                .range((Included(cut), Excluded(upper)))
                .map(|(h, _)| *h)
                .collect();
            for h in stale {
                self.log.remove(&h);
            }
        }
    }

    /// Enter epoch `e` over `entries` (§3.4, Figure 5 lines 54–66): drop
    /// the log's uncommitted suffix from `cut` up to `(e, 0)`, splice the
    /// entries in, and raise `accepted` over them and `next` to `(e, 0)`.
    /// A follower runs it on its leader's diff (`apply_diff`), a winner on
    /// no entries the instant it wins (`become_leader`). The journal gets
    /// the cut and the entries, so replay after a crash reproduces the
    /// splice and the epoch floor; the fsync barrier is the caller's
    /// `push_accept`.
    fn enter_epoch(
        &mut self,
        ctx: &mut Ctx<AcWire>,
        e: Epoch,
        cut: MsgHdr,
        entries: Vec<(MsgHdr, Bytes)>,
    ) {
        ctx.count(Counter::DiffApplies, 1);
        ctx.trace(
            Event::new("diff_apply")
                .a(u64::from(e.round))
                .b(entries.len() as u64),
        );
        self.e_new = e;
        self.e_cur = e;
        self.acks_touched = true;
        self.cut_log(cut, e);
        if self.cfg.durability.is_durable() {
            WAL_CUT.append(ctx, self.cfg.durability, &(cut, e), &[]);
            self.journal.note(None);
        }
        let mut top = MsgHdr::new(e, 0);
        for (h, p) in entries {
            self.journal_entry(ctx, h, &p);
            self.log.insert(h, p);
            top = top.max(h);
        }
        // The Accept_SST cell then says what this node durably holds (a
        // mid-epoch rejoin diff carries entries of the current epoch the
        // leader is waiting to count), and the contiguity gate expects
        // exactly the next stream frame. `max`: a re-applied diff must
        // never regress progress an intact node already made (regression
        // would re-deliver).
        self.accepted = self.accepted.max(top);
        self.pending.retain(|h, _| *h > self.accepted);
        // The gate may expect another entry now; a cut in progress goes on
        // as a plain reassembly.
        self.cut = None;
        self.next = self.next.max(MsgHdr::new(e, 0));
    }

    /// Apply the diff fully reassembled on `lane`: enter its epoch as the
    /// follower of its leader.
    fn apply_diff(&mut self, ctx: &mut Ctx<AcWire>, lane: usize) {
        let (hdr, _, entries) = self.diff_buf[lane].take().expect("no diff buffered");
        let e = hdr.epoch;
        debug_assert_ne!(e.ldr as usize, self.me, "a diff of this node's own epoch");
        // A mid-epoch rejoin diff can start above its own header `(e, 0)`
        // (its entries belong to the *current* epoch); there is nothing to
        // truncate then.
        let cut = entries
            .first()
            .map(|(h, _)| *h)
            .unwrap_or_else(|| self.committed.next());
        self.enter_epoch(ctx, e, cut, entries);
        let hb = self.commit_cell(e.ldr as usize).hb;
        self.enter(Phase::Follower(Watch {
            activity: ctx.now(),
            hb,
            frame_stall: None,
        }));
        // Frames this node forwarded (or, as a deposed leader, streamed) in
        // superseded epochs may never be acked here: the new origin can
        // reverse the arm, and their receivers then report to another
        // upstream. Stop counting them against `ring_pipeline_depth`. Their
        // ring space stays reserved until the lane's next cumulative ack —
        // nothing here proves the receiver consumed them.
        for o in &mut self.out {
            o.drop_while(|h| h.epoch < e);
        }
    }

    // ---- committing (Figure 6) ----------------------------------------------

    fn commit_cell(&self, j: usize) -> CommitCell {
        self.commit_sst.read(&self.ep, j)
    }

    /// The leader's commit point in epoch `e_cur` as far as this node
    /// knows: the larger of the leader's Commit_SST row and the highest
    /// commit stamp read from a frame (`MsgHdr::ZERO` if neither is of
    /// `e_cur`). A follower commits up to it, and a forwarder stamps it on
    /// what it forwards.
    fn known_commit(&self) -> MsgHdr {
        let of_epoch = |c: MsgHdr| {
            if c.epoch == self.e_cur {
                c
            } else {
                MsgHdr::ZERO
            }
        };
        of_epoch(self.commit_cell(self.e_cur.ldr as usize).committed).max(of_epoch(self.stamp))
    }

    /// Note Accept_SST cells that advanced since the last poll, marking the
    /// newly visible acknowledgment on each message's lifecycle. Acks are
    /// cumulative (one cell covers every earlier count of its epoch), so a
    /// single `ack_visible` mark per advance suffices — lifecycle assembly
    /// inherits it downward exactly as the commit rule does. The leader's
    /// own cell gets no mark: it moves when the leader accepts, before any
    /// follower can. Run only when a cell may have moved (`acks_touched`).
    fn observe_acks(&mut self, ctx: &mut Ctx<AcWire>) {
        for k in 0..self.cfg.n {
            let a = self.accept_sst.read(&self.ep, k);
            if a > self.ack_seen[k] {
                if a.cnt != 0 && k != self.me {
                    ctx.span(hdr_span(&a), SpanStage::AckVisible, k as u64);
                }
                self.ack_seen[k] = a;
                self.ack_obs_counter += 1;
                self.ack_obs_seq[k] = self.ack_obs_counter;
                // An advancing frontier means its arm still feeds this peer;
                // only a stall engages star fallback.
                self.lag_since[k] = ctx.now();
            }
        }
    }

    /// Name the last-acking member of `hdr`'s commit quorum: sort the
    /// covering `ack_seen` cells by observation order and take the one that
    /// completed the quorum. Returns the [`SpanStage::Quorum`] mark argument
    /// (node id + 1; 0 when unknown — follower role, or cells not yet
    /// re-observed).
    fn quorum_straggler(&self, hdr: MsgHdr) -> u64 {
        if self.role() != Role::Leader {
            return 0;
        }
        let mut covering: Vec<(u64, usize)> = (0..self.cfg.n)
            .filter(|&k| {
                let a = self.ack_seen[k];
                a >= hdr && a.epoch == self.e_cur
            })
            .map(|k| (self.ack_obs_seq[k], k))
            .collect();
        if covering.len() < self.cfg.quorum() {
            return 0;
        }
        covering.sort_unstable();
        covering[self.cfg.quorum() - 1].1 as u64 + 1
    }

    fn commit_ready(&self) -> bool {
        // Only an elector can be without an epoch: a winner enters its own
        // the instant it wins, and a follower is made by a diff or boots
        // into an epoch. Without one the zeroed SST cells of a fresh boot
        // would trivially satisfy both arms below (`ZERO >= next` when
        // `next` is still `MsgHdr::ZERO`).
        debug_assert!(self.e_cur != Epoch::ZERO || self.role() == Role::Electing);
        match self.role() {
            Role::Leader => {
                let mut cnt = 0;
                for k in 0..self.cfg.n {
                    let a = self.accept_sst.read(&self.ep, k);
                    if a >= self.next && a.epoch == self.e_cur {
                        cnt += 1;
                    }
                }
                cnt >= self.cfg.quorum()
            }
            Role::Follower => {
                let c = self.known_commit();
                c >= self.next && c.epoch == self.e_cur
            }
            Role::Electing => false,
        }
    }

    /// `acks_new`: an Accept_SST cell, or what the leader's rule compares
    /// the cells with, changed since the last call.
    fn commit_step(&mut self, ctx: &mut Ctx<AcWire>, acks_new: bool) {
        // The leader's rule counts n cells. The loop below leaves it false
        // (or waiting on the log, which re-arms `acks_touched`), and false
        // it stays until a cell, `next`, the epoch or the role moves.
        if self.role() == Role::Leader && !acks_new {
            return;
        }
        while self.commit_ready() {
            if !self.next.is_diff() {
                // Normal message commit.
                let Some(payload) = self.log.get(&self.next).cloned() else {
                    // Commit notification outran this replica's ring backlog;
                    // wait for the frame. A follower times the wait: a stall
                    // that outlives a whole fail timeout means the stream
                    // broke (detect_desync).
                    if let Phase::Follower(w) = &mut self.phase {
                        w.frame_stall.get_or_insert(ctx.now());
                    }
                    self.acks_touched = true;
                    break;
                };
                let hdr = self.next;
                ctx.span(
                    hdr_span(&hdr),
                    SpanStage::Quorum,
                    self.quorum_straggler(hdr),
                );
                self.deliver(ctx, hdr, payload);
                self.committed = hdr;
            } else {
                // Diff commit: deliver everything between the old committed
                // point and the diff header (Figure 6 lines 83–89). The
                // bounds check keeps a diff at or below the committed point
                // (re-applied after a recovery) from panicking the range.
                let pending: Vec<(MsgHdr, Bytes)> = if self.committed < self.next {
                    self.log
                        .range((Excluded(self.committed), Excluded(self.next)))
                        .map(|(h, p)| (*h, p.clone()))
                        .collect()
                } else {
                    Vec::new()
                };
                for (h, p) in pending {
                    ctx.span(hdr_span(&h), SpanStage::Quorum, 0);
                    self.deliver(ctx, h, p);
                    self.committed = h;
                }
                // Deviation (see module docs): mark the diff itself
                // committed so idle followers can commit too.
                self.committed = self.committed.max(self.next);
            }
            self.next = self.next.next();
        }
    }

    /// Publish current gauge levels — epoch, commit/ack frontier lags, ring
    /// occupancy — for the engine's time-series sampler. Plain stores (see
    /// [`Ctx::gauge`]); the series is only materialized when sampling is on.
    fn publish_gauges(&mut self, ctx: &mut Ctx<AcWire>) {
        let commit_lag = if self.accepted.epoch == self.committed.epoch {
            u64::from(self.accepted.cnt.saturating_sub(self.committed.cnt))
        } else {
            u64::from(self.accepted.cnt)
        };
        ctx.gauge(Gauge::CommitFrontierLag, commit_lag);
        if self.role() == Role::Leader {
            // Ack-frontier lag: how far the slowest peer's visible Accept_SST
            // cell trails the leader's accept frontier.
            let mut ack_lag = 0u64;
            for k in 0..self.cfg.n {
                let a = self.ack_seen[k];
                let lag = if a.epoch == self.accepted.epoch {
                    u64::from(self.accepted.cnt.saturating_sub(a.cnt))
                } else {
                    u64::from(self.accepted.cnt)
                };
                ack_lag = ack_lag.max(lag);
            }
            ctx.gauge(Gauge::AckFrontierLag, ack_lag);
            // Occupancy of the fullest outbound ring lane.
            let mut occ = 0u64;
            for j in 0..self.cfg.n {
                if j == self.me {
                    continue;
                }
                let free = self.out_ring.free_space(self.peers[j]);
                occ = occ.max((self.cfg.ring_bytes as u64).saturating_sub(free));
            }
            ctx.gauge(Gauge::RingOccupancy, occ);
        }
    }

    fn deliver(&mut self, ctx: &mut Ctx<AcWire>, hdr: MsgHdr, payload: Bytes) {
        if let Phase::Follower(w) = &mut self.phase {
            w.frame_stall = None;
        }
        let entry = Committed {
            key: hdr,
            span: hdr_span(&hdr),
            hdr,
            payload: &payload,
        };
        self.instrument
            .deliver(ctx, &mut *self.app, entry, Some(AcWire::Resp));
    }

    // ---- slot reuse / flow control -------------------------------------------

    fn reuse_slots(&mut self) {
        if self.cfg.slot_reuse_on_commit {
            // Ablation: Derecho's rule — reuse only once committed at ALL
            // nodes.
            let mut min_commit = MsgHdr::new(Epoch::new(u32::MAX, u32::MAX), u32::MAX);
            for k in 0..self.cfg.n {
                min_commit = min_commit.min(self.commit_cell(k).committed);
            }
            for j in 0..self.cfg.n {
                self.ack_lane(j, min_commit);
            }
        } else {
            // Acuerdo's rule: reuse once the receiver accepted (§4.1).
            for j in 0..self.cfg.n {
                let acc = self.accept_sst.read(&self.ep, j);
                self.ack_lane(j, acc);
            }
        }
    }

    /// Book a frame in flight on lane `j`, for `ack_lane` to free.
    fn track_sent(&mut self, j: usize, hdr: MsgHdr, seq: u64) {
        self.out[j].book(hdr, seq);
        self.acks_touched = true;
    }

    fn ack_lane(&mut self, j: usize, upto: MsgHdr) {
        if let Some(s) = self.out[j].drop_while(|h| h <= upto) {
            self.out_ring.ack(self.peers[j], s);
        }
    }

    // ---- log GC ----------------------------------------------------------------

    /// Journal entry `hdr` (durable mode; nothing otherwise).
    fn journal_entry(&mut self, ctx: &mut Ctx<AcWire>, hdr: MsgHdr, payload: &[u8]) {
        if self.cfg.durability.is_durable() {
            WAL_ENTRY.append(ctx, self.cfg.durability, &hdr, payload);
            self.journal.note(Some(hdr));
        }
    }

    /// Prune below this node's commit point and the GC horizon in the row of
    /// its epoch's leader — at the leader its own row, which the push tick
    /// has just written — and, durable, checkpoint what the journal holds
    /// below the log's oldest entry.
    fn gc(&mut self, ctx: &mut Ctx<AcWire>) {
        if self.cfg.keeps_whole_log() {
            return;
        }
        let horizon = self
            .committed
            .min(self.commit_cell(self.e_cur.ldr as usize).horizon);
        // Keep the boundary entry itself: diffs include it (Figure 7 line
        // 123 is an inclusive range). Mostly the oldest entry is already at
        // or above the horizon, and nothing below is visited.
        while let Some(oldest) = self.log.first_entry() {
            if *oldest.key() >= horizon {
                break;
            }
            let (h, _) = oldest.remove_entry();
            self.instrument.forget(&h);
        }
        if self.cfg.durability.is_durable() {
            self.checkpoint(ctx);
        }
    }

    /// Once the synced journal records holding no entry above the log's
    /// oldest, committed entry number `CHECKPOINT_RECORDS`, replace them by
    /// a [`Checkpoint`] at that entry. An app that takes no snapshot leaves
    /// the journal whole.
    fn checkpoint(&mut self, ctx: &mut Ctx<AcWire>) {
        let Some((&b, payload)) = self.log.first_key_value() else {
            return;
        };
        if b > self.committed {
            return;
        }
        let trim = self.journal.covered(b, ctx.log_synced_len());
        if trim < CHECKPOINT_RECORDS {
            return;
        }
        let Some(app) = self.app.snapshot() else {
            return;
        };
        let ckpt = Checkpoint {
            boundary: (b, payload.clone()),
            committed: self.committed,
            floor: self.e_cur,
            app,
        };
        wal::checkpoint(ctx, ckpt, trim);
        self.journal.trim(trim);
    }

    // ---- failure detection / election (Figure 7) ---------------------------------

    /// The only writer of `phase`, and the one place the epoch invariants
    /// are asserted: `e_cur` never moves down, and never passes `e_new`.
    fn enter(&mut self, to: Phase) {
        debug_assert!(
            self.entered_at <= self.e_cur && self.e_cur <= self.e_new,
            "e_cur moved down or passed e_new"
        );
        self.entered_at = self.e_cur;
        #[cfg(test)]
        PHASE_EDGES.with(|e| e.borrow_mut().insert((self.phase.kind(), to.kind())));
        self.phase = to;
    }

    fn detect_failure(&mut self, ctx: &mut Ctx<AcWire>) {
        let hb = self.commit_cell(self.e_cur.ldr as usize).hb;
        let Phase::Follower(w) = &mut self.phase else {
            return;
        };
        if hb != w.hb {
            w.hb = hb;
            w.activity = ctx.now();
        }
        if ctx.now().saturating_since(w.activity) > self.cfg.fail_timeout {
            ctx.count(Counter::HeartbeatMisses, 1);
            ctx.trace(Event::new("heartbeat_miss").a(u64::from(self.e_cur.round)));
            self.start_election(ctx);
        }
    }

    fn start_election(&mut self, ctx: &mut Ctx<AcWire>) {
        let now = ctx.now();
        ctx.count(Counter::Elections, 1);
        ctx.trace(Event::new("election_start").a(u64::from(self.e_cur.round)));
        let election = Election {
            started: now,
            best: self.vote_sst.mine(&self.ep),
            best_since: now,
            hb: (0..self.cfg.n)
                .map(|k| (self.commit_cell(k).hb, now))
                .collect(),
        };
        self.enter(Phase::Electing(election));
        // The winner seeds each peer from its mirror of that peer's commit
        // cell (`seed_peer`), and a follower pushed its own to the leader
        // alone: publish this node's commit point to everyone now, not at
        // the next period tick, so its election diff starts where its log
        // stops rather than at the start of the history.
        self.write_commit_cell();
        let _ = self.commit_sst.push_mine(ctx, &mut self.ep, &self.peers);
    }

    fn election_step(&mut self, ctx: &mut Ctx<AcWire>) {
        // A resyncing node abstains: its reset state must not outbid the
        // live epoch it is about to be re-seeded into.
        let Phase::Electing(el) = &mut self.phase else {
            return;
        };
        let votes = self.vote_sst.snapshot(&self.ep);
        let mx = *votes.iter().max().expect("nonempty SST");
        if mx != el.best {
            el.best = mx;
            el.best_since = ctx.now();
        }
        let best_since = el.best_since;
        let no_candidate = mx == Vote::default();
        let candidate_is_other = mx.e_new.ldr as usize != self.me;
        // A best vote that a quorum of identical cells already holds has
        // won: its diff is on the way, and after a whole-cluster power
        // failure shipping every peer a full-log diff can outlast
        // `candidate_patience`. Outbidding it then splits the electors
        // (8 vs 8 at n = 16) with every abdication repeating the split, so
        // such a vote gets a whole `fail_timeout`.
        let won = votes.iter().filter(|&&v| v == mx).count() >= self.cfg.quorum();
        let patience = if won {
            self.cfg.fail_timeout
        } else {
            self.cfg.candidate_patience
        };
        let timed_out = !no_candidate
            && candidate_is_other
            && ctx.now().saturating_since(best_since) > patience;
        let mine = votes[self.me];
        // The best vote names this node for an epoch above its own, yet it
        // is not this node's vote: a peer's cell still holds a candidacy
        // (or the retraction `(e_cur, accepted)`) from before this node lost
        // its state in a reboot. Joining it would re-win an epoch whose
        // headers already name other payloads; outbid it like any other.
        let stale_self = !candidate_is_other && mx > mine && mx.e_new > self.e_cur.max(self.e_new);

        if no_candidate || timed_out || stale_self || self.accepted > mx.acpt {
            // Vote for self with a strictly larger epoch (lines 100–104).
            let e = Epoch::bigger_for(self.e_new, mx.e_new, self.me as u32);
            ctx.trace(Event::new("vote_self").a(u64::from(e.round)));
            self.cast_vote(ctx, Vote::new(e, self.accepted));
        } else if mx > mine && self.accepted <= mx.acpt {
            // Join the best vote (lines 106–111).
            ctx.trace(
                Event::new("vote_join")
                    .a(u64::from(mx.e_new.round))
                    .b(u64::from(mx.e_new.ldr)),
            );
            self.cast_vote(ctx, mx);
        }

        // Win check (lines 113–127). A winnable candidacy must name an epoch
        // strictly above `e_cur`: the resync retraction vote is written as
        // `(e_cur, accepted)` exactly so peers see the node's floor, and on a
        // node whose id happens to match `e_cur.ldr` (say replica 0 after a
        // whole-cluster power failure restores everyone to epoch `(1, 0)`)
        // that retraction would otherwise read as a self-candidacy the
        // identical retractions of its peers appear to support.
        let votes = self.vote_sst.snapshot(&self.ep);
        let mine = votes[self.me];
        if mine == Vote::default() || mine.e_new.ldr as usize != self.me || mine.e_new <= self.e_cur
        {
            return;
        }
        let supporters = votes.iter().filter(|v| **v == mine).count();
        if supporters < self.cfg.quorum() {
            return;
        }
        self.become_leader(ctx);
    }

    /// Promise `v.e_new` and publish the vote.
    fn cast_vote(&mut self, ctx: &mut Ctx<AcWire>, v: Vote) {
        self.e_new = v.e_new;
        self.vote_sst.write_mine(&mut self.ep, &v);
        let _ = self.vote_sst.push_mine(ctx, &mut self.ep, &self.peers);
        ctx.use_cpu(cpu::FRAME_PROC);
    }

    fn become_leader(&mut self, ctx: &mut Ctx<AcWire>) {
        let Phase::Electing(el) = &self.phase else {
            unreachable!("only an elector wins");
        };
        let started = el.started;
        self.enter(Phase::Leader(Lead {
            started,
            ready_pending: true,
            outbid_since: None,
        }));
        self.acks_touched = true;
        self.count = 0;
        // A fresh epoch starts with a healthy-arms assumption; the fallback
        // scan re-marks any segment that is still dead.
        self.fallback.fill(false);
        self.lag_since.fill(ctx.now());
        ctx.count(Counter::ElectionsWon, 1);
        ctx.trace(Event::new("leader_elected").a(u64::from(self.e_new.round)));
        // Tick at the leader's cadence from now on; the armed follower tick
        // is stale.
        self.push_gen += 1;
        self.arm_push(ctx);
        let me = self.me;
        for j in (0..self.cfg.n).filter(|&j| j != me) {
            // A peer that Hello'd since the last diff is being re-seeded
            // from scratch: account its diff as rejoin traffic.
            let rejoin = std::mem::take(&mut self.hello_from[j]);
            self.seed_peer(ctx, j, 1, rejoin);
        }
        // Its own log is local state: the winner enters `e_new` in place,
        // over no entries and a cut above its log that only records the
        // epoch floor for replay, and acknowledges it as a follower
        // acknowledges a diff.
        self.enter_epoch(ctx, self.e_new, self.accepted.next(), Vec::new());
        self.push_accept(ctx);
        self.flush_all(ctx);
        self.check_ready(ctx);
    }

    /// Queue peer `j` the diff that brings it into `e_new` — this node's log
    /// from `j`'s commit point to its own accept frontier (Figure 7 line
    /// 123) — and aim `j`'s normal stream at `next_cnt`. The bounds check
    /// keeps a peer whose commit cell is past this node's frontier from
    /// panicking the range: it gets an empty diff, traced as
    /// `seed_peer_ahead`, and the checker names what follows. The volatile
    /// `chaos --nodes 3 --seed 288` reaches this; the `sq_depth: 8`
    /// schedule that once panicked here has not been reproduced, so its
    /// cause is unknown.
    fn seed_peer(&mut self, ctx: &mut Ctx<AcWire>, j: usize, next_cnt: u32, rejoin: bool) {
        let low = self.commit_cell(j).committed;
        let entries: Vec<(MsgHdr, Bytes)> = if low <= self.accepted {
            self.log
                .range((Included(low), Included(self.accepted)))
                .map(|(h, p)| (*h, p.clone()))
                .collect()
        } else {
            ctx.trace(Event::new("seed_peer_ahead").a(j as u64));
            Vec::new()
        };
        let hdr = MsgHdr::new(self.e_new, 0);
        // A part must fit the ring: at n ≥ 33 the rings shrink to 64 KiB and
        // a full 32 KiB default part plus its framing no longer does.
        let fits = self.out_ring.max_payload().saturating_sub(msg::DIFF_HEAD);
        let parts = msg::encode_diff_parts(hdr, &entries, self.cfg.max_diff_part.min(fits));
        self.out[j].diff_backlog = parts.into();
        self.out[j].next_cnt = next_cnt;
        self.out[j].next_part = 0;
        self.out[j].rejoin = rejoin;
    }

    fn check_ready(&mut self, ctx: &mut Ctx<AcWire>) {
        let Phase::Leader(lead) = &mut self.phase else {
            return;
        };
        if lead.ready_pending && self.out.iter().all(|o| o.diff_backlog.is_empty()) {
            lead.ready_pending = false;
            ctx.trace(Event::new("epoch_ready").a(u64::from(self.e_new.round)));
            self.election_spans.push((lead.started, ctx.now_cpu()));
        }
    }

    /// Leader-side escape from a lost quorum, checked at the followers' push
    /// cadence. A peer whose vote cell names an epoch above ours has promised
    /// that epoch and refuses our frames; once more than `n − quorum` peers
    /// have, no quorum of acceptors is left and this leader can never commit
    /// again — while the outbidders, short of a quorum themselves as long as
    /// our followers keep following our heartbeat, can never win. (Voters
    /// whose patience ran out the instant the deciding vote landed split a
    /// 16-node cluster 8 vs 8 this way.) The electors' own way back to a
    /// leader that has committed (`detect_desync`) takes one `fail_timeout`;
    /// if the block outlasts that, abdicate into their election. Promises
    /// only ever move up here, so this cannot hurt safety.
    fn detect_outbid(&mut self, ctx: &mut Ctx<AcWire>) {
        let Phase::Leader(lead) = &mut self.phase else {
            return;
        };
        let outbid = (0..self.cfg.n)
            .filter(|&k| self.vote_sst.read(&self.ep, k).e_new > self.e_new)
            .count();
        if outbid <= self.cfg.n - self.cfg.quorum() {
            lead.outbid_since = None;
            return;
        }
        let now = ctx.now();
        let since = *lead.outbid_since.get_or_insert(now);
        if now.saturating_since(since) > self.cfg.fail_timeout {
            ctx.trace(Event::new("abdicate").a(u64::from(self.e_new.round)));
            self.start_election(ctx);
        }
    }

    // ---- periodic push (Figure 6 lines 93–95 + heartbeat) -------------------------
    //
    // Deviation (DESIGN §7): a row goes only to the nodes that read it, as
    // often as they need it. Commit news under load rides the frame heads
    // (`known_commit`), so the leader's row (heartbeat, GC horizon, and the
    // commit point of a stream gone idle) goes to each peer on its
    // heartbeat turn alone, once per `FOLLOWER_PUSH_PERIOD` ticks, staggered
    // by peer index so no tick carries a burst. A follower's row has one
    // reader, its leader (GC horizon, rejoin lows), and goes to it alone
    // every `FOLLOWER_PUSH_PERIOD` ticks. An elector's is read by whoever
    // wins (`seed_peer`), so it goes to everyone at that cadence, and at
    // once as the election starts (`start_election`).

    fn push_commit(&mut self, ctx: &mut Ctx<AcWire>) {
        self.push_ticks += self.push_stride;
        let is_leader = self.role() == Role::Leader;
        if !is_leader && !self.push_ticks.is_multiple_of(FOLLOWER_PUSH_PERIOD) {
            return;
        }
        // Only a leader advances the heartbeat: a ticking counter from a
        // non-leader — say a rebooted ex-leader whose id still matches
        // `e_cur.ldr` on its old followers — would read as leader liveness
        // and suppress the very election that node needs.
        if is_leader {
            self.commit_push_seq += 1;
        }
        self.write_commit_cell();
        match self.role() {
            Role::Leader => {
                for k in 0..self.cfg.n {
                    let turn = (self.push_ticks + k as u64).is_multiple_of(FOLLOWER_PUSH_PERIOD);
                    if k != self.me && turn {
                        let _ = self
                            .commit_sst
                            .push_mine_to(ctx, &mut self.ep, self.peers[k]);
                    }
                }
            }
            Role::Follower => {
                let ldr = self.peers[self.e_cur.ldr as usize];
                let _ = self.commit_sst.push_mine_to(ctx, &mut self.ep, ldr);
            }
            Role::Electing => {
                let _ = self.commit_sst.push_mine(ctx, &mut self.ep, &self.peers);
            }
        }
    }

    /// Arm the next push tick: one `commit_push_interval` away at a leader,
    /// at the next multiple of `FOLLOWER_PUSH_PERIOD` ticks elsewhere.
    fn arm_push(&mut self, ctx: &mut Ctx<AcWire>) {
        self.push_stride = if self.role() == Role::Leader {
            1
        } else {
            FOLLOWER_PUSH_PERIOD - self.push_ticks % FOLLOWER_PUSH_PERIOD
        };
        ctx.set_timer(
            self.cfg.commit_push_interval * self.push_stride as u32,
            TOK_PUSH | self.push_gen << 8,
        );
    }

    /// Write this node's own Commit_SST row. A leader's carries the GC
    /// horizon: its own commit point and every follower's, as last pushed.
    fn write_commit_cell(&mut self) {
        let horizon = if self.role() == Role::Leader {
            (0..self.cfg.n)
                .filter(|&k| k != self.me)
                .map(|k| self.commit_cell(k).committed)
                .fold(self.committed, MsgHdr::min)
        } else {
            MsgHdr::ZERO
        };
        let cell = CommitCell {
            committed: self.committed,
            hb: self.commit_push_seq,
            horizon,
        };
        self.commit_sst.write_mine(&mut self.ep, &cell);
    }

    // ---- rejoin / stream resynchronization (module docs) ---------------------------

    /// Register a fresh inbound ring for frames from peer `j` and start
    /// polling it instead of the old one. Straggler writes of the abandoned
    /// stream keep landing in the old region, which stays registered exactly
    /// so they stay harmless.
    fn refresh_inbound(&mut self, j: usize) -> RegionId {
        self.drop_partial(j);
        self.diff_buf[j] = None;
        let r = self.ep.register_region(self.cfg.ring_bytes);
        self.in_rings[j] = RingReceiver::new(r, self.cfg.ring_bytes, self.cfg.ring_mode);
        r
    }

    /// Zero the three SST cells mirrored from peer `j`.
    fn forget_mirrors(&mut self, j: usize) {
        self.accept_sst.reset_slot(&mut self.ep, j);
        self.vote_sst.reset_slot(&mut self.ep, j);
        self.commit_sst.reset_slot(&mut self.ep, j);
        self.acks_touched = true;
    }

    /// Tear down and re-establish this node's connection state: fresh
    /// inbound ring regions, reset QPs, zeroed SST mirrors, and a Hello
    /// broadcast carrying the new region ids. The node then waits for the
    /// current leader's recovery diff.
    fn initiate_resync(&mut self, ctx: &mut Ctx<AcWire>) {
        let attempts = match &self.phase {
            Phase::Rejoining(r) => r.attempts + 1,
            _ => 1,
        };
        // Abandon any election this node was running: diffs are only
        // accepted for epochs at or above `e_new`, so a candidacy raised
        // while cut off (e.g. a partitioned minority electing itself) would
        // make the node reject the very recovery diff it is asking for.
        // Neutralizing the vote cell retracts the candidacy from peers too
        // (on_hello re-pushes it).
        self.e_new = self.e_cur;
        let started = ctx.now();
        self.enter(Phase::Rejoining(Rejoin { started, attempts }));
        // Dissemination state dies with the torn-down lanes: parked frames will
        // be re-covered by the recovery diff, in-flight forwards by their
        // receivers' own repair, and partial entries (with any cut through
        // them) and partial diffs by `refresh_inbound` below.
        self.pending.clear();
        self.fwd_backlog.clear();
        let v = Vote::new(self.e_cur, self.accepted);
        self.vote_sst.write_mine(&mut self.ep, &v);
        ctx.trace(Event::new("resync").a(u64::from(attempts)));
        for j in 0..self.cfg.n {
            if j == self.me {
                continue;
            }
            let ring = self.refresh_inbound(j);
            self.ep.reset_connection(self.peers[j]);
            self.forget_mirrors(j);
            self.out[j] = PeerOut::new();
            ctx.send(
                self.peers[j],
                DeliveryClass::Cpu,
                HELLO_WIRE,
                AcWire::Hello { ring, reply: true },
            );
        }
    }

    fn on_hello(&mut self, ctx: &mut Ctx<AcWire>, from: NodeId, ring: RegionId, reply: bool) {
        let j = from;
        if j >= self.cfg.n || j == self.me {
            return;
        }
        ctx.use_cpu(cpu::FRAME_PROC);
        ctx.trace(Event::new("hello").a(j as u64).b(u64::from(reply)));
        // The sender tore its end down: mirror the teardown locally so write
        // sequencing restarts from zero, and aim our stream at its fresh
        // ring.
        self.ep.reset_connection(self.peers[j]);
        self.out_ring.retarget_lane(self.peers[j], ring);
        self.out[j] = PeerOut::new();
        if self.route_from(self.e_cur.ldr as usize).downstream == Some(j) {
            // Our downstream node tore its ring down: in-flight forwards
            // died with it (their lane just restarted from zero above). The
            // leader's rejoin diff covers everything we would have forwarded,
            // and an entry being cut through goes whole once accepted.
            self.fwd_backlog.clear();
            self.cut = None;
        }
        if reply {
            // Forget everything mirrored from the (possibly rebooted)
            // sender: its stale SST cells must not count toward quorums its
            // fresh incarnation no longer backs.
            self.forget_mirrors(j);
            let fresh = self.refresh_inbound(j);
            self.hello_from[j] = true;
            ctx.send(
                self.peers[j],
                DeliveryClass::Cpu,
                HELLO_WIRE,
                AcWire::Hello {
                    ring: fresh,
                    reply: false,
                },
            );
            if self.role() == Role::Leader {
                self.build_rejoin_diff(ctx, j);
            }
        }
        // The sender wiped its SST mirrors of us. Accept cells re-push on
        // every acceptance, but a vote cell is only pushed when it
        // *changes* — re-push it or an in-progress election deadlocks
        // against the wiped mirror. A follower's commit cell re-pushes to
        // its leader alone, so re-push it too: should the sender win an
        // election before we push again, it seeds our diff from that
        // mirror, and a wiped one starts it at the head of the log.
        let _ = self.vote_sst.push_mine_to(ctx, &mut self.ep, self.peers[j]);
        let _ = self
            .commit_sst
            .push_mine_to(ctx, &mut self.ep, self.peers[j]);
    }

    /// Re-seed a rejoining peer with a recovery diff over the current
    /// epoch's diff machinery (§3.4), then resume its normal stream right
    /// after the last entry the diff covers (re-sending covered entries
    /// would regress the peer's `accepted`).
    fn build_rejoin_diff(&mut self, ctx: &mut Ctx<AcWire>, j: usize) {
        let next_cnt = if self.accepted.epoch == self.e_new {
            self.accepted.cnt + 1
        } else {
            1
        };
        self.seed_peer(ctx, j, next_cnt, true);
        self.hello_from[j] = false;
        if !self.arm_head[j] {
            // Serve the rejoiner directly until the healed arm catches it
            // up (the fallback hysteresis clears this once it does).
            self.fallback[j] = true;
            self.lag_since[j] = ctx.now();
        }
        self.flush_peer(ctx, j);
    }

    /// Notice that this node's connection state went stale and repair it
    /// with a resync (module docs). Runs after `accept_frames`/`commit_step`
    /// so an already-landed diff is applied before staleness is judged.
    fn detect_desync(&mut self, ctx: &mut Ctx<AcWire>) {
        let now = ctx.now();
        let desync = match &mut self.phase {
            // Waiting for a recovery diff. Re-Hello in case the broadcast
            // raced a dying leader or a still-partitioned link; after a few
            // attempts give up and contest a normal election (there may be
            // no leader left to answer).
            Phase::Rejoining(r) => {
                if now.saturating_since(r.started) > self.cfg.fail_timeout * 2 {
                    if r.attempts >= MAX_RESYNC_ATTEMPTS {
                        self.start_election(ctx);
                    } else {
                        self.initiate_resync(ctx);
                    }
                }
                return;
            }
            // A deposed leader that slept through an election: some peer
            // committed in an epoch this leader has never heard of (the
            // new leader's row reaches everyone). Only a peer's push can
            // bring such a cell, so the scan runs when one has landed
            // since an empty scan, or when `e_new` fell below that scan's.
            Phase::Leader(_) => {
                let landed = self.commit_sst.take_dirty(&mut self.ep);
                let outbid =
                    |me: &Self| (0..me.cfg.n).any(|k| me.commit_cell(k).committed.epoch > me.e_new);
                if landed || self.outbid_clear.is_none_or(|e| self.e_new < e) {
                    let found = outbid(self);
                    self.outbid_clear = (!found).then_some(self.e_new);
                    found
                } else {
                    debug_assert!(!outbid(self), "a cell above e_new with no push landed");
                    false
                }
            }
            // A stuck elector watching a live epoch advance without being
            // let in: its vote pushes are going nowhere (severed stream)
            // while some leader's heartbeat keeps counting. The heartbeat
            // must be advancing *now* — one that froze above the election
            // start snapshot (the leader died mid-election) doesn't count.
            // Zero-epoch cells are excluded or boot-time electors would
            // trip on node 0's initial cell.
            Phase::Electing(el) => {
                let mut advancing = false;
                for (k, (base, seen)) in el.hb.iter_mut().enumerate() {
                    let CommitCell {
                        committed: c, hb, ..
                    } = self.commit_sst.read(&self.ep, k);
                    if hb != *base {
                        (*base, *seen) = (hb, now);
                    }
                    if c.epoch != Epoch::ZERO
                        && c.epoch.ldr as usize == k
                        && *seen > el.started
                        && now.saturating_since(*seen) <= self.cfg.fail_timeout
                    {
                        advancing = true;
                    }
                }
                advancing && now.saturating_since(el.started) > self.cfg.fail_timeout
            }
            // A follower whose inbound stream broke: the leader's commit
            // notifications keep outrunning the frames for longer than a
            // whole fail timeout. Where frames arrive over forwards, arm
            // tails legitimately trail the quorum by many hops — and the
            // leader's star fallback repairs a dead segment in one fail
            // timeout — so such a follower waits two timeouts before
            // tearing the connection down.
            Phase::Follower(w) => {
                let patience = if self.all_direct {
                    self.cfg.fail_timeout
                } else {
                    self.cfg.fail_timeout * 2
                };
                w.frame_stall
                    .is_some_and(|t| now.saturating_since(t) > patience)
            }
        };
        if desync {
            ctx.trace(Event::new("desync").a(u64::from(self.e_cur.round)));
            self.initiate_resync(ctx);
        }
    }

    // ---- the idle poll -----------------------------------------------------------

    /// Whether an arriving RDMA packet can change what this node's next poll
    /// finds. Erring towards `true` costs a full poll; `false` must be
    /// certain.
    fn stirs(&self, pkt: &RdmaPkt) -> bool {
        if let RdmaPkt::Ack { .. } = pkt {
            // A completion frees a send-queue slot, and only a send that
            // found the queue full is waiting for one.
            return self.send_blocked;
        }
        match pkt.write_target() {
            // A follower's polls read one Commit_SST cell, its leader's
            // (commit notification and heartbeat). The cells electors push
            // to everyone are read, on other roles, by election and desync
            // checks. Its only Accept_SST read is its downstream peer's
            // cell, in `flush_forwards`, which has nothing to do while the
            // forward backlog is empty.
            Some((region, offset)) if self.role() == Role::Follower => {
                if let Some(k) = self.commit_sst.slot_at(region, offset) {
                    k == self.e_cur.ldr as usize
                } else if self.accept_sst.slot_at(region, offset).is_some() {
                    !self.fwd_backlog.is_empty()
                } else {
                    true
                }
            }
            _ => true,
        }
    }

    /// Until when a poll that follows a settled poll, with nothing stirred
    /// in between, does nothing but spin (`Some(None)`: for good; `None`:
    /// not even now): it reads the memory and the state the settled poll
    /// read, so only a blocked send, whose retry is itself observable, or
    /// the clock can make it differ.
    ///
    /// * `RingStalls` counts failed send *attempts*, one per poll while a
    ///   lane is full, so a node with work blocked on flow control keeps
    ///   polling in full (skipping moved ring n = 64 from 504 stalls to 290
    ///   with no change in timing). A forward backlog counts as blocked
    ///   whatever holds it back.
    /// * Time-driven checks: a follower suspects its leader `fail_timeout`
    ///   after its last activity; an elector (resyncing or not) and a
    ///   follower with a stalled stream each watch a deadline; a new leader
    ///   stamps `epoch_ready` with the clock; the fallback scan of a leader
    ///   with peers it does not reach directly compares their lag with the
    ///   clock. None of them skips.
    fn inert_until(&self) -> Option<Option<SimTime>> {
        if self.send_blocked || !self.fwd_backlog.is_empty() {
            return None;
        }
        match &self.phase {
            Phase::Electing(_) | Phase::Rejoining(_) => None,
            Phase::Leader(lead) => (!lead.ready_pending && self.all_direct).then_some(None),
            Phase::Follower(w) => w
                .frame_stall
                .is_none()
                .then_some(Some(w.activity + self.cfg.fail_timeout)),
        }
    }
}

/// Durable recovery: the checkpoint brings back the app, the commit point
/// and the log's oldest entry; the records above it bring back the rest of
/// the log, `accepted` to its tip, and the epoch floor (`e_cur`/`e_new`)
/// to the highest epoch the checkpoint or the journal saw. The node then
/// runs the normal resync/election flow: if a leader survives, its recovery
/// diff splices the node back in and it delivers what committed above its
/// checkpoint; if the whole cluster lost power, the recovered `accepted`
/// value is the node's election bid, so the vote-by-max-accepted rule picks
/// a winner whose log holds every committed entry.
impl wal::Journaled for AcuerdoNode {
    type Checkpoint = Checkpoint;

    /// The log's oldest entry matters as much as the floor: without it a
    /// diff this node seeds as a leader, from a peer whose commit cell sits
    /// at that entry, would leave it out.
    fn restore(&mut self, ckpt: &Checkpoint) {
        self.app.restore(&ckpt.app);
        // `next` just past the commit point: a rejoin diff of the same
        // epoch raises it only to the diff's own header `(e, 0)`, and the
        // node would then wait for an entry below its checkpoint.
        self.committed = ckpt.committed;
        self.next = ckpt.committed.next();
        let (b, payload) = &ckpt.boundary;
        self.log.insert(*b, payload.clone());
        self.e_new = self.e_new.max(ckpt.floor);
    }

    fn replay(&mut self, rec: &[u8]) {
        if let Some((hdr, payload)) = WAL_ENTRY.read(rec) {
            self.log.insert(hdr, Bytes::copy_from_slice(payload));
            self.journal.note(Some(hdr));
            return;
        }
        if let Some(((cut, e), _)) = WAL_CUT.read(rec) {
            // A cut names the epoch of the diff that caused it, which may be
            // newer than any entry that survived to the tip.
            self.e_new = self.e_new.max(e);
            self.cut_log(cut, e);
        }
        self.journal.note(None);
    }

    /// The epoch floor matters as much as the entries: a recovered node that
    /// still believed `e_cur == ZERO` would bid `bigger_for(ZERO, ..) ==
    /// round 1` in the post-reboot election and *reuse* an epoch whose
    /// headers already name committed payloads — fresh `(1, 0, cnt)`
    /// proposals would collide with the recovered ones. Restoring the floor
    /// forces every post-recovery bid strictly above any epoch that can
    /// appear in any replica's journal.
    fn restore_floor(&mut self) {
        if let Some(&top) = self.log.keys().next_back() {
            self.accepted = top;
        }
        let floor = self.e_new.max(self.accepted.epoch);
        if floor != Epoch::ZERO {
            self.e_cur = floor;
            self.e_new = floor;
        }
    }
}

impl Process<AcWire> for AcuerdoNode {
    fn on_start(&mut self, ctx: &mut Ctx<AcWire>) {
        let mode = self.cfg.durability;
        wal::recover(self, ctx, mode);
        match &mut self.phase {
            Phase::Follower(w) => w.activity = ctx.now(),
            // Crash-restarted rejoiner: handshake for a recovery diff
            // instead of contesting an election with an empty log.
            Phase::Rejoining(_) => self.initiate_resync(ctx),
            Phase::Electing(_) => self.start_election(ctx),
            Phase::Leader(_) => {}
        }
        ctx.set_timer(self.cfg.poll_interval, TOK_POLL);
        self.arm_push(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<AcWire>, from: NodeId, msg: AcWire) {
        match msg {
            AcWire::Rdma(pkt) => {
                self.stirred |= self.stirs(&pkt);
                self.ep.on_packet(ctx, from, pkt);
                return;
            }
            AcWire::Req(req) => self.on_client_request(ctx, from, req),
            AcWire::Resp(_) => {}
            AcWire::Hello { ring, reply } => self.on_hello(ctx, from, ring, reply),
        }
        self.stirred = true;
    }

    fn idle_poll(&self, token: u64) -> Option<IdlePoll> {
        if token != TOK_POLL || self.stirred || !self.settled {
            return None;
        }
        Some(IdlePoll {
            cpu: cpu::POLL_IDLE,
            rearm: self.cfg.poll_interval,
            until: self.inert_until()?,
        })
    }

    fn on_timer(&mut self, ctx: &mut Ctx<AcWire>, token: u64) {
        match token {
            TOK_POLL => {
                // An idle poll never gets here: the engine answers it
                // without the handler, parked or in place (`idle_poll`).
                ctx.use_cpu_idle(cpu::POLL_IDLE);
                let fresh = std::mem::take(&mut self.stirred);
                let spin_cpu = ctx.cpu_used();
                self.send_blocked = false;
                // Forward, then acknowledge (`flush_forwards`).
                self.accept_frames(ctx);
                self.flush_forwards(ctx);
                if self.ack_due {
                    self.push_accept(ctx);
                }
                let acks_new = self.accept_sst.take_dirty(&mut self.ep)
                    | std::mem::take(&mut self.acks_touched);
                #[cfg(test)]
                let acks_new = acks_new || self.naive;
                if self.role() == Role::Leader && acks_new {
                    self.observe_acks(ctx);
                }
                self.commit_step(ctx, acks_new);
                // Audit accept point: the log holds everything this node has
                // accepted — by ring frame, by recovery diff, or (at the
                // leader) by proposing, which `self.accepted` alone misses.
                let log_top = self.log.keys().next_back().copied().unwrap_or(MsgHdr::ZERO);
                self.audit
                    .observe(ctx, self.e_cur, self.accepted.max(log_top), self.committed);
                self.publish_gauges(ctx);
                if self.role() == Role::Leader {
                    // Acuerdo's rule frees a lane off its receiver's cell
                    // and the lane's `sent` queue; Derecho's reads every
                    // Commit_SST cell, this node's own included.
                    if acks_new || self.cfg.slot_reuse_on_commit {
                        self.reuse_slots();
                    }
                    self.fallback_scan(ctx);
                    self.flush_all(ctx);
                    self.check_ready(ctx);
                }
                self.detect_failure(ctx);
                self.election_step(ctx);
                self.detect_desync(ctx);
                // A leader settles after two fruitless polls in a row with
                // nothing stirred between them. "Charged only the spin" is
                // not by itself "changed nothing": `observe_acks` and
                // `reuse_slots` move state for free, and both `publish_gauges`
                // and `flush_all` sit on the other side of `reuse_slots`, so
                // the poll after one that freed ring space must still run to
                // publish the new occupancy, and the poll after one that
                // sent must still run to free what was reusable the moment
                // it was sent (a diff part at or below every commit cell
                // under Derecho's rule). The second of two fruitless polls
                // has no such free work left: the first saw the same memory
                // and left it nothing to free or publish. A follower does
                // none of that free work (what its poll reads for free, the
                // heartbeat and an empty diff's commit, it publishes in the
                // same poll), so one fruitless poll is already a fixed point.
                let fruitless = ctx.cpu_used() == spin_cpu;
                self.settled =
                    fruitless && (self.role() == Role::Follower || (!fresh && self.fruitless));
                self.fruitless = fruitless;
                #[cfg(test)]
                {
                    self.stirred |= self.naive;
                }
                ctx.set_timer(self.cfg.poll_interval, TOK_POLL);
            }
            t if t & 0xff == TOK_PUSH => {
                if t >> 8 != self.push_gen {
                    return;
                }
                // The tick writes and posts this node's own Commit_SST cell,
                // which no poll reads except under Derecho's reuse rule.
                self.stirred |= self.cfg.slot_reuse_on_commit;
                self.push_commit(ctx);
                if self.push_ticks.is_multiple_of(FOLLOWER_PUSH_PERIOD) {
                    let role = self.role();
                    self.detect_outbid(ctx);
                    self.stirred |= self.role() != role;
                }
                self.gc(ctx);
                self.arm_push(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod oracle_tests;

#[cfg(test)]
mod wal_tests {
    use super::*;

    /// The bytes are pinned (record lengths set the device's
    /// `append_per_kib` charges). Replay re-inserts entries, applies each cut
    /// where it stands, skips a record too short for its head, and raises
    /// the epoch floor to the newest cut even when no entry of it survived.
    #[test]
    fn wal_replay_applies_cuts_in_order_and_restores_the_epoch_floor() {
        let hdr = |round, ldr, cnt| MsgHdr::new(Epoch::new(round, ldr), cnt);
        let entry = |h, p: &[u8]| WAL_ENTRY.encode(&h, p);
        let cut = |h, round, ldr| WAL_CUT.encode(&(h, Epoch::new(round, ldr)), &[]);
        let golden = [1, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, b'p'];
        assert_eq!(entry(hdr(1, 2, 3), b"p"), golden);
        let golden = [
            2, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0,
        ];
        assert_eq!(cut(hdr(1, 2, 3), 4, 5), golden);
        let mut node = AcuerdoNode::rejoining(AcuerdoConfig::stable(3), 1);
        let records = [
            entry(hdr(1, 0, 1), b"a"),
            entry(hdr(1, 0, 2), b"b"),
            entry(hdr(1, 0, 3), b"c"),
            cut(hdr(1, 0, 2), 2, 2),
            entry(hdr(2, 2, 1), b"d"),
            vec![1, 2, 0, 0],
            cut(hdr(2, 2, 2), 3, 0),
        ];
        assert_eq!(wal::replay(&mut node, None, &records), 7);
        let log: Vec<(MsgHdr, &[u8])> = node.log.iter().map(|(h, p)| (*h, p.as_ref())).collect();
        assert_eq!(log, [(hdr(1, 0, 1), &b"a"[..]), (hdr(2, 2, 1), &b"d"[..])]);
        assert_eq!(node.accepted, hdr(2, 2, 1));
        assert_eq!([node.e_cur, node.e_new], [Epoch::new(3, 0); 2]);
    }

    /// A checkpoint brings back the app, the commit point, the log's oldest
    /// entry and the epoch floor before the records above it replay. Here
    /// the cut that entered the newest epoch lay in the dropped prefix, so
    /// only the checkpoint still names that epoch; and the oldest entry is
    /// where a diff this node seeds for a peer committed just below it
    /// starts.
    #[test]
    fn wal_restore_brings_back_the_boundary_entry_and_the_epoch_floor() {
        let hdr = |round, ldr, cnt| MsgHdr::new(Epoch::new(round, ldr), cnt);
        let mut app = DeliveryLog::default();
        app.deliver(hdr(1, 0, 1), &Bytes::from_static(b"a"));
        app.deliver(hdr(1, 0, 2), &Bytes::from_static(b"b"));
        let ckpt = Checkpoint {
            boundary: (hdr(1, 0, 2), Bytes::from_static(b"b")),
            committed: hdr(1, 0, 2),
            floor: Epoch::new(3, 1),
            app: app.snapshot().expect("a DeliveryLog snapshots"),
        };
        let records = [WAL_ENTRY.encode(&hdr(1, 0, 3), b"c")];
        let mut node = AcuerdoNode::rejoining(AcuerdoConfig::stable(3), 1);
        assert_eq!(wal::replay(&mut node, Some(&ckpt), &records), 1);
        let log: Vec<(MsgHdr, &[u8])> = node.log.iter().map(|(h, p)| (*h, p.as_ref())).collect();
        assert_eq!(log, [(hdr(1, 0, 2), &b"b"[..]), (hdr(1, 0, 3), &b"c"[..])]);
        assert_eq!(
            (node.committed, node.accepted),
            (hdr(1, 0, 2), hdr(1, 0, 3))
        );
        assert_eq!(node.next, hdr(1, 0, 3));
        assert_eq!([node.e_cur, node.e_new], [Epoch::new(3, 1); 2]);
        let delivered = node.app.delivery_log().expect("the default app").headers();
        assert_eq!(delivered, [hdr(1, 0, 1), hdr(1, 0, 2)]);
        assert_eq!(node.journal.len(), 1, "one top per record replayed");
    }
}
