//! # zab — the ZooKeeper baseline
//!
//! A Zab implementation (Junqueira et al., DSN '11) over simulated kernel
//! TCP, modeling the ZooKeeper deployment the Acuerdo paper benchmarks
//! (§4, ZooKeeper 3.4.14 with in-memory storage). Performance-relevant
//! properties:
//!
//! * leader-based broadcast over FIFO TCP links with a **per-message
//!   acknowledgment** from every follower (contrast: Acuerdo's cumulative
//!   last-write-wins SST ack);
//! * ZooKeeper's request pipeline charges tens of microseconds of CPU per
//!   proposal (`ZK_ENTRY`), and every hop crosses the kernel;
//! * a ZooKeeper-style fast leader election: nodes gossip votes for the
//!   highest `(last zxid, id)` candidate, and the winner synchronises
//!   followers by shipping its log (`NewLeader`) before the new epoch opens —
//!   the post-election state transfer Acuerdo's up-to-date election avoids
//!   (§3.3, §5).
//!
//! Zxids are `(epoch, counter)` pairs; commits are cumulative ("commit
//! everything up to zxid").

use abcast::wal;
use abcast::{
    App, Auditor, ClientReq, ClientResp, Committed, DeliveryLog, Epoch, Instrument, MsgHdr,
    Replica, MAX_BACKLOG,
};
use bytes::Bytes;
use simnet::params::cpu;
use simnet::FastMap;
use simnet::{
    msg_span, Ctx, DeliveryClass, DurabilityMode, Gauge, LogDevParams, MsgKind, NetParams, NodeId,
    Process, Sim, SimTime, SpanStage,
};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::time::Duration;

/// A ZooKeeper transaction id: `(epoch, counter)`, totally ordered.
pub type Zxid = (u32, u32);

/// Configuration of one Zab ensemble.
#[derive(Clone, Debug)]
pub struct ZabConfig {
    /// Ensemble size.
    pub n: usize,
    /// Volatile (default) models the paper's in-memory ZooKeeper deployment:
    /// no transaction log at all. Durable appends and fsyncs every proposal
    /// before acknowledging it, and a restarted node replays the fsync'd
    /// prefix instead of rejoining empty.
    pub durability: DurabilityMode,
}

impl Default for ZabConfig {
    fn default() -> Self {
        ZabConfig {
            n: 3,
            durability: DurabilityMode::Volatile,
        }
    }
}

// ---- txn-log records (durable mode, `abcast::wal`) --------------------------

/// A transaction: `(zxid, (client, id))`, then its value.
const WAL_ENTRY: wal::Kind<(Zxid, (u32, u64))> = wal::Kind::new(1);
/// Written when a follower adopts a new leader's history wholesale
/// (truncate-and-copy sync): replay clears everything before it.
const WAL_RESET: wal::Kind<()> = wal::Kind::new(2);

/// Wire type of a Zab simulation (all kernel-TCP).
#[derive(Clone, Debug)]
pub enum ZkWire {
    /// Client request.
    Req(ClientReq),
    /// Client response.
    Resp(ClientResp),
    /// Leader → follower proposal.
    Propose {
        /// Transaction id.
        zxid: Zxid,
        /// Originating client.
        client: u32,
        /// Request id.
        id: u64,
        /// Payload.
        value: Bytes,
    },
    /// Follower → leader acknowledgment (one per proposal).
    Ack {
        /// Acknowledged transaction.
        zxid: Zxid,
    },
    /// Cumulative commit: everything `<= zxid` is committed.
    Commit {
        /// Watermark.
        zxid: Zxid,
    },
    /// Leader heartbeat.
    Ping {
        /// Leader's epoch.
        epoch: u32,
    },
    /// Fast-leader-election gossip.
    Vote {
        /// Proposed leader.
        candidate: u32,
        /// Candidate's last zxid (the election criterion).
        cand_zxid: Zxid,
    },
    /// New leader synchronising followers with its log.
    NewLeader {
        /// The new epoch.
        epoch: u32,
        /// Full log snapshot `(zxid, client, id, value)` (the state transfer
        /// Acuerdo avoids).
        log: Vec<(Zxid, u32, u64, Bytes)>,
        /// Commit watermark at the new leader.
        committed: Zxid,
    },
    /// Follower acknowledges the new epoch.
    AckNewLeader {
        /// Echoed epoch.
        epoch: u32,
    },
}

impl abcast::ClientPort for ZkWire {
    fn request(req: ClientReq) -> Self {
        ZkWire::Req(req)
    }
    fn response(&self) -> Option<ClientResp> {
        match self {
            ZkWire::Resp(r) => Some(*r),
            _ => None,
        }
    }
}

/// Role of a Zab node.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ZabRole {
    /// Electing.
    Looking,
    /// The epoch leader.
    Leading,
    /// Following the epoch leader.
    Following,
}

const TOK_TICK: u64 = 1;
/// The tick: a leader pings its followers, a follower checks the leader's
/// silence, a looking node rebroadcasts its vote.
const HB_INTERVAL: Duration = Duration::from_micros(500);
/// A follower suspects the leader after this much silence.
const FAIL_TIMEOUT: Duration = Duration::from_millis(3);
/// A looking node restarts an election that made no progress for this long.
const ELECTION_PATIENCE: Duration = Duration::from_millis(2);
const DELIVER_COST: Duration = Duration::from_micros(1);

/// One Zab ensemble member.
pub struct ZabNode {
    cfg: ZabConfig,
    me: usize,

    role: ZabRole,
    epoch: u32,
    leader: usize,
    /// `(zxid → (client, id, value))`, ordered.
    log: BTreeMap<Zxid, (u32, u64, Bytes)>,
    counter: u32,
    committed: Zxid,
    delivered: Zxid,

    // Leader bookkeeping.
    acks: FastMap<Zxid, usize>,
    instrument: Instrument<Zxid>,
    epoch_acks: usize,
    epoch_ready: bool,

    // Election.
    my_vote: (Zxid, u32),
    tally: FastMap<usize, (Zxid, u32)>,
    looking_since: SimTime,

    // Failure detection.
    last_leader_seen: SimTime,

    /// Online invariant monitor.
    audit: Auditor,

    /// The replicated application.
    pub app: Box<dyn App>,
}

impl ZabNode {
    /// Build member `me`. The ensemble boots with node 0 leading epoch 1
    /// when `preset_leader`, else everyone starts Looking.
    pub fn new(cfg: ZabConfig, me: usize, preset_leader: bool) -> Self {
        let n = cfg.n;
        assert!(me < n);
        let (role, epoch, leader) = if preset_leader {
            (
                if me == 0 {
                    ZabRole::Leading
                } else {
                    ZabRole::Following
                },
                1,
                0,
            )
        } else {
            (ZabRole::Looking, 0, 0)
        };
        ZabNode {
            cfg,
            me,
            role,
            epoch,
            leader,
            log: BTreeMap::new(),
            counter: 0,
            committed: (0, 0),
            delivered: (0, 0),
            acks: FastMap::default(),
            instrument: Instrument::new(DELIVER_COST, cpu::TCP_SEND),
            epoch_acks: 0,
            epoch_ready: preset_leader,
            my_vote: ((0, 0), me as u32),
            tally: FastMap::default(),
            looking_since: SimTime::ZERO,
            last_leader_seen: SimTime::ZERO,
            audit: Auditor::new(),
            app: Box::<DeliveryLog>::default(),
        }
    }

    fn quorum(&self) -> usize {
        self.cfg.n / 2 + 1
    }

    /// Current role.
    pub fn role(&self) -> ZabRole {
        self.role
    }

    /// Current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    fn last_zxid(&self) -> Zxid {
        self.log.keys().next_back().copied().unwrap_or((0, 0))
    }

    /// Lifecycle span id of a transaction. Zxids identify entries on their
    /// own, so the leader field of the packed id is fixed at 0 — every node
    /// derives the same id for the same entry in every epoch.
    fn zspan(z: Zxid) -> u64 {
        msg_span(z.0, 0, z.1)
    }

    /// The same zxid as an audit observation point.
    fn zhdr(z: Zxid) -> MsgHdr {
        MsgHdr::new(Epoch::new(z.0, 0), z.1)
    }

    fn send(&self, ctx: &mut Ctx<ZkWire>, dst: NodeId, wire: u32, msg: ZkWire) {
        ctx.use_cpu_at(SpanStage::RingWrite, cpu::TCP_SEND);
        let kind = match &msg {
            ZkWire::Req(_) | ZkWire::Propose { .. } => MsgKind::Payload,
            ZkWire::Ack { .. } => MsgKind::Ack,
            _ => MsgKind::Control,
        };
        ctx.send_kind(dst, DeliveryClass::Cpu, wire, kind, msg);
    }

    // ---- broadcast ------------------------------------------------------------

    fn on_request(&mut self, ctx: &mut Ctx<ZkWire>, from: NodeId, req: ClientReq) {
        if self.role != ZabRole::Leading || !self.epoch_ready || self.log.len() >= MAX_BACKLOG {
            return;
        }
        // ZooKeeper's request pipeline (serialization, txn processing).
        ctx.use_cpu_at(SpanStage::LeaderRecv, cpu::ZK_ENTRY);
        self.counter += 1;
        let zxid = (self.epoch, self.counter);
        self.instrument
            .admit(ctx, zxid, Self::zspan(zxid), from, req.id);
        self.log
            .insert(zxid, (from as u32, req.id, req.payload.clone()));
        // Append-before-ack: the leader's own ack counts toward the quorum,
        // so the entry must hit its txn log before it is counted.
        let head = (zxid, (from as u32, req.id));
        WAL_ENTRY.append(ctx, self.cfg.durability, &head, &req.payload);
        wal::fsync(ctx, self.cfg.durability);
        self.acks.insert(zxid, 1); // self
        let wire = req.payload.len() as u32 + 48;
        for f in 0..self.cfg.n {
            if f != self.me {
                self.send(
                    ctx,
                    f,
                    wire,
                    ZkWire::Propose {
                        zxid,
                        client: from as u32,
                        id: req.id,
                        value: req.payload.clone(),
                    },
                );
                ctx.span(Self::zspan(zxid), SpanStage::RingWrite, f as u64);
            }
        }
        self.maybe_commit(ctx, Some(self.me));
    }

    fn on_propose(
        &mut self,
        ctx: &mut Ctx<ZkWire>,
        from: NodeId,
        zxid: Zxid,
        client: u32,
        id: u64,
        value: Bytes,
    ) {
        if self.role != ZabRole::Following || zxid.0 != self.epoch || from != self.leader {
            return;
        }
        self.last_leader_seen = ctx.now();
        // Append-before-ack: the leader may count this ack toward commit.
        WAL_ENTRY.append(ctx, self.cfg.durability, &(zxid, (client, id)), &value);
        wal::fsync(ctx, self.cfg.durability);
        self.log.insert(zxid, (client, id, value));
        ctx.span(Self::zspan(zxid), SpanStage::FollowerAccept, self.me as u64);
        // Per-message acknowledgment — the cost Acuerdo's SST design avoids.
        self.send(ctx, from, 48, ZkWire::Ack { zxid });
    }

    fn on_ack(&mut self, ctx: &mut Ctx<ZkWire>, from: NodeId, zxid: Zxid) {
        if self.role != ZabRole::Leading {
            return;
        }
        if let Some(c) = self.acks.get_mut(&zxid) {
            *c += 1;
            ctx.span(Self::zspan(zxid), SpanStage::AckVisible, from as u64);
        }
        self.maybe_commit(ctx, Some(from));
    }

    /// `last_ack` names the member whose acknowledgement triggered this
    /// check — if the watermark advances, that member is the quorum
    /// straggler the covering mark records.
    fn maybe_commit(&mut self, ctx: &mut Ctx<ZkWire>, last_ack: Option<NodeId>) {
        // Advance the cumulative commit watermark over the acked prefix.
        let quorum = self.quorum();
        let mut new_committed = self.committed;
        for (&z, _) in self.log.range((
            std::ops::Bound::Excluded(self.committed),
            std::ops::Bound::Unbounded,
        )) {
            if self.acks.get(&z).copied().unwrap_or(0) >= quorum {
                new_committed = z;
            } else {
                break;
            }
        }
        if new_committed > self.committed {
            // One covering mark: the watermark commits the whole prefix.
            let straggler = last_ack.map_or(0, |n| n as u64 + 1);
            ctx.span(Self::zspan(new_committed), SpanStage::Quorum, straggler);
            self.committed = new_committed;
            for f in 0..self.cfg.n {
                if f != self.me {
                    self.send(
                        ctx,
                        f,
                        48,
                        ZkWire::Commit {
                            zxid: new_committed,
                        },
                    );
                }
            }
            self.deliver_upto(ctx, new_committed);
        }
    }

    fn on_commit(&mut self, ctx: &mut Ctx<ZkWire>, from: NodeId, zxid: Zxid) {
        if self.role != ZabRole::Following || from != self.leader {
            return;
        }
        self.last_leader_seen = ctx.now();
        self.committed = self.committed.max(zxid);
        self.deliver_upto(ctx, zxid);
    }

    fn deliver_upto(&mut self, ctx: &mut Ctx<ZkWire>, upto: Zxid) {
        // A commit at or below the delivery frontier is stale (a periodic
        // re-broadcast or an ack racing ahead of it) — and an inverted
        // range panics the BTreeMap.
        if upto <= self.delivered {
            return;
        }
        let pending: Vec<(Zxid, Bytes)> = self
            .log
            .range((
                std::ops::Bound::Excluded(self.delivered),
                std::ops::Bound::Included(upto),
            ))
            .map(|(z, (_, _, value))| (*z, value.clone()))
            .collect();
        let leads = self.role == ZabRole::Leading;
        for (z, value) in pending {
            let entry = Committed {
                key: z,
                span: Self::zspan(z),
                hdr: MsgHdr::new(Epoch::new(z.0, self.leader_of_epoch(z.0)), z.1),
                payload: &value,
            };
            self.instrument
                .deliver(ctx, &mut *self.app, entry, leads.then_some(ZkWire::Resp));
            self.delivered = z;
        }
    }

    fn leader_of_epoch(&self, e: u32) -> u32 {
        // For header synthesis only: the current epoch's leader, or 0 for
        // historical epochs (the zxid alone already identifies the entry).
        if e == self.epoch {
            self.leader as u32
        } else {
            0
        }
    }

    // ---- election ----------------------------------------------------------------

    fn go_looking(&mut self, ctx: &mut Ctx<ZkWire>) {
        self.role = ZabRole::Looking;
        self.epoch_ready = false;
        self.tally.clear();
        self.my_vote = (self.last_zxid(), self.me as u32);
        self.looking_since = ctx.now();
        self.tally.insert(self.me, self.my_vote);
        self.broadcast_vote(ctx);
    }

    fn broadcast_vote(&mut self, ctx: &mut Ctx<ZkWire>) {
        let (cand_zxid, candidate) = self.my_vote;
        for p in 0..self.cfg.n {
            if p != self.me {
                self.send(
                    ctx,
                    p,
                    64,
                    ZkWire::Vote {
                        candidate,
                        cand_zxid,
                    },
                );
            }
        }
    }

    fn on_vote(&mut self, ctx: &mut Ctx<ZkWire>, from: NodeId, candidate: u32, cand_zxid: Zxid) {
        if self.role != ZabRole::Looking {
            // A stable node reminds the lost sheep who leads.
            if self.role == ZabRole::Leading {
                self.send_new_leader(ctx, from);
            }
            return;
        }
        self.tally.insert(from, (cand_zxid, candidate));
        if (cand_zxid, candidate) > self.my_vote {
            self.my_vote = (cand_zxid, candidate);
            self.tally.insert(self.me, self.my_vote);
            self.broadcast_vote(ctx);
        }
        // Quorum of identical votes for me → lead.
        let votes_for_me = self
            .tally
            .values()
            .filter(|(_, c)| *c as usize == self.me)
            .count();
        if self.my_vote.1 as usize == self.me && votes_for_me >= self.quorum() {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Ctx<ZkWire>) {
        self.role = ZabRole::Leading;
        self.leader = self.me;
        self.epoch = self.max_known_epoch() + 1;
        self.counter = 0;
        self.epoch_acks = 1;
        self.epoch_ready = false;
        ctx.count(simnet::Counter::ElectionsWon, 1);
        self.acks.clear();
        for p in 0..self.cfg.n {
            if p != self.me {
                self.send_new_leader(ctx, p);
            }
        }
    }

    fn max_known_epoch(&self) -> u32 {
        self.epoch.max(self.last_zxid().0)
    }

    fn send_new_leader(&mut self, ctx: &mut Ctx<ZkWire>, dst: NodeId) {
        // The state transfer Acuerdo's election avoids: ship the whole log.
        let log: Vec<(Zxid, u32, u64, Bytes)> = self
            .log
            .iter()
            .map(|(z, (c, i, v))| (*z, *c, *i, v.clone()))
            .collect();
        let wire = 64 + log.iter().map(|e| 24 + e.3.len()).sum::<usize>();
        ctx.use_cpu(cpu::ZK_ENTRY);
        self.send(
            ctx,
            dst,
            wire as u32,
            ZkWire::NewLeader {
                epoch: self.epoch,
                log,
                committed: self.committed,
            },
        );
    }

    fn on_new_leader(
        &mut self,
        ctx: &mut Ctx<ZkWire>,
        from: NodeId,
        epoch: u32,
        log: Vec<(Zxid, u32, u64, Bytes)>,
        committed: Zxid,
    ) {
        if epoch <= self.epoch && !(epoch == self.epoch && from == self.leader) {
            return;
        }
        self.epoch = epoch;
        self.leader = from;
        self.role = ZabRole::Following;
        self.last_leader_seen = ctx.now();
        // Adopt the leader's history wholesale (truncate-and-copy sync).
        self.log = log.into_iter().map(|(z, c, i, v)| (z, (c, i, v))).collect();
        // Persist the adopted history before acknowledging the new epoch: a
        // reset record marks the truncation point, then the full log.
        let mode = self.cfg.durability;
        WAL_RESET.append(ctx, mode, &(), &[]);
        for (&z, (c, i, v)) in &self.log {
            WAL_ENTRY.append(ctx, mode, &(z, (*c, *i)), v);
        }
        wal::fsync(ctx, mode);
        self.send(ctx, from, 48, ZkWire::AckNewLeader { epoch });
        self.committed = self.committed.max(committed);
        let upto = self.committed;
        self.deliver_upto(ctx, upto);
    }

    fn on_ack_new_leader(&mut self, ctx: &mut Ctx<ZkWire>, epoch: u32) {
        if self.role == ZabRole::Leading && epoch == self.epoch {
            self.epoch_acks += 1;
            if self.epoch_acks >= self.quorum() && !self.epoch_ready {
                self.epoch_ready = true;
                // A quorum persisted the synced log: the whole history we
                // shipped in NewLeader is now committed (Zab's UPTODATE).
                let upto = self.last_zxid();
                if upto > self.committed {
                    self.committed = upto;
                    for f in 0..self.cfg.n {
                        if f != self.me {
                            self.send(ctx, f, 48, ZkWire::Commit { zxid: upto });
                        }
                    }
                }
                self.deliver_upto(ctx, upto);
            }
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<ZkWire>) {
        // `delivered` (not the raw watermark) is the audited commit point:
        // a follower's watermark can momentarily outrun the entries it
        // holds, but delivery never outruns the log.
        self.audit.observe(
            ctx,
            Epoch::new(self.epoch, 0),
            Self::zhdr(self.last_zxid()),
            Self::zhdr(self.delivered),
        );
        let last = self.last_zxid();
        let commit_lag = if last.0 == self.delivered.0 {
            u64::from(last.1.saturating_sub(self.delivered.1))
        } else {
            u64::from(last.1)
        };
        ctx.gauge(Gauge::CommitFrontierLag, commit_lag);
        match self.role {
            ZabRole::Leading => {
                for p in 0..self.cfg.n {
                    if p != self.me {
                        self.send(ctx, p, 48, ZkWire::Ping { epoch: self.epoch });
                    }
                }
            }
            ZabRole::Following => {
                if ctx.now().saturating_since(self.last_leader_seen) > FAIL_TIMEOUT {
                    self.go_looking(ctx);
                }
            }
            ZabRole::Looking => {
                if ctx.now().saturating_since(self.looking_since) > ELECTION_PATIENCE {
                    // Restart the round (e.g. the candidate died mid-election).
                    self.go_looking(ctx);
                } else {
                    self.broadcast_vote(ctx);
                }
            }
        }
    }
}

/// Durable recovery: the log comes back from the txn log. The epoch is
/// deliberately left at 0 so the normal rejoin handshake (any `NewLeader`
/// with a positive epoch) is accepted, while the recovered `last_zxid` gives
/// the node its true weight in fast leader election.
impl wal::Journaled for ZabNode {
    /// No checkpoint: recovery replays the whole journal.
    type Checkpoint = Infallible;

    fn restore(&mut self, never: &Infallible) {
        match *never {}
    }

    fn replay(&mut self, rec: &[u8]) {
        if let Some(((zxid, (client, id)), value)) = WAL_ENTRY.read(rec) {
            self.log
                .insert(zxid, (client, id, Bytes::copy_from_slice(value)));
        } else if WAL_RESET.read(rec).is_some() {
            self.log.clear();
        }
    }

    /// Nothing to restore: the only promise a ZAB node makes is the epoch
    /// it will lead next, and `max_known_epoch` already reads it off the
    /// recovered log tip.
    fn restore_floor(&mut self) {}
}

impl Process<ZkWire> for ZabNode {
    fn on_start(&mut self, ctx: &mut Ctx<ZkWire>) {
        let mode = self.cfg.durability;
        wal::recover(self, ctx, mode);
        self.last_leader_seen = ctx.now();
        if self.role == ZabRole::Looking {
            self.go_looking(ctx);
        }
        ctx.set_timer(HB_INTERVAL, TOK_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<ZkWire>, from: NodeId, msg: ZkWire) {
        ctx.use_cpu(cpu::TCP_MSG);
        match msg {
            ZkWire::Req(req) => self.on_request(ctx, from, req),
            ZkWire::Propose {
                zxid,
                client,
                id,
                value,
            } => self.on_propose(ctx, from, zxid, client, id, value),
            ZkWire::Ack { zxid } => self.on_ack(ctx, from, zxid),
            ZkWire::Commit { zxid } => self.on_commit(ctx, from, zxid),
            ZkWire::Ping { epoch } => {
                if self.role == ZabRole::Following && epoch == self.epoch && from == self.leader {
                    self.last_leader_seen = ctx.now();
                }
            }
            ZkWire::Vote {
                candidate,
                cand_zxid,
            } => self.on_vote(ctx, from, candidate, cand_zxid),
            ZkWire::NewLeader {
                epoch,
                log,
                committed,
            } => self.on_new_leader(ctx, from, epoch, log, committed),
            ZkWire::AckNewLeader { epoch } => self.on_ack_new_leader(ctx, epoch),
            ZkWire::Resp(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<ZkWire>, _token: u64) {
        self.tick(ctx);
        ctx.set_timer(HB_INTERVAL, TOK_TICK);
    }
}

/// Build an ensemble occupying ids `0..n`. `preset_leader` boots node 0 as
/// the epoch-1 leader (benchmark setup); otherwise a startup election runs.
pub fn build_cluster(sim: &mut Sim<ZkWire>, cfg: &ZabConfig, preset_leader: bool) -> Vec<NodeId> {
    let mut ids = Vec::with_capacity(cfg.n);
    for me in 0..cfg.n {
        let id = sim.add_node(Box::new(ZabNode::new(cfg.clone(), me, preset_leader)));
        assert_eq!(id, me);
        // Durable mode writes the txn log to NVMe-class flash; volatile mode
        // never touches the device, matching the in-memory deployment.
        sim.set_log_device(id, LogDevParams::nvme());
        ids.push(id);
    }
    ids
}

impl Replica for ZabNode {
    type Wire = ZkWire;
    type Config = ZabConfig;

    fn net() -> NetParams {
        NetParams::tcp()
    }

    fn build_cluster(sim: &mut Sim<ZkWire>, cfg: &ZabConfig) -> Vec<NodeId> {
        build_cluster(sim, cfg, true)
    }

    fn rejoiner(cfg: &ZabConfig, id: NodeId) -> Option<Self> {
        Some(ZabNode::new(cfg.clone(), id, false))
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
        let cfg = ZabConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<ZabNode>(23, &cfg, 8, 10, Duration::from_millis(5));
        sim.run_until(SimTime::from_millis(60));
        check_cluster::<ZabNode>(&sim, &ids).unwrap();
        let r = sim.node::<WindowClient<ZkWire>>(client).result();
        assert!(r.completed > 100, "completed {}", r.completed);
    }

    #[test]
    fn latency_reflects_kernel_stack_and_pipeline() {
        let cfg = ZabConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<ZabNode>(24, &cfg, 1, 10, Duration::from_millis(5));
        sim.run_until(SimTime::from_millis(60));
        check_cluster::<ZabNode>(&sim, &ids).unwrap();
        let lat = sim
            .node::<WindowClient<ZkWire>>(client)
            .result()
            .latency
            .mean_us();
        println!("zookeeper window-1 latency: {lat:.1} us");
        // Figure 8a: ZooKeeper sits in the 10^2..10^3 us band.
        assert!(lat > 120.0 && lat < 1_000.0, "latency {lat}");
    }

    #[test]
    fn startup_election_converges() {
        let cfg = ZabConfig::default();
        let mut sim: Sim<ZkWire> = Sim::new(25, NetParams::tcp());
        let ids = build_cluster(&mut sim, &cfg, false);
        sim.run_until(SimTime::from_millis(50));
        let leaders: Vec<_> = ids
            .iter()
            .filter(|&&id| sim.node::<ZabNode>(id).role() == ZabRole::Leading)
            .collect();
        assert_eq!(leaders.len(), 1, "expected one leader: {leaders:?}");
        check_cluster::<ZabNode>(&sim, &ids).unwrap();
    }

    /// The bytes are pinned (record lengths set the device's
    /// `append_per_kib` charges). A reset drops everything replayed before
    /// it; the epoch stays 0 and the recovered tip names the epoch after it.
    #[test]
    fn wal_replay_resets_at_a_resync_and_leaves_the_epoch_to_the_tip() {
        let entry = |z: Zxid| WAL_ENTRY.encode(&(z, (3, 4)), b"v");
        let golden = [
            1, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, b'v',
        ];
        assert_eq!(entry((1, 2)), golden);
        let reset = WAL_RESET.encode(&(), &[]);
        assert_eq!(reset, [2]);
        let mut node = ZabNode::new(ZabConfig::default(), 1, false);
        let records = [
            entry((1, 1)),
            entry((1, 2)),
            reset,
            entry((1, 1)),
            entry((2, 1)),
        ];
        assert_eq!(wal::replay(&mut node, None, &records), 5);
        assert_eq!(
            node.log.keys().copied().collect::<Vec<_>>(),
            [(1, 1), (2, 1)]
        );
        assert_eq!((node.epoch, node.max_known_epoch()), (0, 2));
    }

    #[test]
    fn leader_crash_elects_replacement_and_preserves_commits() {
        let cfg = ZabConfig::default();
        let (mut sim, ids, client) =
            cluster_with_client::<ZabNode>(26, &cfg, 8, 10, Duration::ZERO);
        sim.node_mut::<WindowClient<ZkWire>>(client).retransmit = Some(Duration::from_millis(20));
        sim.run_until(SimTime::from_millis(20));
        let committed_before = sim.counter(1, simnet::Counter::Commits);
        assert!(committed_before > 0);
        sim.crash(0);
        sim.run_until(SimTime::from_millis(60));
        let new_leader = ids
            .iter()
            .find(|&&id| !sim.is_crashed(id) && sim.node::<ZabNode>(id).role() == ZabRole::Leading)
            .copied()
            .expect("new leader");
        sim.node_mut::<WindowClient<ZkWire>>(client).targets = vec![new_leader];
        sim.run_until(SimTime::from_millis(120));
        let after = sim.counter(new_leader, simnet::Counter::Commits);
        assert!(after > committed_before, "no post-failover progress");
        check_cluster::<ZabNode>(&sim, &ids).unwrap();
    }
}
