//! Load-generating clients.
//!
//! The §4.1 broadcast experiments use a **closed-loop window client**: at
//! most `window` messages are outstanding and unacknowledged; each response
//! immediately triggers the next request. Sweeping the window by powers of
//! two traces out the latency/throughput curve of Figure 8.
//!
//! The §4.2 election experiment uses an **open-loop client** that keeps the
//! leader proposing small messages regardless of acknowledgments.

use crate::stats::{LatencyHist, RunResult};
use crate::workload::payload;
use bytes::Bytes;
use simnet::{
    client_span, Counter, Ctx, DeliveryClass, Event, Gauge, MsgKind, NodeId, Process, SimTime,
    SpanStage,
};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::time::Duration;

/// Wire overhead of a client request beyond its payload.
pub const REQ_OVERHEAD: u32 = 40;
/// Wire size of a client response.
pub const RESP_WIRE: u32 = 40;
/// CPU the client spends preparing one request.
const CLIENT_SEND_CPU: Duration = Duration::from_nanos(50);

const TOK_WARMUP: u64 = 1;
const TOK_RETRY: u64 = 2;

/// Consecutive no-progress retry rounds before a retransmitting client stops
/// trusting `targets` and broadcasts to every replica it knows of.
const FALLBACK_RETRY_ROUNDS: u32 = 3;

/// A client request: a unique id plus an opaque payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientReq {
    /// Unique per client.
    pub id: u64,
    /// Message contents to broadcast.
    pub payload: Bytes,
}

/// Acknowledgment that the request's message committed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClientResp {
    /// Echoes [`ClientReq::id`].
    pub id: u64,
}

/// Implemented by each protocol's wire enum so the generic clients can talk
/// to it.
pub trait ClientPort: 'static + Sized {
    /// Wrap a request for this protocol.
    fn request(req: ClientReq) -> Self;
    /// Extract a response, if this message is one.
    fn response(&self) -> Option<ClientResp>;
}

/// Closed-loop window client (Figure 8 load generator).
pub struct WindowClient<M: ClientPort> {
    /// Nodes requests go to, round-robin (a single leader for most systems;
    /// all senders for Derecho's all-sender mode). Harnesses may repoint
    /// this after a failover.
    pub targets: Vec<NodeId>,
    /// Maximum outstanding requests.
    pub window: usize,
    /// Payload bytes per message (10 or 1000 in the paper).
    pub payload_size: usize,
    /// Samples before this much virtual time are discarded.
    pub warmup: Duration,
    /// Resend outstanding requests older than this (used only in failover
    /// runs; `None` for the stable-network figures).
    pub retransmit: Option<Duration>,
    /// Every replica of the cluster. When set, a client whose retransmits
    /// make no progress for [`FALLBACK_RETRY_ROUNDS`] consecutive rounds
    /// broadcasts its stale requests to all of them instead of re-aiming at
    /// `targets` forever — `targets` may point at a crashed or partitioned
    /// leader the client has no other way to route around (the retransmit
    /// livelock). Empty (the default) disables the fallback.
    pub replicas: Vec<NodeId>,
    /// Custom payload generator (e.g. YCSB key-value operations); defaults
    /// to the deterministic filler of [`crate::workload::payload`]. Must be
    /// deterministic per id so retransmits carry identical bytes.
    pub payload_fn: Option<Box<dyn FnMut(u64) -> Bytes + Send>>,

    next_id: u64,
    outstanding: HashMap<u64, (SimTime, Bytes)>,
    /// Consecutive retry rounds that resent something without any
    /// completion arriving in between.
    stuck_rounds: u32,
    completed_at_last_retry: u64,
    measuring: bool,
    window_start: SimTime,
    completed: u64,
    payload_bytes: u64,
    last_completion: SimTime,
    latency: LatencyHist,
    /// All completions, including during warmup.
    pub total_completed: u64,
    _m: PhantomData<M>,
}

impl<M: ClientPort> WindowClient<M> {
    /// Create a client with the given window aimed at `target`.
    pub fn new(target: NodeId, window: usize, payload_size: usize, warmup: Duration) -> Self {
        WindowClient {
            targets: vec![target],
            window,
            payload_size,
            warmup,
            retransmit: None,
            replicas: Vec::new(),
            payload_fn: None,
            next_id: 0,
            outstanding: HashMap::new(),
            stuck_rounds: 0,
            completed_at_last_retry: 0,
            measuring: false,
            window_start: SimTime::ZERO,
            completed: 0,
            payload_bytes: 0,
            last_completion: SimTime::ZERO,
            latency: LatencyHist::new(),
            total_completed: 0,
            _m: PhantomData,
        }
    }

    /// Measurement summary for the post-warmup window.
    pub fn result(&self) -> RunResult {
        RunResult {
            completed: self.completed,
            payload_bytes: self.payload_bytes,
            window_start: self.window_start,
            last_completion: self.last_completion,
            latency: self.latency.clone(),
        }
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    fn send_one(&mut self, ctx: &mut Ctx<M>) {
        let id = self.next_id;
        self.next_id += 1;
        let body = match &mut self.payload_fn {
            Some(f) => f(id),
            None => payload(id, self.payload_size),
        };
        self.outstanding.insert(id, (ctx.now_cpu(), body.clone()));
        ctx.gauge(Gauge::RetransmitWindow, self.outstanding.len() as u64);
        let dst = self.targets[(id % self.targets.len() as u64) as usize];
        ctx.use_cpu_at(SpanStage::Submit, CLIENT_SEND_CPU);
        ctx.span(client_span(ctx.id(), id), SpanStage::Submit, 0);
        ctx.send_kind(
            dst,
            DeliveryClass::Cpu,
            body.len() as u32 + REQ_OVERHEAD,
            MsgKind::Payload,
            M::request(ClientReq { id, payload: body }),
        );
    }
}

impl<M: ClientPort> Process<M> for WindowClient<M> {
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        ctx.set_timer(self.warmup, TOK_WARMUP);
        if let Some(rto) = self.retransmit {
            ctx.set_timer(rto, TOK_RETRY);
        }
        for _ in 0..self.window {
            self.send_one(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<M>, _from: NodeId, msg: M) {
        let Some(resp) = msg.response() else { return };
        let Some((sent_at, body)) = self.outstanding.remove(&resp.id) else {
            return; // duplicate response to a retransmitted request
        };
        ctx.gauge(Gauge::RetransmitWindow, self.outstanding.len() as u64);
        ctx.span(client_span(ctx.id(), resp.id), SpanStage::ClientResp, 0);
        self.total_completed += 1;
        if self.measuring {
            self.completed += 1;
            self.payload_bytes += body.len() as u64;
            self.last_completion = ctx.now();
            self.latency.record(ctx.now().saturating_since(sent_at));
        }
        while self.outstanding.len() < self.window {
            self.send_one(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<M>, token: u64) {
        match token {
            TOK_WARMUP => {
                self.measuring = true;
                self.window_start = ctx.now();
                self.last_completion = ctx.now();
            }
            TOK_RETRY => {
                let rto = self.retransmit.expect("retry timer without rto");
                let now = ctx.now();
                let mut stale: Vec<(u64, Bytes)> = self
                    .outstanding
                    .iter()
                    .filter(|(_, (t, _))| now.saturating_since(*t) >= rto)
                    .map(|(id, (_, b))| (*id, b.clone()))
                    .collect();
                // HashMap iteration order varies between instances; the send
                // order decides how a recovering leader orders these, so it
                // must not leak into the delivery history.
                stale.sort_unstable_by_key(|(id, _)| *id);
                if stale.is_empty() || self.total_completed != self.completed_at_last_retry {
                    self.stuck_rounds = 0;
                } else {
                    self.stuck_rounds += 1;
                }
                self.completed_at_last_retry = self.total_completed;
                // After enough fruitless rounds, stop trusting `targets`
                // (it may name a dead or partitioned leader) and shotgun
                // the stale requests at every replica; whichever one leads
                // will ingest them, the rest drop them.
                let broadcast =
                    self.stuck_rounds >= FALLBACK_RETRY_ROUNDS && !self.replicas.is_empty();
                for (id, body) in stale {
                    ctx.count(Counter::Retransmits, 1);
                    ctx.trace(Event::new("retransmit").a(id).b(u64::from(broadcast)));
                    ctx.use_cpu_at(SpanStage::Submit, CLIENT_SEND_CPU);
                    // A duplicate Submit mark: the forensics collector counts
                    // it as a retransmit round (latency keeps the first
                    // submit as its origin, matching `sent_at` above).
                    ctx.span(client_span(ctx.id(), id), SpanStage::Submit, 1);
                    let dsts: Vec<NodeId> = if broadcast {
                        self.replicas.clone()
                    } else {
                        vec![self.targets[(id % self.targets.len() as u64) as usize]]
                    };
                    for dst in dsts {
                        ctx.send_kind(
                            dst,
                            DeliveryClass::Cpu,
                            body.len() as u32 + REQ_OVERHEAD,
                            MsgKind::Retransmit,
                            M::request(ClientReq {
                                id,
                                payload: body.clone(),
                            }),
                        );
                    }
                }
                ctx.set_timer(rto, TOK_RETRY);
            }
            _ => {}
        }
    }
}

/// Open-loop client: fires requests at a fixed interval, ignoring responses
/// (§4.2: "sets the leader to propose 10-byte messages in an open loop").
pub struct OpenLoopClient<M: ClientPort> {
    /// Current destination; harnesses repoint this after elections.
    pub target: NodeId,
    /// Inter-request interval.
    pub interval: Duration,
    /// Payload bytes per request.
    pub payload_size: usize,
    /// Requests sent.
    pub sent: u64,
    /// Responses seen (not used for pacing).
    pub responses: u64,
    next_id: u64,
    _m: PhantomData<M>,
}

impl<M: ClientPort> OpenLoopClient<M> {
    /// Create an open-loop client.
    pub fn new(target: NodeId, interval: Duration, payload_size: usize) -> Self {
        OpenLoopClient {
            target,
            interval,
            payload_size,
            sent: 0,
            responses: 0,
            next_id: 0,
            _m: PhantomData,
        }
    }
}

impl<M: ClientPort> Process<M> for OpenLoopClient<M> {
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        ctx.set_timer(self.interval, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<M>, _from: NodeId, msg: M) {
        if let Some(resp) = msg.response() {
            ctx.span(client_span(ctx.id(), resp.id), SpanStage::ClientResp, 0);
            self.responses += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<M>, _token: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.sent += 1;
        let body = payload(id, self.payload_size);
        ctx.use_cpu_at(SpanStage::Submit, CLIENT_SEND_CPU);
        ctx.span(client_span(ctx.id(), id), SpanStage::Submit, 0);
        ctx.send_kind(
            self.target,
            DeliveryClass::Cpu,
            body.len() as u32 + REQ_OVERHEAD,
            MsgKind::Payload,
            M::request(ClientReq { id, payload: body }),
        );
        ctx.set_timer(self.interval, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetParams, Sim};

    /// A trivially-correct "protocol": one echo server that immediately
    /// acknowledges every request.
    #[derive(Clone, Debug)]
    enum EchoWire {
        Req(ClientReq),
        Resp(ClientResp),
    }
    impl ClientPort for EchoWire {
        fn request(req: ClientReq) -> Self {
            EchoWire::Req(req)
        }
        fn response(&self) -> Option<ClientResp> {
            match self {
                EchoWire::Resp(r) => Some(*r),
                _ => None,
            }
        }
    }
    struct EchoServer {
        served: u64,
        drop_until: u64,
    }
    impl Process<EchoWire> for EchoServer {
        fn on_message(&mut self, ctx: &mut Ctx<EchoWire>, from: NodeId, msg: EchoWire) {
            if let EchoWire::Req(req) = msg {
                ctx.use_cpu(Duration::from_micros(1));
                self.served += 1;
                if self.served <= self.drop_until {
                    return; // simulate loss
                }
                ctx.send(
                    from,
                    DeliveryClass::Cpu,
                    RESP_WIRE,
                    EchoWire::Resp(ClientResp { id: req.id }),
                );
            }
        }
    }

    #[test]
    fn window_client_keeps_window_full() {
        let mut sim: Sim<EchoWire> = Sim::new(2, NetParams::rdma());
        let server = sim.add_node(Box::new(EchoServer {
            served: 0,
            drop_until: 0,
        }));
        let client = sim.add_node(Box::new(WindowClient::<EchoWire>::new(
            server,
            8,
            10,
            Duration::from_millis(1),
        )));
        sim.run_until(SimTime::from_millis(20));
        let c = sim.node::<WindowClient<EchoWire>>(client);
        let r = c.result();
        assert!(r.completed > 100, "completed {}", r.completed);
        assert!(c.in_flight() <= 8);
        // Per-message service time 1us; 8-deep window: latency ~8us+net.
        assert!(r.latency.mean_us() > 5.0 && r.latency.mean_us() < 100.0);
        assert!(r.msgs_per_sec() > 100_000.0);
    }

    #[test]
    fn warmup_discards_early_samples() {
        let mut sim: Sim<EchoWire> = Sim::new(2, NetParams::rdma());
        let server = sim.add_node(Box::new(EchoServer {
            served: 0,
            drop_until: 0,
        }));
        let client = sim.add_node(Box::new(WindowClient::<EchoWire>::new(
            server,
            1,
            10,
            Duration::from_millis(5),
        )));
        sim.run_until(SimTime::from_millis(6));
        let c = sim.node::<WindowClient<EchoWire>>(client);
        assert!(c.total_completed > c.result().completed);
        assert!(c.result().window_start >= SimTime::from_millis(5));
    }

    #[test]
    fn retransmit_recovers_lost_requests() {
        let mut sim: Sim<EchoWire> = Sim::new(2, NetParams::rdma());
        // Server drops the first 3 requests entirely.
        let server = sim.add_node(Box::new(EchoServer {
            served: 0,
            drop_until: 3,
        }));
        let mut wc = WindowClient::<EchoWire>::new(server, 2, 10, Duration::ZERO);
        wc.retransmit = Some(Duration::from_millis(1));
        let client = sim.add_node(Box::new(wc));
        sim.run_until(SimTime::from_millis(50));
        let c = sim.node::<WindowClient<EchoWire>>(client);
        assert!(c.total_completed > 10, "got {}", c.total_completed);
        assert_eq!(c.in_flight(), 2); // window refilled and flowing again
    }

    #[test]
    fn broadcast_fallback_routes_around_dead_target() {
        let mut sim: Sim<EchoWire> = Sim::new(3, NetParams::rdma());
        let dead = sim.add_node(Box::new(EchoServer {
            served: 0,
            drop_until: 0,
        }));
        let live = sim.add_node(Box::new(EchoServer {
            served: 0,
            drop_until: 0,
        }));
        // Aimed at a server that dies immediately; only the fallback set
        // knows about the live one.
        let mut wc = WindowClient::<EchoWire>::new(dead, 2, 10, Duration::ZERO);
        wc.retransmit = Some(Duration::from_millis(1));
        wc.replicas = vec![dead, live];
        let client = sim.add_node(Box::new(wc));
        sim.crash(dead);
        sim.run_until(SimTime::from_millis(50));
        let c = sim.node::<WindowClient<EchoWire>>(client);
        // Rounds 1..FALLBACK_RETRY_ROUNDS go to the dead target; afterwards
        // the broadcast reaches the live server and the window flows again.
        assert!(c.total_completed > 10, "got {}", c.total_completed);
        assert!(sim.node::<EchoServer>(live).served > 0);
    }

    #[test]
    fn open_loop_paces_by_interval() {
        let mut sim: Sim<EchoWire> = Sim::new(2, NetParams::rdma());
        let server = sim.add_node(Box::new(EchoServer {
            served: 0,
            drop_until: 0,
        }));
        let client = sim.add_node(Box::new(OpenLoopClient::<EchoWire>::new(
            server,
            Duration::from_micros(100),
            10,
        )));
        sim.run_until(SimTime::from_millis(10));
        let c = sim.node::<OpenLoopClient<EchoWire>>(client);
        // 10ms / 100us = ~100 requests.
        assert!((95..=101).contains(&c.sent), "sent {}", c.sent);
        assert!(c.responses > 90);
    }
}
