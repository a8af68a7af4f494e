//! The benchmark's own load generator.
//!
//! It keeps the raw `(due, done)` instant of every request, so latencies are
//! exact order statistics instead of histogram bucket edges, and it can pace
//! requests two ways:
//!
//! * **closed loop** — at most `window` requests outstanding, each reply
//!   triggers the next request (callers that wait for a reply);
//! * **open loop** — one request per `interval` on a fixed schedule whatever
//!   the replies do (independent users). A request is timed from the instant
//!   it was *due*, so a stall is charged to every request due during it, not
//!   just to the one that happened to be in flight. The open loop also finds
//!   the leader the way a client would: a request unanswered for `rto` is
//!   re-sent to every replica, and new requests aim at whichever replica
//!   answered last.

use abcast::client::REQ_OVERHEAD;
use abcast::{ClientPort, ClientReq};
use bytes::Bytes;
use simnet::{
    client_span, Counter, Ctx, DeliveryClass, Gauge, MsgKind, NodeId, Process, SimTime, SpanStage,
};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::time::Duration;

/// CPU the client spends preparing one request (as `abcast::WindowClient`).
const CLIENT_SEND_CPU: Duration = Duration::from_nanos(50);

const TOK_TICK: u64 = 1;

/// How requests are paced.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// At most `window` requests outstanding.
    Closed { window: usize },
    /// One request per `interval`; unanswered requests are re-sent to every
    /// replica each `rto`.
    Open { interval: Duration, rto: Duration },
}

/// Request bodies, by request id. Must be a pure function of the id so a
/// retransmission carries identical bytes.
pub type PayloadFn = Box<dyn FnMut(u64) -> Bytes>;

/// One measured request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// When the request was issued (closed loop) or due (open loop).
    pub due: SimTime,
    /// When the commit reply arrived, if it did.
    pub done: Option<SimTime>,
}

impl Sample {
    /// Due-to-reply latency in nanoseconds.
    pub fn latency_ns(&self) -> Option<u64> {
        self.done
            .map(|d| d.saturating_since(self.due).as_nanos() as u64)
    }
}

/// What the window `[open, close)` saw of a run's requests.
pub struct Measured {
    /// Latency of every request due in the window and answered by the end of
    /// the run, ascending, in nanoseconds.
    pub latencies: Vec<u64>,
    /// Requests due in the window.
    pub attempted: u64,
    /// Commit replies that arrived in the window.
    pub commits: u64,
}

impl Measured {
    pub fn of(samples: &[Sample], open: SimTime, close: SimTime) -> Measured {
        let within = |t: SimTime| t >= open && t < close;
        let due: Vec<&Sample> = samples.iter().filter(|s| within(s.due)).collect();
        let mut latencies: Vec<u64> = due.iter().filter_map(|s| s.latency_ns()).collect();
        latencies.sort_unstable();
        Measured {
            latencies,
            attempted: due.len() as u64,
            commits: samples
                .iter()
                .filter(|s| s.done.is_some_and(within))
                .count() as u64,
        }
    }
}

struct Outstanding {
    last_sent: SimTime,
    body: Bytes,
}

/// Post request `id` to `dst`.
fn post<M: ClientPort>(ctx: &mut Ctx<M>, dst: NodeId, id: u64, body: &Bytes, kind: MsgKind) {
    ctx.send_kind(
        dst,
        DeliveryClass::Cpu,
        body.len() as u32 + REQ_OVERHEAD,
        kind,
        M::request(ClientReq {
            id,
            payload: body.clone(),
        }),
    );
}

/// The load-generating client node.
pub struct LoadGen<M: ClientPort> {
    pacing: Pacing,
    payload: PayloadFn,
    /// No request is issued or due at or after this instant.
    stop_at: SimTime,
    /// Where new requests go (re-aimed at the last responder in open loop).
    target: NodeId,
    /// Open loop only: where retransmissions go.
    replicas: Vec<NodeId>,
    /// Every request so far, indexed by request id.
    samples: Vec<Sample>,
    /// Open loop only: unanswered requests, for retransmission.
    outstanding: BTreeMap<u64, Outstanding>,
    /// Closed loop only: requests in flight.
    in_flight: usize,
    /// Open loop only: when the next request is due.
    next_due: SimTime,
    /// Largest `send instant - due instant` seen (open loop).
    late_max: Duration,
    _m: PhantomData<M>,
}

impl<M: ClientPort> LoadGen<M> {
    /// A generator aimed at `target`; in open loop it retransmits to all of
    /// `replicas`.
    pub fn new(
        pacing: Pacing,
        target: NodeId,
        replicas: Vec<NodeId>,
        stop_at: SimTime,
        payload: PayloadFn,
    ) -> Self {
        LoadGen {
            pacing,
            payload,
            stop_at,
            target,
            replicas,
            samples: Vec::new(),
            outstanding: BTreeMap::new(),
            in_flight: 0,
            next_due: SimTime::ZERO,
            late_max: Duration::ZERO,
            _m: PhantomData,
        }
    }

    /// Every request issued so far, in id order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// How late the open-loop schedule ran at worst.
    pub fn late_max(&self) -> Duration {
        self.late_max
    }

    /// Issue the next request, timed from `due`.
    fn issue(&mut self, ctx: &mut Ctx<M>, due: SimTime) {
        let id = self.samples.len() as u64;
        let body = (self.payload)(id);
        self.samples.push(Sample { due, done: None });
        ctx.use_cpu_at(SpanStage::Submit, CLIENT_SEND_CPU);
        ctx.span(client_span(ctx.id(), id), SpanStage::Submit, 0);
        post(ctx, self.target, id, &body, MsgKind::Payload);
        match self.pacing {
            Pacing::Closed { .. } => self.in_flight += 1,
            Pacing::Open { .. } => {
                self.outstanding.insert(
                    id,
                    Outstanding {
                        last_sent: ctx.now(),
                        body,
                    },
                );
                ctx.gauge(Gauge::RetransmitWindow, self.outstanding.len() as u64);
            }
        }
    }

    fn fill_window(&mut self, ctx: &mut Ctx<M>) {
        let Pacing::Closed { window } = self.pacing else {
            return;
        };
        while self.in_flight < window && ctx.now_cpu() < self.stop_at {
            let due = ctx.now_cpu();
            self.issue(ctx, due);
        }
    }

    /// Open-loop tick: issue everything that has come due, re-send what has
    /// gone unanswered for `rto`, and sleep until the next due instant.
    fn tick(&mut self, ctx: &mut Ctx<M>) {
        let Pacing::Open { interval, rto } = self.pacing else {
            return;
        };
        let now = ctx.now();
        while self.next_due <= now && self.next_due < self.stop_at {
            let due = self.next_due;
            self.late_max = self.late_max.max(ctx.now_cpu().saturating_since(due));
            self.issue(ctx, due);
            self.next_due += interval;
        }
        for (&id, o) in self.outstanding.iter_mut() {
            if now.saturating_since(o.last_sent) < rto {
                continue;
            }
            o.last_sent = now;
            ctx.count(Counter::Retransmits, 1);
            ctx.use_cpu_at(SpanStage::Submit, CLIENT_SEND_CPU);
            // A duplicate Submit mark is how the forensics collector counts
            // a retransmit round.
            ctx.span(client_span(ctx.id(), id), SpanStage::Submit, 1);
            for &dst in &self.replicas {
                post(ctx, dst, id, &o.body, MsgKind::Retransmit);
            }
        }
        if self.next_due < self.stop_at {
            ctx.set_timer(self.next_due.saturating_since(ctx.now_cpu()), TOK_TICK);
        } else if !self.outstanding.is_empty() {
            // Past the schedule: keep ticking only to retransmit.
            ctx.set_timer(interval, TOK_TICK);
        }
    }
}

impl<M: ClientPort> Process<M> for LoadGen<M> {
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        match self.pacing {
            Pacing::Closed { .. } => self.fill_window(ctx),
            Pacing::Open { interval, .. } => {
                self.next_due = ctx.now() + interval;
                ctx.set_timer(interval, TOK_TICK);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<M>, from: NodeId, msg: M) {
        let Some(resp) = msg.response() else { return };
        let Some(sample) = self.samples.get_mut(resp.id as usize) else {
            return;
        };
        if sample.done.is_some() {
            return; // second reply to a retransmitted request
        }
        sample.done = Some(ctx.now());
        ctx.span(client_span(ctx.id(), resp.id), SpanStage::ClientResp, 0);
        match self.pacing {
            Pacing::Closed { .. } => {
                self.in_flight -= 1;
                self.fill_window(ctx);
            }
            Pacing::Open { .. } => {
                self.outstanding.remove(&resp.id);
                ctx.gauge(Gauge::RetransmitWindow, self.outstanding.len() as u64);
                self.target = from;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<M>, token: u64) {
        if token == TOK_TICK {
            self.tick(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo::{EchoServer, EchoWire};
    use simnet::{NetParams, Sim};

    fn filler() -> PayloadFn {
        Box::new(|id| abcast::workload::payload(id, 10))
    }

    const STALL_AT: SimTime = SimTime::from_millis(2);
    const STALL: Duration = Duration::from_millis(1);
    const SLOW: u64 = 100_000; // ns: far above the ~6 µs unloaded round trip

    /// Requests slower than [`SLOW`] when the server stalls for [`STALL`].
    fn slow_requests(pacing: Pacing) -> (usize, u64, usize) {
        let mut sim: Sim<EchoWire> = Sim::new(5, NetParams::rdma());
        let server = sim.add_node(Box::<EchoServer>::default());
        let client = sim.add_node(Box::new(LoadGen::<EchoWire>::new(
            pacing,
            server,
            vec![server],
            SimTime::from_millis(5),
            filler(),
        )));
        sim.pause_at(server, STALL_AT, STALL);
        sim.run_until(SimTime::from_millis(6));
        let lg = sim.node::<LoadGen<EchoWire>>(client);
        let lat: Vec<u64> = lg
            .samples()
            .iter()
            .map(|s| s.latency_ns().expect("every request answered"))
            .collect();
        let slow = lat.iter().filter(|&&l| l > SLOW).count();
        (slow, *lat.iter().max().unwrap(), lat.len())
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let interval = Duration::from_micros(10);
        let (slow, worst, n) = slow_requests(Pacing::Open {
            interval,
            rto: Duration::from_millis(50),
        });
        // 1 ms stall at one request per 10 µs: each of the 100 requests due
        // during it waits for its end and then for the backlog ahead of it
        // (1 µs apiece), so all of them — and the first one due after it —
        // take more than 100 µs; the first of them waits the whole stall.
        assert!((98..=103).contains(&slow), "{slow} slow requests of {n}");
        assert!(
            worst > 950_000 && worst < 1_100_000,
            "worst latency {worst} ns"
        );
        assert!((495..=500).contains(&n), "open loop issued {n} requests");

        // The same stall under a closed loop of one: the generator stops
        // sending, so exactly one request sees it.
        let (slow, _, _) = slow_requests(Pacing::Closed { window: 1 });
        assert_eq!(slow, 1);
    }

    #[test]
    fn open_loop_keeps_its_schedule_and_reports_lateness() {
        let mut sim: Sim<EchoWire> = Sim::new(5, NetParams::rdma());
        let server = sim.add_node(Box::<EchoServer>::default());
        let client = sim.add_node(Box::new(LoadGen::<EchoWire>::new(
            Pacing::Open {
                interval: Duration::from_micros(25),
                rto: Duration::from_micros(500),
            },
            server,
            vec![server],
            SimTime::from_millis(1),
            filler(),
        )));
        sim.run_until(SimTime::from_millis(2));
        let lg = sim.node::<LoadGen<EchoWire>>(client);
        // Due at 25, 50, …, 975 µs: strictly before the 1 ms stop.
        assert_eq!(lg.samples().len(), 39);
        for (k, s) in lg.samples().iter().enumerate() {
            assert_eq!(s.due, SimTime::from_micros(25 * (k as u64 + 1)));
            assert!(s.done.is_some());
        }
        assert!(lg.late_max() < Duration::from_micros(1));
        assert_eq!(sim.metrics().total(Counter::Retransmits), 0);
    }

    #[test]
    fn open_loop_retransmits_to_all_and_re_aims_at_the_responder() {
        let mut sim: Sim<EchoWire> = Sim::new(5, NetParams::rdma());
        let dead = sim.add_node(Box::<EchoServer>::default());
        let live = sim.add_node(Box::<EchoServer>::default());
        let client = sim.add_node(Box::new(LoadGen::<EchoWire>::new(
            Pacing::Open {
                interval: Duration::from_micros(25),
                rto: Duration::from_micros(500),
            },
            dead,
            vec![dead, live],
            SimTime::from_millis(2),
            filler(),
        )));
        sim.crash(dead);
        sim.run_until(SimTime::from_millis(4));
        let lg = sim.node::<LoadGen<EchoWire>>(client);
        assert!(lg.samples().iter().all(|s| s.done.is_some()));
        // The first request waits one rto for the broadcast; once the live
        // server has answered, later requests go straight to it.
        let first = lg.samples()[0].latency_ns().unwrap();
        assert!(first > 500_000 && first < 600_000, "first {first} ns");
        let last = lg.samples().last().unwrap().latency_ns().unwrap();
        assert!(last < 20_000, "last {last} ns");
        let retx = sim.metrics().total(Counter::Retransmits);
        assert!((15..=25).contains(&retx), "{retx} retransmits");
        assert_eq!(lg.target, live);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_until_the_stop() {
        let mut sim: Sim<EchoWire> = Sim::new(5, NetParams::rdma());
        let server = sim.add_node(Box::<EchoServer>::default());
        let client = sim.add_node(Box::new(LoadGen::<EchoWire>::new(
            Pacing::Closed { window: 8 },
            server,
            vec![server],
            SimTime::from_millis(1),
            filler(),
        )));
        sim.run_until(SimTime::from_millis(2));
        let lg = sim.node::<LoadGen<EchoWire>>(client);
        assert!(lg.samples().len() > 500, "{} requests", lg.samples().len());
        assert!(lg.samples().iter().all(|s| s.done.is_some()));
        assert!(lg.samples().iter().all(|s| s.due < SimTime::from_millis(1)));
        assert_eq!(lg.in_flight, 0);
    }
}
