//! One lifecycle for every protocol's entries: admit, commit, deliver,
//! answer.
//!
//! Each of the seven protocol nodes owns one [`Instrument`]. The node that
//! gives a client request its place in the order calls
//! [`Instrument::admit`]; every replica calls [`Instrument::deliver`] as an
//! entry commits. So every system's `leader_recv`, `commit` and `deliver`
//! marks, its [`Counter::Commits`] and its client replies follow one rule,
//! and the stage anatomy, forensics and what-if layers compare the systems
//! on it (DESIGN §8).
//!
//! The order inside `deliver` is the lifecycle's: the `commit` mark first,
//! then the deliver CPU, the application, and the `deliver` mark. So
//! `→ commit` times the commit rule and `→ deliver` the delivery itself.
//! Marks and counters charge nothing (zero-perturbation), so the order moves
//! no virtual time.

use crate::app::App;
use crate::client::{ClientResp, RESP_WIRE};
use crate::types::MsgHdr;
use bytes::Bytes;
use simnet::{client_span, Counter, Ctx, DeliveryClass, FastMap, NodeId, SpanStage};
use std::hash::Hash;
use std::time::Duration;

/// A node's origin map (entry key → the client and request id its commit
/// answers) and the CPU that delivering and answering cost.
pub struct Instrument<K> {
    origin: FastMap<K, (NodeId, u64)>,
    deliver_cost: Duration,
    reply_cost: Duration,
}

/// One committed entry on its way to the application.
pub struct Committed<'a, K> {
    /// The entry's key in the origin map.
    pub key: K,
    /// Its message-space span id (the one its `leader_recv` mark carries).
    pub span: u64,
    /// The header the application receives.
    pub hdr: MsgHdr,
    /// The payload the application receives.
    pub payload: &'a Bytes,
}

impl<K: Hash + Eq> Instrument<K> {
    /// An empty origin map. `deliver_cost` is the CPU one delivery charges
    /// to the `deliver` stage; `reply_cost` is what sending a reply charges
    /// to the `ring_write` stage (a kernel TCP send; zero where the reply
    /// costs no CPU).
    pub fn new(deliver_cost: Duration, reply_cost: Duration) -> Self {
        Instrument {
            origin: FastMap::default(),
            deliver_cost,
            reply_cost,
        }
    }

    /// Request `id` from client `from` took its place in the order as
    /// `key`: the `leader_recv` mark joins the entry's span to the client's,
    /// and the origin map remembers whom its commit answers.
    pub fn admit<M>(&mut self, ctx: &mut Ctx<M>, key: K, span: u64, from: NodeId, id: u64) {
        ctx.span(span, SpanStage::LeaderRecv, client_span(from, id));
        self.origin.insert(key, (from, id));
    }

    /// Deliver one committed entry to `app`: the `commit` mark, the deliver
    /// CPU, the application, the `deliver` mark and the commit count. The
    /// entry's origin record is dropped whether or not this node answers;
    /// with `reply` (the wire's response wrapper, given when this node
    /// answers) a recorded origin gets its [`RESP_WIRE`] reply.
    pub fn deliver<M>(
        &mut self,
        ctx: &mut Ctx<M>,
        app: &mut dyn App,
        entry: Committed<K>,
        reply: Option<impl FnOnce(ClientResp) -> M>,
    ) {
        ctx.span(entry.span, SpanStage::Commit, 0);
        ctx.use_cpu_at(SpanStage::Deliver, self.deliver_cost);
        app.deliver(entry.hdr, entry.payload);
        ctx.span(entry.span, SpanStage::Deliver, 0);
        ctx.count(Counter::Commits, 1);
        if let (Some((client, id)), Some(wrap)) = (self.origin.remove(&entry.key), reply) {
            ctx.use_cpu_at(SpanStage::RingWrite, self.reply_cost);
            ctx.send(
                client,
                DeliveryClass::Cpu,
                RESP_WIRE,
                wrap(ClientResp { id }),
            );
        }
    }

    /// Drop `key`'s origin record without delivering it (log GC).
    pub fn forget(&mut self, key: &K) {
        self.origin.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DeliveryLog;
    use crate::types::Epoch;
    use simnet::{msg_span, NetParams, Process, Sim, SimTime, TraceEvent};

    #[derive(Clone, Debug)]
    enum Wire {
        Req(u64),
        Resp(ClientResp),
    }

    /// Admits each request and delivers it at once, answering or not.
    struct Replica {
        ins: Instrument<u64>,
        app: DeliveryLog,
        answers: bool,
    }

    impl Process<Wire> for Replica {
        fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
            let Wire::Req(id) = msg else { return };
            let span = msg_span(1, 0, id as u32);
            self.ins.admit(ctx, id, span, from, id);
            let entry = Committed {
                key: id,
                span,
                hdr: MsgHdr::new(Epoch::new(1, 0), id as u32),
                payload: &Bytes::from_static(b"x"),
            };
            self.ins.deliver(
                ctx,
                &mut self.app,
                entry,
                self.answers.then_some(Wire::Resp),
            );
        }
    }

    /// Sends requests 1 and 2 at start and counts the replies.
    struct Client {
        replies: Vec<u64>,
    }

    impl Process<Wire> for Client {
        fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
            for id in [1, 2] {
                ctx.send(0, DeliveryClass::Cpu, 64, Wire::Req(id));
            }
        }
        fn on_message(&mut self, _: &mut Ctx<Wire>, _: NodeId, msg: Wire) {
            if let Wire::Resp(r) = msg {
                self.replies.push(r.id);
            }
        }
    }

    fn run(answers: bool) -> (Sim<Wire>, Vec<TraceEvent>) {
        let mut sim = Sim::new(1, NetParams::rdma());
        sim.set_tracing(true);
        sim.add_node(Box::new(Replica {
            ins: Instrument::new(Duration::from_nanos(100), Duration::ZERO),
            app: DeliveryLog::default(),
            answers,
        }));
        sim.add_node(Box::new(Client {
            replies: Vec::new(),
        }));
        sim.run_until(SimTime::from_millis(1));
        let trace = sim.take_trace();
        (sim, trace)
    }

    #[test]
    fn deliver_without_answering_empties_the_map_and_sends_nothing() {
        let (sim, _) = run(false);
        let r = sim.node::<Replica>(0);
        assert!(r.ins.origin.is_empty());
        assert_eq!(r.app.len(), 2);
        assert_eq!(sim.counter(0, Counter::Commits), 2);
        assert_eq!(sim.counter(0, Counter::Packets), 0, "a reply went out");
        assert!(sim.node::<Client>(1).replies.is_empty());
    }

    #[test]
    fn deliver_answers_each_admitted_request_once() {
        let (sim, trace) = run(true);
        assert!(sim.node::<Replica>(0).ins.origin.is_empty());
        assert_eq!(sim.node::<Client>(1).replies, [1, 2]);
        // leader_recv, then commit, then deliver one deliver cost later.
        let marks: Vec<(SpanStage, u64)> = trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Span { at, stage, id, .. } if id == msg_span(1, 0, 1) => {
                    Some((stage, at.as_nanos()))
                }
                _ => None,
            })
            .collect();
        let stages: Vec<SpanStage> = marks.iter().map(|m| m.0).collect();
        assert_eq!(
            stages,
            [SpanStage::LeaderRecv, SpanStage::Commit, SpanStage::Deliver]
        );
        assert_eq!(marks[1].1, marks[0].1);
        assert_eq!(marks[2].1, marks[1].1 + 100);
    }
}
