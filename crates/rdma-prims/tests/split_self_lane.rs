//! Focused repro: a split-mode ring where a node broadcasts to several
//! receivers *including itself* through the loopback path, with flow
//! control driven by cumulative acks — the Acuerdo leader's configuration.

use bytes::Bytes;
use rdma_prims::{RingMode, RingReceiver, RingSender};
use rdma_sim::{Endpoint, QpConfig, RdmaPkt, RegionId};
use simnet::{Ctx, MsgKind, NetParams, NodeId, Process, Sim, SimTime};
use std::collections::VecDeque;
use std::time::Duration;

#[derive(Clone, Debug)]
struct Wire(RdmaPkt);
impl From<RdmaPkt> for Wire {
    fn from(p: RdmaPkt) -> Self {
        Wire(p)
    }
}

/// A node that broadcasts frames to every peer (including itself via
/// loopback), receives frames on per-sender rings, and acks by writing a
/// cumulative counter into the sender's ack region — a miniature of the
/// Acuerdo data path.
struct Node {
    me: usize,
    n: usize,
    ep: Endpoint,
    out: RingSender,
    ins: Vec<RingReceiver>,
    ack_region: RegionId,
    to_send: VecDeque<Vec<u8>>,
    sent: u64,
    got: Vec<Vec<(u64, Bytes)>>,
    errors: Vec<rdma_prims::RingError>,
}

impl Node {
    fn new(me: usize, n: usize, ring_len: usize, mode: RingMode) -> Self {
        let mut ep = Endpoint::new(QpConfig::default());
        let mut ins = Vec::new();
        for _ in 0..n {
            let r = ep.register_region(ring_len);
            ins.push(RingReceiver::new(r, ring_len, mode));
        }
        // Ack region: one u64 per (sender, receiver) pair: offset
        // (sender*n + receiver) * 8.
        let ack_region = ep.register_region(n * n * 8);
        for p in 0..n {
            ep.connect(p);
        }
        let peers: Vec<NodeId> = (0..n).collect();
        Node {
            me,
            n,
            out: RingSender::new(RegionId(me as u32), ring_len, mode, &peers),
            ep,
            ins,
            ack_region,
            to_send: VecDeque::new(),
            sent: 0,
            got: (0..n).map(|_| Vec::new()).collect(),
            errors: Vec::new(),
        }
    }

    fn acked_by(&self, receiver: usize) -> u64 {
        let off = ((self.me * self.n + receiver) * 8) as u32;
        u64::from_le_bytes(
            self.ep.peek(self.ack_region, off, 8)[..]
                .try_into()
                .unwrap(),
        )
    }
}

impl Process<Wire> for Node {
    fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
        ctx.set_timer(Duration::from_micros(1), 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
        self.ep.on_packet(ctx, from, msg.0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
        // Learn acks, free ring space.
        for r in 0..self.n {
            let a = self.acked_by(r);
            if a > 0 {
                self.out.ack(r, a - 1);
            }
        }
        // Drain incoming rings, push cumulative acks into the sender's ack
        // region.
        for s in 0..self.n {
            let batch = self.ins[s].poll(&mut self.ep);
            if !batch.is_empty() {
                let upto = self.ins[s].next_seq();
                let off = ((s * self.n + self.me) * 8) as u32;
                self.ep
                    .write_local(self.ack_region, off, &upto.to_le_bytes());
                let data = Bytes::copy_from_slice(self.ep.read(self.ack_region, off, 8));
                let _ = self
                    .ep
                    .post_write(ctx, s, self.ack_region, off, data, MsgKind::Ack);
                self.got[s].extend(batch.iter().map(|f| (f.seq, f.payload())));
            }
        }
        // Broadcast pending payloads to every peer including self.
        'outer: while let Some(p) = self.to_send.front() {
            for dst in 0..self.n {
                if self.out.free_space(dst) < p.len() as u64 + 16 {
                    break 'outer;
                }
            }
            for dst in 0..self.n {
                match self
                    .out
                    .send_to(ctx, &mut self.ep, dst, p, MsgKind::Payload)
                {
                    Ok(_) => {}
                    Err(e) => {
                        self.errors.push(e);
                        break 'outer;
                    }
                }
            }
            self.sent += 1;
            self.to_send.pop_front();
        }
        ctx.set_timer(Duration::from_micros(1), 0);
    }
}

fn run(mode: RingMode, ring_len: usize, msgs: usize) -> Sim<Wire> {
    let n = 3;
    let mut sim = Sim::new(5, NetParams::rdma());
    for me in 0..n {
        let mut node = Node::new(me, n, ring_len, mode);
        if me == 0 {
            node.to_send = (0..msgs)
                .map(|i| (i as u32).to_le_bytes().repeat(3))
                .collect();
        }
        sim.add_node(Box::new(node));
    }
    sim.run_until(SimTime::from_millis(200));
    sim
}

fn check(sim: &Sim<Wire>, msgs: usize, label: &str) {
    let sender = sim.node::<Node>(0);
    assert!(
        sender.to_send.is_empty(),
        "{label}: sender stalled after {} of {msgs} (errors: {:?})",
        sender.sent,
        sender.errors.last()
    );
    for id in 0..3 {
        let node = sim.node::<Node>(id);
        assert_eq!(
            node.got[0].len(),
            msgs,
            "{label}: node {id} received {} of {msgs}",
            node.got[0].len()
        );
        for (i, (seq, p)) in node.got[0].iter().enumerate() {
            assert_eq!(*seq, i as u64, "{label}: node {id} seq");
            assert_eq!(
                &p[..4],
                &(i as u32).to_le_bytes(),
                "{label}: node {id} payload"
            );
        }
    }
}

#[test]
fn coupled_broadcast_with_self_lane_many_laps() {
    let msgs = 2_000;
    let sim = run(RingMode::Coupled, 512, msgs);
    check(&sim, msgs, "coupled");
}

#[test]
fn split_broadcast_with_self_lane_many_laps() {
    let msgs = 2_000;
    let sim = run(RingMode::Split, 512, msgs);
    check(&sim, msgs, "split");
}

#[test]
fn split_broadcast_with_self_lane_large_ring_no_wrap() {
    let msgs = 500;
    let sim = run(RingMode::Split, 1 << 20, msgs);
    check(&sim, msgs, "split-large");
}
