//! Property-based tests on the ring buffer: for any payload sequence, ring
//! size, and framing mode, every frame is delivered exactly once, in order,
//! byte-identical — across arbitrarily many ring laps.

use bytes::Bytes;
use proptest::prelude::*;
use rdma_prims::{RingFrame, RingMode, RingReceiver, RingSender};
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

struct Sender {
    ep: Endpoint,
    ring: RingSender,
    ack_region: RegionId,
    to_send: VecDeque<Vec<u8>>,
}

impl Process<Wire> for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
        ctx.set_timer(Duration::from_micros(1), 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
        self.ep.on_packet(ctx, from, msg.0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
        let acked = u64::from_le_bytes(self.ep.read(self.ack_region, 0, 8).try_into().unwrap());
        if acked > 0 {
            self.ring.ack(1, acked - 1);
        }
        while let Some(p) = self.to_send.front() {
            match self.ring.send_to(ctx, &mut self.ep, 1, p, MsgKind::Payload) {
                Ok(_) => {
                    self.to_send.pop_front();
                }
                Err(_) => break,
            }
        }
        ctx.set_timer(Duration::from_micros(1), 0);
    }
}

struct Receiver {
    ep: Endpoint,
    ring: RingReceiver,
    ack_region: RegionId,
    got: Vec<Bytes>,
}

impl Process<Wire> for Receiver {
    fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
        ctx.set_timer(Duration::from_micros(1), 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
        self.ep.on_packet(ctx, from, msg.0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
        let batch = self.ring.poll(&mut self.ep);
        if !batch.is_empty() {
            let upto = self.ring.next_seq();
            self.ep.write_local(self.ack_region, 0, &upto.to_le_bytes());
            let data = Bytes::copy_from_slice(self.ep.read(self.ack_region, 0, 8));
            let _ = self
                .ep
                .post_write(ctx, 0, self.ack_region, 0, data, MsgKind::Ack);
            self.got.extend(batch.iter().map(RingFrame::payload));
        }
        ctx.set_timer(Duration::from_micros(1), 0);
    }
}

fn run_ring(mode: RingMode, ring_len: usize, payloads: &[Vec<u8>]) -> Vec<Bytes> {
    let mut sim: Sim<Wire> = Sim::new(7, NetParams::rdma());
    let mk = |ring_len: usize| {
        let mut ep = Endpoint::new(QpConfig {
            post_cost: Duration::from_nanos(100),
            ..QpConfig::default()
        });
        let ring = ep.register_region(ring_len);
        let ack = ep.register_region(8);
        ep.connect(0);
        ep.connect(1);
        (ep, ring, ack)
    };
    let (sep, sring, sack) = mk(ring_len);
    let s = Sender {
        ep: sep,
        ring: RingSender::new(sring, ring_len, mode, &[1]),
        ack_region: sack,
        to_send: payloads.iter().cloned().collect(),
    };
    let (rep, rring, rack) = mk(ring_len);
    let r = Receiver {
        ep: rep,
        ring: RingReceiver::new(rring, ring_len, mode),
        ack_region: rack,
        got: vec![],
    };
    sim.add_node(Box::new(s));
    let rid = sim.add_node(Box::new(r));
    // Generous horizon: tiny rings force many laps.
    sim.run_until(SimTime::from_millis(400));
    sim.node::<Receiver>(rid).got.clone()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn exactly_once_in_order_delivery(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..60), 1..80),
        ring_exp in 7usize..12, // 128..4096 bytes
        split in any::<bool>(),
    ) {
        let ring_len = 1usize << ring_exp;
        let mode = if split { RingMode::Split } else { RingMode::Coupled };
        // Frames must fit half the *data capacity* (split mode reserves the
        // final 8 bytes for its counter).
        let cap = ring_len - if split { 8 } else { 0 };
        let max_frame = payloads.iter().map(|p| p.len() + 12).max().unwrap_or(12);
        prop_assume!(max_frame * 2 <= cap);
        let got = run_ring(mode, ring_len, &payloads);
        prop_assert_eq!(got.len(), payloads.len(), "lost or duplicated frames");
        for (i, (g, want)) in got.iter().zip(payloads.iter()).enumerate() {
            prop_assert_eq!(g.as_ref(), &want[..], "payload {} corrupted", i);
        }
    }
}

#[test]
fn debug_single_empty_payload_split() {
    let got = run_ring(RingMode::Split, 128, &[vec![]]);
    assert_eq!(got.len(), 1, "got {:?}", got);
}

#[test]
fn debug_varied_frames_tiny_split_ring() {
    let lens = [
        40usize, 43, 32, 56, 39, 35, 14, 56, 30, 45, 30, 29, 4, 15, 31, 38, 1, 39, 35, 3, 44, 41,
        56,
    ];
    let payloads: Vec<Vec<u8>> = lens
        .iter()
        .enumerate()
        .map(|(i, &l)| vec![i as u8; l])
        .collect();
    let got = run_ring(RingMode::Split, 160, &payloads);
    assert_eq!(got.len(), 23, "delivered only {}", got.len());
}

#[test]
fn debug_big_frames_tiny_split_ring() {
    let payloads: Vec<Vec<u8>> = (0..23u8).map(|i| vec![i; 59]).collect();
    let got = run_ring(RingMode::Split, 160, &payloads);
    assert_eq!(got.len(), 23, "delivered only {}", got.len());
    for (i, g) in got.iter().enumerate() {
        assert_eq!(g.as_ref(), &payloads[i][..], "payload {i}");
    }
}
