//! Host-time layer kernels: small fixed-size loops over one layer's public
//! functions, each reported as best-of-[`REPS`] on-CPU nanoseconds per
//! operation. They price the layers in isolation, so a change in
//! `host_us_per_commit` can be traced to the layer that moved.

use crate::echo::{EchoServer, EchoWire};
use crate::host::{thread_cpu_ns, Spans};
use crate::loadgen::{LoadGen, Pacing};
use crate::metrics::Values;
use abcast::{App, Epoch, LatencyHist, MsgHdr};
use bytes::Bytes;
use kvstore::{Op, ReplicatedMap, YcsbLoad};
use rdma_prims::{RingMode, RingReceiver, RingSender, Sst};
use rdma_sim::{Endpoint, QpConfig, RdmaPkt, RegionId};
use simnet::sched::{EventKey, SchedKind, Scheduler};
use simnet::{
    Ctx, DeliveryClass, DurableLog, LogDevParams, MsgKind, NetParams, NodeId, Process, Sim, SimTime,
};
use std::hint::black_box;
use std::time::Duration;

/// Repetitions per kernel; the minimum is reported.
const REPS: usize = 5;

/// Best-of-[`REPS`] on-CPU nanoseconds per operation. `prepare` builds the
/// state outside the timed region; `run` does the work and returns how many
/// operations it performed.
fn kernel<S>(mut prepare: impl FnMut() -> S, mut run: impl FnMut(&mut S) -> u64) -> f64 {
    (0..REPS)
        .map(|_| {
            let mut state = prepare();
            let t0 = thread_cpu_ns();
            let ops = run(&mut state);
            let dt = thread_cpu_ns() - t0;
            black_box(&state);
            assert!(ops > 0, "kernel performed no operations");
            dt as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Two nodes bouncing a DMA message: the engine's cost per event with no
/// protocol work in the handlers.
struct Pong;

impl Process<u32> for Pong {
    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        if ctx.id() == 0 {
            ctx.send(1, DeliveryClass::Dma, 64, 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<u32>, from: NodeId, msg: u32) {
        ctx.send(from, DeliveryClass::Dma, 64, msg.wrapping_add(1));
    }
}

fn engine_bare() -> f64 {
    kernel(
        || {
            let mut sim: Sim<u32> = Sim::new(1, NetParams::rdma());
            sim.add_node(Box::new(Pong));
            sim.add_node(Box::new(Pong));
            sim
        },
        |sim| {
            sim.run_until(SimTime::from_millis(300));
            sim.stats().events
        },
    )
}

/// Hold model: pop the earliest key, push one a pseudo-random distance
/// ahead, at a steady queue depth of 64 and of 4096.
fn sched(kind: SchedKind) -> f64 {
    const OPS: u64 = 200_000;
    kernel(
        || {
            [64u64, 4096].map(|depth| {
                let mut q = Scheduler::new(kind);
                for i in 0..depth {
                    q.push(EventKey {
                        at: SimTime::from_nanos(i * 977 % 50_000),
                        seq: i,
                        slot: i as u32,
                    });
                }
                (q, depth)
            })
        },
        |queues| {
            for (q, depth) in queues.iter_mut() {
                let mut lcg = 0x2545_F491_4F6C_DD1Du64;
                for i in 0..OPS {
                    let k = q.pop().expect("queue never drains in the hold model");
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    q.push(EventKey {
                        at: k.at + Duration::from_nanos(500 + (lcg >> 48)),
                        seq: *depth + i,
                        slot: k.slot,
                    });
                }
                black_box(q.len());
            }
            4 * OPS
        },
    )
}

fn disk_append_fsync() -> f64 {
    const OPS: u64 = 50_000;
    let rec = [7u8; 64];
    kernel(
        || DurableLog::new(LogDevParams::pmem()),
        |log| {
            for _ in 0..OPS {
                black_box(log.append(black_box(&rec)));
                black_box(log.fsync());
            }
            OPS
        },
    )
}

#[derive(Clone, Debug)]
struct Wire(RdmaPkt);

impl From<RdmaPkt> for Wire {
    fn from(p: RdmaPkt) -> Self {
        Wire(p)
    }
}

const TICK: Duration = Duration::from_nanos(500);

/// Posts one 64-byte one-sided write per tick to node 1.
struct Writer {
    ep: Endpoint,
    region: RegionId,
}

impl Process<Wire> for Writer {
    fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
        ctx.set_timer(TICK, 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
        self.ep.on_packet(ctx, from, msg.0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
        let data = Bytes::from(vec![1u8; 64]);
        let _ = self
            .ep
            .post_write(ctx, 1, self.region, 0, data, MsgKind::Payload);
        ctx.set_timer(TICK, 0);
    }
}

/// A node that only lets its NIC apply what arrives.
struct Sink {
    ep: Endpoint,
}

impl Process<Wire> for Sink {
    fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
        self.ep.on_packet(ctx, from, msg.0);
    }
}

fn endpoint(peers: &[NodeId], region_len: usize) -> (Endpoint, RegionId) {
    let mut ep = Endpoint::new(QpConfig::default());
    let region = ep.register_region(region_len);
    for &p in peers {
        ep.connect(p);
    }
    (ep, region)
}

fn rdma_write() -> f64 {
    kernel(
        || {
            let mut sim: Sim<Wire> = Sim::new(1, NetParams::rdma());
            let (ep, region) = endpoint(&[1], 4096);
            sim.add_node(Box::new(Writer { ep, region }));
            let (ep, _) = endpoint(&[0], 4096);
            sim.add_node(Box::new(Sink { ep }));
            sim
        },
        |sim| {
            sim.run_until(SimTime::from_millis(40));
            sim.node::<Sink>(1).ep.writes_applied
        },
    )
}

/// Streams 1000-byte frames into node 1's ring as flow control allows.
struct RingTx {
    ep: Endpoint,
    ring: RingSender,
    ack_region: RegionId,
    body: Vec<u8>,
}

impl Process<Wire> for RingTx {
    fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
        ctx.set_timer(TICK, 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
        self.ep.on_packet(ctx, from, msg.0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
        let cell = self.ep.read(self.ack_region, 0, 8);
        let acked = u64::from_le_bytes(cell.try_into().expect("8-byte ack cell"));
        if acked > 0 {
            self.ring.ack(1, acked - 1);
        }
        for _ in 0..4 {
            if self
                .ring
                .send_to(ctx, &mut self.ep, 1, &self.body, MsgKind::Payload)
                .is_err()
            {
                break;
            }
        }
        ctx.set_timer(TICK, 0);
    }
}

/// Polls its ring every tick and writes a cumulative ack back.
struct RingRx {
    ep: Endpoint,
    ring: RingReceiver,
    ack_region: RegionId,
    frames: u64,
}

impl Process<Wire> for RingRx {
    fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
        ctx.set_timer(TICK, 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
        self.ep.on_packet(ctx, from, msg.0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
        let batch = self.ring.poll(&mut self.ep);
        if !batch.is_empty() {
            self.frames += batch.len() as u64;
            let acked = Bytes::from(self.ring.next_seq().to_le_bytes().to_vec());
            let _ = self
                .ep
                .post_write(ctx, 0, self.ack_region, 0, acked, MsgKind::Ack);
        }
        ctx.set_timer(TICK, 0);
    }
}

fn ring_frame() -> f64 {
    const RING: usize = 1 << 16;
    kernel(
        || {
            let mut sim: Sim<Wire> = Sim::new(1, NetParams::rdma());
            let (mut ep, region) = endpoint(&[1], RING);
            let ack_region = ep.register_region(8);
            sim.add_node(Box::new(RingTx {
                ep,
                ring: RingSender::new(region, RING, RingMode::Coupled, &[1]),
                ack_region,
                body: vec![3u8; 1000],
            }));
            let (mut ep, region) = endpoint(&[0], RING);
            let ack_region = ep.register_region(8);
            sim.add_node(Box::new(RingRx {
                ep,
                ring: RingReceiver::new(region, RING, RingMode::Coupled),
                ack_region,
                frames: 0,
            }));
            sim
        },
        |sim| {
            sim.run_until(SimTime::from_millis(20));
            sim.node::<RingRx>(1).frames
        },
    )
}

/// Node 0 pushes its SST row to the other fifteen every tick.
struct SstNode {
    ep: Endpoint,
    sst: Sst<u64>,
    peers: Vec<NodeId>,
    pushes: u64,
}

impl Process<Wire> for SstNode {
    fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
        if self.sst.me() == 0 {
            ctx.set_timer(Duration::from_micros(20), 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
        self.ep.on_packet(ctx, from, msg.0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
        self.pushes += 1;
        self.sst.write_mine(&mut self.ep, &self.pushes);
        let _ = self.sst.push_mine(ctx, &mut self.ep, &self.peers);
        ctx.set_timer(Duration::from_micros(20), 0);
    }
}

fn sst_push() -> f64 {
    const N: usize = 16;
    kernel(
        || {
            let mut sim: Sim<Wire> = Sim::new(1, NetParams::rdma());
            let peers: Vec<NodeId> = (0..N).collect();
            for me in 0..N {
                let mut ep = Endpoint::new(QpConfig::default());
                let sst = Sst::<u64>::register(&mut ep, N, me);
                for &p in peers.iter().filter(|&&p| p != me) {
                    ep.connect(p);
                }
                sim.add_node(Box::new(SstNode {
                    ep,
                    sst,
                    peers: peers.clone(),
                    pushes: 0,
                }));
            }
            sim
        },
        |sim| {
            sim.run_until(SimTime::from_millis(40));
            sim.node::<SstNode>(0).pushes * (N as u64 - 1)
        },
    )
}

fn check_histories() -> f64 {
    const LEN: u32 = 10_000;
    kernel(
        || {
            let h: Vec<(MsgHdr, Bytes)> = (1..=LEN)
                .map(|i| {
                    (
                        MsgHdr::new(Epoch::new(1, 0), i),
                        abcast::workload::payload(u64::from(i), 10),
                    )
                })
                .collect();
            vec![h.clone(), h.clone(), h]
        },
        |hs| {
            black_box(abcast::check_histories(black_box(hs), None)).expect("histories agree");
            3 * u64::from(LEN)
        },
    )
}

fn hist_record() -> f64 {
    const OPS: u64 = 1_000_000;
    kernel(LatencyHist::new, |h| {
        for i in 0..OPS {
            h.record(Duration::from_nanos(black_box(1_000 + i % 100_000)));
        }
        black_box(h.count())
    })
}

fn codec() -> f64 {
    const OPS: u64 = 100_000;
    let hdr = MsgHdr::new(Epoch::new(3, 1), 77);
    kernel(
        || Bytes::from(vec![7u8; 1000]),
        |body| {
            for _ in 0..OPS {
                let frame = acuerdo::msg::encode_normal(black_box(hdr), black_box(body));
                black_box(acuerdo::msg::decode(frame)).expect("frame decodes");
            }
            OPS
        },
    )
}

const KV_OPS: u64 = 50_000;

fn ycsb_gen() -> f64 {
    kernel(
        || YcsbLoad::new(42),
        |load| {
            for id in 0..KV_OPS {
                black_box(load.op(black_box(id)).encode());
            }
            KV_OPS
        },
    )
}

fn ycsb_ops() -> Vec<Op> {
    let mut load = YcsbLoad::new(42);
    (0..KV_OPS).map(|id| load.op(id)).collect()
}

fn kv_apply() -> f64 {
    let hdr = MsgHdr::new(Epoch::new(1, 0), 1);
    kernel(
        || {
            let payloads: Vec<Bytes> = ycsb_ops().iter().map(Op::encode).collect();
            (ReplicatedMap::default(), payloads)
        },
        |(map, payloads)| {
            for p in payloads.iter() {
                map.deliver(hdr, black_box(p));
            }
            map.applied
        },
    )
}

fn kv_get() -> f64 {
    let hdr = MsgHdr::new(Epoch::new(1, 0), 1);
    kernel(
        || {
            let ops = ycsb_ops();
            let mut map = ReplicatedMap::default();
            for op in &ops {
                map.deliver(hdr, &op.encode());
            }
            let keys: Vec<Bytes> = ops
                .into_iter()
                .map(|op| match op {
                    Op::Create { key, .. } | Op::Set { key, .. } | Op::Delete { key } => key,
                })
                .collect();
            (map, keys)
        },
        |(map, keys)| {
            let hits = keys
                .iter()
                .filter(|k| black_box(map.get(black_box(k))).is_some())
                .count();
            assert_eq!(hits, keys.len());
            keys.len() as u64
        },
    )
}

/// The load generator against the echo server: host cost per request of the
/// generator plus the bare engine path under it.
fn loadgen_request() -> f64 {
    kernel(
        || {
            let mut sim: Sim<EchoWire> = Sim::new(1, NetParams::rdma());
            let server = sim.add_node(Box::<EchoServer>::default());
            sim.add_node(Box::new(LoadGen::<EchoWire>::new(
                Pacing::Closed { window: 8 },
                server,
                Vec::new(),
                SimTime::from_millis(50),
                Box::new(|id| abcast::workload::payload(id, 10)),
            )));
            sim
        },
        |sim| {
            sim.run_until(SimTime::from_millis(51));
            sim.node::<LoadGen<EchoWire>>(1).samples().len() as u64
        },
    )
}

/// Run every kernel, each under its own host span, and record its metric.
pub fn run_all(out: &mut Values, spans: &mut Spans) {
    type Kernel = (&'static str, fn() -> f64);
    let table: &[Kernel] = &[
        ("simnet.engine.bare_ns_per_event", engine_bare),
        ("simnet.sched.calendar_ns_per_op", || {
            sched(SchedKind::Calendar)
        }),
        ("simnet.sched.heap_ns_per_op", || sched(SchedKind::Heap)),
        ("simnet.disk.append_fsync_ns_per_op", disk_append_fsync),
        ("rdma_sim.write_ns_per_op", rdma_write),
        ("rdma_prims.ring_ns_per_frame", ring_frame),
        ("rdma_prims.sst_push_ns_per_row", sst_push),
        ("abcast.check_ns_per_entry", check_histories),
        ("abcast.hist_record_ns", hist_record),
        ("acuerdo.codec_ns_per_frame", codec),
        ("kvstore.ycsb_gen_ns_per_op", ycsb_gen),
        ("kvstore.apply_ns_per_op", kv_apply),
        ("kvstore.get_ns_per_op", kv_get),
        ("loadgen.host_ns_per_request", loadgen_request),
    ];
    for &(name, f) in table {
        let v = spans.scope(&format!("kernel.{name}"), |_| f());
        out.put(name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_does_work_and_reports_a_positive_cost() {
        let mut out = Values::new(&crate::metrics::PER_LAYER);
        let mut spans = Spans::new(true);
        run_all(&mut out, &mut spans);
        assert_eq!(out.in_order().count(), 14);
        for (d, v) in out.in_order() {
            assert!(v > 0.0 && v < 1e6, "{} = {v} ns", d.name);
        }
        assert_eq!(spans.all().len(), 14);
    }
}
