//! The RDMA ring buffer (§3.2 of the paper).
//!
//! A single-sender byte ring mirrored into each receiver's registered memory
//! with one-sided writes. The sender frames messages as
//! `[len+1: u32][seq: u64][payload]`; the receiver polls its local copy and
//! drains every complete frame it finds — receiver-side batching. The
//! receiver zeroes bytes as it consumes them (the standard trick in FaRM-style
//! rings), so any nonzero length field it reads is a freshly written frame;
//! the sequence number is kept as a defensive check.
//!
//! Two framings model the §4.1 bandwidth comparison:
//!
//! * [`RingMode::Coupled`] (Acuerdo): metadata and data travel in **one**
//!   RDMA write — for small messages the wire cost is a single
//!   minimum-sized (80-byte) packet.
//! * [`RingMode::Split`] (Derecho): the data frame is written first, then a
//!   separate 8-byte message counter at a fixed offset — **two** writes, and
//!   twice the wire cost for small messages.
//!
//! Flow control is the protocol's job: the sender exposes [`RingSender::ack`]
//! so the protocol can mark frames reusable (Acuerdo reuses a slot once the
//! receiver *accepted* the message; Derecho only once it committed at all
//! active nodes — that difference is an ablation in `bench`). Safety relies
//! on the invariant that a protocol only acknowledges frames the receiver has
//! already consumed from the ring, so the sender never overwrites unread
//! bytes and the receiver never zeroes bytes the sender has rewritten.

use bytes::Bytes;
use rdma_sim::{Endpoint, PostError, RdmaPkt, RegionId, VIEW_MIN};
use simnet::{Counter, Ctx, MsgKind, NodeId};
use std::collections::VecDeque;

/// Bytes of framing prepended to every payload: 4-byte length + 8-byte seq.
pub const FRAME_HDR: u64 = 12;

/// Per-sender ring size for an `n`-node cluster. Every node mirrors a ring
/// per remote sender, so registered memory grows as `n * (n-1) *
/// ring_bytes`; the schedule shrinks the rings at large `n` to keep that
/// product bounded (n=64: 64KiB rings, ~250MiB total) while leaving the
/// small-cluster benchmark geometry untouched.
pub fn ring_bytes_for(n: usize) -> usize {
    match n {
        0..=16 => 1 << 20,
        17..=32 => 1 << 18,
        _ => 1 << 16,
    }
}

/// Length-field sentinel marking "skip to the start of the ring".
const WRAP: u32 = u32::MAX;
/// Size of the split-mode message counter stored past the data area.
const COUNTER_LEN: u64 = 8;

/// A frame drained from a ring: its transport sequence number and its
/// payload, `head` followed by `body`. `body` is the view a gathered write
/// landed (shared with the sender's buffer, never copied on the way), and
/// empty when the frame landed flat; `head` holds the bytes before it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingFrame {
    /// Transport sequence number.
    pub seq: u64,
    /// The payload's bytes ahead of `body` (all of it for a flat frame).
    pub head: Bytes,
    /// The payload's landed body, if it has one.
    pub body: Bytes,
}

impl RingFrame {
    /// The whole payload: a copy only when both halves are non-empty.
    pub fn payload(&self) -> Bytes {
        let mut payload = self.head.clone();
        payload.unsplit(self.body.clone());
        payload
    }
}

/// How frames are published to the receiver.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RingMode {
    /// One write carrying framing and payload together (Acuerdo).
    Coupled,
    /// One write for the frame plus one write for a message counter
    /// (Derecho). The receiver trusts the counter instead of the length
    /// field.
    Split,
}

/// Why a ring send failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RingError {
    /// Not enough reusable space in the receiver's ring; the protocol must
    /// wait for acknowledgments (backpressure — this produces the latency
    /// knee at saturation).
    Full,
    /// Payload cannot ever fit: frames must be at most half the ring, so a
    /// wrapped frame can never collide with the wrap marker it skipped.
    TooLarge,
    /// The underlying RDMA post failed.
    Post(PostError),
}

struct Lane {
    /// Region id the frames of this lane are written into at the receiver.
    /// Starts at the sender's canonical region and is retargeted when the
    /// receiver re-registers a fresh ring after a resynchronization.
    region: RegionId,
    head_abs: u64,
    next_seq: u64,
    acked_abs: u64,
    /// (seq, end_abs) of in-flight frames, oldest first.
    pending: VecDeque<(u64, u64)>,
}

/// Sender half: one lane per receiver, each mirroring into the same region id
/// at that receiver (until a lane is retargeted after a resync).
pub struct RingSender {
    cap: u64,
    mode: RingMode,
    /// Lanes indexed by receiver id (dense node ids; flat table beats
    /// hashing on the per-frame hot path).
    lanes: Vec<Option<Lane>>,
    /// Total frames sent across all lanes (stats).
    pub frames_sent: u64,
}

impl RingSender {
    /// Create a sender mirroring into `region` (of `region_len` bytes) at
    /// each receiver. In split mode the final 8 bytes hold the counter.
    pub fn new(region: RegionId, region_len: usize, mode: RingMode, receivers: &[NodeId]) -> Self {
        let cap = match mode {
            RingMode::Coupled => region_len as u64,
            RingMode::Split => region_len as u64 - COUNTER_LEN,
        };
        assert!(cap > FRAME_HDR, "ring too small");
        let mut lanes: Vec<Option<Lane>> = Vec::new();
        for &r in receivers {
            if r >= lanes.len() {
                lanes.resize_with(r + 1, || None);
            }
            lanes[r] = Some(Lane {
                region,
                head_abs: 0,
                next_seq: 0,
                acked_abs: 0,
                pending: VecDeque::new(),
            });
        }
        RingSender {
            cap,
            mode,
            lanes,
            frames_sent: 0,
        }
    }

    /// The transport sequence number the next frame to `dst` will carry.
    pub fn next_seq(&self, dst: NodeId) -> u64 {
        self.lane(dst).next_seq
    }

    #[inline]
    fn lane(&self, dst: NodeId) -> &Lane {
        self.lanes[dst].as_ref().expect("unknown lane")
    }

    #[inline]
    fn lane_mut(&mut self, dst: NodeId) -> &mut Lane {
        self.lanes[dst].as_mut().expect("unknown lane")
    }

    /// The largest payload [`RingSender::send_to`] accepts: a frame
    /// (payload plus [`FRAME_HDR`]) must fit in half the ring.
    pub fn max_payload(&self) -> usize {
        (self.cap / 2).saturating_sub(FRAME_HDR) as usize
    }

    /// Reusable bytes remaining in `dst`'s ring.
    pub fn free_space(&self, dst: NodeId) -> u64 {
        let l = self.lane(dst);
        self.cap - (l.head_abs - l.acked_abs)
    }

    /// Mark every frame to `dst` with sequence `<= seq` as reusable.
    /// Monotone and idempotent (acknowledging an already-acked seq is a
    /// no-op), which is what SST-carried cumulative acks need.
    pub fn ack(&mut self, dst: NodeId, seq: u64) {
        let l = self.lane_mut(dst);
        while let Some(&(s, end)) = l.pending.front() {
            if s <= seq {
                l.acked_abs = end;
                l.pending.pop_front();
            } else {
                break;
            }
        }
    }

    /// Forget all transport state toward `dst`: sequence numbers, in-flight
    /// frames, and acknowledged space restart from a fresh ring. Called when
    /// `dst` reboots and its (zeroed) ring region is re-mirrored from
    /// scratch.
    pub fn reset_lane(&mut self, dst: NodeId) {
        let l = self.lane_mut(dst);
        l.head_abs = 0;
        l.next_seq = 0;
        l.acked_abs = 0;
        l.pending.clear();
    }

    /// [`RingSender::reset_lane`] plus retargeting: subsequent frames to
    /// `dst` are written into `region` (a ring the receiver freshly
    /// registered, same geometry) instead of the canonical mirror. Using a
    /// new region makes the restart safe against stragglers: writes of the
    /// torn-down stream that are still in flight land in the abandoned
    /// region and can never corrupt the new one.
    pub fn retarget_lane(&mut self, dst: NodeId, region: RegionId) {
        self.reset_lane(dst);
        self.lane_mut(dst).region = region;
    }

    /// Send `payload` to `dst`; returns the frame's transport sequence
    /// number. Fails with [`RingError::Full`] when the receiver has not yet
    /// acknowledged enough earlier frames. `kind` classifies the frame's
    /// bytes for resource accounting; the wrap marker and split-mode counter
    /// posts inherit it (they exist only to publish this frame).
    pub fn send_to<M: From<RdmaPkt>>(
        &mut self,
        ctx: &mut Ctx<M>,
        ep: &mut Endpoint,
        dst: NodeId,
        payload: &[u8],
        kind: MsgKind,
    ) -> Result<u64, RingError> {
        self.send_parts(ctx, ep, dst, payload, &Bytes::new(), kind)
    }

    /// [`RingSender::send_to`] of the payload `head` followed by `body`, a
    /// small header and the large body it describes. A body of at least
    /// [`VIEW_MIN`] bytes goes as the second element of a gathered write,
    /// shared with the caller and never copied (the receiver's poll hands it
    /// back as [`RingFrame::body`]); a shorter one is copied into one flat
    /// frame with its head. Either way it is one post of the same bytes.
    pub fn send_parts<M: From<RdmaPkt>>(
        &mut self,
        ctx: &mut Ctx<M>,
        ep: &mut Endpoint,
        dst: NodeId,
        head: &[u8],
        body: &Bytes,
        kind: MsgKind,
    ) -> Result<u64, RingError> {
        let cap = self.cap;
        let mode = self.mode;
        let payload_len = (head.len() + body.len()) as u64;
        let frame_len = FRAME_HDR + payload_len;
        // A frame must fit in half the ring: wraps then only trigger at
        // positions past cap/2 >= frame_len, so a post-wrap frame can never
        // overlap the wrap marker it just skipped (and every frame
        // eventually fits once acknowledged space frees up).
        if frame_len * 2 > cap || payload_len >= u64::from(WRAP) - 1 {
            return Err(RingError::TooLarge);
        }
        let l = self.lanes[dst].as_mut().expect("unknown lane");
        let region = l.region;

        let pos = l.head_abs % cap;
        let rem = cap - pos;
        let wrap_bytes = if pos + frame_len > cap { rem } else { 0 };
        if l.head_abs + wrap_bytes + frame_len - l.acked_abs > cap {
            ctx.count(Counter::RingStalls, 1);
            return Err(RingError::Full);
        }
        // Up to three posts: wrap marker, frame, (split) counter.
        let posts = 1 + u32::from(wrap_bytes >= 4) + u32::from(mode == RingMode::Split);
        if !ep.can_post(dst, posts) {
            return Err(RingError::Post(PostError::QueueFull));
        }

        if wrap_bytes > 0 {
            ctx.count(Counter::RingWraps, 1);
            if wrap_bytes >= 4 {
                ep.post_write(
                    ctx,
                    dst,
                    region,
                    pos as u32,
                    Bytes::copy_from_slice(&WRAP.to_le_bytes()),
                    kind,
                )
                .map_err(RingError::Post)?;
            }
            // If rem < 4 the receiver wraps implicitly (rem < FRAME_HDR and
            // too small even for a marker).
            l.head_abs += wrap_bytes;
        }

        let pos = (l.head_abs % cap) as u32;
        let seq = l.next_seq;
        let mut hdr = [0u8; FRAME_HDR as usize];
        hdr[..4].copy_from_slice(&(payload_len as u32 + 1).to_le_bytes());
        hdr[4..].copy_from_slice(&seq.to_le_bytes());
        if body.len() >= VIEW_MIN {
            let head = Bytes::from_parts(&[&hdr, head]);
            ep.post_gather(ctx, dst, region, pos, head, body.clone(), kind)
        } else {
            let frame = Bytes::from_parts(&[&hdr, head, body]);
            ep.post_write(ctx, dst, region, pos, frame, kind)
        }
        .map_err(RingError::Post)?;
        if mode == RingMode::Split {
            ep.post_write(
                ctx,
                dst,
                region,
                cap as u32,
                Bytes::copy_from_slice(&(seq + 1).to_le_bytes()),
                kind,
            )
            .map_err(RingError::Post)?;
        }
        l.head_abs += frame_len;
        l.next_seq = seq + 1;
        l.pending.push_back((seq, l.head_abs));
        self.frames_sent += 1;
        ctx.count(Counter::RingFrames, 1);
        Ok(seq)
    }
}

/// Receiver half: polls the local mirror of one sender's ring.
pub struct RingReceiver {
    region: RegionId,
    cap: u64,
    mode: RingMode,
    consumed_abs: u64,
    next_seq: u64,
}

impl RingReceiver {
    /// Create the receiver view over `region` (same geometry as the sender).
    pub fn new(region: RegionId, region_len: usize, mode: RingMode) -> Self {
        let cap = match mode {
            RingMode::Coupled => region_len as u64,
            RingMode::Split => region_len as u64 - COUNTER_LEN,
        };
        RingReceiver {
            region,
            cap,
            mode,
            consumed_abs: 0,
            next_seq: 0,
        }
    }

    /// Transport sequence number of the next frame this receiver expects.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The polled region. A caller that tests its flag first
    /// ([`Endpoint::is_dirty`]) skips a poll that would read nothing.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Drain every complete frame currently visible (one receiver-side
    /// batch), in order. Consumed bytes are zeroed so the next lap of the
    /// ring starts clean; a landed body is handed over as it is
    /// ([`Endpoint::take`]), not copied.
    ///
    /// A poll stops where the memory gives out (no frame yet, an unpublished
    /// counter, bytes that fail validation), so polling again before a
    /// remote write lands would stop at the same place: the ring takes its
    /// region's dirty flag ([`Endpoint::take_dirty`]) and reads nothing when
    /// it is clear. This receiver must be the region's only poller.
    pub fn poll(&mut self, ep: &mut Endpoint) -> Vec<RingFrame> {
        let mut out = Vec::new();
        if !ep.take_dirty(self.region) {
            return out;
        }
        let published = match self.mode {
            RingMode::Split => {
                let raw = ep.peek(self.region, self.cap as u32, 8);
                u64::from_le_bytes(raw[..].try_into().expect("counter"))
            }
            RingMode::Coupled => u64::MAX, // validated per-frame by length
        };
        loop {
            if self.next_seq >= published {
                break;
            }
            let pos = self.consumed_abs % self.cap;
            let rem = self.cap - pos;
            if rem < 4 {
                self.zero(ep, pos, rem);
                self.consumed_abs += rem;
                continue;
            }
            let len_raw = ep.peek(self.region, pos as u32, 4);
            let len_field = u32::from_le_bytes(len_raw[..].try_into().expect("len"));
            if len_field == WRAP {
                self.zero(ep, pos, rem);
                self.consumed_abs += rem;
                continue;
            }
            if len_field == 0 {
                if rem < FRAME_HDR {
                    // No frame can start here; an unmarked wrap in split
                    // mode (counter says more frames exist past it).
                    if self.mode == RingMode::Split {
                        self.zero(ep, pos, rem);
                        self.consumed_abs += rem;
                        continue;
                    }
                }
                break; // nothing here yet
            }
            let payload_len = u64::from(len_field - 1);
            let frame_len = FRAME_HDR + payload_len;
            if pos + frame_len > self.cap {
                // Not a length this stream can have written: after a peer
                // crash-reboots, its fresh stream restarts at offset zero of
                // the same region while this consume position still points
                // into the abandoned stream, so reads here land mid-frame and
                // decode payload bytes as a header. Stop consuming — the
                // owner's stall detection tears the ring down and rebuilds it.
                break;
            }
            let seq_raw = ep.peek(self.region, pos as u32 + 4, 8);
            let seq = u64::from_le_bytes(seq_raw[..].try_into().expect("seq"));
            if seq != self.next_seq {
                // Same desync as the overrun case, just with a plausible
                // length: a stale or torn frame from a dead incarnation.
                // Leave it unconsumed; recovery belongs to the resync path.
                break;
            }
            let (head, body) = ep.take(
                self.region,
                pos as u32,
                frame_len as usize,
                FRAME_HDR as usize,
            );
            out.push(RingFrame { seq, head, body });
            self.consumed_abs += frame_len;
            self.next_seq += 1;
        }
        out
    }

    fn zero(&self, ep: &mut Endpoint, pos: u64, len: u64) {
        // Local memset of consumed bytes; bounded by ring capacity.
        ep.zero_local(self.region, pos as u32, len as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::QpConfig;
    use simnet::{Ctx, NetParams, Process, Sim, SimTime};
    use std::time::Duration;

    #[derive(Clone, Debug)]
    struct Wire(RdmaPkt);
    impl From<RdmaPkt> for Wire {
        fn from(p: RdmaPkt) -> Self {
            Wire(p)
        }
    }

    /// Region plan for the tests: region 0 = the ring, region 1 = an 8-byte
    /// cumulative-ack cell the receiver RDMA-writes back to the sender
    /// (a one-slot SST, exactly how Acuerdo acknowledges).
    fn plan(ep: &mut Endpoint, ring_len: usize) -> (RegionId, RegionId) {
        let ring = ep.register_region(ring_len);
        let ack = ep.register_region(8);
        (ring, ack)
    }

    /// Sender node: emits `to_send` payloads as fast as flow control allows,
    /// learning acks from its ack cell.
    struct Sender {
        ep: Endpoint,
        ring: RingSender,
        ack_region: RegionId,
        dst: NodeId,
        to_send: VecDeque<Vec<u8>>,
        errors: Vec<RingError>,
        /// Send each payload as a 4-byte head and a gathered body.
        gather: bool,
    }

    impl Process<Wire> for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
            ctx.set_timer(Duration::from_nanos(500), 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
            self.ep.on_packet(ctx, from, msg.0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
            // Cumulative ack cell holds (last consumed seq + 1).
            let acked = u64::from_le_bytes(self.ep.read(self.ack_region, 0, 8).try_into().unwrap());
            if acked > 0 {
                self.ring.ack(self.dst, acked - 1);
            }
            while let Some(p) = self.to_send.front() {
                let sent = if self.gather && p.len() >= 4 {
                    let body = Bytes::copy_from_slice(&p[4..]);
                    let ep = &mut self.ep;
                    self.ring
                        .send_parts(ctx, ep, self.dst, &p[..4], &body, MsgKind::Payload)
                } else {
                    self.ring
                        .send_to(ctx, &mut self.ep, self.dst, p, MsgKind::Payload)
                };
                match sent {
                    Ok(_) => {
                        self.to_send.pop_front();
                    }
                    Err(e) => {
                        self.errors.push(e);
                        break;
                    }
                }
            }
            if !self.to_send.is_empty() {
                ctx.set_timer(Duration::from_micros(1), 0);
            }
        }
    }

    /// Receiver node: polls every microsecond and pushes a cumulative ack.
    struct Receiver {
        ep: Endpoint,
        ring: RingReceiver,
        ack_region: RegionId,
        sender: NodeId,
        push_acks: bool,
        got: Vec<(u64, Bytes)>,
        /// The landed body of each frame in `got`.
        bodies: Vec<Bytes>,
        batches: Vec<usize>,
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
                self.batches.push(batch.len());
                if self.push_acks {
                    let acked = self.ring.next_seq();
                    self.ep
                        .write_local(self.ack_region, 0, &acked.to_le_bytes());
                    let data = Bytes::copy_from_slice(self.ep.read(self.ack_region, 0, 8));
                    let _ = self.ep.post_write(
                        ctx,
                        self.sender,
                        self.ack_region,
                        0,
                        data,
                        MsgKind::Ack,
                    );
                }
            }
            self.bodies.extend(batch.iter().map(|f| f.body.clone()));
            self.got.extend(batch.iter().map(|f| (f.seq, f.payload())));
            ctx.set_timer(Duration::from_micros(1), 0);
        }
    }

    fn pair(
        mode: RingMode,
        ring_len: usize,
        payloads: Vec<Vec<u8>>,
        push_acks: bool,
    ) -> (Sim<Wire>, NodeId, NodeId) {
        let mut sim = Sim::new(11, NetParams::rdma());
        let mk_ep = || {
            let mut ep = Endpoint::new(QpConfig {
                post_cost: Duration::from_nanos(100),
                ..QpConfig::default()
            });
            ep.connect(0);
            ep.connect(1);
            ep
        };
        let mut sep = mk_ep();
        let (sring, sack) = plan(&mut sep, ring_len);
        let s = Sender {
            ep: sep,
            ring: RingSender::new(sring, ring_len, mode, &[1]),
            ack_region: sack,
            dst: 1,
            to_send: payloads.into(),
            errors: vec![],
            gather: false,
        };
        let mut rep = mk_ep();
        let (rring, rack) = plan(&mut rep, ring_len);
        assert_eq!((sring, sack), (rring, rack), "region plan mismatch");
        let r = Receiver {
            ep: rep,
            ring: RingReceiver::new(rring, ring_len, mode),
            ack_region: rack,
            sender: 0,
            push_acks,
            got: vec![],
            bodies: vec![],
            batches: vec![],
        };
        let a = sim.add_node(Box::new(s));
        let b = sim.add_node(Box::new(r));
        (sim, a, b)
    }

    #[test]
    fn coupled_delivers_in_order() {
        let msgs: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i; 10]).collect();
        let (mut sim, _a, b) = pair(RingMode::Coupled, 4096, msgs.clone(), true);
        sim.run_until(SimTime::from_millis(5));
        let r = sim.node::<Receiver>(b);
        assert_eq!(r.got.len(), 100);
        for (i, (seq, p)) in r.got.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(p.as_ref(), &msgs[i][..]);
        }
    }

    #[test]
    fn split_delivers_in_order() {
        let msgs: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i; 10]).collect();
        let (mut sim, _a, b) = pair(RingMode::Split, 4096, msgs, true);
        sim.run_until(SimTime::from_millis(5));
        let r = sim.node::<Receiver>(b);
        assert_eq!(r.got.len(), 100);
        assert!(r.got.iter().enumerate().all(|(i, (s, _))| *s == i as u64));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let msgs: Vec<Vec<u8>> = vec![vec![], vec![1], vec![]];
        let (mut sim, _a, b) = pair(RingMode::Coupled, 4096, msgs, true);
        sim.run_until(SimTime::from_millis(2));
        let r = sim.node::<Receiver>(b);
        assert_eq!(r.got.len(), 3);
        assert!(r.got[0].1.is_empty());
        assert_eq!(r.got[1].1.as_ref(), &[1]);
    }

    #[test]
    fn split_posts_twice_as_many_writes() {
        let msgs: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; 10]).collect();
        let (mut sim, a1, _) = pair(RingMode::Coupled, 1 << 16, msgs.clone(), true);
        sim.run_until(SimTime::from_millis(5));
        let coupled_posts = sim.node::<Sender>(a1).ring.frames_sent;
        let coupled_writes = sim.node::<Sender>(a1).ep.writes_posted;
        let (mut sim2, a2, _) = pair(RingMode::Split, 1 << 16, msgs, true);
        sim2.run_until(SimTime::from_millis(5));
        let split_writes = sim2.node::<Sender>(a2).ep.writes_posted;
        assert_eq!(coupled_posts, 50);
        assert_eq!(coupled_writes, 50);
        assert_eq!(split_writes, 100);
    }

    #[test]
    fn wraps_many_laps() {
        // Ring of 256 bytes, 300 messages of ~20 bytes: dozens of laps.
        let msgs: Vec<Vec<u8>> = (0..300u32)
            .map(|i| i.to_le_bytes().repeat(5)) // 20 bytes
            .collect();
        let (mut sim, a, b) = pair(RingMode::Coupled, 256, msgs.clone(), true);
        sim.run_until(SimTime::from_millis(20));
        let s = sim.node::<Sender>(a);
        assert!(
            s.to_send.is_empty(),
            "sender stalled: {:?}",
            s.errors.last()
        );
        let r = sim.node::<Receiver>(b);
        assert_eq!(r.got.len(), 300);
        for (i, (_, p)) in r.got.iter().enumerate() {
            assert_eq!(p.as_ref(), &msgs[i][..], "payload {i}");
        }
    }

    #[test]
    fn gathered_bodies_wrap_many_laps_as_views() {
        // Bodies at and past the view threshold, gathered, over a ring that
        // holds a handful: every lap's frames land as views on memory the
        // previous lap zeroed, in both framings.
        let msgs: Vec<Vec<u8>> = (0..60usize)
            .map(|i| vec![i as u8 + 1; VIEW_MIN + 4 + (i * 37) % VIEW_MIN])
            .collect();
        for mode in [RingMode::Coupled, RingMode::Split] {
            let (mut sim, a, b) = pair(mode, 8 * VIEW_MIN, msgs.clone(), true);
            sim.node_mut::<Sender>(a).gather = true;
            sim.run_until(SimTime::from_millis(20));
            assert!(sim.node::<Sender>(a).to_send.is_empty(), "{mode:?}");
            let r = sim.node::<Receiver>(b);
            assert_eq!(r.got.len(), 60, "{mode:?}");
            for (i, (_, p)) in r.got.iter().enumerate() {
                assert_eq!(p.as_ref(), &msgs[i][..], "{mode:?} payload {i}");
                assert_eq!(r.bodies[i].len(), msgs[i].len() - 4, "{mode:?} body {i}");
            }
            assert_eq!(r.ep.body_bytes_copied, 0, "{mode:?}");
        }
    }

    #[test]
    fn split_wraps_many_laps() {
        let msgs: Vec<Vec<u8>> = (0..200u32).map(|i| i.to_le_bytes().repeat(4)).collect();
        let (mut sim, a, b) = pair(RingMode::Split, 200, msgs.clone(), true);
        sim.run_until(SimTime::from_millis(20));
        assert!(sim.node::<Sender>(a).to_send.is_empty());
        let r = sim.node::<Receiver>(b);
        assert_eq!(r.got.len(), 200);
        for (i, (_, p)) in r.got.iter().enumerate() {
            assert_eq!(p.as_ref(), &msgs[i][..], "payload {i}");
        }
    }

    #[test]
    fn wraps_with_awkward_sizes() {
        // Payload sizes chosen to land wrap points at every remainder class,
        // including rem < 4 (implicit wrap) and 4 <= rem < 12 (marker wrap).
        let sizes = [1usize, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        let msgs: Vec<Vec<u8>> = (0..240)
            .map(|i| vec![(i % 251) as u8; sizes[i % sizes.len()]])
            .collect();
        let (mut sim, a, b) = pair(RingMode::Coupled, 128, msgs.clone(), true);
        sim.run_until(SimTime::from_millis(50));
        assert!(sim.node::<Sender>(a).to_send.is_empty());
        let r = sim.node::<Receiver>(b);
        assert_eq!(r.got.len(), 240);
        for (i, (_, p)) in r.got.iter().enumerate() {
            assert_eq!(p.as_ref(), &msgs[i][..], "payload {i}");
        }
    }

    #[test]
    fn backpressure_without_acks() {
        // No acks: the sender must fill the ring and stall with Full.
        let msgs: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i; 20]).collect();
        let (mut sim, a, b) = pair(RingMode::Coupled, 256, msgs, false);
        sim.run_until(SimTime::from_millis(2));
        let s = sim.node::<Sender>(a);
        assert!(!s.to_send.is_empty(), "should have stalled");
        assert!(s.errors.contains(&RingError::Full));
        // Receiver got exactly what fit.
        let r = sim.node::<Receiver>(b);
        assert!(r.got.len() < 100 && !r.got.is_empty());
    }

    #[test]
    fn ack_is_monotone_and_idempotent() {
        let mut ring = RingSender::new(RegionId(0), 1024, RingMode::Coupled, &[1]);
        ring.ack(1, u64::MAX); // empty pending: no-op
        assert_eq!(ring.free_space(1), 1024);
        assert_eq!(ring.next_seq(1), 0);
    }

    #[test]
    fn too_large_payload_rejected() {
        // Half of a 64-byte ring holds a 20-byte payload and its framing
        // (sent over the node's loopback lane).
        let mut sim: Sim<Wire> = Sim::new(1, NetParams::rdma());
        struct Once {
            ep: Endpoint,
            ring: RingSender,
            out: Vec<Result<u64, RingError>>,
        }
        impl Process<Wire> for Once {
            fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
                assert_eq!(self.ring.max_payload(), 20);
                for len in [60, 21, 20] {
                    let payload = vec![0u8; len];
                    let sent = self
                        .ring
                        .send_to(ctx, &mut self.ep, 0, &payload, MsgKind::Payload);
                    self.out.push(sent);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
                self.ep.on_packet(ctx, from, msg.0);
            }
        }
        let mut ep = Endpoint::new(QpConfig::default());
        ep.connect(0);
        let region = ep.register_region(64);
        let id = sim.add_node(Box::new(Once {
            ep,
            ring: RingSender::new(region, 64, RingMode::Coupled, &[0]),
            out: Vec::new(),
        }));
        sim.run_until(SimTime::from_micros(10));
        let too_large = Err(RingError::TooLarge);
        assert_eq!(sim.node::<Once>(id).out, [too_large, too_large, Ok(0)]);
    }

    #[test]
    fn receiver_side_batching_under_pause() {
        // Pause the receiver: frames pile up and are drained as one batch.
        let msgs: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; 10]).collect();
        let (mut sim, _a, b) = pair(RingMode::Coupled, 8192, msgs, true);
        sim.pause_at(b, SimTime::ZERO, Duration::from_micros(500));
        sim.run_until(SimTime::from_millis(5));
        let r = sim.node::<Receiver>(b);
        assert_eq!(r.got.len(), 50);
        // The first poll after the pause drains a large batch.
        let max = r.batches.iter().copied().max().unwrap();
        assert!(max >= 20, "expected a big catch-up batch, got {max}");
    }

    #[test]
    fn retarget_lane_restarts_stream_in_fresh_region() {
        // Frames sent after a retarget start at seq 0 in the new region; the
        // old region keeps whatever the torn-down stream deposited there.
        let mut sim: Sim<Wire> = Sim::new(3, NetParams::rdma());
        struct S {
            ep: Endpoint,
            ring: RingSender,
        }
        impl Process<Wire> for S {
            fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
                self.ring
                    .send_to(ctx, &mut self.ep, 1, b"one", MsgKind::Payload)
                    .unwrap();
                self.ring
                    .send_to(ctx, &mut self.ep, 1, b"two", MsgKind::Payload)
                    .unwrap();
                ctx.set_timer(Duration::from_micros(100), 0);
            }
            fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
                self.ep.on_packet(ctx, from, msg.0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
                self.ring.retarget_lane(1, RegionId(2));
                let seq = self
                    .ring
                    .send_to(ctx, &mut self.ep, 1, b"three", MsgKind::Payload)
                    .unwrap();
                assert_eq!(seq, 0, "retarget restarts the sequence space");
            }
        }
        struct R {
            ep: Endpoint,
            old: RingReceiver,
            new: RingReceiver,
            got_old: Vec<Bytes>,
            got_new: Vec<Bytes>,
        }
        impl Process<Wire> for R {
            fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
                ctx.set_timer(Duration::from_micros(10), 0);
            }
            fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
                self.ep.on_packet(ctx, from, msg.0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
                self.got_old
                    .extend(self.old.poll(&mut self.ep).iter().map(RingFrame::payload));
                self.got_new
                    .extend(self.new.poll(&mut self.ep).iter().map(RingFrame::payload));
                ctx.set_timer(Duration::from_micros(10), 0);
            }
        }
        let mut sep = Endpoint::new(QpConfig::default());
        sep.connect(1);
        let sring = sep.register_region(1024);
        let mut rep = Endpoint::new(QpConfig::default());
        rep.connect(0);
        let r0 = rep.register_region(1024);
        let _spacer = rep.register_region(8);
        let r2 = rep.register_region(1024);
        assert_eq!(r2, RegionId(2));
        let _s = sim.add_node(Box::new(S {
            ep: sep,
            ring: RingSender::new(sring, 1024, RingMode::Coupled, &[1]),
        }));
        let r = sim.add_node(Box::new(R {
            ep: rep,
            old: RingReceiver::new(r0, 1024, RingMode::Coupled),
            new: RingReceiver::new(r2, 1024, RingMode::Coupled),
            got_old: vec![],
            got_new: vec![],
        }));
        sim.run_until(SimTime::from_millis(1));
        let rx = sim.node::<R>(r);
        assert_eq!(
            rx.got_old,
            vec![Bytes::from_static(b"one"), Bytes::from_static(b"two")]
        );
        assert_eq!(rx.got_new, vec![Bytes::from_static(b"three")]);
    }

    #[test]
    fn lanes_are_independent() {
        // One sender, two receivers; unicast different frames to each.
        let mut sim: Sim<Wire> = Sim::new(9, NetParams::rdma());
        struct Multi {
            ep: Endpoint,
            ring: RingSender,
        }
        impl Process<Wire> for Multi {
            fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
                self.ring
                    .send_to(ctx, &mut self.ep, 1, b"to-one", MsgKind::Payload)
                    .unwrap();
                self.ring
                    .send_to(ctx, &mut self.ep, 2, b"to-two", MsgKind::Payload)
                    .unwrap();
                self.ring
                    .send_to(ctx, &mut self.ep, 2, b"more-two", MsgKind::Payload)
                    .unwrap();
            }
            fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
                self.ep.on_packet(ctx, from, msg.0);
            }
        }
        let mut sep = Endpoint::new(QpConfig::default());
        sep.connect(1);
        sep.connect(2);
        let (sring, _) = plan(&mut sep, 1024);
        let sender = Multi {
            ep: sep,
            ring: RingSender::new(sring, 1024, RingMode::Coupled, &[1, 2]),
        };
        let mk_rx = || {
            let mut e = Endpoint::new(QpConfig::default());
            e.connect(0);
            let (ring, ack) = plan(&mut e, 1024);
            Receiver {
                ep: e,
                ring: RingReceiver::new(ring, 1024, RingMode::Coupled),
                ack_region: ack,
                sender: 0,
                push_acks: false,
                got: vec![],
                bodies: vec![],
                batches: vec![],
            }
        };
        let _s = sim.add_node(Box::new(sender));
        let r1 = sim.add_node(Box::new(mk_rx()));
        let r2 = sim.add_node(Box::new(mk_rx()));
        sim.run_until(SimTime::from_millis(1));
        let g1 = &sim.node::<Receiver>(r1).got;
        let g2 = &sim.node::<Receiver>(r2).got;
        assert_eq!(g1.len(), 1);
        assert_eq!(g1[0].1.as_ref(), b"to-one");
        assert_eq!(g2.len(), 2);
        assert_eq!(g2[0].1.as_ref(), b"to-two");
        assert_eq!(g2[1].1.as_ref(), b"more-two");
        // Per-lane sequencing: both lanes started at seq 0.
        assert_eq!(g1[0].0, 0);
        assert_eq!(g2[0].0, 0);
    }

    #[test]
    fn send_parts_frames_the_concatenation() {
        // Head and body land as one payload under one sequence number, byte
        // for byte what `send_to` of their concatenation writes. A short
        // body is copied into a flat frame; a long one lands as a view of
        // the sender's own buffer.
        let mut sim: Sim<Wire> = Sim::new(4, NetParams::rdma());
        let long = Bytes::from(vec![5u8; VIEW_MIN]);
        struct Parts {
            ep: Endpoint,
            ring: RingSender,
            long: Bytes,
        }
        impl Process<Wire> for Parts {
            fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
                let ep = &mut self.ep;
                let short = Bytes::from_static(b"lo");
                for (head, body) in [(&b"hel"[..], &short), (b"head", &self.long)] {
                    self.ring
                        .send_parts(ctx, ep, 1, head, body, MsgKind::Payload)
                        .unwrap();
                }
                self.ring
                    .send_to(ctx, ep, 1, b"hello", MsgKind::Payload)
                    .unwrap();
            }
            fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
                self.ep.on_packet(ctx, from, msg.0);
            }
        }
        let mut sep = Endpoint::new(QpConfig::default());
        sep.connect(1);
        let (sring, _) = plan(&mut sep, 4 * VIEW_MIN);
        let mut rep = Endpoint::new(QpConfig::default());
        rep.connect(0);
        let (rring, rack) = plan(&mut rep, 4 * VIEW_MIN);
        sim.add_node(Box::new(Parts {
            ep: sep,
            ring: RingSender::new(sring, 4 * VIEW_MIN, RingMode::Coupled, &[1]),
            long: long.clone(),
        }));
        let r = sim.add_node(Box::new(Receiver {
            ep: rep,
            ring: RingReceiver::new(rring, 4 * VIEW_MIN, RingMode::Coupled),
            ack_region: rack,
            sender: 0,
            push_acks: false,
            got: vec![],
            bodies: vec![],
            batches: vec![],
        }));
        sim.run_until(SimTime::from_millis(1));
        let rx = sim.node::<Receiver>(r);
        let hello = Bytes::from_static(b"hello");
        let head_long = Bytes::from_parts(&[b"head", &long]);
        assert_eq!(rx.got, [(0, hello.clone()), (1, head_long), (2, hello)]);
        assert!(rx.bodies[0].is_empty() && rx.bodies[2].is_empty());
        assert_eq!(rx.bodies[1].as_ptr(), long.as_ptr(), "the body was copied");
        assert_eq!(rx.ep.body_bytes_viewed, VIEW_MIN as u64);
        assert_eq!(rx.ep.body_bytes_copied, 0);
    }

    #[test]
    fn poll_survives_garbage_at_the_consume_position() {
        // A rebooted peer restarts its stream at offset zero of a region the
        // receiver is still mid-way through, so the bytes at the consume
        // position can be payload, not a header. Poll must refuse to decode
        // them — no panic, no garbage delivery, nothing consumed — and leave
        // the rebuild to the owner's stall detection.
        let garbage: [&[(u32, &[u8])]; 2] = [
            // Payload bytes read as a length word: frame would overrun the ring.
            &[(0, &0xdead_beef_u32.to_le_bytes())],
            // Plausible length but the wrong transport sequence: a stale
            // frame from a dead incarnation.
            &[(0, &5u32.to_le_bytes()), (4, &7u64.to_le_bytes())],
        ];
        for writes in garbage {
            let mut ep = Endpoint::new(QpConfig::default());
            let region = ep.register_region(256);
            let mut rx = RingReceiver::new(region, 256, RingMode::Coupled);
            for (off, bytes) in writes {
                ep.write_local(region, *off, bytes);
            }
            assert!(rx.poll(&mut ep).is_empty());
            assert_eq!(rx.next_seq(), 0);
            assert_eq!(ep.read(region, 0, 4), writes[0].1, "garbage consumed");
        }
    }

    #[test]
    fn poll_reads_a_ring_only_after_a_remote_write() {
        // The dirty contract: a fresh region is looked at once; after that
        // only a write through the NIC makes the ring worth reading. Bytes
        // the owner put there itself do not count.
        let frame = |seq: u64, payload: &[u8]| {
            let mut f = (payload.len() as u32 + 1).to_le_bytes().to_vec();
            f.extend_from_slice(&seq.to_le_bytes());
            f.extend_from_slice(payload);
            f
        };
        let mut ep = Endpoint::new(QpConfig::default());
        let region = ep.register_region(256);
        let mut rx = RingReceiver::new(region, 256, RingMode::Coupled);
        ep.write_local(region, 0, &frame(0, b"first"));
        assert_eq!(rx.poll(&mut ep).len(), 1, "a fresh region starts dirty");
        ep.write_local(region, 17, &frame(1, b"second"));
        assert!(rx.poll(&mut ep).is_empty(), "owner's own write marked");
        // (Frames arriving through the NIC between polls are what every
        // other test in this module delivers.)
    }
}
