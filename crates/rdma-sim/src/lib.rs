//! # rdma-sim — simulated RDMA verbs over `simnet`
//!
//! Models the subset of the ibverbs reliable-connection (RC) API that the
//! Acuerdo paper uses, with the performance-relevant behaviours made
//! explicit:
//!
//! * **Memory regions**: each node registers regions in a deterministic order
//!   (the "region plan"); a remote write names `(region, offset)`.
//! * **One-sided writes**: [`Endpoint::post_write`] charges the *sender* a
//!   verb-post CPU cost and puts the payload on the wire; when it arrives the
//!   bytes are deposited into the target's region with **zero target CPU**
//!   ([`simnet::DeliveryClass::Dma`]). Writes on one connection apply in FIFO
//!   order (reliable connection), and a later write to the same address
//!   overwrites an earlier one — the two properties the SST and the implicit
//!   acknowledgment scheme rely on.
//! * **Gathered writes**: [`Endpoint::post_gather`] posts a two-element
//!   gather list (a small head and a shared body), as an ibverbs work request
//!   with two SGEs: one post, one wire packet of the parts' summed size. The
//!   target keeps a body of at least [`VIEW_MIN`] bytes as a view of the
//!   sender's buffer instead of copying it (the memory model below).
//! * **Completions and selective signaling** (§2.1): the sender's NIC keeps a
//!   work request outstanding until it is acknowledged. Because the RC
//!   connection is FIFO, the completion of a later write acknowledges all
//!   earlier ones, so only every `signal_interval`-th write requests a
//!   completion (the paper signals every 1000 messages). A full send queue
//!   makes [`Endpoint::post_write`] fail with [`PostError::QueueFull`].
//! * **Dirty regions**: the endpoint keeps one bit per region, set when a
//!   remote write lands there and cleared when its reader looks
//!   ([`Endpoint::take_dirty`]; [`Endpoint::is_dirty`] tests it without
//!   clearing), so a busy-poll loop over many regions pays for the ones that
//!   changed, not for the table's width. The bits sit beside the region
//!   table, so testing one touches no region. Host-side bookkeeping only:
//!   what a reader finds in memory, and when, is unchanged.
//!
//! ## Memory model
//!
//! What a reader finds in a region is always the bytes the writes put there,
//! in order. How they are held is the simulator's business:
//!
//! * A gathered write whose body is at least [`VIEW_MIN`] bytes is kept as
//!   a *view*: its head and body, as the `Bytes` handles the sender posted.
//!   The region's own memory under a view is zero.
//! * One bit per 4 KiB page records whether the page may hold a nonzero
//!   byte; zeroing skips the pages whose bit is clear, so memory only views
//!   ever covered is never written, and never becomes resident.
//! * Zeroing a range that covers a view drops the view. A write, read or
//!   zeroing that covers only part of a view first copies the view into
//!   memory, so overwrites, torn reads and rkey drops behave byte for byte as
//!   they would on flat memory.
//! * [`Endpoint::take`] hands a range back as a head and the body of the
//!   view that ends it, and zeroes the range: how a ring consumes a frame.
//!
//! The endpoint is a plain struct embedded in each protocol node; packets
//! travel inside the protocol's own wire enum (which must implement
//! `From<RdmaPkt>`), so one simulation can mix RDMA traffic with client
//! traffic.

use bytes::{Buf, Bytes};
use simnet::params::cpu;
use simnet::{Counter, Ctx, DeliveryClass, MsgKind, NodeId};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Duration;

/// Identifier of a registered memory region. Region ids are assigned in
/// registration order and must be allocated identically on every node (see
/// the region-plan convention in `rdma-prims`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Number of bytes of RDMA header (RETH + BTH + ICRC) added to every write.
pub const WRITE_OVERHEAD: u32 = 30;
/// Wire size of a hardware acknowledgment packet.
pub const ACK_WIRE: u32 = 20;

/// Shortest gathered-write body the target keeps as a view rather than
/// copying into memory. Below it, the copy costs less host time than the
/// view's bookkeeping (DESIGN §4, "RDMA memory model", has the measured
/// crossover).
pub const VIEW_MIN: usize = 1024;

/// Granularity of a region's touched-page bits.
const PAGE: usize = 4096;

/// A packet of the simulated RDMA protocol.
#[derive(Clone, Debug)]
pub enum RdmaPkt {
    /// A one-sided write of `data` into `(region, offset)` at the
    /// destination.
    Write {
        region: RegionId,
        offset: u32,
        data: Bytes,
        /// `Some(wr)` if the sender requested a completion for work request
        /// index `wr` (selective signaling).
        signal: Option<u64>,
    },
    /// A one-sided write of a gather list ([`Endpoint::post_gather`]).
    /// Boxed, so that the packets of flat writes stay as small as they are.
    Gather(Box<Gather>),
    /// A one-sided read of `(region, offset, len)` at the destination
    /// (served by the target NIC with no target CPU).
    Read {
        region: RegionId,
        offset: u32,
        len: u32,
        /// Caller-chosen token echoed in the response.
        token: u64,
    },
    /// Data returned for a [`RdmaPkt::Read`].
    ReadResp { token: u64, data: Bytes },
    /// Hardware acknowledgment: completes every work request `<= upto` on the
    /// reverse connection.
    Ack { upto: u64 },
}

impl RdmaPkt {
    /// Where a write, flat or gathered, lands: `(region, offset)`.
    pub fn write_target(&self) -> Option<(RegionId, u32)> {
        match self {
            RdmaPkt::Write { region, offset, .. } => Some((*region, *offset)),
            RdmaPkt::Gather(g) => Some((g.region, g.offset)),
            _ => None,
        }
    }
}

/// A gathered write: `head` then `body` into `(region, offset)`, kept whole
/// as a view when `body` is at least [`VIEW_MIN`] bytes long.
#[derive(Clone, Debug)]
pub struct Gather {
    pub region: RegionId,
    pub offset: u32,
    pub head: Bytes,
    pub body: Bytes,
    /// As for [`RdmaPkt::Write`].
    pub signal: Option<u64>,
}

/// Why a post failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PostError {
    /// The send queue toward this peer is full (outstanding, unacknowledged
    /// work requests reached `sq_depth`). The paper's systems treat this as
    /// backpressure.
    QueueFull,
    /// No queue pair was set up toward this peer.
    NoConnection,
}

/// Per-peer reliable-connection state.
#[derive(Debug)]
struct Qp {
    /// Index of the next work request to post.
    next_wr: u64,
    /// Highest work request known completed (via an [`RdmaPkt::Ack`]).
    completed: u64,
    /// Writes posted since the last signaled one.
    unsignaled: u32,
}

/// Configuration for all of a node's queue pairs.
#[derive(Copy, Clone, Debug)]
pub struct QpConfig {
    /// Maximum outstanding (posted, not completed) work requests per peer.
    pub sq_depth: u32,
    /// Request a completion every this many writes (selective signaling; the
    /// paper uses 1000).
    pub signal_interval: u32,
    /// CPU charged to the sender per posted verb.
    pub post_cost: Duration,
}

impl Default for QpConfig {
    fn default() -> Self {
        QpConfig {
            sq_depth: 4096,
            signal_interval: 1000,
            post_cost: cpu::VERB_POST,
        }
    }
}

/// One registered region: flat memory plus the gathered writes held as
/// views (the module's memory model). Offsets are bytes from the region's start; every
/// method panics on a range past the region's end.
struct Region {
    mem: Vec<u8>,
    /// How far `mem` starts into its first 4 KiB page of address space:
    /// page `p` holds offsets `p * PAGE - skew ..` (an allocator puts its
    /// header ahead of a large buffer), so the bits below name the pages
    /// the operating system maps.
    skew: usize,
    /// Bit `p` set: page `p` of `mem` may hold a nonzero byte. A clear bit
    /// promises zeros, so zeroing skips the page and never writes it.
    touched: Vec<u64>,
    /// Gathered writes held as views, by start offset. They never overlap,
    /// and `mem` is zero under each.
    views: BTreeMap<usize, View>,
}

impl Region {
    fn new(len: usize) -> Self {
        let mem = vec![0; len];
        let skew = mem.as_ptr() as usize % PAGE;
        Region {
            touched: vec![0; (skew + len).div_ceil(PAGE).div_ceil(64)],
            mem,
            skew,
            views: BTreeMap::new(),
        }
    }

    /// The pages `lo..hi` (non-empty) lies on.
    fn pages(&self, lo: usize, hi: usize) -> std::ops::RangeInclusive<usize> {
        (lo + self.skew) / PAGE..=(hi - 1 + self.skew) / PAGE
    }

    fn mark(&mut self, lo: usize, hi: usize) {
        if lo < hi {
            for p in self.pages(lo, hi) {
                self.touched[p / 64] |= 1 << (p % 64);
            }
        }
    }

    /// Zero the memory of `lo..hi` (no view overlaps it): only touched pages
    /// are written, and one the range covers whole is untouched afterwards.
    fn zero_mem(&mut self, lo: usize, hi: usize) {
        assert!(lo <= hi && hi <= self.mem.len(), "zero out of range");
        if lo == hi {
            return;
        }
        for p in self.pages(lo, hi) {
            let bit = 1u64 << (p % 64);
            if self.touched[p / 64] & bit == 0 {
                continue;
            }
            let start = (p * PAGE).saturating_sub(self.skew);
            let end = ((p + 1) * PAGE - self.skew).min(self.mem.len());
            let (a, b) = (lo.max(start), hi.min(end));
            self.mem[a..b].fill(0);
            if (a, b) == (start, end) {
                self.touched[p / 64] &= !bit;
            }
        }
    }

    /// Copy the view starting at `start` into memory and forget it; its
    /// length.
    fn materialize(&mut self, start: usize) -> u64 {
        let view = self.views.remove(&start).expect("a view starts here");
        let mid = start + view.head.len();
        let end = mid + view.body.len();
        self.mem[start..mid].copy_from_slice(&view.head);
        self.mem[mid..end].copy_from_slice(&view.body);
        self.mark(start, end);
        (end - start) as u64
    }

    /// Start of the view that begins before `lo` and reaches past it.
    fn straddling(&self, lo: usize) -> Option<usize> {
        let (&s, v) = self.views.range(..lo).next_back()?;
        (s + v.len() > lo).then_some(s)
    }

    /// Start of the first view that begins inside `lo..hi`.
    fn first_inside(&self, lo: usize, hi: usize) -> Option<usize> {
        self.views.range(lo..hi).next().map(|(&s, _)| s)
    }

    /// Settle the views over `lo..hi` before it is written or zeroed: one
    /// inside it goes (its memory is already zero), one over only part of it
    /// (one can straddle each end) is copied in. Bytes copied.
    fn clear(&mut self, lo: usize, hi: usize) -> u64 {
        if self.views.is_empty() || lo == hi {
            return 0;
        }
        let mut copied = 0;
        if let Some(s) = self.straddling(lo) {
            copied += self.materialize(s);
        }
        while let Some(s) = self.first_inside(lo, hi) {
            if s + self.views[&s].len() > hi {
                copied += self.materialize(s);
            } else {
                self.views.remove(&s);
            }
        }
        copied
    }

    /// Zero `lo..hi`. Bytes of views copied in.
    fn zero(&mut self, lo: usize, hi: usize) -> u64 {
        let copied = self.clear(lo, hi);
        self.zero_mem(lo, hi);
        copied
    }

    /// Copy `data` into memory at `lo`. Bytes of views copied in.
    fn store(&mut self, lo: usize, data: &[u8]) -> u64 {
        let hi = lo + data.len();
        assert!(hi <= self.mem.len(), "write out of range");
        let copied = self.clear(lo, hi);
        self.mem[lo..hi].copy_from_slice(data);
        self.mark(lo, hi);
        copied
    }

    /// Hold a gathered write as a view at `lo`. Bytes of earlier views
    /// copied in.
    fn land_view(&mut self, lo: usize, view: View) -> u64 {
        let copied = self.zero(lo, lo + view.len());
        self.views.insert(lo, view);
        copied
    }

    /// The bytes of `lo..hi` without changing how they are held: borrowed
    /// from memory when no view overlaps them, or from the view part that
    /// holds them all, and assembled otherwise.
    fn peek(&self, lo: usize, hi: usize) -> Cow<'_, [u8]> {
        let flat = &self.mem[lo..hi];
        if self.views.is_empty() || lo == hi {
            return Cow::Borrowed(flat);
        }
        let first = self.straddling(lo).unwrap_or(lo);
        let mut over = self.views.range(first..hi).peekable();
        let Some(&(&s, v)) = over.peek() else {
            return Cow::Borrowed(flat);
        };
        if let Some(part) = v.part(lo.wrapping_sub(s), hi.wrapping_sub(s)) {
            return Cow::Borrowed(part);
        }
        let mut out = flat.to_vec();
        for (&s, v) in over {
            let (a, b) = (s.max(lo), (s + v.len()).min(hi));
            v.copy_out(a - s, &mut out[a - lo..b - lo]);
        }
        Cow::Owned(out)
    }

    /// `lo..hi` as a flat slice: every view over it is copied in first.
    fn read(&mut self, lo: usize, hi: usize) -> (&[u8], u64) {
        assert!(lo <= hi && hi <= self.mem.len(), "read out of range");
        let mut copied = 0;
        if !self.views.is_empty() && lo < hi {
            if let Some(s) = self.straddling(lo) {
                copied += self.materialize(s);
            }
            while let Some(s) = self.first_inside(lo, hi) {
                copied += self.materialize(s);
            }
        }
        (&self.mem[lo..hi], copied)
    }

    /// `lo..hi` less its first `skip` bytes, as `(head, body)`; then the
    /// whole range is zeroed. When a view ends the range, `body` is its body
    /// and `head` the bytes before that (the view's own head, handed over
    /// as it is when the view starts the range, after a copy of any flat
    /// bytes ahead of it). Otherwise `head` is a copy and `body` is empty.
    fn take(&mut self, lo: usize, hi: usize, skip: usize) -> (Bytes, Bytes, u64) {
        assert!(lo + skip <= hi && hi <= self.mem.len(), "take out of range");
        let mut copied = 0;
        let mut last = None;
        if !self.views.is_empty() && lo < hi {
            if let Some(s) = self.straddling(lo) {
                copied += self.materialize(s);
            }
            if let Some((&s, v)) = self.views.range(lo..hi).next_back() {
                if s + v.len() == hi {
                    last = self.views.remove(&s).map(|v| (s, v));
                }
            }
            while let Some(s) = self.first_inside(lo, hi) {
                copied += self.materialize(s);
            }
        }
        let (head, body) = match last {
            None => (
                Bytes::copy_from_slice(&self.mem[lo + skip..hi]),
                Bytes::new(),
            ),
            Some((s, v)) => {
                let (mut head, mut body) = if s == lo {
                    (v.head, v.body)
                } else {
                    (Bytes::from_parts(&[&self.mem[lo..s], &v.head]), v.body)
                };
                if head.len() < skip {
                    // The body starts inside the bytes to skip: join the two
                    // rather than split the body.
                    head.unsplit(std::mem::take(&mut body));
                }
                head.advance(skip);
                (head, body)
            }
        };
        self.zero_mem(lo, hi);
        (head, body, copied)
    }
}

/// A gathered write held as it landed, `head` then `body`, instead of as
/// bytes in memory.
struct View {
    head: Bytes,
    body: Bytes,
}

impl View {
    fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// Bytes `a..b` of the view when one part holds them all.
    fn part(&self, a: usize, b: usize) -> Option<&[u8]> {
        let h = self.head.len();
        if a <= b && b <= h {
            Some(&self.head[a..b])
        } else if h <= a && a <= b && b <= self.len() {
            Some(&self.body[a - h..b - h])
        } else {
            None
        }
    }

    /// Copy the view's bytes from offset `from` into `dst`.
    fn copy_out(&self, from: usize, dst: &mut [u8]) {
        let h = self.head.len();
        let to = from + dst.len();
        let (a, b) = (from.min(h), to.min(h));
        dst[..b - a].copy_from_slice(&self.head[a..b]);
        let (a, b) = (from.max(h) - h, to.max(h) - h);
        let n = dst.len();
        dst[n - (b - a)..].copy_from_slice(&self.body[a..b]);
    }
}

/// One node's RDMA endpoint: registered memory plus queue pairs to peers.
pub struct Endpoint {
    regions: Vec<Region>,
    /// Bit `r` set: a remote write landed in region `r` since
    /// [`Endpoint::take_dirty`] last cleared it. A fresh region starts dirty
    /// (its reader has never looked); the owner's own
    /// `write_local`/`zero_local` do not mark it, the owner knows what it
    /// wrote.
    dirty: Vec<u64>,
    /// Queue pairs indexed by peer id (node ids are dense, so a flat table
    /// beats hashing on the per-post hot path).
    qps: Vec<Option<Qp>>,
    config: QpConfig,
    /// Completed one-sided reads, drained with
    /// [`Endpoint::take_read_completions`].
    reads_done: Vec<(u64, Bytes)>,
    /// Total one-sided writes applied into local memory.
    pub writes_applied: u64,
    /// Total writes posted by this endpoint.
    pub writes_posted: u64,
    /// Gathered-write body bytes copied into this endpoint's memory: bodies
    /// shorter than [`VIEW_MIN`] as they land, and views copied in by a
    /// later access that needs them flat.
    pub body_bytes_copied: u64,
    /// Gathered-write body bytes that landed here as views.
    pub body_bytes_viewed: u64,
}

impl Endpoint {
    /// Create an endpoint with the given queue-pair configuration.
    pub fn new(config: QpConfig) -> Self {
        Endpoint {
            regions: Vec::new(),
            dirty: Vec::new(),
            qps: Vec::new(),
            config,
            reads_done: Vec::new(),
            writes_applied: 0,
            writes_posted: 0,
            body_bytes_copied: 0,
            body_bytes_viewed: 0,
        }
    }

    /// Register a zero-initialised memory region of `len` bytes and return
    /// its id. Registration order must match on all nodes.
    pub fn register_region(&mut self, len: usize) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region::new(len));
        if id.0.is_multiple_of(64) {
            self.dirty.push(0);
        }
        self.mark_dirty(id);
        id
    }

    fn mark_dirty(&mut self, region: RegionId) {
        let r = region.0 as usize;
        self.dirty[r / 64] |= 1 << (r % 64);
    }

    /// Whether a remote write landed in `region` since the last
    /// [`Endpoint::take_dirty`] (or since registration), leaving the flag
    /// as it is.
    ///
    /// # Panics
    /// On a region this endpoint never registered.
    pub fn is_dirty(&self, region: RegionId) -> bool {
        let r = region.0 as usize;
        assert!(r < self.regions.len(), "unregistered region {r}");
        self.dirty[r / 64] & (1 << (r % 64)) != 0
    }

    /// Whether a remote write landed in `region` since the last call (or
    /// since registration), clearing the flag. One reader per region: a
    /// poller that finds `false` would read the bytes it read last time.
    ///
    /// # Panics
    /// On a region this endpoint never registered.
    pub fn take_dirty(&mut self, region: RegionId) -> bool {
        let dirty = self.is_dirty(region);
        let r = region.0 as usize;
        self.dirty[r / 64] &= !(1 << (r % 64));
        dirty
    }

    /// Establish a reliable connection toward `peer` (exchange of rkeys in
    /// the real protocol; a bookkeeping entry here).
    pub fn connect(&mut self, peer: NodeId) {
        if peer >= self.qps.len() {
            self.qps.resize_with(peer + 1, || None);
        }
        self.qps[peer].get_or_insert(Qp {
            next_wr: 0,
            completed: 0,
            unsignaled: 0,
        });
    }

    /// Tear down and re-establish the connection toward `peer`: all
    /// outstanding work requests are discarded and work-request numbering
    /// restarts at zero. Called when `peer` reboots (its old incarnation can
    /// never ack the in-flight requests).
    pub fn reset_connection(&mut self, peer: NodeId) {
        if let Some(qp) = self.qps.get_mut(peer).and_then(Option::as_mut) {
            qp.next_wr = 0;
            qp.completed = 0;
            qp.unsignaled = 0;
        }
    }

    /// Whether `k` more posts toward `peer` would fit in the send queue.
    pub fn can_post(&self, peer: NodeId, k: u32) -> bool {
        match self.qps.get(peer).and_then(Option::as_ref) {
            Some(q) => q.next_wr - q.completed + u64::from(k) <= u64::from(self.config.sq_depth),
            None => false,
        }
    }

    /// Outstanding (not yet completed) work requests toward `peer`.
    pub fn outstanding(&self, peer: NodeId) -> u64 {
        self.qps
            .get(peer)
            .and_then(Option::as_ref)
            .map(|q| q.next_wr - q.completed)
            .unwrap_or(0)
    }

    fn region(&self, region: RegionId) -> &Region {
        &self.regions[region.0 as usize]
    }

    fn region_mut(&mut self, region: RegionId) -> &mut Region {
        &mut self.regions[region.0 as usize]
    }

    /// Read `len` bytes of local region memory as one flat slice, copying
    /// in any view they overlap (see [`Endpoint::peek`] for a read that
    /// leaves views alone).
    ///
    /// # Panics
    /// On out-of-range access (a protocol bug, not a runtime condition).
    pub fn read(&mut self, region: RegionId, offset: u32, len: usize) -> &[u8] {
        let lo = offset as usize;
        let r = &mut self.regions[region.0 as usize];
        let (bytes, copied) = r.read(lo, lo + len);
        self.body_bytes_copied += copied;
        bytes
    }

    /// The same bytes as [`Endpoint::read`], through a shared borrow:
    /// borrowed from memory when no view overlaps them, assembled into a
    /// fresh buffer otherwise.
    ///
    /// # Panics
    /// On out-of-range access.
    pub fn peek(&self, region: RegionId, offset: u32, len: usize) -> Cow<'_, [u8]> {
        let lo = offset as usize;
        self.region(region).peek(lo, lo + len)
    }

    /// Consume `len` bytes of local region memory: returns all of them but
    /// the first `skip` (a frame's header, say) as `(head, body)`, and
    /// leaves the range zero. When a view ends the range, `body` is its body
    /// and `head` the bytes before that, both handed over as they landed
    /// when the view starts the range too; otherwise `head` is a copy and
    /// `body` is empty.
    ///
    /// # Panics
    /// On out-of-range access, or `skip` past `len`.
    pub fn take(
        &mut self,
        region: RegionId,
        offset: u32,
        len: usize,
        skip: usize,
    ) -> (Bytes, Bytes) {
        let lo = offset as usize;
        let (head, body, copied) = self.region_mut(region).take(lo, lo + len, skip);
        self.body_bytes_copied += copied;
        (head, body)
    }

    /// Write local region memory (the local half of an SST update, before
    /// pushing to peers).
    pub fn write_local(&mut self, region: RegionId, offset: u32, data: &[u8]) {
        let copied = self.region_mut(region).store(offset as usize, data);
        self.body_bytes_copied += copied;
    }

    /// Zero `len` bytes of local region memory (ring consumption) without
    /// materializing a zero buffer.
    pub fn zero_local(&mut self, region: RegionId, offset: u32, len: usize) {
        let lo = offset as usize;
        let copied = self.region_mut(region).zero(lo, lo + len);
        self.body_bytes_copied += copied;
    }

    /// Length of a region, in bytes.
    pub fn region_len(&self, region: RegionId) -> usize {
        self.region(region).mem.len()
    }

    /// Post a one-sided write of `data` into `(region, offset)` at `dst`.
    ///
    /// Charges the verb-post CPU cost, consumes a send-queue slot, and
    /// requests a completion every `signal_interval` posts. The write is
    /// delivered [`DeliveryClass::Dma`]: it lands in the target's memory even
    /// if the target process is descheduled. `kind` classifies the bytes for
    /// the resource-accounting layer (the caller knows whether this write
    /// carries payload, an SST/ack row, a retransmission, or control state —
    /// the verb layer does not).
    pub fn post_write<M: From<RdmaPkt>>(
        &mut self,
        ctx: &mut Ctx<M>,
        dst: NodeId,
        region: RegionId,
        offset: u32,
        data: Bytes,
        kind: MsgKind,
    ) -> Result<(), PostError> {
        let signal = self.post_wr(ctx, dst)?;
        let wire = data.len() as u32 + WRITE_OVERHEAD;
        let pkt = RdmaPkt::Write {
            region,
            offset,
            data,
            signal,
        };
        ctx.send_kind(dst, DeliveryClass::Dma, wire, kind, M::from(pkt));
        Ok(())
    }

    /// [`Endpoint::post_write`] of the gather list `head`, `body`: one post
    /// and one packet, which land as `head` followed by `body`. Both are
    /// shared with the caller, never copied on the way; the target keeps
    /// them as a view when the body is at least [`VIEW_MIN`] bytes long.
    #[allow(clippy::too_many_arguments)]
    pub fn post_gather<M: From<RdmaPkt>>(
        &mut self,
        ctx: &mut Ctx<M>,
        dst: NodeId,
        region: RegionId,
        offset: u32,
        head: Bytes,
        body: Bytes,
        kind: MsgKind,
    ) -> Result<(), PostError> {
        let signal = self.post_wr(ctx, dst)?;
        let wire = (head.len() + body.len()) as u32 + WRITE_OVERHEAD;
        let pkt = RdmaPkt::Gather(Box::new(Gather {
            region,
            offset,
            head,
            body,
            signal,
        }));
        ctx.send_kind(dst, DeliveryClass::Dma, wire, kind, M::from(pkt));
        Ok(())
    }

    /// Take a send-queue slot toward `dst` for one write and charge its
    /// post; whether it requests a completion.
    fn post_wr<M>(&mut self, ctx: &mut Ctx<M>, dst: NodeId) -> Result<Option<u64>, PostError> {
        let cfg = self.config;
        let qp = self
            .qps
            .get_mut(dst)
            .and_then(Option::as_mut)
            .ok_or(PostError::NoConnection)?;
        if qp.next_wr - qp.completed >= u64::from(cfg.sq_depth) {
            return Err(PostError::QueueFull);
        }
        let wr = qp.next_wr;
        qp.next_wr += 1;
        qp.unsignaled += 1;
        let signal = if qp.unsignaled >= cfg.signal_interval {
            qp.unsignaled = 0;
            Some(wr)
        } else {
            None
        };
        self.writes_posted += 1;
        ctx.count(Counter::VerbPosts, 1);
        ctx.use_cpu(cfg.post_cost);
        Ok(signal)
    }

    /// Post a one-sided read of `(region, offset, len)` at `dst`; the data
    /// arrives later as a completion drained with
    /// [`Endpoint::take_read_completions`]. The target's CPU is never
    /// involved — its NIC serves the bytes (this is the "gets bypass the
    /// broadcast instance" path of §4.3 and DARE's log-probe primitive).
    pub fn post_read<M: From<RdmaPkt>>(
        &mut self,
        ctx: &mut Ctx<M>,
        dst: NodeId,
        region: RegionId,
        offset: u32,
        len: u32,
        token: u64,
    ) -> Result<(), PostError> {
        let cfg = self.config;
        let qp = self
            .qps
            .get_mut(dst)
            .and_then(Option::as_mut)
            .ok_or(PostError::NoConnection)?;
        if qp.next_wr - qp.completed >= u64::from(cfg.sq_depth) {
            return Err(PostError::QueueFull);
        }
        // Reads are always "signaled": the response is the completion.
        qp.next_wr += 1;
        qp.completed += 1; // retired by the response itself
        ctx.count(Counter::VerbPosts, 1);
        ctx.use_cpu(cfg.post_cost);
        ctx.send(
            dst,
            DeliveryClass::Dma,
            WRITE_OVERHEAD,
            M::from(RdmaPkt::Read {
                region,
                offset,
                len,
                token,
            }),
        );
        Ok(())
    }

    /// Drain data returned by completed [`Endpoint::post_read`]s, in
    /// completion order, as `(token, data)` pairs.
    pub fn take_read_completions(&mut self) -> Vec<(u64, Bytes)> {
        std::mem::take(&mut self.reads_done)
    }

    /// Apply a write of `head` then `body` that arrived from `from` (no
    /// CPU charge — this is the NIC), and emit a hardware ack if a
    /// completion was requested.
    #[allow(clippy::too_many_arguments)]
    fn land<M: From<RdmaPkt>>(
        &mut self,
        ctx: &mut Ctx<M>,
        from: NodeId,
        region: RegionId,
        offset: u32,
        head: Bytes,
        body: Bytes,
        signal: Option<u64>,
    ) {
        // NIC-side rkey/bounds check: a write through a stale view of this
        // endpoint's region table (the sender targeting a region a reboot
        // de-registered) is dropped, not applied — real hardware fails the
        // rkey validation. The resync handshake retargets the stream
        // afterwards.
        let lo = offset as usize;
        let at = lo + head.len();
        let Some(r) = self
            .regions
            .get_mut(region.0 as usize)
            .filter(|r| at + body.len() <= r.mem.len())
        else {
            ctx.count(Counter::RkeyDrops, 1);
            return;
        };
        self.writes_applied += 1;
        ctx.count(Counter::DmaWritesApplied, 1);
        let len = body.len() as u64;
        if body.len() >= VIEW_MIN {
            self.body_bytes_viewed += len;
            self.body_bytes_copied += r.land_view(lo, View { head, body });
        } else {
            self.body_bytes_copied += r.store(lo, &head);
            if len > 0 {
                self.body_bytes_copied += r.store(at, &body) + len;
            }
        }
        self.mark_dirty(region);
        if let Some(wr) = signal {
            // Generated by the NIC: no CPU charge.
            ctx.send_kind(
                from,
                DeliveryClass::Dma,
                ACK_WIRE,
                MsgKind::Ack,
                M::from(RdmaPkt::Ack { upto: wr }),
            );
        }
    }

    /// Handle an incoming RDMA packet. For a write, deposits the bytes into
    /// local memory (no CPU charge — this is the NIC) and emits a hardware
    /// ack if a completion was requested. For a read, serves the bytes from
    /// local memory (again the NIC, no CPU). For an ack, retires send-queue
    /// slots.
    pub fn on_packet<M: From<RdmaPkt>>(&mut self, ctx: &mut Ctx<M>, from: NodeId, pkt: RdmaPkt) {
        match pkt {
            RdmaPkt::Write {
                region,
                offset,
                data,
                signal,
            } => self.land(ctx, from, region, offset, data, Bytes::new(), signal),
            RdmaPkt::Gather(g) => {
                let Gather {
                    region,
                    offset,
                    head,
                    body,
                    signal,
                } = *g;
                self.land(ctx, from, region, offset, head, body, signal)
            }
            RdmaPkt::Read {
                region,
                offset,
                len,
                token,
            } => {
                // Same rkey/bounds check as for writes: a read through a
                // stale region table is dropped (no response; the reader's
                // request simply times out, as on real hardware).
                let lo = offset as usize;
                let Some(r) = self
                    .regions
                    .get(region.0 as usize)
                    .filter(|r| lo + len as usize <= r.mem.len())
                else {
                    ctx.count(Counter::RkeyDrops, 1);
                    return;
                };
                let data = Bytes::copy_from_slice(&r.peek(lo, lo + len as usize));
                ctx.send(
                    from,
                    DeliveryClass::Dma,
                    len + WRITE_OVERHEAD,
                    M::from(RdmaPkt::ReadResp { token, data }),
                );
            }
            RdmaPkt::ReadResp { token, data } => {
                ctx.count(Counter::CompletionsPolled, 1);
                self.reads_done.push((token, data));
            }
            RdmaPkt::Ack { upto } => {
                if let Some(qp) = self.qps.get_mut(from).and_then(Option::as_mut) {
                    let before = qp.completed;
                    // The min-clamp discards acks from a peer's previous
                    // incarnation after a connection reset: a completion can
                    // never outrun what this connection actually posted.
                    qp.completed = qp.completed.max(upto + 1).min(qp.next_wr);
                    ctx.count(Counter::CompletionsPolled, qp.completed - before);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetParams, Process, Sim, SimTime};

    /// Test node: an endpoint plus a script of writes to fire at start.
    struct TestNode {
        ep: Endpoint,
        script: Vec<(NodeId, RegionId, u32, Vec<u8>)>,
        post_errors: Vec<PostError>,
    }

    #[derive(Clone, Debug)]
    struct Wire(RdmaPkt);
    impl From<RdmaPkt> for Wire {
        fn from(p: RdmaPkt) -> Self {
            Wire(p)
        }
    }

    impl Process<Wire> for TestNode {
        fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
            let script = std::mem::take(&mut self.script);
            for (dst, region, offset, data) in script {
                if let Err(e) = self.ep.post_write(
                    ctx,
                    dst,
                    region,
                    offset,
                    Bytes::from(data),
                    MsgKind::Payload,
                ) {
                    self.post_errors.push(e);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
            self.ep.on_packet(ctx, from, msg.0);
        }
    }

    fn two_nodes(cfg: QpConfig) -> (Sim<Wire>, NodeId, NodeId) {
        let mut sim = Sim::new(1, NetParams::rdma());
        let mk = || {
            let mut ep = Endpoint::new(cfg);
            ep.register_region(1024);
            ep.connect(0);
            ep.connect(1);
            TestNode {
                ep,
                script: vec![],
                post_errors: vec![],
            }
        };
        let a = sim.add_node(Box::new(mk()));
        let b = sim.add_node(Box::new(mk()));
        (sim, a, b)
    }

    #[test]
    fn write_lands_in_remote_memory() {
        let (mut sim, a, b) = two_nodes(QpConfig::default());
        sim.node_mut::<TestNode>(a)
            .script
            .push((b, RegionId(0), 16, vec![7, 8, 9]));
        sim.run_until(SimTime::from_millis(1));
        let n = sim.node::<TestNode>(b);
        assert_eq!(n.ep.peek(RegionId(0), 16, 3)[..], [7, 8, 9]);
        assert_eq!(n.ep.writes_applied, 1);
    }

    #[test]
    fn remote_writes_mark_their_region_dirty_and_nothing_else_does() {
        // 70 regions, so the bits span two words.
        const REGIONS: u32 = 70;
        let landed = [0, 63, 64, 69];
        let (mut sim, a, b) = two_nodes(QpConfig::default());
        {
            let ep = &mut sim.node_mut::<TestNode>(b).ep;
            for _ in 1..REGIONS {
                ep.register_region(64);
            }
            for r in (0..REGIONS).map(RegionId) {
                assert!(ep.is_dirty(r), "fresh region {r:?} starts dirty");
                assert!(ep.is_dirty(r), "testing leaves the flag");
                assert!(ep.take_dirty(r));
                assert!(!ep.take_dirty(r), "taking clears the flag");
            }
            for r in (0..REGIONS).map(RegionId) {
                ep.write_local(r, 0, &[1]);
                ep.zero_local(r, 0, 1);
                assert!(!ep.is_dirty(r), "the owner's own writes mark {r:?}");
            }
        }
        // One applied write into each landed region, and two the rkey check
        // drops: one past a registered region's end, one into a region
        // never registered.
        let script = &mut sim.node_mut::<TestNode>(a).script;
        for &r in &landed {
            script.push((b, RegionId(r), 16, vec![7]));
        }
        script.push((b, RegionId(5), 64, vec![7]));
        script.push((b, RegionId(REGIONS), 0, vec![7]));
        sim.run_until(SimTime::from_millis(1));
        let ep = &mut sim.node_mut::<TestNode>(b).ep;
        assert_eq!(ep.writes_applied, landed.len() as u64);
        for r in 0..REGIONS {
            let want = landed.contains(&r);
            assert_eq!(ep.is_dirty(RegionId(r)), want, "region {r}");
            assert_eq!(ep.take_dirty(RegionId(r)), want, "region {r}");
            assert!(!ep.is_dirty(RegionId(r)), "region {r} still dirty");
        }
        // A registration after writes have landed starts dirty too, and
        // marks nothing else.
        let fresh = ep.register_region(64);
        assert_eq!(fresh, RegionId(REGIONS));
        assert!(ep.is_dirty(fresh));
        assert!((0..REGIONS).all(|r| !ep.is_dirty(RegionId(r))));
    }

    #[test]
    fn writes_apply_in_fifo_order_and_overwrite() {
        let (mut sim, a, b) = two_nodes(QpConfig::default());
        {
            let n = sim.node_mut::<TestNode>(a);
            for v in 1..=50u8 {
                n.script.push((b, RegionId(0), 0, vec![v]));
            }
        }
        sim.run_until(SimTime::from_millis(1));
        // Last write wins: FIFO order means the final value is 50.
        assert_eq!(sim.node::<TestNode>(b).ep.peek(RegionId(0), 0, 1)[..], [50]);
    }

    #[test]
    fn write_lands_while_target_descheduled() {
        let (mut sim, a, b) = two_nodes(QpConfig::default());
        sim.pause_at(b, SimTime::ZERO, Duration::from_millis(10));
        sim.node_mut::<TestNode>(a)
            .script
            .push((b, RegionId(0), 0, vec![42]));
        // Run only 1 ms: the target process is still paused, yet memory
        // already holds the data — the one-sidedness property.
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.node::<TestNode>(b).ep.peek(RegionId(0), 0, 1)[..], [42]);
    }

    #[test]
    fn selective_signaling_acks_periodically() {
        let cfg = QpConfig {
            sq_depth: 4096,
            signal_interval: 10,
            post_cost: Duration::ZERO,
        };
        let (mut sim, a, b) = two_nodes(cfg);
        {
            let n = sim.node_mut::<TestNode>(a);
            for _ in 0..25 {
                n.script.push((b, RegionId(0), 0, vec![1]));
            }
        }
        sim.run_until(SimTime::from_millis(1));
        let n = sim.node::<TestNode>(a);
        // Signals at wr 9 and wr 19 → completed = 20; 5 still outstanding.
        assert_eq!(n.ep.outstanding(b), 5);
    }

    #[test]
    fn queue_full_backpressure() {
        let cfg = QpConfig {
            sq_depth: 8,
            signal_interval: 1000, // never signals within depth → fills up
            post_cost: Duration::ZERO,
        };
        let (mut sim, a, b) = two_nodes(cfg);
        {
            let n = sim.node_mut::<TestNode>(a);
            for _ in 0..12 {
                n.script.push((b, RegionId(0), 0, vec![1]));
            }
        }
        sim.run_until(SimTime::from_millis(1));
        let n = sim.node::<TestNode>(a);
        assert_eq!(n.post_errors.len(), 4);
        assert!(n.post_errors.iter().all(|e| *e == PostError::QueueFull));
        assert_eq!(sim.node::<TestNode>(b).ep.writes_applied, 8);
    }

    #[test]
    fn no_connection_error() {
        let mut ep = Endpoint::new(QpConfig::default());
        ep.register_region(64);
        let mut sim: Sim<Wire> = Sim::new(3, NetParams::rdma());
        let a = sim.add_node(Box::new(TestNode {
            ep,
            script: vec![(1, RegionId(0), 0, vec![1])],
            post_errors: vec![],
        }));
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(
            sim.node::<TestNode>(a).post_errors,
            vec![PostError::NoConnection]
        );
    }

    #[test]
    fn posts_consume_sender_cpu() {
        let cfg = QpConfig {
            post_cost: Duration::from_micros(2),
            ..QpConfig::default()
        };
        let (mut sim, a, b) = two_nodes(cfg);
        {
            let n = sim.node_mut::<TestNode>(a);
            for _ in 0..10 {
                n.script.push((b, RegionId(0), 0, vec![1]));
            }
        }
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.node::<TestNode>(b).ep.writes_applied, 10);
        assert!(sim.stats().dma_msgs >= 10);
    }

    #[test]
    fn gathered_writes_leave_the_packet_size_of_flat_ones_alone() {
        // Every event in the engine carries a packet; the gather list is
        // boxed so that the flat writes of small frames and SST rows do not
        // pay for it (three words of handle plus the signal and address).
        assert_eq!(std::mem::size_of::<RdmaPkt>(), 48);
    }

    #[test]
    fn local_read_write_roundtrip() {
        let mut ep = Endpoint::new(QpConfig::default());
        let r = ep.register_region(128);
        assert_eq!(ep.region_len(r), 128);
        ep.write_local(r, 100, &[1, 2, 3]);
        assert_eq!(ep.read(r, 100, 3), &[1, 2, 3]);
        assert_eq!(ep.read(r, 0, 4), &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        let mut ep = Endpoint::new(QpConfig::default());
        let r = ep.register_region(8);
        let _ = ep.read(r, 4, 8);
    }

    #[test]
    fn region_ids_are_sequential() {
        let mut ep = Endpoint::new(QpConfig::default());
        assert_eq!(ep.register_region(8), RegionId(0));
        assert_eq!(ep.register_region(8), RegionId(1));
        assert_eq!(ep.register_region(8), RegionId(2));
    }

    /// Node that reads remote memory at start and collects completions on a
    /// poll timer.
    struct Reader {
        ep: Endpoint,
        target: NodeId,
        got: Vec<(u64, Vec<u8>)>,
    }

    impl Process<Wire> for Reader {
        fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
            self.ep
                .post_read(ctx, self.target, RegionId(0), 16, 3, 77)
                .unwrap();
            self.ep
                .post_read(ctx, self.target, RegionId(0), 0, 2, 78)
                .unwrap();
            ctx.set_timer(Duration::from_micros(1), 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
            self.ep.on_packet(ctx, from, msg.0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
            for (tok, data) in self.ep.take_read_completions() {
                self.got.push((tok, data.to_vec()));
            }
            ctx.set_timer(Duration::from_micros(1), 0);
        }
    }

    #[test]
    fn one_sided_read_returns_remote_bytes_without_target_cpu() {
        let mut sim: Sim<Wire> = Sim::new(2, NetParams::rdma());
        let mut rep = Endpoint::new(QpConfig::default());
        rep.connect(1);
        rep.register_region(64);
        let reader = sim.add_node(Box::new(Reader {
            ep: rep,
            target: 1,
            got: vec![],
        }));
        let mut tep = Endpoint::new(QpConfig::default());
        tep.connect(0);
        tep.register_region(64);
        tep.write_local(RegionId(0), 16, &[7, 8, 9]);
        tep.write_local(RegionId(0), 0, &[1, 2]);
        let target = sim.add_node(Box::new(TestNode {
            ep: tep,
            script: vec![],
            post_errors: vec![],
        }));
        // The target process is descheduled for the whole run: the NIC
        // serves the reads anyway.
        sim.pause_at(target, SimTime::ZERO, Duration::from_millis(10));
        sim.run_until(SimTime::from_millis(1));
        let got = &sim.node::<Reader>(reader).got;
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (77, vec![7, 8, 9]));
        assert_eq!(got[1], (78, vec![1, 2]));
    }

    #[test]
    fn read_requires_connection() {
        let mut ep = Endpoint::new(QpConfig::default());
        ep.register_region(8);
        let mut sim: Sim<Wire> = Sim::new(3, NetParams::rdma());
        struct NoConn {
            ep: Endpoint,
            err: Option<PostError>,
        }
        impl Process<Wire> for NoConn {
            fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
                self.err = self.ep.post_read(ctx, 1, RegionId(0), 0, 4, 0).err();
            }
            fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
                self.ep.on_packet(ctx, from, msg.0);
            }
        }
        let a = sim.add_node(Box::new(NoConn { ep, err: None }));
        sim.run_until(SimTime::from_micros(10));
        assert_eq!(sim.node::<NoConn>(a).err, Some(PostError::NoConnection));
    }

    /// Node that posts whatever the test queues for it, one batch per
    /// microsecond, and collects one-sided read completions.
    struct Poster {
        ep: Endpoint,
        queue: Vec<Post>,
        reads: Vec<(u64, Bytes)>,
    }

    enum Post {
        Write(RegionId, u32, Bytes, Bytes),
        Read(u32, u32, u64),
    }

    impl Process<Wire> for Poster {
        fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
            ctx.set_timer(Duration::from_micros(1), 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
            self.ep.on_packet(ctx, from, msg.0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Wire>, _t: u64) {
            for post in std::mem::take(&mut self.queue) {
                let posted = match post {
                    Post::Write(region, off, head, body) => {
                        self.ep
                            .post_gather(ctx, 1, region, off, head, body, MsgKind::Payload)
                    }
                    Post::Read(off, len, token) => {
                        self.ep.post_read(ctx, 1, RegionId(0), off, len, token)
                    }
                };
                posted.expect("the send queue never fills here");
            }
            self.reads.extend(self.ep.take_read_completions());
            ctx.set_timer(Duration::from_micros(1), 0);
        }
    }

    /// The region of the differential test: a partial last page.
    const DIFF_LEN: usize = 3 * PAGE + 100;

    /// The representation invariants: views in bounds and disjoint, memory
    /// zero under each, and zero on every untouched page.
    fn check_region(r: &Region) {
        let mut end = 0;
        for (&s, v) in &r.views {
            assert!(s >= end && s + v.len() <= r.mem.len(), "views overlap");
            assert!(v.body.len() >= VIEW_MIN, "short view at {s}");
            assert!(
                r.mem[s..s + v.len()].iter().all(|&b| b == 0),
                "view on dirt"
            );
            end = s + v.len();
        }
        for (i, &b) in r.mem.iter().enumerate() {
            let p = (i + r.skew) / PAGE;
            if b != 0 {
                assert!(
                    r.touched[p / 64] & (1 << (p % 64)) != 0,
                    "untouched page {p} dirty"
                );
            }
        }
    }

    /// Random flat and gathered writes (overlapping, partial, out of
    /// bounds), local writes, zeroing, reads, peeks, takes and one-sided
    /// reads against one region, checked byte for byte after every step
    /// against a plain `Vec<u8>` holding what flat memory would.
    fn differential(cases: u64, steps: usize) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for case in 0..cases {
            let mut rng = SmallRng::seed_from_u64(case);
            let mut sim: Sim<Wire> = Sim::new(case, NetParams::rdma());
            let cfg = QpConfig {
                sq_depth: 1 << 20,
                ..QpConfig::default()
            };
            let mut pep = Endpoint::new(cfg);
            pep.connect(1);
            let poster = sim.add_node(Box::new(Poster {
                ep: pep,
                queue: vec![],
                reads: vec![],
            }));
            let mut tep = Endpoint::new(cfg);
            tep.connect(0);
            let region = tep.register_region(DIFF_LEN);
            let target = sim.add_node(Box::new(TestNode {
                ep: tep,
                script: vec![],
                post_errors: vec![],
            }));
            let source: Vec<u8> = (0..4 * VIEW_MIN)
                .map(|_| rng.random_range(1..=255u8))
                .collect();
            let source = Bytes::from(source);
            let mut model = vec![0u8; DIFF_LEN];
            let mut now = SimTime::ZERO;
            let bytes = |rng: &mut SmallRng, len: usize| -> Vec<u8> {
                (0..len).map(|_| rng.random_range(0..=255u8)).collect()
            };
            for step in 0..steps {
                let mut run = |sim: &mut Sim<Wire>| {
                    now += Duration::from_micros(20);
                    sim.run_until(now);
                };
                // A range, half the time around a view if there is one.
                let views: Vec<(usize, usize, usize)> = sim.node::<TestNode>(target).ep.regions[0]
                    .views
                    .iter()
                    .map(|(&s, v)| (s, v.len(), v.head.len()))
                    .collect();
                let lo = rng.random_range(0..DIFF_LEN);
                let mut range = (lo, rng.random_range(lo..=DIFF_LEN.min(lo + 3 * VIEW_MIN)));
                if !views.is_empty() && rng.random::<bool>() {
                    let (s, len, _) = views[rng.random_range(0..views.len())];
                    let lo = s.saturating_sub(rng.random_range(0..40usize));
                    let hi = match rng.random_range(0..3u32) {
                        0 => s + len,
                        1 => (s + len + rng.random_range(0..40usize)).min(DIFF_LEN),
                        _ => rng.random_range(lo..=s + len),
                    };
                    range = (lo, hi);
                }
                let (lo, hi) = range;
                let node = sim.node_mut::<TestNode>(target);
                let viewed_before = node.ep.body_bytes_viewed;
                match rng.random_range(0..9u32) {
                    0 | 1 => {
                        // A remote write: gathered or flat, its body a slice
                        // of one shared buffer, sometimes out of bounds or
                        // into an unregistered region.
                        let head_len = rng.random_range(0..48usize);
                        let head = bytes(&mut rng, head_len);
                        let len = if rng.random::<bool>() {
                            rng.random_range(VIEW_MIN..=3 * VIEW_MIN)
                        } else {
                            rng.random_range(0..VIEW_MIN)
                        };
                        let at = rng.random_range(0..=source.len() - len);
                        let body = source.slice(at..at + len);
                        let (head, body) = if rng.random_range(0..2u32) == 0 {
                            (Bytes::from(head), body)
                        } else {
                            (Bytes::from_parts(&[&head, &body]), Bytes::new())
                        };
                        let total = head.len() + body.len();
                        let off = rng.random_range(0..DIFF_LEN + 64);
                        let stale = rng.random_range(0..20u32) == 0;
                        let dst = if stale { RegionId(7) } else { region };
                        let lands = !stale && off + total <= DIFF_LEN;
                        let gathered = body.len();
                        sim.node_mut::<Poster>(poster).queue.push(Post::Write(
                            dst,
                            off as u32,
                            head.clone(),
                            body.clone(),
                        ));
                        run(&mut sim);
                        if lands {
                            model[off..off + head.len()].copy_from_slice(&head);
                            model[off + head.len()..off + total].copy_from_slice(&body);
                        }
                        let viewed = sim.node::<TestNode>(target).ep.body_bytes_viewed;
                        let want = if lands && gathered >= VIEW_MIN {
                            gathered
                        } else {
                            0
                        };
                        assert_eq!(
                            viewed - viewed_before,
                            want as u64,
                            "case {case} step {step}"
                        );
                    }
                    2 => {
                        let data = bytes(&mut rng, hi - lo);
                        node.ep.write_local(region, lo as u32, &data);
                        model[lo..hi].copy_from_slice(&data);
                    }
                    3 => {
                        node.ep.zero_local(region, lo as u32, hi - lo);
                        model[lo..hi].fill(0);
                    }
                    4 => {
                        let got = node.ep.read(region, lo as u32, hi - lo);
                        assert_eq!(got, &model[lo..hi], "read: case {case} step {step}");
                    }
                    5 => {
                        let got = node.ep.peek(region, lo as u32, hi - lo);
                        assert_eq!(&got[..], &model[lo..hi], "peek: case {case} step {step}");
                    }
                    6 | 7 => {
                        let skip = rng.random_range(0..=(hi - lo).min(40));
                        // A view that ends the range, and whose body starts
                        // past the bytes skipped, is handed over as it is.
                        let handed = views.iter().any(|&(s, len, head)| {
                            s >= lo && s + len == hi && s + head >= lo + skip
                        });
                        let (head, body) = node.ep.take(region, lo as u32, hi - lo, skip);
                        assert_eq!(
                            [&head[..], &body[..]].concat(),
                            &model[lo + skip..hi],
                            "take: case {case} step {step}"
                        );
                        assert_eq!(!body.is_empty(), handed, "take: case {case} step {step}");
                        model[lo..hi].fill(0);
                    }
                    _ => {
                        let token = step as u64;
                        let read = Post::Read(lo as u32, (hi - lo) as u32, token);
                        sim.node_mut::<Poster>(poster).queue.push(read);
                        run(&mut sim);
                        let got = sim.node_mut::<Poster>(poster).reads.pop();
                        assert_eq!(
                            got,
                            Some((token, Bytes::copy_from_slice(&model[lo..hi]))),
                            "one-sided read: case {case} step {step}"
                        );
                    }
                }
                let ep = &sim.node::<TestNode>(target).ep;
                check_region(&ep.regions[0]);
                assert_eq!(
                    &ep.peek(region, 0, DIFF_LEN)[..],
                    &model[..],
                    "case {case} step {step}"
                );
            }
        }
    }

    #[test]
    fn views_read_like_flat_memory() {
        differential(100, 200);
    }

    /// The same check at fifty times the cases (CI runs it with
    /// `--ignored`).
    #[test]
    #[ignore]
    fn views_read_like_flat_memory_at_length() {
        differential(5_000, 200);
    }
}
