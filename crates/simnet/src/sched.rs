//! Event schedulers: the calendar queue powering the engine's hot path and
//! the reference `BinaryHeap` it is differentially tested against.
//!
//! Both schedulers order events by the same `(at, seq)` total order — `at` is
//! the virtual firing instant, and the engine packs into `seq` the node the
//! event is aimed at (high 16 bits) above that node's own filing counter, so
//! same-instant events fire in node order, and one node's in the order they
//! were filed (DESIGN.md §11). The engine stores event
//! payloads in a slab and hands the scheduler only a 24-byte [`EventKey`];
//! swapping the queue implementation can therefore never change *what* runs,
//! only how fast the next key is found. `tests/determinism.rs` and the
//! proptest suite in `crates/simnet/tests/sched_props.rs` hold the two
//! implementations to byte-identical behaviour.
//!
//! The calendar queue exploits the one structural guarantee a discrete-event
//! engine gives its queue: **pushes never go backwards** — every key inserted
//! after a pop satisfies `key.at >= popped.at`. That makes a fixed window of
//! time buckets ("the wheel") complete for the near future, with a single
//! overflow list for everything beyond the window that is migrated in only
//! when the wheel drains.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of wheel buckets; must be a power of two and a multiple of 64.
pub const WHEEL_BUCKETS: usize = 4096;
/// log2 of the bucket width in nanoseconds (2048 ns per bucket, so the wheel
/// window spans ~8.4 ms of virtual time — wider than almost every timer the
/// protocols arm, so overflow migration is rare).
const BUCKET_SHIFT: u32 = 11;

/// Identity of one queued event: the `(at, seq)` ordering key plus the slab
/// slot holding its payload. `seq` is unique per simulation, so the derived
/// lexicographic order is exactly the engine's total event order.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Virtual firing instant.
    pub at: SimTime,
    /// Tie-break at one instant: the target node in the high 16 bits, its
    /// filing counter below (see the module docs).
    pub seq: u64,
    /// Slab slot of the event payload (never compared: `seq` is unique).
    pub slot: u32,
}

impl EventKey {
    #[inline]
    fn tick(&self) -> u64 {
        self.at.as_nanos() >> BUCKET_SHIFT
    }
}

crate::registry! {
    /// Which queue implementation a [`Sim`](crate::Sim) uses.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
    pub enum SchedKind {
        /// The original global `BinaryHeap`, kept as the reference implementation
        /// for differential testing.
        Heap = "heap",
        /// The calendar queue (default).
        #[default]
        Calendar = "calendar",
    }
}

/// A calendar queue: `WHEEL_BUCKETS` time buckets of width `2^BUCKET_SHIFT`
/// nanoseconds covering the window `[epoch_tick, epoch_tick + WHEEL_BUCKETS)`
/// of bucket ticks, an occupancy bitmap for constant-time next-bucket scans,
/// and an overflow list for keys beyond the window.
///
/// Ordering is exact, not approximate, because of two invariants:
///
/// 1. every overflow key's tick is `>= epoch_tick + WHEEL_BUCKETS`, i.e.
///    strictly after every wheel key's tick (`push` files keys by the current
///    window; `migrate` only runs when the wheel is empty and re-files
///    everything that now fits) — so the wheel, when non-empty, always holds
///    the global minimum;
/// 2. within the wheel, buckets are visited in tick order and each bucket is
///    a min-heap on the full `(at, seq)` key — so bucket order refines to the
///    exact total order.
///
/// `next_at` (peek) may advance the scan cursor but never migrates overflow
/// keys and never moves `epoch_tick`; `push` rewinds the cursor when filing a
/// key behind it. Peeking is therefore non-perturbing: a peek followed by a
/// push followed by a pop behaves exactly like the push-then-pop alone.
pub struct CalendarQueue {
    buckets: Vec<BinaryHeap<Reverse<EventKey>>>,
    /// One bit per bucket: set iff the bucket heap is non-empty.
    occ: Vec<u64>,
    /// First tick of the wheel window. Never decreases.
    epoch_tick: u64,
    /// Scan position in `[epoch_tick, epoch_tick + WHEEL_BUCKETS]`; no
    /// occupied bucket has a tick below it.
    cursor_tick: u64,
    in_wheel: usize,
    overflow: Vec<EventKey>,
    /// Minimum of `overflow` by `(at, seq)`; `None` iff `overflow` is empty.
    overflow_min: Option<EventKey>,
    len: usize,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..WHEEL_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            occ: vec![0u64; WHEEL_BUCKETS / 64],
            epoch_tick: 0,
            cursor_tick: 0,
            in_wheel: 0,
            overflow: Vec::new(),
            overflow_min: None,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, key: EventKey) {
        let t = key.tick();
        debug_assert!(
            t >= self.epoch_tick,
            "push behind the wheel window: tick {t} < epoch {}",
            self.epoch_tick
        );
        if t >= self.epoch_tick + WHEEL_BUCKETS as u64 {
            match self.overflow_min {
                Some(m) if m < key => {}
                _ => self.overflow_min = Some(key),
            }
            self.overflow.push(key);
        } else {
            let b = t as usize & (WHEEL_BUCKETS - 1);
            self.buckets[b].push(Reverse(key));
            self.occ[b >> 6] |= 1 << (b & 63);
            self.in_wheel += 1;
            if t < self.cursor_tick {
                self.cursor_tick = t;
            }
        }
        self.len += 1;
    }

    pub fn pop(&mut self) -> Option<EventKey> {
        if self.len == 0 {
            return None;
        }
        if self.in_wheel == 0 {
            self.migrate();
        }
        let (t, b) = self.next_occupied().expect("non-empty wheel has a bucket");
        self.cursor_tick = t;
        let bucket = &mut self.buckets[b];
        let Reverse(key) = bucket.pop().expect("occupied bucket is empty");
        if bucket.is_empty() {
            self.occ[b >> 6] &= !(1 << (b & 63));
            // Release the drained heap: its bucket comes round again only a
            // window later, and kept it would hold the peak of its busiest
            // burst for the rest of the run, in every one of the buckets.
            *bucket = BinaryHeap::new();
        }
        self.in_wheel -= 1;
        self.len -= 1;
        Some(key)
    }

    /// Firing instant of the minimum key, without removing it. May advance
    /// the scan cursor but never migrates overflow keys (see the type docs
    /// for why that keeps peeking non-perturbing).
    pub fn next_at(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.in_wheel > 0 {
            let (t, b) = self.next_occupied().expect("non-empty wheel has a bucket");
            self.cursor_tick = t;
            Some(
                self.buckets[b]
                    .peek()
                    .expect("occupied bucket is empty")
                    .0
                    .at,
            )
        } else {
            Some(self.overflow_min.expect("overflow holds the only keys").at)
        }
    }

    /// First occupied (tick, bucket) at or after the cursor, scanning the
    /// occupancy bitmap a word at a time.
    fn next_occupied(&self) -> Option<(u64, usize)> {
        if self.in_wheel == 0 {
            return None;
        }
        let end = self.epoch_tick + WHEEL_BUCKETS as u64;
        let mut t = self.cursor_tick;
        while t < end {
            let b = t as usize & (WHEEL_BUCKETS - 1);
            let bit = b & 63;
            // Bits below `bit` in this word are either empty or belong to
            // ticks a full wheel revolution ahead — which cannot be occupied,
            // because the window is exactly one revolution wide.
            let w = self.occ[b >> 6] >> bit;
            if w != 0 {
                let adv = w.trailing_zeros() as u64;
                debug_assert!(t + adv < end, "occupied bucket beyond the window");
                return Some((t + adv, b + adv as usize));
            }
            t += (64 - bit) as u64;
        }
        None
    }

    /// The wheel has drained: advance the window to the earliest overflow key
    /// and re-file every overflow key that now fits. Only called from `pop`,
    /// so the window start can never race ahead of the engine's clock.
    fn migrate(&mut self) {
        debug_assert!(self.in_wheel == 0 && !self.overflow.is_empty());
        let min = self.overflow_min.expect("overflow non-empty");
        self.epoch_tick = min.tick();
        self.cursor_tick = self.epoch_tick;
        let end = self.epoch_tick + WHEEL_BUCKETS as u64;
        let mut kept_min: Option<EventKey> = None;
        let mut i = 0;
        while i < self.overflow.len() {
            let key = self.overflow[i];
            if key.tick() < end {
                self.overflow.swap_remove(i);
                let b = key.tick() as usize & (WHEEL_BUCKETS - 1);
                self.buckets[b].push(Reverse(key));
                self.occ[b >> 6] |= 1 << (b & 63);
                self.in_wheel += 1;
            } else {
                match kept_min {
                    Some(m) if m < key => {}
                    _ => kept_min = Some(key),
                }
                i += 1;
            }
        }
        self.overflow_min = kept_min;
    }
}

/// The scheduler a [`Sim`](crate::Sim) drives: one of the two queue
/// implementations behind a common push/pop/peek surface.
pub enum Scheduler {
    Heap(BinaryHeap<Reverse<EventKey>>),
    Calendar(Box<CalendarQueue>),
}

impl Scheduler {
    pub fn new(kind: SchedKind) -> Self {
        match kind {
            SchedKind::Heap => Scheduler::Heap(BinaryHeap::new()),
            SchedKind::Calendar => Scheduler::Calendar(Box::default()),
        }
    }

    pub fn kind(&self) -> SchedKind {
        match self {
            Scheduler::Heap(_) => SchedKind::Heap,
            Scheduler::Calendar(_) => SchedKind::Calendar,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Scheduler::Heap(h) => h.len(),
            Scheduler::Calendar(c) => c.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn push(&mut self, key: EventKey) {
        match self {
            Scheduler::Heap(h) => h.push(Reverse(key)),
            Scheduler::Calendar(c) => c.push(key),
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<EventKey> {
        match self {
            Scheduler::Heap(h) => h.pop().map(|Reverse(k)| k),
            Scheduler::Calendar(c) => c.pop(),
        }
    }

    /// Firing instant of the minimum key, without removing it.
    #[inline]
    pub fn next_at(&mut self) -> Option<SimTime> {
        match self {
            Scheduler::Heap(h) => h.peek().map(|Reverse(k)| k.at),
            Scheduler::Calendar(c) => c.next_at(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at_ns: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_nanos(at_ns),
            seq,
            slot: seq as u32,
        }
    }

    #[test]
    fn pops_in_at_seq_order_with_ties() {
        let mut q = CalendarQueue::new();
        for (at, seq) in [(500, 0), (100, 1), (100, 2), (7_000, 3), (100, 4)] {
            q.push(key(at, seq));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|k| k.seq).collect();
        assert_eq!(order, vec![1, 2, 4, 0, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_migrates_without_losing_order() {
        let mut q = CalendarQueue::new();
        let window_ns = (WHEEL_BUCKETS as u64) << BUCKET_SHIFT;
        // One near key, several far beyond the window (two windows out).
        q.push(key(10, 0));
        q.push(key(3 * window_ns + 5, 1));
        q.push(key(2 * window_ns + 9, 2));
        q.push(key(2 * window_ns + 9, 3));
        assert_eq!(q.pop().unwrap().seq, 0);
        // Migration happens on the next pop; pushes after it must still file
        // correctly relative to the migrated keys.
        assert_eq!(q.pop().unwrap().seq, 2);
        q.push(key(2 * window_ns + 10, 4));
        assert_eq!(q.pop().unwrap().seq, 3);
        assert_eq!(q.pop().unwrap().seq, 4);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_then_push_earlier_key_rewinds() {
        let mut q = CalendarQueue::new();
        q.push(key(1_000_000, 0));
        // Peek advances the scan cursor to the 1 ms bucket...
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(1_000_000)));
        // ...but a subsequent earlier push must still pop first.
        q.push(key(5_000, 1));
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(5_000)));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
    }

    #[test]
    fn peek_never_migrates_overflow() {
        let mut q = CalendarQueue::new();
        let window_ns = (WHEEL_BUCKETS as u64) << BUCKET_SHIFT;
        q.push(key(window_ns + 100, 0));
        // Peek sees the overflow key's instant but must not advance the
        // window: a later push at a nearer instant still fits the wheel.
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(window_ns + 100)));
        q.push(key(50, 1));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
    }

    #[test]
    fn a_drained_bucket_releases_its_capacity() {
        let mut q = CalendarQueue::new();
        let bucket_ns = 1u64 << BUCKET_SHIFT;
        // 10,000 keys into one bucket, then 64 keys into each of 100 more.
        for seq in 0..10_000 {
            q.push(key(500, seq));
        }
        for b in 1..=100u64 {
            for i in 0..64 {
                q.push(key(b * bucket_ns + i, 10_000 + b * 64 + i));
            }
        }
        let peak: usize = q.buckets.iter().map(BinaryHeap::capacity).sum();
        assert!(peak >= 10_000 + 100 * 64);
        let mut last = None;
        while let Some(k) = q.pop() {
            assert!(last < Some(k), "pop order");
            last = Some(k);
        }
        let kept: usize = q.buckets.iter().map(BinaryHeap::capacity).sum();
        assert_eq!(kept, 0, "a drained wheel keeps no capacity");
    }

    #[test]
    fn scheduler_heap_and_calendar_agree() {
        let mut h = Scheduler::new(SchedKind::Heap);
        let mut c = Scheduler::new(SchedKind::Calendar);
        assert_eq!(h.kind(), SchedKind::Heap);
        assert_eq!(c.kind(), SchedKind::Calendar);
        let keys: Vec<EventKey> = (0..200).map(|i| key((i * 37) % 5_000, i)).collect();
        for &k in &keys {
            h.push(k);
            c.push(k);
        }
        for _ in 0..keys.len() {
            assert_eq!(h.next_at(), c.next_at());
            assert_eq!(h.pop(), c.pop());
        }
        assert!(h.is_empty() && c.is_empty());
    }

    #[test]
    fn sched_kind_defaults_to_the_calendar_queue() {
        assert_eq!(SchedKind::default(), SchedKind::Calendar);
    }
}
