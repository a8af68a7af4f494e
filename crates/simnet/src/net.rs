//! NIC and link models.
//!
//! The model follows the usual store-and-forward decomposition:
//!
//! 1. the packet serializes through the **sender NIC** at line rate (shared
//!    across all of that node's links — this is what saturates a leader that
//!    fans a message out to every follower);
//! 2. it propagates across the **link** (base latency plus bounded uniform
//!    jitter plus any injected transient extra latency);
//! 3. it serializes through the **receiver NIC** at line rate (shared across
//!    inbound links — this is what bounds Derecho's all-to-all mode);
//! 4. delivery is clamped to be FIFO per (src, dst) ordered pair, which is the
//!    reliable-connection guarantee both the paper and this reproduction rely
//!    on.

use crate::hash::FastMap;
use crate::time::SimTime;
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::Duration;

/// Per-link propagation parameters.
#[derive(Copy, Clone, Debug)]
pub struct LinkParams {
    /// One-way propagation latency (switch + cable + NIC pipeline).
    pub latency: Duration,
    /// Bounded uniform jitter added on top of `latency`: `U(0, jitter)`.
    pub jitter: Duration,
}

impl LinkParams {
    /// A link with fixed latency and no jitter (useful in tests).
    pub fn fixed(latency: Duration) -> Self {
        LinkParams {
            latency,
            jitter: Duration::ZERO,
        }
    }
}

/// Per-node NIC parameters.
#[derive(Copy, Clone, Debug)]
pub struct NicParams {
    /// Line rate in gigabits per second (the paper's cluster: 25 Gb/s RoCE).
    pub line_rate_gbps: f64,
    /// Minimum size of any message on the wire, in bytes. The paper notes the
    /// minimum RDMA message size is 80 bytes — this is why Acuerdo's one
    /// write per small message is 2x more bandwidth-efficient than Derecho's
    /// two.
    pub min_wire_bytes: u32,
}

impl NicParams {
    #[inline]
    fn ns_per_byte(&self) -> f64 {
        8.0 / self.line_rate_gbps
    }

    /// Time to push `bytes` through this NIC, after clamping to the minimum
    /// wire size.
    #[inline]
    pub fn serialize_time(&self, bytes: u32) -> Duration {
        let b = bytes.max(self.min_wire_bytes) as f64;
        Duration::from_nanos((b * self.ns_per_byte()).ceil() as u64)
    }
}

#[derive(Copy, Clone, Debug, Default)]
struct NicState {
    egress_free: SimTime,
    ingress_free: SimTime,
}

/// Transient extra one-way latency on one directed link.
#[derive(Copy, Clone, Debug, Default)]
struct LinkOverride {
    extra_latency: Duration,
    extra_until: SimTime,
}

/// Mutable network state: NIC queues, link overrides, FIFO clamps, cuts.
pub(crate) struct Network {
    default_link: LinkParams,
    loopback: LinkParams,
    nic: NicParams,
    nics: Vec<NicState>,
    overrides: FastMap<(NodeId, NodeId), LinkOverride>,
    /// Per-(src, dst) FIFO delivery frontier, stored dense: index
    /// `src * nodes + dst`. Rebuilt (cheaply, at setup time) on `add_node`.
    fifo_clamp: Vec<SimTime>,
    /// Active partition: group index per node. Two nodes can talk iff they
    /// are in the same group; nodes with no assigned group (e.g. a client
    /// outside the partitioned fabric) can reach everyone.
    partition: FastMap<NodeId, u32>,
    /// Per-node egress serialization-time factors (>1 = slower NIC). Empty
    /// means no intervention anywhere — the identity fast path.
    egress_scale: Vec<f64>,
    /// Whole-fabric propagation-latency factor (applied to the base latency
    /// of every link, loopback included; jitter and transient extras are
    /// untouched so the RNG draw sequence is preserved).
    latency_scale: Option<f64>,
}

/// Scale a duration by a time factor, with the same nanosecond rounding as
/// [`Ctx`](crate::Ctx) CPU scaling (truncating cast).
#[inline]
fn scale_dur(d: Duration, factor: f64) -> Duration {
    Duration::from_nanos((d.as_nanos() as f64 * factor) as u64)
}

/// A uniform draw from `0..=max` (a link's or a node's timer jitter): one
/// draw from the engine's stream, and none at all when `max` is zero.
#[inline]
pub(crate) fn draw_jitter(rng: &mut SmallRng, max: Duration) -> Duration {
    if max.is_zero() {
        Duration::ZERO
    } else {
        Duration::from_nanos(rng.random_range(0..=max.as_nanos() as u64))
    }
}

impl Network {
    pub fn new(default_link: LinkParams, loopback: LinkParams, nic: NicParams) -> Self {
        Network {
            default_link,
            loopback,
            nic,
            nics: Vec::new(),
            overrides: FastMap::default(),
            fifo_clamp: Vec::new(),
            partition: FastMap::default(),
            egress_scale: Vec::new(),
            latency_scale: None,
        }
    }

    /// Scale `node`'s egress serialization time by `factor` (what-if
    /// intervention: 0.5 models a NIC with twice the egress bandwidth).
    pub fn set_egress_time_scale(&mut self, node: NodeId, factor: f64) {
        if self.egress_scale.is_empty() {
            self.egress_scale = vec![1.0; self.nics.len()];
        }
        self.egress_scale[node] = factor;
    }

    /// Scale every link's base propagation latency by `factor` (jitter and
    /// transient fault-injected extras are deliberately untouched).
    pub fn set_latency_scale(&mut self, factor: f64) {
        self.latency_scale = Some(factor);
    }

    pub fn add_node(&mut self) {
        let old_n = self.nics.len();
        self.nics.push(NicState::default());
        if !self.egress_scale.is_empty() {
            self.egress_scale.push(1.0);
        }
        let n = old_n + 1;
        let mut clamp = vec![SimTime::ZERO; n * n];
        for s in 0..old_n {
            for d in 0..old_n {
                clamp[s * n + d] = self.fifo_clamp[s * old_n + d];
            }
        }
        self.fifo_clamp = clamp;
    }

    /// Nanoseconds of serialization backlog at `node`'s egress NIC at
    /// instant `at` (0 when the NIC is idle). Read by the engine's gauge
    /// sampler for [`Gauge::NicEgressDepth`](crate::trace::Gauge).
    pub fn egress_backlog(&self, node: NodeId, at: SimTime) -> u64 {
        self.nics
            .get(node)
            .map_or(0, |n| n.egress_free.saturating_since(at).as_nanos() as u64)
    }

    /// Inject transient extra one-way latency on (src, dst) until `until`.
    pub fn add_link_latency(&mut self, src: NodeId, dst: NodeId, extra: Duration, until: SimTime) {
        let o = self.overrides.entry((src, dst)).or_default();
        o.extra_latency = extra;
        o.extra_until = until;
    }

    /// Install a partition: each inner vec is one connected group. Replaces
    /// any previous partition.
    pub fn set_partition(&mut self, groups: &[Vec<NodeId>]) {
        self.partition.clear();
        for (g, members) in groups.iter().enumerate() {
            for &m in members {
                self.partition.insert(m, g as u32);
            }
        }
    }

    /// Remove any active partition.
    pub fn heal_partition(&mut self) {
        self.partition.clear();
    }

    /// Whether a partition cuts (src, dst). Loopback is never cut.
    pub fn is_cut(&self, src: NodeId, dst: NodeId) -> bool {
        if src == dst || self.partition.is_empty() {
            return false;
        }
        matches!(
            (self.partition.get(&src), self.partition.get(&dst)),
            (Some(gs), Some(gd)) if gs != gd
        )
    }

    /// Forget all per-node NIC and connection state for `node` (its NIC
    /// queues and the FIFO clamps of every RC connection it participates in).
    /// Called on restart: the rebooted node comes back with fresh hardware
    /// state and re-established connections.
    pub fn reset_node(&mut self, node: NodeId) {
        self.nics[node] = NicState::default();
        let n = self.nics.len();
        for d in 0..n {
            self.fifo_clamp[node * n + d] = SimTime::ZERO;
        }
        for s in 0..n {
            self.fifo_clamp[s * n + node] = SimTime::ZERO;
        }
    }

    fn link_for(&self, src: NodeId, dst: NodeId, at: SimTime) -> (LinkParams, Duration) {
        let base = if src == dst {
            self.loopback
        } else {
            self.default_link
        };
        // Fast path for the (overwhelmingly common) unmodified fabric.
        if self.overrides.is_empty() {
            return (base, Duration::ZERO);
        }
        match self.overrides.get(&(src, dst)) {
            Some(o) if at < o.extra_until => (base, o.extra_latency),
            _ => (base, Duration::ZERO),
        }
    }

    /// Route one packet posted at `post` from `src` to `dst`: serialize it
    /// through the sender's egress NIC, propagate it (drawing the link's
    /// jitter, if any), clock it through the receiver's ingress NIC, and
    /// clamp its delivery FIFO per ordered pair.
    #[inline]
    pub fn route(
        &mut self,
        rng: &mut SmallRng,
        src: NodeId,
        dst: NodeId,
        post: SimTime,
        wire_bytes: u32,
    ) -> RouteInfo {
        let ser = self.nic.serialize_time(wire_bytes);

        // Sender NIC egress serialization (shared across that node's links),
        // scaled by a what-if intervention factor if one is set; the
        // empty-vec fast path keeps the unmodified fabric bit-identical.
        let egress_ser = match self.egress_scale.get(src) {
            None => ser,
            Some(&f) => scale_dur(ser, f),
        };
        let depart_start = post.max(self.nics[src].egress_free);
        let depart = depart_start + egress_ser;
        self.nics[src].egress_free = depart;

        // Propagation.
        let (link, extra) = self.link_for(src, dst, depart);
        let jitter = draw_jitter(rng, link.jitter);
        let latency = match self.latency_scale {
            None => link.latency,
            Some(f) => scale_dur(link.latency, f),
        };
        let arrive = depart + latency + jitter + extra;

        // Receiver NIC ingress serialization (shared across inbound links);
        // skipped for loopback, which never touches the receive pipeline.
        let (ingress_start, delivered) = if src == dst {
            (arrive, arrive)
        } else {
            let start = arrive.max(self.nics[dst].ingress_free);
            let done = start + ser;
            self.nics[dst].ingress_free = done;
            (start, done)
        };

        // Reliable connections deliver FIFO per ordered pair.
        let clamp = &mut self.fifo_clamp[src * self.nics.len() + dst];
        let delivered = delivered.max(*clamp);
        *clamp = delivered;
        RouteInfo {
            depart_start,
            depart,
            ingress_start,
            delivered,
            wire_bytes: wire_bytes.max(self.nic.min_wire_bytes),
        }
    }
}

/// Hop timeline of one routed packet, as computed by [`Network::route`].
#[derive(Copy, Clone, Debug)]
pub(crate) struct RouteInfo {
    /// When the packet started serializing through the sender NIC.
    pub depart_start: SimTime,
    /// When it finished egress serialization (left the sender).
    pub depart: SimTime,
    /// When the receiver NIC started clocking it in (equals arrival for
    /// loopback, which skips the receive pipeline).
    pub ingress_start: SimTime,
    /// Delivery instant after ingress serialization and the FIFO clamp.
    pub delivered: SimTime,
    /// Bytes charged on the wire after min-size clamping.
    pub wire_bytes: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn net() -> Network {
        let mut n = Network::new(
            LinkParams::fixed(Duration::from_nanos(1_500)),
            LinkParams::fixed(Duration::from_nanos(300)),
            NicParams {
                line_rate_gbps: 25.0,
                min_wire_bytes: 80,
            },
        );
        for _ in 0..4 {
            n.add_node();
        }
        n
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn serialize_time_clamps_to_min_wire() {
        let nic = NicParams {
            line_rate_gbps: 25.0,
            min_wire_bytes: 80,
        };
        // 80 bytes at 25 Gb/s = 25.6 ns.
        assert_eq!(nic.serialize_time(10), nic.serialize_time(80));
        assert!(nic.serialize_time(1000) > nic.serialize_time(80));
        assert_eq!(nic.serialize_time(80), Duration::from_nanos(26));
    }

    #[test]
    fn single_packet_latency() {
        let mut n = net();
        let mut r = rng();
        let d = n.route(&mut r, 0, 1, SimTime::ZERO, 10).delivered;
        // egress 26ns + 1500ns + ingress 26ns.
        assert_eq!(d.as_nanos(), 26 + 1_500 + 26);
    }

    #[test]
    fn egress_serializes_fanout() {
        let mut n = net();
        let mut r = rng();
        let d1 = n.route(&mut r, 0, 1, SimTime::ZERO, 10).delivered;
        let d2 = n.route(&mut r, 0, 2, SimTime::ZERO, 10).delivered;
        // Second packet waits for the first to leave the sender NIC.
        assert_eq!(d2.as_nanos() - d1.as_nanos(), 26);
    }

    #[test]
    fn ingress_serializes_fanin() {
        let mut n = net();
        let mut r = rng();
        let d1 = n.route(&mut r, 0, 2, SimTime::ZERO, 10).delivered;
        let d2 = n.route(&mut r, 1, 2, SimTime::ZERO, 10).delivered;
        assert!(d2 > d1);
        assert_eq!(d2.as_nanos() - d1.as_nanos(), 26);
    }

    #[test]
    fn fifo_per_pair_holds_under_transient_latency() {
        let mut n = net();
        let mut r = rng();
        // First packet hit by transient extra latency; second posted later
        // without it must not overtake.
        n.add_link_latency(0, 1, Duration::from_micros(50), SimTime::from_micros(1));
        let d1 = n.route(&mut r, 0, 1, SimTime::ZERO, 10).delivered;
        let d2 = n
            .route(&mut r, 0, 1, SimTime::from_nanos(100), 10)
            .delivered;
        assert!(d2 >= d1, "FIFO violated: {d2:?} < {d1:?}");
    }

    #[test]
    fn transient_latency_expires() {
        let mut n = net();
        let mut r = rng();
        n.add_link_latency(0, 1, Duration::from_micros(50), SimTime::from_micros(1));
        let late = n.route(&mut r, 0, 1, SimTime::from_millis(1), 10).delivered;
        // Normal path again: ~1552ns after post.
        assert_eq!(late.as_nanos() - SimTime::from_millis(1).as_nanos(), 1_552);
    }

    #[test]
    fn loopback_skips_ingress_and_is_fast() {
        let mut n = net();
        let mut r = rng();
        let d = n.route(&mut r, 0, 0, SimTime::ZERO, 10).delivered;
        assert_eq!(d.as_nanos(), 26 + 300);
    }

    #[test]
    fn jitter_is_bounded() {
        let mut n = Network::new(
            LinkParams {
                latency: Duration::from_nanos(1_000),
                jitter: Duration::from_nanos(500),
            },
            LinkParams::fixed(Duration::ZERO),
            NicParams {
                line_rate_gbps: 25.0,
                min_wire_bytes: 80,
            },
        );
        n.add_node();
        n.add_node();
        let mut r = rng();
        for i in 0..200 {
            let post = SimTime::from_micros(i * 10);
            let d = n.route(&mut r, 0, 1, post, 10).delivered;
            let elapsed = d.as_nanos() - post.as_nanos();
            assert!((1_052..=1_552).contains(&elapsed), "elapsed {elapsed}");
        }
    }

    #[test]
    fn partition_cuts_only_cross_group_links() {
        let mut n = net();
        n.set_partition(&[vec![0, 1], vec![2]]);
        assert!(!n.is_cut(0, 1));
        assert!(n.is_cut(0, 2));
        assert!(n.is_cut(2, 1));
        // Node 3 is outside the partitioned fabric: reachable both ways.
        assert!(!n.is_cut(3, 2));
        assert!(!n.is_cut(0, 3));
        // Loopback survives any cut.
        assert!(!n.is_cut(2, 2));
        n.heal_partition();
        assert!(!n.is_cut(0, 2));
    }

    #[test]
    fn reset_node_clears_nic_and_fifo_state() {
        let mut n = net();
        let mut r = rng();
        n.route(&mut r, 1, 0, SimTime::ZERO, 4096);
        n.route(&mut r, 1, 2, SimTime::ZERO, 4096);
        n.route(&mut r, 2, 1, SimTime::ZERO, 4096);
        n.reset_node(1);
        // A packet posted at t=0 after the reset sees a quiet NIC again.
        let d = n.route(&mut r, 0, 1, SimTime::ZERO, 10).delivered;
        assert_eq!(d.as_nanos(), 26 + 1_500 + 26);
    }

    #[test]
    fn egress_scale_slows_only_that_sender() {
        let mut n = net();
        let mut r = rng();
        n.set_egress_time_scale(0, 2.0);
        // egress 52ns + 1500ns + ingress 26ns (ingress untouched).
        let d = n.route(&mut r, 0, 1, SimTime::ZERO, 10).delivered;
        assert_eq!(d.as_nanos(), 52 + 1_500 + 26);
        let other = n.route(&mut r, 2, 1, SimTime::ZERO, 10);
        assert_eq!(other.depart.as_nanos() - other.depart_start.as_nanos(), 26);
    }

    #[test]
    fn latency_scale_halves_every_link_but_not_jitter() {
        let mut n = net();
        let mut r = rng();
        n.set_latency_scale(0.5);
        let d = n.route(&mut r, 0, 1, SimTime::ZERO, 10).delivered;
        assert_eq!(d.as_nanos(), 26 + 750 + 26);
        // Loopback is a link too.
        let lb = n.route(&mut r, 2, 2, SimTime::ZERO, 10).delivered;
        assert_eq!(lb.as_nanos(), 26 + 150);
    }

    #[test]
    fn unit_scales_are_identity() {
        let mut a = net();
        let mut b = net();
        for node in 0..4 {
            b.set_egress_time_scale(node, 1.0);
        }
        b.set_latency_scale(1.0);
        let mut ra = rng();
        let mut rb = rng();
        for i in 0..50 {
            let post = SimTime::from_micros(i);
            let da = a.route(&mut ra, 0, 1, post, 10).delivered;
            let db = b.route(&mut rb, 0, 1, post, 10).delivered;
            assert_eq!(da, db);
        }
    }
}
