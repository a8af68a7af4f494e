//! Protocol configuration and tuning knobs, and the dissemination route:
//! [`DisseminationMode::route`] is the only place that knows the topology.

use abcast::Epoch;
use rdma_prims::{ring_bytes_for, RingMode};
use rdma_sim::QpConfig;
use std::time::Duration;

simnet::registry! {
    /// How the leader disseminates payload frames to its followers.
    ///
    /// The node runs one payload path for both: the leader streams to the heads
    /// of its arms and every follower forwards accepted frames one hop along
    /// its arm, as [`DisseminationMode::route`] lays the arms out. `Star` is the
    /// paper's topology, and the route on which every follower heads an arm of
    /// its own: the leader writes every payload into every follower's ring
    /// (leader egress `O(n)` bytes per message) and nobody forwards. `Ring`
    /// amortizes dissemination around the replica-index ring
    /// (after Ring Paxos) along **two arms** ([`ring_route`]): the leader
    /// writes each payload to both of its ring neighbours, the clockwise arm
    /// forwards it `i → i+1` and the counter-clockwise arm `i → i−1`, and the
    /// arms meet on the far side of the ring. Leader egress stays `O(1)` per
    /// message (two frames) and the quorum closes after `⌈⌊n/2⌋/2⌉`
    /// store-and-forward hops — half of what a single chain `o → o+1 → … →
    /// o−1` needs to reach the node `⌊n/2⌋` hops away. Ack/commit semantics are
    /// the same on either route — the frame header *is* the origin slot. An
    /// arm segment behind a crashed or partitioned forwarder falls back to star
    /// fan-out until a rejoin heals the arm.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
    pub enum DisseminationMode {
        /// Leader writes every payload to every follower (the paper's topology).
        #[default]
        Star = "star",
        /// Leader writes to its two ring neighbours; followers forward frames
        /// one hop further along their arm ([`ring_route`]).
        Ring = "ring",
    }
}

/// One node's place on the arms of a given origin (proposer).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RingRoute {
    /// The node whose lane carries the origin's frames to this node: the
    /// origin itself for the two arm heads, the previous node of the arm
    /// otherwise (and the origin itself at the origin, which makes its
    /// frames and receives none).
    pub upstream: usize,
    /// The node this one forwards accepted frames to; `None` at the origin
    /// (it streams to the arm heads, it does not forward) and at the last
    /// node of each arm.
    pub downstream: Option<usize>,
}

/// The ring-dissemination topology: where node `me` receives the frames
/// originated by `origin` from, and where it forwards them to, in an
/// `n`-replica ring.
///
/// With `d = (me − origin) mod n` and `h = ⌊n/2⌋`, the clockwise arm is
/// `d ∈ 1..=h` (each node forwards to `me + 1`, the node at `d = h` does
/// not) and the counter-clockwise arm is `d ∈ h+1..=n−1` walked downwards
/// from `d = n−1` (each node forwards to `me − 1`, the node at `d = h + 1`
/// does not). Every follower is on exactly one arm, the arm lengths differ
/// by at most one, and no node is more than `min(d, n − d) ≤ h` hops from
/// the origin. For `n ≤ 3` both arms have at most one node, so nothing
/// forwards and the topology is star.
pub fn ring_route(n: usize, origin: usize, me: usize) -> RingRoute {
    debug_assert!(origin < n && me < n, "ring position out of range");
    let d = (me + n - origin) % n;
    let h = n / 2;
    let cw = (me + 1) % n;
    let ccw = (me + n - 1) % n;
    if d == 0 {
        RingRoute {
            upstream: me,
            downstream: None,
        }
    } else if d <= h {
        RingRoute {
            upstream: ccw,
            downstream: (d < h).then_some(cw),
        }
    } else {
        RingRoute {
            upstream: cw,
            downstream: (d > h + 1).then_some(ccw),
        }
    }
}

impl DisseminationMode {
    /// Where node `me` receives the frames originated by `origin` from, and
    /// where it forwards them to, in an `n`-replica cluster. The only place
    /// the mode is matched on: a star is the route on which every follower
    /// heads an arm of its own.
    pub fn route(self, n: usize, origin: usize, me: usize) -> RingRoute {
        match self {
            DisseminationMode::Star => RingRoute {
                upstream: origin,
                downstream: None,
            },
            DisseminationMode::Ring => ring_route(n, origin, me),
        }
    }
}

/// Configuration of one Acuerdo instance.
///
/// Defaults reproduce the paper's configuration; the `slot_reuse_on_commit`,
/// `per_message_acks` and `ring_mode` knobs exist so the ablation benchmarks
/// can selectively disable the paper's design choices.
#[derive(Clone, Debug)]
pub struct AcuerdoConfig {
    /// Number of replicas, n = 2f + 1.
    pub n: usize,
    /// Bytes per incoming ring buffer (one ring per remote sender).
    pub ring_bytes: usize,
    /// A follower suspects the leader after this much silence.
    pub fail_timeout: Duration,
    /// During an election, self-nominate if the best vote has not grown for
    /// this long (the "best candidate has timed out" rule of Figure 7).
    pub candidate_patience: Duration,
    /// RDMA queue-pair configuration (selective signaling etc.).
    pub qp: QpConfig,
    /// Ring framing: coupled (Acuerdo, 1 write/msg) or split (Derecho-style,
    /// 2 writes/msg) — an ablation axis.
    pub ring_mode: RingMode,
    /// Ablation: reuse ring slots only once a message committed at all nodes
    /// (Derecho's rule) instead of on acceptance (Acuerdo's rule, §4.1).
    pub slot_reuse_on_commit: bool,
    /// Ablation: push an Accept_SST update per message instead of once per
    /// receiver-side batch (Zab-style per-message acks).
    pub per_message_acks: bool,
    /// Skip the start-up election and boot every node directly into this
    /// epoch (round, leader). Used by the stable-network benchmarks.
    pub initial_epoch: Option<Epoch>,
    /// Disable log GC on a volatile node, so a peer that crash-restarts
    /// (losing its whole log) can be re-seeded with the complete history by
    /// a recovery diff, until a volatile rejoiner can take a snapshot
    /// instead (ROADMAP item 9 step 4). A durable node collects its log
    /// regardless ([`AcuerdoConfig::keeps_whole_log`]).
    pub retain_log: bool,
    /// Volatile (default, the paper's configuration) keeps the log in
    /// registered memory only. Durable appends every accepted entry to the
    /// node's persistent-log device and fsyncs before the acceptance is
    /// pushed to the leader's Accept_SST (append-before-ack); a restarted
    /// node recovers its log from the fsync'd prefix instead of rejoining
    /// with empty state.
    pub durability: simnet::DurabilityMode,
    /// Payload dissemination route: star fan-out (the paper) or the
    /// two-armed ring ([`ring_route`], after Ring Paxos).
    pub dissemination: DisseminationMode,
    /// Maximum unacked frames in flight on a forward lane (the
    /// pipeline-depth knob; a star route has no forward lanes). Bounds how far a fast forwarder can
    /// outrun its downstream node's acceptance frontier.
    pub ring_pipeline_depth: usize,
}

impl Default for AcuerdoConfig {
    fn default() -> Self {
        AcuerdoConfig {
            n: 3,
            ring_bytes: 1 << 20,
            fail_timeout: Duration::from_millis(1),
            candidate_patience: Duration::from_micros(200),
            qp: QpConfig::default(),
            ring_mode: RingMode::Coupled,
            slot_reuse_on_commit: false,
            per_message_acks: false,
            initial_epoch: None,
            retain_log: false,
            durability: simnet::DurabilityMode::Volatile,
            dissemination: DisseminationMode::Star,
            ring_pipeline_depth: 64,
        }
    }
}

impl AcuerdoConfig {
    /// Convenience: default configuration for `n` replicas booted directly
    /// into a stable epoch led by replica 0 (the benchmark setup), with
    /// rings sized by [`ring_bytes_for`].
    pub fn stable(n: usize) -> Self {
        AcuerdoConfig {
            n,
            ring_bytes: ring_bytes_for(n),
            initial_epoch: Some(Epoch::new(1, 0)),
            ..AcuerdoConfig::default()
        }
    }

    /// Quorum size: majority of n.
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }

    /// Whether log GC is off. Only a volatile reboot needs the whole history
    /// from a peer. A durable peer's last pushed commit point is at or below
    /// its fsync'd frontier (append-before-ack), and the leader's horizon is
    /// the minimum of those cells (a Hello wipes the rebooted peer's to
    /// `MsgHdr::ZERO`), so the oldest retained entry is never above what a
    /// rebooting durable peer recovers from its own journal (DESIGN §7,
    /// deviation 8).
    pub fn keeps_whole_log(&self) -> bool {
        self.retain_log && !self.durability.is_durable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_is_majority() {
        for (n, q) in [(1, 1), (2, 2), (3, 2), (5, 3), (7, 4), (9, 5)] {
            let c = AcuerdoConfig {
                n,
                ..Default::default()
            };
            assert_eq!(c.quorum(), q, "n={n}");
        }
    }

    #[test]
    fn stable_preset_sets_leader_zero() {
        let c = AcuerdoConfig::stable(5);
        assert_eq!(c.initial_epoch, Some(Epoch::new(1, 0)));
        assert_eq!(c.n, 5);
        assert!(!c.slot_reuse_on_commit);
        assert!(!c.per_message_acks);
        assert_eq!(c.ring_mode, RingMode::Coupled);
        assert_eq!(c.dissemination, DisseminationMode::Star);
    }

    /// `(upstream, downstream)` of every node, for origin `o`.
    fn routes(n: usize, o: usize) -> Vec<(usize, Option<usize>)> {
        (0..n)
            .map(|i| {
                let r = ring_route(n, o, i);
                (r.upstream, r.downstream)
            })
            .collect()
    }

    #[test]
    fn ring_route_walks_two_arms_away_from_the_origin() {
        // 5 nodes, origin 0: arms 1 → 2 and 4 → 3.
        assert_eq!(
            routes(5, 0),
            [(0, None), (0, Some(2)), (1, None), (4, None), (0, Some(3))]
        );
        // The arms turn with the origin: origin 3 streams to 4 and 2.
        assert_eq!(
            routes(5, 3),
            [(4, None), (2, None), (3, Some(1)), (3, None), (3, Some(0))]
        );
        // Even n: the clockwise arm takes the extra node (8 vs 7 at n = 16),
        // and node 8 — a whole chain's quorum point — is its last.
        let r = routes(16, 0);
        assert_eq!(r[1], (0, Some(2)));
        assert_eq!(r[8], (7, None));
        assert_eq!(r[9], (10, None));
        assert_eq!(r[15], (0, Some(14)));
        let forwarders = r.iter().filter(|(_, down)| down.is_some()).count();
        assert_eq!(forwarders, 13, "all followers but the two arm tails");
    }

    #[test]
    fn star_route_makes_every_follower_an_arm_head() {
        for n in 1..=65 {
            for o in 0..n {
                for i in 0..n {
                    let direct = RingRoute {
                        upstream: o,
                        downstream: None,
                    };
                    assert_eq!(DisseminationMode::Star.route(n, o, i), direct, "n={n}");
                }
            }
        }
    }

    #[test]
    fn ring_route_is_star_up_to_three_nodes() {
        for n in 1..=3 {
            for o in 0..n {
                for i in 0..n {
                    let star = DisseminationMode::Star.route(n, o, i);
                    assert_eq!(ring_route(n, o, i), star, "n={n} o={o} i={i}");
                    assert_eq!(DisseminationMode::Ring.route(n, o, i), star);
                }
            }
        }
    }

    #[test]
    fn dissemination_defaults_to_star() {
        assert_eq!(DisseminationMode::default(), DisseminationMode::Star);
    }
}
