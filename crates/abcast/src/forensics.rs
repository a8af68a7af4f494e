//! Per-commit blame attribution for tail-latency forensics.
//!
//! The always-on collector in `simnet::trace` captures, for every committed
//! broadcast, its stage chain annotated with wait-integral snapshots
//! ([`CommitForensics`]). This module folds one such record into a **blame
//! vector**: commit latency decomposed into named causes that sum exactly to
//! the measured total (integer nanoseconds, no residual).
//!
//! The decomposition walks consecutive present stage marks and assigns each
//! gap in three steps:
//!
//! 1. a gap leaving `Submit` first absorbs the **retransmit** budget (the
//!    span between the first and last Submit marks — time the request spent
//!    being re-sent before the ordering node adopted it);
//! 2. the portion of a gap overlapping the **leader window** (first to last
//!    leader-local mark) absorbs the leader's wait-integral deltas over
//!    that window, in priority order fsync barrier → egress queue →
//!    busy-node deferral → scheduler hold — each budget is consumed at most
//!    once across the whole chain;
//! 3. whatever remains is classified by the [`StageClass`] of the
//!    transition the gap ends at: quorum-wait gaps become **straggler
//!    wait**, wire gaps become **link delay**, CPU gaps become **cpu
//!    exec**.
//!
//! Because every gap is fully assigned and the gaps telescope from Submit
//! to ClientResp, the vector sums to the client-measured latency by
//! construction.

use simnet::{CommitForensics, ForensicMark, NodeId, SpanStage, WaitReason};

use crate::stats::StageClass;

simnet::registry! {
    /// A named cause in a per-commit blame vector.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    #[repr(usize)]
    pub enum BlameCause {
        /// Time the leader's NIC egress queue held replication/response frames
        /// behind earlier serializations.
        LeaderEgressQueue = "leader_egress_queue",
        /// Time waiting for the last quorum acknowledgement (the straggler).
        StragglerWait = "straggler_wait",
        /// Client retransmit rounds before the ordering node adopted the
        /// request.
        Retransmit = "retransmit",
        /// Wire propagation and remote ingress queueing.
        LinkDelay = "link_delay",
        /// Persistent-log fsync barriers on the leader.
        FsyncBarrier = "fsync_barrier",
        /// Deferrals behind the leader's busy CPU.
        BusyDefer = "busy_defer",
        /// Deferrals behind a fault-layer pause (descheduling).
        SchedHold = "sched_hold",
        /// Protocol CPU execution (ordering, commit bookkeeping, delivery).
        CpuExec = "cpu_exec",
    }
}

/// One commit's blame vector plus the context a forensic explanation needs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Blame {
    /// Nanoseconds per cause; sums to the commit's measured latency.
    pub ns: [u64; BlameCause::COUNT],
    /// The ordering node the leader window belongs to, when known.
    pub leader: Option<NodeId>,
    /// Egress-queue wait events the leader accrued inside the window — how
    /// many queued fan-out frames the commit was stuck behind.
    pub fan_outs: u64,
}

impl Blame {
    /// Total attributed nanoseconds (equals the commit latency).
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The largest cause and its share of the total (0..=100), ties toward
    /// the lower cause slot. `None` for an all-zero vector.
    pub fn dominant(&self) -> Option<(BlameCause, f64)> {
        let total = self.total_ns();
        if total == 0 {
            return None;
        }
        let (i, &v) = self
            .ns
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))?;
        Some((BlameCause::ALL[i], v as f64 * 100.0 / total as f64))
    }
}

/// Wait-budget consumption order inside the leader window (step 2 above)
/// and the blame slot each reason charges.
const WINDOW_BUDGETS: [(WaitReason, BlameCause); 4] = [
    (WaitReason::FsyncBarrier, BlameCause::FsyncBarrier),
    (WaitReason::EgressQueue, BlameCause::LeaderEgressQueue),
    (WaitReason::BusyDefer, BlameCause::BusyDefer),
    (WaitReason::SchedHold, BlameCause::SchedHold),
];

/// Blame slot of a gap remainder ending at stage `to` (step 3 above).
fn residual_cause(to: SpanStage) -> BlameCause {
    match StageClass::of_transition(to) {
        StageClass::QuorumWait => BlameCause::StragglerWait,
        StageClass::Wire => BlameCause::LinkDelay,
        StageClass::Cpu => BlameCause::CpuExec,
    }
}

/// Assemble the blame vector for one finalized commit record.
///
/// Returns `None` when the record has no Submit or no ClientResp mark (it
/// was never finalized — latency is undefined). For finalized records the
/// vector sums exactly to `rec.latency_ns`.
pub fn blame(rec: &CommitForensics) -> Option<Blame> {
    let submit = rec.mark(SpanStage::Submit)?;
    rec.mark(SpanStage::ClientResp)?;

    let present: Vec<(SpanStage, ForensicMark)> = SpanStage::ALL
        .iter()
        .filter_map(|&st| rec.mark(st).map(|m| (st, m)))
        .collect();

    // Leader window: first to last leader-local mark, with the leader's
    // wait-integral deltas over it as consumable budgets.
    let leader = rec.mark(SpanStage::LeaderRecv).map(|m| m.node);
    let mut window: Option<(u64, u64)> = None;
    let mut budget = [0u64; WaitReason::COUNT];
    let mut fan_outs = 0u64;
    if let Some(l) = leader {
        let mut on_leader: Vec<&ForensicMark> = present
            .iter()
            .map(|(_, m)| m)
            .filter(|m| m.node == l)
            .collect();
        on_leader.sort_by_key(|m| m.at_ns);
        if on_leader.len() >= 2 {
            let (first, last) = (on_leader[0], on_leader[on_leader.len() - 1]);
            window = Some((first.at_ns, last.at_ns));
            for r in WaitReason::ALL {
                budget[r as usize] =
                    last.waits.ns[r as usize].saturating_sub(first.waits.ns[r as usize]);
            }
            let eq = WaitReason::EgressQueue as usize;
            fan_outs = last.waits.events[eq].saturating_sub(first.waits.events[eq]);
        }
    }

    // Retransmit budget: the span the client spent re-submitting.
    let mut retx = if rec.retransmits > 0 {
        rec.last_submit_ns.saturating_sub(submit.at_ns)
    } else {
        0
    };

    let mut ns = [0u64; BlameCause::COUNT];
    for pair in present.windows(2) {
        let ((a_stage, a), (b_stage, b)) = (pair[0], pair[1]);
        let mut gap = b.at_ns.saturating_sub(a.at_ns);
        // Step 1 — retransmit rounds, chargeable only out of Submit.
        if a_stage == SpanStage::Submit && retx > 0 {
            let t = gap.min(retx);
            ns[BlameCause::Retransmit as usize] += t;
            retx -= t;
            gap -= t;
        }
        // Step 2 — leader-window wait budgets against the overlap.
        if let Some((t0, t1)) = window {
            let overlap = b.at_ns.min(t1).saturating_sub(a.at_ns.max(t0));
            let mut avail = overlap.min(gap);
            for (reason, cause) in WINDOW_BUDGETS {
                let t = avail.min(budget[reason as usize]);
                ns[cause as usize] += t;
                budget[reason as usize] -= t;
                avail -= t;
                gap -= t;
            }
        }
        // Step 3 — residual by the ending stage's class.
        ns[residual_cause(b_stage) as usize] += gap;
    }

    Some(Blame {
        ns,
        leader,
        fan_outs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::WaitStats;

    fn mark(at_ns: u64, node: NodeId, egress_ns: u64) -> ForensicMark {
        let mut waits = WaitStats::default();
        waits.ns[WaitReason::EgressQueue as usize] = egress_ns;
        waits.events[WaitReason::EgressQueue as usize] = egress_ns / 100;
        ForensicMark { at_ns, node, waits }
    }

    fn rec_with_marks(marks: &[(SpanStage, ForensicMark)]) -> CommitForensics {
        let mut rec = CommitForensics {
            id: 7,
            ..CommitForensics::default()
        };
        for &(st, m) in marks {
            rec.marks[st as usize] = Some(m);
        }
        let sub = rec.marks[SpanStage::Submit as usize].map(|m| m.at_ns);
        let resp = rec.marks[SpanStage::ClientResp as usize].map(|m| m.at_ns);
        if let (Some(s), Some(r)) = (sub, resp) {
            rec.latency_ns = r - s;
            rec.last_submit_ns = s;
        }
        rec
    }

    #[test]
    fn blame_sums_exactly_to_latency() {
        let rec = rec_with_marks(&[
            (SpanStage::Submit, mark(0, 9, 0)),
            (SpanStage::LeaderRecv, mark(1_000, 0, 100)),
            (SpanStage::AckVisible, mark(9_000, 0, 5_100)),
            (SpanStage::Quorum, mark(9_500, 0, 5_100)),
            (SpanStage::Commit, mark(9_600, 0, 5_100)),
            (SpanStage::Deliver, mark(9_700, 0, 5_100)),
            (SpanStage::ClientResp, mark(11_000, 9, 0)),
        ]);
        let b = blame(&rec).expect("finalized record");
        assert_eq!(b.total_ns(), rec.latency_ns);
        // The leader accrued 5000ns of egress-queue wait inside the window
        // — all of it lands on leader_egress_queue.
        assert_eq!(b.ns[BlameCause::LeaderEgressQueue as usize], 5_000);
        assert_eq!(b.leader, Some(0));
        assert_eq!(b.fan_outs, 50);
    }

    #[test]
    fn retransmit_rounds_absorb_the_submit_gap() {
        let mut rec = rec_with_marks(&[
            (SpanStage::Submit, mark(0, 9, 0)),
            (SpanStage::LeaderRecv, mark(50_000, 0, 0)),
            (SpanStage::Commit, mark(51_000, 0, 0)),
            (SpanStage::ClientResp, mark(52_000, 9, 0)),
        ]);
        rec.retransmits = 1;
        rec.last_submit_ns = 40_000;
        let b = blame(&rec).expect("finalized record");
        assert_eq!(b.ns[BlameCause::Retransmit as usize], 40_000);
        assert_eq!(b.total_ns(), rec.latency_ns);
    }

    #[test]
    fn unfinalized_records_have_no_blame() {
        let rec = rec_with_marks(&[(SpanStage::Submit, mark(0, 9, 0))]);
        assert!(blame(&rec).is_none());
    }

    #[test]
    fn dominant_names_the_largest_cause() {
        let mut b = Blame::default();
        b.ns[BlameCause::StragglerWait as usize] = 750;
        b.ns[BlameCause::LinkDelay as usize] = 250;
        let (cause, pct) = b.dominant().expect("nonzero");
        assert_eq!(cause, BlameCause::StragglerWait);
        assert!((pct - 75.0).abs() < 1e-9);
        assert!(Blame::default().dominant().is_none());
    }
}
