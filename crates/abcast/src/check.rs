//! Executable versions of the §2.2 atomic-broadcast properties.
//!
//! * **Integrity** — every delivered message was previously broadcast;
//! * **No Duplication** — no header is delivered twice at the same node;
//! * **Total Order** — all nodes deliver a prefix of one common order,
//!   without gaps.
//!
//! The checker runs over recorded delivery histories (header + payload) from
//! every correct node after a simulation.
//!
//! Alongside the post-hoc history checker, [`Auditor`] is an **online**
//! invariant monitor: each protocol node owns one and feeds it
//! `(epoch, accept point, commit point)` observations from its poll /
//! commit path. Violations are surfaced immediately as counters
//! ([`Counter::AuditEpochRegress`] and friends) and trace events, so a chaos
//! schedule that drives a node backwards is caught *while it happens*, not
//! only at the final history comparison.

use crate::types::{Epoch, MsgHdr};
use bytes::Bytes;
use simnet::{msg_span, Counter, Ctx, Event, Gauge};
use std::collections::HashSet;

/// A violated atomic-broadcast property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A node delivered the same header twice.
    Duplicate { node: usize, hdr: MsgHdr },
    /// Two nodes delivered different messages at the same position.
    OrderMismatch {
        node_a: usize,
        node_b: usize,
        position: usize,
    },
    /// A node delivered a message that was never broadcast.
    OutOfThinAir { node: usize, hdr: MsgHdr },
    /// Two nodes delivered different payloads for the same header.
    PayloadMismatch { hdr: MsgHdr },
    /// An entry that was committed (delivered somewhere) earlier is no
    /// longer in any live replica's history — durability was lost across a
    /// fault (see [`DurabilityAuditor`]).
    CommittedEntryLost {
        /// Position in the committed prefix where the loss was detected.
        position: usize,
        /// Length of the committed prefix at the time of the observation.
        committed_len: usize,
    },
}

impl Violation {
    /// The violated property's name, as a verdict line prints it.
    pub fn name(&self) -> &'static str {
        match self {
            Violation::Duplicate { .. } => "Duplicate",
            Violation::OrderMismatch { .. } => "OrderMismatch",
            Violation::OutOfThinAir { .. } => "OutOfThinAir",
            Violation::PayloadMismatch { .. } => "PayloadMismatch",
            Violation::CommittedEntryLost { .. } => "CommittedEntryLost",
        }
    }
}

/// Check delivery histories (one per correct node).
///
/// `broadcast` is the set of payloads handed to the protocol by clients; pass
/// `None` to skip the Integrity check (e.g. when payloads are synthesised
/// internally).
pub fn check_histories(
    histories: &[Vec<(MsgHdr, Bytes)>],
    broadcast: Option<&HashSet<Bytes>>,
) -> Result<(), Violation> {
    // No Duplication, per node.
    for (node, h) in histories.iter().enumerate() {
        let mut seen = HashSet::with_capacity(h.len());
        for (hdr, _) in h {
            if !seen.insert(*hdr) {
                return Err(Violation::Duplicate { node, hdr: *hdr });
            }
        }
    }

    // Total Order: every history must be a prefix of the longest one
    // (same headers AND same payloads at each position).
    let longest = histories
        .iter()
        .enumerate()
        .max_by_key(|(_, h)| h.len())
        .map(|(i, _)| i)
        .unwrap_or(0);
    if let Some(reference) = histories.get(longest) {
        for (node, h) in histories.iter().enumerate() {
            for (pos, (hdr, payload)) in h.iter().enumerate() {
                let (ref_hdr, ref_payload) = &reference[pos];
                if hdr != ref_hdr {
                    return Err(Violation::OrderMismatch {
                        node_a: longest,
                        node_b: node,
                        position: pos,
                    });
                }
                if payload != ref_payload {
                    return Err(Violation::PayloadMismatch { hdr: *hdr });
                }
            }
        }
    }

    // Integrity: every delivered payload was broadcast.
    if let Some(sent) = broadcast {
        for (node, h) in histories.iter().enumerate() {
            for (hdr, payload) in h {
                if !sent.contains(payload) {
                    return Err(Violation::OutOfThinAir { node, hdr: *hdr });
                }
            }
        }
    }
    Ok(())
}

/// Violations found by one [`Auditor`] observation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// The node's epoch moved backwards.
    pub epoch_regress: bool,
    /// The node's commit point moved below its high-water mark.
    pub commit_regress: bool,
    /// The node's commit point is ahead of its accept point.
    pub commit_ahead_accept: bool,
}

impl AuditReport {
    /// No violation observed.
    pub fn is_clean(&self) -> bool {
        !(self.epoch_regress || self.commit_regress || self.commit_ahead_accept)
    }
}

fn hdr_arg(h: MsgHdr) -> u64 {
    msg_span(h.epoch.round, h.epoch.ldr, h.cnt)
}

/// Online invariant auditor, one per protocol node (part of node state, so a
/// restarted node starts a fresh auditor — "restart is amnesia" applies to
/// the monitor exactly as it does to the monitored log).
///
/// Continuously asserts, against per-node high-water marks:
///
/// 1. **epoch monotonicity** — the epoch/term/view a node participates in
///    never decreases;
/// 2. **no commit regression** — the commit point never drops below any
///    previously observed commit point;
/// 3. **commit ≤ accept** — a node never commits past what it has accepted
///    into its log (callers pass the node's true accept point; for a leader
///    that is its own proposal point, since proposing *is* accepting).
///
/// Observations are plain comparisons: no CPU charge, no randomness, no
/// scheduling — safe to call from the hottest poll loop.
#[derive(Clone, Debug, Default)]
pub struct Auditor {
    epoch_hw: Epoch,
    commit_hw: MsgHdr,
}

impl Auditor {
    /// A fresh auditor with zeroed high-water marks.
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Check one observation against the high-water marks and update them.
    /// Pure state machine — the counter/trace surfacing lives in
    /// [`Auditor::observe`]; unit tests drive this directly.
    pub fn check(&mut self, epoch: Epoch, accepted: MsgHdr, committed: MsgHdr) -> AuditReport {
        let report = AuditReport {
            epoch_regress: epoch < self.epoch_hw,
            commit_regress: committed < self.commit_hw,
            commit_ahead_accept: committed > accepted,
        };
        self.epoch_hw = self.epoch_hw.max(epoch);
        self.commit_hw = self.commit_hw.max(committed);
        report
    }

    /// [`check`](Auditor::check), surfacing each violation as an
    /// always-on counter bump plus a (tracing-gated) timeline event, and
    /// storing the audited epoch's round as the node's [`Gauge::Epoch`].
    pub fn observe<M>(
        &mut self,
        ctx: &mut Ctx<M>,
        epoch: Epoch,
        accepted: MsgHdr,
        committed: MsgHdr,
    ) -> AuditReport {
        ctx.gauge(Gauge::Epoch, u64::from(epoch.round));
        let report = self.check(epoch, accepted, committed);
        if report.epoch_regress {
            ctx.count(Counter::AuditEpochRegress, 1);
            ctx.trace(
                Event::new("audit_epoch_regress")
                    .a(((epoch.round as u64) << 32) | epoch.ldr as u64)
                    .b(((self.epoch_hw.round as u64) << 32) | self.epoch_hw.ldr as u64),
            );
        }
        if report.commit_regress {
            ctx.count(Counter::AuditCommitRegress, 1);
            ctx.trace(
                Event::new("audit_commit_regress")
                    .a(hdr_arg(committed))
                    .b(hdr_arg(self.commit_hw)),
            );
        }
        if report.commit_ahead_accept {
            ctx.count(Counter::AuditCommitAheadAccept, 1);
            ctx.trace(
                Event::new("audit_commit_ahead_accept")
                    .a(hdr_arg(committed))
                    .b(hdr_arg(accepted)),
            );
        }
        report
    }
}

/// Cross-fault durability monitor: asserts that no committed entry is ever
/// lost, across any fault schedule.
///
/// Unlike [`Auditor`] (one per node, amnesiac across restarts), one
/// `DurabilityAuditor` lives **outside** the cluster for the whole run — in
/// the fault harness — and observes the live replicas' delivery histories at
/// fault boundaries and at the horizon. Its high-water mark is the longest
/// live history seen so far: everything delivered anywhere is committed, and
/// a committed entry must reappear in some live history at every later
/// observation point. An observation with *no* live replicas is skipped (a
/// fully-crashed cluster asserts nothing until someone recovers).
///
/// Under volatile fresh-state rejoin this auditor is expected to fire on
/// adversarial schedules (that is the gap durable mode closes); in durable
/// mode any violation is a bug.
#[derive(Clone, Debug, Default)]
pub struct DurabilityAuditor {
    /// The committed prefix: longest live history observed so far.
    committed: Vec<(MsgHdr, Bytes)>,
}

impl DurabilityAuditor {
    /// A fresh auditor with an empty committed prefix.
    pub fn new() -> Self {
        DurabilityAuditor::default()
    }

    /// Length of the committed prefix observed so far.
    pub fn committed_len(&self) -> usize {
        self.committed.len()
    }

    /// Feed one snapshot of the live replicas' delivery histories. Returns
    /// the first violation found: a committed entry missing from (or
    /// diverging in) every live history.
    pub fn observe(&mut self, histories: &[Vec<(MsgHdr, Bytes)>]) -> Result<(), Violation> {
        let Some(longest) = histories.iter().max_by_key(|h| h.len()) else {
            return Ok(()); // all replicas crashed: nothing to assert yet
        };
        if longest.len() < self.committed.len() {
            return Err(Violation::CommittedEntryLost {
                position: longest.len(),
                committed_len: self.committed.len(),
            });
        }
        for (pos, (hdr, payload)) in self.committed.iter().enumerate() {
            if longest[pos].0 != *hdr || longest[pos].1 != *payload {
                return Err(Violation::CommittedEntryLost {
                    position: pos,
                    committed_len: self.committed.len(),
                });
            }
        }
        self.committed = longest.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Epoch;

    fn hdr(cnt: u32) -> MsgHdr {
        MsgHdr::new(Epoch::new(0, 1), cnt)
    }

    fn entry(cnt: u32, p: &'static [u8]) -> (MsgHdr, Bytes) {
        (hdr(cnt), Bytes::from_static(p))
    }

    #[test]
    fn identical_histories_pass() {
        let h = vec![entry(1, b"a"), entry(2, b"b")];
        assert_eq!(check_histories(&[h.clone(), h.clone(), h], None), Ok(()));
    }

    #[test]
    fn prefixes_pass() {
        let long = vec![entry(1, b"a"), entry(2, b"b"), entry(3, b"c")];
        let short = vec![entry(1, b"a")];
        assert_eq!(
            check_histories(&[short, long.clone(), vec![]], None),
            Ok(())
        );
    }

    #[test]
    fn duplicate_detected() {
        let h = vec![entry(1, b"a"), entry(1, b"a")];
        assert_eq!(
            check_histories(&[h], None),
            Err(Violation::Duplicate {
                node: 0,
                hdr: hdr(1)
            })
        );
    }

    #[test]
    fn divergent_order_detected() {
        let a = vec![entry(1, b"a"), entry(2, b"b")];
        let b = vec![entry(1, b"a"), entry(3, b"c")];
        let err = check_histories(&[a, b], None).unwrap_err();
        assert!(matches!(err, Violation::OrderMismatch { position: 1, .. }));
    }

    #[test]
    fn payload_divergence_detected() {
        let a = vec![entry(1, b"a"), entry(2, b"b")];
        let b = vec![entry(1, b"a"), entry(2, b"X")];
        assert_eq!(
            check_histories(&[a, b], None),
            Err(Violation::PayloadMismatch { hdr: hdr(2) })
        );
    }

    #[test]
    fn thin_air_detected() {
        let sent: HashSet<Bytes> = [Bytes::from_static(b"a")].into_iter().collect();
        let h = vec![entry(1, b"a"), entry(2, b"ghost")];
        assert_eq!(
            check_histories(&[h], Some(&sent)),
            Err(Violation::OutOfThinAir {
                node: 0,
                hdr: hdr(2)
            })
        );
    }

    #[test]
    fn empty_histories_pass() {
        assert_eq!(check_histories(&[vec![], vec![]], None), Ok(()));
        assert_eq!(check_histories(&[], None), Ok(()));
    }

    #[test]
    fn gap_is_an_order_mismatch() {
        // Node b skipped header 2: at position 1 it delivered 3 instead.
        let a = vec![entry(1, b"a"), entry(2, b"b"), entry(3, b"c")];
        let b = vec![entry(1, b"a"), entry(3, b"c")];
        assert!(check_histories(&[a, b], None).is_err());
    }

    #[test]
    fn auditor_clean_progress_stays_clean() {
        let mut a = Auditor::new();
        let e = Epoch::new(1, 0);
        for cnt in 1..50u32 {
            let acc = MsgHdr::new(e, cnt + 1); // accept runs ahead of commit
            let com = MsgHdr::new(e, cnt);
            assert!(a.check(e, acc, com).is_clean(), "cnt {cnt}");
        }
        // An epoch bump with commit carried over is clean too.
        let e2 = Epoch::new(2, 1);
        assert!(a
            .check(e2, MsgHdr::new(e2, 3), MsgHdr::new(e2, 0))
            .is_clean());
    }

    #[test]
    fn auditor_detects_epoch_regression() {
        let mut a = Auditor::new();
        assert!(a
            .check(Epoch::new(3, 1), MsgHdr::ZERO, MsgHdr::ZERO)
            .is_clean());
        let r = a.check(Epoch::new(2, 9), MsgHdr::ZERO, MsgHdr::ZERO);
        assert!(r.epoch_regress);
        assert!(!r.commit_regress && !r.commit_ahead_accept);
    }

    #[test]
    fn auditor_detects_commit_regression() {
        let mut a = Auditor::new();
        let e = Epoch::new(1, 0);
        assert!(a
            .check(e, MsgHdr::new(e, 10), MsgHdr::new(e, 10))
            .is_clean());
        // Deliberately injected regression: the commit point falls back.
        let r = a.check(e, MsgHdr::new(e, 10), MsgHdr::new(e, 4));
        assert!(r.commit_regress);
        // The high-water mark is sticky: still regressed on the next tick.
        let r = a.check(e, MsgHdr::new(e, 10), MsgHdr::new(e, 9));
        assert!(r.commit_regress);
        // Recovering past the high-water mark clears it.
        let r = a.check(e, MsgHdr::new(e, 12), MsgHdr::new(e, 11));
        assert!(r.is_clean());
    }

    #[test]
    fn auditor_detects_commit_ahead_of_accept() {
        let mut a = Auditor::new();
        let e = Epoch::new(1, 0);
        let r = a.check(e, MsgHdr::new(e, 3), MsgHdr::new(e, 5));
        assert!(r.commit_ahead_accept);
        assert!(!r.commit_regress);
    }

    #[test]
    fn durability_auditor_tracks_growing_prefix() {
        let mut d = DurabilityAuditor::new();
        let h1 = vec![entry(1, b"a")];
        let h2 = vec![entry(1, b"a"), entry(2, b"b")];
        assert_eq!(d.observe(&[h1.clone(), h2.clone()]), Ok(()));
        assert_eq!(d.committed_len(), 2);
        // Same or longer histories later stay clean.
        let h3 = vec![entry(1, b"a"), entry(2, b"b"), entry(3, b"c")];
        assert_eq!(d.observe(&[h2, h3]), Ok(()));
        assert_eq!(d.committed_len(), 3);
    }

    #[test]
    fn durability_auditor_skips_fully_crashed_observations() {
        let mut d = DurabilityAuditor::new();
        let h = vec![entry(1, b"a"), entry(2, b"b")];
        assert_eq!(d.observe(std::slice::from_ref(&h)), Ok(()));
        // Whole cluster down: nothing to assert, mark survives.
        assert_eq!(d.observe(&[]), Ok(()));
        assert_eq!(d.committed_len(), 2);
        assert_eq!(d.observe(&[h]), Ok(()));
    }

    #[test]
    fn durability_auditor_detects_lost_committed_entry() {
        let mut d = DurabilityAuditor::new();
        let h = vec![entry(1, b"a"), entry(2, b"b")];
        assert_eq!(d.observe(&[h]), Ok(()));
        // After a crash-recovery, the longest live history lost entry 2.
        let short = vec![entry(1, b"a")];
        assert_eq!(
            d.observe(&[short]),
            Err(Violation::CommittedEntryLost {
                position: 1,
                committed_len: 2
            })
        );
    }

    #[test]
    fn durability_auditor_detects_divergent_committed_entry() {
        let mut d = DurabilityAuditor::new();
        let h = vec![entry(1, b"a"), entry(2, b"b")];
        assert_eq!(d.observe(&[h]), Ok(()));
        // Same length, but the committed entry at position 1 was replaced.
        let diverged = vec![entry(1, b"a"), entry(2, b"X")];
        assert_eq!(
            d.observe(&[diverged]),
            Err(Violation::CommittedEntryLost {
                position: 1,
                committed_len: 2
            })
        );
    }
}
