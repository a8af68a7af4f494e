//! Latency histograms and run summaries.

use simnet::{SimTime, SpanStage};
use std::time::Duration;

/// Number of logarithmic buckets: covers ~100 ns to ~17 minutes with 5%
/// resolution.
const BUCKETS: usize = 512;
/// Lower bound of bucket 0, in nanoseconds.
const FLOOR_NS: f64 = 100.0;
/// Geometric growth factor between buckets.
const GROWTH: f64 = 1.05;

/// A fixed-memory log-bucketed latency histogram.
///
/// Buckets grow geometrically (5% per bucket), giving ~5% quantile error —
/// plenty for reproducing curves plotted on a log axis.
#[derive(Clone)]
pub struct LatencyHist {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum_ns: f64,
    max_ns: u64,
    min_ns: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// Create an empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum_ns: 0.0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if (ns as f64) <= FLOOR_NS {
            return 0;
        }
        let b = ((ns as f64 / FLOOR_NS).ln() / GROWTH.ln()).floor() as usize;
        b.min(BUCKETS - 1)
    }

    fn bucket_value(b: usize) -> f64 {
        FLOOR_NS * GROWTH.powi(b as i32)
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as f64;
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns / self.count as f64 / 1_000.0
    }

    /// Approximate quantile (`q` in [0, 1]) in microseconds.
    ///
    /// Reports the *upper* edge of the bucket holding the target sample:
    /// bucket `b` holds samples in `[value(b), value(b+1))`, so the lower
    /// edge would systematically understate every quantile by up to one
    /// bucket width (~5%).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = Self::bucket_value(b) * GROWTH / 1_000.0;
                // Never report beyond the largest recorded sample.
                return upper.min(self.max_ns as f64 / 1_000.0);
            }
        }
        self.max_ns as f64 / 1_000.0
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.50)
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.quantile_us(0.99)
    }

    /// 99.9th percentile in microseconds — the tail the forensics layer
    /// blames; exported so what-if deltas can price tail relief.
    pub fn p999_us(&self) -> f64 {
        self.quantile_us(0.999)
    }

    /// Largest sample in microseconds.
    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1_000.0
    }

    /// Smallest sample in microseconds (0 if empty).
    pub fn min_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_ns as f64 / 1_000.0
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }
}

simnet::registry! {
    /// Which share of a commit's latency a stage transition belongs to, for the
    /// quorum-wait vs. wire vs. CPU anatomy of §4.1.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub enum StageClass {
        /// Time on the wire (client hop, replication write propagation,
        /// response hop).
        Wire = "wire",
        /// Time waiting for replica acknowledgements to become visible and for
        /// the quorum rule to fire.
        QuorumWait = "quorum_wait",
        /// Time in protocol CPU (ordering, commit bookkeeping, delivery).
        Cpu = "cpu",
    }
}

impl StageClass {
    /// The class of the transition that *ends* at `to`.
    pub fn of_transition(to: SpanStage) -> StageClass {
        match to {
            SpanStage::Submit => StageClass::Wire, // unused: nothing ends at Submit
            SpanStage::LeaderRecv => StageClass::Wire,
            SpanStage::RingWrite => StageClass::Cpu,
            SpanStage::FollowerAccept => StageClass::Wire,
            SpanStage::AckVisible => StageClass::QuorumWait,
            SpanStage::Quorum => StageClass::QuorumWait,
            SpanStage::Commit => StageClass::Cpu,
            SpanStage::Deliver => StageClass::Cpu,
            SpanStage::ClientResp => StageClass::Wire,
        }
    }
}

/// Per-stage commit-latency anatomy: one [`LatencyHist`] per lifecycle stage
/// transition, plus the quorum-wait / wire / CPU class roll-up and the
/// end-to-end total.
///
/// A transition is indexed by the stage it *ends* at (`submit → leader_recv`
/// lives under `leader_recv`). When a lifecycle is missing an intermediate
/// mark the delta between its neighboring present marks is attributed to the
/// transition ending at the later mark, so per-stage sums still add up to
/// the total.
#[derive(Clone, Default)]
pub struct StageHist {
    transitions: Vec<LatencyHist>, // SpanStage::COUNT - 1 entries, lazily sized
    classes: Vec<LatencyHist>,     // StageClass::COUNT entries, lazily sized
    /// End-to-end `submit → client_resp` latency.
    pub total: LatencyHist,
}

impl StageHist {
    /// An empty anatomy.
    pub fn new() -> Self {
        StageHist {
            transitions: (1..SpanStage::COUNT).map(|_| LatencyHist::new()).collect(),
            classes: (0..StageClass::COUNT).map(|_| LatencyHist::new()).collect(),
            total: LatencyHist::new(),
        }
    }

    /// Record the duration of the transition ending at `to` (`to` must not
    /// be [`SpanStage::Submit`], which starts a lifecycle).
    pub fn record_transition(&mut self, to: SpanStage, d: Duration) {
        if self.transitions.is_empty() {
            *self = StageHist::new();
        }
        let idx = (to as usize).saturating_sub(1);
        self.transitions[idx].record(d);
        self.classes[StageClass::of_transition(to) as usize].record(d);
    }

    /// Record one assembled lifecycle: `marks[i]` is the nanosecond
    /// timestamp of `SpanStage::ALL[i]`, `None` if the stage never happened.
    /// Every adjacent pair of present marks becomes one transition sample;
    /// a present `submit` and `client_resp` become a total sample.
    pub fn record_lifecycle(&mut self, marks: &[Option<u64>; SpanStage::COUNT]) {
        let mut prev: Option<u64> = None;
        for (i, &mark) in marks.iter().enumerate() {
            let Some(at) = mark else { continue };
            if let Some(p) = prev {
                self.record_transition(
                    SpanStage::ALL[i],
                    Duration::from_nanos(at.saturating_sub(p)),
                );
            }
            prev = Some(at);
        }
        if let (Some(s), Some(r)) = (marks[0], marks[SpanStage::COUNT - 1]) {
            self.total.record(Duration::from_nanos(r.saturating_sub(s)));
        }
    }

    /// The histogram of the transition ending at `to` (empty hist for
    /// [`SpanStage::Submit`]).
    pub fn transition(&self, to: SpanStage) -> &LatencyHist {
        static EMPTY: std::sync::OnceLock<LatencyHist> = std::sync::OnceLock::new();
        if self.transitions.is_empty() || to == SpanStage::Submit {
            return EMPTY.get_or_init(LatencyHist::new);
        }
        &self.transitions[(to as usize) - 1]
    }

    /// The roll-up histogram for one latency class.
    pub fn class(&self, c: StageClass) -> &LatencyHist {
        static EMPTY: std::sync::OnceLock<LatencyHist> = std::sync::OnceLock::new();
        if self.classes.is_empty() {
            return EMPTY.get_or_init(LatencyHist::new);
        }
        &self.classes[c as usize]
    }

    /// Number of complete (submit → client_resp) lifecycles recorded.
    pub fn totals_count(&self) -> u64 {
        self.total.count()
    }

    /// Merge another anatomy into this one.
    pub fn merge(&mut self, other: &StageHist) {
        if other.transitions.is_empty() {
            return;
        }
        if self.transitions.is_empty() {
            *self = StageHist::new();
        }
        for (a, b) in self.transitions.iter_mut().zip(other.transitions.iter()) {
            a.merge(b);
        }
        for (a, b) in self.classes.iter_mut().zip(other.classes.iter()) {
            a.merge(b);
        }
        self.total.merge(&other.total);
    }

    fn hist_json(h: &LatencyHist) -> String {
        format!(
            "{{\"count\":{},\"mean_us\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3},\"p999_us\":{:.3},\"max_us\":{:.3}}}",
            h.count(),
            h.mean_us(),
            h.p50_us(),
            h.p99_us(),
            h.p999_us(),
            h.max_us()
        )
    }

    /// Render as JSON for the metrics sidecar: per-transition stats keyed by
    /// the ending stage, the class roll-up, and the end-to-end total.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"stages\":{");
        for (i, to) in SpanStage::ALL.iter().enumerate().skip(1) {
            if i > 1 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                to.name(),
                Self::hist_json(self.transition(*to))
            ));
        }
        out.push_str("},\"classes\":{");
        for (i, c) in StageClass::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                c.name(),
                Self::hist_json(self.class(c))
            ));
        }
        out.push_str(&format!("}},\"total\":{}}}", Self::hist_json(&self.total)));
        out
    }

    /// Render a human-readable per-stage table (for fig8 / table1 output).
    pub fn table(&self, label: &str) -> String {
        let mut out = format!(
            "stage anatomy [{label}] ({} complete lifecycles)\n  {:<18} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            self.totals_count(),
            "transition",
            "count",
            "mean_us",
            "p50_us",
            "p99_us",
            "p999_us"
        );
        for to in SpanStage::ALL.iter().skip(1) {
            let h = self.transition(*to);
            out.push_str(&format!(
                "  {:<18} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
                format!("-> {}", to.name()),
                h.count(),
                h.mean_us(),
                h.p50_us(),
                h.p99_us(),
                h.p999_us()
            ));
        }
        for c in StageClass::ALL {
            let h = self.class(c);
            out.push_str(&format!(
                "  {:<18} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
                format!("class {}", c.name()),
                h.count(),
                h.mean_us(),
                h.p50_us(),
                h.p99_us(),
                h.p999_us()
            ));
        }
        let t = &self.total;
        out.push_str(&format!(
            "  {:<18} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
            "total",
            t.count(),
            t.mean_us(),
            t.p50_us(),
            t.p99_us(),
            t.p999_us()
        ));
        out
    }
}

/// Summary of one measured run: completed messages, bytes, and latency
/// statistics over the measurement window.
#[derive(Clone)]
pub struct RunResult {
    /// Completed (committed-and-acknowledged) messages in the window.
    pub completed: u64,
    /// Payload bytes completed in the window.
    pub payload_bytes: u64,
    /// Start of the measurement window.
    pub window_start: SimTime,
    /// Time of the last completion (end of useful signal).
    pub last_completion: SimTime,
    /// Latency histogram over the window.
    pub latency: LatencyHist,
}

impl RunResult {
    /// Elapsed measurement time in seconds (at least 1 ns to avoid division
    /// by zero).
    pub fn elapsed_secs(&self) -> f64 {
        self.last_completion
            .saturating_since(self.window_start)
            .as_secs_f64()
            .max(1e-9)
    }

    /// Throughput in messages per second.
    pub fn msgs_per_sec(&self) -> f64 {
        self.completed as f64 / self.elapsed_secs()
    }

    /// Throughput in megabytes of payload per second (the unit of Figure 8's
    /// x-axis).
    pub fn mb_per_sec(&self) -> f64 {
        self.payload_bytes as f64 / 1e6 / self.elapsed_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hist_is_zeroes() {
        let h = LatencyHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.p50_us(), 0.0);
        assert_eq!(h.min_us(), 0.0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHist::new();
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(30));
        assert_eq!(h.count(), 2);
        assert!((h.mean_us() - 20.0).abs() < 1e-9);
        assert!((h.max_us() - 30.0).abs() < 1e-9);
        assert!((h.min_us() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let mut h = LatencyHist::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.p50_us();
        assert!((450.0..=550.0).contains(&p50), "p50 {p50}");
        let p99 = h.p99_us();
        assert!((930.0..=1050.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn tiny_and_huge_samples_clamp() {
        let mut h = LatencyHist::new();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_secs(10_000));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_us(0.0) > 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max_us() >= 1000.0);
        assert!((a.mean_us() - 505.0).abs() < 1.0);
    }

    #[test]
    fn stage_hist_records_adjacent_transitions_and_total() {
        let mut sh = StageHist::new();
        let mut marks = [None; SpanStage::COUNT];
        // submit=0, leader_recv=1000, ring_write missing, follower_accept=5000,
        // ..., client_resp=20000.
        marks[SpanStage::Submit as usize] = Some(0);
        marks[SpanStage::LeaderRecv as usize] = Some(1_000);
        marks[SpanStage::FollowerAccept as usize] = Some(5_000);
        marks[SpanStage::ClientResp as usize] = Some(20_000);
        sh.record_lifecycle(&marks);
        assert_eq!(sh.transition(SpanStage::LeaderRecv).count(), 1);
        // The gap over the missing ring_write lands on follower_accept.
        assert_eq!(sh.transition(SpanStage::RingWrite).count(), 0);
        assert_eq!(sh.transition(SpanStage::FollowerAccept).count(), 1);
        assert_eq!(sh.totals_count(), 1);
        assert!((sh.total.mean_us() - 20.0).abs() < 1e-9);
        // Classes roll up every recorded transition.
        let class_total: u64 = StageClass::ALL.map(|c| sh.class(c).count()).iter().sum();
        assert_eq!(class_total, 3);
    }

    #[test]
    fn stage_hist_merge_and_json() {
        let mut a = StageHist::new();
        let mut b = StageHist::new();
        a.record_transition(SpanStage::Quorum, Duration::from_micros(5));
        b.record_transition(SpanStage::Quorum, Duration::from_micros(7));
        a.merge(&b);
        assert_eq!(a.transition(SpanStage::Quorum).count(), 2);
        let json = a.to_json();
        for s in SpanStage::ALL.iter().skip(1) {
            assert!(json.contains(s.name()), "missing {}", s.name());
        }
        assert!(json.contains("quorum_wait"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Default (empty) StageHist merges and renders without panicking.
        let mut d = StageHist::default();
        d.merge(&a);
        assert_eq!(d.transition(SpanStage::Quorum).count(), 2);
        let _ = StageHist::default().to_json();
        let _ = StageHist::default().table("empty");
    }

    #[test]
    fn run_result_rates() {
        let r = RunResult {
            completed: 1_000,
            payload_bytes: 10_000,
            window_start: SimTime::from_millis(100),
            last_completion: SimTime::from_millis(1_100),
            latency: LatencyHist::new(),
        };
        assert!((r.msgs_per_sec() - 1_000.0).abs() < 1e-6);
        assert!((r.mb_per_sec() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn run_result_zero_window_is_finite() {
        let r = RunResult {
            completed: 5,
            payload_bytes: 50,
            window_start: SimTime::from_millis(1),
            last_completion: SimTime::from_millis(1),
            latency: LatencyHist::new(),
        };
        assert!(r.msgs_per_sec().is_finite());
    }
}
