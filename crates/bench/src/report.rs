//! Post-hoc trace analysis for the `trace-report` binary (and the
//! observability tests): from a timeline re-ingested by [`crate::chrome`],
//! reassemble message lifecycles and render the commit-latency anatomy,
//! critical-path samples, and per-link traffic.

use abcast::spans::{collect, stage_hist};
use abcast::{Lifecycle, StageHist};
use simnet::{Gauge, GaugeSample, SpanStage, TraceEvent};

/// One (src → dst) traffic aggregate from the NIC egress lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Talker {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Packets serialized onto the wire.
    pub packets: u64,
    /// Wire bytes (after min-wire-size clamping).
    pub bytes: u64,
}

/// Everything `trace-report` prints, exposed as data so tests can assert on
/// it without scraping stdout.
pub struct TraceReport {
    /// Assembled lifecycles (one per canonical span id).
    pub lifecycles: Vec<Lifecycle>,
    /// Per-stage commit-latency anatomy over the assembled lifecycles.
    pub stages: StageHist,
    /// Raw stage-mark counts per [`SpanStage`] slot, straight off the
    /// timeline (before any covering-mark inheritance). Their sum equals the
    /// cluster's `span_marks` counter for the same run.
    pub mark_counts: [u64; SpanStage::COUNT],
    /// Per-link traffic, heaviest first.
    pub talkers: Vec<Talker>,
}

impl TraceReport {
    /// Total stage marks on the timeline.
    pub fn total_marks(&self) -> u64 {
        self.mark_counts.iter().sum()
    }

    /// Whether the trace carried no lifecycle information at all.
    pub fn is_empty(&self) -> bool {
        self.total_marks() == 0
    }
}

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render one coarse text sparkline: the time range bucketed into at most
/// `width` bins, each showing the mean sampled value of its bin scaled
/// against the series maximum.
fn sparkline(samples: &[(u64, u64)], width: usize) -> String {
    let Some(&(t0, _)) = samples.first() else {
        return String::new();
    };
    let t1 = samples.last().map(|&(t, _)| t).unwrap_or(t0);
    let span = (t1 - t0).max(1);
    let bins = width.max(1);
    let mut sum = vec![0u128; bins];
    let mut cnt = vec![0u64; bins];
    for &(t, v) in samples {
        let b = ((t - t0) as u128 * bins as u128 / (span as u128 + 1)) as usize;
        sum[b] += u128::from(v);
        cnt[b] += 1;
    }
    let means: Vec<f64> = sum
        .iter()
        .zip(&cnt)
        .map(|(&s, &c)| {
            if c == 0 {
                f64::NAN
            } else {
                s as f64 / c as f64
            }
        })
        .collect();
    let max = means
        .iter()
        .copied()
        .filter(|m| !m.is_nan())
        .fold(0.0, f64::max);
    means
        .iter()
        .map(|&m| {
            if m.is_nan() {
                ' '
            } else if max <= 0.0 {
                SPARK[0]
            } else {
                SPARK[((m / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Render the gauge time-series summary: per gauge (registry order, only
/// gauges that sampled), min/mean/max/p99 of the levels across all nodes
/// plus a coarse sparkline of the cluster-mean level over time.
pub fn render_gauge_series(samples: &[GaugeSample]) -> String {
    if samples.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let nodes = samples.iter().map(|s| s.node).max().unwrap_or(0) + 1;
    out.push_str(&format!(
        "gauge series ({} samples, {} nodes):\n",
        samples.len(),
        nodes
    ));
    for g in Gauge::ALL {
        let mut series: Vec<(u64, u64)> = samples
            .iter()
            .filter(|s| s.gauge == g)
            .map(|s| (s.at.as_nanos(), s.value))
            .collect();
        if series.is_empty() {
            continue;
        }
        series.sort_unstable();
        let mut vals: Vec<u64> = series.iter().map(|&(_, v)| v).collect();
        vals.sort_unstable();
        let count = vals.len();
        let sum: u128 = vals.iter().map(|&v| u128::from(v)).sum();
        out.push_str(&format!(
            "  {:<20} min {:>6}  mean {:>10.1}  max {:>8}  p99 {:>8}  {}\n",
            g.name(),
            vals[0],
            sum as f64 / count as f64,
            vals[count - 1],
            vals[(count * 99).div_ceil(100) - 1],
            sparkline(&series, 32)
        ));
    }
    out
}

/// Build the report from a recorded (or re-ingested) timeline.
pub fn build(events: &[TraceEvent]) -> TraceReport {
    let lifecycles = collect(events);
    let stages = stage_hist(&lifecycles);
    let mut mark_counts = [0u64; SpanStage::COUNT];
    let mut links: std::collections::HashMap<(usize, usize), (u64, u64)> =
        std::collections::HashMap::new();
    for e in events {
        match *e {
            TraceEvent::Span { stage, .. } => mark_counts[stage as usize] += 1,
            TraceEvent::NicEgress {
                node, dst, bytes, ..
            } => {
                let slot = links.entry((node, dst)).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += bytes as u64;
            }
            _ => {}
        }
    }
    let mut talkers: Vec<Talker> = links
        .into_iter()
        .map(|((src, dst), (packets, bytes))| Talker {
            src,
            dst,
            packets,
            bytes,
        })
        .collect();
    talkers.sort_by(|a, b| {
        b.bytes
            .cmp(&a.bytes)
            .then((a.src, a.dst).cmp(&(b.src, b.dst)))
    });
    TraceReport {
        lifecycles,
        stages,
        mark_counts,
        talkers,
    }
}

/// The complete lifecycle whose end-to-end latency sits at quantile `q`
/// (`None` when no lifecycle has both ends).
pub fn critical_path_sample(lifecycles: &[Lifecycle], q: f64) -> Option<&Lifecycle> {
    let mut totals: Vec<(u64, &Lifecycle)> = lifecycles
        .iter()
        .filter_map(|l| l.total_ns().map(|t| (t, l)))
        .collect();
    if totals.is_empty() {
        return None;
    }
    totals.sort_by_key(|&(t, _)| t);
    let idx = ((totals.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    Some(totals[idx].1)
}

fn render_sample(out: &mut String, label: &str, l: &Lifecycle) {
    let Some(start) = l
        .mark(SpanStage::Submit)
        .or_else(|| l.marks.iter().flatten().min().copied())
    else {
        return;
    };
    out.push_str(&format!(
        "critical path [{label}] span {:#x} (total {:.2} us)\n",
        l.id,
        l.total_ns().unwrap_or(0) as f64 / 1_000.0
    ));
    let mut prev = start;
    for stage in SpanStage::ALL {
        if let Some(at) = l.mark(stage) {
            out.push_str(&format!(
                "  {:<16} +{:>9.2} us  (Δ {:>8.2} us)\n",
                stage.name(),
                (at - start) as f64 / 1_000.0,
                at.saturating_sub(prev) as f64 / 1_000.0
            ));
            prev = at;
        }
    }
}

/// Links listed under "top talkers", heaviest first.
const TOP_TALKERS: usize = 8;

/// Render the whole report as the text `trace-report` prints.
pub fn render(r: &TraceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} stage marks over {} lifecycles ({} complete)\n\nmark counts:\n",
        r.total_marks(),
        r.lifecycles.len(),
        r.lifecycles.iter().filter(|l| l.complete()).count()
    ));
    for (i, stage) in SpanStage::ALL.iter().enumerate() {
        out.push_str(&format!("  {:<16} {:>8}\n", stage.name(), r.mark_counts[i]));
    }
    out.push('\n');
    out.push_str(&r.stages.table("trace"));
    out.push('\n');
    for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
        if let Some(l) = critical_path_sample(&r.lifecycles, q) {
            render_sample(&mut out, label, l);
        }
    }
    if !r.talkers.is_empty() {
        out.push_str(&format!("\ntop talkers (of {} links):\n", r.talkers.len()));
        out.push_str(&format!(
            "  {:>4} {:>4} {:>10} {:>12}\n",
            "src", "dst", "packets", "wire_bytes"
        ));
        for t in r.talkers.iter().take(TOP_TALKERS) {
            out.push_str(&format!(
                "  {:>4} {:>4} {:>10} {:>12}\n",
                t.src, t.dst, t.packets, t.bytes
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{client_span, msg_span, SimTime};

    fn span(at: u64, node: usize, id: u64, stage: SpanStage, arg: u64) -> TraceEvent {
        TraceEvent::Span {
            at: SimTime::from_nanos(at),
            node,
            id,
            stage,
            arg,
        }
    }

    fn full_lifecycle(events: &mut Vec<TraceEvent>, client: usize, req: u64, cnt: u32, base: u64) {
        let cid = client_span(client, req);
        let mid = msg_span(1, 0, cnt);
        events.push(span(base, client, cid, SpanStage::Submit, 0));
        for (k, stage) in SpanStage::ALL[1..8].iter().enumerate() {
            let arg = if *stage == SpanStage::LeaderRecv {
                cid
            } else {
                0
            };
            events.push(span(base + 1_000 * (k as u64 + 1), 0, mid, *stage, arg));
        }
        events.push(span(base + 9_000, client, cid, SpanStage::ClientResp, 0));
    }

    #[test]
    fn report_counts_and_anatomy() {
        let mut events = Vec::new();
        full_lifecycle(&mut events, 5, 1, 1, 0);
        full_lifecycle(&mut events, 5, 2, 2, 50_000);
        events.push(TraceEvent::NicEgress {
            node: 0,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(26),
            bytes: 200,
            dst: 1,
        });
        let r = build(&events);
        assert_eq!(r.total_marks(), 18);
        assert_eq!(r.mark_counts[SpanStage::Submit as usize], 2);
        assert_eq!(r.lifecycles.len(), 2);
        assert_eq!(r.stages.totals_count(), 2);
        assert_eq!(r.talkers.len(), 1);
        assert_eq!(r.talkers[0].bytes, 200);
        assert!(!r.is_empty());
        let text = render(&r);
        assert!(text.contains("stage anatomy"));
        assert!(text.contains("critical path [p50]"));
        assert!(text.contains("top talkers"));
    }

    #[test]
    fn critical_path_picks_quantiles() {
        let mut events = Vec::new();
        full_lifecycle(&mut events, 5, 1, 1, 0); // total 9 us
        let cid = client_span(5, 9);
        events.push(span(0, 5, cid, SpanStage::Submit, 0));
        events.push(span(90_000, 5, cid, SpanStage::ClientResp, 0)); // total 90 us
        let lifes = collect(&events);
        let p0 = critical_path_sample(&lifes, 0.0).unwrap();
        let p99 = critical_path_sample(&lifes, 0.99).unwrap();
        assert_eq!(p0.total_ns(), Some(9_000));
        assert_eq!(p99.total_ns(), Some(90_000));
        assert!(critical_path_sample(&[], 0.5).is_none());
    }

    #[test]
    fn empty_trace_is_reported_empty() {
        let r = build(&[]);
        assert!(r.is_empty());
        assert_eq!(r.lifecycles.len(), 0);
        let text = render(&r);
        assert!(text.contains("0 stage marks"));
    }
}
