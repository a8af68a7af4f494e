//! The perf-regression observatory's run matrix.
//!
//! One canonical, pinned-seed sweep across the five per-class Figure 8
//! representatives, exported as a schema'd `BENCH_<label>.json` document.
//! Every knob — seed, replica count, payload, windows, sampling cadence —
//! is pinned by [`SuiteConfig`], and the simulator is deterministic, so two
//! runs of the same config produce **byte-identical** documents. That is
//! what lets [`crate::diff`] hold counters to exact equality and latencies
//! to a formatting-noise epsilon when comparing against the committed
//! baseline.

use crate::{run, run_record_json, Observe, Run, RunSpec, System};
use abcast::spans;
use simnet::{Gauge, GaugeSample, Intervention, InterventionSet, SchedKind};
use std::time::Duration;

/// Document schema tag; bump when the document shape changes so `bench-diff`
/// refuses to compare across shapes.
pub const SCHEMA: &str = "acuerdo-bench-suite-v1";

/// The five systems of the canonical matrix: one representative per
/// protocol class (Acuerdo, Derecho single-sender, Multi-Paxos, Zab, Raft).
pub const SUITE_SYSTEMS: [System; 5] = [
    System::Acuerdo,
    System::DerechoLeader,
    System::Libpaxos,
    System::Zookeeper,
    System::Etcd,
];

/// Pinned suite parameters.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Smoke-sized measurement windows (CI `perf-gate`) vs the full spec.
    pub quick: bool,
    /// Simulation seed shared by every run of the matrix.
    pub seed: u64,
    /// Replica count.
    pub n: usize,
    /// Payload bytes.
    pub payload: usize,
    /// Client windows swept per system.
    pub windows: Vec<usize>,
    /// Gauge-series sampling cadence (sim time).
    pub sample_every: Duration,
    /// Injected leader CPU slowdown — the regression walkthrough's knob,
    /// never set for a baseline.
    pub cpu_scale: Option<f64>,
    /// Event-queue implementation; can never change the document (the
    /// schedulers share one total order), so it is *not* part of the emitted
    /// JSON. The differential test in `tests/determinism.rs` runs the matrix
    /// under both and compares bytes.
    pub scheduler: SchedKind,
    /// Systems to run; defaults to [`SUITE_SYSTEMS`]. The `--dissemination
    /// ring` CLI swap replaces Acuerdo with its ring-topology variant here.
    pub systems: Vec<System>,
}

impl SuiteConfig {
    /// The canonical matrix (this is the configuration the committed
    /// baseline was produced with; change it and the baseline together).
    pub fn new(quick: bool) -> SuiteConfig {
        SuiteConfig {
            quick,
            seed: 42,
            n: 3,
            payload: 64,
            windows: if quick { vec![1, 16] } else { vec![1, 8, 64] },
            sample_every: crate::SAMPLE_EVERY,
            cpu_scale: None,
            scheduler: SchedKind::default(),
            systems: SUITE_SYSTEMS.to_vec(),
        }
    }
}

/// Run the whole matrix and emit the complete `BENCH_*.json` document
/// (newline-terminated).
pub fn run_suite(cfg: &SuiteConfig) -> String {
    // Node 0 is the leader in every suite system at a stable epoch; its
    // scale starts at 1.0, so the intervention sets it to `cpu_scale`.
    let interventions = match cfg.cpu_scale {
        Some(factor) => InterventionSet::null().with(Intervention::CpuScale { node: 0, factor }),
        None => InterventionSet::null(),
    };
    let mut records = Vec::new();
    for &system in &cfg.systems {
        let spec = RunSpec::of(system, !cfg.quick);
        for &w in &cfg.windows {
            let label = format!("{}-w{}", system.name(), w);
            let r = Run::new(system, cfg.n, cfg.payload, w, cfg.seed, spec).observe(Observe {
                traced: true,
                sample_every: Some(cfg.sample_every),
                scheduler: cfg.scheduler,
                interventions: interventions.clone(),
            });
            let out = run(&r);
            let hist = spans::stage_hist(&spans::collect(&out.events));
            let tail = [
                ("stages", hist.to_json()),
                ("gauge_series", gauge_series_json(&out.gauges)),
            ];
            records.push(run_record_json(&label, &r, &out.point, &out.metrics, &tail));
        }
    }
    let cpu_scale = match cfg.cpu_scale {
        Some(s) => format!("{s}"),
        None => "null".to_string(),
    };
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"mode\":\"{}\",\"seed\":{},\"nodes\":{},\
         \"payload_bytes\":{},\"sample_every_us\":{},\"cpu_scale\":{cpu_scale},\
         \"runs\":[{}]}}\n",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.n,
        cfg.payload,
        cfg.sample_every.as_micros(),
        records.join(",")
    )
}

/// Summarize a sampled gauge series as one JSON object: per gauge (in
/// registry order, only gauges that produced samples), the sample count and
/// the min/mean/max/p99 of the sampled levels across all nodes.
pub fn gauge_series_json(samples: &[GaugeSample]) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for g in Gauge::ALL {
        let mut vals: Vec<u64> = samples
            .iter()
            .filter(|s| s.gauge == g)
            .map(|s| s.value)
            .collect();
        if vals.is_empty() {
            continue;
        }
        vals.sort_unstable();
        let count = vals.len();
        let sum: u128 = vals.iter().map(|&v| u128::from(v)).sum();
        let mean = sum as f64 / count as f64;
        let p99 = vals[(count * 99).div_ceil(100) - 1];
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"samples\":{count},\"min\":{},\"max\":{},\"mean\":{mean:.3},\"p99\":{p99}}}",
            g.name(),
            vals[0],
            vals[count - 1],
        ));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

    fn sample(at: u64, node: usize, g: Gauge, v: u64) -> GaugeSample {
        GaugeSample {
            at: SimTime::from_nanos(at),
            node,
            gauge: g,
            value: v,
        }
    }

    #[test]
    fn gauge_series_summary_is_selective_and_ordered() {
        let samples = vec![
            sample(0, 0, Gauge::InflightMsgs, 4),
            sample(100, 0, Gauge::InflightMsgs, 8),
            sample(100, 1, Gauge::Epoch, 2),
        ];
        let j = gauge_series_json(&samples);
        let v = crate::json::parse(&j).unwrap();
        let inflight = v.get("inflight_msgs").unwrap();
        assert_eq!(inflight.get("samples").unwrap().as_u64(), Some(2));
        assert_eq!(inflight.get("min").unwrap().as_u64(), Some(4));
        assert_eq!(inflight.get("max").unwrap().as_u64(), Some(8));
        assert_eq!(inflight.get("p99").unwrap().as_u64(), Some(8));
        assert_eq!(
            v.get("epoch").unwrap().get("mean").unwrap().as_f64(),
            Some(2.0)
        );
        // Gauges that never sampled are absent entirely.
        assert!(v.get("ring_occupancy").is_none());
    }

    #[test]
    fn suite_config_is_pinned() {
        let q = SuiteConfig::new(true);
        assert_eq!(q.seed, 42);
        assert_eq!(q.windows, vec![1, 16]);
        assert!(q.cpu_scale.is_none());
        assert_eq!(q.systems, SUITE_SYSTEMS.to_vec());
        let f = SuiteConfig::new(false);
        assert_eq!(f.windows, vec![1, 8, 64]);
    }
}
