//! The 64-node scalability study.
//!
//! One pinned-seed sweep over cluster sizes for the five per-class Figure 8
//! representatives, exported as a schema'd `BENCH_<label>.json` document in
//! the same shape `bench-diff` compares: fixed comparability keys at the top
//! level, one labeled record per run. Runs are *untraced* (full event
//! timelines at 64 nodes are enormous and the stage anatomy is the `suite`'s
//! job) but keep gauge-series sampling on, so each record still carries the
//! exact counter snapshot and gauge extremes that `bench-diff` holds to
//! equality.
//!
//! The committed baseline (`baselines/BENCH_scale.json`) is the **quick**
//! sweep — every size class down-sampled to {3, 16, 64} with smoke-sized
//! windows — which is what CI's `scale-smoke` job regenerates and compares.
//! The full {3,5,7,9,16,32,64} sweep is the same document at `--full`.

use crate::suite::gauge_series_json;
use crate::{run, run_record_json, Observe, Run, RunSpec, System};
use simnet::SchedKind;
use std::time::Duration;

/// Document schema tag; bump when the document shape changes so `bench-diff`
/// refuses to compare across shapes.
pub const SCHEMA: &str = "acuerdo-bench-scale-v2";

/// The systems swept: one representative per protocol class, plus the
/// ring-dissemination variant of Acuerdo so the document carries the
/// star-vs-ring crossover at every size the ring differs from the star
/// ([`swept`]; v2 — v1 swept the five representatives only).
pub const SCALE_SYSTEMS: [System; 6] = [
    System::Acuerdo,
    System::AcuerdoRing,
    System::DerechoLeader,
    System::Libpaxos,
    System::Zookeeper,
    System::Etcd,
];

/// Whether the matrix carries a `(system, n)` row. The ring variant is swept
/// only above three nodes: up to there `acuerdo::ring_route` has no
/// forwarding hop, so the run would be the star row's, byte for byte.
pub fn swept(system: System, n: usize) -> bool {
    !(system == System::AcuerdoRing && n <= 3)
}

/// The full sweep's cluster sizes.
pub const SCALE_SIZES: [usize; 7] = [3, 5, 7, 9, 16, 32, 64];

/// The quick (CI) sweep's cluster sizes: the floor, the knee, and the top of
/// the full sweep — small enough to regenerate in a CI job, while still
/// proving the 64-node configuration completes.
pub const QUICK_SIZES: [usize; 3] = [3, 16, 64];

/// Pinned sweep parameters.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Down-sampled sizes and smoke windows (CI `scale-smoke`) vs the full
    /// sweep.
    pub quick: bool,
    /// Simulation seed shared by every run.
    pub seed: u64,
    /// Payload bytes.
    pub payload: usize,
    /// Client window (one fixed operating point; the window *sweep* is
    /// Figure 8's job, cluster size is this document's axis).
    pub window: usize,
    /// Cluster sizes swept per system.
    pub sizes: Vec<usize>,
    /// Gauge-series sampling cadence (sim time).
    pub sample_every: Duration,
    /// Systems swept, in document order (default: the full
    /// [`SCALE_SYSTEMS`] matrix; the `--dissemination` flag narrows the
    /// acuerdo rows to one topology).
    pub systems: Vec<System>,
    /// Event-queue implementation; can never change the document (the
    /// schedulers share one total order), so it is not part of the emitted
    /// JSON. The differential test in `tests/determinism.rs` runs sweeps
    /// under both and compares bytes.
    pub scheduler: SchedKind,
}

impl ScaleConfig {
    /// The canonical sweep (this is the configuration the committed baseline
    /// was produced with; change it and the baseline together).
    pub fn new(quick: bool) -> ScaleConfig {
        ScaleConfig {
            quick,
            seed: 42,
            // Dissemination-bound operating point: 16 KiB payloads make
            // the leader's (n-1)-way fan-out the dominant byte stream —
            // serialization (bytes x 0.32 ns) dwarfs the fixed ~1.1 us
            // verb-post CPU per write, so the document exposes how
            // dissemination cost grows with cluster size and the bottleneck
            // ranker can watch the leader NIC saturate at n = 64.
            // Small-payload behaviour is Figure 8's axis, not this
            // document's.
            payload: 16384,
            window: 8,
            sizes: if quick {
                QUICK_SIZES.to_vec()
            } else {
                SCALE_SIZES.to_vec()
            },
            sample_every: crate::SAMPLE_EVERY,
            systems: SCALE_SYSTEMS.to_vec(),
            scheduler: SchedKind::default(),
        }
    }
}

/// Run the whole sweep and emit the complete `BENCH_*.json` document
/// (newline-terminated).
pub fn run_scale(cfg: &ScaleConfig) -> String {
    let mut records = Vec::new();
    for &system in &cfg.systems {
        let spec = RunSpec::of(system, !cfg.quick);
        for &n in cfg.sizes.iter().filter(|&&n| swept(system, n)) {
            let label = format!("{}-n{}", system.name(), n);
            let r = Run::new(system, n, cfg.payload, cfg.window, cfg.seed, spec).observe(Observe {
                sample_every: Some(cfg.sample_every),
                scheduler: cfg.scheduler,
                ..Observe::default()
            });
            let out = run(&r);
            let tail = [("gauge_series", gauge_series_json(&out.gauges))];
            records.push(run_record_json(&label, &r, &out.point, &out.metrics, &tail));
        }
    }
    // "nodes" at the top level is the sweep's ceiling: it is one of the
    // comparability keys `bench-diff` requires, and the per-run node counts
    // live in each record.
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"mode\":\"{}\",\"seed\":{},\"nodes\":{},\
         \"payload_bytes\":{},\"sample_every_us\":{},\"window\":{},\
         \"sizes\":[{}],\"runs\":[{}]}}\n",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.sizes.iter().copied().max().unwrap_or(0),
        cfg.payload,
        cfg.sample_every.as_micros(),
        cfg.window,
        cfg.sizes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(","),
        records.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_config_is_pinned() {
        let q = ScaleConfig::new(true);
        assert_eq!(q.seed, 42);
        assert_eq!(q.window, 8);
        assert_eq!(q.sizes, vec![3, 16, 64]);
        assert_eq!(q.systems, SCALE_SYSTEMS.to_vec());
        let f = ScaleConfig::new(false);
        assert_eq!(f.sizes, vec![3, 5, 7, 9, 16, 32, 64]);
    }

    #[test]
    fn scale_matrix_carries_both_dissemination_modes() {
        // The v2 document's acuerdo rows come in star/ring pairs so the
        // crossover is visible in one file; the ring variant sits right
        // after its star twin in document order.
        let systems = SCALE_SYSTEMS.to_vec();
        let star = systems.iter().position(|s| *s == System::Acuerdo);
        let ring = systems.iter().position(|s| *s == System::AcuerdoRing);
        assert_eq!(star, Some(0));
        assert_eq!(ring, Some(1));
    }

    #[test]
    fn quick_sizes_are_a_subset_ending_at_the_ceiling() {
        assert!(QUICK_SIZES.iter().all(|s| SCALE_SIZES.contains(s)));
        assert_eq!(QUICK_SIZES.last(), SCALE_SIZES.last());
    }
}
