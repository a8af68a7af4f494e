//! The metric registry: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` repeats it (a unit test keeps the two in
//! step), and the reporter refuses to emit a value whose name is not here or
//! to finish with a registered name missing.

/// Which way is better.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Copy, Clone, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees; printed by `--trace 0`.
pub const END_TO_END: [Def; 6] = [
    e2e("commit_p50_us", "us", Better::Lower, 0.05),
    e2e("commit_p99_us", "us", Better::Lower, 0.05),
    e2e("throughput_msgs_s", "1/s", Better::Higher, 0.05),
    e2e("host_us_per_commit", "us", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// Single layers; printed by `--trace 1`, never gated.
pub const PER_LAYER: [Def; 93] = [
    // simnet
    lo("simnet.events_per_commit", "count"),
    lo("simnet.host_ns_per_event", "ns"),
    lo("simnet.host_cost_growth_ratio", "ratio"),
    lo("simnet.engine.bare_ns_per_event", "ns"),
    lo("simnet.sched.calendar_ns_per_op", "ns"),
    lo("simnet.sched.heap_ns_per_op", "ns"),
    lo("simnet.net.wire_bytes_per_commit", "bytes"),
    lo("simnet.net.packets_per_commit", "count"),
    lo("simnet.net.leader_egress_util_pct", "%"),
    lo("simnet.cpu.leader_util_pct", "%"),
    lo("simnet.cpu.leader_other_pct", "%"),
    lo("simnet.wait.egress_queue_pct", "%"),
    lo("simnet.wait.busy_defer_pct", "%"),
    lo("simnet.wait.link_delay_pct", "%"),
    lo("simnet.wait.fsync_barrier_pct", "%"),
    lo("simnet.wait.sched_hold_pct", "%"),
    lo("simnet.disk.fsyncs_per_commit", "count"),
    lo("simnet.disk.append_bytes_per_commit", "bytes"),
    lo("simnet.disk.device_ns_per_commit", "ns"),
    lo("simnet.disk.recovered_records", "count"),
    lo("simnet.disk.truncated_records", "count"),
    lo("simnet.disk.append_fsync_ns_per_op", "ns"),
    lo("simnet.trace.overhead_pct", "%"),
    lo("simnet.trace.events_per_commit", "count"),
    // rdma-sim
    lo("rdma_sim.verb_posts_per_commit", "count"),
    lo("rdma_sim.dma_writes_per_commit", "count"),
    lo("rdma_sim.completions_per_commit", "count"),
    lo("rdma_sim.rkey_drops", "count"),
    lo("rdma_sim.write_ns_per_op", "ns"),
    // rdma-prims
    lo("rdma_prims.sst_pushes_per_commit", "count"),
    lo("rdma_prims.ack_frames_per_payload_frame", "ratio"),
    lo("rdma_prims.ring_frames_per_commit", "count"),
    hi("rdma_prims.frames_per_poll_batch", "ratio"),
    lo("rdma_prims.ring_stalls", "count"),
    lo("rdma_prims.ring_wraps", "count"),
    lo("rdma_prims.ring_ns_per_frame", "ns"),
    lo("rdma_prims.sst_push_ns_per_row", "ns"),
    // abcast
    lo("abcast.class.wire_p50_us", "us"),
    lo("abcast.class.quorum_wait_p50_us", "us"),
    lo("abcast.class.cpu_p50_us", "us"),
    lo("abcast.blame.leader_egress_queue_pct", "%"),
    lo("abcast.blame.straggler_wait_pct", "%"),
    lo("abcast.blame.retransmit_pct", "%"),
    lo("abcast.blame.link_delay_pct", "%"),
    lo("abcast.blame.fsync_barrier_pct", "%"),
    lo("abcast.blame.busy_defer_pct", "%"),
    lo("abcast.blame.sched_hold_pct", "%"),
    lo("abcast.blame.cpu_exec_pct", "%"),
    lo("abcast.commit_p999_us", "us"),
    lo("abcast.retransmits", "count"),
    lo("abcast.auditor_fires", "count"),
    lo("abcast.check_ns_per_entry", "ns"),
    lo("abcast.spans_collect_ns_per_span", "ns"),
    lo("abcast.hist_record_ns", "ns"),
    // acuerdo
    lo("acuerdo.stage.leader_recv_p50_us", "us"),
    lo("acuerdo.stage.ring_write_p50_us", "us"),
    lo("acuerdo.stage.follower_accept_p50_us", "us"),
    lo("acuerdo.stage.ack_visible_p50_us", "us"),
    lo("acuerdo.stage.quorum_p50_us", "us"),
    lo("acuerdo.stage.commit_p50_us", "us"),
    lo("acuerdo.stage.deliver_p50_us", "us"),
    lo("acuerdo.stage.client_resp_p50_us", "us"),
    lo("acuerdo.accepts_per_commit", "count"),
    lo("acuerdo.ring_forwards_per_commit", "count"),
    lo("acuerdo.ring_fallback_sends", "count"),
    lo("acuerdo.ring_dup_drops", "count"),
    lo("acuerdo.ack_lag_max", "count"),
    lo("acuerdo.commit_lag_max", "count"),
    lo("acuerdo.outage_p50_ms", "ms"),
    lo("acuerdo.outage_max_ms", "ms"),
    lo("acuerdo.election_p50_ms", "ms"),
    lo("acuerdo.rejoin_p50_ms", "ms"),
    lo("acuerdo.elections", "count"),
    lo("acuerdo.elections_per_fault", "ratio"),
    lo("acuerdo.heartbeat_misses", "count"),
    lo("acuerdo.diff_applies", "count"),
    lo("acuerdo.rejoin_diff_bytes", "bytes"),
    lo("acuerdo.codec_ns_per_frame", "ns"),
    lo("acuerdo.model_err_lat_pct", "%"),
    // kvstore, load generator, comparison systems, host
    hi("kvstore.applied_min", "count"),
    lo("kvstore.apply_ns_per_op", "ns"),
    lo("kvstore.ycsb_gen_ns_per_op", "ns"),
    lo("kvstore.get_ns_per_op", "ns"),
    lo("loadgen.late_max_us", "us"),
    lo("loadgen.host_ns_per_request", "ns"),
    hi("zab.ycsb_ops_s", "1/s"),
    lo("zab.host_us_per_commit", "us"),
    hi("raft.ycsb_ops_s", "1/s"),
    lo("raft.host_us_per_commit", "us"),
    lo("derecho.lat_p50_us", "us"),
    lo("derecho.host_us_per_commit", "us"),
    lo("host.wall_over_cpu_ratio", "ratio"),
    lo("host.first_rep_ratio", "ratio"),
];

/// Metric values of one invocation, in emission order, checked against a
/// registry table.
pub struct Values {
    table: &'static [Def],
    values: Vec<(&'static str, f64)>,
}

impl Values {
    pub fn new(table: &'static [Def]) -> Self {
        Values {
            table,
            values: Vec::new(),
        }
    }

    /// Record `value` under a registered `name`.
    ///
    /// # Panics
    /// If `name` is not in the table, is recorded twice, or `value` is not
    /// finite: each is a bug in the reporter, not a property of the run.
    pub fn put(&mut self, name: &str, value: f64) {
        let def = self
            .table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.values.iter().all(|(n, _)| *n != def.name),
            "metric {name} recorded twice"
        );
        self.values.push((def.name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Registered names with no value yet.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .map(|d| d.name)
            .filter(|n| self.get(n).is_none())
            .collect()
    }

    /// `(definition, value)` in registry order.
    pub fn in_order(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.table
            .iter()
            .filter_map(|d| self.get(d.name).map(|v| (d, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;
    use bench::json::{self, Value};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for d in &END_TO_END {
            let b = d.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
    }

    fn defs_of(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_repeats_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<_> = table
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.name().to_string(),
                        d.bound,
                    )
                })
                .collect();
            assert_eq!(defs_of(&doc, key), want, "{key} differs from the registry");
        }
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, want);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::REFERENCE_SECONDS as f64)
        );
    }

    #[test]
    fn values_reject_strangers_and_report_gaps() {
        let mut v = Values::new(&END_TO_END);
        v.put("setup_s", 0.25);
        assert_eq!(v.get("setup_s"), Some(0.25));
        assert_eq!(v.missing().len(), END_TO_END.len() - 1);
        assert!(std::panic::catch_unwind(move || v.put("nonsense", 1.0)).is_err());
    }
}
