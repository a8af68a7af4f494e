//! The what-if engine's safety proof: applying the **null** intervention —
//! or a set covering every intervention kind at identity (×1.0 factors, the
//! log device already installed) — reproduces the uninstrumented run
//! byte-identically, for every
//! system the scale sweep prices. Interventions are parameters-only by design
//! (`simnet::Intervention`): they never touch the RNG draw sequence or the
//! event vocabulary, so a factor of exactly 1.0 must be invisible down to
//! the last counter and forensic nanosecond. A real factor, by contrast,
//! must move the measured point.

use acuerdo_repro::bench::paper::SCALE_SYSTEMS;
use acuerdo_repro::bench::{run, run_record_json, Observe, Run, RunSpec, System};
use acuerdo_repro::simnet::{Intervention, InterventionSet, LogDevParams};

/// One run rendered as the full sidecar record: point, counters, util, and
/// forensics — integer-exact members included, so string equality is byte
/// identity over everything the observatory exports.
fn record(system: System, set: InterventionSet) -> String {
    let r = Run::new(system, 3, 64, 8, 42, RunSpec::quick(system)).observe(Observe {
        interventions: set,
        ..Observe::default()
    });
    let out = run(&r);
    run_record_json("whatif-proof", &r, &out.point, &out.metrics, &[])
}

/// Every intervention kind, all at identity, on every replica of `system`:
/// unit factors, and the log device the system already runs on.
fn unit_set(system: System, n: usize) -> InterventionSet {
    let dev = match system {
        System::Etcd => LogDevParams::etcd_wal(),
        System::Zookeeper => LogDevParams::nvme(),
        _ => LogDevParams::pmem(),
    };
    let mut set = InterventionSet::null().with(Intervention::LinkLatencyScale { factor: 1.0 });
    for node in 0..n {
        set.push(Intervention::EgressTimeScale { node, factor: 1.0 });
        set.push(Intervention::CpuScale { node, factor: 1.0 });
        set.push(Intervention::LogDevice { node, dev });
    }
    set
}

#[test]
fn null_and_unit_interventions_are_byte_identical_across_the_matrix() {
    for system in SCALE_SYSTEMS {
        let null = record(system, InterventionSet::null());
        let unit = record(system, unit_set(system, 3));
        assert!(
            null == unit,
            "{}: unit-factor interventions perturbed the run",
            system.name()
        );
    }
}

#[test]
fn a_real_intervention_moves_the_measured_point() {
    let base = record(System::Acuerdo, InterventionSet::null());
    let halved = record(
        System::Acuerdo,
        InterventionSet::null().with(Intervention::LinkLatencyScale { factor: 0.5 }),
    );
    assert!(
        base != halved,
        "halving every link latency left the record unchanged"
    );
}

#[test]
fn link_latency_halving_cuts_mean_latency() {
    let point = |set: InterventionSet| {
        let spec = RunSpec::quick(System::Acuerdo);
        let r = Run::new(System::Acuerdo, 3, 64, 8, 42, spec).observe(Observe {
            interventions: set,
            ..Observe::default()
        });
        run(&r).point
    };
    let base = point(InterventionSet::null());
    let halved =
        point(InterventionSet::null().with(Intervention::LinkLatencyScale { factor: 0.5 }));
    // The mean is exact (LatencyHist's quantiles are 5%-bucketed, and a
    // propagation-delay cut at this tiny payload can be sub-bucket).
    assert!(
        halved.mean_us < base.mean_us,
        "mean {} should drop below baseline {}",
        halved.mean_us,
        base.mean_us
    );
}
