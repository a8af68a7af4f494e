//! Criterion smoke version of the design-choice ablations: each knob at a
//! saturated point. The full table lives in the `ablations` binary.

use bench::{ablation_point, Ablation, Run, RunSpec, System};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("acuerdo_ablations");
    g.sample_size(10);
    let run = Run::new(
        System::Acuerdo,
        3,
        10,
        256,
        42,
        RunSpec::quick(System::Acuerdo),
    );
    for ab in Ablation::all() {
        g.bench_function(ab.name().replace(' ', "_"), |b| {
            b.iter(|| black_box(ablation_point(ab, &run, false).0))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
