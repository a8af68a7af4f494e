//! Criterion smoke version of Figure 8: one low-load and one saturated point
//! per system on 3 nodes / 10-byte messages. The full sweep lives in the
//! `fig8` binary; this keeps every panel's code path exercised by
//! `cargo bench` and tracks the simulator's wall-clock cost per panel.

use bench::{run, Run, RunSpec, System};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_points");
    g.sample_size(10);
    for system in System::all() {
        let spec = RunSpec::quick(system);
        g.bench_function(format!("{}_w1", system.name()), |b| {
            b.iter(|| black_box(run(&Run::new(system, 3, 10, 1, 42, spec)).point))
        });
        g.bench_function(format!("{}_w256", system.name()), |b| {
            b.iter(|| black_box(run(&Run::new(system, 3, 10, 256, 42, spec)).point))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
