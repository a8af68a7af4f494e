//! Criterion smoke version of Figure 9: one YCSB-load point per system on 3
//! nodes. The full node-count series lives in the `fig9` binary.

use bench::{run, Run, RunSpec, System};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn ycsb_point(system: System, spec: RunSpec) -> f64 {
    let r = Run::ycsb(system, 3, 42, spec).expect("a figure 9 system");
    run(&r).point.msgs_per_sec
}

fn bench_ycsb(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_ycsb");
    g.sample_size(10);
    g.bench_function("acuerdo_3_nodes", |b| {
        b.iter(|| black_box(ycsb_point(System::Acuerdo, RunSpec::quick(System::Acuerdo))))
    });
    let tcp_spec = RunSpec {
        warmup: Duration::from_millis(20),
        measure: Duration::from_millis(150),
    };
    g.bench_function("zookeeper_3_nodes", |b| {
        b.iter(|| black_box(ycsb_point(System::Zookeeper, tcp_spec)))
    });
    g.bench_function("etcd_3_nodes", |b| {
        b.iter(|| black_box(ycsb_point(System::Etcd, tcp_spec)))
    });
    g.finish();
}

criterion_group!(benches, bench_ycsb);
criterion_main!(benches);
