//! Criterion smoke version of Table 1: one 3-node and one 5-node election
//! experiment per iteration. The full table lives in the `table1` binary.

use bench::election_experiment;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_election(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_elections");
    g.sample_size(10);
    g.bench_function("elect_3_nodes", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(election_experiment(3, 2, seed, false).stats)
        })
    });
    g.bench_function("elect_5_nodes", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(election_experiment(5, 2, seed, false).stats)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_election);
criterion_main!(benches);
