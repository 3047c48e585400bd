//! 1-vs-N-thread speedups (`BENCH_parallel.json`): one full Algorithm 5
//! ladder, measured at thread counts {1, 2, default} (deduplicated — on a
//! 1-core host only `t1` and `t2` run). Ids embed the thread count, e.g.
//! `parallel/kcenter-ladder-n10000-k16-m8/t2`, so the JSON is
//! self-describing; the determinism suite
//! (`crates/core/tests/parallel_determinism.rs`) separately pins that
//! every variant computes identical outputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_core::kcenter::mpc_kcenter;
use mpc_core::Params;
use mpc_metric::{datasets, EuclideanSpace};
use rayon::with_threads;

/// Sorted, deduplicated thread counts to measure: sequential baseline,
/// minimal parallel, and the process default (`KCENTER_THREADS` /
/// available parallelism).
fn thread_variants() -> Vec<usize> {
    let mut v = vec![1, 2, rayon::default_threads()];
    v.sort_unstable();
    v.dedup();
    v
}

fn bench_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    let (n, k, m) = (10_000, 16, 8);
    let metric = EuclideanSpace::new(datasets::gaussian_clusters(n, 8, k, 0.05, 42));
    let params = Params::practical(m, 0.1, 42);
    for t in thread_variants() {
        group.bench_with_input(
            BenchmarkId::new(format!("kcenter-ladder-n{n}-k{k}-m{m}"), format!("t{t}")),
            &t,
            |b, &t| b.iter(|| with_threads(t, || mpc_kcenter(&metric, k, &params))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ladder);
criterion_main!(benches);
