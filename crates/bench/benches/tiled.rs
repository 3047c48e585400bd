//! Multi-query tiled kernel benchmarks (`BENCH_tiled.json`): the
//! `count_within_many` Gram-block kernel against the Q-independent-calls
//! baseline (`count_within` in a loop), at d ∈ {4, 32} × n ∈ {1e4, 1e5} ×
//! Q ∈ {64, 1024} and thread counts {1, default} (deduplicated — on a
//! 1-core host only `t1` runs). Ids embed every axis, e.g.
//! `tiled/many-d32-n100000-q1024/t1` vs `tiled/loop-d32-n100000-q1024/t1`.
//!
//! `tiled/many-d32-n10000-q1024-strided/t1` scans a **scattered**
//! candidate list instead: every 8th id, i.e. one `RoundRobin` share at
//! m = 8 — the shape of Alg 3's broadcast sample and of each machine's
//! alive list. It gates the per-call packing that puts such lists on the
//! dimension-major run kernel.
//!
//! `tiled/many-d32-n10000-q1024-clustered/t1` runs the same multi-query
//! scan over clustered `user_embeddings` (32 clusters) at an in-cluster
//! threshold, where the ball index decides most (query, ball) blocks by
//! the triangle inequality: it gates the pruned scan, and the uniform
//! `many-d32-*` ids, whose bounds decide too little to prune, gate its
//! fallback to the whole-slab scan.
//!
//! `tiled/many-d16-n10000-q1024/t1` is the unpruned run kernel at d = 16,
//! the dimension of Alg 2's `diversity-loopback-d16` workload, on
//! uniform rows.
//!
//! The ISSUE 4 acceptance criterion reads off this group: at threads=1,
//! d=32, n=1e5, Q=1024, `many` must be ≥ 2× faster than `loop` — pure
//! cache blocking + the cached-norm dot-product inner loop, no
//! parallelism. The consistency proptests
//! (`crates/metric/tests/kernel_consistency.rs`) separately pin that both
//! ids compute identical answers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_metric::{datasets, EuclideanSpace, MetricSpace, PointId};
use rayon::with_threads;

/// Thread counts to measure: sequential and the process default,
/// deduplicated.
fn thread_variants() -> Vec<usize> {
    let mut v = vec![1, rayon::default_threads()];
    v.sort_unstable();
    v.dedup();
    v
}

fn bench_tiled(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiled");
    group.sample_size(10);
    for dim in [4usize, 32] {
        for n in [10_000usize, 100_000] {
            let metric = EuclideanSpace::new(datasets::uniform_cube(n, dim, 7));
            let tau = mpc_bench::distance_quantile(&metric, 0.2, 7);
            let candidates: Vec<u32> = (0..n as u32).collect();
            for q in [64usize, 1024] {
                // Queries spread across the id range with a prime stride,
                // so tiles see no accidental locality between query rows.
                let vs: Vec<u32> = (0..q).map(|i| (i * 7919 % n) as u32).collect();
                for t in thread_variants() {
                    group.bench_with_input(
                        BenchmarkId::new(format!("many-d{dim}-n{n}-q{q}"), format!("t{t}")),
                        &t,
                        |b, &t| {
                            b.iter(|| {
                                with_threads(t, || metric.count_within_many(&vs, &candidates, tau))
                            })
                        },
                    );
                    group.bench_with_input(
                        BenchmarkId::new(format!("loop-d{dim}-n{n}-q{q}"), format!("t{t}")),
                        &t,
                        |b, &t| {
                            b.iter(|| {
                                with_threads(t, || {
                                    vs.iter()
                                        .map(|&v| metric.count_within(PointId(v), &candidates, tau))
                                        .collect::<Vec<usize>>()
                                })
                            })
                        },
                    );
                }
            }
            if dim == 32 && n == 10_000 {
                let strided: Vec<u32> = (0..n as u32).step_by(8).collect();
                let vs: Vec<u32> = (0..1024).map(|i| (i * 7919 % n) as u32).collect();
                group.bench_with_input(
                    BenchmarkId::new(format!("many-d{dim}-n{n}-q1024-strided"), "t1"),
                    &1usize,
                    |b, &t| {
                        b.iter(|| with_threads(t, || metric.count_within_many(&vs, &strided, tau)))
                    },
                );
            }
        }
    }
    let metric = EuclideanSpace::new(datasets::uniform_cube(10_000, 16, 7));
    let tau = mpc_bench::distance_quantile(&metric, 0.2, 7);
    let candidates: Vec<u32> = (0..10_000).collect();
    let vs: Vec<u32> = (0..1024).map(|i| (i * 7919 % 10_000) as u32).collect();
    group.bench_with_input(
        BenchmarkId::new("many-d16-n10000-q1024", "t1"),
        &1usize,
        |b, &t| b.iter(|| with_threads(t, || metric.count_within_many(&vs, &candidates, tau))),
    );
    let metric = EuclideanSpace::new(datasets::user_embeddings(10_000, 32, 32, 0.03, 1e-3, 7));
    let tau = mpc_bench::distance_quantile(&metric, 0.01, 7);
    let candidates: Vec<u32> = (0..10_000).collect();
    let vs: Vec<u32> = (0..1024).map(|i| (i * 7919 % 10_000) as u32).collect();
    group.bench_with_input(
        BenchmarkId::new("many-d32-n10000-q1024-clustered", "t1"),
        &1usize,
        |b, &t| b.iter(|| with_threads(t, || metric.count_within_many(&vs, &candidates, tau))),
    );
    group.finish();
}

criterion_group!(benches, bench_tiled);
criterion_main!(benches);
