//! τ-sweep ladder engine benchmarks (`BENCH_ladder.json`), two series:
//!
//! 1. **Warm-memo rung re-probe** — `warm-sorted` (sorted companion rows:
//!    each rung is a `partition_point` prefix) vs `warm-scan` (the PR-4
//!    behavior: cached distance vectors re-scanned per rung), both over an
//!    identical fully warmed memo at d=32, n=1e5, Q=32, 6 rungs, threads=1.
//!    The ISSUE 5 acceptance criterion reads off this pair: `warm-sorted`
//!    must be ≥ 2× faster than `warm-scan`.
//! 2. **Sharded-memo warm hits** — bulk hit traffic through the sharded
//!    locks at threads {1, default} (deduplicated — on a 1-core host only
//!    `t1` runs, honestly recording t_default ≈ t1).
//!
//! The consistency suites (`crates/metric/tests/kernel_consistency.rs`,
//! memo unit tests) separately pin that every pair of ids computes
//! identical answers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_core::memo::MemoizedSpace;
use mpc_metric::{datasets, EuclideanSpace, MetricSpace};
use rayon::with_threads;

/// Thread counts to measure: sequential and the process default,
/// deduplicated.
fn thread_variants() -> Vec<usize> {
    let mut v = vec![1, rayon::default_threads()];
    v.sort_unstable();
    v.dedup();
    v
}

fn bench_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("ladder");
    group.sample_size(10);

    let (n, dim, q) = (100_000usize, 32usize, 32usize);
    let metric = EuclideanSpace::new(datasets::uniform_cube(n, dim, 7));
    let candidates: Vec<u32> = (0..n as u32).collect();
    // Queries spread across the id range with a prime stride, matching the
    // tiled group's convention.
    let vs: Vec<u32> = (0..q).map(|i| (i * 7919 % n) as u32).collect();
    let base = mpc_bench::distance_quantile(&metric, 0.2, 7);
    let rungs: Vec<f64> = (0..6).map(|i| base * 1.1f64.powi(i)).collect();

    // Q=32 rows of n=1e5 distances ≈ 3.2M words + 1.6M sorted companions:
    // comfortably inside an 8M-word cap, so nothing flushes mid-bench.
    let sorted = MemoizedSpace::with_capacity(&metric, 1 << 23);
    let scan = MemoizedSpace::with_capacity(&metric, 1 << 23).without_sorted_rows();
    for memo in [&sorted, &scan] {
        // Warm pass: fill every query row.
        let _ = memo.count_within_many(&vs, &candidates, rungs[0]);
    }
    // Retrofit the sorted companions outside the measured region.
    sorted.prewarm_taus(&rungs);
    assert!(sorted.sorted_rows_built() >= q as u64, "prewarm must sort");

    // Series 1: the acceptance pair, pinned to threads=1 (pure data
    // structure work — no parallelism in either id).
    for (id, memo) in [("warm-sorted", &sorted), ("warm-scan", &scan)] {
        group.bench_with_input(
            BenchmarkId::new(format!("{id}-d{dim}-n{n}-q{q}"), "t1"),
            &1usize,
            |b, &t| {
                b.iter(|| {
                    with_threads(t, || {
                        rungs
                            .iter()
                            .map(|&tau| memo.count_within_many(&vs, &candidates, tau))
                            .collect::<Vec<_>>()
                    })
                })
            },
        );
    }

    // Series 2: warm hit traffic through the sharded locks.
    for t in thread_variants() {
        group.bench_with_input(
            BenchmarkId::new(format!("shard-hits-d{dim}-n{n}-q{q}"), format!("t{t}")),
            &t,
            |b, &t| {
                b.iter(|| with_threads(t, || sorted.count_within_many(&vs, &candidates, rungs[3])))
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_ladder);
criterion_main!(benches);
