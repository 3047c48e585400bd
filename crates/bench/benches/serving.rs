//! Serving-layer benchmarks (`BENCH_serving.json`): the three costs that
//! decide whether the incremental `DiversityIndex` earns its keep over
//! re-running batch Algorithm 5/2 per query.
//!
//! * `serving/insert/n2000` — absorbing a 2,000-point burst into a warm
//!   index (per-insert cost is O(coreset_k) distance evals; no rebuilds
//!   on this path).
//! * `serving/query-warm/kmix` — one k-center + k-diversity pair against
//!   a live snapshot whose per-`k` answer caches are hot (the steady
//!   high-QPS state, matching `examples/serving_diversification.rs`).
//!   Every `k` it asks for is primed, so it times the answer-cache lookup
//!   (~60 ns), never a ladder walk.
//! * `serving/query-cold/k2-16` — the ladder cost the warm id cannot see:
//!   absorb a 2% burst, take a fresh snapshot, and serve `kcenter(k)` +
//!   `kdiversity(k)` for every k = 2..16, each one a full τ-ladder walk
//!   over the coreset union.
//! * `serving/refresh/incremental` vs `serving/refresh/batch` — the
//!   coreset-merge path. Both arms run the *identical* per-iteration
//!   work on a long-lived index (absorb a 2% burst, snapshot, serve one
//!   query); the batch arm additionally forces `refresh_all`, i.e.
//!   rebuilds every shard coreset from scratch the way a batch pipeline
//!   would. Their ratio is the incremental-vs-rebuild speedup the
//!   ISSUE-7 acceptance criterion reads off this file.
//!
//! `bench_diff --threshold 75` gates regressions in CI like the other
//! groups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_metric::{datasets, PointId, PointSet};
use mpc_serving::{DiversityIndex, IndexParams};
use rayon::with_threads;

const DIM: usize = 16;
const SEED: u64 = 29;
const N: usize = 20_000;

fn filled_index(points: &PointSet, n: usize) -> DiversityIndex {
    let mut index = DiversityIndex::new(DIM, IndexParams::new(8, 16, SEED));
    for i in 0..n as u32 {
        index.insert(points.coords(PointId(i)));
    }
    index.refresh_all();
    index
}

/// Streams `count` coordinates into the index, cycling through the
/// dataset (the index keeps growing across iterations — steady-state
/// serving shape; insert cost is size-independent).
fn absorb_burst(index: &mut DiversityIndex, points: &PointSet, cursor: &mut u32, count: usize) {
    for _ in 0..count {
        index.insert(points.coords(PointId(*cursor % points.len() as u32)));
        *cursor = cursor.wrapping_add(1);
    }
}

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    let points = datasets::gaussian_clusters(N, DIM, 12, 0.05, SEED);

    group.bench_function(BenchmarkId::new("insert", "n2000"), |b| {
        let mut index = filled_index(&points, N);
        let mut cursor = 0u32;
        b.iter(|| {
            with_threads(1, || {
                absorb_burst(&mut index, &points, &mut cursor, 2_000);
                index.len() as u64
            })
        })
    });

    group.bench_function(BenchmarkId::new("query-warm", "kmix"), |b| {
        let mut index = filled_index(&points, N);
        let mut snap = index.snapshot();
        // Prime the answer caches once; iterations then measure the
        // steady high-QPS state, which is all cache hits.
        for k in 2..11 {
            snap.kcenter(k);
            snap.kdiversity(k);
        }
        let mut q = 0usize;
        b.iter(|| {
            with_threads(1, || {
                let k = 2 + (q % 9);
                q += 1;
                let kc = snap.kcenter(k);
                let kd = snap.kdiversity(k);
                kc.radius.to_bits() ^ kd.diversity.to_bits()
            })
        })
    });

    group.bench_function(BenchmarkId::new("query-cold", "k2-16"), |b| {
        let mut index = filled_index(&points, N);
        let mut cursor = 0u32;
        b.iter(|| {
            with_threads(1, || {
                absorb_burst(&mut index, &points, &mut cursor, N / 50);
                let mut snap = index.snapshot();
                (2..=16).fold(0u64, |acc, k| {
                    acc ^ snap.kcenter(k).radius.to_bits() ^ snap.kdiversity(k).diversity.to_bits()
                })
            })
        })
    });

    group.bench_function(BenchmarkId::new("user-stream", "chunk4096"), |b| {
        // The drifting user-embedding stream shared with the grid bench,
        // absorbed chunk-by-chunk the way a production feed would arrive:
        // O(chunk) staging memory regardless of stream length.
        let mut index = filled_index(&points, N);
        let mut offset = 0u64;
        b.iter(|| {
            with_threads(1, || {
                datasets::user_embeddings_chunked(
                    4_096,
                    DIM,
                    12,
                    0.02,
                    1e-4,
                    SEED ^ offset,
                    512,
                    |batch| {
                        for row in batch.chunks_exact(DIM) {
                            index.insert(row);
                        }
                    },
                );
                offset = offset.wrapping_add(1);
                index.len() as u64
            })
        })
    });

    group.bench_function(BenchmarkId::new("refresh", "incremental"), |b| {
        let mut index = filled_index(&points, N);
        let mut cursor = 0u32;
        b.iter(|| {
            with_threads(1, || {
                absorb_burst(&mut index, &points, &mut cursor, N / 50);
                let mut snap = index.snapshot();
                snap.kcenter(8).radius.to_bits()
            })
        })
    });

    group.bench_function(BenchmarkId::new("refresh", "batch"), |b| {
        let mut index = filled_index(&points, N);
        let mut cursor = 0u32;
        b.iter(|| {
            with_threads(1, || {
                absorb_burst(&mut index, &points, &mut cursor, N / 50);
                index.refresh_all();
                let mut snap = index.snapshot();
                snap.kcenter(8).radius.to_bits()
            })
        })
    });

    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
