//! Grid-engine benchmarks (`BENCH_grid.json`): the rung-evaluation
//! head-to-head behind ISSUE 9's acceptance criterion.
//!
//! Both arms answer the *same* ladder question — a (k+1)-bounded MIS of
//! `G_τ` at one τ — over the same points, partition, and machine count:
//!
//! * `grid/rung-allpairs/…` — Algorithm 4 (`k_bounded_mis`) on the
//!   all-pairs kernels, whose degree-approximation rounds scan `Θ(n²/m)`
//!   pairs (at d = 4, below the f32 fast path's 16-dimension floor, every
//!   speed tier runs the same plain diff loop);
//! * `grid/rung-grid/…` — the grid engine (`grid_k_bounded_mis`), whose
//!   stencil scans touch `O(n·3^d)` pairs.
//!
//! The `d4-n1e6` pair is the acceptance read-off (grid must be ≥ 5×
//! faster); the `d4-n1e5` pair gives CI a fast regression signal on both
//! engines, and `grid/build/…` isolates the per-rung `GridIndex`
//! construction the grid arm pays: `GridIndex::build_cols` on machine 0's
//! rows, gathered dimension-major outside the timed loop, as each
//! machine's rung grid builds on its shard. `grid/solve/d4-n1e5` runs the
//! whole grid-engine Algorithm 5 (`mpc_kcenter_grid_on`): the shard gather, the
//! coreset GMM and covering radius of the coarse phase, the ladder, and
//! the finalize radius — the phases no rung-level id sees. The workload
//! is the drifting user-embedding stream shared with the serving
//! benchmarks (`datasets::user_embeddings`). `bench_diff --threshold 75`
//! gates this file in CI like the other groups.

use criterion::{criterion_group, criterion_main, Criterion};
use mpc_core::grid::{grid_k_bounded_mis, mpc_kcenter_grid_on};
use mpc_core::kbmis::k_bounded_mis;
use mpc_core::Params;
use mpc_metric::{datasets, EuclideanSpace, GridIndex, KernelStats, PointId};
use mpc_sim::Cluster;

const DIM: usize = 4;
const K: usize = 64;
const M: usize = 32;
const SEED: u64 = 31;

fn space_of(n: usize) -> EuclideanSpace {
    EuclideanSpace::new(datasets::user_embeddings(n, DIM, K, 0.02, 1e-4, SEED))
}

/// Round-robin machine partition (id % m), the same shape
/// `PartitionStrategy` produces for contiguous inputs.
fn round_robin(n: usize, m: usize) -> Vec<Vec<u32>> {
    let mut sets = vec![Vec::with_capacity(n / m + 1); m];
    for id in 0..n as u32 {
        sets[id as usize % m].push(id);
    }
    sets
}

/// The rows `ids` of `space`, dimension-major (`cols[a * n + j]` is row
/// `j`'s coordinate on axis `a`): the slab a grid-engine machine holds.
fn dimension_major(space: &EuclideanSpace, ids: &[u32]) -> Vec<f64> {
    let mut cols = vec![0.0; ids.len() * DIM];
    for (j, &id) in ids.iter().enumerate() {
        for (a, &x) in space.points().coords(PointId(id)).iter().enumerate() {
            cols[a * ids.len() + j] = x;
        }
    }
    cols
}

fn bench_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid");
    let params = Params::practical(M, 0.1, SEED);

    for (n, label, samples) in [(100_000usize, "n1e5", 10usize), (1_000_000, "n1e6", 2)] {
        let space = space_of(n);
        let local_sets = round_robin(n, M);
        // A mid-ladder τ: far enough below the coarse radius that the MIS
        // genuinely iterates, high enough that it stays ≤ k (the accepted
        // regime where rung cost is paid repeatedly during the search).
        let tau = mpc_bench::distance_quantile(&space, 0.02, SEED);
        group.sample_size(samples);

        group.bench_function(format!("rung-grid/d{DIM}-{label}").as_str(), |b| {
            b.iter(|| {
                let mut cluster = Cluster::new(M, SEED);
                let mut stats = KernelStats::default();
                grid_k_bounded_mis(&mut cluster, &space, &local_sets, tau, K + 1, &mut stats)
            })
        });

        group.bench_function(format!("rung-allpairs/d{DIM}-{label}").as_str(), |b| {
            b.iter(|| {
                let mut cluster = Cluster::new(M, SEED);
                k_bounded_mis(
                    &mut cluster,
                    &space,
                    &local_sets,
                    tau,
                    K + 1,
                    n,
                    &params,
                    false,
                )
                .set
            })
        });

        let shard = dimension_major(&space, &local_sets[0]);
        group.bench_function(format!("build/d{DIM}-{label}").as_str(), |b| {
            b.iter(|| GridIndex::build_cols(&shard, DIM, tau))
        });

        if n == 100_000 {
            group.bench_function(format!("solve/d{DIM}-{label}").as_str(), |b| {
                b.iter(|| {
                    let mut cluster = Cluster::new(M, SEED);
                    mpc_kcenter_grid_on(&mut cluster, &space, K, &params).radius
                })
            });
        }
    }
    group.sample_size(10);
    c.final_summary();
}

criterion_group!(benches, bench_grid);
criterion_main!(benches);
