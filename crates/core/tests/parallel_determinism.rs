//! Thread-count determinism: every parallelized kernel and the full
//! k-center ladder must produce bit-for-bit identical outputs at
//! `threads ∈ {1, 2, 8}`.
//!
//! `threads = 1` bypasses the worker pool entirely (the pre-pool
//! sequential scans), so these tests pin the whole chain: sequential path
//! ≡ chunked path at 2 threads ≡ chunked path at 8 threads. The bridge is
//! the shim's determinism contract — fixed candidate chunking that depends
//! only on the item count, order-preserving collects, and associative
//! combines — which the assertions here enforce end to end, ledger
//! included.
//!
//! Candidate batches are stretched past `PAR_MIN_BULK` by cycling ids, so
//! the parallel kernel paths genuinely engage even on small point sets.

use mpc_core::gmm::gmm;
use mpc_core::kcenter::mpc_kcenter_on;
use mpc_core::Params;
use mpc_graph::{GraphView, ThresholdGraph};
use mpc_metric::{
    datasets, dist_set_to_set, EuclideanSpace, MatrixSpace, MetricSpace, PointId, PAR_MIN_BULK,
};
use mpc_sim::Cluster;
use proptest::prelude::*;
use rayon::with_threads;

/// The pool widths the ISSUE pins: sequential, minimal parallel, wide.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A candidate batch long enough to open the `par_bulk` gate on a space of
/// `n` points: ids cycle with a stride coprime to most small `n`, so the
/// batch hits many distinct rows and contains duplicates (both shapes the
/// kernels must preserve).
fn big_candidates(n: u32, len: usize) -> Vec<u32> {
    (0..len)
        .map(|i| (i as u32).wrapping_mul(7).wrapping_add(3) % n)
        .collect()
}

/// Runs both bulk kernels on `space` at every thread count and checks the
/// 2- and 8-thread answers against the sequential baseline.
fn check_bulk_kernels<M: MetricSpace>(
    space: &M,
    v: PointId,
    candidates: &[u32],
    tau: f64,
) -> Result<(), TestCaseError> {
    let run = || {
        let mut out = Vec::new();
        space.neighbors_within(v, candidates, tau, &mut out);
        (space.count_within(v, candidates, tau), out)
    };
    let baseline = with_threads(1, run);
    prop_assert_eq!(
        baseline.0,
        baseline.1.len(),
        "count and filter must agree on the sequential path"
    );
    for &t in &THREAD_COUNTS[1..] {
        let got = with_threads(t, run);
        prop_assert_eq!(&got, &baseline, "threads={}", t);
    }
    Ok(())
}

/// Runs the multi-query kernels and the distance-returning bulk paths at
/// every thread count and checks the 2- and 8-thread answers (bitwise,
/// for the distances) against the sequential baseline. The query batch is
/// sized so `|vs| × |candidates|` clears the pair gate and the kernels
/// split across query chunks.
fn check_many_kernels<M: MetricSpace>(
    space: &M,
    vs: &[u32],
    candidates: &[u32],
    tau: f64,
) -> Result<(), TestCaseError> {
    let run = || {
        let counts = space.count_within_many(vs, candidates, tau);
        let neighbors = space.neighbors_within_many(vs, candidates, tau);
        let mut dists = Vec::new();
        space.dists_into(PointId(vs[0]), candidates, &mut dists);
        let dist_bits: Vec<u64> = dists.iter().map(|d| d.to_bits()).collect();
        let ids: Vec<PointId> = candidates.iter().map(|&c| PointId(c)).collect();
        let set_bits = space.dist_to_set(PointId(vs[0]), &ids).to_bits();
        (counts, neighbors, dist_bits, set_bits)
    };
    let baseline = with_threads(1, run);
    for &t in &THREAD_COUNTS[1..] {
        prop_assert_eq!(&with_threads(t, run), &baseline, "threads={}", t);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn euclidean_kernels_identical_across_thread_counts(
        seed in 0u64..1_000,
        dim in 1usize..5,
        tau in 0.0f64..2.0,
    ) {
        let n = 64u32;
        let space = EuclideanSpace::new(datasets::uniform_cube(n as usize, dim, seed));
        let cands = big_candidates(n, PAR_MIN_BULK + 37);
        check_bulk_kernels(&space, PointId(seed as u32 % n), &cands, tau)?;
    }

    #[test]
    fn matrix_kernels_identical_across_thread_counts(
        seed in 0u64..1_000,
        tau in 0.0f64..2.0,
    ) {
        let n = 48;
        let e = EuclideanSpace::new(datasets::uniform_cube(n, 3, seed));
        let m = MatrixSpace::from_fn(n, |i, j| e.dist(PointId(i as u32), PointId(j as u32)))
            .expect("euclidean distances form a metric");
        let cands = big_candidates(n as u32, PAR_MIN_BULK + 11);
        check_bulk_kernels(&m, PointId(seed as u32 % n as u32), &cands, tau)?;
    }

    #[test]
    fn euclidean_many_kernels_identical_across_thread_counts(
        seed in 0u64..1_000,
        tau in 0.0f64..2.0,
    ) {
        let n = 64u32;
        // dim 3 exercises the tiled diff path, dim 18 (≥ GRAM_MIN_DIM) the
        // f32 SoA path of the default tier; both must be thread-count
        // invariant.
        for dim in [3usize, 18] {
            let space = EuclideanSpace::new(datasets::uniform_cube(n as usize, dim, seed));
            let vs = big_candidates(n, 96);
            let cands = big_candidates(n, 128);
            check_many_kernels(&space, &vs, &cands, tau)?;
        }
    }

    #[test]
    fn matrix_many_kernels_identical_across_thread_counts(
        seed in 0u64..1_000,
        tau in 0.0f64..2.0,
    ) {
        let n = 48;
        let e = EuclideanSpace::new(datasets::uniform_cube(n, 3, seed));
        let m = MatrixSpace::from_fn(n, |i, j| e.dist(PointId(i as u32), PointId(j as u32)))
            .expect("euclidean distances form a metric");
        let vs = big_candidates(n as u32, 96);
        let cands = big_candidates(n as u32, 128);
        check_many_kernels(&m, &vs, &cands, tau)?;
    }

    #[test]
    fn set_distances_identical_across_thread_counts(
        seed in 0u64..1_000,
    ) {
        let n = 96u32;
        let space = EuclideanSpace::new(datasets::uniform_cube(n as usize, 3, seed));
        let xs: Vec<PointId> = big_candidates(n, 192).into_iter().map(PointId).collect();
        let ys: Vec<PointId> = big_candidates(n, 96).into_iter().map(PointId).collect();
        let baseline = with_threads(1, || dist_set_to_set(&space, &xs, &ys).to_bits());
        for &t in &THREAD_COUNTS[1..] {
            prop_assert_eq!(
                with_threads(t, || dist_set_to_set(&space, &xs, &ys).to_bits()),
                baseline,
                "threads={}",
                t
            );
        }
    }

    #[test]
    fn degrees_among_identical_across_thread_counts(
        seed in 0u64..1_000,
        tau in 0.0f64..1.5,
    ) {
        let n = 64u32;
        let space = EuclideanSpace::new(datasets::uniform_cube(n as usize, 2, seed));
        let g = ThresholdGraph::new(&space, tau);
        // 128 × 96 = 12288 pairs: past the `par_bulk_pairs` gate.
        let vs = big_candidates(n, 128);
        let cands = big_candidates(n, 96);
        let run = || g.degrees_among(&vs, &cands);
        let baseline = with_threads(1, run);
        for &t in &THREAD_COUNTS[1..] {
            prop_assert_eq!(with_threads(t, run), baseline.clone(), "threads={}", t);
        }
    }
}

/// The default `GraphView::degrees_among` (used by adjacency-backed
/// graphs) takes the same parallel path; pin it with an oracle that only
/// implements the required methods.
#[test]
fn graph_view_default_degrees_identical_across_thread_counts() {
    struct ParityGraph(u32);
    impl GraphView for ParityGraph {
        fn n_vertices(&self) -> usize {
            self.0 as usize
        }
        fn is_edge(&self, u: u32, v: u32) -> bool {
            u != v && (u + v).is_multiple_of(3)
        }
    }
    let g = ParityGraph(50);
    let vs = big_candidates(50, 200);
    let cands = big_candidates(50, 64);
    let baseline = with_threads(1, || g.degrees_among(&vs, &cands));
    for &t in &THREAD_COUNTS[1..] {
        assert_eq!(
            with_threads(t, || g.degrees_among(&vs, &cands)),
            baseline,
            "threads={t}"
        );
    }
}

#[test]
fn gmm_identical_across_thread_counts() {
    // n past the GMM parallel-relaxation threshold so the pool path runs.
    let n = 5_000;
    for seed in [1u64, 9] {
        let space = EuclideanSpace::new(datasets::uniform_cube(n, 3, seed));
        let subset: Vec<u32> = (0..n as u32).collect();
        let baseline = with_threads(1, || gmm(&space, &subset, 8));
        for &t in &THREAD_COUNTS[1..] {
            let got = with_threads(t, || gmm(&space, &subset, 8));
            assert_eq!(got.selected, baseline.selected, "seed={seed} threads={t}");
            assert_eq!(got.radii, baseline.radii, "seed={seed} threads={t}");
            assert_eq!(
                got.covering_radius(),
                baseline.covering_radius(),
                "seed={seed} threads={t}"
            );
        }
    }
}

/// The acceptance criterion for the tentpole: a full Algorithm 5 ladder
/// run — centers, radius, every derived field, and the complete MPC
/// ledger (labels, per-machine words, peak memory) — is bit-for-bit
/// identical at 1, 2, and 8 threads.
#[test]
fn full_kcenter_ladder_identical_across_thread_counts() {
    for (n, m, k, seed) in [(900, 4, 6, 42u64), (600, 8, 10, 7)] {
        let space = EuclideanSpace::new(datasets::gaussian_clusters(n, 3, k, 0.05, seed));
        let params = Params::practical(m, 0.1, seed);
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut cluster = Cluster::new(m, seed);
                let res = mpc_kcenter_on(&mut cluster, &space, k, &params);
                (res, cluster.into_ledger())
            })
        };
        let (base, base_ledger) = run(1);
        for &t in &THREAD_COUNTS[1..] {
            let ctx = format!("ladder n={n} m={m} k={k} threads={t}");
            let (got, ledger) = run(t);
            assert_eq!(got.centers, base.centers, "{ctx}: centers");
            assert_eq!(got.radius.to_bits(), base.radius.to_bits(), "{ctx}: radius");
            assert_eq!(
                got.coarse_r.to_bits(),
                base.coarse_r.to_bits(),
                "{ctx}: coarse_r"
            );
            assert_eq!(got.boundary_index, base.boundary_index, "{ctx}: boundary");
            assert_eq!(
                got.telemetry.rounds, base.telemetry.rounds,
                "{ctx}: telemetry rounds"
            );
            base_ledger.assert_identical(&ledger, &ctx);
        }
    }
}
