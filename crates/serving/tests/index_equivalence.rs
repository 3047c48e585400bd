//! The serving contract, property-tested (ISSUE 7 satellite):
//!
//! 1. **Incremental ≡ batch-rebuild.** An index that grew insert-by-insert
//!    (with lazy staleness rebuilds churning along the way) must, after
//!    `refresh_all`, serve answers bit-identical to a fresh index that saw
//!    the same stream in one go — shard membership and coresets are pure
//!    functions of the insertion sequence.
//! 2. **Thread independence.** Every served digest (center ids, radius
//!    bits, δ bits, boundary index) is identical at worker threads
//!    ∈ {1, 2, 8}.
//! 3. **Certified quality.** Lazy-path snapshots stay *sound* (served
//!    radius ≥ realized radius over all indexed points) and refreshed
//!    snapshots stay within the composable-coreset factor of batch
//!    Algorithm 5 / Algorithm 2 on the identical point set.
//!
//! Streams are adversarial on purpose: coordinates come from a small
//! integer grid (forcing exact duplicates) and the insertion order is a
//! seeded permutation, so clusters can arrive contiguously or scattered.

use mpc_core::diversity::mpc_diversity;
use mpc_core::kcenter::mpc_kcenter;
use mpc_core::Params;
use mpc_metric::{dist_point_to_set, EuclideanSpace, MetricSpace, PointId, PointSet};
use mpc_serving::{DiversityIndex, IndexParams, ServedDiversity, ServedKCenter};
use proptest::prelude::*;
use rayon::with_threads;

const DIM: usize = 3;
const CORESET_K: usize = 8;
const SEED: u64 = 77;
const EPS: f64 = 0.1;

/// Grid-valued rows with forced duplicates: each generated cell appears
/// 1–3 times in the stream.
fn arb_dup_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec((prop::collection::vec(-6i64..6, DIM), 0u8..3), 12..60).prop_map(
        |entries| {
            let mut rows = Vec::new();
            for (cell, dups) in entries {
                let row: Vec<f64> = cell.iter().map(|&c| c as f64 * 0.5).collect();
                for _ in 0..=dups {
                    rows.push(row.clone());
                }
            }
            rows
        },
    )
}

/// Deterministic Fisher–Yates from an LCG — adversarial orderings without
/// a shuffle combinator in the proptest shim.
fn permute(rows: &mut [Vec<f64>], seed: u64) {
    let mut state = seed | 1;
    for i in (1..rows.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((state >> 33) as usize) % (i + 1);
        rows.swap(i, j);
    }
}

fn kc_digest(s: &ServedKCenter) -> Vec<u64> {
    let mut d: Vec<u64> = s.centers.iter().map(|p| p.0 as u64).collect();
    d.push(s.radius.to_bits());
    d.push(s.union_radius.to_bits());
    d.push(s.delta.to_bits());
    d.push(s.boundary_index as u64);
    d
}

fn kd_digest(s: &ServedDiversity) -> Vec<u64> {
    let mut d: Vec<u64> = s.subset.iter().map(|p| p.0 as u64).collect();
    d.push(s.diversity.to_bits());
    d.push(s.delta.to_bits());
    d.push(s.boundary_index as u64);
    d
}

fn realized_radius(space: &EuclideanSpace, centers: &[PointId]) -> f64 {
    (0..space.n() as u32)
        .map(|v| dist_point_to_set(space, PointId(v), centers))
        .fold(0.0f64, f64::max)
}

/// One full serving run at a fixed thread count; returns the digests of
/// the final (refreshed) answers and asserts the lazy-path invariants
/// along the way.
fn run_stream(rows: &[Vec<f64>], shards: usize, k: usize) -> (Vec<u64>, Vec<u64>) {
    // Index A grows incrementally, with snapshots (and their lazy
    // rebuilds) interleaved mid-stream.
    let mut a = DiversityIndex::new(DIM, IndexParams::new(shards, CORESET_K, SEED));
    for (i, row) in rows.iter().enumerate() {
        a.insert(row);
        if i % 17 == 16 {
            let mut snap = a.snapshot();
            let served = snap.kcenter(k);
            // Lazy-path soundness: the served radius covers every point
            // indexed so far, staleness slack included.
            let realized = realized_radius(a.space(), &served.centers);
            assert!(
                served.radius >= realized - 1e-9,
                "mid-stream i={i}: served {} < realized {realized}",
                served.radius
            );
        }
    }
    a.refresh_all();

    // Index B sees the identical stream in one burst.
    let mut b = DiversityIndex::new(DIM, IndexParams::new(shards, CORESET_K, SEED));
    for row in rows {
        b.insert(row);
    }
    b.refresh_all();

    let mut sa = a.snapshot();
    let mut sb = b.snapshot();
    let (ka, kb) = (sa.kcenter(k), sb.kcenter(k));
    assert_eq!(
        kc_digest(&ka),
        kc_digest(&kb),
        "incremental vs batch-rebuild k-center diverged"
    );
    let (da, db) = (sa.kdiversity(k), sb.kdiversity(k));
    assert_eq!(
        kd_digest(&da),
        kd_digest(&db),
        "incremental vs batch-rebuild k-diversity diverged"
    );
    (kc_digest(&ka), kd_digest(&da))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn incremental_equals_batch_rebuild_across_threads(
        rows in arb_dup_rows(),
        shard_i in 0usize..3,
        order_seed in any::<u64>(),
    ) {
        let shards = [1usize, 4, 16][shard_i];
        let k = 4usize;
        let mut rows = rows;
        permute(&mut rows, order_seed);

        let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
        for &threads in &[1usize, 2, 8] {
            let digests = with_threads(threads, || run_stream(&rows, shards, k));
            match &reference {
                None => reference = Some(digests),
                Some(r) => prop_assert_eq!(
                    r,
                    &digests,
                    "served digests changed at threads={}",
                    threads
                ),
            }
        }
    }

    #[test]
    fn served_answers_within_certified_factor_of_batch(
        rows in arb_dup_rows(),
        shard_i in 0usize..3,
        order_seed in any::<u64>(),
    ) {
        let shards = [1usize, 4, 16][shard_i];
        let k = 4usize;
        let mut rows = rows;
        permute(&mut rows, order_seed);

        let mut index = DiversityIndex::new(DIM, IndexParams::new(shards, CORESET_K, SEED));
        for row in &rows {
            index.insert(row);
        }
        let mut snap = index.snapshot();
        let served_kc = snap.kcenter(k);
        let served_kd = snap.kdiversity(k);
        let delta = snap.delta();
        prop_assert!(delta.is_finite());

        // Batch Algorithms 5 and 2 on the identical point set.
        let space = EuclideanSpace::new(PointSet::from_rows(&rows));
        let params = Params::practical(1, EPS, SEED);
        let batch_kc = mpc_kcenter(&space, k, &params);
        let factor = 2.0 * (1.0 + EPS);
        prop_assert!(
            served_kc.radius <= factor * batch_kc.radius + (factor + 1.0) * delta + 1e-9,
            "k-center: served {} vs batch {} delta {}",
            served_kc.radius, batch_kc.radius, delta
        );
        let realized = realized_radius(snap.space(), &served_kc.centers);
        prop_assert!(
            served_kc.radius >= realized - 1e-9,
            "k-center: served {} below realized {}",
            served_kc.radius, realized
        );

        let batch_kd = mpc_diversity(&space, k, &params);
        prop_assert!(
            served_kd.diversity >= (batch_kd.diversity - 2.0 * delta) / (2.0 + EPS) - 1e-9,
            "k-diversity: served {} vs batch {} delta {}",
            served_kd.diversity, batch_kd.diversity, delta
        );
    }
}
