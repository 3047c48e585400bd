//! Parity of the ball-pruned multi-query scans: at the `soa` tier,
//! `count_within_many` / `neighbors_within_many` decide whole (query,
//! candidate ball) blocks by the triangle inequality and classify only the
//! undecided ones; the `exact` tier never prunes. Their outputs must be
//! equal, at 1, 2 and 8 worker threads.
//!
//! * Clustered `user_embeddings` at d = 16 and d = 32, with thresholds on
//!   actual pair distances, so verdicts fall exactly on the boundary.
//! * A scrambled candidate list and one where every id appears twice.
//! * A few rows with NaN or ±∞ coordinates among the queries and the
//!   candidates.
//!
//! The kernel tallies prove which path ran: on the clustered input, an
//! in-cluster threshold leaves fewer than half of the pairs to the run
//! kernel (`run_pairs` falls by the pruned share), and the tally is the
//! same at every thread count. On a uniform cube the bounds decide too
//! little, and the scan falls back to classifying every pair.

use mpc_clustering::metric::{datasets, EuclideanSpace, MetricSpace, PointId, PointSet, SpeedTier};
use rayon::with_threads;

const THREADS: [usize; 3] = [1, 2, 8];
const N: u32 = 4000;

/// 600 scrambled queries.
fn queries() -> Vec<u32> {
    (0..600).map(|i| (i * 1297 + 5) % N).collect()
}

/// A scrambled 700-candidate list, and a 700-candidate list holding 350
/// ids twice each (the second copy in reverse).
fn candidate_lists() -> [Vec<u32>; 2] {
    let scrambled: Vec<u32> = (0..700).map(|i| (i * 2713 + 11) % N).collect();
    let half = &scrambled[..350];
    let repeated = half.iter().chain(half.iter().rev()).copied().collect();
    [scrambled, repeated]
}

/// `points` with NaN, +∞ and −∞ written into rows that appear among the
/// queries and among both candidate lists.
fn with_non_finite_rows(points: PointSet, qs: &[u32], cands: &[u32]) -> PointSet {
    let dim = points.dim();
    let mut data = points.raw().to_vec();
    for (id, x) in [
        (qs[3], f64::NAN),
        (qs[10], f64::INFINITY),
        (cands[5], f64::NEG_INFINITY),
        (cands[7], f64::NAN),
    ] {
        data[id as usize * dim + 1] = x;
    }
    PointSet::new(data, dim)
}

/// Thresholds on exact pair distances from a finite query: the 1%, 3%,
/// 10% and 50% quantiles of its distances to the candidates. With 16
/// clusters the first two fall inside its cluster.
fn taus(exact: &EuclideanSpace, q: u32, cands: &[u32]) -> Vec<f64> {
    let mut ds: Vec<f64> = cands
        .iter()
        .map(|&c| exact.dist(PointId(q), PointId(c)))
        .filter(|d| d.is_finite())
        .collect();
    ds.sort_by(f64::total_cmp);
    [0.01, 0.03, 0.1, 0.5]
        .iter()
        .map(|f| ds[(f * ds.len() as f64) as usize])
        .collect()
}

/// The `run_pairs` growth of `f` on `space`.
fn run_pairs_of<T>(space: &EuclideanSpace, f: impl FnOnce() -> T) -> (T, u64) {
    let run_pairs = || space.kernel_stats().map_or(0, |k| k.run_pairs);
    let before = run_pairs();
    let out = f();
    (out, run_pairs() - before)
}

/// Checks both scans of `soa` against `exact` for every candidate list
/// and threshold, at every thread count, and returns each scan's
/// `run_pairs` growth per (list, threshold), asserting it is the same at
/// every thread count.
fn check_parity(exact: &EuclideanSpace, soa: &EuclideanSpace, qs: &[u32]) -> Vec<(u64, u64)> {
    let mut deltas = Vec::new();
    for cands in candidate_lists() {
        for tau in taus(exact, qs[0], &cands) {
            let want = (
                exact.count_within_many(qs, &cands, tau),
                exact.neighbors_within_many(qs, &cands, tau),
            );
            let mut seen = None;
            for threads in THREADS {
                let ((counts, rows), delta) = with_threads(threads, || {
                    let (counts, c) = run_pairs_of(soa, || soa.count_within_many(qs, &cands, tau));
                    let (rows, r) =
                        run_pairs_of(soa, || soa.neighbors_within_many(qs, &cands, tau));
                    ((counts, rows), (c, r))
                });
                let ctx = format!("|cands|={} tau={tau} threads={threads}", cands.len());
                assert_eq!(counts, want.0, "counts: {ctx}");
                assert_eq!(rows, want.1, "neighbour rows: {ctx}");
                assert_eq!(*seen.get_or_insert(delta), delta, "run_pairs growth: {ctx}");
            }
            deltas.push(seen.unwrap());
        }
    }
    deltas
}

#[test]
fn pruned_scans_match_the_exact_oracle_on_clustered_embeddings() {
    let qs = queries();
    for dim in [16usize, 32] {
        let points = datasets::user_embeddings(N as usize, dim, 16, 0.03, 1e-3, dim as u64);
        let points = with_non_finite_rows(points, &qs, &candidate_lists()[0]);
        let exact = EuclideanSpace::new(points.clone()).with_speed_tier(SpeedTier::Exact);
        let soa = EuclideanSpace::new(points).with_speed_tier(SpeedTier::Soa);
        let deltas = check_parity(&exact, &soa, &qs);
        let pairs = (qs.len() * 700) as u64;
        // The two in-cluster thresholds of each list took the pruned path.
        for (i, &(count, list)) in deltas.iter().enumerate().filter(|(i, _)| i % 4 < 2) {
            assert!(
                2 * count < pairs && 2 * list < pairs,
                "d={dim} scan {i}: run_pairs grew by {count} / {list} of {pairs} pairs"
            );
        }
    }
}

#[test]
fn unclustered_scans_fall_back_to_classifying_every_pair() {
    let qs = queries();
    let points = datasets::uniform_cube(N as usize, 32, 3);
    let exact = EuclideanSpace::new(points.clone()).with_speed_tier(SpeedTier::Exact);
    let soa = EuclideanSpace::new(points).with_speed_tier(SpeedTier::Soa);
    let pairs = (qs.len() * 700) as u64;
    for (count, list) in check_parity(&exact, &soa, &qs) {
        assert_eq!((count, list), (pairs, pairs));
    }
}
