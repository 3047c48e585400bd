//! Edge parity of the query-paired run kernel: the `soa` tier's
//! `count_within_many` / `neighbors_within_many` must equal the `exact`
//! oracle's, at 1, 2 and 8 worker threads, wherever the kernel's blocking
//! changes shape.
//!
//! * d ∈ {16, 17, 32}: the narrowest Gram dimension, an odd one, and the
//!   benchmark's.
//! * 1, 2 and 23 queries: a lone query, one pair, and a pair walk with an
//!   odd last query.
//! * Candidate lengths straddling the 8-lane block, the 32-candidate block
//!   and the 64-bit verdict word, plus a 300-candidate list that spans
//!   several tiles.
//! * A contiguous id run (read straight from the space's mirror) and a
//!   scattered list (packed into its own slab first).
//! * Thresholds placed on exact pair distances, so band hits and their
//!   exact re-decide are exercised (`exact_fallbacks > 0`).
//!
//! The single-query `count_within` / `neighbors_within`, one-query calls
//! of the same scan, are checked on the same inputs plus the short
//! scattered lists greedy MIS sends (the query itself and a repeated id
//! among them), with exact kernel tallies: every pair of every call goes
//! through the run kernel once.

use mpc_clustering::metric::{datasets, EuclideanSpace, MetricSpace, PointId, SpeedTier};
use rayon::with_threads;

const THREADS: [usize; 3] = [1, 2, 8];
const DIMS: [usize; 3] = [16, 17, 32];
const QUERIES: [usize; 3] = [1, 2, 23];
const LENS: [usize; 9] = [7, 8, 31, 32, 63, 64, 65, 97, 300];
const N: u32 = 700;

/// The candidate lists of one length: a contiguous run and a scattered,
/// unsorted list.
fn lists(len: usize) -> [Vec<u32>; 2] {
    let len = len as u32;
    [
        (101..101 + len).collect(),
        (0..len).map(|i| (i * 211 + 7 * len) % N).collect(),
    ]
}

/// Scattered lists of at most 32 ids that hold `q` itself and repeat an
/// id — the shape greedy MIS sends over a light pool.
fn mis_lists(q: u32) -> Vec<Vec<u32>> {
    [2u32, 3, 8, 9, 17, 32]
        .into_iter()
        .map(|len| {
            let mut ids: Vec<u32> = (0..len - 2).map(|i| (i * 97 + 31 * len) % N).collect();
            ids.insert(ids.len() / 2, q);
            ids.push(ids[0]);
            ids
        })
        .collect()
}

/// Thresholds on exact pair distances — a query against the middle and
/// the last candidate — and just past the first one.
fn taus(exact: &EuclideanSpace, qs: &[u32], cands: &[u32]) -> [f64; 3] {
    let q0 = PointId(qs[0]);
    let ql = PointId(qs[qs.len() - 1]);
    [
        exact.dist(q0, PointId(cands[cands.len() / 2])),
        exact.dist(ql, PointId(cands[cands.len() - 1])),
        exact.dist(q0, PointId(cands[0])) * (1.0 + 1e-12),
    ]
}

#[test]
fn multi_query_scans_match_the_exact_oracle_at_every_edge() {
    for dim in DIMS {
        let points = datasets::gaussian_clusters(N as usize, dim, 5, 0.05, dim as u64);
        let exact = EuclideanSpace::new(points.clone()).with_speed_tier(SpeedTier::Exact);
        let soa = EuclideanSpace::new(points).with_speed_tier(SpeedTier::Soa);
        for nq in QUERIES {
            let qs: Vec<u32> = (0..nq as u32).map(|i| (i * 53 + 3) % N).collect();
            for len in LENS {
                for cands in lists(len) {
                    for tau in taus(&exact, &qs, &cands) {
                        let want = with_threads(1, || {
                            (
                                exact.count_within_many(&qs, &cands, tau),
                                exact.neighbors_within_many(&qs, &cands, tau),
                            )
                        });
                        for threads in THREADS {
                            let got = with_threads(threads, || {
                                (
                                    soa.count_within_many(&qs, &cands, tau),
                                    soa.neighbors_within_many(&qs, &cands, tau),
                                )
                            });
                            assert_eq!(
                                got, want,
                                "d={dim} |qs|={nq} |cands|={len} first={} tau={tau} threads={threads}",
                                cands[0]
                            );
                        }
                    }
                }
            }
        }
        let ks = soa.kernel_stats().unwrap();
        assert!(ks.run_pairs > 0, "d={dim}: the run kernel never ran");
        assert_eq!(
            ks.indexed_pairs, 0,
            "d={dim}: multi-query scans must not gather"
        );
        assert!(
            ks.exact_fallbacks > 0,
            "d={dim}: no threshold landed in the band"
        );
    }
}

#[test]
fn single_query_scans_match_the_exact_oracle_at_every_edge() {
    for dim in DIMS {
        let points = datasets::gaussian_clusters(N as usize, dim, 5, 0.05, dim as u64);
        let exact = EuclideanSpace::new(points.clone()).with_speed_tier(SpeedTier::Exact);
        let soa = EuclideanSpace::new(points).with_speed_tier(SpeedTier::Soa);
        let qs: Vec<u32> = vec![3, 56];
        let mut cand_lists: Vec<Vec<u32>> = LENS.into_iter().flat_map(lists).collect();
        cand_lists.extend(qs.iter().flat_map(|&q| mis_lists(q)));
        for cands in &cand_lists {
            for tau in taus(&exact, &qs, cands) {
                for &q in &qs {
                    let (mut want, mut got) = (Vec::new(), Vec::new());
                    exact.neighbors_within(PointId(q), cands, tau, &mut want);
                    let label = format!("d={dim} q={q} |cands|={} first={}", cands.len(), cands[0]);
                    let before = soa.kernel_stats().unwrap();
                    soa.neighbors_within(PointId(q), cands, tau, &mut got);
                    let mid = soa.kernel_stats().unwrap();
                    assert_eq!(got, want, "{label} tau={tau}");
                    assert_eq!(
                        soa.count_within(PointId(q), cands, tau),
                        want.len(),
                        "{label} tau={tau}"
                    );
                    let after = soa.kernel_stats().unwrap();
                    let pairs = cands.len() as u64;
                    assert_eq!(mid.run_pairs - before.run_pairs, pairs, "{label}");
                    assert_eq!(after.run_pairs - mid.run_pairs, pairs, "{label}");
                }
            }
        }
        let ks = soa.kernel_stats().unwrap();
        assert_eq!(
            ks.indexed_pairs, 0,
            "d={dim}: single-query scans run on the run kernel only"
        );
        assert!(
            ks.exact_fallbacks > 0,
            "d={dim}: no threshold landed in the band"
        );
    }
}
