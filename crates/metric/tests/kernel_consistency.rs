//! Property-based tests: for **every** [`MetricSpace`] implementation the
//! batched threshold kernels (`count_within` / `neighbors_within`) agree
//! exactly with the scalar oracle (`within`), and the scalar oracle agrees
//! with `dist(i, j) <= tau` away from floating-point threshold boundaries.
//!
//! This pins the contract the graph layer relies on: `ThresholdGraph`
//! answers `degree_among` through `count_within`, so a kernel that drifted
//! from the scalar path would silently change every algorithm built on it.

use mpc_metric::{
    AngularSpace, ChebyshevSpace, EditDistanceSpace, EuclideanSpace, GraphMetricSpace,
    HammingSpace, JaccardSpace, KernelStats, ManhattanSpace, MatrixSpace, MetricSpace, PointId,
    PointSet, SpeedTier,
};
use proptest::prelude::*;

/// Thresholds worth probing: below zero, zero, and for a sample of actual
/// distances both the exact value and `±1e-9`-relative nudges. The exact
/// values exercise tie handling inside each space's own comparison; the
/// nudged values sit far enough (≫ 1 ulp) from every boundary that the
/// `within ⇔ dist <= tau` cross-check is well-posed even for spaces whose
/// `within` uses an algebraically equal but differently-rounded test
/// (`EuclideanSpace` compares squared distances).
fn probe_taus<M: MetricSpace + ?Sized>(m: &M) -> Vec<f64> {
    let n = m.n() as u32;
    let mut ds: Vec<f64> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            ds.push(m.dist(PointId(i), PointId(j)));
        }
    }
    ds.sort_by(f64::total_cmp);
    let mut taus = vec![-1.0, 0.0];
    let picks = [0, ds.len() / 4, ds.len() / 2, (3 * ds.len()) / 4];
    for &p in &picks {
        if let Some(&d) = ds.get(p) {
            taus.push(d);
            taus.push(d * (1.0 - 1e-9) - 1e-12);
            taus.push(d * (1.0 + 1e-9) + 1e-12);
        }
    }
    if let Some(&d) = ds.last() {
        taus.push(d + 1.0);
    }
    taus
}

/// The invariants every implementation must satisfy, for every probed
/// vertex / candidate-set / threshold combination:
///
/// 1. `count_within == |{c : within(v, c, tau)}|` — bulk count vs scalar;
/// 2. `neighbors_within` filters by the same predicate, preserving order;
/// 3. (the `&M` blanket impl's forwarding is pinned separately, by
///    `ref_impl_forwards_every_override`: equal results cannot show it,
///    since the trait defaults compute the same answers);
/// 4. away from threshold boundaries, `within(i, j, tau) ⇔ dist(i, j) <= tau`;
/// 5. the multi-query kernels (`count_within_many` / `neighbors_within_many`)
///    equal the per-query scalar kernels row for row, including at exact
///    boundary thresholds (for `EuclideanSpace` this exercises the Gram
///    band's exact-recompute fallback);
/// 6. `dists_into` is bitwise `dist` per candidate, and `dist_to_set` is
///    bitwise the min-fold of `dist` over the set (`INFINITY` on empty);
/// 7. the multi-τ methods (`count_within_taus` / `neighbors_within_taus`)
///    over the full sorted probe batch equal the per-τ kernels rung for
///    rung — including exact boundary thresholds, negative rungs, and
///    duplicated rungs (the trait's entry-rung default body, which every
///    space here runs, against each space's own single-τ kernels).
fn check_kernels<M: MetricSpace>(m: &M) -> Result<(), TestCaseError> {
    let n = m.n() as u32;
    let all: Vec<u32> = (0..n).collect();
    let evens: Vec<u32> = (0..n).step_by(2).collect();
    let with_dup: Vec<u32> = {
        let mut v = vec![0u32, 0];
        v.extend((0..n).rev());
        v
    };
    let empty: Vec<u32> = Vec::new();
    let probes: Vec<u32> = vec![0, n / 2, n - 1];
    // (6) — τ-independent, so checked once per candidate set.
    for &v in &probes {
        let v = PointId(v);
        for cands in [&all, &evens, &with_dup, &empty] {
            let mut bulk = Vec::new();
            m.dists_into(v, cands, &mut bulk);
            prop_assert_eq!(bulk.len(), cands.len());
            for (&c, &d) in cands.iter().zip(&bulk) {
                prop_assert_eq!(
                    d.to_bits(),
                    m.dist(v, PointId(c)).to_bits(),
                    "dists_into vs dist: v={:?} c={}",
                    v,
                    c
                );
            }
            let ids: Vec<PointId> = cands.iter().map(|&c| PointId(c)).collect();
            let scalar_min = ids
                .iter()
                .map(|&c| m.dist(v, c))
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(
                m.dist_to_set(v, &ids).to_bits(),
                scalar_min.to_bits(),
                "dist_to_set vs min-fold: v={:?} |set|={}",
                v,
                ids.len()
            );
        }
    }
    // (7) — the multi-τ methods over the whole sorted probe batch. The
    // methods require non-decreasing thresholds (`probe_taus` is not
    // sorted), and `total_cmp` keeps duplicates adjacent.
    {
        let mut batch = probe_taus(m);
        batch.sort_by(f64::total_cmp);
        for &v in &probes {
            let v = PointId(v);
            for cands in [&all, &evens, &with_dup, &empty] {
                let per_tau_counts: Vec<usize> = batch
                    .iter()
                    .map(|&tau| m.count_within(v, cands, tau))
                    .collect();
                prop_assert_eq!(
                    m.count_within_taus(v, cands, &batch),
                    per_tau_counts,
                    "count_within_taus vs per-τ: v={:?} |cands|={}",
                    v,
                    cands.len()
                );
                let rows = m.neighbors_within_taus(v, cands, &batch);
                prop_assert_eq!(rows.len(), batch.len());
                for (&tau, row) in batch.iter().zip(&rows) {
                    let mut per = Vec::new();
                    m.neighbors_within(v, cands, tau, &mut per);
                    prop_assert_eq!(
                        row,
                        &per,
                        "neighbors_within_taus vs per-τ: v={:?} tau={}",
                        v,
                        tau
                    );
                }
            }
        }
    }
    for tau in probe_taus(m) {
        // (5) — the whole probe batch against every candidate set.
        for cands in [&all, &evens, &with_dup, &empty] {
            let scalar_counts: Vec<usize> = probes
                .iter()
                .map(|&v| m.count_within(PointId(v), cands, tau))
                .collect();
            prop_assert_eq!(
                m.count_within_many(&probes, cands, tau),
                scalar_counts,
                "count_within_many vs per-query: tau={} |cands|={}",
                tau,
                cands.len()
            );
            let many = m.neighbors_within_many(&probes, cands, tau);
            prop_assert_eq!(many.len(), probes.len());
            for (&v, row) in probes.iter().zip(&many) {
                let mut per = Vec::new();
                m.neighbors_within(PointId(v), cands, tau, &mut per);
                prop_assert_eq!(
                    row,
                    &per,
                    "neighbors_within_many vs per-query: v={} tau={}",
                    v,
                    tau
                );
            }
        }
        let exact_boundary = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .any(|(i, j)| m.dist(PointId(i), PointId(j)) == tau);
        for &v in &probes {
            let v = PointId(v);
            for cands in [&all, &evens, &with_dup, &empty] {
                let scalar: Vec<u32> = cands
                    .iter()
                    .copied()
                    .filter(|&c| m.within(v, PointId(c), tau))
                    .collect();
                prop_assert_eq!(
                    m.count_within(v, cands, tau),
                    scalar.len(),
                    "count_within vs scalar within: v={:?} tau={} |cands|={}",
                    v,
                    tau,
                    cands.len()
                );
                let mut bulk = Vec::new();
                m.neighbors_within(v, cands, tau, &mut bulk);
                prop_assert_eq!(
                    &bulk,
                    &scalar,
                    "neighbors_within vs scalar filter: v={:?} tau={}",
                    v,
                    tau
                );
                if !exact_boundary {
                    for &c in cands {
                        prop_assert_eq!(
                            m.within(v, PointId(c), tau),
                            m.dist(v, PointId(c)) <= tau,
                            "within vs dist<=tau: v={:?} c={} tau={}",
                            v,
                            c,
                            tau
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// A space whose every override answers what no trait default body could
/// (the defaults would derive their answers from `dist = 1`), so a call
/// that reaches the override is told apart from one that fell back to a
/// default.
struct Sentinel(EuclideanSpace);

impl MetricSpace for Sentinel {
    fn n(&self) -> usize {
        7_001
    }
    fn dist(&self, _: PointId, _: PointId) -> f64 {
        1.0
    }
    fn point_weight(&self) -> u64 {
        7_002
    }
    fn within(&self, _: PointId, _: PointId, _: f64) -> bool {
        true // the default says `1.0 <= 0.0`: false
    }
    fn count_within(&self, _: PointId, _: &[u32], _: f64) -> usize {
        7_003
    }
    fn neighbors_within(&self, _: PointId, _: &[u32], _: f64, out: &mut Vec<u32>) {
        *out = vec![7_004];
    }
    fn count_within_many(&self, _: &[u32], _: &[u32], _: f64) -> Vec<usize> {
        vec![7_005]
    }
    fn neighbors_within_many(&self, _: &[u32], _: &[u32], _: f64) -> Vec<Vec<u32>> {
        vec![vec![7_006]]
    }
    fn dists_into(&self, _: PointId, _: &[u32], out: &mut Vec<f64>) {
        *out = vec![7_007.0];
    }
    fn dist_to_set(&self, _: PointId, _: &[PointId]) -> f64 {
        7_008.0
    }
    fn kernel_stats(&self) -> Option<KernelStats> {
        Some(KernelStats {
            run_pairs: 7_009,
            ..KernelStats::default()
        })
    }
    fn euclidean(&self) -> Option<&EuclideanSpace> {
        Some(&self.0)
    }
}

/// Calls every method the `&M` impl forwards through `m`'s own impl;
/// with `M = &Sentinel` that impl is the blanket one.
fn answers<M: MetricSpace>(m: &M) -> String {
    let (v, c) = (PointId(0), [0u32, 1]);
    let (mut ids, mut ds) = (Vec::new(), Vec::new());
    m.neighbors_within(v, &c, 0.0, &mut ids);
    m.dists_into(v, &c, &mut ds);
    format!(
        "{} {} {} {} {} {:?} {:?} {:?} {:?} {} {:?}",
        m.n(),
        m.dist(v, PointId(1)),
        m.point_weight(),
        m.within(v, PointId(1), 0.0),
        m.count_within(v, &c, 0.0),
        ids,
        m.count_within_many(&c, &c, 0.0),
        m.neighbors_within_many(&c, &c, 0.0),
        ds,
        m.dist_to_set(v, &[PointId(1)]),
        m.kernel_stats().map(|s| s.run_pairs),
    )
}

#[test]
fn ref_impl_forwards_every_override() {
    let s = Sentinel(EuclideanSpace::new(PointSet::from_rows(&[vec![0.0]])));
    let want = "7001 1 7002 true 7003 [7004] [7005] [[7006]] [7007.0] 7008 Some(7009)";
    assert_eq!(answers(&s), want);
    assert_eq!(answers(&&s), want, "the &M impl dropped a forward");
    let by_ref = &s;
    let fwd = <&Sentinel as MetricSpace>::euclidean(&by_ref);
    assert!(fwd.is_some_and(|e| std::ptr::eq(e, &s.0)));
}

fn arb_rows(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, dim..=dim), 3..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn euclidean_kernels_match_scalar(rows in arb_rows(24, 3)) {
        check_kernels(&EuclideanSpace::new(PointSet::from_rows(&rows)))?;
    }

    #[test]
    fn euclidean_gram_kernels_match_scalar(rows in arb_rows(20, 18)) {
        // dim ≥ GRAM_MIN_DIM: at the `soa` tier the kernels take the f32
        // Gram-estimate path (with the banded exact fallback), at `exact`
        // the plain diff loop — both must match the scalar oracle.
        for tier in [SpeedTier::Exact, SpeedTier::Soa] {
            check_kernels(&EuclideanSpace::new(PointSet::from_rows(&rows)).with_speed_tier(tier))?;
        }
    }

    #[test]
    fn minkowski_kernels_match_scalar(rows in arb_rows(20, 3)) {
        let ps = PointSet::from_rows(&rows);
        check_kernels(&ManhattanSpace::new(ps.clone()))?;
        check_kernels(&ChebyshevSpace::new(ps))?;
    }

    #[test]
    fn angular_kernels_match_scalar(rows in arb_rows(18, 3)) {
        let shifted: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|c| c.abs() + 0.5).collect())
            .collect();
        check_kernels(&AngularSpace::new(PointSet::from_rows(&shifted)))?;
    }

    #[test]
    fn bitset_kernels_match_scalar(
        masks in prop::collection::vec(prop::collection::vec(any::<bool>(), 32), 3..18),
    ) {
        let n = masks.len();
        let bits: Vec<Vec<usize>> = masks
            .iter()
            .map(|row| row.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect())
            .collect();
        check_kernels(&HammingSpace::from_set_bits(n, 32, &bits))?;
        check_kernels(&JaccardSpace::from_set_bits(n, 32, &bits))?;
    }

    #[test]
    fn edit_distance_kernels_match_scalar(words in prop::collection::vec("[a-d]{0,6}", 3..12)) {
        check_kernels(&EditDistanceSpace::new(&words))?;
    }

    #[test]
    fn matrix_kernels_match_scalar(rows in arb_rows(16, 2)) {
        let ps = PointSet::from_rows(&rows);
        let n = ps.len();
        let e = EuclideanSpace::new(ps);
        let m = MatrixSpace::from_fn(n, |i, j| {
            e.dist(PointId(i as u32), PointId(j as u32))
        }).unwrap();
        check_kernels(&m)?;
    }

    #[test]
    fn graph_metric_kernels_match_scalar(
        weights in prop::collection::vec(0.1f64..10.0, 3..14),
        extra in prop::collection::vec((0u32..14, 0u32..14, 0.1f64..20.0), 0..6),
    ) {
        // A path graph keeps everything connected; extra edges add shortcuts.
        let n = weights.len() + 1;
        let mut edges: Vec<(usize, usize, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i, i + 1, w))
            .collect();
        for &(a, b, w) in &extra {
            let (a, b) = (a as usize % n, b as usize % n);
            if a != b {
                edges.push((a, b, w));
            }
        }
        let m = GraphMetricSpace::from_edges(n, &edges).unwrap();
        check_kernels(&m)?;
    }
}
