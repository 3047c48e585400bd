//! Property-based tests across the baseline algorithms: approximation
//! bands relative to the exact solvers, and mutual consistency, on random
//! small instances.

use mpc_baselines::exact::{exact_diversity, exact_kcenter};
use mpc_baselines::hochbaum_shmoys::hochbaum_shmoys_kcenter;
use mpc_baselines::outliers::charikar_outliers_kcenter;
use mpc_baselines::random_pick::{random_diversity, random_kcenter_radius};
use mpc_baselines::remote_clique::{clique_value, local_search_remote_clique};
use mpc_core::diversity::sequential_gmm_diversity;
use mpc_core::kcenter::sequential_gmm_kcenter;
use mpc_metric::{EuclideanSpace, PointSet};
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = PointSet> {
    prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 4..max_n).prop_map(|pts| {
        PointSet::from_rows(&pts.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every k-center algorithm respects its proven factor against the
    /// exact optimum, and none beats the optimum.
    #[test]
    fn kcenter_factor_bands(points in arb_points(20)) {
        let metric = EuclideanSpace::new(points);
        let n = metric.points().len();
        let k = 3.min(n - 1);
        if k == 0 { return Ok(()); }
        let (opt, _) = exact_kcenter(&metric, k);
        let tol = 1e-9;

        let gmm = sequential_gmm_kcenter(&metric, k).radius;
        prop_assert!(gmm >= opt - tol && gmm <= 2.0 * opt + tol, "GMM {gmm} vs opt {opt}");

        let hs = hochbaum_shmoys_kcenter(&metric, k).radius;
        prop_assert!(hs >= opt - tol && hs <= 2.0 * opt + tol, "HS {hs} vs opt {opt}");

        let charikar = charikar_outliers_kcenter(&metric, k, 0).radius;
        prop_assert!(charikar >= opt - tol && charikar <= 3.0 * opt + tol, "charikar {charikar}");

        let rnd = random_kcenter_radius(&metric, k, 7);
        prop_assert!(rnd >= opt - tol, "random cannot beat the optimum");
    }

    /// Diversity: GMM is a true 2-approximation; random never beats the
    /// optimum; local-search remote-clique ≥ half the exact clique value
    /// of the GMM set (weak cross-check).
    #[test]
    fn diversity_factor_bands(points in arb_points(16)) {
        let metric = EuclideanSpace::new(points);
        let n = metric.points().len();
        let k = 3.min(n);
        if k < 2 || n <= k { return Ok(()); }
        let (opt, _) = exact_diversity(&metric, k);
        let tol = 1e-9;

        let gmm = sequential_gmm_diversity(&metric, k).diversity;
        prop_assert!(gmm <= opt + tol && gmm >= opt / 2.0 - tol, "GMM {gmm} vs opt {opt}");

        let rnd = random_diversity(&metric, k, 11);
        prop_assert!(rnd <= opt + tol, "random {rnd} beats opt {opt}?");

        // The local-search remote-clique value must at least match the
        // clique value of the GMM (remote-edge) selection — they optimize
        // different objectives but LS starts from a spread-greedy seed.
        let all: Vec<u32> = (0..n as u32).collect();
        let ls = local_search_remote_clique(&metric, &all, k, 32);
        let gmm_set = sequential_gmm_diversity(&metric, k).subset;
        let gmm_clique = clique_value(&metric, &gmm_set);
        prop_assert!(ls.value >= gmm_clique - tol,
            "LS clique {} below GMM-set clique {gmm_clique}", ls.value);
    }
}
