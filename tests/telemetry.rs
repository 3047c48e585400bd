//! Integration tests of the resource accounting: the measured rounds and
//! communication must match the paper's claimed complexity *shapes*.

use mpc_clustering::core::Telemetry;
use mpc_clustering::core::{diversity, grid, kcenter, ksupplier, Params};
use mpc_clustering::metric::{datasets, EuclideanSpace, PointSet, SpeedTier};

/// Per-machine communication grows ~linearly in m·k (Õ(mk) claim): going
/// from (m, k) to (2m, 2k) must grow max words/machine by far less than
/// the 16× a quadratic dependence would allow.
#[test]
fn communication_scales_like_mk() {
    let n = 3000;
    let metric = EuclideanSpace::new(datasets::gaussian_clusters(n, 2, 8, 0.02, 3));
    let small = kcenter::mpc_kcenter(&metric, 5, &Params::practical(4, 0.1, 3));
    let big = kcenter::mpc_kcenter(&metric, 10, &Params::practical(8, 0.1, 3));
    let ratio = big.telemetry.max_machine_words as f64 / small.telemetry.max_machine_words as f64;
    assert!(
        ratio < 12.0,
        "4x larger m·k grew per-machine words {ratio:.1}x — beyond Õ(mk) shape"
    );
}

/// A generous absolute budget derived from the theory bound: max words
/// per machine per round stays within C·(m·k + n/m)·polylog.
#[test]
fn per_round_traffic_within_model_budget() {
    let n = 2000;
    let m = 8;
    let k = 8;
    let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 7));
    let mut params = Params::practical(m, 0.1, 7);
    let ln_n = (n as f64).ln();
    // Memory budget Õ(n/m + mk): constant 60 absorbs the dim-2 weights and
    // the practical-constant slack.
    let budget = (60.0 * ((n / m) as f64 + (m * k) as f64) * ln_n) as u64;
    params.budget_words = Some(budget);
    let res = kcenter::mpc_kcenter(&metric, k, &params);
    assert_eq!(
        res.telemetry.violations, 0,
        "per-round traffic exceeded the Õ(n/m + mk) budget {budget}"
    );
}

/// Round counts do not depend on the data distribution (constant-round
/// algorithms): the most skewed workload may only cost a small factor
/// more rounds than the friendliest.
#[test]
fn rounds_stable_across_workloads() {
    let n = 1500;
    let k = 6;
    let params = Params::practical(6, 0.1, 11);
    let mut counts = Vec::new();
    for metric in [
        EuclideanSpace::new(datasets::uniform_cube(n, 2, 11)),
        EuclideanSpace::new(datasets::gaussian_clusters(n, 2, 8, 0.01, 11)),
        EuclideanSpace::new(datasets::adversarial_outlier(n, 8, 100.0, 11)),
    ] {
        counts.push(
            diversity::mpc_diversity(&metric, k, &params)
                .telemetry
                .rounds,
        );
    }
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(
        max <= 4 * min.max(1),
        "rounds vary wildly across workloads: {counts:?}"
    );
}

/// Peak per-machine memory respects the paper's Õ(n/m + mk) bound with a
/// generous polylog constant.
#[test]
fn memory_within_model_bound() {
    let n = 2000;
    let m = 8;
    let k = 8;
    let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 19));
    let params = Params::practical(m, 0.1, 19);
    let res = kcenter::mpc_kcenter(&metric, k, &params);
    let ln_n = (n as f64).ln();
    let bound = (60.0 * ((n / m) as f64 + (m * k) as f64) * ln_n) as u64;
    assert!(
        res.telemetry.max_machine_memory > 0,
        "memory accounting must observe the execution"
    );
    assert!(
        res.telemetry.max_machine_memory <= bound,
        "peak memory {} exceeds Õ(n/m + mk) bound {bound}",
        res.telemetry.max_machine_memory
    );
}

/// Sequential baselines consume zero simulator resources, MPC algorithms
/// always consume some — the ledger actually observes the execution.
#[test]
fn ledger_observes_execution() {
    let metric = EuclideanSpace::new(datasets::uniform_cube(300, 2, 1));
    let params = Params::practical(4, 0.1, 1);
    let res = diversity::mpc_diversity(&metric, 5, &params);
    assert!(res.telemetry.rounds > 0);
    assert!(res.telemetry.total_words > 0);
    assert!(res.telemetry.max_machine_words <= res.telemetry.total_words);
    assert!(res.telemetry.max_machine_words_per_round <= res.telemetry.max_machine_words);
    let seq = diversity::sequential_gmm_diversity(&metric, 5);
    assert_eq!(seq.telemetry.rounds, 0);
    assert_eq!(seq.telemetry.total_words, 0);
}

/// `Telemetry::kernels` is one run's own kernel work, not the space's
/// running total: two back-to-back solves on one space report equal
/// tallies, for every solver that stamps them.
#[test]
fn kernel_tallies_are_per_run() {
    let wide = EuclideanSpace::new(datasets::gaussian_clusters(400, 32, 6, 0.05, 5))
        .with_speed_tier(SpeedTier::Soa);
    let params = Params::practical(4, 0.1, 5);
    let twice = |solve: &dyn Fn() -> Telemetry| [solve().kernels, solve().kernels];

    let [a, b] = twice(&|| kcenter::mpc_kcenter(&wide, 6, &params).telemetry);
    assert!(
        a.unwrap().classified_pairs() > 0,
        "k-center never reached the fast path"
    );
    assert_eq!(a, b, "k-center");
    let [a, b] = twice(&|| diversity::mpc_diversity(&wide, 6, &params).telemetry);
    assert!(
        a.unwrap().classified_pairs() > 0,
        "diversity never reached the fast path"
    );
    assert_eq!(a, b, "diversity");
    let customers: Vec<u32> = (0..400).filter(|i| i % 4 != 0).collect();
    let suppliers: Vec<u32> = (0..400).step_by(4).collect();
    let [a, b] =
        twice(&|| ksupplier::mpc_ksupplier(&wide, &customers, &suppliers, 6, &params).telemetry);
    assert_eq!(a, b, "k-supplier");

    let narrow = EuclideanSpace::new(datasets::uniform_cube(600, 3, 5));
    let [a, b] = twice(&|| grid::mpc_kcenter_grid(&narrow, 6, &params).telemetry);
    assert!(
        a.unwrap().grid_pairs > 0,
        "the grid engine reported no stencil pairs"
    );
    assert_eq!(a, b, "grid engine");
}

/// Runs that stop after the coarse stage still stamp their kernel
/// tallies: diversity with n ≤ k, and k-supplier with every customer on
/// a supplier (coarse radius 0).
#[test]
fn degenerate_runs_keep_their_kernel_tallies() {
    let params = Params::practical(4, 0.1, 3);
    let tiny = EuclideanSpace::new(datasets::uniform_cube(3, 2, 3));
    let div = diversity::mpc_diversity(&tiny, 5, &params);
    assert_eq!(div.subset.len(), 3);
    assert!(div.telemetry.kernels.is_some(), "n <= k diversity");

    // Twelve customers on three locations, one supplier on each.
    let sites = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]];
    let rows: Vec<Vec<f64>> = (0..15).map(|i| sites[i % 3].to_vec()).collect();
    let space = EuclideanSpace::new(PointSet::from_rows(&rows));
    let customers: Vec<u32> = (0..12).collect();
    let suppliers: Vec<u32> = (12..15).collect();
    let sup = ksupplier::mpc_ksupplier(&space, &customers, &suppliers, 3, &params);
    assert_eq!(sup.radius, 0.0);
    assert!(sup.telemetry.kernels.is_some(), "zero-radius k-supplier");
}
