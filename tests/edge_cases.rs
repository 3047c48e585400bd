//! Edge-case integration tests: degenerate cluster shapes, discrete
//! metrics with massive tie-breaking pressure, budget accounting, and
//! extreme parameter values.

use mpc_clustering::core::{diversity, kcenter, ksupplier, verify, Params};
use mpc_clustering::metric::{datasets, EuclideanSpace, HammingSpace, PointSet};
use mpc_clustering::sim::{Cluster, TransportKind};

/// More machines than points: most machines hold nothing; everything must
/// still work (empty coresets, empty samples, empty light lists).
#[test]
fn more_machines_than_points() {
    let metric = EuclideanSpace::new(datasets::uniform_cube(6, 2, 1));
    let params = Params::practical(16, 0.1, 1);
    let kc = kcenter::mpc_kcenter(&metric, 2, &params);
    assert_eq!(verify::check_kcenter(&metric, 2, &kc), Ok(()));
    let dv = diversity::mpc_diversity(&metric, 3, &params);
    assert_eq!(verify::check_diversity(&metric, 3, &dv), Ok(()));
}

/// Discrete Hamming distances generate heavy ties in GMM selection, the
/// trim weights, and the threshold ladder; outputs must stay valid.
#[test]
fn hamming_ties_everywhere() {
    // 64 points over 8 bits: only 9 distinct distances exist.
    let bits = datasets::random_bitsets(64, 8, 0.5, 3);
    let metric = HammingSpace::from_set_bits(64, 8, &bits);
    let params = Params::practical(4, 0.5, 3);
    let kc = kcenter::mpc_kcenter(&metric, 4, &params);
    assert_eq!(verify::check_kcenter(&metric, 4, &kc), Ok(()));
    let dv = diversity::mpc_diversity(&metric, 4, &params);
    assert_eq!(verify::check_diversity(&metric, 4, &dv), Ok(()));
}

/// An unreasonably tight communication budget must surface as recorded
/// violations, never as a crash or a wrong answer — also when the run
/// goes through an `_on` driver on a caller-built loopback cluster.
#[test]
fn tiny_budget_records_violations() {
    let metric = EuclideanSpace::new(datasets::uniform_cube(300, 2, 5));
    let mut params = Params::practical(4, 0.1, 5);
    params.budget_words = Some(10);
    let mut cluster = Cluster::with_transport(params.m, params.seed, TransportKind::Loopback);
    for kc in [
        kcenter::mpc_kcenter(&metric, 5, &params),
        kcenter::mpc_kcenter_on(&mut cluster, &metric, 5, &params),
    ] {
        assert_eq!(verify::check_kcenter(&metric, 5, &kc), Ok(()));
        assert!(
            kc.telemetry.violations > 0,
            "a 10-word budget cannot possibly hold"
        );
    }
}

/// A huge epsilon collapses the ladder to a couple of rungs; the
/// guarantee degrades gracefully (factor 2(1+2) = 6) but validity holds.
#[test]
fn huge_epsilon_short_ladder() {
    let metric = EuclideanSpace::new(datasets::gaussian_clusters(200, 2, 5, 0.02, 7));
    let params = Params::practical(4, 2.0, 7);
    let kc = kcenter::mpc_kcenter(&metric, 5, &params);
    assert_eq!(verify::check_kcenter(&metric, 5, &kc), Ok(()));
    let seq = kcenter::sequential_gmm_kcenter(&metric, 5);
    assert!(kc.radius <= 2.0 * (1.0 + 2.0) * seq.radius + 1e-9);
}

/// Exactly k suppliers: the choice is forced, and the radius equals the
/// best possible for that supplier set.
#[test]
fn ksupplier_with_exactly_k_suppliers() {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for i in 0..30 {
        rows.push(vec![i as f64 * 0.1, 0.0]); // customers on a segment
    }
    rows.push(vec![0.0, 1.0]); // 3 suppliers
    rows.push(vec![1.5, 1.0]);
    rows.push(vec![2.9, 1.0]);
    let metric = EuclideanSpace::new(PointSet::from_rows(&rows));
    let customers: Vec<u32> = (0..30).collect();
    let suppliers: Vec<u32> = vec![30, 31, 32];
    let params = Params::practical(2, 0.1, 9);
    let res = ksupplier::mpc_ksupplier(&metric, &customers, &suppliers, 3, &params);
    assert_eq!(
        verify::check_ksupplier(&metric, &customers, &suppliers, 3, &res),
        Ok(())
    );
    // With all 3 suppliers available the optimal radius is the worst
    // customer-to-nearest-supplier distance.
    let opt: f64 = customers
        .iter()
        .map(|&c| {
            suppliers
                .iter()
                .map(|&s| metric_dist(&metric, c, s))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0, f64::max);
    assert!(res.radius <= 3.0 * (1.0 + 0.1) * opt + 1e-9);
}

fn metric_dist(metric: &EuclideanSpace, a: u32, b: u32) -> f64 {
    use mpc_clustering::metric::{MetricSpace, PointId};
    metric.dist(PointId(a), PointId(b))
}

/// Collinear inputs (a pathological geometry for ball-covering
/// arguments) across all three algorithms.
#[test]
fn collinear_points_are_fine() {
    let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 0.0]).collect();
    let metric = EuclideanSpace::new(PointSet::from_rows(&rows));
    let params = Params::practical(4, 0.1, 11);
    let kc = kcenter::mpc_kcenter(&metric, 4, &params);
    assert_eq!(verify::check_kcenter(&metric, 4, &kc), Ok(()));
    // Optimal radius for 4 centers on a 0..99 segment is 99/8 = 12.375.
    assert!(kc.radius <= 2.0 * 1.1 * 12.375 + 1e-9);
    let dv = diversity::mpc_diversity(&metric, 4, &params);
    assert_eq!(verify::check_diversity(&metric, 4, &dv), Ok(()));
    // Optimal 4-diversity on the segment is 33 (0, 33, 66, 99).
    assert!(dv.diversity >= 33.0 / (2.0 * 1.1) - 1e-9);
}

/// One single machine (m = 1): the "distributed" algorithm degenerates to
/// a sequential one but must still satisfy its guarantee.
#[test]
fn single_machine_degeneration() {
    let metric = EuclideanSpace::new(datasets::uniform_cube(150, 2, 13));
    let params = Params::practical(1, 0.1, 13);
    let kc = kcenter::mpc_kcenter(&metric, 5, &params);
    assert_eq!(verify::check_kcenter(&metric, 5, &kc), Ok(()));
    let dv = diversity::mpc_diversity(&metric, 5, &params);
    assert_eq!(verify::check_diversity(&metric, 5, &dv), Ok(()));
}
