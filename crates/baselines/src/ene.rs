//! Ene, Im & Moseley (KDD 2011): the first constant-round MapReduce
//! k-center, based on iterative sampling.
//!
//! **Simplification note (DESIGN.md §2):** the original algorithm couples
//! its sampling rate to the per-machine memory `k n^δ`; we implement the
//! same sample-and-prune skeleton with a halving schedule — each pass
//! samples surviving points, adds them to the candidate set, and prunes
//! the half of the survivors closest to the candidates. When few enough
//! points survive, they are gathered centrally and GMM picks the final k
//! centers from candidates ∪ survivors. This preserves the algorithm's
//! structure (random candidate pool, distance-based pruning, final
//! sequential selection) and its empirical behaviour: feasible solutions
//! with a constant but noticeably worse factor than GMM-based methods.

use mpc_core::common::{covering_radius, to_point_ids};
use mpc_core::gmm::gmm;
use mpc_core::{Params, Telemetry};
use mpc_metric::{dist_point_to_set, MetricSpace, PointId};
use mpc_sim::Cluster;
use rand::RngExt;

/// Result of [`ene_kcenter`].
#[derive(Debug, Clone)]
pub struct EneResult {
    /// The k centers.
    pub centers: Vec<PointId>,
    /// Realized covering radius.
    pub radius: f64,
    /// Sampling passes used.
    pub passes: u32,
    /// Measured rounds/communication.
    pub telemetry: Telemetry,
}

const SALT_ENE: u64 = 0x33;

/// Runs the iterative-sampling MPC k-center baseline.
pub fn ene_kcenter<M: MetricSpace + ?Sized>(metric: &M, k: usize, params: &Params) -> EneResult {
    assert!(k >= 1);
    let n = metric.n();
    let w = metric.point_weight();
    let mut cluster = Cluster::new(params.m, params.seed);
    let partition = params.partition.build(n, params.m, params.seed);
    let mut survivors: Vec<Vec<u32>> = partition.all_items().to_vec();

    // Stop sampling when the survivors would fit one machine's coreset
    // budget anyway.
    let gather_threshold = (4 * params.m * k).max(64);
    let mut candidates: Vec<u32> = Vec::new();
    let mut passes = 0u32;

    loop {
        let total: u64 = cluster.all_reduce(
            "ene/count",
            survivors.iter().map(|s| s.len() as u64).collect(),
            1,
            |a, b| a + b,
        );
        if (total as usize) <= gather_threshold {
            break;
        }
        passes += 1;
        // Sample each survivor w.p. ~ 2k/total (expected 2k new candidates
        // per pass) and broadcast the sample.
        let rate = ((2 * k) as f64 / total as f64).min(1.0);
        let sampled: Vec<Vec<u32>> = cluster.map(&survivors, |i, si| {
            let mut rng = cluster.rng(i, SALT_ENE);
            si.iter()
                .copied()
                .filter(|_| rng.random_range(0.0..1.0) < rate)
                .collect()
        });
        let new_cands = cluster.all_broadcast("ene/sample", sampled, w);
        candidates.extend(&new_cands);
        let cand_ids = to_point_ids(&candidates);

        // Prune: globally drop the closest half of the survivors. Each
        // machine reports a local median estimate; we use the max of local
        // medians as the pruning distance (coarse but round-cheap).
        let med: Vec<f64> = cluster.map(&survivors, |_, si| {
            let mut d: Vec<f64> = si
                .iter()
                .map(|&v| dist_point_to_set(metric, PointId(v), &cand_ids))
                .collect();
            if d.is_empty() {
                return 0.0;
            }
            let mid = d.len() / 2;
            d.select_nth_unstable_by(mid, f64::total_cmp);
            d[mid]
        });
        let cut = cluster.reduce("ene/median", med, 1, f64::max);
        let cut = cluster.broadcast("ene/cut", vec![cut], 1)[0];
        let next: Vec<Vec<u32>> = cluster.map(&survivors, |_, si| {
            si.iter()
                .copied()
                .filter(|&v| dist_point_to_set(metric, PointId(v), &cand_ids) > cut)
                .collect()
        });
        let next_total: usize = next.iter().map(Vec::len).sum();
        let cur_total: usize = survivors.iter().map(Vec::len).sum();
        survivors = next;
        if next_total >= cur_total {
            break; // cut made no progress (e.g. heavy duplicates): bail out
        }
    }

    // Gather remainder, pick final centers sequentially.
    let rest = cluster.gather("ene/rest", survivors.clone(), w);
    candidates.extend(rest);
    candidates.sort_unstable();
    candidates.dedup();
    let centers_raw = gmm(metric, &candidates, k).selected;
    let all_sets = partition.all_items().to_vec();
    let radius = covering_radius(&mut cluster, metric, &all_sets, &centers_raw);
    EneResult {
        centers: to_point_ids(&centers_raw),
        radius,
        passes,
        telemetry: Telemetry::from_ledger(cluster.ledger()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_metric::{datasets, EuclideanSpace};

    #[test]
    fn produces_feasible_clustering() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(600, 2, 3));
        let params = Params::practical(4, 0.1, 3);
        let res = ene_kcenter(&metric, 5, &params);
        assert!(res.centers.len() <= 5 && !res.centers.is_empty());
        assert!(res.radius.is_finite() && res.radius > 0.0);
    }

    #[test]
    fn radius_is_within_constant_of_gmm() {
        let metric = EuclideanSpace::new(datasets::gaussian_clusters(800, 2, 5, 0.02, 7));
        let params = Params::practical(4, 0.1, 7);
        let res = ene_kcenter(&metric, 5, &params);
        let gmm_ref = mpc_core::kcenter::sequential_gmm_kcenter(&metric, 5);
        assert!(
            res.radius <= 10.0 * gmm_ref.radius + 1e-9,
            "ene {} vs gmm {} — sampling baseline drifted beyond its constant",
            res.radius,
            gmm_ref.radius
        );
    }

    #[test]
    fn small_inputs_skip_sampling() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(30, 2, 1));
        let params = Params::practical(2, 0.1, 1);
        let res = ene_kcenter(&metric, 3, &params);
        assert_eq!(res.passes, 0);
        assert!(res.centers.len() <= 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(500, 2, 11));
        let params = Params::practical(4, 0.1, 11);
        let a = ene_kcenter(&metric, 6, &params);
        let b = ene_kcenter(&metric, 6, &params);
        assert_eq!(a.centers, b.centers);
    }
}
