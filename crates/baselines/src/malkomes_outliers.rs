//! Malkomes et al. (NeurIPS 2015), second contribution: distributed
//! k-center **with z outliers** (13-approximation) — the noise-robust MPC
//! baseline the paper's related-work section cites.
//!
//! Two rounds: every machine runs GMM to select `k + z + 1` local
//! representatives with multiplicities (each input point is counted at its
//! nearest representative); the central machine runs the Charikar et al.
//! greedy-disk algorithm on the weighted union.

use mpc_core::common::to_point_ids;
use mpc_core::gmm::gmm;
use mpc_core::{Params, Telemetry};
use mpc_metric::{dist_point_to_set, MetricSpace, PointId};
use mpc_sim::Cluster;

/// Result of [`malkomes_outliers_kcenter`].
#[derive(Debug, Clone)]
pub struct OutlierMpcResult {
    /// The k centers.
    pub centers: Vec<PointId>,
    /// Radius covering all but at most z points.
    pub radius: f64,
    /// Points left uncovered (≤ z after the final assignment).
    pub outliers: Vec<PointId>,
    /// Measured rounds/communication.
    pub telemetry: Telemetry,
}

/// Runs the two-round 13-approximation MPC k-center with z outliers.
pub fn malkomes_outliers_kcenter<M: MetricSpace + ?Sized>(
    metric: &M,
    k: usize,
    z: usize,
    params: &Params,
) -> OutlierMpcResult {
    assert!(k >= 1);
    let n = metric.n();
    let w = metric.point_weight();
    let mut cluster = Cluster::new(params.m, params.seed);
    let partition = params.partition.build(n, params.m, params.seed);
    let local_sets = partition.all_items().to_vec();

    // Round 1: per-machine coresets of size k + z + 1, with weights =
    // how many local points each representative absorbs.
    let coresets: Vec<Vec<(u32, u64)>> = cluster.map(&local_sets, |_, vi| {
        let reps = gmm(metric, vi, k + z + 1).selected;
        if reps.is_empty() {
            return Vec::new();
        }
        let rep_ids = to_point_ids(&reps);
        let mut weights = vec![0u64; reps.len()];
        for &v in vi.iter() {
            let nearest = rep_ids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    metric
                        .dist(PointId(v), **a)
                        .total_cmp(&metric.dist(PointId(v), **b))
                })
                .expect("non-empty reps")
                .0;
            weights[nearest] += 1;
        }
        reps.into_iter().zip(weights).collect()
    });
    // Gather the weighted coresets (each item: point + weight word).
    let pool = cluster.gather("malk-out/coreset", coresets, w + 1);

    // Round 2 (central, local compute): weighted Charikar greedy disks.
    let ids: Vec<u32> = pool.iter().map(|&(v, _)| v).collect();
    let weights: Vec<u64> = pool.iter().map(|&(_, wt)| wt).collect();
    let centers_raw = weighted_charikar(metric, &ids, &weights, k, z as u64);

    // Final assignment: the radius covering all but <= z actual points,
    // computed distributedly for reporting (broadcast + local + reduce).
    let centers_raw = cluster.broadcast("malk-out/centers", centers_raw, w);
    let center_ids = to_point_ids(&centers_raw);
    let mut dists: Vec<f64> = (0..n as u32)
        .map(|v| dist_point_to_set(metric, PointId(v), &center_ids))
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| dists[a].total_cmp(&dists[b]));
    let outliers: Vec<PointId> = order[n.saturating_sub(z)..]
        .iter()
        .map(|&i| PointId(i as u32))
        .collect();
    dists.sort_unstable_by(f64::total_cmp);
    let radius = if z < n { dists[n - 1 - z] } else { 0.0 };
    let radius = cluster.broadcast("malk-out/radius", vec![radius], 1)[0];

    OutlierMpcResult {
        centers: center_ids,
        radius,
        outliers,
        telemetry: Telemetry::from_ledger(cluster.ledger()),
    }
}

/// Weighted variant of the Charikar greedy-disk feasibility check, run on
/// the candidate radii of the pool.
fn weighted_charikar<M: MetricSpace + ?Sized>(
    metric: &M,
    ids: &[u32],
    weights: &[u64],
    k: usize,
    z: u64,
) -> Vec<u32> {
    let total: u64 = weights.iter().sum();
    let mut cands = vec![0.0f64];
    for (a, &i) in ids.iter().enumerate() {
        for &j in &ids[a + 1..] {
            cands.push(metric.dist(PointId(i), PointId(j)));
        }
    }
    cands.sort_unstable_by(f64::total_cmp);
    cands.dedup();

    let attempt = |r: f64| -> Option<Vec<u32>> {
        let mut covered = vec![false; ids.len()];
        let mut centers = Vec::with_capacity(k);
        for _ in 0..k.min(ids.len()) {
            let mut best = (usize::MAX, 0u64);
            for (c, &cid) in ids.iter().enumerate() {
                let gain: u64 = ids
                    .iter()
                    .enumerate()
                    .filter(|&(u, &uid)| {
                        !covered[u] && metric.dist(PointId(uid), PointId(cid)) <= r
                    })
                    .map(|(u, _)| weights[u])
                    .sum();
                if best.0 == usize::MAX || gain > best.1 {
                    best = (c, gain);
                }
            }
            let c = best.0;
            centers.push(ids[c]);
            for (u, &uid) in ids.iter().enumerate() {
                if metric.dist(PointId(uid), PointId(ids[c])) <= 3.0 * r {
                    covered[u] = true;
                }
            }
        }
        let missed: u64 = ids
            .iter()
            .enumerate()
            .filter(|&(u, _)| !covered[u])
            .map(|(u, _)| weights[u])
            .sum();
        (missed <= z || total == 0).then_some(centers)
    };

    let mut lo = 0usize;
    let mut hi = cands.len() - 1;
    if let Some(c) = attempt(cands[lo]) {
        return c;
    }
    debug_assert!(attempt(cands[hi]).is_some());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if attempt(cands[mid]).is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    attempt(cands[hi]).expect("hi feasible by invariant")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_metric::{datasets, EuclideanSpace, PointSet};

    fn noisy_clusters(seed: u64) -> EuclideanSpace {
        // Two tight clusters plus 3 junk points far away.
        let base = datasets::gaussian_clusters(60, 2, 2, 0.01, seed);
        let mut rows: Vec<Vec<f64>> = (0..60)
            .map(|i| base.coords(PointId(i as u32)).to_vec())
            .collect();
        rows.push(vec![50.0, 50.0]);
        rows.push(vec![-60.0, 10.0]);
        rows.push(vec![10.0, -70.0]);
        EuclideanSpace::new(PointSet::from_rows(&rows))
    }

    #[test]
    fn outlier_budget_absorbs_noise() {
        let metric = noisy_clusters(5);
        let params = Params::practical(3, 0.1, 5);
        let with = malkomes_outliers_kcenter(&metric, 2, 3, &params);
        let without = malkomes_outliers_kcenter(&metric, 2, 0, &params);
        assert!(with.outliers.len() <= 3);
        assert!(
            with.radius < without.radius / 5.0,
            "z=3 must collapse the radius: {} vs {}",
            with.radius,
            without.radius
        );
    }

    #[test]
    fn covers_all_but_z_points() {
        let metric = noisy_clusters(7);
        let params = Params::practical(3, 0.1, 7);
        let res = malkomes_outliers_kcenter(&metric, 2, 3, &params);
        let covered = (0..metric.n() as u32)
            .filter(|&v| dist_point_to_set(&metric, PointId(v), &res.centers) <= res.radius + 1e-9)
            .count();
        assert!(covered >= metric.n() - 3);
        assert!(res.centers.len() <= 2);
    }

    #[test]
    fn two_rounds_plus_reporting() {
        let metric = noisy_clusters(9);
        let params = Params::practical(3, 0.1, 9);
        let res = malkomes_outliers_kcenter(&metric, 2, 3, &params);
        // 1 gather + 2 reporting broadcasts.
        assert!(res.telemetry.rounds <= 3);
    }

    #[test]
    fn zero_outliers_reduces_to_plain_band() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(40, 2, 3));
        let params = Params::practical(2, 0.1, 3);
        let res = malkomes_outliers_kcenter(&metric, 3, 0, &params);
        let (opt, _) = crate::exact::exact_kcenter(&metric, 3);
        assert!(res.radius >= opt - 1e-9);
        assert!(res.radius <= 13.0 * opt + 1e-9, "13-approx band");
    }
}
