//! Cluster assignment: turn a set of centers into the full clustering a
//! downstream consumer actually uses, computed distributedly.
//!
//! The paper's algorithms return centers; assigning every point to its
//! nearest center is one more broadcast + local scan (1 MPC round of
//! traffic for the centers, assignments stay machine-local as in any real
//! deployment).

use mpc_metric::{MetricSpace, PointId};
use mpc_sim::Cluster;

use crate::common::{Input, Run};
use crate::params::Params;
use crate::telemetry::Telemetry;

/// A full clustering: per-point nearest centers plus per-cluster stats.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The centers, in the order cluster indices refer to.
    pub centers: Vec<PointId>,
    /// `cluster_of[p]` = index into `centers` of point `p`'s nearest
    /// center.
    pub cluster_of: Vec<u32>,
    /// `distance[p]` = distance of point `p` to its center.
    pub distance: Vec<f64>,
    /// Number of points per cluster.
    pub sizes: Vec<usize>,
    /// Radius (max member distance) per cluster.
    pub radii: Vec<f64>,
    /// Measured rounds/communication of the assignment step.
    pub telemetry: Telemetry,
}

impl Assignment {
    /// The overall covering radius (max over clusters).
    pub fn radius(&self) -> f64 {
        self.radii.iter().copied().fold(0.0, f64::max)
    }
}

/// Assigns every point of `metric` to its nearest center, distributedly:
/// broadcast the centers (1 round), scan locally, reduce the per-cluster
/// stats (1 round).
pub fn assign_to_centers<M: MetricSpace + ?Sized>(
    metric: &M,
    centers: &[PointId],
    params: &Params,
) -> Assignment {
    let mut cluster = Cluster::new(params.m, params.seed);
    assign_to_centers_on(&mut cluster, metric, centers, params)
}

/// Like [`assign_to_centers`] but on a caller-provided cluster.
pub fn assign_to_centers_on<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    metric: &M,
    centers: &[PointId],
    params: &Params,
) -> Assignment {
    assert!(!centers.is_empty(), "need at least one center");
    let (run, [shards]) = Run::start(cluster, metric, params, [Input::Points]);
    let n = metric.n();

    let centers = cluster.broadcast("assign/centers", centers.to_vec(), metric.point_weight());
    // Local assignment: (cluster index, distance) per owned point.
    let local: Vec<Vec<(u32, u32, f64)>> = cluster.map(shards.sets(), |_, vi| {
        vi.iter()
            .map(|&v| {
                let (ci, d) = centers
                    .iter()
                    .enumerate()
                    .map(|(ci, &c)| (ci, metric.dist(PointId(v), c)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .expect("non-empty centers");
                (v, ci as u32, d)
            })
            .collect()
    });

    // Per-cluster stats reduced to the central machine (k counts + k
    // radii per machine).
    let stats: Vec<Vec<(u64, f64)>> = local
        .iter()
        .map(|rows| {
            let mut acc = vec![(0u64, 0.0f64); centers.len()];
            for &(_, ci, d) in rows {
                acc[ci as usize].0 += 1;
                acc[ci as usize].1 = acc[ci as usize].1.max(d);
            }
            acc
        })
        .collect();
    let gathered = cluster.gather("assign/stats", stats, 2);
    let mut sizes = vec![0usize; centers.len()];
    let mut radii = vec![0.0f64; centers.len()];
    for (i, &(cnt, rad)) in gathered.iter().enumerate() {
        let ci = i % centers.len();
        sizes[ci] += cnt as usize;
        radii[ci] = radii[ci].max(rad);
    }

    // Global views for the caller (machine-local in a real deployment;
    // assembling them here costs nothing extra in the model).
    let mut cluster_of = vec![0u32; n];
    let mut distance = vec![0.0f64; n];
    for rows in &local {
        for &(v, ci, d) in rows {
            cluster_of[v as usize] = ci;
            distance[v as usize] = d;
        }
    }

    Assignment {
        centers: centers.to_vec(),
        cluster_of,
        distance,
        sizes,
        radii,
        telemetry: run.finish(cluster, None),
    }
}

/// Convenience: run MPC k-center and return the full assignment.
pub fn kcenter_with_assignment<M: MetricSpace + ?Sized>(
    metric: &M,
    k: usize,
    params: &Params,
) -> (crate::kcenter::KCenterResult, Assignment) {
    let res = crate::kcenter::mpc_kcenter(metric, k, params);
    let assignment = assign_to_centers(metric, &res.centers, params);
    (res, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::to_point_ids;
    use mpc_metric::{datasets, EuclideanSpace, PointSet};

    fn line(xs: &[f64]) -> EuclideanSpace {
        EuclideanSpace::new(PointSet::from_rows(
            &xs.iter().map(|&x| vec![x]).collect::<Vec<_>>(),
        ))
    }

    #[test]
    fn assigns_to_nearest_center() {
        let m = line(&[0.0, 1.0, 9.0, 10.0]);
        let params = Params::practical(2, 0.1, 1);
        let a = assign_to_centers(&m, &to_point_ids(&[0, 3]), &params);
        assert_eq!(a.cluster_of, vec![0, 0, 1, 1]);
        assert_eq!(a.sizes, vec![2, 2]);
        assert_eq!(a.radii, vec![1.0, 1.0]);
        assert_eq!(a.radius(), 1.0);
        assert_eq!(a.distance[1], 1.0);
    }

    #[test]
    fn ties_break_to_lower_cluster_index() {
        let m = line(&[0.0, 5.0, 10.0]);
        let params = Params::practical(2, 0.1, 1);
        let a = assign_to_centers(&m, &to_point_ids(&[0, 2]), &params);
        assert_eq!(a.cluster_of[1], 0, "midpoint ties to the first center");
    }

    #[test]
    fn matches_kcenter_reported_radius() {
        let metric = EuclideanSpace::new(datasets::gaussian_clusters(300, 2, 5, 0.02, 9));
        let params = Params::practical(4, 0.1, 9);
        let (res, a) = kcenter_with_assignment(&metric, 5, &params);
        assert!((a.radius() - res.radius).abs() < 1e-9);
        assert_eq!(a.sizes.iter().sum::<usize>(), 300);
        assert!(a.telemetry.rounds >= 2);
    }

    #[test]
    fn every_cluster_contains_its_center() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(120, 2, 5));
        let params = Params::practical(3, 0.1, 5);
        let (res, a) = kcenter_with_assignment(&metric, 6, &params);
        for (ci, c) in res.centers.iter().enumerate() {
            assert_eq!(
                a.cluster_of[c.idx()],
                ci as u32,
                "center {c} not in its own cluster"
            );
            assert_eq!(a.distance[c.idx()], 0.0);
        }
    }

    #[test]
    fn budget_breaches_are_recorded() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(40, 2, 3));
        let mut params = Params::practical(2, 0.1, 3);
        params.budget_words = Some(1);
        let a = assign_to_centers(&metric, &to_point_ids(&[0, 9]), &params);
        assert!(a.telemetry.violations >= 1);
    }
}
