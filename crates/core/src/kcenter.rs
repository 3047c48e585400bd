//! Algorithm 5 — `(2+ε)`-approximation MPC k-center clustering
//! (Theorem 17).
//!
//! A coarse radius `r` with `r/4 ≤ r* ≤ r` comes from a two-level GMM
//! coreset (Lemma 16 bounds its error through `div_{k+1}`). The algorithm
//! then descends the ladder `τ_i = r/(1+ε)^i`, running a **(k+1)-bounded
//! MIS** at each rung: while the MIS stays ≤ k it is maximal, hence a
//! k-center solution of radius `τ_i`; the first rung where k+1 independent
//! points appear certifies `r* ≥ τ_{j+1}/2` by pigeonhole, sandwiching the
//! returned radius within `2(1+ε) r*`. One driver serves both engines:
//! an engine supplies only its rung kernel (`KCenterSteps`).

use mpc_metric::{KernelStats, MetricSpace, PointId};
use mpc_sim::Cluster;

use crate::common::{to_point_ids, Input, Run, Shards};
use crate::kbmis::k_bounded_mis;
use crate::ladder::{mis_ladder, Objective};
use crate::params::Params;
use crate::telemetry::Telemetry;

/// Result of [`mpc_kcenter`].
#[derive(Debug, Clone)]
pub struct KCenterResult {
    /// The selected centers (≤ k).
    pub centers: Vec<PointId>,
    /// `r(V, centers)` — the realized covering radius.
    pub radius: f64,
    /// The coarse estimate of line 3 (`r/4 ≤ r* ≤ r`).
    pub coarse_r: f64,
    /// Ladder index of the returned solution (0 = the coarse solution Q).
    pub boundary_index: usize,
    /// Measured rounds/communication.
    pub telemetry: Telemetry,
}

/// The rung kernel of one Algorithm 5 engine. [`kcenter_with`] runs the
/// algorithm around it: the collectives' order, the coarse and finalize
/// steps on the machines' [`Shards`], the ladder and the telemetry are the
/// same for every engine. A closure is the all-pairs engine's kernel.
pub(crate) trait KCenterSteps {
    /// One rung: a (≤ `bound`)-bounded MIS of `G_τ`.
    fn mis(&mut self, cluster: &mut Cluster, tau: f64, bound: usize) -> Vec<u32>;
    /// Tallies the engine keeps beside the metric's own kernel counters.
    fn tallies(&self) -> Option<&KernelStats> {
        None
    }
}

impl<F: FnMut(&mut Cluster, f64, usize) -> Vec<u32>> KCenterSteps for F {
    fn mis(&mut self, cluster: &mut Cluster, tau: f64, bound: usize) -> Vec<u32> {
        self(cluster, tau, bound)
    }
}

/// Algorithm 5: the `(2+ε)`-approximation MPC algorithm for k-center in
/// any metric space (Theorem 17). `O(log 1/ε)` k-bounded-MIS invocations,
/// `Õ(mk)` communication per machine. A point at distance ∞ (or NaN) from
/// every center set, such as a NaN or ±∞ row, makes the coarse radius ∞:
/// the result is then the coreset with `radius` and `coarse_r` both ∞.
///
/// ```
/// use mpc_core::{kcenter::mpc_kcenter, Params};
/// use mpc_metric::{datasets, EuclideanSpace};
///
/// let space = EuclideanSpace::new(datasets::gaussian_clusters(500, 2, 5, 0.01, 42));
/// let res = mpc_kcenter(&space, 5, &Params::practical(4, 0.1, 7));
/// assert!(res.centers.len() <= 5);
/// assert!(res.radius <= res.coarse_r); // the ladder refines the coarse stage
/// assert!(res.telemetry.rounds > 0);   // and the simulator measured it
/// ```
pub fn mpc_kcenter<M: MetricSpace + ?Sized>(
    metric: &M,
    k: usize,
    params: &Params,
) -> KCenterResult {
    let mut cluster = Cluster::new(params.m, params.seed);
    mpc_kcenter_on(&mut cluster, metric, k, params)
}

/// Like [`mpc_kcenter`] but running on a caller-provided cluster, so the
/// caller keeps the full round-by-round [`mpc_sim::Ledger`] (used by the
/// cost-projection experiment and by pipelines composing several
/// algorithms on one cluster).
pub fn mpc_kcenter_on<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    metric: &M,
    k: usize,
    params: &Params,
) -> KCenterResult {
    assert!(k >= 1, "k must be positive");
    let (run, [shards]) = Run::start(cluster, metric, params, [Input::Points]);
    let n = metric.n();
    let mis = |c: &mut Cluster, tau, bound| {
        k_bounded_mis(c, metric, shards.sets(), tau, bound, n, params, false).set
    };
    kcenter_with(cluster, run, &shards, k, params, mis)
}

/// Algorithm 5 after the run prologue, on the machines' `shards` and any
/// engine's rung kernel.
pub(crate) fn kcenter_with<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    mut run: Run<'_, M>,
    shards: &Shards<'_, M>,
    k: usize,
    params: &Params,
    mut engine: impl KCenterSteps,
) -> KCenterResult {
    // Lines 1–2: Q = GMM(∪ GMM(V_i)).
    let (q, _) = shards.coreset(cluster, k);
    // Line 3: r = r(V, Q), a 4-approximation of the optimal radius.
    let r = shards.covering_radius(cluster, &q);
    run.coarse_done();

    // Degenerate inputs: the coreset already covers everything exactly
    // (duplicates / n ≤ k), so the optimum is 0 and Q is optimal; or a NaN
    // or ±∞ row is at distance ∞ from every center set, so r = ∞ leaves
    // no finite ladder and Q, at radius ∞, is as good as any answer.
    let (centers, radius, coarse_r, boundary) = if q.len() < k || r <= 0.0 || !r.is_finite() {
        (q, r.max(0.0), r.max(0.0), 0)
    } else {
        // Line 4: descending ladder τ_i = r/(1+ε)^i with τ_t < r/4 ≤ r*.
        // Lines 5–6: M_0 = Q; find j with |M_j| ≤ k and |M_{j+1}| = k + 1.
        // |M_t| = k+1 is guaranteed: a maximal IS of size ≤ k in G_{τ_t}
        // would be a k-center solution of radius τ_t < r* — impossible —
        // and both engines' sub-(k+1) outputs are genuinely maximal.
        let ladder = mis_ladder(cluster, params, Objective::KCenter, q, r, k, |c, tau, b| {
            engine.mis(c, tau, b)
        });
        run.ladder_done(ladder.evals, ladder.probes);
        // Line 3 analog for the final answer: realized radius (2 rounds).
        let radius = shards.covering_radius(cluster, &ladder.set);
        (ladder.set, radius, r, ladder.index)
    };
    KCenterResult {
        centers: to_point_ids(&centers),
        radius,
        coarse_r,
        boundary_index: boundary,
        telemetry: run.finish(cluster, engine.tallies()),
    }
}

/// Sequential GMM k-center (Gonzalez 2-approximation) on the full input —
/// the sequential reference.
pub fn sequential_gmm_kcenter<M: MetricSpace + ?Sized>(metric: &M, k: usize) -> KCenterResult {
    assert!(k >= 1);
    let all: Vec<u32> = (0..metric.n() as u32).collect();
    let out = crate::gmm::gmm(metric, &all, k);
    let radius = out.covering_radius();
    KCenterResult {
        centers: to_point_ids(&out.selected),
        radius,
        coarse_r: radius,
        boundary_index: 0,
        telemetry: Telemetry::zero(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BoundarySearch;
    use mpc_metric::{datasets, dist_point_to_set, EuclideanSpace, PointSet};

    fn realized_radius<M: MetricSpace>(metric: &M, centers: &[PointId]) -> f64 {
        (0..metric.n() as u32)
            .map(|v| dist_point_to_set(metric, PointId(v), centers))
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn clustered_data_recovers_cluster_scale() {
        // 5 tight clusters: optimal 5-center radius ~ sigma scale, far less
        // than the inter-cluster distance.
        let metric = EuclideanSpace::new(datasets::gaussian_clusters(400, 2, 5, 0.01, 3));
        let params = Params::practical(4, 0.1, 3);
        let res = mpc_kcenter(&metric, 5, &params);
        assert!(res.centers.len() <= 5);
        assert!(!res.centers.is_empty());
        let seq = sequential_gmm_kcenter(&metric, 5);
        // seq.radius <= 2 r*; our guarantee is 2(1+eps) r*, so at most
        // 2(1+eps) * seq.radius — loose sanity bound.
        assert!(
            res.radius <= 2.0 * (1.0 + params.epsilon) * seq.radius + 1e-9,
            "radius {} vs sequential {}",
            res.radius,
            seq.radius
        );
    }

    #[test]
    fn reported_radius_matches_realized_radius() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(250, 2, 7));
        let params = Params::practical(5, 0.1, 7);
        let res = mpc_kcenter(&metric, 8, &params);
        let true_r = realized_radius(&metric, &res.centers);
        assert!((res.radius - true_r).abs() < 1e-9);
    }

    #[test]
    fn guarantee_against_optimal_on_grid() {
        // 4x4 unit grid, k = 4: optimal radius is 1/sqrt(2)·... known small
        // case — compute optimum by brute force over all center subsets.
        let metric = EuclideanSpace::new(datasets::grid(4));
        let n = 16u32;
        let k = 4;
        let mut opt = f64::INFINITY;
        // All C(16,4) subsets: 1820, cheap.
        let ids: Vec<u32> = (0..n).collect();
        fn rec(
            ids: &[u32],
            metric: &EuclideanSpace,
            chosen: &mut Vec<PointId>,
            start: usize,
            k: usize,
            opt: &mut f64,
        ) {
            if chosen.len() == k {
                let r = (0..metric.n() as u32)
                    .map(|v| dist_point_to_set(metric, PointId(v), chosen))
                    .fold(0.0f64, f64::max);
                if r < *opt {
                    *opt = r;
                }
                return;
            }
            for i in start..ids.len() {
                chosen.push(PointId(ids[i]));
                rec(ids, metric, chosen, i + 1, k, opt);
                chosen.pop();
            }
        }
        rec(&ids, &metric, &mut Vec::new(), 0, k, &mut opt);

        let params = Params::practical(4, 0.1, 11);
        let res = mpc_kcenter(&metric, k, &params);
        assert!(
            res.radius <= 2.0 * (1.0 + params.epsilon) * opt + 1e-9,
            "radius {} vs optimal {opt}",
            res.radius
        );
    }

    #[test]
    fn coarse_r_sandwiches_the_result() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(300, 2, 13));
        let params = Params::practical(4, 0.1, 13);
        let res = mpc_kcenter(&metric, 6, &params);
        // The final radius can only improve on (or match) the coarse one,
        // and never collapses below the r/4 lower bound of the optimum /
        // the (2+eps) guarantee: radius >= r*/1 >= r/4 / ... — just check
        // the improvement direction and positivity.
        assert!(res.radius <= res.coarse_r + 1e-12);
        assert!(res.radius > 0.0);
    }

    #[test]
    fn k_one_returns_single_center() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(50, 2, 1));
        let params = Params::practical(2, 0.1, 1);
        let res = mpc_kcenter(&metric, 1, &params);
        assert_eq!(res.centers.len(), 1);
        let seq = sequential_gmm_kcenter(&metric, 1);
        assert!(res.radius <= 2.0 * (1.0 + params.epsilon) * seq.radius + 1e-9);
    }

    #[test]
    fn n_at_most_k_gives_zero_radius() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(4, 2, 1));
        let params = Params::practical(2, 0.1, 1);
        let res = mpc_kcenter(&metric, 10, &params);
        assert_eq!(res.centers.len(), 4);
        assert_eq!(res.radius, 0.0);
    }

    #[test]
    fn duplicates_collapse_to_zero_radius() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 2) as f64, 0.0]).collect();
        let metric = EuclideanSpace::new(PointSet::from_rows(&rows));
        let params = Params::practical(2, 0.1, 1);
        let res = mpc_kcenter(&metric, 2, &params);
        assert!(res.radius <= 1e-12, "two distinct locations, two centers");
    }

    #[test]
    fn linear_scan_matches_binary_validity() {
        let metric = EuclideanSpace::new(datasets::annulus(200, 1.0, 3.0, 5));
        let mut params = Params::practical(4, 0.15, 5);
        let bin = mpc_kcenter(&metric, 6, &params);
        params.boundary_search = BoundarySearch::Linear;
        let lin = mpc_kcenter(&metric, 6, &params);
        for r in [&bin, &lin] {
            assert!(r.centers.len() <= 6);
            assert!(r.radius <= r.coarse_r + 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(200, 3, 23));
        let params = Params::practical(4, 0.1, 23);
        let a = mpc_kcenter(&metric, 7, &params);
        let b = mpc_kcenter(&metric, 7, &params);
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.telemetry.rounds, b.telemetry.rounds);
    }
}
