//! Algorithm 5 — `(2+ε)`-approximation MPC k-center clustering
//! (Theorem 17).
//!
//! A coarse radius `r` with `r/4 ≤ r* ≤ r` comes from a two-level GMM
//! coreset (Lemma 16 bounds its error through `div_{k+1}`). The algorithm
//! then descends the ladder `τ_i = r/(1+ε)^i`, running a **(k+1)-bounded
//! MIS** at each rung: while the MIS stays ≤ k it is maximal, hence a
//! k-center solution of radius `τ_i`; the first rung where k+1 independent
//! points appear certifies `r* ≥ τ_{j+1}/2` by pigeonhole, sandwiching the
//! returned radius within `2(1+ε) r*`.

use std::time::Instant;

use mpc_metric::{MetricSpace, PointId};
use mpc_sim::Cluster;

use crate::common::{covering_radius, gmm_coreset, to_point_ids};
use crate::kbmis::k_bounded_mis;
use crate::ladder::{BoundaryMode, LadderSearch, RungEval};
use crate::params::Params;
use crate::telemetry::{PhaseTimes, Telemetry};

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

fn new_cluster(params: &Params) -> Cluster {
    match params.budget_words {
        Some(b) => Cluster::with_budget(params.m, params.seed, b),
        None => Cluster::new(params.m, params.seed),
    }
}

/// The k-center ladder for [`LadderSearch`]: rung `i` is the (k+1)-bounded
/// MIS of the threshold graph at `τ_i = r/(1+ε)^i`, acceptable while it
/// has ≤ k vertices (it is then maximal, hence a radius-`τ_i` solution).
struct KCenterRungs<'a, M: MetricSpace + ?Sized> {
    metric: &'a M,
    local_sets: &'a [Vec<u32>],
    r: f64,
    k: usize,
    n: usize,
    params: &'a Params,
}

impl<M: MetricSpace + ?Sized> KCenterRungs<'_, M> {
    fn tau(&self, i: usize) -> f64 {
        self.r / (1.0 + self.params.epsilon).powi(i as i32)
    }
}

impl<M: MetricSpace + ?Sized> RungEval for KCenterRungs<'_, M> {
    type Rung = Vec<u32>;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Vec<u32> {
        k_bounded_mis(
            cluster,
            self.metric,
            self.local_sets,
            self.tau(i),
            self.k + 1,
            self.n,
            self.params,
            false,
        )
        .set
    }

    fn accept(&self, _i: usize, rung: &Vec<u32>) -> bool {
        rung.len() <= self.k
    }
}

/// Algorithm 5: the `(2+ε)`-approximation MPC algorithm for k-center in
/// any metric space (Theorem 17). `O(log 1/ε)` k-bounded-MIS invocations,
/// `Õ(mk)` communication per machine.
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
    let mut cluster = new_cluster(params);
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
    params.validate();
    assert_eq!(cluster.m(), params.m, "cluster size must match params.m");
    let n = metric.n();
    let partition = params.partition.build(n, params.m, params.seed);
    let local_sets = partition.all_items().to_vec();
    let input_words: Vec<u64> = local_sets
        .iter()
        .map(|s| s.len() as u64 * metric.point_weight())
        .collect();
    cluster.note_memory_all(&input_words);
    // Setup plane: distribute the per-machine shards through the transport
    // (resident on workers under the process backend). Never touches the
    // ledger, so round/word counts stay identical across backends.
    cluster.ship_shards("setup/shards", &local_sets, metric.point_weight());

    // Lines 1–2: Q = GMM(∪ GMM(V_i)).
    let coarse_started = Instant::now();
    let (q, _) = gmm_coreset(cluster, &metric, &local_sets, k);

    // Line 3: r = r(V, Q), a 4-approximation of the optimal radius.
    let r = covering_radius(cluster, metric, &local_sets, &q);
    let coarse_s = coarse_started.elapsed().as_secs_f64();

    // Degenerate inputs: the coreset already covers everything exactly
    // (duplicates / n ≤ k), so the optimum is 0 and Q is optimal.
    if q.len() < k || r <= 0.0 {
        let mut telemetry = Telemetry::from_ledger(cluster.ledger());
        telemetry.phases.coarse_s = coarse_s;
        telemetry.kernels = metric.kernel_stats();
        telemetry.wire = cluster.wire_summary();
        return KCenterResult {
            centers: to_point_ids(&q),
            radius: r.max(0.0),
            coarse_r: r.max(0.0),
            boundary_index: 0,
            telemetry,
        };
    }

    // Line 4: descending ladder τ_i = r/(1+ε)^i with τ_t < r/4 ≤ r*.
    // Lines 5–6: M_0 = Q; find j with |M_j| ≤ k and |M_{j+1}| = k + 1.
    // |M_t| = k+1 is guaranteed: a maximal IS of size ≤ k in G_{τ_t} would
    // be a k-center solution of radius τ_t < r* — impossible — and our MIS
    // routine's sub-(k+1) outputs are genuinely maximal.
    // Rungs run straight on the metric's threshold kernels: each rung's
    // MIS draws fresh degree samples (the cluster RNG is keyed by round),
    // so a distance memo would almost never hit (see [`crate::memo`]).
    let ladder_started = Instant::now();
    let t = params.ladder_len(4.0, 1);
    let mut rungs = KCenterRungs {
        metric,
        local_sets: &local_sets,
        r,
        k,
        n,
        params,
    };
    let mut search = LadderSearch::new(t);
    search.seed(0, q.clone());
    let boundary = search.search(
        cluster,
        &mut rungs,
        BoundaryMode::LastAccept,
        params.boundary_search,
    );
    let ladder_s = ladder_started.elapsed().as_secs_f64();

    let finalize_started = Instant::now();
    let centers_raw = search.take(boundary).expect("boundary was evaluated");
    debug_assert!(centers_raw.len() <= k);
    // Line 3 analog for the final answer: realized radius (2 rounds).
    let radius = covering_radius(cluster, metric, &local_sets, &centers_raw);
    let mut telemetry = Telemetry::from_ledger(cluster.ledger());
    telemetry.phases = PhaseTimes {
        coarse_s,
        ladder_s,
        finalize_s: finalize_started.elapsed().as_secs_f64(),
    };
    telemetry.ladder_evals = search.evals() as u64;
    telemetry.ladder_probes = search.probes() as u64;
    telemetry.kernels = metric.kernel_stats();
    telemetry.wire = cluster.wire_summary();
    KCenterResult {
        centers: to_point_ids(&centers_raw),
        radius,
        coarse_r: r,
        boundary_index: boundary,
        telemetry,
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
        let mut comb = vec![0usize; k];
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
        let _ = &mut comb;
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
