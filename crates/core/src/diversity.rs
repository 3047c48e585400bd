//! Algorithm 2 — `(2+ε)`-approximation MPC k-diversity maximization
//! (Theorem 3), plus the two-round 4-approximation that falls out of its
//! first three lines (§3, side product).
//!
//! The algorithm first computes a 4-approximation `r` of the optimal
//! diversity from per-machine GMM coresets, then walks the geometric
//! threshold ladder `τ_i = r(1+ε)^i`: the largest threshold whose
//! k-bounded MIS still has `k` points is a `(2+ε)`-approximate solution,
//! because the *maximal* independent set one rung higher covers all of `V`
//! with balls that must pin two optimal points together (pigeonhole).

use std::time::Instant;

use mpc_metric::{min_pairwise_distance, MetricSpace, PointId};
use mpc_sim::Cluster;

use crate::common::{gmm_coreset, to_point_ids};
use crate::gmm::gmm;
use crate::kbmis::k_bounded_mis;
use crate::ladder::{BoundaryMode, LadderSearch, RungEval};
use crate::params::Params;
use crate::telemetry::{PhaseTimes, Telemetry};

/// Result of [`mpc_diversity`] / [`four_approx_diversity`].
#[derive(Debug, Clone)]
pub struct DiversityResult {
    /// The selected k points.
    pub subset: Vec<PointId>,
    /// `div(subset)` — the minimum pairwise distance achieved.
    pub diversity: f64,
    /// The coarse estimate `r` of line 3 (a 4-approximation of the
    /// optimum: `r ≤ div_k(V) ≤ 4r`).
    pub coarse_r: f64,
    /// Ladder index of the returned solution (0 = the coarse solution Q).
    pub boundary_index: usize,
    /// Measured rounds/communication.
    pub telemetry: Telemetry,
}

/// Lines 1–3 of Algorithm 2: the candidate `(r, Q)` with the largest
/// diversity among the per-machine coresets and the coreset-union GMM.
///
/// Returns `(r, q)` with `|q| = min(k, n)` and `div(q) = r`; `r` is a
/// 4-approximation of `div_k(V)`.
fn coarse_estimate<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    metric: &M,
    local_sets: &[Vec<u32>],
    k: usize,
) -> (f64, Vec<u32>) {
    let (s, coresets) = gmm_coreset(cluster, metric, local_sets, k);
    // div for each candidate; candidates need exactly min(k, n) points.
    let need = s.len(); // = min(k, |T|) and |T| >= min(k, n)
    let div_of = |set: &[u32]| min_pairwise_distance(metric, &to_point_ids(set));
    let mut best_r = div_of(&s);
    let mut best: &[u32] = &s;
    for t_i in &coresets {
        if t_i.len() == need {
            let r_i = div_of(t_i);
            if r_i > best_r {
                best_r = r_i;
                best = t_i;
            }
        }
    }
    (best_r, best.to_vec())
}

/// The two-round 4-approximation MPC algorithm for k-diversity (§3 side
/// product) — already better than the 6-approximation composable-coreset
/// baseline of Indyk et al.
pub fn four_approx_diversity<M: MetricSpace + ?Sized>(
    metric: &M,
    k: usize,
    params: &Params,
) -> DiversityResult {
    assert!(k >= 2, "diversity needs k >= 2");
    let n = metric.n();
    let mut cluster = new_cluster(params);
    let partition = params.partition.build(n, params.m, params.seed);
    let (r, q) = coarse_estimate(&mut cluster, metric, partition.all_items(), k);
    let subset = to_point_ids(&q);
    let diversity = min_pairwise_distance(metric, &subset);
    DiversityResult {
        subset,
        diversity,
        coarse_r: r,
        boundary_index: 0,
        telemetry: Telemetry::from_ledger(cluster.ledger()),
    }
}

fn new_cluster(params: &Params) -> Cluster {
    match params.budget_words {
        Some(b) => Cluster::with_budget(params.m, params.seed, b),
        None => Cluster::new(params.m, params.seed),
    }
}

/// The diversity ladder for [`LadderSearch`]: rung `i` is the k-bounded
/// MIS of the threshold graph at `τ_i = r(1+ε)^i`, acceptable while it
/// still finds `k` independent points (they then have pairwise distance
/// > τ_i).
struct DiversityRungs<'a, M: MetricSpace + ?Sized> {
    metric: &'a M,
    local_sets: &'a [Vec<u32>],
    r: f64,
    k: usize,
    n: usize,
    params: &'a Params,
}

impl<M: MetricSpace + ?Sized> DiversityRungs<'_, M> {
    fn tau(&self, i: usize) -> f64 {
        self.r * (1.0 + self.params.epsilon).powi(i as i32)
    }
}

impl<M: MetricSpace + ?Sized> RungEval for DiversityRungs<'_, M> {
    type Rung = Vec<u32>;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Vec<u32> {
        k_bounded_mis(
            cluster,
            self.metric,
            self.local_sets,
            self.tau(i),
            self.k,
            self.n,
            self.params,
            false,
        )
        .set
    }

    fn accept(&self, _i: usize, rung: &Vec<u32>) -> bool {
        rung.len() == self.k
    }
}

/// Algorithm 2: the `(2+ε)`-approximation MPC algorithm for k-diversity
/// maximization (Theorem 3). Constant rounds (`O(log 1/ε)` k-bounded-MIS
/// invocations via binary search), `Õ(mk)` communication per machine.
///
/// ```
/// use mpc_core::{diversity::mpc_diversity, Params};
/// use mpc_metric::{datasets, EuclideanSpace};
///
/// let space = EuclideanSpace::new(datasets::uniform_cube(300, 2, 1));
/// let res = mpc_diversity(&space, 6, &Params::practical(4, 0.1, 3));
/// assert_eq!(res.subset.len(), 6);
/// assert!(res.diversity >= res.coarse_r); // never worse than the 4-approx stage
/// ```
pub fn mpc_diversity<M: MetricSpace + ?Sized>(
    metric: &M,
    k: usize,
    params: &Params,
) -> DiversityResult {
    let mut cluster = new_cluster(params);
    mpc_diversity_on(&mut cluster, metric, k, params)
}

/// Like [`mpc_diversity`] but on a caller-provided cluster, keeping the
/// full round-by-round [`mpc_sim::Ledger`] with the caller.
pub fn mpc_diversity_on<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    metric: &M,
    k: usize,
    params: &Params,
) -> DiversityResult {
    assert!(k >= 2, "diversity needs k >= 2");
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
    cluster.ship_shards("setup/shards", &local_sets, metric.point_weight());

    // Lines 1–3: coarse 4-approximation (r, Q).
    let coarse_started = Instant::now();
    let (r, q) = coarse_estimate(cluster, metric, &local_sets, k);
    let coarse_s = coarse_started.elapsed().as_secs_f64();

    // Degenerate inputs: fewer than k distinct-ish points, or all optimal
    // diversity collapsed to ~0 (r = 0 implies div_k(V) <= 4r = 0).
    if q.len() < k || r <= 0.0 || !r.is_finite() {
        let subset = to_point_ids(&q);
        let diversity = min_pairwise_distance(metric, &subset);
        let mut telemetry = Telemetry::from_ledger(cluster.ledger());
        telemetry.phases.coarse_s = coarse_s;
        telemetry.wire = cluster.wire_summary();
        return DiversityResult {
            subset,
            diversity,
            coarse_r: r.max(0.0),
            boundary_index: 0,
            telemetry,
        };
    }

    // Line 4: the threshold ladder τ_i = r (1+ε)^i, i = 0..=t with
    // (1+ε)^t ≥ 4(1+ε) so τ_t > 4r ≥ div_k(V).
    // Lines 5–6: M_0 = Q; find j with |M_j| = k and |M_{j+1}| < k.
    // |M_t| < k is guaranteed: an independent set of k points in G_{τ_t}
    // would have diversity > τ_t > div_k(V), a contradiction — and our MIS
    // routine only reports size k for genuine independent sets.
    // Rungs run straight on the metric's threshold kernels: each rung's
    // MIS draws fresh degree samples (the cluster RNG is keyed by round),
    // so a distance memo would almost never hit (see [`crate::memo`]).
    let ladder_started = Instant::now();
    let t = params.ladder_len(4.0, 1);
    let mut rungs = DiversityRungs {
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
    let set = search.take(boundary).expect("boundary was evaluated");
    debug_assert_eq!(set.len(), k);
    let subset = to_point_ids(&set);
    let diversity = min_pairwise_distance(metric, &subset);
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
    DiversityResult {
        subset,
        diversity,
        coarse_r: r,
        boundary_index: boundary,
        telemetry,
    }
}

/// Sequential GMM on the full input — the optimal-factor (2) sequential
/// reference both experiments compare against.
pub fn sequential_gmm_diversity<M: MetricSpace + ?Sized>(metric: &M, k: usize) -> DiversityResult {
    assert!(k >= 2);
    let all: Vec<u32> = (0..metric.n() as u32).collect();
    let out = gmm(metric, &all, k);
    let subset = to_point_ids(&out.selected);
    let diversity = min_pairwise_distance(metric, &subset);
    DiversityResult {
        subset,
        diversity,
        coarse_r: diversity,
        boundary_index: 0,
        telemetry: Telemetry::zero(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BoundarySearch;
    use mpc_metric::{datasets, EuclideanSpace, PointSet};

    fn unit_square_corners_plus_noise() -> EuclideanSpace {
        // 4 far corners plus a dense blob near the origin: optimal
        // 4-diversity picks the corners.
        let mut rows = vec![
            vec![0.0, 0.0],
            vec![10.0, 0.0],
            vec![0.0, 10.0],
            vec![10.0, 10.0],
        ];
        for i in 0..40 {
            rows.push(vec![4.0 + 0.01 * i as f64, 5.0]);
        }
        EuclideanSpace::new(PointSet::from_rows(&rows))
    }

    #[test]
    fn finds_the_corners() {
        let metric = unit_square_corners_plus_noise();
        let params = Params::practical(4, 0.2, 1);
        let res = mpc_diversity(&metric, 4, &params);
        assert_eq!(res.subset.len(), 4);
        // Optimal diversity is 10 (the corners); the guarantee is
        // 2(1+eps) before rescaling eps.
        assert!(
            res.diversity >= 10.0 / (2.0 * 1.2) - 1e-9,
            "diversity {} below the 2(1+eps) guarantee",
            res.diversity
        );
    }

    #[test]
    fn respects_two_plus_eps_on_random_data() {
        for seed in [1u64, 2, 3] {
            let metric = EuclideanSpace::new(datasets::gaussian_clusters(300, 2, 8, 0.03, seed));
            let k = 6;
            let params = Params::practical(4, 0.1, seed);
            let res = mpc_diversity(&metric, k, &params);
            assert_eq!(res.subset.len(), k);
            // GMM's value lower-bounds the optimum, and our guarantee is
            // opt / (2(1+eps)), so the result must reach at least
            // gmm_div / (2(1+eps)).
            let gmm_div = sequential_gmm_diversity(&metric, k).diversity;
            assert!(
                res.diversity >= gmm_div / (2.0 * (1.0 + params.epsilon)) - 1e-9,
                "seed {seed}: {} vs GMM {}",
                res.diversity,
                gmm_div
            );
        }
    }

    #[test]
    fn coarse_r_is_consistent_lower_bound() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(200, 2, 9));
        let params = Params::practical(4, 0.1, 9);
        let res = mpc_diversity(&metric, 5, &params);
        // div_k >= achieved diversity >= ... and r <= div_k(V) <= 4r; the
        // returned solution must do at least as well as the coarse one.
        assert!(res.diversity >= res.coarse_r - 1e-12);
    }

    #[test]
    fn four_approx_matches_coarse_stage() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(150, 2, 5));
        let params = Params::practical(3, 0.1, 5);
        let four = four_approx_diversity(&metric, 5, &params);
        let full = mpc_diversity(&metric, 5, &params);
        assert_eq!(four.coarse_r, full.coarse_r);
        assert!(
            full.diversity >= four.diversity - 1e-12,
            "ladder can only improve"
        );
        assert!(
            four.telemetry.rounds <= 2,
            "4-approx must be two rounds or fewer"
        );
    }

    #[test]
    fn linear_and_binary_search_agree_on_validity() {
        let metric = EuclideanSpace::new(datasets::annulus(150, 1.0, 2.0, 3));
        let mut params = Params::practical(3, 0.2, 3);
        let a = mpc_diversity(&metric, 5, &params);
        params.boundary_search = BoundarySearch::Linear;
        let b = mpc_diversity(&metric, 5, &params);
        for r in [&a, &b] {
            assert_eq!(r.subset.len(), 5);
            assert!(r.diversity >= r.coarse_r - 1e-12);
        }
    }

    #[test]
    fn n_smaller_than_k_returns_everything() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(3, 2, 1));
        let params = Params::practical(2, 0.1, 1);
        let res = mpc_diversity(&metric, 5, &params);
        assert_eq!(res.subset.len(), 3);
    }

    #[test]
    fn duplicate_points_collapse_gracefully() {
        let metric = EuclideanSpace::new(PointSet::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
        ]));
        let params = Params::practical(2, 0.1, 1);
        let res = mpc_diversity(&metric, 2, &params);
        assert_eq!(res.subset.len(), 2);
        assert_eq!(res.diversity, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(200, 3, 17));
        let params = Params::practical(4, 0.15, 17);
        let a = mpc_diversity(&metric, 7, &params);
        let b = mpc_diversity(&metric, 7, &params);
        assert_eq!(a.subset, b.subset);
        assert_eq!(a.telemetry.rounds, b.telemetry.rounds);
    }
}
