//! Algorithm 6 — `(3+ε)`-approximation MPC k-supplier (Theorem 18).
//!
//! In k-supplier the centers must come from a separate supplier set `S`
//! while the objective covers the customer set `C`; the approximability
//! lower bound rises from 2 to 3 (Hochbaum–Shmoys). The algorithm:
//!
//! 1. coarse estimate `r = r(C, Q) + r(Q, S)` with `r/9 ≤ r* ≤ r` from the
//!    k-center coreset `Q` of the customers;
//! 2. ascend the ladder `τ_i = (r/9)(1+ε)^i`, at each rung computing a
//!    (k+1)-bounded MIS `M_i` of the customer threshold graph `G_{2τ_i}`;
//! 3. the smallest rung `j` where `|M_j| ≤ k` **and** every point of `M_j`
//!    has a supplier within `τ_j` yields a solution of radius `3 τ_j ≤
//!    3(1+ε) r*` — each customer reaches an `M_j` point within `2τ_j` and
//!    that point's supplier within another `τ_j`.

use mpc_metric::{MetricSpace, PointId};
use mpc_sim::Cluster;

use crate::common::{to_point_ids, Input, Run, Shards};
use crate::kbmis::k_bounded_mis;
use crate::ladder::{BoundaryMode, LadderSearch, RungEval};
use crate::params::Params;
use crate::telemetry::Telemetry;

/// Result of [`mpc_ksupplier`].
#[derive(Debug, Clone)]
pub struct KSupplierResult {
    /// The selected suppliers (≤ k, deduplicated).
    pub suppliers: Vec<PointId>,
    /// `r(C, suppliers)` — the realized covering radius of the customers.
    pub radius: f64,
    /// The coarse estimate of line 3 (`r/9 ≤ r* ≤ r`).
    pub coarse_r: f64,
    /// Ladder index of the accepted rung.
    pub boundary_index: usize,
    /// Measured rounds/communication.
    pub telemetry: Telemetry,
}

/// The k-supplier ladder for [`LadderSearch`]: rung `i` carries the
/// (k+1)-bounded MIS of the customer graph at `2τ_i` plus — whenever that
/// MIS is small enough to possibly qualify — its nearest-supplier
/// assignment. Rung `i` is acceptable when `|M_i| ≤ k` and every MIS point
/// has a supplier within `τ_i`.
///
/// The assignment is computed inside `eval`, leaving `accept` pure as
/// [`RungEval`] requires. The seeded backstop rung `t` carries `None` for
/// its assignment — the `FirstAccept` schedules never probe it, and the
/// caller backfills the assignment if the search settles there.
struct KSupplierRungs<'a, M: MetricSpace + ?Sized> {
    customers: &'a Shards<'a, M>,
    suppliers: &'a Shards<'a, M>,
    r: f64,
    k: usize,
    params: &'a Params,
}

type SupplierRung = (Vec<u32>, Option<Vec<(u32, f64)>>);

impl<M: MetricSpace + ?Sized> KSupplierRungs<'_, M> {
    fn tau(&self, i: usize) -> f64 {
        (self.r / 9.0) * (1.0 + self.params.epsilon).powi(i as i32)
    }
}

impl<M: MetricSpace + ?Sized> RungEval for KSupplierRungs<'_, M> {
    type Rung = SupplierRung;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> SupplierRung {
        let metric = self.customers.metric();
        let set = k_bounded_mis(
            cluster,
            metric,
            self.customers.sets(),
            2.0 * self.tau(i),
            self.k + 1,
            metric.n(),
            self.params,
            false,
        )
        .set;
        let assign = (set.len() <= self.k).then(|| self.suppliers.nearest(cluster, &set));
        (set, assign)
    }

    fn accept(&self, i: usize, rung: &SupplierRung) -> bool {
        match &rung.1 {
            Some(assign) => {
                let worst = assign.iter().map(|&(_, d)| d).fold(0.0f64, f64::max);
                worst <= self.tau(i)
            }
            None => false, // |M_i| > k: the rung can't qualify
        }
    }
}

/// Algorithm 6: `(3+ε)`-approximation MPC k-supplier in any metric space
/// (Theorem 18). When the coarse radius is ∞ (a NaN or ±∞ customer, or no
/// supplier at finite distance), the result is the coreset's nearest
/// suppliers at their realized radius, with no ladder.
///
/// `customers` and `suppliers` are disjoint id sets within `metric`; each
/// machine stores a share of both.
pub fn mpc_ksupplier<M: MetricSpace + ?Sized>(
    metric: &M,
    customers: &[u32],
    suppliers: &[u32],
    k: usize,
    params: &Params,
) -> KSupplierResult {
    let mut cluster = Cluster::new(params.m, params.seed);
    mpc_ksupplier_on(&mut cluster, metric, customers, suppliers, k, params)
}

/// Like [`mpc_ksupplier`] but on a caller-provided cluster, keeping the
/// full round-by-round [`mpc_sim::Ledger`] with the caller.
pub fn mpc_ksupplier_on<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    metric: &M,
    customers: &[u32],
    suppliers: &[u32],
    k: usize,
    params: &Params,
) -> KSupplierResult {
    assert!(k >= 1, "k must be positive");
    assert!(!customers.is_empty(), "need at least one customer");
    assert!(!suppliers.is_empty(), "need at least one supplier");
    let inputs = [
        Input::Ids("setup/customers", customers, 0xC),
        Input::Ids("setup/suppliers", suppliers, 0x5),
    ];
    let (mut run, [shards_c, shards_s]) = Run::start(cluster, metric, params, inputs);

    // Lines 1–2: customer coreset Q.
    let (q, _) = shards_c.coreset(cluster, k);

    // Line 3: r = r(C, Q) + r(Q, S).
    let r_cq = shards_c.covering_radius(cluster, &q);
    let q_nearest = shards_s.nearest(cluster, &q);
    let r_qs = q_nearest.iter().map(|&(_, d)| d).fold(0.0f64, f64::max);
    let r = r_cq + r_qs;
    run.coarse_done();

    let (assign, coarse_r, boundary) = if r <= 0.0 || !r.is_finite() {
        // r = 0: every customer sits on a supplier, so Q's suppliers cover
        // exactly. r = ∞: a NaN or ±∞ customer, or no finite supplier,
        // leaves no finite ladder; Q's suppliers stand, at their realized
        // radius.
        (q_nearest, r.max(0.0), None)
    } else {
        // Line 4: ascending ladder τ_i = (r/9)(1+ε)^i with τ_t ≥ r.
        // Lines 5–6: M_t = Q; find the smallest j with |M_j| ≤ k and
        // r(M_j, S) ≤ τ_j. Index t always qualifies: |Q| ≤ k and
        // r(Q, S) = r_qs ≤ r ≤ τ_t — it is seeded as the backstop and
        // never probed by the FirstAccept schedules.
        let t = params.ladder_len(9.0, 0);
        let mut rungs = KSupplierRungs {
            customers: &shards_c,
            suppliers: &shards_s,
            r,
            k,
            params,
        };
        let mut search = LadderSearch::new(t);
        search.seed(t, (q, None));
        let mode = BoundaryMode::FirstAccept;
        let boundary = search.search(cluster, &mut rungs, mode, params.boundary_search);
        run.ladder_done(search.evals(), search.probes());

        // Line 8: the suppliers realizing r(M_j, S) ≤ τ_j.
        let (m_b, assign) = search.take(boundary).expect("boundary rung exists");
        let assign = assign.unwrap_or_else(|| {
            // Possible when the search settled on the seeded rung t
            // without evaluating it: its backstop carries no assignment.
            shards_s.nearest(cluster, &m_b)
        });
        (assign, r, Some(boundary))
    };
    let mut sel: Vec<u32> = assign.iter().map(|&(s, _)| s).collect();
    sel.sort_unstable();
    sel.dedup();
    debug_assert!(sel.len() <= k);

    // The realized radius (2 rounds); exactly 0 when the coarse r was.
    let radius = if r > 0.0 {
        shards_c.covering_radius(cluster, &sel)
    } else {
        0.0
    };
    KSupplierResult {
        suppliers: to_point_ids(&sel),
        radius,
        coarse_r,
        boundary_index: boundary.unwrap_or(0),
        telemetry: run.finish(cluster, None),
    }
}

/// Sequential 3-approximation reference: GMM the customers, then map each
/// chosen customer to its nearest supplier (the classic Hochbaum–Shmoys
/// style bound: 2 r* from the k-center step + r* for the hop to S).
pub fn sequential_ksupplier<M: MetricSpace + ?Sized>(
    metric: &M,
    customers: &[u32],
    suppliers: &[u32],
    k: usize,
) -> KSupplierResult {
    assert!(k >= 1 && !customers.is_empty() && !suppliers.is_empty());
    let centers = crate::gmm::gmm(metric, customers, k).selected;
    let mut sel: Vec<u32> = centers
        .iter()
        .map(|&c| {
            suppliers
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    metric
                        .dist(PointId(c), PointId(a))
                        .total_cmp(&metric.dist(PointId(c), PointId(b)))
                        .then(a.cmp(&b))
                })
                .expect("non-empty suppliers")
        })
        .collect();
    sel.sort_unstable();
    sel.dedup();
    let sel_ids = to_point_ids(&sel);
    let radius = customers
        .iter()
        .map(|&c| mpc_metric::dist_point_to_set(metric, PointId(c), &sel_ids))
        .fold(0.0f64, f64::max);
    KSupplierResult {
        suppliers: sel_ids,
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
    use rand::{RngExt, SeedableRng};

    /// Builds one space containing customers then suppliers; returns
    /// (metric, customer ids, supplier ids).
    fn instance(nc: usize, ns: usize, seed: u64) -> (EuclideanSpace, Vec<u32>, Vec<u32>) {
        let c = datasets::gaussian_clusters(nc, 2, 5, 0.05, seed);
        let mut rows: Vec<Vec<f64>> = (0..nc)
            .map(|i| c.coords(PointId(i as u32)).to_vec())
            .collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xF00D);
        for _ in 0..ns {
            rows.push(vec![
                rng.random_range(-0.2..1.2),
                rng.random_range(-0.2..1.2),
            ]);
        }
        let metric = EuclideanSpace::new(PointSet::from_rows(&rows));
        let customers: Vec<u32> = (0..nc as u32).collect();
        let suppliers: Vec<u32> = (nc as u32..(nc + ns) as u32).collect();
        (metric, customers, suppliers)
    }

    #[test]
    fn output_is_feasible_and_bounded() {
        let (metric, customers, suppliers) = instance(150, 60, 3);
        let params = Params::practical(4, 0.2, 3);
        let res = mpc_ksupplier(&metric, &customers, &suppliers, 5, &params);
        assert!(res.suppliers.len() <= 5);
        assert!(!res.suppliers.is_empty());
        // Every chosen id must be a supplier.
        for s in &res.suppliers {
            assert!(suppliers.contains(&s.0), "{s} is not a supplier");
        }
        // Radius consistency.
        let true_r = customers
            .iter()
            .map(|&c| dist_point_to_set(&metric, PointId(c), &res.suppliers))
            .fold(0.0f64, f64::max);
        assert!((res.radius - true_r).abs() < 1e-9);
        // Coarse estimate is an upper bound on a feasible radius; the
        // guarantee keeps the result within 3(1+eps) of the optimum, which
        // is itself ≤ coarse r.
        assert!(res.radius <= 3.0 * (1.0 + params.epsilon) * res.coarse_r / 1.0 + 1e-9);
    }

    #[test]
    fn beats_three_plus_eps_against_sequential_reference() {
        for seed in [1u64, 7] {
            let (metric, customers, suppliers) = instance(120, 50, seed);
            let k = 4;
            let params = Params::practical(3, 0.2, seed);
            let ours = mpc_ksupplier(&metric, &customers, &suppliers, k, &params);
            let seq = sequential_ksupplier(&metric, &customers, &suppliers, k);
            // seq.radius <= 3 r*  =>  r* >= seq.radius / 3; ours must be
            // <= 3(1+eps) r* <= 3(1+eps) seq.radius — very loose but it
            // pins the approximation relationship.
            assert!(
                ours.radius <= 3.0 * (1.0 + params.epsilon) * seq.radius + 1e-9,
                "seed {seed}: ours {} vs sequential {}",
                ours.radius,
                seq.radius
            );
        }
    }

    #[test]
    fn customers_on_suppliers_give_zero_radius() {
        // Customers and suppliers at identical coordinates.
        let rows = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0], // customers
            vec![0.0, 0.0],
            vec![1.0, 0.0], // suppliers
        ];
        let metric = EuclideanSpace::new(PointSet::from_rows(&rows));
        let params = Params::practical(2, 0.1, 1);
        let res = mpc_ksupplier(&metric, &[0, 1], &[2, 3], 2, &params);
        assert_eq!(res.radius, 0.0);
    }

    #[test]
    fn single_supplier_is_always_chosen() {
        let (metric, customers, _) = instance(50, 0, 5);
        // Append one supplier far away.
        let mut rows: Vec<Vec<f64>> = (0..50)
            .map(|i| metric.points().coords(PointId(i)).to_vec())
            .collect();
        rows.push(vec![5.0, 5.0]);
        let metric = EuclideanSpace::new(PointSet::from_rows(&rows));
        let params = Params::practical(2, 0.1, 5);
        let res = mpc_ksupplier(&metric, &customers, &[50], 3, &params);
        assert_eq!(res.suppliers, vec![PointId(50)]);
        let seq = sequential_ksupplier(&metric, &customers, &[50], 3);
        assert!(
            (res.radius - seq.radius).abs() < 1e-9,
            "only one possible answer"
        );
    }

    #[test]
    fn linear_scan_gives_valid_rung() {
        let (metric, customers, suppliers) = instance(100, 40, 9);
        let mut params = Params::practical(3, 0.2, 9);
        params.boundary_search = BoundarySearch::Linear;
        let res = mpc_ksupplier(&metric, &customers, &suppliers, 4, &params);
        assert!(res.suppliers.len() <= 4);
        assert!(res.radius.is_finite());
    }

    /// A single far-away supplier forces every rung below `t` to reject
    /// (`worst = D > τ_i` while `(1+ε)^i < 9`), so both schedules settle
    /// on the seeded backstop rung `t` *without evaluating it* and the
    /// driver must backfill its supplier assignment — the branch behind
    /// the old "possible when binary search settled on t" comment.
    #[test]
    fn backfills_assignment_when_search_settles_on_seeded_top() {
        let metric = mpc_metric::MatrixSpace::new(2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        for strategy in [BoundarySearch::Binary, BoundarySearch::Linear] {
            let mut params = Params::practical(1, 0.1, 1);
            params.boundary_search = strategy;
            let t = params.ladder_len(9.0, 0);
            let res = mpc_ksupplier(&metric, &[0], &[1], 1, &params);
            assert_eq!(res.suppliers, vec![PointId(1)], "{strategy:?}");
            assert_eq!(res.radius, 1.0, "{strategy:?}");
            assert_eq!(
                res.boundary_index, t,
                "{strategy:?} must settle on the backstop rung"
            );
            assert!(res.telemetry.ladder_evals >= 1);
            assert!(res.telemetry.ladder_probes >= res.telemetry.ladder_evals);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (metric, customers, suppliers) = instance(120, 60, 21);
        let params = Params::practical(4, 0.15, 21);
        let a = mpc_ksupplier(&metric, &customers, &suppliers, 5, &params);
        let b = mpc_ksupplier(&metric, &customers, &suppliers, 5, &params);
        assert_eq!(a.suppliers, b.suppliers);
        assert_eq!(a.telemetry.rounds, b.telemetry.rounds);
    }
}
