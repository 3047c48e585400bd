//! Shard parity for the all-pairs drivers: Algorithms 2, 5 and 6 run
//! their machine-local coreset GMM and covering-radius scans on an f64
//! slab of each machine's rows when the metric is Euclidean
//! (`MetricSpace::euclidean` answers), and by id otherwise. This suite
//! runs each driver on an `EuclideanSpace` and on the same points behind
//! `IdOnly`, a wrapper that defines only `n`, `dist` and `point_weight`,
//! so every step of its run goes by id through the trait defaults. Ids,
//! objective bits, `coarse_r` bits, the accepted rung and the ledger
//! transcript (FNV-hashed) must agree at 1, 2 and 8 worker threads.
//!
//! The inputs carry the rows where a slab kernel could part from the
//! by-id fold: a NaN row, a row of ±∞, duplicate points, `n ≤ k`, and
//! more machines than points (empty shards).

use mpc_clustering::core::common::{covering_radius, gmm_coreset};
use mpc_clustering::core::diversity::mpc_diversity_on;
use mpc_clustering::core::kcenter::mpc_kcenter_on;
use mpc_clustering::core::ksupplier::mpc_ksupplier_on;
use mpc_clustering::core::Params;
use mpc_clustering::metric::{datasets, EuclideanSpace, MetricSpace, PointId, PointSet};
use mpc_clustering::sim::{Cluster, Ledger, Partition};
use rayon::with_threads;

const THREADS: [usize; 3] = [1, 2, 8];

/// The same points with only the scalar oracle: `euclidean()` keeps the
/// trait default `None`, so no step runs on a slab.
struct IdOnly<'a>(&'a EuclideanSpace);

impl MetricSpace for IdOnly<'_> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn dist(&self, i: PointId, j: PointId) -> f64 {
        self.0.dist(i, j)
    }
    fn point_weight(&self) -> u64 {
        self.0.point_weight()
    }
}

/// FNV-1a over every round's label and per-machine sent/received words.
fn ledger_fnv(ledger: &Ledger) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in ledger.records() {
        eat(r.label.as_bytes());
        for io in &r.per_machine {
            eat(&io.sent.to_le_bytes());
            eat(&io.received.to_le_bytes());
        }
    }
    h
}

/// Ids, objective bits, `coarse_r` bits, boundary rung, ledger FNV.
type Digest = (Vec<PointId>, u64, u64, usize, u64);

fn kcenter(metric: &dyn MetricSpace, k: usize, params: &Params) -> Digest {
    let mut cluster = Cluster::new(params.m, params.seed);
    let res = mpc_kcenter_on(&mut cluster, metric, k, params);
    let ledger = ledger_fnv(cluster.ledger());
    let (r, coarse) = (res.radius.to_bits(), res.coarse_r.to_bits());
    (res.centers, r, coarse, res.boundary_index, ledger)
}

fn diversity(metric: &dyn MetricSpace, k: usize, params: &Params) -> Digest {
    let mut cluster = Cluster::new(params.m, params.seed);
    let res = mpc_diversity_on(&mut cluster, metric, k, params);
    let ledger = ledger_fnv(cluster.ledger());
    let (div, coarse) = (res.diversity.to_bits(), res.coarse_r.to_bits());
    (res.subset, div, coarse, res.boundary_index, ledger)
}

/// Algorithm 6 with the even ids as customers and the odd ids as
/// suppliers.
fn ksupplier(metric: &dyn MetricSpace, k: usize, params: &Params) -> Digest {
    let n = metric.n() as u32;
    let customers: Vec<u32> = (0..n).step_by(2).collect();
    let suppliers: Vec<u32> = (1..n).step_by(2).collect();
    let mut cluster = Cluster::new(params.m, params.seed);
    let res = mpc_ksupplier_on(&mut cluster, metric, &customers, &suppliers, k, params);
    let ledger = ledger_fnv(cluster.ledger());
    let (r, coarse) = (res.radius.to_bits(), res.coarse_r.to_bits());
    (res.suppliers, r, coarse, res.boundary_index, ledger)
}

/// `n` clustered rows of dimension `dim` whose rows from `n / 2` on are
/// copies of row 0; when `non_finite`, row 1 is all NaN and row 3 is
/// `(+∞, −∞, …)`.
fn points(n: usize, dim: usize, non_finite: bool) -> PointSet {
    let base = datasets::gaussian_clusters(n, dim, 4, 0.05, 7);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| match i {
            1 if non_finite => vec![f64::NAN; dim],
            3 if non_finite => (0..dim)
                .map(|a| {
                    if a % 2 == 0 {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .collect(),
            _ if i >= n / 2 && n > 4 => base.coords(PointId(0)).to_vec(),
            _ => base.coords(PointId(i as u32)).to_vec(),
        })
        .collect();
    PointSet::from_rows(&rows)
}

type Driver = fn(&dyn MetricSpace, usize, &Params) -> Digest;

/// `(n, dim, m, non_finite)`: clustered inputs at d = 3 and at d = 16
/// (the f32 rung kernels), then small ones.
type Case = (usize, usize, usize, bool);

fn assert_shard_parity(what: &str, driver: Driver, k: usize, cases: [Case; 4]) {
    for (n, dim, m, non_finite) in cases {
        let space = EuclideanSpace::new(points(n, dim, non_finite));
        let params = Params::practical(m, 0.1, 7);
        let reference = with_threads(1, || driver(&IdOnly(&space), k, &params));
        for threads in THREADS {
            let by_id = with_threads(threads, || driver(&IdOnly(&space), k, &params));
            let slab = with_threads(threads, || driver(&space, k, &params));
            let ctx = format!("{what} n={n} d={dim} m={m} at {threads} threads");
            assert_eq!(by_id, reference, "{ctx}: by id");
            assert_eq!(slab, reference, "{ctx}: on slabs");
        }
    }
}

/// A NaN or ±∞ row is at distance ∞ from every center set, so with
/// `n > k` the coarse radius is ∞ and Algorithm 5 has no finite ladder;
/// its non-finite cases are `n ≤ k` (the second one with more machines
/// than points), and its coarse stage on such rows is compared by
/// `coarse_stage_on_non_finite_rows_matches_the_by_id_scan`.
#[test]
fn kcenter_slabs_match_the_by_id_run() {
    let cases = [
        (90, 3, 4, false),
        (90, 16, 5, false),
        (4, 3, 2, true),
        (5, 16, 8, true),
    ];
    assert_shard_parity("k-center", kcenter, 6, cases);
}

#[test]
fn diversity_slabs_match_the_by_id_run() {
    let cases = [
        (90, 3, 4, true),
        (90, 16, 5, true),
        (4, 3, 2, true),
        (5, 16, 8, true),
    ];
    assert_shard_parity("diversity", diversity, 6, cases);
}

/// The non-finite rows 1 and 3 are suppliers, beside at least one finite
/// one; the small cases have three customers for `k = 3`, the second
/// spread over more machines than points.
#[test]
fn ksupplier_slabs_match_the_by_id_run() {
    let cases = [
        (90, 3, 4, true),
        (90, 16, 5, true),
        (6, 3, 2, true),
        (7, 16, 8, true),
    ];
    assert_shard_parity("k-supplier", ksupplier, 3, cases);
}

/// Lines 1–3 of Algorithm 5 through the public `gmm_coreset` and
/// `covering_radius` on inputs with a NaN and a ±∞ row, whose radius is
/// ∞: the coreset, the union GMM and the radius bits must agree, as must
/// the finalize-style radius of a center set holding the non-finite rows.
#[test]
fn coarse_stage_on_non_finite_rows_matches_the_by_id_scan() {
    for (n, dim, m) in [(90, 3, 4), (90, 16, 5), (5, 16, 8)] {
        let space = EuclideanSpace::new(points(n, dim, true));
        let local_sets = Partition::round_robin(n, m).all_items().to_vec();
        let coarse = |metric: &dyn MetricSpace| {
            let mut cluster = Cluster::new(m, 7);
            let (q, coresets) = gmm_coreset(&mut cluster, metric, &local_sets, 6);
            let r = covering_radius(&mut cluster, metric, &local_sets, &q);
            let r_bad = covering_radius(&mut cluster, metric, &local_sets, &[1, 3]);
            let bits = (r.to_bits(), r_bad.to_bits());
            (q, coresets, bits, ledger_fnv(cluster.ledger()))
        };
        let reference = with_threads(1, || coarse(&IdOnly(&space)));
        for threads in THREADS {
            let ctx = format!("n={n} d={dim} m={m} at {threads} threads");
            assert_eq!(
                with_threads(threads, || coarse(&IdOnly(&space))),
                reference,
                "{ctx}"
            );
            assert_eq!(with_threads(threads, || coarse(&space)), reference, "{ctx}");
        }
    }
}
