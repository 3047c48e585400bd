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
//! by-id fold: NaN rows, rows of ±∞, duplicate points, `n ≤ k`, and
//! more machines than points (empty shards). With `n > k`, a non-finite
//! row makes the coarse radius ∞; Algorithms 5 and 6 then return the
//! coreset's answer at radius ∞, on both k-center engines.

use mpc_clustering::core::diversity::mpc_diversity_on;
use mpc_clustering::core::grid::mpc_kcenter_grid_on;
use mpc_clustering::core::kcenter::mpc_kcenter_on;
use mpc_clustering::core::ksupplier::mpc_ksupplier_on;
use mpc_clustering::core::Params;
use mpc_clustering::metric::{datasets, EuclideanSpace, MetricSpace, PointId, PointSet};
use mpc_clustering::sim::{Cluster, Ledger};
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
/// copies of row 0, except the rows `bad`: the first, third, … of them
/// are all NaN, the others `(+∞, −∞, …)`.
fn points(n: usize, dim: usize, bad: &[usize]) -> PointSet {
    let base = datasets::gaussian_clusters(n, dim, 4, 0.05, 7);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| match bad.iter().position(|&b| b == i) {
            Some(j) if j % 2 == 0 => vec![f64::NAN; dim],
            Some(_) => (0..dim)
                .map(|a| {
                    if a % 2 == 0 {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .collect(),
            None if i >= n / 2 && n > 4 => base.coords(PointId(0)).to_vec(),
            None => base.coords(PointId(i as u32)).to_vec(),
        })
        .collect();
    PointSet::from_rows(&rows)
}

type Driver = fn(&dyn MetricSpace, usize, &Params) -> Digest;

/// `(n, dim, m, bad rows)`: clustered inputs at d = 3 and at d = 16 (the
/// f32 rung kernels), then small ones.
type Case = (usize, usize, usize, &'static [usize]);

/// A NaN row (1) and a ±∞ row (3): odd ids, so Algorithm 6's suppliers.
const BAD: &[usize] = &[1, 3];

fn assert_shard_parity(what: &str, driver: Driver, k: usize, cases: &[Case]) {
    for &(n, dim, m, bad) in cases {
        let space = EuclideanSpace::new(points(n, dim, bad));
        let params = Params::practical(m, 0.1, 7);
        let reference = with_threads(1, || driver(&IdOnly(&space), k, &params));
        for threads in THREADS {
            let by_id = with_threads(threads, || driver(&IdOnly(&space), k, &params));
            let slab = with_threads(threads, || driver(&space, k, &params));
            let ctx = format!("{what} n={n} d={dim} m={m} bad={bad:?} at {threads} threads");
            assert_eq!(by_id, reference, "{ctx}: by id");
            assert_eq!(slab, reference, "{ctx}: on slabs");
        }
    }
}

/// The finite inputs climb a ladder; with `n > k` the non-finite ones
/// stop at the coreset, with radius and `coarse_r` both ∞ (the
/// non-finite runs of the grid engine are
/// `kcenter_engines_agree_on_non_finite_rows`).
#[test]
fn kcenter_slabs_match_the_by_id_run() {
    let cases = [
        (90, 3, 4, &[][..]),
        (90, 16, 5, &[]),
        (90, 3, 4, BAD),
        (90, 16, 5, &[0, 7, 8]),
        (4, 3, 2, BAD),
        (5, 16, 8, BAD),
    ];
    assert_shard_parity("k-center", kcenter, 6, &cases);
    let space = EuclideanSpace::new(points(90, 16, BAD));
    let (centers, r, coarse, boundary, _) = kcenter(&space, 6, &Params::practical(5, 0.1, 7));
    assert_eq!((centers.len(), boundary), (6, 0));
    assert_eq!(
        (f64::from_bits(r), f64::from_bits(coarse)),
        (f64::INFINITY, f64::INFINITY)
    );
}

#[test]
fn diversity_slabs_match_the_by_id_run() {
    let cases = [
        (90, 3, 4, BAD),
        (90, 16, 5, BAD),
        (4, 3, 2, BAD),
        (5, 16, 8, BAD),
    ];
    assert_shard_parity("diversity", diversity, 6, &cases);
}

/// Rows 1 and 3 are suppliers beside finite ones; rows 0 and 2 are
/// customers, which makes the coarse radius ∞; in the `n = 9` case every
/// supplier is non-finite. The small cases have three customers for
/// `k = 3`, the second spread over more machines than points.
#[test]
fn ksupplier_slabs_match_the_by_id_run() {
    let cases = [
        (90, 3, 4, BAD),
        (90, 16, 5, BAD),
        (90, 3, 4, &[0, 2]),
        (90, 16, 5, &[2, 0, 5]),
        (9, 16, 4, &[1, 3, 5, 7]),
        (6, 3, 2, BAD),
        (7, 16, 8, BAD),
    ];
    assert_shard_parity("k-supplier", ksupplier, 3, &cases);
    for (n, bad) in [(90, &[0, 2][..]), (9, &[1, 3, 5, 7])] {
        let space = EuclideanSpace::new(points(n, 16, bad));
        let (suppliers, r, coarse, boundary, _) =
            ksupplier(&space, 3, &Params::practical(4, 0.1, 7));
        assert!(!suppliers.is_empty() && suppliers.len() <= 3, "{bad:?}");
        let (r, coarse) = (f64::from_bits(r), f64::from_bits(coarse));
        assert_eq!(
            (r, coarse, boundary),
            (f64::INFINITY, f64::INFINITY, 0),
            "{bad:?}"
        );
    }
}

/// Algorithm 5 on the grid engine against the all-pairs engine by id, on
/// `n > k` inputs with NaN and ±∞ rows: both stop at the coreset, so ids,
/// radius and `coarse_r` bits (∞), the rung and the ledger agree.
#[test]
fn kcenter_engines_agree_on_non_finite_rows() {
    for (n, dim, m, bad) in [
        (90, 3, 4, BAD),
        (90, 16, 5, &[0, 7, 8][..]),
        (200, 2, 8, BAD),
    ] {
        let space = EuclideanSpace::new(points(n, dim, bad));
        let params = Params::practical(m, 0.1, 7);
        let reference = with_threads(1, || kcenter(&IdOnly(&space), 6, &params));
        assert_eq!(f64::from_bits(reference.1), f64::INFINITY);
        for threads in THREADS {
            let grid = with_threads(threads, || {
                let mut cluster = Cluster::new(params.m, params.seed);
                let res = mpc_kcenter_grid_on(&mut cluster, &space, 6, &params);
                let ledger = ledger_fnv(cluster.ledger());
                let (r, coarse) = (res.radius.to_bits(), res.coarse_r.to_bits());
                (res.centers, r, coarse, res.boundary_index, ledger)
            });
            let ctx = format!("n={n} d={dim} m={m} bad={bad:?} at {threads} threads");
            assert_eq!(grid, reference, "{ctx}");
        }
    }
}
