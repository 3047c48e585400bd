//! Pipeline memo-neutrality contract: Algorithms 5, 2 and 6 return the
//! same answer and the same MPC ledger whether they run on a raw
//! `EuclideanSpace` or on a `MemoizedSpace` wrapping it.
//!
//! The drivers run their ladders on the caller's metric as given, so the
//! two runs differ only in which kernels answer the threshold queries:
//! the space's own squared-threshold / tiled kernels, or the memo's cached
//! distance rows. Ids, objective bits and the ledger transcript (labels
//! plus per-machine traffic, FNV-hashed) must all match, at dimensions 3
//! and 32 and at 1, 2 and 8 worker threads.

use mpc_clustering::core::diversity::mpc_diversity_on;
use mpc_clustering::core::kcenter::mpc_kcenter_on;
use mpc_clustering::core::ksupplier::mpc_ksupplier_on;
use mpc_clustering::core::memo::MemoizedSpace;
use mpc_clustering::core::{Params, Telemetry};
use mpc_clustering::metric::{datasets, EuclideanSpace, MetricSpace, PointId};
use mpc_clustering::sim::{Cluster, Ledger};
use rayon::with_threads;

const THREADS: [usize; 3] = [1, 2, 8];
const DIMS: [usize; 2] = [3, 32];

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

/// What one run must reproduce: selected ids, the objective as raw bits,
/// the accepted rung, the rungs evaluated, and the ledger's round count
/// and transcript digest.
type Digest = (Vec<PointId>, u64, usize, u64, u64, u64);

fn digest(
    ids: Vec<PointId>,
    objective: f64,
    boundary: usize,
    telemetry: &Telemetry,
    ledger: &Ledger,
) -> Digest {
    (
        ids,
        objective.to_bits(),
        boundary,
        telemetry.ladder_evals,
        ledger.rounds(),
        ledger_fnv(ledger),
    )
}

fn kcenter<M: MetricSpace + ?Sized>(metric: &M, k: usize, params: &Params) -> Digest {
    let mut cluster = Cluster::new(params.m, params.seed);
    let res = mpc_kcenter_on(&mut cluster, metric, k, params);
    digest(
        res.centers,
        res.radius,
        res.boundary_index,
        &res.telemetry,
        cluster.ledger(),
    )
}

fn diversity<M: MetricSpace + ?Sized>(metric: &M, k: usize, params: &Params) -> Digest {
    let mut cluster = Cluster::new(params.m, params.seed);
    let res = mpc_diversity_on(&mut cluster, metric, k, params);
    digest(
        res.subset,
        res.diversity,
        res.boundary_index,
        &res.telemetry,
        cluster.ledger(),
    )
}

fn ksupplier<M: MetricSpace + ?Sized>(
    metric: &M,
    customers: &[u32],
    suppliers: &[u32],
    k: usize,
    params: &Params,
) -> Digest {
    let mut cluster = Cluster::new(params.m, params.seed);
    let res = mpc_ksupplier_on(&mut cluster, metric, customers, suppliers, k, params);
    digest(
        res.suppliers,
        res.radius,
        res.boundary_index,
        &res.telemetry,
        cluster.ledger(),
    )
}

/// Runs `run` on the raw space and on a fresh memo over it at every
/// thread count; all six digests must be equal.
fn assert_memo_neutral(
    what: &str,
    space: &EuclideanSpace,
    run: impl Fn(&dyn MetricSpace) -> Digest,
) {
    let reference = with_threads(1, || run(space));
    assert!(reference.3 > 0, "{what}: the run should climb the ladder");
    for threads in THREADS {
        let raw = with_threads(threads, || run(space));
        let memo = with_threads(threads, || run(&MemoizedSpace::new(space)));
        assert_eq!(raw, reference, "{what}: raw space at {threads} threads");
        assert_eq!(
            memo, reference,
            "{what}: memoized space at {threads} threads"
        );
    }
}

#[test]
fn kcenter_is_memo_neutral() {
    for dim in DIMS {
        let space = EuclideanSpace::new(datasets::gaussian_clusters(300, dim, 6, 0.05, 11));
        let params = Params::practical(4, 0.1, 11);
        assert_memo_neutral(&format!("k-center d={dim}"), &space, |m| {
            kcenter(m, 6, &params)
        });
    }
}

#[test]
fn diversity_is_memo_neutral() {
    for dim in DIMS {
        let space = EuclideanSpace::new(datasets::gaussian_clusters(300, dim, 8, 0.05, 12));
        let params = Params::practical(4, 0.1, 12);
        assert_memo_neutral(&format!("diversity d={dim}"), &space, |m| {
            diversity(m, 8, &params)
        });
    }
}

#[test]
fn ksupplier_is_memo_neutral() {
    for dim in DIMS {
        // The first 220 points are customers, the last 80 suppliers.
        let space = EuclideanSpace::new(datasets::gaussian_clusters(300, dim, 6, 0.05, 13));
        let customers: Vec<u32> = (0..220).collect();
        let suppliers: Vec<u32> = (220..300).collect();
        let params = Params::practical(4, 0.1, 13);
        assert_memo_neutral(&format!("k-supplier d={dim}"), &space, |m| {
            ksupplier(m, &customers, &suppliers, 6, &params)
        });
    }
}
