//! Pipeline tier-neutrality contract: Algorithms 5, 2 and 6 return the
//! same answer and the same MPC ledger whether they run on a raw
//! `EuclideanSpace` at the default speed tier or on the same points at
//! the `exact` oracle tier.
//!
//! The drivers run their ladders on the caller's metric as given, so the
//! runs differ only in which kernels answer the threshold queries: the
//! f32 SoA classifier with its exact re-decide, or the plain f64 diff
//! loop. Ids, objective bits and the ledger transcript (labels plus
//! per-machine traffic, FNV-hashed) must all match, at dimensions 3, 16
//! and 32 and at 1, 2 and 8 worker threads.
//! d = 16 is the narrowest dimension on the f32 Gram path.
//!
//! Each case's reference digest is also hashed and compared with a
//! constant recorded before the drivers shared one ladder (the d = 16
//! constants: before the query-paired run kernel), so a driver or kernel
//! edit that changed every configuration alike still fails here.

use mpc_clustering::core::diversity::mpc_diversity_on;
use mpc_clustering::core::kcenter::mpc_kcenter_on;
use mpc_clustering::core::ksupplier::mpc_ksupplier_on;
use mpc_clustering::core::{Params, Telemetry};
use mpc_clustering::metric::{datasets, EuclideanSpace, MetricSpace, PointId, PointSet, SpeedTier};
use mpc_clustering::sim::{Cluster, Ledger};
use rayon::with_threads;

const THREADS: [usize; 3] = [1, 2, 8];
const DIMS: [usize; 3] = [3, 16, 32];

/// Recorded reference-digest hashes, one per entry of `DIMS`.
const KCENTER_PINS: [u64; 3] = [
    0x7fc2_5043_3baa_cd6f,
    0x814d_a2b1_075e_4010,
    0x5a24_4eb1_491c_6eec,
];
const DIVERSITY_PINS: [u64; 3] = [
    0x055b_efc0_64c2_2e56,
    0xaf1a_c5fe_77d9_8bb0,
    0xf15d_cad4_ea97_82df,
];
const KSUPPLIER_PINS: [u64; 3] = [
    0x8422_7ab9_aa24_64dc,
    0xfcae_d25f_7cdc_57c7,
    0xeffb_3a93_85c6_97ee,
];

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
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

/// One hash of a whole digest: the id count, the ids, then the scalars.
fn digest_hash((ids, objective, boundary, evals, rounds, ledger): &Digest) -> u64 {
    let scalars = [*objective, *boundary as u64, *evals, *rounds, *ledger];
    fnv(std::iter::once(ids.len() as u64)
        .chain(ids.iter().map(|p| p.0 as u64))
        .chain(scalars))
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

/// Builds the default-tier space and the exact-oracle space over the same
/// points. Both tiers are pinned explicitly, so `KCENTER_SPEED` cannot
/// collapse the comparison.
fn spaces(points: PointSet) -> (EuclideanSpace, EuclideanSpace) {
    let oracle = EuclideanSpace::new(points.clone()).with_speed_tier(SpeedTier::Exact);
    let space = EuclideanSpace::new(points).with_speed_tier(SpeedTier::default());
    (space, oracle)
}

/// Runs `run` on the exact oracle at one thread for the reference, whose
/// hash must equal `pin`, then on the oracle and the default-tier space at
/// every thread count; all seven digests must be equal.
fn assert_tier_neutral(
    what: &str,
    (space, oracle): &(EuclideanSpace, EuclideanSpace),
    pin: u64,
    run: impl Fn(&dyn MetricSpace) -> Digest,
) {
    let reference = with_threads(1, || run(oracle));
    assert!(reference.3 > 0, "{what}: the run should climb the ladder");
    let hash = digest_hash(&reference);
    assert_eq!(
        hash, pin,
        "{what}: reference digest hashes to {hash:#018x}, recorded {pin:#018x}"
    );
    for threads in THREADS {
        let exact = with_threads(threads, || run(oracle));
        let raw = with_threads(threads, || run(space));
        assert_eq!(
            exact, reference,
            "{what}: exact oracle at {threads} threads"
        );
        assert_eq!(raw, reference, "{what}: default tier at {threads} threads");
    }
}

#[test]
fn kcenter_is_tier_neutral() {
    for (dim, pin) in DIMS.into_iter().zip(KCENTER_PINS) {
        let spaces = spaces(datasets::gaussian_clusters(300, dim, 6, 0.05, 11));
        let params = Params::practical(4, 0.1, 11);
        assert_tier_neutral(&format!("k-center d={dim}"), &spaces, pin, |m| {
            kcenter(m, 6, &params)
        });
    }
}

#[test]
fn diversity_is_tier_neutral() {
    for (dim, pin) in DIMS.into_iter().zip(DIVERSITY_PINS) {
        let spaces = spaces(datasets::gaussian_clusters(300, dim, 8, 0.05, 12));
        let params = Params::practical(4, 0.1, 12);
        assert_tier_neutral(&format!("diversity d={dim}"), &spaces, pin, |m| {
            diversity(m, 8, &params)
        });
    }
}

#[test]
fn ksupplier_is_tier_neutral() {
    for (dim, pin) in DIMS.into_iter().zip(KSUPPLIER_PINS) {
        // The first 220 points are customers, the last 80 suppliers.
        let spaces = spaces(datasets::gaussian_clusters(300, dim, 6, 0.05, 13));
        let customers: Vec<u32> = (0..220).collect();
        let suppliers: Vec<u32> = (220..300).collect();
        let params = Params::practical(4, 0.1, 13);
        assert_tier_neutral(&format!("k-supplier d={dim}"), &spaces, pin, |m| {
            ksupplier(m, &customers, &suppliers, 6, &params)
        });
    }
}
