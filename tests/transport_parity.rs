//! Full pipelines on the byte-level `loopback` transport: Algorithm 5 on
//! both Euclidean engines, Algorithm 2 and Algorithm 6 must land on exactly the answer
//! and ledger of the in-memory `sim` reference, while every collective's
//! frames really move — and per machine and per round, the bytes on the
//! wire equal 8 × the words the ledger charged.
//!
//! Each cluster names its transport explicitly, so no test here reads or
//! writes `KCENTER_TRANSPORT`.

use std::fmt::Debug;

use mpc_clustering::core::{diversity, grid, kcenter, ksupplier, Params, Telemetry};
use mpc_clustering::metric::{datasets, EuclideanSpace};
use mpc_clustering::sim::{Cluster, TransportKind};

const M: usize = 4;
const SEED: u64 = 42;

/// Per machine and per round: bytes sent/received == 8 × ledger words.
fn assert_bytes_match_ledger(cluster: &Cluster) {
    let stats = cluster.wire_stats().expect("loopback keeps stats");
    let records = cluster.ledger().records();
    assert_eq!(stats.rounds.len(), records.len(), "one wire row per round");
    for (wr, rec) in stats.rounds.iter().zip(records) {
        assert_eq!(wr.label, rec.label);
        for (bio, mio) in wr.per_machine.iter().zip(&rec.per_machine) {
            assert_eq!(bio.sent, mio.sent * 8, "sent bytes in {}", rec.label);
            assert_eq!(bio.received, mio.received * 8, "in {}", rec.label);
        }
    }
}

/// Solves once on each backend. The answers' `digest` and ledger totals
/// must match, and the loopback run must show real, conformant traffic.
fn assert_loopback_matches_sim<R, D: PartialEq + Debug>(
    solve: impl Fn(&mut Cluster, &EuclideanSpace, &Params) -> R,
    digest: impl Fn(&R) -> D,
    telemetry: impl Fn(&R) -> &Telemetry,
) {
    let space = EuclideanSpace::new(datasets::gaussian_clusters(600, 3, 6, 0.05, SEED));
    let params = Params::practical(M, 0.1, SEED);
    let run = |kind| {
        let mut cluster = Cluster::with_transport(M, SEED, kind);
        let res = solve(&mut cluster, &space, &params);
        (res, cluster)
    };
    let (sim, _) = run(TransportKind::Sim);
    let (lb, cluster) = run(TransportKind::Loopback);
    assert_eq!(digest(&sim), digest(&lb), "answer parity");
    let ledger = |t: &Telemetry| (t.rounds, t.max_machine_words, t.total_words);
    let (sim_t, lb_t) = (telemetry(&sim), telemetry(&lb));
    assert_eq!(ledger(sim_t), ledger(lb_t), "ledger parity");

    assert!(sim_t.wire.is_none(), "sim moves no bytes");
    let wire = lb_t.wire.as_ref().expect("loopback stamps wire telemetry");
    assert_eq!(wire.backend, "loopback");
    assert_eq!(wire.rounds, lb_t.rounds, "wire rounds == ledger rounds");
    assert!(wire.payload_bytes > 0, "frames physically moved");
    assert!(wire.setup_bytes > 0, "shards shipped at setup");
    assert_eq!(wire.conformance_violations, 0);
    assert_bytes_match_ledger(&cluster);
}

fn kcenter_digest(res: &kcenter::KCenterResult) -> (Vec<u32>, u64) {
    let centers = res.centers.iter().map(|c| c.0).collect();
    (centers, res.radius.to_bits())
}

#[test]
fn collectives_move_eight_bytes_per_ledger_word() {
    let mut c = Cluster::with_transport(M, 11, TransportKind::Loopback);
    let contribs: Vec<Vec<u32>> = (0..M as u32).map(|i| vec![i, 10 + i]).collect();
    let union = c.all_broadcast("e2e/all_broadcast", contribs.clone(), 2);
    assert_eq!(union, vec![0, 10, 1, 11, 2, 12, 3, 13]);
    assert_eq!(c.gather("e2e/gather", contribs, 1).len(), 8);
    assert_eq!(c.wire_stats().unwrap().conformance_violations, 0);
    assert_bytes_match_ledger(&c);
}

#[test]
fn kcenter_allpairs_loopback_matches_sim() {
    assert_loopback_matches_sim(
        |c, space, params| kcenter::mpc_kcenter_on(c, space, 6, params),
        kcenter_digest,
        |r| &r.telemetry,
    );
}

#[test]
fn kcenter_grid_loopback_matches_sim() {
    assert_loopback_matches_sim(
        |c, space, params| grid::mpc_kcenter_grid_on(c, space, 6, params),
        kcenter_digest,
        |r| &r.telemetry,
    );
}

#[test]
fn diversity_loopback_matches_sim() {
    assert_loopback_matches_sim(
        |c, space, params| diversity::mpc_diversity_on(c, space, 6, params),
        |r| (r.subset.clone(), r.diversity.to_bits()),
        |r| &r.telemetry,
    );
}

#[test]
fn ksupplier_loopback_matches_sim() {
    // Every fourth point is a supplier, the rest are customers; both
    // families are setup shards of their own.
    let customers: Vec<u32> = (0..600).filter(|i| i % 4 != 0).collect();
    let suppliers: Vec<u32> = (0..600).step_by(4).collect();
    assert_loopback_matches_sim(
        |c, space, params| ksupplier::mpc_ksupplier_on(c, space, &customers, &suppliers, 6, params),
        |r| (r.suppliers.clone(), r.radius.to_bits()),
        |r| &r.telemetry,
    );
}
