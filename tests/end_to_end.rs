//! Cross-crate integration tests: the full MPC pipelines over every
//! metric-space implementation, checked against the guarantees the paper
//! proves.

use mpc_clustering::baselines::exact::{exact_diversity, exact_kcenter};
use mpc_clustering::core::{diversity, kcenter, ksupplier, Params};
use mpc_clustering::metric::{
    datasets, dist_point_to_set, min_pairwise_distance, validate::check_metric_axioms,
    ChebyshevSpace, EuclideanSpace, GraphMetricSpace, HammingSpace, ManhattanSpace, MatrixSpace,
    MetricSpace, PointId,
};
use mpc_clustering::sim::{Cluster, Ledger};

/// The headline guarantee on small instances where the optimum is
/// computable: k-center within `2(1+ε)`, diversity within `2(1+ε)`.
#[test]
fn guarantees_hold_against_exact_optimum() {
    let eps = 0.1;
    for seed in [1u64, 2, 3, 4, 5] {
        let metric = EuclideanSpace::new(datasets::uniform_cube(30, 2, seed));
        let k = 4;
        let params = Params::practical(3, eps, seed);

        let (opt_r, _) = exact_kcenter(&metric, k);
        let kc = kcenter::mpc_kcenter(&metric, k, &params);
        assert!(
            kc.radius <= 2.0 * (1.0 + eps) * opt_r + 1e-9,
            "seed {seed}: k-center {} vs opt {opt_r}",
            kc.radius
        );

        let (opt_d, _) = exact_diversity(&metric, k);
        let dv = diversity::mpc_diversity(&metric, k, &params);
        assert!(
            dv.diversity >= opt_d / (2.0 * (1.0 + eps)) - 1e-9,
            "seed {seed}: diversity {} vs opt {opt_d}",
            dv.diversity
        );
    }
}

/// The algorithms are metric-agnostic: run every pipeline on all six
/// metric implementations and check feasibility invariants.
#[test]
fn all_metric_spaces_work() {
    let k = 4;
    let params = Params::practical(3, 0.2, 9);

    let euclid = EuclideanSpace::new(datasets::uniform_cube(60, 3, 1));
    let manhattan = ManhattanSpace::new(datasets::uniform_cube(60, 3, 2));
    let chebyshev = ChebyshevSpace::new(datasets::uniform_cube(60, 3, 3));
    let hamming = HammingSpace::from_set_bits(60, 64, &datasets::random_bitsets(60, 64, 0.3, 4));
    let graph =
        GraphMetricSpace::from_edges(60, &datasets::random_road_network(60, 40, 5)).unwrap();
    let matrix = MatrixSpace::from_fn(60, |i, j| ((i as f64) - (j as f64)).abs().sqrt()).unwrap();

    fn check<M: MetricSpace>(metric: &M, k: usize, params: &Params, name: &str) {
        assert_eq!(
            check_metric_axioms(metric, 400, 1e-9, 7),
            None,
            "{name} violates metric axioms"
        );
        let kc = kcenter::mpc_kcenter(metric, k, params);
        assert!(
            kc.centers.len() <= k && !kc.centers.is_empty(),
            "{name}: no centers"
        );
        // Radius must be realized.
        let true_r = (0..metric.n() as u32)
            .map(|v| dist_point_to_set(metric, PointId(v), &kc.centers))
            .fold(0.0f64, f64::max);
        assert!((kc.radius - true_r).abs() < 1e-9, "{name}: radius mismatch");

        let dv = diversity::mpc_diversity(metric, k, params);
        assert_eq!(dv.subset.len(), k, "{name}: diversity subset size");
        let true_d = min_pairwise_distance(metric, &dv.subset);
        assert!(
            (dv.diversity - true_d).abs() < 1e-9,
            "{name}: diversity mismatch"
        );
    }

    check(&euclid, k, &params, "euclidean");
    check(&manhattan, k, &params, "manhattan");
    check(&chebyshev, k, &params, "chebyshev");
    check(&hamming, k, &params, "hamming");
    check(&graph, k, &params, "graph-metric");
    check(&matrix, k, &params, "matrix");
    assert_eq!(
        matrix_digest(&matrix, k, &params),
        MATRIX_PIN,
        "matrix: Alg 5 / Alg 2 digest moved"
    );
}

/// Digest of the `MatrixSpace` runs in [`all_metric_spaces_work`],
/// recorded while the space still carried its own row-scan kernels. The
/// trait's default kernels answer every scan on it now, so a match shows
/// those defaults give the same answers and the same ledger.
const MATRIX_PIN: u64 = 0x0941_06bb_590d_6f1b;

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

/// FNV-1a over every round's label bytes and per-machine sent/received words.
fn ledger_fnv(ledger: &Ledger) -> u64 {
    fnv(ledger.records().iter().flat_map(|r| {
        r.label
            .bytes()
            .map(u64::from)
            .chain(r.per_machine.iter().flat_map(|io| [io.sent, io.received]))
    }))
}

/// Alg 5's centers, `radius` / `coarse_r` bits, accepted rung, rounds and
/// ledger hash, then Alg 2's subset and diversity bits, folded into one
/// hash.
fn matrix_digest(metric: &MatrixSpace, k: usize, params: &Params) -> u64 {
    let mut cluster = Cluster::new(params.m, params.seed);
    let kc = kcenter::mpc_kcenter_on(&mut cluster, metric, k, params);
    let dv = diversity::mpc_diversity(metric, k, params);
    let ids = |ps: &[PointId]| {
        std::iter::once(ps.len() as u64)
            .chain(ps.iter().map(|p| p.0 as u64))
            .collect::<Vec<_>>()
    };
    fnv(ids(&kc.centers)
        .into_iter()
        .chain([
            kc.radius.to_bits(),
            kc.coarse_r.to_bits(),
            kc.boundary_index as u64,
            cluster.ledger().rounds(),
            ledger_fnv(cluster.ledger()),
        ])
        .chain(ids(&dv.subset))
        .chain([dv.diversity.to_bits()]))
}

/// k-supplier end to end on a bipartite instance, with the supplier-only
/// constraint enforced.
#[test]
fn ksupplier_respects_supplier_constraint() {
    let metric = EuclideanSpace::new(datasets::uniform_cube(100, 2, 13));
    let customers: Vec<u32> = (0..70).collect();
    let suppliers: Vec<u32> = (70..100).collect();
    let params = Params::practical(4, 0.2, 13);
    let res = ksupplier::mpc_ksupplier(&metric, &customers, &suppliers, 5, &params);
    assert!(res.suppliers.len() <= 5 && !res.suppliers.is_empty());
    for s in &res.suppliers {
        assert!(suppliers.contains(&s.0), "center {s} is not a supplier");
    }
    // Every customer covered within the reported radius.
    for &c in &customers {
        assert!(dist_point_to_set(&metric, PointId(c), &res.suppliers) <= res.radius + 1e-9);
    }
}

/// The ladder refinement must never do worse than its own coarse stage —
/// the paper's algorithms strictly extend the prior two-round methods.
#[test]
fn refinement_dominates_coarse_stage() {
    for seed in [3u64, 17, 29] {
        let metric = EuclideanSpace::new(datasets::gaussian_clusters(400, 2, 10, 0.02, seed));
        let params = Params::practical(5, 0.1, seed);
        let kc = kcenter::mpc_kcenter(&metric, 6, &params);
        assert!(kc.radius <= kc.coarse_r + 1e-12, "seed {seed}");
        let dv = diversity::mpc_diversity(&metric, 6, &params);
        assert!(dv.diversity >= dv.coarse_r - 1e-12, "seed {seed}");
    }
}

/// Rounds stay constant as n grows (Theorem 13/17 shape check): a 16×
/// larger input may not use more than ~2× the rounds.
#[test]
fn rounds_do_not_grow_with_n() {
    let params = Params::practical(8, 0.1, 5);
    let small = {
        let metric = EuclideanSpace::new(datasets::uniform_cube(500, 2, 5));
        kcenter::mpc_kcenter(&metric, 8, &params).telemetry.rounds
    };
    let large = {
        let metric = EuclideanSpace::new(datasets::uniform_cube(8000, 2, 5));
        kcenter::mpc_kcenter(&metric, 8, &params).telemetry.rounds
    };
    assert!(
        large <= small * 2,
        "rounds grew from {small} to {large} — not constant-round behaviour"
    );
}

/// Identical parameters must give bit-identical executions regardless of
/// rayon scheduling (the determinism the RNG design promises).
#[test]
fn full_pipeline_is_deterministic() {
    let metric = EuclideanSpace::new(datasets::powerlaw_clusters(600, 2, 10, 1.5, 0.02, 21));
    let params = Params::practical(6, 0.15, 21);
    let a = kcenter::mpc_kcenter(&metric, 7, &params);
    let b = kcenter::mpc_kcenter(&metric, 7, &params);
    assert_eq!(a.centers, b.centers);
    assert_eq!(a.telemetry.rounds, b.telemetry.rounds);
    assert_eq!(a.telemetry.total_words, b.telemetry.total_words);
}

/// One digest per distributed entry point on a small Euclidean instance,
/// recorded before those entry points shared one run prologue: the
/// answer's ids, its objective bits, `coarse_r` and the boundary where the
/// result has them, then the run's rounds and [`ledger_fnv`]. Peak memory
/// is left out on purpose: a driver that notes its input may grow it.
const ENTRY_PINS: [(&str, u64); 5] = [
    ("mpc_diversity", 0x0138_a3f6_fc52_db44),
    ("mpc_ksupplier", 0x6183_c624_a960_abf2),
    ("four_approx_diversity", 0xf9f5_360d_07bc_330c),
    ("mpc_dominating_set", 0x9221_d7e0_2b7c_3084),
    ("assign_to_centers", 0x150d_812a_bb8e_06ce),
];

/// Every entry point's digest, in [`ENTRY_PINS`] order.
fn entry_digests() -> [u64; 5] {
    use mpc_clustering::core::{assignment, dominating};
    let space = EuclideanSpace::new(datasets::gaussian_clusters(240, 3, 6, 0.05, 31));
    let params = Params::practical(4, 0.1, 31);
    let ids = |ps: &[PointId]| {
        std::iter::once(ps.len() as u64)
            .chain(ps.iter().map(|p| p.0 as u64))
            .collect::<Vec<_>>()
    };
    let run = |f: &dyn Fn(&mut Cluster) -> Vec<u64>| {
        let mut cluster = Cluster::new(params.m, params.seed);
        let mut words = f(&mut cluster);
        words.extend([cluster.ledger().rounds(), ledger_fnv(cluster.ledger())]);
        fnv(words)
    };
    let diversity = run(&|c| {
        let dv = diversity::mpc_diversity_on(c, &space, 6, &params);
        let mut w = ids(&dv.subset);
        w.extend([
            dv.diversity.to_bits(),
            dv.coarse_r.to_bits(),
            dv.boundary_index as u64,
        ]);
        w
    });
    let customers: Vec<u32> = (0..180).collect();
    let suppliers: Vec<u32> = (180..240).collect();
    let ksupplier = run(&|c| {
        let ks = ksupplier::mpc_ksupplier_on(c, &space, &customers, &suppliers, 5, &params);
        let mut w = ids(&ks.suppliers);
        w.extend([
            ks.radius.to_bits(),
            ks.coarse_r.to_bits(),
            ks.boundary_index as u64,
        ]);
        w
    });
    let four = run(&|c| {
        let dv = diversity::four_approx_diversity_on(c, &space, 6, &params);
        let mut w = ids(&dv.subset);
        w.extend([
            dv.diversity.to_bits(),
            dv.coarse_r.to_bits(),
            dv.boundary_index as u64,
        ]);
        w
    });
    let dominating = run(&|c| {
        let ds = dominating::mpc_dominating_set_on(c, &space, 0.3, &params);
        let mut w = ids(&ds.set);
        w.push(ds.outer_rounds);
        w
    });
    let centers = [3, 50, 97, 140, 201].map(PointId);
    let assign = run(&|c| {
        let a = assignment::assign_to_centers_on(c, &space, &centers, &params);
        a.cluster_of
            .iter()
            .map(|&ci| ci as u64)
            .chain(a.distance.iter().map(|d| d.to_bits()))
            .chain(a.sizes.iter().map(|&s| s as u64))
            .chain(a.radii.iter().map(|r| r.to_bits()))
            .collect()
    });
    [diversity, ksupplier, four, dominating, assign]
}

#[test]
fn entry_points_match_recorded_pins_at_every_thread_count() {
    for threads in [1, 2, 8] {
        let got = rayon::with_threads(threads, entry_digests);
        for ((name, want), got) in ENTRY_PINS.iter().zip(got) {
            assert_eq!(got, *want, "{name} at t={threads}: {got:#018x}");
        }
    }
}
