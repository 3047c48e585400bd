//! The batched distance kernels are a *local compute* substitution: wiring
//! `ThresholdGraph` through `count_within` / `neighbors_within` instead of
//! per-pair `within` calls must leave Algorithm 3 (degree approximation)
//! and Algorithm 4 (k-bounded MIS) bit-for-bit unchanged — same outputs,
//! same rounds, same per-machine word counts.
//!
//! `ScalarOnly` re-exposes a space through nothing but the scalar oracle,
//! so every bulk query inside the algorithms falls back to the
//! `MetricSpace` loop defaults — exactly the pre-kernel code path.

use mpc_core::degree::{approximate_degrees, DegreeOutcome};
use mpc_core::diversity::mpc_diversity_on;
use mpc_core::kbmis::k_bounded_mis;
use mpc_core::kcenter::mpc_kcenter_on;
use mpc_core::ksupplier::mpc_ksupplier_on;
use mpc_core::Params;
use mpc_metric::{datasets, EuclideanSpace, MetricSpace, PointId};
use mpc_sim::{Cluster, Partition};

/// Forwards only `n`, `dist` and `point_weight`; `within` and the bulk
/// kernels fall back to the trait defaults (per-pair `dist <= tau`, sqrt
/// included) — exactly the pre-kernel code path.
struct ScalarOnly<M>(M);

impl<M: MetricSpace> MetricSpace for ScalarOnly<M> {
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

#[test]
fn degree_approximation_is_unchanged_by_kernel_swap() {
    for (n, m, tau, k, seed) in [
        (300, 4, 0.1, 8, 3u64),
        (300, 4, 0.4, 8, 3),
        (150, 8, 0.05, 5, 11),
    ] {
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, seed));
        let scalar = ScalarOnly(metric.clone());
        let params = Params::practical(m, 0.1, seed);
        let alive = Partition::round_robin(n, m).all_items().to_vec();

        let mut ck = Cluster::new(m, seed);
        let fast = approximate_degrees(&mut ck, &metric, &alive, tau, k, n, &params);
        let mut cs = Cluster::new(m, seed);
        let slow = approximate_degrees(&mut cs, &scalar, &alive, tau, k, n, &params);

        let ctx = format!("degrees n={n} m={m} tau={tau}");
        match (fast, slow) {
            (
                DegreeOutcome::Estimates {
                    p: pf,
                    heavy: hf,
                    light: lf,
                },
                DegreeOutcome::Estimates {
                    p: ps,
                    heavy: hs,
                    light: ls,
                },
            ) => {
                assert_eq!(pf, ps, "{ctx}: estimates");
                assert_eq!((hf, lf), (hs, ls), "{ctx}: classification counts");
            }
            (DegreeOutcome::IndependentSet(f), DegreeOutcome::IndependentSet(s)) => {
                assert_eq!(f, s, "{ctx}: shortcut sets");
            }
            (f, s) => panic!("{ctx}: outcomes diverged: {f:?} vs {s:?}"),
        }
        ck.ledger().assert_identical(cs.ledger(), &ctx);
    }
}

#[test]
fn k_bounded_mis_is_unchanged_by_kernel_swap() {
    for (n, m, tau, k, seed) in [
        (200, 4, 0.12, 7, 55u64),
        (100, 4, 0.05, 5, 2),
        (250, 5, 0.1, 10, 3),
        (60, 2, 0.9, 8, 5),
    ] {
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, seed));
        let scalar = ScalarOnly(metric.clone());
        let params = Params::practical(m, 0.1, seed);
        let alive = Partition::round_robin(n, m).all_items().to_vec();

        let mut ck = Cluster::new(m, seed);
        let fast = k_bounded_mis(&mut ck, &metric, &alive, tau, k, n, &params, false);
        let mut cs = Cluster::new(m, seed);
        let slow = k_bounded_mis(&mut cs, &scalar, &alive, tau, k, n, &params, false);

        let ctx = format!("kbmis n={n} m={m} tau={tau} k={k}");
        assert_eq!(fast.set, slow.set, "{ctx}: MIS");
        assert_eq!(fast.outcome, slow.outcome, "{ctx}: outcome");
        assert_eq!(fast.outer_rounds, slow.outer_rounds, "{ctx}: outer rounds");
        ck.ledger().assert_identical(cs.ledger(), &ctx);
    }
}

/// The full Algorithm 5 ladder through the batched kernels — tiled
/// multi-query threshold scans in `ThresholdGraph::degrees_among` and
/// `trim`, `dists_into` in GMM — must produce exactly the run the
/// scalar-oracle path produces: same centers, bitwise-same radii, same
/// rounds, same per-machine words, same peak memory.
#[test]
fn full_kcenter_ladder_is_unchanged_by_kernel_swap() {
    for (n, m, k, seed) in [(900, 4, 6, 42u64), (600, 8, 10, 7)] {
        let metric = EuclideanSpace::new(datasets::gaussian_clusters(n, 3, k, 0.05, seed));
        let scalar = ScalarOnly(metric.clone());
        let params = Params::practical(m, 0.1, seed);

        let mut ck = Cluster::new(m, seed);
        let fast = mpc_kcenter_on(&mut ck, &metric, k, &params);
        let mut cs = Cluster::new(m, seed);
        let slow = mpc_kcenter_on(&mut cs, &scalar, k, &params);

        let ctx = format!("ladder n={n} m={m} k={k}");
        assert_eq!(fast.centers, slow.centers, "{ctx}: centers");
        assert_eq!(
            fast.radius.to_bits(),
            slow.radius.to_bits(),
            "{ctx}: radius"
        );
        assert_eq!(
            fast.coarse_r.to_bits(),
            slow.coarse_r.to_bits(),
            "{ctx}: coarse_r"
        );
        assert_eq!(fast.boundary_index, slow.boundary_index, "{ctx}: boundary");
        assert_eq!(
            fast.telemetry.rounds, slow.telemetry.rounds,
            "{ctx}: telemetry rounds"
        );
        ck.ledger().assert_identical(cs.ledger(), &ctx);
    }
}

/// The other two consumers of the shared ladder driver take the same
/// kernel-swap guarantee: Algorithm 6 (diversity) and the k-supplier
/// pipeline through `ScalarOnly` must reproduce the batched-kernel run —
/// outputs, boundary index, rounds, and the full ledger.
#[test]
fn diversity_and_ksupplier_ladders_unchanged_by_kernel_swap() {
    for (n, m, k, seed) in [(400, 4, 6, 42u64), (300, 8, 5, 7)] {
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, seed));
        let scalar = ScalarOnly(metric.clone());
        let params = Params::practical(m, 0.1, seed);

        let mut ck = Cluster::new(m, seed);
        let fast = mpc_diversity_on(&mut ck, &metric, k, &params);
        let mut cs = Cluster::new(m, seed);
        let slow = mpc_diversity_on(&mut cs, &scalar, k, &params);
        let ctx = format!("diversity ladder n={n} m={m} k={k}");
        assert_eq!(fast.subset, slow.subset, "{ctx}: subset");
        assert_eq!(
            fast.diversity.to_bits(),
            slow.diversity.to_bits(),
            "{ctx}: diversity"
        );
        assert_eq!(fast.boundary_index, slow.boundary_index, "{ctx}: boundary");
        ck.ledger().assert_identical(cs.ledger(), &ctx);

        let customers: Vec<u32> = (0..n as u32 / 2).collect();
        let suppliers: Vec<u32> = (n as u32 / 2..n as u32).collect();
        let mut ck = Cluster::new(m, seed);
        let fast = mpc_ksupplier_on(&mut ck, &metric, &customers, &suppliers, k, &params);
        let mut cs = Cluster::new(m, seed);
        let slow = mpc_ksupplier_on(&mut cs, &scalar, &customers, &suppliers, k, &params);
        let ctx = format!("ksupplier ladder n={n} m={m} k={k}");
        assert_eq!(fast.suppliers, slow.suppliers, "{ctx}: suppliers");
        assert_eq!(
            fast.radius.to_bits(),
            slow.radius.to_bits(),
            "{ctx}: radius"
        );
        assert_eq!(fast.boundary_index, slow.boundary_index, "{ctx}: boundary");
        ck.ledger().assert_identical(cs.ledger(), &ctx);
    }
}
