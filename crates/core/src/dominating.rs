//! Extension (paper §7): constant-factor minimum dominating set in graphs
//! of bounded neighborhood independence, via k-bounded MIS.
//!
//! A graph has *neighborhood independence* bounded by `c` when no vertex
//! has more than `c` pairwise non-adjacent neighbors (threshold graphs of
//! doubling metrics have small `c`; e.g. unit-disk graphs have `c ≤ 5`).
//! In such graphs **any** maximal independent set is a `c`-approximate
//! minimum dominating set: an MIS dominates by maximality, and each vertex
//! of an optimal dominating set can dominate at most `c` MIS members.
//!
//! The paper observes its k-bounded MIS machinery therefore gives a
//! constant-round MPC dominating-set algorithm: run Algorithm 4 with
//! `k = n` (the bound never binds), so it terminates only by exhausting
//! the graph — i.e. with a genuine maximal independent set — in the same
//! constant number of rounds Theorem 13 gives.

use mpc_metric::{MetricSpace, PointId};
use mpc_sim::Cluster;

use crate::common::{Input, Run};
use crate::kbmis::k_bounded_mis;
use crate::params::Params;
use crate::telemetry::Telemetry;

/// Result of [`mpc_dominating_set`].
#[derive(Debug, Clone)]
pub struct DominatingSetResult {
    /// The dominating set (a maximal independent set of `G_tau`).
    pub set: Vec<PointId>,
    /// Outer rounds the single MIS invocation used.
    pub outer_rounds: u64,
    /// Measured rounds/communication.
    pub telemetry: Telemetry,
}

/// Computes a dominating set of the threshold graph `G_tau` that is
/// simultaneously a maximal independent set — a `c`-approximation of the
/// minimum dominating set whenever the graph's neighborhood independence
/// is bounded by `c`.
pub fn mpc_dominating_set<M: MetricSpace + ?Sized>(
    metric: &M,
    tau: f64,
    params: &Params,
) -> DominatingSetResult {
    let mut cluster = Cluster::new(params.m, params.seed);
    mpc_dominating_set_on(&mut cluster, metric, tau, params)
}

/// Like [`mpc_dominating_set`] but on a caller-provided cluster.
pub fn mpc_dominating_set_on<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    metric: &M,
    tau: f64,
    params: &Params,
) -> DominatingSetResult {
    let (run, [shards]) = Run::start(cluster, metric, params, [Input::Points]);
    let n = metric.n();

    // k = n never binds, so Algorithm 4 runs to graph exhaustion and the
    // result is a true maximal independent set — one constant-round
    // invocation, as the paper's §7 remark intends.
    let res = k_bounded_mis(
        cluster,
        metric,
        shards.sets(),
        tau,
        n.max(1),
        n,
        params,
        false,
    );
    // Either the graph exhausted (maximal MIS) or all n vertices joined
    // (edgeless graph: ReachedK at k = n, also a maximal MIS).
    debug_assert!(
        res.maximal || res.set.len() == n,
        "k = n run must end maximal, got {:?} with {} vertices",
        res.outcome,
        res.set.len()
    );
    DominatingSetResult {
        set: res.set.iter().map(|&v| PointId(v)).collect(),
        outer_rounds: res.outer_rounds,
        telemetry: run.finish(cluster, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::{verify::is_maximal, ThresholdGraph};
    use mpc_metric::{datasets, EuclideanSpace};

    /// Sequential greedy dominating-set baseline (ln-n–approximate): repeatedly
    /// takes the vertex covering the most uncovered vertices.
    fn greedy_dominating_set<M: MetricSpace + ?Sized>(metric: &M, tau: f64) -> Vec<PointId> {
        let n = metric.n();
        let mut covered = vec![false; n];
        let mut remaining = n;
        let mut set = Vec::new();
        while remaining > 0 {
            let mut best = (0usize, u32::MAX);
            for v in 0..n as u32 {
                let gain = (0..n as u32)
                    .filter(|&u| {
                        !covered[u as usize]
                            && (u == v || metric.within(PointId(u), PointId(v), tau))
                    })
                    .count();
                if gain > best.0 || (gain == best.0 && v < best.1) {
                    best = (gain, v);
                }
            }
            let v = best.1;
            set.push(PointId(v));
            for u in 0..n as u32 {
                if !covered[u as usize] && (u == v || metric.within(PointId(u), PointId(v), tau)) {
                    covered[u as usize] = true;
                    remaining -= 1;
                }
            }
        }
        set
    }

    #[test]
    fn output_dominates_everything() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(150, 2, 3));
        let tau = 0.25;
        let params = Params::practical(3, 0.1, 3);
        let res = mpc_dominating_set(&metric, tau, &params);
        let g = ThresholdGraph::new(&metric, tau);
        let universe: Vec<u32> = (0..150).collect();
        let set: Vec<u32> = res.set.iter().map(|p| p.0).collect();
        assert!(is_maximal(&g, &set, &universe), "MIS must dominate");
    }

    #[test]
    fn size_is_comparable_to_greedy() {
        // Unit-disk-style graph: neighborhood independence <= 5, so the
        // MIS is a 5-approximation; greedy is ~ln n. Sizes should be in
        // the same ballpark.
        let metric = EuclideanSpace::new(datasets::uniform_cube(120, 2, 7));
        let tau = 0.3;
        let params = Params::practical(3, 0.1, 7);
        let ours = mpc_dominating_set(&metric, tau, &params);
        let greedy = greedy_dominating_set(&metric, tau);
        assert!(
            ours.set.len() <= 6 * greedy.len(),
            "ours {} vs greedy {} — beyond the unit-disk factor",
            ours.set.len(),
            greedy.len()
        );
    }

    #[test]
    fn dense_graph_needs_one_vertex() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(60, 2, 9));
        let params = Params::practical(2, 0.1, 9);
        let res = mpc_dominating_set(&metric, 10.0, &params);
        assert_eq!(res.set.len(), 1);
    }

    #[test]
    fn empty_threshold_takes_all_vertices() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(30, 2, 11));
        let params = Params::practical(2, 0.1, 11);
        let res = mpc_dominating_set(&metric, 0.0, &params);
        assert_eq!(
            res.set.len(),
            30,
            "edgeless graph: every vertex dominates only itself"
        );
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn rejects_invalid_params() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(10, 2, 1));
        let mut params = Params::practical(2, 0.1, 1);
        params.delta = 0.0;
        mpc_dominating_set(&metric, 0.3, &params);
    }
}
