//! Implicit threshold graphs `G_τ` over a metric space.

use mpc_metric::{MetricSpace, PointId};

use crate::GraphView;

/// The threshold graph `G_τ` of a metric space: vertex ids are point ids
/// and `u ~ v` iff `u != v` and `d(u, v) ≤ τ` (paper §2).
///
/// Adjacency is *implicit* — resolved through the distance oracle on
/// demand — so the graph costs no memory beyond the points themselves.
/// This is what lets the MPC algorithms query edges among any subset of
/// vertices a machine happens to hold.
///
/// ```
/// use mpc_graph::{GraphView, ThresholdGraph};
/// use mpc_metric::{EuclideanSpace, PointSet};
///
/// let space = EuclideanSpace::new(PointSet::from_rows(&[
///     vec![0.0], vec![1.0], vec![5.0],
/// ]));
/// let g = ThresholdGraph::new(&space, 1.5);
/// assert!(g.is_edge(0, 1));  // d = 1 <= 1.5
/// assert!(!g.is_edge(1, 2)); // d = 4
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ThresholdGraph<M> {
    metric: M,
    tau: f64,
}

impl<M: MetricSpace> ThresholdGraph<M> {
    /// The graph `G_tau` over `metric`. `tau` must be non-negative and
    /// finite.
    pub fn new(metric: M, tau: f64) -> Self {
        assert!(
            tau.is_finite() && tau >= 0.0,
            "threshold must be finite and non-negative"
        );
        Self { metric, tau }
    }

    /// The threshold τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The underlying metric.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// How many of `v`'s `selfs` occurrences in a candidate list the
    /// metric's threshold kernels counted within τ: all of them when `v`
    /// is within τ of itself, none when a non-finite coordinate makes its
    /// self-distance NaN.
    fn self_pairs(&self, v: u32, selfs: usize) -> usize {
        if selfs > 0 && self.metric.within(PointId(v), PointId(v), self.tau) {
            selfs
        } else {
            0
        }
    }
}

impl<M: MetricSpace> GraphView for ThresholdGraph<M> {
    fn n_vertices(&self) -> usize {
        self.metric.n()
    }

    #[inline]
    fn is_edge(&self, u: u32, v: u32) -> bool {
        u != v && self.metric.within(PointId(u), PointId(v), self.tau)
    }

    /// Forwards the whole batch to the metric's [`MetricSpace::count_within`]
    /// kernel, then subtracts the self-pairs the kernel counted: when `v`
    /// is within τ of itself (always, unless a non-finite coordinate makes
    /// its self-distance NaN), every occurrence of `v` in `candidates` was
    /// counted, but the graph is irreflexive.
    fn degree_among(&self, v: u32, candidates: &[u32]) -> usize {
        let within = self.metric.count_within(PointId(v), candidates, self.tau);
        within - self.self_pairs(v, candidates.iter().filter(|&&c| c == v).count())
    }

    /// Batched via [`MetricSpace::neighbors_within`], dropping self-pairs.
    fn neighbors_among(&self, v: u32, candidates: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        self.metric
            .neighbors_within(PointId(v), candidates, self.tau, &mut out);
        out.retain(|&c| c != v);
        out
    }

    /// One multi-query metric kernel call for the whole grid
    /// ([`MetricSpace::count_within_many`] — tiled on coordinate-backed
    /// spaces, memo-served on `MemoizedSpace`), then a self-pair fixup as
    /// in [`ThresholdGraph::degree_among`]: every occurrence of a query
    /// vertex within τ of itself in `candidates` was counted, but the
    /// graph is irreflexive. Each query's multiplicity in `candidates` is
    /// read off one sorted copy of the list by two binary searches,
    /// replacing the per-query self scan.
    fn degrees_among(&self, vs: &[u32], candidates: &[u32]) -> Vec<usize> {
        let within = self.metric.count_within_many(vs, candidates, self.tau);
        let mut sorted = candidates.to_vec();
        sorted.sort_unstable();
        vs.iter()
            .zip(within)
            .map(|(&v, w)| {
                let selfs =
                    sorted.partition_point(|&c| c <= v) - sorted.partition_point(|&c| c < v);
                w - self.self_pairs(v, selfs)
            })
            .collect()
    }

    /// Batched via [`MetricSpace::neighbors_within_many`], dropping
    /// self-pairs per row.
    fn neighbors_among_many(&self, vs: &[u32], candidates: &[u32]) -> Vec<Vec<u32>> {
        let mut rows = self.metric.neighbors_within_many(vs, candidates, self.tau);
        for (row, &v) in rows.iter_mut().zip(vs) {
            row.retain(|&c| c != v);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_metric::{EuclideanSpace, PointSet};

    fn line() -> EuclideanSpace {
        EuclideanSpace::new(PointSet::from_rows(&[
            vec![0.0],
            vec![1.0],
            vec![2.5],
            vec![10.0],
        ]))
    }

    #[test]
    fn adjacency_follows_threshold() {
        let g = ThresholdGraph::new(line(), 1.5);
        assert!(g.is_edge(0, 1)); // d = 1
        assert!(g.is_edge(1, 2)); // d = 1.5, boundary inclusive
        assert!(!g.is_edge(0, 2)); // d = 2.5
        assert!(!g.is_edge(2, 3));
    }

    #[test]
    fn no_self_loops() {
        let g = ThresholdGraph::new(line(), 100.0);
        for v in 0..4 {
            assert!(!g.is_edge(v, v));
        }
    }

    #[test]
    fn degree_and_neighbors_among_subsets() {
        let g = ThresholdGraph::new(line(), 1.5);
        let all = [0, 1, 2, 3];
        assert_eq!(g.degree_among(1, &all), 2);
        assert_eq!(g.neighbors_among(1, &all), vec![0, 2]);
        assert_eq!(
            g.degree_among(1, &[1, 3]),
            0,
            "self and far vertex contribute nothing"
        );
    }

    #[test]
    fn batched_degrees_drop_every_self_occurrence() {
        let g = ThresholdGraph::new(line(), 1.5);
        let vs = [1, 1, 3, 0, 2];
        let candidates = [1, 0, 1, 2, 1, 3, 2];
        let want: Vec<usize> = vs.iter().map(|&v| g.degree_among(v, &candidates)).collect();
        assert_eq!(want, vec![3, 3, 0, 3, 3]);
        assert_eq!(g.degrees_among(&vs, &candidates), want);
    }

    /// A vertex with a non-finite coordinate is not within τ of itself
    /// (its self-distance is NaN), so its self-pairs were never counted
    /// and must not be subtracted.
    #[test]
    fn non_finite_vertex_keeps_its_degree() {
        let space = EuclideanSpace::new(PointSet::from_rows(&[
            vec![0.0, 0.0],
            vec![f64::NAN, 1.0],
            vec![1.0, 1.0],
        ]));
        let g = ThresholdGraph::new(&space, 2.0);
        let all = [0, 1, 2];
        assert_eq!(g.degree_among(1, &all), 0);
        assert_eq!(g.degree_among(1, &[1, 1]), 0);
        assert_eq!(g.degree_among(0, &all), 1);
        assert_eq!(g.degrees_among(&all, &all), vec![1, 0, 1]);
        assert_eq!(g.degrees_among(&[1, 2], &[1, 2, 1]), vec![0, 0]);
    }

    #[test]
    fn zero_threshold_isolates_distinct_points() {
        let g = ThresholdGraph::new(line(), 0.0);
        assert!(!g.is_edge(0, 1));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_threshold() {
        ThresholdGraph::new(line(), -1.0);
    }
}
