//! Distance-evaluation counting wrapper, used by the benchmark harness to
//! compare oracle usage across algorithms.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::point::PointId;
use crate::space::MetricSpace;

/// Wraps any [`MetricSpace`] and counts how many times the distance oracle
/// is invoked. Thread-safe (relaxed atomic), so counts are exact even when
/// machine-local computation runs under rayon.
#[derive(Debug)]
pub struct CountingSpace<M> {
    inner: M,
    calls: AtomicU64,
}

impl<M: MetricSpace> CountingSpace<M> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Number of `dist`/`within` oracle calls since construction or the last
    /// [`CountingSpace::reset`].
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
    }

    /// The wrapped space.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: MetricSpace> MetricSpace for CountingSpace<M> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    #[inline]
    fn dist(&self, i: PointId, j: PointId) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.dist(i, j)
    }

    fn point_weight(&self) -> u64 {
        self.inner.point_weight()
    }

    #[inline]
    fn within(&self, i: PointId, j: PointId, tau: f64) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.within(i, j, tau)
    }

    /// Forwards to the inner batched kernel, charging one oracle call per
    /// candidate so counts stay comparable across scalar and batched paths.
    fn count_within(&self, v: PointId, candidates: &[u32], tau: f64) -> usize {
        self.calls
            .fetch_add(candidates.len() as u64, Ordering::Relaxed);
        self.inner.count_within(v, candidates, tau)
    }

    /// See [`CountingSpace::count_within`] on this impl.
    fn neighbors_within(&self, v: PointId, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        self.calls
            .fetch_add(candidates.len() as u64, Ordering::Relaxed);
        self.inner.neighbors_within(v, candidates, tau, out)
    }

    /// Forwards the whole grid to the inner multi-query kernel, charging
    /// `|vs| × |candidates|` oracle calls — what the per-query loop would
    /// charge — so tiling stays invisible to evaluation counts.
    fn count_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<usize> {
        self.calls
            .fetch_add((vs.len() * candidates.len()) as u64, Ordering::Relaxed);
        self.inner.count_within_many(vs, candidates, tau)
    }

    /// See [`CountingSpace::count_within_many`] on this impl.
    fn neighbors_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<Vec<u32>> {
        self.calls
            .fetch_add((vs.len() * candidates.len()) as u64, Ordering::Relaxed);
        self.inner.neighbors_within_many(vs, candidates, tau)
    }

    /// One oracle call per filled entry.
    fn dists_into(&self, v: PointId, candidates: &[u32], out: &mut Vec<f64>) {
        self.calls
            .fetch_add(candidates.len() as u64, Ordering::Relaxed);
        self.inner.dists_into(v, candidates, out)
    }

    /// One oracle call per set element.
    fn dist_to_set(&self, p: PointId, set: &[PointId]) -> f64 {
        self.calls.fetch_add(set.len() as u64, Ordering::Relaxed);
        self.inner.dist_to_set(p, set)
    }

    /// Kernel tallies are observability, not oracle work: forwarded
    /// without charging.
    fn kernel_stats(&self) -> Option<crate::space::KernelStats> {
        self.inner.kernel_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::EuclideanSpace;
    use crate::point::PointSet;

    #[test]
    fn counts_and_resets() {
        let m = CountingSpace::new(EuclideanSpace::new(PointSet::from_rows(&[
            vec![0.0],
            vec![1.0],
        ])));
        assert_eq!(m.calls(), 0);
        let _ = m.dist(PointId(0), PointId(1));
        let _ = m.within(PointId(0), PointId(1), 0.5);
        assert_eq!(m.calls(), 2);
        m.reset();
        assert_eq!(m.calls(), 0);
    }

    #[test]
    fn forwards_distances_unchanged() {
        let m = CountingSpace::new(EuclideanSpace::new(PointSet::from_rows(&[
            vec![0.0],
            vec![3.0],
        ])));
        assert_eq!(m.dist(PointId(0), PointId(1)), 3.0);
        assert_eq!(m.n(), 2);
        assert_eq!(m.point_weight(), 1);
    }
}
