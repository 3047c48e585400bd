//! The `mpc-metric` layer probe: a forwarding [`MetricSpace`] that counts
//! and times every trait call it passes through. It changes no answer —
//! every method forwards to the wrapped space — so a pipeline run over it
//! is bit-identical to one over the bare space.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mpc_metric::{KernelStats, MetricSpace, PointId};

/// Cumulative tallies of a [`Traced`] space.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricTally {
    pub calls: u64,
    pub pairs: u64,
    pub busy_ns: u64,
}

impl MetricTally {
    pub fn since(self, earlier: MetricTally) -> MetricTally {
        MetricTally {
            calls: self.calls - earlier.calls,
            pairs: self.pairs - earlier.pairs,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }
}

pub struct Traced<'a, M: MetricSpace + ?Sized> {
    inner: &'a M,
    calls: AtomicU64,
    pairs: AtomicU64,
    busy_ns: AtomicU64,
}

impl<'a, M: MetricSpace + ?Sized> Traced<'a, M> {
    pub fn new(inner: &'a M) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            pairs: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn tally(&self) -> MetricTally {
        MetricTally {
            calls: self.calls.load(Ordering::Relaxed),
            pairs: self.pairs.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn timed<R>(&self, pairs: usize, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.pairs.fetch_add(pairs as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl<M: MetricSpace + ?Sized> MetricSpace for Traced<'_, M> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn dist(&self, i: PointId, j: PointId) -> f64 {
        self.timed(1, || self.inner.dist(i, j))
    }
    fn point_weight(&self) -> u64 {
        self.inner.point_weight()
    }
    fn within(&self, i: PointId, j: PointId, tau: f64) -> bool {
        self.timed(1, || self.inner.within(i, j, tau))
    }
    fn count_within(&self, v: PointId, candidates: &[u32], tau: f64) -> usize {
        self.timed(candidates.len(), || {
            self.inner.count_within(v, candidates, tau)
        })
    }
    fn neighbors_within(&self, v: PointId, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        self.timed(candidates.len(), || {
            self.inner.neighbors_within(v, candidates, tau, out)
        })
    }
    fn count_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<usize> {
        self.timed(vs.len() * candidates.len(), || {
            self.inner.count_within_many(vs, candidates, tau)
        })
    }
    fn neighbors_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<Vec<u32>> {
        self.timed(vs.len() * candidates.len(), || {
            self.inner.neighbors_within_many(vs, candidates, tau)
        })
    }
    fn dists_into(&self, v: PointId, candidates: &[u32], out: &mut Vec<f64>) {
        self.timed(candidates.len(), || {
            self.inner.dists_into(v, candidates, out)
        })
    }
    fn dist_to_set(&self, p: PointId, set: &[PointId]) -> f64 {
        self.timed(set.len(), || self.inner.dist_to_set(p, set))
    }
    fn count_within_taus(&self, v: PointId, candidates: &[u32], taus: &[f64]) -> Vec<usize> {
        self.timed(candidates.len(), || {
            self.inner.count_within_taus(v, candidates, taus)
        })
    }
    fn neighbors_within_taus(&self, v: PointId, candidates: &[u32], taus: &[f64]) -> Vec<Vec<u32>> {
        self.timed(candidates.len(), || {
            self.inner.neighbors_within_taus(v, candidates, taus)
        })
    }
    fn kernel_stats(&self) -> Option<KernelStats> {
        self.inner.kernel_stats()
    }
}

/// `b − a` field by field for the fast-path classifier tallies.
pub fn kernel_delta(before: Option<KernelStats>, after: Option<KernelStats>) -> KernelStats {
    let (b, a) = (before.unwrap_or_default(), after.unwrap_or_default());
    KernelStats {
        run_pairs: a.run_pairs - b.run_pairs,
        indexed_pairs: a.indexed_pairs - b.indexed_pairs,
        taus_run_pairs: a.taus_run_pairs - b.taus_run_pairs,
        taus_indexed_pairs: a.taus_indexed_pairs - b.taus_indexed_pairs,
        sketch_rejects: a.sketch_rejects - b.sketch_rejects,
        exact_fallbacks: a.exact_fallbacks - b.exact_fallbacks,
        grid_cells: a.grid_cells - b.grid_cells,
        grid_stencil_cells: a.grid_stencil_cells - b.grid_stencil_cells,
        grid_pairs: a.grid_pairs - b.grid_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_metric::{datasets, EuclideanSpace};

    #[test]
    fn forwards_answers_and_counts_pairs() {
        let space = EuclideanSpace::new(datasets::uniform_cube(50, 3, 1));
        let traced = Traced::new(&space);
        let cands: Vec<u32> = (0..50).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        traced.dists_into(PointId(3), &cands, &mut a);
        space.dists_into(PointId(3), &cands, &mut b);
        assert_eq!(a, b);
        assert_eq!(
            traced.count_within_many(&[1, 2], &cands, 0.5),
            space.count_within_many(&[1, 2], &cands, 0.5)
        );
        let t = traced.tally();
        assert_eq!((t.calls, t.pairs), (2, 150));
    }
}
