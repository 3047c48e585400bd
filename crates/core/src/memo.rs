//! The distance memo, reduced to a pass-through.
//!
//! [`MemoizedSpace`] used to cache τ-independent distance rows for a
//! ladder's rungs to reuse. No pipeline does: each rung's MIS draws fresh
//! degree samples (the cluster RNG is keyed by round), so candidate sets
//! almost never repeat (DESIGN.md §6.3). What stays is the API the
//! end-to-end benchmark's trace recomposition compiles against. Every
//! [`MetricSpace`] method the inner space can override is forwarded, so a
//! wrapped space answers, and tallies its kernels, as the inner one does.

use mpc_metric::{KernelStats, MetricSpace, PointId};

/// The counters [`MemoizedSpace::stats`] reports. Nothing is cached, so
/// every field is always 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Bulk queries answered from cache: always 0.
    pub hits: u64,
    /// Bulk queries that computed their distance row: always 0.
    pub misses: u64,
    /// Sorted rows built: always 0.
    pub sorted_builds: u64,
    /// `f64`-equivalent words held: always 0.
    pub stored_words: usize,
}

impl MemoStats {
    /// Heap footprint in bytes: always 0.
    pub fn bytes(&self) -> usize {
        self.stored_words * std::mem::size_of::<f64>()
    }
}

/// A [`MetricSpace`] that forwards every call to the space it wraps.
pub struct MemoizedSpace<'a, M: MetricSpace + ?Sized> {
    inner: &'a M,
}

impl<'a, M: MetricSpace + ?Sized> MemoizedSpace<'a, M> {
    /// Wraps `inner`.
    pub fn new(inner: &'a M) -> Self {
        Self { inner }
    }

    /// Always [`MemoStats::default`].
    pub fn stats(&self) -> MemoStats {
        MemoStats::default()
    }

    /// A no-op: there are no cached rows to prepare for the rungs `taus`.
    pub fn prewarm_taus(&self, _taus: &[f64]) {}
}

impl<M: MetricSpace + ?Sized> MetricSpace for MemoizedSpace<'_, M> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn dist(&self, i: PointId, j: PointId) -> f64 {
        self.inner.dist(i, j)
    }
    fn point_weight(&self) -> u64 {
        self.inner.point_weight()
    }
    fn within(&self, i: PointId, j: PointId, tau: f64) -> bool {
        self.inner.within(i, j, tau)
    }
    fn count_within(&self, v: PointId, candidates: &[u32], tau: f64) -> usize {
        self.inner.count_within(v, candidates, tau)
    }
    fn neighbors_within(&self, v: PointId, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        self.inner.neighbors_within(v, candidates, tau, out)
    }
    fn count_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<usize> {
        self.inner.count_within_many(vs, candidates, tau)
    }
    fn neighbors_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<Vec<u32>> {
        self.inner.neighbors_within_many(vs, candidates, tau)
    }
    fn dists_into(&self, v: PointId, candidates: &[u32], out: &mut Vec<f64>) {
        self.inner.dists_into(v, candidates, out)
    }
    fn dist_to_set(&self, p: PointId, set: &[PointId]) -> f64 {
        self.inner.dist_to_set(p, set)
    }
    fn kernel_stats(&self) -> Option<KernelStats> {
        self.inner.kernel_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_metric::{datasets, EuclideanSpace, SpeedTier};

    /// Runs `f` on `s`, then through a wrapper: the answers and the growth
    /// of `s`'s kernel tallies must be equal (a dropped forward runs a
    /// trait default body, which tallies differently). Returns the growth.
    fn same<T: PartialEq + std::fmt::Debug>(
        s: &EuclideanSpace,
        mut f: impl FnMut(&dyn MetricSpace) -> T,
    ) -> KernelStats {
        let tally = || s.kernel_stats().unwrap_or_default();
        f(s); // builds any lazy index outside the compared calls
        let t0 = tally();
        let direct = f(s);
        let t1 = tally();
        assert_eq!(f(&MemoizedSpace::new(s)), direct);
        assert_eq!(tally().since(&t1), t1.since(&t0), "kernel tallies");
        t1.since(&t0)
    }

    #[test]
    fn forwards_every_method_to_the_inner_space() {
        let cube = EuclideanSpace::new(datasets::uniform_cube(300, 3, 1));
        let points = datasets::user_embeddings(4000, 32, 16, 0.03, 1e-3, 32);
        let clustered = EuclideanSpace::new(points).with_speed_tier(SpeedTier::Soa);
        for (s, prunes) in [(&cube, false), (&clustered, true)] {
            let n = s.n() as u32;
            let qs: Vec<u32> = (0..200).map(|i| (i * 1297 + 5) % n).collect();
            let c: Vec<u32> = (0..700).map(|i| (i * 2713 + 11) % n).collect();
            let set: Vec<PointId> = c.iter().map(|&x| PointId(x)).collect();
            let (v, mut out, mut ds) = (PointId(qs[0]), Vec::new(), Vec::new());
            s.dists_into(v, &c, &mut ds);
            ds.sort_by(f64::total_cmp);
            let taus = [ds[7], ds[70], ds[350]]; // pair distances, in-cluster first
            same(s, |m| m.dist_to_set(v, &set));
            same(s, |m| m.count_within_taus(v, &c, &taus));
            same(s, |m| m.neighbors_within_taus(v, &c, &taus));
            same(s, |m| (m.dists_into(v, &c, &mut ds), ds.clone()));
            for (i, tau) in taus.into_iter().enumerate() {
                same(s, |m| {
                    let pair = |&x: &u32| (m.dist(v, PointId(x)), m.within(v, PointId(x), tau));
                    let scalar = (m.n(), m.point_weight(), m.kernel_stats().is_some());
                    (scalar, c.iter().map(pair).collect::<Vec<_>>())
                });
                same(s, |m| m.count_within(v, &c, tau));
                same(s, |m| {
                    (m.neighbors_within(v, &c, tau, &mut out), out.clone())
                });
                same(s, |m| m.neighbors_within_many(&qs, &c, tau));
                let grown = same(s, |m| m.count_within_many(&qs, &c, tau)).run_pairs;
                // The ball index pruned the in-cluster scan; no default would.
                assert!(!prunes || i > 0 || 2 * grown < 200 * 700, "{grown} pairs");
            }
            let memo = MemoizedSpace::new(s);
            memo.prewarm_taus(&taus);
            assert_eq!(memo.stats(), MemoStats::default());
        }
    }
}
