//! τ-independent distance memo for threshold ladders that repeat their
//! queries.
//!
//! A ladder re-runs [`crate::kbmis::k_bounded_mis`] at `O(log 1/ε)` rungs
//! `τ_i`. When successive rungs issue bulk threshold queries for identical
//! `(vertex, candidate set)` pairs — only the threshold changing —
//! [`MemoizedSpace`] caches the **distance vector** of each pair once and
//! answers every later `count_within` / `neighbors_within` for any `τ`
//! from the cached distances, turning `O(log 1/ε)` full distance passes
//! into one.
//!
//! That premise holds for `mpc-serving`, the memo's one pipeline consumer:
//! every query on a snapshot runs its ladder over the same frozen coreset
//! union on a 1-machine cluster, and its 512-point rows hit 58% of the
//! time. It does *not* hold for the batch drivers (Algorithms 2, 5, 6):
//! their rungs share one [`mpc_sim::Cluster`], whose RNG is keyed by the
//! ledger's round count, so each rung's MIS draws fresh degree samples and
//! the candidate-set fingerprints almost never repeat. Measured in front
//! of those ladders, the memo hit 0.02% of queries on the
//! `kcenter-allpairs-d32` benchmark workload and 0.66% on
//! `diversity-loopback-d16`, while every miss paid a `sqrt` per pair and
//! a locked insert. Those drivers therefore run their rungs on the
//! caller's metric and its squared-threshold / tiled kernels directly
//! (DESIGN.md §6.3).
//!
//! Two further layers make the re-probes cheap (DESIGN.md §6.3):
//!
//! * **Sharded locks.** The cache is striped over [`MEMO_SHARDS`]
//!   independently locked shards keyed by the pair fingerprint, so the
//!   worker pool's machine closures don't convoy on one global mutex.
//! * **Sorted companion rows.** On a cached vector's *second* touch the
//!   memo attaches a copy of the vector sorted ascending plus the sort
//!   permutation. Every later `count_within(τ)` is then a
//!   `partition_point` prefix — O(log c) instead of the O(c) re-scan —
//!   and `neighbors_within(τ)` maps the prefix positions back through the
//!   candidate list in candidate order. A repeating ladder probes ~4–7
//!   rungs through identical pairs, so this deletes the dominant repeated
//!   DRAM traffic. Demonstrated reuse is deliberately the *only* trigger: an
//!   eager variant (sort on first store once a rung schedule was
//!   registered) slowed the full n=8000 k-center pipeline ~8× — most rows
//!   the inner MIS loops fill are never queried again, and sorting a
//!   never-reused row costs more than every scan it could ever save.
//!   [`MemoizedSpace::prewarm_taus`] instead *retrofits* companions onto
//!   rows already cached at call time, which benches use to take the
//!   one-time sort out of the measured region.
//!
//! The memo is a *local compute* optimization and lives entirely outside
//! MPC accounting: it forwards [`MetricSpace::point_weight`] untouched and
//! never talks to the [`mpc_sim::Cluster`], so round and word counts are
//! bit-for-bit those of the unmemoized run (asserted by the tests below,
//! the neutrality suite, and the root `tests/memo_neutrality.rs` for the
//! full Algorithm 2/5/6 pipelines).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpc_metric::{MetricSpace, PointId};

/// Default cap on cached distances (`f64`-equivalent words): 2²² ≈ 32 MiB,
/// split evenly across the shards.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 22;

/// Number of independently locked cache shards. Enough that the PR-3 pool's
/// machine closures (typically ≤ a few dozen concurrent lookups) rarely
/// collide, small enough that striping the capacity doesn't starve any
/// shard.
pub const MEMO_SHARDS: usize = 16;

/// FNV-1a over the candidate ids (length-prefixed). Two distinct candidate
/// sets colliding on both length and this 64-bit digest would silently
/// alias a cache entry; at the cache sizes involved (thousands of entries)
/// the collision probability is ≪ 2⁻⁴⁰, which we accept for an
/// accounting-invisible cache.
fn fingerprint(candidates: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(candidates.len() as u32);
    for &c in candidates {
        eat(c);
    }
    h
}

/// The sorted companion of a cached distance vector: `d` ascending by
/// `total_cmp`, `pos[i]` the index of `d[i]` in the unsorted vector (ties
/// broken by position, so the permutation is a pure function of the
/// vector). Never built over vectors containing NaN — a NaN would break
/// the `d <= τ` prefix structure `partition_point` needs — those rows
/// simply keep the scan path.
struct SortedRow {
    d: Vec<f64>,
    pos: Vec<u32>,
}

impl SortedRow {
    fn build(dists: &[f64]) -> Option<SortedRow> {
        if dists.iter().any(|d| d.is_nan()) {
            return None;
        }
        let mut pos: Vec<u32> = (0..dists.len() as u32).collect();
        pos.sort_unstable_by(|&a, &b| {
            dists[a as usize]
                .total_cmp(&dists[b as usize])
                .then(a.cmp(&b))
        });
        let d = pos.iter().map(|&i| dists[i as usize]).collect();
        Some(SortedRow { d, pos })
    }

    /// `|{i : d[i] <= tau}|` in O(log c): the `d <= τ` predicate is a true
    /// prefix of the ascending array (NaNs were excluded at build time),
    /// so the partition point *is* the count — for any τ, including NaN
    /// (empty prefix) and ±∞.
    fn count(&self, tau: f64) -> usize {
        self.d.partition_point(|&d| d <= tau)
    }
}

/// Extra capacity words a sorted companion row charges: the sorted copy
/// (`len` f64s) plus the `u32` permutation (`len/2` f64-equivalents).
fn sorted_cost(len: usize) -> usize {
    len + len.div_ceil(2)
}

/// Point-in-time snapshot of a [`MemoizedSpace`]'s counters and residency
/// (see [`MemoizedSpace::stats`]). All counts are cumulative since
/// construction except `entries`/`sorted_rows`/`stored_words`, which
/// describe what is resident *now* (post-flush).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Bulk queries answered from cache.
    pub hits: u64,
    /// Bulk queries that had to compute their distance vector.
    pub misses: u64,
    /// Shard flushes forced by the capacity cap.
    pub flushes: u64,
    /// Sorted companion rows built (counting rebuilds after eviction).
    pub sorted_builds: u64,
    /// Rows currently resident.
    pub entries: usize,
    /// Resident rows that carry a sorted companion.
    pub sorted_rows: usize,
    /// `f64`-equivalent words held by resident vectors and sorted rows.
    pub stored_words: usize,
}

impl MemoStats {
    /// Approximate resident heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.stored_words * std::mem::size_of::<f64>()
    }
}

struct Entry {
    dists: Arc<Vec<f64>>,
    sorted: Option<Arc<SortedRow>>,
    /// The vector contains NaN; don't retry the sort on every touch.
    unsortable: bool,
    /// Lookups served from this entry, counting the initial fill.
    touches: u32,
}

#[derive(Default)]
struct Shard {
    map: HashMap<(u32, u64), Entry>,
    /// Total `f64`-equivalent words held by this shard's vectors and
    /// sorted rows.
    stored: usize,
    flushes: u64,
}

/// A cached `(vertex, candidate-set)` row handed to the kernel impls:
/// the distance vector plus its sorted companion when one exists.
#[derive(Clone)]
struct Row {
    dists: Arc<Vec<f64>>,
    sorted: Option<Arc<SortedRow>>,
}

impl Row {
    fn count(&self, tau: f64) -> usize {
        match &self.sorted {
            Some(s) => s.count(tau),
            None => self.dists.iter().filter(|&&d| d <= tau).count(),
        }
    }

    /// Appends the neighbors within `tau` in candidate order. The sorted
    /// fast path copies the prefix positions and re-sorts them ascending —
    /// position order *is* candidate order — and falls back to the linear
    /// scan when the prefix is most of the row (the scan is then cheaper
    /// and both produce identical output).
    fn neighbors(&self, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        out.clear();
        if let Some(s) = &self.sorted {
            let cnt = s.count(tau);
            if cnt * 4 < s.d.len() {
                let mut prefix: Vec<u32> = s.pos[..cnt].to_vec();
                prefix.sort_unstable();
                out.extend(prefix.iter().map(|&i| candidates[i as usize]));
                return;
            }
        }
        out.extend(
            candidates
                .iter()
                .zip(self.dists.iter())
                .filter(|&(_, &d)| d <= tau)
                .map(|(&c, _)| c),
        );
    }
}

/// A [`MetricSpace`] adapter that memoizes the distance vectors behind the
/// bulk threshold kernels. See the module docs for when this pays off.
///
/// Scalar comparisons (`within`) and the bulk kernels both decide
/// adjacency as `dist(i, j) <= τ` on the *same* `dist` values, so the
/// wrapper is self-consistent across call shapes — including the sorted
/// and multi-τ paths, which compare the identical cached values. Note the
/// wrapped space's own `within` may use an algebraically equal but
/// floating-point-different test (e.g. `EuclideanSpace` compares squared
/// distances); the two can in principle disagree within 1 ulp of a
/// threshold boundary, which the ladder's irrational rungs never hit in
/// practice.
pub struct MemoizedSpace<'a, M: MetricSpace + ?Sized> {
    inner: &'a M,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    sorted_builds: AtomicU64,
    sorted_enabled: bool,
    /// Per-shard word cap ([`DEFAULT_MEMO_CAPACITY`] `/` [`MEMO_SHARDS`]
    /// by default).
    shard_capacity: usize,
}

impl<'a, M: MetricSpace + ?Sized> MemoizedSpace<'a, M> {
    /// Wraps `inner` with the default ≈32 MiB cache.
    pub fn new(inner: &'a M) -> Self {
        Self::with_capacity(inner, DEFAULT_MEMO_CAPACITY)
    }

    /// Wraps `inner`, capping the cache at `capacity` stored words total
    /// (`capacity / MEMO_SHARDS` per shard). When an insert would exceed a
    /// shard's cap, that shard is flushed first (cheap epoch eviction — the
    /// ladder's access pattern has no useful LRU structure, it either
    /// reuses everything or nothing). Vectors larger than the per-shard cap
    /// are computed but never stored, so `with_capacity(0)` degrades to a
    /// pass-through rather than looping.
    pub fn with_capacity(inner: &'a M, capacity: usize) -> Self {
        Self {
            inner,
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            sorted_builds: AtomicU64::new(0),
            sorted_enabled: true,
            shard_capacity: capacity / MEMO_SHARDS,
        }
    }

    /// Disables the sorted companion rows, leaving only the PR-4 behavior
    /// (cached vectors re-scanned per τ). For benchmarking the sorted-row
    /// speedup and for isolating regressions; results are identical either
    /// way.
    pub fn without_sorted_rows(mut self) -> Self {
        self.sorted_enabled = false;
        self
    }

    /// The wrapped space.
    pub fn inner(&self) -> &'a M {
        self.inner
    }

    /// Bulk queries answered from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Bulk queries that had to compute their distance vector.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Times any shard was flushed to respect the capacity cap.
    pub fn flushes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().flushes).sum()
    }

    /// Sorted companion rows built so far (counting rebuilds after
    /// eviction).
    pub fn sorted_rows_built(&self) -> u64 {
        self.sorted_builds.load(Ordering::Relaxed)
    }

    /// One consistent snapshot of the cache counters and residency — for
    /// telemetry and the `ladder_digest` probe. Counter reads are relaxed
    /// (exact once the queries being summarized have completed); residency
    /// takes each shard lock briefly. Purely observational: calling this
    /// never changes cache behavior.
    pub fn stats(&self) -> MemoStats {
        let mut entries = 0usize;
        let mut sorted_rows = 0usize;
        let mut stored_words = 0usize;
        let mut flushes = 0u64;
        for shard in &self.shards {
            let s = shard.lock().unwrap();
            entries += s.map.len();
            sorted_rows += s.map.values().filter(|e| e.sorted.is_some()).count();
            stored_words += s.stored;
            flushes += s.flushes;
        }
        MemoStats {
            hits: self.hits(),
            misses: self.misses(),
            flushes,
            sorted_builds: self.sorted_rows_built(),
            entries,
            sorted_rows,
            stored_words,
        }
    }

    /// Registers a rung schedule: the boundary search will probe (up to)
    /// `taus.len()` thresholds through the same cached pairs, so every row
    /// *already cached* gets its sorted companion retrofitted now (a row
    /// that survived to prewarm time is a reuse candidate, and with ≥ 2
    /// rungs ahead the sort pays for itself). Rows cached *later* keep the
    /// second-touch trigger — sorting on first store was measured to be a
    /// large pessimization on fill-dominated ladders (see the module
    /// docs). Purely a local-compute hint — cache *values*, hit/miss
    /// counters, and all query answers are unchanged.
    pub fn prewarm_taus(&self, taus: &[f64]) {
        if !self.sorted_enabled || taus.len() < 2 {
            return;
        }
        for shard in &self.shards {
            let mut guard = shard.lock().unwrap();
            let Shard { map, stored, .. } = &mut *guard;
            for e in map.values_mut() {
                if e.sorted.is_some() || e.unsortable {
                    continue;
                }
                let cost = sorted_cost(e.dists.len());
                if *stored + cost > self.shard_capacity {
                    continue;
                }
                match SortedRow::build(&e.dists) {
                    Some(sr) => {
                        *stored += cost;
                        e.sorted = Some(Arc::new(sr));
                        self.sorted_builds.fetch_add(1, Ordering::Relaxed);
                    }
                    None => e.unsortable = true,
                }
            }
        }
    }

    fn shard_of(&self, key: (u32, u64)) -> usize {
        // Spread same-fingerprint entries (the common case: every machine
        // querying different vertices against one shared candidate set)
        // across shards by mixing the vertex in.
        let h = (key.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key.1;
        (h % MEMO_SHARDS as u64) as usize
    }

    /// Computes the distance vector for one missing query through the
    /// inner space's bulk [`MetricSpace::dists_into`] kernel — bit-identical
    /// to a per-pair `dist` loop by that method's contract, at every thread
    /// count by the chunked fill's determinism contract.
    fn fill_vector(&self, v: PointId, candidates: &[u32]) -> Arc<Vec<f64>> {
        let mut filled = Vec::new();
        self.inner.dists_into(v, candidates, &mut filled);
        Arc::new(filled)
    }

    /// Cache probe: on a hit, bumps the touch count and lazily attaches
    /// the sorted companion row on the second touch, charging it against
    /// the shard budget.
    fn lookup(&self, key: (u32, u64)) -> Option<Row> {
        let mut guard = self.shards[self.shard_of(key)].lock().unwrap();
        let Shard { map, stored, .. } = &mut *guard;
        let e = map.get_mut(&key)?;
        e.touches += 1;
        if e.sorted.is_none() && !e.unsortable && self.sorted_enabled && e.touches >= 2 {
            let cost = sorted_cost(e.dists.len());
            if *stored + cost <= self.shard_capacity {
                match SortedRow::build(&e.dists) {
                    Some(sr) => {
                        *stored += cost;
                        e.sorted = Some(Arc::new(sr));
                        self.sorted_builds.fetch_add(1, Ordering::Relaxed);
                    }
                    None => e.unsortable = true,
                }
            }
        }
        Some(Row {
            dists: Arc::clone(&e.dists),
            sorted: e.sorted.clone(),
        })
    }

    /// Inserts a freshly computed vector, honoring the per-shard cap with
    /// the epoch flush. Never sorts: a fresh row has no demonstrated
    /// reuse, and sorting every fill was measured to dominate the ladder's
    /// wall-clock (module docs).
    fn store(&self, key: (u32, u64), d: &Arc<Vec<f64>>) {
        let mut guard = self.shards[self.shard_of(key)].lock().unwrap();
        let shard = &mut *guard;
        if shard.stored + d.len() > self.shard_capacity {
            shard.map.clear();
            shard.stored = 0;
            shard.flushes += 1;
        }
        if d.len() > self.shard_capacity {
            return;
        }
        shard.stored += d.len();
        if let Some(old) = shard.map.insert(
            key,
            Entry {
                dists: Arc::clone(d),
                sorted: None,
                unsortable: false,
                touches: 1,
            },
        ) {
            // Concurrent fill of the same pair: refund the replaced entry.
            let mut refund = old.dists.len();
            if old.sorted.is_some() {
                refund += sorted_cost(old.dists.len());
            }
            shard.stored = shard.stored.saturating_sub(refund);
        }
    }

    /// The distance row from `v` to `candidates`, cached by
    /// `(v, fingerprint(candidates))` — deliberately *not* keyed by any
    /// threshold, so every ladder rung shares one entry.
    fn row(&self, v: PointId, candidates: &[u32]) -> Row {
        let key = (v.0, fingerprint(candidates));
        if let Some(r) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return r;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let d = self.fill_vector(v, candidates);
        self.store(key, &d);
        Row {
            dists: d,
            sorted: None,
        }
    }

    /// Multi-query twin of [`MemoizedSpace::row`]: one row per query in
    /// `vs`, against the shared `candidates`. Hits and misses are decided
    /// sequentially on the caller thread (duplicate missing queries
    /// collapse onto the first occurrence's fill and count as hits,
    /// mirroring the sequential loop); the missing vectors are then
    /// computed in one batched pass — fixed query chunks across the worker
    /// pool, each vector an independent deterministic fill — and inserted
    /// in first-occurrence order, so cache state, counters, and values are
    /// identical at every thread count.
    fn rows_many(&self, vs: &[u32], candidates: &[u32]) -> Vec<Row> {
        let fp = fingerprint(candidates);
        let mut rows: Vec<Option<Row>> = vec![None; vs.len()];
        // missing[i] = (vertex, every position) of a distinct missing
        // vertex, in first-occurrence order; `slot` indexes it by vertex.
        let mut missing: Vec<(u32, Vec<usize>)> = Vec::new();
        let mut slot: HashMap<u32, usize> = HashMap::new();
        let mut hits = 0u64;
        for (i, &v) in vs.iter().enumerate() {
            if let Some(r) = self.lookup((v, fp)) {
                hits += 1;
                rows[i] = Some(r);
            } else if let Some(&j) = slot.get(&v) {
                hits += 1;
                missing[j].1.push(i);
            } else {
                slot.insert(v, missing.len());
                missing.push((v, vec![i]));
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        if !missing.is_empty() {
            let filled: Vec<Arc<Vec<f64>>> =
                if mpc_metric::par_bulk_pairs(missing.len(), candidates.len()) {
                    use rayon::prelude::*;
                    let chunk = missing.len().div_ceil(rayon::pool::MAX_CHUNKS).max(1);
                    missing
                        .par_chunks(chunk)
                        .map(|part| {
                            part.iter()
                                .map(|&(v, _)| self.fill_vector(PointId(v), candidates))
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                        .concat()
                } else {
                    missing
                        .iter()
                        .map(|&(v, _)| self.fill_vector(PointId(v), candidates))
                        .collect()
                };
            for ((v, positions), d) in missing.iter().zip(&filled) {
                self.store((*v, fp), d);
                let row = Row {
                    dists: Arc::clone(d),
                    sorted: None,
                };
                for &i in positions {
                    rows[i] = Some(row.clone());
                }
            }
        }
        rows.into_iter().map(|r| r.expect("row filled")).collect()
    }
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
        // `dist`-based on purpose: matches how the cached vectors are
        // compared below, keeping scalar and bulk answers identical.
        self.inner.dist(i, j) <= tau
    }

    fn count_within(&self, v: PointId, candidates: &[u32], tau: f64) -> usize {
        self.row(v, candidates).count(tau)
    }

    fn neighbors_within(&self, v: PointId, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        self.row(v, candidates).neighbors(candidates, tau, out)
    }

    /// Answers the whole batch from `MemoizedSpace::rows_many`: cached
    /// rows answer via their sorted companion (a `partition_point`) or a
    /// direct scan, and the misses were filled in one batched pass instead
    /// of one fill per query.
    fn count_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<usize> {
        self.rows_many(vs, candidates)
            .into_iter()
            .map(|row| row.count(tau))
            .collect()
    }

    /// See [`MemoizedSpace::count_within_many`] on this impl.
    fn neighbors_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        self.rows_many(vs, candidates)
            .into_iter()
            .map(|row| {
                row.neighbors(candidates, tau, &mut out);
                out.clone()
            })
            .collect()
    }

    /// Multi-τ sweep over one cached row. With a sorted companion every
    /// rung is an independent `partition_point` (O(|taus| log c) total);
    /// without one, a single entry-rung pass over the vector answers all
    /// rungs. Both compare the identical cached `dist` values the per-τ
    /// kernels compare, so every rung's answer is bit-identical to calling
    /// [`MetricSpace::count_within`] per τ.
    ///
    /// Deliberately *not* forwarded to the inner space's multi-τ kernel:
    /// Euclidean's works on squared thresholds, and mixing its verdicts
    /// with this wrapper's `dist`-based ones could flip 1-ulp boundary
    /// cases depending on cache state (see DESIGN.md §6.3).
    fn count_within_taus(&self, v: PointId, candidates: &[u32], taus: &[f64]) -> Vec<usize> {
        debug_assert!(
            taus.windows(2).all(|w| w[0] <= w[1]),
            "count_within_taus requires non-decreasing thresholds"
        );
        let row = self.row(v, candidates);
        match &row.sorted {
            Some(s) => taus.iter().map(|&t| s.count(t)).collect(),
            None => {
                let mut counts = vec![0usize; taus.len()];
                if let Some(&last) = taus.last() {
                    for &d in row.dists.iter() {
                        // `!(d <= last)` sheds NaNs along with the
                        // out-of-ladder distances.
                        if d <= last {
                            counts[taus.partition_point(|&t| t < d)] += 1;
                        }
                    }
                    for j in 1..counts.len() {
                        counts[j] += counts[j - 1];
                    }
                }
                counts
            }
        }
    }

    /// See [`MemoizedSpace::count_within_taus`] on this impl; each rung's
    /// list preserves candidate order.
    fn neighbors_within_taus(&self, v: PointId, candidates: &[u32], taus: &[f64]) -> Vec<Vec<u32>> {
        debug_assert!(
            taus.windows(2).all(|w| w[0] <= w[1]),
            "neighbors_within_taus requires non-decreasing thresholds"
        );
        let row = self.row(v, candidates);
        let mut out = Vec::new();
        taus.iter()
            .map(|&t| {
                row.neighbors(candidates, t, &mut out);
                out.clone()
            })
            .collect()
    }

    /// Raw distance fills bypass the memo (they are not keyed by a reusable
    /// `(vertex, candidate-set)` bulk query) and forward to the inner
    /// space's exact bulk kernel.
    fn dists_into(&self, v: PointId, candidates: &[u32], out: &mut Vec<f64>) {
        self.inner.dists_into(v, candidates, out)
    }

    fn dist_to_set(&self, p: PointId, set: &[PointId]) -> f64 {
        self.inner.dist_to_set(p, set)
    }

    /// Kernel tallies surface from the inner space: memo hits answer from
    /// cached rows without touching the kernels, so the inner counts are
    /// exactly the pairs that actually ran.
    fn kernel_stats(&self) -> Option<mpc_metric::KernelStats> {
        self.inner.kernel_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kbmis::k_bounded_mis;
    use crate::params::Params;
    use mpc_metric::{datasets, EuclideanSpace};
    use mpc_sim::{Cluster, Partition};

    fn space(n: usize, seed: u64) -> EuclideanSpace {
        EuclideanSpace::new(datasets::uniform_cube(n, 3, seed))
    }

    #[test]
    fn bulk_answers_match_scalar_dist_filter() {
        let m = space(60, 1);
        let memo = MemoizedSpace::new(&m);
        let candidates: Vec<u32> = (0..60).step_by(2).collect();
        for v in [0u32, 7, 59] {
            for tau in [0.0, 0.2, 0.5, 2.0] {
                let want: Vec<u32> = candidates
                    .iter()
                    .copied()
                    .filter(|&c| m.dist(PointId(v), PointId(c)) <= tau)
                    .collect();
                assert_eq!(memo.count_within(PointId(v), &candidates, tau), want.len());
                let mut got = Vec::new();
                memo.neighbors_within(PointId(v), &candidates, tau, &mut got);
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn reuse_across_thresholds_hits_the_cache() {
        let m = space(50, 2);
        let memo = MemoizedSpace::new(&m);
        let candidates: Vec<u32> = (0..50).collect();
        memo.count_within(PointId(3), &candidates, 0.4);
        assert_eq!((memo.hits(), memo.misses()), (0, 1));
        // Same pair, three other thresholds and the filter shape: all hits.
        memo.count_within(PointId(3), &candidates, 0.2);
        memo.count_within(PointId(3), &candidates, 0.1);
        let mut out = Vec::new();
        memo.neighbors_within(PointId(3), &candidates, 0.3, &mut out);
        assert_eq!((memo.hits(), memo.misses()), (3, 1));
        // Different vertex or candidate set: miss.
        memo.count_within(PointId(4), &candidates, 0.2);
        memo.count_within(PointId(3), &candidates[1..], 0.2);
        assert_eq!((memo.hits(), memo.misses()), (3, 3));
    }

    #[test]
    fn capacity_cap_flushes_but_stays_correct() {
        let m = space(40, 3);
        // Room for a single 40-distance vector: every new pair flushes.
        let memo = MemoizedSpace::with_capacity(&m, 40);
        let candidates: Vec<u32> = (0..40).collect();
        for v in 0..10u32 {
            let got = memo.count_within(PointId(v), &candidates, 0.6);
            let want = candidates
                .iter()
                .filter(|&&c| m.dist(PointId(v), PointId(c)) <= 0.6)
                .count();
            assert_eq!(got, want);
        }
        assert!(memo.flushes() > 0);
        // A vector larger than the whole cap is computed but never stored.
        let big = MemoizedSpace::with_capacity(&m, 8);
        big.count_within(PointId(0), &candidates, 0.6);
        big.count_within(PointId(0), &candidates, 0.6);
        assert_eq!(big.hits(), 0);
    }

    /// Satellite regression: counters across a forced epoch flush. A tiny
    /// cache serving a rotating set of pairs must miss on re-queries of
    /// evicted pairs, flush repeatedly, and keep every answer correct.
    #[test]
    fn epoch_flush_counter_regression() {
        let m = space(32, 11);
        let candidates: Vec<u32> = (0..32).collect();
        // Per-shard capacity = 512 / 16 = 32: room for exactly one
        // 32-distance vector per shard, so shards holding several of the
        // 32 pairs evict on every insert.
        let memo = MemoizedSpace::with_capacity(&m, 512);
        let want = |v: u32| {
            candidates
                .iter()
                .filter(|&&c| m.dist(PointId(v), PointId(c)) <= 0.7)
                .count()
        };
        for round in 0..3 {
            for v in 0..32u32 {
                assert_eq!(
                    memo.count_within(PointId(v), &candidates, 0.7),
                    want(v),
                    "round {round} vertex {v}"
                );
            }
        }
        // 32 distinct pairs over 16 shards of 1-vector effective capacity:
        // most re-queries evicted their predecessor, so misses dominate and
        // flushes accumulated; hits + misses always equals total queries.
        assert_eq!(memo.hits() + memo.misses(), 96);
        assert!(memo.flushes() > 0, "tiny cache must have flushed");
        assert!(memo.misses() > 32, "evicted pairs must re-miss");
    }

    /// Satellite regression: sorted companion rows are rebuilt after an
    /// eviction wiped them, and answers stay correct throughout.
    #[test]
    fn sorted_rows_rebuilt_after_eviction() {
        let m = space(64, 13);
        let candidates: Vec<u32> = (0..64).collect();
        // Per-shard capacity = 224: one 64-distance vector + its sorted
        // companion (64 + 32 words) + one bare evictor vector.
        let memo = MemoizedSpace::with_capacity(&m, 224 * MEMO_SHARDS);
        let want = |v: u32, tau: f64| {
            candidates
                .iter()
                .filter(|&&c| m.dist(PointId(v), PointId(c)) <= tau)
                .count()
        };
        // Two touches: second touch builds the sorted row.
        assert_eq!(
            memo.count_within(PointId(1), &candidates, 0.5),
            want(1, 0.5)
        );
        assert_eq!(
            memo.count_within(PointId(1), &candidates, 0.3),
            want(1, 0.3)
        );
        assert_eq!(memo.sorted_rows_built(), 1);
        // For a fixed candidate fingerprint, the shard hash reduces to
        // (v * mult) mod MEMO_SHARDS xor-ed with a constant, so with 16
        // shards vertices ≡ 1 (mod 16) deterministically share vertex 1's
        // shard. Two of them overflow the 224-word budget and flush it.
        let flushes_before = memo.flushes();
        memo.count_within(PointId(17), &candidates, 0.5);
        memo.count_within(PointId(33), &candidates, 0.5);
        assert!(memo.flushes() > flushes_before, "evictors must flush");
        // Re-touch vertex 1 twice: vector refills, sorted row rebuilds.
        let builds_before = memo.sorted_rows_built();
        assert_eq!(
            memo.count_within(PointId(1), &candidates, 0.5),
            want(1, 0.5)
        );
        assert_eq!(
            memo.count_within(PointId(1), &candidates, 0.2),
            want(1, 0.2)
        );
        assert!(
            memo.sorted_rows_built() > builds_before,
            "sorted row must be rebuilt after eviction"
        );
    }

    /// Satellite regression: `with_capacity(0)` never stores, never loops,
    /// and stays a correct pass-through.
    #[test]
    fn zero_capacity_is_a_pass_through() {
        let m = space(24, 5);
        let candidates: Vec<u32> = (0..24).collect();
        let memo = MemoizedSpace::with_capacity(&m, 0);
        for _ in 0..3 {
            assert_eq!(
                memo.count_within(PointId(0), &candidates, 0.6),
                m.count_within_taus(PointId(0), &candidates, &[0.6])[0]
            );
        }
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.misses(), 3);
        assert_eq!(memo.sorted_rows_built(), 0);
    }

    /// The sorted fast path and the scan answer identically for every
    /// query shape, including ties, τ = 0, and the multi-τ sweep.
    #[test]
    fn sorted_rows_answer_identically_to_scans() {
        let m = space(64, 17);
        let candidates: Vec<u32> = {
            let mut v: Vec<u32> = (0..64).collect();
            v.extend([0, 0, 31]); // duplicates exercise position mapping
            v
        };
        let sorted = MemoizedSpace::new(&m);
        let plain = MemoizedSpace::new(&m).without_sorted_rows();
        let taus: Vec<f64> = vec![-1.0, 0.0, 0.15, 0.3, 0.3, 0.6, 2.0];
        for v in [0u32, 5, 63] {
            // Touch twice so the sorted row exists for later probes.
            sorted.count_within(PointId(v), &candidates, 0.4);
            plain.count_within(PointId(v), &candidates, 0.4);
            for &tau in &taus {
                assert_eq!(
                    sorted.count_within(PointId(v), &candidates, tau),
                    plain.count_within(PointId(v), &candidates, tau),
                    "count v={v} tau={tau}"
                );
                let (mut a, mut b) = (Vec::new(), Vec::new());
                sorted.neighbors_within(PointId(v), &candidates, tau, &mut a);
                plain.neighbors_within(PointId(v), &candidates, tau, &mut b);
                assert_eq!(a, b, "neighbors v={v} tau={tau}");
            }
            assert_eq!(
                sorted.count_within_taus(PointId(v), &candidates, &taus),
                plain.count_within_taus(PointId(v), &candidates, &taus),
                "multi-τ counts v={v}"
            );
            assert_eq!(
                sorted.neighbors_within_taus(PointId(v), &candidates, &taus),
                plain.neighbors_within_taus(PointId(v), &candidates, &taus),
                "multi-τ lists v={v}"
            );
        }
        assert!(sorted.sorted_rows_built() > 0);
        assert_eq!(plain.sorted_rows_built(), 0);
    }

    /// `prewarm_taus` retrofits sorted rows onto already-cached entries
    /// and *only* those — fresh fills keep the second-touch trigger (an
    /// eager-on-store variant was a measured pipeline pessimization).
    /// Counters and answers are unchanged.
    #[test]
    fn prewarm_retrofits_cached_rows_only() {
        let m = space(40, 19);
        let candidates: Vec<u32> = (0..40).collect();
        let memo = MemoizedSpace::new(&m);
        memo.count_within(PointId(2), &candidates, 0.5); // cached, unsorted
        assert_eq!(memo.sorted_rows_built(), 0);
        let taus = [0.1, 0.2, 0.4, 0.8];
        memo.prewarm_taus(&taus);
        assert_eq!(memo.sorted_rows_built(), 1, "existing row retrofitted");
        memo.count_within(PointId(3), &candidates, 0.5); // fresh fill
        assert_eq!(memo.sorted_rows_built(), 1, "first touch must not sort");
        memo.count_within(PointId(3), &candidates, 0.3); // second touch
        assert_eq!(memo.sorted_rows_built(), 2, "reuse builds the companion");
        // A one-rung schedule is not worth sorting for.
        let single = MemoizedSpace::new(&m);
        single.count_within(PointId(2), &candidates, 0.5);
        single.prewarm_taus(&[0.5]);
        assert_eq!(single.sorted_rows_built(), 0);
        // Answers across the schedule match the inner metric exactly.
        for &tau in &taus {
            assert_eq!(
                memo.count_within(PointId(2), &candidates, tau),
                candidates
                    .iter()
                    .filter(|&&c| m.dist(PointId(2), PointId(c)) <= tau)
                    .count()
            );
        }
    }

    /// The acceptance criterion for the ladder memo: per-rung results and
    /// the full MPC ledger are identical with and without the memo, and a
    /// multi-τ sequence actually reuses cached work.
    #[test]
    fn memo_is_result_and_accounting_neutral_for_kbmis() {
        let n = 180;
        let metric = space(n, 7);
        let params = Params::practical(4, 0.1, 7);
        let alive = Partition::round_robin(n, 4).all_items().to_vec();
        let memo = MemoizedSpace::new(&metric);
        let mut hits_before = 0;
        for (rung, tau) in [0.35, 0.25, 0.18, 0.12].into_iter().enumerate() {
            let mut plain_cluster = Cluster::new(4, 7);
            let plain = k_bounded_mis(
                &mut plain_cluster,
                &metric,
                &alive,
                tau,
                6,
                n,
                &params,
                false,
            );
            let mut memo_cluster = Cluster::new(4, 7);
            let memod = k_bounded_mis(&mut memo_cluster, &memo, &alive, tau, 6, n, &params, false);
            assert_eq!(plain.set, memod.set, "rung {rung} (tau {tau})");
            assert_eq!(plain.outcome, memod.outcome);
            let (a, b) = (plain_cluster.ledger(), memo_cluster.ledger());
            assert_eq!(a.rounds(), b.rounds(), "rung {rung}: round counts");
            for (ra, rb) in a.records().iter().zip(b.records().iter()) {
                assert_eq!(ra.label, rb.label);
                assert_eq!(ra.per_machine, rb.per_machine, "round {}", ra.round);
            }
            if rung > 0 {
                assert!(
                    memo.hits() > hits_before,
                    "rung {rung} should reuse cached distance vectors"
                );
            }
            hits_before = memo.hits();
        }
    }
}
