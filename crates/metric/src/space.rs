//! The distance-oracle trait and common set-distance helpers.

use crate::euclidean::EuclideanSpace;
use crate::point::PointId;
use rayon::prelude::*;

/// Minimum candidate-batch size before a bulk kernel fans out across the
/// worker pool. Below this the pool's publish/claim overhead (an op push,
/// a condvar wake, one atomic per chunk) is on the order of the scan
/// itself; above it the scan cost dominates.
pub const PAR_MIN_BULK: usize = 4096;

/// Whether a bulk kernel over `n_candidates` items should take its
/// parallel path: the batch is at least [`PAR_MIN_BULK`] *and* the calling
/// thread's effective pool width exceeds 1. At `threads = 1` kernels never
/// enter the chunked path, so the single-thread mode runs the exact
/// sequential scans it always has.
pub fn par_bulk(n_candidates: usize) -> bool {
    n_candidates >= PAR_MIN_BULK && rayon::current_num_threads() > 1
}

/// Gate for kernels that scan a `rows × cols` pair grid (e.g.
/// `degrees_among`): parallelize over rows only when there are at least
/// two and the grid is big enough to amortize the op overhead.
pub fn par_bulk_pairs(rows: usize, cols: usize) -> bool {
    rows >= 2 && rows.saturating_mul(cols) >= PAR_MIN_BULK && rayon::current_num_threads() > 1
}

/// Work-weighted variant of [`par_bulk`]: gates on `items × words_per_item`
/// instead of the bare item count. [`PAR_MIN_BULK`] was calibrated for
/// ~1-word items (a matrix-row lookup); a d-dimensional Euclidean candidate
/// costs d multiply-adds, so a d=32 batch amortizes the pool's op overhead
/// 32× sooner. Gating on the raw count left exactly that on the table —
/// the d=32 batched≈scalar parity recorded in `BENCH_kernels.json`
/// (see DESIGN.md §6.2).
pub fn par_bulk_weighted(n_items: usize, words_per_item: usize) -> bool {
    n_items.saturating_mul(words_per_item.max(1)) >= PAR_MIN_BULK
        && rayon::current_num_threads() > 1
}

/// Work-weighted variant of [`par_chunk_size`]: the floor that keeps tail
/// chunks worth claiming shrinks with the per-item cost, so high-d rows
/// split into more (still fixed-count) chunks. Like [`par_chunk_size`],
/// a function of the item count and the per-item weight **only** — never
/// of the thread count — preserving the determinism contract.
pub fn par_chunk_size_weighted(n_items: usize, words_per_item: usize) -> usize {
    let floor = (1024 / words_per_item.max(1)).max(16);
    n_items.div_ceil(rayon::pool::MAX_CHUNKS).max(floor)
}

/// Chunk size the parallel kernels split candidate batches into: an even
/// split over the pool's fixed [`rayon::pool::MAX_CHUNKS`], floored at
/// 1024 items so the tail chunks stay worth claiming. A function of the
/// item count **only** — the same batch splits identically at every
/// thread count ≥ 2, which (with associative combines) is what keeps
/// kernel outputs bit-for-bit reproducible across pool sizes.
pub fn par_chunk_size(n_candidates: usize) -> usize {
    n_candidates.div_ceil(rayon::pool::MAX_CHUNKS).max(1024)
}

/// Runs `chunk_kernel` over fixed-size chunks of the *query* list `vs` and
/// concatenates the per-chunk answer rows in chunk order. The chunk split
/// is a function of the query count and per-item weight only, and whole
/// queries never straddle a chunk, so the concatenation is identical to
/// the sequential loop at every thread count. Callers gate on
/// [`par_bulk_pairs`] (or its weighted analogue) first.
pub fn par_query_chunks<T: Send>(
    vs: &[u32],
    chunk_kernel: impl Fn(&[u32]) -> Vec<T> + Sync,
) -> Vec<T> {
    let chunk = vs.len().div_ceil(rayon::pool::MAX_CHUNKS).max(1);
    let parts: Vec<Vec<T>> = vs.par_chunks(chunk).map(chunk_kernel).collect();
    parts.into_iter().flatten().collect()
}

/// A finite metric space with an O(1) distance oracle, mirroring the paper's
/// model (§2): "the distance between any two points in the space can be
/// obtained in O(1) time".
///
/// Implementations must satisfy the metric axioms on the id range
/// `0..n()`:
///
/// * identity: `dist(i, i) == 0`;
/// * symmetry: `dist(i, j) == dist(j, i)`;
/// * triangle inequality: `dist(i, k) <= dist(i, j) + dist(j, k)`.
///
/// [`crate::validate::check_metric_axioms`] spot-checks these on samples;
/// the property-based tests in this crate exercise them exhaustively on
/// small instances.
pub trait MetricSpace: Sync {
    /// Number of points in the space.
    fn n(&self) -> usize;

    /// Distance between points `i` and `j`.
    fn dist(&self, i: PointId, j: PointId) -> f64;

    /// Communication weight of shipping one point between machines, in
    /// abstract machine words. Euclidean points weigh their dimension;
    /// id-only metrics weigh 1.
    fn point_weight(&self) -> u64 {
        1
    }

    /// True iff `dist(i, j) <= tau`, i.e. `i` and `j` are adjacent in the
    /// threshold graph `G_tau`.
    #[inline]
    fn within(&self, i: PointId, j: PointId, tau: f64) -> bool {
        self.dist(i, j) <= tau
    }

    /// Batched threshold count: how many of `candidates` are within `tau`
    /// of `v`. Pure oracle semantics — a candidate equal to `v` counts
    /// whenever `within(v, v, tau)` does (graph layers subtract self-loops
    /// themselves).
    ///
    /// The default is the scalar loop. `EuclideanSpace` overrides it with
    /// kernels that stream its flat storage directly, which is where the
    /// hot adjacency scans of Algorithms 3–5 spend their time; every other
    /// space answers through this default.
    fn count_within(&self, v: PointId, candidates: &[u32], tau: f64) -> usize {
        candidates
            .iter()
            .filter(|&&c| self.within(v, PointId(c), tau))
            .count()
    }

    /// Batched threshold filter: appends to `out` (after clearing it) every
    /// candidate within `tau` of `v`, preserving candidate order. Same
    /// self-pair semantics as [`MetricSpace::count_within`].
    fn neighbors_within(&self, v: PointId, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            candidates
                .iter()
                .copied()
                .filter(|&c| self.within(v, PointId(c), tau)),
        );
    }

    /// Multi-query threshold count: `result[i]` is how many of `candidates`
    /// are within `tau` of `vs[i]` — exactly
    /// [`MetricSpace::count_within`]`(vs[i], candidates, tau)`, query by
    /// query. The hot loops of Algorithms 3–5 evaluate *many* queries
    /// against one shared candidate set; this entry point hands the whole
    /// batch to the space at once so coordinate-backed implementations can
    /// tile candidates through cache across queries (see `EuclideanSpace`)
    /// instead of re-streaming the buffer per query.
    ///
    /// The default is the per-query loop, fanned out over fixed query
    /// chunks on the worker pool for large grids; chunk splits depend on
    /// counts only and rows concatenate in query order, so the output is
    /// identical at every thread count.
    fn count_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<usize> {
        let run = |qs: &[u32]| -> Vec<usize> {
            qs.iter()
                .map(|&v| self.count_within(PointId(v), candidates, tau))
                .collect()
        };
        if par_bulk_pairs(vs.len(), candidates.len()) {
            par_query_chunks(vs, run)
        } else {
            run(vs)
        }
    }

    /// Multi-query threshold filter: `result[i]` is the ordered neighbor
    /// list [`MetricSpace::neighbors_within`] would produce for `vs[i]`.
    /// Same batching rationale and determinism contract as
    /// [`MetricSpace::count_within_many`].
    fn neighbors_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<Vec<u32>> {
        let run = |qs: &[u32]| -> Vec<Vec<u32>> {
            let mut out = Vec::new();
            qs.iter()
                .map(|&v| {
                    self.neighbors_within(PointId(v), candidates, tau, &mut out);
                    out.clone()
                })
                .collect()
        };
        if par_bulk_pairs(vs.len(), candidates.len()) {
            par_query_chunks(vs, run)
        } else {
            run(vs)
        }
    }

    /// Bulk distance fill: clears `out` and appends `dist(v, c)` for every
    /// candidate `c`, in candidate order, **bit-identical** to the per-pair
    /// [`MetricSpace::dist`] loop. Distance-*returning* consumers (GMM's
    /// relaxation, set-distance helpers) ride this instead of the
    /// threshold kernels: they need the actual values, so implementations
    /// must use the same floating-point evaluation as `dist` — not an
    /// algebraic rearrangement (see DESIGN.md §6.2).
    ///
    /// The default fills per pair, fanning fixed candidate chunks across
    /// the worker pool past the [`par_bulk`] gate; chunks concatenate in
    /// order, so the filled vector is identical at every thread count.
    fn dists_into(&self, v: PointId, candidates: &[u32], out: &mut Vec<f64>) {
        out.clear();
        if par_bulk(candidates.len()) {
            let parts: Vec<Vec<f64>> = candidates
                .par_chunks(par_chunk_size(candidates.len()))
                .map(|chunk| chunk.iter().map(|&c| self.dist(v, PointId(c))).collect())
                .collect();
            for part in parts {
                out.extend(part);
            }
        } else {
            out.extend(candidates.iter().map(|&c| self.dist(v, PointId(c))));
        }
    }

    /// `d(p, S) = min_{s in S} d(p, s)`; `f64::INFINITY` when `S` is empty.
    /// The bulk entry point behind [`dist_point_to_set`]: coordinate-backed
    /// spaces override it to scan flat storage without per-pair `PointId`
    /// indirection (and, for L2, to defer the `sqrt` to the winning
    /// minimum — a monotone map, so the result is bit-identical to the
    /// per-pair fold).
    fn dist_to_set(&self, p: PointId, set: &[PointId]) -> f64 {
        set.iter()
            .map(|&s| self.dist(p, s))
            .fold(f64::INFINITY, f64::min)
    }

    /// Multi-τ threshold count: `result[j]` is exactly
    /// [`MetricSpace::count_within`]`(v, candidates, taus[j])`, for a
    /// **monotone non-decreasing** batch of finite thresholds (the ladder's
    /// rung schedule). One candidate pass classifies each candidate into
    /// its *entry rung* — the first rung that admits it — and the per-rung
    /// counts fall out as a prefix sum.
    ///
    /// The entry-rung representation is sound because every implementation's
    /// `within` answers `dist <= τ`, which is monotone in τ: once a
    /// candidate is admitted it stays admitted at every larger rung.
    /// Verdicts per rung are bit-identical to the scalar kernel's (the
    /// consistency proptests pin this for every space in the crate).
    fn count_within_taus(&self, v: PointId, candidates: &[u32], taus: &[f64]) -> Vec<usize> {
        debug_assert!(
            taus.windows(2).all(|w| w[0] <= w[1]),
            "count_within_taus requires non-decreasing thresholds"
        );
        let mut counts = vec![0usize; taus.len()];
        for &c in candidates {
            let mut j = 0;
            while j < taus.len() && !self.within(v, PointId(c), taus[j]) {
                j += 1;
            }
            if j < taus.len() {
                counts[j] += 1;
            }
        }
        for j in 1..counts.len() {
            counts[j] += counts[j - 1];
        }
        counts
    }

    /// Multi-τ threshold filter: `result[j]` is the ordered neighbor list
    /// [`MetricSpace::neighbors_within`] would produce at `taus[j]`. Same
    /// monotone-batch contract and entry-rung argument as
    /// [`MetricSpace::count_within_taus`]; each per-rung list preserves
    /// candidate order exactly.
    fn neighbors_within_taus(&self, v: PointId, candidates: &[u32], taus: &[f64]) -> Vec<Vec<u32>> {
        debug_assert!(
            taus.windows(2).all(|w| w[0] <= w[1]),
            "neighbors_within_taus requires non-decreasing thresholds"
        );
        // (candidate, entry rung) for candidates admitted by some rung,
        // in candidate order.
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for &c in candidates {
            let mut j = 0;
            while j < taus.len() && !self.within(v, PointId(c), taus[j]) {
                j += 1;
            }
            if j < taus.len() {
                entries.push((c, j as u32));
            }
        }
        (0..taus.len())
            .map(|j| {
                entries
                    .iter()
                    .filter(|&&(_, e)| e as usize <= j)
                    .map(|&(c, _)| c)
                    .collect()
            })
            .collect()
    }

    /// Snapshot of the space's fast-path kernel tallies, when it keeps
    /// any. The default is `None`: purely oracle-backed spaces have no
    /// SIMD kernels to count. Wrappers forward to their inner space so
    /// the counters surface through memoization and instrumentation
    /// layers (see `Telemetry` in `mpc-core`).
    fn kernel_stats(&self) -> Option<KernelStats> {
        None
    }

    /// The space itself when it is an [`EuclideanSpace`], so a driver can
    /// run a machine's local steps on an f64 slab of its rows with the
    /// exact L2 run kernels of [`crate::simd`]. The default is `None`,
    /// and no other space may answer `Some`: those kernels compute L2.
    /// Wrappers forward it, as they do [`MetricSpace::kernel_stats`].
    fn euclidean(&self) -> Option<&EuclideanSpace> {
        None
    }
}

/// Cumulative fast-path kernel hit counts for one metric space — how many
/// pairs the classifier judged, and how often the banded estimate had to
/// fall back to the exact evaluation. Pure observability: tallies never influence any
/// verdict. All counts are in pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Pairs classified by the run kernel
    /// (`classify_f32_run_bits`): every `soa` pair of a single- or
    /// multi-query scan — on the space's mirror for a contiguous id run,
    /// else on a slab the call packs once. The kernel takes
    /// queries in pairs where it can; each (query, candidate) pair still
    /// counts once, so the tally does not depend on the pairing. A
    /// multi-query scan that the ball index prunes counts only the pairs
    /// its bounds left open, so the pruned share shows up as the fall in
    /// this tally (`mpc_metric::ball`).
    pub run_pairs: u64,
    /// Always 0: `EuclideanSpace`'s one classifier counts in
    /// [`KernelStats::run_pairs`], and no other space keeps tallies. The
    /// field stays so struct literals that name it keep compiling.
    pub indexed_pairs: u64,
    /// Always 0. The multi-τ run kernel that counted its pairs here is
    /// gone; the field stays so struct literals that name it keep
    /// compiling.
    pub taus_run_pairs: u64,
    /// Always 0, like [`KernelStats::taus_run_pairs`]: the multi-τ
    /// indexed kernel is gone too.
    pub taus_indexed_pairs: u64,
    /// Always 0. The Hamming-sketch prefilter that counted certified
    /// rejects here is gone; the field stays so struct literals that name
    /// it keep compiling.
    pub sketch_rejects: u64,
    /// Pairs re-decided by the exact f64 evaluation after a band hit.
    pub exact_fallbacks: u64,
    /// Occupied cells across every `GridIndex` built (grid engine only).
    pub grid_cells: u64,
    /// Stencil cell lookups answered by grid queries (≤ 3^d per query,
    /// empty lookups included).
    pub grid_stencil_cells: u64,
    /// Candidate pairs surfaced by stencil scans — the exact distance
    /// checks the grid engine performs instead of an all-pairs scan.
    pub grid_pairs: u64,
}

impl KernelStats {
    /// Total pairs the fast-path classifiers judged.
    pub fn classified_pairs(&self) -> u64 {
        self.run_pairs + self.indexed_pairs
    }

    /// Folds another tally into this one field-by-field — used to combine
    /// a space's own counters with an engine's grid-side tallies.
    pub fn merge(&mut self, other: &KernelStats) {
        self.run_pairs += other.run_pairs;
        self.indexed_pairs += other.indexed_pairs;
        self.exact_fallbacks += other.exact_fallbacks;
        self.grid_cells += other.grid_cells;
        self.grid_stencil_cells += other.grid_stencil_cells;
        self.grid_pairs += other.grid_pairs;
    }

    /// Field-by-field `self − start`: what a run added to a space's
    /// cumulative tallies since `start` was snapshotted — how each solver
    /// stamps one run's own kernel work, however many runs the space
    /// served before.
    pub fn since(&self, start: &KernelStats) -> KernelStats {
        KernelStats {
            run_pairs: self.run_pairs - start.run_pairs,
            indexed_pairs: self.indexed_pairs - start.indexed_pairs,
            taus_run_pairs: self.taus_run_pairs - start.taus_run_pairs,
            taus_indexed_pairs: self.taus_indexed_pairs - start.taus_indexed_pairs,
            sketch_rejects: self.sketch_rejects - start.sketch_rejects,
            exact_fallbacks: self.exact_fallbacks - start.exact_fallbacks,
            grid_cells: self.grid_cells - start.grid_cells,
            grid_stencil_cells: self.grid_stencil_cells - start.grid_stencil_cells,
            grid_pairs: self.grid_pairs - start.grid_pairs,
        }
    }
}

impl<M: MetricSpace + ?Sized> MetricSpace for &M {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn dist(&self, i: PointId, j: PointId) -> f64 {
        (**self).dist(i, j)
    }
    fn point_weight(&self) -> u64 {
        (**self).point_weight()
    }
    fn within(&self, i: PointId, j: PointId, tau: f64) -> bool {
        (**self).within(i, j, tau)
    }
    fn count_within(&self, v: PointId, candidates: &[u32], tau: f64) -> usize {
        (**self).count_within(v, candidates, tau)
    }
    fn neighbors_within(&self, v: PointId, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        (**self).neighbors_within(v, candidates, tau, out)
    }
    fn count_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<usize> {
        (**self).count_within_many(vs, candidates, tau)
    }
    fn neighbors_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<Vec<u32>> {
        (**self).neighbors_within_many(vs, candidates, tau)
    }
    fn dists_into(&self, v: PointId, candidates: &[u32], out: &mut Vec<f64>) {
        (**self).dists_into(v, candidates, out)
    }
    fn dist_to_set(&self, p: PointId, set: &[PointId]) -> f64 {
        (**self).dist_to_set(p, set)
    }
    fn kernel_stats(&self) -> Option<KernelStats> {
        (**self).kernel_stats()
    }
    fn euclidean(&self) -> Option<&EuclideanSpace> {
        (**self).euclidean()
    }
}

/// `d(p, S) = min_{s in S} d(p, s)`; `f64::INFINITY` when `S` is empty.
/// Routed through [`MetricSpace::dist_to_set`] so coordinate-backed spaces
/// apply their bulk specializations.
pub fn dist_point_to_set<M: MetricSpace + ?Sized>(metric: &M, p: PointId, set: &[PointId]) -> f64 {
    metric.dist_to_set(p, set)
}

/// `div(S)`: minimum pairwise distance in `S` (paper §2.1).
/// Returns `f64::INFINITY` when `|S| < 2`.
pub fn min_pairwise_distance<M: MetricSpace + ?Sized>(metric: &M, set: &[PointId]) -> f64 {
    let mut best = f64::INFINITY;
    for (a, &i) in set.iter().enumerate() {
        for &j in &set[a + 1..] {
            let d = metric.dist(i, j);
            if d < best {
                best = d;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::EuclideanSpace;
    use crate::point::PointSet;

    fn line_space() -> EuclideanSpace {
        // Points at x = 0, 1, 3, 7 on a line.
        EuclideanSpace::new(PointSet::from_rows(&[
            vec![0.0],
            vec![1.0],
            vec![3.0],
            vec![7.0],
        ]))
    }

    #[test]
    fn point_to_set_minimizes() {
        let m = line_space();
        let set = [PointId(0), PointId(2)];
        assert_eq!(dist_point_to_set(&m, PointId(1), &set), 1.0);
        assert_eq!(dist_point_to_set(&m, PointId(3), &set), 4.0);
    }

    #[test]
    fn point_to_empty_set_is_infinite() {
        let m = line_space();
        assert_eq!(dist_point_to_set(&m, PointId(0), &[]), f64::INFINITY);
    }

    #[test]
    fn diversity_is_min_pairwise() {
        let m = line_space();
        let all = [PointId(0), PointId(1), PointId(2), PointId(3)];
        assert_eq!(min_pairwise_distance(&m, &all), 1.0);
        assert_eq!(min_pairwise_distance(&m, &[PointId(0), PointId(3)]), 7.0);
        assert_eq!(min_pairwise_distance(&m, &[PointId(0)]), f64::INFINITY);
    }

    #[test]
    fn within_matches_threshold_adjacency() {
        let m = line_space();
        assert!(m.within(PointId(0), PointId(1), 1.0)); // d = 1 <= 1
        assert!(!m.within(PointId(0), PointId(2), 2.9)); // d = 3 > 2.9
    }
}
