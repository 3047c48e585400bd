//! Euclidean (L2) metric over flat point storage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::ball::{self, BallIndex, ScanPlan};
use crate::point::{PointId, PointSet};
use crate::simd;
use crate::soa::{f32_band_scale, SoaStorage, SpeedTier};
use crate::space::{self, KernelStats, MetricSpace};

/// Target footprint of one candidate tile in the multi-query kernels:
/// small enough to live in L1 alongside the query row and norm slices, so
/// each candidate row is streamed from DRAM once per tile and then reused
/// from cache across every query in the batch.
const TILE_BYTES: usize = 16 * 1024;

/// Candidate-tile length for `dim`-dimensional rows of `bytes_per_coord`-
/// byte coordinates: [`TILE_BYTES`] worth, floored so tiny tiles don't
/// drown in loop overhead. A function of the dimension and storage width
/// only — never of thread count or batch size — so tiling can't perturb
/// determinism (per-pair arithmetic is independent of tile boundaries
/// anyway). The `soa` tier passes 4, doubling the rows per tile: the tile
/// streams f32 rows, so the same L1 budget covers twice as many
/// candidates, halving query-row restreaming.
fn tile_len(dim: usize, bytes_per_coord: usize) -> usize {
    (TILE_BYTES / (bytes_per_coord * dim.max(1))).clamp(16, 4096)
}

/// Slab rows a pruned scan's kernel run may bridge between two candidate
/// groups open for the same query pair: classifying the closed rows in
/// between and masking them off costs less than a second kernel call.
const RUN_BRIDGE: usize = 64;

/// Minimum dimension for the f32 Gram-estimate pair decision. The estimate
/// costs a fixed ~10 extra ops per pair (norm adds, band, two compares) on
/// top of the dot product; that amortizes over the `dim` multiply-adds it
/// saves only for wide rows. Below this, every kernel keeps the plain diff
/// evaluation — measured at d=4 the diff loop is already ≈3× faster per
/// pair than Gram + band (see DESIGN.md §6.2).
const GRAM_MIN_DIM: usize = 16;

/// The Euclidean metric `d(x, y) = ||x - y||_2` over a [`PointSet`].
#[derive(Debug, Clone)]
pub struct EuclideanSpace {
    points: PointSet,
    /// Whether the bulk threshold kernels use the f32 estimate or the
    /// plain f64 oracle (see [`SpeedTier`]); verdicts are bit-identical
    /// at both tiers.
    tier: SpeedTier,
    /// Lazily built f32 mirror ([`SpeedTier::Soa`]). Derived purely from
    /// `points`, so cloning the cache with the space is sound.
    soa: OnceLock<SoaStorage>,
    /// Lazily built ball index behind the pruned multi-query scans
    /// ([`SpeedTier::Soa`], see [`crate::ball`]). Derived purely from
    /// `points` and kept valid by [`EuclideanSpace::push_point`].
    balls: OnceLock<BallIndex>,
    /// Cumulative fast-path kernel hit counters ([`KernelStats`]).
    counters: KernelCounters,
}

/// Process-lifetime tallies behind [`KernelStats`]: relaxed atomics bumped
/// once per classified tile (never per pair), so observing them costs a
/// few adds per ~10³ floating-point ops. Observability only — no verdict,
/// and no output byte, ever depends on these.
#[derive(Debug, Default)]
struct KernelCounters {
    run_pairs: AtomicU64,
    exact_fallbacks: AtomicU64,
}

impl Clone for KernelCounters {
    /// Clones the current snapshot — a cloned space starts its own tally
    /// from the original's counts, mirroring how its caches are cloned.
    fn clone(&self) -> Self {
        let s = self.snapshot();
        let c = Self::default();
        c.run_pairs.store(s.run_pairs, Ordering::Relaxed);
        c.exact_fallbacks
            .store(s.exact_fallbacks, Ordering::Relaxed);
        c
    }
}

impl KernelCounters {
    fn snapshot(&self) -> KernelStats {
        KernelStats {
            run_pairs: self.run_pairs.load(Ordering::Relaxed),
            exact_fallbacks: self.exact_fallbacks.load(Ordering::Relaxed),
            ..KernelStats::default()
        }
    }

    /// Folds one chunk scan into the tally.
    fn record(&self, run: usize, exact: usize) {
        bump(&self.run_pairs, run);
        bump(&self.exact_fallbacks, exact);
    }
}

/// Adds `n` to one tally, skipping the atomic when there is nothing to add.
#[inline]
fn bump(ctr: &AtomicU64, n: usize) {
    if n > 0 {
        ctr.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// Per-kernel-call fast-path context: the f32 mirror, the f32 error-band
/// scale, and the space's kernel tallies, resolved once so the per-pair
/// loop only branches on data.
struct Fast<'a> {
    soa: &'a SoaStorage,
    band_scale: f64,
    counters: &'a KernelCounters,
}

/// One query chunk's verdict bits and kernel tallies. After each tile,
/// `keep` holds the final verdicts of the tile's one or two queries, as
/// [`simd::classify_f32_run_bits`] lays them out: query `j`'s words are
/// `keep[j * words..(j + 1) * words]`, candidate `i` at bit `i % 64` of
/// word `i / 64`. The tallies are folded into the space's counters once,
/// by [`ChunkScan::record`], instead of once per (query, tile).
#[derive(Default)]
struct ChunkScan {
    keep: Vec<u64>,
    band: Vec<u64>,
    words: usize,
    run_pairs: usize,
    exact: usize,
}

impl ChunkScan {
    /// Sizes and clears the words for `queries` queries over a
    /// `len`-candidate tile.
    fn reset(&mut self, queries: usize, len: usize) {
        self.words = simd::run_words(len);
        for words in [&mut self.keep, &mut self.band] {
            words.clear();
            words.resize(queries * self.words, 0);
        }
    }

    /// Query `j`'s verdict words for the current tile.
    fn verdicts(&self, j: usize) -> &[u64] {
        &self.keep[j * self.words..(j + 1) * self.words]
    }

    /// The exact re-decide, bit-identical to the exact kernel: visits only
    /// query `j`'s band bits, deciding each with
    /// [`EuclideanSpace::row_dist_sq`] on the original ids and folding the
    /// verdict into its keep bit.
    fn resolve(&mut self, j: usize, a64: &[f64], tile: &[u32], t2: f64, data: &[f64], dim: usize) {
        let at = j * self.words;
        let (keep, band) = (
            &mut self.keep[at..at + self.words],
            &self.band[at..at + self.words],
        );
        for_each_bit(band, |i| {
            let c = tile[i] as usize;
            if EuclideanSpace::row_dist_sq(a64, &data[c * dim..(c + 1) * dim]) <= t2 {
                keep[i / 64] |= 1 << (i % 64);
            }
        });
        self.exact += popcount(band);
    }

    /// Folds this chunk's tallies into the space's counters.
    fn record(&self, counters: &KernelCounters) {
        counters.record(self.run_pairs, self.exact);
    }
}

impl Fast<'_> {
    /// Query `q`'s run-kernel operand: its f32 mirror row and its f32 norm
    /// widened to f64.
    fn query(&self, q: usize) -> (&[f32], f64) {
        (self.soa.row(q), self.soa.norm(q) as f64)
    }

    /// One run-kernel call ([`simd::classify_f32_run_bits`]) for the one
    /// or two queries `qs` against rows `first..first + tile.len()` of
    /// `slab` — the space's own mirror or a [`SoaStorage::gather`]ed
    /// candidate list whose rows are `tile` — then the exact re-decide of
    /// every band bit, so `scan.keep` ends holding the final verdicts.
    #[allow(clippy::too_many_arguments)]
    fn run_verdicts(
        &self,
        scan: &mut ChunkScan,
        qs: &[u32],
        slab: &SoaStorage,
        first: usize,
        tile: &[u32],
        t2: f64,
        data: &[f64],
        dim: usize,
    ) {
        self.run_masked(scan, qs, slab, first, tile, None, t2, data, dim);
    }

    /// [`Fast::run_verdicts`] that, given `masks` (laid out like
    /// `scan.keep`), decides only each query's masked candidates of the
    /// tile: every other bit of `scan.keep` ends clear, and only the
    /// masked pairs are re-decided and tallied. The kernel still runs over
    /// the whole tile, so the two queries of a pair share one call
    /// whatever their masks, and a short run can borrow neighbouring slab
    /// rows to fill whole eight-candidate blocks.
    #[allow(clippy::too_many_arguments)]
    fn run_masked(
        &self,
        scan: &mut ChunkScan,
        qs: &[u32],
        slab: &SoaStorage,
        first: usize,
        tile: &[u32],
        masks: Option<&[u64]>,
        t2: f64,
        data: &[f64],
        dim: usize,
    ) {
        scan.reset(qs.len(), tile.len());
        let ops = [qs[0], qs[qs.len() - 1]].map(|q| self.query(q as usize));
        simd::classify_f32_run_bits(
            &ops[..qs.len()],
            slab.cols(),
            slab.col_stride(),
            slab.raw(),
            slab.norms(),
            dim,
            first,
            tile.len(),
            t2,
            self.band_scale,
            &mut scan.keep,
            &mut scan.band,
        );
        match masks {
            Some(masks) => {
                for words in [&mut scan.keep, &mut scan.band] {
                    for (word, &mask) in words.iter_mut().zip(masks) {
                        *word &= mask;
                    }
                }
                scan.run_pairs += popcount(masks);
            }
            None => scan.run_pairs += qs.len() * tile.len(),
        }
        for (j, &q) in qs.iter().enumerate() {
            let q = q as usize;
            scan.resolve(j, &data[q * dim..(q + 1) * dim], tile, t2, data, dim);
        }
    }
}

/// One query's output row of a multi-query scan: a count or a neighbour
/// list, folded from verdict bit words.
trait ScanRow: Default + Send {
    /// Whether the row lists candidates (in candidate order) rather than
    /// counting them.
    const LISTS: bool;

    /// Folds the verdicts of `ids` (bit `i % 64` of word `i / 64` is
    /// `ids[i]`'s).
    fn fold(&mut self, ids: &[u32], verdicts: &[u64]);

    /// Counts `n` candidates decided within τ wholesale (counting rows
    /// only: a listing row takes its verdicts in candidate order).
    fn add(&mut self, n: usize);
}

impl ScanRow for usize {
    const LISTS: bool = false;

    fn fold(&mut self, _: &[u32], verdicts: &[u64]) {
        *self += popcount(verdicts);
    }

    fn add(&mut self, n: usize) {
        *self += n;
    }
}

impl ScanRow for Vec<u32> {
    const LISTS: bool = true;

    fn fold(&mut self, ids: &[u32], verdicts: &[u64]) {
        for_each_bit(verdicts, |i| self.push(ids[i]));
    }

    fn add(&mut self, _: usize) {
        unreachable!("listing rows fold their verdicts in candidate order");
    }
}

/// Sets bits `range` across `words` (bit `i % 64` of word `i / 64`).
#[inline]
fn set_bits(words: &mut [u64], range: std::ops::Range<usize>) {
    for (w, word) in words
        .iter_mut()
        .enumerate()
        .take(range.end.div_ceil(64))
        .skip(range.start / 64)
    {
        let lo = range.start.max(64 * w) - 64 * w;
        let hi = range.end.min(64 * w + 64) - 64 * w;
        *word |= (u64::MAX >> (64 - (hi - lo))) << lo;
    }
}

/// Set bits across `words`.
#[inline]
fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Calls `f(i)` for every set bit `i` of `words` (bit `i % 64` of word
/// `i / 64`), in ascending `i` — candidate order.
#[inline]
fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Whether `ids` is `ids[0], ids[0]+1, …` — the access pattern the
/// dimension-major run kernel accepts. Short-circuits on the first gap, so
/// scattered candidate lists pay a handful of compares.
#[inline]
fn is_contiguous_run(ids: &[u32]) -> bool {
    ids.len() >= 8 && ids.windows(2).all(|w| w[1] == w[0] + 1)
}

impl EuclideanSpace {
    /// Wraps a point set with the L2 metric. The speed tier defaults to
    /// the process-wide `KCENTER_SPEED` setting ([`SpeedTier::from_env`]).
    pub fn new(points: PointSet) -> Self {
        Self {
            points,
            tier: SpeedTier::from_env(),
            soa: OnceLock::new(),
            balls: OnceLock::new(),
            counters: KernelCounters::default(),
        }
    }

    /// Overrides the speed tier for this space (builder-style). Tiers only
    /// move cycles around — verdicts, and therefore every downstream
    /// result, are bit-identical across tiers.
    pub fn with_speed_tier(mut self, tier: SpeedTier) -> Self {
        self.tier = tier;
        self
    }

    /// The speed tier this space's bulk kernels run at.
    pub fn speed_tier(&self) -> SpeedTier {
        self.tier
    }

    /// The underlying point set.
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// Appends one point to the space in place, returning its id — the
    /// serving-index insert path (`mpc-serving`). A built f32 SoA mirror
    /// is **extended** via [`SoaStorage::push`] (amortized O(dim) —
    /// geometric lane re-striding), yielding values bit-identical to a
    /// from-scratch build over the extended set, so verdicts after an
    /// insert remain bit-identical across speed tiers, exactly as for
    /// batch-constructed spaces. A built ball index assigns the new point
    /// to its nearest pivot in O(P·dim).
    pub fn push_point(&mut self, coords: &[f64]) -> PointId {
        let id = self.points.push(coords);
        if let Some(soa) = self.soa.get_mut() {
            soa.push(coords);
        }
        if let Some(balls) = self.balls.get_mut() {
            balls.push(&self.points);
        }
        id
    }

    /// Resolves the fast-path context for a bulk kernel call, building the
    /// f32 mirror on first use. `None` — the plain diff loop — when the
    /// tier is the exact oracle or the rows are too narrow to benefit
    /// (below [`GRAM_MIN_DIM`] the diff loop already wins). Kernels call
    /// this **before** any parallel fan-out so the lazy build runs once,
    /// on the calling thread.
    fn fast(&self) -> Option<Fast<'_>> {
        let dim = self.points.dim();
        if dim < GRAM_MIN_DIM || self.tier == SpeedTier::Exact {
            return None;
        }
        let soa = self.soa.get_or_init(|| SoaStorage::build(&self.points));
        Some(Fast {
            soa,
            band_scale: f32_band_scale(dim),
            counters: &self.counters,
        })
    }

    /// Squared distance; cheaper than [`MetricSpace::dist`] when only
    /// comparisons are needed. (Note: squared L2 is *not* itself a metric.)
    #[inline]
    pub fn dist_sq(&self, i: PointId, j: PointId) -> f64 {
        Self::row_dist_sq(self.points.coords(i), self.points.coords(j))
    }

    /// Exact squared distance between two raw rows — the one
    /// floating-point evaluation behind [`EuclideanSpace::dist_sq`], the
    /// whole exact oracle, and the re-decide for pairs the f32 estimate
    /// can't classify.
    #[inline]
    pub fn row_dist_sq(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b) {
            let t = x - y;
            acc += t * t;
        }
        acc
    }

    /// Exact distance between two raw rows: bit-for-bit what
    /// [`MetricSpace::dist`] returns for two stored points with these
    /// coordinates, for callers that hold rows of their own (a machine's
    /// gathered shard, a broadcast center block).
    #[inline]
    pub fn row_dist(a: &[f64], b: &[f64]) -> f64 {
        Self::row_dist_sq(a, b).sqrt()
    }

    /// `min_b d(a, b)` over `rows`, by [`MetricSpace::dist_to_set`]'s
    /// fold: the minimum of the squared distances, then one `sqrt`.
    /// `f64::INFINITY` when `rows` is empty.
    #[inline]
    pub fn row_dist_to_rows<'r>(a: &[f64], rows: impl IntoIterator<Item = &'r [f64]>) -> f64 {
        rows.into_iter()
            .map(|b| Self::row_dist_sq(a, b))
            .fold(f64::INFINITY, f64::min)
            .sqrt()
    }

    /// Multi-query threshold scan behind [`MetricSpace::count_within_many`]
    /// / [`MetricSpace::neighbors_within_many`] at threshold `tau ≥ 0`, and
    /// behind the single-query kernels at the `soa` tier (one query):
    /// resolves the fast path, lays the candidates out for the run kernel,
    /// then fans fixed query chunks across the worker pool (whole queries
    /// never straddle a chunk and rows concatenate in query order, so the
    /// output equals the sequential walk).
    ///
    /// At the `soa` tier, a scan whose own pair count pays for the space's
    /// ball index ([`ball::pays_for_index`]) first asks it for a
    /// [`ScanPlan`]: when the triangle-inequality bounds decide at least
    /// half of the pairs, only the undecided (query, ball) blocks are
    /// classified ([`EuclideanSpace::scan_pruned`]). The `exact` tier never
    /// prunes — it stays the unpruned reference oracle.
    ///
    /// Otherwise every tile goes through the dimension-major run kernel. A
    /// candidate list that is one contiguous id run reads the space's own
    /// mirror; any other list — a `RoundRobin` share, a broadcast sample —
    /// is packed **once per call**, before the fan-out, into a
    /// [`SoaStorage::gather`]ed slab that every query chunk shares.
    /// Packing costs one pass over the candidates' f32 rows; the run
    /// kernel then reads every pair from contiguous columns.
    fn scan_many<R: ScanRow>(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<R> {
        if vs.is_empty() {
            return Vec::new();
        }
        let t2 = tau * tau;
        let fast = self.fast();
        if let Some(fast) = &fast {
            if ball::pays_for_index(vs.len(), candidates.len(), self.points.len()) {
                let index = self
                    .balls
                    .get_or_init(|| BallIndex::build(&self.points, fast.soa));
                let dim = self.points.dim();
                if let Some(plan) = ScanPlan::new(index, vs, candidates, tau, t2, dim) {
                    return self.scan_pruned(fast, &plan, vs, candidates, t2);
                }
            }
        }
        let packed;
        let slab = match &fast {
            Some(fast) if is_contiguous_run(candidates) => {
                Some((fast, fast.soa, candidates[0] as usize))
            }
            Some(fast) => {
                packed = fast.soa.gather(candidates);
                Some((fast, &packed, 0))
            }
            None => None,
        };
        let run = |qs: &[u32]| self.scan_tiles(slab, qs, candidates, t2);
        if space::par_bulk_pairs(vs.len(), candidates.len()) {
            space::par_query_chunks(vs, run)
        } else {
            run(vs)
        }
    }

    /// The ball-pruned form of [`EuclideanSpace::scan_many`]: the
    /// candidates are packed once, grouped by ball in `plan.order`, and the
    /// queries walk ball by ball in pairs (an odd last query of a ball
    /// alone), so paired queries share their blocks. For each pair, an
    /// *in* block adds every member of its candidate group, an *out* block
    /// (absent from the plan) nothing, and each run of groups open for
    /// either query goes through one run-kernel call plus the exact
    /// re-decide ([`Fast::run_masked`]) on its contiguous slab rows,
    /// masked to each query's own open groups. Query-ball chunks fan
    /// across the worker pool,
    /// and the rows land back in query order; listing rows are assembled
    /// as verdict bits in candidate order, so every neighbour row keeps
    /// candidate order, duplicates included.
    ///
    /// Only open pairs reach the kernel and its tallies, so `run_pairs`
    /// grows by the plan's open pairs — the same at every thread count,
    /// since the plan is made once per call and a pair's class never
    /// depends on its pairing.
    fn scan_pruned<R: ScanRow>(
        &self,
        fast: &Fast<'_>,
        plan: &ScanPlan,
        vs: &[u32],
        candidates: &[u32],
        t2: f64,
    ) -> Vec<R> {
        let dim = self.points.dim();
        let data = self.points.raw();
        let sorted: Vec<u32> = plan.order.iter().map(|&i| candidates[i as usize]).collect();
        let slab = fast.soa.gather(&sorted);
        let words = simd::run_words(candidates.len());
        let groups = &plan.groups;
        let run = |query_groups: &[u32]| -> Vec<R> {
            let mut rows: Vec<R> = Vec::new();
            let mut scan = ChunkScan::default();
            let mut bits = vec![0u64; if R::LISTS { 2 * words } else { 0 }];
            let mut masks = Vec::new();
            for &qg in query_groups {
                let (members, blocks) = &plan.query_groups[qg as usize];
                let blocks = &plan.blocks[blocks.clone()];
                for first in members.clone().step_by(2) {
                    let n = (members.end - first).min(2);
                    let k = first - members.start;
                    let qids = [0, n - 1].map(|j| vs[plan.queries[first + j] as usize]);
                    let verdict = |block: &ball::Block, j: usize| plan.verdicts[block.at + k + j];
                    let at = rows.len();
                    rows.extend(std::iter::repeat_with(R::default).take(n));
                    let pair = &mut rows[at..];
                    for block in blocks {
                        for (j, row) in pair.iter_mut().enumerate() {
                            if verdict(block, j) != ball::IN {
                                continue;
                            }
                            let members = groups[block.group].clone();
                            if R::LISTS {
                                for &pos in &plan.order[members] {
                                    bits[j * words + pos as usize / 64] |= 1 << (pos % 64);
                                }
                            } else {
                                row.add(members.len());
                            }
                        }
                    }
                    let open = |block: &ball::Block| {
                        [0, 1].map(|j| j < n && verdict(block, j) == ball::OPEN)
                    };
                    // Runs of candidate groups open for either query, at
                    // most RUN_BRIDGE slab rows apart: each one kernel call
                    // for the queries open in it, masked to each query's
                    // own open groups.
                    let is_open = |b: usize| open(&blocks[b]) != [false, false];
                    let mut b = 0;
                    while b < blocks.len() {
                        if !is_open(b) {
                            b += 1;
                            continue;
                        }
                        let (mut last, mut e) = (b, b + 1);
                        while e < blocks.len()
                            && groups[blocks[e].group].start
                                <= groups[blocks[last].group].end + RUN_BRIDGE
                        {
                            if is_open(e) {
                                last = e;
                            }
                            e += 1;
                        }
                        let run = &blocks[b..=last];
                        b = last + 1;
                        let window =
                            groups[run[0].group].start..groups[run[run.len() - 1].group].end;
                        let any = [0, 1].map(|j| run.iter().any(|block| open(block)[j]));
                        let (who, m) = match any {
                            [true, true] => ([0, 1], 2),
                            [true, false] => ([0, 0], 1),
                            _ => ([1, 1], 1),
                        };
                        // Whole eight-candidate blocks keep the kernel off
                        // its scalar tail: widen the run into neighbouring
                        // slab rows; the masks drop them again.
                        let span = window.len().next_multiple_of(8).min(sorted.len());
                        let from = window.start.min(sorted.len() - span);
                        let tile = &sorted[from..from + span];
                        let tile_words = simd::run_words(span);
                        masks.clear();
                        masks.resize(m * tile_words, 0);
                        for (mask, &j) in masks.chunks_mut(tile_words).zip(&who[..m]) {
                            for block in run.iter().filter(|block| open(block)[j]) {
                                let group = &groups[block.group];
                                set_bits(mask, group.start - from..group.end - from);
                            }
                        }
                        let qs = who.map(|j| qids[j]);
                        fast.run_masked(
                            &mut scan,
                            &qs[..m],
                            &slab,
                            from,
                            tile,
                            Some(&masks),
                            t2,
                            data,
                            dim,
                        );
                        for (v, &j) in who[..m].iter().enumerate() {
                            if R::LISTS {
                                for_each_bit(scan.verdicts(v), |i| {
                                    let pos = plan.order[from + i] as usize;
                                    bits[j * words + pos / 64] |= 1 << (pos % 64);
                                });
                            } else {
                                pair[j].fold(tile, scan.verdicts(v));
                            }
                        }
                    }
                    if R::LISTS {
                        for (j, row) in pair.iter_mut().enumerate() {
                            row.fold(candidates, &bits[j * words..(j + 1) * words]);
                        }
                        bits.fill(0);
                    }
                }
            }
            scan.record(fast.counters);
            rows
        };
        let query_groups: Vec<u32> = (0..plan.query_groups.len() as u32).collect();
        let by_slot = if space::par_bulk_pairs(vs.len(), candidates.len()) {
            space::par_query_chunks(&query_groups, run)
        } else {
            run(&query_groups)
        };
        let mut rows: Vec<R> = std::iter::repeat_with(R::default).take(vs.len()).collect();
        for (&pos, row) in plan.queries.iter().zip(by_slot) {
            rows[pos as usize] = row;
        }
        rows
    }

    /// Tiled multi-query threshold scan: for each query in `qs`, decides
    /// every candidate against `t2 = τ²` and folds the per-candidate
    /// verdicts into its [`ScanRow`]. Candidates stream in [`tile_len`]-row tiles so
    /// a tile is loaded from memory once and reused from cache by all
    /// queries (the whole point — one query alone is memory-bound at
    /// d=32, see DESIGN.md §6.2).
    ///
    /// On the fast path, `slab` carries the fast-path context, the
    /// candidates' run slab and the slab row of `candidates[0]` (see
    /// [`EuclideanSpace::scan_many`]). Queries walk each tile in pairs
    /// (an odd last query alone) through the query-paired run kernel,
    /// which shares every column load between the pair. Each pair's f32
    /// Gram estimate is trusted only outside a conservative error band
    /// around `t2`, and pairs inside the band are re-decided with the
    /// exact [`EuclideanSpace::row_dist_sq`] on the original ids.
    /// Decisions therefore match the plain diff loop (the exact oracle and
    /// the narrow-row path) bit-for-bit — including at exact-boundary
    /// thresholds — while the band keeps re-computes rare on real data.
    /// Non-finite inputs fall into the band's "unclassified" branch and
    /// get the exact answer too. The kernel tallies are recorded once, at
    /// the end of the chunk.
    ///
    /// Each query's row folds one call per tile ([`ScanRow::fold`]) with
    /// the tile's candidate ids and their verdicts as bit words (bit
    /// `i % 64` of word `i / 64` is `tile[i]`'s) — so counting rows
    /// popcount and listing rows walk set bits, in candidate order.
    fn scan_tiles<R: ScanRow>(
        &self,
        slab: Option<(&Fast<'_>, &SoaStorage, usize)>,
        qs: &[u32],
        candidates: &[u32],
        t2: f64,
    ) -> Vec<R> {
        let dim = self.points.dim();
        let data = self.points.raw();
        let mut rows: Vec<R> = std::iter::repeat_with(R::default).take(qs.len()).collect();
        let mut scan = ChunkScan::default();
        let tile_rows = tile_len(dim, if slab.is_some() { 4 } else { 8 });
        for (t, tile) in candidates.chunks(tile_rows).enumerate() {
            for (pair_rows, pair) in rows.chunks_mut(2).zip(qs.chunks(2)) {
                if let Some((fast, soa, first)) = slab {
                    let at = first + t * tile_rows;
                    fast.run_verdicts(&mut scan, pair, soa, at, tile, t2, data, dim);
                } else {
                    // The plain diff evaluation needs no band — the tiles
                    // still deliver the cache reuse.
                    scan.reset(pair.len(), tile.len());
                    for (words, &q) in scan.keep.chunks_mut(scan.words).zip(pair) {
                        let a = &data[q as usize * dim..q as usize * dim + dim];
                        for (word, ids) in words.iter_mut().zip(tile.chunks(64)) {
                            for (i, &c) in ids.iter().enumerate() {
                                let b = &data[c as usize * dim..c as usize * dim + dim];
                                *word |= ((Self::row_dist_sq(a, b) <= t2) as u64) << i;
                            }
                        }
                    }
                }
                for (j, row) in pair_rows.iter_mut().enumerate() {
                    row.fold(tile, scan.verdicts(j));
                }
            }
        }
        if let Some((fast, ..)) = slab {
            scan.record(fast.counters);
        }
        rows
    }
}

impl MetricSpace for EuclideanSpace {
    fn n(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn dist(&self, i: PointId, j: PointId) -> f64 {
        Self::row_dist(self.points.coords(i), self.points.coords(j))
    }

    fn point_weight(&self) -> u64 {
        self.points.dim() as u64
    }

    #[inline]
    fn within(&self, i: PointId, j: PointId, tau: f64) -> bool {
        if i == j {
            // `dist_sq(i, i)` is 0 for a finite row and NaN otherwise, so
            // a finiteness check gives the same verdict without the fold
            // (threshold graphs ask it once per self-pair fixup).
            return tau >= 0.0 && self.points.coords(i).iter().all(|x| x.is_finite());
        }
        // Avoids the sqrt on the hot threshold-graph adjacency path.
        tau >= 0.0 && self.dist_sq(i, j) <= tau * tau
    }

    /// Single-query threshold count. At the `soa` tier (`d ≥ 16`) it is a
    /// one-query `EuclideanSpace::scan_many`: a contiguous id run reads
    /// the space's mirror, any other list is packed by
    /// [`SoaStorage::gather`], and both go through the run kernel and its
    /// exact re-decide, exactly as a multi-query scan does. The `exact`
    /// tier and narrow rows keep the plain sequential f64 diff loop
    /// against τ² (no tiles, no sqrt).
    fn count_within(&self, v: PointId, candidates: &[u32], tau: f64) -> usize {
        if tau < 0.0 {
            return 0;
        }
        if self.fast().is_some() {
            return self.scan_many::<usize>(&[v.0], candidates, tau)[0];
        }
        let (a, t2) = (self.points.coords(v), tau * tau);
        candidates
            .iter()
            .filter(|&&c| Self::row_dist_sq(a, self.points.coords(PointId(c))) <= t2)
            .count()
    }

    /// Filter twin of [`MetricSpace::count_within`] on the same two paths;
    /// both keep candidate order, duplicates included.
    fn neighbors_within(&self, v: PointId, candidates: &[u32], tau: f64, out: &mut Vec<u32>) {
        out.clear();
        if tau < 0.0 {
            return;
        }
        if self.fast().is_some() {
            out.append(&mut self.scan_many::<Vec<u32>>(&[v.0], candidates, tau)[0]);
            return;
        }
        let (a, t2) = (self.points.coords(v), tau * tau);
        out.extend(
            candidates
                .iter()
                .copied()
                .filter(|&c| Self::row_dist_sq(a, self.points.coords(PointId(c))) <= t2),
        );
    }

    /// Tiled multi-query kernel (see `EuclideanSpace::scan_many`): the
    /// output matches the per-query scalar kernel bit-for-bit.
    fn count_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<usize> {
        if tau < 0.0 {
            return vec![0; vs.len()];
        }
        self.scan_many(vs, candidates, tau)
    }

    /// Filter twin of [`MetricSpace::count_within_many`] over the same
    /// tiled scan: tiles visit candidates in order and each query row
    /// appends within-tile survivors in order, so every neighbor list
    /// preserves candidate order exactly.
    fn neighbors_within_many(&self, vs: &[u32], candidates: &[u32], tau: f64) -> Vec<Vec<u32>> {
        if tau < 0.0 {
            return vec![Vec::new(); vs.len()];
        }
        self.scan_many(vs, candidates, tau)
    }

    /// Bulk distance fill over flat rows. Deliberately **not** the Gram
    /// trick: consumers of this method use the values themselves (GMM
    /// radii, set distances), so each entry is the exact
    /// `row_dist_sq(..).sqrt()` evaluation [`MetricSpace::dist`] performs —
    /// bit-identical, just without the per-pair `PointId` indirection.
    fn dists_into(&self, v: PointId, candidates: &[u32], out: &mut Vec<f64>) {
        out.clear();
        let dim = self.points.dim();
        let data = self.points.raw();
        let a = &data[v.idx() * dim..(v.idx() + 1) * dim];
        let fill = |chunk: &[u32]| -> Vec<f64> {
            chunk
                .iter()
                .map(|&c| {
                    let b = &data[c as usize * dim..c as usize * dim + dim];
                    Self::row_dist(a, b)
                })
                .collect()
        };
        if space::par_bulk_weighted(candidates.len(), dim) {
            use rayon::prelude::*;
            let parts: Vec<Vec<f64>> = candidates
                .par_chunks(space::par_chunk_size_weighted(candidates.len(), dim))
                .map(fill)
                .collect();
            for part in parts {
                out.extend(part);
            }
        } else {
            out.extend(candidates.iter().map(|&c| {
                let b = &data[c as usize * dim..c as usize * dim + dim];
                Self::row_dist(a, b)
            }));
        }
    }

    /// Flat-row minimum: folds the *squared* distances and takes one final
    /// `sqrt`. `x ↦ fl(√x)` is monotone non-decreasing, so the square root
    /// of the minimum squared distance equals the minimum of the per-pair
    /// square roots bit-for-bit — same result as the default per-pair fold,
    /// with |S| − 1 fewer square roots and no `PointId` indirection.
    fn dist_to_set(&self, p: PointId, set: &[PointId]) -> f64 {
        let dim = self.points.dim();
        let data = self.points.raw();
        let a = &data[p.idx() * dim..(p.idx() + 1) * dim];
        Self::row_dist_to_rows(
            a,
            set.iter()
                .map(|s| &data[s.idx() * dim..s.idx() * dim + dim]),
        )
    }

    /// Snapshot of the cumulative fast-path kernel tallies (pairs routed
    /// through each SIMD classifier, exact band fallbacks) since this space
    /// was created.
    fn kernel_stats(&self) -> Option<KernelStats> {
        Some(self.counters.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> EuclideanSpace {
        EuclideanSpace::new(PointSet::from_rows(&[
            vec![0.0, 0.0],
            vec![3.0, 4.0],
            vec![-3.0, -4.0],
        ]))
    }

    #[test]
    fn pythagoras() {
        let m = space();
        assert_eq!(m.dist(PointId(0), PointId(1)), 5.0);
        assert_eq!(m.dist(PointId(1), PointId(2)), 10.0);
    }

    #[test]
    fn identity_and_symmetry() {
        let m = space();
        assert_eq!(m.dist(PointId(1), PointId(1)), 0.0);
        assert_eq!(
            m.dist(PointId(0), PointId(2)),
            m.dist(PointId(2), PointId(0))
        );
    }

    #[test]
    fn within_avoids_sqrt_consistently() {
        let m = space();
        assert!(m.within(PointId(0), PointId(1), 5.0));
        assert!(!m.within(PointId(0), PointId(1), 4.999));
        assert!(!m.within(PointId(0), PointId(1), -1.0));
    }

    #[test]
    fn point_weight_is_dimension() {
        assert_eq!(space().point_weight(), 2);
    }

    #[test]
    fn many_kernels_match_scalar_at_exact_boundaries() {
        // d(0,1) = d(0,2) = 5 exactly: τ = 5 must include both, τ just
        // below must not — the Gram estimate alone cannot make this call,
        // the band fallback must.
        let m = space();
        let vs = [0u32, 1, 2];
        let cands = [0u32, 1, 2, 1];
        for tau in [5.0, 4.999_999_999_999_999, 0.0, 10.0] {
            let want: Vec<usize> = vs
                .iter()
                .map(|&v| m.count_within(PointId(v), &cands, tau))
                .collect();
            assert_eq!(m.count_within_many(&vs, &cands, tau), want, "tau={tau}");
            let lists = m.neighbors_within_many(&vs, &cands, tau);
            for (i, &v) in vs.iter().enumerate() {
                let mut scalar = Vec::new();
                m.neighbors_within(PointId(v), &cands, tau, &mut scalar);
                assert_eq!(lists[i], scalar, "v={v} tau={tau}");
            }
        }
    }

    #[test]
    fn negative_tau_matches_scalar_kernels() {
        let m = space();
        assert_eq!(m.count_within_many(&[0, 1], &[0, 1, 2], -1.0), vec![0, 0]);
        assert_eq!(
            m.neighbors_within_many(&[0, 1], &[0, 1, 2], -1.0),
            vec![Vec::<u32>::new(), Vec::new()]
        );
    }

    /// A multi-query scan over a strided candidate list (one `RoundRobin`
    /// share) packs the list and runs every pair on the dimension-major
    /// run kernel: `run_pairs` grows by `|qs|·|cands|` per call and
    /// `indexed_pairs` stays 0.
    #[test]
    fn strided_multi_query_scan_runs_on_the_run_kernel() {
        let points = crate::datasets::uniform_cube(400, 32, 5);
        let m = EuclideanSpace::new(points.clone()).with_speed_tier(SpeedTier::Soa);
        let exact = EuclideanSpace::new(points).with_speed_tier(SpeedTier::Exact);
        let qs: Vec<u32> = (0..400).step_by(9).collect();
        let cands: Vec<u32> = (3..400).step_by(8).collect();
        let tau = m.dist(PointId(0), PointId(200));
        let before = m.kernel_stats().unwrap();
        let counts = m.count_within_many(&qs, &cands, tau);
        let mid = m.kernel_stats().unwrap();
        let lists = m.neighbors_within_many(&qs, &cands, tau);
        let after = m.kernel_stats().unwrap();
        let pairs = (qs.len() * cands.len()) as u64;
        assert_eq!(mid.run_pairs - before.run_pairs, pairs);
        assert_eq!(after.run_pairs - mid.run_pairs, pairs);
        assert_eq!(after.indexed_pairs, 0);
        assert_eq!(counts, exact.count_within_many(&qs, &cands, tau));
        assert_eq!(lists, exact.neighbors_within_many(&qs, &cands, tau));
    }

    /// One single-query `count_within` on a fresh `soa` space at d = 32
    /// builds the f32 mirror, so a caller can pay for the build up front;
    /// at the `exact` tier, or below [`GRAM_MIN_DIM`], it builds nothing.
    #[test]
    fn single_query_count_builds_the_mirror_only_on_the_fast_path() {
        for (dim, tier, builds) in [
            (32, SpeedTier::Soa, true),
            (32, SpeedTier::Exact, false),
            (4, SpeedTier::Soa, false),
        ] {
            let points = crate::datasets::uniform_cube(50, dim, 3);
            let m = EuclideanSpace::new(points).with_speed_tier(tier);
            assert!(m.soa.get().is_none());
            m.count_within(PointId(0), &[1, 2, 3], 0.5);
            assert_eq!(m.soa.get().is_some(), builds, "d={dim} {tier:?}");
        }
    }

    #[test]
    fn dists_into_is_bitwise_dist() {
        let m = space();
        let cands = [2u32, 0, 1, 1];
        let mut out = Vec::new();
        m.dists_into(PointId(1), &cands, &mut out);
        let want: Vec<f64> = cands
            .iter()
            .map(|&c| m.dist(PointId(1), PointId(c)))
            .collect();
        assert_eq!(
            out.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dist_to_set_matches_per_pair_fold() {
        let m = space();
        let set = [PointId(1), PointId(2)];
        let want = m
            .dist(PointId(0), PointId(1))
            .min(m.dist(PointId(0), PointId(2)));
        assert_eq!(m.dist_to_set(PointId(0), &set).to_bits(), want.to_bits());
        assert_eq!(m.dist_to_set(PointId(0), &[]), f64::INFINITY);
    }
}
