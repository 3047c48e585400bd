//! Long-lived serving layer over the batch MPC algorithms: a
//! [`DiversityIndex`] absorbs point insertions into per-shard GMM
//! coresets and answers k-center / k-diversity queries from their merged
//! union, instead of re-running Algorithm 5/2 over the full dataset per
//! query.
//!
//! The design is the composable-coreset recipe (Aghamolaei–Ghodsi; see
//! PAPERS.md) fused with this repo's ladder machinery:
//!
//! * **Insert path.** Points are assigned to shards round-robin by
//!   insertion order (bit-deterministic — shard membership is a function
//!   of the insertion sequence only). Each shard keeps a GMM coreset of
//!   its members plus a *slack*: the covering radius of the coreset over
//!   the members at build time, widened online by the distance of every
//!   post-build insert to the frozen coreset. Inserts are O(coreset_k)
//!   distance evaluations — no rebuild.
//! * **Staleness.** A shard is rebuilt (GMM from scratch over its
//!   members) only when its post-build insert volume crosses
//!   [`IndexParams::max_pending_frac`], or when it has never been built.
//!   Rebuilds happen lazily at [`DiversityIndex::snapshot`] time, never
//!   on the insert path.
//! * **Query path.** A [`Snapshot`] freezes the shard-coreset union `U`
//!   and the global slack `δ = max_i slack_i` (every indexed point is
//!   within `δ` of `U`), then serves queries with the same descending /
//!   ascending τ-ladders as Algorithms 5 and 2 — [`LadderSearch`] +
//!   `k_bounded_mis` straight on the indexed [`EuclideanSpace`], so each
//!   rung runs on the metric's own threshold kernels (the f32 SoA
//!   classifier at d ≥ 16), as the batch drivers do. Per-`k` answers are
//!   cached on the snapshot.
//!
//! Guarantees served with each answer (`U ⊆ P`, so both are certified by
//! the composable-coreset argument):
//!
//! * k-center: served radius `= r(U, C) + δ ≥ r(P, C)`, and
//!   `≤ 2(1+ε)·r*(P) + (2(1+ε)+1)·δ` — the batch factor plus the merge
//!   slack.
//! * k-diversity: served diversity is the *exact* pairwise minimum of the
//!   returned points, `≥ (div_k(P) − 2δ) / (2+ε)`.
//!
//! Everything downstream of the insert path is the engine the batch
//! algorithms use, so answers are bit-identical across thread counts and
//! speed tiers like the rest of the repo (asserted in
//! `tests/index_equivalence.rs`).

use std::collections::HashMap;

use mpc_core::common::{covering_radius, to_point_ids};
use mpc_core::gmm::gmm;
use mpc_core::grid::grid_k_bounded_mis;
use mpc_core::kbmis::k_bounded_mis;
use mpc_core::ladder::{BoundaryMode, LadderSearch, RungEval};
use mpc_core::{KCenterEngine, Params};
use mpc_metric::{
    dist_point_to_set, min_pairwise_distance, EuclideanSpace, KernelStats, MetricSpace, PointId,
    PointSet,
};
use mpc_sim::Cluster;

/// Tuning knobs for a [`DiversityIndex`].
#[derive(Debug, Clone)]
pub struct IndexParams {
    /// Number of coreset shards (composability means any count works;
    /// more shards = cheaper rebuilds, slightly larger union).
    pub shards: usize,
    /// Per-shard GMM coreset size. Queries require `k ≤ coreset_k` —
    /// the coresets must be at least as selective as the query.
    pub coreset_k: usize,
    /// Rebuild a shard when its post-build inserts exceed this fraction
    /// of its membership (volume-threshold staleness). `0.5` means a
    /// shard tolerates 50% growth before re-coreseting.
    pub max_pending_frac: f64,
    /// Ladder precision ε for served queries (same role as
    /// [`Params::epsilon`]).
    pub epsilon: f64,
    /// Seed forwarded to the query-side [`Params`] / [`Cluster`].
    pub seed: u64,
}

impl IndexParams {
    /// Sensible defaults: rebuild at 50% growth, ε = 0.1.
    pub fn new(shards: usize, coreset_k: usize, seed: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(coreset_k >= 1, "coresets need at least one point");
        Self {
            shards,
            coreset_k,
            max_pending_frac: 0.5,
            epsilon: 0.1,
            seed,
        }
    }

    fn validate(&self) {
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.coreset_k >= 1, "coresets need at least one point");
        assert!(
            self.max_pending_frac >= 0.0 && self.max_pending_frac.is_finite(),
            "staleness fraction must be finite and non-negative"
        );
        assert!(
            self.epsilon > 0.0 && self.epsilon.is_finite(),
            "epsilon must be positive and finite"
        );
    }
}

/// One coreset shard: its members, the frozen GMM selection, and the
/// slack accounting that keeps `δ` honest between rebuilds.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// Every point ever routed here (insertion order).
    members: Vec<u32>,
    /// `GMM(members, coreset_k)` as of the last rebuild; empty = never
    /// built (unconditionally stale while members exist).
    coreset: Vec<u32>,
    /// Covering radius of `coreset` over `members` *at build time*
    /// (GMM's would-be next radius).
    build_slack: f64,
    /// Max distance of a post-build insert to the frozen coreset,
    /// tracked online on the insert path.
    pending_slack: f64,
    /// Number of post-build inserts (staleness trigger).
    pending: usize,
}

impl Shard {
    fn stale(&self, max_pending_frac: f64) -> bool {
        if self.members.is_empty() {
            return false;
        }
        if self.coreset.is_empty() {
            return true;
        }
        let built = self.members.len() - self.pending;
        (self.pending as f64) > max_pending_frac * built as f64
    }

    /// Every member is within this distance of the shard coreset: pre-
    /// build members within `build_slack`, post-build inserts within
    /// `pending_slack` (measured against the same frozen coreset).
    fn slack(&self) -> f64 {
        if self.members.is_empty() {
            0.0
        } else if self.coreset.is_empty() {
            f64::INFINITY
        } else {
            self.build_slack.max(self.pending_slack)
        }
    }
}

/// Counters exposed for benches and examples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStats {
    /// Total points indexed.
    pub points: usize,
    /// Shard count.
    pub shards: usize,
    /// Coreset rebuilds performed so far (lazy + forced).
    pub rebuilds: u64,
    /// Current global slack `δ` (∞ while an unbuilt non-empty shard
    /// exists — resolved by the next snapshot's lazy rebuilds).
    pub delta: f64,
}

/// A long-lived index serving k-center / k-diversity queries over a
/// growing Euclidean point set. See the module docs for the contract.
///
/// ```
/// use mpc_serving::{DiversityIndex, IndexParams};
///
/// let mut index = DiversityIndex::new(2, IndexParams::new(4, 8, 42));
/// for i in 0..64 {
///     index.insert(&[i as f64, (i % 7) as f64]);
/// }
/// let mut snap = index.snapshot();
/// let served = snap.kcenter(3);
/// assert!(served.centers.len() <= 3);
/// assert!(served.radius.is_finite());
/// let div = snap.kdiversity(3);
/// assert_eq!(div.subset.len(), 3);
/// ```
pub struct DiversityIndex {
    space: EuclideanSpace,
    dim: usize,
    shards: Vec<Shard>,
    params: IndexParams,
    rebuilds: u64,
}

impl DiversityIndex {
    /// An empty index over `dim`-dimensional points.
    pub fn new(dim: usize, params: IndexParams) -> Self {
        params.validate();
        assert!(dim >= 1, "points need at least one dimension");
        let shards = vec![Shard::default(); params.shards];
        Self {
            space: EuclideanSpace::new(PointSet::with_dim(dim)),
            dim,
            shards,
            params,
            rebuilds: 0,
        }
    }

    /// Total points indexed.
    pub fn len(&self) -> usize {
        self.space.n()
    }

    /// True before the first insert.
    pub fn is_empty(&self) -> bool {
        self.space.n() == 0
    }

    /// The underlying (growing) metric space — full-dataset cross-checks
    /// in tests and examples read it; queries go through
    /// [`DiversityIndex::snapshot`].
    pub fn space(&self) -> &EuclideanSpace {
        &self.space
    }

    /// Current counters (see [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            points: self.space.n(),
            shards: self.shards.len(),
            rebuilds: self.rebuilds,
            delta: self.shards.iter().map(Shard::slack).fold(0.0f64, f64::max),
        }
    }

    /// Absorbs one point: O(1) routing plus at most `coreset_k` distance
    /// evaluations to widen the owning shard's slack. Never rebuilds a
    /// coreset and never rebuilds the f32 SoA mirror (the mirror is
    /// extended in place — see `SoaStorage::push`).
    pub fn insert(&mut self, coords: &[f64]) -> PointId {
        assert_eq!(coords.len(), self.dim, "point arity must match the index");
        let id = self.space.push_point(coords);
        let shard = &mut self.shards[id.0 as usize % self.params.shards];
        shard.members.push(id.0);
        if !shard.coreset.is_empty() {
            // Distance to the frozen coreset, folded into the online
            // slack. Exact f64 path — tier-independent by construction.
            let d = dist_point_to_set(&self.space, id, &to_point_ids(&shard.coreset));
            shard.pending_slack = shard.pending_slack.max(d);
            shard.pending += 1;
        }
        // An unbuilt shard stays unconditionally stale; its pending
        // bookkeeping starts at the first build.
        id
    }

    fn rebuild_shard(&mut self, s: usize) {
        let shard = &mut self.shards[s];
        if shard.members.is_empty() {
            return;
        }
        let out = gmm(&self.space, &shard.members, self.params.coreset_k);
        shard.build_slack = out.covering_radius();
        shard.coreset = out.selected;
        shard.pending = 0;
        shard.pending_slack = 0.0;
        self.rebuilds += 1;
    }

    /// Rebuilds every non-empty shard regardless of staleness. After
    /// this, two indexes that saw the same insertion sequence are in
    /// bit-identical states no matter how their snapshot/query histories
    /// differed (coresets are a pure function of the members).
    pub fn refresh_all(&mut self) {
        for s in 0..self.shards.len() {
            self.rebuild_shard(s);
        }
    }

    /// Freezes a queryable view: lazily rebuilds stale shards, merges the
    /// shard coresets, and hands out a [`Snapshot`] whose per-`k` answer
    /// caches are shared by every query made on it.
    pub fn snapshot(&mut self) -> Snapshot<'_> {
        for s in 0..self.shards.len() {
            if self.shards[s].stale(self.params.max_pending_frac) {
                self.rebuild_shard(s);
            }
        }
        // Shard order concat: deterministic (members and rebuild points
        // are pure functions of the insertion sequence).
        let union: Vec<u32> = self
            .shards
            .iter()
            .flat_map(|s| s.coreset.iter().copied())
            .collect();
        let delta = self.shards.iter().map(Shard::slack).fold(0.0f64, f64::max);
        debug_assert!(
            union.is_empty() || delta.is_finite(),
            "lazy rebuilds must leave no unbuilt shard behind"
        );
        let params = Params::practical(1, self.params.epsilon, self.params.seed);
        Snapshot {
            space: &self.space,
            cluster: Cluster::new(1, self.params.seed),
            local_sets: vec![union.clone()],
            union,
            delta,
            n_total: self.space.n(),
            max_k: self.params.coreset_k,
            params,
            engine: KCenterEngine::from_env(self.space.points().dim()),
            kcenter_cache: HashMap::new(),
            diversity_cache: HashMap::new(),
        }
    }
}

/// A k-center answer served from a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedKCenter {
    /// The selected centers (≤ k), drawn from the coreset union.
    pub centers: Vec<PointId>,
    /// Certified covering radius for the **whole indexed dataset**:
    /// `r(U, centers) + δ ≥ r(P, centers)`.
    pub radius: f64,
    /// `r(U, centers)` — the realized radius over the coreset union.
    pub union_radius: f64,
    /// The snapshot's merge slack `δ`.
    pub delta: f64,
    /// Ladder index of the accepted rung (0 = the coarse GMM solution).
    pub boundary_index: usize,
}

/// A k-diversity answer served from a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedDiversity {
    /// The selected points (k of them unless the index holds fewer
    /// distinct locations).
    pub subset: Vec<PointId>,
    /// Exact `div(subset)` — minimum pairwise distance (∞ for < 2
    /// points, matching [`min_pairwise_distance`]).
    pub diversity: f64,
    /// The snapshot's merge slack `δ`.
    pub delta: f64,
    /// Ladder index of the accepted rung (0 = the coarse GMM solution).
    pub boundary_index: usize,
}

/// Descending k-center ladder over the coreset union — rung `i` is the
/// (k+1)-bounded MIS at `τ_i = r/(1+ε)^i`, exactly Algorithm 5's ladder
/// with the union playing the role of `V`.
struct UnionKCenterRungs<'s> {
    space: &'s EuclideanSpace,
    local_sets: &'s [Vec<u32>],
    r: f64,
    k: usize,
    n: usize,
    params: &'s Params,
}

impl UnionKCenterRungs<'_> {
    fn tau(&self, i: usize) -> f64 {
        self.r / (1.0 + self.params.epsilon).powi(i as i32)
    }
}

impl RungEval for UnionKCenterRungs<'_> {
    type Rung = Vec<u32>;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Vec<u32> {
        k_bounded_mis(
            cluster,
            self.space,
            self.local_sets,
            self.tau(i),
            self.k + 1,
            self.n,
            self.params,
            false,
        )
        .set
    }

    fn accept(&self, _i: usize, rung: &Vec<u32>) -> bool {
        rung.len() <= self.k
    }
}

/// The same descending ladder answered by the grid engine
/// ([`grid_k_bounded_mis`]): per-rung τ-grids over the union instead of
/// all-pairs scans. Selected via `KCENTER_ENGINE` at snapshot time.
struct UnionGridRungs<'s> {
    space: &'s EuclideanSpace,
    local_sets: &'s [Vec<u32>],
    r: f64,
    k: usize,
    params: &'s Params,
    stats: KernelStats,
}

impl UnionGridRungs<'_> {
    fn tau(&self, i: usize) -> f64 {
        self.r / (1.0 + self.params.epsilon).powi(i as i32)
    }
}

impl RungEval for UnionGridRungs<'_> {
    type Rung = Vec<u32>;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Vec<u32> {
        grid_k_bounded_mis(
            cluster,
            self.space,
            self.local_sets,
            self.tau(i),
            self.k + 1,
            &mut self.stats,
        )
    }

    fn accept(&self, _i: usize, rung: &Vec<u32>) -> bool {
        rung.len() <= self.k
    }
}

/// Ascending diversity ladder over the coreset union — Algorithm 2's
/// ladder: rung `i` is the k-bounded MIS at `τ_i = r(1+ε)^i`, accepted
/// while it still finds k independent points.
struct UnionDiversityRungs<'s> {
    space: &'s EuclideanSpace,
    local_sets: &'s [Vec<u32>],
    r: f64,
    k: usize,
    n: usize,
    params: &'s Params,
}

impl UnionDiversityRungs<'_> {
    fn tau(&self, i: usize) -> f64 {
        self.r * (1.0 + self.params.epsilon).powi(i as i32)
    }
}

impl RungEval for UnionDiversityRungs<'_> {
    type Rung = Vec<u32>;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Vec<u32> {
        k_bounded_mis(
            cluster,
            self.space,
            self.local_sets,
            self.tau(i),
            self.k,
            self.n,
            self.params,
            false,
        )
        .set
    }

    fn accept(&self, _i: usize, rung: &Vec<u32>) -> bool {
        rung.len() == self.k
    }
}

/// A frozen, queryable view of the index: the merged coreset union, its
/// slack `δ`, and per-`k` answer caches. Holding a snapshot borrows the
/// index — drop it to resume inserting.
pub struct Snapshot<'a> {
    space: &'a EuclideanSpace,
    cluster: Cluster,
    /// The union, wrapped as the single machine's vertex list.
    local_sets: Vec<Vec<u32>>,
    union: Vec<u32>,
    delta: f64,
    n_total: usize,
    max_k: usize,
    params: Params,
    engine: KCenterEngine,
    kcenter_cache: HashMap<usize, ServedKCenter>,
    diversity_cache: HashMap<usize, ServedDiversity>,
}

impl Snapshot<'_> {
    /// The merged coreset union this snapshot answers from.
    pub fn union(&self) -> &[u32] {
        &self.union
    }

    /// The frozen view of the indexed space (cross-check scans in tests
    /// and examples read the full dataset through this).
    pub fn space(&self) -> &EuclideanSpace {
        self.space
    }

    /// The merge slack `δ`: every indexed point is within `δ` of the
    /// union. `0` for an empty index.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Always [`mpc_core::MemoStats::default`]: snapshot queries run on
    /// the raw space and keep no distance memo. Kept only because the
    /// end-to-end benchmark's serving workload still reads it.
    pub fn memo_stats(&self) -> mpc_core::MemoStats {
        mpc_core::MemoStats::default()
    }

    /// The rung-evaluation engine this snapshot's k-center queries use
    /// (resolved from `KCENTER_ENGINE` / the union's dimension at
    /// snapshot time).
    pub fn engine(&self) -> KCenterEngine {
        self.engine
    }

    /// Serves a k-center answer (cached per `k`). Defined on an empty
    /// index: no centers, radius `0`.
    ///
    /// Requires `k ≤ coreset_k`: the per-shard coresets must be at least
    /// as selective as the query for the composability guarantee.
    pub fn kcenter(&mut self, k: usize) -> ServedKCenter {
        assert!(k >= 1, "k must be positive");
        assert!(
            k <= self.max_k,
            "k = {k} exceeds coreset_k = {}; rebuild the index with a larger coreset",
            self.max_k
        );
        if let Some(hit) = self.kcenter_cache.get(&k) {
            return hit.clone();
        }
        let served = self.kcenter_uncached(k);
        self.kcenter_cache.insert(k, served.clone());
        served
    }

    fn kcenter_uncached(&mut self, k: usize) -> ServedKCenter {
        // Coarse stage: Q = GMM(U, k) is a 2-approximation on the union,
        // its would-be next radius is exactly r(U, Q).
        let coarse = gmm(self.space, &self.union, k);
        let r = coarse.covering_radius();
        let q = coarse.selected;

        // Degenerate: the union has ≤ k distinct-ish locations (also
        // covers the empty index: no centers, radius 0, δ = 0).
        if q.len() < k || r <= 0.0 {
            return ServedKCenter {
                centers: to_point_ids(&q),
                union_radius: r.max(0.0),
                radius: r.max(0.0) + self.delta,
                delta: self.delta,
                boundary_index: 0,
            };
        }

        let t = self.params.ladder_len(4.0, 1);
        let mut search = LadderSearch::new(t);
        search.seed(0, q);
        let boundary = match self.engine {
            KCenterEngine::AllPairs => {
                let mut rungs = UnionKCenterRungs {
                    space: self.space,
                    local_sets: &self.local_sets,
                    r,
                    k,
                    n: self.n_total,
                    params: &self.params,
                };
                search.search(
                    &mut self.cluster,
                    &mut rungs,
                    BoundaryMode::LastAccept,
                    self.params.boundary_search,
                )
            }
            KCenterEngine::Grid => {
                let mut rungs = UnionGridRungs {
                    space: self.space,
                    local_sets: &self.local_sets,
                    r,
                    k,
                    params: &self.params,
                    stats: KernelStats::default(),
                };
                search.search(
                    &mut self.cluster,
                    &mut rungs,
                    BoundaryMode::LastAccept,
                    self.params.boundary_search,
                )
            }
        };
        let centers_raw = search.take(boundary).expect("boundary was evaluated");
        debug_assert!(centers_raw.len() <= k);
        let union_radius = covering_radius(
            &mut self.cluster,
            self.space,
            &self.local_sets,
            &centers_raw,
        );
        ServedKCenter {
            centers: to_point_ids(&centers_raw),
            union_radius,
            radius: union_radius + self.delta,
            delta: self.delta,
            boundary_index: boundary,
        }
    }

    /// Serves a k-diversity answer (cached per `k`). Defined on an empty
    /// or tiny index: returns what the union has, diversity per
    /// [`min_pairwise_distance`] conventions (∞ below two points).
    ///
    /// Requires `2 ≤ k ≤ coreset_k`.
    pub fn kdiversity(&mut self, k: usize) -> ServedDiversity {
        assert!(k >= 2, "diversity needs k >= 2");
        assert!(
            k <= self.max_k,
            "k = {k} exceeds coreset_k = {}; rebuild the index with a larger coreset",
            self.max_k
        );
        if let Some(hit) = self.diversity_cache.get(&k) {
            return hit.clone();
        }
        let served = self.kdiversity_uncached(k);
        self.diversity_cache.insert(k, served.clone());
        served
    }

    fn kdiversity_uncached(&mut self, k: usize) -> ServedDiversity {
        // Coarse stage: div(GMM(U, k)) is a 2-approximation of div_k(U).
        let coarse = gmm(self.space, &self.union, k);
        let r = coarse.diversity();
        let q = coarse.selected;

        if q.len() < k || r <= 0.0 || !r.is_finite() {
            let subset = to_point_ids(&q);
            let diversity = min_pairwise_distance(self.space, &subset);
            return ServedDiversity {
                subset,
                diversity,
                delta: self.delta,
                boundary_index: 0,
            };
        }

        let t = self.params.ladder_len(4.0, 1);
        let mut rungs = UnionDiversityRungs {
            space: self.space,
            local_sets: &self.local_sets,
            r,
            k,
            n: self.n_total,
            params: &self.params,
        };
        let mut search = LadderSearch::new(t);
        search.seed(0, q);
        let boundary = search.search(
            &mut self.cluster,
            &mut rungs,
            BoundaryMode::LastAccept,
            self.params.boundary_search,
        );
        let subset_raw = search.take(boundary).expect("boundary was evaluated");
        debug_assert_eq!(subset_raw.len(), k);
        let subset = to_point_ids(&subset_raw);
        let diversity = min_pairwise_distance(self.space, &subset);
        ServedDiversity {
            subset,
            diversity,
            delta: self.delta,
            boundary_index: boundary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_core::diversity::mpc_diversity;
    use mpc_core::kcenter::mpc_kcenter;
    use mpc_metric::MetricSpace;
    use mpc_metric::{datasets, SpeedTier};

    fn insert_all(index: &mut DiversityIndex, points: &PointSet) {
        for i in 0..points.len() as u32 {
            index.insert(points.coords(PointId(i)));
        }
    }

    fn realized_radius(space: &EuclideanSpace, centers: &[PointId]) -> f64 {
        (0..space.n() as u32)
            .map(|v| dist_point_to_set(space, PointId(v), centers))
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn empty_index_serves_defined_answers() {
        let mut index = DiversityIndex::new(3, IndexParams::new(4, 8, 1));
        let mut snap = index.snapshot();
        let kc = snap.kcenter(2);
        assert!(kc.centers.is_empty());
        assert_eq!(kc.radius, 0.0);
        let kd = snap.kdiversity(2);
        assert!(kd.subset.is_empty());
        assert_eq!(kd.diversity, f64::INFINITY);
        drop(snap);
        assert_eq!(index.stats().delta, 0.0);
    }

    #[test]
    fn kcenter_radius_certified_against_batch() {
        let points = datasets::gaussian_clusters(600, 3, 6, 0.05, 11);
        let mut index = DiversityIndex::new(3, IndexParams::new(4, 12, 11));
        insert_all(&mut index, &points);
        let eps = index.params.epsilon;
        let mut snap = index.snapshot();
        for k in [2usize, 4, 6] {
            let served = snap.kcenter(k);
            // Soundness: the served radius upper-bounds the realized one.
            let realized = realized_radius(snap.space, &served.centers);
            assert!(
                served.radius >= realized - 1e-9,
                "k={k}: served {} < realized {realized}",
                served.radius
            );
            // Quality: within the composable-coreset factor of batch
            // Algorithm 5 on the identical snapshot. batch ≥ r*(P), so
            // served ≤ 2(1+ε)·r*(P) + (2(1+ε)+1)·δ ≤ the bound below.
            let batch = mpc_kcenter(snap.space, k, &Params::practical(1, eps, 11));
            let factor = 2.0 * (1.0 + eps);
            assert!(
                served.radius <= factor * batch.radius + (factor + 1.0) * served.delta + 1e-9,
                "k={k}: served {} vs batch {} delta {}",
                served.radius,
                batch.radius,
                served.delta
            );
        }
    }

    #[test]
    fn kdiversity_certified_against_batch() {
        let points = datasets::uniform_cube(500, 3, 23);
        let mut index = DiversityIndex::new(3, IndexParams::new(4, 10, 23));
        insert_all(&mut index, &points);
        let eps = index.params.epsilon;
        let mut snap = index.snapshot();
        for k in [3usize, 5, 8] {
            let served = snap.kdiversity(k);
            assert_eq!(served.subset.len(), k);
            // Exactness of the reported figure.
            let recomputed = min_pairwise_distance(snap.space, &served.subset);
            assert_eq!(served.diversity, recomputed);
            // Quality: div_k(P) ≥ batch diversity, and the union ladder
            // serves ≥ (div_k(P) − 2δ)/(2+ε).
            let batch = mpc_diversity(snap.space, k, &Params::practical(1, eps, 23));
            assert!(
                served.diversity >= (batch.diversity - 2.0 * served.delta) / (2.0 + eps) - 1e-9,
                "k={k}: served {} vs batch {} delta {}",
                served.diversity,
                batch.diversity,
                served.delta
            );
        }
    }

    #[test]
    fn lazy_staleness_rebuilds_only_past_threshold() {
        let points = datasets::uniform_cube(200, 2, 5);
        let mut index = DiversityIndex::new(2, IndexParams::new(2, 8, 5));
        insert_all(&mut index, &points);
        drop(index.snapshot());
        let built = index.stats().rebuilds;
        assert_eq!(built, 2, "first snapshot builds every non-empty shard");
        // A trickle below the 50% threshold must not rebuild anything.
        for i in 0..20 {
            index.insert(&[i as f64, -1.0]);
        }
        drop(index.snapshot());
        assert_eq!(index.stats().rebuilds, built, "20/200 is under threshold");
        // Past the threshold, the stale shards rebuild lazily.
        for i in 0..200 {
            index.insert(&[i as f64, -2.0]);
        }
        drop(index.snapshot());
        assert_eq!(index.stats().rebuilds, built + 2);
        assert!(index.stats().delta.is_finite());
    }

    #[test]
    fn served_answers_cached_per_k() {
        // d = 16: both ladders run the all-pairs rungs on the SoA
        // threshold kernels, whose tallies witness every rung scan.
        let points = datasets::gaussian_clusters(400, 16, 12, 0.1, 9);
        let mut index = DiversityIndex::new(16, IndexParams::new(4, 8, 9));
        insert_all(&mut index, &points);
        let mut snap = index.snapshot();
        assert_eq!(snap.engine(), KCenterEngine::AllPairs);
        // The exact tier runs the plain f64 loop and never tallies.
        let tallies = snap.space().speed_tier() == SpeedTier::Soa;
        let stats = |snap: &Snapshot<'_>| snap.space().kernel_stats().unwrap();

        let before = stats(&snap);
        let first = snap.kcenter(4);
        let after_first = stats(&snap);
        assert_eq!(tallies, after_first != before, "first kcenter ran no rung");
        assert_eq!(snap.kcenter(4), first);
        assert_eq!(stats(&snap), after_first, "cached kcenter rescanned");

        let first = snap.kdiversity(4);
        let after_first_div = stats(&snap);
        assert_eq!(
            tallies,
            after_first_div != after_first,
            "first kdiversity ran no rung"
        );
        assert_eq!(snap.kdiversity(4), first);
        assert_eq!(stats(&snap), after_first_div, "cached kdiversity rescanned");
    }

    #[test]
    fn insert_slack_keeps_delta_honest() {
        let mut index = DiversityIndex::new(2, IndexParams::new(1, 4, 3));
        for i in 0..16 {
            index.insert(&[i as f64, 0.0]);
        }
        index.refresh_all();
        // A far outlier inserted post-build must widen δ to at least its
        // distance from the frozen coreset.
        let far = [1e4, 1e4];
        index.insert(&far);
        let stats = index.stats();
        assert!(
            stats.delta >= 1e4,
            "outlier slack not tracked: δ = {}",
            stats.delta
        );
        // And the served radius stays a true cover bound.
        let mut snap = index.snapshot();
        let served = snap.kcenter(2);
        assert!(served.radius >= realized_radius(snap.space, &served.centers) - 1e-9);
    }
}
