//! Ball index for the Euclidean multi-query threshold scans.
//!
//! [`BallIndex`] covers a point set with `P` balls: `P` pivots picked by
//! farthest-first traversal, each point assigned to its nearest pivot
//! (its *owner*) together with its exact f64 distance to it (its
//! *reach*). A multi-query scan groups its candidates by owner; for a
//! query `q` and a candidate group `B` with pivot `p_B` and largest reach
//! `R_B`, the triangle inequality bounds every pair in the group at once:
//!
//! ```text
//! d(p_q, p_B) − reach(q) − R_B  ≤  d(q, c)  ≤  d(p_q, p_B) + reach(q) + R_B
//! ```
//!
//! so [`ScanPlan::new`] can decide the whole group *out* (every pair
//! farther than τ) or *in* (every pair within τ) without touching a
//! coordinate, and only the *open* groups go to the pair kernel. The
//! decisions are taken with a margin that dominates the f64 rounding of
//! the three distances and of the `row_dist_sq ≤ τ²` test the exact
//! oracle applies, so they equal the oracle's verdicts bit for bit (see
//! `margin` and DESIGN.md §6.9). Non-finite rows never join a ball and
//! never decide anything.
//!
//! Memory: 12 bytes per point (a `u32` owner, an `f64` reach) plus
//! `8·P² + 20·P` bytes (pivot-to-pivot distances; per ball its pivot id,
//! radius and population), `P = ⌈⌈√n⌉ / 3⌉` capped at [`MAX_PIVOTS`].

use crate::point::PointSet;
use crate::simd;
use crate::soa::SoaStorage;

/// Upper bound on the pivot count: keeps the `P × P` distance table under
/// half a megabyte however large the space grows.
pub const MAX_PIVOTS: usize = 256;

/// The pivot count for an `n`-point space: `⌈⌈√n⌉ / 3⌉`, capped at
/// [`MAX_PIVOTS`] — 34 at n = 10⁴. A function of `n` only, so the index,
/// and which calls may use it, never depend on thread count or call
/// history. Fewer, larger balls than `√n` keep each scan's plan (one
/// bound per pair of query and candidate balls) and its kernel runs few,
/// and the build cheap; on clustered inputs a ball still fits inside one
/// cluster.
pub fn pivot_count(n: usize) -> usize {
    ((n as f64).sqrt().ceil() as usize)
        .div_ceil(3)
        .min(MAX_PIVOTS)
}

/// Whether a `queries × candidates` scan over an `n`-point space may use
/// the ball index: the scan's own pair count must pay for building it
/// (`n · P` exact distances). The gate reads only the call's shape, so it
/// gives the same answer whether or not the index is built yet.
pub fn pays_for_index(queries: usize, candidates: usize, n: usize) -> bool {
    queries.saturating_mul(candidates) >= n.saturating_mul(pivot_count(n)).max(1)
}

/// Relative part of the decision margin: `4·(d + 8)·ε` times the sum of
/// the bound's terms and τ (see [`margin`]).
fn margin_scale(dim: usize) -> f64 {
    4.0 * (dim as f64 + 8.0) * f64::EPSILON
}

/// Absolute floor of the decision margin: dominates the underflow of
/// squared coordinate differences into subnormals (below `2⁻¹⁰²²`), so a
/// decision never rests on a distance the f64 fold could not resolve, and
/// no τ below it is ever decided *in*.
const MARGIN_FLOOR: f64 = 1e-150;

/// The margin a bound must clear: `4·(d + 8)·ε·(hi + τ) + 10⁻¹⁵⁰`, where
/// `hi = d(p_q, p_B) + reach(q) + R_B`.
///
/// Each of the three distances is a correctly rounded `sqrt` of a fold of
/// `d` non-negative rounded squares, so it is within `(d + 4)·u` of its
/// real value (`u = ε/2`); the bound's two additions add `2u·hi`. An *out*
/// decision (`lo > τ + margin`) then leaves the real distance above
/// `τ·(1 + 7(d + 8)u)`, whose squared f64 fold — off by at most
/// `(d + 3)·u` relative — stays above `fl(τ²)`; an *in* decision
/// (`hi < τ − margin`) leaves it below `τ·(1 − 6(d + 8)u)`, whose fold
/// stays below `fl(τ²)`. So both match the oracle's `row_dist_sq ≤ τ²`.
#[inline]
fn margin(hi: f64, tau: f64, scale: f64) -> f64 {
    scale * (hi + tau) + MARGIN_FLOOR
}

/// Farthest-first traversal runs over a sample of about this many rows
/// per pivot: the sample stays cache-resident while the traversal makes
/// its `P` sequential passes, and every point is then assigned in one
/// pass against the cache-resident pivots.
const SAMPLE_PER_PIVOT: usize = 16;

/// The verdict of the triangle-inequality bound for every pair `(q, c)`
/// with `d(p_q, p_c) = d`, `d(q, p_q) ≤ rq` and `d(c, p_c) ≤ rc`, at
/// threshold `tau` with margin scale `scale` (see [`margin`]): [`OUT`]
/// when `d − rq − rc > τ + margin`, [`IN`] when `d + rq + rc < τ −
/// margin`, else [`OPEN`] — also whenever a term is NaN or infinite.
#[inline]
fn decide(d: f64, rq: f64, rc: f64, tau: f64, scale: f64) -> u8 {
    let hi = d + rq + rc;
    let m = margin(hi, tau, scale);
    if !(hi.is_finite() && m.is_finite()) {
        OPEN
    } else if d - rq - rc > tau + m {
        OUT
    } else if hi < tau - m {
        IN
    } else {
        OPEN
    }
}

/// The ball index of one point set (see the module docs).
#[derive(Debug, Clone)]
pub struct BallIndex {
    /// Pivot point ids, in ball order: a depth-first walk of the
    /// farthest-first tree (each pivot's parent is the nearest pivot
    /// picked before it), so the balls of one cluster sit next to each
    /// other and a scan's open candidate groups form long runs.
    pivots: Vec<u32>,
    /// `owner[i]`: the ball of point `i`, its nearest pivot up to the
    /// rounding of the score that picked it (see [`BallIndex::build`]).
    owner: Vec<u32>,
    /// `reach[i]`: the exact distance from point `i` to its owner pivot,
    /// bit for bit [`crate::EuclideanSpace::row_dist`]. Non-finite for a
    /// point outside every ball (a non-finite row, or a distance that
    /// overflowed).
    reach: Vec<f64>,
    /// `pivot_dist[a * P + b]`: the exact distance between pivots `a`, `b`.
    pivot_dist: Vec<f64>,
    /// Per ball: its largest reach and its number of points.
    balls: Vec<(f64, usize)>,
}

impl BallIndex {
    /// Builds the index in O(n·P·d):
    ///
    /// 1. deterministic farthest-first traversal from the lowest-id finite
    ///    row over a hashed sample of about `SAMPLE_PER_PIVOT · P` finite
    ///    rows, by the exact dimension-major run kernel
    ///    ([`simd::exact_relax_run`]); it stops early once the farthest
    ///    sampled row is at distance 0;
    /// 2. the pivots reordered depth-first along the traversal tree;
    /// 3. every finite row assigned to the pivot with the least f32 Gram
    ///    score over `mirror` (the f32 mirror of `points`) — its nearest
    ///    pivot up to f32 rounding — with the exact f64 reach to it.
    pub fn build(points: &PointSet, mirror: &SoaStorage) -> BallIndex {
        let (n, dim) = (points.len(), points.dim());
        let finite = |i: usize| points.coords(i.into()).iter().all(|x| x.is_finite());
        let want = pivot_count(n);
        // The sample: the first finite row, then the finite rows a
        // multiplicative hash of the id selects at rate 1/`stride` — not
        // every `stride`-th id, which would alias with periodic inputs.
        let stride = (n / (SAMPLE_PER_PIVOT * want).max(1)).max(1) as u64;
        let first = (0..n).find(|&i| finite(i));
        let sampled = |i: usize| {
            ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32).is_multiple_of(stride)
        };
        let sample: Vec<u32> = first
            .into_iter()
            .chain((0..n).filter(|&i| Some(i) != first && sampled(i) && finite(i)))
            .map(|i| i as u32)
            .collect();
        let cols = points.gather_cols(&sample);
        let mut slots = vec![f64::INFINITY; sample.len()];
        let mut prev = slots.clone();
        let mut nearest = vec![0u32; sample.len()];
        // Each pick's parent — its nearest earlier pivot — and the distance
        // to it, the traversal's farthest distance when it was picked.
        let (mut picked, mut parent) = (Vec::new(), Vec::new());
        let mut next = (!sample.is_empty()).then_some((0, 0.0));
        while let Some((at, gap)) = next.filter(|_| picked.len() < want) {
            let row = points.coords(sample[at].into());
            parent.push((nearest[at] as usize, gap));
            picked.push(sample[at]);
            prev.copy_from_slice(&slots);
            let (far, far_at) = simd::exact_relax_run(row, &cols, sample.len(), 0, &mut slots);
            let ball = picked.len() as u32 - 1;
            for ((owner, &now), &was) in nearest.iter_mut().zip(&slots).zip(&prev) {
                if now < was {
                    *owner = ball;
                }
            }
            next = (far.is_finite() && far > 0.0).then_some((far_at, far));
        }
        // Depth-first preorder of the traversal tree, each node's children
        // nearest first (ties in pick order): a cluster's later pivots hang
        // close under its first one, and are visited before the far
        // subtrees of other clusters.
        let mut children = vec![Vec::new(); picked.len()];
        for (j, &(p, _)) in parent.iter().enumerate().skip(1) {
            children[p].push(j);
        }
        for kids in &mut children {
            kids.sort_by(|&a, &b| parent[a].1.total_cmp(&parent[b].1).then(a.cmp(&b)));
        }
        let mut pivots = Vec::with_capacity(picked.len());
        let mut stack: Vec<usize> = if picked.is_empty() { vec![] } else { vec![0] };
        while let Some(j) = stack.pop() {
            pivots.push(picked[j]);
            stack.extend(children[j].iter().rev());
        }
        // Assignment: the nearest pivot by the f32 Gram score
        // `‖p‖² − 2⟨x, p⟩` over the f32 mirror (four pivots per step of
        // the indexed dot kernel), then the exact reach to it. The score
        // only picks the owner; the bounds read the exact reach.
        let balls = pivots.len();
        let norms: Vec<f32> = pivots.iter().map(|&p| mirror.norm(p as usize)).collect();
        let mut owner = vec![0u32; n];
        let mut reach = vec![f64::NEG_INFINITY; n];
        let mut dots = vec![0.0f32; balls];
        for i in (0..n).filter(|&i| finite(i) && balls > 0) {
            simd::dots_f32_indexed(mirror.row(i), mirror.raw(), dim, &pivots, &mut dots);
            let mut best = f32::INFINITY;
            for (b, (&dot, &norm)) in dots.iter().zip(&norms).enumerate() {
                let score = norm - 2.0 * dot;
                if score < best {
                    (owner[i], best) = (b as u32, score);
                }
            }
            let pivot = points.coords(pivots[owner[i] as usize].into());
            reach[i] = crate::EuclideanSpace::row_dist(points.coords(i.into()), pivot);
        }
        // A pivot owns itself whatever the scores' rounding says.
        for (b, &p) in pivots.iter().enumerate() {
            (owner[p as usize], reach[p as usize]) = (b as u32, 0.0);
        }
        let pivot_dist = pivots
            .iter()
            .flat_map(|&a| {
                pivots.iter().map(move |&b| {
                    crate::EuclideanSpace::row_dist(
                        points.coords(a.into()),
                        points.coords(b.into()),
                    )
                })
            })
            .collect();
        let mut index = BallIndex {
            balls: vec![(0.0, 0); pivots.len()],
            pivots,
            owner,
            reach,
            pivot_dist,
        };
        // Every ball's radius and population.
        for i in 0..n {
            if let Some(b) = index.ball(i as u32) {
                let ball = &mut index.balls[b];
                (ball.0, ball.1) = (ball.0.max(index.reach[i]), ball.1 + 1);
            }
        }
        index
    }

    /// Whether the bounds at threshold `tau` decide at least a quarter of
    /// all point pairs of the space, bounding every ball by its whole
    /// radius and weighing it by its whole population: O(P²), the screen
    /// [`ScanPlan::new`] applies first. An unclustered input fails it at
    /// once. Whole-ball radii are looser than those of a call's own
    /// candidates, so the screen asks for less than the half a call's plan
    /// must decide.
    fn decides_enough(&self, tau: f64, scale: f64) -> bool {
        let n = self.reach.len() as f64;
        let mut decided = 0.0;
        for (a, &(ra, na)) in self.balls.iter().enumerate() {
            let dists = &self.pivot_dist[a * self.balls.len()..(a + 1) * self.balls.len()];
            for (&d, &(rb, nb)) in dists.iter().zip(&self.balls) {
                if decide(d, ra, rb, tau, scale) != OPEN {
                    decided += (na * nb) as f64;
                }
            }
        }
        4.0 * decided >= n * n
    }

    /// The ball point `id` belongs to, or `None` for a point outside every
    /// ball.
    #[inline]
    fn ball(&self, id: u32) -> Option<usize> {
        let id = id as usize;
        self.reach[id]
            .is_finite()
            .then_some(self.owner[id] as usize)
    }

    /// Number of pivots (balls).
    pub fn pivots(&self) -> usize {
        self.pivots.len()
    }
}

/// A (query, group) verdict: every pair farther than τ.
pub const OUT: u8 = 0;
/// A (query, group) verdict: every pair within τ.
pub const IN: u8 = 1;
/// A (query, group) verdict: the pairs must be classified one by one.
pub const OPEN: u8 = 2;

/// Ids grouped by ball: `order` lists positions into the id list, ball by
/// ball (each ball's positions ascending), then the positions outside
/// every ball; `groups[g]` is one non-empty group's ball (`None` for the
/// outsiders), its range in `order`, and its largest reach.
struct Grouping {
    order: Vec<u32>,
    groups: Vec<(Option<usize>, std::ops::Range<usize>, f64)>,
}

impl Grouping {
    /// Counting sort of `ids` by ball: O(|ids| + P).
    fn new(index: &BallIndex, ids: &[u32]) -> Grouping {
        let balls = index.pivots();
        let key = |id: u32| index.ball(id).unwrap_or(balls);
        let mut starts = vec![0usize; balls + 2];
        for &id in ids {
            starts[key(id) + 1] += 1;
        }
        for b in 0..=balls {
            starts[b + 1] += starts[b];
        }
        let mut fill = starts.clone();
        let mut order = vec![0u32; ids.len()];
        let mut radius = vec![0.0f64; balls + 1];
        for (i, &id) in ids.iter().enumerate() {
            let b = key(id);
            order[fill[b]] = i as u32;
            fill[b] += 1;
            if b < balls {
                radius[b] = radius[b].max(index.reach[id as usize]);
            }
        }
        let groups = (0..=balls)
            .filter(|&b| starts[b + 1] > starts[b])
            .map(|b| {
                (
                    (b < balls).then_some(b),
                    starts[b]..starts[b + 1],
                    radius[b],
                )
            })
            .collect();
        Grouping { order, groups }
    }
}

/// One query group's (query ball's) decisions against one candidate group
/// that is not [`OUT`] for all of its queries.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// The candidate group, an index into [`ScanPlan::groups`].
    pub group: usize,
    /// Offset into [`ScanPlan::verdicts`] of the group's verdict for the
    /// query group's first query; its k-th query's is `at + k`.
    pub at: usize,
}

/// The ball decisions of one multi-query scan (see [`ScanPlan::new`]).
#[derive(Debug)]
pub struct ScanPlan {
    /// Candidate *positions* (indices into the scan's candidate list),
    /// grouped by ball, each group in candidate order; the candidates
    /// outside every ball come last.
    pub order: Vec<u32>,
    /// The candidate groups' ranges in `order`, in ball order.
    pub groups: Vec<std::ops::Range<usize>>,
    /// Query *positions*, grouped by ball the same way.
    pub queries: Vec<u32>,
    /// The query groups: each one's range in `queries` and the range of
    /// its [`Block`]s in `blocks`, which ascend by candidate group.
    pub query_groups: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)>,
    /// Every query group's blocks, query group by query group.
    pub blocks: Vec<Block>,
    /// Per-query [`OUT`] / [`IN`] / [`OPEN`] verdicts of the blocks.
    pub verdicts: Vec<u8>,
}

impl ScanPlan {
    /// Decides every (query, candidate ball) of a `queries × candidates`
    /// scan at threshold `tau` (with `t2 = fl(τ²)`), or `None` — run the
    /// whole scan unpruned — when the bounds leave most pairs open.
    ///
    /// Two rules read that off the input. First, O(P²): the bounds over
    /// whole balls must decide at least a quarter of all point pairs of
    /// the space ([`BallIndex::decides_enough`]), so an input without
    /// cluster structure falls back before any per-call work. Then the
    /// call's own pairs: queries are grouped by ball too, and each (query
    /// ball A, candidate ball B) is first bounded with A's largest reach in
    /// place of `reach(q)` — such a block decision is one every query of A
    /// would reach alone (the bound only loosens with the reach, and the
    /// margin only grows) — and blocks left undecided are bounded query by
    /// query.
    /// Groups outside every ball decide nothing. As soon as the open pairs
    /// pass half of the call's pairs, the plan is dropped. A non-finite
    /// `t2` decides nothing either.
    pub fn new(
        index: &BallIndex,
        queries: &[u32],
        candidates: &[u32],
        tau: f64,
        t2: f64,
        dim: usize,
    ) -> Option<ScanPlan> {
        let scale = margin_scale(dim);
        if !t2.is_finite() || candidates.is_empty() || !index.decides_enough(tau, scale) {
            return None;
        }
        let balls = index.pivots();
        let cands = Grouping::new(index, candidates);
        let qs = Grouping::new(index, queries);
        let verdict = |d: f64, rq: f64, rc: f64| decide(d, rq, rc, tau, scale);
        let total = queries.len() * candidates.len();
        let (mut blocks, mut verdicts, mut query_groups) = (Vec::new(), Vec::new(), Vec::new());
        let mut open_pairs = 0usize;
        for &(a, ref range, qradius) in &qs.groups {
            let first_block = blocks.len();
            let members = &qs.order[range.clone()];
            for (g, &(b, ref cands_range, cradius)) in cands.groups.iter().enumerate() {
                let at = verdicts.len();
                let size = cands_range.len();
                let whole = match (a, b) {
                    (Some(a), Some(b)) => {
                        verdict(index.pivot_dist[a * balls + b], qradius, cradius)
                    }
                    _ => OPEN,
                };
                match (whole, a, b) {
                    (OUT, ..) => continue,
                    (OPEN, Some(a), Some(b)) => {
                        let d = index.pivot_dist[a * balls + b];
                        verdicts.extend(members.iter().map(|&pos| {
                            verdict(d, index.reach[queries[pos as usize] as usize], cradius)
                        }));
                        if verdicts[at..].iter().all(|&v| v == OUT) {
                            verdicts.truncate(at);
                            continue;
                        }
                    }
                    _ => verdicts.extend(std::iter::repeat_n(whole, members.len())),
                }
                open_pairs += size * verdicts[at..].iter().filter(|&&v| v == OPEN).count();
                blocks.push(Block { group: g, at });
            }
            if 2 * open_pairs > total {
                return None;
            }
            query_groups.push((range.clone(), first_block..blocks.len()));
        }
        Some(ScanPlan {
            order: cands.order,
            groups: cands
                .groups
                .into_iter()
                .map(|(_, range, _)| range)
                .collect(),
            queries: qs.order,
            query_groups,
            blocks,
            verdicts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::EuclideanSpace;

    #[test]
    fn pivot_count_is_a_third_of_the_capped_ceiling_root() {
        assert_eq!(pivot_count(0), 0);
        assert_eq!(pivot_count(1), 1);
        assert_eq!(pivot_count(81), 3);
        assert_eq!(pivot_count(82), 4);
        assert_eq!(pivot_count(10_000), 34);
        assert_eq!(pivot_count(100_000_000), MAX_PIVOTS);
    }

    /// Every reach is the exact distance to the owner pivot, bit for bit,
    /// and the owner is the nearest pivot up to the Gram score's rounding;
    /// pivots own themselves at reach 0.
    #[test]
    fn build_assigns_nearest_pivot_with_exact_reach() {
        let points = datasets::gaussian_clusters(500, 16, 7, 0.05, 3);
        let index = BallIndex::build(&points, &SoaStorage::build(&points));
        assert_eq!(index.pivots(), pivot_count(500));
        assert_eq!(index.pivots[0], 0);
        for i in 0..points.len() {
            let row = points.coords(i.into());
            let dists: Vec<f64> = index
                .pivots
                .iter()
                .map(|&p| EuclideanSpace::row_dist(row, points.coords(p.into())))
                .collect();
            let owner = index.owner[i] as usize;
            assert_eq!(
                index.reach[i].to_bits(),
                dists[owner].to_bits(),
                "point {i}"
            );
            let nearest = dists.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(dists[owner] <= nearest + 1e-6, "point {i}");
        }
        for (b, &p) in index.pivots.iter().enumerate() {
            assert_eq!(index.owner[p as usize] as usize, b);
            assert_eq!(index.reach[p as usize], 0.0);
        }
        // 12 bytes per point, 8·P² + 20·P per index.
        let p = index.pivots();
        assert_eq!((index.owner.len(), index.reach.len()), (500, 500));
        assert_eq!((index.balls.len(), index.pivot_dist.len()), (p, p * p));
    }

    /// The sample is not aliased by a periodic input: with 32 interleaved
    /// clusters (point `i` in cluster `i % 32`), every cluster owns a ball.
    #[test]
    fn pivots_cover_interleaved_clusters() {
        let points = datasets::user_embeddings(12_000, 16, 32, 0.01, 0.0, 4);
        let index = BallIndex::build(&points, &SoaStorage::build(&points));
        assert_eq!(index.pivots(), 37);
        let mut clusters: Vec<u32> = index.pivots.iter().map(|&p| p % 32).collect();
        clusters.sort_unstable();
        clusters.dedup();
        assert_eq!(clusters.len(), 32);
        // Depth-first order keeps each cluster's balls contiguous.
        let runs = 1 + index
            .pivots
            .windows(2)
            .filter(|w| w[0] % 32 != w[1] % 32)
            .count();
        assert_eq!(runs, 32, "pivots {:?}", index.pivots);
    }

    /// Non-finite rows join no ball and are never chosen as pivots, even
    /// at id 0.
    #[test]
    fn non_finite_rows_stay_outside_every_ball() {
        let mut rows = vec![vec![f64::NAN, 0.0]];
        rows.extend((0..30).map(|i| vec![i as f64, (i * i) as f64 * 0.1]));
        rows.push(vec![f64::INFINITY, 1.0]);
        let points = PointSet::from_rows(&rows);
        let index = BallIndex::build(&points, &SoaStorage::build(&points));
        assert_eq!(index.pivots[0], 1);
        assert_eq!(index.ball(0), None);
        assert_eq!(index.ball(31), None);
        assert!(index.pivots.iter().all(|&p| p != 0 && p != 31));
        assert!(index.pivot_dist.iter().all(|d| d.is_finite()));
        let nan = PointSet::from_rows(&[vec![f64::NAN]]);
        assert!(BallIndex::build(&nan, &SoaStorage::build(&nan))
            .pivots
            .is_empty());
    }

    /// Every decided verdict agrees with the exact oracle on every pair it
    /// covers, with τ on actual pair distances; open pairs are tallied.
    #[test]
    fn decisions_agree_with_the_exact_oracle() {
        let points = datasets::user_embeddings(2000, 16, 12, 0.03, 1e-3, 9);
        let index = BallIndex::build(&points, &SoaStorage::build(&points));
        let queries: Vec<u32> = (0..2000).step_by(7).collect();
        let candidates: Vec<u32> = (3..2000).step_by(3).collect();
        let mut decided = 0;
        for &(a, b) in &[(0u32, 12u32), (5, 17), (0, 1), (40, 1234)] {
            let tau = EuclideanSpace::row_dist(points.coords(a.into()), points.coords(b.into()));
            let t2 = tau * tau;
            let Some(plan) = ScanPlan::new(&index, &queries, &candidates, tau, t2, 16) else {
                continue;
            };
            let mut open = 0;
            for (members, blocks) in &plan.query_groups {
                for block in &plan.blocks[blocks.clone()] {
                    let group = plan.groups[block.group].clone();
                    for (k, &qpos) in plan.queries[members.clone()].iter().enumerate() {
                        let verdict = plan.verdicts[block.at + k];
                        if verdict == OPEN {
                            open += group.len();
                            continue;
                        }
                        let q = queries[qpos as usize];
                        for &pos in &plan.order[group.clone()] {
                            let c = candidates[pos as usize];
                            let d2 = EuclideanSpace::row_dist_sq(
                                points.coords(q.into()),
                                points.coords(c.into()),
                            );
                            assert_eq!(verdict == IN, d2 <= t2, "q={q} c={c} tau={tau}");
                            decided += 1;
                        }
                    }
                }
            }
            assert!(2 * open <= queries.len() * candidates.len());
        }
        assert!(decided > 0, "no plan decided a pair in");
    }
}
