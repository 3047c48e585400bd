//! The grid k-center engine: a rung kernel for the one Algorithm 5
//! driver in [`crate::kcenter`].
//!
//! The driver — prologue, the coarse stage and finalize on the machines'
//! shards, the τ-ladder ([`crate::ladder::mis_ladder`]) and telemetry —
//! is the same for both engines. What this engine supplies is its rung:
//! each machine builds a τ-grid over its shard's rows, and a rung's
//! bounded MIS is answered with spatial hashing instead of all-pairs
//! threshold kernels.
//!
//! The all-pairs engine evaluates a rung by running the Algorithm 3/4
//! machinery, whose dominant cost is the degree approximation: every
//! alive point is scanned against an `n/m`-point sample, `Θ(n²/m)` pairs
//! per round, and the sample itself costs `Θ(n/m)` words of all-to-all
//! traffic per machine. The grid engine replaces both: each machine buckets its local points into a
//! [`GridIndex`] with cell side `τ`, so domination queries touch only the
//! ≤ `3^d` stencil-adjacent cells — near-linear local work in `n` for
//! constant dimension — and the only traffic is candidate centers,
//! `O(mk)` points per round. This is the "fully scalable" regime of the
//! follow-up line (Coy–Czumaj–Mishra; Czumaj–Gao–Ghaffari–Jiang,
//! arXiv:2504.16382): per-machine communication independent of `n`.
//!
//! ## The rung protocol
//!
//! A rung asks for a (k+1)-bounded maximal independent set of the
//! threshold graph `G_τ`. The grid engine computes a **true** bounded MIS
//! (same acceptance semantics and approximation factor as Algorithm 4's,
//! different tie-breaking) by iterating:
//!
//! 1. every machine proposes a greedy independent set of its undominated
//!    local points (id order, tentative τ-ball marking via its grid), at
//!    most `k + 1 − |C|` proposals each;
//! 2. proposals are gathered; the coordinator extends `C` greedily in
//!    global id order, keeping candidates pairwise > τ apart;
//! 3. accepted centers are broadcast; machines mark their τ-balls
//!    dominated via stencil scans.
//!
//! The smallest-id candidate of every round is independent of `C` (its
//! machine checked domination before proposing), so each iteration grows
//! `C` or terminates: ≤ k + 2 iterations, 2 rounds each. Accepted rungs
//! are genuinely maximal — every point is within τ of a center — which is
//! exactly the invariant Algorithm 5's `2(1+ε)` guarantee needs; rejected
//! rungs expose k + 1 points pairwise > τ, the same pigeonhole
//! certificate. Tentative marks from unaccepted proposals are discarded
//! each iteration (an unaccepted candidate is only known to be within τ
//! of a *center*, not its markees), so maximality never leaks.
//!
//! A caller picks the engine by its entry point: [`mpc_kcenter_grid`] /
//! [`mpc_kcenter_grid_on`] here, or [`crate::kcenter::mpc_kcenter`] for
//! all-pairs. The stencil visits 3^d cells per query, so the grid pays
//! off at low dimension only.

use std::borrow::Cow;
use std::ops::Range;

use mpc_metric::{simd, EuclideanSpace, GridIndex, KernelStats, MetricSpace, PointId, PointSet};
use mpc_sim::Cluster;

use crate::common::{Input, Run, Shards, Slab};
use crate::kcenter::{kcenter_with, KCenterResult, KCenterSteps};
use crate::params::Params;

/// Which evaluation engine answers the k-center ladder's rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KCenterEngine {
    /// Algorithm 3/4 threshold-graph machinery over all candidate pairs —
    /// works in any metric space.
    #[default]
    AllPairs,
    /// τ-scaled spatial hashing ([`GridIndex`]) — Euclidean only, work
    /// per rung near-linear in `n` for constant dimension.
    Grid,
}

impl KCenterEngine {
    /// Always [`KCenterEngine::AllPairs`], the engine serving snapshots
    /// run, whatever `dim` is. It reads no environment variable; callers
    /// choose the grid engine by calling [`mpc_kcenter_grid`].
    pub fn from_env(_dim: usize) -> KCenterEngine {
        KCenterEngine::AllPairs
    }

    /// The lowercase name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            KCenterEngine::AllPairs => "allpairs",
            KCenterEngine::Grid => "grid",
        }
    }
}

/// Per-machine state of one rung's grid protocol: the local τ-grid over
/// the machine's shard, the shard's rows in the grid's slot order, the
/// authoritative domination flags (within τ of an accepted center), and
/// the per-iteration tentative marks (within τ of this iteration's own
/// proposals), all indexed by grid slot.
struct MachineGrid<'a> {
    shard: Slab<'a>,
    /// Grid over the shard's local ids.
    grid: GridIndex,
    /// The shard's rows permuted to slot order, dimension-major: each
    /// stencil cell is one contiguous run of the exact kernel. A copy of
    /// rows the machine already holds, so the ledger does not charge it.
    cells: Vec<f64>,
    dominated: Vec<bool>,
    tentative: Vec<u32>,
    /// Input positions before this are authoritatively dominated — the
    /// resume point for the proposal scan.
    start: usize,
    /// Keep words of the current stencil run.
    keep: Vec<u64>,
}

impl<'a> MachineGrid<'a> {
    fn build(shard: Slab<'a>, tau: f64) -> Self {
        let grid = GridIndex::build_cols(shard.cols, shard.dim, tau);
        let n = shard.len();
        let mut cells = vec![0.0; shard.cols.len()];
        // One column at a time (`max(1)`: an empty shard has no columns).
        for (dst, src) in cells
            .chunks_exact_mut(n.max(1))
            .zip(shard.cols.chunks_exact(n.max(1)))
        {
            for (slot, x) in dst.iter_mut().enumerate() {
                *x = src[grid.member(slot) as usize];
            }
        }
        Self {
            shard,
            grid,
            cells,
            dominated: vec![false; n],
            tentative: vec![0; n],
            start: 0,
            keep: Vec::new(),
        }
    }

    /// Ledger words for the grid plus the two per-point flag arrays.
    fn memory_words(&self) -> u64 {
        self.grid.memory_words() + (5 * self.shard.len() as u64).div_ceil(8)
    }

    /// Greedy independent proposals among undominated local points, at
    /// most `need`, folding stencil tallies into `stats`.
    fn propose(&mut self, tau: f64, need: usize, epoch: u32, stats: &mut KernelStats) -> Vec<u32> {
        let mut out = Vec::new();
        if need == 0 {
            return out;
        }
        let Self {
            shard,
            grid,
            cells,
            dominated,
            tentative,
            start,
            keep,
        } = self;
        while *start < shard.len() && dominated[grid.slot_of(*start)] {
            *start += 1;
        }
        let mut a = vec![0.0; shard.dim];
        for (i, &id) in shard.members.iter().enumerate().skip(*start) {
            let slot = grid.slot_of(i);
            if dominated[slot] || tentative[slot] == epoch {
                continue;
            }
            out.push(id);
            shard.read_row(i, &mut a);
            let mut pairs = 0u64;
            let scan = grid.stencil(&a, |run| {
                pairs += run.len() as u64;
                within(&a, cells, run, tau, keep, |s| tentative[s] = epoch);
            });
            stats.grid_stencil_cells += scan.cells as u64;
            stats.grid_pairs += pairs;
            if out.len() == need {
                break;
            }
        }
        out
    }

    /// Marks the τ-balls of newly accepted centers, given as gathered
    /// rows, as dominated. A pair counts when its point was not yet
    /// dominated; the kernel judges the whole run, and already dominated
    /// points stay dominated.
    fn mark(&mut self, tau: f64, centers: &PointSet, stats: &mut KernelStats) {
        let Self {
            grid,
            cells,
            dominated,
            keep,
            ..
        } = self;
        for c in centers.raw().chunks_exact(centers.dim()) {
            let mut pairs = 0u64;
            let scan = grid.stencil(c, |run| {
                pairs += dominated[run.clone()].iter().filter(|&&d| !d).count() as u64;
                within(c, cells, run, tau, keep, |s| dominated[s] = true);
            });
            stats.grid_stencil_cells += scan.cells as u64;
            stats.grid_pairs += pairs;
        }
    }
}

/// Calls `hit(slot)` for every slot of `run` whose row in the slot-ordered
/// slab `cells` is within `tau` of `q` — [`simd::exact_within_run`]'s
/// verdict, which is `row_dist(q, row) <= tau` bit for bit — in slot
/// order, using `keep` as the run's word scratch.
fn within(
    q: &[f64],
    cells: &[f64],
    run: Range<usize>,
    tau: f64,
    keep: &mut Vec<u64>,
    mut hit: impl FnMut(usize),
) {
    let n = cells.len() / q.len().max(1);
    keep.resize(simd::run_words(run.len()), 0);
    simd::exact_within_run(q, cells, n, run.start, run.len(), tau, keep);
    for (w, &word) in keep.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            hit(run.start + w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// One rung of the grid engine: a true (≤ `bound`)-bounded maximal
/// independent set of `G_τ` over `local_sets`, by the iterated
/// propose/extend/mark protocol described in the module docs. Returns the
/// set sorted ascending; `|set| = bound` means the rung's independence
/// certificate fired (the set may then not be maximal, exactly like
/// Algorithm 4's truncated returns).
///
/// Gathers each machine's rows into a slab of its own first; a caller
/// evaluating many rungs over one partition ([`mpc_kcenter_grid_on`])
/// gathers once and reuses the shards.
pub fn grid_k_bounded_mis(
    cluster: &mut Cluster,
    space: &EuclideanSpace,
    local_sets: &[Vec<u32>],
    tau: f64,
    bound: usize,
    stats: &mut KernelStats,
) -> Vec<u32> {
    let shards = Shards::new(space, Cow::Borrowed(local_sets));
    grid_rung(cluster, &shards, tau, bound, stats)
}

/// [`grid_k_bounded_mis`] on the machines' shards.
pub(crate) fn grid_rung(
    cluster: &mut Cluster,
    shards: &Shards<'_, EuclideanSpace>,
    tau: f64,
    bound: usize,
    stats: &mut KernelStats,
) -> Vec<u32> {
    assert!(bound >= 1);
    let space = shards.metric();
    let point_words = space.point_weight() + 1; // coords + id

    // Machine-local grid builds (no communication; memory is noted).
    let slabs = shards.slabs(cluster).expect("a Euclidean shard has rows");
    let mut machines: Vec<MachineGrid> =
        cluster.map(&slabs, |_, &slab| MachineGrid::build(slab, tau));
    let grid_words: Vec<u64> = machines.iter().map(|m| m.memory_words()).collect();
    cluster.note_memory_all(&grid_words);
    for m in &machines {
        stats.grid_cells += m.grid.n_cells() as u64;
    }

    let mut centers: Vec<u32> = Vec::new();
    let mut epoch = 0u32;
    loop {
        epoch += 1;
        let need = bound - centers.len();
        let outs = cluster.map_mut(&mut machines, |_, st| {
            let mut s = KernelStats::default();
            let out = st.propose(tau, need, epoch, &mut s);
            (out, s)
        });
        let proposals: Vec<Vec<u32>> = outs
            .into_iter()
            .map(|(out, s)| {
                stats.merge(&s);
                out
            })
            .collect();
        let mut cands = cluster.gather("grid/propose", proposals, point_words);
        if cands.is_empty() {
            // Termination signal: one word to every machine.
            cluster.broadcast("grid/stop", vec![()], 1);
            break;
        }
        // Coordinator: extend greedily in global id order; candidates are
        // already > τ from `centers` (their machines checked domination),
        // so only pairwise checks among this round's acceptances remain.
        cands.sort_unstable();
        let mut fresh: Vec<u32> = Vec::new();
        for c in cands {
            let independent = fresh
                .iter()
                .all(|&z| space.dist(PointId(c), PointId(z)) > tau);
            stats.grid_pairs += fresh.len() as u64;
            if independent {
                fresh.push(c);
                if centers.len() + fresh.len() == bound {
                    break;
                }
            }
        }
        let fresh = cluster.broadcast("grid/centers", fresh, point_words);
        centers.extend(&fresh);
        if centers.len() == bound {
            break;
        }
        let fresh_rows = space.points().gather(&fresh);
        let mark_stats: Vec<KernelStats> = cluster.map_mut(&mut machines, |_, st| {
            let mut s = KernelStats::default();
            st.mark(tau, &fresh_rows, &mut s);
            s
        });
        for s in &mark_stats {
            stats.merge(s);
        }
    }
    centers.sort_unstable();
    centers
}

/// The grid engine's rung kernel: [`grid_rung`]s over the machines'
/// shards, with their grid tallies.
struct GridRungs<'a> {
    shards: &'a Shards<'a, EuclideanSpace>,
    /// Grid tallies of every rung so far.
    stats: KernelStats,
}

impl KCenterSteps for GridRungs<'_> {
    fn mis(&mut self, cluster: &mut Cluster, tau: f64, bound: usize) -> Vec<u32> {
        grid_rung(cluster, self.shards, tau, bound, &mut self.stats)
    }

    fn tallies(&self) -> Option<&KernelStats> {
        Some(&self.stats)
    }
}

/// Algorithm 5 on the grid engine: the driver of
/// [`crate::kcenter::mpc_kcenter`], with rungs answered by the grid
/// protocol of
/// [`grid_k_bounded_mis`] — same `2(1+ε)` guarantee, different (still
/// deterministic) tie-breaking, per-machine traffic `O(mk)` instead of
/// `Θ(n/m)`.
pub fn mpc_kcenter_grid(space: &EuclideanSpace, k: usize, params: &Params) -> KCenterResult {
    let mut cluster = Cluster::new(params.m, params.seed);
    mpc_kcenter_grid_on(&mut cluster, space, k, params)
}

/// Like [`mpc_kcenter_grid`] on a caller-provided cluster.
pub fn mpc_kcenter_grid_on(
    cluster: &mut Cluster,
    space: &EuclideanSpace,
    k: usize,
    params: &Params,
) -> KCenterResult {
    assert!(k >= 1, "k must be positive");
    let (run, [shards]) = Run::start(cluster, space, params, [Input::Points]);
    let engine = GridRungs {
        shards: &shards,
        stats: KernelStats::default(),
    };
    kcenter_with(cluster, run, &shards, k, params, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcenter::{mpc_kcenter, sequential_gmm_kcenter};
    use mpc_metric::{datasets, dist_point_to_set, PointSet};

    fn realized_radius(space: &EuclideanSpace, centers: &[PointId]) -> f64 {
        (0..space.n() as u32)
            .map(|v| dist_point_to_set(space, PointId(v), centers))
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn grid_mis_is_maximal_and_independent() {
        let space = EuclideanSpace::new(datasets::uniform_cube(400, 3, 5));
        let members: Vec<u32> = (0..400u32).collect();
        let local_sets: Vec<Vec<u32>> = (0..4)
            .map(|m| members.iter().copied().filter(|id| id % 4 == m).collect())
            .collect();
        let tau = 0.4;
        let mut cluster = Cluster::new(4, 5);
        let mut stats = KernelStats::default();
        let set = grid_k_bounded_mis(&mut cluster, &space, &local_sets, tau, 400, &mut stats);
        // Independent: pairwise > τ.
        for (a, &i) in set.iter().enumerate() {
            for &j in &set[a + 1..] {
                assert!(space.dist(PointId(i), PointId(j)) > tau);
            }
        }
        // Maximal: every point within τ of the set.
        let ids: Vec<PointId> = set.iter().map(|&i| PointId(i)).collect();
        for v in 0..400u32 {
            assert!(dist_point_to_set(&space, PointId(v), &ids) <= tau);
        }
        assert!(stats.grid_pairs > 0 && stats.grid_cells > 0);
    }

    #[test]
    fn grid_mis_truncates_at_bound() {
        let space = EuclideanSpace::new(datasets::uniform_cube(200, 2, 9));
        let local_sets: Vec<Vec<u32>> = vec![(0..200u32).collect()];
        let mut cluster = Cluster::new(1, 9);
        let mut stats = KernelStats::default();
        let set = grid_k_bounded_mis(&mut cluster, &space, &local_sets, 1e-6, 5, &mut stats);
        assert_eq!(set.len(), 5, "tiny τ forces the independence certificate");
    }

    #[test]
    fn grid_engine_matches_allpairs_guarantee() {
        for (n, dim, k, seed) in [(500usize, 2usize, 5usize, 3u64), (400, 3, 7, 11)] {
            let space = EuclideanSpace::new(datasets::gaussian_clusters(n, dim, k, 0.03, seed));
            let params = Params::practical(4, 0.1, seed);
            let grid = mpc_kcenter_grid(&space, k, &params);
            let seq = sequential_gmm_kcenter(&space, k);
            assert!(grid.centers.len() <= k);
            assert!(
                grid.radius <= 2.0 * (1.0 + params.epsilon) * seq.radius + 1e-9,
                "grid radius {} vs sequential {}",
                grid.radius,
                seq.radius
            );
            let all = mpc_kcenter(&space, k, &params);
            // Both engines carry the same 2(1+ε) guarantee against r*, and
            // each radius is itself ≥ r*, so either is within 2(1+ε) of
            // the other.
            assert!(
                grid.radius <= 2.0 * (1.0 + params.epsilon) * all.radius + 1e-9,
                "grid {} vs allpairs {}",
                grid.radius,
                all.radius
            );
            let true_r = realized_radius(&space, &grid.centers);
            assert!((grid.radius - true_r).abs() < 1e-9);
        }
    }

    #[test]
    fn duplicates_collapse_to_zero_radius() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 3) as f64, 0.0]).collect();
        let space = EuclideanSpace::new(PointSet::from_rows(&rows));
        let res = mpc_kcenter_grid(&space, 3, &Params::practical(2, 0.1, 1));
        assert!(res.radius <= 1e-12);
    }
}
