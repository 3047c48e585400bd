//! `GridIndex` — a τ-scaled spatial hash over Euclidean points, the
//! substrate of the grid k-center engine (`mpc-core/src/grid.rs`).
//!
//! The index buckets points into axis-aligned cells of side `τ`. Any two
//! points at distance ≤ τ differ by at most τ per axis, so they land in
//! the same cell or in one of the `3^d − 1` adjacent cells — a coverage or
//! domination query therefore scans only the **stencil** of ≤ `3^d` cells
//! around the query point instead of every candidate, turning the
//! all-pairs `O(|queries|·|cands|)` rung kernels into `O(|queries|·3^d)`
//! cell lookups plus the exact checks on the points those cells hold.
//!
//! ## Cell keys and aliasing
//!
//! A cell is identified by packing its `d` per-axis coordinates (relative
//! to the per-axis minimum) into one `u64`, `⌊64/d⌋` bits per axis. When
//! an axis spans more cells than its bit budget, distant coordinates wrap
//! onto the same packed key (aliasing). This is deliberately allowed:
//! addition commutes with masking, so a true-adjacent cell's key is always
//! one of the 3^d wrapped stencil keys, and the exact distance check the
//! caller performs on scanned points rejects aliased far points. Aliasing
//! can therefore cost extra scanned pairs, never a wrong verdict.
//!
//! ## Deterministic parallel build
//!
//! Construction is a bucket sort of `(cell key, point id, input position)`
//! entries: fixed size chunks of the member list are keyed and sorted on
//! the worker pool (the chunk split is a function of the member count
//! only — see [`crate::space::par_chunk_size`]), then the sorted runs are
//! merged sequentially. Every step is independent of the thread count, so
//! the index — like every other structure in this codebase — is
//! bit-identical across `KCENTER_THREADS` settings.

use rayon::prelude::*;

use crate::point::PointSet;
use crate::space;

/// Largest dimension a [`GridIndex`] packs: each axis needs at least one
/// of the key's 64 bits. It also sizes the stencil's stack counters.
pub const MAX_DIM: usize = 64;

/// Tallies of one stencil scan: how many cells were looked up and how many
/// member points they surfaced (the pairs the caller then checks exactly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridScan {
    /// Stencil cells probed (≤ 3^d, counting empty lookups).
    pub cells: usize,
    /// Member points surfaced for exact distance checks.
    pub points: usize,
}

/// A flat spatial hash over a subset of a [`PointSet`]: cells of side
/// `side`, stored as a CSR over the sorted distinct occupied cell keys.
#[derive(Debug, Clone)]
pub struct GridIndex {
    dim: usize,
    side: f64,
    /// Per-axis minimum over the indexed members — the grid origin.
    origin: Vec<f64>,
    /// Bits of packed key budget per axis (`⌊64/d⌋`, clamped to [1, 63]).
    bits: u32,
    mask: u64,
    /// Sorted distinct occupied cell keys.
    keys: Vec<u64>,
    /// CSR offsets into `ids`; `keys.len() + 1` entries.
    starts: Vec<u32>,
    /// Member point ids grouped by cell, ascending id within a cell.
    ids: Vec<u32>,
    /// `slots[i]` = position in `ids` of the i-th input member, so callers
    /// can keep per-member state (e.g. domination flags) in scan order.
    slots: Vec<u32>,
}

impl GridIndex {
    /// Builds the index over `members` (distinct ids into `points`) with
    /// cell side `side`. Deterministic at every thread count.
    ///
    /// Panics if `side` is not a positive finite number, or if the points
    /// have more than [`MAX_DIM`] dimensions.
    pub fn build(points: &PointSet, members: &[u32], side: f64) -> Self {
        assert!(
            side.is_finite() && side > 0.0,
            "grid cell side must be positive and finite, got {side}"
        );
        let dim = points.dim().max(1);
        assert!(
            dim <= MAX_DIM,
            "grid index supports at most {MAX_DIM} dimensions, got {dim}"
        );
        let bits = ((64 / dim) as u32).clamp(1, 63);
        let mask = (1u64 << bits) - 1;
        let n = members.len();

        // Per-axis minima — the grid origin. min is exact and
        // order-independent on finite coordinates, so the chunked fold
        // equals the sequential one.
        let origin = if n == 0 {
            vec![0.0; dim]
        } else if space::par_bulk(n) {
            members
                .par_chunks(space::par_chunk_size(n))
                .map(|chunk| axis_minima(points, chunk, dim))
                .collect::<Vec<_>>()
                .into_iter()
                .reduce(|mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x = x.min(*y);
                    }
                    a
                })
                .unwrap()
        } else {
            axis_minima(points, members, dim)
        };

        // Bucket sort: key every member, sort fixed chunks on the pool,
        // merge the ≤ MAX_CHUNKS sorted runs sequentially. Each entry
        // carries its member's input position, so the slot map falls out
        // of the merged order without an id-indexed table. Ids are
        // distinct, so the position never breaks a tie.
        let key_chunk = |offset: usize, chunk: &[u32]| -> Vec<Entry> {
            let mut run: Vec<Entry> = chunk
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    (
                        pack_key(points.raw(), dim, id, &origin, side, bits, mask),
                        id,
                        (offset + i) as u32,
                    )
                })
                .collect();
            run.sort_unstable();
            run
        };
        let runs: Vec<Vec<Entry>> = if space::par_bulk(n) {
            let size = space::par_chunk_size(n);
            members
                .par_chunks(size)
                .enumerate()
                .map(|(c, chunk)| key_chunk(c * size, chunk))
                .collect()
        } else if n == 0 {
            Vec::new()
        } else {
            vec![key_chunk(0, members)]
        };
        let sorted = merge_runs(runs, n);

        // CSR over the sorted entries + the input-order slot map.
        let mut keys = Vec::new();
        let mut starts = Vec::with_capacity(16);
        let mut ids = Vec::with_capacity(n);
        let mut slots = vec![0u32; n];
        for (slot, &(key, id, pos)) in sorted.iter().enumerate() {
            if slot == 0 || keys.last() != Some(&key) {
                keys.push(key);
                starts.push(slot as u32);
            }
            ids.push(id);
            slots[pos as usize] = slot as u32;
        }
        starts.push(n as u32);

        Self {
            dim,
            side,
            origin,
            bits,
            mask,
            keys,
            starts,
            ids,
            slots,
        }
    }

    /// Number of indexed members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the index holds no members.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of distinct occupied cells.
    pub fn n_cells(&self) -> usize {
        self.keys.len()
    }

    /// The cell side the index was built with.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Resident size in ledger words (8-byte units): keys, CSR offsets,
    /// ids, slots, origin — what a machine holding this index pays beyond
    /// its input points.
    pub fn memory_words(&self) -> u64 {
        (self.keys.len() + self.origin.len()) as u64
            + (self.starts.len() as u64 + self.ids.len() as u64 + self.slots.len() as u64)
                .div_ceil(2)
    }

    /// Position in scan order of the `i`-th input member (the id at
    /// `members[i]` during [`GridIndex::build`]). Callers index per-member
    /// state (domination flags) by this slot.
    pub fn slot_of(&self, i: usize) -> usize {
        self.slots[i] as usize
    }

    /// The member id stored at `slot`.
    pub fn member(&self, slot: usize) -> u32 {
        self.ids[slot]
    }

    /// Scans the ≤ 3^d stencil cells around `coords`, invoking
    /// `visit(slot, id)` for every member point they hold, and returns the
    /// scan tallies. Every member within `side` of `coords` (in any `L_p`,
    /// since per-axis deltas are then ≤ side) is visited; aliased or
    /// corner points beyond `side` may also be visited — callers decide
    /// with an exact distance check.
    pub fn stencil<F: FnMut(usize, u32)>(&self, coords: &[f64], mut visit: F) -> GridScan {
        debug_assert_eq!(coords.len(), self.dim);
        let mut base = [0u64; MAX_DIM];
        for (a, b) in base[..self.dim].iter_mut().enumerate() {
            *b = axis_cell(coords[a], self.origin[a], self.side);
        }
        let mut scan = GridScan::default();
        // Mixed-radix counter over the 3^d per-axis offsets {-1, 0, +1}.
        let mut offs = [0u8; MAX_DIM];
        loop {
            let mut key = 0u64;
            for a in 0..self.dim {
                let c = match offs[a] {
                    0 => base[a].wrapping_sub(1),
                    1 => base[a],
                    _ => base[a].wrapping_add(1),
                } & self.mask;
                key |= c << (a as u32 * self.bits);
            }
            scan.cells += 1;
            if let Ok(ci) = self.keys.binary_search(&key) {
                let (lo, hi) = (self.starts[ci] as usize, self.starts[ci + 1] as usize);
                scan.points += hi - lo;
                for slot in lo..hi {
                    visit(slot, self.ids[slot]);
                }
            }
            // Advance the counter; done after the all-(+1) combination.
            let mut a = 0;
            loop {
                if a == self.dim {
                    return scan;
                }
                offs[a] += 1;
                if offs[a] < 3 {
                    break;
                }
                offs[a] = 0;
                a += 1;
            }
        }
    }
}

/// Per-axis minima of `chunk`'s coordinates.
fn axis_minima(points: &PointSet, chunk: &[u32], dim: usize) -> Vec<f64> {
    let data = points.raw();
    let mut mins = vec![f64::INFINITY; dim];
    for &id in chunk {
        let row = &data[id as usize * dim..(id as usize + 1) * dim];
        for (m, &x) in mins.iter_mut().zip(row) {
            *m = m.min(x);
        }
    }
    mins
}

/// The (possibly wrapped) cell coordinate of `x` on one axis.
#[inline]
fn axis_cell(x: f64, origin: f64, side: f64) -> u64 {
    // x ≥ origin for indexed members, so the floor is ≥ 0 there; query
    // points below the origin saturate to cell 0, whose stencil still
    // covers everything within one side of the boundary.
    let c = ((x - origin) / side).floor();
    if c <= 0.0 {
        0
    } else if c >= u64::MAX as f64 {
        u64::MAX
    } else {
        c as u64
    }
}

/// Packs point `id`'s masked per-axis cell coordinates into one key.
#[inline]
fn pack_key(
    data: &[f64],
    dim: usize,
    id: u32,
    origin: &[f64],
    side: f64,
    bits: u32,
    mask: u64,
) -> u64 {
    let row = &data[id as usize * dim..(id as usize + 1) * dim];
    let mut key = 0u64;
    for (a, (&x, &o)) in row.iter().zip(origin).enumerate() {
        key |= (axis_cell(x, o, side) & mask) << (a as u32 * bits);
    }
    key
}

/// One bucket-sort entry: `(cell key, member id, input position)`.
type Entry = (u64, u32, u32);

/// Sequential k-way merge of sorted [`Entry`] runs via a tournament over
/// run heads — O(n log runs), deterministic by construction.
fn merge_runs(runs: Vec<Vec<Entry>>, n: usize) -> Vec<Entry> {
    if runs.len() <= 1 {
        return runs.into_iter().next().unwrap_or_default();
    }
    let mut heads: Vec<usize> = vec![0; runs.len()];
    let mut out = Vec::with_capacity(n);
    // A binary heap keyed by (entry, run index) keeps ties deterministic;
    // ids are distinct so entries never actually tie.
    let mut heap = std::collections::BinaryHeap::with_capacity(runs.len());
    for (r, run) in runs.iter().enumerate() {
        if let Some(&e) = run.first() {
            heap.push(std::cmp::Reverse((e, r)));
        }
    }
    while let Some(std::cmp::Reverse((e, r))) = heap.pop() {
        out.push(e);
        heads[r] += 1;
        if let Some(&next) = runs[r].get(heads[r]) {
            heap.push(std::cmp::Reverse((next, r)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::point::PointId;
    use crate::space::MetricSpace;
    use crate::EuclideanSpace;
    use rayon::with_threads;

    fn brute_neighbors(space: &EuclideanSpace, members: &[u32], p: u32, tau: f64) -> Vec<u32> {
        members
            .iter()
            .copied()
            .filter(|&q| space.dist(PointId(p), PointId(q)) <= tau)
            .collect()
    }

    #[test]
    fn stencil_finds_every_point_within_side() {
        for (n, dim, seed) in [(300usize, 2usize, 7u64), (200, 3, 11), (150, 5, 13)] {
            let points = datasets::uniform_cube(n, dim, seed);
            let space = EuclideanSpace::new(points.clone());
            let members: Vec<u32> = (0..n as u32).collect();
            let tau = 0.25;
            let grid = GridIndex::build(&points, &members, tau);
            for &p in members.iter().step_by(17) {
                let mut found = Vec::new();
                grid.stencil(points.coords(PointId(p)), |_, id| found.push(id));
                for q in brute_neighbors(&space, &members, p, tau) {
                    assert!(
                        found.contains(&q),
                        "point {q} within τ of {p} missed by stencil (d={dim})"
                    );
                }
            }
        }
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let n = 6000; // above PAR_MIN_BULK so the parallel path engages
        let points = datasets::gaussian_clusters(n, 3, 5, 0.05, 3);
        let ascending: Vec<u32> = (0..n as u32).collect();
        let descending: Vec<u32> = ascending.iter().rev().copied().collect();
        // A scrambled order (multiplication by a unit mod n) and a sparse
        // subset out of id order: positions and ids disagree everywhere.
        let scrambled: Vec<u32> = (0..n as u64)
            .map(|i| (i * 2423 % n as u64) as u32)
            .collect();
        let sparse: Vec<u32> = scrambled.iter().copied().filter(|id| id % 3 != 0).collect();
        for members in [&ascending, &descending, &scrambled, &sparse] {
            let reference = with_threads(1, || GridIndex::build(&points, members, 0.1));
            for (i, &id) in members.iter().enumerate() {
                assert_eq!(reference.member(reference.slot_of(i)), id);
            }
            for threads in [2usize, 8] {
                let g = with_threads(threads, || GridIndex::build(&points, members, 0.1));
                assert_eq!(g.keys, reference.keys, "t={threads}");
                assert_eq!(g.starts, reference.starts, "t={threads}");
                assert_eq!(g.ids, reference.ids, "t={threads}");
                assert_eq!(g.slots, reference.slots, "t={threads}");
            }
        }
    }

    #[test]
    fn slots_invert_scan_order() {
        let points = datasets::uniform_cube(100, 2, 5);
        let members: Vec<u32> = (0..100u32).rev().collect(); // arbitrary order
        let grid = GridIndex::build(&points, &members, 0.3);
        for (i, &id) in members.iter().enumerate() {
            assert_eq!(grid.member(grid.slot_of(i)), id);
        }
    }

    #[test]
    fn cells_group_by_key_with_ascending_ids() {
        let points = datasets::uniform_cube(500, 2, 9);
        let ascending: Vec<u32> = (0..500u32).collect();
        let descending: Vec<u32> = (0..500u32).rev().collect();
        for members in [ascending, descending] {
            let grid = GridIndex::build(&points, &members, 0.2);
            assert!(grid.keys.windows(2).all(|w| w[0] < w[1]));
            for ci in 0..grid.n_cells() {
                let cell = &grid.ids[grid.starts[ci] as usize..grid.starts[ci + 1] as usize];
                assert!(cell.windows(2).all(|w| w[0] < w[1]));
            }
            assert_eq!(grid.len(), 500);
            assert!(grid.memory_words() > 0);
        }
    }

    #[test]
    fn tiny_side_isolates_distinct_points_despite_aliasing() {
        // Side far below the point spacing: every occupied cell holds one
        // point unless packed keys alias. The stencil must still find each
        // point from its own coordinates.
        let points = datasets::uniform_cube(64, 8, 21); // 8 bits per axis
        let members: Vec<u32> = (0..64u32).collect();
        let grid = GridIndex::build(&points, &members, 1e-4);
        for &p in &members {
            let mut found = Vec::new();
            grid.stencil(points.coords(PointId(p)), |_, id| found.push(id));
            assert!(found.contains(&p), "point {p} must find itself");
        }
    }

    #[test]
    fn empty_members_build() {
        let points = datasets::uniform_cube(10, 2, 1);
        let grid = GridIndex::build(&points, &[], 1.0);
        assert!(grid.is_empty());
        assert_eq!(grid.n_cells(), 0);
        let scan = grid.stencil(&[0.5, 0.5], |_, _| panic!("no members"));
        assert_eq!(scan.points, 0);
        assert_eq!(scan.cells, 9);
    }

    #[test]
    #[should_panic(expected = "at most 64 dimensions")]
    fn rejects_dimensions_past_the_key_budget() {
        let points = datasets::uniform_cube(4, MAX_DIM + 1, 1);
        GridIndex::build(&points, &[0, 1], 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nonpositive_side() {
        let points = datasets::uniform_cube(10, 2, 1);
        GridIndex::build(&points, &[0], 0.0);
    }
}
