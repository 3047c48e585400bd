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
//! ## Deterministic build
//!
//! Construction keys every row (fixed size chunks on the worker pool when
//! the slab is large — the split is a function of the row count only, see
//! [`crate::space::par_chunk_size`]), then buckets the rows by cell: a
//! small hash table collects the distinct occupied keys — a few hundred
//! at most on clustered data, against thousands of rows — which are
//! sorted, and one counting pass places every row, in ascending order, at
//! its cell's next slot. No step depends on the
//! thread count, so the index — like every other structure in this
//! codebase — is bit-identical across `KCENTER_THREADS` settings.

use std::ops::Range;

use rayon::prelude::*;

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

/// A flat spatial hash over the rows of a dimension-major slab: cells of
/// side `side`, stored as a CSR over the sorted distinct occupied cell
/// keys.
#[derive(Debug, Clone)]
pub struct GridIndex {
    dim: usize,
    side: f64,
    /// Per-axis minimum over the indexed rows — the grid origin.
    origin: Vec<f64>,
    /// Bits of packed key budget per axis (`⌊64/d⌋`, clamped to [1, 63]).
    bits: u32,
    mask: u64,
    /// Sorted distinct occupied cell keys.
    keys: Vec<u64>,
    /// CSR offsets into `ids`; `keys.len() + 1` entries.
    starts: Vec<u32>,
    /// Row ids grouped by cell, ascending within a cell.
    ids: Vec<u32>,
    /// `slots[i]` = position in `ids` of row `i`, so callers can keep
    /// per-member state (e.g. domination flags) in scan order.
    slots: Vec<u32>,
}

impl GridIndex {
    /// Builds the index over every row `0..n` of a dimension-major slab
    /// (`cols[a * n + j]` is row `j`'s coordinate on axis `a`) with cell
    /// side `side`; the rows' positions are the member ids. Deterministic
    /// at every thread count.
    ///
    /// Panics if `side` is not a positive finite number, or if `dim`
    /// exceeds [`MAX_DIM`].
    pub fn build_cols(cols: &[f64], dim: usize, side: f64) -> Self {
        assert!(
            side.is_finite() && side > 0.0,
            "grid cell side must be positive and finite, got {side}"
        );
        let dim = dim.max(1);
        assert!(
            dim <= MAX_DIM,
            "grid index supports at most {MAX_DIM} dimensions, got {dim}"
        );
        let bits = ((64 / dim) as u32).clamp(1, 63);
        let mask = (1u64 << bits) - 1;
        let n = cols.len() / dim;
        // One slab column per axis (`max(1)`: an empty slab has none).
        let columns = || cols.chunks_exact(n.max(1));

        // Per-axis minima — the grid origin. min is exact and
        // order-independent on finite coordinates.
        let origin: Vec<f64> = if n == 0 {
            vec![0.0; dim]
        } else {
            columns()
                .map(|col| col.iter().fold(f64::INFINITY, |m, &x| m.min(x)))
                .collect()
        };

        // Every row's packed cell key, one axis's bit field at a time.
        let key_rows = |rows: Range<usize>| -> Vec<u64> {
            let mut keys = vec![0u64; rows.len()];
            for (a, col) in columns().enumerate() {
                for (key, &x) in keys.iter_mut().zip(&col[rows.clone()]) {
                    *key |= (axis_cell(x, origin[a], side) & mask) << (a as u32 * bits);
                }
            }
            keys
        };
        let row_keys: Vec<u64> = if space::par_bulk(n) {
            let size = space::par_chunk_size(n);
            (0..n.div_ceil(size))
                .into_par_iter()
                .map(|c| key_rows(c * size..n.min((c + 1) * size)))
                .collect::<Vec<_>>()
                .concat()
        } else {
            key_rows(0..n)
        };

        // Bucket by cell: distinct keys in first-seen order, then sorted,
        // and a counting pass for the CSR offsets.
        let (seen, cell_of) = distinct_keys(&row_keys);
        let mut by_key: Vec<u32> = (0..seen.len() as u32).collect();
        by_key.sort_unstable_by_key(|&c| seen[c as usize]);
        let mut rank = vec![0u32; seen.len()];
        for (r, &c) in by_key.iter().enumerate() {
            rank[c as usize] = r as u32;
        }
        let keys: Vec<u64> = by_key.iter().map(|&c| seen[c as usize]).collect();
        let mut starts = vec![0u32; keys.len() + 1];
        for &c in &cell_of {
            starts[rank[c as usize] as usize + 1] += 1;
        }
        for c in 0..keys.len() {
            starts[c + 1] += starts[c];
        }

        // Place rows in ascending order, so each cell lists its ids
        // ascending; `slots` maps rows to their places.
        let mut next: Vec<u32> = starts[..keys.len()].to_vec();
        let mut ids = vec![0u32; n];
        let mut slots = vec![0u32; n];
        for (row, &c) in cell_of.iter().enumerate() {
            let c = rank[c as usize] as usize;
            ids[next[c] as usize] = row as u32;
            slots[row] = next[c];
            next[c] += 1;
        }

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

    /// Position in scan order of row `i`. Callers index per-member state
    /// (domination flags) by this slot.
    pub fn slot_of(&self, i: usize) -> usize {
        self.slots[i] as usize
    }

    /// The member id stored at `slot`.
    pub fn member(&self, slot: usize) -> u32 {
        self.ids[slot]
    }

    /// Scans the ≤ 3^d stencil cells around `coords`, invoking
    /// `visit(lo..hi)` with the slot range of every occupied cell among
    /// them (the member at slot `s` is [`GridIndex::member`]`(s)`), and
    /// returns the scan tallies. Every member within `side` of `coords`
    /// (in any `L_p`, since per-axis deltas are then ≤ side) is visited;
    /// aliased or corner points beyond `side` may also be visited —
    /// callers decide with an exact distance check.
    pub fn stencil<F: FnMut(Range<usize>)>(&self, coords: &[f64], mut visit: F) -> GridScan {
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
                visit(lo..hi);
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

/// The (possibly wrapped) cell coordinate of `x` on one axis.
#[inline]
fn axis_cell(x: f64, origin: f64, side: f64) -> u64 {
    // x ≥ origin for indexed members, so the quotient is ≥ 0 there; query
    // points below the origin saturate to cell 0, whose stencil still
    // covers everything within one side of the boundary. `as` truncates
    // toward zero, which is the floor on every positive quotient, and
    // saturates: ≤ 0 and NaN give 0, anything past `u64::MAX` gives
    // `u64::MAX` — an inline conversion where `floor` is a libm call on
    // the baseline x86-64 target.
    ((x - origin) / side) as u64
}

/// The distinct values of `keys` in first-seen order, and each entry's
/// index into them, by open addressing on a Fibonacci hash (the table
/// stays a few times the distinct count, so it is cache resident when
/// cells are few). Deterministic: it depends only on `keys`.
fn distinct_keys(keys: &[u64]) -> (Vec<u64>, Vec<u32>) {
    let mut seen: Vec<u64> = Vec::new();
    let mut bits = 4u32;
    // Slot value: 1 + index into `seen`, 0 when empty.
    let mut table = vec![0u32; 1 << bits];
    let home =
        |key: u64, bits: u32| (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize;
    let cell_of = keys
        .iter()
        .map(|&key| {
            let mask = table.len() - 1;
            let mut h = home(key, bits);
            loop {
                match table[h] {
                    0 => break,
                    c if seen[c as usize - 1] == key => return c - 1,
                    _ => h = (h + 1) & mask,
                }
            }
            seen.push(key);
            table[h] = seen.len() as u32;
            if 2 * seen.len() > table.len() {
                bits += 1;
                table = vec![0u32; 1 << bits];
                for (c, &k) in seen.iter().enumerate() {
                    let mut h = home(k, bits);
                    while table[h] != 0 {
                        h = (h + 1) & (table.len() - 1);
                    }
                    table[h] = c as u32 + 1;
                }
            }
            seen.len() as u32 - 1
        })
        .collect();
    (seen, cell_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::point::{PointId, PointSet};
    use crate::space::MetricSpace;
    use crate::EuclideanSpace;
    use rayon::with_threads;

    /// The rows `ids` of `points`, dimension-major, as a machine gathers
    /// its shard.
    fn slab(points: &PointSet, ids: &[u32]) -> Vec<f64> {
        let (n, dim) = (ids.len(), points.dim());
        let mut cols = vec![0.0; n * dim];
        for (j, &id) in ids.iter().enumerate() {
            for (a, &x) in points.coords(PointId(id)).iter().enumerate() {
                cols[a * n + j] = x;
            }
        }
        cols
    }

    fn all_rows(points: &PointSet) -> Vec<f64> {
        slab(points, &(0..points.len() as u32).collect::<Vec<_>>())
    }

    #[test]
    fn stencil_finds_every_point_within_side() {
        for (n, dim, seed) in [(300usize, 2usize, 7u64), (200, 3, 11), (150, 5, 13)] {
            let points = datasets::uniform_cube(n, dim, seed);
            let space = EuclideanSpace::new(points.clone());
            let tau = 0.25;
            let grid = GridIndex::build_cols(&all_rows(&points), dim, tau);
            for p in (0..n as u32).step_by(17) {
                let mut found = Vec::new();
                grid.stencil(points.coords(PointId(p)), |run| {
                    found.extend(run.map(|s| grid.member(s)))
                });
                for q in (0..n as u32).filter(|&q| space.dist(PointId(p), PointId(q)) <= tau) {
                    assert!(
                        found.contains(&q),
                        "point {q} within τ of {p} missed by stencil (d={dim})"
                    );
                }
            }
        }
    }

    /// The previous build, kept as the reference the bucketing build must
    /// reproduce: key every row, sort the `(key, row)` entries, and read
    /// the CSR and the slot map off the sorted order.
    fn sorted_reference(cols: &[f64], dim: usize, side: f64) -> GridIndex {
        let empty = GridIndex::build_cols(&[], dim, side);
        let n = cols.len() / dim;
        let coord = |j: usize, a: usize| cols[a * n + j];
        let origin = (0..dim)
            .map(|a| (0..n).map(|j| coord(j, a)).fold(f64::INFINITY, f64::min))
            .collect::<Vec<_>>();
        let mut entries: Vec<(u64, u32)> = (0..n)
            .map(|j| {
                let key = (0..dim).fold(0u64, |key, a| {
                    let c = axis_cell(coord(j, a), origin[a], side);
                    key | (c & empty.mask) << (a as u32 * empty.bits)
                });
                (key, j as u32)
            })
            .collect();
        entries.sort_unstable();
        let (mut keys, mut starts, mut ids) = (Vec::new(), Vec::new(), Vec::new());
        let mut slots = vec![0u32; n];
        for (slot, &(key, row)) in entries.iter().enumerate() {
            if keys.last() != Some(&key) {
                keys.push(key);
                starts.push(slot as u32);
            }
            ids.push(row);
            slots[row as usize] = slot as u32;
        }
        starts.push(n as u32);
        GridIndex {
            origin: if n == 0 { empty.origin } else { origin },
            keys,
            starts,
            ids,
            slots,
            ..empty
        }
    }

    fn assert_same_index(got: &GridIndex, want: &GridIndex, what: &str) {
        assert_eq!(got.dim, want.dim, "{what}");
        assert_eq!(got.side.to_bits(), want.side.to_bits(), "{what}");
        assert_eq!(got.bits, want.bits, "{what}");
        assert_eq!(got.mask, want.mask, "{what}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.origin), bits(&want.origin), "{what}");
        assert_eq!(got.keys, want.keys, "{what}");
        assert_eq!(got.starts, want.starts, "{what}");
        assert_eq!(got.ids, want.ids, "{what}");
        assert_eq!(got.slots, want.slots, "{what}");
    }

    /// The bucketing build equals the sorted reference field for field, at
    /// every thread count, for slabs gathered in and out of id order,
    /// above and below the parallel threshold, with few cells and with one
    /// cell per point.
    #[test]
    fn build_matches_the_sorted_reference_at_every_thread_count() {
        let n = 6000; // above PAR_MIN_BULK so the parallel path engages
        let points = datasets::gaussian_clusters(n, 3, 5, 0.05, 3);
        let ascending: Vec<u32> = (0..n as u32).collect();
        let descending: Vec<u32> = ascending.iter().rev().copied().collect();
        // A scrambled order (multiplication by a unit mod n) and a sparse
        // subset out of id order: rows and ids disagree everywhere.
        let scrambled: Vec<u32> = (0..n as u64)
            .map(|i| (i * 2423 % n as u64) as u32)
            .collect();
        let sparse: Vec<u32> = scrambled.iter().copied().filter(|id| id % 3 != 0).collect();
        let small: Vec<u32> = scrambled[..700].to_vec();
        for ids in [&ascending, &descending, &scrambled, &sparse, &small] {
            let cols = slab(&points, ids);
            for side in [0.1, 1e-4, 10.0] {
                let want = sorted_reference(&cols, 3, side);
                for row in 0..ids.len() {
                    assert_eq!(want.member(want.slot_of(row)) as usize, row);
                }
                for threads in [1usize, 2, 8] {
                    let got = with_threads(threads, || GridIndex::build_cols(&cols, 3, side));
                    let what = format!("|rows|={} side={side} t={threads}", ids.len());
                    assert_same_index(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn cells_group_by_key_with_ascending_ids() {
        let points = datasets::uniform_cube(500, 2, 9);
        let ascending: Vec<u32> = (0..500u32).collect();
        let descending: Vec<u32> = (0..500u32).rev().collect();
        for ids in [ascending, descending] {
            let grid = GridIndex::build_cols(&slab(&points, &ids), 2, 0.2);
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
        let grid = GridIndex::build_cols(&all_rows(&points), 8, 1e-4);
        for p in 0..64u32 {
            let mut found = Vec::new();
            grid.stencil(points.coords(PointId(p)), |run| {
                found.extend(run.map(|s| grid.member(s)))
            });
            assert!(found.contains(&p), "point {p} must find itself");
        }
    }

    #[test]
    fn empty_slab_build() {
        let grid = GridIndex::build_cols(&[], 2, 1.0);
        assert!(grid.is_empty());
        assert_eq!(grid.n_cells(), 0);
        let scan = grid.stencil(&[0.5, 0.5], |_| panic!("no members"));
        assert_eq!(scan.points, 0);
        assert_eq!(scan.cells, 9);
    }

    #[test]
    #[should_panic(expected = "at most 64 dimensions")]
    fn rejects_dimensions_past_the_key_budget() {
        let points = datasets::uniform_cube(2, MAX_DIM + 1, 1);
        GridIndex::build_cols(&all_rows(&points), MAX_DIM + 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nonpositive_side() {
        let points = datasets::uniform_cube(1, 2, 1);
        GridIndex::build_cols(&all_rows(&points), 2, 0.0);
    }
}
