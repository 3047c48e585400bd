//! Dense point identifiers and flat coordinate storage.

use serde::{Deserialize, Serialize};

/// Identifier of a point in a metric space.
///
/// Points are dense indices `0..n`. Algorithms ship `PointId`s between
/// simulated machines; the communication ledger charges the *weight* of the
/// underlying point (e.g. its dimension), not the 4 bytes of the id, so the
/// accounting matches a real deployment where coordinates move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PointId(pub u32);

impl PointId {
    /// The index as a `usize`, for slice addressing.
    #[inline(always)]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for PointId {
    #[inline(always)]
    fn from(i: usize) -> Self {
        PointId(i as u32)
    }
}

impl From<u32> for PointId {
    #[inline(always)]
    fn from(i: u32) -> Self {
        PointId(i)
    }
}

impl std::fmt::Display for PointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Flat, row-major storage for `n` points of fixed dimension `dim`.
///
/// Coordinates are stored contiguously (`data[i*dim..(i+1)*dim]` is point
/// `i`) so distance kernels stream through memory without pointer chasing.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    data: Vec<f64>,
    dim: usize,
}

impl PointSet {
    /// Builds a point set from flat data; `data.len()` must be a multiple of
    /// `dim` (and `dim > 0`).
    pub fn new(data: Vec<f64>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "data length {} not a multiple of dim {}",
            data.len(),
            dim
        );
        Self { data, dim }
    }

    /// Builds a point set from per-point rows, all of equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "empty point set");
        let dim = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * dim);
        for r in rows {
            assert_eq!(r.len(), dim, "ragged rows");
            data.extend_from_slice(r);
        }
        Self::new(data, dim)
    }

    /// An empty set with the given dimension (useful for incremental builds).
    pub fn with_dim(dim: usize) -> Self {
        assert!(dim > 0);
        Self {
            data: Vec::new(),
            dim,
        }
    }

    /// Appends one point; `coords.len()` must equal `dim`.
    pub fn push(&mut self, coords: &[f64]) -> PointId {
        assert_eq!(coords.len(), self.dim);
        let id = PointId::from(self.len());
        self.data.extend_from_slice(coords);
        id
    }

    /// Number of points.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when the set holds no points.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimension of every point.
    #[inline(always)]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of point `i`.
    #[inline(always)]
    pub fn coords(&self, i: PointId) -> &[f64] {
        let s = i.idx() * self.dim;
        &self.data[s..s + self.dim]
    }

    /// All point ids, `0..n`.
    pub fn ids(&self) -> impl Iterator<Item = PointId> + Clone + use<> {
        (0..self.len() as u32).map(PointId)
    }

    /// The raw flat coordinate buffer.
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// The rows of `ids`, in that order, as a new contiguous set: row `j`
    /// of the result is point `ids[j]`. Coordinates are copied bit for bit.
    pub fn gather(&self, ids: &[u32]) -> PointSet {
        let mut data = Vec::with_capacity(ids.len() * self.dim);
        for &id in ids {
            data.extend_from_slice(self.coords(PointId(id)));
        }
        Self {
            data,
            dim: self.dim,
        }
    }

    /// The rows of `ids` dimension-major, the layout of the exact run
    /// kernels in [`crate::simd`]: `cols[a * ids.len() + j]` is point
    /// `ids[j]`'s coordinate on axis `a`. The transpose of
    /// [`PointSet::gather`], coordinates copied bit for bit.
    pub fn gather_cols(&self, ids: &[u32]) -> Vec<f64> {
        let n = ids.len();
        let mut cols = vec![0.0; n * self.dim];
        for (j, &id) in ids.iter().enumerate() {
            for (a, &x) in self.coords(PointId(id)).iter().enumerate() {
                cols[a * n + j] = x;
            }
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_storage_round_trips() {
        let ps = PointSet::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps.dim(), 2);
        assert_eq!(ps.coords(PointId(1)), &[3.0, 4.0]);
        assert_eq!(ps.ids().count(), 3);
    }

    #[test]
    fn push_appends() {
        let mut ps = PointSet::with_dim(3);
        assert!(ps.is_empty());
        let a = ps.push(&[0.0, 0.0, 1.0]);
        let b = ps.push(&[1.0, 0.0, 0.0]);
        assert_eq!(a, PointId(0));
        assert_eq!(b, PointId(1));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.coords(b), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn gather_copies_rows_in_id_order() {
        let ps = PointSet::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = ps.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.coords(PointId(0)), ps.coords(PointId(2)));
        assert_eq!(g.coords(PointId(1)), ps.coords(PointId(0)));
        assert!(ps.gather(&[]).is_empty());
    }

    #[test]
    fn gather_cols_is_gather_transposed() {
        let ps = PointSet::from_rows(&[
            vec![1.0, -2.0, 3.0],
            vec![f64::NAN, f64::INFINITY, -0.0],
            vec![7.0, 8.0, 9.0],
        ]);
        for ids in [&[][..], &[1], &[2, 0, 1, 1]] {
            let rows = ps.gather(ids);
            let cols = ps.gather_cols(ids);
            assert_eq!(cols.len(), rows.raw().len());
            for (j, row) in rows.raw().chunks_exact(ps.dim()).enumerate() {
                for (a, &x) in row.iter().enumerate() {
                    assert_eq!(cols[a * ids.len() + j].to_bits(), x.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_flat_data_panics() {
        PointSet::new(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        PointSet::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn point_id_display_and_conversion() {
        let id = PointId::from(7usize);
        assert_eq!(id.idx(), 7);
        assert_eq!(id.to_string(), "p7");
    }
}
