//! Speed tiers and the f32 SoA mirror for [`crate::EuclideanSpace`].
//!
//! The paper's Alg 3–5 cost model counts distance *evaluations*; batching
//! and the τ-sweep ladder cut their number. This module cuts the cost of
//! each remaining one: an f32 copy of the points whose 8-lane FMA dot is
//! 2–4× cheaper than the f64 diff loop and whose rows move half the
//! memory. It backs the default [`SpeedTier::Soa`]; [`SpeedTier::Exact`]
//! keeps the plain f64 loop as the reference oracle.
//!
//! Exactness discipline: the f32 estimate of a squared distance decides a
//! `dist² ≤ τ²` verdict **only when it clears a conservative error band**
//! around τ²; every pair inside the band is re-decided with the exact f64
//! evaluation. Threshold verdicts — and hence centers, radii, rounds, and
//! ledgers — stay bit-identical to the exact oracle on every host.
//! Distance-*returning* paths (`dist`, `dists_into`, GMM radii) never
//! consult the mirror.
//!
//! ## f32 error band
//!
//! For the f32 Gram estimate `g = na32 + nb32 − 2·dot32(a32, b32)` against
//! the exact `‖a − b‖²`, the error sources are (ε = `f32::EPSILON`,
//! d = dimension):
//!
//! * rounding each coordinate to f32: ≤ 2ε·(‖a‖² + ‖b‖²) over the row;
//! * the f32 norm folds: ≤ (d + 2)·ε·(‖a‖² + ‖b‖²);
//! * the f32 dot fold (FMA's fused rounding is strictly tighter than
//!   mul-then-add): ≤ (d + 8)·ε·(‖a‖² + ‖b‖²)/2 via |aᵢbᵢ| ≤ (aᵢ²+bᵢ²)/2.
//!
//! Their sum is below `(2d + 16)·ε·(‖a‖² + ‖b‖²)`; the band is
//! `s·(na + nb + τ²)` with `s = (4d + 32)·ε` ([`f32_band_scale`]), leaving
//! ≥2× slack. Overshooting the band only costs speed (more exact
//! fallbacks), never correctness.
//!
//! **The judgment is two f32 compares.** With `M = na + nb + τ²`, the
//! banded test `g ≤ τ² − s·M` (keep) / `g > τ² + s·M` (reject) is linear
//! in the dot:
//!
//! * keep ⟺ `dot ≥ nb·(1 + s)/2 + ((1 + s)·na − (1 − s)·τ²)/2`;
//! * reject ⟺ `dot < nb·(1 − s)/2 + ((1 − s)·na − (1 + s)·τ²)/2`.
//!
//! The run kernel (`simd::classify_f32_run_bits`) evaluates both in f32
//! with the wider scale `s′ = s + 4ε`: the candidate term is one f32
//! multiply of the norm by `(1 ± s′)/2` (exact f32 constants), the query
//! term is formed once per call in f64 and **rounded outward** — the keep
//! half up, the reject half down — and the two are added in f32.
//!
//! * **The widening covers the f32 rounding.** Moving `s` to `s′` raises
//!   the keep threshold (and lowers the reject one) by `(s′ − s)·M/2 =
//!   2ε·M`. The f32 roundings can move it back by at most `ε/2` of the
//!   product and `ε/2` of the sum, each below `(1 + s′)·M/2`; the f64
//!   arithmetic of the query term by a few `2⁻⁵³·M`, and the outward
//!   rounding only in the safe direction. That leaves more than `ε·M`
//!   over the f64 judgment's own rounding (below `2⁻⁵⁰·M`), so every f32
//!   keep is a keep of the f64 banded judgment as it was evaluated, every
//!   f32 reject one of its rejects, and the error analysis above carries
//!   over unchanged. Only the band grows, by the widening.
//! * **Underflow.** In the subnormal range a rounding is absolute
//!   (≤ 2⁻¹⁵⁰), not relative, so no band proportional to `M` covers it.
//!   The query halves therefore carry a slack of `(d + 1)·2⁻¹⁴⁹`: the
//!   estimate's own underflow is at most `4d·2⁻¹⁵⁰` (d rounded products in
//!   the dot, d in each norm), half that in dot units, and the threshold
//!   product adds one more `2⁻¹⁵⁰`. Without it, rows whose f32 squares are
//!   subnormal (coordinates near 1e-22) were kept one ulp beyond τ².
//! * **Non-finite routing.** A candidate whose f32 norm is not at most
//!   2¹²⁶ — NaN, +∞, or within a factor 4 of overflow — is masked into
//!   the band; a query norm above 2¹²⁶, or τ² outside `[0, ∞)`, makes
//!   both query halves NaN. Below 2¹²⁶ on both sides, `|dot| ≤ (1 + dε)·
//!   (na + nb)/2 < 2¹²⁷`, so dots and thresholds are finite, and a NaN
//!   anywhere fails both ordered compares. Every pair with a non-finite
//!   operand is therefore re-decided exactly.
//!
//! ## Layout
//!
//! The mirror keeps **both** orientations of the f32 coordinates:
//!
//! * **dimension-major** (`cols`, the transpose of `rows`) for every
//!   candidate run the classifier reads. The run kernel broadcasts one
//!   query coordinate and FMA-accumulates eight consecutive candidates per
//!   register with **no horizontal sums and no index gather**, which is
//!   the difference between a load-port-bound and an FMA-throughput-bound
//!   loop;
//! * **row-major** (`rows`) for what reads one point at a time: the query
//!   rows, the run kernel's sub-8 tail and its portable body, the source
//!   rows [`SoaStorage::gather`] copies, and the ball index's owner score
//!   (`crate::ball`).
//!
//! Both are derived from the same f64 truth in one pass; the duplication
//! costs `4·n·d` extra bytes (half the f64 input). A contiguous id run
//! reads the space's own mirror; a scan over any other list, single- or
//! multi-query, [`SoaStorage::gather`]s its rows into a packed sub-mirror
//! once per call, so it reads a contiguous run too. See DESIGN.md §6.2
//! and §6.4.

use crate::point::PointSet;

/// How the Euclidean bulk threshold kernels decide `d² ≤ τ²` at
/// `d ≥ 16`. Verdicts are bit-identical at both tiers; the tier only moves
/// cycles. A space runs [`SpeedTier::Soa`] unless built
/// [`crate::EuclideanSpace::with_speed_tier`]; binaries map `KCENTER_SPEED`
/// to a tier through [`SpeedTier::from_env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpeedTier {
    /// The reference oracle: the plain f64 diff loop at every dimension.
    /// Tests and CI diff the default tier against it.
    Exact,
    /// f32 SoA mirror + banded f32 estimates in the bulk threshold
    /// kernels, with an exact f64 re-decide inside the band.
    #[default]
    Soa,
}

impl SpeedTier {
    /// Parses a `KCENTER_SPEED` value. Unrecognized strings yield `None`.
    pub fn parse(s: &str) -> Option<SpeedTier> {
        match s.trim() {
            "exact" => Some(SpeedTier::Exact),
            "soa" => Some(SpeedTier::Soa),
            _ => None,
        }
    }

    /// The tier `KCENTER_SPEED` names, else [`SpeedTier::Soa`]: the
    /// parser binaries call once at start. No library code reads it.
    ///
    /// # Panics
    /// On a `KCENTER_SPEED` value other than `exact` or `soa`, so a typo
    /// (or a retired tier name) fails loudly instead of silently running
    /// the default.
    pub fn from_env() -> SpeedTier {
        match std::env::var("KCENTER_SPEED") {
            Ok(s) => SpeedTier::parse(&s)
                .unwrap_or_else(|| panic!("unknown KCENTER_SPEED {s:?} (expected exact|soa)")),
            Err(_) => SpeedTier::default(),
        }
    }

    /// The `KCENTER_SPEED` spelling of this tier.
    pub fn name(self) -> &'static str {
        match self {
            SpeedTier::Exact => "exact",
            SpeedTier::Soa => "soa",
        }
    }
}

/// Per-pair error band scale for the f32 Gram estimate (see the module
/// docs): the band is this times `na + nb + τ²`. The run kernel judges
/// with a scale wider by `4ε`.
#[inline]
pub fn f32_band_scale(dim: usize) -> f64 {
    (4.0 * dim as f64 + 32.0) * f32::EPSILON as f64
}

/// The f32 mirror: row-major f32 copies of the points plus f32 squared
/// norms, both derived deterministically from the f64 truth (round-to-
/// nearest conversion, fixed-order norm fold — no thread-count or call-
/// order dependence). Built lazily on the first bulk kernel call at the
/// `soa` tier.
#[derive(Debug, Clone)]
pub struct SoaStorage {
    rows: Vec<f32>,
    /// The transpose of `rows`, padded per dimension to `stride` slots:
    /// `cols[d * stride + i] = rows[i * dim + d]`. Feeds the
    /// contiguous-run kernels (see the module docs on layout).
    cols: Vec<f32>,
    /// `norms[i] = ‖rows[i]‖²` accumulated in f32 — the same values the
    /// estimate's error analysis assumes.
    norms: Vec<f32>,
    dim: usize,
    n: usize,
    /// Capacity of each dimension lane of `cols` (`≥ n`). Batch builds use
    /// `stride == n` (the PR-6 layout, byte-identical); the serving
    /// index's incremental [`SoaStorage::push`] grows it geometrically so
    /// an insert extends the mirror in amortized O(d) instead of
    /// re-transposing all n points.
    stride: usize,
}

impl SoaStorage {
    /// Converts a point set's rows to f32 (both orientations) and folds
    /// the f32 norms.
    pub fn build(points: &PointSet) -> SoaStorage {
        let dim = points.dim();
        let rows: Vec<f32> = points.raw().iter().map(|&x| x as f32).collect();
        let norms = rows
            .chunks(dim.max(1))
            .map(|row| row.iter().map(|x| x * x).sum())
            .collect();
        Self::transposed(rows, norms, dim)
    }

    /// A batch-layout mirror (`stride == n`) over row-major f32 `rows`
    /// and their `norms`: fills the dimension-major lanes by transposing.
    fn transposed(rows: Vec<f32>, norms: Vec<f32>, dim: usize) -> SoaStorage {
        let n = rows.len().checked_div(dim).unwrap_or(0);
        let mut cols = vec![0.0f32; rows.len()];
        for (i, row) in rows.chunks_exact(dim.max(1)).enumerate() {
            for (d, &x) in row.iter().enumerate() {
                cols[d * n + i] = x;
            }
        }
        SoaStorage {
            rows,
            cols,
            norms,
            dim,
            n,
            stride: n,
        }
    }

    /// Appends one point to the mirror in place: the f32 row, its norm
    /// (same fixed-order fold as [`SoaStorage::build`]), and the
    /// dimension-major lanes. Amortized O(dim): lanes are re-strided to
    /// doubled capacity only when the current `stride` is full, so a
    /// stream of inserts never pays the full O(n·dim) re-transpose per
    /// point. The mirrored values are bit-identical to a from-scratch
    /// build over the extended point set.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row arity must match the mirror");
        if self.n == self.stride {
            let new_stride = (self.stride * 2).max(64);
            let mut cols = vec![0.0f32; self.dim * new_stride];
            for d in 0..self.dim {
                cols[d * new_stride..d * new_stride + self.n]
                    .copy_from_slice(&self.cols[d * self.stride..d * self.stride + self.n]);
            }
            self.cols = cols;
            self.stride = new_stride;
        }
        let mut norm = 0.0f32;
        for (d, &x) in row.iter().enumerate() {
            let x32 = x as f32;
            self.rows.push(x32);
            self.cols[d * self.stride + self.n] = x32;
            norm += x32 * x32;
        }
        self.norms.push(norm);
        self.n += 1;
    }

    /// The sub-mirror of rows `ids`, in list order: row `i` of the result
    /// is row `ids[i]` of `self`, norms and both orientations included, so
    /// any id list — strided, scrambled, repeated — becomes one contiguous
    /// run for the dimension-major kernels. The values are copies, never
    /// recomputed, so every estimate over the gathered rows is bit-identical
    /// to one over the originals.
    pub fn gather(&self, ids: &[u32]) -> SoaStorage {
        let mut rows = Vec::with_capacity(ids.len() * self.dim);
        for &c in ids {
            rows.extend_from_slice(self.row(c as usize));
        }
        let norms = ids.iter().map(|&c| self.norms[c as usize]).collect();
        Self::transposed(rows, norms, self.dim)
    }

    /// The flat row-major f32 coordinate buffer.
    #[inline]
    pub fn raw(&self) -> &[f32] {
        &self.rows
    }

    /// The flat dimension-major f32 buffer: `cols()[d * col_stride() + i]`
    /// is coordinate `d` of point `i` (slots past `len()` in each lane are
    /// padding, present only on incrementally grown mirrors).
    #[inline]
    pub fn cols(&self) -> &[f32] {
        &self.cols
    }

    /// The per-dimension lane stride of [`SoaStorage::cols`]: `len()` for
    /// batch-built mirrors, the padded capacity for incrementally grown
    /// ones. Kernels must index `cols` with this, never with `len()`.
    #[inline]
    pub fn col_stride(&self) -> usize {
        self.stride
    }

    /// Number of mirrored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the mirror is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Row `i` as an f32 slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.rows[i * self.dim..(i + 1) * self.dim]
    }

    /// f32 squared norm of row `i`.
    #[inline]
    pub fn norm(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// All f32 squared norms.
    #[inline]
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Approximate heap footprint in bytes (both orientations + norms).
    pub fn bytes(&self) -> usize {
        (self.rows.len() + self.cols.len() + self.norms.len()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        for tier in [SpeedTier::Exact, SpeedTier::Soa] {
            assert_eq!(SpeedTier::parse(tier.name()), Some(tier));
        }
        assert_eq!(SpeedTier::parse(" soa "), Some(SpeedTier::Soa));
        assert_eq!(SpeedTier::parse("warp9"), None);
        assert_eq!(SpeedTier::default(), SpeedTier::Soa);
    }

    #[test]
    fn storage_mirrors_rows_and_norms() {
        let ps = PointSet::from_rows(&[vec![3.0, 4.0], vec![-1.5, 2.0]]);
        let soa = SoaStorage::build(&ps);
        assert_eq!(soa.row(0), &[3.0f32, 4.0]);
        assert_eq!(soa.row(1), &[-1.5f32, 2.0]);
        assert_eq!(soa.norm(0), 25.0);
        assert_eq!(soa.norm(1), 6.25);
        assert_eq!(soa.bytes(), (4 + 4 + 2) * 4);
    }

    #[test]
    fn cols_is_the_transpose_of_rows() {
        let ps = PointSet::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let soa = SoaStorage::build(&ps);
        assert_eq!(soa.len(), 2);
        assert!(!soa.is_empty());
        // cols[d * n + i] == rows[i * dim + d]
        assert_eq!(soa.cols(), &[1.0f32, 4.0, 2.0, 5.0, 3.0, 6.0]);
        for i in 0..2 {
            for d in 0..3 {
                assert_eq!(soa.cols()[d * 2 + i], soa.row(i)[d]);
            }
        }
    }

    /// A gathered sub-mirror holds the listed rows, in list order and
    /// with repeats, bit for bit — and its lanes are their transpose.
    #[test]
    fn gather_copies_listed_rows_in_order() {
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..3).map(|d| (i * 3 + d) as f64 * 0.7 - 4.0).collect())
            .collect();
        let soa = SoaStorage::build(&PointSet::from_rows(&rows));
        let ids = [8u32, 2, 2, 5];
        let packed = soa.gather(&ids);
        assert_eq!(packed.len(), ids.len());
        assert_eq!(packed.col_stride(), ids.len());
        for (i, &c) in ids.iter().enumerate() {
            assert_eq!(packed.row(i), soa.row(c as usize));
            assert_eq!(packed.norm(i).to_bits(), soa.norm(c as usize).to_bits());
            for d in 0..3 {
                assert_eq!(packed.cols()[d * ids.len() + i], soa.row(c as usize)[d]);
            }
        }
        assert!(soa.gather(&[]).is_empty());
    }

    #[test]
    fn band_scale_mirrors_pr4_constant_at_f32_epsilon() {
        let s = f32_band_scale(32);
        assert!((s - 160.0 * f32::EPSILON as f64).abs() < 1e-20);
    }

    /// Incremental pushes must mirror exactly what a from-scratch build
    /// over the extended point set would hold — rows, norms, and every
    /// dimension lane (modulo the padded stride).
    #[test]
    fn push_matches_from_scratch_build() {
        let dim = 3;
        let rows: Vec<Vec<f64>> = (0..137)
            .map(|i| (0..dim).map(|d| (i * 7 + d) as f64 * 0.31 - 5.0).collect())
            .collect();
        let mut grown = SoaStorage::build(&PointSet::from_rows(&rows[..1]));
        for row in &rows[1..] {
            grown.push(row);
        }
        let batch = SoaStorage::build(&PointSet::from_rows(&rows));
        assert_eq!(grown.len(), batch.len());
        assert_eq!(grown.raw(), batch.raw());
        assert_eq!(grown.norms(), batch.norms());
        assert!(grown.col_stride() >= grown.len());
        assert_eq!(batch.col_stride(), batch.len());
        for i in 0..batch.len() {
            for d in 0..dim {
                assert_eq!(
                    grown.cols()[d * grown.col_stride() + i].to_bits(),
                    batch.cols()[d * batch.col_stride() + i].to_bits(),
                    "lane {d} point {i}"
                );
            }
        }
    }

    /// The stride grows geometrically, so n pushes re-stride O(log n)
    /// times rather than once per push.
    #[test]
    fn push_amortizes_restrides() {
        let mut soa = SoaStorage::build(&PointSet::from_rows(&[vec![1.0, 2.0]]));
        let mut strides = vec![soa.col_stride()];
        for i in 0..500 {
            soa.push(&[i as f64, -1.0]);
            if *strides.last().unwrap() != soa.col_stride() {
                strides.push(soa.col_stride());
            }
        }
        assert_eq!(soa.len(), 501);
        assert!(
            strides.len() <= 12,
            "500 pushes must not re-stride per push: {strides:?}"
        );
        assert!(soa.col_stride() >= soa.len());
    }
}
