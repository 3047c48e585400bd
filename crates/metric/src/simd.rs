//! Runtime-dispatched SIMD kernels for the Euclidean distance scans.
//!
//! This module is the **only** unsafe surface in the crate. It holds two
//! families of kernels, under one dispatch discipline:
//!
//! * **Runtime detection, cached once.** The widest lane the host supports
//!   is probed with `is_x86_feature_detected!` on first use and cached in a
//!   `OnceLock`. The choice is a function of the host only — never of
//!   thread count, input, or call order — so it cannot perturb determinism.
//! * **Debug-asserted scalar equivalence.** In debug builds every dispatch
//!   checks the lane result against its scalar reference. A failure means
//!   a broken kernel, not rounding.
//!
//! **The f32 estimate kernels** compute f32 dot products and classify the
//! resulting Gram estimate of the `soa` speed tier against an error band.
//! Wide accumulators and FMA round differently than a serial fold, so
//! every caller feeds the result into a *banded* estimate whose error band
//! covers accumulation-order slack (FMA's fused rounding is strictly
//! tighter than mul-then-add), and re-decides band hits with the exact
//! scalar evaluation. The run kernel judges each dot against two f32
//! thresholds, widened past their own rounding (see [`crate::soa`]).
//! The dot kernels' debug reference is a widened serial fold, checked to
//! the γ-style accumulation bound.
//!
//! **The exact f64 run kernels** ([`exact_relax_run`],
//! [`exact_min_sq_run`], [`exact_within_run`]) return distances and
//! verdicts that are bit-identical to the scalar
//! `EuclideanSpace::row_dist_sq` / `row_dist` / `row_dist_to_rows`.
//! They vectorise *across candidates*: a dimension-major f64 slab gives
//! four candidates per 4 × f64 vector, sixteen per step on four
//! independent accumulator chains, and each lane runs `row_dist_sq`'s
//! own operation sequence — sub, mul, add over ascending `d` from `+0.0`,
//! no FMA — followed by the correctly rounded vector `sqrt`. IEEE
//! arithmetic rounds each lane exactly as the scalar instruction would,
//! so nothing here is an estimate. The grid engine's machine shards run
//! on them (GMM relax, covering radius, stencil runs); their debug
//! reference is the scalar scan, compared bit for bit.
//!
//! Lanes: AVX2+FMA (8×f32 dots and classification, 4×f64 exact
//! distances) and a portable baseline that rustc auto-vectorizes to SSE2
//! on the default `x86-64` target (plain scalar on other architectures).
//! Both lanes of a kernel honour one output contract, so callers never
//! branch on the lane.
//!
//! The f32 run kernel, [`classify_f32_run_bits`], is the one threshold
//! classifier: every `soa` threshold scan, single- or multi-query, goes
//! through it. It takes **one or two queries** per call and loads each
//! dimension-major column vector once for both, so a query pair halves
//! the loads per FMA and keeps eight FMA chains in flight. Its verdicts
//! come out as **bit words** — a keep word and a band word per 64
//! candidates and query — which callers popcount, walk in candidate
//! order, or re-decide band bit by band bit, with no per-pair byte or
//! bool pass. The one other f32 estimate, [`dots_f32_indexed`], only
//! scores points against the ball index's pivots.

use std::sync::OnceLock;

/// Which SIMD implementation the dispatcher selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// 256-bit FMA lanes (runtime AVX2 + FMA).
    Avx2Fma,
    /// Multi-accumulator loops; auto-vectorized SSE2 on x86-64, scalar
    /// elsewhere.
    Baseline,
}

fn detect() -> Lane {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Lane::Avx2Fma;
        }
    }
    Lane::Baseline
}

/// One-time cpuid probe; a cached [`Lane`] thereafter.
#[inline]
pub fn lane() -> Lane {
    static LANE: OnceLock<Lane> = OnceLock::new();
    *LANE.get_or_init(detect)
}

/// Batched indexed f32 dot products: `out[i] = ⟨q, rows[idx[i]]⟩` where
/// `rows` is a row-major slab of `dim`-wide rows. The ball index's owner
/// score (`crate::ball`): it scores every point against the pivots, four
/// pivots per step on AVX2, and only picks the nearest one, whose exact
/// f64 distance the bounds then read. Estimate-only, like every dot in
/// this module.
#[inline]
pub fn dots_f32_indexed(q: &[f32], rows: &[f32], dim: usize, idx: &[u32], out: &mut [f32]) {
    debug_assert_eq!(idx.len(), out.len());
    match lane() {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2Fma => {
            // SAFETY: `lane()` only returns `Avx2Fma` after runtime detection
            // of AVX2 + FMA on this host.
            unsafe { x86::dots_f32_indexed_avx2_fma(q, rows, dim, idx, out) }
        }
        _ => {
            for (o, &c) in out.iter_mut().zip(idx) {
                let r = &rows[c as usize * dim..c as usize * dim + dim];
                *o = dot_f32_baseline(q, r);
            }
        }
    }
    #[cfg(debug_assertions)]
    for (o, &c) in out.iter().zip(idx) {
        assert_close_f32(*o, q, &rows[c as usize * dim..c as usize * dim + dim]);
    }
}

/// `classify_one` verdict: the estimate certifies the pair is within the
/// threshold.
const CLASS_KEEP: u8 = 1;
/// `classify_one` verdict: the estimate certifies the pair is beyond the
/// threshold.
const CLASS_REJECT: u8 = 0;
/// `classify_one` verdict: inside the error band — the caller must
/// re-decide with the exact f64 evaluation.
const CLASS_EXACT: u8 = 2;

/// Bit words covering `len` candidates in [`classify_f32_run_bits`]'s
/// output: one `u64` per 64 candidates, candidate `i` at bit `i % 64` of
/// word `i / 64`.
#[inline]
pub fn run_words(len: usize) -> usize {
    len.div_ceil(64)
}

/// `2^126`: a candidate whose f32 norm is not at most this — NaN, `+∞`,
/// or within a factor 4 of f32 overflow — is judged in the band. Below
/// it no f32 dot, norm or threshold of a pair can overflow (see
/// [`crate::soa`]).
const NORM_LIMIT: f32 = f32::from_bits((126 + 127) << 23);

/// The per-query constants of the run kernel's f32 judgment (see
/// [`crate::soa`]'s "f32 error band"): with `s′ = band_scale + 4ε₃₂`,
/// candidate `b` of norm `nb` is kept iff `dot ≥ nb·ch + hq` and rejected
/// iff `dot < nb·cl + lq`, where `ch, cl = (1 ± s′)/2` and
/// `hq, lq = ((1 ± s′)·na − (1 ∓ s′)·t2)/2 ± σ`, computed in f64 and
/// rounded outward (`hq` up, `lq` down) to f32. `σ = (dim + 1)·2⁻¹⁴⁹`
/// covers the f32 roundings that are absolute rather than relative
/// (products in the subnormal range). A query whose norm is not at most
/// [`NORM_LIMIT`], or a `t2` outside `[0, ∞)`, gets NaN halves, which
/// send every pair of the query to the band.
#[derive(Debug, Clone, Copy)]
struct Thresholds {
    ch: f32,
    cl: f32,
    hq: f32,
    lq: f32,
}

impl Thresholds {
    fn new(na: f64, t2: f64, band_scale: f64, dim: usize) -> Thresholds {
        let s = band_scale + 4.0 * f32::EPSILON as f64;
        let (up, dn) = (1.0 + s, 1.0 - s);
        // `1 ± s′` is `1 ± k·2⁻²³` for an integer k, so both halves are
        // exact in f32 below d = 2²⁰.
        let (ch, cl) = ((up / 2.0) as f32, (dn / 2.0) as f32);
        if !(na <= NORM_LIMIT as f64 && (0.0..f64::INFINITY).contains(&t2)) {
            return Thresholds {
                ch,
                cl,
                hq: f32::NAN,
                lq: f32::NAN,
            };
        }
        let sigma = (dim + 1) as f64 * f64::from(f32::from_bits(1));
        let hq = (up * na - dn * t2) / 2.0 + sigma;
        let lq = (dn * na - up * t2) / 2.0 - sigma;
        Thresholds {
            ch,
            cl,
            hq: round_up(hq),
            lq: round_down(lq),
        }
    }
}

/// The least f32 at or above `x` (NaN for NaN).
fn round_up(x: f64) -> f32 {
    let r = x as f32;
    if (r as f64) < x {
        r.next_up()
    } else {
        r
    }
}

/// The greatest f32 at or below `x` (NaN for NaN).
fn round_down(x: f64) -> f32 {
    let r = x as f32;
    if (r as f64) > x {
        r.next_down()
    } else {
        r
    }
}

/// The run kernel, the one f32 classifier: the banded judgment of the Gram
/// estimate `est = (na + nb) − 2·dot` against `t2`, for up to **two
/// queries** against a **contiguous** candidate run `first..first + len`,
/// fed from the dimension-major mirror (`cols[d * n + i]`), with the
/// verdicts written as bit words.
///
/// Each query `qs[j] = (row, norm)` is its f32 mirror row and its f32 norm
/// widened to f64. Query `j`'s words are `keep[j * w..(j + 1) * w]` and
/// `band[j * w..(j + 1) * w]` with `w = run_words(len)`. A set keep bit
/// certifies `est ≤ t2 − band` and a clear pair of bits certifies
/// `est > t2 + band`, for the band `band_scale · (na + nb + t2)` of
/// [`crate::soa::f32_band_scale`]: the judgment compares the f32 `dot`
/// against two f32 thresholds per pair, `nb·(1 ± s′)/2` plus a per-query
/// half, whose scale `s′ = band_scale + 4ε₃₂` is wider by more than every
/// f32 rounding of the thresholds. So every keep of this kernel is a keep
/// of the f64 banded judgment, every reject one of its rejects, and the
/// band grows only by the widening. A set band bit means the caller must
/// re-decide the pair exactly; a NaN, `∞` or near-overflow norm, a
/// non-finite `t2` and a NaN dot always land there. Bits past `len` are
/// zero; the kernel overwrites every word it is given.
///
/// The AVX2 kernel loads each column vector once per coordinate and FMAs
/// it into both queries' accumulators (2 queries × 32 candidates, eight
/// independent chains), so there are no index gathers, no horizontal sums,
/// and half the loads per FMA of a one-query walk. The judgment stays in
/// f32 vectors: per eight candidates one norm load, one limit compare and
/// two multiplies shared by the queries, then per query two adds and two
/// compares landing as mask bits. `rows` (the row-major mirror) serves the
/// sub-8 tail.
///
/// Every per-candidate dot is a single FMA chain over ascending `d`, the
/// same whichever query it is paired with, and the judgment is
/// `classify_one`'s f32 operation sequence, so a pair's class does not
/// depend on the pairing, the block or the tail it falls in. The chain's
/// error is below `d·ε·Σ|aᵢbᵢ|`, comfortably inside the `(4d + 32)·ε`
/// band that [`crate::soa::f32_band_scale`] budgets (see that module's
/// analysis), so band hits still catch every undecidable pair.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn classify_f32_run_bits(
    qs: &[(&[f32], f64)],
    cols: &[f32],
    n: usize,
    rows: &[f32],
    norms: &[f32],
    dim: usize,
    first: usize,
    len: usize,
    t2: f64,
    band_scale: f64,
    keep: &mut [u64],
    band: &mut [u64],
) {
    debug_assert!(first + len <= n);
    debug_assert!(matches!(qs.len(), 1 | 2));
    debug_assert_eq!(keep.len(), qs.len() * run_words(len));
    debug_assert_eq!(band.len(), keep.len());
    match (lane(), qs) {
        #[cfg(target_arch = "x86_64")]
        (Lane::Avx2Fma, &[q0]) => {
            // SAFETY: `lane()` only returns `Avx2Fma` after runtime detection
            // of AVX2 + FMA on this host.
            unsafe {
                x86::classify_f32_run_bits_avx2_fma(
                    [q0],
                    cols,
                    n,
                    rows,
                    norms,
                    dim,
                    first,
                    len,
                    t2,
                    band_scale,
                    keep,
                    band,
                )
            }
        }
        #[cfg(target_arch = "x86_64")]
        (Lane::Avx2Fma, &[q0, q1]) => {
            // SAFETY: as above.
            unsafe {
                x86::classify_f32_run_bits_avx2_fma(
                    [q0, q1],
                    cols,
                    n,
                    rows,
                    norms,
                    dim,
                    first,
                    len,
                    t2,
                    band_scale,
                    keep,
                    band,
                )
            }
        }
        _ => classify_f32_run_bits_portable(
            qs, rows, norms, dim, first, len, t2, band_scale, keep, band,
        ),
    }
    #[cfg(debug_assertions)]
    if lane() == Lane::Avx2Fma {
        // Every lane of the run kernel — paired blocks, single blocks and
        // scalar tail alike — is a single fused-multiply-add chain over
        // ascending d, so a scalar `mul_add` fold reproduces its dots (and
        // hence classes) bit-for-bit. (`f32::mul_add` is correctly rounded
        // whether it lowers to the FMA instruction or libm.)
        let words = run_words(len);
        for (j, &(q, na)) in qs.iter().enumerate() {
            let th = Thresholds::new(na, t2, band_scale, dim);
            for i in 0..words * 64 {
                let (w, bit) = (j * words + i / 64, 1u64 << (i % 64));
                let (want_keep, want_band) = if i < len {
                    let c = first + i;
                    let want =
                        classify_one(fma_dot(q, &rows[c * dim..c * dim + dim]), norms[c], &th);
                    (want == CLASS_KEEP, want == CLASS_EXACT)
                } else {
                    (false, false)
                };
                assert_eq!(
                    (keep[w] & bit != 0, band[w] & bit != 0),
                    (want_keep, want_band),
                    "classify_f32_run_bits diverged from scalar judgment (query {j}, candidate {})",
                    first + i
                );
            }
        }
    }
}

/// [`classify_f32_run_bits`]'s portable body: [`dot_f32_baseline`] per
/// pair (row-major mirror only), judged by `classify_one`, under the same
/// bit-word contract. The dispatcher runs it on hosts without AVX2 + FMA.
#[allow(clippy::too_many_arguments)]
fn classify_f32_run_bits_portable(
    qs: &[(&[f32], f64)],
    rows: &[f32],
    norms: &[f32],
    dim: usize,
    first: usize,
    len: usize,
    t2: f64,
    band_scale: f64,
    keep: &mut [u64],
    band: &mut [u64],
) {
    let words = run_words(len);
    keep.fill(0);
    band.fill(0);
    for (j, &(q, na)) in qs.iter().enumerate() {
        let th = Thresholds::new(na, t2, band_scale, dim);
        for i in 0..len {
            let c = first + i;
            let class = classify_one(
                dot_f32_baseline(q, &rows[c * dim..c * dim + dim]),
                norms[c],
                &th,
            );
            let (w, bit) = (j * words + i / 64, i % 64);
            keep[w] |= ((class == CLASS_KEEP) as u64) << bit;
            band[w] |= ((class == CLASS_EXACT) as u64) << bit;
        }
    }
}

/// One single FMA chain over ascending `d`: the run kernel's dot, in
/// scalar form (its debug reference and tail).
#[inline(always)]
fn fma_dot(q: &[f32], r: &[f32]) -> f32 {
    r.iter()
        .zip(q)
        .fold(0.0f32, |acc, (&x, &y)| x.mul_add(y, acc))
}

/// `row_dist_sq(q, c)` for candidate `c` of a dimension-major f64 slab
/// (`cols[d * n + c]`): [`crate::EuclideanSpace::row_dist_sq`]'s own
/// sequence — `t = q[d] − x`, `acc += t·t` over ascending `d` from
/// `+0.0`, no FMA — so the value is bit-identical to it. (Its operands
/// are `q − c` where some callers' rows read `c − q`; the difference is an
/// exact negation, which `t·t` erases.) The exact run kernels' portable
/// bodies and scalar tails.
#[inline(always)]
fn col_dist_sq(q: &[f64], cols: &[f64], n: usize, c: usize) -> f64 {
    let mut acc = 0.0;
    for (d, &x) in q.iter().enumerate() {
        let t = x - cols[d * n + c];
        acc += t * t;
    }
    acc
}

/// Checks that the run `first..first + len` lies inside a `dim × n`
/// dimension-major slab, the bound the exact kernels' unchecked vector
/// loads rely on.
#[inline]
fn assert_slab(dim: usize, cols: &[f64], n: usize, first: usize, len: usize) {
    assert!(
        first.checked_add(len).is_some_and(|end| end <= n)
            && dim.checked_mul(n).is_some_and(|w| w <= cols.len()),
        "run {first}..+{len} outside a {dim} × {n} slab of {} values",
        cols.len()
    );
}

/// The exact run kernel, GMM form: relaxes `slots[i] =
/// min(slots[i], row_dist(q, c))` for the candidates `c = first + i` of
/// the dimension-major f64 slab `cols` (`dim × n`, `dim = q.len()`), and
/// returns `(max, i)` over the relaxed slots, ties to the lowest `i` —
/// `(−∞, usize::MAX)` when every slot is `−∞`. One pass per call does the
/// distance, the relaxation and the argmax.
///
/// Exact: every distance is `col_dist_sq`'s `row_dist_sq` sequence
/// (4 × f64 lanes on AVX2, with no FMA) and a correctly rounded `sqrt`,
/// so it is bit-identical to [`crate::EuclideanSpace::row_dist`]; `min`
/// keeps the slot when the distance is NaN, as `f64::min` does; the
/// argmax is a strict `>` per lane, so each lane keeps its first maximum,
/// and the lanes combine by (value, lower index), a total order. A GMM
/// driver marks chosen points with a `−∞` slot, which no relaxation
/// raises and no argmax picks.
#[inline]
pub fn exact_relax_run(
    q: &[f64],
    cols: &[f64],
    n: usize,
    first: usize,
    slots: &mut [f64],
) -> (f64, usize) {
    assert_slab(q.len(), cols, n, first, slots.len());
    #[cfg(debug_assertions)]
    let before = slots.to_vec();
    let best = match lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `lane()` only returns `Avx2Fma` after runtime detection
        // of AVX2 + FMA on this host; `assert_slab` checked the bounds.
        Lane::Avx2Fma => unsafe { x86::exact_relax_run_avx2(q, cols, n, first, slots) },
        _ => exact_relax_run_portable(q, cols, n, first, slots),
    };
    #[cfg(debug_assertions)]
    {
        let mut want = before;
        assert_eq!(
            exact_relax_run_portable(q, cols, n, first, &mut want),
            best,
            "exact_relax_run's argmax diverged from the scalar scan"
        );
        assert!(
            want.iter()
                .zip(&*slots)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "exact_relax_run's slots diverged from the scalar scan"
        );
    }
    best
}

/// [`exact_relax_run`]'s portable body: the scalar scan it must equal.
fn exact_relax_run_portable(
    q: &[f64],
    cols: &[f64],
    n: usize,
    first: usize,
    slots: &mut [f64],
) -> (f64, usize) {
    let mut best = (f64::NEG_INFINITY, usize::MAX);
    for (i, slot) in slots.iter_mut().enumerate() {
        let d = col_dist_sq(q, cols, n, first + i).sqrt().min(*slot);
        *slot = d;
        if d > best.0 {
            best = (d, i);
        }
    }
    best
}

/// The exact run kernel, covering-radius form: `mins[i] = min(mins[i],
/// min_q row_dist_sq(q, c))` over the row-major queries `qs` (`dim` wide)
/// for the candidates `c = first + i` of the dimension-major f64 slab
/// `cols` (`dim × n`). Each squared distance is bit-identical to
/// [`crate::EuclideanSpace::row_dist_sq`] (see [`exact_relax_run`]), and
/// `min` is exact and keeps the running minimum against a NaN, so
/// `mins[i].sqrt()` is bit for bit
/// [`crate::EuclideanSpace::row_dist_to_rows`] from `+∞`.
#[inline]
pub fn exact_min_sq_run(
    qs: &[f64],
    dim: usize,
    cols: &[f64],
    n: usize,
    first: usize,
    mins: &mut [f64],
) {
    assert_slab(dim, cols, n, first, mins.len());
    assert!(
        dim > 0 && qs.len().is_multiple_of(dim),
        "queries must be whole rows of a positive dimension"
    );
    #[cfg(debug_assertions)]
    let before = mins.to_vec();
    match lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `exact_relax_run`.
        Lane::Avx2Fma => unsafe { x86::exact_min_sq_run_avx2(qs, dim, cols, n, first, mins) },
        _ => exact_min_sq_run_portable(qs, dim, cols, n, first, mins),
    }
    #[cfg(debug_assertions)]
    {
        let mut want = before;
        exact_min_sq_run_portable(qs, dim, cols, n, first, &mut want);
        assert!(
            want.iter()
                .zip(&*mins)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "exact_min_sq_run diverged from the scalar fold"
        );
    }
}

/// [`exact_min_sq_run`]'s portable body: the scalar fold it must equal.
fn exact_min_sq_run_portable(
    qs: &[f64],
    dim: usize,
    cols: &[f64],
    n: usize,
    first: usize,
    mins: &mut [f64],
) {
    for (i, m) in mins.iter_mut().enumerate() {
        for q in qs.chunks_exact(dim) {
            *m = m.min(col_dist_sq(q, cols, n, first + i));
        }
    }
}

/// The exact run kernel, threshold form: for the candidates `c = first +
/// i`, `i < len`, of the dimension-major f64 slab `cols` (`dim × n`,
/// `dim = q.len()`), sets bit `i % 64` of `keep[i / 64]` iff
/// `row_dist(q, c) ≤ tau`, judged on the same bit-identical distance as
/// [`exact_relax_run`] (so a NaN distance is never kept, like the scalar
/// `<=`). `keep` holds [`run_words`]`(len)` words; bits past `len` are
/// zero and every word is overwritten.
#[inline]
pub fn exact_within_run(
    q: &[f64],
    cols: &[f64],
    n: usize,
    first: usize,
    len: usize,
    tau: f64,
    keep: &mut [u64],
) {
    assert_slab(q.len(), cols, n, first, len);
    assert_eq!(
        keep.len(),
        run_words(len),
        "one keep word per 64 candidates"
    );
    match lane() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `exact_relax_run`.
        Lane::Avx2Fma => unsafe { x86::exact_within_run_avx2(q, cols, n, first, len, tau, keep) },
        _ => exact_within_run_portable(q, cols, n, first, len, tau, keep),
    }
    #[cfg(debug_assertions)]
    {
        let mut want = vec![0u64; keep.len()];
        exact_within_run_portable(q, cols, n, first, len, tau, &mut want);
        assert_eq!(
            &want[..],
            &*keep,
            "exact_within_run diverged from row_dist <= tau"
        );
    }
}

/// [`exact_within_run`]'s portable body: the scalar judgment it must
/// equal.
fn exact_within_run_portable(
    q: &[f64],
    cols: &[f64],
    n: usize,
    first: usize,
    len: usize,
    tau: f64,
    keep: &mut [u64],
) {
    keep.fill(0);
    for i in 0..len {
        let within = col_dist_sq(q, cols, n, first + i).sqrt() <= tau;
        keep[i / 64] |= (within as u64) << (i % 64);
    }
}

/// The scalar banded judgment shared by the run kernel's portable body,
/// scalar tail and debug assertions: candidate norm `nb` against one
/// query's [`Thresholds`], a norm not at most [`NORM_LIMIT`] landing in
/// the band. Must mirror the vector path's f32 operation
/// sequence exactly — one multiply and one add per threshold (Rust never
/// fuses them), ordered compares that fail on NaN.
#[inline(always)]
fn classify_one(dot: f32, nb: f32, th: &Thresholds) -> u8 {
    if nb <= NORM_LIMIT && dot >= nb * th.ch + th.hq {
        CLASS_KEEP
    } else if nb <= NORM_LIMIT && dot < nb * th.cl + th.lq {
        CLASS_REJECT
    } else {
        CLASS_EXACT
    }
}

/// Dot product with eight independent f32 accumulators (two SSE2
/// registers' worth of lanes). A single-accumulator loop is a serial FP
/// add chain the compiler must not reorder (adds aren't associative);
/// splitting it lets it vectorize on the SSE2 baseline. The order is a
/// fixed function of the slice, so determinism is untouched.
#[inline]
fn dot_f32_baseline(a: &[f32], b: &[f32]) -> f32 {
    let split = a.len() & !7;
    let mut acc = [0.0f32; 8];
    for (ca, cb) in a[..split].chunks_exact(8).zip(b[..split].chunks_exact(8)) {
        for l in 0..8 {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut dot = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        dot += x * y;
    }
    dot
}

/// Debug-only scalar-equivalence check: the lane result must match a
/// serial fold (accumulated in f64, so the bound only has to cover the
/// lane's own f32 rounding) to within the γ-style accumulation bound
/// `(n + 8)·2ε·Σ|aᵢbᵢ|`. Anything worse is a broken kernel, not rounding.
#[cfg(debug_assertions)]
fn assert_close_f32(dot: f32, a: &[f32], b: &[f32]) {
    let mut serial = 0.0f64;
    let mut mag = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let p = (*x as f64) * (*y as f64);
        serial += p;
        mag += p.abs();
    }
    if !serial.is_finite() || !mag.is_finite() || !dot.is_finite() {
        return;
    }
    let tol = (a.len() as f64 + 8.0) * 2.0 * f32::EPSILON as f64 * mag + f32::MIN_POSITIVE as f64;
    assert!(
        (dot as f64 - serial).abs() <= tol,
        "SIMD f32 dot diverged from scalar: {dot} vs {serial} (tol {tol})"
    );
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA (see
    /// [`super::lane`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f32_avx2_fma(a: &[f32], b: &[f32]) -> f32 {
        use std::arch::x86_64::*;
        let n = a.len();
        debug_assert_eq!(n, b.len());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            let a0 = _mm256_loadu_ps(a.as_ptr().add(i));
            let b0 = _mm256_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_ps(a0, b0, acc0);
            let a1 = _mm256_loadu_ps(a.as_ptr().add(i + 8));
            let b1 = _mm256_loadu_ps(b.as_ptr().add(i + 8));
            acc1 = _mm256_fmadd_ps(a1, b1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let a0 = _mm256_loadu_ps(a.as_ptr().add(i));
            let b0 = _mm256_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_ps(a0, b0, acc0);
            i += 8;
        }
        let acc = _mm256_add_ps(acc0, acc1);
        // Horizontal sum: 256 → 128 → 64 → 32 bits.
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps(acc, 1);
        let quad = _mm_add_ps(lo, hi);
        let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
        let one = _mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 0b01));
        let mut dot = _mm_cvtss_f32(one);
        while i < n {
            dot += a.get_unchecked(i) * b.get_unchecked(i);
            i += 1;
        }
        dot
    }

    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA (see
    /// [`super::lane`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dots_f32_indexed_avx2_fma(
        q: &[f32],
        rows: &[f32],
        dim: usize,
        idx: &[u32],
        out: &mut [f32],
    ) {
        use std::arch::x86_64::*;
        // Four candidates per iteration: each 8-lane query load is reused
        // by four independent FMA chains, so the loop is FMA-throughput-
        // bound instead of latency- or load-bound. Remainders (tail of the
        // tile, or dim not a multiple of 8) fall back to the one-pair
        // kernel, which also inlines here.
        let mut i = 0;
        if dim >= 8 && dim.is_multiple_of(8) {
            while i + 4 <= idx.len() {
                let r0 = rows.as_ptr().add(idx[i] as usize * dim);
                let r1 = rows.as_ptr().add(idx[i + 1] as usize * dim);
                let r2 = rows.as_ptr().add(idx[i + 2] as usize * dim);
                let r3 = rows.as_ptr().add(idx[i + 3] as usize * dim);
                let mut a0 = _mm256_setzero_ps();
                let mut a1 = _mm256_setzero_ps();
                let mut a2 = _mm256_setzero_ps();
                let mut a3 = _mm256_setzero_ps();
                let mut d = 0;
                while d < dim {
                    let qv = _mm256_loadu_ps(q.as_ptr().add(d));
                    a0 = _mm256_fmadd_ps(_mm256_loadu_ps(r0.add(d)), qv, a0);
                    a1 = _mm256_fmadd_ps(_mm256_loadu_ps(r1.add(d)), qv, a1);
                    a2 = _mm256_fmadd_ps(_mm256_loadu_ps(r2.add(d)), qv, a2);
                    a3 = _mm256_fmadd_ps(_mm256_loadu_ps(r3.add(d)), qv, a3);
                    d += 8;
                }
                out[i] = hsum_ps(a0);
                out[i + 1] = hsum_ps(a1);
                out[i + 2] = hsum_ps(a2);
                out[i + 3] = hsum_ps(a3);
                i += 4;
            }
        }
        while i < idx.len() {
            let c = idx[i] as usize;
            out[i] = dot_f32_avx2_fma(q, &rows[c * dim..c * dim + dim]);
            i += 1;
        }
    }

    /// The run kernel behind [`super::classify_f32_run_bits`] for `Q` ∈
    /// {1, 2} queries. Outer blocks of 32 candidates: per query coordinate,
    /// four 8-lane column loads are each FMA'd into every query's chain
    /// (`4·Q` accumulators), so a pair of queries halves the loads per FMA
    /// and keeps eight FMA chains in flight. The dots stay vertical, so
    /// the judgment ([`Judge::classify8`]) is pure f32 vector code ending
    /// in mask bits.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA (see
    /// [`super::lane`]), that `first + len <= n` with `cols` a `dim × n`
    /// dimension-major slab, and that `keep` and `band` hold
    /// `Q · run_words(len)` words each.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn classify_f32_run_bits_avx2_fma<const Q: usize>(
        qs: [(&[f32], f64); Q],
        cols: &[f32],
        n: usize,
        rows: &[f32],
        norms: &[f32],
        dim: usize,
        first: usize,
        len: usize,
        t2: f64,
        band_scale: f64,
        keep: &mut [u64],
        band: &mut [u64],
    ) {
        use std::arch::x86_64::*;
        let words = super::run_words(len);
        keep.fill(0);
        band.fill(0);
        let th = qs.map(|(_, na)| super::Thresholds::new(na, t2, band_scale, dim));
        let judge = Judge::new(&th);
        // Ors block masks into query `j`'s words. Blocks start at multiples
        // of their width (32 or 8 ≤ 64), so no block straddles a word.
        let mut put = |j: usize, i: usize, k: u64, b: u64| {
            keep[j * words + i / 64] |= k << (i % 64);
            band[j * words + i / 64] |= b << (i % 64);
        };
        let mut i = 0;
        while i + 32 <= len {
            let base = first + i;
            let mut acc = [[_mm256_setzero_ps(); 4]; Q];
            for d in 0..dim {
                let col = cols.as_ptr().add(d * n + base);
                let c = [
                    _mm256_loadu_ps(col),
                    _mm256_loadu_ps(col.add(8)),
                    _mm256_loadu_ps(col.add(16)),
                    _mm256_loadu_ps(col.add(24)),
                ];
                for (accs, &(q, _)) in acc.iter_mut().zip(&qs) {
                    let qd = _mm256_broadcast_ss(q.get_unchecked(d));
                    for (a, &cv) in accs.iter_mut().zip(&c) {
                        *a = _mm256_fmadd_ps(cv, qd, *a);
                    }
                }
            }
            let mut masks = [(0u64, 0u64); Q];
            for b in 0..4 {
                let dots = acc.map(|accs| accs[b]);
                let got = judge.classify8(dots, norms.as_ptr().add(base + 8 * b));
                for ((k, bm), (kb, bb)) in masks.iter_mut().zip(got) {
                    *k |= (kb as u64) << (8 * b);
                    *bm |= (bb as u64) << (8 * b);
                }
            }
            for (j, (k, bm)) in masks.into_iter().enumerate() {
                put(j, i, k, bm);
            }
            i += 32;
        }
        while i + 8 <= len {
            let base = first + i;
            let mut acc = [_mm256_setzero_ps(); Q];
            for d in 0..dim {
                let col = _mm256_loadu_ps(cols.as_ptr().add(d * n + base));
                for (a, &(q, _)) in acc.iter_mut().zip(&qs) {
                    let qd = _mm256_broadcast_ss(q.get_unchecked(d));
                    *a = _mm256_fmadd_ps(col, qd, *a);
                }
            }
            let got = judge.classify8(acc, norms.as_ptr().add(base));
            for (j, (k, bm)) in got.into_iter().enumerate() {
                put(j, i, k as u64, bm as u64);
            }
            i += 8;
        }
        while i < len {
            // Scalar tail over the row-major mirror — the same single FMA
            // chain per candidate as the lanes above, so the debug
            // reference in the dispatcher covers every path.
            let c = first + i;
            let r = &rows[c * dim..c * dim + dim];
            for (j, (&(q, _), t)) in qs.iter().zip(&th).enumerate() {
                let class = super::classify_one(super::fma_dot(q, r), norms[c], t);
                put(
                    j,
                    i,
                    (class == super::CLASS_KEEP) as u64,
                    (class == super::CLASS_EXACT) as u64,
                );
            }
            i += 1;
        }
    }

    /// [`super::Thresholds`] of `Q` queries broadcast to f32 vectors.
    struct Judge<const Q: usize> {
        ch: std::arch::x86_64::__m256,
        cl: std::arch::x86_64::__m256,
        limit: std::arch::x86_64::__m256,
        hq: [std::arch::x86_64::__m256; Q],
        lq: [std::arch::x86_64::__m256; Q],
    }

    impl<const Q: usize> Judge<Q> {
        /// # Safety
        /// Caller must ensure the host supports AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn new(th: &[super::Thresholds; Q]) -> Judge<Q> {
            use std::arch::x86_64::*;
            Judge {
                ch: _mm256_set1_ps(th[0].ch),
                cl: _mm256_set1_ps(th[0].cl),
                limit: _mm256_set1_ps(super::NORM_LIMIT),
                hq: th.map(|t| _mm256_set1_ps(t.hq)),
                lq: th.map(|t| _mm256_set1_ps(t.lq)),
            }
        }

        /// The judgment of eight vertically accumulated f32 dots per query
        /// against the candidates' norms at `nb`: `super::classify_one`'s
        /// f32 operation sequence in vectors. The norm side — the limit
        /// mask and `nb·ch`, `nb·cl` — is shared by the queries. Returns
        /// each query's keep and band masks (bit `l` is candidate `l`); a
        /// candidate in neither is a certified reject.
        ///
        /// # Safety
        /// Caller must ensure the host supports AVX2 and that `nb` points
        /// at eight readable f32 norms.
        #[target_feature(enable = "avx2")]
        unsafe fn classify8(
            &self,
            dots: [std::arch::x86_64::__m256; Q],
            nb: *const f32,
        ) -> [(u32, u32); Q] {
            use std::arch::x86_64::*;
            let nbv = _mm256_loadu_ps(nb);
            // Ordered compares fail on NaN, so a NaN norm, threshold or
            // dot sets neither keep nor reject: a band hit.
            let ok = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(nbv, self.limit)) as u32;
            let hc = _mm256_mul_ps(nbv, self.ch);
            let lc = _mm256_mul_ps(nbv, self.cl);
            let mut out = [(0, 0); Q];
            for (j, (o, dot)) in out.iter_mut().zip(dots).enumerate() {
                let hi = _mm256_add_ps(hc, self.hq[j]);
                let lo = _mm256_add_ps(lc, self.lq[j]);
                let k = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(dot, hi)) as u32 & ok;
                let r = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(dot, lo)) as u32 & ok;
                *o = (k, !(k | r) & 0xFF);
            }
            out
        }
    }

    /// Squared distances from `q` to the four candidates `c..c + 4` of the
    /// dimension-major f64 slab at `cols` (column stride `n`):
    /// `super::col_dist_sq`'s sub, mul, add over ascending `d` from
    /// `+0.0`, lane for lane, with no FMA.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2 and that `cols` holds
    /// `q.len()` columns of `n ≥ c + 4` values.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dist_sq4(
        q: &[f64],
        cols: *const f64,
        n: usize,
        c: usize,
    ) -> std::arch::x86_64::__m256d {
        use std::arch::x86_64::*;
        let mut acc = _mm256_setzero_pd();
        for (d, &x) in q.iter().enumerate() {
            let t = _mm256_sub_pd(_mm256_set1_pd(x), _mm256_loadu_pd(cols.add(d * n + c)));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(t, t));
        }
        acc
    }

    /// [`dist_sq4`] for the sixteen candidates `c..c + 16`, as four
    /// independent accumulator vectors: one column pass feeds four chains,
    /// so the adds no longer wait on each other, and each lane still runs
    /// `super::col_dist_sq`'s sequence, bit for bit.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2 and that `cols` holds
    /// `q.len()` columns of `n ≥ c + 16` values.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dist_sq16(
        q: &[f64],
        cols: *const f64,
        n: usize,
        c: usize,
    ) -> [std::arch::x86_64::__m256d; 4] {
        use std::arch::x86_64::*;
        let mut acc = [_mm256_setzero_pd(); 4];
        for (d, &x) in q.iter().enumerate() {
            let (xv, col) = (_mm256_set1_pd(x), cols.add(d * n + c));
            for (l, a) in acc.iter_mut().enumerate() {
                let t = _mm256_sub_pd(xv, _mm256_loadu_pd(col.add(4 * l)));
                *a = _mm256_add_pd(*a, _mm256_mul_pd(t, t));
            }
        }
        acc
    }

    /// AVX2 body of [`super::exact_relax_run`]: sixteen candidates per
    /// step on four accumulator chains ([`dist_sq16`]), then four per
    /// step, each lane keeping its first maximum — a step's four
    /// sub-blocks fold into one `(best_v, best_i)` in index order — then
    /// the lanes and the scalar tail combined by (value, lower index).
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2 and that `cols` holds
    /// `q.len()` columns of `n ≥ first + slots.len()` values.
    #[target_feature(enable = "avx2")]
    pub unsafe fn exact_relax_run_avx2(
        q: &[f64],
        cols: &[f64],
        n: usize,
        first: usize,
        slots: &mut [f64],
    ) -> (f64, usize) {
        use std::arch::x86_64::*;
        let len = slots.len();
        let (cp, sp) = (cols.as_ptr(), slots.as_mut_ptr());
        let mut best_v = _mm256_set1_pd(f64::NEG_INFINITY);
        let mut best_i = _mm256_set1_epi64x(-1);
        let mut idx = _mm256_setr_epi64x(0, 1, 2, 3);
        let four = _mm256_set1_epi64x(4);
        // Relaxes slots `i..i + 4` with their distances `d` and folds them
        // into the running lane maxima.
        let mut relax4 = |i: usize, d: __m256d| {
            // `minpd` returns its second operand when either is NaN: the
            // slot, as `d.min(slot)` does for a NaN `d`.
            let m = _mm256_min_pd(_mm256_sqrt_pd(d), _mm256_loadu_pd(sp.add(i)));
            _mm256_storeu_pd(sp.add(i), m);
            let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(m, best_v);
            best_v = _mm256_blendv_pd(best_v, m, gt);
            best_i = _mm256_castpd_si256(_mm256_blendv_pd(
                _mm256_castsi256_pd(best_i),
                _mm256_castsi256_pd(idx),
                gt,
            ));
            idx = _mm256_add_epi64(idx, four);
        };
        let mut i = 0;
        while i + 16 <= len {
            for (l, d) in dist_sq16(q, cp, n, first + i).into_iter().enumerate() {
                relax4(i + 4 * l, d);
            }
            i += 16;
        }
        while i + 4 <= len {
            relax4(i, dist_sq4(q, cp, n, first + i));
            i += 4;
        }
        let (mut vs, mut is) = ([0.0f64; 4], [0i64; 4]);
        _mm256_storeu_pd(vs.as_mut_ptr(), best_v);
        _mm256_storeu_si256(is.as_mut_ptr().cast(), best_i);
        // A lane that never improved holds (−∞, −1); as `usize` that is
        // `usize::MAX`, the portable scan's starting index.
        let mut best = (f64::NEG_INFINITY, usize::MAX);
        for (&v, &ix) in vs.iter().zip(&is) {
            let ix = ix as usize;
            if v > best.0 || (v == best.0 && ix < best.1) {
                best = (v, ix);
            }
        }
        while i < len {
            let d = super::col_dist_sq(q, cols, n, first + i)
                .sqrt()
                .min(slots[i]);
            slots[i] = d;
            if d > best.0 {
                best = (d, i);
            }
            i += 1;
        }
        best
    }

    /// AVX2 body of [`super::exact_min_sq_run`]: each sixteen-candidate
    /// block (four accumulator chains, [`dist_sq16`]), then each
    /// four-candidate block, keeps its running minima in registers across
    /// every query.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2, that `dim > 0` and
    /// `qs` holds whole `dim`-wide rows, and that `cols` holds `dim`
    /// columns of `n ≥ first + mins.len()` values.
    #[target_feature(enable = "avx2")]
    pub unsafe fn exact_min_sq_run_avx2(
        qs: &[f64],
        dim: usize,
        cols: &[f64],
        n: usize,
        first: usize,
        mins: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        let len = mins.len();
        let (cp, mp) = (cols.as_ptr(), mins.as_mut_ptr());
        let mut i = 0;
        while i + 16 <= len {
            let mut m: [__m256d; 4] = std::array::from_fn(|l| _mm256_loadu_pd(mp.add(i + 4 * l)));
            for q in qs.chunks_exact(dim) {
                for (m, d) in m.iter_mut().zip(dist_sq16(q, cp, n, first + i)) {
                    // Second operand on NaN, as below.
                    *m = _mm256_min_pd(d, *m);
                }
            }
            for (l, m) in m.into_iter().enumerate() {
                _mm256_storeu_pd(mp.add(i + 4 * l), m);
            }
            i += 16;
        }
        while i + 4 <= len {
            let mut m = _mm256_loadu_pd(mp.add(i));
            for q in qs.chunks_exact(dim) {
                // Second operand on NaN: the running minimum, as
                // `m.min(s)` keeps it.
                m = _mm256_min_pd(dist_sq4(q, cp, n, first + i), m);
            }
            _mm256_storeu_pd(mp.add(i), m);
            i += 4;
        }
        super::exact_min_sq_run_portable(qs, dim, cols, n, first + i, &mut mins[i..]);
    }

    /// AVX2 body of [`super::exact_within_run`]: sixteen candidates per
    /// step on four accumulator chains ([`dist_sq16`]), then four per step,
    /// `sqrt(d²) ≤ τ` as an ordered compare landing as mask bits.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2, that `cols` holds
    /// `q.len()` columns of `n ≥ first + len` values, and that `keep`
    /// holds `run_words(len)` words.
    #[target_feature(enable = "avx2")]
    pub unsafe fn exact_within_run_avx2(
        q: &[f64],
        cols: &[f64],
        n: usize,
        first: usize,
        len: usize,
        tau: f64,
        keep: &mut [u64],
    ) {
        use std::arch::x86_64::*;
        keep.fill(0);
        let cp = cols.as_ptr();
        let tau_v = _mm256_set1_pd(tau);
        let within = |d: __m256d| {
            _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_sqrt_pd(d), tau_v)) as u64
        };
        // Blocks start at multiples of their width (16 or 4), so none
        // straddles a word.
        let mut i = 0;
        while i + 16 <= len {
            for (l, d) in dist_sq16(q, cp, n, first + i).into_iter().enumerate() {
                keep[i / 64] |= within(d) << (i % 64 + 4 * l);
            }
            i += 16;
        }
        while i + 4 <= len {
            keep[i / 64] |= within(dist_sq4(q, cp, n, first + i)) << (i % 64);
            i += 4;
        }
        while i < len {
            let within = super::col_dist_sq(q, cols, n, first + i).sqrt() <= tau;
            keep[i / 64] |= (within as u64) << (i % 64);
            i += 1;
        }
    }

    /// Horizontal sum of 8 f32 lanes: 256 → 128 → 64 → 32 bits.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2 (see [`super::lane`]).
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_ps(acc: std::arch::x86_64::__m256) -> f32 {
        use std::arch::x86_64::*;
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps(acc, 1);
        let quad = _mm_add_ps(lo, hi);
        let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
        _mm_cvtss_f32(_mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 0b01)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Deterministic, sign-mixed, magnitude-mixed inputs.
        let a: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761 % 1000) as f64 - 500.0) / 37.0)
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 40503 % 1000) as f64 - 499.0) / 13.0)
            .collect();
        (a, b)
    }

    #[test]
    fn lane_is_stable() {
        assert_eq!(lane(), lane());
    }

    /// The batched f32 dots (the ball index's owner score) match a
    /// widened serial fold on every lane, including the sub-8 and
    /// sub-4-candidate remainders.
    #[test]
    fn dots_f32_indexed_match_widened_serial_fold() {
        for n in [0, 1, 7, 8, 9, 16, 17, 31, 32, 33, 64, 100] {
            let (a64, b64) = rows(n);
            let a: Vec<f32> = a64.iter().map(|&x| x as f32).collect();
            let b: Vec<f32> = b64.iter().map(|&x| x as f32).collect();
            let serial: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (*x as f64) * (*y as f64))
                .sum();
            let mag: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| ((*x as f64) * (*y as f64)).abs())
                .sum();
            let idx = [0u32; 5];
            let mut got = [0.0f32; 5];
            dots_f32_indexed(&a, &b, n, &idx, &mut got);
            let tol = (n as f64 + 8.0) * 2.0 * f32::EPSILON as f64 * mag + f32::MIN_POSITIVE as f64;
            for g in got {
                assert!((g as f64 - serial).abs() <= tol, "n={n}: {g} vs {serial}");
            }
        }
    }

    /// Candidate lengths straddling the run kernel's 8-lane block, its
    /// 32-candidate block and the 64-bit verdict word.
    const RUN_LENS: [usize; 9] = [7, 8, 31, 32, 63, 64, 65, 97, 300];

    /// Calls `f(points, mirror, queries, first, len, t2)` over run-kernel
    /// cases: d ∈ {16, 17, 32}, one query and a pair, an aligned and an
    /// unaligned run start, every [`RUN_LENS`] length, and thresholds on
    /// exact pair distances (so some pairs land in the band) plus one
    /// between the clusters' scales.
    fn for_each_run_case(
        mut f: impl FnMut(&crate::PointSet, &crate::soa::SoaStorage, &[usize], usize, usize, f64),
    ) {
        use crate::EuclideanSpace;
        for dim in [16, 17, 32] {
            let points = crate::datasets::gaussian_clusters(400, dim, 4, 0.05, dim as u64);
            let soa = crate::soa::SoaStorage::build(&points);
            let row = |i: usize| &points.raw()[i * dim..(i + 1) * dim];
            for qs in [&[5usize][..], &[5, 333]] {
                for first in [0, 13] {
                    for len in RUN_LENS {
                        let last = qs[qs.len() - 1];
                        for t2 in [
                            EuclideanSpace::row_dist_sq(row(qs[0]), row(first + len / 2)),
                            EuclideanSpace::row_dist_sq(row(last), row(first + len - 1)),
                            0.05,
                        ] {
                            f(&points, &soa, qs, first, len, t2);
                        }
                    }
                }
            }
        }
    }

    /// Query `j`'s (keep, band) bits for candidate `i`.
    fn run_bits(keep: &[u64], band: &[u64], words: usize, j: usize, i: usize) -> (bool, bool) {
        let (w, b) = (j * words + i / 64, i % 64);
        ((keep[w] >> b) & 1 == 1, (band[w] >> b) & 1 == 1)
    }

    /// The portable body, called directly so AVX2 hosts run it too: once
    /// its band bits are re-decided exactly, every verdict is the exact
    /// `row_dist_sq ≤ τ²`, and bits past the run stay clear.
    #[test]
    fn portable_run_kernel_resolves_to_exact_verdicts() {
        let mut band_hits = 0;
        for_each_run_case(|points, soa, qs, first, len, t2| {
            let dim = points.dim();
            let row = |i: usize| &points.raw()[i * dim..(i + 1) * dim];
            let ops: Vec<(&[f32], f64)> = qs
                .iter()
                .map(|&q| (soa.row(q), soa.norm(q) as f64))
                .collect();
            let words = run_words(len);
            // Garbage in: the kernel must overwrite every word.
            let (mut keep, mut band) =
                (vec![!0u64; qs.len() * words], vec![!0u64; qs.len() * words]);
            let scale = crate::soa::f32_band_scale(dim);
            classify_f32_run_bits_portable(
                &ops,
                soa.raw(),
                soa.norms(),
                dim,
                first,
                len,
                t2,
                scale,
                &mut keep,
                &mut band,
            );
            for (j, &q) in qs.iter().enumerate() {
                for i in 0..words * 64 {
                    let (k, b) = run_bits(&keep, &band, words, j, i);
                    if i >= len {
                        assert!(!k && !b, "bit {i} past a {len}-run is set");
                        continue;
                    }
                    let exact = crate::EuclideanSpace::row_dist_sq(row(q), row(first + i)) <= t2;
                    assert!(!(k && b), "a pair is both kept and in the band");
                    band_hits += b as usize;
                    let verdict = if b { exact } else { k };
                    assert_eq!(
                        verdict,
                        exact,
                        "d={dim} q={q} candidate {} t2={t2}",
                        first + i
                    );
                }
            }
        });
        assert!(band_hits > 0, "no pair landed in the band");
    }

    /// Runs the AVX2 body for the one or two mirror rows `qs` against rows
    /// `first..first + len` of `soa` and asserts its keep/band bits equal
    /// `classify_one` of the single FMA chain dot, bit for bit, bits past
    /// the run included.
    #[cfg(target_arch = "x86_64")]
    fn assert_avx2_run_is_scalar_judgment(
        soa: &crate::soa::SoaStorage,
        qs: &[usize],
        first: usize,
        len: usize,
        t2: f64,
    ) {
        let dim = soa.row(0).len();
        let ops: Vec<(&[f32], f64)> = qs
            .iter()
            .map(|&q| (soa.row(q), soa.norm(q) as f64))
            .collect();
        let words = run_words(len);
        let (mut keep, mut band) = (vec![!0u64; qs.len() * words], vec![!0u64; qs.len() * words]);
        let scale = crate::soa::f32_band_scale(dim);
        let (cols, n, rows, norms) = (soa.cols(), soa.col_stride(), soa.raw(), soa.norms());
        // SAFETY: callers run this only after `lane()` returned `Avx2Fma`,
        // so the host has AVX2 + FMA; `first + len ≤ n` and the word
        // counts match.
        unsafe {
            match ops[..] {
                [q0] => x86::classify_f32_run_bits_avx2_fma(
                    [q0],
                    cols,
                    n,
                    rows,
                    norms,
                    dim,
                    first,
                    len,
                    t2,
                    scale,
                    &mut keep,
                    &mut band,
                ),
                [q0, q1] => x86::classify_f32_run_bits_avx2_fma(
                    [q0, q1],
                    cols,
                    n,
                    rows,
                    norms,
                    dim,
                    first,
                    len,
                    t2,
                    scale,
                    &mut keep,
                    &mut band,
                ),
                _ => unreachable!(),
            }
        }
        for (j, &(q, na)) in ops.iter().enumerate() {
            let th = Thresholds::new(na, t2, scale, dim);
            for i in 0..words * 64 {
                let want = if i < len {
                    let c = first + i;
                    let class = classify_one(fma_dot(q, soa.row(c)), norms[c], &th);
                    (class == CLASS_KEEP, class == CLASS_EXACT)
                } else {
                    (false, false)
                };
                assert_eq!(
                    run_bits(&keep, &band, words, j, i),
                    want,
                    "d={dim} |qs|={} query {j} candidate {} t2={t2}",
                    qs.len(),
                    first + i
                );
            }
        }
    }

    /// The AVX2 body's keep/band bits equal `classify_one` of the single
    /// FMA chain dot, bit for bit, for one query and for a pair (on hosts
    /// without AVX2 + FMA there is nothing to run).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_run_kernel_bits_equal_the_scalar_judgment() {
        if lane() != Lane::Avx2Fma {
            return;
        }
        for_each_run_case(|_, soa, qs, first, len, t2| {
            assert_avx2_run_is_scalar_judgment(soa, qs, first, len, t2);
        });
    }

    /// The f64 banded judgment that [`Thresholds`] replaced: the
    /// Gram estimate `na + nb − 2·dot` against `t2 ± band_scale·(na + nb +
    /// t2)`, in f64. The soundness test holds the f32 judgment to it.
    fn classify_one_f64(dot: f32, nb32: f32, na: f64, t2: f64, band_scale: f64) -> u8 {
        let nsum = na + nb32 as f64;
        let est = nsum - 2.0 * dot as f64;
        let band = band_scale * (nsum + t2);
        if est <= t2 - band {
            CLASS_KEEP
        } else if est > t2 + band {
            CLASS_REJECT
        } else {
            CLASS_EXACT
        }
    }

    /// Rows that stress the judgment at dimension `dim`, seeded by
    /// `seed`: random sign-mixed rows at magnitudes from 1e-18 to 1e18 and
    /// at 1e-22 and 1e-30, whose f32 squares fall in or below the
    /// subnormal range, near-copies of earlier rows (pairs close to their
    /// threshold), the
    /// zero row, rows whose f32 squares overflow or come within a factor
    /// 4 of it, a row past f32's range, and NaN, +∞ and −∞ rows.
    fn stress_rows(dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for e in (-18..=18).chain([-22, -30]) {
            let scale = 10f64.powi(e);
            rows.push((0..dim).map(|_| unit() * scale).collect());
            let near: Vec<f64> = rows[rows.len() - 1]
                .iter()
                .map(|&x| x * (1.0 + unit() * 1e-6))
                .collect();
            rows.push(near);
        }
        rows.push(vec![0.0; dim]);
        for big in [4e18, 1e19, 2e19, 1e30, 3e38, 1e39] {
            rows.push((0..dim).map(|_| unit() * big).collect());
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut row: Vec<f64> = (0..dim).map(|_| unit()).collect();
            row[dim / 2] = bad;
            rows.push(row);
        }
        rows
    }

    /// The f32 judgment is sound against the f64 one it replaced: over
    /// every ordered pair of [`stress_rows`] at d ∈ {16, 17, 32, 33, 64}
    /// and thresholds at the pair's exact `row_dist_sq`, at the two τ²
    /// where the f64 judgment's keep and reject tests flip, and one f64
    /// ulp either side of each (plus 0, 1 and +∞), a keep is an f64 keep, a
    /// reject an f64 reject, and both are the exact verdict (which the f64
    /// judgment misses on the subnormal-range rows: there it keeps pairs
    /// one ulp beyond τ²); a pair with a non-finite norm, dot or threshold
    /// lands in the band. On AVX2 hosts
    /// the kernel's bits over the same rows equal `classify_one`, for one
    /// query and for a pair, at runs reaching the 32-block, the 8-block
    /// and the scalar tail.
    #[test]
    fn f32_judgment_is_sound_against_the_f64_band() {
        use crate::EuclideanSpace;
        let (mut widened, mut f64_band) = (0usize, 0usize);
        for (dim, seed) in [(16, 1), (17, 2), (32, 3), (33, 4), (64, 5)] {
            let rows = stress_rows(dim, seed);
            let soa = crate::soa::SoaStorage::build(&crate::PointSet::from_rows(&rows));
            let scale = crate::soa::f32_band_scale(dim);
            for (a, ra) in rows.iter().enumerate() {
                let na = soa.norm(a) as f64;
                for (b, rb) in rows.iter().enumerate() {
                    let (nb, dot) = (soa.norm(b), fma_dot(soa.row(a), soa.row(b)));
                    let d2 = EuclideanSpace::row_dist_sq(ra, rb);
                    // The f64 band's own edges for this pair: the τ² at
                    // which its keep (reject) test flips, where an f32
                    // rounding not covered by the widening would show.
                    let nsum = na + nb as f64;
                    let est = nsum - 2.0 * dot as f64;
                    let edges = [
                        (est + scale * nsum) / (1.0 - scale),
                        (est - scale * nsum) / (1.0 + scale),
                    ];
                    let near = |t: f64| [t, t.next_up(), t.next_down()];
                    let t2s = [
                        near(d2),
                        near(edges[0]),
                        near(edges[1]),
                        [0.0, 1.0, f64::INFINITY],
                    ];
                    for t2 in t2s.into_iter().flatten() {
                        let within = d2 <= t2;
                        let new = classify_one(dot, nb, &Thresholds::new(na, t2, scale, dim));
                        let old = classify_one_f64(dot, nb, na, t2, scale);
                        let what = format!("d={dim} pair ({a}, {b}) t2={t2:e} dot={dot:e}");
                        match new {
                            CLASS_KEEP => assert!(old == CLASS_KEEP && within, "{what}"),
                            CLASS_REJECT => assert!(old == CLASS_REJECT && !within, "{what}"),
                            _ => {
                                widened += (old != CLASS_EXACT) as usize;
                                f64_band += (old == CLASS_EXACT) as usize;
                            }
                        }
                        let finite = na.is_finite() && nb.is_finite() && dot.is_finite();
                        if !(finite && t2.is_finite()) {
                            assert_eq!(new, CLASS_EXACT, "{what}: a non-finite operand");
                        }
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            if lane() == Lane::Avx2Fma {
                let n = rows.len();
                for qs in [&[3usize][..], &[3, n - 1]] {
                    for (first, len) in [(0, n), (1, 45), (5, 13), (n - 7, 7)] {
                        for t2 in [
                            EuclideanSpace::row_dist_sq(&rows[qs[0]], &rows[first + len / 2]),
                            1.0,
                        ] {
                            assert_avx2_run_is_scalar_judgment(&soa, qs, first, len, t2);
                        }
                    }
                }
            }
        }
        assert!(
            f64_band > 0 && widened > 0,
            "{f64_band} f64 band hits, {widened} widened"
        );
    }

    /// Points for the exact run kernels at dimension `dim`, row-major and
    /// dimension-major: sign-mixed values scaled from 1e-300 to 1e300,
    /// exact ±0.0 coordinates, and a pair at ±1.5e308 whose difference
    /// overflows to +∞ (as does any square past 1e154).
    fn exact_points(dim: usize) -> (Vec<f64>, Vec<f64>, usize) {
        const SCALES: [f64; 7] = [1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300];
        let n = 80;
        let mut rows = Vec::with_capacity(n * dim);
        for i in 0..n {
            for d in 0..dim {
                let h = (i * 2654435761 + d * 40503 + dim * 97) % 1000;
                let x = match (i + d) % 11 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (h as f64 - 500.0) / 250.0 * SCALES[(i / 3 + d) % SCALES.len()],
                };
                rows.push(x);
            }
        }
        rows[7 * dim] = 1.5e308;
        rows[8 * dim] = -1.5e308;
        // Exact duplicates: a zero distance, and ties for the argmax.
        let (dup, src) = rows.split_at_mut(20 * dim);
        src[..dim].copy_from_slice(&dup[5 * dim..6 * dim]);
        let mut cols = vec![0.0; n * dim];
        for i in 0..n {
            for d in 0..dim {
                cols[d * n + i] = rows[i * dim + d];
            }
        }
        (rows, cols, n)
    }

    /// Calls `f(rows, cols, n, dim, q, first, len)` over d ∈ 1..=9, 16 and 33,
    /// queries including the overflowing pair, run starts 0, 1, 3 and 5,
    /// and every run length 0..=67 around the 4- and 16-candidate edges.
    fn for_each_exact_case(mut f: impl FnMut(&[f64], &[f64], usize, usize, usize, usize, usize)) {
        for dim in (1..=9).chain([16, 33]) {
            let (rows, cols, n) = exact_points(dim);
            for q in [5, 7, 20, 33] {
                for first in [0, 1, 3, 5] {
                    for len in 0..=67 {
                        f(&rows, &cols, n, dim, q, first, len);
                    }
                }
            }
        }
    }

    /// Both bodies of a kernel, so AVX2 hosts check the portable one too
    /// (hosts without AVX2 run the portable body twice).
    fn bodies() -> Vec<bool> {
        if lane() == Lane::Avx2Fma {
            vec![false, true]
        } else {
            vec![false]
        }
    }

    #[test]
    fn exact_relax_run_is_row_dist_bit_for_bit() {
        use crate::EuclideanSpace;
        for_each_exact_case(|rows, cols, n, dim, q, first, len| {
            let row = |i: usize| &rows[i * dim..(i + 1) * dim];
            // Unrelaxed, chosen (−∞), already-closer and tied slots.
            let init: Vec<f64> = (0..len)
                .map(|i| match i % 5 {
                    0 | 1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 1.0,
                    _ => EuclideanSpace::row_dist(row(q), row(first + i)),
                })
                .collect();
            let mut want = init.clone();
            let mut want_best = (f64::NEG_INFINITY, usize::MAX);
            for (i, slot) in want.iter_mut().enumerate() {
                *slot = EuclideanSpace::row_dist(row(q), row(first + i)).min(*slot);
                if *slot > want_best.0 {
                    want_best = (*slot, i);
                }
            }
            for avx2 in bodies() {
                let mut got = init.clone();
                let best = if avx2 {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `bodies()` offers AVX2 only on AVX2 hosts;
                    // `first + len ≤ n`.
                    unsafe {
                        x86::exact_relax_run_avx2(row(q), cols, n, first, &mut got)
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    unreachable!()
                } else {
                    exact_relax_run_portable(row(q), cols, n, first, &mut got)
                };
                let what = format!("avx2={avx2} d={dim} q={q} first={first} len={len}");
                assert_eq!(
                    (best.0.to_bits(), best.1),
                    (want_best.0.to_bits(), want_best.1),
                    "{what}"
                );
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{what}");
                }
            }
        });
    }

    #[test]
    fn exact_within_run_is_row_dist_le_tau() {
        use crate::EuclideanSpace;
        for_each_exact_case(|rows, cols, n, dim, q, first, len| {
            let row = |i: usize| &rows[i * dim..(i + 1) * dim];
            let words = run_words(len);
            let mid = EuclideanSpace::row_dist(row(q), row(first + len / 2));
            for tau in [mid, 0.0, 1.0, f64::INFINITY] {
                for avx2 in bodies() {
                    // Garbage in: every word must be overwritten.
                    let mut keep = vec![!0u64; words];
                    if avx2 {
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: as above; `keep` holds `run_words(len)`.
                        unsafe {
                            x86::exact_within_run_avx2(row(q), cols, n, first, len, tau, &mut keep)
                        }
                    } else {
                        exact_within_run_portable(row(q), cols, n, first, len, tau, &mut keep);
                    }
                    for i in 0..words * 64 {
                        let bit = keep[i / 64] >> (i % 64) & 1 == 1;
                        let want =
                            i < len && EuclideanSpace::row_dist(row(q), row(first + i)) <= tau;
                        assert_eq!(
                            bit, want,
                            "avx2={avx2} d={dim} q={q} first={first} len={len} i={i} tau={tau}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn exact_min_sq_run_is_row_dist_to_rows_bit_for_bit() {
        use crate::EuclideanSpace;
        for_each_exact_case(|rows, cols, n, dim, q, first, len| {
            let row = |i: usize| &rows[i * dim..(i + 1) * dim];
            // The query, the overflowing pair and a zero-heavy row.
            let qs: Vec<f64> = [q, 7, 8, 11]
                .iter()
                .flat_map(|&j| row(j).to_vec())
                .collect();
            for avx2 in bodies() {
                let mut mins = vec![f64::INFINITY; len];
                if avx2 {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: as above.
                    unsafe {
                        x86::exact_min_sq_run_avx2(&qs, dim, cols, n, first, &mut mins)
                    }
                } else {
                    exact_min_sq_run_portable(&qs, dim, cols, n, first, &mut mins);
                }
                for (i, m) in mins.iter().enumerate() {
                    let c = row(first + i);
                    let fold = qs
                        .chunks_exact(dim)
                        .map(|b| EuclideanSpace::row_dist_sq(c, b))
                        .fold(f64::INFINITY, f64::min);
                    let what = format!("avx2={avx2} d={dim} q={q} first={first} i={i}");
                    assert_eq!(m.to_bits(), fold.to_bits(), "{what}");
                    assert_eq!(
                        m.sqrt().to_bits(),
                        EuclideanSpace::row_dist_to_rows(c, qs.chunks_exact(dim)).to_bits(),
                        "{what}"
                    );
                }
            }
        });
    }

    #[test]
    fn empty_and_unit_dots() {
        let mut out = [1.0f32];
        dots_f32_indexed(&[], &[], 0, &[0], &mut out);
        assert_eq!(out, [0.0]);
        dots_f32_indexed(&[2.0], &[3.5], 1, &[0], &mut out);
        assert_eq!(out, [7.0]);
    }
}
