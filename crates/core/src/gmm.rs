//! Algorithm 1 — GMM, the Gonzalez greedy (1985).
//!
//! GMM repeatedly picks the point furthest from those already chosen. It is
//! a sequential 2-approximation for **both** k-center (Gonzalez) and
//! k-diversity (Ravi et al.), and its output satisfies the *anti-cover*
//! properties (§2.2):
//!
//! * every selected point is at distance ≥ r from the other selected
//!   points, and
//! * every input point is at distance ≤ r from the selection,
//!
//! where `r = div(T)` is the minimum pairwise distance of the output `T`.
//! The paper uses GMM twice: machine-locally to build coresets, and as the
//! final sequential step on the coreset union.

use mpc_metric::MetricSpace;

/// Output of [`gmm`].
#[derive(Debug, Clone, PartialEq)]
pub struct GmmOutput {
    /// The selected points, in selection order (first is the seed).
    pub selected: Vec<u32>,
    /// `radii[i]` is the distance of the `i`-th selected point from the
    /// previously selected set (`radii[0] = f64::INFINITY` by convention).
    /// The sequence is non-increasing from index 1 on.
    pub radii: Vec<f64>,
    pub(crate) next_radius: f64,
}

impl GmmOutput {
    /// `div(T)` — the minimum pairwise distance of the selection, which for
    /// GMM equals the last selection radius.
    ///
    /// `f64::INFINITY` when fewer than two points were selected.
    pub fn diversity(&self) -> f64 {
        if self.selected.len() < 2 {
            f64::INFINITY
        } else {
            *self.radii.last().expect("non-empty radii")
        }
    }

    /// `r(S, T)` for the input subset `S` this selection was computed from:
    /// the distance of the furthest unselected point. Available as the
    /// would-be next radius; `0` when the selection exhausted the input.
    pub fn covering_radius(&self) -> f64 {
        self.next_radius
    }
}

/// Runs GMM on the points `subset` of `metric`, selecting `min(k,
/// |subset|)` points. Deterministic: seeds with the first element of
/// `subset` and breaks distance ties by scan order.
///
/// O(|subset| · k) distance evaluations.
///
/// ```
/// use mpc_core::gmm::gmm;
/// use mpc_metric::{EuclideanSpace, PointSet};
///
/// // Points at x = 0, 1, 9 — GMM picks the two extremes for k = 2.
/// let space = EuclideanSpace::new(PointSet::from_rows(&[
///     vec![0.0], vec![1.0], vec![9.0],
/// ]));
/// let out = gmm(&space, &[0, 1, 2], 2);
/// assert_eq!(out.selected, vec![0, 2]);
/// assert_eq!(out.diversity(), 9.0);
/// ```
pub fn gmm<M: MetricSpace + ?Sized>(metric: &M, subset: &[u32], k: usize) -> GmmOutput {
    // Scratch for the bulk distance fills: one |subset|-long vector reused
    // across picks.
    let mut dists = Vec::with_capacity(subset.len());
    let mut out = gmm_by(subset.len(), k, |next, slots| {
        // One bulk kernel computes d(v, ·) against the whole subset
        // (`dists_into` is bit-identical to the per-pair `dist` loop, and
        // metric symmetry holds bitwise for every implementation here).
        metric.dists_into(subset[next].into(), subset, &mut dists);
        relax(&dists, slots)
    });
    for v in &mut out.selected {
        *v = subset[*v as usize];
    }
    out
}

/// The one GMM driver, over positions `0..len`: seeds with position 0,
/// then repeatedly picks the furthest position from the selection.
/// `relax(next, slots)` must lower every `slots[i]` to `min(slots[i],
/// d(next, i))` and return `(max, i)` over the relaxed slots, ties to the
/// lower `i`. A chosen position's slot is `−∞`, which no relaxation raises
/// and no argmax picks, so coincident points are never re-picked. The
/// output's `selected` holds positions.
pub(crate) fn gmm_by(
    len: usize,
    k: usize,
    mut relax: impl FnMut(usize, &mut [f64]) -> (f64, usize),
) -> GmmOutput {
    if len == 0 || k == 0 {
        return GmmOutput {
            selected: Vec::new(),
            radii: Vec::new(),
            next_radius: 0.0,
        };
    }
    let mut selected = Vec::with_capacity(k.min(len));
    let mut radii = Vec::with_capacity(k.min(len));
    // slots[i] = d(i, selected), −∞ once i is selected.
    let mut slots = vec![f64::INFINITY; len];
    let mut next = 0usize; // the position to add
    let mut next_radius = f64::INFINITY;
    while selected.len() < k {
        selected.push(next as u32);
        radii.push(next_radius);
        slots[next] = f64::NEG_INFINITY;
        if selected.len() == len {
            next_radius = 0.0;
            break;
        }
        (next_radius, next) = relax(next, &mut slots);
    }
    GmmOutput {
        selected,
        radii,
        next_radius,
    }
}

/// [`gmm_by`]'s relaxation from precomputed distances: `slots[i] =
/// min(dists[i], slots[i])`, then the furthest slot, ties to the lower
/// index. Large inputs run it across the worker pool when there is more
/// than one thread; the reduction selects the lexicographic max of
/// (distance, lower index), a total order, so any associative combine of
/// the fixed chunk partials matches the sequential scan exactly
/// (determinism at every thread count).
fn relax(dists: &[f64], slots: &mut [f64]) -> (f64, usize) {
    if mpc_metric::space::par_bulk(dists.len()) {
        use rayon::prelude::*;
        dists
            .par_iter()
            .zip(slots.par_iter_mut())
            .enumerate()
            .map(|(i, (&dv, slot))| {
                *slot = dv.min(*slot);
                (*slot, i)
            })
            .reduce(
                || (f64::NEG_INFINITY, usize::MAX),
                |a, b| {
                    if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                        b
                    } else {
                        a
                    }
                },
            )
    } else {
        let mut best = (f64::NEG_INFINITY, usize::MAX);
        for (i, (&dv, slot)) in dists.iter().zip(slots).enumerate() {
            *slot = dv.min(*slot);
            if *slot > best.0 {
                best = (*slot, i);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_metric::{
        datasets, dist_point_to_set, min_pairwise_distance, EuclideanSpace, PointId, PointSet,
    };

    fn line(xs: &[f64]) -> EuclideanSpace {
        EuclideanSpace::new(PointSet::from_rows(
            &xs.iter().map(|&x| vec![x]).collect::<Vec<_>>(),
        ))
    }

    fn as_ids(v: &[u32]) -> Vec<PointId> {
        v.iter().map(|&x| PointId(x)).collect()
    }

    #[test]
    fn picks_extremes_on_a_line() {
        // Points 0, 1, 2, 10: seed at 0, then furthest is 10, then 2 (wait:
        // distances to {0, 10}: 1 -> 1, 2 -> 2; picks x=2).
        let m = line(&[0.0, 1.0, 2.0, 10.0]);
        let out = gmm(&m, &[0, 1, 2, 3], 3);
        assert_eq!(out.selected, vec![0, 3, 2]);
        assert_eq!(out.radii[1], 10.0);
        assert_eq!(out.radii[2], 2.0);
        assert_eq!(out.diversity(), 2.0);
    }

    #[test]
    fn diversity_equals_min_pairwise_distance() {
        let m = EuclideanSpace::new(datasets::uniform_cube(200, 3, 5));
        let subset: Vec<u32> = (0..200).collect();
        for k in [2, 5, 17] {
            let out = gmm(&m, &subset, k);
            let ids = as_ids(&out.selected);
            let true_div = min_pairwise_distance(&m, &ids);
            assert!(
                (out.diversity() - true_div).abs() < 1e-9,
                "k={k}: reported {} vs true {}",
                out.diversity(),
                true_div
            );
        }
    }

    #[test]
    fn anti_cover_properties_hold() {
        let m = EuclideanSpace::new(datasets::gaussian_clusters(150, 2, 6, 0.05, 9));
        let subset: Vec<u32> = (0..150).collect();
        let out = gmm(&m, &subset, 8);
        let r = out.diversity();
        let ids = as_ids(&out.selected);
        // (1) every selected point is >= r from the rest of the selection
        for (i, &p) in ids.iter().enumerate() {
            let others: Vec<PointId> = ids
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &q)| q)
                .collect();
            assert!(dist_point_to_set(&m, p, &others) >= r - 1e-12);
        }
        // (2) every input point is <= r from the selection
        for p in 0..150u32 {
            assert!(dist_point_to_set(&m, PointId(p), &ids) <= r + 1e-12);
        }
        // covering radius is the max over (2), and it is <= r.
        let max_d = (0..150u32)
            .map(|p| dist_point_to_set(&m, PointId(p), &ids))
            .fold(0.0f64, f64::max);
        assert!((out.covering_radius() - max_d).abs() < 1e-12);
    }

    #[test]
    fn selection_radii_non_increasing() {
        let m = EuclideanSpace::new(datasets::uniform_cube(100, 2, 3));
        let subset: Vec<u32> = (0..100).collect();
        let out = gmm(&m, &subset, 20);
        for w in out.radii[1..].windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "radii must be non-increasing: {w:?}");
        }
    }

    #[test]
    fn k_larger_than_input_returns_everything() {
        let m = line(&[0.0, 5.0, 9.0]);
        let out = gmm(&m, &[0, 1, 2], 10);
        assert_eq!(out.selected.len(), 3);
        assert_eq!(out.covering_radius(), 0.0);
    }

    #[test]
    fn empty_and_zero_k() {
        let m = line(&[0.0]);
        assert!(gmm(&m, &[], 3).selected.is_empty());
        assert!(gmm(&m, &[0], 0).selected.is_empty());
    }

    #[test]
    fn single_point() {
        let m = line(&[0.0, 1.0]);
        let out = gmm(&m, &[1], 1);
        assert_eq!(out.selected, vec![1]);
        assert_eq!(out.diversity(), f64::INFINITY);
    }

    #[test]
    fn works_on_arbitrary_subsets() {
        let m = line(&[0.0, 1.0, 2.0, 3.0, 100.0]);
        // Only odd-indexed points participate.
        let out = gmm(&m, &[1, 3], 2);
        assert_eq!(out.selected, vec![1, 3]);
        assert_eq!(out.diversity(), 2.0);
    }

    #[test]
    fn lemma_16_covering_radius_bounded_by_next_diversity() {
        // Lemma 16: if T = GMM(S) with |T| = k, then r(S, T) <= div_{k+1}(S).
        // div_{k+1} is exactly the next selection radius' upper bound; test
        // against the brute-force optimum on small instances.
        let metric = EuclideanSpace::new(datasets::uniform_cube(16, 2, 13));
        let subset: Vec<u32> = (0..16).collect();
        for k in [2usize, 3, 4] {
            let out = gmm(&metric, &subset, k);
            // Brute-force div_{k+1}(S).
            let mut best = 0.0f64;
            let ids: Vec<PointId> = subset.iter().map(|&v| PointId(v)).collect();
            fn rec(
                metric: &EuclideanSpace,
                ids: &[PointId],
                chosen: &mut Vec<PointId>,
                start: usize,
                k1: usize,
                best: &mut f64,
            ) {
                if chosen.len() == k1 {
                    *best = best.max(min_pairwise_distance(metric, chosen));
                    return;
                }
                for i in start..ids.len() {
                    chosen.push(ids[i]);
                    rec(metric, ids, chosen, i + 1, k1, best);
                    chosen.pop();
                }
            }
            rec(&metric, &ids, &mut Vec::new(), 0, k + 1, &mut best);
            assert!(
                out.covering_radius() <= best + 1e-9,
                "k={k}: r(S, T) = {} > div_(k+1)(S) = {best}",
                out.covering_radius()
            );
        }
    }

    #[test]
    fn duplicate_points_give_zero_diversity() {
        let m = line(&[1.0, 1.0, 1.0]);
        let out = gmm(&m, &[0, 1, 2], 3);
        assert_eq!(out.selected.len(), 3);
        assert_eq!(out.diversity(), 0.0);
    }
}
