//! What every distributed entry point shares — Algorithms 2, 5 and 6,
//! the §3 4-approximation, the §7 dominating set and the cluster
//! assignment: the run prologue and epilogue (`Run`), and the machines'
//! shares of the input (`Shards`) with their coreset, covering-radius
//! and nearest-point steps.

use std::borrow::Cow;
use std::sync::OnceLock;
use std::time::Instant;

use mpc_metric::{dist_point_to_set, simd, KernelStats, MetricSpace, PointId, PointSet};
use mpc_sim::Cluster;

use crate::gmm::{gmm, gmm_by};
use crate::params::Params;
use crate::telemetry::{PhaseTimes, Telemetry};

/// Converts raw vertex ids to [`PointId`]s.
pub fn to_point_ids(ids: &[u32]) -> Vec<PointId> {
    ids.iter().map(|&v| PointId(v)).collect()
}

/// One input family a run distributes over the machines.
pub(crate) enum Input<'a> {
    /// Every point of the metric, split under `params.seed` and shipped
    /// as `setup/shards` (every entry point but Algorithm 6).
    Points,
    /// `Ids(label, ids, salt)`: a subset of the points, split under
    /// `params.seed ^ salt` and shipped as `label` (Algorithm 6's
    /// customers and suppliers).
    Ids(&'static str, &'a [u32], u64),
}

impl Input<'_> {
    /// The family's label and per-machine id lists: `params.partition`
    /// over the family's positions, mapped back to its ids.
    fn split(&self, n: usize, params: &Params) -> (&'static str, Vec<Vec<u32>>) {
        let (label, ids, salt) = match *self {
            Input::Points => ("setup/shards", None, 0),
            Input::Ids(label, ids, salt) => (label, Some(ids), salt),
        };
        let len = ids.map_or(n, <[u32]>::len);
        let part = params.partition.build(len, params.m, params.seed ^ salt);
        let mut sets = part.all_items().to_vec();
        if let Some(ids) = ids {
            sets.iter_mut()
                .flatten()
                .for_each(|p| *p = ids[*p as usize]);
        }
        (label, sets)
    }
}

/// What every distributed entry point does around its own steps:
/// [`Run::start`] is the one prologue, [`Run::finish`] the one epilogue,
/// and the marks in between time the coarse, ladder and finalize phases.
/// No entry point builds a partition or applies `params` by itself.
pub(crate) struct Run<'m, M: MetricSpace + ?Sized> {
    metric: &'m M,
    kernels_at_entry: Option<KernelStats>,
    phases: PhaseTimes,
    /// When the current phase began.
    mark: Instant,
    /// The ladder search's evals and probes, once it ran.
    ladder: Option<(u32, u32)>,
}

impl<'m, M: MetricSpace + ?Sized> Run<'m, M> {
    /// The prologue: validates `params` against `cluster`, applies
    /// `params.budget_words`, snapshots the metric's kernel tallies,
    /// splits each input family over the machines, notes every machine's
    /// input memory, and ships each family's shards through the
    /// transport's setup plane (encoded, copied and decode-validated on
    /// loopback; never charged to the ledger, so round and word counts are
    /// the same on every transport).
    /// Returns the families' [`Shards`], in order.
    pub(crate) fn start<const N: usize>(
        cluster: &mut Cluster,
        metric: &'m M,
        params: &Params,
        inputs: [Input<'_>; N],
    ) -> (Self, [Shards<'m, M>; N]) {
        params.validate();
        assert_eq!(cluster.m(), params.m, "cluster size must match params.m");
        if let Some(budget) = params.budget_words {
            cluster.set_budget(budget);
        }
        let kernels_at_entry = metric.kernel_stats();
        let families = inputs.map(|input| input.split(metric.n(), params));
        let w = metric.point_weight();
        let input_words: Vec<u64> = (0..params.m)
            .map(|i| {
                w * families
                    .iter()
                    .map(|(_, sets)| sets[i].len() as u64)
                    .sum::<u64>()
            })
            .collect();
        cluster.note_memory_all(&input_words);
        for (label, sets) in &families {
            cluster.ship_shards(label, sets, w);
        }
        let run = Self {
            metric,
            kernels_at_entry,
            phases: PhaseTimes::default(),
            mark: Instant::now(),
            ladder: None,
        };
        let shards = families.map(|(_, sets)| Shards::new(metric, Cow::Owned(sets)));
        (run, shards)
    }

    /// Ends the coarse phase.
    pub(crate) fn coarse_done(&mut self) {
        self.phases.coarse_s = self.lap();
    }

    /// Ends the ladder phase of a search that evaluated `evals` rungs in
    /// `probes` accept probes.
    pub(crate) fn ladder_done(&mut self, evals: u32, probes: u32) {
        self.phases.ladder_s = self.lap();
        self.ladder = Some((evals, probes));
    }

    /// Seconds since the last mark, moving the mark to now.
    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let secs = (now - self.mark).as_secs_f64();
        self.mark = now;
        secs
    }

    /// The epilogue, on every return path: the ledger summary, the phase
    /// times (the finalize phase ends here when a ladder ran), the
    /// ladder's evals and probes, this run's kernel tallies plus the
    /// engine's own `extra` ones, and the wire summary.
    pub(crate) fn finish(mut self, cluster: &Cluster, extra: Option<&KernelStats>) -> Telemetry {
        let mut telemetry = Telemetry::from_ledger(cluster.ledger());
        if let Some((evals, probes)) = self.ladder {
            self.phases.finalize_s = self.lap();
            telemetry.ladder_evals = evals as u64;
            telemetry.ladder_probes = probes as u64;
        }
        telemetry.phases = self.phases;
        let start = self.kernels_at_entry.unwrap_or_default();
        let mut kernels = self.metric.kernel_stats().map(|now| now.since(&start));
        if let Some(extra) = extra {
            kernels
                .get_or_insert_with(KernelStats::default)
                .merge(extra);
        }
        telemetry.kernels = kernels;
        telemetry.wire = cluster.wire_summary();
        telemetry
    }
}

/// Every machine's share of one input family, as the MPC model has it:
/// machine `i` holds the ids `sets()[i]` and, when the metric is
/// Euclidean, their rows in storage of its own ([`Slab`]), gathered on
/// the first slab read. The machine-local steps of Algorithms 2, 5 and 6
/// — the coreset GMM and the covering-radius scan — run on those rows
/// with the exact f64 run kernels of [`mpc_metric::simd`], which are
/// bit-identical to the by-id [`MetricSpace::dists_into`] and
/// [`MetricSpace::dist_to_set`] folds; any other metric, and every other
/// step, reads by id. The rows are the machine's input, which
/// `setup/shards` already charged, so gathering them adds nothing to the
/// ledger.
pub(crate) struct Shards<'a, M: ?Sized> {
    metric: &'a M,
    sets: Cow<'a, [Vec<u32>]>,
    /// Every machine's rows, dimension-major, once a step read them.
    cols: OnceLock<Vec<Vec<f64>>>,
}

impl<'a, M: MetricSpace + ?Sized> Shards<'a, M> {
    /// The machines' shares `sets`, one id list per machine. Gathers no
    /// rows.
    pub(crate) fn new(metric: &'a M, sets: Cow<'a, [Vec<u32>]>) -> Self {
        Self {
            metric,
            sets,
            cols: OnceLock::new(),
        }
    }

    /// The metric the shards were drawn from.
    pub(crate) fn metric(&self) -> &'a M {
        self.metric
    }

    /// Every machine's ids.
    pub(crate) fn sets(&self) -> &[Vec<u32>] {
        &self.sets
    }

    /// Every machine's slab when [`MetricSpace::euclidean`] answers,
    /// gathering the rows across the worker pool on the first call. Steps
    /// call this on the calling thread **before** their own `cluster.map`
    /// fan-out, so the gather runs once and never inside a worker.
    pub(crate) fn slabs(&self, cluster: &Cluster) -> Option<Vec<Slab<'_>>> {
        let space = self.metric.euclidean()?;
        let cols = self
            .cols
            .get_or_init(|| cluster.map(&self.sets, |_, ids| space.points().gather_cols(ids)));
        let dim = space.points().dim();
        Some(
            self.sets
                .iter()
                .zip(cols)
                .map(|(members, cols)| Slab { members, dim, cols })
                .collect(),
        )
    }

    /// Lines 1–2 of Algorithms 2/5/6: every machine runs GMM on its local
    /// points and ships the size-≤k coreset `T_i` to the central machine,
    /// which runs GMM on the union. Returns `(q, coresets)` with `q =
    /// GMM(∪ T_i, k)`. One MPC round (the gather).
    pub(crate) fn coreset(&self, cluster: &mut Cluster, k: usize) -> (Vec<u32>, Vec<Vec<u32>>) {
        let slabs = self.slabs(cluster);
        let coresets: Vec<Vec<u32>> = cluster.map(self.sets(), |i, ids| match &slabs {
            Some(slabs) => slabs[i].gmm(k),
            None => gmm(self.metric, ids, k).selected,
        });
        let union = cluster.gather(
            "coreset/gather",
            coresets.clone(),
            self.metric.point_weight(),
        );
        let q = gmm(self.metric, &union, k).selected;
        (q, coresets)
    }

    /// `r(X, Q) = max_{x ∈ X} d(x, Q)` over the machines' points `X`.
    /// Two rounds: broadcast `Q`, reduce the local maxima. Returns 0 when
    /// `X` is empty, and `f64::INFINITY` when `Q` is empty while `X` is
    /// not (each `d(x, ∅) = ∞`, per the [`dist_point_to_set`] empty-set
    /// contract).
    pub(crate) fn covering_radius(&self, cluster: &mut Cluster, q: &[u32]) -> f64 {
        let q = cluster.broadcast("radius/bcast", q.to_vec(), self.metric.point_weight());
        let slabs = self.slabs(cluster);
        // The broadcast centers' rows, one `|q| × d` block every machine
        // scans its slab against.
        let centers = slabs
            .as_ref()
            .and(self.metric.euclidean())
            .map(|space| space.points().gather(&q));
        let q_ids = to_point_ids(&q);
        let local_max: Vec<f64> = cluster.map(self.sets(), |i, ids| match (&slabs, &centers) {
            (Some(slabs), Some(centers)) => slabs[i].covering_radius(centers),
            _ => ids
                .iter()
                .map(|&v| dist_point_to_set(self.metric, PointId(v), &q_ids))
                .fold(0.0f64, f64::max),
        });
        cluster.reduce("radius/reduce", local_max, 1, f64::max)
    }

    /// For each point of `q`, its nearest point among the machines' points
    /// (id and distance), by id in the `(distance.total_cmp, id)` order,
    /// so a NaN distance is a candidate too. Two rounds: broadcast `q`,
    /// gather the per-machine candidates. Panics if every machine is empty
    /// while `q` is not.
    pub(crate) fn nearest(&self, cluster: &mut Cluster, q: &[u32]) -> Vec<(u32, f64)> {
        let metric = self.metric;
        let q = cluster.broadcast("nearest/bcast", q.to_vec(), metric.point_weight());
        // candidates[machine][idx in q] = (best id, best dist) on that machine
        let candidates: Vec<Vec<(u32, f64)>> = cluster.map(self.sets(), |_, si| {
            q.iter()
                .map(|&target| {
                    si.iter()
                        .map(|&s| (s, metric.dist(PointId(target), PointId(s))))
                        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                        .unwrap_or((u32::MAX, f64::INFINITY))
                })
                .collect()
        });
        let all = cluster.gather("nearest/gather", candidates, 2);
        // Fold the m candidate rows (gathered in machine order) per q
        // index, in the machines' own order; `u32::MAX` marks a machine
        // with no points.
        let mut best = vec![(u32::MAX, f64::INFINITY); q.len()];
        for (flat_idx, cand) in all.into_iter().enumerate() {
            let b = &mut best[flat_idx % q.len().max(1)];
            if cand.0 != u32::MAX
                && (b.0 == u32::MAX || cand.1.total_cmp(&b.1).then(cand.0.cmp(&b.0)).is_lt())
            {
                *b = cand;
            }
        }
        assert!(
            q.is_empty() || best.iter().all(|&(id, _)| id != u32::MAX),
            "no candidate found: the distributed set is empty"
        );
        best
    }
}

/// One machine's rows in storage of its own: local row `j` is global
/// point `members[j]`. Under a round-robin partition a machine's points
/// are spread through the whole global array; the slab makes every pass
/// over them one contiguous scan.
///
/// The rows are stored dimension-major (`cols[a * len + j]` is row `j`'s
/// coordinate on axis `a`), the layout of the exact run kernels in
/// [`mpc_metric::simd`]: four rows per vector step, one column load per
/// coordinate. Those kernels are bit-identical to
/// [`mpc_metric::EuclideanSpace::row_dist`], so every step returns what a
/// by-id scan of the same points would.
#[derive(Clone, Copy)]
pub(crate) struct Slab<'s> {
    /// The machine's global ids.
    pub(crate) members: &'s [u32],
    pub(crate) dim: usize,
    pub(crate) cols: &'s [f64],
}

impl Slab<'_> {
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Copies local row `j` out of the slab into `row`.
    pub(crate) fn read_row(&self, j: usize, row: &mut [f64]) {
        for (a, x) in row.iter_mut().enumerate() {
            *x = self.cols[a * self.len() + j];
        }
    }

    /// `GMM(members, k)` run on the slab and mapped back to global ids:
    /// the one [`gmm_by`] driver, each pick one fused distance, relax and
    /// argmax pass of [`simd::exact_relax_run`]. GMM seeds with the first
    /// member and breaks ties by member order, and the slab keeps that
    /// order, so the selection equals `gmm(space, members, k)`.
    fn gmm(&self, k: usize) -> Vec<u32> {
        let mut q = vec![0.0; self.dim];
        gmm_by(self.len(), k, |next, slots| {
            self.read_row(next, &mut q);
            simd::exact_relax_run(&q, self.cols, self.len(), 0, slots)
        })
        .selected
        .into_iter()
        .map(|j| self.members[j as usize])
        .collect()
    }

    /// `max_{x ∈ slab} d(x, Q)` for `Q` given as gathered center rows.
    /// [`simd::exact_min_sq_run`] folds each point's minimum squared
    /// distance to `Q`, bit for bit the squares behind
    /// [`mpc_metric::EuclideanSpace::row_dist_to_rows`]. `sqrt` is
    /// monotone, so the largest `sqrt(min)` of the by-id fold is the `sqrt`
    /// of the largest minimum: one root per slab.
    fn covering_radius(&self, centers: &PointSet) -> f64 {
        let mut mins = vec![f64::INFINITY; self.len()];
        simd::exact_min_sq_run(centers.raw(), self.dim, self.cols, self.len(), 0, &mut mins);
        mins.into_iter().fold(0.0f64, f64::max).sqrt()
    }
}

/// Lines 1–2 of Algorithms 2/5/6 over the machines' `local_sets`, on
/// machine slabs when the metric is Euclidean (the drivers' own
/// `Shards::coreset`). Returns `(q, coresets)` where `q = GMM(∪ T_i, k)`.
/// One MPC round (the gather).
pub fn gmm_coreset<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    metric: &M,
    local_sets: &[Vec<u32>],
    k: usize,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    Shards::new(metric, Cow::Borrowed(local_sets)).coreset(cluster, k)
}

/// `r(X, Q) = max_{x ∈ X} d(x, Q)` where `X` is distributed as
/// `local_sets`, on machine slabs when the metric is Euclidean (the
/// drivers' own `Shards::covering_radius`). Two rounds: broadcast `Q`,
/// reduce the local maxima. Returns 0 when `X` is empty, and
/// `f64::INFINITY` when `Q` is empty while `X` is not (each `d(x, ∅) =
/// ∞`, per the [`dist_point_to_set`] empty-set contract) — callers that
/// can produce an empty `Q`, like a serving index queried before its
/// first insert, must branch on `X` first.
pub fn covering_radius<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    metric: &M,
    local_sets: &[Vec<u32>],
    q: &[u32],
) -> f64 {
    Shards::new(metric, Cow::Borrowed(local_sets)).covering_radius(cluster, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_metric::{datasets, EuclideanSpace, PointSet};
    use mpc_sim::Partition;

    fn line(xs: &[f64]) -> EuclideanSpace {
        EuclideanSpace::new(PointSet::from_rows(
            &xs.iter().map(|&x| vec![x]).collect::<Vec<_>>(),
        ))
    }

    #[test]
    fn coreset_q_has_k_points() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(120, 2, 3));
        let mut cluster = Cluster::new(4, 1);
        let parts = Partition::round_robin(120, 4).all_items().to_vec();
        let (q, coresets) = gmm_coreset(&mut cluster, &metric, &parts, 6);
        assert_eq!(q.len(), 6);
        assert_eq!(coresets.len(), 4);
        assert!(coresets.iter().all(|c| c.len() == 6));
        assert_eq!(cluster.rounds(), 1);
    }

    #[test]
    fn coreset_handles_tiny_machines() {
        let metric = line(&[0.0, 1.0, 2.0]);
        let mut cluster = Cluster::new(2, 1);
        let (q, _) = gmm_coreset(&mut cluster, &metric, &[vec![0], vec![1, 2]], 5);
        assert_eq!(q.len(), 3, "k > n returns everything");
    }

    #[test]
    fn covering_radius_matches_direct_computation() {
        let metric = line(&[0.0, 1.0, 5.0, 9.0]);
        let mut cluster = Cluster::new(2, 1);
        let local = vec![vec![0, 1], vec![2, 3]];
        // Q = {1}: furthest is 9 at distance 8.
        let r = covering_radius(&mut cluster, &metric, &local, &[1]);
        assert_eq!(r, 8.0);
        assert_eq!(cluster.rounds(), 2);
    }

    #[test]
    fn covering_radius_of_empty_x_is_zero() {
        let metric = line(&[0.0]);
        let mut cluster = Cluster::new(2, 1);
        assert_eq!(
            covering_radius(&mut cluster, &metric, &[vec![], vec![]], &[0]),
            0.0
        );
    }

    /// The empty-`Q` side of the contract (ISSUE 7 satellite): an empty
    /// center set covers nothing, so the radius over any non-empty `X`
    /// is `∞` — a *defined* value callers can branch on, never a panic.
    /// Both-empty stays the empty-`X` case (0).
    #[test]
    fn covering_radius_of_empty_center_set_is_infinite() {
        let metric = line(&[0.0, 1.0, 2.0]);
        let mut cluster = Cluster::new(2, 1);
        assert_eq!(
            covering_radius(&mut cluster, &metric, &[vec![0, 1], vec![2]], &[]),
            f64::INFINITY
        );
        assert_eq!(
            covering_radius(&mut cluster, &metric, &[vec![], vec![]], &[]),
            0.0
        );
    }

    #[test]
    fn nearest_finds_global_minimum_across_machines() {
        let metric = line(&[0.0, 10.0, 4.9, 5.1, 20.0]);
        let mut cluster = Cluster::new(2, 1);
        // Suppliers 2 (x=4.9) on machine 0, suppliers 3, 4 on machine 1.
        let local = vec![vec![2], vec![3, 4]];
        // Query points 0 (x=0) and 1 (x=10).
        let shards = Shards::new(&metric, Cow::Borrowed(&local));
        let best = shards.nearest(&mut cluster, &[0, 1]);
        assert_eq!(best[0].0, 2); // x=4.9 closest to 0
        assert!((best[0].1 - 4.9).abs() < 1e-12);
        assert_eq!(best[1].0, 3); // x=5.1 closest to 10
        assert!((best[1].1 - 4.9).abs() < 1e-12);
    }

    /// A fresh `Shards` holds no rows, and `sets` and `nearest` read none:
    /// only the first coreset, covering radius or grid rung gathers them.
    #[test]
    fn rows_are_gathered_on_the_first_slab_read() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(60, 3, 2));
        let local = Partition::round_robin(60, 3).all_items().to_vec();
        let fresh = || Shards::new(&metric, Cow::Borrowed(&local));
        let gathered = |shards: &Shards<'_, EuclideanSpace>| shards.cols.get().is_some();
        let mut cluster = Cluster::new(3, 1);

        let shards = fresh();
        assert_eq!(shards.sets().len(), 3);
        shards.nearest(&mut cluster, &[0, 7]);
        assert!(!gathered(&shards), "by-id steps read no rows");
        shards.coreset(&mut cluster, 4);
        assert!(gathered(&shards), "the coreset reads the rows");

        let shards = fresh();
        shards.covering_radius(&mut cluster, &[0]);
        assert!(gathered(&shards), "the covering radius reads the rows");

        let shards = fresh();
        let mut stats = KernelStats::default();
        crate::grid::grid_rung(&mut cluster, &shards, 0.3, 5, &mut stats);
        assert!(gathered(&shards), "a grid rung reads the rows");
    }
}
