//! The shared τ-ladder: one boundary search and one Algorithm 2/5 rung.
//!
//! Algorithms 2 (diversity), 5 (k-center) and 6 (k-supplier) all reduce to
//! the same one-dimensional search: a geometric threshold ladder
//! `τ_0, …, τ_t`, a monotone accept predicate over rungs (monotone because
//! every underlying `within(τ)` answer is), and a boundary rung to locate
//! with a binary or a linear probe schedule ([`BoundarySearch`]).
//! [`LadderSearch`] is that search, with its rung cache, probe counts and
//! pre-warm hook ([`RungEval::prewarm`]).
//!
//! Algorithms 2 and 5 also share the rung: [`MisLadder`], a bounded MIS of
//! `G_{τ_i}` above a seeded coarse GMM solution. Its [`Objective`] fixes
//! the ladder direction, the MIS bound and the accept test; its `mis`
//! closure is the rung kernel (Algorithm 4 by id, or the τ-grid of
//! [`crate::grid`]). [`mis_ladder`] runs that whole search for the batch
//! drivers and the serving snapshots. Algorithm 6's rungs also carry a
//! supplier assignment and search upward from a seeded top rung, so
//! [`crate::ksupplier`] keeps a rung type of its own.
//!
//! Rungs run straight on the metric's threshold kernels: each rung's MIS
//! draws fresh degree samples (the cluster RNG is keyed by round), so a
//! distance memo would almost never hit (see [`crate::memo`]).
//!
//! For a given mode, strategy and accept sequence, the schedules evaluate
//! the same rungs in the same order, so the MPC collective sequence — and
//! with it the [`mpc_sim::Ledger`] — depends on the accept sequence alone
//! (pinned by the neutrality suite).

use mpc_sim::Cluster;

use crate::params::{BoundarySearch, Params};

/// Which side of the monotone accept frontier the search returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryMode {
    /// Accepts form a prefix `0..=b`; return the last accepted rung `b`.
    /// Used by the descending k-center ladder (`|M_i| ≤ k` holds for small
    /// `i`) and the ascending diversity ladder (`|M_i| = k` holds for
    /// small `i`).
    ///
    /// The binary schedule probes the top rung first; theory guarantees
    /// rejection there (e.g. `|M_t| = k + 1` for k-center), but if the
    /// probe *does* accept, the search returns `t` immediately — the
    /// "theoretically impossible" fallback, pinned by the tests below.
    LastAccept,
    /// Rejects form a prefix; return the first accepted rung. Used by the
    /// k-supplier ladder (coverage holds from the boundary up). The top
    /// rung is the seeded always-accept backstop and is **never probed**
    /// by either schedule — a `FirstAccept` search can return `t` with
    /// `t`'s rung never evaluated, and callers that need `t`'s payload
    /// must backfill it (see `ksupplier.rs`).
    FirstAccept,
}

/// One algorithm's view of its ladder: how to evaluate a rung (the only
/// part that talks to the [`Cluster`]) and how to judge it.
pub trait RungEval {
    /// Whatever the algorithm caches per rung (the rung's MIS, an
    /// assignment, …).
    type Rung;

    /// Runs the rung's MPC computation. Called at most once per rung;
    /// [`LadderSearch`] caches the result.
    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Self::Rung;

    /// Judges a (cached) rung. Must be pure: the driver may consult it in
    /// any probe order, and seeded rungs are judged without `eval` having
    /// run.
    fn accept(&self, i: usize, rung: &Self::Rung) -> bool;

    /// Called once, before the first probe, with every rung index the
    /// schedule could still evaluate (at least two, else the hook is
    /// skipped). Purely a local-compute hint; must not touch the cluster.
    ///
    /// No library ladder implements it: every library rung runs on the
    /// metric's own threshold kernels.
    /// The one implementor left is the end-to-end benchmark's trace
    /// recomposition, which registers its rung thresholds with
    /// [`crate::memo::MemoizedSpace::prewarm_taus`] on a memoized space.
    fn prewarm(&mut self, _reachable: &[usize]) {}
}

/// The rung cache plus probe bookkeeping for one ladder search.
///
/// Indices run `0..=t` where `t` is the ladder length passed to
/// [`LadderSearch::new`]. Algorithms seed rungs they know a priori
/// (k-center/diversity seed rung 0 with the coreset, k-supplier seeds rung
/// `t` with its backstop) via [`LadderSearch::seed`]; the schedules below
/// never evaluate a seeded rung's index, so seeding never masks an `eval`.
pub struct LadderSearch<R> {
    cache: Vec<Option<R>>,
    evals: u32,
    probes: u32,
}

impl<R> LadderSearch<R> {
    /// A fresh search over rungs `0..=t`.
    pub fn new(t: usize) -> Self {
        Self {
            cache: std::iter::repeat_with(|| None).take(t + 1).collect(),
            evals: 0,
            probes: 0,
        }
    }

    /// The top rung index `t`.
    pub fn top(&self) -> usize {
        self.cache.len() - 1
    }

    /// Pre-fills rung `i` with a result known without evaluation.
    pub fn seed(&mut self, i: usize, rung: R) {
        self.cache[i] = Some(rung);
    }

    /// The cached rung at `i`, if evaluated or seeded.
    pub fn rung(&self, i: usize) -> Option<&R> {
        self.cache[i].as_ref()
    }

    /// Moves the cached rung at `i` out of the search.
    pub fn take(&mut self, i: usize) -> Option<R> {
        self.cache[i].take()
    }

    /// Rungs actually evaluated (MPC work done), excluding seeds.
    pub fn evals(&self) -> u32 {
        self.evals
    }

    /// Accept-predicate consultations, including cache hits.
    pub fn probes(&self) -> u32 {
        self.probes
    }

    fn accept_at<E: RungEval<Rung = R>>(
        &mut self,
        cluster: &mut Cluster,
        eval: &mut E,
        i: usize,
    ) -> bool {
        self.probes += 1;
        if self.cache[i].is_none() {
            self.evals += 1;
            self.cache[i] = Some(eval.eval(cluster, i));
        }
        eval.accept(i, self.cache[i].as_ref().expect("just filled"))
    }

    /// Locates the boundary rung of the monotone accept frontier and
    /// returns its index. The probe orders:
    ///
    /// * `LastAccept` + `Binary`: probe `t` (returning it on the
    ///   impossible accept), then bisect `(lo, hi)` with `lo` accepted /
    ///   `hi` rejected, returning `lo`.
    /// * `LastAccept` + `Linear`: walk `1, 2, …` while accepting; return
    ///   the last accepted rung (0 if rung 1 already rejects).
    /// * `FirstAccept` + `Binary`: lower-bound bisection over `0..t`;
    ///   never probes `t`.
    /// * `FirstAccept` + `Linear`: walk `0, 1, …` while rejecting; never
    ///   probes `t`.
    pub fn search<E: RungEval<Rung = R>>(
        &mut self,
        cluster: &mut Cluster,
        eval: &mut E,
        mode: BoundaryMode,
        strategy: BoundarySearch,
    ) -> usize {
        let t = self.top();
        if t >= 2 {
            let unevaluated: Vec<usize> = (0..=t).filter(|&i| self.cache[i].is_none()).collect();
            eval.prewarm(&unevaluated);
        }
        match (mode, strategy) {
            (BoundaryMode::LastAccept, BoundarySearch::Binary) => {
                if self.accept_at(cluster, eval, t) {
                    // Theoretically impossible; accept the bottom rung.
                    return t;
                }
                let (mut lo, mut hi) = (0usize, t);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if self.accept_at(cluster, eval, mid) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            (BoundaryMode::LastAccept, BoundarySearch::Linear) => {
                let mut j = 0usize;
                while j < t && self.accept_at(cluster, eval, j + 1) {
                    j += 1;
                }
                j
            }
            (BoundaryMode::FirstAccept, BoundarySearch::Binary) => {
                let (mut lo, mut hi) = (0usize, t);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if self.accept_at(cluster, eval, mid) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            }
            (BoundaryMode::FirstAccept, BoundarySearch::Linear) => {
                let mut j = 0usize;
                while j < t && !self.accept_at(cluster, eval, j) {
                    j += 1;
                }
                j
            }
        }
    }
}

/// Which Algorithm 2/5 ladder a [`MisLadder`] climbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Algorithm 5: descending `τ_i = r/(1+ε)^i`, a (k+1)-bounded MIS per
    /// rung, accepted while it has at most `k` points (it is then
    /// maximal, hence a radius-`τ_i` solution).
    KCenter,
    /// Algorithm 2: ascending `τ_i = r(1+ε)^i`, a k-bounded MIS per rung,
    /// accepted while it still finds `k` points (they are then pairwise
    /// more than `τ_i` apart).
    Diversity,
}

/// The Algorithm 2/5 rung for [`LadderSearch`]: rung `i` is
/// `mis(cluster, τ_i, bound)`, judged by the objective's accept test.
/// `r` is the coarse value of the seeded rung 0 (covering radius or
/// diversity), and `mis` returns a (≤ `bound`)-bounded MIS of `G_τ`.
pub struct MisLadder<F> {
    pub objective: Objective,
    pub r: f64,
    pub k: usize,
    pub epsilon: f64,
    pub mis: F,
}

impl<F: FnMut(&mut Cluster, f64, usize) -> Vec<u32>> RungEval for MisLadder<F> {
    type Rung = Vec<u32>;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Vec<u32> {
        let step = (1.0 + self.epsilon).powi(i as i32);
        let (tau, bound) = match self.objective {
            Objective::KCenter => (self.r / step, self.k + 1),
            Objective::Diversity => (self.r * step, self.k),
        };
        (self.mis)(cluster, tau, bound)
    }

    fn accept(&self, _i: usize, rung: &Vec<u32>) -> bool {
        match self.objective {
            Objective::KCenter => rung.len() <= self.k,
            Objective::Diversity => rung.len() == self.k,
        }
    }
}

/// The rung an Algorithm 2/5 ladder search settled on: its index (0 = the
/// seeded coarse solution), its MIS, and the search's
/// [`LadderSearch::evals`] and [`LadderSearch::probes`].
#[derive(Debug, Clone)]
pub struct Boundary {
    pub index: usize,
    pub set: Vec<u32>,
    pub evals: u32,
    pub probes: u32,
}

/// Runs one Algorithm 2/5 ladder: rungs `0..=t` with
/// `t = params.ladder_len(4.0, 1)` (the coarse factor 4 plus one rung, so
/// the top rung rejects), rung 0 seeded with the coarse solution `q` of
/// value `r`, searched `LastAccept` under `params.boundary_search`.
pub fn mis_ladder<F>(
    cluster: &mut Cluster,
    params: &Params,
    objective: Objective,
    q: Vec<u32>,
    r: f64,
    k: usize,
    mis: F,
) -> Boundary
where
    F: FnMut(&mut Cluster, f64, usize) -> Vec<u32>,
{
    let mut rungs = MisLadder {
        objective,
        r,
        k,
        epsilon: params.epsilon,
        mis,
    };
    let mut search = LadderSearch::new(params.ladder_len(4.0, 1));
    search.seed(0, q);
    let index = search.search(
        cluster,
        &mut rungs,
        BoundaryMode::LastAccept,
        params.boundary_search,
    );
    let set = search.take(index).expect("the boundary rung was evaluated");
    debug_assert!(rungs.accept(index, &set));
    Boundary {
        index,
        set,
        evals: search.evals(),
        probes: search.probes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric-free rung evaluator: rung `i`'s payload is `i` itself,
    /// acceptance is a pure function of the index, and every call is
    /// recorded for probe-order assertions.
    struct Stub {
        accept: fn(usize, usize) -> bool,
        boundary: usize,
        evaluated: Vec<usize>,
        prewarmed: Vec<Vec<usize>>,
    }

    impl Stub {
        fn new(accept: fn(usize, usize) -> bool, boundary: usize) -> Self {
            Self {
                accept,
                boundary,
                evaluated: Vec::new(),
                prewarmed: Vec::new(),
            }
        }
    }

    impl RungEval for Stub {
        type Rung = usize;
        fn eval(&mut self, _cluster: &mut Cluster, i: usize) -> usize {
            self.evaluated.push(i);
            i
        }
        fn accept(&self, i: usize, rung: &usize) -> bool {
            assert_eq!(i, *rung, "accept must see rung {i}'s own payload");
            (self.accept)(i, self.boundary)
        }
        fn prewarm(&mut self, reachable: &[usize]) {
            assert!(
                self.evaluated.is_empty(),
                "prewarm must precede the first eval"
            );
            self.prewarmed.push(reachable.to_vec());
        }
    }

    fn cluster() -> Cluster {
        Cluster::new(1, 1)
    }

    /// The "theoretically impossible" fallback: the top rung of a
    /// `LastAccept` binary search accepts, so the search returns `t` after
    /// exactly that one probe. No metric can reach this branch, so it is
    /// pinned here at driver level.
    #[test]
    fn impossible_top_accept_returns_top_after_one_probe() {
        for t in [1usize, 2, 5, 9] {
            let mut stub = Stub::new(|_, _| true, 0);
            let mut search = LadderSearch::new(t);
            let b = search.search(
                &mut cluster(),
                &mut stub,
                BoundaryMode::LastAccept,
                BoundarySearch::Binary,
            );
            assert_eq!(b, t);
            assert_eq!(stub.evaluated, vec![t], "only the top rung evaluates");
            assert_eq!(search.evals(), 1);
            assert_eq!(search.probes(), 1);
            assert!(search.rung(t).is_some());
        }
    }

    /// The all-reject twin on the `FirstAccept` side: every probed rung
    /// rejects, the search settles on `t`, and `t` itself is never
    /// evaluated — the branch behind k-supplier's assignment backfill.
    #[test]
    fn first_accept_settles_on_unevaluated_top() {
        for strategy in [BoundarySearch::Binary, BoundarySearch::Linear] {
            let t = 7;
            let mut stub = Stub::new(|_, _| false, 0);
            let mut search = LadderSearch::new(t);
            search.seed(t, 99); // the backstop payload
            let b = search.search(
                &mut cluster(),
                &mut stub,
                BoundaryMode::FirstAccept,
                strategy,
            );
            assert_eq!(b, t);
            assert!(
                stub.evaluated.iter().all(|&i| i < t),
                "rung t must never be evaluated by a FirstAccept schedule"
            );
            assert_eq!(search.rung(t), Some(&99), "seed untouched");
        }
    }

    /// Binary and linear schedules agree on every boundary of every small
    /// ladder, in both modes — the Linear-vs-Binary validity pin.
    #[test]
    fn linear_matches_binary_on_all_boundaries() {
        for t in 1usize..=9 {
            for boundary in 0..=t {
                for (mode, accept) in [
                    (
                        BoundaryMode::LastAccept,
                        (|i, b| i <= b) as fn(usize, usize) -> bool,
                    ),
                    (BoundaryMode::FirstAccept, |i, b| i >= b),
                ] {
                    // LastAccept's binary schedule would take the
                    // impossible fallback when the top rung accepts;
                    // real ladders guarantee it rejects, so skip that
                    // combination (covered by its own test above).
                    if mode == BoundaryMode::LastAccept && boundary == t {
                        continue;
                    }
                    let mut results = Vec::new();
                    for strategy in [BoundarySearch::Binary, BoundarySearch::Linear] {
                        let mut stub = Stub::new(accept, boundary);
                        let mut search = LadderSearch::new(t);
                        results.push(search.search(&mut cluster(), &mut stub, mode, strategy));
                    }
                    assert_eq!(
                        results[0], results[1],
                        "t={t} boundary={boundary} mode={mode:?}"
                    );
                    assert_eq!(results[0], boundary, "t={t} mode={mode:?}");
                }
            }
        }
    }

    /// Each rung evaluates at most once regardless of how often the
    /// schedule consults it, and seeded rungs never evaluate at all.
    #[test]
    fn rungs_evaluate_at_most_once_and_seeds_never() {
        let t = 8;
        let mut stub = Stub::new(|i, b| i <= b, 5);
        let mut search = LadderSearch::new(t);
        search.seed(0, 0);
        let b = search.search(
            &mut cluster(),
            &mut stub,
            BoundaryMode::LastAccept,
            BoundarySearch::Binary,
        );
        assert_eq!(b, 5);
        let mut seen = stub.evaluated.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), stub.evaluated.len(), "no rung evaluates twice");
        assert!(!stub.evaluated.contains(&0), "seeded rung never evaluates");
        assert_eq!(search.evals() as usize, stub.evaluated.len());
        assert!(search.probes() >= search.evals());
    }

    /// The binary probe order is exactly the order of the loops this
    /// module replaced: top rung first, then midpoint bisection.
    #[test]
    fn binary_probe_order_matches_replaced_loops() {
        // LastAccept over t=8 with boundary 5: the old k-center loop
        // probed 8, then mids of (0,8)=4, (4,8)=6, (4,6)=5.
        let mut stub = Stub::new(|i, b| i <= b, 5);
        let mut search = LadderSearch::new(8);
        search.search(
            &mut cluster(),
            &mut stub,
            BoundaryMode::LastAccept,
            BoundarySearch::Binary,
        );
        assert_eq!(stub.evaluated, vec![8, 4, 6, 5]);

        // FirstAccept over t=8 with boundary 5: the old k-supplier
        // lower bound probed mids of [0,8)=4, [5,8)=6, [5,6)=5.
        let mut stub = Stub::new(|i, b| i >= b, 5);
        let mut search = LadderSearch::new(8);
        search.search(
            &mut cluster(),
            &mut stub,
            BoundaryMode::FirstAccept,
            BoundarySearch::Binary,
        );
        assert_eq!(stub.evaluated, vec![4, 6, 5]);
    }

    /// `prewarm` fires once, before any probe, with exactly the
    /// unevaluated rung indices; ladders too short to profit (t < 2) skip
    /// it.
    #[test]
    fn prewarm_reports_unevaluated_rungs_before_probing() {
        // (Stub::prewarm itself asserts it runs before the first eval.)
        let mut stub = Stub::new(|i, b| i <= b, 2);
        let mut search = LadderSearch::new(4);
        search.seed(0, 0);
        search.search(
            &mut cluster(),
            &mut stub,
            BoundaryMode::LastAccept,
            BoundarySearch::Binary,
        );
        assert_eq!(stub.prewarmed, vec![vec![1, 2, 3, 4]]);

        let mut stub = Stub::new(|i, b| i <= b, 0);
        let mut search = LadderSearch::new(1);
        search.search(
            &mut cluster(),
            &mut stub,
            BoundaryMode::LastAccept,
            BoundarySearch::Linear,
        );
        assert!(stub.prewarmed.is_empty(), "t=1 ladders skip the hook");
    }

    /// Each objective fixes the direction, the bound handed to the kernel
    /// and the accept test. With `ε = 1` the ladder has `t = 3`, so the
    /// binary schedule probes rungs 3, 1, 2. Rungs at τ ∈ [2, 4] answer
    /// `bound` points, the others 2: k-center (τ = 16, 8, 4, 2) accepts
    /// up to rung 1, diversity (τ = 1, 2, 4, 8) up to rung 2.
    #[test]
    fn mis_ladder_fixes_direction_bound_and_accept() {
        let params = Params::practical(1, 1.0, 0);
        let climb = |objective, r| {
            let mut calls = Vec::new();
            let out = mis_ladder(
                &mut cluster(),
                &params,
                objective,
                vec![7],
                r,
                3,
                |_, tau, b| {
                    calls.push((tau, b));
                    let size = if (2.0..=4.0).contains(&tau) { b } else { 2 };
                    (0..size as u32).collect()
                },
            );
            assert_eq!((out.evals, out.probes), (3, 3));
            (calls, out.index, out.set.len())
        };
        let kcenter = climb(Objective::KCenter, 16.0);
        assert_eq!(kcenter, (vec![(2.0, 4), (8.0, 4), (4.0, 4)], 1, 2));
        let diversity = climb(Objective::Diversity, 1.0);
        assert_eq!(diversity, (vec![(8.0, 3), (2.0, 3), (4.0, 3)], 2, 3));
    }
}
