//! The three batch workloads: Algorithm 5 on the all-pairs engine,
//! Algorithm 5 on the grid engine, and Algorithm 2 over the loopback wire
//! transport. Each runs the library's public pipeline for its end-to-end
//! numbers, and a traced recomposition of the same pipeline — built from
//! the public pieces the pipeline is made of, with spans around each call —
//! for its per-layer numbers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mpc_core::common::{covering_radius, gmm_coreset, to_point_ids};
use mpc_core::diversity::{mpc_diversity_on, sequential_gmm_diversity, DiversityResult};
use mpc_core::grid::{grid_k_bounded_mis, mpc_kcenter_grid_on};
use mpc_core::kbmis::k_bounded_mis;
use mpc_core::kcenter::{mpc_kcenter_on, sequential_gmm_kcenter, KCenterResult};
use mpc_core::ladder::{BoundaryMode, LadderSearch, RungEval};
use mpc_core::memo::MemoizedSpace;
use mpc_core::{verify, MemoStats, Params, Telemetry};
use mpc_metric::{
    datasets, min_pairwise_distance, EuclideanSpace, KernelStats, MetricSpace, PointId,
};
use mpc_sim::{Cluster, TransportKind, WireSummary};

use crate::calibrate::Probe;
use crate::report::{median, Report};
use crate::trace::{kernel_delta, MetricTally, Traced};

/// Ladder precision of every batch workload.
pub const EPSILON: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Algorithm 5 via `mpc_kcenter_on` (all-pairs threshold engine).
    KCenter,
    /// Algorithm 5 via `mpc_kcenter_grid_on` (grid engine).
    KCenterGrid,
    /// Algorithm 2 via `mpc_diversity_on` on a loopback cluster.
    Diversity,
}

/// One batch workload's input shape. Points come from
/// `datasets::user_embeddings(n, dim, clusters, sigma, drift, seed)`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub algo: Algo,
    pub n: usize,
    pub dim: usize,
    pub k: usize,
    pub m: usize,
    pub clusters: usize,
    pub sigma: f64,
    pub drift: f64,
    /// Independent inputs solved per round; their mean damps the
    /// input-to-input variation of a single seed.
    pub instances: usize,
}

impl Shape {
    pub fn engine(&self) -> &'static str {
        match self.algo {
            Algo::KCenterGrid => "grid",
            Algo::KCenter | Algo::Diversity => "allpairs",
        }
    }

    pub fn transport(&self) -> TransportKind {
        match self.algo {
            Algo::Diversity => TransportKind::Loopback,
            Algo::KCenter | Algo::KCenterGrid => TransportKind::Sim,
        }
    }

    pub fn params(&self, seed: u64) -> Params {
        Params::practical(self.m, EPSILON, seed)
    }

    pub fn cluster(&self, params: &Params) -> Cluster {
        Cluster::with_transport(params.m, params.seed, self.transport())
    }

    /// The set-up step: generate the points, build the space, and force
    /// its lazily built mirrors so no solve pays for them.
    pub fn generate(&self, seed: u64) -> EuclideanSpace {
        let points = datasets::user_embeddings(
            self.n,
            self.dim,
            self.clusters,
            self.sigma,
            self.drift,
            seed,
        );
        let space = EuclideanSpace::new(points);
        let probe: Vec<u32> = (0..space.n().min(64) as u32).collect();
        space.count_within(PointId(0), &probe, 0.0);
        space
    }

    /// The sequential Gonzalez objective the answers are compared with.
    pub fn reference(&self, space: &EuclideanSpace) -> f64 {
        match self.algo {
            Algo::KCenter | Algo::KCenterGrid => sequential_gmm_kcenter(space, self.k).radius,
            Algo::Diversity => sequential_gmm_diversity(space, self.k).diversity,
        }
    }

    /// One untraced pipeline call through the public API.
    pub fn solve(&self, space: &EuclideanSpace, params: &Params) -> Answer {
        let mut cluster = self.cluster(params);
        match self.algo {
            Algo::KCenter => Answer::KCenter(mpc_kcenter_on(&mut cluster, space, self.k, params)),
            Algo::KCenterGrid => {
                Answer::KCenter(mpc_kcenter_grid_on(&mut cluster, space, self.k, params))
            }
            Algo::Diversity => {
                Answer::Diversity(mpc_diversity_on(&mut cluster, space, self.k, params))
            }
        }
    }
}

#[derive(Debug, Clone)]
pub enum Answer {
    KCenter(KCenterResult),
    Diversity(DiversityResult),
}

impl Answer {
    pub fn telemetry(&self) -> &Telemetry {
        match self {
            Answer::KCenter(r) => &r.telemetry,
            Answer::Diversity(r) => &r.telemetry,
        }
    }

    pub fn ids(&self) -> Vec<u32> {
        let ids = match self {
            Answer::KCenter(r) => &r.centers,
            Answer::Diversity(r) => &r.subset,
        };
        ids.iter().map(|p| p.0).collect()
    }

    /// The radius (k-center) or diversity (Algorithm 2).
    pub fn objective(&self) -> f64 {
        match self {
            Answer::KCenter(r) => r.radius,
            Answer::Diversity(r) => r.diversity,
        }
    }

    /// The objective against the sequential reference, oriented so lower
    /// is better: radius / reference radius, or reference diversity /
    /// diversity.
    pub fn quality(&self, reference: f64) -> f64 {
        let (num, den) = match self {
            Answer::KCenter(r) => (r.radius, reference),
            Answer::Diversity(r) => (reference, r.diversity),
        };
        if num == den {
            1.0
        } else {
            num / den
        }
    }
}

/// The operation check: the independent verifier, the quality guarantee
/// `2(1+ε)` against the sequential reference (which is itself at least the
/// optimum for k-center and at most it for diversity), and zero wire
/// conformance violations.
pub fn check(
    shape: &Shape,
    space: &EuclideanSpace,
    answer: &Answer,
    reference: f64,
) -> Result<(), String> {
    match answer {
        Answer::KCenter(r) => verify::check_kcenter(space, shape.k, r),
        Answer::Diversity(r) => verify::check_diversity(space, shape.k, r),
    }
    .map_err(|e| e.to_string())?;
    let q = answer.quality(reference);
    if q.is_nan() || q > 2.0 * (1.0 + EPSILON) + 1e-9 {
        return Err(format!("quality ratio {q} exceeds 2(1+eps)"));
    }
    let t = answer.telemetry();
    if let Some(w) = &t.wire {
        if w.conformance_violations > 0 {
            return Err(format!(
                "{} wire conformance violations",
                w.conformance_violations
            ));
        }
    }
    if t.violations > 0 {
        return Err(format!("{} ledger budget violations", t.violations));
    }
    Ok(())
}

/// The traced recomposition must match the pipeline bit for bit: the
/// selected ids, the objective's bits, the rounds and the total words.
pub fn fidelity(pipeline: &Answer, traced: &Answer) -> Result<(), String> {
    let (a, b) = (pipeline.telemetry(), traced.telemetry());
    let same = pipeline.ids() == traced.ids()
        && pipeline.objective().to_bits() == traced.objective().to_bits()
        && a.rounds == b.rounds
        && a.total_words == b.total_words;
    if same {
        Ok(())
    } else {
        Err(format!(
            "traced recomposition diverged from the pipeline: objective {} vs {}, rounds {} vs {}, words {} vs {}",
            pipeline.objective(),
            traced.objective(),
            a.rounds,
            b.rounds,
            a.total_words,
            b.total_words
        ))
    }
}

/// Rounds and total words on the ledger so far.
fn ledger_mark(cluster: &Cluster) -> (u64, u64) {
    (cluster.rounds(), cluster.ledger().total_words())
}

/// What one traced solve measured, layer by layer.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub solve_s: f64,
    pub gmm_s: f64,
    pub radius_s: f64,
    pub ladder_s: f64,
    pub finalize_s: f64,
    /// Wall-clock inside rung evaluations (k-bounded MIS or grid rung).
    pub rung_s: f64,
    /// Metric-layer busy time inside rung evaluations.
    pub rung_metric_s: f64,
    pub evals: u64,
    pub probes: u64,
    pub outer_rounds: u64,
    pub forced_progress: u64,
    pub grid: KernelStats,
    pub memo: MemoStats,
    pub metric: MetricTally,
    pub fast: KernelStats,
    /// Ledger rounds and words of the coarse, ladder and finalize phases.
    pub rounds: [u64; 3],
    pub words: [u64; 3],
    pub wire: Option<WireSummary>,
    pub max_machine_words: u64,
    pub max_words_per_round: u64,
}

/// Per-rung spans shared by the rung evaluators below.
struct RungSpans<'t, 'a> {
    traced: &'t Traced<'a, EuclideanSpace>,
    rung_s: f64,
    rung_metric_s: f64,
    outer_rounds: u64,
    forced_progress: u64,
    grid: KernelStats,
}

impl<'t, 'a> RungSpans<'t, 'a> {
    fn new(traced: &'t Traced<'a, EuclideanSpace>) -> Self {
        Self {
            traced,
            rung_s: 0.0,
            rung_metric_s: 0.0,
            outer_rounds: 0,
            forced_progress: 0,
            grid: KernelStats::default(),
        }
    }

    fn span<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = self.traced.tally();
        let started = Instant::now();
        let out = f();
        self.rung_s += started.elapsed().as_secs_f64();
        self.rung_metric_s += self.traced.tally().since(before).busy_s();
        out
    }
}

/// Algorithm 5 / Algorithm 2 rungs over the memo: a k-bounded MIS at
/// `τ_i`, accepted while it has at most `k` (k-center) or exactly `k`
/// (diversity) vertices.
struct MisRungs<'t, 'a> {
    memo: &'t MemoizedSpace<'t, Traced<'a, EuclideanSpace>>,
    local_sets: &'t [Vec<u32>],
    r: f64,
    k: usize,
    n: usize,
    params: &'t Params,
    kcenter: bool,
    spans: RungSpans<'t, 'a>,
}

impl MisRungs<'_, '_> {
    fn tau(&self, i: usize) -> f64 {
        let step = (1.0 + self.params.epsilon).powi(i as i32);
        if self.kcenter {
            self.r / step
        } else {
            self.r * step
        }
    }
}

impl RungEval for MisRungs<'_, '_> {
    type Rung = Vec<u32>;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Vec<u32> {
        let tau = self.tau(i);
        let bound = if self.kcenter { self.k + 1 } else { self.k };
        let (memo, local_sets, n, params) = (self.memo, self.local_sets, self.n, self.params);
        let mis = self
            .spans
            .span(|| k_bounded_mis(cluster, memo, local_sets, tau, bound, n, params, false));
        self.spans.outer_rounds += mis.outer_rounds;
        self.spans.forced_progress += mis.forced_progress;
        mis.set
    }

    fn accept(&self, _i: usize, rung: &Vec<u32>) -> bool {
        if self.kcenter {
            rung.len() <= self.k
        } else {
            rung.len() == self.k
        }
    }

    fn prewarm(&mut self, reachable: &[usize]) {
        let taus: Vec<f64> = reachable.iter().map(|&i| self.tau(i)).collect();
        self.memo.prewarm_taus(&taus);
    }
}

/// Grid-engine rungs: a grid (k+1)-bounded MIS at `τ_i = r/(1+ε)^i`.
struct GridRungs<'t, 'a> {
    space: &'a EuclideanSpace,
    local_sets: &'t [Vec<u32>],
    r: f64,
    k: usize,
    params: &'t Params,
    spans: RungSpans<'t, 'a>,
}

impl RungEval for GridRungs<'_, '_> {
    type Rung = Vec<u32>;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Vec<u32> {
        let tau = self.r / (1.0 + self.params.epsilon).powi(i as i32);
        let mut stats = KernelStats::default();
        let (space, local_sets, bound) = (self.space, self.local_sets, self.k + 1);
        let set = self
            .spans
            .span(|| grid_k_bounded_mis(cluster, space, local_sets, tau, bound, &mut stats));
        self.spans.grid.merge(&stats);
        set
    }

    fn accept(&self, _i: usize, rung: &Vec<u32>) -> bool {
        rung.len() <= self.k
    }
}

/// The pipeline's coarse stage. Algorithm 5: `Q = GMM(∪ GMM(V_i))` and
/// `r = r(V, Q)`. Algorithm 2: the best-diversity candidate among the
/// coreset union's GMM and the per-machine coresets.
fn coarse(
    shape: &Shape,
    cluster: &mut Cluster,
    traced: &Traced<'_, EuclideanSpace>,
    local_sets: &[Vec<u32>],
    layers: &mut Layers,
) -> (Vec<u32>, f64) {
    let started = Instant::now();
    let (s, coresets) = gmm_coreset(cluster, traced, local_sets, shape.k);
    layers.gmm_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let out = match shape.algo {
        Algo::KCenter | Algo::KCenterGrid => {
            let r = covering_radius(cluster, traced, local_sets, &s);
            (s, r)
        }
        Algo::Diversity => {
            let div_of = |set: &[u32]| min_pairwise_distance(traced, &to_point_ids(set));
            let mut best_r = div_of(&s);
            let mut best: &[u32] = &s;
            for t_i in &coresets {
                if t_i.len() == s.len() {
                    let r_i = div_of(t_i);
                    if r_i > best_r {
                        best_r = r_i;
                        best = t_i;
                    }
                }
            }
            (best.to_vec(), best_r)
        }
    };
    layers.radius_s = started.elapsed().as_secs_f64();
    out
}

/// The traced recomposition of [`Shape::solve`]: the same collectives in
/// the same order on a fresh cluster, with spans at every phase and rung
/// boundary and the metric layer behind a [`Traced`] probe.
pub fn traced_solve(shape: &Shape, space: &EuclideanSpace, params: &Params) -> (Answer, Layers) {
    let mut layers = Layers::default();
    let traced = Traced::new(space);
    let kernels_before = space.kernel_stats();
    let solve_started = Instant::now();
    let mut cluster = shape.cluster(params);
    let k = shape.k;
    let n = space.n();
    let partition = params.partition.build(n, params.m, params.seed);
    let local_sets = partition.all_items().to_vec();
    let input_words: Vec<u64> = local_sets
        .iter()
        .map(|s| s.len() as u64 * space.point_weight())
        .collect();
    cluster.note_memory_all(&input_words);
    cluster.ship_shards("setup/shards", &local_sets, space.point_weight());

    let mark0 = ledger_mark(&cluster);
    let (q, r) = coarse(shape, &mut cluster, &traced, &local_sets, &mut layers);
    let mark1 = ledger_mark(&cluster);

    let kcenter = shape.algo != Algo::Diversity;
    let degenerate = q.len() < k || r <= 0.0 || (!kcenter && !r.is_finite());
    let (ids, objective, boundary, mark2) = if degenerate {
        let objective = if kcenter {
            r.max(0.0)
        } else {
            min_pairwise_distance(space, &to_point_ids(&q))
        };
        (q, objective, 0, mark1)
    } else {
        let ladder_started = Instant::now();
        let t = params.ladder_len(4.0, 1);
        let mut search = LadderSearch::new(t);
        search.seed(0, q.clone());
        let memo = MemoizedSpace::new(&traced);
        let (boundary, spans) = if shape.algo == Algo::KCenterGrid {
            let mut rungs = GridRungs {
                space,
                local_sets: &local_sets,
                r,
                k,
                params,
                spans: RungSpans::new(&traced),
            };
            let b = search.search(
                &mut cluster,
                &mut rungs,
                BoundaryMode::LastAccept,
                params.boundary_search,
            );
            (b, rungs.spans)
        } else {
            let mut rungs = MisRungs {
                memo: &memo,
                local_sets: &local_sets,
                r,
                k,
                n,
                params,
                kcenter,
                spans: RungSpans::new(&traced),
            };
            let b = search.search(
                &mut cluster,
                &mut rungs,
                BoundaryMode::LastAccept,
                params.boundary_search,
            );
            (b, rungs.spans)
        };
        layers.ladder_s = ladder_started.elapsed().as_secs_f64();
        layers.rung_s = spans.rung_s;
        layers.rung_metric_s = spans.rung_metric_s;
        layers.outer_rounds = spans.outer_rounds;
        layers.forced_progress = spans.forced_progress;
        layers.grid = spans.grid;
        layers.evals = search.evals() as u64;
        layers.probes = search.probes() as u64;
        layers.memo = memo.stats();
        let mark2 = ledger_mark(&cluster);

        let finalize_started = Instant::now();
        let chosen = search.take(boundary).expect("boundary was evaluated");
        let objective = if kcenter {
            covering_radius(&mut cluster, &traced, &local_sets, &chosen)
        } else {
            min_pairwise_distance(&traced, &to_point_ids(&chosen))
        };
        layers.finalize_s = finalize_started.elapsed().as_secs_f64();
        (chosen, objective, boundary, mark2)
    };
    let mark3 = ledger_mark(&cluster);
    layers.solve_s = solve_started.elapsed().as_secs_f64();
    layers.metric = traced.tally();
    layers.fast = kernel_delta(kernels_before, space.kernel_stats());
    for (p, (a, b)) in [(mark0, mark1), (mark1, mark2), (mark2, mark3)]
        .into_iter()
        .enumerate()
    {
        layers.rounds[p] = b.0 - a.0;
        layers.words[p] = b.1 - a.1;
    }
    layers.wire = cluster.wire_summary();
    layers.max_machine_words = cluster.ledger().max_machine_words();
    layers.max_words_per_round = cluster.ledger().max_machine_words_per_round();

    let mut telemetry = Telemetry::from_ledger(cluster.ledger());
    telemetry.wire = cluster.wire_summary();
    let answer = if kcenter {
        Answer::KCenter(KCenterResult {
            centers: to_point_ids(&ids),
            radius: objective,
            coarse_r: r.max(0.0),
            boundary_index: boundary,
            telemetry,
        })
    } else {
        Answer::Diversity(DiversityResult {
            subset: to_point_ids(&ids),
            diversity: objective,
            coarse_r: r.max(0.0),
            boundary_index: boundary,
            telemetry,
        })
    };
    (answer, layers)
}

/// Set-ups per run: at least `MIN_SETUPS`, then more until they add up to
/// `SETUP_BUDGET_S` (capped at `MAX_SETUPS` for tiny inputs); the median
/// is reported.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 50;
pub const SETUP_BUDGET_S: f64 = 1.0;
/// Fewest timed rounds (every instance solved once) per run.
pub const MIN_ROUNDS: usize = 2;

/// Runs `f` as one operation: a panic or a failed check counts as a
/// failed operation.
fn attempt<T>(
    report: &mut Report,
    what: &str,
    f: impl FnOnce() -> T,
    check: impl FnOnce(&T) -> Result<(), String>,
) -> Option<(T, f64)> {
    let started = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f));
    let secs = started.elapsed().as_secs_f64();
    match out {
        Ok(v) => {
            report.op(what, check(&v));
            Some((v, secs))
        }
        Err(_) => {
            report.op(what, Err("panicked".into()));
            None
        }
    }
}

/// The seed of instance `j` of a run seeded `seed`.
pub fn instance_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(j as u64)
}

/// One instance of a run: its input, parameters and reference objective.
struct Instance {
    space: EuclideanSpace,
    params: Params,
    reference: f64,
    /// The first answer, which every later solve must reproduce.
    yardstick: Option<Answer>,
    /// Wall-clock of each untraced solve.
    times: Vec<f64>,
}

/// One benchmark run of a batch workload: set up every instance a few
/// times, warm up, then solve every instance once per round until the
/// time is up. A traced run also solves each instance through the traced
/// recomposition right after its untraced solve.
pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::new();
    let mut probe = Probe::new();
    let mut setups = Vec::new();
    let mut spaces = Vec::new();
    while setups.len() < MIN_SETUPS
        || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < MAX_SETUPS)
    {
        spaces.clear();
        probe.sample();
        let started = Instant::now();
        spaces.extend((0..shape.instances).map(|j| shape.generate(instance_seed(seed, j))));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut instances: Vec<Instance> = spaces
        .into_iter()
        .enumerate()
        .map(|(j, space)| Instance {
            params: shape.params(instance_seed(seed, j)),
            reference: shape.reference(&space),
            space,
            yardstick: None,
            times: Vec::new(),
        })
        .collect();

    let warm = &instances[0];
    attempt(
        &mut report,
        "warm-up solve",
        || shape.solve(&warm.space, &warm.params),
        |a| check(shape, &warm.space, a, warm.reference),
    );

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut round_s = Vec::new();
    let mut traced_rounds: Vec<Vec<Layers>> = Vec::new();
    let mut attempted_rounds = 0;
    // A traced run reads its counts from the first round; its times are
    // not bounded, so one round is enough.
    let min_rounds = if trace { 1 } else { MIN_ROUNDS };
    while (round_s.len() < min_rounds && attempted_rounds < 3 * min_rounds)
        || Instant::now() < deadline
    {
        attempted_rounds += 1;
        let mut total_s = 0.0;
        let mut traced = Vec::new();
        let mut complete = true;
        for inst in &mut instances {
            probe.sample();
            let run = attempt(
                &mut report,
                "solve",
                || shape.solve(&inst.space, &inst.params),
                |a| {
                    check(shape, &inst.space, a, inst.reference)
                        .and_then(|()| inst.yardstick.as_ref().map_or(Ok(()), |y| fidelity(y, a)))
                },
            );
            let Some((answer, secs)) = run else {
                complete = false;
                continue;
            };
            total_s += secs;
            inst.times.push(secs);
            let yardstick = inst.yardstick.get_or_insert(answer);
            if trace {
                let run = attempt(
                    &mut report,
                    "traced solve",
                    || traced_solve(shape, &inst.space, &inst.params),
                    |(a, _)| {
                        check(shape, &inst.space, a, inst.reference)
                            .and_then(|()| fidelity(yardstick, a))
                    },
                );
                match run {
                    Some(((_, layers), _)) => traced.push(layers),
                    None => complete = false,
                }
            }
        }
        if complete {
            eprintln!(
                "round {}: {:.4} s per instance",
                round_s.len() + 1,
                total_s / instances.len() as f64
            );
            round_s.push(total_s / instances.len() as f64);
            traced_rounds.push(traced);
        }
    }
    // Each input's median damps stalls of the host; the mean over inputs
    // damps how much one input's geometry moves the figure.
    let medians: Vec<f64> = instances.iter().map(|i| median(&i.times)).collect();
    let solve_s = medians.iter().sum::<f64>() / medians.len() as f64;
    report_times(&mut report, &probe, median(&setups), solve_s);
    let qualities: Vec<f64> = instances
        .iter()
        .filter_map(|i| i.yardstick.as_ref().map(|a| a.quality(i.reference)))
        .collect();
    report.set(
        "quality_ratio",
        qualities.iter().sum::<f64>() / qualities.len().max(1) as f64,
    );
    if trace {
        layer_metrics(
            &mut report,
            &traced_rounds,
            median(&round_s) * instances.len() as f64,
        );
    }
    report
}

const ROUND_KEYS: [&str; 3] = [
    "mpc.rounds.coarse",
    "mpc.rounds.ladder",
    "mpc.rounds.finalize",
];
const WORD_KEYS: [&str; 3] = ["mpc.words.coarse", "mpc.words.ladder", "mpc.words.finalize"];

/// Folds the traced rounds into the per-layer metrics. A round's value is
/// the sum over its instances; times are the median over rounds, counts
/// (identical in every round) are read from the first round.
fn layer_metrics(report: &mut Report, rounds: &[Vec<Layers>], untraced_round_s: f64) {
    let Some(first) = rounds.first() else {
        return;
    };
    type Field<'f> = &'f dyn Fn(&Layers) -> f64;
    let sum = |round: &[Layers], f: Field| round.iter().map(f).sum::<f64>();
    let med = |f: Field| median(&rounds.iter().map(|r| sum(r, f)).collect::<Vec<_>>());
    let ratio = |a: Field, b: Field| {
        median(
            &rounds
                .iter()
                .map(|r| sum(r, a) / sum(r, b).max(f64::MIN_POSITIVE))
                .collect::<Vec<_>>(),
        )
    };
    let count = |f: Field| sum(first, f);
    let max = |f: Field| first.iter().map(f).fold(0.0, f64::max);

    report.set("metric.calls", count(&|l| l.metric.calls as f64));
    report.set("metric.pairs", count(&|l| l.metric.pairs as f64));
    report.set("metric.busy_s", med(&|l| l.metric.busy_s()));
    report.set(
        "metric.ns_per_pair",
        ratio(&|l| l.metric.busy_ns as f64, &|l| l.metric.pairs as f64),
    );
    let fast = count(&|l| l.fast.classified_pairs() as f64);
    report.set("metric.fast_pairs", fast);
    report.set(
        "metric.exact_fallback_ratio",
        count(&|l| l.fast.exact_fallbacks as f64) / fast.max(1.0),
    );
    report.set("core.coarse.gmm_s", med(&|l| l.gmm_s));
    report.set("core.coarse.radius_s", med(&|l| l.radius_s));
    report.set("core.ladder_s", med(&|l| l.ladder_s));
    report.set("core.ladder.self_s", med(&|l| l.ladder_s - l.rung_s));
    report.set("core.ladder.evals", count(&|l| l.evals as f64));
    report.set("core.ladder.probes", count(&|l| l.probes as f64));
    if count(&|l| l.grid.grid_cells as f64) > 0.0 {
        report.set("core.grid.rung_s", med(&|l| l.rung_s));
    } else {
        report.set("core.kbmis.rung_s", med(&|l| l.rung_s));
        report.set("core.kbmis.self_s", med(&|l| l.rung_s - l.rung_metric_s));
    }
    report.set("core.kbmis.outer_rounds", count(&|l| l.outer_rounds as f64));
    report.set(
        "core.kbmis.forced_progress",
        count(&|l| l.forced_progress as f64),
    );
    report.set("core.grid.pairs", count(&|l| l.grid.grid_pairs as f64));
    report.set(
        "core.grid.stencil_cells",
        count(&|l| l.grid.grid_stencil_cells as f64),
    );
    report.set("core.grid.cells", count(&|l| l.grid.grid_cells as f64));
    let mut memo = MemoStats::default();
    for l in first {
        memo.hits += l.memo.hits;
        memo.misses += l.memo.misses;
        memo.sorted_builds += l.memo.sorted_builds;
        memo.stored_words += l.memo.stored_words;
    }
    memo_metrics(report, &memo);
    report.set("core.finalize_s", med(&|l| l.finalize_s));
    report.set(
        "mpc.rounds",
        count(&|l| l.rounds.iter().sum::<u64>() as f64),
    );
    for p in 0..3 {
        report.set(ROUND_KEYS[p], count(&|l| l.rounds[p] as f64));
        report.set(WORD_KEYS[p], count(&|l| l.words[p] as f64));
    }
    report.set(
        "mpc.max_machine_words",
        max(&|l| l.max_machine_words as f64),
    );
    report.set(
        "mpc.max_words_per_round",
        max(&|l| l.max_words_per_round as f64),
    );
    if first.iter().all(|l| l.wire.is_some()) {
        let wire = |l: &Layers| l.wire.clone().expect("checked above");
        report.set("mpc.wire.encode_s", med(&|l| wire(l).encode_s));
        report.set("mpc.wire.decode_s", med(&|l| wire(l).decode_s));
        report.set("mpc.wire.transit_s", med(&|l| wire(l).transit_s));
        report.set(
            "mpc.wire.share",
            ratio(
                &|l| {
                    let w = wire(l);
                    w.encode_s + w.decode_s + w.transit_s
                },
                &|l| l.solve_s,
            ),
        );
        report.set(
            "mpc.wire.payload_bytes",
            count(&|l| wire(l).payload_bytes as f64),
        );
        report.set(
            "mpc.wire.overhead_bytes",
            count(&|l| wire(l).overhead_bytes as f64),
        );
        report.set("mpc.wire.frames", count(&|l| wire(l).frames as f64));
        report.set(
            "mpc.wire.arena_high_water_bytes",
            max(&|l| wire(l).arena_high_water_bytes as f64),
        );
    }
    report.set(
        "trace.phase_coverage",
        ratio(
            &|l| l.gmm_s + l.radius_s + l.ladder_s + l.finalize_s,
            &|l| l.solve_s,
        ),
    );
    report.set("trace.rung_coverage", ratio(&|l| l.rung_s, &|l| l.ladder_s));
    report.set(
        "trace.overhead",
        med(&|l| l.solve_s) / untraced_round_s - 1.0,
    );
}

/// Reports the run's set-up and solve times at the probe's reference
/// speed, and the probe itself; the raw wall-clock goes to stderr.
pub fn report_times(report: &mut Report, probe: &Probe, setup_s: f64, solve_s: f64) {
    eprintln!(
        "wall-clock: setup_s={setup_s:.6} solve_s={solve_s:.6} probe_s={:.6}",
        probe.median_s()
    );
    report.set("setup_s", probe.at_reference(setup_s));
    report.set("solve_s", probe.at_reference(solve_s));
    report.set("host.probe_s", probe.median_s());
}

/// The memo layer's counters (shared with the serving workload).
pub fn memo_metrics(report: &mut Report, memo: &MemoStats) {
    report.set("core.memo.hits", memo.hits as f64);
    report.set("core.memo.misses", memo.misses as f64);
    report.set(
        "core.memo.hit_ratio",
        memo.hits as f64 / (memo.hits + memo.misses).max(1) as f64,
    );
    report.set("core.memo.sorted_builds", memo.sorted_builds as f64);
    report.set("core.memo.bytes", memo.bytes() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    fn tiny(algo: Algo) -> Shape {
        Shape {
            algo,
            n: 600,
            dim: 4,
            k: 6,
            m: 4,
            clusters: 6,
            sigma: 0.03,
            drift: 1e-3,
            instances: 2,
        }
    }

    const ALGOS: [Algo; 3] = [Algo::KCenter, Algo::KCenterGrid, Algo::Diversity];

    #[test]
    fn generators_are_deterministic_per_seed() {
        let shape = tiny(Algo::KCenter);
        let (a, b, c) = (shape.generate(5), shape.generate(5), shape.generate(6));
        assert_eq!(a.points(), b.points());
        assert_ne!(a.points(), c.points());
        assert_ne!(instance_seed(5, 0), instance_seed(5, 1));
    }

    #[test]
    fn traced_recomposition_equals_the_pipeline() {
        for algo in ALGOS {
            for seed in [1, 2, 3] {
                let shape = tiny(algo);
                let space = shape.generate(seed);
                let params = shape.params(seed);
                let pipeline = shape.solve(&space, &params);
                let (traced, layers) = traced_solve(&shape, &space, &params);
                assert_eq!(fidelity(&pipeline, &traced), Ok(()), "{algo:?} seed {seed}");
                let t = pipeline.telemetry();
                assert_eq!(layers.rounds.iter().sum::<u64>(), t.rounds, "{algo:?}");
                assert_eq!(layers.words.iter().sum::<u64>(), t.total_words, "{algo:?}");
                assert_eq!(layers.max_machine_words, t.max_machine_words, "{algo:?}");
                assert!(
                    layers.evals > 0 && layers.rung_s <= layers.ladder_s,
                    "{algo:?}"
                );
                assert_eq!(layers.wire.is_some(), algo == Algo::Diversity);
            }
        }
    }

    #[test]
    fn a_tampered_answer_fails_its_operation() {
        for algo in ALGOS {
            let shape = tiny(algo);
            let space = shape.generate(9);
            let reference = shape.reference(&space);
            let honest = shape.solve(&space, &shape.params(9));
            assert_eq!(check(&shape, &space, &honest, reference), Ok(()));
            let mut bent = honest.clone();
            match &mut bent {
                Answer::KCenter(r) => r.radius *= 0.5,
                Answer::Diversity(r) => r.diversity *= 2.0,
            }
            let mut report = Report::new();
            report.op("solve", check(&shape, &space, &bent, reference));
            assert_eq!((report.attempted, report.failed), (1, 1));
            assert!(!report.correct);
            assert!(fidelity(&honest, &bent).is_err());
        }
    }

    #[test]
    fn tiny_runs_are_correct_and_report_every_metric() {
        for algo in ALGOS {
            let shape = tiny(algo);
            let report = run(&shape, 4, 0.01, false);
            assert!(report.correct && report.failed == 0, "{algo:?}");
            for (name, _) in END_TO_END {
                assert!(
                    report.values.get(name).is_some_and(|v| *v > 0.0),
                    "{algo:?} {name}"
                );
            }
            let traced = run(&shape, 4, 0.01, true);
            assert!(traced.correct, "{algo:?}");
            assert!(traced.values["core.ladder.evals"] > 0.0);
            assert!(traced.values["trace.phase_coverage"] > 0.5);
        }
    }
}
