//! Algorithm 4 — massively parallel k-bounded MIS in a threshold graph.
//!
//! Each outer round:
//!
//! 1. approximate all alive degrees (Algorithm 3, [`crate::degree`]); if
//!    that already yields an independent set completing `k`, stop;
//! 2. every machine draws `m` weighted samples (vertex `v` with probability
//!    `1/(2 p_v)`);
//! 3. **pruning** (Theorem 14): if the expected sample mass exceeds
//!    `10 k ln n`, the samples are dense enough that trimming them yields a
//!    size-`k` independent set directly — machines trim locally, exchange,
//!    trim again, and the largest `T_j` wins;
//! 4. otherwise all samples go to the central machine, which runs `m`
//!    compressed iterations of the local Luby variant `trim` (Lemma 10),
//!    greedily growing the MIS and deleting closed neighborhoods from its
//!    local copy;
//! 5. the newly added vertices are broadcast and every machine removes
//!    their closed neighborhood from its alive set.
//!
//! Edges shrink by a `Θ(√m)` factor per outer round w.h.p. (Theorem 13),
//! giving `O(1/γ)` rounds at `m = n^γ`.
//!
//! Deviations from the paper (DESIGN.md §2/§4): `trim` tie-breaking is
//! configurable (D1); when a w.h.p. shortcut under-delivers we fall through
//! instead of failing (unconditional validity); and a *forced-progress*
//! rule (add the globally smallest alive vertex when a round's samples were
//! all empty) guarantees termination even under adversarial sampling luck.

use std::collections::HashSet;

use mpc_graph::{mis::trim, GraphView, ThresholdGraph};
use mpc_metric::MetricSpace;
use mpc_sim::Cluster;
use rand::RngExt;

use crate::degree::{approximate_degrees, DegreeOutcome};
use crate::params::Params;

/// How a [`k_bounded_mis`] run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisOutcome {
    /// The alive set emptied: the result is a *maximal* independent set of
    /// size ≤ k.
    ExhaustedGraph,
    /// The MIS reached size `k` through the normal central path.
    ReachedK,
    /// Algorithm 3 extracted a size-`k` independent set from light vertices
    /// (line 4 of Algorithm 4).
    DegreeShortcut,
    /// The pruning step produced a size-`k` independent set (line 8).
    PruningShortcut,
}

/// Per-outer-round diagnostics (experiment E7). Collected outside the MPC
/// accounting — a measurement probe, not part of the algorithm.
#[derive(Debug, Clone, Copy)]
pub struct RoundTrace {
    /// Alive vertices at the start of the round.
    pub alive: u64,
    /// Edges among alive vertices at the start of the round (only computed
    /// when tracing was requested; expensive).
    pub edges: u64,
}

/// Result of [`k_bounded_mis`].
#[derive(Debug, Clone)]
pub struct KBoundedMis {
    /// The k-bounded MIS: independent, and either of size exactly `k` or
    /// maximal within the input vertices.
    pub set: Vec<u32>,
    /// True iff the set is maximal (every input vertex is in it or adjacent
    /// to it).
    pub maximal: bool,
    /// Termination cause.
    pub outcome: MisOutcome,
    /// Number of outer while-loop iterations.
    pub outer_rounds: u64,
    /// Times the forced-progress rule fired (0 in healthy executions).
    pub forced_progress: u64,
    /// Per-round alive/edge counts when `trace` was requested.
    pub trace: Vec<RoundTrace>,
}

const SALT_WEIGHTED_SAMPLES: u64 = 0x20;

/// Membership probability for a vertex with degree estimate `p_v`
/// (`min(1, 1/(2 p_v))`; isolated vertices are always sampled).
#[inline]
fn sample_prob(p_v: f64) -> f64 {
    if p_v <= 0.5 {
        1.0
    } else {
        1.0 / (2.0 * p_v)
    }
}

/// Runs Algorithm 4 on the subgraph of `G_tau` induced by `initial_alive`
/// (one vertex list per machine), looking for a k-bounded MIS.
///
/// `n_total` is the original input size (fixes `ln n`); `trace` enables the
/// E7 edge-decay probe.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 4's parameter list
pub fn k_bounded_mis<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    metric: &M,
    initial_alive: &[Vec<u32>],
    tau: f64,
    k: usize,
    n_total: usize,
    params: &Params,
    trace: bool,
) -> KBoundedMis {
    assert!(k >= 1, "k must be positive");
    assert_eq!(
        initial_alive.len(),
        cluster.m(),
        "one vertex list per machine"
    );
    let graph = ThresholdGraph::new(metric, tau);
    let m = cluster.m();
    let ln_n = (n_total.max(2) as f64).ln();
    let w = metric.point_weight();

    let mut alive: Vec<Vec<u32>> = initial_alive.to_vec();
    let mut mis: Vec<u32> = Vec::new();
    let mut outer_rounds = 0u64;
    let mut forced_progress = 0u64;
    let mut traces = Vec::new();

    loop {
        // Line 2's loop conditions. |MIS| ≥ k takes precedence: a k-subset
        // of an independent set is a valid k-bounded MIS (line 20), whereas
        // an over-sized "maximal" return would not be.
        if mis.len() >= k {
            mis.truncate(k);
            return KBoundedMis {
                set: mis,
                maximal: false,
                outcome: MisOutcome::ReachedK,
                outer_rounds,
                forced_progress,
                trace: traces,
            };
        }
        let sizes: Vec<u64> = alive.iter().map(|a| a.len() as u64).collect();
        let total_alive = cluster.all_reduce("mis/alive-count", sizes, 1, |a, b| a + b);
        if total_alive == 0 {
            return KBoundedMis {
                set: mis,
                maximal: true,
                outcome: MisOutcome::ExhaustedGraph,
                outer_rounds,
                forced_progress,
                trace: traces,
            };
        }
        // Memory accounting: each machine holds its alive share.
        let residency: Vec<u64> = alive.iter().map(|a| a.len() as u64 * w).collect();
        cluster.note_memory_all(&residency);
        outer_rounds += 1;
        if trace {
            traces.push(probe_alive_graph(&graph, &alive, total_alive));
        }
        let k_rem = k - mis.len();

        // Line 3–4: degree approximation, possibly short-circuiting.
        let p = match approximate_degrees(cluster, metric, &alive, tau, k_rem, n_total, params) {
            DegreeOutcome::IndependentSet(is) => {
                debug_assert_eq!(is.len(), k_rem);
                mis.extend(is);
                return KBoundedMis {
                    set: mis,
                    maximal: false,
                    outcome: MisOutcome::DegreeShortcut,
                    outer_rounds,
                    forced_progress,
                    trace: traces,
                };
            }
            DegreeOutcome::Estimates { p, .. } => p,
        };

        // Line 5: every machine draws m independent weighted samples.
        let samples: Vec<Vec<Vec<u32>>> = cluster.map(&alive, |i, vi| {
            let mut rng = cluster.rng(i, SALT_WEIGHTED_SAMPLES);
            (0..m)
                .map(|_| {
                    vi.iter()
                        .copied()
                        .filter(|&v| rng.random_range(0.0..1.0) < sample_prob(p[v as usize]))
                        .collect()
                })
                .collect()
        });

        // Line 6: pruning trigger on the expected sample mass.
        let mass: Vec<f64> = alive
            .iter()
            .map(|vi| vi.iter().map(|&v| sample_prob(p[v as usize])).sum())
            .collect();
        let expected_mass = cluster.all_reduce("mis/sample-mass", mass, 1, |a, b| a + b);
        let prune =
            params.enable_pruning && expected_mass > params.pruning_factor * (k_rem as f64) * ln_n;

        if prune {
            if let Some(found) = pruning_step(cluster, &graph, &samples, &p, k_rem, params, w) {
                mis.extend(found);
                mis.truncate(k);
                return KBoundedMis {
                    set: mis,
                    maximal: false,
                    outcome: MisOutcome::PruningShortcut,
                    outer_rounds,
                    forced_progress,
                    trace: traces,
                };
            }
            // w.h.p. shortfall under practical constants: fall through to
            // the central path (its traffic is recorded either way).
        }

        // Line 10: all samples go to the central machine, tagged by sample
        // index j.
        let tagged: Vec<Vec<(u32, u32)>> = samples
            .iter()
            .map(|per_j| {
                per_j
                    .iter()
                    .enumerate()
                    .flat_map(|(j, s)| s.iter().map(move |&v| (j as u32, v)))
                    .collect()
            })
            .collect();
        // Sampled points travel with their p_v value (one extra word),
        // since degree estimates live only at their owners.
        let received = cluster.gather("mis/samples", tagged, w + 1);

        // Lines 11–16: m compressed trim iterations on the central machine
        // (all local compute). The central machine's copy of G is exactly
        // the set of sampled vertices; removals apply to that copy.
        let mut by_j: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (j, v) in received {
            by_j[j as usize].push(v);
        }
        let mut selected: HashSet<u32> = HashSet::new();
        let mut delta: Vec<u32> = Vec::new();
        for s_j in by_j {
            if mis.len() + delta.len() >= k {
                break;
            }
            // Remove M_1..M_{j-1} and their neighborhoods from the central
            // copy: a sampled vertex is dead if already selected or
            // adjacent to any selected vertex.
            let s_j: Vec<u32> = s_j
                .into_iter()
                .filter(|&v| !selected.contains(&v) && delta.iter().all(|&d| !graph.is_edge(v, d)))
                .collect();
            if s_j.is_empty() {
                continue;
            }
            let m_j = trim(&graph, &s_j, &p, params.tie_break);
            selected.extend(&m_j);
            delta.extend(&m_j);
        }

        // Forced progress: if every sample was empty, adopt the smallest
        // alive vertex (it is independent of the MIS by construction).
        if delta.is_empty() {
            let minima: Vec<u32> = alive
                .iter()
                .map(|vi| vi.iter().copied().min().unwrap_or(u32::MAX))
                .collect();
            let global_min = cluster.reduce("mis/forced", minima, 1, u32::min);
            debug_assert_ne!(global_min, u32::MAX, "total_alive > 0 guarantees a vertex");
            delta.push(global_min);
            forced_progress += 1;
        }

        // Lines 17–18: broadcast the additions; machines delete closed
        // neighborhoods locally. One multi-query kernel per machine scans
        // the whole alive share against Δ (degrees of Δ-members are
        // computed too, but Δ is tiny and they are dropped by the
        // membership test regardless).
        let delta = cluster.broadcast("mis/delta", delta, w);
        let new_alive: Vec<Vec<u32>> = cluster.map(&alive, |_, vi| {
            let degs = graph.degrees_among(vi, &delta);
            vi.iter()
                .zip(degs)
                .filter(|&(v, d)| d == 0 && !delta.contains(v))
                .map(|(&v, _)| v)
                .collect()
        });
        alive = new_alive;
        mis.extend(delta);
    }
}

/// Lines 7–8 of Algorithm 4 (Theorem 14): double-trim the dense samples
/// and return a `k_rem`-subset of the largest resulting independent set,
/// or `None` if even the best `T_j` came up short.
fn pruning_step<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    graph: &ThresholdGraph<&M>,
    samples: &[Vec<Vec<u32>>],
    p: &[f64],
    k_rem: usize,
    params: &Params,
    weight: u64,
) -> Option<Vec<u32>> {
    // Local trims; a local trim already of size >= k_rem is itself an
    // independent set and can answer immediately (note in Theorem 14).
    let local_trims: Vec<Vec<Vec<u32>>> = cluster.map(samples, |_, per_j| {
        per_j
            .iter()
            .map(|s| trim(graph, s, p, params.tie_break))
            .collect()
    });
    for trims in &local_trims {
        for t in trims {
            if t.len() >= k_rem {
                let subset: Vec<u32> = t[..k_rem].to_vec();
                // The winning machine ships the subset to the central
                // machine for the final answer.
                return Some(cluster.broadcast("mis/prune-local-hit", subset, weight));
            }
        }
    }
    // Exchange: machine j collects every machine's trim of sample j, then
    // trims the union.
    // Trimmed vertices carry their p_v value (one extra word).
    let inbox = cluster.exchange("mis/prune-exchange", local_trims, weight + 1);
    let t_j: Vec<Vec<u32>> = cluster.map(&inbox, |_, parts| {
        let union: Vec<u32> = parts.iter().flatten().copied().collect();
        trim(graph, &union, p, params.tie_break)
    });
    let sizes: Vec<u64> = t_j.iter().map(|t| t.len() as u64).collect();
    let best = cluster.all_reduce("mis/prune-best", sizes.clone(), 1, u64::max);
    if best as usize >= k_rem {
        let winner = sizes.iter().position(|&s| s == best).expect("max exists");
        let subset: Vec<u32> = t_j[winner][..k_rem].to_vec();
        return Some(cluster.broadcast("mis/prune-result", subset, weight));
    }
    None
}

/// E7 probe: alive vertex and edge counts, computed directly (outside MPC
/// accounting; O(alive²) distances).
fn probe_alive_graph<M: MetricSpace + ?Sized>(
    graph: &ThresholdGraph<&M>,
    alive: &[Vec<u32>],
    total_alive: u64,
) -> RoundTrace {
    use rayon::prelude::*;
    let all: Vec<u32> = alive.iter().flatten().copied().collect();
    let edges: u64 = all
        .par_iter()
        .enumerate()
        .map(|(i, &u)| graph.degree_among(u, &all[i + 1..]) as u64)
        .sum();
    RoundTrace {
        alive: total_alive,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::verify::{is_independent, is_k_bounded_mis};
    use mpc_metric::{datasets, EuclideanSpace};
    use mpc_sim::Partition;

    fn run(
        n: usize,
        m: usize,
        tau: f64,
        k: usize,
        seed: u64,
    ) -> (EuclideanSpace, Vec<u32>, KBoundedMis) {
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, seed));
        let mut cluster = Cluster::new(m, seed);
        let params = Params::practical(m, 0.1, seed);
        let alive = Partition::round_robin(n, m).all_items().to_vec();
        let result = k_bounded_mis(&mut cluster, &metric, &alive, tau, k, n, &params, false);
        let universe: Vec<u32> = (0..n as u32).collect();
        (metric, universe, result)
    }

    #[test]
    fn output_is_always_a_k_bounded_mis() {
        for (n, m, tau, k, seed) in [
            (100, 4, 0.2, 5, 1u64),
            (100, 4, 0.05, 5, 2),
            (250, 5, 0.1, 10, 3),
            (60, 2, 0.5, 3, 4),
            (60, 2, 0.9, 8, 5),
            (40, 8, 0.01, 30, 6),
            (100, 4, 0.2, 5, 7), // re-run of config 1 under another seed
            (100, 4, 0.2, 5, 8),
            (500, 10, 0.05, 20, 9), // many machines, mid density
            (500, 2, 0.4, 3, 10),   // few machines, dense
            (64, 64, 0.1, 5, 11),   // machines = points
        ] {
            let (metric, universe, res) = run(n, m, tau, k, seed);
            let g = ThresholdGraph::new(&metric, tau);
            assert!(
                is_k_bounded_mis(&g, &res.set, &universe, k),
                "n={n} m={m} tau={tau} k={k} seed={seed}: {:?} (outcome {:?})",
                res.set,
                res.outcome
            );
        }
    }

    #[test]
    fn sparse_graph_reaches_k() {
        // tau tiny: nearly edgeless graph, k points must be found.
        let (metric, _, res) = run(300, 4, 1e-4, 12, 7);
        assert_eq!(res.set.len(), 12);
        let g = ThresholdGraph::new(&metric, 1e-4);
        assert!(is_independent(&g, &res.set));
    }

    #[test]
    fn dense_graph_returns_small_maximal_set() {
        // tau huge: complete graph, the only MIS is a single vertex.
        let (metric, universe, res) = run(100, 4, 10.0, 5, 8);
        assert_eq!(res.set.len(), 1);
        assert!(res.maximal);
        assert_eq!(res.outcome, MisOutcome::ExhaustedGraph);
        let g = ThresholdGraph::new(&metric, 10.0);
        assert!(is_k_bounded_mis(&g, &res.set, &universe, 5));
    }

    #[test]
    fn maximal_flag_matches_outcome() {
        for seed in 0..6 {
            let (_, _, res) = run(120, 3, 0.15, 6, 100 + seed);
            match res.outcome {
                MisOutcome::ExhaustedGraph => assert!(res.maximal),
                _ => {
                    assert!(!res.maximal);
                    assert_eq!(res.set.len(), 6);
                }
            }
        }
    }

    #[test]
    fn pruning_disabled_still_correct() {
        let n = 200;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 31));
        let mut params = Params::practical(4, 0.1, 31);
        params.enable_pruning = false;
        let mut cluster = Cluster::new(4, 31);
        let alive = Partition::round_robin(n, 4).all_items().to_vec();
        let res = k_bounded_mis(&mut cluster, &metric, &alive, 0.08, 8, n, &params, false);
        let g = ThresholdGraph::new(&metric, 0.08);
        let universe: Vec<u32> = (0..n as u32).collect();
        assert!(is_k_bounded_mis(&g, &res.set, &universe, 8));
    }

    #[test]
    fn strict_tie_break_still_terminates() {
        let n = 150;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 37));
        let mut params = Params::practical(3, 0.1, 37);
        params.tie_break = mpc_graph::mis::TieBreak::Strict;
        let mut cluster = Cluster::new(3, 37);
        let alive = Partition::round_robin(n, 3).all_items().to_vec();
        let res = k_bounded_mis(&mut cluster, &metric, &alive, 0.1, 6, n, &params, false);
        let g = ThresholdGraph::new(&metric, 0.1);
        let universe: Vec<u32> = (0..n as u32).collect();
        assert!(is_k_bounded_mis(&g, &res.set, &universe, 6));
    }

    #[test]
    fn trace_records_decreasing_alive_counts() {
        let n = 400;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 41));
        let params = Params::practical(4, 0.1, 41);
        let mut cluster = Cluster::new(4, 41);
        let alive = Partition::round_robin(n, 4).all_items().to_vec();
        let res = k_bounded_mis(&mut cluster, &metric, &alive, 0.3, 400, n, &params, true);
        assert!(!res.trace.is_empty());
        assert_eq!(res.trace[0].alive, 400);
        for w in res.trace.windows(2) {
            assert!(w[1].alive < w[0].alive, "alive must strictly decrease");
        }
    }

    #[test]
    fn consumed_rounds_are_recorded() {
        let n = 150;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 43));
        let params = Params::practical(4, 0.1, 43);
        let mut cluster = Cluster::new(4, 43);
        let alive = Partition::round_robin(n, 4).all_items().to_vec();
        let before = cluster.rounds();
        let _ = k_bounded_mis(&mut cluster, &metric, &alive, 0.2, 5, n, &params, false);
        assert!(cluster.rounds() > before);
    }

    #[test]
    fn empty_input_yields_empty_maximal_set() {
        let metric = EuclideanSpace::new(datasets::uniform_cube(10, 2, 1));
        let params = Params::practical(2, 0.1, 1);
        let mut cluster = Cluster::new(2, 1);
        let res = k_bounded_mis(
            &mut cluster,
            &metric,
            &[vec![], vec![]],
            0.5,
            3,
            10,
            &params,
            false,
        );
        assert!(res.set.is_empty());
        assert!(res.maximal);
    }

    #[test]
    fn pruning_shortcut_fires_on_sparse_graphs_with_small_k() {
        // tau ~ 0: the threshold graph is edgeless, every p_v is 0, so the
        // sampling probability is 1 and the expected sample mass is n —
        // way past 10·k·ln n. The pruning step must answer immediately.
        let n = 2000;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 61));
        let params = Params::practical(4, 0.1, 61);
        let mut cluster = Cluster::new(4, 61);
        let alive = Partition::round_robin(n, 4).all_items().to_vec();
        let res = k_bounded_mis(&mut cluster, &metric, &alive, 1e-9, 5, n, &params, false);
        assert_eq!(res.set.len(), 5);
        assert!(
            matches!(
                res.outcome,
                MisOutcome::PruningShortcut | MisOutcome::DegreeShortcut
            ),
            "dense sampling on an edgeless graph must shortcut, got {:?}",
            res.outcome
        );
        assert_eq!(res.outer_rounds, 1, "one outer round suffices");
    }

    #[test]
    fn degree_shortcut_fires_with_tiny_delta() {
        // Tiny delta shrinks the light cap so the light-extraction branch
        // of Algorithm 3 answers before any sampling happens.
        let n = 600;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 67));
        let mut params = Params::practical(4, 0.1, 67);
        params.delta = 0.01;
        let mut cluster = Cluster::new(4, 67);
        let alive = Partition::round_robin(n, 4).all_items().to_vec();
        let res = k_bounded_mis(&mut cluster, &metric, &alive, 1e-6, 4, n, &params, false);
        assert_eq!(res.outcome, MisOutcome::DegreeShortcut);
        assert_eq!(res.set.len(), 4);
    }

    #[test]
    fn forced_progress_keeps_dense_tiny_graphs_terminating() {
        // Complete graph on few vertices with exact degrees: sampling
        // probability 1/(2(n-1)) is small, so empty sample rounds happen
        // and the forced-progress rule must carry termination. Whatever
        // path executes, the output must stay valid for many seeds.
        let n = 8;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 71));
        let universe: Vec<u32> = (0..n as u32).collect();
        let mut any_forced = false;
        for seed in 0..30u64 {
            let mut params = Params::practical(2, 0.1, seed);
            params.exact_degrees = true;
            params.enable_pruning = false;
            let mut cluster = Cluster::new(2, seed);
            let alive = Partition::round_robin(n, 2).all_items().to_vec();
            let res = k_bounded_mis(&mut cluster, &metric, &alive, 10.0, 3, n, &params, false);
            let g = ThresholdGraph::new(&metric, 10.0);
            assert!(mpc_graph::verify::is_k_bounded_mis(
                &g, &res.set, &universe, 3
            ));
            any_forced |= res.forced_progress > 0;
        }
        assert!(
            any_forced,
            "30 seeds of tiny complete graphs should exercise forced progress"
        );
    }

    #[test]
    fn theory_preset_remains_valid() {
        // delta = 432 classifies everything light; the exact-degree path
        // carries the whole run. Output validity must be unaffected.
        let n = 300;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 73));
        let params = Params::theory(3, 0.1, 73);
        let mut cluster = Cluster::new(3, 73);
        let alive = Partition::round_robin(n, 3).all_items().to_vec();
        let res = k_bounded_mis(&mut cluster, &metric, &alive, 0.2, 6, n, &params, false);
        let g = ThresholdGraph::new(&metric, 0.2);
        let universe: Vec<u32> = (0..n as u32).collect();
        assert!(mpc_graph::verify::is_k_bounded_mis(
            &g, &res.set, &universe, 6
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, _, a) = run(200, 4, 0.12, 7, 55);
        let (_, _, b) = run(200, 4, 0.12, 7, 55);
        assert_eq!(a.set, b.set);
        assert_eq!(a.outer_rounds, b.outer_rounds);
    }
}
