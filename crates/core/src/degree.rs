//! Algorithm 3 — MPC vertex-degree approximation in a threshold graph.
//!
//! Every machine samples its alive vertices with probability `1/m` and
//! broadcasts the sample. Vertices whose sampled-neighbor count reaches
//! `δ ln n` are *heavy* and get the unbiased estimate `m · |N(v) ∩ S|`
//! (within `1 ± ε` w.h.p., Lemma 8); the rest are *light* and get exact
//! degrees computed cooperatively (their true degree is small w.h.p.,
//! Lemma 5, so this is affordable). If there are too many light vertices
//! for that to be affordable, an independent set of size `k` can be
//! extracted from them directly instead (Lemma 6) — short-circuiting the
//! caller, Algorithm 4, entirely.
//!
//! Deviation from the paper (DESIGN.md §2): with practical constants the
//! light-vertex extraction may fail to reach `k` (the w.h.p. degree bound
//! of Lemma 5 can be violated); we then *fall through* to the exact-degree
//! path rather than give an invalid answer, trading communication
//! (recorded on the ledger) for unconditional correctness.

use mpc_graph::{GraphView, ThresholdGraph};
use mpc_metric::MetricSpace;
use mpc_sim::Cluster;
use rand::RngExt;

use crate::params::Params;

/// Result of [`approximate_degrees`].
#[derive(Debug, Clone)]
pub enum DegreeOutcome {
    /// Per-vertex degree estimates `p_v`, indexed by global vertex id
    /// (entries for non-alive vertices are 0 and meaningless).
    Estimates {
        /// The estimates.
        p: Vec<f64>,
        /// Number of vertices classified heavy. Both counts are 0 on the
        /// exact-degree ablation path (D3), where no heavy/light
        /// classification happens at all.
        heavy: usize,
        /// Number of vertices classified light.
        light: usize,
    },
    /// An independent set of size exactly `k` found among light vertices.
    IndependentSet(Vec<u32>),
}

/// Salt values distinguishing this module's RNG call sites.
const SALT_SAMPLE: u64 = 0x10;
const SALT_EXTRACT: u64 = 0x11;

/// Runs Algorithm 3 on the subgraph of `G_tau` induced by the `alive`
/// vertices (one list per machine).
///
/// * `k` — size of the independent set the caller would accept as a
///   short-circuit (`k ≥ 1`).
/// * `n_total` — the original input size `n`, fixing `ln n` in all
///   thresholds (the paper's w.h.p. statements are in terms of the input
///   size, not the shrinking alive count).
///
/// Degrees are with respect to the alive-induced subgraph, which is what
/// Algorithm 4 needs round by round.
pub fn approximate_degrees<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    metric: &M,
    alive: &[Vec<u32>],
    tau: f64,
    k: usize,
    n_total: usize,
    params: &Params,
) -> DegreeOutcome {
    assert!(k >= 1, "k must be positive");
    assert_eq!(alive.len(), cluster.m(), "one alive list per machine");
    let graph = ThresholdGraph::new(metric, tau);
    let m = cluster.m();
    let ln_n = (n_total.max(2) as f64).ln();
    let w = metric.point_weight();

    if params.exact_degrees {
        return exact_degrees(cluster, &graph, alive, w);
    }

    // Lines 1–3: sample with probability 1/m, broadcast to everyone.
    let sample_prob = 1.0 / m as f64;
    let samples: Vec<Vec<u32>> = cluster.map(alive, |i, vi| {
        let mut rng = cluster.rng(i, SALT_SAMPLE);
        vi.iter()
            .copied()
            .filter(|_| rng.random_range(0.0..1.0) < sample_prob)
            .collect()
    });
    let sample: Vec<u32> = cluster.all_broadcast("deg/sample", samples, w);

    // Sampled-neighbor counts for every alive vertex (local compute; the
    // O(|V_i|·|S|) scan is the hot kernel, routed through the graph's bulk
    // `degrees_among` so threshold graphs hit the metric's batched
    // count_within kernel instead of per-pair oracle calls).
    let counts: Vec<Vec<u32>> = cluster.map(alive, |_, vi| {
        graph
            .degrees_among(vi, &sample)
            .into_iter()
            .map(|d| d as u32)
            .collect()
    });

    // Line 4: classify light vertices (Definition 4).
    let light_threshold = params.delta * ln_n;
    let light_flags: Vec<Vec<bool>> = counts
        .iter()
        .map(|cs| cs.iter().map(|&c| (c as f64) < light_threshold).collect())
        .collect();
    let local_light: Vec<u64> = light_flags
        .iter()
        .map(|fs| fs.iter().filter(|&&f| f).count() as u64)
        .collect();
    let total_light = cluster.all_reduce("deg/light-count", local_light.clone(), 1, |a, b| a + b);

    // Lines 5–6: too many light vertices — extract an independent set of
    // size k from a ρ-fraction of them at the central machine (Lemma 6).
    let light_cap = 2.0 * params.delta * (m as f64) * (k as f64) * ln_n;
    if total_light as f64 > light_cap {
        let rho = (light_cap / total_light as f64).min(1.0);
        // The central machine computed ρ from the gathered counts; it now
        // broadcasts it (one scalar).
        let rho = cluster.broadcast("deg/rho", vec![rho], 1)[0];
        let contributions: Vec<Vec<u32>> = cluster.map(alive, |i, vi| {
            let mut rng = cluster.rng(i, SALT_EXTRACT);
            let lights: Vec<u32> = vi
                .iter()
                .zip(&light_flags[i])
                .filter(|&(_, &f)| f)
                .map(|(&v, _)| v)
                .collect();
            let want = ((rho * lights.len() as f64).ceil() as usize).min(lights.len());
            // Random `want`-subset via partial Fisher–Yates.
            let mut pool = lights;
            for idx in 0..want {
                let j = rng.random_range(idx..pool.len());
                pool.swap(idx, j);
            }
            pool.truncate(want);
            pool
        });
        let pool = cluster.gather("deg/light-pool", contributions, w);
        let (is, _) = mpc_graph::mis::greedy_k_bounded_mis(&graph, &pool, k);
        if is.len() == k {
            // Central announces the result so all machines terminate.
            let is = cluster.broadcast("deg/is-result", is, w);
            return DegreeOutcome::IndependentSet(is);
        }
        // Extraction under-delivered (possible under practical constants);
        // fall through to the exact path below. One scalar tells the
        // machines to continue.
        cluster.broadcast("deg/is-miss", vec![()], 1);
    }

    // Lines 7–12: exact degrees for light vertices, sampled estimate for
    // heavy ones.
    let light_lists: Vec<Vec<u32>> = alive
        .iter()
        .zip(&light_flags)
        .map(|(vi, fs)| {
            vi.iter()
                .zip(fs)
                .filter(|&(_, &f)| f)
                .map(|(&v, _)| v)
                .collect()
        })
        .collect();
    let all_light: Vec<u32> = cluster.all_broadcast("deg/light-bcast", light_lists, w);

    // d_i(v) for every light v against machine i's alive vertices (batched
    // per vertex through the metric kernel, as above).
    let partials: Vec<Vec<u32>> = cluster.map(alive, |_, vi| {
        graph
            .degrees_among(&all_light, vi)
            .into_iter()
            .map(|d| d as u32)
            .collect()
    });
    // Line 9: route each partial count to the machine *owning* the light
    // vertex (not all-to-all — that would cost Õ(m²k) per machine; owner
    // routing keeps it Õ(mk), which is what Theorem 9 charges: only the
    // owner needs p_v, for the sampling step of Algorithm 4).
    let light_seg_sizes: Vec<usize> = {
        // all_light is the concatenation of each machine's light list in
        // machine order; recover the segment boundaries.
        alive
            .iter()
            .zip(&light_flags)
            .map(|(_, fs)| fs.iter().filter(|&&f| f).count())
            .collect()
    };
    let outboxes: Vec<Vec<Vec<u32>>> = partials
        .iter()
        .map(|row| {
            let mut boxes = Vec::with_capacity(m);
            let mut off = 0;
            for &len in &light_seg_sizes {
                boxes.push(row[off..off + len].to_vec());
                off += len;
            }
            boxes
        })
        .collect();
    let _ = cluster.exchange("deg/light-partials", outboxes, 1);

    let mut p = vec![0.0f64; n_total];
    // Exact light degrees: sum of partials. A light vertex's self-adjacency
    // never counts (GraphView excludes self-loops).
    for (idx, &v) in all_light.iter().enumerate() {
        let exact: u32 = partials.iter().map(|row| row[idx]).sum();
        p[v as usize] = exact as f64;
    }
    // Heavy estimates: (1/p) · |N(v) ∩ S| = m · count.
    let mut heavy = 0usize;
    for (machine, vi) in alive.iter().enumerate() {
        for ((&v, &cnt), &is_light) in vi.iter().zip(&counts[machine]).zip(&light_flags[machine]) {
            if !is_light {
                p[v as usize] = (m as f64) * (cnt as f64);
                heavy += 1;
            }
        }
    }
    DegreeOutcome::Estimates {
        p,
        heavy,
        light: total_light as usize,
    }
}

/// Ablation D3: exact degrees for every alive vertex, computed by
/// broadcasting all alive vertices (communication `O(n)` per machine —
/// exactly what Algorithm 3 exists to avoid).
///
/// No heavy/light classification happens on this path — every degree is
/// exact — so the returned split is `heavy: 0, light: 0` rather than a
/// fabricated one (an earlier version reported every vertex as heavy,
/// poisoning the E6/E10 telemetry).
fn exact_degrees<M: MetricSpace + ?Sized>(
    cluster: &mut Cluster,
    graph: &ThresholdGraph<&M>,
    alive: &[Vec<u32>],
    weight: u64,
) -> DegreeOutcome {
    let all_alive: Vec<u32> = cluster.all_broadcast("deg/exact-bcast", alive.to_vec(), weight);
    let per_machine: Vec<Vec<(u32, u32)>> = cluster.map(alive, |_, vi| {
        vi.iter()
            .zip(graph.degrees_among(vi, &all_alive))
            .map(|(&v, d)| (v, d as u32))
            .collect()
    });
    let n_total = graph.n_vertices();
    let mut p = vec![0.0f64; n_total];
    for row in per_machine {
        for (v, d) in row {
            p[v as usize] = d as f64;
        }
    }
    DegreeOutcome::Estimates {
        p,
        heavy: 0,
        light: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_metric::{datasets, EuclideanSpace};
    use mpc_sim::Partition;

    fn split(n: usize, m: usize) -> Vec<Vec<u32>> {
        Partition::round_robin(n, m).all_items().to_vec()
    }

    fn true_degrees<M: MetricSpace>(metric: &M, tau: f64, n: usize) -> Vec<usize> {
        let g = ThresholdGraph::new(metric, tau);
        let all: Vec<u32> = (0..n as u32).collect();
        all.iter().map(|&v| g.degree_among(v, &all)).collect()
    }

    #[test]
    fn exact_mode_matches_true_degrees() {
        let n = 120;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 3));
        let mut cluster = Cluster::new(4, 9);
        let mut params = Params::practical(4, 0.1, 9);
        params.exact_degrees = true;
        let alive = split(n, 4);
        let out = approximate_degrees(&mut cluster, &metric, &alive, 0.3, 5, n, &params);
        let truth = true_degrees(&metric, 0.3, n);
        match out {
            DegreeOutcome::Estimates { p, .. } => {
                for v in 0..n {
                    assert_eq!(p[v], truth[v] as f64, "vertex {v}");
                }
            }
            other => panic!("expected estimates, got {other:?}"),
        }
    }

    #[test]
    fn light_vertices_get_exact_degrees() {
        // Sparse graph: everyone is light, so all degrees must be exact.
        let n = 200;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 7));
        let mut cluster = Cluster::new(2, 5);
        // Huge delta forces everyone light; huge k avoids the extraction
        // path trigger (cap = 2*delta*m*k*ln n >> n).
        let mut params = Params::practical(2, 0.1, 5);
        params.delta = 50.0;
        let alive = split(n, 2);
        let out = approximate_degrees(&mut cluster, &metric, &alive, 0.05, 100, n, &params);
        let truth = true_degrees(&metric, 0.05, n);
        match out {
            DegreeOutcome::Estimates { p, heavy, light } => {
                assert_eq!(heavy, 0);
                assert_eq!(light, n);
                for v in 0..n {
                    assert_eq!(p[v], truth[v] as f64, "light vertex {v} must be exact");
                }
            }
            other => panic!("expected estimates, got {other:?}"),
        }
    }

    #[test]
    fn extraction_path_returns_valid_independent_set() {
        // Sparse graph + tiny cap: force the light-extraction branch.
        let n = 400;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 11));
        let m = 4;
        let mut cluster = Cluster::new(m, 13);
        let mut params = Params::practical(m, 0.1, 13);
        params.delta = 0.05; // cap = 2*0.05*4*k*ln(400) is tiny
        let alive = split(n, m);
        let k = 3;
        let tau = 0.01; // near-empty graph: independent sets abound
        let out = approximate_degrees(&mut cluster, &metric, &alive, tau, k, n, &params);
        match out {
            DegreeOutcome::IndependentSet(is) => {
                assert_eq!(is.len(), k);
                let g = ThresholdGraph::new(&metric, tau);
                assert!(mpc_graph::verify::is_independent(&g, &is));
            }
            other => panic!("expected extraction, got {other:?}"),
        }
    }

    #[test]
    fn heavy_estimates_are_close_on_dense_graphs() {
        // Dense threshold: most vertices heavy; estimates within a loose
        // multiplicative band of the truth (statistical test, fixed seed).
        let n = 1500;
        let m = 5;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 21));
        let mut cluster = Cluster::new(m, 17);
        let params = Params::practical(m, 0.1, 17);
        let alive = split(n, m);
        let tau = 0.5; // ~50%+ of the square within range: degrees ~n/2
        let out = approximate_degrees(&mut cluster, &metric, &alive, tau, 5, n, &params);
        let truth = true_degrees(&metric, tau, n);
        match out {
            DegreeOutcome::Estimates { p, heavy, .. } => {
                assert!(
                    heavy > n / 2,
                    "dense graph should be mostly heavy, got {heavy}"
                );
                let mut rel_err_sum = 0.0;
                let mut count = 0;
                for v in 0..n {
                    if truth[v] > 200 {
                        rel_err_sum += (p[v] - truth[v] as f64).abs() / truth[v] as f64;
                        count += 1;
                    }
                }
                let mean_rel_err = rel_err_sum / count as f64;
                assert!(
                    mean_rel_err < 0.25,
                    "mean relative error {mean_rel_err} too large for sampled estimates"
                );
            }
            other => panic!("expected estimates, got {other:?}"),
        }
    }

    #[test]
    fn rounds_and_communication_are_charged() {
        let n = 100;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 3));
        let mut cluster = Cluster::new(4, 1);
        let params = Params::practical(4, 0.1, 1);
        let alive = split(n, 4);
        let _ = approximate_degrees(&mut cluster, &metric, &alive, 0.2, 5, n, &params);
        assert!(
            cluster.rounds() >= 3,
            "sampling, counting and light paths each cost rounds"
        );
        assert!(cluster.ledger().total_words() > 0);
    }

    #[test]
    fn single_machine_cluster_degenerates_gracefully() {
        let n = 60;
        let metric = EuclideanSpace::new(datasets::uniform_cube(n, 2, 2));
        let mut cluster = Cluster::new(1, 3);
        let params = Params::practical(1, 0.1, 3);
        let alive = split(n, 1);
        // With m = 1 the sample is everything, so counts are exact degrees.
        let out = approximate_degrees(&mut cluster, &metric, &alive, 0.4, 5, n, &params);
        let truth = true_degrees(&metric, 0.4, n);
        match out {
            DegreeOutcome::Estimates { p, .. } => {
                for v in 0..n {
                    assert_eq!(p[v], truth[v] as f64);
                }
            }
            DegreeOutcome::IndependentSet(is) => {
                let g = ThresholdGraph::new(&metric, 0.4);
                assert!(mpc_graph::verify::is_independent(&g, &is));
            }
        }
    }
}
