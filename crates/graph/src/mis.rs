//! Sequential maximal-independent-set algorithms and the paper's `trim`
//! primitive.

use crate::GraphView;

/// Greedy MIS over `vertices` in the given order: a vertex joins the set
/// iff it has no neighbor already in the set. The result is a maximal
/// independent set of the subgraph induced by `vertices`.
pub fn greedy_mis<G: GraphView>(view: &G, vertices: &[u32]) -> Vec<u32> {
    let mut set: Vec<u32> = Vec::new();
    for &v in vertices {
        // Batched adjacency test: one kernel call against the whole set.
        if view.degree_among(v, &set) == 0 {
            set.push(v);
        }
    }
    set
}

/// Greedy *k-bounded* MIS (Definition 1), the sequential reference for the
/// paper's Algorithm 4: scans `vertices` in order and stops as soon as the
/// independent set reaches size `k`.
///
/// ```
/// use mpc_graph::{AdjacencyGraph, mis::greedy_k_bounded_mis};
///
/// // Path 0-1-2-3-4: the greedy MIS is {0, 2, 4}; with k = 2 it stops early.
/// let g = AdjacencyGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let (set, maximal) = greedy_k_bounded_mis(&g, &[0, 1, 2, 3, 4], 2);
/// assert_eq!(set, vec![0, 2]);
/// assert!(!maximal); // stopped at k, not at exhaustion
/// ```
///
/// Returns `(set, maximal)` where `maximal` is true iff the scan finished,
/// i.e. the set is a maximal independent set of the induced subgraph. When
/// `maximal` is false the set is an independent set of size exactly `k`.
/// Either case is a valid k-bounded MIS.
pub fn greedy_k_bounded_mis<G: GraphView>(
    view: &G,
    vertices: &[u32],
    k: usize,
) -> (Vec<u32>, bool) {
    assert!(k > 0, "k must be positive");
    let mut set: Vec<u32> = Vec::with_capacity(k.min(vertices.len()));
    for &v in vertices {
        // Batched adjacency test, as in [`greedy_mis`].
        if view.degree_among(v, &set) == 0 {
            set.push(v);
            if set.len() == k {
                return (set, false);
            }
        }
    }
    (set, true)
}

/// Tie-breaking policy for [`trim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// The paper's rule: `v` survives iff `p_v > p_u` strictly for every
    /// sampled neighbor `u`. Adjacent equal-weight vertices both drop out
    /// (still an independent set, but progress can stall on ties).
    Strict,
    /// Lexicographic `(p_v, v) > (p_u, u)`: deterministic total order, so
    /// any non-empty sample with an edge still makes progress. This is the
    /// default (design decision D1; see the E10 ablation).
    ById,
}

/// The paper's `trim` function (§5): the subset of `sample` that are local
/// weight-maxima,
///
/// ```text
/// trim(S) = { v ∈ S : p_v > p_u for all u ∈ N(v) ∩ S }
/// ```
///
/// `weights[v]` is the (approximate) degree `p_v` of vertex `v`; entries
/// for vertices outside `sample` are ignored. The result is always an
/// independent set within `sample` (see `verify` tests).
pub fn trim<G: GraphView>(view: &G, sample: &[u32], weights: &[f64], tie: TieBreak) -> Vec<u32> {
    // One multi-query kernel call materializes every N(v) ∩ S row of the
    // sample-vs-sample grid; weights are then compared only against actual
    // neighbors.
    let neighborhoods = view.neighbors_among_many(sample, sample);
    sample
        .iter()
        .zip(neighborhoods)
        .filter(|&(&v, ref neighbors)| {
            neighbors.iter().all(|&u| {
                let (pv, pu) = (weights[v as usize], weights[u as usize]);
                match tie {
                    TieBreak::Strict => pv > pu,
                    TieBreak::ById => (pv, v) > (pu, u),
                }
            })
        })
        .map(|(&v, _)| v)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_independent, is_k_bounded_mis, is_maximal};
    use crate::AdjacencyGraph;

    fn path(n: usize) -> AdjacencyGraph {
        AdjacencyGraph::from_edges(
            n,
            &(0..n as u32 - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn greedy_mis_on_path_is_maximal() {
        let g = path(5);
        let vertices: Vec<u32> = (0..5).collect();
        let mis = greedy_mis(&g, &vertices);
        assert_eq!(mis, vec![0, 2, 4]);
        assert!(is_independent(&g, &mis));
        assert!(is_maximal(&g, &mis, &vertices));
    }

    #[test]
    fn greedy_mis_respects_scan_order() {
        let g = path(3);
        assert_eq!(greedy_mis(&g, &[1, 0, 2]), vec![1]);
    }

    #[test]
    fn k_bounded_stops_at_k() {
        let g = AdjacencyGraph::empty(10);
        let vertices: Vec<u32> = (0..10).collect();
        let (set, maximal) = greedy_k_bounded_mis(&g, &vertices, 4);
        assert_eq!(set.len(), 4);
        assert!(!maximal);
        assert!(is_k_bounded_mis(&g, &set, &vertices, 4));
    }

    #[test]
    fn k_bounded_maximal_when_small() {
        let g = path(5);
        let vertices: Vec<u32> = (0..5).collect();
        let (set, maximal) = greedy_k_bounded_mis(&g, &vertices, 100);
        assert!(maximal);
        assert_eq!(set, vec![0, 2, 4]);
        assert!(is_k_bounded_mis(&g, &set, &vertices, 100));
    }

    #[test]
    fn trim_keeps_local_maxima() {
        // Path 0-1-2 with weights 1, 3, 2: only vertex 1 is a local max.
        let g = path(3);
        let w = [1.0, 3.0, 2.0];
        assert_eq!(trim(&g, &[0, 1, 2], &w, TieBreak::Strict), vec![1]);
    }

    #[test]
    fn trim_strict_drops_tied_pairs() {
        let g = path(2);
        let w = [5.0, 5.0];
        assert_eq!(trim(&g, &[0, 1], &w, TieBreak::Strict), Vec::<u32>::new());
        // ById keeps the higher id.
        assert_eq!(trim(&g, &[0, 1], &w, TieBreak::ById), vec![1]);
    }

    #[test]
    fn trim_output_is_independent() {
        let g = path(8);
        let sample: Vec<u32> = (0..8).collect();
        let w: Vec<f64> = (0..8).map(|i| ((i * 7) % 5) as f64).collect();
        for tie in [TieBreak::Strict, TieBreak::ById] {
            let t = trim(&g, &sample, &w, tie);
            assert!(is_independent(&g, &t), "{tie:?}: {t:?}");
        }
    }

    #[test]
    fn trim_of_isolated_vertices_keeps_all() {
        let g = AdjacencyGraph::empty(4);
        let w = [0.0; 4];
        assert_eq!(
            trim(&g, &[0, 1, 2, 3], &w, TieBreak::Strict),
            vec![0, 1, 2, 3]
        );
    }
}
