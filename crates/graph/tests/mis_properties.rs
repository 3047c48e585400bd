//! Property-based tests of the MIS toolkit on random explicit graphs.

use mpc_graph::mis::{greedy_k_bounded_mis, greedy_mis, trim, TieBreak};
use mpc_graph::verify::{is_independent, is_k_bounded_mis, is_maximal};
use mpc_graph::{AdjacencyGraph, GraphView};
use proptest::prelude::*;

/// Random graphs as (n, edge list) with no duplicates or self-loops.
fn arb_graph(max_n: usize) -> impl Strategy<Value = AdjacencyGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        let all_pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        prop::collection::vec(any::<bool>(), all_pairs.len()..=all_pairs.len()).prop_map(
            move |mask| {
                let edges: Vec<(u32, u32)> = all_pairs
                    .iter()
                    .zip(&mask)
                    .filter(|&(_, &keep)| keep)
                    .map(|(&e, _)| e)
                    .collect();
                AdjacencyGraph::from_edges(n, &edges)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Greedy MIS is always a maximal independent set.
    #[test]
    fn greedy_mis_is_maximal(g in arb_graph(24)) {
        let vertices: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let mis = greedy_mis(&g, &vertices);
        prop_assert!(is_independent(&g, &mis));
        prop_assert!(is_maximal(&g, &mis, &vertices));
    }

    /// The k-bounded greedy MIS satisfies Definition 1 for every k.
    #[test]
    fn k_bounded_definition_holds(g in arb_graph(20), k in 1usize..25) {
        let vertices: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let (set, maximal) = greedy_k_bounded_mis(&g, &vertices, k);
        prop_assert!(is_k_bounded_mis(&g, &set, &vertices, k));
        if maximal {
            prop_assert!(is_maximal(&g, &set, &vertices));
        } else {
            prop_assert_eq!(set.len(), k);
        }
    }

    /// trim is an independent subset of the sample under both tie rules,
    /// and the ById rule retains a superset of the Strict rule.
    #[test]
    fn trim_rules_relate(g in arb_graph(20), weights in prop::collection::vec(0.0f64..8.0, 25)) {
        let n = g.n_vertices();
        let sample: Vec<u32> = (0..n as u32).collect();
        let w = &weights[..n.min(weights.len())];
        if w.len() < n { return Ok(()); }
        let strict = trim(&g, &sample, w, TieBreak::Strict);
        let by_id = trim(&g, &sample, w, TieBreak::ById);
        prop_assert!(is_independent(&g, &strict));
        prop_assert!(is_independent(&g, &by_id));
        for v in &strict {
            prop_assert!(by_id.contains(v), "ById must keep every Strict survivor");
        }
    }

    /// On an edgeless graph every MIS routine returns the whole vertex set.
    #[test]
    fn edgeless_graphs_keep_everything(n in 1usize..30) {
        let g = AdjacencyGraph::empty(n);
        let vertices: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(greedy_mis(&g, &vertices).len(), n);
    }
}
