//! Explicit adjacency-list graphs, used in unit tests of the MIS machinery.

use crate::GraphView;

/// An explicit undirected graph over vertices `0..n` with sorted adjacency
/// lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjacencyGraph {
    adj: Vec<Vec<u32>>,
}

impl AdjacencyGraph {
    /// An edgeless graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds from an edge list; duplicate edges and self-loops are
    /// rejected.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Self::empty(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Adds the undirected edge `{u, v}`; panics on self-loops, duplicates,
    /// or out-of-range ids.
    fn add_edge(&mut self, u: u32, v: u32) {
        assert_ne!(u, v, "self-loop");
        let n = self.adj.len() as u32;
        assert!(u < n && v < n, "vertex out of range");
        let pos = self.adj[u as usize]
            .binary_search(&v)
            .expect_err("duplicate edge");
        self.adj[u as usize].insert(pos, v);
        let pos = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("duplicate edge");
        self.adj[v as usize].insert(pos, u);
    }
}

impl GraphView for AdjacencyGraph {
    fn n_vertices(&self) -> usize {
        self.adj.len()
    }

    fn is_edge(&self, u: u32, v: u32) -> bool {
        u != v && self.adj[u as usize].binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle() {
        let g = AdjacencyGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(g.is_edge(0, 1) && g.is_edge(1, 2) && g.is_edge(2, 0));
        assert!(!g.is_edge(1, 1));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicates() {
        AdjacencyGraph::from_edges(2, &[(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        AdjacencyGraph::from_edges(2, &[(1, 1)]);
    }
}
