//! Graph substrate: threshold graphs over metric spaces, explicit graphs,
//! and maximal-independent-set primitives.
//!
//! The paper's central object is the *threshold graph* `G_τ` on a point set
//! `V`: vertices are points, and `u ~ v` iff `d(u, v) ≤ τ` (§2). All of its
//! algorithms reduce to finding a *k-bounded MIS* in such graphs —
//! either a maximal independent set of size ≤ k, or an independent set of
//! size exactly k (Definition 1).
//!
//! This crate provides:
//!
//! * [`GraphView`] — the adjacency oracle both implicit
//!   ([`ThresholdGraph`]) and explicit ([`AdjacencyGraph`]) graphs expose;
//! * sequential MIS algorithms ([`mis::greedy_mis`],
//!   [`mis::greedy_k_bounded_mis`]) used as reference implementations and
//!   baselines;
//! * the paper's [`mis::trim`] primitive (the "local variant of Luby's
//!   algorithm" of §5) with configurable tie-breaking;
//! * verification predicates ([`verify`]) used across the test suites.

pub mod adjacency;
pub mod mis;
pub mod threshold;
pub mod verify;

pub use adjacency::AdjacencyGraph;
pub use threshold::ThresholdGraph;

/// An adjacency oracle over vertices identified by `u32` ids.
///
/// `is_edge` must be symmetric and irreflexive. Implementations are `Sync`
/// so per-machine computation can query them under rayon.
pub trait GraphView: Sync {
    /// Upper bound (exclusive) on vertex ids.
    fn n_vertices(&self) -> usize;

    /// Whether distinct vertices `u` and `v` are adjacent. Must return
    /// `false` when `u == v`.
    fn is_edge(&self, u: u32, v: u32) -> bool;

    /// Number of neighbors of `v` within `candidates` (which may contain
    /// `v` itself; self-loops never count).
    fn degree_among(&self, v: u32, candidates: &[u32]) -> usize {
        candidates.iter().filter(|&&u| self.is_edge(v, u)).count()
    }

    /// The neighbors of `v` within `candidates`.
    fn neighbors_among(&self, v: u32, candidates: &[u32]) -> Vec<u32> {
        candidates
            .iter()
            .copied()
            .filter(|&u| self.is_edge(v, u))
            .collect()
    }

    /// Bulk counterpart of [`GraphView::degree_among`]: the degree of every
    /// vertex in `vs` within `candidates`, in order. The hot scans of
    /// Algorithms 3–4 (sampled-neighbor counts, exact-light partials) call
    /// this so implicit graphs can route the whole batch through one metric
    /// kernel per vertex instead of per-pair oracle calls. When the
    /// `vs × candidates` grid is large enough (see
    /// [`mpc_metric::par_bulk_pairs`]) the per-vertex scans run across the
    /// worker pool; the order-preserving collect keeps the output identical
    /// to the sequential loop.
    fn degrees_among(&self, vs: &[u32], candidates: &[u32]) -> Vec<usize> {
        if mpc_metric::par_bulk_pairs(vs.len(), candidates.len()) {
            use rayon::prelude::*;
            vs.par_iter()
                .map(|&v| self.degree_among(v, candidates))
                .collect()
        } else {
            vs.iter()
                .map(|&v| self.degree_among(v, candidates))
                .collect()
        }
    }

    /// Bulk counterpart of [`GraphView::neighbors_among`]: the neighbor
    /// list of every vertex in `vs` within `candidates`, in order. The
    /// `trim` primitive of Algorithm 4 scans every sampled vertex against
    /// the same sample; batching the whole grid lets implicit graphs route
    /// it through one multi-query metric kernel. Same parallel/determinism
    /// contract as [`GraphView::degrees_among`].
    fn neighbors_among_many(&self, vs: &[u32], candidates: &[u32]) -> Vec<Vec<u32>> {
        if mpc_metric::par_bulk_pairs(vs.len(), candidates.len()) {
            use rayon::prelude::*;
            vs.par_iter()
                .map(|&v| self.neighbors_among(v, candidates))
                .collect()
        } else {
            vs.iter()
                .map(|&v| self.neighbors_among(v, candidates))
                .collect()
        }
    }
}
