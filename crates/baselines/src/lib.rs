//! Baselines: the prior algorithms the paper improves upon, plus exact
//! solvers for small instances.
//!
//! | Module | Algorithm | Factor | Source |
//! |---|---|---|---|
//! | [`hochbaum_shmoys`] | sequential threshold + MIS k-center | 2 | Hochbaum & Shmoys 1986 |
//! | [`malkomes`] | two-round MPC coreset k-center | 4 | Malkomes et al., NeurIPS 2015 |
//! | [`indyk`] | two-round MPC composable-coreset diversity | 6 | Indyk et al., PODC 2014 |
//! | [`ene`] | iterative-sampling MapReduce k-center | O(1) w.h.p. | Ene, Im & Moseley, KDD 2011 (simplified; see module docs) |
//! | [`outliers`] | greedy-disk k-center with z outliers | 3 | Charikar et al., SODA 2001 |
//! | [`malkomes_outliers`] | two-round MPC k-center with z outliers | 13 | Malkomes et al., NeurIPS 2015 |
//! | [`exact`] | branch-and-bound k-center / k-diversity / k-supplier | 1 (exact) | — (small n only) |
//! | [`random_pick`] | uniformly random k points | unbounded | sanity floor |
//!
//! These power the E1/E2/E9 quality comparisons in `mpc-bench` — the
//! paper's headline claim is precisely that its `(2+ε)`/`(2+ε)`/`(3+ε)`
//! factors beat the 4 / 6 / — factors of these baselines.

pub mod ene;
pub mod exact;
pub mod hochbaum_shmoys;
pub mod indyk;
pub mod malkomes;
pub mod malkomes_outliers;
pub mod outliers;
pub mod random_pick;
pub mod remote_clique;
