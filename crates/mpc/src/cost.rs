//! Cost model: project a [`crate::Ledger`] onto a modeled physical
//! cluster to estimate wall-clock time.
//!
//! The MPC model counts rounds and words; a deployment pays
//! `latency + bytes/bandwidth` per round (the classic alpha–beta model,
//! using the per-round *maximum* machine traffic since the round ends when
//! the slowest machine finishes). This turns the simulator's exact counts
//! into "what would this cost on a Spark-like cluster" estimates — used by
//! experiment E12 and the `cluster_projection` example.

use crate::ledger::Ledger;

/// An alpha–beta cluster communication model.
///
/// ```
/// use mpc_sim::{Cluster, CostModel};
///
/// let mut cluster = Cluster::new(4, 0);
/// cluster.broadcast("round-1", vec![0u32; 1000], 2);
/// let ledger = cluster.into_ledger();
/// let secs = CostModel::mapreduce().estimate_seconds(&ledger);
/// assert!(secs >= 5.0); // one round costs at least the 5 s barrier
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-round synchronization overhead in seconds (scheduling + barrier).
    pub round_latency_s: f64,
    /// Per-machine network bandwidth in words/second (1 word = 8 bytes).
    pub words_per_second: f64,
}

impl CostModel {
    /// A datacenter-style profile: 50 ms barrier, 10 Gbit/s ≈ 156 M words/s.
    pub fn datacenter() -> Self {
        Self {
            round_latency_s: 0.05,
            words_per_second: 156.25e6,
        }
    }

    /// A MapReduce/Spark-style profile with heavyweight per-round job
    /// scheduling: 5 s barrier, 1 Gbit/s.
    pub fn mapreduce() -> Self {
        Self {
            round_latency_s: 5.0,
            words_per_second: 15.625e6,
        }
    }

    /// A geo-distributed profile: 300 ms barrier, 100 Mbit/s.
    pub fn wide_area() -> Self {
        Self {
            round_latency_s: 0.3,
            words_per_second: 1.5625e6,
        }
    }

    /// Estimated communication wall-clock for an execution:
    /// `Σ_rounds (latency + max_machine_words / bandwidth)`.
    pub fn estimate_seconds(&self, ledger: &Ledger) -> f64 {
        ledger
            .records()
            .iter()
            .map(|r| self.round_latency_s + r.max_machine_words() as f64 / self.words_per_second)
            .sum()
    }

    /// Breaks the estimate into (latency-bound, bandwidth-bound) parts —
    /// constant-round algorithms exist because the first term dominates on
    /// real clusters.
    pub fn breakdown(&self, ledger: &Ledger) -> (f64, f64) {
        let latency = ledger.rounds() as f64 * self.round_latency_s;
        let transfer: f64 = ledger
            .records()
            .iter()
            .map(|r| r.max_machine_words() as f64 / self.words_per_second)
            .sum();
        (latency, transfer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::MachineIo;

    fn ledger() -> Ledger {
        let mut l = Ledger::new(2);
        l.record_round(
            "a",
            vec![
                MachineIo {
                    sent: 100,
                    received: 0,
                },
                MachineIo {
                    sent: 0,
                    received: 100,
                },
            ],
        );
        l.record_round(
            "b",
            vec![
                MachineIo {
                    sent: 50,
                    received: 0,
                },
                MachineIo {
                    sent: 0,
                    received: 50,
                },
            ],
        );
        l
    }

    #[test]
    fn estimate_sums_latency_and_transfer() {
        let model = CostModel {
            round_latency_s: 1.0,
            words_per_second: 100.0,
        };
        let l = ledger();
        // 2 rounds × 1 s + (100 + 50) / 100 s = 3.5 s
        assert!((model.estimate_seconds(&l) - 3.5).abs() < 1e-12);
        let (lat, xfer) = model.breakdown(&l);
        assert_eq!(lat, 2.0);
        assert!((xfer - 1.5).abs() < 1e-12);
    }

    #[test]
    fn profiles_are_ordered_by_round_cost() {
        let l = ledger();
        let dc = CostModel::datacenter().estimate_seconds(&l);
        let mr = CostModel::mapreduce().estimate_seconds(&l);
        let wa = CostModel::wide_area().estimate_seconds(&l);
        assert!(
            dc < wa && wa < mr,
            "dc {dc} < wide-area {wa} < mapreduce {mr}"
        );
    }

    #[test]
    fn empty_ledger_costs_nothing() {
        let l = Ledger::new(3);
        assert_eq!(CostModel::datacenter().estimate_seconds(&l), 0.0);
    }
}
