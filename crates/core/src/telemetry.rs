//! Execution summaries extracted from the simulator ledger.

use mpc_metric::KernelStats;
use mpc_sim::{Ledger, WireSummary};

/// Coarse wall-clock phase breakdown of one end-to-end run, in seconds:
/// the coarse estimate (GMM coresets + covering radius), the τ-ladder
/// boundary search, and the finalization step (realized radius /
/// assignment). Wall-clock only — host- and thread-count-dependent, and
/// deliberately **not** part of any determinism or neutrality contract
/// (those pin the ledger, which has no time dimension).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Coarse estimate: coreset construction and the first covering radius.
    pub coarse_s: f64,
    /// The τ-ladder boundary search (every rung evaluation).
    pub ladder_s: f64,
    /// Finalization: realized radius / final assignment after the search.
    pub finalize_s: f64,
}

impl PhaseTimes {
    /// Total tracked wall-clock time.
    pub fn total_s(&self) -> f64 {
        self.coarse_s + self.ladder_s + self.finalize_s
    }
}

/// Summary of one MPC execution — the measured counterparts of the paper's
/// claimed complexities (rounds, `Õ(mk)` communication per machine).
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// MPC rounds consumed.
    pub rounds: u64,
    /// Largest per-machine traffic in any single round (the MPC constraint).
    pub max_machine_words_per_round: u64,
    /// Largest total traffic through any one machine over the whole run —
    /// the paper's communication-per-machine measure.
    pub max_machine_words: u64,
    /// Total words moved across all machines and rounds.
    pub total_words: u64,
    /// Number of recorded communication-budget violations.
    pub violations: usize,
    /// Largest peak resident memory noted on any machine (words) — the
    /// paper's `Õ(n/m + mk)` memory measure.
    pub max_machine_memory: u64,
    /// Wall-clock phase breakdown (zeroed until the driver stamps it).
    pub phases: PhaseTimes,
    /// Ladder rungs actually evaluated (MPC work done) by the boundary
    /// search; 0 for runs without a ladder.
    pub ladder_evals: u64,
    /// Accept-predicate probes issued by the boundary search, including
    /// rung-cache hits; 0 for runs without a ladder.
    pub ladder_probes: u64,
    /// Metric-space fast-path kernel tallies snapshotted when the run
    /// finished; `None` when the space keeps none (exact tier, or a
    /// non-SIMD space). Cumulative per space, so a run's own hits are the
    /// delta against a snapshot taken at its start. Local-compute
    /// observability only: the kernels never touch the ledger.
    pub kernels: Option<KernelStats>,
    /// Transport wire measurements: per-run byte totals plus
    /// encode/decode/transit wall-clock, stamped by drivers from
    /// [`mpc_sim::Cluster::wire_summary`]. `None` on the `sim` backend,
    /// which moves no bytes. Like `phases`, the time fields are host
    /// wall-clock and outside every determinism contract; the byte fields
    /// equal `8 ×` the corresponding ledger words when conformant.
    pub wire: Option<WireSummary>,
}

impl Telemetry {
    /// Summarizes a ledger.
    pub fn from_ledger(ledger: &Ledger) -> Self {
        Self {
            rounds: ledger.rounds(),
            max_machine_words_per_round: ledger.max_machine_words_per_round(),
            max_machine_words: ledger.max_machine_words(),
            total_words: ledger.total_words(),
            violations: ledger.violations().len(),
            max_machine_memory: ledger.max_machine_memory(),
            phases: PhaseTimes::default(),
            ladder_evals: 0,
            ladder_probes: 0,
            kernels: None,
            wire: None,
        }
    }

    /// The all-zero telemetry of a purely sequential execution.
    pub fn zero() -> Self {
        Self {
            rounds: 0,
            max_machine_words_per_round: 0,
            max_machine_words: 0,
            total_words: 0,
            violations: 0,
            max_machine_memory: 0,
            phases: PhaseTimes::default(),
            ladder_evals: 0,
            ladder_probes: 0,
            kernels: None,
            wire: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_sim::MachineIo;

    #[test]
    fn summarizes_ledger() {
        let mut l = Ledger::new(2);
        l.record_round(
            "a",
            vec![
                MachineIo {
                    sent: 4,
                    received: 0,
                },
                MachineIo {
                    sent: 0,
                    received: 4,
                },
            ],
        );
        let t = Telemetry::from_ledger(&l);
        assert_eq!(t.rounds, 1);
        assert_eq!(t.max_machine_words_per_round, 4);
        assert_eq!(t.max_machine_words, 4);
        assert_eq!(t.total_words, 4);
        assert_eq!(t.violations, 0);
    }
}
