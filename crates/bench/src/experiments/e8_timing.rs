//! E8 (Figure 4) — wall-clock scaling of the simulated pipelines.
//!
//! The simulator runs machine-local work across the rayon shim's worker
//! pool, so this measures algorithmic work, not real network time; the
//! Criterion benches in `benches/` provide the statistically rigorous
//! version of the same series. This table gives the single-shot numbers
//! for EXPERIMENTS.md. The E8-T companion table re-runs the two MPC
//! pipelines at 1 / 2 / max threads ([`rayon::with_threads`]) and reports
//! per-round wall-clock, making thread-count speedups (or, on a 1-core
//! host, pool overhead) visible in `results_tables.md`.

use std::time::Instant;

use mpc_baselines::indyk::indyk_diversity;
use mpc_baselines::malkomes::malkomes_kcenter;
use mpc_core::diversity::mpc_diversity;
use mpc_core::kcenter::{mpc_kcenter, sequential_gmm_kcenter};
use mpc_core::Params;

use crate::table::{fnum, Table};
use crate::workloads::Workload;
use crate::Scale;

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs E8.
pub fn run(scale: Scale) -> Vec<Table> {
    let seed = 19;
    let k = 10;
    let m = 8;

    let mut t = Table::new(
        "E8 (Figure 4)",
        "single-shot wall-clock (ms) of the simulated pipelines vs n (see `cargo bench` for Criterion statistics)",
        &["n", "ours k-center", "ours k-diversity", "Malkomes-4", "Indyk-6", "GMM sequential"],
    );
    let ns: Vec<usize> = scale.pick(vec![200, 400], vec![1000, 2000, 4000, 8000]);
    for &n in &ns {
        let metric = Workload::Clustered.build(n, seed);
        let params = Params::practical(m, 0.1, seed);
        let t_kc = time_ms(|| {
            let _ = mpc_kcenter(&metric, k, &params);
        });
        let t_div = time_ms(|| {
            let _ = mpc_diversity(&metric, k, &params);
        });
        let t_malk = time_ms(|| {
            let _ = malkomes_kcenter(&metric, k, &params);
        });
        let t_indyk = time_ms(|| {
            let _ = indyk_diversity(&metric, k, &params);
        });
        let t_gmm = time_ms(|| {
            let _ = sequential_gmm_kcenter(&metric, k);
        });
        t.row(vec![
            n.to_string(),
            fnum(t_kc),
            fnum(t_div),
            fnum(t_malk),
            fnum(t_indyk),
            fnum(t_gmm),
        ]);
    }

    // E8-T: the same MPC pipelines at 1 / 2 / max worker threads, with
    // per-round wall-clock. Rounds are thread-count invariant (asserted by
    // the determinism suite), so ms/round isolates the local-compute
    // speedup from the fixed round structure.
    let mut tt = Table::new(
        "E8-T",
        "wall-clock (ms) and ms/round of the MPC pipelines vs worker threads (pool default = `KCENTER_THREADS` or available parallelism)",
        &[
            "n",
            "threads",
            "k-center ms",
            "k-center ms/round",
            "k-center phases (coarse/ladder/final ms)",
            "k-diversity ms",
            "k-diversity ms/round",
        ],
    );
    let mut thread_counts = vec![1, 2, rayon::default_threads()];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let n = *ns.last().expect("scale picks at least one n");
    let metric = Workload::Clustered.build(n, seed);
    let params = Params::practical(m, 0.1, seed);
    for &threads in &thread_counts {
        rayon::with_threads(threads, || {
            let t0 = Instant::now();
            let kc = mpc_kcenter(&metric, k, &params);
            let t_kc = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let div = mpc_diversity(&metric, k, &params);
            let t_div = t0.elapsed().as_secs_f64() * 1e3;
            tt.row(vec![
                n.to_string(),
                threads.to_string(),
                fnum(t_kc),
                fnum(t_kc / kc.telemetry.rounds.max(1) as f64),
                format!(
                    "{}/{}/{}",
                    fnum(kc.telemetry.phases.coarse_s * 1e3),
                    fnum(kc.telemetry.phases.ladder_s * 1e3),
                    fnum(kc.telemetry.phases.finalize_s * 1e3)
                ),
                fnum(t_div),
                fnum(t_div / div.telemetry.rounds.max(1) as f64),
            ]);
        });
    }

    vec![t, tt]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_rows() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 2);
        // E8-T: one row per deduplicated thread count ⊆ {1, 2, max}, so
        // at least {1, 2} even on a single-core host.
        assert!(tables[1].len() >= 2);
        assert!(tables[1].len() <= 3);
    }
}
