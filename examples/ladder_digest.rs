//! Bit-exactness probe for the Algorithm 5 ladder: prints every output
//! field of `mpc_kcenter_on` (center ids, `f64` radii *as raw bits*) plus a
//! digest of the full MPC ledger, for fixed configs at 1, 2, and 8 threads.
//!
//! Diffing this program's output across a kernel-engineering change is the
//! acceptance check that the rewiring was value-preserving: the ladder's
//! centers, radii, round structure, per-machine traffic, and peak memory
//! must all be byte-for-byte identical before and after.
//!
//! ```text
//! cargo run --release --example ladder_digest
//! ```

use mpc_clustering::core::grid::mpc_kcenter_grid_on;
use mpc_clustering::core::kcenter::mpc_kcenter_on;
use mpc_clustering::core::Params;
use mpc_clustering::metric::{datasets, EuclideanSpace, MetricSpace, PointId};
use mpc_clustering::sim::{Cluster, TransportKind};
use rayon::with_threads;

/// FNV-1a over a byte stream; enough to fingerprint a ledger transcript.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn main() {
    // The dim=32 config matters for the speed tiers: wide rows engage the
    // SoA/sketch fast paths (dim ≥ 16), so diffing this output across
    // `KCENTER_SPEED` values actually exercises them; the dim=3 configs
    // pin the narrow-row kernels.
    for (n, dim, m, k, seed) in [
        (900usize, 3usize, 4usize, 6usize, 42u64),
        (600, 3, 8, 10, 7),
        (700, 32, 4, 8, 21),
    ] {
        let space = EuclideanSpace::new(datasets::gaussian_clusters(n, dim, k, 0.05, seed));
        let params = Params::practical(m, 0.1, seed);
        for threads in [1usize, 2, 8] {
            let (res, ledger) = with_threads(threads, || {
                let mut cluster = Cluster::new(m, seed);
                let out = mpc_kcenter_on(&mut cluster, &space, k, &params);
                (out, cluster.into_ledger())
            });
            let mut h = Fnv::new();
            for r in ledger.records() {
                h.eat(r.label.as_bytes());
                for io in &r.per_machine {
                    h.eat(&io.sent.to_le_bytes());
                    h.eat(&io.received.to_le_bytes());
                }
            }
            println!(
                "n={n} dim={dim} m={m} k={k} seed={seed} t={threads} centers={:?} \
                 radius={:016x} coarse_r={:016x} boundary={} rounds={} \
                 words={} peak_mem={} evals={} probes={} ledger_fnv={:016x}",
                res.centers,
                res.radius.to_bits(),
                res.coarse_r.to_bits(),
                res.boundary_index,
                ledger.rounds(),
                ledger.total_words(),
                ledger.max_machine_memory(),
                res.telemetry.ladder_evals,
                res.telemetry.ladder_probes,
                h.0
            );
            // Wall-clock phase split on stderr only: it is host- and
            // thread-dependent, and stdout must stay byte-diffable.
            eprintln!(
                "  phases(t={threads}): coarse={:.4}s ladder={:.4}s finalize={:.4}s",
                res.telemetry.phases.coarse_s,
                res.telemetry.phases.ladder_s,
                res.telemetry.phases.finalize_s
            );
            // Fast-path kernel tallies, stderr-only for the same reason:
            // which kernel answered is tier-dependent by design; *what* it
            // answered (stdout above) must not be.
            if let Some(ks) = &res.telemetry.kernels {
                eprintln!(
                    "  kernels(t={threads} tier={}): single {}r/{}i multi-τ {}r/{}i \
                     sketch_rejects={} exact_fallbacks={}",
                    space.speed_tier().name(),
                    ks.run_pairs,
                    ks.indexed_pairs,
                    ks.taus_run_pairs,
                    ks.taus_indexed_pairs,
                    ks.sketch_rejects,
                    ks.exact_fallbacks
                );
            }
        }
    }

    // Grid-engine digest: the same bit-exactness contract for the spatial
    // hashing engine. The grid ladder touches only exact f64 distances
    // (never the SoA/sketch fast paths), so these stdout lines must be
    // identical across `KCENTER_SPEED` tiers too — CI diffs them together
    // with the all-pairs lines above.
    for (n, dim, m, k, seed) in [
        (900usize, 3usize, 4usize, 6usize, 42u64),
        (800, 2, 8, 10, 7),
        (700, 8, 4, 8, 21),
    ] {
        let space = EuclideanSpace::new(datasets::user_embeddings(n, dim, k, 0.03, 1e-3, seed));
        let params = Params::practical(m, 0.1, seed);
        for threads in [1usize, 2, 8] {
            let (res, ledger) = with_threads(threads, || {
                let mut cluster = Cluster::new(m, seed);
                let out = mpc_kcenter_grid_on(&mut cluster, &space, k, &params);
                (out, cluster.into_ledger())
            });
            let mut h = Fnv::new();
            for r in ledger.records() {
                h.eat(r.label.as_bytes());
                for io in &r.per_machine {
                    h.eat(&io.sent.to_le_bytes());
                    h.eat(&io.received.to_le_bytes());
                }
            }
            println!(
                "engine=grid n={n} dim={dim} m={m} k={k} seed={seed} t={threads} \
                 centers={:?} radius={:016x} coarse_r={:016x} boundary={} rounds={} \
                 words={} peak_mem={} evals={} probes={} ledger_fnv={:016x}",
                res.centers,
                res.radius.to_bits(),
                res.coarse_r.to_bits(),
                res.boundary_index,
                ledger.rounds(),
                ledger.total_words(),
                ledger.max_machine_memory(),
                res.telemetry.ladder_evals,
                res.telemetry.ladder_probes,
                h.0
            );
            // Grid tallies on stderr: cell counts are deterministic, but
            // only the ladder outputs above take part in the CI diff.
            if let Some(ks) = &res.telemetry.kernels {
                eprintln!(
                    "  grid-kernels(t={threads}): cells={} stencil_cells={} pairs={}",
                    ks.grid_cells, ks.grid_stencil_cells, ks.grid_pairs
                );
            }
        }
    }

    // Direct multi-τ sweep digest: one candidate pass classified against a
    // whole rung schedule through `count_within_taus` /
    // `neighbors_within_taus`. The k-center runs above reach these kernels
    // through the distance memo; this section pins them raw, so a tier- or
    // thread-dependent rung verdict cannot hide behind caching.
    let (n, dim) = (4_000usize, 32usize);
    let space = EuclideanSpace::new(datasets::gaussian_clusters(n, dim, 8, 0.05, 11));
    let candidates: Vec<u32> = (0..n as u32).collect();
    let base = space.dist(PointId(0), PointId(n as u32 / 2));
    let rungs: Vec<f64> = (0..12).map(|i| base * 0.15 * 1.25f64.powi(i)).collect();
    for threads in [1usize, 2, 8] {
        let mut h = Fnv::new();
        with_threads(threads, || {
            for v in (0..n as u32).step_by(n / 16) {
                for c in space.count_within_taus(PointId(v), &candidates, &rungs) {
                    h.eat(&(c as u64).to_le_bytes());
                }
                for row in space.neighbors_within_taus(PointId(v), &candidates, &rungs) {
                    h.eat(&(row.len() as u64).to_le_bytes());
                    for c in row {
                        h.eat(&c.to_le_bytes());
                    }
                }
            }
        });
        println!(
            "taus-sweep n={n} dim={dim} rungs={} t={threads} digest={:016x}",
            rungs.len(),
            h.0
        );
    }
    if let Some(ks) = space.kernel_stats() {
        eprintln!(
            "  taus-sweep kernels (tier={}): multi-τ {}r/{}i sketch_rejects={} \
             exact_fallbacks={}",
            space.speed_tier().name(),
            ks.taus_run_pairs,
            ks.taus_indexed_pairs,
            ks.sketch_rejects,
            ks.exact_fallbacks
        );
    }

    // Transport parity: the same ladder driven over the byte-level
    // loopback wire (every payload encoded into frames, transited, and
    // decoded back) must reproduce the sim reference exactly — identical
    // centers, radius bits, and ledger transcript. Transports are pinned
    // explicitly here, so these stdout lines are also invariant under
    // `KCENTER_TRANSPORT` and take part in the CI digest diff. Wire byte
    // counters and encode/decode wall-clock go to stderr only.
    for (n, dim, m, k, seed) in [
        (900usize, 3usize, 4usize, 6usize, 42u64),
        (600, 3, 8, 10, 7),
        (700, 32, 4, 8, 21),
    ] {
        let space = EuclideanSpace::new(datasets::gaussian_clusters(n, dim, k, 0.05, seed));
        let params = Params::practical(m, 0.1, seed);
        for threads in [1usize, 2, 8] {
            let run = |kind: TransportKind| {
                with_threads(threads, || {
                    let mut cluster = Cluster::with_transport(m, seed, kind);
                    let out = mpc_kcenter_on(&mut cluster, &space, k, &params);
                    let wire = cluster.wire_summary();
                    (out, cluster.into_ledger(), wire)
                })
            };
            let (sim_res, sim_ledger, _) = run(TransportKind::Sim);
            let (loop_res, loop_ledger, wire) = run(TransportKind::Loopback);
            // A transcript mismatch aborts the whole digest run loudly —
            // better than printing lines CI would diff as "clean".
            loop_ledger.assert_identical(&sim_ledger, "loopback vs sim ladder");
            assert_eq!(sim_res.centers, loop_res.centers, "center parity");
            assert_eq!(
                sim_res.radius.to_bits(),
                loop_res.radius.to_bits(),
                "radius bit parity"
            );
            let mut h = Fnv::new();
            for r in loop_ledger.records() {
                h.eat(r.label.as_bytes());
                for io in &r.per_machine {
                    h.eat(&io.sent.to_le_bytes());
                    h.eat(&io.received.to_le_bytes());
                }
            }
            let wire = wire.expect("loopback keeps wire stats");
            println!(
                "transport-parity n={n} dim={dim} m={m} k={k} seed={seed} t={threads} \
                 radius={:016x} rounds={} ledger_fnv={:016x} wire_rounds={} \
                 payload_bytes={} overhead_bytes={} setup_bytes={} violations={}",
                loop_res.radius.to_bits(),
                loop_ledger.rounds(),
                h.0,
                wire.rounds,
                wire.payload_bytes,
                wire.overhead_bytes,
                wire.setup_bytes,
                wire.conformance_violations
            );
            eprintln!(
                "  wire(t={threads}): frames={} encode={:.4}s decode={:.4}s transit={:.4}s \
                 arena_high_water={}B",
                wire.frames,
                wire.encode_s,
                wire.decode_s,
                wire.transit_s,
                wire.arena_high_water_bytes
            );
        }
    }
}
