//! Bit-exactness probe for the Algorithm 5 ladder: prints every output
//! field of `mpc_kcenter_on` (center ids, `f64` radii *as raw bits*) plus a
//! digest of the full MPC ledger, for fixed configs at 1, 2, and 8 threads.
//!
//! Diffing this program's output across a kernel-engineering change is the
//! acceptance check that the rewiring was value-preserving: the ladder's
//! centers, radii, round structure, per-machine traffic, and peak memory
//! must all be byte-for-byte identical before and after.
//!
//! `KCENTER_SPEED` sets the speed tier of every space, and
//! `KCENTER_TRANSPORT` the transport of the first two sections' clusters;
//! stdout must be byte-identical under every combination. The stderr
//! `kernels(` and `grid-kernels(` lines are deterministic work counters;
//! at the default tier they must equal `examples/ladder_digest.counters`
//! (leading blanks stripped) under either transport.
//!
//! ```text
//! cargo run --release --example ladder_digest
//! ```

use mpc_clustering::core::grid::mpc_kcenter_grid_on;
use mpc_clustering::core::kcenter::mpc_kcenter_on;
use mpc_clustering::core::Params;
use mpc_clustering::metric::{datasets, EuclideanSpace, SpeedTier};
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
    let (tier, transport) = (SpeedTier::from_env(), TransportKind::from_env());
    // The dim=32 configs matter for the speed tiers: wide rows engage the
    // SoA fast path (dim ≥ 16), so diffing this output across
    // `KCENTER_SPEED` values actually exercises them; the dim=3 configs
    // pin the narrow-row kernels. The last config is clustered embeddings
    // large enough that Alg 3's sampled-neighbour scans use the ball
    // index, so the diff also covers the pruned scans against the exact
    // oracle, which never prunes.
    for (n, dim, m, k, seed, embeddings) in [
        (900usize, 3usize, 4usize, 6usize, 42u64, false),
        (600, 3, 8, 10, 7, false),
        (700, 32, 4, 8, 21, false),
        (4000, 32, 8, 32, 5, true),
    ] {
        let points = if embeddings {
            datasets::user_embeddings(n, dim, k, 0.03, 1e-3, seed)
        } else {
            datasets::gaussian_clusters(n, dim, k, 0.05, seed)
        };
        let space = EuclideanSpace::new(points).with_speed_tier(tier);
        let params = Params::practical(m, 0.1, seed);
        for threads in [1usize, 2, 8] {
            let (res, ledger) = with_threads(threads, || {
                let mut cluster = Cluster::with_transport(m, seed, transport);
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
            // This run's fast-path kernel tallies, stderr-only for the same
            // reason: which kernel answered is tier-dependent by design;
            // *what* it answered (stdout above) must not be. CI reads the
            // dim=32 lines' `classified=` to prove the fast path engaged.
            if let Some(ks) = &res.telemetry.kernels {
                eprintln!(
                    "  kernels(dim={dim} t={threads} tier={}): classified={} {}r/{}i \
                     exact_fallbacks={}",
                    space.speed_tier().name(),
                    ks.classified_pairs(),
                    ks.run_pairs,
                    ks.indexed_pairs,
                    ks.exact_fallbacks
                );
            }
        }
    }

    // Grid-engine digest: the same bit-exactness contract for the spatial
    // hashing engine. The grid ladder touches only exact f64 distances
    // (never the SoA fast path), so these stdout lines must be
    // identical across `KCENTER_SPEED` tiers too — CI diffs them together
    // with the all-pairs lines above.
    for (n, dim, m, k, seed) in [
        (900usize, 3usize, 4usize, 6usize, 42u64),
        (800, 2, 8, 10, 7),
        (700, 8, 4, 8, 21),
    ] {
        let space = EuclideanSpace::new(datasets::user_embeddings(n, dim, k, 0.03, 1e-3, seed))
            .with_speed_tier(tier);
        let params = Params::practical(m, 0.1, seed);
        for threads in [1usize, 2, 8] {
            let (res, ledger) = with_threads(threads, || {
                let mut cluster = Cluster::with_transport(m, seed, transport);
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

    // Transport parity: the same ladder driven over the byte-level
    // loopback wire (every payload encoded into frames, transited, and
    // decoded back) must reproduce the sim reference exactly — identical
    // centers, radius bits, and ledger transcript. Transports are pinned
    // explicitly here, so these stdout lines ignore `KCENTER_TRANSPORT`
    // and take part in the CI digest diff. Wire byte
    // counters and encode/decode wall-clock go to stderr only.
    for (n, dim, m, k, seed) in [
        (900usize, 3usize, 4usize, 6usize, 42u64),
        (600, 3, 8, 10, 7),
        (700, 32, 4, 8, 21),
    ] {
        let space = EuclideanSpace::new(datasets::gaussian_clusters(n, dim, k, 0.05, seed))
            .with_speed_tier(tier);
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
