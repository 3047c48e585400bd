//! High-QPS search-result diversification against one shared index — the
//! serving-side companion to `search_result_diversification.rs`.
//!
//! The batch example answers one k-diversity query with a full MPC run.
//! Real result pages arrive as a *stream*: documents keep being ingested
//! while thousands of small k-center / k-diversity queries hit the same
//! corpus. This example drives `mpc_serving::DiversityIndex` through that
//! shape: interleaved insert bursts and query bursts, every answer served
//! from the incrementally maintained shard coresets (lazy staleness
//! rebuilds; per-`k` answer caches on each snapshot) instead of a batch
//! re-run over all points.
//!
//! The final digest line is consumed by CI, which re-runs this binary
//! across `KCENTER_SPEED` tiers and `KCENTER_THREADS` counts and diffs
//! the output byte-for-byte — the serving path inherits the repo-wide
//! bit-determinism contract.
//!
//! ```text
//! cargo run --release --example serving_diversification [bursts] [queries_per_burst]
//! ```

use std::time::Instant;

use mpc_clustering::metric::{datasets, MetricSpace};
use mpc_clustering::serving::{DiversityIndex, IndexParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let bursts: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let queries_per_burst: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);

    let dim = 16;
    let total_points = 20_000;
    // Document embeddings: clustered topics, streamed topic-interleaved.
    let points = datasets::gaussian_clusters(total_points, dim, 12, 0.05, 29);

    let mut index = DiversityIndex::new(dim, IndexParams::new(8, 16, 29));
    let per_burst = total_points / bursts;

    let mut insert_ns = 0u128;
    let mut query_ns: Vec<u128> = Vec::with_capacity(bursts * queries_per_burst);
    let mut digest = 0u64;

    for burst in 0..bursts {
        // Ingest burst: absorb a slice of the stream (O(coreset_k)
        // distance evals per insert, no rebuilds on this path).
        let started = Instant::now();
        for i in burst * per_burst..(burst + 1) * per_burst {
            index.insert(points.coords(mpc_clustering::metric::PointId(i as u32)));
        }
        insert_ns += started.elapsed().as_nanos();

        // Query burst: one snapshot (lazy rebuilds happen here), then a
        // storm of small-k queries sharing its per-k answer cache. Vary k
        // so the cache doesn't trivialize the workload.
        let mut snap = index.snapshot();
        for q in 0..queries_per_burst {
            let k = 2 + (q % 9);
            let started = Instant::now();
            let kc = snap.kcenter(k);
            let kd = snap.kdiversity(k);
            query_ns.push(started.elapsed().as_nanos());
            digest = digest
                .wrapping_mul(0x100000001b3)
                .wrapping_add(kc.radius.to_bits())
                .wrapping_mul(0x100000001b3)
                .wrapping_add(kd.diversity.to_bits());
            for c in &kc.centers {
                digest = digest
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(c.0 as u64 + 1);
            }
            for s in &kd.subset {
                digest = digest
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(s.0 as u64 + 1);
            }
        }
    }

    query_ns.sort_unstable();
    let p = |q: f64| query_ns[((query_ns.len() - 1) as f64 * q) as usize] as f64 / 1e3;
    let stats = index.stats();
    let total_queries = bursts * queries_per_burst;

    println!(
        "Served {total_queries} k-center+k-diversity query pairs over a stream of {} documents:\n",
        stats.points
    );
    println!(
        "  insert throughput : {:>9.0} points/s  ({} shards, {} coreset rebuilds total)",
        stats.points as f64 / (insert_ns as f64 / 1e9),
        stats.shards,
        stats.rebuilds
    );
    println!(
        "  query latency     : p50 {:>8.1} µs   p95 {:>8.1} µs   p99 {:>8.1} µs",
        p(0.50),
        p(0.95),
        p(0.99)
    );
    println!("  merge slack δ     : {:>9.4}", stats.delta);

    // Observability for the local compute behind the answers: the index
    // space's cumulative fast-path kernel tallies. Tier-dependent, so they
    // go to stderr — CI's byte-diff watches stdout only.
    match index.space().kernel_stats() {
        Some(k) => eprintln!(
            "kernel tallies: single {} run / {} indexed, multi-τ {} run / {} indexed, \
             {} exact fallbacks",
            k.run_pairs, k.indexed_pairs, k.taus_run_pairs, k.taus_indexed_pairs, k.exact_fallbacks
        ),
        None => eprintln!("kernel tallies: none (exact tier)"),
    }

    println!("\nserving digest: {digest:016x}");
}
