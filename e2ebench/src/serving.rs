//! The serving workload: a `DiversityIndex` fed a clustered stream in
//! bursts, refreshed by a snapshot after each burst and queried for
//! `kcenter(k)` and `kdiversity(k)` at every `k` in `2..=coreset_k`.
//! Every snapshot is fresh and every `k` is asked once per snapshot, so
//! the per-`k` answer caches never hide the ladder.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use mpc_core::diversity::sequential_gmm_diversity;
use mpc_core::kcenter::sequential_gmm_kcenter;
use mpc_core::MemoStats;
use mpc_metric::{datasets, dist_point_to_set, min_pairwise_distance, PointId, PointSet};
use mpc_serving::{DiversityIndex, IndexParams, ServedDiversity, ServedKCenter, Snapshot};

use crate::batch::{
    instance_seed, memo_metrics, report_times, MAX_SETUPS, MIN_ROUNDS, MIN_SETUPS, SETUP_BUDGET_S,
};
use crate::calibrate::Probe;
use crate::report::{median, percentile, Report};

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub dim: usize,
    pub shards: usize,
    pub coreset_k: usize,
    /// Stream length of one replay pass.
    pub n: usize,
    /// Inserts between two snapshots.
    pub burst: usize,
    pub clusters: usize,
    pub sigma: f64,
    pub drift: f64,
    /// Independent streams replayed per round.
    pub instances: usize,
}

impl Shape {
    /// The set-up step: the replay stream.
    pub fn generate(&self, seed: u64) -> PointSet {
        datasets::user_embeddings(
            self.n,
            self.dim,
            self.clusters,
            self.sigma,
            self.drift,
            seed,
        )
    }

    fn ks(&self) -> std::ops::RangeInclusive<usize> {
        2..=self.coreset_k
    }
}

/// Everything one replay pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub inserts: usize,
    pub insert_s: f64,
    /// Per burst: inserts, snapshot and every query.
    pub cycle_s: Vec<f64>,
    pub snapshot_s: Vec<f64>,
    /// Per query; the first query after a burst includes its snapshot.
    pub query_s: Vec<f64>,
    pub kcenter_s: Vec<f64>,
    pub kdiversity_s: Vec<f64>,
    pub memo: MemoStats,
    pub rebuilds: u64,
    pub union_size: usize,
    pub delta: f64,
    /// Digest of every served answer, for the determinism check.
    pub digest: u64,
    /// Served objective against the sequential reference at the final
    /// burst (filled only when asked for).
    pub quality: Option<f64>,
}

fn check_kcenter(snap: &Snapshot<'_>, k: usize, a: &ServedKCenter) -> Result<(), String> {
    if a.centers.is_empty() || a.centers.len() > k {
        return Err(format!("kcenter({k}) served {} centers", a.centers.len()));
    }
    distinct_in_union(snap, &a.centers)?;
    let space = snap.space();
    let union_radius = snap
        .union()
        .iter()
        .map(|&u| dist_point_to_set(space, PointId(u), &a.centers))
        .fold(0.0f64, f64::max);
    if union_radius.to_bits() != a.union_radius.to_bits() || a.radius != a.union_radius + a.delta {
        return Err(format!(
            "kcenter({k}) radius {} / union radius {} but recheck gives {union_radius}",
            a.radius, a.union_radius
        ));
    }
    Ok(())
}

fn check_diversity(snap: &Snapshot<'_>, k: usize, a: &ServedDiversity) -> Result<(), String> {
    if a.subset.len() != k {
        return Err(format!("kdiversity({k}) served {} points", a.subset.len()));
    }
    distinct_in_union(snap, &a.subset)?;
    let recheck = min_pairwise_distance(snap.space(), &a.subset);
    if recheck.to_bits() != a.diversity.to_bits() || recheck.is_nan() || recheck <= 0.0 {
        return Err(format!(
            "kdiversity({k}) diversity {} but recheck gives {recheck}",
            a.diversity
        ));
    }
    Ok(())
}

fn distinct_in_union(snap: &Snapshot<'_>, ids: &[PointId]) -> Result<(), String> {
    let mut v: Vec<u32> = ids.iter().map(|p| p.0).collect();
    v.sort_unstable();
    v.dedup();
    if v.len() != ids.len() {
        return Err("duplicate points served".into());
    }
    match v.iter().find(|id| !snap.union().contains(id)) {
        Some(id) => Err(format!("point {id} served from outside the coreset union")),
        None => Ok(()),
    }
}

/// The served answers at the final burst against sequential Gonzalez on
/// every indexed point, oriented so lower is better and averaged over all
/// queries; each answer must also meet its certified bound
/// (`2(1+ε)·r* + (3+2ε)·δ` for k-center, `(div_k − 2δ)/(2(1+ε))` for
/// diversity).
fn final_quality(
    shape: &Shape,
    snap: &Snapshot<'_>,
    served: &[(ServedKCenter, ServedDiversity)],
    epsilon: f64,
) -> Result<f64, String> {
    let space = snap.space();
    let mut ratios = Vec::new();
    for (k, (kc, kd)) in shape.ks().zip(served) {
        let r_ref = sequential_gmm_kcenter(space, k).radius;
        let d_ref = sequential_gmm_diversity(space, k).diversity;
        if kc.radius > 2.0 * (1.0 + epsilon) * r_ref + (3.0 + 2.0 * epsilon) * kc.delta + 1e-9 {
            return Err(format!(
                "kcenter({k}) radius {} breaks its bound",
                kc.radius
            ));
        }
        if kd.diversity < (d_ref - 2.0 * kd.delta) / (2.0 * (1.0 + epsilon)) - 1e-9 {
            return Err(format!(
                "kdiversity({k}) diversity {} breaks its bound",
                kd.diversity
            ));
        }
        ratios.push(kc.radius / r_ref);
        ratios.push(d_ref / kd.diversity);
    }
    Ok(ratios.iter().sum::<f64>() / ratios.len() as f64)
}

/// One replay pass over a fresh index. Each served query is one
/// operation in `report`.
pub fn pass(
    shape: &Shape,
    stream: &PointSet,
    seed: u64,
    report: &mut Report,
    with_quality: bool,
) -> Pass {
    let params = IndexParams::new(shape.shards, shape.coreset_k, seed);
    let epsilon = params.epsilon;
    let mut index = DiversityIndex::new(shape.dim, params);
    let mut out = Pass::default();
    let mut digest = std::collections::hash_map::DefaultHasher::new();
    let bursts = shape.n / shape.burst;
    for b in 0..bursts {
        let started = Instant::now();
        for i in b * shape.burst..(b + 1) * shape.burst {
            index.insert(stream.coords(PointId(i as u32)));
        }
        let insert_s = started.elapsed().as_secs_f64();
        out.inserts += shape.burst;
        out.insert_s += insert_s;

        let started = Instant::now();
        let mut snap = index.snapshot();
        let snapshot_s = started.elapsed().as_secs_f64();
        out.snapshot_s.push(snapshot_s);
        let mut cycle_s = insert_s + snapshot_s;
        let mut served = Vec::new();
        for k in shape.ks() {
            let started = Instant::now();
            let kc = snap.kcenter(k);
            let kc_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let kd = snap.kdiversity(k);
            let kd_s = started.elapsed().as_secs_f64();
            cycle_s += kc_s + kd_s;
            let first = if k == 2 { snapshot_s } else { 0.0 };
            out.query_s.extend([kc_s + first, kd_s]);
            out.kcenter_s.push(kc_s);
            out.kdiversity_s.push(kd_s);
            report.op("kcenter query", check_kcenter(&snap, k, &kc));
            report.op("kdiversity query", check_diversity(&snap, k, &kd));
            kc.radius.to_bits().hash(&mut digest);
            kd.diversity.to_bits().hash(&mut digest);
            served.push((kc, kd));
        }
        out.cycle_s.push(cycle_s);
        let memo = snap.memo_stats();
        out.memo.hits += memo.hits;
        out.memo.misses += memo.misses;
        out.memo.sorted_builds += memo.sorted_builds;
        out.memo.stored_words = out.memo.stored_words.max(memo.stored_words);
        out.union_size = snap.union().len();
        out.delta = snap.delta();
        if with_quality && b + 1 == bursts {
            match final_quality(shape, &snap, &served, epsilon) {
                Ok(q) => out.quality = Some(q),
                Err(e) => report.op("served quality", Err(e)),
            }
        }
    }
    out.rebuilds = index.stats().rebuilds;
    out.digest = digest.finish();
    out
}

/// One stream of a run and what its passes measured.
struct Stream {
    points: PointSet,
    seed: u64,
    passes: Vec<Pass>,
}

/// One benchmark run of the serving workload: set up every stream a few
/// times, warm up with one pass, then replay every stream once per round
/// until the time is up.
pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::new();
    let mut probe = Probe::new();
    let mut setups = Vec::new();
    let mut sets = Vec::new();
    while setups.len() < MIN_SETUPS
        || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < MAX_SETUPS)
    {
        sets.clear();
        probe.sample();
        let started = Instant::now();
        sets.extend((0..shape.instances).map(|j| shape.generate(instance_seed(seed, j))));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut streams: Vec<Stream> = sets
        .into_iter()
        .enumerate()
        .map(|(j, points)| Stream {
            points,
            seed: instance_seed(seed, j),
            passes: Vec::new(),
        })
        .collect();

    pass(
        shape,
        &streams[0].points,
        streams[0].seed,
        &mut report,
        false,
    );

    // The first pass of each stream also computes its quality and sets the
    // digest every later pass must reproduce.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let min_rounds = if trace { 1 } else { MIN_ROUNDS };
    let mut rounds = 0;
    while rounds < min_rounds || Instant::now() < deadline {
        rounds += 1;
        for st in &mut streams {
            probe.sample();
            let p = pass(
                shape,
                &st.points,
                st.seed,
                &mut report,
                st.passes.is_empty(),
            );
            if st
                .passes
                .first()
                .is_some_and(|first| first.digest != p.digest)
            {
                report.op(
                    "determinism",
                    Err("a replay pass served different answers".into()),
                );
            }
            st.passes.push(p);
        }
    }
    let mean =
        |f: &dyn Fn(&Stream) -> f64| streams.iter().map(f).sum::<f64>() / streams.len() as f64;
    let pooled = |f: &dyn Fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        streams
            .iter()
            .flat_map(|s| s.passes.iter().flat_map(|p| f(p).iter().copied()))
            .collect()
    };
    let solve_s = mean(&|s| {
        median(
            &s.passes
                .iter()
                .flat_map(|p| p.cycle_s.iter().copied())
                .collect::<Vec<_>>(),
        )
    });
    report_times(&mut report, &probe, median(&setups), solve_s);
    report.set(
        "quality_ratio",
        mean(&|s| s.passes[0].quality.unwrap_or(f64::NAN)),
    );
    if trace {
        let all_passes = || streams.iter().flat_map(|s| s.passes.iter());
        let queries = pooled(&|p| &p.query_s);
        let inserts: usize = all_passes().map(|p| p.inserts).sum();
        let insert_s: f64 = all_passes().map(|p| p.insert_s).sum();
        report.set(
            "serving.insert_s",
            median(&all_passes().map(|p| p.insert_s).collect::<Vec<_>>()),
        );
        report.set("serving.insert_per_s", inserts as f64 / insert_s);
        report.set(
            "serving.snapshot_ms",
            1e3 * median(&pooled(&|p| &p.snapshot_s)),
        );
        report.set("serving.query_p50_ms", 1e3 * median(&queries));
        report.set("serving.query_p99_ms", 1e3 * percentile(&queries, 99.0));
        report.set("serving.query_samples", queries.len() as f64);
        report.set(
            "serving.kcenter_ms",
            1e3 * median(&pooled(&|p| &p.kcenter_s)),
        );
        report.set(
            "serving.kdiversity_ms",
            1e3 * median(&pooled(&|p| &p.kdiversity_s)),
        );
        // Counts: one pass of every stream.
        let firsts: Vec<&Pass> = streams.iter().map(|s| &s.passes[0]).collect();
        report.set(
            "serving.rebuilds",
            firsts.iter().map(|p| p.rebuilds as f64).sum(),
        );
        report.set(
            "serving.union_size",
            firsts.iter().map(|p| p.union_size as f64).sum(),
        );
        report.set("serving.delta", mean(&|s| s.passes[0].delta));
        let mut memo = MemoStats::default();
        for p in &firsts {
            memo.hits += p.memo.hits;
            memo.misses += p.memo.misses;
            memo.sorted_builds += p.memo.sorted_builds;
            memo.stored_words += p.memo.stored_words;
        }
        report.set(
            "serving.memo_hit_ratio",
            memo.hits as f64 / (memo.hits + memo.misses).max(1) as f64,
        );
        memo_metrics(&mut report, &memo);
        // The serving trace reads the timers the untraced run keeps, so it
        // adds no probe: its overhead is 0, and its spans (inserts,
        // snapshot, queries) tile each cycle.
        report.set("trace.phase_coverage", 1.0);
        report.set("trace.overhead", 0.0);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Shape {
        Shape {
            dim: 4,
            shards: 2,
            coreset_k: 5,
            n: 300,
            burst: 100,
            clusters: 3,
            sigma: 0.05,
            drift: 1e-3,
            instances: 2,
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let shape = tiny();
        assert_eq!(shape.generate(3), shape.generate(3));
        assert_ne!(shape.generate(3), shape.generate(4));
    }

    #[test]
    fn passes_replay_identically_and_check_clean() {
        let shape = tiny();
        let stream = shape.generate(3);
        let mut report = Report::new();
        let a = pass(&shape, &stream, 3, &mut report, true);
        let b = pass(&shape, &stream, 3, &mut report, false);
        assert_eq!(a.digest, b.digest);
        assert!(report.correct && report.failed == 0);
        // Two passes, three bursts, kcenter + kdiversity at k = 2..=5.
        assert_eq!(report.attempted, 2 * 3 * 8);
        assert!(a.quality.is_some_and(|q| q > 0.0));
    }

    #[test]
    fn a_tampered_served_answer_fails_its_check() {
        let shape = tiny();
        let stream = shape.generate(3);
        let mut index = DiversityIndex::new(
            shape.dim,
            IndexParams::new(shape.shards, shape.coreset_k, 3),
        );
        for i in 0..shape.n {
            index.insert(stream.coords(PointId(i as u32)));
        }
        let mut snap = index.snapshot();
        let mut kc = snap.kcenter(3);
        let mut kd = snap.kdiversity(3);
        assert_eq!(check_kcenter(&snap, 3, &kc), Ok(()));
        assert_eq!(check_diversity(&snap, 3, &kd), Ok(()));
        kc.union_radius *= 0.5;
        kd.subset[1] = kd.subset[0];
        assert!(check_kcenter(&snap, 3, &kc).is_err());
        assert!(check_diversity(&snap, 3, &kd).is_err());
    }

    #[test]
    fn tiny_run_reports_every_metric() {
        let report = run(&tiny(), 2, 0.01, true);
        assert!(report.correct);
        assert!(report.values["serving.query_samples"] > 0.0);
        assert!(report.values["solve_s"] > 0.0 && report.values["quality_ratio"] > 0.0);
    }
}
