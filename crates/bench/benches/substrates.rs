//! Microbenchmarks of the substrates: distance kernels, GMM, trim, and the
//! simulator collectives — the building blocks whose costs dominate the
//! pipelines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_bench::workloads::Workload;
use mpc_core::gmm::gmm;
use mpc_graph::mis::{trim, TieBreak};
use mpc_graph::{GraphView, ThresholdGraph};
use mpc_metric::{datasets, EuclideanSpace, HammingSpace, MetricSpace, PointId};
use mpc_sim::Cluster;

/// Re-exposes a space through `n`/`dist`/`point_weight` only, so every
/// threshold query falls back to the `MetricSpace` trait defaults —
/// per-pair `within` via `dist`, sqrt included. This is exactly the
/// pre-kernel hot path (the `&M` blanket impl used to drop the `within`
/// override too), and the baseline the `kernels/*` benchmarks compare
/// against.
struct ScalarOnly<M>(M);

impl<M: MetricSpace> MetricSpace for ScalarOnly<M> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn dist(&self, i: PointId, j: PointId) -> f64 {
        self.0.dist(i, j)
    }
    fn point_weight(&self) -> u64 {
        self.0.point_weight()
    }
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metric-dist");
    for dim in [2usize, 16, 128] {
        let e = EuclideanSpace::new(datasets::uniform_cube(1000, dim, 1));
        group.bench_with_input(BenchmarkId::new("euclidean", dim), &dim, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..999u32 {
                    acc += e.dist(PointId(i), PointId(i + 1));
                }
                acc
            })
        });
    }
    let h = HammingSpace::from_set_bits(1000, 256, &datasets::random_bitsets(1000, 256, 0.3, 1));
    group.bench_function("hamming-256b", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..999u32 {
                acc += h.dist(PointId(i), PointId(i + 1));
            }
            acc
        })
    });
    group.finish();
}

fn bench_gmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gmm");
    group.sample_size(10);
    for n in [1000usize, 10_000] {
        let metric = Workload::Uniform.build(n, 42);
        let subset: Vec<u32> = (0..n as u32).collect();
        group.bench_with_input(BenchmarkId::new("k32", n), &n, |b, _| {
            b.iter(|| gmm(&metric, &subset, 32))
        });
    }
    group.finish();
}

fn bench_trim(c: &mut Criterion) {
    let n = 2000;
    let metric = Workload::Uniform.build(n, 42);
    let tau = mpc_bench::distance_quantile(&metric, 0.2, 42);
    let g = ThresholdGraph::new(&metric, tau);
    let sample: Vec<u32> = (0..n as u32).step_by(4).collect();
    let weights: Vec<f64> = (0..n).map(|i| ((i * 31) % 97) as f64).collect();
    c.bench_function("trim-500-sample", |b| {
        b.iter(|| trim(&g, &sample, &weights, TieBreak::ById))
    });
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim-collectives");
    for m in [8usize, 64] {
        group.bench_with_input(BenchmarkId::new("all_broadcast", m), &m, |b, &m| {
            b.iter(|| {
                let mut cluster = Cluster::new(m, 1);
                let contributions: Vec<Vec<u32>> = (0..m).map(|i| vec![i as u32; 100]).collect();
                cluster.all_broadcast("bench", contributions, 2)
            })
        });
    }
    group.finish();
}

/// Scalar-vs-batched threshold kernels (`BENCH_kernels.json`): the same
/// `count_within` / `degree_among` queries answered by the per-pair loop
/// default and by the specialized flat-storage kernels, across dimensions
/// and candidate-set sizes.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    for dim in [4usize, 32] {
        for n in [1_000usize, 10_000, 100_000] {
            let metric = EuclideanSpace::new(datasets::uniform_cube(n, dim, 7));
            let scalar = ScalarOnly(metric.clone());
            let tau = mpc_bench::distance_quantile(&metric, 0.2, 7);
            let candidates: Vec<u32> = (0..n as u32).collect();
            group.bench_with_input(
                BenchmarkId::new(format!("euclidean-count-batched-d{dim}"), n),
                &n,
                |b, _| b.iter(|| metric.count_within(PointId(0), &candidates, tau)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("euclidean-count-scalar-d{dim}"), n),
                &n,
                |b, _| b.iter(|| scalar.count_within(PointId(0), &candidates, tau)),
            );
            // The graph-layer consumers the algorithms actually call.
            let g_fast = ThresholdGraph::new(&metric, tau);
            let g_slow = ThresholdGraph::new(&scalar, tau);
            group.bench_with_input(
                BenchmarkId::new(format!("degree-among-batched-d{dim}"), n),
                &n,
                |b, _| b.iter(|| g_fast.degree_among(0, &candidates)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("degree-among-scalar-d{dim}"), n),
                &n,
                |b, _| b.iter(|| g_slow.degree_among(0, &candidates)),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_metrics,
    bench_gmm,
    bench_trim,
    bench_collectives,
    bench_kernels
);
criterion_main!(benches);
