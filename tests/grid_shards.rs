//! Shard parity for the grid k-center engine: `mpc_kcenter_grid_on`
//! gathers each machine's rows into contiguous storage of its own and runs
//! the coreset GMM, the covering radius and every rung there. This suite
//! rebuilds the same pipeline from public pieces — `gmm_coreset` and
//! `covering_radius` on `IdOnly`, a view of the space that reads it by
//! id, and a `LadderSearch` over `grid_k_bounded_mis` — and requires the
//! two to agree bit for bit: centers, radius bits, boundary rung, rounds,
//! total words, peak memory, the ledger transcript and the grid work
//! counters.
//!
//! A shard whose rows do not line up with its member list (row `j` not
//! holding point `local_sets[i][j]`) changes the coreset, the radius or a
//! rung on these inputs, so any such slip fails here.
//!
//! The recomposition shares the rung protocol with the engine, so a rung
//! change that moves both sides would still agree. `PINS` closes that gap
//! with recorded constants for d ∈ {2, 4, 8}.

use mpc_clustering::core::common::{covering_radius, gmm_coreset};
use mpc_clustering::core::grid::{grid_k_bounded_mis, mpc_kcenter_grid_on};
use mpc_clustering::core::ladder::{BoundaryMode, LadderSearch, RungEval};
use mpc_clustering::core::{Params, PartitionStrategy};
use mpc_clustering::metric::{
    datasets, EuclideanSpace, KernelStats, MetricSpace, PointId, PointSet,
};
use mpc_clustering::sim::{Cluster, Ledger};
use rayon::with_threads;

const THREADS: [usize; 3] = [1, 2, 8];

const PARTITIONS: [PartitionStrategy; 4] = [
    PartitionStrategy::RoundRobin,
    PartitionStrategy::Contiguous,
    PartitionStrategy::Random,
    PartitionStrategy::Skewed(1.5),
];

/// FNV-1a over every round's label and per-machine sent/received words.
fn ledger_fnv(ledger: &Ledger) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in ledger.records() {
        eat(r.label.as_bytes());
        for io in &r.per_machine {
            eat(&io.sent.to_le_bytes());
            eat(&io.received.to_le_bytes());
        }
    }
    h
}

/// Everything one solve must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    centers: Vec<PointId>,
    radius_bits: u64,
    boundary: usize,
    rounds: u64,
    total_words: u64,
    peak_memory: u64,
    ledger_fnv: u64,
    grid_cells: u64,
    grid_stencil_cells: u64,
    grid_pairs: u64,
}

fn digest(
    centers: Vec<PointId>,
    radius: f64,
    boundary: usize,
    ledger: &Ledger,
    grid: &KernelStats,
) -> Digest {
    Digest {
        centers,
        radius_bits: radius.to_bits(),
        boundary,
        rounds: ledger.rounds(),
        total_words: ledger.total_words(),
        peak_memory: ledger.max_machine_memory(),
        ledger_fnv: ledger_fnv(ledger),
        grid_cells: grid.grid_cells,
        grid_stencil_cells: grid.grid_stencil_cells,
        grid_pairs: grid.grid_pairs,
    }
}

/// The engine under test.
fn sharded(space: &EuclideanSpace, k: usize, params: &Params) -> Digest {
    let mut cluster = Cluster::new(params.m, params.seed);
    let res = mpc_kcenter_grid_on(&mut cluster, space, k, params);
    let grid = res.telemetry.kernels.unwrap_or_default();
    digest(
        res.centers,
        res.radius,
        res.boundary_index,
        cluster.ledger(),
        &grid,
    )
}

/// The space through its scalar oracle only: `euclidean()` keeps the
/// trait default `None`, so `gmm_coreset` and `covering_radius` read it
/// by id instead of on machine slabs.
struct IdOnly<'a>(&'a EuclideanSpace);

impl MetricSpace for IdOnly<'_> {
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

/// Grid rungs over the global space, one `grid_k_bounded_mis` each.
struct GlobalRungs<'a> {
    space: &'a EuclideanSpace,
    local_sets: &'a [Vec<u32>],
    r: f64,
    k: usize,
    epsilon: f64,
    stats: KernelStats,
}

impl RungEval for GlobalRungs<'_> {
    type Rung = Vec<u32>;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Vec<u32> {
        let tau = self.r / (1.0 + self.epsilon).powi(i as i32);
        grid_k_bounded_mis(
            cluster,
            self.space,
            self.local_sets,
            tau,
            self.k + 1,
            &mut self.stats,
        )
    }

    fn accept(&self, _i: usize, rung: &Vec<u32>) -> bool {
        rung.len() <= self.k
    }
}

/// Algorithm 5 with grid rungs, recomposed from the global-space helpers
/// in the engine's collective order.
fn recomposed(space: &EuclideanSpace, k: usize, params: &Params) -> Digest {
    let mut cluster = Cluster::new(params.m, params.seed);
    let partition = params.partition.build(space.n(), params.m, params.seed);
    let local_sets = partition.all_items().to_vec();
    let input_words: Vec<u64> = local_sets
        .iter()
        .map(|s| s.len() as u64 * space.point_weight())
        .collect();
    cluster.note_memory_all(&input_words);
    cluster.ship_shards("setup/shards", &local_sets, space.point_weight());

    let (q, _) = gmm_coreset(&mut cluster, &IdOnly(space), &local_sets, k);
    let r = covering_radius(&mut cluster, &IdOnly(space), &local_sets, &q);
    let ids = |set: &[u32]| set.iter().map(|&v| PointId(v)).collect::<Vec<_>>();
    if q.len() < k || r <= 0.0 {
        let grid = KernelStats::default();
        return digest(ids(&q), r.max(0.0), 0, cluster.ledger(), &grid);
    }

    let mut rungs = GlobalRungs {
        space,
        local_sets: &local_sets,
        r,
        k,
        epsilon: params.epsilon,
        stats: KernelStats::default(),
    };
    let mut search = LadderSearch::new(params.ladder_len(4.0, 1));
    search.seed(0, q);
    let boundary = search.search(
        &mut cluster,
        &mut rungs,
        BoundaryMode::LastAccept,
        params.boundary_search,
    );
    let centers = search.take(boundary).expect("boundary was evaluated");
    let radius = covering_radius(&mut cluster, &IdOnly(space), &local_sets, &centers);
    digest(
        ids(&centers),
        radius,
        boundary,
        cluster.ledger(),
        &rungs.stats,
    )
}

/// Checks parity at every thread count and returns the reference.
fn assert_parity(space: &EuclideanSpace, k: usize, params: &Params, what: &str) -> Digest {
    let reference = with_threads(1, || recomposed(space, k, params));
    for threads in THREADS {
        let got = with_threads(threads, || sharded(space, k, params));
        assert_eq!(got, reference, "{what} t={threads}");
    }
    reference
}

#[test]
fn every_partition_matches_the_global_recomposition() {
    let space = EuclideanSpace::new(datasets::user_embeddings(1200, 3, 6, 0.03, 1e-3, 17));
    for partition in PARTITIONS {
        let mut params = Params::practical(6, 0.1, 17);
        params.partition = partition;
        let d = assert_parity(&space, 6, &params, &format!("{partition:?}"));
        assert!(d.grid_cells > 0, "the ladder must run grid rungs");
    }
}

/// Machines above the GMM and grid-build parallel thresholds, so the
/// shard paths fan out across the pool inside one machine too.
#[test]
fn large_machines_match_the_global_recomposition() {
    let space = EuclideanSpace::new(datasets::gaussian_clusters(9000, 2, 8, 0.05, 5));
    for partition in [PartitionStrategy::RoundRobin, PartitionStrategy::Random] {
        let mut params = Params::practical(2, 0.2, 5);
        params.partition = partition;
        let d = assert_parity(&space, 8, &params, &format!("{partition:?}"));
        assert!(d.grid_cells > 0, "the ladder must run grid rungs");
    }
}

#[test]
fn empty_machines_match_the_global_recomposition() {
    // n < m: most machines hold nothing, so their shards are empty.
    let space = EuclideanSpace::new(datasets::uniform_cube(5, 2, 3));
    for partition in PARTITIONS {
        let mut params = Params::practical(8, 0.1, 3);
        params.partition = partition;
        assert_parity(&space, 2, &params, &format!("n<m {partition:?}"));
    }
}

#[test]
fn duplicate_heavy_input_matches_the_global_recomposition() {
    // 600 points on 12 distinct locations: GMM ties and zero distances
    // everywhere, and stencil cells holding dozens of coincident points.
    let rows: Vec<Vec<f64>> = (0..600)
        .map(|i| {
            let s = (i * 7 % 12) as f64;
            vec![s, (s * 0.37).sin(), (s * 1.3) % 2.0]
        })
        .collect();
    let space = EuclideanSpace::new(PointSet::from_rows(&rows));
    for partition in PARTITIONS {
        let mut params = Params::practical(5, 0.1, 11);
        params.partition = partition;
        let d = assert_parity(&space, 4, &params, &format!("dups k=4 {partition:?}"));
        assert!(
            d.grid_cells > 0,
            "k below the distinct count runs the ladder"
        );
        let d = assert_parity(&space, 12, &params, &format!("dups k=12 {partition:?}"));
        assert_eq!(
            d.radius_bits,
            0f64.to_bits(),
            "k = distinct count covers exactly"
        );
    }
}

/// FNV-1a over the center ids, count first.
fn centers_fnv(centers: &[PointId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in std::iter::once(centers.len() as u64).chain(centers.iter().map(|p| p.0 as u64)) {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One recorded solve: the input's dimension, then [`Digest`] with the
/// centers folded into one FNV.
type Pin = (usize, [u64; 10]);

/// `mpc_kcenter_grid_on` on `datasets::user_embeddings(18000, d, 16, 0.1,
/// 1e-3, 40 + d)` with k = 8, m = 4, ε = 0.1: centers FNV, radius bits,
/// boundary, rounds, total words, peak memory, ledger FNV, `grid_cells`,
/// `grid_stencil_cells`, `grid_pairs`. These are recorded constants, not
/// a recomposition, so a change to the rung kernel that moves both sides
/// of the parity tests above still fails here. d = 8 runs the 6 561-cell
/// stencil.
const PINS: [Pin; 3] = [
    (
        2,
        [
            0x3bc7_86c7_e90f_8f7a,
            0x3fdb_c88b_1838_bb1b,
            1,
            19,
            870,
            9000,
            0xd976_a39e_ba9d_3b8a,
            614,
            1593,
            334_952,
        ],
    ),
    (
        4,
        [
            0xbb2a_ec96_0760_5d0f,
            0x3fe9_2442_41dc_f794,
            0,
            17,
            1469,
            18_000,
            0xd34a_ab00_a339_4988,
            2297,
            13_203,
            403_221,
        ],
    ),
    (
        8,
        [
            0xed9a_f690_82ce_0aad,
            0x3ff2_2bd6_dc78_718c,
            1,
            25,
            2655,
            36_000,
            0x5ec6_2fcc_0007_f058,
            5496,
            1_443_420,
            584_503,
        ],
    ),
];

#[test]
fn recorded_pins_hold_at_every_thread_count() {
    for (dim, want) in PINS {
        let space = EuclideanSpace::new(datasets::user_embeddings(
            18000,
            dim,
            16,
            0.1,
            1e-3,
            40 + dim as u64,
        ));
        let params = Params::practical(4, 0.1, 40 + dim as u64);
        for threads in THREADS {
            let d = with_threads(threads, || sharded(&space, 8, &params));
            let got = [
                centers_fnv(&d.centers),
                d.radius_bits,
                d.boundary as u64,
                d.rounds,
                d.total_words,
                d.peak_memory,
                d.ledger_fnv,
                d.grid_cells,
                d.grid_stencil_cells,
                d.grid_pairs,
            ];
            assert_eq!(got, want, "d={dim} t={threads}: {got:#x?}");
        }
    }
}
