//! Served-answer parity for the serving layer: a fixed insertion stream
//! fed into a `DiversityIndex`, with a snapshot after every burst and
//! `kcenter(k)` + `kdiversity(k)` served for every k = 2..16, must digest
//! to a recorded constant at every speed tier and worker thread count.
//!
//! Snapshots run the all-pairs k-bounded MIS rungs for both objectives.
//! At d = 16 the `soa` tier answers them with the f32 SoA threshold
//! kernels and the `exact` tier with the plain f64 loop; d = 4 is below
//! the f32 path's 16-dimension floor. The d = 16 constant was recorded
//! before the snapshot ladders stopped going through a distance memo, so
//! this pins the served answers (ids, radius and diversity bits, δ bits,
//! boundary rung) against that older query path, not only against
//! itself. The d = 4 constant is what the all-pairs snapshots served
//! before the grid rung was removed from serving.

use mpc_clustering::metric::{datasets, PointId, SpeedTier};
use mpc_clustering::serving::{DiversityIndex, IndexParams};
use rayon::with_threads;

const THREADS: [usize; 3] = [1, 2, 8];
const BURSTS: usize = 3;
const POINTS: usize = 1200;
const SHARDS: usize = 8;
const CORESET_K: usize = 16;
const SEED: u64 = 41;

const TIERS: [SpeedTier; 2] = [SpeedTier::Exact, SpeedTier::Soa];

/// `(dim, digest)`.
const CASES: [(usize, u64); 2] = [(16, 0x1de0_2795_ede8_6e0e), (4, 0xf70f_c704_8227_89b3)];

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_ids(&mut self, ids: &[PointId]) {
        self.eat(ids.len() as u64);
        for p in ids {
            self.eat(p.0 as u64);
        }
    }
}

/// Streams the clustered points in `BURSTS` bursts; after each, takes a
/// snapshot and digests every served answer for k = 2..=CORESET_K.
fn served_digest(dim: usize, tier: SpeedTier) -> u64 {
    let points = datasets::gaussian_clusters(POINTS, dim, 40, 0.1, SEED);
    let mut index =
        DiversityIndex::new(dim, IndexParams::new(SHARDS, CORESET_K, SEED)).with_speed_tier(tier);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let per_burst = POINTS / BURSTS;
    for burst in 0..BURSTS {
        for i in burst * per_burst..(burst + 1) * per_burst {
            index.insert(points.coords(PointId(i as u32)));
        }
        let mut snap = index.snapshot();
        for k in 2..=CORESET_K {
            let kc = snap.kcenter(k);
            h.eat_ids(&kc.centers);
            h.eat(kc.radius.to_bits());
            h.eat(kc.union_radius.to_bits());
            h.eat(kc.delta.to_bits());
            h.eat(kc.boundary_index as u64);
            let kd = snap.kdiversity(k);
            h.eat_ids(&kd.subset);
            h.eat(kd.diversity.to_bits());
            h.eat(kd.delta.to_bits());
            h.eat(kd.boundary_index as u64);
        }
    }
    h.0
}

#[test]
fn served_answers_match_recorded_digest_at_every_thread_count() {
    for (dim, expected) in CASES {
        for tier in TIERS {
            for threads in THREADS {
                let got = with_threads(threads, || served_digest(dim, tier));
                assert_eq!(
                    got,
                    expected,
                    "d = {dim}, tier = {}, threads = {threads}: served digest {got:016x}, \
                     recorded {expected:016x}",
                    tier.name()
                );
            }
        }
    }
}
