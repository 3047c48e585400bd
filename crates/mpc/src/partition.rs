//! Distribution of input items across machines.
//!
//! The paper assumes "the input set V is initially partitioned into m
//! subsets V_1, …, V_m, each stored in one of the machines" (§2) and its
//! guarantees are oblivious to *how*. These constructors let experiments
//! probe that obliviousness, from balanced to adversarially skewed layouts.

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An assignment of items `0..n` to machines `0..m`.
///
/// ```
/// use mpc_sim::Partition;
///
/// let p = Partition::round_robin(10, 3);
/// assert_eq!(p.items(0), &[0, 3, 6, 9]);
/// assert_eq!(p.owner(4), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    per_machine: Vec<Vec<u32>>,
    owner: Vec<u32>,
}

impl Partition {
    fn from_owner(m: usize, owner: Vec<u32>) -> Self {
        let mut per_machine = vec![Vec::new(); m];
        for (item, &mach) in owner.iter().enumerate() {
            per_machine[mach as usize].push(item as u32);
        }
        Self { per_machine, owner }
    }

    /// Item `i` goes to machine `i mod m` (perfectly balanced, every
    /// machine sees an interleaved slice of the input order).
    pub fn round_robin(n: usize, m: usize) -> Self {
        assert!(m > 0);
        Self::from_owner(m, (0..n as u32).map(|i| i % m as u32).collect())
    }

    /// Items are split into `m` contiguous blocks in input order (the
    /// layout a distributed file system produces).
    pub fn contiguous(n: usize, m: usize) -> Self {
        assert!(m > 0);
        let owner = (0..n)
            .map(|i| ((i * m) / n.max(1)).min(m - 1) as u32)
            .collect();
        Self::from_owner(m, owner)
    }

    /// Each item goes to a uniformly random machine.
    pub fn random(n: usize, m: usize, seed: u64) -> Self {
        assert!(m > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Self::from_owner(m, (0..n).map(|_| rng.random_range(0..m) as u32).collect())
    }

    /// Adversarially skewed: machine `j` receives a share proportional to
    /// `1/(j+1)^alpha`, assigned in input order. `alpha = 0` degenerates to
    /// [`Partition::contiguous`]; larger `alpha` concentrates most items on
    /// machine 0.
    pub fn skewed(n: usize, m: usize, alpha: f64, seed: u64) -> Self {
        assert!(m > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..m).map(|j| 1.0 / ((j + 1) as f64).powf(alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut owner = Vec::with_capacity(n);
        for _ in 0..n {
            let mut x = rng.random_range(0.0..total);
            let mut mach = m - 1;
            for (j, &w) in weights.iter().enumerate() {
                if x < w {
                    mach = j;
                    break;
                }
                x -= w;
            }
            owner.push(mach as u32);
        }
        Self::from_owner(m, owner)
    }

    /// Number of machines.
    pub fn m(&self) -> usize {
        self.per_machine.len()
    }

    /// Number of items.
    pub fn n(&self) -> usize {
        self.owner.len()
    }

    /// Items stored on machine `i`.
    pub fn items(&self, machine: usize) -> &[u32] {
        &self.per_machine[machine]
    }

    /// All machines' item lists.
    pub fn all_items(&self) -> &[Vec<u32>] {
        &self.per_machine
    }

    /// The machine storing `item`.
    pub fn owner(&self, item: u32) -> usize {
        self.owner[item as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_all(p: &Partition, n: usize) {
        let mut seen = vec![false; n];
        for m in 0..p.m() {
            for &it in p.items(m) {
                assert!(!seen[it as usize], "item {it} assigned twice");
                seen[it as usize] = true;
                assert_eq!(p.owner(it), m);
            }
        }
        assert!(seen.into_iter().all(|s| s), "some item unassigned");
    }

    #[test]
    fn round_robin_is_balanced() {
        let p = Partition::round_robin(10, 3);
        covers_all(&p, 10);
        assert_eq!(p.items(0), &[0, 3, 6, 9]);
    }

    #[test]
    fn contiguous_blocks() {
        let p = Partition::contiguous(9, 3);
        covers_all(&p, 9);
        assert_eq!(p.items(0), &[0, 1, 2]);
        assert_eq!(p.items(2), &[6, 7, 8]);
    }

    #[test]
    fn contiguous_handles_n_less_than_m() {
        let p = Partition::contiguous(2, 5);
        covers_all(&p, 2);
        assert_eq!(p.n(), 2);
    }

    #[test]
    fn random_is_deterministic_and_total() {
        let p1 = Partition::random(100, 7, 3);
        let p2 = Partition::random(100, 7, 3);
        assert_eq!(p1, p2);
        covers_all(&p1, 100);
        assert_ne!(p1, Partition::random(100, 7, 4));
    }

    #[test]
    fn skewed_concentrates_on_low_machines() {
        let p = Partition::skewed(10_000, 8, 2.0, 1);
        covers_all(&p, 10_000);
        assert!(
            p.items(0).len() > 3 * p.items(7).len(),
            "alpha=2 should load machine 0 far more than machine 7 ({} vs {})",
            p.items(0).len(),
            p.items(7).len()
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let p = Partition::round_robin(0, 4);
        assert_eq!(p.n(), 0);
    }
}
