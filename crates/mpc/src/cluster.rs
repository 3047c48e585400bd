//! The simulated MPC cluster and its collective operations.
//!
//! Every collective states its traffic once: it builds a list of messages
//! — source machine, recipients, items — and hands it to one private
//! `Cluster::round`. That list is the round: the ledger row, the wire
//! frames on `loopback`, and the values the machines keep all come from
//! it.

use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::ledger::{Ledger, MachineIo};
use crate::rng::machine_rng;
use crate::transport::{Dst, Msg, TransportKind, WireState, WireStats, WireSummary};
use crate::wire::Wire;

/// A simulated MPC cluster of `m` machines.
///
/// Algorithms keep their own per-machine state (typically a `Vec` with one
/// entry per machine) and drive it through two kinds of operations:
///
/// * [`Cluster::map`] — machine-local computation, executed for all
///   machines concurrently on the worker pool behind the `rayon` shim
///   (`KCENTER_THREADS` / [`rayon::with_threads`] control the width). Free
///   in the MPC model (no round, no communication), as the model allows
///   arbitrary polynomial local work.
/// * collectives ([`Cluster::all_broadcast`], [`Cluster::gather`],
///   [`Cluster::broadcast`], [`Cluster::scatter`], [`Cluster::exchange`],
///   and the reductions built on them) — each consumes exactly **one MPC
///   round** and charges every machine's sent/received word counts to the
///   [`Ledger`].
///
/// The ledger stays **single-writer** under real threads: machine closures
/// run on pool workers but never touch the ledger (local work is free, so
/// there is nothing to record); each collective's message list is turned
/// into per-machine [`MachineIo`] rows on the driving thread and committed
/// in one `record_round` call — the round barrier at which the per-machine
/// sub-ledgers merge. Word and round counts are therefore a pure function
/// of the simulated communication pattern, independent of how the OS
/// schedules worker threads.
///
/// Machine 0 plays the paper's *central machine*.
///
/// ### Transports
///
/// Collective *semantics* and ledger charges are identical everywhere;
/// the cluster's [`TransportKind`] selects how payloads physically move
/// (see [`crate::transport`]). On `loopback` every message with a
/// recipient is encoded into a length-prefixed little-endian frame, copied
/// across a wire buffer, and **decoded values are what the algorithm
/// continues with** — encode/decode asymmetry changes answers loudly
/// instead of silently. `sim` remains the bit-exact zero-copy reference.
///
/// ```
/// use mpc_sim::Cluster;
///
/// let mut cluster = Cluster::new(3, 42);
/// // Local compute (free), then a one-round gather to the central machine.
/// let squares = cluster.map(&[1, 2, 3], |_, &x| vec![x * x]);
/// let all = cluster.gather("collect", squares, 1);
/// assert_eq!(all, vec![1, 4, 9]);
/// assert_eq!(cluster.rounds(), 1);
/// ```
///
/// ### Communication-cost conventions
///
/// Items carry a caller-supplied `weight` in machine words (coordinates of
/// a point, 1 for a scalar). A message's sender pays `|items| · weight`
/// once per recipient and each recipient is charged `|items| · weight` —
/// i.e. no magic multicast, matching the MPC model where the total size
/// of messages sent by a machine is bounded. A machine is never its own
/// recipient, so traffic that stays on one machine charges nothing.
#[derive(Debug)]
pub struct Cluster {
    m: usize,
    seed: u64,
    ledger: Ledger,
    /// The loopback transport's buffers and counters; `None` on `sim`.
    wire: Option<Box<WireState>>,
}

impl Cluster {
    /// A cluster of `m >= 1` machines with the given RNG seed and no
    /// communication budget, on the in-memory simulator.
    pub fn new(m: usize, seed: u64) -> Self {
        Self::with_transport(m, seed, TransportKind::Sim)
    }

    /// Like [`Cluster::new`] but on the given transport.
    pub fn with_transport(m: usize, seed: u64, kind: TransportKind) -> Self {
        Self {
            m,
            seed,
            ledger: Ledger::new(m),
            wire: match kind {
                TransportKind::Sim => None,
                TransportKind::Loopback => Some(Box::new(WireState::new(m))),
            },
        }
    }

    /// Sets a per-round per-machine word budget; breaches are recorded on
    /// the ledger (see [`Ledger::set_budget`]).
    pub fn set_budget(&mut self, budget_words: u64) {
        self.ledger.set_budget(budget_words);
    }

    /// Number of machines.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The cluster RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The wire transport's measurements (`None` on `sim`, which moves no
    /// bytes).
    pub fn wire_stats(&self) -> Option<&WireStats> {
        self.wire.as_ref().map(|wire| &wire.stats)
    }

    /// A snapshot of [`Cluster::wire_stats`].
    pub fn wire_summary(&self) -> Option<WireSummary> {
        self.wire_stats().map(WireStats::summary)
    }

    /// Ships per-machine shards through the transport's *setup plane*:
    /// on `loopback` the frames are encoded, copied, and decode-validated,
    /// but the [`Ledger`] is never touched — it meters algorithm rounds,
    /// and the one-time input distribution is the dataset load, not part of
    /// any algorithm's round/word count. Bytes land in
    /// `WireStats::setup_bytes`.
    pub fn ship_shards<T: Wire>(&mut self, label: &str, shards: &[Vec<T>], weight: u64) {
        assert_eq!(shards.len(), self.m, "one shard per machine");
        if let Some(wire) = &mut self.wire {
            wire.ship_setup(label, shards, weight);
        }
    }

    /// Read access to the accounting ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Consumes the cluster, returning its ledger.
    pub fn into_ledger(self) -> Ledger {
        self.ledger
    }

    /// Rounds consumed so far.
    pub fn rounds(&self) -> u64 {
        self.ledger.rounds()
    }

    /// Notes machine-resident memory (see [`Ledger::note_memory`]).
    pub fn note_memory(&mut self, machine: usize, words: u64) {
        self.ledger.note_memory(machine, words);
    }

    /// Notes one resident-memory figure per machine.
    pub fn note_memory_all(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.m);
        for (machine, &w) in words.iter().enumerate() {
            self.ledger.note_memory(machine, w);
        }
    }

    /// A deterministic RNG for `machine` at the current round; `salt`
    /// distinguishes call sites within one round.
    pub fn rng(&self, machine: usize, salt: u64) -> ChaCha8Rng {
        machine_rng(self.seed, machine, self.ledger.rounds(), salt)
    }

    /// Machine-local computation: runs `f(machine, &input[machine])` for
    /// every machine across the worker pool and collects the outputs in
    /// machine order. Costs no round and no communication. Outputs are
    /// deterministic regardless of scheduling: the collect is
    /// order-preserving and `f` sees only its own machine's input (plus
    /// the per-machine RNG streams of [`Cluster::rng`], which are keyed by
    /// machine index, not by thread).
    pub fn map<T, U, F>(&self, inputs: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        assert_eq!(inputs.len(), self.m, "one input per machine");
        inputs
            .par_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect()
    }

    /// Like [`Cluster::map`] with mutable access to the per-machine state.
    pub fn map_mut<T, U, F>(&self, states: &mut [T], f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, &mut T) -> U + Sync,
    {
        assert_eq!(states.len(), self.m, "one state per machine");
        states
            .par_iter_mut()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect()
    }

    /// One MPC round carrying `msgs`: the only place a collective states
    /// its traffic. Charges the ledger from the list — each sender pays
    /// `|items| · weight` once per recipient, each recipient is charged
    /// `|items| · weight` — and returns every message's items in order:
    /// unchanged on `sim`, decoded from the transited frames on
    /// `loopback`.
    fn round<T: Wire>(&mut self, label: &str, weight: u64, msgs: Vec<Msg<T>>) -> Vec<Vec<T>> {
        let mut io = vec![MachineIo::default(); self.m];
        for msg in &msgs {
            let words = msg.items.len() as u64 * weight;
            for r in msg.recipients(self.m) {
                io[msg.src].sent += words;
                io[r].received += words;
            }
        }
        self.ledger.record_round(label, io);
        match &mut self.wire {
            None => msgs.into_iter().map(|msg| msg.items).collect(),
            Some(wire) => wire.round(label, weight, msgs),
        }
    }

    /// All-to-all broadcast: every machine contributes a set of items and
    /// every machine ends up with the full union (in machine order).
    /// One round. Machine `i` sends `|c_i| · w` words to each of the other
    /// `m − 1` machines and receives everyone else's contributions.
    pub fn all_broadcast<T: Wire>(
        &mut self,
        label: &str,
        contributions: Vec<Vec<T>>,
        weight: u64,
    ) -> Vec<T> {
        assert_eq!(contributions.len(), self.m);
        let msgs = contributions
            .into_iter()
            .enumerate()
            .map(|(src, items)| Msg {
                src,
                dst: Dst::AllOthers,
                items,
            })
            .collect();
        self.round(label, weight, msgs)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Gather to the central machine (machine 0): returns the concatenation
    /// of all contributions in machine order. One round; the central
    /// machine's own share stays local.
    pub fn gather<T: Wire>(
        &mut self,
        label: &str,
        contributions: Vec<Vec<T>>,
        weight: u64,
    ) -> Vec<T> {
        assert_eq!(contributions.len(), self.m);
        let msgs = contributions
            .into_iter()
            .enumerate()
            .map(|(src, items)| Msg {
                src,
                dst: Dst::One(0),
                items,
            })
            .collect();
        self.round(label, weight, msgs)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Broadcast `items` of the given weight from the central machine to
    /// all others. One round. Returns the items every machine now holds —
    /// decoded from the transited frame on `loopback` — and the caller
    /// continues with them.
    pub fn broadcast<T: Wire>(&mut self, label: &str, items: Vec<T>, weight: u64) -> Vec<T> {
        let msg = Msg {
            src: 0,
            dst: Dst::AllOthers,
            items,
        };
        let mut out = self.round(label, weight, vec![msg]);
        out.pop().expect("one message in, one out")
    }

    /// Scatter from the central machine: machine `i` receives
    /// `per_machine[i]`. One round; the central machine keeps its own
    /// share. Returns each machine's share.
    pub fn scatter<T: Wire>(
        &mut self,
        label: &str,
        per_machine: Vec<Vec<T>>,
        weight: u64,
    ) -> Vec<Vec<T>> {
        assert_eq!(per_machine.len(), self.m);
        let msgs = per_machine
            .into_iter()
            .enumerate()
            .map(|(dst, items)| Msg {
                src: 0,
                dst: Dst::One(dst),
                items,
            })
            .collect();
        self.round(label, weight, msgs)
    }

    /// All-to-all personalized exchange: `msgs[src][dst]` is what machine
    /// `src` sends to machine `dst`; the result `inbox` satisfies
    /// `inbox[dst][src] == msgs[src][dst]`. One round. Self-addressed
    /// and empty boxes move no words and no frames.
    pub fn exchange<T: Wire>(
        &mut self,
        label: &str,
        msgs: Vec<Vec<Vec<T>>>,
        weight: u64,
    ) -> Vec<Vec<Vec<T>>> {
        assert_eq!(msgs.len(), self.m);
        let mut inbox: Vec<Vec<Vec<T>>> = (0..self.m).map(|_| Vec::with_capacity(self.m)).collect();
        let mut cross = Vec::new();
        let mut slots = Vec::new();
        for (src, row) in msgs.into_iter().enumerate() {
            assert_eq!(row.len(), self.m, "one outbox per destination");
            for (dst, items) in row.into_iter().enumerate() {
                if src == dst || items.is_empty() {
                    inbox[dst].push(items);
                } else {
                    inbox[dst].push(Vec::new());
                    slots.push((src, dst));
                    cross.push(Msg {
                        src,
                        dst: Dst::One(dst),
                        items,
                    });
                }
            }
        }
        for ((src, dst), items) in slots.into_iter().zip(self.round(label, weight, cross)) {
            inbox[dst][src] = items;
        }
        inbox
    }

    /// Reduction to the central machine: gathers one value per machine and
    /// folds them. One round. `weight` is the word width of one value —
    /// scalars weigh 1; wider values (points, tuples) must charge what they
    /// would actually ship.
    pub fn reduce<T, F>(&mut self, label: &str, values: Vec<T>, weight: u64, fold: F) -> T
    where
        T: Wire,
        F: FnMut(T, T) -> T,
    {
        assert_eq!(values.len(), self.m);
        let gathered = self.gather(label, values.into_iter().map(|v| vec![v]).collect(), weight);
        gathered
            .into_iter()
            .reduce(fold)
            .expect("m >= 1 guarantees a value")
    }

    /// All-reduce: reduction to the central machine followed by a broadcast
    /// of the result. Two rounds; every machine continues with the
    /// broadcast value. The result broadcast is charged at the same
    /// `weight` as the gathered values (an earlier version hardcoded a
    /// 1-word broadcast, which undercharged every non-scalar reduction).
    pub fn all_reduce<T, F>(&mut self, label: &str, values: Vec<T>, weight: u64, fold: F) -> T
    where
        T: Wire,
        F: FnMut(T, T) -> T,
    {
        let result = self.reduce(label, values, weight, fold);
        let mut out = self.broadcast(&format!("{label}/bcast"), vec![result], weight);
        out.pop().expect("one value in, one out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_runs_every_machine() {
        let c = Cluster::new(4, 0);
        let out = c.map(&[10, 20, 30, 40], |i, &x| x + i);
        assert_eq!(out, vec![10, 21, 32, 43]);
        assert_eq!(c.rounds(), 0, "local compute is free");
    }

    #[test]
    fn map_mut_mutates_in_place() {
        let c = Cluster::new(2, 0);
        let mut states = vec![vec![1], vec![2]];
        c.map_mut(&mut states, |_, s| s.push(9));
        assert_eq!(states, vec![vec![1, 9], vec![2, 9]]);
    }

    #[test]
    fn all_broadcast_unions_and_charges() {
        let mut c = Cluster::new(3, 0);
        let union = c.all_broadcast("s", vec![vec![1], vec![2, 3], vec![]], 2);
        assert_eq!(union, vec![1, 2, 3]);
        assert_eq!(c.rounds(), 1);
        let rec = &c.ledger().records()[0];
        // machine 1 contributed 2 items of weight 2 => sends 4 words to each
        // of 2 peers, receives the remaining 1 item (2 words).
        assert_eq!(
            rec.per_machine[1],
            MachineIo {
                sent: 8,
                received: 2
            }
        );
        assert_eq!(
            rec.per_machine[2],
            MachineIo {
                sent: 0,
                received: 6
            }
        );
    }

    #[test]
    fn gather_concatenates_in_machine_order() {
        let mut c = Cluster::new(3, 0);
        let all = c.gather("g", vec![vec![5], vec![], vec![7, 8]], 1);
        assert_eq!(all, vec![5, 7, 8]);
        let rec = &c.ledger().records()[0];
        assert_eq!(
            rec.per_machine[0],
            MachineIo {
                sent: 0,
                received: 2
            }
        );
        assert_eq!(
            rec.per_machine[2],
            MachineIo {
                sent: 2,
                received: 0
            }
        );
    }

    #[test]
    fn broadcast_charges_fanout() {
        let mut c = Cluster::new(4, 0);
        let held = c.broadcast("b", vec![1u32, 2, 3, 4, 5], 3);
        assert_eq!(held, vec![1, 2, 3, 4, 5]);
        let rec = &c.ledger().records()[0];
        assert_eq!(rec.per_machine[0].sent, 5 * 3 * 3);
        assert_eq!(rec.per_machine[1].received, 15);
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn scatter_keeps_shape_and_charges_central() {
        let mut c = Cluster::new(3, 0);
        let out = c.scatter("sc", vec![vec![1, 2], vec![3], vec![4]], 1);
        assert_eq!(out, vec![vec![1, 2], vec![3], vec![4]]);
        let rec = &c.ledger().records()[0];
        // central keeps its own share without network traffic
        assert_eq!(
            rec.per_machine[0],
            MachineIo {
                sent: 2,
                received: 0
            }
        );
        assert_eq!(
            rec.per_machine[1],
            MachineIo {
                sent: 0,
                received: 1
            }
        );
    }

    #[test]
    fn exchange_transposes_and_charges() {
        let mut c = Cluster::new(2, 0);
        let inbox = c.exchange(
            "x",
            vec![vec![vec![1], vec![2, 3]], vec![vec![4], vec![]]],
            2,
        );
        assert_eq!(
            inbox,
            vec![vec![vec![1], vec![4]], vec![vec![2, 3], vec![]]]
        );
        let rec = &c.ledger().records()[0];
        // machine 0 sends 2 items to machine 1 (self-box free): 4 words.
        assert_eq!(
            rec.per_machine[0],
            MachineIo {
                sent: 4,
                received: 2
            }
        );
        assert_eq!(
            rec.per_machine[1],
            MachineIo {
                sent: 2,
                received: 4
            }
        );
    }

    #[test]
    fn reduce_and_all_reduce() {
        let mut c = Cluster::new(4, 0);
        let max = c.reduce("r", vec![3, 9, 1, 7], 1, i64::max);
        assert_eq!(max, 9);
        assert_eq!(c.rounds(), 1);
        let sum = c.all_reduce("ar", vec![1, 2, 3, 4], 1, |a, b| a + b);
        assert_eq!(sum, 10);
        assert_eq!(c.rounds(), 3);
    }

    #[test]
    fn all_reduce_charges_result_broadcast_at_value_weight() {
        // Non-scalar reduction: each contribution is a 3-element vector —
        // 3 data words plus its length word, 4 words on the wire — so the
        // gather charges 4 words per non-central machine AND the result
        // broadcast ships 4 words to each non-central machine.
        let mut c = Cluster::new(4, 0);
        let w = 4;
        let merged = c.all_reduce(
            "ar3",
            vec![
                vec![1u64, 0, 0],
                vec![0, 2, 0],
                vec![0, 0, 3],
                vec![1, 1, 1],
            ],
            w,
            |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect(),
        );
        assert_eq!(merged, vec![2, 3, 4]);
        let recs = c.ledger().records();
        assert_eq!(recs.len(), 2);
        // Gather leg: machines 1..3 each send w words, machine 0 receives.
        assert_eq!(recs[0].label, "ar3");
        assert_eq!(
            recs[0].per_machine[0],
            MachineIo {
                sent: 0,
                received: 3 * w
            }
        );
        for io in &recs[0].per_machine[1..] {
            assert_eq!(
                *io,
                MachineIo {
                    sent: w,
                    received: 0
                }
            );
        }
        // Result leg: machine 0 ships the w-word result to 3 machines.
        assert_eq!(recs[1].label, "ar3/bcast");
        assert_eq!(
            recs[1].per_machine[0],
            MachineIo {
                sent: 3 * w,
                received: 0
            }
        );
        for io in &recs[1].per_machine[1..] {
            assert_eq!(
                *io,
                MachineIo {
                    sent: 0,
                    received: w
                }
            );
        }
    }

    #[test]
    fn single_machine_cluster_works() {
        let mut c = Cluster::new(1, 0);
        let union = c.all_broadcast("s", vec![vec![1, 2]], 1);
        assert_eq!(union, vec![1, 2]);
        let rec = &c.ledger().records()[0];
        assert_eq!(
            rec.per_machine[0],
            MachineIo {
                sent: 0,
                received: 0
            }
        );
    }

    #[test]
    fn rng_changes_with_round() {
        use rand::RngExt;
        let mut c = Cluster::new(2, 42);
        let a: u64 = c.rng(0, 0).random();
        c.broadcast("tick", vec![()], 1);
        let b: u64 = c.rng(0, 0).random();
        assert_ne!(a, b, "advancing the round must refresh streams");
    }

    #[test]
    fn budget_violations_recorded() {
        let mut c = Cluster::new(2, 0);
        c.set_budget(4);
        c.gather("big", vec![vec![], vec![0u32; 100]], 1);
        assert_eq!(c.ledger().violations().len(), 2);
    }

    /// Drives every collective once on a cluster; returns the values each
    /// produced so backends can be compared end to end.
    #[allow(clippy::type_complexity)]
    fn drive_all_collectives(
        c: &mut Cluster,
    ) -> (
        Vec<u32>,
        Vec<i64>,
        Vec<u64>,
        Vec<Vec<u64>>,
        Vec<Vec<Vec<u32>>>,
        f64,
        u64,
    ) {
        let union = c.all_broadcast("t/ab", vec![vec![1u32, 2], vec![], vec![3]], 2);
        let gathered = c.gather("t/g", vec![vec![-5i64], vec![7, 8], vec![]], 1);
        let held = c.broadcast("t/b", vec![4u64, u64::MAX, 0], 2);
        let scattered = c.scatter("t/sc", vec![vec![10u64, 11], vec![12], vec![]], 1);
        let inbox = c.exchange(
            "t/x",
            vec![
                vec![vec![1u32], vec![2], vec![]],
                vec![vec![], vec![3], vec![4, 5]],
                vec![vec![6], vec![], vec![]],
            ],
            1,
        );
        let rmax = c.reduce("t/r", vec![0.5f64, -1.0, 2.25], 1, f64::max);
        let ar = c.all_reduce("t/ar", vec![1u64, 2, 3], 1, |a, b| a + b);
        (union, gathered, held, scattered, inbox, rmax, ar)
    }

    #[test]
    fn loopback_values_and_ledger_match_sim() {
        let mut sim = Cluster::with_transport(3, 9, TransportKind::Sim);
        let mut lb = Cluster::with_transport(3, 9, TransportKind::Loopback);
        let a = drive_all_collectives(&mut sim);
        let b = drive_all_collectives(&mut lb);
        assert_eq!(a, b, "loopback must be value-neutral");
        sim.ledger()
            .assert_identical(lb.ledger(), "sim vs loopback");
        assert!(sim.wire_stats().is_none());
        let stats = lb.wire_stats().expect("loopback measures");
        assert_eq!(stats.conformance_violations, 0);
        // Wire rounds align 1:1 with ledger records and carry exactly
        // 8 bytes per charged word, per machine.
        assert_eq!(stats.rounds.len(), lb.ledger().records().len());
        for (wr, lr) in stats.rounds.iter().zip(lb.ledger().records()) {
            assert_eq!(wr.label, lr.label);
            for (bio, mio) in wr.per_machine.iter().zip(&lr.per_machine) {
                assert_eq!(bio.sent, mio.sent * 8, "round {}", lr.label);
                assert_eq!(bio.received, mio.received * 8, "round {}", lr.label);
            }
        }
    }

    #[test]
    fn loopback_single_machine_matches_sim() {
        let mut sim = Cluster::with_transport(1, 3, TransportKind::Sim);
        let mut lb = Cluster::with_transport(1, 3, TransportKind::Loopback);
        let a = sim.all_broadcast("s", vec![vec![1u32, 2]], 1);
        let b = lb.all_broadcast("s", vec![vec![1u32, 2]], 1);
        let held_sim = sim.broadcast("b", vec![7u32, 8, 9, 10], 2);
        let held_lb = lb.broadcast("b", vec![7u32, 8, 9, 10], 2);
        assert_eq!(a, b);
        assert_eq!(held_sim, held_lb);
        sim.ledger().assert_identical(lb.ledger(), "m=1");
        let stats = lb.wire_stats().unwrap();
        assert_eq!(stats.rounds.len(), 2, "empty rounds still align");
        assert_eq!(stats.payload_bytes, 0);
    }

    #[test]
    fn ship_shards_moves_bytes_off_ledger() {
        let mut lb = Cluster::with_transport(2, 0, TransportKind::Loopback);
        lb.ship_shards("setup", &[vec![1u32, 2, 3], vec![4, 5]], 2);
        assert_eq!(lb.rounds(), 0, "setup plane never touches the ledger");
        assert!(lb.ledger().records().is_empty());
        let stats = lb.wire_stats().unwrap();
        assert_eq!(stats.setup_bytes, 5 * 2 * 8);
        assert_eq!(stats.payload_bytes, 0);
    }

    #[test]
    fn wire_decoded_values_are_authoritative() {
        // The loopback union and the broadcast values must come from
        // decoded frames, which preserve exact bit patterns (NaN payloads
        // included).
        let mut lb = Cluster::with_transport(2, 0, TransportKind::Loopback);
        let vals = lb.all_broadcast("nan", vec![vec![f64::NAN], vec![-0.0f64]], 1);
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0].to_bits(), f64::NAN.to_bits());
        assert_eq!(vals[1].to_bits(), (-0.0f64).to_bits());
        let held = lb.broadcast("nan/bcast", vec![f64::NAN, -0.0f64], 1);
        assert_eq!(held.len(), 2);
        assert_eq!(held[0].to_bits(), f64::NAN.to_bits());
        assert_eq!(held[1].to_bits(), (-0.0f64).to_bits());
    }
}
