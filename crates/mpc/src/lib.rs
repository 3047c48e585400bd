//! Instrumented simulator for the massively parallel computation (MPC)
//! model of Karloff, Suri and Vassilvitskii (SODA 2010) — the substrate the
//! paper's algorithms run on.
//!
//! The MPC model is defined by three resources, and this simulator measures
//! all of them:
//!
//! * **rounds** — computation proceeds in synchronous supersteps; messages
//!   sent in round `r` are delivered at the start of round `r + 1`;
//! * **communication** — the total volume sent *and* received by each
//!   machine in a round must not exceed its local memory;
//! * **memory** — each machine holds `Õ(n/m + mk)` words in the paper's
//!   regime.
//!
//! [`Cluster`] executes machine-local computation in parallel (rayon) and
//! exposes the collective operations the paper's algorithms use
//! (all-to-all broadcast, gather/scatter through the *central machine*,
//! scalar reductions). Every collective advances the round counter and
//! charges per-machine sent/received words to the [`Ledger`]; budget
//! violations are recorded, never silently ignored, so experiments can
//! verify the paper's `Õ(mk)` claims empirically.
//!
//! Randomness is deterministic: each (machine, round, call-site salt)
//! triple derives an independent ChaCha8 stream from the cluster seed, so
//! results are reproducible across runs and rayon schedules.

pub mod cluster;
pub mod cost;
pub mod ledger;
pub mod partition;
pub mod rng;
pub mod transport;
pub mod wire;

pub use cluster::Cluster;
pub use cost::CostModel;
pub use ledger::{Ledger, MachineIo, RoundRecord, Violation};
pub use partition::Partition;
pub use rng::machine_rng;
pub use transport::{ByteIo, TransportKind, WireRound, WireStats, WireSummary};
pub use wire::Wire;
