//! Pluggable cluster transports: how collective payloads physically move.
//!
//! [`crate::Cluster`] computes collective *semantics* (who sends what to
//! whom, what the ledger charges) identically everywhere; the transport
//! decides what happens to the bytes:
//!
//! * [`TransportKind::Sim`] — the direct in-memory path, bit-exact
//!   reference. Values move by ownership transfer; nothing is encoded.
//! * [`TransportKind::Loopback`] — same process, but every collective
//!   round-trips its payload through the byte-level wire format
//!   ([`crate::wire`]): encode into per-machine arena buffers, copy across
//!   a wire buffer, decode on the far side. The *decoded* values are what
//!   the algorithm continues with, so any encode/decode asymmetry changes
//!   answers loudly instead of silently. Arenas and the wire buffer are
//!   reused across rounds — steady-state rounds allocate nothing for
//!   framing.
//!
//! A cluster runs on `sim` unless built with
//! [`crate::Cluster::with_transport`]; binaries map
//! `KCENTER_TRANSPORT=sim|loopback` to a kind through
//! [`TransportKind::from_env`].
//!
//! ### Accounting invariant
//!
//! Per round and per machine, **accountable wire bytes equal the ledger's
//! charged words × 8** — by construction (slots are `weight × 8` bytes)
//! and by measurement ([`WireStats::rounds`] is populated from the actual
//! frames, 1:1 with ledger records, and the conformance suite compares
//! them). Frame headers are transport overhead, tracked separately in
//! [`WireStats::overhead_bytes`], never charged to the model.
//!
//! Self-traffic ships nothing: a machine's own `all_broadcast`
//! contribution, the central machine's own `gather`/`scatter` share, and
//! `exchange` self-boxes stay local, exactly as the ledger charges zero
//! for them.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::wire::{
    decode_frame, encode_frame, fnv64, FrameHeader, Wire, FRAME_HEADER_BYTES, WORD_BYTES,
};

/// Which transport a cluster runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Direct in-memory simulation (the reference).
    #[default]
    Sim,
    /// In-process byte-level wire round-trip.
    Loopback,
}

impl TransportKind {
    /// Reads `KCENTER_TRANSPORT`; unset or empty means [`Self::Sim`]. The
    /// parser binaries call once at start; no library code reads it.
    /// Unknown values panic — a typo must not silently fall back to the
    /// simulator when the caller asked for real wire traffic.
    pub fn from_env() -> Self {
        match std::env::var("KCENTER_TRANSPORT") {
            Err(_) => Self::Sim,
            Ok(v) => match v.as_str() {
                "" | "sim" => Self::Sim,
                "loopback" => Self::Loopback,
                other => panic!("KCENTER_TRANSPORT={other:?} is not one of sim|loopback"),
            },
        }
    }

    /// Stable lowercase name (matches the env-var vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Self::Sim => "sim",
            Self::Loopback => "loopback",
        }
    }
}

/// Per-machine accountable wire bytes for one collective round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteIo {
    /// Payload bytes sent (fan-out counted, like the ledger's words).
    pub sent: u64,
    /// Payload bytes received.
    pub received: u64,
}

/// One collective round's measured wire traffic; aligned 1:1 with
/// [`crate::Ledger::records`].
#[derive(Debug, Clone)]
pub struct WireRound {
    /// The collective's label (same string the ledger records).
    pub label: String,
    /// Accountable payload bytes per machine.
    pub per_machine: Vec<ByteIo>,
}

/// Cumulative transport measurements for one cluster.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Which backend produced these numbers.
    pub kind: TransportKind,
    /// Per-round rows, 1:1 with the ledger's records.
    pub rounds: Vec<WireRound>,
    /// Total accountable payload bytes (fan-out counted; equals
    /// `8 × total ledger words` when conformant).
    pub payload_bytes: u64,
    /// Frame headers and other framing bytes — transport overhead, never
    /// charged to the MPC model. Counted per logical delivery.
    pub overhead_bytes: u64,
    /// One-time setup-plane bytes ([`crate::Cluster::ship_shards`]);
    /// deliberately outside the ledger, which meters algorithm rounds.
    pub setup_bytes: u64,
    /// Frames encoded.
    pub frames: u64,
    /// Wall-clock spent encoding frames, in seconds.
    pub encode_s: f64,
    /// Wall-clock spent decoding frames, in seconds.
    pub decode_s: f64,
    /// Wall-clock spent moving bytes (memcpy), in seconds.
    pub transit_s: f64,
    /// High-water mark of arena + wire buffer capacity, in bytes.
    pub arena_high_water: u64,
    /// Transport cross-check failures. `loopback` never increments it: its
    /// bytes equal 8 × the ledger's words by construction, and a corrupt
    /// frame panics at decode. Kept (always zero) because `e2ebench` and
    /// the `ladder_digest` `transport-parity` line read it.
    pub conformance_violations: u64,
}

impl WireStats {
    /// Flattens into the serializable summary Telemetry carries.
    pub fn summary(&self) -> WireSummary {
        WireSummary {
            backend: self.kind.name().to_string(),
            rounds: self.rounds.len() as u64,
            payload_bytes: self.payload_bytes,
            overhead_bytes: self.overhead_bytes,
            setup_bytes: self.setup_bytes,
            frames: self.frames,
            encode_s: self.encode_s,
            decode_s: self.decode_s,
            transit_s: self.transit_s,
            arena_high_water_bytes: self.arena_high_water,
            conformance_violations: self.conformance_violations,
        }
    }
}

/// Serializable snapshot of [`WireStats`] (no per-round rows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSummary {
    /// Backend name (`sim` clusters produce no summary at all).
    pub backend: String,
    /// Collective rounds the transport carried.
    pub rounds: u64,
    /// Accountable payload bytes (== 8 × ledger words when conformant).
    pub payload_bytes: u64,
    /// Framing overhead bytes.
    pub overhead_bytes: u64,
    /// Setup-plane (shard shipping) bytes.
    pub setup_bytes: u64,
    /// Frames encoded.
    pub frames: u64,
    /// Seconds encoding.
    pub encode_s: f64,
    /// Seconds decoding.
    pub decode_s: f64,
    /// Seconds in transit (memcpy).
    pub transit_s: f64,
    /// Arena + wire buffer capacity high-water mark.
    pub arena_high_water_bytes: u64,
    /// Transport cross-check failures; always zero on `loopback` (see
    /// [`WireStats::conformance_violations`]).
    pub conformance_violations: u64,
}

/// The loopback backend's buffers and counters.
#[derive(Debug)]
pub(crate) struct WireState {
    /// Per-machine encode arenas, reused every round.
    arenas: Vec<Vec<u8>>,
    /// The "wire": bytes land here after transiting, decode reads from it.
    rx: Vec<u8>,
    /// Measurements.
    pub(crate) stats: WireStats,
}

impl WireState {
    fn new(m: usize) -> Self {
        Self {
            arenas: vec![Vec::new(); m],
            rx: Vec::new(),
            stats: WireStats {
                kind: TransportKind::Loopback,
                ..WireStats::default()
            },
        }
    }

    /// Empties the arenas and the wire buffer, keeping their capacity.
    fn clear(&mut self) {
        for arena in &mut self.arenas {
            arena.clear();
        }
        self.rx.clear();
    }
}

/// A cluster's transport backend.
#[derive(Debug)]
pub(crate) enum Backend {
    Sim,
    Loopback(Box<WireState>),
}

impl Backend {
    pub(crate) fn new(kind: TransportKind, m: usize) -> Self {
        match kind {
            TransportKind::Sim => Self::Sim,
            TransportKind::Loopback => Self::Loopback(Box::new(WireState::new(m))),
        }
    }

    pub(crate) fn kind(&self) -> TransportKind {
        match self {
            Self::Sim => TransportKind::Sim,
            Self::Loopback(_) => TransportKind::Loopback,
        }
    }

    pub(crate) fn is_wire(&self) -> bool {
        !matches!(self, Self::Sim)
    }

    pub(crate) fn wire_stats(&self) -> Option<&WireStats> {
        match self {
            Self::Sim => None,
            Self::Loopback(s) => Some(&s.stats),
        }
    }

    fn wire_parts(&mut self) -> Option<&mut WireState> {
        match self {
            Self::Sim => None,
            Self::Loopback(s) => Some(s),
        }
    }
}

/// Destination set of one frame.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dst {
    /// Every machine except the source (broadcast-shaped traffic).
    AllOthers,
    /// Exactly one machine (gather/scatter/exchange edges).
    One(usize),
}

impl Dst {
    fn fanout(self, m: usize) -> u64 {
        match self {
            Self::AllOthers => m as u64 - 1,
            Self::One(_) => 1,
        }
    }

    fn targets(self, src: usize, dst: usize) -> bool {
        match self {
            Self::AllOthers => dst != src,
            Self::One(d) => d == dst,
        }
    }
}

/// One logical message of a collective round: `src` ships `items` to
/// `dst`. Call sites only create messages with at least one destination
/// (self-traffic and `m == 1` cases never reach the wire).
pub(crate) struct WireMsg<'a, T> {
    pub(crate) src: usize,
    pub(crate) dst: Dst,
    pub(crate) items: &'a [T],
}

/// An encoded frame parked in its source arena, awaiting transit.
struct FrameRef {
    src: usize,
    dst: Dst,
    range: std::ops::Range<usize>,
    payload: u64,
}

/// Runs one collective round over the wire: encode every message into its
/// source arena, copy the frames across the wire buffer, decode from
/// the transited bytes. Returns the decoded payloads, one per message in
/// order — these are authoritative; callers continue with them, not with
/// the originals. Also appends the round's [`WireRound`] row (1:1 with the
/// ledger record the caller just committed).
pub(crate) fn wire_round<T: Wire>(
    backend: &mut Backend,
    m: usize,
    label: &str,
    weight: u64,
    msgs: &[WireMsg<'_, T>],
) -> Vec<Vec<T>> {
    let state = backend.wire_parts().expect("wire_round on a sim backend");

    let t0 = Instant::now();
    state.clear();
    let mut frames = Vec::with_capacity(msgs.len());
    for msg in msgs {
        let arena = &mut state.arenas[msg.src];
        let start = arena.len();
        let payload = encode_frame(label, msg.items, weight, arena);
        frames.push(FrameRef {
            src: msg.src,
            dst: msg.dst,
            range: start..arena.len(),
            payload,
        });
    }
    state.stats.encode_s += t0.elapsed().as_secs_f64();

    let rx_ranges = transit_and_record(state, m, label, &frames);

    let t2 = Instant::now();
    let mut out = Vec::with_capacity(msgs.len());
    for (msg, range) in msgs.iter().zip(&rx_ranges) {
        let mut cursor = &state.rx[range.clone()];
        let decoded: Vec<T> = decode_frame(&mut cursor)
            .unwrap_or_else(|e| panic!("wire decode failed in `{label}`: {e}"));
        assert!(cursor.is_empty(), "trailing bytes after frame in `{label}`");
        assert_eq!(
            decoded.len(),
            msg.items.len(),
            "item count changed in transit in `{label}`"
        );
        out.push(decoded);
    }
    state.stats.decode_s += t2.elapsed().as_secs_f64();
    out
}

/// The payload-less variant for [`crate::Cluster::broadcast`]: the caller
/// declares `count` items of `weight` words from `src` to everyone else,
/// with no values attached. The wire backends ship a synthetic
/// deterministic pattern of exactly that size (integrity-checked, never
/// decoded) so broadcast rounds still move real bytes.
pub(crate) fn wire_round_synthetic(
    backend: &mut Backend,
    m: usize,
    label: &str,
    src: usize,
    count: u64,
    weight: u64,
) {
    let state = backend.wire_parts().expect("wire_round on a sim backend");

    let t0 = Instant::now();
    state.clear();
    let frames = if m > 1 {
        let payload = count * weight * WORD_BYTES as u64;
        let arena = &mut state.arenas[src];
        FrameHeader {
            items: count as u32,
            weight: weight as u32,
            payload_len: payload as u32,
        }
        .write(arena);
        let pattern = fnv64(label.as_bytes()).to_le_bytes();
        for i in 0..payload as usize {
            arena.push(pattern[i % pattern.len()]);
        }
        vec![FrameRef {
            src,
            dst: Dst::AllOthers,
            range: 0..arena.len(),
            payload,
        }]
    } else {
        Vec::new()
    };
    state.stats.encode_s += t0.elapsed().as_secs_f64();

    let rx_ranges = transit_and_record(state, m, label, &frames);

    let t2 = Instant::now();
    for (frame, range) in frames.iter().zip(&rx_ranges) {
        let transited = &state.rx[range.clone()];
        assert_eq!(
            transited,
            &state.arenas[frame.src][frame.range.clone()],
            "synthetic broadcast bytes corrupted in transit in `{label}`"
        );
        let mut cursor = transited;
        FrameHeader::read(&mut cursor)
            .unwrap_or_else(|e| panic!("synthetic frame header in `{label}`: {e}"));
    }
    state.stats.decode_s += t2.elapsed().as_secs_f64();
}

/// Ships encoded frames, updates all counters, appends the round row.
/// Returns where each frame's transited bytes landed in the wire buffer.
fn transit_and_record(
    state: &mut WireState,
    m: usize,
    label: &str,
    frames: &[FrameRef],
) -> Vec<std::ops::Range<usize>> {
    let mut io = vec![ByteIo::default(); m];
    let mut deliveries: u64 = 0;
    for f in frames {
        let fanout = f.dst.fanout(m);
        io[f.src].sent += f.payload * fanout;
        deliveries += fanout;
        for (dst, dio) in io.iter_mut().enumerate() {
            if f.dst.targets(f.src, dst) {
                dio.received += f.payload;
            }
        }
    }

    // One physical copy per frame across the wire buffer (the logical
    // fan-out is accounting, not extra memcpy — same as a real broadcast
    // medium).
    let t1 = Instant::now();
    let WireState { arenas, rx, .. } = state;
    let rx_ranges = frames
        .iter()
        .map(|f| {
            let start = rx.len();
            rx.extend_from_slice(&arenas[f.src][f.range.clone()]);
            start..rx.len()
        })
        .collect();
    state.stats.transit_s += t1.elapsed().as_secs_f64();

    let stats = &mut state.stats;
    stats.payload_bytes += io.iter().map(|b| b.sent).sum::<u64>();
    stats.overhead_bytes += FRAME_HEADER_BYTES as u64 * deliveries;
    stats.frames += frames.len() as u64;
    stats.rounds.push(WireRound {
        label: label.to_string(),
        per_machine: io,
    });
    let held = state
        .arenas
        .iter()
        .map(|a| a.capacity() as u64)
        .sum::<u64>()
        + state.rx.capacity() as u64;
    state.stats.arena_high_water = state.stats.arena_high_water.max(held);
    rx_ranges
}

/// Setup-plane shard shipping (see [`crate::Cluster::ship_shards`]): the
/// frames move (and are validated) but the ledger is never touched, so
/// algorithm round/word counts stay identical across backends.
pub(crate) fn ship_setup<T: Wire>(
    backend: &mut Backend,
    label: &str,
    shards: &[Vec<T>],
    weight: u64,
) {
    let Some(state) = backend.wire_parts() else {
        return; // sim: shards are already "everywhere" — one address space
    };
    let t0 = Instant::now();
    state.clear();
    let mut total_payload = 0u64;
    for (machine, shard) in shards.iter().enumerate() {
        let arena = &mut state.arenas[machine];
        total_payload += encode_frame(label, shard, weight, arena);
    }
    state.stats.encode_s += t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let WireState { arenas, rx, .. } = state;
    for arena in arenas.iter() {
        rx.extend_from_slice(arena);
    }
    state.stats.transit_s += t1.elapsed().as_secs_f64();

    // Decode-validate the transited bytes shard by shard.
    let t2 = Instant::now();
    let mut cursor = state.rx.as_slice();
    for (machine, shard) in shards.iter().enumerate() {
        let decoded: Vec<T> = decode_frame(&mut cursor)
            .unwrap_or_else(|e| panic!("shard {machine} decode in `{label}`: {e}"));
        assert_eq!(
            decoded.len(),
            shard.len(),
            "shard {machine} item count changed in transit in `{label}`"
        );
    }
    state.stats.decode_s += t2.elapsed().as_secs_f64();

    let stats = &mut state.stats;
    stats.setup_bytes += total_payload;
    stats.overhead_bytes += FRAME_HEADER_BYTES as u64 * shards.len() as u64;
    stats.frames += shards.len() as u64;
}
