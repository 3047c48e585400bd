//! Cluster transports: how collective payloads physically move.
//!
//! Every [`crate::Cluster`] collective states its traffic once, as a list
//! of messages (source, recipients, items). The cluster derives the
//! ledger row from that list; the transport decides what happens to the
//! items:
//!
//! * [`TransportKind::Sim`] — the direct in-memory path, bit-exact
//!   reference. Values move by ownership transfer; nothing is encoded.
//! * [`TransportKind::Loopback`] — same process, but every message that
//!   has a recipient round-trips through the byte-level wire format
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
//! charged words × 8**. Slots are `weight × 8` bytes, so this holds by
//! construction; it is also measured: [`WireStats::rounds`] is built from
//! the payload bytes the encoder actually wrote, 1:1 with ledger records,
//! and the conformance suite compares the two. Frame headers are
//! transport overhead, tracked separately in [`WireStats::overhead_bytes`],
//! never charged to the model.
//!
//! Self-traffic ships nothing: a machine is never its own recipient, so a
//! machine's own `all_broadcast` contribution, the central machine's own
//! `gather`/`scatter` share, `exchange` self-boxes and every `m = 1`
//! round stay local, exactly as the ledger charges zero for them.

use std::ops::Range;
use std::time::Instant;

use crate::wire::{decode_frame, encode_frame, Wire, FRAME_HEADER_BYTES};

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
    /// Which transport produced these numbers.
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
    /// Flattens into the summary Telemetry carries.
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

/// A snapshot of [`WireStats`] (no per-round rows).
#[derive(Debug, Clone, PartialEq)]
pub struct WireSummary {
    /// Transport name (`sim` clusters produce no summary at all).
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

/// Who receives a message: every machine but its source, or one machine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dst {
    /// Every machine except the source (broadcast-shaped traffic).
    AllOthers,
    /// Exactly one machine (gather/scatter/exchange edges).
    One(usize),
}

/// One message of a collective round: `src` ships `items` to `dst`.
pub(crate) struct Msg<T> {
    pub(crate) src: usize,
    pub(crate) dst: Dst,
    pub(crate) items: Vec<T>,
}

impl<T> Msg<T> {
    /// The machines this message reaches among `m`; a machine is never
    /// its own recipient.
    pub(crate) fn recipients(&self, m: usize) -> impl Iterator<Item = usize> {
        let span = match self.dst {
            Dst::AllOthers => 0..m,
            Dst::One(d) => d..d + 1,
        };
        let src = self.src;
        span.filter(move |&r| r != src)
    }
}

/// The loopback transport's buffers and counters.
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
    pub(crate) fn new(m: usize) -> Self {
        Self {
            arenas: vec![Vec::new(); m],
            rx: Vec::new(),
            stats: WireStats {
                kind: TransportKind::Loopback,
                ..WireStats::default()
            },
        }
    }

    /// Carries one collective round: frames every message that has a
    /// recipient, moves the frames across and decodes them. Returns every
    /// message's items in order — decoded for the framed ones (these are
    /// authoritative; callers continue with them), unchanged for the
    /// rest. Appends the round's [`WireRound`] row, built from the payload
    /// bytes the encoder wrote.
    pub(crate) fn round<T: Wire>(
        &mut self,
        label: &str,
        weight: u64,
        msgs: Vec<Msg<T>>,
    ) -> Vec<Vec<T>> {
        let m = self.arenas.len();
        let framed: Vec<(usize, &[T])> = msgs
            .iter()
            .filter(|msg| msg.recipients(m).next().is_some())
            .map(|msg| (msg.src, msg.items.as_slice()))
            .collect();
        let mut carried = self.carry(label, weight, &framed).into_iter();
        let mut io = vec![ByteIo::default(); m];
        let mut deliveries: u64 = 0;
        let mut out = Vec::with_capacity(msgs.len());
        for msg in msgs {
            if msg.recipients(m).next().is_none() {
                out.push(msg.items);
                continue;
            }
            let (payload, items) = carried.next().expect("one frame per framed message");
            for r in msg.recipients(m) {
                io[msg.src].sent += payload;
                io[r].received += payload;
                deliveries += 1;
            }
            out.push(items);
        }
        let stats = &mut self.stats;
        stats.payload_bytes += io.iter().map(|b| b.sent).sum::<u64>();
        stats.overhead_bytes += FRAME_HEADER_BYTES as u64 * deliveries;
        stats.rounds.push(WireRound {
            label: label.to_string(),
            per_machine: io,
        });
        out
    }

    /// Setup-plane shard shipping (see [`crate::Cluster::ship_shards`]):
    /// one frame per machine moves and is decode-validated, but no ledger
    /// row and no [`WireRound`] is written; the bytes count as
    /// [`WireStats::setup_bytes`].
    pub(crate) fn ship_setup<T: Wire>(&mut self, label: &str, shards: &[Vec<T>], weight: u64) {
        let frames: Vec<(usize, &[T])> = shards.iter().map(Vec::as_slice).enumerate().collect();
        let carried = self.carry(label, weight, &frames);
        self.stats.setup_bytes += carried.iter().map(|(payload, _)| payload).sum::<u64>();
        self.stats.overhead_bytes += FRAME_HEADER_BYTES as u64 * frames.len() as u64;
    }

    /// Encodes each `(src, items)` frame into `src`'s arena, copies the
    /// frames across the wire buffer, and decodes them from the transited
    /// bytes. Returns each frame's payload length as written (the arena
    /// range minus its header) and its decoded items.
    fn carry<T: Wire>(
        &mut self,
        label: &str,
        weight: u64,
        frames: &[(usize, &[T])],
    ) -> Vec<(u64, Vec<T>)> {
        let t0 = Instant::now();
        for arena in &mut self.arenas {
            arena.clear();
        }
        self.rx.clear();
        let ranges: Vec<Range<usize>> = frames
            .iter()
            .map(|&(src, items)| {
                let arena = &mut self.arenas[src];
                let start = arena.len();
                encode_frame(label, items, weight, arena);
                start..arena.len()
            })
            .collect();
        self.stats.encode_s += t0.elapsed().as_secs_f64();

        // One physical copy per frame across the wire buffer (the logical
        // fan-out is accounting, not extra memcpy — same as a real
        // broadcast medium).
        let t1 = Instant::now();
        let rx_ranges: Vec<Range<usize>> = frames
            .iter()
            .zip(ranges)
            .map(|(&(src, _), range)| {
                let start = self.rx.len();
                self.rx.extend_from_slice(&self.arenas[src][range]);
                start..self.rx.len()
            })
            .collect();
        self.stats.transit_s += t1.elapsed().as_secs_f64();
        let held = self.arenas.iter().map(Vec::capacity).sum::<usize>() + self.rx.capacity();
        self.stats.arena_high_water = self.stats.arena_high_water.max(held as u64);

        let t2 = Instant::now();
        let out = frames
            .iter()
            .zip(rx_ranges)
            .map(|(&(_, items), range)| {
                let payload = (range.len() - FRAME_HEADER_BYTES) as u64;
                let mut cursor = &self.rx[range];
                let decoded: Vec<T> = decode_frame(&mut cursor)
                    .unwrap_or_else(|e| panic!("wire decode failed in `{label}`: {e}"));
                assert!(cursor.is_empty(), "trailing bytes after frame in `{label}`");
                assert_eq!(
                    decoded.len(),
                    items.len(),
                    "item count changed in transit in `{label}`"
                );
                (payload, decoded)
            })
            .collect();
        self.stats.decode_s += t2.elapsed().as_secs_f64();
        self.stats.frames += frames.len() as u64;
        out
    }
}
