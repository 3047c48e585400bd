//! The byte-level wire format of the cluster transports.
//!
//! Collectives charge the [`crate::Ledger`] in **words** (8 bytes each, the
//! MPC model's unit); the wire format makes that charge literal. Every item
//! shipped by a collective occupies exactly `weight × 8` bytes on the wire —
//! a *slot*. Inside the slot sits the item's compact [`serde`] encoding,
//! zero-padded up to the slot size. Two consequences, both load-bearing:
//!
//! 1. **`wire bytes == 8 × charged words` by construction**, per machine
//!    and per round — the ledger becomes a checkable contract instead of a
//!    bookkeeping convention (the conformance suite re-derives both sides
//!    independently and compares).
//! 2. **Undercharging is a hard error.** If an item's compact encoding
//!    does not fit its slot, the collective charged fewer words than the
//!    data physically needs, and [`encode_slots`] panics — the class of
//!    bug fixed by hand in PR 1 (`all_reduce` result-leg undercharge) is
//!    now structurally impossible to reintroduce silently.
//!
//! A frame is one logical message (one source machine's payload for one
//! collective): a fixed 16-byte little-endian header — magic, item count,
//! weight, payload length — followed by `items × weight × 8` payload
//! bytes. Frames are written into per-machine arena buffers that are
//! reused across rounds, so steady-state rounds allocate nothing on the
//! encode side.

use serde::{DecodeError, Deserialize, Serialize};

/// Marker for types a collective can move: encodable and decodable with
/// the compact codec. Blanket-implemented; callers never implement it.
pub trait Wire: Serialize + for<'de> Deserialize<'de> {}

impl<T: Serialize + for<'de> Deserialize<'de>> Wire for T {}

/// Bytes per MPC word — the model's unit of account.
pub const WORD_BYTES: usize = 8;

/// `b"KCWF"` — k-center wire frame.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"KCWF");

/// Length of the fixed frame header.
pub const FRAME_HEADER_BYTES: usize = 16;

/// Parsed frame header: `magic | items | weight | payload_len`, all
/// little-endian `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Number of item slots in the payload.
    pub items: u32,
    /// Slot width in words; each slot is `weight * 8` bytes.
    pub weight: u32,
    /// Payload length in bytes (`items * weight * 8`).
    pub payload_len: u32,
}

impl FrameHeader {
    /// Appends the 16-byte header to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.items.to_le_bytes());
        out.extend_from_slice(&self.weight.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
    }

    /// Parses and validates a header off the front of `input`.
    pub fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        let magic = u32::from_bytes(input).map_err(WireError::Decode)?;
        if magic != FRAME_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let items = u32::from_bytes(input).map_err(WireError::Decode)?;
        let weight = u32::from_bytes(input).map_err(WireError::Decode)?;
        let payload_len = u32::from_bytes(input).map_err(WireError::Decode)?;
        let expect = (items as u64) * (weight as u64) * WORD_BYTES as u64;
        if expect != payload_len as u64 {
            return Err(WireError::Inconsistent {
                items,
                weight,
                payload_len,
            });
        }
        Ok(Self {
            items,
            weight,
            payload_len,
        })
    }
}

/// Wire-level failure. Unlike ledger budget violations (data), these are
/// always bugs: the transports ship exactly what was encoded, so any
/// decode failure means a corrupted or mis-framed byte stream.
#[derive(Debug)]
pub enum WireError {
    /// Frame did not start with [`FRAME_MAGIC`].
    BadMagic(u32),
    /// Header fields disagree (`items * weight * 8 != payload_len`).
    Inconsistent {
        items: u32,
        weight: u32,
        payload_len: u32,
    },
    /// Item codec failure inside a slot.
    Decode(DecodeError),
    /// An item's compact encoding spilled past its zero padding.
    SlotOverrun {
        slot: usize,
        used: usize,
        cap: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            Self::Inconsistent {
                items,
                weight,
                payload_len,
            } => write!(
                f,
                "inconsistent frame header: {items} items x {weight} words != {payload_len} bytes"
            ),
            Self::Decode(e) => write!(f, "slot decode: {e}"),
            Self::SlotOverrun { slot, used, cap } => {
                write!(f, "slot {slot} decoded {used} bytes, slot holds {cap}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes `items` into fixed `weight * 8`-byte slots appended to `out`.
///
/// # Panics
///
/// Panics if any item's compact encoding exceeds its slot — the ledger
/// charged `weight` words for an item that needs more. That is an
/// accounting bug at the call site (`label` names it), never valid data.
pub fn encode_slots<T: Wire>(label: &str, items: &[T], weight: u64, out: &mut Vec<u8>) {
    let slot = weight as usize * WORD_BYTES;
    for (idx, item) in items.iter().enumerate() {
        let start = out.len();
        item.to_bytes(out);
        let used = out.len() - start;
        assert!(
            used <= slot,
            "wire undercharge in `{label}`: item {idx} encodes to {used} bytes but the \
             ledger charged {weight} words ({slot} bytes) — raise the collective's weight"
        );
        out.resize(start + slot, 0);
    }
}

/// Decodes `count` items out of `weight * 8`-byte slots. Padding must be
/// zero-extendable garbage-free: each slot's codec must consume a prefix
/// and the remainder is ignored (it was written as zeros).
pub fn decode_slots<T: Wire>(bytes: &[u8], count: usize, weight: u64) -> Result<Vec<T>, WireError> {
    let slot = weight as usize * WORD_BYTES;
    if bytes.len() != count * slot {
        return Err(WireError::Inconsistent {
            items: count as u32,
            weight: weight as u32,
            payload_len: bytes.len() as u32,
        });
    }
    let mut out = Vec::with_capacity(count);
    for idx in 0..count {
        let chunk = &bytes[idx * slot..(idx + 1) * slot];
        let mut cursor = chunk;
        let v = T::from_bytes(&mut cursor).map_err(WireError::Decode)?;
        let used = slot - cursor.len();
        if used > slot {
            return Err(WireError::SlotOverrun {
                slot: idx,
                used,
                cap: slot,
            });
        }
        out.push(v);
    }
    Ok(out)
}

/// Encodes one full frame (header + slotted payload) for `items` into
/// `out`; returns the payload byte length (the wire-accountable part —
/// headers are transport overhead, tracked separately).
pub fn encode_frame<T: Wire>(label: &str, items: &[T], weight: u64, out: &mut Vec<u8>) -> u64 {
    let payload_len = items.len() as u64 * weight * WORD_BYTES as u64;
    FrameHeader {
        items: items.len() as u32,
        weight: weight as u32,
        payload_len: payload_len as u32,
    }
    .write(out);
    encode_slots(label, items, weight, out);
    payload_len
}

/// Decodes one full frame off the front of `input`, advancing it.
pub fn decode_frame<T: Wire>(input: &mut &[u8]) -> Result<Vec<T>, WireError> {
    let header = FrameHeader::read(input)?;
    let payload = serde::take(input, header.payload_len as usize).map_err(WireError::Decode)?;
    decode_slots(payload, header.items as usize, header.weight as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_roundtrip_with_padding() {
        let items: Vec<u32> = vec![1, 2, 0xFFFF_FFFF];
        let mut buf = Vec::new();
        encode_slots("t", &items, 2, &mut buf); // 4 used of 16 per slot
        assert_eq!(buf.len(), 3 * 16);
        assert_eq!(decode_slots::<u32>(&buf, 3, 2).unwrap(), items);
    }

    #[test]
    fn exact_fit_slots_roundtrip() {
        let items: Vec<(u64, f64)> = vec![(7, 2.5), (u64::MAX, f64::NEG_INFINITY)];
        let mut buf = Vec::new();
        encode_slots("t", &items, 2, &mut buf); // 16 of 16 — no padding
        assert_eq!(buf.len(), 2 * 16);
        let back = decode_slots::<(u64, f64)>(&buf, 2, 2).unwrap();
        assert_eq!(back, items);
    }

    #[test]
    #[should_panic(expected = "wire undercharge in `cheap`")]
    fn undercharged_weight_panics() {
        // A (u64, f64) item is 16 bytes; weight 1 gives it an 8-byte slot.
        let mut buf = Vec::new();
        encode_slots("cheap", &[(1u64, 2.0f64)], 1, &mut buf);
    }

    #[test]
    fn frame_roundtrip_and_header_checks() {
        let items: Vec<f64> = vec![1.5, -0.0, f64::NAN];
        let mut buf = Vec::new();
        let payload = encode_frame("t", &items, 1, &mut buf);
        assert_eq!(payload, 24);
        assert_eq!(buf.len(), FRAME_HEADER_BYTES + 24);
        let mut cursor = buf.as_slice();
        let back = decode_frame::<f64>(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].to_bits(), 1.5f64.to_bits());
        assert_eq!(back[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back[2].to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut buf = Vec::new();
        encode_frame("t", &[1u32], 1, &mut buf);
        buf[0] ^= 0xFF;
        let mut cursor = buf.as_slice();
        assert!(matches!(
            decode_frame::<u32>(&mut cursor),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn inconsistent_header_rejected() {
        let mut buf = Vec::new();
        encode_frame("t", &[1u32, 2], 1, &mut buf);
        // Lie about the item count without touching the payload length.
        buf[4..8].copy_from_slice(&9u32.to_le_bytes());
        let mut cursor = buf.as_slice();
        assert!(matches!(
            decode_frame::<u32>(&mut cursor),
            Err(WireError::Inconsistent { .. })
        ));
    }

    #[test]
    fn empty_frame_roundtrips() {
        let mut buf = Vec::new();
        assert_eq!(encode_frame::<u32>("t", &[], 3, &mut buf), 0);
        let mut cursor = buf.as_slice();
        assert_eq!(decode_frame::<u32>(&mut cursor).unwrap(), Vec::<u32>::new());
    }
}
