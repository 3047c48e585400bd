//! Offline vendored shim for `serde` — now a **real compact byte codec**.
//!
//! Until the transport refactor (ISSUE 10) these were empty marker traits:
//! nothing in the workspace consumed serialized bytes, so `#[derive]` sites
//! were decorative. The pluggable `Cluster` transport changed that — the
//! `loopback` backend moves every collective's payload through
//! length-prefixed little-endian frames, so `Serialize` / `Deserialize`
//! now carry a working wire codec:
//!
//! * [`Serialize::to_bytes`] appends a value's canonical little-endian
//!   encoding to a byte buffer;
//! * [`Deserialize::from_bytes`] reads one value back, advancing the input
//!   slice, and fails loudly (never panics) on truncated or malformed
//!   input.
//!
//! The encoding is deliberately boring and bijective per type: fixed-width
//! integers and floats as little-endian bytes (`f64` round-trips bit
//! patterns, so NaN payloads and signed zeros survive), `usize` widened to
//! 8 bytes for cross-process stability, sequences as a `u64` length prefix
//! followed by the elements, `Option` as a 1-byte tag, tuples and structs
//! as the concatenation of their fields. There is no self-description and
//! no varint cleverness — decode must know the type, exactly like real
//! serde with a compact binary format (bincode's fixint encoding is the
//! spiritual ancestor).
//!
//! The `derive` feature expands `#[derive(Serialize, Deserialize)]` to
//! field-wise codec impls (see `serde_derive`), so existing call sites
//! keep compiling unchanged — but now produce working codecs.

/// Decoding failure: truncated input, a malformed tag, or trailing garbage
/// where a caller demanded exhaustion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value did: `needed` more bytes than `had`.
    Truncated { needed: usize, had: usize },
    /// A tag byte (e.g. an `Option` discriminant) held an invalid value.
    BadTag { context: &'static str, tag: u8 },
    /// A length prefix exceeded a sanity bound or the remaining input.
    BadLength { context: &'static str, len: u64 },
    /// Bytes were not valid UTF-8 where a `String` was expected.
    BadUtf8,
    /// A caller demanded the input be fully consumed and it was not.
    TrailingBytes { remaining: usize },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { needed, had } => {
                write!(f, "truncated input: needed {needed} bytes, had {had}")
            }
            Self::BadTag { context, tag } => write!(f, "bad tag {tag:#04x} decoding {context}"),
            Self::BadLength { context, len } => {
                write!(f, "implausible length {len} decoding {context}")
            }
            Self::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            Self::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serialization into the compact little-endian wire encoding.
pub trait Serialize {
    /// Appends this value's encoding to `out`.
    fn to_bytes(&self, out: &mut Vec<u8>);

    /// Convenience: the encoding as a fresh vector.
    fn to_byte_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.to_bytes(&mut out);
        out
    }
}

/// Deserialization from the compact little-endian wire encoding.
///
/// The lifetime parameter mirrors real serde's `Deserialize<'de>` so
/// existing bounds and `#[derive]` sites compile unchanged; this codec
/// never borrows from the input.
pub trait Deserialize<'de>: Sized {
    /// Reads one value from the front of `input`, advancing it past the
    /// consumed bytes.
    fn from_bytes(input: &mut &[u8]) -> Result<Self, DecodeError>;

    /// Decodes a value that must occupy `input` exactly.
    fn from_bytes_exact(mut input: &[u8]) -> Result<Self, DecodeError> {
        let v = Self::from_bytes(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(DecodeError::TrailingBytes {
                remaining: input.len(),
            })
        }
    }
}

/// Takes `n` bytes off the front of `input` or reports truncation.
#[inline]
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if input.len() < n {
        return Err(DecodeError::Truncated {
            needed: n,
            had: input.len(),
        });
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

macro_rules! impl_le_codec {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn to_bytes(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl<'de> Deserialize<'de> for $t {
            #[inline]
            fn from_bytes(input: &mut &[u8]) -> Result<Self, DecodeError> {
                let raw = take(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("sized take")))
            }
        }
    )*};
}

impl_le_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

// `usize`/`isize` travel as 8 bytes so encodings are identical across
// hosts.
impl Serialize for usize {
    #[inline]
    fn to_bytes(&self, out: &mut Vec<u8>) {
        (*self as u64).to_bytes(out);
    }
}

impl<'de> Deserialize<'de> for usize {
    #[inline]
    fn from_bytes(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let v = u64::from_bytes(input)?;
        usize::try_from(v).map_err(|_| DecodeError::BadLength {
            context: "usize",
            len: v,
        })
    }
}

impl Serialize for isize {
    #[inline]
    fn to_bytes(&self, out: &mut Vec<u8>) {
        (*self as i64).to_bytes(out);
    }
}

impl<'de> Deserialize<'de> for isize {
    #[inline]
    fn from_bytes(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let v = i64::from_bytes(input)?;
        isize::try_from(v).map_err(|_| DecodeError::BadLength {
            context: "isize",
            len: v as u64,
        })
    }
}

impl Serialize for bool {
    #[inline]
    fn to_bytes(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl<'de> Deserialize<'de> for bool {
    #[inline]
    fn from_bytes(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::from_bytes(input)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }
}

/// Reads a `u64` length prefix and sanity-checks it against the remaining
/// input, assuming each element costs at least `min_elem_bytes` — rejects
/// hostile prefixes before any allocation.
#[inline]
fn read_len(
    input: &mut &[u8],
    context: &'static str,
    min_elem_bytes: usize,
) -> Result<usize, DecodeError> {
    let len = u64::from_bytes(input)?;
    let cap = (input.len() / min_elem_bytes.max(1)) as u64;
    if len > cap {
        return Err(DecodeError::BadLength { context, len });
    }
    Ok(len as usize)
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_bytes(&self, out: &mut Vec<u8>) {
        (self.len() as u64).to_bytes(out);
        for item in self {
            item.to_bytes(out);
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_bytes(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = read_len(input, "Vec", 1)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::from_bytes(input)?);
        }
        Ok(v)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_bytes(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.to_bytes(out);
            }
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_bytes(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::from_bytes(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::from_bytes(input)?)),
            tag => Err(DecodeError::BadTag {
                context: "Option",
                tag,
            }),
        }
    }
}

impl Serialize for String {
    fn to_bytes(&self, out: &mut Vec<u8>) {
        (self.len() as u64).to_bytes(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_bytes(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = read_len(input, "String", 1)?;
        let raw = take(input, len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

impl Serialize for &str {
    fn to_bytes(&self, out: &mut Vec<u8>) {
        (self.len() as u64).to_bytes(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Serialize for () {
    fn to_bytes(&self, _out: &mut Vec<u8>) {}
}

impl<'de> Deserialize<'de> for () {
    fn from_bytes(_input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(())
    }
}

macro_rules! impl_tuple_codec {
    ($(($($name:ident : $idx:tt),+)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_bytes(&self, out: &mut Vec<u8>) {
                $(self.$idx.to_bytes(out);)+
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_bytes(input: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok(($($name::from_bytes(input)?,)+))
            }
        }
    )*};
}

impl_tuple_codec!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4)
);

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_bytes(&self, out: &mut Vec<u8>) {
        for item in self {
            item.to_bytes(out);
        }
    }
}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T>(v: T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de> + std::fmt::Debug,
    {
        T::from_bytes_exact(&v.to_byte_vec()).expect("roundtrip")
    }

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(roundtrip(0xDEAD_BEEFu32), 0xDEAD_BEEF);
        assert_eq!(roundtrip(-5i64), -5);
        assert_eq!(roundtrip(usize::MAX), usize::MAX);
        assert!(roundtrip(true));
        assert_eq!(roundtrip(3.25f64).to_bits(), 3.25f64.to_bits());
        // NaN payloads and signed zeros survive bit-exactly.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(roundtrip(nan).to_bits(), nan.to_bits());
        assert_eq!(roundtrip(-0.0f64).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn compound_roundtrips() {
        assert_eq!(roundtrip(vec![1u32, 2, 3]), vec![1, 2, 3]);
        assert_eq!(roundtrip(String::from("naïve")), "naïve");
        assert_eq!(roundtrip(Some((7u32, 2.5f64))), Some((7, 2.5)));
        assert_eq!(roundtrip(None::<u64>), None);
        assert_eq!(
            roundtrip(vec![vec![String::from("a")], vec![]]),
            vec![vec![String::from("a")], Vec::new()]
        );
        assert_eq!(roundtrip((1u32, 2u64, 3.0f64)), (1, 2, 3.0));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = 0xAABBCCDDu32.to_byte_vec();
        let mut short = &bytes[..3];
        assert!(matches!(
            u32::from_bytes(&mut short),
            Err(DecodeError::Truncated { needed: 4, had: 3 })
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        let mut bytes = Vec::new();
        u64::MAX.to_bytes(&mut bytes); // claims 2^64-1 elements
        let mut input = bytes.as_slice();
        assert!(matches!(
            Vec::<u64>::from_bytes(&mut input),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn bad_tags_rejected() {
        let mut input: &[u8] = &[2u8];
        assert!(matches!(
            Option::<u8>::from_bytes(&mut input),
            Err(DecodeError::BadTag { .. })
        ));
        let mut input: &[u8] = &[7u8];
        assert!(matches!(
            bool::from_bytes(&mut input),
            Err(DecodeError::BadTag { .. })
        ));
    }

    #[test]
    fn exact_decode_rejects_trailing_bytes() {
        let mut bytes = 1u32.to_byte_vec();
        bytes.push(0);
        assert!(matches!(
            u32::from_bytes_exact(&bytes),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }
}
