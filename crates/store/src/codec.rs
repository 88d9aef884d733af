//! Exact-bit binary codec over the vendored serde [`Value`] tree.
//!
//! JSON text cannot carry every `f64`: the vendored writer and parser do
//! not preserve `NaN` payload bits. Model weights and cached metrics
//! must survive a disk round-trip **bit for bit** — a warm run that loads a
//! stored surrogate has to predict exactly what the cold-trained one did.
//! This codec therefore serializes any [`Serialize`] type generically
//! through its `Value` tree, storing every number as its raw
//! `f64::to_bits()` pattern: `decode(encode(x)) == x` at the bit level for
//! every value the vendored data model can represent.
//!
//! ## Wire format (little-endian)
//!
//! One tag byte per node, then the payload:
//!
//! | tag | node | payload |
//! |----:|------|---------|
//! | 0 | `Null` | — |
//! | 1 | `Bool(false)` | — |
//! | 2 | `Bool(true)` | — |
//! | 3 | `Num(f64)` | 8 bytes, `to_bits()` |
//! | 4 | `Str` | varint byte length + UTF-8 bytes |
//! | 5 | `Arr` | varint element count + encoded elements |
//! | 6 | `Obj` | varint entry count + (varint key length, key, value)* |
//!
//! Varints are LEB128 `u64`. The encoding is canonical: one byte stream
//! per `Value` tree, so fingerprints over encoded bytes are stable.

use serde::json::Value;
use serde::{Deserialize, Serialize};

/// Decoding failure: truncated input, an unknown tag, or trailing bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_NUM: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_ARR: u8 = 5;
const TAG_OBJ: u8 = 6;

/// Appends `n` as a LEB128 varint.
pub fn write_varint(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `*pos`, advancing it.
///
/// # Errors
///
/// Returns [`CodecError`] on truncated input or a varint wider than 64
/// bits.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut n: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or_else(|| CodecError::new("truncated varint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::new("varint overflow"));
        }
        n |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(n);
        }
        shift += 7;
    }
}

fn write_bytes(b: &[u8], out: &mut Vec<u8>) {
    write_varint(b.len() as u64, out);
    out.extend_from_slice(b);
}

fn read_exact<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CodecError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| CodecError::new("truncated payload"))?;
    let out = &bytes[*pos..end];
    *pos = end;
    Ok(out)
}

fn read_len(bytes: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let n = read_varint(bytes, pos)?;
    usize::try_from(n).map_err(|_| CodecError::new("length overflows usize"))
}

/// Appends the canonical encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Num(n) => {
            out.push(TAG_NUM);
            out.extend_from_slice(&n.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_bytes(s.as_bytes(), out);
        }
        Value::Arr(items) => {
            out.push(TAG_ARR);
            write_varint(items.len() as u64, out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Obj(entries) => {
            out.push(TAG_OBJ);
            write_varint(entries.len() as u64, out);
            for (key, value) in entries {
                write_bytes(key.as_bytes(), out);
                encode_value(value, out);
            }
        }
    }
}

/// Decodes one `Value` at `*pos`, advancing it past the node.
///
/// # Errors
///
/// Returns [`CodecError`] on truncation, an unknown tag, or invalid UTF-8.
pub fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value, CodecError> {
    let &tag = bytes
        .get(*pos)
        .ok_or_else(|| CodecError::new("truncated tag"))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_NUM => {
            let raw = read_exact(bytes, pos, 8)?;
            let bits = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
            Ok(Value::Num(f64::from_bits(bits)))
        }
        TAG_STR => {
            let len = read_len(bytes, pos)?;
            let raw = read_exact(bytes, pos, len)?;
            let s = std::str::from_utf8(raw).map_err(|_| CodecError::new("invalid UTF-8"))?;
            Ok(Value::Str(s.to_string()))
        }
        TAG_ARR => {
            let count = read_len(bytes, pos)?;
            let mut items = Vec::new();
            for _ in 0..count {
                items.push(decode_value(bytes, pos)?);
            }
            Ok(Value::Arr(items))
        }
        TAG_OBJ => {
            let count = read_len(bytes, pos)?;
            let mut entries = Vec::new();
            for _ in 0..count {
                let klen = read_len(bytes, pos)?;
                let kraw = read_exact(bytes, pos, klen)?;
                let key = std::str::from_utf8(kraw)
                    .map_err(|_| CodecError::new("invalid UTF-8 key"))?
                    .to_string();
                let value = decode_value(bytes, pos)?;
                entries.push((key, value));
            }
            Ok(Value::Obj(entries))
        }
        other => Err(CodecError::new(format!("unknown tag {other}"))),
    }
}

/// Encodes any serializable type through its `Value` tree, exact f64 bits.
#[must_use]
pub fn encode<T: Serialize>(t: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(&t.to_value(), &mut out);
    out
}

/// Decodes a type previously written by [`encode`]. Trailing bytes after
/// the value are an error — a record payload holds exactly one value.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed bytes or a `Value`-shape mismatch.
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut pos = 0;
    let value = decode_value(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(CodecError::new("trailing bytes after value"));
    }
    T::from_value(&value).map_err(|e| CodecError::new(format!("{e:?}")))
}

/// FNV-1a over `bytes`: the per-record checksum and the fingerprint hash
/// used by the model registry (full 64 bits — fingerprints live only in
/// binary records, never in a JSON `f64`).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut out = Vec::new();
        encode_value(v, &mut out);
        let mut pos = 0;
        let back = decode_value(&out, &mut pos).expect("decodes");
        assert_eq!(pos, out.len(), "decoder must consume the whole encoding");
        back
    }

    fn bits_of(v: &Value) -> Vec<u64> {
        match v {
            Value::Num(n) => vec![n.to_bits()],
            Value::Arr(items) => items.iter().flat_map(bits_of).collect(),
            Value::Obj(entries) => entries.iter().flat_map(|(_, e)| bits_of(e)).collect(),
            _ => vec![],
        }
    }

    #[test]
    fn scalar_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Str(String::new()),
            Value::Str("hëllo".to_string()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn pathological_floats_round_trip_bit_exactly() {
        // Values JSON text handles badly or not at all.
        for bits in [
            (-0.0f64).to_bits(),
            f64::NAN.to_bits() | 0xdead,
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::MIN_POSITIVE.to_bits() >> 1, // subnormal
            1.0f64.to_bits(),
            (1.0f64 / 3.0).to_bits(),
        ] {
            let v = Value::Num(f64::from_bits(bits));
            let back = round_trip(&v);
            assert_eq!(bits_of(&back), vec![bits], "bits {bits:#x} must survive");
        }
    }

    #[test]
    fn nested_tree_round_trips() {
        let v = Value::Obj(vec![
            ("weights".to_string(), {
                Value::Arr((0..64).map(|i| Value::Num((i as f64).sqrt())).collect())
            }),
            ("name".to_string(), Value::Str("mlp".to_string())),
            ("nested".to_string(), Value::Obj(vec![])),
            ("flag".to_string(), Value::Bool(false)),
            ("none".to_string(), Value::Null),
        ]);
        let back = round_trip(&v);
        assert_eq!(bits_of(&back), bits_of(&v));
        assert_eq!(back, v);
    }

    #[test]
    fn varint_round_trips_across_widths() {
        for n in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            write_varint(n, &mut out);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos).expect("reads"), n);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn truncation_and_unknown_tags_are_errors() {
        let mut out = Vec::new();
        encode_value(&Value::Num(1.5), &mut out);
        out.truncate(5);
        assert!(decode_value(&out, &mut 0).is_err());
        assert!(decode_value(&[0xFF], &mut 0).is_err());
        assert!(decode_value(&[], &mut 0).is_err());
        // Trailing bytes are rejected by the typed decoder.
        let mut padded = encode(&1.5f64);
        padded.push(0);
        assert!(decode::<f64>(&padded).is_err());
    }

    #[test]
    fn typed_encode_decode_round_trips_serde_types() {
        let v: Vec<f64> = vec![-0.0, 0.5, f64::INFINITY];
        let back: Vec<f64> = decode(&encode(&v)).expect("decodes");
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
