//! The binary columnar batch encoding — the fast wire path.
//!
//! JSON batches pay for themselves twice on the hot path: every `f64` is
//! formatted shortest-round-trip on the client and re-parsed on the
//! server (and again in the other direction for the reply). This module
//! defines a length-prefixed binary layout that deserializes straight
//! into the frame's column planes — zero float parsing, zero per-row
//! allocation — negotiated
//! per request via `Content-Type:` [`CONTENT_TYPE_COLUMNAR`] (requests)
//! and `Accept:` (replies). JSON stays the default and is bit-compatible:
//! both encodings carry `f64`s exactly, so `/v1/check` answers are
//! identical to the bit either way.
//!
//! ## Byte layout (all integers little-endian)
//!
//! ```text
//! offset size  field
//! 0      4     magic  "CCOL"
//! 4      2     version (currently 1)
//! 6      2     flags   (must be 0)
//! 8      4     column count  (u32)
//! 12     8     row count     (u64)
//! 20     …     columns, back to back, each:
//!        1     kind: 0 = numeric, 1 = categorical
//!        4     name length (u32), then that many UTF-8 name bytes
//!   numeric:     row-count × 8   f64 LE plane
//!   categorical: 4  dictionary length (u32)
//!                per entry: 4 label length (u32) + UTF-8 label bytes
//!                row-count × 4   u32 LE code plane
//! ```
//!
//! Decoding is strict: truncated buffers, trailing bytes, bad magic,
//! unknown versions, out-of-range dictionary codes, and duplicate column
//! names are all errors (the API layer maps them to `400`), never panics.

use cc_frame::{Column, DataFrame};

/// The negotiated media type for binary columnar bodies and replies.
pub const CONTENT_TYPE_COLUMNAR: &str = "application/x-ccsynth-columnar";

/// Leading magic bytes of every columnar frame.
pub const MAGIC: [u8; 4] = *b"CCOL";

/// The one encoding version this build speaks.
pub const VERSION: u16 = 1;

/// Column-kind tag for an `f64` plane.
const KIND_NUMERIC: u8 = 0;
/// Column-kind tag for a dictionary-encoded plane.
const KIND_CATEGORICAL: u8 = 1;

/// A decode failure, carrying the request-shaped message for a `400`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "columnar frame: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

/// Encodes a frame into the wire layout, columns in frame order.
pub fn encode_frame(df: &DataFrame) -> Vec<u8> {
    // Numeric planes dominate; reserve for them up front.
    let mut out = Vec::with_capacity(20 + df.n_cols() * (16 + df.n_rows() * 8));
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(df.n_cols() as u32).to_le_bytes());
    out.extend_from_slice(&(df.n_rows() as u64).to_le_bytes());
    for name in df.names() {
        let col = df.column(name).expect("listed column");
        match col {
            Column::Numeric(vals) => {
                out.push(KIND_NUMERIC);
                push_str(&mut out, name);
                for v in vals {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Column::Categorical { codes, dict } => {
                out.push(KIND_CATEGORICAL);
                push_str(&mut out, name);
                out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for label in dict {
                    push_str(&mut out, label);
                }
                for c in codes {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Encodes a violations vector as a one-column frame (`"violations"`) —
/// the binary `/v1/check` reply body.
pub fn encode_violations(violations: &[f64]) -> Vec<u8> {
    let mut df = DataFrame::new();
    df.push_numeric("violations", violations.to_vec()).expect("single fresh column");
    encode_frame(&df)
}

/// Pulls the violations plane back out of a binary `/v1/check` reply.
///
/// # Errors
/// Fails when the body is not a frame holding a numeric `violations`
/// column.
pub fn decode_violations(bytes: &[u8]) -> Result<Vec<f64>, WireError> {
    let df = decode_frame(bytes)?;
    match df.numeric("violations") {
        Ok(v) => Ok(v.to_vec()),
        Err(e) => err(format!("reply lacks a numeric 'violations' column: {e}")),
    }
}

/// Decodes a wire buffer into a [`DataFrame`].
///
/// # Errors
/// Any structural problem — truncation, trailing bytes, bad magic or
/// version, non-UTF-8 names, out-of-range codes, duplicate or
/// length-mismatched columns — is a [`WireError`].
pub fn decode_frame(bytes: &[u8]) -> Result<DataFrame, WireError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return err("bad magic (expected 'CCOL')");
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
    if version != VERSION {
        return err(format!("unsupported version {version} (this build speaks {VERSION})"));
    }
    let flags = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
    if flags != 0 {
        return err(format!("unsupported flags {flags:#06x}"));
    }
    let n_cols = r.u32()? as usize;
    let n_rows = r.u64()?;
    let n_rows = usize::try_from(n_rows).map_err(|_| WireError("row count overflow".into()))?;
    // A frame can never be smaller than its declared planes; reject
    // absurd counts before any allocation is sized from them.
    if n_cols.saturating_mul(1 + 4) > r.remaining()
        || n_rows.saturating_mul(n_cols) > usize::MAX / 8
    {
        return err("declared shape exceeds the buffer");
    }
    let mut df = DataFrame::new();
    for _ in 0..n_cols {
        let kind = r.take(1)?[0];
        let name = r.string()?;
        let col = match kind {
            KIND_NUMERIC => {
                let plane = r.take(n_rows.checked_mul(8).ok_or_else(too_large)?)?;
                // The payload is raw IEEE-754 LE: one pass of 8-byte
                // loads, no text parsing, no per-row allocation.
                let vals: Vec<f64> = plane
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect();
                Column::Numeric(vals)
            }
            KIND_CATEGORICAL => {
                let dict_len = r.u32()? as usize;
                if dict_len.saturating_mul(4) > r.remaining() {
                    return err("dictionary length exceeds the buffer");
                }
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(r.string()?);
                }
                let plane = r.take(n_rows.checked_mul(4).ok_or_else(too_large)?)?;
                let codes: Vec<u32> = plane
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                    .collect();
                match Column::categorical_from_parts(codes, dict) {
                    Some(c) => c,
                    None => return err(format!("column '{name}' has out-of-range codes")),
                }
            }
            k => return err(format!("unknown column kind {k}")),
        };
        df.push_column(name, col).map_err(|e| WireError(e.to_string()))?;
    }
    if r.remaining() != 0 {
        return err(format!("{} trailing bytes after the last column", r.remaining()));
    }
    Ok(df)
}

fn too_large() -> WireError {
    WireError("declared plane size overflows".into())
}

/// Appends a u32-length-prefixed UTF-8 string.
fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over the wire buffer.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return err(format!(
                "truncated: needed {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => err("string field is not UTF-8"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        let mut df = DataFrame::new();
        df.push_numeric("x", vec![1.5, f64::NAN, -0.0, f64::INFINITY]).unwrap();
        df.push_categorical("g", &["b", "a", "b", "c"]).unwrap();
        df.push_numeric("y", vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        df
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn roundtrip_is_bit_identical_and_order_preserving() {
        let df = sample();
        let back = decode_frame(&encode_frame(&df)).unwrap();
        assert_eq!(back.names(), df.names());
        assert_eq!(bits(back.numeric("x").unwrap()), bits(df.numeric("x").unwrap()));
        assert_eq!(bits(back.numeric("y").unwrap()), bits(df.numeric("y").unwrap()));
        assert_eq!(back.categorical("g").unwrap(), df.categorical("g").unwrap());
    }

    #[test]
    fn degenerate_shapes_roundtrip() {
        // No columns at all.
        let empty = DataFrame::new();
        let back = decode_frame(&encode_frame(&empty)).unwrap();
        assert_eq!((back.n_rows(), back.n_cols()), (0, 0));
        // Columns with zero rows (type information survives).
        let mut df = DataFrame::new();
        df.push_numeric("x", Vec::new()).unwrap();
        df.push_categorical::<&str>("g", &[]).unwrap();
        let back = decode_frame(&encode_frame(&df)).unwrap();
        assert_eq!(back.n_rows(), 0);
        assert!(back.numeric("x").is_ok());
        assert!(back.categorical("g").is_ok());
    }

    #[test]
    fn violations_reply_roundtrip() {
        let v = vec![0.0, 1.5, f64::NAN, 3.75];
        let got = decode_violations(&encode_violations(&v)).unwrap();
        assert_eq!(bits(&got), bits(&v));
        assert!(decode_violations(&encode_frame(&DataFrame::new())).is_err());
    }

    #[test]
    fn malformed_frames_rejected_not_panicking() {
        let good = encode_frame(&sample());
        // Every truncation point errors cleanly.
        for cut in 0..good.len() {
            assert!(decode_frame(&good[..cut]).is_err(), "truncation at {cut} accepted");
        }
        // Trailing bytes.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_frame(&long).is_err());
        // Bad magic / version / flags / kind.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(decode_frame(&bad).unwrap_err().0.contains("magic"));
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(decode_frame(&bad).unwrap_err().0.contains("version"));
        let mut bad = good.clone();
        bad[6] = 1;
        assert!(decode_frame(&bad).unwrap_err().0.contains("flags"));
        let mut bad = good;
        bad[20] = 7; // first column's kind tag
        assert!(decode_frame(&bad).unwrap_err().0.contains("kind"));
        // Absurd declared shapes must not allocate or panic.
        let mut huge = encode_frame(&DataFrame::new());
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame(&huge).is_err());
        let mut huge = encode_frame(&sample());
        huge[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_frame(&huge).is_err());
    }

    #[test]
    fn out_of_range_codes_rejected() {
        let mut df = DataFrame::new();
        df.push_categorical("g", &["a", "b"]).unwrap();
        let mut bytes = encode_frame(&df);
        // The final 4 bytes are row 1's code; point it past the dict.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&9u32.to_le_bytes());
        assert!(decode_frame(&bytes).unwrap_err().0.contains("out-of-range"));
    }
}
