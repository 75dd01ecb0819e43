//! JSON ⇄ [`DataFrame`] bridging and small value-tree helpers.
//!
//! The wire format for tuple batches is columnar — mirroring the engine's
//! SoA layout, and cheap to build from any dataframe-shaped client:
//!
//! ```json
//! {"columns": {"x": [1.5, 2.5], "regime": ["a", "b"]}}
//! ```
//!
//! An all-number array (JSON `null` ⇒ NaN, like the CSV reader's missing
//! values) becomes a numeric column; an all-string array becomes a
//! categorical column. The vendored `serde_json` shim serializes `f64`
//! through shortest-round-trip formatting, so numeric payloads survive
//! HTTP bit-exactly — the property the loopback equivalence test pins.

use cc_frame::DataFrame;
use serde_json::Value;

/// Field lookup that treats non-objects and missing keys as `None`.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// String payload of a value.
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::String(s) => Some(s),
        _ => None,
    }
}

/// Numeric payload of a value.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

/// Non-negative integer payload of a value.
pub fn as_usize(v: &Value) -> Option<usize> {
    match v {
        Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as usize),
        _ => None,
    }
}

/// Builds an object value from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A number array value.
pub fn num_array(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Number(x)).collect())
}

/// A string value.
pub fn string(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// The inverse of [`frame_from_columns`]: renders a frame as the wire's
/// full `{"columns": …}` request body (numeric columns as number
/// arrays, categorical columns as label arrays). Every in-repo load
/// driver — `bench_serve`, the `serve_loadtest` example, the loopback
/// tests — builds payloads through this, so their wire format cannot
/// drift from what the server parses.
pub fn columns_body(df: &DataFrame) -> Value {
    let mut cols = Vec::new();
    for name in df.numeric_names() {
        let vals = df.numeric(name).expect("listed numeric column");
        cols.push((
            name.to_owned(),
            Value::Array(vals.iter().map(|&v| Value::Number(v)).collect()),
        ));
    }
    for name in df.categorical_names() {
        let (codes, dict) = df.categorical(name).expect("listed categorical column");
        cols.push((
            name.to_owned(),
            Value::Array(codes.iter().map(|&c| Value::String(dict[c as usize].clone())).collect()),
        ));
    }
    Value::Object(vec![("columns".to_owned(), Value::Object(cols))])
}

/// Builds a [`DataFrame`] from a columnar JSON object.
///
/// # Errors
/// Returns a request-shaped message (for a `400`) when the value is not
/// an object of arrays, a column mixes numbers and strings, or column
/// lengths disagree.
pub fn frame_from_columns(columns: &Value) -> Result<DataFrame, String> {
    let Value::Object(pairs) = columns else {
        return Err(format!("'columns' must be an object of arrays, found {}", columns.kind()));
    };
    let mut df = DataFrame::new();
    for (name, col) in pairs {
        let Value::Array(items) = col else {
            return Err(format!("column '{name}' must be an array, found {}", col.kind()));
        };
        let kind = items.iter().find(|v| !matches!(v, Value::Null));
        match kind {
            Some(Value::String(_)) => {
                let mut vals = Vec::with_capacity(items.len());
                for v in items {
                    vals.push(as_str(v).ok_or_else(|| {
                        format!("column '{name}' mixes strings with {}", v.kind())
                    })?);
                }
                df.push_categorical(name.clone(), &vals)
                    .map_err(|e| format!("column '{name}': {e}"))?;
            }
            // All-null or empty columns default to numeric (null ⇒ NaN).
            Some(Value::Number(_)) | None => {
                let mut vals = Vec::with_capacity(items.len());
                for v in items {
                    vals.push(match v {
                        Value::Number(n) => *n,
                        Value::Null => f64::NAN,
                        other => {
                            return Err(format!(
                                "column '{name}' mixes numbers with {}",
                                other.kind()
                            ))
                        }
                    });
                }
                df.push_numeric(name.clone(), vals).map_err(|e| format!("column '{name}': {e}"))?;
            }
            Some(other) => {
                return Err(format!(
                    "column '{name}' must hold numbers or strings, found {}",
                    other.kind()
                ))
            }
        }
    }
    Ok(df)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columnar_frame_roundtrip() {
        let body: Value =
            serde_json::from_str(r#"{"x": [1.5, null, -3.25], "regime": ["a", "b", "a"]}"#)
                .unwrap();
        let df = frame_from_columns(&body).unwrap();
        assert_eq!(df.n_rows(), 3);
        let x = df.numeric("x").unwrap();
        assert_eq!(x[0], 1.5);
        assert!(x[1].is_nan());
        let (codes, dict) = df.categorical("regime").unwrap();
        assert_eq!(dict, &["a".to_owned(), "b".to_owned()]);
        assert_eq!(codes, &[0, 1, 0]);
    }

    #[test]
    fn length_mismatch_rejected() {
        let v: Value = serde_json::from_str(r#"{"x": [1, 2, 3], "y": [1]}"#).unwrap();
        assert!(frame_from_columns(&v).is_err());
    }

    #[test]
    fn columns_body_inverts_frame_from_columns() {
        let mut df = DataFrame::new();
        df.push_numeric("x", vec![1.5, f64::NAN, -3.25]).unwrap();
        df.push_categorical("regime", &["a", "b", "a"]).unwrap();
        let body = columns_body(&df);
        let back = frame_from_columns(get(&body, "columns").unwrap()).unwrap();
        assert_eq!(back.numeric("x").unwrap()[0].to_bits(), 1.5f64.to_bits());
        // NaN travels as JSON null and comes back NaN.
        assert!(back.numeric("x").unwrap()[1].is_nan());
        assert_eq!(back.categorical("regime").unwrap(), df.categorical("regime").unwrap());
    }

    #[test]
    fn surrogate_pair_escaped_label_is_the_raw_label() {
        // Python's `json.dumps` escapes text beyond the BMP as a UTF-16
        // surrogate pair by default; the label must decode to the same
        // dictionary entry as the raw UTF-8 one, not to two U+FFFD.
        let escaped = r#"{"x": [1, 2], "label": ["\ud83d\ude00", "a"]}"#;
        let raw = "{\"x\": [1, 2], \"label\": [\"\u{1f600}\", \"a\"]}";
        let from_escaped = frame_from_columns(&serde_json::from_str(escaped).unwrap()).unwrap();
        let from_raw = frame_from_columns(&serde_json::from_str(raw).unwrap()).unwrap();
        assert_eq!(from_escaped.categorical("label"), from_raw.categorical("label"));
        assert_eq!(from_escaped.numeric("x"), from_raw.numeric("x"));
        assert_eq!(from_raw.categorical("label").unwrap().1[0], "\u{1f600}");
    }

    #[test]
    fn mixed_and_malformed_columns_rejected() {
        for bad in [
            r#"{"x": [1, "a"]}"#,
            r#"{"x": ["a", 1]}"#,
            r#"{"x": 5}"#,
            r#"{"x": [true]}"#,
            r#"[1, 2]"#,
        ] {
            let v: Value = serde_json::from_str(bad).unwrap();
            assert!(frame_from_columns(&v).is_err(), "{bad}");
        }
    }
}
