//! # cc_state — crash-safe snapshot/restore for the serving stack
//!
//! The paper frames conformance constraints as the trust layer of a
//! deployed data-driven system — but a trust layer that forgets its
//! calibration on every restart silently re-enters the uncalibrated
//! cold-start regime after each rollout. This crate makes the daemon's
//! state *durable*: a versioned, checksummed, dependency-free snapshot
//! format plus the atomic-write discipline that makes `kill -9` at any
//! instant recoverable.
//!
//! ## Format
//!
//! A snapshot file is one JSON object — the **envelope**:
//!
//! ```json
//! {
//!   "magic": "ccstate",
//!   "version": 1,
//!   "checksum": "9c33…e1a0",
//!   "payload": { … }
//! }
//! ```
//!
//! * `magic`/`version` gate format evolution: an unknown version is
//!   *corrupt*, never misread.
//! * `checksum` is FNV-1a 64 (hex) over the payload's **compact** JSON
//!   rendering. [`encode_envelope`] renders the payload exactly once and
//!   splices those bytes into the envelope, so the checksum covers the
//!   very bytes that land in the file. The workspace JSON shim renders
//!   deterministically (insertion-ordered objects, shortest-round-trip
//!   `f64`s), so re-rendering the parsed payload reproduces the hashed
//!   bytes exactly; any torn write or bit flip in the payload fails the
//!   check.
//! * `payload` is whatever the caller persists — for the daemon, a
//!   [`ServerState`]; for the CLI's `monitor --resume`, a single
//!   [`cc_monitor::MonitorState`].
//!
//! ## Write discipline
//!
//! [`write_snapshot`] never touches the live file: the envelope is
//! written to a uniquely-named temp file in the same directory
//! (`.<name>.<pid>.<seq>.tmp` — pid + an in-process counter, so two
//! daemons pointed at the same state dir, or two threads in one daemon,
//! can never clobber each other's temp files), fsynced, atomically
//! renamed over the destination, and the directory entry fsynced.
//! A reader therefore sees either the complete old snapshot or the
//! complete new one — never a prefix.
//!
//! ## Read discipline
//!
//! [`read_snapshot`] verifies magic, version, and checksum before
//! deserializing. [`load_or_quarantine`] is the boot path: a corrupt
//! file is renamed to `<name>.corrupt` (preserved for forensics) and the
//! caller starts fresh with a warning — a damaged snapshot must never
//! stop the daemon from serving.

pub mod server_state;

pub use server_state::{MonitorEntry, ServerState};

use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Snapshot format version this build writes and reads.
pub const FORMAT_VERSION: u64 = 1;

/// Envelope magic string.
pub const MAGIC: &str = "ccstate";

/// Snapshot failures.
#[derive(Debug)]
pub enum StateError {
    /// Filesystem failure (including "no snapshot file").
    Io(std::io::Error),
    /// The file exists but is not a valid snapshot: garbage JSON, wrong
    /// magic, unsupported version, checksum mismatch, or a payload the
    /// target type rejects.
    Corrupt(String),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Io(e) => write!(f, "snapshot io error: {e}"),
            StateError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<std::io::Error> for StateError {
    fn from(e: std::io::Error) -> Self {
        StateError::Io(e)
    }
}

/// FNV-1a 64 over raw bytes — dependency-free, stable across platforms,
/// and ample for torn-write/bit-rot detection (this is an integrity
/// check, not an adversarial MAC).
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// In-process temp-file sequence (combined with the pid for uniqueness
/// across processes sharing a state directory).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Serializes `payload` into the envelope as a JSON string — the same
/// magic/version/checksum framing [`write_snapshot`] persists, minus the
/// file. This is the fleet wire format: shard delta batches travel
/// between daemons inside the envelope, so a truncated or corrupted
/// transfer fails the same checks a torn snapshot would.
///
/// # Errors
/// [`StateError::Corrupt`] when the payload does not serialize.
pub fn encode_envelope<T: Serialize>(payload: &T) -> Result<String, StateError> {
    let payload_json = serde_json::to_string(payload)
        .map_err(|e| StateError::Corrupt(format!("payload does not serialize: {e}")))?;
    // The envelope's fixed fields render to fixed bytes (the magic and
    // the hex digest need no escaping), so the payload is rendered once
    // and spliced in: the same bytes as rendering the envelope tree.
    let digest = checksum(payload_json.as_bytes());
    Ok(format!(
        r#"{{"magic":"{MAGIC}","version":{FORMAT_VERSION},"checksum":"{digest:016x}","payload":{payload_json}}}"#
    ))
}

/// Verifies an in-memory envelope (magic, version, checksum) and
/// deserializes its payload — [`read_snapshot`] without the file.
///
/// # Errors
/// [`StateError::Corrupt`] when the envelope or payload fails any check.
pub fn decode_envelope<T: Deserialize>(text: &str) -> Result<T, StateError> {
    let envelope: Value = serde_json::from_str(text)
        .map_err(|e| StateError::Corrupt(format!("not valid JSON: {e}")))?;
    decode_envelope_value(&envelope)
}

/// [`decode_envelope`] for an already-parsed envelope value.
///
/// # Errors
/// [`StateError::Corrupt`] when the envelope or payload fails any check.
pub fn decode_envelope_value<T: Deserialize>(envelope: &Value) -> Result<T, StateError> {
    let field = |name: &str| {
        envelope.field(name).map_err(|e| StateError::Corrupt(e.to_string())).and_then(|v| match v {
            Value::Null => Err(StateError::Corrupt(format!("missing '{name}' field"))),
            v => Ok(v),
        })
    };
    match field("magic")? {
        Value::String(m) if m == MAGIC => {}
        other => {
            return Err(StateError::Corrupt(format!("bad magic {other:?}")));
        }
    }
    match field("version")? {
        Value::Number(v) if *v == FORMAT_VERSION as f64 => {}
        Value::Number(v) => {
            return Err(StateError::Corrupt(format!(
                "unsupported format version {v} (this build reads {FORMAT_VERSION})"
            )));
        }
        other => return Err(StateError::Corrupt(format!("bad version field: {}", other.kind()))),
    }
    let Value::String(expected) = field("checksum")? else {
        return Err(StateError::Corrupt("checksum is not a string".into()));
    };
    let payload = field("payload")?;
    let payload_json = serde_json::to_string(payload)
        .map_err(|e| StateError::Corrupt(format!("payload does not re-serialize: {e}")))?;
    let actual = format!("{:016x}", checksum(payload_json.as_bytes()));
    if actual != *expected {
        return Err(StateError::Corrupt(format!(
            "checksum mismatch: envelope says {expected}, payload hashes to {actual}"
        )));
    }
    T::from_value(payload).map_err(|e| StateError::Corrupt(format!("payload rejected: {e}")))
}

/// Serializes `payload` into the envelope and atomically replaces
/// `path` with it (temp file in the same directory → fsync → rename →
/// directory fsync). Returns the snapshot size in bytes.
///
/// # Errors
/// Propagates filesystem failures; the destination is left untouched on
/// any error.
pub fn write_snapshot<T: Serialize>(path: &Path, payload: &T) -> Result<u64, StateError> {
    // One trace id ties the serialize/fsync/rename spans of this write
    // together in the flight recorder; the tag is the snapshot file name.
    let trace_id = cc_trace::gen_id();
    let trace_tag = path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot").to_owned();
    let serialize_started = Instant::now();
    let text = encode_envelope(payload)?;
    cc_trace::record(
        cc_trace::Phase::Serialize,
        trace_id,
        &trace_tag,
        text.len() as u64,
        serialize_started,
        serialize_started.elapsed(),
    );

    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).map(Path::to_path_buf);
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| StateError::Corrupt(format!("unusable snapshot path {}", path.display())))?;
    let temp = path.with_file_name(format!(
        ".{file_name}.{}.{}.tmp",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| -> Result<u64, StateError> {
        let fsync_started = Instant::now();
        {
            let mut f = std::fs::File::create(&temp)?;
            std::io::Write::write_all(&mut f, text.as_bytes())?;
            f.sync_all()?;
        }
        cc_trace::record(
            cc_trace::Phase::Fsync,
            trace_id,
            &trace_tag,
            text.len() as u64,
            fsync_started,
            fsync_started.elapsed(),
        );
        let rename_started = Instant::now();
        std::fs::rename(&temp, path)?;
        // Make the rename itself durable. Directories cannot be opened
        // for syncing on every platform; best effort there, but never
        // silently skipped on Linux.
        if let Some(dir) = &dir {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        cc_trace::record(
            cc_trace::Phase::Rename,
            trace_id,
            &trace_tag,
            0,
            rename_started,
            rename_started.elapsed(),
        );
        Ok(text.len() as u64)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
    result
}

/// Reads and verifies a snapshot, deserializing its payload.
///
/// # Errors
/// [`StateError::Io`] when the file cannot be read (a missing file
/// surfaces as `Io` with [`std::io::ErrorKind::NotFound`]);
/// [`StateError::Corrupt`] when the envelope or payload fails any check.
pub fn read_snapshot<T: Deserialize>(path: &Path) -> Result<T, StateError> {
    let text = std::fs::read_to_string(path)?;
    decode_envelope(&text)
}

/// What booting from a state file produced.
#[derive(Debug)]
pub enum LoadOutcome<T> {
    /// A verified snapshot was restored.
    Restored(T),
    /// No usable snapshot; start fresh. Carries a warning when a corrupt
    /// file was found (and quarantined), `None` when there was simply no
    /// file yet.
    Fresh(Option<String>),
}

impl<T> LoadOutcome<T> {
    /// True when a snapshot was restored.
    pub fn restored(&self) -> bool {
        matches!(self, LoadOutcome::Restored(_))
    }
}

/// The boot path: load a snapshot if one exists, quarantining a corrupt
/// file by renaming it to `<name>.corrupt` so the daemon boots fresh
/// instead of crash-looping on damaged state. Never panics; every
/// failure degrades to [`LoadOutcome::Fresh`] with a warning.
pub fn load_or_quarantine<T: Deserialize>(path: &Path) -> LoadOutcome<T> {
    match read_snapshot(path) {
        Ok(v) => LoadOutcome::Restored(v),
        Err(StateError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            LoadOutcome::Fresh(None)
        }
        Err(e) => {
            let quarantine: PathBuf = quarantine_path(path);
            let moved = std::fs::rename(path, &quarantine);
            let mut warning = format!("{e}; booting fresh");
            match moved {
                Ok(()) => {
                    warning.push_str(&format!(" (file quarantined to {})", quarantine.display()));
                }
                Err(re) => warning.push_str(&format!(" (quarantine rename failed: {re})")),
            }
            LoadOutcome::Fresh(Some(warning))
        }
    }
}

/// Where [`load_or_quarantine`] moves a damaged snapshot.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot");
    path.with_file_name(format!("{name}.corrupt"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cc_state_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_f64_bits() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("state.json");
        let payload: Vec<f64> = vec![0.1, 1.0 / 3.0, f64::MIN_POSITIVE, -0.0, 6.02214076e23];
        let bytes = write_snapshot(&path, &payload).unwrap();
        assert!(bytes > 0);
        let back: Vec<f64> = read_snapshot(&path).unwrap();
        assert_eq!(back.len(), payload.len());
        for (a, b) in back.iter().zip(&payload) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_is_atomic_and_leaves_no_temp_files() {
        let dir = temp_dir("overwrite");
        let path = dir.join("state.json");
        for i in 0..10u64 {
            write_snapshot(&path, &vec![i as f64; 8]).unwrap();
            let back: Vec<f64> = read_snapshot(&path).unwrap();
            assert_eq!(back[0], i as f64);
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_fresh_not_corrupt() {
        let dir = temp_dir("missing");
        let outcome: LoadOutcome<Vec<f64>> = load_or_quarantine(&dir.join("nope.json"));
        match outcome {
            LoadOutcome::Fresh(None) => {}
            other => panic!("expected Fresh(None), got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_roundtrip_and_tamper_detection() {
        let payload: Vec<f64> = vec![0.5, -1.25];
        let text = encode_envelope(&payload).unwrap();
        let back: Vec<f64> = decode_envelope(&text).unwrap();
        assert_eq!(back, payload);
        // Flipping a payload byte without recomputing the checksum fails
        // verification — the property the fleet wire path relies on.
        let tampered = text.replace("0.5", "0.625");
        assert!(matches!(decode_envelope::<Vec<f64>>(&tampered), Err(StateError::Corrupt(_))));
        assert!(matches!(decode_envelope::<Vec<f64>>("not json"), Err(StateError::Corrupt(_))));
    }

    #[test]
    fn checksum_is_fnv1a() {
        // Published FNV-1a 64 vectors.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum(b"foobar"), 0x85944171f73967e8);
    }
}
