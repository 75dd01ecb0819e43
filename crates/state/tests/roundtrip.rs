//! The headline durability invariant, proptest-pinned like every prior
//! subsystem: **snapshot → serialize → deserialize → restore → continue
//! ingesting is bit-identical to the uninterrupted run** — window
//! statistics, drift series, detector decisions, alarm state, and
//! resynthesis proposals all included.
//!
//! The strongest form of the check is total: after the stream ends, the
//! *entire* serialized state of the resumed monitor must equal the
//! uninterrupted monitor's byte for byte. Any divergence anywhere — a
//! Kahan compensation term, a CUSUM accumulator, a proposal's profile
//! bounds — shows up as a JSON diff.

use cc_frame::DataFrame;
use cc_monitor::{DetectorKind, MonitorConfig, MonitorState, OnlineMonitor, WindowSpec};
use conformance::{synthesize, DriftAggregator, SynthOptions};
use proptest::prelude::*;

/// Deterministic two-column stream: `y = slope·x + 1 + noise`, with the
/// slope switching mid-stream so detectors calibrate on the prefix and
/// (often) alarm + propose on the suffix.
fn stream(n: usize, shift_at: usize, shifted_slope: f64) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (0..n).map(|i| (i % 997) as f64 / 10.0).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let slope = if i < shift_at { 2.0 } else { shifted_slope };
            slope * x + 1.0 + 0.02 * (((i * 31) % 13) as f64 - 6.0)
        })
        .collect();
    (xs, ys)
}

fn frame(xs: &[f64], ys: &[f64]) -> DataFrame {
    let mut df = DataFrame::new();
    df.push_numeric("x", xs.to_vec()).unwrap();
    df.push_numeric("y", ys.to_vec()).unwrap();
    df
}

fn trained_profile() -> conformance::ConformanceProfile {
    let (xs, ys) = stream(300, usize::MAX, 2.0);
    synthesize(&frame(&xs, &ys), &SynthOptions::default()).unwrap()
}

/// Serializes a monitor's complete state image compactly.
fn state_json(monitor: &OnlineMonitor) -> String {
    serde_json::to_string(&monitor.state()).expect("state serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The invariant, across window geometries, detectors, aggregators,
    /// cut points (including mid-window, mid-calibration, and
    /// post-alarm cuts), and shift intensities.
    #[test]
    fn snapshot_restore_continue_is_bit_identical(
        stride_base in 10usize..=25,
        overlap in 1usize..=2,
        detector_idx in 0usize..3,
        agg_idx in 0usize..2,
        cut in 0usize..=420,
        shift_at in 150usize..=300,
        shifted_slope in 4.0..8.0f64,
    ) {
        let window = stride_base * overlap;
        let n = 420;
        let cut = cut.min(n);
        let detector = [DetectorKind::Ewma, DetectorKind::Cusum, DetectorKind::PageHinkley][detector_idx];
        let cfg = || MonitorConfig {
            spec: WindowSpec::new(window, stride_base).unwrap(),
            detector,
            aggregator: if agg_idx == 1 { DriftAggregator::Max } else { DriftAggregator::Mean },
            calibration_windows: 2,
            patience: 1,
            min_resynth_rows: 8,
            ..MonitorConfig::default()
        };
        let profile = trained_profile();
        let (xs, ys) = stream(n, shift_at, shifted_slope);

        // Uninterrupted run: the whole stream in one ingest.
        let mut uninterrupted = OnlineMonitor::new(profile.clone(), cfg()).unwrap();
        let full_report = uninterrupted.ingest(&frame(&xs, &ys)).unwrap();

        // Interrupted run: prefix → snapshot → JSON → restore → suffix.
        let mut before = OnlineMonitor::new(profile, cfg()).unwrap();
        let mut windows = Vec::new();
        if cut > 0 {
            windows.extend(before.ingest(&frame(&xs[..cut], &ys[..cut])).unwrap().windows);
        }
        let json = state_json(&before);
        let restored_state: MonitorState = serde_json::from_str(&json).unwrap();
        let mut resumed = OnlineMonitor::from_state(restored_state).unwrap();
        // The restore itself must already be a fixed point: snapshotting
        // the restored monitor reproduces the same bytes.
        prop_assert_eq!(&state_json(&resumed), &json);
        if cut < n {
            windows.extend(resumed.ingest(&frame(&xs[cut..], &ys[cut..])).unwrap().windows);
        }

        // Every window close matches bit for bit: index, span, drift,
        // detector statistic/threshold, phase, proposal flag.
        prop_assert_eq!(windows.len(), full_report.windows.len());
        for (a, b) in full_report.windows.iter().zip(&windows) {
            prop_assert_eq!(a.index, b.index);
            prop_assert_eq!(a.start_row, b.start_row);
            prop_assert_eq!(a.rows, b.rows);
            prop_assert_eq!(a.drift.to_bits(), b.drift.to_bits());
            prop_assert_eq!(a.stat.to_bits(), b.stat.to_bits());
            prop_assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
            prop_assert_eq!(a.phase, b.phase);
            prop_assert_eq!(a.proposed, b.proposed);
        }

        // Total-state equality: counters, history, ring blocks, detector
        // accumulators, pending proposal — everything.
        prop_assert_eq!(state_json(&uninterrupted), state_json(&resumed));
    }
}

/// A second snapshot cycle mid-alarm (after a proposal is pending) also
/// round-trips: the proposal's candidate profile itself survives
/// bit-exactly and `adopt_proposal` behaves identically after restore.
#[test]
fn pending_proposal_survives_and_adopts_identically() {
    let profile = trained_profile();
    let cfg = MonitorConfig {
        spec: WindowSpec::tumbling(50).unwrap(),
        calibration_windows: 2,
        patience: 1,
        min_resynth_rows: 8,
        ..MonitorConfig::default()
    };
    let mut live = OnlineMonitor::new(profile, cfg).unwrap();
    let (xs, ys) = stream(400, 150, 6.0);
    live.ingest(&frame(&xs, &ys)).unwrap();
    assert!(live.proposal().is_some(), "the shifted suffix must produce a proposal");

    let json = state_json(&live);
    let mut resumed =
        OnlineMonitor::from_state(serde_json::from_str::<MonitorState>(&json).unwrap()).unwrap();
    let live_candidate = serde_json::to_string(&live.proposal().unwrap().profile).unwrap();
    let resumed_candidate = serde_json::to_string(&resumed.proposal().unwrap().profile).unwrap();
    assert_eq!(live_candidate, resumed_candidate, "candidate profile diverged");

    assert_eq!(live.adopt_proposal(), resumed.adopt_proposal());
    assert_eq!(live.generation(), resumed.generation());
    // Both adopted monitors continue identically on fresh traffic.
    let (xs2, ys2) = stream(100, 0, 6.0);
    live.ingest(&frame(&xs2, &ys2)).unwrap();
    resumed.ingest(&frame(&xs2, &ys2)).unwrap();
    assert_eq!(state_json(&live), state_json(&resumed));
}

/// Restore validates internal consistency instead of trusting the file.
#[test]
fn inconsistent_state_is_rejected_not_panicked() {
    let profile = trained_profile();
    let cfg = MonitorConfig {
        spec: WindowSpec::tumbling(50).unwrap(),
        calibration_windows: 3,
        ..MonitorConfig::default()
    };
    let mut m = OnlineMonitor::new(profile, cfg).unwrap();
    let (xs, ys) = stream(120, usize::MAX, 2.0);
    m.ingest(&frame(&xs, &ys)).unwrap();

    // Invalid geometry.
    let mut bad = m.state();
    bad.config.stride = 0;
    assert!(OnlineMonitor::from_state(bad).is_err());

    // Ring overflows its configured capacity.
    let mut bad = m.state();
    bad.config.resynth_tiles = 1;
    while bad.tiles.blocks.len() <= 1 {
        bad.tiles.blocks.push(bad.tiles.blocks[0].clone());
    }
    assert!(OnlineMonitor::from_state(bad).is_err());

    // Calibration sample that should already have armed the detector.
    let mut bad = m.state();
    bad.detector = None;
    bad.calibration = vec![0.1; bad.config.calibration_windows];
    assert!(OnlineMonitor::from_state(bad).is_err());

    // History past its cap.
    let mut bad = m.state();
    bad.config.history_cap = 1;
    bad.history = vec![0.1, 0.2];
    assert!(OnlineMonitor::from_state(bad).is_err());
}

/// The reference for `encode_envelope`: the envelope as one value tree,
/// rendered whole.
fn envelope_tree_json<T: serde::Serialize>(payload: &T) -> String {
    use serde_json::Value;
    let payload_value = payload.to_value();
    let payload_json = serde_json::to_string(&payload_value).unwrap();
    let envelope = Value::Object(vec![
        ("magic".to_owned(), Value::String(cc_state::MAGIC.to_owned())),
        ("version".to_owned(), Value::Number(cc_state::FORMAT_VERSION as f64)),
        (
            "checksum".to_owned(),
            Value::String(format!("{:016x}", cc_state::checksum(payload_json.as_bytes()))),
        ),
        ("payload".to_owned(), payload_value),
    ]);
    serde_json::to_string(&envelope).unwrap()
}

/// `encode_envelope` splices the payload's one rendering into the fixed
/// fields; the bytes equal rendering the envelope tree, and
/// `decode_envelope` accepts them.
#[test]
fn spliced_envelope_is_byte_identical_to_the_envelope_tree() {
    let profile = trained_profile();
    let cfg = MonitorConfig {
        spec: WindowSpec::tumbling(50).unwrap(),
        calibration_windows: 2,
        patience: 1,
        min_resynth_rows: 8,
        ..MonitorConfig::default()
    };
    let mut monitor = OnlineMonitor::new(profile, cfg).unwrap();
    let (xs, ys) = stream(400, 150, 6.0);
    monitor.ingest(&frame(&xs, &ys)).unwrap();
    let state = cc_state::ServerState {
        registry_generation: 3,
        rows_checked: 12_345,
        monitors: vec![cc_state::MonitorEntry {
            name: "m \"π\"\n".to_owned(),
            state: monitor.state(),
        }],
    };

    let text = cc_state::encode_envelope(&state).unwrap();
    assert_eq!(text, envelope_tree_json(&state));
    let back: cc_state::ServerState = cc_state::decode_envelope(&text).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&state).unwrap());

    let empty = cc_state::ServerState { registry_generation: 0, rows_checked: 0, monitors: vec![] };
    let text = cc_state::encode_envelope(&empty).unwrap();
    assert_eq!(text, envelope_tree_json(&empty));
    assert!(cc_state::decode_envelope::<cc_state::ServerState>(&text).is_ok());

    // Payloads whose rendering needs escapes, `-0` and empty containers.
    use serde_json::Value;
    let tree = Value::Object(vec![
        ("label \"π\"\n\u{1}".into(), Value::Array(vec![Value::Number(-0.0), Value::Null])),
        ("nested".into(), Value::Object(vec![("xs".into(), Value::Array(Vec::new()))])),
    ]);
    for payload in [tree, Value::Number(-0.0), Value::String(String::new())] {
        let text = cc_state::encode_envelope(&payload).unwrap();
        assert_eq!(text, envelope_tree_json(&payload));
        let back: Value = cc_state::decode_envelope(&text).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&payload).unwrap());
    }
}
