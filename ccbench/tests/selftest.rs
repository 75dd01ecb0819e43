//! The benchmark's self-test: smoke-size runs of every workload must
//! emit every metric `BENCHMARK.json` names, finite and with its unit,
//! and a corrupted reply must be counted as failed.

use ccbench::{Options, Outcome, Scale, Workload, WORKLOADS};
use serde_json::Value;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = cc_server::json::get(&spec, section) else {
        panic!("BENCHMARK.json lacks {section}");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k| cc_server::json::get(m, k).and_then(cc_server::json::as_str);
            (field("name").expect("name").to_owned(), field("unit").expect("unit").to_owned())
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let mut opts = Options::new(workload, 7, 1.0, trace);
    opts.scale = Scale::SMOKE;
    ccbench::run(&opts).expect("smoke run completes")
}

#[test]
fn every_declared_metric_is_emitted_finite_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for workload in WORKLOADS {
            let outcome = smoke(workload, trace);
            assert!(
                outcome.correct,
                "{} (trace {trace}) failed: {:?}",
                workload.name(),
                outcome.errors
            );
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let got: Vec<(String, String)> =
                outcome.metrics.iter().map(|(n, _, u)| (n.clone(), (*u).to_owned())).collect();
            assert_eq!(got, want, "{} (trace {trace}) metric set", workload.name());
            for (name, value, _) in &outcome.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", workload.name());
            }
            let line: Value = serde_json::from_str(&outcome.to_json()).expect("result line parses");
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(cc_server::json::get(&line, key).is_some(), "result line lacks {key}");
            }
        }
    }
}

#[test]
fn a_corrupted_reply_is_counted_as_failed() {
    let mut opts = Options::new(Workload::CheckCcol, 7, 1.0, false);
    opts.scale = Scale::SMOKE;
    opts.corrupt_reply = Some(3);
    let outcome = ccbench::run(&opts).expect("run completes");
    assert!(!outcome.correct, "a corrupted reply must fail the run");
    assert!(outcome.failed >= 1, "failed = {}", outcome.failed);
    assert!(
        outcome.errors.iter().any(|e| e.contains("differs from the verified reply")),
        "{:?}",
        outcome.errors
    );
}
