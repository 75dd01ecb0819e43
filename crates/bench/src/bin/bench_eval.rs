//! Interpreted vs compiled constraint evaluation on a large frame.
//!
//! ```text
//! cargo run --release -p cc_bench --bin bench_eval [rows] [thread counts...]
//! ```
//!
//! Profiles the `bench_synth` macro frame (1M rows default, 8 numeric
//! attributes, 4-value regime column → 45 bounded constraints), then
//! times serving-side evaluation three ways: the interpreted reference
//! path (`violations_interpreted`), the compiled plan single-threaded,
//! and the compiled plan sharded over each thread count. Each timing is
//! the median of 3 reps, and every rep repeats its call until at least
//! [`MIN_REP`] has passed, so a figure never rests on one few-ms call
//! (the calls made per rep are reported beside it). Every compiled
//! run is checked **bit-identical** to the interpreted vector
//! (`max_abs_delta == 0` is asserted, not just reported) and the
//! measurements land in `BENCH_eval.json`, the serving-side companion of
//! `BENCH_synth.json`, with the host they were taken on (CPU count and
//! model, kernel release) and the command line that produced them.

use cc_bench::{macro_frame, median};
use conformance::{synthesize, CompiledProfile, SynthOptions};
use serde_json::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall time of one timed rep. One compiled call on a 100k-row
/// frame takes a few ms, within a shared host's scheduling noise; a rep
/// that repeats the call for this long averages that noise out.
const MIN_REP: Duration = Duration::from_millis(200);

/// Times `call` over `reps` reps, each repeating it until [`MIN_REP`]
/// has elapsed. Returns the median seconds per call and the number of
/// calls each rep made.
fn time_per_call(reps: usize, mut call: impl FnMut()) -> (f64, Vec<usize>) {
    let mut calls_per_rep = Vec::with_capacity(reps);
    let per_call = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0usize;
            let elapsed = loop {
                call();
                calls += 1;
                let elapsed = t.elapsed();
                if elapsed >= MIN_REP {
                    break elapsed;
                }
            };
            calls_per_rep.push(calls);
            elapsed.as_secs_f64() / calls as f64
        })
        .collect();
    (median(per_call), calls_per_rep)
}

fn calls_json(calls: &[usize]) -> Value {
    Value::Array(calls.iter().map(|&c| Value::Number(c as f64)).collect())
}

/// Largest |Δ| between the interpreted reference and a compiled result.
/// The compiled engine's contract is exact bit-identity, so anything
/// other than 0.0 is a bug.
fn max_abs_delta(reference: &[f64], got: &[f64]) -> f64 {
    assert_eq!(reference.len(), got.len(), "violation vector lengths differ");
    reference.iter().zip(got).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max)
}

/// The host facts a timing is meaningless without: available CPUs, CPU
/// model, kernel release (Linux `/proc`; `"unknown"` elsewhere).
fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("nproc".into(), Value::Number(nproc as f64)),
        ("cpu".into(), Value::String(cpu)),
        ("kernel".into(), Value::String(kernel)),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut args = argv.iter().skip(1);
    let rows: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1_000_000);
    let thread_counts: Vec<usize> = {
        let explicit: Vec<usize> = args.filter_map(|s| s.parse().ok()).collect();
        if explicit.is_empty() {
            vec![2, 4, 8]
        } else {
            explicit
        }
    };
    let reps = 3;

    println!("building {rows}-row frame…");
    let t0 = Instant::now();
    let df = macro_frame(rows);
    println!("built in {:.2}s", t0.elapsed().as_secs_f64());

    let profile = synthesize(&df, &SynthOptions::default()).expect("synthesis");
    println!(
        "profiled: {} attributes, {} constraints",
        profile.numeric_attributes.len(),
        profile.constraint_count()
    );

    let (interpreted_s, interpreted_calls) = time_per_call(reps, || {
        black_box(profile.violations_interpreted(black_box(&df)).expect("interpreted eval"));
    });
    let reference = profile.violations_interpreted(&df).expect("interpreted eval");
    println!(
        "interpreted:      {:.3}s  ({:.2} Mrows/s, {interpreted_calls:?} calls/rep)",
        interpreted_s,
        rows as f64 / interpreted_s / 1e6
    );

    let t = Instant::now();
    let plan = CompiledProfile::compile(&profile);
    let compile_us = t.elapsed().as_secs_f64() * 1e6;
    println!("compiled plan in {compile_us:.0}µs ({} constraint rows)", plan.constraint_count());

    let mut results = Vec::new();
    let mut bench_one = |threads: usize| {
        let (secs, calls) = time_per_call(reps, || {
            black_box(plan.violations_parallel(black_box(&df), threads).expect("compiled eval"));
        });
        let got = plan.violations_parallel(&df, threads).expect("compiled eval");
        let delta = max_abs_delta(&reference, &got);
        assert_eq!(
            delta, 0.0,
            "compiled path diverged from interpreted oracle at {threads} threads"
        );
        println!(
            "compiled ({threads:>2} thr): {:.4}s  ({:.2} Mrows/s, speedup {:.2}×, max |Δ| = {delta:.1}, {calls:?} calls/rep)",
            secs,
            rows as f64 / secs / 1e6,
            interpreted_s / secs
        );
        results.push(Value::Object(vec![
            ("threads".into(), Value::Number(threads as f64)),
            ("seconds".into(), Value::Number(secs)),
            ("calls_per_rep".into(), calls_json(&calls)),
            ("speedup".into(), Value::Number(interpreted_s / secs)),
            ("max_abs_delta".into(), Value::Number(delta)),
        ]));
    };
    bench_one(1);
    for &threads in &thread_counts {
        bench_one(threads);
    }

    let report = Value::Object(vec![
        ("benchmark".into(), Value::String("eval_interpreted_vs_compiled".into())),
        ("host".into(), host()),
        ("argv".into(), Value::Array(argv.iter().cloned().map(Value::String).collect())),
        ("rows".into(), Value::Number(rows as f64)),
        ("numeric_attributes".into(), Value::Number(profile.numeric_attributes.len() as f64)),
        ("partition_values".into(), Value::Number(4.0)),
        ("repetitions".into(), Value::Number(reps as f64)),
        ("min_rep_seconds".into(), Value::Number(MIN_REP.as_secs_f64())),
        ("constraints".into(), Value::Number(profile.constraint_count() as f64)),
        ("compile_microseconds".into(), Value::Number(compile_us)),
        ("interpreted_seconds".into(), Value::Number(interpreted_s)),
        ("interpreted_calls_per_rep".into(), calls_json(&interpreted_calls)),
        ("compiled".into(), Value::Array(results)),
    ]);
    let path = "BENCH_eval.json";
    std::fs::write(path, serde_json::to_string_pretty(&report).expect("serialize"))
        .expect("write BENCH_eval.json");
    println!("wrote {path}");
}
