//! # ccbench — the `cc_server` daemon benchmark
//!
//! One command runs one named workload against an in-process daemon
//! configured as a default `ccsynth serve`, drives it closed-loop from
//! keep-alive clients, checks every answer, and prints its metrics. See
//! `README.md` beside this crate for the workloads, the metrics and how
//! to read the trace file.
//!
//! ```text
//! bash ccbench/run.sh --workload check-ccol [--seed 1] [--seconds 20] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` repeats the
//! same HTTP loop for half the time, then replays the same request bytes
//! through the daemon's public functions for the other half and reports
//! the per-layer ledger ([`ledger`]).

pub mod client;
pub mod cpu;
pub mod daemon;
pub mod inputs;
pub mod ledger;
pub mod traffic;
pub mod workload;

pub use workload::{Scale, Workload, WORKLOADS};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning: confirm a claimed gain on it.
pub const HELD_OUT_SEED: u64 = 1009;

/// Measured seconds when `--seconds` is absent: `run_seconds` in
/// `BENCHMARK.json`, whose runner passes `--seconds` on every call.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Where the benchmark writes, relative to the directory it runs in.
pub const OUT_DIR: &str = ".ccbench";

pub const USAGE: &str = "usage: ccbench --workload <check-ccol|check-json|ingest-ccol|snapshot> \
                         [--seed <n>] [--seconds <n>] [--trace 0|1]";

/// One invocation.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Self-test hook: corrupt this timed reply of client 0.
    pub corrupt_reply: Option<usize>,
    /// The invocation arguments, recorded in the provenance.
    pub args: Vec<String>,
}

impl Options {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::FULL,
            corrupt_reply: None,
            args: Vec::new(),
        }
    }

    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut opts = Options::new(Workload::CheckCcol, DEFAULT_SEED, DEFAULT_SECONDS, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|_| bad())?;
                    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument '{flag}'")),
            }
        }
        opts.workload = workload.ok_or("--workload is required")?;
        opts.args = args.to_vec();
        Ok(opts)
    }
}

/// The result line's content.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub errors: Vec<String>,
    /// The traced run's spans, kept in memory until the run ends.
    pub spans: Vec<ledger::Span>,
}

impl Outcome {
    /// The benchmark's last stdout line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite `f64` with every digit (shortest round-trip form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_owned())).expect("strings serialize")
}

/// Runs one workload in a scratch directory under [`OUT_DIR`] and
/// removes it afterwards.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    // Unique per run, also when one process runs several (the self-test).
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let work = Path::new(OUT_DIR).join("work").join(format!(
        "{}-{}-{n}",
        opts.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir: {e}"))?;
    let result = run_in(opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn run_in(opts: &Options, work: &Path) -> Result<Outcome, String> {
    let provenance = provenance(opts);
    println!("provenance: {provenance}");
    let workload = opts.workload;
    let inputs = workload::Inputs::generate(workload, opts.seed, opts.scale);
    let profile_dir = work.join("profiles");
    let state_dir = (workload == Workload::Snapshot).then(|| work.join("state"));
    if let Some(dir) = &state_dir {
        workload::populate(&inputs, &profile_dir, dir)?;
    }

    // Set up several times; the last daemon serves the traffic. Each
    // rep's daemon stops before the next rep starts, so no other daemon's
    // threads run beside a timed set-up. The host-speed reference is
    // measured on both sides of each rep.
    let mut reference = cpu::Reference::start().map_err(|e| format!("reference: {e}"))?;
    let mut measure_reference = || reference.measure().map_err(|e| format!("reference: {e}"));
    let mut setups = Vec::new();
    let mut handle: Option<cc_server::ServerHandle> = None;
    for _ in 0..opts.scale.setup_reps {
        if let Some(previous) = handle.take() {
            previous.shutdown();
        }
        let before = measure_reference()?;
        let (h, mut times) =
            daemon::timed_boot(&inputs.train, &profile_dir, state_dir.as_deref())?;
        times.reference = (before + measure_reference()?) / 2.0;
        setups.push(times);
        handle = Some(h);
    }
    let handle = handle.expect("at least one set-up rep");
    // Scaled CPU seconds, like the request metric (README.md, "Set-up").
    let setup_s = median(setups.iter().map(|s| cpu::scale(s.cpu, s.reference)).collect());
    println!(
        "{}: set-up median {setup_s:.4} s scaled, {:.4} CPU s as measured, {:.4} s wall-clock, \
         over {} reps (synthesize + registry load + start)",
        workload.name(),
        median(setups.iter().map(|s| s.cpu).collect()),
        median(setups.iter().map(daemon::SetupTimes::total).collect()),
        setups.len()
    );
    let outcome = measure(
        opts,
        &inputs,
        &handle,
        &mut reference,
        &profile_dir,
        state_dir.as_deref(),
        work,
        &setups,
    );
    handle.shutdown();
    let mut outcome = outcome?;
    if !opts.trace {
        outcome.metrics.push(("setup_s".into(), setup_s, "s"));
        outcome.metrics.push(("peak_rss_mb".into(), peak_rss_mb()?, "MiB"));
    }
    if opts.trace {
        write_trace(opts, &provenance, &setups, &outcome)?;
    }
    Ok(outcome)
}

#[allow(clippy::too_many_arguments)]
fn measure(
    opts: &Options,
    inputs: &workload::Inputs,
    handle: &cc_server::ServerHandle,
    reference: &mut cpu::Reference,
    profile_dir: &Path,
    state_dir: Option<&Path>,
    work: &Path,
    setups: &[daemon::SetupTimes],
) -> Result<Outcome, String> {
    let workload = opts.workload;
    let plan = conformance::CompiledProfile::compile(&workload::load_profile(profile_dir)?);
    let mut streams = workload::connect_and_warm(inputs, handle.addr(), &plan)?;
    if let Some(dir) = state_dir {
        // Populate, every set-up daemon's shutdown and the warmup all wrote
        // this file. Without it, only a timed snapshot can have written
        // the file the after-the-clock gate restores.
        std::fs::remove_file(dir.join(cc_server::STATE_FILE))
            .map_err(|e| format!("remove the warmup snapshot: {e}"))?;
    }
    let seconds = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let cfg =
        traffic::LoopConfig { seconds, timings: opts.trace, corrupt_reply: opts.corrupt_reply };
    let steal_before = cpu_steal();
    let result = traffic::closed_loop(&mut streams, reference, &cfg);
    let steal = cpu_steal()
        .zip(steal_before)
        .map(|((s1, t1), (s0, t0))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    let mut errors = result.errors();
    // The daemon's own timings of the load phase, read before anything
    // else reaches it: the replay is reconciled against them.
    let recorded = if opts.trace {
        daemon::recorded_phases(handle.addr(), workload.endpoint()).unwrap_or_else(|e| {
            errors.push(e);
            daemon::RecordedPhases::default()
        })
    } else {
        daemon::RecordedPhases::default()
    };
    let mut failed = result.failed();
    let restored = if workload == Workload::Snapshot { inputs.populated_rows() } else { 0 };
    let (gate_failed, gate_errors) = workload::after_clock_gates(
        inputs,
        handle,
        &streams,
        &result,
        profile_dir,
        state_dir,
        restored,
    );
    failed += gate_failed;
    errors.extend(gate_errors);
    let attempted: usize = streams.iter().map(|s| s.sent).sum();
    let timed = result.requests();
    println!(
        "{}: {} client(s), {timed} timed requests in {:.2} s, {attempted} sent in all, \
         failed_frac = {}, host steal {}",
        workload.name(),
        streams.len(),
        result.wall_seconds,
        failed as f64 / attempted.max(1) as f64,
        steal.map_or("unknown".to_owned(), |s| format!("{:.1}%", s * 100.0))
    );
    let mut metrics = Vec::new();
    let mut spans = Vec::new();
    if !opts.trace {
        // Wall-clock throughput and latency move with whatever else the
        // host runs, and so does a request's CPU time, less so (README.md,
        // "Why scaled CPU time"). Each interval's CPU time per request is
        // scaled by the host speed a reference measured beside it, and the
        // median over the intervals ignores a burst in a few of them.
        let norm = result.norm_cpu_per_request();
        let norm_ms = ledger::p50(&norm) * 1e3;
        println!(
            "  CPU per request over {} intervals of {} s: median {:.4} ms as measured, \
             {norm_ms:.4} ms scaled (intervals {:.4}–{:.4} ms); reference round trip \
             {:.2} µs; wall-clock {:.1} requests/s",
            norm.len(),
            traffic::SAMPLE_SECONDS,
            ledger::p50(&result.cpu_per_request()) * 1e3,
            norm.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            norm.iter().copied().fold(0.0, f64::max) * 1e3,
            result.round_trip_cpu() * 1e6,
            timed as f64 / result.wall_seconds
        );
        metrics.push(("norm_cpu_ms_per_request".to_owned(), norm_ms, "ms"));
    } else if errors.is_empty() {
        let state_file = state_dir.map(|d| d.join(cc_server::STATE_FILE));
        let replay = ledger::Replay {
            inputs,
            profile_dir,
            state_file: state_file.as_deref(),
            work_dir: work,
            part1: &result,
            recorded: &recorded,
            expected: streams.iter().map(|s| s.expected.clone()).collect(),
            self_state: handle.self_watch(),
            budget: Duration::from_secs_f64(opts.seconds / 2.0),
            setup: setups,
            setup_reps: opts.scale.setup_reps,
        };
        let ledger = replay.run()?;
        println!(
            "{}: per-layer ledger over {} replayed requests",
            workload.name(),
            ledger.replayed
        );
        for line in &ledger.table {
            println!("  {line}");
        }
        errors.extend(ledger.errors);
        metrics = ledger.metrics;
        spans = ledger.spans;
        for (c, run) in result.clients.iter().enumerate() {
            for (seq, (start, latency)) in run.timings.iter().enumerate() {
                spans.push(ledger::Span {
                    phase: "load",
                    req: ledger::request_id(c, run.first_seq + seq),
                    id: 1,
                    parent: 0,
                    name: "http.request",
                    start: *start,
                    end: start + latency,
                });
            }
        }
    }
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        errors.push("a metric is not finite".into());
    }
    let correct = errors.is_empty() && failed == 0;
    Ok(Outcome { correct, attempted, failed, metrics, errors, spans })
}

/// One set-up rep as spans: `setup` with its three timed steps, and the
/// separately timed `compiled.compile`.
fn setup_spans(rep: usize, s: &daemon::SetupTimes) -> Vec<ledger::Span> {
    let span = |id, parent, name, start: f64, end: f64| ledger::Span {
        phase: "setup",
        req: rep as u64,
        id,
        parent,
        name,
        start,
        end,
    };
    let (a, b) = (s.synth, s.synth + s.load);
    vec![
        span(1, 0, "setup", 0.0, s.total()),
        span(2, 1, "synth", 0.0, a),
        span(3, 1, "registry.load", a, b),
        span(4, 1, "server.start", b, s.total()),
        span(5, 0, "compiled.compile", s.total(), s.total() + s.compile),
    ]
}

/// Where a traced run's spans go.
fn trace_path(opts: &Options) -> PathBuf {
    Path::new(OUT_DIR).join("traces").join(format!(
        "{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ))
}

/// Writes the trace file: a provenance line, one line per span, and the
/// ledger's metrics as the last line.
fn write_trace(
    opts: &Options,
    provenance: &str,
    setups: &[daemon::SetupTimes],
    outcome: &Outcome,
) -> Result<(), String> {
    use std::io::Write;
    let path = trace_path(opts);
    std::fs::create_dir_all(path.parent().expect("trace dir")).map_err(|e| e.to_string())?;
    let file = std::fs::File::create(&path).map_err(|e| format!("trace file: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("trace file: {e}");
    writeln!(w, "{{\"provenance\":{provenance}}}").map_err(io)?;
    let setup = setups.iter().enumerate().flat_map(|(rep, s)| setup_spans(rep, s));
    for span in setup.chain(outcome.spans.iter().cloned()) {
        writeln!(w, "{}", span.to_line()).map_err(io)?;
    }
    let metrics: Vec<String> =
        outcome.metrics.iter().map(|(n, v, _)| format!("\"{n}\":{}", json_number(*v))).collect();
    writeln!(w, "{{\"ledger\":{{{}}}}}", metrics.join(",")).map_err(io)?;
    w.flush().map_err(io)?;
    println!("trace: {}", path.display());
    Ok(())
}

/// Host steal and total CPU time (ticks, all CPUs) from `/proc/stat`:
/// how much of the run the VM's neighbours took.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_owned() };
    read(reference)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Seed, arguments, commit and host facts, as one JSON object.
pub fn provenance(opts: &Options) -> String {
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
    let args: Vec<String> = opts.args.iter().map(|a| json_string(a)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"args\":[{}],\"commit\":{},\
         \"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\"default_seed\":{DEFAULT_SEED},\
         \"held_out_seed\":{HELD_OUT_SEED}}}",
        json_string(opts.workload.name()),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        args.join(","),
        json_string(&git_commit()),
        json_string(&cpu),
        json_string(&kernel),
    )
}
