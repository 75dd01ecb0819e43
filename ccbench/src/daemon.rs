//! Daemon set-up: the timed path from a training frame to the first
//! 2xx answer, configured as a default `ccsynth serve`.

use crate::client;
use cc_frame::DataFrame;
use cc_server::{LogSink, ProfileRegistry, SelfWatchConfig, Server, ServerConfig, ServerHandle};
use conformance::{synthesize, CompiledProfile, ConformanceProfile, SynthOptions};
use std::path::Path;
use std::time::Instant;

/// Profile file name inside the registry directory.
pub const PROFILE_FILE: &str = "bench.json";

/// `ccsynth serve` defaults: 4 workers, auto io, trace ring on, `info`
/// logs, self-watch every second. Only the listen address, the log sink
/// (none, so the benchmark's stdout stays clean) and the state
/// directory differ.
pub fn config(state_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state_dir.map(Path::to_path_buf),
        log_sink: LogSink::None,
        self_watch: Some(SelfWatchConfig::default()),
        ..ServerConfig::default()
    }
}

/// Seconds spent in each timed set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `conformance::synthesize` on the training frame.
    pub synth: f64,
    /// Writing the profile file and `ProfileRegistry::from_dir`.
    pub load: f64,
    /// `Server::start` (including any state restore) to the first 2xx.
    pub start: f64,
    /// `CompiledProfile::compile` of the same profile, timed outside the
    /// set-up total (the registry compiles inside `load`).
    pub compile: f64,
    /// CPU seconds of the whole process over the three timed steps.
    pub cpu: f64,
    /// CPU seconds of the host-speed reference, mean of one measurement
    /// on each side of the rep ([`crate::cpu::Reference::measure`]).
    pub reference: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.synth + self.load + self.start
    }
}

/// Synthesizes the profile and writes it where the registry loads it.
pub fn write_profile(train: &DataFrame, dir: &Path) -> Result<ConformanceProfile, String> {
    let profile = synthesize(train, &SynthOptions::default()).map_err(|e| e.to_string())?;
    write_profile_file(&profile, dir)?;
    Ok(profile)
}

fn write_profile_file(profile: &ConformanceProfile, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("profile dir: {e}"))?;
    let text = serde_json::to_string_pretty(profile).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(PROFILE_FILE), text).map_err(|e| format!("write profile: {e}"))
}

/// Starts a daemon over the registry in `profile_dir` and waits for the
/// first 2xx (`GET /healthz`).
pub fn start(profile_dir: &Path, state_dir: Option<&Path>) -> Result<ServerHandle, String> {
    let registry = ProfileRegistry::from_dir(profile_dir)?;
    start_with(registry, state_dir)
}

fn start_with(registry: ProfileRegistry, state_dir: Option<&Path>) -> Result<ServerHandle, String> {
    let handle =
        Server::start(config(state_dir), registry).map_err(|e| format!("server start: {e}"))?;
    match client::one_shot(handle.addr(), "GET", "/healthz") {
        Ok((200, _)) => Ok(handle),
        Ok((status, _)) => Err(format!("first probe answered {status}")),
        Err(e) => Err(format!("first probe: {e}")),
    }
}

/// One timed set-up: synthesize → write + `ProfileRegistry::from_dir` →
/// `Server::start` → first 2xx. Input generation is not timed.
pub fn timed_boot(
    train: &DataFrame,
    profile_dir: &Path,
    state_dir: Option<&Path>,
) -> Result<(ServerHandle, SetupTimes), String> {
    let cpu0 = crate::cpu::process_seconds();
    let t0 = Instant::now();
    let profile = synthesize(train, &SynthOptions::default()).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    write_profile_file(&profile, profile_dir)?;
    let registry = ProfileRegistry::from_dir(profile_dir)?;
    let t2 = Instant::now();
    let handle = start_with(registry, state_dir)?;
    let t3 = Instant::now();
    let cpu = crate::cpu::process_seconds() - cpu0;
    let compile_started = Instant::now();
    std::hint::black_box(CompiledProfile::compile(&profile));
    let compile = compile_started.elapsed().as_secs_f64();
    let times = SetupTimes {
        synth: (t1 - t0).as_secs_f64(),
        load: (t2 - t1).as_secs_f64(),
        start: (t3 - t2).as_secs_f64(),
        compile,
        cpu,
        reference: f64::NAN,
    };
    Ok((handle, times))
}

/// The daemon's `cc_server_rows_checked_total`, scraped from `/metrics`.
pub fn rows_checked(addr: std::net::SocketAddr) -> Result<u64, String> {
    let (status, body) = client::one_shot(addr, "GET", "/metrics").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    String::from_utf8_lossy(&body)
        .lines()
        .find_map(|l| l.strip_prefix("cc_server_rows_checked_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
        .ok_or_else(|| "no cc_server_rows_checked_total in /metrics".to_owned())
}

/// The request phases the daemon's flight recorder times, in the order
/// of [`RecordedPhases::requests`]' entries.
pub const RECORDED_PHASES: [&str; 4] = ["parse", "queue_wait", "handle", "write"];

/// The daemon's own flight-recorder timings of recent requests to one
/// endpoint.
#[derive(Clone, Debug, Default)]
pub struct RecordedPhases {
    /// Per request with a `handle` span, in start order: the seconds of
    /// each of [`RECORDED_PHASES`]. `parse` is the time spent feeding
    /// bytes to the parser as they arrived, `handle` wraps the
    /// `api::route` call, `write` is the first flush of the reply. A
    /// phase already overwritten in the ring counts 0.
    pub requests: Vec<[f64; 4]>,
}

impl RecordedPhases {
    /// One phase's durations over the recorded requests.
    pub fn phase(&self, name: &str) -> Vec<f64> {
        let i = RECORDED_PHASES.iter().position(|p| *p == name).expect("a recorded phase");
        self.requests.iter().map(|r| r[i]).collect()
    }

    /// Per request, the time the daemon accounts for: its phases summed.
    pub fn in_server(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.iter().sum()).collect()
    }
}

/// Reads the recent request spans of `endpoint` from `GET /v2/trace`
/// and groups them by trace id. The daemon timed them itself,
/// independently of the benchmark.
pub fn recorded_phases(
    addr: std::net::SocketAddr,
    endpoint: cc_server::Endpoint,
) -> Result<RecordedPhases, String> {
    use cc_server::json::{as_str, get};
    use serde_json::Value;
    let (status, body) = client::one_shot(addr, "GET", "/v2/trace?limit=4096&top=1")
        .map_err(|e| format!("/v2/trace: {e}"))?;
    if status != 200 {
        return Err(format!("/v2/trace answered {status}"));
    }
    let text = std::str::from_utf8(&body).map_err(|_| "/v2/trace is not UTF-8".to_owned())?;
    let trace: Value = serde_json::from_str(text).map_err(|e| format!("/v2/trace: {e}"))?;
    let Some(Value::Array(spans)) = get(&trace, "spans") else {
        return Err("/v2/trace lacks 'spans'".into());
    };
    // Trace id → (first start, phase seconds, whether `handle` was seen).
    let mut by_trace: std::collections::HashMap<&str, (f64, [f64; 4], bool)> =
        std::collections::HashMap::new();
    for span in spans {
        if get(span, "tag").and_then(as_str) != Some(endpoint.label()) {
            continue;
        }
        let phase = get(span, "phase").and_then(as_str);
        let Some(i) = RECORDED_PHASES.iter().position(|p| Some(*p) == phase) else { continue };
        let (Some(id), Some(Value::Number(start)), Some(Value::Number(us))) =
            (get(span, "trace").and_then(as_str), get(span, "start_us"), get(span, "dur_us"))
        else {
            continue;
        };
        let entry = by_trace.entry(id).or_insert((*start, [0.0; 4], false));
        entry.0 = entry.0.min(*start);
        entry.1[i] += us * 1e-6;
        entry.2 |= RECORDED_PHASES[i] == "handle";
    }
    let mut requests: Vec<(f64, [f64; 4])> =
        by_trace.into_values().filter(|r| r.2).map(|(start, phases, _)| (start, phases)).collect();
    if requests.is_empty() {
        return Err(format!("/v2/trace holds no handle span for {}", endpoint.label()));
    }
    requests.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(RecordedPhases { requests: requests.into_iter().map(|r| r.1).collect() })
}
