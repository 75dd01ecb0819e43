//! The per-layer ledger of a traced run (`--trace 1`).
//!
//! No span lives inside the program. The benchmark replays the request
//! bytes its clients sent through the daemon's **public** functions and
//! times each call from outside:
//!
//! ```text
//! request                          (one replayed request, root span)
//! ├── http.parse                   RequestParser::feed + try_next
//! ├── api.route                    api::route, inclusive
//! ├── http.serialize               Response::serialize
//! ├── metrics.record               Metrics::record_request
//! └── shadow                       route's children, re-executed beside it
//!     ├── wire.decode | json.decode
//!     ├── compiled.eval                        (check-*)
//!     ├── monitor.ingest                       (ingest: MonitorEntry::ingest)
//!     ├── monitor.score / .seal / .commit      (ingest: IngestScorer, OnlineMonitor::commit)
//!     ├── state.collect / state.write          (snapshot)
//!     └── wire.encode | json.encode
//! ```
//!
//! `api.route` is timed whole; its children cannot be timed inside it
//! without spans in the program, so they run again beside it on the same
//! input (on shadow copies of any state they mutate). Per request:
//!
//! - `api.self = api.route − (decode + eval + monitor.ingest + collect +
//!   write + encode)`;
//! - `monitor.wait = monitor.ingest − (score + seal + commit)`;
//! - the in-process time is `http.parse + api.route + http.serialize +
//!   metrics.record`, and `transport.residual_us` is the end-to-end p50
//!   minus the in-process p50.
//!
//! The ledger is reconciled against timings the benchmark did not make:
//! the daemon's own flight recorder timed the load phase's requests. The
//! daemon's in-server time may not exceed what the clients waited, and
//! its `handle` span, which wraps the same `api::route` call, must agree
//! with the replayed `api.route` within [`DAEMON_FACTOR`].

use crate::daemon::{RecordedPhases, SetupTimes};
use crate::traffic::LoopResult;
use crate::workload::{ingest_config, monitor_name, Inputs, Workload};
use cc_monitor::{MonitorEntry, MonitorSet, OnlineMonitor};
use cc_server::api::{route, RouteCtx};
use cc_server::http::{Request, RequestParser, Response, DEFAULT_MAX_BODY_BYTES};
use cc_server::json::{num_array, obj, string};
use cc_server::obs::{Level, Logger};
use cc_server::{
    Durability, FleetState, Metrics, ProfileEntry, ProfileRegistry, SelfWatchConfig,
    SelfWatchState, ServerConfig,
};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every timed call, each reported as `.calls`, `.busy_s`, `.p50_us`,
/// `.failed` and `.share`.
pub const CALLS: [&str; 20] = [
    "http.parse",
    "http.serialize",
    "api.route",
    "api.self",
    "json.decode",
    "json.encode",
    "wire.decode",
    "wire.encode",
    "compiled.eval",
    "metrics.record",
    "monitor.score",
    "monitor.seal",
    "monitor.commit",
    "monitor.wait",
    "state.collect",
    "state.write",
    "state.restore",
    "synth",
    "compiled.compile",
    "registry.load",
];

/// Counters and derived values reported beside the calls.
pub const COUNTS: [(&str, &str); 15] = [
    ("http.bytes_in", "bytes"),
    ("http.bytes_out", "bytes"),
    ("monitor.windows_closed", "count"),
    ("monitor.alarms", "count"),
    ("monitor.proposals", "count"),
    ("state.bytes", "bytes"),
    ("transport.residual_us", "us"),
    ("traced.latency_p50_ms", "ms"),
    ("traced.latency_p99_ms", "ms"),
    ("traced.rows_per_s", "rows/s"),
    ("traced.norm_cpu_ms_per_request", "ms"),
    ("daemon.parse_p50_us", "us"),
    ("daemon.handle_p50_us", "us"),
    ("daemon.write_p50_us", "us"),
    ("daemon.in_server_p50_us", "us"),
];

/// Calls timed during set-up: their share is of the summed set-up time,
/// not of request time.
const SETUP_CALLS: [&str; 4] = ["synth", "compiled.compile", "registry.load", "state.restore"];

/// The layers whose self times partition a request's in-process time.
const SELF_LAYERS: [&str; 16] = [
    "http.parse",
    "api.self",
    "json.decode",
    "wire.decode",
    "compiled.eval",
    "monitor.score",
    "monitor.seal",
    "monitor.commit",
    "monitor.wait",
    "state.collect",
    "state.write",
    "json.encode",
    "wire.encode",
    "http.serialize",
    "metrics.record",
    // Never negative by construction; listed so every self time is
    // accounted for exactly once.
    "transport.residual",
];

/// Shadow calls that together re-execute `api.route`'s children.
const ROUTE_CHILDREN: [&str; 8] = [
    "json.decode",
    "wire.decode",
    "compiled.eval",
    "monitor.ingest",
    "state.collect",
    "state.write",
    "json.encode",
    "wire.encode",
];

/// Most requests replayed per client: enough for stable p50s, small
/// enough to keep the trace file to a few megabytes.
const MAX_REPLAYED: usize = 2000;

/// How far the ledger may miss, as a share of the figure it is checked
/// against: the daemon's in-server p50 above the clients' e2e p50, and
/// how negative a derived self time (`api.self`, `monitor.wait`, of its
/// parent) may be.
pub const RECONCILE_TOL: f64 = 0.10;

/// How far the layer p50s may sum from the e2e p50, as a share of it.
/// Medians do not add exactly. The miss is largest on `snapshot`, where
/// `api.self` is the difference of two independent file syncs (route's
/// and its shadow's): resampling the requests of one 2-vCPU VM run put
/// its 99th percentile at 14 %.
pub const BREAKDOWN_TOL: f64 = 0.20;

/// The replayed `api.route` p50 must lie within this factor of the
/// daemon's own `handle` p50, either way. The two are not expected to
/// be equal. Under load the daemon's workers share the CPUs with the
/// reactor and the clients, which the replay does not, and the replay
/// of a snapshot writes and syncs two files per request (route and
/// shadow) where the daemon writes one. On a 2-vCPU VM the ratio of the
/// two ranged from 0.49 (`ingest-ccol`) to 1.38.
pub const DAEMON_FACTOR: f64 = 3.0;

/// One span: name, interval (seconds since its phase's epoch), parent,
/// and the request it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub phase: &'static str,
    pub req: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }

    pub fn to_line(&self) -> String {
        format!(
            "{{\"phase\":\"{}\",\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            self.phase,
            self.req,
            self.id,
            self.parent,
            self.name,
            self.start * 1e6,
            self.end * 1e6
        )
    }
}

/// Request id of client `c`'s request `seq`.
pub fn request_id(c: usize, seq: usize) -> u64 {
    ((c as u64) << 32) | seq as u64
}

/// Collects spans in memory; written out when the run ends.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    req: u64,
    base: usize,
}

impl Recorder {
    fn new(epoch: Instant) -> Self {
        Recorder { epoch, spans: Vec::new(), req: 0, base: 0 }
    }

    fn begin(&mut self, req: u64) {
        self.req = req;
        self.base = self.spans.len();
    }

    fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = (self.spans.len() - self.base) as u32 + 1;
        let t = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            phase: "replay",
            req: self.req,
            id,
            parent,
            name,
            start: t,
            end: t,
        });
        id
    }

    fn close(&mut self, id: u32) -> f64 {
        let span = &mut self.spans[self.base + id as usize - 1];
        span.end = self.epoch.elapsed().as_secs_f64();
        span.duration()
    }

    fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Per-thread replay state that route's children mutate on shadows.
enum Shadow {
    Check { entry: std::sync::Arc<ProfileEntry> },
    Ingest { name: String, entry: std::sync::Arc<MonitorEntry>, monitor: Box<OnlineMonitor> },
    Snapshot { path: PathBuf },
}

/// What one replay thread produced.
#[derive(Default)]
struct ThreadOut {
    spans: Vec<Span>,
    bytes_in: u64,
    bytes_out: u64,
    windows_closed: u64,
    alarms: u64,
    proposals: u64,
    state_bytes: u64,
    failures: BTreeMap<&'static str, u64>,
    errors: Vec<String>,
}

/// Everything a traced run needs to replay.
pub struct Replay<'a> {
    pub inputs: &'a Inputs,
    pub profile_dir: &'a Path,
    /// The daemon's snapshot file as its last timed snapshot wrote it
    /// (snapshot only); the replay boots from a copy.
    pub state_file: Option<&'a Path>,
    pub work_dir: &'a Path,
    pub part1: &'a LoopResult,
    /// The daemon's own spans for the load phase's requests.
    pub recorded: &'a RecordedPhases,
    /// Verified reply bodies per client (check-*), for HTTP ≡ replay.
    pub expected: Vec<Option<Vec<Vec<u8>>>>,
    pub self_state: &'a SelfWatchState,
    pub budget: Duration,
    pub setup: &'a [SetupTimes],
    pub setup_reps: usize,
}

/// The ledger's output: metrics, the spans for the trace file, and the
/// reconciliation verdict.
pub struct Ledger {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub spans: Vec<Span>,
    pub table: Vec<String>,
    pub errors: Vec<String>,
    pub replayed: usize,
}

fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn p50(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 0.5)
}

pub fn p99(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 0.99)
}

fn p50_of(values: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    values.get(name).map_or(0.0, |v| p50(v))
}

impl Replay<'_> {
    pub fn run(&self) -> Result<Ledger, String> {
        let workload = self.inputs.workload;
        let registry = ProfileRegistry::from_dir(self.profile_dir)?;
        let monitors = MonitorSet::new();
        let metrics = Metrics::new();
        let logger = Logger::new(Level::Info, ServerConfig::default().log_buffer);
        let fleet = FleetState::standalone();
        let self_watch = SelfWatchConfig::default();
        // The replay's own state dir, booted from a copy of the daemon's
        // snapshot. `state.restore` (`Durability::boot`) is timed once
        // per set-up rep, into throwaway sets.
        let mut restore_times = Vec::new();
        let durability = match self.state_file {
            None => None,
            Some(src) => {
                let dir = self.work_dir.join("replay-state");
                std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
                std::fs::copy(src, dir.join(cc_server::STATE_FILE))
                    .map_err(|e| format!("copy snapshot: {e}"))?;
                let boot = |reg: &ProfileRegistry, set: &MonitorSet, met: &Metrics| {
                    let d = Durability::new(&dir).map_err(|e| e.to_string())?;
                    let notes = d.boot(reg, set, met);
                    if d.restored() {
                        Ok(d)
                    } else {
                        Err(format!("replay restore failed: {notes:?}"))
                    }
                };
                for _ in 0..self.setup_reps {
                    let (reg, set, met) = (
                        ProfileRegistry::from_dir(self.profile_dir)?,
                        MonitorSet::new(),
                        Metrics::new(),
                    );
                    let started = Instant::now();
                    boot(&reg, &set, &met)?;
                    restore_times.push(started.elapsed().as_secs_f64());
                }
                Some(boot(&registry, &monitors, &metrics)?)
            }
        };
        let ctx = RouteCtx {
            registry: &registry,
            monitors: &monitors,
            metrics: &metrics,
            durability: durability.as_ref(),
            logger: &logger,
            self_watch: Some(&self_watch),
            self_state: self.self_state,
            trace_buffer: ServerConfig::default().trace_buffer,
            fleet: &fleet,
        };
        let entry = registry.snapshot().select(None).cloned().ok_or("no profile to replay")?;
        let epoch = Instant::now();
        let deadline = epoch + self.budget;
        let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .part1
                .clients
                .iter()
                .enumerate()
                .map(|(c, run)| {
                    let shadow = match workload {
                        Workload::CheckCcol | Workload::CheckJson => {
                            Shadow::Check { entry: entry.clone() }
                        }
                        Workload::IngestCcol => {
                            let fresh = || {
                                OnlineMonitor::new(entry.profile.clone(), ingest_config())
                                    .expect("ingest config is valid")
                            };
                            Shadow::Ingest {
                                name: monitor_name(c),
                                entry: MonitorEntry::named(&monitor_name(c), fresh()),
                                monitor: Box::new(fresh()),
                            }
                        }
                        Workload::Snapshot => {
                            let dir = self.work_dir.join(format!("shadow-state-{c}"));
                            Shadow::Snapshot { path: dir.join(cc_server::STATE_FILE) }
                        }
                    };
                    let requests = &self.inputs.requests[c];
                    let expected = self.expected[c].as_deref();
                    let ctx = &ctx;
                    let timed = run.timings.len().min(MAX_REPLAYED);
                    scope.spawn(move || {
                        replay_client(
                            ctx,
                            workload,
                            c,
                            requests,
                            expected,
                            run.first_seq,
                            timed,
                            shadow,
                            epoch,
                            deadline,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("replay thread")).collect()
        });
        Ok(self.aggregate(outs, restore_times))
    }

    fn aggregate(&self, outs: Vec<ThreadOut>, restore_times: Vec<f64>) -> Ledger {
        let mut errors: Vec<String> = outs.iter().flat_map(|o| o.errors.clone()).collect();
        // Per request: call name → duration.
        let mut per_req: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for span in outs.iter().flat_map(|o| &o.spans) {
            per_req.entry(span.req).or_default().insert(span.name, span.duration());
        }
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut inproc = Vec::new();
        let mut e2e_replayed = 0.0;
        for (req, calls) in &per_req {
            let get = |n: &str| calls.get(n).copied();
            let Some(route) = get("api.route") else { continue };
            for (&name, &d) in calls {
                values.entry(name).or_default().push(d);
            }
            let children: f64 = ROUTE_CHILDREN.iter().filter_map(|n| get(n)).sum();
            values.entry("api.self").or_default().push(route - children);
            if let Some(ingest) = get("monitor.ingest") {
                let phases: f64 = ["monitor.score", "monitor.seal", "monitor.commit"]
                    .iter()
                    .filter_map(|n| get(n))
                    .sum();
                values.entry("monitor.wait").or_default().push(ingest - phases);
            }
            inproc.push(
                ["http.parse", "api.route", "http.serialize", "metrics.record"]
                    .iter()
                    .filter_map(|n| get(n))
                    .sum::<f64>(),
            );
            let (c, seq) = ((req >> 32) as usize, (req & 0xFFFF_FFFF) as usize);
            let run = &self.part1.clients[c];
            e2e_replayed += run.timings[seq - run.first_seq].1;
        }
        values.insert("synth", self.setup.iter().map(|s| s.synth).collect());
        values.insert("registry.load", self.setup.iter().map(|s| s.load).collect());
        values.insert("compiled.compile", self.setup.iter().map(|s| s.compile).collect());
        values.insert("state.restore", restore_times);
        let setup_total: f64 = self.setup.iter().map(SetupTimes::total).sum();

        let e2e = self.part1.latencies();
        let e2e_p50 = p50(&e2e);
        let residual = e2e_p50 - p50(&inproc);
        values.insert("transport.residual", vec![residual]);

        let mut failures: BTreeMap<&'static str, u64> = BTreeMap::new();
        for o in &outs {
            for (k, v) in &o.failures {
                *failures.entry(k).or_default() += v;
            }
        }
        let mut metrics = Vec::new();
        let mut table = vec![format!(
            "{:<18} {:>7} {:>10} {:>11} {:>7}",
            "layer", "calls", "busy_s", "p50_us", "share"
        )];
        for name in CALLS {
            let vals = values.get(name).cloned().unwrap_or_default();
            let busy: f64 = vals.iter().sum();
            let denom = if SETUP_CALLS.contains(&name) { setup_total } else { e2e_replayed };
            let share = if denom > 0.0 { busy / denom } else { 0.0 };
            let p = p50(&vals) * 1e6;
            let failed = failures.get(name).copied().unwrap_or(0) as f64;
            if !vals.is_empty() {
                table.push(format!(
                    "{name:<18} {:>7} {busy:>10.4} {p:>11.1} {share:>7.3}",
                    vals.len()
                ));
            }
            metrics.push((format!("{name}.calls"), vals.len() as f64, "count"));
            metrics.push((format!("{name}.busy_s"), busy, "s"));
            metrics.push((format!("{name}.p50_us"), p, "us"));
            metrics.push((format!("{name}.failed"), failed, "count"));
            metrics.push((format!("{name}.share"), share, "ratio"));
        }
        table.push(format!(
            "{:<18} {:>7} {:>10} {:>11.1}",
            "transport.residual",
            "",
            "",
            residual * 1e6
        ));
        let sum_outs = |f: fn(&ThreadOut) -> u64| outs.iter().map(f).sum::<u64>() as f64;
        let counts = [
            sum_outs(|o| o.bytes_in),
            sum_outs(|o| o.bytes_out),
            sum_outs(|o| o.windows_closed),
            sum_outs(|o| o.alarms),
            sum_outs(|o| o.proposals),
            outs.iter().map(|o| o.state_bytes).max().unwrap_or(0) as f64,
            residual * 1e6,
            e2e_p50 * 1e3,
            p99(&e2e) * 1e3,
            (self.part1.requests() * self.inputs.rows_per_request()) as f64
                / self.part1.wall_seconds,
            p50(&self.part1.norm_cpu_per_request()) * 1e3,
            p50(&self.recorded.phase("parse")) * 1e6,
            p50(&self.recorded.phase("handle")) * 1e6,
            p50(&self.recorded.phase("write")) * 1e6,
            p50(&self.recorded.in_server()) * 1e6,
        ];
        for ((name, unit), v) in COUNTS.iter().zip(counts) {
            metrics.push(((*name).to_owned(), v, unit));
        }

        if per_req.is_empty() {
            errors.push("the replay timed no request".into());
        }
        // Against the daemon's own timings of the load phase. First, the
        // daemon cannot have spent longer on a request than its client
        // waited for it; the recorder holds the most recent requests, so
        // they are compared with the clients' most recent requests.
        let recorded = self.recorded.requests.len();
        let in_server_p50 = p50(&self.recorded.in_server());
        let client_p50 = p50(&self.part1.latest_latencies(recorded));
        table.push(format!(
            "daemon check: in-server p50 = {:.1} µs vs client e2e p50 = {:.1} µs over the last \
             {recorded} requests (may exceed it by {:.0}%)",
            in_server_p50 * 1e6,
            client_p50 * 1e6,
            RECONCILE_TOL * 100.0
        ));
        if recorded == 0 || in_server_p50 > (1.0 + RECONCILE_TOL) * client_p50 {
            errors.push(format!(
                "the daemon's in-server p50 ({:.1} µs) exceeds the clients' e2e p50 ({:.1} µs)",
                in_server_p50 * 1e6,
                client_p50 * 1e6
            ));
        }
        // Second, the replayed `api::route` must cost about what the
        // daemon's `handle` spans measured around the same call.
        let route_p50 = p50_of(&values, "api.route");
        let handle_p50 = p50(&self.recorded.phase("handle"));
        let ratio = route_p50 / handle_p50;
        table.push(format!(
            "daemon check: replayed api.route p50 = {:.1} µs vs daemon handle p50 = {:.1} µs \
             (ratio {ratio:.3}, allowed 1/{DAEMON_FACTOR}–{DAEMON_FACTOR})",
            route_p50 * 1e6,
            handle_p50 * 1e6,
        ));
        if !(1.0 / DAEMON_FACTOR..=DAEMON_FACTOR).contains(&ratio) {
            errors.push(format!(
                "replay does not reconcile with the daemon: api.route p50 {:.1} µs, \
                 daemon handle p50 {:.1} µs",
                route_p50 * 1e6,
                handle_p50 * 1e6
            ));
        }
        // The layer p50s must add up to the in-process p50, so the table
        // reads as a breakdown of the median request. With the residual
        // defined as e2e p50 − in-process p50 this is all the check can
        // test: it holds by construction for means, and for medians only
        // while the per-request distributions stay close to symmetric.
        let layer_sum: f64 = SELF_LAYERS.iter().filter_map(|n| values.get(n)).map(|v| p50(v)).sum();
        let miss = (layer_sum - e2e_p50).abs() / e2e_p50;
        table.push(format!(
            "breakdown: Σ layer p50 = {:.1} µs vs e2e p50 = {:.1} µs (miss {:.1}%, tolerance {:.0}%)",
            layer_sum * 1e6,
            e2e_p50 * 1e6,
            miss * 100.0,
            BREAKDOWN_TOL * 100.0
        ));
        if miss > BREAKDOWN_TOL {
            errors.push(format!(
                "layer p50s sum to {:.1} µs, e2e p50 is {:.1} µs",
                layer_sum * 1e6,
                e2e_p50 * 1e6
            ));
        }
        // A call and its shadow children run back to back on one thread,
        // so children may not take longer than the call.
        let negative = [
            ("api.self", p50_of(&values, "api.route")),
            ("monitor.wait", p50_of(&values, "monitor.ingest")),
        ];
        for (name, parent) in negative {
            if let Some(v) = values.get(name) {
                let self_p50 = p50(v);
                if self_p50 < -RECONCILE_TOL * parent {
                    errors.push(format!(
                        "{name} p50 is {:.1} µs: more time attributed to children than measured",
                        self_p50 * 1e6
                    ));
                }
            }
        }
        let mut spans: Vec<Span> = outs.into_iter().flat_map(|o| o.spans).collect();
        spans.sort_by(|a, b| a.req.cmp(&b.req).then(a.id.cmp(&b.id)));
        Ledger { metrics, spans, table, errors, replayed: per_req.len() }
    }
}

#[allow(clippy::too_many_arguments)]
fn replay_client(
    ctx: &RouteCtx<'_>,
    workload: Workload,
    c: usize,
    requests: &[Vec<u8>],
    expected: Option<&[Vec<u8>]>,
    warmup: usize,
    timed: usize,
    mut shadow: Shadow,
    epoch: Instant,
    deadline: Instant,
) -> ThreadOut {
    let mut out = ThreadOut::default();
    let mut rec = Recorder::new(epoch);
    let mut parser = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
    let fail = |out: &mut ThreadOut, call: &'static str, msg: String| {
        *out.failures.entry(call).or_default() += 1;
        if out.errors.len() < 8 {
            out.errors.push(format!("replay client {c}: {call}: {msg}"));
        }
    };
    let mut before = shadow_counts(&shadow);
    for seq in 0..warmup + timed {
        let spanned = seq >= warmup;
        if seq == warmup {
            before = shadow_counts(&shadow);
        }
        if spanned && Instant::now() >= deadline {
            break;
        }
        let bytes = &requests[seq % requests.len()];
        rec.begin(request_id(c, seq));
        let root = rec.open("request", 0);
        let parsed = rec.time("http.parse", root, || {
            parser.feed(bytes);
            parser.try_next()
        });
        let req = match parsed {
            Ok(Some(req)) => req,
            other => {
                fail(&mut out, "http.parse", format!("{:?}", other.err()));
                break;
            }
        };
        let route_id = rec.open("api.route", root);
        let (endpoint, resp) = route(&req, ctx, 0);
        let route_secs = rec.close(route_id);
        if !(200..300).contains(&resp.status) {
            fail(&mut out, "api.route", format!("status {}", resp.status));
        }
        if let Some(want) = expected {
            if resp.body != want[seq % want.len()] {
                fail(&mut out, "api.route", "reply differs from the HTTP reply".into());
            }
        }
        let ser_id = rec.open("http.serialize", root);
        let wire_bytes = resp.serialize(true);
        let ser_secs = rec.close(ser_id);
        rec.time("metrics.record", root, || {
            ctx.metrics.record_request(endpoint, resp.status, route_secs + ser_secs)
        });
        if spanned {
            out.bytes_in += bytes.len() as u64;
            out.bytes_out += wire_bytes.len() as u64;
        }
        let sh = rec.open("shadow", root);
        if let Err((call, e)) = run_shadow(&mut rec, sh, workload, &req, &mut shadow, ctx) {
            fail(&mut out, call, e);
        }
        rec.close(sh);
        rec.close(root);
        if !spanned {
            rec.spans.truncate(rec.base);
        }
    }
    let after = shadow_counts(&shadow);
    out.windows_closed = after.0 - before.0;
    out.alarms = after.1 - before.1;
    out.proposals = after.2 - before.2;
    if let Shadow::Ingest { entry, monitor, name } = &shadow {
        let a = serde_json::to_string(&entry.status().to_value()).expect("serializes");
        let b = serde_json::to_string(&monitor.status().to_value()).expect("serializes");
        if a != b {
            fail(
                &mut out,
                "monitor.commit",
                format!("{name}: phased shadow ≠ MonitorEntry shadow"),
            );
        }
    }
    if let Shadow::Snapshot { path } = &shadow {
        out.state_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    }
    out.spans = rec.spans;
    out
}

/// Windows closed, alarms and proposals of an ingest shadow.
fn shadow_counts(shadow: &Shadow) -> (u64, u64, u64) {
    match shadow {
        Shadow::Ingest { monitor, .. } => {
            let s = monitor.status();
            (s.windows_closed, s.alarms_total, s.proposals_total)
        }
        _ => (0, 0, 0),
    }
}

type ShadowError = (&'static str, String);

fn run_shadow(
    rec: &mut Recorder,
    parent: u32,
    workload: Workload,
    req: &Request,
    shadow: &mut Shadow,
    ctx: &RouteCtx<'_>,
) -> Result<(), ShadowError> {
    let body = &req.body;
    match shadow {
        Shadow::Check { entry } => {
            let plan = &entry.plan;
            let frame = if workload.columnar() {
                rec.time("wire.decode", parent, || cc_server::wire::decode_frame(body))
                    .map_err(|e| ("wire.decode", e.to_string()))?
            } else {
                rec.time("json.decode", parent, || json_decode(body))
                    .map_err(|e| ("json.decode", e))?
            };
            let v = rec
                .time("compiled.eval", parent, || plan.violations_parallel(&frame, 1))
                .map_err(|e| ("compiled.eval", e.to_string()))?;
            if workload.columnar() {
                rec.time("wire.encode", parent, || cc_server::wire::encode_violations(&v));
            } else {
                let n = v.len();
                let value = obj(vec![
                    ("profile", string(entry.name.as_str())),
                    ("rows", Value::Number(n as f64)),
                    ("constraints", Value::Number(plan.constraint_count() as f64)),
                    ("mean", Value::Number(v.iter().sum::<f64>() / n.max(1) as f64)),
                    ("max", Value::Number(v.iter().fold(0.0f64, |m, &x| m.max(x)))),
                    ("violations", num_array(&v)),
                ]);
                rec.time("json.encode", parent, || Response::json(&value));
            }
        }
        Shadow::Ingest { name, entry, monitor } => {
            let frame = rec
                .time("wire.decode", parent, || cc_server::wire::decode_frame(body))
                .map_err(|e| ("wire.decode", e.to_string()))?;
            rec.time("monitor.ingest", parent, || entry.ingest(&frame, 1))
                .map_err(|e| ("monitor.ingest", e.to_string()))?;
            let scorer = monitor.scorer();
            let start_row = monitor.stream_position();
            let scored = rec
                .time("monitor.score", parent, || scorer.score(&frame, 1))
                .map_err(|e| ("monitor.score", e.to_string()))?;
            let delta = rec.time("monitor.seal", parent, || scorer.seal(scored, start_row));
            let report = rec
                .time("monitor.commit", parent, || monitor.commit(&delta))
                .map_err(|e| ("monitor.commit", e.to_string()))?;
            let status = monitor.status();
            let value = obj(vec![
                ("monitor", string(name.as_str())),
                ("created", Value::Bool(false)),
                ("generation", Value::Number(status.generation as f64)),
                ("rows", Value::Number(report.rows as f64)),
                ("start_row", Value::Number(report.start_row as f64)),
                ("windows", report.windows.to_value()),
                ("alarm", Value::Bool(report.alarm)),
                ("status", status.to_value()),
            ]);
            rec.time("json.encode", parent, || Response::json(&value));
        }
        Shadow::Snapshot { path } => {
            let state = rec.time("state.collect", parent, || {
                cc_server::state::collect(ctx.registry, ctx.monitors, ctx.metrics)
            });
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| ("state.write", e.to_string()))?;
            }
            rec.time("state.write", parent, || cc_state::write_snapshot(path, &state))
                .map_err(|e| ("state.write", e.to_string()))?;
        }
    }
    Ok(())
}

/// What the daemon does with a JSON batch body before evaluation:
/// `serde_json::from_str` into a value tree, then
/// `json::frame_from_columns`.
fn json_decode(body: &[u8]) -> Result<cc_frame::DataFrame, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let columns = cc_server::json::get(&value, "columns").ok_or("body lacks 'columns'")?;
    cc_server::json::frame_from_columns(columns)
}
