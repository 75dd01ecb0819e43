//! The TCP layer: listener, the connection core, graceful shutdown.
//!
//! Sockets are served by the edge-triggered epoll readiness core in
//! [`crate::reactor`]: one acceptor hands connections round-robin to
//! reactor threads, which run non-blocking per-connection state machines
//! (incremental parser → router → buffered write) and pass each routed
//! request to a compute pool, so no reactor blocks on a handler and no
//! idle keep-alive connection holds a worker. The core is Linux-only;
//! elsewhere [`Server::start`] fails with [`std::io::ErrorKind::Unsupported`].
//!
//! Shutdown ([`ServerHandle::shutdown`]) is graceful by construction:
//! the flag flips, the acceptor is unblocked by a wake-up connection and
//! stops accepting, in-flight requests finish (the response is forced
//! `connection: close`), idle connections are dropped, and only then do
//! the threads exit — no fully-received request is dropped.

use crate::http::Response;
use crate::metrics::{Endpoint, Metrics};
#[cfg(target_os = "linux")]
use crate::reactor::EpollCore as Core;
use crate::registry::ProfileRegistry;
use crate::selfwatch::{SelfWatchConfig, SelfWatchState};
use crate::state::Durability;
use cc_monitor::MonitorSet;
use cc_obs::{Level, Logger};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where structured log lines are streamed (they are always ring-
/// buffered for `GET /v1/logs` regardless).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum LogSink {
    /// Ring buffer only — the embedding/test default: nothing written
    /// to the process streams.
    #[default]
    None,
    /// One JSON line per record to stderr (the CLI `serve` default).
    Stderr,
    /// One JSON line per record appended to a file (`--log-file`).
    File(PathBuf),
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address
    /// is on [`ServerHandle::addr`]).
    pub addr: String,
    /// Compute threads: the pool that executes routed requests off the
    /// reactors. Connections do not hold a worker between requests, so
    /// any number of keep-alive clients share the pool.
    pub workers: usize,
    /// Reactor threads that own the sockets (`0` = one per available
    /// core, capped at 8).
    pub reactors: usize,
    /// Per-request body ceiling in bytes.
    pub max_body_bytes: usize,
    /// How long an idle keep-alive connection is held before closing.
    pub keep_alive: Duration,
    /// Durable-state directory. When set, boot restores the snapshot
    /// inside it (quarantining a corrupt file), `POST /v1/snapshot` and
    /// graceful shutdown write one, and `autosave` may write them
    /// periodically.
    pub state_dir: Option<PathBuf>,
    /// Periodic autosave interval (requires `state_dir`; `None` — the
    /// default — saves only on demand and at shutdown).
    pub autosave: Option<Duration>,
    /// Flight-recorder ring capacity per thread (`--trace-buffer`).
    /// `0` disables request tracing for this server: no spans, no trace
    /// id generation, and responses are byte-identical to a build without
    /// the recorder. The recorder itself is process-global; this knob
    /// gates whether *this server's* request path feeds it.
    pub trace_buffer: usize,
    /// Minimum structured-log level. [`Level::Off`] silences the logger
    /// entirely (ring included); request completions log at `debug`
    /// (2xx) / `warn` (4xx) / `error` (5xx), lifecycle lines at `info`.
    pub log_level: Level,
    /// Log ring capacity — the last N records answer `GET /v1/logs`.
    pub log_buffer: usize,
    /// Optional stream for log lines beyond the ring (see [`LogSink`]).
    pub log_sink: LogSink,
    /// Self-watch sampler: when set, a background thread folds the
    /// flight recorder, error counters, and gauges into one numeric row
    /// per tick and streams it into the reserved `__self` monitor so the
    /// server's own detectors watch the server (see [`crate::selfwatch`]).
    /// `None` (the embedding default) spawns nothing.
    pub self_watch: Option<SelfWatchConfig>,
    /// Fleet role (see [`crate::fleet`]): `Shard` arms monitors' export
    /// logs for delta export, `Coordinator` merges shard deltas instead
    /// of ingesting rows. `Standalone` (the default) does neither.
    pub role: crate::fleet::Role,
    /// Shard addresses (`host:port`) the coordinator's pull loop polls.
    /// Order matters: shard `s` owns epochs `g ≡ s (mod N)`.
    pub shard_addrs: Vec<String>,
    /// Coordinator poll cadence (`--pull-ms`).
    pub pull_interval: Duration,
    /// Export-log bound a shard arms its monitors with (`--export-cap`):
    /// how many closed windows are retained for lagging coordinators.
    pub export_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            reactors: 0,
            max_body_bytes: crate::http::DEFAULT_MAX_BODY_BYTES,
            keep_alive: Duration::from_secs(5),
            state_dir: None,
            autosave: None,
            trace_buffer: cc_trace::DEFAULT_BUFFER,
            log_level: Level::Info,
            log_buffer: cc_obs::DEFAULT_BUFFER,
            log_sink: LogSink::None,
            self_watch: None,
            role: crate::fleet::Role::Standalone,
            shard_addrs: Vec::new(),
            pull_interval: crate::fleet::DEFAULT_PULL_INTERVAL,
            export_cap: crate::fleet::DEFAULT_EXPORT_CAP,
        }
    }
}

/// State shared by the connection core's threads and the handle.
pub(crate) struct Shared {
    pub(crate) registry: ProfileRegistry,
    pub(crate) monitors: MonitorSet,
    pub(crate) metrics: Metrics,
    pub(crate) durability: Option<Durability>,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    /// The structured logger: ring-buffered for `GET /v1/logs`, with an
    /// optional stderr/file stream.
    pub(crate) logger: Logger,
    /// Self-watch sampler runtime state (ticks even when the sampler is
    /// disabled only in the trivial sense: everything stays zero).
    pub(crate) selfwatch: SelfWatchState,
    /// Fleet role + membership (standalone unless configured); the
    /// router's `/v2/fleet` branches and the pull loop both read it.
    pub(crate) fleet: crate::fleet::FleetState,
}

impl Shared {
    /// Whether this server's request path records trace spans.
    pub(crate) fn tracing(&self) -> bool {
        self.config.trace_buffer > 0 && cc_trace::enabled()
    }

    /// Logs one completed request, leveled by status class: `debug` for
    /// success (so the default `info` level pays one atomic load per
    /// request on the hot path), `warn` for client errors, `error` for
    /// server errors. The level check precedes the format so silenced
    /// lines cost no allocation.
    pub(crate) fn log_request(
        &self,
        trace: u64,
        endpoint: Endpoint,
        method: &str,
        path: &str,
        status: u16,
        elapsed: Duration,
    ) {
        let level = match status {
            s if s >= 500 => Level::Error,
            s if s >= 400 => Level::Warn,
            _ => Level::Debug,
        };
        if self.logger.enabled(level) {
            self.logger.log(
                level,
                trace,
                endpoint.label(),
                format!("{method} {path} -> {status} in {:.3}ms", elapsed.as_secs_f64() * 1e3),
            );
        }
    }
}

/// Per-request trace identity: the numeric span id plus the exact token
/// echoed back on the `x-ccsynth-trace` response header (the client's
/// own token when supplied, the generated id's hex otherwise).
pub(crate) struct TraceCtx {
    pub(crate) id: u64,
    pub(crate) echo: String,
}

/// Response header carrying the trace id.
pub(crate) const TRACE_HEADER: &str = "x-ccsynth-trace";

/// Resolves a request's trace identity: accept `X-Ccsynth-Trace` when
/// present (hex tokens round-trip exactly; other tokens are hashed for
/// span tagging but echoed verbatim), generate otherwise.
pub(crate) fn trace_ctx(req: &crate::http::Request) -> TraceCtx {
    match req.header(TRACE_HEADER).map(str::trim).filter(|v| !v.is_empty()) {
        Some(v) => {
            let mut echo = v.to_owned();
            echo.truncate(64);
            TraceCtx { id: cc_trace::parse_id(&echo), echo }
        }
        None => {
            let id = cc_trace::gen_id();
            TraceCtx { id, echo: cc_trace::id_hex(id) }
        }
    }
}

/// Stand-in for the epoll core where it cannot exist: it has no values,
/// so [`Server::start`] fails before any thread spawns.
#[cfg(not(target_os = "linux"))]
enum Core {}

#[cfg(not(target_os = "linux"))]
impl Core {
    fn start(_: TcpListener, _: Arc<Shared>, _: usize) -> std::io::Result<Core> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "cc_server's connection core is epoll, which is Linux-only",
        ))
    }

    fn wake(&self) {
        match *self {}
    }

    fn join(self) {
        match self {}
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`Self::shutdown`] for a graceful stop (tests and the CLI both
/// do).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    core: Core,
    autosaver: Option<std::thread::JoinHandle<()>>,
    sampler: Option<std::thread::JoinHandle<()>>,
    puller: Option<std::thread::JoinHandle<()>>,
}

/// The server: bind + spawn. All state lives in the returned handle.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts the acceptor, reactor and compute
    /// threads serving `registry`. With [`ServerConfig::state_dir`] set,
    /// the state snapshot is restored **before** the first connection is
    /// accepted (a corrupt snapshot is quarantined and logged, never
    /// fatal), and an autosave thread starts when
    /// [`ServerConfig::autosave`] is set.
    ///
    /// # Errors
    /// Fails when the address cannot be bound, the state directory
    /// cannot be created, or the epoll core cannot start (always, off
    /// Linux).
    pub fn start(config: ServerConfig, registry: ProfileRegistry) -> std::io::Result<ServerHandle> {
        let logger = Logger::new(config.log_level, config.log_buffer);
        match &config.log_sink {
            LogSink::None => {}
            LogSink::Stderr => logger.stream_to_stderr(),
            LogSink::File(path) => logger.stream_to_file(path)?,
        }
        // One trace id ties every boot-lifecycle log line together.
        let boot_trace = cc_trace::gen_id();
        let monitors = MonitorSet::new();
        let metrics = Metrics::new();
        let durability = match &config.state_dir {
            Some(dir) => Some(Durability::new(dir)?),
            None => None,
        };
        if let Some(d) = &durability {
            for note in d.boot(&registry, &monitors, &metrics) {
                logger.info(boot_trace, "", format!("cc_server state: {note}"));
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let autosave = config.autosave.filter(|_| durability.is_some());
        let self_watch = config.self_watch.clone();
        let role = config.role;
        let fleet = crate::fleet::FleetState::new(
            role,
            config.shard_addrs.clone(),
            config.export_cap,
            config.pull_interval,
        );
        if role == crate::fleet::Role::Shard {
            // Boot-restored monitors must export too — arm their logs
            // before the first connection can pull deltas.
            let cap = fleet.export_cap();
            for name in monitors.names() {
                if let Some(entry) = monitors.get(&name) {
                    entry.with_monitor(|m| m.set_export_cap(cap));
                }
            }
        }
        let shared = Arc::new(Shared {
            registry,
            monitors,
            metrics,
            durability,
            config,
            shutdown: AtomicBool::new(false),
            logger,
            selfwatch: SelfWatchState::new(),
            fleet,
        });
        let core = Core::start(listener, shared.clone(), workers)?;
        shared.logger.info(
            boot_trace,
            "",
            format!(
                "cc_server listening on http://{addr} (io epoll, {workers} worker{})",
                if workers == 1 { "" } else { "s" }
            ),
        );
        let autosaver = autosave.map(|interval| {
            let shared = shared.clone();
            std::thread::spawn(move || autosave_loop(&shared, interval))
        });
        let sampler = self_watch.map(|cfg| {
            shared.logger.info(
                boot_trace,
                "",
                format!(
                    "self-watch sampling every {:?} (warmup {}, window {}, patience {})",
                    cfg.interval, cfg.warmup, cfg.window, cfg.patience
                ),
            );
            let shared = shared.clone();
            std::thread::spawn(move || crate::selfwatch::sampler_loop(&shared))
        });
        let puller = (role == crate::fleet::Role::Coordinator && !shared.fleet.shards().is_empty())
            .then(|| {
                shared.logger.info(
                    boot_trace,
                    "",
                    format!(
                        "fleet coordinator polling {} shard(s) every {:?}",
                        shared.fleet.shard_count(),
                        shared.fleet.pull_interval()
                    ),
                );
                let shared = shared.clone();
                std::thread::spawn(move || crate::fleet::pull_loop(&shared.fleet, &shared.shutdown))
            });
        Ok(ServerHandle { addr, shared, core, autosaver, sampler, puller })
    }
}

impl ServerHandle {
    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The profile registry (e.g. to trigger reloads in-process).
    pub fn registry(&self) -> &ProfileRegistry {
        &self.shared.registry
    }

    /// The online-monitor registry (`/v1/ingest` streams land here).
    pub fn monitors(&self) -> &MonitorSet {
        &self.shared.monitors
    }

    /// The server metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The structured logger (ring + optional stream).
    pub fn logger(&self) -> &Logger {
        &self.shared.logger
    }

    /// Self-watch sampler state (all zeros when self-watch is off).
    pub fn self_watch(&self) -> &SelfWatchState {
        &self.shared.selfwatch
    }

    /// The fleet role/membership state (standalone unless configured).
    pub fn fleet(&self) -> &crate::fleet::FleetState {
        &self.shared.fleet
    }

    /// Whether a state directory is configured (durable mode).
    pub fn durable(&self) -> bool {
        self.shared.durability.is_some()
    }

    /// Whether boot restored a state snapshot.
    pub fn restored(&self) -> bool {
        self.shared.durability.as_ref().is_some_and(Durability::restored)
    }

    /// Writes a state snapshot now (same as `POST /v1/snapshot`).
    ///
    /// # Errors
    /// `None` when no state directory is configured; otherwise the save
    /// result.
    pub fn save_state(&self) -> Option<Result<crate::state::SaveReport, cc_state::StateError>> {
        self.shared
            .durability
            .as_ref()
            .map(|d| d.save(&self.shared.registry, &self.shared.monitors, &self.shared.metrics))
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// drop idle connections, join every thread — then write a final
    /// state snapshot (durable mode), after the last request has
    /// settled, so the snapshot reflects everything the daemon served.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.core.wake();
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection; harmless if the acceptor already exited. A
        // wildcard bind is not connectable on every platform — aim the
        // wake-up at loopback on the bound port instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                std::net::IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        self.core.join();
        if let Some(a) = self.autosaver {
            let _ = a.join();
        }
        if let Some(s) = self.sampler {
            let _ = s.join();
        }
        if let Some(p) = self.puller {
            let _ = p.join();
        }
        if let Some(d) = &self.shared.durability {
            match d.save(&self.shared.registry, &self.shared.monitors, &self.shared.metrics) {
                Ok(report) => self.shared.logger.info(
                    0,
                    "",
                    format!(
                        "cc_server state: saved {} ({} bytes, {} monitor{})",
                        report.path.display(),
                        report.bytes,
                        report.monitors,
                        if report.monitors == 1 { "" } else { "s" }
                    ),
                ),
                Err(e) => {
                    self.shared.logger.error(
                        0,
                        "",
                        format!("cc_server state: final snapshot failed: {e}"),
                    );
                }
            }
        }
    }
}

/// Periodic state saves. Sleeps in short ticks so shutdown is noticed
/// promptly; a failed save is logged and retried next interval (the
/// previous snapshot file stays intact — atomic replace).
fn autosave_loop(shared: &Shared, interval: Duration) {
    let tick = Duration::from_millis(100).min(interval);
    let mut last_save = Instant::now();
    loop {
        std::thread::sleep(tick);
        if shared.shutdown.load(Ordering::SeqCst) {
            // The final snapshot is shutdown's job (after workers quiesce).
            return;
        }
        if last_save.elapsed() < interval {
            continue;
        }
        if let Some(d) = &shared.durability {
            if let Err(e) = d.save(&shared.registry, &shared.monitors, &shared.metrics) {
                shared.logger.error(0, "", format!("cc_server state: autosave failed: {e}"));
            }
        }
        last_save = Instant::now();
    }
}

/// Routes one request with panic containment — a handler panic answers
/// `500` instead of killing the calling compute worker. `trace_id` tags any pipeline spans the
/// handler records (0 when tracing is off).
pub(crate) fn execute(
    req: &crate::http::Request,
    shared: &Shared,
    trace_id: u64,
) -> (Endpoint, Response) {
    catch_unwind(AssertUnwindSafe(|| {
        crate::api::route(
            req,
            &crate::api::RouteCtx {
                registry: &shared.registry,
                monitors: &shared.monitors,
                metrics: &shared.metrics,
                durability: shared.durability.as_ref(),
                logger: &shared.logger,
                self_watch: shared.config.self_watch.as_ref(),
                self_state: &shared.selfwatch,
                trace_buffer: shared.config.trace_buffer,
                fleet: &shared.fleet,
            },
            trace_id,
        )
    }))
    .unwrap_or_else(|_| (Endpoint::Other, Response::error(500, "handler panicked")))
}
