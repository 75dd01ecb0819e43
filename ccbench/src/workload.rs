//! The four workloads: what each sends, how its replies are checked,
//! and the correctness gates that run after the clock stops.

use crate::client::{self, Client, COLUMNAR};
use crate::inputs;
use crate::traffic::{LoopResult, Stream};
use cc_frame::DataFrame;
use cc_monitor::{MonitorConfig, MonitorSet, OnlineMonitor, WindowSpec};
use cc_server::{Durability, Metrics, ProfileRegistry, ServerHandle};
use conformance::{CompiledProfile, ConformanceProfile};
use serde::Serialize;
use serde_json::Value;
use std::net::SocketAddr;
use std::path::Path;

/// Monitors in the `snapshot` workload's state directory.
pub const SNAPSHOT_MONITORS: usize = 64;

/// Batches ingested into each snapshot monitor while populating: twice
/// the resynthesis ring (8 windows), so every ring is full.
const POPULATE_BATCHES: usize = 16;

/// Warmup ingests per client before the clock: past the detector's
/// 8-window calibration, so timed windows are scored by an armed
/// detector.
const INGEST_WARMUP: usize = 16;

/// Warmup snapshots before the clock.
const SNAPSHOT_WARMUP: usize = 4;

/// Names of reserved (daemon-owned) monitors start with this.
const RESERVED_PREFIX: &str = "__";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CheckCcol,
    CheckJson,
    IngestCcol,
    Snapshot,
}

pub const WORKLOADS: [Workload; 4] =
    [Workload::CheckCcol, Workload::CheckJson, Workload::IngestCcol, Workload::Snapshot];

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CheckCcol => "check-ccol",
            Workload::CheckJson => "check-json",
            Workload::IngestCcol => "ingest-ccol",
            Workload::Snapshot => "snapshot",
        }
    }

    /// Closed-loop clients: two, except one for `snapshot` (snapshots
    /// serialize on the daemon's save lock).
    pub fn clients(self) -> usize {
        match self {
            Workload::Snapshot => 1,
            _ => 2,
        }
    }

    /// The daemon endpoint the timed requests hit.
    pub fn endpoint(self) -> cc_server::Endpoint {
        match self {
            Workload::CheckCcol | Workload::CheckJson => cc_server::Endpoint::Check,
            Workload::IngestCcol => cc_server::Endpoint::Ingest,
            Workload::Snapshot => cc_server::Endpoint::Snapshot,
        }
    }

    /// Whether requests carry the binary columnar encoding.
    pub fn columnar(self) -> bool {
        matches!(self, Workload::CheckCcol | Workload::IngestCcol)
    }
}

/// Sizes; `smoke` shrinks them for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub airlines_train_rows: usize,
    pub telemetry_train_rows: usize,
    pub snapshot_monitors: usize,
    pub setup_reps: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        airlines_train_rows: 200_000,
        telemetry_train_rows: 50_000,
        snapshot_monitors: SNAPSHOT_MONITORS,
        setup_reps: 21,
    };
    pub const SMOKE: Scale = Scale {
        airlines_train_rows: 20_000,
        telemetry_train_rows: 5_000,
        snapshot_monitors: 4,
        setup_reps: 2,
    };
}

/// The generated inputs of one run. Building them is not timed.
pub struct Inputs {
    pub workload: Workload,
    pub train: DataFrame,
    /// Per client: the batches its requests carry (empty for snapshot).
    pub pools: Vec<Vec<DataFrame>>,
    /// Per client: the rendered requests, parallel to `pools`.
    pub requests: Vec<Vec<Vec<u8>>>,
    /// Per snapshot monitor: the batches that populate it.
    pub populate: Vec<Vec<DataFrame>>,
}

/// The ingest target of client `c`.
pub fn monitor_name(c: usize) -> String {
    format!("m{c}")
}

fn ingest_target(name: &str) -> String {
    format!("/v2/monitors/{name}/ingest?window={w}&detector=cusum", w = inputs::INGEST_BATCH_ROWS)
}

/// The monitor configuration `ingest_target`'s query asks the daemon
/// for (the oracle builds the same one).
pub fn ingest_config() -> MonitorConfig {
    let w = inputs::INGEST_BATCH_ROWS;
    MonitorConfig {
        spec: WindowSpec::new(w, w).expect("tumbling window"),
        ..MonitorConfig::default()
    }
}

fn ccol_request(target: &str, df: &DataFrame) -> Vec<u8> {
    let body = cc_server::wire::encode_frame(df);
    client::render("POST", target, &[("content-type", COLUMNAR), ("accept", COLUMNAR)], &body)
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let clients = workload.clients();
        let (train, pools) = match workload {
            Workload::CheckCcol | Workload::CheckJson => (
                inputs::airlines_train(seed, scale.airlines_train_rows),
                (0..clients).map(|c| inputs::airlines_batches(seed, c)).collect(),
            ),
            Workload::IngestCcol => (
                inputs::telemetry_train(seed, scale.telemetry_train_rows),
                (0..clients).map(|c| inputs::telemetry_batches(seed, c)).collect(),
            ),
            Workload::Snapshot => {
                (inputs::telemetry_train(seed, scale.telemetry_train_rows), vec![Vec::new()])
            }
        };
        let requests = match workload {
            Workload::CheckCcol => pools
                .iter()
                .map(|p: &Vec<DataFrame>| {
                    p.iter().map(|df| ccol_request("/v2/check", df)).collect()
                })
                .collect(),
            Workload::CheckJson => pools
                .iter()
                .map(|p| {
                    p.iter()
                        .map(|df| {
                            let body = serde_json::to_string(&cc_server::json::columns_body(df))
                                .expect("value trees serialize");
                            client::render(
                                "POST",
                                "/v2/check",
                                &[("content-type", "application/json")],
                                body.as_bytes(),
                            )
                        })
                        .collect()
                })
                .collect(),
            Workload::IngestCcol => pools
                .iter()
                .enumerate()
                .map(|(c, p)| {
                    let target = ingest_target(&monitor_name(c));
                    p.iter().map(|df| ccol_request(&target, df)).collect()
                })
                .collect(),
            Workload::Snapshot => vec![vec![client::render("POST", "/v2/snapshot", &[], b"")]],
        };
        let populate = match workload {
            Workload::Snapshot => (0..scale.snapshot_monitors)
                .map(|m| inputs::telemetry_batches(seed, 100 + m))
                .collect(),
            _ => Vec::new(),
        };
        Inputs { workload, train, pools, requests, populate }
    }

    /// Rows one request answers: batch rows, or for `snapshot` the
    /// monitor states one snapshot persists.
    pub fn rows_per_request(&self) -> usize {
        match self.workload {
            Workload::CheckCcol | Workload::CheckJson => inputs::CHECK_BATCH_ROWS,
            Workload::IngestCcol => inputs::INGEST_BATCH_ROWS,
            Workload::Snapshot => self.populate.len(),
        }
    }

    /// Rows the populated state directory holds (snapshot only).
    pub fn populated_rows(&self) -> usize {
        self.populate.len() * POPULATE_BATCHES * inputs::INGEST_BATCH_ROWS
    }
}

/// Fills the `snapshot` workload's state directory through the daemon's
/// own ingest API, then shuts the daemon down gracefully, which writes
/// the snapshot. Runs before any clock starts.
pub fn populate(inputs: &Inputs, profile_dir: &Path, state_dir: &Path) -> Result<(), String> {
    crate::daemon::write_profile(&inputs.train, profile_dir)?;
    let handle = crate::daemon::start(profile_dir, Some(state_dir))?;
    let result = (|| {
        let mut conn = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
        for (m, pool) in inputs.populate.iter().enumerate() {
            let target = ingest_target(&monitor_name(m));
            for i in 0..POPULATE_BATCHES {
                let reply = conn
                    .round_trip(&ccol_request(&target, &pool[i % pool.len()]))
                    .map_err(|e| e.to_string())?;
                if reply.status != 200 {
                    return Err(format!("populate ingest answered {}", reply.status));
                }
            }
        }
        Ok(())
    })();
    handle.shutdown();
    result
}

/// The serving profile as the registry file holds it, parsed and
/// compiled here, independently of the daemon.
pub fn load_profile(profile_dir: &Path) -> Result<ConformanceProfile, String> {
    let text = std::fs::read_to_string(profile_dir.join(crate::daemon::PROFILE_FILE))
        .map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

/// Opens the clients and runs the warmup off the clock. For `check-*`
/// every batch's first reply is verified bit-for-bit against
/// `CompiledProfile::violations` and becomes the reply every timed
/// request must repeat exactly.
pub fn connect_and_warm(
    inputs: &Inputs,
    addr: SocketAddr,
    plan: &CompiledProfile,
) -> Result<Vec<Stream>, String> {
    let mut streams = Vec::new();
    for requests in &inputs.requests {
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        streams.push(Stream::new(client, requests.clone()));
    }
    for (c, stream) in streams.iter_mut().enumerate() {
        match inputs.workload {
            Workload::CheckCcol | Workload::CheckJson => {
                let mut expected = Vec::new();
                for df in &inputs.pools[c] {
                    let (status, body) = stream.send_next()?;
                    if status != 200 {
                        return Err(format!("warmup check answered {status}"));
                    }
                    verify_check_reply(inputs.workload, plan, df, &body)?;
                    expected.push(body);
                }
                stream.expected = Some(expected);
            }
            Workload::IngestCcol | Workload::Snapshot => {
                let n = if inputs.workload == Workload::Snapshot {
                    stream.keep_replies = true;
                    SNAPSHOT_WARMUP
                } else {
                    INGEST_WARMUP
                };
                for _ in 0..n {
                    let (status, body) = stream.send_next()?;
                    if status != 200 {
                        return Err(format!(
                            "warmup answered {status}: {}",
                            String::from_utf8_lossy(&body)
                        ));
                    }
                }
            }
        }
    }
    Ok(streams)
}

/// Decodes a one-column CCOL `violations` reply without the daemon's
/// codec (magic, version, flags, column count, row count, then one
/// numeric column).
fn decode_ccol_violations(bytes: &[u8]) -> Result<Vec<f64>, String> {
    let u32_at = |o: usize| bytes.get(o..o + 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
    if bytes.get(..4) != Some(b"CCOL".as_slice()) || u32_at(8) != Some(1) {
        return Err("reply is not a one-column CCOL frame".into());
    }
    let rows = bytes
        .get(12..20)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()) as usize)
        .ok_or("truncated CCOL header")?;
    let name_len = u32_at(21).ok_or("truncated CCOL column")? as usize;
    if bytes.get(20) != Some(&0) || bytes.get(25..25 + name_len) != Some(b"violations".as_slice()) {
        return Err("reply column is not numeric 'violations'".into());
    }
    let plane = &bytes[25 + name_len..];
    if rows.checked_mul(8) != Some(plane.len()) {
        return Err(format!("CCOL plane holds {} bytes for {rows} rows", plane.len()));
    }
    Ok(plane.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect())
}

fn reply_violations(workload: Workload, body: &[u8]) -> Result<Vec<f64>, String> {
    if workload.columnar() {
        return decode_ccol_violations(body);
    }
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_owned())?;
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    match cc_server::json::get(&value, "violations") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Number(n) => Ok(*n),
                other => Err(format!("non-numeric violation {other:?}")),
            })
            .collect(),
        _ => Err("reply lacks a violations array".into()),
    }
}

/// A `check-*` reply must carry exactly `CompiledProfile::violations`
/// of the batch, bit for bit.
pub fn verify_check_reply(
    workload: Workload,
    plan: &CompiledProfile,
    df: &DataFrame,
    body: &[u8],
) -> Result<(), String> {
    let got = reply_violations(workload, body)?;
    let want = plan.violations(df).map_err(|e| e.to_string())?;
    let same =
        got.len() == want.len() && got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err("reply violations differ from CompiledProfile::violations".into())
    }
}

/// The gates run after the clock stops. Returns how many replies
/// failed plus a message per failure.
pub fn after_clock_gates(
    inputs: &Inputs,
    handle: &ServerHandle,
    streams: &[Stream],
    result: &LoopResult,
    profile_dir: &Path,
    state_dir: Option<&Path>,
    restored_rows: usize,
) -> (usize, Vec<String>) {
    let mut failed = 0;
    let mut errors = Vec::new();
    let profile = match load_profile(profile_dir) {
        Ok(p) => p,
        Err(e) => return (1, vec![format!("cannot reload the profile: {e}")]),
    };
    match inputs.workload {
        Workload::CheckCcol | Workload::CheckJson => {
            let plan = CompiledProfile::compile(&profile);
            for (c, run) in result.clients.iter().enumerate() {
                for (idx, body) in &run.samples {
                    if let Err(e) =
                        verify_check_reply(inputs.workload, &plan, &inputs.pools[c][*idx], body)
                    {
                        failed += 1;
                        errors.push(format!("client {c} sampled reply {idx}: {e}"));
                    }
                }
            }
        }
        Workload::IngestCcol => {
            // One oracle per client stream, fed on its own thread.
            let verdicts: Vec<Result<(), String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = streams
                    .iter()
                    .enumerate()
                    .map(|(c, stream)| {
                        let (pool, profile) = (&inputs.pools[c], &profile);
                        scope.spawn(move || verify_monitor(handle.addr(), c, stream, pool, profile))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("oracle thread")).collect()
            });
            for e in verdicts.into_iter().filter_map(Result::err) {
                failed += 1;
                errors.push(e);
            }
        }
        Workload::Snapshot => {
            let state_dir = state_dir.expect("snapshot has a state dir");
            let replies = &result.clients[0].samples;
            let populated = inputs.populate.len();
            if let Err(e) = verify_snapshot(handle, profile_dir, state_dir, replies, populated) {
                failed += 1;
                errors.push(e);
            }
        }
    }
    // Snapshots check no rows; the counter then holds what was restored.
    let sent_rows = match inputs.workload {
        Workload::Snapshot => 0,
        _ => streams.iter().map(|s| s.acked).sum::<usize>() * inputs.rows_per_request(),
    };
    let want = (sent_rows + restored_rows) as u64;
    match crate::daemon::rows_checked(handle.addr()) {
        Ok(got) if got == want => {}
        Ok(got) => {
            failed += 1;
            errors.push(format!(
                "daemon counted {got} rows checked, the benchmark sent {want} (warmup + timed{})",
                if restored_rows > 0 { " + restored" } else { "" }
            ));
        }
        Err(e) => {
            failed += 1;
            errors.push(e);
        }
    }
    (failed, errors)
}

/// The daemon's monitor status must equal an in-process `OnlineMonitor`
/// fed the same batches in the same order.
fn verify_monitor(
    addr: SocketAddr,
    c: usize,
    stream: &Stream,
    pool: &[DataFrame],
    profile: &ConformanceProfile,
) -> Result<(), String> {
    let name = monitor_name(c);
    let mut oracle =
        OnlineMonitor::new(profile.clone(), ingest_config()).map_err(|e| e.to_string())?;
    for seq in 0..stream.acked {
        oracle.ingest(&pool[seq % pool.len()]).map_err(|e| e.to_string())?;
    }
    let (status, body) = client::one_shot(addr, "GET", &format!("/v2/monitors/{name}"))
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("GET /v2/monitors/{name} answered {status}"));
    }
    let text = std::str::from_utf8(&body).map_err(|_| "status is not UTF-8".to_owned())?;
    let mut live: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if let Value::Object(pairs) = &mut live {
        pairs.retain(|(k, _)| k != "monitor");
    }
    let live = serde_json::to_string(&live).expect("value trees serialize");
    let want = serde_json::to_string(&oracle.status().to_value()).expect("value trees serialize");
    if live == want {
        Ok(())
    } else {
        Err(format!("monitor {name}: daemon status {live} != oracle {want}"))
    }
}

/// The snapshot file was removed before the clock started, so it exists
/// only if a timed `POST /v2/snapshot` wrote it. Every reply must name
/// that file and count at least the populated monitors; the last reply
/// must describe the file as it is (size, monitor count). Restored
/// in-process, the file must equal the live monitors' states (the
/// daemon's own `__` monitors excepted: they keep sampling after the
/// last snapshot).
fn verify_snapshot(
    handle: &ServerHandle,
    profile_dir: &Path,
    state_dir: &Path,
    replies: &[(usize, Vec<u8>)],
    populated: usize,
) -> Result<(), String> {
    let path = state_dir.join(cc_server::STATE_FILE);
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("no snapshot file after the clock ({e}): no timed request wrote one"))?
        .len();
    let want_path = path.display().to_string();
    let mut last = None;
    for (n, (_, body)) in replies.iter().enumerate() {
        let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_owned())?;
        let reply: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let field = |k| cc_server::json::get(&reply, k);
        let number = |k| match field(k) {
            Some(Value::Number(v)) => Ok(*v as u64),
            _ => Err(format!("snapshot reply {n} lacks '{k}'")),
        };
        let (bytes, monitors) = (number("bytes")?, number("monitors")?);
        if field("path").and_then(cc_server::json::as_str) != Some(want_path.as_str()) {
            return Err(format!("snapshot reply {n} names another file: {text}"));
        }
        if monitors < populated as u64 {
            return Err(format!("snapshot reply {n} saved {monitors} monitors of {populated}"));
        }
        last = Some((bytes, monitors));
    }
    let (last_bytes, last_monitors) = last.ok_or("no timed snapshot reply")?;
    if last_bytes != file_bytes {
        return Err(format!("last reply says {last_bytes} bytes, the file holds {file_bytes}"));
    }
    let restored = MonitorSet::new();
    let registry = ProfileRegistry::from_dir(profile_dir)?;
    let durability = Durability::new(state_dir).map_err(|e| e.to_string())?;
    let notes = durability.boot(&registry, &restored, &Metrics::new());
    if !durability.restored() {
        return Err(format!("last snapshot did not restore: {notes:?}"));
    }
    if restored.states().len() as u64 != last_monitors {
        return Err(format!(
            "last reply says {last_monitors} monitors, the file restores {}",
            restored.states().len()
        ));
    }
    let image = |set: &MonitorSet| -> Vec<(String, String)> {
        let mut states: Vec<(String, String)> = set
            .states()
            .into_iter()
            .filter(|(n, _)| !n.starts_with(RESERVED_PREFIX))
            .map(|(n, s)| (n, serde_json::to_string(&s.to_value()).expect("serializes")))
            .collect();
        states.sort();
        states
    };
    let (live, back) = (image(handle.monitors()), image(&restored));
    if live.is_empty() {
        return Err("the daemon holds no monitors".into());
    }
    if live == back {
        Ok(())
    } else {
        Err(format!(
            "restored snapshot differs from the live monitors ({} live, {} restored)",
            live.len(),
            back.len()
        ))
    }
}
