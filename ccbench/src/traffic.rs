//! The closed-loop load generator: each client sends its next request
//! only after the previous reply has fully arrived, the way a trusted-ML
//! caller or a stream producer waits for its verdict.

use crate::client::Client;
use crate::cpu;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One client's connection and the requests it cycles through.
pub struct Stream {
    pub client: Client,
    /// Pre-rendered requests; request `seq` sends `requests[seq % len]`.
    pub requests: Vec<Vec<u8>>,
    /// The verified reply body per request, when replies are
    /// deterministic (`check-*`). Every timed reply must equal it.
    pub expected: Option<Vec<Vec<u8>>>,
    /// Keep every timed reply for the after-the-clock gates, not only the
    /// first per request index (`snapshot`: one request, varying replies).
    pub keep_replies: bool,
    /// Requests sent so far, warmup included.
    pub sent: usize,
    /// Requests answered 2xx so far (what the daemon counted).
    pub acked: usize,
}

impl Stream {
    pub fn new(client: Client, requests: Vec<Vec<u8>>) -> Self {
        Stream { client, requests, expected: None, keep_replies: false, sent: 0, acked: 0 }
    }

    /// Sends the next request off the clock and returns status and body.
    pub fn send_next(&mut self) -> Result<(u16, Vec<u8>), String> {
        let idx = self.sent % self.requests.len();
        self.sent += 1;
        let reply = self.client.round_trip(&self.requests[idx]).map_err(|e| e.to_string())?;
        if (200..300).contains(&reply.status) {
            self.acked += 1;
        }
        Ok((reply.status, reply.body.to_vec()))
    }
}

/// How long the clock runs and what it records.
pub struct LoopConfig {
    /// Measured wall time. Requests in flight when it ends complete and
    /// are counted, so every client times at least one request.
    pub seconds: f64,
    /// Keep every timed request's start and latency (the traced run's
    /// spans and ledger need them). Off, memory stays independent of
    /// how many requests the run completes, so the peak RSS is the
    /// daemon's and not the benchmark's bookkeeping.
    pub timings: bool,
    /// Corrupt the body of this timed reply on client 0 before it is
    /// checked (the self-test's proof that bad replies count as failed).
    pub corrupt_reply: Option<usize>,
}

/// One client's timed requests.
#[derive(Default)]
pub struct ClientRun {
    /// Sequence number of the first timed request (= warmup count).
    pub first_seq: usize,
    /// Timed requests answered.
    pub requests: usize,
    /// With [`LoopConfig::timings`], per timed request: start offset from
    /// the clock start and latency (send to last reply byte), in seconds.
    pub timings: Vec<(f64, f64)>,
    pub failed: usize,
    pub error: Option<String>,
    /// The first timed reply body for each request index (every timed
    /// reply with [`Stream::keep_replies`]), kept for the after-the-clock
    /// gates.
    pub samples: Vec<(usize, Vec<u8>)>,
}

/// Seconds between two CPU samples of the timed phase.
pub const SAMPLE_SECONDS: f64 = 1.0;

/// The process at one instant of the timed phase.
#[derive(Clone, Copy, Debug)]
pub struct CpuSample {
    /// CPU seconds of the host-speed reference, measured just before
    /// `cpu` was read ([`cpu::Reference::measure`]; NaN if it failed).
    pub reference: f64,
    /// CPU seconds of every thread of the process: the daemon's workers,
    /// reactor and self-watch, the clients and the reference.
    pub cpu: f64,
    /// Timed requests answered so far, all clients.
    pub requests: usize,
}

/// The whole timed phase.
pub struct LoopResult {
    pub wall_seconds: f64,
    pub clients: Vec<ClientRun>,
    /// Taken every [`SAMPLE_SECONDS`] while the clients run, first at the
    /// clock start, last when the clock ends.
    pub cpu_samples: Vec<CpuSample>,
}

impl LoopResult {
    pub fn latencies(&self) -> Vec<f64> {
        self.clients.iter().flat_map(|c| c.timings.iter().map(|t| t.1)).collect()
    }

    /// Latencies of the `n` timed requests that started last.
    pub fn latest_latencies(&self, n: usize) -> Vec<f64> {
        let mut all: Vec<(f64, f64)> =
            self.clients.iter().flat_map(|c| c.timings.iter().copied()).collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        all[all.len().saturating_sub(n)..].iter().map(|t| t.1).collect()
    }

    pub fn requests(&self) -> usize {
        self.clients.iter().map(|c| c.requests).sum()
    }

    pub fn failed(&self) -> usize {
        self.clients.iter().map(|c| c.failed).sum()
    }

    pub fn errors(&self) -> Vec<String> {
        self.clients.iter().filter_map(|c| c.error.clone()).collect()
    }

    /// Per sample interval that answered any request: the process CPU
    /// seconds per answered request, the reference's own CPU time taken
    /// out, and the mean reference measured at the interval's two ends.
    fn intervals(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.cpu_samples.windows(2).filter(|w| w[1].requests > w[0].requests).map(|w| {
            let requests = (w[1].requests - w[0].requests) as f64;
            let per_request = (w[1].cpu - w[0].cpu - w[1].reference) / requests;
            (per_request, (w[0].reference + w[1].reference) / 2.0)
        })
    }

    /// CPU seconds per answered request, one value per sample interval.
    pub fn cpu_per_request(&self) -> Vec<f64> {
        self.intervals().map(|(per_request, _)| per_request).collect()
    }

    /// [`Self::cpu_per_request`], each interval scaled by its reference
    /// ([`cpu::scale`]).
    pub fn norm_cpu_per_request(&self) -> Vec<f64> {
        self.intervals().map(|(per_request, reference)| cpu::scale(per_request, reference)).collect()
    }

    /// Median CPU seconds of one reference round trip over the run.
    pub fn round_trip_cpu(&self) -> f64 {
        let per_trip: Vec<f64> =
            self.cpu_samples.iter().map(|s| s.reference / cpu::ROUND_TRIPS as f64).collect();
        crate::ledger::p50(&per_trip)
    }
}

/// Runs every stream closed-loop on its own thread for the configured
/// time. Every [`SAMPLE_SECONDS`] the calling thread measures the
/// host-speed reference and samples the process's CPU time. Any failure
/// stops all clients: the run is then reported as failed, not measured.
pub fn closed_loop(
    streams: &mut [Stream],
    reference: &mut cpu::Reference,
    cfg: &LoopConfig,
) -> LoopResult {
    let stop = AtomicBool::new(false);
    let answered = AtomicUsize::new(0);
    let barrier = Barrier::new(streams.len() + 1);
    // One epoch for every client, so timings from all clients interleave
    // on one time axis.
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let (stop, answered, barrier) = (&stop, &answered, &barrier);
                let corrupt = if c == 0 { cfg.corrupt_reply } else { None };
                let timings = cfg.timings;
                scope.spawn(move || {
                    barrier.wait();
                    drive(stream, epoch, stop, answered, timings, corrupt)
                })
            })
            .collect();
        let mut sample = || CpuSample {
            reference: reference.measure().unwrap_or(f64::NAN),
            cpu: cpu::process_seconds(),
            requests: answered.load(Ordering::SeqCst),
        };
        barrier.wait();
        let started = Instant::now();
        let mut cpu_samples = vec![sample()];
        let mut next_sample = SAMPLE_SECONDS.min(cfg.seconds);
        while !stop.load(Ordering::SeqCst) {
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed >= next_sample {
                // The last sample too is taken under load, before the
                // clients stop.
                cpu_samples.push(sample());
                if elapsed >= cfg.seconds {
                    break;
                }
                next_sample = (next_sample + SAMPLE_SECONDS).min(cfg.seconds);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        let clients = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        LoopResult { wall_seconds: started.elapsed().as_secs_f64(), clients, cpu_samples }
    })
}

fn drive(
    stream: &mut Stream,
    epoch: Instant,
    stop: &AtomicBool,
    answered: &AtomicUsize,
    timings: bool,
    corrupt: Option<usize>,
) -> ClientRun {
    let pool = stream.requests.len();
    let mut run = ClientRun { first_seq: stream.sent, ..ClientRun::default() };
    let mut sampled = vec![false; pool];
    while !stop.load(Ordering::Relaxed) {
        let idx = stream.sent % pool;
        let n = run.requests;
        let started = Instant::now();
        let result = stream.client.round_trip(&stream.requests[idx]);
        let latency = started.elapsed().as_secs_f64();
        stream.sent += 1;
        let reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                run.failed += 1;
                run.error = Some(format!("request {}: {e}", stream.sent - 1));
                stop.store(true, Ordering::SeqCst);
                break;
            }
        };
        run.requests += 1;
        answered.fetch_add(1, Ordering::SeqCst);
        if timings {
            run.timings.push(((started - epoch).as_secs_f64(), latency));
        }
        let status_ok = (200..300).contains(&reply.status);
        if status_ok {
            stream.acked += 1;
        }
        let mut body = std::borrow::Cow::Borrowed(reply.body);
        if corrupt == Some(n) {
            let mut bad = body.into_owned();
            if let Some(last) = bad.last_mut() {
                *last ^= 0x01;
            }
            body = std::borrow::Cow::Owned(bad);
        }
        let matches = stream.expected.as_ref().is_none_or(|want| want[idx] == *body);
        if !(status_ok && matches) {
            run.failed += 1;
            run.error = Some(if status_ok {
                format!("request {}: reply differs from the verified reply", stream.sent - 1)
            } else {
                format!(
                    "request {}: status {}: {}",
                    stream.sent - 1,
                    reply.status,
                    String::from_utf8_lossy(&body[..body.len().min(200)])
                )
            });
            stop.store(true, Ordering::SeqCst);
            break;
        }
        if stream.keep_replies || !sampled[idx] {
            sampled[idx] = true;
            run.samples.push((idx, body.into_owned()));
        }
    }
    run
}
