//! Deterministic input generators. Everything the daemon receives is
//! derived from the run's `--seed` through [`stream_seed`], so one seed
//! always yields the same training frames, batches and request bytes.

use cc_datagen::{airlines, AirlinesConfig, FlightKind};
use cc_frame::DataFrame;

/// Rows per `check-*` request: the paper's airlines scenario served in
/// 4096-row batches.
pub const CHECK_BATCH_ROWS: usize = 4096;

/// Rows per ingest request, equal to the monitor's tumbling window so
/// every request closes exactly one window.
pub const INGEST_BATCH_ROWS: usize = 512;

/// Distinct batches each client cycles through. Replies to a batch are
/// deterministic, so a small pool lets every reply be compared with a
/// reply verified against the library before the clock starts.
pub const BATCHES_PER_CLIENT: usize = 8;

/// Percentage of overnight flights in served airlines batches (the
/// paper's Fig. 4 "Mixed" split that violates the daytime profile).
const OVERNIGHT_PCT: u8 = 10;

/// Regime labels of the telemetry stream.
const REGIMES: [&str; 3] = ["idle", "cruise", "burst"];

/// Per-regime slope and offset of the `load` channel: the invariant a
/// disjunctive (per-regime) constraint captures.
const REGIME_LINES: [(f64, f64); 3] = [(0.5, 2.0), (1.5, -4.0), (3.0, 10.0)];

/// A splitmix64 generator: small, fast, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.uniform();
        let v = self.uniform();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Derives the seed of one named input stream from the run seed, so
/// adding a stream never shifts the others.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    r.next_u64()
}

/// The airlines training frame: daytime flights only (the profile the
/// paper's trusted-ML scenario learns).
pub fn airlines_train(seed: u64, rows: usize) -> DataFrame {
    airlines(&AirlinesConfig { rows, kind: FlightKind::Daytime, seed: stream_seed(seed, 1) })
}

/// One client's pool of served airlines batches (about 10 % overnight).
pub fn airlines_batches(seed: u64, client: usize) -> Vec<DataFrame> {
    (0..BATCHES_PER_CLIENT)
        .map(|k| {
            airlines(&AirlinesConfig {
                rows: CHECK_BATCH_ROWS,
                kind: FlightKind::Mixed(OVERNIGHT_PCT),
                seed: stream_seed(seed, 1000 + (client * BATCHES_PER_CLIENT + k) as u64),
            })
        })
        .collect()
}

/// A stationary i.i.d. telemetry stream: four numeric channels and a
/// categorical `regime`. `total = base + 2·aux + 1` holds exactly on
/// every row; `load = slope(regime)·base + offset(regime)` holds per
/// regime up to small noise.
pub fn telemetry(rows: usize, stream_seed: u64) -> DataFrame {
    let mut rng = Rng::new(stream_seed);
    let (mut base, mut aux, mut total, mut load) =
        (Vec::with_capacity(rows), Vec::with_capacity(rows), Vec::with_capacity(rows), Vec::new());
    let mut regime = Vec::with_capacity(rows);
    for _ in 0..rows {
        let r = (rng.next_u64() % REGIMES.len() as u64) as usize;
        let b = 10.0 + 5.0 * rng.normal();
        let a = 3.0 * rng.normal();
        let (slope, offset) = REGIME_LINES[r];
        base.push(b);
        aux.push(a);
        total.push(b + 2.0 * a + 1.0);
        load.push(slope * b + offset + 0.1 * rng.normal());
        regime.push(REGIMES[r]);
    }
    let mut df = DataFrame::new();
    df.push_numeric("base", base).expect("fresh column");
    df.push_numeric("aux", aux).expect("fresh column");
    df.push_numeric("total", total).expect("fresh column");
    df.push_numeric("load", load).expect("fresh column");
    df.push_categorical("regime", &regime).expect("fresh column");
    df
}

/// The telemetry training frame the monitors' profile is learned from.
pub fn telemetry_train(seed: u64, rows: usize) -> DataFrame {
    telemetry(rows, stream_seed(seed, 2))
}

/// One monitor's pool of 512-row ingest batches.
pub fn telemetry_batches(seed: u64, monitor: usize) -> Vec<DataFrame> {
    (0..BATCHES_PER_CLIENT)
        .map(|k| {
            let stream = 5000 + (monitor * BATCHES_PER_CLIENT + k) as u64;
            telemetry(INGEST_BATCH_ROWS, stream_seed(seed, stream))
        })
        .collect()
}
