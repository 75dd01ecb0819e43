//! CPU clocks, and the reference that measures how fast the host runs
//! right now.
//!
//! On a VM that shares its host, the CPU time of a fixed piece of work
//! drifts with the neighbours' load and the host's state: the same
//! request can cost twice the CPU an hour later. [`Reference`] times a
//! fixed piece of work that does not belong to the program (one-byte
//! writes and reads through a Unix socket pair, on one thread: the system
//! calls every request also makes), so the benchmark can report a
//! request's CPU time relative to it.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of this process, all threads (exited ones included).
/// Time the hypervisor stole from the VM and time spent waiting for a
/// CPU are not in it.
pub fn process_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread.
pub fn thread_seconds() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Round trips in one [`Reference::measure`].
pub const ROUND_TRIPS: usize = 2000;

/// The CPU time one round trip is scaled to: a round figure near what it
/// cost on the 2-vCPU VM (Intel Xeon, Linux 6.18) the benchmark was tuned
/// on, 0.74–0.79 µs while that host was fast.
pub const NOMINAL_ROUND_TRIP_S: f64 = 1e-6;

/// `cpu_seconds` of work, measured while [`Reference::measure`] took
/// `reference_seconds`, scaled to a host on which one round trip costs
/// [`NOMINAL_ROUND_TRIP_S`]: what the work would cost there, when it and
/// the reference slow down alike with the host.
pub fn scale(cpu_seconds: f64, reference_seconds: f64) -> f64 {
    cpu_seconds * NOMINAL_ROUND_TRIP_S * ROUND_TRIPS as f64 / reference_seconds
}

/// Both ends of a Unix socket pair. One thread writes into one end and
/// reads back from the other, so no other thread, and no other CPU, is
/// involved: the cost does not depend on where the scheduler puts it.
pub struct Reference {
    tx: UnixStream,
    rx: UnixStream,
}

impl Reference {
    pub fn start() -> std::io::Result<Reference> {
        let (tx, rx) = UnixStream::pair()?;
        Ok(Reference { tx, rx })
    }

    /// CPU seconds of [`ROUND_TRIPS`] one-byte write + read pairs.
    pub fn measure(&mut self) -> std::io::Result<f64> {
        let started = thread_seconds();
        let mut byte = [1u8; 1];
        for _ in 0..ROUND_TRIPS {
            self.tx.write_all(&byte)?;
            self.rx.read_exact(&mut byte)?;
        }
        Ok(thread_seconds() - started)
    }
}
