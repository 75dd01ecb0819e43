//! The connection core: an edge-triggered epoll event loop (Linux).
//!
//! Raw `epoll` via direct syscalls against the libc `std` already links
//! — **no** `libc` crate, keeping the workspace dependency-free. The
//! shape is the classic reactor / compute-pool split:
//!
//! ```text
//!   acceptor (blocking accept, 503 shed at capacity)
//!       │ round-robin handoff (mailbox + eventfd wake)
//!       ▼
//!   R reactor threads ── epoll_wait, edge-triggered ──┐
//!       │  per-connection state machines:             │
//!       │  nonblocking read ─► RequestParser ─►       │
//!       │  dispatch ─► nonblocking buffered write     │
//!       ▼                                             │
//!   W compute workers ── route() with panic containment
//!       │  (CPU-bound work never blocks a reactor)    │
//!       └── Done{token, bytes} back via mailbox ──────┘
//! ```
//!
//! Each reactor owns its connections outright (a plain `HashMap` slab —
//! no cross-thread connection state, no locks on the hot path). The
//! only shared structures are the compute queue and each reactor's
//! mailbox, both touched once per request, not per byte.
//!
//! Semantics, pinned by the server test suites: keep-alive +
//! pipelining, `408` on slow-trickle requests, `413`/`431`/`505`/`501`
//! from the shared parser, `503` shedding at
//! [`MAX_PENDING_CONNECTIONS`], panic → `500`, and graceful drain —
//! fully-received requests complete (forced `connection: close`),
//! partially-received ones are dropped at shutdown. An idle keep-alive
//! connection costs a slab entry, never a compute worker.
//!
//! Why edge-triggered: one `epoll_ctl` per connection lifetime instead
//! of one per readiness change. The rules that make ET correct here:
//! always read/write to `WouldBlock` before waiting again, and defer
//! reads while a request is executing (`readable_pending`) so a
//! pipelining client cannot grow the parser buffer without bound —
//! that's backpressure, and the kernel buffer holds the bytes.

use crate::http::{Request, RequestParser, Response};
use crate::metrics::Endpoint;
use crate::server::{execute, trace_ctx, Shared, TraceCtx, TRACE_HEADER};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cap on live connections. Beyond it the acceptor answers `503` and
/// closes instead of registering without bound.
pub const MAX_PENDING_CONNECTIONS: usize = 1024;

/// Sweep cadence: how often each reactor checks its connections'
/// keep-alive, write-timeout and request-deadline clocks.
const SWEEP_TICK: Duration = Duration::from_millis(200);

/// Ceiling on how long a response write may stay blocked on a client
/// that has stopped reading — past it, the connection is dropped so no
/// reactor holds memory for it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Ceiling on how long one request may take to *arrive* in full. Bounds
/// the slow-trickle client (one byte per tick resets the idle clock but
/// not this one): past it, `408` and close.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------
// Raw syscall surface. These symbols live in the libc std already
// links; declaring them directly keeps the tree free of the `libc`
// crate while using the exact same ABI.

#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

unsafe extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// `data` value reserved for the reactor's wake-up eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// An owned epoll instance.
struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn del(&self, fd: RawFd) {
        // Best effort: the kernel also drops registrations when the fd
        // closes; an error here is not actionable.
        let mut ev = EpollEvent { events: 0, data: 0 };
        unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Waits up to `timeout_ms`, filling `events`. Returns the number
    /// ready (0 on timeout). EINTR retries internally.
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> usize {
        loop {
            let rc = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                // Unrecoverable wait failure: treat as a timeout tick;
                // the loop's shutdown polling still makes progress.
                return 0;
            }
        }
    }
}

/// A nonblocking eventfd used to wake a reactor out of `epoll_wait`.
/// Wrapped in `File` so std does the read/write syscalls.
struct EventFd {
    file: File,
}

impl EventFd {
    fn new() -> io::Result<EventFd> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { file: unsafe { File::from_raw_fd(fd) } })
    }

    fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&self.file).write(&one);
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        // Nonblocking: one read clears the counter; WouldBlock means
        // it was already clear.
        let _ = (&self.file).read(&mut buf);
    }
}

// ---------------------------------------------------------------------
// Cross-thread plumbing.

/// What lands in a reactor's mailbox.
enum Msg {
    /// A freshly accepted connection from the acceptor.
    Conn(TcpStream),
    /// A finished response from the compute pool. `trace` carries the
    /// request's trace id + endpoint label so the reactor can record
    /// the `write` phase span against the right trace.
    Done { token: u64, bytes: Vec<u8>, close: bool, trace: Option<(u64, &'static str)> },
}

/// One reactor's inbox plus the eventfd that wakes it.
struct Mailbox {
    inbox: Mutex<Vec<Msg>>,
    waker: EventFd,
}

impl Mailbox {
    fn send(&self, msg: Msg) {
        self.inbox.lock().expect("reactor lock never poisoned").push(msg);
        self.waker.wake();
    }
}

/// A routed-but-not-yet-executed request.
struct Job {
    reactor: usize,
    token: u64,
    req: Request,
    /// When the job entered the compute queue — the `queue_wait` span.
    queued: Instant,
    /// First parser activity toward this request + CPU spent parsing,
    /// recorded as the `parse` span once the endpoint label is known.
    parse_start: Instant,
    parse_spent: Duration,
    trace: Option<TraceCtx>,
}

struct ComputeState {
    jobs: VecDeque<Job>,
    /// Workers still running. `push` refuses when zero so a job can
    /// never be enqueued after the last worker exited (the reactor then
    /// closes the connection instead of waiting forever).
    alive: usize,
}

/// The compute pool's queue. Workers pop-first, then check shutdown —
/// so every job pushed while any worker is alive gets executed.
struct ComputeQueue {
    state: Mutex<ComputeState>,
    ready: Condvar,
}

impl ComputeQueue {
    fn new(workers: usize) -> ComputeQueue {
        ComputeQueue {
            state: Mutex::new(ComputeState { jobs: VecDeque::new(), alive: workers }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues a job; `false` when every worker has already exited.
    fn push(&self, job: Job, metrics: &crate::metrics::Metrics) -> bool {
        let mut st = self.state.lock().expect("reactor lock never poisoned");
        if st.alive == 0 {
            return false;
        }
        st.jobs.push_back(job);
        metrics.set_compute_queue_depth(st.jobs.len());
        drop(st);
        self.ready.notify_one();
        true
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

fn compute_loop(shared: &Shared, queue: &ComputeQueue, mailboxes: &[Mailbox]) {
    loop {
        let job = {
            let mut st = queue.state.lock().expect("reactor lock never poisoned");
            loop {
                if let Some(j) = st.jobs.pop_front() {
                    shared.metrics.set_compute_queue_depth(st.jobs.len());
                    break Some(j);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    st.alive -= 1;
                    break None;
                }
                let (next, _) = queue
                    .ready
                    .wait_timeout(st, Duration::from_millis(100))
                    .expect("reactor lock never poisoned");
                st = next;
            }
        };
        let Some(job) = job else { return };
        let started = Instant::now();
        let trace_id = job.trace.as_ref().map_or(0, |t| t.id);
        let (endpoint, mut response) = execute(&job.req, shared, trace_id);
        let handle_dur = started.elapsed();
        if let Some(ctx) = &job.trace {
            response.set_header(TRACE_HEADER, ctx.echo.clone());
        }
        let keep_alive = !job.req.close && !shared.shutdown.load(Ordering::SeqCst);
        let bytes = response.serialize(keep_alive);
        shared.metrics.record_request(endpoint, response.status, started.elapsed().as_secs_f64());
        shared.log_request(
            trace_id,
            endpoint,
            &job.req.method,
            &job.req.path,
            response.status,
            started.elapsed(),
        );
        let trace = job.trace.as_ref().map(|ctx| {
            let tag = endpoint.label();
            cc_trace::record(
                cc_trace::Phase::Parse,
                ctx.id,
                tag,
                job.req.body.len() as u64,
                job.parse_start,
                job.parse_spent,
            );
            cc_trace::record(
                cc_trace::Phase::QueueWait,
                ctx.id,
                tag,
                0,
                job.queued,
                started.duration_since(job.queued),
            );
            cc_trace::record(cc_trace::Phase::Handle, ctx.id, tag, 0, started, handle_dur);
            (ctx.id, tag)
        });
        mailboxes[job.reactor].send(Msg::Done {
            token: job.token,
            bytes,
            close: !keep_alive,
            trace,
        });
    }
}

// ---------------------------------------------------------------------
// The reactor proper.

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Pending response bytes, written as the socket accepts them.
    out: Vec<u8>,
    out_pos: usize,
    /// A request from this connection is in the compute pool; reads are
    /// deferred (backpressure) and at most one request executes at a
    /// time (pipelined responses stay ordered).
    executing: bool,
    close_after_flush: bool,
    read_closed: bool,
    /// Readability arrived while `executing`; service it after `Done`.
    readable_pending: bool,
    last_activity: Instant,
    /// Set while a request is partially buffered — the `408` clock.
    request_started: Option<Instant>,
    /// Set while a write is blocked on the client — the write-timeout
    /// clock.
    write_started: Option<Instant>,
    /// First parser activity toward the next request (trace `parse`
    /// span anchor) + parser CPU accumulated toward it.
    parse_anchor: Option<Instant>,
    parse_spent: Duration,
}

impl Conn {
    fn new(stream: TcpStream, max_body: usize) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(max_body),
            out: Vec::new(),
            out_pos: 0,
            executing: false,
            close_after_flush: false,
            read_closed: false,
            readable_pending: false,
            last_activity: Instant::now(),
            request_started: None,
            write_started: None,
            parse_anchor: None,
            parse_spent: Duration::ZERO,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }
}

struct Reactor {
    id: usize,
    epoll: Epoll,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    shared: Arc<Shared>,
    mailboxes: Arc<Vec<Mailbox>>,
    compute: Arc<ComputeQueue>,
    /// Live-connection count shared with the acceptor (the `503`
    /// shedding threshold).
    live: Arc<AtomicUsize>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        let mut last_sweep = Instant::now();
        loop {
            let n = self.epoll.wait(&mut events, 100);
            self.shared.metrics.record_reactor_wake(n as u64);
            if n > 0 && self.shared.tracing() {
                // Wake→ready fan-in: how many fds each epoll return serviced.
                cc_trace::event(cc_trace::Phase::ReactorWake, 0, "", n as u64);
            }
            for ev in events.iter().take(n).copied() {
                let (token, bits) = (ev.data, ev.events);
                if token == WAKE_TOKEN {
                    self.mailboxes[self.id].waker.drain();
                    continue;
                }
                if !self.conns.contains_key(&token) {
                    continue; // closed earlier this batch
                }
                if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                    self.on_readable(token);
                }
                if bits & EPOLLOUT != 0 && self.conns.get(&token).is_some_and(|c| !c.flushed()) {
                    self.flush(token);
                }
            }
            self.drain_mailbox();
            if last_sweep.elapsed() >= SWEEP_TICK {
                self.sweep();
                last_sweep = Instant::now();
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // Drop everything idle; executing/flushing connections
                // finish their (forced `connection: close`) response.
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| !c.executing && c.flushed())
                    .map(|(&t, _)| t)
                    .collect();
                for t in idle {
                    self.close(t);
                }
                if self.conns.is_empty() {
                    self.drain_mailbox(); // drop any last handed-off conns
                    return;
                }
            }
        }
    }

    fn drain_mailbox(&mut self) {
        let msgs = std::mem::take(
            &mut *self.mailboxes[self.id].inbox.lock().expect("reactor lock never poisoned"),
        );
        if !msgs.is_empty() && self.shared.tracing() {
            // Backlog depth at each drain — a growing depth means the
            // reactor is falling behind its compute pool.
            cc_trace::event(cc_trace::Phase::MailboxDepth, 0, "", msgs.len() as u64);
        }
        for msg in msgs {
            match msg {
                Msg::Conn(stream) => self.register(stream),
                Msg::Done { token, bytes, close, trace } => {
                    self.on_done(token, bytes, close, trace)
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            self.live.fetch_sub(1, Ordering::SeqCst);
            self.shared.metrics.connection_closed();
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            self.live.fetch_sub(1, Ordering::SeqCst);
            self.shared.metrics.connection_closed();
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        let fd = stream.as_raw_fd();
        if self.epoll.add(fd, token, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET).is_err() {
            self.live.fetch_sub(1, Ordering::SeqCst);
            self.shared.metrics.connection_closed();
            return;
        }
        self.conns.insert(token, Conn::new(stream, self.shared.config.max_body_bytes));
        // Bytes may have landed before registration; ET would never
        // re-announce them.
        self.on_readable(token);
    }

    /// Read to `WouldBlock`, then advance the parser state machine.
    fn on_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.executing {
            conn.readable_pending = true;
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    let fed_at = Instant::now();
                    conn.parser.feed(&buf[..n]);
                    conn.parse_spent += fed_at.elapsed();
                    if conn.parse_anchor.is_none() {
                        conn.parse_anchor = Some(fed_at);
                    }
                    conn.last_activity = fed_at;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.advance(token);
    }

    /// Pulls the next request out of the parser and dispatches it, or
    /// books the `408` deadline / closes on EOF / answers parse errors.
    fn advance(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.executing {
            return;
        }
        let parse_started = Instant::now();
        let parsed = conn.parser.try_next();
        conn.parse_spent += parse_started.elapsed();
        match parsed {
            Ok(Some(req)) => {
                conn.request_started = None;
                if self.shared.shutdown.load(Ordering::SeqCst) {
                    // Shutdown raced the parse: nothing was dispatched,
                    // so this request was never "in flight".
                    self.close(token);
                    return;
                }
                conn.executing = true;
                let trace = self.shared.tracing().then(|| trace_ctx(&req));
                let job = Job {
                    reactor: self.id,
                    token,
                    req,
                    queued: Instant::now(),
                    parse_start: conn.parse_anchor.take().unwrap_or(parse_started),
                    parse_spent: std::mem::take(&mut conn.parse_spent),
                    trace,
                };
                if !self.compute.push(job, &self.shared.metrics) {
                    self.close(token);
                }
            }
            Ok(None) => {
                if conn.parser.is_empty() {
                    conn.request_started = None;
                } else if conn.request_started.is_none() {
                    conn.request_started = Some(Instant::now());
                }
                if conn.read_closed && conn.flushed() {
                    // EOF with no complete request pending: clean close
                    // between requests or abrupt disconnect mid-request.
                    self.close(token);
                }
            }
            Err(e) => {
                let reply = Response::error(e.status(), e.reason()).serialize(false);
                self.shared.metrics.record_request(Endpoint::Other, e.status(), 0.0);
                self.shared.logger.warn(
                    0,
                    "",
                    format!("request rejected: {} ({})", e.reason(), e.status()),
                );
                conn.out.extend_from_slice(&reply);
                conn.close_after_flush = true;
                conn.read_closed = true;
                self.flush(token);
            }
        }
    }

    /// A response came back from the compute pool.
    fn on_done(
        &mut self,
        token: u64,
        bytes: Vec<u8>,
        close: bool,
        trace: Option<(u64, &'static str)>,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.executing = false;
        conn.out.extend_from_slice(&bytes);
        if close {
            conn.close_after_flush = true;
        }
        conn.last_activity = Instant::now();
        let write_started = Instant::now();
        self.flush(token);
        if let Some((id, tag)) = trace {
            // Covers the first write attempt; a `WouldBlock` continuation
            // via EPOLLOUT lands outside the span (the slow-client tail
            // is visible in `write_timeout` metrics instead).
            cc_trace::record(
                cc_trace::Phase::Write,
                id,
                tag,
                bytes.len() as u64,
                write_started,
                write_started.elapsed(),
            );
        }
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.close_after_flush {
            return;
        }
        if conn.readable_pending {
            conn.readable_pending = false;
            self.on_readable(token); // ends in advance()
        } else {
            self.advance(token); // pipelined request already buffered?
        }
    }

    /// Write to `WouldBlock`; close when done if the connection is
    /// marked for close.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if conn.write_started.is_none() {
                        conn.write_started = Some(Instant::now());
                    }
                    return; // EPOLLOUT will resume us
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        conn.write_started = None;
        conn.last_activity = Instant::now();
        if conn.close_after_flush {
            self.close(token);
        }
    }

    /// The timer wheel, poor man's edition: one pass per [`SWEEP_TICK`].
    fn sweep(&mut self) {
        let now = Instant::now();
        let keep_alive = self.shared.config.keep_alive;
        let mut deadline_408: Vec<u64> = Vec::new();
        let mut drop_now: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.write_started.is_some_and(|t| now.duration_since(t) >= WRITE_TIMEOUT) {
                // Client stopped reading: never pin memory on it.
                drop_now.push(token);
            } else if !conn.executing
                && conn.request_started.is_some_and(|t| now.duration_since(t) >= REQUEST_DEADLINE)
            {
                deadline_408.push(token);
            } else if !conn.executing
                && conn.flushed()
                && conn.parser.is_empty()
                && now.duration_since(conn.last_activity) >= keep_alive
            {
                drop_now.push(token);
            }
        }
        for token in drop_now {
            self.close(token);
        }
        for token in deadline_408 {
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            let reply = Response::error(408, "request took too long to arrive").serialize(false);
            self.shared.metrics.record_request(Endpoint::Other, 408, 0.0);
            self.shared.logger.warn(0, "", "request deadline exceeded; answered 408");
            conn.out.extend_from_slice(&reply);
            conn.close_after_flush = true;
            conn.read_closed = true;
            self.flush(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.del(conn.stream.as_raw_fd());
            self.live.fetch_sub(1, Ordering::SeqCst);
            self.shared.metrics.connection_closed();
        }
    }
}

// ---------------------------------------------------------------------
// Assembly: acceptor + reactors + compute pool.

/// The running epoll core's threads and wake handles.
pub(crate) struct EpollCore {
    acceptor: std::thread::JoinHandle<()>,
    reactors: Vec<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    mailboxes: Arc<Vec<Mailbox>>,
    compute: Arc<ComputeQueue>,
}

impl EpollCore {
    /// Builds the epoll instances and eventfds (every fallible syscall
    /// happens here, before any thread spawns), then starts acceptor,
    /// reactors, and compute workers.
    pub(crate) fn start(
        listener: TcpListener,
        shared: Arc<Shared>,
        workers: usize,
    ) -> io::Result<EpollCore> {
        let reactor_count = match shared.config.reactors {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8),
            n => n,
        }
        .max(1);
        let mut mailboxes = Vec::with_capacity(reactor_count);
        let mut epolls = Vec::with_capacity(reactor_count);
        for _ in 0..reactor_count {
            let epoll = Epoll::new()?;
            let waker = EventFd::new()?;
            // Level-triggered on purpose: a wake posted between drain
            // and wait must still show up.
            epoll.add(waker.file.as_raw_fd(), WAKE_TOKEN, EPOLLIN)?;
            mailboxes.push(Mailbox { inbox: Mutex::new(Vec::new()), waker });
            epolls.push(epoll);
        }
        let mailboxes = Arc::new(mailboxes);
        let compute = Arc::new(ComputeQueue::new(workers.max(1)));
        let live = Arc::new(AtomicUsize::new(0));

        let worker_threads = (0..workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                let compute = compute.clone();
                let mailboxes = mailboxes.clone();
                std::thread::spawn(move || compute_loop(&shared, &compute, &mailboxes))
            })
            .collect();
        let reactor_threads = epolls
            .into_iter()
            .enumerate()
            .map(|(id, epoll)| {
                let r = Reactor {
                    id,
                    epoll,
                    conns: HashMap::new(),
                    next_token: 0,
                    shared: shared.clone(),
                    mailboxes: mailboxes.clone(),
                    compute: compute.clone(),
                    live: live.clone(),
                };
                std::thread::spawn(move || r.run())
            })
            .collect();
        let acceptor = {
            let shared = shared.clone();
            let mailboxes = mailboxes.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared, &mailboxes, &live))
        };
        Ok(EpollCore {
            acceptor,
            reactors: reactor_threads,
            workers: worker_threads,
            mailboxes,
            compute,
        })
    }

    /// Kicks every blocked thread so shutdown is noticed immediately
    /// (they would notice within one 100 ms tick regardless).
    pub(crate) fn wake(&self) {
        for m in self.mailboxes.iter() {
            m.waker.wake();
        }
        self.compute.wake_all();
    }

    /// Joins every thread (acceptor, reactors, compute workers).
    pub(crate) fn join(self) {
        let _ = self.acceptor.join();
        for r in self.reactors {
            let _ = r.join();
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Blocking accept, round-robin handoff. Sheds with `503` once the
/// reactors' open set reaches [`MAX_PENDING_CONNECTIONS`].
fn accept_loop(listener: &TcpListener, shared: &Shared, mailboxes: &[Mailbox], live: &AtomicUsize) {
    let mut next = 0usize;
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                shared.metrics.record_connection();
                shared.metrics.connection_opened();
                if live.load(Ordering::SeqCst) >= MAX_PENDING_CONNECTIONS {
                    // Shed load with an answer, not a silent hang.
                    let _ = stream
                        .write_all(&Response::error(503, "server is at capacity").serialize(false));
                    shared.metrics.record_request(Endpoint::Other, 503, 0.0);
                    shared.metrics.connection_closed();
                    shared.logger.warn(0, "", "connection limit reached; connection shed with 503");
                    continue;
                }
                live.fetch_add(1, Ordering::SeqCst);
                mailboxes[next % mailboxes.len()].send(Msg::Conn(stream));
                next = next.wrapping_add(1);
            }
            // Transient accept errors (EMFILE, aborted handshakes):
            // back off briefly instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}
