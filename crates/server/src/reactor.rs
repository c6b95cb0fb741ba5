//! The nonblocking connection reactor: one event-loop thread owns the
//! listener and every client socket.
//!
//! The reactor replaces the old blocking accept-loop front end. All
//! sockets run in nonblocking mode and a single rotation loop services
//! them (`std::net` only — the crate forbids `unsafe`, so there is no
//! `epoll` shim; an adaptive spin-then-sleep pace keeps the loop cheap
//! when idle and hot when traffic flows). Per connection it:
//!
//! 1. **accepts** (bursts, bounded per iteration) — over the
//!    [`ServerConfig::max_connections`](crate::ServerConfig) cap the
//!    connection is shed with an immediate `503` + close, and the
//!    `serve-conn` fault site can shed (`err`) or drop (`panic`,
//!    contained) connections for chaos tests;
//! 2. **reads** into the connection's buffer and **parses** pipelined
//!    requests off it incrementally ([`parse_bytes`]);
//! 3. **classifies**: warm `GET`s answered from the pre-serialized
//!    [`ResponseCache`] never leave this thread; everything else
//!    becomes a [`ComputeJob`] for the bounded worker pool, whose
//!    `Rejected` backpressure turns into an in-order `503`;
//! 4. **delivers** pool [`Completion`]s back into per-connection
//!    sequence order and **flushes** with gathered vectored writes;
//! 5. enforces the **idle timeout** (slowloris protection) and the
//!    mid-request stall bound (`io_timeout`).
//!
//! Draining: once the shutdown latch is observed the reactor stops
//! accepting, keeps serving requests already buffered or arriving on
//! open connections, closes each connection as it goes quiet, and
//! returns when none remain — the pool is then joined by the caller.

use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::conn::{Conn, FillOutcome, Outgoing, Payload, PIPELINE_CAP, READ_BUF_CAP};
use crate::http::{parse_bytes, ParseOutcome, Request, RequestError, Response};
use crate::metrics::{Metrics, Route};
use crate::pool::ThreadPool;
use crate::respcache::ResponseCache;

/// Accepts drained per loop iteration, so a hot accept queue cannot
/// starve established connections.
const ACCEPT_BURST: usize = 64;

/// One request the reactor handed to the compute pool.
pub(crate) struct ComputeJob {
    /// Slab slot of the originating connection.
    pub slot: u32,
    /// Slot generation at dispatch; a stale generation means the
    /// connection died and the completion is dropped.
    pub generation: u32,
    /// Position in the connection's pipeline order.
    pub seq: u64,
    /// The parsed request.
    pub request: Request,
    /// When the request was parsed (latency measurement).
    pub started: Instant,
    /// The response-cache key when the request shape is cacheable (the
    /// pool inserts the rendered response under it on a 200).
    pub cache_key: Option<String>,
}

/// What the pool hands back to the event loop.
pub(crate) enum Completion {
    /// The request was computed; write the response out in order.
    Done {
        slot: u32,
        generation: u32,
        seq: u64,
        route: Route,
        response: Response,
        started: Instant,
    },
    /// The handler panicked mid-request (e.g. an armed `serve-request`
    /// panic): drop the whole connection, mirroring the old
    /// thread-per-connection behavior where the worker died holding it.
    Abort { slot: u32, generation: u32 },
}

/// The response-cache key for a request, when its shape is cacheable:
/// `GET` on the immutable-content routes. `/healthz`, `/metrics`, and
/// `/shutdown` change per request and return `None`.
pub(crate) fn cache_key(request: &Request) -> Option<String> {
    if request.method != "GET" || !request.body.is_empty() {
        return None;
    }
    match request.path.as_str() {
        "/experiments" => Some("roster".to_string()),
        "/query/schema" => Some("schema".to_string()),
        "/query" => Some(format!("query?{}", request.query)),
        path => path.strip_prefix("/experiments/").map(|id| {
            let variant = if request.wants_plain_text() { 't' } else { 'j' };
            format!("exp:{id}:{variant}")
        }),
    }
}

/// The event loop's state; built and run by [`Server::run`](crate::Server::run).
pub(crate) struct Reactor {
    listener: TcpListener,
    metrics: Arc<Metrics>,
    respcache: Arc<ResponseCache>,
    shutdown: Arc<AtomicBool>,
    completions: Receiver<Completion>,
    max_connections: usize,
    idle_timeout: Duration,
    io_timeout: Duration,
    /// Connection slab; `None` slots are free (listed in `free`).
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on release so late completions for a
    /// recycled slot are recognized as stale.
    generations: Vec<u32>,
    free: Vec<usize>,
    open: usize,
    draining: bool,
}

/// The reactor's tuning knobs, lifted off [`crate::ServerConfig`].
pub(crate) struct ReactorLimits {
    pub max_connections: usize,
    pub idle_timeout: Duration,
    pub io_timeout: Duration,
}

impl Reactor {
    pub fn new(
        listener: TcpListener,
        metrics: Arc<Metrics>,
        respcache: Arc<ResponseCache>,
        shutdown: Arc<AtomicBool>,
        completions: Receiver<Completion>,
        limits: ReactorLimits,
    ) -> Reactor {
        Reactor {
            listener,
            metrics,
            respcache,
            shutdown,
            completions,
            max_connections: limits.max_connections,
            idle_timeout: limits.idle_timeout,
            io_timeout: limits.io_timeout,
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            open: 0,
            draining: false,
        }
    }

    /// Runs the event loop until a drain completes. Only listener-level
    /// setup failures escape; per-connection errors close that
    /// connection and nothing else.
    pub fn run(mut self, pool: &ThreadPool<ComputeJob>) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut scratch = vec![0u8; 16 * 1024];
        // Adaptive pacing: any progress resets to a hot spin; quiet
        // iterations back off exponentially so an idle server costs
        // hundreds (not millions) of syscalls per second while a warm
        // keep-alive round trip still resumes within microseconds.
        let mut nap = Duration::ZERO;
        loop {
            self.metrics.record_reactor_poll();
            let mut progress = false;
            while let Ok(completion) = self.completions.try_recv() {
                self.deliver(completion);
                progress = true;
            }
            if !self.draining && self.shutdown.load(Ordering::Acquire) {
                // Acquire pairs with the handle's AcqRel swap: the drain
                // decision happens-after whatever the stopper did first.
                self.draining = true;
                progress = true;
            }
            if !self.draining {
                progress |= self.accept_burst();
            }
            let now = Instant::now();
            for slot in 0..self.conns.len() {
                progress |= self.tick(slot, pool, &mut scratch, now);
            }
            if self.draining && self.open == 0 {
                return Ok(());
            }
            if progress {
                nap = Duration::ZERO;
            } else {
                let cap = if self.open > 0 {
                    Duration::from_micros(250)
                } else {
                    Duration::from_millis(2)
                };
                nap = if nap.is_zero() {
                    Duration::from_micros(5)
                } else {
                    (nap * 2).min(cap)
                };
                std::thread::sleep(nap);
            }
        }
    }

    /// Accepts a bounded burst of pending connections.
    fn accept_burst(&mut self) -> bool {
        let mut progress = false;
        for _ in 0..ACCEPT_BURST {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    self.admit(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break, // transient accept failure
            }
        }
        progress
    }

    /// Registers one accepted connection (or sheds it: `serve-conn`
    /// fault, connection cap).
    fn admit(&mut self, stream: TcpStream) {
        // The `serve-conn` chaos site: an `err` sheds the connection
        // with a 503 + close, a `panic` is contained right here — the
        // connection drops but the reactor thread survives.
        let probed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            accelwall_faults::probe(accelwall_faults::sites::SERVE_CONN)
        }));
        match probed {
            Ok(Ok(())) => {}
            Ok(Err(fault)) => {
                Reactor::shed(stream, &Response::text(503, format!("{fault}\n")));
                return;
            }
            Err(_) => return, // contained panic: the connection just drops
        }
        if self.open >= self.max_connections {
            self.metrics.record_over_cap();
            Reactor::shed(
                stream,
                &Response::text(503, "connection limit reached, retry later\n"),
            );
            return;
        }
        let Ok(conn) = Conn::new(stream, Instant::now()) else {
            return; // socket died between accept and setup
        };
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            }
        };
        self.conns[slot] = Some(conn);
        self.open += 1;
        self.metrics.record_connection_opened();
    }

    /// Answers a shed connection with a close-mode response, bounded by
    /// short I/O timeouts, and drops it.
    fn shed(mut stream: TcpStream, response: &Response) {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        if response.write_to(&mut stream).is_err() {
            return;
        }
        // Half-close, then drain whatever the client already sent:
        // dropping a socket with unread bytes in its receive buffer
        // turns the close into an RST, which can discard the 503 still
        // in flight to the client. The drain is bounded by the read
        // timeout and a hard deadline, so a misbehaving client cannot
        // pin the reactor here.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let deadline = Instant::now() + Duration::from_millis(250);
        let mut sink = [0u8; 1024];
        loop {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) if Instant::now() >= deadline => break,
                Ok(_) => {}
            }
        }
    }

    /// Routes one pool completion back to its (still-live) connection.
    fn deliver(&mut self, completion: Completion) {
        match completion {
            Completion::Done {
                slot,
                generation,
                seq,
                route,
                response,
                started,
            } => {
                let Some(conn) = self.conn_at(slot, generation) else {
                    return; // connection died while the job ran
                };
                conn.in_flight -= 1;
                let close_after = conn.close_at == Some(seq);
                let head = response.head_bytes(!close_after);
                conn.enqueue(
                    seq,
                    Outgoing::new(
                        Payload::Owned {
                            head,
                            body: response.body,
                        },
                        close_after,
                        route,
                        response.status,
                        started,
                    ),
                );
            }
            Completion::Abort { slot, generation } => {
                if let Some(conn) = self.conn_at(slot, generation) {
                    // The handler died mid-request: no response exists
                    // and pipeline order is broken — drop the whole
                    // connection (the client sees EOF), exactly like the
                    // old thread-per-connection worker dying.
                    conn.dead = true;
                }
            }
        }
    }

    fn conn_at(&mut self, slot: u32, generation: u32) -> Option<&mut Conn> {
        let slot = slot as usize;
        if self.generations.get(slot).copied() != Some(generation) {
            return None;
        }
        self.conns.get_mut(slot).and_then(Option::as_mut)
    }

    /// One service pass over one connection: read, parse/dispatch,
    /// flush, observe, and apply the close policy.
    fn tick(
        &mut self,
        slot: usize,
        pool: &ThreadPool<ComputeJob>,
        scratch: &mut [u8],
        now: Instant,
    ) -> bool {
        let Some(mut conn) = self.conns[slot].take() else {
            return false;
        };
        let mut progress = false;
        let mut close_after_flush = false;
        if !conn.dead {
            if !conn.stop_parsing
                && conn.outstanding() < PIPELINE_CAP
                && conn.read_buf.len() < READ_BUF_CAP
            {
                progress |= conn.fill(scratch, now) == FillOutcome::Progress;
            }
            progress |= self.dispatch_requests(slot, &mut conn, pool, now);
            progress |= conn.flush(now);
            let flushed = conn.take_flushed();
            if !flushed.is_empty() {
                // Read the clock after the write: an inline cache hit is
                // stamped with this pass's `now`, so observing against
                // `now` would record it as 0 µs.
                let done = Instant::now();
                for flushed in flushed {
                    self.metrics.observe(
                        flushed.route,
                        flushed.status,
                        done.duration_since(flushed.started),
                    );
                    close_after_flush |= flushed.close_after;
                }
            }
        }
        let timed_out = conn.in_flight == 0
            && now.duration_since(conn.last_activity)
                > if conn.is_idle() {
                    self.idle_timeout
                } else {
                    self.io_timeout // mid-request stall (slowloris) bound
                };
        let close = conn.dead
            || close_after_flush
            || (conn.read_closed && conn.outstanding() == 0)
            || (conn.stop_parsing && conn.outstanding() == 0)
            || (self.draining && conn.outstanding() == 0 && conn.read_buf.is_empty())
            || timed_out;
        if close {
            if timed_out {
                self.metrics.record_idle_timeout();
            }
            drop(conn);
            self.generations[slot] = self.generations[slot].wrapping_add(1);
            self.free.push(slot);
            self.open -= 1;
            self.metrics.record_connection_closed();
            progress = true;
        } else {
            self.conns[slot] = Some(conn);
        }
        progress
    }

    /// Parses as many pipelined requests as the buffer holds (bounded
    /// by [`PIPELINE_CAP`]) and dispatches each.
    fn dispatch_requests(
        &mut self,
        slot: usize,
        conn: &mut Conn,
        pool: &ThreadPool<ComputeJob>,
        now: Instant,
    ) -> bool {
        let mut progress = false;
        while !conn.stop_parsing && conn.outstanding() < PIPELINE_CAP {
            match parse_bytes(&conn.read_buf) {
                Ok(ParseOutcome::Complete { request, consumed }) => {
                    conn.read_buf.drain(..consumed);
                    progress = true;
                    self.dispatch(slot, conn, request, pool, now);
                }
                Ok(ParseOutcome::Partial { .. }) => break,
                Err(error) => {
                    // A malformed pipeline has no trustworthy framing:
                    // answer the precise 4xx in order, then close.
                    progress = true;
                    conn.stop_parsing = true;
                    conn.read_buf.clear();
                    let seq = conn.reserve_seq();
                    conn.close_at = Some(seq);
                    let (route, response) = error_response(&error);
                    let head = response.head_bytes(false);
                    conn.enqueue(
                        seq,
                        Outgoing::new(
                            Payload::Owned {
                                head,
                                body: response.body,
                            },
                            true,
                            route,
                            response.status,
                            now,
                        ),
                    );
                    break;
                }
            }
        }
        progress
    }

    /// Classifies one parsed request: warm cache hits are answered on
    /// this thread, everything else goes to the pool (with in-order
    /// `503` shedding when the pool is saturated).
    fn dispatch(
        &mut self,
        slot: usize,
        conn: &mut Conn,
        request: Request,
        pool: &ThreadPool<ComputeJob>,
        now: Instant,
    ) {
        let seq = conn.reserve_seq();
        conn.requests_parsed += 1;
        if conn.requests_parsed > 1 {
            self.metrics.record_keepalive_reuse();
        }
        if conn.outstanding() > 0 {
            self.metrics.record_pipelined();
        }
        let keep_alive = request.keep_alive;
        if !keep_alive {
            conn.close_at = Some(seq);
            conn.stop_parsing = true;
        }
        // The warm fast path: parse → key → lookup → writev, never
        // leaving this thread. Disabled while a fault plan is armed so
        // every request flows through the pool and its `serve-request`
        // probe — chaos semantics stay identical to the old front end.
        let key = if accelwall_faults::is_armed() {
            None
        } else {
            cache_key(&request)
        };
        if let Some(key) = &key {
            if let Some(hit) = self.respcache.get(key) {
                let (route, status) = (hit.route, hit.status);
                conn.enqueue(
                    seq,
                    Outgoing::new(
                        Payload::Cached {
                            entry: hit,
                            keep_alive,
                        },
                        !keep_alive,
                        route,
                        status,
                        now,
                    ),
                );
                return;
            }
        }
        let job = ComputeJob {
            slot: slot as u32,
            generation: self.generations[slot],
            seq,
            request,
            started: now,
            cache_key: key,
        };
        match pool.try_execute(job) {
            Ok(()) => conn.in_flight += 1,
            Err(_rejected) => {
                // Backpressure: the bounded pool is full (or closing).
                // Shed this request in pipeline order with the same 503
                // the old acceptor answered, and keep the connection.
                self.metrics.record_rejected();
                let response = Response::text(503, "server saturated, retry later\n");
                let head = response.head_bytes(conn.close_at.is_none_or(|s| s != seq));
                conn.enqueue(
                    seq,
                    Outgoing::new(
                        Payload::Owned {
                            head,
                            body: response.body,
                        },
                        conn.close_at == Some(seq),
                        Route::Other,
                        503,
                        now,
                    ),
                );
            }
        }
    }
}

/// Maps a parse failure onto the same (route, response) pairs the old
/// blocking front end answered.
fn error_response(error: &RequestError) -> (Route, Response) {
    match error {
        RequestError::TooLarge => (
            Route::Other,
            Response::text(431, "request head too large\n"),
        ),
        RequestError::BodyTooLarge => (
            Route::Query,
            Response::text(
                413,
                format!(
                    "request body exceeds {} bytes\n",
                    crate::http::MAX_BODY_BYTES
                ),
            ),
        ),
        RequestError::Malformed(what) => (
            Route::Other,
            Response::text(400, format!("malformed request: {what}\n")),
        ),
        // `parse_bytes` never yields `Io`; treat it as malformed if it
        // ever appears.
        RequestError::Io(_) => (
            Route::Other,
            Response::text(400, "malformed request: i/o\n"),
        ),
    }
}
