//! One blocking thread per connection, and the leader/follower crew
//! that accepts them (DESIGN.md, "Connection threads").
//!
//! **Accepting.** Exactly one crew thread holds the *accept role* and
//! blocks in `accept()`. When a connection arrives it admits it, hands
//! the role to a parked thread — or spawns one when none is parked —
//! and serves that connection itself. When the connection closes the
//! thread parks for up to `idle_timeout`, waiting to take the role
//! again, and exits if it is not called.
//!
//! **Serving.** The thread blocks in `read`, parses every complete
//! pipelined request off its buffer (at most [`BATCH`] per pass), and
//! answers them in order on this thread: response-cache hits from their
//! shared bodies, `/query` hits from the query engine's LRU — the spec
//! parsed once, before the gate, so every spelling hits — and everything
//! else computed under the compute gate. Every response, cached or
//! computed, gets its head rendered here for the request's persistence
//! mode ([`Response::head_bytes`]). The batch goes out in one gathered
//! write before the thread blocks again.
//!
//! **Draining.** The first crew thread that sees the shutdown flag
//! wakes every parked crew thread, shuts the read half of every
//! connection parked between requests, and exits. Connections in the
//! middle of a request finish it.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use accelwall_faults::Site;

use crate::http::{parse_bytes, ParseOutcome, Request, RequestError, Response, MAX_BODY_BYTES};
use crate::metrics::Route;
use crate::{ask, lock, query_response, route_request, Shared};

/// Pipelined requests answered per pass before the batch is written.
const BATCH: usize = 64;

/// Bytes one `read` may add to a connection's buffer.
const READ_CHUNK: usize = 16 * 1024;

/// The leader/follower roster; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct Crew {
    /// Crew threads alive, the accepting one included.
    live: usize,
    /// Threads parked waiting for the accept role.
    parked: usize,
    /// Accept-role hand-offs posted to parked threads, not yet taken.
    handoffs: usize,
    /// Every admitted connection still open.
    conns: Vec<Arc<Conn>>,
}

/// One admitted connection: its socket, and whether its thread is
/// blocked in a read between requests (the drain wakes exactly those).
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    parked: Mutex<bool>,
}

impl Conn {
    /// Marks the connection parked for a read on an empty buffer —
    /// unless the server is draining, which closes it instead.
    fn park(&self, shutdown: &AtomicBool) -> bool {
        let mut parked = lock(&self.parked);
        // Checked under the lock the drain takes, so either the drain
        // sees this connection parked or this load sees the flag.
        if shutdown.load(Ordering::Acquire) {
            return false;
        }
        *parked = true;
        true
    }

    fn unpark(&self) {
        *lock(&self.parked) = false;
    }

    /// Ends the blocking read of a connection parked between requests:
    /// the read returns EOF and the thread closes the connection.
    fn wake_if_parked(&self) {
        if *lock(&self.parked) {
            let _ = self.stream.shutdown(Shutdown::Read);
        }
    }
}

/// Runs the server on the calling thread: it takes the accept role
/// first, and returns once the drain has ended every crew thread.
pub(crate) fn run(shared: &Arc<Shared>) {
    lock(&shared.crew).live += 1;
    lead(shared);
    let mut crew = lock(&shared.crew);
    while crew.live > 0 {
        crew = shared
            .exited
            .wait(crew)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Runs one crew thread from the moment it holds the accept role until
/// it exits: accept, hand the role on, serve, park, repeat.
fn lead(shared: &Arc<Shared>) {
    let _leaving = Leaving(shared);
    loop {
        // Acquire pairs with the handle's AcqRel swap: the drain
        // happens-after whatever the stopper did first.
        if shared.shutdown.load(Ordering::Acquire) {
            shared.wake_for_drain();
            return;
        }
        let Ok((stream, _)) = shared.listener.accept() else {
            // Transient (say, out of descriptors): back off briefly
            // rather than spin on the error.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        if shared.shutdown.load(Ordering::Acquire) {
            continue; // the drain's wake-up connect, or a late client
        }
        let admitted = admit(shared);
        let handed_off = shared.hand_off();
        match admitted {
            Ok(()) => serve_admitted(shared, stream),
            Err(Some(response)) => shed(stream, &response),
            Err(None) => drop(stream), // contained probe panic
        }
        if handed_off && !shared.await_role() {
            return;
        }
    }
}

/// Counts a crew thread out when it exits, and wakes `run` when none
/// remain.
struct Leaving<'a>(&'a Shared);

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        let mut crew = lock(&self.0.crew);
        crew.live -= 1;
        if crew.live == 0 {
            self.0.exited.notify_all();
        }
    }
}

impl Shared {
    /// Passes the accept role on: to a parked thread, else to a new one.
    /// `false` when no thread could be spawned; the caller keeps the
    /// role then.
    fn hand_off(self: &Arc<Shared>) -> bool {
        let mut crew = lock(&self.crew);
        if crew.parked > crew.handoffs {
            crew.handoffs += 1;
            drop(crew);
            self.role.notify_one();
            return true;
        }
        // No join handle is kept: `live` counts the thread in, its
        // `Leaving` guard counts it out, and `run` waits for zero.
        crew.live += 1;
        drop(crew);
        let shared = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("accelwall-conn".to_string())
            .spawn(move || lead(&shared));
        if spawned.is_err() {
            lock(&self.crew).live -= 1;
        }
        spawned.is_ok()
    }

    /// Parks this thread for up to `idle_timeout`, waiting to be handed
    /// the accept role. `false` means exit: it timed out, or the server
    /// is draining.
    fn await_role(&self) -> bool {
        let deadline = Instant::now() + self.config.idle_timeout;
        let mut crew = lock(&self.crew);
        crew.parked += 1;
        let called = loop {
            // A posted hand-off is taken even while draining: the new
            // leader then sees the flag and runs the drain wake-up.
            if crew.handoffs > 0 {
                crew.handoffs -= 1;
                break true;
            }
            // Checked under the crew lock, which the drain takes before
            // its wake-up, so the wake-up cannot slip past this wait.
            let now = Instant::now();
            if self.shutdown.load(Ordering::Acquire) || now >= deadline {
                break false;
            }
            crew = self
                .role
                .wait_timeout(crew, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        crew.parked -= 1;
        called
    }

    /// Begins the drain: every parked crew thread wakes and exits, and
    /// every connection parked between requests reads EOF and closes.
    fn wake_for_drain(&self) {
        let crew = lock(&self.crew);
        for conn in &crew.conns {
            conn.wake_if_parked();
        }
        drop(crew);
        self.role.notify_all();
    }
}

/// Admission, on the accepting thread: the `serve-conn` fault probe,
/// then the connection cap. `Err(Some(_))` sheds the connection with
/// that response; `Err(None)` drops it.
fn admit(shared: &Shared) -> Result<(), Option<Response>> {
    // The `serve-conn` chaos site: an `err` sheds the connection with a
    // 503 + close, a `panic` is contained right here — the connection
    // drops but the thread survives.
    match catch_unwind(|| accelwall_faults::probe(Site::ServeConn)) {
        Ok(Ok(())) => {}
        Ok(Err(fault)) => return Err(Some(Response::text(503, format!("{fault}\n")))),
        Err(_) => return Err(None),
    }
    if shared
        .metrics
        .open_connection(shared.config.max_connections)
    {
        return Ok(());
    }
    let over_cap = "connection limit reached, retry later\n";
    Err(Some(Response::text(503, over_cap)))
}

/// Answers a shed connection with a close-mode response, bounded by
/// short I/O timeouts, and drops it.
fn shed(mut stream: TcpStream, response: &Response) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    if response.write_to(&mut stream).is_err() {
        return;
    }
    // Half-close, then drain whatever the client already sent: dropping
    // a socket with unread bytes in its receive buffer turns the close
    // into an RST, which can discard the 503 still in flight to the
    // client. The drain is bounded by the read timeout and a hard
    // deadline, so a misbehaving client cannot pin this thread.
    let _ = stream.shutdown(Shutdown::Write);
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

/// Serves one admitted connection to its close, registered with the
/// crew so a drain can wake it.
fn serve_admitted(shared: &Shared, stream: TcpStream) {
    let conn = Arc::new(Conn {
        stream,
        parked: Mutex::new(false),
    });
    lock(&shared.crew).conns.push(Arc::clone(&conn));
    serve(shared, &conn);
    let mut crew = lock(&shared.crew);
    if let Some(i) = crew.conns.iter().position(|c| Arc::ptr_eq(c, &conn)) {
        crew.conns.swap_remove(i);
    }
    drop(crew);
    // Count the close before the socket closes (when `conn` drops), so
    // a client that has seen EOF never scrapes a stale gauge.
    shared.metrics.record_connection_closed();
}

/// How a parse pass over the buffer ended.
enum Pass {
    /// The buffer holds at most a partial request: read more.
    Partial,
    /// The batch is full: write it, then parse on without reading.
    Full,
    /// Write the batch (if any), then close the connection.
    Close,
}

/// One response staged for the batch write: its head rendered for this
/// request, and its body, shared with any cache that holds it.
struct Staged {
    head: Vec<u8>,
    body: Arc<[u8]>,
    route: Route,
    status: u16,
    /// When the request was parsed; latency is observed after the write.
    started: Instant,
}

impl Staged {
    fn new((route, response): (Route, Response), keep_alive: bool, started: Instant) -> Staged {
        Staged {
            head: response.head_bytes(keep_alive),
            body: response.body,
            route,
            status: response.status,
            started,
        }
    }

    fn parts(&self) -> [&[u8]; 2] {
        [&self.head, &self.body]
    }
}

/// The connection loop; see the module docs.
fn serve(shared: &Shared, conn: &Conn) {
    let config = &shared.config;
    let mut stream = &conn.stream;
    // `TCP_NODELAY`: keep-alive round trips must not sit out a Nagle
    // delay.
    if stream.set_nodelay(true).is_err()
        || stream.set_write_timeout(Some(config.io_timeout)).is_err()
    {
        return;
    }
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut batch = Vec::new();
    let mut served = 0u64;
    let mut timeout = None;
    loop {
        let pass = answer_pipeline(shared, &mut buf, &mut batch, &mut served);
        if !batch.is_empty() {
            if write_batch(stream, &batch).is_err() {
                return;
            }
            let done = Instant::now();
            for staged in batch.drain(..) {
                shared.metrics.observe(
                    staged.route,
                    staged.status,
                    done.duration_since(staged.started),
                );
            }
        }
        match pass {
            Pass::Close => return,
            Pass::Full => continue,
            Pass::Partial => {}
        }
        let idle = buf.is_empty();
        if idle && !conn.park(&shared.shutdown) {
            return;
        }
        let wait = if idle {
            config.idle_timeout
        } else {
            config.io_timeout // mid-request stall (slowloris) bound
        };
        if timeout != Some(wait) {
            if stream.set_read_timeout(Some(wait)).is_err() {
                return;
            }
            timeout = Some(wait);
        }
        let read = stream.read(&mut chunk);
        if idle {
            conn.unpark();
        }
        match read {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                shared.metrics.record_idle_timeout();
                return;
            }
            Err(_) => return,
        }
    }
}

/// Parses and answers up to [`BATCH`] complete requests off the front
/// of `buf`, staging their responses in request order.
fn answer_pipeline(
    shared: &Shared,
    buf: &mut Vec<u8>,
    batch: &mut Vec<Staged>,
    served: &mut u64,
) -> Pass {
    let metrics = &shared.metrics;
    let mut offset = 0;
    let pass = loop {
        if batch.len() == BATCH {
            break Pass::Full;
        }
        match parse_bytes(&buf[offset..]) {
            Ok(ParseOutcome::Partial { .. }) => break Pass::Partial,
            Ok(ParseOutcome::Complete { request, consumed }) => {
                offset += consumed;
                *served += 1;
                if *served > 1 {
                    metrics.record_keepalive_reuse();
                }
                if !batch.is_empty() {
                    // An earlier response on this connection is unwritten.
                    metrics.record_pipelined();
                }
                let Some(staged) = answer(shared, &request) else {
                    // A handler panicked: drop the connection unanswered.
                    batch.clear();
                    break Pass::Close;
                };
                batch.push(staged);
                if !request.keep_alive {
                    break Pass::Close;
                }
            }
            Err(error) => {
                // A malformed pipeline has no trustworthy framing:
                // answer the precise 4xx/5xx in order, then close.
                batch.push(Staged::new(error_response(&error), false, Instant::now()));
                break Pass::Close;
            }
        }
    };
    buf.drain(..offset);
    pass
}

/// Answers one request on this thread: a response-cache hit from its
/// shared body, a `/query` engine-LRU hit or refusal before the gate,
/// anything else computed under the gate. `None` when the handler
/// panicked; the connection is then dropped.
fn answer(shared: &Shared, request: &Request) -> Option<Staged> {
    let started = Instant::now();
    let metrics = &shared.metrics;
    // While a fault plan is armed the response cache is bypassed, so
    // every request it would have answered reaches the `serve-request`
    // probe.
    let key = if accelwall_faults::is_armed() {
        None
    } else {
        cache_key(request)
    };
    if let Some(hit) = key.as_deref().and_then(|key| shared.respcache.get(key)) {
        return Some(Staged::new(hit, request.keep_alive, started));
    }
    let mut query = None;
    if request.path == "/query" {
        match ask(request, &shared.engine) {
            ControlFlow::Break(response) => {
                let staged = Staged::new((Route::Query, response), request.keep_alive, started);
                return Some(staged);
            }
            ControlFlow::Continue(miss) => query = Some(miss),
        }
    }
    let Some(_permit) = shared.gate.enter() else {
        // Backpressure: shed this request in pipeline order and keep
        // the connection.
        metrics.record_rejected();
        let response = Response::text(503, "server saturated, retry later\n");
        return Some(Staged::new(
            (Route::Other, response),
            request.keep_alive,
            started,
        ));
    };
    let computed = catch_unwind(AssertUnwindSafe(|| {
        let _in_flight = metrics.track_in_flight();
        // The `serve-request` fault site: a `panic` rule unwinds out of
        // this handler (the connection drops), an `err` rule answers
        // 500, a `hang` rule holds this thread and its compute slot.
        let (route, response) = match accelwall_faults::probe(Site::ServeRequest) {
            Err(fault) => (Route::Other, Response::text(500, format!("{fault}\n"))),
            Ok(()) => match query {
                Some((spec, miss)) => (Route::Query, query_response(&shared.engine, &spec, miss)),
                None => route_request(request, shared),
            },
        };
        // Populate the warm path: only `200`s for cacheable shapes.
        if let (Some(key), 200) = (&key, response.status) {
            shared.respcache.insert(key, route, &response);
        }
        (route, response)
    }));
    if computed.is_err() {
        metrics.record_worker_panic();
    }
    computed
        .ok()
        .map(|reply| Staged::new(reply, request.keep_alive, started))
}

/// The response-cache key for a request, when its shape is cacheable:
/// `GET` on the immutable-content routes. `/healthz`, `/metrics`, and
/// `/shutdown` change per request and return `None`.
fn cache_key(request: &Request) -> Option<String> {
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

/// Writes every staged response with gathered writes.
fn write_batch(mut stream: &TcpStream, batch: &[Staged]) -> std::io::Result<()> {
    let mut slices: Vec<IoSlice<'_>> = batch
        .iter()
        .flat_map(Staged::parts)
        .filter(|part| !part.is_empty())
        .map(IoSlice::new)
        .collect();
    let mut slices = &mut slices[..];
    while !slices.is_empty() {
        match stream.write_vectored(slices) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Maps a parse failure onto its (route, response) pair.
fn error_response(error: &RequestError) -> (Route, Response) {
    let (route, status, body) = match error {
        RequestError::TooLarge => (Route::Other, 431, "request head too large".to_string()),
        RequestError::BodyTooLarge => (
            Route::Query,
            413,
            format!("request body exceeds {MAX_BODY_BYTES} bytes"),
        ),
        RequestError::Malformed(what) => (Route::Other, 400, format!("malformed request: {what}")),
        RequestError::Unsupported(what) => (Route::Other, 501, format!("not implemented: {what}")),
    };
    (route, Response::text(status, body + "\n"))
}
