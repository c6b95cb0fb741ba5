//! Minimal HTTP/1.1 request parsing and response serialization.
//!
//! The server speaks just enough HTTP for its routes. Parsing is
//! incremental: [`parse_bytes`] inspects a byte buffer and either yields
//! one complete request (plus how many bytes it consumed, so pipelined
//! requests behind it stay in the buffer) or reports that more bytes are
//! needed. Each connection thread feeds it the bytes it has read so
//! far.
//!
//! Requests are HTTP/1.1 keep-alive by default: a connection stays open
//! after a response unless the request was HTTP/1.0 (without
//! `Connection: keep-alive`), carried `Connection: close`, or failed to
//! parse. [`Response::head_bytes`] renders the header block for either
//! persistence mode with `Content-Length` always present, so responses
//! can be framed without sender-side close; [`Response::write_to`]
//! remains the one-shot close-mode serializer.
//!
//! Strict size limits bound memory: anything that fails them gets a
//! precise 4xx rather than a hang or a panic — the parser never indexes
//! unchecked and never allocates proportionally to attacker input
//! beyond the caps. Framing the parser cannot follow is refused rather
//! than guessed at (RFC 9112 §6.1, §6.3): any `Transfer-Encoding`
//! answers `501`, and differing `Content-Length` values answer `400`;
//! either way the connection then closes, so a body can never be
//! mistaken for the next pipelined request.

use std::io::Write;
use std::sync::Arc;

/// Upper bound on the request head (request line + all headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on the number of header lines.
pub const MAX_HEADERS: usize = 64;

/// Upper bound on a request body (`POST /query` specs are tiny; this is
/// orders of magnitude of headroom).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed request: head plus any `Content-Length` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The request target with any query string split off.
    pub path: String,
    /// The raw query string (bytes after `?`), empty when absent.
    pub query: String,
    /// Header `(name, value)` pairs in arrival order, names verbatim.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should persist after the response:
    /// HTTP/1.1 defaults to `true`, HTTP/1.0 to `false`, and a
    /// `Connection: close` / `keep-alive` header overrides either way.
    pub keep_alive: bool,
}

impl Request {
    /// Case-insensitive single-header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for a plain-text rendering.
    pub fn wants_plain_text(&self) -> bool {
        self.header("accept")
            .is_some_and(|accept| accept.contains("text/plain"))
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum RequestError {
    /// The head exceeded [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`].
    TooLarge,
    /// `Content-Length` exceeded [`MAX_BODY_BYTES`] (413 on the wire).
    BodyTooLarge,
    /// The bytes were not a well-formed HTTP/1.x request.
    Malformed(&'static str),
    /// The request uses a feature this server does not implement (501
    /// on the wire).
    Unsupported(&'static str),
}

/// What [`parse_bytes`] found at the front of the buffer.
#[derive(Debug)]
pub enum ParseOutcome {
    /// One complete request; `consumed` bytes belong to it and should be
    /// drained off the buffer before the next parse.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request occupied (head + body).
        consumed: usize,
    },
    /// The buffer holds only a prefix of a request so far.
    Partial {
        /// Whether the head is already complete (the parser is waiting
        /// on body bytes) — distinguishes "closed mid-head" from
        /// "closed mid-body" for callers that see EOF.
        head_done: bool,
    },
}

/// Incrementally parses the front of `buf` as one HTTP/1.x request.
///
/// The buffer may hold a partial request, exactly one, or several
/// pipelined back to back; only the first is parsed and `consumed`
/// reports where it ends. Re-invoking on a grown buffer is cheap: the
/// head is scanned for its terminating blank line first, and nothing is
/// allocated until the head is complete.
///
/// # Errors
///
/// See [`RequestError`]; the caller maps the variants onto
/// 431/413/400/501 responses.
pub fn parse_bytes(buf: &[u8]) -> Result<ParseOutcome, RequestError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RequestError::TooLarge);
        }
        return Ok(ParseOutcome::Partial { head_done: false });
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(RequestError::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RequestError::Malformed("non-UTF-8 in head"))?;
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(RequestError::Malformed("bad method"));
    }
    if !target.starts_with('/') {
        return Err(RequestError::Malformed("bad request target"));
    }
    if !(version.starts_with("HTTP/1.") && parts.next().is_none()) {
        return Err(RequestError::Malformed("bad HTTP version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break; // the blank line terminating the head
        }
        if headers.len() == MAX_HEADERS {
            return Err(RequestError::TooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RequestError::Malformed("header without ':'"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(RequestError::Malformed("bad header name"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    let mut request = Request {
        keep_alive: version != "HTTP/1.0",
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if let Some(connection) = request.header("connection") {
        let mut tokens = connection.split(',').map(str::trim);
        if tokens.any(|t| t.eq_ignore_ascii_case("close")) {
            request.keep_alive = false;
        } else if connection
            .split(',')
            .any(|t| t.trim().eq_ignore_ascii_case("keep-alive"))
        {
            request.keep_alive = true;
        }
    }
    if request.header("transfer-encoding").is_some() {
        return Err(RequestError::Unsupported("Transfer-Encoding"));
    }
    let mut consumed = head_end;
    let mut lengths = request
        .headers
        .iter()
        .filter(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .map(|(_, value)| value.as_str());
    if let Some(value) = lengths.next() {
        if lengths.any(|other| other != value) {
            return Err(RequestError::Malformed("conflicting Content-Length"));
        }
        let length: usize = value
            .parse()
            .map_err(|_| RequestError::Malformed("bad Content-Length"))?;
        if length > MAX_BODY_BYTES {
            return Err(RequestError::BodyTooLarge);
        }
        if buf.len() < head_end + length {
            return Ok(ParseOutcome::Partial { head_done: true });
        }
        request.body = buf[head_end..head_end + length].to_vec();
        consumed += length;
    }
    Ok(ParseOutcome::Complete { request, consumed })
}

/// Finds the byte offset just past the head's terminating blank line
/// (`\r\n\r\n`, or the bare-LF forms the parser tolerates). `None` when
/// the head is still incomplete.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    // An immediately-empty first line ("\r\n..." / "\n...") still counts
    // as a complete (malformed) head, matching the line-based parser.
    if buf.starts_with(b"\r\n") {
        return Some(2);
    }
    if buf.starts_with(b"\n") {
        return Some(1);
    }
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            let rest = &buf[i + 1..];
            if rest.starts_with(b"\r\n") {
                return Some(i + 3);
            }
            if rest.starts_with(b"\n") {
                return Some(i + 2);
            }
        }
        i += 1;
    }
    None
}

/// One response; the persistence mode is chosen at serialization time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra `Allow` header for 405 responses.
    pub allow: Option<&'static str>,
    /// Extra `Retry-After` header (seconds) for 500/503/504 responses
    /// whose failure is expected to heal.
    pub retry_after: Option<u64>,
    /// Response body bytes, in one allocation of exactly their length,
    /// shareable with the caches that hold them.
    pub body: Arc<[u8]>,
}

impl Response {
    /// A JSON body (already serialized), copied into a shared slice.
    pub fn json(status: u16, body: impl AsRef<[u8]>) -> Response {
        Response::shared_json(status, Arc::from(body.as_ref()))
    }

    /// A JSON body another cache already holds (a query engine answer):
    /// the response, and a response-cache entry made from it, share
    /// those bytes instead of copying them.
    pub fn shared_json(status: u16, body: Arc<[u8]>) -> Response {
        Response {
            status,
            content_type: "application/json",
            allow: None,
            retry_after: None,
            body,
        }
    }

    /// A plain-text body, copied into a shared slice.
    pub fn text(status: u16, body: impl AsRef<[u8]>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            allow: None,
            retry_after: None,
            body: Arc::from(body.as_ref()),
        }
    }

    /// A `405 Method Not Allowed` advertising the one accepted method.
    pub fn method_not_allowed(allow: &'static str) -> Response {
        Response {
            status: 405,
            content_type: "text/plain; charset=utf-8",
            allow: Some(allow),
            retry_after: None,
            body: Arc::from(format!("method not allowed; use {allow}\n").as_bytes()),
        }
    }

    /// Adds a `Retry-After: {seconds}` header (how soon a retry of a
    /// failed target may succeed).
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// Renders the full header block — status line through the blank
    /// line — for the given persistence mode. `Content-Length` is always
    /// present, so the body that follows is self-framing either way.
    pub fn head_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            connection,
        );
        if let Some(allow) = self.allow {
            head.push_str("Allow: ");
            head.push_str(allow);
            head.push_str("\r\n");
        }
        if let Some(seconds) = self.retry_after {
            head.push_str("Retry-After: ");
            head.push_str(&seconds.to_string());
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        head.into_bytes()
    }

    /// Serializes status line, headers, and body onto `out` in one-shot
    /// close mode (`Connection: close`).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (the connection is closed anyway).
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(&self.head_bytes(false))?;
        out.write_all(&self.body)?;
        out.flush()
    }
}

/// The standard reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as one whole request; incomplete input is a test
    /// bug (those cases assert [`ParseOutcome::Partial`] directly).
    fn parse(raw: &str) -> Result<Request, RequestError> {
        match parse_bytes(raw.as_bytes())? {
            ParseOutcome::Complete { request, .. } => Ok(request),
            ParseOutcome::Partial { .. } => panic!("{raw:?} is incomplete"),
        }
    }

    #[test]
    fn parses_a_minimal_get() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\nAccept: text/plain\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.query, "");
        assert!(req.body.is_empty());
        assert_eq!(req.header("accept"), Some("text/plain"));
        assert_eq!(req.header("ACCEPT"), Some("text/plain"));
        assert!(req.wants_plain_text());
    }

    #[test]
    fn splits_the_query_string_off_the_path() {
        let req = parse("GET /query?workload=fft&node=7nm HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.path, "/query");
        assert_eq!(req.query, "workload=fft&node=7nm");
        // A bare '?' leaves an empty query, not a mangled path.
        let req = parse("GET /query? HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/query");
        assert_eq!(req.query, "");
    }

    #[test]
    fn reads_a_content_length_body() {
        let req =
            parse("POST /query HTTP/1.1\r\nContent-Length: 19\r\n\r\n{\"workload\": \"fft\"}")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"workload\": \"fft\"}");
    }

    #[test]
    fn caps_and_validates_the_body() {
        let over = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&over), Err(RequestError::BodyTooLarge)));
        // A non-numeric length is malformed, not a hang.
        let bad = "POST /query HTTP/1.1\r\nContent-Length: ten\r\n\r\n";
        assert!(matches!(parse(bad), Err(RequestError::Malformed(_))));
        // A truncated body waits for more bytes, not a short read.
        let short = b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            parse_bytes(short),
            Ok(ParseOutcome::Partial { head_done: true })
        ));
    }

    #[test]
    fn refuses_framing_it_cannot_follow() {
        // Any transfer coding: 501, whatever the coding or its case.
        for raw in [
            "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\n{}{}\r\n0\r\n\r\n",
            "POST /query HTTP/1.1\r\ntransfer-encoding: gzip, chunked\r\nContent-Length: 2\r\n\r\n{}",
        ] {
            assert!(
                matches!(parse(raw), Err(RequestError::Unsupported(_))),
                "{raw:?} should be refused"
            );
        }
        assert_eq!(reason(501), "Not Implemented");
        // Differing lengths are malformed; a repeated equal one is not.
        let conflicting = "POST /query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 19\r\n\r\n{\"workload\": \"fft\"}";
        assert!(matches!(
            parse(conflicting),
            Err(RequestError::Malformed("conflicting Content-Length"))
        ));
        let repeated = "POST /query HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\n{}";
        assert_eq!(parse(repeated).unwrap().body, b"{}");
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let req = parse("GET / HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/");
    }

    #[test]
    fn rejects_malformed_heads() {
        for raw in [
            "GET\r\n\r\n",                   // no target
            "GET /x\r\n\r\n",                // no version
            "get /x HTTP/1.1\r\n\r\n",       // lower-case method
            "GET x HTTP/1.1\r\n\r\n",        // target without leading slash
            "GET /x SMTP/1.0\r\n\r\n",       // wrong protocol
            "GET /x HTTP/1.1 extra\r\n\r\n", // trailing junk
            "GET /x HTTP/1.1\r\nno-colon\r\n\r\n",
            "GET /x HTTP/1.1\r\n: empty-name\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(RequestError::Malformed(_))),
                "{raw:?} should be malformed"
            );
        }
        // Nothing yet, or a head cut short, waits for more bytes.
        for raw in [&b""[..], b"GET /x HTTP/1.1\r\nHost"] {
            assert!(matches!(
                parse_bytes(raw),
                Ok(ParseOutcome::Partial { head_done: false })
            ));
        }
    }

    #[test]
    fn caps_head_size_and_header_count() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&long), Err(RequestError::TooLarge)));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "h: v\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(parse(&many), Err(RequestError::TooLarge)));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        // HTTP/1.1 defaults to keep-alive; 1.0 defaults to close.
        assert!(parse("GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        // Connection header overrides either default, case-insensitively
        // and inside token lists.
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: close, upgrade\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn parse_bytes_reports_partial_and_pipelined_requests() {
        // Partial head, then partial body, then complete + leftover.
        assert!(matches!(
            parse_bytes(b"GET / HTT").unwrap(),
            ParseOutcome::Partial { head_done: false }
        ));
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab").unwrap(),
            ParseOutcome::Partial { head_done: true }
        ));
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let ParseOutcome::Complete { request, consumed } = parse_bytes(two).unwrap() else {
            panic!("first request should be complete");
        };
        assert_eq!(request.path, "/a");
        assert_eq!(consumed, 19);
        let ParseOutcome::Complete { request, .. } = parse_bytes(&two[consumed..]).unwrap() else {
            panic!("second request should be complete");
        };
        assert_eq!(request.path, "/b");
    }

    /// Drains every complete request off the front of `buf`.
    fn drain_complete(buf: &mut Vec<u8>) -> Vec<Request> {
        let mut requests = Vec::new();
        loop {
            match parse_bytes(buf).unwrap() {
                ParseOutcome::Complete { request, consumed } => {
                    requests.push(request);
                    buf.drain(..consumed);
                }
                ParseOutcome::Partial { .. } => return requests,
            }
        }
    }

    #[test]
    fn incremental_parse_is_identical_at_every_split_boundary() {
        // A pipelined stream of three requests — query string, POST with
        // body, and a plain-text GET — split at every byte boundary; the
        // parsed sequence must match the single-buffer parse exactly.
        let stream: Vec<u8> = [
            &b"GET /query?workload=fft&lanes=4 HTTP/1.1\r\nHost: t\r\n\r\n"[..],
            &b"POST /query HTTP/1.1\r\nContent-Length: 19\r\n\r\n{\"workload\": \"fft\"}"[..],
            &b"GET /experiments/fig3a HTTP/1.1\r\nAccept: text/plain\r\nConnection: close\r\n\r\n"
                [..],
        ]
        .concat();
        let mut whole = stream.clone();
        let reference = drain_complete(&mut whole);
        assert_eq!(reference.len(), 3);
        assert!(whole.is_empty());
        for split in 1..stream.len() {
            let mut buf = stream[..split].to_vec();
            let mut requests = drain_complete(&mut buf);
            buf.extend_from_slice(&stream[split..]);
            requests.extend(drain_complete(&mut buf));
            assert_eq!(requests, reference, "split at byte {split} diverged");
            assert!(buf.is_empty(), "split at byte {split} left residue");
        }
    }

    #[test]
    fn responses_serialize_with_length_and_close() {
        let mut out = Vec::new();
        Response::text(200, "ok\n").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));

        let mut out = Vec::new();
        Response::method_not_allowed("GET")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert!(text.contains("Allow: GET\r\n"));

        let mut out = Vec::new();
        Response::json(504, "{}")
            .with_retry_after(2)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 504 Gateway Timeout\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
    }

    #[test]
    fn head_bytes_renders_both_persistence_modes() {
        let response = Response::json(200, "{}");
        let keep = String::from_utf8(response.head_bytes(true)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert!(keep.contains("Content-Length: 2\r\n"));
        assert!(keep.ends_with("\r\n\r\n"));
        let close = String::from_utf8(response.head_bytes(false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
    }
}
