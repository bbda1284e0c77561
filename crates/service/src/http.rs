//! A minimal, allocation-conscious HTTP/1.1 layer on `std::io`.
//!
//! Only the subset the service needs: request-head parsing with strict
//! size caps, body streaming for both `Content-Length` and
//! `Transfer-Encoding: chunked` framing (the body never materializes —
//! it is pushed to a caller-supplied sink in bounded chunks), and
//! response writing. Connections are persistent (HTTP/1.1 keep-alive):
//! responses are `Content-Length`-framed so the same socket carries
//! sequential requests, and [`DeadlineReader::wait_for_request`] parks
//! a worker between them under an idle deadline. `Connection: close` (or
//! an HTTP/1.0 request without `Connection: keep-alive`) restores the
//! old one-request-per-connection behavior.

use std::io::{BufRead, Write};

use crate::ServiceError;

/// Cap on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Read granularity for body streaming.
const BODY_CHUNK: usize = 16 * 1024;

/// The parsed request line and headers (the body stays on the wire
/// until [`stream_body`] pulls it).
#[derive(Debug, Clone)]
pub struct RequestHead {
    /// Request method, uppercase as sent (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the request target (no query).
    pub path: String,
    /// Decoded query parameters, in wire order.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// Whether the request line said `HTTP/1.1` (`false` = `HTTP/1.0`),
    /// which decides the default connection persistence.
    pub http11: bool,
}

/// How the request body is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// No body (no framing headers present).
    None,
    /// `Content-Length: n`.
    Length(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

impl RequestHead {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first query parameter with this name (same first-match
    /// semantics as [`Params`](crate::registry::Params), which it
    /// delegates to).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        crate::registry::Params(&self.query).get(name)
    }

    /// Whether the client asked for the connection to persist after
    /// this request: HTTP/1.1 defaults to keep-alive unless a
    /// `Connection` header lists `close`; HTTP/1.0 defaults to close
    /// unless it lists `keep-alive` (both matched token-wise, so
    /// `Connection: close, te` still closes).
    pub fn keep_alive(&self) -> bool {
        let token = |name: &str| {
            self.header("connection")
                .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(name)))
        };
        if self.http11 {
            !token("close")
        } else {
            token("keep-alive")
        }
    }

    /// Determines the body framing from the headers.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BadRequest`] on conflicting framing
    /// headers, an unparsable `Content-Length`, or an unsupported
    /// `Transfer-Encoding`.
    pub fn framing(&self) -> Result<BodyFraming, ServiceError> {
        let chunked = match self.header("transfer-encoding") {
            Some(te) if te.eq_ignore_ascii_case("chunked") => true,
            Some(te) => {
                return Err(ServiceError::BadRequest(format!(
                    "unsupported transfer-encoding `{te}`"
                )))
            }
            None => false,
        };
        // RFC 9112 §6.3: repeated Content-Length headers are a request-
        // desync vector (a front proxy may frame on a different one) —
        // reject rather than pick a winner.
        if self
            .headers
            .iter()
            .filter(|(k, _)| k == "content-length")
            .count()
            > 1
        {
            return Err(ServiceError::BadRequest(
                "multiple content-length headers".into(),
            ));
        }
        let length = self.header("content-length");
        match (chunked, length) {
            (true, Some(_)) => Err(ServiceError::BadRequest(
                "both content-length and chunked framing present".into(),
            )),
            (true, None) => Ok(BodyFraming::Chunked),
            (false, Some(v)) => v
                .trim()
                .parse::<u64>()
                .map(BodyFraming::Length)
                .map_err(|_| ServiceError::BadRequest(format!("invalid content-length `{v}`"))),
            (false, None) => Ok(BodyFraming::None),
        }
    }
}

/// Classifies a connection read failure: a timeout — the per-read
/// socket timeout (`WouldBlock`/`TimedOut` on Unix) or the
/// [`DeadlineReader`]'s whole-request budget — is the *client's*
/// slowness (slow-loris, stalled upload) and maps to
/// [`ServiceError::ClientTimeout`] (`408`, counted in
/// `mobipriv_client_timeouts_total`); anything else stays a `400`.
fn read_error(context: &str, e: &std::io::Error) -> ServiceError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            ServiceError::ClientTimeout(format!("{context}: {e}"))
        }
        _ => ServiceError::BadRequest(format!("{context}: {e}")),
    }
}

/// Reads one CRLF- (or LF-) terminated line, enforcing the remaining
/// budget with `overflow` as the error (request heads map overflow to
/// `413` so an oversized pipelined head gets a proper status; chunk-
/// framing lines stay a `400`). Returns the line without its terminator.
fn read_line<R: BufRead>(
    r: &mut R,
    budget: &mut usize,
    overflow: fn() -> ServiceError,
) -> Result<String, ServiceError> {
    let mut buf = Vec::new();
    loop {
        let available = r
            .fill_buf()
            .map_err(|e| read_error("connection read failed", &e))?;
        if available.is_empty() {
            return Err(ServiceError::BadRequest(
                "connection closed before a complete request".into(),
            ));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let consumed = match newline {
            Some(pos) => pos + 1,
            None => available.len(),
        };
        if consumed > *budget {
            return Err(overflow());
        }
        *budget -= consumed;
        match newline {
            Some(pos) => {
                buf.extend_from_slice(&available[..pos]);
                r.consume(consumed);
                break;
            }
            None => {
                buf.extend_from_slice(available);
                r.consume(consumed);
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map_err(|_| ServiceError::BadRequest("request head is not valid UTF-8".into()))
}

/// The error a request head larger than [`MAX_HEAD_BYTES`] maps to: a
/// `413`, so that on a persistent connection an oversized pipelined
/// head is answered with a real status (and a close) rather than a
/// generic `400`.
fn head_overflow() -> ServiceError {
    ServiceError::PayloadTooLarge(MAX_HEAD_BYTES as u64)
}

/// The error an oversized chunk-framing line maps to. Generic on
/// purpose: these budgets are protocol plumbing (a few bytes for the
/// inter-chunk CRLF), not a client-visible payload limit.
fn framing_overflow() -> ServiceError {
    ServiceError::BadRequest("protocol line exceeds its size budget".into())
}

/// Parses the request line and headers off the stream, leaving the
/// reader positioned at the first body byte.
///
/// # Errors
///
/// Returns [`ServiceError::BadRequest`] on malformed syntax, or
/// [`ServiceError::PayloadTooLarge`] for a head larger than
/// [`MAX_HEAD_BYTES`].
pub fn read_head<R: BufRead>(r: &mut R) -> Result<RequestHead, ServiceError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(r, &mut budget, head_overflow)?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(ServiceError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ServiceError::BadRequest(format!(
            "unsupported protocol version `{version}`"
        )));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    // Paths use plain percent-escapes; '+'-as-space is a *query*
    // (form-urlencoding) convention only, so `/a+b` must stay `/a+b`.
    let path = decode_component(raw_path, false)?;
    let query = match raw_query {
        Some(q) => parse_query(q)?,
        None => Vec::new(),
    };
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut budget, head_overflow)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ServiceError::BadRequest(format!("malformed header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    Ok(RequestHead {
        method: method.to_owned(),
        path,
        query,
        headers,
        http11: version == "HTTP/1.1",
    })
}

/// Decodes `%XX` escapes and `+` (as space) — the query-string
/// (form-urlencoding) convention.
///
/// # Errors
///
/// Returns [`ServiceError::BadRequest`] on truncated or non-hex escapes
/// and non-UTF-8 results.
pub fn percent_decode(s: &str) -> Result<String, ServiceError> {
    decode_component(s, true)
}

fn decode_component(s: &str, plus_as_space: bool) -> Result<String, ServiceError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Decode from raw bytes: slicing the str here could
                // split a multibyte UTF-8 character and panic.
                let hex = bytes.get(i + 1..i + 3).ok_or_else(|| {
                    ServiceError::BadRequest(format!("truncated percent-escape in `{s}`"))
                })?;
                let byte = match (hex_digit(hex[0]), hex_digit(hex[1])) {
                    (Some(hi), Some(lo)) => hi * 16 + lo,
                    _ => {
                        return Err(ServiceError::BadRequest(
                            "invalid percent-escape (expected two hex digits)".into(),
                        ))
                    }
                };
                out.push(byte);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out)
        .map_err(|_| ServiceError::BadRequest(format!("query is not valid UTF-8: `{s}`")))
}

/// A reader that fails once an overall wall-clock budget is exhausted.
///
/// Socket read timeouts are per-`read` and reset on every byte, so a
/// client trickling one byte per interval can hold a worker forever.
/// Wrapping the connection in a `DeadlineReader` turns the configured
/// timeout into a whole-request budget: head and body parsing both go
/// through it, and the first read past the deadline errors out with
/// `TimedOut` (mapped to a clean `408` by `read_error`).
#[derive(Debug)]
pub struct DeadlineReader<R> {
    inner: R,
    deadline: std::time::Instant,
    bytes_read: u64,
}

/// What arrived while a persistent connection waited for its next
/// request (see [`DeadlineReader::wait_for_request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextRequest {
    /// The first byte of a request arrived — parse it with [`read_head`].
    Arrived,
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// No request arrived within the idle deadline.
    IdleTimeout,
    /// The server's shutdown flag was observed while idle: drain.
    Drain,
}

impl<R> DeadlineReader<R> {
    /// Wraps `inner` with a budget of `budget` from now.
    pub fn new(inner: R, budget: std::time::Duration) -> Self {
        DeadlineReader {
            inner,
            deadline: std::time::Instant::now() + budget,
            bytes_read: 0,
        }
    }

    /// Re-arms the whole-request budget to `budget` from now — called
    /// at the start of each request on a persistent connection, so
    /// every request gets the same budget a fresh connection would.
    pub fn set_deadline(&mut self, budget: std::time::Duration) {
        self.deadline = std::time::Instant::now() + budget;
    }

    /// Total bytes consumed through this wrapper since construction.
    /// The connection loop diffs this across a handler call to learn
    /// whether a declared body was left unread (in which case the
    /// connection cannot be reused — the leftover bytes would be parsed
    /// as the next request head).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// The wrapped reader.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// The wrapped reader, shared.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    fn check(&self) -> std::io::Result<()> {
        if std::time::Instant::now() >= self.deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request exceeded its overall time budget",
            ));
        }
        Ok(())
    }
}

impl DeadlineReader<std::io::BufReader<std::net::TcpStream>> {
    /// Parks the connection until the first byte of the next request,
    /// then arms a fresh whole-request `budget` for [`read_head`] and
    /// the body. Callers start a request's clock after this returns
    /// [`NextRequest::Arrived`], so time spent parked is never charged
    /// to the request.
    ///
    /// Between requests the socket is polled in `poll`-sized slices so
    /// the shutdown flag and the `idle` deadline are both observed
    /// within one slice even while the connection sits parked; once a
    /// byte arrives the wait stops being idle and the per-request
    /// budget applies to the whole head, exactly as on a fresh
    /// connection. Pipelined bytes already buffered count as arrived
    /// data, so back-to-back requests never wait on the socket. The
    /// wait itself never errors: a transport error between requests
    /// reports [`NextRequest::Closed`].
    pub fn wait_for_request(
        &mut self,
        idle: std::time::Duration,
        poll: std::time::Duration,
        budget: std::time::Duration,
        shutdown: &std::sync::atomic::AtomicBool,
    ) -> NextRequest {
        use std::sync::atomic::Ordering;
        let idle_deadline = std::time::Instant::now() + idle;
        // The wait runs on the short socket timeout; park the request
        // deadline past the idle horizon so `fill_buf`'s own check
        // cannot fire while the connection is merely quiet.
        self.deadline = idle_deadline + budget;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return NextRequest::Drain;
            }
            let _ = self.inner.get_ref().set_read_timeout(Some(poll));
            match self.inner.fill_buf() {
                Ok([]) => return NextRequest::Closed,
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) =>
                {
                    if std::time::Instant::now() >= idle_deadline {
                        return NextRequest::IdleTimeout;
                    }
                }
                // A transport error between requests has no request to
                // answer — same as the peer going away.
                Err(_) => return NextRequest::Closed,
            }
        }
        // First byte seen: this is a live request. Restore the full
        // per-read socket timeout and arm the whole-request budget.
        let _ = self.inner.get_ref().set_read_timeout(Some(budget));
        self.deadline = std::time::Instant::now() + budget;
        NextRequest::Arrived
    }
}

impl<R: std::io::Read> std::io::Read for DeadlineReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.check()?;
        let n = self.inner.read(buf)?;
        self.bytes_read += n as u64;
        Ok(n)
    }
}

impl<R: BufRead> BufRead for DeadlineReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.check()?;
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.bytes_read += amt as u64;
        self.inner.consume(amt);
    }
}

/// Reads and discards up to `limit` bytes, stopping at EOF, the first
/// read error, or once `deadline` has elapsed (checked between reads —
/// combined with a per-read socket timeout this bounds total wall time
/// even against a client trickling one byte per read).
pub fn drain<R: std::io::Read>(r: &mut R, mut limit: u64, deadline: std::time::Duration) {
    let start = std::time::Instant::now();
    let mut buf = [0u8; BODY_CHUNK];
    while limit > 0 && start.elapsed() < deadline {
        let want = limit.min(BODY_CHUNK as u64) as usize;
        match r.read(&mut buf[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => limit -= n as u64,
        }
    }
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

fn parse_query(q: &str) -> Result<Vec<(String, String)>, ServiceError> {
    let mut out = Vec::new();
    for pair in q.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(out)
}

/// Streams the request body into `sink` in chunks of at most 16 KiB,
/// returning the total byte count. Enforces `max_bytes` for both
/// framings *before* buffering anything beyond the limit.
///
/// # Errors
///
/// * [`ServiceError::PayloadTooLarge`] when the body exceeds `max_bytes`;
/// * [`ServiceError::BadRequest`] on truncated bodies or malformed
///   chunked framing;
/// * whatever `sink` returns, propagated at the first failure.
pub fn stream_body<R, F>(
    r: &mut R,
    framing: BodyFraming,
    max_bytes: u64,
    mut sink: F,
) -> Result<u64, ServiceError>
where
    R: BufRead,
    F: FnMut(&[u8]) -> Result<(), ServiceError>,
{
    match framing {
        BodyFraming::None => Ok(0),
        BodyFraming::Length(len) => {
            if len > max_bytes {
                return Err(ServiceError::PayloadTooLarge(max_bytes));
            }
            copy_exact(r, len, &mut sink)?;
            Ok(len)
        }
        BodyFraming::Chunked => {
            let mut total: u64 = 0;
            let mut head_budget = MAX_HEAD_BYTES; // generous cap on framing lines
            loop {
                let size_line = read_line(r, &mut head_budget, framing_overflow)?;
                head_budget = MAX_HEAD_BYTES;
                let size_hex = size_line.split(';').next().unwrap_or("").trim();
                let size = u64::from_str_radix(size_hex, 16).map_err(|_| {
                    ServiceError::BadRequest(format!("invalid chunk size `{size_line}`"))
                })?;
                if size == 0 {
                    // Trailer section: lines until the blank terminator.
                    loop {
                        let trailer = read_line(r, &mut head_budget, framing_overflow)?;
                        if trailer.is_empty() {
                            return Ok(total);
                        }
                    }
                }
                total = total.saturating_add(size);
                if total > max_bytes {
                    return Err(ServiceError::PayloadTooLarge(max_bytes));
                }
                copy_exact(r, size, &mut sink)?;
                let mut crlf_budget = 4;
                let sep = read_line(r, &mut crlf_budget, framing_overflow)?;
                if !sep.is_empty() {
                    return Err(ServiceError::BadRequest(
                        "missing CRLF after chunk data".into(),
                    ));
                }
            }
        }
    }
}

fn copy_exact<R, F>(r: &mut R, mut remaining: u64, sink: &mut F) -> Result<(), ServiceError>
where
    R: BufRead,
    F: FnMut(&[u8]) -> Result<(), ServiceError>,
{
    let mut buf = [0u8; BODY_CHUNK];
    while remaining > 0 {
        let want = remaining.min(BODY_CHUNK as u64) as usize;
        let n = std::io::Read::read(r, &mut buf[..want])
            .map_err(|e| read_error("body read failed", &e))?;
        if n == 0 {
            return Err(ServiceError::BadRequest(
                "connection closed mid-body (truncated request)".into(),
            ));
        }
        sink(&buf[..n])?;
        remaining -= n as u64;
    }
    Ok(())
}

/// The reason phrase for a status the service sends — the one table
/// behind [`ServiceError::status`] and every success or forwarded
/// response (the router re-derives a shard's phrase from its status).
pub(crate) fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Writes a complete response (status line, headers, `Content-Length`,
/// `Connection: keep-alive|close`, body) and flushes. The explicit
/// `Content-Length` is what makes the connection reusable: the client
/// knows exactly where this response ends and the next may begin.
///
/// # Errors
///
/// Returns the underlying I/O error (the caller usually just drops the
/// connection at that point).
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(w, "HTTP/1.1 {status} {reason}\r\n")?;
    for (name, value) in headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        w,
        "content-length: {}\r\nconnection: {connection}\r\n\r\n",
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn head_of(raw: &str) -> RequestHead {
        read_head(&mut Cursor::new(raw.as_bytes())).unwrap()
    }

    #[test]
    fn parses_request_line_query_and_headers() {
        let h = head_of(
            "POST /v1/anonymize?mechanism=promesse&alpha=100&seed=42 HTTP/1.1\r\n\
             Host: localhost\r\nContent-Length: 12\r\n\r\n",
        );
        assert_eq!(h.method, "POST");
        assert_eq!(h.path, "/v1/anonymize");
        assert_eq!(h.query_param("mechanism"), Some("promesse"));
        assert_eq!(h.query_param("alpha"), Some("100"));
        assert_eq!(h.query_param("seed"), Some("42"));
        assert_eq!(h.header("host"), Some("localhost"));
        assert_eq!(h.framing().unwrap(), BodyFraming::Length(12));
    }

    #[test]
    fn decodes_percent_escapes() {
        let h = head_of("GET /x?a=1%2C2&b=hello+world HTTP/1.1\r\n\r\n");
        assert_eq!(h.query_param("a"), Some("1,2"));
        assert_eq!(h.query_param("b"), Some("hello world"));
        assert!(percent_decode("%zz").is_err());
        assert!(percent_decode("%2").is_err());
        // '%' followed by a multibyte UTF-8 char must error, not panic
        // (the hex window would split the character).
        assert!(percent_decode("%€").is_err());
        assert!(percent_decode("a%é b").is_err());
        // '+' is literal in paths, space only in queries.
        let h = head_of("GET /a+b?q=c+d HTTP/1.1\r\n\r\n");
        assert_eq!(h.path, "/a+b");
        assert_eq!(h.query_param("q"), Some("c d"));
    }

    #[test]
    fn rejects_malformed_heads() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/2.0\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "",
        ] {
            assert!(
                read_head(&mut Cursor::new(raw.as_bytes())).is_err(),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn rejects_oversized_head_with_413() {
        let raw = format!(
            "GET /x HTTP/1.1\r\nx: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        let err = read_head(&mut Cursor::new(raw.as_bytes())).unwrap_err();
        assert_eq!(err.status().0, 413, "oversized head maps to 413");
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let h = head_of("GET /x HTTP/1.1\r\n\r\n");
        assert!(h.keep_alive(), "1.1 defaults to keep-alive");
        let h = head_of("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!h.keep_alive());
        let h = head_of("GET /x HTTP/1.1\r\nConnection: close, te\r\n\r\n");
        assert!(!h.keep_alive(), "token list with close still closes");
        let h = head_of("GET /x HTTP/1.0\r\n\r\n");
        assert!(!h.keep_alive(), "1.0 defaults to close");
        let h = head_of("GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
        assert!(h.keep_alive(), "1.0 opts in explicitly");
    }

    #[test]
    fn framing_conflicts_are_rejected() {
        let h =
            head_of("POST /x HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(h.framing().is_err());
        let h = head_of("POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n");
        assert!(h.framing().is_err());
        let h = head_of("POST /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
        assert!(h.framing().is_err());
        let h = head_of("POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 500\r\n\r\n");
        assert!(h.framing().is_err(), "duplicate content-length accepted");
    }

    fn collect_body(raw: &[u8], framing: BodyFraming, max: u64) -> Result<Vec<u8>, ServiceError> {
        let mut out = Vec::new();
        stream_body(&mut Cursor::new(raw), framing, max, |chunk| {
            out.extend_from_slice(chunk);
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn streams_fixed_length_bodies() {
        let body = collect_body(b"hello world", BodyFraming::Length(5), 100).unwrap();
        assert_eq!(body, b"hello");
        assert!(matches!(
            collect_body(b"hi", BodyFraming::Length(5), 100),
            Err(ServiceError::BadRequest(_))
        ));
        assert!(matches!(
            collect_body(b"hello", BodyFraming::Length(5), 4),
            Err(ServiceError::PayloadTooLarge(4))
        ));
    }

    #[test]
    fn streams_chunked_bodies() {
        let raw = b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let body = collect_body(raw, BodyFraming::Chunked, 100).unwrap();
        assert_eq!(body, b"hello world");
        // Chunk extension + trailer are tolerated.
        let raw = b"b;ext=1\r\nhello world\r\n0\r\nX-Trailer: 1\r\n\r\n";
        assert_eq!(
            collect_body(raw, BodyFraming::Chunked, 100).unwrap(),
            b"hello world"
        );
        // Over-limit chunked bodies are cut off at the cap.
        assert!(matches!(
            collect_body(b"5\r\nhello\r\n0\r\n\r\n", BodyFraming::Chunked, 4),
            Err(ServiceError::PayloadTooLarge(4))
        ));
        assert!(collect_body(b"zz\r\n", BodyFraming::Chunked, 100).is_err());
    }

    #[test]
    fn writes_well_formed_responses() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "OK",
            &[("content-type", "text/csv".into())],
            b"a,b\n",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: text/csv\r\n"));
        assert!(text.contains("content-length: 4\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\na,b\n"));
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", &[], b"", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("content-length: 0\r\n"));
    }
}
