//! A minimal blocking HTTP/1.1 client for the service's own tooling —
//! `mobipriv-loadgen`, the perf bench, the shard router's upstream leg
//! and the socket tests all speak to the server through this one
//! implementation instead of carrying private copies of the
//! request/parse logic.
//!
//! [`Connection`] is the only response reader. It keeps one socket
//! open and frames responses by `Content-Length`, so warm loops reuse
//! the connection (and it transparently redials when the server closes
//! — idle deadline, request cap, restart). The free functions
//! ([`request`], [`request_with_timeout`], [`request_full`]) are
//! one-request `Connection`s that send `Connection: close`, paying a
//! fresh TCP connection per request. Two one-call readers pick a
//! top-level field out of the JSON documents the API returns
//! ([`json_str_field`], [`json_u64_field`], both on
//! [`mobipriv_eval::Json`]).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use mobipriv_eval::Json;

/// Response header pairs, names lowercased — see [`request_full`].
pub type Headers = Vec<(String, String)>;

/// Default per-read timeout for [`request`]/[`request_full`]. Callers
/// with tighter latency expectations (the load generator's soak
/// assertions, the resilience tests) pass their own via
/// [`request_with_timeout`] instead of inheriting this worst-case
/// ceiling.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// Sends one request over a fresh connection; returns `(status, body)`.
///
/// # Errors
///
/// Propagates connect/read/write failures, including a connection
/// closed before the status line and a reset or read timeout before the
/// server closes after its response; a response whose status line does
/// not parse reports status `0` rather than erroring.
pub fn request<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let (status, _, body) = request_full(addr, method, target, body)?;
    Ok((status, body))
}

/// [`request`] with a caller-chosen per-read timeout; returns
/// `(status, body)`.
///
/// # Errors
///
/// As for [`request`], including the timeout expiring mid-read.
pub fn request_with_timeout<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    target: &str,
    body: &[u8],
    read_timeout: Duration,
) -> std::io::Result<(u16, Vec<u8>)> {
    let (status, _, body) = one_shot(addr, method, target, body, read_timeout)?;
    Ok((status, body))
}

/// Sends one request over a fresh connection; returns
/// `(status, headers, body)` with header names lowercased — the variant
/// for callers that read response metadata such as `x-mobipriv-trace`
/// or `x-mobipriv-cache`.
///
/// # Errors
///
/// As for [`request`].
pub fn request_full<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, Headers, Vec<u8>)> {
    one_shot(addr, method, target, body, DEFAULT_READ_TIMEOUT)
}

fn one_shot<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    target: &str,
    body: &[u8],
    read_timeout: Duration,
) -> std::io::Result<(u16, Headers, Vec<u8>)> {
    let mut conn = Connection::connect(addr, read_timeout)?;
    conn.keep_alive = false;
    conn.request(method, target, body)
}

/// A persistent (keep-alive) client connection to one server.
///
/// Responses are framed by `Content-Length`, so the socket survives
/// across requests; when the server closes it instead (idle deadline,
/// per-connection request cap, restart, `connection: close` response)
/// the next request transparently redials. A request is sent a second
/// time, on a fresh socket, only when it failed the way a stale socket
/// fails: the socket had already carried a complete response (the
/// server may have idle-closed it since) and the failure is EOF, reset
/// or broken pipe before any status line. A read timeout, a failure on
/// a socket dialed for this request, or one after the status line is
/// the caller's error. The [`Connection::requests`] /
/// [`Connection::connects`] counters let callers report the achieved
/// reuse rate.
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    /// Whether `stream` has carried a complete response — the only
    /// kind of socket that can have gone stale.
    carried: bool,
    /// `false` asks the server to close after each response (the free
    /// functions' one-request connections).
    keep_alive: bool,
    read_timeout: Duration,
    requests: u64,
    connects: u64,
}

impl Connection {
    /// Dials `addr` eagerly (each resolution in turn, as
    /// [`TcpStream::connect`] does); redials go to the address that
    /// answered.
    ///
    /// # Errors
    ///
    /// Resolution or connect failure.
    pub fn connect<A: ToSocketAddrs>(addr: A, read_timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let mut conn = Connection {
            addr: stream.peer_addr()?,
            stream: None,
            carried: false,
            keep_alive: true,
            read_timeout,
            requests: 0,
            connects: 0,
        };
        conn.adopt(stream)?;
        Ok(conn)
    }

    /// The peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests completed over this handle.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// TCP connections dialed over this handle's lifetime; the reuse
    /// rate is `1 - connects/requests`.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Whether a socket is currently open (the next request will reuse
    /// it rather than dial).
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Sends one request and reads the `Content-Length`-framed
    /// response; returns `(status, headers, body)` with header names
    /// lowercased, exactly like [`request_full`].
    ///
    /// # Errors
    ///
    /// Connect/read/write failures after the one stale-socket retry
    /// described on [`Connection`]; a response whose status line does
    /// not parse reports status `0` rather than erroring.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Headers, Vec<u8>)> {
        self.request_typed(method, target, "text/csv", body)
    }

    /// [`Connection::request`] with an explicit request `content-type`
    /// — the shard router forwards the client's body verbatim and must
    /// forward its type (CSV vs NDJSON vs binary) with it.
    ///
    /// # Errors
    ///
    /// Same surface as [`Connection::request`].
    pub fn request_typed(
        &mut self,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Headers, Vec<u8>)> {
        let status_line = loop {
            // `disconnect` clears `carried`, so a retry is never retried.
            let reused = self.carried;
            match self.send(method, target, content_type, body) {
                Ok(line) => break line,
                Err(e) => {
                    self.disconnect();
                    let stale = matches!(
                        e.kind(),
                        ErrorKind::UnexpectedEof
                            | ErrorKind::ConnectionReset
                            | ErrorKind::ConnectionAborted
                            | ErrorKind::BrokenPipe
                    );
                    if !(reused && stale) {
                        return Err(e);
                    }
                }
            }
        };
        match self.read_response(&status_line) {
            Ok(response) => {
                self.requests += 1;
                Ok(response)
            }
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) -> std::io::Result<()> {
        stream.set_read_timeout(Some(self.read_timeout))?;
        // Requests here are strictly sequential request/response pairs:
        // disable Nagle so a small request is not held back waiting for
        // a delayed ACK of the previous response.
        let _ = stream.set_nodelay(true);
        self.connects += 1;
        self.stream = Some(BufReader::new(stream));
        self.carried = false;
        Ok(())
    }

    fn disconnect(&mut self) {
        self.stream = None;
        self.carried = false;
    }

    /// Writes the request (dialing first if no socket is open) and
    /// reads the response's status line.
    fn send(
        &mut self,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<String> {
        if self.stream.is_none() {
            self.adopt(TcpStream::connect(self.addr)?)?;
        }
        let close = if self.keep_alive {
            ""
        } else {
            "connection: close\r\n"
        };
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: client\r\ncontent-type: {content_type}\r\n\
             content-length: {}\r\n{close}\r\n",
            body.len()
        );
        let reader = self.stream.as_mut().expect("dialed above");
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        read_response_line(reader)
    }

    /// Reads the headers and body that follow `status_line`.
    fn read_response(&mut self, status_line: &str) -> std::io::Result<(u16, Headers, Vec<u8>)> {
        let reader = self.stream.as_mut().expect("open after a status line");
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .unwrap_or(0);
        let mut headers = Headers::new();
        let mut content_length: Option<u64> = None;
        let mut close = false;
        loop {
            let line = read_response_line(reader)?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            if name == "connection" && value.eq_ignore_ascii_case("close") {
                close = true;
            }
            headers.push((name, value));
        }
        let body = match content_length {
            Some(n) => {
                let mut buf = vec![0u8; usize::try_from(n).unwrap_or(usize::MAX)];
                reader.read_exact(&mut buf)?;
                buf
            }
            None => {
                // Unframed response: EOF delimits it, the socket is spent.
                close = true;
                let mut buf = Vec::new();
                reader.read_to_end(&mut buf)?;
                buf
            }
        };
        if !self.keep_alive {
            // A one-request connection returns only once the server has
            // closed it cleanly, as a read-to-EOF client would: by then
            // the server has finished the request, its accounting
            // included. A reset or a read timeout instead is an error.
            std::io::copy(reader, &mut std::io::sink())?;
            close = true;
        }
        if close {
            self.disconnect();
        } else {
            self.carried = true;
        }
        Ok((status, headers, body))
    }
}

/// Reads one CRLF-terminated response line (without the terminator),
/// erroring on EOF — a closed socket mid-head is never a valid
/// response.
fn read_response_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = Vec::new();
    let n = reader
        .by_ref()
        .take(64 * 1024)
        .read_until(b'\n', &mut line)?;
    if n == 0 {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "non-UTF-8 response head"))
}

/// The first value of `name` (lowercase) in a [`request_full`] header
/// list.
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// The string member `field` of the JSON object `body` (top level
/// only, escapes decoded); `None` when `body` is not a JSON object or
/// the member is missing or not a string.
pub fn json_str_field(body: &[u8], field: &str) -> Option<String> {
    top_level(body, field, |value| value.as_str().map(str::to_owned))
}

/// The non-negative integer member `field` of the JSON object `body`
/// (top level only); `None` as for [`json_str_field`].
pub fn json_u64_field(body: &[u8], field: &str) -> Option<u64> {
    top_level(body, field, Json::as_u64)
}

fn top_level<T>(body: &[u8], field: &str, read: impl FnOnce(&Json) -> Option<T>) -> Option<T> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get(field).and_then(read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    const READ_TIMEOUT: Duration = Duration::from_millis(400);

    /// A peer that answers the first request on its first connection
    /// with a framed `200 ok`, then does `after` with that socket.
    fn answer_once(listener: TcpListener, after: impl FnOnce(TcpStream) + Send + 'static) {
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream);
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).expect("request head");
                if line == "\r\n" || line.is_empty() {
                    break;
                }
            }
            let mut stream = reader.into_inner();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                .expect("answer");
            after(stream);
        });
    }

    #[test]
    fn a_freshly_dialed_socket_is_never_retried() {
        // Bound but silent: the kernel completes the handshake, nothing
        // ever answers. The socket `connect` dialed has carried no
        // response, so its timeout is the caller's error, not staleness.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = Connection::connect(listener.local_addr().unwrap(), READ_TIMEOUT).unwrap();
        assert!(conn.request("GET", "/healthz", b"").is_err());
        assert_eq!(conn.connects(), 1, "the failed request was re-sent");
        assert_eq!(conn.requests(), 0);
    }

    #[test]
    fn a_read_timeout_on_a_reused_socket_is_not_retried() {
        // Answers once, then holds the socket open and silent: the
        // second request times out on a socket that did carry a
        // response — a hung peer, not a stale socket.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Keep listening too, so a redial would connect and hang again.
        let silent = listener.try_clone().unwrap();
        let (hold, held) = std::sync::mpsc::channel();
        answer_once(listener, move |stream| hold.send(stream).unwrap());
        let mut conn = Connection::connect(addr, READ_TIMEOUT).unwrap();
        let (status, _, body) = conn.request("GET", "/healthz", b"").unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"ok"[..]));
        let started = Instant::now();
        assert!(conn.request("GET", "/healthz", b"").is_err());
        let elapsed = started.elapsed();
        assert_eq!(conn.connects(), 1, "the timed-out request was re-sent");
        assert!(
            elapsed < READ_TIMEOUT * 2,
            "one timeout, not two: {elapsed:?}"
        );
        drop((held, silent));
    }

    #[test]
    fn a_socket_closed_after_a_response_is_redialed_once() {
        // Answers once, then closes: the next request finds EOF before
        // any status line — the stale-socket race — and goes out again
        // on a fresh socket, which this listener answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let second = listener.try_clone().unwrap();
        answer_once(listener, move |stream| {
            drop(stream);
            answer_once(second, drop);
        });
        let mut conn = Connection::connect(addr, READ_TIMEOUT).unwrap();
        assert_eq!(conn.request("GET", "/a", b"").unwrap().0, 200);
        assert_eq!(conn.request("GET", "/b", b"").unwrap().0, 200);
        assert_eq!((conn.requests(), conn.connects()), (2, 2));
    }

    #[test]
    fn a_one_request_connection_must_end_in_a_clean_close() {
        // A framed answer followed by a clean close is the response.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        answer_once(listener, drop);
        let (status, body) =
            request_with_timeout(addr, "GET", "/healthz", b"", READ_TIMEOUT).unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"ok"[..]));

        // The same answer from a peer that then holds the socket open,
        // despite `connection: close`, is an error — as it is for a
        // read-to-EOF client.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (hold, held) = std::sync::mpsc::channel();
        answer_once(listener, move |stream| hold.send(stream).unwrap());
        assert!(request_with_timeout(addr, "GET", "/healthz", b"", READ_TIMEOUT).is_err());
        drop(held);
    }

    #[test]
    fn field_scrapers_read_flat_documents() {
        let doc = br#"{"id":"8c1a63df56032b9d","status":"done","computations":7,"nested":{"x":1}}"#;
        assert_eq!(
            json_str_field(doc, "id").as_deref(),
            Some("8c1a63df56032b9d")
        );
        assert_eq!(json_str_field(doc, "status").as_deref(), Some("done"));
        assert_eq!(json_str_field(doc, "missing"), None);
        assert_eq!(json_u64_field(doc, "computations"), Some(7));
        assert_eq!(json_u64_field(doc, "id"), None, "string is not a number");
        assert_eq!(json_u64_field(doc, "x"), None, "nested-only member");
        // Only top-level members count: a nested `status` (or count)
        // earlier in the document must not shadow the real one.
        let doc = br#"{"attempts":[{"status":"failed","n":9}],"status":"done","n":2}"#;
        assert_eq!(json_str_field(doc, "status").as_deref(), Some("done"));
        assert_eq!(json_u64_field(doc, "n"), Some(2));
        // Escaped quotes stay inside the string.
        let doc = br#"{"error":"bad \"alpha\" value","id":"7"}"#;
        assert_eq!(
            json_str_field(doc, "error").as_deref(),
            Some(r#"bad "alpha" value"#)
        );
    }
}
