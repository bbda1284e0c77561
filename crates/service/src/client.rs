//! A minimal blocking HTTP/1.1 client for the service's own tooling —
//! `mobipriv-loadgen`, the perf bench, the shard router's upstream leg
//! and the smoke harnesses all speak to the server through this one
//! implementation instead of carrying private copies of the
//! request/parse logic.
//!
//! Two shapes: the free functions ([`request`], [`request_full`]) send
//! `Connection: close` and pay a fresh TCP connection per request;
//! [`Connection`] keeps one socket open and frames responses by
//! `Content-Length`, so warm loops reuse the connection (and it
//! transparently reconnects when the server closes — idle deadline,
//! request cap, restart). Fixed-length bodies only, plus two one-call
//! readers for a top-level field of the JSON documents the API returns
//! ([`json_str_field`], [`json_u64_field`], both on
//! [`mobipriv_eval::Json`]).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
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
/// Propagates connect/read/write failures; a response without a parsable
/// status line reports status `0` rather than erroring.
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
/// Propagates connect/read/write failures (including the timeout
/// expiring mid-read); a response without a parsable status line
/// reports status `0` rather than erroring.
pub fn request_with_timeout<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    target: &str,
    body: &[u8],
    read_timeout: Duration,
) -> std::io::Result<(u16, Vec<u8>)> {
    let (status, _, body) = exchange(addr, method, target, body, read_timeout)?;
    Ok((status, body))
}

/// Sends one request over a fresh connection; returns
/// `(status, headers, body)` with header names lowercased — the variant
/// for callers that read response metadata such as `x-mobipriv-trace`
/// or `x-mobipriv-cache`.
///
/// # Errors
///
/// Propagates connect/read/write failures; a response without a parsable
/// status line reports status `0` rather than erroring.
pub fn request_full<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, Headers, Vec<u8>)> {
    exchange(addr, method, target, body, DEFAULT_READ_TIMEOUT)
}

fn exchange<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    target: &str,
    body: &[u8],
    read_timeout: Duration,
) -> std::io::Result<(u16, Headers, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    // `connection: close` keeps the read-to-EOF parse below correct
    // against a keep-alive server (which would otherwise hold the
    // socket open waiting for the next request).
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: client\r\ncontent-type: text/csv\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let status = response
        .split(|&b| b == b' ')
        .nth(1)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or(0);
    let split = response.windows(4).position(|w| w == b"\r\n\r\n");
    let headers = split
        .and_then(|split| std::str::from_utf8(&response[..split]).ok())
        .map(|head| {
            head.lines()
                .skip(1) // status line
                .filter_map(|line| {
                    let (name, value) = line.split_once(':')?;
                    Some((name.trim().to_ascii_lowercase(), value.trim().to_owned()))
                })
                .collect()
        })
        .unwrap_or_default();
    let body = split
        .map(|split| response[split + 4..].to_vec())
        .unwrap_or_default();
    Ok((status, headers, body))
}

/// A persistent (keep-alive) client connection to one server.
///
/// Responses are framed by `Content-Length`, so the socket survives
/// across requests; when the server closes it instead (idle deadline,
/// per-connection request cap, restart, `connection: close` response)
/// the next request transparently redials — and a request that fails
/// on a *reused* socket is retried once on a fresh one, since a stale
/// pooled connection is indistinguishable from the server having
/// closed it a moment ago. The [`Connection::requests`] /
/// [`Connection::connects`] counters let callers report the achieved
/// reuse rate.
#[derive(Debug)]
pub struct Connection {
    addr: std::net::SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    read_timeout: Duration,
    requests: u64,
    connects: u64,
}

impl Connection {
    /// Resolves `addr` (first resolution wins) and dials it eagerly.
    ///
    /// # Errors
    ///
    /// Resolution or connect failure.
    pub fn connect<A: ToSocketAddrs>(addr: A, read_timeout: Duration) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        let mut conn = Connection {
            addr,
            stream: None,
            read_timeout,
            requests: 0,
            connects: 0,
        };
        conn.dial()?;
        Ok(conn)
    }

    /// The resolved peer address.
    pub fn addr(&self) -> std::net::SocketAddr {
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
    /// described on [`Connection`]; a response without a parsable
    /// status line reports status `0` rather than erroring.
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
        let mut attempt = 0;
        loop {
            let reused = self.stream.is_some();
            match self.try_request(method, target, content_type, body) {
                Ok(response) => {
                    self.requests += 1;
                    return Ok(response);
                }
                Err(e) => {
                    self.stream = None;
                    // Only a first failure on a reused socket is
                    // plausibly just staleness; a fresh socket failing
                    // is a real error the caller must see.
                    if !reused || attempt > 0 {
                        return Err(e);
                    }
                    attempt += 1;
                }
            }
        }
    }

    fn dial(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        // Requests here are strictly sequential request/response pairs:
        // disable Nagle so a small request is not held back waiting for
        // a delayed ACK of the previous response.
        let _ = stream.set_nodelay(true);
        self.connects += 1;
        self.stream = Some(BufReader::new(stream));
        Ok(())
    }

    fn try_request(
        &mut self,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Headers, Vec<u8>)> {
        if self.stream.is_none() {
            self.dial()?;
        }
        let reader = self.stream.as_mut().expect("dialed above");
        let stream = reader.get_mut();
        write!(
            stream,
            "{method} {target} HTTP/1.1\r\nhost: client\r\ncontent-type: {content_type}\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        )?;
        stream.write_all(body)?;
        stream.flush()?;
        let status_line = read_response_line(reader)?;
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
        if close {
            self.stream = None;
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
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response head")
    })
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
