use std::error::Error;
use std::fmt;

use mobipriv_core::CoreError;
use mobipriv_model::ModelError;

/// A request-scoped failure, carrying the HTTP status it maps to.
///
/// The variants mirror the error surface a client can trigger; anything
/// that is the server's own fault collapses into [`ServiceError::Internal`].
///
/// The type is `Clone` so a single-flight leader's failure can be
/// handed verbatim to every coalesced follower — all callers of a
/// failed flight observe byte-identical error responses.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ServiceError {
    /// Malformed request: bad query parameters, unparsable body (the
    /// message carries the offending line number), invalid framing. 400.
    BadRequest(String),
    /// No route matches the request path. 404.
    NotFound(String),
    /// The path exists but not under this method; the payload is the
    /// `Allow` header value. 405.
    MethodNotAllowed(&'static str),
    /// The client trickled its request slower than the per-socket
    /// timeout (slow-loris); the connection is closed after this. 408.
    ClientTimeout(String),
    /// The body exceeds the configured limit (payload is the limit in
    /// bytes). 413.
    PayloadTooLarge(u64),
    /// The job queue is full or the server is shutting down. 503.
    Unavailable(String),
    /// The node is degraded (open circuit breaker or deep queue): cold
    /// computes are shed; the payload is the `Retry-After` value in
    /// seconds. 503.
    Overloaded(u64),
    /// Unexpected server-side failure. 500.
    Internal(String),
    /// The request's compute budget ran out before the computation
    /// finished; the payload is the budget in milliseconds. 504.
    DeadlineExceeded(u64),
}

impl ServiceError {
    /// The HTTP status code and reason phrase for this error.
    pub fn status(&self) -> (u16, &'static str) {
        let code = match self {
            ServiceError::BadRequest(_) => 400,
            ServiceError::NotFound(_) => 404,
            ServiceError::MethodNotAllowed(_) => 405,
            ServiceError::ClientTimeout(_) => 408,
            ServiceError::PayloadTooLarge(_) => 413,
            ServiceError::Unavailable(_) | ServiceError::Overloaded(_) => 503,
            ServiceError::Internal(_) => 500,
            ServiceError::DeadlineExceeded(_) => 504,
        };
        (code, crate::http::reason_phrase(code))
    }

    /// Whether retrying the same request later can plausibly succeed
    /// without the client changing anything — the transient side of the
    /// job executor's transient-vs-permanent classification (see
    /// DESIGN.md §14). Permanent failures (malformed input, missing
    /// resources, an exhausted deadline that would simply exhaust
    /// again) are quarantined on the first attempt.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServiceError::Unavailable(_) | ServiceError::Overloaded(_) | ServiceError::Internal(_)
        )
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::NotFound(path) => write!(f, "no route for {path}"),
            ServiceError::MethodNotAllowed(allow) => {
                write!(f, "method not allowed (allowed: {allow})")
            }
            ServiceError::ClientTimeout(m) => {
                write!(f, "request timed out waiting for the client: {m}")
            }
            ServiceError::PayloadTooLarge(limit) => {
                write!(f, "request body exceeds {limit} bytes")
            }
            ServiceError::Unavailable(m) => write!(f, "unavailable: {m}"),
            ServiceError::Overloaded(retry_after_s) => write!(
                f,
                "overloaded: cold computes are shed while degraded, retry after {retry_after_s}s"
            ),
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
            ServiceError::DeadlineExceeded(budget_ms) => {
                write!(
                    f,
                    "deadline exceeded: compute budget of {budget_ms} ms exhausted"
                )
            }
        }
    }
}

impl Error for ServiceError {}

impl From<ModelError> for ServiceError {
    /// Body-parse failures are the client's fault (400, with the line
    /// number the model reader reports); I/O failures mid-body are not.
    fn from(e: ModelError) -> Self {
        match e {
            ModelError::Io(io) => ServiceError::Internal(format!("body read failed: {io}")),
            other => ServiceError::BadRequest(other.to_string()),
        }
    }
}

impl From<CoreError> for ServiceError {
    /// Mechanism construction fails only on invalid parameters (400).
    fn from(e: CoreError) -> Self {
        ServiceError::BadRequest(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping() {
        assert_eq!(ServiceError::BadRequest("x".into()).status().0, 400);
        assert_eq!(ServiceError::NotFound("/x".into()).status().0, 404);
        assert_eq!(ServiceError::MethodNotAllowed("GET").status().0, 405);
        assert_eq!(ServiceError::ClientTimeout("head".into()).status().0, 408);
        assert_eq!(ServiceError::PayloadTooLarge(1).status().0, 413);
        assert_eq!(ServiceError::Unavailable("full".into()).status().0, 503);
        assert_eq!(ServiceError::Overloaded(2).status().0, 503);
        assert_eq!(ServiceError::Internal("x".into()).status().0, 500);
        assert_eq!(ServiceError::DeadlineExceeded(50).status().0, 504);
    }

    #[test]
    fn transient_classification() {
        assert!(ServiceError::Unavailable("queue full".into()).is_transient());
        assert!(ServiceError::Overloaded(1).is_transient());
        assert!(ServiceError::Internal("panic".into()).is_transient());
        assert!(!ServiceError::BadRequest("x".into()).is_transient());
        assert!(!ServiceError::NotFound("/x".into()).is_transient());
        assert!(!ServiceError::DeadlineExceeded(10).is_transient());
        assert!(!ServiceError::PayloadTooLarge(1).is_transient());
        assert!(!ServiceError::ClientTimeout("head".into()).is_transient());
    }

    #[test]
    fn clones_render_identically() {
        let e = ServiceError::DeadlineExceeded(50);
        assert_eq!(e.to_string(), e.clone().to_string());
    }

    #[test]
    fn model_parse_errors_are_bad_requests_with_line_numbers() {
        let parse = ModelError::Parse {
            line: 7,
            offset: 118,
            message: "latitude 95 outside [-90, 90]".into(),
        };
        let e = ServiceError::from(parse);
        assert_eq!(e.status().0, 400);
        assert!(e.to_string().contains("line 7"));
        let io = ModelError::Io(std::io::Error::other("boom"));
        assert_eq!(ServiceError::from(io).status().0, 500);
    }
}
