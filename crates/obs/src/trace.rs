//! Request tracing: deterministic trace ids, span timelines and a
//! bounded ring buffer of finished traces.
//!
//! A trace id is the hex rendering of a per-process atomic counter —
//! never wall-clock randomness — so issuing one costs a relaxed
//! `fetch_add` and cannot perturb any deterministic computation.
//! Timelines record `(stage, start, duration)` spans relative to the
//! recorder's creation; the store keeps the most recent timelines for
//! `GET /v1/traces/:id`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Issues the next trace id: 16 lowercase hex digits of a per-process
/// counter (`0000000000000001`, `0000000000000002`, …).
pub fn next_trace_id() -> String {
    format!("{:016x}", NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
}

/// One completed span inside a timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage tag (`parse`, `digest`, `cache_lookup`, `compute`,
    /// `serialize`, `write`, …).
    pub stage: &'static str,
    /// Microseconds from the recorder's creation to the span's start.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
}

/// Collects one request's (or job's) spans. Shareable by reference
/// across the handler → cache → compute call chain; recording locks a
/// private mutex for a push, which is uncontended in practice (one
/// recorder per request).
#[derive(Debug)]
pub struct SpanRecorder {
    id: String,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanRecorder {
    /// A recorder for trace `id`, with the clock origin at creation.
    pub fn new(id: String) -> SpanRecorder {
        SpanRecorder {
            id,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The trace id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Records a span for `stage` that began at `start` and ends now.
    pub fn record(&self, stage: &'static str, start: Instant) {
        let start_us = start
            .saturating_duration_since(self.origin)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let dur_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(Span {
                stage,
                start_us,
                dur_us,
            });
    }

    /// Times `f` as one `stage` span.
    pub fn time<T>(&self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(stage, start);
        out
    }

    /// The spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// A finished timeline, as stored and served by `GET /v1/traces/:id`.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// The trace id.
    pub id: String,
    /// Spans in completion order.
    pub spans: Vec<Span>,
}

struct StoreInner {
    order: VecDeque<String>,
    by_id: HashMap<String, Arc<StoredTrace>>,
}

/// Ring buffer of the most recent finished timelines.
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
}

impl TraceStore {
    /// A store keeping at most `capacity` timelines.
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            inner: Mutex::new(StoreInner {
                order: VecDeque::new(),
                by_id: HashMap::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Stores a finished recorder's timeline, evicting the oldest past
    /// capacity.
    pub fn store(&self, recorder: &SpanRecorder) {
        let trace = Arc::new(StoredTrace {
            id: recorder.id().to_owned(),
            spans: recorder.spans(),
        });
        let mut inner = self.inner.lock().expect("trace store poisoned");
        if inner
            .by_id
            .insert(trace.id.clone(), trace.clone())
            .is_none()
        {
            inner.order.push_back(trace.id.clone());
        }
        while inner.order.len() > self.capacity {
            if let Some(old) = inner.order.pop_front() {
                inner.by_id.remove(&old);
            }
        }
    }

    /// Looks a timeline up by trace id.
    pub fn get(&self, id: &str) -> Option<Arc<StoredTrace>> {
        let inner = self.inner.lock().expect("trace store poisoned");
        inner.by_id.get(id).cloned()
    }

    /// Stored timeline count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace store poisoned").order.len()
    }

    /// Whether the store holds no timelines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_distinct_hex() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn recorder_collects_ordered_spans() {
        let rec = SpanRecorder::new(next_trace_id());
        rec.time("parse", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        rec.time("compute", || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "parse");
        assert!(spans[0].dur_us >= 1_000, "{spans:?}");
        assert!(spans[1].start_us >= spans[0].start_us);
    }

    #[test]
    fn store_evicts_oldest() {
        let store = TraceStore::new(2);
        let ids: Vec<String> = (0..3)
            .map(|_| {
                let rec = SpanRecorder::new(next_trace_id());
                rec.time("s", || ());
                store.store(&rec);
                rec.id().to_owned()
            })
            .collect();
        assert_eq!(store.len(), 2);
        assert!(store.get(&ids[0]).is_none(), "oldest evicted");
        assert!(store.get(&ids[2]).is_some());
    }
}
