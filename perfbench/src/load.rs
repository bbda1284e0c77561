//! The generator: closed- and open-loop runners over keep-alive
//! connections, and the per-op context that counts requests and
//! records their spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mobipriv_service::client::{Connection, Headers};

use crate::stats::{due_s, Failure, Timing};

/// Per-read timeout of generator connections: far above any op, so a
/// wedged server shows up as a failure rather than a hang.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One HTTP request inside an op, as the client saw it.
#[derive(Debug, Clone)]
pub struct Req {
    /// Route name, e.g. `POST /v1/datasets`.
    pub route: &'static str,
    /// Seconds after the run clock started.
    pub start: f64,
    /// Seconds after the run clock started.
    pub end: f64,
}

/// What an op body reports back to the loop running it.
#[derive(Debug, Default)]
pub struct OpResult {
    /// Job polls until `done`.
    pub polls: u32,
    /// Submit sent → `done` observed, seconds (jobs only).
    pub job_wait_s: f64,
}

/// One finished op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Op index within its phase.
    pub n: u64,
    /// Due/start/end, seconds after the phase clock started.
    pub timing: Timing,
    /// The op's verdict.
    pub outcome: Result<(), Failure>,
    /// Whether its request spans were recorded.
    pub traced: bool,
    /// HTTP requests the op made (polls included).
    pub requests: u32,
    /// Job polls.
    pub polls: u32,
    /// Submit → done, seconds.
    pub job_wait_s: f64,
    /// Request spans (traced ops only), on the run clock.
    pub reqs: Vec<Req>,
    /// The op's start on the run clock (for span files).
    pub run_start: f64,
}

/// The client side of one op: its connection, request count, when
/// its first request left and its last response arrived (the op's
/// timed interval: input building before and output checks after it
/// are generator work), and (when traced) its request spans.
pub struct OpCtx<'a> {
    conn: &'a mut Connection,
    run_clock: Instant,
    traced: bool,
    requests: u32,
    reqs: Vec<Req>,
    first_send: Option<Instant>,
    last_recv: Option<Instant>,
}

impl OpCtx<'_> {
    /// Sends one request; transport errors become [`Failure::Transport`].
    pub fn send(
        &mut self,
        route: &'static str,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<(u16, Headers, Vec<u8>), Failure> {
        let sent = Instant::now();
        self.first_send.get_or_insert(sent);
        let response = self.conn.request(method, target, body);
        let received = Instant::now();
        self.last_recv = Some(received);
        self.requests += 1;
        if self.traced {
            self.reqs.push(Req {
                route,
                start: sent.duration_since(self.run_clock).as_secs_f64(),
                end: received.duration_since(self.run_clock).as_secs_f64(),
            });
        }
        response.map_err(|_| Failure::Transport)
    }
}

/// What an op body is: given the op context and its index, run the
/// op and report its verdict.
pub type OpFn<'a> = dyn Fn(&mut OpCtx<'_>, u64) -> Result<OpResult, Failure> + Sync + 'a;

/// Everything a loop needs besides the op body.
pub struct Drive<'a> {
    /// Where to connect.
    pub entry: &'a str,
    /// Client threads, one keep-alive connection each.
    pub clients: usize,
    /// Timed phase length.
    pub seconds: f64,
    /// Record request spans on every other op.
    pub trace: bool,
    /// The run clock spans are recorded on.
    pub run_clock: Instant,
    /// Called with the number of ops completed so far after each op.
    pub on_done: &'a (dyn Fn(u64) + Sync),
}

fn run_op(
    conn: &mut Connection,
    drive: &Drive<'_>,
    op: &OpFn<'_>,
    n: u64,
    clock: Instant,
    due: f64,
) -> OpRecord {
    let traced = drive.trace && n % 2 == 1;
    let called = Instant::now();
    let mut ctx = OpCtx {
        conn,
        run_clock: drive.run_clock,
        traced,
        requests: 0,
        reqs: Vec::new(),
        first_send: None,
        last_recv: None,
    };
    let result = op(&mut ctx, n);
    let returned = Instant::now();
    let first = ctx.first_send.unwrap_or(called);
    let on = |c: Instant, t: Instant| t.saturating_duration_since(c).as_secs_f64();
    let start = on(clock, first);
    let end = on(clock, ctx.last_recv.unwrap_or(returned));
    let run_start = on(drive.run_clock, first);
    let (outcome, polls, job_wait_s) = match result {
        Ok(r) => (Ok(()), r.polls, r.job_wait_s),
        Err(f) => (Err(f), 0, 0.0),
    };
    OpRecord {
        n,
        timing: Timing { due, start, end },
        outcome,
        traced,
        requests: ctx.requests,
        polls,
        job_wait_s,
        reqs: ctx.reqs,
        run_start,
    }
}

fn connect(entry: &str) -> Option<Connection> {
    Connection::connect(entry, READ_TIMEOUT).ok()
}

/// The record of an op that never left because its client could not
/// connect.
fn unconnected(n: u64, due: f64) -> OpRecord {
    OpRecord {
        n,
        timing: Timing {
            due,
            start: due,
            end: due,
        },
        outcome: Err(Failure::Transport),
        traced: false,
        requests: 0,
        polls: 0,
        job_wait_s: 0.0,
        reqs: Vec::new(),
        run_start: 0.0,
    }
}

/// A closed loop: each client runs ops back to back until the phase
/// ends; an op started before the deadline runs to completion.
/// Returns the records (by op index) and the timed wall seconds.
pub fn closed_loop(drive: &Drive<'_>, op: &OpFn<'_>) -> (Vec<OpRecord>, f64) {
    let next = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let clock = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..drive.clients {
            s.spawn(|| {
                let Some(mut conn) = connect(drive.entry) else {
                    let n = next.fetch_add(1, Ordering::SeqCst);
                    records.lock().expect("records").push(unconnected(n, 0.0));
                    return;
                };
                while clock.elapsed().as_secs_f64() < drive.seconds {
                    let n = next.fetch_add(1, Ordering::SeqCst);
                    let record = run_op(&mut conn, drive, op, n, clock, 0.0);
                    let record = OpRecord {
                        timing: Timing {
                            due: record.timing.start,
                            ..record.timing
                        },
                        ..record
                    };
                    records.lock().expect("records").push(record);
                    (drive.on_done)(done.fetch_add(1, Ordering::SeqCst) + 1);
                }
            });
        }
    });
    let mut records = records.into_inner().expect("records");
    records.sort_by_key(|r| r.n);
    let wall = records
        .iter()
        .map(|r| r.timing.end)
        .fold(drive.seconds, f64::max);
    (records, wall)
}

/// An open loop at `rate` ops/s: op `n` is due `n / rate` seconds
/// after the phase clock starts, and client `n % clients` sends it —
/// late if that client is still busy, never early. Ops due before the
/// phase ends are all sent. Returns the records and the timed wall
/// seconds.
pub fn open_loop(drive: &Drive<'_>, rate: f64, op: &OpFn<'_>) -> (Vec<OpRecord>, f64) {
    let done = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let clock = Instant::now();
    std::thread::scope(|s| {
        for client in 0..drive.clients {
            let (records, done, clock) = (&records, &done, &clock);
            s.spawn(move || {
                let Some(mut conn) = connect(drive.entry) else {
                    records
                        .lock()
                        .expect("records")
                        .push(unconnected(client as u64, 0.0));
                    return;
                };
                let mut mine = Vec::new();
                let mut n = client as u64;
                loop {
                    let due = due_s(n, rate);
                    if due >= drive.seconds {
                        break;
                    }
                    let now = clock.elapsed().as_secs_f64();
                    if due > now {
                        std::thread::sleep(Duration::from_secs_f64(due - now));
                    }
                    mine.push(run_op(&mut conn, drive, op, n, *clock, due));
                    (drive.on_done)(done.fetch_add(1, Ordering::SeqCst) + 1);
                    n += drive.clients as u64;
                }
                records.lock().expect("records").extend(mine);
            });
        }
    });
    let mut records = records.into_inner().expect("records");
    records.sort_by_key(|r| r.n);
    let wall = records
        .iter()
        .map(|r| r.timing.end)
        .fold(drive.seconds, f64::max);
    (records, wall)
}
