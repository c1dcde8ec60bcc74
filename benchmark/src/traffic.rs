//! The traffic window: one report connection and one query connection,
//! one generator thread each (plus a blocked reader on the report side),
//! paced closed-loop or open-loop.
//!
//! Both threads run from the start of the warm-up until the server is
//! killed under them (the check wants reports in flight at the kill);
//! only operations *completing* inside `[t0, t1)` enter the window's
//! metrics. Open-loop operations are timed from their due time, so a
//! stall is charged to every request it delays, and the generator's own
//! lateness is reported as `sched_lag`.

use crate::gen::Inputs;
use crate::oracle::Observation;
use crate::stats::ms;
use crate::wire::{send_line, Conn, WireError, REPLY_LIMIT};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How the report connection paces itself.
#[derive(Clone, Copy, Debug)]
pub enum ReportPace {
    /// Closed loop on a window: keep this many reports in flight.
    Window(usize),
    /// Open loop: one report every `1/rate` seconds, whatever comes back.
    Rate(f64),
}

/// How the query connection paces itself.
#[derive(Clone, Copy, Debug)]
pub enum QueryPace {
    /// Closed loop: the next query leaves when the last row arrived.
    Closed,
    /// Open loop at a fixed rate.
    Rate(f64),
}

/// The measured interval, fixed before any thread starts.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Warm-up start: open-loop schedules count from here.
    pub start: Instant,
    pub t0: Instant,
    pub t1: Instant,
}

impl Window {
    fn contains(&self, t: Instant) -> bool {
        t >= self.t0 && t < self.t1
    }
}

/// Progress both threads publish for each other and for the main thread.
/// `sent`/`acked` are absolute report-stream prefixes. They publish no
/// other data, hence `Relaxed`; the one ordering the oracle bracket needs
/// — `acked` read before the query's `write`, `sent` read after the
/// answer's `read` — is given by program order plus the socket.
#[derive(Default)]
pub struct Progress {
    pub sent: AtomicU64,
    pub acked: AtomicU64,
    /// Set by the query thread once its after-window calls are done.
    pub query_done: AtomicBool,
}

#[derive(Default)]
pub struct ReportOutcome {
    /// Send/due → ack line, for acks inside the window.
    pub ack_ms: Vec<f64>,
    /// How late each in-window send left relative to its due time.
    pub sched_lag_ms: Vec<f64>,
    /// Reports in flight at the first look after `t1`.
    pub inflight_at_end: u64,
    /// Acks checked over the connection's whole life.
    pub attempted: u64,
    pub failures: Vec<String>,
}

#[derive(Default)]
pub struct QueryOutcome {
    /// (query index, send/due → last row) for answers inside the window.
    pub query_ms: Vec<(usize, f64)>,
    pub sched_lag_ms: Vec<f64>,
    /// Every answer received, in order, for the oracle.
    pub observations: Vec<Observation>,
    /// The `stats` line taken right after the window.
    pub stats_line: String,
    /// Traced runs only: (query index, ms) of the after-window probes.
    pub probe_ms: Vec<(usize, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Reads reply lines until the connection ends, stamping each with its
/// arrival time.
fn pump_replies(mut conn: Conn, tx: mpsc::Sender<Result<(Instant, String), WireError>>) {
    loop {
        let reply = match conn.read_line(Instant::now() + REPLY_LIMIT) {
            Ok(Some(line)) => Ok((Instant::now(), line)),
            Ok(None) => continue,
            Err(e) => Err(e),
        };
        let ended = reply.is_err();
        if tx.send(reply).is_err() || ended {
            return;
        }
    }
}

/// Drives the report connection until the server goes away: this thread
/// sends on schedule and accounts, a helper blocks in `read`.
pub fn run_reports(
    conn: Conn,
    inputs: &Inputs,
    grant: (u64, u64),
    pace: ReportPace,
    window: Window,
    progress: &Progress,
) -> Result<ReportOutcome, String> {
    let mut writer = conn.writer()?;
    let (tx, replies) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || pump_replies(conn, tx));
        send_reports(&mut writer, &replies, inputs, grant, pace, window, progress)
    })
}

fn send_reports(
    writer: &mut TcpStream,
    replies: &mpsc::Receiver<Result<(Instant, String), WireError>>,
    inputs: &Inputs,
    grant: (u64, u64),
    pace: ReportPace,
    window: Window,
    progress: &Progress,
) -> Result<ReportOutcome, String> {
    let (epoch, resume) = grant;
    let mut out = ReportOutcome::default();
    // Timing origin of each in-flight report, oldest first; acks arrive in
    // sequence order on the one session.
    let mut inflight: VecDeque<Instant> = VecDeque::new();
    let mut next_seq = resume;
    let mut next_ack = resume;
    let mut end_seen = false;
    let (cap, period) = match pace {
        ReportPace::Window(n) => (n, None),
        ReportPace::Rate(r) => (usize::MAX, Some(Duration::from_secs_f64(1.0 / r))),
    };
    let due_of = |seq: u64| period.map(|p| window.start + p.mul_f64((seq - resume) as f64));
    loop {
        let mut now = Instant::now();
        if !end_seen && now >= window.t1 {
            end_seen = true;
            out.inflight_at_end = inflight.len() as u64;
        }
        while inflight.len() < cap && due_of(next_seq).is_none_or(|due| due <= now) {
            let origin = due_of(next_seq).unwrap_or(now);
            if window.contains(now) {
                out.sched_lag_ms.push(ms(now - origin));
            }
            progress.sent.store(next_seq + 1, Ordering::Relaxed);
            match send_line(writer, &inputs.stream.get(next_seq).wire(epoch, next_seq)) {
                Ok(()) => {}
                Err(WireError::Closed) => return Ok(out),
                Err(e) => return Err(e.into()),
            }
            inflight.push_back(origin);
            next_seq += 1;
            now = Instant::now();
        }
        let overdue = inflight.front().map(|origin| *origin + REPLY_LIMIT);
        let deadline = [due_of(next_seq).filter(|_| inflight.len() < cap), overdue]
            .into_iter()
            .flatten()
            .min()
            .expect("window full or a send is scheduled");
        match replies.recv_timeout(deadline.saturating_duration_since(now)) {
            Ok(Err(WireError::Closed)) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Ok(out)
            }
            Ok(Err(e)) => return Err(e.into()),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if overdue.is_some_and(|t| Instant::now() >= t) {
                    return Err(format!("no ack for seq {next_ack} within {REPLY_LIMIT:?}"));
                }
            }
            Ok(Ok((at, line))) => {
                out.attempted += 1;
                if line == format!("ack {epoch} {next_ack} applied 1") {
                    let origin = inflight.pop_front().expect("an ack answers a sent report");
                    if window.contains(at) {
                        out.ack_ms.push(ms(at.saturating_duration_since(origin)));
                    }
                    next_ack += 1;
                    progress.acked.store(next_ack, Ordering::Relaxed);
                } else {
                    // A nack, an `err`, or an ack out of order: a failed op,
                    // and the sequencing after it is no longer meaningful.
                    out.failures
                        .push(format!("expected ack for seq {next_ack}, got `{line}`"));
                    return Ok(out);
                }
            }
        }
    }
}

/// Drives the query connection until the server goes away. `set` holds
/// indices into `inputs.queries`, walked round-robin. Right after `t1` it
/// takes the `stats` line and, when `probe` is set, times every workload
/// query `PROBES` times; then it raises `progress.query_done` and goes on.
pub fn run_queries(
    mut conn: Conn,
    inputs: &Inputs,
    set: &[usize],
    pace: QueryPace,
    probe: bool,
    window: Window,
    progress: &Progress,
) -> Result<QueryOutcome, String> {
    const PROBES: usize = 5;
    let mut out = QueryOutcome::default();
    let period = match pace {
        QueryPace::Closed => None,
        QueryPace::Rate(r) => Some(Duration::from_secs_f64(1.0 / r)),
    };
    let timed = |conn: &mut Conn, out: &mut QueryOutcome, q: usize, origin: Instant| {
        let lo = progress.acked.load(Ordering::Relaxed);
        let answer = conn.query(&inputs.queries[q].text)?;
        let at = Instant::now();
        let hi = progress.sent.load(Ordering::Relaxed);
        out.attempted += 1;
        out.observations.push(Observation {
            query: q,
            answer,
            lo,
            hi,
        });
        Ok::<_, WireError>((at, ms(at.saturating_duration_since(origin))))
    };
    let serve = |conn: &mut Conn, out: &mut QueryOutcome| -> Result<(), WireError> {
        let mut i = 0u64;
        loop {
            if Instant::now() >= window.t1 && !progress.query_done.load(Ordering::Relaxed) {
                out.stats_line = conn.call("stats")?;
                if probe {
                    for q in 0..inputs.queries.len() {
                        for _ in 0..PROBES {
                            let (_, took) = timed(conn, out, q, Instant::now())?;
                            out.probe_ms.push((q, took));
                        }
                    }
                }
                progress.query_done.store(true, Ordering::Relaxed);
            }
            let due = period.map(|p| window.start + p.mul_f64(i as f64));
            if let Some(wait) = due.and_then(|d| d.checked_duration_since(Instant::now())) {
                std::thread::sleep(wait);
            }
            let sent_at = Instant::now();
            let origin = due.unwrap_or(sent_at);
            let q = set[(i % set.len() as u64) as usize];
            let (at, took) = timed(conn, out, q, origin)?;
            if window.contains(at) {
                out.query_ms.push((q, took));
                out.sched_lag_ms.push(ms(sent_at - origin));
            }
            i += 1;
        }
    };
    let ended = serve(&mut conn, &mut out).expect_err("the query loop only ends by error");
    // Being killed after the window's work is done is the normal end.
    let done = progress.query_done.swap(true, Ordering::Relaxed);
    match ended {
        WireError::Closed if done => Ok(out),
        WireError::Unexpected(line) => {
            // An `err` or a malformed answer: a failed op, not a harness fault.
            out.attempted += 1;
            out.failures.push(format!("query answered `{line}`"));
            Ok(out)
        }
        e => Err(e.into()),
    }
}
