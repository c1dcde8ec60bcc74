//! `dwc-loadbench`: drives a real `dwc serve` over TCP from request line
//! to post-fsync ack, checks every answer against the in-process oracle,
//! and prints the metrics `BENCHMARK.json` names. See `README.md`.

mod gen;
mod oracle;
mod server;
mod stats;
mod store;
mod trace;
mod traffic;
mod wire;

use gen::Inputs;
use oracle::Oracle;
use server::Server;
use stats::{median, ms, percentile, tail};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use traffic::{Progress, QueryOutcome, QueryPace, ReportOutcome, ReportPace, Window};
use wire::Conn;

const DEFAULT_SEED: u64 = 20260926;
/// The window `BENCHMARK.json` runs (`run_seconds`); `--quick` uses 5.
const DEFAULT_SECONDS: u64 = 12;
const WARMUP: Duration = Duration::from_secs(2);
/// How often a run repeats set-up and the cold start (`setup_s` and
/// `restart_ms` are medians): many times when each takes milliseconds, so
/// that the samples span about a second of the host's jitter, few when a
/// WAL tail makes each take about a second by itself.
fn repetitions(w: &Workload) -> (usize, usize) {
    if w.tail == 0 {
        (61, 21)
    } else {
        (5, 5)
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates. The other three a user
/// sees (`query_p50_ms`, `restart_ms`, `server_cpu_us_per_op`) are printed
/// by every run but bounded by none: see README, "Why six of nine".
const GATED: [&str; 6] = [
    "setup_s",
    "ack_rate",
    "ack_p50_ms",
    "query_rate",
    "wal_bytes_per_ack",
    "peak_rss_mb",
];
/// Reports still being sent after the window when the server is killed.
const COOLDOWN: Duration = Duration::from_millis(100);

/// One traffic mix. `tail` is the number of WAL records set-up leaves
/// behind the snapshot, i.e. what a cold start has to replay.
pub struct Workload {
    pub name: &'static str,
    pub tail: u64,
    pub reports: ReportPace,
    pub queries: QueryPace,
    /// Indices into `Inputs::queries` (Q1 Q2 Q3 Q7 Q8), walked round-robin.
    pub query_set: &'static [usize],
}

/// WAL records a `crash-restart` cold start replays (and the traced
/// pass's recovery probes, on every workload).
pub const REPLAY_TAIL: u64 = 500;

/// Reports per second of the background trickle. Not 20: at a 50 ms
/// spacing the client kernel's delayed-ACK estimator sits on a fence and
/// whole runs flip between ~10 ms and ~52 ms acks (README, "reply stall").
const TRICKLE: f64 = 10.0;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest-pipelined",
        tail: 0,
        reports: ReportPace::Window(256),
        queries: QueryPace::Rate(5.0),
        query_set: &[0],
    },
    Workload {
        name: "query-closed",
        tail: 0,
        reports: ReportPace::Rate(TRICKLE),
        queries: QueryPace::Closed,
        query_set: &[0, 1, 2, 3, 4],
    },
    Workload {
        name: "mixed-open",
        tail: 0,
        reports: ReportPace::Rate(50.0),
        queries: QueryPace::Rate(5.0),
        query_set: &[1],
    },
    Workload {
        name: "crash-restart",
        tail: REPLAY_TAIL,
        reports: ReportPace::Rate(TRICKLE),
        queries: QueryPace::Rate(5.0),
        query_set: &[0],
    },
];

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or other context for the human-readable listing.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

struct Opts {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: dwc-loadbench --workload <ingest-pipelined|query-closed|mixed-open|crash-restart>
                     [--seed N] [--seconds N | --quick] [--trace 0|1]
Run from the repository root. --quick is a 5 s window for smoke runs, not for gating.";

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload `{name}`\n{USAGE}"))?,
                );
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| format!("--seed: not a number\n{USAGE}"))?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| format!("--seconds: not a number\n{USAGE}"))?
            }
            "--quick" => seconds = 5,
            "--trace" => trace = value()? == "1",
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Set by SIGINT/SIGTERM; the main thread polls it wherever it waits, so
/// an interrupted run unwinds through the same drops that reap the
/// servers and remove the scratch directory.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's, which std already links; the
    // handler only stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

fn check_interrupt() -> Result<(), String> {
    if INTERRUPTED.load(Ordering::SeqCst) {
        return Err("interrupted".to_owned());
    }
    Ok(())
}

fn sleep_until(t: Instant) -> Result<(), String> {
    while let Some(left) = t.checked_duration_since(Instant::now()) {
        check_interrupt()?;
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
    check_interrupt()
}

/// The run's scratch directory, removed on drop (panic and interrupt
/// included).
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = PathBuf::from(format!("benchmark/out/run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds `dwc` from the checkout's sources (outside every timed span)
/// and returns the binary's path.
fn build_dwc() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "dwc"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(
            "`cargo build --release --bin dwc` failed (run from the repository root)".to_owned(),
        );
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
    let dwc = Path::new(&target).join("release/dwc");
    if dwc.is_file() {
        Ok(dwc)
    } else {
        Err(format!("{} was not built", dwc.display()))
    }
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_owned());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

/// What a run's phases 2–4 produced.
pub struct WindowResult {
    pub e2e: Vec<Metric>,
    pub client: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub ack_p50_ms: f64,
}

/// Phase 2, once: cold start on a fresh copy of the template store,
/// spawn → `listening on` → connect → `epoch` reply, in milliseconds.
fn timed_restart(dwc: &Path, template: &Path, dir: &Path) -> Result<f64, String> {
    server::copy_dir(template, dir)?;
    let server = Server::spawn(dwc, dir)?;
    let reply = Conn::connect(&server.addr)?.call("epoch")?;
    let took = server.spawned_at.elapsed();
    if !reply.starts_with("epoch ") {
        return Err(format!("epoch answered `{reply}`"));
    }
    server.kill();
    Ok(ms(took))
}

/// What phase 3 observed, from warm-up to the kill.
struct Traffic {
    reports: ReportOutcome,
    queries: QueryOutcome,
    /// Server and harness CPU seconds over the window.
    server_cpu_s: f64,
    client_cpu_s: f64,
    peak_rss_mb: f64,
    /// Store-directory growth between `listening on` and the kill.
    bytes_grown: u64,
    /// Report-stream prefixes sent and acked when the server died.
    sent: u64,
    acked: u64,
}

/// Phase 3: spawn on a fresh copy, drive both connections through
/// warm-up and window, kill the server with reports in flight.
fn traffic_phase(
    opts: &Opts,
    inputs: &Inputs,
    dwc: &Path,
    template: &Path,
    dir: &Path,
) -> Result<Traffic, String> {
    let w = opts.workload;
    server::copy_dir(template, dir)?;
    let server = Server::spawn(dwc, dir)?;
    let bytes_at_start = server::dir_bytes(dir)?;
    let mut report_conn = Conn::connect(&server.addr)?;
    let query_conn = Conn::connect(&server.addr)?;
    let grant = report_conn.hello(store::SOURCE)?;
    if grant != (0, w.tail) {
        return Err(format!(
            "server resumes at {grant:?}, set-up left epoch 0 seq {}",
            w.tail
        ));
    }
    let progress = Progress::default();
    progress.sent.store(w.tail, Ordering::Relaxed);
    progress.acked.store(w.tail, Ordering::Relaxed);
    let start = Instant::now();
    let t0 = start + WARMUP;
    let window = Window {
        start,
        t0,
        t1: t0 + Duration::from_secs(opts.seconds),
    };

    let (reports, queries, sampled) = std::thread::scope(|s| {
        let reporter = s.spawn(|| {
            traffic::run_reports(report_conn, inputs, grant, w.reports, window, &progress)
        });
        let querier = s.spawn(|| {
            traffic::run_queries(
                query_conn,
                inputs,
                w.query_set,
                w.queries,
                opts.trace,
                window,
                &progress,
            )
        });
        let sampled = (|| {
            sleep_until(window.t0)?;
            let (server0, own0) = (server.cpu_s()?, server::cpu_seconds("self")?);
            sleep_until(window.t1)?;
            let (server1, own1) = (server.cpu_s()?, server::cpu_seconds("self")?);
            let rss = server.peak_rss_mb()?;
            // The query thread's after-window calls (`stats`, probes).
            let give_up = Instant::now() + Duration::from_secs(60);
            while !progress.query_done.load(Ordering::Relaxed) && Instant::now() < give_up {
                sleep_until(Instant::now() + Duration::from_millis(5))?;
            }
            sleep_until(Instant::now() + COOLDOWN)?;
            Ok::<_, String>((server1 - server0, own1 - own0, rss))
        })();
        // Whatever happened above, the kill is what ends both threads.
        server.kill();
        let reports = reporter.join().expect("report thread panicked");
        let queries = querier.join().expect("query thread panicked");
        (reports, queries, sampled)
    });
    let (server_cpu_s, client_cpu_s, peak_rss_mb) = sampled?;
    Ok(Traffic {
        reports: reports?,
        queries: queries?,
        server_cpu_s,
        client_cpu_s,
        peak_rss_mb,
        bytes_grown: server::dir_bytes(dir)? - bytes_at_start,
        sent: progress.sent.load(Ordering::Relaxed),
        acked: progress.acked.load(Ordering::Relaxed),
    })
}

/// Phase 4: restart on the killed store. Returns the resume sequence (the
/// number of reports that survived), the ops this phase attempted, and
/// every failed check of the run.
fn check_phase(
    traffic: &Traffic,
    oracle: &Oracle,
    dwc: &Path,
    dir: &Path,
) -> Result<(u64, u64, Vec<String>), String> {
    let mut failures = traffic.reports.failures.clone();
    failures.extend(traffic.queries.failures.iter().cloned());
    let server = Server::spawn(dwc, dir)?;
    let mut conn = Conn::connect(&server.addr)?;
    let (_, survived) = conn.hello(store::SOURCE)?;
    if survived < traffic.acked || survived > traffic.sent {
        failures.push(format!(
            "restart resumes at seq {survived}, outside acked {} ..= sent {}",
            traffic.acked, traffic.sent
        ));
    }
    let mut wire_base = Vec::new();
    for name in oracle.catalog().relation_names() {
        wire_base.push((name, conn.query(name.as_str())?.digest));
    }
    server.kill();
    failures.extend(oracle.check_base(survived, &wire_base));
    failures.extend(oracle.check_answers(&traffic.queries.observations));
    Ok((survived, 1 + wire_base.len() as u64, failures))
}

/// Phases 2–4 of a run and the metrics they yield.
fn run_window(
    opts: &Opts,
    inputs: &Inputs,
    oracle: &Oracle,
    dwc: &Path,
    scratch: &Path,
    setup_s: f64,
) -> Result<WindowResult, String> {
    let w = opts.workload;
    let template = scratch.join("template");
    let dir = scratch.join("store");

    let mut restarts = Vec::new();
    for _ in 0..repetitions(w).1 {
        check_interrupt()?;
        restarts.push(timed_restart(dwc, &template, &dir)?);
    }
    let traffic = traffic_phase(opts, inputs, dwc, &template, &dir)?;
    let (survived, checked, failures) = check_phase(&traffic, oracle, dwc, &dir)?;
    let Traffic {
        reports, queries, ..
    } = &traffic;

    let secs = opts.seconds as f64;
    let need = |what: &str, v: Option<f64>| {
        v.ok_or(format!(
            "no {what} completed inside the window — nothing to report"
        ))
    };
    let query_ms: Vec<f64> = queries.query_ms.iter().map(|(_, t)| *t).collect();
    let ack_p50 = need("ack", median(&reports.ack_ms))?;
    let query_p50 = need("query", median(&query_ms))?;
    let (acks, answers) = (reports.ack_ms.len() as f64, query_ms.len() as f64);
    let durable = (survived - w.tail) as f64;
    let samples = |n: f64| format!("{n} samples");
    let quartile = |p: f64| percentile(&restarts, p).expect("at least one restart");
    let e2e = vec![
        Metric::new("setup_s", setup_s, "s").note(format!("median of {}", repetitions(w).0)),
        Metric::new("ack_rate", acks / secs, "1/s").note(samples(acks)),
        Metric::new("ack_p50_ms", ack_p50, "ms").note(samples(acks)),
        Metric::new("query_rate", answers / secs, "1/s").note(samples(answers)),
        Metric::new("query_p50_ms", query_p50, "ms").note(samples(answers)),
        Metric::new("restart_ms", quartile(0.5), "ms").note(format!(
            "median of {}, quartiles {:.1}–{:.1}",
            restarts.len(),
            quartile(0.25),
            quartile(0.75)
        )),
        Metric::new(
            "wal_bytes_per_ack",
            traffic.bytes_grown as f64 / durable,
            "B",
        )
        .note(format!("{durable} reports durable between spawn and kill")),
        Metric::new(
            "server_cpu_us_per_op",
            traffic.server_cpu_s * 1e6 / (acks + answers),
            "us",
        )
        .note(format!(
            "{:.2} s server CPU in the window",
            traffic.server_cpu_s
        )),
        Metric::new("peak_rss_mb", traffic.peak_rss_mb, "MiB"),
    ];

    let tail_of = |name: &str, xs: &[f64]| {
        let (label, v) = tail(xs).expect("non-empty checked above");
        Metric::new(name, v, "ms").note(format!("{label} of {}", xs.len()))
    };
    let lag: Vec<f64> = reports
        .sched_lag_ms
        .iter()
        .chain(&queries.sched_lag_ms)
        .copied()
        .collect();
    let mut client = vec![
        tail_of("client.ack_tail_ms", &reports.ack_ms),
        tail_of("client.query_tail_ms", &query_ms),
        Metric::new(
            "client.sched_lag_p99_ms",
            need("send", percentile(&lag, 0.99))?,
            "ms",
        )
        .note(samples(lag.len() as f64)),
        Metric::new(
            "client.inflight_at_end",
            reports.inflight_at_end as f64,
            "count",
        ),
        Metric::new("client.cpu_s", traffic.client_cpu_s, "s"),
    ];
    for (i, q) in inputs.queries.iter().enumerate() {
        let probe: Vec<f64> = queries
            .probe_ms
            .iter()
            .filter(|(k, _)| *k == i)
            .map(|(_, t)| *t)
            .collect();
        if let Some(p50) = median(&probe) {
            client.push(
                Metric::new(format!("client.query_p50_ms.{}", q.name), p50, "ms")
                    .note(samples(probe.len() as f64)),
            );
        }
    }
    client.extend(trace::stats_metrics(&queries.stats_line)?);
    Ok(WindowResult {
        e2e,
        client,
        attempted: reports.attempted + queries.attempted + checked,
        failures,
        ack_p50_ms: ack_p50,
    })
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("  {:<36} {:>14.4} {}{note}", m.name, m.value, m.unit);
    }
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    install_signal_handlers();
    let dwc = build_dwc()?;
    let scratch = Scratch::create()?;
    let spec = store::load_spec()?;
    let template = scratch.0.join("template");

    // Phase 1: set-up, repeated; the last repetition's products are used.
    let mut setup_times = Vec::new();
    let mut made = None;
    for _ in 0..repetitions(opts.workload).0 {
        check_interrupt()?;
        let _ = std::fs::remove_dir_all(&template);
        let began = Instant::now();
        let inputs = Inputs::generate(opts.seed);
        drop(store::build_store(
            &spec,
            &inputs,
            &template,
            opts.workload.tail,
        )?);
        let _ = Oracle::new(&inputs, spec.catalog());
        setup_times.push(began.elapsed().as_secs_f64());
        made = Some(inputs);
    }
    let inputs = made.expect("at least one repetition");
    let oracle = Oracle::new(&inputs, spec.catalog());
    let setup_s = median(&setup_times).expect("at least one repetition");

    let fsync_us = store::fsync_us(&scratch.0.join("fsync-probe"))?;
    let (prologue, cycle) = inputs.stream.shape();
    println!(
        "dwc-loadbench workload={} seed={} seconds={} trace={} commit={} nproc={} fs={} \
         storage.fsync_us={fsync_us:.1} inputs_fnv64={:016x} base_tuples={} stream={prologue}+{cycle}n",
        opts.workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        fs_type(&scratch.0),
        inputs.fingerprint(),
        inputs.base.total_tuples(),
    );

    let result = run_window(&opts, &inputs, &oracle, &dwc, &scratch.0, setup_s)?;
    print_metrics(
        if opts.trace {
            "end to end (traced run — not for gating)"
        } else {
            "end to end (query_p50_ms, restart_ms, server_cpu_us_per_op: reported, not gated)"
        },
        &result.e2e,
    );
    let (gated, mut layer): (Vec<Metric>, Vec<Metric>) = result
        .e2e
        .into_iter()
        .partition(|m| GATED.contains(&m.name.as_str()));
    if opts.trace {
        layer.extend(trace::layer_pass(
            &spec,
            &inputs,
            &dwc,
            &scratch.0,
            opts.workload,
            fsync_us,
        )?);
        layer.extend(result.client);
        layer.push(trace::stage_sum(&layer, result.ack_p50_ms)?);
        print_metrics("per layer", &layer);
    }
    for f in result.failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    let failed = result.failures.len() as u64;
    println!(
        "checks: {} ops attempted, {failed} failed; acked-prefix and oracle checks {}",
        result.attempted,
        if failed == 0 { "passed" } else { "FAILED" }
    );
    let metrics = if opts.trace { &layer } else { &gated };
    println!(
        "{}",
        json_line(failed == 0, result.attempted, failed, metrics)
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dwc-loadbench: {e}");
            ExitCode::from(2)
        }
    }
}
