//! The warehouse server runtime: threads, sockets and timers around the
//! pure [`ServerCore`] state machine.
//!
//! Everything *deterministic* — sessions, batching, group commit, ack
//! minting, epoch publication — lives in `dwc_warehouse::server` and is
//! exercised by the scheduler test suites over a simulated filesystem.
//! This module adds only the unavoidable runtime shell:
//!
//! * one **engine thread** owning the [`ServerCore`], draining a
//!   channel of connection events with `recv_timeout` armed from
//!   [`ServerCore::next_deadline`] (so a pending batch commits on time
//!   even when no new envelope arrives — the classic lost-wakeup bug
//!   the deterministic tests pin down);
//! * one **acceptor thread** per listener ([`run`], on its caller's
//!   thread) plus, per connection, a command thread (`dwc-conn`) and —
//!   from `hello` on — an ack writer (`dwc-acks`); acks flow back over a
//!   per-session channel and reach the client asynchronously, strictly
//!   after their batch's fsync;
//! * queries never touch the engine thread at all: every connection
//!   holds a [`QueryClient`] answering against published epoch
//!   snapshots.
//!
//! ## The reply path: one reply, one write
//!
//! Accepted sockets are `TCP_NODELAY`, and every reply — header, all
//! rows, trailing newline — is rendered into the writer's reusable
//! [`LineBuf`] *before* the socket mutex is taken and leaves in a single
//! `write_all`. The ack writer blocks for one event, drains whatever
//! else the engine released meanwhile, and writes the batch the same
//! way, so a 64-envelope group commit costs its session one write, not
//! 128. A reply written as text-then-newline (two small writes) is held
//! by Nagle until the peer's delayed ACK: a flat ~44 ms on every
//! single-line reply after a connection's first, whatever the verb
//! (EXPERIMENTS.md E23). srclint S509 confines socket writes to the
//! encoder so that pattern cannot return; `tests/wire_props.rs` pins the
//! write counts, the bytes, and the absence of the stall for a client
//! that sets no socket option. What happens before an ack reaches
//! `route` — the S505 ack-after-fsync discipline — is untouched.
//!
//! ## Who owns the socket, who closes what
//!
//! The command thread owns the read half (a `try_clone`) and shares the
//! write half, behind a mutex, with its ack writer. The engine holds
//! only the *sender* of each session's ack channel, keyed by session and
//! tagged with a registration serial. When the command loop ends — `quit`,
//! EOF, a peer reset, any error — or the connection says `hello` again,
//! it sends `Disconnect` for its registration; the engine drops the
//! sender, the ack writer's `recv` fails and it exits, and the last
//! handle on the socket closes: the peer reads EOF and neither thread
//! nor descriptor outlives the connection. A source keeps its session id
//! across reconnects, so the serial is what keeps a late `Disconnect`
//! from removing the route its successor registered; replacing a route
//! on reconnect ends the previous writer the same way. Sessions and
//! cursors stay durable throughout, exactly as for a reaped session.
//!
//! ## Line protocol
//!
//! ```text
//! client → server                          server → client
//! ---------------                          ---------------
//! hello <source>                           session <id> <epoch> <next_seq>
//! report <epoch> <seq> insert Name (a=1)   ack <epoch> <seq> <outcome>   (async)
//! report <epoch> <seq> delete Name (a=1)
//! recover <n>  (then n report lines)       ack <epoch> <next_seq> recovered <k>
//! query <expr>                             result <epoch> <n> tuple(s) + rows
//! epoch                                    epoch <n>
//! ping                                     pong          (heartbeat; defers idle reaping)
//! stats                                    stats ... health=... parked=...
//! quit                                     (connection closes)
//! ```
//!
//! Under a degraded medium the server parks writes instead of acking
//! them (acks arrive after the retried commit lands), nacks writes
//! `err read-only: …` once the medium is permanently broken, and nacks
//! `err busy: …` when the pending backlog exceeds the admission bound.
//! Queries keep answering from the last published epoch throughout.
//!
//! `report` reuses the shell's update dialect (`Name (attr=value, …)`)
//! via [`crate::shell::parse_update`], so `dwc connect` feels exactly
//! like the local REPL with sequencing handled for you.

use crate::relalg::{Catalog, DbState, RaExpr, Relation};
use crate::shell::parse_update;
use crate::warehouse::integrator::{Integrator, IntegratorConfig};
use crate::warehouse::server::{
    Ack, BatchPolicy, Health, QueryClient, ServerCore, SessionGrant, SessionId,
};
use crate::warehouse::{
    AdaptivePolicy, DurabilityConfig, DurableWarehouse, Envelope, FsMedium, IngestConfig,
    IngestingIntegrator, Recovery, SourceId, StorageError, WarehouseSpec,
};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning for `dwc serve`.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Address to listen on (`127.0.0.1:0` picks a free port and prints
    /// it).
    pub addr: String,
    /// Group-commit size cap.
    pub max_batch: usize,
    /// Group-commit max wait in microseconds.
    pub max_wait_micros: u64,
    /// Cross-check `W(W⁻¹(w)) = w` when opening an existing directory.
    pub verify_on_open: bool,
    /// Reap sessions silent for longer than this many microseconds
    /// (`0` disables reaping). Reaping is lossless: the durable cursors
    /// let a reaped source reconnect and resume exactly.
    pub idle_timeout_micros: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        let p = BatchPolicy::default();
        ServeOptions {
            addr: "127.0.0.1:4710".to_owned(),
            max_batch: p.max_batch,
            max_wait_micros: p.max_wait_micros,
            verify_on_open: true,
            idle_timeout_micros: 0,
        }
    }
}

/// Opens `dir` as a durable warehouse for `spec`: recovers a committed
/// one (resuming every source session at its acked cursor), or creates
/// a fresh empty warehouse when the directory holds none.
pub fn open_or_create(
    spec: WarehouseSpec,
    dir: &str,
    config: DurabilityConfig,
) -> Result<(DurableWarehouse<FsMedium>, bool), String> {
    let aug = spec.clone().augment().map_err(|e| e.to_string())?;
    let medium = FsMedium::new(dir).map_err(|e| e.to_string())?;
    match Recovery::open(medium, aug.clone(), config) {
        Ok((dw, report)) => {
            eprintln!(
                "recovered from {} ({} records replayed, {} torn tail(s))",
                report.snapshot_used, report.records_replayed, report.torn_tails
            );
            for cursor in dw.ingestor().sequencing() {
                eprintln!(
                    "  source {:?} resumes at epoch {} seq {}",
                    cursor.source, cursor.epoch, cursor.next_seq
                );
            }
            // A v2 manifest re-arms the configured policy mode itself;
            // only legacy (pre-policy-byte) stores still need arming.
            Ok((dw, !report.policy_restored))
        }
        Err(StorageError::ManifestMissing) => {
            let empty = aug
                .materialize(&DbState::empty_for(aug.catalog()))
                .map_err(|e| e.to_string())?;
            let integ = Integrator::from_state(aug, empty, IntegratorConfig::default())
                .map_err(|e| e.to_string())?;
            let ingest =
                IngestingIntegrator::new(integ, IngestConfig::default()).map_err(|e| e.to_string())?;
            let medium = FsMedium::new(dir).map_err(|e| e.to_string())?;
            let dw = DurableWarehouse::create(medium, ingest, config).map_err(|e| e.to_string())?;
            eprintln!("created fresh warehouse in {dir}");
            Ok((dw, true))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// What the engine pushes down a session's ack channel; each is one
/// protocol line.
pub enum SessionEvent {
    /// `ack <epoch> <seq> <outcome>`, minted after its batch's fsync.
    Ack(Ack),
    /// `err <message>`.
    Error(String),
}

/// The line encoder every socket write in this module goes through.
/// Protocol lines are rendered into one reusable byte buffer and leave
/// through [`LineBuf::flush_to`] as a single `write`: one per reply, one
/// per drained ack batch, one per client request (srclint S509 keeps
/// socket writes from appearing anywhere else in this file).
#[derive(Default)]
pub struct LineBuf {
    bytes: Vec<u8>,
}

impl LineBuf {
    /// An empty buffer.
    pub fn new() -> LineBuf {
        LineBuf::default()
    }

    /// Appends `text` to the line under construction.
    pub fn push(&mut self, text: fmt::Arguments<'_>) {
        self.bytes
            .write_fmt(text)
            .expect("a Vec accepts every write, so only a broken Display impl fails");
    }

    /// Appends `text` as one complete line.
    pub fn line(&mut self, text: fmt::Arguments<'_>) {
        self.push(text);
        self.bytes.push(b'\n');
    }

    /// Appends a whole `result` reply: the header, then one indented
    /// line per tuple.
    pub fn result(&mut self, epoch: u64, rel: &Relation) {
        self.push(format_args!("result {epoch} {} tuple(s)", rel.len()));
        for t in rel.iter() {
            self.push(format_args!("\n  {t}"));
        }
        self.bytes.push(b'\n');
    }

    /// Appends the line for one ack-channel event.
    pub fn event(&mut self, event: &SessionEvent) {
        match event {
            SessionEvent::Ack(a) => {
                self.line(format_args!("ack {} {} {}", a.epoch, a.seq, a.outcome))
            }
            SessionEvent::Error(e) => self.line(format_args!("err {e}")),
        }
    }

    /// The bytes encoded since the last flush.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Hands everything encoded so far to `w` in one `write_all` and
    /// empties the buffer, keeping its capacity for the next reply.
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<()> {
        let written = w.write_all(&self.bytes);
        self.bytes.clear();
        written
    }
}

/// Writes the already-rendered `lines` to the shared socket. The lock
/// covers the one write only, so lines of the connection's two writers
/// never interleave mid-line and neither waits on the other's rendering.
fn send<W: Write>(socket: &Mutex<W>, lines: &mut LineBuf) -> io::Result<()> {
    let mut w = socket.lock().unwrap_or_else(PoisonError::into_inner);
    lines.flush_to(&mut *w)
}

/// A session's ack writer: blocks for one event, drains whatever else
/// the engine has released by then, and writes the lot at once — the
/// acks of a 64-envelope group commit cost the session one write, not
/// 64. Returns when the engine drops the session's sender (disconnect
/// or re-`hello`) or the peer is gone.
pub fn write_acks<W: Write>(events: mpsc::Receiver<SessionEvent>, socket: &Mutex<W>) {
    let mut lines = LineBuf::new();
    while let Ok(first) = events.recv() {
        lines.event(&first);
        while let Ok(next) = events.try_recv() {
            lines.event(&next);
        }
        if send(socket, &mut lines).is_err() {
            return;
        }
    }
}

/// Connection → engine messages.
enum EngineMsg {
    Connect {
        source: String,
        reply: mpsc::Sender<(AckRoute, mpsc::Receiver<SessionEvent>)>,
    },
    /// The connection that registered `route` is done with it (closed,
    /// failed, or said `hello` again).
    Disconnect {
        route: AckRoute,
    },
    Deliver {
        session: SessionId,
        envelope: Envelope,
    },
    Recover {
        session: SessionId,
        log: Vec<Envelope>,
    },
    Ping {
        session: SessionId,
        reply: mpsc::Sender<Result<(), String>>,
    },
    Stats {
        reply: mpsc::Sender<String>,
    },
}

/// One `hello`: the granted session plus the engine's serial number for
/// this registration of its ack channel. A source keeps its session id
/// across reconnects, so the serial is what tells a connection's late
/// `Disconnect` apart from the route its successor registered meanwhile.
#[derive(Clone)]
struct AckRoute {
    grant: SessionGrant,
    serial: u64,
}

/// The engine's ack routing table: session → (registration serial,
/// sender half of that registration's ack channel).
type AckRoutes = BTreeMap<SessionId, (u64, mpsc::Sender<SessionEvent>)>;

/// Opens (or creates) the store in `dir` for `spec` and wraps it in the
/// server state machine `options` describe.
pub fn open_core(
    spec: WarehouseSpec,
    dir: &str,
    options: &ServeOptions,
) -> Result<ServerCore<FsMedium>, String> {
    let config = DurabilityConfig {
        verify_on_open: options.verify_on_open,
        ..DurabilityConfig::default()
    };
    let policy = BatchPolicy {
        max_batch: options.max_batch.max(1),
        max_wait_micros: options.max_wait_micros,
    };
    // A fresh store (and a legacy store predating the persisted policy
    // byte) defaults to adaptive maintenance; a recovered v2 store
    // keeps whatever mode its manifest carries.
    let (mut warehouse, arm_policy) = open_or_create(spec, dir, config)?;
    if arm_policy {
        warehouse
            .set_maintenance_policy(AdaptivePolicy::adaptive())
            .map_err(|e| e.to_string())?;
    }
    let mut core = ServerCore::new(warehouse, policy);
    if options.idle_timeout_micros > 0 {
        core.set_idle_timeout(Some(options.idle_timeout_micros));
    }
    Ok(core)
}

/// Runs the server until the process is killed: opens `dir`, binds
/// `addr`, prints `listening on <addr>` to stdout (scripts parse this to
/// learn the bound port), and serves connections forever.
pub fn serve(
    spec: WarehouseSpec,
    dir: &str,
    options: ServeOptions,
) -> Result<(), String> {
    let catalog = spec.catalog().clone();
    let core = open_core(spec, dir, &options)?;
    let listener = TcpListener::bind(&options.addr).map_err(|e| {
        format!("cannot bind {}: {e}", options.addr)
    })?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {local}");
    std::io::stdout().flush().ok();
    run(listener, core, catalog).map_err(|e| e.to_string())
}

/// Serves `core` on an already-bound `listener`: starts the engine
/// thread, then accepts on the calling thread forever, one connection
/// thread per client. Returns only if the engine thread cannot start.
pub fn run(listener: TcpListener, core: ServerCore<FsMedium>, catalog: Catalog) -> io::Result<()> {
    let query = core.query_client();
    let (engine_tx, engine_rx) = mpsc::channel::<EngineMsg>();
    thread::Builder::new()
        .name("dwc-engine".to_owned())
        .spawn(move || run_engine(core, engine_rx))?;

    for stream in listener.incoming() {
        let spawned = stream.and_then(|stream| {
            let tx = engine_tx.clone();
            let query = query.clone();
            let catalog = catalog.clone();
            thread::Builder::new().name("dwc-conn".to_owned()).spawn(move || {
                match handle_connection(stream, &tx, &query, &catalog) {
                    // A client that hangs up mid-reply is an ordinary end.
                    Err(e) if !peer_gone(&e) => eprintln!("connection error: {e}"),
                    _ => {}
                }
            })
        });
        if let Err(e) = spawned {
            eprintln!("accept error: {e}");
        }
    }
    Ok(())
}

fn peer_gone(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe)
}

/// The single-writer commit loop: drains connection events, arms its
/// sleep from the batcher deadline, and routes acks back per session.
fn run_engine(mut core: ServerCore<FsMedium>, rx: mpsc::Receiver<EngineMsg>) {
    let start = Instant::now();
    let mut acks = AckRoutes::new();
    let mut next_serial = 0u64;
    let now = |start: &Instant| start.elapsed().as_micros() as u64;
    loop {
        let timeout = match core.next_deadline() {
            Some(deadline) => Duration::from_micros(deadline.saturating_sub(now(&start))),
            None => Duration::from_secs(3600),
        };
        match rx.recv_timeout(timeout) {
            Ok(EngineMsg::Connect { source, reply }) => {
                let grant = core.connect_at(SourceId::new(source), now(&start));
                let (tx, ack_rx) = mpsc::channel();
                next_serial += 1;
                // Replacing a reconnecting source's previous sender ends
                // that registration's ack writer.
                acks.insert(grant.session, (next_serial, tx));
                let _ = reply.send((AckRoute { grant, serial: next_serial }, ack_rx));
            }
            Ok(EngineMsg::Disconnect { route }) => {
                // Dropping the sender ends the ack writer, and with it
                // the last handle on the socket. Session and cursors
                // stay, exactly as for a reaped session.
                let session = route.grant.session;
                if acks.get(&session).is_some_and(|(serial, _)| *serial == route.serial) {
                    acks.remove(&session);
                }
            }
            Ok(EngineMsg::Deliver { session, envelope }) => {
                match core.deliver(session, envelope, now(&start)) {
                    Ok(released) => route(&acks, released),
                    Err(e) => complain(&acks, session, e.to_string()),
                }
            }
            Ok(EngineMsg::Recover { session, log }) => {
                match core.recover_source(session, &log) {
                    Ok(released) => route(&acks, released),
                    Err(e) => complain(&acks, session, e.to_string()),
                }
            }
            Ok(EngineMsg::Ping { session, reply }) => {
                let _ = reply.send(
                    core.ping(session, now(&start)).map_err(|e| e.to_string()),
                );
            }
            Ok(EngineMsg::Stats { reply }) => {
                let s = core.stats();
                let st = core.warehouse().storage_stats();
                let health = match core.health() {
                    Health::Healthy => "healthy".to_owned(),
                    Health::Degraded { attempts, .. } => {
                        format!("degraded(attempts={attempts})")
                    }
                    Health::ReadOnly { .. } => "read-only".to_owned(),
                };
                let p = core.warehouse().ingestor().policy().stats();
                let _ = reply.send(format!(
                    "stats epoch={} delivered={} batches={} acks={} wal_syncs={} \
                     group_commits={} generation={} health={} parked={} \
                     planner=plans:{},incr:{},mirr:{},recon:{},mispredict:{},passes:{},\
                     fallbacks:{}",
                    core.commit_epoch(),
                    s.delivered,
                    s.batches_committed,
                    s.acks_minted,
                    st.wal_syncs,
                    st.group_commits,
                    core.warehouse().generation(),
                    health,
                    core.parked_len(),
                    p.plans,
                    p.chosen_incremental,
                    p.chosen_mirrored,
                    p.chosen_reconstruction,
                    p.mispredictions,
                    p.passes,
                    p.fallbacks,
                ));
            }
            Err(mpsc::RecvTimeoutError::Timeout) => match core.tick(now(&start)) {
                Ok(released) => {
                    route(&acks, released);
                    // The ack sender stays registered: a report sent on
                    // the dead session still gets its "unknown session"
                    // complaint instead of silence.
                    for (session, source) in core.take_reaped() {
                        complain(
                            &acks,
                            session,
                            format!("session reaped after idle timeout (source `{source}` \
                                     resumes losslessly on reconnect)"),
                        );
                    }
                }
                Err(e) => eprintln!("commit failure on tick: {e}"),
            },
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                if let Err(e) = core.flush() {
                    eprintln!("commit failure on shutdown flush: {e}");
                }
                return;
            }
        }
    }
}

fn route(acks: &AckRoutes, released: Vec<Ack>) {
    for ack in released {
        if let Some((_, tx)) = acks.get(&ack.session) {
            // A dead receiver just means the client went away; its acks
            // are durable regardless and the grant survives reconnect.
            let _ = tx.send(SessionEvent::Ack(ack));
        }
    }
}

fn complain(acks: &AckRoutes, session: SessionId, message: String) {
    if let Some((_, tx)) = acks.get(&session) {
        let _ = tx.send(SessionEvent::Error(message));
    } else {
        eprintln!("session {session}: {message}");
    }
}

fn engine_stopped() -> io::Error {
    io::Error::other("engine stopped")
}

/// Serves one client connection on this thread and, however the
/// conversation ends, tells the engine to drop the ack route it
/// registered — that ends the session's ack writer, the last holder of
/// the socket, so the peer sees EOF and no thread or descriptor outlives
/// the connection.
fn handle_connection(
    stream: TcpStream,
    engine: &mpsc::Sender<EngineMsg>,
    query: &QueryClient,
    catalog: &Catalog,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    let socket = Arc::new(Mutex::new(stream));
    let mut route = None;
    let outcome = converse(reader, &socket, engine, query, catalog, &mut route);
    if let Some(route) = route {
        let _ = engine.send(EngineMsg::Disconnect { route });
    }
    outcome
}

/// The command loop of one connection. Each verb only *encodes* its
/// reply; the loop hands it to the socket in one write. Acks travel the
/// other way on a helper thread per `hello`, sharing the socket behind
/// its mutex. `route` is left holding the ack route to disconnect.
fn converse(
    reader: BufReader<TcpStream>,
    socket: &Arc<Mutex<TcpStream>>,
    engine: &mpsc::Sender<EngineMsg>,
    query: &QueryClient,
    catalog: &Catalog,
    route: &mut Option<AckRoute>,
) -> io::Result<()> {
    let mut reply = LineBuf::new();
    let mut lines = reader.lines();

    while let Some(line) = lines.next() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        let grant = route.as_ref().map(|r| &r.grant);
        match verb {
            "hello" if rest.trim().is_empty() => {
                reply.line(format_args!("err usage: hello <source>"))
            }
            "hello" => {
                // A second `hello` replaces this connection's route:
                // retire the old one so its writer does not linger.
                if let Some(route) = route.take() {
                    engine
                        .send(EngineMsg::Disconnect { route })
                        .map_err(|_| engine_stopped())?;
                }
                let (reply_tx, reply_rx) = mpsc::channel();
                engine
                    .send(EngineMsg::Connect { source: rest.trim().to_owned(), reply: reply_tx })
                    .map_err(|_| engine_stopped())?;
                let (granted, ack_rx) = reply_rx.recv().map_err(|_| engine_stopped())?;
                let g = &granted.grant;
                let id = g.session.index();
                reply.line(format_args!("session {id} {} {}", g.epoch, g.resume_seq));
                // The grant goes out before the writer exists, so no ack
                // can overtake it.
                send(socket, &mut reply)?;
                *route = Some(granted);
                let socket = Arc::clone(socket);
                thread::Builder::new()
                    .name("dwc-acks".to_owned())
                    .spawn(move || write_acks(ack_rx, &socket))?;
            }
            "report" => match grant {
                None => reply.line(format_args!("err hello first")),
                Some(grant) => match parse_report(catalog, &grant.source, rest) {
                    Ok(envelope) => engine
                        .send(EngineMsg::Deliver { session: grant.session, envelope })
                        .map_err(|_| engine_stopped())?,
                    Err(e) => reply.line(format_args!("err {e}")),
                },
            },
            "recover" => match (grant, rest.trim().parse::<usize>()) {
                (None, _) => reply.line(format_args!("err hello first")),
                (Some(_), Err(_)) => reply.line(format_args!(
                    "err usage: recover <count> (then <count> report lines)"
                )),
                // `recover <n>` announces n `report` lines to follow:
                // the client's outbox replay, oldest first.
                (Some(grant), Ok(n)) => {
                    let mut log = Vec::with_capacity(n);
                    let mut bad: Option<String> = None;
                    for _ in 0..n {
                        let Some(next) = lines.next() else {
                            bad = Some("connection closed mid-recover".to_owned());
                            break;
                        };
                        let next = next?;
                        let body = next
                            .trim()
                            .strip_prefix("report ")
                            .ok_or(())
                            .and_then(|b| parse_report(catalog, &grant.source, b).map_err(|_| ()));
                        match body {
                            Ok(envelope) => log.push(envelope),
                            Err(()) => {
                                bad = Some(format!("bad recover log line: `{}`", next.trim()));
                                break;
                            }
                        }
                    }
                    match bad {
                        Some(e) => reply.line(format_args!("err {e}")),
                        None => engine
                            .send(EngineMsg::Recover { session: grant.session, log })
                            .map_err(|_| engine_stopped())?,
                    }
                }
            },
            "query" => match RaExpr::parse(rest) {
                Ok(q) => match query.answer(&q) {
                    Ok((epoch, rel)) => reply.result(epoch, &rel),
                    Err(e) => reply.line(format_args!("err {e}")),
                },
                Err(e) => reply.line(format_args!("err {e}")),
            },
            "ping" => match grant {
                None => reply.line(format_args!("err hello first")),
                Some(grant) => {
                    let (reply_tx, reply_rx) = mpsc::channel();
                    engine
                        .send(EngineMsg::Ping { session: grant.session, reply: reply_tx })
                        .map_err(|_| engine_stopped())?;
                    match reply_rx.recv().map_err(|_| engine_stopped())? {
                        Ok(()) => reply.line(format_args!("pong")),
                        Err(e) => reply.line(format_args!("err {e}")),
                    }
                }
            },
            "epoch" => reply.line(format_args!("epoch {}", query.epoch())),
            "stats" => {
                let (reply_tx, reply_rx) = mpsc::channel();
                engine
                    .send(EngineMsg::Stats { reply: reply_tx })
                    .map_err(|_| engine_stopped())?;
                let s = reply_rx.recv().map_err(|_| engine_stopped())?;
                reply.line(format_args!("{s}"));
            }
            "quit" => return Ok(()),
            other => reply.line(format_args!("err unknown verb `{other}`")),
        }
        if !reply.as_bytes().is_empty() {
            send(socket, &mut reply)?;
        }
    }
    Ok(())
}

/// Parses `report <epoch> <seq> insert|delete Name (a=1, …)` into an
/// envelope for `source`.
fn parse_report(catalog: &Catalog, source: &SourceId, rest: &str) -> Result<Envelope, String> {
    let mut parts = rest.splitn(4, ' ');
    let usage = "usage: report <epoch> <seq> insert|delete Name (attr=value, ...)";
    let epoch: u64 = parts.next().and_then(|t| t.parse().ok()).ok_or(usage)?;
    let seq: u64 = parts.next().and_then(|t| t.parse().ok()).ok_or(usage)?;
    let action = parts.next().ok_or(usage)?;
    let body = parts.next().ok_or(usage)?;
    let insert = match action {
        "insert" => true,
        "delete" => false,
        _ => return Err(usage.to_owned()),
    };
    let report = parse_update(catalog, body, insert)?;
    Ok(Envelope { source: source.clone(), epoch, seq, report })
}

/// The `dwc connect` client REPL: connects, introduces `source`, then
/// turns `insert`/`delete` lines into sequenced `report` verbs (keeping
/// a local outbox) and passes every other verb through. Async `ack`
/// lines from the server print as they arrive. Requests follow the
/// server's rule: `TCP_NODELAY`, one write per request — the `recover`
/// replay, however long, included.
pub fn connect(addr: &str, source: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut request = LineBuf::new();

    request.line(format_args!("hello {source}"));
    request.flush_to(&mut stream).map_err(|e| e.to_string())?;
    let mut greeting = String::new();
    reader.read_line(&mut greeting).map_err(|e| e.to_string())?;
    let mut parts = greeting.split_whitespace();
    let (epoch, mut seq) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("session"), Some(_id), Some(e), Some(s)) => (
            e.parse::<u64>().map_err(|e| e.to_string())?,
            s.parse::<u64>().map_err(|e| e.to_string())?,
        ),
        _ => return Err(format!("unexpected greeting: {}", greeting.trim())),
    };
    println!("{}", greeting.trim());
    println!("(resuming source `{source}` at epoch {epoch} seq {seq})");
    // Surface server health right in the connect banner; the reply
    // prints asynchronously.
    request.line(format_args!("stats"));
    request.flush_to(&mut stream).map_err(|e| e.to_string())?;

    // Server lines print as they arrive, interleaved with the prompt.
    thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    println!("(server closed the connection)");
                    return;
                }
                Ok(_) => println!("{}", line.trim_end()),
            }
        }
    });

    let stdin = std::io::stdin();
    let mut outbox: Vec<String> = Vec::new();
    loop {
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (verb, rest) = trimmed.split_once(' ').unwrap_or((trimmed, ""));
        match verb {
            "insert" | "delete" => {
                let wire = format!("report {epoch} {seq} {verb} {rest}");
                request.line(format_args!("{wire}"));
                outbox.push(wire);
                seq += 1;
            }
            "recover" if rest.is_empty() => {
                request.line(format_args!("recover {}", outbox.len()));
                for wire in &outbox {
                    request.line(format_args!("{wire}"));
                }
            }
            _ => request.line(format_args!("{trimmed}")),
        }
        let sent = request.flush_to(&mut stream);
        if verb == "quit" {
            break;
        }
        sent.map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_schema("R", &["a", "b"]).expect("static schema");
        c
    }

    #[test]
    fn report_lines_parse_into_envelopes() {
        let cat = chain_catalog();
        let src = SourceId::new("paris");
        let env = parse_report(&cat, &src, "3 14 insert R (a=1, b=2)").expect("parses");
        assert_eq!((env.epoch, env.seq), (3, 14));
        assert_eq!(env.source, src);
        assert_eq!(env.report.len(), 1);

        let env = parse_report(&cat, &src, "0 0 delete R (a=1, b=2)").expect("parses");
        assert!(env.report.delta(crate::relalg::RelName::new("R")).is_some());

        assert!(parse_report(&cat, &src, "x 0 insert R (a=1, b=2)").is_err());
        assert!(parse_report(&cat, &src, "0 0 upsert R (a=1, b=2)").is_err());
        assert!(parse_report(&cat, &src, "0 0 insert Ghost (a=1)").is_err());
    }
}
