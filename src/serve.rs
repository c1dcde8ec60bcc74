//! The warehouse server runtime: threads, sockets and timers around the
//! pure [`ServerCore`] state machine.
//!
//! Everything *deterministic* — sessions, batching, group commit, ack
//! minting, epoch publication — lives in `dwc_warehouse::server` and is
//! exercised by the scheduler test suites over a simulated filesystem.
//! This module adds only the unavoidable runtime shell:
//!
//! * one **engine thread** owning the [`ServerCore`] and draining a
//!   channel of connection events. Each turn it asks
//!   [`ServerCore::next_step`] what comes next: a due deadline (retry,
//!   heal probe, idle reaping, the busy-engine batch ceiling) before
//!   any message, then every ready message, and — the moment none is
//!   ready — the group commit of whatever is pending. It blocks in
//!   `recv_timeout`, armed from [`ServerCore::next_deadline`], only
//!   when nothing is pending, so a lone report's ack waits for its
//!   maintenance pass and one fsync, not for a timer, and under load
//!   whatever arrives during one commit forms the next batch;
//! * one **acceptor thread** per listener ([`run`], on its caller's
//!   thread) plus, per connection, a command thread (`dwc-conn`) and —
//!   from `hello` on — an ack writer (`dwc-acks`); acks flow back over a
//!   per-session channel and reach the client asynchronously, strictly
//!   after their batch's fsync;
//! * queries never touch the engine thread at all: every connection
//!   holds a [`QueryClient`] answering against published epoch
//!   snapshots, and all of them share the server's one [`ReplyMemo`],
//!   so a query asked again within an epoch is served from the bytes
//!   its first answer left, not evaluated again.
//!
//! ## The reply path: one reply, one write
//!
//! Accepted sockets are `TCP_NODELAY`, and every reply — header, all
//! rows, trailing newline — is rendered into the writer's reusable
//! [`LineBuf`] *before* the socket mutex is taken and leaves in a single
//! `write_all`; a memoised `result` leaves the same way, straight from
//! its shared bytes. The ack writer blocks for one event, drains whatever
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
    Ack, BatchPolicy, EngineStep, Health, QueryClient, ServerCore, SessionGrant, SessionId,
};
use crate::warehouse::{
    AdaptivePolicy, DurabilityConfig, DurableWarehouse, Envelope, FsMedium, IngestConfig,
    IngestingIntegrator, Recovery, SourceId, StorageError, WarehouseSpec,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning for `dwc serve`.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Address to listen on (`127.0.0.1:0` picks a free port and prints
    /// it).
    pub addr: String,
    /// Group-commit size cap. There is no wait to tune: the engine
    /// commits whenever no message is ready.
    pub max_batch: usize,
    /// Cross-check `W(W⁻¹(w)) = w` when opening an existing directory.
    pub verify_on_open: bool,
    /// Reap sessions silent for longer than this many microseconds
    /// (`0` disables reaping). Reaping is lossless: the durable cursors
    /// let a reaped source reconnect and resume exactly.
    pub idle_timeout_micros: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:4710".to_owned(),
            max_batch: BatchPolicy::default().max_batch,
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

/// Capacity a [`LineBuf`] keeps across flushes: one large `result` must
/// not pin its size for the rest of a connection's life.
pub const LINEBUF_KEEP: usize = 64 << 10;

/// The line encoder every socket write in this module goes through.
/// Protocol lines are rendered into one reusable byte buffer and leave
/// through [`LineBuf::flush_to`] as a single `write`: one per reply, one
/// per drained ack batch, one per client request; a memoised reply
/// leaves through [`LineBuf::flush_shared_to`], also as one (srclint
/// S509 keeps socket writes from appearing anywhere else in this file).
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

    /// The buffer's current allocation, in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Hands everything encoded so far to `w` in one `write_all` and
    /// empties the buffer, keeping at most [`LINEBUF_KEEP`] bytes of
    /// capacity for the next reply.
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<()> {
        let written = w.write_all(&self.bytes);
        self.bytes.clear();
        self.bytes.shrink_to(LINEBUF_KEEP);
        written
    }

    /// Hands a reply encoded earlier — a memoised one, shared between
    /// connections — to `w` in one `write_all`, without copying it into
    /// a buffer first.
    pub fn flush_shared_to<W: Write>(reply: &[u8], w: &mut W) -> io::Result<()> {
        w.write_all(reply)
    }
}

/// Writes the already-rendered `lines` to the shared socket. The lock
/// covers the one write only, so lines of the connection's two writers
/// never interleave mid-line and neither waits on the other's rendering.
fn send<W: Write>(socket: &Mutex<W>, lines: &mut LineBuf) -> io::Result<()> {
    let mut w = socket.lock().unwrap_or_else(PoisonError::into_inner);
    lines.flush_to(&mut *w)
}

/// [`send`] for a memoised reply: its shared bytes, as they are.
fn send_shared<W: Write>(socket: &Mutex<W>, reply: &[u8]) -> io::Result<()> {
    let mut w = socket.lock().unwrap_or_else(PoisonError::into_inner);
    LineBuf::flush_shared_to(reply, &mut *w)
}

/// Most `query` replies the memo keeps for one epoch.
const MEMO_ENTRIES: usize = 64;

/// Most reply bytes the memo keeps for one epoch. The largest reply of
/// the star-schema workload (Q8, 2.2k rows) is ≈ 130 KiB.
const MEMO_BYTES: usize = 1 << 20;

/// The server's one reply memo, shared by every connection. A reply is
/// a pure function of the source query and the published state
/// (Theorem 3.1: `Q̄(W(d))`), and an epoch's state never changes once
/// published, so the exact bytes of a `result` reply, header included,
/// can be sent again to any connection that asks the same query at the
/// same epoch. Keys are parsed source queries compared by full equality:
/// a hit never translates, and a miss translates in microseconds.
///
/// The memo holds one epoch at a time. Storing a reply of a newer epoch
/// drops the older epoch's replies; a reply of an older epoch — from a
/// reader that loaded its snapshot before the latest publish — is never
/// stored, so it cannot stand in for a newer one. Per epoch it keeps at
/// most [`MEMO_ENTRIES`] replies and [`MEMO_BYTES`] bytes; a reply past
/// either ceiling is served fresh and counted. `err` replies are never
/// stored. No lock is held while a query is evaluated or a reply is
/// written.
#[derive(Default)]
pub struct ReplyMemo {
    memo: Mutex<Memo>,
}

#[derive(Default)]
struct Memo {
    epoch: u64,
    replies: HashMap<RaExpr, Arc<[u8]>>,
    bytes: usize,
    stats: MemoStats,
}

/// What a [`ReplyMemo`] has done since it was created: the `answers=`
/// group of the `stats` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Replies sent from the memo.
    pub hits: u64,
    /// Replies evaluated: every lookup that found nothing.
    pub misses: u64,
    /// The most bytes the memo has held for one epoch.
    pub bytes: usize,
    /// Result replies not stored because an epoch's ceiling was reached.
    pub over: u64,
}

impl ReplyMemo {
    /// An empty memo.
    pub fn new() -> ReplyMemo {
        ReplyMemo::default()
    }

    /// Answers `q` at the snapshot `client` publishes now. On a hit the
    /// stored reply comes back, for the caller to write as it is; on a
    /// miss `q` is evaluated against that same snapshot, the reply is
    /// rendered into `out` (which must be empty) and `None` comes back.
    pub fn answer(
        &self,
        client: &QueryClient,
        q: RaExpr,
        out: &mut LineBuf,
    ) -> Option<Arc<[u8]>> {
        let snap = client.snapshot();
        if let Some(hit) = self.get(snap.epoch, &q) {
            return Some(hit);
        }
        match client.answer_at(&snap, &q) {
            Ok((epoch, rel)) => {
                out.result(epoch, &rel);
                self.insert(epoch, q, out.as_bytes());
            }
            Err(e) => out.line(format_args!("err {e}")),
        }
        None
    }

    /// The counters so far.
    pub fn stats(&self) -> MemoStats {
        self.lock().stats
    }

    // Every update below leaves the memo consistent, so a panic while
    // holding the lock cannot leave it half-changed.
    fn lock(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, epoch: u64, q: &RaExpr) -> Option<Arc<[u8]>> {
        let mut memo = self.lock();
        let hit = (memo.epoch == epoch).then(|| memo.replies.get(q).cloned()).flatten();
        match hit {
            Some(_) => memo.stats.hits += 1,
            None => memo.stats.misses += 1,
        }
        hit
    }

    fn insert(&self, epoch: u64, q: RaExpr, reply: &[u8]) {
        let shared: Option<Arc<[u8]>> = (reply.len() <= MEMO_BYTES).then(|| reply.into());
        let mut memo = self.lock();
        // A reader that loaded its snapshot before the latest publish:
        // its reply must not land in the newer epoch's map.
        if epoch < memo.epoch {
            return;
        }
        if epoch > memo.epoch {
            memo.epoch = epoch;
            memo.replies.clear();
            memo.bytes = 0;
        }
        if memo.replies.contains_key(&q) {
            return;
        }
        match shared {
            Some(bytes)
                if memo.replies.len() < MEMO_ENTRIES && memo.bytes + bytes.len() <= MEMO_BYTES =>
            {
                memo.bytes += bytes.len();
                memo.stats.bytes = memo.stats.bytes.max(memo.bytes);
                memo.replies.insert(q, bytes);
            }
            _ => memo.stats.over += 1,
        }
    }
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
    let policy = BatchPolicy::with_max_batch(options.max_batch);
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
    let memo = Arc::new(ReplyMemo::new());
    let (engine_tx, engine_rx) = mpsc::channel::<EngineMsg>();
    let engine_memo = Arc::clone(&memo);
    thread::Builder::new()
        .name("dwc-engine".to_owned())
        .spawn(move || run_engine(core, engine_rx, &engine_memo))?;

    for stream in listener.incoming() {
        let spawned = stream.and_then(|stream| {
            let tx = engine_tx.clone();
            let query = query.clone();
            let memo = Arc::clone(&memo);
            let catalog = catalog.clone();
            thread::Builder::new().name("dwc-conn".to_owned()).spawn(move || {
                match handle_connection(stream, &tx, &query, &memo, &catalog) {
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

/// The single-writer commit loop. Each turn asks the core what to do
/// next ([`ServerCore::next_step`]) with one message held back from the
/// channel, so a due deadline runs before that message whatever the
/// channel holds; a commit starts the moment no message is ready, and
/// the loop blocks only when nothing is pending.
fn run_engine(core: ServerCore<FsMedium>, rx: mpsc::Receiver<EngineMsg>, memo: &ReplyMemo) {
    let mut engine = Engine { core, acks: AckRoutes::new(), next_serial: 0, memo };
    let start = Instant::now();
    let now = || start.elapsed().as_micros() as u64;
    let mut ready = None;
    loop {
        if ready.is_none() {
            match rx.try_recv() {
                Ok(msg) => ready = Some(msg),
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => return engine.shut_down(),
            }
        }
        let at = now();
        match engine.core.next_step(at, ready.is_some()) {
            EngineStep::Tick => engine.tick(at),
            EngineStep::Take => {
                if let Some(msg) = ready.take() {
                    engine.handle(msg, at);
                }
            }
            EngineStep::Commit => match engine.core.commit_pending(at) {
                Ok(released) => route(&engine.acks, released),
                Err(e) => eprintln!("commit failure: {e}"),
            },
            EngineStep::Block { until } => {
                let timeout = match until {
                    Some(deadline) => Duration::from_micros(deadline.saturating_sub(at)),
                    None => Duration::from_secs(3600),
                };
                match rx.recv_timeout(timeout) {
                    Ok(msg) => ready = Some(msg),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => return engine.shut_down(),
                }
            }
        }
    }
}

/// What the engine thread owns: the core, the ack routing table and
/// the server's reply memo (read for `stats`).
struct Engine<'m> {
    core: ServerCore<FsMedium>,
    acks: AckRoutes,
    next_serial: u64,
    memo: &'m ReplyMemo,
}

impl Engine<'_> {
    fn handle(&mut self, msg: EngineMsg, now: u64) {
        let core = &mut self.core;
        match msg {
            EngineMsg::Connect { source, reply } => {
                let grant = core.connect_at(SourceId::new(source), now);
                let (tx, ack_rx) = mpsc::channel();
                self.next_serial += 1;
                // Replacing a reconnecting source's previous sender ends
                // that registration's ack writer.
                self.acks.insert(grant.session, (self.next_serial, tx));
                let _ = reply.send((AckRoute { grant, serial: self.next_serial }, ack_rx));
            }
            EngineMsg::Disconnect { route } => {
                // Dropping the sender ends the ack writer, and with it
                // the last handle on the socket. Session and cursors
                // stay, exactly as for a reaped session.
                let session = route.grant.session;
                if self.acks.get(&session).is_some_and(|(serial, _)| *serial == route.serial) {
                    self.acks.remove(&session);
                }
            }
            EngineMsg::Deliver { session, envelope } => {
                match core.deliver(session, envelope, now) {
                    Ok(released) => route(&self.acks, released),
                    Err(e) => complain(&self.acks, session, e.to_string()),
                }
            }
            EngineMsg::Recover { session, log } => match core.recover_source(session, &log) {
                Ok(released) => route(&self.acks, released),
                Err(e) => complain(&self.acks, session, e.to_string()),
            },
            EngineMsg::Ping { session, reply } => {
                let _ = reply.send(core.ping(session, now).map_err(|e| e.to_string()));
            }
            EngineMsg::Stats { reply } => {
                let _ = reply.send(self.stats_line());
            }
        }
    }

    fn tick(&mut self, now: u64) {
        match self.core.tick(now) {
            Ok(released) => {
                route(&self.acks, released);
                // The ack sender stays registered: a report sent on the
                // dead session still gets its "unknown session"
                // complaint instead of silence.
                for (session, source) in self.core.take_reaped() {
                    complain(
                        &self.acks,
                        session,
                        format!("session reaped after idle timeout (source `{source}` \
                                 resumes losslessly on reconnect)"),
                    );
                }
            }
            Err(e) => eprintln!("commit failure on tick: {e}"),
        }
    }

    fn shut_down(mut self) {
        if let Err(e) = self.core.flush() {
            eprintln!("commit failure on shutdown flush: {e}");
        }
    }

    fn stats_line(&self) -> String {
        let core = &self.core;
        let s = core.stats();
        let st = core.warehouse().storage_stats();
        let health = match core.health() {
            Health::Healthy => "healthy".to_owned(),
            Health::Degraded { attempts, .. } => format!("degraded(attempts={attempts})"),
            Health::ReadOnly { .. } => "read-only".to_owned(),
        };
        let p = core.warehouse().ingestor().policy().stats();
        let m = self.memo.stats();
        format!(
            "stats epoch={} delivered={} batches={} acks={} wal_syncs={} \
             group_commits={} generation={} health={} parked={} \
             planner=plans:{},incr:{},mirr:{},recon:{},mispredict:{},passes:{},\
             fallbacks:{} answers=hits:{},misses:{},bytes:{},over:{}",
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
            m.hits,
            m.misses,
            m.bytes,
            m.over,
        )
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
    memo: &ReplyMemo,
    catalog: &Catalog,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    let socket = Arc::new(Mutex::new(stream));
    let mut route = None;
    let outcome = converse(reader, &socket, engine, query, memo, catalog, &mut route);
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
    memo: &ReplyMemo,
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
                Ok(q) => {
                    if let Some(shared) = memo.answer(query, q, &mut reply) {
                        send_shared(socket, &shared)?;
                    }
                }
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

    fn query(text: &str) -> RaExpr {
        RaExpr::parse(text).expect("static query")
    }

    #[test]
    fn memo_keeps_the_newest_epoch_only_and_ignores_stale_inserts() {
        let memo = ReplyMemo::new();
        let (r, pi) = (query("R"), query("pi[a](R)"));
        memo.insert(2, r.clone(), b"result 2 0 tuple(s)\n");
        assert_eq!(memo.get(2, &r).as_deref(), Some(&b"result 2 0 tuple(s)\n"[..]));
        assert_eq!(memo.get(3, &r), None, "a reply answers its own epoch only");

        // A newer epoch's reply replaces the whole map.
        memo.insert(3, pi.clone(), b"result 3 0 tuple(s)\n");
        assert_eq!(memo.get(2, &r), None);
        assert_eq!(memo.get(3, &r), None);
        assert!(memo.get(3, &pi).is_some());
        assert_eq!(memo.get(4, &pi), None, "nothing is stored for epoch 4 yet");

        // A slow reader's reply of epoch 2 arrives late: dropped, and the
        // epoch-3 entries stay.
        memo.insert(2, r.clone(), b"result 2 0 tuple(s)\n");
        assert_eq!(memo.get(3, &r), None);
        assert_eq!(memo.get(2, &r), None);
        assert!(memo.get(3, &pi).is_some());

        // A second insert of a stored key (two connections missed at
        // once) keeps the first and counts nothing.
        memo.insert(3, pi.clone(), b"other");
        assert_eq!(memo.get(3, &pi).as_deref(), Some(&b"result 3 0 tuple(s)\n"[..]));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.over), (4, 6, 0));
        assert_eq!(s.bytes, 20);
    }

    #[test]
    fn memo_ceilings_hold_per_epoch() {
        let memo = ReplyMemo::new();
        let key = |i: usize| query(&format!("sigma[a = {i}](R)"));
        for i in 0..=MEMO_ENTRIES {
            memo.insert(1, key(i), b"x\n");
        }
        assert!(memo.get(1, &key(MEMO_ENTRIES - 1)).is_some());
        assert_eq!(memo.get(1, &key(MEMO_ENTRIES)), None, "entry ceiling");
        assert_eq!(memo.stats().over, 1);

        // Bytes: two replies of just over half the ceiling do not both fit,
        // and one reply larger than the ceiling never fits.
        let half = vec![b'x'; MEMO_BYTES / 2 + 1];
        memo.insert(2, key(0), &half);
        memo.insert(2, key(1), &half);
        memo.insert(2, key(2), &vec![b'x'; MEMO_BYTES + 1]);
        assert!(memo.get(2, &key(0)).is_some());
        assert_eq!(memo.get(2, &key(1)), None);
        assert_eq!(memo.get(2, &key(2)), None);
        let s = memo.stats();
        assert_eq!(s.over, 3);
        assert_eq!(s.bytes, MEMO_BYTES / 2 + 1, "high-water mark");

        // A newer epoch starts with the whole budget again.
        memo.insert(3, key(1), &half);
        assert!(memo.get(3, &key(1)).is_some());
    }

    #[test]
    fn memo_serves_results_again_but_never_errors() {
        let dir = std::env::temp_dir().join(format!("dwc-serve-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = WarehouseSpec::parse(chain_catalog(), &[("V", "R")]).expect("static spec");
        let core = open_core(spec, &dir.to_string_lossy(), &ServeOptions::default())
            .expect("fresh store opens");
        let client = core.query_client();
        let memo = ReplyMemo::new();
        let mut out = LineBuf::new();

        for _ in 0..2 {
            assert!(memo.answer(&client, query("Ghost"), &mut out).is_none());
            assert!(out.as_bytes().starts_with(b"err "), "{:?}", out.as_bytes());
            out.flush_to(&mut io::sink()).expect("sink");
        }
        assert!(memo.answer(&client, query("R"), &mut out).is_none(), "first ask misses");
        let fresh = out.as_bytes().to_vec();
        assert_eq!(fresh, b"result 1 0 tuple(s)\n");
        out.flush_to(&mut io::sink()).expect("sink");
        let hit = memo.answer(&client, query("R"), &mut out).expect("second ask hits");
        assert_eq!(&hit[..], &fresh[..]);
        assert!(out.as_bytes().is_empty(), "a hit renders nothing");

        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.bytes, s.over), (1, 3, fresh.len(), 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
