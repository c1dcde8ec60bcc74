//! Properties of the server's reply path (`src/serve.rs`).
//!
//! The rule under test: **one reply = one `write` on a `TCP_NODELAY`
//! socket**. A reply written as text-then-newline is two small writes;
//! Nagle holds the second until the peer's delayed ACK, and every
//! single-line reply after a connection's first costs a flat ~44 ms.
//!
//! * The mechanism, independent of timing: the line encoder and the ack
//!   writer driven over a counting writer — one `write` per reply and per
//!   drained ack batch, bytes identical to the `writeln!` rendering.
//! * The effect, over a real loopback socket and a client that sets no
//!   socket option: 200 round trips in well under the 8.8 s the stall
//!   costs, pipelined acks in order and never torn by a concurrent
//!   `query`.
//! * The lifetime: after `quit` the client reads EOF and no connection
//!   or ack-writer thread is left behind; a reconnecting source's late
//!   disconnect does not take its successor's ack route with it.
//! * The reply memo: a reply served from it is the same single write
//!   with the same bytes as the fresh one, and over seeded schedules of
//!   reports and queries on several connections every reply is exactly
//!   the fresh reply of the epoch in its header, never older than what
//!   was acked before the query was sent, and no connection ever sees
//!   its epoch go backwards.
//! * The `stats` contract: the reply carries every key the wire-to-ack
//!   load generator parses from it, split the way it splits.

use dwc_testkit::rng::SplitMix64;
use dwc_testkit::sched::sched_seeds;
use dwcomplements::analyze::specfile;
use dwcomplements::relalg::{DbState, EpochReader, RaExpr, Relation, StateEpoch, Value};
use dwcomplements::serve::{self, LineBuf, ReplyMemo, ServeOptions, SessionEvent, LINEBUF_KEEP};
use dwcomplements::warehouse::integrator::{Integrator, IntegratorConfig};
use dwcomplements::warehouse::server::{Ack, AckOutcome, QueryClient, SessionId};
use dwcomplements::warehouse::{
    AugmentedWarehouse, BatchPolicy, DurabilityConfig, DurableWarehouse, FsMedium, IngestConfig,
    IngestingIntegrator, ServerCore, SourceId, WarehouseSpec,
};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// The mechanism: counting writer
// ---------------------------------------------------------------------

/// Records every `write` call it receives.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The parent commit's `respond`: `writeln!` straight onto the socket.
fn respond_with_writeln<W: Write>(w: &mut W, line: &str) {
    writeln!(w, "{line}").expect("counting writer accepts everything");
}

/// The parent commit's rendering of a `result` reply, before `respond`.
fn result_with_format(epoch: u64, rel: &Relation) -> String {
    let mut out = format!("result {epoch} {} tuple(s)", rel.len());
    for t in rel.iter() {
        out.push_str(&format!("\n  {t}"));
    }
    out
}

fn customers(rows: usize) -> Relation {
    Relation::from_rows(
        &["custkey", "cname", "cnation"],
        (0..rows).map(|i| {
            vec![
                Value::int(i as i64),
                Value::str(&format!("Customer#{i:05}")),
                Value::str(if i % 2 == 0 { "FRANCE" } else { "it's \"quoted\"" }),
            ]
        }),
    )
    .expect("well-formed rows")
}

fn ack(seq: u64, outcome: AckOutcome) -> SessionEvent {
    SessionEvent::Ack(Ack {
        session: SessionId::raw_for_tests(1),
        source: SourceId::new("paris"),
        epoch: 3,
        seq,
        outcome,
    })
}

#[test]
fn a_single_line_reply_is_one_write_with_the_writeln_bytes() {
    let golden = [
        "epoch 17",
        "pong",
        "session 4 0 112",
        "err unknown verb `frobnicate`",
        "stats epoch=9 delivered=512 health=degraded(attempts=2) parked=0",
    ];
    let mut reply = LineBuf::new();
    for line in golden {
        let mut old = CountingWriter::default();
        respond_with_writeln(&mut old, line);
        assert_eq!(old.writes, 2, "the stall's cause: text and newline written apart");

        let mut new = CountingWriter::default();
        reply.line(format_args!("{line}"));
        reply.flush_to(&mut new).expect("flushes");
        assert_eq!(new.writes, 1, "`{line}`");
        assert_eq!(new.bytes, old.bytes, "`{line}`");
        assert!(reply.as_bytes().is_empty(), "the buffer is reusable after a flush");
    }
}

#[test]
fn a_result_reply_of_any_size_is_one_write_with_the_writeln_bytes() {
    let mut reply = LineBuf::new();
    for rows in [0, 1, 3, 2000] {
        let rel = customers(rows);
        assert_eq!(rel.len(), rows);
        let mut old = CountingWriter::default();
        respond_with_writeln(&mut old, &result_with_format(42, &rel));

        let mut new = CountingWriter::default();
        reply.result(42, &rel);
        reply.flush_to(&mut new).expect("flushes");
        assert_eq!(new.writes, 1, "{rows} rows");
        assert_eq!(new.bytes, old.bytes, "{rows} rows");
        assert_eq!(new.bytes.iter().filter(|b| **b == b'\n').count(), rows + 1);
        if rows == 2000 {
            assert!(new.bytes.len() > LINEBUF_KEEP, "the reply outgrows what the buffer keeps");
            assert!(reply.capacity() <= LINEBUF_KEEP, "kept {} bytes", reply.capacity());
        }
    }
}

/// The star-schema spec every server in this file serves.
fn star_spec() -> WarehouseSpec {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs/starschema.dwc");
    let text = std::fs::read_to_string(spec_path).expect("spec readable");
    let (spec, report) = specfile::parse_spec(&text, spec_path);
    assert!(!report.has_errors(), "{report}");
    WarehouseSpec::new(spec.catalog, spec.views).expect("usable spec")
}

/// A query client over a fresh store whose only rows are
/// `customers(rows)`.
fn client_over_customers(rows: usize) -> QueryClient {
    let aug = star_spec().augment().expect("star spec augments");
    let mut base = DbState::empty_for(aug.catalog());
    base.insert_relation("Customer", customers(rows));
    let state = aug.materialize(&base).expect("W(base)");
    let integ = Integrator::from_state(aug, state, IntegratorConfig).expect("integrator");
    let ingest = IngestingIntegrator::new(integ, IngestConfig::default()).expect("ingestor");
    let dir = format!("{}/wire_props-customers", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&dir);
    let medium = FsMedium::new(&dir).expect("scratch dir");
    let dw = DurableWarehouse::create(medium, ingest, DurabilityConfig::default()).expect("creates");
    ServerCore::new(dw, BatchPolicy::default()).query_client()
}

#[test]
fn a_memo_hit_is_one_write_with_the_bytes_of_the_miss() {
    let client = client_over_customers(2000);
    let memo = ReplyMemo::new();
    let mut reply = LineBuf::new();
    for rows in [0, 1, 3, 2000] {
        let q = RaExpr::parse(&format!("sigma[custkey < {rows}](Customer)")).expect("parses");
        let (epoch, rel) = client.answer(&q).expect("answers");
        assert_eq!(rel.len(), rows);
        let mut old = CountingWriter::default();
        respond_with_writeln(&mut old, &result_with_format(epoch, &rel));

        let mut miss = CountingWriter::default();
        assert!(memo.answer(&client, q.clone(), &mut reply).is_none(), "first ask misses");
        reply.flush_to(&mut miss).expect("flushes");
        let mut hit = CountingWriter::default();
        let shared = memo.answer(&client, q, &mut reply).expect("second ask hits");
        assert!(reply.as_bytes().is_empty(), "a hit is never copied into the buffer");
        LineBuf::flush_shared_to(&shared, &mut hit).expect("flushes");

        assert_eq!((miss.writes, hit.writes), (1, 1), "{rows} rows");
        assert_eq!(miss.bytes, old.bytes, "{rows} rows");
        assert_eq!(hit.bytes, old.bytes, "{rows} rows");
    }
    let stats = memo.stats();
    assert_eq!((stats.hits, stats.misses, stats.over), (4, 4, 0));
}

#[test]
fn a_drained_ack_batch_is_one_write() {
    let (tx, rx) = mpsc::channel();
    let mut expected = String::new();
    for seq in 0..64 {
        tx.send(ack(seq, AckOutcome::Applied(1))).expect("receiver alive");
        expected.push_str(&format!("ack 3 {seq} applied 1\n"));
    }
    tx.send(ack(64, AckOutcome::Duplicate)).expect("receiver alive");
    tx.send(SessionEvent::Error("busy: retry after 2000 us".to_owned()))
        .expect("receiver alive");
    expected.push_str("ack 3 64 duplicate\nerr busy: retry after 2000 us\n");
    drop(tx);

    let socket = Mutex::new(CountingWriter::default());
    serve::write_acks(rx, &socket);
    let socket = socket.into_inner().expect("writer did not panic");
    assert_eq!(socket.writes, 1, "one group commit's acks leave in one write");
    assert_eq!(String::from_utf8(socket.bytes).expect("utf-8"), expected);
}

/// Reports each `write` to the test and then blocks until released, so
/// the test decides what the engine releases *while* a write is out.
struct GatedWriter {
    wrote: mpsc::Sender<String>,
    go: mpsc::Receiver<()>,
}

impl Write for GatedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let text = String::from_utf8_lossy(buf).into_owned();
        // Either channel closing means the test has failed and gone.
        self.wrote.send(text).map_err(io::Error::other)?;
        self.go.recv().map_err(io::Error::other)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn acks_released_during_a_write_coalesce_into_the_next_one() {
    let (wrote_tx, wrote_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let socket = Mutex::new(GatedWriter { wrote: wrote_tx, go: go_rx });
    let (tx, rx) = mpsc::channel();
    for seq in 0..3 {
        tx.send(ack(seq, AckOutcome::Applied(1))).expect("receiver alive");
    }
    std::thread::scope(|s| {
        // Owned by this closure, so a failed assertion drops them and
        // the parked writer errors out instead of hanging the scope.
        let (tx, go_tx) = (tx, go_tx);
        let socket = &socket;
        s.spawn(move || serve::write_acks(rx, socket));
        let first = wrote_rx.recv().expect("first write");
        assert_eq!(first, "ack 3 0 applied 1\nack 3 1 applied 1\nack 3 2 applied 1\n");
        // The writer is parked inside its first write: the next commit's
        // five acks queue up behind it.
        for seq in 3..8 {
            tx.send(ack(seq, AckOutcome::Applied(1))).expect("receiver alive");
        }
        go_tx.send(()).expect("writer waits");
        let second = wrote_rx.recv().expect("second write");
        assert_eq!(second.lines().count(), 5, "{second}");
        assert!(second.starts_with("ack 3 3 ") && second.ends_with("ack 3 7 applied 1\n"));
        go_tx.send(()).expect("writer waits");
        // Dropping the sender is the engine's disconnect: the writer ends.
        drop(tx);
    });
    assert!(wrote_rx.try_recv().is_err(), "exactly two writes");
}

// ---------------------------------------------------------------------
// The effect: a real server on loopback, a plain client
// ---------------------------------------------------------------------

/// Serializes the loopback tests: they share one in-process server and
/// one of them counts its threads.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Starts the real acceptor, engine and connection threads on a fresh
/// store named `tag` under the target directory; returns the bound
/// address and a reader onto the epochs the server publishes.
fn start_server(tag: &str) -> (SocketAddr, EpochReader) {
    let spec = star_spec();
    let dir = format!("{}/{tag}", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = spec.catalog().clone();
    let core = serve::open_core(spec, &dir, &ServeOptions::default()).expect("store opens");
    let epochs = core.reader();
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("bound");
    // `run` accepts forever; the thread ends with the test process.
    std::thread::Builder::new()
        .name("wire-accept".to_owned())
        .spawn(move || serve::run(listener, core, catalog))
        .expect("spawns");
    (addr, epochs)
}

/// The server the loopback tests share, started once.
fn server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| start_server("wire_props-store").0)
}

/// A client as plain as they come: no socket options, one `write` per
/// request line, a read timeout so a stalled server fails the test
/// instead of hanging it.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect() -> Client {
        Client::connect_to(server())
    }

    fn connect_to(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("sets timeout");
        let reader = BufReader::new(stream.try_clone().expect("clones"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("request written");
    }

    /// The next line without its newline; `None` at EOF.
    fn read(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line).expect("reply within the timeout") {
            0 => None,
            _ => {
                assert!(line.ends_with('\n'), "torn line `{line}`");
                line.pop();
                Some(line)
            }
        }
    }

    fn call(&mut self, line: &str) -> String {
        self.send(line);
        self.read().expect("a reply, not EOF")
    }

    /// Reads the rows of a `result` reply whose header is `header`; every
    /// one must be a row, not a line of some other reply.
    fn rows(&mut self, header: &str) -> usize {
        let fields: Vec<&str> = header.split(' ').collect();
        let ["result", _epoch, rows, "tuple(s)"] = fields[..] else {
            panic!("not a result header: `{header}`");
        };
        let rows: usize = rows.parse().expect("row count");
        for _ in 0..rows {
            let row = self.read().expect("a row, not EOF");
            assert!(row.starts_with("  ("), "reply torn by `{row}`");
        }
        rows
    }

    /// Reads one whole `query` reply: its exact bytes, and the epoch in
    /// its header (`None` for an `err` reply).
    fn reply(&mut self) -> (Option<u64>, String) {
        let header = self.read().expect("a reply, not EOF");
        let mut bytes = format!("{header}\n");
        if header.starts_with("err ") {
            return (None, bytes);
        }
        let fields: Vec<&str> = header.split(' ').collect();
        let ["result", epoch, rows, "tuple(s)"] = fields[..] else {
            panic!("not a result header: `{header}`");
        };
        let epoch = epoch.parse().expect("epoch");
        for _ in 0..rows.parse::<usize>().expect("row count") {
            bytes.push_str(&self.read().expect("a row, not EOF"));
            bytes.push('\n');
        }
        (Some(epoch), bytes)
    }
}

#[test]
fn a_client_that_sets_no_socket_option_is_never_stalled() {
    let _one_at_a_time = exclusive();
    let mut client = Client::connect();
    assert!(client.call("hello stall-probe").starts_with("session "));
    let started = Instant::now();
    for i in 0..200 {
        match i % 3 {
            0 => assert!(client.call("epoch").starts_with("epoch ")),
            1 => assert_eq!(client.call("ping"), "pong"),
            _ => {
                let header = client.call("query Customer");
                client.rows(&header);
            }
        }
    }
    let took = started.elapsed();
    // 199 replies behind a 44 ms delayed-ACK stall are 8.8 s; unstalled
    // the loop takes a few tens of milliseconds.
    assert!(took < Duration::from_secs(1), "200 round trips took {took:?}");
}

#[test]
fn pipelined_acks_arrive_in_order_and_never_tear_a_query_reply() {
    let _one_at_a_time = exclusive();
    const REPORTS: u64 = 200;
    const QUERIES: usize = 10;
    let mut client = Client::connect();
    let grant = client.call("hello burst");
    let fields: Vec<&str> = grant.split(' ').collect();
    let ["session", _, epoch, "0"] = fields[..] else {
        panic!("fresh source expected, got `{grant}`");
    };
    // Everything goes out before anything is read: 200 reports with a
    // query after every twentieth, so acks and results share the socket.
    for seq in 0..REPORTS {
        client.send(&format!(
            "report {epoch} {seq} insert Customer (custkey={seq}, cname='c{seq}', cnation='FRANCE')"
        ));
        if seq % 20 == 19 {
            client.send("query Customer");
        }
    }
    let (mut acked, mut answered, mut last_rows) = (0, 0, 0);
    while acked < REPORTS || answered < QUERIES {
        let line = client.read().expect("a reply, not EOF");
        if line.starts_with("result ") {
            let rows = client.rows(&line);
            assert!(rows >= last_rows, "epochs only grow: {last_rows} then {rows}");
            last_rows = rows;
            answered += 1;
        } else {
            assert_eq!(line, format!("ack {epoch} {acked} applied 1"), "acks in seq order");
            acked += 1;
        }
    }
    let header = client.call("query Customer");
    assert_eq!(client.rows(&header), REPORTS as usize, "every acked report is readable");
}

/// Live server threads of the two per-connection kinds, by the names
/// `serve::run` gives them.
#[cfg(target_os = "linux")]
fn connection_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|comm| matches!(comm.trim(), "dwc-conn" | "dwc-acks"))
        .count()
}

/// Waits for the server's connection threads to number `want`: a thread
/// that has closed its socket may still be on its way out.
#[cfg(target_os = "linux")]
fn await_connection_threads(want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while connection_threads() != want {
        assert!(
            Instant::now() < deadline,
            "{} connection thread(s) alive, expected {want}",
            connection_threads()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(target_os = "linux")]
#[test]
fn no_thread_or_socket_outlives_its_connection() {
    let _one_at_a_time = exclusive();
    server();
    await_connection_threads(0);

    let mut client = Client::connect();
    assert!(client.call("hello leak-probe").starts_with("session "));
    await_connection_threads(2);
    // A second `hello` on the same connection replaces the ack writer
    // instead of adding one.
    assert!(client.call("hello leak-probe").starts_with("session "));
    assert_eq!(client.call("ping"), "pong");
    await_connection_threads(2);

    client.send("quit");
    assert_eq!(client.read(), None, "EOF: the server closed every handle on the socket");
    await_connection_threads(0);

    // A client that just drops the connection is cleaned up the same way.
    let mut dropper = Client::connect();
    assert!(dropper.call("hello leak-probe").starts_with("session "));
    await_connection_threads(2);
    drop(dropper);
    await_connection_threads(0);
}

#[test]
fn a_late_disconnect_leaves_the_successors_ack_route_alone() {
    let _one_at_a_time = exclusive();
    // A source keeps its session id across connections, so the second
    // `hello` takes over the first one's ack route.
    let mut first = Client::connect();
    let grant = first.call("hello twin");
    let mut second = Client::connect();
    assert_eq!(second.call("hello twin"), grant);
    // The first connection ends only now. Its disconnect reaches the
    // engine before its socket closes, so after EOF the engine has seen
    // it — and must not have dropped the route the second one holds.
    first.send("quit");
    assert_eq!(first.read(), None);
    let fields: Vec<&str> = grant.split(' ').collect();
    let ["session", _, epoch, seq] = fields[..] else {
        panic!("not a grant: `{grant}`");
    };
    second.send(&format!(
        "report {epoch} {seq} insert Supplier (suppkey=1, sname='s', snation='FRANCE')"
    ));
    assert_eq!(second.read().as_deref(), Some(&*format!("ack {epoch} {seq} applied 1")));
}

// ---------------------------------------------------------------------
// The reply memo: every reply is the fresh reply of its epoch
// ---------------------------------------------------------------------

/// The memo property's schedules; `DWC_SCHED_SEEDS` replaces them
/// (verify.sh step 14 pins them).
const MEMO_SEEDS: [u64; 2] = [0x4D45_4D4F_2701_0001, 0x0E90_C4A5_5EED_1A57];

/// What the property's query connections ask: repeats of a few queries,
/// some the reports change and some they do not, and one that fails.
const MEMO_QUERIES: [&str; 6] = [
    "Customer",
    "sigma[cnation = 'FR'](Customer)",
    "pi[cnation](Customer)",
    "pi[orderkey](Orders join sigma[cnation = 'FR'](Customer))",
    "pi[partkey](Part) minus pi[partkey](Lineitem)",
    "Ghost",
];

#[test]
fn every_reply_is_the_fresh_reply_of_its_epoch_and_epochs_never_go_back() {
    let _one_at_a_time = exclusive();
    let oracle = star_spec().augment().expect("star spec augments");
    for seed in sched_seeds(&MEMO_SEEDS) {
        memo_schedule(seed, &oracle);
    }
}

/// One seeded schedule against a fresh server: a source commits
/// customer inserts and deletes one at a time, sometimes awaiting the
/// ack before the next query round and sometimes racing it; each round
/// sends one query on a random subset of three connections before
/// reading any reply. The test is the only writer, so after each ack the
/// published epoch is exactly the state that report produced.
fn memo_schedule(seed: u64, oracle: &AugmentedWarehouse) {
    let (addr, epochs) = start_server(&format!("wire_props-memo-{seed}"));
    let mut rng = SplitMix64::new(seed);
    let mut states: BTreeMap<u64, Arc<StateEpoch>> = BTreeMap::new();
    let first = epochs.load();
    states.insert(first.epoch, first);

    let mut source = Client::connect_to(addr);
    let grant = source.call("hello memo");
    let fields: Vec<&str> = grant.split(' ').collect();
    let ["session", _, src_epoch, "0"] = fields[..] else {
        panic!("fresh source expected, got `{grant}`");
    };
    let src_epoch = src_epoch.to_owned();
    let mut readers: Vec<Client> = (0..3).map(|_| Client::connect_to(addr)).collect();
    let mut seen = vec![0u64; readers.len()];
    let (mut seq, mut next_key, mut live) = (0u64, 0u64, Vec::<(u64, &str)>::new());

    for step in 0..48 {
        let report = rng.chance(1, 2);
        if report {
            let (verb, (key, nation)) = if !live.is_empty() && rng.chance(1, 3) {
                ("delete", live.swap_remove(rng.index(live.len())))
            } else {
                next_key += 1;
                live.push((next_key, if rng.bool() { "FR" } else { "DE" }));
                ("insert", live[live.len() - 1])
            };
            source.send(&format!(
                "report {src_epoch} {seq} {verb} Customer \
                 (custkey={key}, cname='c{key}', cnation='{nation}')"
            ));
        }
        let floor = *states.keys().next_back().expect("epoch 1 is recorded");
        let q = *rng.pick(&MEMO_QUERIES);
        let asked: Vec<usize> = (0..readers.len()).filter(|_| rng.chance(2, 3)).collect();
        for &i in &asked {
            readers[i].send(&format!("query {q}"));
        }
        let replies: Vec<(usize, (Option<u64>, String))> =
            asked.iter().map(|&i| (i, readers[i].reply())).collect();
        if report {
            let ack = source.read().expect("an ack, not EOF");
            assert_eq!(ack, format!("ack {src_epoch} {seq} applied 1"), "seed {seed}");
            seq += 1;
            let snap = epochs.load();
            states.insert(snap.epoch, snap);
        }

        let ceiling = *states.keys().next_back().expect("recorded");
        let expr = RaExpr::parse(q).expect("parses");
        for (i, (epoch, bytes)) in replies {
            let at = epoch.unwrap_or(ceiling);
            let mut fresh = LineBuf::new();
            match oracle.answer_at_warehouse(&expr, &states[&at].state) {
                Ok(rel) => fresh.result(at, &rel),
                Err(e) => fresh.line(format_args!("err {e}")),
            }
            let context = format!("seed {seed} step {step} connection {i} `{q}`");
            assert_eq!(bytes.as_bytes(), fresh.as_bytes(), "{context}");
            if let Some(e) = epoch {
                assert!(
                    (floor..=ceiling).contains(&e),
                    "{context}: epoch {e} outside [{floor}, {ceiling}]"
                );
                assert!(e >= seen[i], "{context}: epoch {e} after {}", seen[i]);
                seen[i] = e;
            }
        }
    }

    // The schedule must have exercised the memo, not only fresh answers.
    let stats = readers[0].call("stats");
    let hits: u64 = stats
        .split([' ', ','])
        .find_map(|kv| kv.strip_prefix("answers=hits:"))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no answers= group in `{stats}`"));
    assert!(hits > 0, "seed {seed}: no reply came from the memo: {stats}");
    for mut client in readers.into_iter().chain([source]) {
        client.send("quit");
        assert_eq!(client.read(), None);
    }
}

/// The keys `benchmark/src/trace.rs::stats_metrics` reads from the
/// `stats` reply on every run, splitting it on spaces and commas and
/// stripping each key as a prefix. A reply missing one fails that run.
const LOAD_GENERATOR_KEYS: [&str; 5] =
    ["acks=", "batches=", "wal_syncs=", "planner=plans:", "mispredict:"];

#[test]
fn the_stats_reply_carries_every_key_the_load_generator_parses() {
    let _one_at_a_time = exclusive();
    let mut client = Client::connect();
    let grant = client.call("hello stats-probe");
    let fields: Vec<&str> = grant.split(' ').collect();
    let ["session", _, epoch, seq] = fields[..] else {
        panic!("not a grant: `{grant}`");
    };
    let report = format!(
        "report {epoch} {seq} insert Customer (custkey=900001, cname='probe', cnation='FRANCE')"
    );
    assert_eq!(client.call(&report), format!("ack {epoch} {seq} applied 1"));
    let stats = client.call("stats");
    let field = |key: &str| -> f64 {
        stats
            .split([' ', ','])
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("`stats` reply has no `{key}`: {stats}"))
    };
    let [acks, batches, wal_syncs, plans, mispredict] = LOAD_GENERATOR_KEYS.map(field);
    assert!(acks >= 1.0 && batches >= 1.0 && wal_syncs >= 1.0, "{stats}");
    assert!(plans >= 1.0, "a report was maintained, so a plan was compiled: {stats}");
    assert_eq!(mispredict, 0.0, "there is no planner left to mispredict: {stats}");
    client.send("quit");
    assert_eq!(client.read(), None);
}
