//! The traced pass: per-layer numbers, taken from outside the program.
//!
//! One in-process pass replays the workload's own generated inputs and
//! wraps a span around every call into a layer's public functions; three
//! wire probes measure what only exists over TCP. Spans stay in memory
//! and are written to `benchmark/out/trace-<workload>.jsonl` at the end.
//! A span's self time is its duration minus its children's. End-to-end
//! numbers are never taken from a traced run.

use crate::gen::Inputs;
use crate::server::{copy_dir, Server};
use crate::stats::{median, ms};
use crate::store::{self, BATCH};
use crate::wire::Conn;
use crate::{Metric, Workload, REPLAY_TAIL};
use dwcomplements::relalg::{EpochCell, RaExpr};
use dwcomplements::shell::parse_update;
use dwcomplements::warehouse::server::{BatchPolicy, ServerCore};
use dwcomplements::warehouse::{DurabilityConfig, FsMedium, Recovery, SourceId, WarehouseSpec};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Shared by the spans of one request (a report's sequence number, a
    /// batch's first sequence number, a query's ordinal).
    op_id: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &str, parent: Option<usize>, op_id: u64) -> usize {
        let name = name.to_owned();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// A leaf span around `f`.
    fn leaf<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op_id);
        let out = f();
        self.end(id);
        out
    }

    /// Durations of every span called `name`, in microseconds.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    fn median_us(&self, name: &str) -> Result<f64, String> {
        median(&self.durations_us(name)).ok_or(format!("traced pass recorded no `{name}` span"))
    }

    /// Self times (duration minus children) of every span called `name`.
    fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3)
            .collect()
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}

/// The counters of the `stats` verb that say how the commit layer was
/// used: taken from the real server right after the window, over its
/// whole life (warm-up and window carry the same traffic).
pub fn stats_metrics(line: &str) -> Result<Vec<Metric>, String> {
    let field = |key: &str| -> Result<f64, String> {
        line.split([' ', ','])
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or(format!("`stats` reply has no `{key}`: {line}"))
    };
    let (acks, batches) = (field("acks=")?, field("batches=")?);
    Ok(vec![
        Metric::new("server.batch_fill", acks / batches, "count")
            .note(format!("{acks} acks in {batches} batches")),
        Metric::new(
            "server.wal_syncs_per_ack",
            field("wal_syncs=")? / acks,
            "count",
        ),
        Metric::new(
            "planner.plans_per_report",
            field("planner=plans:")? / acks,
            "count",
        ),
        Metric::new("planner.mispredictions", field("mispredict:")?, "count"),
    ])
}

fn us(m: &str, v: f64) -> Metric {
    Metric::new(m, v, "us")
}

/// Runs the wire probes and the in-process pass; returns the per-layer
/// metrics that do not come from the traffic window itself.
pub fn layer_pass(
    spec: &WarehouseSpec,
    inputs: &Inputs,
    dwc: &Path,
    scratch: &Path,
    workload: &Workload,
    fsync_us: f64,
) -> Result<Vec<Metric>, String> {
    let mut t = Tracer::new();
    let mut out = wire_probes(dwc, scratch)?;
    out.push(
        us("storage.fsync_us", fsync_us).note("bare FsMedium sync: the medium, not the program"),
    );

    parse_and_render(spec, inputs, &mut t)?;
    out.push(us(
        "shell.parse_update_us",
        t.median_us("shell.parse_update")?,
    ));
    out.push(us(
        "relalg.parse_query_us",
        t.median_us("relalg.parse_query")?,
    ));
    out.push(us("relalg.render_rows_us", t.median_us("relalg.render_rows")?).note("Q8 answer"));

    out.extend(commit_path(spec, inputs, scratch, &mut t)?);
    out.extend(answers(spec, inputs, scratch, &mut t)?);
    out.extend(recovery(spec, inputs, scratch, workload, &mut t)?);

    let path = Path::new("benchmark/out").join(format!("trace-{}.jsonl", workload.name));
    t.write_jsonl(&path)?;
    println!(
        "trace: {} spans written to {}",
        t.spans.len(),
        path.display()
    );
    Ok(out)
}

/// What only exists over TCP: process start on an empty directory, and
/// the reply round trip with and without a hop through the engine thread.
fn wire_probes(dwc: &Path, scratch: &Path) -> Result<Vec<Metric>, String> {
    const ROUND_TRIPS: usize = 12;
    let dir = scratch.join("probe");
    let mut listens = Vec::new();
    let mut server = None;
    for _ in 0..3 {
        drop(server.take());
        let _ = std::fs::remove_dir_all(&dir);
        let s = Server::spawn(dwc, &dir)?;
        listens.push(ms(s.listen_after));
        server = Some(s);
    }
    let server = server.expect("spawned above");
    let mut conn = Conn::connect(&server.addr)?;
    conn.hello("probe")?;
    let mut rtt = |verb: &str| -> Result<f64, String> {
        let mut samples = Vec::new();
        for _ in 0..ROUND_TRIPS {
            let began = Instant::now();
            conn.call(verb)?;
            samples.push(ms(began.elapsed()));
        }
        Ok(median(&samples).expect("ROUND_TRIPS > 0"))
    };
    let (idle, engine) = (rtt("epoch")?, rtt("ping")?);
    Ok(vec![
        Metric::new(
            "serve.spawn_to_listen_ms",
            median(&listens).expect("3 spawns"),
            "ms",
        )
        .note("empty directory, median of 3"),
        Metric::new("serve.idle_rtt_ms", idle, "ms")
            .note(format!("`epoch`, median of {ROUND_TRIPS}")),
        Metric::new("serve.engine_rtt_ms", engine, "ms")
            .note(format!("`ping`, median of {ROUND_TRIPS}")),
    ])
}

/// Wire parse of reports and queries, and row rendering of the largest
/// answer — the work `serve` does around the engine.
fn parse_and_render(spec: &WarehouseSpec, inputs: &Inputs, t: &mut Tracer) -> Result<(), String> {
    let catalog = spec.catalog();
    for seq in 0..2000u64 {
        let r = inputs.stream.get(seq);
        t.leaf("shell.parse_update", None, seq, || {
            parse_update(catalog, &r.body, r.insert)
        })?;
    }
    for round in 0..100u64 {
        for q in &inputs.queries {
            t.leaf("relalg.parse_query", None, round, || RaExpr::parse(&q.text))
                .map_err(|e| e.to_string())?;
        }
    }
    let q8 = inputs.queries.last().expect("five queries");
    let answer = q8.expr.eval(&inputs.base).map_err(|e| e.to_string())?;
    for round in 0..5u64 {
        t.leaf("relalg.render_rows", None, round, || {
            // What `serve::handle_connection` does with an answer.
            let mut text = String::new();
            for row in answer.iter() {
                text.push_str(&format!("\n  {row}"));
            }
            std::hint::black_box(text.len())
        });
    }
    Ok(())
}

/// The commit path by layer: session delivery into the batcher, then —
/// on the durable warehouse itself — in-memory application, WAL group
/// commit and epoch publication, at the group sizes the workloads reach.
fn commit_path(
    spec: &WarehouseSpec,
    inputs: &Inputs,
    scratch: &Path,
    t: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let catalog = spec.catalog();
    let mut out = Vec::new();

    // Delivery: most calls only queue; the median is the queueing cost.
    let dir = scratch.join("trace-core");
    let dw = store::build_store(spec, inputs, &dir, 0)?;
    let mut core = ServerCore::new(dw, BatchPolicy::default());
    let session = core.connect(SourceId::new(store::SOURCE)).session;
    for env in store::envelopes(catalog, &inputs.stream, 0, 4 * BATCH as u64) {
        let seq = env.seq;
        t.leaf("server.deliver", None, seq, || {
            core.deliver(session, env, 0)
        })
        .map_err(|e| e.to_string())?;
    }
    drop(core);
    out.push(
        us("server.deliver_us", t.median_us("server.deliver")?)
            .note("median; 1 in 64 also commits"),
    );

    let dir = scratch.join("trace-commit");
    let mut dw = store::build_store(spec, inputs, &dir, 0)?;
    let epochs = EpochCell::new(dw.state().clone());
    let mut seq = 0u64;
    let mut run = |t: &mut Tracer, size: usize, groups: usize, names: [&str; 4]| {
        for _ in 0..groups {
            let envs = store::envelopes(catalog, &inputs.stream, seq, seq + size as u64);
            let commit = t.begin(names[0], None, seq);
            t.leaf(names[1], Some(commit), seq, || dw.apply_batch(&envs));
            t.leaf(names[2], Some(commit), seq, || dw.commit_applied())
                .map_err(|e| e.to_string())?;
            t.leaf(names[3], Some(commit), seq, || {
                epochs.publish(dw.state().clone())
            });
            t.end(commit);
            seq += size as u64;
        }
        Ok::<_, String>(())
    };
    run(
        t,
        BATCH,
        12,
        [
            "commit.b64",
            "ingest.apply_batch.b64",
            "storage.commit_applied.b64",
            "server.publish",
        ],
    )?;
    run(
        t,
        1,
        200,
        [
            "commit.b1",
            "ingest.apply_batch.b1",
            "storage.commit_applied.b1",
            "server.publish",
        ],
    )?;
    let st = dw.storage_stats();
    let per_env = t.median_us("ingest.apply_batch.b64")? / BATCH as f64;
    out.push(us("ingest.apply_batch_us_per_env.b64", per_env));
    out.push(us(
        "ingest.apply_batch_us_per_env.b1",
        t.median_us("ingest.apply_batch.b1")?,
    ));
    out.push(us(
        "storage.commit_applied_us_per_batch.b64",
        t.median_us("storage.commit_applied.b64")?,
    ));
    out.push(us(
        "storage.commit_applied_us_per_batch.b1",
        t.median_us("storage.commit_applied.b1")?,
    ));
    out.push(us("server.publish_us", t.median_us("server.publish")?));
    out.push(
        Metric::new(
            "storage.wal_bytes_per_record",
            st.wal_bytes as f64 / st.wal_appends as f64,
            "B",
        )
        .note(format!(
            "{} bytes in {} records",
            st.wal_bytes, st.wal_appends
        )),
    );
    let glue = median(&t.self_us("commit.b1")).expect("200 groups");
    println!("trace: commit.b1 self time (outside its three children) {glue:.2} us");
    Ok(out)
}

/// `QueryClient::answer` per workload query: warm, and first after an
/// epoch was published (index caches of the mutated relations are cold).
fn answers(
    spec: &WarehouseSpec,
    inputs: &Inputs,
    scratch: &Path,
    t: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    const ROUNDS: u64 = 5;
    let catalog = spec.catalog();
    let dir = scratch.join("trace-answers");
    let dw = store::build_store(spec, inputs, &dir, 0)?;
    let mut core = ServerCore::new(dw, BatchPolicy::with_max_batch(1));
    let session = core.connect(SourceId::new(store::SOURCE)).session;
    let client = core.query_client();
    let names: Vec<(String, String)> = inputs
        .queries
        .iter()
        .map(|q| {
            (
                format!("relalg.answer_cold.{}", q.name),
                format!("relalg.answer_warm.{}", q.name),
            )
        })
        .collect();
    let mut seq = 0u64;
    for round in 0..ROUNDS {
        for (q, (cold, warm)) in inputs.queries.iter().zip(&names) {
            // One committed report → one fresh epoch.
            for env in store::envelopes(catalog, &inputs.stream, seq, seq + 1) {
                core.deliver(session, env, 0).map_err(|e| e.to_string())?;
            }
            seq += 1;
            t.leaf(cold, None, round, || client.answer(&q.expr))
                .map_err(|e| e.to_string())?;
            for _ in 0..3 {
                t.leaf(warm, None, round, || client.answer(&q.expr))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let mut out = Vec::new();
    for (q, (cold, warm)) in inputs.queries.iter().zip(&names) {
        out.push(us(
            &format!("relalg.answer_warm_us.{}", q.name),
            t.median_us(warm)?,
        ));
        out.push(us(
            &format!("relalg.answer_cold_us.{}", q.name),
            t.median_us(cold)?,
        ));
    }
    Ok(out)
}

/// The terms of a cold start: definition work (`augment`, the static
/// gate), snapshot decode + verify, WAL replay, the snapshot the recovery
/// rolls — and the sharded lineage's recovery of the same log.
fn recovery(
    spec: &WarehouseSpec,
    inputs: &Inputs,
    scratch: &Path,
    workload: &Workload,
    t: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for round in 0..3u64 {
        t.leaf("core.augment", None, round, || spec.clone().augment())
            .map_err(|e| e.to_string())?;
        t.leaf("analyze.accept_gate", None, round, || spec.verify_static())
            .map_err(|e| e.to_string())?;
    }
    out.push(Metric::new(
        "core.augment_ms",
        t.median_us("core.augment")? / 1e3,
        "ms",
    ));
    out.push(Metric::new(
        "analyze.accept_gate_ms",
        t.median_us("analyze.accept_gate")? / 1e3,
        "ms",
    ));

    // The two store directories a cold start can meet; the workload's own
    // template is one of them.
    let template = scratch.join("template");
    let other = scratch.join("trace-template");
    let (empty_tail, replay_tail) = if workload.tail == REPLAY_TAIL {
        drop(store::build_store(spec, inputs, &other, 0)?);
        (other, template)
    } else {
        drop(store::build_store(spec, inputs, &other, REPLAY_TAIL)?);
        (template, other)
    };
    let aug = spec.clone().augment().map_err(|e| e.to_string())?;
    let dir = scratch.join("trace-recover");
    let open = |t: &mut Tracer, name: &str, from: &Path, verify: bool| {
        copy_dir(from, &dir)?;
        let medium = FsMedium::new(&dir).map_err(|e| e.to_string())?;
        let config = DurabilityConfig {
            verify_on_open: verify,
            ..DurabilityConfig::default()
        };
        t.leaf(name, None, 0, || {
            Recovery::open(medium, aug.clone(), config)
        })
        .map_err(|e| e.to_string())
    };
    for _ in 0..3 {
        open(t, "storage.recover", &replay_tail, true)?;
        open(t, "storage.recover_noverify", &replay_tail, false)?;
        let (mut dw, _) = open(t, "storage.recover_noverify.empty_tail", &empty_tail, false)?;
        t.leaf("storage.snapshot", None, 0, || dw.snapshot())
            .map_err(|e| e.to_string())?;
    }
    let noverify = t.median_us("storage.recover_noverify")?;
    let floor = t.median_us("storage.recover_noverify.empty_tail")?;
    out.push(
        Metric::new(
            "storage.recover_ms",
            t.median_us("storage.recover")? / 1e3,
            "ms",
        )
        .note(format!("{REPLAY_TAIL} WAL records, verify on")),
    );
    out.push(Metric::new(
        "storage.recover_noverify_ms",
        noverify / 1e3,
        "ms",
    ));
    out.push(
        us(
            "storage.replay_us_per_record",
            (noverify - floor) / REPLAY_TAIL as f64,
        )
        .note(format!(
            "(recover_noverify − {:.1} ms with an empty tail) ÷ {REPLAY_TAIL}",
            floor / 1e3
        )),
    );
    out.push(Metric::new(
        "storage.snapshot_ms",
        t.median_us("storage.snapshot")? / 1e3,
        "ms",
    ));

    Ok(out)
}

/// ROADMAP's "stages sum to end-to-end": the per-stage medians of one
/// report's path through the server — wire parse, delivery, batcher wait,
/// application, group commit, publication — as a share of the window's
/// `ack_p50_ms`. The batcher wait is the configured max wait when batches
/// close on the deadline (fill below half the cap) and nothing when they
/// close on size. What is missing from 100 % is time no layer owns:
/// queueing behind the window in flight, and the reply path's stall.
pub fn stage_sum(layer: &[Metric], ack_p50_ms: f64) -> Result<Metric, String> {
    let get = |name: &str| {
        layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .ok_or(format!("no `{name}` metric"))
    };
    let by_deadline = get("server.batch_fill")? < BATCH as f64 / 2.0;
    let size = if by_deadline { "b1" } else { "b64" };
    let wait_ms = if by_deadline {
        BatchPolicy::default().max_wait_micros as f64 / 1e3
    } else {
        0.0
    };
    let stages_us = get("shell.parse_update_us")?
        + get("server.deliver_us")?
        + get(&format!("ingest.apply_batch_us_per_env.{size}"))?
        + get(&format!("storage.commit_applied_us_per_batch.{size}"))?
        + get("server.publish_us")?;
    let sum_ms = stages_us / 1e3 + wait_ms;
    Ok(Metric::new(
        "trace.stage_sum_vs_ack_p50_pct",
        100.0 * sum_ms / ack_p50_ms,
        "%",
    )
    .note(format!(
        "stages {sum_ms:.2} ms (batcher wait {wait_ms} ms) of ack_p50 {ack_p50_ms:.2} ms"
    )))
}
