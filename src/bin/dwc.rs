//! `dwc` — the warehouse shell and static analyzer.
//!
//! ```text
//! cargo run --bin dwc                      # interactive shell
//! cargo run --bin dwc -- analyze spec.dwc  # static verification
//! dwc> help
//! ```
//!
//! With no arguments, reads shell commands from stdin (one per line);
//! see [`dwcomplements::shell`] for the command language. The `analyze`
//! subcommand runs the static verifier of [`dwcomplements::analyze`]
//! over spec files (or, with `--self-check`, over the workspace's own
//! sources) without evaluating any relation, and exits non-zero when
//! any error-severity diagnostic is found.

use dwcomplements::analyze::cost::{estimate, CostConstants, TableStats};
use dwcomplements::analyze::planner::{choose, report_choice, PlannerInputs, WorkloadProfile};
use dwcomplements::analyze::{analyze, specfile, srclint, AnalyzeOptions, Report};
use dwcomplements::serve::{self, ServeOptions};
use dwcomplements::shell::{Outcome, Shell};
use dwcomplements::warehouse::{DurabilityConfig, FsMedium, Recovery, WarehouseSpec};
use std::io::{BufRead, Write};
use std::process::ExitCode;

const ANALYZE_USAGE: &str = "\
usage: dwc analyze [--json] [--cost] <spec.dwc>...
       dwc analyze [--json] --self-check [workspace-root]

Statically verifies warehouse spec files (catalog + PSJ views) against
the Theorem 2.2 preconditions and the plan hygiene lints, printing one
diagnostic per line (JSON lines with --json). Exits 0 when no
error-severity diagnostic was produced.

--cost additionally prices the four maintenance strategies for each
certified spec under a what-if workload (every source at 1000 rows, a
single-tuple delta per source in turn, mirrors cached, source
reachable) and prints the chosen strategy per delta — a table by
default, DWC-P001/P101 JSON lines with --json. Purely static: no
relation is evaluated.

--self-check lints the workspace's own sources instead: no panicking
calls in library code, no stray thread spawns, forbid(unsafe_code) in
every crate root.";

const RECOVER_USAGE: &str = "\
usage: dwc recover --spec <spec.dwc> [--no-verify] <dir>

Restores a durable warehouse from <dir>: reads the manifest, loads the
newest intact snapshot (falling back a generation past corrupt ones),
replays the write-ahead log through the idempotent ingestion path,
cross-checks W(W^-1(w)) = w, and rolls a fresh generation. The spec
file must declare the same catalog and views the state was persisted
under (definitions are code, not data). Prints the recovery report;
exits non-zero on any DWC-SNNN storage error.

--no-verify skips the reconstruction cross-check (faster on large
states; corruption then surfaces lazily).";

const SERVE_USAGE: &str = "\
usage: dwc serve --spec <spec.dwc> [--addr HOST:PORT] [--batch N]
                 [--idle-timeout-us U] [--no-verify] <dir>

Runs the warehouse as a long-running server over <dir>: many source
sessions ingest concurrently through group commits (N envelopes, one
WAL append, one fsync; acks only after the fsync), readers query
immutable epoch snapshots, and a restart resumes every source at its
acked sequence number. Binds --addr (default 127.0.0.1:4710; port 0
picks a free port) and prints `listening on <addr>`.

Group commit is self-clocking: the server commits whatever is pending
as soon as it has no other message to handle, so a lone report waits
for no timer and, under load, what arrives during one commit forms the
next batch. --batch caps a batch (default 64 envelopes). --idle-timeout-us reaps sessions silent past the
timeout (default 0 = never; reconnect resumes losslessly — send `ping`
to keep an idle session alive). On storage faults the server degrades
instead of dying: transient failures park writes and retry with
backoff, permanent failures turn the server read-only (queries keep
answering from the last published epoch). A directory written by an
older build in the key-range sharded layout fails closed with DWC-S304
(this build no longer opens sharded layouts).";

const CONNECT_USAGE: &str = "\
usage: dwc connect --source <name> [HOST:PORT]

Connects a source session to a running `dwc serve` (default address
127.0.0.1:4710). Type `insert Name (a=1, ...)` / `delete Name (...)`
exactly as in the local shell — sequencing is handled for you and
durable `ack` lines stream back asynchronously. Other verbs (`query`,
`epoch`, `stats`, `recover`, `quit`) pass through the line protocol.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("connect") => cmd_connect(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("usage: dwc [analyze ...] [recover ...] [serve ...] [connect ...]\n\n{ANALYZE_USAGE}\n\n{RECOVER_USAGE}\n\n{SERVE_USAGE}\n\n{CONNECT_USAGE}\n\nWithout arguments: the interactive shell.");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}` (try `dwc --help`)");
            ExitCode::from(2)
        }
        None => repl(),
    }
}

/// `dwc recover --spec <spec.dwc> [--no-verify] <dir>`.
fn cmd_recover(args: &[String]) -> ExitCode {
    let mut spec_path: Option<&str> = None;
    let mut dir: Option<&str> = None;
    let mut verify = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec_path = Some(p),
                None => {
                    eprintln!("--spec needs a file argument\n{RECOVER_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--no-verify" => verify = false,
            "--help" | "-h" => {
                println!("{RECOVER_USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n{RECOVER_USAGE}");
                return ExitCode::from(2);
            }
            path if dir.is_none() => dir = Some(path),
            extra => {
                eprintln!("unexpected argument `{extra}`\n{RECOVER_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(spec_path), Some(dir)) = (spec_path, dir) else {
        eprintln!("{RECOVER_USAGE}");
        return ExitCode::from(2);
    };

    let text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{spec_path}: cannot read: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (spec, report) = specfile::parse_spec(&text, spec_path);
    if report.has_errors() {
        print!("{report}");
        return ExitCode::FAILURE;
    }
    let aug = match WarehouseSpec::new(spec.catalog, spec.views).and_then(WarehouseSpec::augment) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{spec_path}: not a usable warehouse spec: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = DurabilityConfig {
        verify_on_open: verify,
        ..DurabilityConfig::default()
    };
    let medium = match FsMedium::new(dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{dir}: cannot open storage directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    match Recovery::open(medium, aug, config) {
        Ok((dw, rep)) => {
            println!("recovered from {}", rep.snapshot_used);
            println!("  snapshots skipped : {}", rep.snapshots_skipped);
            println!("  records replayed  : {}", rep.records_replayed);
            println!("  replay passes     : {}", rep.replay_passes);
            println!("  torn WAL tails    : {}", rep.torn_tails);
            println!(
                "  consistency check : {}",
                if rep.consistency_checked { "passed" } else { "skipped" }
            );
            println!(
                "  state             : {} relations, {} tuples, generation {}",
                dw.state().len(),
                dw.state().total_tuples(),
                dw.generation()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("recovery failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads and statically validates a spec file into a [`WarehouseSpec`].
fn load_spec(spec_path: &str) -> Result<WarehouseSpec, String> {
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: cannot read: {e}"))?;
    let (spec, report) = specfile::parse_spec(&text, spec_path);
    if report.has_errors() {
        return Err(format!("{report}"));
    }
    WarehouseSpec::new(spec.catalog, spec.views)
        .map_err(|e| format!("{spec_path}: not a usable warehouse spec: {e}"))
}

/// `dwc serve --spec <spec.dwc> [--addr A] [--batch N]
/// [--idle-timeout-us U] [--no-verify] <dir>`.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut spec_path: Option<String> = None;
    let mut dir: Option<&str> = None;
    let mut options = ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> Option<String> {
            match it.next() {
                Some(v) => Some(v.clone()),
                None => {
                    eprintln!("{flag} needs an argument\n{SERVE_USAGE}");
                    None
                }
            }
        };
        match arg.as_str() {
            "--spec" => match take("--spec") {
                Some(p) => spec_path = Some(p),
                None => return ExitCode::from(2),
            },
            "--addr" => match take("--addr") {
                Some(a) => options.addr = a,
                None => return ExitCode::from(2),
            },
            "--batch" => match take("--batch").and_then(|v| v.parse().ok()) {
                Some(n) => options.max_batch = n,
                None => {
                    eprintln!("--batch needs an integer\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--idle-timeout-us" => {
                match take("--idle-timeout-us").and_then(|v| v.parse().ok()) {
                    Some(u) => options.idle_timeout_micros = u,
                    None => {
                        eprintln!("--idle-timeout-us needs an integer\n{SERVE_USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--no-verify" => options.verify_on_open = false,
            "--help" | "-h" => {
                println!("{SERVE_USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n{SERVE_USAGE}");
                return ExitCode::from(2);
            }
            path if dir.is_none() => dir = Some(path),
            extra => {
                eprintln!("unexpected argument `{extra}`\n{SERVE_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(spec_path), Some(dir)) = (spec_path, dir) else {
        eprintln!("{SERVE_USAGE}");
        return ExitCode::from(2);
    };
    let spec = match load_spec(&spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match serve::serve(spec, dir, options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dwc connect --source <name> [HOST:PORT]`.
fn cmd_connect(args: &[String]) -> ExitCode {
    let mut source: Option<&str> = None;
    let mut addr = "127.0.0.1:4710".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--source" => match it.next() {
                Some(s) => source = Some(s),
                None => {
                    eprintln!("--source needs a name\n{CONNECT_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{CONNECT_USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n{CONNECT_USAGE}");
                return ExitCode::from(2);
            }
            a => addr = a.to_owned(),
        }
    }
    let Some(source) = source else {
        eprintln!("{CONNECT_USAGE}");
        return ExitCode::from(2);
    };
    match serve::connect(&addr, source) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("connect failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dwc analyze [--json] <files>` / `dwc analyze [--json] --self-check [root]`.
fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut self_check = false;
    let mut cost = false;
    let mut paths: Vec<&str> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--self-check" => self_check = true,
            "--cost" => cost = true,
            "--help" | "-h" => {
                println!("{ANALYZE_USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n{ANALYZE_USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(path),
        }
    }

    let mut failed = false;
    if self_check {
        let root = paths.first().copied().unwrap_or(".");
        if paths.len() > 1 {
            eprintln!("--self-check takes at most one root directory\n{ANALYZE_USAGE}");
            return ExitCode::from(2);
        }
        let report = srclint::self_check(std::path::Path::new(root));
        failed |= emit(&report, &format!("self-check {root}"), json);
    } else {
        if paths.is_empty() {
            eprintln!("{ANALYZE_USAGE}");
            return ExitCode::from(2);
        }
        for path in paths {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{path}: cannot read: {e}");
                    failed = true;
                    continue;
                }
            };
            let (spec, mut report) = specfile::parse_spec(&text, path);
            // Certification only makes sense over a spec that parsed; on
            // parse errors the report already explains what broke.
            if !report.has_errors() {
                let opts = AnalyzeOptions::certify();
                report.extend(analyze(&spec.catalog, &spec.views, &[], &opts));
            }
            failed |= emit(&report, path, json);
            if cost && !report.has_errors() {
                match WarehouseSpec::new(spec.catalog, spec.views)
                    .and_then(WarehouseSpec::augment)
                {
                    Ok(aug) => cost_analysis(&aug, path, json),
                    Err(e) => {
                        eprintln!("{path}: cannot augment for --cost: {e}");
                        failed = true;
                    }
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--cost`: prices the four maintenance strategies for one certified
/// spec under a uniform what-if workload — every source at 1000 rows, a
/// single-tuple delta per source in turn, mirrors cached, source
/// reachable. Purely static (cost-model arithmetic over the certified
/// plans); the actual ingest-time decision is made per report by the
/// warehouse's adaptive policy against live statistics.
fn cost_analysis(aug: &dwcomplements::warehouse::AugmentedWarehouse, subject: &str, json: bool) {
    const WHATIF_ROWS: f64 = 1000.0;
    let consts = CostConstants::calibrated();
    let catalog = aug.catalog();
    let definitions = aug.all_definitions();
    let inputs = PlannerInputs { catalog, definitions: &definitions, inverses: aug.inverse() };

    // Stored sizes follow from the what-if source sizes by estimation.
    let mut base_stats = TableStats::new();
    for name in catalog.relation_names() {
        base_stats.declare_from_catalog(catalog, name, WHATIF_ROWS);
    }
    let mut profile = WorkloadProfile::default();
    for name in catalog.relation_names() {
        profile.base_rows.insert(name, WHATIF_ROWS);
    }
    for (&view, def) in &definitions {
        profile
            .stored_rows
            .insert(view, estimate(def, &base_stats, &consts).rows);
    }
    profile.mirrors_cached = true;
    profile.source_reachable = true;

    let mut out = Report::new();
    if !json {
        println!(
            "{subject}: maintenance cost (what-if: |R|={WHATIF_ROWS:.0}, |Δ|=1, \
             mirrors cached, source reachable)"
        );
    }
    for base in catalog.relation_names() {
        profile.delta_rows.clear();
        profile.delta_rows.insert(base, 1.0);
        let choice = choose(&inputs, &profile, &consts);
        if json {
            report_choice(&choice, &format!("{subject}: Δ{base}"), &mut out);
        } else {
            let totals = choice
                .totals
                .iter()
                .map(|t| format!("{} {:.1} µs", t.strategy, t.cost_ns / 1_000.0))
                .collect::<Vec<_>>()
                .join("  |  ");
            println!(
                "  Δ{base}: chose {} (≈ {:.1} µs)\n    {totals}",
                choice.chosen,
                choice.predicted_ns / 1_000.0
            );
        }
    }
    if json {
        print!("{}", out.to_json_lines());
    }
}

/// Prints one report; returns true when it carries errors.
fn emit(report: &Report, subject: &str, json: bool) -> bool {
    if json {
        print!("{}", report.to_json_lines());
    } else if report.is_empty() {
        println!("{subject}: clean");
    } else {
        println!("{subject}:");
        print!("{report}");
    }
    report.has_errors()
}

fn repl() -> ExitCode {
    let mut shell = Shell::new();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    println!("dwcomplements shell — `help` for commands, `quit` to leave");
    loop {
        print!("dwc> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        match shell.exec(&line) {
            Ok(Outcome::Quit) => break,
            Ok(Outcome::Text(t)) => {
                if !t.is_empty() {
                    println!("{t}");
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
    ExitCode::SUCCESS
}
