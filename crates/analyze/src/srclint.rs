//! Zero-dependency in-tree source lint (`dwc analyze --self-check`).
//!
//! Scans the workspace's own Rust sources with `std::fs` only:
//!
//! * `S501` — no `.unwrap()` / `.expect(` / `panic!` / `unreachable!` /
//!   `todo!` / `unimplemented!` in the non-test library code of
//!   `crates/relalg`, `crates/core` and `crates/warehouse` (the layers a
//!   warehouse deployment actually links). Scanning stops at the first
//!   `#[cfg(test)]` line of a file (the repo convention keeps test
//!   modules at the bottom), and a same-line `// lint:allow <token> --
//!   reason` comment waives a single occurrence.
//! * `S502` — no thread is started (`thread::spawn`, `thread::scope`,
//!   `thread::Builder`) outside `src/serve.rs` (the server's
//!   connection/engine threads): library code runs on its caller's
//!   thread. Test modules are exempt; a same-line
//!   `// lint:allow thread_spawn -- reason` waives one line.
//! * `S503` — every crate root (and the workspace root library) carries
//!   `#![forbid(unsafe_code)]`.
//! * `S504` — no `std::fs` *writes* (`fs::write`, `fs::rename`,
//!   `File::create`, `OpenOptions::new`, …) outside
//!   `crates/warehouse/src/storage/`, the one crash-tested durability
//!   module. Reads are unrestricted; test modules are exempt; a
//!   same-line `// lint:allow fs_write -- reason` waives one line.
//! * `S505` — the server's durable-ack discipline. `Ack::new(` may
//!   appear only in `crates/warehouse/src/server/commit.rs` (acks are
//!   minted strictly after the group fsync returns), and `.sync(`
//!   calls inside `crates/warehouse/src` stay confined to the
//!   `storage/` tree. With the retry/degraded paths the rule also
//!   covers the construction bypasses: `Ack {` struct literals and
//!   `.publish(` epoch publications inside the warehouse crate stay
//!   confined to the commit loop, so no code path — including error
//!   branches and retry drains — can mint an ack or publish an epoch
//!   before its batch's fsync returned. Waivers: `ack_new` /
//!   `sync_call` / `ack_literal` / `epoch_publish`.
//! * `S506` — columnar-storage encapsulation. The dictionary-coded
//!   column vectors and keyed delta indexes live inside
//!   `crates/relalg/src/columns.rs`; every other layer goes through
//!   `Relation`'s set API so reads benefit from the cached key
//!   indexes. Outside `crates/relalg/src`, the raw access tokens
//!   (`.iter_rows(`, `Columns::`, `KeyIndex::`) are banned; a
//!   same-line `// lint:allow raw_columns -- reason` waives one line.
//! * `S507` — maintenance-strategy dispatch goes through the cost-based
//!   planner. Naming a concrete strategy (`maintain_by_` calls,
//!   `MaintenanceStrategy::` variants) is confined to the planner
//!   modules (`crates/analyze/src/planner.rs`,
//!   `crates/warehouse/src/planner.rs`) and the module defining the
//!   strategies themselves (`crates/warehouse/src/maintain.rs`); tests
//!   and benches live outside the scanned src trees and stay free. A
//!   same-line `// lint:allow strategy_dispatch -- reason` waives one
//!   line (recovery and verification oracles legitimately pin
//!   reconstruction).
//! * `S509` — one reply, one socket write. In `src/serve.rs` the write
//!   tokens (`write!(`, `writeln!(`, `.write_all(`, `.write(`,
//!   `.write_fmt(`) may appear only inside the line encoder's own
//!   functions (`push` renders into the buffer, `flush_to` hands the
//!   buffer to the socket in one `write_all`), so a reply written as
//!   text-then-newline — two small writes, the second held by Nagle for
//!   the peer's delayed ACK — cannot come back. A same-line
//!   `// lint:allow socket_write -- reason` waives one line.
//!
//! Comments, string literals, raw strings and char literals are stripped
//! by a small lexer before token matching, so a doc-comment mentioning
//! `panic!` does not trip the lint; waivers are matched on the *raw*
//! line precisely because they live in comments.

use crate::diag::{Code, Report, Severity};
use std::fs;
use std::path::{Path, PathBuf};

/// Files excluded from the `S501` panic-free rule, with the reason
/// reported in documentation: they are test-support code compiled into
/// the library target.
const S501_EXCLUDED: &[&str] = &[
    // Randomized test-data generator; its invariants are local.
    "crates/relalg/src/gen.rs",
    // cfg(test)-gated fixture module.
    "crates/warehouse/src/testutil.rs",
];

/// Library trees subject to the `S501` panic-free rule.
const S501_ROOTS: &[&str] = &["crates/relalg/src", "crates/core/src", "crates/warehouse/src"];

/// The one module allowed to start threads: the server runtime
/// (engine, acceptor, per-connection threads).
const S502_ALLOWED: &[&str] = &["src/serve.rs"];

/// Every spelling by which `std` starts a thread.
const THREAD_STARTS: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];

/// The one module tree allowed to write through `std::fs`: the
/// durability layer, whose writes follow the WAL/snapshot atomicity
/// discipline and are crash-tested. Everything else must stay
/// read-only on disk (`S504`).
const S504_ALLOWED_PREFIX: &str = "crates/warehouse/src/storage/";

/// Filesystem-write tokens banned outside the storage module:
/// `(needle, waiver name)` — all waived by `fs_write`.
const FS_WRITE_BANNED: &[&str] = &[
    "fs::write",
    "fs::rename",
    "fs::remove_file",
    "fs::remove_dir",
    "fs::create_dir",
    "fs::copy",
    "fs::hard_link",
    "fs::set_permissions",
    "File::create",
    "OpenOptions::new",
];

/// The one file allowed to construct durable acks (`Ack::new(`): the
/// server commit loop, which mints them strictly after the group
/// fsync returns (`S505`).
const S505_ACK_ALLOWED: &str = "crates/warehouse/src/server/commit.rs";

/// The tree whose `.sync(` calls `S505` polices (the warehouse crate —
/// other crates, e.g. the testkit's simulated filesystem, legitimately
/// define and exercise sync).
const S505_SYNC_TREE: &str = "crates/warehouse/src";

/// Where `.sync(` may appear inside that tree: the storage layer.
const S505_SYNC_ALLOWED_PREFIX: &str = "crates/warehouse/src/storage/";

/// The tree whose ack/epoch *construction bypasses* `S505` polices:
/// inside the warehouse crate, `Ack {` struct literals and `.publish(`
/// epoch publications are confined to the commit loop, closing the
/// loophole where a retry or error branch builds an ack without going
/// through `Ack::new(`.
const S505_MINT_TREE: &str = "crates/warehouse/src";

/// The one tree allowed to touch the columnar storage internals: the
/// relalg crate itself, which owns the dictionary, the column vectors
/// and the keyed delta indexes (`S506`).
const S506_ALLOWED_TREE: &str = "crates/relalg/src";

/// Raw columnar-access tokens banned outside the relalg crate — all
/// waived by `raw_columns`.
const S506_BANNED: &[&str] = &[".iter_rows(", "Columns::", "KeyIndex::"];

/// The files allowed to name concrete maintenance strategies: the two
/// planner modules (which own the cost-based choice) and the module
/// that defines the strategies (`S507`).
const S507_ALLOWED: &[&str] = &[
    "crates/analyze/src/planner.rs",
    "crates/warehouse/src/planner.rs",
    "crates/warehouse/src/maintain.rs",
];

/// Strategy-dispatch tokens banned outside the planner modules — all
/// waived by `strategy_dispatch`.
const S507_BANNED: &[&str] = &["maintain_by_", "MaintenanceStrategy::"];

/// The file whose socket writes `S509` polices: the server runtime and
/// the `dwc connect` client.
const S509_FILE: &str = "src/serve.rs";

/// The functions of that file allowed to name a write token: the line
/// encoder's render-into-buffer and its single flush.
const S509_ALLOWED_FNS: &[&str] = &["push", "flush_to"];

/// Write tokens banned outside those functions — all waived by
/// `socket_write`.
const S509_BANNED: &[&str] = &["write!(", "writeln!(", ".write_all(", ".write(", ".write_fmt("];

/// Banned tokens: `(needle, waiver name)`.
const BANNED: &[(&str, &str)] = &[
    (".unwrap()", "unwrap"),
    (".expect(", "expect"),
    ("panic!", "panic"),
    ("unreachable!", "unreachable"),
    ("todo!", "todo"),
    ("unimplemented!", "unimplemented"),
];

/// Runs every source-lint rule over the workspace rooted at `root`.
/// I/O problems (unreadable files) are reported as findings, not
/// panics.
pub fn self_check(root: &Path) -> Report {
    let mut report = Report::new();

    // --- S501: panic-free library code.
    for tree in S501_ROOTS {
        for file in rust_files(&root.join(tree), &mut report) {
            let rel = rel_path(root, &file);
            if S501_EXCLUDED.contains(&rel.as_str()) {
                continue;
            }
            scan_banned(&file, &rel, &mut report);
        }
    }

    // --- S502: thread-start containment. Scan every crate's src tree
    // plus the workspace root's own src.
    let mut src_trees: Vec<PathBuf> = vec![root.join("src")];
    src_trees.extend(crate_dirs(root, &mut report).into_iter().map(|d| d.join("src")));
    for tree in src_trees {
        for file in rust_files(&tree, &mut report) {
            let rel = rel_path(root, &file);
            if S502_ALLOWED.contains(&rel.as_str()) {
                continue;
            }
            scan_spawn(&file, &rel, &mut report);
        }
    }

    // --- S504: filesystem writes confined to warehouse::storage. Same
    // tree set as S502: every crate's src plus the workspace root's.
    let mut src_trees: Vec<PathBuf> = vec![root.join("src")];
    src_trees.extend(crate_dirs(root, &mut report).into_iter().map(|d| d.join("src")));
    for tree in src_trees {
        for file in rust_files(&tree, &mut report) {
            let rel = rel_path(root, &file);
            if rel.starts_with(S504_ALLOWED_PREFIX) {
                continue;
            }
            scan_fs_writes(&file, &rel, &mut report);
        }
    }

    // --- S505: durable-ack discipline. `Ack::new(` confined to the
    // commit loop (scanned everywhere a src tree exists); `.sync(`
    // confined to the storage layer within the warehouse crate; `Ack {`
    // literals and `.publish(` confined to the commit loop within the
    // warehouse crate (the construction bypasses an error/retry branch
    // could otherwise use to ack or publish before the fsync).
    let mut src_trees: Vec<PathBuf> = vec![root.join("src")];
    src_trees.extend(crate_dirs(root, &mut report).into_iter().map(|d| d.join("src")));
    for tree in src_trees {
        for file in rust_files(&tree, &mut report) {
            let rel = rel_path(root, &file);
            let check_ack = rel != S505_ACK_ALLOWED;
            let check_sync =
                rel.starts_with(S505_SYNC_TREE) && !rel.starts_with(S505_SYNC_ALLOWED_PREFIX);
            let check_mint = rel.starts_with(S505_MINT_TREE) && rel != S505_ACK_ALLOWED;
            if check_ack || check_sync || check_mint {
                scan_ack_discipline(&file, &rel, check_ack, check_sync, check_mint, &mut report);
            }
        }
    }

    // --- S506: columnar-storage encapsulation. Scan every src tree
    // except the relalg crate, which owns the representation.
    let mut src_trees: Vec<PathBuf> = vec![root.join("src")];
    src_trees.extend(crate_dirs(root, &mut report).into_iter().map(|d| d.join("src")));
    for tree in src_trees {
        for file in rust_files(&tree, &mut report) {
            let rel = rel_path(root, &file);
            if rel.starts_with(S506_ALLOWED_TREE) {
                continue;
            }
            scan_raw_columns(&file, &rel, &mut report);
        }
    }

    // --- S507: strategy dispatch confined to the planner modules. Same
    // tree set again; the planner files themselves are exempt.
    let mut src_trees: Vec<PathBuf> = vec![root.join("src")];
    src_trees.extend(crate_dirs(root, &mut report).into_iter().map(|d| d.join("src")));
    for tree in src_trees {
        for file in rust_files(&tree, &mut report) {
            let rel = rel_path(root, &file);
            if S507_ALLOWED.contains(&rel.as_str()) {
                continue;
            }
            scan_strategy_dispatch(&file, &rel, &mut report);
        }
    }

    // --- S509: socket writes in the server runtime confined to the
    // line encoder.
    scan_socket_writes(&root.join(S509_FILE), S509_FILE, &mut report);

    // --- S503: forbid(unsafe_code) in crate roots.
    let mut lib_roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    lib_roots.extend(
        crate_dirs(root, &mut report)
            .into_iter()
            .map(|d| d.join("src/lib.rs")),
    );
    for lib in lib_roots {
        let rel = rel_path(root, &lib);
        match fs::read_to_string(&lib) {
            Ok(text) => {
                if !text.contains("#![forbid(unsafe_code)]") {
                    report.push(
                        Code::S503MissingForbidUnsafe,
                        Severity::Error,
                        rel,
                        "crate root must declare #![forbid(unsafe_code)]".to_owned(),
                    );
                }
            }
            Err(e) => {
                report.push(
                    Code::S503MissingForbidUnsafe,
                    Severity::Error,
                    rel,
                    format!("cannot read crate root: {e}"),
                );
            }
        }
    }

    report
}

/// The `crates/*` member directories, sorted for deterministic reports.
fn crate_dirs(root: &Path, report: &mut Report) -> Vec<PathBuf> {
    let crates = root.join("crates");
    let mut out = Vec::new();
    match fs::read_dir(&crates) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() && path.join("src/lib.rs").is_file() {
                    out.push(path);
                }
            }
        }
        Err(e) => {
            report.push(
                Code::S503MissingForbidUnsafe,
                Severity::Error,
                rel_path(root, &crates),
                format!("cannot list workspace members: {e}"),
            );
        }
    }
    out.sort();
    out
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path, report: &mut Report) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(dir, &mut out, report);
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>, report: &mut Report) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            report.push(
                Code::S501BannedCall,
                Severity::Error,
                dir.display().to_string(),
                format!("cannot read directory: {e}"),
            );
            return;
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out, report);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Scans one file for banned panicking tokens.
fn scan_banned(path: &Path, rel: &str, report: &mut Report) {
    let Some(lines) = stripped_lines(path, rel, report) else {
        return;
    };
    for (line_no, raw, stripped) in &lines {
        // Test modules sit at the bottom of each file by repo
        // convention; everything after the marker is test code.
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        for (needle, name) in BANNED {
            if stripped.contains(needle) && !has_waiver(raw, name) {
                report.push(
                    Code::S501BannedCall,
                    Severity::Error,
                    format!("{rel}:{line_no}"),
                    format!(
                        "`{needle}` in non-test library code; return a typed error instead \
                         (or waive with `// lint:allow {name} -- reason`)"
                    ),
                );
            }
        }
    }
}

/// Scans one file's non-test code for thread starts (any path spelling
/// ending in one of `THREAD_STARTS`).
fn scan_spawn(path: &Path, rel: &str, report: &mut Report) {
    let Some(lines) = stripped_lines(path, rel, report) else {
        return;
    };
    for (line_no, raw, stripped) in &lines {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        for needle in THREAD_STARTS {
            if stripped.contains(needle) && !has_waiver(raw, "thread_spawn") {
                report.push(
                    Code::S502ThreadSpawn,
                    Severity::Error,
                    format!("{rel}:{line_no}"),
                    format!(
                        "`{needle}` outside {S502_ALLOWED:?}; library code runs on its \
                         caller's thread (or waive with `// lint:allow thread_spawn -- reason`)"
                    ),
                );
            }
        }
    }
}

/// Scans one file for filesystem-write tokens (see `FS_WRITE_BANNED`).
/// Test modules at the bottom of a file (first `#[cfg(test)]` line
/// onward) may write scratch files freely; library code may not.
fn scan_fs_writes(path: &Path, rel: &str, report: &mut Report) {
    let Some(lines) = stripped_lines(path, rel, report) else {
        return;
    };
    for (line_no, raw, stripped) in &lines {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        for needle in FS_WRITE_BANNED {
            if stripped.contains(needle) && !has_waiver(raw, "fs_write") {
                report.push(
                    Code::S504FsWriteOutsideStorage,
                    Severity::Error,
                    format!("{rel}:{line_no}"),
                    format!(
                        "`{needle}` outside {S504_ALLOWED_PREFIX}; route durable writes \
                         through warehouse::storage (or waive with \
                         `// lint:allow fs_write -- reason`)"
                    ),
                );
            }
        }
    }
}

/// Scans one file for `S505` violations: durable-ack construction
/// (`Ack::new(`) outside the commit loop, `.sync(` calls outside the
/// storage layer, and — inside the warehouse crate — the construction
/// bypasses (`Ack {` literals, `.publish(` epoch publications) outside
/// the commit loop. Test modules at the bottom of a file are exempt
/// (they drive test doubles, not the durability path).
fn scan_ack_discipline(
    path: &Path,
    rel: &str,
    check_ack: bool,
    check_sync: bool,
    check_mint: bool,
    report: &mut Report,
) {
    let Some(lines) = stripped_lines(path, rel, report) else {
        return;
    };
    for (line_no, raw, stripped) in &lines {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        if check_ack && stripped.contains("Ack::new(") && !has_waiver(raw, "ack_new") {
            report.push(
                Code::S505AckOutsideCommitLoop,
                Severity::Error,
                format!("{rel}:{line_no}"),
                format!(
                    "`Ack::new(` outside {S505_ACK_ALLOWED}; acks may only be minted \
                     after the commit loop's group fsync (or waive with \
                     `// lint:allow ack_new -- reason`)"
                ),
            );
        }
        if check_sync && stripped.contains(".sync(") && !has_waiver(raw, "sync_call") {
            report.push(
                Code::S505AckOutsideCommitLoop,
                Severity::Error,
                format!("{rel}:{line_no}"),
                format!(
                    "`.sync(` outside {S505_SYNC_ALLOWED_PREFIX}; fsync decisions belong \
                     to the storage layer (or waive with \
                     `// lint:allow sync_call -- reason`)"
                ),
            );
        }
        if check_mint {
            if stripped.contains("Ack {") && !has_waiver(raw, "ack_literal") {
                report.push(
                    Code::S505AckOutsideCommitLoop,
                    Severity::Error,
                    format!("{rel}:{line_no}"),
                    format!(
                        "`Ack {{` literal outside {S505_ACK_ALLOWED}; constructing an ack \
                         without `Ack::new(` bypasses the ack-after-fsync discipline — \
                         error and retry branches must not mint acks (or waive with \
                         `// lint:allow ack_literal -- reason`)"
                    ),
                );
            }
            if stripped.contains(".publish(") && !has_waiver(raw, "epoch_publish") {
                report.push(
                    Code::S505AckOutsideCommitLoop,
                    Severity::Error,
                    format!("{rel}:{line_no}"),
                    format!(
                        "`.publish(` outside {S505_ACK_ALLOWED}; epochs become readable \
                         only from the commit loop after a durable batch (or waive with \
                         `// lint:allow epoch_publish -- reason`)"
                    ),
                );
            }
        }
    }
}

/// Scans one file for raw columnar-storage access (see `S506_BANNED`).
/// Test modules at the bottom of a file are exempt (they may poke the
/// representation to assert invariants), library code is not.
fn scan_raw_columns(path: &Path, rel: &str, report: &mut Report) {
    let Some(lines) = stripped_lines(path, rel, report) else {
        return;
    };
    for (line_no, raw, stripped) in &lines {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        for needle in S506_BANNED {
            if stripped.contains(needle) && !has_waiver(raw, "raw_columns") {
                report.push(
                    Code::S506RawColumnAccess,
                    Severity::Error,
                    format!("{rel}:{line_no}"),
                    format!(
                        "`{needle}` outside {S506_ALLOWED_TREE}; go through the Relation \
                         set API so reads share the cached key indexes (or waive with \
                         `// lint:allow raw_columns -- reason`)"
                    ),
                );
            }
        }
    }
}

/// Scans one file for ad-hoc maintenance-strategy dispatch (see
/// `S507_BANNED`). Test modules at the bottom of a file are exempt
/// (differential suites legitimately pin every strategy), library code
/// must route through the planner so the cost model stays in charge.
fn scan_strategy_dispatch(path: &Path, rel: &str, report: &mut Report) {
    let Some(lines) = stripped_lines(path, rel, report) else {
        return;
    };
    for (line_no, raw, stripped) in &lines {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        for needle in S507_BANNED {
            if stripped.contains(needle) && !has_waiver(raw, "strategy_dispatch") {
                report.push(
                    Code::S507StrategyDispatchOutsidePlanner,
                    Severity::Error,
                    format!("{rel}:{line_no}"),
                    format!(
                        "`{needle}` outside {S507_ALLOWED:?}; route the choice through the \
                         cost-based planner (or waive with \
                         `// lint:allow strategy_dispatch -- reason`)"
                    ),
                );
            }
        }
    }
}

/// Scans one file for write tokens (see `S509_BANNED`) outside the
/// functions in `S509_ALLOWED_FNS`. A line belongs to the function whose
/// `fn` header was seen last — the scanned file nests no functions. The
/// test module at the bottom is exempt.
fn scan_socket_writes(path: &Path, rel: &str, report: &mut Report) {
    let Some(lines) = stripped_lines(path, rel, report) else {
        return;
    };
    let mut current_fn = String::new();
    for (line_no, raw, stripped) in &lines {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        if let Some(name) = fn_header_name(stripped) {
            current_fn = name.to_owned();
        }
        if S509_ALLOWED_FNS.contains(&current_fn.as_str()) {
            continue;
        }
        for needle in S509_BANNED {
            if stripped.contains(needle) && !has_waiver(raw, "socket_write") {
                report.push(
                    Code::S509SocketWriteOutsideEncoder,
                    Severity::Error,
                    format!("{rel}:{line_no}"),
                    format!(
                        "`{needle}` outside the line encoder ({S509_ALLOWED_FNS:?}); encode \
                         the whole reply into a `LineBuf` and flush it with one write (or \
                         waive with `// lint:allow socket_write -- reason`)"
                    ),
                );
            }
        }
    }
}

/// The name a `fn` item header on this (stripped) line declares, if any.
fn fn_header_name(stripped: &str) -> Option<&str> {
    let at = stripped
        .match_indices("fn ")
        .map(|(i, _)| i)
        .find(|&i| !stripped[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_'))?;
    let name = stripped[at + 3..].trim_start();
    let end = name
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    (end > 0).then(|| &name[..end])
}

fn has_waiver(raw_line: &str, name: &str) -> bool {
    raw_line
        .find("lint:allow")
        .is_some_and(|p| raw_line[p..].contains(name))
}

/// Reads a file and returns `(line number, raw line, stripped line)`
/// triples with comments/strings/char literals blanked out.
#[allow(clippy::type_complexity)]
fn stripped_lines(
    path: &Path,
    rel: &str,
    report: &mut Report,
) -> Option<Vec<(usize, String, String)>> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            report.push(
                Code::S501BannedCall,
                Severity::Error,
                rel.to_owned(),
                format!("cannot read file: {e}"),
            );
            return None;
        }
    };
    let stripped = strip_source(&text);
    Some(
        text.lines()
            .zip(stripped.lines())
            .enumerate()
            .map(|(i, (raw, s))| (i + 1, raw.to_owned(), s.to_owned()))
            .collect(),
    )
}

/// Replaces the contents of comments, string literals, raw strings and
/// char literals by spaces, preserving newlines so line numbers align.
fn strip_source(text: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let mut out = String::with_capacity(text.len());
    let chars: Vec<char> = text.chars().collect();
    let mut st = State::Normal;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            State::Normal => match c {
                '/' if next == Some('/') => {
                    st = State::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    st = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    st = State::Str;
                    out.push(' ');
                    i += 1;
                }
                'r' if matches!(next, Some('"') | Some('#')) => {
                    // Possible raw string r"..." / r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        st = State::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                'b' if next == Some('"') => {
                    st = State::Str;
                    out.push_str("  ");
                    i += 2;
                }
                '\'' => {
                    // Char literal or lifetime. A literal is '\…' or 'x'
                    // followed by a closing quote; anything else is a
                    // lifetime marker.
                    if next == Some('\\') {
                        out.push(' ');
                        i += 2; // consume '\ and the escaped char
                        while i < chars.len() && chars[i] != '\'' {
                            out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                            i += 1;
                        }
                        out.push(' ');
                        i += 1; // closing quote
                    } else if chars.get(i + 2) == Some(&'\'') {
                        out.push_str("   ");
                        i += 3;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                '\n' => {
                    out.push('\n');
                    i += 1;
                }
                c => {
                    out.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    st = State::Normal;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // An escape consumes the next char too — but an
                    // escaped newline (string line-continuation) must
                    // survive, or every later line number drifts.
                    out.push(' ');
                    out.push(if next == Some('\n') { '\n' } else { ' ' });
                    i += 2;
                } else if c == '"' {
                    st = State::Normal;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = State::Normal;
                        for _ in i..j {
                            out.push(' ');
                        }
                        i = j;
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_comments_and_strings() {
        let src = r#"
// panic! in a comment
let x = "panic!(inside string)";
let c = '"'; // char literal with a quote
let r = r"panic! raw";
call(); /* block panic! comment */ after();
"#;
        let s = strip_source(src);
        assert!(!s.contains("panic!"), "{s}");
        assert!(s.contains("let x ="));
        assert!(s.contains("call();"));
        assert!(s.contains("after();"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn strip_preserves_lines_across_string_continuations() {
        // A `\` at end of line inside a string literal escapes the
        // newline. The stripped text must keep that newline, or every
        // diagnostic after it points ten lines uphill of the offence.
        let src = "let m = \"first half \\\n    second half\";\nx.sync(y); // lint:allow sync_call -- reason\n";
        let s = strip_source(src);
        assert_eq!(s.lines().count(), src.lines().count());
        let (_, raw, stripped) = src
            .lines()
            .zip(s.lines())
            .enumerate()
            .map(|(i, (r, st))| (i + 1, r, st))
            .find(|(_, _, st)| st.contains(".sync("))
            .expect("sync line survives stripping");
        assert!(raw.contains("lint:allow sync_call"), "raw/stripped desynced: {raw}");
        assert!(has_waiver(raw, "sync_call"));
        let _ = stripped;
    }

    #[test]
    fn strip_keeps_code_after_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.unwrap() }";
        let s = strip_source(src);
        assert!(s.contains(".unwrap()"));
    }

    #[test]
    fn strip_handles_raw_hash_strings() {
        let src = r###"let x = r#"a "quoted" panic!"# ; x.unwrap()"###;
        let s = strip_source(src);
        assert!(!s.contains("panic!"));
        assert!(s.contains(".unwrap()"));
    }

    #[test]
    fn waiver_matches_same_line_only() {
        assert!(has_waiver("foo.expect(\"x\"); // lint:allow expect -- reason", "expect"));
        assert!(!has_waiver("foo.expect(\"x\");", "expect"));
        assert!(!has_waiver("// lint:allow unwrap", "expect"));
    }

    #[test]
    fn s505_flags_ack_and_sync_outside_their_modules() {
        let dir = std::env::temp_dir().join(format!("dwc-srclint-s505-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("rogue.rs");
        fs::write(
            &file,
            "fn f(m: &M) {\n    let a = Ack::new(1);\n    m.sync(\"wal\");\n    \
             let b = Ack::new(2); // lint:allow ack_new -- exercising the waiver\n    \
             let c = Ack { session, epoch: 0 };\n    epochs.publish(state);\n    \
             let d = Ack { seq: 1 }; // lint:allow ack_literal -- exercising the waiver\n}\n\
             #[cfg(test)]\nmod t { fn g() { Ack::new(3); } }\n",
        )
        .unwrap();
        let mut report = Report::new();
        scan_ack_discipline(&file, "src/rogue.rs", true, true, true, &mut report);
        let text = report.to_string();
        assert_eq!(
            text.matches("DWC-S505").count(),
            4,
            "one ack + one sync + one literal + one publish; waivers and \
             test module exempt:\n{text}"
        );
        // With every check disabled the same file is clean.
        let mut clean = Report::new();
        scan_ack_discipline(&file, "src/rogue.rs", false, false, false, &mut clean);
        assert!(!clean.has_errors());
        fs::remove_file(&file).ok();
        fs::remove_dir(&dir).ok();
    }

    #[test]
    fn s502_flags_every_way_to_start_a_thread() {
        let dir = std::env::temp_dir().join(format!("dwc-srclint-s502-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("rogue.rs");
        fs::write(
            &file,
            "fn f() {\n    std::thread::spawn(|| ());\n    \
             thread::scope(|s| { s.spawn(|| ()); });\n    \
             let h = std::thread::Builder::new().spawn(|| ());\n    \
             thread::spawn(g); // lint:allow thread_spawn -- exercising the waiver\n    \
             let n = std::thread::available_parallelism();\n    \
             let s = \"thread::scope\"; // string literal is stripped\n}\n\
             #[cfg(test)]\nmod t { fn g() { std::thread::scope(|_| ()); } }\n",
        )
        .unwrap();
        let mut report = Report::new();
        scan_spawn(&file, "src/rogue.rs", &mut report);
        let text = report.to_string();
        assert_eq!(
            text.matches("DWC-S502").count(),
            3,
            "spawn + scope + Builder; waiver, available_parallelism, string and \
             test module exempt:\n{text}"
        );
        fs::remove_file(&file).ok();
        fs::remove_dir(&dir).ok();
    }

    #[test]
    fn s509_flags_socket_writes_outside_the_encoder() {
        let dir = std::env::temp_dir().join(format!("dwc-srclint-s509-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("rogue.rs");
        // `respond` is the parent's reply path verbatim: text, then
        // newline, as two socket writes.
        fs::write(
            &file,
            "impl LineBuf {\n    pub fn push(&mut self, t: Arguments) {\n        \
             self.bytes.write_fmt(t).unwrap();\n    }\n    \
             pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<()> {\n        \
             w.write_all(&self.bytes)\n    }\n}\n\
             fn respond(w: &Mutex<TcpStream>, line: &str) {\n    \
             writeln!(w.lock().unwrap(), \"{line}\").ok();\n    \
             w.write_all(b\"x\").ok();\n    \
             write!(w, \"y\").ok(); // lint:allow socket_write -- exercising the waiver\n    \
             let s = \"writeln!(\"; // string literal is stripped\n}\n\
             fn chatty(w: &mut TcpStream) { w.write(b\"z\").ok(); }\n\
             #[cfg(test)]\nmod t { fn g(w: &mut Vec<u8>) { writeln!(w, \"t\").ok(); } }\n",
        )
        .unwrap();
        let mut report = Report::new();
        scan_socket_writes(&file, "src/rogue.rs", &mut report);
        let text = report.to_string();
        assert_eq!(
            text.matches("DWC-S509").count(),
            3,
            "writeln! + write_all in `respond`, write in `chatty`; the encoder's \
             two functions, the waiver, the string and the test module exempt:\n{text}"
        );
        fs::remove_file(&file).ok();
        fs::remove_dir(&dir).ok();
    }

    #[test]
    fn fn_headers_are_told_from_fn_types_and_suffixes() {
        assert_eq!(fn_header_name("    pub fn flush_to<W: Write>(&mut self"), Some("flush_to"));
        assert_eq!(fn_header_name("fn route(acks: &AckRoutes)"), Some("route"));
        assert_eq!(fn_header_name("let f: fn(u32) -> u32 = g;"), None);
        assert_eq!(fn_header_name("impl Fn(u32) for X {}"), None);
        assert_eq!(fn_header_name("let often = 1;"), None);
    }

    #[test]
    fn s506_flags_raw_column_access_outside_relalg() {
        let dir = std::env::temp_dir().join(format!("dwc-srclint-s506-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("rogue.rs");
        fs::write(
            &file,
            "fn f(r: &Relation) {\n    for t in r.iter_rows() {}\n    \
             let c = Columns::from_unsorted_rows(1, 0, vec![]);\n    \
             let k = KeyIndex::build(&c, &[0]);\n    \
             let w = r.iter_rows(); // lint:allow raw_columns -- exercising the waiver\n}\n\
             #[cfg(test)]\nmod t { fn g(c: &Columns) { KeyIndex::build(c, &[0]); } }\n",
        )
        .unwrap();
        let mut report = Report::new();
        scan_raw_columns(&file, "src/rogue.rs", &mut report);
        let text = report.to_string();
        assert_eq!(
            text.matches("DWC-S506").count(),
            3,
            "iter_rows + Columns:: + KeyIndex::; waiver and test module exempt:\n{text}"
        );
        fs::remove_file(&file).ok();
        fs::remove_dir(&dir).ok();
    }

    #[test]
    fn s507_flags_strategy_dispatch_outside_planner() {
        let dir = std::env::temp_dir().join(format!("dwc-srclint-s507-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("rogue.rs");
        fs::write(
            &file,
            "fn f(w: &W, u: &U) {\n    let s = w.maintain_by_reconstruction(state, u);\n    \
             let pick = MaintenanceStrategy::Incremental;\n    \
             let o = w.maintain_by_reconstruction(state, u); // lint:allow strategy_dispatch -- oracle\n}\n\
             #[cfg(test)]\nmod t { fn g(w: &W) { w.maintain_by_reconstruction(s, u); } }\n",
        )
        .unwrap();
        let mut report = Report::new();
        scan_strategy_dispatch(&file, "src/rogue.rs", &mut report);
        let text = report.to_string();
        assert_eq!(
            text.matches("DWC-S507").count(),
            2,
            "one maintain_by_ + one MaintenanceStrategy::; waiver and \
             test module exempt:\n{text}"
        );
        fs::remove_file(&file).ok();
        fs::remove_dir(&dir).ok();
    }

    #[test]
    fn self_check_passes_on_this_workspace() {
        // The crate lives at <root>/crates/analyze; hop up twice.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root"); // lint:allow expect -- test-only path arithmetic
        let report = self_check(root);
        assert!(!report.has_errors(), "srclint found violations:\n{report}");
    }
}
