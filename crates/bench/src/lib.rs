#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # dwc-bench — the experiment harness
//!
//! One regenerator per figure/example of the paper (the paper is a
//! theory paper: its "evaluation" consists of worked examples, two
//! commuting-diagram figures, and the Section 5 star-schema
//! application). Each experiment lives in [`experiments`] as a library
//! function returning a printable [`report::Table`]; thin binaries under
//! `src/bin/` print them, and testkit benches under `benches/` time
//! the performance-sensitive ones.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p dwc-bench --release --bin exp_all
//! ```
//!
//! or one experiment, e.g. `cargo run -p dwc-bench --release --bin exp_fig1`.

pub mod experiments;
pub mod report;

/// Where and from what a bench row was recorded: `(nproc, commit)` —
/// the host's available parallelism and `DWC_BENCH_COMMIT` (set by
/// `scripts/bench.sh`; `unknown` when a target is run by hand).
pub fn host_stamp() -> (u64, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let commit = std::env::var("DWC_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned());
    (nproc, commit)
}

/// A bench group whose every JSON line carries [`host_stamp`], so a
/// committed `BENCH_*.json` row says which host and tree produced it.
pub fn stamped(group: &str) -> dwc_testkit::Bench {
    let (nproc, commit) = host_stamp();
    dwc_testkit::Bench::new(group).field_num("nproc", nproc).field_str("commit", &commit)
}
