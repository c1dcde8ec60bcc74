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

use dwc_testkit::{DiskError, SimDisk};
use dwc_warehouse::{MediumError, StorageMedium};

/// The benches' simulated disk as a storage medium (the fault and
/// fsync-accounting passes of `benches/faults.rs` and
/// `benches/server.rs`). Clones share the disk. Injected transient
/// faults map to retryable [`MediumError`]s; everything else maps to
/// fatal ones.
#[derive(Clone, Debug, Default)]
pub struct DiskMedium(pub SimDisk);

fn disk_err(op: &'static str, path: &str, e: DiskError) -> MediumError {
    if e.is_transient() {
        MediumError::transient(op, path, e.to_string())
    } else {
        MediumError::fatal(op, path, e.to_string())
    }
}

impl StorageMedium for DiskMedium {
    fn read(&self, path: &str) -> Result<Vec<u8>, MediumError> {
        self.0.read(path).map_err(|e| disk_err("read", path, e))
    }
    fn write_all(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError> {
        self.0.write_all(path, bytes).map_err(|e| disk_err("write", path, e))
    }
    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError> {
        self.0.append(path, bytes).map_err(|e| disk_err("append", path, e))
    }
    fn sync(&self, path: &str) -> Result<(), MediumError> {
        self.0.sync(path).map_err(|e| disk_err("sync", path, e))
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), MediumError> {
        self.0.rename(from, to).map_err(|e| disk_err("rename", from, e))
    }
    fn remove(&self, path: &str) -> Result<(), MediumError> {
        self.0.remove(path).map_err(|e| disk_err("remove", path, e))
    }
    fn list(&self) -> Result<Vec<String>, MediumError> {
        Ok(self.0.list())
    }
    fn exists(&self, path: &str) -> bool {
        self.0.exists(path)
    }
}

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
