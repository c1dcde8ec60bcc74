//! The `dwc serve` child process: spawn, learn its port, sample its
//! `/proc` counters, kill it. Every child is reaped on drop, so a panic
//! or an early return never leaves a server behind.

use crate::store::SPEC_PATH;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `dwc serve` (killed and reaped on drop).
pub struct Server {
    child: Child,
    pub addr: String,
    /// When `spawn` was entered.
    pub spawned_at: Instant,
    /// Spawn → `listening on` line read.
    pub listen_after: Duration,
}

impl Server {
    /// Spawns `dwc serve` at CLI defaults on `dir`, blocking until its
    /// `listening on <addr>` line. The port is the kernel's pick
    /// (`127.0.0.1:0`). Server stderr goes to `<dir>.err`.
    pub fn spawn(dwc: &Path, dir: &Path) -> Result<Server, String> {
        let err_path = PathBuf::from(format!("{}.err", dir.display()));
        let err_file = std::fs::File::create(&err_path).map_err(|e| e.to_string())?;
        let spawned_at = Instant::now();
        let mut child = Command::new(dwc)
            .args(["serve", "--spec", SPEC_PATH, "--addr", "127.0.0.1:0"])
            .arg(dir)
            // CLI defaults all the way down: worker count from the machine.
            .env_remove("DWC_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err_file)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", dwc.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let listen_after = spawned_at.elapsed();
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                addr: addr.to_owned(),
                spawned_at,
                listen_after,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
                Err(format!(
                    "dwc serve did not start listening: {}",
                    stderr.trim()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `kill -9` and reap.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// CPU seconds the server has consumed so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        cpu_seconds(&self.pid().to_string())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// utime + stime of process `pid` (`self` for the caller) from
/// `/proc/<pid>/stat`, in seconds at the universal 100 ticks/s. The
/// process totals, unlike the per-thread nanosecond `schedstat` files,
/// keep the time of threads that have exited — and the algebra's parallel
/// operators spawn short-lived workers on every large evaluation.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    const TICKS_PER_SECOND: f64 = 100.0;
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may hold spaces; fields 3.. follow its `)`.
    let fields: Vec<&str> = text
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    match (
        fields.get(11).and_then(|t| t.parse::<f64>().ok()),
        fields.get(12).and_then(|t| t.parse::<f64>().ok()),
    ) {
        (Some(utime), Some(stime)) => Ok((utime + stime) / TICKS_PER_SECOND),
        _ => Err(format!("{path}: cannot read utime/stime")),
    }
}

/// Total bytes of the regular files directly in `dir` (the store layout
/// is flat).
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Replaces `to` with a copy of the flat directory `from`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}
