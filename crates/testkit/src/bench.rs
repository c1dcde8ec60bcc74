//! A dependency-free microbenchmark timer.
//!
//! The protocol per benchmark:
//!
//! 1. **calibrate** — time one call, pick an iteration count so a sample
//!    lasts roughly the target duration (so `Instant` granularity is
//!    invisible),
//! 2. **warm up** — run uncounted samples to populate caches and settle
//!    the allocator,
//! 3. **sample** — collect N timed samples and report the **median** and
//!    minimum per-iteration nanoseconds (the median is robust to
//!    scheduler noise; the minimum approximates the noise floor).
//!
//! Results print as one JSON line per benchmark on stdout —
//! machine-consumable without any parsing crate:
//!
//! ```text
//! {"group":"eval","bench":"hash-join/1000","median_ns":10417,"min_ns":10102,"mean_ns":10567,"samples":15,"iters":96}
//! ```
//!
//! Environment knobs:
//!
//! * `DWC_TESTKIT_BENCH_SAMPLES` — sample count (default 15).
//! * `DWC_TESTKIT_BENCH_MS` — target milliseconds per sample (default 20;
//!   lower it for smoke runs, raise it for stable numbers).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Benchmark name within the group.
    pub name: String,
    /// Median per-iteration time across samples.
    pub median_ns: u64,
    /// Fastest sample's per-iteration time.
    pub min_ns: u64,
    /// Mean per-iteration time across samples.
    pub mean_ns: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample (from calibration).
    pub iters: u64,
}

/// A named group of benchmarks sharing configuration; the replacement
/// for a `criterion` benchmark group.
pub struct Bench {
    group: String,
    samples: usize,
    target_sample: Duration,
    warmup_samples: usize,
    extra: Vec<(String, String)>,
}

impl Bench {
    /// A group with defaults (possibly overridden by environment).
    pub fn new(group: &str) -> Bench {
        let samples = std::env::var("DWC_TESTKIT_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(15);
        let target_ms = std::env::var("DWC_TESTKIT_BENCH_MS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(20u64);
        Bench {
            group: group.to_owned(),
            samples: samples.max(3),
            target_sample: Duration::from_millis(target_ms.max(1)),
            warmup_samples: 2,
            extra: Vec::new(),
        }
    }

    /// Overrides the sample count (env still wins).
    pub fn samples(mut self, n: usize) -> Bench {
        if std::env::var("DWC_TESTKIT_BENCH_SAMPLES").is_err() {
            self.samples = n.max(3);
        }
        self
    }

    /// Attaches an extra numeric field to every JSON line this group
    /// emits (e.g. the host's core count or a batch size — the testkit
    /// knows nothing about what is measured, callers supply it).
    pub fn field_num(mut self, key: &str, value: u64) -> Bench {
        self.extra.push((key.to_owned(), value.to_string()));
        self
    }

    /// Attaches an extra string field to every JSON line this group emits.
    pub fn field_str(mut self, key: &str, value: &str) -> Bench {
        self.extra.push((key.to_owned(), json_str(value)));
        self
    }

    /// Times `f`, prints the JSON line, and returns the stats.
    pub fn run<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Stats {
        // Calibration: one untimed shakedown call, then a timed one.
        black_box(f());
        let once = time(&mut f, 1);
        let iters = if once.is_zero() {
            1_000
        } else {
            (self.target_sample.as_nanos() / once.as_nanos().max(1)).clamp(1, 1_000_000) as u64
        };

        for _ in 0..self.warmup_samples {
            black_box(time(&mut f, iters));
        }

        let mut per_iter: Vec<u64> = (0..self.samples)
            .map(|_| (time(&mut f, iters).as_nanos() / u128::from(iters)) as u64)
            .collect();
        per_iter.sort_unstable();
        let stats = Stats {
            name: name.to_owned(),
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            mean_ns: (per_iter.iter().map(|&n| u128::from(n)).sum::<u128>()
                / per_iter.len() as u128) as u64,
            samples: per_iter.len(),
            iters,
        };
        let extra: String = self
            .extra
            .iter()
            .map(|(k, v)| format!(",{}:{}", json_str(k), v))
            .collect();
        println!(
            "{{\"group\":{},\"bench\":{},\"median_ns\":{},\"min_ns\":{},\"mean_ns\":{},\"samples\":{},\"iters\":{}{}}}",
            json_str(&self.group),
            json_str(&stats.name),
            stats.median_ns,
            stats.min_ns,
            stats.mean_ns,
            stats.samples,
            stats.iters,
            extra,
        );
        stats
    }
}

fn time<R>(f: &mut impl FnMut() -> R, iters: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed()
}

/// Minimal JSON string encoding (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_sane() {
        let b = Bench::new("testkit-self").samples(3);
        let stats = b.run("noop-ish", || std::hint::black_box(3u64.wrapping_mul(7)));
        assert!(stats.iters >= 1);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.samples >= 3);
    }

    #[test]
    fn extra_fields_ride_along() {
        let b = Bench::new("testkit-self")
            .samples(3)
            .field_num("threads", 4)
            .field_str("mode", "smoke");
        assert_eq!(b.extra[0], ("threads".to_owned(), "4".to_owned()));
        assert_eq!(b.extra[1], ("mode".to_owned(), "\"smoke\"".to_owned()));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\u000ay\"");
    }
}
