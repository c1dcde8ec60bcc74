#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # dwc-testkit — deterministic property-test & bench substrate
//!
//! The workspace's only verification dependency. Everything here is
//! plain `std`: no registry crates, no build scripts, no feature flags —
//! so `cargo build --release && cargo test -q` works fully offline.
//!
//! Six subsystems:
//!
//! * [`rng`] — the [`rng::SplitMix64`] PRNG plus value generators
//!   (bounded ints, indices, Bernoulli draws, identifiers, wild strings,
//!   shuffles, stream forking). Deterministic in a single `u64` seed.
//! * [`prop`] — a property-test runner ([`prop::Runner`]) with
//!   configurable case counts, greedy counterexample shrinking (via the
//!   [`shrink::Shrink`] trait), panic capture, and a failure banner that
//!   prints a reproduction seed honored through `DWC_TESTKIT_SEED`.
//! * [`fault`] — a deterministic chaos harness ([`fault::FaultPlan`])
//!   that drops, duplicates, reorders and corrupts a message stream,
//!   replayable from the same seed and shrinkable toward the clean plan.
//! * [`disk`] — a deterministic simulated disk ([`disk::SimDisk`]) for
//!   durability testing: volatile page cache, a counted operation
//!   stream, and one shrinkable [`disk::MediumPlan`] whose faults are
//!   a crash (torn unsynced tails, coin-flipped in-flight renames),
//!   transient and permanent IO failures per op class (torn partial
//!   writes, heal/quiesce), and modeled latency against the virtual
//!   clock — so kill-at-every-IO-boundary and fault-at-every-IO-boundary
//!   sweeps share one op index.
//! * [`sched`] — deterministic concurrency scheduling: a virtual
//!   microsecond clock ([`sched::VirtualClock`]) and a seeded
//!   interleaver ([`sched::Interleaver`]) that merges per-source event
//!   lanes into one reproducible schedule, plus the `DWC_SCHED_SEEDS`
//!   sweep hook ([`sched::sched_seeds`]).
//! * [`bench`] — a microbenchmark timer ([`bench::Bench`]) with
//!   calibration, warmup and median-of-N sampling, reporting one JSON
//!   line per benchmark.
//!
//! ## Writing a property
//!
//! ```
//! use dwc_testkit::prop::Runner;
//! use dwc_testkit::tk_ensure_eq;
//!
//! Runner::new("reverse_is_involutive").cases(64).run(
//!     |rng| {
//!         let len = rng.index(16);
//!         rng.vec_of(len, |r| r.i64_in(-9, 9))
//!     },
//!     |v: &Vec<i64>| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         tk_ensure_eq!(&w, v);
//!         Ok(())
//!     },
//! );
//! ```
//!
//! On failure the runner prints the shrunk input and a banner like
//!
//! ```text
//! reproduce: DWC_TESTKIT_SEED=8234113119275560397 cargo test -q reverse_is_involutive
//! ```
//!
//! and re-running with that environment variable replays exactly the
//! failing case (generation, failure, and shrink are all derived from
//! the one seed).

pub mod bench;
pub mod disk;
pub mod fault;
pub mod prop;
pub mod rng;
pub mod sched;
pub mod shrink;

pub use bench::{Bench, Stats};
pub use disk::{DiskError, MediumPlan, OpClass, SimDisk};
pub use fault::{Delivery, FaultPlan};
pub use prop::{PropResult, Runner};
pub use rng::SplitMix64;
pub use sched::{sched_seeds, Interleaver, VirtualClock};
pub use shrink::{NoShrink, Shrink};

/// Fails the enclosing property with a formatted message unless the
/// condition holds. Usable only inside closures returning
/// [`prop::PropResult`].
#[macro_export]
macro_rules! tk_ensure {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property unless both sides compare equal,
/// reporting both values.
#[macro_export]
macro_rules! tk_ensure_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{} != {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

/// Fails the enclosing property unless both sides compare unequal.
#[macro_export]
macro_rules! tk_ensure_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "{} == {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prop::Runner;

    #[test]
    fn macros_compile_and_fire() {
        let run = |x: i64| -> crate::PropResult {
            tk_ensure!(x < 100, "too big: {x}");
            tk_ensure_eq!(x, x);
            tk_ensure_ne!(x, x + 1);
            Ok(())
        };
        assert!(run(5).is_ok());
        assert!(run(200).unwrap_err().contains("too big"));
    }

    #[test]
    fn end_to_end_pass() {
        Runner::new("lib_smoke").cases(16).run(
            |rng| (rng.i64_in(-50, 50), rng.i64_in(-50, 50)),
            |&(a, b)| {
                tk_ensure_eq!(a + b, b + a);
                Ok(())
            },
        );
    }
}
