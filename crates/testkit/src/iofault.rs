//! Deterministic IO fault injection: a fallible wrapper over the
//! crash-simulation filesystem.
//!
//! [`crash::SimFs`] models *fail-stop* storage: the process dies at an
//! IO boundary and never observes the failure. Real media also fail
//! *fail-return*: an fsync reports `EIO`, an append hits `ENOSPC`, a
//! rename times out — and the process keeps running and must decide
//! what its storage state even is. [`FaultyFs`] wraps a [`SimFs`] and
//! injects exactly those failures, governed by a [`MediumFaultPlan`]:
//!
//! * **transient** faults — per-op-class permille knobs (read, append,
//!   sync, rename) plus a deterministic [`transient_at_op`] single
//!   shot. A failed append or overwrite lands a seeded *partial prefix*
//!   in the underlying filesystem before erroring (the torn write a
//!   short write leaves behind); a failed sync makes nothing durable; a
//!   failed rename or remove has no effect.
//! * **permanent** faults — from [`permanent_from_op`] onward every
//!   operation fails with `transient: false` until [`FaultyFs::heal`]
//!   is called (the dead-disk-swapped-for-a-good-one scenario).
//! * **latency** — per-op-class modeled delays advancing a shared
//!   [`sched::VirtualClock`], so "the fsync stalls for 50 ms" is a
//!   schedulable, reproducible event rather than a real sleep.
//! * **scoping** — an optional file-name prefix confining the whole plan
//!   to one slice of the medium (every `wal-*` segment, or one snapshot
//!   file), so a test can break exactly those files while the rest stay
//!   healthy.
//!
//! The whole simulation is a pure function of the plan and the
//! operation sequence: one [`SplitMix64`] stream drawn from the plan's
//! seed decides every injection and every torn length, so a failing
//! chaos run replays exactly. [`MediumFaultPlan`] is [`Shrink`]able
//! toward the clean plan, like the channel-level [`fault::FaultPlan`].
//!
//! [`crash::SimFs`]: crate::crash::SimFs
//! [`fault::FaultPlan`]: crate::fault::FaultPlan
//! [`sched::VirtualClock`]: crate::sched::VirtualClock
//! [`transient_at_op`]: MediumFaultPlan::transient_at_op
//! [`permanent_from_op`]: MediumFaultPlan::permanent_from_op

use crate::crash::{SimError, SimFs};
use crate::rng::SplitMix64;
use crate::sched::VirtualClock;
use crate::shrink::Shrink;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The operation class a fault knob governs. `write_all` shares the
/// append knob (both are data writes); `remove` shares the rename knob
/// (both are metadata operations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Whole-file reads.
    Read,
    /// Data writes: `append` and `write_all`.
    Append,
    /// Durability barriers: `sync`.
    Sync,
    /// Metadata operations: `rename` and `remove`.
    Rename,
}

impl OpClass {
    /// The class name, as rendered into error details.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Append => "append",
            OpClass::Sync => "sync",
            OpClass::Rename => "rename",
        }
    }
}

/// A deterministic schedule of medium faults: pure data, replayable,
/// shrinkable toward the clean (never-faulting) plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MediumFaultPlan {
    /// Seed of the injection stream (independent of any data seed).
    pub seed: u64,
    /// Per-read transient-failure probability, in permille (0..=1000).
    pub read_permille: u16,
    /// Per-data-write transient-failure probability, in permille.
    pub append_permille: u16,
    /// Per-sync transient-failure probability, in permille.
    pub sync_permille: u16,
    /// Per-metadata-op transient-failure probability, in permille.
    pub rename_permille: u16,
    /// Inject exactly one transient fault at this faultable-operation
    /// index (0-based) — the deterministic single-shot the injection
    /// matrix sweeps across every IO boundary.
    pub transient_at_op: Option<u64>,
    /// From this faultable-operation index onward, every operation
    /// fails permanently (`transient: false`) until [`FaultyFs::heal`].
    pub permanent_from_op: Option<u64>,
    /// Restricts the whole plan to paths starting with this prefix:
    /// operations on other paths pass through untouched and do **not**
    /// consume faultable-operation indexes. `None` scopes to every
    /// path. A file-name prefix (e.g. `"wal-"`, or one snapshot's full
    /// name) breaks exactly those files while the rest of the medium
    /// stays healthy.
    pub scope_prefix: Option<String>,
    /// Modeled latency of a read, in virtual microseconds.
    pub read_latency_micros: u64,
    /// Modeled latency of a data write, in virtual microseconds.
    pub append_latency_micros: u64,
    /// Modeled latency of a sync, in virtual microseconds (the fsync
    /// stall knob).
    pub sync_latency_micros: u64,
    /// Modeled latency of a metadata op, in virtual microseconds.
    pub rename_latency_micros: u64,
}

impl MediumFaultPlan {
    /// The fault-free plan: every operation passes through unchanged
    /// and instantly.
    pub fn clean() -> MediumFaultPlan {
        MediumFaultPlan {
            seed: 0,
            read_permille: 0,
            append_permille: 0,
            sync_permille: 0,
            rename_permille: 0,
            transient_at_op: None,
            permanent_from_op: None,
            scope_prefix: None,
            read_latency_micros: 0,
            append_latency_micros: 0,
            sync_latency_micros: 0,
            rename_latency_micros: 0,
        }
    }

    /// Restricts this plan to paths starting with `prefix` (builder
    /// style): only such operations draw from the injection stream,
    /// count as faultable, or model latency.
    pub fn scoped_to(mut self, prefix: &str) -> MediumFaultPlan {
        self.scope_prefix = Some(prefix.to_owned());
        self
    }

    /// A random plan with moderate transient rates and occasional
    /// latency — the generator the chaos property suites draw from.
    /// Never permanent: sweeps choose `permanent_from_op` explicitly.
    pub fn random(rng: &mut SplitMix64) -> MediumFaultPlan {
        MediumFaultPlan {
            seed: rng.next_u64(),
            read_permille: rng.below(100) as u16,
            append_permille: rng.below(250) as u16,
            sync_permille: rng.below(250) as u16,
            rename_permille: rng.below(100) as u16,
            transient_at_op: None,
            permanent_from_op: None,
            scope_prefix: None,
            read_latency_micros: rng.below(20),
            append_latency_micros: rng.below(50),
            sync_latency_micros: rng.below(500),
            rename_latency_micros: rng.below(50),
        }
    }

    /// True iff the plan can never fail or delay an operation (the
    /// scope prefix is irrelevant once every knob is zero).
    pub fn is_clean(&self) -> bool {
        self == &MediumFaultPlan {
            seed: self.seed,
            scope_prefix: self.scope_prefix.clone(),
            ..MediumFaultPlan::clean()
        }
    }

    fn permille(&self, class: OpClass) -> u16 {
        match class {
            OpClass::Read => self.read_permille,
            OpClass::Append => self.append_permille,
            OpClass::Sync => self.sync_permille,
            OpClass::Rename => self.rename_permille,
        }
    }

    fn latency(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Read => self.read_latency_micros,
            OpClass::Append => self.append_latency_micros,
            OpClass::Sync => self.sync_latency_micros,
            OpClass::Rename => self.rename_latency_micros,
        }
    }
}

impl Shrink for MediumFaultPlan {
    /// Shrinks toward [`MediumFaultPlan::clean`], one knob at a time
    /// (then by halves), keeping the seed fixed so surviving faults
    /// stay recognizable across the walk.
    fn shrink(&self) -> Vec<MediumFaultPlan> {
        let mut out = Vec::new();
        if !self.is_clean() {
            out.push(MediumFaultPlan {
                seed: self.seed,
                scope_prefix: self.scope_prefix.clone(),
                ..MediumFaultPlan::clean()
            });
        }
        let mut knob = |mutate: &dyn Fn(&mut MediumFaultPlan)| {
            let mut candidate = self.clone();
            mutate(&mut candidate);
            if &candidate != self {
                out.push(candidate);
            }
        };
        knob(&|p| p.read_permille = 0);
        knob(&|p| p.append_permille = 0);
        knob(&|p| p.sync_permille = 0);
        knob(&|p| p.rename_permille = 0);
        knob(&|p| p.transient_at_op = None);
        knob(&|p| p.permanent_from_op = None);
        knob(&|p| {
            p.read_latency_micros = 0;
            p.append_latency_micros = 0;
            p.sync_latency_micros = 0;
            p.rename_latency_micros = 0;
        });
        knob(&|p| p.read_permille /= 2);
        knob(&|p| p.append_permille /= 2);
        knob(&|p| p.sync_permille /= 2);
        knob(&|p| p.rename_permille /= 2);
        out
    }
}

/// A failure surfaced by [`FaultyFs`]: either an injected medium fault
/// or a genuine error of the wrapped [`SimFs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultyError {
    /// The plan injected this failure.
    Injected {
        /// The operation class that failed.
        class: OpClass,
        /// The file the operation targeted.
        path: String,
        /// True for a transient fault (a retry may succeed); false for
        /// a permanent one (fails until [`FaultyFs::heal`]).
        transient: bool,
    },
    /// The wrapped filesystem itself failed (missing file, crashed).
    Sim(SimError),
}

impl FaultyError {
    /// True iff this is an injected *transient* fault.
    pub fn is_transient(&self) -> bool {
        matches!(self, FaultyError::Injected { transient: true, .. })
    }
}

impl fmt::Display for FaultyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultyError::Injected { class, path, transient } => {
                let kind = if *transient { "transient" } else { "permanent" };
                write!(f, "injected {kind} {} fault on `{path}`", class.name())
            }
            FaultyError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FaultyError {}

#[derive(Debug)]
struct FaultState {
    plan: MediumFaultPlan,
    rng: SplitMix64,
    ops: u64,
    injected: u64,
    broken: bool,
    healed: bool,
    clock: Option<Rc<RefCell<VirtualClock>>>,
}

/// A fallible medium: a cloneable handle wrapping one [`SimFs`] behind
/// a deterministic fault-injection gate. Handles share fault state,
/// like file descriptors into one flaky disk.
#[derive(Clone, Debug)]
pub struct FaultyFs {
    inner: SimFs,
    state: Rc<RefCell<FaultState>>,
}

impl FaultyFs {
    /// Wraps `inner` under `plan`, with no latency modeling.
    pub fn new(inner: SimFs, plan: MediumFaultPlan) -> FaultyFs {
        FaultyFs::build(inner, plan, None)
    }

    /// Wraps `inner` under `plan`, advancing `clock` by the plan's
    /// per-class latencies on every faultable operation.
    pub fn with_clock(
        inner: SimFs,
        plan: MediumFaultPlan,
        clock: Rc<RefCell<VirtualClock>>,
    ) -> FaultyFs {
        FaultyFs::build(inner, plan, Some(clock))
    }

    fn build(
        inner: SimFs,
        plan: MediumFaultPlan,
        clock: Option<Rc<RefCell<VirtualClock>>>,
    ) -> FaultyFs {
        let rng = SplitMix64::new(plan.seed ^ 0x10FA_017E_5EED_u64);
        FaultyFs {
            inner,
            state: Rc::new(RefCell::new(FaultState {
                plan,
                rng,
                ops: 0,
                injected: 0,
                broken: false,
                healed: false,
                clock,
            })),
        }
    }

    /// The wrapped filesystem (for durable-state inspection:
    /// `survivors`, `syncs`, corruption helpers).
    pub fn inner(&self) -> &SimFs {
        &self.inner
    }

    /// Faultable operations attempted so far (including injected
    /// failures) — the sweep bound for `transient_at_op` /
    /// `permanent_from_op` plans, analogous to `SimFs::ops`.
    pub fn faultable_ops(&self) -> u64 {
        self.state.borrow().ops
    }

    /// Failures injected so far (transient and permanent).
    pub fn injected(&self) -> u64 {
        self.state.borrow().injected
    }

    /// True while the permanent fault is active (fired and not yet
    /// healed).
    pub fn broken(&self) -> bool {
        self.state.borrow().broken
    }

    /// Repairs a permanent fault: operations pass the permanent gate
    /// again (transient knobs stay active), and `permanent_from_op`
    /// never re-fires.
    pub fn heal(&self) {
        let mut st = self.state.borrow_mut();
        st.broken = false;
        st.healed = true;
    }

    /// Swaps the active plan mid-run and reseeds the draw stream from
    /// the new plan's seed; the op counter keeps running. Setup phases
    /// use this to build fixtures over a clean medium and arm the
    /// faults only for the serving phase under test.
    pub fn set_plan(&self, plan: MediumFaultPlan) {
        let mut st = self.state.borrow_mut();
        st.rng = SplitMix64::new(plan.seed ^ 0x10FA_017E_5EED_u64);
        st.plan = plan;
    }

    /// Stops all injection and latency: the plan is replaced by the
    /// clean plan and any permanent fault is healed. Convergence phases
    /// call this so the oracle comparison runs over a sane medium.
    pub fn quiesce(&self) {
        let mut st = self.state.borrow_mut();
        st.plan = MediumFaultPlan { seed: st.plan.seed, ..MediumFaultPlan::clean() };
        st.broken = false;
        st.healed = true;
    }

    /// Runs the injection gate for one faultable operation: advances
    /// the clock by the class latency, then decides permanent /
    /// single-shot / probabilistic failure.
    fn gate(&self, class: OpClass, path: &str) -> Result<(), FaultyError> {
        let mut st = self.state.borrow_mut();
        if let Some(prefix) = &st.plan.scope_prefix {
            if !path.starts_with(prefix.as_str()) {
                return Ok(());
            }
        }
        let op = st.ops;
        st.ops += 1;
        let latency = st.plan.latency(class);
        if latency > 0 {
            if let Some(clock) = &st.clock {
                clock.borrow_mut().advance(latency);
            }
        }
        if !st.healed && !st.broken {
            if let Some(from) = st.plan.permanent_from_op {
                if op >= from {
                    st.broken = true;
                }
            }
        }
        if st.broken {
            st.injected += 1;
            return Err(FaultyError::Injected {
                class,
                path: path.to_owned(),
                transient: false,
            });
        }
        let single_shot = st.plan.transient_at_op == Some(op);
        let permille = st.plan.permille(class);
        let drawn =
            permille > 0 && st.rng.chance(u64::from(permille), 1000);
        if single_shot || drawn {
            st.injected += 1;
            return Err(FaultyError::Injected {
                class,
                path: path.to_owned(),
                transient: true,
            });
        }
        Ok(())
    }

    /// The seeded torn length for a failed `len`-byte data write:
    /// strictly less than `len`, so an injected write is never complete.
    fn torn_len(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        self.state.borrow_mut().rng.index(len)
    }

    /// Reads a whole file (read-class injection; no state effect on
    /// failure).
    pub fn read(&self, path: &str) -> Result<Vec<u8>, FaultyError> {
        self.gate(OpClass::Read, path)?;
        self.inner.read(path).map_err(FaultyError::Sim)
    }

    /// Appends bytes (append-class injection). An injected failure
    /// first lands a seeded **partial prefix** in the underlying file —
    /// the torn write a short write leaves — then errors.
    pub fn append(&self, path: &str, bytes: &[u8]) -> Result<(), FaultyError> {
        match self.gate(OpClass::Append, path) {
            Ok(()) => self.inner.append(path, bytes).map_err(FaultyError::Sim),
            Err(e) => {
                let keep = self.torn_len(bytes.len());
                if keep > 0 {
                    let _ = self.inner.append(path, &bytes[..keep]);
                }
                Err(e)
            }
        }
    }

    /// Replaces a file's contents (append-class injection). An injected
    /// failure replaces the file with a seeded partial prefix of the
    /// new contents — which is exactly why durable code must write a
    /// temp name, sync, and rename.
    pub fn write_all(&self, path: &str, bytes: &[u8]) -> Result<(), FaultyError> {
        match self.gate(OpClass::Append, path) {
            Ok(()) => self.inner.write_all(path, bytes).map_err(FaultyError::Sim),
            Err(e) => {
                let keep = self.torn_len(bytes.len());
                let _ = self.inner.write_all(path, &bytes[..keep]);
                Err(e)
            }
        }
    }

    /// Fsyncs a file (sync-class injection). An injected failure makes
    /// *nothing* durable — the caller must treat the page-cache state
    /// as unknowable (the fsync gate).
    pub fn sync(&self, path: &str) -> Result<(), FaultyError> {
        self.gate(OpClass::Sync, path)?;
        self.inner.sync(path).map_err(FaultyError::Sim)
    }

    /// Renames a file (rename-class injection). An injected failure has
    /// no effect: the rename did not happen.
    pub fn rename(&self, from: &str, to: &str) -> Result<(), FaultyError> {
        self.gate(OpClass::Rename, from)?;
        self.inner.rename(from, to).map_err(FaultyError::Sim)
    }

    /// Removes a file (rename-class injection; no effect on failure).
    pub fn remove(&self, path: &str) -> Result<(), FaultyError> {
        self.gate(OpClass::Rename, path)?;
        self.inner.remove(path).map_err(FaultyError::Sim)
    }

    /// All file names, sorted. Metadata listing is never injected (it
    /// carries no durability decision).
    pub fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    /// True iff the file exists. Never injected.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashPlan;

    fn fresh(plan: MediumFaultPlan) -> FaultyFs {
        FaultyFs::new(SimFs::new(CrashPlan::none()), plan)
    }

    #[test]
    fn clean_plan_is_a_transparent_wrapper() {
        let fs = fresh(MediumFaultPlan::clean());
        fs.append("a.log", b"one").unwrap();
        fs.sync("a.log").unwrap();
        fs.write_all("b", b"two").unwrap();
        fs.rename("b", "c").unwrap();
        assert_eq!(fs.read("c").unwrap(), b"two");
        fs.remove("c").unwrap();
        assert_eq!(fs.list(), vec!["a.log".to_owned()]);
        assert_eq!(fs.injected(), 0);
        assert_eq!(fs.faultable_ops(), 6);
        assert!(!fs.broken());
    }

    #[test]
    fn single_shot_fires_exactly_once_at_its_op() {
        let plan = MediumFaultPlan { transient_at_op: Some(1), ..MediumFaultPlan::clean() };
        let fs = fresh(plan);
        fs.append("w", b"aa").unwrap();
        let err = fs.append("w", b"bb").unwrap_err();
        assert!(err.is_transient(), "{err}");
        // The very next attempt (a new op index) succeeds.
        fs.append("w", b"bb").unwrap();
        fs.sync("w").unwrap();
        assert_eq!(fs.injected(), 1);
    }

    #[test]
    fn injected_appends_tear_a_strict_prefix() {
        for seed in 0..32 {
            let plan = MediumFaultPlan {
                seed,
                transient_at_op: Some(0),
                ..MediumFaultPlan::clean()
            };
            let fs = fresh(plan);
            fs.append("w", b"PAYLOAD").unwrap_err();
            let len = fs.inner().len_of("w").unwrap_or(0);
            assert!(len < b"PAYLOAD".len(), "torn length {len} not strict");
            if len > 0 {
                assert_eq!(fs.inner().read("w").unwrap(), b"PAYLOAD"[..len].to_vec());
            }
        }
    }

    #[test]
    fn permanent_fails_everything_until_heal() {
        let plan = MediumFaultPlan { permanent_from_op: Some(2), ..MediumFaultPlan::clean() };
        let fs = fresh(plan);
        fs.append("w", b"a").unwrap();
        fs.sync("w").unwrap();
        for _ in 0..3 {
            let err = fs.append("w", b"b").unwrap_err();
            assert!(!err.is_transient(), "permanent faults are not transient");
        }
        assert!(fs.broken());
        fs.heal();
        assert!(!fs.broken());
        fs.append("w", b"b").unwrap();
        fs.sync("w").unwrap();
        // The permanent fault never re-fires after heal.
        assert_eq!(fs.read("w").unwrap(), b"ab");
    }

    #[test]
    fn quiesce_silences_probabilistic_plans() {
        let plan = MediumFaultPlan { seed: 9, append_permille: 1000, ..MediumFaultPlan::clean() };
        let fs = fresh(plan);
        fs.append("w", b"x").unwrap_err();
        fs.quiesce();
        for _ in 0..20 {
            fs.append("w", b"x").unwrap();
        }
    }

    #[test]
    fn latency_advances_the_shared_clock() {
        let clock = Rc::new(RefCell::new(VirtualClock::new()));
        let plan = MediumFaultPlan {
            sync_latency_micros: 500,
            append_latency_micros: 10,
            ..MediumFaultPlan::clean()
        };
        let fs = FaultyFs::with_clock(SimFs::new(CrashPlan::none()), plan, Rc::clone(&clock));
        fs.append("w", b"x").unwrap();
        fs.sync("w").unwrap();
        fs.sync("w").unwrap();
        assert_eq!(clock.borrow().now(), 10 + 500 + 500);
    }

    #[test]
    fn injection_is_deterministic_in_the_plan() {
        let run = || {
            let plan = MediumFaultPlan {
                seed: 77,
                append_permille: 400,
                sync_permille: 400,
                ..MediumFaultPlan::clean()
            };
            let fs = fresh(plan);
            let mut outcomes = Vec::new();
            for i in 0..40u8 {
                outcomes.push(fs.append("w", &[i]).is_ok());
                outcomes.push(fs.sync("w").is_ok());
            }
            (outcomes, fs.inner().survivors())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scoped_plans_leave_other_paths_untouched() {
        let plan = MediumFaultPlan { permanent_from_op: Some(0), ..MediumFaultPlan::clean() }
            .scoped_to("s1-");
        let fs = fresh(plan);
        // Out-of-scope paths never fault and never consume op indexes.
        for _ in 0..5 {
            fs.append("s0-wal", b"x").unwrap();
            fs.sync("s0-wal").unwrap();
        }
        assert_eq!(fs.faultable_ops(), 0);
        // The scoped path hits the permanent fault immediately.
        let err = fs.append("s1-wal", b"x").unwrap_err();
        assert!(!err.is_transient());
        assert!(fs.broken());
        // The broken state still only affects the scoped slice.
        fs.append("s0-wal", b"y").unwrap();
        fs.heal();
        fs.append("s1-wal", b"x").unwrap();
    }

    #[test]
    fn shrinking_reaches_clean() {
        let mut rng = SplitMix64::new(5);
        let mut plan = MediumFaultPlan::random(&mut rng);
        plan.transient_at_op = Some(7);
        plan.permanent_from_op = Some(11);
        let mut steps = 0;
        while let Some(next) = plan.shrink().into_iter().next() {
            plan = next;
            steps += 1;
            assert!(steps < 1000, "medium-fault-plan shrinking diverged");
        }
        assert!(plan.is_clean());
    }
}
