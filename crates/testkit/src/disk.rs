//! A deterministic simulated disk on which a crash is one more fault.
//!
//! [`SimDisk`] is an in-memory filesystem over flat file names, governed
//! by one [`MediumPlan`]. It models what real storage stacks do:
//!
//! * writes land in a volatile page cache ([`SimDisk::append`],
//!   [`SimDisk::write_all`]) and become durable only on
//!   [`SimDisk::sync`]; [`SimDisk::rename`] and [`SimDisk::remove`] are
//!   atomic metadata operations (the journaled-filesystem assumption);
//! * **fail-stop** — [`MediumPlan::crash_at_op`] kills the simulated
//!   process at one operation. The dying operation lands partially,
//!   every synced byte survives, each unsynced tail tears at a seeded
//!   length, a rewritten file resolves to its old durable contents or a
//!   torn prefix of the new, an in-flight rename or remove resolves by a
//!   seeded coin, and every later operation fails with
//!   [`DiskError::Crashed`]. The frozen durable view
//!   ([`SimDisk::survivors`]) seeds the rebooted disk of the recovery
//!   run ([`SimDisk::from_files`]);
//! * **fail-return** — the process sees the error and keeps running:
//!   per-class transient permille knobs, a single-shot
//!   [`MediumPlan::transient_at_op`], and a permanent fault from
//!   [`MediumPlan::permanent_from_op`] onward until [`SimDisk::heal`]. A
//!   failed append or overwrite leaves a seeded strict prefix in the page
//!   cache (the torn write a short write leaves behind); a failed sync
//!   makes nothing durable; a failed read, rename or remove has no
//!   effect;
//! * **latency** — per-class modeled delays advance a shared
//!   [`VirtualClock`], so "the fsync stalls for 50 ms" is a
//!   schedulable, reproducible event rather than a real sleep;
//! * **scope** — an optional file-name prefix confines the whole plan to
//!   one slice of the disk (every `wal-*` segment, or one snapshot file).
//!
//! Every operation but [`SimDisk::list`] and [`SimDisk::exists`] passes
//! one gate that gives it the next op index — failed attempts included —
//! so one index names the same IO boundary to every fault kind. A sweep
//! runs a scenario cleanly, reads [`SimDisk::ops`], and replays it with a
//! crash, a transient or a permanent fault at each index below it.
//!
//! The whole simulation is a pure function of the plan and the operation
//! sequence: one [`SplitMix64`] stream drawn from the plan's seed decides
//! every injection, torn length and coin, so a failing run replays
//! exactly. [`MediumPlan`] is [`Shrink`]able toward the clean plan, like
//! the channel-level [`FaultPlan`](crate::fault::FaultPlan). There is no
//! wall clock, no OS entropy, and no threading.

use crate::rng::SplitMix64;
use crate::sched::VirtualClock;
use crate::shrink::Shrink;
use std::cell::RefCell;
use std::collections::BTreeMap;
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

/// A deterministic schedule of medium faults, the crash included: pure
/// data, replayable, shrinkable toward the clean (never-faulting) plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MediumPlan {
    /// Seed of the draw stream (independent of any data seed): every
    /// probabilistic injection, torn length and crash-time coin.
    pub seed: u64,
    /// Per-read transient-failure probability, in permille (0..=1000).
    pub read_permille: u16,
    /// Per-data-write transient-failure probability, in permille.
    pub append_permille: u16,
    /// Per-sync transient-failure probability, in permille.
    pub sync_permille: u16,
    /// Per-metadata-op transient-failure probability, in permille.
    pub rename_permille: u16,
    /// Inject exactly one transient fault at this op index (0-based) —
    /// the deterministic single shot the fault matrix sweeps across
    /// every IO boundary.
    pub transient_at_op: Option<u64>,
    /// From this op index onward every operation fails permanently
    /// (`transient: false`) until [`SimDisk::heal`].
    pub permanent_from_op: Option<u64>,
    /// Kill the simulated process at this op index: the operation
    /// applies partially (torn write, coin-flipped rename/remove, lost
    /// sync) and the disk freezes its surviving state.
    pub crash_at_op: Option<u64>,
    /// Restricts the whole plan to paths starting with this prefix:
    /// operations on other paths are never faulted, delayed or crashed
    /// and do **not** consume op indexes. `None` scopes to every path.
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

impl MediumPlan {
    /// The fault-free plan: every operation completes unchanged and
    /// instantly.
    pub fn clean() -> MediumPlan {
        MediumPlan {
            seed: 0,
            read_permille: 0,
            append_permille: 0,
            sync_permille: 0,
            rename_permille: 0,
            transient_at_op: None,
            permanent_from_op: None,
            crash_at_op: None,
            scope_prefix: None,
            read_latency_micros: 0,
            append_latency_micros: 0,
            sync_latency_micros: 0,
            rename_latency_micros: 0,
        }
    }

    /// A plan that only crashes, at op `op`, with crash-time draws from
    /// `seed`.
    pub fn crash_at(op: u64, seed: u64) -> MediumPlan {
        MediumPlan { seed, crash_at_op: Some(op), ..MediumPlan::clean() }
    }

    /// Restricts this plan to paths starting with `prefix` (builder
    /// style): only such operations count, fault or model latency.
    pub fn scoped_to(mut self, prefix: &str) -> MediumPlan {
        self.scope_prefix = Some(prefix.to_owned());
        self
    }

    /// A random plan with moderate transient rates and occasional
    /// latency — the generator the chaos property suites draw from.
    /// Never permanent and never crashing: sweeps choose those
    /// explicitly.
    pub fn random(rng: &mut SplitMix64) -> MediumPlan {
        MediumPlan {
            seed: rng.next_u64(),
            read_permille: rng.below(100) as u16,
            append_permille: rng.below(250) as u16,
            sync_permille: rng.below(250) as u16,
            rename_permille: rng.below(100) as u16,
            read_latency_micros: rng.below(20),
            append_latency_micros: rng.below(50),
            sync_latency_micros: rng.below(500),
            rename_latency_micros: rng.below(50),
            ..MediumPlan::clean()
        }
    }

    /// True iff the plan can never fail, crash or delay an operation
    /// (seed and scope are irrelevant once every knob is zero).
    pub fn is_clean(&self) -> bool {
        *self == self.cleaned()
    }

    /// This plan with every knob zeroed, keeping seed and scope.
    fn cleaned(&self) -> MediumPlan {
        let scope_prefix = self.scope_prefix.clone();
        MediumPlan { seed: self.seed, scope_prefix, ..MediumPlan::clean() }
    }

    fn covers(&self, path: &str) -> bool {
        match &self.scope_prefix {
            Some(prefix) => path.starts_with(prefix.as_str()),
            None => true,
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

impl Shrink for MediumPlan {
    /// Shrinks toward [`MediumPlan::clean`], one knob at a time (then
    /// by halves, and toward earlier crashes), keeping the seed fixed so
    /// surviving faults stay recognizable across the walk.
    fn shrink(&self) -> Vec<MediumPlan> {
        let mut out = Vec::new();
        if !self.is_clean() {
            out.push(self.cleaned());
        }
        let mut knob = |mutate: &dyn Fn(&mut MediumPlan)| {
            let mut candidate = self.clone();
            mutate(&mut candidate);
            if &candidate != self && !out.contains(&candidate) {
                out.push(candidate);
            }
        };
        knob(&|p| p.crash_at_op = None);
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
        for earlier in self.crash_at_op.map_or_else(Vec::new, |op| op.shrink()) {
            knob(&|p| p.crash_at_op = Some(earlier));
        }
        out
    }
}

/// A failure of the simulated disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// The simulated process has crashed; no operation can succeed.
    Crashed,
    /// The named file does not exist.
    NotFound {
        /// The missing file's name.
        path: String,
    },
    /// The plan injected this failure.
    Injected {
        /// The operation class that failed.
        class: OpClass,
        /// The file the operation targeted.
        path: String,
        /// True for a transient fault (a retry may succeed); false for
        /// a permanent one (fails until [`SimDisk::heal`]).
        transient: bool,
    },
}

impl DiskError {
    /// True iff this is an injected *transient* fault.
    pub fn is_transient(&self) -> bool {
        matches!(self, DiskError::Injected { transient: true, .. })
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Crashed => write!(f, "simulated process crashed"),
            DiskError::NotFound { path } => write!(f, "simulated file `{path}` not found"),
            DiskError::Injected { class, path, transient } => {
                let kind = if *transient { "transient" } else { "permanent" };
                write!(f, "injected {kind} {} fault on `{path}`", class.name())
            }
        }
    }
}

impl std::error::Error for DiskError {}

/// One simulated file: volatile contents plus the durable copy.
#[derive(Clone, Debug, Default)]
struct SimFile {
    /// Current contents as the process sees them (page cache included).
    data: Vec<u8>,
    /// Contents guaranteed on disk as of the last sync (or creation via
    /// [`SimDisk::from_files`]).
    durable: Vec<u8>,
}

#[derive(Debug)]
struct DiskState {
    files: BTreeMap<String, SimFile>,
    plan: MediumPlan,
    rng: SplitMix64,
    ops: u64,
    syncs: u64,
    injected: u64,
    /// The frozen durable view; `Some` once the crash has fired.
    survivors: Option<BTreeMap<String, Vec<u8>>>,
    clock: Option<Rc<RefCell<VirtualClock>>>,
}

/// A cloneable handle to one simulated disk. Handles share files, plan
/// and counters, like file descriptors into one disk.
#[derive(Clone, Debug)]
pub struct SimDisk {
    state: Rc<RefCell<DiskState>>,
}

impl Default for SimDisk {
    /// An empty disk under the clean plan.
    fn default() -> SimDisk {
        SimDisk::new(MediumPlan::clean())
    }
}

/// One gated operation.
#[derive(Clone, Copy)]
enum Op<'a> {
    Read(&'a str),
    Append(&'a str, &'a [u8]),
    WriteAll(&'a str, &'a [u8]),
    Sync(&'a str),
    Rename(&'a str, &'a str),
    Remove(&'a str),
}

impl Op<'_> {
    fn class(self) -> OpClass {
        match self {
            Op::Read(_) => OpClass::Read,
            Op::Append(..) | Op::WriteAll(..) => OpClass::Append,
            Op::Sync(_) => OpClass::Sync,
            Op::Rename(..) | Op::Remove(_) => OpClass::Rename,
        }
    }

    fn path(&self) -> &str {
        match self {
            Op::Read(p) | Op::Append(p, _) | Op::WriteAll(p, _) | Op::Sync(p) | Op::Remove(p) => p,
            Op::Rename(from, _) => from,
        }
    }
}

fn stream(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x10FA_017E_5EED_u64)
}

impl SimDisk {
    /// An empty disk governed by `plan`, with no latency modeling.
    pub fn new(plan: MediumPlan) -> SimDisk {
        SimDisk {
            state: Rc::new(RefCell::new(DiskState {
                files: BTreeMap::new(),
                rng: stream(plan.seed),
                plan,
                ops: 0,
                syncs: 0,
                injected: 0,
                survivors: None,
                clock: None,
            })),
        }
    }

    /// An empty disk governed by `plan` that advances `clock` by the
    /// plan's per-class latency on every counted operation.
    pub fn with_clock(plan: MediumPlan, clock: Rc<RefCell<VirtualClock>>) -> SimDisk {
        let disk = SimDisk::new(plan);
        disk.state.borrow_mut().clock = Some(clock);
        disk
    }

    /// A disk pre-populated with fully durable files under the clean
    /// plan — the "disk after reboot" a recovery run opens, typically
    /// seeded from [`SimDisk::survivors`] of a crashed instance. Arm a
    /// plan on it with [`SimDisk::set_plan`].
    pub fn from_files(files: BTreeMap<String, Vec<u8>>) -> SimDisk {
        let disk = SimDisk::default();
        disk.state.borrow_mut().files = files
            .into_iter()
            .map(|(name, bytes)| (name, SimFile { data: bytes.clone(), durable: bytes }))
            .collect();
        disk
    }

    /// Operations counted so far, failed attempts included — the sweep
    /// bound: plan indexes `0..ops()` of a clean run cover every IO
    /// boundary.
    pub fn ops(&self) -> u64 {
        self.state.borrow().ops
    }

    /// Completed [`SimDisk::sync`] operations so far — the fsync meter
    /// the group-commit accounting reads. A sync that failed or that the
    /// crash beat (nothing became durable) is not counted.
    pub fn syncs(&self) -> u64 {
        self.state.borrow().syncs
    }

    /// Fault-returning failures injected so far (transient and
    /// permanent; the crash is reported by [`SimDisk::crashed`]).
    pub fn injected(&self) -> u64 {
        self.state.borrow().injected
    }

    /// True once the plan's crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.borrow().survivors.is_some()
    }

    /// True while the permanent fault is active (fired and not yet
    /// healed).
    pub fn broken(&self) -> bool {
        let st = self.state.borrow();
        st.plan.permanent_from_op.is_some_and(|from| st.ops > from)
    }

    /// Repairs a permanent fault (the dead disk swapped for a good one):
    /// operations pass again; the rest of the plan stays armed.
    pub fn heal(&self) {
        self.state.borrow_mut().plan.permanent_from_op = None;
    }

    /// Stops all injection, crashing and latency, and heals: the plan
    /// becomes the clean plan (keeping its seed). Convergence phases call
    /// this so the oracle comparison runs over a sane medium.
    pub fn quiesce(&self) {
        let mut st = self.state.borrow_mut();
        st.plan = MediumPlan { seed: st.plan.seed, ..MediumPlan::clean() };
    }

    /// Swaps the active plan mid-run, arming every fault it names, and
    /// reseeds the draw stream from its seed; the op counter keeps
    /// running. Setup phases use this to build fixtures over a clean
    /// disk and arm the faults only for the phase under test.
    pub fn set_plan(&self, plan: MediumPlan) {
        let mut st = self.state.borrow_mut();
        st.rng = stream(plan.seed);
        st.plan = plan;
    }

    /// The durable view: after a crash, the frozen surviving state; on a
    /// live disk, the current contents (a clean shutdown syncs
    /// everything by definition).
    pub fn survivors(&self) -> BTreeMap<String, Vec<u8>> {
        let st = self.state.borrow();
        match &st.survivors {
            Some(s) => s.clone(),
            None => st.files.iter().map(|(k, f)| (k.clone(), f.data.clone())).collect(),
        }
    }

    /// Reads a whole file.
    pub fn read(&self, path: &str) -> Result<Vec<u8>, DiskError> {
        self.mutate(Op::Read(path))
    }

    /// Appends bytes to a file, creating it if missing. The appended
    /// tail is volatile until [`SimDisk::sync`].
    pub fn append(&self, path: &str, bytes: &[u8]) -> Result<(), DiskError> {
        self.mutate(Op::Append(path, bytes)).map(drop)
    }

    /// Replaces a file's contents wholesale (creating it if missing).
    /// Deliberately **non-atomic**: a crash or a failed write may leave
    /// the old contents, a torn prefix of the new, or nothing — which is
    /// exactly why durable code must write a temp file, sync it, and
    /// rename.
    pub fn write_all(&self, path: &str, bytes: &[u8]) -> Result<(), DiskError> {
        self.mutate(Op::WriteAll(path, bytes)).map(drop)
    }

    /// Makes a file's current contents durable (fsync).
    pub fn sync(&self, path: &str) -> Result<(), DiskError> {
        self.mutate(Op::Sync(path)).map(drop)
    }

    /// Atomically renames a file over any existing target. Durable once
    /// it returns; a crash *at* the rename applies it or not by a
    /// seeded coin.
    pub fn rename(&self, from: &str, to: &str) -> Result<(), DiskError> {
        self.mutate(Op::Rename(from, to)).map(drop)
    }

    /// Removes a file. Crash-atomic like [`SimDisk::rename`].
    pub fn remove(&self, path: &str) -> Result<(), DiskError> {
        self.mutate(Op::Remove(path)).map(drop)
    }

    /// All file names, sorted (empty after a crash). Never counted or
    /// faulted: a listing carries no durability decision.
    pub fn list(&self) -> Vec<String> {
        let st = self.state.borrow();
        if st.survivors.is_some() {
            return Vec::new();
        }
        st.files.keys().cloned().collect()
    }

    /// True iff the file exists (false after a crash). Never counted or
    /// faulted.
    pub fn exists(&self, path: &str) -> bool {
        let st = self.state.borrow();
        st.survivors.is_none() && st.files.contains_key(path)
    }

    /// Test-corruption helper: flips one bit in place (contents *and*
    /// durable copy — modelling media corruption, not a torn write).
    /// Not an operation. Returns `false` if the file is missing or
    /// shorter than `byte`.
    pub fn flip_bit(&self, path: &str, byte: usize, bit: u8) -> bool {
        let mut st = self.state.borrow_mut();
        match st.files.get_mut(path) {
            Some(f) if byte < f.data.len() => {
                let mask = 1u8 << (bit % 8);
                f.data[byte] ^= mask;
                if byte < f.durable.len() {
                    f.durable[byte] ^= mask;
                }
                true
            }
            _ => false,
        }
    }

    /// Test-corruption helper: truncates a file in place (contents and
    /// durable copy), simulating a torn tail found on disk. Not an
    /// operation. Returns `false` if the file is missing.
    pub fn truncate_to(&self, path: &str, len: usize) -> bool {
        let mut st = self.state.borrow_mut();
        match st.files.get_mut(path) {
            Some(f) => {
                f.data.truncate(len);
                f.durable.truncate(len);
                true
            }
            None => false,
        }
    }

    /// File length in bytes, if it exists.
    pub fn len_of(&self, path: &str) -> Option<usize> {
        self.state.borrow().files.get(path).map(|f| f.data.len())
    }

    /// The one gate every counted operation passes: scope, op index,
    /// latency, then crash (fail-stop) before permanent, single-shot and
    /// probabilistic faults (fail-return). A read returns the file's
    /// bytes; every other operation returns an empty vector.
    fn mutate(&self, op: Op<'_>) -> Result<Vec<u8>, DiskError> {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        if st.survivors.is_some() {
            return Err(DiskError::Crashed);
        }
        if !st.plan.covers(op.path()) {
            return st.complete(op);
        }
        let index = st.ops;
        st.ops += 1;
        let class = op.class();
        let latency = st.plan.latency(class);
        if latency > 0 {
            if let Some(clock) = &st.clock {
                clock.borrow_mut().advance(latency);
            }
        }
        if st.plan.crash_at_op == Some(index) {
            st.crash(op);
            return Err(DiskError::Crashed);
        }
        let transient = if st.plan.permanent_from_op.is_some_and(|from| index >= from) {
            false
        } else {
            let single_shot = st.plan.transient_at_op == Some(index);
            let permille = u64::from(st.plan.permille(class));
            let drawn = permille > 0 && st.rng.chance(permille, 1000);
            if !(single_shot || drawn) {
                return st.complete(op);
            }
            true
        };
        st.injected += 1;
        // A failed data write still lands a seeded strict prefix.
        match op {
            Op::Append(path, bytes) => {
                let keep = st.torn_len(bytes.len());
                if keep > 0 {
                    let _ = st.complete(Op::Append(path, &bytes[..keep]));
                }
            }
            Op::WriteAll(path, bytes) => {
                let keep = st.torn_len(bytes.len());
                let _ = st.complete(Op::WriteAll(path, &bytes[..keep]));
            }
            _ => {}
        }
        Err(DiskError::Injected { class, path: op.path().to_owned(), transient })
    }
}

impl DiskState {
    /// The operation completes normally.
    fn complete(&mut self, op: Op<'_>) -> Result<Vec<u8>, DiskError> {
        let not_found = |path: &str| DiskError::NotFound { path: path.to_owned() };
        match op {
            Op::Read(path) => {
                return self.files.get(path).map(|f| f.data.clone()).ok_or_else(|| not_found(path));
            }
            Op::Append(path, bytes) => {
                self.files.entry(path.to_owned()).or_default().data.extend_from_slice(bytes);
            }
            Op::WriteAll(path, bytes) => {
                self.files.entry(path.to_owned()).or_default().data = bytes.to_vec();
            }
            Op::Sync(path) => {
                let f = self.files.get_mut(path).ok_or_else(|| not_found(path))?;
                f.durable = f.data.clone();
                self.syncs += 1;
            }
            Op::Rename(from, to) => {
                let f = self.files.remove(from).ok_or_else(|| not_found(from))?;
                self.files.insert(to.to_owned(), f);
            }
            Op::Remove(path) => {
                self.files.remove(path).ok_or_else(|| not_found(path))?;
            }
        }
        Ok(Vec::new())
    }

    /// The seeded torn length of a failed `len`-byte data write:
    /// strictly less than `len`, so an injected write is never complete.
    fn torn_len(&mut self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            self.rng.index(len)
        }
    }

    /// The power cut: the dying operation lands partially, then the
    /// durable view freezes — synced bytes survive, every unsynced tail
    /// tears at a seeded length, rewritten files resolve to old-durable
    /// or torn-new by a seeded coin.
    fn crash(&mut self, op: Op<'_>) {
        let lands = match op {
            Op::Append(..) | Op::WriteAll(..) => true,
            // The crash beat the read or the fsync: nothing changes.
            Op::Read(_) | Op::Sync(_) => false,
            // An in-flight metadata operation is atomic: a seeded coin.
            Op::Rename(..) | Op::Remove(_) => self.rng.bool(),
        };
        if lands {
            let _ = self.complete(op);
        }
        let rng = &mut self.rng;
        let survivors = self
            .files
            .iter()
            .map(|(name, f)| {
                let surviving = if f.data.starts_with(&f.durable) {
                    let tail = &f.data[f.durable.len()..];
                    let keep = rng.index(tail.len() + 1);
                    [&f.durable[..], &tail[..keep]].concat()
                } else if rng.bool() {
                    f.durable.clone()
                } else {
                    f.data[..rng.index(f.data.len() + 1)].to_vec()
                };
                (name.clone(), surviving)
            })
            .collect();
        self.survivors = Some(survivors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reboot(disk: &SimDisk) -> SimDisk {
        SimDisk::from_files(disk.survivors())
    }

    fn transient_at(op: u64) -> MediumPlan {
        MediumPlan { transient_at_op: Some(op), ..MediumPlan::clean() }
    }

    fn permanent_from(op: u64) -> MediumPlan {
        MediumPlan { permanent_from_op: Some(op), ..MediumPlan::clean() }
    }

    #[test]
    fn clean_runs_count_ops_and_keep_everything() {
        let disk = SimDisk::default();
        disk.append("a.log", b"one").unwrap();
        disk.sync("a.log").unwrap();
        disk.append("a.log", b"two").unwrap();
        assert_eq!(disk.ops(), 3);
        assert!(!disk.crashed());
        assert_eq!(disk.read("a.log").unwrap(), b"onetwo");
        assert_eq!(disk.survivors()["a.log"], b"onetwo");
    }

    #[test]
    fn clean_plan_is_a_transparent_disk() {
        let disk = SimDisk::default();
        disk.append("a.log", b"one").unwrap();
        disk.sync("a.log").unwrap();
        disk.write_all("b", b"two").unwrap();
        disk.rename("b", "c").unwrap();
        assert_eq!(disk.read("c").unwrap(), b"two");
        disk.remove("c").unwrap();
        assert_eq!(disk.list(), vec!["a.log".to_owned()]);
        assert!(disk.exists("a.log"));
        assert_eq!((disk.injected(), disk.ops()), (0, 6));
        assert!(!disk.broken());
    }

    #[test]
    fn syncs_are_counted_separately_from_ops() {
        let disk = SimDisk::default();
        disk.append("a", b"x").unwrap();
        disk.sync("a").unwrap();
        disk.append("a", b"y").unwrap();
        disk.sync("a").unwrap();
        assert_eq!((disk.ops(), disk.syncs()), (4, 2));
        // A sync the crash beat made nothing durable and is not counted.
        let disk = SimDisk::new(MediumPlan::crash_at(1, 3));
        disk.append("a", b"x").unwrap();
        disk.sync("a").unwrap_err();
        assert_eq!(disk.syncs(), 0);
    }

    #[test]
    fn unsynced_tails_tear_synced_bytes_survive() {
        // Crash at the second append: the synced prefix must survive in
        // full, the unsynced tail tears to some prefix.
        for seed in 0..32 {
            let disk = SimDisk::new(MediumPlan::crash_at(2, seed));
            disk.append("a.log", b"SYNCED").unwrap();
            disk.sync("a.log").unwrap();
            assert_eq!(disk.append("a.log", b"tail"), Err(DiskError::Crashed));
            assert!(disk.crashed());
            let s = &disk.survivors()["a.log"];
            assert!(s.starts_with(b"SYNCED"), "synced bytes lost: {s:?}");
            assert!(b"SYNCEDtail".starts_with(&s[..]));
        }
    }

    #[test]
    fn overwrite_without_sync_can_lose_old_contents() {
        let mut saw_old = false;
        let mut saw_new_prefix = false;
        for seed in 0..64 {
            let disk = SimDisk::new(MediumPlan::crash_at(2, seed));
            disk.write_all("cfg", b"OLD").unwrap();
            disk.sync("cfg").unwrap();
            disk.write_all("cfg", b"NEWNEW").unwrap_err();
            let s = disk.survivors()["cfg"].clone();
            if s == b"OLD" {
                saw_old = true;
            } else {
                assert!(b"NEWNEW".starts_with(&s[..]), "{s:?}");
                saw_new_prefix = true;
            }
        }
        assert!(saw_old && saw_new_prefix, "both outcomes must be reachable");
    }

    #[test]
    fn rename_is_atomic_and_coin_flipped_at_the_crash() {
        let mut saw_applied = false;
        let mut saw_lost = false;
        for seed in 0..32 {
            let disk = SimDisk::new(MediumPlan::crash_at(2, seed));
            disk.write_all("f.tmp", b"payload").unwrap();
            disk.sync("f.tmp").unwrap();
            disk.rename("f.tmp", "f").unwrap_err();
            let s = disk.survivors();
            if let Some(v) = s.get("f") {
                assert_eq!(v, b"payload"); // atomic: never torn
                assert!(!s.contains_key("f.tmp"));
                saw_applied = true;
            } else {
                assert_eq!(s.get("f.tmp").map(Vec::as_slice), Some(&b"payload"[..]));
                saw_lost = true;
            }
        }
        assert!(saw_applied && saw_lost);
    }

    #[test]
    fn crashes_are_deterministic_in_the_plan() {
        let run = || {
            let disk = SimDisk::new(MediumPlan::crash_at(4, 99));
            disk.append("w", b"aaaa").unwrap();
            disk.sync("w").unwrap();
            disk.append("w", b"bbbb").unwrap();
            disk.append("w", b"cccc").unwrap();
            disk.append("w", b"dddd").unwrap_err();
            disk.survivors()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn after_crash_everything_fails_and_reboot_restores_survivors() {
        let disk = SimDisk::new(MediumPlan::crash_at(1, 7));
        disk.append("x", b"abc").unwrap();
        disk.sync("x").unwrap_err();
        assert_eq!(disk.read("x"), Err(DiskError::Crashed));
        assert_eq!(disk.append("x", b"z"), Err(DiskError::Crashed));
        assert!(!disk.exists("x"));
        assert!(disk.list().is_empty());
        let fresh = reboot(&disk);
        assert!(!fresh.crashed());
        // Whatever survived is fully durable on the rebooted disk.
        assert_eq!(fresh.survivors(), disk.survivors());
    }

    #[test]
    fn corruption_helpers_mutate_in_place() {
        let disk = SimDisk::default();
        disk.write_all("b", b"\x00\x00\x00").unwrap();
        disk.sync("b").unwrap();
        assert!(disk.flip_bit("b", 1, 0));
        assert_eq!(disk.read("b").unwrap(), b"\x00\x01\x00");
        assert!(disk.truncate_to("b", 1));
        assert_eq!(disk.read("b").unwrap(), b"\x00");
        assert!(!disk.flip_bit("b", 9, 0));
        assert!(!disk.flip_bit("missing", 0, 0));
        assert!(!disk.truncate_to("missing", 0));
        // Helpers are not operations: the write, the sync, two reads.
        assert_eq!(disk.ops(), 4);
    }

    #[test]
    fn missing_files_are_typed_errors() {
        let disk = SimDisk::default();
        assert!(matches!(disk.read("nope"), Err(DiskError::NotFound { .. })));
        assert!(matches!(disk.sync("nope"), Err(DiskError::NotFound { .. })));
        assert!(matches!(disk.rename("nope", "x"), Err(DiskError::NotFound { .. })));
        assert!(matches!(disk.remove("nope"), Err(DiskError::NotFound { .. })));
    }

    #[test]
    fn single_shot_fires_exactly_once_at_its_op() {
        let disk = SimDisk::new(transient_at(1));
        disk.append("w", b"aa").unwrap();
        let err = disk.append("w", b"bb").unwrap_err();
        assert!(err.is_transient(), "{err}");
        // The very next attempt (a new op index) succeeds.
        disk.append("w", b"bb").unwrap();
        disk.sync("w").unwrap();
        assert_eq!(disk.injected(), 1);
    }

    #[test]
    fn injected_appends_tear_a_strict_prefix() {
        for seed in 0..32 {
            let disk = SimDisk::new(MediumPlan { seed, ..transient_at(0) });
            disk.append("w", b"PAYLOAD").unwrap_err();
            let len = disk.len_of("w").unwrap_or(0);
            assert!(len < b"PAYLOAD".len(), "torn length {len} not strict");
            if len > 0 {
                assert_eq!(disk.read("w").unwrap(), b"PAYLOAD"[..len].to_vec());
            }
        }
    }

    /// A failed write's torn prefix is part of its own op, not a hidden
    /// second one: the op index after a fault is the index of the next
    /// call, whichever fault kind lands there.
    #[test]
    fn one_index_names_one_boundary_for_every_fault_kind() {
        let disk = SimDisk::new(MediumPlan { seed: 5, ..transient_at(1) });
        disk.write_all("w", b"keep").unwrap();
        disk.append("w", b"torn-tail").unwrap_err();
        assert_eq!(disk.ops(), 2);
        // A crash at index 2 hits the very next call, after the fault.
        let run = |crash: u64| {
            let disk = SimDisk::new(MediumPlan { crash_at_op: Some(crash), ..transient_at(1) });
            disk.write_all("w", b"keep").unwrap();
            let faulted = disk.append("w", b"torn-tail");
            let next = disk.sync("w");
            (faulted, next)
        };
        assert!(run(2).0.as_ref().is_err_and(DiskError::is_transient));
        assert_eq!(run(2).1, Err(DiskError::Crashed));
        // The crash wins when both kinds name the same boundary.
        assert_eq!(run(1).0, Err(DiskError::Crashed));
        // Reads are boundaries too.
        let disk = SimDisk::new(MediumPlan::crash_at(1, 0));
        disk.write_all("r", b"x").unwrap();
        assert_eq!(disk.read("r"), Err(DiskError::Crashed));
        assert!(b"x".starts_with(&disk.survivors()["r"]));
    }

    #[test]
    fn permanent_fails_everything_until_heal() {
        let disk = SimDisk::new(permanent_from(2));
        disk.append("w", b"a").unwrap();
        disk.sync("w").unwrap();
        for _ in 0..3 {
            let err = disk.append("w", b"b").unwrap_err();
            assert!(!err.is_transient(), "permanent faults are not transient");
        }
        assert!(disk.broken());
        disk.heal();
        assert!(!disk.broken());
        disk.append("w", b"b").unwrap();
        disk.sync("w").unwrap();
        // The permanent fault never re-fires after heal; the failed
        // appends left no bytes (a 1-byte write tears to nothing).
        assert_eq!(disk.read("w").unwrap(), b"ab");
    }

    /// After a heal or a quiesce, a new plan's permanent fault fires from
    /// its first index like any other fault of the plan.
    #[test]
    fn set_plan_arms_every_fault_after_heal_or_quiesce() {
        for settle in [SimDisk::heal as fn(&SimDisk), SimDisk::quiesce] {
            let disk = SimDisk::new(permanent_from(1));
            disk.append("w", b"a").unwrap();
            disk.append("w", b"b").unwrap_err();
            settle(&disk);
            disk.append("w", b"b").unwrap();
            disk.set_plan(permanent_from(0));
            let err = disk.append("w", b"c").unwrap_err();
            assert!(!err.is_transient(), "{err}");
            assert!(disk.broken());
        }
    }

    #[test]
    fn quiesce_silences_probabilistic_plans() {
        let plan = MediumPlan { seed: 9, append_permille: 1000, ..MediumPlan::clean() };
        let disk = SimDisk::new(plan);
        disk.append("w", b"x").unwrap_err();
        disk.quiesce();
        for _ in 0..20 {
            disk.append("w", b"x").unwrap();
        }
    }

    #[test]
    fn latency_advances_the_shared_clock() {
        let clock = Rc::new(RefCell::new(VirtualClock::new()));
        let plan = MediumPlan {
            sync_latency_micros: 500,
            append_latency_micros: 10,
            ..MediumPlan::clean()
        };
        let disk = SimDisk::with_clock(plan, Rc::clone(&clock));
        disk.append("w", b"x").unwrap();
        disk.sync("w").unwrap();
        disk.sync("w").unwrap();
        assert_eq!(clock.borrow().now(), 10 + 500 + 500);
    }

    #[test]
    fn injection_is_deterministic_in_the_plan() {
        let run = || {
            let plan = MediumPlan {
                seed: 77,
                append_permille: 400,
                sync_permille: 400,
                crash_at_op: Some(70),
                ..MediumPlan::clean()
            };
            let disk = SimDisk::new(plan);
            let mut outcomes = Vec::new();
            for i in 0..40u8 {
                outcomes.push(disk.append("w", &[i]).is_ok());
                outcomes.push(disk.sync("w").is_ok());
            }
            (outcomes, disk.survivors())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scoped_plans_leave_other_paths_untouched() {
        let disk = SimDisk::new(permanent_from(0).scoped_to("s1-"));
        // Out-of-scope paths never fault and never consume op indexes.
        for _ in 0..5 {
            disk.append("s0-wal", b"x").unwrap();
            disk.sync("s0-wal").unwrap();
        }
        assert_eq!(disk.ops(), 0);
        // The scoped path hits the permanent fault immediately.
        let err = disk.append("s1-wal", b"x").unwrap_err();
        assert!(!err.is_transient());
        assert!(disk.broken());
        // The broken state still only affects the scoped slice.
        disk.append("s0-wal", b"y").unwrap();
        disk.heal();
        disk.append("s1-wal", b"x").unwrap();
    }

    #[test]
    fn crash_plans_shrink_toward_clean() {
        let plan = MediumPlan::crash_at(9, 1234);
        let candidates = plan.shrink();
        assert!(candidates.iter().any(MediumPlan::is_clean));
        assert!(candidates.iter().any(|c| c.crash_at_op == Some(4)));
        assert!(candidates.iter().all(|c| c.seed == 1234));
        assert!(MediumPlan::clean().shrink().is_empty());
    }

    #[test]
    fn shrinking_reaches_clean() {
        let mut rng = SplitMix64::new(5);
        let mut plan = MediumPlan::random(&mut rng);
        plan.transient_at_op = Some(7);
        plan.permanent_from_op = Some(11);
        plan.crash_at_op = Some(13);
        let mut steps = 0;
        while let Some(next) = plan.shrink().into_iter().next() {
            plan = next;
            steps += 1;
            assert!(steps < 1000, "medium-plan shrinking diverged");
        }
        assert!(plan.is_clean());
    }
}
