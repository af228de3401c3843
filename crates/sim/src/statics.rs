//! Static conflict summaries consumed by [`PruneMode::StaticDpor`]
//! (required) and [`PruneMode::OptimalDpor`] (consulted when
//! installed).
//!
//! A [`StaticConflicts`] value is the runtime form of the
//! **placement-commutation certificate** produced by the `sl-analyze`
//! crate: for every register the static access-footprint probe
//! observed, it records whether invocation-placement relaxation is
//! *licensed* on that register and whether the static may-conflict
//! matrix predicts a data race on it (two distinct processes' ops
//! touch it, at least one writing).
//!
//! The explorer uses the two halves asymmetrically, and both
//! directions **fail closed**:
//!
//! * `licensed` drives *pruning*: a `Local` (pause) step carrying at
//!   most an invocation marker may commute with a marker-free data
//!   step only when the data step's register is licensed. Registers
//!   the probe never saw are unlicensed, so nothing is pruned on the
//!   strength of an incomplete analysis.
//! * `racy` drives *validation*: every data race the dynamic detector
//!   observes must be predicted by the matrix. An unpredicted race
//!   aborts the exploration with a diagnostic naming the register and
//!   the analysis footprint — the analysis is never silently wrong.
//!
//! Version-2 certificates additionally install an **op-pair
//! may-conflict matrix**: per unordered pair of op variants, the
//! registers the pair was observed touching when probed concurrently
//! against each other, and the subset the analysis predicts they may
//! race on. The matrix refines both halves: it licenses the pause/pause
//! and one-marked data/data relaxations (see the explorer's module
//! docs), and it lets validation attribute a dynamic race to the pair
//! cell that licensed the commutation before falling back to the
//! per-register partition. Unknown ops ([`sl_check::OpSym::NONE`]) and
//! pairs without a cell always classify as unprobed — fail closed.
//!
//! Register identities are matched two ways: exact interned
//! [`RegSym`]s first, then the register's `(file, line)` allocation
//! site. The site fallback covers registers allocated in loops or
//! sized by the process count — the probe configuration may allocate
//! fewer `slot{i}` registers than a wider simulated run, but every one
//! of them comes from the same `Mem::alloc` call site, which is
//! exactly what the footprint analysis reasons about.
//!
//! [`PruneMode::StaticDpor`]: crate::PruneMode::StaticDpor
//! [`PruneMode::OptimalDpor`]: crate::PruneMode::OptimalDpor

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use sl_check::{OpSym, RegSym};

/// Counters accumulated while an exploration consults a certificate.
///
/// Deliberately *not* part of [`crate::ExploreOutcome`]: the parallel
/// explorer examines a different multiset of step pairs than the
/// sequential one (races found in a delegated subtree are not
/// re-examined by the owner), so these totals are not bit-identical
/// across worker counts — the exploration results are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaticTelemetry {
    /// Step pairs commuted by a certificate relaxation (placement,
    /// pause/pause, or an op-pair-licensed value rule). Counted only for
    /// *concurrent* pairs — the ones race detection decides: a pair
    /// already ordered by happens-before is skipped before the relation
    /// is consulted, so it is never counted.
    pub relaxed: u64,
    /// Dynamic races checked against the matrix and found predicted.
    pub validated: u64,
    /// Dynamic races that could not be attributed to a register
    /// (untraced runs record no step metadata); skipped, not validated.
    pub unattributed: u64,
}

/// One cell of the op-pair may-conflict matrix: the registers the two
/// ops were *observed* touching (sequential footprints plus concurrent
/// probe windows) and the subset the analysis predicts they may
/// *conflict* on. Keys are normalised unordered pairs (`a <= b`).
struct PairCell {
    observed: HashSet<RegSym>,
    observed_sites: HashSet<(&'static str, u32)>,
    conflict: HashSet<RegSym>,
    conflict_sites: HashSet<(&'static str, u32)>,
}

/// A static may-conflict summary: which registers license placement
/// relaxation and which are predicted racy. See the module docs.
pub struct StaticConflicts {
    /// Registers observed by the static probe (relaxation license).
    licensed: HashSet<RegSym>,
    /// Allocation sites of licensed registers (loop-allocation fallback).
    licensed_sites: HashSet<(&'static str, u32)>,
    /// Registers the matrix predicts a data race on.
    racy: HashSet<RegSym>,
    /// Allocation sites of racy registers.
    racy_sites: HashSet<(&'static str, u32)>,
    /// Human-readable footprint notes per allocation site, surfaced in
    /// fail-closed diagnostics ("ops touching this register: ...").
    notes: HashMap<(&'static str, u32), String>,
    /// Memoised per-symbol classification `(licensed, racy)` — the
    /// site fallback takes two interner reads, and the explorer asks
    /// about the same handful of symbols millions of times.
    memo: RwLock<HashMap<RegSym, (bool, bool)>>,
    /// The op-pair may-conflict matrix (certificate version 2), keyed
    /// by normalised unordered op pairs. Empty for version-1-shaped
    /// certificates: every pair query then answers "unprobed", which
    /// disables the per-op-pair relaxations — fail closed.
    pairs: HashMap<(OpSym, OpSym), PairCell>,
    /// Memoised `(pair probed, reg observed, reg conflict)` per
    /// `(a, b, reg)` query, same rationale as `memo`.
    #[allow(clippy::type_complexity)]
    pair_memo: RwLock<HashMap<(OpSym, OpSym, RegSym), (bool, bool, bool)>>,
    relaxed: AtomicU64,
    validated: AtomicU64,
    unattributed: AtomicU64,
    /// When set, every dynamic race examined by `validate_race` is also
    /// recorded as a normalised `(opA, opB, reg)` triple — the
    /// overapproximation tests compare these against the certificate's
    /// pair matrix. Off by default (recording takes a mutex per race).
    record_races: AtomicBool,
    races: Mutex<BTreeSet<(OpSym, OpSym, RegSym)>>,
}

/// Normalised unordered pair key.
fn pair_key(a: OpSym, b: OpSym) -> (OpSym, OpSym) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl std::fmt::Debug for StaticConflicts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticConflicts")
            .field("licensed", &self.licensed.len())
            .field("racy", &self.racy.len())
            .field("telemetry", &self.telemetry())
            .finish()
    }
}

impl StaticConflicts {
    /// Builds a certificate from the licensed and racy register sets.
    /// Each symbol also licenses (or marks racy) its whole allocation
    /// site, so same-site registers of a differently sized
    /// configuration classify identically.
    pub fn new(
        licensed: impl IntoIterator<Item = RegSym>,
        racy: impl IntoIterator<Item = RegSym>,
    ) -> StaticConflicts {
        let licensed: HashSet<RegSym> = licensed.into_iter().collect();
        let racy: HashSet<RegSym> = racy.into_iter().collect();
        let licensed_sites = licensed.iter().map(|s| s.site()).collect();
        let racy_sites = racy.iter().map(|s| s.site()).collect();
        StaticConflicts {
            licensed,
            licensed_sites,
            racy,
            racy_sites,
            notes: HashMap::new(),
            memo: RwLock::new(HashMap::new()),
            pairs: HashMap::new(),
            pair_memo: RwLock::new(HashMap::new()),
            relaxed: AtomicU64::new(0),
            validated: AtomicU64::new(0),
            unattributed: AtomicU64::new(0),
            record_races: AtomicBool::new(false),
            races: Mutex::new(BTreeSet::new()),
        }
    }

    /// Merges one cell of the op-pair may-conflict matrix (certificate
    /// version 2): the ops named by their canonical labels, `observed`
    /// the registers either op was seen touching when probed against
    /// the other, `conflict` the subset the analysis predicts the pair
    /// may race on. Each register also enrols its allocation site, with
    /// the same loop-allocation rationale as the per-register sets.
    pub fn add_pair(
        &mut self,
        a: &str,
        b: &str,
        observed: impl IntoIterator<Item = RegSym>,
        conflict: impl IntoIterator<Item = RegSym>,
    ) {
        let key = pair_key(OpSym::intern(a), OpSym::intern(b));
        let cell = self.pairs.entry(key).or_insert_with(|| PairCell {
            observed: HashSet::new(),
            observed_sites: HashSet::new(),
            conflict: HashSet::new(),
            conflict_sites: HashSet::new(),
        });
        for sym in observed {
            cell.observed_sites.insert(sym.site());
            cell.observed.insert(sym);
        }
        for sym in conflict {
            // Conflict evidence implies both ops reached the register:
            // a conflict site is always also an observed site.
            cell.observed_sites.insert(sym.site());
            cell.observed.insert(sym);
            cell.conflict_sites.insert(sym.site());
            cell.conflict.insert(sym);
        }
    }

    /// An empty certificate: nothing licensed, nothing predicted racy.
    /// Useful as a fail-closed default — every observed race aborts.
    pub fn empty() -> StaticConflicts {
        StaticConflicts::new([], [])
    }

    /// Attaches a footprint note to `sym`'s allocation site, shown in
    /// fail-closed diagnostics.
    pub fn set_note(&mut self, sym: RegSym, note: impl Into<String>) {
        self.notes.insert(sym.site(), note.into());
    }

    /// `(licensed, racy)` for `sym`, by symbol or by allocation site.
    fn classify(&self, sym: RegSym) -> (bool, bool) {
        if sym == RegSym::LOCAL {
            return (false, false);
        }
        if let Some(&hit) = self.memo.read().unwrap().get(&sym) {
            return hit;
        }
        let site = sym.site();
        let licensed = self.licensed.contains(&sym) || self.licensed_sites.contains(&site);
        let racy = self.racy.contains(&sym) || self.racy_sites.contains(&site);
        self.memo.write().unwrap().insert(sym, (licensed, racy));
        (licensed, racy)
    }

    /// Whether the placement relaxation is licensed on `sym` (the
    /// static probe observed this register, by symbol or site).
    pub fn licensed(&self, sym: RegSym) -> bool {
        self.classify(sym).0
    }

    /// Whether the static matrix predicts a data race on `sym`.
    pub fn racy(&self, sym: RegSym) -> bool {
        self.classify(sym).1
    }

    /// `(pair probed, reg observed, reg conflict)` for the unordered op
    /// pair `(a, b)` and register `sym`, fail-closed: unknown ops
    /// ([`OpSym::NONE`]) and pairs without a matrix cell answer
    /// `(false, false, false)`.
    fn classify_pair(&self, a: OpSym, b: OpSym, sym: RegSym) -> (bool, bool, bool) {
        if a.is_none() || b.is_none() {
            return (false, false, false);
        }
        let key = pair_key(a, b);
        let memo_key = (key.0, key.1, sym);
        if let Some(&hit) = self.pair_memo.read().unwrap().get(&memo_key) {
            return hit;
        }
        let result = match self.pairs.get(&key) {
            None => (false, false, false),
            Some(cell) => {
                let site = sym.site();
                let observed = sym != RegSym::LOCAL
                    && (cell.observed.contains(&sym) || cell.observed_sites.contains(&site));
                let conflict = sym != RegSym::LOCAL
                    && (cell.conflict.contains(&sym) || cell.conflict_sites.contains(&site));
                (true, observed, conflict)
            }
        };
        self.pair_memo.write().unwrap().insert(memo_key, result);
        result
    }

    /// Whether the op pair `(a, b)` has a cell in the matrix — i.e. the
    /// concurrent probe drove this pair and its footprints are known.
    pub fn pair_probed(&self, a: OpSym, b: OpSym) -> bool {
        self.classify_pair(a, b, RegSym::LOCAL).0
    }

    /// Whether the per-op-pair placement relaxation is licensed for the
    /// pair `(a, b)` on register `sym`: the pair was probed and the
    /// register lies inside the pair's observed footprint.
    pub fn pair_licensed(&self, a: OpSym, b: OpSym, sym: RegSym) -> bool {
        self.classify_pair(a, b, sym).1
    }

    /// Whether the matrix predicts the op pair `(a, b)` may race on
    /// `sym`: `None` when the pair has no cell (fall back to the
    /// per-register partition), `Some(conflict)` when it has.
    pub fn pair_predicts(&self, a: OpSym, b: OpSym, sym: RegSym) -> Option<bool> {
        let (probed, _, conflict) = self.classify_pair(a, b, sym);
        probed.then_some(conflict)
    }

    /// Number of op-pair cells installed (0 for version-1 shapes).
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Turns on dynamic race recording (see `record_races`).
    pub fn enable_race_recording(&self) {
        self.record_races.store(true, Ordering::Relaxed);
    }

    /// The normalised `(opA, opB, reg)` triples of every dynamic race
    /// examined while recording was enabled.
    pub fn recorded_races(&self) -> Vec<(OpSym, OpSym, RegSym)> {
        self.races.lock().unwrap().iter().copied().collect()
    }

    pub(crate) fn note_race(&self, a: OpSym, b: OpSym, sym: RegSym) {
        if self.record_races.load(Ordering::Relaxed) {
            let key = pair_key(a, b);
            self.races.lock().unwrap().insert((key.0, key.1, sym));
        }
    }

    /// A diagnostic rendering of `sym` with its footprint note.
    pub fn describe(&self, sym: RegSym) -> String {
        let (file, line) = sym.site();
        let note = self
            .notes
            .get(&(file, line))
            .map(|n| format!("; static footprint: {n}"))
            .unwrap_or_default();
        format!("register `{}` (alloc at {file}:{line}){note}", sym.name())
    }

    pub(crate) fn note_relaxed(&self) {
        self.relaxed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_validated(&self) {
        self.validated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_unattributed(&self) {
        self.unattributed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counters accumulated so far (explorations only add; a
    /// certificate can be shared across explorations).
    pub fn telemetry(&self) -> StaticTelemetry {
        StaticTelemetry {
            relaxed: self.relaxed.load(Ordering::Relaxed),
            validated: self.validated.load(Ordering::Relaxed),
            unattributed: self.unattributed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_by_symbol_and_by_site() {
        let a = RegSym::intern("stx-A", file!(), line!(), 1);
        // Same site, different name — as loop allocations produce.
        let (f, l) = a.site();
        let a2 = RegSym::intern("stx-A2", f, l, 2);
        let b = RegSym::intern("stx-B", file!(), line!(), 1);
        let st = StaticConflicts::new([a], [a]);
        assert!(st.licensed(a) && st.racy(a));
        assert!(st.licensed(a2), "site fallback licenses same-site regs");
        assert!(st.racy(a2));
        assert!(!st.licensed(b) && !st.racy(b));
        assert!(!st.licensed(RegSym::LOCAL));
        // Memoised second lookup agrees.
        assert!(st.licensed(a2) && !st.licensed(b));
    }

    #[test]
    fn pair_matrix_classifies_fail_closed() {
        let r = RegSym::intern("stx-pair-R", file!(), line!(), 1);
        let s = RegSym::intern("stx-pair-S", file!(), line!(), 1);
        let t = RegSym::intern("stx-pair-T", file!(), line!(), 1);
        let mut st = StaticConflicts::new([r, s, t], [r]);
        st.add_pair("DWrite", "DRead", [r, s], [r]);
        let w = OpSym::intern("DWrite");
        let rd = OpSym::intern("DRead");
        let scan = OpSym::intern("Scan");
        // Pair queries are order-insensitive.
        assert!(st.pair_probed(w, rd) && st.pair_probed(rd, w));
        assert!(st.pair_licensed(w, rd, r) && st.pair_licensed(rd, w, s));
        assert!(!st.pair_licensed(w, rd, t), "outside the pair footprint");
        assert_eq!(st.pair_predicts(w, rd, r), Some(true));
        assert_eq!(st.pair_predicts(w, rd, s), Some(false));
        // Unprobed pairs and unknown ops answer fail-closed.
        assert!(!st.pair_probed(w, scan));
        assert_eq!(st.pair_predicts(w, scan, r), None);
        assert!(!st.pair_probed(OpSym::NONE, rd));
        assert!(!st.pair_licensed(OpSym::NONE, rd, r));
        // Site fallback: a same-site register classifies like `r`.
        let (f, l) = r.site();
        let r2 = RegSym::intern("stx-pair-R2", f, l, 2);
        assert!(st.pair_licensed(w, rd, r2));
        assert_eq!(st.pair_predicts(w, rd, r2), Some(true));
        // Race recording normalises and dedupes.
        assert!(st.recorded_races().is_empty());
        st.note_race(rd, w, r); // ignored: recording off
        st.enable_race_recording();
        st.note_race(rd, w, r);
        st.note_race(w, rd, r);
        assert_eq!(st.recorded_races().len(), 1);
    }

    #[test]
    fn notes_surface_in_descriptions() {
        let a = RegSym::intern("stx-noted", file!(), line!(), 1);
        let mut st = StaticConflicts::empty();
        st.set_note(a, "write by push@p0, read by pop@p1");
        let d = st.describe(a);
        assert!(d.contains("stx-noted") && d.contains("push@p0"), "{d}");
    }
}
