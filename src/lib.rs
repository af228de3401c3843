//! **strongly-linearizable** — a full reproduction of Ovens & Woelfel,
//! *Strongly Linearizable Implementations of Snapshots and Other Types*
//! (PODC 2019), as a production-quality Rust workspace with one unified
//! object API.
//!
//! Linearizability is not enough for randomized algorithms under a
//! strong adaptive adversary: a scheduler that sees every coin flip can
//! retroactively re-order operations of a merely linearizable object and
//! bias the outcome distribution. *Strong linearizability* forbids this:
//! once an operation is placed in the linearization order, its position
//! never changes. This workspace implements the paper's algorithms and
//! all their substrates, plus the machinery to *check* both correctness
//! conditions mechanically — and, since the `sl-api` redesign, the
//! distinction is **part of every object's type**: objects declare
//! [`Lin`](prelude::Lin) or [`Strong`](prelude::Strong), and code that
//! requires strong linearizability rejects merely linearizable objects
//! at compile time.
//!
//! # The unified API
//!
//! Everything is built through one fluent [`ObjectBuilder`](prelude::ObjectBuilder)
//! and operated through per-process handles (at most one live handle
//! per process — a debug-mode duplicate-handle panic enforces the
//! single-writer discipline the docs used to leave to the caller).
//! Scans return a typed [`View`](prelude::View) carrying the version
//! where the substrate provides one.
//!
//! ```
//! use strongly_linearizable::prelude::*;
//!
//! let mem = NativeMem::new();
//! // The paper's bounded-space strongly linearizable snapshot
//! // (double-collect substrate + Algorithm 2 ABA-detecting register).
//! let snap = ObjectBuilder::on(&mem).processes(3).snapshot::<u64>();
//! let mut alice = snap.handle(ProcId(0));
//! let mut bob = snap.handle(ProcId(1));
//! alice.update(10);
//! bob.update(20);
//! assert_eq!(alice.scan(), vec![Some(10), Some(20), None]);
//!
//! // The guarantee is in the type: this compiles because Theorem 2
//! // says so, and would not for `.lin_snapshot()` (Observation 4 era).
//! fn strong_only<O: SharedObject<NativeMem, Guarantee = Strong>>(_: &O) {}
//! strong_only(&snap);
//! ```
//!
//! # Paper map
//!
//! | Paper item | Builder invocation |
//! |---|---|
//! | Algorithm 1 (Aghazadeh–Woelfel ABA register; Observation 4: **not** strongly linearizable) | `.lin_aba_register::<V>()` → guarantee `Lin` |
//! | Algorithm 2 (strongly linearizable ABA register; Theorem 1) | `.aba_register::<V>()` → guarantee `Strong` |
//! | Algorithms 3/4 over double collect (Theorem 2) | `.double_collect().snapshot::<V>()` (default substrate) |
//! | Algorithm 3 with atomic `R` (pre-composition) | `.atomic_r().snapshot::<V>()` |
//! | Algorithms 3/4 over the wait-free Afek substrate | `.afek().snapshot::<V>()` |
//! | §4.3 fully bounded configuration (headline) | `.bounded_handshake().snapshot::<V>()` |
//! | §4.1 Denysyuk–Woelfel versioned construction | `.versioned().snapshot::<V>()` (scans carry versions) |
//! | §4.1 Aspnes–Attiya–Censor trie max-register | `.trie_max_register(capacity)` → guarantee `Lin` |
//! | §4.5 derived counter / max-register | `.counter()` / `.max_register()` |
//! | §5 universal construction (Theorems 54/3) | `.universal(ty)` for any [`SimpleType`](universal::SimpleType) |
//!
//! # Layers
//!
//! * [`api`] — the unified object API: [`SharedObject`](prelude::SharedObject),
//!   typed guarantees, the builder, and harness entry points.
//! * [`core`](mod@core) — the paper's contributions (Algorithms 1–4,
//!   §4.1, §4.5).
//! * [`universal`] — the Aspnes–Herlihy universal construction (§5).
//! * [`snapshot`] — linearizable snapshot substrates (internal SPI:
//!   substrates take the acting process explicitly; consumer code goes
//!   through handles).
//! * [`mem`] / [`sim`] — the shared-memory model: write an algorithm
//!   once against `mem::Mem`, run it on real threads or under the
//!   deterministic adversarial simulator.
//! * [`spec`] / [`check`] — sequential specifications, histories, and
//!   the linearizability / strong-linearizability checkers.
//!
//! # How to model-check a new object
//!
//! Any object built by the builder (or any hand-rolled
//! [`SharedObject`](prelude::SharedObject)) can be model-checked end to
//! end in a few lines. The `sl-api` harness runs it on the simulator's
//! coroutine-stepped VM, enumerates adversary schedules with
//! **value-aware source-set DPOR** (race-directed partial-order
//! reduction over the declared pending accesses, refined by observed
//! values — see *Trace encoding & value-aware commutation* below;
//! the syntactic-DPOR mode and the unpruned reference oracle — the
//! same engine under the all-dependent relation — remain available via
//! `sim::PruneMode`), and streams every transcript into the
//! hash-consed transcript DAG that strong linearizability quantifies
//! over:
//!
//! ```
//! use strongly_linearizable::api::sim::{explore_object, DriveOps as _, SimExplore};
//! use strongly_linearizable::prelude::*;
//! use strongly_linearizable::spec::types::SnapshotSpec;
//! use strongly_linearizable::spec::SnapshotOp;
//!
//! // 1. A factory building the object on a fresh simulated memory.
//! //    (Swap in any substrate or your own object here.)
//! let factory = |mem: &strongly_linearizable::sim::SimMem| {
//!     ObjectBuilder::on(mem).processes(2).atomic_snapshot::<u64>()
//! };
//! // 2. A per-process workload of sequential-spec operations.
//! let workload = [vec![SnapshotOp::Update(5)], vec![SnapshotOp::Scan]];
//! // 3. Explore every schedule (bounded) and decide. The closure
//! //    applies one spec operation to a handle; no checkpointing.
//! let explored = explore_object::<SnapshotSpec<u64>, _, _, _>(
//!     factory,
//!     &workload,
//!     |h, op| h.drive(op),
//!     &SimExplore::default(),
//!     None,
//! );
//! assert!(explored.outcome.exhausted);
//! assert!(explored.check_strong(&SnapshotSpec::<u64>::new(2)).holds);
//! ```
//!
//! Three escalation levels, cheapest first:
//!
//! 1. **Fuzz** (`api::fuzz`): seeded-random workloads × random
//!    adversary schedules, histories through `check_linearizable`, and
//!    — for `Strong`-typed objects — schedule trees through the strong
//!    checker. Failures are shrunk to a locally-minimal operation +
//!    schedule sequence and printed with allocation-site labels.
//! 2. **Explore** (`api::sim::explore_object`, above): bounded
//!    *exhaustive* enumeration with pruning; `SimExplore::stem` focuses
//!    the search on extensions of a known-adversarial prefix,
//!    `workers` parallelises replays across threads, and
//!    `api::sim::explore_object_distributed` across worker processes.
//! 3. **Hand-crafted adversaries** (`sim::FnScheduler`,
//!    `sim::Scripted`): reproduce a specific family, as the
//!    Observation-4 tests do. New: schedulers see each runnable
//!    process's *declared next access* (`sim::SchedView::pending`).
//!
//! Every builder family's handles implement `api::sim::DriveOps`, so
//! their apply closure is `|h, op| h.drive(op)`; for operations outside
//! the builder families, implement `DriveOps` for your handle or write
//! the apply closure directly (`explore_object` and the fuzz entry
//! points both take one).
//!
//! ## Parallel exploration
//!
//! Source-set DPOR now runs **partitioned across worker threads**: when
//! a decision node holds several unexplored backtrack candidates, the
//! owning worker keeps one and publishes the rest as frozen subtree
//! tasks onto a work-stealing deque; race reversals that point above a
//! delegated subtree's root are carried back and merged at the join, in
//! exactly the order the sequential algorithm would have applied them.
//! The guarantee is **determinism**: at any worker count the explorer
//! visits the identical schedule set, reports identical replay/cut/
//! pruned counts, and — via per-subtree `check::DagBuilder` shards
//! hash-cons-merged with `check::TreeDag::merge` — produces a
//! structurally identical transcript DAG (asserted by randomized
//! differential tests at 1/2/4/8 workers, and by a CI baseline gate).
//!
//! Set `SimExplore::workers` (or the `SL_EXPLORE_THREADS` environment
//! variable: `0` = one per CPU) to parallelise; replays also reuse one
//! warm `sim::SimWorld` per worker (`SimWorld::reset` restores every
//! register to its `alloc`-time value between schedules) instead of
//! building a fresh world per schedule. The object under test must keep
//! its mutable state in `mem::Mem` registers — true of every
//! shared-memory algorithm; per-process state lives in handles, which
//! are rebuilt per replay.
//!
//! ## Trace encoding & value-aware commutation
//!
//! Traced steps are **never rendered to text** on the checking path.
//! The VM records each shared-memory step as one `Copy`
//! `check::StepCode` — a packed `u64` of interned ids: process, step
//! kind, register (`check::RegSym`: allocation name + site, global
//! across worlds and workers), and *value* (`check::ValueId`, interned
//! by typed identity — usually a couple of `Eq` compares against a
//! small per-register memo, no `Debug` formatting). The code flows
//! unconverted from the trace buffer through the explorer into
//! `check::DagBuilder`/`check::TreeDag` and the memoised strong-lin
//! checker, which compare steps by integer equality; label text is
//! decoded lazily (`StepCode::write_label`) only on report and pretty
//! paths. This lifted `traced` VM throughput from ~6.9M to ~11.6M
//! steps/s (counted: ~15.5M — the gap fell from ~2.2× to ~1.35×) and
//! makes a traced explorer replay ≥1.6× faster than the retired
//! per-step `format!`+intern pipeline (gated in CI via
//! `exp_sim_throughput --baseline`, `min_format_speedup`).
//!
//! On top of the value-interned steps, the default explorer mode
//! (`sim::PruneMode::ValueDpor`) refines the DPOR independence
//! relation for **race detection**: two same-register steps of
//! different processes additionally commute when they are a read/read
//! pair, or a write/write pair storing the same interned value —
//! provided no invocation/response marker rode on either step's
//! activation (observed post-hoc from the trace; unknown metadata is
//! treated as conflicting, and sleep-set filtering keeps the
//! conservative syntactic relation). Mixed-role (reader-carrying)
//! workloads shrink measurably — the pinned 3-process mixed workloads
//! drop from 2,746 to 2,242 schedules (1 op per process) and from
//! 204,257 to 179,697 (writers 2+1 ops + reader), ~12–18% — with
//! verdicts and conflict depths asserted equal to syntactic source
//! DPOR by randomized differential tests (and bit-identical replay
//! counts and DAG hashes across worker counts 1/2/4/8, like every
//! DPOR mode here). Workloads without cross-process read/read or
//! same-value write/write pairs (e.g. the 2-process `aba_2w2r` pin)
//! are unchanged. The soundness argument lives in `sim::explore`'s
//! module docs.
//!
//! ## Static conflict analysis & sanitizer lanes
//!
//! The `sl-analyze` crate computes, ahead of exploration, a per-object
//! **placement-commutation certificate**: it dry-runs every operation
//! of every builder family × substrate on the footprint-recording
//! `mem::SymMem` backend (a probe window around each call, round-robin
//! multi-pass so probes see evolved state) and folds the symbolic
//! access logs into per-op may-footprints, an op × op may-conflict
//! matrix, and two register classifications — *licensed* (probed;
//! placement relaxation may fire) and *racy* (conservatively, every
//! written or unprobed site). On top of the sequential passes it runs
//! **concurrent pair schedules**: every ordered op pair is replayed
//! with the first op's probe window truncated at each pause boundary
//! (a budgeted recording window on `SymMem`) before the second op runs
//! to completion, so the certificate carries contention evidence per
//! *op pair* — an `observed`/`conflict` site matrix over a stable,
//! sorted op index — not just per register. Because `mem::Mem::alloc`
//! is `#[track_caller]` under every backend, the certificate's
//! register identities are byte-identical to the `check::RegSym`s the
//! simulator interns, which is what lets static facts license dynamic
//! decisions. Certificates serialize as versioned JSON (version 2);
//! the parser is fail-closed — stale versions, unknown or missing
//! fields, and internally inconsistent matrices are rejected with
//! named diagnostics, and the sim-deep baseline gate fails if the
//! checked-in catalog is not byte-identical to a fresh regeneration.
//!
//! `sim::PruneMode::StaticDpor` layers on `ValueDpor`: a pause step
//! carrying at most an invocation marker additionally commutes with a
//! marker-free data step on a certificate-licensed register — exactly
//! the invocation-placement branching the paper's proofs quantify
//! over. With the pair matrix installed, steps also carry their
//! invoking operation's identity, and two further per-op-pair
//! relaxations fire only for pairs the concurrent probe actually
//! exercised: response-free pause/pause steps of a probed pair
//! commute, and one-marked value-equal data pairs commute on the
//! pair's observed registers. The contract is **fail-closed**: every
//! dynamically observed race must be predicted by the static matrix
//! *and attributed to its licensing op-pair cell or the racy set*
//! (`sim::StaticConflicts` validates each one and counts
//! relaxed/validated/unattributed telemetry; an unpredicted race
//! aborts the exploration with a diagnostic naming the registers,
//! footprints, and op pair), so an unsound certificate can never
//! silently change a verdict. Differential
//! suites assert verdict and conflict-depth equality with `ValueDpor`
//! and bit-identical outcomes across 1/2/4/8 workers; the pinned
//! mixed-role workloads drop a further ~45–56% below their value-DPOR
//! counts (gated in CI, `crates/bench/baselines/explorer_baseline.json`,
//! with the certificate catalog serialized alongside as
//! `certificates.json`).
//!
//! `sim::PruneMode::OptimalDpor` goes further with **wakeup
//! sequences**: race reversals enqueue the entire reversing
//! continuation (not just its first step), replayed in full before
//! free extension and only when it conflicts with every sleeping
//! process — so no sleep-set-blocked run is ever initiated
//! (`cut_runs == 0`, gated). Its race detection adds the **observer
//! rule**: two same-register writes commute when neither written
//! value is read before being overwritten. A certificate is consulted
//! when present but not required. On the pinned mixed-role workloads
//! this roughly halves (or better) even the static-certificate
//! counts, and the op-pair relaxations shave another ~10%: 598 vs
//! 1,232 and 23,888 vs 79,502 total replays (the pre-pair counts,
//! 660 and 26,638, are frozen floors the CI gate must stay strictly
//! below).
//!
//! Complementing the static lane, CI runs two sanitizer lanes: **Miri**
//! over the fiber-free crates (`sl-spec`, `sl-check`, `sl-mem`,
//! `sl-core` unit tests) and **ThreadSanitizer** over the simulator
//! with the `portable-fibers` engine (every fiber a real OS thread, so
//! TSan observes the full VM/fiber rendezvous protocol). Every crate
//! except `sl-sim` is `#![deny(unsafe_code)]`; `scripts/unsafe_lint.py`
//! additionally confines `unsafe` to sl-sim's `fiber`/`vm` modules and
//! requires an adjacent `// SAFETY:` justification on every block.
//!
//! ## Crash-resilient & resumable exploration
//!
//! Deep explorations are hours of replay work held in one process's
//! memory; the `sl-sim` checkpoint subsystem makes that work
//! survivable without giving up determinism. The explorer's root walk
//! periodically freezes its outstanding frontier — the depth-first
//! spine bookkeeping plus every delegated, not-yet-joined subtree
//! task — into a versioned, checksummed checkpoint file
//! (`sim::CheckpointStore`: canonical compact JSON, FNV-1a-64 digest,
//! atomic temp-file + rename writes), and
//! `sim::Explorer::explore_resumable` (or `api::sim::explore_object`
//! with a `sim::ResumeSession` at the object level) resumes from it. The resumed run's union with the interrupted one
//! is **bit-identical** to an uninterrupted exploration at any worker
//! count: schedule counts, cut/pruned telemetry, merged `TreeDag`
//! structural hash, verdict, and conflict depth all agree. The loader
//! is fail-closed end to end — torn, stale, version-skewed, or
//! doctored checkpoints abort with named diagnostics
//! (`scripts/ckpt_lint.py` lints the same format out-of-process).
//!
//! Three degradation paths keep a run useful when something breaks:
//!
//! * **Panic quarantine** — a worker panic inside a subtree replay (an
//!   object bug, a fail-closed `validate_race` diagnostic, a fiber
//!   sentinel escape) retries with deterministic backoff, then
//!   quarantines the subtree into a replayable poisoned-task report
//!   while the rest of the frontier completes; the outcome is marked
//!   `partial` with `quarantined`/`retried` telemetry, so a
//!   quarantined run can never read as a false PASS.
//! * **Budgets + drain** — `sim::CheckpointPolicy` carries a
//!   wall-clock deadline and a schedule-count budget; on expiry the
//!   run drains to a clean checkpoint and returns a resumable partial
//!   outcome instead of being killed mid-flight.
//! * **Fault injection** — `sim::FaultPlan` (or the
//!   `SL_FAULT_POINT`/`SL_FAULT_NTH`/`SL_FAULT_MODE` environment)
//!   deterministically crashes one named point (task freeze, steal,
//!   join-merge, checkpoint write mid-file, resume parse); the CI
//!   `sim-resume` lane drives every point plus an out-of-process
//!   SIGKILL through interrupt + resume and gates bit-identity at
//!   1/2/4/8 workers, with checkpoint overhead gated at ≤ ~5% on the
//!   deep mixed-role workload.
//!
//! ## Depth budgets
//!
//! What exhausts where, after the parallel-DPOR + world-reuse +
//! zero-format-trace work (Algorithm-2 family; schedule counts are
//! exact — the explorer is deterministic at any worker count;
//! wall-clocks measured at 1 worker on the reference container, so
//! multi-core runners divide the deep rows further; *DPOR* = syntactic
//! source DPOR, *value* = value-aware default, *static* = value +
//! placement certificate, *optimal* = wakeup sequences + observer
//! rule, *+op-pair* = optimal with the version-2 per-op-pair
//! commutation matrix installed — gated counts where pinned, "—"
//! where not measured):
//!
//! | Workload | Schedules (DPOR) | Schedules (value) | Schedules (static) | Schedules (optimal) | Schedules (+op-pair) | Tier |
//! |---|---|---|---|---|---|---|
//! | 2 procs: 1 DWrite vs 1 DRead | 17 | 17 | 14 | 10 | 10 | tier-1 (ms) |
//! | 3 procs: 2 writers + 1 reader, 1 op each | 2,746 | 2,242 | 1,232 | 660 | 598 | tier-1 (ms) |
//! | 2 procs: 2 DWrites vs 2 DReads | 7,228 | 7,228 | 4,978 | 3,108 | 3,108 | tier-1 (<1 s debug, was ~5 s) |
//! | 3 procs mixed: writers 2+1 ops, reader 1 op | 204,257 | 179,697 | 79,502 | 26,638 | 23,888 | sim-deep (~4 s release, was ~10 s) |
//! | 2 procs: 3 DWrites vs 2 DReads | 240,239 | 240,239 | — | — | — | sim-deep (~6 s release, was ~15 s) |
//! | 3 procs: 2 ops per process (writers) | 2,752,674 | 2,752,674 | — | — | — | sim-deep (~37 s release at 1 worker, was ~1–2 min; under 30 s at ≥2 workers) |
//! | 3 procs: 2 ops per process, mixed roles | ≫ millions | ~0.85× of DPOR | ~0.4–0.5× of value (extrapolated) | ~0.3× of static (extrapolated) | — | beyond budget today |
//!
//! The sim-deep and beyond-budget tiers are now checkpointed: each
//! can run under `explore_resumable`, drain at a schedule budget or
//! deadline, and be resumed later — in another process, or after a
//! crash — with the final union bit-identical to one uninterrupted
//! run (the measured checkpoint overhead on the deep mixed-role row
//! is gated at ≤ ~5%).
//!
//! The op-pair column moves only where mixed-role contention gives the
//! pair relaxations room (two ops of the same unordered pair pausing
//! against each other, or value-equal writes under a marked step):
//! the pure writer/reader pins are already at the value-commutation
//! fixpoint. The two mixed-role deltas are gated as strict
//! improvements over the frozen pre-pair floors.
//!
//! Deep explorations stream transcripts into `check::DagBuilder` (a
//! hash-consed DAG: the 3-procs-×-2-ops prefix tree would hold ~17M
//! nodes; its DAG holds ~7k unique shapes in a few hundred MB of
//! explorer state) and decide with
//! `check::check_strongly_linearizable_dag`, whose exact
//! `(subtree shape, linearization residue)` memo table turns the
//! exponential search into milliseconds at these depths.
//!
//! See `examples/` for runnable scenarios (ABA detection, adversary
//! bias, universal construction, model checking) and the `sl-bench`
//! crate for the experiment binaries that regenerate `EXPERIMENTS.md`.

#![deny(unsafe_code)]

pub use sl_api as api;
pub use sl_check as check;
pub use sl_core as core;
pub use sl_mem as mem;
pub use sl_sim as sim;
pub use sl_snapshot as snapshot;
pub use sl_spec as spec;
pub use sl_universal as universal;

/// The most commonly used items, for glob import.
///
/// The unified `sl-api` surface (builder, traits, guarantee markers)
/// plus the concrete types, backends, simulator, and checkers. The
/// pre-`sl-api` rename shims (`sl_snapshot::LinSnapshot`,
/// `sl_core::View`) have been removed after their one-release grace
/// period; use `SnapshotSubstrate` / `SeqView`.
pub mod prelude {
    pub use sl_api::{
        AbaOps, Afek, AtomicR, BoundedHandshake, CounterOps, DoubleCollect, Guarantee, Lin,
        LinSnap, MaxRegisterOps, ObjectBuilder, ObjectHandle, SharedObject, SnapshotOps, Strong,
        StrongGuarantee, Substrate, UniversalOps, Versioned, VersionedSnapshotOps, View,
    };
    pub use sl_check::{check_linearizable, check_strongly_linearizable, HistoryTree};
    pub use sl_core::aba::{AwAbaRegister, SlAbaRegister};
    pub use sl_core::{BoundedMaxRegister, SlCounter, SlSnapshot, SnapshotMaxRegister};
    pub use sl_mem::{Mem, NativeMem, Register, SmallRng};
    pub use sl_sim::{EventLog, Scheduler, SeededRandom, SimWorld};
    pub use sl_snapshot::{AfekSnapshot, DoubleCollectSnapshot, SnapshotSubstrate};
    pub use sl_spec::{History, ProcId, SeqSpec};
    pub use sl_universal::{SimpleType, Universal};
}
