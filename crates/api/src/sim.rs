//! Model checking any built object under the schedule explorer.
//!
//! The builder constructs objects; this module runs them. Give
//! [`explore_object`] a factory (a closure building the object on a
//! fresh `SimMem` — typically an [`crate::ObjectBuilder`] chain), a
//! per-process workload of sequential-spec operations, a closure
//! applying one operation to a handle (`|h, op| h.drive(op)` for every
//! builder family, see [`DriveOps`]), and an [`SimExplore`] budget; it
//! enumerates adversary schedules on the step VM with value-aware
//! source-set DPOR pruning, streams every transcript into hash-consed
//! per-subtree DAG shards, and hands back their merge as an
//! [`Explored`] ready for `sl_check`'s memoised strong-lin checker:
//!
//! ```
//! use sl_api::sim::{explore_object, DriveOps as _, SimExplore};
//! use sl_api::ObjectBuilder;
//! use sl_spec::types::AbaSpec;
//! use sl_spec::AbaOp;
//!
//! // Theorem 12, bounded: Algorithm 2 is strongly linearizable over
//! // every schedule of one DWrite and one DRead.
//! let explored = explore_object::<AbaSpec<u64>, _, _, _>(
//!     |mem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>(),
//!     &[vec![AbaOp::DWrite(9)], vec![AbaOp::DRead]],
//!     |h, op| h.drive(op),
//!     &SimExplore::default(),
//!     None,
//! );
//! assert!(explored.outcome.exhausted);
//! assert!(explored.check_strong(&AbaSpec::<u64>::new(2)).holds);
//! ```
//!
//! [`explore_object_distributed`] runs the same exploration with
//! subtree tasks farmed to worker processes, whose serve loop is
//! [`serve_object_worker`].

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use sl_check::{check_strongly_linearizable_dag, DagShards, StrongLinReport, TreeDag, TreeStep};
use sl_dist::{DistCoordinator, FleetConfig, WireSpec};
use sl_mem::Value;
use sl_sim::{
    EventLog, ExploreOutcome, Explorer, ProcCtx, Program, PruneMode, ReplayPool, ResumeSession,
    RunOutcome, ScheduleDriver, Scheduler, Sharded, SimMem, SimWorld, StaticConflicts,
};
use sl_spec::types::{AbaSpec, CounterSpec, MaxRegisterSpec, SnapshotSpec};
use sl_spec::{
    AbaOp, AbaResp, CounterOp, CounterResp, History, MaxRegisterOp, MaxRegisterResp, ProcId,
    SeqSpec, SnapshotOp, SnapshotResp,
};

use crate::object::{AbaOps, CounterOps, MaxRegisterOps, ObjectHandle, SharedObject, SnapshotOps};

/// Drives a handle with operations of a sequential specification —
/// the bridge between the spec-level workloads the checker understands
/// and the per-family operation traits handles implement.
///
/// Blanket-implemented for every family's handles, so their apply
/// closure is `|h, op| h.drive(op)`; objects whose operations do not
/// map onto a spec this way (e.g. the universal construction, whose op
/// type belongs to its `SimpleType`) pass their own apply closure to
/// the exploration entry points instead.
pub trait DriveOps<S: SeqSpec>: ObjectHandle {
    /// Executes `op` on the object and returns its response.
    fn drive(&mut self, op: &S::Op) -> S::Resp;
}

impl<V, H> DriveOps<SnapshotSpec<V>> for H
where
    V: Value + Eq + std::hash::Hash,
    H: SnapshotOps<V>,
{
    fn drive(&mut self, op: &SnapshotOp<V>) -> SnapshotResp<V> {
        match op {
            SnapshotOp::Update(v) => {
                self.update(v.clone());
                SnapshotResp::Ack
            }
            SnapshotOp::Scan => SnapshotResp::View(self.scan().into_vec()),
        }
    }
}

impl<H: CounterOps> DriveOps<CounterSpec> for H {
    fn drive(&mut self, op: &CounterOp) -> CounterResp {
        match op {
            CounterOp::Inc => {
                self.inc();
                CounterResp::Ack
            }
            CounterOp::Read => CounterResp::Value(self.read()),
        }
    }
}

impl<H: MaxRegisterOps> DriveOps<MaxRegisterSpec> for H {
    fn drive(&mut self, op: &MaxRegisterOp) -> MaxRegisterResp {
        match op {
            MaxRegisterOp::MaxWrite(v) => {
                self.max_write(*v);
                MaxRegisterResp::Ack
            }
            MaxRegisterOp::MaxRead => MaxRegisterResp::Value(self.max_read()),
        }
    }
}

impl<V, H> DriveOps<AbaSpec<V>> for H
where
    V: Value + Copy + Eq + std::hash::Hash,
    H: AbaOps<V>,
{
    fn drive(&mut self, op: &AbaOp<V>) -> AbaResp<V> {
        match op {
            AbaOp::DWrite(v) => {
                self.dwrite(*v);
                AbaResp::Ack
            }
            AbaOp::DRead => {
                let (v, flag) = self.dread();
                AbaResp::Value(v, flag)
            }
        }
    }
}

/// Budgets and knobs of one object exploration.
#[derive(Clone, Debug)]
pub struct SimExplore {
    /// Stop after this many executed schedules.
    pub max_runs: usize,
    /// Partial-order reduction level (default: value-aware source-set
    /// DPOR, [`PruneMode::ValueDpor`]).
    pub mode: PruneMode,
    /// Worker threads replaying schedules in parallel. The explorer
    /// partitions the schedule tree into delegated subtrees and is
    /// deterministic at any count; defaults to the `SL_EXPLORE_THREADS`
    /// environment variable (`0` = one per CPU, unset = 1).
    pub workers: usize,
    /// Per-run shared-memory step budget.
    pub step_budget: u64,
    /// Initial decision prefix: explore only schedules extending it.
    pub stem: Vec<usize>,
    /// Static conflict certificate: required by
    /// [`PruneMode::StaticDpor`], optionally consulted by
    /// [`PruneMode::OptimalDpor`], ignored by other modes. Licenses the
    /// invocation-placement relaxation and fail-closed-validates every
    /// observed race.
    pub statics: Option<Arc<StaticConflicts>>,
}

impl Default for SimExplore {
    fn default() -> Self {
        SimExplore {
            max_runs: 200_000,
            mode: PruneMode::default(),
            workers: sl_sim::env_workers(),
            step_budget: 10_000,
            stem: Vec::new(),
            statics: None,
        }
    }
}

impl SimExplore {
    /// The explorer these budgets configure.
    fn explorer(&self) -> Explorer {
        Explorer {
            max_runs: self.max_runs,
            mode: self.mode,
            workers: self.workers,
            stem: self.stem.clone(),
            statics: self.statics.clone(),
        }
    }
}

/// The result of exploring one object: the hash-consed DAG of every
/// explored transcript plus the exploration statistics.
pub struct Explored<S: SeqSpec> {
    /// Hash-consed DAG over all explored transcripts — the set strong
    /// linearizability quantifies over. **Symbolized exactly when
    /// `fleet` is `Some`**: a distributed run merges shards from several
    /// processes into one label space, so compare its structural hash
    /// against an in-process run's `dag.symbolize()`.
    pub dag: TreeDag<S>,
    /// Runs, exhaustion, pruning statistics — identical at any worker
    /// thread or process count.
    pub outcome: ExploreOutcome,
    /// Coordinator counters of a distributed run
    /// ([`explore_object_distributed`]); `None` in-process.
    pub fleet: Option<DistTelemetry>,
}

impl<S: SeqSpec> Explored<S> {
    /// Decides strong linearizability of the explored transcript set
    /// with the memoised DAG checker.
    pub fn check_strong(&self, spec: &S) -> StrongLinReport {
        check_strongly_linearizable_dag(spec, &self.dag)
    }
}

/// One simulated run of an object workload under a given scheduler.
pub struct SimRun<S: SeqSpec> {
    /// The raw run outcome (trace, decisions, step counts).
    pub outcome: RunOutcome,
    /// The recorded high-level history.
    pub history: History<S>,
    /// The full transcript (events + internal steps).
    pub transcript: Vec<TreeStep<S>>,
    /// Human-readable transcript with allocation sites.
    pub pretty: Vec<String>,
}

fn programs_for<S, O, A>(
    obj: &O,
    log: &EventLog<S>,
    workload: &[Vec<S::Op>],
    apply: &Arc<A>,
) -> Vec<Program>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    workload
        .iter()
        .enumerate()
        .map(|(pid, ops)| {
            let mut handle = obj.handle(ProcId(pid));
            let log = log.clone();
            let ops = ops.clone();
            let apply = Arc::clone(apply);
            Box::new(move |ctx: ProcCtx| {
                for op in &ops {
                    // The adversary schedules the invocation itself.
                    ctx.pause();
                    let id = log.invoke(ctx.proc_id(), op.clone());
                    let resp = apply(&mut handle, op);
                    log.respond(id, resp);
                }
            }) as Program
        })
        .collect()
}

/// Runs one schedule of `workload` against a freshly built object,
/// recording everything (used by the fuzzer; exploration uses
/// [`explore_object`]). The object is built by `factory` on the fresh
/// world's memory; `apply` maps spec operations onto the handle.
pub fn run_object_schedule_with<S, O, F, A>(
    factory: &F,
    workload: &[Vec<S::Op>],
    apply: &Arc<A>,
    scheduler: &mut dyn Scheduler,
    step_budget: u64,
) -> SimRun<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let world = SimWorld::new(workload.len());
    let mem = world.mem();
    let obj = factory(&mem);
    let log: EventLog<S> = EventLog::new(&world);
    let programs = programs_for(&obj, &log, workload, apply);
    let outcome = world.run(programs, scheduler, step_budget);
    let history = log.history();
    let transcript = log.transcript(&outcome);
    let pretty = log.pretty_transcript(&outcome);
    SimRun {
        outcome,
        history,
        transcript,
        pretty,
    }
}

/// One worker's warm replay state: a world (registers, the object under
/// test, the event log) built once and reset between schedules —
/// [`ReplayPool`] owns the reset/replay/recycle ordering; this adds the
/// object. Replays re-execute the workload's programs (cheap closures
/// over the same handles) on warm fiber stacks and recycled trace
/// buffers instead of building a fresh world per schedule.
struct PooledWorld<S: SeqSpec, O> {
    pool: ReplayPool<S>,
    obj: O,
}

/// Shard sinks are locked only to push or hash finished shards, which
/// cannot panic, so a poisoned sink is a bug.
const POISONED: &str = "shard sink poisoned";

/// A worker's replay context: its warm world plus the per-subtree DAG
/// shards its transcripts stream into.
type ObjectCtx<'s, S, O> = Sharded<'s, S, PooledWorld<S, O>>;

/// What every exploration of an object replays — factory, workload,
/// apply closure, step budget — shared by all worker threads.
struct ObjectRun<'w, S: SeqSpec, F, A> {
    factory: F,
    workload: &'w [Vec<S::Op>],
    apply: Arc<A>,
    step_budget: u64,
}

impl<'w, S, O, F, A> ObjectRun<'w, S, F, A>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O + Sync,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    fn new(factory: F, workload: &'w [Vec<S::Op>], apply: A, step_budget: u64) -> Self {
        assert!(
            !workload.is_empty(),
            "workload must cover at least one process"
        );
        ObjectRun {
            factory,
            workload,
            apply: Arc::new(apply),
            step_budget,
        }
    }

    /// A fresh worker context whose finished shards land in `sink`.
    fn ctx<'s>(&self, sink: &'s Mutex<Vec<TreeDag<S>>>) -> ObjectCtx<'s, S, O> {
        let world = SimWorld::new(self.workload.len());
        let obj = (self.factory)(&world.mem());
        Sharded {
            inner: PooledWorld {
                pool: ReplayPool::new(world),
                obj,
            },
            shards: DagShards::new(sink),
        }
    }

    /// Runs one schedule and streams its transcript into the open
    /// shard. Each subtree the explorer hands a worker is ingested in
    /// depth-first order; [`TreeDag::merge`] unions the shards after.
    fn replay(&self, ctx: &mut ObjectCtx<'_, S, O>, driver: &mut ScheduleDriver) {
        let PooledWorld { pool, obj } = &mut ctx.inner;
        pool.replay(
            |log| programs_for(obj, log, self.workload, &self.apply),
            driver,
            self.step_budget,
        );
        ctx.shards.ingest(pool.transcript());
    }
}

/// Explores every adversary schedule of `workload` (within the budgets
/// of `cfg`, on `cfg.workers` threads) against the object built by
/// `factory`, with `apply` executing one operation on a handle. See the
/// module docs for an example.
///
/// With `resume: Some(session)` the exploration is crash-resilient: the
/// explorer periodically snapshots its outstanding-task frontier into
/// `session.store` and, when a checkpoint already exists there, resumes
/// from it instead of starting over. The union of an interrupted run's
/// DAG and the resumed run's DAG is bit-identical (structural hash,
/// verdict, conflict depth) to the uninterrupted exploration at any
/// worker count — see `crates/api/tests/resume_dag.rs` for the gate.
/// Checkpoints record the sorted hashes of the shards flushed so far as
/// audit metadata, but resume validation always runs with
/// `expected_shards = None`: the drain checkpoint is written inside the
/// root's subtree bracket while shards flush at `subtree_end`, so the
/// drain-time hashes lag the post-drain on-disk DAG by design. The
/// identity gate is the merged-union structural hash, not per-shard
/// equality. Fail-closed: panics (like [`Explorer::explore_resumable`])
/// on any torn, stale, or doctored checkpoint, and on a checkpoint taken
/// under a different `cfg.mode` or worker count.
pub fn explore_object<S, O, F, A>(
    factory: F,
    workload: &[Vec<S::Op>],
    apply: A,
    cfg: &SimExplore,
    resume: Option<&ResumeSession<'_>>,
) -> Explored<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O + Sync,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let run = ObjectRun::new(factory, workload, apply, cfg.step_budget);
    let sink = Mutex::new(Vec::new());
    let new_ctx = || run.ctx(&sink);
    let replay =
        |ctx: &mut ObjectCtx<'_, S, O>, driver: &mut ScheduleDriver| run.replay(ctx, driver);
    let outcome = match resume {
        None => cfg.explorer().explore_with(new_ctx, replay),
        Some(session) => {
            let shard_snapshot = || TreeDag::shard_hashes(&sink.lock().expect(POISONED));
            let session = ResumeSession {
                store: session.store,
                policy: session.policy.clone(),
                fault: session.fault.clone(),
                expected_shards: None,
                shard_hashes: Some(&shard_snapshot),
            };
            cfg.explorer().explore_resumable(new_ctx, replay, &session)
        }
    };
    Explored {
        dag: TreeDag::merge(sink.into_inner().expect(POISONED)),
        outcome,
        fleet: None,
    }
}

/// Fleet telemetry of one distributed exploration — the coordinator's
/// counters, snapshotted after the run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DistTelemetry {
    /// Task frames written to workers (including re-leases).
    pub dispatched: u64,
    /// Results accepted from workers.
    pub completed: u64,
    /// Leases revoked (missed deadline, torn frame, checksum failure,
    /// dead pipe, nonzero exit).
    pub revoked: u64,
    /// Subtrees quarantined after the retry budget — the outcome is
    /// `partial` whenever this is nonzero.
    pub quarantined: u64,
    /// Dispatches declined (fleet busy or degraded): ran in-process.
    pub declined: u64,
    /// Workers killed by the fault-matrix hook.
    pub chaos_kills: u64,
    /// Whether the run fell back to pure in-process exploration
    /// because no worker could be spawned.
    pub degraded: bool,
}

/// [`explore_object`], with subtree tasks farmed to a fleet of worker
/// *processes* (see [`sl_dist`]): the explorer's worker threads offer
/// every frozen subtree to the lease-based coordinator, which either
/// returns the subtree's result from a worker process or declines
/// (fleet busy, or degraded after a spawn failure), in which case the
/// subtree runs in-process. Either way the merged run is bit-identical
/// to the in-process one — same verdict, conflict depth, counters, and
/// merged-DAG structural hash — or honestly `partial` through the
/// quarantine path. Never a false PASS.
///
/// A separate function rather than an option of [`explore_object`]
/// because shards cross the process boundary on the wire, which needs
/// `S: WireSpec`; one generic entry point would forbid every spec
/// without a codec.
///
/// `workload_name` pins the fleet's identity: the worker binary (see
/// [`serve_object_worker`]) must `hello` with the same name and prune
/// mode or the coordinator refuses it fail-closed. The explorer always
/// runs with at least two threads — subtree tasks are only published
/// when there is someone to share them with.
pub fn explore_object_distributed<S, O, F, A>(
    factory: F,
    workload: &[Vec<S::Op>],
    apply: A,
    cfg: &SimExplore,
    fleet: FleetConfig,
    workload_name: &str,
) -> Explored<S>
where
    S: WireSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O + Sync,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let run = ObjectRun::new(factory, workload, apply, cfg.step_budget);
    let local_sink = Mutex::new(Vec::new());
    let remote_sink = Mutex::new(Vec::new());
    let coordinator = DistCoordinator::new(fleet, workload_name, cfg.mode.name(), &remote_sink);
    let explorer = Explorer {
        // Tasks are only frozen for sharing when a sibling thread could
        // steal them; a single-threaded explorer would never dispatch.
        workers: cfg.workers.max(2),
        ..cfg.explorer()
    };
    let outcome = explorer.explore_dispatched(
        || run.ctx(&local_sink),
        |ctx, driver| run.replay(ctx, driver),
        &coordinator,
    );
    coordinator.finish();
    let fleet = DistTelemetry {
        dispatched: coordinator.stats.dispatched.load(Ordering::SeqCst),
        completed: coordinator.stats.completed.load(Ordering::SeqCst),
        revoked: coordinator.stats.revoked.load(Ordering::SeqCst),
        quarantined: coordinator.stats.quarantined.load(Ordering::SeqCst),
        declined: coordinator.stats.declined.load(Ordering::SeqCst),
        chaos_kills: coordinator.stats.chaos_kills.load(Ordering::SeqCst),
        degraded: coordinator.is_degraded(),
    };
    drop(coordinator); // releases the borrow of `remote_sink`
                       // Local shards are packed (process-local step codes); remote shards
                       // arrived symbolized. Symbolize the local ones so the merge dedupes
                       // across the process boundary — one label space for the whole DAG.
    let shards: Vec<TreeDag<S>> = local_sink
        .into_inner()
        .expect(POISONED)
        .into_iter()
        .map(|d| d.symbolize())
        .chain(remote_sink.into_inner().expect(POISONED))
        .collect();
    Explored {
        dag: TreeDag::merge(shards),
        outcome,
        fleet: Some(fleet),
    }
}

/// The worker-process half of [`explore_object_distributed`]: a serve
/// loop a worker `main` calls with the *same* factory, workload, apply
/// closure, and exploration config the coordinator uses. Each leased
/// task is thawed and explored in-process; the reply carries the
/// subtree's counters plus its symbolized DAG shard.
pub fn serve_object_worker<S, O, F, A>(
    workload_name: &str,
    factory: F,
    workload: &[Vec<S::Op>],
    apply: A,
    cfg: &SimExplore,
) -> Result<(), String>
where
    S: WireSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O + Sync,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let run = ObjectRun::new(factory, workload, apply, cfg.step_budget);
    let explorer = cfg.explorer();
    sl_dist::serve::<S, _>(workload_name, cfg.mode.name(), |task| {
        let sink = Mutex::new(Vec::new());
        let result = explorer.explore_frozen_task(
            || run.ctx(&sink),
            |ctx, driver| run.replay(ctx, driver),
            task,
        );
        (
            result,
            TreeDag::merge(sink.into_inner().expect(POISONED)).symbolize(),
        )
    })
}
