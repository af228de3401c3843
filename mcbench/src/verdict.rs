//! One exploration, start to verdict: explore the schedule space of an
//! object workload with optimal DPOR, stream transcripts into DAG
//! shards, merge them and decide strong linearizability.
//!
//! This is the path a user of the checker waits on. It is assembled
//! here from the layers' public functions, rather than taken from the
//! `sl-api` convenience wrappers, so that every call into a layer
//! passes through the benchmark and can be timed from outside (see
//! [`crate::layers`]). Untraced explorations make the same calls with
//! no timing around them.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sl_api::sim::DriveOps;
use sl_api::SharedObject;
use sl_check::{check_strongly_linearizable_dag, DagShards, TreeDag};
use sl_sim::{
    CheckpointPolicy, CheckpointStore, EventLog, ExploreOutcome, Explorer, Program, PruneMode,
    ReplayCtx, ReplayPool, ResumeSession, ScheduleDriver, SimMem, SimWorld, StaticConflicts,
    StaticTelemetry, TaskDispatcher,
};
use sl_spec::{ProcId, SeqSpec};

use crate::layers::{Layers, ThreadLayers, TimedScheduler};

/// Exploration budget: far above every pinned workload, so exhaustion
/// is decided by the schedule space, never by the cap.
pub const MAX_RUNS: usize = 4_000_000;

/// How an exploration is run.
pub enum Backend<'a> {
    /// `Explorer::explore_with` on this many threads.
    Threads(usize),
    /// `Explorer::explore_resumable` on one thread with the default
    /// checkpoint policy, checkpointing into the store.
    Resumable(&'a CheckpointStore),
    /// `Explorer::explore_dispatched` on two threads, offering every
    /// frozen subtree to the dispatcher.
    Dispatched(&'a dyn TaskDispatcher),
}

impl Backend<'_> {
    /// Explorer threads this backend runs.
    pub fn threads(&self) -> usize {
        match self {
            Backend::Threads(n) => (*n).max(1),
            Backend::Resumable(_) => 1,
            // The dispatching explorer only publishes tasks when a
            // sibling thread could take them.
            Backend::Dispatched(_) => 2,
        }
    }
}

/// One exploration job.
pub struct Job<'a, S: SeqSpec> {
    /// One op list per process.
    pub ops: &'a [Vec<S::Op>],
    /// Per-run shared-memory step budget.
    pub step_budget: u64,
    /// Optional placement certificate.
    pub statics: Option<&'a Arc<StaticConflicts>>,
    /// Threads, checkpointing or fleet.
    pub backend: Backend<'a>,
}

/// An explored schedule space, before the verdict.
pub struct Explored<S: SeqSpec> {
    /// Explorer counters.
    pub outcome: ExploreOutcome,
    /// The DAG shards the local explorer threads produced.
    pub shards: Vec<TreeDag<S>>,
    /// Wall clock of the exploration call.
    pub explore_s: f64,
    /// Per-layer numbers so far (traced explorations only).
    pub layers: Option<Layers>,
}

/// The outcome of one exploration, start to verdict.
pub struct Verdict {
    /// Explorer counters.
    pub outcome: ExploreOutcome,
    /// Whether strong linearizability holds on the explored set.
    pub holds: bool,
    /// Depth of the deepest refuted prefix (0 on PASS).
    pub conflict_depth: usize,
    /// Unique nodes of the merged DAG.
    pub unique_nodes: usize,
    /// Structural hash of the merged DAG.
    pub hash: u64,
    /// Wall clock of the exploration call.
    pub explore_s: f64,
    /// Per-layer numbers (traced explorations only).
    pub layers: Option<Layers>,
}

/// The programs of one replay: each process runs its ops in order, the
/// adversary scheduling every invocation (a pause before each op).
fn programs<S, O>(obj: &O, log: &EventLog<S>, ops: &[Vec<S::Op>]) -> Vec<Program>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<S>,
{
    ops.iter()
        .enumerate()
        .map(|(pid, ops)| {
            let mut handle = obj.handle(ProcId(pid));
            let log = log.clone();
            let ops = ops.clone();
            Box::new(move |ctx: sl_sim::ProcCtx| {
                for op in &ops {
                    ctx.pause();
                    let id = log.invoke(ctx.proc_id(), op.clone());
                    let resp = handle.drive(op);
                    log.respond(id, resp);
                }
            }) as Program
        })
        .collect()
}

/// One explorer worker's replay state: a warm world with the object
/// under test, the worker's DAG shard stack and, when traced, its layer
/// accumulators (flushed into the exploration's totals on drop).
struct Ctx<'s, S: SeqSpec, O> {
    pool: ReplayPool<S>,
    obj: O,
    shards: DagShards<'s, S>,
    layers: Option<ThreadLayers>,
    totals: &'s Mutex<ThreadLayers>,
}

impl<S: SeqSpec, O> Ctx<'_, S, O> {
    fn timed_shards(&mut self, f: impl FnOnce(&mut DagShards<'_, S>)) {
        match &mut self.layers {
            None => f(&mut self.shards),
            Some(layers) => {
                let start = Instant::now();
                f(&mut self.shards);
                layers.ingest += start.elapsed();
            }
        }
    }
}

impl<S: SeqSpec, O> ReplayCtx for Ctx<'_, S, O> {
    fn subtree_begin(&mut self) {
        self.timed_shards(|s| s.begin());
    }

    fn subtree_end(&mut self) {
        self.timed_shards(|s| s.end());
    }
}

impl<S: SeqSpec, O> Drop for Ctx<'_, S, O> {
    fn drop(&mut self) {
        if let (Some(layers), Ok(mut totals)) = (self.layers.take(), self.totals.lock()) {
            totals.add(&layers);
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Explores `job` against the object `factory` builds (one per worker
/// thread), leaving the verdict to [`decide`].
pub fn explore<S, O, F>(factory: F, job: &Job<'_, S>, traced: bool) -> Explored<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<S>,
    F: Fn(&SimMem) -> O + Sync,
{
    let n = job.ops.len();
    let threads = job.backend.threads();
    let explorer = Explorer {
        max_runs: MAX_RUNS,
        mode: PruneMode::OptimalDpor,
        workers: threads,
        stem: Vec::new(),
        statics: job.statics.cloned(),
    };
    let sink: Mutex<Vec<TreeDag<S>>> = Mutex::new(Vec::new());
    let totals = Mutex::new(ThreadLayers::default());
    let new_ctx = || {
        let world = SimWorld::new(n);
        let obj = factory(&world.mem());
        Ctx {
            pool: ReplayPool::new(world),
            obj,
            shards: DagShards::new(&sink),
            layers: traced.then(ThreadLayers::default),
            totals: &totals,
        }
    };
    let (ops, budget) = (job.ops, job.step_budget);
    let runner = |ctx: &mut Ctx<'_, S, O>, driver: &mut ScheduleDriver| {
        let Ctx {
            pool,
            obj,
            shards,
            layers,
            ..
        } = ctx;
        let build = |log: &EventLog<S>| programs(&*obj, log, ops);
        match layers {
            None => {
                pool.replay(build, driver, budget);
                shards.ingest(pool.transcript());
            }
            Some(layers) => {
                let start = Instant::now();
                let mut timed = TimedScheduler::new(driver);
                pool.replay(build, &mut timed, budget);
                let replayed = Instant::now();
                shards.ingest(pool.transcript());
                layers.ingest += replayed.elapsed();
                layers.replay += replayed - start;
                layers.driver += timed.time;
                layers.picks += timed.calls;
                layers.replays += 1;
                layers.steps += pool.transcript().len() as u64;
            }
        }
    };
    let statics_before = job.statics.map(|s| s.telemetry());
    if let Backend::Resumable(store) = job.backend {
        // A fresh exploration: never continue an earlier one's frontier.
        store.clear();
    }
    let start = Instant::now();
    let outcome = match job.backend {
        Backend::Threads(_) => explorer.explore_with(new_ctx, runner),
        Backend::Resumable(store) => {
            // Checkpoints record the hashes of the shards flushed so far,
            // as the resumable object API does.
            let shard_hashes = || TreeDag::shard_hashes(&sink.lock().expect("shard sink"));
            let session = ResumeSession {
                store,
                policy: CheckpointPolicy::default(),
                fault: None,
                expected_shards: None,
                shard_hashes: Some(&shard_hashes),
            };
            explorer.explore_resumable(new_ctx, runner, &session)
        }
        Backend::Dispatched(dispatcher) => explorer.explore_dispatched(new_ctx, runner, dispatcher),
    };
    let explore_wall = start.elapsed();
    let shards = sink.into_inner().expect("shard sink");
    let layers = traced.then(|| {
        let t = totals.into_inner().expect("layer totals");
        let timed = t.replay + t.ingest;
        let statics = match (statics_before, job.statics) {
            (Some(b), Some(s)) => {
                let a = s.telemetry();
                StaticTelemetry {
                    relaxed: a.relaxed - b.relaxed,
                    validated: a.validated - b.validated,
                    unattributed: a.unattributed - b.unattributed,
                }
            }
            _ => StaticTelemetry::default(),
        };
        Layers {
            vm_replay_s: secs(t.replay.saturating_sub(t.driver)),
            vm_replays: t.replays,
            vm_steps: t.steps,
            dpor_pick_s: secs(t.driver),
            dpor_picks: t.picks,
            // Dispatch time is subtracted by the fleet caller, which
            // owns the dispatcher.
            dpor_self_s: secs(explore_wall) * threads as f64 - secs(timed),
            dpor_runs: outcome.runs as u64,
            dpor_cut_runs: outcome.cut_runs as u64,
            dpor_pruned: outcome.pruned,
            statics,
            dag_ingest_s: secs(t.ingest),
            layer_sum_s: secs(explore_wall),
            ..Layers::default()
        }
    });
    Explored {
        outcome,
        shards,
        explore_s: secs(explore_wall),
        layers,
    }
}

/// Explores `job` and decides it, for jobs whose shards are all local.
pub fn verdict<S, O, F>(
    factory: F,
    job: &Job<'_, S>,
    spec: &S,
    traced: bool,
    symbolize: bool,
) -> Verdict
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<S>,
    F: Fn(&SimMem) -> O + Sync,
{
    decide(spec, explore(factory, job, traced), Vec::new(), symbolize)
}

/// Merges the local shards (symbolized first when they meet `remote`
/// shards from worker processes) and decides strong linearizability.
pub fn decide<S: SeqSpec>(
    spec: &S,
    explored: Explored<S>,
    remote: Vec<TreeDag<S>>,
    symbolize: bool,
) -> Verdict {
    let Explored {
        outcome,
        shards,
        explore_s,
        mut layers,
    } = explored;
    if let Some(l) = &mut layers {
        l.dag_shards = (shards.len() + remote.len()) as u64;
        l.dag_shard_nodes = shards
            .iter()
            .chain(&remote)
            .map(|d| d.unique_nodes() as u64)
            .sum();
    }
    let start = Instant::now();
    let shards: Vec<TreeDag<S>> = if symbolize {
        shards
            .iter()
            .map(TreeDag::symbolize)
            .chain(remote)
            .collect()
    } else {
        shards.into_iter().chain(remote).collect()
    };
    let symbolized = Instant::now();
    let dag = TreeDag::merge(shards);
    let merged = Instant::now();
    let report = check_strongly_linearizable_dag(spec, &dag);
    let checked = Instant::now();
    if let Some(l) = &mut layers {
        l.dag_symbolize_s = secs(symbolized - start);
        l.dag_merge_s = secs(merged - symbolized);
        l.check_strong_s = secs(checked - merged);
        l.layer_sum_s += secs(checked - start);
        l.dag_unique_nodes = dag.unique_nodes() as u64;
        l.dag_tree_nodes = dag.tree_node_count();
        l.check_states = report.states_explored;
        l.check_memo_hits = report.memo_hits;
        l.check_conflict_depth = report.conflict_depth as u64;
    }
    Verdict {
        outcome,
        holds: report.holds,
        conflict_depth: report.conflict_depth,
        unique_nodes: dag.unique_nodes(),
        hash: dag.structural_hash(),
        explore_s,
        layers,
    }
}
