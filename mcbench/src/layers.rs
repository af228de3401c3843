//! Outside-in layer accounting: the benchmark times its own calls into
//! each layer's public functions, and nothing inside the program.
//!
//! * **sl-sim VM** — `ReplayPool::replay`, minus the driver time spent
//!   inside it.
//! * **sl-sim explorer/DPOR** — `ScheduleDriver::pick`/`run_end`
//!   through [`TimedScheduler`]; the explorer's own bookkeeping is its
//!   self time, the remainder of `threads × explore wall` once every
//!   timed call is subtracted (at 2 threads this remainder also holds
//!   idle and steal waits).
//! * **sl-check DAG** — `DagShards::ingest/begin/end`, then
//!   `TreeDag::symbolize` and `TreeDag::merge` after exploration.
//! * **sl-check checker** — `check_strongly_linearizable_dag`.
//! * **sl-dist** — `DistCoordinator::dispatch` through
//!   [`TimedDispatcher`], and `DistCoordinator::finish` (the fleet
//!   shutdown) after exploration.
//!
//! Thread-time layers (VM, driver, ingest, dispatch, self) sum to
//! `threads × explore wall`; dividing them by the thread count and
//! adding the post-exploration layers gives the traced time to verdict.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sl_sim::{
    SchedView, ScheduleDriver, Scheduler, StaticTelemetry, TaskDispatcher, TraceItem, WireTask,
    WireTaskResult,
};

/// Per-thread accumulators of the calls made inside one explorer
/// worker; merged into the exploration's totals when the worker's
/// replay context is dropped.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadLayers {
    /// Time inside `ReplayPool::replay` (driver time included).
    pub replay: Duration,
    /// Time inside `ScheduleDriver::pick`/`run_end`.
    pub driver: Duration,
    /// Time inside `DagShards::ingest/begin/end`.
    pub ingest: Duration,
    /// `ReplayPool::replay` calls.
    pub replays: u64,
    /// Transcript steps produced by those replays.
    pub steps: u64,
    /// `pick`/`run_end` calls.
    pub picks: u64,
}

impl ThreadLayers {
    /// Adds `other`'s counts and times to `self`.
    pub fn add(&mut self, other: &ThreadLayers) {
        self.replay += other.replay;
        self.driver += other.driver;
        self.ingest += other.ingest;
        self.replays += other.replays;
        self.steps += other.steps;
        self.picks += other.picks;
    }
}

/// The benchmark's scheduler around the explorer's driver: forwards
/// every call and times it.
pub struct TimedScheduler<'a> {
    inner: &'a mut ScheduleDriver,
    /// Time spent in the driver so far.
    pub time: Duration,
    /// Calls made so far.
    pub calls: u64,
}

impl<'a> TimedScheduler<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut ScheduleDriver) -> Self {
        TimedScheduler {
            inner,
            time: Duration::ZERO,
            calls: 0,
        }
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn pick(&mut self, view: &SchedView<'_>) -> usize {
        let start = Instant::now();
        let chosen = self.inner.pick(view);
        self.time += start.elapsed();
        self.calls += 1;
        chosen
    }

    fn run_end(&mut self, trace: &[TraceItem]) {
        let start = Instant::now();
        self.inner.run_end(trace);
        self.time += start.elapsed();
        self.calls += 1;
    }
}

/// The benchmark's dispatcher around the fleet coordinator: forwards
/// every task, counts the schedules that came back from a worker
/// process, and (when traced) times how long the calling explorer
/// thread was blocked.
pub struct TimedDispatcher<'a, D: TaskDispatcher> {
    inner: &'a D,
    traced: bool,
    blocked_ns: AtomicU64,
    remote_schedules: AtomicU64,
}

impl<'a, D: TaskDispatcher> TimedDispatcher<'a, D> {
    /// Wraps `inner`; times dispatches only when `traced`.
    pub fn new(inner: &'a D, traced: bool) -> Self {
        TimedDispatcher {
            inner,
            traced,
            blocked_ns: AtomicU64::new(0),
            remote_schedules: AtomicU64::new(0),
        }
    }

    /// Thread time spent blocked in `dispatch` (0 when untraced).
    pub fn blocked(&self) -> Duration {
        Duration::from_nanos(self.blocked_ns.load(Ordering::Relaxed))
    }

    /// Schedules (runs + cut) replayed by worker processes.
    pub fn remote_schedules(&self) -> u64 {
        self.remote_schedules.load(Ordering::Relaxed)
    }
}

impl<D: TaskDispatcher> TaskDispatcher for TimedDispatcher<'_, D> {
    fn dispatch(&self, task: &WireTask) -> Option<WireTaskResult> {
        let start = self.traced.then(Instant::now);
        let result = self.inner.dispatch(task);
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.blocked_ns.fetch_add(ns, Ordering::Relaxed);
        }
        if let Some(r) = &result {
            self.remote_schedules
                .fetch_add((r.runs + r.cut_runs) as u64, Ordering::Relaxed);
        }
        result
    }
}

/// The per-layer numbers of one traced exploration (or the sum over the
/// explorations of one `paper_suite` pass). Times are seconds; the
/// thread-time layers are thread-seconds.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `ReplayPool::replay` time minus driver time (thread-seconds).
    pub vm_replay_s: f64,
    /// Replays executed in this process.
    pub vm_replays: u64,
    /// Transcript steps of those replays.
    pub vm_steps: u64,
    /// Driver `pick`/`run_end` time (thread-seconds).
    pub dpor_pick_s: f64,
    /// Driver calls.
    pub dpor_picks: u64,
    /// Explorer self time (thread-seconds): everything not spent in a
    /// timed call, idle and steal waits included.
    pub dpor_self_s: f64,
    /// Completed runs.
    pub dpor_runs: u64,
    /// Sleep-set-cut replays.
    pub dpor_cut_runs: u64,
    /// Pruned branch candidates.
    pub dpor_pruned: u64,
    /// Certificate telemetry accumulated by this exploration.
    pub statics: StaticTelemetry,
    /// `DagShards` time (thread-seconds).
    pub dag_ingest_s: f64,
    /// Shards produced (local and remote).
    pub dag_shards: u64,
    /// Unique nodes summed over the shards.
    pub dag_shard_nodes: u64,
    /// `TreeDag::merge` time.
    pub dag_merge_s: f64,
    /// Unique nodes of the merged DAG.
    pub dag_unique_nodes: u64,
    /// Nodes of the prefix tree the merged DAG represents.
    pub dag_tree_nodes: u64,
    /// `TreeDag::symbolize` time.
    pub dag_symbolize_s: f64,
    /// Checker time.
    pub check_strong_s: f64,
    /// Checker search states.
    pub check_states: u64,
    /// Checker states answered from the memo table.
    pub check_memo_hits: u64,
    /// Deepest refuted prefix (0 on PASS).
    pub check_conflict_depth: u64,
    /// Time blocked in `dispatch` (thread-seconds).
    pub dist_dispatch_s: f64,
    /// Fleet shutdown after exploration (`DistCoordinator::finish`).
    pub dist_shutdown_s: f64,
    /// Fleet telemetry: task frames written.
    pub dist_dispatched: u64,
    /// Results accepted from workers.
    pub dist_completed: u64,
    /// Dispatches declined (run in-process).
    pub dist_declined: u64,
    /// Leases revoked.
    pub dist_revoked: u64,
    /// Tasks quarantined.
    pub dist_quarantined: u64,
    /// Schedules replayed by worker processes.
    pub dist_remote_schedules: u64,
    /// The traced time to verdict: exploration wall plus the
    /// post-exploration layers (filled by the caller that timed it).
    pub ttv_s: f64,
    /// The wall-clock sum of every layer: thread-time layers divided by
    /// the thread count, plus the post-exploration layers.
    pub layer_sum_s: f64,
}

impl Layers {
    /// Adds another exploration's numbers (one `paper_suite` pass sums
    /// its three checks; the conflict depth keeps the deepest).
    pub fn add(&mut self, o: &Layers) {
        self.vm_replay_s += o.vm_replay_s;
        self.vm_replays += o.vm_replays;
        self.vm_steps += o.vm_steps;
        self.dpor_pick_s += o.dpor_pick_s;
        self.dpor_picks += o.dpor_picks;
        self.dpor_self_s += o.dpor_self_s;
        self.dpor_runs += o.dpor_runs;
        self.dpor_cut_runs += o.dpor_cut_runs;
        self.dpor_pruned += o.dpor_pruned;
        self.statics.relaxed += o.statics.relaxed;
        self.statics.validated += o.statics.validated;
        self.statics.unattributed += o.statics.unattributed;
        self.dag_ingest_s += o.dag_ingest_s;
        self.dag_shards += o.dag_shards;
        self.dag_shard_nodes += o.dag_shard_nodes;
        self.dag_merge_s += o.dag_merge_s;
        self.dag_unique_nodes += o.dag_unique_nodes;
        self.dag_tree_nodes += o.dag_tree_nodes;
        self.dag_symbolize_s += o.dag_symbolize_s;
        self.check_strong_s += o.check_strong_s;
        self.check_states += o.check_states;
        self.check_memo_hits += o.check_memo_hits;
        self.check_conflict_depth = self.check_conflict_depth.max(o.check_conflict_depth);
        self.dist_dispatch_s += o.dist_dispatch_s;
        self.dist_shutdown_s += o.dist_shutdown_s;
        self.dist_dispatched += o.dist_dispatched;
        self.dist_completed += o.dist_completed;
        self.dist_declined += o.dist_declined;
        self.dist_revoked += o.dist_revoked;
        self.dist_quarantined += o.dist_quarantined;
        self.dist_remote_schedules += o.dist_remote_schedules;
        self.ttv_s += o.ttv_s;
        self.layer_sum_s += o.layer_sum_s;
    }
}
