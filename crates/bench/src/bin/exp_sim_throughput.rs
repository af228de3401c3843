//! Step-VM throughput, explorer schedule counts, world-reuse and
//! parallel-scaling curves, and checker time.
//!
//! The experiment captures the quantities that bound exhaustive
//! model-checking depth:
//!
//! * **schedules replayed** per explorer mode (unpruned — the
//!   reference oracle, source-set DPOR, value-aware DPOR, static-certificate DPOR, and
//!   wakeup-sequence optimal DPOR) on pinned Algorithm-2 workloads —
//!   the win of partial-order reduction, of the `sl-analyze`
//!   placement-commutation certificate on top of it, and of wakeup
//!   sequences eliminating sleep-set-blocked replays on top of both;
//! * **replay throughput**: fresh-world-per-schedule vs the pooled
//!   `SimWorld::reset` path (world reuse), and the parallel scaling
//!   curve of partitioned source-DPOR at 1/2/4/8 workers (see
//!   `--threads`) — the win of this revision;
//! * **checker time** of the strong-linearizability decision over the
//!   explored transcript set, memoised vs unmemoised — the win of
//!   hash-consed subtree memoisation.
//!
//! The experiment also measures the **trace-encoding win** of the
//! zero-format pipeline: the same pooled source-DPOR exploration of the
//! pinned workload, once ingesting the binary `StepCode` transcripts
//! directly (the live pipeline) and once re-rendering every step
//! through the retired string pipeline (label decode + string-symbol
//! interning per step) — identical ingestion sinks on both sides, so
//! the ratio isolates per-step rendering cost.
//!
//! `--json PATH` writes the summary as JSON (the artifact the sim-deep
//! CI job uploads; it includes the scaling curve). `--baseline PATH`
//! compares against a recorded baseline and exits non-zero if
//!
//! * the unpruned reference oracle does not exhaust a pinned workload,
//!   or replays a different number of schedules than recorded (its
//!   count is the full interleaving count — exact, not a ceiling),
//! * the pruned explorer replays *more* schedules than recorded for a
//!   pinned workload, under syntactic source DPOR, value-aware DPOR,
//!   static-certificate DPOR, or optimal DPOR (partial-order reduction
//!   regressed),
//! * static-certificate DPOR no longer replays *strictly fewer*
//!   schedules than value-aware DPOR on the mixed-role workloads
//!   (invocation-placement pruning regressed to a no-op),
//! * optimal DPOR cuts any replay on a mixed-role workload (the
//!   wakeup-sequence guarantee is *zero* sleep-set-blocked runs), or
//!   no longer replays *strictly fewer* total schedules than
//!   static-certificate DPOR there (cut elimination regressed),
//! * optimal DPOR on a mixed-role workload no longer stays strictly
//!   below the frozen per-register-era floors (660 on `aba_mixed3`,
//!   26 638 on `aba_mixed3_deep`) — the op-pair commutation matrix
//!   stopped pruning,
//! * any dynamic race on a mixed-role workload escapes op-pair
//!   attribution (`static_unattributed` must be 0),
//! * static DPOR on a mixed-role workload validates a different number
//!   of dynamic races than recorded (`static_validated` is exact: the
//!   run is single-worker, and a race scan that skipped a concurrent
//!   step would validate fewer),
//! * the certificate catalog checked in next to the baseline is stale
//!   (regenerating it from the current probe produces different bytes)
//!   or fails the fail-closed parser,
//! * the single-worker world-reuse speedup on `aba_2w2r` falls below
//!   the recorded `min_reuse_speedup`,
//! * the binary-vs-string-format traced-replay speedup on `aba_2w2r`
//!   falls below the recorded `min_format_speedup`, or
//! * the 4-/8-worker speedups on `aba_2w2r` fall below the recorded
//!   `min_speedup_4w`/`min_speedup_8w` — each checked only on machines
//!   with at least that many CPUs (parallel wall-clock on fewer cores
//!   measures the machine, not the explorer).
//!
//! `--refresh-baseline` rewrites the baseline file from this run's
//! measurements (gate thresholds preserved) instead of hand-editing
//! the JSON, and regenerates the `certificates.json` checked in next
//! to it; `--summary-md PATH` writes a markdown before/after delta
//! table (what the sim-deep CI job posts as its step summary).
//! `--certificates PATH` writes the `sl-analyze` certificate catalog
//! (the JSON artifact sim-deep CI uploads next to the summary).
//! `--threads N` caps the scaling curve (default 8; powers of two).
//!
//! **Crash-resilient mode** (`--checkpoint-dir DIR`): instead of the
//! measurement suite, run one checkpointed optimal-DPOR exploration of
//! `--resume-workload` (default `aba_mixed3`; counts-only, workers from
//! `SL_EXPLORE_THREADS`) and print its outcome as a one-line
//! `RESUME_SUMMARY {json}`. `--resume` continues from an existing
//! checkpoint in DIR (without it any stale checkpoint is cleared);
//! `--ckpt-every N` sets the snapshot cadence in root replays,
//! `--ckpt-max-schedules N` drains after a schedule budget, and
//! `--ckpt-stall-us U` slows each replay (so the out-of-process
//! SIGKILL-and-resume test can land its kill mid-exploration).
//! `SL_FAULT_POINT`/`SL_FAULT_NTH`/`SL_FAULT_MODE` seed deterministic
//! fault injection (see `sl_sim::FaultPlan::from_env`). The resumed
//! run's summary is bit-identical to an uninterrupted one — gated by
//! `crates/bench/tests/resume_kill.rs` and the sim-resume CI lane.
//!
//! The measurement suite additionally measures **checkpoint overhead**:
//! best-of-5 interleaved pairs of plain vs checkpointed optimal-DPOR
//! explorations of `aba_mixed3_deep`; `--baseline` gates the ratio
//! against `min_ckpt_ratio` (0.95 — checkpointing may cost at most
//! ~5%).
//!
//! **Distributed mode** (`--worker-procs N`): additionally runs one
//! sequential and one distributed optimal-DPOR exploration of
//! `aba_mixed3_deep`, the latter through `sl-dist`'s lease-based
//! coordinator over N real worker *processes* (`--worker-bin PATH`
//! overrides the worker binary, default the sibling `dist_worker`).
//! Bit-identity of counters, verdict, and the merged-DAG structural
//! hash is asserted inside the measurement; `--baseline` gates the
//! sequential/distributed wall-clock ratio against `min_dist_ratio`
//! (0.2 — frame/lease/symbolization overhead may cost at most 5x;
//! real speedup needs more cores/hosts than CI offers). The sim-dist
//! CI lane runs this plus the fault-matrix identity suite
//! (`crates/bench/tests/dist_identity.rs`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sl_sim::StaticConflicts;

use sl_api::sim::{explore_object, explore_object_distributed, DriveOps as _};
use sl_api::ObjectBuilder;
use sl_bench::workloads::{aba_programs, dist_config, dist_ops, mixed3_programs, PooledAba};
use sl_bench::{baseline, print_table, Baseline, Gate};
use sl_check::{
    check_strongly_linearizable_dag, check_strongly_linearizable_unmemoised, DagBuilder, DagShards,
    HistoryTree, TreeBuilder, TreeDag, TreeStep,
};
use sl_core::aba::SlAbaRegister;
use sl_dist::FleetConfig;
use sl_mem::{Mem, Register};
use sl_sim::{
    CheckpointPolicy, CheckpointStore, EventLog, ExploreOutcome, Explorer, FaultPlan, Program,
    PruneMode, ReplayPool, ResumeSession, RoundRobin, RunConfig, ScheduleDriver, Sharded, SimWorld,
};
use sl_spec::types::AbaSpec;

type ASpec = AbaSpec<u64>;

fn workload(world: &SimWorld, steps_per_proc: u64) -> Vec<Program> {
    let mem = world.mem();
    let reg = mem.alloc("X", 0u64);
    (0..world.processes())
        .map(|_| {
            let r = reg.clone();
            Box::new(move |_ctx| {
                for _ in 0..steps_per_proc / 2 {
                    let v = r.read();
                    r.write(v + 1);
                }
            }) as Program
        })
        .collect()
}

/// Steps/second over `reps` fresh worlds of `steps_per_proc` steps per
/// process each.
fn measure(cfg: RunConfig, steps_per_proc: u64, reps: u32) -> f64 {
    let start = Instant::now();
    let mut total = 0u64;
    for _ in 0..reps {
        let world = SimWorld::new(2);
        let programs = workload(&world, steps_per_proc);
        let mut sched = RoundRobin::new();
        let out = world.run_with(programs, &mut sched, u64::MAX, cfg);
        total += out.total_steps();
    }
    total as f64 / start.elapsed().as_secs_f64()
}

fn human(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else {
        format!("{:.0}k", rate / 1e3)
    }
}

/// Schedule counts of one mixed-role pinned workload per DPOR mode.
struct MixedSummary {
    name: &'static str,
    dpor_replayed: usize,
    dpor_runs: usize,
    value_dpor_replayed: usize,
    value_dpor_runs: usize,
    static_dpor_replayed: usize,
    static_dpor_runs: usize,
    optimal_dpor_replayed: usize,
    optimal_dpor_runs: usize,
    optimal_cut: usize,
    static_relaxed: u64,
    static_validated: u64,
    static_unattributed: u64,
}

fn run_mixed_workload(
    name: &'static str,
    label: &str,
    writer_ops: &'static [u64],
    cert: &sl_analyze::Certificate,
) -> MixedSummary {
    println!();
    println!("## Pinned workload `{name}` (Algorithm 2: {label})");
    // A fresh runtime form per workload: telemetry counters accumulate
    // per `StaticConflicts` instance, and the summary reports them
    // per workload.
    let statics = &Arc::new(cert.static_conflicts());
    // Optimal mode consults the certificate through its own runtime
    // form, so the static-DPOR telemetry printed below stays
    // per-workload *and* per-mode.
    let optimal_statics = &Arc::new(cert.static_conflicts());
    let mut counts = Vec::new();
    for mode in [
        PruneMode::SourceDpor,
        PruneMode::ValueDpor,
        PruneMode::StaticDpor,
        PruneMode::OptimalDpor,
    ] {
        let explorer = Explorer {
            max_runs: 4_000_000,
            mode,
            workers: 1,
            stem: vec![],
            statics: match mode {
                PruneMode::StaticDpor => Some(Arc::clone(statics)),
                PruneMode::OptimalDpor => Some(Arc::clone(optimal_statics)),
                _ => None,
            },
        };
        let out = explorer.explore_with(
            || {
                let world = SimWorld::new(3);
                let reg = SlAbaRegister::<u64, _>::new(&world.mem(), 3);
                PooledAba {
                    pool: ReplayPool::new(world),
                    reg,
                }
            },
            |ctx: &mut PooledAba, driver| {
                let reg = &ctx.reg;
                ctx.pool
                    .replay(|log| mixed3_programs(reg, log, writer_ops), driver, 2_000);
            },
        );
        assert!(out.exhausted, "mixed-role pinned workload must exhaust");
        counts.push(out);
    }
    let rows: Vec<Vec<String>> = [
        ("source DPOR", &counts[0]),
        ("value DPOR", &counts[1]),
        ("static DPOR", &counts[2]),
        ("optimal DPOR", &counts[3]),
    ]
    .iter()
    .map(|(mode, out)| {
        vec![
            mode.to_string(),
            out.schedules_replayed().to_string(),
            out.runs.to_string(),
            out.cut_runs.to_string(),
        ]
    })
    .collect();
    print_table(&["mode", "replayed", "runs", "cut"], &rows);
    assert_eq!(
        counts[3].cut_runs, 0,
        "optimal DPOR initiated a sleep-set-blocked replay on {name}"
    );
    let t = statics.telemetry();
    println!(
        "(value-aware commutation removes {:.0}% of the mixed-role schedules; the placement \
         certificate a further {:.0}% — {} relaxations between concurrent steps, {} validated \
         races, {} unattributed, 0 unpredicted; wakeup sequences keep the optimal exploration \
         cut-free at {} replays)",
        (1.0 - counts[1].schedules_replayed() as f64 / counts[0].schedules_replayed() as f64)
            * 100.0,
        (1.0 - counts[2].schedules_replayed() as f64 / counts[1].schedules_replayed() as f64)
            * 100.0,
        t.relaxed,
        t.validated,
        t.unattributed,
        counts[3].schedules_replayed(),
    );
    MixedSummary {
        name,
        dpor_replayed: counts[0].schedules_replayed(),
        dpor_runs: counts[0].runs,
        value_dpor_replayed: counts[1].schedules_replayed(),
        value_dpor_runs: counts[1].runs,
        static_dpor_replayed: counts[2].schedules_replayed(),
        static_dpor_runs: counts[2].runs,
        optimal_dpor_replayed: counts[3].schedules_replayed(),
        optimal_dpor_runs: counts[3].runs,
        optimal_cut: counts[3].cut_runs,
        static_relaxed: t.relaxed,
        static_validated: t.validated,
        static_unattributed: t.unattributed,
    }
}

/// Pinned workload: 2-process Algorithm 2, `writes` DWrites vs `reads`
/// DReads — the family the model-check suite exhausts. The DPOR run
/// streams transcripts into both builders (the DAG is what deep checks
/// consume; the materialised tree feeds the unmemoised checker
/// oracle); the other modes only count schedules. Worlds are built
/// fresh per replay — the historical baseline the pooled path is
/// measured against.
type BuiltSets = Option<(TreeDag<ASpec>, HistoryTree<ASpec>)>;

fn explore_sl_aba_fresh(
    writes: u64,
    reads: u64,
    mode: PruneMode,
    max_runs: usize,
    statics: Option<Arc<StaticConflicts>>,
) -> (ExploreOutcome, BuiltSets, f64) {
    let ingest = mode == PruneMode::SourceDpor;
    let dag_builder: DagBuilder<ASpec> = DagBuilder::new();
    let tree_builder: TreeBuilder<ASpec> = TreeBuilder::new();
    let explorer = Explorer {
        max_runs,
        mode,
        workers: 1,
        stem: vec![],
        statics,
    };
    let start = Instant::now();
    let explored = explorer.explore(|driver: &mut ScheduleDriver| {
        let world = SimWorld::new(2);
        let mem = world.mem();
        let reg = SlAbaRegister::<u64, _>::new(&mem, 2);
        let log: EventLog<ASpec> = EventLog::new(&world);
        let programs = aba_programs(&reg, &log, writes, reads);
        let outcome = world.run_with(programs, driver, 1_000, RunConfig::traced());
        if ingest {
            let transcript = log.transcript(&outcome);
            dag_builder.ingest(&transcript);
            tree_builder.ingest(&transcript);
        }
        outcome
    });
    let elapsed = start.elapsed().as_secs_f64();
    let built = ingest.then(|| (dag_builder.finish(), tree_builder.finish()));
    (explored, built, elapsed)
}

/// Fresh-world-per-replay exploration with the *same* ingestion
/// pipeline as the pooled path (reused transcript buffer, DAG shards,
/// nothing else) — the apples-to-apples baseline the world-reuse
/// speedup is measured and gated against.
fn explore_sl_aba_fresh_dag(
    writes: u64,
    reads: u64,
    max_runs: usize,
) -> (ExploreOutcome, TreeDag<ASpec>, f64) {
    let sink: Mutex<Vec<TreeDag<ASpec>>> = Mutex::new(Vec::new());
    let explorer = Explorer {
        max_runs,
        mode: PruneMode::SourceDpor,
        workers: 1,
        stem: vec![],
        statics: None,
    };
    let start = Instant::now();
    let explored = explorer.explore_with(
        || Sharded {
            inner: Vec::new(),
            shards: DagShards::new(&sink),
        },
        |ctx: &mut Sharded<'_, ASpec, Vec<sl_check::TreeStep<ASpec>>>, driver| {
            let world = SimWorld::new(2);
            let reg = SlAbaRegister::<u64, _>::new(&world.mem(), 2);
            let log: EventLog<ASpec> = EventLog::new(&world);
            let programs = aba_programs(&reg, &log, writes, reads);
            let out = world.run_with(programs, driver, 1_000, RunConfig::traced());
            log.transcript_into(&out, &mut ctx.inner);
            ctx.shards.ingest(&ctx.inner);
        },
    );
    let elapsed = start.elapsed().as_secs_f64();
    (
        explored,
        TreeDag::merge(sink.into_inner().unwrap()),
        elapsed,
    )
}

/// Pooled source-DPOR exploration of the pinned workload at a given
/// worker count; returns the outcome, the merged DAG, and wall-clock.
fn explore_sl_aba_pooled(
    writes: u64,
    reads: u64,
    workers: usize,
    max_runs: usize,
) -> (ExploreOutcome, TreeDag<ASpec>, f64) {
    explore_sl_aba_pooled_ingest(writes, reads, workers, max_runs, false)
}

/// Re-encodes a binary transcript through the retired string pipeline:
/// per internal step, render the value into its own `String` (the
/// `format!("{v:?}")` the access closure used to run at VM time),
/// clone the register-name `Arc<str>` (as each retired `StepRecord`
/// carried), compose the label in a reused buffer, and intern the
/// label as a string symbol — the per-step rendering work every traced
/// step used to pay. (Still slightly conservative: the retired
/// pipeline additionally moved the value `String` and `Arc` through
/// the trace buffer and dropped them at recycle time.)
fn reencode_as_labels(
    steps: &[TreeStep<ASpec>],
    out: &mut Vec<TreeStep<ASpec>>,
    label: &mut String,
    names: &mut std::collections::HashMap<sl_check::RegSym, std::sync::Arc<str>>,
) {
    use std::fmt::Write;
    out.clear();
    for s in steps {
        match s {
            TreeStep::Internal(p, code) => {
                let value: String = code.value().map(|v| v.render()).unwrap_or_default();
                let (reg, kind) = (
                    code.reg().expect("simulator transcripts pack their steps"),
                    code.kind().expect("simulator transcripts pack their steps"),
                );
                let name = names
                    .entry(reg)
                    .or_insert_with(|| std::sync::Arc::from(reg.name()));
                let name: std::sync::Arc<str> = std::sync::Arc::clone(name);
                label.clear();
                let _ = write!(label, "{}.{}({})", name, kind.as_str(), value);
                out.push(TreeStep::internal(*p, label));
            }
            TreeStep::Event(e) => out.push(TreeStep::Event(e.clone())),
        }
    }
}

/// [`explore_sl_aba_pooled`] with selectable ingestion pipeline: the
/// live binary path, or the string-format re-encoding. Everything else
/// (pooled world, DAG shards, mode, budget) is identical — the
/// wall-clock ratio isolates per-step rendering.
fn explore_sl_aba_pooled_ingest(
    writes: u64,
    reads: u64,
    workers: usize,
    max_runs: usize,
    string_format: bool,
) -> (ExploreOutcome, TreeDag<ASpec>, f64) {
    struct Ctx<'s> {
        inner: PooledAba,
        relabelled: Vec<TreeStep<ASpec>>,
        label: String,
        names: std::collections::HashMap<sl_check::RegSym, std::sync::Arc<str>>,
        shards: DagShards<'s, ASpec>,
    }
    impl sl_sim::ReplayCtx for Ctx<'_> {
        fn subtree_begin(&mut self) {
            self.shards.begin();
        }
        fn subtree_end(&mut self) {
            self.shards.end();
        }
    }
    let sink: Mutex<Vec<TreeDag<ASpec>>> = Mutex::new(Vec::new());
    let explorer = Explorer {
        max_runs,
        mode: PruneMode::SourceDpor,
        workers,
        stem: vec![],
        statics: None,
    };
    let start = Instant::now();
    let explored = explorer.explore_with(
        || {
            let world = SimWorld::new(2);
            let reg = SlAbaRegister::<u64, _>::new(&world.mem(), 2);
            Ctx {
                inner: PooledAba {
                    pool: ReplayPool::new(world),
                    reg,
                },
                relabelled: Vec::new(),
                label: String::new(),
                names: std::collections::HashMap::new(),
                shards: DagShards::new(&sink),
            }
        },
        |ctx: &mut Ctx<'_>, driver| {
            let reg = &ctx.inner.reg;
            ctx.inner
                .pool
                .replay(|log| aba_programs(reg, log, writes, reads), driver, 1_000);
            if string_format {
                reencode_as_labels(
                    ctx.inner.pool.transcript(),
                    &mut ctx.relabelled,
                    &mut ctx.label,
                    &mut ctx.names,
                );
                ctx.shards.ingest(&ctx.relabelled);
            } else {
                ctx.shards.ingest(ctx.inner.pool.transcript());
            }
        },
    );
    let elapsed = start.elapsed().as_secs_f64();
    (
        explored,
        TreeDag::merge(sink.into_inner().unwrap()),
        elapsed,
    )
}

struct ScalingPoint {
    threads: usize,
    replays_per_sec: f64,
    speedup: f64,
    efficiency: f64,
}

struct WorkloadSummary {
    name: &'static str,
    unpruned_replayed: usize,
    unpruned_exhausted: bool,
    dpor_replayed: usize,
    dpor_runs: usize,
    value_dpor_replayed: usize,
    value_dpor_runs: usize,
    static_dpor_replayed: usize,
    static_dpor_runs: usize,
    optimal_dpor_replayed: usize,
    optimal_dpor_runs: usize,
    optimal_cut: usize,
    reduction_vs_unpruned: f64,
    fresh_s: f64,
    pooled_s: f64,
    reuse_speedup: f64,
    string_format_s: f64,
    binary_format_s: f64,
    format_speedup: f64,
    scaling: Vec<ScalingPoint>,
    checker_memo_ms: f64,
    checker_unmemo_ms: f64,
    checker_speedup: f64,
    memo_hits: u64,
    states_memo: u64,
    states_unmemo: u64,
}

fn run_pinned_workload(
    name: &'static str,
    writes: u64,
    reads: u64,
    max_threads: usize,
    cert: &sl_analyze::Certificate,
) -> WorkloadSummary {
    println!();
    println!("## Pinned workload `{name}` (Algorithm 2: {writes} DWrites vs {reads} DReads)");
    let budget = 4_000_000;
    let mut rows = Vec::new();
    let (un, _, un_t) = explore_sl_aba_fresh(writes, reads, PruneMode::Unpruned, budget, None);
    let (dp, built, dp_t) =
        explore_sl_aba_fresh(writes, reads, PruneMode::SourceDpor, budget, None);
    let (vd, _, vd_t) = explore_sl_aba_fresh(writes, reads, PruneMode::ValueDpor, budget, None);
    let (sd, _, sd_t) = explore_sl_aba_fresh(
        writes,
        reads,
        PruneMode::StaticDpor,
        budget,
        Some(Arc::new(cert.static_conflicts())),
    );
    let (od, _, od_t) = explore_sl_aba_fresh(
        writes,
        reads,
        PruneMode::OptimalDpor,
        budget,
        Some(Arc::new(cert.static_conflicts())),
    );
    let (dag, tree) = built.expect("DPOR run builds the transcript sets");
    assert!(
        dp.exhausted && vd.exhausted && sd.exhausted && od.exhausted,
        "pruned explorations of the pinned workloads must exhaust"
    );
    assert!(
        vd.schedules_replayed() <= dp.schedules_replayed(),
        "value-aware DPOR must never replay more than syntactic DPOR"
    );
    assert!(
        sd.schedules_replayed() <= vd.schedules_replayed(),
        "static-certificate DPOR must never replay more than value-aware DPOR"
    );
    assert!(
        od.schedules_replayed() <= vd.schedules_replayed(),
        "optimal DPOR must never replay more in total than value-aware DPOR"
    );
    assert_eq!(od.cut_runs, 0, "optimal DPOR must never cut a replay");
    for (mode, out, secs) in [
        ("unpruned", &un, un_t),
        ("source DPOR", &dp, dp_t),
        ("value DPOR", &vd, vd_t),
        ("static DPOR", &sd, sd_t),
        ("optimal DPOR", &od, od_t),
    ] {
        rows.push(vec![
            mode.to_string(),
            out.schedules_replayed().to_string(),
            out.runs.to_string(),
            out.cut_runs.to_string(),
            if out.exhausted { "yes" } else { "capped" }.to_string(),
            format!("{:.2}s", secs),
        ]);
    }
    print_table(
        &["mode", "replayed", "runs", "cut", "exhausted", "time"],
        &rows,
    );
    let reduction = un.schedules_replayed() as f64 / dp.schedules_replayed() as f64;
    println!(
        "(source DPOR replays {:.1}x fewer schedules than unpruned{})",
        reduction,
        if un.exhausted {
            String::new()
        } else {
            " — a floor: the unpruned run hit its budget".to_string()
        }
    );

    // World reuse: the same DPOR exploration and ingestion pipeline on
    // one warm world per worker (reset between replays) vs a fresh
    // world per replay. Both sides ingest DAG shards with a reused
    // transcript buffer — only the world lifecycle differs, so the
    // ratio isolates world reuse (the triple-ingest run above feeds
    // the checker comparison, not this gate).
    // Three interleaved fresh/pooled pairs, gated on the best per-pair
    // ratio: interleaving decorrelates wall-clock drift (CPU frequency,
    // noisy neighbours) that separate measurement blocks would fold
    // into the ratio, and a real regression degrades every pair.
    struct ReusePair {
        out: ExploreOutcome,
        fresh_dag: TreeDag<ASpec>,
        fresh_t: f64,
        pooled_dag: TreeDag<ASpec>,
        pooled_t: f64,
    }
    let mut best: Option<ReusePair> = None;
    for _ in 0..3 {
        let (f_out, f_dag, f_t) = explore_sl_aba_fresh_dag(writes, reads, budget);
        let (p_out, p_dag, p_t) = explore_sl_aba_pooled(writes, reads, 1, budget);
        assert_eq!(f_out, p_out, "fresh and pooled runs must agree");
        let better = match &best {
            None => true,
            Some(b) => f_t / p_t > b.fresh_t / b.pooled_t,
        };
        if better {
            best = Some(ReusePair {
                out: p_out,
                fresh_dag: f_dag,
                fresh_t: f_t,
                pooled_dag: p_dag,
                pooled_t: p_t,
            });
        }
    }
    let ReusePair {
        out: pooled_out,
        fresh_dag,
        fresh_t,
        pooled_dag,
        pooled_t,
    } = best.expect("three measurement pairs");
    // The in-loop assert already pinned fresh == pooled per pair; this
    // ties both to the mode-table run.
    assert_eq!(
        pooled_out, dp,
        "pooled replay must explore the identical schedule set"
    );
    assert_eq!(fresh_dag.structural_hash(), dag.structural_hash());
    assert_eq!(
        pooled_dag.structural_hash(),
        dag.structural_hash(),
        "pooled replay must produce the identical transcript DAG"
    );
    let reuse_speedup = fresh_t / pooled_t;
    println!();
    println!(
        "world reuse (1 worker): fresh {fresh_t:.2}s -> pooled {pooled_t:.2}s  \
         ({reuse_speedup:.2}x)"
    );

    // Trace encoding: the same pooled exploration, ingesting binary
    // step codes directly vs re-rendering every step through the
    // retired string pipeline. Five interleaved pairs, best ratio —
    // same methodology (and rationale) as the reuse measurement; the
    // extra pairs tighten the max against scheduler noise, since this
    // gate carries a real floor (min_format_speedup) rather than the
    // reuse gate's 1.0 no-pessimization floor.
    let mut fmt_best: Option<(f64, f64)> = None;
    for _ in 0..5 {
        let (s_out, s_dag, s_t) = explore_sl_aba_pooled_ingest(writes, reads, 1, budget, true);
        let (b_out, b_dag, b_t) = explore_sl_aba_pooled_ingest(writes, reads, 1, budget, false);
        assert_eq!(
            s_out, b_out,
            "ingestion pipeline must not affect exploration"
        );
        assert_eq!(
            s_dag.unique_nodes(),
            b_dag.unique_nodes(),
            "label and binary transcripts must shape the same DAG"
        );
        assert_eq!(b_dag.structural_hash(), dag.structural_hash());
        if fmt_best.is_none_or(|(st, bt)| s_t / b_t > st / bt) {
            fmt_best = Some((s_t, b_t));
        }
    }
    let (string_format_s, binary_format_s) = fmt_best.expect("five measurement pairs");
    let format_speedup = string_format_s / binary_format_s;
    println!(
        "trace encoding (1 worker): string-format {string_format_s:.2}s -> binary \
         {binary_format_s:.2}s  ({format_speedup:.2}x)"
    );

    // Parallel scaling of the pooled explorer.
    let mut scaling = Vec::new();
    let base_rate = pooled_out.schedules_replayed() as f64 / pooled_t;
    scaling.push(ScalingPoint {
        threads: 1,
        replays_per_sec: base_rate,
        speedup: 1.0,
        efficiency: 1.0,
    });
    // Measuring more workers than cores measures the machine, not the
    // explorer: cap the curve at the available parallelism.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut t = 2;
    while t <= max_threads.min(cores) {
        let (out, merged, secs) = explore_sl_aba_pooled(writes, reads, t, budget);
        assert_eq!(out, pooled_out, "{t}-worker exploration diverged");
        assert_eq!(
            merged.structural_hash(),
            dag.structural_hash(),
            "{t}-worker DAG diverged"
        );
        let speedup = pooled_t / secs;
        scaling.push(ScalingPoint {
            threads: t,
            replays_per_sec: out.schedules_replayed() as f64 / secs,
            speedup,
            efficiency: speedup / t as f64,
        });
        t *= 2;
    }
    println!();
    let rows: Vec<Vec<String>> = scaling
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                format!("{}/s", human(p.replays_per_sec)),
                format!("{:.2}x", p.speedup),
                format!("{:.0}%", p.efficiency * 100.0),
            ]
        })
        .collect();
    print_table(&["threads", "replays", "speedup", "efficiency"], &rows);
    println!(
        "(identical schedule counts, verdicts, and DAG structure at every worker count — asserted)"
    );

    println!();
    println!(
        "(transcript DAG: {} unique shapes for a {}-node prefix tree)",
        dag.unique_nodes(),
        tree.node_count()
    );
    let spec = ASpec::new(2);
    let start = Instant::now();
    let memo = check_strongly_linearizable_dag(&spec, &dag);
    let memo_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let plain = check_strongly_linearizable_unmemoised(&spec, &tree);
    let unmemo_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        memo.holds, plain.holds,
        "memoisation must not change the verdict"
    );
    assert!(
        memo.holds,
        "Algorithm 2 is strongly linearizable (Theorem 12)"
    );
    println!();
    print_table(
        &["checker", "states", "memo hits", "time"],
        &[
            vec![
                "memoised".into(),
                memo.states_explored.to_string(),
                memo.memo_hits.to_string(),
                format!("{memo_ms:.1}ms"),
            ],
            vec![
                "unmemoised".into(),
                plain.states_explored.to_string(),
                "-".into(),
                format!("{unmemo_ms:.1}ms"),
            ],
        ],
    );
    println!("(memoisation: {:.1}x faster)", unmemo_ms / memo_ms);

    WorkloadSummary {
        name,
        unpruned_replayed: un.schedules_replayed(),
        unpruned_exhausted: un.exhausted,
        dpor_replayed: dp.schedules_replayed(),
        dpor_runs: dp.runs,
        value_dpor_replayed: vd.schedules_replayed(),
        value_dpor_runs: vd.runs,
        static_dpor_replayed: sd.schedules_replayed(),
        static_dpor_runs: sd.runs,
        optimal_dpor_replayed: od.schedules_replayed(),
        optimal_dpor_runs: od.runs,
        optimal_cut: od.cut_runs,
        reduction_vs_unpruned: reduction,
        fresh_s: fresh_t,
        pooled_s: pooled_t,
        reuse_speedup,
        string_format_s,
        binary_format_s,
        format_speedup,
        scaling,
        checker_memo_ms: memo_ms,
        checker_unmemo_ms: unmemo_ms,
        checker_speedup: unmemo_ms / memo_ms,
        memo_hits: memo.memo_hits,
        states_memo: memo.states_explored,
        states_unmemo: plain.states_explored,
    }
}

fn to_json(
    throughput: &[(String, f64)],
    workloads: &[WorkloadSummary],
    mixed: &[MixedSummary],
    ckpt_ratio: f64,
    dist_row: Option<(usize, f64)>,
) -> String {
    let mut out = format!("{{\n  \"ckpt_overhead_ratio\": {ckpt_ratio:.3},");
    if let Some((procs, ratio)) = dist_row {
        out.push_str(&format!(
            "\n  \"dist_worker_procs\": {procs},\n  \"dist_ratio\": {ratio:.3},"
        ));
    }
    out.push_str("\n  \"vm_steps_per_sec\": {");
    for (i, (name, rate)) in throughput.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {rate:.0}"));
    }
    out.push_str("\n  },\n  \"workloads\": [");
    for (i, w) in workloads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut scaling = String::new();
        for (j, p) in w.scaling.iter().enumerate() {
            if j > 0 {
                scaling.push_str(", ");
            }
            scaling.push_str(&format!(
                "{{\"threads\": {}, \"replays_per_sec\": {:.0}, \"speedup\": {:.2}, \
                 \"efficiency\": {:.2}}}",
                p.threads, p.replays_per_sec, p.speedup, p.efficiency
            ));
        }
        out.push_str(&format!(
            "\n    {{\n      \"name\": \"{}\",\n      \"unpruned_replayed\": {},\n      \
             \"unpruned_exhausted\": {},\n      \"dpor_replayed\": {},\n      \
             \"dpor_runs\": {},\n      \
             \"value_dpor_replayed\": {},\n      \"value_dpor_runs\": {},\n      \
             \"static_dpor_replayed\": {},\n      \"static_dpor_runs\": {},\n      \
             \"optimal_dpor_replayed\": {},\n      \"optimal_dpor_runs\": {},\n      \
             \"optimal_cut\": {},\n      \
             \"reduction_vs_unpruned\": {:.2},\n      \"fresh_s\": {:.3},\n      \
             \"pooled_s\": {:.3},\n      \"reuse_speedup\": {:.2},\n      \
             \"string_format_s\": {:.3},\n      \"binary_format_s\": {:.3},\n      \
             \"format_speedup\": {:.2},\n      \
             \"scaling\": [{}],\n      \"checker_memo_ms\": {:.2},\n      \
             \"checker_unmemo_ms\": {:.2},\n      \"checker_speedup\": {:.2},\n      \
             \"memo_hits\": {},\n      \"states_memo\": {},\n      \"states_unmemo\": {}\n    }}",
            w.name,
            w.unpruned_replayed,
            w.unpruned_exhausted,
            w.dpor_replayed,
            w.dpor_runs,
            w.value_dpor_replayed,
            w.value_dpor_runs,
            w.static_dpor_replayed,
            w.static_dpor_runs,
            w.optimal_dpor_replayed,
            w.optimal_dpor_runs,
            w.optimal_cut,
            w.reduction_vs_unpruned,
            w.fresh_s,
            w.pooled_s,
            w.reuse_speedup,
            w.string_format_s,
            w.binary_format_s,
            w.format_speedup,
            scaling,
            w.checker_memo_ms,
            w.checker_unmemo_ms,
            w.checker_speedup,
            w.memo_hits,
            w.states_memo,
            w.states_unmemo
        ));
    }
    for m in mixed {
        out.push_str(&format!(
            ",\n    {{\n      \"name\": \"{}\",\n      \"dpor_replayed\": {},\n      \
             \"dpor_runs\": {},\n      \"value_dpor_replayed\": {},\n      \
             \"value_dpor_runs\": {},\n      \"static_dpor_replayed\": {},\n      \
             \"static_dpor_runs\": {},\n      \"optimal_dpor_replayed\": {},\n      \
             \"optimal_dpor_runs\": {},\n      \"optimal_cut\": {},\n      \
             \"static_relaxed\": {},\n      \
             \"static_validated\": {},\n      \
             \"static_unattributed\": {}\n    }}",
            m.name,
            m.dpor_replayed,
            m.dpor_runs,
            m.value_dpor_replayed,
            m.value_dpor_runs,
            m.static_dpor_replayed,
            m.static_dpor_runs,
            m.optimal_dpor_replayed,
            m.optimal_dpor_runs,
            m.optimal_cut,
            m.static_relaxed,
            m.static_validated,
            m.static_unattributed
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The markdown before/after delta table the sim-deep CI job posts as
/// its step summary: recorded baseline vs this run, per gate.
fn summary_markdown(
    baseline: Option<&Baseline>,
    throughput: &[(String, f64)],
    workloads: &[WorkloadSummary],
    mixed: &[MixedSummary],
) -> String {
    use std::fmt::Write;
    let mut md = String::from("## Explorer throughput & schedule-count deltas\n\n");
    md.push_str("| metric | baseline | this run | delta |\n|---|---|---|---|\n");
    let num = |k: &str| baseline.and_then(|b| b.number(k));
    let fmt_delta = |before: Option<f64>, after: f64| match before {
        Some(b) if b > 0.0 => format!("{:+.1}%", (after - b) / b * 100.0),
        _ => "—".to_string(),
    };
    for (name, rate) in throughput {
        let before = num(name);
        let _ = writeln!(
            md,
            "| VM steps/s ({name}) | {} | {rate:.0} | {} |",
            before.map_or("—".into(), |b| format!("{b:.0}")),
            fmt_delta(before, *rate)
        );
    }
    for w in workloads {
        for (key, measured) in [
            ("unpruned_replayed", w.unpruned_replayed),
            ("dpor_replayed", w.dpor_replayed),
            ("value_dpor_replayed", w.value_dpor_replayed),
            ("static_dpor_replayed", w.static_dpor_replayed),
            ("optimal_dpor_replayed", w.optimal_dpor_replayed),
        ] {
            let before = baseline.and_then(|b| b.workload_count(w.name, key));
            let _ = writeln!(
                md,
                "| {} {key} | {} | {measured} | {} |",
                w.name,
                before.map_or("—".into(), |b| b.to_string()),
                fmt_delta(before.map(|b| b as f64), measured as f64)
            );
        }
        // Speedup gates are enforced on aba_2w2r only (the tiny
        // workload is all setup noise); annotate only the gated rows
        // so the summary never shows an un-enforced "gate" threshold.
        let gate = |key: &str| {
            if w.name == "aba_2w2r" {
                num(key).map_or("—".into(), |m| format!("gate >= {m}x"))
            } else {
                "informational".to_string()
            }
        };
        let _ = writeln!(
            md,
            "| {} traced replay, binary vs string format | — | {:.2}x | {} |",
            w.name,
            w.format_speedup,
            gate("min_format_speedup")
        );
        let _ = writeln!(
            md,
            "| {} world-reuse speedup | — | {:.2}x | {} |",
            w.name,
            w.reuse_speedup,
            gate("min_reuse_speedup")
        );
    }
    for m in mixed {
        for (key, measured) in [
            ("dpor_replayed", m.dpor_replayed),
            ("value_dpor_replayed", m.value_dpor_replayed),
            ("static_dpor_replayed", m.static_dpor_replayed),
            ("optimal_dpor_replayed", m.optimal_dpor_replayed),
        ] {
            let before = baseline.and_then(|b| b.workload_count(m.name, key));
            let _ = writeln!(
                md,
                "| {} {key} | {} | {measured} | {} |",
                m.name,
                before.map_or("—".into(), |b| b.to_string()),
                fmt_delta(before.map(|b| b as f64), measured as f64)
            );
        }
        let _ = writeln!(
            md,
            "| {} relaxations between concurrent steps / validated races | — | {} / {} | \
             fail-closed: 0 unpredicted; validated == recorded |",
            m.name, m.static_relaxed, m.static_validated
        );
        let _ = writeln!(
            md,
            "| {} unattributed races | — | {} | gate == 0 |",
            m.name, m.static_unattributed
        );
        let _ = writeln!(
            md,
            "| {} optimal-DPOR cut replays | — | {} | gate == 0 |",
            m.name, m.optimal_cut
        );
    }
    md
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut summary_md_path: Option<String> = None;
    let mut certificates_path: Option<String> = None;
    let mut refresh_baseline = false;
    let mut max_threads: usize = 8;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut resume_workload = String::from("aba_mixed3");
    let mut ckpt_every: u64 = 50;
    let mut ckpt_max_schedules: Option<u64> = None;
    let mut ckpt_stall_us: u64 = 0;
    let mut worker_procs: usize = 0;
    let mut worker_bin: Option<String> = None;
    let numeric = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} requires a number");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = args.next(),
            "--baseline" => baseline_path = args.next(),
            "--summary-md" => summary_md_path = args.next(),
            "--certificates" => certificates_path = args.next(),
            "--refresh-baseline" => refresh_baseline = true,
            "--threads" => max_threads = numeric(&mut args, "--threads") as usize,
            "--checkpoint-dir" => checkpoint_dir = args.next(),
            "--resume" => resume = true,
            "--resume-workload" => {
                resume_workload = args.next().unwrap_or_else(|| {
                    eprintln!("--resume-workload requires a name");
                    std::process::exit(2);
                })
            }
            "--ckpt-every" => ckpt_every = numeric(&mut args, "--ckpt-every"),
            "--ckpt-max-schedules" => {
                ckpt_max_schedules = Some(numeric(&mut args, "--ckpt-max-schedules"))
            }
            "--ckpt-stall-us" => ckpt_stall_us = numeric(&mut args, "--ckpt-stall-us"),
            "--worker-procs" => worker_procs = numeric(&mut args, "--worker-procs") as usize,
            "--worker-bin" => worker_bin = args.next(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if refresh_baseline && baseline_path.is_none() {
        eprintln!("--refresh-baseline requires --baseline PATH");
        std::process::exit(2);
    }
    if let Some(dir) = checkpoint_dir {
        run_resumable(
            &dir,
            resume,
            &resume_workload,
            ckpt_every,
            ckpt_max_schedules,
            ckpt_stall_us,
        );
        return;
    }

    println!("# exp_sim_throughput — step VM, explorer modes, world reuse, parallel scaling");
    println!();
    println!("## VM throughput (20k steps/proc; per-run setup amortised)");
    let mut rows = Vec::new();
    let mut throughput = Vec::new();
    for (name, cfg) in [
        ("full", RunConfig::full()),
        ("traced", RunConfig::traced()),
        ("counted", RunConfig::counted()),
    ] {
        // Warm-up pass stabilises allocator and stack-pool state.
        let _ = measure(cfg, 20_000, 2);
        let vm = measure(cfg, 20_000, 40);
        rows.push(vec![name.to_string(), format!("{} steps/s", human(vm))]);
        throughput.push((name.to_string(), vm));
    }
    print_table(&["recording", "step VM"], &rows);

    // The sl-analyze placement-commutation certificates the StaticDpor
    // rows consume: probed once per process count, reused across
    // workloads (each run builds its own runtime form for per-workload
    // telemetry).
    let aba_cert2 = sl_analyze::aba_certificate(2);
    let aba_cert3 = sl_analyze::aba_certificate(3);

    let workloads = vec![
        run_pinned_workload("aba_1w1r", 1, 1, max_threads, &aba_cert2),
        run_pinned_workload("aba_2w2r", 2, 2, max_threads, &aba_cert2),
    ];
    let mixed = vec![
        run_mixed_workload(
            "aba_mixed3",
            "writers p0,p1 + reader p2, 1 op each",
            &[1, 1],
            &aba_cert3,
        ),
        run_mixed_workload(
            "aba_mixed3_deep",
            "writers p0 (2 ops), p1 (1 op) + reader p2 — the sim-deep model-check workload",
            &[2, 1],
            &aba_cert3,
        ),
    ];

    println!();
    println!("## Checkpoint overhead (aba_mixed3_deep, optimal DPOR, default policy cadence)");
    let ckpt_ratio = measure_ckpt_overhead(5);
    println!(
        "(checkpointed/plain throughput ratio {ckpt_ratio:.3} — best-of-5 interleaved pairs; \
         1.0 = free, the gate floor is min_ckpt_ratio)"
    );

    // Distributed-overhead row: the same deep workload farmed to a
    // fleet of worker processes, gated against min_dist_ratio.
    let mut dist_row: Option<(usize, f64)> = None;
    if worker_procs > 0 {
        let bin = worker_bin.unwrap_or_else(|| {
            let mut p = std::env::current_exe().expect("current_exe");
            p.set_file_name("dist_worker");
            p.to_string_lossy().into_owned()
        });
        println!();
        println!(
            "## Distributed exploration (aba_mixed3_deep, optimal DPOR, {worker_procs} worker \
             processes)"
        );
        let (seq_s, dist_s, ratio) = measure_distributed(worker_procs, &bin);
        println!(
            "(sequential {seq_s:.2}s -> distributed {dist_s:.2}s; wall-clock ratio {ratio:.2} — \
             bit-identical counters, verdict, and merged-DAG hash asserted; gate floor \
             min_dist_ratio)"
        );
        dist_row = Some((worker_procs, ratio));
    }

    if let Some(path) = &certificates_path {
        write_certificates(path);
    }

    let json = to_json(&throughput, &workloads, &mixed, ckpt_ratio, dist_row);
    if let Some(path) = &json_path {
        baseline::atomic_write(path, &json);
        println!();
        println!("(summary written to {path})");
    }

    let loaded = baseline_path.as_deref().map(Baseline::load);
    if let Some(path) = &summary_md_path {
        let md = summary_markdown(loaded.as_ref(), &throughput, &workloads, &mixed);
        std::fs::write(path, md).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("(markdown summary written to {path})");
    }

    if refresh_baseline {
        // Rewrite the baseline from this run's measurements, keeping
        // the gate thresholds (recorded ones when present, defaults
        // otherwise) — no hand-editing of recorded counts.
        let b = loaded
            .as_ref()
            .expect("--refresh-baseline implies --baseline");
        let threshold =
            |key: &str, default: f64| (b.number(key).unwrap_or(default) * 100.0).round() / 100.0;
        let gates = [
            ("min_reuse_speedup", threshold("min_reuse_speedup", 1.0)),
            ("min_format_speedup", threshold("min_format_speedup", 1.6)),
            ("min_speedup_4w", threshold("min_speedup_4w", 2.0)),
            ("min_speedup_8w", threshold("min_speedup_8w", 3.0)),
            ("min_ckpt_ratio", threshold("min_ckpt_ratio", 0.95)),
            ("min_dist_ratio", threshold("min_dist_ratio", 0.2)),
        ];
        baseline::refresh(
            baseline_path.as_deref().unwrap(),
            BASELINE_COMMENT,
            &gates,
            &json,
        );
        // The certificate catalog checked in next to the baseline is
        // regenerated with it, so the two artifacts never drift.
        let sibling = std::path::Path::new(baseline_path.as_deref().unwrap())
            .with_file_name("certificates.json");
        write_certificates(&sibling.to_string_lossy());
        return;
    }

    if let Some(b) = &loaded {
        let mut gate = Gate::new();
        for w in &workloads {
            // The unpruned reference oracle explores the full
            // interleaving tree: its count is exact, not a ceiling.
            gate.count_equals(
                &format!("{} unpruned schedules", w.name),
                w.unpruned_replayed,
                b.workload_count(w.name, "unpruned_replayed"),
            );
            if !w.unpruned_exhausted {
                gate.fail(&format!(
                    "the unpruned oracle did not exhaust {} within its budget",
                    w.name
                ));
            }
            // Schedule counts are deterministic: any increase is a
            // partial-order-reduction regression, for the syntactic
            // and the value-aware relation alike.
            gate.count_not_above(
                &format!("{} source-DPOR schedules", w.name),
                w.dpor_replayed,
                b.workload_count(w.name, "dpor_replayed"),
            );
            gate.count_not_above(
                &format!("{} value-DPOR schedules", w.name),
                w.value_dpor_replayed,
                b.workload_count(w.name, "value_dpor_replayed"),
            );
            gate.count_not_above(
                &format!("{} static-DPOR schedules", w.name),
                w.static_dpor_replayed,
                b.workload_count(w.name, "static_dpor_replayed"),
            );
            gate.count_not_above(
                &format!("{} optimal-DPOR schedules", w.name),
                w.optimal_dpor_replayed,
                b.workload_count(w.name, "optimal_dpor_replayed"),
            );
            if w.optimal_cut != 0 {
                gate.fail(&format!(
                    "optimal DPOR cut {} replays on {} (wakeup sequences must keep \
                     exploration cut-free)",
                    w.optimal_cut, w.name
                ));
            }
        }
        for m in &mixed {
            gate.count_not_above(
                &format!("{} source-DPOR schedules", m.name),
                m.dpor_replayed,
                b.workload_count(m.name, "dpor_replayed"),
            );
            gate.count_not_above(
                &format!("{} value-DPOR schedules", m.name),
                m.value_dpor_replayed,
                b.workload_count(m.name, "value_dpor_replayed"),
            );
            gate.count_not_above(
                &format!("{} static-DPOR schedules", m.name),
                m.static_dpor_replayed,
                b.workload_count(m.name, "static_dpor_replayed"),
            );
            gate.count_not_above(
                &format!("{} optimal-DPOR schedules", m.name),
                m.optimal_dpor_replayed,
                b.workload_count(m.name, "optimal_dpor_replayed"),
            );
            if m.optimal_cut != 0 {
                gate.fail(&format!(
                    "optimal DPOR cut {} replays on {} (wakeup sequences must keep \
                     exploration cut-free)",
                    m.optimal_cut, m.name
                ));
            }
            if m.static_unattributed != 0 {
                gate.fail(&format!(
                    "{} dynamic races escaped op-pair attribution on {} (traced mixed-role \
                     replays must attribute every race to a register and op pair)",
                    m.static_unattributed, m.name
                ));
            }
            // The static-DPOR run is single-worker, so its validated
            // race count is deterministic: a race scan that skipped a
            // concurrent step would validate fewer races.
            gate.count_equals(
                &format!("{} validated races", m.name),
                m.static_validated as usize,
                b.workload_count(m.name, "static_validated"),
            );
            // The op-pair relaxations must strictly beat the optimal-DPOR
            // counts recorded before the pair matrix existed (the
            // per-register-certificate era); these floors are frozen, not
            // read from the refreshable baseline.
            for (name, floor) in [("aba_mixed3", 660usize), ("aba_mixed3_deep", 26_638)] {
                if m.name == name && m.optimal_dpor_replayed >= floor {
                    gate.fail(&format!(
                        "op-pair commutation no longer improves {name}: optimal DPOR replayed \
                         {} schedules, but the per-register certificate alone already reached \
                         {floor}",
                        m.optimal_dpor_replayed
                    ));
                }
            }
            if m.optimal_dpor_replayed >= m.static_dpor_replayed {
                // The tentpole's headline claim: wakeup sequences must
                // cut the mixed-role workloads' total replay count
                // below even the certificate-pruned mode, strictly —
                // the schedules static DPOR initiates and abandons
                // mid-run are never started at all.
                gate.fail(&format!(
                    "wakeup sequences no longer reduce {} \
                     (optimal {} vs static {})",
                    m.name, m.optimal_dpor_replayed, m.static_dpor_replayed
                ));
            }
            if m.value_dpor_replayed >= m.dpor_replayed {
                gate.fail(&format!(
                    "value-aware independence no longer reduces the mixed-role workload \
                     {} ({} vs {})",
                    m.name, m.value_dpor_replayed, m.dpor_replayed
                ));
            } else if m.static_dpor_replayed >= m.value_dpor_replayed {
                // The tentpole's headline claim: the placement
                // certificate must cut the mixed-role workloads below
                // the value-aware DPOR counts, strictly.
                gate.fail(&format!(
                    "the placement certificate no longer reduces {} \
                     (static {} vs value {})",
                    m.name, m.static_dpor_replayed, m.value_dpor_replayed
                ));
            } else {
                println!(
                    "baseline ok: optimal DPOR replays {} < static DPOR {} < value DPOR {} \
                     < source DPOR {} on {}",
                    m.optimal_dpor_replayed,
                    m.static_dpor_replayed,
                    m.value_dpor_replayed,
                    m.dpor_replayed,
                    m.name
                );
            }
        }
        // Certificate freshness: the catalog checked in next to the
        // baseline must be regenerable bit-for-bit by the current probe
        // and serializer, and must parse fail-closed. A drift means
        // someone changed the probe, the format, or an algorithm's
        // footprint without running --refresh-baseline.
        let sibling = std::path::Path::new(baseline_path.as_deref().unwrap())
            .with_file_name("certificates.json");
        match std::fs::read_to_string(&sibling) {
            Ok(checked_in) => {
                if let Err(e) = sl_analyze::catalog_from_json(&checked_in) {
                    gate.fail(&format!(
                        "checked-in certificate catalog {} does not parse: {e}",
                        sibling.display()
                    ));
                } else if checked_in != certificates_catalog_json() {
                    gate.fail(&format!(
                        "checked-in certificate catalog {} is stale: regenerating from the \
                         current probe produced a different artifact; run \
                         exp_sim_throughput --refresh-baseline and commit the result",
                        sibling.display()
                    ));
                } else {
                    println!(
                        "baseline ok: certificate catalog {} is fresh and parses fail-closed",
                        sibling.display()
                    );
                }
            }
            Err(e) => gate.fail(&format!(
                "certificate catalog {} is unreadable: {e}",
                sibling.display()
            )),
        }
        // Checkpointing must stay within its overhead budget on the
        // deep mixed-role workload — the tier the checkpoint exists
        // for. Below min_ckpt_ratio the snapshot cadence is eating the
        // exploration, not insuring it.
        gate.speedup_at_least(
            "checkpointed exploration throughput on aba_mixed3_deep",
            ckpt_ratio,
            b.number("min_ckpt_ratio"),
        );
        // Multi-process distribution must stay within its overhead
        // budget on the same deep workload (frame serialization, DAG
        // shard symbolization, and lease round trips are the cost;
        // min_dist_ratio is the floor the wall-clock ratio may not
        // sink below).
        match dist_row {
            Some((procs, ratio)) => gate.speedup_at_least(
                &format!(
                    "distributed exploration throughput on aba_mixed3_deep ({procs} worker procs)"
                ),
                ratio,
                b.number("min_dist_ratio"),
            ),
            None => {
                gate.skip("distributed overhead gate skipped: run with --worker-procs N to measure")
            }
        }
        // Wall-clock gates run on the bigger pinned workload
        // (aba_2w2r); the tiny one is all setup noise.
        if let Some(w) = workloads.iter().find(|w| w.name == "aba_2w2r") {
            gate.speedup_at_least(
                &format!("world-reuse speedup on {}", w.name),
                w.reuse_speedup,
                b.number("min_reuse_speedup"),
            );
            gate.speedup_at_least(
                &format!("binary-vs-string-format traced replay on {}", w.name),
                w.format_speedup,
                b.number("min_format_speedup"),
            );
            // Parallel-scaling gates: each threshold is enforced only
            // on machines with at least that many real CPUs (so a
            // 4-vCPU CI runner still enforces the 4-worker point; the
            // 8-worker point needs a larger runner).
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            for (key, threads) in [("min_speedup_4w", 4usize), ("min_speedup_8w", 8usize)] {
                match w.scaling.iter().find(|p| p.threads == threads) {
                    Some(p) if cores >= threads => gate.speedup_at_least(
                        &format!("{threads}-worker speedup on {}", w.name),
                        p.speedup,
                        b.number(key),
                    ),
                    _ => gate.skip(&format!(
                        "{threads}-worker speedup gate skipped: {cores} CPUs available, \
                         curve capped at {} threads",
                        w.scaling.last().map(|p| p.threads).unwrap_or(1)
                    )),
                }
            }
        }
        if gate.regressed() {
            std::process::exit(1);
        }
    }
}

/// Writer-op shapes of the named resumable workloads.
fn resume_writer_ops(name: &str) -> &'static [u64] {
    match name {
        "aba_mixed3" => &[1, 1],
        "aba_mixed3_deep" => &[2, 1],
        other => {
            eprintln!("unknown --resume-workload {other} (aba_mixed3 | aba_mixed3_deep)");
            std::process::exit(2);
        }
    }
}

/// One checkpointed (or resumed) counts-only optimal-DPOR exploration
/// of a mixed-role workload, for the out-of-process crash-resilience
/// harness. Prints the outcome as a one-line `RESUME_SUMMARY {json}` —
/// the artifact `resume_kill.rs` compares across kill-and-resume runs.
fn run_resumable(
    dir: &str,
    resume: bool,
    workload: &str,
    every: u64,
    max_schedules: Option<u64>,
    stall_us: u64,
) {
    let writer_ops = resume_writer_ops(workload);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
    let store = CheckpointStore::new(dir, workload);
    if !resume {
        // A fresh run must not silently continue someone else's state.
        store.clear();
    }
    let explorer = Explorer {
        max_runs: 4_000_000,
        mode: PruneMode::OptimalDpor,
        workers: sl_sim::env_workers(),
        stem: vec![],
        statics: None,
    };
    let session = ResumeSession {
        policy: CheckpointPolicy {
            every_replays: every,
            max_schedules,
            deadline: None,
        },
        fault: FaultPlan::from_env().map(Arc::new),
        ..ResumeSession::new(&store)
    };
    let out = explorer.explore_resumable(
        || {
            let world = SimWorld::new(3);
            let reg = SlAbaRegister::<u64, _>::new(&world.mem(), 3);
            PooledAba {
                pool: ReplayPool::new(world),
                reg,
            }
        },
        |ctx: &mut PooledAba, driver| {
            if stall_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(stall_us));
            }
            let reg = &ctx.reg;
            ctx.pool
                .replay(|log| mixed3_programs(reg, log, writer_ops), driver, 2_000);
        },
        &session,
    );
    println!(
        "RESUME_SUMMARY {{\"workload\": \"{}\", \"workers\": {}, \"runs\": {}, \
         \"cut_runs\": {}, \"pruned\": {}, \"retried\": {}, \"quarantined\": {}, \
         \"drained\": {}, \"partial\": {}, \"exhausted\": {}}}",
        workload,
        explorer.workers,
        out.runs,
        out.cut_runs,
        out.pruned,
        out.retried,
        out.quarantined,
        out.drained,
        out.partial,
        out.exhausted,
    );
}

/// Wall-clock ratio of checkpointed vs plain optimal-DPOR exploration
/// of `aba_mixed3_deep` (counts-only, one worker): best-of-`reps`
/// interleaved pairs, so allocator and frequency drift hit both sides
/// alike. Returns `best_plain / best_checkpointed` — 1.0 means free,
/// 0.95 means checkpointing costs ~5%.
fn measure_ckpt_overhead(reps: u32) -> f64 {
    let writer_ops: &'static [u64] = &[2, 1];
    let new_ctx = || {
        let world = SimWorld::new(3);
        let reg = SlAbaRegister::<u64, _>::new(&world.mem(), 3);
        PooledAba {
            pool: ReplayPool::new(world),
            reg,
        }
    };
    let runner = |ctx: &mut PooledAba, driver: &mut ScheduleDriver| {
        let reg = &ctx.reg;
        ctx.pool
            .replay(|log| mixed3_programs(reg, log, writer_ops), driver, 2_000);
    };
    let explorer = Explorer {
        max_runs: 4_000_000,
        mode: PruneMode::OptimalDpor,
        workers: 1,
        stem: vec![],
        statics: None,
    };
    let dir = std::env::temp_dir().join(format!("sl-ckpt-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = CheckpointStore::new(&dir, "aba_mixed3_deep");
    let (mut best_plain, mut best_ckpt) = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        let start = Instant::now();
        let plain = explorer.explore_with(new_ctx, runner);
        best_plain = best_plain.min(start.elapsed().as_secs_f64());
        assert!(plain.exhausted, "overhead reference must exhaust");
        store.clear();
        // The gate measures the default policy — the cadence every
        // resumable caller gets unless they opt into a denser one.
        let session = ResumeSession {
            policy: CheckpointPolicy::default(),
            ..ResumeSession::new(&store)
        };
        let start = Instant::now();
        let ckpt = explorer.explore_resumable(new_ctx, runner, &session);
        best_ckpt = best_ckpt.min(start.elapsed().as_secs_f64());
        assert!(ckpt.exhausted, "checkpointed overhead run must exhaust");
        assert_eq!(
            (ckpt.runs, ckpt.cut_runs, ckpt.pruned),
            (plain.runs, plain.cut_runs, plain.pruned),
            "checkpointing must not change what gets explored"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    best_plain / best_ckpt
}

/// The `sl-analyze` certificate catalog: every family × substrate the
/// facade exposes at 2 processes, plus the 3-process Algorithm-2
/// certificate the mixed-role StaticDpor gates consume. One producer
/// for both the written artifact and the freshness comparison.
fn certificates_catalog_json() -> String {
    let mut certs = sl_analyze::catalog(2);
    certs.push(sl_analyze::aba_certificate(3));
    sl_analyze::catalog_json(&certs)
}

/// Sequential vs distributed wall clock on the deep mixed-role
/// workload under optimal DPOR: the same exploration once in-process
/// single-threaded and once with subtree tasks leased to `procs`
/// worker processes (the `dist_worker` binary at `bin`). Bit-identity
/// — counters and merged-DAG structural hash — is asserted, so the
/// ratio measures pure distribution overhead, never divergence.
/// Returns `(seq_s, dist_s, seq_s / dist_s)`.
fn measure_distributed(procs: usize, bin: &str) -> (f64, f64, f64) {
    let workload = "aba_mixed3_deep";
    let mode = PruneMode::OptimalDpor;
    let ops = dist_ops(workload).expect("registered distributed workload");
    let n = ops.len();
    let cfg = dist_config(mode, 1);
    let start = Instant::now();
    let seq = explore_object::<ASpec, _, _, _>(
        |mem| ObjectBuilder::on(mem).processes(n).aba_register::<u64>(),
        &ops,
        |h, op| h.drive(op),
        &cfg,
        None,
    );
    let seq_s = start.elapsed().as_secs_f64();
    let fleet = FleetConfig {
        worker_cmd: vec![
            bin.to_string(),
            "--workload".to_string(),
            workload.to_string(),
            "--mode".to_string(),
            mode.name().to_string(),
        ],
        workers: procs,
        ..FleetConfig::default()
    };
    let dcfg = dist_config(mode, procs.max(2));
    let start = Instant::now();
    let dist = explore_object_distributed::<ASpec, _, _, _>(
        |mem| ObjectBuilder::on(mem).processes(n).aba_register::<u64>(),
        &ops,
        |h, op| h.drive(op),
        &dcfg,
        fleet,
        workload,
    );
    let dist_s = start.elapsed().as_secs_f64();
    let fleet = dist
        .fleet
        .expect("a distributed run reports fleet counters");
    assert!(
        !fleet.degraded,
        "fleet degraded: worker binary {bin} unusable"
    );
    assert!(fleet.completed > 0, "the distributed path never engaged");
    assert_eq!(
        (seq.outcome.runs, seq.outcome.cut_runs, seq.outcome.pruned),
        (
            dist.outcome.runs,
            dist.outcome.cut_runs,
            dist.outcome.pruned
        ),
        "distributed counters diverged from sequential"
    );
    assert_eq!(
        seq.dag.symbolize().structural_hash(),
        dist.dag.structural_hash(),
        "distributed merged DAG diverged from sequential"
    );
    (seq_s, dist_s, seq_s / dist_s)
}

fn write_certificates(path: &str) {
    baseline::atomic_write(path, &certificates_catalog_json());
    println!("(certificate catalog written to {path})");
}

/// Header comment written into refreshed baselines.
const BASELINE_COMMENT: &str = "Reference numbers for the exp_sim_throughput --baseline gate, \
written by --refresh-baseline. The gate enforces: unpruned_replayed exactly, with \
unpruned_exhausted true, on the pinned workloads (the reference oracle's full interleaving \
count — any change in either direction is an oracle regression), dpor_replayed, \
value_dpor_replayed, static_dpor_replayed, and optimal_dpor_replayed per workload (schedule \
counts are deterministic — any increase is a partial-order-reduction regression), static < value strictly on the \
mixed-role workloads (the sl-analyze placement certificate must keep pruning), optimal < static \
strictly there with zero cut replays (wakeup sequences must keep eliminating sleep-set-blocked \
runs), optimal strictly below the frozen per-register-era floors (660 / 26638) with zero \
unattributed races on the mixed-role workloads (the op-pair commutation matrix must keep \
pruning and attributing), static_validated exactly on the mixed-role workloads (single-worker \
static DPOR validates a deterministic number of races; fewer means the race scan skipped a \
concurrent step), certificates.json next to this file byte-identical to a fresh \
regeneration (probe/format drift must go through --refresh-baseline), min_reuse_speedup (single-worker pooled-vs-fresh wall clock on aba_2w2r, best-of-3, \
identical ingestion pipelines both sides; a 1.0 floor so the gate only catches pooling becoming \
an outright pessimization), min_format_speedup (single-worker traced replay with binary StepCode \
ingestion vs the retired per-step string rendering+interning, best-of-5, identical ingestion \
sinks both sides), min_speedup_4w / min_speedup_8w (4-/8-worker wall-clock speedups on \
aba_2w2r, each checked only on machines with at least that many CPUs), min_ckpt_ratio \
(best-of-5 interleaved plain-vs-checkpointed optimal-DPOR wall clock on aba_mixed3_deep; a \
0.95 floor caps checkpointing overhead at ~5%), and min_dist_ratio (sequential-vs-distributed \
wall clock on aba_mixed3_deep with --worker-procs N worker processes behind the sl-dist lease \
coordinator, bit-identity asserted; a 0.2 floor caps the frame/lease/symbolization overhead at \
5x — measured only when --worker-procs is given). Timing fields other than the gates are \
informational snapshots of the reference container.";
