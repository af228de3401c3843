//! Model checks for the §4.1 machinery — including two
//! **checker-discovered negative results**: neither the naive
//! Aspnes–Attiya–Censor max-register reads nor a clean-double-collect
//! variant are strongly linearizable with concurrent writers. This
//! explains why the Helmi–Higham–Woelfel wait-free strongly
//! linearizable bounded max-register is a nontrivial construction, and
//! motivates the paper's own §4.5 route: a strongly linearizable
//! max-register derived from the strongly linearizable snapshot
//! (model-checked positively below).

use std::sync::Mutex;

use sl_check::TreeBuilder;
use sl_check::{check_linearizable, check_strongly_linearizable, HistoryTree};
use sl_core::{
    BoundedMaxRegister, SnapshotHandle, SnapshotObject, UnaryMaxRegister, VersionedSlSnapshot,
};
use sl_sim::{
    EventLog, ExploreOutcome, Explorer, Program, PruneMode, RunConfig, ScheduleDriver,
    SeededRandom, SimMem, SimWorld,
};
use sl_spec::types::{MaxRegisterSpec, SnapshotSpec};
use sl_spec::{MaxRegisterOp, MaxRegisterResp, ProcId, SnapshotOp, SnapshotResp};

type MaxTranscript = Vec<sl_check::TreeStep<MaxRegisterSpec>>;

/// Explores every schedule (up to `max_runs`) of the `n` programs
/// `build` makes over a fresh world's memory and event log, unpruned,
/// with a per-run step budget; returns the outcome and every run's
/// transcript.
fn max_register_transcripts(
    n: usize,
    step_budget: u64,
    max_runs: usize,
    build: impl Fn(&SimMem, &EventLog<MaxRegisterSpec>) -> Vec<Program> + Sync,
) -> (ExploreOutcome, Vec<MaxTranscript>) {
    let transcripts = Mutex::new(Vec::new());
    let explorer = Explorer {
        max_runs,
        mode: PruneMode::Unpruned,
        ..Explorer::default()
    };
    let explored = explorer.explore(|driver| {
        let world = SimWorld::new(n);
        let log = EventLog::new(&world);
        let programs = build(&world.mem(), &log);
        let outcome = world.run(programs, driver, step_budget);
        transcripts.lock().unwrap().push(log.transcript(&outcome));
        outcome
    });
    (explored, transcripts.into_inner().unwrap())
}

/// HHW (paper reference [12]): the Aspnes–Attiya–Censor bounded
/// max-register is strongly linearizable — exhaustively checked for a
/// 2-process workload (one `maxWrite`, one `maxRead`) over every
/// schedule.
#[test]
fn bounded_max_register_strongly_linearizable_exhaustive() {
    for write_value in [1u64, 2, 3] {
        let (explored, transcripts) = max_register_transcripts(2, 200, 20_000, |mem, log| {
            let m = BoundedMaxRegister::new(mem, 4);
            let m0 = m.clone();
            let l0 = log.clone();
            let m1 = m.clone();
            let l1 = log.clone();
            vec![
                Box::new(move |ctx| {
                    ctx.pause();
                    let id = l0.invoke(ctx.proc_id(), MaxRegisterOp::MaxWrite(write_value));
                    m0.max_write(write_value);
                    l0.respond(id, MaxRegisterResp::Ack);
                }),
                Box::new(move |ctx| {
                    ctx.pause();
                    let id = l1.invoke(ctx.proc_id(), MaxRegisterOp::MaxRead);
                    let v = m1.max_read();
                    l1.respond(id, MaxRegisterResp::Value(v));
                }),
            ]
        });
        assert!(explored.exhausted, "value {write_value}: not exhausted");
        let tree = HistoryTree::from_transcripts(&transcripts);
        let report = check_strongly_linearizable(&MaxRegisterSpec, &tree);
        assert!(
            report.holds,
            "HHW: bounded max-register strongly linearizable \
             (value {write_value}, {} schedules)",
            explored.runs
        );
    }
}

/// **Checker-discovered:** the clean-double-collect read is not
/// strongly linearizable either. Equal consecutive collects of monotone
/// switches certify the decoded value only at the instant *between* the
/// collects; the response becomes determined only at the end of the
/// second collect, by which time larger writes may have completed that
/// the read would have to be retroactively ordered before. Exactly the
/// late-determination phenomenon of Observation 4, in a different
/// object.
#[test]
fn double_collect_max_register_read_is_not_strongly_linearizable() {
    let transcripts = two_writer_transcripts(ReadVariant::DoubleCollect);
    let tree = HistoryTree::from_transcripts(&transcripts);
    let report = check_strongly_linearizable(&MaxRegisterSpec, &tree);
    assert!(
        !report.holds,
        "late determination defeats the double collect"
    );
}

/// The paper's §4.5 strongly linearizable max-register (derived from
/// the strongly linearizable snapshot): budget-bounded exhaustive
/// check of the exact workload on which the naive reads fail — under
/// optimal DPOR (wakeup sequences), so every replay in the budget is a
/// distinct Mazurkiewicz trace and none is cut mid-run.
#[test]
fn snapshot_derived_max_register_strong_bounded_check() {
    use sl_core::{SlSnapshot, SnapshotMaxRegister};
    let builder: TreeBuilder<MaxRegisterSpec> = TreeBuilder::new();
    let explorer = Explorer {
        max_runs: 12_000,
        mode: PruneMode::OptimalDpor,
        workers: 1,
        stem: vec![],
        statics: None,
    };
    let explored = explorer.explore(|driver: &mut ScheduleDriver| {
        let world = SimWorld::new(3);
        let mem = world.mem();
        let maxreg = SnapshotMaxRegister::new(SlSnapshot::with_atomic_r(&mem, 3));
        let log: EventLog<MaxRegisterSpec> = EventLog::new(&world);
        let mut programs: Vec<Program> = Vec::new();
        for (pid, value) in [(0usize, 1u64), (1, 3)] {
            let mut h = maxreg.handle(ProcId(pid));
            let log = log.clone();
            programs.push(Box::new(move |ctx| {
                ctx.pause();
                let id = log.invoke(ctx.proc_id(), MaxRegisterOp::MaxWrite(value));
                h.max_write(value);
                log.respond(id, MaxRegisterResp::Ack);
            }));
        }
        let mut h = maxreg.handle(ProcId(2));
        let l2 = log.clone();
        programs.push(Box::new(move |ctx| {
            ctx.pause();
            let id = l2.invoke(ctx.proc_id(), MaxRegisterOp::MaxRead);
            let v = h.max_read();
            l2.respond(id, MaxRegisterResp::Value(v));
        }));
        let outcome = world.run_with(programs, driver, 2_000, RunConfig::traced());
        builder.ingest(&log.transcript(&outcome));
        outcome
    });
    let tree = builder.finish();
    let report = check_strongly_linearizable(&MaxRegisterSpec, &tree);
    assert!(
        report.holds,
        "§4.5 snapshot-derived max-register over {} schedules (exhausted: {}, pruned: {})",
        explored.runs, explored.exhausted, explored.pruned
    );
}

/// The unary unbounded max-register (our simplified stand-in for the
/// §4.1 building block) is linearizable on every schedule of a bounded
/// workload. (It is *not* strongly linearizable in general — like the
/// bounded trie, single-pass and double-collect reads determine their
/// response too late; the Denysyuk–Woelfel proof relies on the
/// Helmi–Higham–Woelfel max-register, whose construction we did not
/// reproduce. See DESIGN.md.)
#[test]
fn unary_max_register_linearizable_exhaustive() {
    let (_, transcripts) = max_register_transcripts(2, 200, 20_000, |mem, log| {
        let m: UnaryMaxRegister<u64, _> = UnaryMaxRegister::new(mem, "m");
        // Pre-size the array (the model is a static infinite array;
        // growth is bookkeeping, not a shared step).
        m.reserve(4);
        let m0 = m.clone();
        let l0 = log.clone();
        let m1 = m.clone();
        let l1 = log.clone();
        vec![
            Box::new(move |ctx| {
                ctx.pause();
                let id = l0.invoke(ctx.proc_id(), MaxRegisterOp::MaxWrite(2));
                m0.max_write(2, 2);
                l0.respond(id, MaxRegisterResp::Ack);
            }),
            Box::new(move |ctx| {
                ctx.pause();
                let id = l1.invoke(ctx.proc_id(), MaxRegisterOp::MaxRead);
                let (v, _) = m1.max_read();
                l1.respond(id, MaxRegisterResp::Value(v));
            }),
        ]
    });
    for t in &transcripts {
        let mut h: sl_spec::History<MaxRegisterSpec> = sl_spec::History::new();
        for step in t {
            if let sl_check::TreeStep::Event(e) = step {
                match &e.kind {
                    sl_spec::EventKind::Invoke(op) => h.invoke_with_id(e.op, e.proc, *op),
                    sl_spec::EventKind::Respond(r) => h.respond(e.op, *r),
                }
            }
        }
        assert!(
            check_linearizable(&MaxRegisterSpec, &h).is_some(),
            "unary max register produced a non-linearizable schedule"
        );
    }
}

/// The Denysyuk–Woelfel versioned construction (§4.1), over our
/// simplified max-register, passes a budget-bounded exhaustive strong
/// check of one update + one scan (single-updater workloads avoid the
/// max-register's multi-writer weakness).
#[test]
fn versioned_construction_strongly_linearizable_bounded() {
    let builder: TreeBuilder<SnapshotSpec<u64>> = TreeBuilder::new();
    let explorer = Explorer {
        max_runs: 20_000,
        mode: PruneMode::OptimalDpor,
        workers: 1,
        stem: vec![],
        statics: None,
    };
    let explored = explorer.explore(|driver: &mut ScheduleDriver| {
        let world = SimWorld::new(2);
        let mem = world.mem();
        let snap: VersionedSlSnapshot<u64, _> = VersionedSlSnapshot::new(&mem, 2);
        let log: EventLog<SnapshotSpec<u64>> = EventLog::new(&world);
        let mut u = snap.handle(ProcId(0));
        let ul = log.clone();
        let mut s = snap.handle(ProcId(1));
        let sl = log.clone();
        let programs: Vec<Program> = vec![
            Box::new(move |ctx| {
                ctx.pause();
                let id = ul.invoke(ctx.proc_id(), SnapshotOp::Update(5));
                u.update(5);
                ul.respond(id, SnapshotResp::Ack);
            }),
            Box::new(move |ctx| {
                ctx.pause();
                let id = sl.invoke(ctx.proc_id(), SnapshotOp::Scan);
                let v = s.scan();
                sl.respond(id, SnapshotResp::View(v));
            }),
        ];
        let outcome = world.run_with(programs, driver, 500, RunConfig::traced());
        builder.ingest(&log.transcript(&outcome));
        outcome
    });
    let tree = builder.finish();
    let report = check_strongly_linearizable(&SnapshotSpec::<u64>::new(2), &tree);
    assert!(
        report.holds,
        "DW §4.1 construction over {} schedules (exhausted: {}, pruned: {})",
        explored.runs, explored.exhausted, explored.pruned
    );
}

/// The versioned construction under random schedules with heavier
/// workloads stays linearizable.
#[test]
fn versioned_construction_linearizable_random_schedules() {
    for seed in 0..10u64 {
        let n = 3;
        let world = SimWorld::new(n);
        let mem = world.mem();
        let snap: VersionedSlSnapshot<u64, _> = VersionedSlSnapshot::new(&mem, n);
        let log: EventLog<SnapshotSpec<u64>> = EventLog::new(&world);
        let mut programs: Vec<Program> = Vec::new();
        for pid in 0..n {
            let mut h = snap.handle(ProcId(pid));
            let log = log.clone();
            programs.push(Box::new(move |ctx| {
                for i in 0..2u64 {
                    let value = pid as u64 * 10 + i;
                    let id = log.invoke(ctx.proc_id(), SnapshotOp::Update(value));
                    h.update(value);
                    log.respond(id, SnapshotResp::Ack);
                    let id = log.invoke(ctx.proc_id(), SnapshotOp::Scan);
                    let v = h.scan();
                    log.respond(id, SnapshotResp::View(v));
                }
            }));
        }
        let mut sched = SeededRandom::new(seed);
        let outcome = world.run(programs, &mut sched, 2_000_000);
        assert!(outcome.completed, "seed {seed}: starved");
        assert!(
            check_linearizable(&SnapshotSpec::<u64>::new(n), &log.history()).is_some(),
            "seed {seed}: versioned construction non-linearizable"
        );
    }
}

#[derive(Clone, Copy)]
enum ReadVariant {
    TopDown,
    DoubleCollect,
}

fn two_writer_transcripts(variant: ReadVariant) -> Vec<MaxTranscript> {
    let (_, transcripts) = max_register_transcripts(3, 400, 30_000, |mem, log| {
        let m = BoundedMaxRegister::new(mem, 4);
        let mut programs: Vec<Program> = Vec::new();
        for value in [1u64, 3] {
            let m = m.clone();
            let log = log.clone();
            programs.push(Box::new(move |ctx| {
                ctx.pause();
                let id = log.invoke(ctx.proc_id(), MaxRegisterOp::MaxWrite(value));
                m.max_write(value);
                log.respond(id, MaxRegisterResp::Ack);
            }));
        }
        let m2 = m.clone();
        let l2 = log.clone();
        programs.push(Box::new(move |ctx| {
            ctx.pause();
            let id = l2.invoke(ctx.proc_id(), MaxRegisterOp::MaxRead);
            let v = match variant {
                ReadVariant::TopDown => m2.max_read(),
                ReadVariant::DoubleCollect => m2.max_read_double_collect(),
            };
            l2.respond(id, MaxRegisterResp::Value(v));
        }));
        programs
    });
    transcripts
}

/// **Experimental discovery** (automated by the checker): the *original*
/// Aspnes–Attiya–Censor top-down `maxRead` is NOT strongly linearizable
/// with two writers. After a reader has passed an unset root switch, a
/// completed larger write is already ordered after it while the reader's
/// value in the left subtree is still undetermined — two extensions then
/// force contradictory commitments, exactly the Observation-4 mechanism.
/// The bottom-up read (left subtree before switch) repairs this; see
/// `bounded_max_register_two_writers_exhaustive`.
#[test]
fn top_down_max_register_read_is_not_strongly_linearizable() {
    let transcripts = two_writer_transcripts(ReadVariant::TopDown);
    let tree = HistoryTree::from_transcripts(&transcripts);
    let report = check_strongly_linearizable(&MaxRegisterSpec, &tree);
    assert!(
        !report.holds,
        "the top-down AAC read admits a retroactive-ordering violation"
    );
    // Each individual schedule is nevertheless linearizable.
    for t in transcripts.iter().take(50) {
        let mut h: sl_spec::History<MaxRegisterSpec> = sl_spec::History::new();
        for step in t {
            if let sl_check::TreeStep::Event(e) = step {
                match &e.kind {
                    sl_spec::EventKind::Invoke(op) => h.invoke_with_id(e.op, e.proc, *op),
                    sl_spec::EventKind::Respond(r) => h.respond(e.op, *r),
                }
            }
        }
        assert!(check_linearizable(&MaxRegisterSpec, &h).is_some());
    }
}
