//! Integration tests for the simulator: determinism, event logging,
//! budget aborts, and end-to-end linearizability checking of a trivially
//! atomic object.

use sl_check::{check_linearizable, check_strongly_linearizable, HistoryTree};
use sl_mem::{Mem, Register};
use std::sync::Mutex;

use sl_sim::{
    EventLog, Explorer, Program, PruneMode, RoundRobin, ScheduleDriver, Scripted, SeededRandom,
    SimWorld,
};
use sl_spec::types::RegisterSpec;
use sl_spec::{ProcId, RegisterOp, RegisterResp};

type Spec = RegisterSpec<u64>;

/// Two processes hammer a single simulated register while logging
/// high-level events; the recorded history must be linearizable (the
/// register *is* atomic by construction).
fn run_register_workload(seed: u64) -> (sl_sim::RunOutcome, EventLog<Spec>) {
    let world = SimWorld::new(2);
    let mem = world.mem();
    let reg = mem.alloc("X", None::<u64>);
    let log: EventLog<Spec> = EventLog::new(&world);

    let mut programs: Vec<Program> = Vec::new();
    for pid in 0..2 {
        let reg = reg.clone();
        let log = log.clone();
        programs.push(Box::new(move |ctx| {
            let p = ctx.proc_id();
            for i in 0..3u64 {
                if pid == 0 {
                    let id = log.invoke(p, RegisterOp::Write(i));
                    reg.write(Some(i));
                    log.respond(id, RegisterResp::Ack);
                } else {
                    let id = log.invoke(p, RegisterOp::Read);
                    let v = reg.read();
                    log.respond(id, RegisterResp::Value(v));
                }
            }
        }));
    }
    let mut sched = SeededRandom::new(seed);
    let outcome = world.run(programs, &mut sched, 10_000);
    (outcome, log)
}

#[test]
fn atomic_register_histories_are_linearizable() {
    for seed in 0..20 {
        let (outcome, log) = run_register_workload(seed);
        assert!(outcome.completed);
        let h = log.history();
        assert!(h.is_well_formed());
        assert!(
            check_linearizable(&Spec::new(), &h).is_some(),
            "seed {seed} produced a non-linearizable history for an atomic register"
        );
    }
}

#[test]
fn runs_are_deterministic_given_the_seed() {
    let (o1, l1) = run_register_workload(7);
    let (o2, l2) = run_register_workload(7);
    assert_eq!(o1.trace, o2.trace);
    assert_eq!(l1.transcript(&o1), l2.transcript(&o2));
}

#[test]
fn different_seeds_can_differ() {
    let traces: Vec<_> = (0..10).map(|s| run_register_workload(s).0.trace).collect();
    assert!(
        traces.iter().any(|t| *t != traces[0]),
        "ten seeds all produced identical interleavings — scheduler not random?"
    );
}

#[test]
fn step_budget_aborts_infinite_programs() {
    let world = SimWorld::new(1);
    let mem = world.mem();
    let reg = mem.alloc("X", 0u64);
    let outcome = world.run(
        vec![Box::new(move |_| loop {
            let v = reg.read();
            reg.write(v + 1);
        })],
        &mut RoundRobin::new(),
        50,
    );
    assert!(!outcome.completed);
    assert_eq!(outcome.total_steps(), 50);
}

#[test]
fn scripted_schedules_control_interleaving_exactly() {
    // p1 reads between p0's two writes iff the script says so.
    let run = |script: Vec<usize>| {
        let world = SimWorld::new(2);
        let mem = world.mem();
        let reg = mem.alloc("X", 0u64);
        let r0 = reg.clone();
        let r1 = reg;
        let seen = std::sync::Arc::new(std::sync::Mutex::new(0u64));
        let seen2 = seen.clone();
        let mut sched = Scripted::new(script);
        let outcome = world.run(
            vec![
                Box::new(move |_| {
                    r0.write(1);
                    r0.write(2);
                }),
                Box::new(move |_| {
                    *seen2.lock().unwrap() = r1.read();
                }),
            ],
            &mut sched,
            100,
        );
        assert!(outcome.completed);
        let value = *seen.lock().unwrap();
        value
    };
    assert_eq!(run(vec![0, 1, 0]), 1, "read between the writes sees 1");
    assert_eq!(run(vec![0, 0, 1]), 2, "read after both writes sees 2");
    assert_eq!(run(vec![1, 0, 0]), 0, "read before the writes sees 0");
}

/// The atomic simulated register, explored exhaustively over all
/// schedules of a tiny workload, is strongly linearizable (it is atomic,
/// so every step is its own linearization point).
#[test]
fn atomic_register_is_strongly_linearizable_under_exhaustive_exploration() {
    let run = |driver: &mut ScheduleDriver| {
        let world = SimWorld::new(2);
        let mem = world.mem();
        let reg = mem.alloc("X", None::<u64>);
        let log: EventLog<Spec> = EventLog::new(&world);
        let r0 = reg.clone();
        let r1 = reg;
        let l0 = log.clone();
        let l1 = log.clone();
        let outcome = world.run(
            vec![
                Box::new(move |ctx| {
                    let id = l0.invoke(ctx.proc_id(), RegisterOp::Write(1));
                    r0.write(Some(1));
                    l0.respond(id, RegisterResp::Ack);
                }),
                Box::new(move |ctx| {
                    let id = l1.invoke(ctx.proc_id(), RegisterOp::Read);
                    let v = r1.read();
                    l1.respond(id, RegisterResp::Value(v));
                }),
            ],
            driver,
            100,
        );
        (outcome, log)
    };

    let transcripts = Mutex::new(Vec::new());
    let explorer = Explorer {
        max_runs: 100,
        mode: PruneMode::Unpruned,
        ..Explorer::default()
    };
    let explored = explorer.explore(|driver| {
        let (outcome, log) = run(driver);
        transcripts.lock().unwrap().push(log.transcript(&outcome));
        outcome
    });
    assert!(explored.exhausted);
    assert_eq!(explored.runs, 2, "two steps, two interleavings");

    let transcripts = transcripts.into_inner().unwrap();
    let tree = HistoryTree::from_transcripts(&transcripts);
    let report = check_strongly_linearizable(&Spec::new(), &tree);
    assert!(report.holds, "an atomic register is strongly linearizable");
}

/// World reuse: a reset world must replay a schedule **byte-identically**
/// to a freshly built one — same step records (register names, dense
/// ids, values, allocation sites), same transcript, same pretty
/// rendering (the format pinned by
/// `pretty_trace_format_carries_allocation_sites`). This is the
/// contract the pooled explorer relies on.
#[test]
fn reset_world_replays_byte_identical_transcripts() {
    let build = || {
        let world = SimWorld::new(2);
        let mem = world.mem();
        let reg = mem.alloc("X", None::<u64>);
        let log: EventLog<Spec> = EventLog::new(&world);
        (world, reg, log)
    };
    let programs = |reg: &sl_sim::SimRegister<Option<u64>>, log: &EventLog<Spec>| -> Vec<Program> {
        let r0 = reg.clone();
        let r1 = reg.clone();
        let l0 = log.clone();
        let l1 = log.clone();
        vec![
            Box::new(move |ctx| {
                ctx.pause();
                let id = l0.invoke(ctx.proc_id(), RegisterOp::Write(7));
                r0.write(Some(7));
                l0.respond(id, RegisterResp::Ack);
            }),
            Box::new(move |ctx| {
                ctx.pause();
                let id = l1.invoke(ctx.proc_id(), RegisterOp::Read);
                let v = r1.read();
                l1.respond(id, RegisterResp::Value(v));
            }),
        ]
    };
    let script = vec![0usize, 1, 0, 1, 0, 1, 0, 1];

    // Fresh world, one run: the reference.
    let (fresh_world, fresh_reg, fresh_log) = build();
    let mut sched = Scripted::new(script.clone());
    let reference = fresh_world.run(programs(&fresh_reg, &fresh_log), &mut sched, 100);
    assert!(reference.completed);

    // Reused world: run a *different* schedule first (dirtying memory
    // and history), then reset and replay the reference schedule.
    let (world, reg, log) = build();
    let mut other = Scripted::new(vec![1, 1, 0, 0, 1, 0, 0, 1]);
    let dirty = world.run(programs(&reg, &log), &mut other, 100);
    assert!(dirty.completed);
    assert_ne!(dirty.trace, reference.trace, "the dirtying run differs");
    world.reset();
    log.reset();
    assert_eq!(reg.peek(), None, "reset restores the initial value");
    let mut sched = Scripted::new(script);
    let replay = world.run(programs(&reg, &log), &mut sched, 100);
    assert_eq!(replay.trace, reference.trace, "byte-identical step records");
    assert_eq!(
        log.transcript(&replay),
        fresh_log.transcript(&reference),
        "byte-identical transcripts"
    );
    assert_eq!(
        log.pretty_transcript(&replay),
        fresh_log.pretty_transcript(&reference),
        "byte-identical pretty rendering (allocation sites preserved)"
    );
}

/// Registers allocated *during* a run are discarded by the reset, so a
/// replayed setup re-derives identical dense ids.
#[test]
fn reset_discards_in_run_allocations() {
    let world = SimWorld::new(1);
    let mem = world.mem();
    let reg = mem.alloc("X", 0u64);
    assert_eq!(world.register_count(), 1);
    let run = |world: &SimWorld, reg: &sl_sim::SimRegister<u64>, mem: &sl_sim::SimMem| {
        let r = reg.clone();
        let m = mem.clone();
        world.run(
            vec![Box::new(move |_| {
                let lazy = m.alloc("lazy", 1u64);
                r.write(lazy.read());
            })],
            &mut RoundRobin::new(),
            100,
        )
    };
    let first = run(&world, &reg, &mem);
    assert!(first.completed);
    assert_eq!(world.register_count(), 2, "in-run allocation recorded");
    world.reset();
    assert_eq!(world.register_count(), 1, "in-run allocation discarded");
    let second = run(&world, &reg, &mem);
    assert_eq!(first.trace, second.trace, "same dense ids on replay");
}

#[test]
fn proc_ctx_reports_identity() {
    let world = SimWorld::new(3);
    let ids = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let programs: Vec<Program> = (0..3)
        .map(|_| {
            let ids = ids.clone();
            Box::new(move |ctx: sl_sim::ProcCtx| {
                ids.lock().unwrap().push((ctx.pid(), ctx.proc_id()));
            }) as Program
        })
        .collect();
    let outcome = world.run(programs, &mut RoundRobin::new(), 100);
    assert!(outcome.completed);
    let mut got = ids.lock().unwrap().clone();
    got.sort();
    assert_eq!(got, vec![(0, ProcId(0)), (1, ProcId(1)), (2, ProcId(2))]);
}

#[test]
fn pauses_consume_decisions_but_not_shared_steps() {
    let world = SimWorld::new(2);
    let mem = world.mem();
    let reg = mem.alloc("X", 0u64);
    let r0 = reg.clone();
    let programs: Vec<Program> = vec![
        Box::new(move |ctx| {
            ctx.pause();
            r0.write(1);
            ctx.pause();
        }),
        Box::new(|ctx| {
            ctx.pause();
        }),
    ];
    let outcome = world.run(programs, &mut RoundRobin::new(), 100);
    assert!(outcome.completed);
    assert_eq!(
        outcome.total_steps(),
        4,
        "3 pauses + 1 write, all scheduled"
    );
    assert_eq!(outcome.shared_steps(), 1, "only the write touches memory");
    assert_eq!(outcome.shared_steps_of(0), 1);
    assert_eq!(outcome.shared_steps_of(1), 0);
}

#[test]
fn rmw_cells_take_one_step() {
    use sl_mem::RmwCell;
    let world = SimWorld::new(1);
    let mem = world.mem();
    let cell = mem.alloc_cell("C", 10u64);
    let c = cell.clone();
    let programs: Vec<Program> = vec![Box::new(move |_| {
        let old = c.update(|v| v + 5);
        assert_eq!(old, 10);
        assert_eq!(c.read(), 15);
    })];
    let outcome = world.run(programs, &mut RoundRobin::new(), 100);
    assert!(outcome.completed);
    assert_eq!(outcome.shared_steps(), 2, "one rmw + one read");
    let kinds: Vec<_> = outcome.steps().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        vec![sl_sim::AccessKind::Rmw, sl_sim::AccessKind::Read]
    );
}

#[test]
fn adaptive_scheduler_sees_register_contents_via_peek() {
    // A strong adversary: captures the register handle at setup and
    // decides based on its current value (the paper's full-information
    // scheduler).
    use sl_sim::FnScheduler;
    let world = SimWorld::new(2);
    let mem = world.mem();
    let reg = mem.alloc("X", 0u64);
    let r0 = reg.clone();
    let r1 = reg.clone();
    let spy = reg.clone();
    let seen = std::sync::Arc::new(std::sync::Mutex::new(0u64));
    let seen2 = seen.clone();
    // Adversary: let p0 run until X becomes 3, then switch to p1.
    let mut sched = FnScheduler(move |view: &sl_sim::SchedView<'_>| {
        if spy.peek() >= 3 && view.runnable.contains(&1) {
            1
        } else {
            *view.runnable.first().unwrap()
        }
    });
    let programs: Vec<Program> = vec![
        Box::new(move |_| {
            for i in 1..=10u64 {
                r0.write(i);
            }
        }),
        Box::new(move |_| {
            *seen2.lock().unwrap() = r1.read();
        }),
    ];
    let outcome = world.run(programs, &mut sched, 1000);
    assert!(outcome.completed);
    let v = *seen.lock().unwrap();
    assert_eq!(
        v, 3,
        "the adaptive adversary released the reader exactly at 3"
    );
}

/// The human-readable trace format is pinned: register steps carry the
/// `Mem::alloc` call site (this file), pauses render without a site,
/// and events render with arrows. (Moved here from the retired
/// engine-equivalence suite; the fiber VM is the only engine now, and
/// the portable-fibers parity run is the compatibility gate.)
#[test]
fn pretty_trace_format_carries_allocation_sites() {
    use sl_sim::{AccessKind, RoundRobin};

    let world = SimWorld::new(1);
    let mem = world.mem();
    let reg = mem.alloc("X", 0u64); // allocation site recorded here
    let log: EventLog<Spec> = EventLog::new(&world);
    let r = reg.clone();
    let l = log.clone();
    let programs: Vec<Program> = vec![Box::new(move |ctx| {
        ctx.pause();
        let id = l.invoke(ctx.proc_id(), RegisterOp::Write(5));
        r.write(5);
        l.respond(id, RegisterResp::Ack);
    })];
    let mut sched = RoundRobin::new();
    let outcome = world.run(programs, &mut sched, 100);
    assert!(outcome.completed);
    let pretty = log.pretty_transcript(&outcome);
    assert_eq!(
        pretty.len(),
        4,
        "pause, invoke, write, respond: {pretty:#?}"
    );
    assert_eq!(pretty[0], "p0 (pause)");
    assert_eq!(pretty[1], "p0 -> Write(5)");
    assert!(
        pretty[2].starts_with("p0 X.write(5) @ ") && pretty[2].contains("sim_integration.rs"),
        "step line must carry the allocation site: {}",
        pretty[2]
    );
    assert_eq!(pretty[3], "p0 <- Ack");

    // The StepRecord itself exposes the structured pieces.
    let step = outcome
        .steps()
        .find(|s| s.kind == AccessKind::Write)
        .unwrap();
    assert_eq!(step.reg_name(), "X");
    assert!(step.site().0.ends_with("sim_integration.rs"));
    assert_eq!(step.label(), "X.write(5)");
}
