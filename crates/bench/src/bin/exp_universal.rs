//! Experiment E10 — Theorems 54 and 3: the Aspnes–Herlihy universal
//! construction for simple types.
//!
//! For each example simple type: random-schedule linearizability checks,
//! plus bounded exhaustive strong-linearizability model checking of a
//! 2-process workload over (a) an atomic root (Theorem 54) and (b) the
//! paper's strongly linearizable snapshot as root (Theorem 3).

use std::sync::Mutex;

use sl_api::ObjectBuilder;
use sl_bench::print_table;
use sl_check::{check_linearizable, check_strongly_linearizable, HistoryTree};
use sl_core::SnapshotObject;
use sl_sim::{EventLog, Explorer, Program, PruneMode, SeededRandom, SimWorld};
use sl_spec::{CounterOp, GrowSetOp, MaxRegisterOp, ProcId};
use sl_universal::types::{CounterType, GrowSetType, MaxRegisterType, RegOp, RegisterType};
use sl_universal::{NodeRef, SimpleSpec, SimpleType, Universal};

/// Random-schedule linearizability across `seeds` runs; returns the
/// number of histories checked (panics on a violation).
fn lin_random<T: SimpleType>(ty: T, ops: Vec<Vec<T::Op>>, seeds: u64) -> u64 {
    let n = ops.len();
    for seed in 0..seeds {
        let world = SimWorld::new(n);
        let mem = world.mem();
        let root = ObjectBuilder::on(&mem)
            .processes(n)
            .atomic_snapshot::<NodeRef<T>>();
        let obj = Universal::new(ty.clone(), root, n);
        let log: EventLog<SimpleSpec<T>> = EventLog::new(&world);
        let mut programs: Vec<Program> = Vec::new();
        for (pid, my_ops) in ops.iter().enumerate() {
            let mut h = obj.handle(ProcId(pid));
            let log = log.clone();
            let my_ops = my_ops.clone();
            programs.push(Box::new(move |ctx| {
                for op in my_ops {
                    ctx.pause();
                    let id = log.invoke(ctx.proc_id(), op.clone());
                    let resp = h.execute(op);
                    log.respond(id, resp);
                }
            }));
        }
        let mut sched = SeededRandom::new(seed);
        let outcome = world.run(programs, &mut sched, 1_000_000);
        assert!(outcome.completed);
        let h = log.history();
        assert!(
            check_linearizable(&SimpleSpec(ty.clone()), &h).is_some(),
            "non-linearizable history (seed {seed})"
        );
    }
    seeds
}

/// Bounded exhaustive strong-linearizability check of a 2-process
/// workload `[op0, op1]`; `sl_root` selects the Theorem-3 configuration.
fn strong_bounded<T: SimpleType>(
    ty: T,
    op0: T::Op,
    op1: T::Op,
    sl_root: bool,
    max_runs: usize,
) -> (usize, bool, bool) {
    let transcripts = Mutex::new(Vec::new());
    let explorer = Explorer {
        max_runs,
        mode: PruneMode::Unpruned,
        ..Explorer::default()
    };
    let explored = explorer.explore(|driver| {
        let world = SimWorld::new(2);
        let mem = world.mem();
        let log: EventLog<SimpleSpec<T>> = EventLog::new(&world);
        let builder = ObjectBuilder::on(&mem).processes(2);
        let programs: Vec<Program> = if sl_root {
            let obj = builder.universal(ty.clone());
            mk_programs(&obj, &log, op0.clone(), op1.clone())
        } else {
            let root = builder.atomic_snapshot::<NodeRef<T>>();
            let obj = Universal::new(ty.clone(), root, 2);
            mk_programs(&obj, &log, op0.clone(), op1.clone())
        };
        let outcome = world.run(programs, driver, 2_000);
        transcripts.lock().unwrap().push(log.transcript(&outcome));
        outcome
    });
    let tree = HistoryTree::from_transcripts(&transcripts.into_inner().unwrap());
    let report = check_strongly_linearizable(&SimpleSpec(ty), &tree);
    (explored.runs, explored.exhausted, report.holds)
}

fn mk_programs<T: SimpleType, O: SnapshotObject<NodeRef<T>>>(
    obj: &Universal<T, O>,
    log: &EventLog<SimpleSpec<T>>,
    op0: T::Op,
    op1: T::Op,
) -> Vec<Program> {
    [op0, op1]
        .into_iter()
        .enumerate()
        .map(|(pid, op)| {
            let mut h = obj.handle(ProcId(pid));
            let log = log.clone();
            Box::new(move |ctx: sl_sim::ProcCtx| {
                ctx.pause();
                let id = log.invoke(ctx.proc_id(), op.clone());
                let resp = h.execute(op);
                log.respond(id, resp);
            }) as Program
        })
        .collect()
}

fn main() {
    println!("# E10 — Theorems 54/3: universal construction for simple types\n");

    println!("## Random-schedule linearizability (atomic root, 3 processes)\n");
    let mut rows = Vec::new();
    let checked = lin_random(
        CounterType,
        vec![
            vec![CounterOp::Inc, CounterOp::Read],
            vec![CounterOp::Inc, CounterOp::Read],
            vec![CounterOp::Read, CounterOp::Read],
        ],
        10,
    );
    rows.push(vec!["counter".into(), checked.to_string(), "ok".into()]);
    let checked = lin_random(
        RegisterType,
        vec![
            vec![RegOp::Write(1), RegOp::Read],
            vec![RegOp::Write(2), RegOp::Read],
            vec![RegOp::Read, RegOp::Read],
        ],
        10,
    );
    rows.push(vec!["register".into(), checked.to_string(), "ok".into()]);
    let checked = lin_random(
        MaxRegisterType,
        vec![
            vec![MaxRegisterOp::MaxWrite(5), MaxRegisterOp::MaxRead],
            vec![MaxRegisterOp::MaxWrite(9), MaxRegisterOp::MaxRead],
            vec![MaxRegisterOp::MaxRead, MaxRegisterOp::MaxRead],
        ],
        10,
    );
    rows.push(vec![
        "max-register".into(),
        checked.to_string(),
        "ok".into(),
    ]);
    let checked = lin_random(
        GrowSetType,
        vec![
            vec![GrowSetOp::Insert(1), GrowSetOp::Contains(2)],
            vec![GrowSetOp::Insert(2), GrowSetOp::Contains(1)],
            vec![GrowSetOp::Contains(1), GrowSetOp::Contains(2)],
        ],
        10,
    );
    rows.push(vec!["grow-set".into(), checked.to_string(), "ok".into()]);
    print_table(&["simple type", "seeds checked", "linearizable"], &rows);

    println!("\n## Bounded exhaustive strong-linearizability (2 processes)\n");
    let mut rows = Vec::new();
    for (label, sl_root, max_runs) in [
        ("counter, atomic root (Thm 54)", false, 20_000),
        ("counter, SL-snapshot root (Thm 3)", true, 4_000),
    ] {
        let (runs, exhausted, holds) = strong_bounded(
            CounterType,
            CounterOp::Inc,
            CounterOp::Read,
            sl_root,
            max_runs,
        );
        rows.push(vec![
            label.to_string(),
            runs.to_string(),
            exhausted.to_string(),
            holds.to_string(),
        ]);
    }
    {
        let (label, op0, op1) = ("register, atomic root", RegOp::Write(1), RegOp::Read);
        let (runs, exhausted, holds) = strong_bounded(RegisterType, op0, op1, false, 20_000);
        rows.push(vec![
            label.to_string(),
            runs.to_string(),
            exhausted.to_string(),
            holds.to_string(),
        ]);
    }
    print_table(
        &[
            "configuration",
            "schedules",
            "exhausted",
            "strongly linearizable",
        ],
        &rows,
    );
    println!(
        "\nPaper expectation: all rows hold. The SL-snapshot-root row is the \
         end-to-end Theorem 3 stack: simple type over Algorithm 3 over \
         Algorithm 2 over plain registers."
    );
}
