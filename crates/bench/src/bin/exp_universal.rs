//! Experiment E10 — Theorems 54 and 3: the Aspnes–Herlihy universal
//! construction for simple types.
//!
//! For each example simple type: random-schedule linearizability checks,
//! plus bounded exhaustive strong-linearizability model checking of a
//! 2-process workload over (a) an atomic root (Theorem 54) and (b) the
//! paper's strongly linearizable snapshot as root (Theorem 3). Exits
//! non-zero if a row the paper expects to hold does not.

use std::sync::Arc;

use sl_api::sim::{explore_object, run_object_schedule_with, SimExplore};
use sl_api::{ObjectBuilder, UniversalOps};
use sl_bench::print_table;
use sl_check::check_linearizable;
use sl_sim::{PruneMode, SeededRandom, SimMem};
use sl_spec::{CounterOp, GrowSetOp, MaxRegisterOp};
use sl_universal::types::{CounterType, GrowSetType, MaxRegisterType, RegOp, RegisterType};
use sl_universal::{NodeRef, SimpleSpec, SimpleType, Universal};

/// The apply closure of every run here: executes one simple-type
/// invocation on a universal-construction handle.
fn execute<T: SimpleType, H: UniversalOps<T>>(h: &mut H, op: &T::Op) -> T::Resp {
    h.execute(op.clone())
}

/// The construction over an atomic root snapshot (Theorem 54).
fn atomic_root<T: SimpleType>(
    ty: &T,
    n: usize,
) -> impl Fn(&SimMem) -> Universal<T, sl_core::AtomicSnapshot<NodeRef<T>, SimMem>> + Sync + '_ {
    move |mem| {
        let root = ObjectBuilder::on(mem)
            .processes(n)
            .atomic_snapshot::<NodeRef<T>>();
        Universal::new(ty.clone(), root, n)
    }
}

/// Random-schedule linearizability across `seeds` runs; returns the
/// number of histories checked (panics on a violation).
fn lin_random<T: SimpleType>(ty: T, ops: Vec<Vec<T::Op>>, seeds: u64) -> u64 {
    let factory = atomic_root(&ty, ops.len());
    let apply = Arc::new(execute::<T, _>);
    for seed in 0..seeds {
        let run = run_object_schedule_with::<SimpleSpec<T>, _, _, _>(
            &factory,
            &ops,
            &apply,
            &mut SeededRandom::new(seed),
            1_000_000,
        );
        assert!(run.outcome.completed);
        assert!(
            check_linearizable(&SimpleSpec(ty.clone()), &run.history).is_some(),
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
    let workload = [vec![op0], vec![op1]];
    let cfg = SimExplore {
        max_runs,
        mode: PruneMode::Unpruned,
        workers: 1,
        step_budget: 2_000,
        ..SimExplore::default()
    };
    let explored = if sl_root {
        let factory = |mem: &SimMem| ObjectBuilder::on(mem).processes(2).universal(ty.clone());
        explore_object(factory, &workload, execute::<T, _>, &cfg, None)
    } else {
        explore_object(atomic_root(&ty, 2), &workload, execute::<T, _>, &cfg, None)
    };
    let holds = explored.check_strong(&SimpleSpec(ty)).holds;
    (explored.outcome.runs, explored.outcome.exhausted, holds)
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
    let mut all_hold = true;
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
        all_hold &= holds;
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
        all_hold &= holds;
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
    if !all_hold {
        eprintln!("exp_universal: a row the paper expects to hold does not");
        std::process::exit(1);
    }
}
