//! End-to-end checks of the pooled, parallel exploration harness: the
//! object DAG agrees across worker counts (the determinism contract of
//! partitioned source-set DPOR) and with an independent oracle — a
//! materialised prefix tree of fresh-world transcripts — on objects
//! built through the public `ObjectBuilder` factory.

use std::sync::Mutex;

use sl_api::sim::{explore_object, DriveOps as _, SimExplore};
use sl_api::{AbaOps, ObjectBuilder};
use sl_check::{check_strongly_linearizable, HistoryTree, TreeDag};
use sl_sim::{EventLog, Explorer, Program, SimWorld};
use sl_spec::types::{AbaSpec, SnapshotSpec};
use sl_spec::{AbaOp, AbaResp, ProcId, SnapshotOp};

type ASpec = AbaSpec<u64>;
type SSpec = SnapshotSpec<u64>;

/// The oracle: the same workload explored without the harness — a
/// fresh world, object and event log per schedule, hand-written
/// programs, every transcript kept and merged into a [`HistoryTree`]
/// afterwards. Shares only the explorer and the object with the code
/// under test.
fn fresh_world_tree(
    workload: &[Vec<AbaOp<u64>>],
    cfg: &SimExplore,
) -> (sl_sim::ExploreOutcome, HistoryTree<ASpec>) {
    let n = workload.len();
    let transcripts = Mutex::new(Vec::new());
    let explorer = Explorer {
        max_runs: cfg.max_runs,
        mode: cfg.mode,
        ..Explorer::default()
    };
    let outcome = explorer.explore(|driver| {
        let world = SimWorld::new(n);
        let reg = ObjectBuilder::on(&world.mem())
            .processes(n)
            .aba_register::<u64>();
        let log: EventLog<ASpec> = EventLog::new(&world);
        let programs: Vec<Program> = workload
            .iter()
            .enumerate()
            .map(|(pid, ops)| {
                let mut h = reg.handle(ProcId(pid));
                let log = log.clone();
                let ops = ops.clone();
                Box::new(move |ctx: sl_sim::ProcCtx| {
                    for op in ops {
                        ctx.pause();
                        let id = log.invoke(ctx.proc_id(), op);
                        let resp = match op {
                            AbaOp::DWrite(v) => {
                                h.dwrite(v);
                                AbaResp::Ack
                            }
                            AbaOp::DRead => {
                                let (v, flag) = h.dread();
                                AbaResp::Value(v, flag)
                            }
                        };
                        log.respond(id, resp);
                    }
                }) as Program
            })
            .collect();
        let outcome = world.run(programs, driver, cfg.step_budget);
        transcripts.lock().unwrap().push(log.transcript(&outcome));
        outcome
    });
    let tree = HistoryTree::from_transcripts(&transcripts.into_inner().unwrap());
    (outcome, tree)
}

/// Theorem 12 through the pooled harness: the sharded DAG matches the
/// fresh-world tree oracle on counts, structure, and verdict at 1, 2,
/// and 4 workers.
#[test]
fn pooled_tree_and_dag_explorations_agree_across_workers() {
    let workload = [
        vec![AbaOp::DWrite(9), AbaOp::DWrite(10)],
        vec![AbaOp::DRead],
    ];
    let spec = ASpec::new(2);
    let (oracle, tree) = fresh_world_tree(&workload, &SimExplore::default());
    assert!(oracle.exhausted);
    let tree_hash = TreeDag::from_tree(&tree).structural_hash();
    let tree_report = check_strongly_linearizable(&spec, &tree);
    assert!(tree_report.holds);
    for workers in [1usize, 2, 4] {
        let cfg = SimExplore {
            workers,
            ..SimExplore::default()
        };
        let dag = explore_object::<ASpec, _, _, _>(
            |mem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>(),
            &workload,
            |h, op| h.drive(op),
            &cfg,
            None,
        );
        assert!(dag.outcome.exhausted, "{workers} workers");
        assert_eq!(oracle.runs, dag.outcome.runs, "{workers} workers");
        assert_eq!(oracle.pruned, dag.outcome.pruned, "{workers} workers");
        assert_eq!(oracle.cut_runs, dag.outcome.cut_runs, "{workers} workers");
        assert_eq!(
            tree_hash,
            dag.dag.structural_hash(),
            "{workers} workers: tree oracle and sharded DAG hold different transcript sets"
        );
        let report = dag.check_strong(&spec);
        assert!(report.holds, "{workers} workers");
        assert_eq!(
            tree_report.states_explored, report.states_explored,
            "{workers} workers"
        );
    }
}

/// The pooled world truly resets object state between replays: a
/// snapshot exploration whose scans would otherwise observe a previous
/// replay's updates still passes the strong-lin check at every worker
/// count.
#[test]
fn pooled_snapshot_exploration_is_clean_between_replays() {
    for workers in [1usize, 4] {
        let cfg = SimExplore {
            workers,
            ..SimExplore::default()
        };
        let explored = explore_object::<SSpec, _, _, _>(
            |mem| ObjectBuilder::on(mem).processes(2).atomic_snapshot::<u64>(),
            &[vec![SnapshotOp::Update(5)], vec![SnapshotOp::Scan]],
            |h, op| h.drive(op),
            &cfg,
            None,
        );
        assert!(explored.outcome.exhausted);
        assert!(
            explored.check_strong(&SSpec::new(2)).holds,
            "{workers} workers: stale state leaked across a world reset"
        );
    }
}
