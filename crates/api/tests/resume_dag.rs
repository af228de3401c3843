//! End-to-end crash-resilience gate for the object-DAG pipeline: an
//! exploration interrupted by schedule budgets and resumed from its
//! checkpoint must union to the *bit-identical* result of the
//! uninterrupted run — same merged-DAG structural hash, same strong-lin
//! verdict and conflict depth, same exploration counters — at every
//! worker count. The partial rounds' shards and the resumed rounds'
//! shards overlap on abandoned subtrees; hash-consing in
//! [`TreeDag::merge`] dedupes the overlap, so the union is exact.

use sl_api::sim::{explore_object, DriveOps as _, SimExplore};
use sl_api::ObjectBuilder;
use sl_check::{check_strongly_linearizable_dag, TreeDag};
use sl_sim::{CheckpointPolicy, CheckpointStore, PruneMode, ResumeSession};
use sl_spec::types::AbaSpec;
use sl_spec::AbaOp;

type ASpec = AbaSpec<u64>;

fn resume_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sl-api-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn interrupted_dag_exploration_unions_to_the_uninterrupted_result() {
    let workload = [
        vec![AbaOp::DWrite(9), AbaOp::DWrite(10)],
        vec![AbaOp::DRead],
    ];
    let factory = |mem: &sl_sim::SimMem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>();
    let spec = ASpec::new(2);

    for workers in [1usize, 2, 4] {
        let cfg = SimExplore {
            mode: PruneMode::OptimalDpor,
            workers,
            ..SimExplore::default()
        };
        let reference =
            explore_object::<ASpec, _, _, _>(factory, &workload, |h, op| h.drive(op), &cfg, None);
        assert!(reference.outcome.exhausted, "{workers} workers");
        let ref_report = reference.check_strong(&spec);

        // Re-run the same exploration in small schedule-budget chunks,
        // each round draining to a checkpoint and the next resuming it.
        let dir = resume_dir(&format!("dag-{workers}"));
        let store = CheckpointStore::new(&dir, "aba-2x2");
        let mut shards: Vec<TreeDag<ASpec>> = Vec::new();
        let mut rounds = 0usize;
        let last = loop {
            rounds += 1;
            assert!(rounds < 100, "resume loop failed to converge");
            let session = ResumeSession {
                policy: CheckpointPolicy {
                    every_replays: 3,
                    // The budget counts the union of resumed base and
                    // live schedules, so a fixed increment per round
                    // drains each round after ~120 fresh replays (the
                    // workload explores ~1.1k schedules in total).
                    max_schedules: Some(120 * rounds as u64),
                    deadline: None,
                },
                ..ResumeSession::new(&store)
            };
            let round = explore_object::<ASpec, _, _, _>(
                factory,
                &workload,
                |h, op| h.drive(op),
                &cfg,
                Some(&session),
            );
            let drained = round.outcome.drained;
            shards.push(round.dag);
            if !drained {
                break round.outcome;
            }
            assert!(round.outcome.partial, "a drained outcome is partial");
            assert!(store.exists(), "a drained round leaves its checkpoint");
        };

        assert!(rounds > 1, "the budget must actually interrupt the run");
        assert!(last.exhausted && !last.partial, "{workers} workers");
        assert!(!store.exists(), "a finished run deletes its checkpoint");
        assert_eq!(last.runs, reference.outcome.runs, "{workers} workers");
        assert_eq!(last.cut_runs, reference.outcome.cut_runs);
        assert_eq!(last.pruned, reference.outcome.pruned);

        let union = TreeDag::merge(shards);
        assert_eq!(
            union.structural_hash(),
            reference.dag.structural_hash(),
            "merged DAG union must be bit-identical at {workers} workers"
        );
        let report = check_strongly_linearizable_dag(&spec, &union);
        assert_eq!(report.holds, ref_report.holds);
        assert_eq!(report.conflict_depth, ref_report.conflict_depth);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
