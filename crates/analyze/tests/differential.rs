//! The pruned-mode differential suite: for representative family ×
//! substrate workloads, exploring under `PruneMode::StaticDpor` with a
//! probed certificate must
//!
//! 1. reach the **same strong-linearizability verdict and conflict
//!    depth** as `PruneMode::ValueDpor`,
//! 2. be **bit-identical across worker counts 1/2/4/8** (the
//!    certificate is consulted through an immutable shared reference;
//!    pruning decisions are schedule-local), and
//! 3. replay **no more schedules** than value-aware DPOR — strictly
//!    fewer wherever invocation-placement branching exists to prune.
//!
//! `PruneMode::OptimalDpor` rides the same skeleton with the same
//! obligations 1–2, plus the wakeup-sequence guarantees: **zero cut
//! replays** (no sleep-set-blocked run is ever initiated) and no more
//! *total* replays (runs + cuts) than value-aware DPOR. A randomized
//! sweep at the bottom cross-checks every prune mode, including the
//! unpruned reference, on generated workloads.

use std::sync::Arc;

use sl_api::sim::{explore_object, DriveOps as _, SimExplore};
use sl_api::ObjectBuilder;
use sl_sim::{ExploreOutcome, PruneMode, StaticConflicts};
use sl_spec::{AbaOp, AbaSpec, CounterOp, CounterSpec, SeqSpec, SnapshotOp, SnapshotSpec};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn cfg(mode: PruneMode, workers: usize, statics: Option<Arc<StaticConflicts>>) -> SimExplore {
    SimExplore {
        mode,
        workers,
        statics,
        max_runs: 2_000_000,
        ..SimExplore::default()
    }
}

/// Explores `workload`, asserts exhaustion, and returns the outcome
/// plus the strong-linearizability report.
fn run<S, O, F>(
    spec: &S,
    factory: F,
    workload: &[Vec<S::Op>],
    c: &SimExplore,
) -> (ExploreOutcome, sl_check::StrongLinReport)
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: sl_api::SharedObject<sl_sim::SimMem>,
    O::Handle: sl_api::sim::DriveOps<S>,
    F: Fn(&sl_sim::SimMem) -> O + Send + Sync,
{
    let explored = explore_object::<S, O, F, _>(factory, workload, |h, op| h.drive(op), c, None);
    assert!(
        explored.outcome.exhausted,
        "budget too small: {:?}",
        explored.outcome
    );
    let report = explored.check_strong(spec);
    (explored.outcome, report)
}

/// The shared differential skeleton: ValueDpor baseline vs StaticDpor
/// with `cert`'s runtime form, across all worker counts.
fn differential<S, O, F>(
    label: &str,
    spec: &S,
    factory: F,
    workload: &[Vec<S::Op>],
    statics: StaticConflicts,
    expect_strictly_fewer: bool,
) where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: sl_api::SharedObject<sl_sim::SimMem>,
    O::Handle: sl_api::sim::DriveOps<S>,
    F: Fn(&sl_sim::SimMem) -> O + Send + Sync + Copy,
{
    let st = Arc::new(statics);
    let (value_out, value_rep) =
        run::<S, O, F>(spec, factory, workload, &cfg(PruneMode::ValueDpor, 1, None));
    let mut static_outs: Vec<(ExploreOutcome, sl_check::StrongLinReport)> = Vec::new();
    for &w in &WORKER_COUNTS {
        static_outs.push(run::<S, O, F>(
            spec,
            factory,
            workload,
            &cfg(PruneMode::StaticDpor, w, Some(Arc::clone(&st))),
        ));
    }
    let (static_out, static_rep) = &static_outs[0];
    for (i, (out, rep)) in static_outs.iter().enumerate() {
        assert_eq!(
            out, static_out,
            "{label}: StaticDpor not bit-identical at {} workers",
            WORKER_COUNTS[i]
        );
        assert_eq!(
            (rep.holds, rep.conflict_depth),
            (static_rep.holds, static_rep.conflict_depth),
            "{label}: verdict/conflict-depth diverged at {} workers",
            WORKER_COUNTS[i]
        );
    }
    assert_eq!(
        value_rep.holds, static_rep.holds,
        "{label}: StaticDpor changed the strong-lin verdict"
    );
    assert_eq!(
        value_rep.conflict_depth, static_rep.conflict_depth,
        "{label}: StaticDpor changed the conflict depth"
    );
    assert!(
        static_out.runs <= value_out.runs,
        "{label}: StaticDpor replayed more ({} > {})",
        static_out.runs,
        value_out.runs
    );
    if expect_strictly_fewer {
        assert!(
            static_out.runs < value_out.runs,
            "{label}: expected placement pruning, got {} = {}",
            static_out.runs,
            value_out.runs
        );
        assert!(
            st.telemetry().relaxed > 0,
            "{label}: no placement relaxation fired"
        );
    }

    // OptimalDpor leg: same verdict, bit-identical across workers,
    // structurally cut-free, and no more total replays than the
    // value-aware baseline. The certificate is handed over too —
    // optimal mode consults it opportunistically (placement
    // relaxation) without requiring it.
    let mut optimal_outs: Vec<(ExploreOutcome, sl_check::StrongLinReport)> = Vec::new();
    for &w in &WORKER_COUNTS {
        optimal_outs.push(run::<S, O, F>(
            spec,
            factory,
            workload,
            &cfg(PruneMode::OptimalDpor, w, Some(Arc::clone(&st))),
        ));
    }
    let (optimal_out, optimal_rep) = &optimal_outs[0];
    for (i, (out, rep)) in optimal_outs.iter().enumerate() {
        assert_eq!(
            out, optimal_out,
            "{label}: OptimalDpor not bit-identical at {} workers",
            WORKER_COUNTS[i]
        );
        assert_eq!(
            (rep.holds, rep.conflict_depth),
            (optimal_rep.holds, optimal_rep.conflict_depth),
            "{label}: optimal verdict diverged at {} workers",
            WORKER_COUNTS[i]
        );
    }
    assert_eq!(
        (value_rep.holds, value_rep.conflict_depth),
        (optimal_rep.holds, optimal_rep.conflict_depth),
        "{label}: OptimalDpor changed the strong-lin verdict"
    );
    assert_eq!(
        optimal_out.cut_runs, 0,
        "{label}: OptimalDpor initiated a sleep-set-blocked replay"
    );
    assert!(
        optimal_out.schedules_replayed() <= value_out.schedules_replayed(),
        "{label}: OptimalDpor replayed more in total ({} > {})",
        optimal_out.schedules_replayed(),
        value_out.schedules_replayed()
    );
}

#[test]
fn aba_mixed_three_process() {
    let workload = vec![
        vec![AbaOp::DWrite(1)],
        vec![AbaOp::DWrite(2)],
        vec![AbaOp::DRead],
    ];
    differential(
        "aba mixed 3-proc",
        &AbaSpec::new(3),
        |mem: &sl_sim::SimMem| ObjectBuilder::on(mem).processes(3).aba_register::<u64>(),
        &workload,
        sl_analyze::aba_certificate(3).static_conflicts(),
        true,
    );
}

#[test]
fn lin_aba_violation_is_preserved() {
    // Algorithm 1 is *not* strongly linearizable; the pruned
    // exploration must still exhibit the violation (same verdict).
    let workload = vec![
        vec![AbaOp::DWrite(1), AbaOp::DWrite(2)],
        vec![AbaOp::DRead, AbaOp::DRead],
    ];
    differential(
        "lin-aba 2-proc",
        &AbaSpec::new(2),
        |mem: &sl_sim::SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .lin_aba_register::<u64>()
        },
        &workload,
        sl_analyze::lin_aba_certificate(2).static_conflicts(),
        false,
    );
}

#[test]
fn double_collect_snapshot() {
    let workload = vec![vec![SnapshotOp::Update(5)], vec![SnapshotOp::Scan]];
    differential(
        "double-collect snapshot",
        &SnapshotSpec::new(2),
        |mem: &sl_sim::SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .double_collect()
                .snapshot::<u64>()
        },
        &workload,
        {
            let cert = sl_analyze::catalog(2)
                .into_iter()
                .find(|c| c.family == "snapshot" && c.substrate == "double-collect")
                .expect("catalog entry");
            cert.static_conflicts()
        },
        true,
    );
}

#[test]
fn bounded_handshake_counter() {
    let workload = vec![vec![CounterOp::Inc], vec![CounterOp::Read]];
    differential(
        "bounded-handshake counter",
        &CounterSpec,
        |mem: &sl_sim::SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .bounded_handshake()
                .counter()
        },
        &workload,
        {
            let cert = sl_analyze::catalog(2)
                .into_iter()
                .find(|c| c.family == "counter" && c.substrate == "bounded-handshake")
                .expect("catalog entry");
            cert.static_conflicts()
        },
        true,
    );
}

/// Splitmix64 — a tiny deterministic generator so the randomized sweep
/// needs no external crate and every failure reproduces from its seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Randomized cross-mode sweep: generated ABA-register workloads must
/// produce the same strong-linearizability verdict and conflict depth
/// under every prune mode, at one and at four workers — and the
/// optimal mode must stay cut-free while replaying no more in total
/// than the value-aware baseline it refines.
#[test]
fn randomized_workloads_agree_across_all_modes() {
    for seed in 0..6u64 {
        let mut s = seed;
        // 2 processes, 1–2 ops each (total capped at 3), ops drawn from
        // {DRead, DWrite(1), DWrite(2)}.
        let mut workload: Vec<Vec<AbaOp<u64>>> = Vec::new();
        let mut total = 0usize;
        for _ in 0..2 {
            let k = usize::min(1 + (splitmix(&mut s) % 2) as usize, 3 - total);
            total += k;
            workload.push(
                (0..k)
                    .map(|_| match splitmix(&mut s) % 3 {
                        0 => AbaOp::DRead,
                        r => AbaOp::DWrite(r),
                    })
                    .collect(),
            );
        }
        let spec = AbaSpec::new(2);
        let factory =
            |mem: &sl_sim::SimMem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>();
        let (value_out, value_rep) = run::<AbaSpec<u64>, _, _>(
            &spec,
            factory,
            &workload,
            &cfg(PruneMode::ValueDpor, 1, None),
        );
        for mode in [PruneMode::SourceDpor, PruneMode::OptimalDpor] {
            for workers in [1, 4] {
                let (out, rep) =
                    run::<AbaSpec<u64>, _, _>(&spec, factory, &workload, &cfg(mode, workers, None));
                assert_eq!(
                    (rep.holds, rep.conflict_depth),
                    (value_rep.holds, value_rep.conflict_depth),
                    "seed {seed} {workload:?}: {mode:?}@{workers}w verdict diverged"
                );
                if mode == PruneMode::OptimalDpor {
                    assert_eq!(
                        out.cut_runs, 0,
                        "seed {seed} {workload:?}: optimal cut a replay at {workers}w"
                    );
                    assert!(
                        out.schedules_replayed() <= value_out.schedules_replayed(),
                        "seed {seed} {workload:?}: optimal replayed more ({} > {})",
                        out.schedules_replayed(),
                        value_out.schedules_replayed()
                    );
                }
            }
        }
    }
}

/// Mirror of the sim-deep `sl_aba_three_process_mixed_deep` workload
/// (2+1 writers, 1 reader — 179,697 ValueDpor schedules at the PR 5
/// baseline): StaticDpor must exhaust it with strictly fewer replays
/// and the identical verdict.
#[test]
#[ignore = "deep: run with --ignored (sim-deep CI job)"]
fn aba_three_process_mixed_deep() {
    let workload = vec![
        vec![AbaOp::DWrite(1), AbaOp::DWrite(2)],
        vec![AbaOp::DWrite(3)],
        vec![AbaOp::DRead],
    ];
    let st = Arc::new(sl_analyze::aba_certificate(3).static_conflicts());
    let spec = AbaSpec::new(3);
    let factory = |mem: &sl_sim::SimMem| ObjectBuilder::on(mem).processes(3).aba_register::<u64>();
    let (value_out, value_rep) = run::<AbaSpec<u64>, _, _>(
        &spec,
        factory,
        &workload,
        &cfg(PruneMode::ValueDpor, sl_sim::env_workers(), None),
    );
    let (static_out, static_rep) = run::<AbaSpec<u64>, _, _>(
        &spec,
        factory,
        &workload,
        &cfg(
            PruneMode::StaticDpor,
            sl_sim::env_workers(),
            Some(Arc::clone(&st)),
        ),
    );
    assert_eq!(value_rep.holds, static_rep.holds);
    assert_eq!(value_rep.conflict_depth, static_rep.conflict_depth);
    assert!(
        static_out.runs < value_out.runs,
        "deep mixed: {} !< {}",
        static_out.runs,
        value_out.runs
    );
    let t = st.telemetry();
    assert!(t.relaxed > 0 && t.validated > 0, "{t:?}");
    let (optimal_out, optimal_rep) = run::<AbaSpec<u64>, _, _>(
        &spec,
        factory,
        &workload,
        &cfg(
            PruneMode::OptimalDpor,
            sl_sim::env_workers(),
            Some(Arc::clone(&st)),
        ),
    );
    assert_eq!(value_rep.holds, optimal_rep.holds);
    assert_eq!(value_rep.conflict_depth, optimal_rep.conflict_depth);
    assert_eq!(optimal_out.cut_runs, 0, "deep mixed: optimal cut a replay");
    assert!(
        optimal_out.schedules_replayed() < static_out.schedules_replayed(),
        "deep mixed: optimal total {} !< static total {}",
        optimal_out.schedules_replayed(),
        static_out.schedules_replayed()
    );
}
