//! The four pinned workloads: their set-up, one exploration each, and
//! the correctness oracle every exploration is checked against.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sl_api::sim::{serve_object_worker, DriveOps as _};
use sl_api::ObjectBuilder;
use sl_check::TreeDag;
use sl_dist::{read_frame, write_frame, DistCoordinator, FleetConfig, Frame};
use sl_sim::{CheckpointStore, PruneMode, ReplayPool, SimMem, SimWorld, StaticConflicts};
use sl_spec::types::{AbaSpec, SnapshotSpec};
use sl_spec::SeqSpec;

use crate::inputs;
use crate::layers::{Layers, TimedDispatcher};
use crate::verdict::{decide, explore, verdict, Backend, Job, Verdict};

type ASpec = AbaSpec<u64>;
type SSpec = SnapshotSpec<u64>;

/// Step budget of the ABA workloads (the fleet registry's budget).
const ABA_STEP_BUDGET: u64 = 2_000;
/// Step budget of the snapshot workloads.
const SNAPSHOT_STEP_BUDGET: u64 = 10_000;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 2, mixed roles, 3 processes, certificate, 1 thread.
    AbaMixedSeq,
    /// The same input on 2 explorer threads.
    AbaMixedPar2,
    /// Obs4 on Algorithm 1, Algorithm 3 over Afek et al., and the fully
    /// bounded snapshot, each checkpointed, on 1 thread.
    PaperSuite,
    /// The registered deep mixed workload through one worker process.
    AbaFleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::AbaMixedSeq,
        Workload::AbaMixedPar2,
        Workload::PaperSuite,
        Workload::AbaFleet,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AbaMixedSeq => "aba_mixed_seq",
            Workload::AbaMixedPar2 => "aba_mixed_par2",
            Workload::PaperSuite => "paper_suite",
            Workload::AbaFleet => "aba_fleet",
        }
    }

    /// Explorer threads of the workload's timed explorations.
    pub fn threads(self) -> usize {
        match self {
            Workload::AbaMixedSeq | Workload::PaperSuite => 1,
            Workload::AbaMixedPar2 | Workload::AbaFleet => 2,
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The known answer of one exploration: any difference is a failure.
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    /// Expected verdict.
    pub holds: bool,
    /// Schedules replayed (runs + cut).
    pub schedules: usize,
    /// Deepest refuted prefix (0 on PASS).
    pub conflict_depth: usize,
    /// Unique nodes of the merged DAG.
    pub unique_nodes: usize,
}

/// Algorithm 2, mixed roles, with the certificate (both `aba_mixed_*`).
pub const ABA_MIXED_PIN: Pin = Pin {
    holds: true,
    schedules: 158_697,
    conflict_depth: 0,
    unique_nodes: 5_770,
};
/// Algorithm 1 on the Observation-4 family: the refutation.
pub const OBS4_PIN: Pin = Pin {
    holds: false,
    schedules: 223_259,
    conflict_depth: 39,
    unique_nodes: 3_468,
};
/// Algorithm 3 over Afek et al., `Update` ‖ `Scan; Scan`.
pub const AFEK_PIN: Pin = Pin {
    holds: true,
    schedules: 39_740,
    conflict_depth: 0,
    unique_nodes: 2_007,
};
/// The fully bounded snapshot, `Update` ‖ `Scan`.
pub const BOUNDED_PIN: Pin = Pin {
    holds: true,
    schedules: 1_814,
    conflict_depth: 0,
    unique_nodes: 1_355,
};
/// The registered deep mixed workload, no certificate.
pub const FLEET_PIN: Pin = Pin {
    holds: true,
    schedules: 123_622,
    conflict_depth: 0,
    unique_nodes: 3_226,
};

/// The `paper_suite` checks, in their unrotated order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuitePart {
    /// Algorithm 1 on the Observation-4 family.
    Obs4,
    /// Algorithm 3 over Afek et al.
    AfekSnapshot,
    /// The fully bounded snapshot.
    BoundedSnapshot,
}

impl SuitePart {
    /// The parts, unrotated.
    pub const ALL: [SuitePart; 3] = [
        SuitePart::Obs4,
        SuitePart::AfekSnapshot,
        SuitePart::BoundedSnapshot,
    ];

    /// Name used in diagnostics and as the checkpoint identity.
    pub fn name(self) -> &'static str {
        match self {
            SuitePart::Obs4 => "obs4_alg1",
            SuitePart::AfekSnapshot => "snapshot_afek",
            SuitePart::BoundedSnapshot => "snapshot_bounded",
        }
    }

    /// The part's known answer.
    pub fn pin(self) -> Pin {
        match self {
            SuitePart::Obs4 => OBS4_PIN,
            SuitePart::AfekSnapshot => AFEK_PIN,
            SuitePart::BoundedSnapshot => BOUNDED_PIN,
        }
    }
}

/// Compares one exploration with its pin (and, where given, with the
/// merged-DAG hash of the 1-thread run of the same input). Returns one
/// line per miss.
pub fn misses(what: &str, v: &Verdict, pin: &Pin, reference: Option<u64>) -> Vec<String> {
    let mut out = Vec::new();
    let mut miss = |m: String| out.push(format!("{what}: {m}"));
    if v.holds != pin.holds {
        miss(format!(
            "verdict {} (pinned {})",
            pass(v.holds),
            pass(pin.holds)
        ));
    }
    if !v.outcome.exhausted {
        miss("schedule space not exhausted".into());
    }
    if v.outcome.partial || v.outcome.quarantined > 0 {
        miss(format!(
            "partial outcome ({} quarantined)",
            v.outcome.quarantined
        ));
    }
    if v.outcome.schedules_replayed() != pin.schedules {
        miss(format!(
            "{} schedules (pinned {})",
            v.outcome.schedules_replayed(),
            pin.schedules
        ));
    }
    if v.conflict_depth != pin.conflict_depth {
        miss(format!(
            "conflict depth {} (pinned {})",
            v.conflict_depth, pin.conflict_depth
        ));
    }
    if v.unique_nodes != pin.unique_nodes {
        miss(format!(
            "{} unique DAG nodes (pinned {})",
            v.unique_nodes, pin.unique_nodes
        ));
    }
    if let Some(hash) = reference {
        if v.hash != hash {
            miss(format!(
                "merged-DAG hash {:016x} differs from the 1-thread run's {hash:016x}",
                v.hash
            ));
        }
    }
    out
}

fn pass(holds: bool) -> &'static str {
    if holds {
        "PASS"
    } else {
        "FAIL"
    }
}

/// One exploration (one pass, for `paper_suite`) as the benchmark saw it.
pub struct Sample {
    /// Start to verdict, wall clock.
    pub ttv_s: f64,
    /// Wall clock of the exploration calls alone.
    pub explore_s: f64,
    /// Schedules replayed (runs + cut).
    pub schedules: usize,
    /// Oracle misses (empty when correct).
    pub misses: Vec<String>,
    /// Per-layer numbers (traced samples only).
    pub layers: Option<Layers>,
}

impl Sample {
    /// The sample of one exploration that took `ttv_s` to its verdict.
    fn of(v: Verdict, ttv_s: f64, misses: Vec<String>) -> Sample {
        let layers = v.layers.map(|mut l| {
            l.ttv_s = ttv_s;
            l
        });
        Sample {
            ttv_s,
            explore_s: v.explore_s,
            schedules: v.outcome.schedules_replayed(),
            misses,
            layers,
        }
    }
}

/// A workload after set-up: certificate probed, objects constructible,
/// fleet reachable, and the reference hash (where the oracle needs one)
/// computed.
pub struct Prepared {
    workload: Workload,
    seed: u64,
    statics: Option<Arc<StaticConflicts>>,
    stores: Vec<CheckpointStore>,
    worker_cmd: Vec<String>,
    reference: Option<u64>,
}

/// Builds a world and the object under test once, as every explorer
/// worker does before its first replay.
fn construct<S: SeqSpec, O>(n: usize, factory: impl Fn(&SimMem) -> O) {
    let world = SimWorld::new(n);
    let obj = factory(&world.mem());
    let pool: ReplayPool<S> = ReplayPool::new(world);
    drop((obj, pool));
}

/// Spawns one fleet worker, checks its `hello` against the fleet
/// identity, and shuts it down — the handshake the coordinator performs
/// on its first lease. The child is always reaped.
fn fleet_handshake(worker_cmd: &[String], name: &str) -> Result<(), String> {
    let mut child: Child = Command::new(&worker_cmd[0])
        .args(&worker_cmd[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn fleet worker: {e}"))?;
    let (Some(mut stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("fleet worker pipes missing".into());
    };
    let hello = read_frame(&mut BufReader::new(stdout))
        .and_then(|f| f.ok_or_else(|| "worker closed its pipe before hello".to_string()))
        .and_then(|text| Frame::parse(&text));
    let verdict = match hello {
        Ok(Frame::Hello { workload, mode, .. })
            if workload == name && mode == PruneMode::OptimalDpor.name() =>
        {
            Ok(())
        }
        Ok(other) => Err(format!("unexpected first frame from worker: {other:?}")),
        Err(e) => Err(format!("worker handshake failed: {e}")),
    };
    if verdict.is_ok() {
        let _ = write_frame(&mut stdin, &Frame::Shutdown.render());
    } else {
        let _ = child.kill();
    }
    drop(stdin);
    let status = child
        .wait()
        .map_err(|e| format!("reaping fleet worker: {e}"))?;
    verdict?;
    if !status.success() {
        return Err(format!("fleet worker exited with {status}"));
    }
    Ok(())
}

impl Prepared {
    /// The set-up a user pays before the first exploration: probe the
    /// certificate, construct worlds and objects, create checkpoint
    /// stores, spawn a fleet worker and await its `hello`. Timed by the
    /// caller as `setup_s`.
    pub fn setup(
        workload: Workload,
        seed: u64,
        scratch: &Path,
        worker_exe: &Path,
    ) -> Result<Prepared, String> {
        let mut prepared = Prepared {
            workload,
            seed,
            statics: None,
            stores: Vec::new(),
            worker_cmd: Vec::new(),
            reference: None,
        };
        match workload {
            Workload::AbaMixedSeq | Workload::AbaMixedPar2 => {
                let cert = sl_analyze::aba_certificate(3);
                prepared.statics = Some(Arc::new(cert.static_conflicts()));
                construct::<ASpec, _>(3, |m| {
                    ObjectBuilder::on(m).processes(3).aba_register::<u64>()
                });
            }
            Workload::PaperSuite => {
                construct::<ASpec, _>(2, |m| {
                    ObjectBuilder::on(m).processes(2).lin_aba_register::<u64>()
                });
                construct::<SSpec, _>(2, |m| {
                    ObjectBuilder::on(m).processes(2).afek().snapshot::<u64>()
                });
                construct::<SSpec, _>(2, |m| {
                    ObjectBuilder::on(m)
                        .processes(2)
                        .bounded_handshake()
                        .snapshot::<u64>()
                });
                std::fs::create_dir_all(scratch)
                    .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
                prepared.stores = SuitePart::ALL
                    .iter()
                    .map(|p| CheckpointStore::new(scratch, p.name()))
                    .collect();
            }
            Workload::AbaFleet => {
                construct::<ASpec, _>(3, |m| {
                    ObjectBuilder::on(m).processes(3).aba_register::<u64>()
                });
                prepared.worker_cmd = vec![
                    worker_exe.display().to_string(),
                    "--serve-worker".into(),
                    "--seed".into(),
                    seed.to_string(),
                ];
                fleet_handshake(&prepared.worker_cmd, &inputs::fleet_name(seed))?;
            }
        }
        Ok(prepared)
    }

    /// Runs the 1-thread reference exploration the oracle compares
    /// merged-DAG hashes against (`aba_mixed_par2`: the same input on
    /// one thread; `aba_fleet`: the same input in-process, symbolized).
    /// Returns the reference's own oracle misses.
    pub fn compute_reference(&mut self) -> Vec<String> {
        let (v, pin) = match self.workload {
            Workload::AbaMixedPar2 => (self.aba_mixed(1, false), ABA_MIXED_PIN),
            Workload::AbaFleet => (self.fleet_reference(), FLEET_PIN),
            Workload::AbaMixedSeq | Workload::PaperSuite => return Vec::new(),
        };
        self.reference = Some(v.hash);
        misses("reference", &v, &pin, None)
    }

    /// One exploration (one pass for `paper_suite`), checked against
    /// the oracle.
    pub fn sample(&self, traced: bool) -> Sample {
        match self.workload {
            Workload::AbaMixedSeq | Workload::AbaMixedPar2 => {
                let threads = self.workload.threads();
                let start = Instant::now();
                let v = self.aba_mixed(threads, traced);
                let ttv_s = start.elapsed().as_secs_f64();
                let reference = self.reference.filter(|_| threads > 1);
                let m = misses(self.workload.name(), &v, &ABA_MIXED_PIN, reference);
                Sample::of(v, ttv_s, m)
            }
            Workload::PaperSuite => self.suite_pass(traced),
            Workload::AbaFleet => {
                let start = Instant::now();
                let (v, degraded) = self.fleet(traced);
                let ttv_s = start.elapsed().as_secs_f64();
                let mut m = misses(self.workload.name(), &v, &FLEET_PIN, self.reference);
                if degraded {
                    m.push(format!(
                        "{}: the fleet degraded to in-process exploration",
                        self.workload.name()
                    ));
                }
                Sample::of(v, ttv_s, m)
            }
        }
    }

    fn aba_mixed(&self, threads: usize, traced: bool) -> Verdict {
        let ops = inputs::aba_mixed(self.seed);
        let job = Job {
            ops: &ops,
            step_budget: ABA_STEP_BUDGET,
            statics: self.statics.as_ref(),
            backend: Backend::Threads(threads),
        };
        let factory = |m: &SimMem| ObjectBuilder::on(m).processes(3).aba_register::<u64>();
        verdict(factory, &job, &ASpec::new(3), traced, false)
    }

    fn suite_pass(&self, traced: bool) -> Sample {
        let mut pass = Sample {
            ttv_s: 0.0,
            explore_s: 0.0,
            schedules: 0,
            misses: Vec::new(),
            layers: traced.then(Layers::default),
        };
        for i in inputs::suite_order(self.seed, SuitePart::ALL.len()) {
            let part = SuitePart::ALL[i];
            let store = &self.stores[i];
            let start = Instant::now();
            let v = self.suite_part(part, store, traced);
            let ttv_s = start.elapsed().as_secs_f64();
            let m = misses(part.name(), &v, &part.pin(), None);
            let s = Sample::of(v, ttv_s, m);
            pass.ttv_s += s.ttv_s;
            pass.explore_s += s.explore_s;
            pass.schedules += s.schedules;
            pass.misses.extend(s.misses);
            if let (Some(total), Some(l)) = (&mut pass.layers, &s.layers) {
                total.add(l);
            }
        }
        pass
    }

    fn suite_part(&self, part: SuitePart, store: &CheckpointStore, traced: bool) -> Verdict {
        let resumable = Backend::Resumable(store);
        match part {
            SuitePart::Obs4 => {
                let ops = inputs::obs4(self.seed);
                let job = Job {
                    ops: &ops,
                    step_budget: ABA_STEP_BUDGET,
                    statics: None,
                    backend: resumable,
                };
                let factory = |m: &SimMem| ObjectBuilder::on(m).processes(2).lin_aba_register();
                verdict(factory, &job, &ASpec::new(2), traced, false)
            }
            SuitePart::AfekSnapshot => {
                let ops = inputs::afek_snapshot(self.seed);
                let job = Job {
                    ops: &ops,
                    step_budget: SNAPSHOT_STEP_BUDGET,
                    statics: None,
                    backend: resumable,
                };
                let factory = |m: &SimMem| ObjectBuilder::on(m).processes(2).afek().snapshot();
                verdict(factory, &job, &SSpec::new(2), traced, false)
            }
            SuitePart::BoundedSnapshot => {
                let ops = inputs::bounded_snapshot(self.seed);
                let job = Job {
                    ops: &ops,
                    step_budget: SNAPSHOT_STEP_BUDGET,
                    statics: None,
                    backend: resumable,
                };
                let factory = |m: &SimMem| {
                    ObjectBuilder::on(m)
                        .processes(2)
                        .bounded_handshake()
                        .snapshot()
                };
                verdict(factory, &job, &SSpec::new(2), traced, false)
            }
        }
    }

    /// The fleet input explored in-process on one thread; the DAG is
    /// symbolized so its hash is comparable with the fleet's.
    fn fleet_reference(&self) -> Verdict {
        let ops = inputs::fleet(self.seed);
        let job = Job {
            ops: &ops,
            step_budget: fleet_config().step_budget,
            statics: None,
            backend: Backend::Threads(1),
        };
        let factory = |m: &SimMem| ObjectBuilder::on(m).processes(3).aba_register::<u64>();
        verdict(factory, &job, &ASpec::new(3), false, true)
    }

    /// One fleet exploration; also reports whether the fleet degraded
    /// (no worker could be spawned, so every task ran in-process).
    fn fleet(&self, traced: bool) -> (Verdict, bool) {
        let ops = inputs::fleet(self.seed);
        let name = inputs::fleet_name(self.seed);
        let remote: Mutex<Vec<TreeDag<ASpec>>> = Mutex::new(Vec::new());
        let cfg = FleetConfig {
            worker_cmd: self.worker_cmd.clone(),
            workers: 1,
            ..FleetConfig::default()
        };
        let coordinator: DistCoordinator<'_, ASpec> =
            DistCoordinator::new(cfg, &name, PruneMode::OptimalDpor.name(), &remote);
        let dispatcher = TimedDispatcher::new(&coordinator, traced);
        let job = Job {
            ops: &ops,
            step_budget: fleet_config().step_budget,
            statics: None,
            backend: Backend::Dispatched(&dispatcher),
        };
        let mut explored = explore(
            |m| ObjectBuilder::on(m).processes(3).aba_register::<u64>(),
            &job,
            traced,
        );
        let shutdown = Instant::now();
        coordinator.finish();
        let shutdown_s = shutdown.elapsed().as_secs_f64();
        let stat = |c: &AtomicU64| c.load(Ordering::SeqCst);
        let s = &coordinator.stats;
        let degraded = coordinator.is_degraded();
        if let Some(l) = &mut explored.layers {
            let blocked = dispatcher.blocked().as_secs_f64();
            l.dpor_self_s -= blocked;
            l.dist_dispatch_s = blocked;
            l.dist_shutdown_s = shutdown_s;
            l.layer_sum_s += shutdown_s;
            l.dist_dispatched = stat(&s.dispatched);
            l.dist_completed = stat(&s.completed);
            l.dist_declined = stat(&s.declined);
            l.dist_revoked = stat(&s.revoked);
            l.dist_quarantined = stat(&s.quarantined);
            l.dist_remote_schedules = dispatcher.remote_schedules();
        }
        drop(coordinator);
        let remote = remote.into_inner().expect("remote shard sink");
        (decide(&ASpec::new(3), explored, remote, true), degraded)
    }
}

/// The fleet registry's exploration config (one worker thread, as the
/// worker process runs it). Coordinator and worker must agree on the
/// step budget, or they would explore different subtrees.
fn fleet_config() -> sl_api::sim::SimExplore {
    sl_bench::workloads::dist_config(PruneMode::OptimalDpor, 1)
}

/// The worker-process side of `aba_fleet`: serves leased subtree tasks
/// of the seeded fleet input until the coordinator shuts it down. Uses
/// the registry's exploration config, as the repository's own worker
/// binary does.
pub fn serve_fleet_worker(seed: u64) -> Result<(), String> {
    let ops = inputs::fleet(seed);
    let n = ops.len();
    let cfg = fleet_config();
    serve_object_worker::<ASpec, _, _, _>(
        &inputs::fleet_name(seed),
        move |mem| ObjectBuilder::on(mem).processes(n).aba_register::<u64>(),
        &ops,
        |h, op| h.drive(op),
        &cfg,
    )
}

/// Where `paper_suite` keeps its checkpoints, under the build directory.
pub fn default_scratch() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("mcbench-scratch")
}
