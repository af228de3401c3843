//! Pinned Algorithm-2 workloads shared by the throughput experiment,
//! the distributed worker binary, and the bit-identity test suite.
//!
//! Two families live here:
//!
//! * **Program-level** builders ([`aba_programs`], [`mixed3_programs`])
//!   and the pooled replay context ([`PooledAba`]) — the raw
//!   `SimWorld` closures `exp_sim_throughput` replays directly.
//! * The **distributed registry** ([`dist_ops`], [`dist_mode`],
//!   [`dist_config`]) — op-level workloads keyed by the name that
//!   travels in the fleet's `hello`/`task` frames. The coordinator and
//!   every worker process resolve the *same* name through this table,
//!   so both sides replay byte-identical schedules: any drift in ops,
//!   prune mode, or step budget between processes would silently break
//!   the bit-identical-failover contract, which is why the knobs are
//!   centralised here rather than duplicated in each binary.

use sl_api::sim::SimExplore;
use sl_core::aba::{AbaHandle as _, SlAbaRegister};
use sl_sim::{EventLog, Program, PruneMode, ReplayPool, SimMem};
use sl_spec::types::AbaSpec;
use sl_spec::{AbaOp, AbaResp, ProcId};

/// The sequential specification every workload here checks against.
pub type ASpec = AbaSpec<u64>;

/// Builds the 2-process Algorithm-2 programs (`writes` DWrites vs
/// `reads` DReads) over a possibly reused register and log.
pub fn aba_programs(
    reg: &SlAbaRegister<u64, SimMem>,
    log: &EventLog<ASpec>,
    writes: u64,
    reads: u64,
) -> Vec<Program> {
    let mut w = reg.handle(ProcId(0));
    let wl = log.clone();
    let mut r = reg.handle(ProcId(1));
    let rl = log.clone();
    vec![
        Box::new(move |ctx| {
            for i in 0..writes {
                ctx.pause();
                let id = wl.invoke(ctx.proc_id(), AbaOp::DWrite(9 + i));
                w.dwrite(9 + i);
                wl.respond(id, AbaResp::Ack);
            }
        }),
        Box::new(move |ctx| {
            for _ in 0..reads {
                ctx.pause();
                let id = rl.invoke(ctx.proc_id(), AbaOp::DRead);
                let (v, a) = r.dread();
                rl.respond(id, AbaResp::Value(v, a));
            }
        }),
    ]
}

/// A pinned **mixed-role** 3-process workload (two writers + one
/// reader; `writer_ops[p]` DWrites for writer `p`, one DRead): the
/// family whose trace growth is ROADMAP constraint (b), where
/// value-aware commutation and invocation-placement pruning both bite.
pub fn mixed3_programs(
    reg: &SlAbaRegister<u64, SimMem>,
    log: &EventLog<ASpec>,
    writer_ops: &'static [u64],
) -> Vec<Program> {
    let mut programs: Vec<Program> = Vec::new();
    for (p, &ops) in writer_ops.iter().enumerate() {
        let mut w = reg.handle(ProcId(p));
        let l = log.clone();
        programs.push(Box::new(move |ctx| {
            for i in 0..ops {
                ctx.pause();
                let v = 9 + 10 * p as u64 + i;
                let id = l.invoke(ctx.proc_id(), AbaOp::DWrite(v));
                w.dwrite(v);
                l.respond(id, AbaResp::Ack);
            }
        }));
    }
    let mut r = reg.handle(ProcId(writer_ops.len()));
    let l = log.clone();
    programs.push(Box::new(move |ctx| {
        ctx.pause();
        let id = l.invoke(ctx.proc_id(), AbaOp::DRead);
        let (v, a) = r.dread();
        l.respond(id, AbaResp::Value(v, a));
    }));
    programs
}

/// One worker's warm replay state for the pooled explorations: world,
/// register, and log built once, `SimWorld::reset` between schedules,
/// transcripts streamed into per-subtree DAG shards.
pub struct PooledAba {
    /// The reusable world + event log.
    pub pool: ReplayPool<ASpec>,
    /// The register under test, rebound to the pooled world's memory.
    pub reg: SlAbaRegister<u64, SimMem>,
}

impl sl_sim::ReplayCtx for PooledAba {}

/// The op-level workload behind a fleet workload name: one op vector
/// per process. `None` for names no build knows — the caller must
/// refuse, not guess (a coordinator and worker disagreeing on the
/// workload would merge shards from different schedule trees).
pub fn dist_ops(name: &str) -> Option<Vec<Vec<AbaOp<u64>>>> {
    match name {
        "aba_mixed3" => Some(vec![
            vec![AbaOp::DWrite(9)],
            vec![AbaOp::DWrite(19)],
            vec![AbaOp::DRead],
        ]),
        "aba_mixed3_deep" => Some(vec![
            vec![AbaOp::DWrite(9), AbaOp::DWrite(10)],
            vec![AbaOp::DWrite(19)],
            vec![AbaOp::DRead],
        ]),
        "aba_2w2r" => Some(vec![
            vec![AbaOp::DWrite(9), AbaOp::DWrite(10)],
            vec![AbaOp::DRead, AbaOp::DRead],
        ]),
        _ => None,
    }
}

/// Parses the prune-mode name that travels in `hello` frames
/// ([`PruneMode::name`] round trip) for the modes the fleet workloads
/// run; `StaticDpor` is excluded because its certificate cannot travel
/// by name alone.
pub fn dist_mode(name: &str) -> Option<PruneMode> {
    match name {
        "SourceDpor" => Some(PruneMode::SourceDpor),
        "ValueDpor" => Some(PruneMode::ValueDpor),
        "OptimalDpor" => Some(PruneMode::OptimalDpor),
        _ => None,
    }
}

/// The exploration budget both sides of the pipe must share. A worker
/// with a different `step_budget` (or `max_runs` cap) than the
/// coordinator would explore a *different* subtree for the same frozen
/// task — bit-identity requires this function to be the single source
/// of truth.
pub fn dist_config(mode: PruneMode, workers: usize) -> SimExplore {
    SimExplore {
        max_runs: 4_000_000,
        mode,
        workers,
        step_budget: 2_000,
        stem: Vec::new(),
        statics: None,
    }
}
