//! The pinned answers hold on several seeds, and a traced exploration
//! of each workload exercises the layer the workload was chosen for.
//!
//! Each test explores about a million schedules, so they only run in
//! release builds: `cargo test --release --manifest-path mcbench/Cargo.toml`.

use std::path::{Path, PathBuf};

use mcbench::layers::Layers;
use mcbench::workloads::{Prepared, Workload};

/// Three seeds: every rotation of the `paper_suite` order, and three
/// different relabellings of every written value.
const SEEDS: [u64; 3] = [1, 2, 3];

fn scratch(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("pinned-{}", workload.name()))
}

/// Checks every seed's exploration against the oracle, then returns the
/// layers of one traced exploration on the first seed.
fn pinned_on_every_seed(workload: Workload) -> Layers {
    let exe = Path::new(env!("CARGO_BIN_EXE_mcbench"));
    let mut traced = None;
    for seed in SEEDS {
        let mut p = Prepared::setup(workload, seed, &scratch(workload), exe)
            .unwrap_or_else(|e| panic!("{} seed {seed}: set-up failed: {e}", workload.name()));
        let reference = p.compute_reference();
        assert!(reference.is_empty(), "seed {seed}: {reference:?}");
        let sample = p.sample(traced.is_none());
        assert!(sample.misses.is_empty(), "seed {seed}: {:?}", sample.misses);
        if traced.is_none() {
            traced = sample.layers;
        }
    }
    let layers = traced.expect("the first seed's sample was traced");
    let residual = (layers.layer_sum_s - layers.ttv_s).abs() / layers.ttv_s;
    assert!(
        residual < 0.01,
        "layer times sum to {} s, traced time to verdict is {} s",
        layers.layer_sum_s,
        layers.ttv_s
    );
    layers
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: explores ~500k schedules")]
fn aba_mixed_seq_is_pinned_and_unsharded() {
    let l = pinned_on_every_seed(Workload::AbaMixedSeq);
    assert_eq!(l.dag_shards, 1);
    assert_eq!(l.statics.unattributed, 0);
    assert!(
        l.statics.relaxed > 0,
        "the certificate must relax placements"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: explores ~600k schedules")]
fn aba_mixed_par2_is_pinned_and_merges_shards() {
    let l = pinned_on_every_seed(Workload::AbaMixedPar2);
    assert!(l.dag_shards > 1, "2 explorer threads must split the tree");
    assert!(l.dag_merge_s > 0.0);
    assert_eq!(l.statics.unattributed, 0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: explores ~800k schedules")]
fn paper_suite_is_pinned_and_refutes_algorithm_1() {
    let l = pinned_on_every_seed(Workload::PaperSuite);
    assert_eq!(l.check_conflict_depth, 39);
    assert_eq!(l.dag_shards, 3, "one shard per 1-thread check");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: explores ~500k schedules")]
fn aba_fleet_is_pinned_and_served_remotely() {
    let l = pinned_on_every_seed(Workload::AbaFleet);
    assert!(l.dist_completed > 0, "the worker process must serve tasks");
    assert_eq!(l.dist_quarantined, 0);
    assert!(l.dist_remote_schedules > 0);
}
