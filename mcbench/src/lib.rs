//! The model-checker benchmark: time to verdict of deep exhaustive
//! strong-linearizability checks on four pinned workloads, with an
//! outside-in per-layer trace. See `mcbench/README.md`.

pub mod inputs;
pub mod layers;
pub mod report;
pub mod verdict;
pub mod workloads;
