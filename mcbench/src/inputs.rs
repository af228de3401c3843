//! The pinned inputs of every workload, generated from the workload seed.
//!
//! A seed changes the *labels* of the inputs, never their shape: every
//! value an operation writes is replaced by a seeded one, equal input
//! values staying equal and distinct ones distinct (Observation 4 needs
//! its five equal `DWrite`s). Schedule counts, DAG sizes and verdicts
//! therefore hold on every seed, while the transcripts — and so the
//! merged-DAG structural hashes — differ from seed to seed. The seed
//! also rotates the order in which `paper_suite` runs its three checks.

use sl_spec::{AbaOp, SnapshotOp};

/// The name of the registered fleet workload whose ops the `aba_fleet`
/// workload relabels (resolved through `sl_bench::workloads`).
pub const FLEET_REGISTRY_NAME: &str = "aba_mixed3_deep";

/// A deterministic 64-bit mix (splitmix64's finaliser).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An injective, seeded relabelling of written values: the first value
/// seen gets the first seeded label, and so on. Labels are nonzero and
/// below 2^31, so they render compactly and never coincide with a
/// default value.
pub struct Relabel {
    seed: u64,
    drawn: u64,
    map: Vec<(u64, u64)>,
}

impl Relabel {
    /// A relabelling for `seed`.
    pub fn new(seed: u64) -> Relabel {
        Relabel {
            seed,
            drawn: 0,
            map: Vec::new(),
        }
    }

    /// The label of input value `v`.
    pub fn value(&mut self, v: u64) -> u64 {
        if let Some(&(_, label)) = self.map.iter().find(|(orig, _)| *orig == v) {
            return label;
        }
        let label = loop {
            self.drawn += 1;
            let candidate = 1 + mix(self.seed ^ mix(self.drawn)) % ((1 << 31) - 1);
            if self.map.iter().all(|&(_, l)| l != candidate) {
                break candidate;
            }
        };
        self.map.push((v, label));
        label
    }

    /// Relabels every value written by an ABA workload.
    pub fn aba(&mut self, ops: &[Vec<AbaOp<u64>>]) -> Vec<Vec<AbaOp<u64>>> {
        ops.iter()
            .map(|proc_ops| {
                proc_ops
                    .iter()
                    .map(|op| match op {
                        AbaOp::DWrite(v) => AbaOp::DWrite(self.value(*v)),
                        AbaOp::DRead => AbaOp::DRead,
                    })
                    .collect()
            })
            .collect()
    }

    /// Relabels every value written by a snapshot workload.
    pub fn snapshot(&mut self, ops: &[Vec<SnapshotOp<u64>>]) -> Vec<Vec<SnapshotOp<u64>>> {
        ops.iter()
            .map(|proc_ops| {
                proc_ops
                    .iter()
                    .map(|op| match op {
                        SnapshotOp::Update(v) => SnapshotOp::Update(self.value(*v)),
                        SnapshotOp::Scan => SnapshotOp::Scan,
                    })
                    .collect()
            })
            .collect()
    }
}

/// Algorithm 2, mixed roles, 3 processes: p0 `DWrite`×2, p1 `DWrite`×1,
/// p2 `DRead`×2 (the `aba_mixed_*` input).
pub fn aba_mixed(seed: u64) -> Vec<Vec<AbaOp<u64>>> {
    Relabel::new(seed).aba(&[
        vec![AbaOp::DWrite(9), AbaOp::DWrite(10)],
        vec![AbaOp::DWrite(19)],
        vec![AbaOp::DRead, AbaOp::DRead],
    ])
}

/// The Observation-4 family: 5 equal `DWrite`s ‖ 2 `DRead`s.
pub fn obs4(seed: u64) -> Vec<Vec<AbaOp<u64>>> {
    Relabel::new(seed).aba(&[vec![AbaOp::DWrite(7); 5], vec![AbaOp::DRead; 2]])
}

/// Algorithm 3 over Afek et al.: `Update` ‖ `Scan; Scan`.
pub fn afek_snapshot(seed: u64) -> Vec<Vec<SnapshotOp<u64>>> {
    Relabel::new(seed).snapshot(&[
        vec![SnapshotOp::Update(5)],
        vec![SnapshotOp::Scan, SnapshotOp::Scan],
    ])
}

/// The fully bounded snapshot: `Update` ‖ `Scan`.
pub fn bounded_snapshot(seed: u64) -> Vec<Vec<SnapshotOp<u64>>> {
    Relabel::new(seed).snapshot(&[vec![SnapshotOp::Update(5)], vec![SnapshotOp::Scan]])
}

/// The registered fleet workload's ops, relabelled. The coordinator and
/// the worker process both call this, so they replay identical inputs.
pub fn fleet(seed: u64) -> Vec<Vec<AbaOp<u64>>> {
    let ops = sl_bench::workloads::dist_ops(FLEET_REGISTRY_NAME)
        .expect("the fleet workload is registered in sl_bench::workloads");
    Relabel::new(seed).aba(&ops)
}

/// The fleet identity both sides `hello` with: the registry name plus
/// the seed, since a worker replaying other labels must be refused.
pub fn fleet_name(seed: u64) -> String {
    format!("{FLEET_REGISTRY_NAME}-s{seed}")
}

/// The order in which `paper_suite` runs its `parts` checks: the
/// identity order rotated left by `seed`.
pub fn suite_order(seed: u64, parts: usize) -> Vec<usize> {
    let shift = (seed % parts as u64) as usize;
    (0..parts).map(|i| (i + shift) % parts).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(ops: &[Vec<AbaOp<u64>>]) -> Vec<u64> {
        ops.iter()
            .flatten()
            .filter_map(|op| match op {
                AbaOp::DWrite(v) => Some(*v),
                AbaOp::DRead => None,
            })
            .collect()
    }

    #[test]
    fn relabelling_keeps_the_equality_pattern() {
        for seed in 0..200 {
            let mixed = written(&aba_mixed(seed));
            assert_eq!(mixed.len(), 3);
            assert!(mixed[0] != mixed[1] && mixed[1] != mixed[2] && mixed[0] != mixed[2]);
            let family = written(&obs4(seed));
            assert_eq!(family.len(), 5);
            assert!(family.iter().all(|&v| v == family[0]));
            assert!(mixed.iter().chain(&family).all(|&v| v > 0 && v < 1 << 31));
        }
    }

    #[test]
    fn relabelling_is_deterministic_and_seed_dependent() {
        assert_eq!(aba_mixed(17), aba_mixed(17));
        assert_eq!(fleet(17), fleet(17));
        assert_ne!(written(&aba_mixed(17)), written(&aba_mixed(18)));
    }

    #[test]
    fn the_suite_order_is_a_rotation() {
        assert_eq!(suite_order(0, 3), vec![0, 1, 2]);
        assert_eq!(suite_order(4, 3), vec![1, 2, 0]);
        assert_eq!(suite_order(5, 3), vec![2, 0, 1]);
    }
}
