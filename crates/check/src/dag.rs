//! Hash-consed transcript DAGs: prefix trees with shared subtrees.
//!
//! A [`HistoryTree`] materialises every node of the prefix tree; for
//! bounded exhaustive exploration of 3-process workloads that is the
//! binding constraint — hundreds of millions of nodes, tens of
//! gigabytes — even though the tree is massively self-similar (the
//! suffix left after different interleavings of the same remaining
//! steps is often *identical*).
//!
//! A [`TreeDag`] stores the same prefix-closed transcript set as a
//! directed acyclic graph: structurally equal subtrees are interned
//! once, and a node's identity *is* its shape — which is also exactly
//! the subtree key the memoised strong-linearizability checker wants,
//! so checking a `TreeDag` skips the hash-consing pass entirely.
//!
//! [`DagBuilder`] builds the DAG *incrementally* from transcripts
//! arriving in depth-first order (what the sequential source-DPOR
//! explorer produces): it keeps only the current root-to-leaf spine
//! unfinalised, and interns every subtree the moment exploration leaves
//! it — the classic sorted-input DAFSA construction. Peak memory is the
//! number of *unique* subtree shapes plus one spine, not the number of
//! tree nodes.
//!
//! [`HistoryTree`]: crate::HistoryTree

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use sl_spec::SeqSpec;

use crate::tree::TreeStep;
use crate::HistoryTree;

/// Identifier of an interned DAG node. Two nodes share an id iff their
/// subtrees are equal edge-for-edge — the id is a *shape*.
pub type NodeId = u32;

/// One interned node: its child edges (label + child id), in canonical
/// order. Empty children = leaf.
pub(crate) struct DagNode<S: SeqSpec> {
    pub(crate) children: Box<[(TreeStep<S>, NodeId)]>,
}

/// A prefix-closed transcript set as a hash-consed DAG. Build one with
/// [`DagBuilder`] (streaming), [`TreeDag::from_tree`] (from a
/// materialised [`HistoryTree`]), or [`TreeDag::merge`] (union of
/// per-subtree shards from a parallel exploration).
pub struct TreeDag<S: SeqSpec> {
    pub(crate) nodes: Vec<DagNode<S>>,
    /// Structural hash per node, aligned with `nodes`: a recursive
    /// content hash over (step, child hash) edges in canonical order —
    /// *independent* of node numbering and insertion order, so two
    /// dags representing the same transcript set report the same
    /// hashes however they were built or merged.
    pub(crate) hashes: Vec<u64>,
    pub(crate) root: NodeId,
    transcripts_ingested: usize,
}

impl<S: SeqSpec> TreeDag<S> {
    /// Number of *unique* subtree shapes (the DAG's size). The
    /// equivalent prefix tree may have exponentially more nodes.
    pub fn unique_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Content hash of the whole transcript set: equal for any two dags
    /// holding the same set, regardless of build or merge order. The
    /// parallel-vs-sequential differential suites assert on this.
    pub fn structural_hash(&self) -> u64 {
        self.hashes[self.root as usize]
    }

    /// Number of transcripts ingested while building (duplicates
    /// included).
    pub fn transcripts_ingested(&self) -> usize {
        self.transcripts_ingested
    }

    pub(crate) fn children(&self, id: NodeId) -> &[(TreeStep<S>, NodeId)] {
        &self.nodes[id as usize].children
    }

    /// The root node's id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The child edges of `id`, in canonical order — the read half of
    /// the serialization surface ([`TreeDag::assemble`] is the write
    /// half). Interning is bottom-up, so every child id is strictly
    /// smaller than its parent's id: a forward scan over
    /// `0..unique_nodes()` visits children before parents.
    pub fn edges(&self, id: NodeId) -> &[(TreeStep<S>, NodeId)] {
        self.children(id)
    }

    /// Rebuilds a DAG from an explicit node list (each entry the child
    /// edges of one node, children referring to *earlier* entries) and
    /// a root index — the deserialization step of cross-process shard
    /// transport. Every node is re-interned, so the result's structural
    /// hashes are derived from content exactly as a locally built DAG's
    /// are; a forward reference or out-of-range root is rejected with a
    /// named diagnostic (fail-closed), never mis-linked.
    ///
    /// `transcripts` is the ingest count the originating builder
    /// reported (carried, not derivable from shapes).
    pub fn assemble(
        node_edges: Vec<Vec<(TreeStep<S>, NodeId)>>,
        root: NodeId,
        transcripts: usize,
    ) -> Result<TreeDag<S>, String> {
        let mut inner = DagInner::new();
        let mut map: Vec<NodeId> = Vec::with_capacity(node_edges.len());
        for (i, children) in node_edges.into_iter().enumerate() {
            let mut mapped = Vec::with_capacity(children.len());
            for (step, child) in children {
                let Some(&local) = map.get(child as usize) else {
                    return Err(format!(
                        "DAG shard node {i} references child {child}, which is not an \
                         earlier node (children must precede parents)"
                    ));
                };
                mapped.push((step, local));
            }
            map.push(inner.intern(mapped));
        }
        let Some(&root) = map.get(root as usize) else {
            return Err(format!(
                "DAG shard root {root} is out of range ({} nodes)",
                map.len()
            ));
        };
        Ok(TreeDag {
            nodes: inner.nodes,
            hashes: inner.hashes,
            root,
            transcripts_ingested: transcripts,
        })
    }

    /// Re-encodes every packed internal step as the symbolic code of
    /// its site-qualified [`StepCode::wire_label`], re-interning the
    /// whole DAG — the **label space**, the one step identity that is
    /// stable across processes.
    ///
    /// Packed codes embed process-local interner ids, so two processes
    /// exploring the same workload produce raw-`u64`-incompatible DAGs;
    /// after `symbolize` their structural hashes are comparable. The
    /// checkers treat internal steps opaquely (identity only), so the
    /// verdict and conflict depth of a symbolized DAG are unchanged —
    /// pinned by the label-space parity assertions in
    /// `exp_sim_throughput` and the distributed-identity suite.
    ///
    /// Fail-closed: two *distinct* packed identities mapping to one
    /// wire label (a same-line multi-allocation, or value types whose
    /// `Debug` renderings collide) would silently conflate transcript
    /// steps, so the collision panics with a named diagnostic instead.
    pub fn symbolize(&self) -> TreeDag<S> {
        use crate::intern::StepCode;
        let mut relabeled: HashMap<StepCode, StepCode> = HashMap::new();
        let mut sources: HashMap<StepCode, StepCode> = HashMap::new();
        // The label deliberately excludes the process id (it rides on
        // the `TreeStep` itself), so codes differing only in proc share
        // a label legitimately; only a (kind, register, value) clash is
        // a conflation.
        let identity = |code: StepCode| (code.kind(), code.reg(), code.value());
        let mut symbolic_of = |code: StepCode| -> StepCode {
            if let Some(&sym) = relabeled.get(&code) {
                return sym;
            }
            let sym = StepCode::of_label(&code.wire_label());
            if let Some(&prior) = sources.get(&sym) {
                if identity(prior) != identity(code) {
                    panic!(
                        "wire-label collision (fail-closed): packed steps {prior:?} and \
                         {code:?} both encode as \"{}\" — distinct register or value \
                         identities would be conflated on the wire",
                        code.wire_label()
                    );
                }
            } else {
                sources.insert(sym, code);
            }
            relabeled.insert(code, sym);
            sym
        };
        let mut inner = DagInner::new();
        let mut map: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let children = node
                .children
                .iter()
                .map(|(step, child)| {
                    let step = match step {
                        TreeStep::Internal(p, code) if code.is_packed() => {
                            TreeStep::Internal(*p, symbolic_of(*code))
                        }
                        other => other.clone(),
                    };
                    (step, map[*child as usize])
                })
                .collect();
            map.push(inner.intern(children));
        }
        TreeDag {
            nodes: inner.nodes,
            hashes: inner.hashes,
            root: map[self.root as usize],
            transcripts_ingested: self.transcripts_ingested,
        }
    }

    /// Number of nodes of the represented prefix *tree* (counting
    /// shared shapes once per occurrence, root included). Computed by
    /// one bottom-up pass; saturates at `u64::MAX`.
    pub fn tree_node_count(&self) -> u64 {
        // Children always precede parents in `nodes` (interning is
        // bottom-up), so one forward pass suffices.
        let mut sizes: Vec<u64> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let mut total: u64 = 1;
            for (_, child) in &node.children {
                total = total.saturating_add(sizes[*child as usize]);
            }
            sizes.push(total);
        }
        sizes[self.root as usize]
    }

    /// Converts a materialised prefix tree into its hash-consed DAG.
    pub fn from_tree(tree: &HistoryTree<S>) -> TreeDag<S> {
        let mut inner = DagInner::new();
        let root = intern_tree(tree, &mut inner);
        TreeDag {
            nodes: inner.nodes,
            hashes: inner.hashes,
            root,
            transcripts_ingested: tree.leaf_count(),
        }
    }

    /// Sorted structural hashes of a set of DAG shards — the audit
    /// metadata recorded into exploration checkpoints (sorted because
    /// shard completion order is worker-count-dependent, while the
    /// *set* of completed subtree shards is not).
    pub fn shard_hashes(shards: &[TreeDag<S>]) -> Vec<u64> {
        let mut hashes: Vec<u64> = shards.iter().map(|d| d.structural_hash()).collect();
        hashes.sort_unstable();
        hashes
    }

    /// Unions a set of prefix-closed transcript shards into one DAG —
    /// the join step of parallel exploration, where each delegated
    /// subtree streamed its (prefix-including) transcripts into its own
    /// [`DagBuilder`]. No shards give the empty set, a single shard is
    /// returned as it is, and [`TreeDag::transcripts_ingested`] is the
    /// sum over the shards.
    ///
    /// One pass into one node store: the shard roots form the first
    /// group, and a group's child edges are grouped by step label. A
    /// label owned by a single shard is copied, memoised per shard
    /// node, so every shard node is interned at most once; a label
    /// shared by several shards is merged as a group, memoised per
    /// group. Node numbering follows this traversal, so it depends on
    /// the shard order (only children-before-parents is guaranteed).
    /// Structural hashes and the canonical edge order depend on content
    /// alone, so the result has the same unique shapes and the same
    /// [`TreeDag::structural_hash`] as one sequential builder over the
    /// whole transcript set, whatever the shard order.
    pub fn merge(shards: Vec<TreeDag<S>>) -> TreeDag<S> {
        if shards.len() <= 1 {
            return shards
                .into_iter()
                .next()
                .unwrap_or_else(|| DagBuilder::new().finish());
        }
        let mut merger = Merger {
            shards: &shards,
            inner: DagInner::new(),
            copies: shards.iter().map(|d| vec![None; d.nodes.len()]).collect(),
            groups: HashMap::new(),
        };
        let root = merger.union(shards.iter().map(|d| d.root).enumerate().collect());
        TreeDag {
            nodes: merger.inner.nodes,
            hashes: merger.inner.hashes,
            root,
            transcripts_ingested: shards.iter().map(|d| d.transcripts_ingested).sum(),
        }
    }
}

/// `(shard index, node)` pairs reached by the same label path in a
/// [`TreeDag::merge`], at most one per shard and in ascending shard
/// order.
type Group = Vec<(usize, NodeId)>;

/// The state of one [`TreeDag::merge`].
struct Merger<'d, S: SeqSpec> {
    shards: &'d [TreeDag<S>],
    inner: DagInner<S>,
    /// Per shard, the merged id of each shard node copied so far.
    copies: Vec<Vec<Option<NodeId>>>,
    /// The merged id of each group of two or more nodes.
    groups: HashMap<Group, NodeId>,
}

impl<S: SeqSpec> Merger<'_, S> {
    /// Interns the union of the subtrees in `group`.
    fn union(&mut self, group: Group) -> NodeId {
        if let [(shard, id)] = group[..] {
            return self.copy(shard, id);
        }
        if let Some(&out) = self.groups.get(&group) {
            return out;
        }
        let shards = self.shards;
        // Child edges grouped by label. Walking the group in shard
        // order keeps every child group in shard order too.
        let mut by_label: Vec<(&TreeStep<S>, Group)> = Vec::new();
        for &(shard, id) in &group {
            for (step, child) in shards[shard].children(id) {
                match by_label.iter_mut().find(|(s, _)| *s == step) {
                    Some((_, members)) => members.push((shard, *child)),
                    None => by_label.push((step, vec![(shard, *child)])),
                }
            }
        }
        let children = by_label
            .into_iter()
            .map(|(step, members)| (step.clone(), self.union(members)))
            .collect();
        let out = self.inner.intern(children);
        self.groups.insert(group, out);
        out
    }

    /// Interns a copy of one shard's subtree.
    fn copy(&mut self, shard: usize, id: NodeId) -> NodeId {
        if let Some(out) = self.copies[shard][id as usize] {
            return out;
        }
        let shards = self.shards;
        let children = shards[shard]
            .children(id)
            .iter()
            .map(|(step, child)| (step.clone(), self.copy(shard, *child)))
            .collect();
        let out = self.inner.intern(children);
        self.copies[shard][id as usize] = Some(out);
        out
    }
}

fn intern_tree<S: SeqSpec>(tree: &HistoryTree<S>, inner: &mut DagInner<S>) -> NodeId {
    let children: Vec<(TreeStep<S>, NodeId)> = tree
        .children()
        .iter()
        .map(|(step, child)| (step.clone(), intern_tree(child, inner)))
        .collect();
    inner.intern(children)
}

/// A stable 128-bit key ordering children canonically by **content**
/// (the step label and the child's structural hash, never its node
/// number), so the canonical order — and hence every structural hash —
/// is identical across build strategies and merge orders. Two salted
/// 64-bit hashes make an order-changing collision astronomically
/// unlikely; the interning map still compares full keys, so a
/// collision could only cost sharing, never correctness.
fn edge_sort_key<S: SeqSpec>(step: &TreeStep<S>, child_hash: u64) -> (u64, u64) {
    let salted = |salt: u64| {
        let mut h = DefaultHasher::new();
        salt.hash(&mut h);
        step.hash(&mut h);
        child_hash.hash(&mut h);
        h.finish()
    };
    (salted(0x9e3779b97f4a7c15), salted(0x517cc1b727220a95))
}

/// Structural hash of a node from its canonically ordered child edges.
fn node_hash<S: SeqSpec>(children: &[(TreeStep<S>, NodeId)], hashes: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    children.len().hash(&mut h);
    for (step, child) in children {
        step.hash(&mut h);
        hashes[*child as usize].hash(&mut h);
    }
    h.finish()
}

struct DagInner<S: SeqSpec> {
    registry: HashMap<Vec<(TreeStep<S>, NodeId)>, NodeId>,
    nodes: Vec<DagNode<S>>,
    hashes: Vec<u64>,
}

impl<S: SeqSpec> DagInner<S> {
    fn new() -> Self {
        DagInner {
            registry: HashMap::new(),
            nodes: Vec::new(),
            hashes: Vec::new(),
        }
    }

    fn intern(&mut self, mut children: Vec<(TreeStep<S>, NodeId)>) -> NodeId {
        children.sort_by_key(|(step, child)| edge_sort_key(step, self.hashes[*child as usize]));
        if let Some(&id) = self.registry.get(&children) {
            return id;
        }
        let id = NodeId::try_from(self.nodes.len()).expect("too many unique subtree shapes");
        self.hashes.push(node_hash(&children, &self.hashes));
        // The node store outlives the registry (dropped when the dag is
        // finished), so it takes the exact-capacity clone and the
        // registry the push-built list with its spare capacity.
        self.nodes.push(DagNode {
            children: children.clone().into_boxed_slice(),
        });
        self.registry.insert(children, id);
        id
    }
}

/// The per-worker shard stack of a parallel depth-first exploration:
/// one [`DagBuilder`] per open subtree (they nest when a worker helps
/// elsewhere while blocked on a join), finished shards collected in a
/// shared sink for a final [`TreeDag::merge`].
///
/// This is the canonical implementation of the explorer's
/// `subtree_begin`/`subtree_end` contract — harness contexts hold one
/// `DagShards` and forward the two hooks, keeping the bracketing logic
/// in one place.
pub struct DagShards<'s, S: SeqSpec> {
    open: Vec<DagBuilder<S>>,
    sink: &'s Mutex<Vec<TreeDag<S>>>,
}

impl<'s, S: SeqSpec> DagShards<'s, S> {
    /// A shard stack feeding `sink`.
    pub fn new(sink: &'s Mutex<Vec<TreeDag<S>>>) -> Self {
        DagShards {
            open: Vec::new(),
            sink,
        }
    }

    /// Opens a fresh shard (call from `ReplayCtx::subtree_begin`).
    pub fn begin(&mut self) {
        self.open.push(DagBuilder::new());
    }

    /// Finishes the current shard into the sink (call from
    /// `ReplayCtx::subtree_end`).
    pub fn end(&mut self) {
        let shard = self.open.pop().expect("balanced subtree hooks");
        self.sink.lock().unwrap().push(shard.finish());
    }

    /// Streams one transcript into the current subtree's shard.
    pub fn ingest(&self, steps: &[TreeStep<S>]) {
        self.open
            .last()
            .expect("ingest inside a subtree")
            .ingest(steps);
    }
}

/// One unfinalised node on the builder's spine: the edge that leads
/// into it and the already-finalised children below it.
struct SpineEntry<S: SeqSpec> {
    step_in: TreeStep<S>,
    children: Vec<(TreeStep<S>, NodeId)>,
}

struct BuilderInner<S: SeqSpec> {
    dag: DagInner<S>,
    /// Root's finalised children.
    root_children: Vec<(TreeStep<S>, NodeId)>,
    /// Unfinalised path of the most recent transcript.
    spine: Vec<SpineEntry<S>>,
    prev: Vec<TreeStep<S>>,
    ingested: usize,
}

impl<S: SeqSpec> BuilderInner<S> {
    /// Finalises spine entries deeper than `keep`, interning each and
    /// attaching it to its parent.
    fn finalize_below(&mut self, keep: usize) {
        while self.spine.len() > keep {
            let entry = self.spine.pop().unwrap();
            let id = self.dag.intern(entry.children);
            let parent = match self.spine.last_mut() {
                Some(p) => &mut p.children,
                None => &mut self.root_children,
            };
            // Hard assert, not a debug assertion: an out-of-order
            // ingest would silently corrupt the checked transcript set
            // in release builds — a verification tool must fail loudly.
            // (Parent child lists are branching-factor sized, so the
            // scan is cheap.)
            assert!(
                parent.iter().all(|(s, _)| *s != entry.step_in),
                "transcripts must arrive in depth-first order (prefix revisited)"
            );
            parent.push((entry.step_in, id));
        }
    }
}

/// Streaming hash-consing builder over depth-first-ordered transcripts.
///
/// The sequential source-DPOR explorer emits transcripts in exactly
/// this order (depth-first backtracking: consecutive transcripts share
/// a prefix, and a left subtree is never revisited once exploration
/// moves right). Feeding transcripts in any other order panics (in all
/// build profiles) — use [`crate::TreeBuilder`] for unordered (e.g.
/// parallel-frame) streams.
pub struct DagBuilder<S: SeqSpec> {
    inner: Mutex<BuilderInner<S>>,
}

impl<S: SeqSpec> Default for DagBuilder<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SeqSpec> DagBuilder<S> {
    /// Creates a builder holding the empty transcript set.
    pub fn new() -> Self {
        DagBuilder {
            inner: Mutex::new(BuilderInner {
                dag: DagInner::new(),
                root_children: Vec::new(),
                spine: Vec::new(),
                prev: Vec::new(),
                ingested: 0,
            }),
        }
    }

    /// Merges one transcript (depth-first order relative to previous
    /// ingests; duplicates and prefixes of the previous transcript are
    /// no-ops).
    pub fn ingest(&self, steps: &[TreeStep<S>]) {
        let mut inner = self.inner.lock().unwrap();
        inner.ingested += 1;
        let common = inner
            .prev
            .iter()
            .zip(steps)
            .take_while(|(a, b)| a == b)
            .count();
        if common == steps.len() {
            return; // duplicate or prefix of the previous transcript
        }
        inner.finalize_below(common);
        for step in &steps[common..] {
            inner.spine.push(SpineEntry {
                step_in: step.clone(),
                children: Vec::new(),
            });
        }
        inner.prev.truncate(common);
        inner.prev.extend_from_slice(&steps[common..]);
    }

    /// Number of transcripts ingested so far.
    pub fn ingested(&self) -> usize {
        self.inner.lock().unwrap().ingested
    }

    /// Consumes the builder, returning the finished DAG.
    pub fn finish(self) -> TreeDag<S> {
        let mut inner = self.inner.into_inner().unwrap();
        inner.finalize_below(0);
        let root_children = std::mem::take(&mut inner.root_children);
        let root = inner.dag.intern(root_children);
        TreeDag {
            nodes: inner.dag.nodes,
            hashes: inner.dag.hashes,
            root,
            transcripts_ingested: inner.ingested,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeStep;
    use sl_mem::SmallRng;
    use sl_spec::types::CounterSpec;
    use sl_spec::ProcId;

    fn mk(steps: &[&str]) -> Vec<TreeStep<CounterSpec>> {
        steps
            .iter()
            .enumerate()
            .map(|(i, s)| TreeStep::internal(ProcId(i % 2), s))
            .collect()
    }

    #[test]
    fn dag_matches_tree_on_dfs_ordered_input() {
        // Depth-first ordered transcript set with shared suffixes.
        let transcripts = vec![
            mk(&["a", "b", "x", "y"]),
            mk(&["a", "c", "x", "y"]),
            mk(&["d", "b", "x", "y"]),
            mk(&["d", "c", "x", "y"]),
        ];
        let builder: DagBuilder<CounterSpec> = DagBuilder::new();
        for t in &transcripts {
            builder.ingest(t);
        }
        let dag = builder.finish();
        let tree = HistoryTree::from_transcripts(&transcripts);
        assert_eq!(dag.tree_node_count(), tree.node_count() as u64);
        // The two branches under `a` and under `d` are isomorphic, and
        // the `x→y` chains are shared: far fewer unique shapes than
        // tree nodes.
        assert!(
            dag.unique_nodes() < tree.node_count(),
            "{} unique shapes vs {} tree nodes",
            dag.unique_nodes(),
            tree.node_count()
        );
        // Conversion from the materialised tree yields the same DAG
        // size (same structural interning).
        let converted = TreeDag::from_tree(&tree);
        assert_eq!(converted.unique_nodes(), dag.unique_nodes());
        assert_eq!(converted.tree_node_count(), dag.tree_node_count());
    }

    #[test]
    fn duplicates_and_prefixes_are_noops() {
        let builder: DagBuilder<CounterSpec> = DagBuilder::new();
        builder.ingest(&mk(&["a", "b"]));
        builder.ingest(&mk(&["a", "b"])); // duplicate
        builder.ingest(&mk(&["a"])); // prefix
        builder.ingest(&mk(&["a", "c"]));
        assert_eq!(builder.ingested(), 4);
        let dag = builder.finish();
        let tree = HistoryTree::from_transcripts(&[mk(&["a", "b"]), mk(&["a", "c"])]);
        assert_eq!(dag.tree_node_count(), tree.node_count() as u64);
    }

    #[test]
    fn empty_builder_yields_the_empty_set() {
        let builder: DagBuilder<CounterSpec> = DagBuilder::new();
        let dag = builder.finish();
        assert_eq!(dag.unique_nodes(), 1, "just the root");
        assert_eq!(dag.tree_node_count(), 1);
    }

    /// The full DFS-ordered transcript set, partitioned into shards at
    /// arbitrary split points (each shard DFS-ordered and carrying the
    /// shared prefixes, as parallel subtree exploration produces), must
    /// merge back to the sequential builder's DAG: same unique shapes,
    /// same tree size, same structural hash.
    #[test]
    fn sharded_merge_matches_the_sequential_builder() {
        let transcripts = vec![
            mk(&["a", "b", "x", "y"]),
            mk(&["a", "c", "x", "y"]),
            mk(&["a", "c", "z"]),
            mk(&["d", "b", "x", "y"]),
            mk(&["d", "c", "x", "y"]),
            mk(&["e"]),
        ];
        let sequential = {
            let b: DagBuilder<CounterSpec> = DagBuilder::new();
            for t in &transcripts {
                b.ingest(t);
            }
            b.finish()
        };
        // Every way of cutting the DFS stream into two contiguous
        // shards (plus a duplicated boundary transcript, as overlapping
        // subtree prefixes produce).
        for cut in 1..transcripts.len() {
            let shard = |range: &[Vec<TreeStep<CounterSpec>>]| {
                let b: DagBuilder<CounterSpec> = DagBuilder::new();
                for t in range {
                    b.ingest(t);
                }
                b.finish()
            };
            let merged =
                TreeDag::merge(vec![shard(&transcripts[..cut]), shard(&transcripts[cut..])]);
            assert_eq!(
                merged.unique_nodes(),
                sequential.unique_nodes(),
                "cut {cut}"
            );
            assert_eq!(
                merged.tree_node_count(),
                sequential.tree_node_count(),
                "cut {cut}"
            );
            assert_eq!(
                merged.structural_hash(),
                sequential.structural_hash(),
                "cut {cut}"
            );
        }
        // Merge order must not matter either.
        let s1 = {
            let b: DagBuilder<CounterSpec> = DagBuilder::new();
            for t in &transcripts[..3] {
                b.ingest(t);
            }
            b.finish()
        };
        let s2 = {
            let b: DagBuilder<CounterSpec> = DagBuilder::new();
            for t in &transcripts[3..] {
                b.ingest(t);
            }
            b.finish()
        };
        let ab = TreeDag::merge(vec![s1, s2]);
        let s1 = {
            let b: DagBuilder<CounterSpec> = DagBuilder::new();
            for t in &transcripts[..3] {
                b.ingest(t);
            }
            b.finish()
        };
        let s2 = {
            let b: DagBuilder<CounterSpec> = DagBuilder::new();
            for t in &transcripts[3..] {
                b.ingest(t);
            }
            b.finish()
        };
        let ba = TreeDag::merge(vec![s2, s1]);
        assert_eq!(ab.structural_hash(), ba.structural_hash());
        assert_eq!(ab.structural_hash(), sequential.structural_hash());
    }

    fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(i + 1));
        }
    }

    /// A random prefix-closed transcript set in depth-first order: the
    /// root-to-leaf paths of a random tree over a small alphabet (so
    /// isomorphic subtrees recur), at most 4 steps deep, with some inner
    /// prefixes ingested on the way down.
    fn random_dfs_transcripts(rng: &mut SmallRng) -> Vec<Vec<TreeStep<CounterSpec>>> {
        fn grow(
            rng: &mut SmallRng,
            path: &mut Vec<TreeStep<CounterSpec>>,
            out: &mut Vec<Vec<TreeStep<CounterSpec>>>,
        ) {
            let fanout = if path.len() >= 4 { 0 } else { rng.gen_range(4) };
            if fanout == 0 || rng.gen_bool(0.25) {
                out.push(path.clone());
            }
            let mut labels = ["a", "b", "c", "d"];
            shuffle(rng, &mut labels);
            for label in &labels[..fanout] {
                path.push(TreeStep::internal(ProcId(rng.gen_range(2)), label));
                grow(rng, path, out);
                path.pop();
            }
        }
        let mut out = Vec::new();
        grow(rng, &mut Vec::new(), &mut out);
        out
    }

    fn build<'t>(
        transcripts: impl IntoIterator<Item = &'t Vec<TreeStep<CounterSpec>>>,
    ) -> TreeDag<CounterSpec> {
        let b: DagBuilder<CounterSpec> = DagBuilder::new();
        for t in transcripts {
            b.ingest(t);
        }
        b.finish()
    }

    /// The k-way merge against the sequential builder. The DFS stream
    /// is dealt into k shards at random, so each shard is a DFS-ordered
    /// subsequence (as a worker's subtree is once sub-subtrees are
    /// delegated away), and some transcripts are dealt twice
    /// (overlapping subtree prefixes). An empty shard and a repeated
    /// shard are added, and the shards are merged in shuffled orders.
    #[test]
    fn k_way_merge_matches_the_sequential_builder() {
        let mut rng = SmallRng::new(0x5eed);
        for k in [0usize, 1, 2, 3, 17, 64] {
            let transcripts = loop {
                let t = random_dfs_transcripts(&mut rng);
                if t.len() >= 16 {
                    break t;
                }
            };
            let n = transcripts.len();
            let sequential = build(&transcripts);
            let mut dealt: Vec<Vec<usize>> = vec![Vec::new(); k];
            for i in (0..n).filter(|_| k > 0) {
                dealt[rng.gen_range(k)].push(i);
                if rng.gen_bool(0.25) {
                    dealt[rng.gen_range(k)].push(i);
                }
            }
            if k > 0 {
                dealt.push(Vec::new());
                dealt.push(dealt[rng.gen_range(k)].clone());
            }
            for _ in 0..2 {
                shuffle(&mut rng, &mut dealt);
                let shards: Vec<TreeDag<CounterSpec>> = dealt
                    .iter()
                    .map(|ids| build(ids.iter().map(|&i| &transcripts[i])))
                    .collect();
                let ingested: usize = shards.iter().map(|d| d.transcripts_ingested()).sum();
                let merged = TreeDag::merge(shards);
                let what = format!("k {k}, {n} transcripts, shards {dealt:?}");
                if k == 0 {
                    assert_eq!(merged.unique_nodes(), 1, "{what}");
                    assert_eq!(merged.tree_node_count(), 1, "{what}");
                    assert_eq!(merged.transcripts_ingested(), 0, "{what}");
                    continue;
                }
                assert_eq!(merged.unique_nodes(), sequential.unique_nodes(), "{what}");
                assert_eq!(
                    merged.tree_node_count(),
                    sequential.tree_node_count(),
                    "{what}"
                );
                assert_eq!(
                    merged.structural_hash(),
                    sequential.structural_hash(),
                    "{what}"
                );
                assert_eq!(merged.transcripts_ingested(), ingested, "{what}");
                let edges: Vec<Vec<(TreeStep<CounterSpec>, NodeId)>> = (0..merged.unique_nodes())
                    .map(|i| merged.edges(i as NodeId).to_vec())
                    .collect();
                for (i, node) in edges.iter().enumerate() {
                    assert!(
                        node.iter().all(|(_, child)| (*child as usize) < i),
                        "{what}: node {i} precedes a child"
                    );
                }
                let rebuilt = TreeDag::assemble(edges, merged.root(), ingested)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(rebuilt.unique_nodes(), merged.unique_nodes(), "{what}");
                assert_eq!(
                    rebuilt.structural_hash(),
                    merged.structural_hash(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn assemble_roundtrips_edges_and_rejects_forward_references() {
        let builder: DagBuilder<CounterSpec> = DagBuilder::new();
        builder.ingest(&mk(&["a", "b", "x"]));
        builder.ingest(&mk(&["a", "c", "x"]));
        builder.ingest(&mk(&["d"]));
        let dag = builder.finish();
        // Export every node's edges (children precede parents), then
        // reassemble: same shapes, same content hash.
        let edges: Vec<Vec<(TreeStep<CounterSpec>, NodeId)>> = (0..dag.unique_nodes())
            .map(|i| dag.edges(i as NodeId).to_vec())
            .collect();
        let rebuilt = TreeDag::assemble(edges, dag.root(), dag.transcripts_ingested())
            .unwrap_or_else(|e| panic!("roundtrip: {e}"));
        assert_eq!(rebuilt.unique_nodes(), dag.unique_nodes());
        assert_eq!(rebuilt.structural_hash(), dag.structural_hash());
        assert_eq!(rebuilt.transcripts_ingested(), dag.transcripts_ingested());
        // A forward reference is rejected, not mis-linked.
        let bogus = vec![vec![(TreeStep::internal(ProcId(0), "a"), 1 as NodeId)]];
        let err = TreeDag::<CounterSpec>::assemble(bogus, 0, 0)
            .err()
            .expect("forward ref");
        assert!(err.contains("children must precede parents"), "{err}");
        // And so is an out-of-range root.
        let err = TreeDag::<CounterSpec>::assemble(vec![vec![]], 7, 0)
            .err()
            .expect("bad root");
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn symbolize_matches_a_directly_label_built_dag() {
        use crate::intern::{RegSym, StepCode, StepKind, ValueId};
        let reg = RegSym::intern("SYMDAG_X", "symdag.rs", 10, 1);
        let code = |v: u64| StepCode::pack(0, StepKind::Write, reg, ValueId::of(&v));
        let packed = |codes: &[StepCode]| -> Vec<TreeStep<CounterSpec>> {
            codes
                .iter()
                .map(|c| TreeStep::Internal(ProcId(0), *c))
                .collect()
        };
        let b: DagBuilder<CounterSpec> = DagBuilder::new();
        b.ingest(&packed(&[code(1), code(2)]));
        b.ingest(&packed(&[code(1), code(3)]));
        let sym = b.finish().symbolize();
        // The same set built straight from the wire labels.
        let direct: DagBuilder<CounterSpec> = DagBuilder::new();
        let lbl = |c: StepCode| -> Vec<TreeStep<CounterSpec>> {
            vec![]
                .into_iter()
                .chain(std::iter::once(TreeStep::internal(
                    ProcId(0),
                    &c.wire_label(),
                )))
                .collect()
        };
        let seq = |codes: &[StepCode]| -> Vec<TreeStep<CounterSpec>> {
            codes.iter().flat_map(|c| lbl(*c)).collect()
        };
        direct.ingest(&seq(&[code(1), code(2)]));
        direct.ingest(&seq(&[code(1), code(3)]));
        let direct = direct.finish();
        assert_eq!(sym.structural_hash(), direct.structural_hash());
        assert_eq!(sym.unique_nodes(), direct.unique_nodes());
    }

    #[test]
    fn symbolize_panics_on_wire_label_collisions_fail_closed() {
        use crate::intern::{RegSym, StepCode, StepKind, ValueId};
        // Two registers allocated under one name on one line (distinct
        // columns): distinct identities, identical site-qualified
        // labels.
        let r1 = RegSym::intern("SYMDAG_COLLIDE", "symdag.rs", 20, 1);
        let r2 = RegSym::intern("SYMDAG_COLLIDE", "symdag.rs", 20, 9);
        assert_ne!(r1, r2);
        let v = ValueId::of(&5u64);
        let b: DagBuilder<CounterSpec> = DagBuilder::new();
        b.ingest(&[
            TreeStep::<CounterSpec>::Internal(ProcId(0), StepCode::pack(0, StepKind::Write, r1, v)),
            TreeStep::<CounterSpec>::Internal(ProcId(1), StepCode::pack(1, StepKind::Write, r2, v)),
        ]);
        let dag = b.finish();
        let caught =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dag.symbolize())) {
                Ok(_) => panic!("the conflation must be rejected"),
                Err(payload) => payload,
            };
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("wire-label collision"), "diagnostic: {msg}");
        // Same identity under two procs is NOT a collision: the proc
        // rides on the step, not the label.
        let b: DagBuilder<CounterSpec> = DagBuilder::new();
        b.ingest(&[
            TreeStep::<CounterSpec>::Internal(ProcId(0), StepCode::pack(0, StepKind::Write, r1, v)),
            TreeStep::<CounterSpec>::Internal(ProcId(1), StepCode::pack(1, StepKind::Write, r1, v)),
        ]);
        let _ = b.finish().symbolize();
    }

    #[test]
    fn structural_hash_is_content_not_insertion_order() {
        // Same set, opposite ingestion orders (both DFS-valid).
        let forward = vec![mk(&["a", "b"]), mk(&["a", "c"]), mk(&["d"])];
        let backward = vec![mk(&["d"]), mk(&["a", "c"]), mk(&["a", "b"])];
        let build = |ts: &[Vec<TreeStep<CounterSpec>>]| {
            let b: DagBuilder<CounterSpec> = DagBuilder::new();
            for t in ts {
                b.ingest(t);
            }
            b.finish()
        };
        let f = build(&forward);
        let g = build(&backward);
        assert_eq!(f.structural_hash(), g.structural_hash());
        // And a genuinely different set hashes differently.
        let h = build(&[mk(&["a", "b"]), mk(&["d"])]);
        assert_ne!(f.structural_hash(), h.structural_hash());
    }
}
