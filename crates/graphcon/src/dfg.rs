//! Graph data structures for the construction flow.
//!
//! [`WorkGraph`] is the mutable representation the optimization passes
//! (buffer insertion, datapath merging, trimming) operate on; it keeps the
//! cycle-stamped value-event sequences on every edge so that activities can
//! be recomputed after edges are fused or rerouted. [`PowerGraph`] is the
//! finalized, feature-annotated sample consumed by the GNN.
//!
//! # Edge event storage
//!
//! Edges do not own event vectors. Every stream lives compressed in a flat
//! arena (see [`pg_activity::events`] for the run format) and edges hold
//! copyable [`EventRef`] handles into it, managed by [`GraphEvents`]. The
//! top two bits of a ref's offset select where it points:
//!
//! * `0x` — the **base** arena, the execution trace's arena shared with
//!   the graph via `Arc`: def-use fan-out, buffer rerouting and trim
//!   bypass attach an op's stream to many edges as plain `(offset, len)`
//!   copies;
//! * `11` — the **merge-list** arena: parallel-edge fusion does not
//!   materialize the time-merge of its member streams, it records the
//!   member refs (offset = list id, len = member count). A member that is
//!   itself a list is flattened into the new one, which is exact: a
//!   stable time-merge of sorted streams is the stable sort by cycle of
//!   their concatenation, so nested merges equal one flat merge of the
//!   members in order;
//! * `10` — the **extension** arena, for streams encoded from raw events
//!   (tests, synthetic graphs).
//!
//! Activity folds ([`GraphEvents::sa_ar`]) consume the compressed runs
//! directly and are bit-identical to the naive slice math of Eq. 2/3. A
//! merge list is folded by [`pg_activity::events::merge_fold`] at most
//! once per graph: the first fold is cached with the list, so graph
//! finalization and the oracle netlist share it.

use pg_activity::events::{merge_fold, EventArena, Fold};
use pg_activity::{EventRef, NodeActivity};
use pg_ir::{OpClass, Opcode, ValueId};
use pg_util::rng::mix64;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Offset tag selecting the extension arena of a [`GraphEvents`].
const EXT_BIT: u32 = 1 << 31;
/// Offset tag of a merge-list ref (both top bits set).
const LIST_TAG: u32 = EXT_BIT | (1 << 30);
/// Offsets of extension and list refs stay below this bound.
const TAGGED_BOUND: u32 = 1 << 30;

/// One merge list: a span of the member arena plus its fold, computed on
/// first use.
#[derive(Debug, Clone, Default)]
struct MergeList {
    start: u32,
    len: u32,
    fold: OnceLock<Fold>,
}

/// Lists compare by their members; whether the fold is cached yet is not
/// part of a graph's value.
impl PartialEq for MergeList {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.len) == (other.start, other.len)
    }
}

/// The event storage of one [`WorkGraph`]: the trace's shared base arena,
/// the merge lists of fused edges and an extension arena for streams
/// encoded from raw events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphEvents {
    base: Arc<EventArena>,
    ext: EventArena,
    /// Member refs of every merge list, back to back (never lists).
    members: Vec<EventRef>,
    lists: Vec<MergeList>,
    /// List id by a hash of its members: merging the same streams again
    /// (fan-out of a merged node, source and sink sides of one group)
    /// returns the existing list, so its fold is shared.
    interned: BTreeMap<u64, u32>,
}

impl GraphEvents {
    /// Wraps the trace's arena as the shared base.
    pub fn with_base(base: Arc<EventArena>) -> Self {
        assert!(
            base.words().len() < EXT_BIT as usize,
            "base arena exceeds the 2^31-word ref space"
        );
        GraphEvents {
            base,
            ..GraphEvents::default()
        }
    }

    /// The merge list behind a list ref, if `r` is one.
    fn list(&self, r: EventRef) -> Option<(&MergeList, &[EventRef])> {
        if r.off & LIST_TAG != LIST_TAG {
            return None;
        }
        let list = &self.lists[(r.off & !LIST_TAG) as usize];
        Some((list, self.members_of(list)))
    }

    fn members_of(&self, list: &MergeList) -> &[EventRef] {
        &self.members[list.start as usize..(list.start + list.len) as usize]
    }

    /// Compressed words of a stream that is not a merge list.
    fn stream(&self, r: EventRef) -> &[u32] {
        debug_assert!(r.off & LIST_TAG != LIST_TAG, "merge lists have no words");
        if r.off & EXT_BIT != 0 {
            let off = (r.off & !EXT_BIT) as usize;
            &self.ext.words()[off..off + r.len as usize]
        } else {
            &self.base.words()[r.off as usize..(r.off + r.len) as usize]
        }
    }

    /// Number of events in a stream or merge list.
    pub fn count(&self, r: EventRef) -> usize {
        match self.list(r) {
            Some((_, members)) => members.iter().map(|&m| self.count(m)).sum(),
            None => pg_activity::events::event_count(self.stream(r)),
        }
    }

    /// Decodes a stream to raw `(cycle, bits)` events (tests,
    /// diagnostics); a merge list decodes to the stable time-merge of its
    /// members.
    pub fn decode(&self, r: EventRef) -> Vec<(u64, u32)> {
        match self.list(r) {
            Some((_, members)) => {
                let mut out = Vec::with_capacity(self.count(r));
                for &m in members {
                    pg_activity::events::decode_into(&mut out, self.stream(m));
                }
                out.sort_by_key(|e| e.0);
                out
            }
            None => pg_activity::events::decode(self.stream(r)),
        }
    }

    /// Eq. 2 / Eq. 3 of one stream or merge list, folded over the
    /// compressed runs. A list is folded once; later calls reuse the
    /// cached totals.
    pub fn sa_ar(&self, r: EventRef, latency: u64) -> (f64, f64) {
        match self.list(r) {
            Some((list, members)) => list
                .fold
                .get_or_init(|| {
                    let inputs: Vec<&[u32]> = members.iter().map(|&m| self.stream(m)).collect();
                    merge_fold(&inputs)
                })
                .sa_ar(latency),
            None => pg_activity::events::fold_sa_ar(self.stream(r), latency),
        }
    }

    /// Encodes raw events into the extension arena (tests, synthetic
    /// graphs).
    pub fn push_events(&mut self, events: &[(u64, u32)]) -> EventRef {
        let r = self.ext.push_events(events);
        assert!(
            self.ext.words().len() < TAGGED_BOUND as usize,
            "extension arena exceeds the 2^30-word ref space"
        );
        EventRef {
            off: r.off | EXT_BIT,
            len: r.len,
        }
    }

    /// K-way time-merge by reference (stable: equal cycles take the
    /// earliest stream in `refs` first — a left fold of pairwise merges).
    /// Records the members as a merge list, flattening members that are
    /// lists themselves, and returns the existing list when the same
    /// members were merged before; nothing is decoded or folded here. Every
    /// stream must be non-empty: empty members would be identity
    /// elements, so callers filter them out and keep the surviving ref
    /// when fewer than two remain.
    pub fn merge_many(&mut self, refs: &[EventRef]) -> EventRef {
        assert!(
            refs.len() >= 2 && refs.iter().all(|r| !r.is_empty()),
            "merge_many requires >= 2 non-empty streams"
        );
        let start = self.members.len();
        for &r in refs {
            if r.off & LIST_TAG == LIST_TAG {
                let from = self.lists[(r.off & !LIST_TAG) as usize].start as usize;
                self.members.extend_from_within(from..from + r.len as usize);
            } else {
                self.members.push(r);
            }
        }
        assert!(
            self.lists.len() < TAGGED_BOUND as usize && self.members.len() <= u32::MAX as usize,
            "merge lists exceed the 2^30-entry ref space"
        );
        let list = MergeList {
            start: start as u32,
            len: (self.members.len() - start) as u32,
            fold: OnceLock::new(),
        };
        let key = self.members[start..]
            .iter()
            .fold(0, |h, m| mix64(&[h, (m.off as u64) << 32 | m.len as u64]));
        let id = match self.interned.get(&key) {
            Some(&id) if self.members_of(&self.lists[id as usize]) == &self.members[start..] => {
                self.members.truncate(start);
                id
            }
            // A hash collision keeps the first list interned.
            Some(_) => self.push_list(list),
            None => {
                let id = self.push_list(list);
                self.interned.insert(key, id);
                id
            }
        };
        EventRef {
            off: id | LIST_TAG,
            len: self.lists[id as usize].len,
        }
    }

    fn push_list(&mut self, list: MergeList) -> u32 {
        self.lists.push(list);
        (self.lists.len() - 1) as u32
    }
}

/// Kind of a graph node after construction.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// An IR operation (possibly representing several merged instances).
    Op(Opcode),
    /// An interface (I/O) buffer bank.
    BufferIo,
    /// An internal (alloca-derived) buffer bank.
    BufferInternal,
}

impl NodeKind {
    /// `true` for arithmetic (A) nodes in the paper's edge typing; buffers
    /// are non-arithmetic.
    pub fn is_arithmetic(&self) -> bool {
        match self {
            NodeKind::Op(o) => o.is_arithmetic(),
            _ => false,
        }
    }

    /// One-hot opcode slot: IR opcodes use their own index, buffers take the
    /// two trailing slots.
    pub fn opcode_slot(&self) -> usize {
        match self {
            NodeKind::Op(o) => o.index(),
            NodeKind::BufferIo => Opcode::COUNT,
            NodeKind::BufferInternal => Opcode::COUNT + 1,
        }
    }

    /// One-hot class slot: the four [`OpClass`]es plus a buffer class.
    pub fn class_slot(&self) -> usize {
        match self {
            NodeKind::Op(o) => o.class().index(),
            _ => OpClass::COUNT,
        }
    }
}

/// Heterogeneous edge relation (source class → sink class), §III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// arithmetic → arithmetic
    AA,
    /// arithmetic → non-arithmetic
    AN,
    /// non-arithmetic → arithmetic
    NA,
    /// non-arithmetic → non-arithmetic
    NN,
}

impl Relation {
    /// Number of relation types.
    pub const COUNT: usize = 4;

    /// Relation from source/sink arithmetic-ness.
    pub fn from_classes(src_arith: bool, dst_arith: bool) -> Self {
        match (src_arith, dst_arith) {
            (true, true) => Relation::AA,
            (true, false) => Relation::AN,
            (false, true) => Relation::NA,
            (false, false) => Relation::NN,
        }
    }

    /// Stable index for per-relation weights.
    pub fn index(self) -> usize {
        match self {
            Relation::AA => 0,
            Relation::AN => 1,
            Relation::NA => 2,
            Relation::NN => 3,
        }
    }
}

/// A node of the working graph.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkNode {
    /// Kind (op or buffer).
    pub kind: NodeKind,
    /// IR op instances represented (empty for buffers).
    pub ops: Vec<ValueId>,
    /// Activity statistics (merged across instances).
    pub activity: NodeActivity,
    /// BRAM blocks for buffer nodes (0 otherwise).
    pub bram: f64,
    /// Backing array for buffers.
    pub array: Option<String>,
    /// Bank index for buffers.
    pub bank: usize,
    /// Liveness flag (passes tombstone instead of reindexing).
    pub alive: bool,
}

/// An edge of the working graph. Event sequences are `(offset, len)` refs
/// into the graph's [`GraphEvents`] arenas — attaching a stream to another
/// edge is a copy of two words, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkEdge {
    /// Source node index.
    pub src: usize,
    /// Sink node index.
    pub dst: usize,
    /// `(cycle, bits)` events injected by the source.
    pub src_ev: EventRef,
    /// `(cycle, bits)` events consumed by the sink.
    pub snk_ev: EventRef,
    /// Liveness flag.
    pub alive: bool,
}

/// The mutable graph the construction passes transform.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkGraph {
    /// Nodes (tombstoned, never removed).
    pub nodes: Vec<WorkNode>,
    /// Edges (tombstoned, never removed).
    pub edges: Vec<WorkEdge>,
    /// Event stream storage referenced by the edges.
    pub events: GraphEvents,
    /// Design latency for activity normalization.
    pub latency: u64,
}

impl WorkGraph {
    /// Adds a node, returning its index.
    pub fn add_node(&mut self, node: WorkNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Adds an edge, returning its index.
    pub fn add_edge(&mut self, edge: WorkEdge) -> usize {
        self.edges.push(edge);
        self.edges.len() - 1
    }

    /// Encodes raw events into the graph's extension arena (test helper).
    pub fn add_events(&mut self, events: &[(u64, u32)]) -> EventRef {
        self.events.push_events(events)
    }

    /// Alive-node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Alive-edge count.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().filter(|e| e.alive).count()
    }

    /// Alive predecessor node indices of `v` (sorted, deduplicated).
    pub fn preds(&self, v: usize) -> Vec<usize> {
        let mut p: Vec<usize> = self
            .edges
            .iter()
            .filter(|e| e.alive && e.dst == v && self.nodes[e.src].alive)
            .map(|e| e.src)
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    /// Alive successor node indices of `v` (sorted, deduplicated).
    pub fn succs(&self, v: usize) -> Vec<usize> {
        let mut s: Vec<usize> = self
            .edges
            .iter()
            .filter(|e| e.alive && e.src == v && self.nodes[e.dst].alive)
            .map(|e| e.dst)
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Fuses parallel edges (same `(src, dst)`) by time-merging their event
    /// sequences. Called after passes that re-point edges.
    ///
    /// Each group of parallel edges becomes one merge list per side
    /// (see [`GraphEvents::merge_many`]) — equal to folding pairwise
    /// merges left-to-right in edge order (cycle ties keep the earlier
    /// edge's events first), without decoding anything. When every member
    /// carries the same stream on both sides, the sink side merges the
    /// same members and so gets the source side's list back: it is folded
    /// once.
    pub fn fuse_parallel_edges(&mut self) {
        let _t = pg_util::metrics::stage("graph.fuse");
        // Group alive parallel edges by endpoint pair, preserving edge
        // order within and across groups.
        let mut group_idx: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, e) in self.edges.iter().enumerate() {
            if !e.alive {
                continue;
            }
            match group_idx.entry((e.src, e.dst)) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(groups.len());
                    groups.push((i, Vec::new()));
                }
                std::collections::btree_map::Entry::Occupied(o) => {
                    groups[*o.get()].1.push(i);
                }
            }
        }
        let mut streams: Vec<EventRef> = Vec::new();
        for (keep, drops) in &groups {
            if drops.is_empty() {
                continue;
            }
            let src_ev = fuse_group_side(
                &self.edges,
                &mut self.events,
                *keep,
                drops,
                |e| e.src_ev,
                &mut streams,
            );
            let snk_ev = fuse_group_side(
                &self.edges,
                &mut self.events,
                *keep,
                drops,
                |e| e.snk_ev,
                &mut streams,
            );
            let k = &mut self.edges[*keep];
            k.src_ev = src_ev;
            k.snk_ev = snk_ev;
            for &d in drops {
                self.edges[d].alive = false;
            }
        }
    }

    /// Sanity invariants: alive edges point at alive nodes.
    pub fn check(&self) -> Result<(), String> {
        for (i, e) in self.edges.iter().enumerate() {
            if !e.alive {
                continue;
            }
            if e.src >= self.nodes.len() || e.dst >= self.nodes.len() {
                return Err(format!("edge {i} out of range"));
            }
            if !self.nodes[e.src].alive || !self.nodes[e.dst].alive {
                return Err(format!("edge {i} touches dead node"));
            }
        }
        Ok(())
    }
}

/// Fuses one side (source or sink events) of a parallel-edge group.
/// Merging with an empty sequence is the identity — a group with one
/// non-empty stream reuses that stream's ref; with none, the ref of the
/// last member (what a pairwise fold would leave behind).
fn fuse_group_side(
    edges: &[WorkEdge],
    events: &mut GraphEvents,
    keep: usize,
    drops: &[usize],
    side: fn(&WorkEdge) -> EventRef,
    streams: &mut Vec<EventRef>,
) -> EventRef {
    streams.clear();
    streams.push(side(&edges[keep]));
    streams.extend(drops.iter().map(|&d| side(&edges[d])));
    let non_empty = streams.iter().filter(|r| !r.is_empty()).count();
    match non_empty {
        0 => *streams.last().expect("group has members"),
        1 => *streams
            .iter()
            .find(|r| !r.is_empty())
            .expect("one non-empty stream"),
        _ => {
            streams.retain(|r| !r.is_empty());
            events.merge_many(streams)
        }
    }
}

/// A finalized graph sample: the output of the construction flow and the
/// input to HEC-GNN.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerGraph {
    /// Source kernel name.
    pub kernel: String,
    /// Design-point identifier.
    pub design_id: String,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Flattened node features, `num_nodes × NODE_FEATS` row-major.
    pub node_feats: Vec<f32>,
    /// Directed edges `(src, dst)`.
    pub edges: Vec<(u32, u32)>,
    /// Four-dimensional edge features `[SA_src, SA_snk, AR_src, AR_snk]`.
    pub edge_feats: Vec<[f32; 4]>,
    /// Edge relation types.
    pub edge_rel: Vec<Relation>,
    /// Global metadata features (HLS report; filled by the dataset builder
    /// once the unoptimized baseline is known).
    pub meta: Vec<f32>,
}

impl PowerGraph {
    /// Node feature width: 5 class slots + 23 opcode slots + 6 numeric.
    pub const NODE_FEATS: usize = OpClass::COUNT + 1 + Opcode::COUNT + 2 + 6;
    /// Edge feature width (Eq. 2/3 in both directions).
    pub const EDGE_FEATS: usize = 4;

    /// Features of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &[f32] {
        &self.node_feats[i * Self::NODE_FEATS..(i + 1) * Self::NODE_FEATS]
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Histogram of edges per relation type.
    pub fn relation_counts(&self) -> [usize; Relation::COUNT] {
        let mut c = [0usize; Relation::COUNT];
        for r in &self.edge_rel {
            c[r.index()] += 1;
        }
        c
    }

    /// Structural validation (used by tests and property checks).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.node_feats.len() != self.num_nodes * Self::NODE_FEATS {
            return Err("node feature buffer size mismatch".into());
        }
        if self.edges.len() != self.edge_feats.len() || self.edges.len() != self.edge_rel.len() {
            return Err("edge array length mismatch".into());
        }
        for &(s, d) in &self.edges {
            if s as usize >= self.num_nodes || d as usize >= self.num_nodes {
                return Err(format!("edge ({s},{d}) out of range"));
            }
        }
        for f in &self.node_feats {
            if !f.is_finite() {
                return Err("non-finite node feature".into());
            }
        }
        for ef in &self.edge_feats {
            if ef.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err("invalid edge feature".into());
            }
        }
        if self.meta.iter().any(|v| !v.is_finite()) {
            return Err("non-finite metadata feature".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_node(kind: NodeKind) -> WorkNode {
        WorkNode {
            kind,
            ops: vec![],
            activity: NodeActivity::default(),
            bram: 0.0,
            array: None,
            bank: 0,
            alive: true,
        }
    }

    #[test]
    fn relation_mapping() {
        assert_eq!(Relation::from_classes(true, true), Relation::AA);
        assert_eq!(Relation::from_classes(true, false), Relation::AN);
        assert_eq!(Relation::from_classes(false, true), Relation::NA);
        assert_eq!(Relation::from_classes(false, false), Relation::NN);
        let idx: Vec<usize> = [Relation::AA, Relation::AN, Relation::NA, Relation::NN]
            .iter()
            .map(|r| r.index())
            .collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn node_kind_slots_distinct() {
        let a = NodeKind::Op(Opcode::FAdd);
        let b = NodeKind::BufferIo;
        let c = NodeKind::BufferInternal;
        assert_ne!(a.opcode_slot(), b.opcode_slot());
        assert_ne!(b.opcode_slot(), c.opcode_slot());
        assert!(c.opcode_slot() < Opcode::COUNT + 2);
        assert_eq!(b.class_slot(), OpClass::COUNT);
        assert!(a.is_arithmetic());
        assert!(!b.is_arithmetic());
    }

    #[test]
    fn preds_succs_respect_liveness() {
        let mut g = WorkGraph::default();
        let a = g.add_node(mk_node(NodeKind::Op(Opcode::Load)));
        let b = g.add_node(mk_node(NodeKind::Op(Opcode::FAdd)));
        let c = g.add_node(mk_node(NodeKind::Op(Opcode::Store)));
        g.add_edge(WorkEdge {
            src: a,
            dst: b,
            src_ev: EventRef::EMPTY,
            snk_ev: EventRef::EMPTY,
            alive: true,
        });
        g.add_edge(WorkEdge {
            src: b,
            dst: c,
            src_ev: EventRef::EMPTY,
            snk_ev: EventRef::EMPTY,
            alive: true,
        });
        assert_eq!(g.preds(b), vec![a]);
        assert_eq!(g.succs(b), vec![c]);
        g.nodes[a].alive = false;
        g.edges[0].alive = false;
        assert!(g.preds(b).is_empty());
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn fuse_parallel_edges_merges_events() {
        let mut g = WorkGraph::default();
        let a = g.add_node(mk_node(NodeKind::Op(Opcode::Load)));
        let b = g.add_node(mk_node(NodeKind::Op(Opcode::FAdd)));
        let e1s = g.add_events(&[(0, 1)]);
        let e2s = g.add_events(&[(1, 2)]);
        g.add_edge(WorkEdge {
            src: a,
            dst: b,
            src_ev: e1s,
            snk_ev: e1s,
            alive: true,
        });
        g.add_edge(WorkEdge {
            src: a,
            dst: b,
            src_ev: e2s,
            snk_ev: e2s,
            alive: true,
        });
        g.fuse_parallel_edges();
        assert_eq!(g.num_edges(), 1);
        let e = *g.edges.iter().find(|e| e.alive).unwrap();
        assert_eq!(g.events.decode(e.src_ev), vec![(0, 1), (1, 2)]);
        assert!(g.check().is_ok());
    }

    #[test]
    fn fuse_with_empty_side_reuses_stream() {
        let mut g = WorkGraph::default();
        let a = g.add_node(mk_node(NodeKind::Op(Opcode::Load)));
        let b = g.add_node(mk_node(NodeKind::Op(Opcode::FAdd)));
        let ev = g.add_events(&[(0, 1), (2, 3)]);
        g.add_edge(WorkEdge {
            src: a,
            dst: b,
            src_ev: EventRef::EMPTY,
            snk_ev: ev,
            alive: true,
        });
        g.add_edge(WorkEdge {
            src: a,
            dst: b,
            src_ev: ev,
            snk_ev: EventRef::EMPTY,
            alive: true,
        });
        g.fuse_parallel_edges();
        let e = *g.edges.iter().find(|e| e.alive).unwrap();
        assert_eq!(e.src_ev, ev, "non-empty side must be reused verbatim");
        assert_eq!(e.snk_ev, ev);
    }

    fn parallel_edge(
        g: &mut WorkGraph,
        src: usize,
        dst: usize,
        src_ev: EventRef,
        snk_ev: EventRef,
    ) {
        g.add_edge(WorkEdge {
            src,
            dst,
            src_ev,
            snk_ev,
            alive: true,
        });
    }

    #[test]
    fn fusing_a_fused_edge_again_flattens_into_one_list() {
        use pg_activity::sa::{merge_events, sa_ar};
        let mut g = WorkGraph {
            latency: 50,
            ..WorkGraph::default()
        };
        let a = g.add_node(mk_node(NodeKind::Op(Opcode::Load)));
        let b = g.add_node(mk_node(NodeKind::Op(Opcode::FAdd)));
        // Cycle ties across members, a const stretch and a single event.
        let raw: [Vec<(u64, u32)>; 4] = [
            vec![(0, 1), (2, 5), (4, 5), (6, 1)],
            vec![(2, 9), (3, 9), (4, 9), (5, 9), (6, 9)],
            vec![(4, 7)],
            vec![(1, 3), (4, 2), (8, 6)],
        ];
        let refs: Vec<EventRef> = raw.iter().map(|r| g.add_events(r)).collect();
        parallel_edge(&mut g, a, b, refs[0], refs[0]);
        parallel_edge(&mut g, a, b, refs[1], refs[1]);
        g.fuse_parallel_edges();
        let fused = g.edges.iter().position(|e| e.alive).unwrap();
        assert_eq!(
            g.edges[fused].src_ev, g.edges[fused].snk_ev,
            "same-sided group"
        );
        // Fuse the fused edge again with two more parallel edges.
        parallel_edge(&mut g, a, b, refs[2], refs[2]);
        parallel_edge(&mut g, a, b, refs[3], refs[3]);
        g.fuse_parallel_edges();
        assert_eq!(g.num_edges(), 1);
        let e = *g.edges.iter().find(|e| e.alive).unwrap();
        assert_eq!(e.src_ev, e.snk_ev, "same-sided group");
        assert_eq!(e.src_ev.len, 4, "nested list flattened to its members");
        let flat = raw[1..]
            .iter()
            .fold(raw[0].clone(), |acc, r| merge_events(&acc, r));
        assert_eq!(g.events.decode(e.src_ev), flat);
        assert_eq!(g.events.count(e.src_ev), flat.len());
        for latency in [1, 50] {
            assert_eq!(g.events.sa_ar(e.src_ev, latency), sa_ar(&flat, latency));
        }
    }

    #[test]
    fn two_sided_groups_fuse_each_side() {
        let mut g = WorkGraph::default();
        let a = g.add_node(mk_node(NodeKind::Op(Opcode::Load)));
        let b = g.add_node(mk_node(NodeKind::Op(Opcode::FAdd)));
        let s1 = g.add_events(&[(0, 1), (4, 2)]);
        let s2 = g.add_events(&[(2, 3)]);
        let k2 = g.add_events(&[(3, 8), (5, 8)]);
        parallel_edge(&mut g, a, b, s1, s1);
        parallel_edge(&mut g, a, b, s2, k2);
        g.fuse_parallel_edges();
        let e = *g.edges.iter().find(|e| e.alive).unwrap();
        assert_ne!(e.src_ev, e.snk_ev);
        assert_eq!(g.events.decode(e.src_ev), vec![(0, 1), (2, 3), (4, 2)]);
        assert_eq!(
            g.events.decode(e.snk_ev),
            vec![(0, 1), (3, 8), (4, 2), (5, 8)]
        );
    }

    #[test]
    fn check_catches_dead_endpoint() {
        let mut g = WorkGraph::default();
        let a = g.add_node(mk_node(NodeKind::Op(Opcode::Load)));
        let b = g.add_node(mk_node(NodeKind::Op(Opcode::FAdd)));
        g.add_edge(WorkEdge {
            src: a,
            dst: b,
            src_ev: EventRef::EMPTY,
            snk_ev: EventRef::EMPTY,
            alive: true,
        });
        g.nodes[b].alive = false;
        assert!(g.check().is_err());
    }

    #[test]
    fn powergraph_validation() {
        let g = PowerGraph {
            kernel: "k".into(),
            design_id: "d".into(),
            num_nodes: 2,
            node_feats: vec![0.0; 2 * PowerGraph::NODE_FEATS],
            edges: vec![(0, 1)],
            edge_feats: vec![[0.1, 0.1, 0.05, 0.05]],
            edge_rel: vec![Relation::NA],
            meta: vec![],
        };
        assert!(g.validate().is_ok());
        assert_eq!(g.relation_counts(), [0, 0, 1, 0]);
        let mut bad = g.clone();
        bad.edges[0].1 = 9;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn non_finite_metadata_is_invalid() {
        let mut g = PowerGraph {
            kernel: "k".into(),
            design_id: "d".into(),
            num_nodes: 1,
            node_feats: vec![0.0; PowerGraph::NODE_FEATS],
            edges: vec![],
            edge_feats: vec![],
            edge_rel: vec![],
            meta: vec![1.0, -2.5, 0.0],
        };
        assert!(g.validate().is_ok());
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            g.meta[1] = v;
            assert_eq!(
                g.validate(),
                Err("non-finite metadata feature".to_string()),
                "meta {v}"
            );
        }
    }
}
