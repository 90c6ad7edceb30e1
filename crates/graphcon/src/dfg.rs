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
//! copyable [`EventRef`] slices into it, managed by [`GraphEvents`]:
//!
//! * the **base** arena is the execution trace's arena, shared with the
//!   graph via `Arc` — def-use fan-out, buffer rerouting and trim bypass
//!   attach an op's stream to many edges as plain `(offset, len)` copies;
//! * the **extension** arena holds streams the passes create (parallel-
//!   edge fusion time-merges two streams into a new one), distinguished by
//!   bit 31 of the ref offset.
//!
//! Activity folds ([`GraphEvents::sa_ar`]) consume the compressed runs
//! directly — no decode allocation — and are bit-identical to the naive
//! slice math of Eq. 2/3.

use pg_activity::events::{EventArena, MergeScratch};
use pg_activity::{EventRef, NodeActivity};
use pg_ir::{OpClass, Opcode, ValueId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Offset tag selecting the extension arena of a [`GraphEvents`].
const EXT_BIT: u32 = 1 << 31;

/// The event storage of one [`WorkGraph`]: the trace's shared base arena
/// plus a graph-owned extension arena for streams created by passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphEvents {
    base: Arc<EventArena>,
    ext: EventArena,
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
            ext: EventArena::new(),
        }
    }

    /// Compressed words of one stream.
    pub fn stream(&self, r: EventRef) -> &[u32] {
        if r.off & EXT_BIT != 0 {
            let off = (r.off & !EXT_BIT) as usize;
            &self.ext.words()[off..off + r.len as usize]
        } else {
            &self.base.words()[r.off as usize..(r.off + r.len) as usize]
        }
    }

    /// Number of events in a stream.
    pub fn count(&self, r: EventRef) -> usize {
        pg_activity::events::event_count(self.stream(r))
    }

    /// Decodes a stream to raw `(cycle, bits)` events (tests, diagnostics).
    pub fn decode(&self, r: EventRef) -> Vec<(u64, u32)> {
        pg_activity::events::decode(self.stream(r))
    }

    /// Eq. 2 / Eq. 3 of one stream, folded over its compressed runs.
    pub fn sa_ar(&self, r: EventRef, latency: u64) -> (f64, f64) {
        pg_activity::events::fold_sa_ar(self.stream(r), latency)
    }

    /// [`GraphEvents::sa_ar`] memoized per distinct stream: fan-out
    /// attaches one op's stream to many edges as the same `(offset, len)`
    /// ref — bit 31 of the offset disambiguates base vs extension arena,
    /// so the pair is a sound memo key. Used by graph finalization and
    /// the oracle netlist, which both fold every alive edge.
    pub fn sa_ar_memo(
        &self,
        r: EventRef,
        latency: u64,
        memo: &mut BTreeMap<(u32, u32), (f64, f64)>,
    ) -> (f64, f64) {
        *memo
            .entry((r.off, r.len))
            .or_insert_with(|| self.sa_ar(r, latency))
    }

    /// Tags an extension-arena ref with [`EXT_BIT`], checking the same
    /// 2^31-word bound `with_base` enforces for the base arena (an
    /// overflowing offset would silently alias an earlier stream).
    fn ext_ref(&self, off: u32, len: u32) -> EventRef {
        assert!(
            self.ext.words().len() < EXT_BIT as usize,
            "extension arena exceeds the 2^31-word ref space"
        );
        EventRef {
            off: off | EXT_BIT,
            len,
        }
    }

    /// Encodes raw events into the extension arena (tests, synthetic
    /// graphs).
    pub fn push_events(&mut self, events: &[(u64, u32)]) -> EventRef {
        let r = self.ext.push_events(events);
        self.ext_ref(r.off, r.len)
    }

    /// Time-merges two streams into a new extension stream (stable: ties
    /// take `a` first), decoding through `scratch` so repeated merges
    /// reuse one pool of buffers. The merged stream is encoded as delta
    /// runs directly into the extension arena. Both streams must be
    /// non-empty (merging with an empty stream is the identity — keep the
    /// other ref instead, as `fuse_parallel_edges` does).
    pub fn merge(&mut self, a: EventRef, b: EventRef, scratch: &mut MergeScratch) -> EventRef {
        self.merge_many(&[a, b], scratch)
    }

    /// K-way time-merge (stable: equal cycles take the earliest stream in
    /// `refs` first — bit-identical to a left-fold of pairwise merges, but
    /// each input is read exactly once). Every stream must be non-empty:
    /// empty members would be identity elements, so callers filter them
    /// out and keep the surviving ref when fewer than two remain.
    pub fn merge_many(&mut self, refs: &[EventRef], scratch: &mut MergeScratch) -> EventRef {
        use pg_activity::events::{merge_streams_k, MERGE_FAN_IN};
        assert!(
            refs.len() >= 2 && refs.iter().all(|r| !r.is_empty()),
            "merge_many requires >= 2 non-empty streams"
        );
        if refs.len() <= MERGE_FAN_IN {
            // Compressed-domain fast path: merge the run encodings
            // directly, staged through the scratch because the output
            // arena may also be an input.
            let mut tmp = std::mem::take(&mut scratch.words_tmp);
            tmp.clear();
            {
                let mut inputs: [&[u32]; MERGE_FAN_IN] = [&[]; MERGE_FAN_IN];
                for (i, &r) in refs.iter().enumerate() {
                    inputs[i] = self.stream(r);
                }
                merge_streams_k(&mut tmp, &inputs[..refs.len()]);
            }
            let out = self.ext.words_mut();
            let off = out.len() as u32;
            out.extend_from_slice(&tmp);
            let len = tmp.len() as u32;
            scratch.words_tmp = tmp;
            return self.ext_ref(off, len);
        }
        // Wide groups: decode all inputs first (immutable borrows end),
        // then append the interleave to the extension arena.
        scratch.begin();
        for &r in refs {
            scratch.add(self.stream(r));
        }
        let out = self.ext.words_mut();
        let off = out.len() as u32;
        let r = scratch.encode_merged(out);
        self.ext_ref(off, r.len)
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
    /// Each group of parallel edges is merged **k-way in one pass** —
    /// bit-identical to folding pairwise merges left-to-right in edge
    /// order (cycle ties keep the earlier edge's events first), but every
    /// stream is decoded once instead of the accumulating stream being
    /// re-decoded per pair.
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
        let mut scratch = MergeScratch::default();
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
                &mut scratch,
                &mut streams,
            );
            let snk_ev = fuse_group_side(
                &self.edges,
                &mut self.events,
                *keep,
                drops,
                |e| e.snk_ev,
                &mut scratch,
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
    scratch: &mut MergeScratch,
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
            events.merge_many(streams, scratch)
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
