//! Graph batching: many [`PowerGraph`] samples concatenated into one large
//! disjoint graph for efficient tensor ops.
//!
//! Nodes of all graphs are stacked into one feature matrix; edges are
//! offset and grouped by relation type (the heterogeneous aggregation of
//! Eq. 5 processes each relation separately); a `graph_of` map drives
//! sum pooling back to per-graph embeddings (Eq. 6).
//!
//! Every edge group is also *compacted* once per batch: the ascending
//! list of destination rows that receive at least one edge, and those
//! rows' summed edge features ([`RelEdges::rows`], [`RelEdges::row_sums`]).
//! The HEC convolution projects only these rows (see [`crate::model`]).

use pg_graphcon::{PowerGraph, Relation};
use pg_tensor::Matrix;

/// Edges of one relation type within a batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelEdges {
    /// Source node indices (batch-global).
    pub src: Vec<u32>,
    /// Destination node indices (batch-global).
    pub dst: Vec<u32>,
    /// Edge features, `E_r × 4`.
    pub feats: Matrix,
    /// Destination rows with at least one in-edge, ascending.
    pub rows: Vec<u32>,
    /// Per-row edge-feature sums, `R × 4`: row `i` adds the features of
    /// every edge into `rows[i]` in edge order, starting from `0.0` —
    /// the exact summation [`pg_tensor::Exec::scatter_add`] performs.
    pub row_sums: Matrix,
}

impl RelEdges {
    /// Builds an edge group and its compaction. `slot` is per-batch
    /// scratch with one `u32::MAX` entry per node; it is restored before
    /// returning.
    fn new(src: Vec<u32>, dst: Vec<u32>, feats: Matrix, slot: &mut [u32]) -> Self {
        const W: usize = PowerGraph::EDGE_FEATS;
        assert_eq!(feats.cols, W, "edge features must be {W} wide");
        // Mark the destinations, then number them in ascending node order.
        let mut distinct = 0;
        for &d in &dst {
            let s = &mut slot[d as usize];
            distinct += usize::from(*s == u32::MAX);
            *s = 0;
        }
        // Branch-free numbering: every node is written at the next free
        // position, which only advances past marked ones.
        let mut rows = vec![0u32; distinct + 1];
        let mut next = 0usize;
        for (v, s) in slot.iter_mut().enumerate() {
            let marked = *s != u32::MAX;
            rows[next] = v as u32;
            *s = if marked { next as u32 } else { u32::MAX };
            next += usize::from(marked);
        }
        rows.truncate(distinct);
        let mut sums = vec![[0.0f32; W]; distinct];
        for (&d, f) in dst.iter().zip(feats.data.chunks_exact(W)) {
            let out = &mut sums[slot[d as usize] as usize];
            for (o, &x) in out.iter_mut().zip(f) {
                *o += x;
            }
        }
        for &d in &rows {
            slot[d as usize] = u32::MAX;
        }
        RelEdges {
            src,
            dst,
            feats,
            rows,
            row_sums: Matrix::from_vec(distinct, W, sums.into_flattened()),
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// `true` when the relation has no edges in the batch.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

/// A batch of graphs ready for the GNN.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphBatch {
    /// Stacked node features, `N × F`.
    pub node_feats: Matrix,
    /// Total node count `N`.
    pub num_nodes: usize,
    /// Graph index of each node.
    pub graph_of: Vec<u32>,
    /// Number of graphs `G`.
    pub num_graphs: usize,
    /// Per-relation edge groups (directed, as constructed).
    pub rel: Vec<RelEdges>,
    /// All edges combined (directed), for homogeneous variants.
    pub all: RelEdges,
    /// Reversed copies of all edges, for undirected variants.
    pub all_rev: RelEdges,
    /// Per-relation reversed edges (undirected heterogeneous variant).
    pub rel_rev: Vec<RelEdges>,
    /// Metadata features, `G × M` (zero-width if unavailable).
    pub meta: Matrix,
    /// Regression targets, one per graph.
    pub targets: Vec<f32>,
    /// Symmetric-normalization coefficient per combined+self-loop edge
    /// (GCN): edges are `all ∪ all_rev ∪ self-loops` in that order.
    pub gcn_src: Vec<u32>,
    /// GCN destination indices (matching [`GraphBatch::gcn_src`]).
    pub gcn_dst: Vec<u32>,
    /// GCN Â normalization coefficients.
    pub gcn_coeff: Vec<f32>,
    /// In-degree (over `all`) per node, for mean aggregation.
    pub in_degree: Vec<f32>,
}

impl GraphBatch {
    /// Builds a batch from graphs and their targets.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or a graph has no nodes.
    pub fn new(graphs: &[&PowerGraph], targets: &[f64]) -> Self {
        assert_eq!(graphs.len(), targets.len(), "target count mismatch");
        assert!(!graphs.is_empty(), "empty batch");
        let f = PowerGraph::NODE_FEATS;
        let num_nodes: usize = graphs.iter().map(|g| g.num_nodes).sum();
        let mut node_feats = Matrix::zeros(num_nodes, f);
        let mut graph_of = Vec::with_capacity(num_nodes);
        let meta_dim = graphs.iter().map(|g| g.meta.len()).max().unwrap_or(0);
        let mut meta = Matrix::zeros(graphs.len(), meta_dim);

        let mut rel: Vec<(Vec<u32>, Vec<u32>, Vec<f32>)> =
            vec![(Vec::new(), Vec::new(), Vec::new()); Relation::COUNT];
        let mut offset = 0u32;
        for (gi, g) in graphs.iter().enumerate() {
            assert!(g.num_nodes > 0, "graph {gi} has no nodes");
            for n in 0..g.num_nodes {
                node_feats
                    .row_mut(offset as usize + n)
                    .copy_from_slice(g.node(n));
                graph_of.push(gi as u32);
            }
            for (ei, &(s, d)) in g.edges.iter().enumerate() {
                let r = g.edge_rel[ei].index();
                rel[r].0.push(s + offset);
                rel[r].1.push(d + offset);
                rel[r].2.extend_from_slice(&g.edge_feats[ei]);
            }
            for (k, &m) in g.meta.iter().enumerate() {
                meta.data[gi * meta_dim + k] = m;
            }
            offset += g.num_nodes as u32;
        }

        let mut slot = vec![u32::MAX; num_nodes];
        let rel: Vec<RelEdges> = rel
            .into_iter()
            .map(|(src, dst, flat)| {
                let n = src.len();
                RelEdges::new(src, dst, Matrix::from_vec(n, 4, flat), &mut slot)
            })
            .collect();

        // Combined views.
        let (mut all_src, mut all_dst, mut all_flat) = (Vec::new(), Vec::new(), Vec::new());
        for r in &rel {
            all_src.extend_from_slice(&r.src);
            all_dst.extend_from_slice(&r.dst);
            all_flat.extend_from_slice(&r.feats.data);
        }
        let all_feats = Matrix::from_vec(all_src.len(), 4, all_flat);
        let all = RelEdges::new(all_src, all_dst, all_feats, &mut slot);
        let all_rev = reverse(&all, &mut slot);
        let rel_rev: Vec<RelEdges> = rel.iter().map(|r| reverse(r, &mut slot)).collect();

        // GCN: symmetric normalization over undirected edges + self loops.
        let mut gcn_src: Vec<u32> = Vec::new();
        let mut gcn_dst: Vec<u32> = Vec::new();
        gcn_src.extend_from_slice(&all.src);
        gcn_dst.extend_from_slice(&all.dst);
        gcn_src.extend_from_slice(&all.dst);
        gcn_dst.extend_from_slice(&all.src);
        for n in 0..num_nodes as u32 {
            gcn_src.push(n);
            gcn_dst.push(n);
        }
        let mut deg = vec![1.0f32; num_nodes]; // self loop counts once
        for e in 0..all.len() {
            deg[all.src[e] as usize] += 1.0;
            deg[all.dst[e] as usize] += 1.0;
        }
        let gcn_coeff: Vec<f32> = gcn_src
            .iter()
            .zip(&gcn_dst)
            .map(|(&s, &d)| 1.0 / (deg[s as usize] * deg[d as usize]).sqrt())
            .collect();

        let mut in_degree = vec![0.0f32; num_nodes];
        for &d in &all.dst {
            in_degree[d as usize] += 1.0;
        }

        GraphBatch {
            node_feats,
            num_nodes,
            graph_of,
            num_graphs: graphs.len(),
            rel,
            all,
            all_rev,
            rel_rev,
            meta,
            targets: targets.iter().map(|&t| t as f32).collect(),
            gcn_src,
            gcn_dst,
            gcn_coeff,
            in_degree,
        }
    }

    /// Total edge count (directed, as constructed).
    pub fn num_edges(&self) -> usize {
        self.all.len()
    }
}

/// The group with every edge flipped, compacted by its own destinations.
fn reverse(r: &RelEdges, slot: &mut [u32]) -> RelEdges {
    RelEdges::new(r.dst.clone(), r.src.clone(), r.feats.clone(), slot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph(nodes: usize, shift: f32) -> PowerGraph {
        let f = PowerGraph::NODE_FEATS;
        let mut node_feats = vec![0.0f32; nodes * f];
        for n in 0..nodes {
            node_feats[n * f] = 1.0;
            node_feats[n * f + f - 1] = shift + n as f32;
        }
        let edges: Vec<(u32, u32)> = (1..nodes as u32).map(|d| (d - 1, d)).collect();
        let ne = edges.len();
        PowerGraph {
            kernel: "t".into(),
            design_id: "t".into(),
            num_nodes: nodes,
            node_feats,
            edges,
            edge_feats: vec![[0.1, 0.2, 0.05, 0.05]; ne],
            edge_rel: (0..ne)
                .map(|i| match i % 2 {
                    0 => Relation::NA,
                    _ => Relation::AN,
                })
                .collect(),
            meta: vec![0.5, 1.0],
        }
    }

    #[test]
    fn stacks_nodes_with_offsets() {
        let (a, b) = (tiny_graph(3, 0.0), tiny_graph(4, 10.0));
        let batch = GraphBatch::new(&[&a, &b], &[1.0, 2.0]);
        assert_eq!(batch.num_nodes, 7);
        assert_eq!(batch.num_graphs, 2);
        assert_eq!(batch.graph_of, vec![0, 0, 0, 1, 1, 1, 1]);
        // second graph's edges shifted by 3
        let total_edges: usize = batch.rel.iter().map(|r| r.len()).sum();
        assert_eq!(total_edges, 2 + 3);
        assert!(batch
            .rel
            .iter()
            .flat_map(|r| r.src.iter().chain(r.dst.iter()))
            .all(|&x| x < 7));
        assert_eq!(batch.targets, vec![1.0, 2.0]);
    }

    #[test]
    fn relations_partition_edges() {
        let a = tiny_graph(5, 0.0);
        let batch = GraphBatch::new(&[&a], &[1.0]);
        assert_eq!(batch.rel[Relation::NA.index()].len(), 2);
        assert_eq!(batch.rel[Relation::AN.index()].len(), 2);
        assert_eq!(batch.rel[Relation::AA.index()].len(), 0);
        assert_eq!(batch.num_edges(), 4);
    }

    #[test]
    fn reversed_edges_swap_endpoints() {
        let a = tiny_graph(3, 0.0);
        let batch = GraphBatch::new(&[&a], &[1.0]);
        assert_eq!(batch.all_rev.src, batch.all.dst);
        assert_eq!(batch.all_rev.dst, batch.all.src);
        assert_eq!(batch.all_rev.feats, batch.all.feats);
    }

    #[test]
    fn gcn_normalization_sane() {
        let a = tiny_graph(4, 0.0);
        let batch = GraphBatch::new(&[&a], &[1.0]);
        // edges*2 + self loops
        assert_eq!(batch.gcn_src.len(), 3 * 2 + 4);
        assert!(batch.gcn_coeff.iter().all(|&c| c > 0.0 && c <= 1.0));
        // middle node degree 3 (two neighbors + self): self-loop coeff 1/3
        let self_loop_idx = batch.gcn_src.len() - 3; // node 1's self loop
        assert!((batch.gcn_coeff[self_loop_idx] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn meta_matrix_padded() {
        let a = tiny_graph(2, 0.0);
        let mut b = tiny_graph(2, 1.0);
        b.meta = vec![];
        let batch = GraphBatch::new(&[&a, &b], &[1.0, 2.0]);
        assert_eq!(batch.meta.rows, 2);
        assert_eq!(batch.meta.cols, 2);
        assert_eq!(batch.meta.row(1), &[0.0, 0.0]);
    }

    /// A graph with explicit `(src, dst, relation, features)` edges.
    fn edge_graph(nodes: usize, edges: &[(u32, u32, Relation, [f32; 4])]) -> PowerGraph {
        PowerGraph {
            kernel: "t".into(),
            design_id: "t".into(),
            num_nodes: nodes,
            node_feats: vec![0.0; nodes * PowerGraph::NODE_FEATS],
            edges: edges.iter().map(|&(s, d, _, _)| (s, d)).collect(),
            edge_feats: edges.iter().map(|&(_, _, _, f)| f).collect(),
            edge_rel: edges.iter().map(|&(_, _, r, _)| r).collect(),
            meta: vec![],
        }
    }

    #[test]
    fn compacted_rows_are_ascending_with_edge_order_sums() {
        // Destinations arrive out of order: 4, 1, 4, 2.
        let g = edge_graph(
            5,
            &[
                (0, 4, Relation::AA, [1.0, 2.0, 3.0, 4.0]),
                (0, 1, Relation::AA, [0.5, 0.5, 0.5, 0.5]),
                (3, 4, Relation::AA, [0.25, 0.0, 0.0, 1.0]),
                (1, 2, Relation::AA, [2.0, 0.0, 1.0, 0.0]),
            ],
        );
        let batch = GraphBatch::new(&[&g], &[1.0]);
        let aa = &batch.rel[Relation::AA.index()];
        assert_eq!(aa.rows, vec![1, 2, 4]);
        assert_eq!(aa.row_sums.rows, 3);
        assert_eq!(aa.row_sums.row(0), &[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(aa.row_sums.row(1), &[2.0, 0.0, 1.0, 0.0]);
        assert_eq!(aa.row_sums.row(2), &[1.25, 2.0, 3.0, 5.0]);
        assert!(aa.rows.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn zero_sum_rows_are_listed_and_isolated_nodes_are_not() {
        // Node 2's two in-edges cancel exactly; nodes 0, 3 and 4 receive
        // nothing.
        let g = edge_graph(
            5,
            &[
                (0, 2, Relation::NA, [1.0, -0.5, 0.0, 2.0]),
                (1, 2, Relation::NA, [-1.0, 0.5, 0.0, -2.0]),
                (0, 1, Relation::NA, [0.0, 0.0, 0.0, 0.0]),
            ],
        );
        let batch = GraphBatch::new(&[&g], &[1.0]);
        let na = &batch.rel[Relation::NA.index()];
        assert_eq!(na.rows, vec![1, 2]);
        assert_eq!(na.row_sums.data, vec![0.0; 8]);
        assert_eq!(batch.all.rows, vec![1, 2]);
    }

    #[test]
    fn reversed_groups_compact_by_their_own_destinations() {
        let g = edge_graph(
            4,
            &[
                (3, 0, Relation::AN, [1.0, 0.0, 0.0, 0.0]),
                (3, 1, Relation::AN, [0.0, 1.0, 0.0, 0.0]),
                (2, 1, Relation::NN, [0.0, 0.0, 1.0, 0.0]),
            ],
        );
        let batch = GraphBatch::new(&[&g], &[1.0]);
        let an = Relation::AN.index();
        assert_eq!(batch.rel[an].rows, vec![0, 1]);
        assert_eq!(batch.rel_rev[an].rows, vec![3]);
        assert_eq!(batch.rel_rev[an].row_sums.data, vec![1.0, 1.0, 0.0, 0.0]);
        assert_eq!(batch.all.rows, vec![0, 1]);
        assert_eq!(batch.all_rev.rows, vec![2, 3]);
        assert_eq!(batch.all_rev.row_sums.row(0), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(batch.all_rev.row_sums.row(1), &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_relations_compact_to_zero_rows() {
        let a = tiny_graph(4, 0.0); // NA and AN edges only
        let batch = GraphBatch::new(&[&a], &[1.0]);
        for group in [
            &batch.rel[Relation::AA.index()],
            &batch.rel_rev[Relation::NN.index()],
        ] {
            assert!(group.rows.is_empty());
            assert_eq!((group.row_sums.rows, group.row_sums.cols), (0, 4));
        }
    }

    #[test]
    fn compaction_offsets_rows_across_graphs() {
        let (a, b) = (tiny_graph(3, 0.0), tiny_graph(3, 1.0));
        let batch = GraphBatch::new(&[&a, &b], &[1.0, 2.0]);
        // Chains 0→1→2 and 3→4→5: every node but the chain heads receives.
        assert_eq!(batch.all.rows, vec![1, 2, 4, 5]);
        assert_eq!(batch.all_rev.rows, vec![0, 1, 3, 4]);
    }

    #[test]
    fn in_degree_counts() {
        let a = tiny_graph(3, 0.0); // chain 0->1->2
        let batch = GraphBatch::new(&[&a], &[1.0]);
        assert_eq!(batch.in_degree, vec![0.0, 1.0, 1.0]);
    }
}
