//! Feature annotation and finalization (§III-A).
//!
//! Node features: one-hot operation class and opcode (buffers get their own
//! slots), plus the numeric activity statistics (overall activation rate,
//! input/output/overall switching activities), memory-resource annotation
//! and merged-instance count. Edge features: the four-dimensional
//! `[SA_src, SA_snk, AR_src, AR_snk]` vector of Eq. 2/3. Edge relations:
//! A→A / A→N / N→A / N→N from the arithmetic classification of endpoint
//! nodes.

use crate::dfg::{PowerGraph, Relation, WorkGraph};

/// Finalizes a worked graph into a [`PowerGraph`] sample.
pub fn finalize(g: &WorkGraph, kernel: &str, design_id: &str) -> PowerGraph {
    // Compact alive nodes.
    let mut remap = vec![u32::MAX; g.nodes.len()];
    let mut num_nodes = 0usize;
    for (i, n) in g.nodes.iter().enumerate() {
        if n.alive {
            remap[i] = num_nodes as u32;
            num_nodes += 1;
        }
    }

    let mut node_feats = vec![0.0f32; num_nodes * PowerGraph::NODE_FEATS];
    for (i, n) in g.nodes.iter().enumerate() {
        if !n.alive {
            continue;
        }
        let row = remap[i] as usize * PowerGraph::NODE_FEATS;
        let f = &mut node_feats[row..row + PowerGraph::NODE_FEATS];
        f[n.kind.class_slot()] = 1.0;
        let opcode_base = 5; // OpClass::COUNT + 1
        f[opcode_base + n.kind.opcode_slot()] = 1.0;
        let num_base = opcode_base + 23; // Opcode::COUNT + 2
        f[num_base] = n.activity.ar as f32;
        f[num_base + 1] = n.activity.sa_in as f32;
        f[num_base + 2] = n.activity.sa_out as f32;
        f[num_base + 3] = n.activity.sa_overall as f32;
        f[num_base + 4] = (n.bram / 8.0).min(4.0) as f32;
        f[num_base + 5] = ((1 + n.ops.len()) as f32).log2() / 4.0;
    }

    let mut edges = Vec::new();
    let mut edge_feats = Vec::new();
    let mut edge_rel = Vec::new();
    for e in g.edges.iter().filter(|e| e.alive) {
        let (s, d) = (remap[e.src], remap[e.dst]);
        debug_assert!(s != u32::MAX && d != u32::MAX);
        edges.push((s, d));
        // Merge lists fold once per graph (the netlist reuses the fold);
        // a stream on both sides folds once per edge.
        let (sa_src, ar_src) = g.events.sa_ar(e.src_ev, g.latency);
        let (sa_snk, ar_snk) = if e.snk_ev == e.src_ev {
            (sa_src, ar_src)
        } else {
            g.events.sa_ar(e.snk_ev, g.latency)
        };
        edge_feats.push([sa_src as f32, sa_snk as f32, ar_src as f32, ar_snk as f32]);
        edge_rel.push(Relation::from_classes(
            g.nodes[e.src].kind.is_arithmetic(),
            g.nodes[e.dst].kind.is_arithmetic(),
        ));
    }

    PowerGraph {
        kernel: kernel.to_string(),
        design_id: design_id.to_string(),
        num_nodes,
        node_feats,
        edges,
        edge_feats,
        edge_rel,
        meta: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::{NodeKind, WorkEdge, WorkNode};
    use pg_activity::NodeActivity;
    use pg_ir::Opcode;

    fn tiny() -> WorkGraph {
        let mut g = WorkGraph {
            latency: 10,
            ..WorkGraph::default()
        };
        let load = g.add_node(WorkNode {
            kind: NodeKind::Op(Opcode::Load),
            ops: vec![],
            activity: NodeActivity {
                ar: 0.5,
                sa_in: 0.1,
                sa_out: 0.2,
                sa_overall: 0.3,
            },
            bram: 0.0,
            array: None,
            bank: 0,
            alive: true,
        });
        let fadd = g.add_node(WorkNode {
            kind: NodeKind::Op(Opcode::FAdd),
            ops: vec![],
            activity: NodeActivity::default(),
            bram: 0.0,
            array: None,
            bank: 0,
            alive: true,
        });
        let dead = g.add_node(WorkNode {
            kind: NodeKind::Op(Opcode::SExt),
            ops: vec![],
            activity: NodeActivity::default(),
            bram: 0.0,
            array: None,
            bank: 0,
            alive: false,
        });
        let _ = dead;
        let src_ev = g.add_events(&[(0, 0), (1, 0xFF)]);
        let snk_ev = g.add_events(&[(0, 0), (2, 0xFF)]);
        g.add_edge(WorkEdge {
            src: load,
            dst: fadd,
            src_ev,
            snk_ev,
            alive: true,
        });
        g
    }

    #[test]
    fn compacts_dead_nodes() {
        let pg = finalize(&tiny(), "k", "d");
        assert_eq!(pg.num_nodes, 2);
        assert_eq!(pg.num_edges(), 1);
        assert!(pg.validate().is_ok());
    }

    #[test]
    fn one_hot_and_numeric_features() {
        let pg = finalize(&tiny(), "k", "d");
        let f = pg.node(0); // load node
                            // class one-hot: Memory = index 1
        assert_eq!(f[1], 1.0);
        assert_eq!(f.iter().take(5).sum::<f32>(), 1.0);
        // opcode one-hot: exactly one set
        assert_eq!(f[5..5 + 23].iter().sum::<f32>(), 1.0);
        assert_eq!(f[5 + Opcode::Load.index()], 1.0);
        // numeric tail
        let nb = 5 + 23;
        assert!((f[nb] - 0.5).abs() < 1e-6);
        assert!((f[nb + 3] - 0.3).abs() < 1e-6);
    }

    #[test]
    fn edge_features_match_eq2_eq3() {
        let pg = finalize(&tiny(), "k", "d");
        let ef = pg.edge_feats[0];
        // one change of 8 bits over latency 10
        assert!((ef[0] - 0.8).abs() < 1e-6);
        assert!((ef[1] - 0.8).abs() < 1e-6);
        assert!((ef[2] - 0.1).abs() < 1e-6);
        assert!((ef[3] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn relation_from_endpoints() {
        let pg = finalize(&tiny(), "k", "d");
        // load (N) -> fadd (A)
        assert_eq!(pg.edge_rel[0], Relation::NA);
    }
}
