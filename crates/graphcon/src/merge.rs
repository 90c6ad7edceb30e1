//! Datapath merging (§III-A).
//!
//! Two mechanisms restore the real hardware implementation from the DFG:
//!
//! 1. **Resource-sharing merge** — DFG nodes whose ops are bound to the same
//!    functional-unit instance (the HLS binding's sharing sets) are fused:
//!    one physical adder that serves five FSM states is one graph node, not
//!    five ("we merge the DFG nodes utilizing the same set of hardware
//!    resources").
//! 2. **Structural chain merge** — identical sibling nodes with the same
//!    opcode, predecessors and successors (duplicate IR chains produced by
//!    different loop executions between the same endpoints) are fused
//!    iteratively, collapsing duplicate node chains.
//!
//! Merging fuses edge event sequences by time, so the merged wire carries
//! the interleaved traffic of all instances — its switching activity is the
//! physical net's activity.

use crate::dfg::{NodeKind, WorkGraph};
use pg_activity::NodeActivity;
use pg_hls::HlsDesign;
use std::collections::BTreeMap;

/// Runs both merging mechanisms until fixpoint.
pub fn merge_datapaths(g: &mut WorkGraph, design: &HlsDesign) {
    {
        let _t = pg_util::metrics::stage("graph.merge.binding");
        merge_by_binding(g, design);
    }
    let _t = pg_util::metrics::stage("graph.merge.rounds");
    let mut guard = 0;
    while merge_structural_round(g) {
        guard += 1;
        if guard > 64 {
            break;
        }
    }
    debug_assert_eq!(g.check(), Ok(()));
}

/// Fuses nodes bound to the same FU instance (same opcode only: an IntAlu
/// instance executing `add` and `icmp` in different states keeps separate
/// node identities for feature fidelity).
pub fn merge_by_binding(g: &mut WorkGraph, design: &HlsDesign) {
    // Group alive op nodes by (instance, opcode). Ordered map: groups are
    // disjoint so merge order cannot change the result, but iterating in
    // key order keeps the pass reproducible by construction.
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (ni, node) in g.nodes.iter().enumerate() {
        if !node.alive {
            continue;
        }
        let opcode = match &node.kind {
            NodeKind::Op(o) => *o,
            _ => continue,
        };
        // every op in the node shares an instance pre-merge (singletons)
        let Some(&vid) = node.ops.first() else {
            continue;
        };
        if let Some(&inst) = design.binding.op_to_instance.get(&vid) {
            groups.entry((inst, opcode.index())).or_default().push(ni);
        }
    }
    let mut merged_any = false;
    for group in groups.into_values() {
        if group.len() > 1 {
            merge_group(g, &group);
            merged_any = true;
        }
    }
    if merged_any {
        g.fuse_parallel_edges();
    }
}

/// One round of structural merging; returns `true` if anything merged.
pub fn merge_structural_round(g: &mut WorkGraph) -> bool {
    // Adjacency in one edge pass (the per-node `preds`/`succs` helpers
    // rescan the whole edge list per call, which made this round O(V·E)).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); g.nodes.len()];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); g.nodes.len()];
    for e in g.edges.iter().filter(|e| e.alive) {
        if g.nodes[e.src].alive {
            preds[e.dst].push(e.src);
        }
        if g.nodes[e.dst].alive {
            succs[e.src].push(e.dst);
        }
    }
    for list in preds.iter_mut().chain(succs.iter_mut()) {
        list.sort_unstable();
        list.dedup();
    }

    let mut by_key: BTreeMap<(usize, Vec<usize>, Vec<usize>), Vec<usize>> = BTreeMap::new();
    for (ni, node) in g.nodes.iter().enumerate() {
        if !node.alive {
            continue;
        }
        if !matches!(node.kind, NodeKind::Op(_)) {
            continue; // buffers are distinct physical memories
        }
        let (preds, succs) = (
            std::mem::take(&mut preds[ni]),
            std::mem::take(&mut succs[ni]),
        );
        if preds.is_empty() && succs.is_empty() {
            continue;
        }
        by_key
            .entry((node.kind.opcode_slot(), preds, succs))
            .or_default()
            .push(ni);
    }
    let mut merged = false;
    for group in by_key.into_values() {
        if group.len() > 1 {
            merge_group(g, &group);
            merged = true;
        }
    }
    if merged {
        g.fuse_parallel_edges();
    }
    merged
}

/// Fuses `group` into its lowest-index member: union op lists, average
/// activities, re-point edges (parallel edges fused by the caller).
fn merge_group(g: &mut WorkGraph, group: &[usize]) {
    let mut sorted = group.to_vec();
    sorted.sort_unstable();
    let keep = sorted[0];
    let stats: Vec<NodeActivity> = sorted.iter().map(|&i| g.nodes[i].activity).collect();
    let mut ops = Vec::new();
    let mut bram = 0.0;
    for &i in &sorted {
        ops.extend(g.nodes[i].ops.iter().copied());
        bram += g.nodes[i].bram;
    }
    // One edge pass re-points every dropped member to `keep` (the dropped
    // set is sorted, so membership is a binary search).
    let dropped = &sorted[1..];
    for e in &mut g.edges {
        if !e.alive {
            continue;
        }
        if dropped.binary_search(&e.src).is_ok() {
            e.src = keep;
        }
        if dropped.binary_search(&e.dst).is_ok() {
            e.dst = keep;
        }
    }
    for &drop in dropped {
        g.nodes[drop].alive = false;
    }
    let node = &mut g.nodes[keep];
    node.ops = ops;
    node.bram = bram;
    node.activity = NodeActivity::merge(&stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::insert_buffers;
    use crate::build::build_raw;
    use pg_activity::{execute, Stimuli};
    use pg_hls::{Directives, HlsFlow};
    use pg_ir::expr::aff;
    use pg_ir::{ArrayKind, Expr, Kernel, KernelBuilder, Opcode};

    /// Two dependent fadds per iteration -> shared adder when sequential.
    fn chain() -> Kernel {
        KernelBuilder::new("chain")
            .array("a", &[8], ArrayKind::Input)
            .array("b", &[8], ArrayKind::Input)
            .array("y", &[8], ArrayKind::Output)
            .loop_("i", 8, |bb| {
                bb.assign(
                    ("y", vec![aff("i")]),
                    (Expr::load("a", vec![aff("i")]) + Expr::Const(1.0))
                        + Expr::load("b", vec![aff("i")]),
                );
            })
            .build()
            .unwrap()
    }

    /// x[i]*x[i]: two identical loads between buffer and fmul.
    fn square() -> Kernel {
        KernelBuilder::new("square")
            .array("x", &[8], ArrayKind::Input)
            .array("y", &[8], ArrayKind::Output)
            .loop_("i", 8, |bb| {
                bb.assign(
                    ("y", vec![aff("i")]),
                    Expr::load("x", vec![aff("i")]) * Expr::load("x", vec![aff("i")]),
                );
            })
            .build()
            .unwrap()
    }

    fn pipeline(kernel: &Kernel, d: &Directives, merge: bool) -> (HlsDesign, WorkGraph) {
        let design = HlsFlow::new().run(kernel, d).unwrap();
        let stim = Stimuli::for_kernel(kernel, 0);
        let trace = execute(&design, &stim);
        let mut g = build_raw(&design, &trace);
        insert_buffers(&mut g, &design);
        if merge {
            merge_datapaths(&mut g, &design);
        }
        (design, g)
    }

    fn count_opcode(g: &WorkGraph, op: Opcode) -> usize {
        g.nodes
            .iter()
            .filter(|n| n.alive && matches!(&n.kind, NodeKind::Op(o) if *o == op))
            .count()
    }

    #[test]
    fn shared_adders_merge_to_one_node() {
        let (_d, g0) = pipeline(&chain(), &Directives::new(), false);
        let (_d, g1) = pipeline(&chain(), &Directives::new(), true);
        assert_eq!(count_opcode(&g0, Opcode::FAdd), 2);
        assert_eq!(
            count_opcode(&g1, Opcode::FAdd),
            1,
            "sequential fadds share one FU and must merge"
        );
    }

    #[test]
    fn merged_node_records_instances() {
        let (_d, g) = pipeline(&chain(), &Directives::new(), true);
        let fadd = g
            .nodes
            .iter()
            .find(|n| n.alive && matches!(&n.kind, NodeKind::Op(Opcode::FAdd)))
            .unwrap();
        assert_eq!(fadd.ops.len(), 2);
    }

    #[test]
    fn duplicate_loads_merge_structurally() {
        let (_d, g) = pipeline(&square(), &Directives::new(), true);
        // both loads of x share the port (binding merge) or the chain merge
        assert_eq!(count_opcode(&g, Opcode::Load), 1);
    }

    #[test]
    fn pipelined_unrolled_lanes_stay_separate() {
        let mut d = Directives::new();
        d.pipeline("i")
            .unroll("i", 4)
            .partition("a", 4)
            .partition("b", 4)
            .partition("y", 4);
        let (design, g) = pipeline(&chain(), &d, true);
        // with II=1, each lane's adders are distinct hardware
        let ii = design.schedule.blocks.last().unwrap().ii;
        if ii == 1 {
            assert!(
                count_opcode(&g, Opcode::FAdd) >= 4,
                "parallel lanes must not merge"
            );
        }
    }

    #[test]
    fn merging_reduces_not_below_one() {
        let (_d, g) = pipeline(&chain(), &Directives::new(), true);
        assert!(g.num_nodes() >= 3);
        assert_eq!(g.check(), Ok(()));
    }

    #[test]
    fn idempotent() {
        let kernel = chain();
        let design = HlsFlow::new().run(&kernel, &Directives::new()).unwrap();
        let stim = Stimuli::for_kernel(&kernel, 0);
        let trace = execute(&design, &stim);
        let mut g = build_raw(&design, &trace);
        insert_buffers(&mut g, &design);
        merge_datapaths(&mut g, &design);
        let nodes_after = g.num_nodes();
        let edges_after = g.num_edges();
        merge_datapaths(&mut g, &design);
        assert_eq!(g.num_nodes(), nodes_after);
        assert_eq!(g.num_edges(), edges_after);
    }
}
