//! Graph-construction flow orchestration.
//!
//! [`GraphFlow`] chains the four passes of §III-A — raw DFG build, buffer
//! insertion, datapath merging, graph trimming — and finalizes feature
//! annotation. Each pass can be disabled individually, which the test suite
//! and the design-choice ablation bench use to quantify each pass's
//! contribution.

use crate::annotate::finalize;
use crate::buffers::insert_buffers;
use crate::build::build_raw;
use crate::dfg::PowerGraph;
use crate::merge::merge_datapaths;
use crate::trim::trim;
use pg_activity::ExecutionTrace;
use pg_hls::HlsDesign;
use pg_util::metrics;

/// Pass-selection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphConfig {
    /// Insert explicit buffer nodes (on by default).
    pub buffer_insertion: bool,
    /// Merge shared/duplicated datapaths (on by default).
    pub datapath_merging: bool,
    /// Trim cast/control noise nodes (on by default).
    pub graph_trimming: bool,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            buffer_insertion: true,
            datapath_merging: true,
            graph_trimming: true,
        }
    }
}

/// The graph construction flow.
#[derive(Debug, Clone, Default)]
pub struct GraphFlow {
    /// Pass selection.
    pub config: GraphConfig,
}

impl GraphFlow {
    /// Flow with all optimizations enabled (the paper's configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Flow with explicit pass selection.
    pub fn with_config(config: GraphConfig) -> Self {
        GraphFlow { config }
    }

    /// Builds the annotated power graph for `design` using its activity
    /// `trace`.
    pub fn build(&self, design: &HlsDesign, trace: &ExecutionTrace) -> PowerGraph {
        let g = self.build_work(design, trace);
        self.finalize_work(&g, design)
    }

    /// Runs the configured construction passes, returning the intermediate
    /// [`WorkGraph`](crate::dfg::WorkGraph). The work graph is also what
    /// the power oracle's netlist surrogate consumes — building it once
    /// and sharing it (see `pg_powersim::build_netlist_from_graph`) halves
    /// the graph-construction cost of a labeled sample.
    pub fn build_work(&self, design: &HlsDesign, trace: &ExecutionTrace) -> crate::dfg::WorkGraph {
        let _t = metrics::stage("graph");
        let mut g = {
            let _t = metrics::stage("graph.build_raw");
            build_raw(design, trace)
        };
        if self.config.buffer_insertion {
            let _t = metrics::stage("graph.buffers");
            insert_buffers(&mut g, design);
        }
        if self.config.datapath_merging {
            let _t = metrics::stage("graph.merge");
            merge_datapaths(&mut g, design);
        }
        if self.config.graph_trimming {
            let _t = metrics::stage("graph.trim");
            trim(&mut g);
        }
        g
    }

    /// Annotates and compacts an already-built work graph into the final
    /// [`PowerGraph`] sample.
    pub fn finalize_work(&self, g: &crate::dfg::WorkGraph, design: &HlsDesign) -> PowerGraph {
        let _t = metrics::stage("graph.finalize");
        finalize(g, &design.kernel_name, &design.design_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_activity::{execute, Stimuli};
    use pg_hls::{Directives, HlsFlow};
    use pg_ir::expr::aff;
    use pg_ir::{ArrayKind, Expr, Kernel, KernelBuilder};

    fn kernel() -> Kernel {
        KernelBuilder::new("flowk")
            .array("a", &[8, 8], ArrayKind::Input)
            .array("x", &[8], ArrayKind::Input)
            .array("y", &[8], ArrayKind::Output)
            .loop_("i", 8, |bb| {
                bb.loop_("j", 8, |bb| {
                    bb.assign(
                        ("y", vec![aff("i")]),
                        Expr::load("y", vec![aff("i")])
                            + Expr::load("a", vec![aff("i"), aff("j")])
                                * Expr::load("x", vec![aff("j")]),
                    );
                });
            })
            .build()
            .unwrap()
    }

    fn build(d: &Directives, cfg: GraphConfig) -> PowerGraph {
        let k = kernel();
        let design = HlsFlow::new().run(&k, d).unwrap();
        let stim = Stimuli::for_kernel(&k, 0);
        let trace = execute(&design, &stim);
        GraphFlow::with_config(cfg).build(&design, &trace)
    }

    #[test]
    fn full_flow_produces_valid_graph() {
        let pg = build(&Directives::new(), GraphConfig::default());
        assert!(pg.validate().is_ok());
        assert!(pg.num_nodes >= 8);
        assert!(pg.num_edges() >= pg.num_nodes - 1);
        assert_eq!(pg.kernel, "flowk");
    }

    #[test]
    fn optimized_graph_smaller_than_raw() {
        let raw = build(
            &Directives::new(),
            GraphConfig {
                buffer_insertion: false,
                datapath_merging: false,
                graph_trimming: false,
            },
        );
        let opt = build(&Directives::new(), GraphConfig::default());
        assert!(
            opt.num_nodes < raw.num_nodes,
            "optimized {} vs raw {}",
            opt.num_nodes,
            raw.num_nodes
        );
    }

    #[test]
    fn unrolling_grows_graph() {
        let g1 = build(&Directives::new(), GraphConfig::default());
        let mut d = Directives::new();
        d.pipeline("j")
            .unroll("j", 4)
            .partition("a", 4)
            .partition("x", 4);
        let g4 = build(&d, GraphConfig::default());
        assert!(
            g4.num_nodes > g1.num_nodes,
            "unrolled {} vs baseline {}",
            g4.num_nodes,
            g1.num_nodes
        );
    }

    #[test]
    fn all_relations_represented() {
        let pg = build(&Directives::new(), GraphConfig::default());
        let counts = pg.relation_counts();
        let total: usize = counts.iter().sum();
        assert_eq!(total, pg.num_edges());
        // NA edges (buffer->load->arith chains) must exist
        assert!(counts[crate::dfg::Relation::NA.index()] > 0);
    }

    #[test]
    fn edge_features_bounded() {
        let pg = build(&Directives::new(), GraphConfig::default());
        for ef in &pg.edge_feats {
            // SA <= 32 * AR (32-bit values); AR <= 1 per issue slot is not
            // guaranteed post-merge, but must stay finite and non-negative
            assert!(ef[0] <= 32.0 * ef[2] + 1e-6);
            assert!(ef[1] <= 32.0 * ef[3] + 1e-6);
        }
    }

    #[test]
    fn deterministic() {
        let a = build(&Directives::new(), GraphConfig::default());
        let b = build(&Directives::new(), GraphConfig::default());
        assert_eq!(a, b);
    }
}
