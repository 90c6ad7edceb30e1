//! RTL netlist surrogate.
//!
//! The paper measures ground-truth power on a ZCU102 after running the full
//! RTL implementation flow. With no board available, this module synthesizes
//! the post-implementation netlist the board would run: the bound hardware
//! graph (functional units after resource sharing, buffer banks, the FSM
//! controller and clock network) with per-net traced switching activities.
//! The [`crate::power`] oracle evaluates Eq. 1 over this netlist.

use pg_activity::ExecutionTrace;
use pg_graphcon::{buffers::insert_buffers, build::build_raw, merge::merge_datapaths, trim::trim};
use pg_graphcon::{NodeKind, WorkGraph};
use pg_hls::{FuKind, HlsDesign};

/// Kind of a netlist component.
#[derive(Debug, Clone, PartialEq)]
pub enum CompKind {
    /// A functional unit (shared instance).
    Fu(FuKind),
    /// A BRAM bank.
    Bram {
        /// Backing array.
        array: String,
        /// Bank index.
        bank: usize,
    },
    /// The FSM controller.
    Fsm,
    /// The clock network root.
    Clock,
}

/// One placed component.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// What the component is.
    pub kind: CompKind,
    /// LUT area (drives placement footprint).
    pub lut: u32,
    /// Flip-flops (clock load).
    pub ff: u32,
    /// DSP blocks.
    pub dsp: u32,
    /// BRAM blocks.
    pub bram: u32,
    /// Internal per-cycle toggle intensity (traced; 0 for vector-less).
    pub internal_sa: f64,
    /// Activation rate (fraction of cycles the component is exercised).
    pub ar: f64,
}

/// A two-terminal net between components.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Driving component index.
    pub src: usize,
    /// Receiving component index.
    pub dst: usize,
    /// Bus width in bits.
    pub bits: u32,
    /// Traced switching activity (Hamming bits per cycle; 0 vector-less).
    pub sa: f64,
    /// Traced activation rate.
    pub ar: f64,
    /// Net class for capacitance modeling.
    pub class: NetClass,
}

/// Net classes with different capacitance profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetClass {
    /// Datapath bus.
    Data,
    /// FSM enable/select fan-out.
    Control,
    /// Clock tree branch.
    Clock,
}

/// The complete netlist surrogate.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// Components (placement assigns coordinates by index).
    pub components: Vec<Component>,
    /// Nets.
    pub nets: Vec<Net>,
    /// Design latency in cycles (for utilization-derived defaults).
    pub latency: u64,
}

impl Netlist {
    /// Total flip-flop count (clock load).
    pub fn total_ff(&self) -> u64 {
        self.components.iter().map(|c| c.ff as u64).sum()
    }
}

/// Builds the netlist for `design`. Pass a real trace for the board oracle
/// or [`ExecutionTrace::empty`] for vector-less estimation.
pub fn build_netlist(design: &HlsDesign, trace: &ExecutionTrace) -> Netlist {
    // The bound hardware graph: buffers inserted, shared datapaths merged,
    // cast noise trimmed (casts are wires with negligible capacitance).
    let mut g: WorkGraph = build_raw(design, trace);
    insert_buffers(&mut g, design);
    merge_datapaths(&mut g, design);
    trim(&mut g);
    build_netlist_from_graph(design, &g)
}

/// Builds the netlist from an already-constructed (fully optimized) work
/// graph — the exact graph [`build_netlist`] would build internally. The
/// dataset builder constructs one work graph per design point and shares
/// it between the GNN sample and this oracle netlist, so the construction
/// passes run once instead of twice.
///
/// The graph must have gone through **all** passes (buffers, merge, trim);
/// a partially-built graph would silently change the physics, so pass one
/// built by `GraphFlow::new()` (all passes on) or by [`build_netlist`]'s
/// own sequence.
pub fn build_netlist_from_graph(design: &HlsDesign, g: &WorkGraph) -> Netlist {
    let lib = &design.lib;
    let mut components = Vec::new();
    let mut node_to_comp = vec![usize::MAX; g.nodes.len()];
    for (ni, node) in g.nodes.iter().enumerate() {
        if !node.alive {
            continue;
        }
        let comp = match &node.kind {
            NodeKind::Op(op) => {
                let kind = lib.kind_of(*op);
                let spec = lib.spec(kind);
                Component {
                    kind: CompKind::Fu(kind),
                    lut: spec.lut,
                    ff: spec.ff,
                    dsp: spec.dsp,
                    bram: 0,
                    internal_sa: node.activity.sa_overall,
                    ar: node.activity.ar,
                }
            }
            NodeKind::BufferIo | NodeKind::BufferInternal => Component {
                kind: CompKind::Bram {
                    array: node.array.clone().unwrap_or_default(),
                    bank: node.bank,
                },
                lut: 8,
                ff: 16,
                dsp: 0,
                bram: node.bram.round() as u32,
                internal_sa: node.activity.sa_overall,
                ar: node.activity.ar,
            },
        };
        node_to_comp[ni] = components.len();
        components.push(comp);
    }

    // Controller and clock root.
    let states = design.fsmd.num_states() as u32;
    let fsm = components.len();
    components.push(Component {
        kind: CompKind::Fsm,
        lut: 40 + states * 3,
        ff: 32 + states,
        dsp: 0,
        bram: 0,
        internal_sa: 1.0, // state register toggles nearly every cycle
        ar: 1.0,
    });
    let clock = components.len();
    components.push(Component {
        kind: CompKind::Clock,
        lut: 0,
        ff: 0,
        dsp: 0,
        bram: 0,
        internal_sa: 1.0,
        ar: 1.0,
    });

    let mut nets = Vec::new();
    // Datapath nets from graph edges; SA/AR folded straight over the
    // compressed runs (bit-identical to the slice math of Eq. 2/3). A
    // merge list folds once per graph, shared with graph finalization.
    for e in g.edges.iter().filter(|e| e.alive) {
        let (s, d) = (node_to_comp[e.src], node_to_comp[e.dst]);
        if s == usize::MAX || d == usize::MAX {
            continue;
        }
        let (sa, ar) = g.events.sa_ar(e.src_ev, g.latency);
        nets.push(Net {
            src: s,
            dst: d,
            bits: 32,
            sa,
            ar,
            class: NetClass::Data,
        });
    }
    // Control enables: FSM -> every sequenced component.
    for (ci, comp) in components.iter().enumerate() {
        if ci == fsm || ci == clock {
            continue;
        }
        if matches!(comp.kind, CompKind::Fu(FuKind::Wire)) {
            continue;
        }
        nets.push(Net {
            src: fsm,
            dst: ci,
            bits: 2,
            sa: comp.ar,
            ar: comp.ar,
            class: NetClass::Control,
        });
    }
    // Clock branches to every sequential component.
    let clocked: Vec<usize> = components
        .iter()
        .enumerate()
        .filter(|(_, c)| c.ff > 0 || c.bram > 0)
        .map(|(i, _)| i)
        .collect();
    for ci in clocked {
        if ci != clock {
            nets.push(Net {
                src: clock,
                dst: ci,
                bits: 1,
                sa: 1.0,
                ar: 1.0,
                class: NetClass::Clock,
            });
        }
    }

    Netlist {
        components,
        nets,
        latency: g.latency.max(1),
    }
}

/// Did the netlist come from a pipelined design? (diagnostic helper)
pub fn is_pipelined(design: &HlsDesign) -> bool {
    design.ir.blocks.iter().any(|b| b.pipelined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_activity::{execute, Stimuli};
    use pg_hls::{Directives, HlsFlow};
    use pg_ir::expr::aff;
    use pg_ir::{ArrayKind, Expr, Kernel, KernelBuilder};

    fn axpy() -> Kernel {
        KernelBuilder::new("axpy")
            .array("a", &[16], ArrayKind::Input)
            .array("x", &[16], ArrayKind::Input)
            .array("y", &[16], ArrayKind::Output)
            .loop_("i", 16, |b| {
                b.assign(
                    ("y", vec![aff("i")]),
                    Expr::load("y", vec![aff("i")])
                        + Expr::load("a", vec![aff("i")]) * Expr::load("x", vec![aff("i")]),
                );
            })
            .build()
            .unwrap()
    }

    fn netlist(d: &Directives) -> Netlist {
        let k = axpy();
        let design = HlsFlow::new().run(&k, d).unwrap();
        let trace = execute(&design, &Stimuli::for_kernel(&k, 0));
        build_netlist(&design, &trace)
    }

    #[test]
    fn has_fus_brams_fsm_clock() {
        let n = netlist(&Directives::new());
        assert!(n
            .components
            .iter()
            .any(|c| matches!(c.kind, CompKind::Fu(FuKind::FAddSub))));
        assert_eq!(
            n.components
                .iter()
                .filter(|c| matches!(c.kind, CompKind::Bram { .. }))
                .count(),
            3
        );
        assert_eq!(
            n.components
                .iter()
                .filter(|c| matches!(c.kind, CompKind::Fsm))
                .count(),
            1
        );
        assert_eq!(
            n.components
                .iter()
                .filter(|c| matches!(c.kind, CompKind::Clock))
                .count(),
            1
        );
    }

    #[test]
    fn nets_have_all_classes() {
        let n = netlist(&Directives::new());
        for class in [NetClass::Data, NetClass::Control, NetClass::Clock] {
            assert!(
                n.nets.iter().any(|e| e.class == class),
                "missing {class:?} nets"
            );
        }
        for e in &n.nets {
            assert!(e.src < n.components.len() && e.dst < n.components.len());
        }
    }

    #[test]
    fn traced_netlist_has_activity() {
        let n = netlist(&Directives::new());
        let data_sa: f64 = n
            .nets
            .iter()
            .filter(|e| e.class == NetClass::Data)
            .map(|e| e.sa)
            .sum();
        assert!(data_sa > 0.0, "traced data nets must toggle");
    }

    #[test]
    fn vectorless_netlist_same_structure_zero_activity() {
        let k = axpy();
        let design = HlsFlow::new().run(&k, &Directives::new()).unwrap();
        let traced = build_netlist(&design, &execute(&design, &Stimuli::for_kernel(&k, 0)));
        let empty = build_netlist(&design, &ExecutionTrace::empty(&design));
        assert_eq!(traced.components.len(), empty.components.len());
        assert_eq!(traced.nets.len(), empty.nets.len());
        assert!(empty
            .nets
            .iter()
            .filter(|e| e.class == NetClass::Data)
            .all(|e| e.sa == 0.0));
    }

    #[test]
    fn unrolled_design_has_more_components() {
        let base = netlist(&Directives::new());
        let mut d = Directives::new();
        d.pipeline("i")
            .unroll("i", 4)
            .partition("a", 4)
            .partition("x", 4)
            .partition("y", 4);
        let unrolled = netlist(&d);
        assert!(unrolled.components.len() > base.components.len());
        assert!(unrolled.components.iter().any(|c| c.lut > 0));
    }
}
