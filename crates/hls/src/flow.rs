//! End-to-end HLS flow orchestration.
//!
//! [`HlsFlow::run`] executes front end (lowering with directives), back end
//! (scheduling, binding, FSMD extraction) and reporting, returning an
//! [`HlsDesign`] that bundles every artifact the PowerGear pipeline
//! consumes downstream: the IR for activity tracing, the binding for
//! datapath merging and netlist synthesis, and the report for metadata
//! features.

use crate::bind::{bind, Binding};
use crate::directives::Directives;
use crate::fsmd::{build_fsmd, Fsmd};
use crate::lower::lower_prepared;
use crate::report::{report, HlsReport};
use crate::resources::FuLibrary;
use crate::schedule::{schedule, Schedule};
use pg_ir::{ArrayDecl, IrFunction, Kernel, KernelError};
use pg_util::metrics;
use std::fmt;
use std::sync::Arc;

/// Errors from the HLS flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HlsError {
    /// A directive referenced a loop label that does not exist.
    UnknownLoop(String),
    /// A directive referenced an array that does not exist.
    UnknownArray(String),
    /// Pipeline/unroll was requested on a non-innermost loop.
    NotInnermost(String),
    /// The kernel failed structural validation.
    InvalidKernel(KernelError),
}

impl fmt::Display for HlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlsError::UnknownLoop(l) => write!(f, "directive targets unknown loop `{l}`"),
            HlsError::UnknownArray(a) => write!(f, "directive targets unknown array `{a}`"),
            HlsError::NotInnermost(l) => {
                write!(
                    f,
                    "pipeline/unroll only supported on innermost loops (got `{l}`)"
                )
            }
            HlsError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
        }
    }
}

impl std::error::Error for HlsError {}

impl From<KernelError> for HlsError {
    fn from(e: KernelError) -> Self {
        HlsError::InvalidKernel(e)
    }
}

/// Directive-independent analysis of a kernel: structural validation plus
/// the loop-label and innermost-loop sets every directive validation
/// consults. Computing it is cheap for a single design point but — done
/// per-point — used to be repeated ~500 times per kernel during dataset
/// generation; [`PreparedKernel`] hoists it so the whole design space
/// shares one analysis (the `HlsCache` keeps one per kernel fingerprint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAnalysis {
    /// All loop labels, pre-order.
    labels: Vec<String>,
    /// Innermost loop labels (pipeline/unroll targets).
    innermost: Vec<String>,
}

impl KernelAnalysis {
    /// Validates `kernel` and captures its directive-independent analysis.
    ///
    /// # Errors
    ///
    /// [`HlsError::InvalidKernel`] when structural validation fails.
    pub fn new(kernel: &Kernel) -> Result<Self, HlsError> {
        let _t = metrics::stage("hls.analyze");
        kernel.validate()?;
        Ok(KernelAnalysis {
            labels: kernel.loop_labels(),
            innermost: kernel.innermost_loops(),
        })
    }

    /// All loop labels of the analyzed kernel.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Innermost loop labels of the analyzed kernel.
    pub fn innermost(&self) -> &[String] {
        &self.innermost
    }
}

/// A kernel bundled with its shared [`KernelAnalysis`]; the input of
/// [`HlsFlow::run_prepared`]. Preparing once and synthesizing many design
/// points amortizes validation across the directive space.
#[derive(Debug, Clone)]
pub struct PreparedKernel<'k> {
    /// The underlying kernel.
    pub kernel: &'k Kernel,
    analysis: Arc<KernelAnalysis>,
}

impl<'k> PreparedKernel<'k> {
    /// Validates and analyzes `kernel`.
    ///
    /// # Errors
    ///
    /// [`HlsError::InvalidKernel`] when structural validation fails.
    pub fn new(kernel: &'k Kernel) -> Result<Self, HlsError> {
        Ok(PreparedKernel {
            kernel,
            analysis: Arc::new(KernelAnalysis::new(kernel)?),
        })
    }

    /// Rebinds an already-computed analysis to `kernel`. The caller asserts
    /// the analysis was produced from this kernel (the `HlsCache` keys it
    /// by kernel fingerprint).
    pub fn with_analysis(kernel: &'k Kernel, analysis: Arc<KernelAnalysis>) -> Self {
        PreparedKernel { kernel, analysis }
    }

    /// The shared analysis.
    pub fn analysis(&self) -> &Arc<KernelAnalysis> {
        &self.analysis
    }
}

/// A fully synthesized design point.
#[derive(Debug, Clone, PartialEq)]
pub struct HlsDesign {
    /// Source kernel name.
    pub kernel_name: String,
    /// The directive configuration that produced this design.
    pub directives: Directives,
    /// SSA IR (post-unroll).
    pub ir: IrFunction,
    /// Block schedules and total latency.
    pub schedule: Schedule,
    /// FU binding / sharing sets.
    pub binding: Binding,
    /// Controller abstraction.
    pub fsmd: Fsmd,
    /// Resource/latency/timing report.
    pub report: HlsReport,
    /// `(array, banks)` pairs after partitioning.
    pub arrays: Vec<(ArrayDecl, usize)>,
    /// FU library used (needed by the power substrate).
    pub lib: FuLibrary,
}

impl HlsDesign {
    /// A stable identifier `kernel/directives` for caching and jitter seeds.
    pub fn design_id(&self) -> String {
        format!("{}/{}", self.kernel_name, self.directives.id())
    }
}

/// The HLS tool: a functional-unit library plus run entry points.
#[derive(Debug, Clone, Default)]
pub struct HlsFlow {
    /// FU library / device model.
    pub lib: FuLibrary,
}

impl HlsFlow {
    /// Creates a flow with the default UltraScale+-style library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the full flow on `kernel` with `directives`.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError`] for invalid kernels or directive targets.
    pub fn run(&self, kernel: &Kernel, directives: &Directives) -> Result<HlsDesign, HlsError> {
        self.run_prepared(&PreparedKernel::new(kernel)?, directives)
    }

    /// Runs the flow against an already-validated [`PreparedKernel`],
    /// skipping the directive-independent analysis (structural validation,
    /// loop-label/innermost sets) that [`PreparedKernel::new`] hoisted out.
    /// The produced design is bit-identical to [`HlsFlow::run`].
    ///
    /// # Errors
    ///
    /// Returns [`HlsError`] for invalid directive targets.
    pub fn run_prepared(
        &self,
        prepared: &PreparedKernel,
        directives: &Directives,
    ) -> Result<HlsDesign, HlsError> {
        let _t = metrics::stage("hls");
        let kernel = &prepared.kernel;
        let ir = {
            let _t = metrics::stage("hls.lower");
            lower_prepared(prepared, directives)?
        };
        let sched = {
            let _t = metrics::stage("hls.schedule");
            schedule(&ir, &self.lib, directives)
        };
        let binding = {
            let _t = metrics::stage("hls.bind");
            bind(&ir, &sched, &self.lib)
        };
        let fsmd = {
            let _t = metrics::stage("hls.fsmd");
            build_fsmd(&ir, &sched)
        };
        let arrays: Vec<(ArrayDecl, usize)> = kernel
            .arrays
            .iter()
            .map(|a| {
                let banks = directives.partition_factor(&a.name).min(a.len()).max(1);
                (a.clone(), banks)
            })
            .collect();
        let rpt = {
            let _t = metrics::stage("hls.report");
            report(&ir, &sched, &binding, &fsmd, &arrays, &self.lib)
        };
        Ok(HlsDesign {
            kernel_name: kernel.name.clone(),
            directives: directives.clone(),
            ir,
            schedule: sched,
            binding,
            fsmd,
            report: rpt,
            arrays,
            lib: self.lib.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_ir::expr::aff;
    use pg_ir::{ArrayKind, Expr, KernelBuilder};

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

    #[test]
    fn full_flow_produces_consistent_design() {
        let d = Directives::new();
        let design = HlsFlow::new().run(&axpy(), &d).unwrap();
        assert!(design.report.latency_cycles > 16);
        assert!(design.report.lut > 0);
        assert!(design.report.bram >= 3);
        assert_eq!(design.arrays.len(), 3);
        assert!(design.fsmd.num_states() > 0);
        assert!(design.ir.validate().is_ok());
        assert!(design.design_id().starts_with("axpy/"));
    }

    #[test]
    fn directives_change_resources_and_latency() {
        let base = HlsFlow::new().run(&axpy(), &Directives::new()).unwrap();
        let mut d = Directives::new();
        d.pipeline("i")
            .unroll("i", 4)
            .partition("a", 4)
            .partition("x", 4)
            .partition("y", 4);
        let opt = HlsFlow::new().run(&axpy(), &d).unwrap();
        assert!(opt.report.latency_cycles < base.report.latency_cycles);
        assert!(opt.report.dsp >= base.report.dsp);
        assert!(opt.report.bram > base.report.bram);
    }

    #[test]
    fn partition_clamped_to_array_size() {
        let k = KernelBuilder::new("tiny")
            .array("s", &[2], ArrayKind::Output)
            .loop_("i", 2, |b| {
                b.assign(("s", vec![aff("i")]), Expr::Const(1.0));
            })
            .build()
            .unwrap();
        let mut d = Directives::new();
        d.partition("s", 8);
        let design = HlsFlow::new().run(&k, &d).unwrap();
        assert_eq!(design.arrays[0].1, 2);
    }

    #[test]
    fn error_display_is_informative() {
        let e = HlsError::UnknownLoop("q".into());
        assert!(e.to_string().contains("q"));
    }
}
