//! End-to-end dataset construction: kernel + directive sample → HLS →
//! activity trace → power graph (with metadata features) → oracle labels.
//!
//! This is the "training stage" data collection of Fig. 1, with the
//! RTL-implementation + on-board measurement replaced by the `pg-powersim`
//! oracle. The default [`DatasetConfig`] targets the paper's scale of
//! ~500 design points per kernel.
//!
//! # Parallel cold-synthesis architecture
//!
//! [`build_kernel_dataset_cached`] runs two parallel phases over one
//! shared [`HlsCache`]:
//!
//! 1. **Cold synthesis** — a [`KernelSession`] is opened once per kernel
//!    (computing the fingerprint and the directive-independent
//!    [`KernelAnalysis`](pg_hls::KernelAnalysis) exactly once for the
//!    whole space), then
//!    [`populate`](crate::cache::KernelSession::populate) synthesizes the
//!    directive space with *work-stealing* workers: an atomic cursor over
//!    the config list, because design points vary wildly in cost (an
//!    unrolled-by-8 pipelined point can cost ~50x the baseline) and
//!    static chunking would leave workers idle.
//! 2. **Sample assembly** — tracing, graph construction and oracle
//!    labeling run over the now-warm cache, again via an atomic cursor;
//!    each worker keeps `(index, sample)` pairs and results are re-ordered
//!    by index afterwards.
//!
//! Both phases are scheduling-nondeterministic internally, but neither
//! lets the schedule leak into the output: the cache keys designs by
//! directive id and synthesis is a pure function, and assembly re-orders
//! by index. Datasets are therefore **bit-identical for any thread
//! count** (pinned by the scale-determinism suite in
//! `tests/determinism.rs`).
//!
//! # One design → graph path
//!
//! The estimator is the second caller of both phases.
//! [`build_graphs_cached`] runs the same session set-up and the same
//! assembly loop, minus the oracle label, and `PowerGear::estimate_space`
//! feeds its graphs to one batched inference pass. Per design point, both
//! callers go through `graph_from_design_in`: trace, one `WorkGraph`,
//! the finalized [`PowerGraph`] and its metadata features. The dataset
//! builder shares that work graph with the power oracle's netlist
//! surrogate — see [`sample_from_design`]. Every assembly worker owns a
//! [`pg_activity::TraceScratch`]: the trace interpreter's flat event arena
//! and row buffer are recycled across all the design points the worker
//! steals, so steady-state assembly performs no large allocations. Every
//! stage is timed by a `pg_util::metrics::stage` timer (the
//! `stage_time_us` histogram); the `profile_synth` bench bin prints the
//! table.

use crate::cache::{HlsCache, KernelSession};
use crate::space::sample_space;
use pg_activity::{execute_in, ExecutionTrace, Stimuli, TraceScratch};
use pg_graphcon::{GraphFlow, PowerGraph, WorkGraph};
use pg_hls::{Directives, HlsDesign, HlsError, HlsReport};
use pg_ir::Kernel;
use pg_powersim::{BoardOracle, PowerBreakdown};
use pg_util::metrics;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Dataset construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Problem size of the Polybench kernels.
    pub size: usize,
    /// Maximum design points per kernel (paper: ~500).
    pub max_samples: usize,
    /// Sampling / stimuli seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for DatasetConfig {
    /// The paper profile: ~500 design points per kernel (HL-Pow and
    /// PowerGear both train on design spaces of this density). The
    /// optimized cold-synthesis path makes this the affordable default;
    /// use [`DatasetConfig::quick`] for the old 96-point scale.
    fn default() -> Self {
        DatasetConfig {
            size: 16,
            max_samples: 500,
            seed: 1,
            threads: 2,
        }
    }
}

impl DatasetConfig {
    /// The paper-scale profile (alias of `Default`): ~500 points/kernel.
    pub fn paper() -> Self {
        DatasetConfig::default()
    }

    /// The quick profile: 96 points/kernel (the pre-optimization default),
    /// still dense enough for examples and local experiments.
    pub fn quick() -> Self {
        DatasetConfig {
            max_samples: 96,
            ..DatasetConfig::default()
        }
    }

    /// The XL profile: up to 1000 design points per kernel (benchmark
    /// scale à la Wu et al.'s GNN performance-prediction suites; kernels
    /// whose directive space is smaller use the whole space). Affordable
    /// because of the flat event arena + compressed activity streams.
    pub fn paper_xl() -> Self {
        DatasetConfig {
            max_samples: 1000,
            ..DatasetConfig::default()
        }
    }

    /// A smaller configuration for unit tests.
    pub fn tiny() -> Self {
        DatasetConfig {
            size: 6,
            max_samples: 10,
            seed: 1,
            threads: 1,
        }
    }
}

/// One labeled design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Source kernel.
    pub kernel: String,
    /// Design-point identifier.
    pub design_id: String,
    /// The directive configuration (kept so estimators can re-synthesize).
    pub directives: Directives,
    /// The annotated graph (metadata features filled in).
    pub graph: PowerGraph,
    /// Ground-truth power from the board oracle.
    pub power: PowerBreakdown,
    /// Design latency in cycles.
    pub latency: u64,
    /// HLS report of this design point.
    pub report: HlsReport,
}

/// Which power figure a model regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerTarget {
    /// Total (dynamic + static) power.
    Total,
    /// Dynamic power only.
    Dynamic,
}

impl Sample {
    /// The regression target for `target`.
    pub fn label(&self, target: PowerTarget) -> f64 {
        match target {
            PowerTarget::Total => self.power.total,
            PowerTarget::Dynamic => self.power.dynamic,
        }
    }
}

/// All samples of one kernel plus its unoptimized baseline report.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDataset {
    /// Kernel name.
    pub kernel: String,
    /// Problem size used.
    pub size: usize,
    /// Labeled samples (baseline configuration first).
    pub samples: Vec<Sample>,
    /// Report of the unoptimized baseline (scaling-factor reference).
    pub baseline: HlsReport,
}

impl KernelDataset {
    /// Mean node count across sample graphs (Table I "Avg. #Nodes").
    pub fn avg_nodes(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.graph.num_nodes as f64)
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Labeled `(graph, value)` views for training.
    pub fn labeled(&self, target: PowerTarget) -> Vec<(&PowerGraph, f64)> {
        self.samples
            .iter()
            .map(|s| (&s.graph, s.label(target)))
            .collect()
    }
}

/// One design point's graphs: the annotated [`PowerGraph`] sample and the
/// [`WorkGraph`] it was finalized from, which the power oracle's netlist
/// surrogate reads. [`DesignGraph::recycle`] hands the trace arena back to
/// the worker's [`TraceScratch`] once the work graph is no longer needed.
#[derive(Debug)]
pub(crate) struct DesignGraph {
    /// The finalized graph with its metadata features filled in.
    pub(crate) graph: PowerGraph,
    /// The construction passes' output; shares the trace's event arena.
    pub(crate) work: WorkGraph,
    /// Kept so the arena can return to the scratch.
    trace: ExecutionTrace,
}

impl DesignGraph {
    /// Drops the work graph, returns the trace arena to `scratch` and
    /// yields the finalized graph.
    pub(crate) fn recycle(self, scratch: &mut TraceScratch) -> PowerGraph {
        let DesignGraph { graph, work, trace } = self;
        // The work graph held the last shared reference to the trace
        // arena; dropping it lets the scratch take the allocation back for
        // the next design point.
        drop(work);
        scratch.reclaim(trace);
        graph
    }
}

/// The design → graph step that the dataset builder and the estimator
/// share: traces `design` under `stimuli` with buffers from `scratch`,
/// runs the construction passes once, finalizes the sample graph and fills
/// its metadata features relative to `baseline`. Bit-identical to
/// `GraphFlow::build` over a fresh `execute` trace.
pub(crate) fn graph_from_design_in(
    design: &HlsDesign,
    stimuli: &Stimuli,
    baseline: &HlsReport,
    scratch: &mut TraceScratch,
) -> DesignGraph {
    let trace = {
        let _t = metrics::stage("sample.trace");
        execute_in(design, stimuli, scratch)
    };
    let flow = GraphFlow::new();
    let work = flow.build_work(design, &trace);
    let mut graph = flow.finalize_work(&work, design);
    graph.meta = design
        .report
        .metadata_features(baseline)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    DesignGraph { graph, work, trace }
}

/// Labels one already-synthesized design (trace → graph → metadata →
/// oracle power).
pub fn sample_from_design(
    kernel: &Kernel,
    design: &HlsDesign,
    stimuli: &Stimuli,
    baseline: &HlsReport,
) -> Sample {
    sample_from_design_in(kernel, design, stimuli, baseline, &mut TraceScratch::new())
}

/// [`sample_from_design`] against a reusable [`TraceScratch`]: the trace
/// interpreter's event arena and row buffer come from `scratch` and the
/// arena allocation is reclaimed once the sample no longer references it,
/// so a worker labeling many design points performs no large per-point
/// allocations. Bit-identical to the fresh-buffer path.
pub fn sample_from_design_in(
    kernel: &Kernel,
    design: &HlsDesign,
    stimuli: &Stimuli,
    baseline: &HlsReport,
    scratch: &mut TraceScratch,
) -> Sample {
    let _t = metrics::stage("sample");
    // One work graph serves both the GNN sample and the oracle's netlist
    // surrogate — the construction passes (raw DFG, buffers, merge, trim)
    // used to run twice per design point.
    let built = graph_from_design_in(design, stimuli, baseline, scratch);
    let power = {
        let _t = metrics::stage("sample.oracle");
        BoardOracle::default().measure_graph(design, &built.work)
    };
    Sample {
        kernel: kernel.name.clone(),
        design_id: design.design_id(),
        directives: design.directives.clone(),
        graph: built.recycle(scratch),
        power,
        latency: design.report.latency_cycles,
        report: design.report.clone(),
    }
}

/// Builds one sample through a shared [`HlsCache`], so identical
/// kernel+directive pairs are synthesized only once per process.
pub fn build_sample_cached(
    kernel: &Kernel,
    directives: &Directives,
    stimuli: &Stimuli,
    baseline: &HlsReport,
    cache: &HlsCache,
) -> Sample {
    let design = cache
        .run(kernel, directives)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
    sample_from_design(kernel, &design, stimuli, baseline)
}

/// Builds one sample with a private single-use flow. Prefer
/// [`build_sample_cached`] when several callers share designs — the
/// parallel dataset builder goes through that path.
pub fn build_sample(
    kernel: &Kernel,
    directives: &Directives,
    stimuli: &Stimuli,
    baseline: &HlsReport,
) -> Sample {
    build_sample_cached(kernel, directives, stimuli, baseline, &HlsCache::new())
}

/// Builds the dataset for one kernel through a shared [`HlsCache`].
///
/// Sample order, labels and graphs are bit-identical to the uncached
/// [`build_kernel_dataset`]; only redundant synthesis work is skipped.
///
/// Two parallel phases, both dynamically load-balanced (see the module
/// docs): cold synthesis of the whole directive space through a
/// [`KernelSession`], then sample assembly (trace → graph → labels) over
/// the now-warm cache.
pub fn build_kernel_dataset_cached(
    kernel: &Kernel,
    cfg: &DatasetConfig,
    cache: &HlsCache,
) -> KernelDataset {
    let configs = sample_space(kernel, cfg.max_samples, cfg.seed);
    let space = WarmSpace::open(kernel, cache, cfg.seed, &configs, cfg.threads)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
    let samples = space
        .assemble(&configs, cfg.threads, |design, scratch| {
            sample_from_design_in(kernel, design, &space.stimuli, &space.baseline, scratch)
        })
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
    KernelDataset {
        kernel: kernel.name.clone(),
        size: cfg.size,
        samples,
        baseline: space.baseline,
    }
}

/// Builds the annotated graph of every design point in `configs` for
/// estimation: the dataset builder's two phases on `threads` workers each,
/// without the oracle label. Returns each graph with its HLS report, in
/// config order, bit-identical for any thread count and to one-point
/// calls.
///
/// # Errors
///
/// The kernel's validation error, the baseline's synthesis error, or else
/// the first [`HlsError`] in config order.
pub fn build_graphs_cached(
    kernel: &Kernel,
    configs: &[Directives],
    seed: u64,
    threads: usize,
    cache: &HlsCache,
) -> Result<Vec<(PowerGraph, HlsReport)>, HlsError> {
    let space = WarmSpace::open(kernel, cache, seed, configs, threads)?;
    space.assemble(configs, threads, |design, scratch| {
        let built = graph_from_design_in(design, &space.stimuli, &space.baseline, scratch);
        (built.recycle(scratch), design.report.clone())
    })
}

/// One kernel's design space after phase 1, shared by the dataset builder
/// and [`build_graphs_cached`]: the session over the cache, the testbench
/// and the baseline report (the metadata scaling reference).
struct WarmSpace<'c, 'k> {
    session: KernelSession<'c, 'k>,
    stimuli: Stimuli,
    baseline: HlsReport,
}

impl<'c, 'k> WarmSpace<'c, 'k> {
    /// Opens the session, synthesizes the baseline and runs phase 1: cold
    /// synthesis of `configs` on `threads` work-stealing workers.
    fn open(
        kernel: &'k Kernel,
        cache: &'c HlsCache,
        seed: u64,
        configs: &[Directives],
        threads: usize,
    ) -> Result<Self, HlsError> {
        let session = cache.session(kernel)?;
        let baseline = session.run(&Directives::new())?.report.clone();
        session.populate(configs, threads)?;
        Ok(WarmSpace {
            session,
            stimuli: Stimuli::for_kernel(kernel, seed),
            baseline,
        })
    }

    /// Phase 2: applies `f` to the warm design of every config. Workers
    /// pull configs off an atomic cursor, each recycling one
    /// [`TraceScratch`] across every point it steals, and results are put
    /// back in config order, so the output never depends on `threads`. A
    /// worker's panic is re-raised on the calling thread.
    ///
    /// Every `session.run` here is a cache hit after phase 1, so the only
    /// error possible is one phase 1 already returned.
    fn assemble<R: Send>(
        &self,
        configs: &[Directives],
        threads: usize,
        f: impl Fn(&HlsDesign, &mut TraceScratch) -> R + Sync,
    ) -> Result<Vec<R>, HlsError> {
        let one = |d: &Directives, scratch: &mut TraceScratch| {
            self.session.run(d).map(|design| f(&design, scratch))
        };
        if threads <= 1 || configs.len() < 4 {
            let mut scratch = TraceScratch::new();
            return configs.iter().map(|d| one(d, &mut scratch)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut done: Vec<(usize, Result<R, HlsError>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.min(configs.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = TraceScratch::new();
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(d) = configs.get(i) else { break out };
                            out.push((i, one(d, &mut scratch)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

/// Builds the dataset for one kernel (fresh cache per call).
pub fn build_kernel_dataset(kernel: &Kernel, cfg: &DatasetConfig) -> KernelDataset {
    build_kernel_dataset_cached(kernel, cfg, &HlsCache::new())
}

/// Builds datasets for all nine Polybench kernels, sharing one HLS cache
/// across them.
pub fn build_all(cfg: &DatasetConfig) -> Vec<KernelDataset> {
    let cache = HlsCache::new();
    crate::polybench::polybench(cfg.size)
        .iter()
        .map(|k| build_kernel_dataset_cached(k, cfg, &cache))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polybench;

    #[test]
    fn profiles_scale_as_documented() {
        assert_eq!(DatasetConfig::default().max_samples, 500);
        assert_eq!(DatasetConfig::paper().max_samples, 500);
        assert_eq!(DatasetConfig::paper_xl().max_samples, 1000);
        assert_eq!(DatasetConfig::quick().max_samples, 96);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_samples() {
        // One shared scratch across several design points must reproduce
        // the fresh-buffer samples exactly.
        let k = polybench::mvt(6);
        let cache = HlsCache::new();
        let session = cache.session(&k).unwrap();
        let stimuli = Stimuli::for_kernel(&k, 1);
        let baseline = session.run(&Directives::new()).unwrap().report.clone();
        let configs = crate::space::sample_space(&k, 6, 1);
        let mut scratch = TraceScratch::new();
        for d in &configs {
            let design = session.run(d).unwrap();
            let fresh = sample_from_design(&k, &design, &stimuli, &baseline);
            let reused = sample_from_design_in(&k, &design, &stimuli, &baseline, &mut scratch);
            assert_eq!(fresh, reused, "scratch reuse changed sample {d}");
        }
    }

    #[test]
    fn builds_labeled_samples() {
        let k = polybench::mvt(6);
        let ds = build_kernel_dataset(&k, &DatasetConfig::tiny());
        assert_eq!(ds.samples.len(), 10);
        assert!(ds.samples[0].directives.is_baseline());
        for s in &ds.samples {
            assert!(s.graph.validate().is_ok());
            assert_eq!(s.graph.meta.len(), 10);
            assert!(s.power.total > s.power.dynamic);
            assert!(s.latency > 0);
        }
        assert!(ds.avg_nodes() > 5.0);
    }

    #[test]
    fn labels_differ_across_design_points() {
        let k = polybench::mvt(6);
        let ds = build_kernel_dataset(&k, &DatasetConfig::tiny());
        let first = ds.samples[0].power.dynamic;
        assert!(
            ds.samples
                .iter()
                .any(|s| (s.power.dynamic - first).abs() > 1e-6),
            "dynamic power must vary across the space"
        );
        let labeled = ds.labeled(PowerTarget::Dynamic);
        assert_eq!(labeled.len(), ds.samples.len());
        assert!(labeled.iter().all(|(_, t)| *t > 0.0));
    }

    #[test]
    fn parallel_build_matches_serial() {
        let k = polybench::mvt(6);
        let mut cfg = DatasetConfig::tiny();
        let serial = build_kernel_dataset(&k, &cfg);
        cfg.threads = 2;
        let parallel = build_kernel_dataset(&k, &cfg);
        assert_eq!(serial.samples.len(), parallel.samples.len());
        for (a, b) in serial.samples.iter().zip(&parallel.samples) {
            assert_eq!(a.design_id, b.design_id);
            assert_eq!(a.power, b.power);
        }
    }

    #[test]
    fn cached_build_matches_uncached_and_hits() {
        let k = polybench::mvt(6);
        let cfg = DatasetConfig::tiny();
        let cold = build_kernel_dataset(&k, &cfg);
        let cache = HlsCache::new();
        let first = build_kernel_dataset_cached(&k, &cfg, &cache);
        assert_eq!(cold, first, "cache must not change dataset contents");
        // baseline report + baseline sample share one synthesis
        assert!(cache.hits() >= 1, "baseline design must hit");
        let hits_before = cache.hits();
        let misses_before = cache.misses();
        let second = build_kernel_dataset_cached(&k, &cfg, &cache);
        assert_eq!(first, second);
        // the rebuild is served entirely from cache: baseline + populate
        // phase + assembly phase all hit, and nothing is re-synthesized
        assert_eq!(cache.misses(), misses_before, "rebuild must not synthesize");
        assert_eq!(
            cache.hits() - hits_before,
            2 * cfg.max_samples + 1,
            "rebuild must be all hits"
        );
    }

    #[test]
    fn metadata_scaling_is_unity_for_baseline() {
        let k = polybench::mvt(6);
        let ds = build_kernel_dataset(&k, &DatasetConfig::tiny());
        let meta = &ds.samples[0].graph.meta;
        for v in &meta[5..10] {
            assert!(
                (*v - 1.0).abs() < 1e-5,
                "baseline ratios must be 1, got {v}"
            );
        }
    }
}
