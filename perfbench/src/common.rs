//! Set-up shared by the workloads, and the traced compositions that time
//! the benchmark's own calls into each crate's public functions (no spans
//! are added inside the program).

use pg_activity::{execute_in, Stimuli, TraceScratch};
use pg_datasets::{
    polybench, sample_space, DatasetConfig, HlsCache, KernelDataset, PowerTarget, Sample,
};
use pg_gnn::{GraphBatch, PowerModel};
use pg_graphcon::{GraphFlow, PowerGraph};
use pg_hls::Directives;
use pg_powersim::BoardOracle;
use pg_tensor::Tape;
use pg_util::Rng64;
use powergear::{PowerGear, PowerGearConfig};
use std::time::Instant;

/// Polybench problem size (the CLI default).
pub const SIZE: usize = 12;
/// Dataset sampling and stimuli seed (the CLI default), fixed so that
/// training data, and therefore held-out accuracy, never depend on the
/// workload seed.
pub const DATA_SEED: u64 = 1;
/// Worker threads for dataset builds and training: the machine the
/// reference numbers come from has 2 cores.
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Graphs per training gradient shard, as the trainer cuts them.
pub const SHARD_GRAPHS: usize = 8;
/// Graphs per inference batch in `PowerGear::estimate_graphs`
/// (`ServeConfig::default`).
pub const INFER_BATCH: usize = 32;

/// Busy time and work count at one layer boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Seconds spent inside the timed calls.
    pub secs: f64,
    /// Work items those calls covered (designs, graphs, requests).
    pub ops: u64,
}

impl Busy {
    /// Times `f`, which covers `ops` work items.
    pub fn time<T>(&mut self, ops: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.secs += t.elapsed().as_secs_f64();
        self.ops += ops;
        out
    }

    /// Milliseconds per work item (0 when nothing was timed).
    pub fn ms_per_op(&self) -> f64 {
        1e3 * self.secs / self.ops.max(1) as f64
    }

    /// Microseconds per work item (0 when nothing was timed).
    pub fn us_per_op(&self) -> f64 {
        1e6 * self.secs / self.ops.max(1) as f64
    }
}

impl std::ops::AddAssign for Busy {
    fn add_assign(&mut self, other: Busy) {
        self.secs += other.secs;
        self.ops += other.ops;
    }
}

/// The dataset profile every workload builds in set-up.
pub fn dataset_config(samples: usize) -> DatasetConfig {
    DatasetConfig {
        size: SIZE,
        max_samples: samples,
        seed: DATA_SEED,
        threads: THREADS,
    }
}

/// The CLI's quick architecture (`hec(32)`, 3 folds × 1 seed per head) at
/// `epochs` epochs for the total head (the dynamic head trains twice as
/// long). At most 6 epochs keeps early stopping (patience 12) from ever
/// firing, so every fit does identical work.
pub fn fit_config(epochs: usize) -> PowerGearConfig {
    assert!(
        epochs <= 6,
        "more epochs would let early stopping vary the work"
    );
    PowerGearConfig {
        epochs,
        threads: THREADS,
        ..PowerGearConfig::quick()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Cold-path layer times from composing dataset construction by hand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColdTrace {
    /// `HlsCache::run` (ops = designs synthesized, i.e. cache misses).
    pub synth: Busy,
    /// `Stimuli::for_kernel` + `execute`/`execute_in` (ops = designs).
    pub trace: Busy,
    /// `GraphFlow::build`, or `build_work` + `finalize_work` (ops = designs).
    pub build: Busy,
    /// `BoardOracle::measure_graph` (ops = designs).
    pub oracle: Busy,
    /// `HlsCache` hits over the composed calls.
    pub hits: usize,
    /// `HlsCache` misses over the composed calls.
    pub misses: usize,
    /// Nodes over all built graphs.
    pub nodes: u64,
    /// Edges over all built graphs.
    pub edges: u64,
}

impl ColdTrace {
    /// Hits over all cache lookups.
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    /// Mean graph size `(nodes, edges)`.
    pub fn graph_size(&self) -> (f64, f64) {
        let n = self.build.ops.max(1) as f64;
        (self.nodes as f64 / n, self.edges as f64 / n)
    }
}

/// Rebuilds `built` (from `build_all(&dataset_config(samples))`) through
/// the public per-stage functions, timing each stage, and checks that the
/// composition reproduces every sample exactly.
///
/// # Errors
///
/// A message naming the first sample that differs.
pub fn traced_datasets(built: &[KernelDataset], samples: usize) -> Result<ColdTrace, String> {
    let cfg = dataset_config(samples);
    let mut t = ColdTrace::default();
    let cache = HlsCache::new();
    let flow = GraphFlow::new();
    for (kernel, expected) in polybench::polybench(cfg.size).iter().zip(built) {
        let err = |e: pg_hls::HlsError| format!("{}: {e}", kernel.name);
        let stimuli = t.trace.time(0, || Stimuli::for_kernel(kernel, cfg.seed));
        let baseline = t
            .synth
            .time(0, || cache.run(kernel, &Directives::new()))
            .map_err(err)?
            .report
            .clone();
        let designs = t.synth.time(0, || {
            sample_space(kernel, cfg.max_samples, cfg.seed)
                .iter()
                .map(|d| cache.run(kernel, d))
                .collect::<Result<Vec<_>, _>>()
        });
        let designs = designs.map_err(err)?;
        let mut scratch = TraceScratch::new();
        let mut samples = Vec::with_capacity(designs.len());
        for design in &designs {
            let trace = t
                .trace
                .time(1, || execute_in(design, &stimuli, &mut scratch));
            let (work, mut graph) = t.build.time(1, || {
                let work = flow.build_work(design, &trace);
                let graph = flow.finalize_work(&work, design);
                (work, graph)
            });
            graph.meta = design
                .report
                .metadata_features(&baseline)
                .into_iter()
                .map(|v| v as f32)
                .collect();
            t.nodes += graph.num_nodes as u64;
            t.edges += graph.edges.len() as u64;
            let power = t
                .oracle
                .time(1, || BoardOracle::default().measure_graph(design, &work));
            drop(work);
            scratch.reclaim(trace);
            samples.push(Sample {
                kernel: kernel.name.clone(),
                design_id: design.design_id(),
                directives: design.directives.clone(),
                graph,
                power,
                latency: design.report.latency_cycles,
                report: design.report.clone(),
            });
        }
        if samples != expected.samples {
            return Err(format!(
                "{}: the traced composition differs from build_all",
                kernel.name
            ));
        }
    }
    t.hits = cache.hits();
    t.misses = cache.misses();
    t.synth.ops = cache.misses() as u64;
    Ok(t)
}

/// Training-loop layer times: per-member wall time from the `fit_with`
/// hook, and per-graph costs of the three stages of a gradient shard,
/// timed on the same data cut into the trainer's shards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FitTrace {
    /// Wall seconds of the whole `fit_with` call.
    pub fit_s: f64,
    /// Wall seconds of each trained member, in training order.
    pub member_s: Vec<f64>,
    /// Sum over members of training graphs × epochs.
    pub member_graph_epochs: f64,
    /// `GraphBatch::new` on 8-graph shards (ops = graphs).
    pub batch: Busy,
    /// `PowerModel::forward` in training mode plus the loss (ops = graphs).
    pub forward: Busy,
    /// `Tape::backward` (ops = graphs).
    pub backward: Busy,
}

impl FitTrace {
    /// Mean member wall time.
    pub fn mean_member_s(&self) -> f64 {
        self.member_s.iter().sum::<f64>() / self.member_s.len().max(1) as f64
    }

    /// Share (%) of member time not covered by batch assembly, forward
    /// and backward: optimizer steps, gradient reduction and validation.
    /// The shard costs are measured on one thread, and the trainer runs
    /// its shards on [`THREADS`] workers, so their covered time is divided
    /// by that count.
    pub fn residual_pct(&self) -> f64 {
        let per_graph = (self.batch.secs + self.forward.secs + self.backward.secs)
            / self.batch.ops.max(1) as f64;
        let covered = per_graph * self.member_graph_epochs / THREADS as f64;
        let total: f64 = self.member_s.iter().sum();
        100.0 * (total - covered) / total.max(1e-12)
    }
}

/// `PowerGear::fit_with` on `datasets`, timing every member through the
/// hook, then the shard-stage probes on the dynamic-head data.
pub fn traced_fit(datasets: &[KernelDataset], cfg: &PowerGearConfig) -> (PowerGear, FitTrace) {
    let mut t = FitTrace::default();
    let start = Instant::now();
    let mut last = start;
    let gear = PowerGear::fit_with(datasets, cfg, |_, _| {
        let now = Instant::now();
        t.member_s.push((now - last).as_secs_f64());
        last = now;
    });
    t.fit_s = start.elapsed().as_secs_f64();
    let n: usize = datasets.iter().map(|d| d.samples.len()).sum();
    for target in [PowerTarget::Total, PowerTarget::Dynamic] {
        let tc = cfg.train_config(target);
        for _ in &tc.seeds {
            for fold in 0..tc.folds {
                let val = (n - fold).div_ceil(tc.folds);
                t.member_graph_epochs += ((n - val) * tc.epochs) as f64;
            }
        }
    }
    let data: Vec<(&PowerGraph, f64)> = datasets
        .iter()
        .flat_map(|d| d.labeled(PowerTarget::Dynamic))
        .collect();
    let tc = cfg.train_config(PowerTarget::Dynamic);
    let mut model = PowerModel::new(tc.model.clone(), 7);
    model.target_scale = (data.iter().map(|(_, y)| y).sum::<f64>() / data.len() as f64) as f32;
    let mut tape = Tape::new();
    let mut rng = Rng64::new(11);
    for shard in data.chunks(SHARD_GRAPHS) {
        let graphs: Vec<&PowerGraph> = shard.iter().map(|(g, _)| *g).collect();
        let targets: Vec<f64> = shard.iter().map(|(_, y)| *y).collect();
        let n = graphs.len() as u64;
        let batch = t.batch.time(n, || GraphBatch::new(&graphs, &targets));
        let scaled: Vec<f32> = batch
            .targets
            .iter()
            .map(|&y| y / model.target_scale)
            .collect();
        let loss = t.forward.time(n, || {
            tape.reset();
            let pred = model.forward(&mut tape, &batch, true, &mut rng);
            tape.mape_loss(pred, &scaled)
        });
        std::hint::black_box(t.backward.time(n, || tape.backward(loss)));
    }
    (gear, t)
}

/// Inference layer times over `graphs`: `GraphBatch::new` on the
/// engine's 32-graph chunks (a probe of the assembly share inside
/// inference), and `PowerGear::estimate_graphs` itself.
pub fn traced_infer(gear: &PowerGear, graphs: &[&PowerGraph]) -> (Busy, Busy, Vec<(f64, f64)>) {
    let mut batch = Busy::default();
    for chunk in graphs.chunks(INFER_BATCH) {
        let zeros = vec![0.0; chunk.len()];
        std::hint::black_box(batch.time(chunk.len() as u64, || GraphBatch::new(chunk, &zeros)));
    }
    let mut infer = Busy::default();
    let preds = infer.time(graphs.len() as u64, || gear.estimate_graphs(graphs));
    (batch, infer, preds)
}

/// True when every estimate is a finite, positive wattage.
pub fn plausible(preds: &[(f64, f64)]) -> bool {
    preds
        .iter()
        .all(|&(t, d)| t.is_finite() && d.is_finite() && t > 0.0 && d > 0.0)
}

/// Bit patterns of a prediction list, for exact comparison.
pub fn bits(preds: &[(f64, f64)]) -> Vec<(u64, u64)> {
    preds
        .iter()
        .map(|(t, d)| (t.to_bits(), d.to_bits()))
        .collect()
}

/// A seeded RNG for one workload stream.
pub fn rng(seed: u64, stream: u64) -> Rng64 {
    Rng64::new(pg_util::rng::mix64(&[seed, stream]))
}
