//! `dse_sweep`: the paper's DSE calling pattern (§IV-C). A fitted
//! estimator is asked for the power of many unseen design points of every
//! kernel through `PowerGear::estimate_space`, on a fresh `HlsCache` per
//! kernel, so the cold path (HLS, activity trace, graph construction)
//! does most of the work.

use crate::common::{self, Busy, ColdTrace};
use crate::serve::{self, KernelPool};
use crate::{stats, Outcome, RunOpts};
use pg_activity::{execute, Stimuli};
use pg_datasets::{build_all, enumerate_space, polybench, HlsCache, KernelDataset};
use pg_graphcon::{GraphFlow, PowerGraph};
use pg_hls::Directives;
use pg_ir::Kernel;
use powergear::{PowerEstimate, PowerGear};
use std::time::Instant;

/// Training design points per kernel in set-up.
const SETUP_SAMPLES: usize = 12;
/// Total-head epochs of the set-up fit: inference cost does not depend on
/// how long the model trained.
const SETUP_EPOCHS: usize = 1;
/// Unseen design points estimated per kernel in one sweep.
const POINTS: usize = 128;

struct Setup {
    datasets: Vec<KernelDataset>,
    gear: PowerGear,
}

fn setup() -> Setup {
    let datasets = build_all(&common::dataset_config(SETUP_SAMPLES));
    let gear = PowerGear::fit(&datasets, &common::fit_config(SETUP_EPOCHS));
    Setup { datasets, gear }
}

/// Per kernel, [`POINTS`] seeded design points that the set-up fit did not
/// train on.
fn sweep_points(datasets: &[KernelDataset], seed: u64) -> Vec<(Kernel, Vec<Directives>)> {
    polybench::polybench(common::SIZE)
        .into_iter()
        .zip(datasets)
        .enumerate()
        .map(|(k, (kernel, ds))| {
            let mut unseen: Vec<Directives> = enumerate_space(&kernel)
                .into_iter()
                .filter(|d| ds.samples.iter().all(|s| &s.directives != d))
                .collect();
            common::rng(seed, k as u64).shuffle(&mut unseen);
            unseen.truncate(POINTS);
            (kernel, unseen)
        })
        .collect()
}

/// The first two points of every kernel: a warm-up sweep that brings code
/// paths and the allocator to steady state off the clock.
fn warm_points(points: &[(Kernel, Vec<Directives>)]) -> Vec<(Kernel, Vec<Directives>)> {
    points
        .iter()
        .map(|(k, p)| (k.clone(), p[..2].to_vec()))
        .collect()
}

/// One `estimate_space` call per kernel, each on a fresh cache; returns
/// the estimates and each call's seconds.
fn sweep(
    gear: &PowerGear,
    points: &[(Kernel, Vec<Directives>)],
) -> Result<(Vec<Vec<PowerEstimate>>, Vec<f64>), String> {
    let mut estimates = Vec::with_capacity(points.len());
    let mut secs = Vec::with_capacity(points.len());
    for (kernel, configs) in points {
        let t = Instant::now();
        let est = gear
            .estimate_space(kernel, configs, &HlsCache::new())
            .map_err(|e| format!("{}: {e}", kernel.name))?;
        secs.push(t.elapsed().as_secs_f64());
        estimates.push(est);
    }
    Ok((estimates, secs))
}

/// Everything an estimate carries, with the wattages as bit patterns.
fn key(estimates: &[Vec<PowerEstimate>]) -> Vec<(u64, u64, u64, usize)> {
    estimates
        .iter()
        .flatten()
        .map(|e| {
            (
                e.total_w.to_bits(),
                e.dynamic_w.to_bits(),
                e.latency_cycles,
                e.graph_nodes,
            )
        })
        .collect()
}

fn failures(estimates: &[Vec<PowerEstimate>]) -> u64 {
    estimates
        .iter()
        .flatten()
        .filter(|e| !common::plausible(&[(e.total_w, e.dynamic_w)]))
        .count() as u64
}

/// The untraced run: `setup_s` over [`common::SETUPS`] set-ups, then whole sweeps
/// until `seconds` have passed. Throughput is designs per second over all
/// sweeps; latency is per `estimate_space` call (one kernel).
///
/// # Errors
///
/// A message on any synthesis error.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let (s, setups) = crate::repeat_timed(common::SETUPS, |_| Ok(setup()))?;
    let points = sweep_points(&s.datasets, opts.seed);
    let designs: usize = points.iter().map(|(_, p)| p.len()).sum();
    sweep(&s.gear, &warm_points(&points))?;

    let mut out = Outcome::default();
    let (mut rates, mut calls_ms) = (Vec::new(), Vec::new());
    let mut busy_s = 0.0;
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let (estimates, secs) = sweep(&s.gear, &points)?;
        let sweep_s = t.elapsed().as_secs_f64();
        busy_s += sweep_s;
        rates.push(designs as f64 / sweep_s);
        calls_ms.extend(secs.iter().map(|s| s * 1e3));
        out.attempted += designs as u64;
        out.failed += failures(&estimates);
    }
    out.set_common(&setups);
    out.set("throughput_per_s", out.attempted as f64 / busy_s);
    out.set(
        "p50_ms",
        stats::percentile(&calls_ms, 50.0).unwrap_or(f64::NAN),
    );
    out.set(
        "p90_ms",
        stats::percentile(&calls_ms, 90.0).unwrap_or(f64::NAN),
    );
    out.notes.push(format!(
        "dse_sweep: {} sweeps of {designs} designs ({} kernels x <= {POINTS} unseen points), {} estimate_space calls; designs/s per sweep {rates:.1?}",
        rates.len(),
        points.len(),
        calls_ms.len()
    ));
    Ok(out)
}

/// Layer times of one traced sweep, with what it produced.
struct TracedSweep {
    cold: ColdTrace,
    /// `GraphBatch::new` probe on the engine's chunks (off the wall clock).
    batch: Busy,
    /// `PowerGear::estimate_graphs`.
    infer: Busy,
    /// Wall seconds of the composition, probe excluded.
    wall_s: f64,
    graphs: Vec<Vec<PowerGraph>>,
    estimates: Vec<Vec<PowerEstimate>>,
}

/// Composes `estimate_space` from its public stages, timing each:
/// synthesis through the cache, trace, graph build and batched inference.
fn traced_sweep(
    gear: &PowerGear,
    points: &[(Kernel, Vec<Directives>)],
) -> Result<TracedSweep, String> {
    let mut cold = ColdTrace::default();
    let (mut batch, mut infer) = (Busy::default(), Busy::default());
    let mut wall = 0.0;
    let mut all_graphs = Vec::new();
    let mut all_estimates = Vec::new();
    for (kernel, configs) in points {
        let err = |e: pg_hls::HlsError| format!("{}: {e}", kernel.name);
        let start = Instant::now();
        let cache = HlsCache::new();
        let mut graphs = Vec::with_capacity(configs.len());
        let mut latencies = Vec::with_capacity(configs.len());
        for d in configs {
            let (baseline, design) = cold.synth.time(0, || {
                let baseline = cache.run(kernel, &Directives::new());
                (baseline, cache.run(kernel, d))
            });
            let (baseline, design) = (baseline.map_err(err)?, design.map_err(err)?);
            let trace = cold
                .trace
                .time(1, || execute(&design, &Stimuli::for_kernel(kernel, 1)));
            let mut graph = cold
                .build
                .time(1, || GraphFlow::new().build(&design, &trace));
            graph.meta = design
                .report
                .metadata_features(&baseline.report)
                .into_iter()
                .map(|v| v as f32)
                .collect();
            cold.nodes += graph.num_nodes as u64;
            cold.edges += graph.edges.len() as u64;
            latencies.push(design.report.latency_cycles);
            graphs.push(graph);
        }
        cold.hits += cache.hits();
        cold.misses += cache.misses();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let build_phase = start.elapsed().as_secs_f64();
        let (b, i, preds) = common::traced_infer(gear, &refs);
        wall += build_phase + i.secs;
        batch += b;
        infer += i;
        all_estimates.push(
            preds
                .iter()
                .zip(graphs.iter().zip(&latencies))
                .map(
                    |(&(total_w, dynamic_w), (g, &latency_cycles))| PowerEstimate {
                        total_w,
                        dynamic_w,
                        latency_cycles,
                        graph_nodes: g.num_nodes,
                    },
                )
                .collect(),
        );
        all_graphs.push(graphs);
    }
    cold.synth.ops = cold.misses as u64;
    Ok(TracedSweep {
        cold,
        batch,
        infer,
        wall_s: wall,
        graphs: all_graphs,
        estimates: all_estimates,
    })
}

/// The traced run: the set-up with its dataset build and fit traced, one
/// untraced and one traced sweep (which must agree bit for bit), and the
/// serving layers probed with the fitted model on the swept graphs.
///
/// # Errors
///
/// A message on any error, or when a traced composition does not
/// reproduce its untraced counterpart.
pub fn run_traced(opts: &RunOpts) -> Result<Outcome, String> {
    let datasets = build_all(&common::dataset_config(SETUP_SAMPLES));
    let setup_cold = common::traced_datasets(&datasets, SETUP_SAMPLES)?;
    let (gear, fit) = common::traced_fit(&datasets, &common::fit_config(SETUP_EPOCHS));
    let points = sweep_points(&datasets, opts.seed);

    sweep(&gear, &warm_points(&points))?;
    let t = Instant::now();
    let (expected, _) = sweep(&gear, &points)?;
    let untraced_s = t.elapsed().as_secs_f64();
    let t = traced_sweep(&gear, &points)?;
    if key(&t.estimates) != key(&expected) {
        return Err("the traced composition does not reproduce estimate_space".into());
    }

    let mut out = Outcome {
        attempted: expected.iter().map(Vec::len).sum::<usize>() as u64,
        failed: failures(&expected),
        ..Outcome::default()
    };
    out.set_cold(&t.cold);
    out.set(
        "pg_powersim.oracle_ms_per_design",
        setup_cold.oracle.ms_per_op(),
    );
    out.set_fit(&fit);
    out.set_infer(&t.batch, &t.infer);
    let attributed = t.cold.synth.secs + t.cold.trace.secs + t.cold.build.secs + t.infer.secs;
    out.set("bench.attributed_pct", 100.0 * attributed / t.wall_s);
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (t.wall_s - untraced_s) / untraced_s,
    );

    let pools: Vec<KernelPool<'_>> = points
        .iter()
        .zip(&t.graphs)
        .zip(&expected)
        .map(|(((kernel, _), g), e)| KernelPool {
            kernel: kernel.name.clone(),
            graphs: g.iter().collect(),
            expected: e.iter().map(|e| (e.total_w, e.dynamic_w)).collect(),
        })
        .collect();
    let mut rng = common::rng(opts.seed, 100);
    serve::probe(
        &opts.scratch.join("probe"),
        &gear,
        &pools,
        opts.seconds,
        &mut rng,
        &mut out,
    )?;
    out.notes.push(format!(
        "dse_sweep traced: {} designs, untraced sweep {untraced_s:.3} s, traced {:.3} s",
        out.attempted, t.wall_s
    ));
    Ok(out)
}
