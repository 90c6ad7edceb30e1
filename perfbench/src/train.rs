//! `train`: one leave-one-kernel-out fold, the protocol of
//! `powergear eval --loko`. The measured part fits both heads on eight
//! kernels and scores the ninth; it runs no HLS, so the `pg_gnn` /
//! `pg_tensor` training loop dominates.

use crate::common;
use crate::serve::{self, KernelPool};
use crate::{stats, Outcome, RunOpts};
use pg_datasets::{build_all, KernelDataset, PowerTarget};
use pg_graphcon::PowerGraph;
use powergear::{PowerGear, PowerGearConfig};
use std::time::Instant;

/// Design points per kernel.
const SAMPLES: usize = 24;
/// Total-head epochs (the dynamic head trains twice as long).
const EPOCHS: usize = 6;
/// The fixed held-out kernel.
const HELD_OUT: &str = "gemm";

fn setup() -> Vec<KernelDataset> {
    build_all(&common::dataset_config(SAMPLES))
}

/// Splits the nine datasets into the eight training kernels and the
/// held-out one.
fn split(datasets: Vec<KernelDataset>) -> Result<(Vec<KernelDataset>, KernelDataset), String> {
    let (test, train): (Vec<_>, Vec<_>) = datasets.into_iter().partition(|d| d.kernel == HELD_OUT);
    let test = test.into_iter().next().ok_or("held-out kernel missing")?;
    Ok((train, test))
}

/// Graph-epochs one fit trains: samples × epochs × members, both heads.
fn graph_epochs(train: &[KernelDataset], cfg: &PowerGearConfig) -> f64 {
    let n: usize = train.iter().map(|d| d.samples.len()).sum();
    [PowerTarget::Total, PowerTarget::Dynamic]
        .iter()
        .map(|&t| {
            let tc = cfg.train_config(t);
            (n * tc.epochs * tc.folds * tc.seeds.len()) as f64
        })
        .sum()
}

/// Held-out estimates of a fitted model, and its `(total, dynamic)` MAPE.
fn score(gear: &PowerGear, test: &KernelDataset) -> (Vec<(f64, f64)>, (f64, f64)) {
    let graphs: Vec<&PowerGraph> = test.samples.iter().map(|s| &s.graph).collect();
    let samples: Vec<_> = test.samples.iter().collect();
    (gear.estimate_graphs(&graphs), gear.evaluate(&samples))
}

/// The untraced run: `setup_s` over [`common::SETUPS`] dataset builds, then whole
/// folds (fit + score) until `seconds` have passed. Every fold must give
/// bit-identical held-out estimates. Throughput is graph-epochs per
/// second of fitting over all folds; latency is per fold.
///
/// # Errors
///
/// A message when the held-out kernel is missing.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let (datasets, setups) = crate::repeat_timed(common::SETUPS, |_| Ok(setup()))?;
    let (train, test) = split(datasets)?;
    let cfg = common::fit_config(EPOCHS);
    let work = graph_epochs(&train, &cfg);

    let mut out = Outcome::default();
    let (mut fit_s, mut folds_ms) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<(u64, u64)>> = None;
    let (mut total_mape, mut dynamic_mape) = (f64::NAN, f64::NAN);
    let start = Instant::now();
    while fit_s.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let gear = PowerGear::fit(&train, &cfg);
        fit_s.push(t.elapsed().as_secs_f64());
        let (preds, mape) = score(&gear, &test);
        folds_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let bits = common::bits(&preds);
        let reference = reference.get_or_insert_with(|| {
            (total_mape, dynamic_mape) = mape;
            bits.clone()
        });
        out.attempted += preds.len() as u64;
        out.failed += preds
            .iter()
            .zip(&bits)
            .zip(reference.iter())
            .filter(|((p, b), r)| !common::plausible(&[**p]) || b != r)
            .count() as u64;
    }
    out.set_common(&setups);
    let folds = fit_s.len();
    out.set(
        "throughput_per_s",
        work * folds as f64 / fit_s.iter().sum::<f64>(),
    );
    out.set(
        "p50_ms",
        stats::percentile(&folds_ms, 50.0).unwrap_or(f64::NAN),
    );
    out.set(
        "p90_ms",
        stats::percentile(&folds_ms, 90.0).unwrap_or(f64::NAN),
    );
    out.notes.push(format!(
        "train: {} folds holding out {HELD_OUT}, {work} graph-epochs each; held-out MAPE total {total_mape:.4} % dynamic {dynamic_mape:.4} %",
        folds
    ));
    Ok(out)
}

/// The traced run: the dataset build composed stage by stage, one
/// untraced and one traced fold (bit-identical held-out estimates
/// required), inference layers on the held-out graphs, and the serving
/// layers probed with the fitted model.
///
/// # Errors
///
/// A message on any error, or when a traced composition does not
/// reproduce its untraced counterpart.
pub fn run_traced(opts: &RunOpts) -> Result<Outcome, String> {
    let datasets = setup();
    let cold = common::traced_datasets(&datasets, SAMPLES)?;
    let (train, test) = split(datasets)?;
    let cfg = common::fit_config(EPOCHS);

    let t = Instant::now();
    let gear = PowerGear::fit(&train, &cfg);
    let untraced_s = t.elapsed().as_secs_f64();
    let (expected, _) = score(&gear, &test);
    let (traced_gear, fit) = common::traced_fit(&train, &cfg);
    let traced_s = fit.fit_s;
    let (traced, _) = score(&traced_gear, &test);
    if common::bits(&traced) != common::bits(&expected) {
        return Err("traced and untraced fits disagree on the held-out kernel".into());
    }

    let mut out = Outcome {
        attempted: expected.len() as u64,
        failed: expected
            .iter()
            .filter(|p| !common::plausible(&[**p]))
            .count() as u64,
        ..Outcome::default()
    };
    out.set_cold(&cold);
    out.set_fit(&fit);
    let members: f64 = fit.member_s.iter().sum();
    out.set("bench.attributed_pct", 100.0 * members / traced_s);
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    let graphs: Vec<&PowerGraph> = test.samples.iter().map(|s| &s.graph).collect();
    let (batch, infer, _) = common::traced_infer(&gear, &graphs);
    out.set_infer(&batch, &infer);

    let pools: Vec<KernelPool<'_>> = train
        .iter()
        .chain(std::iter::once(&test))
        .map(|d| {
            let graphs: Vec<&PowerGraph> = d.samples.iter().map(|s| &s.graph).collect();
            KernelPool {
                kernel: d.kernel.clone(),
                expected: gear.estimate_graphs(&graphs),
                graphs,
            }
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
        "train traced: untraced fit {untraced_s:.3} s, traced fit {traced_s:.3} s"
    ));
    Ok(out)
}
