//! `serve_open`: open-loop traffic against the serving daemon. Two
//! models are published and routed by kernel; requests carry 1 to 8
//! prebuilt graphs, so no HLS and no training run in the measured part and
//! per-request overhead and queueing dominate.

use crate::common;
use crate::openloop::PhaseReport;
use crate::serve::{
    attribute, closed_loop, make_requests, observed, open_loop, Harness, KernelPool, Request,
    CONNS, HEAVY_RATE, LIGHT_RATE,
};
use crate::{stats, Outcome, RunOpts};
use pg_datasets::KernelDataset;
use pg_graphcon::PowerGraph;
use powergear::PowerGear;
use std::path::Path;
use std::time::Instant;

/// Training design points per kernel for the served models and the graph
/// pool.
const SAMPLES: usize = 12;
/// Total-head epochs of each served model's fit: serving cost does not
/// depend on how long the models trained.
const EPOCHS: usize = 1;
/// Kernels (in Polybench order) routed to the first model; the rest go to
/// the second.
const FIRST_MODEL_KERNELS: usize = 4;

/// A served registry, ready for traffic.
struct Served {
    harness: Harness,
    requests: Vec<Request>,
    datasets: Vec<KernelDataset>,
    models: Vec<(Vec<String>, PowerGear)>,
}

/// Builds the graph pool, fits the two routed models (the first through
/// `fit`), publishes them, spawns the daemon, prebuilds the requests and
/// warms the serving path up; returns the warm-up phase with the rest so
/// its requests count as operations too.
fn serve_setup(
    dir: &Path,
    seed: u64,
    fit: &mut dyn FnMut(&[KernelDataset]) -> PowerGear,
) -> Result<(Served, PhaseReport), String> {
    let datasets = pg_datasets::build_all(&common::dataset_config(SAMPLES));
    let (a, b) = datasets.split_at(FIRST_MODEL_KERNELS);
    let names = |ds: &[KernelDataset]| ds.iter().map(|d| d.kernel.clone()).collect::<Vec<_>>();
    let first = fit(a);
    let second = PowerGear::fit(b, &common::fit_config(EPOCHS));
    let models = vec![(names(a), first), (names(b), second)];
    let harness = Harness::start(
        dir,
        &[
            ("a", &models[0].0, &models[0].1),
            ("b", &models[1].0, &models[1].1),
        ],
    )?;
    let pools: Vec<KernelPool<'_>> = datasets
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let gear = &models[usize::from(i >= FIRST_MODEL_KERNELS)].1;
            let graphs: Vec<&PowerGraph> = d.samples.iter().map(|s| &s.graph).collect();
            KernelPool {
                kernel: d.kernel.clone(),
                expected: gear.estimate_graphs(&graphs),
                graphs,
            }
        })
        .collect();
    let requests = make_requests(&pools, &mut common::rng(seed, 1));
    drop(pools);
    let warm = closed_loop(
        harness.addr(),
        &requests,
        0.3,
        CONNS,
        &mut common::rng(seed, 3),
    );
    Ok((
        Served {
            harness,
            requests,
            datasets,
            models,
        },
        warm,
    ))
}

/// `serve_open` phase lengths as shares of the run: closed-loop capacity,
/// light rate, heavy rate. Capacity is measured with one connection: with
/// two, the clients either fall into step (and every daemon batch
/// coalesces both requests) or do not, and the run-to-run swing between
/// the two regimes exceeded any usable bound.
const PHASES: [f64; 3] = [0.15, 0.15, 0.7];

/// The untraced run: `setup_s` over [`common::SETUPS`] set-ups, then
/// single-client closed-loop capacity (the throughput), the light rate and
/// the heavy rate, whose latencies are the run's p50 and p90.
///
/// # Errors
///
/// A message on any set-up, socket or shutdown failure.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(common::SETUPS);
    let mut served: Option<Served> = None;
    for i in 0..common::SETUPS {
        if let Some(prev) = served.take() {
            prev.harness.stop()?;
        }
        let cfg = common::fit_config(EPOCHS);
        let t = Instant::now();
        let (s, warm) = serve_setup(
            &opts.scratch.join(format!("serve{i}")),
            opts.seed,
            &mut |ds| PowerGear::fit(ds, &cfg),
        )?;
        setups.push(t.elapsed().as_secs_f64());
        out.count(&warm);
        served = Some(s);
    }
    let s = served.expect("at least one set-up");
    let addr = s.harness.addr();
    let mut rng = common::rng(opts.seed, 2);
    let [cap_s, light_s, heavy_s] = PHASES.map(|share| share * opts.seconds);
    let capacity = closed_loop(addr, &s.requests, cap_s, 1, &mut rng);
    let light = open_loop(addr, &s.requests, LIGHT_RATE, light_s, &mut rng);
    let heavy = open_loop(addr, &s.requests, HEAVY_RATE, heavy_s, &mut rng);
    s.harness.stop()?;
    for phase in [&capacity, &light, &heavy] {
        out.count(phase);
    }
    out.set_common(&setups);
    out.set("throughput_per_s", capacity.completed_per_s());
    let p = |r: &PhaseReport, q| stats::percentile(&r.latencies_s, q).unwrap_or(f64::NAN) * 1e3;
    out.set("p50_ms", p(&heavy, 50.0));
    out.set("p90_ms", p(&heavy, 90.0));
    out.notes.push(format!(
        "serve_open: capacity {} req in {:.2} s; light {LIGHT_RATE} req/s: {} req, p50 {:.3} ms p99 {:.3} ms; heavy {HEAVY_RATE} req/s: {} req",
        capacity.attempted,
        capacity.elapsed_s,
        light.attempted,
        p(&light, 50.0),
        p(&light, 99.0),
        heavy.attempted
    ));
    Ok(out)
}

/// The traced run: the set-up with its dataset build and first fit
/// traced, then the same three phases with `StatsV2` snapshots around the
/// light and heavy ones. Daemon-side figures come from the heavy phase.
///
/// # Errors
///
/// A message on any error, or when the traced dataset build does not
/// reproduce the untraced one.
pub fn run_traced(opts: &RunOpts) -> Result<Outcome, String> {
    let cfg = common::fit_config(EPOCHS);
    let mut fit_trace = None;
    let (s, warm) = serve_setup(&opts.scratch.join("serve"), opts.seed, &mut |ds| {
        let (gear, t) = common::traced_fit(ds, &cfg);
        fit_trace = Some(t);
        gear
    })?;
    let mut out = Outcome::default();
    out.count(&warm);
    out.set_cold(&common::traced_datasets(&s.datasets, SAMPLES)?);
    out.set_fit(&fit_trace.expect("the first model is fitted through the hook"));
    let (kernels, gear) = &s.models[0];
    let graphs: Vec<&PowerGraph> = s
        .datasets
        .iter()
        .filter(|d| kernels.contains(&d.kernel))
        .flat_map(|d| d.samples.iter().map(|s| &s.graph))
        .collect();
    let (batch, infer, _) = common::traced_infer(gear, &graphs);
    out.set_infer(&batch, &infer);

    let addr = s.harness.addr();
    let mut rng = common::rng(opts.seed, 2);
    let [cap_s, light_s, heavy_s] = PHASES.map(|share| share * opts.seconds);
    out.count(&closed_loop(addr, &s.requests, cap_s, 1, &mut rng));
    let (light, _, light_stats_s) = observed(&s.harness, || {
        open_loop(addr, &s.requests, LIGHT_RATE, light_s, &mut rng)
    })?;
    let (heavy, delta, heavy_stats_s) = observed(&s.harness, || {
        open_loop(addr, &s.requests, HEAVY_RATE, heavy_s, &mut rng)
    })?;
    out.count(&light);
    out.count(&heavy);
    let t = attribute(&s.requests, &heavy, &delta, gear, &graphs);
    out.set_serve(&t, &s.harness);
    out.set_light(&light);
    let client_p50_us = stats::median(&heavy.latencies_s).unwrap_or(f64::NAN) * 1e6;
    let attributed =
        t.encode.us_per_op() + t.decode.us_per_op() + t.admission_p50_us + t.service_p50_us;
    out.set("bench.attributed_pct", 100.0 * attributed / client_p50_us);
    let phases_s = light.elapsed_s + heavy.elapsed_s;
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (light_stats_s + heavy_stats_s) / phases_s,
    );
    s.harness.stop()?;
    out.notes.push(format!(
        "serve_open traced: heavy phase {} req, {} daemon batches",
        heavy.attempted, delta.batches
    ));
    Ok(out)
}
