//! Workload benchmark for the PowerGear reproduction.
//!
//! Three workloads, each a different calling pattern of the same system:
//! `dse_sweep` (the paper's per-design-point estimation during design
//! space exploration), `train` (one leave-one-kernel-out fold) and
//! `serve_open` (open-loop traffic against the serving daemon). Every run
//! reports the same end-to-end metrics ([`END_TO_END`]); a traced run
//! reports the same per-layer metrics ([`PER_LAYER`]) instead, from the
//! benchmark's own timing of its calls into each crate. See `README.md`
//! next to this crate for the glossary and the layer-to-metric map.

pub mod common;
pub mod dse;
pub mod openloop;
pub mod results;
pub mod serve;
pub mod serve_open;
pub mod stats;
pub mod train;

use results::Metric;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pg_hls.synth_ms_per_design", "ms"),
    ("pg_datasets.cache_hit_ratio", "ratio"),
    ("pg_activity.trace_ms_per_design", "ms"),
    ("pg_graphcon.build_ms_per_design", "ms"),
    ("pg_graphcon.nodes_per_graph", "count"),
    ("pg_graphcon.edges_per_graph", "count"),
    ("pg_powersim.oracle_ms_per_design", "ms"),
    ("pg_gnn.batch_ms_per_graph", "ms"),
    ("pg_gnn.infer_ms_per_graph", "ms"),
    ("pg_gnn.batch_us_per_graph", "us"),
    ("pg_gnn.forward_us_per_graph", "us"),
    ("pg_tensor.backward_us_per_graph", "us"),
    ("pg_gnn.member_s", "s"),
    ("train.residual_pct", "%"),
    ("pg_store.encode_us_per_request", "us"),
    ("pg_store.decode_us_per_request", "us"),
    ("pg_store.request_bytes", "bytes"),
    ("pg_store.artifact_save_ms", "ms"),
    ("pg_store.artifact_load_ms", "ms"),
    ("powergear.service_us_p50", "us"),
    ("powergear.admission_wait_us_p50", "us"),
    ("powergear.admission_wait_us_p99", "us"),
    ("powergear.batch_graphs_mean", "count"),
    ("powergear.requests_per_batch", "count"),
    ("pg_gnn.infer_us_per_batch_ref", "us"),
    ("serve.unattributed_us_p50", "us"),
    ("serve.light_p50_ms", "ms"),
    ("serve.light_p99_ms", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.attributed_pct", "%"),
    ("process.peak_rss_mb", "MB"),
];

/// Options of one run, from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the measured part runs.
    pub seconds: f64,
    /// Scratch directory inside the checkout for registries and files.
    pub scratch: std::path::PathBuf,
}

/// What a workload run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The metrics of `table` in table order.
    ///
    /// # Errors
    ///
    /// Names the first metric of `table` the workload did not record.
    pub fn metrics(&self, table: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
        table
            .iter()
            .map(|&(name, unit)| {
                self.values
                    .get(name)
                    .map(|&v| Metric::new(name, v, unit))
                    .ok_or_else(|| format!("workload did not measure `{name}`"))
            })
            .collect()
    }

    /// Records the end-to-end metrics every workload shares.
    pub fn set_common(&mut self, setups_s: &[f64]) {
        self.set("setup_s", stats::median(setups_s).unwrap_or(f64::NAN));
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.set("ok_ratio", ok);
    }

    /// Records the serving per-layer figures of a traced phase.
    pub fn set_serve(&mut self, t: &serve::ServeTrace, h: &serve::Harness) {
        self.set("pg_store.encode_us_per_request", t.encode.us_per_op());
        self.set("pg_store.decode_us_per_request", t.decode.us_per_op());
        self.set("pg_store.request_bytes", t.request_bytes);
        self.set("pg_store.artifact_save_ms", h.save.ms_per_op());
        self.set("pg_store.artifact_load_ms", h.load.ms_per_op());
        self.set("powergear.service_us_p50", t.service_p50_us);
        self.set("powergear.admission_wait_us_p50", t.admission_p50_us);
        self.set("powergear.admission_wait_us_p99", t.admission_p99_us);
        self.set("powergear.batch_graphs_mean", t.batch_graphs_mean);
        self.set("powergear.requests_per_batch", t.requests_per_batch);
        self.set("pg_gnn.infer_us_per_batch_ref", t.infer_ref_us);
        self.set("serve.unattributed_us_p50", t.unattributed_p50_us);
        self.set("loadgen.lag_ms_p99", t.lag_p99_ms);
    }

    /// Records the cold-path per-layer figures.
    pub fn set_cold(&mut self, c: &common::ColdTrace) {
        let (nodes, edges) = c.graph_size();
        self.set("pg_hls.synth_ms_per_design", c.synth.ms_per_op());
        self.set("pg_datasets.cache_hit_ratio", c.hit_ratio());
        self.set("pg_activity.trace_ms_per_design", c.trace.ms_per_op());
        self.set("pg_graphcon.build_ms_per_design", c.build.ms_per_op());
        self.set("pg_graphcon.nodes_per_graph", nodes);
        self.set("pg_graphcon.edges_per_graph", edges);
        self.set("pg_powersim.oracle_ms_per_design", c.oracle.ms_per_op());
    }

    /// Records the training-loop per-layer figures.
    pub fn set_fit(&mut self, f: &common::FitTrace) {
        self.set("pg_gnn.batch_us_per_graph", f.batch.us_per_op());
        self.set("pg_gnn.forward_us_per_graph", f.forward.us_per_op());
        self.set("pg_tensor.backward_us_per_graph", f.backward.us_per_op());
        self.set("pg_gnn.member_s", f.mean_member_s());
        self.set("train.residual_pct", f.residual_pct());
    }

    /// Records the inference per-layer figures.
    pub fn set_infer(&mut self, batch: &common::Busy, infer: &common::Busy) {
        self.set("pg_gnn.batch_ms_per_graph", batch.ms_per_op());
        self.set("pg_gnn.infer_ms_per_graph", infer.ms_per_op());
    }

    /// Records the light-rate client latencies of a phase.
    pub fn set_light(&mut self, phase: &openloop::PhaseReport) {
        let p = |q| stats::percentile(&phase.latencies_s, q).unwrap_or(f64::NAN) * 1e3;
        self.set("serve.light_p50_ms", p(50.0));
        self.set("serve.light_p99_ms", p(99.0));
    }

    /// Counts a phase's requests as operations.
    pub fn count(&mut self, phase: &openloop::PhaseReport) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }
}

/// Runs `f` `n` times, returning the last result and every duration.
///
/// # Errors
///
/// The first error `f` returns.
pub fn repeat_timed<T>(
    n: usize,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n {
        let t = std::time::Instant::now();
        let v = f(i)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((last.expect("at least one repetition"), times))
}
