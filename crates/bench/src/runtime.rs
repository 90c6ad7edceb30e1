//! Runtime measurement for Table I's speedup column.
//!
//! The paper reports the turnaround speedup of the PowerGear estimation
//! flow over the Vivado power-estimation process (1.47–10.81×, 4.06× on
//! average). Here:
//!
//! * **PowerGear flow** = activity tracing + graph construction + HEC-GNN
//!   ensemble inference (HLS itself is common to both flows and excluded);
//! * **Vivado flow** = the surrogate's netlist synthesis + placement +
//!   gate-level expansion + vector-less propagation + power walk — the
//!   post-HLS work the real tool performs.

use pg_activity::{execute, Stimuli};
use pg_datasets::{polybench, HlsCache, KernelDataset};
use pg_gnn::{predict_heads, Ensemble, ServeConfig};
use pg_graphcon::GraphFlow;
use pg_powersim::VivadoEstimator;
use pg_util::median;
use std::time::Instant;

/// Measures median per-design runtimes (ms) for both flows over up to
/// `probes` designs of `ds`; returns `(powergear_ms, vivado_ms)`.
///
/// Probed designs are resynthesized through `cache` — when the caller
/// shares the cache that built the dataset, resynthesis is a pure lookup
/// (HLS is common to both flows and excluded from the timings either way).
pub fn measure_runtimes(
    ds: &KernelDataset,
    pg_model: &Ensemble,
    probes: usize,
    size: usize,
    cache: &HlsCache,
) -> (f64, f64) {
    let kernel = polybench::by_name(&ds.kernel, size).expect("kernel exists");
    let stim = Stimuli::for_kernel(&kernel, 1);
    let est = VivadoEstimator::new();
    let gf = GraphFlow::new();
    let serve = ServeConfig::default();

    let mut pg_times = Vec::new();
    let mut viv_times = Vec::new();
    let step = (ds.samples.len() / probes.max(1)).max(1);
    for s in ds.samples.iter().step_by(step).take(probes) {
        let design = cache.run(&kernel, &s.directives).expect("resynthesis");

        let t0 = Instant::now();
        let trace = execute(&design, &stim);
        let mut graph = gf.build(&design, &trace);
        graph.meta = design
            .report
            .metadata_features(&ds.baseline)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let _pred = predict_heads([pg_model], &[&graph], &serve);
        pg_times.push(t0.elapsed().as_secs_f64() * 1e3);

        let t1 = Instant::now();
        let _est = est.estimate_raw(&design);
        viv_times.push(t1.elapsed().as_secs_f64() * 1e3);
    }
    (median(&pg_times), median(&viv_times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_datasets::{build_kernel_dataset, DatasetConfig, PowerTarget};
    use pg_gnn::{train_ensemble, ModelConfig, TrainConfig};

    #[test]
    fn measures_positive_times() {
        let kernel = polybench::mvt(6);
        let ds = build_kernel_dataset(&kernel, &DatasetConfig::tiny());
        let data = ds.labeled(PowerTarget::Dynamic);
        let mut tc = TrainConfig::quick(ModelConfig::hec(8));
        tc.epochs = 2;
        tc.folds = 2;
        tc.threads = 1;
        let model = train_ensemble(&data, &tc);
        let cache = HlsCache::new();
        let (pg_ms, viv_ms) = measure_runtimes(&ds, &model, 3, 6, &cache);
        assert!(pg_ms > 0.0);
        assert!(viv_ms > 0.0);
        assert!(!cache.is_empty(), "probes must go through the cache");
    }
}
