//! Cold-vs-warm start driver: quantifies what the `.pgm` model artifact
//! buys a serving process.
//!
//! ```text
//! cargo run --release -p powergear_bench --bin coldstart [-- --full]
//! ```
//!
//! The cold path synthesizes the design space, labels it and trains an
//! ensemble. The warm path is the production story: load the `.pgm` model
//! artifact and serve — zero training epochs. Predictions are asserted
//! bit-identical between the two paths.
//!
//! The run fails (exit 1) unless training took at least
//! [`WARM_START_FLOOR`] times the median of [`LOAD_REPS`] artifact loads:
//! loading a model must stay far cheaper than the training it replaces.

use pg_datasets::{build_kernel_dataset_cached, polybench, DatasetConfig, HlsCache, PowerTarget};
use pg_gnn::{train_ensemble, ModelConfig, TrainConfig};
use pg_graphcon::PowerGraph;
use pg_store::{ArtifactMeta, ModelArtifact};
use std::process::ExitCode;
use std::time::Instant;

/// Minimum ratio of training time to median artifact-load time.
const WARM_START_FLOOR: f64 = 10.0;
/// Timed artifact loads behind the median.
const LOAD_REPS: usize = 5;

fn main() -> ExitCode {
    let full = std::env::args().any(|a| a == "--full");
    let (samples, epochs) = if full { (48, 20) } else { (16, 4) };
    let kernel = polybench::bicg(8);
    let ds_cfg = DatasetConfig {
        size: 8,
        max_samples: samples,
        seed: 1,
        threads: 1,
    };
    let model_path =
        std::env::temp_dir().join(format!("pg_coldstart_model_{}.pgm", std::process::id()));

    // --- Cold path: synthesize + label + train ---
    let t_cold = Instant::now();
    let cache = HlsCache::new();
    let ds = build_kernel_dataset_cached(&kernel, &ds_cfg, &cache);
    let t_synth = t_cold.elapsed().as_secs_f64();
    let data = ds.labeled(PowerTarget::Dynamic);
    let mut tc = TrainConfig::quick(ModelConfig::hec(16));
    tc.epochs = epochs;
    tc.folds = 2;
    tc.threads = 1;
    let t_train0 = Instant::now();
    let ensemble = train_ensemble(&data, &tc);
    let train_s = t_train0.elapsed().as_secs_f64();
    let cold_s = t_cold.elapsed().as_secs_f64();

    // Persist the model for the warm path.
    ModelArtifact {
        meta: ArtifactMeta::now(&ds.kernel, "dynamic"),
        ensembles: vec![("dynamic".into(), ensemble.clone())],
        probe: None,
    }
    .save(&model_path)
    .expect("artifact save");

    // --- Warm path: load the model ---
    let t_load0 = Instant::now();
    let loaded = ModelArtifact::load(&model_path).expect("artifact load");
    let warm_ensemble = loaded.ensemble("dynamic").expect("dynamic head");
    let load_s = t_load0.elapsed().as_secs_f64();

    let graphs: Vec<&PowerGraph> = ds.samples.iter().map(|s| &s.graph).collect();
    let cold_bits: Vec<u64> = ensemble
        .predict(&graphs)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let warm_bits: Vec<u64> = warm_ensemble
        .predict(&graphs)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(cold_bits, warm_bits, "warm path must be bit-identical");

    let mut loads: Vec<f64> = (0..LOAD_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ModelArtifact::load(&model_path).expect("artifact load"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    loads.sort_by(f64::total_cmp);
    let load_median_s = loads[LOAD_REPS / 2];
    let warm_start = train_s / load_median_s.max(1e-9);

    println!(
        "cold-vs-warm start, `{}` x {} design points:",
        ds.kernel, samples
    );
    println!(
        "  cold: synthesize+label {t_synth:.3}s + train({} epochs) {train_s:.3}s = {cold_s:.3}s",
        epochs
    );
    println!("  warm: model load {:.3}ms", load_s * 1e3);
    println!(
        "  speedup: {:.1}x (predictions bit-identical, 0 training epochs warm)",
        cold_s / load_s.max(1e-9)
    );
    println!(
        "  warm start: train {train_s:.3}s / median of {LOAD_REPS} loads {:.3}ms = {warm_start:.1}x (floor {WARM_START_FLOOR}x)",
        load_median_s * 1e3
    );
    std::fs::remove_file(&model_path).ok();
    if warm_start < WARM_START_FLOOR {
        eprintln!("error: training took only {warm_start:.1}x the median artifact load (floor {WARM_START_FLOOR}x)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
