//! **PowerGear**: graph-learning-assisted early-stage power estimation for
//! FPGA HLS — a full Rust reproduction of the DATE 2022 paper.
//!
//! PowerGear estimates total and dynamic power of an HLS design right after
//! high-level synthesis, skipping RTL implementation and gate-level
//! simulation. It combines a graph construction flow (buffer insertion,
//! datapath merging, graph trimming, switching-activity feature annotation)
//! with HEC-GNN, a heterogeneous edge-centric GNN whose aggregation fits
//! the dynamic-power formula `P = Σ α·C·V²·f`.
//!
//! This crate is the user-facing entry point: [`PowerGear::fit`] trains the
//! total- and dynamic-power ensembles on labeled datasets, and
//! [`PowerGear::estimate`] runs the complete inference flow (HLS → activity
//! trace → graph → GNN) for a new kernel/directive configuration.
//!
//! # Examples
//!
//! ```no_run
//! use powergear::{PowerGear, PowerGearConfig};
//! use pg_datasets::{build_all, DatasetConfig};
//! use pg_hls::Directives;
//!
//! let datasets = build_all(&DatasetConfig::default());
//! let model = PowerGear::fit(&datasets, &PowerGearConfig::quick());
//! let kernel = pg_datasets::polybench::gemm(12);
//! let mut directives = Directives::new();
//! directives.pipeline("k").unroll("k", 4);
//! let estimate = model.estimate(&kernel, &directives)?;
//! println!("total {:.3} W, dynamic {:.3} W", estimate.total_w, estimate.dynamic_w);
//! # Ok::<(), pg_hls::HlsError>(())
//! ```

pub mod daemon;
pub mod eval;

use pg_datasets::{build_graphs_cached, HlsCache, KernelDataset, PowerTarget};
use pg_gnn::{predict_heads, Ensemble, ModelConfig, ServeConfig, TrainConfig};
use pg_graphcon::PowerGraph;
use pg_hls::{Directives, HlsError, HlsReport};
use pg_ir::Kernel;

/// Testbench seed the estimator traces new design points with: the
/// default dataset seed, so graphs match those of a model trained on
/// default-seed datasets.
const STIMULI_SEED: u64 = 1;

/// Top-level configuration for [`PowerGear::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerGearConfig {
    /// Hidden width of HEC-GNN.
    pub hidden: usize,
    /// Training epochs per member model.
    pub epochs: usize,
    /// Cross-validation folds (paper: 10).
    pub folds: usize,
    /// Ensemble seeds (paper: 3).
    pub seeds: Vec<u64>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Worker threads.
    pub threads: usize,
}

impl PowerGearConfig {
    /// Scaled-down defaults for this environment (same pipeline as the
    /// paper, smaller width/epochs/folds).
    pub fn quick() -> Self {
        PowerGearConfig {
            hidden: 32,
            epochs: 40,
            folds: 3,
            seeds: vec![17],
            batch_size: 48,
            lr: 2e-3,
            threads: 2,
        }
    }

    /// The paper's published hyperparameters (heavy on CPU).
    pub fn paper() -> Self {
        PowerGearConfig {
            hidden: 128,
            epochs: 1200,
            folds: 10,
            seeds: vec![17, 43, 91],
            batch_size: 128,
            lr: 5e-4,
            threads: 2,
        }
    }

    /// Converts to a GNN training config for `target` power.
    pub fn train_config(&self, target: PowerTarget) -> TrainConfig {
        let mut cfg = TrainConfig::quick(ModelConfig::hec(self.hidden));
        cfg.epochs = match target {
            // the paper trains dynamic power twice as long
            PowerTarget::Dynamic => self.epochs * 2,
            PowerTarget::Total => self.epochs,
        };
        cfg.label_norm = match target {
            // static power is a near-constant offset under total power;
            // standardized labels keep short training runs from collapsing
            // below the positive-power floor
            PowerTarget::Total => pg_gnn::LabelNorm::Standardize,
            PowerTarget::Dynamic => pg_gnn::LabelNorm::MeanScale,
        };
        cfg.folds = self.folds;
        cfg.seeds = self.seeds.clone();
        cfg.batch_size = self.batch_size;
        cfg.lr = self.lr;
        cfg.threads = self.threads;
        cfg
    }
}

/// A power estimate for one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerEstimate {
    /// Estimated total power (W).
    pub total_w: f64,
    /// Estimated dynamic power (W).
    pub dynamic_w: f64,
    /// HLS-reported latency (cycles).
    pub latency_cycles: u64,
    /// The constructed graph's node count (diagnostics).
    pub graph_nodes: usize,
}

/// The trained PowerGear estimator: two HEC-GNN ensembles plus the
/// graph-construction pipeline needed to serve new designs.
#[derive(Debug, Clone)]
pub struct PowerGear {
    /// Ensemble regressing total power.
    pub total_model: Ensemble,
    /// Ensemble regressing dynamic power.
    pub dynamic_model: Ensemble,
}

impl PowerGear {
    /// Trains both ensembles on the given kernel datasets.
    ///
    /// # Panics
    ///
    /// Panics if `datasets` holds too few samples for the fold count.
    pub fn fit(datasets: &[KernelDataset], config: &PowerGearConfig) -> PowerGear {
        Self::fit_with(datasets, config, |_, _| {})
    }

    /// [`PowerGear::fit`] with a checkpoint hook invoked after every
    /// trained ensemble member of either head (see
    /// [`pg_gnn::train_ensemble_with`]) — the CLI uses it for progress
    /// reporting; callers can also persist incremental checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `datasets` holds too few samples for the fold count.
    pub fn fit_with(
        datasets: &[KernelDataset],
        config: &PowerGearConfig,
        mut on_member: impl FnMut(PowerTarget, &pg_gnn::MemberTrained<'_>),
    ) -> PowerGear {
        let mut total_data = Vec::new();
        let mut dynamic_data = Vec::new();
        for ds in datasets {
            total_data.extend(ds.labeled(PowerTarget::Total));
            dynamic_data.extend(ds.labeled(PowerTarget::Dynamic));
        }
        let total_model = pg_gnn::train_ensemble_with(
            &total_data,
            &config.train_config(PowerTarget::Total),
            |m| on_member(PowerTarget::Total, m),
        );
        let dynamic_model = pg_gnn::train_ensemble_with(
            &dynamic_data,
            &config.train_config(PowerTarget::Dynamic),
            |m| on_member(PowerTarget::Dynamic, m),
        );
        PowerGear {
            total_model,
            dynamic_model,
        }
    }

    /// Builds the PowerGraph for a new design point exactly as the training
    /// pipeline does (HLS → trace → graph flow → metadata features): a
    /// one-point call into the dataset builder's design → graph step.
    ///
    /// # Errors
    ///
    /// Propagates [`HlsError`] from synthesis of the design or its
    /// unoptimized baseline.
    pub fn build_graph(
        kernel: &Kernel,
        directives: &Directives,
    ) -> Result<(PowerGraph, HlsReport), HlsError> {
        let mut one = build_graphs_cached(
            kernel,
            std::slice::from_ref(directives),
            STIMULI_SEED,
            1,
            &HlsCache::new(),
        )?;
        Ok(one.swap_remove(0))
    }

    /// Full inference flow for a new design point.
    ///
    /// # Errors
    ///
    /// Propagates [`HlsError`] from synthesis.
    pub fn estimate(
        &self,
        kernel: &Kernel,
        directives: &Directives,
    ) -> Result<PowerEstimate, HlsError> {
        let (graph, report) = Self::build_graph(kernel, directives)?;
        let (total, dynamic) = self.estimate_graph(&graph);
        Ok(PowerEstimate {
            total_w: total,
            dynamic_w: dynamic,
            latency_cycles: report.latency_cycles,
            graph_nodes: graph.num_nodes,
        })
    }

    /// Inference on an already-constructed graph.
    pub fn estimate_graph(&self, graph: &PowerGraph) -> (f64, f64) {
        self.estimate_graphs(&[graph])[0]
    }

    /// Batched inference on many graphs through the serving engine
    /// (bit-identical to per-graph [`PowerGear::estimate_graph`]); returns
    /// `(total, dynamic)` watts in input order.
    pub fn estimate_graphs(&self, graphs: &[&PowerGraph]) -> Vec<(f64, f64)> {
        self.estimate_graphs_with(graphs, &ServeConfig::default())
    }

    /// [`PowerGear::estimate_graphs`] with explicit batching/parallelism:
    /// one [`predict_heads`] pass over both target ensembles, so each
    /// chunk's batch is assembled once and every member forward of both
    /// heads is a task for the `serve.threads` workers.
    pub fn estimate_graphs_with(
        &self,
        graphs: &[&PowerGraph],
        serve: &ServeConfig,
    ) -> Vec<(f64, f64)> {
        let [total, dynamic] =
            predict_heads([&self.total_model, &self.dynamic_model], graphs, serve);
        total.into_iter().zip(dynamic).collect()
    }

    /// Estimates a whole set of design points of one kernel — the DSE
    /// calling pattern of §IV-C — at [`ServeConfig::default`]. See
    /// [`PowerGear::estimate_space_with`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`HlsError`] in config order.
    pub fn estimate_space(
        &self,
        kernel: &Kernel,
        configs: &[Directives],
        cache: &HlsCache,
    ) -> Result<Vec<PowerEstimate>, HlsError> {
        self.estimate_space_with(kernel, configs, cache, &ServeConfig::default())
    }

    /// [`PowerGear::estimate_space`] with explicit batching/parallelism.
    /// Three phases, each on `serve.threads` workers:
    ///
    /// 1. cold synthesis of every config through one per-kernel session
    ///    of the shared [`HlsCache`] (work-stealing);
    /// 2. trace and graph construction over the now-warm cache, through
    ///    the dataset builder's work-stealing assembly (each worker
    ///    recycles one trace scratch; graphs come back in config order);
    /// 3. one batched inference pass over all graphs
    ///    ([`PowerGear::estimate_graphs_with`]).
    ///
    /// Every estimate is bit-identical to the per-point
    /// [`PowerGear::estimate`] at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates the first [`HlsError`] in config order — the error a
    /// per-point loop would stop at.
    pub fn estimate_space_with(
        &self,
        kernel: &Kernel,
        configs: &[Directives],
        cache: &HlsCache,
        serve: &ServeConfig,
    ) -> Result<Vec<PowerEstimate>, HlsError> {
        let built = build_graphs_cached(kernel, configs, STIMULI_SEED, serve.threads, cache)?;
        let refs: Vec<&PowerGraph> = built.iter().map(|(graph, _)| graph).collect();
        let preds = self.estimate_graphs_with(&refs, serve);
        Ok(preds
            .into_iter()
            .zip(&built)
            .map(|((total, dynamic), (graph, report))| PowerEstimate {
                total_w: total,
                dynamic_w: dynamic,
                latency_cycles: report.latency_cycles,
                graph_nodes: graph.num_nodes,
            })
            .collect())
    }

    /// Ensemble name the total head is stored under in a `.pgm` artifact.
    pub const TOTAL_ENSEMBLE: &'static str = "total";
    /// Ensemble name the dynamic head is stored under in a `.pgm` artifact.
    pub const DYNAMIC_ENSEMBLE: &'static str = "dynamic";

    /// Packages both trained heads as a [`pg_store::ModelArtifact`] with
    /// the given metadata and a bit-exactness probe over up to `probe_max`
    /// of `probe_graphs` (pass an empty slice to skip the probe).
    pub fn to_artifact(
        &self,
        meta: pg_store::ArtifactMeta,
        probe_graphs: &[PowerGraph],
        probe_max: usize,
    ) -> pg_store::ModelArtifact {
        let artifact = pg_store::ModelArtifact {
            meta,
            ensembles: vec![
                (Self::TOTAL_ENSEMBLE.into(), self.total_model.clone()),
                (Self::DYNAMIC_ENSEMBLE.into(), self.dynamic_model.clone()),
            ],
            probe: None,
        };
        if probe_graphs.is_empty() || probe_max == 0 {
            artifact
        } else {
            artifact.with_probe(probe_graphs, probe_max)
        }
    }

    /// Saves both trained heads to a `.pgm` artifact at `path` (see
    /// [`PowerGear::to_artifact`] for the probe arguments).
    ///
    /// # Errors
    ///
    /// Propagates [`pg_store::StoreError`] from the filesystem.
    pub fn save(
        &self,
        path: impl AsRef<std::path::Path>,
        meta: pg_store::ArtifactMeta,
        probe_graphs: &[PowerGraph],
        probe_max: usize,
    ) -> Result<(), pg_store::StoreError> {
        self.to_artifact(meta, probe_graphs, probe_max).save(path)
    }

    /// Reconstructs an estimator from a loaded artifact, requiring both
    /// the `total` and `dynamic` ensembles and running the embedded
    /// bit-exactness probe (if present).
    ///
    /// # Errors
    ///
    /// [`pg_store::StoreError`] when a head is missing or the probe fails.
    pub fn from_artifact(
        artifact: &pg_store::ModelArtifact,
    ) -> Result<PowerGear, pg_store::StoreError> {
        artifact.verify()?;
        let get = |name: &'static str| {
            artifact.ensemble(name).cloned().ok_or_else(|| {
                pg_store::StoreError::corrupt(format!("artifact has no `{name}` ensemble"))
            })
        };
        Ok(PowerGear {
            total_model: get(Self::TOTAL_ENSEMBLE)?,
            dynamic_model: get(Self::DYNAMIC_ENSEMBLE)?,
        })
    }

    /// Loads an estimator saved with [`PowerGear::save`]. Inference runs
    /// zero training epochs: the ensembles come off disk bit-exact.
    ///
    /// # Errors
    ///
    /// Any [`pg_store::StoreError`] from I/O, decoding or verification.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<PowerGear, pg_store::StoreError> {
        Self::from_artifact(&pg_store::ModelArtifact::load(path)?)
    }

    /// MAPE (%) of both heads on labeled samples: `(total, dynamic)`.
    pub fn evaluate(&self, samples: &[&pg_datasets::Sample]) -> (f64, f64) {
        let total: Vec<(&PowerGraph, f64)> = samples
            .iter()
            .map(|s| (&s.graph, s.label(PowerTarget::Total)))
            .collect();
        let dynamic: Vec<(&PowerGraph, f64)> = samples
            .iter()
            .map(|s| (&s.graph, s.label(PowerTarget::Dynamic)))
            .collect();
        (
            self.total_model.evaluate(&total),
            self.dynamic_model.evaluate(&dynamic),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_datasets::{build_kernel_dataset, polybench, DatasetConfig};

    fn tiny_datasets() -> Vec<KernelDataset> {
        let cfg = DatasetConfig {
            size: 6,
            max_samples: 14,
            seed: 1,
            threads: 1,
        };
        vec![
            build_kernel_dataset(&polybench::mvt(6), &cfg),
            build_kernel_dataset(&polybench::bicg(6), &cfg),
        ]
    }

    fn tiny_config() -> PowerGearConfig {
        PowerGearConfig {
            hidden: 12,
            epochs: 8,
            folds: 2,
            seeds: vec![5],
            batch_size: 16,
            lr: 3e-3,
            threads: 1,
        }
    }

    #[test]
    fn fit_and_estimate_end_to_end() {
        let ds = tiny_datasets();
        let model = PowerGear::fit(&ds, &tiny_config());
        assert_eq!(model.total_model.models.len(), 2);
        let kernel = polybench::mvt(6);
        let mut d = Directives::new();
        d.pipeline("j");
        let est = model.estimate(&kernel, &d).unwrap();
        assert!(est.total_w > 0.0, "total {}", est.total_w);
        assert!(est.dynamic_w > 0.0);
        assert!(est.latency_cycles > 0);
        assert!(est.graph_nodes > 3);
    }

    #[test]
    fn evaluate_reports_both_heads() {
        let ds = tiny_datasets();
        let model = PowerGear::fit(&ds, &tiny_config());
        let samples: Vec<&pg_datasets::Sample> = ds[0].samples.iter().collect();
        let (te, de) = model.evaluate(&samples);
        assert!(te.is_finite() && te >= 0.0);
        assert!(de.is_finite() && de >= 0.0);
    }

    #[test]
    fn dynamic_head_trains_longer() {
        let cfg = PowerGearConfig::quick();
        assert_eq!(
            cfg.train_config(PowerTarget::Dynamic).epochs,
            2 * cfg.train_config(PowerTarget::Total).epochs
        );
    }

    #[test]
    fn paper_config_published_values() {
        let cfg = PowerGearConfig::paper();
        assert_eq!(cfg.hidden, 128);
        assert_eq!(cfg.folds, 10);
        assert_eq!(cfg.seeds.len(), 3);
    }

    #[test]
    fn estimate_space_matches_per_point_estimates() {
        let ds = tiny_datasets();
        let model = PowerGear::fit(&ds, &tiny_config());
        let kernel = polybench::mvt(6);
        let configs: Vec<Directives> = ds[0]
            .samples
            .iter()
            .take(4)
            .map(|s| s.directives.clone())
            .collect();
        let cache = HlsCache::new();
        let batch = model.estimate_space(&kernel, &configs, &cache).unwrap();
        assert_eq!(batch.len(), 4);
        for (d, est) in configs.iter().zip(&batch) {
            let single = model.estimate(&kernel, d).unwrap();
            assert_eq!(single.total_w.to_bits(), est.total_w.to_bits());
            assert_eq!(single.dynamic_w.to_bits(), est.dynamic_w.to_bits());
            assert_eq!(single.latency_cycles, est.latency_cycles);
        }
        // baseline is shared across all points; repeats are served hot
        assert!(cache.hits() >= configs.len() - 1);
    }

    #[test]
    fn batched_estimate_matches_single() {
        let ds = tiny_datasets();
        let model = PowerGear::fit(&ds, &tiny_config());
        let graphs: Vec<&PowerGraph> = ds[1].samples.iter().map(|s| &s.graph).collect();
        let batched = model.estimate_graphs(&graphs);
        for (g, (t, d)) in graphs.iter().zip(&batched) {
            let (st, sd) = model.estimate_graph(g);
            assert_eq!(st.to_bits(), t.to_bits());
            assert_eq!(sd.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn save_load_roundtrip_is_bit_exact() {
        let ds = tiny_datasets();
        let model = PowerGear::fit(&ds, &tiny_config());
        let graphs: Vec<PowerGraph> = ds[0].samples.iter().map(|s| s.graph.clone()).collect();
        let path = std::env::temp_dir().join(format!("pg_core_rt_{}.pgm", std::process::id()));
        let meta = pg_store::ArtifactMeta::now("mvt,bicg", "total+dynamic");
        model.save(&path, meta, &graphs, 4).unwrap();

        let loaded = PowerGear::load(&path).unwrap();
        let refs: Vec<&PowerGraph> = ds[1].samples.iter().map(|s| &s.graph).collect();
        let a = model.estimate_graphs(&refs);
        let b = loaded.estimate_graphs(&refs);
        for ((t1, d1), (t2, d2)) in a.iter().zip(&b) {
            assert_eq!(t1.to_bits(), t2.to_bits());
            assert_eq!(d1.to_bits(), d2.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_artifact_without_heads() {
        let artifact = pg_store::ModelArtifact {
            meta: pg_store::ArtifactMeta::now("x", "dynamic"),
            ensembles: vec![],
            probe: None,
        };
        assert!(PowerGear::from_artifact(&artifact).is_err());
    }

    #[test]
    fn estimate_rejects_bad_directives() {
        let ds = tiny_datasets();
        let model = PowerGear::fit(&ds, &tiny_config());
        let kernel = polybench::mvt(6);
        let mut d = Directives::new();
        d.pipeline("nonexistent");
        assert!(model.estimate(&kernel, &d).is_err());
    }

    #[test]
    fn estimate_space_returns_the_first_error_in_config_order() {
        let ds = tiny_datasets();
        let model = PowerGear::fit(&ds, &tiny_config());
        let kernel = polybench::mvt(6);
        let mut configs: Vec<Directives> = ds[0]
            .samples
            .iter()
            .take(8)
            .map(|s| s.directives.clone())
            .collect();
        let mut bad_loop = Directives::new();
        bad_loop.pipeline("nonexistent");
        let mut bad_array = Directives::new();
        bad_array.partition("nonexistent", 2);
        configs.insert(3, bad_loop);
        configs.insert(6, bad_array);
        let first = configs
            .iter()
            .find_map(|d| model.estimate(&kernel, d).err())
            .unwrap();
        assert_eq!(first, HlsError::UnknownLoop("nonexistent".into()));
        for threads in [1, 2, 4] {
            let serve = ServeConfig::new(32, threads);
            let err = model
                .estimate_space_with(&kernel, &configs, &HlsCache::new(), &serve)
                .unwrap_err();
            assert_eq!(err, first, "{threads} threads");
        }
    }
}
