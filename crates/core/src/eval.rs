//! Leave-one-kernel-out (LOKO) evaluation harness.
//!
//! Reproduces the paper's cross-kernel protocol (§IV-A, Tables 1/2): for
//! each of the nine Polybench kernels, train on the other eight and test
//! on the held-out one, for both power targets. The harness emits a
//! per-kernel MAPE/RMSE table with deterministic fixed-order aggregation:
//! kernels are visited in dataset order, targets in `[Total, Dynamic]`
//! order, and every mean is a fixed-order fold over those rows — so the
//! table (and its digest) is bit-identical at any training thread count,
//! riding the thread-invariant trainer.
//!
//! [`run_loko`] evaluates one model configuration; zoo sweeps call it once
//! per [`ModelConfig`] and rank reports by [`LokoReport::mean_mape`].

use pg_datasets::{all_splits, build_all, DatasetConfig, KernelDataset, PowerTarget};
use pg_gnn::{train_ensemble, LabelNorm, ModelConfig, TrainConfig};
use pg_graphcon::PowerGraph;
use pg_util::rng::hash64;
use pg_util::Table;

/// Configuration for one LOKO evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Dataset build profile (size, samples per kernel, seed, threads).
    pub data: DatasetConfig,
    /// The zoo member under evaluation.
    pub model: ModelConfig,
    /// Training epochs per member model (dynamic power trains 2×).
    pub epochs: usize,
    /// Cross-validation folds per ensemble.
    pub folds: usize,
    /// Ensemble seeds.
    pub seeds: Vec<u64>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Training worker threads (pure scheduling: results are
    /// thread-invariant).
    pub threads: usize,
    /// Restrict the sweep to these kernels (`None` = every kernel in the
    /// dataset). Training still uses all *other* kernels of the subset.
    pub kernels: Option<Vec<String>>,
}

impl EvalConfig {
    /// Reduced-scale defaults: small dataset, short training — sized for
    /// CI and golden fixtures, not paper-fidelity numbers.
    pub fn quick(model: ModelConfig) -> Self {
        EvalConfig {
            data: DatasetConfig {
                size: 6,
                max_samples: 10,
                seed: 3,
                threads: 2,
            },
            model,
            epochs: 8,
            folds: 2,
            seeds: vec![17],
            batch_size: 48,
            lr: 2e-3,
            threads: 2,
            kernels: None,
        }
    }

    /// Paper-scale defaults over the full 9-kernel space.
    pub fn paper(model: ModelConfig) -> Self {
        EvalConfig {
            data: DatasetConfig::paper(),
            model,
            epochs: 1200,
            folds: 10,
            seeds: vec![17, 43, 91],
            batch_size: 128,
            lr: 5e-4,
            threads: 2,
            kernels: None,
        }
    }

    /// GNN training config for one power target (mirrors
    /// [`crate::PowerGearConfig::train_config`], but for an arbitrary zoo
    /// member).
    pub fn train_config(&self, target: PowerTarget) -> TrainConfig {
        let mut cfg = TrainConfig::quick(self.model.clone());
        cfg.epochs = match target {
            PowerTarget::Dynamic => self.epochs * 2,
            PowerTarget::Total => self.epochs,
        };
        cfg.label_norm = match target {
            PowerTarget::Total => LabelNorm::Standardize,
            PowerTarget::Dynamic => LabelNorm::MeanScale,
        };
        cfg.folds = self.folds;
        cfg.seeds = self.seeds.clone();
        cfg.batch_size = self.batch_size;
        cfg.lr = self.lr;
        cfg.threads = self.threads;
        cfg
    }
}

/// One held-out kernel × power target evaluation row.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEval {
    /// Held-out kernel name.
    pub kernel: String,
    /// Power target evaluated.
    pub target: PowerTarget,
    /// Training samples (the other kernels).
    pub n_train: usize,
    /// Test samples (the held-out kernel).
    pub n_test: usize,
    /// Mean absolute percentage error on the held-out kernel (percent).
    pub mape_pct: f64,
    /// Root-mean-square error on the held-out kernel (W).
    pub rmse_w: f64,
}

/// A complete LOKO table for one model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LokoReport {
    /// Zoo identifier of the evaluated configuration.
    pub config: String,
    /// Per-kernel rows in fixed (dataset, target) order.
    pub rows: Vec<KernelEval>,
}

/// Table/report name for a power target.
pub fn target_name(target: PowerTarget) -> &'static str {
    match target {
        PowerTarget::Total => "total",
        PowerTarget::Dynamic => "dynamic",
    }
}

impl LokoReport {
    /// Fixed-order mean MAPE over all kernels for one target (the zoo
    /// ranking metric).
    pub fn mean_mape(&self, target: PowerTarget) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.target == target)
            .map(|r| r.mape_pct)
            .collect();
        pg_util::mean(&vals)
    }

    /// Fixed-order mean RMSE over all kernels for one target.
    pub fn mean_rmse(&self, target: PowerTarget) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.target == target)
            .map(|r| r.rmse_w)
            .collect();
        pg_util::mean(&vals)
    }

    /// Content digest over the exact error bits of every row (plus the
    /// config name), in row order. Two runs agree on the digest iff their
    /// tables are bit-identical.
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(self.rows.len() * 32);
        buf.extend_from_slice(self.config.as_bytes());
        for r in &self.rows {
            buf.extend_from_slice(r.kernel.as_bytes());
            buf.extend_from_slice(target_name(r.target).as_bytes());
            buf.extend_from_slice(&(r.n_train as u64).to_le_bytes());
            buf.extend_from_slice(&(r.n_test as u64).to_le_bytes());
            buf.extend_from_slice(&r.mape_pct.to_bits().to_le_bytes());
            buf.extend_from_slice(&r.rmse_w.to_bits().to_le_bytes());
        }
        hash64(&buf)
    }

    /// Renders the paper-style table as TSV: one header line, one row per
    /// (kernel, target), fixed-order `mean` summary rows, and a trailing
    /// digest comment pinning the exact f64 bits.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# powergear loko config={}\n", self.config));
        out.push_str("kernel\ttarget\tn_train\tn_test\tmape_pct\trmse_w\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{:.6}\t{:.6}\n",
                r.kernel,
                target_name(r.target),
                r.n_train,
                r.n_test,
                r.mape_pct,
                r.rmse_w
            ));
        }
        for target in [PowerTarget::Total, PowerTarget::Dynamic] {
            if self.rows.iter().any(|r| r.target == target) {
                out.push_str(&format!(
                    "mean\t{}\t-\t-\t{:.6}\t{:.6}\n",
                    target_name(target),
                    self.mean_mape(target),
                    self.mean_rmse(target)
                ));
            }
        }
        out.push_str(&format!("# digest {:016x}\n", self.digest()));
        out
    }

    /// Pretty console table (same contents as the TSV body).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(&[
            "kernel", "target", "n_train", "n_test", "mape_pct", "rmse_w",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.kernel.clone(),
                target_name(r.target).to_string(),
                r.n_train.to_string(),
                r.n_test.to_string(),
                Table::fmt_f(r.mape_pct, 2),
                Table::fmt_f(r.rmse_w, 4),
            ]);
        }
        for target in [PowerTarget::Total, PowerTarget::Dynamic] {
            if self.rows.iter().any(|r| r.target == target) {
                t.row(vec![
                    "mean".to_string(),
                    target_name(target).to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    Table::fmt_f(self.mean_mape(target), 2),
                    Table::fmt_f(self.mean_rmse(target), 4),
                ]);
            }
        }
        t
    }
}

/// Runs the LOKO protocol over prebuilt datasets: for every kernel (in
/// dataset order), train an ensemble on the remaining kernels and evaluate
/// on the held-out one, for both power targets.
///
/// # Panics
///
/// Panics if `cfg.kernels` names a kernel absent from `datasets`.
pub fn run_loko(datasets: &[KernelDataset], cfg: &EvalConfig) -> LokoReport {
    let keep: Vec<&KernelDataset> = match &cfg.kernels {
        None => datasets.iter().collect(),
        Some(named) => {
            for k in named {
                assert!(
                    datasets.iter().any(|d| &d.kernel == k),
                    "unknown kernel {k:?} in LOKO subset"
                );
            }
            datasets
                .iter()
                .filter(|d| named.contains(&d.kernel))
                .collect()
        }
    };
    let subset: Vec<KernelDataset> = keep.into_iter().cloned().collect();
    let mut rows = Vec::with_capacity(subset.len() * 2);
    for split in all_splits(&subset) {
        for target in [PowerTarget::Total, PowerTarget::Dynamic] {
            let train = split.train_labeled(target);
            let test = split.test_labeled(target);
            let tc = cfg.train_config(target);
            let ensemble = train_ensemble(&train, &tc);
            let graphs: Vec<&PowerGraph> = test.iter().map(|(g, _)| *g).collect();
            let preds = ensemble.predict(&graphs);
            let actual: Vec<f64> = test.iter().map(|(_, p)| *p).collect();
            rows.push(KernelEval {
                kernel: split.test_kernel.clone(),
                target,
                n_train: train.len(),
                n_test: test.len(),
                mape_pct: pg_util::mape(&preds, &actual),
                rmse_w: pg_util::rmse(&preds, &actual),
            });
        }
    }
    LokoReport {
        config: cfg.model.zoo_name(),
        rows,
    }
}

/// [`run_loko`] over freshly built datasets (`cfg.data` profile).
pub fn run_loko_built(cfg: &EvalConfig) -> LokoReport {
    let datasets = build_all(&cfg.data);
    run_loko(&datasets, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_gnn::Pool;

    fn tiny_cfg() -> EvalConfig {
        let mut cfg = EvalConfig::quick(ModelConfig::hec(8));
        cfg.data.max_samples = 6;
        cfg.epochs = 2;
        cfg.kernels = Some(vec!["atax".into(), "mvt".into(), "bicg".into()]);
        cfg
    }

    #[test]
    fn loko_covers_subset_for_both_targets() {
        let report = run_loko_built(&tiny_cfg());
        assert_eq!(report.rows.len(), 6, "3 kernels x 2 targets");
        let kernels: Vec<&str> = report.rows.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(kernels, ["atax", "atax", "bicg", "bicg", "mvt", "mvt"]);
        for r in &report.rows {
            assert!(r.mape_pct.is_finite() && r.mape_pct >= 0.0, "{r:?}");
            assert!(r.rmse_w.is_finite() && r.rmse_w >= 0.0, "{r:?}");
            assert!(r.n_train > 0 && r.n_test > 0, "{r:?}");
        }
    }

    #[test]
    fn tsv_roundtrips_digest_and_marks_config() {
        let report = LokoReport {
            config: ModelConfig::hec(8).with_pool(Pool::Mean).zoo_name(),
            rows: vec![KernelEval {
                kernel: "atax".into(),
                target: PowerTarget::Total,
                n_train: 10,
                n_test: 5,
                mape_pct: 12.5,
                rmse_w: 0.031,
            }],
        };
        let tsv = report.to_tsv();
        assert!(tsv.contains("config=hec-p_mean-l3-h0"));
        assert!(tsv.contains("atax\ttotal\t10\t5\t12.500000\t0.031000"));
        assert!(tsv.contains(&format!("# digest {:016x}", report.digest())));
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn unknown_subset_kernel_panics() {
        let mut cfg = tiny_cfg();
        cfg.kernels = Some(vec!["nope".into()]);
        run_loko(&[], &cfg);
    }
}
