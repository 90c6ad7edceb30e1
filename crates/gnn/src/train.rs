//! Training loop, k-fold × seed ensembling, and evaluation.
//!
//! The paper trains with mini-batches (size 128), Adam at 5e-4, MAPE loss,
//! and "an ensemble learning strategy, in which we perform 10-fold
//! cross-validation together with three different random seeds … and
//! average all the output of trained models" (§III-B). [`train_ensemble`]
//! implements exactly that scheme; fold count, seed list, epochs and model
//! width are configurable so the scaled-down evaluation environment (2 CPU
//! cores vs the paper's V100) can run the full pipeline end to end.

use crate::batch::GraphBatch;
use crate::model::{ModelConfig, PowerModel};
use pg_graphcon::PowerGraph;
use pg_tensor::{Adam, GradAccum, ParamStore, Tape};
use pg_util::rng::mix64;
use pg_util::{mape, Rng64};

/// Graphs per gradient shard. Shard boundaries are a pure function of the
/// batch — never of `cfg.threads` — so the per-shard computations (and the
/// dropout RNG streams seeded per shard) are identical at any thread
/// count; threads only change which worker executes which shard.
const SHARD_GRAPHS: usize = 8;

/// How regression labels are normalized before training.
///
/// The Total target collapses under the paper's mean-scaled MAPE scheme at
/// small epoch budgets: static power is a large constant offset, so the
/// useful signal is a small relative variation that an undertrained network
/// drives below zero (clamped to the 1 mW floor). Standardizing removes the
/// offset and trains on z-scores with MSE instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelNorm {
    /// Divide labels by their training mean and train with MAPE (the
    /// paper's scheme; best for strictly-relative targets like dynamic
    /// power).
    #[default]
    MeanScale,
    /// Standardize labels to z-scores `(t - mean) / std` and train with
    /// MSE (robust for offset-dominated targets like total power).
    Standardize,
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Model architecture/width.
    pub model: ModelConfig,
    /// Training epochs (paper: 1200 total / 2400 dynamic).
    pub epochs: usize,
    /// Mini-batch size (paper: 128).
    pub batch_size: usize,
    /// Adam learning rate (paper: 5e-4).
    pub lr: f32,
    /// Cross-validation folds for the ensemble (paper: 10).
    pub folds: usize,
    /// Random seeds for the ensemble (paper: 3).
    pub seeds: Vec<u64>,
    /// Data-parallel worker threads per batch.
    pub threads: usize,
    /// Epochs without validation improvement before early stop (0 = off).
    pub patience: usize,
    /// Label normalization scheme.
    pub label_norm: LabelNorm,
}

impl TrainConfig {
    /// A configuration sized for this evaluation environment; same pipeline
    /// as the paper at reduced width/epochs.
    pub fn quick(model: ModelConfig) -> Self {
        TrainConfig {
            model,
            epochs: 40,
            batch_size: 48,
            lr: 2e-3,
            folds: 3,
            seeds: vec![17],
            threads: 2,
            patience: 12,
            label_norm: LabelNorm::MeanScale,
        }
    }

    /// The paper's published hyperparameters (hidden 128, batch 128,
    /// lr 5e-4, 10 folds × 3 seeds). Long-running on CPU.
    pub fn paper(mut model: ModelConfig, dynamic_power: bool) -> Self {
        model.hidden = 128;
        TrainConfig {
            model,
            epochs: if dynamic_power { 2400 } else { 1200 },
            batch_size: 128,
            lr: 5e-4,
            folds: 10,
            seeds: vec![17, 43, 91],
            threads: 2,
            patience: 0,
            label_norm: LabelNorm::MeanScale,
        }
    }
}

/// A labeled sample reference.
pub type Labeled<'a> = (&'a PowerGraph, f64);

/// An ensemble of trained models whose predictions are averaged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ensemble {
    /// Member models.
    pub models: Vec<PowerModel>,
}

impl Ensemble {
    /// Mean prediction across members (the batch is assembled once).
    pub fn predict(&self, graphs: &[&PowerGraph]) -> Vec<f64> {
        let targets = vec![0.0; graphs.len()];
        self.predict_batch(&GraphBatch::new(graphs, &targets))
    }

    /// Mean member prediction on an assembled batch: every member runs
    /// [`PowerModel::predict_batch`], and the outputs are summed in member
    /// order and divided by the member count — the sequential reference
    /// that [`crate::predict_heads`] reproduces bit for bit.
    pub fn predict_batch(&self, batch: &GraphBatch) -> Vec<f64> {
        assert!(!self.models.is_empty(), "empty ensemble");
        let mut acc = vec![0.0f64; batch.num_graphs];
        for m in &self.models {
            for (a, p) in acc.iter_mut().zip(m.predict_batch(batch)) {
                *a += p;
            }
        }
        for a in &mut acc {
            *a /= self.models.len() as f64;
        }
        acc
    }

    /// MAPE (%) against labeled data.
    pub fn evaluate(&self, data: &[Labeled<'_>]) -> f64 {
        let graphs: Vec<&PowerGraph> = data.iter().map(|(g, _)| *g).collect();
        let targets: Vec<f64> = data.iter().map(|(_, t)| *t).collect();
        mape(&self.predict(&graphs), &targets)
    }
}

/// Trains one model on `train`, early-stopping/model-selecting on `val`.
///
/// Training is **bit-identical for any `cfg.threads`**: mini-batches are
/// split into fixed `SHARD_GRAPHS`-graph shards independent of the
/// thread count, every shard's RNG seed is derived statelessly from
/// `(seed, epoch, batch, shard)` via [`mix64`], each shard accumulates
/// into its own [`GradAccum`] slot, and the slots are merged in ascending
/// shard order. The merged gradient is the exact sample-weighted batch
/// mean, so an uneven tail shard contributes proportionally to its size.
pub fn train_single(
    train: &[Labeled<'_>],
    val: &[Labeled<'_>],
    cfg: &TrainConfig,
    seed: u64,
) -> PowerModel {
    assert!(!train.is_empty(), "empty training set");
    let mut model = PowerModel::new(cfg.model.clone(), seed);
    let labels: Vec<f64> = train.iter().map(|(_, t)| *t).collect();
    let mean_target = pg_util::stats::mean(&labels);
    match cfg.label_norm {
        LabelNorm::MeanScale => {
            model.target_scale = mean_target.max(1e-6) as f32;
            model.target_shift = 0.0;
        }
        LabelNorm::Standardize => {
            model.target_scale = pg_util::stats::stddev(&labels).max(1e-6) as f32;
            model.target_shift = mean_target as f32;
        }
    }

    let mut opt = Adam::new(cfg.lr);
    let mut rng = Rng64::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xABCD);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut best: Option<(f64, ParamStore)> = None;
    let mut stale = 0usize;

    // Long-lived per-shard-slot arenas, reused across batches and epochs:
    // one tape and one accumulator per shard slot, plus the batch-level
    // accumulator the slots are merged into.
    let max_shards = cfg.batch_size.max(1).div_ceil(SHARD_GRAPHS);
    let mut shard_accums: Vec<GradAccum> = (0..max_shards)
        .map(|_| GradAccum::new(model.store.len()))
        .collect();
    let mut shard_tapes: Vec<Tape> = (0..max_shards).map(|_| Tape::new()).collect();
    let mut accum = GradAccum::new(model.store.len());
    // The validation set never changes: assemble its batch once.
    let val_graphs: Vec<&PowerGraph> = val.iter().map(|(g, _)| *g).collect();
    let val_targets: Vec<f64> = val.iter().map(|(_, t)| *t).collect();
    let val_batch = (!val.is_empty()).then(|| GraphBatch::new(&val_graphs, &val_targets));

    for epoch in 0..cfg.epochs {
        // step learning-rate decay: x0.5 at 60 % and 85 % of the budget
        let frac = epoch as f32 / cfg.epochs.max(1) as f32;
        opt.lr = cfg.lr
            * if frac >= 0.85 {
                0.25
            } else if frac >= 0.6 {
                0.5
            } else {
                1.0
            };
        rng.shuffle(&mut order);
        for (batch_idx, chunk) in order.chunks(cfg.batch_size).enumerate() {
            // Shard boundaries depend only on the batch content; worker
            // seeds only on (seed, epoch, batch, shard). Neither consumes
            // the main RNG stream, so `cfg.threads` cannot perturb it.
            let shards: Vec<&[usize]> = chunk.chunks(SHARD_GRAPHS).collect();
            let nshards = shards.len();
            let seeds: Vec<u64> = (0..nshards)
                .map(|s| mix64(&[seed, epoch as u64, batch_idx as u64, s as u64]))
                .collect();
            let threads = cfg.threads.max(1).min(nshards);
            let per_worker = nshards.div_ceil(threads);

            let run_shard = |acc: &mut GradAccum,
                             tape: &mut Tape,
                             shard: &[usize],
                             ws: u64,
                             model_ref: &PowerModel| {
                let (g, t) = shard_batch(train, shard);
                let batch = GraphBatch::new(&g, &t);
                let mut wrng = Rng64::new(ws);
                let (_, grads) = model_ref.loss_and_grads_in(&batch, &mut wrng, tape);
                acc.add(grads, shard.len());
            };

            if threads == 1 {
                for (s, shard) in shards.iter().enumerate() {
                    run_shard(
                        &mut shard_accums[s],
                        &mut shard_tapes[s],
                        shard,
                        seeds[s],
                        &model,
                    );
                }
            } else {
                std::thread::scope(|scope| {
                    let model_ref = &model;
                    let run = &run_shard;
                    let accs = shard_accums[..nshards].chunks_mut(per_worker);
                    let tapes = shard_tapes[..nshards].chunks_mut(per_worker);
                    for (((accs, tapes), shs), sds) in accs
                        .zip(tapes)
                        .zip(shards.chunks(per_worker))
                        .zip(seeds.chunks(per_worker))
                    {
                        scope.spawn(move || {
                            for (((acc, tape), shard), &ws) in
                                accs.iter_mut().zip(tapes.iter_mut()).zip(shs).zip(sds)
                            {
                                run(acc, tape, shard, ws, model_ref);
                            }
                        });
                    }
                });
            }

            // Fixed-order reduction: ascending shard index, regardless of
            // which worker finished first — parallel merge is bit-identical
            // to sequential.
            accum.reset();
            for sa in &mut shard_accums[..nshards] {
                accum.merge_from(sa);
                sa.reset();
            }
            opt.step(&mut model.store, accum.mean_in_place());
        }

        if let Some(vb) = &val_batch {
            let val_err = mape(&model.predict_batch(vb), &val_targets);
            let improved = best.as_ref().map(|(b, _)| val_err < *b).unwrap_or(true);
            if improved {
                best = Some((val_err, model.store.clone()));
                stale = 0;
            } else {
                stale += 1;
                if cfg.patience > 0 && stale >= cfg.patience {
                    break;
                }
            }
        }
    }
    if let Some((_, store)) = best {
        model.store = store;
    }
    model
}

fn shard_batch<'a>(data: &[Labeled<'a>], idx: &[usize]) -> (Vec<&'a PowerGraph>, Vec<f64>) {
    let graphs: Vec<&PowerGraph> = idx.iter().map(|&i| data[i].0).collect();
    let targets: Vec<f64> = idx.iter().map(|&i| data[i].1).collect();
    (graphs, targets)
}

/// MAPE (%) of a single model on labeled data.
pub fn evaluate_model(model: &PowerModel, data: &[Labeled<'_>]) -> f64 {
    let graphs: Vec<&PowerGraph> = data.iter().map(|(g, _)| *g).collect();
    let targets: Vec<f64> = data.iter().map(|(_, t)| *t).collect();
    mape(&model.predict(&graphs), &targets)
}

/// Progress report handed to a checkpoint hook after each ensemble member
/// finishes training (see [`train_ensemble_with`]).
#[derive(Debug)]
pub struct MemberTrained<'a> {
    /// Member position in the final ensemble (0-based).
    pub index: usize,
    /// Total members the run will produce (`folds × seeds`).
    pub total: usize,
    /// Ensemble seed this member belongs to.
    pub seed: u64,
    /// Cross-validation fold this member was trained on.
    pub fold: usize,
    /// Validation MAPE (%) of the trained member on its held-out fold.
    pub val_mape: f64,
    /// The trained member (already model-selected on its fold).
    pub model: &'a PowerModel,
}

/// Trains the paper's ensemble: `folds`-fold cross-validation × `seeds`,
/// averaging every member's predictions.
pub fn train_ensemble(data: &[Labeled<'_>], cfg: &TrainConfig) -> Ensemble {
    train_ensemble_with(data, cfg, |_| {})
}

/// [`train_ensemble`] with a checkpoint hook invoked once per trained
/// member, in training order. The hook sees the member *before* it is moved
/// into the ensemble, so callers can persist incremental checkpoints (e.g.
/// through `pg_store`) or report progress without re-training on a crash.
pub fn train_ensemble_with(
    data: &[Labeled<'_>],
    cfg: &TrainConfig,
    mut on_member: impl FnMut(&MemberTrained<'_>),
) -> Ensemble {
    assert!(data.len() >= cfg.folds.max(2), "too little data for folds");
    let total = cfg.folds * cfg.seeds.len();
    let mut models = Vec::new();
    for (si, &seed) in cfg.seeds.iter().enumerate() {
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = Rng64::new(seed ^ 0x5eed);
        rng.shuffle(&mut order);
        for fold in 0..cfg.folds {
            let val_idx: Vec<usize> = order
                .iter()
                .copied()
                .skip(fold)
                .step_by(cfg.folds)
                .collect();
            let val_set: std::collections::HashSet<usize> = val_idx.iter().copied().collect();
            let train_data: Vec<Labeled<'_>> = order
                .iter()
                .filter(|i| !val_set.contains(i))
                .map(|&i| data[i])
                .collect();
            let val_data: Vec<Labeled<'_>> = val_idx.iter().map(|&i| data[i]).collect();
            let model_seed = seed
                .wrapping_mul(1000)
                .wrapping_add(fold as u64)
                .wrapping_add((si as u64) << 32);
            let model = train_single(&train_data, &val_data, cfg, model_seed);
            on_member(&MemberTrained {
                index: models.len(),
                total,
                seed,
                fold,
                val_mape: evaluate_model(&model, &val_data),
                model: &model,
            });
            models.push(model);
        }
    }
    Ensemble { models }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Arch;
    use pg_graphcon::Relation;

    /// Synthetic sample whose power is a linear function of its total edge
    /// switching activity — exactly the signal HEC-GNN aggregates.
    fn synth(seed: u64) -> (PowerGraph, f64) {
        let mut rng = Rng64::new(seed);
        let nodes = 6 + rng.below(6);
        let f = PowerGraph::NODE_FEATS;
        let mut node_feats = vec![0.0f32; nodes * f];
        for n in 0..nodes {
            node_feats[n * f + rng.below(5)] = 1.0;
        }
        let mut edges = Vec::new();
        let mut edge_feats = Vec::new();
        let mut edge_rel = Vec::new();
        let mut total_sa = 0.0f64;
        for d in 1..nodes as u32 {
            let s = rng.below(d as usize) as u32;
            let sa = rng.f32();
            edges.push((s, d));
            edge_feats.push([sa, sa * 0.8, sa * 0.3, sa * 0.2]);
            edge_rel.push(match rng.below(4) {
                0 => Relation::AA,
                1 => Relation::AN,
                2 => Relation::NA,
                _ => Relation::NN,
            });
            total_sa += sa as f64;
        }
        let meta: Vec<f32> = (0..10).map(|_| rng.f32()).collect();
        let power = 0.1 + 0.05 * total_sa + 0.02 * meta[0] as f64;
        (
            PowerGraph {
                kernel: "synth".into(),
                design_id: format!("s{seed}"),
                num_nodes: nodes,
                node_feats,
                edges,
                edge_feats,
                edge_rel,
                meta,
            },
            power,
        )
    }

    #[test]
    fn single_model_learns_activity_signal() {
        let samples: Vec<(PowerGraph, f64)> = (0..60).map(synth).collect();
        let data: Vec<Labeled<'_>> = samples.iter().map(|(g, t)| (g, *t)).collect();
        let (train, val) = data.split_at(48);
        let mut cfg = TrainConfig::quick(ModelConfig::hec(16));
        cfg.epochs = 60;
        cfg.threads = 1;
        let model = train_single(train, val, &cfg, 7);
        let err = evaluate_model(&model, val);
        assert!(err < 20.0, "val MAPE {err}");
    }

    #[test]
    fn ensemble_beats_or_matches_worst_member() {
        let samples: Vec<(PowerGraph, f64)> = (0..40).map(|i| synth(i + 100)).collect();
        let data: Vec<Labeled<'_>> = samples.iter().map(|(g, t)| (g, *t)).collect();
        let mut cfg = TrainConfig::quick(ModelConfig::hec(16));
        cfg.epochs = 25;
        cfg.folds = 2;
        cfg.threads = 1;
        let ens = train_ensemble(&data[..32], &cfg);
        assert_eq!(ens.models.len(), 2);
        let test = &data[32..];
        let ens_err = ens.evaluate(test);
        let worst = ens
            .models
            .iter()
            .map(|m| evaluate_model(m, test))
            .fold(f64::MIN, f64::max);
        assert!(
            ens_err <= worst + 1.0,
            "ensemble {ens_err} vs worst {worst}"
        );
    }

    #[test]
    fn threaded_training_runs() {
        let samples: Vec<(PowerGraph, f64)> = (0..24).map(|i| synth(i + 200)).collect();
        let data: Vec<Labeled<'_>> = samples.iter().map(|(g, t)| (g, *t)).collect();
        let mut cfg = TrainConfig::quick(ModelConfig::baseline(Arch::Gcn, 8));
        cfg.epochs = 3;
        cfg.threads = 2;
        let model = train_single(&data[..16], &data[16..], &cfg, 3);
        assert!(model.store.get(0).is_finite());
    }

    #[test]
    fn deterministic_given_seed_single_thread() {
        let samples: Vec<(PowerGraph, f64)> = (0..16).map(|i| synth(i + 300)).collect();
        let data: Vec<Labeled<'_>> = samples.iter().map(|(g, t)| (g, *t)).collect();
        let mut cfg = TrainConfig::quick(ModelConfig::hec(8));
        cfg.epochs = 3;
        cfg.threads = 1;
        let m1 = train_single(&data[..12], &data[12..], &cfg, 11);
        let m2 = train_single(&data[..12], &data[12..], &cfg, 11);
        let g: Vec<&PowerGraph> = data[12..].iter().map(|(g, _)| *g).collect();
        assert_eq!(m1.predict(&g), m2.predict(&g));
    }

    #[test]
    fn paper_config_matches_published_hyperparameters() {
        let cfg = TrainConfig::paper(ModelConfig::hec(32), true);
        assert_eq!(cfg.model.hidden, 128);
        assert_eq!(cfg.epochs, 2400);
        assert_eq!(cfg.batch_size, 128);
        assert_eq!(cfg.folds, 10);
        assert_eq!(cfg.seeds.len(), 3);
        assert!((cfg.lr - 5e-4).abs() < 1e-9);
        let total = TrainConfig::paper(ModelConfig::hec(32), false);
        assert_eq!(total.epochs, 1200);
    }
}
