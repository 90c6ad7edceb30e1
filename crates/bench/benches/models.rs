//! Criterion benches over the learning stack: forward/backward cost of
//! HEC-GNN versus the baseline convolutions (the models compared in Tables
//! I and II), plus HL-Pow's GBDT inference.

use criterion::{criterion_group, criterion_main, Criterion};
use pg_datasets::{build_kernel_dataset, polybench, DatasetConfig, PowerTarget};
use pg_gnn::{Arch, GraphBatch, ModelConfig, PowerModel};
use pg_graphcon::PowerGraph;
use pg_hlpow::HlPowModel;
use pg_tensor::{Exec, Tape};
use pg_util::Rng64;

fn dataset_graphs() -> (Vec<PowerGraph>, Vec<f64>) {
    let cfg = DatasetConfig {
        size: 12,
        max_samples: 24,
        seed: 1,
        threads: 2,
    };
    let ds = build_kernel_dataset(&polybench::bicg(12), &cfg);
    let graphs: Vec<PowerGraph> = ds.samples.iter().map(|s| s.graph.clone()).collect();
    let targets: Vec<f64> = ds
        .samples
        .iter()
        .map(|s| s.label(PowerTarget::Dynamic))
        .collect();
    (graphs, targets)
}

fn bench_conv_forward(c: &mut Criterion) {
    let (graphs, targets) = dataset_graphs();
    let refs: Vec<&PowerGraph> = graphs.iter().collect();
    let batch = GraphBatch::new(&refs, &targets);
    let mut g = c.benchmark_group("conv_forward");
    g.sample_size(20);
    for (name, cfg) in [
        ("hec", ModelConfig::hec(32)),
        ("gcn", ModelConfig::baseline(Arch::Gcn, 32)),
        ("sage", ModelConfig::baseline(Arch::Sage, 32)),
        ("graphconv", ModelConfig::baseline(Arch::GraphConv, 32)),
        ("gine", ModelConfig::baseline(Arch::Gine, 32)),
    ] {
        let model = PowerModel::new(cfg, 1);
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut tape = Tape::new();
                let mut rng = Rng64::new(0);
                let out = model.forward(&mut tape, &batch, false, &mut rng);
                tape.value(out).data[0]
            })
        });
    }
    g.finish();
}

fn bench_train_step(c: &mut Criterion) {
    let (graphs, targets) = dataset_graphs();
    let refs: Vec<&PowerGraph> = graphs.iter().collect();
    let batch = GraphBatch::new(&refs, &targets);
    let mut model = PowerModel::new(ModelConfig::hec(32), 2);
    model.target_scale = 0.3;
    let mut g = c.benchmark_group("training");
    g.sample_size(10);
    g.bench_function("hec_loss_and_grads", |b| {
        b.iter(|| {
            let mut rng = Rng64::new(1);
            model.loss_and_grads(&batch, &mut rng)
        })
    });
    g.finish();
}

fn bench_hlpow(c: &mut Criterion) {
    let (graphs, targets) = dataset_graphs();
    let data: Vec<(&PowerGraph, f64)> = graphs.iter().zip(targets.iter().copied()).collect();
    let model = HlPowModel::train(&data, 1);
    let mut g = c.benchmark_group("hlpow");
    g.sample_size(20);
    g.bench_function("gbdt_inference", |b| b.iter(|| model.predict(&graphs[0])));
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_conv_forward, bench_train_step, bench_hlpow
);
criterion_main!(benches);
