//! Design-choice ablation driver, two complementary sweeps:
//!
//! * **Flow ablation** (default) — how much does each of §III-A's graph
//!   construction passes — buffer insertion, datapath merging, graph
//!   trimming — contribute to dynamic-power accuracy? For each pass
//!   configuration, datasets are rebuilt with that flow and a single
//!   HEC-GNN is trained/evaluated leave-one-kernel-out on a kernel
//!   subset. The full flow is expected to win; `raw DFG` (everything
//!   off) to lose.
//! * **Architecture zoo** (`--zoo`) — holds the graph flow fixed and
//!   sweeps the model zoo ([`pg_gnn::zoo_variants`]: HEC vs baselines,
//!   pooling modes, depths, attention) through the LOKO harness, ranking
//!   configurations by held-out dynamic-power MAPE.
//!
//! ```text
//! cargo run -p powergear-bench --release --bin graph_ablation [-- --kernels atax,mvt,bicg]
//! cargo run -p powergear-bench --release --bin graph_ablation -- --zoo
//! ```

use pg_activity::{execute, Stimuli};
use pg_datasets::{build_all, polybench, sample_space, DatasetConfig, PowerTarget};
use pg_gnn::{evaluate_model, train_single, zoo_variants, ModelConfig, TrainConfig};
use pg_graphcon::{GraphConfig, GraphFlow, PowerGraph};
use pg_hls::{Directives, HlsFlow};
use pg_powersim::BoardOracle;
use pg_util::{mean, Rng64, Table};
use powergear::eval::{run_loko, EvalConfig};
use powergear_bench::drivers::{kernels_flag, results_dir};

struct FlowVariant {
    name: &'static str,
    config: GraphConfig,
}

fn variants() -> Vec<FlowVariant> {
    vec![
        FlowVariant {
            name: "raw DFG",
            config: GraphConfig {
                buffer_insertion: false,
                datapath_merging: false,
                graph_trimming: false,
            },
        },
        FlowVariant {
            name: "w/o buffers",
            config: GraphConfig {
                buffer_insertion: false,
                datapath_merging: true,
                graph_trimming: true,
            },
        },
        FlowVariant {
            name: "w/o merging",
            config: GraphConfig {
                buffer_insertion: true,
                datapath_merging: false,
                graph_trimming: true,
            },
        },
        FlowVariant {
            name: "w/o trimming",
            config: GraphConfig {
                buffer_insertion: true,
                datapath_merging: true,
                graph_trimming: false,
            },
        },
        FlowVariant {
            name: "full flow",
            config: GraphConfig::default(),
        },
    ]
}

/// Builds labeled graphs for one kernel under a given flow configuration.
fn build_with_flow(
    kernel_name: &str,
    ds_cfg: &DatasetConfig,
    flow_cfg: GraphConfig,
) -> Vec<(PowerGraph, f64)> {
    let kernel = polybench::by_name(kernel_name, ds_cfg.size).expect("kernel");
    let hls = HlsFlow::new();
    let gf = GraphFlow::with_config(flow_cfg);
    let oracle = BoardOracle::default();
    let stim = Stimuli::for_kernel(&kernel, ds_cfg.seed);
    let baseline = hls
        .run(&kernel, &Directives::new())
        .expect("baseline")
        .report;
    sample_space(&kernel, ds_cfg.max_samples, ds_cfg.seed)
        .iter()
        .map(|d| {
            let design = hls.run(&kernel, d).expect("synthesis");
            let trace = execute(&design, &stim);
            let mut g = gf.build(&design, &trace);
            g.meta = design
                .report
                .metadata_features(&baseline)
                .into_iter()
                .map(|v| v as f32)
                .collect();
            let p = oracle.measure(&design, &trace);
            (g, p.dynamic)
        })
        .collect()
}

/// Zoo comparison: sweep [`zoo_variants`] through the LOKO harness on one
/// shared dataset build and rank configurations by held-out dynamic MAPE.
fn run_zoo(kernels: &[String]) {
    let base = EvalConfig::quick(ModelConfig::hec(16));
    let datasets = build_all(&base.data);
    let mut ranked: Vec<(String, f64, f64, u64)> = Vec::new();
    for v in zoo_variants(16) {
        eprintln!("[graph-ablation] zoo config: {}", v.config.zoo_name());
        let mut cfg = EvalConfig::quick(v.config.clone());
        cfg.kernels = Some(kernels.to_vec());
        let report = run_loko(&datasets, &cfg);
        ranked.push((
            v.config.zoo_name(),
            report.mean_mape(PowerTarget::Dynamic),
            report.mean_mape(PowerTarget::Total),
            report.digest(),
        ));
    }
    // Rank on held-out dynamic-power MAPE; ties broken by name for a
    // deterministic table.
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    let mut table = Table::new(&["rank", "config", "dyn MAPE %", "total MAPE %", "digest"]);
    for (i, (name, dyn_mape, total_mape, digest)) in ranked.iter().enumerate() {
        table.row(vec![
            format!("{}", i + 1),
            name.clone(),
            Table::fmt_f(*dyn_mape, 2),
            Table::fmt_f(*total_mape, 2),
            format!("{digest:016x}"),
        ]);
    }
    println!("\nArchitecture-zoo comparison (leave-one-kernel-out, ranked by dynamic MAPE)\n");
    println!("{table}");
    let out = results_dir().join("zoo_ablation.txt");
    std::fs::write(&out, format!("{table}")).ok();
    eprintln!("[graph-ablation] written to {}", out.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kernels = match kernels_flag(&args) {
        Ok(k) => k.unwrap_or_else(|| vec!["atax".into(), "mvt".into(), "bicg".into()]),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1)
        }
    };
    if args.iter().any(|a| a == "--zoo") {
        run_zoo(&kernels);
        return;
    }
    let ds_cfg = DatasetConfig {
        size: 12,
        max_samples: 28,
        seed: 1,
        threads: 2,
    };

    let mut table = Table::new(&["Flow variant", "avg nodes", "dyn MAPE %"]);
    for v in variants() {
        eprintln!("[graph-ablation] variant: {}", v.name);
        // build all kernels' data under this flow
        let per_kernel: Vec<Vec<(PowerGraph, f64)>> = kernels
            .iter()
            .map(|k| build_with_flow(k, &ds_cfg, v.config))
            .collect();
        let mut errs = Vec::new();
        let mut nodes = Vec::new();
        for (ki, _) in kernels.iter().enumerate() {
            // leave kernel ki out
            let mut train: Vec<(&PowerGraph, f64)> = Vec::new();
            for (kj, data) in per_kernel.iter().enumerate() {
                if kj != ki {
                    train.extend(data.iter().map(|(g, t)| (g, *t)));
                }
            }
            let test: Vec<(&PowerGraph, f64)> =
                per_kernel[ki].iter().map(|(g, t)| (g, *t)).collect();
            nodes.extend(test.iter().map(|(g, _)| g.num_nodes as f64));
            let mut order: Vec<usize> = (0..train.len()).collect();
            Rng64::new(9).shuffle(&mut order);
            let nv = (train.len() / 5).max(1);
            let va: Vec<(&PowerGraph, f64)> = order[..nv].iter().map(|&i| train[i]).collect();
            let tr: Vec<(&PowerGraph, f64)> = order[nv..].iter().map(|&i| train[i]).collect();
            let mut tc = TrainConfig::quick(ModelConfig::hec(24));
            tc.epochs = 40;
            tc.lr = 4e-3;
            tc.patience = 12;
            let model = train_single(&tr, &va, &tc, 31);
            errs.push(evaluate_model(&model, &test));
        }
        table.row(vec![
            v.name.to_string(),
            format!("{:.0}", mean(&nodes)),
            Table::fmt_f(mean(&errs), 2),
        ]);
    }
    println!("\nGraph-flow design-choice ablation (dynamic power, leave-one-out)\n");
    println!("{table}");
    let out = results_dir().join("graph_ablation.txt");
    std::fs::write(&out, format!("{table}")).ok();
    eprintln!("[graph-ablation] written to {}", out.display());
}
