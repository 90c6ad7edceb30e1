//! `powergear` — command-line interface to the estimation pipeline.
//!
//! ```text
//! powergear kernels                            # list built-in kernels
//! powergear report  <kernel> [directives...]   # HLS report for one design
//! powergear graph   <kernel> [directives...]   # graph stats + feature dump
//! powergear measure <kernel> [directives...]   # simulated board measurement
//! powergear space   <kernel> [N]               # enumerate the design space
//! powergear dataset <kernel>                   # build a labeled dataset at scale
//!
//! powergear train   <kernel> --save <m.pgm>    # train once, persist the model
//! powergear predict <kernel> [directives...] --model <m.pgm>
//! powergear serve   --listen <addr> --registry <dir>   # persistent PGRPC daemon
//! powergear stats   --addr <host:port> [--watch <secs>]   # live daemon metrics
//! powergear verify  <m.pgm>                    # bit-exactness probe check
//! powergear models  [--registry <dir>]         # list the model registry
//! powergear models  --verify-all               # replay every artifact's probe
//! powergear dse     <kernel> --model <m.pgm>   # explore with a loaded model
//! powergear eval    --loko [flags]             # leave-one-kernel-out table
//!
//! directive syntax:  pipeline=<loop>  unroll=<loop>:<k>  partition=<array>:<k>
//! common flags:      --size <n>  (problem size, default 12)
//! daemon flags:      --listen <addr>  --registry <dir>  --model <m.pgm>
//!                    --threads <t>  (engine worker threads, default: cores)
//!                    --max-batch <graphs> (default 32)  --poll-ms <ms> (default 200)
//!                    --metrics-listen <addr> (Prometheus text endpoint)
//!                    --trace-out <file.jsonl> (per-request span traces)
//! train flags:       --samples <N> --epochs <e> --registry <dir> --name <name>
//! dataset flags:     --samples <N> (default 500) --threads <t> --seed <s>
//!                    --out <snapshot.pgstore>
//! dse flags:         --samples <N> (default 32)  --budget <frac>  (sampling budget, default 0.2)
//! eval flags:        --loko (required)  --arch <hec|gcn|sage|graphconv|gine>
//!                    --pool <add|mean|max>  --layers <n>  --heads <n>
//!                    --hidden <n>  --kernels <a,b,c>  --samples <N>
//!                    --size <n>  --epochs <e>  --folds <f>  --seed <s>
//!                    --threads <t>  --out <table.tsv>
//! ```
//!
//! Examples:
//!
//! ```text
//! powergear report gemm pipeline=k unroll=k:4 partition=A:4 --size 12
//! powergear dataset gemm --samples 500 --threads 4 --out gemm500.pgstore
//! powergear train bicg --samples 24 --size 8 --save bicg.pgm
//! powergear dse bicg --size 8 --model bicg.pgm
//! powergear serve --listen 127.0.0.1:7070 --model bicg.pgm
//! ```

use pg_activity::{execute, Stimuli};
use pg_datasets::{build_kernel_dataset_cached, polybench, DatasetConfig, HlsCache, PowerTarget};
use pg_gnn::{predict_heads, Arch, ModelConfig, Pool, ServeConfig};
use pg_graphcon::{GraphFlow, PowerGraph};
use pg_hls::{Directives, HlsFlow};
use pg_powersim::BoardOracle;
use pg_store::{ArtifactMeta, ModelArtifact, ModelRegistry};
use pg_util::flag_value;
use powergear::{PowerGear, PowerGearConfig};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: powergear <kernels|report|graph|measure|space|serve|stats|train|predict|verify|models|dse|eval> ..."
        );
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "kernels" => cmd_kernels(),
        "space" => cmd_space(rest),
        "serve" => cmd_serve(rest),
        "stats" => cmd_stats(rest),
        "report" | "graph" | "measure" => cmd_design(cmd, rest),
        "dataset" => cmd_dataset(rest),
        "train" => cmd_train(rest),
        "predict" => cmd_predict(rest),
        "verify" => cmd_verify(rest),
        "models" => cmd_models(rest),
        "dse" => cmd_dse(rest),
        "eval" => cmd_eval(rest),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Argument handling

/// Every value-taking flag the CLI understands.
const KNOWN_FLAGS: [&str; 25] = [
    "--arch",
    "--pool",
    "--layers",
    "--heads",
    "--hidden",
    "--folds",
    "--kernels",
    "--size",
    "--threads",
    "--samples",
    "--epochs",
    "--save",
    "--model",
    "--registry",
    "--name",
    "--budget",
    "--seed",
    "--out",
    "--listen",
    "--max-batch",
    "--poll-ms",
    "--metrics-listen",
    "--trace-out",
    "--addr",
    "--watch",
];

/// Boolean flags (present or absent, no value).
const KNOWN_BOOL_FLAGS: [&str; 2] = ["--verify-all", "--loko"];

/// Positional (non-flag) arguments, rejecting unknown `--flags` so typos
/// fail instead of being treated as kernel names or directives.
fn positionals(args: &[String]) -> Result<Vec<&String>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            if KNOWN_BOOL_FLAGS.contains(&a.as_str()) {
                i += 1;
            } else if KNOWN_FLAGS.contains(&a.as_str()) {
                i += 2; // skip the flag's value
            } else {
                return Err(format!("unknown flag `{a}`"));
            }
        } else {
            out.push(a);
            i += 1;
        }
    }
    Ok(out)
}

fn load_kernel(args: &[String]) -> Result<pg_ir::Kernel, String> {
    let pos = positionals(args)?;
    let name = pos
        .first()
        .ok_or_else(|| "missing kernel name".to_string())?;
    let size = flag_value(args, "--size")?.unwrap_or(12);
    polybench::by_name(name, size).ok_or_else(|| {
        format!(
            "unknown kernel `{name}`; available: {}",
            polybench::KERNEL_NAMES.join(", ")
        )
    })
}

/// [`load_kernel`] for commands whose only positional is the kernel: their
/// design-point count is `--samples`, so a second positional is an error
/// instead of being silently ignored.
fn load_sole_kernel(args: &[String]) -> Result<pg_ir::Kernel, String> {
    if let Some(extra) = positionals(args)?.get(1) {
        return Err(format!(
            "unexpected argument `{extra}`; pass a design-point count as --samples <n>"
        ));
    }
    load_kernel(args)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn parse_directives(args: &[String]) -> Result<Directives, String> {
    let mut d = Directives::new();
    for a in positionals(args)?.into_iter().skip(1) {
        if let Some(loop_) = a.strip_prefix("pipeline=") {
            d.pipeline(loop_);
        } else if let Some(rest) = a.strip_prefix("unroll=") {
            let (l, k) = rest
                .split_once(':')
                .ok_or_else(|| format!("`{a}` wants unroll=<loop>:<k>"))?;
            d.unroll(l, k.parse().map_err(|_| format!("bad factor in `{a}`"))?);
        } else if let Some(rest) = a.strip_prefix("partition=") {
            let (arr, k) = rest
                .split_once(':')
                .ok_or_else(|| format!("`{a}` wants partition=<array>:<k>"))?;
            d.partition(arr, k.parse().map_err(|_| format!("bad factor in `{a}`"))?);
        } else if a.parse::<usize>().is_err() {
            return Err(format!("unrecognized argument `{a}`"));
        }
    }
    Ok(d)
}

// ---------------------------------------------------------------------------
// Pipeline inspection commands (report/graph/measure/space/kernels)

fn cmd_kernels() -> Result<(), String> {
    println!("built-in Polybench kernels (use with --size <n>):");
    for name in polybench::KERNEL_NAMES {
        let k = polybench::by_name(name, 8).expect("built-in");
        println!(
            "  {:8} loops: {:?}  arrays: {:?}",
            name,
            k.innermost_loops(),
            k.arrays.iter().map(|a| a.name.clone()).collect::<Vec<_>>()
        );
    }
    Ok(())
}

fn cmd_space(args: &[String]) -> Result<(), String> {
    let kernel = load_kernel(args)?;
    let n = second_positional(args)?.unwrap_or(20);
    let configs = pg_datasets::sample_space(&kernel, n, 1);
    println!(
        "{} of the design space of `{}`:",
        configs.len(),
        kernel.name
    );
    for d in configs {
        println!("  {d}");
    }
    Ok(())
}

fn cmd_design(cmd: &str, args: &[String]) -> Result<(), String> {
    let kernel = load_kernel(args)?;
    let directives = parse_directives(args)?;
    let design = HlsFlow::new()
        .run(&kernel, &directives)
        .map_err(|e| format!("HLS failed: {e}"))?;
    match cmd {
        "report" => {
            let r = &design.report;
            println!("design   : {}", design.design_id());
            println!("latency  : {} cycles", r.latency_cycles);
            println!("clock    : {:.2} ns (target 10.00)", r.clock_ns);
            println!("LUT      : {}", r.lut);
            println!("FF       : {}", r.ff);
            println!("DSP      : {}", r.dsp);
            println!("BRAM     : {}", r.bram);
            println!("FSM      : {} states", design.fsmd.num_states());
        }
        "graph" => {
            let trace = execute(&design, &Stimuli::for_kernel(&kernel, 1));
            let g = GraphFlow::new().build(&design, &trace);
            let rel = g.relation_counts();
            println!("graph    : {} nodes, {} edges", g.num_nodes, g.num_edges());
            println!(
                "relations: A->A {}  A->N {}  N->A {}  N->N {}",
                rel[0], rel[1], rel[2], rel[3]
            );
            let mean_sa: f32 =
                g.edge_feats.iter().map(|e| e[0]).sum::<f32>() / g.num_edges().max(1) as f32;
            println!("mean edge SA(src): {mean_sa:.4}");
        }
        _ => {
            let trace = execute(&design, &Stimuli::for_kernel(&kernel, 1));
            let p = BoardOracle::default().measure(&design, &trace);
            println!("simulated on-board measurement for {}:", design.design_id());
            println!("  total   : {:.4} W", p.total);
            println!("  dynamic : {:.4} W", p.dynamic);
            println!("  static  : {:.4} W", p.static_);
            println!(
                "    nets (Eq.1) {:.4} W | FU internal {:.4} W | clock {:.4} W",
                p.nets, p.internal, p.clock
            );
        }
    }
    Ok(())
}

/// Second positional argument parsed as a count (e.g. `space gemm 20`).
fn second_positional(args: &[String]) -> Result<Option<usize>, String> {
    match positionals(args)?.get(1) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid count `{raw}`")),
    }
}

// ---------------------------------------------------------------------------
// train / predict / verify / models / dse / serve

/// Builds the labeled dataset the model-facing commands share.
fn build_dataset(
    kernel: &pg_ir::Kernel,
    args: &[String],
    cache: &HlsCache,
) -> Result<pg_datasets::KernelDataset, String> {
    let cfg = DatasetConfig {
        size: flag_value(args, "--size")?.unwrap_or(12),
        max_samples: flag_value(args, "--samples")?.unwrap_or(32).max(4),
        seed: 1,
        threads: flag_value(args, "--threads")?.unwrap_or_else(default_threads),
    };
    eprintln!(
        "[data] building {} design points of `{}` (size {})...",
        cfg.max_samples, kernel.name, cfg.size
    );
    let t = Instant::now();
    let ds = build_kernel_dataset_cached(kernel, &cfg, cache);
    eprintln!(
        "[data]   {} samples in {:.2}s (HLS cache: {} designs, {} hits)",
        ds.samples.len(),
        t.elapsed().as_secs_f64(),
        cache.len(),
        cache.hits()
    );
    Ok(ds)
}

/// Builds one kernel's labeled dataset at paper scale (default 500 design
/// points), reporting cold-build timing and throughput, and optionally
/// persisting a `pg_store` snapshot that `load_dataset` can replay without
/// any synthesis.
fn cmd_dataset(args: &[String]) -> Result<(), String> {
    let kernel = load_sole_kernel(args)?;
    let defaults = DatasetConfig::default();
    let cfg = DatasetConfig {
        size: flag_value(args, "--size")?.unwrap_or(12),
        max_samples: flag_value(args, "--samples")?
            .unwrap_or(defaults.max_samples)
            .max(4),
        seed: flag_value(args, "--seed")?.unwrap_or(defaults.seed),
        threads: flag_value(args, "--threads")?.unwrap_or_else(default_threads),
    };
    let out: Option<String> = flag_value(args, "--out")?;

    eprintln!(
        "[dataset] building {} design points of `{}` (size {}, {} thread(s))...",
        cfg.max_samples, kernel.name, cfg.size, cfg.threads
    );
    let cache = HlsCache::new();
    let t = Instant::now();
    let ds = build_kernel_dataset_cached(&kernel, &cfg, &cache);
    let secs = t.elapsed().as_secs_f64();
    println!(
        "dataset `{}`: {} samples, {:.1} avg nodes, baseline latency {} cycles",
        ds.kernel,
        ds.samples.len(),
        ds.avg_nodes(),
        ds.baseline.latency_cycles
    );
    println!(
        "cold build: {:.2}s ({:.1} designs/s, {} synthesized, {} cache hits)",
        secs,
        cache.misses() as f64 / secs.max(1e-9),
        cache.misses(),
        cache.hits()
    );
    if let Some(path) = out {
        pg_datasets::save_dataset(&ds, &path).map_err(|e| e.to_string())?;
        println!("snapshot saved to {path} (replay with load_dataset, zero synthesis)");
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let kernel = load_sole_kernel(args)?;
    let save: Option<String> = flag_value(args, "--save")?;
    let registry_dir: Option<String> = flag_value(args, "--registry")?;
    let reg_name: Option<String> = flag_value(args, "--name")?;
    if save.is_none() && registry_dir.is_none() {
        return Err("train needs a destination: --save <path> and/or --registry <dir>".into());
    }
    if registry_dir.is_some() != reg_name.is_some() {
        return Err("--registry and --name go together".into());
    }

    let cache = HlsCache::new();
    let ds = build_dataset(&kernel, args, &cache)?;
    let mut pg_cfg = PowerGearConfig::quick();
    if let Some(e) = flag_value(args, "--epochs")? {
        pg_cfg.epochs = e;
    }
    pg_cfg.threads = flag_value(args, "--threads")?.unwrap_or_else(default_threads);

    let t = Instant::now();
    let model = PowerGear::fit_with(std::slice::from_ref(&ds), &pg_cfg, |target, m| {
        eprintln!(
            "[train] {} member {}/{} (seed {}, fold {}): val MAPE {:.2}%",
            target_label(target),
            m.index + 1,
            m.total,
            m.seed,
            m.fold,
            m.val_mape
        );
    });
    eprintln!("[train] done in {:.2}s", t.elapsed().as_secs_f64());

    let heads = [
        (
            PowerTarget::Total,
            model.total_model.evaluate(&ds.labeled(PowerTarget::Total)),
        ),
        (
            PowerTarget::Dynamic,
            model
                .dynamic_model
                .evaluate(&ds.labeled(PowerTarget::Dynamic)),
        ),
    ];
    let mut meta = ArtifactMeta::now(&kernel.name, "total+dynamic");
    meta.train_fingerprint =
        pg_store::train_fingerprint(&pg_cfg.train_config(PowerTarget::Dynamic));
    meta.notes = format!("samples={} size={}", ds.samples.len(), ds.size);
    for (target, err) in &heads {
        meta.metrics
            .push((format!("{}_train_mape", target_label(*target)), *err));
    }
    let graphs: Vec<PowerGraph> = ds.samples.iter().map(|s| s.graph.clone()).collect();
    let artifact = model.to_artifact(meta, &graphs, 8);

    if let Some(path) = &save {
        artifact.save(path).map_err(|e| e.to_string())?;
        println!("saved model artifact to {path}");
    }
    if let (Some(dir), Some(name)) = (&registry_dir, &reg_name) {
        let reg = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
        let path = reg.publish(name, &artifact).map_err(|e| e.to_string())?;
        println!("published `{name}` to {}", path.display());
    }
    for (target, err) in &heads {
        println!("  {:8} train MAPE {err:.2}%", target_label(*target));
    }
    Ok(())
}

fn target_label(target: PowerTarget) -> &'static str {
    match target {
        PowerTarget::Total => "total",
        PowerTarget::Dynamic => "dynamic",
    }
}

/// Loads and probe-verifies the `--model` artifact, and — when the command
/// targets a specific kernel — rejects a model trained on a different one,
/// so a mismatched artifact cannot silently produce garbage estimates.
fn load_artifact(
    args: &[String],
    expected_kernel: Option<&str>,
) -> Result<(String, ModelArtifact), String> {
    let path: String =
        flag_value(args, "--model")?.ok_or_else(|| "missing --model <path>".to_string())?;
    let artifact = ModelArtifact::load(&path).map_err(|e| format!("loading `{path}`: {e}"))?;
    artifact
        .verify()
        .map_err(|e| format!("verifying `{path}`: {e}"))?;
    if let Some(kernel) = expected_kernel {
        let trained_on = &artifact.meta.kernel;
        if !trained_on.is_empty() && !trained_on.split(',').any(|k| k.trim() == kernel) {
            return Err(format!(
                "`{path}` was trained on kernel(s) `{trained_on}`, not `{kernel}` — \
                 estimates would be meaningless; train a model for `{kernel}` first"
            ));
        }
    }
    Ok((path, artifact))
}

fn cmd_predict(args: &[String]) -> Result<(), String> {
    let kernel = load_kernel(args)?;
    let directives = parse_directives(args)?;
    let (path, artifact) = load_artifact(args, Some(&kernel.name))?;
    let model = PowerGear::from_artifact(&artifact).map_err(|e| e.to_string())?;
    eprintln!(
        "[predict] loaded `{path}` (kernel {}, {} + {} members, 0 training epochs)",
        artifact.meta.kernel,
        model.total_model.models.len(),
        model.dynamic_model.models.len()
    );
    let est = model
        .estimate(&kernel, &directives)
        .map_err(|e| format!("HLS failed: {e}"))?;
    println!("design    : {}/{}", kernel.name, directives.id());
    println!("total     : {:.4} W", est.total_w);
    println!("dynamic   : {:.4} W", est.dynamic_w);
    println!("latency   : {} cycles", est.latency_cycles);
    println!("graph     : {} nodes", est.graph_nodes);
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let pos = positionals(args)?;
    let path = pos
        .first()
        .ok_or_else(|| "usage: powergear verify <artifact.pgm>".to_string())?;
    let artifact = ModelArtifact::load(path).map_err(|e| format!("loading `{path}`: {e}"))?;
    artifact
        .verify()
        .map_err(|e| format!("verification of `{path}` FAILED: {e}"))?;
    let probe = artifact.probe.as_ref().map(|p| p.graphs.len()).unwrap_or(0);
    println!(
        "{path}: OK (kernel {}, target {}, {} ensembles, probe over {} graphs bit-exact)",
        artifact.meta.kernel,
        artifact.meta.target,
        artifact.ensembles.len(),
        probe
    );
    Ok(())
}

fn cmd_models(args: &[String]) -> Result<(), String> {
    let dir: String = flag_value(args, "--registry")?.unwrap_or_else(|| "models".into());
    let verify_all = args.iter().any(|a| a == "--verify-all");
    let reg = ModelRegistry::open(&dir).map_err(|e| e.to_string())?;
    let entries = reg.list().map_err(|e| e.to_string())?;
    if entries.is_empty() {
        // A sweep over nothing must not report success — an empty registry
        // under --verify-all is almost always a mistyped --registry path
        // (open() creates missing directories), and a CI gate that
        // verified zero probes has verified nothing.
        if verify_all {
            return Err(format!(
                "registry `{dir}` holds no artifacts — nothing to verify"
            ));
        }
        println!("registry `{dir}` is empty (publish with `train --registry {dir} --name <n>`)");
        return Ok(());
    }
    println!("registry `{dir}`: {} artifact(s)", entries.len());
    if verify_all {
        return verify_registry(&reg, &entries);
    }
    for e in entries {
        match e.meta {
            Ok(m) => {
                let metrics: Vec<String> = m
                    .metrics
                    .iter()
                    .map(|(k, v)| format!("{k}={v:.2}"))
                    .collect();
                println!(
                    "  {:16} kernel={} target={} fp={:016x} created={} {}",
                    e.name,
                    m.kernel,
                    m.target,
                    m.train_fingerprint,
                    m.created_at_unix,
                    metrics.join(" ")
                );
            }
            Err(err) => println!("  {:16} UNREADABLE: {err}", e.name),
        }
    }
    Ok(())
}

/// `models --verify-all`: loads every artifact in the registry and replays
/// its embedded bit-exactness probe, reporting pass/fail per model. Any
/// failure (unreadable artifact, probe mismatch) makes the command exit
/// non-zero, so a registry sweep can gate CI or a deployment.
fn verify_registry(reg: &ModelRegistry, entries: &[pg_store::RegistryEntry]) -> Result<(), String> {
    let mut failed = 0usize;
    for e in entries {
        let status = reg
            .load(&e.name)
            .and_then(|artifact| artifact.verify().map(|()| artifact));
        match status {
            Ok(artifact) => {
                let probe = artifact.probe.as_ref().map(|p| p.graphs.len()).unwrap_or(0);
                println!(
                    "  {:16} PASS (kernel={}, {} ensembles, probe over {} graphs bit-exact)",
                    e.name,
                    artifact.meta.kernel,
                    artifact.ensembles.len(),
                    probe
                );
            }
            Err(err) => {
                failed += 1;
                println!("  {:16} FAIL: {err}", e.name);
            }
        }
    }
    if failed > 0 {
        return Err(format!(
            "{failed}/{} artifact(s) failed verification",
            entries.len()
        ));
    }
    println!("all {} artifact(s) verified bit-exact", entries.len());
    Ok(())
}

fn cmd_dse(args: &[String]) -> Result<(), String> {
    let kernel = load_sole_kernel(args)?;
    let (path, artifact) = load_artifact(args, Some(&kernel.name))?;
    let model = PowerGear::from_artifact(&artifact).map_err(|e| e.to_string())?;
    let dse_cfg = match flag_value::<f64>(args, "--budget")? {
        None => pg_dse::DseConfig::quick(7),
        Some(budget) => {
            if !(0.0..=1.0).contains(&budget) {
                return Err(format!("--budget {budget} must be within 0..=1"));
            }
            pg_dse::DseConfig::with_budget(budget, 7)
        }
    };
    let cache = HlsCache::new();
    let ds = build_dataset(&kernel, args, &cache)?;
    let latency: Vec<f64> = ds.samples.iter().map(|s| s.latency as f64).collect();
    let truth: Vec<f64> = ds.samples.iter().map(|s| s.power.dynamic).collect();
    let graphs: Vec<&PowerGraph> = ds.samples.iter().map(|s| &s.graph).collect();
    eprintln!(
        "[dse] exploring {} points of `{}` with `{path}` at {:.0}% budget",
        graphs.len(),
        kernel.name,
        dse_cfg.budget_frac * 100.0
    );
    let [predicted] = predict_heads([&model.dynamic_model], &graphs, &ServeConfig::default());
    if let Some(i) = predicted.iter().position(|p| !p.is_finite()) {
        return Err(format!(
            "`{path}` predicts a non-finite dynamic power ({}) for design point {}",
            predicted[i], ds.samples[i].design_id
        ));
    }
    let out = pg_dse::run_dse(&latency, &truth, &predicted, &dse_cfg);
    println!("{}", out.summary(graphs.len()));
    for p in &out.approx_frontier {
        println!(
            "  frontier: {} latency {:.0} dynamic {:.4} W",
            ds.samples[p.id].design_id, p.latency, p.power
        );
    }
    Ok(())
}

/// The parsed flags of `serve --listen`, the persistent daemon.
struct ServeCliConfig {
    threads: usize,
    model: Option<String>,
    registry: Option<String>,
    listen: Option<String>,
    max_batch: usize,
    poll_ms: u64,
    metrics_listen: Option<String>,
    trace_out: Option<String>,
}

fn parse_serve_config(args: &[String]) -> Result<ServeCliConfig, String> {
    positionals(args)?; // rejects unknown flags
    let cfg = ServeCliConfig {
        threads: flag_value(args, "--threads")?
            .unwrap_or_else(default_threads)
            .max(1),
        model: flag_value(args, "--model")?,
        registry: flag_value(args, "--registry")?,
        listen: flag_value(args, "--listen")?,
        max_batch: flag_value(args, "--max-batch")?.unwrap_or(32),
        poll_ms: flag_value(args, "--poll-ms")?.unwrap_or(200),
        metrics_listen: flag_value(args, "--metrics-listen")?,
        trace_out: flag_value(args, "--trace-out")?,
    };
    if cfg.max_batch == 0 {
        return Err("--max-batch must be positive".into());
    }
    Ok(cfg)
}

/// `serve --listen <addr>`: the persistent PGRPC daemon (protocol spec in
/// docs/PROTOCOL.md, operations runbook in docs/SERVING.md). Blocks until
/// a Shutdown frame arrives.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use powergear::daemon::{Daemon, DaemonConfig};
    let cfg = parse_serve_config(args)?;
    let Some(listen) = cfg.listen.clone() else {
        return Err("serve needs --listen <addr>; it runs the PGRPC daemon \
             (for batched estimates over a design space, use `dse`)"
            .into());
    };
    if cfg.model.is_none() && cfg.registry.is_none() {
        return Err(
            "serve --listen needs a model source: --model <m.pgm> and/or --registry <dir>".into(),
        );
    }
    let mut dcfg = DaemonConfig::new(listen);
    dcfg.max_batch = cfg.max_batch;
    dcfg.poll_interval = std::time::Duration::from_millis(cfg.poll_ms.max(1));
    dcfg.threads = cfg.threads;
    dcfg.registry_dir = cfg.registry.clone().map(Into::into);
    dcfg.model_path = cfg.model.clone().map(Into::into);
    dcfg.metrics_listen = cfg.metrics_listen.clone();
    dcfg.trace_out = cfg.trace_out.clone().map(Into::into);
    let daemon = Daemon::bind(dcfg).map_err(|e| e.to_string())?;
    let models = daemon.models();
    eprintln!(
        "[serve] listening on {} — {} model(s), batch ≤{} graphs, \
         {} engine thread(s), source poll {}ms",
        daemon.local_addr(),
        models.len(),
        cfg.max_batch,
        cfg.threads,
        cfg.poll_ms
    );
    for m in &models {
        eprintln!(
            "[serve]   {:16} kernel(s) `{}` fp={:016x}",
            m.name, m.kernel, m.fingerprint
        );
    }
    if models.is_empty() {
        eprintln!(
            "[serve]   no models loaded yet ({} load error(s)); publish to the registry \
             and the daemon hot-swaps them in",
            daemon.load_errors()
        );
    }
    if let Some(addr) = daemon.metrics_addr() {
        eprintln!("[serve] Prometheus metrics on http://{addr}/metrics");
    }
    if let Some(path) = &cfg.trace_out {
        eprintln!("[serve] per-request span traces -> {path}");
    }
    eprintln!("[serve] send a Shutdown frame to stop (see docs/PROTOCOL.md)");
    daemon.run().map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// stats

/// `powergear stats --addr <host:port> [--watch <secs>]`: fetches a
/// `StatsV2` registry snapshot from a live daemon and renders it as a
/// table; `--watch` repeats forever at the given period.
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let addr: String = flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7070".into());
    let watch: Option<u64> = flag_value(args, "--watch")?;
    loop {
        let v2 = fetch_stats_v2(&addr)?;
        print_stats_v2(&addr, &v2);
        match watch {
            None => return Ok(()),
            Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs.max(1))),
        }
    }
}

/// One StatsV2 round trip on a fresh connection.
fn fetch_stats_v2(addr: &str) -> Result<pg_store::StatsV2Response, String> {
    use pg_store::frame;
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to `{addr}`: {e}"))?;
    let req = frame::RawFrame::new(frame::FrameType::StatsV2, Vec::new());
    frame::write_frame(&mut stream, &req).map_err(|e| e.to_string())?;
    let resp = frame::read_frame(&mut stream)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "server closed the connection".to_string())?;
    match resp.frame_type() {
        Some(frame::FrameType::StatsV2Ok) => {
            frame::StatsV2Response::from_payload(&resp.payload).map_err(|e| e.to_string())
        }
        Some(frame::FrameType::Error) => {
            let err = frame::ErrorFrame::from_payload(&resp.payload).map_err(|e| e.to_string())?;
            Err(format!(
                "server rejected StatsV2 (code {}): {} — an older daemon? try upgrading it",
                err.code, err.message
            ))
        }
        other => Err(format!("unexpected response frame {other:?}")),
    }
}

fn fmt_metric_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", inner.join(","))
}

/// A histogram bound in microseconds, humanized (`u64::MAX` is +inf).
fn fmt_bound(b: Option<u64>) -> String {
    match b {
        None => "-".into(),
        Some(u64::MAX) => "+inf".into(),
        Some(v) => v.to_string(),
    }
}

fn print_stats_v2(addr: &str, v2: &pg_store::StatsV2Response) {
    println!("daemon {addr}: up {:.1}s", v2.uptime_s);
    if !v2.snapshot.counters.is_empty() {
        println!("  {:<52} {:>14}", "counter", "value");
        for c in &v2.snapshot.counters {
            println!(
                "  {:<52} {:>14}",
                format!("{}{}", c.name, fmt_metric_labels(&c.labels)),
                c.value
            );
        }
    }
    if !v2.snapshot.gauges.is_empty() {
        println!("  {:<52} {:>14}", "gauge", "value");
        for g in &v2.snapshot.gauges {
            println!(
                "  {:<52} {:>14}",
                format!("{}{}", g.name, fmt_metric_labels(&g.labels)),
                g.value
            );
        }
    }
    if !v2.snapshot.histograms.is_empty() {
        println!(
            "  {:<52} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50<=", "p95<=", "mean"
        );
        for h in &v2.snapshot.histograms {
            println!(
                "  {:<52} {:>10} {:>10} {:>10} {:>10.1}",
                format!("{}{}", h.name, fmt_metric_labels(&h.labels)),
                h.count,
                fmt_bound(h.percentile(0.5)),
                fmt_bound(h.percentile(0.95)),
                h.mean()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// eval: leave-one-kernel-out cross-kernel evaluation

/// Parses `--arch/--pool/--layers/--heads/--hidden` into a zoo
/// [`ModelConfig`], validating value domains with loud errors.
fn parse_zoo_config(args: &[String]) -> Result<ModelConfig, String> {
    let hidden: usize = flag_value(args, "--hidden")?.unwrap_or(16);
    if hidden == 0 {
        return Err("`--hidden` must be at least 1".into());
    }
    let arch_name: Option<String> = flag_value(args, "--arch")?;
    let mut model = match arch_name.as_deref() {
        None | Some("hec") => ModelConfig::hec(hidden),
        Some("gcn") => ModelConfig::baseline(Arch::Gcn, hidden),
        Some("sage") => ModelConfig::baseline(Arch::Sage, hidden),
        Some("graphconv") => ModelConfig::baseline(Arch::GraphConv, hidden),
        Some("gine") => ModelConfig::baseline(Arch::Gine, hidden),
        Some(other) => {
            return Err(format!(
                "unknown arch `{other}`; available: hec, gcn, sage, graphconv, gine"
            ))
        }
    };
    if let Some(pool) = flag_value::<String>(args, "--pool")? {
        model.pool = Pool::parse(&pool)
            .ok_or_else(|| format!("unknown pool `{pool}`; available: add, mean, max"))?;
    }
    if let Some(layers) = flag_value(args, "--layers")? {
        if layers == 0 {
            return Err("`--layers` must be at least 1".into());
        }
        model.layers = layers;
    }
    if let Some(heads) = flag_value(args, "--heads")? {
        if heads > 0 && model.arch != Arch::Hec {
            return Err("`--heads` requires the hec arch (edge attention)".into());
        }
        if heads > 0 && model.hidden % heads != 0 {
            return Err(format!(
                "`--heads {heads}` must divide `--hidden {}`",
                model.hidden
            ));
        }
        model.heads = heads;
    }
    Ok(model)
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let pos = positionals(args)?;
    if let Some(extra) = pos.first() {
        return Err(format!(
            "unexpected argument `{extra}`; eval takes flags only"
        ));
    }
    if !args.iter().any(|a| a == "--loko") {
        return Err("eval requires `--loko` (leave-one-kernel-out protocol)".into());
    }
    let mut cfg = powergear::eval::EvalConfig::quick(parse_zoo_config(args)?);
    if let Some(size) = flag_value(args, "--size")? {
        cfg.data.size = size;
    }
    if let Some(samples) = flag_value(args, "--samples")? {
        cfg.data.max_samples = samples;
    }
    if let Some(seed) = flag_value(args, "--seed")? {
        cfg.data.seed = seed;
    }
    if let Some(epochs) = flag_value(args, "--epochs")? {
        cfg.epochs = epochs;
    }
    if let Some(folds) = flag_value(args, "--folds")? {
        cfg.folds = folds;
    }
    if let Some(threads) = flag_value(args, "--threads")? {
        cfg.threads = threads;
        cfg.data.threads = threads;
    }
    if let Some(list) = flag_value::<String>(args, "--kernels")? {
        let kernels: Vec<String> = list.split(',').map(|k| k.trim().to_string()).collect();
        for k in &kernels {
            if !polybench::KERNEL_NAMES.contains(&k.as_str()) {
                return Err(format!(
                    "unknown kernel `{k}`; available: {}",
                    polybench::KERNEL_NAMES.join(", ")
                ));
            }
        }
        if kernels.len() < 2 {
            return Err("`--kernels` needs at least 2 kernels (train on N-1)".into());
        }
        cfg.kernels = Some(kernels);
    }

    let t0 = Instant::now();
    let report = powergear::eval::run_loko_built(&cfg);
    println!(
        "loko config {} ({} kernels x 2 targets, {} samples/kernel, {:.1}s)",
        report.config,
        report.rows.len() / 2,
        cfg.data.max_samples,
        t0.elapsed().as_secs_f64()
    );
    println!("{}", report.to_table());
    println!("digest {:016x}", report.digest());
    if let Some(path) = flag_value::<String>(args, "--out")? {
        std::fs::write(&path, report.to_tsv())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}
