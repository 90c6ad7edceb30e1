//! `profile_synth` — attributes cold dataset-build time across pipeline
//! stages and reports cold-synthesis throughput.
//!
//! The cold path is `HlsFlow::run` (lower → schedule → bind → FSMD →
//! report) followed by graph construction (raw DFG → buffers → merge →
//! trim → finalize), activity tracing and the power oracle. Each of those
//! stages records into the `stage_time_us` histogram of the
//! `pg_util::metrics` registry. This driver snapshots the registry
//! around one cold kernel dataset build, and prints the difference as the
//! attribution table plus the `cold_synth_throughput` figure (designs per
//! second through the whole cold path).
//!
//! ```text
//! profile_synth [<kernel>] [--samples N] [--size n] [--threads T]
//!               [--seed s] [--warm]
//! ```
//!
//! * `<kernel>`     Polybench kernel name (default `gemm`)
//! * `--samples N`  design points (default 96; paper scale is 500)
//! * `--size n`     problem size (default 12)
//! * `--threads T`  worker threads (default 1 — per-stage attribution is
//!                  cleanest single-threaded; wall time still reported)
//! * `--seed s`     sampling seed (default 1)
//! * `--warm`       additionally time a warm rebuild over the same cache
//!
//! Example (the reference measurement of the dataset-scale work):
//!
//! ```text
//! cargo run --release -p powergear_bench --bin profile_synth -- gemm --samples 96
//! ```

use pg_datasets::{build_kernel_dataset_cached, polybench, DatasetConfig, HlsCache};
use pg_util::flag_value;
use pg_util::metrics::{self, MetricsSnapshot};
use std::process::ExitCode;
use std::time::Instant;

/// The kernel positional: the first token that is neither a flag nor a
/// flag's value.
fn kernel_positional(args: &[String]) -> Option<String> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--warm" {
            i += 1;
        } else if a.starts_with("--") {
            i += 2; // value flag: skip its argument too
        } else {
            return Some(a.clone());
        }
    }
    None
}

/// The stage attribution table: every `stage_time_us` series that
/// recorded between `before` and `after`, as calls, total ms, mean µs and
/// share of `total_secs`, sorted by descending total.
fn stage_report(before: &MetricsSnapshot, after: &MetricsSnapshot, total_secs: f64) -> String {
    let mut rows: Vec<(&str, u64, u64)> = after
        .histograms
        .iter()
        .filter(|h| h.name == metrics::STAGE_TIME_US)
        .filter_map(|h| {
            let (calls0, us0) = before
                .histograms
                .iter()
                .find(|b| b.name == h.name && b.labels == h.labels)
                .map_or((0, 0), |b| (b.count, b.sum));
            let stage = h.labels.iter().find(|(k, _)| k == "stage")?.1.as_str();
            let calls = h.count - calls0;
            (calls > 0).then_some((stage, calls, h.sum - us0))
        })
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<28} {:>10} {:>12} {:>12} {:>7}\n",
        "scope", "calls", "total ms", "mean us", "share"
    );
    for (stage, calls, us) in rows {
        out.push_str(&format!(
            "{:<28} {:>10} {:>12.2} {:>12.2} {:>6.1}%\n",
            stage,
            calls,
            us as f64 / 1e3,
            us as f64 / calls as f64,
            100.0 * us as f64 / 1e6 / total_secs.max(1e-9)
        ));
    }
    out
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kernel_name = kernel_positional(&args).unwrap_or_else(|| "gemm".into());
    let cfg = DatasetConfig {
        size: flag_value(&args, "--size")?.unwrap_or(12),
        max_samples: flag_value(&args, "--samples")?.unwrap_or(96),
        seed: flag_value(&args, "--seed")?.unwrap_or(1),
        threads: flag_value(&args, "--threads")?.unwrap_or(1),
    };
    let warm = args.iter().any(|a| a == "--warm");
    let kernel = polybench::by_name(&kernel_name, cfg.size)
        .ok_or_else(|| format!("unknown kernel `{kernel_name}`"))?;

    eprintln!(
        "[profile] cold build: {} x {} design points (size {}, {} thread(s))",
        kernel.name, cfg.max_samples, cfg.size, cfg.threads
    );
    let cache = HlsCache::new();
    let before = metrics::snapshot();
    let t = Instant::now();
    let ds = build_kernel_dataset_cached(&kernel, &cfg, &cache);
    let cold_s = t.elapsed().as_secs_f64();
    let after = metrics::snapshot();

    let designs = cache.misses();
    println!("{}", stage_report(&before, &after, cold_s));
    println!(
        "cold build: {} samples / {} synthesized designs in {:.3}s ({:.1} avg nodes)",
        ds.samples.len(),
        designs,
        cold_s,
        ds.avg_nodes()
    );
    println!(
        "cold_synth_throughput: {:.1} designs/s",
        designs as f64 / cold_s.max(1e-9)
    );

    if warm {
        let t = Instant::now();
        let ds2 = build_kernel_dataset_cached(&kernel, &cfg, &cache);
        let warm_s = t.elapsed().as_secs_f64();
        assert_eq!(ds, ds2, "warm rebuild must be bit-identical");
        println!(
            "warm rebuild: {:.3}s ({:.1}x cold, bit-identical)",
            warm_s,
            cold_s / warm_s.max(1e-9)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
