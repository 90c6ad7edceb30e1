//! `loadgen` — socket-level load generator for the `powergear serve`
//! daemon, reporting the latency/throughput numbers `docs/SERVING.md`
//! tunes against.
//!
//! ```text
//! loadgen [--addr <host:port>] [--kernel bicg] [--size 10] [--samples 24]
//!         [--clients 8] [--requests 32] [--graphs 4]
//!         [--max-batch 32] [--threads T]
//!         [--overhead-check]
//! ```
//!
//! Without `--addr`, loadgen is self-contained: it builds a small
//! dataset, trains a quick ensemble, publishes it to a temporary
//! registry, spawns the daemon in-process on a free port, drives it, and
//! verifies every served prediction is bit-identical to the in-process
//! sequential path. With `--addr` it drives an already-running daemon
//! (no bit-parity check — the remote model is not known here).
//!
//! Output: p50/p95/p99 request latency, sustained graphs/s and
//! requests/s, plus error/mismatch counts. The run is bracketed with
//! `StatsV2` snapshots: server-side request/graph counters are
//! cross-checked against the client tallies (exact in self-hosted mode,
//! advisory against a shared external daemon) and the server's achieved
//! batch-size p50/p95 is printed beside the client latency percentiles.
//! Exits non-zero on any error, bit mismatch, or (self-hosted)
//! server/client counter disagreement.
//!
//! `--overhead-check` (self-hosted only) is the CI parity probe for the
//! metrics layer: the same daemon is driven twice, once with the
//! registry disabled and once enabled, and the run fails if the
//! instrumented throughput falls below half the uninstrumented one (or
//! either pass loses bit parity).

use pg_datasets::{build_kernel_dataset_cached, polybench, DatasetConfig, HlsCache};
use pg_gnn::{train_ensemble, ModelConfig, TrainConfig};
use pg_graphcon::PowerGraph;
use pg_util::flag_value;
use powergear::daemon::{Daemon, DaemonConfig};
use powergear::PowerGear;
use powergear_bench::loadgen::{
    fetch_stats_v2, run_load, server_delta, LoadConfig, LoadReport, ServerDelta,
};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let kernel_name: String = flag_value(args, "--kernel")?.unwrap_or_else(|| "bicg".into());
    let size: usize = flag_value(args, "--size")?.unwrap_or(10);
    let samples: usize = flag_value(args, "--samples")?.unwrap_or(24);
    let cfg = LoadConfig {
        clients: flag_value(args, "--clients")?.unwrap_or(8),
        requests: flag_value(args, "--requests")?.unwrap_or(32),
        graphs_per_request: flag_value(args, "--graphs")?.unwrap_or(4),
    };
    let addr_flag: Option<String> = flag_value(args, "--addr")?;

    let kernel = polybench::by_name(&kernel_name, size)
        .ok_or_else(|| format!("unknown kernel `{kernel_name}`"))?;
    eprintln!(
        "[loadgen] building {samples} design points of `{kernel_name}` (size {size}) \
         for request payloads..."
    );
    let ds_cfg = DatasetConfig {
        size,
        max_samples: samples.max(4),
        seed: 1,
        threads: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    };
    let ds = build_kernel_dataset_cached(&kernel, &ds_cfg, &HlsCache::new());
    let graphs: Vec<PowerGraph> = ds.samples.iter().map(|s| s.graph.clone()).collect();

    if args.iter().any(|a| a == "--overhead-check") {
        if addr_flag.is_some() {
            return Err("--overhead-check needs the self-hosted daemon (drop --addr)".into());
        }
        return overhead_check(args, &ds.kernel, &graphs, &cfg);
    }

    let (report, delta, exact) = match addr_flag {
        Some(raw) => {
            let addr = resolve(&raw)?;
            eprintln!("[loadgen] driving external daemon at {addr} (no bit-parity check)");
            let before = fetch_stats_v2(addr);
            let report = run_load(addr, &kernel_name, &graphs, None, &cfg)?;
            let delta = bracket(before, addr);
            (report, delta, false)
        }
        None => drive_self_hosted(args, &ds.kernel, &graphs, &cfg)?,
    };

    print_report(&report, &cfg, delta.as_ref());
    let counters_ok = match &delta {
        // Self-hosted: the daemon served only this run, so server
        // counters must match the client tallies exactly.
        Some(d) if exact => d.matches_client(&report),
        // External daemon (shared, may serve other traffic) or a
        // pre-StatsV2 server: advisory only.
        _ => true,
    };
    if !counters_ok {
        eprintln!("error: server counters disagree with client tallies (see above)");
    }
    Ok(report.errors == 0 && report.mismatches == 0 && counters_ok)
}

/// Completes a before/after `StatsV2` bracket around a finished run.
fn bracket(
    before: Result<pg_store::StatsV2Response, String>,
    addr: SocketAddr,
) -> Option<ServerDelta> {
    let before = match before {
        Ok(b) => b,
        Err(e) => {
            eprintln!("[loadgen] StatsV2 unavailable ({e}); skipping counter cross-check");
            return None;
        }
    };
    match fetch_stats_v2(addr) {
        Ok(after) => Some(server_delta(&before, &after)),
        Err(e) => {
            eprintln!("[loadgen] StatsV2 re-fetch failed ({e}); skipping counter cross-check");
            None
        }
    }
}

fn resolve(raw: &str) -> Result<SocketAddr, String> {
    raw.to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{raw}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{raw}` resolves to no address"))
}

/// A quick-trained model published to a temp registry with an in-process
/// daemon serving it — the self-hosted harness both run modes share.
struct SelfHosted {
    daemon: powergear::daemon::DaemonHandle,
    expected: Vec<(f64, f64)>,
    reg_dir: std::path::PathBuf,
}

impl SelfHosted {
    fn setup(args: &[String], kernel: &str, graphs: &[PowerGraph]) -> Result<Self, String> {
        let labeled: Vec<(&PowerGraph, f64)> = graphs
            .iter()
            .zip(std::iter::repeat(1.0))
            .map(|(g, v)| (g, v))
            .collect();
        let mut tc = TrainConfig::quick(ModelConfig::hec(16));
        tc.epochs = 4;
        tc.folds = 2;
        tc.threads = 1;
        eprintln!("[loadgen] training a quick ensemble for the self-hosted daemon...");
        let ensemble = train_ensemble(&labeled, &tc);
        let gear = PowerGear {
            total_model: ensemble.clone(),
            dynamic_model: ensemble,
        };
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let expected = gear.estimate_graphs(&refs);

        let reg_dir = std::env::temp_dir().join(format!("pg_loadgen_{}", std::process::id()));
        let registry = pg_store::ModelRegistry::open(&reg_dir).map_err(|e| e.to_string())?;
        registry
            .publish(
                "loadgen",
                &gear.to_artifact(pg_store::ArtifactMeta::now(kernel, "total+dynamic"), &[], 0),
            )
            .map_err(|e| e.to_string())?;

        let mut dcfg = DaemonConfig::new("127.0.0.1:0");
        dcfg.registry_dir = Some(reg_dir.clone());
        if let Some(mb) = flag_value(args, "--max-batch")? {
            dcfg.max_batch = mb;
        }
        if let Some(t) = flag_value(args, "--threads")? {
            dcfg.threads = t;
        }
        let daemon = Daemon::bind(dcfg).map_err(|e| e.to_string())?.spawn();
        Ok(SelfHosted {
            daemon,
            expected,
            reg_dir,
        })
    }

    fn teardown(self) -> Result<(), String> {
        self.daemon.stop().map_err(|e| e.to_string())?;
        std::fs::remove_dir_all(&self.reg_dir).ok();
        Ok(())
    }
}

/// Spawns an in-process daemon over a quick-trained model and drives it,
/// checking served bits against the in-process sequential path.
fn drive_self_hosted(
    args: &[String],
    kernel: &str,
    graphs: &[PowerGraph],
    cfg: &LoadConfig,
) -> Result<(LoadReport, Option<ServerDelta>, bool), String> {
    let host = SelfHosted::setup(args, kernel, graphs)?;
    eprintln!(
        "[loadgen] self-hosted daemon on {} — {} clients x {} requests x {} graphs",
        host.daemon.addr(),
        cfg.clients,
        cfg.requests,
        cfg.graphs_per_request
    );
    let before = fetch_stats_v2(host.daemon.addr());
    let result = run_load(
        host.daemon.addr(),
        kernel,
        graphs,
        Some(&host.expected),
        cfg,
    );
    let delta = bracket(before, host.daemon.addr());
    host.teardown()?;
    result.map(|r| (r, delta, true))
}

/// Instrumented-vs-uninstrumented parity: the same daemon serves the
/// same load twice — registry off, then on — and throughput must not
/// collapse under instrumentation. Bit parity is enforced in both
/// passes, so the comparison can never trade correctness for speed.
fn overhead_check(
    args: &[String],
    kernel: &str,
    graphs: &[PowerGraph],
    cfg: &LoadConfig,
) -> Result<bool, String> {
    let host = SelfHosted::setup(args, kernel, graphs)?;
    let addr = host.daemon.addr();
    eprintln!(
        "[loadgen] overhead check on {addr} — {} clients x {} requests x {} graphs, twice",
        cfg.clients, cfg.requests, cfg.graphs_per_request
    );

    pg_util::metrics::set_enabled(false);
    let off = run_load(addr, kernel, graphs, Some(&host.expected), cfg);
    pg_util::metrics::set_enabled(true);
    let off = match off {
        Ok(r) => r,
        Err(e) => {
            host.teardown()?;
            return Err(e);
        }
    };
    let on = run_load(addr, kernel, graphs, Some(&host.expected), cfg);
    host.teardown()?;
    let on = on?;

    let (off_tput, on_tput) = (off.graphs_per_sec(), on.graphs_per_sec());
    println!(
        "uninstrumented : {off_tput:.1} graphs/s ({} ok, {} errors, {} mismatches)",
        off.latencies.len(),
        off.errors,
        off.mismatches
    );
    println!(
        "instrumented   : {on_tput:.1} graphs/s ({} ok, {} errors, {} mismatches)",
        on.latencies.len(),
        on.errors,
        on.mismatches
    );
    // Generous 2x bound: socket-level runs jitter, and a real overhead
    // regression shows up far larger.
    let parity_ok = on_tput >= off_tput / 2.0;
    println!(
        "parity         : instrumented/uninstrumented = {:.2} ({})",
        on_tput / off_tput.max(1e-9),
        if parity_ok { "ok" } else { "REGRESSION" }
    );
    if !parity_ok {
        eprintln!("error: instrumentation more than halved serve throughput");
    }
    let clean = off.errors + on.errors == 0 && off.mismatches + on.mismatches == 0;
    Ok(clean && parity_ok)
}

fn print_report(r: &LoadReport, cfg: &LoadConfig, delta: Option<&ServerDelta>) {
    println!(
        "requests   : {} ok, {} errors, {} bit mismatches",
        r.latencies.len(),
        r.errors,
        r.mismatches
    );
    println!(
        "latency    : p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        r.percentile(50.0) * 1e3,
        r.percentile(95.0) * 1e3,
        r.percentile(99.0) * 1e3
    );
    println!(
        "throughput : {:.1} graphs/s, {:.1} requests/s over {:.2}s wall \
         ({} clients x {} graphs/request)",
        r.graphs_per_sec(),
        r.requests_per_sec(),
        r.elapsed_s,
        cfg.clients,
        cfg.graphs_per_request
    );
    println!("models     : {:?}", r.models_seen);
    let Some(d) = delta else {
        println!("server     : StatsV2 unavailable, no counter cross-check");
        return;
    };
    let verdict = if d.matches_client(r) {
        "exact match"
    } else {
        "MISMATCH vs client tallies"
    };
    println!(
        "server     : {} requests, {} graphs, {} batches, {} errors ({verdict})",
        d.requests, d.graphs, d.batches, d.errors
    );
    if let Some(bs) = &d.batch_size {
        let fmt = |b: Option<u64>| match b {
            Some(u64::MAX) => "+inf".into(),
            Some(v) => v.to_string(),
            None => "-".into(),
        };
        println!(
            "batch size : p50<={} p95<={} graphs/batch, mean {:.1} ({} batches observed)",
            fmt(bs.percentile(0.5)),
            fmt(bs.percentile(0.95)),
            bs.mean(),
            bs.count
        );
    }
}
