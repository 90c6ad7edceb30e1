//! Benchmark entry point: `pg_perfbench --workload <dse_sweep|train|serve_open>
//! --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints notes and a provenance line (each starting with `#`), writes the
//! results file under `.bench_results/`, and ends its output with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! reports the end-to-end metrics, a traced run the per-layer metrics.
//! Exits 0 only when every correctness gate passed and no operation
//! failed.

use pg_perfbench::results::{ResultsFile, RunResult, Value};
use pg_perfbench::{dse, serve, serve_open, train, Outcome, RunOpts, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["dse_sweep", "train", "serve_open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Machine, toolchain and run settings the numbers were taken under.
fn provenance(args: &Args) -> Vec<(String, Value)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // only a checkout that is itself a git repository names its commit
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let s = |v: &str| Value::Str(v.to_string());
    vec![
        ("workload".into(), s(&args.workload)),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds as f64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::Num(nproc as f64)),
        ("cpu_model".into(), s(&cpu)),
        (
            "rustc".into(),
            s(&command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("git_commit".into(), s(&commit)),
        ("light_rate_per_s".into(), Value::Num(serve::LIGHT_RATE)),
        ("heavy_rate_per_s".into(), Value::Num(serve::HEAVY_RATE)),
        ("connections".into(), Value::Num(serve::CONNS as f64)),
    ]
}

fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds as f64,
        scratch: scratch.to_path_buf(),
    };
    match (args.workload.as_str(), args.trace) {
        ("dse_sweep", false) => dse::run(&opts),
        ("dse_sweep", true) => dse::run_traced(&opts),
        ("train", false) => train::run(&opts),
        ("train", true) => train::run_traced(&opts),
        ("serve_open", false) => serve_open::run(&opts),
        ("serve_open", true) => serve_open::run_traced(&opts),
        _ => unreachable!("workload validated in parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pg_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("pg_perfbench: creating {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pg_perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match pg_perfbench::common::peak_rss_mb() {
        Ok(mb) => outcome.set("process.peak_rss_mb", mb),
        Err(e) => {
            eprintln!("pg_perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = match outcome.metrics(table) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("pg_perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = RunResult {
        correct: outcome.attempted > 0
            && outcome.failed == 0
            && metrics.iter().all(|m| m.value.is_finite()),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &result.metrics {
        println!("# {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let file = ResultsFile {
        provenance: provenance(&args),
        result: result.clone(),
    };
    println!(
        "# provenance {}",
        Value::Obj(file.provenance.clone()).to_json()
    );
    let dir = Path::new(".bench_results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, file.to_json()))
    {
        eprintln!("pg_perfbench: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
