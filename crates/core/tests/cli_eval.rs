//! CLI integration tests for `powergear eval --loko`: spawns the real
//! binary on a reduced kernel subset / tiny model and asserts the MAPE
//! table, the deterministic digest line, the `--out` TSV roundtrip, and
//! loud non-zero exits for bad flag values.

use std::path::PathBuf;
use std::process::Command;

fn powergear() -> Command {
    Command::new(env!("CARGO_BIN_EXE_powergear"))
}

/// Flags for a run small enough for an integration test but covering the
/// full LOKO path (3 kernels × 2 targets).
const TINY: [&str; 11] = [
    "eval",
    "--loko",
    "--kernels",
    "atax,mvt,bicg",
    "--samples",
    "6",
    "--epochs",
    "2",
    "--hidden",
    "8",
    "--threads",
];

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pg_cli_eval_{tag}_{}.tsv", std::process::id()))
}

#[test]
fn loko_prints_table_for_every_kernel_and_target() {
    let out = powergear()
        .args(TINY)
        .arg("2")
        .output()
        .expect("run powergear");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("loko config hec-p_add-l3-h0"), "{stdout}");
    for kernel in ["atax", "mvt", "bicg"] {
        assert_eq!(
            stdout.matches(kernel).count(),
            2,
            "one row per target for {kernel}:\n{stdout}"
        );
    }
    assert_eq!(stdout.matches("mean").count(), 2, "{stdout}");
    assert!(stdout.contains("digest "), "{stdout}");
}

#[test]
fn loko_out_writes_tsv_with_matching_digest() {
    let path = tmp_path("out");
    let out = powergear()
        .args(TINY)
        .arg("2")
        .arg("--out")
        .arg(&path)
        .output()
        .expect("run powergear");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let tsv = std::fs::read_to_string(&path).expect("written table");
    assert!(
        tsv.starts_with("# powergear loko config=hec-p_add-l3-h0"),
        "{tsv}"
    );
    assert!(
        tsv.contains("kernel\ttarget\tn_train\tn_test\tmape_pct\trmse_w"),
        "{tsv}"
    );
    // The digest trailer in the file matches the one printed to stdout.
    let file_digest = tsv
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("# digest "))
        .expect("digest trailer");
    assert!(
        stdout.contains(&format!("digest {file_digest}")),
        "{stdout}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn loko_is_bit_identical_across_thread_counts() {
    let digest_of = |threads: &str| {
        let out = powergear()
            .args(TINY)
            .arg(threads)
            .output()
            .expect("run powergear");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("digest ").map(str::to_string))
            .expect("digest line")
    };
    let d1 = digest_of("1");
    assert_eq!(d1, digest_of("2"));
    assert_eq!(d1, digest_of("4"));
}

#[test]
fn eval_requires_loko_flag() {
    let out = powergear().arg("eval").output().expect("run powergear");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("eval requires `--loko`"), "{stderr}");
}

#[test]
fn unknown_kernel_fails_loudly() {
    let out = powergear()
        .args(["eval", "--loko", "--kernels", "atax,nosuch"])
        .output()
        .expect("run powergear");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown kernel `nosuch`"), "{stderr}");
    assert!(stderr.contains("atax"), "lists available kernels: {stderr}");
}

#[test]
fn bad_zoo_flag_values_fail_loudly() {
    for (flags, needle) in [
        (vec!["--arch", "transformer"], "unknown arch `transformer`"),
        (vec!["--pool", "median"], "unknown pool `median`"),
        (vec!["--layers", "0"], "`--layers` must be at least 1"),
        (
            vec!["--heads", "2", "--arch", "gcn"],
            "requires the hec arch",
        ),
        (
            vec!["--heads", "3", "--hidden", "16"],
            "`--heads 3` must divide `--hidden 16`",
        ),
    ] {
        let out = powergear()
            .args(["eval", "--loko"])
            .args(&flags)
            .output()
            .expect("run powergear");
        assert!(!out.status.success(), "{flags:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{flags:?}: {stderr}");
    }
}

#[test]
fn removed_batch_deadline_flag_fails_loudly() {
    let out = powergear()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--batch-deadline-us",
            "500",
        ])
        .output()
        .expect("run powergear");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag `--batch-deadline-us`"),
        "{stderr}"
    );
}

#[test]
fn serve_without_listen_names_the_flag() {
    let out = powergear()
        .args(["serve", "bicg", "12"])
        .output()
        .expect("run powergear");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(errors[0].contains("--listen"), "{stderr}");
}

#[test]
fn eval_rejects_positional_arguments() {
    let out = powergear()
        .args(["eval", "atax", "--loko"])
        .output()
        .expect("run powergear");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unexpected argument `atax`"), "{stderr}");
}

#[test]
fn count_commands_reject_a_second_positional() {
    for cmd in [
        &["dse", "bicg", "12", "--size", "8", "--model", "m.pgm"][..],
        &["train", "bicg", "12", "--save", "m.pgm"],
        &["dataset", "bicg", "12"],
    ] {
        let out = powergear().args(cmd).output().expect("run powergear");
        assert!(!out.status.success(), "{cmd:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{cmd:?}: {stderr}");
        assert!(
            errors[0].contains("unexpected argument `12`"),
            "{cmd:?}: {stderr}"
        );
        assert!(errors[0].contains("--samples"), "{cmd:?}: {stderr}");
    }
}
