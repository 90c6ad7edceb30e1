//! Self-check: run the pg_lint static analyzer over this live workspace and
//! require zero non-baselined findings. This is the same gate CI's
//! `lint-analyzer` job applies via the `pg-lint` bin; having it in `cargo
//! test` means a determinism or layering regression fails the tier-1 suite
//! locally, before any CI round trip.

use std::path::Path;

use pg_lint::{apply_baseline, parse_baseline, run_workspace, Config};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = Config::house();
    let (findings, files, manifests) = run_workspace(root, &cfg);

    // Sanity: the walk really saw the workspace (14 crates + analyzer +
    // root package sources, 17 manifests incl. the vendor shim).
    assert!(files > 80, "only {files} source files scanned");
    assert!(manifests >= 17, "only {manifests} manifests scanned");

    let baseline_text = std::fs::read_to_string(root.join("pg-lint.baseline"))
        .expect("pg-lint.baseline is checked in at the workspace root");
    let baseline = parse_baseline(&baseline_text).expect("baseline parses");

    let mut report = apply_baseline(findings, &baseline);
    report.files_scanned = files;
    report.manifests_scanned = manifests;

    assert!(
        report.is_clean(true),
        "pg-lint found non-baselined findings (or stale baseline entries):\n{}",
        report.render_text(true)
    );
}

/// The baseline may only shrink: it must never absorb errors, only the
/// explicitly grandfathered warning classes.
#[test]
fn baseline_contains_no_error_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline_text = std::fs::read_to_string(root.join("pg-lint.baseline")).unwrap();
    let baseline = parse_baseline(&baseline_text).unwrap();
    const WARNING_RULES: [&str; 4] = [
        "float_cast",
        "float_fold",
        "print_hygiene",
        "allow_no_reason",
    ];
    for e in &baseline {
        assert!(
            WARNING_RULES.contains(&e.rule.as_str()),
            "baseline entry for `{}` ({}) grandfathers an error-severity rule; \
             fix the code instead",
            e.rule,
            e.path
        );
    }
}
