//! Architecture rules: every `Cargo.toml` dependency edge must appear in the
//! ROADMAP dependency DAG below, the graph must stay acyclic, and no crate
//! may pull in an external (non-workspace, non-vendored) dependency.
//!
//! The table is the single source of truth for the intended layering:
//!
//! ```text
//! pg_util ── pg_tensor
//! pg_ir ── pg_hls ── pg_activity ── pg_graphcon ──┬── pg_powersim
//!                                                 ├── pg_hlpow
//!                                                 └── pg_gnn ── pg_store ──┬── pg_datasets
//!                                                                          └── pg_dse
//!                                  powergear / powergear_bench / powergear_repro on top
//! ```

use crate::engine::{Finding, Severity};
use crate::manifest::Manifest;

/// `(crate, allowed [dependencies])` — must match the ROADMAP DAG exactly.
/// An edge absent from this table is a finding even if the build works.
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("pg_util", &[]),
    ("pg_ir", &[]),
    ("pg_tensor", &["pg_util"]),
    ("pg_hls", &["pg_ir", "pg_util"]),
    ("pg_activity", &["pg_hls", "pg_ir", "pg_util"]),
    (
        "pg_graphcon",
        &["pg_activity", "pg_hls", "pg_ir", "pg_util"],
    ),
    (
        "pg_powersim",
        &["pg_activity", "pg_graphcon", "pg_hls", "pg_ir", "pg_util"],
    ),
    ("pg_hlpow", &["pg_graphcon", "pg_util"]),
    ("pg_gnn", &["pg_graphcon", "pg_tensor", "pg_util"]),
    (
        "pg_store",
        &[
            "pg_gnn",
            "pg_graphcon",
            "pg_hls",
            "pg_ir",
            "pg_tensor",
            "pg_util",
        ],
    ),
    (
        "pg_datasets",
        &[
            "pg_activity",
            "pg_graphcon",
            "pg_hls",
            "pg_ir",
            "pg_powersim",
            "pg_store",
            "pg_util",
        ],
    ),
    ("pg_dse", &["pg_gnn", "pg_graphcon", "pg_util"]),
    (
        "powergear",
        &[
            "pg_activity",
            "pg_datasets",
            "pg_dse",
            "pg_gnn",
            "pg_graphcon",
            "pg_hls",
            "pg_ir",
            "pg_powersim",
            "pg_store",
            "pg_util",
        ],
    ),
    (
        "powergear_bench",
        &[
            "pg_activity",
            "pg_datasets",
            "pg_dse",
            "pg_gnn",
            "pg_graphcon",
            "pg_hlpow",
            "pg_hls",
            "pg_powersim",
            "pg_store",
            "pg_tensor",
            "pg_util",
            // loadgen drives the powergear serve daemon over real sockets
            "powergear",
        ],
    ),
    (
        "powergear_repro",
        &[
            "pg_activity",
            "pg_datasets",
            "pg_dse",
            "pg_gnn",
            "pg_graphcon",
            "pg_hlpow",
            "pg_hls",
            "pg_ir",
            "pg_powersim",
            "pg_store",
            "pg_tensor",
            "pg_util",
            "powergear",
        ],
    ),
    // The analyzer is a dependency-free leaf by design: it must be buildable
    // and runnable even when the rest of the workspace is broken.
    ("pg_lint", &[]),
    // Offline shim for the one external dev-dependency.
    ("proptest", &[]),
];

/// Dev-dependencies get a slightly wider allowance: the vendored test
/// harness plus (for the umbrella crate) the analyzer itself.
pub const ALLOWED_DEV_DEPS: &[(&str, &[&str])] = &[
    ("powergear_repro", &["proptest", "pg_lint"]),
    ("pg_lint", &["proptest"]),
    ("pg_tensor", &["proptest"]),
    ("pg_store", &["proptest"]),
];

fn allowed_for<'a>(table: &[(&str, &'a [&'a str])], name: &str) -> Option<&'a [&'a str]> {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, deps)| &**deps)
}

/// Checks one crate manifest against the DAG table.
pub fn check_manifest(m: &Manifest, findings: &mut Vec<Finding>) {
    fn dag_finding(path: &str, line: u32, message: String) -> Finding {
        Finding {
            rule: "dag".to_string(),
            severity: Severity::Error,
            path: path.to_string(),
            line,
            message,
            snippet: String::new(),
        }
    }

    for (line, text) in &m.unparsed {
        findings.push(Finding {
            rule: "dag".to_string(),
            severity: Severity::Error,
            path: m.path.clone(),
            line: *line,
            message: format!(
                "manifest line outside the supported TOML subset; extend pg_lint before using it: `{text}`"
            ),
            snippet: text.clone(),
        });
    }

    if m.name.is_empty() {
        // Virtual manifests carry no [package]; only the root is allowed one
        // here, and the root *does* declare powergear_repro, so an unnamed
        // manifest means the parse went wrong.
        findings.push(dag_finding(
            &m.path,
            1,
            "manifest has no `package.name`".to_string(),
        ));
        return;
    }

    let Some(allowed) = allowed_for(ALLOWED_DEPS, &m.name) else {
        findings.push(dag_finding(
            &m.path,
            1,
            format!(
                "crate `{}` is not in the ROADMAP dependency DAG; add it to \
                 ALLOWED_DEPS in crates/analyzer/src/arch.rs and to the \
                 ROADMAP standing constraints",
                m.name
            ),
        ));
        return;
    };

    for dep in &m.deps {
        if !allowed.contains(&dep.as_str()) {
            let known_crate = ALLOWED_DEPS.iter().any(|(n, _)| n == dep);
            let msg = if known_crate {
                format!(
                    "dependency edge `{}` -> `{dep}` is not in the ROADMAP DAG \
                     (back-edge or undocumented layering violation)",
                    m.name
                )
            } else {
                format!(
                    "`{}` depends on `{dep}`, which is not a workspace crate; \
                     external dependencies are banned (offline build)",
                    m.name
                )
            };
            findings.push(Finding {
                rule: if known_crate { "dag" } else { "external_dep" }.to_string(),
                severity: Severity::Error,
                path: m.path.clone(),
                line: 1,
                message: msg,
                snippet: dep.clone(),
            });
        }
    }

    let dev_allowed = allowed_for(ALLOWED_DEV_DEPS, &m.name).unwrap_or(&[]);
    for dep in &m.dev_deps {
        // A dev-dep is fine if it would be fine as a regular dep, or if the
        // dev table grants it.
        if allowed.contains(&dep.as_str()) || dev_allowed.contains(&dep.as_str()) {
            continue;
        }
        let known_crate = ALLOWED_DEPS.iter().any(|(n, _)| n == dep);
        findings.push(Finding {
            rule: if known_crate { "dag" } else { "external_dep" }.to_string(),
            severity: Severity::Error,
            path: m.path.clone(),
            line: 1,
            message: format!(
                "dev-dependency edge `{}` -> `{dep}` is not allowed by the DAG tables",
                m.name
            ),
            snippet: dep.clone(),
        });
    }
}

/// Checks the root manifest: members list must cover every DAG crate, and the
/// table itself must be acyclic (a self-test that runs on every invocation).
pub fn check_root(root: &Manifest, findings: &mut Vec<Finding>) {
    // Every allowed edge endpoint must be a declared workspace crate.
    for (name, deps) in ALLOWED_DEPS {
        for d in *deps {
            if !ALLOWED_DEPS.iter().any(|(n, _)| n == d) {
                findings.push(Finding {
                    rule: "dag".to_string(),
                    severity: Severity::Error,
                    path: "crates/analyzer/src/arch.rs".to_string(),
                    line: 1,
                    message: format!(
                        "ALLOWED_DEPS edge `{name}` -> `{d}` targets an unknown crate"
                    ),
                    snippet: String::new(),
                });
            }
        }
    }

    if let Some(cycle) = find_cycle() {
        findings.push(Finding {
            rule: "dag".to_string(),
            severity: Severity::Error,
            path: "crates/analyzer/src/arch.rs".to_string(),
            line: 1,
            message: format!(
                "ALLOWED_DEPS table contains a cycle: {}",
                cycle.join(" -> ")
            ),
            snippet: String::new(),
        });
    }

    // The members list and the DAG table must agree (root package itself is
    // declared by the root manifest, not the members array).
    for (name, _) in ALLOWED_DEPS {
        if *name == "powergear_repro" {
            continue;
        }
        let expected_dir = dir_of(name);
        if !root.members.iter().any(|mem| mem == expected_dir) {
            findings.push(Finding {
                rule: "dag".to_string(),
                severity: Severity::Error,
                path: root.path.clone(),
                line: 1,
                message: format!("workspace members is missing `{expected_dir}` (crate `{name}`)"),
                snippet: String::new(),
            });
        }
    }
    for mem in &root.members {
        if !ALLOWED_DEPS.iter().any(|(n, _)| dir_of(n) == mem.as_str()) {
            findings.push(Finding {
                rule: "dag".to_string(),
                severity: Severity::Error,
                path: root.path.clone(),
                line: 1,
                message: format!("workspace member `{mem}` has no entry in the ROADMAP DAG table"),
                snippet: String::new(),
            });
        }
    }
}

/// Maps a crate name to its workspace directory.
pub fn dir_of(name: &str) -> &'static str {
    match name {
        "pg_util" => "crates/util",
        "pg_ir" => "crates/ir",
        "pg_tensor" => "crates/tensor",
        "pg_hls" => "crates/hls",
        "pg_activity" => "crates/activity",
        "pg_graphcon" => "crates/graphcon",
        "pg_powersim" => "crates/powersim",
        "pg_hlpow" => "crates/hlpow",
        "pg_gnn" => "crates/gnn",
        "pg_store" => "crates/store",
        "pg_datasets" => "crates/datasets",
        "pg_dse" => "crates/dse",
        "powergear" => "crates/core",
        "powergear_bench" => "crates/bench",
        "powergear_repro" => ".",
        "pg_lint" => "crates/analyzer",
        "proptest" => "vendor/proptest",
        _ => "",
    }
}

/// DFS cycle check over the static table; returns a witness path if cyclic.
fn find_cycle() -> Option<Vec<String>> {
    fn visit(name: &str, stack: &mut Vec<String>, done: &mut Vec<String>) -> Option<Vec<String>> {
        if done.iter().any(|d| d == name) {
            return None;
        }
        if let Some(pos) = stack.iter().position(|s| s == name) {
            let mut cycle: Vec<String> = stack[pos..].to_vec();
            cycle.push(name.to_string());
            return Some(cycle);
        }
        stack.push(name.to_string());
        if let Some(deps) = ALLOWED_DEPS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| d)
        {
            for d in *deps {
                if let Some(c) = visit(d, stack, done) {
                    return Some(c);
                }
            }
        }
        stack.pop();
        done.push(name.to_string());
        None
    }
    let mut done = Vec::new();
    for (name, _) in ALLOWED_DEPS {
        let mut stack = Vec::new();
        if let Some(c) = visit(name, &mut stack, &mut done) {
            return Some(c);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::parse_manifest;

    #[test]
    fn table_is_acyclic() {
        assert!(find_cycle().is_none());
    }

    #[test]
    fn table_is_closed() {
        for (name, deps) in ALLOWED_DEPS {
            for d in *deps {
                assert!(
                    ALLOWED_DEPS.iter().any(|(n, _)| n == d),
                    "{name} -> {d} targets unknown crate"
                );
            }
        }
    }

    #[test]
    fn back_edge_rejected() {
        let m = parse_manifest(
            "crates/util/Cargo.toml",
            "[package]\nname = \"pg_util\"\n[dependencies]\npg_hls.workspace = true\n",
        );
        let mut f = Vec::new();
        check_manifest(&m, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "dag");
        assert!(f[0].message.contains("back-edge"));
    }

    #[test]
    fn external_dep_rejected() {
        let m = parse_manifest(
            "crates/util/Cargo.toml",
            "[package]\nname = \"pg_util\"\n[dependencies]\nserde = \"1\"\n",
        );
        let mut f = Vec::new();
        check_manifest(&m, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "external_dep");
    }

    #[test]
    fn conforming_manifest_passes() {
        let m = parse_manifest(
            "crates/hls/Cargo.toml",
            "[package]\nname = \"pg_hls\"\n[dependencies]\npg_ir.workspace = true\npg_util.workspace = true\n",
        );
        let mut f = Vec::new();
        check_manifest(&m, &mut f);
        assert!(f.is_empty(), "{f:?}");
    }
}
