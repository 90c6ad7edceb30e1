//! # pg_lint — workspace-native static analyzer
//!
//! Enforces the determinism and architecture invariants this reproduction
//! depends on, directly over the workspace's own Rust sources and Cargo
//! manifests. No external dependencies, no syn/quote — a small hand-rolled
//! lexer ([`lexer`]), a line-aware rule engine ([`check`], [`engine`]) and a
//! minimal manifest reader ([`manifest`], [`arch`]).
//!
//! ## Rule catalog
//!
//! | rule | family | severity | scope | what it catches |
//! |------|--------|----------|-------|-----------------|
//! | `map_iter` | D determinism | error | lib code, non-test | iterating `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain()`, `.into_iter()`, `for .. in &map`) — iteration order is process-random |
//! | `wall_clock` | D determinism | error | lib code outside `pg_util::metrics` and `powergear_bench` | `Instant` / `SystemTime` — wall-clock reads leak nondeterminism into artifacts; route timing through `pg_util::metrics` |
//! | `float_cast` | D determinism | warning | threaded modules (`pg_gnn::serve`, `pg_gnn::train`, `pg_datasets::build`) | `as f32` / `as f64` casts whose operand order may depend on thread interleaving |
//! | `float_fold` | D determinism | warning | threaded modules | iterator `.sum()` / `.product()` reductions without a fixed combine order |
//! | `dag` | A architecture | error | every `Cargo.toml` | dependency edges missing from the ROADMAP DAG (back-edges, undocumented layering), members/table drift, cyclic table |
//! | `external_dep` | A architecture | error | every `Cargo.toml` | any non-workspace, non-vendored dependency (the build is offline) |
//! | `unsafe_no_safety` | S safety | error | all non-test code | `unsafe` without a preceding `// SAFETY:` comment |
//! | `panic_path` | S safety | error | `pg_store` lib, `pg_gnn::{serve,pool,admission}` and the daemon, non-test | `.unwrap()` / `.expect()` / `panic!` where typed errors are required |
//! | `print_hygiene` | H hygiene | warning | lib code | `println!` / `eprintln!` / `print!` / `eprint!` in library code |
//! | `allow_no_reason` | H hygiene | warning | all non-test code | `#[allow(..)]` without an adjacent `// reason:` comment |
//! | `bad_suppression` | H hygiene | error | everywhere | malformed or reason-less `// pg-lint: allow(..)` comments (not suppressible) |
//!
//! ## Suppressions and baseline
//!
//! A finding can be silenced at the site with
//! `// pg-lint: allow(<rule>, reason = "...")` on the same or preceding
//! line — the reason is mandatory. Pre-existing findings are grandfathered
//! in `pg-lint.baseline` (tab-separated `rule / path / line-fingerprint /
//! count / reason`); the fingerprint hashes the offending line's text, so
//! entries survive unrelated edits but die with the line they excuse. Stale
//! entries fail the run so the baseline can only shrink.
//!
//! ## CLI
//!
//! ```text
//! cargo run -p pg_lint -- --workspace [--deny-warnings] [--json out.jsonl]
//!                         [--baseline pg-lint.baseline] [--write-baseline]
//!                         [--root DIR]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage/IO error.

pub mod arch;
pub mod check;
pub mod engine;
pub mod lexer;
pub mod manifest;
pub mod source;

pub use check::Config;
pub use engine::{
    apply_baseline, parse_baseline, render_baseline, run_workspace, Finding, Report, Severity,
};
