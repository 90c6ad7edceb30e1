//! Source-level rule implementations (the D/S/H families).
//!
//! Every check walks the significant-token stream of a [`SourceFile`]; none
//! of them look at raw text, so identifiers inside strings and comments can
//! never trigger a finding.

use crate::engine::{Finding, Severity};
use crate::source::{FileClass, SourceFile};

/// Per-workspace rule configuration: which modules count as threaded, which
/// paths are panic-audited, which files are exempt from the clock rule.
pub struct Config {
    /// Files where float-determinism rules apply (threads may interleave).
    pub threaded_modules: Vec<String>,
    /// Path prefixes where `unwrap`/`expect`/`panic!` is banned in lib code.
    pub panic_scopes: Vec<String>,
    /// Path suffixes exempt from the `wall_clock` rule.
    pub time_exempt: Vec<String>,
}

impl Config {
    /// The configuration for *this* workspace, mirroring the ROADMAP
    /// standing constraints.
    pub fn house() -> Self {
        Config {
            threaded_modules: vec![
                "crates/gnn/src/serve.rs".to_string(),
                "crates/gnn/src/train.rs".to_string(),
                "crates/datasets/src/build.rs".to_string(),
            ],
            panic_scopes: vec![
                "crates/store/src/".to_string(),
                "crates/gnn/src/serve.rs".to_string(),
                "crates/gnn/src/pool.rs".to_string(),
                "crates/gnn/src/admission.rs".to_string(),
                "crates/core/src/daemon.rs".to_string(),
            ],
            // metrics is the sanctioned timing seam; bench exists to
            // measure.
            time_exempt: vec![
                "crates/util/src/metrics.rs".to_string(),
                "crates/bench/".to_string(),
            ],
        }
    }
}

fn push(
    findings: &mut Vec<Finding>,
    f: &SourceFile,
    rule: &str,
    severity: Severity,
    line: u32,
    message: String,
) {
    if f.suppressed(rule, line) {
        return;
    }
    findings.push(Finding {
        rule: rule.to_string(),
        severity,
        path: f.path.clone(),
        line,
        message,
        snippet: f.line_text(line).to_string(),
    });
}

/// Runs every source-level rule over one file.
pub fn check_file(f: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    for (line, msg) in &f.bad_suppressions {
        // Deliberately not suppressible: a broken suppression must never be
        // able to silence itself.
        findings.push(Finding {
            rule: "bad_suppression".to_string(),
            severity: Severity::Error,
            path: f.path.clone(),
            line: *line,
            message: msg.clone(),
            snippet: f.line_text(*line).to_string(),
        });
    }
    check_map_iter(f, findings);
    check_wall_clock(f, cfg, findings);
    check_float(f, cfg, findings);
    check_unsafe(f, findings);
    check_panic(f, cfg, findings);
    check_print(f, findings);
    check_allow_reason(f, findings);
    check_metric_name(f, findings);
}

/// `map_iter` (D): iterating a `HashMap`/`HashSet` in non-test library code.
///
/// Two passes. Pass one records identifiers bound to hash collections, via
/// `name: ... HashMap<...>` field/param declarations and
/// `name = HashMap::new()` / `HashSet::with_capacity(...)` initialisers,
/// walking back over wrapper types (`Mutex<HashMap<..>>` etc). Pass two
/// flags order-dependent traversals: `for .. in &name`, `name.iter()`,
/// `.keys()`, `.values()`, `.into_values()`, `.into_keys()`, `.drain()`,
/// `.into_iter()` — and any such call chained directly onto a `HashMap`/
/// `HashSet` expression.
fn check_map_iter(f: &SourceFile, findings: &mut Vec<Finding>) {
    if f.class != FileClass::Lib {
        return;
    }
    let sig = f.significant();
    let word = |i: usize| f.tok_text(&f.tokens[sig[i]]);
    let n = sig.len();

    const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
    const ITER_METHODS: [&str; 7] = [
        "iter",
        "keys",
        "values",
        "into_values",
        "into_keys",
        "drain",
        "into_iter",
    ];

    // Pass 1: names declared as hash collections.
    let mut hash_names: Vec<String> = Vec::new();
    for i in 0..n {
        if !HASH_TYPES.contains(&word(i)) {
            continue;
        }
        // Walk back over `<`, wrapper idents, `::`, to find `name :` or
        // `name =`. Example: `map: Mutex<HashMap<K, V>>`.
        let mut j = i;
        let mut hops = 0;
        while j > 0 && hops < 8 {
            let prev = word(j - 1);
            match prev {
                "<" | "::" | "&" | "&&" | "mut" => {
                    j -= 1;
                    hops += 1;
                }
                _ if prev
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_') =>
                {
                    // Wrapper type ident (Mutex, Arc, Option, std, ...)
                    // only if it is itself followed by `<` or `::`.
                    if j >= 1 && (word(j) == "<" || word(j) == "::") {
                        j -= 1;
                        hops += 1;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        if j >= 2 && (word(j - 1) == ":" || word(j - 1) == "=") {
            let name = word(j - 2);
            if name
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
                && !hash_names.iter().any(|h| h == name)
            {
                hash_names.push(name.to_string());
            }
        }
    }

    // Pass 2: flag traversals.
    for i in 0..n {
        let t = &f.tokens[sig[i]];
        if f.in_test_region(t.start) {
            continue;
        }
        let w = f.tok_text(t);

        // `name.iter()` / `name.drain()` ... where name is a known hash name.
        if hash_names.iter().any(|h| h == w)
            && i + 3 < n
            && word(i + 1) == "."
            && ITER_METHODS.contains(&word(i + 2))
            && word(i + 3) == "("
        {
            push(
                findings,
                f,
                "map_iter",
                Severity::Error,
                t.line,
                format!(
                    "`{w}.{}()` iterates a hash collection in library code; \
                     iteration order is process-random — use BTreeMap/BTreeSet \
                     or sort before iterating",
                    word(i + 2)
                ),
            );
            continue;
        }

        // `for pat in [&[mut]] name` — direct loop over a hash collection.
        if w == "for" {
            // find the matching `in` before the loop body `{`
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < n {
                match word(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    "in" if depth == 0 => {
                        // expression head after `in`, skipping borrows
                        let mut k = j + 1;
                        while k < n && matches!(word(k), "&" | "&&" | "mut") {
                            k += 1;
                        }
                        if k < n && hash_names.iter().any(|h| h == word(k)) {
                            // plain `for x in &map` (not `map.something`)
                            let next = if k + 1 < n { word(k + 1) } else { "" };
                            if next == "{" {
                                push(
                                    findings,
                                    f,
                                    "map_iter",
                                    Severity::Error,
                                    f.tokens[sig[k]].line,
                                    format!(
                                        "`for .. in {}` iterates a hash collection in \
                                         library code; iteration order is process-random",
                                        word(k)
                                    ),
                                );
                            }
                        }
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }

        // `HashMap::from(..).into_iter()`-style direct chains.
        if HASH_TYPES.contains(&w) && i + 2 < n && word(i + 1) == "::" {
            // scan forward to the end of the call and check for an
            // immediate iteration method.
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut seen_call = false;
            while j < n {
                match word(j) {
                    "(" => {
                        depth += 1;
                        seen_call = true;
                    }
                    ")" => {
                        depth -= 1;
                        if depth == 0 && seen_call {
                            if j + 3 < n
                                && word(j + 1) == "."
                                && ITER_METHODS.contains(&word(j + 2))
                                && word(j + 3) == "("
                                && !f.in_test_region(f.tokens[sig[j + 2]].start)
                            {
                                push(
                                    findings,
                                    f,
                                    "map_iter",
                                    Severity::Error,
                                    f.tokens[sig[j + 2]].line,
                                    format!(
                                        "`{w}::..().{}()` iterates a hash collection \
                                         in library code",
                                        word(j + 2)
                                    ),
                                );
                            }
                            break;
                        }
                    }
                    ";" | "{" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
        }
    }
}

/// `wall_clock` (D): `Instant`/`SystemTime` outside the metrics seam.
fn check_wall_clock(f: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    if f.class != FileClass::Lib {
        return;
    }
    if cfg.time_exempt.iter().any(|p| f.path.starts_with(p)) {
        return;
    }
    let sig = f.significant();
    for &ti in &sig {
        let t = &f.tokens[ti];
        if f.in_test_region(t.start) {
            continue;
        }
        let w = f.tok_text(t);
        if w == "Instant" || w == "SystemTime" {
            push(
                findings,
                f,
                "wall_clock",
                Severity::Error,
                t.line,
                format!(
                    "`{w}` in library code: wall-clock time is nondeterministic; \
                     route timing through pg_util::metrics or move it to a bin"
                ),
            );
        }
    }
}

/// `float_cast` / `float_fold` (D): lossy float as-casts and non-fixed-order
/// float reductions in modules that run under threads.
fn check_float(f: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    if !cfg.threaded_modules.iter().any(|m| &f.path == m) {
        return;
    }
    let sig = f.significant();
    let word = |i: usize| f.tok_text(&f.tokens[sig[i]]);
    let n = sig.len();
    for i in 0..n {
        let t = &f.tokens[sig[i]];
        if f.in_test_region(t.start) {
            continue;
        }
        let w = f.tok_text(t);
        // `as f32` / `as f64`
        if w == "as" && i + 1 < n && matches!(word(i + 1), "f32" | "f64") {
            push(
                findings,
                f,
                "float_cast",
                Severity::Warning,
                t.line,
                format!(
                    "`as {}` in a threaded module: float conversions are fine \
                     only when the operand order is fixed; confirm the cast \
                     does not depend on thread interleaving",
                    word(i + 1)
                ),
            );
        }
        // `.sum::<f32>()` / `.sum()` / `.product()` after iterator chains, and
        // `fold` with a float accumulator, in threaded modules.
        if (w == "sum" || w == "product") && i >= 1 && word(i - 1) == "." {
            push(
                findings,
                f,
                "float_fold",
                Severity::Warning,
                t.line,
                format!(
                    "iterator `.{w}()` in a threaded module: ensure the \
                     reduction order is fixed (chunk then combine in index \
                     order) or the result is integer-valued"
                ),
            );
        }
    }
}

/// `unsafe_no_safety` (S): every `unsafe` block/impl/fn needs a `// SAFETY:`
/// comment on one of the three preceding token positions.
fn check_unsafe(f: &SourceFile, findings: &mut Vec<Finding>) {
    use crate::lexer::TokKind;
    for (i, t) in f.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || f.tok_text(t) != "unsafe" {
            continue;
        }
        if f.in_test_region(t.start) {
            continue;
        }
        // Look back a few tokens (skipping whitespace) for a SAFETY comment.
        let mut ok = false;
        let mut back = 0;
        let mut j = i;
        while j > 0 && back < 6 {
            j -= 1;
            let p = &f.tokens[j];
            match p.kind {
                TokKind::Ws => continue,
                TokKind::LineComment | TokKind::BlockComment => {
                    if f.tok_text(p).contains("SAFETY:") {
                        ok = true;
                        break;
                    }
                    back += 1;
                }
                _ => {
                    back += 1;
                }
            }
        }
        if !ok {
            push(
                findings,
                f,
                "unsafe_no_safety",
                Severity::Error,
                t.line,
                "`unsafe` without a preceding `// SAFETY:` comment explaining \
                 the invariant that makes it sound"
                    .to_string(),
            );
        }
    }
}

/// `panic_path` (S): `unwrap()`, `expect()` and `panic!` in non-test lib code
/// of the panic-audited scopes (persistence + serving).
fn check_panic(f: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    if f.class != FileClass::Lib {
        return;
    }
    if !cfg.panic_scopes.iter().any(|p| f.path.starts_with(p)) {
        return;
    }
    let sig = f.significant();
    let word = |i: usize| f.tok_text(&f.tokens[sig[i]]);
    let n = sig.len();
    for i in 0..n {
        let t = &f.tokens[sig[i]];
        if f.in_test_region(t.start) {
            continue;
        }
        let w = f.tok_text(t);
        let is_method_call = i >= 1 && word(i - 1) == "." && i + 1 < n && word(i + 1) == "(";
        if (w == "unwrap" || w == "expect") && is_method_call {
            push(
                findings,
                f,
                "panic_path",
                Severity::Error,
                t.line,
                format!(
                    "`.{w}()` in a panic-audited scope: return a typed error \
                     (StoreError / ServeError) instead of aborting"
                ),
            );
        }
        if w == "panic" && i + 1 < n && word(i + 1) == "!" {
            push(
                findings,
                f,
                "panic_path",
                Severity::Error,
                t.line,
                "`panic!` in a panic-audited scope: return a typed error instead".to_string(),
            );
        }
    }
}

/// `print_hygiene` (H): `println!`/`eprintln!`/`print!`/`eprint!` belong in
/// bins, not library code.
fn check_print(f: &SourceFile, findings: &mut Vec<Finding>) {
    if f.class != FileClass::Lib {
        return;
    }
    let sig = f.significant();
    let word = |i: usize| f.tok_text(&f.tokens[sig[i]]);
    let n = sig.len();
    for i in 0..n {
        let t = &f.tokens[sig[i]];
        if f.in_test_region(t.start) {
            continue;
        }
        let w = f.tok_text(t);
        if matches!(w, "println" | "eprintln" | "print" | "eprint")
            && i + 1 < n
            && word(i + 1) == "!"
        {
            push(
                findings,
                f,
                "print_hygiene",
                Severity::Warning,
                t.line,
                format!(
                    "`{w}!` in library code: route user-facing output through \
                     the caller (bin) or a returned report"
                ),
            );
        }
    }
}

/// `metric_name` (H): names registered through `pg_util::metrics` must be
/// lowercase snake_case, counters must end in `_total`, and histograms
/// must carry a unit suffix — the scrape endpoint and `StatsV2` clients
/// key on these conventions, and a registry name is frozen at first use.
///
/// Flags `counter("NAME")` / `gauge_with("name", ..)` /
/// `histogram(..)`-style calls whose first argument is a string literal;
/// names built at runtime are out of reach (and out of house style
/// anyway).
fn check_metric_name(f: &SourceFile, findings: &mut Vec<Finding>) {
    use crate::lexer::TokKind;
    const HIST_UNITS: [&str; 5] = ["_us", "_s", "_bytes", "_graphs", "_ratio"];
    let sig = f.significant();
    let n = sig.len();
    for i in 0..n {
        let t = &f.tokens[sig[i]];
        if f.in_test_region(t.start) {
            continue;
        }
        let w = f.tok_text(t);
        let kind = match w {
            "counter" | "counter_with" => "counter",
            "gauge" | "gauge_with" => "gauge",
            "histogram" | "histogram_with" => "histogram",
            _ => continue,
        };
        // Registration is a plain call with a literal first argument:
        // `counter("name")`, `metrics::histogram_with("name", ...)`.
        // Method calls (`snapshot.histogram("name", ..)`) are lookups,
        // not registrations, but hold the same names to the same style.
        if i + 2 >= n || f.tok_text(&f.tokens[sig[i + 1]]) != "(" {
            continue;
        }
        let arg = &f.tokens[sig[i + 2]];
        if arg.kind != TokKind::Str {
            continue;
        }
        let name = f.tok_text(arg).trim_matches('"');
        let snake = name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            && name.starts_with(|c: char| c.is_ascii_lowercase());
        let problem = if !snake {
            Some("must be lowercase snake_case starting with a letter".to_string())
        } else if kind == "counter" && !name.ends_with("_total") {
            Some("counters must end in `_total`".to_string())
        } else if kind == "histogram" && !HIST_UNITS.iter().any(|u| name.ends_with(u)) {
            Some(format!(
                "histograms must end in a unit suffix ({})",
                HIST_UNITS.join(", ")
            ))
        } else if kind == "gauge" && name.ends_with("_total") {
            Some("`_total` is reserved for counters".to_string())
        } else {
            None
        };
        if let Some(problem) = problem {
            push(
                findings,
                f,
                "metric_name",
                Severity::Warning,
                t.line,
                format!("metric name {name:?} breaks house style: {problem}"),
            );
        }
    }
}

/// `allow_no_reason` (H): every `#[allow(..)]` needs an adjacent
/// `// reason:` comment justifying it.
fn check_allow_reason(f: &SourceFile, findings: &mut Vec<Finding>) {
    use crate::lexer::TokKind;
    let sig = f.significant();
    let word = |i: usize| f.tok_text(&f.tokens[sig[i]]);
    let n = sig.len();
    for i in 0..n {
        if word(i) != "#" || i + 2 >= n || word(i + 1) != "[" || word(i + 2) != "allow" {
            continue;
        }
        let t = &f.tokens[sig[i]];
        if f.in_test_region(t.start) {
            continue;
        }
        // Search backwards in the raw token stream for a `// reason:` comment
        // directly above the attribute (only whitespace/doc comments between).
        let raw_idx = f
            .tokens
            .iter()
            .position(|tok| tok.start == t.start)
            .unwrap_or(0);
        let mut ok = false;
        let mut j = raw_idx;
        let mut non_ws = 0;
        while j > 0 && non_ws < 4 {
            j -= 1;
            let p = &f.tokens[j];
            match p.kind {
                TokKind::Ws => continue,
                TokKind::LineComment | TokKind::BlockComment => {
                    if f.tok_text(p).contains("reason:") {
                        ok = true;
                        break;
                    }
                    non_ws += 1;
                }
                _ => break,
            }
        }
        if !ok {
            push(
                findings,
                f,
                "allow_no_reason",
                Severity::Warning,
                t.line,
                "`#[allow(..)]` without an adjacent `// reason:` comment".to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, class: FileClass, src: &str) -> Vec<Finding> {
        let f = SourceFile::new(path.into(), class, src.into());
        let mut out = Vec::new();
        check_file(&f, &Config::house(), &mut out);
        out
    }

    #[test]
    fn hashmap_iteration_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, u32>) -> u32 {\n\
                   \x20   m.iter().map(|(_, v)| v).sum()\n\
                   }\n";
        let f = lint("crates/x/src/lib.rs", FileClass::Lib, src);
        assert!(f.iter().any(|x| x.rule == "map_iter"), "{f:?}");
    }

    #[test]
    fn hashmap_for_loop_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, u32>) {\n\
                   \x20   for x in &m {}\n\
                   }\n";
        // `m` declared via param `m: HashMap<..>`; `for x in &m`.
        let f = lint("crates/x/src/lib.rs", FileClass::Lib, src);
        assert!(f.iter().any(|x| x.rule == "map_iter"), "{f:?}");
    }

    #[test]
    fn wrapped_hashmap_flagged() {
        let src = "use std::collections::HashMap;\nuse std::sync::Mutex;\n\
                   struct C { map: Mutex<HashMap<u64, u32>> }\n\
                   impl C { fn all(&self) -> Vec<u32> {\n\
                   \x20 let map = self.map.lock().unwrap();\n\
                   \x20 map.values().copied().collect() } }\n";
        let f = lint("crates/x/src/lib.rs", FileClass::Lib, src);
        assert!(f.iter().any(|x| x.rule == "map_iter"), "{f:?}");
    }

    #[test]
    fn lookup_only_hashmap_ok() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, u32>) -> Option<u32> {\n\
                   \x20   m.get(&3).copied()\n\
                   }\n";
        let f = lint("crates/x/src/lib.rs", FileClass::Lib, src);
        assert!(f.iter().all(|x| x.rule != "map_iter"), "{f:?}");
    }

    #[test]
    fn btreemap_iteration_ok() {
        let src = "use std::collections::BTreeMap;\n\
                   fn f(m: BTreeMap<u32, u32>) -> u32 {\n\
                   \x20   m.values().sum()\n\
                   }\n";
        let f = lint("crates/x/src/lib.rs", FileClass::Lib, src);
        assert!(f.iter().all(|x| x.rule != "map_iter"), "{f:?}");
    }

    #[test]
    fn test_code_exempt() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests {\n\
                   \x20 fn f(m: HashMap<u32, u32>) { for x in &m {} let _ = m.iter(); }\n\
                   }\n";
        let f = lint("crates/x/src/lib.rs", FileClass::Lib, src);
        assert!(f.iter().all(|x| x.rule != "map_iter"), "{f:?}");
    }

    #[test]
    fn suppression_silences() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, u32>) -> u32 {\n\
                   \x20 // pg-lint: allow(map_iter, reason = \"summed; order-free\")\n\
                   \x20   m.values().sum()\n\
                   }\n";
        let f = lint("crates/x/src/lib.rs", FileClass::Lib, src);
        assert!(f.iter().all(|x| x.rule != "map_iter"), "{f:?}");
    }

    #[test]
    fn instant_flagged_outside_metrics() {
        let src = "use std::time::Instant;\nfn f() { let _t = Instant::now(); }\n";
        let f = lint("crates/x/src/lib.rs", FileClass::Lib, src);
        assert!(f.iter().any(|x| x.rule == "wall_clock"), "{f:?}");
        let f2 = lint("crates/util/src/metrics.rs", FileClass::Lib, src);
        assert!(f2.iter().all(|x| x.rule != "wall_clock"), "{f2:?}");
        let f3 = lint("crates/x/src/bin/t.rs", FileClass::Bin, src);
        assert!(f3.iter().all(|x| x.rule != "wall_clock"), "{f3:?}");
        // Only metrics.rs is a timing seam inside pg_util.
        let f4 = lint("crates/util/src/prof.rs", FileClass::Lib, src);
        assert!(f4.iter().any(|x| x.rule == "wall_clock"), "{f4:?}");
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let good = "fn f(p: *const u8) -> u8 {\n\
                    \x20 // SAFETY: caller guarantees p is valid for reads.\n\
                    \x20 unsafe { *p } }\n";
        assert!(lint("crates/x/src/lib.rs", FileClass::Lib, bad)
            .iter()
            .any(|x| x.rule == "unsafe_no_safety"));
        assert!(lint("crates/x/src/lib.rs", FileClass::Lib, good)
            .iter()
            .all(|x| x.rule != "unsafe_no_safety"));
    }

    #[test]
    fn panic_scoped_to_store_and_serve() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint("crates/store/src/codec.rs", FileClass::Lib, src)
            .iter()
            .any(|x| x.rule == "panic_path"));
        assert!(lint("crates/gnn/src/serve.rs", FileClass::Lib, src)
            .iter()
            .any(|x| x.rule == "panic_path"));
        // unwrap is tolerated elsewhere (clippy's job, not pg-lint's).
        assert!(lint("crates/hls/src/lower.rs", FileClass::Lib, src)
            .iter()
            .all(|x| x.rule != "panic_path"));
    }

    #[test]
    fn println_flagged_in_lib_only() {
        let src = "fn f() { println!(\"hi\"); }\n";
        assert!(lint("crates/x/src/lib.rs", FileClass::Lib, src)
            .iter()
            .any(|x| x.rule == "print_hygiene"));
        assert!(lint("crates/x/src/bin/t.rs", FileClass::Bin, src)
            .iter()
            .all(|x| x.rule != "print_hygiene"));
    }

    #[test]
    fn allow_needs_reason() {
        let bad = "#[allow(dead_code)]\nfn f() {}\n";
        let good = "// reason: kept for the v2 codec migration.\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(lint("crates/x/src/lib.rs", FileClass::Lib, bad)
            .iter()
            .any(|x| x.rule == "allow_no_reason"));
        assert!(lint("crates/x/src/lib.rs", FileClass::Lib, good)
            .iter()
            .all(|x| x.rule != "allow_no_reason"));
    }

    #[test]
    fn metric_names_follow_house_style() {
        let bad = "fn f() {\n\
                   \x20 let _ = pg_util::metrics::counter(\"served\");\n\
                   \x20 let _ = pg_util::metrics::histogram(\"latency\", B);\n\
                   \x20 let _ = pg_util::metrics::gauge(\"depth_total\");\n\
                   \x20 let _ = pg_util::metrics::counter_with(\"CamelTotal\", &[]);\n\
                   }\n";
        let f = lint("crates/x/src/lib.rs", FileClass::Lib, bad);
        assert_eq!(
            f.iter().filter(|x| x.rule == "metric_name").count(),
            4,
            "{f:?}"
        );
        let good = "fn f() {\n\
                    \x20 let _ = pg_util::metrics::counter(\"served_total\");\n\
                    \x20 let _ = pg_util::metrics::histogram(\"latency_us\", B);\n\
                    \x20 let _ = pg_util::metrics::gauge(\"queue_depth\");\n\
                    \x20 let _ = pg_util::metrics::counter(&dynamic_name);\n\
                    }\n";
        let f2 = lint("crates/x/src/lib.rs", FileClass::Lib, good);
        assert!(f2.iter().all(|x| x.rule != "metric_name"), "{f2:?}");
    }

    #[test]
    fn float_rules_only_in_threaded_modules() {
        let src =
            "fn f(v: &[f64], x: u32) -> f64 { let y = x as f64; v.iter().sum::<f64>() + y }\n";
        let f = lint("crates/gnn/src/train.rs", FileClass::Lib, src);
        assert!(f.iter().any(|x| x.rule == "float_cast"), "{f:?}");
        assert!(f.iter().any(|x| x.rule == "float_fold"), "{f:?}");
        let f2 = lint("crates/gnn/src/model.rs", FileClass::Lib, src);
        assert!(f2
            .iter()
            .all(|x| x.rule != "float_cast" && x.rule != "float_fold"));
    }

    #[test]
    fn identifiers_in_strings_ignored() {
        let src = "fn f() -> &'static str { \"Instant HashMap println! unwrap()\" }\n";
        let f = lint("crates/store/src/x.rs", FileClass::Lib, src);
        assert!(f.is_empty(), "{f:?}");
    }
}
