//! Regenerates **Fig. 4**: latency vs dynamic-power Pareto frontiers of
//! Atax and Mvt under PowerGear-guided DSE at a 40 % sampling budget —
//! exact frontier, approximate frontier and the design-point cloud.
//!
//! Emits `results/fig4_<kernel>.csv` plus an ASCII rendering.
//!
//! ```text
//! cargo run -p powergear-bench --release --bin fig4 [-- --full]
//! ```

use pg_dse::{run_dse, DseConfig, Point};
use pg_util::CsvWriter;
use powergear_bench::drivers::{evaluate_all, results_dir, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    eprintln!("[fig4] config hash {:016x}", cfg.hash());
    let ctx = evaluate_all(&cfg);

    for kernel in ["atax", "mvt"] {
        let rows = ctx.rows_of(kernel);
        if rows.is_empty() {
            eprintln!("[fig4] no rows for {kernel}, skipping");
            continue;
        }
        let latency: Vec<f64> = rows.iter().map(|r| r.latency).collect();
        let truth: Vec<f64> = rows.iter().map(|r| r.truth_dyn).collect();
        let pg: Vec<f64> = rows.iter().map(|r| r.pg_dyn).collect();
        let out = run_dse(&latency, &truth, &pg, &DseConfig::with_budget(0.4, 7));

        let exact: Vec<usize> = out.exact_frontier.iter().map(|p| p.id).collect();
        let approx: Vec<usize> = out.approx_frontier.iter().map(|p| p.id).collect();
        let mut csv = CsvWriter::new(&[
            "latency_cycles",
            "dynamic_power_w",
            "sampled",
            "exact_frontier",
            "approx_frontier",
        ]);
        for (i, (&l, &p)) in latency.iter().zip(&truth).enumerate() {
            csv.row(&[
                l,
                p,
                out.sampled.contains(&i) as i32 as f64,
                exact.contains(&i) as i32 as f64,
                approx.contains(&i) as i32 as f64,
            ]);
        }
        let path = results_dir().join(format!("fig4_{kernel}.csv"));
        csv.save(&path).expect("write csv");
        eprintln!(
            "[fig4] {kernel}: ADRS {:.4} -> {}",
            out.adrs,
            path.display()
        );

        println!(
            "\nFig. 4 ({kernel}): latency vs dynamic power (ADRS {:.4})",
            out.adrs
        );
        println!("{}", ascii_plot(&latency, &truth, &exact, &approx));
    }
}

/// Crude terminal scatter: `.` design point, `o` exact frontier, `x`
/// approximate frontier, `*` both.
fn ascii_plot(latency: &[f64], power: &[f64], exact: &[usize], approx: &[usize]) -> String {
    const W: usize = 72;
    const H: usize = 22;
    let (lmin, lmax) = min_max(latency);
    let (pmin, pmax) = min_max(power);
    let mut grid = vec![vec![' '; W]; H];
    let place = |grid: &mut Vec<Vec<char>>, l: f64, p: f64, c: char| {
        let x = ((l - lmin) / (lmax - lmin).max(1e-12) * (W - 1) as f64) as usize;
        let y = ((p - pmin) / (pmax - pmin).max(1e-12) * (H - 1) as f64) as usize;
        let row = H - 1 - y;
        let cur = grid[row][x];
        let rank = |ch: char| match ch {
            '*' => 3,
            'x' => 2,
            'o' => 1,
            '.' => 0,
            _ => -1,
        };
        if rank(c) > rank(cur) {
            grid[row][x] = c;
        }
    };
    for (i, (&l, &p)) in latency.iter().zip(power).enumerate() {
        let on_exact = exact.contains(&i);
        let on_approx = approx.contains(&i);
        let c = match (on_exact, on_approx) {
            (true, true) => '*',
            (true, false) => 'o',
            (false, true) => 'x',
            (false, false) => '.',
        };
        place(&mut grid, l, p, c);
    }
    let mut s = String::new();
    s.push_str(&format!("  power [{pmin:.3}, {pmax:.3}] W\n"));
    for row in grid {
        s.push_str("  |");
        s.extend(row);
        s.push('\n');
    }
    s.push_str(&format!(
        "  +{}\n   latency [{lmin:.0}, {lmax:.0}] cycles   (.)point (o)exact (x)approx (*)both\n",
        "-".repeat(W)
    ));
    s
}

fn min_max(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (lo, hi)
}

/// A [`Point`] is re-exported so plot tooling can consume the CSV schema.
// reason: the marker exists only to pin the CSV schema type; it is never
// called from the bin itself.
#[allow(dead_code)]
fn _schema_marker(_: Point) {}
