//! Regenerates **Table I**: dataset properties, total- and dynamic-power
//! estimation errors for every method, and the runtime speedup over the
//! Vivado estimator surrogate.
//!
//! ```text
//! cargo run -p powergear-bench --release --bin table1 [-- --full] [--kernels atax,mvt]
//! ```

use pg_util::{mean, Table};
use powergear_bench::drivers::{evaluate_all, results_dir, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    eprintln!("[table1] config hash {:016x}", cfg.hash());
    let ctx = evaluate_all(&cfg);

    let mut table = Table::new(&[
        "Dataset",
        "#Samples",
        "Avg.#Nodes",
        "Viv tot%",
        "HLP tot%",
        "PG tot%",
        "GCN dyn%",
        "Sage dyn%",
        "GConv dyn%",
        "GINE dyn%",
        "HLP dyn%",
        "PG dyn%",
        "Speedup",
    ]);

    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 11];
    for info in &ctx.info {
        let k = &info.kernel;
        let viv_t = ctx.kernel_mape(k, |r| r.viv_total, |r| r.truth_total);
        let hlp_t = ctx.kernel_mape(k, |r| r.hlpow_total, |r| r.truth_total);
        let pg_t = ctx.kernel_mape(k, |r| r.pg_total, |r| r.truth_total);
        let gcn = ctx.kernel_mape(k, |r| r.gcn_dyn, |r| r.truth_dyn);
        let sage = ctx.kernel_mape(k, |r| r.sage_dyn, |r| r.truth_dyn);
        let gconv = ctx.kernel_mape(k, |r| r.gconv_dyn, |r| r.truth_dyn);
        let gine = ctx.kernel_mape(k, |r| r.gine_dyn, |r| r.truth_dyn);
        let hlp_d = ctx.kernel_mape(k, |r| r.hlpow_dyn, |r| r.truth_dyn);
        let pg_d = ctx.kernel_mape(k, |r| r.pg_dyn, |r| r.truth_dyn);
        let speedup = info.viv_ms / info.pg_ms.max(1e-9);
        let vals = [
            viv_t, hlp_t, pg_t, gcn, sage, gconv, gine, hlp_d, pg_d, speedup,
        ];
        for (c, v) in cols
            .iter_mut()
            .zip(std::iter::once(info.avg_nodes).chain(vals.iter().copied()))
        {
            c.push(v);
        }
        table.row(vec![
            k.clone(),
            info.n_samples.to_string(),
            format!("{:.0}", info.avg_nodes),
            Table::fmt_f(viv_t, 2),
            Table::fmt_f(hlp_t, 2),
            Table::fmt_f(pg_t, 2),
            Table::fmt_f(gcn, 2),
            Table::fmt_f(sage, 2),
            Table::fmt_f(gconv, 2),
            Table::fmt_f(gine, 2),
            Table::fmt_f(hlp_d, 2),
            Table::fmt_f(pg_d, 2),
            format!("{:.2}x", speedup),
        ]);
    }
    let n_avg = mean(
        &ctx.info
            .iter()
            .map(|i| i.n_samples as f64)
            .collect::<Vec<_>>(),
    );
    table.row(vec![
        "Average".into(),
        format!("{n_avg:.0}"),
        format!("{:.0}", mean(&cols[0])),
        Table::fmt_f(mean(&cols[1]), 2),
        Table::fmt_f(mean(&cols[2]), 2),
        Table::fmt_f(mean(&cols[3]), 2),
        Table::fmt_f(mean(&cols[4]), 2),
        Table::fmt_f(mean(&cols[5]), 2),
        Table::fmt_f(mean(&cols[6]), 2),
        Table::fmt_f(mean(&cols[7]), 2),
        Table::fmt_f(mean(&cols[8]), 2),
        Table::fmt_f(mean(&cols[9]), 2),
        format!("{:.2}x", mean(&cols[10])),
    ]);

    println!("\nTable I (reproduced): estimation error (MAPE %) and speedup\n");
    println!("{table}");
    let out = results_dir().join("table1.txt");
    std::fs::write(&out, format!("{table}")).ok();
    eprintln!("[table1] written to {}", out.display());
}
