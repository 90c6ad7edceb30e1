//! Regenerates **Table II**: dynamic-power estimation error of the seven
//! HEC-GNN ablation variants (w/o opt., w/o e.f., w/o dir., w/o hetr.,
//! w/o md., sgl., prop.) under leave-one-kernel-out evaluation.
//!
//! ```text
//! cargo run -p powergear-bench --release --bin table2 [-- --full] [--kernels atax,mvt]
//! ```

use pg_util::{mean, Table};
use powergear_bench::drivers::{ablation_all, results_dir, EvalConfig};

const VARIANTS: [&str; 7] = [
    "w/o opt.",
    "w/o e.f.",
    "w/o dir.",
    "w/o hetr.",
    "w/o md.",
    "sgl.",
    "prop.",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    eprintln!("[table2] config hash {:016x}", cfg.hash());
    let results = ablation_all(&cfg);

    let mut header = vec!["Dataset"];
    header.extend(VARIANTS);
    let mut table = Table::new(&header);
    let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); VARIANTS.len()];
    for kernel in cfg.kernel_names() {
        let mut row = vec![kernel.clone()];
        for (vi, v) in VARIANTS.iter().enumerate() {
            let err = results
                .iter()
                .find(|(name, k, _)| name == v && *k == kernel)
                .map(|(_, _, e)| *e)
                .unwrap_or(f64::NAN);
            per_variant[vi].push(err);
            row.push(Table::fmt_f(err, 2));
        }
        table.row(row);
    }
    let mut avg_row = vec!["Average".to_string()];
    for col in &per_variant {
        avg_row.push(Table::fmt_f(mean(col), 2));
    }
    table.row(avg_row);

    println!("\nTable II (reproduced): dynamic-power error (%) of HEC-GNN variants\n");
    println!("{table}");
    let out = results_dir().join("table2.txt");
    std::fs::write(&out, format!("{table}")).ok();
    eprintln!("[table2] written to {}", out.display());
}
