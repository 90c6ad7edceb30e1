//! Benchmark harness shared code: experiment drivers that regenerate every
//! table and figure of the paper's evaluation (§IV).
//!
//! The binaries are thin wrappers:
//!
//! * `table1` — dataset properties, total/dynamic power estimation errors
//!   for Vivado / HL-Pow / PowerGear / GCN / GraphSage / GraphConv / GINE,
//!   and the runtime speedup column;
//! * `table2` — the HEC-GNN ablation (w/o opt., w/o e.f., w/o dir.,
//!   w/o hetr., w/o md., sgl., prop.);
//! * `table3` — DSE ADRS at 20/30/40 % sampling budgets with the three
//!   prediction models;
//! * `fig4` — latency/dynamic-power Pareto frontiers for Atax and Mvt
//!   (CSV + ASCII rendering).
//!
//! Every driver accepts an [`EvalConfig`]; `--full` on the binaries raises
//! the scale toward the paper's settings.

pub mod drivers;
pub mod loadgen;
pub mod runtime;

pub use drivers::{EvalConfig, EvalContext};
pub use loadgen::{fetch_stats_v2, run_load, server_delta, LoadConfig, LoadReport, ServerDelta};
