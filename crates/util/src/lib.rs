//! Shared utilities for the PowerGear reproduction workspace.
//!
//! Provides a deterministic pseudo-random number generator ([`Rng64`]),
//! summary statistics used throughout the evaluation harness, plain-text
//! table/CSV writers used by the benchmark binaries to regenerate the
//! paper's tables and figures, the binaries' flag parser
//! ([`flag_value`]), and the workspace observability layer ([`metrics`]
//! registry, including the pipeline stage timers, + [`trace`]
//! per-request spans) surfaced by the serving daemon.
//!
//! # Examples
//!
//! ```
//! use pg_util::{mean, Rng64};
//! let mut rng = Rng64::new(1);
//! let xs: Vec<f64> = (0..8).map(|_| rng.f64()).collect();
//! assert!(mean(&xs) > 0.0);
//! ```

pub mod cli;
pub mod csv;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod table;
pub mod trace;

pub use cli::flag_value;
pub use csv::CsvWriter;
pub use rng::Rng64;
pub use stats::{mape, mean, median, percentile, rmse, stddev};
pub use table::Table;
