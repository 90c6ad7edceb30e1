//! Design space exploration (the paper's case study, §IV-C).
//!
//! Provides the latency/dynamic-power [`pareto::pareto_frontier`], the
//! [`adrs::adrs`] quality metric (Eq. 8), and the iterative
//! prediction-guided sampling loop ([`explore::run_dse`]) used to produce
//! Table III and Fig. 4.
//!
//! # Examples
//!
//! ```
//! use pg_dse::{run_dse, DseConfig};
//! let latency = vec![100.0, 50.0, 25.0, 12.5];
//! let power =   vec![0.05, 0.08, 0.15, 0.40];
//! let out = run_dse(&latency, &power, &power, &DseConfig::with_budget(1.0, 1));
//! assert!(out.adrs < 1e-12);
//! ```

pub mod adrs;
pub mod explore;
pub mod pareto;

pub use adrs::{adrs, point_distance};
pub use explore::{run_dse, DseConfig, DseOutcome};
pub use pareto::{dominates, pareto_frontier, Point};
