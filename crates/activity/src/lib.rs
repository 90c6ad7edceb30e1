//! Switching-activity tracing for HLS designs.
//!
//! The paper instruments detection probes at the IR level, links them with
//! the testbench, runs the executable, and derives per-edge switching
//! activities (Eq. 2) and activation rates (Eq. 3) from the traced variable
//! values. This crate reproduces that flow natively:
//!
//! * [`Stimuli`] — deterministic testbench inputs per kernel;
//! * [`execute`] — an IR interpreter that runs a scheduled design over its
//!   iteration spaces, stamping every produced/consumed value with the FSMD
//!   cycle it occurs in (the "detection probe" equivalent). It works a
//!   column at a time: each traced value is computed, stored, folded and
//!   encoded once (SSA operands alias their producer's column), ops free of
//!   memory the block writes run op-major over whole columns, and only the
//!   memory-carried chain runs iteration by iteration (see [`exec`]);
//! * [`switching_activity`] / [`activation_rate`] — the Eq. 2 / Eq. 3 math
//!   over traced bit vectors (Hamming distance between consecutive values,
//!   normalized by design latency);
//! * [`events`] — the flat per-design [`EventArena`] holding every traced
//!   stream in run-length/delta compressed form (`(offset, len)` refs
//!   instead of per-stream allocations), with streaming SA/AR folds that
//!   consume the compressed runs directly.
//!
//! # Examples
//!
//! ```
//! use pg_activity::{execute, Stimuli};
//! use pg_hls::{Directives, HlsFlow};
//! use pg_ir::{ArrayKind, KernelBuilder};
//! use pg_ir::expr::{aff, Expr};
//!
//! let k = KernelBuilder::new("scale")
//!     .array("x", &[8], ArrayKind::Input)
//!     .array("y", &[8], ArrayKind::Output)
//!     .loop_("i", 8, |b| {
//!         b.assign(("y", vec![aff("i")]),
//!                  Expr::load("x", vec![aff("i")]) * Expr::Const(2.0));
//!     })
//!     .build()?;
//! let design = HlsFlow::new().run(&k, &Directives::new())?;
//! let stim = Stimuli::for_kernel(&k, 0);
//! let trace = pg_activity::execute(&design, &stim);
//! assert_eq!(trace.latency, design.report.latency_cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod events;
pub mod exec;
pub mod sa;
pub mod stimuli;

pub use events::{EventArena, EventRef};
pub use exec::{execute, execute_in, ExecutionTrace, TraceScratch};
pub use sa::{activation_rate, sa_ar, switching_activity, NodeActivity};
pub use stimuli::Stimuli;
