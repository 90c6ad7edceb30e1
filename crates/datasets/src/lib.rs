//! Datasets: the paper's nine Polybench kernels, directive design spaces,
//! synthetic training kernels, and the end-to-end labeled-sample builder.
//!
//! * [`mod@polybench`] — atax, bicg, gemm, gesummv, 2mm, 3mm, mvt, syrk, syr2k
//!   as loop-nest ASTs (Table I workloads);
//! * [`space`] — pipeline × unroll × partition design-space enumeration and
//!   deterministic sampling;
//! * [`synthetic`] — random affine kernels "to increase the diversity of
//!   loop patterns in training" (§IV);
//! * [`build`] — kernel + directives → HLS → trace → [`pg_graphcon::PowerGraph`]
//!   (metadata attached) → oracle power labels;
//! * [`cache`] — a thread-safe memoizing [`HlsCache`] so identical
//!   kernel+directive pairs are synthesized once per process;
//! * [`snapshot`] — persist/restore fully-labeled datasets (`pg_store`
//!   containers), skipping synthesis, tracing and the oracle entirely;
//! * [`splits`] — the leave-one-kernel-out evaluation protocol.
//!
//! # Examples
//!
//! ```no_run
//! use pg_datasets::{build_kernel_dataset, polybench, DatasetConfig, PowerTarget};
//! let kernel = polybench::gemm(12);
//! let ds = build_kernel_dataset(&kernel, &DatasetConfig::default());
//! let labeled = ds.labeled(PowerTarget::Dynamic);
//! println!("{} samples, avg {} nodes", labeled.len(), ds.avg_nodes());
//! ```

pub mod build;
pub mod cache;
pub mod polybench;
pub mod snapshot;
pub mod space;
pub mod splits;
pub mod synthetic;

pub use build::{
    build_all, build_graphs_cached, build_kernel_dataset, build_kernel_dataset_cached,
    build_sample, build_sample_cached, sample_from_design, sample_from_design_in, DatasetConfig,
    KernelDataset, PowerTarget, Sample,
};
pub use cache::{kernel_fingerprint, HlsCache, KernelSession};
pub use polybench::{by_name, polybench, KERNEL_NAMES};
pub use snapshot::{load_dataset, save_dataset};
pub use space::{enumerate_space, sample_space};
pub use splits::{all_splits, leave_one_out, LooSplit};
pub use synthetic::{synthetic_kernel, synthetic_kernels};
