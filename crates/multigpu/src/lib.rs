//! Whole-node assembly and measurement harness: builds the non-uniform
//! bandwidth multi-GPU system of Figure 2 (clusters of GPUs behind
//! per-cluster switches, 128 GB/s inside a cluster, 16 GB/s between
//! clusters), runs workloads on it, and harvests the statistics every
//! paper figure is derived from.
//!
//! * [`System`] — wires CUs, L2s, DRAMs, translation units, RDMA engines
//!   and switches into a deterministic engine, with NetCrafter's Cluster
//!   Queues installed on the inter-cluster egress ports when enabled.
//! * [`Experiment`] / [`SystemVariant`] — the evaluation configurations
//!   of §5: baseline, ideal (uniform high bandwidth), each NetCrafter
//!   mechanism in isolation and combination, the sector-cache baseline,
//!   and the sensitivity-study variants (pooling windows, flit sizes,
//!   bandwidth ratios).
//! * [`RunResult`] — execution time plus the derived measures the figures
//!   plot (link utilization, padding distribution, PTW traffic share,
//!   stitch rate, L1 MPKI, inter-cluster read latency).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod experiment;
pub mod system;

#[allow(deprecated)]
pub use experiment::JobSpec;
pub use experiment::{
    CheckpointPlan, CheckpointedRun, Experiment, RunResult, SystemVariant, TraceData, TraceOptions,
};
pub use system::{LinkSeries, System};
