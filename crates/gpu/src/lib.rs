//! The GPU model: compute units executing coalesced wavefront access
//! streams, the RDMA engine bridging each GPU onto the inter-GPU network,
//! and LASP CTA scheduling / page placement (§2.1–§2.2).
//!
//! * [`Cu`] — a compute unit with its private L1 TLB and sectored L1
//!   vector cache. It interleaves up to `CU.max_waves` (Table 2: 40)
//!   resident wavefronts for latency hiding, translates through the L1 TLB (misses
//!   go to the GPU's shared translation unit), and issues misses to the
//!   owning L2 — directly if local, through the RDMA engine if remote.
//! * [`Rdma`] — packetizes remote memory traffic into the six Table 1
//!   packet categories, applies Trimming bits to eligible read requests,
//!   segments packets into flits, and reassembles arrivals. One per GPU
//!   (the per-GPU RDMA engine of Griffin \[9\] the paper baselines on).
//! * [`lasp`] — Locality-Aware Scheduling and Placement \[42\]: assigns
//!   CTAs to GPUs and places data pages (plus the paper's PTE-page
//!   co-location extension) before the simulation starts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod coalescer;
pub mod cu;
pub mod lasp;
pub mod rdma;

pub use coalescer::{Coalescer, CoalescerStats, LaneAccess, WAVEFRONT_LANES};
pub use cu::{Cu, CuStats, CuWiring, RetryPark};
pub use lasp::{place, Placement, Placer};
pub use rdma::{Rdma, RdmaStats, RdmaWiring};
