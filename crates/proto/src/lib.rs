//! Domain types shared by every crate of the NetCrafter reproduction.
//!
//! This crate is dependency-free and purely declarative: it defines the
//! vocabulary of the simulated system — identifiers, addresses, coalesced
//! accesses, network packets and flits, the system configuration of the
//! paper's Table 2, and the statistics registry used by the measurement
//! harness.
//!
//! The types here mirror the paper's terminology:
//!
//! * [`packet::Packet`] / [`packet::PacketKind`] — the six traffic
//!   categories of Table 1 (read/write/page-table requests and responses).
//! * [`flit::Flit`] / [`flit::Chunk`] — flow-control units with explicit
//!   occupancy accounting, including stitched multi-chunk flits
//!   (paper §4.1–§4.2, Figures 10 and 11).
//! * [`config::SystemConfig`] — the baseline multi-GPU configuration
//!   (Table 2) plus the NetCrafter knobs (pooling window, trim granularity,
//!   flit size, per-mechanism enables).
//! * [`stats::Metrics`] — counters, histograms and latency accumulators
//!   harvested by the experiment harness to regenerate every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod access;
pub mod addr;
pub mod config;
pub mod flit;
pub mod ids;
pub mod kernel;
pub mod message;
pub mod packet;
pub mod stats;

pub use access::{AccessKind, CoalescedAccess, WavefrontOp, WavefrontTrace};
pub use addr::{LineAddr, LineMask, PAddr, VAddr, LINE_BYTES, PAGE_BYTES, SECTOR_BYTES};
pub use config::{
    fnv1a64, FabricConfig, NetCrafterConfig, Pooling, Priority, SectorFillPolicy, SystemConfig,
    TopologyConfig,
};
pub use flit::{Chunk, Flit, STITCH_META_BYTES};
pub use ids::{AccessId, ClusterId, CtaId, CuId, GpuId, NodeId, PacketId, WavefrontId};
pub use kernel::{AccessPattern, BufferSpec, CtaSpec, KernelSpec};
pub use message::{MemReq, MemRsp, Message, Origin, TransReq, TransRsp};
pub use packet::{Packet, PacketKind, PacketPayload, TrafficClass, TrimInfo, ALL_PACKET_KINDS};
pub use stats::{Histogram, LatencyStat, Metrics, TimeSeries};
