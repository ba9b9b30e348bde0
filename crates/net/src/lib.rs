//! Interconnect model for the hierarchical multi-GPU node.
//!
//! This crate implements the Akita-style network the paper simulates on
//! (§5.1): packets are segmented into fixed-size flits, switches process
//! flits through a 30-cycle pipeline at 1 flit/cycle/port, flits wait in
//! bounded I/O buffers (1024 entries) whose exhaustion causes back-pressure
//! that propagates upstream via credits, and links move
//! `bandwidth / flit-size` flits per cycle — 8 flits/cycle on the 128 GB/s
//! intra-cluster links, 1 flit/cycle on the 16 GB/s inter-cluster links.
//!
//! The topology is the Frontier-node shape of Figure 2: each cluster has a
//! switch connecting its GPUs; cluster switches are fully meshed over the
//! lower-bandwidth inter-cluster links. The [`port::EgressQueue`] trait is
//! the seam where NetCrafter plugs in: a cluster switch's inter-cluster
//! egress queue can be replaced by the Cluster Queue of `netcrafter-core`,
//! which performs Stitching, Pooling and Sequencing at pop time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(clippy::cast_possible_truncation)]

pub mod port;
pub mod seg;
pub mod switch;
pub mod synthetic;
pub mod topology;

pub use port::{EgressPort, EgressQueue, EgressWire, FifoQueue, PortSeries, PortStats};
pub use seg::{Reassembler, Segmenter};
pub use switch::{Switch, SwitchPortSpec};
pub use synthetic::{load_latency_sweep, LoadPoint, SyntheticConfig};
pub use topology::{Topology, WIRE_LATENCY};
