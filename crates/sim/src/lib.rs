//! Deterministic cycle-level simulation engine.
//!
//! The engine follows the Akita execution model that MGPUSim is built on:
//! a set of components advances in lock-step, one tick per cycle, and
//! communicates exclusively through messages with explicit cycle delays.
//! Two properties are guaranteed:
//!
//! * **Determinism** — components tick in a fixed order and messages are
//!   delivered in send order per cycle, so the same configuration and seed
//!   always produce bit-identical results.
//! * **Cheap idle** — the default event-driven scheduler ticks only
//!   components with scheduled work (the wake each
//!   [`Component::tick_burst`] returns) and fast-forwards the clock across
//!   dead cycles, producing bit-identical results to the tick-everything
//!   [`SchedulerMode::Legacy`] reference.
//!
//! One scheduler core (`sched.rs`) executes both modes on the calling
//! thread, advancing each component through [`Component::tick_burst`]
//! alone; the [`Engine`] is its public face.
//!
//! The crate also provides the small utilities every hardware model
//! needs: [`DelayQueue`] (fixed-latency pipelines), [`RateLimiter`]
//! (bandwidth modelling with fractional bytes/cycle) and [`FlatMap`]
//! (a bound-sized table of in-flight requests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(clippy::cast_possible_truncation)]

pub mod arena;
pub mod engine;
pub mod flatmap;
mod sched;
pub mod snapshot;
pub mod timing;
pub mod trace;

pub use arena::{Arena, Handle};
pub use engine::{
    BurstOutcome, Component, ComponentId, Ctx, Engine, EngineBuilder, SchedulerMode, Wake,
};
pub use flatmap::FlatMap;
pub use snapshot::{
    read_header, write_header, ForkSnapshot, Snap, SnapshotError, SnapshotReader, SnapshotWriter,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use timing::{DelayQueue, RateLimiter};
pub use trace::{Event, EventClass, Phase, Trace, TraceConfig, Tracer};

/// Simulation time in core clock cycles (1 GHz).
pub type Cycle = u64;
