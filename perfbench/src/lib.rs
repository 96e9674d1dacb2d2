//! The repository benchmark: four workloads driven through the simulator's
//! public APIs, with host-time, sim-time and paper-accuracy metrics, exact
//! work counters, and an optional traced run that times each layer from
//! the outside (`EventQueue::pop`, `World::handle` by event kind, and the
//! set-up phases).
//!
//! Everything runs on the sequential engine in one thread. See
//! `perfbench/README.md` for the workloads, the metric-to-layer map and how
//! to compare two commits on one machine.

pub mod alloc;
pub mod engine;
pub mod json;
pub mod report;
pub mod trace;
pub mod workloads;

pub use engine::{EventKind, LoopCounts, LoopRun, LoopTimes};
pub use workloads::{Rep, Workload};
