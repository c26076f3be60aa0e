//! `nsbench`: the repository benchmark.
//!
//! One command runs one named workload on one thread and prints every
//! metric by name and unit: host nanoseconds per simulated trace access end
//! to end (stated at a reference host speed, see [`reference`]), and split
//! by layer in a separate traced run. See
//! `README.md` next to this package for the workloads, the metrics, and
//! which end-to-end metric each per-layer metric should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod metrics;
pub mod probe;
pub mod reference;
pub mod replay;
pub mod run;
pub mod stats;
pub mod workload;
