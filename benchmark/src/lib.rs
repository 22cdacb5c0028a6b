//! Host-clock benchmark of the HardSnap reproduction: four workloads
//! driven through the crates' public APIs, end-to-end metrics from the
//! normal run and per-layer metrics from a traced run that wraps the
//! simulator in [`timed::TimedTarget`]. See `README.md`.

pub mod explore;
pub mod fuzz;
pub mod gen;
pub mod report;
pub mod serve;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workload;
