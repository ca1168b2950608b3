//! Helpers of the pipeline benchmark: seeded traffic, percentiles,
//! per-thread CPU accounting and probe bookkeeping. The workloads that
//! drive the pipeline live in the `pipebench` binary.

pub mod metrics;
pub mod probes;
pub mod procstat;
pub mod stats;
pub mod traffic;
