//! End-to-end and per-layer benchmark of `assess-serve` over generated
//! SSB data. See `perfbench/README.md` for the workloads and metrics.

pub mod compare;
pub mod load;
pub mod metrics;
pub mod oracle;
pub mod provenance;
pub mod replay;
pub mod rng;
pub mod setup;
pub mod stats;
pub mod stream;
pub mod wire;
pub mod workloads;
