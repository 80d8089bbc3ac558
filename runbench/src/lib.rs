//! Closed-loop runtime benchmark for the NVMe-oAF threaded runtime.
//!
//! One generator thread drives each workload's connections with a
//! seeded, pre-generated op stream, checks every byte it reads against
//! a shadow model, and reports end-to-end figures; a separate traced run
//! times the calls into each layer from outside and reads the runtime's
//! telemetry deltas for the per-layer figures. See `README.md`.

pub mod alloc;
pub mod fabric;
pub mod harness;
pub mod layers;
pub mod report;
pub mod trace;
pub mod workloads;
