//! NVMe-oAF: the Adaptive Fabric (the paper's primary contribution).
//!
//! NVMe-over-Adaptive-Fabric accelerates NVMe-oF by *adaptively and
//! transparently* combining two channels: an optimized shared-memory data
//! path for co-located client/target pairs, and an optimized TCP path for
//! everything else. Locality alone decides both channels: a co-located
//! pair carries payloads in shared-memory slots and control PDUs over
//! in-region byte rings (§5.5); a remote pair runs NVMe/TCP.
//!
//! The three architectural components of Fig. 4:
//!
//! * [`conn`] — the **Connection Manager**: one function that brings
//!   every connection up — locality verdict, control channel,
//!   adaptive-fabric capability negotiation via ICReq/ICResp, AF
//!   endpoint objects (§4.1);
//! * [`buf`] — the **Buffer Manager**: DPDK-style pooled buffers for the
//!   TCP path, shared-memory slots and zero-copy leases for the local
//!   path (§4.1, §4.4.3);
//! * [`locality`] — **Locality Awareness**: the helper-process hot-plug
//!   protocol over a pre-reserved flag page, and the per-client isolated
//!   region registry (§4.2).
//!
//! Channel optimizations:
//!
//! * [`flow`] — shared-memory flow control: in-capsule semantics for every
//!   I/O size, eliminating two of four control messages per write (§4.4.2);
//! * [`payload_impl`] — the lock-free double-buffer payload channel
//!   implementing [`oaf_nvmeof::PayloadChannel`] over real shared memory,
//!   plus the locked baseline variant for the Fig. 8 ablation.
//!
//! Runtime and evaluation:
//!
//! * [`runtime`] — the real (threaded) NVMe-oAF runtime: a storage
//!   service and its clients that negotiate the fabric and move actual
//!   bytes (the TCP-channel tuning of §4.5 — chunk-size selection and
//!   adaptive busy polling — lives in `oaf_nvmeof::tune`);
//! * [`sim`] — the discrete-event model of every fabric the paper
//!   evaluates (NVMe/TCP at 10/25/100 Gbps, NVMe/RDMA, NVMe/RoCE, the
//!   four NVMe-oSHM ablation variants, and NVMe-oAF itself), used by the
//!   figure-reproduction harness.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod buf;
pub mod conn;
pub mod endpoint;
pub mod flow;
pub mod locality;
pub mod payload_impl;
pub mod runtime;
pub mod sim;
pub mod stats;

pub use conn::establish;
pub use endpoint::{AfEndpoint, ChannelKind};
pub use locality::HostRegistry;
