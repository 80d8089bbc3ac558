//! # oaf-store — durable log-structured file-backed block device
//!
//! The persistence layer behind the NVMe-oAF target: a
//! [`FileDisk`]/[`SharedFileDisk`] pair that slots in behind a
//! `Namespace` anywhere `RamDisk`/`SharedRamDisk` does, but survives
//! process death.
//!
//! * **Data journaling.** Every mutation (write, TRIM, Write Zeroes,
//!   flush) is appended to an intent log with a CRC32 trailer and a
//!   strictly consecutive sequence number, then applied in place.
//! * **Crash-consistent recovery.** [`FileDisk::open`] replays the live
//!   log prefix idempotently; a torn tail record fails its CRC or
//!   sequence check and is truncated, never applied.
//! * **Real durability.** Flush and FUA map to `fdatasync`; nothing is
//!   acknowledged as durable that a kill `-9` can lose.
//! * **Checkpoints.** When the log fills, it is folded into the data
//!   region under a dual-slot superblock protocol that tolerates a torn
//!   superblock write.
//!
//! * **One durability pipeline.** [`FileDisk::into_shared`] starts a
//!   sync worker, and every barrier of the shared disk is enrolled as a
//!   ticket ([`commit::SyncHandle`]) that the worker retires — a
//!   reactor resolves it by a lock-free poll, a blocking caller waits.
//!   The `fdatasync` runs on the worker with the disk lock released, so
//!   reads and journaled writes flow at full rate while a sync is in
//!   flight, and concurrent barriers coalesce into one sync per worker
//!   round ([`commit::GroupCommit`]).
//! * **Block cache.** A fixed-capacity segmented-LRU write-back cache
//!   ([`cache::BlockCache`]) serves read hits with zero syscalls and
//!   defers in-place applies; dirty entries are pinned to journal
//!   sequences so eviction order can never outrun the log. An optional
//!   controller ([`FileDisk::with_adaptive_cache`]) resizes capacity
//!   between configured bounds from hit-rate/eviction telemetry.
//!
//! Crash testing injects [`vfs::CrashVfs`] underneath the disk: a
//! volatile-cache file model that kills the store at a seeded syscall
//! boundary and hands back only a plausible durable image.

#![warn(missing_docs)]

pub mod cache;
pub mod commit;
pub mod crc32;
pub mod disk;
pub mod log;
pub mod metrics;
pub mod vfs;

pub use cache::BlockCache;
pub use commit::{GroupCommit, SyncHandle, SyncStatus};
pub use disk::{CacheAdaptConfig, FileDisk, SharedFileDisk, DEFAULT_LOG_BYTES};
pub use metrics::StoreMetrics;
