//! NVMe namespaces over a pluggable block store.
//!
//! The backing storage is anything implementing
//! [`oaf_ssd::BlockStore`]: the RAM disks for ephemeral targets, or
//! `oaf-store`'s durable [`FileDisk`] for persistence. Each backend has
//! an exclusively-owned single-queue form and a shared multi-queue form
//! that [`Namespace::share`] converts between.

use std::sync::Arc;

use oaf_ssd::ram::{BlockError, RamDisk, SharedRamDisk};
use oaf_ssd::BlockStore;
use oaf_store::{FileDisk, SharedFileDisk, StoreMetrics, SyncHandle, SyncStatus};

use crate::nvme::completion::Status;

/// A parked durability barrier: the data is journaled and applied, the
/// `fdatasync` making it durable is in flight on the store's sync
/// worker. The completion must not be posted until
/// [`Namespace::poll_barrier`] reports it resolved.
#[derive(Clone, Copy, Debug)]
pub struct BarrierTicket(SyncHandle);

/// Resolution state of a [`BarrierTicket`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierPoll {
    /// The sync covering the ticket has not retired yet.
    Pending,
    /// Durable: the success completion may be posted.
    Durable,
    /// The sync failed; the barrier must complete with an error.
    Failed,
}

/// Backing storage: exclusively owned until [`Namespace::share`]
/// converts it to the multi-queue shared form.
enum Store {
    Owned(RamDisk),
    Shared(SharedRamDisk),
    File(Box<FileDisk>),
    SharedFile(SharedFileDisk),
}

/// A namespace: an LBA range with a block size, backed by a [`RamDisk`]
/// or a durable [`FileDisk`] (shared forms once split across queue
/// controllers).
pub struct Namespace {
    id: u32,
    store: Store,
}

impl Namespace {
    /// Creates namespace `id` with `blocks` blocks of `block_size`
    /// bytes, RAM-backed (ephemeral).
    pub fn new(id: u32, block_size: u32, blocks: u64) -> Self {
        assert!(id != 0, "nsid 0 is reserved");
        Namespace {
            id,
            store: Store::Owned(RamDisk::new(block_size, blocks)),
        }
    }

    /// Creates namespace `id` over a durable file-backed store. Flush
    /// and FUA become real `fdatasync` barriers; TRIM punches and
    /// journals the range. Once [`share`](Namespace::share)d, every
    /// barrier runs on the store's sync worker.
    pub fn with_file(id: u32, disk: FileDisk) -> Self {
        assert!(id != 0, "nsid 0 is reserved");
        Namespace {
            id,
            store: Store::File(Box::new(disk)),
        }
    }

    /// Converts the backing store to the shared multi-queue form (if
    /// not already) and returns another view of the *same* storage.
    ///
    /// This is how a sharded target gives every reactor thread its own
    /// `&mut`-free I/O queue into one storage service — the NVMe
    /// multi-queue model. Disjoint LBA ranges may then be driven
    /// concurrently; see [`SharedRamDisk`] for the exclusivity
    /// contract on overlapping writes (the file-backed form inherits
    /// the same contract).
    pub fn share(&mut self) -> Namespace {
        let store = match std::mem::replace(&mut self.store, Store::Owned(RamDisk::new(512, 0))) {
            Store::Owned(disk) => Store::Shared(disk.into_shared()),
            Store::Shared(disk) => Store::Shared(disk),
            Store::File(disk) => Store::SharedFile(disk.into_shared()),
            Store::SharedFile(disk) => Store::SharedFile(disk),
        };
        let twin = match &store {
            Store::Shared(d) => Store::Shared(d.clone()),
            Store::SharedFile(d) => Store::SharedFile(d.clone()),
            _ => unreachable!("share() always lands in a shared variant"),
        };
        self.store = store;
        Namespace {
            id: self.id,
            store: twin,
        }
    }

    /// Namespace identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    fn store(&self) -> &dyn BlockStore {
        match &self.store {
            Store::Owned(d) => d,
            Store::Shared(d) => d,
            Store::File(d) => &**d,
            Store::SharedFile(d) => d,
        }
    }

    fn store_mut(&mut self) -> &mut dyn BlockStore {
        match &mut self.store {
            Store::Owned(d) => d,
            Store::Shared(d) => d,
            Store::File(d) => &mut **d,
            Store::SharedFile(d) => d,
        }
    }

    /// The durable store's metric bundle, if this namespace is
    /// file-backed (`None` for RAM disks). Register it under a `store`
    /// telemetry scope at wiring time.
    pub fn store_metrics(&self) -> Option<&Arc<StoreMetrics>> {
        match &self.store {
            Store::File(d) => Some(d.metrics()),
            Store::SharedFile(d) => Some(d.metrics()),
            _ => None,
        }
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.store().block_size()
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.store().capacity_blocks()
    }

    fn map_err(e: BlockError) -> Status {
        match e {
            BlockError::OutOfRange { .. } => Status::LbaOutOfRange,
            BlockError::BadBuffer { .. } => Status::InvalidFieldLength,
            BlockError::Io(_) => Status::InternalError,
        }
    }

    fn status(res: Result<(), BlockError>) -> Status {
        match res {
            Ok(()) => Status::Success,
            Err(e) => Self::map_err(e),
        }
    }

    /// Reads `nlb` blocks at `slba` into `dst`.
    pub fn read(&self, slba: u64, nlb: u32, dst: &mut [u8]) -> Status {
        Self::status(self.store().read(slba, nlb, dst))
    }

    /// Writes `nlb` blocks at `slba` from `src`; with `fua` the write
    /// is durable before the completion is posted.
    pub fn write(&mut self, slba: u64, nlb: u32, src: &[u8], fua: bool) -> Status {
        Self::status(self.store_mut().write(slba, nlb, src, fua))
    }

    /// Zeroes `nlb` blocks at `slba` in place — no staging buffer, so
    /// Write Zeroes stays allocation-free on the target hot path.
    pub fn write_zeroes(&mut self, slba: u64, nlb: u32) -> Status {
        Self::status(self.store_mut().write_zeroes(slba, nlb))
    }

    /// Deallocates `nlb` blocks at `slba` (Dataset Management with the
    /// deallocate attribute). Reads of a trimmed range return zeroes.
    pub fn trim(&mut self, slba: u64, nlb: u32) -> Status {
        Self::status(self.store_mut().trim(slba, nlb))
    }

    /// Durability barrier: everything acknowledged before this flush
    /// survives power loss (a no-op for RAM disks, `fdatasync` for
    /// file-backed stores).
    pub fn flush(&mut self) -> Status {
        Self::status(self.store_mut().flush())
    }

    /// Like [`write`](Namespace::write), but on a shared file-backed
    /// store a FUA write journals and applies, then returns
    /// `(Success, Some(ticket))` with the `fdatasync` still in flight on
    /// the sync worker — the caller parks the completion until the
    /// ticket resolves. Every other path behaves exactly like `write`
    /// and returns `None`.
    pub fn write_submit(
        &mut self,
        slba: u64,
        nlb: u32,
        src: &[u8],
        fua: bool,
    ) -> (Status, Option<BarrierTicket>) {
        if let Store::SharedFile(d) = &self.store {
            return match d.write_async(slba, nlb, src, fua) {
                Ok(handle) => (Status::Success, handle.map(BarrierTicket)),
                Err(e) => (Self::map_err(e), None),
            };
        }
        (self.write(slba, nlb, src, fua), None)
    }

    /// Like [`flush`](Namespace::flush), but on a shared file-backed
    /// store returns `(Success, Some(ticket))` with the barrier enrolled
    /// with the sync worker rather than waited on.
    pub fn flush_submit(&mut self) -> (Status, Option<BarrierTicket>) {
        if let Store::SharedFile(d) = &self.store {
            return match d.flush_async() {
                Ok(handle) => (Status::Success, Some(BarrierTicket(handle))),
                Err(e) => (Self::map_err(e), None),
            };
        }
        (self.flush(), None)
    }

    /// Resolution state of a parked barrier ticket. On a store that
    /// cannot issue tickets this reports `Durable`, keeping the caller's
    /// drain loop total.
    pub fn poll_barrier(&self, ticket: BarrierTicket) -> BarrierPoll {
        match &self.store {
            Store::SharedFile(d) => match d.poll_barrier(ticket.0) {
                SyncStatus::Pending => BarrierPoll::Pending,
                SyncStatus::Durable => BarrierPoll::Durable,
                SyncStatus::Failed => BarrierPoll::Failed,
            },
            _ => BarrierPoll::Durable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_store::vfs::MemVfs;

    fn file_ns(id: u32) -> Namespace {
        let disk = FileDisk::create_on(Box::new(MemVfs::new()), 512, 64, 64 * 1024).unwrap();
        Namespace::with_file(id, disk)
    }

    #[test]
    fn io_roundtrip() {
        let mut ns = Namespace::new(1, 512, 64);
        let data = vec![7u8; 1024];
        assert_eq!(ns.write(0, 2, &data, false), Status::Success);
        let mut out = vec![0u8; 1024];
        assert_eq!(ns.read(0, 2, &mut out), Status::Success);
        assert_eq!(out, data);
    }

    #[test]
    fn errors_map_to_nvme_statuses() {
        let mut ns = Namespace::new(1, 512, 4);
        assert_eq!(ns.write(4, 1, &[0u8; 512], false), Status::LbaOutOfRange);
        assert_eq!(
            ns.write(0, 1, &[0u8; 100], false),
            Status::InvalidFieldLength
        );
        let mut buf = [0u8; 512];
        assert_eq!(ns.read(100, 1, &mut buf), Status::LbaOutOfRange);
    }

    #[test]
    #[should_panic(expected = "nsid 0 is reserved")]
    fn nsid_zero_rejected() {
        let _ = Namespace::new(0, 512, 4);
    }

    #[test]
    fn geometry_reported() {
        let ns = Namespace::new(9, 4096, 1000);
        assert_eq!(ns.id(), 9);
        assert_eq!(ns.block_size(), 4096);
        assert_eq!(ns.capacity_blocks(), 1000);
    }

    #[test]
    fn shared_views_see_one_storage() {
        let mut a = Namespace::new(1, 512, 64);
        // Bytes written before sharing survive the conversion.
        assert_eq!(a.write(0, 1, &[0x11u8; 512], false), Status::Success);
        let mut b = a.share();
        let mut c = a.share(); // idempotent: still the same storage
        assert_eq!(b.write(1, 1, &[0x22u8; 512], false), Status::Success);
        assert_eq!(c.write(2, 1, &[0x33u8; 512], false), Status::Success);
        let mut out = vec![0u8; 512 * 3];
        assert_eq!(a.read(0, 3, &mut out), Status::Success);
        assert_eq!(out[0], 0x11);
        assert_eq!(out[512], 0x22);
        assert_eq!(out[1024], 0x33);
        assert_eq!(b.capacity_blocks(), 64);
        assert_eq!(b.block_size(), 512);
        assert_eq!(b.id(), 1);
    }

    #[test]
    fn shared_views_keep_error_mapping() {
        let mut a = Namespace::new(1, 512, 4);
        let mut b = a.share();
        assert_eq!(b.write(4, 1, &[0u8; 512], false), Status::LbaOutOfRange);
        assert_eq!(
            b.write(0, 1, &[0u8; 100], false),
            Status::InvalidFieldLength
        );
    }

    #[test]
    fn file_backed_namespace_flush_trim_fua() {
        let mut ns = file_ns(1);
        assert_eq!(ns.write(0, 1, &[0x5au8; 512], true), Status::Success);
        assert_eq!(ns.flush(), Status::Success);
        assert_eq!(ns.trim(0, 1), Status::Success);
        let mut out = [0xffu8; 512];
        assert_eq!(ns.read(0, 1, &mut out), Status::Success);
        assert!(out.iter().all(|&b| b == 0));
        let m = ns.store_metrics().expect("file-backed ns exposes metrics");
        assert!(m.fsyncs.get() >= 2, "FUA + flush both sync");
        assert_eq!(m.trims.get(), 1);
        assert!(Namespace::new(2, 512, 4).store_metrics().is_none());
    }

    #[test]
    fn cached_file_backed_namespace_serves_hits_and_stays_durable() {
        let disk = FileDisk::create_on(Box::new(MemVfs::new()), 512, 64, 64 * 1024)
            .unwrap()
            .with_cache(8)
            .unwrap();
        let mut ns = Namespace::with_file(1, disk);
        assert_eq!(ns.write(3, 1, &[0x77u8; 512], false), Status::Success);
        let mut out = [0u8; 512];
        assert_eq!(ns.read(3, 1, &mut out), Status::Success);
        assert!(out.iter().all(|&b| b == 0x77));
        let m = std::sync::Arc::clone(ns.store_metrics().unwrap());
        assert!(
            m.cache_hits.get() >= 1,
            "write-allocate must serve the read"
        );
        // FUA through the cache drains dirty entries before the sync.
        assert_eq!(ns.write(4, 1, &[0x88u8; 512], true), Status::Success);
        assert_eq!(m.cache_dirty.get(), 0, "barrier leaves no dirty entries");
        // Shared views keep the same cache + journal.
        let mut b = ns.share();
        assert_eq!(b.write(5, 1, &[0x99u8; 512], false), Status::Success);
        assert_eq!(b.flush(), Status::Success);
        assert_eq!(ns.read(5, 1, &mut out), Status::Success);
        assert_eq!(out[0], 0x99);
    }

    #[test]
    fn shared_file_namespace_tickets_barriers() {
        let mut owned = file_ns(1);
        let mut ns = owned.share();
        let (st, ticket) = ns.write_submit(0, 1, &[0xaau8; 512], true);
        assert_eq!(st, Status::Success);
        let t = ticket.expect("FUA tickets on a shared store");
        loop {
            match ns.poll_barrier(t) {
                BarrierPoll::Durable => break,
                BarrierPoll::Pending => std::thread::yield_now(),
                BarrierPoll::Failed => panic!("healthy sync failed"),
            }
        }
        // Plain writes never ticket; flush does.
        let (st, none_t) = ns.write_submit(1, 1, &[1u8; 512], false);
        assert_eq!(st, Status::Success);
        assert!(none_t.is_none());
        let (st, t2) = ns.flush_submit();
        assert_eq!(st, Status::Success);
        let t2 = t2.expect("flush tickets on a shared store");
        while ns.poll_barrier(t2) == BarrierPoll::Pending {
            std::thread::yield_now();
        }
        assert_eq!(ns.poll_barrier(t2), BarrierPoll::Durable);
        let mut out = [0u8; 512];
        assert_eq!(ns.read(0, 1, &mut out), Status::Success);
        assert!(out.iter().all(|&b| b == 0xaa));
        // The owned single-queue disk keeps its blocking barrier.
        let mut plain = file_ns(2);
        let (st, t3) = plain.write_submit(0, 1, &[2u8; 512], true);
        assert_eq!(st, Status::Success);
        assert!(t3.is_none(), "an owned store must not ticket");
    }

    #[test]
    fn file_backed_share_keeps_one_journal() {
        let mut a = file_ns(1);
        let mut b = a.share();
        assert_eq!(a.write(0, 1, &[1u8; 512], false), Status::Success);
        assert_eq!(b.write(1, 1, &[2u8; 512], false), Status::Success);
        assert_eq!(b.flush(), Status::Success);
        let mut out = [0u8; 512];
        assert_eq!(a.read(1, 1, &mut out), Status::Success);
        assert_eq!(out[0], 2);
        // Same underlying metric bundle through both views.
        assert_eq!(
            a.store_metrics().unwrap().log_appends.get(),
            b.store_metrics().unwrap().log_appends.get()
        );
    }
}
