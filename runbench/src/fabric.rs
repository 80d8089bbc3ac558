//! Fabric establishment and teardown for the block workloads, and the
//! closed loop that drives them from one generator thread.

use std::sync::Arc;
use std::time::{Duration, Instant};

use oaf_core::conn::FabricSettings;
use oaf_core::locality::{HostRegistry, ProcessId};
use oaf_core::runtime::{launch, launch_many_sharded, AfClient};
use oaf_nvmeof::nvme::controller::Controller;
use oaf_nvmeof::nvme::namespace::Namespace;
use oaf_nvmeof::shard::ShardedTarget;
use oaf_nvmeof::target::TargetHandle;
use oaf_ssd::BlockStore;
use oaf_store::vfs::SharedMemVfs;
use oaf_store::{FileDisk, DEFAULT_LOG_BYTES};
use oaf_telemetry::Registry;

use crate::harness::{stamp, Book, Kind, Mode, BLOCK};
use crate::trace::SpanKind;

/// Nanoseconds since the run began, from one monotonic origin.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Sync latency of the store's device: about one `fdatasync` of a
/// 16 KiB write on an idle virtio disk.
pub const SYNC_US: u64 = 100;

/// One store image: an in-memory device whose every sync takes
/// [`SYNC_US`], so the figures measure the store's software rather than
/// the host's disk. It outlives the `FileDisk` over it so it can be
/// reopened.
pub struct Image(SharedMemVfs);

impl Image {
    pub fn fresh() -> Image {
        let vfs = SharedMemVfs::new();
        vfs.set_sync_delay(Duration::from_micros(SYNC_US));
        Image(vfs)
    }

    /// Formats a store of `blocks` blocks with a `cache`-block cache.
    pub fn create(&self, blocks: u64, cache: usize) -> Result<FileDisk, String> {
        FileDisk::create_on(
            Box::new(self.0.clone()),
            BLOCK as u32,
            blocks,
            DEFAULT_LOG_BYTES,
        )
        .and_then(|d| d.with_cache(cache))
        .map_err(|e| format!("store format: {e}"))
    }

    /// Opens the store again, replaying its journal.
    pub fn open(&self) -> Result<FileDisk, String> {
        FileDisk::open_on(Box::new(self.0.clone())).map_err(|e| format!("store reopen: {e}"))
    }
}

/// Where the namespace lives and how the client reaches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// RAM namespace via `launch`; `local` puts client and target on one
    /// host (shared-memory payloads), otherwise real loopback NVMe/TCP.
    Ram { local: bool, blocks: u64 },
    /// The durable store of `blocks` blocks with a `cache_blocks`-block
    /// cache on a fresh [`Image`], behind `launch_many_sharded` on one
    /// shard.
    Store { blocks: u64, cache_blocks: usize },
}

enum Target {
    Pair(TargetHandle),
    Sharded(ShardedTarget),
}

/// An established fabric: the connected clients and their target.
pub struct Fabric {
    pub clients: Vec<AfClient>,
    pub telemetry: Arc<Registry>,
    target: Target,
    image: Option<Image>,
}

/// Brings up `clients` connections to `backend` with default settings.
/// A store backend formats a fresh image; a RAM backend takes exactly
/// one connection.
pub fn establish(backend: Backend, clients: usize) -> Result<Fabric, String> {
    let registry = Arc::new(HostRegistry::new());
    let settings = FabricSettings::default();
    match backend {
        Backend::Ram { local, blocks } => {
            let mut controller = Controller::new();
            controller.add_namespace(Namespace::new(1, BLOCK as u32, blocks));
            let target_host = if local { 1 } else { 2 };
            let pair = launch(
                &registry,
                (ProcessId(1), 1),
                (ProcessId(2), target_host),
                controller,
                settings,
            )
            .map_err(|e| format!("launch: {e}"))?;
            if pair.client.shm_active() != local {
                return Err(format!("fabric locality: shm_active = {}", !local));
            }
            Ok(Fabric {
                clients: vec![pair.client],
                telemetry: pair.telemetry,
                target: Target::Pair(pair.target),
                image: None,
            })
        }
        Backend::Store {
            blocks,
            cache_blocks,
        } => {
            let image = Image::fresh();
            let disk = image.create(blocks, cache_blocks)?;
            let mut controller = Controller::new();
            controller.add_namespace(Namespace::with_file(1, disk));
            let clients: Vec<(ProcessId, u64)> = (0..clients as u64)
                .map(|i| (ProcessId(10 + i), 1))
                .collect();
            let group = launch_many_sharded(
                &registry,
                &clients,
                (ProcessId(2), 1),
                controller,
                settings,
                1,
            )
            .map_err(|e| format!("launch_many_sharded: {e}"))?;
            Ok(Fabric {
                clients: group.clients,
                telemetry: group.telemetry,
                target: Target::Sharded(group.target),
                image: Some(image),
            })
        }
    }
}

impl Fabric {
    /// Disconnects every client and stops the target, joining its
    /// threads; returns the store image, closed, for reopening.
    pub fn teardown(mut self) -> Result<Option<Image>, String> {
        for c in &mut self.clients {
            c.disconnect().map_err(|e| format!("disconnect: {e}"))?;
        }
        match self.target {
            Target::Pair(t) => t.shutdown(),
            Target::Sharded(t) => t.shutdown(),
        }
        .map_err(|e| format!("target shutdown: {e}"))?;
        Ok(self.image)
    }
}

/// Submits connection `c`'s next operation, if its mode has one.
fn submit(client: &mut AfClient, book: &mut Book, c: usize, clock: &Clock) -> bool {
    let Some((op, aux)) = book.next_op(c) else {
        return false;
    };
    let shape = book.shape;
    let (lba, nlb) = (shape.lba(op.slot), shape.nlb());
    let (t0, res) = if op.kind.is_write() {
        match client.alloc(shape.op_bytes) {
            Ok(mut buf) => {
                stamp(&mut buf, lba, aux);
                let t0 = clock.now();
                let r = if op.kind == Kind::WriteFua {
                    client.submit_write_fua(1, lba, nlb, buf)
                } else {
                    client.submit_write(1, lba, nlb, buf)
                };
                (t0, r)
            }
            Err(e) => (0, Err(e)),
        }
    } else {
        let t0 = clock.now();
        (t0, client.submit_read(1, lba, nlb, shape.op_bytes))
    };
    let t1 = clock.now();
    match res {
        Ok(cid) => {
            let seq = book.submitted(c, cid, op, aux, t0);
            if let Some(spans) = book.spans.as_mut() {
                spans.push(SpanKind::Submit, seq, seq, t0, t1 - t0);
            }
        }
        Err(e) => {
            if book.failed == 0 {
                eprintln!("runbench: submit failed: {e}");
            }
            book.submit_failed(op);
        }
    }
    true
}

/// Runs the closed loop: tops every connection up to its queue depth,
/// then resubmits on each completion. Returns when `deadline_ns` passes
/// (operations stay in flight) or when nothing is in flight and the
/// mode has nothing more to hand out.
pub fn pump(
    fab: &mut Fabric,
    book: &mut Book,
    clock: &Clock,
    deadline_ns: u64,
) -> Result<(), String> {
    let qd = book.shape.qd;
    for (c, client) in fab.clients.iter_mut().enumerate() {
        while book.tables[c].live() < qd && submit(client, book, c, clock) {}
    }
    loop {
        if book.inflight() == 0 || clock.now() >= deadline_ns {
            return Ok(());
        }
        for (c, client) in fab.clients.iter_mut().enumerate() {
            let t0 = clock.now();
            let results = client.poll().map_err(|e| format!("poll: {e}"))?;
            if results.is_empty() {
                book.window.empty_polls += 1;
                // Nothing completed: let any runnable thread sharing this
                // core (the target, kernel I/O workers) go first.
                std::thread::yield_now();
                continue;
            }
            let t1 = clock.now();
            book.window.polls += 1;
            let mut first = 0;
            for r in &results {
                let seq = book.completed(c, r.cid, r.status.is_ok(), &r.data, t1);
                if first == 0 {
                    first = seq.unwrap_or(0);
                }
                submit(client, book, c, clock);
            }
            if let Some(spans) = book.spans.as_mut() {
                spans.push(SpanKind::Poll, first, first, t0, t1 - t0);
            }
        }
    }
}

/// Drains every in-flight operation; whatever has not completed within
/// `limit` counts as failed.
pub fn drain(
    fab: &mut Fabric,
    book: &mut Book,
    clock: &Clock,
    limit: Duration,
) -> Result<(), String> {
    book.set_mode(Mode::Drain);
    pump(fab, book, clock, clock.now() + limit.as_nanos() as u64)?;
    let lost = book.abandon_inflight();
    if lost > 0 {
        eprintln!("runbench: {lost} operations never completed");
    }
    Ok(())
}

/// Runs a ranged mode (prefill or read-back) over every connection's
/// whole range, then drains.
pub fn sweep(fab: &mut Fabric, book: &mut Book, clock: &Clock, mode: Mode) -> Result<(), String> {
    book.set_mode(mode);
    pump(fab, book, clock, clock.now() + 120_000_000_000)?;
    drain(fab, book, clock, Duration::from_secs(10))
}

/// Reopens the store (journal replay) and checks every slot against
/// the shadow model. Returns the reopen time and the number of slots
/// checked; a mismatch is counted failed in `book`.
pub fn verify_reopened(book: &mut Book, image: &Image) -> Result<(Duration, u64), String> {
    let t0 = Instant::now();
    let disk = image.open()?;
    let reopen = t0.elapsed();
    let shape = book.shape;
    let mut buf = vec![0u8; shape.op_bytes];
    for slot in 0..shape.total_slots() {
        book.attempted += 1;
        let ok = disk.read(shape.lba(slot), shape.nlb(), &mut buf).is_ok()
            && book
                .shadow
                .check(&shape, slot, book.shadow.floor(slot), &buf);
        if !ok {
            book.failed += 1;
        }
    }
    Ok((reopen, u64::from(shape.total_slots())))
}
