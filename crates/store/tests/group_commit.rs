//! Group-commit coalescing under real concurrency.
//!
//! N threads hammer one [`SharedFileDisk`] with FUA writes (and some
//! Flushes). The coordinator must retire many barriers on one
//! `fdatasync`: the acceptance bar is ≥2× coalescing (`fsyncs` ≤
//! barriers/2), every barrier accounted for (no lost wakeups — the test
//! would hang), and no data loss. The bar is checked on the sync-worker
//! path, where coalescing is forced by freezing a sync in flight until
//! every barrier has enrolled, never by timing; the inline path is
//! checked for the invariants that hold under any schedule.
//!
//! [`SharedFileDisk`]: oaf_store::SharedFileDisk

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use oaf_store::vfs::{MemVfs, SharedMemVfs, Vfs};
use oaf_store::{FileDisk, SyncStatus};

/// A [`MemVfs`] whose `sync` takes ~a device barrier's time, so
/// concurrent barriers actually overlap even on a single-core runner.
#[derive(Clone)]
struct SlowSyncVfs {
    inner: Arc<Mutex<MemVfs>>,
    syncs: Arc<AtomicU64>,
}

impl SlowSyncVfs {
    fn new() -> SlowSyncVfs {
        SlowSyncVfs {
            inner: Arc::new(Mutex::new(MemVfs::new())),
            syncs: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Vfs for SlowSyncVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.lock().unwrap().read_at(off, buf)
    }
    fn write_at(&mut self, off: u64, buf: &[u8]) -> std::io::Result<()> {
        self.inner.lock().unwrap().write_at(off, buf)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_micros(400));
        self.inner.lock().unwrap().sync()
    }
    fn len(&self) -> std::io::Result<u64> {
        self.inner.lock().unwrap().len()
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.lock().unwrap().set_len(len)
    }
}

const WRITERS: u64 = 8;
const ROUNDS: u64 = 24;

/// The default inline path: each barrier's leader runs the `fdatasync`
/// itself while later barriers coalesce behind it. How many coalesce is
/// up to the scheduler, so only the timing-free invariants are checked
/// here; the exact ≥2× bar is held by the frozen-sync test below.
#[test]
fn inline_fua_and_flush_writers_account_for_every_barrier() {
    let vfs = SlowSyncVfs::new();
    let disk = FileDisk::create_on(Box::new(vfs.clone()), 512, 256, 256 * 1024)
        .unwrap()
        .with_cache(64)
        .unwrap()
        .into_shared();

    let threads: Vec<_> = (0..WRITERS)
        .map(|t| {
            let d = disk.clone();
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let lba = t * ROUNDS + i;
                    let stamp = (lba % 250) as u8 + 1;
                    if i % 6 == 5 {
                        d.write(lba, 1, &[stamp; 512], false).unwrap();
                        d.flush().unwrap();
                    } else {
                        d.write(lba, 1, &[stamp; 512], true).unwrap();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap(); // a lost wakeup would hang here
    }

    let m = disk.metrics();
    let barriers = WRITERS * ROUNDS; // every op ends in a barrier
    let led = m.fsyncs.get();
    assert_eq!(m.barriers_inline.get(), barriers);
    assert_eq!(
        led + m.fsyncs_coalesced.get(),
        barriers,
        "every barrier must either lead one sync or coalesce into one"
    );
    assert!(vfs.syncs.load(Ordering::SeqCst) >= led);
    assert_eq!(m.commit_batch.snapshot().count, led);

    assert!(disk.group_commit().durable_seq() >= barriers);
    let mut out = [0u8; 512];
    for lba in 0..WRITERS * ROUNDS {
        disk.read(lba, 1, &mut out).unwrap();
        let want = (lba % 250) as u8 + 1;
        assert!(
            out.iter().all(|&b| b == want),
            "lba {lba}: FUA-acknowledged write lost through group commit"
        );
    }
}

/// Each round: a pacer barrier's sync is frozen in flight, every writer
/// then journals one write and enrolls its barrier behind it, and only
/// then is the sync released. The frozen sync retires the pacer alone;
/// the next one retires all `WRITERS` barriers at once — exactly two
/// fsyncs per round, whatever the scheduler does.
#[test]
fn concurrent_fua_writers_coalesce_at_least_2x() {
    let vfs = SharedMemVfs::new();
    let disk = FileDisk::create_on(Box::new(vfs.clone()), 512, 256, 256 * 1024)
        .unwrap()
        .with_cache(64)
        .unwrap()
        .into_shared()
        .with_sync_worker(Box::new(vfs.clone()));
    let m = Arc::clone(disk.metrics());
    let fsyncs0 = m.fsyncs.get();
    let batches0 = m.commit_batch.snapshot();

    let start = Arc::new(Barrier::new(WRITERS as usize + 1));
    let done = Arc::new(Barrier::new(WRITERS as usize + 1));
    let threads: Vec<_> = (0..WRITERS)
        .map(|t| {
            let d = disk.clone();
            let (start, done) = (start.clone(), done.clone());
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    start.wait();
                    let lba = t * ROUNDS + i;
                    let stamp = (lba % 250) as u8 + 1;
                    if i % 6 == 5 {
                        // A Flush barrier rides the same ticket path.
                        d.write(lba, 1, &[stamp; 512], false).unwrap();
                        d.flush().unwrap();
                    } else {
                        d.write(lba, 1, &[stamp; 512], true).unwrap();
                    }
                    done.wait();
                }
            })
        })
        .collect();

    for round in 0..ROUNDS {
        vfs.hold_syncs(true);
        let pacer = disk.flush_async().unwrap().expect("sync worker attached");
        while vfs.held_syncs() == 0 {
            std::thread::yield_now();
        }
        start.wait();
        // Every writer's barrier enrolls behind the frozen sync.
        let enrolled = (round + 1) * (WRITERS + 1);
        while m.barriers_offloaded.get() < enrolled {
            std::thread::yield_now();
        }
        vfs.hold_syncs(false);
        done.wait(); // a lost wakeup would hang here
        assert_eq!(disk.poll_barrier(pacer), SyncStatus::Durable);
    }
    for t in threads {
        t.join().unwrap();
    }

    let barriers = ROUNDS * (WRITERS + 1); // every op ends in a barrier
    let led = m.fsyncs.get() - fsyncs0;
    assert_eq!(m.barriers_offloaded.get(), barriers);
    assert_eq!(m.barriers_inline.get(), 0);
    assert_eq!(
        led,
        2 * ROUNDS,
        "one fsync for the pacer, one for the writers"
    );
    assert!(
        led * 2 <= barriers,
        "expected ≥2× coalescing: {led} fsyncs for {barriers} barriers"
    );
    // The batch histogram saw every sync, and its mass equals the
    // barrier count: batches of 1 (pacer) and WRITERS, alternating.
    let batches = m.commit_batch.snapshot();
    assert_eq!(batches.count - batches0.count, led);
    assert_eq!(batches.sum - batches0.sum, barriers);
    assert_eq!(batches.max, WRITERS);

    // Durability watermark covers every appended record, and no write
    // was lost through the cache + deferred-apply path.
    assert!(disk.group_commit().durable_seq() >= barriers);
    let mut out = [0u8; 512];
    for lba in 0..WRITERS * ROUNDS {
        disk.read(lba, 1, &mut out).unwrap();
        let want = (lba % 250) as u8 + 1;
        assert!(
            out.iter().all(|&b| b == want),
            "lba {lba}: FUA-acknowledged write lost through group commit"
        );
    }
}

#[test]
fn group_commit_keeps_fua_durable_across_reopen() {
    // The coalesced path must be as crash-safe as the solo path: after
    // the threads finish, the durable image alone (no process state)
    // must hold every FUA write.
    let vfs = SlowSyncVfs::new();
    let disk = FileDisk::create_on(Box::new(vfs.clone()), 512, 128, 128 * 1024)
        .unwrap()
        .with_cache(16)
        .unwrap()
        .into_shared();

    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let d = disk.clone();
            std::thread::spawn(move || {
                for i in 0..16u64 {
                    let lba = t * 16 + i;
                    d.write(lba, 1, &[(lba % 250) as u8 + 1; 512], true)
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let image = {
        let len = vfs.len().unwrap();
        let mut img = vec![0u8; len as usize];
        vfs.read_at(0, &mut img).unwrap();
        img
    };
    let reopened = FileDisk::open_on(Box::new(MemVfs::from_image(image))).unwrap();
    use oaf_ssd::BlockStore;
    let mut out = [0u8; 512];
    for lba in 0..64u64 {
        reopened.read(lba, 1, &mut out).unwrap();
        assert!(
            out.iter().all(|&b| b == (lba % 250) as u8 + 1),
            "lba {lba}: FUA write not durable after reopen"
        );
    }
}
