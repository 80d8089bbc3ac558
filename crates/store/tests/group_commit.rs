//! Group-commit coalescing under real concurrency.
//!
//! N threads hammer one [`SharedFileDisk`] with FUA writes (and some
//! Flushes). The sync worker must retire many barriers on one
//! `fdatasync`: the acceptance bar is ≥2× coalescing (`fsyncs` ≤
//! barriers/2), every barrier accounted for exactly once (no lost
//! wakeups — the test would hang), and no data loss. Coalescing is
//! forced by freezing a sync in flight until every barrier has enrolled,
//! never by timing.
//!
//! [`SharedFileDisk`]: oaf_store::SharedFileDisk

use std::sync::{Arc, Barrier};
use std::time::Duration;

use oaf_store::vfs::{MemVfs, SharedMemVfs};
use oaf_store::{FileDisk, SyncStatus};

const WRITERS: u64 = 8;
const ROUNDS: u64 = 24;

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
        .into_shared();
    let m = Arc::clone(disk.metrics());
    let fsyncs0 = m.fsyncs.get();
    let syncs0 = vfs.syncs();
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
        let pacer = disk.flush_async().unwrap();
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
    assert_eq!(
        led,
        2 * ROUNDS,
        "one fsync for the pacer, one for the writers"
    );
    assert_eq!(
        vfs.syncs() - syncs0,
        led,
        "every device sync ran on the worker"
    );
    assert_eq!(
        led + m.fsyncs_coalesced.get(),
        barriers,
        "every barrier either got its own sync or coalesced into one"
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

/// One barrier accounting rule: blocking and parked barriers, including
/// ones some earlier sync already covered, each count once in
/// `barriers_offloaded`, and the worker's syncs plus the coalesced
/// barriers add up to exactly the barriers issued.
#[test]
fn blocking_and_async_barriers_count_once_each() {
    let disk = FileDisk::create_on(Box::new(MemVfs::new()), 512, 64, 256 * 1024)
        .unwrap()
        .into_shared();
    let m = Arc::clone(disk.metrics());
    let await_durable = |h| {
        while disk.poll_barrier(h) == SyncStatus::Pending {
            std::thread::yield_now();
        }
        assert_eq!(disk.poll_barrier(h), SyncStatus::Durable);
    };
    disk.write(0, 1, &[1u8; 512], true).unwrap();
    await_durable(disk.write_async(1, 1, &[2u8; 512], true).unwrap().unwrap());
    disk.flush().unwrap();
    await_durable(disk.flush_async().unwrap());
    // Barriers on records the syncs above already covered, through the
    // parked and the blocking face.
    let gc = disk.group_commit();
    await_durable(gc.enrol(1, &m));
    gc.wait(gc.enrol(2, &m)).unwrap();

    let barriers = 6;
    assert_eq!(m.barriers_offloaded.get(), barriers);
    assert!(m.fsyncs_coalesced.get() >= 2, "covered barriers coalesce");
    assert_eq!(m.fsyncs.get() + m.fsyncs_coalesced.get(), barriers);
}

#[test]
fn group_commit_keeps_fua_durable_across_reopen() {
    // The coalesced path must be as crash-safe as the solo path: after
    // the threads finish, the durable image alone (no process state)
    // must hold every FUA write.
    let vfs = SharedMemVfs::new();
    vfs.set_sync_delay(Duration::from_micros(400));
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

    let reopened = FileDisk::open_on(Box::new(MemVfs::from_image(vfs.image()))).unwrap();
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
