//! Regression pin for the slow-barrier stall: a `fdatasync` run on the
//! target's reactor thread stalls every command of every connection on
//! that shard for the whole sync, and with a short command deadline and
//! keep-alive grace tuned for a fast fabric that fires spurious
//! retries, `Timeout`s and `PeerDead`s on a healthy connection.
//!
//! Every shared file-backed store retires its barriers on its own sync
//! worker, so the reactor never enters the sync. These tests wire a
//! file-backed namespace the default way (`Namespace::with_file` behind
//! the shard runtime) and pin what that buys: a sync far slower than
//! the command deadline and the keep-alive grace fires nothing; with
//! the device sync *frozen* by [`SharedMemVfs::hold_syncs`] (as long as
//! the test needs, on any machine), reads on the same and on a second
//! connection of the shard keep completing on live 10 ms deadlines and
//! keep-alives keep being answered; and a peer that really goes silent
//! mid-barrier is still declared dead.
//!
//! The tests run one at a time ([`serial`]): each one times a reactor
//! against 10 ms deadlines and a 30 ms grace, and a sibling test's
//! threads on the same cores would only add scheduling noise.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use nvme_oaf::chaos::{wrap_pair, FaultPlan};
use nvme_oaf::nvmeof::initiator::{Initiator, InitiatorOptions, KeepAliveConfig};
use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::server::ConnectionSpec;
use nvme_oaf::nvmeof::shard::{spawn_sharded, ShardConfig, ShardedTarget};
use nvme_oaf::nvmeof::target::TargetConfig;
use nvme_oaf::nvmeof::transport::{MemTransport, Transport};
use nvme_oaf::nvmeof::NvmeofError;
use nvme_oaf::store::vfs::SharedMemVfs;
use nvme_oaf::store::FileDisk;
use oaf_telemetry::Registry;

const TIMEOUT: Duration = Duration::from_secs(10);
const BS: usize = 4096;
const BLOCKS: u64 = 64;

/// Holds the one-test-at-a-time lock; a failed sibling does not poison
/// it for the rest.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deadline and keep-alive tuned for a fast fabric. Only a barrier's
/// own deadline is padded (`barrier_grace`), far past the frozen window
/// below; everything else runs on live time.
fn twitchy_options() -> InitiatorOptions {
    InitiatorOptions {
        cmd_deadline: Some(Duration::from_millis(10)),
        max_retries: 2,
        retry_backoff: Duration::from_millis(2),
        keepalive: Some(KeepAliveConfig {
            interval: Duration::from_millis(10),
            grace: Duration::from_millis(30),
        }),
        barrier_grace: Duration::from_millis(500),
        ..InitiatorOptions::default()
    }
}

/// Releases a frozen sync when dropped, so a failing assertion cannot
/// leave the sync worker waiting inside the held sync during teardown.
struct Thaw(SharedMemVfs);

impl Drop for Thaw {
    fn drop(&mut self) {
        self.0.hold_syncs(false);
    }
}

/// One shard serving every transport in `transports` over one
/// file-backed namespace on `vfs`, wired the default way.
fn file_target<T: Transport + 'static>(
    vfs: &SharedMemVfs,
    transports: Vec<T>,
    registry: &Arc<Registry>,
) -> ShardedTarget {
    let disk = FileDisk::create_on(Box::new(vfs.clone()), BS as u32, BLOCKS, 1 << 20)
        .expect("format disk");
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_file(1, disk));
    let specs = transports
        .into_iter()
        .enumerate()
        .map(|(i, t)| ConnectionSpec {
            transport: Box::new(t),
            cfg: TargetConfig::default(),
            payload: None,
            scope: Some(format!("target{i}")),
        })
        .collect();
    spawn_sharded(controller, specs, ShardConfig::new(1), Some(registry))
}

/// Waits until the FUA's sync is frozen inside the device.
fn await_frozen_sync(vfs: &SharedMemVfs) {
    let deadline = Instant::now() + TIMEOUT;
    while vfs.held_syncs() == 0 {
        assert!(Instant::now() < deadline, "the FUA never reached the sync");
        std::thread::yield_now();
    }
}

/// A FUA write whose sync takes 80 ms — 8× the command deadline and
/// 2.7× the keep-alive grace — plus a read riding along in the same
/// window and two back-to-back flushes: nothing spurious fires, since
/// the reactor keeps answering while the sync worker waits out the
/// device.
#[test]
fn slow_fsync_does_not_fire_timeout_or_peer_death() {
    let _serial = serial();
    let vfs = SharedMemVfs::new();
    vfs.set_sync_delay(Duration::from_millis(80));
    let registry = Arc::new(Registry::new());
    let (ct, tt) = MemTransport::pair();
    let handle = file_target(&vfs, vec![tt], &registry);
    let mut ini = Initiator::connect(ct, twitchy_options(), None, TIMEOUT).expect("connect");

    let w = ini
        .submit_write_fua(1, 3, 1, Bytes::from(vec![0xA5u8; BS]))
        .expect("submit fua");
    let r = ini.submit_read(1, 0, 1, BS).expect("submit read");
    let wres = ini.wait(w, TIMEOUT).expect("fua write survives slow sync");
    assert!(wres.status.is_ok(), "fua write status: {:?}", wres.status);
    let rres = ini.wait(r, TIMEOUT).expect("read survives slow sync");
    assert!(rres.status.is_ok(), "read status: {:?}", rres.status);

    for _ in 0..2 {
        let f = ini.submit_flush(1).expect("submit flush");
        let fres = ini.wait(f, TIMEOUT).expect("flush survives slow sync");
        assert!(fres.status.is_ok(), "flush status: {:?}", fres.status);
    }

    let m = ini.metrics();
    assert_eq!(m.timeouts.get(), 0, "spurious Timeout fired");
    assert_eq!(m.retries.get(), 0, "spurious deadline retry fired");
    assert_eq!(m.aborts_sent.get(), 0, "spurious abort round-trip fired");
    assert_eq!(m.degradations.get(), 0, "spurious degradation fired");
    assert!(ini.take_timed_out().is_empty());

    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("target shutdown");
}

/// With the FUA's sync frozen on the sync worker, both connections of
/// the shard keep reading on live 10 ms deadlines for several
/// keep-alive graces, and nothing spurious fires.
#[test]
fn offloaded_sync_keeps_reads_flowing_during_barrier() {
    const ROUNDS: usize = 8;
    const IDLE_GAP: Duration = Duration::from_millis(15);
    let _serial = serial();
    let vfs = SharedMemVfs::new();
    let registry = Arc::new(Registry::new());
    let (ct_a, tt_a) = MemTransport::pair();
    let (ct_b, tt_b) = MemTransport::pair();
    let handle = file_target(&vfs, vec![tt_a, tt_b], &registry);
    let mut a = Initiator::connect(ct_a, twitchy_options(), None, TIMEOUT).expect("connect a");
    let mut b = Initiator::connect(ct_b, twitchy_options(), None, TIMEOUT).expect("connect b");
    // Each connection works its own block.
    for (ini, lba, fill) in [(&mut a, 0, 0x11u8), (&mut b, 1, 0x22)] {
        ini.write_blocking(1, lba, 1, Bytes::from(vec![fill; BS]), TIMEOUT)
            .expect("seed write");
    }

    // Freeze the device sync, then put a FUA write behind it.
    vfs.hold_syncs(true);
    let thaw = Thaw(vfs.clone());
    let fua = a
        .submit_write_fua(1, 3, 1, Bytes::from(vec![0xA5u8; BS]))
        .expect("submit fua");
    await_frozen_sync(&vfs);

    // While the sync stays frozen, run rounds of one read on each
    // connection, collected together so neither sits unpolled while
    // the test waits on the other, then let both idle past the
    // keep-alive interval, so probes go out and must be answered. The
    // rounds span several keep-alive graces. A reactor stuck in the
    // sync would answer none of this.
    for _ in 0..ROUNDS {
        let ra = a.submit_read(1, 0, 1, BS).expect("submit read a");
        let rb = b.submit_read(1, 1, 1, BS).expect("submit read b");
        for (ini, r, fill) in [(&mut a, ra, 0x11u8), (&mut b, rb, 0x22)] {
            let res = ini.wait(r, TIMEOUT).expect("read beside a frozen sync");
            assert!(res.status.is_ok(), "read status: {:?}", res.status);
            assert!(res.data.iter().all(|&x| x == fill), "read wrong data");
        }
        let idle = Instant::now();
        while idle.elapsed() < IDLE_GAP {
            for ini in [&mut a, &mut b] {
                let done = ini.poll().expect("keep-alive beside a frozen sync");
                assert!(done.is_empty(), "a completion beside a frozen sync");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert_eq!(vfs.held_syncs(), 1, "the FUA's sync thawed early");

    // Thaw: the FUA completes once durable, and later barriers on
    // either connection retire normally.
    drop(thaw);
    let res = a.wait(fua, TIMEOUT).expect("fua completes once durable");
    assert!(res.status.is_ok(), "fua status: {:?}", res.status);
    for ini in [&mut a, &mut b] {
        let f = ini.submit_flush(1).expect("submit flush");
        assert!(ini.wait(f, TIMEOUT).expect("flush").status.is_ok());
    }

    for ini in [&a, &b] {
        let m = ini.metrics();
        assert_eq!(m.retries.get(), 0, "spurious deadline retry fired");
        assert_eq!(m.timeouts.get(), 0, "spurious Timeout fired");
        assert_eq!(m.aborts_sent.get(), 0, "spurious abort round-trip fired");
        assert_eq!(m.degradations.get(), 0, "spurious degradation fired");
    }
    assert!(a.take_timed_out().is_empty() && b.take_timed_out().is_empty());
    a.disconnect().expect("disconnect a");
    b.disconnect().expect("disconnect b");
    handle.shutdown().expect("target shutdown");

    let snap = registry.snapshot();
    assert!(
        snap.counter("shard0_target0", "barriers_parked") >= 1,
        "the FUA barrier never parked"
    );
}

/// Barriers excuse nothing: with a FUA frozen in its sync, a peer that
/// goes silent (black-holed both ways) is declared dead within the
/// keep-alive grace, long before the barrier's own padded deadline.
#[test]
fn keepalive_still_detects_a_peer_wedged_past_the_grace() {
    let _serial = serial();
    let vfs = SharedMemVfs::new();
    let registry = Arc::new(Registry::new());
    let (ct_raw, tt_raw) = MemTransport::pair();
    let (ct, tt, controls) = wrap_pair(ct_raw, tt_raw, &FaultPlan::quiet(0x5EED));
    let handle = file_target(&vfs, vec![tt], &registry);
    let mut ini = Initiator::connect(ct, twitchy_options(), None, TIMEOUT).expect("connect");

    vfs.hold_syncs(true);
    let thaw = Thaw(vfs.clone());
    let _fua = ini
        .submit_write_fua(1, 3, 1, Bytes::from(vec![0xA5u8; BS]))
        .expect("submit fua");
    await_frozen_sync(&vfs);
    controls.kill(0); // black-hole the client endpoint, both directions

    let silenced = Instant::now();
    let err = loop {
        if let Err(e) = ini.poll() {
            break e;
        }
        assert!(
            silenced.elapsed() < TIMEOUT,
            "keep-alive never declared the silent peer dead"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(matches!(err, NvmeofError::PeerDead), "{err}");
    assert!(
        silenced.elapsed() < twitchy_options().barrier_grace,
        "peer death waited out the barrier's padded deadline: {:?}",
        silenced.elapsed()
    );

    drop(thaw);
    drop(ini);
    let _ = handle.shutdown();
}
