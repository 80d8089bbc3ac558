//! Regression pin for the PR 8 follow-on hazard: a slow group-commit
//! `fdatasync` on the target reactor thread stalls every in-flight
//! command for the duration of the barrier. With a short command
//! deadline and keep-alive grace tuned for a fast fabric, that stall
//! used to blow the deadline sweep (spurious retries → `Timeout`) and
//! the keep-alive staleness check (spurious `PeerDead`) even though the
//! connection was perfectly healthy — it was just waiting on durability.
//!
//! The recovery core now freezes its *effective clock* while a
//! barrier-class command (Flush, or FUA + mutating) is in flight, for up
//! to `InitiatorOptions::barrier_grace` per episode, so local-barrier
//! time is excluded from both the deadline sweep and keep-alive
//! staleness. This test drives a FUA write (plus a concurrent read)
//! through a file-backed namespace whose `sync` takes far longer than
//! the command deadline and pins that nothing spurious fires.

use std::io;
use std::time::Duration;

use bytes::Bytes;
use nvme_oaf::nvmeof::initiator::{Initiator, InitiatorOptions, KeepAliveConfig};
use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::target::{spawn_target, TargetConfig};
use nvme_oaf::nvmeof::transport::MemTransport;
use nvme_oaf::store::vfs::{MemVfs, Vfs};
use nvme_oaf::store::FileDisk;

const TIMEOUT: Duration = Duration::from_secs(10);
const BS: usize = 4096;
const BLOCKS: u64 = 64;

/// Every durability barrier takes `delay` — a pessimistic stand-in for a
/// deep group-commit `fdatasync` on a busy disk.
struct SlowSyncVfs {
    inner: MemVfs,
    delay: Duration,
}

impl Vfs for SlowSyncVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(off, buf)
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
        self.inner.write_at(off, buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.sync()
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

fn slow_sync_controller(delay: Duration) -> Controller {
    let vfs = SlowSyncVfs {
        inner: MemVfs::new(),
        delay,
    };
    let disk =
        FileDisk::create_on(Box::new(vfs), BS as u32, BLOCKS, 64 * 1024).expect("format disk");
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_file(1, disk));
    controller
}

/// Deadline and keep-alive tuned an order of magnitude *below* the sync
/// stall: without barrier-time exclusion, the 80 ms fsync would fire
/// several deadline sweeps and exhaust the 30 ms keep-alive grace.
fn twitchy_options() -> InitiatorOptions {
    InitiatorOptions {
        cmd_deadline: Some(Duration::from_millis(10)),
        max_retries: 2,
        retry_backoff: Duration::from_millis(2),
        keepalive: Some(KeepAliveConfig {
            interval: Duration::from_millis(10),
            grace: Duration::from_millis(30),
        }),
        // Generous enough to cover the whole stall; the cap is what a
        // real deployment tunes to its worst-case fsync.
        barrier_grace: Duration::from_millis(500),
        ..InitiatorOptions::default()
    }
}

#[test]
fn slow_fsync_does_not_fire_timeout_or_peer_death() {
    let (ct, tt) = MemTransport::pair();
    let handle = spawn_target(
        tt,
        slow_sync_controller(Duration::from_millis(80)),
        TargetConfig::default(),
        None,
    );

    let mut ini = Initiator::connect(ct, twitchy_options(), None, TIMEOUT).expect("connect");

    // A FUA write: the target must fsync (80 ms) before completing, so
    // the initiator sits behind a local barrier ~8× its command deadline
    // and ~2.7× its keep-alive grace.
    let data = Bytes::from(vec![0xA5u8; BS]);
    let w = ini.submit_write_fua(1, 3, 1, data).expect("submit fua");
    // A plain read rides along in the same window: its deadline must
    // also be excluded while the barrier is in flight (the reactor
    // cannot answer it any sooner).
    let r = ini.submit_read(1, 0, 1, BS).expect("submit read");

    let wres = ini.wait(w, TIMEOUT).expect("fua write survives slow sync");
    assert!(wres.status.is_ok(), "fua write status: {:?}", wres.status);
    let rres = ini.wait(r, TIMEOUT).expect("read survives slow sync");
    assert!(rres.status.is_ok(), "read status: {:?}", rres.status);

    // Back-to-back barriers must each get their own grace episode.
    for _ in 0..2 {
        let f = ini.submit_flush(1).expect("submit flush");
        let fres = ini.wait(f, TIMEOUT).expect("flush survives slow sync");
        assert!(fres.status.is_ok());
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

/// The async durability pipeline removes the stall the test above has
/// to *excuse*: with the store's `fdatasync` offloaded to its sync
/// worker, the reactor keeps serving non-barrier commands while an
/// 80 ms sync is in flight. Pad mode keeps those reads on live 10 ms
/// deadlines — nothing is excluded from recovery timing, and still
/// nothing fires: no retry, no timeout, no degrade, no peer death.
#[test]
fn offloaded_sync_keeps_reads_flowing_during_barrier() {
    use nvme_oaf::nvmeof::recovery::BarrierGraceMode;
    use nvme_oaf::nvmeof::server::ConnectionSpec;
    use nvme_oaf::nvmeof::shard::{spawn_sharded, ShardConfig};
    use nvme_oaf::store::vfs::SharedMemVfs;

    let vfs = SharedMemVfs::new();
    vfs.set_sync_delay(Duration::from_millis(80));
    let disk = FileDisk::create_on(Box::new(vfs.clone()), BS as u32, BLOCKS, 256 * 1024)
        .expect("format disk")
        .into_shared()
        .with_sync_worker(Box::new(vfs));
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::with_shared_file(1, disk));

    let registry = std::sync::Arc::new(oaf_telemetry::Registry::new());
    let (ct, tt) = MemTransport::pair();
    let handle = spawn_sharded(
        controller,
        vec![ConnectionSpec {
            transport: Box::new(tt),
            cfg: TargetConfig::default(),
            payload: None,
            scope: Some("target".into()),
        }],
        ShardConfig::new(1),
        Some(&registry),
    );

    let opts = InitiatorOptions {
        barrier_grace_mode: BarrierGraceMode::PadBarrierDeadline,
        ..twitchy_options()
    };
    let mut ini = Initiator::connect(ct, opts, None, TIMEOUT).expect("connect");

    // Seed blocks so the reads below return data.
    ini.write_blocking(1, 0, 1, Bytes::from(vec![0x11u8; BS]), TIMEOUT)
        .expect("seed write");

    // The FUA write parks at the target with its 80 ms fsync in flight
    // on the sync worker…
    let w = ini
        .submit_write_fua(1, 3, 1, Bytes::from(vec![0xA5u8; BS]))
        .expect("submit fua");
    // …and while it is parked, a burst of reads is served on *live*
    // 10 ms deadlines. If the reactor were blocked in the sync (or the
    // reads queued behind the barrier), every one of these would burn
    // retries and the metrics below would catch it.
    let mut reads = Vec::new();
    for i in 0..8u64 {
        reads.push(ini.submit_read(1, i % 4, 1, BS).expect("submit read"));
    }
    for r in reads {
        let res = ini.wait(r, TIMEOUT).expect("read survives in-flight sync");
        assert!(res.status.is_ok(), "read status: {:?}", res.status);
    }
    let wres = ini.wait(w, TIMEOUT).expect("fua completes once durable");
    assert!(wres.status.is_ok(), "fua status: {:?}", wres.status);

    let m = ini.metrics();
    assert_eq!(m.timeouts.get(), 0, "spurious Timeout fired");
    assert_eq!(
        m.retries.get(),
        0,
        "a non-barrier command queued behind the offloaded barrier"
    );
    assert_eq!(m.aborts_sent.get(), 0, "spurious abort round-trip fired");
    assert_eq!(m.degradations.get(), 0, "spurious degradation fired");
    assert!(ini.take_timed_out().is_empty());

    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("target shutdown");

    let snap = registry.snapshot();
    assert!(
        snap.counter("shard0_target", "barriers_parked") >= 1,
        "the FUA barrier never took the parked path"
    );
}

/// The exclusion is a *bounded* grace, not a free pass: when the
/// barrier outlives `barrier_grace`, the effective clock resumes and a
/// peer wedged inside its fsync is still declared dead.
#[test]
fn keepalive_still_detects_a_peer_wedged_past_the_grace() {
    use nvme_oaf::nvmeof::NvmeofError;

    let (ct, tt) = MemTransport::pair();
    // The sync wedges the target reactor for 2 s — far past the 50 ms
    // barrier grace below, so this is a genuinely dead peer, not a slow
    // one the exclusion should forgive.
    let handle = spawn_target(
        tt,
        slow_sync_controller(Duration::from_secs(2)),
        TargetConfig::default(),
        None,
    );

    let opts = InitiatorOptions {
        barrier_grace: Duration::from_millis(50),
        ..twitchy_options()
    };
    let mut ini = Initiator::connect(ct, opts, None, TIMEOUT).expect("connect");
    let f = ini.submit_flush(1).expect("submit flush");

    let deadline = std::time::Instant::now() + TIMEOUT;
    let died = loop {
        match ini.poll() {
            Err(NvmeofError::PeerDead) => break true,
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => {}
        }
        if std::time::Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(died, "keep-alive failed to declare a wedged peer dead");
    let _ = f;

    // The reactor wakes from its fsync and sees the stop flag.
    drop(ini);
    let _ = handle.shutdown();
}
