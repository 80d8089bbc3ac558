//! The syscall boundary of the store, made swappable so crashes can be
//! injected exactly where a real power loss bites.
//!
//! [`FileDisk`](crate::disk::FileDisk) never touches `std::fs` directly;
//! every byte goes through a [`Vfs`]. Four implementations:
//!
//! * [`RealVfs`] — a real file with positional I/O and `fdatasync`;
//! * [`MemVfs`] — a flat in-memory image with no volatile cache
//!   (always "durable"), for unit tests and allocation-budget tests;
//! * [`SharedMemVfs`] — a clone-shareable [`MemVfs`] with slow-sync /
//!   failing-sync knobs, the harness for sync-worker (offloaded
//!   durability) tests;
//! * [`CrashVfs`] — the chaos layer: a volatile-cache model over an
//!   in-memory image. Writes land in a pending cache and only
//!   [`Vfs::sync`] makes them durable. At a chosen syscall index the
//!   "machine dies": a seeded-random subset of the pending cache —
//!   including a possibly *torn prefix* of the in-flight write — reaches
//!   the durable image, and every later operation fails. Reopening from
//!   [`CrashVfs::durable_image`] is exactly a post-power-loss mount.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Positional I/O + durability barrier: the five syscalls the store is
/// allowed to make.
#[allow(clippy::len_without_is_empty)] // `len` is a file size, not a collection
pub trait Vfs: Send {
    /// Reads `buf.len()` bytes at absolute offset `off`. The store only
    /// reads inside the file it sized with [`Vfs::set_len`], so short
    /// reads are errors.
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Writes all of `buf` at absolute offset `off`.
    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()>;

    /// Durability barrier: every write acknowledged before this call
    /// must survive a crash after it (`fdatasync` semantics).
    fn sync(&mut self) -> io::Result<()>;

    /// Current file length in bytes.
    fn len(&self) -> io::Result<u64>;

    /// Grows (or truncates) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// A real file. `sync` is `fdatasync` — the store's own metadata lives
/// inside the file body, so inode timestamps need not be durable.
pub struct RealVfs {
    file: File,
}

impl RealVfs {
    /// Creates (or truncates) `path` for read/write.
    pub fn create(path: &Path) -> io::Result<RealVfs> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(RealVfs { file })
    }

    /// Opens an existing store file at `path` for read/write.
    pub fn open(path: &Path) -> io::Result<RealVfs> {
        let file = File::options().read(true).write(true).open(path)?;
        Ok(RealVfs { file })
    }
}

impl Vfs for RealVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.read_exact_at(buf, off)
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
        self.file.write_all_at(buf, off)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

/// A flat in-memory image with no volatile cache: every write is
/// immediately "durable", `sync` is a no-op. Writes inside the sized
/// image never allocate, so the store's steady-state allocation budget
/// can be pinned over this backend.
#[derive(Default)]
pub struct MemVfs {
    image: Vec<u8>,
}

impl MemVfs {
    /// An empty image (size it with [`Vfs::set_len`] — `FileDisk::create`
    /// does).
    pub fn new() -> MemVfs {
        MemVfs::default()
    }

    /// An image holding `bytes` — e.g. a [`CrashVfs::durable_image`] to
    /// mount what survived a crash.
    pub fn from_image(bytes: Vec<u8>) -> MemVfs {
        MemVfs { image: bytes }
    }

    /// A copy of the current image.
    pub fn image(&self) -> Vec<u8> {
        self.image.clone()
    }
}

fn range_of(off: u64, len: usize, file_len: usize) -> io::Result<std::ops::Range<usize>> {
    let start = usize::try_from(off).map_err(|_| io::Error::other("offset overflow"))?;
    let end = start
        .checked_add(len)
        .filter(|&e| e <= file_len)
        .ok_or_else(|| io::Error::other(format!("access [{start}, +{len}) beyond {file_len}")))?;
    Ok(start..end)
}

impl Vfs for MemVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        let r = range_of(off, buf.len(), self.image.len())?;
        buf.copy_from_slice(&self.image[r]);
        Ok(())
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
        let r = range_of(off, buf.len(), self.image.len())?;
        self.image[r].copy_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.image.len() as u64)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.image.resize(len as usize, 0);
        Ok(())
    }
}

/// Sync-behaviour knobs shared by every clone of a [`SharedMemVfs`].
#[derive(Default)]
struct SyncCtl {
    delay_ns: AtomicU64,
    fail: AtomicBool,
    hold: AtomicBool,
    held: AtomicU64,
    syncs: AtomicU64,
}

/// A clone-shareable [`MemVfs`]: every clone views the same image, so a
/// disk and its sync worker can hold two handles onto one "file" — the
/// [`RealVfs`] analogue is the same path opened twice.
///
/// The sync knobs model a slow or failing device. The configured delay
/// and hold are served *before* the image lock is taken, so reads and
/// writes through other clones keep flowing while a sync is "in
/// flight" — exactly how a real file behaves while `fdatasync` runs on
/// another fd.
#[derive(Clone, Default)]
pub struct SharedMemVfs {
    image: Arc<Mutex<MemVfs>>,
    ctl: Arc<SyncCtl>,
}

impl SharedMemVfs {
    /// An empty shared image.
    pub fn new() -> SharedMemVfs {
        SharedMemVfs::default()
    }

    /// A shared image holding `bytes`.
    pub fn from_image(bytes: Vec<u8>) -> SharedMemVfs {
        SharedMemVfs {
            image: Arc::new(Mutex::new(MemVfs::from_image(bytes))),
            ctl: Arc::default(),
        }
    }

    /// A copy of the current image.
    pub fn image(&self) -> Vec<u8> {
        self.image.lock().unwrap().image()
    }

    /// Every future [`Vfs::sync`] (on any clone) sleeps this long
    /// before touching the image — a slow device.
    pub fn set_sync_delay(&self, delay: Duration) {
        let ns = u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX);
        self.ctl.delay_ns.store(ns, Ordering::SeqCst);
    }

    /// Every future [`Vfs::sync`] fails with an injected I/O error
    /// until cleared — a dying device.
    pub fn set_fail_sync(&self, fail: bool) {
        self.ctl.fail.store(fail, Ordering::SeqCst);
    }

    /// While held, [`Vfs::sync`] spins (allocation-free) without
    /// touching the image — a sync frozen in flight, released on
    /// demand.
    pub fn hold_syncs(&self, hold: bool) {
        self.ctl.hold.store(hold, Ordering::SeqCst);
    }

    /// Syncs currently frozen in flight by [`hold_syncs`](Self::hold_syncs).
    pub fn held_syncs(&self) -> u64 {
        self.ctl.held.load(Ordering::SeqCst)
    }

    /// Completed (successful) syncs across all clones.
    pub fn syncs(&self) -> u64 {
        self.ctl.syncs.load(Ordering::SeqCst)
    }
}

impl Vfs for SharedMemVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        self.image.lock().unwrap().read_at(off, buf)
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
        self.image.lock().unwrap().write_at(off, buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        let delay = self.ctl.delay_ns.load(Ordering::SeqCst);
        if delay > 0 {
            std::thread::sleep(Duration::from_nanos(delay));
        }
        if self.ctl.hold.load(Ordering::SeqCst) {
            self.ctl.held.fetch_add(1, Ordering::SeqCst);
            while self.ctl.hold.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            self.ctl.held.fetch_sub(1, Ordering::SeqCst);
        }
        if self.ctl.fail.load(Ordering::SeqCst) {
            return Err(io::Error::other("injected sync failure"));
        }
        self.image.lock().unwrap().sync()?;
        self.ctl.syncs.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        self.image.lock().unwrap().len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.image.lock().unwrap().set_len(len)
    }
}

/// One write parked in the volatile cache.
struct PendingWrite {
    off: u64,
    data: Vec<u8>,
}

/// The volatile-cache crash model.
///
/// `view` is what the running store observes (page-cache semantics:
/// reads see unsynced writes); `durable` is what the platter holds.
/// [`Vfs::sync`] reconciles them. When the syscall counter reaches
/// `crash_at` the machine dies mid-syscall: each cached write survives
/// with probability ½ (drawn from a splitmix64 stream seeded by `seed`,
/// the same generator family `oaf-chaos` uses, so a failing seed replays
/// bit-for-bit), the in-flight write survives as a random — possibly
/// empty, possibly torn — prefix, and every subsequent call fails.
pub struct CrashVfs {
    view: Vec<u8>,
    durable: Vec<u8>,
    pending: Vec<PendingWrite>,
    /// Syscall index (1-based) at which to crash; `None` = never.
    crash_at: Option<u64>,
    syscalls: u64,
    rng: u64,
    crashed: bool,
}

/// splitmix64 step — the seed expander behind `oaf_chaos::rng`, inlined
/// here because the dependency points the other way (`oaf-chaos` sits
/// above `oaf-nvmeof`, which sits above this crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CrashVfs {
    /// A crash layer over an empty image. `crash_at` counts mutating
    /// syscalls (`write_at`, `sync`) from 1; the counter is exposed via
    /// [`CrashVfs::syscalls`] so tests can size kill windows.
    pub fn new(seed: u64, crash_at: Option<u64>) -> CrashVfs {
        CrashVfs {
            view: Vec::new(),
            durable: Vec::new(),
            pending: Vec::new(),
            crash_at,
            syscalls: 0,
            rng: seed,
            crashed: false,
        }
    }

    /// A crash layer over an existing durable image (e.g. to crash a
    /// store that already survived one crash).
    pub fn over_image(bytes: Vec<u8>, seed: u64, crash_at: Option<u64>) -> CrashVfs {
        CrashVfs {
            view: bytes.clone(),
            durable: bytes,
            pending: Vec::new(),
            crash_at,
            syscalls: 0,
            rng: seed,
            crashed: false,
        }
    }

    /// Mutating syscalls issued so far.
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// What the platter holds: the bytes a post-crash mount would see.
    /// (Before a crash this is the synced prefix of history.)
    pub fn durable_image(&self) -> Vec<u8> {
        self.durable
            .iter()
            .copied()
            .chain(std::iter::repeat_n(
                0,
                self.view.len().saturating_sub(self.durable.len()),
            ))
            .collect()
    }

    fn dead() -> io::Error {
        io::Error::other("injected crash: store is dead")
    }

    /// Counts one mutating syscall; returns true when this is the one
    /// that dies.
    fn tick(&mut self) -> bool {
        self.syscalls += 1;
        self.crash_at == Some(self.syscalls)
    }

    /// The power cut: a random subset of the volatile cache — in write
    /// order, so later survivors still overwrite earlier ones — plus a
    /// random prefix of `inflight` reaches the platter.
    fn crash(&mut self, inflight: Option<(u64, &[u8])>) {
        self.crashed = true;
        self.durable.resize(self.view.len(), 0);
        let pending = std::mem::take(&mut self.pending);
        for w in pending {
            if splitmix64(&mut self.rng) & 1 == 0 {
                let end = (w.off as usize + w.data.len()).min(self.durable.len());
                let start = (w.off as usize).min(end);
                self.durable[start..end].copy_from_slice(&w.data[..end - start]);
            }
        }
        if let Some((off, data)) = inflight {
            let keep = (splitmix64(&mut self.rng) as usize) % (data.len() + 1);
            let end = (off as usize + keep).min(self.durable.len());
            let start = (off as usize).min(end);
            self.durable[start..end].copy_from_slice(&data[..end - start]);
        }
    }
}

impl Vfs for CrashVfs {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        if self.crashed {
            return Err(Self::dead());
        }
        let r = range_of(off, buf.len(), self.view.len())?;
        buf.copy_from_slice(&self.view[r]);
        Ok(())
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<()> {
        if self.crashed {
            return Err(Self::dead());
        }
        if self.tick() {
            self.crash(Some((off, buf)));
            return Err(Self::dead());
        }
        let r = range_of(off, buf.len(), self.view.len())?;
        self.view[r].copy_from_slice(buf);
        self.pending.push(PendingWrite {
            off,
            data: buf.to_vec(),
        });
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(Self::dead());
        }
        if self.tick() {
            // Dying inside fsync: the kernel may have written any subset
            // back already — same policy as a write-boundary crash.
            self.crash(None);
            return Err(Self::dead());
        }
        self.durable = self.view.clone();
        self.pending.clear();
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        if self.crashed {
            return Err(Self::dead());
        }
        Ok(self.view.len() as u64)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if self.crashed {
            return Err(Self::dead());
        }
        self.view.resize(len as usize, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_roundtrip_and_bounds() {
        let mut v = MemVfs::new();
        v.set_len(64).unwrap();
        v.write_at(8, &[7u8; 4]).unwrap();
        let mut out = [0u8; 4];
        v.read_at(8, &mut out).unwrap();
        assert_eq!(out, [7u8; 4]);
        assert!(v.write_at(62, &[0u8; 4]).is_err());
        assert!(v.read_at(64, &mut out).is_err());
        assert_eq!(v.len().unwrap(), 64);
    }

    #[test]
    fn crash_vfs_unsynced_writes_may_die() {
        // Crash at syscall 3: writes 1 and 2 are pending, write 3 is
        // in-flight. Whatever survives must be a subset; synced data
        // must survive in full.
        let mut v = CrashVfs::new(0xD15C, Some(4));
        v.set_len(32).unwrap();
        v.write_at(0, &[1u8; 8]).unwrap(); // syscall 1
        v.sync().unwrap(); // syscall 2 — [1; 8] is now guaranteed
        v.write_at(8, &[2u8; 8]).unwrap(); // syscall 3
        let err = v.write_at(16, &[3u8; 8]).unwrap_err(); // syscall 4: dies
        assert!(err.to_string().contains("crash"));
        assert!(v.crashed());
        assert!(
            v.read_at(0, &mut [0u8; 1]).is_err(),
            "dead store stays dead"
        );
        let img = v.durable_image();
        assert_eq!(&img[0..8], &[1u8; 8], "synced bytes must survive");
        // Unsynced regions hold either the old or the new bytes.
        assert!(img[8..16].iter().all(|&b| b == 0 || b == 2));
        assert!(img[16..24].iter().all(|&b| b == 0 || b == 3));
    }

    #[test]
    fn crash_vfs_same_seed_same_wreckage() {
        let run = |seed| {
            let mut v = CrashVfs::new(seed, Some(5));
            v.set_len(128).unwrap();
            for i in 0..5u64 {
                let _ = v.write_at(i * 16, &[i as u8 + 1; 16]);
            }
            v.durable_image()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn crash_vfs_sync_barrier_is_total() {
        let mut v = CrashVfs::new(7, Some(4));
        v.set_len(16).unwrap();
        v.write_at(0, &[0xaa; 16]).unwrap();
        v.sync().unwrap();
        v.write_at(0, &[0xbb; 16]).unwrap(); // syscall 3, pending
        let _ = v.sync(); // syscall 4: dies mid-fsync
        let img = v.durable_image();
        // Every byte is old-or-new; never garbage.
        assert!(img.iter().all(|&b| b == 0xaa || b == 0xbb));
    }
}
