//! Seeded kill-point crash soak for the durable store.
//!
//! Each iteration runs a random workload (writes, FUA writes, flushes,
//! TRIMs, Write Zeroes) over a [`CrashVfs`] that dies at a seeded
//! mutating-syscall index — mid-record-append, between the log append
//! and the data apply, inside an fsync, anywhere. The wreckage is then
//! mounted read-only and checked against a per-LBA *allowed-set* model
//! (the same discipline as the fabric's `failure_injection` soak):
//!
//! * every recovered byte must be a value some crash-consistent history
//!   could have left there — acknowledged-but-unflushed writes may be
//!   old or new, torn in-flight writes may be a prefix;
//! * bytes acknowledged under a sync barrier (flush, FUA) before the
//!   last successful barrier MUST hold exactly their synced value: a
//!   lost acknowledged-durable write is the one unforgivable bug;
//! * mounting twice yields the identical image: replay is idempotent
//!   and detects the same durable prefix both times.
//!
//! A failing run prints its seed; `OAF_CHAOS_SEED=<seed>` (plus
//! `OAF_CRASH_PHASE=<phase>` and `OAF_CACHE_BLOCKS=<n>`) replays it
//! bit-for-bit. CI's `crash` job runs the seed × phase matrix in
//! release mode, with a cache-enabled leg.
//!
//! Every round runs *through* the block cache at several capacities
//! (0 = uncached, 1 = pure thrash, 8 = mixed hit/evict) — deferred
//! applies, dirty-eviction write-backs and barrier drains all happen
//! under the same kill points and must satisfy the same model.

use std::collections::HashSet;

use oaf_chaos::rng::ChaosRng;
use oaf_chaos::CrashPoint;
use oaf_ssd::BlockStore;
use oaf_store::vfs::{CrashVfs, MemVfs};
use oaf_store::FileDisk;

const BLOCK: usize = 512;
const BLOCKS: u64 = 64;
const LOG_BYTES: u64 = 64 * 1024;

/// Kill-window upper bound: the workload loops until the crash fires,
/// so any point in [1, MAX_OPS] is reachable.
const MAX_OPS: u64 = 600;

fn chaos_seed() -> u64 {
    std::env::var("OAF_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15C_C4A5)
}

/// Workload phase: which operation mix drives the store into the crash.
/// Selected by `OAF_CRASH_PHASE` so CI can matrix over it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Write,
    Flush,
    Trim,
    Mixed,
}

fn crash_phase() -> Phase {
    match std::env::var("OAF_CRASH_PHASE").as_deref() {
        Ok("write") => Phase::Write,
        Ok("flush") => Phase::Flush,
        Ok("trim") => Phase::Trim,
        _ => Phase::Mixed,
    }
}

/// `OAF_SYNC_OFFLOAD=1` runs the soak through the [`SharedFileDisk`]
/// every target serves, instead of the owned single-thread disk: every
/// barrier waits on its sync worker's `fdatasync`, so kill points land
/// *inside the worker's sync* with acknowledged-volatile state
/// outstanding. The worker thread's syscalls interleave with the
/// workload's, so the seeded kill point is reproducible in distribution
/// rather than bit-for-bit — the allowed-set model is ack-driven and
/// holds for every interleaving. The default leg stays on the owned
/// disk, whose inline barrier replays bit-for-bit.
///
/// [`SharedFileDisk`]: oaf_store::SharedFileDisk
fn shared_disk() -> bool {
    std::env::var("OAF_SYNC_OFFLOAD").as_deref() == Ok("1")
}

/// Block-cache capacities the soak sweeps per round; `OAF_CACHE_BLOCKS`
/// pins a single capacity for exact replay / CI matrix legs.
fn cache_capacities() -> Vec<usize> {
    match std::env::var("OAF_CACHE_BLOCKS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) => vec![n],
        None => vec![0, 1, 8],
    }
}

/// The per-LBA uncertainty model. Blocks are always filled with a single
/// stamp byte, so torn in-flight writes (prefix-of-new + suffix-of-old)
/// stay checkable byte-by-byte.
struct Model {
    /// Values a post-crash mount may legally find in each block's bytes.
    allowed: Vec<HashSet<u8>>,
    /// The definite content of the running (pre-crash) store.
    current: Vec<u8>,
}

impl Model {
    fn new() -> Model {
        Model {
            allowed: (0..BLOCKS).map(|_| HashSet::from([0u8])).collect(),
            current: vec![0u8; BLOCKS as usize],
        }
    }

    /// An acknowledged, not-yet-synced mutation: the platter may hold
    /// old or new.
    fn acked_volatile(&mut self, lba: u64, nlb: u32, stamp: u8) {
        for b in lba..lba + u64::from(nlb) {
            self.allowed[b as usize].insert(stamp);
            self.current[b as usize] = stamp;
        }
    }

    /// A mutation whose submission *errored with the crash*: it was
    /// never acknowledged, so old-or-new (or torn) is within contract.
    fn unacked(&mut self, lba: u64, nlb: u32, stamp: u8) {
        for b in lba..lba + u64::from(nlb) {
            self.allowed[b as usize].insert(stamp);
        }
    }

    /// A successful sync barrier (flush ack or FUA write ack): every
    /// acknowledged byte is now guaranteed on the platter.
    fn synced(&mut self) {
        for (b, set) in self.allowed.iter_mut().enumerate() {
            set.clear();
            set.insert(self.current[b]);
        }
    }
}

/// One crash iteration: workload (through a `cache_blocks`-entry block
/// cache) until the kill point fires, then mount the wreckage (twice)
/// and hold it against the model.
fn crash_round(seed: u64, phase: Phase, cache_blocks: usize) {
    let point = CrashPoint::seeded(seed, MAX_OPS);
    let vfs = CrashVfs::new(seed ^ 0x5EED, Some(point.fire_at()));
    let mut rng = ChaosRng::new(seed.wrapping_mul(0x9E37_79B9));

    let created = FileDisk::create_on(Box::new(vfs.clone()), BLOCK as u32, BLOCKS, LOG_BYTES)
        .and_then(|d| d.with_cache(cache_blocks));
    let mut disk: Box<dyn BlockStore> = match created {
        Ok(d) if shared_disk() => Box::new(d.into_shared()),
        Ok(d) => Box::new(d),
        Err(_) => {
            // Died formatting (kill point 1 or 2): the wreckage has no
            // fully-synced superblock yet, so the only guarantee is a
            // clean typed failure on mount — no panic, no garbage disk.
            assert!(vfs.crashed(), "create may only fail via injected crash");
            assert!(
                FileDisk::open_on(Box::new(MemVfs::from_image(vfs.durable_image()))).is_err(),
                "a half-formatted store must refuse to mount"
            );
            return;
        }
    };

    let mut model = Model::new();
    let mut stamp: u8 = 0;
    let mut crashed = false;
    for _ in 0..10_000 {
        // Stamp 0 is reserved for trimmed/zeroed/initial blocks.
        stamp = if stamp >= 250 { 1 } else { stamp + 1 };
        let lba = rng.range(0, BLOCKS - 3);
        let nlb = rng.range(1, 4) as u32;
        let roll = rng.range(0, 100);
        // Phase-dependent op mix; every phase keeps plain writes in the
        // stream so there is always volatile state at the kill point.
        let res: Result<&str, _> = match phase {
            Phase::Write => {
                if roll < 80 {
                    let buf = vec![stamp; nlb as usize * BLOCK];
                    disk.write(lba, nlb, &buf, false).map(|_| "write")
                } else {
                    let buf = vec![stamp; nlb as usize * BLOCK];
                    disk.write(lba, nlb, &buf, true).map(|_| "fua")
                }
            }
            Phase::Flush => {
                if roll < 60 {
                    let buf = vec![stamp; nlb as usize * BLOCK];
                    disk.write(lba, nlb, &buf, false).map(|_| "write")
                } else {
                    disk.flush().map(|_| "flush")
                }
            }
            Phase::Trim => {
                if roll < 45 {
                    let buf = vec![stamp; nlb as usize * BLOCK];
                    disk.write(lba, nlb, &buf, false).map(|_| "write")
                } else if roll < 80 {
                    disk.trim(lba, nlb).map(|_| "trim")
                } else {
                    disk.write_zeroes(lba, nlb).map(|_| "zeroes")
                }
            }
            Phase::Mixed => {
                if roll < 45 {
                    let buf = vec![stamp; nlb as usize * BLOCK];
                    disk.write(lba, nlb, &buf, false).map(|_| "write")
                } else if roll < 60 {
                    let buf = vec![stamp; nlb as usize * BLOCK];
                    disk.write(lba, nlb, &buf, true).map(|_| "fua")
                } else if roll < 75 {
                    disk.trim(lba, nlb).map(|_| "trim")
                } else if roll < 85 {
                    disk.write_zeroes(lba, nlb).map(|_| "zeroes")
                } else {
                    disk.flush().map(|_| "flush")
                }
            }
        };
        match res {
            Ok("write") => model.acked_volatile(lba, nlb, stamp),
            Ok("fua") => {
                model.acked_volatile(lba, nlb, stamp);
                model.synced();
            }
            Ok("trim") | Ok("zeroes") => model.acked_volatile(lba, nlb, 0),
            Ok("flush") => model.synced(),
            Ok(_) => unreachable!(),
            Err(_) => {
                assert!(
                    vfs.crashed(),
                    "seed {seed} phase {phase:?}: I/O failed without an injected crash \
                     (replay with OAF_CHAOS_SEED={seed})"
                );
                // The op that died was never acknowledged: its stamp is
                // a legal (possibly torn) survivor. A dying flush sync
                // grants nothing. Re-derive the in-flight op's effect
                // on the model from the roll.
                let in_flight_stamp = match phase {
                    Phase::Write => Some(stamp),
                    Phase::Flush => {
                        if roll < 60 {
                            Some(stamp)
                        } else {
                            None
                        }
                    }
                    Phase::Trim => {
                        if roll < 45 {
                            Some(stamp)
                        } else {
                            Some(0)
                        }
                    }
                    Phase::Mixed => {
                        if roll < 60 {
                            Some(stamp)
                        } else if roll < 85 {
                            Some(0)
                        } else {
                            None
                        }
                    }
                };
                if let Some(s) = in_flight_stamp {
                    model.unacked(lba, nlb, s);
                }
                crashed = true;
                break;
            }
        }
    }
    assert!(
        crashed,
        "seed {seed}: kill point {} never fired in 10k ops",
        point.fire_at()
    );

    // Tear the dead store down first: in the shared-disk leg this joins
    // the sync worker, so no thread races the durable-image snapshot.
    drop(disk);

    // Mount the wreckage — reads go back through a cache of the same
    // capacity. Recovery must always succeed: the superblock was fully
    // synced at create time and is never overwritten in place.
    let image = vfs.durable_image();
    let mounted = FileDisk::open_on(Box::new(MemVfs::from_image(image.clone())))
        .and_then(|d| d.with_cache(cache_blocks))
        .unwrap_or_else(|e| panic!("seed {seed}: post-crash mount failed: {e}"));

    let read_all = |d: &FileDisk| {
        let mut out = vec![0u8; (BLOCKS as usize) * BLOCK];
        d.read(0, BLOCKS as u32, &mut out).expect("recovered read");
        out
    };
    let state = read_all(&mounted);

    // Allowed-set check, byte granular: torn in-flight data writes may
    // mix two stamps inside one block, but never invent a third.
    let mut violations = 0;
    for b in 0..BLOCKS as usize {
        for (i, &byte) in state[b * BLOCK..(b + 1) * BLOCK].iter().enumerate() {
            if !model.allowed[b].contains(&byte) {
                violations += 1;
                if violations <= 5 {
                    eprintln!(
                        "seed {seed} phase {phase:?} cache {cache_blocks}: lba {b} byte {i} = \
                         {byte:#x}, allowed {:?} (replay with OAF_CHAOS_SEED={seed} \
                         OAF_CACHE_BLOCKS={cache_blocks})",
                        model.allowed[b]
                    );
                }
            }
        }
    }
    assert_eq!(
        violations, 0,
        "seed {seed} phase {phase:?} cache {cache_blocks}: {violations} bytes outside the \
         allowed set (replay with OAF_CHAOS_SEED={seed} OAF_CACHE_BLOCKS={cache_blocks})"
    );

    // Idempotence: a second mount of the same wreckage sees the same
    // world — same replayed prefix, same torn-tail truncation.
    let remounted = FileDisk::open_on(Box::new(MemVfs::from_image(image))).unwrap();
    assert_eq!(
        state,
        read_all(&remounted),
        "seed {seed}: double mount diverged (replay with OAF_CHAOS_SEED={seed})"
    );
    assert_eq!(
        mounted.metrics().replay_ops.get(),
        remounted.metrics().replay_ops.get(),
        "seed {seed}: replay op counts diverged"
    );
}

#[test]
fn crash_soak_allowed_set_holds() {
    let base = chaos_seed();
    let phase = crash_phase();
    let caps = cache_capacities();
    let rounds: u64 = if std::env::var("OAF_CHAOS_SEED").is_ok() {
        1 // exact replay of one seed
    } else {
        24
    };
    let mut torn_total = 0u64;
    for &cap in &caps {
        for i in 0..rounds {
            let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            crash_round(seed, phase, cap);
            torn_total += 1;
        }
    }
    eprintln!(
        "crash soak: {torn_total} kill points survived (phase {phase:?}, caches {caps:?}, \
         shared {}, base seed {base:#x})",
        shared_disk()
    );
}

#[test]
fn crash_during_checkpoint_is_survivable() {
    // Force checkpoints with a minimal log, then kill inside the
    // checkpoint window across a seed sweep: the dual-slot superblock
    // must leave either the old epoch (replayable) or the new one
    // mountable at every kill point. Runs uncached and through a small
    // cache, whose dirty entries must drain before every epoch roll.
    for cap in [0usize, 4] {
        for seed in 0..32u64 {
            let point = CrashPoint::seeded(seed, 400);
            let vfs = CrashVfs::new(seed ^ (cap as u64) << 32, Some(point.fire_at()));
            let created = FileDisk::create_on(Box::new(vfs.clone()), 512, 16, 64 * 1024)
                .and_then(|d| d.with_cache(cap));
            let mut disk = match created {
                Ok(d) => d,
                Err(_) => continue, // died formatting; covered elsewhere
            };
            let mut last_synced: Option<Vec<u8>> = None;
            let mut synced_at = 0usize;
            let mut wrote = vec![];
            for i in 0..2_000u64 {
                let lba = i % 16;
                let buf = vec![(i % 200) as u8 + 1; 512];
                if disk.write(lba, 1, &buf, false).is_err() {
                    break;
                }
                wrote.push((lba, (i % 200) as u8 + 1));
                if i % 64 == 63 {
                    if disk.flush().is_err() {
                        break;
                    }
                    synced_at = wrote.len();
                    let mut img = vec![0u8; 16 * 512];
                    disk.read(0, 16, &mut img).unwrap();
                    last_synced = Some(img);
                }
            }
            assert!(vfs.crashed(), "seed {seed}: never crashed");
            let mounted = FileDisk::open_on(Box::new(MemVfs::from_image(vfs.durable_image())))
                .unwrap_or_else(|e| panic!("seed {seed}: mount after checkpoint crash: {e}"));
            // Everything under the last successful flush must be intact.
            if let Some(synced) = last_synced {
                let mut now = vec![0u8; 16 * 512];
                mounted.read(0, 16, &mut now).unwrap();
                // Blocks whose last mutation predates the flush must match
                // exactly; later-written blocks may hold newer stamps, so
                // only check blocks untouched after the flush.
                let touched_after: std::collections::HashSet<u64> =
                    wrote[synced_at..].iter().map(|&(lba, _)| lba).collect();
                for lba in 0..16u64 {
                    if !touched_after.contains(&lba) {
                        let a = &synced[lba as usize * 512..(lba as usize + 1) * 512];
                        let b = &now[lba as usize * 512..(lba as usize + 1) * 512];
                        assert_eq!(a, b, "seed {seed} cache {cap}: flushed lba {lba} regressed");
                    }
                }
            }
        }
    }
}
