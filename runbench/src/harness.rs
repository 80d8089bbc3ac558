//! The generator's bookkeeping: the seeded op stream, the cid-indexed
//! in-flight table, the shadow model every read is checked against, and
//! the preallocated latency logs.
//!
//! Everything the closed loop touches per operation lives here and is
//! sized before the loop starts: no call on the submit or completion
//! path allocates or hashes (`tests/harness_alloc.rs` holds that).

use crate::trace::{SpanKind, Spans};

/// Block size of every namespace the benchmark drives.
pub const BLOCK: usize = 4096;

/// SplitMix64: the only source of randomness; the stream it yields is a
/// pure function of the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (multiply-shift, no modulo bias worth noting
    /// for the spans used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one generated operation does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kind {
    #[default]
    Read,
    Write,
    WriteFua,
}

impl Kind {
    pub fn is_write(self) -> bool {
        !matches!(self, Kind::Read)
    }
}

/// One generated operation: an op-sized, op-aligned slot of the span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Op {
    pub slot: u32,
    pub kind: Kind,
}

/// The shape of a closed-loop block workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Bytes per operation (a multiple of [`BLOCK`]).
    pub op_bytes: usize,
    /// Connections, all driven by the one generator thread.
    pub clients: usize,
    /// Operations in flight per connection.
    pub qd: usize,
    /// Slots each connection owns; connection `c` owns the disjoint
    /// range `c * slots_per_client ..`.
    pub slots_per_client: u32,
    /// Percentage of operations that read.
    pub read_pct: u32,
    /// Every `fua_every`-th write of a connection carries FUA (0: none).
    pub fua_every: u32,
    /// Hot region at the start of each connection's range, in slots
    /// (0: uniform over the range).
    pub hot_slots: u32,
    /// Percentage of operations aimed at the hot region.
    pub hot_pct: u32,
}

impl Shape {
    pub fn nlb(&self) -> u32 {
        (self.op_bytes / BLOCK) as u32
    }

    pub fn total_slots(&self) -> u32 {
        self.slots_per_client * self.clients as u32
    }

    pub fn lba(&self, slot: u32) -> u64 {
        u64::from(slot) * u64::from(self.nlb())
    }
}

/// Pre-generates `len` operations for connection `client`. The stream
/// depends only on `(shape, client, seed)`.
pub fn generate(shape: &Shape, client: usize, seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ (client as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let base = client as u32 * shape.slots_per_client;
    let mut writes = 0u32;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let local = if shape.hot_slots > 0 && (rng.below(100) as u32) < shape.hot_pct {
            rng.below(u64::from(shape.hot_slots)) as u32
        } else {
            rng.below(u64::from(shape.slots_per_client)) as u32
        };
        let kind = if (rng.below(100) as u32) < shape.read_pct {
            Kind::Read
        } else {
            writes += 1;
            if shape.fua_every > 0 && writes.is_multiple_of(shape.fua_every) {
                Kind::WriteFua
            } else {
                Kind::Write
            }
        };
        ops.push(Op {
            slot: base + local,
            kind,
        });
    }
    ops
}

// ---------------------------------------------------------------------------
// Payload stamps

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
const MAGIC: u64 = 0x4F41_4642 << 32;

fn stamp_base(lba: u64, ver: u32) -> u64 {
    mix(lba.wrapping_mul(GOLDEN) ^ (u64::from(ver) << 17) ^ 0x5EED)
}

/// Fills every block of `buf` with its `(lba, version)` stamp: a header
/// (LBA, magic|version) followed by words derived from both, so a block
/// written elsewhere, torn, or stale fails the check byte by byte.
pub fn stamp(buf: &mut [u8], first_lba: u64, ver: u32) {
    for (j, block) in buf.chunks_exact_mut(BLOCK).enumerate() {
        let lba = first_lba + j as u64;
        let base = stamp_base(lba, ver);
        let mut words = block.chunks_exact_mut(8);
        words
            .next()
            .expect("block holds a header")
            .copy_from_slice(&lba.to_le_bytes());
        words
            .next()
            .expect("block holds a header")
            .copy_from_slice(&(MAGIC | u64::from(ver)).to_le_bytes());
        let mut w = base;
        for word in words {
            w = w.wrapping_add(GOLDEN);
            word.copy_from_slice(&w.to_le_bytes());
        }
    }
}

/// Checks one stamped block written at `lba`; returns its version when
/// every byte matches a stamp of that LBA.
pub fn block_version(block: &[u8], lba: u64) -> Option<u32> {
    if block.len() != BLOCK {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    if word(0) != lba || word(1) & !0xFFFF_FFFF != MAGIC {
        return None;
    }
    let ver = word(1) as u32;
    let mut w = stamp_base(lba, ver);
    for i in 2..BLOCK / 8 {
        w = w.wrapping_add(GOLDEN);
        if word(i) != w {
            return None;
        }
    }
    Some(ver)
}

// ---------------------------------------------------------------------------
// Shadow model

/// Per-slot version bookkeeping. A read may return any version from the
/// floor recorded when it was submitted up to the newest write
/// submitted: the last acknowledged version or one in flight.
///
/// Writes to a slot that overlap in flight form a group, and the device
/// may apply a group's writes in any order. Once any write of the
/// current group is acknowledged, every older version is overwritten,
/// so the floor rises to the group's first version.
pub struct Shadow {
    issued: Vec<u32>,
    floor: Vec<u32>,
    inflight: Vec<u16>,
    group_min: Vec<u32>,
}

impl Shadow {
    pub fn new(slots: u32) -> Self {
        let n = slots as usize;
        Shadow {
            issued: vec![0; n],
            floor: vec![0; n],
            inflight: vec![0; n],
            group_min: vec![0; n],
        }
    }

    pub fn reset(&mut self) {
        for v in [&mut self.issued, &mut self.floor, &mut self.group_min] {
            v.iter_mut().for_each(|x| *x = 0);
        }
        self.inflight.iter_mut().for_each(|x| *x = 0);
    }

    /// Assigns the next version of `slot` to a write about to be sent.
    pub fn begin_write(&mut self, slot: u32) -> u32 {
        let s = slot as usize;
        self.issued[s] += 1;
        if self.inflight[s] == 0 {
            self.group_min[s] = self.issued[s];
        }
        self.inflight[s] += 1;
        self.issued[s]
    }

    /// Retires a write. An acknowledged one raises the floor to the
    /// first version of its group; without overlap that is exactly the
    /// version just acknowledged.
    pub fn end_write(&mut self, slot: u32, ok: bool) {
        let s = slot as usize;
        self.inflight[s] -= 1;
        if ok {
            self.floor[s] = self.floor[s].max(self.group_min[s]);
        }
    }

    pub fn floor(&self, slot: u32) -> u32 {
        self.floor[slot as usize]
    }

    /// Whether `data`, read from `slot` with floor `floor`, holds an
    /// allowed version in every block.
    pub fn check(&self, shape: &Shape, slot: u32, floor: u32, data: &[u8]) -> bool {
        if data.len() != shape.op_bytes {
            return false;
        }
        let hi = self.issued[slot as usize];
        let lba = shape.lba(slot);
        data.chunks_exact(BLOCK)
            .enumerate()
            .all(|(j, b)| block_version(b, lba + j as u64).is_some_and(|v| v >= floor && v <= hi))
    }
}

// ---------------------------------------------------------------------------
// In-flight table and latency logs

/// One submitted operation awaiting its completion.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pending {
    pub seq: u64,
    pub t_ns: u64,
    pub slot: u32,
    pub floor: u32,
    pub kind: Kind,
    pub live: bool,
}

/// In-flight operations indexed by wire cid (a `u16`), one table per
/// connection: lookup is an array index, never a hash.
pub struct CidTable {
    entries: Vec<Pending>,
    live: usize,
}

impl Default for CidTable {
    fn default() -> Self {
        CidTable {
            entries: vec![Pending::default(); 1 << 16],
            live: 0,
        }
    }
}

impl CidTable {
    pub fn insert(&mut self, cid: u16, p: Pending) -> bool {
        let e = &mut self.entries[cid as usize];
        if e.live {
            return false;
        }
        *e = Pending { live: true, ..p };
        self.live += 1;
        true
    }

    pub fn take(&mut self, cid: u16) -> Option<Pending> {
        let e = &mut self.entries[cid as usize];
        if !e.live {
            return None;
        }
        e.live = false;
        self.live -= 1;
        Some(*e)
    }

    pub fn live(&self) -> usize {
        self.live
    }

    pub fn drain_live(&mut self) -> impl Iterator<Item = Pending> + '_ {
        self.live = 0;
        self.entries.iter_mut().filter(|e| e.live).map(|e| {
            e.live = false;
            *e
        })
    }
}

/// Latency samples in nanoseconds, in storage sized up front. Samples
/// past capacity are counted, not stored.
pub struct LatencyLog {
    ns: Vec<u32>,
    pub dropped: u64,
}

impl LatencyLog {
    pub fn with_capacity(n: usize) -> Self {
        LatencyLog {
            ns: Vec::with_capacity(n),
            dropped: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        if self.ns.len() < self.ns.capacity() {
            self.ns.push(ns.min(u64::from(u32::MAX)) as u32);
        } else {
            self.dropped += 1;
        }
    }

    pub fn clear(&mut self) {
        self.ns.clear();
        self.dropped = 0;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// `[p50, p90, p99]` in microseconds of the samples recorded between
    /// positions `from` and `to` (see [`LatencyLog::len`]); sorts that
    /// range in place.
    pub fn percentiles_us(&mut self, from: usize, to: usize) -> [f64; 3] {
        let s = &mut self.ns[from..to];
        if s.is_empty() {
            return [0.0; 3];
        }
        s.sort_unstable();
        let q = |p: f64| f64::from(s[((s.len() - 1) as f64 * p).round() as usize]) / 1e3;
        [q(0.50), q(0.90), q(0.99)]
    }
}

// ---------------------------------------------------------------------------
// The book

/// Which operations the generator hands out next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One write to every slot of the connection's range, in order.
    Prefill,
    /// The seeded stream, cycled.
    Stream,
    /// One read of every slot of the connection's range, in order.
    Readback,
    /// Nothing: in-flight operations drain.
    Drain,
}

/// Counters of one measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    pub completed: u64,
    pub bytes: u64,
    pub polls: u64,
    pub empty_polls: u64,
}

/// All per-operation state of one benchmark run.
pub struct Book {
    pub shape: Shape,
    streams: Vec<Vec<Op>>,
    cursor: Vec<usize>,
    pub mode: Mode,
    pub tables: Vec<CidTable>,
    pub shadow: Shadow,
    pub reads: LatencyLog,
    pub writes: LatencyLog,
    /// Whether completions count toward [`Book::window`] and the logs.
    pub counting: bool,
    pub window: Window,
    pub seq: u64,
    pub attempted: u64,
    pub failed: u64,
    pub verified_reads: u64,
    pub spans: Option<Spans>,
}

impl Book {
    /// Sizes every table: `stream_len` ops per connection and room for
    /// `samples` latencies per direction.
    pub fn new(shape: Shape, seed: u64, stream_len: usize, samples: usize) -> Self {
        Book {
            streams: (0..shape.clients)
                .map(|c| generate(&shape, c, seed, stream_len))
                .collect(),
            cursor: vec![0; shape.clients],
            mode: Mode::Drain,
            tables: (0..shape.clients).map(|_| CidTable::default()).collect(),
            shadow: Shadow::new(shape.total_slots()),
            reads: LatencyLog::with_capacity(samples),
            writes: LatencyLog::with_capacity(samples),
            counting: false,
            window: Window::default(),
            seq: 0,
            attempted: 0,
            failed: 0,
            verified_reads: 0,
            spans: None,
            shape,
        }
    }

    /// Switches every connection to `mode`, starting ranged modes at
    /// their first slot.
    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
        if matches!(mode, Mode::Prefill | Mode::Readback) {
            self.cursor.iter_mut().for_each(|c| *c = 0);
        }
    }

    /// Opens a measured window: counters and logs restart.
    pub fn begin_window(&mut self) {
        self.window = Window::default();
        self.reads.clear();
        self.writes.clear();
        self.counting = true;
    }

    /// Connection `c`'s pre-generated stream.
    pub fn stream(&self, c: usize) -> &[Op] {
        &self.streams[c]
    }

    pub fn inflight(&self) -> usize {
        self.tables.iter().map(CidTable::live).sum()
    }

    /// The next operation for connection `c`, or `None` when the mode
    /// has no more. A write's payload version is assigned here.
    pub fn next_op(&mut self, c: usize) -> Option<(Op, u32)> {
        let base = c as u32 * self.shape.slots_per_client;
        let op = match self.mode {
            Mode::Drain => return None,
            Mode::Stream => {
                let s = &self.streams[c];
                let op = s[self.cursor[c]];
                self.cursor[c] = (self.cursor[c] + 1) % s.len();
                op
            }
            Mode::Prefill | Mode::Readback => {
                if self.cursor[c] >= self.shape.slots_per_client as usize {
                    return None;
                }
                let slot = base + self.cursor[c] as u32;
                self.cursor[c] += 1;
                let kind = if self.mode == Mode::Prefill {
                    Kind::Write
                } else {
                    Kind::Read
                };
                Op { slot, kind }
            }
        };
        let aux = if op.kind.is_write() {
            self.shadow.begin_write(op.slot)
        } else {
            self.shadow.floor(op.slot)
        };
        Some((op, aux))
    }

    /// Records that `op` went out as `cid` at `t_ns`. `aux` is what
    /// [`Book::next_op`] returned with it.
    pub fn submitted(&mut self, c: usize, cid: u16, op: Op, aux: u32, t_ns: u64) -> u64 {
        self.seq += 1;
        self.attempted += 1;
        let fresh = self.tables[c].insert(
            cid,
            Pending {
                seq: self.seq,
                t_ns,
                slot: op.slot,
                floor: if op.kind.is_write() { 0 } else { aux },
                kind: op.kind,
                live: true,
            },
        );
        if !fresh {
            // A cid reused while still in flight: the runtime broke its
            // contract; the earlier operation can no longer be matched.
            self.failed += 1;
        }
        self.seq
    }

    /// Records a submission the runtime refused.
    pub fn submit_failed(&mut self, op: Op) {
        self.attempted += 1;
        self.failed += 1;
        if op.kind.is_write() {
            self.shadow.end_write(op.slot, false);
        }
    }

    /// Retires completion `cid` of connection `c`, observed at `t_ns`;
    /// `data` is the read payload. Returns the operation's sequence
    /// number.
    pub fn completed(
        &mut self,
        c: usize,
        cid: u16,
        ok: bool,
        data: &[u8],
        t_ns: u64,
    ) -> Option<u64> {
        let Some(p) = self.tables[c].take(cid) else {
            self.failed += 1;
            return None;
        };
        let mut good = ok;
        if p.kind.is_write() {
            self.shadow.end_write(p.slot, ok);
        } else if ok {
            good = self.shadow.check(&self.shape, p.slot, p.floor, data);
            if good {
                self.verified_reads += 1;
            }
        }
        if !good {
            self.failed += 1;
        }
        let lat = t_ns.saturating_sub(p.t_ns);
        if self.counting && good {
            self.window.completed += 1;
            self.window.bytes += self.shape.op_bytes as u64;
            if p.kind.is_write() {
                self.writes.record(lat);
            } else {
                self.reads.record(lat);
            }
        }
        if let Some(spans) = self.spans.as_mut() {
            spans.push(SpanKind::Op, p.seq, 0, p.t_ns, lat);
        }
        Some(p.seq)
    }

    /// Fails every operation still in flight (the runtime lost them).
    pub fn abandon_inflight(&mut self) -> u64 {
        let mut lost = 0;
        for t in &mut self.tables {
            for p in t.drain_live() {
                lost += 1;
                if p.kind.is_write() {
                    self.shadow.end_write(p.slot, false);
                }
            }
        }
        self.failed += lost;
        lost
    }
}
