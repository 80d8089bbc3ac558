//! Spans of the traced run, recorded from outside the program around
//! each call into a layer and kept in memory sized before the run.

use std::io::Write;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One operation, submit to completion (the root of its tree).
    Op,
    /// An `AfClient::submit_*` call.
    Submit,
    /// A non-empty `AfClient::poll` call.
    Poll,
    /// An `Extent::read_at` call of the h5 VOL.
    ExtentRead,
    /// An `Extent::write_at` call of the h5 VOL.
    ExtentWrite,
    /// Layer replays after the traced window: the PDU codec, the
    /// controller, the bare `FileDisk`, the CRC.
    ReplayPdu,
    ReplayController,
    ReplayDisk,
    ReplayCrc,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::Submit => "submit",
            SpanKind::Poll => "poll",
            SpanKind::ExtentRead => "extent_read",
            SpanKind::ExtentWrite => "extent_write",
            SpanKind::ReplayPdu => "replay_pdu",
            SpanKind::ReplayController => "replay_controller",
            SpanKind::ReplayDisk => "replay_disk",
            SpanKind::ReplayCrc => "replay_crc",
        }
    }
}

/// One recorded span. `seq` identifies the operation (a sequence
/// number, never the reused wire cid); `parent` is the operation a
/// child span belongs to (0 for roots).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    pub seq: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A fixed-capacity span buffer: once full, further spans are counted
/// as dropped rather than stored.
pub struct Spans {
    buf: Vec<Span>,
    pub dropped: u64,
}

impl Spans {
    pub fn with_capacity(n: usize) -> Self {
        Spans {
            buf: Vec::with_capacity(n),
            dropped: 0,
        }
    }

    pub fn push(&mut self, kind: SpanKind, seq: u64, parent: u64, start_ns: u64, dur_ns: u64) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(Span {
                kind,
                seq,
                parent,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.buf
    }

    /// Durations of every span of `kind`, in nanoseconds.
    pub fn durations(&self, kind: SpanKind) -> Vec<u64> {
        self.buf
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Writes the spans as CSV (`kind,seq,parent,start_ns,dur_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind,seq,parent,start_ns,dur_ns")?;
        for s in &self.buf {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.kind.name(),
                s.seq,
                s.parent,
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [u64]) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}
