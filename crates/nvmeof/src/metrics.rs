//! Metric bundles for the NVMe-oF data plane.
//!
//! Each bundle is a plain struct of `Arc`-backed [`oaf_telemetry`]
//! handles, created *detached* alongside the subsystem it instruments
//! (transport endpoint, initiator, target connection) so the hot path
//! never branches on "is telemetry enabled" — recording is always a few
//! relaxed atomics. `register` publishes the same handles into a
//! [`Scope`] at wiring time; until then the numbers simply accumulate
//! unobserved.

use crate::nvme::command::Opcode;
use oaf_telemetry::{Counter, Gauge, Histo, Scope};
use std::sync::Arc;

/// Per-endpoint transport counters: frame/byte flow, batch shape, the
/// owned-vs-borrowed receive split, and congestion/backoff behavior.
#[derive(Default, Debug)]
pub struct TransportMetrics {
    /// Frames successfully handed to the peer.
    pub frames_sent: Counter,
    /// Payload bytes successfully handed to the peer.
    pub bytes_sent: Counter,
    /// Frames received from the peer.
    pub frames_received: Counter,
    /// Payload bytes received from the peer.
    pub bytes_received: Counter,
    /// `recv_batch` burst sizes (only non-empty batches are recorded,
    /// so idle polls don't swamp the distribution).
    pub batch_sizes: Histo,
    /// Frames delivered as borrowed ring slices (zero-copy path).
    pub frames_borrowed: Counter,
    /// Frames delivered as owned buffers (copy or channel hand-off).
    pub frames_owned: Counter,
    /// Sends that exhausted the full-ring backoff and gave up with
    /// [`crate::error::NvmeofError::RingFull`].
    pub ring_full: Counter,
    /// Busy-poll iterations spent waiting on a ring (send or receive).
    pub backoff_spins: Counter,
    /// `yield_now` calls spent waiting on a ring (send or receive).
    pub backoff_yields: Counter,
}

impl TransportMetrics {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("frames_sent", &self.frames_sent);
        scope.adopt_counter("bytes_sent", &self.bytes_sent);
        scope.adopt_counter("frames_received", &self.frames_received);
        scope.adopt_counter("bytes_received", &self.bytes_received);
        scope.adopt_histo("batch_sizes", &self.batch_sizes);
        scope.adopt_counter("frames_borrowed", &self.frames_borrowed);
        scope.adopt_counter("frames_owned", &self.frames_owned);
        scope.adopt_counter("ring_full", &self.ring_full);
        scope.adopt_counter("backoff_spins", &self.backoff_spins);
        scope.adopt_counter("backoff_yields", &self.backoff_yields);
    }

    #[inline]
    pub(crate) fn on_send(&self, bytes: usize) {
        self.frames_sent.inc();
        self.bytes_sent.add(bytes as u64);
    }

    #[inline]
    pub(crate) fn on_send_burst(&self, frames: u64, bytes: u64) {
        self.frames_sent.add(frames);
        self.bytes_sent.add(bytes);
    }

    #[inline]
    pub(crate) fn on_recv_owned(&self, bytes: usize) {
        self.frames_received.inc();
        self.bytes_received.add(bytes as u64);
        self.frames_owned.inc();
    }

    #[inline]
    pub(crate) fn on_recv_borrowed(&self, bytes: usize) {
        self.frames_received.inc();
        self.bytes_received.add(bytes as u64);
        self.frames_borrowed.inc();
    }

    /// Record a completed wait (successful or not) on a ring.
    #[inline]
    pub(crate) fn on_backoff(&self, spins: u64, yields: u64) {
        if spins > 0 {
            self.backoff_spins.add(spins);
        }
        if yields > 0 {
            self.backoff_yields.add(yields);
        }
    }
}

/// Number of distinct opcodes the per-opcode latency table covers.
pub const OPCODES: usize = 7;

/// Dense index for the per-opcode latency table.
#[inline]
pub fn opcode_index(op: Opcode) -> usize {
    match op {
        Opcode::Flush => 0,
        Opcode::Write => 1,
        Opcode::Read => 2,
        Opcode::Compare => 3,
        Opcode::Identify => 4,
        Opcode::WriteZeroes => 5,
        Opcode::Dsm => 6,
    }
}

const OPCODE_NAMES: [&str; OPCODES] = [
    "flush",
    "write",
    "read",
    "compare",
    "identify",
    "write_zeroes",
    "dsm",
];

/// Initiator-side view of the command stream: queue depth, volume, and
/// per-opcode submit→completion latency distributions (nanoseconds).
#[derive(Debug)]
pub struct InitiatorMetrics {
    /// Commands submitted (all opcodes).
    pub submitted: Counter,
    /// Completions received.
    pub completions: Counter,
    /// Completions carrying a non-success NVMe status.
    pub errors: Counter,
    /// Commands currently in flight; `hwm()` is the deepest the queue
    /// has ever been.
    pub inflight: Gauge,
    /// Payload bytes moved without an application-side copy (lease-based
    /// writes published in place, reads borrowed from the slot).
    pub zero_copy_bytes: Counter,
    /// Application-side copies the lease path avoided versus the
    /// one-copy publish/consume path.
    pub copies_avoided: Counter,
    /// Commands resubmitted after a deadline expiry (reads directly,
    /// writes after an abort round-trip).
    pub retries: Counter,
    /// Commands whose retry budget ran out and were surfaced as
    /// [`crate::error::NvmeofError::Timeout`].
    pub timeouts: Counter,
    /// Keep-alive heartbeats that went unanswered past the interval.
    pub keepalive_misses: Counter,
    /// Mid-flight shm→TCP payload-path degradations.
    pub degradations: Counter,
    /// Frames for already-retired commands (late duplicates or
    /// completions that raced a retry) dropped instead of erroring.
    pub stale_frames: Counter,
    /// Received frames dropped for failing CRC or structural decode.
    pub corrupt_frames: Counter,
    /// Abort requests sent as part of write-retry round-trips.
    pub aborts_sent: Counter,
    /// H2C sub-requests (chunks) emitted per chunked write transfer
    /// (§4.5, Fig. 9). Only transfers that actually split are recorded.
    pub chunks_per_io: Histo,
    /// H2C data PDUs sent in response to R2T grants (chunked or not).
    pub h2c_chunks: Counter,
    /// Current adaptive busy-poll budget for read-class waits, in
    /// microseconds (§4.5, Fig. 10).
    pub busy_poll_read_us: Gauge,
    /// Current adaptive busy-poll budget for write-class waits, in
    /// microseconds.
    pub busy_poll_write_us: Gauge,
    latency: [Histo; OPCODES],
}

impl Default for InitiatorMetrics {
    fn default() -> Self {
        InitiatorMetrics {
            submitted: Counter::new(),
            completions: Counter::new(),
            errors: Counter::new(),
            inflight: Gauge::new(),
            zero_copy_bytes: Counter::new(),
            copies_avoided: Counter::new(),
            retries: Counter::new(),
            timeouts: Counter::new(),
            keepalive_misses: Counter::new(),
            degradations: Counter::new(),
            stale_frames: Counter::new(),
            corrupt_frames: Counter::new(),
            aborts_sent: Counter::new(),
            chunks_per_io: Histo::new(),
            h2c_chunks: Counter::new(),
            busy_poll_read_us: Gauge::new(),
            busy_poll_write_us: Gauge::new(),
            latency: std::array::from_fn(|_| Histo::new()),
        }
    }
}

impl InitiatorMetrics {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Submit→completion latency distribution for one opcode.
    #[inline]
    pub fn latency(&self, op: Opcode) -> &Histo {
        &self.latency[opcode_index(op)]
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("submitted", &self.submitted);
        scope.adopt_counter("completions", &self.completions);
        scope.adopt_counter("errors", &self.errors);
        scope.adopt_gauge("inflight", &self.inflight);
        scope.adopt_counter("zero_copy_bytes", &self.zero_copy_bytes);
        scope.adopt_counter("copies_avoided", &self.copies_avoided);
        scope.adopt_counter("retries", &self.retries);
        scope.adopt_counter("timeouts", &self.timeouts);
        scope.adopt_counter("keepalive_misses", &self.keepalive_misses);
        scope.adopt_counter("degradations", &self.degradations);
        scope.adopt_counter("stale_frames", &self.stale_frames);
        scope.adopt_counter("corrupt_frames", &self.corrupt_frames);
        scope.adopt_counter("aborts_sent", &self.aborts_sent);
        for (i, h) in self.latency.iter().enumerate() {
            scope.adopt_histo(&format!("lat_{}_ns", OPCODE_NAMES[i]), h);
        }
        self.register_tcp_path(scope);
    }

    /// Publish just the TCP-path tuning metrics (chunking + busy-poll)
    /// into `scope` — used to surface them under the `tcp` scope next to
    /// the socket transport's own counters.
    pub fn register_tcp_path(&self, scope: &Scope) {
        scope.adopt_histo("chunks_per_io", &self.chunks_per_io);
        scope.adopt_counter("h2c_chunks", &self.h2c_chunks);
        scope.adopt_gauge("busy_poll_read_us", &self.busy_poll_read_us);
        scope.adopt_gauge("busy_poll_write_us", &self.busy_poll_write_us);
    }
}

/// Socket-level counters for the real TCP transport (§4.5): syscall
/// pressure, partial-I/O resumptions, and receive-buffer behavior.
/// Syscalls-per-frame falls out as `tx_syscalls / frames_sent` (resp.
/// rx) against the paired [`TransportMetrics`].
#[derive(Default, Debug)]
pub struct TcpMetrics {
    /// `write`/`writev` calls issued on the socket.
    pub tx_syscalls: Counter,
    /// `read` calls issued on the socket (including empty polls).
    pub rx_syscalls: Counter,
    /// Vectored `[prefix, payload]` sends that skipped the coalescing
    /// copy.
    pub vectored_sends: Counter,
    /// Sends that could not finish in one call and parked bytes in the
    /// resumable backlog.
    pub partial_write_resumptions: Counter,
    /// Receive fills that ended mid-frame and had to resume on a later
    /// poll.
    pub partial_read_resumptions: Counter,
    /// Receive-buffer compactions (memmove of a partial tail frame).
    pub rx_compactions: Counter,
    /// Bytes currently parked in the send backlog; `hwm()` is the worst
    /// case observed.
    pub tx_backlog_bytes: Gauge,
}

impl TcpMetrics {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("tx_syscalls", &self.tx_syscalls);
        scope.adopt_counter("rx_syscalls", &self.rx_syscalls);
        scope.adopt_counter("vectored_sends", &self.vectored_sends);
        scope.adopt_counter("partial_write_resumptions", &self.partial_write_resumptions);
        scope.adopt_counter("partial_read_resumptions", &self.partial_read_resumptions);
        scope.adopt_counter("rx_compactions", &self.rx_compactions);
        scope.adopt_gauge("tx_backlog_bytes", &self.tx_backlog_bytes);
    }
}

/// Target-side view of one connection: commands served by opcode class,
/// flow-control events, and payload placement.
#[derive(Default, Debug)]
pub struct TargetMetrics {
    /// Commands executed against the namespace (all opcodes).
    pub ops: Counter,
    /// Response capsules produced.
    pub responses: Counter,
    /// R2T grants issued (conservative write flow).
    pub r2t_grants: Counter,
    /// Write payloads that arrived as shared-memory slot references.
    pub shm_payloads: Counter,
    /// Write payloads that arrived inline in the capsule/H2C stream.
    pub inline_payloads: Counter,
    /// Payload bytes served without an intermediate copy (writes
    /// consumed borrowed from the slot, reads published from a lease).
    pub zero_copy_bytes: Counter,
    /// Target-side copies the lease path avoided versus materializing
    /// payloads into a `Vec`.
    pub copies_avoided: Counter,
    /// Commands that completed with a non-success NVMe status.
    pub errors: Counter,
    /// Abort requests handled (either answered from the completed-cid
    /// ring or acknowledged as not-applied).
    pub aborts_handled: Counter,
    /// Keep-alive heartbeats echoed back to the client.
    pub keepalives: Counter,
    /// Received frames dropped by the reactor for failing CRC or
    /// structural decode.
    pub corrupt_frames: Counter,
    /// Barrier-class completions parked on a sync-worker ticket
    /// instead of blocking the reactor in `fdatasync`.
    pub barriers_parked: Counter,
    /// Wall time a parked barrier completion waited for its sync ticket
    /// to retire, nanoseconds.
    pub barrier_park_ns: Histo,
}

impl TargetMetrics {
    /// Fresh, detached bundle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publish every metric of this bundle into `scope`.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("ops", &self.ops);
        scope.adopt_counter("responses", &self.responses);
        scope.adopt_counter("r2t_grants", &self.r2t_grants);
        scope.adopt_counter("shm_payloads", &self.shm_payloads);
        scope.adopt_counter("inline_payloads", &self.inline_payloads);
        scope.adopt_counter("zero_copy_bytes", &self.zero_copy_bytes);
        scope.adopt_counter("copies_avoided", &self.copies_avoided);
        scope.adopt_counter("errors", &self.errors);
        scope.adopt_counter("aborts_handled", &self.aborts_handled);
        scope.adopt_counter("keepalives", &self.keepalives);
        scope.adopt_counter("corrupt_frames", &self.corrupt_frames);
        scope.adopt_counter("barriers_parked", &self.barriers_parked);
        scope.adopt_histo("barrier_park_ns", &self.barrier_park_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_telemetry::Registry;

    #[test]
    fn opcode_table_is_dense_and_total() {
        let ops = [
            Opcode::Flush,
            Opcode::Write,
            Opcode::Read,
            Opcode::Compare,
            Opcode::Identify,
            Opcode::WriteZeroes,
            Opcode::Dsm,
        ];
        let mut seen = [false; OPCODES];
        for op in ops {
            let i = opcode_index(op);
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn initiator_metrics_register_per_opcode_histos() {
        let m = InitiatorMetrics::new();
        m.latency(Opcode::Read).record(500);
        m.latency(Opcode::Write).record(900);
        let registry = Registry::new();
        m.register(&registry.scope("client"));
        let snap = registry.snapshot();
        assert_eq!(snap.histo("client", "lat_read_ns").unwrap().count, 1);
        assert_eq!(snap.histo("client", "lat_write_ns").unwrap().count, 1);
        assert_eq!(snap.histo("client", "lat_flush_ns").unwrap().count, 0);
    }

    #[test]
    fn transport_metrics_register_all() {
        let m = TransportMetrics::new();
        m.on_send(64);
        m.on_recv_borrowed(64);
        m.batch_sizes.record(1);
        let registry = Registry::new();
        m.register(&registry.scope("transport"));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("transport", "frames_sent"), 1);
        assert_eq!(snap.counter("transport", "bytes_received"), 64);
        assert_eq!(snap.counter("transport", "frames_borrowed"), 1);
        assert_eq!(snap.histo("transport", "batch_sizes").unwrap().count, 1);
    }
}
