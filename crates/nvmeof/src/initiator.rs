//! The NVMe-oF initiator (client).
//!
//! Implements the client half of the flows in Figs. 5–7: ICReq/ICResp
//! handshake with adaptive-fabric capability negotiation, asynchronous
//! command submission with completion polling (the SPDK-perf usage
//! pattern: a queue depth of in-flight commands serviced by one polling
//! thread), and all three write flow-control paths — inline in-capsule,
//! conservative R2T, and shared-memory in-capsule (§4.4.2).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use crate::error::NvmeofError;
use crate::metrics::InitiatorMetrics;
use crate::nvme::command::{NvmeCommand, Opcode};
use crate::nvme::completion::{NvmeCompletion, Status};
use crate::nvme::controller::IdentifyInfo;
use crate::payload::{PayloadChannel, WriteLease};
use crate::pdu::{Abort, CapsuleCmd, DataPdu, DataRef, Degrade, ICReq, KeepAlive, Pdu, AF_CAP_SHM};
use crate::recovery::{
    Action, DataArrival, DataNeed, InitiatorRecovery, KeepAliveNanos, Nanos, RecoveryConfig,
};
use crate::transport::{BackoffConfig, Frame, Transport, WaitLadder, WaitStep};
use crate::tune::{BusyPollController, PollClass};
use crate::FlowMode;

/// Keep-alive tuning: how long a connection may stay silent before the
/// initiator probes it, and how long before the peer is declared dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeepAliveConfig {
    /// Quiet time after which a heartbeat is sent (and re-sent).
    pub interval: Duration,
    /// Total silence after which the peer is declared dead and
    /// [`NvmeofError::PeerDead`] surfaces from `poll`/`wait`.
    pub grace: Duration,
}

impl KeepAliveConfig {
    /// An interval with the conventional 3× grace period.
    pub fn with_interval(interval: Duration) -> Self {
        KeepAliveConfig {
            interval,
            grace: interval * 3,
        }
    }
}

/// Client-side connection options.
#[derive(Clone)]
pub struct InitiatorOptions {
    /// Host identity sent in the ICReq (locality matching, §4.2).
    pub host_id: u64,
    /// Adaptive-fabric capabilities requested.
    pub af_caps: u32,
    /// Write flow-control regime to use once shared memory is active.
    pub flow: FlowMode,
    /// Maximum R2Ts (informational).
    pub maxr2t: u32,
    /// Per-command deadline. When set, a command that has not completed
    /// by its deadline is retried (reads resubmit directly; writes only
    /// after an abort round-trip) up to [`max_retries`] times, then
    /// surfaced as [`NvmeofError::Timeout`]. `None` disables all
    /// deadline bookkeeping.
    ///
    /// [`max_retries`]: InitiatorOptions::max_retries
    pub cmd_deadline: Option<Duration>,
    /// Retry budget per command once `cmd_deadline` is set.
    pub max_retries: u32,
    /// Base of the exponential retry backoff added to each retry's
    /// deadline (`cmd_deadline + retry_backoff * 2^attempt`).
    pub retry_backoff: Duration,
    /// Keep-alive probing; `None` disables heartbeats and peer-death
    /// detection.
    pub keepalive: Option<KeepAliveConfig>,
    /// Extra deadline allowance for a barrier-class command (Flush, or
    /// a FUA-flagged mutation), covering the device `fdatasync` it waits
    /// for on the target's sync worker. Only the barrier's own deadline
    /// is padded: the target keeps serving other commands and
    /// keep-alives meanwhile, so those stay on live time, and a
    /// genuinely lost barrier still times out once the pad is spent.
    pub barrier_grace: Duration,
    /// Re-introduces the PR 4 held-completion bug (success completions
    /// delivered before the data they vouch for) so the `oaf-mc`
    /// mutation leg can prove the model checker finds that class.
    /// Default `false` even when the feature is compiled in.
    #[cfg(feature = "mc-mutations")]
    pub mc_deliver_early: bool,
    /// Spin→yield→sleep ladder tuning for the blocking waits
    /// (`connect`, `wait`) — the same knob the ring transports use.
    pub backoff: BackoffConfig,
    /// Application-level chunk size for inline H2C transfers (§4.5,
    /// Fig. 9): an R2T-granted payload larger than this is shipped as
    /// `ceil(len / write_chunk)` pipelined sub-requests. `0` disables
    /// chunking. The connection manager sizes this with the runtime
    /// [`crate::tune::ChunkSelector`] when the link is a real socket.
    pub write_chunk: usize,
}

impl Default for InitiatorOptions {
    fn default() -> Self {
        InitiatorOptions {
            host_id: 0x4846_u64, // "HF": host-fabric default identity
            af_caps: 0,
            flow: FlowMode::Conservative,
            maxr2t: 16,
            cmd_deadline: None,
            max_retries: 3,
            retry_backoff: Duration::from_millis(2),
            keepalive: None,
            barrier_grace: Duration::from_millis(250),
            #[cfg(feature = "mc-mutations")]
            mc_deliver_early: false,
            backoff: BackoffConfig::default(),
            // Fig. 9's optimum for the paper's 25 Gbps testbed; payloads
            // at or below this are untouched.
            write_chunk: 512 * 1024,
        }
    }
}

impl InitiatorOptions {
    /// Lowers the recovery-relevant knobs into the pure decision core's
    /// config (durations become nanoseconds since the connection epoch).
    fn recovery_config(&self) -> RecoveryConfig {
        RecoveryConfig {
            cmd_deadline: self.cmd_deadline.map(duration_nanos),
            max_retries: self.max_retries,
            retry_backoff: duration_nanos(self.retry_backoff),
            keepalive: self.keepalive.map(|ka| KeepAliveNanos {
                interval: duration_nanos(ka.interval),
                grace: duration_nanos(ka.grace),
            }),
            barrier_grace: duration_nanos(self.barrier_grace),
            #[cfg(feature = "mc-mutations")]
            mutate_deliver_early: self.mc_deliver_early,
        }
    }
}

fn duration_nanos(d: Duration) -> Nanos {
    Nanos::try_from(d.as_nanos()).unwrap_or(Nanos::MAX)
}

struct PendingIo {
    /// The command as last sent on the wire (`cmd.cid` is the *wire*
    /// cid, which diverges from [`user_cid`] after a retry).
    ///
    /// [`user_cid`]: PendingIo::user_cid
    cmd: NvmeCommand,
    /// The cid handed to the caller at submit time; completions are
    /// reported under it no matter how many wire cids retries burned.
    user_cid: u16,
    read_buf: Vec<u8>,
    stashed_write: Option<Bytes>,
    /// Borrowed read (§4.4.3): leave shm payloads in the region and hand
    /// the `(slot, len)` reference to the caller instead of copying out.
    borrow: bool,
    /// Unconsumed shm payload reference for a borrowed read.
    shm_data: Option<(u32, u32)>,
    /// Contiguous prefix of the read buffer filled by C2H data — buffer
    /// bookkeeping only; the hold/release *decision* runs on the
    /// recovery core's own watermark (`crate::recovery`).
    got: usize,
    submitted_at: Instant,
    /// Retained write/compare payload (a refcount clone, no copy) so a
    /// lost command can be replayed — including over TCP after a shm
    /// degradation. `None` for zero-copy published writes, which cannot
    /// be replayed.
    retry_payload: Option<Bytes>,
    /// Slot the original submission published over shm, if any, so a
    /// retry or abort can free it instead of leaking it.
    published_slot: Option<(u32, u32)>,
}

/// Outcome of a completed I/O.
#[derive(Debug, PartialEq, Eq)]
pub struct IoResult {
    /// Command identifier.
    pub cid: u16,
    /// NVMe status.
    pub status: Status,
    /// Read data (empty for writes/flushes — and for borrowed reads
    /// whose payload is still parked in shared memory, see
    /// [`IoResult::shm`]).
    pub data: Vec<u8>,
    /// For borrowed reads over a shared-memory channel: the `(slot,
    /// len)` reference of the payload, still unconsumed in the region.
    /// Pass the result to [`Initiator::consume_read_with`] to borrow the
    /// bytes in place and free the slot.
    pub shm: Option<(u32, u32)>,
}

/// Per-connection client state, split from the transport so the batched
/// receive path can borrow the two disjointly: `recv_batch` holds the
/// transport shared while the frame callback mutates the state.
///
/// Everything that *decides* recovery — cid/generation allocation,
/// deadlines and retries, abort round-trips, the retired-cid ring, held
/// completions, keep-alive, degrade replay — lives in
/// [`InitiatorRecovery`] (`crate::recovery`), a pure state machine the
/// `oaf-mc` model checker drives through every schedule. This shell
/// owns buffers, sockets and telemetry and executes the core's
/// [`Action`]s.
struct ClientState {
    payload: Option<Arc<dyn PayloadChannel>>,
    opts: InitiatorOptions,
    shm_active: bool,
    in_capsule_max: usize,
    pending: HashMap<u16, PendingIo>,
    completed: Vec<IoResult>,
    /// Reusable encode scratch: every control PDU is encoded here and
    /// handed to [`Transport::send_frame`], so the steady state
    /// allocates nothing on the send side.
    scratch: BytesMut,
    metrics: Arc<InitiatorMetrics>,
    /// User cids whose retry budget ran out; `wait` surfaces them as
    /// [`NvmeofError::Timeout`].
    timed_out: Vec<u16>,
    /// Connection epoch: the recovery core's time zero.
    epoch: Instant,
    /// The pure recovery decision core — the exact code `oaf-mc`
    /// model-checks.
    core: InitiatorRecovery,
    /// Reusable buffer for the core's emitted actions, drained by
    /// [`ClientState::apply_actions`] (steady state allocates nothing).
    actions: Vec<Action>,
    /// Workload-adaptive busy-poll budgets (§4.5, Fig. 10): observed
    /// wait times feed per-direction EWMAs; [`Initiator::wait`] spins
    /// for the chosen budget before descending to yields and sleeps.
    poller: BusyPollController,
}

/// An NVMe-oF initiator over a transport.
pub struct Initiator<T: Transport> {
    transport: T,
    state: ClientState,
}

impl ClientState {
    /// Core time: nanoseconds since the connection epoch.
    fn now(&self) -> Nanos {
        Nanos::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(Nanos::MAX)
    }

    /// Registers a new in-flight command: the recovery core allocates
    /// the wire cid and generation tag (skipping live *and*
    /// recently-retired cids) and arms the deadline; the shell mirrors
    /// the buffer state. Returns the stamped command — its cid is also
    /// the user cid, this being a first submission.
    fn track(
        &mut self,
        mut cmd: NvmeCommand,
        read_buf: Vec<u8>,
        stashed_write: Option<Bytes>,
        borrow: bool,
        need: DataNeed,
    ) -> NvmeCommand {
        let now = self.now();
        let (cid, gseq) = self.core.begin(cmd.opcode, cmd.fua, need, false, now);
        cmd.cid = cid;
        cmd.gseq = gseq;
        self.pending.insert(
            cid,
            PendingIo {
                cmd,
                user_cid: cid,
                read_buf,
                stashed_write,
                borrow,
                shm_data: None,
                got: 0,
                submitted_at: self.epoch + Duration::from_nanos(now),
                retry_payload: None,
                published_slot: None,
            },
        );
        self.metrics.submitted.inc();
        self.metrics.inflight.add(1);
        cmd
    }

    /// Encodes `pdu` into the connection scratch and sends the borrowed
    /// slice — the zero-allocation send path.
    fn send_pdu<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        pdu: &Pdu,
    ) -> Result<(), NvmeofError> {
        self.scratch.clear();
        pdu.encode_into(&mut self.scratch);
        transport.send_frame(&self.scratch)
    }

    /// Feeds one completed wait into the adaptive busy-poll controller
    /// and publishes the refreshed per-direction budgets as gauges.
    /// Waits that ran into retries or stalls are clamped so a single
    /// outlier can't blow the EWMA past the ladder.
    fn observe_wait(&mut self, class: PollClass, elapsed: Duration) {
        const CLAMP: Duration = Duration::from_millis(1);
        self.poller.observe(class, elapsed.min(CLAMP));
        self.metrics
            .busy_poll_read_us
            .set(self.poller.budget(PollClass::Read).as_micros() as i64);
        self.metrics
            .busy_poll_write_us
            .set(self.poller.budget(PollClass::Write).as_micros() as i64);
    }

    /// Sends a data-bearing PDU, preferring the transport's vectored
    /// `[prefix, payload]` path when it has one (the socket transport's
    /// `write_vectored`, which skips the payload coalescing copy);
    /// everything else takes the ordinary scratch-encode path.
    fn send_pdu_data<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        pdu: &Pdu,
    ) -> Result<(), NvmeofError> {
        if transport.prefers_split() {
            self.scratch.clear();
            if let Some(payload) = pdu.encode_split_into(&mut self.scratch) {
                return transport.send_split(&self.scratch, payload);
            }
        }
        self.send_pdu(transport, pdu)
    }

    /// Like [`send_pdu`], but treats ring congestion as transient: the
    /// recovery machinery's own traffic (aborts, heartbeats, degrade
    /// notices) must never escalate a full ring into a dead connection —
    /// the next deadline sweep simply tries again.
    ///
    /// [`send_pdu`]: ClientState::send_pdu
    fn send_pdu_lossy<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        pdu: &Pdu,
    ) -> Result<(), NvmeofError> {
        match self.send_pdu(transport, pdu) {
            Err(NvmeofError::RingFull) => Ok(()),
            other => other,
        }
    }

    /// Drains and executes the actions the recovery core emitted:
    /// sends, buffer moves, telemetry, completion/timeout surfacing.
    /// The buffer is reused, so the steady state allocates nothing.
    fn apply_actions<T: Transport + ?Sized>(&mut self, transport: &T) -> Result<(), NvmeofError> {
        if self.actions.is_empty() {
            return Ok(());
        }
        let mut actions = std::mem::take(&mut self.actions);
        let mut result = Ok(());
        for action in actions.drain(..) {
            if result.is_ok() {
                result = self.apply_action(transport, action);
            }
        }
        self.actions = actions;
        result
    }

    fn apply_action<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        action: Action,
    ) -> Result<(), NvmeofError> {
        match action {
            Action::Complete {
                wire_cid,
                completion,
            } => {
                self.finish_command(wire_cid, completion);
                Ok(())
            }
            Action::Resubmit {
                old_cid,
                new_cid,
                gseq,
            } => self.do_resubmit(transport, old_cid, new_cid, gseq),
            Action::SendAbort { cid, gseq } => {
                self.metrics.retries.inc();
                self.metrics.aborts_sent.inc();
                self.send_pdu_lossy(transport, &Pdu::Abort(Abort { cid, gseq }))
            }
            Action::GiveUp { wire_cid } => {
                self.do_give_up(wire_cid);
                Ok(())
            }
            Action::SendKeepAlive {
                seq,
                missed_previous,
            } => {
                if missed_previous {
                    self.metrics.keepalive_misses.inc();
                }
                self.send_pdu_lossy(transport, &Pdu::KeepAlive(KeepAlive { seq }))
            }
            Action::PeerDead => {
                self.metrics.keepalive_misses.inc();
                Err(NvmeofError::PeerDead)
            }
        }
    }

    /// Abandons the shared-memory payload path mid-flight: quarantines
    /// the channel, notifies the target, and executes the core's replay
    /// decisions for every in-flight shm-published command (writes with
    /// a retained payload resubmit under a fresh cid; zero-copy writes
    /// go through the abort round-trip).
    fn degrade<T: Transport + ?Sized>(&mut self, transport: &T) -> Result<(), NvmeofError> {
        let now = self.now();
        if !self.core.degrade(now, &mut self.actions) {
            return Ok(());
        }
        self.shm_active = false;
        self.metrics.degradations.inc();
        self.send_pdu_lossy(transport, &Pdu::Degrade(Degrade { reason: 1 }))?;
        self.apply_actions(transport)?;
        // Quarantine + sweep: no new leases succeed, and published-but-
        // unconsumed slots return to the pool (counted by the channel's
        // own `slots_reclaimed` stat).
        if let Some(ch) = self.payload.as_ref() {
            ch.quarantine();
            ch.reclaim();
        }
        Ok(())
    }

    /// Executes the core's resubmit decision: re-sends the command
    /// tracked under `old_cid` as `new_cid` (the core already retired
    /// the old cid). Frees the slot the original published — the target
    /// has provably not consumed it (abort said not-applied, or the
    /// channel is quarantined and swept anyway) — and replays the
    /// payload from the retained clone over the control path, since
    /// retries prefer the conservative route.
    fn do_resubmit<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        old_cid: u16,
        new_cid: u16,
        gseq: u32,
    ) -> Result<(), NvmeofError> {
        let Some(mut io) = self.pending.remove(&old_cid) else {
            return Ok(());
        };
        if let Some((slot, _len)) = io.published_slot.take() {
            if let Some(ch) = self.payload.as_ref() {
                ch.reclaim_slot(slot);
            }
        }
        io.cmd.cid = new_cid;
        io.cmd.gseq = gseq;
        // The fresh attempt refills the buffer from byte zero.
        io.got = 0;
        let data = match io.retry_payload.clone() {
            Some(data) if data.len() <= self.in_capsule_max => Some(DataRef::Inline(data)),
            Some(data) => {
                io.stashed_write = Some(data);
                None
            }
            None => None,
        };
        let cmd = io.cmd;
        self.pending.insert(new_cid, io);
        self.metrics.retries.inc();
        self.send_pdu_lossy(transport, &Pdu::CapsuleCmd(CapsuleCmd { cmd, data }))
    }

    /// Executes the core's give-up decision: the retry budget is spent,
    /// surface the command on the timed-out list.
    fn do_give_up(&mut self, cid: u16) {
        let Some(mut io) = self.pending.remove(&cid) else {
            return;
        };
        if let Some((slot, _len)) = io.published_slot.take() {
            if let Some(ch) = self.payload.as_ref() {
                ch.reclaim_slot(slot);
            }
        }
        self.timed_out.push(io.user_cid);
        self.metrics.timeouts.inc();
        self.metrics.inflight.sub(1);
    }

    /// Resolves wire cid `cid` with `completion` (the core has already
    /// retired the cid): settles telemetry and queues the [`IoResult`]
    /// under the user cid. Driven by [`Action::Complete`] from the
    /// in-order path, the held-completion release and the abort-ack
    /// "already applied" path alike.
    fn finish_command(&mut self, cid: u16, completion: NvmeCompletion) {
        let Some(mut pending) = self.pending.remove(&cid) else {
            return;
        };
        self.metrics.completions.inc();
        self.metrics.inflight.sub(1);
        if !completion.status.is_ok() {
            self.metrics.errors.inc();
        }
        self.metrics
            .latency(pending.cmd.opcode)
            .record_nanos(pending.submitted_at.elapsed());
        if let Some((_, len)) = pending.shm_data {
            self.metrics.zero_copy_bytes.add(u64::from(len));
            self.metrics.copies_avoided.inc();
        }
        self.completed.push(IoResult {
            cid: pending.user_cid,
            status: completion.status,
            data: std::mem::take(&mut pending.read_buf),
            shm: pending.shm_data.take(),
        });
    }

    /// Deadline + keep-alive pass, run once per poll. Costs one clock
    /// read when either feature is enabled and nothing when both are
    /// off; the core's deadline sweep only runs when its scalar
    /// watermark has actually expired.
    fn tick<T: Transport + ?Sized>(&mut self, transport: &T) -> Result<(), NvmeofError> {
        if self.opts.cmd_deadline.is_none() && self.opts.keepalive.is_none() {
            return Ok(());
        }
        let now = self.now();
        self.core.tick(now, &mut self.actions);
        self.apply_actions(transport)
    }
}

impl<T: Transport> Initiator<T> {
    /// Connects: performs the ICReq/ICResp handshake of Fig. 5. `payload`
    /// is the hot-plugged shared-memory channel, if locality detection
    /// found one.
    pub fn connect(
        transport: T,
        opts: InitiatorOptions,
        payload: Option<Arc<dyn PayloadChannel>>,
        timeout: Duration,
    ) -> Result<Self, NvmeofError> {
        let icreq = Pdu::ICReq(ICReq {
            pfv: 1,
            maxr2t: opts.maxr2t,
            af_caps: opts.af_caps,
            host_id: opts.host_id,
        });
        transport.send(icreq.encode())?;
        let deadline = Instant::now() + timeout;
        let mut ladder = WaitLadder::until(deadline, &opts.backoff);
        let resp = loop {
            let frame = match transport.try_recv()? {
                Some(frame) => Some(frame),
                None => match ladder.step() {
                    WaitStep::Expired => return Err(NvmeofError::timeout()),
                    WaitStep::Again => None,
                    WaitStep::Sleep(d) => transport.recv_timeout(d)?,
                },
            };
            let Some(frame) = frame else { continue };
            match Pdu::decode(frame) {
                Ok(Pdu::ICResp(r)) => break r,
                Ok(other) => {
                    return Err(NvmeofError::Protocol(format!(
                        "expected ICResp, got {other:?}"
                    )))
                }
                // A damaged handshake frame is dropped and the (idempotent)
                // ICReq re-asked; the target answers duplicates with the
                // same grant.
                Err(NvmeofError::CorruptFrame) | Err(NvmeofError::Codec(_)) => {
                    transport.send(icreq.encode())?;
                }
                Err(e) => return Err(e),
            }
        };
        let shm_active = resp.af_caps & AF_CAP_SHM != 0 && payload.is_some();
        let core = InitiatorRecovery::new(opts.recovery_config(), 0);
        Ok(Initiator {
            transport,
            state: ClientState {
                payload,
                opts,
                shm_active,
                in_capsule_max: resp.ioccsz as usize,
                pending: HashMap::new(),
                completed: Vec::new(),
                // Control PDUs top out well under this; sized so the
                // steady state never regrows it.
                scratch: BytesMut::with_capacity(256),
                metrics: InitiatorMetrics::new(),
                // Pre-sized so cold recovery paths (give-up, the abort
                // round-trip) don't pay a first-growth allocation when
                // they first fire in steady state.
                timed_out: Vec::with_capacity(16),
                epoch: Instant::now(),
                core,
                actions: Vec::with_capacity(16),
                poller: BusyPollController::new(),
            },
        })
    }

    /// Whether the shared-memory data path was negotiated (§4.2).
    pub fn shm_active(&self) -> bool {
        self.state.shm_active
    }

    /// Negotiated in-capsule data limit.
    pub fn in_capsule_max(&self) -> usize {
        self.state.in_capsule_max
    }

    /// Number of commands in flight.
    pub fn inflight(&self) -> usize {
        self.state.pending.len()
    }

    /// This connection's metric bundle (detached until registered into
    /// a [`oaf_telemetry::Registry`] scope).
    pub fn metrics(&self) -> &Arc<InitiatorMetrics> {
        &self.state.metrics
    }

    /// The current workload-adaptive busy-poll budget for `class` waits
    /// (§4.5, Fig. 10).
    pub fn busy_poll_budget(&self, class: PollClass) -> Duration {
        self.state.poller.budget(class)
    }

    /// Feeds one measured wait into the busy-poll controller, exactly as
    /// a live [`wait`](Self::wait) would — EWMA update plus the
    /// `busy_poll_*_us` telemetry gauges. This is the Fig. 10 replay
    /// interface: recorded per-direction wait traces can be played back
    /// to inspect which budgets the controller settles on.
    pub fn observe_wait_sample(&mut self, class: PollClass, wait: Duration) {
        self.state.observe_wait(class, wait);
    }

    /// Submits a write of `data` (must be `nlb * block_size` bytes).
    /// Returns the command id to match against completions.
    pub fn submit_write(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        data: Bytes,
    ) -> Result<u16, NvmeofError> {
        let cmd = NvmeCommand::write(0, nsid, slba, nlb);
        let publish_over_shm = self.state.opts.flow == FlowMode::InCapsule;
        self.submit_with_payload(cmd, data, publish_over_shm)
    }

    /// Shared payload-bearing submit path (writes and compares): picks
    /// the channel per the negotiated flow, retains a refcount clone of
    /// the payload for deadline-driven replay, and degrades to the TCP
    /// control path if the shm publish fails mid-flight.
    fn submit_with_payload(
        &mut self,
        cmd: NvmeCommand,
        data: Bytes,
        publish_over_shm: bool,
    ) -> Result<u16, NvmeofError> {
        let use_shm = self.state.shm_active
            && self
                .state
                .payload
                .as_ref()
                .is_some_and(|ch| data.len() <= ch.max_payload());
        let mut stashed = None;
        let mut published = None;
        let mut capsule_data = None;
        if use_shm && publish_over_shm {
            // Shared-memory flow control: payload parks in the region and
            // the command alone reaches the target (§4.4.2 swaps steps ①
            // and ③ of Fig. 7 and drops R2T + H2C).
            let ch = self
                .state
                .payload
                .as_ref()
                .expect("use_shm implies channel")
                .clone();
            match ch.publish(&data) {
                Ok((slot, len)) => {
                    published = Some((slot, len));
                    capsule_data = Some(DataRef::ShmSlot { slot, len });
                }
                // The slot region stalled or poisoned under us: abandon
                // it mid-flight and serve this (and everything after it)
                // over the control path.
                Err(_) => self.state.degrade(&self.transport)?,
            }
        }
        if capsule_data.is_none() && stashed.is_none() {
            if use_shm && !self.state.core.degraded() && !publish_over_shm {
                // Conservative flow over shm: wait for R2T, then publish
                // (Fig. 7's NVMe-oSHM flow).
                stashed = Some(data.clone());
            } else if data.len() <= self.state.in_capsule_max {
                capsule_data = Some(DataRef::Inline(data.clone()));
            } else {
                // Conservative flow: wait for R2T, then ship the payload
                // inline.
                stashed = Some(data.clone());
            }
        }
        let cmd = self
            .state
            .track(cmd, Vec::new(), stashed, false, DataNeed::None);
        let io = self.state.pending.get_mut(&cmd.cid).expect("just tracked");
        io.retry_payload = Some(data);
        io.published_slot = published;
        // The retained clone makes the command replayable after an abort
        // round-trip; a published slot makes it degrade-replayed.
        self.state.core.mark_replayable(cmd.cid);
        if published.is_some() {
            self.state.core.mark_published(cmd.cid);
        }
        self.state.send_pdu(
            &self.transport,
            &Pdu::CapsuleCmd(CapsuleCmd {
                cmd,
                data: capsule_data,
            }),
        )?;
        Ok(cmd.cid)
    }

    /// Leases a write buffer of `len` bytes from the connection's
    /// payload channel. With a negotiated shared-memory channel the
    /// buffer lives directly in the region (the Buffer Manager's
    /// co-design, §4.4.3) and [`Initiator::submit_write_lease`] publishes
    /// it with no copy; otherwise (or when `len` exceeds the slot size)
    /// it is a plain heap buffer and submission copies once, exactly
    /// like [`Initiator::submit_write`].
    pub fn alloc_write_buf(&self, len: usize) -> Result<WriteLease, NvmeofError> {
        if self.state.shm_active {
            if let Some(ch) = self.state.payload.as_ref() {
                if len <= ch.max_payload() {
                    return ch.alloc(len);
                }
            }
        }
        Ok(WriteLease::heap(len))
    }

    /// Submits a write whose payload was built in place in a lease from
    /// [`Initiator::alloc_write_buf`]. Zero-copy leases publish their
    /// slot directly (§4.4.3); heap fallback leases route through the
    /// regular copying write path.
    pub fn submit_write_lease(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        lease: WriteLease,
    ) -> Result<u16, NvmeofError> {
        if lease.is_zero_copy() {
            let bytes = lease.len() as u64;
            let ch = self
                .state
                .payload
                .as_ref()
                .ok_or_else(|| NvmeofError::Protocol("slot lease without channel".into()))?
                .clone();
            let (slot, len) = ch.publish_lease(lease)?;
            self.state.metrics.zero_copy_bytes.add(bytes);
            self.state.metrics.copies_avoided.inc();
            self.submit_write_published(nsid, slba, nlb, slot, len)
        } else {
            let buf = lease.into_heap().expect("non-slot lease is heap-backed");
            self.submit_write(nsid, slba, nlb, Bytes::from(buf))
        }
    }

    /// Submits a write whose payload is *already published* in the
    /// shared-memory channel at `(slot, len)` — the zero-copy path
    /// (§4.4.3): the application built its data directly in the region,
    /// so no bytes move here at all.
    pub fn submit_write_published(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        slot: u32,
        len: u32,
    ) -> Result<u16, NvmeofError> {
        if !self.state.shm_active {
            return Err(NvmeofError::Protocol(
                "zero-copy write requires a negotiated shared-memory channel".into(),
            ));
        }
        let cmd = self.state.track(
            NvmeCommand::write(0, nsid, slba, nlb),
            Vec::new(),
            None,
            false,
            DataNeed::None,
        );
        let cid = cmd.cid;
        // Zero-copy published writes retain no payload clone — they
        // cannot be replayed, only abort-resolved — but the slot is
        // remembered so degradation/abort can reclaim it.
        self.state
            .pending
            .get_mut(&cid)
            .expect("just tracked")
            .published_slot = Some((slot, len));
        self.state.core.mark_published(cid);
        self.state.send_pdu(
            &self.transport,
            &Pdu::CapsuleCmd(CapsuleCmd {
                cmd,
                data: Some(DataRef::ShmSlot { slot, len }),
            }),
        )?;
        Ok(cid)
    }

    /// Submits a read of `nlb` blocks; the buffer is sized from
    /// `expected_len` (namespace block size × nlb).
    pub fn submit_read(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        expected_len: usize,
    ) -> Result<u16, NvmeofError> {
        let cmd = self.state.track(
            NvmeCommand::read(0, nsid, slba, nlb),
            vec![0u8; expected_len],
            None,
            false,
            DataNeed::Bytes(expected_len as u32),
        );
        self.state.send_pdu(
            &self.transport,
            &Pdu::CapsuleCmd(CapsuleCmd { cmd, data: None }),
        )?;
        Ok(cmd.cid)
    }

    /// Submits a read whose payload the caller will *borrow* in place:
    /// if the target returns the data as a shared-memory slot reference,
    /// it is left unconsumed in the region and surfaced via
    /// [`IoResult::shm`]; call [`Initiator::consume_read_with`] on the
    /// completed result to access the bytes without a copy and free the
    /// slot (§4.4.3). Dropping the result without consuming it leaks the
    /// slot until the channel is torn down. Inline completions fall back
    /// to the buffered behavior of [`Initiator::submit_read`].
    pub fn submit_read_borrowed(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        expected_len: usize,
    ) -> Result<u16, NvmeofError> {
        let borrow = self.state.shm_active && self.state.payload.is_some();
        let read_buf = if borrow {
            Vec::new()
        } else {
            vec![0u8; expected_len]
        };
        // A borrowed read is satisfied by *any* arrival (a parked slot
        // reference or an inline fallback chunk); a buffered read owes
        // the caller the whole transfer.
        let need = if borrow {
            DataNeed::Any
        } else {
            DataNeed::Bytes(expected_len as u32)
        };
        let cmd = self.state.track(
            NvmeCommand::read(0, nsid, slba, nlb),
            read_buf,
            None,
            borrow,
            need,
        );
        self.state.send_pdu(
            &self.transport,
            &Pdu::CapsuleCmd(CapsuleCmd { cmd, data: None }),
        )?;
        Ok(cmd.cid)
    }

    /// Lends a completed read's payload to `f` without copying it out of
    /// the shared region (for borrowed reads that completed via a slot
    /// reference), freeing the slot afterwards. Results that carried
    /// their data inline simply lend the buffered bytes.
    pub fn consume_read_with(
        &self,
        res: &mut IoResult,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), NvmeofError> {
        match res.shm.take() {
            Some((slot, len)) => {
                let ch = self
                    .state
                    .payload
                    .as_ref()
                    .ok_or_else(|| NvmeofError::Protocol("shm read without channel".into()))?;
                ch.consume_with(slot, len, f)
            }
            None => {
                f(&res.data);
                Ok(())
            }
        }
    }

    /// Submits a compare: the target checks `data` against the stored
    /// blocks and completes with `CompareFailure` on mismatch. The
    /// payload rides whatever channel writes would (in-capsule, R2T, or
    /// shared-memory slot).
    pub fn submit_compare(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        data: Bytes,
    ) -> Result<u16, NvmeofError> {
        let cmd = NvmeCommand::compare(0, nsid, slba, nlb);
        // Compares publish over shm regardless of the write flow mode
        // whenever the payload fits a slot.
        self.submit_with_payload(cmd, data, true)
    }

    /// Submits a write-zeroes over `nlb` blocks (no payload transfer).
    pub fn submit_write_zeroes(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
    ) -> Result<u16, NvmeofError> {
        let cmd = self.state.track(
            NvmeCommand::write_zeroes(0, nsid, slba, nlb),
            Vec::new(),
            None,
            false,
            DataNeed::None,
        );
        self.state.send_pdu(
            &self.transport,
            &Pdu::CapsuleCmd(CapsuleCmd { cmd, data: None }),
        )?;
        Ok(cmd.cid)
    }

    /// Submits a Dataset Management deallocate (TRIM) over `nlb` blocks
    /// (no payload transfer). On a durable target store the range is
    /// journaled and reads back as zeroes.
    pub fn submit_trim(&mut self, nsid: u32, slba: u64, nlb: u32) -> Result<u16, NvmeofError> {
        let cmd = self.state.track(
            NvmeCommand::trim(0, nsid, slba, nlb),
            Vec::new(),
            None,
            false,
            DataNeed::None,
        );
        self.state.send_pdu(
            &self.transport,
            &Pdu::CapsuleCmd(CapsuleCmd { cmd, data: None }),
        )?;
        Ok(cmd.cid)
    }

    /// Submits a write with Force Unit Access: the completion is not
    /// posted until the payload is durable on the target's media.
    pub fn submit_write_fua(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        data: Bytes,
    ) -> Result<u16, NvmeofError> {
        let cmd = NvmeCommand::write_fua(0, nsid, slba, nlb);
        let publish_over_shm = self.state.opts.flow == FlowMode::InCapsule;
        self.submit_with_payload(cmd, data, publish_over_shm)
    }

    /// Submits a flush.
    pub fn submit_flush(&mut self, nsid: u32) -> Result<u16, NvmeofError> {
        let cmd = self.state.track(
            NvmeCommand::flush(0, nsid),
            Vec::new(),
            None,
            false,
            DataNeed::None,
        );
        self.state.send_pdu(
            &self.transport,
            &Pdu::CapsuleCmd(CapsuleCmd { cmd, data: None }),
        )?;
        Ok(cmd.cid)
    }

    /// Polls the transport once, draining every frame that is already
    /// ready in one batched pass (one Acquire/Release pair on ring
    /// transports); completed I/Os are moved to the internal completion
    /// list and returned. Also runs one deadline/keep-alive tick, so
    /// callers that only ever `poll` still get retries, timeouts and
    /// peer-death detection.
    pub fn poll(&mut self) -> Result<Vec<IoResult>, NvmeofError> {
        let mut out = Vec::new();
        self.poll_into(&mut out)?;
        Ok(out)
    }

    /// Like [`Initiator::poll`], but appends completions to `out`
    /// instead of returning a fresh vector, so a caller that retains its
    /// buffer keeps the completion path allocation-free. Returns how
    /// many completions were appended.
    pub fn poll_into(&mut self, out: &mut Vec<IoResult>) -> Result<usize, NvmeofError> {
        let transport = &self.transport;
        let state = &mut self.state;
        let mut err = None;
        transport.recv_batch(&mut |frame| {
            if err.is_none() {
                if let Err(e) = state.on_frame(transport, frame) {
                    err = Some(e);
                }
            }
        })?;
        if let Some(e) = err {
            return Err(e);
        }
        state.tick(transport)?;
        let n = state.completed.len();
        out.append(&mut state.completed);
        Ok(n)
    }

    /// Drains the user cids whose retry budget ran out since the last
    /// call. Callers driving the connection via [`Initiator::poll`]
    /// should check this; [`Initiator::wait`] consumes it internally and
    /// surfaces the awaited cid as [`NvmeofError::Timeout`].
    pub fn take_timed_out(&mut self) -> Vec<u16> {
        std::mem::take(&mut self.state.timed_out)
    }

    /// Polls until `cid` completes or `timeout` elapses, descending the
    /// spin→yield→sleep ladder while the transport stays quiet.
    ///
    /// The busy-poll phase is workload-adaptive (§4.5, Fig. 10): waits
    /// are classified by the awaited command's direction, observed wait
    /// times feed a per-direction EWMA, and the spin budget is the
    /// controller's current pick for that class — so reads converge to
    /// short budgets and writes to long ones.
    pub fn wait(&mut self, cid: u16, timeout: Duration) -> Result<IoResult, NvmeofError> {
        let started = Instant::now();
        let deadline = started + timeout;
        let class = match self.state.pending.get(&cid).map(|p| p.cmd.opcode) {
            Some(Opcode::Read) | Some(Opcode::Identify) | None => PollClass::Read,
            Some(_) => PollClass::Write,
        };
        let budget = self.state.poller.budget(class);
        let mut ladder = WaitLadder::until_with_spin(deadline, &self.state.opts.backoff, budget);
        let mut done = Vec::new();
        loop {
            done.extend(self.poll()?);
            if let Some(pos) = done.iter().position(|r| r.cid == cid) {
                let result = done.swap_remove(pos);
                self.state.completed.extend(done);
                self.state.observe_wait(class, started.elapsed());
                return Ok(result);
            }
            if let Some(pos) = self.state.timed_out.iter().position(|&c| c == cid) {
                self.state.timed_out.swap_remove(pos);
                self.state.completed.extend(done);
                return Err(NvmeofError::Timeout { cid: Some(cid) });
            }
            match ladder.step() {
                WaitStep::Expired => {
                    self.state.completed.extend(done);
                    return Err(NvmeofError::timeout());
                }
                WaitStep::Again => {}
                WaitStep::Sleep(d) => {
                    if let Some(frame) = self.transport.recv_timeout(d)? {
                        self.state.on_frame(&self.transport, Frame::Owned(frame))?;
                    }
                }
            }
        }
    }
}

impl ClientState {
    fn on_frame<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        frame: Frame<'_>,
    ) -> Result<(), NvmeofError> {
        let pdu = match Pdu::decode_frame(frame) {
            Ok(pdu) => pdu,
            // Bit damage is dropped, not fatal: the sender's own
            // deadline machinery re-covers the lost frame.
            Err(NvmeofError::CorruptFrame) | Err(NvmeofError::Codec(_)) => {
                self.metrics.corrupt_frames.inc();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let now = self.now();
        // Any decoded traffic proves the peer alive.
        self.core.on_rx(now);
        match pdu {
            Pdu::R2T(r2t) => {
                let Some(pending) = self.pending.get_mut(&r2t.cid) else {
                    if self.core.is_retired_cid(r2t.cid) {
                        self.metrics.stale_frames.inc();
                        return Ok(());
                    }
                    return Err(NvmeofError::Protocol(format!(
                        "R2T for unknown cid {}",
                        r2t.cid
                    )));
                };
                // A duplicated command capsule can provoke a second R2T
                // after the stash was consumed; replay from the retained
                // payload (same bytes, same LBA — idempotent).
                let data = match pending
                    .stashed_write
                    .take()
                    .or_else(|| pending.retry_payload.clone())
                {
                    Some(data) => data,
                    None => return Err(NvmeofError::Protocol("R2T without stashed data".into())),
                };
                if (r2t.len as usize) < data.len() {
                    return Err(NvmeofError::Protocol(
                        "R2T grant smaller than payload".into(),
                    ));
                }
                let use_shm = self.shm_active
                    && self
                        .payload
                        .as_ref()
                        .is_some_and(|ch| data.len() <= ch.max_payload());
                let dref = if use_shm {
                    // Fig. 7 step ③/④: copy payload to shared memory, send
                    // the location as the H2C notification.
                    let ch = self.payload.as_ref().expect("channel").clone();
                    match ch.publish(&data) {
                        Ok((slot, len)) => {
                            self.pending
                                .get_mut(&r2t.cid)
                                .expect("still pending")
                                .published_slot = Some((slot, len));
                            self.core.mark_published(r2t.cid);
                            DataRef::ShmSlot { slot, len }
                        }
                        Err(_) => {
                            // Region died between grant and publish:
                            // degrade and ship the payload inline.
                            self.degrade(transport)?;
                            DataRef::Inline(data)
                        }
                    }
                } else {
                    DataRef::Inline(data)
                };
                match dref {
                    // Large inline payloads are split into pipelined
                    // sub-requests of `write_chunk` bytes (§4.5, Fig. 9).
                    // The grant covers the whole payload, so the chunks
                    // stream back-to-back without further R2Ts; only the
                    // final one carries the LAST flag and the target
                    // completes on it (or on the byte count).
                    DataRef::Inline(data)
                        if self.opts.write_chunk > 0 && data.len() > self.opts.write_chunk =>
                    {
                        let chunk = self.opts.write_chunk;
                        let total = data.len();
                        let mut off = 0usize;
                        let mut sent = 0u64;
                        while off < total {
                            let end = (off + chunk).min(total);
                            self.send_pdu_data(
                                transport,
                                &Pdu::H2CData(DataPdu {
                                    cid: r2t.cid,
                                    ttag: r2t.ttag,
                                    offset: off as u32,
                                    last: end == total,
                                    data: DataRef::Inline(data.slice(off..end)),
                                }),
                            )?;
                            off = end;
                            sent += 1;
                        }
                        self.metrics.chunks_per_io.record(sent);
                        self.metrics.h2c_chunks.add(sent);
                    }
                    dref => {
                        self.send_pdu_data(
                            transport,
                            &Pdu::H2CData(DataPdu {
                                cid: r2t.cid,
                                ttag: r2t.ttag,
                                offset: 0,
                                last: true,
                                data: dref,
                            }),
                        )?;
                        self.metrics.h2c_chunks.inc();
                    }
                }
            }
            Pdu::C2HData(d) => {
                if !self.pending.contains_key(&d.cid) {
                    if self.core.is_retired_cid(d.cid) {
                        self.metrics.stale_frames.inc();
                        // A stale shm reference must still be drained or
                        // its slot leaks until the next reclaim sweep.
                        if let DataRef::ShmSlot { slot, len } = d.data {
                            if let Some(ch) = self.payload.as_ref() {
                                let _ = ch.consume_with(slot, len, &mut |_| {});
                            }
                        }
                        return Ok(());
                    }
                    return Err(NvmeofError::Protocol(format!(
                        "C2H data for unknown cid {}",
                        d.cid
                    )));
                }
                let pending = self.pending.get_mut(&d.cid).expect("checked above");
                let off = d.offset as usize;
                let mut consume_failed = false;
                let mut arrival = None;
                match d.data {
                    DataRef::Inline(b) => {
                        let op = pending.cmd.opcode;
                        if op == Opcode::Identify || op == Opcode::Flush {
                            pending.got = b.len().max(1);
                            pending.read_buf = b.to_vec();
                            arrival = Some(DataArrival::All);
                        } else if pending.borrow {
                            // Borrowed read that the target answered
                            // inline anyway (e.g. payload exceeded the
                            // slot size): buffer it as a fallback.
                            if pending.read_buf.len() < off + b.len() {
                                pending.read_buf.resize(off + b.len(), 0);
                            }
                            pending.read_buf[off..off + b.len()].copy_from_slice(&b);
                            if off <= pending.got {
                                pending.got = pending.got.max(off + b.len());
                            }
                            arrival = Some(DataArrival::Chunk {
                                offset: d.offset,
                                len: b.len() as u32,
                            });
                        } else {
                            if off + b.len() > pending.read_buf.len() {
                                return Err(NvmeofError::Protocol(
                                    "C2H data beyond read buffer".into(),
                                ));
                            }
                            pending.read_buf[off..off + b.len()].copy_from_slice(&b);
                            if off <= pending.got {
                                pending.got = pending.got.max(off + b.len());
                            }
                            arrival = Some(DataArrival::Chunk {
                                offset: d.offset,
                                len: b.len() as u32,
                            });
                        }
                    }
                    DataRef::ShmSlot { slot, len } => {
                        if pending.borrow {
                            // Zero-copy: park the reference; the caller
                            // borrows the bytes via consume_read_with.
                            pending.shm_data = Some((slot, len));
                            arrival = Some(DataArrival::All);
                        } else {
                            let ch = self.payload.as_ref().ok_or_else(|| {
                                NvmeofError::Protocol("shm ref without channel".into())
                            })?;
                            if off + len as usize > pending.read_buf.len() {
                                return Err(NvmeofError::Protocol(
                                    "C2H shm data beyond read buffer".into(),
                                ));
                            }
                            consume_failed = ch
                                .consume(slot, len, &mut pending.read_buf[off..off + len as usize])
                                .is_err();
                            if !consume_failed {
                                if off <= pending.got {
                                    pending.got = pending.got.max(off + len as usize);
                                }
                                arrival = Some(DataArrival::Chunk {
                                    offset: d.offset,
                                    len,
                                });
                            }
                        }
                    }
                }
                if consume_failed {
                    // The region died with the payload inside: abandon
                    // shm and re-fetch this read over TCP.
                    self.degrade(transport)?;
                    self.core.retry(d.cid, now, &mut self.actions);
                    self.apply_actions(transport)?;
                } else if let Some(arrival) = arrival {
                    // The core advances its contiguous-prefix watermark
                    // and releases a held completion once the transfer
                    // is whole.
                    self.core.on_data(d.cid, arrival, &mut self.actions);
                    self.apply_actions(transport)?;
                }
            }
            Pdu::CapsuleResp(r) => {
                let wire_cid = r.completion.cid;
                // The core decides: hold a success completion that
                // overtook the data it vouches for (a reordering fabric
                // can do that — completing now would hand back a stale
                // buffer), or resolve the command.
                let handled = self
                    .core
                    .on_completion(wire_cid, r.completion, &mut self.actions);
                if !handled {
                    if self.core.is_retired_cid(wire_cid) {
                        self.metrics.stale_frames.inc();
                        return Ok(());
                    }
                    return Err(NvmeofError::Protocol(format!(
                        "completion for unknown cid {wire_cid}"
                    )));
                }
                self.apply_actions(transport)?;
            }
            Pdu::KeepAlive(ka) => {
                // Heartbeat from the peer: echo it.
                self.send_pdu_lossy(transport, &Pdu::KeepAliveAck(KeepAlive { seq: ka.seq }))?;
            }
            Pdu::KeepAliveAck(_) => {
                self.core.on_keepalive_ack();
            }
            Pdu::AbortAck(ack) => {
                // The core resolves the round-trip: applied → complete
                // with the status the target kept; not applied →
                // resubmit under a fresh cid (the payload replays from
                // the retained clone) or give up when nothing can
                // replay (zero-copy published writes).
                let handled = self.core.on_abort_ack(
                    ack.cid,
                    ack.applied,
                    ack.completion,
                    now,
                    &mut self.actions,
                );
                if !handled {
                    // Late or duplicate ack for a resolved round-trip.
                    self.metrics.stale_frames.inc();
                    return Ok(());
                }
                self.apply_actions(transport)?;
            }
            Pdu::Degrade(_) => {
                // Target-initiated degradation: abandon the shm path from
                // this side too (idempotent if we already did).
                self.degrade(transport)?;
            }
            Pdu::ICResp(_) => {
                // Duplicate handshake answer (the connect loop re-asks
                // after a corrupt frame); the grant was already taken.
                self.metrics.stale_frames.inc();
            }
            other => {
                return Err(NvmeofError::Protocol(format!(
                    "unexpected PDU at initiator: {other:?}"
                )))
            }
        }
        Ok(())
    }
}

impl<T: Transport> Initiator<T> {
    /// Blocking write convenience wrapper.
    pub fn write_blocking(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        data: Bytes,
        timeout: Duration,
    ) -> Result<(), NvmeofError> {
        let cid = self.submit_write(nsid, slba, nlb, data)?;
        let result = self.wait(cid, timeout)?;
        if result.status.is_ok() {
            Ok(())
        } else {
            Err(NvmeofError::Nvme(result.status))
        }
    }

    /// Blocking read convenience wrapper.
    pub fn read_blocking(
        &mut self,
        nsid: u32,
        slba: u64,
        nlb: u32,
        expected_len: usize,
        timeout: Duration,
    ) -> Result<Vec<u8>, NvmeofError> {
        let cid = self.submit_read(nsid, slba, nlb, expected_len)?;
        let result = self.wait(cid, timeout)?;
        if result.status.is_ok() {
            Ok(result.data)
        } else {
            Err(NvmeofError::Nvme(result.status))
        }
    }

    /// Queries namespace geometry.
    pub fn identify(&mut self, nsid: u32, timeout: Duration) -> Result<IdentifyInfo, NvmeofError> {
        let cmd = self.state.track(
            NvmeCommand {
                cid: 0,
                opcode: Opcode::Identify,
                nsid,
                slba: 0,
                nlb: 0,
                fua: false,
                gseq: 0,
            },
            Vec::new(),
            None,
            false,
            // Identify data arrives as one inline chunk of unpredictable
            // size; any arrival satisfies it.
            DataNeed::Any,
        );
        self.state.send_pdu(
            &self.transport,
            &Pdu::CapsuleCmd(CapsuleCmd { cmd, data: None }),
        )?;
        let result = self.wait(cmd.cid, timeout)?;
        if !result.status.is_ok() {
            return Err(NvmeofError::Nvme(result.status));
        }
        IdentifyInfo::from_bytes(&result.data)
            .ok_or_else(|| NvmeofError::Codec("identify payload malformed".into()))
    }

    /// Sends a termination request.
    pub fn disconnect(&mut self) -> Result<(), NvmeofError> {
        self.state.send_pdu(
            &self.transport,
            &Pdu::TermReq(crate::pdu::TermReq { reason: 0 }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvme::controller::Controller;
    use crate::nvme::namespace::Namespace;
    use crate::target::{spawn_target, TargetConfig};
    use crate::transport::MemTransport;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn setup(
        opts: InitiatorOptions,
        cfg: TargetConfig,
        channels: Option<(Arc<dyn PayloadChannel>, Arc<dyn PayloadChannel>)>,
    ) -> (Initiator<MemTransport>, crate::target::TargetHandle) {
        let (ct, tt) = MemTransport::pair();
        let mut ctrl = Controller::new();
        ctrl.add_namespace(Namespace::new(1, 4096, 4096));
        let (client_ch, target_ch) = match channels {
            Some((c, t)) => (Some(c), Some(t)),
            None => (None, None),
        };
        let handle = spawn_target(tt, ctrl, cfg, target_ch);
        let ini = Initiator::connect(ct, opts, client_ch, TIMEOUT).unwrap();
        (ini, handle)
    }

    #[test]
    fn end_to_end_write_read_inline() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        assert!(!ini.shm_active());
        let data = Bytes::from(vec![0x42u8; 128 * 1024]);
        ini.write_blocking(1, 0, 32, data.clone(), TIMEOUT).unwrap();
        let back = ini.read_blocking(1, 0, 32, 128 * 1024, TIMEOUT).unwrap();
        assert_eq!(back, data);
        handle.shutdown().unwrap();
    }

    #[test]
    fn small_write_goes_in_capsule() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let data = Bytes::from(vec![7u8; 4096]);
        ini.write_blocking(1, 5, 1, data.clone(), TIMEOUT).unwrap();
        let back = ini.read_blocking(1, 5, 1, 4096, TIMEOUT).unwrap();
        assert_eq!(back, data);
        handle.shutdown().unwrap();
    }

    #[test]
    fn shm_negotiation_and_io() {
        use crate::payload::MailboxChannel;
        let (c, t) = MailboxChannel::pair(16);
        let opts = InitiatorOptions {
            af_caps: AF_CAP_SHM,
            flow: FlowMode::InCapsule,
            ..InitiatorOptions::default()
        };
        let (mut ini, handle) = setup(
            opts,
            TargetConfig::default(),
            Some((c as Arc<dyn PayloadChannel>, t as Arc<dyn PayloadChannel>)),
        );
        assert!(ini.shm_active());
        let data = Bytes::from(vec![0x99u8; 256 * 1024]);
        ini.write_blocking(1, 0, 64, data.clone(), TIMEOUT).unwrap();
        let back = ini.read_blocking(1, 0, 64, 256 * 1024, TIMEOUT).unwrap();
        assert_eq!(back, data);
        handle.shutdown().unwrap();
    }

    #[test]
    fn lease_write_and_borrowed_read() {
        use crate::payload::MailboxChannel;
        let (c, t) = MailboxChannel::pair(16);
        let opts = InitiatorOptions {
            af_caps: AF_CAP_SHM,
            flow: FlowMode::InCapsule,
            ..InitiatorOptions::default()
        };
        let (mut ini, handle) = setup(
            opts,
            TargetConfig::default(),
            Some((c as Arc<dyn PayloadChannel>, t as Arc<dyn PayloadChannel>)),
        );
        assert!(ini.shm_active());

        // Build the payload directly in a leased write buffer.
        let mut lease = ini.alloc_write_buf(64 * 1024).unwrap();
        for (i, b) in lease.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let expect: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        let cid = ini.submit_write_lease(1, 0, 16, lease).unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());

        // Borrow the read payload in place instead of copying it out.
        let cid = ini.submit_read_borrowed(1, 0, 16, 64 * 1024).unwrap();
        let mut res = ini.wait(cid, TIMEOUT).unwrap();
        assert!(res.status.is_ok());
        assert!(res.shm.is_some(), "borrowed read should park a slot ref");
        assert!(res.data.is_empty());
        let mut seen = Vec::new();
        ini.consume_read_with(&mut res, &mut |b| seen.extend_from_slice(b))
            .unwrap();
        assert_eq!(seen, expect);
        assert_eq!(res.shm, None, "consumption clears the reference");
        handle.shutdown().unwrap();
    }

    #[test]
    fn queue_depth_pipelining() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let qd = 32;
        let mut cids = Vec::new();
        for i in 0..qd {
            let data = Bytes::from(vec![i as u8; 4096]);
            cids.push(ini.submit_write(1, i as u64, 1, data).unwrap());
        }
        assert_eq!(ini.inflight(), qd);
        let mut done = 0;
        let deadline = Instant::now() + TIMEOUT;
        while done < qd && Instant::now() < deadline {
            done += ini.poll().unwrap().len();
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(done, qd);
        // Verify contents round-trip.
        for i in 0..qd {
            let back = ini.read_blocking(1, i as u64, 1, 4096, TIMEOUT).unwrap();
            assert!(back.iter().all(|&b| b == i as u8), "lba {i} corrupt");
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn compare_and_write_zeroes_end_to_end() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let data = Bytes::from(vec![0x7du8; 4096]);
        ini.write_blocking(1, 9, 1, data.clone(), TIMEOUT).unwrap();

        // Matching compare succeeds.
        let cid = ini.submit_compare(1, 9, 1, data).unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());
        // Mismatch fails with CompareFailure.
        let cid = ini
            .submit_compare(1, 9, 1, Bytes::from(vec![0u8; 4096]))
            .unwrap();
        assert_eq!(
            ini.wait(cid, TIMEOUT).unwrap().status,
            Status::CompareFailure
        );

        // Write-zeroes clears the range; the compare against zeros now
        // passes.
        let cid = ini.submit_write_zeroes(1, 9, 1).unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());
        let cid = ini
            .submit_compare(1, 9, 1, Bytes::from(vec![0u8; 4096]))
            .unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());
        handle.shutdown().unwrap();
    }

    #[test]
    fn large_compare_uses_conservative_flow() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let data = Bytes::from(vec![0x3eu8; 64 * 1024]);
        ini.write_blocking(1, 32, 16, data.clone(), TIMEOUT)
            .unwrap();
        // 64 KiB > ioccsz: the compare payload goes via R2T + H2C.
        let cid = ini.submit_compare(1, 32, 16, data).unwrap();
        assert!(ini.wait(cid, TIMEOUT).unwrap().status.is_ok());
        handle.shutdown().unwrap();
    }

    #[test]
    fn identify_returns_geometry() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let info = ini.identify(1, TIMEOUT).unwrap();
        assert_eq!(info.block_size, 4096);
        assert_eq!(info.capacity_blocks, 4096);
        handle.shutdown().unwrap();
    }

    #[test]
    fn nvme_error_surfaces() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let err = ini.read_blocking(1, 10_000, 1, 4096, TIMEOUT).unwrap_err();
        assert!(matches!(err, NvmeofError::Nvme(Status::LbaOutOfRange)));
        handle.shutdown().unwrap();
    }

    #[test]
    fn flush_completes() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        let cid = ini.submit_flush(1).unwrap();
        let r = ini.wait(cid, TIMEOUT).unwrap();
        assert!(r.status.is_ok());
        handle.shutdown().unwrap();
    }

    #[test]
    fn disconnect_stops_target() {
        let (mut ini, handle) = setup(InitiatorOptions::default(), TargetConfig::default(), None);
        ini.disconnect().unwrap();
        handle.shutdown().unwrap();
    }
}
