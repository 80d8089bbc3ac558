//! The NVMe-oF target (storage service).
//!
//! [`TargetConnection`] is the per-connection protocol state machine as a
//! pure function — frames in, frames out — which keeps every flow
//! (handshake, in-capsule write, conservative R2T write, inline-chunked
//! read, shared-memory read/write) unit-testable without threads.
//! [`spawn_target`] serves one connection on the polled reactor of
//! [`crate::shard`], mirroring SPDK's poll-mode target design (§2.2).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use crate::error::NvmeofError;
use crate::metrics::TargetMetrics;
use crate::nvme::command::{NvmeCommand, Opcode};
use crate::nvme::completion::{NvmeCompletion, Status};
use crate::nvme::controller::Controller;
use crate::nvme::namespace::{BarrierPoll, BarrierTicket};
use crate::payload::PayloadChannel;
use crate::pdu::{
    AbortAck, CapsuleCmd, CapsuleResp, DataPdu, DataRef, Degrade, ICResp, KeepAlive, Pdu,
    AF_CAP_SHM, AF_CAP_SHM_INCAPSULE, AF_CAP_ZERO_COPY, R2T,
};
use crate::recovery::{AbortDecision, TargetRecovery};
use crate::transport::{Frame, Transport};

/// Target-side configuration.
#[derive(Clone, Debug)]
pub struct TargetConfig {
    /// Largest in-capsule write the target accepts (stock NVMe/TCP: 8 KiB,
    /// §4.4.2).
    pub in_capsule_max: usize,
    /// Chunk size for inline C2H read data (stock NVMe/TCP: 128 KiB,
    /// §4.5).
    pub read_chunk: usize,
    /// Adaptive-fabric capabilities this target offers.
    pub af_caps: u32,
    /// Identity advertised in the ICResp (locality matching).
    pub target_id: u64,
}

impl Default for TargetConfig {
    fn default() -> Self {
        TargetConfig {
            in_capsule_max: 8 * 1024,
            read_chunk: 128 * 1024,
            af_caps: AF_CAP_SHM | AF_CAP_SHM_INCAPSULE | AF_CAP_ZERO_COPY,
            target_id: 1,
        }
    }
}

struct PendingWrite {
    cmd: NvmeCommand,
    buf: Vec<u8>,
    received: usize,
}

/// A barrier-class completion parked on a sync ticket: the
/// command executed (journaled and applied), its `fdatasync` is in
/// flight on the store's sync worker, and the response capsule is held
/// until [`TargetConnection::poll_parked`] sees the ticket resolve.
struct ParkedBarrier {
    nsid: u32,
    gseq: u32,
    comp: NvmeCompletion,
    ticket: BarrierTicket,
    since: Instant,
    /// An Abort for this command arrived while parked; the ack
    /// (`applied = true`, with the final completion) is owed at release.
    abort_requested: bool,
}

/// Per-connection protocol state machine.
pub struct TargetConnection {
    cfg: TargetConfig,
    handshaken: bool,
    shm_active: bool,
    /// Capability grant of the first handshake, so duplicate ICReqs
    /// (the client re-asks after a corrupted ICResp) are re-answered
    /// identically instead of erroring.
    granted: u32,
    next_ttag: u16,
    pending_writes: std::collections::HashMap<u16, PendingWrite>,
    payload: Option<Arc<dyn PayloadChannel>>,
    terminated: bool,
    metrics: Arc<TargetMetrics>,
    /// The pure recovery decision core: executed-completion ring (abort
    /// answering), aborted-cid ring (late-duplicate dropping) and retired
    /// ttag ring, all matched on `(cid, gseq)` so recycled cids can never
    /// be confused with an old incarnation. Shared verbatim with the
    /// `oaf-mc` model checker.
    core: TargetRecovery,
    /// Barrier completions parked on in-flight sync tickets, in
    /// submission order. Released (in order) by
    /// [`TargetConnection::poll_parked`].
    parked: VecDeque<ParkedBarrier>,
}

impl TargetConnection {
    /// Creates the state machine. `payload` is the shared-memory channel
    /// the helper process hot-plugged, if any.
    pub fn new(cfg: TargetConfig, payload: Option<Arc<dyn PayloadChannel>>) -> Self {
        TargetConnection {
            cfg,
            handshaken: false,
            shm_active: false,
            granted: 0,
            next_ttag: 1,
            pending_writes: std::collections::HashMap::new(),
            payload,
            terminated: false,
            metrics: TargetMetrics::new(),
            core: TargetRecovery::new(),
            // Pre-sized far above any sane barrier queue depth so the
            // steady-state park/release cycle never allocates.
            parked: VecDeque::with_capacity(64),
        }
    }

    /// Whether the peer requested termination.
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// This connection's metric bundle (detached until registered into
    /// a [`oaf_telemetry::Registry`] scope).
    pub fn metrics(&self) -> &Arc<TargetMetrics> {
        &self.metrics
    }

    /// Counts an executed command and emits its response capsule, and
    /// remembers the completion so a racing Abort can be answered
    /// `applied = true` instead of letting the client double-apply.
    fn finish(&mut self, gseq: u32, comp: NvmeCompletion, out: &mut Vec<Pdu>) {
        self.metrics.ops.inc();
        if !comp.status.is_ok() {
            self.metrics.errors.inc();
        }
        self.metrics.responses.inc();
        self.core.on_executed(comp.cid, gseq, comp);
        out.push(Pdu::CapsuleResp(CapsuleResp { completion: comp }));
    }

    /// Posts a completion — immediately, or parked on its sync ticket
    /// when the store handed one back (the command is applied, its
    /// `fdatasync` is in flight on the sync worker). Parking keeps the
    /// reactor free to serve other commands while the sync runs;
    /// [`poll_parked`](TargetConnection::poll_parked) releases held
    /// completions in order once their tickets resolve.
    fn finish_or_park(
        &mut self,
        nsid: u32,
        gseq: u32,
        comp: NvmeCompletion,
        ticket: Option<BarrierTicket>,
        out: &mut Vec<Pdu>,
    ) {
        match ticket {
            Some(ticket) if comp.status.is_ok() => {
                self.metrics.barriers_parked.inc();
                self.parked.push_back(ParkedBarrier {
                    nsid,
                    gseq,
                    comp,
                    ticket,
                    since: Instant::now(),
                    abort_requested: false,
                });
            }
            _ => self.finish(gseq, comp, out),
        }
    }

    /// Releases parked barrier completions whose sync tickets resolved,
    /// oldest first, stopping at the first still-pending ticket so
    /// responses stay in submission order. A failed sync releases its
    /// completion as a device error — exactly the parked set covered by
    /// the failing `fdatasync`, nothing before or after. Returns how
    /// many completions were released (progress for the reactor's idle
    /// policy).
    pub fn poll_parked(&mut self, ctrl: &Controller, out: &mut Vec<Pdu>) -> usize {
        let mut released = 0;
        while let Some(front) = self.parked.front() {
            let verdict = ctrl.poll_barrier(front.nsid, front.ticket);
            if verdict == BarrierPoll::Pending {
                break;
            }
            let p = self.parked.pop_front().expect("front exists");
            let comp = match verdict {
                BarrierPoll::Durable => p.comp,
                BarrierPoll::Failed => NvmeCompletion::error(p.comp.cid, Status::InternalError),
                BarrierPoll::Pending => unreachable!("loop breaks on Pending"),
            };
            self.metrics.barrier_park_ns.record_nanos(p.since.elapsed());
            self.finish(p.gseq, comp, out);
            if p.abort_requested {
                // The abort that raced the parked barrier gets its
                // deferred answer: the command *was* applied, with this
                // final (possibly error) completion.
                self.metrics.aborts_handled.inc();
                out.push(Pdu::AbortAck(AbortAck {
                    cid: comp.cid,
                    applied: true,
                    completion: comp,
                }));
            }
            released += 1;
        }
        released
    }

    /// How many barrier completions are currently parked on in-flight
    /// sync tickets.
    pub fn parked_barriers(&self) -> usize {
        self.parked.len()
    }

    /// Drains an unconsumed shm payload reference from a dropped frame so
    /// its slot returns to the pool instead of leaking.
    fn drain_stale_ref(&self, data: &DataRef) {
        if let DataRef::ShmSlot { slot, len } = *data {
            if let Some(ch) = self.payload.as_ref() {
                let _ = ch.consume_with(slot, len, &mut |_| {});
            }
        }
    }

    /// Abandons the shared-memory payload path from the target side
    /// (slot publish/consume failed): tells the client, quarantines the
    /// region so neither side leases from it again, and sweeps this
    /// side's published slots back to the pool.
    fn degrade_self(&mut self, out: &mut Vec<Pdu>) {
        if !self.shm_active {
            return;
        }
        self.shm_active = false;
        out.push(Pdu::Degrade(Degrade { reason: 2 }));
        if let Some(ch) = self.payload.as_ref() {
            ch.quarantine();
            ch.reclaim();
        }
    }

    /// Whether the shared-memory data path was negotiated.
    pub fn shm_active(&self) -> bool {
        self.shm_active
    }

    /// Processes one incoming frame against `ctrl`, returning response
    /// frames to send. Convenience wrapper over [`TargetConnection::handle`]
    /// that encodes each response into a fresh buffer.
    pub fn on_frame(
        &mut self,
        frame: Bytes,
        ctrl: &mut Controller,
    ) -> Result<Vec<Bytes>, NvmeofError> {
        let mut out = Vec::new();
        self.handle(Frame::Owned(frame), ctrl, &mut out)?;
        Ok(out.iter().map(Pdu::encode).collect())
    }

    /// Processes one incoming frame against `ctrl`, appending response
    /// PDUs to `out` — the allocation-free reactor path: the caller owns
    /// a reusable `out` vector and encodes each response into its own
    /// scratch buffer.
    pub fn handle(
        &mut self,
        frame: Frame<'_>,
        ctrl: &mut Controller,
        out: &mut Vec<Pdu>,
    ) -> Result<(), NvmeofError> {
        let pdu = match Pdu::decode_frame(frame) {
            Ok(pdu) => pdu,
            // Bit damage on the fabric: drop the frame and let the
            // client's deadline machinery re-cover the loss.
            Err(NvmeofError::CorruptFrame) | Err(NvmeofError::Codec(_)) => {
                self.metrics.corrupt_frames.inc();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        match pdu {
            Pdu::ICReq(req) => {
                if self.handshaken {
                    // The client re-asks when its ICResp arrived damaged;
                    // re-answer with the grant of the first handshake.
                    out.push(Pdu::ICResp(ICResp {
                        pfv: req.pfv,
                        ioccsz: self.cfg.in_capsule_max as u32,
                        af_caps: self.granted,
                        target_id: self.cfg.target_id,
                    }));
                    return Ok(());
                }
                self.handshaken = true;
                // Grant the intersection of requested and offered caps;
                // the data path additionally needs a hot-plugged channel.
                let mut granted = req.af_caps & self.cfg.af_caps;
                if self.payload.is_none() {
                    granted = 0;
                }
                self.granted = granted;
                self.shm_active = granted & AF_CAP_SHM != 0;
                out.push(Pdu::ICResp(ICResp {
                    pfv: req.pfv,
                    ioccsz: self.cfg.in_capsule_max as u32,
                    af_caps: granted,
                    target_id: self.cfg.target_id,
                }));
                Ok(())
            }
            Pdu::CapsuleCmd(c) => self.on_command(c, ctrl, out),
            Pdu::H2CData(d) => self.on_h2c_data(d, ctrl, out),
            Pdu::Abort(a) => {
                self.require_handshake()?;
                self.on_abort(a.cid, a.gseq, out);
                Ok(())
            }
            Pdu::KeepAlive(ka) => {
                self.require_handshake()?;
                self.metrics.keepalives.inc();
                out.push(Pdu::KeepAliveAck(KeepAlive { seq: ka.seq }));
                Ok(())
            }
            Pdu::KeepAliveAck(_) => Ok(()),
            Pdu::Degrade(_) => {
                // The client abandoned the shm payload path; serve
                // everything over the control path from here on. (It
                // quarantined and swept the region itself.)
                self.shm_active = false;
                Ok(())
            }
            Pdu::TermReq(_) => {
                self.terminated = true;
                Ok(())
            }
            other => Err(NvmeofError::Protocol(format!(
                "unexpected PDU at target: {other:?}"
            ))),
        }
    }

    /// Answers an Abort: `applied = true` with the remembered completion
    /// if the command already executed (the abort raced its response);
    /// otherwise discard any staging state and answer `applied = false`,
    /// remembering the cid so a late duplicate of the original command
    /// is dropped rather than double-applied next to the resubmission.
    fn on_abort(&mut self, cid: u16, gseq: u32, out: &mut Vec<Pdu>) {
        // A parked barrier already executed — it must answer
        // `applied = true`, but its final status is unknown until the
        // sync resolves. Defer the ack to release time; recording it as
        // aborted-not-applied here would invite the client to resubmit
        // and double-apply.
        if let Some(p) = self
            .parked
            .iter_mut()
            .find(|p| p.comp.cid == cid && p.gseq == gseq)
        {
            p.abort_requested = true;
            return;
        }
        self.metrics.aborts_handled.inc();
        match self.core.on_abort(cid, gseq) {
            AbortDecision::Applied(completion) => {
                out.push(Pdu::AbortAck(AbortAck {
                    cid,
                    applied: true,
                    completion,
                }));
            }
            AbortDecision::NotApplied => {
                // Drop any half-filled R2T staging buffer for this
                // command incarnation.
                let stale: Vec<u16> = self
                    .pending_writes
                    .iter()
                    .filter(|(_, pw)| pw.cmd.cid == cid && pw.cmd.gseq == gseq)
                    .map(|(&ttag, _)| ttag)
                    .collect();
                for ttag in stale {
                    self.pending_writes.remove(&ttag);
                    self.core.retire_ttag(ttag);
                }
                out.push(Pdu::AbortAck(AbortAck {
                    cid,
                    applied: false,
                    completion: NvmeCompletion::error(cid, Status::InternalError),
                }));
            }
        }
    }

    fn require_handshake(&self) -> Result<(), NvmeofError> {
        if self.handshaken {
            Ok(())
        } else {
            Err(NvmeofError::Protocol("command before ICReq".into()))
        }
    }

    fn on_command(
        &mut self,
        c: CapsuleCmd,
        ctrl: &mut Controller,
        out: &mut Vec<Pdu>,
    ) -> Result<(), NvmeofError> {
        self.require_handshake()?;
        if self.core.should_drop_command(c.cmd.cid, c.cmd.gseq) {
            // Late duplicate of a command we already answered an abort
            // for: the client resubmitted it under a fresh cid, so
            // applying this copy would double-apply.
            if let Some(data) = &c.data {
                self.drain_stale_ref(data);
            }
            return Ok(());
        }
        match c.cmd.opcode {
            Opcode::Read => self.on_read(c.cmd, ctrl, out),
            // Anything shipping host data (write, compare) goes through
            // the in-capsule/R2T/shm-reference write path; everything
            // else (flush, identify, write-zeroes, DSM) executes
            // directly from the capsule. The classification lives on
            // `Opcode` so the initiator's retry policy and this dispatch
            // can never drift apart.
            op if op.carries_host_data() => self.on_write(c, ctrl, out),
            _ => {
                let (comp, payload, ticket) = ctrl.execute_async(&c.cmd, None);
                if let Some(data) = payload {
                    out.push(Pdu::C2HData(DataPdu {
                        cid: c.cmd.cid,
                        ttag: 0,
                        offset: 0,
                        last: true,
                        data: DataRef::Inline(Bytes::from(data)),
                    }));
                }
                self.finish_or_park(c.cmd.nsid, c.cmd.gseq, comp, ticket, out);
                Ok(())
            }
        }
    }

    /// Executes a data-bearing command with the payload *borrowed* in
    /// place: inline bytes straight from the capsule, shm payloads lent
    /// by the channel for the duration of the device copy. The only copy
    /// left is slot → device — the one copy that cannot be avoided
    /// (§4.4.3); the old materialize-into-a-`Vec` staging hop is gone.
    fn execute_borrowed(
        &self,
        cmd: &NvmeCommand,
        data: DataRef,
        ctrl: &mut Controller,
    ) -> Result<(NvmeCompletion, Option<BarrierTicket>), NvmeofError> {
        match data {
            DataRef::Inline(b) => {
                self.metrics.inline_payloads.inc();
                let (comp, _, ticket) = ctrl.execute_async(cmd, Some(&b));
                Ok((comp, ticket))
            }
            DataRef::ShmSlot { slot, len } => {
                self.metrics.shm_payloads.inc();
                let ch = self
                    .payload
                    .as_ref()
                    .ok_or_else(|| NvmeofError::Protocol("shm ref without channel".into()))?;
                let mut res = None;
                ch.consume_with(slot, len, &mut |bytes| {
                    let (c, _, t) = ctrl.execute_async(cmd, Some(bytes));
                    res = Some((c, t));
                })?;
                self.metrics.zero_copy_bytes.add(u64::from(len));
                self.metrics.copies_avoided.inc();
                res.ok_or_else(|| {
                    NvmeofError::Protocol("payload channel did not lend slot bytes".into())
                })
            }
        }
    }

    fn on_write(
        &mut self,
        c: CapsuleCmd,
        ctrl: &mut Controller,
        out: &mut Vec<Pdu>,
    ) -> Result<(), NvmeofError> {
        let cmd = c.cmd;
        let expected = self.transfer_len(&cmd, ctrl);
        match c.data {
            Some(data) => {
                // In-capsule write (small I/O, or any size over the
                // shared-memory flow control, §4.4.2).
                if !data.is_shm() && data.len() > self.cfg.in_capsule_max {
                    return Err(NvmeofError::Protocol(format!(
                        "in-capsule data {} exceeds ioccsz {}",
                        data.len(),
                        self.cfg.in_capsule_max
                    )));
                }
                let (comp, ticket) = match self.execute_borrowed(&cmd, data, ctrl) {
                    Ok(executed) => executed,
                    Err(NvmeofError::Payload(_)) => {
                        // The slot reference could not be consumed (the
                        // region died, or a duplicated capsule already
                        // drained it): abandon shm and report a device
                        // error so the client's retry machinery replays
                        // the write over the control path.
                        self.degrade_self(out);
                        (NvmeCompletion::error(cmd.cid, Status::InternalError), None)
                    }
                    Err(e) => return Err(e),
                };
                self.finish_or_park(cmd.nsid, cmd.gseq, comp, ticket, out);
                Ok(())
            }
            None => {
                // Conservative flow: allocate a buffer, grant an R2T
                // (Fig. 7 step 2).
                let ttag = self.next_ttag;
                self.next_ttag = self.next_ttag.wrapping_add(1).max(1);
                self.pending_writes.insert(
                    ttag,
                    PendingWrite {
                        cmd,
                        buf: vec![0u8; expected],
                        received: 0,
                    },
                );
                self.metrics.r2t_grants.inc();
                out.push(Pdu::R2T(R2T {
                    cid: cmd.cid,
                    ttag,
                    offset: 0,
                    len: expected as u32,
                }));
                Ok(())
            }
        }
    }

    fn on_h2c_data(
        &mut self,
        d: DataPdu,
        ctrl: &mut Controller,
        out: &mut Vec<Pdu>,
    ) -> Result<(), NvmeofError> {
        self.require_handshake()?;
        let metrics = Arc::clone(&self.metrics);
        let ch = self.payload.clone();
        let data_len = d.data.len();
        let Some(pending) = self.pending_writes.get_mut(&d.ttag) else {
            if self.core.is_retired_ttag(d.ttag) {
                // Late duplicate chunk for a staging buffer that already
                // completed or was aborted: drain and drop.
                self.drain_stale_ref(&d.data);
                return Ok(());
            }
            return Err(NvmeofError::Protocol(format!("unknown ttag {}", d.ttag)));
        };
        let off = d.offset as usize;
        if off + data_len > pending.buf.len() {
            return Err(NvmeofError::Protocol("H2C data beyond R2T grant".into()));
        }
        // Land the chunk in the staging buffer directly — borrowed from
        // the capsule or lent by the channel, never via an intermediate
        // materialized `Vec`.
        match d.data {
            DataRef::Inline(b) => {
                metrics.inline_payloads.inc();
                pending.buf[off..off + b.len()].copy_from_slice(&b);
            }
            DataRef::ShmSlot { slot, len } => {
                metrics.shm_payloads.inc();
                let ch =
                    ch.ok_or_else(|| NvmeofError::Protocol("shm ref without channel".into()))?;
                let dst = &mut pending.buf[off..off + len as usize];
                if ch
                    .consume_with(slot, len, &mut |bytes| dst.copy_from_slice(bytes))
                    .is_err()
                {
                    // The region died with the chunk inside: fail this
                    // write cleanly and abandon shm. The client replays
                    // the payload over the control path.
                    let cmd = pending.cmd;
                    self.pending_writes.remove(&d.ttag);
                    self.core.retire_ttag(d.ttag);
                    self.degrade_self(out);
                    let comp = NvmeCompletion::error(cmd.cid, Status::InternalError);
                    self.finish(cmd.gseq, comp, out);
                    return Ok(());
                }
                metrics.copies_avoided.inc();
            }
        }
        pending.received += data_len;
        if d.last || pending.received >= pending.buf.len() {
            let pw = self.pending_writes.remove(&d.ttag).expect("present");
            self.core.retire_ttag(d.ttag);
            let (comp, _, ticket) = ctrl.execute_async(&pw.cmd, Some(&pw.buf));
            self.finish_or_park(pw.cmd.nsid, pw.cmd.gseq, comp, ticket, out);
        }
        Ok(())
    }

    /// Serves a read by leasing the target-half slot as the device's
    /// destination buffer: the ssd backend reads straight into shared
    /// memory and the lease publishes with no copy (§4.4.3).
    fn read_via_lease(
        &mut self,
        cmd: NvmeCommand,
        mut lease: crate::payload::WriteLease,
        ctrl: &mut Controller,
        out: &mut Vec<Pdu>,
    ) -> Result<(), NvmeofError> {
        let comp = ctrl.read_into(&cmd, &mut lease);
        if comp.status.is_ok() {
            let bytes = lease.len() as u64;
            let zero_copy = lease.is_zero_copy();
            let ch = self
                .payload
                .as_ref()
                .expect("lease came from this channel")
                .clone();
            let (slot, len) = match ch.publish_lease(lease) {
                Ok(published) => published,
                Err(_) => {
                    // The region died between alloc and publish: abandon
                    // shm and serve the read again over the inline path
                    // (reads are idempotent).
                    self.degrade_self(out);
                    return self.on_read(cmd, ctrl, out);
                }
            };
            if zero_copy {
                self.metrics.zero_copy_bytes.add(bytes);
                self.metrics.copies_avoided.inc();
            }
            out.push(Pdu::C2HData(DataPdu {
                cid: cmd.cid,
                ttag: 0,
                offset: 0,
                last: true,
                data: DataRef::ShmSlot { slot, len },
            }));
        }
        // On error the unpublished lease drops here, returning its slot.
        self.finish(cmd.gseq, comp, out);
        Ok(())
    }

    fn on_read(
        &mut self,
        cmd: NvmeCommand,
        ctrl: &mut Controller,
        out: &mut Vec<Pdu>,
    ) -> Result<(), NvmeofError> {
        if self.shm_active {
            if let (Some(ch), Some(expected)) = (self.payload.as_ref(), ctrl.transfer_len(&cmd)) {
                if expected > 0 && expected <= ch.max_payload() {
                    // Pool exhaustion (or any alloc failure) falls back to
                    // the copying path below rather than stalling the
                    // connection.
                    if let Ok(lease) = ch.alloc(expected) {
                        return self.read_via_lease(cmd, lease, ctrl, out);
                    }
                }
            }
        }
        let (comp, payload) = ctrl.execute(&cmd, None);
        if let Some(data) = payload {
            let mut published = None;
            if self.shm_active
                && self
                    .payload
                    .as_ref()
                    .is_some_and(|ch| data.len() <= ch.max_payload())
            {
                // Publish through the double buffer; the control PDU only
                // carries the slot reference (§4.3).
                let ch = self
                    .payload
                    .as_ref()
                    .expect("shm_active implies channel")
                    .clone();
                match ch.publish(&data) {
                    Ok(p) => published = Some(p),
                    // Region died: abandon shm, fall through to the
                    // inline chunked path below.
                    Err(_) => self.degrade_self(out),
                }
            }
            if let Some((slot, len)) = published {
                out.push(Pdu::C2HData(DataPdu {
                    cid: cmd.cid,
                    ttag: 0,
                    offset: 0,
                    last: true,
                    data: DataRef::ShmSlot { slot, len },
                }));
            } else {
                // Stock NVMe/TCP: inline data chunked at the
                // application-level chunk size (§4.5).
                let chunk = self.cfg.read_chunk.max(1);
                let total = data.len();
                let bytes = Bytes::from(data);
                let mut off = 0usize;
                while off < total {
                    let end = (off + chunk).min(total);
                    out.push(Pdu::C2HData(DataPdu {
                        cid: cmd.cid,
                        ttag: 0,
                        offset: off as u32,
                        last: end == total,
                        data: DataRef::Inline(bytes.slice(off..end)),
                    }));
                    off = end;
                }
                if total == 0 {
                    out.push(Pdu::C2HData(DataPdu {
                        cid: cmd.cid,
                        ttag: 0,
                        offset: 0,
                        last: true,
                        data: DataRef::Inline(Bytes::new()),
                    }));
                }
            }
        }
        self.finish(cmd.gseq, comp, out);
        Ok(())
    }

    fn transfer_len(&self, cmd: &NvmeCommand, ctrl: &Controller) -> usize {
        ctrl.namespace(cmd.nsid)
            .map(|ns| cmd.transfer_len(ns.block_size()) as usize)
            .unwrap_or(0)
    }
}

/// Handle to a running target: the one handle type every target in this
/// crate returns (see [`crate::shard`]).
pub type TargetHandle = crate::shard::ShardedTarget;

/// Spawns a target serving one connection: one reactor shard owning
/// that connection.
pub fn spawn_target<T: Transport + 'static>(
    transport: T,
    controller: Controller,
    cfg: TargetConfig,
    payload: Option<Arc<dyn PayloadChannel>>,
) -> TargetHandle {
    let spec = crate::server::ConnectionSpec {
        transport: Box::new(transport),
        cfg,
        payload,
        scope: None,
    };
    crate::shard::spawn_sharded(
        controller,
        vec![spec],
        crate::shard::ShardConfig::new(1),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvme::namespace::Namespace;
    use crate::pdu::ICReq;
    use std::time::Duration;

    fn controller() -> Controller {
        let mut c = Controller::new();
        c.add_namespace(Namespace::new(1, 4096, 1024));
        c
    }

    fn handshake(conn: &mut TargetConnection, ctrl: &mut Controller, caps: u32) -> ICResp {
        let frames = conn
            .on_frame(
                Pdu::ICReq(ICReq {
                    pfv: 1,
                    maxr2t: 4,
                    af_caps: caps,
                    host_id: 7,
                })
                .encode(),
                ctrl,
            )
            .unwrap();
        match Pdu::decode(frames[0].clone()).unwrap() {
            Pdu::ICResp(r) => r,
            other => panic!("expected ICResp, got {other:?}"),
        }
    }

    #[test]
    fn handshake_grants_nothing_without_channel() {
        let mut ctrl = controller();
        let mut conn = TargetConnection::new(TargetConfig::default(), None);
        let resp = handshake(&mut conn, &mut ctrl, AF_CAP_SHM);
        assert_eq!(resp.af_caps, 0);
        assert!(!conn.shm_active());
    }

    #[test]
    fn command_before_handshake_rejected() {
        let mut ctrl = controller();
        let mut conn = TargetConnection::new(TargetConfig::default(), None);
        let err = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::read(1, 1, 0, 1),
                    data: None,
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap_err();
        assert!(matches!(err, NvmeofError::Protocol(_)));
    }

    #[test]
    fn in_capsule_write_executes_immediately() {
        let mut ctrl = controller();
        let mut conn = TargetConnection::new(TargetConfig::default(), None);
        handshake(&mut conn, &mut ctrl, 0);
        let data = vec![9u8; 4096];
        let frames = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::write(1, 1, 0, 1),
                    data: Some(DataRef::Inline(Bytes::from(data.clone()))),
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        assert_eq!(frames.len(), 1);
        match Pdu::decode(frames[0].clone()).unwrap() {
            Pdu::CapsuleResp(r) => assert!(r.completion.status.is_ok()),
            other => panic!("{other:?}"),
        }
        // Verify the bytes landed.
        let mut out = vec![0u8; 4096];
        assert!(ctrl.namespace(1).unwrap().read(0, 1, &mut out).is_ok());
        assert_eq!(out, data);
    }

    #[test]
    fn conservative_write_grants_r2t_then_completes() {
        let mut ctrl = controller();
        let mut conn = TargetConnection::new(TargetConfig::default(), None);
        handshake(&mut conn, &mut ctrl, 0);
        // 128 KiB write, no in-capsule data.
        let frames = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::write(2, 1, 0, 32),
                    data: None,
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        let r2t = match Pdu::decode(frames[0].clone()).unwrap() {
            Pdu::R2T(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(r2t.len, 128 * 1024);
        // Deliver the data in two chunks.
        let payload = vec![0x5au8; 128 * 1024];
        let f1 = conn
            .on_frame(
                Pdu::H2CData(DataPdu {
                    cid: 2,
                    ttag: r2t.ttag,
                    offset: 0,
                    last: false,
                    data: DataRef::Inline(Bytes::from(payload[..64 * 1024].to_vec())),
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        assert!(f1.is_empty());
        let f2 = conn
            .on_frame(
                Pdu::H2CData(DataPdu {
                    cid: 2,
                    ttag: r2t.ttag,
                    offset: 64 * 1024,
                    last: true,
                    data: DataRef::Inline(Bytes::from(payload[64 * 1024..].to_vec())),
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        match Pdu::decode(f2[0].clone()).unwrap() {
            Pdu::CapsuleResp(r) => assert!(r.completion.status.is_ok()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn read_is_chunked_inline() {
        let mut ctrl = controller();
        // Write some data first.
        let data: Vec<u8> = (0..512 * 1024).map(|i| (i % 256) as u8).collect();
        ctrl.execute(&NvmeCommand::write(0, 1, 0, 128), Some(&data));
        let mut conn = TargetConnection::new(
            TargetConfig {
                read_chunk: 128 * 1024,
                ..TargetConfig::default()
            },
            None,
        );
        handshake(&mut conn, &mut ctrl, 0);
        let frames = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::read(3, 1, 0, 128),
                    data: None,
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        // 512K / 128K = 4 data PDUs + 1 response.
        assert_eq!(frames.len(), 5);
        let mut reassembled = vec![0u8; 512 * 1024];
        for f in &frames[..4] {
            match Pdu::decode(f.clone()).unwrap() {
                Pdu::C2HData(d) => {
                    let DataRef::Inline(b) = d.data else {
                        panic!("expected inline")
                    };
                    reassembled[d.offset as usize..d.offset as usize + b.len()].copy_from_slice(&b);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(reassembled, data);
    }

    #[test]
    fn shm_write_and_read_use_slot_references() {
        use crate::payload::MailboxChannel;
        let (client_ch, target_ch) = MailboxChannel::pair(8);
        let mut ctrl = controller();
        let mut conn = TargetConnection::new(TargetConfig::default(), Some(target_ch));
        let resp = handshake(&mut conn, &mut ctrl, AF_CAP_SHM | AF_CAP_SHM_INCAPSULE);
        assert!(resp.af_caps & AF_CAP_SHM != 0);
        assert!(conn.shm_active());

        // Write via slot reference (in-capsule style, any size: §4.4.2).
        let data = vec![0xc3u8; 128 * 1024];
        let (slot, len) = client_ch.publish(&data).unwrap();
        let frames = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::write(5, 1, 8, 32),
                    data: Some(DataRef::ShmSlot { slot, len }),
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        assert_eq!(frames.len(), 1); // straight to completion: no R2T
        match Pdu::decode(frames[0].clone()).unwrap() {
            Pdu::CapsuleResp(r) => assert!(r.completion.status.is_ok()),
            other => panic!("{other:?}"),
        }

        // Read comes back as a slot reference.
        let frames = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::read(6, 1, 8, 32),
                    data: None,
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        assert_eq!(frames.len(), 2);
        match Pdu::decode(frames[0].clone()).unwrap() {
            Pdu::C2HData(d) => {
                let DataRef::ShmSlot { slot, len } = d.data else {
                    panic!("expected shm ref")
                };
                let mut out = vec![0u8; len as usize];
                client_ch.consume(slot, len, &mut out).unwrap();
                assert_eq!(out, data);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_in_capsule_inline_write_rejected() {
        let mut ctrl = controller();
        let mut conn = TargetConnection::new(
            TargetConfig {
                in_capsule_max: 4096,
                ..TargetConfig::default()
            },
            None,
        );
        handshake(&mut conn, &mut ctrl, 0);
        let err = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::write(1, 1, 0, 2),
                    data: Some(DataRef::Inline(Bytes::from(vec![0u8; 8192]))),
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap_err();
        assert!(matches!(err, NvmeofError::Protocol(_)));
    }

    #[test]
    fn unknown_ttag_rejected() {
        let mut ctrl = controller();
        let mut conn = TargetConnection::new(TargetConfig::default(), None);
        handshake(&mut conn, &mut ctrl, 0);
        let err = conn
            .on_frame(
                Pdu::H2CData(DataPdu {
                    cid: 1,
                    ttag: 99,
                    offset: 0,
                    last: true,
                    data: DataRef::Inline(Bytes::from_static(b"x")),
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap_err();
        assert!(matches!(err, NvmeofError::Protocol(_)));
    }

    /// A file-backed controller wired the way every target runs it:
    /// shared, so barriers park on the store's sync worker.
    fn shared_file_controller() -> (oaf_store::vfs::SharedMemVfs, Controller) {
        let vfs = oaf_store::vfs::SharedMemVfs::new();
        let disk =
            oaf_store::FileDisk::create_on(Box::new(vfs.clone()), 4096, 64, 256 * 1024).unwrap();
        let mut ctrl = Controller::new();
        ctrl.add_namespace(Namespace::with_file(1, disk));
        (vfs, ctrl.share())
    }

    fn release_parked(conn: &mut TargetConnection, ctrl: &Controller, out: &mut Vec<Pdu>) -> usize {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let n = conn.poll_parked(ctrl, out);
            if n > 0 {
                return n;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "parked barrier never released"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn barrier_parks_then_releases() {
        let (vfs, mut ctrl) = shared_file_controller();
        let mut conn = TargetConnection::new(TargetConfig::default(), None);
        handshake(&mut conn, &mut ctrl, 0);
        vfs.hold_syncs(true);
        // The FUA write executes and parks: no response capsule yet.
        let frames = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::write_fua(1, 1, 0, 1),
                    data: Some(DataRef::Inline(Bytes::from(vec![0xabu8; 4096]))),
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        assert!(frames.is_empty(), "FUA completion must park: {frames:?}");
        assert_eq!(conn.parked_barriers(), 1);
        // A read flows to completion while the sync is frozen in flight.
        let frames = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::read(2, 1, 0, 1),
                    data: None,
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        assert_eq!(frames.len(), 2, "read must not queue behind the barrier");
        let mut out = Vec::new();
        assert_eq!(conn.poll_parked(&ctrl, &mut out), 0, "ticket still pending");
        vfs.hold_syncs(false);
        assert_eq!(release_parked(&mut conn, &ctrl, &mut out), 1);
        let [Pdu::CapsuleResp(r)] = &out[..] else {
            panic!("expected the parked response, got {out:?}");
        };
        assert!(r.completion.status.is_ok());
        assert_eq!(r.completion.cid, 1);
        assert_eq!(conn.parked_barriers(), 0);
        assert_eq!(conn.metrics().barriers_parked.get(), 1);
        assert_eq!(conn.metrics().barrier_park_ns.count(), 1);
    }

    #[test]
    fn abort_of_parked_barrier_defers_to_release() {
        let (vfs, mut ctrl) = shared_file_controller();
        let mut conn = TargetConnection::new(TargetConfig::default(), None);
        handshake(&mut conn, &mut ctrl, 0);
        vfs.hold_syncs(true);
        let frames = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::write_fua(7, 1, 3, 1),
                    data: Some(DataRef::Inline(Bytes::from(vec![0x11u8; 4096]))),
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        assert!(frames.is_empty());
        // The abort races the in-flight sync: the ack is owed only once
        // the barrier resolves (answering not-applied now would invite a
        // double-applying resubmission).
        let frames = conn
            .on_frame(
                Pdu::Abort(crate::pdu::Abort { cid: 7, gseq: 0 }).encode(),
                &mut ctrl,
            )
            .unwrap();
        assert!(frames.is_empty(), "parked abort must defer: {frames:?}");
        vfs.hold_syncs(false);
        let mut out = Vec::new();
        release_parked(&mut conn, &ctrl, &mut out);
        let [Pdu::CapsuleResp(r), Pdu::AbortAck(ack)] = &out[..] else {
            panic!("expected response + deferred ack, got {out:?}");
        };
        assert!(r.completion.status.is_ok());
        assert!(ack.applied, "the parked command executed");
        assert_eq!(ack.cid, 7);
        assert_eq!(conn.metrics().aborts_handled.get(), 1);
    }

    #[test]
    fn failed_sync_releases_parked_barrier_as_error() {
        let (vfs, mut ctrl) = shared_file_controller();
        let mut conn = TargetConnection::new(TargetConfig::default(), None);
        handshake(&mut conn, &mut ctrl, 0);
        vfs.set_fail_sync(true);
        let frames = conn
            .on_frame(
                Pdu::CapsuleCmd(CapsuleCmd {
                    cmd: NvmeCommand::write_fua(4, 1, 0, 1),
                    data: Some(DataRef::Inline(Bytes::from(vec![0x22u8; 4096]))),
                })
                .encode(),
                &mut ctrl,
            )
            .unwrap();
        assert!(frames.is_empty(), "parks before the sync verdict lands");
        let mut out = Vec::new();
        release_parked(&mut conn, &ctrl, &mut out);
        let [Pdu::CapsuleResp(r)] = &out[..] else {
            panic!("{out:?}");
        };
        assert_eq!(
            r.completion.status,
            Status::InternalError,
            "a failed fdatasync must fail exactly the parked barrier"
        );
        assert_eq!(conn.metrics().errors.get(), 1);
    }

    #[test]
    fn term_req_terminates() {
        let mut ctrl = controller();
        let mut conn = TargetConnection::new(TargetConfig::default(), None);
        handshake(&mut conn, &mut ctrl, 0);
        conn.on_frame(
            Pdu::TermReq(crate::pdu::TermReq { reason: 0 }).encode(),
            &mut ctrl,
        )
        .unwrap();
        assert!(conn.terminated());
    }
}
