//! The recovery protocol as a pure, deterministic state machine.
//!
//! Everything the fabric does to survive a hostile schedule — per-command
//! deadlines with exponential backoff, the free-retry vs write-class
//! abort round-trip split, the retired-cid ring, held completions that
//! overtook their own data, keep-alive probing and peer-death grace, the
//! mid-flight shm→TCP degrade handshake — is *decided* here, with time
//! and I/O injected. The real reactors ([`crate::initiator`],
//! [`crate::target`]) feed events in and execute the returned
//! [`Action`]s; the `oaf-mc` model checker drives the very same code
//! through every interleaving of a small configuration. One decision
//! core, two harnesses: what the checker proves is what production runs.
//!
//! Two design rules keep the core checkable *and* fast enough for the
//! data plane:
//!
//! * **No side effects.** Methods only mutate `self` and append to a
//!   caller-owned `Vec<Action>`; sending, buffer management, telemetry
//!   and slot reclamation stay in the shells. Steady state allocates
//!   nothing (the command map reuses its capacity, the action and sweep
//!   scratch vectors are caller-retained).
//! * **Injected time.** All clocks are [`Nanos`] since an arbitrary
//!   connection epoch. The shells feed `Instant`-derived values, the
//!   checker feeds a model clock — the decisions cannot tell.
//!
//! Determinism note: iteration over the internal command map is
//! unordered, so every multi-command pass (deadline sweep, degrade
//! replay) collects cids and sorts them before acting. The action
//! stream is therefore a pure function of the event/time stream.
//!
//! ## Barrier deadlines
//!
//! A barrier-class command (Flush, or any FUA-flagged mutation) waits
//! for a device `fdatasync`, which can take tens of milliseconds. The
//! target runs that sync on its store's sync worker and parks only the
//! barrier's own completion, so the connection never goes quiet over
//! it: reads and plain writes keep completing, keep-alives keep being
//! answered. Every deadline and the keep-alive timer therefore run on
//! live time, and a barrier-class command's *own* deadline is padded by
//! [`RecoveryConfig::barrier_grace`] so a slow-but-healthy sync does not
//! retry while a genuinely lost Flush still times out.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::nvme::command::Opcode;
use crate::nvme::completion::NvmeCompletion;

/// Nanoseconds since the connection epoch — the core's only notion of
/// time. The initiator shell derives it from a pinned `Instant`; the
/// model checker advances it symbolically.
pub type Nanos = u64;

/// How many recently-retired wire cids (initiator) or resolved
/// cids/ttags (target) are remembered for stale-frame tolerance and
/// abort answering. Fixed-size rings: no heap, far above any sane
/// queue depth.
pub const RETIRED_RING: usize = 256;

/// Keep-alive timing in core units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeepAliveNanos {
    /// Quiet time after which a heartbeat is sent (and re-sent).
    pub interval: Nanos,
    /// Total silence after which the peer is declared dead.
    pub grace: Nanos,
}

/// Tuning for the recovery core, mirrored from
/// [`crate::initiator::InitiatorOptions`] by the shell (durations
/// lowered to [`Nanos`]).
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Per-command deadline; `None` disables deadline bookkeeping.
    pub cmd_deadline: Option<Nanos>,
    /// Retry budget per command once deadlines are enabled.
    pub max_retries: u32,
    /// Base of the exponential retry backoff.
    pub retry_backoff: Nanos,
    /// Keep-alive probing; `None` disables peer-death detection.
    pub keepalive: Option<KeepAliveNanos>,
    /// Extra deadline allowance for a barrier-class command, covering
    /// the device sync it waits for.
    pub barrier_grace: Nanos,
    /// Re-introduces the PR 4 held-completion bug (completions released
    /// before their data) so the model checker's mutation leg can prove
    /// it finds that class. Runtime-selectable and default-off so
    /// correct and mutated protocols coexist in one feature-enabled
    /// binary.
    #[cfg(feature = "mc-mutations")]
    pub mutate_deliver_early: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            cmd_deadline: None,
            max_retries: 3,
            retry_backoff: 2_000_000,
            keepalive: None,
            barrier_grace: 250_000_000,
            #[cfg(feature = "mc-mutations")]
            mutate_deliver_early: false,
        }
    }
}

/// What payload bytes a command still owes the caller before its
/// success completion may be delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataNeed {
    /// No controller→host data expected (writes, flush, trim…).
    None,
    /// Exactly this many contiguous bytes from offset 0 (buffered
    /// reads).
    Bytes(u32),
    /// Any non-empty arrival satisfies it (borrowed reads that park a
    /// slot reference, Identify's variable-size capsule).
    Any,
}

/// How a controller→host data frame landed, as reported by the shell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataArrival {
    /// An inline (or consumed-shm) chunk at `offset` of `len` bytes.
    /// Chunks landing past the contiguous watermark do not advance it.
    Chunk {
        /// Byte offset within the command's transfer.
        offset: u32,
        /// Chunk length in bytes.
        len: u32,
    },
    /// The transfer is wholly satisfied (a parked borrowed-read slot
    /// reference, or an Identify/Flush inline capsule).
    All,
}

/// A decision the shell (or model harness) must carry out. Emitted in
/// order; the stream is deterministic for a given event/time stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Deliver `completion` for the command tracked under `wire_cid`
    /// (the cid is already retired in the core; the shell settles
    /// buffers/telemetry and reports under its user cid).
    Complete {
        /// Wire cid of the resolved attempt.
        wire_cid: u16,
        /// The completion to deliver.
        completion: NvmeCompletion,
    },
    /// Re-send the command previously tracked under `old_cid` under the
    /// fresh `new_cid`/`gseq` (payload replayed from the shell's
    /// retained clone; transfer state reset).
    Resubmit {
        /// The retired previous wire cid.
        old_cid: u16,
        /// Fresh wire cid for the new attempt.
        new_cid: u16,
        /// Fresh generation tag for the new attempt.
        gseq: u32,
    },
    /// Send an Abort for the write-class command `cid` (round-trip
    /// before any resubmission so a retry can never double-apply).
    SendAbort {
        /// Wire cid to abort.
        cid: u16,
        /// Generation tag of the aborted attempt.
        gseq: u32,
    },
    /// The command's retry budget ran out; surface it as timed out.
    GiveUp {
        /// Wire cid of the abandoned attempt (already retired here).
        wire_cid: u16,
    },
    /// Send a keep-alive probe. `missed_previous` is true when the
    /// prior probe was never acknowledged.
    SendKeepAlive {
        /// Heartbeat sequence number.
        seq: u64,
        /// The previous probe went unanswered.
        missed_previous: bool,
    },
    /// Keep-alive grace expired: the connection is unusable.
    PeerDead,
}

/// Per-command recovery bookkeeping (buffers and payloads stay in the
/// shell; this is only what decisions need).
#[derive(Clone, Debug)]
struct CmdRecovery {
    opcode: Opcode,
    /// Barrier-class (Flush / FUA mutation): its deadline is padded by
    /// `barrier_grace`.
    barrier: bool,
    /// The shell retained a replayable payload clone.
    replayable: bool,
    /// A shared-memory slot is published for this attempt (degrade
    /// replays these).
    published: bool,
    /// Generation tag of the current attempt.
    gseq: u32,
    deadline: Option<Nanos>,
    attempts: u32,
    awaiting_abort: bool,
    need: DataNeed,
    /// Contiguous-prefix watermark of arrived payload bytes (1 marks an
    /// `Any` need satisfied).
    got: u32,
    /// A success completion that overtook its data, held until the last
    /// byte lands.
    held: Option<NvmeCompletion>,
}

impl CmdRecovery {
    fn data_ready(&self) -> bool {
        match self.need {
            DataNeed::None => true,
            DataNeed::Any => self.got > 0,
            DataNeed::Bytes(n) => self.got >= n,
        }
    }

    fn can_replay(&self) -> bool {
        self.replayable || self.opcode.replayable_without_payload() || self.opcode.retries_freely()
    }
}

/// The initiator half of the recovery protocol: cid/generation
/// allocation, deadlines and retries, abort round-trips, held
/// completions, keep-alive, degrade replay.
#[derive(Clone, Debug)]
pub struct InitiatorRecovery {
    cfg: RecoveryConfig,
    cmds: HashMap<u16, CmdRecovery>,
    next_cid: u16,
    next_gseq: u32,
    /// Recently-retired `(wire cid, gseq)` pairs (cid 0 = empty slot;
    /// cid 0 is never allocated).
    retired: [(u16, u32); RETIRED_RING],
    retired_at: usize,
    /// Earliest pending deadline, tracked as a scalar so the steady
    /// state pays one comparison per poll.
    next_deadline: Option<Nanos>,
    /// Reusable scratch for the (cold) deadline sweep and the degrade
    /// replay collection.
    sweep_scratch: Vec<u16>,
    /// Keep-alive bookkeeping.
    last_rx: Nanos,
    last_ka_tx: Nanos,
    ka_seq: u64,
    ka_outstanding: bool,
    degraded: bool,
}

impl InitiatorRecovery {
    /// A fresh core at connection epoch (`now` = 0 is conventional for
    /// the model checker; shells pass the handshake completion time).
    pub fn new(cfg: RecoveryConfig, now: Nanos) -> Self {
        InitiatorRecovery {
            cfg,
            cmds: HashMap::new(),
            next_cid: 1,
            next_gseq: 1,
            retired: [(0, 0); RETIRED_RING],
            retired_at: 0,
            next_deadline: None,
            // Pre-sized so the first genuine expiry (a cold path that
            // may first fire long after warm-up) stays allocation-free.
            sweep_scratch: Vec::with_capacity(64),
            last_rx: now,
            last_ka_tx: now,
            ka_seq: 0,
            ka_outstanding: false,
            degraded: false,
        }
    }

    /// Commands in flight (wire cids tracked).
    pub fn inflight(&self) -> usize {
        self.cmds.len()
    }

    /// Nothing in flight: the connection can quiesce.
    pub fn quiesced(&self) -> bool {
        self.cmds.is_empty()
    }

    /// The shm payload path has been abandoned mid-flight.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Whether `cid` is in the retired ring (late frames for it are
    /// stale, not protocol violations).
    pub fn is_retired_cid(&self, cid: u16) -> bool {
        self.retired.iter().any(|&(c, _)| c == cid)
    }

    fn retire(&mut self, cid: u16, gseq: u32) {
        self.retired[self.retired_at] = (cid, gseq);
        self.retired_at = (self.retired_at + 1) % RETIRED_RING;
    }

    /// Allocates a wire cid: linear probe around the u16 space, skipping
    /// cids that are in flight *or still in the retired ring* — a
    /// reused cid must never be simultaneously live and
    /// recently-retired, or its fresh frames would race the stale-frame
    /// tolerance.
    fn alloc_cid(&mut self) -> u16 {
        loop {
            let cid = self.next_cid;
            self.next_cid = self.next_cid.wrapping_add(1).max(1);
            if !self.cmds.contains_key(&cid) && !self.is_retired_cid(cid) {
                return cid;
            }
        }
    }

    /// Extra deadline allowance for a barrier-class command.
    fn barrier_pad(&self, barrier: bool) -> Nanos {
        if barrier {
            self.cfg.barrier_grace
        } else {
            0
        }
    }

    fn arm_deadline(&mut self, now: Nanos, attempts: u32, pad: Nanos) -> Option<Nanos> {
        let base = self.cfg.cmd_deadline?;
        let backoff = self.cfg.retry_backoff.saturating_mul(1 << attempts.min(6));
        let deadline = now + base + backoff + pad;
        self.next_deadline = Some(match self.next_deadline {
            Some(d) if d <= deadline => d,
            _ => deadline,
        });
        Some(deadline)
    }

    /// Tracks a new command: allocates its wire cid and generation tag
    /// and arms its deadline (padded if it is barrier-class). Returns
    /// `(wire_cid, gseq)` for the shell to stamp into the outgoing
    /// capsule.
    pub fn begin(
        &mut self,
        opcode: Opcode,
        fua: bool,
        need: DataNeed,
        replayable: bool,
        now: Nanos,
    ) -> (u16, u32) {
        let cid = self.alloc_cid();
        let gseq = self.next_gseq;
        self.next_gseq = self.next_gseq.wrapping_add(1);
        let barrier = opcode == Opcode::Flush || (fua && opcode.mutates());
        let pad = self.barrier_pad(barrier);
        let deadline = self.arm_deadline(now, 0, pad);
        self.cmds.insert(
            cid,
            CmdRecovery {
                opcode,
                barrier,
                replayable,
                published: false,
                gseq,
                deadline,
                attempts: 0,
                awaiting_abort: false,
                need,
                got: 0,
                held: None,
            },
        );
        (cid, gseq)
    }

    /// Marks the attempt's payload as published in a shared-memory slot
    /// (degrade will replay it).
    pub fn mark_published(&mut self, cid: u16) {
        if let Some(c) = self.cmds.get_mut(&cid) {
            c.published = true;
        }
    }

    /// Marks the command as replayable (the shell retained a payload
    /// clone after tracking it).
    pub fn mark_replayable(&mut self, cid: u16) {
        if let Some(c) = self.cmds.get_mut(&cid) {
            c.replayable = true;
        }
    }

    /// Removes and retires a command (resolution of any kind).
    fn remove(&mut self, cid: u16) -> Option<CmdRecovery> {
        let cmd = self.cmds.remove(&cid)?;
        self.retire(cid, cmd.gseq);
        Some(cmd)
    }

    /// Any decoded frame proves the peer alive.
    pub fn on_rx(&mut self, now: Nanos) {
        if self.cfg.keepalive.is_some() {
            self.last_rx = now;
        }
    }

    /// A keep-alive ack resolved the outstanding probe.
    pub fn on_keepalive_ack(&mut self) {
        self.ka_outstanding = false;
    }

    /// Controller→host payload progress for `cid`. Releases a held
    /// completion once the transfer is whole.
    pub fn on_data(&mut self, cid: u16, arrival: DataArrival, out: &mut Vec<Action>) {
        let Some(cmd) = self.cmds.get_mut(&cid) else {
            return;
        };
        match arrival {
            DataArrival::Chunk { offset, len } => {
                if offset <= cmd.got {
                    cmd.got = cmd.got.max(offset.saturating_add(len));
                }
            }
            DataArrival::All => {
                cmd.got = match cmd.need {
                    DataNeed::Bytes(n) => n.max(1),
                    _ => cmd.got.max(1),
                };
            }
        }
        if cmd.held.is_some() && cmd.data_ready() {
            let completion = cmd.held.take().expect("checked above");
            self.complete(cid, completion, out);
        }
    }

    fn complete(&mut self, cid: u16, completion: NvmeCompletion, out: &mut Vec<Action>) {
        if self.remove(cid).is_some() {
            out.push(Action::Complete {
                wire_cid: cid,
                completion,
            });
        }
    }

    /// A response capsule for `cid` arrived. A success completion that
    /// overtook its own data (a reordering fabric can do that) is held
    /// until the last byte lands — completing now would hand back a
    /// stale buffer. Returns `false` for stale/unknown cids so the
    /// shell can count them.
    pub fn on_completion(
        &mut self,
        cid: u16,
        completion: NvmeCompletion,
        out: &mut Vec<Action>,
    ) -> bool {
        let Some(cmd) = self.cmds.get_mut(&cid) else {
            return false;
        };
        #[allow(unused_mut)]
        let mut hold = completion.status.is_ok() && !cmd.data_ready();
        #[cfg(feature = "mc-mutations")]
        if self.cfg.mutate_deliver_early {
            hold = false;
        }
        if hold {
            cmd.held = Some(completion);
            return true;
        }
        // A completion that raced an in-flight abort resolves the
        // command just as well — the late AbortAck is dropped as stale.
        self.complete(cid, completion, out);
        true
    }

    /// An AbortAck for `cid` arrived. Returns `false` when it is stale
    /// (unknown cid, or no abort round-trip outstanding).
    pub fn on_abort_ack(
        &mut self,
        cid: u16,
        applied: bool,
        completion: NvmeCompletion,
        now: Nanos,
        out: &mut Vec<Action>,
    ) -> bool {
        let Some(cmd) = self.cmds.get(&cid) else {
            return false;
        };
        if !cmd.awaiting_abort {
            return false;
        }
        if applied {
            // The original landed before (or despite) the abort:
            // complete with the status the target kept.
            self.complete(cid, completion, out);
        } else if cmd.can_replay() {
            // Never applied, so a resubmission cannot double-apply.
            self.resubmit(cid, now, out);
        } else {
            // Zero-copy published writes retain no payload: un-replayable.
            self.give_up(cid, out);
        }
        true
    }

    /// The peer (or the local payload path) initiated shm degradation.
    /// Returns `true` the first time, with replay actions for every
    /// attempt whose payload was parked in the region; idempotent
    /// afterwards.
    pub fn degrade(&mut self, now: Nanos, out: &mut Vec<Action>) -> bool {
        if self.degraded {
            return false;
        }
        self.degraded = true;
        let mut stranded = std::mem::take(&mut self.sweep_scratch);
        stranded.clear();
        stranded.extend(
            self.cmds
                .iter()
                .filter(|(_, c)| c.published)
                .map(|(&cid, _)| cid),
        );
        // Map iteration is unordered; the action stream must not be.
        stranded.sort_unstable();
        for &cid in &stranded {
            self.retry(cid, now, out);
        }
        stranded.clear();
        self.sweep_scratch = stranded;
        true
    }

    /// One retry step for `cid`: freely-retryable opcodes resubmit under
    /// a fresh cid; write-class commands first run the abort round-trip
    /// so a retry can never double-apply. Exhausted budgets give up.
    pub fn retry(&mut self, cid: u16, now: Nanos, out: &mut Vec<Action>) {
        let Some(cmd) = self.cmds.get(&cid) else {
            return;
        };
        if cmd.attempts >= self.cfg.max_retries {
            self.give_up(cid, out);
            return;
        }
        if cmd.opcode.retries_freely() {
            self.resubmit(cid, now, out);
        } else {
            let cmd = self.cmds.get_mut(&cid).expect("checked above");
            cmd.attempts += 1;
            cmd.awaiting_abort = true;
            let attempts = cmd.attempts;
            let gseq = cmd.gseq;
            let barrier = cmd.barrier;
            let pad = self.barrier_pad(barrier);
            let deadline = self.arm_deadline(now, attempts, pad);
            self.cmds.get_mut(&cid).expect("still present").deadline = deadline;
            out.push(Action::SendAbort { cid, gseq });
        }
    }

    fn resubmit(&mut self, cid: u16, now: Nanos, out: &mut Vec<Action>) {
        let Some(mut cmd) = self.cmds.remove(&cid) else {
            return;
        };
        self.retire(cid, cmd.gseq);
        let new_cid = self.alloc_cid();
        let gseq = self.next_gseq;
        self.next_gseq = self.next_gseq.wrapping_add(1);
        if !cmd.awaiting_abort {
            // An abort round-trip already charged this retry round.
            cmd.attempts += 1;
        }
        cmd.awaiting_abort = false;
        cmd.gseq = gseq;
        // The fresh attempt refills from byte zero; a completion held
        // for the old attempt vouches for nothing now. The slot the old
        // attempt published is reclaimed by the shell.
        cmd.got = 0;
        cmd.held = None;
        cmd.published = false;
        let pad = self.barrier_pad(cmd.barrier);
        cmd.deadline = self.arm_deadline(now, cmd.attempts, pad);
        self.cmds.insert(new_cid, cmd);
        out.push(Action::Resubmit {
            old_cid: cid,
            new_cid,
            gseq,
        });
    }

    fn give_up(&mut self, cid: u16, out: &mut Vec<Action>) {
        if self.remove(cid).is_some() {
            out.push(Action::GiveUp { wire_cid: cid });
        }
    }

    /// Deadline + keep-alive pass. Cheap when nothing expired: two
    /// comparisons.
    pub fn tick(&mut self, now: Nanos, out: &mut Vec<Action>) {
        if self.cfg.cmd_deadline.is_some() {
            self.sweep_deadlines(now, out);
        }
        if self.cfg.keepalive.is_some() {
            self.check_keepalive(now, out);
        }
    }

    fn sweep_deadlines(&mut self, now: Nanos, out: &mut Vec<Action>) {
        if self.next_deadline.is_none_or(|d| now < d) {
            return;
        }
        // Cold path: something actually expired (or the watermark is
        // stale after a completion). Sweep, collect, recompute.
        self.next_deadline = None;
        let mut expired = std::mem::take(&mut self.sweep_scratch);
        expired.clear();
        for (&cid, cmd) in self.cmds.iter() {
            match cmd.deadline {
                Some(d) if now >= d => expired.push(cid),
                Some(d) => {
                    self.next_deadline = Some(match self.next_deadline {
                        Some(cur) if cur <= d => cur,
                        _ => d,
                    });
                }
                None => {}
            }
        }
        expired.sort_unstable();
        for &cid in &expired {
            self.retry(cid, now, out);
        }
        expired.clear();
        self.sweep_scratch = expired;
    }

    fn check_keepalive(&mut self, now: Nanos, out: &mut Vec<Action>) {
        let ka = self.cfg.keepalive.expect("caller checked");
        let quiet = now.saturating_sub(self.last_rx);
        if quiet >= ka.grace {
            out.push(Action::PeerDead);
            return;
        }
        if quiet >= ka.interval && now.saturating_sub(self.last_ka_tx) >= ka.interval {
            self.ka_seq += 1;
            let missed_previous = self.ka_outstanding;
            self.last_ka_tx = now;
            self.ka_outstanding = true;
            out.push(Action::SendKeepAlive {
                seq: self.ka_seq,
                missed_previous,
            });
        }
    }

    /// Time of the next armed timer (deadline watermark or keep-alive
    /// probe/grace), if any — how the model checker knows where to
    /// advance its clock. Returns an upper bound: any event arriving
    /// earlier re-schedules.
    pub fn next_timer(&self) -> Option<Nanos> {
        let mut target: Option<Nanos> = self.next_deadline;
        if let Some(ka) = self.cfg.keepalive {
            let probe = self
                .last_rx
                .max(self.last_ka_tx)
                .saturating_add(ka.interval);
            let death = self.last_rx.saturating_add(ka.grace);
            let t = probe.min(death);
            target = Some(match target {
                Some(cur) if cur <= t => cur,
                _ => t,
            });
        }
        target
    }

    /// Hashes the canonicalized core state (times re-based to `now`, map
    /// iterated in sorted order) — the model checker's visited-set key.
    pub fn fingerprint<H: Hasher>(&self, now: Nanos, h: &mut H) {
        let mut cids: Vec<u16> = self.cmds.keys().copied().collect();
        cids.sort_unstable();
        cids.len().hash(h);
        for cid in cids {
            let c = &self.cmds[&cid];
            cid.hash(h);
            (c.opcode as u8).hash(h);
            c.barrier.hash(h);
            c.replayable.hash(h);
            c.published.hash(h);
            c.gseq.hash(h);
            c.deadline.map(|d| d.wrapping_sub(now)).hash(h);
            c.attempts.hash(h);
            c.awaiting_abort.hash(h);
            c.need.hash(h);
            c.got.hash(h);
            match c.held {
                Some(comp) => (1u8, comp.cid, comp.status as u16).hash(h),
                None => 0u8.hash(h),
            }
        }
        self.next_cid.hash(h);
        self.next_gseq.hash(h);
        self.retired.hash(h);
        self.retired_at.hash(h);
        self.next_deadline.map(|d| d.wrapping_sub(now)).hash(h);
        now.wrapping_sub(self.last_rx).hash(h);
        now.wrapping_sub(self.last_ka_tx).hash(h);
        self.ka_seq.hash(h);
        self.ka_outstanding.hash(h);
        self.degraded.hash(h);
    }
}

/// Outcome of the target's abort decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortDecision {
    /// The command already executed; ack `applied = true` with the
    /// completion the device produced.
    Applied(NvmeCompletion),
    /// Not executed (and now remembered as aborted): ack
    /// `applied = false`; late duplicates of the original are dropped.
    NotApplied,
}

/// The target half of the recovery protocol: the executed-completion
/// ring that answers racing aborts, the aborted-cid ring that drops
/// late duplicates, and the retired-ttag ring that tolerates duplicate
/// H2C chunks. All matches are on `(cid, gseq)` so a wire cid reused
/// after ring wraparound can never be confused with an old incarnation.
#[derive(Clone, Debug)]
pub struct TargetRecovery {
    /// Recently-executed commands and their completions (cid 0 = empty).
    completed: [(u16, u32, NvmeCompletion); RETIRED_RING],
    completed_at: usize,
    /// `(cid, gseq)` pairs answered `applied = false` to an Abort.
    aborted: [(u16, u32); RETIRED_RING],
    aborted_at: usize,
    /// Ttags whose staging buffer was resolved (completed or aborted).
    retired_ttags: [u16; RETIRED_RING],
    retired_ttags_at: usize,
}

impl Default for TargetRecovery {
    fn default() -> Self {
        Self::new()
    }
}

impl TargetRecovery {
    /// A fresh, empty memory.
    pub fn new() -> Self {
        TargetRecovery {
            completed: [(0, 0, NvmeCompletion::ok(0)); RETIRED_RING],
            completed_at: 0,
            aborted: [(0, 0); RETIRED_RING],
            aborted_at: 0,
            retired_ttags: [0u16; RETIRED_RING],
            retired_ttags_at: 0,
        }
    }

    /// Remembers an executed command so a racing Abort is answered
    /// `applied = true` instead of letting the client double-apply.
    pub fn on_executed(&mut self, cid: u16, gseq: u32, completion: NvmeCompletion) {
        self.completed[self.completed_at] = (cid, gseq, completion);
        self.completed_at = (self.completed_at + 1) % RETIRED_RING;
    }

    /// Decides an Abort for `(cid, gseq)`, remembering a `NotApplied`
    /// answer so late duplicates of the original command are dropped.
    pub fn on_abort(&mut self, cid: u16, gseq: u32) -> AbortDecision {
        if let Some(&(_, _, comp)) = self
            .completed
            .iter()
            .find(|&&(c, g, _)| c == cid && g == gseq)
        {
            return AbortDecision::Applied(comp);
        }
        self.aborted[self.aborted_at] = (cid, gseq);
        self.aborted_at = (self.aborted_at + 1) % RETIRED_RING;
        AbortDecision::NotApplied
    }

    /// Whether an arriving command is a late duplicate of an attempt we
    /// already answered an abort for (the client has resubmitted it
    /// under a fresh cid; applying this copy would double-apply).
    pub fn should_drop_command(&self, cid: u16, gseq: u32) -> bool {
        self.aborted.iter().any(|&(c, g)| c == cid && g == gseq)
    }

    /// Remembers a resolved staging ttag.
    pub fn retire_ttag(&mut self, ttag: u16) {
        self.retired_ttags[self.retired_ttags_at] = ttag;
        self.retired_ttags_at = (self.retired_ttags_at + 1) % RETIRED_RING;
    }

    /// Whether a late H2C chunk's ttag belongs to a resolved staging
    /// buffer (drop, don't error).
    pub fn is_retired_ttag(&self, ttag: u16) -> bool {
        self.retired_ttags.contains(&ttag)
    }

    /// Hashes the rings — the model checker's visited-set key half.
    pub fn fingerprint<H: Hasher>(&self, h: &mut H) {
        for &(c, g, comp) in &self.completed {
            (c, g, comp.cid, comp.status as u16).hash(h);
        }
        self.completed_at.hash(h);
        self.aborted.hash(h);
        self.aborted_at.hash(h);
        self.retired_ttags.hash(h);
        self.retired_ttags_at.hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvme::completion::Status;

    const MS: Nanos = 1_000_000;

    // The struct update covers the cfg-gated `mutate_deliver_early`
    // knob, present only under the `mc-mutations` feature.
    #[allow(clippy::needless_update)]
    fn cfg() -> RecoveryConfig {
        RecoveryConfig {
            cmd_deadline: Some(10 * MS),
            max_retries: 3,
            retry_backoff: 2 * MS,
            keepalive: Some(KeepAliveNanos {
                interval: 50 * MS,
                grace: 150 * MS,
            }),
            barrier_grace: 100 * MS,
            ..RecoveryConfig::default()
        }
    }

    /// `cfg()` without keep-alive, for tests that pin the exact action
    /// stream of the deadline path.
    fn cfg_no_ka() -> RecoveryConfig {
        RecoveryConfig {
            keepalive: None,
            ..cfg()
        }
    }

    #[test]
    fn read_retries_freely_then_times_out() {
        let mut core = InitiatorRecovery::new(cfg_no_ka(), 0);
        let mut out = Vec::new();
        let (cid, _) = core.begin(Opcode::Read, false, DataNeed::Bytes(4096), false, 0);
        let mut now = 0;
        let mut wire = cid;
        for _ in 0..3 {
            now += 20 * MS;
            core.tick(now, &mut out);
            let [Action::Resubmit {
                old_cid, new_cid, ..
            }] = out[..]
            else {
                panic!("expected resubmit, got {out:?}");
            };
            assert_eq!(old_cid, wire);
            assert!(core.is_retired_cid(old_cid));
            wire = new_cid;
            out.clear();
        }
        now += 100 * MS;
        core.tick(now, &mut out);
        assert_eq!(out, [Action::GiveUp { wire_cid: wire }]);
        assert!(core.quiesced());
    }

    #[test]
    fn write_runs_abort_round_trip_before_resubmitting() {
        let mut core = InitiatorRecovery::new(cfg(), 0);
        let mut out = Vec::new();
        let (cid, gseq) = core.begin(Opcode::Write, false, DataNeed::None, true, 0);
        core.tick(20 * MS, &mut out);
        assert_eq!(out, [Action::SendAbort { cid, gseq }]);
        out.clear();
        // Not applied → resubmit under a fresh cid and generation.
        assert!(core.on_abort_ack(
            cid,
            false,
            NvmeCompletion::error(cid, Status::InternalError),
            21 * MS,
            &mut out
        ));
        let [Action::Resubmit {
            old_cid,
            new_cid,
            gseq: g2,
        }] = out[..]
        else {
            panic!("expected resubmit, got {out:?}");
        };
        assert_eq!(old_cid, cid);
        assert_ne!(g2, gseq);
        out.clear();
        // Completion for the fresh attempt resolves it.
        assert!(core.on_completion(new_cid, NvmeCompletion::ok(new_cid), &mut out));
        assert_eq!(out.len(), 1);
        assert!(core.quiesced());
    }

    #[test]
    fn abort_ack_applied_completes_with_kept_status() {
        let mut core = InitiatorRecovery::new(cfg(), 0);
        let mut out = Vec::new();
        let (cid, _) = core.begin(Opcode::Write, false, DataNeed::None, true, 0);
        core.tick(20 * MS, &mut out);
        out.clear();
        let comp = NvmeCompletion::ok(cid);
        assert!(core.on_abort_ack(cid, true, comp, 21 * MS, &mut out));
        assert_eq!(
            out,
            [Action::Complete {
                wire_cid: cid,
                completion: comp
            }]
        );
        // A duplicate ack is stale now.
        assert!(!core.on_abort_ack(cid, true, comp, 22 * MS, &mut out));
    }

    #[test]
    fn early_completion_held_until_data_lands() {
        let mut core = InitiatorRecovery::new(cfg(), 0);
        let mut out = Vec::new();
        let (cid, _) = core.begin(Opcode::Read, false, DataNeed::Bytes(8192), false, 0);
        assert!(core.on_completion(cid, NvmeCompletion::ok(cid), &mut out));
        assert!(out.is_empty(), "completion must be held before its data");
        core.on_data(
            cid,
            DataArrival::Chunk {
                offset: 0,
                len: 4096,
            },
            &mut out,
        );
        assert!(out.is_empty(), "half the transfer is not enough");
        // A chunk past the watermark does not advance it.
        core.on_data(
            cid,
            DataArrival::Chunk {
                offset: 8192,
                len: 4096,
            },
            &mut out,
        );
        assert!(out.is_empty());
        core.on_data(
            cid,
            DataArrival::Chunk {
                offset: 4096,
                len: 4096,
            },
            &mut out,
        );
        assert_eq!(out.len(), 1, "whole transfer releases the held completion");
        assert!(core.quiesced());
    }

    #[test]
    fn keepalive_probes_then_declares_death() {
        let mut core = InitiatorRecovery::new(cfg(), 0);
        let mut out = Vec::new();
        core.tick(60 * MS, &mut out);
        assert_eq!(
            out,
            [Action::SendKeepAlive {
                seq: 1,
                missed_previous: false
            }]
        );
        out.clear();
        core.tick(120 * MS, &mut out);
        assert_eq!(
            out,
            [Action::SendKeepAlive {
                seq: 2,
                missed_previous: true
            }]
        );
        out.clear();
        core.tick(160 * MS, &mut out);
        assert_eq!(out, [Action::PeerDead]);
        // Traffic resets the clock.
        let mut core = InitiatorRecovery::new(cfg(), 0);
        core.on_rx(140 * MS);
        out.clear();
        core.tick(160 * MS, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn barrier_deadline_is_padded_and_others_stay_live() {
        let mut core = InitiatorRecovery::new(cfg_no_ka(), 0);
        let mut out = Vec::new();
        // FUA write: its own deadline is padded to 10+2+100 = 112ms.
        let (w, _) = core.begin(Opcode::Write, true, DataNeed::None, true, 0);
        // Concurrent read: plain 12ms deadline on live time.
        let (r, _) = core.begin(Opcode::Read, false, DataNeed::Bytes(512), false, 0);
        core.tick(20 * MS, &mut out);
        let [Action::Resubmit {
            old_cid, new_cid, ..
        }] = out[..]
        else {
            panic!("read deadline must stay live beside a barrier, got {out:?}");
        };
        assert_eq!(old_cid, r);
        out.clear();
        // Resolve the read so later sweeps only see the barrier.
        core.on_data(
            new_cid,
            DataArrival::Chunk {
                offset: 0,
                len: 512,
            },
            &mut out,
        );
        assert!(core.on_completion(new_cid, NvmeCompletion::ok(new_cid), &mut out));
        out.clear();
        // The padded barrier deadline has not expired yet...
        core.tick(100 * MS, &mut out);
        assert!(out.is_empty(), "padded write fired early: {out:?}");
        // ...but it does expire, on live time, once the pad is spent.
        core.tick(120 * MS, &mut out);
        let [Action::SendAbort { cid, .. }] = out[..] else {
            panic!("padded write must still time out, got {out:?}");
        };
        assert_eq!(cid, w);
    }

    #[test]
    fn keepalive_stays_live_during_barrier() {
        let mut core = InitiatorRecovery::new(cfg(), 0);
        let mut out = Vec::new();
        let _ = core.begin(Opcode::Write, true, DataNeed::None, true, 0);
        // 60ms of silence mid-barrier: the core probes the peer
        // (interval 50ms) without touching the padded write deadline
        // (112ms).
        core.tick(60 * MS, &mut out);
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::SendKeepAlive { .. })),
            "keep-alive must run on live time during a barrier: {out:?}"
        );
        assert!(
            !out.iter()
                .any(|a| matches!(a, Action::SendAbort { .. } | Action::Resubmit { .. })),
            "padded barrier deadline fired early: {out:?}"
        );
        out.clear();
        // A peer silent past the grace is declared dead even while the
        // barrier is nominally outstanding.
        core.tick(200 * MS, &mut out);
        assert!(
            out.contains(&Action::PeerDead),
            "a wedged peer must be detected mid-barrier: {out:?}"
        );
    }

    #[test]
    fn degrade_replays_published_attempts_once() {
        let mut core = InitiatorRecovery::new(cfg(), 0);
        let mut out = Vec::new();
        let (w, wg) = core.begin(Opcode::Write, false, DataNeed::None, true, 0);
        core.mark_published(w);
        let (r, _) = core.begin(Opcode::Read, false, DataNeed::Bytes(4096), false, 0);
        assert!(core.degrade(MS, &mut out));
        // Only the published write replays — via its abort round-trip.
        assert_eq!(out, [Action::SendAbort { cid: w, gseq: wg }]);
        out.clear();
        assert!(!core.degrade(2 * MS, &mut out), "degrade is idempotent");
        assert!(out.is_empty());
        assert!(core.cmds.contains_key(&r));
    }

    #[test]
    fn cid_reuse_is_never_live_and_retired_at_once() {
        let mut core = InitiatorRecovery::new(cfg(), 0);
        let mut out = Vec::new();
        // Drive far past the retired-ring capacity with forced churn.
        for i in 0..(RETIRED_RING as u64 * 3) {
            let (cid, _) = core.begin(Opcode::Read, false, DataNeed::Bytes(512), false, i * MS);
            assert!(
                !core.is_retired_cid(cid),
                "alloc handed out a recently-retired cid {cid}"
            );
            assert!(core.on_completion(cid, NvmeCompletion::ok(cid), &mut out));
            out.clear();
        }
    }

    #[test]
    fn target_rings_match_on_generation_not_cid_alone() {
        let mut t = TargetRecovery::new();
        let comp = NvmeCompletion::ok(5);
        t.on_executed(5, 1, comp);
        // An abort for a *newer incarnation* of the same wire cid must
        // not be answered with the ancient completion.
        assert_eq!(t.on_abort(5, 2), AbortDecision::NotApplied);
        // The original generation still answers applied.
        assert_eq!(t.on_abort(5, 1), AbortDecision::Applied(comp));
        // Only the aborted generation's duplicates are dropped.
        assert!(t.should_drop_command(5, 2));
        assert!(!t.should_drop_command(5, 3));
    }
}
