//! Group commit: one `fdatasync` retires many durability barriers.
//!
//! Every record appended to the intent log carries a monotonic sequence
//! number, and a durability barrier (FUA write, Flush) only needs *its*
//! sequence to reach the platter. Because a single `fdatasync` makes the
//! whole file durable, any barrier whose sequence is ≤ the highest
//! sequence appended when some sync started is retired by that sync —
//! there is no reason for N concurrent barriers to issue N syncs.
//!
//! ## One pipeline
//!
//! Every barrier of a [`SharedFileDisk`](crate::disk::SharedFileDisk)
//! goes through the same three steps, whoever asks:
//!
//! - [`enrol`](GroupCommit::enrol) takes a ticket for the barrier's
//!   record sequence and wakes the sync worker — no blocking, no
//!   allocation. It is the one place a barrier is counted
//!   (`barriers_offloaded`), and a ticket some earlier sync already
//!   covered is counted coalesced right there.
//! - The worker loops on `next_sync_request` / `complete_sync`
//!   (crate-private worker rounds): each round snapshots the highest
//!   requested sequence, runs one device barrier *off every reactor
//!   thread*, and publishes either a new `durable_seq` or a `failed_seq`
//!   watermark equal to the snapshot target — so an error fails exactly
//!   the set of tickets that were parked behind that sync and nothing
//!   submitted after it. A round retiring K tickets counts one `fsync`
//!   and K − 1 coalesced barriers, so `fsyncs + fsyncs_coalesced`
//!   equals the barriers enrolled.
//! - A reactor resolves its ticket with [`poll`](GroupCommit::poll), a
//!   lock-free read of two monotonic atomics cheap enough to probe every
//!   pass; a blocking caller parks in [`wait`](GroupCommit::wait) on
//!   the retired condvar. Durability wins over failure: a ticket covered
//!   by a *later* successful sync is durable no matter what an earlier
//!   round said.
//!
//! Batch telemetry: each sync records how many tickets it retired
//! (`commit_batch`); with K concurrent writers the histogram's mass
//! sits near K while `fsyncs` grows ~1/K as fast as barriers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use oaf_ssd::ram::BlockError;

use crate::metrics::StoreMetrics;

/// Outcome of polling a submitted barrier ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStatus {
    /// The covering sync has not finished yet; poll again later.
    Pending,
    /// Every record at or below the ticket's sequence is on the platter.
    Durable,
    /// The sync covering this ticket failed; the write is journaled but
    /// not known durable. Later tickets may still succeed.
    Failed,
}

/// A parked durability barrier: the sequence number whose durability the
/// submitter is waiting on. `Copy` and allocation-free by design — the
/// reactor parks these in preallocated rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncHandle {
    seq: u64,
}

impl SyncHandle {
    /// The record sequence this ticket waits on.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Coordinator state: the durability watermarks and the worker's queue.
#[derive(Default)]
struct CommitState {
    /// Highest record sequence known durable on the platter.
    durable_seq: u64,
    /// Tickets enrolled since the worker's last snapshot (for the
    /// batch-size histogram).
    tickets: u64,
    /// Tickets the worker moved into its current sync round (their
    /// sequences all predate the round's snapshot target).
    syncing_tickets: u64,
    /// Highest sequence any ticket has asked the worker to cover.
    requested_seq: u64,
    /// Highest snapshot target a failed worker sync covered.
    failed_seq: u64,
    /// The worker has been asked to exit.
    shutdown: bool,
    /// Last worker sync error, kept for blocking waiters to surface.
    fail_msg: Option<String>,
}

/// The sync coordinator shared by every queue view of one
/// [`SharedFileDisk`](crate::disk::SharedFileDisk) and its sync worker.
#[derive(Default)]
pub struct GroupCommit {
    state: Mutex<CommitState>,
    retired: Condvar,
    /// Wakes the sync worker when new tickets arrive or shutdown is set.
    work: Condvar,
    /// Lock-free mirror of `durable_seq` for reactor-side polling.
    durable: AtomicU64,
    /// Lock-free mirror of `failed_seq` for reactor-side polling.
    failed: AtomicU64,
}

impl GroupCommit {
    /// A fresh coordinator with nothing durable.
    pub fn new() -> GroupCommit {
        GroupCommit::default()
    }

    /// Highest sequence known durable (telemetry/tests).
    pub fn durable_seq(&self) -> u64 {
        self.state.lock().expect("commit lock poisoned").durable_seq
    }

    /// Enrols a barrier ticket for `seq` and wakes the sync worker.
    /// Allocation-free. Counts the barrier exactly once — in
    /// `barriers_offloaded`, plus `fsyncs_coalesced` if an earlier sync
    /// already covered it. The returned handle is resolved with
    /// [`poll`](GroupCommit::poll) or [`wait`](GroupCommit::wait).
    pub fn enrol(&self, seq: u64, metrics: &StoreMetrics) -> SyncHandle {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        metrics.barriers_offloaded.inc();
        if guard.durable_seq >= seq {
            metrics.fsyncs_coalesced.inc();
        } else {
            guard.tickets += 1;
            guard.requested_seq = guard.requested_seq.max(seq);
            metrics
                .sync_queue_depth
                .set((guard.tickets + guard.syncing_tickets) as i64);
            self.work.notify_one();
        }
        SyncHandle { seq }
    }

    /// Lock-free status probe for an enrolled ticket. Durability is
    /// checked first: a later successful sync genuinely covered the
    /// ticket even if an earlier round failed.
    #[inline]
    pub fn poll(&self, handle: SyncHandle) -> SyncStatus {
        if self.durable.load(Ordering::Acquire) >= handle.seq {
            SyncStatus::Durable
        } else if self.failed.load(Ordering::Acquire) >= handle.seq {
            SyncStatus::Failed
        } else {
            SyncStatus::Pending
        }
    }

    /// Blocks until an enrolled ticket resolves: `Ok` once durable, the
    /// worker's error if the sync covering it failed (or the worker
    /// stopped first).
    pub fn wait(&self, handle: SyncHandle) -> Result<(), BlockError> {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        loop {
            if guard.durable_seq >= handle.seq {
                return Ok(());
            }
            if guard.failed_seq >= handle.seq || guard.shutdown {
                let msg = guard
                    .fail_msg
                    .clone()
                    .unwrap_or_else(|| "sync worker stopped".to_string());
                return Err(BlockError::Io(msg));
            }
            guard = self.retired.wait(guard).expect("commit lock poisoned");
        }
    }

    /// Asks the worker to exit; blocking waiters are woken and fail.
    pub(crate) fn shutdown_worker(&self) {
        self.state.lock().expect("commit lock poisoned").shutdown = true;
        self.work.notify_all();
        self.retired.notify_all();
    }

    /// Worker side: block until there is something to sync (or shutdown).
    /// Returns the snapshot target — the highest requested sequence at
    /// the moment the round starts. Tickets enrolled *after* this call
    /// belong to the next round.
    pub(crate) fn next_sync_request(&self) -> Option<u64> {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        loop {
            if guard.shutdown {
                return None;
            }
            let retired_hi = guard.durable_seq.max(guard.failed_seq);
            if guard.requested_seq > retired_hi {
                guard.syncing_tickets += guard.tickets;
                guard.tickets = 0;
                return Some(guard.requested_seq);
            }
            guard = self.work.wait(guard).expect("commit lock poisoned");
        }
    }

    /// Worker side: publish one round's outcome. On success the durable
    /// watermark advances to `covered` (≥ the snapshot target, since the
    /// device barrier covers everything appended when it ran). On error
    /// the failed watermark advances to exactly `target`, failing the
    /// parked set behind this round and nothing newer.
    pub(crate) fn complete_sync(
        &self,
        target: u64,
        res: Result<u64, BlockError>,
        metrics: &StoreMetrics,
    ) {
        let mut guard = self.state.lock().expect("commit lock poisoned");
        match res {
            Ok(covered) => {
                guard.durable_seq = guard.durable_seq.max(covered);
                self.durable.store(guard.durable_seq, Ordering::Release);
                metrics.commit_batch.record(guard.syncing_tickets.max(1));
                metrics
                    .fsyncs_coalesced
                    .add(guard.syncing_tickets.saturating_sub(1));
            }
            Err(e) => {
                guard.failed_seq = guard.failed_seq.max(target);
                self.failed.store(guard.failed_seq, Ordering::Release);
                guard.fail_msg = Some(e.to_string());
                if guard.requested_seq <= guard.failed_seq {
                    // Every outstanding request is covered by the failure;
                    // nothing left for a future batch to count.
                    guard.tickets = 0;
                }
            }
        }
        guard.syncing_tickets = 0;
        metrics
            .sync_queue_depth
            .set((guard.tickets + guard.syncing_tickets) as i64);
        drop(guard);
        self.retired.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn one_round_retires_every_enrolled_ticket() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        let h1 = gc.enrol(1, &m);
        let h2 = gc.enrol(2, &m);
        let h3 = gc.enrol(3, &m);
        assert_eq!(gc.poll(h1), SyncStatus::Pending);
        assert_eq!(m.sync_queue_depth.get(), 3);
        assert_eq!(m.barriers_offloaded.get(), 3);
        // Play the worker: one round covers all three tickets.
        let target = gc.next_sync_request().expect("work pending");
        assert_eq!(target, 3);
        gc.complete_sync(target, Ok(5), &m);
        for h in [h1, h2, h3] {
            assert_eq!(gc.poll(h), SyncStatus::Durable);
        }
        assert_eq!(gc.durable_seq(), 5);
        assert_eq!(m.sync_queue_depth.get(), 0);
        let batch = m.commit_batch.snapshot();
        assert_eq!((batch.count, batch.sum), (1, 3));
        assert_eq!(m.fsyncs_coalesced.get(), 2, "one sync, two riders");
    }

    #[test]
    fn covered_ticket_counts_once_and_queues_nothing() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        let h = gc.enrol(3, &m);
        let target = gc.next_sync_request().unwrap();
        gc.complete_sync(target, Ok(10), &m);
        assert_eq!(gc.poll(h), SyncStatus::Durable);
        // Seqs 4..=10 were covered by that sync: resolved on the first
        // poll, counted as a barrier and as coalesced, no new work.
        let covered = gc.enrol(10, &m);
        assert_eq!(gc.poll(covered), SyncStatus::Durable);
        gc.wait(covered).unwrap();
        assert_eq!(m.sync_queue_depth.get(), 0);
        assert_eq!(m.barriers_offloaded.get(), 2);
        assert_eq!(m.fsyncs_coalesced.get(), 1);
        assert_eq!(m.commit_batch.snapshot().count, 1);
    }

    #[test]
    fn sync_error_fails_exactly_the_parked_set() {
        let gc = GroupCommit::new();
        let m = StoreMetrics::new();
        let h1 = gc.enrol(1, &m);
        let h2 = gc.enrol(2, &m);
        let target = gc.next_sync_request().unwrap();
        gc.complete_sync(target, Err(BlockError::Io("dead".into())), &m);
        assert_eq!(gc.poll(h1), SyncStatus::Failed);
        assert_eq!(gc.poll(h2), SyncStatus::Failed);
        assert!(matches!(gc.wait(h1), Err(BlockError::Io(_))));
        // A ticket enrolled after the failure is NOT failed by it…
        let h3 = gc.enrol(3, &m);
        assert_eq!(gc.poll(h3), SyncStatus::Pending);
        // …and a later successful round makes everything durable —
        // including the earlier tickets, whose records the new device
        // barrier genuinely covered (durability wins over failure).
        let target = gc.next_sync_request().unwrap();
        assert_eq!(target, 3);
        gc.complete_sync(target, Ok(3), &m);
        assert_eq!(gc.poll(h3), SyncStatus::Durable);
        assert_eq!(gc.poll(h1), SyncStatus::Durable);
        assert_eq!(gc.durable_seq(), 3);
    }

    /// Spawns a blocking barrier for `seq` (enrol + wait), as
    /// `SharedFileDisk::write(fua)` runs it.
    fn blocking_barrier(
        gc: &Arc<GroupCommit>,
        m: &Arc<StoreMetrics>,
        seq: u64,
    ) -> std::thread::JoinHandle<Result<(), BlockError>> {
        let (gc, m) = (Arc::clone(gc), Arc::clone(m));
        std::thread::spawn(move || gc.wait(gc.enrol(seq, &m)))
    }

    #[test]
    fn blocking_barrier_waits_for_the_worker_round() {
        let gc = Arc::new(GroupCommit::new());
        let m = StoreMetrics::new();
        let waiter = blocking_barrier(&gc, &m, 7);
        // Worker side: the waiter's enrolment is what wakes this round.
        let target = gc.next_sync_request().expect("waiter enrols a ticket");
        assert_eq!(target, 7);
        gc.complete_sync(target, Ok(7), &m);
        waiter.join().unwrap().unwrap();
        assert_eq!(gc.durable_seq(), 7);
        assert_eq!(m.barriers_offloaded.get(), 1);
        assert_eq!(m.fsyncs_coalesced.get(), 0);
    }

    #[test]
    fn blocking_barrier_surfaces_worker_failure() {
        let gc = Arc::new(GroupCommit::new());
        let m = StoreMetrics::new();
        let waiter = blocking_barrier(&gc, &m, 1);
        let target = gc.next_sync_request().unwrap();
        gc.complete_sync(target, Err(BlockError::Io("dead".into())), &m);
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, BlockError::Io(_)), "got {err:?}");
        // The coordinator is not wedged: the next barrier still retires.
        let waiter = blocking_barrier(&gc, &m, 2);
        let target = gc.next_sync_request().unwrap();
        gc.complete_sync(target, Ok(2), &m);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_wakes_the_worker_loop_and_fails_waiters() {
        let gc = Arc::new(GroupCommit::new());
        let worker = {
            let gc = Arc::clone(&gc);
            std::thread::spawn(move || gc.next_sync_request())
        };
        // Give the worker a moment to park, then shut it down.
        std::thread::sleep(std::time::Duration::from_millis(10));
        gc.shutdown_worker();
        assert_eq!(worker.join().unwrap(), None);
        let m = StoreMetrics::new();
        assert!(
            gc.wait(gc.enrol(1, &m)).is_err(),
            "no worker, no durability"
        );
    }
}
