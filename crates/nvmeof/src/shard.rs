//! Thread-per-core sharded target runtime: the one target event loop.
//!
//! Every target in this crate runs here — a single connection is one
//! shard owning one connection ([`crate::target::spawn_target`]), the
//! paper's one storage service for many clients is one shard owning N,
//! and the service scales out the way NVMe itself scales: N reactors
//! ([`spawn_sharded`]), each exclusively owning
//!
//! * a disjoint set of connections (steered at accept time, never
//!   migrated),
//! * its own controller view over the one storage service
//!   ([`Controller::share`] — the multi-queue model),
//! * its own telemetry [`Registry`] (merged into the caller's registry
//!   by prefix, [`Registry::merge`]),
//!
//! so that **no lock crosses cores on the data path**. The only
//! cross-shard structure is one bounded SPSC admin mailbox per shard
//! ([`crate::spsc`]) through which the control plane delivers
//! [`ShardCommand`]s; the reactor drains it between poll passes with a
//! wait-free `pop`, never a mutex.
//!
//! [`Registry::merge`]: oaf_telemetry::Registry::merge

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::NvmeofError;
use crate::nvme::controller::Controller;
use crate::server::{ConnectionSpec, LiveConnection, Reactor};
use crate::spsc::{spsc, SpscSender};
use oaf_telemetry::{Counter, Gauge, Registry};

/// Admin commands a shard's reactor drains from its mailbox between
/// poll passes. This is the *only* way anything crosses into a running
/// shard.
pub enum ShardCommand {
    /// Adopt a fully built connection into the shard's set.
    Add(Box<LiveConnection>),
    /// Finish the current pass and exit the reactor loop.
    Shutdown,
}

/// Per-shard reactor telemetry, registered into the shard's own registry
/// under scope `reactor` (so the merged view shows
/// `shard<N>_reactor.*`).
#[derive(Default, Debug)]
pub struct ShardStats {
    /// Frames drained and executed by this shard.
    pub ops: Counter,
    /// Poll passes (idle or not) the reactor has run.
    pub polls: Counter,
    /// Admin commands drained from the mailbox.
    pub admin_cmds: Counter,
    /// Live connections currently owned by the shard.
    pub conns: Gauge,
}

impl ShardStats {
    fn register(&self, registry: &Registry) {
        let scope = registry.scope("reactor");
        scope.adopt_counter("ops", &self.ops);
        scope.adopt_counter("polls", &self.polls);
        scope.adopt_counter("admin_cmds", &self.admin_cmds);
        scope.adopt_gauge("conns", &self.conns);
    }
}

/// How connections are assigned to shards at accept/connect time.
/// Steering is deterministic and happens exactly once per connection —
/// connections never migrate, which is what makes exclusive ownership
/// (and the no-cross-shard-locks property) possible.
#[derive(Clone, Debug)]
pub enum Steering {
    /// Connection `i` goes to shard `i % shards`.
    RoundRobin,
    /// Connection `i` goes to shard `hash(i) % shards` (splitmix64
    /// finalizer — deterministic across runs).
    Hash,
    /// Connection `i` goes to shard `pins[i]`; connections past the end
    /// of the list fall back to round-robin.
    Pinned(Vec<usize>),
}

impl Steering {
    /// The shard connection number `conn` belongs to, in `0..shards`.
    pub fn shard_for(&self, conn: usize, shards: usize) -> usize {
        match self {
            Steering::RoundRobin => conn % shards,
            Steering::Hash => {
                // splitmix64 finalizer: good avalanche, no state.
                let mut z = (conn as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize % shards
            }
            Steering::Pinned(pins) => match pins.get(conn) {
                Some(&s) => {
                    assert!(
                        s < shards,
                        "pinned shard {s} out of range ({shards} shards)"
                    );
                    s
                }
                None => conn % shards,
            },
        }
    }
}

/// Configuration for [`spawn_sharded`].
pub struct ShardConfig {
    /// Reactor threads to run. On a machine with fewer cores the shards
    /// oversubscribe; correctness is unaffected (each shard still owns
    /// its connections exclusively), only parallel speed-up is.
    pub shards: usize,
    /// Connection → shard assignment policy.
    pub steering: Steering,
    /// Capacity of each shard's admin mailbox.
    pub mailbox_depth: usize,
    /// Optional per-thread setup hook, called first thing on each shard
    /// thread with the shard index (CPU pinning, allocator tracking in
    /// tests, …).
    #[allow(clippy::type_complexity)]
    pub thread_hook: Option<Arc<dyn Fn(usize) + Send + Sync>>,
}

impl ShardConfig {
    /// `shards` reactors, round-robin steering, depth-64 mailboxes.
    pub fn new(shards: usize) -> Self {
        ShardConfig {
            shards,
            steering: Steering::RoundRobin,
            mailbox_depth: 64,
            thread_hook: None,
        }
    }
}

/// Handle to a running sharded target: per-shard mailboxes, stats and
/// registries, plus the join handles. Dropping the handle stops and
/// joins every shard, like [`ShardedTarget::shutdown`] without the
/// error report.
pub struct ShardedTarget {
    senders: Vec<SpscSender<ShardCommand>>,
    stats: Vec<Arc<ShardStats>>,
    shard_regs: Vec<Arc<Registry>>,
    /// The registry the shards are merged into, if one was supplied.
    parent: Option<Arc<Registry>>,
    stop: Arc<AtomicBool>,
    joins: Vec<std::thread::JoinHandle<Result<(), NvmeofError>>>,
    next_conn: usize,
    steering: Steering,
}

/// Spawns `cfg.shards` reactor threads, each exclusively owning the
/// connections steered to it and its own shared-storage controller view.
///
/// When `registry` is supplied, each shard's private registry is merged
/// into it under the prefix `shard<N>` before the shard starts, and
/// again whenever [`ShardedTarget::add_connection`] adopts a connection —
/// the merged snapshot observes every shard live (shared handles, no
/// polling), while each shard records only into shard-local scopes.
pub fn spawn_sharded(
    mut controller: Controller,
    conns: Vec<ConnectionSpec>,
    cfg: ShardConfig,
    registry: Option<&Arc<Registry>>,
) -> ShardedTarget {
    assert!(cfg.shards > 0, "need at least one shard");
    assert!(cfg.mailbox_depth > 0, "admin mailbox needs a slot");

    // Partition the initial connections by the steering policy. Global
    // connection numbering keeps telemetry scope names
    // (`target_conn<i>`) stable regardless of shard count.
    let mut per_shard: Vec<Vec<(usize, ConnectionSpec)>> =
        (0..cfg.shards).map(|_| Vec::new()).collect();
    let mut next_conn = 0;
    for spec in conns {
        let shard = cfg.steering.shard_for(next_conn, cfg.shards);
        per_shard[shard].push((next_conn, spec));
        next_conn += 1;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut senders = Vec::with_capacity(cfg.shards);
    let mut stats = Vec::with_capacity(cfg.shards);
    let mut shard_regs = Vec::with_capacity(cfg.shards);
    let mut joins = Vec::with_capacity(cfg.shards);

    for (n, initial) in per_shard.into_iter().enumerate() {
        let shard_reg = Arc::new(Registry::new());
        let shard_stats = Arc::new(ShardStats::default());
        shard_stats.register(&shard_reg);

        // Every shard gets its own controller view over the one storage
        // service — the NVMe multi-queue model. No `&mut` is shared.
        let shard_controller = controller.share();

        let live: Vec<LiveConnection> = initial
            .into_iter()
            .map(|(i, spec)| LiveConnection::build(spec, i, Some(&shard_reg)))
            .collect();
        shard_stats.conns.set(live.len() as i64);

        let (tx, rx) = spsc::<ShardCommand>(cfg.mailbox_depth);
        let stop_flag = stop.clone();
        let thread_stats = shard_stats.clone();
        let hook = cfg.thread_hook.clone();
        let join = std::thread::Builder::new()
            .name(format!("oaf-shard{n}"))
            .spawn(move || {
                if let Some(hook) = hook {
                    hook(n);
                }
                let mut controller = shard_controller;
                let mut reactor = Reactor::new(live);
                let mut local_stop = false;
                // A shard with zero live connections keeps polling its
                // mailbox: new connections arrive at runtime.
                while !local_stop && !stop_flag.load(Ordering::Acquire) {
                    let mut progressed = false;
                    while let Some(cmd) = rx.pop() {
                        thread_stats.admin_cmds.inc();
                        progressed = true;
                        match cmd {
                            ShardCommand::Add(conn) => reactor.add(*conn),
                            ShardCommand::Shutdown => local_stop = true,
                        }
                    }
                    let drained = reactor.poll_pass(&mut controller)?;
                    if drained > 0 {
                        thread_stats.ops.add(drained as u64);
                        progressed = true;
                    }
                    thread_stats.polls.inc();
                    thread_stats.conns.set(reactor.alive_count() as i64);
                    reactor.idle_step(progressed);
                }
                Ok(())
            })
            .expect("spawn shard thread");

        if let Some(reg) = registry {
            reg.merge(&format!("shard{n}"), &shard_reg);
        }
        senders.push(tx);
        stats.push(shard_stats);
        shard_regs.push(shard_reg);
        joins.push(join);
    }

    ShardedTarget {
        senders,
        stats,
        shard_regs,
        parent: registry.cloned(),
        stop,
        joins,
        next_conn,
        steering: cfg.steering,
    }
}

impl ShardedTarget {
    /// Number of reactor shards.
    pub fn shards(&self) -> usize {
        self.joins.len()
    }

    /// Shard `n`'s reactor telemetry.
    pub fn shard_stats(&self, n: usize) -> &Arc<ShardStats> {
        &self.stats[n]
    }

    /// Shard `n`'s private registry (already merged into the parent
    /// registry, when one was supplied).
    pub fn shard_registry(&self, n: usize) -> &Arc<Registry> {
        &self.shard_regs[n]
    }

    /// Frames executed by each shard so far — the load-balance witness
    /// (`max/min ≤ bound` in the scale tests).
    pub fn ops_per_shard(&self) -> Vec<u64> {
        self.stats.iter().map(|s| s.ops.get()).collect()
    }

    /// Connections steered so far; the next one gets this index (its
    /// `target_conn<index>` scope).
    pub fn connections(&self) -> usize {
        self.next_conn
    }

    /// Steers `spec` to its shard (per the configured policy), builds
    /// the connection against that shard's registry (re-merged into the
    /// parent registry, so its `shard<n>_target_conn<i>` scope shows
    /// there), and delivers it through the shard's admin mailbox.
    /// Returns the shard index.
    ///
    /// Fails with [`NvmeofError::RingFull`] if the shard's mailbox is
    /// full (the reactor is wedged or shutdown already drained it).
    pub fn add_connection(&mut self, spec: ConnectionSpec) -> Result<usize, NvmeofError> {
        let conn_index = self.next_conn;
        self.next_conn += 1;
        let shard = self.steering.shard_for(conn_index, self.shards());
        let live = LiveConnection::build(spec, conn_index, Some(&self.shard_regs[shard]));
        if let Some(parent) = &self.parent {
            // Merging is idempotent: only the new scope is added.
            parent.merge(&format!("shard{shard}"), &self.shard_regs[shard]);
        }
        self.senders[shard]
            .push(ShardCommand::Add(Box::new(live)))
            .map_err(|_| NvmeofError::RingFull)?;
        Ok(shard)
    }

    /// Requests shutdown on every shard (mailbox command + stop flag)
    /// and joins all reactor threads, returning the first error any
    /// shard hit.
    pub fn shutdown(mut self) -> Result<(), NvmeofError> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> Result<(), NvmeofError> {
        for tx in &self.senders {
            // Best effort: the stop flag below covers a full mailbox.
            let _ = tx.push(ShardCommand::Shutdown);
        }
        self.stop.store(true, Ordering::Release);
        let mut first_err = None;
        for join in self.joins.drain(..) {
            match join.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err =
                        first_err.or(Some(NvmeofError::Protocol("shard thread panicked".into())))
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for ShardedTarget {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initiator::{Initiator, InitiatorOptions};
    use crate::nvme::namespace::Namespace;
    use crate::target::TargetConfig;
    use crate::transport::MemTransport;
    use bytes::Bytes;
    use std::time::Duration;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn controller() -> Controller {
        let mut c = Controller::new();
        c.add_namespace(Namespace::new(1, 4096, 2048));
        c
    }

    fn spec(t: MemTransport) -> ConnectionSpec {
        ConnectionSpec {
            transport: Box::new(t),
            cfg: TargetConfig::default(),
            payload: None,
            scope: None,
        }
    }

    #[test]
    fn steering_policies_are_deterministic_and_in_range() {
        for shards in 1..6 {
            for conn in 0..32 {
                assert_eq!(Steering::RoundRobin.shard_for(conn, shards), conn % shards);
                let h = Steering::Hash.shard_for(conn, shards);
                assert_eq!(h, Steering::Hash.shard_for(conn, shards));
                assert!(h < shards);
            }
        }
        let pinned = Steering::Pinned(vec![2, 0, 1]);
        assert_eq!(pinned.shard_for(0, 3), 2);
        assert_eq!(pinned.shard_for(1, 3), 0);
        assert_eq!(pinned.shard_for(2, 3), 1);
        assert_eq!(pinned.shard_for(5, 3), 2); // past the pins: round-robin
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pin_panics() {
        let _ = Steering::Pinned(vec![7]).shard_for(0, 2);
    }

    #[test]
    fn sharded_target_serves_clients_on_distinct_shards() {
        let (c1, t1) = MemTransport::pair();
        let (c2, t2) = MemTransport::pair();
        let registry = Arc::new(Registry::new());
        let target = spawn_sharded(
            controller(),
            vec![spec(t1), spec(t2)],
            ShardConfig::new(2),
            Some(&registry),
        );
        let mut a = Initiator::connect(c1, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        let mut b = Initiator::connect(c2, InitiatorOptions::default(), None, TIMEOUT).unwrap();

        // One storage service behind both shards: a write through shard
        // 0's connection is visible through shard 1's.
        a.write_blocking(1, 0, 1, Bytes::from(vec![0xaa; 4096]), TIMEOUT)
            .unwrap();
        let via_b = b.read_blocking(1, 0, 1, 4096, TIMEOUT).unwrap();
        assert!(via_b.iter().all(|&x| x == 0xaa));

        // Both shards did real work, and the merged registry shows the
        // per-shard split under prefixed scopes.
        a.disconnect().unwrap();
        b.disconnect().unwrap();
        let ops = target.ops_per_shard();
        assert!(ops[0] > 0 && ops[1] > 0, "ops split: {ops:?}");
        let snap = registry.snapshot();
        assert!(snap.counter("shard0_reactor", "ops") > 0);
        assert!(snap.counter("shard1_reactor", "ops") > 0);
        assert!(snap.counter("shard0_target_conn0", "ops") > 0);
        assert!(snap.counter("shard1_target_conn1", "ops") > 0);
        target.shutdown().unwrap();
    }

    #[test]
    fn connection_added_at_runtime_lands_on_its_steered_shard() {
        let registry = Arc::new(Registry::new());
        let mut target = spawn_sharded(
            controller(),
            Vec::new(),
            ShardConfig::new(2),
            Some(&registry),
        );
        let (c1, t1) = MemTransport::pair();
        let (c2, t2) = MemTransport::pair();
        assert_eq!(target.add_connection(spec(t1)).unwrap(), 0);
        assert_eq!(target.add_connection(spec(t2)).unwrap(), 1);
        let mut a = Initiator::connect(c1, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        let mut b = Initiator::connect(c2, InitiatorOptions::default(), None, TIMEOUT).unwrap();
        a.write_blocking(1, 3, 1, Bytes::from(vec![0x42; 4096]), TIMEOUT)
            .unwrap();
        assert!(b
            .read_blocking(1, 3, 1, 4096, TIMEOUT)
            .unwrap()
            .iter()
            .all(|&x| x == 0x42));
        a.disconnect().unwrap();
        b.disconnect().unwrap();
        assert!(target.shard_stats(0).admin_cmds.get() >= 1);
        assert!(target.shard_stats(1).admin_cmds.get() >= 1);
        // Late-adopted connections show in the parent registry.
        let snap = registry.snapshot();
        assert!(snap.counter("shard0_target_conn0", "ops") > 0);
        assert!(snap.counter("shard1_target_conn1", "ops") > 0);
        target.shutdown().unwrap();
    }

    #[test]
    fn shard_survives_sibling_client_vanishing() {
        // One shard: both connections share one reactor's poll set. Two
        // shards: the vanished client's reactor is a different thread.
        for shards in [1, 2] {
            let (c1, t1) = MemTransport::pair();
            let (c2, t2) = MemTransport::pair();
            let target = spawn_sharded(
                controller(),
                vec![spec(t1), spec(t2)],
                ShardConfig::new(shards),
                None,
            );
            let a = Initiator::connect(c1, InitiatorOptions::default(), None, TIMEOUT).unwrap();
            let mut b = Initiator::connect(c2, InitiatorOptions::default(), None, TIMEOUT).unwrap();
            drop(a); // the first client vanishes without a TermReq
            for i in 0..8 {
                b.write_blocking(1, i, 1, Bytes::from(vec![i as u8; 4096]), TIMEOUT)
                    .unwrap();
            }
            b.disconnect().unwrap();
            target.shutdown().unwrap();
        }
    }

    #[test]
    fn dropping_the_handle_joins_every_shard_thread() {
        use std::cell::RefCell;
        use std::sync::atomic::AtomicUsize;

        // Each shard thread parks a guard in a thread-local; its
        // destructor runs when the thread exits.
        struct ExitGuard(Arc<AtomicUsize>);
        impl Drop for ExitGuard {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static GUARD: RefCell<Option<ExitGuard>> = const { RefCell::new(None) };
        }

        let running = Arc::new(AtomicUsize::new(0));
        let hook_running = running.clone();
        let mut cfg = ShardConfig::new(3);
        cfg.thread_hook = Some(Arc::new(move |_| {
            hook_running.fetch_add(1, Ordering::SeqCst);
            GUARD.with(|g| *g.borrow_mut() = Some(ExitGuard(hook_running.clone())));
        }));
        let target = spawn_sharded(controller(), Vec::new(), cfg, None);
        while running.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        drop(target); // no shutdown()
        assert_eq!(
            running.load(Ordering::SeqCst),
            0,
            "a shard thread outlived its dropped handle"
        );
    }

    #[test]
    fn thread_hook_runs_once_per_shard() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let mut cfg = ShardConfig::new(3);
        cfg.thread_hook = Some(Arc::new(move |n| {
            seen2.lock().unwrap().push(n);
        }));
        let target = spawn_sharded(controller(), Vec::new(), cfg, None);
        target.shutdown().unwrap();
        let mut order = seen.lock().unwrap().clone();
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
