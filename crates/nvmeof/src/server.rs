//! The poll-mode reactor: one connection set, one idle policy.
//!
//! The paper's architecture (Fig. 1) has one storage service per target
//! VM serving several client applications, each over its own connection
//! and — when co-located — its own isolated shared-memory channel (§4.2,
//! §6). A `Reactor` is one SPDK-style poll group over such a connection
//! set; [`crate::shard`] runs one reactor per shard thread, and every
//! target in this crate — a single connection included — is a sharded
//! target (1 shard × N connections at its smallest).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;

use crate::error::NvmeofError;
use crate::nvme::controller::Controller;
use crate::payload::PayloadChannel;
use crate::pdu::Pdu;
use crate::target::{TargetConfig, TargetConnection};
use crate::transport::{BackoffConfig, Transport, WaitLadder, WaitStep};
use crate::tune::{BusyPollController, PollClass};
use oaf_telemetry::Registry;

/// One client connection a reactor services.
pub struct ConnectionSpec {
    /// The connection's control transport.
    pub transport: Box<dyn Transport>,
    /// Per-connection configuration (capability grants, identities).
    pub cfg: TargetConfig,
    /// The connection's isolated payload channel, if the client is
    /// co-located.
    pub payload: Option<Arc<dyn PayloadChannel>>,
    /// Telemetry scope name for this connection's target-side metrics
    /// (`target_conn<index>` when `None` and a registry is supplied).
    pub scope: Option<String>,
}

/// A wired, servable connection owned by exactly one reactor. Opaque
/// outside the crate: instances are built by
/// [`crate::shard::spawn_sharded`] (or
/// [`crate::shard::ShardedTarget::add_connection`]) and only ever travel
/// *into* a reactor, never out.
pub struct LiveConnection {
    transport: Box<dyn Transport>,
    conn: TargetConnection,
    alive: bool,
    /// Reusable response staging and encode scratch: the steady-state
    /// poll pass allocates nothing per frame.
    out: Vec<Pdu>,
    scratch: BytesMut,
}

impl LiveConnection {
    /// Wires one spec into a servable connection, registering its
    /// target-side metric bundle under the spec's scope name (or
    /// `target_conn<index>`) when a registry is supplied.
    pub(crate) fn build(
        spec: ConnectionSpec,
        index: usize,
        registry: Option<&Registry>,
    ) -> LiveConnection {
        let conn = TargetConnection::new(spec.cfg, spec.payload);
        if let Some(reg) = registry {
            let name = spec.scope.unwrap_or_else(|| format!("target_conn{index}"));
            conn.metrics().register(&reg.scope(&name));
        }
        LiveConnection {
            conn,
            transport: spec.transport,
            alive: true,
            out: Vec::new(),
            scratch: BytesMut::with_capacity(4096),
        }
    }
}

/// One poll-mode reactor's connection set and idle policy. Each shard
/// of [`crate::shard::spawn_sharded`] owns one, over a disjoint
/// connection set.
pub(crate) struct Reactor {
    live: Vec<LiveConnection>,
    poller: BusyPollController,
    last_work: Instant,
    /// The wait since the last progress, started on the first idle pass.
    idle: Option<WaitLadder>,
}

impl Reactor {
    // Workload-adaptive idle policy (§4.5, Fig. 10): the reactor learns
    // the typical gap between work arrivals and keeps spinning while the
    // next frame is expected imminently; past that budget it descends
    // the transport wait ladder (yields, then bounded sleeps) so an idle
    // reactor does not burn a core.
    const GAP_CLAMP: Duration = Duration::from_millis(1);
    /// Horizon of one idle ladder; a reactor idle for longer simply
    /// starts a new one.
    const IDLE_HORIZON: Duration = Duration::from_secs(60);

    pub(crate) fn new(live: Vec<LiveConnection>) -> Self {
        Reactor {
            live,
            poller: BusyPollController::new(),
            last_work: Instant::now(),
            idle: None,
        }
    }

    /// Adopts another connection into this reactor's set (sharded
    /// runtime: delivered through the shard's admin mailbox, so only the
    /// owning thread ever touches the set).
    pub(crate) fn add(&mut self, conn: LiveConnection) {
        self.live.push(conn);
    }

    pub(crate) fn alive_count(&self) -> usize {
        self.live.iter().filter(|l| l.alive).count()
    }

    /// One fair round-robin pass over every live connection (like an
    /// SPDK poll group): drain ready frames batched, execute against
    /// `controller`, flush responses. Returns how many frames were
    /// drained (0 = the pass was idle).
    pub(crate) fn poll_pass(&mut self, controller: &mut Controller) -> Result<usize, NvmeofError> {
        let mut drained_total = 0;
        for l in self.live.iter_mut() {
            if !l.alive {
                continue;
            }
            let mut err = None;
            let drained = {
                let conn = &mut l.conn;
                let out = &mut l.out;
                l.transport.recv_batch(&mut |frame| {
                    if err.is_none() {
                        if let Err(e) = conn.handle(frame, controller, out) {
                            err = Some(e);
                        }
                    }
                })
            };
            match (drained, err) {
                (Err(NvmeofError::TransportClosed), _) => {
                    l.alive = false;
                    continue;
                }
                // A misbehaving peer (protocol violation) kills its own
                // connection, never the reactor — the other clients keep
                // their storage service.
                (_, Some(_)) => {
                    l.alive = false;
                    continue;
                }
                (Err(e), _) => return Err(e),
                (Ok(n), None) => drained_total += n,
            }
            // Probe the connection's sync-done queue: barrier
            // completions parked on sync tickets release here, and
            // count as progress so the idle policy keeps the reactor
            // hot while syncs are retiring.
            drained_total += l.conn.poll_parked(controller, &mut l.out);
            for pdu in l.out.drain(..) {
                l.scratch.clear();
                // Socket transports take the vectored header +
                // borrowed-payload path so large C2H data never gets
                // coalesced into the scratch buffer.
                let sent = if l.transport.prefers_split() {
                    match pdu.encode_split_into(&mut l.scratch) {
                        Some(payload) => l.transport.send_split(&l.scratch, payload),
                        None => {
                            l.scratch.clear();
                            pdu.encode_into(&mut l.scratch);
                            l.transport.send_frame(&l.scratch)
                        }
                    }
                } else {
                    pdu.encode_into(&mut l.scratch);
                    l.transport.send_frame(&l.scratch)
                };
                // A peer that hung up or a ring stuck full past the
                // backoff budget kills the connection, not the reactor.
                match sent {
                    Ok(()) => {}
                    Err(NvmeofError::TransportClosed) | Err(NvmeofError::RingFull) => {
                        l.alive = false;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if l.conn.terminated() {
                l.alive = false;
            }
        }
        Ok(drained_total)
    }

    /// Advances the adaptive idle policy after a poll pass: spin for the
    /// learned budget after the last progress, then yield, then sleep in
    /// bounded slices ([`WaitLadder`]).
    pub(crate) fn idle_step(&mut self, progressed: bool) {
        if progressed {
            self.poller.observe(
                PollClass::Read,
                self.last_work.elapsed().min(Self::GAP_CLAMP),
            );
            self.last_work = Instant::now();
            self.idle = None;
            return;
        }
        let budget = self.poller.budget(PollClass::Read);
        let ladder = self.idle.get_or_insert_with(|| {
            WaitLadder::until_with_spin(
                Instant::now() + Self::IDLE_HORIZON,
                &BackoffConfig::default(),
                budget,
            )
        });
        match ladder.step() {
            WaitStep::Again => {}
            WaitStep::Sleep(d) => std::thread::sleep(d),
            WaitStep::Expired => self.idle = None,
        }
    }
}
