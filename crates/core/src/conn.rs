//! The Connection Manager (§4.1, Fig. 5).
//!
//! [`establish`] is the one way a connection comes up between an NVMe-oF
//! client and a running storage service:
//!
//! 1. the Connection Manager consults [`HostRegistry`] — the helper
//!    process — for locality; for co-located pairs an isolated
//!    shared-memory channel is hot-plugged and announced on the flag
//!    pages (§4.2);
//! 2. the control channel follows from that verdict alone: co-located
//!    pairs exchange control PDUs over in-region byte rings (§5.5),
//!    remote pairs over a real nonblocking NVMe/TCP socket (§4.5), and
//!    only where sockets are refused does the in-memory
//!    [`MemTransport`] stand in;
//! 3. the storage service adopts the target half on one of its reactor
//!    shards; connection configuration parameters travel in
//!    ICReq/ICResp: the client requests the AF capabilities it can use,
//!    the target grants the intersection;
//! 4. both AF endpoint objects connect; data can flow.
//!
//! Teardown reclaims the region through [`HostRegistry::unplug`].

use std::sync::Arc;
use std::time::Duration;

use oaf_nvmeof::initiator::{Initiator, InitiatorOptions, KeepAliveConfig};
use oaf_nvmeof::payload::PayloadChannel;
use oaf_nvmeof::pdu::{AF_CAP_SHM, AF_CAP_SHM_INCAPSULE, AF_CAP_ZERO_COPY};
use oaf_nvmeof::server::ConnectionSpec;
use oaf_nvmeof::target::{TargetConfig, TargetHandle};
use oaf_nvmeof::tcp::{TcpConfig, TcpTransport};
use oaf_nvmeof::transport::{BackoffConfig, ControlTransport, MemTransport, ShmTransport};
use oaf_nvmeof::tune::{ChunkCostModel, ChunkSelector, KIB, MIB};
use oaf_nvmeof::{FlowMode, NvmeofError};
use oaf_shmem::channel::Side;
use oaf_telemetry::Registry;

use crate::endpoint::{AfEndpoint, ChannelKind};
use crate::locality::{HostRegistry, HotplugResult, ProcessId};
use crate::payload_impl::ShmPayloadChannel;
use crate::runtime::AfClient;

/// Fabric-level connection settings.
#[derive(Clone, Debug)]
pub struct FabricSettings {
    /// Double-buffer slots per direction (sized to the queue depth,
    /// §4.4.1).
    pub depth: usize,
    /// Slot size in bytes (sized to the I/O size, §4.4.1).
    pub slot_size: usize,
    /// Write flow-control regime once shared memory is active.
    pub flow: FlowMode,
    /// In-capsule limit for inline command data.
    pub in_capsule_max: usize,
    /// Chunk size for inline C2H data PDUs (§4.5).
    pub read_chunk: usize,
    /// Busy-poll iterations before a full/empty ring or socket wait
    /// starts yielding the CPU.
    pub ring_spin_limit: u32,
    /// How long a send may wait on a full control ring before giving up
    /// with `RingFull`.
    pub ring_full_timeout: Duration,
    /// Per-command deadline: a command with no completion after this
    /// long is retried (reads) or aborted-then-retried (writes), up to
    /// `max_retries` attempts. `None` disables deadline tracking.
    pub cmd_deadline: Option<Duration>,
    /// Retry attempts before a command is surfaced as
    /// [`NvmeofError::Timeout`].
    pub max_retries: u32,
    /// Base backoff between retry attempts (doubles per attempt).
    pub retry_backoff: Duration,
    /// Keep-alive probe interval; the peer is declared dead after three
    /// quiet intervals. `None` disables keep-alive.
    pub keepalive_interval: Option<Duration>,
    /// Link speed the remote TCP path is tuned for: the runtime
    /// [`ChunkSelector`] sizes the write-chunk (Fig. 9) from this.
    pub link_gbps: f64,
}

impl Default for FabricSettings {
    fn default() -> Self {
        let backoff = BackoffConfig::default();
        FabricSettings {
            depth: 128,
            slot_size: 128 * 1024,
            flow: FlowMode::InCapsule,
            in_capsule_max: 8 * 1024,
            read_chunk: 128 * 1024,
            ring_spin_limit: backoff.spin_limit,
            ring_full_timeout: backoff.send_full_timeout,
            cmd_deadline: None,
            max_retries: 3,
            retry_backoff: Duration::from_millis(2),
            keepalive_interval: None,
            link_gbps: 25.0,
        }
    }
}

impl FabricSettings {
    /// Largest payload one client buffer holds: the Buffer Manager's
    /// pool buffers are sized generously past the slot/chunk size so
    /// block-level read-modify-write spans (payload + straddled blocks)
    /// still fit in one buffer.
    pub fn max_payload(&self) -> usize {
        self.slot_size.max(self.read_chunk) * 2
    }

    /// The ring-wait tuning these settings select.
    pub fn backoff(&self) -> BackoffConfig {
        BackoffConfig {
            spin_limit: self.ring_spin_limit,
            send_full_timeout: self.ring_full_timeout,
        }
    }
}

/// The control channel for one connection, decided from locality alone:
/// in-region byte rings for a co-located pair, a loopback NVMe/TCP
/// socket otherwise, the in-memory stand-in only where sockets are
/// refused.
fn control_pair(
    co_located: bool,
    settings: &FabricSettings,
) -> (ControlTransport, ControlTransport) {
    if co_located {
        // No data PDU on the rings exceeds the largest client buffer:
        // the target chunks C2H at `read_chunk`, the initiator chunks
        // H2C at `max_payload`. The rings are sized to carry one such
        // frame.
        let capacity =
            ShmTransport::capacity_for(settings.max_payload().max(settings.in_capsule_max));
        let (c, t) = ShmTransport::pair_with(capacity, settings.backoff());
        return (ControlTransport::Shm(c), ControlTransport::Shm(t));
    }
    match TcpTransport::loopback_pair(TcpConfig {
        backoff: settings.backoff(),
        ..TcpConfig::default()
    }) {
        Ok((c, t)) => (ControlTransport::Tcp(c), ControlTransport::Tcp(t)),
        Err(_) => {
            let (c, t) = MemTransport::pair();
            (ControlTransport::Mem(c), ControlTransport::Mem(t))
        }
    }
}

/// Publishes one connection's fabric-level decisions and the settings in
/// effect into the `fabric` scope: which locality verdict was reached,
/// which control path it selected, and the tunables the connection runs
/// with.
fn record_fabric(
    telemetry: &Registry,
    settings: &FabricSettings,
    local: bool,
    in_region: bool,
    write_chunk: usize,
) {
    let fab = telemetry.scope("fabric");
    fab.counter(if local {
        "locality_local"
    } else {
        "locality_remote"
    })
    .inc();
    fab.counter(if in_region {
        "control_in_region"
    } else {
        "control_tcp"
    })
    .inc();
    fab.gauge("depth").set(settings.depth as i64);
    fab.gauge("slot_size").set(settings.slot_size as i64);
    fab.gauge("in_capsule_max")
        .set(settings.in_capsule_max as i64);
    fab.gauge("read_chunk").set(settings.read_chunk as i64);
    fab.gauge("ring_spin_limit")
        .set(settings.ring_spin_limit as i64);
    fab.gauge("ring_full_timeout_ms")
        .set(settings.ring_full_timeout.as_millis() as i64);
    fab.gauge("write_chunk").set(write_chunk as i64);
}

/// Establishes one adaptive-fabric connection from `client` to the
/// storage service `service` runs for `target` (both already registered
/// with `hosts`), and wraps it in the co-designed [`AfClient`] API.
/// Returns the client and the reactor shard serving it.
///
/// Every layer reports into `telemetry` under scopes suffixed with the
/// connection's index `i` on the service: `client<i>`, `app<i>`,
/// `transport_client<i>`/`transport_target<i>`, `tcp_*<i>` on sockets,
/// `control_ring_*<i>` on rings, `bufmgr_*<i>` when co-located; the
/// target side lands in `shard<n>_target_conn<i>` of the registry the
/// service was spawned with.
///
/// If the connection fails to come up, a region hot-plugged for it is
/// unplugged again before the error returns.
pub fn establish(
    hosts: &HostRegistry,
    telemetry: &Registry,
    service: &mut TargetHandle,
    client: ProcessId,
    target: ProcessId,
    settings: &FabricSettings,
) -> Result<(AfClient, usize), NvmeofError> {
    // Step 1: locality detection via the helper process (§4.2). The
    // helper hot-plugs an isolated region per co-located client (the §6
    // security model).
    let hotplug = hosts.hotplug(client, target, settings.depth, settings.slot_size);
    let connected = connect(
        hotplug.as_deref(),
        telemetry,
        service,
        client,
        target,
        settings,
    );
    if connected.is_err() && hotplug.is_some() {
        hosts.unplug(client, target);
    }
    connected
}

/// Steps 2–5 of [`establish`], over the region `hotplug` (if any).
fn connect(
    hotplug: Option<&HotplugResult>,
    telemetry: &Registry,
    service: &mut TargetHandle,
    client: ProcessId,
    target: ProcessId,
    settings: &FabricSettings,
) -> Result<(AfClient, usize), NvmeofError> {
    let i = service.connections();
    let scope = |name: &str| telemetry.scope(&format!("{name}{i}"));
    let (client_shm, target_shm) = match hotplug {
        Some(hp) => {
            let c = ShmPayloadChannel::new(&hp.channel, Side::Client);
            let t = ShmPayloadChannel::new(&hp.channel, Side::Target);
            // Each side's lease pool (Buffer Manager) reports lease
            // traffic and occupancy alongside the transport scopes.
            c.lease_stats().register(&scope("bufmgr_client"));
            t.lease_stats().register(&scope("bufmgr_target"));
            (Some(c), Some(t))
        }
        None => (None, None),
    };

    // Step 2: the control channel, from the same verdict.
    let (client_tr, target_tr) = control_pair(hotplug.is_some(), settings);
    client_tr.metrics().register(&scope("transport_client"));
    target_tr.metrics().register(&scope("transport_target"));
    if let (ControlTransport::Shm(c), ControlTransport::Shm(t)) = (&client_tr, &target_tr) {
        c.tx_ring_stats().register(&scope("control_ring_client"));
        t.tx_ring_stats().register(&scope("control_ring_target"));
    }
    if let Some(m) = client_tr.tcp_metrics() {
        m.register(&scope("tcp_client"));
    }
    if let Some(m) = target_tr.tcp_metrics() {
        m.register(&scope("tcp_target"));
    }
    // Runtime chunking (Fig. 9): on the socket path, large H2C data is
    // streamed as write_chunk-sized sub-PDUs sized for the link; on the
    // control rings a client buffer travels whole and only larger
    // payloads (raw initiator use) are chunked to fit the ring;
    // in-memory channels move payloads whole.
    let write_chunk = if client_tr.is_socket() {
        let selector = ChunkSelector::new(ChunkCostModel::for_link_gbps(settings.link_gbps));
        selector.select(&[128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB]) as usize
    } else if client_tr.is_in_region() {
        settings.max_payload()
    } else {
        0
    };
    record_fabric(
        telemetry,
        settings,
        hotplug.is_some(),
        client_tr.is_in_region(),
        write_chunk,
    );

    // Step 3: the service adopts the target half (it answers the ICReq).
    let shard = service.add_connection(ConnectionSpec {
        transport: Box::new(target_tr),
        cfg: TargetConfig {
            in_capsule_max: settings.in_capsule_max,
            read_chunk: settings.read_chunk,
            af_caps: AF_CAP_SHM | AF_CAP_SHM_INCAPSULE | AF_CAP_ZERO_COPY,
            target_id: target.0,
        },
        payload: target_shm.map(|t| t as Arc<dyn PayloadChannel>),
        scope: None,
    })?;

    // Step 4: client handshake with the capabilities locality allows.
    let af_caps = if client_shm.is_some() {
        AF_CAP_SHM | AF_CAP_SHM_INCAPSULE | AF_CAP_ZERO_COPY
    } else {
        0
    };
    let opts = InitiatorOptions {
        host_id: client.0,
        af_caps,
        flow: settings.flow,
        maxr2t: 16,
        write_chunk,
        cmd_deadline: settings.cmd_deadline,
        max_retries: settings.max_retries,
        retry_backoff: settings.retry_backoff,
        keepalive: settings
            .keepalive_interval
            .map(KeepAliveConfig::with_interval),
        backoff: settings.backoff(),
        ..InitiatorOptions::default()
    };
    let initiator = Initiator::connect(
        client_tr,
        opts,
        client_shm.clone().map(|c| c as Arc<dyn PayloadChannel>),
        Duration::from_secs(5),
    )?;
    initiator.metrics().register(&scope("client"));

    // Step 5: connect the AF endpoint object.
    let endpoint = AfEndpoint::new(client.0);
    endpoint.connect(
        target.0,
        if initiator.shm_active() {
            ChannelKind::Shm
        } else {
            ChannelKind::Tcp
        },
    );
    let af = AfClient::new(initiator, endpoint, client_shm, settings, &scope("app"));
    Ok((af, shard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaf_nvmeof::nvme::controller::Controller;
    use oaf_nvmeof::nvme::namespace::Namespace;
    use oaf_nvmeof::shard::{spawn_sharded, ShardConfig};

    const CLIENT: ProcessId = ProcessId(1);
    const TARGET: ProcessId = ProcessId(2);

    fn controller() -> Controller {
        let mut c = Controller::new();
        c.add_namespace(Namespace::new(1, 4096, 1024));
        c
    }

    fn service(telemetry: &Arc<Registry>) -> TargetHandle {
        spawn_sharded(
            controller(),
            Vec::new(),
            ShardConfig::new(1),
            Some(telemetry),
        )
    }

    fn hosts(client_host: u64, target_host: u64) -> HostRegistry {
        let reg = HostRegistry::new();
        reg.register(CLIENT, client_host);
        reg.register(TARGET, target_host);
        reg
    }

    #[test]
    fn locality_decides_data_and_control_channels() {
        for (host_t, local) in [(7u64, true), (8, false)] {
            let reg = hosts(7, host_t);
            let telemetry = Arc::new(Registry::new());
            let mut svc = service(&telemetry);
            let (mut client, shard) = establish(
                &reg,
                &telemetry,
                &mut svc,
                CLIENT,
                TARGET,
                &FabricSettings::default(),
            )
            .unwrap();
            assert_eq!(shard, 0);
            assert_eq!(client.shm_active(), local);
            let kind = if local {
                ChannelKind::Shm
            } else {
                ChannelKind::Tcp
            };
            assert_eq!(client.endpoint().channel(), kind);
            assert_eq!(reg.channel_for(CLIENT, TARGET).is_some(), local);
            let snap = telemetry.snapshot();
            assert_eq!(snap.counter("fabric", "control_in_region"), local as u64);
            assert_eq!(snap.counter("fabric", "control_tcp"), !local as u64);

            let data = vec![0x5cu8; 128 * 1024];
            let mut buf = client.alloc(data.len()).unwrap();
            buf.copy_from_slice(&data);
            client.write(1, 0, 32, buf, Duration::from_secs(5)).unwrap();
            let back = client
                .read(1, 0, 32, data.len(), Duration::from_secs(5))
                .unwrap();
            assert_eq!(back, data);
            client.disconnect().unwrap();
            svc.shutdown().unwrap();
        }
    }

    #[test]
    fn connections_on_one_service_get_their_own_scopes() {
        let reg = hosts(7, 7);
        reg.register(ProcessId(3), 7);
        let telemetry = Arc::new(Registry::new());
        let mut svc = service(&telemetry);
        let settings = FabricSettings::default();
        let (mut a, _) = establish(&reg, &telemetry, &mut svc, CLIENT, TARGET, &settings).unwrap();
        let (mut b, _) =
            establish(&reg, &telemetry, &mut svc, ProcessId(3), TARGET, &settings).unwrap();
        a.identify(1).unwrap();
        b.identify(1).unwrap();
        let snap = telemetry.snapshot();
        for i in 0..2 {
            assert!(snap.counter(&format!("client{i}"), "submitted") >= 1);
            assert!(snap.counter(&format!("shard0_target_conn{i}"), "ops") >= 1);
            assert!(snap.counter(&format!("control_ring_client{i}"), "frames") >= 1);
        }
        assert_eq!(snap.counter("fabric", "locality_local"), 2);
        a.disconnect().unwrap();
        b.disconnect().unwrap();
        svc.shutdown().unwrap();
    }

    #[test]
    fn failed_establish_unplugs_its_region() {
        let reg = hosts(7, 7);
        let telemetry = Arc::new(Registry::new());
        // The shard stays parked in its thread hook, so its one mailbox
        // slot, once taken, refuses the next adoption.
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let parked = std::sync::Mutex::new(parked);
        let mut cfg = ShardConfig::new(1);
        cfg.mailbox_depth = 1;
        cfg.thread_hook = Some(Arc::new(move |_| {
            let _ = parked.lock().unwrap().recv();
        }));
        let mut svc = spawn_sharded(controller(), Vec::new(), cfg, Some(&telemetry));
        // Dropped before `svc` on every path, so the shard is never left
        // parked while its handle joins it.
        let release = release;
        let (_peer, t) = MemTransport::pair();
        svc.add_connection(ConnectionSpec {
            transport: Box::new(t),
            cfg: TargetConfig::default(),
            payload: None,
            scope: None,
        })
        .unwrap();

        let settings = FabricSettings::default();
        let err = establish(&reg, &telemetry, &mut svc, CLIENT, TARGET, &settings)
            .err()
            .expect("a full mailbox refuses the connection");
        assert!(matches!(err, NvmeofError::RingFull), "{err:?}");
        assert!(reg.channel_for(CLIENT, TARGET).is_none());

        release.send(()).unwrap();
        svc.shutdown().unwrap();
    }
}
