//! Integration: the fully in-region configuration (§5.5 future work) —
//! control PDUs over lock-free byte rings *and* payloads over the
//! double-buffer channel. Not a single byte crosses a socket.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use nvme_oaf::nvmeof::initiator::{Initiator, InitiatorOptions};
use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::payload::PayloadChannel;
use nvme_oaf::nvmeof::pdu::AF_CAP_SHM;
use nvme_oaf::nvmeof::target::{spawn_target, TargetConfig};
use nvme_oaf::nvmeof::transport::ShmTransport;
use nvme_oaf::nvmeof::FlowMode;
use nvme_oaf::oaf::conn::FabricSettings;
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::payload_impl::ShmPayloadChannel;
use nvme_oaf::oaf::runtime::launch;
use nvme_oaf::shmem::channel::Side;
use nvme_oaf::shmem::ShmChannel;

const TIMEOUT: Duration = Duration::from_secs(5);

fn controller() -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, 1024));
    c
}

#[test]
fn control_and_data_both_in_region() {
    // Control path: duplex byte rings. Data path: the double buffer.
    let (ct, tt) = ShmTransport::pair(256 * 1024);
    let data = ShmChannel::allocate(32, 128 * 1024);
    let client_ch = ShmPayloadChannel::new(&data, Side::Client);
    let target_ch = ShmPayloadChannel::new(&data, Side::Target);

    let handle = spawn_target(
        tt,
        controller(),
        TargetConfig::default(),
        Some(target_ch as Arc<dyn PayloadChannel>),
    );
    let mut ini = Initiator::connect(
        ct,
        InitiatorOptions {
            af_caps: AF_CAP_SHM,
            flow: FlowMode::InCapsule,
            ..InitiatorOptions::default()
        },
        Some(client_ch as Arc<dyn PayloadChannel>),
        TIMEOUT,
    )
    .expect("connect over byte rings");
    assert!(ini.shm_active());

    // Full write/read cycle, 128 KiB payloads via slots.
    let payload = Bytes::from(
        (0..128 * 1024)
            .map(|i| (i % 241) as u8)
            .collect::<Vec<u8>>(),
    );
    ini.write_blocking(1, 0, 32, payload.clone(), TIMEOUT)
        .expect("write");
    let back = ini
        .read_blocking(1, 0, 32, 128 * 1024, TIMEOUT)
        .expect("read");
    assert_eq!(back, payload);

    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("shutdown");
}

#[test]
fn in_region_control_sustains_pipelined_load() {
    let (ct, tt) = ShmTransport::pair(512 * 1024);
    let data = ShmChannel::allocate(64, 32 * 1024);
    let client_ch = ShmPayloadChannel::new(&data, Side::Client);
    let target_ch = ShmPayloadChannel::new(&data, Side::Target);
    let handle = spawn_target(
        tt,
        controller(),
        TargetConfig::default(),
        Some(target_ch as Arc<dyn PayloadChannel>),
    );
    let mut ini = Initiator::connect(
        ct,
        InitiatorOptions {
            af_caps: AF_CAP_SHM,
            flow: FlowMode::InCapsule,
            ..InitiatorOptions::default()
        },
        Some(client_ch as Arc<dyn PayloadChannel>),
        TIMEOUT,
    )
    .expect("connect");

    let qd = 32usize;
    let mut cids = Vec::new();
    for i in 0..qd {
        let body = Bytes::from(vec![i as u8; 4096]);
        cids.push(ini.submit_write(1, i as u64, 1, body).expect("submit"));
    }
    for cid in cids {
        assert!(ini.wait(cid, TIMEOUT).expect("completion").status.is_ok());
    }
    for i in 0..qd {
        let back = ini
            .read_blocking(1, i as u64, 1, 4096, TIMEOUT)
            .expect("read");
        assert!(back.iter().all(|&b| b == i as u8), "lba {i}");
    }
    ini.disconnect().expect("disconnect");
    handle.shutdown().expect("shutdown");
}

/// Payloads larger than a shared-memory slot travel inline as data PDUs
/// over the control rings: a 256 KiB write as H2C data, a 260 KiB read
/// as C2H chunks of `read_chunk`. Every such frame must fit the ring.
#[test]
fn in_region_control_carries_payloads_larger_than_a_slot() {
    let registry = Arc::new(HostRegistry::new());
    let mut pair = launch(
        &registry,
        (ProcessId(1), 1),
        (ProcessId(2), 1),
        controller(),
        FabricSettings::default(),
    )
    .expect("launch");
    assert!(pair.client.shm_active());
    // A co-located pair's control PDUs ride the in-region rings.
    assert_eq!(
        pair.telemetry
            .snapshot()
            .counter("fabric", "control_in_region"),
        1
    );

    let len = 256 * 1024;
    let mut buf = pair.client.alloc(len).expect("alloc");
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (i % 239) as u8;
    }
    pair.client
        .write(1, 0, 64, buf, TIMEOUT)
        .expect("256 KiB write over the control rings");
    let back = pair
        .client
        .read(1, 0, 64, len, TIMEOUT)
        .expect("256 KiB read");
    assert!(back.iter().enumerate().all(|(i, &b)| b == (i % 239) as u8));

    let len = 260 * 1024;
    let back = pair
        .client
        .read(1, 0, 65, len, TIMEOUT)
        .expect("260 KiB read over the control rings");
    assert_eq!(back.len(), len);
    assert!(back[..256 * 1024]
        .iter()
        .enumerate()
        .all(|(i, &b)| b == (i % 239) as u8));

    pair.client.disconnect().expect("disconnect");
    pair.target.shutdown().expect("shutdown");
}
