//! Integration: locality awareness, hot-plug announcements, flow-control
//! accounting, and fabric settings propagation across crates.

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::nvmeof::shard::{spawn_sharded, ShardConfig};
use nvme_oaf::nvmeof::target::TargetHandle;
use nvme_oaf::nvmeof::FlowMode;
use nvme_oaf::oaf::conn::{establish, FabricSettings};
use nvme_oaf::oaf::flow::{control_messages, messages_saved, DataChannel, OpKind};
use nvme_oaf::oaf::locality::{poll_locality, HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::AfClient;
use oaf_telemetry::Registry;

/// A one-shard storage service with no connections yet.
fn service() -> TargetHandle {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, 4096, 256));
    spawn_sharded(c, Vec::new(), ShardConfig::new(1), None)
}

/// Connects process 1 to the service run for process 2.
fn connect(reg: &HostRegistry, svc: &mut TargetHandle, settings: &FabricSettings) -> AfClient {
    establish(
        reg,
        &Registry::new(),
        svc,
        ProcessId(1),
        ProcessId(2),
        settings,
    )
    .expect("establish")
    .0
}

/// Disconnects, stops the service and reclaims the region.
fn teardown(reg: &HostRegistry, mut client: AfClient, svc: TargetHandle) {
    client.disconnect().expect("disconnect");
    svc.shutdown().expect("service shutdown");
    reg.unplug(ProcessId(1), ProcessId(2));
}

#[test]
fn helper_process_announcements_follow_hotplug_lifecycle() {
    let reg = HostRegistry::new();
    let c = ProcessId(1);
    let t = ProcessId(2);
    let cflag = reg.register(c, 5);
    let tflag = reg.register(t, 5);

    // Nothing announced before hot-plug.
    assert!(poll_locality(&cflag).is_none());
    assert!(poll_locality(&tflag).is_none());

    let hp = reg.hotplug(c, t, 8, 4096).expect("co-located");
    let a = poll_locality(&cflag).expect("announced to client");
    let b = poll_locality(&tflag).expect("announced to target");
    assert_eq!(a.region_id, hp.region_id);
    assert_eq!(a.region_id, b.region_id);
    assert_eq!(a.host_id, 5);

    // Unplug clears both pages.
    reg.unplug(c, t);
    assert!(poll_locality(&cflag).is_none());
    assert!(poll_locality(&tflag).is_none());
}

#[test]
fn establish_uses_hotplug_only_when_co_located() {
    for (host_c, host_t, expect_shm) in [(9, 9, true), (9, 10, false)] {
        let reg = HostRegistry::new();
        reg.register(ProcessId(1), host_c);
        reg.register(ProcessId(2), host_t);
        let mut svc = service();
        let client = connect(&reg, &mut svc, &FabricSettings::default());
        assert_eq!(client.shm_active(), expect_shm);
        assert_eq!(
            reg.channel_for(ProcessId(1), ProcessId(2)).is_some(),
            expect_shm,
            "hotplug record mismatch"
        );
        teardown(&reg, client, svc);
        assert!(reg.channel_for(ProcessId(1), ProcessId(2)).is_none());
    }
}

#[test]
fn fabric_settings_control_slot_geometry() {
    let reg = HostRegistry::new();
    reg.register(ProcessId(1), 3);
    reg.register(ProcessId(2), 3);
    let settings = FabricSettings {
        depth: 4,
        slot_size: 8192,
        ..FabricSettings::default()
    };
    let mut svc = service();
    let client = connect(&reg, &mut svc, &settings);
    let hp = reg
        .channel_for(ProcessId(1), ProcessId(2))
        .expect("channel");
    assert_eq!(hp.channel.depth(), 4);
    assert_eq!(hp.channel.slot_size(), 8192);
    teardown(&reg, client, svc);
}

#[test]
fn flow_accounting_matches_the_papers_message_counts() {
    let cap = 8 * 1024;
    // Fig. 7's conservative shared-memory write: 4 control messages.
    assert_eq!(
        control_messages(
            OpKind::Write,
            16 * 1024,
            DataChannel::Shm,
            FlowMode::Conservative,
            cap
        ),
        4
    );
    // §4.4.2 eliminates two of them for every size.
    for size in [512usize, 16 * 1024, 1 << 21] {
        assert_eq!(messages_saved(OpKind::Write, size, cap), 2, "size {size}");
        assert_eq!(messages_saved(OpKind::Read, size, cap), 2, "size {size}");
    }
    // Stock TCP small writes were already in-capsule: nothing to save
    // relative to the optimized shm flow.
    assert_eq!(
        control_messages(
            OpKind::Write,
            4096,
            DataChannel::TcpInline,
            FlowMode::Conservative,
            cap
        ),
        control_messages(
            OpKind::Write,
            4096,
            DataChannel::Shm,
            FlowMode::InCapsule,
            cap
        ),
    );
}

#[test]
fn repeated_establish_teardown_cycles_are_stable() {
    let reg = HostRegistry::new();
    reg.register(ProcessId(1), 1);
    reg.register(ProcessId(2), 1);
    for round in 0..5 {
        let mut svc = service();
        let mut client = connect(&reg, &mut svc, &FabricSettings::default());
        assert!(client.shm_active(), "round {round}");
        // Do one I/O per cycle to prove the channel is live.
        let mut buf = client.alloc(4096).expect("alloc");
        buf.fill(round as u8);
        client
            .write(1, 0, 1, buf, std::time::Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        teardown(&reg, client, svc);
    }
}
