//! The paper's Fig. 1 architecture live: one storage service, several
//! client applications with mixed locality — co-located clients ride
//! their own isolated shared-memory channels, the remote one falls back
//! to TCP, all against the same namespaces.
//!
//! ```text
//! cargo run --release --example storage_service
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use nvme_oaf::nvmeof::nvme::controller::Controller;
use nvme_oaf::nvmeof::nvme::namespace::Namespace;
use nvme_oaf::oaf::conn::FabricSettings;
use nvme_oaf::oaf::locality::{HostRegistry, ProcessId};
use nvme_oaf::oaf::runtime::launch_many_sharded;

fn main() {
    let mut controller = Controller::new();
    controller.add_namespace(Namespace::new(1, 4096, 16 * 1024));

    let registry = Arc::new(HostRegistry::new());
    let target_host = 1u64;
    let clients = [
        (ProcessId(1), target_host), // co-located
        (ProcessId(2), target_host), // co-located
        (ProcessId(3), 2u64),        // remote
    ];
    // One reactor shard serves every connection.
    let mut group = launch_many_sharded(
        &registry,
        &clients,
        (ProcessId(100), target_host),
        controller,
        FabricSettings::default(),
        1,
    )
    .expect("service establishment");

    println!("storage service up; clients:");
    for (i, c) in group.clients.iter().enumerate() {
        println!(
            "  client {i}: channel = {}",
            if c.shm_active() {
                "shared memory (isolated region)"
            } else {
                "TCP fallback"
            }
        );
    }

    // Every client hammers its own LBA range for a moment.
    let timeout = Duration::from_secs(10);
    let io = 128 * 1024usize;
    let nlb = (io / 4096) as u32;
    for (i, client) in group.clients.iter_mut().enumerate() {
        let base = (i as u64) * 1024;
        let t0 = Instant::now();
        let rounds = 256u64;
        for k in 0..rounds {
            let mut buf = client.alloc(io).expect("buffer");
            buf.fill((k % 251) as u8);
            client
                .write(1, base + k * u64::from(nlb), nlb, buf, timeout)
                .expect("write");
        }
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "  client {i}: {} MiB written at {:.0} MiB/s",
            (rounds as usize * io) >> 20,
            rounds as f64 * io as f64 / (1 << 20) as f64 / secs
        );
    }

    // Shared storage: client 2 (remote) verifies client 0's data.
    let back = group.clients[2]
        .read(1, 0, nlb, io, timeout)
        .expect("cross read");
    assert!(back.iter().all(|&b| b == 0));
    println!("cross-client read verified: the service is one shared store");

    for c in &mut group.clients {
        c.disconnect().expect("disconnect");
    }
    group.target.shutdown().expect("shutdown");
    println!("done.");
}
