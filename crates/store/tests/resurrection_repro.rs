//! Reviewer repro: stale log-record resurrection after torn-tail truncation.

use oaf_ssd::BlockStore;
use oaf_store::log::{LOG_OFFSET, REC_HDR_LEN};
use oaf_store::vfs::{MemVfs, SharedMemVfs};
use oaf_store::FileDisk;

#[test]
fn stale_record_resurrection_loses_fua_write() {
    // Run 1: two unflushed writes. seq 1 -> lba 0, seq 2 -> lba 1.
    let v1 = SharedMemVfs::new();
    let mut d = FileDisk::create_on(Box::new(v1.clone()), 512, 64, 64 * 1024).unwrap();
    d.write(0, 1, &[0x01u8; 512], false).unwrap(); // seq 1
    d.write(1, 1, &[0x02u8; 512], false).unwrap(); // seq 2

    // Crash 1: record seq 1's payload is torn (CRC fails) while record
    // seq 2 persisted in full (fdatasync-free writes may reorder).
    let mut img = v1.image();
    img[LOG_OFFSET as usize + REC_HDR_LEN] ^= 0xff;

    // Mount 1: recovery truncates at seq 1; both writes rolled back (OK,
    // neither was acknowledged durable).
    let v2 = SharedMemVfs::from_image(img);
    let mut d2 = FileDisk::open_on(Box::new(v2.clone())).unwrap();

    // New FUA write to lba 1: acknowledged durable.
    d2.write(1, 1, &[0x33u8; 512], true).unwrap();
    let mut out = [0u8; 512];
    d2.read(1, 1, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 0x33));

    // Crash 2 (SharedMemVfs is always-durable, so the image is exactly the
    // platter). Mount 2 must preserve the FUA-acknowledged 0x33.
    let d3 = FileDisk::open_on(Box::new(MemVfs::from_image(v2.image()))).unwrap();
    d3.read(1, 1, &mut out).unwrap();
    assert!(
        out.iter().all(|&b| b == 0x33),
        "FUA-acknowledged write lost: lba 1 now holds {:#04x} (stale seq-2 record resurrected)",
        out[0]
    );
}
