//! The shadow model's read floor when writes to one slot overlap: a
//! read may return the last acknowledged version or one in flight,
//! never a version an acknowledged write has overwritten.

use oaf_runbench::harness::{stamp, Shadow, Shape};

const SHAPE: Shape = Shape {
    op_bytes: 4096,
    clients: 1,
    qd: 4,
    slots_per_client: 1,
    read_pct: 50,
    fua_every: 0,
    hot_slots: 0,
    hot_pct: 0,
};

/// Whether a read of slot 0 submitted at `floor` may return `ver`.
fn accepts(shadow: &Shadow, floor: u32, ver: u32) -> bool {
    let mut block = vec![0u8; SHAPE.op_bytes];
    stamp(&mut block, SHAPE.lba(0), ver);
    shadow.check(&SHAPE, 0, floor, &block)
}

#[test]
fn an_acknowledged_overlapping_write_retires_older_versions() {
    let mut sh = Shadow::new(1);
    let v1 = sh.begin_write(0);
    sh.end_write(0, true);
    let v2 = sh.begin_write(0);
    let v3 = sh.begin_write(0);
    // Neither overlapping write is acknowledged: v1 may still be there.
    let before = sh.floor(0);
    assert!(accepts(&sh, before, v1));
    assert!(accepts(&sh, before, v2) && accepts(&sh, before, v3));

    sh.end_write(0, true); // v2 acknowledged, v3 in flight
    let floor = sh.floor(0);
    assert!(!accepts(&sh, floor, v1), "v1 accepted after v2 was acked");
    assert!(accepts(&sh, floor, v2), "the acknowledged version refused");
    assert!(accepts(&sh, floor, v3), "the version in flight refused");
    assert!(
        !accepts(&sh, floor, v3 + 1),
        "a version never written accepted"
    );
}

#[test]
fn the_floor_holds_whichever_overlapping_write_is_acknowledged_first() {
    let mut sh = Shadow::new(1);
    let v1 = sh.begin_write(0);
    sh.end_write(0, true);
    let v2 = sh.begin_write(0);
    let v3 = sh.begin_write(0);
    // The device may apply the group in either order, so once any of it
    // is acknowledged both of its versions are possible and v1 is not.
    sh.end_write(0, true);
    sh.end_write(0, true);
    let floor = sh.floor(0);
    assert!(!accepts(&sh, floor, v1));
    assert!(accepts(&sh, floor, v2) && accepts(&sh, floor, v3));
}
