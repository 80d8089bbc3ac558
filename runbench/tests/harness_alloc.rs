//! The generator's per-operation bookkeeping allocates nothing: 10 000
//! synthetic completions under a counting allocator.
//!
//! One test in this binary, so no concurrent test allocates while the
//! process-wide counter is armed.

use oaf_runbench::alloc::{arm, disarm, Counting};
use oaf_runbench::harness::{stamp, Book, Mode, Op, Shape};

#[global_allocator]
static ALLOC: Counting = Counting;

const QD: usize = 8;

#[test]
fn bookkeeping_is_allocation_free_and_catches_bad_reads() {
    let shape = Shape {
        op_bytes: 16384,
        clients: 2,
        qd: QD,
        slots_per_client: 256,
        read_pct: 70,
        fua_every: 4,
        hot_slots: 16,
        hot_pct: 80,
    };
    let mut book = Book::new(shape, 7, 4096, 20_000);
    // What the simulated device holds: the version of each slot.
    let mut device = vec![0u32; shape.total_slots() as usize];
    let mut payload = vec![0u8; shape.op_bytes];
    // Per connection, a FIFO of in-flight (cid, op, aux).
    let mut fifo = [[(0u16, Op::default(), 0u32); QD]; 2];
    let mut head = [0usize; 2];
    let mut next_cid = [0u16; 2];
    book.set_mode(Mode::Stream);
    book.begin_window();

    arm();
    for c in 0..2 {
        for entry in fifo[c].iter_mut() {
            let (op, aux) = book.next_op(c).expect("stream never ends");
            book.submitted(c, next_cid[c], op, aux, 0);
            *entry = (next_cid[c], op, aux);
            next_cid[c] = next_cid[c].wrapping_add(1);
        }
    }
    for i in 0..10_000u64 {
        let c = (i % 2) as usize;
        let (cid, op, aux) = fifo[c][head[c]];
        let data: &[u8] = if op.kind.is_write() {
            device[op.slot as usize] = aux;
            &[]
        } else {
            stamp(&mut payload, shape.lba(op.slot), device[op.slot as usize]);
            &payload
        };
        book.completed(c, cid, true, data, 1_000 + i);
        let (op, aux) = book.next_op(c).expect("stream never ends");
        book.submitted(c, next_cid[c], op, aux, 1_000 + i);
        fifo[c][head[c]] = (next_cid[c], op, aux);
        next_cid[c] = next_cid[c].wrapping_add(1);
        head[c] = (head[c] + 1) % QD;
    }
    let allocs = disarm();

    assert_eq!(allocs, 0, "bookkeeping allocated {allocs} times");
    assert_eq!(book.failed, 0);
    assert_eq!(book.window.completed, 10_000);
    assert_eq!((book.reads.len() + book.writes.len()) as u64, 10_000);
    assert!(
        book.verified_reads > 5_000,
        "{} reads verified",
        book.verified_reads
    );

    // A stale read (older than the last acknowledged write) and a
    // single flipped byte both fail the check.
    let (cid, op, _) = fifo[0][head[0]];
    book.completed(0, cid, true, &[], 20_000);
    let written = (0..shape.slots_per_client)
        .find(|&s| device[s as usize] > 1)
        .expect("some slot was rewritten");
    book.set_mode(Mode::Readback);
    let before = book.failed;
    loop {
        let (op, aux) = book.next_op(0).expect("readback covers the range");
        if op.slot == written {
            book.submitted(0, 60_000, op, aux, 0);
            break;
        }
        book.submitted(0, 60_001, op, aux, 0);
        stamp(&mut payload, shape.lba(op.slot), device[op.slot as usize]);
        book.completed(0, 60_001, true, &payload, 1);
    }
    stamp(
        &mut payload,
        shape.lba(written),
        device[written as usize] - 1,
    );
    book.completed(0, 60_000, true, &payload, 1);
    assert_eq!(book.failed, before + 1, "stale version accepted");
    let _ = op;
    let (op, aux) = book.next_op(0).expect("readback continues");
    book.submitted(0, 60_002, op, aux, 0);
    stamp(&mut payload, shape.lba(op.slot), device[op.slot as usize]);
    payload[5000] ^= 1;
    book.completed(0, 60_002, true, &payload, 1);
    assert_eq!(book.failed, before + 2, "corrupted byte accepted");
}
