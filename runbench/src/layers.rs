//! Per-layer figures of the traced run: counters read from the
//! runtime's telemetry snapshot deltas over the traced window, and
//! replays that time each layer's public entry points on the
//! workload's own operations.

use std::time::Instant;

use bytes::{Bytes, BytesMut};
use oaf_nvmeof::nvme::command::NvmeCommand;
use oaf_nvmeof::nvme::completion::NvmeCompletion;
use oaf_nvmeof::nvme::controller::Controller;
use oaf_nvmeof::nvme::namespace::Namespace;
use oaf_nvmeof::pdu::{CapsuleCmd, CapsuleResp, DataPdu, DataRef, Pdu, R2T};
use oaf_ssd::BlockStore;
use oaf_telemetry::{HistoSnapshot, MetricValue, Snapshot};

use crate::fabric::Image;
use crate::harness::{stamp, Kind, BLOCK};

/// A scope's name with any `shard<N>_` prefix and trailing index
/// removed: `shard0_target_conn1` → `target_conn`, `client1` → `client`.
fn base(scope: &str) -> &str {
    let s = scope
        .strip_prefix("shard")
        .and_then(|rest| rest.split_once('_'))
        .filter(|(n, _)| n.chars().all(|ch| ch.is_ascii_digit()))
        .map_or(scope, |(_, tail)| tail);
    s.trim_end_matches(|ch: char| ch.is_ascii_digit())
}

/// Counter `name` summed over every scope whose base is in `scopes`.
pub fn sum(d: &Snapshot, scopes: &[&str], name: &str) -> u64 {
    d.scopes
        .iter()
        .filter(|s| scopes.contains(&base(&s.name)))
        .flat_map(|s| s.metrics.iter())
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Histogram `name` merged over every scope whose base is in `scopes`.
pub fn histo(d: &Snapshot, scopes: &[&str], name: &str) -> Option<HistoSnapshot> {
    let mut merged: Option<HistoSnapshot> = None;
    for s in d.scopes.iter().filter(|s| scopes.contains(&base(&s.name))) {
        for m in s.metrics.iter().filter(|m| m.name == name) {
            if let MetricValue::Histo(h) = &m.value {
                match merged.as_mut() {
                    None => merged = Some(h.clone()),
                    Some(acc) => {
                        for (a, b) in acc.buckets.iter_mut().zip(h.buckets.iter()) {
                            *a += b;
                        }
                        acc.count += h.count;
                        acc.sum += h.sum;
                        acc.max = acc.max.max(h.max);
                    }
                }
            }
        }
    }
    merged
}

/// Current value of gauge `name` in the first scope whose base is in
/// `scopes`.
pub fn gauge(d: &Snapshot, scopes: &[&str], name: &str) -> f64 {
    d.scopes
        .iter()
        .filter(|s| scopes.contains(&base(&s.name)))
        .find_map(|s| match s.metrics.iter().find(|m| m.name == name)?.value {
            MetricValue::Gauge { value, .. } => Some(value as f64),
            _ => None,
        })
        .unwrap_or(0.0)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One operation as the layers below the client see it.
#[derive(Clone, Copy, Debug)]
pub struct BlockOp {
    pub kind: Kind,
    pub lba: u64,
    pub nlb: u32,
}

impl BlockOp {
    pub fn bytes(&self) -> usize {
        self.nlb as usize * BLOCK
    }
}

/// The fabric parameters that decide which frames an op costs; the
/// values are those of `FabricSettings::default()`.
#[derive(Clone, Copy, Debug)]
pub struct FrameRules {
    /// Payloads up to this size ride shared memory when local.
    pub slot_size: usize,
    pub in_capsule_max: usize,
    pub read_chunk: usize,
    pub local: bool,
}

/// The PDUs the default fabric exchanges for `ops`: command capsules,
/// R2T grants and H2C data for writes past the in-capsule limit, C2H
/// data for reads, and response capsules — slot references instead of
/// inline payloads where shared memory carries the bytes.
pub fn frame_mix(ops: &[BlockOp], rules: FrameRules) -> Vec<Pdu> {
    let mut frames = Vec::new();
    let mut payload = vec![0u8; ops.iter().map(BlockOp::bytes).max().unwrap_or(BLOCK)];
    for (i, op) in ops.iter().enumerate() {
        let cid = (i % 128) as u16;
        let len = op.bytes();
        let shm = rules.local && len <= rules.slot_size;
        let slot = DataRef::ShmSlot {
            slot: (i % 128) as u32,
            len: len as u32,
        };
        if op.kind.is_write() {
            stamp(&mut payload[..len], op.lba, 1);
            let mut cmd = if op.kind == Kind::WriteFua {
                NvmeCommand::write_fua(cid, 1, op.lba, op.nlb)
            } else {
                NvmeCommand::write(cid, 1, op.lba, op.nlb)
            };
            cmd.gseq = i as u32;
            if shm {
                frames.push(Pdu::CapsuleCmd(CapsuleCmd {
                    cmd,
                    data: Some(slot),
                }));
            } else if len <= rules.in_capsule_max {
                frames.push(Pdu::CapsuleCmd(CapsuleCmd {
                    cmd,
                    data: Some(DataRef::Inline(Bytes::copy_from_slice(&payload[..len]))),
                }));
            } else {
                frames.push(Pdu::CapsuleCmd(CapsuleCmd { cmd, data: None }));
                frames.push(Pdu::R2T(R2T {
                    cid,
                    ttag: cid,
                    offset: 0,
                    len: len as u32,
                }));
                frames.push(Pdu::H2CData(DataPdu {
                    cid,
                    ttag: cid,
                    offset: 0,
                    last: true,
                    data: DataRef::Inline(Bytes::copy_from_slice(&payload[..len])),
                }));
            }
        } else {
            let mut cmd = NvmeCommand::read(cid, 1, op.lba, op.nlb);
            cmd.gseq = i as u32;
            frames.push(Pdu::CapsuleCmd(CapsuleCmd { cmd, data: None }));
            if shm {
                frames.push(Pdu::C2HData(DataPdu {
                    cid,
                    ttag: 0,
                    offset: 0,
                    last: true,
                    data: slot,
                }));
            } else {
                stamp(&mut payload[..len], op.lba, 1);
                let mut off = 0;
                while off < len {
                    let n = rules.read_chunk.min(len - off);
                    frames.push(Pdu::C2HData(DataPdu {
                        cid,
                        ttag: 0,
                        offset: off as u32,
                        last: off + n == len,
                        data: DataRef::Inline(Bytes::copy_from_slice(&payload[off..off + n])),
                    }));
                    off += n;
                }
            }
        }
        frames.push(Pdu::CapsuleResp(CapsuleResp {
            completion: NvmeCompletion::ok(cid),
        }));
    }
    frames
}

/// Mean `Pdu::encode_into` and `Pdu::decode_slice` time per frame, in
/// ns, over `frames`, repeated for at least `min_ms`. A frame that
/// fails to decode back to itself is an error.
pub fn replay_pdu(frames: &[Pdu], min_ms: u64) -> Result<(f64, f64), String> {
    let mut dst = BytesMut::with_capacity(1 << 20);
    let (mut enc_ns, mut dec_ns, mut n) = (0u128, 0u128, 0u64);
    let t_all = Instant::now();
    while n == 0 || t_all.elapsed().as_millis() < u128::from(min_ms) {
        for pdu in frames {
            dst.clear();
            let t0 = Instant::now();
            pdu.encode_into(&mut dst);
            let t1 = Instant::now();
            let back = Pdu::decode_slice(std::hint::black_box(&dst[..]));
            let t2 = Instant::now();
            match back {
                Ok(p) if &p == pdu => {}
                _ => return Err("pdu replay: frame did not decode to itself".into()),
            }
            enc_ns += (t1 - t0).as_nanos();
            dec_ns += (t2 - t1).as_nanos();
            n += 1;
        }
    }
    Ok((enc_ns as f64 / n as f64, dec_ns as f64 / n as f64))
}

/// Mean `Controller::execute` (writes) / `read_into` (reads) time per
/// op, in ns, replaying `ops` on `controller` after writing every
/// block the ops touch once.
pub fn replay_controller(mut controller: Controller, ops: &[BlockOp]) -> Result<f64, String> {
    let max = ops.iter().map(BlockOp::bytes).max().unwrap_or(BLOCK);
    let mut buf = vec![0u8; max];
    for op in ops {
        let len = op.bytes();
        stamp(&mut buf[..len], op.lba, 1);
        let (c, _) =
            controller.execute(&NvmeCommand::write(0, 1, op.lba, op.nlb), Some(&buf[..len]));
        if !c.status.is_ok() {
            return Err(format!("controller replay prefill: {:?}", c.status));
        }
    }
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let len = op.bytes();
        let cid = (i % 128) as u16;
        let status = match op.kind {
            Kind::Read => {
                controller
                    .read_into(&NvmeCommand::read(cid, 1, op.lba, op.nlb), &mut buf[..len])
                    .status
            }
            Kind::Write | Kind::WriteFua => {
                let cmd = if op.kind == Kind::WriteFua {
                    NvmeCommand::write_fua(cid, 1, op.lba, op.nlb)
                } else {
                    NvmeCommand::write(cid, 1, op.lba, op.nlb)
                };
                controller.execute(&cmd, Some(&buf[..len])).0.status
            }
        };
        if !status.is_ok() {
            return Err(format!("controller replay: {status:?}"));
        }
    }
    Ok(t0.elapsed().as_nanos() as f64 / ops.len().max(1) as f64)
}

/// A RAM controller of `blocks` blocks.
pub fn ram_controller(blocks: u64) -> Controller {
    let mut c = Controller::new();
    c.add_namespace(Namespace::new(1, BLOCK as u32, blocks));
    c
}

/// A controller over a fresh store on `image` with a `cache`-block cache.
pub fn store_controller(image: &Image, blocks: u64, cache: usize) -> Result<Controller, String> {
    let mut c = Controller::new();
    c.add_namespace(Namespace::with_file(1, image.create(blocks, cache)?));
    Ok(c)
}

/// `FileDisk` service times of `ops` on a fresh store on `image`:
/// `(write_ns, read_ns, reopen_ms)` — mean per write and per read, and
/// the journal-replaying reopen afterwards.
pub fn replay_disk(
    image: &Image,
    blocks: u64,
    cache: usize,
    ops: &[BlockOp],
) -> Result<(f64, f64, f64), String> {
    let err = |e: oaf_ssd::BlockError| format!("disk replay: {e}");
    let mut disk = image.create(blocks, cache)?;
    let max = ops.iter().map(BlockOp::bytes).max().unwrap_or(BLOCK);
    let mut buf = vec![0u8; max];
    for op in ops {
        let len = op.bytes();
        stamp(&mut buf[..len], op.lba, 1);
        disk.write(op.lba, op.nlb, &buf[..len], false)
            .map_err(err)?;
    }
    let (mut w_ns, mut r_ns, mut w, mut r) = (0u128, 0u128, 0u64, 0u64);
    for op in ops {
        let len = op.bytes();
        let t0 = Instant::now();
        if op.kind.is_write() {
            disk.write(op.lba, op.nlb, &buf[..len], op.kind == Kind::WriteFua)
                .map_err(err)?;
            w_ns += t0.elapsed().as_nanos();
            w += 1;
        } else {
            disk.read(op.lba, op.nlb, &mut buf[..len]).map_err(err)?;
            r_ns += t0.elapsed().as_nanos();
            r += 1;
        }
    }
    drop(disk);
    let t0 = Instant::now();
    let reopened = image.open()?;
    let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(reopened);
    Ok((
        ratio(w_ns as f64, w as f64),
        ratio(r_ns as f64, r as f64),
        reopen_ms,
    ))
}

/// Slicing-by-8 CRC32 cost in ns per KiB over `len`-byte buffers.
pub fn replay_crc(len: usize, min_ms: u64) -> f64 {
    let mut buf = vec![0u8; len];
    stamp(&mut buf[..len / BLOCK * BLOCK], 0, 1);
    let (mut n, mut acc) = (0u64, 0u32);
    let t0 = Instant::now();
    while n == 0 || t0.elapsed().as_millis() < u128::from(min_ms) {
        acc ^= oaf_store::crc32::crc32(std::hint::black_box(&buf));
        n += 1;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / (n as f64 * len as f64 / 1024.0)
}
