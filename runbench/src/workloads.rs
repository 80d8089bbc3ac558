//! The three workloads, their timed and traced runs, and the figures
//! each run reports.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use oaf_core::conn::FabricSettings;
use oaf_core::runtime::AfClient;
use oaf_h5::format::Extent;
use oaf_h5::kernel::{run_read, run_write, KernelConfig};
use oaf_h5::vol::{BlockExtent, H5Vol};
use oaf_h5::H5Error;
use oaf_telemetry::{Registry, Snapshot};

use crate::alloc;
use crate::fabric::{
    drain, establish, pump, sweep, verify_reopened, Backend, Clock, Fabric, Image,
};
use crate::harness::{Book, Kind, LatencyLog, Mode, Shape, BLOCK};
use crate::layers::{self, ratio, sum, BlockOp, FrameRules};
use crate::report::{metric, peak_rss_mib, Metric};
use crate::trace::{median, SpanKind, Spans};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["tcp-mixed-16k", "store-memdev-fua-mixed-16k", "h5-config2"];

/// Rounds of a timed run (h5: its fewest cycles). Each round sets up a
/// fresh fabric (timed: `setup_s` is the median), measures its share of
/// the window, verifies and tears down, so no one fabric's luck decides
/// the figures.
const ROUNDS: usize = 5;

const MIB: f64 = (1u64 << 20) as f64;

/// One invocation's parameters.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizes: small spans, one set-up, short warm-up.
    pub short: bool,
}

/// What a run found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra fields of the run record, as `(key, JSON value)`.
    pub info: Vec<(&'static str, String)>,
}

/// Runs `args.workload`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = work_dir()?;
    if args.workload == "h5-config2" {
        return run_h5(args, &dir);
    }
    let (shape, backend) = block_spec(&args.workload, args.short).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?}",
            args.workload
        )
    })?;
    run_block(args, shape, backend, &dir)
}

/// Scratch space for span files, inside the benchmark's own directory.
fn work_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("work dir {}: {e}", dir.display()))?;
    Ok(dir)
}

fn block_spec(name: &str, short: bool) -> Option<(Shape, Backend)> {
    let span: u64 = if short { 4 << 20 } else { 64 << 20 };
    let ram_blocks = if short { span } else { 256 << 20 } / BLOCK as u64;
    let slots = |op: u64, clients: u64| (span / clients / op) as u32;
    match name {
        "tcp-mixed-16k" => Some((
            Shape {
                op_bytes: 16384,
                clients: 1,
                qd: 4,
                slots_per_client: slots(16384, 1),
                read_pct: 50,
                fua_every: 0,
                hot_slots: 0,
                hot_pct: 0,
            },
            Backend::Ram {
                local: false,
                blocks: ram_blocks,
            },
        )),
        // Each client's hot region is 1/32 of the span (2 MiB of 64):
        // both fit the 8 MiB cache, the span does not.
        "store-memdev-fua-mixed-16k" => Some((
            Shape {
                op_bytes: 16384,
                clients: 2,
                qd: 8,
                slots_per_client: slots(16384, 2),
                read_pct: 70,
                fua_every: 4,
                hot_slots: (span / 32 / 16384) as u32,
                hot_pct: 80,
            },
            Backend::Store {
                blocks: span / BLOCK as u64,
                cache_blocks: 2048,
            },
        )),
        _ => None,
    }
}

/// Most operations a layer replay times.
const REPLAY_SAMPLE: usize = 1000;

/// Operations per contiguous run of the replay sample. Runs keep short
/// repeating patterns whole (h5 sends each write as read, write, read,
/// write), which a sample of every n-th op could miss entirely.
const SAMPLE_RUN: usize = 8;

/// At most [`REPLAY_SAMPLE`] of `ops`: runs of [`SAMPLE_RUN`] spread
/// evenly over them.
fn sample(ops: &[BlockOp]) -> Vec<BlockOp> {
    if ops.len() <= REPLAY_SAMPLE {
        return ops.to_vec();
    }
    let runs = REPLAY_SAMPLE / SAMPLE_RUN;
    let stride = ops.len() / runs;
    (0..runs)
        .flat_map(|i| &ops[i * stride..i * stride + SAMPLE_RUN])
        .copied()
        .collect()
}

/// How far the replayed frame mix's frames per op may stray from the
/// runtime's own count before the traced run fails. The block
/// workloads replay the first 4 000 ops of their stream, not the traced
/// window's, which moves the figure by about 0.5 %; a change in how the
/// transport frames an op moves it by a tenth or more.
const FRAME_MIX_TOLERANCE: f64 = 0.02;

fn ns(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

fn median_f(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Interquartile mean: the mean of the middle half of `v` (sorted in
/// place). One disturbed second cannot move it, and it follows a host
/// whose speed drifts during a run rather than jumping between modes.
fn iqm(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Runs one measured window of `secs`; returns its length in seconds.
fn window(fab: &mut Fabric, book: &mut Book, clock: &Clock, secs: f64) -> Result<f64, String> {
    book.begin_window();
    let t0 = clock.now();
    pump(fab, book, clock, t0 + ns(secs))?;
    book.counting = false;
    Ok((clock.now() - t0) as f64 / 1e9)
}

/// Figures of one sub-window: MiB/s, then read p50/p90/p99 and write
/// p50/p90/p99 in µs.
type Sub = [f64; 7];

fn sub(mib: f64, r: [f64; 3], w: [f64; 3]) -> Sub {
    [mib, r[0], r[1], r[2], w[0], w[1], w[2]]
}

/// Runs the timed window as `seconds` back-to-back sub-windows of about
/// a second each and returns each one's figures.
fn subwindows(
    fab: &mut Fabric,
    book: &mut Book,
    clock: &Clock,
    seconds: f64,
) -> Result<Vec<Sub>, String> {
    let n = seconds.round().max(1.0) as u64;
    let step = ns(seconds) / n;
    book.begin_window();
    let t0 = clock.now();
    let mut mark = (t0, 0u64, 0usize, 0usize);
    let mut out = Vec::with_capacity(n as usize);
    for i in 1..=n {
        pump(fab, book, clock, t0 + i * step)?;
        let now = (
            clock.now(),
            book.window.bytes,
            book.reads.len(),
            book.writes.len(),
        );
        let r = book.reads.percentiles_us(mark.2, now.2);
        let w = book.writes.percentiles_us(mark.3, now.3);
        let mib = (now.1 - mark.1) as f64 / MIB / ((now.0 - mark.0) as f64 / 1e9);
        out.push(sub(mib, r, w));
        mark = now;
    }
    book.counting = false;
    Ok(out)
}

/// The end-to-end metrics: the interquartile mean of each figure over
/// the sub-windows. p99 goes to the run record beside the sample counts:
/// it is reported, but too noisy here to bound (see README.md).
fn end_to_end(
    subs: &[Sub],
    reads: usize,
    writes: usize,
    info: &mut Vec<(&'static str, String)>,
) -> Vec<Metric> {
    let med = |i: usize| iqm(&mut subs.iter().map(|s| s[i]).collect::<Vec<_>>());
    let names = [
        "mib_s",
        "read_p50_us",
        "read_p90_us",
        "read_p99_us",
        "write_p50_us",
        "write_p90_us",
        "write_p99_us",
    ];
    for (i, name) in names.iter().enumerate() {
        let v: Vec<String> = subs.iter().map(|s| format!("{:.0}", s[i])).collect();
        println!("sub-windows {name}: {}", v.join(" "));
    }
    info.push(("subwindows", subs.len().to_string()));
    info.push(("read_samples", reads.to_string()));
    info.push(("write_samples", writes.to_string()));
    info.push(("read_p99_us", format!("{}", med(3))));
    info.push(("write_p99_us", format!("{}", med(6))));
    vec![
        metric("mib_s", med(0), "MiB/s"),
        metric("read_p50_us", med(1), "us"),
        metric("read_p90_us", med(2), "us"),
        metric("write_p50_us", med(4), "us"),
        metric("write_p90_us", med(5), "us"),
    ]
}

fn run_block(args: &Args, shape: Shape, backend: Backend, dir: &Path) -> Result<Outcome, String> {
    let clock = Clock::start();
    let stream_len = if args.short { 1 << 14 } else { 1 << 20 };
    let samples = (args.seconds.ceil() as usize + 2) * 400_000 + shape.total_slots() as usize;
    let mut book = Book::new(shape, args.seed, stream_len, samples);

    let rounds = if args.trace || args.short { 1 } else { ROUNDS };
    let warm = if args.short { 0.2 } else { 0.5 };
    let mut setup_s = Vec::with_capacity(rounds);
    let mut subs = Vec::new();
    let mut info = Vec::new();
    let mut traced = None;
    let (mut readback, mut reopened, mut reopen_ms) = (0, 0, None);
    let mut samples = (0, 0);
    for _ in 0..rounds {
        let t0 = Instant::now();
        let mut fab = establish(backend, shape.clients)?;
        book.shadow.reset();
        book.writes.clear();
        sweep(&mut fab, &mut book, &clock, Mode::Prefill)?;
        // The prefill is made durable before timing starts, so the first
        // barriers of the window do not flush it.
        fab.clients[0]
            .flush(1, Duration::from_secs(30))
            .map_err(|e| format!("flush after prefill: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());

        book.set_mode(Mode::Stream);
        pump(&mut fab, &mut book, &clock, clock.now() + ns(warm))?;
        if args.trace {
            let half = args.seconds / 2.0;
            let secs_u = window(&mut fab, &mut book, &clock, half)?;
            let mib_u = book.window.bytes as f64 / MIB / secs_u;
            let cap = ((book.window.completed as f64 * 8.0) as usize + 65_536).min(8 << 20);
            book.spans = Some(Spans::with_capacity(cap));
            let s0 = fab.telemetry.snapshot();
            alloc::arm();
            let secs_t = window(&mut fab, &mut book, &clock, half)?;
            let allocs = alloc::disarm();
            let s1 = fab.telemetry.snapshot();
            let spans = book.spans.take().expect("spans armed above");
            traced = Some((mib_u, secs_t, s0, s1, allocs, spans, book.window));
        } else {
            subs.extend(subwindows(
                &mut fab,
                &mut book,
                &clock,
                args.seconds / rounds as f64,
            )?);
            samples.0 += book.reads.len();
            samples.1 += book.writes.len();
            let dropped = book.reads.dropped + book.writes.dropped;
            if dropped > 0 {
                return Err(format!("{dropped} latency samples past the log's capacity"));
            }
        }

        drain(&mut fab, &mut book, &clock, Duration::from_secs(10))?;
        let before = book.verified_reads;
        sweep(&mut fab, &mut book, &clock, Mode::Readback)?;
        readback += book.verified_reads - before;
        if let Some(image) = fab.teardown()? {
            let (t, n) = verify_reopened(&mut book, &image)?;
            reopen_ms = Some(t.as_secs_f64() * 1e3);
            reopened += n;
        }
    }
    info.push(("readback_verified", readback.to_string()));
    if reopened > 0 {
        info.push(("reopen_verified", reopened.to_string()));
    }

    let mut metrics;
    if let Some((mib_u, secs_t, s0, s1, allocs, mut spans, win)) = traced {
        let cache = match backend {
            Backend::Store { cache_blocks, .. } => Some(cache_blocks),
            Backend::Ram { .. } => None,
        };
        let remote = matches!(backend, Backend::Ram { local: false, .. });
        let mut r = replay(
            &replay_ops(&book, 4000),
            cache,
            remote,
            shape.op_bytes,
            &mut spans,
            &clock,
        )?;
        // The store's own reopen replays the journal the workload wrote.
        if let Some(ms) = reopen_ms {
            r.replay_ms = ms;
        }
        let mut submit = spans.durations(SpanKind::Submit);
        let mut poll = spans.durations(SpanKind::Poll);
        let x = LayerInputs {
            d: s1.delta(&s0),
            cum: s1,
            window_s: secs_t,
            bytes: win.bytes,
            submit_ns: median(&mut submit) as f64,
            poll_ns: median(&mut poll) as f64,
            polls: win.polls,
            empty_polls: win.empty_polls,
            allocs,
            replays: r,
            extent_calls: 0,
            rmw_reads: 0,
            extent_writes: 0,
            untraced_mib_s: mib_u,
        };
        metrics = per_layer(&x, &mut info)?;
        write_spans(dir, &args.workload, &spans, &mut info);
    } else {
        metrics = end_to_end(&subs, samples.0, samples.1, &mut info);
        metrics.push(metric("setup_s", median_f(&mut setup_s), "s"));
        metrics.push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
    }
    info.push(("verified_reads", book.verified_reads.to_string()));
    info.push(("setups", setup_s.len().to_string()));
    Ok(Outcome {
        correct: book.failed == 0,
        attempted: book.attempted,
        failed: book.failed,
        metrics,
        info,
    })
}

/// The first `n` operations of the workload's streams, as the layers
/// below the client see them.
fn replay_ops(book: &Book, n: usize) -> Vec<BlockOp> {
    let shape = book.shape;
    let per = n / shape.clients;
    (0..shape.clients)
        .flat_map(|c| book.stream(c).iter().take(per).copied())
        .map(|op| BlockOp {
            kind: op.kind,
            lba: shape.lba(op.slot),
            nlb: shape.nlb(),
        })
        .collect()
}

/// Results of the layer replays.
#[derive(Clone, Copy, Debug, Default)]
struct Replays {
    pdu: (f64, f64),
    /// Frames per op of the replayed frame mix.
    mix_frames_per_op: f64,
    exec_ns: f64,
    crc_ns_per_kib: f64,
    disk_write_ns: f64,
    disk_read_ns: f64,
    replay_ms: f64,
}

/// Replays a sample of `ops` through the PDU codec (the frames the
/// default fabric exchanges for them, `remote` or local), on a fresh
/// controller like the workload's (RAM, or a store with a `cache`-block
/// cache), on a bare `FileDisk`, and through the CRC. Store images are
/// in-memory [`Image`]s like the store workload's.
fn replay(
    ops: &[BlockOp],
    cache: Option<usize>,
    remote: bool,
    op_bytes: usize,
    spans: &mut Spans,
    clock: &Clock,
) -> Result<Replays, String> {
    let ops_total = ops.len();
    let mut timed = |kind: SpanKind, t0: u64| spans.push(kind, 0, 0, t0, clock.now() - t0);
    let s = FabricSettings::default();
    let rules = FrameRules {
        slot_size: s.slot_size,
        in_capsule_max: s.in_capsule_max,
        read_chunk: s.read_chunk,
        local: !remote,
    };
    // Frames are counted over every op (a chunk at a time, so large
    // payloads are never all held at once); the replays time a sample.
    let mix_frames: usize = ops
        .chunks(256)
        .map(|c| layers::frame_mix(c, rules).len())
        .sum();
    let ops = &sample(ops)[..];
    let t0 = clock.now();
    let pdu = layers::replay_pdu(&layers::frame_mix(ops, rules), 50)?;
    timed(SpanKind::ReplayPdu, t0);
    let blocks = ops
        .iter()
        .map(|o| o.lba + u64::from(o.nlb))
        .max()
        .unwrap_or(1);
    let t0 = clock.now();
    let controller = match cache {
        None => layers::ram_controller(blocks),
        Some(cache) => layers::store_controller(&Image::fresh(), blocks, cache)?,
    };
    let exec_ns = layers::replay_controller(controller, ops)?;
    timed(SpanKind::ReplayController, t0);
    let t0 = clock.now();
    let (disk_write_ns, disk_read_ns, replay_ms) =
        layers::replay_disk(&Image::fresh(), blocks, 2048, ops)?;
    timed(SpanKind::ReplayDisk, t0);
    let t0 = clock.now();
    let crc_ns_per_kib = layers::replay_crc(op_bytes, 50);
    timed(SpanKind::ReplayCrc, t0);
    Ok(Replays {
        pdu,
        mix_frames_per_op: ratio(mix_frames as f64, ops_total as f64),
        exec_ns,
        crc_ns_per_kib,
        disk_write_ns,
        disk_read_ns,
        replay_ms,
    })
}

fn write_spans(dir: &Path, workload: &str, spans: &Spans, info: &mut Vec<(&'static str, String)>) {
    let path = dir.join(format!("spans-{workload}.csv"));
    match spans.write_csv(&path) {
        Ok(()) => info.push((
            "spans_file",
            crate::report::json_str(&path.display().to_string()),
        )),
        Err(e) => eprintln!("runbench: writing spans: {e}"),
    }
    info.push(("spans", spans.spans().len().to_string()));
    info.push(("spans_dropped", spans.dropped.to_string()));
}

/// Everything the per-layer figures are computed from.
struct LayerInputs {
    /// Telemetry delta over the traced window, and the snapshot at its
    /// end (for gauges).
    d: Snapshot,
    cum: Snapshot,
    window_s: f64,
    bytes: u64,
    submit_ns: f64,
    poll_ns: f64,
    polls: u64,
    empty_polls: u64,
    allocs: u64,
    replays: Replays,
    extent_calls: u64,
    rmw_reads: u64,
    extent_writes: u64,
    untraced_mib_s: f64,
}

const CLIENT: &[&str] = &["client"];
const TRANSPORT: &[&str] = &["transport_client", "transport_target"];
const TCP: &[&str] = &["tcp_client", "tcp_target"];
const TARGET: &[&str] = &["target", "target_conn"];
const BUFMGR: &[&str] = &["bufmgr_client", "bufmgr_target"];
const STORE: &[&str] = &["store_ns"];

fn per_layer(
    x: &LayerInputs,
    info: &mut Vec<(&'static str, String)>,
) -> Result<Vec<Metric>, String> {
    let d = &x.d;
    let ops = sum(d, CLIENT, "completions") as f64;
    let per_op = |v: u64| ratio(v as f64, ops);
    let per_kop = |v: u64| ratio(v as f64 * 1000.0, ops);
    let p99_us = |scopes: &[&str], name: &str| {
        layers::histo(d, scopes, name).map_or(0.0, |h| {
            if h.count == 0 {
                0.0
            } else {
                h.p99() as f64 / 1e3
            }
        })
    };
    let frames = sum(d, &["transport_client"], "frames_sent")
        + sum(d, &["transport_client"], "frames_received");
    let frames_per_op = per_op(frames);
    let batch = layers::histo(d, TRANSPORT, "batch_sizes").map_or(0.0, |h| h.mean());
    let shm = sum(d, TARGET, "shm_payloads") as f64;
    let inline = sum(d, TARGET, "inline_payloads") as f64;
    let hits = sum(d, STORE, "cache_hits") as f64;
    let misses = sum(d, STORE, "cache_misses") as f64;
    let barriers = (sum(d, STORE, "barriers_inline") + sum(d, STORE, "barriers_offloaded")) as f64;
    let r = x.replays;
    let polls_per_op = ratio(x.polls as f64, ops);
    let op_ns = ratio(x.window_s * 1e9, ops);
    let layer_sum =
        x.submit_ns + x.poll_ns * polls_per_op + (r.pdu.0 + r.pdu.1) * frames_per_op + r.exec_ns;
    let traced_mib = x.bytes as f64 / MIB / x.window_s;
    let m = vec![
        metric("core.runtime.submit_ns", x.submit_ns, "ns"),
        metric("core.runtime.poll_ns", x.poll_ns, "ns"),
        metric(
            "core.runtime.empty_poll_ratio",
            ratio(x.empty_polls as f64, (x.empty_polls + x.polls) as f64),
            "ratio",
        ),
        metric("core.runtime.allocs_per_op", per_op(x.allocs), "count"),
        metric(
            "nvmeof.initiator.retries",
            sum(d, CLIENT, "retries") as f64,
            "count",
        ),
        metric(
            "nvmeof.initiator.timeouts",
            sum(d, CLIENT, "timeouts") as f64,
            "count",
        ),
        metric(
            "nvmeof.initiator.degradations",
            sum(d, CLIENT, "degradations") as f64,
            "count",
        ),
        metric("nvmeof.transport.frames_per_op", frames_per_op, "count"),
        metric("nvmeof.transport.batch_mean", batch, "count"),
        metric(
            "nvmeof.transport.backoff_yields_per_op",
            per_op(sum(d, TRANSPORT, "backoff_yields")),
            "count",
        ),
        metric(
            "nvmeof.tcp.tx_syscalls_per_op",
            per_op(sum(d, TCP, "tx_syscalls")),
            "count",
        ),
        metric(
            "nvmeof.tcp.rx_syscalls_per_op",
            per_op(sum(d, TCP, "rx_syscalls")),
            "count",
        ),
        metric(
            "nvmeof.tcp.busy_poll_read_us",
            layers::gauge(&x.cum, CLIENT, "busy_poll_read_us"),
            "us",
        ),
        metric(
            "nvmeof.tcp.busy_poll_write_us",
            layers::gauge(&x.cum, CLIENT, "busy_poll_write_us"),
            "us",
        ),
        metric(
            "nvmeof.tcp.partial_writes_per_kop",
            per_kop(sum(d, TCP, "partial_write_resumptions")),
            "count",
        ),
        metric("nvmeof.pdu.encode_ns", r.pdu.0, "ns"),
        metric("nvmeof.pdu.decode_ns", r.pdu.1, "ns"),
        metric(
            "nvmeof.target.r2t_per_write",
            ratio(
                sum(d, TARGET, "r2t_grants") as f64,
                sum(d, &["app"], "writes") as f64,
            ),
            "count",
        ),
        metric(
            "nvmeof.target.shm_payload_ratio",
            ratio(shm, shm + inline),
            "ratio",
        ),
        metric(
            "nvmeof.target.copies_avoided_per_op",
            per_op(sum(d, TARGET, "copies_avoided")),
            "count",
        ),
        metric(
            "nvmeof.target.barrier_park_us_p99",
            p99_us(TARGET, "barrier_park_ns"),
            "us",
        ),
        metric(
            "nvmeof.shard.ops_per_poll",
            ratio(
                sum(d, &["reactor"], "ops") as f64,
                sum(d, &["reactor"], "polls") as f64,
            ),
            "count",
        ),
        metric("nvmeof.controller.exec_ns", r.exec_ns, "ns"),
        metric(
            "shmem.bufmgr.leases_per_op",
            per_op(sum(d, BUFMGR, "leases")),
            "count",
        ),
        metric(
            "shmem.bufmgr.lease_denied",
            sum(d, BUFMGR, "lease_denied") as f64,
            "count",
        ),
        metric("store.crc32.ns_per_kib", r.crc_ns_per_kib, "ns/KiB"),
        metric(
            "store.log.journal_bytes_per_user_byte",
            ratio(
                sum(d, STORE, "log_bytes") as f64,
                sum(d, &["app"], "bytes_written") as f64,
            ),
            "ratio",
        ),
        metric(
            "store.commit.fsyncs_per_barrier",
            ratio(sum(d, STORE, "fsyncs") as f64, barriers),
            "ratio",
        ),
        metric("store.commit.fsync_us_p99", p99_us(STORE, "fsync_ns"), "us"),
        metric("store.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "store.cache.evictions_per_kop",
            per_kop(sum(d, STORE, "cache_evictions")),
            "count",
        ),
        metric(
            "store.disk.checkpoints_per_kop",
            per_kop(sum(d, STORE, "checkpoints")),
            "count",
        ),
        metric("store.disk.write_ns", r.disk_write_ns, "ns"),
        metric("store.disk.read_ns", r.disk_read_ns, "ns"),
        metric("store.disk.replay_ms", r.replay_ms, "ms"),
        metric(
            "h5.vol.extent_calls_per_mib",
            ratio(x.extent_calls as f64, x.bytes as f64 / MIB),
            "count/MiB",
        ),
        metric(
            "h5.vol.rmw_reads_per_write",
            ratio(x.rmw_reads as f64, x.extent_writes as f64),
            "ratio",
        ),
        metric("recon.op_ns", op_ns, "ns"),
        metric("recon.layer_sum_ns", layer_sum, "ns"),
        metric(
            "recon.unexplained_ratio",
            1.0 - ratio(layer_sum, op_ns),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(x.untraced_mib_s, traced_mib),
            "ratio",
        ),
    ];
    info.push(("traced_ops", (ops as u64).to_string()));
    info.push(("mix_frames_per_op", format!("{}", r.mix_frames_per_op)));
    println!(
        "recon: op_ns {op_ns:.0} = layer_sum_ns {layer_sum:.0} [submit {:.0} + poll {:.0} x {polls_per_op:.3}/op \
         + pdu ({:.0}+{:.0}) x {frames_per_op:.2} frames/op + controller {:.0}] + unexplained {:.1}%; \
         traced {traced_mib:.1} vs untraced {:.1} MiB/s",
        x.submit_ns,
        x.poll_ns,
        r.pdu.0,
        r.pdu.1,
        r.exec_ns,
        (1.0 - ratio(layer_sum, op_ns)) * 100.0,
        x.untraced_mib_s,
    );
    // The mix is built from the transport's framing rules as this
    // benchmark knows them (`layers::frame_mix`); if the transport frames
    // ops differently, the per-frame codec costs describe frames it no
    // longer sends.
    println!(
        "frames/op: runtime {frames_per_op:.3}, replayed mix {:.3}",
        r.mix_frames_per_op
    );
    if (r.mix_frames_per_op - frames_per_op).abs() > FRAME_MIX_TOLERANCE * frames_per_op {
        return Err(format!(
            "the replayed frame mix makes {:.3} frames per op, the runtime {frames_per_op:.3}: \
             layers::frame_mix no longer matches the transport's framing",
            r.mix_frames_per_op
        ));
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// h5-config2

/// What the timed extent saw. Shared with the runner so it outlives an
/// extent lost to a failed kernel.
struct ExtentLog {
    clock: Clock,
    reads: LatencyLog,
    writes: LatencyLog,
    counting: bool,
    calls_r: u64,
    calls_w: u64,
    spans: Option<Spans>,
    /// The traced cycle's calls, as (write, offset, length).
    calls: Option<Vec<(bool, u64, u64)>>,
}

impl ExtentLog {
    fn note(&mut self, kind: SpanKind, offset: u64, len: usize, t0: u64, t1: u64) {
        let write = kind == SpanKind::ExtentWrite;
        if let Some(calls) = self.calls.as_mut() {
            calls.push((write, offset, len as u64));
        }
        if write {
            self.calls_w += 1;
        } else {
            self.calls_r += 1;
        }
        if self.counting {
            if write {
                &mut self.writes
            } else {
                &mut self.reads
            }
            .record(t1 - t0);
        }
        let seq = self.calls_r + self.calls_w;
        if let Some(spans) = self.spans.as_mut() {
            spans.push(kind, seq, 0, t0, t1 - t0);
        }
    }
}

/// The benchmark's timing `Extent`: the h5 VOL's block extent behind a
/// timer on every `read_at` / `write_at` the container makes.
struct TimedExtent {
    inner: BlockExtent,
    log: Rc<RefCell<ExtentLog>>,
}

impl Extent for TimedExtent {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), H5Error> {
        let t0 = self.log.borrow().clock.now();
        let r = self.inner.read_at(offset, buf);
        let mut log = self.log.borrow_mut();
        let t1 = log.clock.now();
        log.note(SpanKind::ExtentRead, offset, buf.len(), t0, t1);
        r
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<(), H5Error> {
        let t0 = self.log.borrow().clock.now();
        let r = self.inner.write_at(offset, buf);
        let mut log = self.log.borrow_mut();
        let t1 = log.clock.now();
        log.note(SpanKind::ExtentWrite, offset, buf.len(), t0, t1);
        r
    }
}

/// config-2, one timestep per cycle: 1 024 extent calls per phase
/// (8 datasets × 128 pieces). A timed run makes at least [`ROUNDS`]
/// cycles, each on its own fabric; more cycles of one timestep measure
/// steadier than fewer of two.
fn h5_config(short: bool) -> KernelConfig {
    let cfg = KernelConfig::config2();
    if short {
        KernelConfig {
            particles: 256 * 1024,
            ..cfg
        }
    } else {
        cfg
    }
}

/// Totals of the h5 cycles run in one window, and each cycle's figures.
#[derive(Default)]
struct H5Window {
    bytes: u64,
    secs: f64,
    rmw_reads: u64,
    extent_writes: u64,
    verified_reads: u64,
    setup_s: Vec<f64>,
    cycles: Vec<Sub>,
}

/// Telemetry around a traced cycle's kernels, the allocations made
/// meanwhile, and the client's largest buffer (it decides how
/// `BlockExtent` splits writes).
struct H5Trace {
    s0: Snapshot,
    s1: Snapshot,
    allocs: u64,
    max_buffer: usize,
}

/// One h5bench cycle on a fresh fabric: a zero prefill, a fresh
/// container, the write kernel, then the read kernel with
/// `verify = true`. The namespace holds only zeros and no pattern byte
/// is zero, so a write the runtime drops fails the read kernel's check;
/// no earlier cycle's identical bytes can stand in for it. With
/// `trace`, also returns the telemetry and allocations of the kernels.
fn h5_cycle(
    cfg: &KernelConfig,
    log: &Rc<RefCell<ExtentLog>>,
    w: &mut H5Window,
    trace: bool,
) -> Result<Option<H5Trace>, String> {
    let t0 = Instant::now();
    let blocks = (cfg.total_bytes() + (1 << 20)).div_ceil(BLOCK as u64);
    let mut fab = establish(
        Backend::Ram {
            local: true,
            blocks,
        },
        1,
    )?;
    let mut client = fab.clients.pop().expect("one client");
    zero_fill(&mut client, blocks)?;
    let max_buffer = client.max_buffer();
    let inner = BlockExtent::new(client, 1).map_err(|e| format!("block extent: {e}"))?;
    w.setup_s.push(t0.elapsed().as_secs_f64());
    let ext = TimedExtent {
        inner,
        log: log.clone(),
    };
    let s0 = fab.telemetry.snapshot();
    if trace {
        alloc::arm();
    }
    let result = h5_kernels(ext, cfg, &fab.telemetry, w);
    let allocs = if trace { alloc::disarm() } else { 0 };
    let s1 = fab.telemetry.snapshot();
    fab.teardown()?;
    result?;
    Ok(trace.then_some(H5Trace {
        s0,
        s1,
        allocs,
        max_buffer,
    }))
}

/// Writes zeros over the first `blocks` blocks of namespace 1, one
/// shared-memory slot at a time. The namespace reads zeros already; the
/// point is that the target touches every page of its memory before the
/// kernels run, as the block workloads' prefill does, so the kernels'
/// figures do not include first-touch page faults.
fn zero_fill(client: &mut AfClient, blocks: u64) -> Result<(), String> {
    let per = (FabricSettings::default().slot_size / BLOCK) as u64;
    let mut lba = 0;
    while lba < blocks {
        let nlb = per.min(blocks - lba);
        let mut buf = client
            .alloc(nlb as usize * BLOCK)
            .map_err(|e| format!("zero fill: {e}"))?;
        buf.fill(0);
        client
            .write(1, lba, nlb as u32, buf, Duration::from_secs(10))
            .map_err(|e| format!("zero fill: {e}"))?;
        lba += nlb;
    }
    Ok(())
}

/// The write kernel then the verifying read kernel on a fresh container
/// over `ext`; adds their figures to `w`.
fn h5_kernels(
    ext: TimedExtent,
    cfg: &KernelConfig,
    telemetry: &Registry,
    w: &mut H5Window,
) -> Result<(), String> {
    let log = ext.log.clone();
    let hint = Rc::new(Cell::new(1usize));
    let marks = (log.borrow().reads.len(), log.borrow().writes.len());
    let t0 = Instant::now();
    let mut vol = H5Vol::create(ext).map_err(|e| format!("h5 container: {e}"))?;
    let reads0 = sum(&telemetry.snapshot(), &["app"], "reads");
    let writes0 = log.borrow().calls_w;
    let wr = run_write(&mut vol, cfg, &hint).map_err(|e| format!("h5 write kernel: {e}"))?;
    w.rmw_reads += sum(&telemetry.snapshot(), &["app"], "reads") - reads0;
    w.extent_writes += log.borrow().calls_w - writes0;
    let reads0 = log.borrow().calls_r;
    let rd = run_read(&mut vol, cfg, &hint, true).map_err(|e| format!("h5 read kernel: {e}"))?;
    w.verified_reads += log.borrow().calls_r - reads0;
    let secs = t0.elapsed().as_secs_f64();
    w.secs += secs;
    w.bytes += wr.bytes + rd.bytes;
    let mut l = log.borrow_mut();
    let (r_end, w_end) = (l.reads.len(), l.writes.len());
    let r = l.reads.percentiles_us(marks.0, r_end);
    let wl = l.writes.percentiles_us(marks.1, w_end);
    w.cycles
        .push(sub((wr.bytes + rd.bytes) as f64 / MIB / secs, r, wl));
    Ok(())
}

/// Runs untraced h5 cycles until `secs` have passed and at least
/// `min_cycles` cycles are done.
fn h5_window(
    cfg: &KernelConfig,
    log: &Rc<RefCell<ExtentLog>>,
    secs: f64,
    min_cycles: usize,
) -> Result<H5Window, String> {
    let mut w = H5Window::default();
    let t0 = Instant::now();
    while w.cycles.len() < min_cycles || t0.elapsed().as_secs_f64() < secs {
        h5_cycle(cfg, log, &mut w, false)?;
    }
    Ok(w)
}

fn run_h5(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let cfg = h5_config(args.short);
    let samples = 4 * 1024 * (args.seconds.ceil() as usize + 8);
    let log = Rc::new(RefCell::new(ExtentLog {
        clock: Clock::start(),
        reads: LatencyLog::with_capacity(samples),
        writes: LatencyLog::with_capacity(samples),
        counting: !args.trace,
        calls_r: 0,
        calls_w: 0,
        spans: None,
        calls: None,
    }));

    let mut info = Vec::new();
    let outcome = if args.trace {
        h5_traced(&cfg, args, dir, &log, &mut info)
    } else {
        let min_cycles = if args.short { 1 } else { ROUNDS };
        h5_window(&cfg, &log, args.seconds, min_cycles).map(|mut w| {
            let l = log.borrow();
            let mut m = end_to_end(&w.cycles, l.reads.len(), l.writes.len(), &mut info);
            m.push(metric("setup_s", median_f(&mut w.setup_s), "s"));
            m.push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
            info.push(("setups", w.setup_s.len().to_string()));
            (m, w.verified_reads)
        })
    };
    let (metrics, verified) = outcome.unwrap_or_else(|e| {
        eprintln!("runbench: {e}");
        (Vec::new(), 0)
    });
    let failed = u64::from(metrics.is_empty());
    let l = log.borrow();
    info.push(("verified_reads", verified.to_string()));
    Ok(Outcome {
        correct: failed == 0,
        attempted: (l.calls_r + l.calls_w).max(1),
        failed,
        metrics,
        info,
    })
}

/// The traced h5 run: untraced cycles for half the window, then one
/// traced cycle, then the layer replays. Returns the per-layer metrics
/// and the verified reads.
fn h5_traced(
    cfg: &KernelConfig,
    args: &Args,
    dir: &Path,
    log: &Rc<RefCell<ExtentLog>>,
    info: &mut Vec<(&'static str, String)>,
) -> Result<(Vec<Metric>, u64), String> {
    let wu = h5_window(cfg, log, args.seconds / 2.0, 1)?;
    let mib_u = wu.bytes as f64 / MIB / wu.secs;
    let calls0 = {
        let mut l = log.borrow_mut();
        // Room for at least one more cycle's calls than were made so far.
        let room = (l.calls_r + l.calls_w) as usize * 2 + 4096;
        l.spans = Some(Spans::with_capacity(room));
        l.calls = Some(Vec::with_capacity(room));
        l.calls_r + l.calls_w
    };
    let mut wt = H5Window::default();
    let t = h5_cycle(cfg, log, &mut wt, true)?.expect("a traced cycle returns its trace");
    let (mut spans, extent_calls, calls) = {
        let mut l = log.borrow_mut();
        (
            l.spans.take().expect("spans armed above"),
            l.calls.take().expect("calls armed above"),
            l.calls_r + l.calls_w - calls0,
        )
    };

    let clock = log.borrow().clock;
    let r = replay(
        &h5_block_ops(&extent_calls, t.max_buffer as u64),
        None,
        false,
        cfg.h5d_buffer as usize,
        &mut spans,
        &clock,
    )?;
    let x = LayerInputs {
        d: t.s1.delta(&t.s0),
        cum: t.s1,
        window_s: wt.secs,
        bytes: wt.bytes,
        submit_ns: 0.0,
        poll_ns: 0.0,
        polls: 0,
        empty_polls: 0,
        allocs: t.allocs,
        replays: r,
        extent_calls: calls,
        rmw_reads: wt.rmw_reads,
        extent_writes: wt.extent_writes,
        untraced_mib_s: mib_u,
    };
    let metrics = per_layer(&x, info)?;
    write_spans(dir, &args.workload, &spans, info);
    info.push(("setups", (wu.setup_s.len() + 1).to_string()));
    Ok((metrics, wu.verified_reads + wt.verified_reads))
}

/// The block commands `BlockExtent` sends for the extent `calls`
/// (write, offset, length): one read per read call; per write call, in
/// parts that end `max_buffer` bytes past the block the part starts in,
/// a read of each part whose blocks it does not cover whole
/// (read-modify-write), then the part's write. The traced run fails if
/// the frames these make per op stray from the runtime's count.
fn h5_block_ops(calls: &[(bool, u64, u64)], max_buffer: u64) -> Vec<BlockOp> {
    let b = BLOCK as u64;
    let max_span = max_buffer / b * b;
    let op = |kind, start: u64, end: u64| BlockOp {
        kind,
        lba: start / b,
        nlb: (end.div_ceil(b) - start / b) as u32,
    };
    let mut ops = Vec::with_capacity(calls.len() * 4);
    for &(write, offset, len) in calls.iter().filter(|c| c.2 > 0) {
        let end = offset + len;
        if !write {
            ops.push(op(Kind::Read, offset, end));
            continue;
        }
        let mut at = offset;
        while at < end {
            let part_end = end.min(at / b * b + max_span);
            if at % b != 0 || part_end % b != 0 {
                ops.push(op(Kind::Read, at, part_end));
            }
            ops.push(op(Kind::Write, at, part_end));
            at = part_end;
        }
    }
    ops
}
