//! The daemon workloads. Each pass starts a fresh daemon (or restores a
//! fresh engine), measures for the run's seconds, finishes the seeded
//! stream untimed, and checks the outcome against the in-process
//! reference replay.

use crate::client::{Conn, Rx, Tx};
use crate::daemon::{Daemon, Delta, Scrape, Target};
use crate::gen::{self, Lane, Op, OpKind, Sizes, SHARDS};
use crate::reference::{structure, DemandTimes, Replica, ShardEngine};
use crate::stats::{median, Latency, Window};
use crate::trace::Tracer;
use leased::metrics::ShardMetrics;
use leased::protocol::{self, ActiveLease, DaemonStats, Request, Response};
use leased::shard::{Shard, ShardReply, ShardRequest};
use leasing_core::engine::{DecisionRetention, EngineHandle};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Daemon starts go on past [`SETUPS`] until this much start time has been
/// measured (or [`MAX_SETUPS`] starts), so a start of a few milliseconds
/// gets its median from hundreds of samples.
const SETUP_BUDGET: Duration = Duration::from_millis(500);
const MAX_SETUPS: usize = 400;
/// The latency limit behind `slo_miss_frac`, per frame in flight ahead of
/// and including the timed one: 1 ms for one-at-a-time workloads, 8 ms for
/// `pipelined`'s 8-deep pipeline.
pub const SLO_NS: u64 = 1_000_000;
/// How far the traced stage means may sum from the client-observed mean.
pub const WATERFALL_TOLERANCE: f64 = 0.05;
/// Request frames kept for the offline decode measurement.
const DECODE_SAMPLE: usize = 2_000;
/// Operations replayed through an in-process `Shard` for `shard.hop_ns`.
const HOP_SAMPLE: usize = 20_000;
/// Demands behind the `pipelined` snapshot measurement.
const SNAPSHOT_PREFIX: usize = 200_000;
/// Decision retention of the `pipelined` daemon: the stream outgrows
/// memory under full retention.
const PIPELINED_RETENTION: usize = 65_536;

pub struct Ctx {
    pub leased: Target,
    pub sizes: Sizes,
    /// Scratch directory of this run (daemon snapshot copies).
    pub scratch: PathBuf,
    /// Cache of warm snapshots, keyed by seed and size, for the binaries
    /// of this build only (see [`cache_dir`]).
    pub cache: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub origin: Instant,
}

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    pub latency: Option<Latency>,
    pub slo_misses: u64,
    pub slo_limit_ns: u64,
    pub throughput_rps: f64,
    pub cost_ratio: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Failed correctness checks.
    pub violations: Vec<String>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable detail lines (waterfall, backlog, ...).
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Pass {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Client-observed mean latency of the pass, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.latency.map_or(f64::NAN, |l| l.mean_ns)
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Starts daemons one after the other ([`SETUPS`] or more, see
/// [`SETUP_BUDGET`]; each from a fresh copy of `snapshots` when given),
/// stops all but the last, and returns it with the median
/// start-to-first-answer time.
fn start_daemon(
    ctx: &Ctx,
    snapshots: Option<&[String]>,
    retention: Option<usize>,
) -> Result<(Daemon, f64), String> {
    let mut times = Vec::new();
    let mut last: Option<Daemon> = None;
    let budget = SETUP_BUDGET.as_secs_f64();
    for k in 0..MAX_SETUPS {
        if k >= SETUPS && times.iter().sum::<f64>() >= budget {
            break;
        }
        let dir = match snapshots {
            Some(texts) => {
                let dir = ctx.scratch.join(format!("daemon-{k}"));
                std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                for (index, text) in texts.iter().enumerate() {
                    let path = dir.join(format!("shard-{index}.json"));
                    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
                }
                Some(dir)
            }
            None => None,
        };
        // One daemon at a time: a start never competes with the last one
        // for memory.
        if let Some(previous) = last.take() {
            previous.kill();
        }
        let (daemon, secs) = Daemon::start(&ctx.leased, dir.as_deref(), retention)?;
        times.push(secs);
        last = Some(daemon);
    }
    let daemon = last.ok_or("no daemon started")?;
    Ok((daemon, median(&times)))
}

/// Decisions the daemon's shards hold in memory.
fn retained(conn: &mut Conn) -> Result<f64, String> {
    match conn.request(&Request::RetentionInfo)? {
        Response::Retention(shards) => Ok(shards.iter().map(|s| s.retained as f64).sum()),
        other => Err(format!("retention answered with {other:?}")),
    }
}

fn stats(conn: &mut Conn) -> Result<DaemonStats, String> {
    match conn.request(&Request::Stats)? {
        Response::Stats(stats) => Ok(stats),
        other => Err(format!("stats answered with {other:?}")),
    }
}

/// Timestamps of one traced frame on the sending side of the client.
#[derive(Clone, Copy, Default)]
struct FrameMarks {
    id: u64,
    enqueued: u64,
    /// End of an inline encode; `None` when the frame was encoded before
    /// the clock started.
    encoded: Option<u64>,
    queued: u64,
    flush_start: u64,
    flush_end: u64,
}

/// The separately timed client-side stages of a frame, in order. The
/// waterfall sums their means; a frame's own span is never part of it.
const STAGES: &[&str] = &[
    "client.lateness",
    "protocol.encode",
    "client.send",
    "client.coalesce",
    "client.flush",
    "client.inflight",
    "client.recv",
    "protocol.decode",
];

/// Records the sending stages of a frame: encode (when inline), `queue`
/// into the send buffer, the wait for the rest of the burst queued with
/// it (`client.coalesce`), and the `flush` that put it on the socket.
fn record_sent(tr: &mut Tracer, m: &FrameMarks) {
    let root = Some("client.frame");
    let send_start = match m.encoded {
        Some(encoded) => {
            tr.record("protocol.encode", root, m.id, m.enqueued, encoded);
            encoded
        }
        None => m.enqueued,
    };
    tr.record("client.send", root, m.id, send_start, m.queued);
    tr.record("client.coalesce", root, m.id, m.queued, m.flush_start);
    tr.record("client.flush", root, m.id, m.flush_start, m.flush_end);
}

/// Records the receiving stages of a frame flushed at `flush_end`: the
/// wait before the client started reading its answer (`client.inflight`:
/// earlier frames' answers, or other client work), the read, and the
/// decode.
fn record_received(
    tr: &mut Tracer,
    id: u64,
    flush_end: u64,
    recv_start: u64,
    read_end: u64,
    decoded: u64,
) {
    let root = Some("client.frame");
    let reading = recv_start.max(flush_end);
    tr.record("client.inflight", root, id, flush_end, reading);
    tr.record("client.recv", root, id, reading, read_end);
    tr.record("protocol.decode", root, id, read_end, decoded);
}

fn record_frame(tr: &mut Tracer, m: &FrameMarks, recv_start: u64, read_end: u64, decoded: u64) {
    tr.record("client.frame", None, m.id, m.enqueued, decoded);
    record_sent(tr, m);
    record_received(tr, m.id, m.flush_end, recv_start, read_end, decoded);
}

/// Sends `entries` as pipelined 64-entry `submit-batch` frames, untimed;
/// returns the error responses.
fn drain(conn: &mut Conn, entries: &[(u64, u64)]) -> Result<u64, String> {
    let mut failed = 0;
    let mut inflight: VecDeque<u64> = VecDeque::new();
    let mut chunks = entries.chunks(gen::PIPELINED_BATCH);
    loop {
        let mut queued = false;
        while inflight.len() < gen::PIPELINED_DEPTH {
            let Some(chunk) = chunks.next() else { break };
            let request = Request::SubmitBatch {
                entries: chunk.to_vec(),
            };
            conn.tx.queue(&protocol::encode(&request))?;
            inflight.push_back(chunk.len() as u64);
            queued = true;
        }
        if queued {
            conn.tx.flush()?;
        }
        let Some(n) = inflight.pop_front() else {
            return Ok(failed);
        };
        match protocol::decode::<Response>(&conn.rx.read()?) {
            Ok(Response::Submitted(k)) if k == n => {}
            _ => failed += 1,
        }
    }
}

/// Daemon-side per-layer metrics over the measured window.
fn daemon_layers(pass: &mut Pass, window: &Delta<'_>, demands: f64, frames_per_read: f64) {
    let bytes = window.sum("leased_bytes_read_total") + window.sum("leased_bytes_written_total");
    pass.layer("protocol.wire_bytes_per_demand", bytes / demands.max(1.0));
    pass.layer(
        "server.dispatch_ns_p50",
        window.hist_quantile("leased_submit_latency_ns", 0.50),
    );
    pass.layer(
        "server.dispatch_ns_p99",
        window.hist_quantile("leased_submit_latency_ns", 0.99),
    );
    pass.layer("server.frames_per_flush", frames_per_read);
    pass.layer(
        "shard.micro_batch_mean",
        window.hist_mean("leased_micro_batch_size"),
    );
    pass.layer(
        "shard.mailbox_high_watermark",
        window.after.max("leased_mailbox_high_watermark"),
    );
    pass.layer(
        "shard.clamped_total",
        window.sum("leased_clamped_timestamps_total"),
    );
}

/// Engine, policy and ledger metrics of a finished (timed) replay;
/// snapshot and restore are timed on `snapshot_source`.
fn engine_layers(
    pass: &mut Pass,
    replica: &Replica,
    bought_before: usize,
    snapshot_source: &Replica,
) {
    let et = replica.engine_time;
    let demands = et.demands.max(1) as f64;
    pass.layer("engine.submit_at_ns_per_demand", et.ns as f64 / demands);
    pass.layer(
        "engine.demands_per_call",
        et.demands as f64 / et.calls.max(1) as f64,
    );
    if let Some(clock) = &replica.policy {
        pass.layer(
            "policy.on_request_ns",
            clock.ns.get() as f64 / clock.calls.get().max(1) as f64,
        );
    }
    let bought: usize = replica
        .shards
        .iter()
        .map(|s| s.engine.ledger().leases_bought())
        .sum();
    pass.layer(
        "policy.purchases_per_demand",
        (bought - bought_before) as f64 / demands,
    );
    ledger_layers(pass, &replica.engines(), &snapshot_source.engines());
}

type Engine = EngineHandle<'static, leased::TenantOp>;

/// Ledger metrics: lookups on `engines`, snapshot and restore of
/// `snapshot_engines`.
pub fn ledger_layers(pass: &mut Pass, engines: &[&Engine], snapshot_engines: &[&Engine]) {
    let types = structure().num_types();
    let mut queries = 0u64;
    let started = Instant::now();
    for engine in engines {
        let ledger = engine.ledger();
        let now = ledger.now();
        for i in 0..10_000usize {
            let tenant = (i * 7919) % 100_000;
            for k in 0..types {
                std::hint::black_box(ledger.active_lease_of_type(tenant, k, now));
                queries += 1;
            }
        }
    }
    pass.layer(
        "ledger.active_lease_query_ns",
        ns(started.elapsed()) as f64 / queries.max(1) as f64,
    );
    let retained: usize = engines
        .iter()
        .map(|e| e.ledger().retained_decisions())
        .sum();
    let (mut snapshot_ns, mut restore_ns, mut bytes) = (0u64, 0u64, 0usize);
    for engine in snapshot_engines {
        let started = Instant::now();
        let text = engine.snapshot();
        snapshot_ns += ns(started.elapsed());
        bytes += text.len();
        let started = Instant::now();
        let restored = EngineHandle::restore(leased::TenantPermit::new(structure()), &text);
        restore_ns += ns(started.elapsed());
        if restored.is_err() {
            pass.violations
                .push("an engine snapshot failed to restore".to_string());
        }
    }
    pass.layer("ledger.retained_decisions", retained as f64);
    pass.layer("ledger.snapshot_ns", snapshot_ns as f64);
    pass.layer("ledger.restore_ns", restore_ns as f64);
    pass.layer("ledger.snapshot_bytes", bytes as f64);
}

/// Mean `decode::<Request>` time per entry over `payloads` (what the
/// daemon pays to parse the frames the client sent).
fn decode_layer(pass: &mut Pass, payloads: &[(String, u64)]) {
    let entries: u64 = payloads.iter().map(|(_, n)| n).sum();
    let started = Instant::now();
    for (payload, _) in payloads {
        if protocol::decode::<Request>(payload).is_err() {
            pass.violations
                .push("a request frame failed to decode".to_string());
        }
    }
    pass.layer(
        "protocol.decode_ns_per_entry",
        ns(started.elapsed()) as f64 / entries.max(1) as f64,
    );
}

/// `Shard::call` time minus engine time per call, from an in-process
/// shard fed `requests`.
fn hop_layer(
    pass: &mut Pass,
    requests: Vec<ShardRequest>,
    restore: Option<String>,
    engine_ns_per_call: f64,
) {
    let metrics = Arc::new(ShardMetrics::new());
    let shard = Shard::spawn(
        0,
        structure(),
        1024,
        restore,
        Arc::clone(&metrics),
        0,
        DecisionRetention::Full,
    );
    // The worker restores before its first answer; keep that out of the timing.
    let _ = shard.call(ShardRequest::Stats);
    let calls = requests.len();
    let started = Instant::now();
    let mut failed = false;
    for request in requests {
        failed |= matches!(shard.call(request), Ok(ShardReply::Failed(_)) | Err(_));
    }
    let call_ns = ns(started.elapsed()) as f64 / calls.max(1) as f64;
    let _ = shard.call(ShardRequest::Shutdown);
    shard.join();
    if failed {
        pass.violations
            .push("the in-process shard replay failed an op".to_string());
    }
    pass.layer("shard.hop_ns", call_ns - engine_ns_per_call);
}

/// The waterfall of a traced pass: the means per frame of the separately
/// timed [`STAGES`], against the client-observed mean latency of the same
/// frames (timed by other clock reads). They must agree within
/// [`WATERFALL_TOLERANCE`]: a stage left untimed, or one timed twice,
/// fails the run.
fn waterfall(pass: &mut Pass, tr: &Tracer, server_dispatch_ns: f64) {
    let frames = tr.totals("client.frame").count.max(1) as f64;
    let stage = |name: &str| tr.totals(name).total_ns as f64 / frames;
    let stages: Vec<(&str, f64)> = STAGES
        .iter()
        .filter(|name| tr.totals(name).count > 0)
        .map(|&name| (name, stage(name)))
        .collect();
    let sum: f64 = stages.iter().map(|(_, v)| v).sum();
    let observed = pass.mean_ns();
    let accounted = sum / observed;
    pass.layer("waterfall.accounted_frac", accounted);
    pass.check((accounted - 1.0).abs() <= WATERFALL_TOLERANCE, || {
        format!("traced stage means sum to {sum:.0} ns, client observed {observed:.0} ns")
    });
    let mut line = format!("waterfall per frame (observed {observed:.0} ns):");
    for (name, v) in stages {
        line.push_str(&format!(" {name} {v:.0}"));
    }
    pass.notes.push(line);
    let recv = stage("client.recv");
    pass.notes.push(format!(
        "  client.recv {recv:.0} ns = server dispatch {server_dispatch_ns:.0} ns (scraped mean) \
         + transport and server codec {:.0} ns",
        recv - server_dispatch_ns
    ));
}

/// Checks shared by every daemon workload.
fn daemon_checks(
    pass: &mut Pass,
    whole: &Delta<'_>,
    demands_sent: u64,
    daemon_stats: &DaemonStats,
    replica: &Replica,
    times: &DemandTimes,
) -> Result<(), String> {
    let served = whole.sum("leased_submit_demands_total");
    pass.check(served == demands_sent as f64, || {
        format!("daemon served {served} demands, client sent {demands_sent}")
    });
    let clamped = whole.sum("leased_clamped_timestamps_total");
    pass.check(clamped == 0.0, || {
        format!("{clamped} timestamps were clamped on a monotone stream")
    });
    let reference = replica.stats_json();
    let actual = daemon_stats.to_json();
    pass.check(actual == reference, || {
        format!("daemon stats differ from the reference replay:\n  daemon    {actual}\n  reference {reference}")
    });
    let failed = pass.failed;
    pass.check(failed == 0, || format!("{failed} ops failed"));
    finish_cost(pass, daemon_stats.total_cost(), times)
}

fn finish_cost(pass: &mut Pass, cost: f64, times: &DemandTimes) -> Result<(), String> {
    let optimum = times.optimum()?;
    pass.cost_ratio = cost / optimum;
    let ratio = pass.cost_ratio;
    pass.check(ratio >= 1.0 - 1e-9, || {
        format!("cost_ratio {ratio} is below 1: the online cost beat the hindsight optimum")
    });
    Ok(())
}

/// Throughput, latency and limit misses of a measured window of
/// `window_ns`.
fn window_of(pass: &mut Pass, window: Window, window_ns: u64) {
    pass.slo_limit_ns = window.limit_ns();
    pass.slo_misses = window.misses();
    pass.throughput_rps = window.throughput(window_ns);
    pass.latency = Some(window.latency());
}

/// `lockstep`: one connection, one single-demand frame in flight.
pub fn lockstep(ctx: &Ctx, traced: bool) -> Result<Pass, String> {
    let ops = gen::lockstep_ops(ctx.seed, ctx.sizes.lockstep_ops);
    let mut pass = Pass::default();
    let (daemon, setup_s) = start_daemon(ctx, None, None)?;
    pass.setup_s = setup_s;
    let mut conn = Conn::connect(daemon.addr())?;
    let before = Scrape::take(&mut conn)?;
    let reads_before = conn.rx.read_counts();
    let mut tr = Tracer::new(traced, ctx.origin);
    let mut window = Window::new(SLO_NS);
    let mut payloads = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(ctx.seconds);
    let mut sent = 0;
    let mut window_end = deadline;
    for (i, op) in ops.iter().enumerate() {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let enqueued = tr.now();
        let payload = protocol::encode(&Request::Submit {
            tenant: op.tenant,
            time: op.time,
        });
        let encoded = tr.now();
        conn.tx.queue(&payload)?;
        let queued = tr.now();
        conn.tx.flush()?;
        let flushed = tr.now();
        let answer = conn.rx.read()?;
        let read_end = tr.now();
        let response = protocol::decode::<Response>(&answer);
        let decoded = tr.now();
        let done = Instant::now();
        let ok = matches!(response, Ok(Response::Ok));
        pass.failed += u64::from(!ok);
        window.record(1, ns(done - t0), ok);
        sent = i + 1;
        window_end = done;
        if traced {
            let marks = FrameMarks {
                id: i as u64,
                enqueued,
                encoded: Some(encoded),
                queued,
                flush_start: queued,
                flush_end: flushed,
            };
            record_frame(&mut tr, &marks, flushed, read_end, decoded);
            if payloads.len() < DECODE_SAMPLE {
                payloads.push((payload, 1));
            }
        }
    }
    let window_end = if sent < ops.len() {
        deadline
    } else {
        window_end
    };
    let reads = conn.rx.read_counts();
    let mid = Scrape::take(&mut conn)?;
    let rest: Vec<(u64, u64)> = ops[sent..].iter().map(|op| (op.tenant, op.time)).collect();
    pass.failed += drain(&mut conn, &rest)?;
    let after = Scrape::take(&mut conn)?;
    let daemon_stats = stats(&mut conn)?;
    let daemon_retained = retained(&mut conn)?;
    pass.peak_rss_mb = daemon.peak_rss_mb()?;
    drop(conn);
    daemon.kill();

    pass.attempted = ops.len() as u64;
    window_of(&mut pass, window, ns(window_end - start));
    let mut replica = Replica::fresh(SHARDS as usize, traced);
    let mut times = DemandTimes::default();
    for op in &ops {
        replica.apply(*op)?;
        times.add(op.tenant, op.time);
    }
    let whole = Delta {
        before: &before,
        after: &after,
    };
    daemon_checks(
        &mut pass,
        &whole,
        ops.len() as u64,
        &daemon_stats,
        &replica,
        &times,
    )?;
    if traced {
        let window = Delta {
            before: &before,
            after: &mid,
        };
        let frames = (reads.0 - reads_before.0) as f64 / (reads.1 - reads_before.1).max(1) as f64;
        daemon_layers(&mut pass, &window, sent as f64, frames);
        pass.layer(
            "protocol.encode_ns_per_entry",
            tr.totals("protocol.encode").mean_ns(),
        );
        decode_layer(&mut pass, &payloads);
        engine_layers(&mut pass, &replica, 0, &replica);
        pass.layer("ledger.retained_decisions", daemon_retained);
        let engine_per_call =
            replica.engine_time.ns as f64 / replica.engine_time.calls.max(1) as f64;
        let hop: Vec<ShardRequest> = ops
            .iter()
            .filter(|op| op.tenant % SHARDS == 0)
            .take(HOP_SAMPLE)
            .map(|op| ShardRequest::Submit {
                tenant: op.tenant as usize,
                time: op.time,
            })
            .collect();
        hop_layer(&mut pass, hop, None, engine_per_call);
        waterfall(&mut pass, &tr, window.hist_mean("leased_submit_latency_ns"));
        pass.tracer = Some(tr);
    }
    Ok(pass)
}

/// One in-flight `pipelined` frame.
struct Inflight {
    started: Instant,
    entries: u64,
    measured: bool,
    marks: FrameMarks,
}

struct LaneResult {
    window: Window,
    window_demands: u64,
    window_end: Option<Instant>,
    demands: u64,
    failed: u64,
    reads: (u64, u64),
    payloads: Vec<(String, u64)>,
    tracer: Option<Tracer>,
}

/// Drives one `pipelined` lane on its own connection.
fn drive_lane(
    mut conn: Conn,
    frames: Vec<(String, u64)>,
    lane_index: u64,
    deadline: Instant,
    mut tr: Tracer,
) -> Result<LaneResult, String> {
    let mut res = LaneResult {
        window: Window::new(SLO_NS * gen::PIPELINED_DEPTH as u64),
        window_demands: 0,
        window_end: None,
        demands: 0,
        failed: 0,
        reads: (0, 0),
        payloads: Vec::new(),
        tracer: None,
    };
    let mut inflight: VecDeque<Inflight> = VecDeque::with_capacity(gen::PIPELINED_DEPTH);
    let mut frames = frames.into_iter();
    let mut measuring = true;
    let mut exhausted = false;
    let mut next_id = lane_index << 40;
    let mut last_done = None;
    loop {
        let mut queued = 0;
        while !exhausted && inflight.len() < gen::PIPELINED_DEPTH {
            let Some((payload, entries)) = frames.next() else {
                exhausted = true;
                break;
            };
            let started = Instant::now();
            if measuring && started >= deadline {
                measuring = false;
                res.reads = conn.rx.read_counts();
            }
            let enqueued = tr.now();
            conn.tx.queue(&payload)?;
            let queued_at = tr.now();
            if measuring && tr.enabled() && res.payloads.len() < DECODE_SAMPLE {
                res.payloads.push((payload, entries));
            }
            inflight.push_back(Inflight {
                started,
                entries,
                measured: measuring,
                marks: FrameMarks {
                    id: next_id,
                    enqueued,
                    encoded: None,
                    queued: queued_at,
                    flush_start: 0,
                    flush_end: 0,
                },
            });
            next_id += 1;
            queued += 1;
        }
        if queued > 0 {
            let flush_start = tr.now();
            conn.tx.flush()?;
            let flush_end = tr.now();
            for frame in inflight.iter_mut().rev().take(queued) {
                frame.marks.flush_start = flush_start;
                frame.marks.flush_end = flush_end;
            }
        }
        let Some(frame) = inflight.pop_front() else {
            break;
        };
        let recv_start = tr.now();
        let answer = conn.rx.read()?;
        let read_end = tr.now();
        let response = protocol::decode::<Response>(&answer);
        let decoded = tr.now();
        let done = Instant::now();
        let ok = matches!(response, Ok(Response::Submitted(k)) if k == frame.entries);
        res.failed += u64::from(!ok);
        res.demands += frame.entries;
        if frame.measured && done <= deadline {
            res.window
                .record(frame.entries, ns(done - frame.started), ok);
            res.window_demands += frame.entries;
            last_done = Some(done);
            record_frame(&mut tr, &frame.marks, recv_start, read_end, decoded);
        }
        if measuring && done >= deadline {
            measuring = false;
            res.reads = conn.rx.read_counts();
        }
    }
    if measuring {
        res.reads = conn.rx.read_counts();
        res.window_end = last_done;
    } else {
        res.window_end = Some(deadline);
    }
    res.tracer = Some(tr);
    Ok(res)
}

/// A lane's `submit-batch` frames with their entry counts, encoded before
/// the clock starts so the client's CPU share stays small; each encode is
/// a root `protocol.encode_ahead` span in `tr`, outside every frame's
/// waterfall.
fn encode_lane(seed: u64, lane_index: u64, demands: u64, tr: &mut Tracer) -> Vec<(String, u64)> {
    let mut lane = Lane::new(seed, lane_index, demands);
    let mut batch = Vec::with_capacity(gen::PIPELINED_BATCH);
    let mut frames = Vec::new();
    let mut id = lane_index << 40;
    while lane.next_batch(&mut batch) {
        let entries = batch.len() as u64;
        let started = tr.now();
        let request = Request::SubmitBatch { entries: batch };
        let payload = protocol::encode(&request);
        tr.record("protocol.encode_ahead", None, id, started, tr.now());
        let Request::SubmitBatch { entries: reused } = request else {
            unreachable!("built as a batch above");
        };
        batch = reused;
        frames.push((payload, entries));
        id += 1;
    }
    frames
}

/// `pipelined`: two connections, one lane each, 8 frames of 64 in flight.
pub fn pipelined(ctx: &Ctx, traced: bool) -> Result<Pass, String> {
    let encoded: Vec<(Vec<(String, u64)>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|c| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(traced, ctx.origin);
                    (
                        encode_lane(ctx.seed, c, ctx.sizes.lane_demands, &mut tr),
                        tr,
                    )
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let mut pass = Pass::default();
    let (daemon, setup_s) = start_daemon(ctx, None, Some(PIPELINED_RETENTION))?;
    pass.setup_s = setup_s;
    let mut control = Conn::connect(daemon.addr())?;
    let before = Scrape::take(&mut control)?;
    let conns = (0..SHARDS)
        .map(|_| Conn::connect(daemon.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(ctx.seconds);
    let (results, mid) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(encoded)
            .enumerate()
            .map(|(c, (conn, (frames, tr)))| {
                scope.spawn(move || drive_lane(conn, frames, c as u64, deadline, tr))
            })
            .collect();
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        let mid = Scrape::take(&mut control);
        let results: Vec<Result<LaneResult, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a lane thread panicked".to_string()))
            })
            .collect();
        (results, mid)
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mid = mid?;
    let after = Scrape::take(&mut control)?;
    let daemon_stats = stats(&mut control)?;
    let daemon_retained = retained(&mut control)?;
    pass.peak_rss_mb = daemon.peak_rss_mb()?;
    drop(control);
    daemon.kill();

    let mut window = Window::new(SLO_NS * gen::PIPELINED_DEPTH as u64);
    let mut tr = Tracer::new(traced, ctx.origin);
    let mut window_demands = 0;
    let mut window_end = start;
    let mut demands = 0;
    let mut reads = (0, 0);
    let mut payloads = Vec::new();
    for r in results {
        window.merge(r.window);
        window_demands += r.window_demands;
        window_end = window_end.max(r.window_end.unwrap_or(start));
        demands += r.demands;
        pass.failed += r.failed;
        reads.0 += r.reads.0;
        reads.1 += r.reads.1;
        payloads.extend(r.payloads);
        if let Some(t) = r.tracer {
            tr.merge(t);
        }
    }
    pass.attempted = demands;
    window_of(&mut pass, window, ns(window_end - start));
    let expected = ctx.sizes.lane_demands * SHARDS;
    pass.check(demands == expected, || {
        format!("lanes sent {demands} demands, the stream holds {expected}")
    });

    // Stats are identical under every retention; keeping no decisions
    // holds the replay's memory to the coverage index.
    let mut replica = Replica::fresh(SHARDS as usize, traced);
    replica.set_retention(DecisionRetention::AggregateOnly);
    let mut times = DemandTimes::default();
    let mut hop = Vec::new();
    let mut batch = Vec::new();
    let mut tenants = Vec::new();
    for c in 0..SHARDS {
        let mut lane = Lane::new(ctx.seed, c, ctx.sizes.lane_demands);
        while lane.next_batch(&mut batch) {
            tenants.clear();
            tenants.extend(batch.iter().map(|&(t, _)| t));
            replica.submit_run(batch[0].1, &tenants)?;
            for &(tenant, time) in &batch {
                times.add(tenant, time);
            }
            if c == 0 && traced && hop.len() < HOP_SAMPLE / gen::PIPELINED_BATCH {
                hop.push(ShardRequest::SubmitBatch {
                    entries: batch.iter().map(|&(t, time)| (t as usize, time)).collect(),
                });
            }
        }
    }
    let whole = Delta {
        before: &before,
        after: &after,
    };
    daemon_checks(&mut pass, &whole, demands, &daemon_stats, &replica, &times)?;
    if traced {
        let window = Delta {
            before: &before,
            after: &mid,
        };
        daemon_layers(
            &mut pass,
            &window,
            window_demands as f64,
            reads.0 as f64 / reads.1.max(1) as f64,
        );
        let frames = tr.totals("protocol.encode_ahead");
        pass.layer(
            "protocol.encode_ns_per_entry",
            frames.total_ns as f64 / (frames.count * gen::PIPELINED_BATCH as u64).max(1) as f64,
        );
        decode_layer(&mut pass, &payloads);
        // A full-state snapshot of this stream takes longer than the run,
        // so snapshot and restore are timed on the state after the first
        // `SNAPSHOT_PREFIX` demands of lane 0.
        let mut prefix = Replica::fresh(1, false);
        let mut lane = Lane::new(ctx.seed, 0, ctx.sizes.lane_demands);
        let mut served = 0;
        while served < SNAPSHOT_PREFIX && lane.next_batch(&mut batch) {
            tenants.clear();
            tenants.extend(batch.iter().map(|&(t, _)| t));
            prefix.submit_run(batch[0].1, &tenants)?;
            served += batch.len();
        }
        engine_layers(&mut pass, &replica, 0, &prefix);
        pass.layer("ledger.retained_decisions", daemon_retained);
        let engine_per_call =
            replica.engine_time.ns as f64 / replica.engine_time.calls.max(1) as f64;
        hop_layer(&mut pass, hop, None, engine_per_call);
        waterfall(&mut pass, &tr, window.hist_mean("leased_submit_latency_ns"));
        pass.tracer = Some(tr);
    }
    Ok(pass)
}

/// The warm-snapshot cache of this build: `<state>/cache/<fingerprint>`,
/// where the fingerprint covers the size and modification time of the
/// benchmark's own executable (which writes the snapshots) and of the
/// daemon's (which restores them). A rebuild of either starts an empty
/// cache and removes those of other builds, so no run restores state that
/// another build wrote.
pub fn cache_dir(state: &Path, leased: &Target) -> Result<PathBuf, String> {
    let mut files = vec![std::env::current_exe().map_err(|e| e.to_string())?];
    if let Target::Process(bin) = leased {
        files.push(bin.clone());
    }
    let mut hasher = DefaultHasher::new();
    for file in &files {
        let meta = std::fs::metadata(file).map_err(|e| format!("{}: {e}", file.display()))?;
        meta.len().hash(&mut hasher);
        meta.modified().ok().hash(&mut hasher);
    }
    let root = state.join("cache");
    let dir = root.join(format!("{:016x}", hasher.finish()));
    if !dir.exists() {
        let _ = std::fs::remove_dir_all(&root);
    }
    Ok(dir)
}

/// The warm shard snapshots `mixed` restores from, built once per seed.
fn mixed_snapshots(ctx: &Ctx) -> Result<Vec<String>, String> {
    let dir = ctx
        .cache
        .join(format!("mixed-warm-{}-{}", ctx.seed, ctx.sizes.mixed_warm));
    let paths: Vec<PathBuf> = (0..SHARDS)
        .map(|i| dir.join(format!("shard-{i}.json")))
        .collect();
    if paths.iter().all(|p| p.exists()) {
        return paths
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
            .collect();
    }
    let mut replica = Replica::fresh(SHARDS as usize, false);
    for (tenant, time) in gen::mixed_warm(ctx.seed, ctx.sizes.mixed_warm) {
        replica.submit_run(time, &[tenant])?;
    }
    let texts: Vec<String> = replica.shards.iter().map(ShardEngine::snapshot).collect();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (path, text) in paths.iter().zip(&texts) {
        write_atomically(path, text)?;
    }
    Ok(texts)
}

fn write_atomically(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

fn encode_op(op: &Op) -> String {
    let (tenant, time) = (op.tenant, op.time);
    protocol::encode(&match op.kind {
        OpKind::Submit => Request::Submit { tenant, time },
        OpKind::List => Request::ListActive { tenant, time },
        OpKind::Release => Request::ForceRelease { tenant, time },
    })
}

struct Sent {
    lateness: Vec<u64>,
    tracer: Tracer,
    payloads: Vec<(String, u64)>,
}

/// The open-loop sender: every op goes out at its due time. When traced,
/// it publishes the end of each op's flush in `flushed` for the receiver.
fn send_schedule(
    mut tx: Tx,
    ops: &[Op],
    start: Instant,
    interval_ns: u64,
    sent: &AtomicU64,
    flushed: &[AtomicU64],
    mut tr: Tracer,
) -> Result<Sent, String> {
    let due = |i: usize| start + Duration::from_nanos(i as u64 * interval_ns);
    let mut lateness = Vec::with_capacity(ops.len());
    let mut payloads = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        let now = Instant::now();
        if now < due(i) {
            std::thread::sleep(due(i) - now);
            continue;
        }
        let mut marks = Vec::new();
        while i < ops.len() && due(i) <= now {
            let enqueued = tr.now();
            let payload = encode_op(&ops[i]);
            let encoded = tr.now();
            tx.queue(&payload)?;
            let queued = tr.now();
            lateness.push(ns(now - due(i)));
            if tr.enabled() {
                marks.push((i as u64, enqueued, encoded, queued));
                if payloads.len() < DECODE_SAMPLE {
                    payloads.push((payload, 1));
                }
            }
            i += 1;
        }
        let flush_start = tr.now();
        tx.flush()?;
        let flush_end = tr.now();
        sent.store(i as u64, Ordering::Release);
        for &(id, ..) in &marks {
            flushed[id as usize].store(flush_end, Ordering::Release);
        }
        for (id, enqueued, encoded, queued) in marks {
            let due_at = tr.at(due(id as usize));
            tr.record(
                "client.lateness",
                Some("client.frame"),
                id,
                due_at,
                enqueued,
            );
            let marks = FrameMarks {
                id,
                enqueued,
                encoded: Some(encoded),
                queued,
                flush_start,
                flush_end,
            };
            record_sent(&mut tr, &marks);
        }
    }
    Ok(Sent {
        lateness,
        tracer: tr,
        payloads,
    })
}

struct Received {
    window: Window,
    failed: u64,
    lists: Vec<(usize, Vec<ActiveLease>)>,
    last: Instant,
    backlog_max: u64,
    reads: (u64, u64),
    tracer: Tracer,
}

/// The open-loop receiver: latency runs from each op's due time.
fn receive_schedule(
    mut rx: Rx,
    ops: &[Op],
    start: Instant,
    interval_ns: u64,
    sent: &AtomicU64,
    flushed: &[AtomicU64],
    mut tr: Tracer,
) -> Result<Received, String> {
    let mut out = Received {
        window: Window::new(SLO_NS),
        failed: 0,
        lists: Vec::new(),
        last: start,
        backlog_max: 0,
        reads: (0, 0),
        tracer: Tracer::new(false, start),
    };
    for (i, op) in ops.iter().enumerate() {
        let recv_start = tr.now();
        let answer = rx.read()?;
        let read_end = tr.now();
        let response = protocol::decode::<Response>(&answer);
        let decoded = tr.now();
        let done = Instant::now();
        let due = start + Duration::from_nanos(i as u64 * interval_ns);
        out.backlog_max = out
            .backlog_max
            .max(sent.load(Ordering::Acquire).saturating_sub(i as u64));
        let ok = match (op.kind, response) {
            (OpKind::Submit | OpKind::Release, Ok(Response::Ok)) => true,
            (OpKind::List, Ok(Response::Leases(leases))) => {
                out.lists.push((i, leases));
                true
            }
            _ => false,
        };
        out.failed += u64::from(!ok);
        out.window
            .record(1, ns(done.saturating_duration_since(due)), ok);
        out.last = done;
        if tr.enabled() {
            // The answer can arrive before the sender has noted the end of
            // its flush; wait for the note (bounded, in case it never comes).
            let waited = Instant::now();
            let flush_end = loop {
                match flushed[i].load(Ordering::Acquire) {
                    0 if waited.elapsed() < Duration::from_secs(1) => std::thread::yield_now(),
                    0 => break read_end,
                    at => break at,
                }
            };
            tr.record("client.frame", None, i as u64, tr.at(due), decoded);
            record_received(&mut tr, i as u64, flush_end, recv_start, read_end, decoded);
        }
    }
    out.reads = rx.read_counts();
    out.tracer = tr;
    Ok(out)
}

/// `mixed`: open loop on one connection over a restored warm state.
pub fn mixed(ctx: &Ctx, traced: bool) -> Result<Pass, String> {
    let ops = gen::mixed_ops(ctx.seed, ctx.sizes.mixed_ops, ctx.sizes.mixed_warm);
    let snapshots = mixed_snapshots(ctx)?;
    let mut pass = Pass::default();
    let (daemon, setup_s) = start_daemon(ctx, Some(&snapshots), None)?;
    pass.setup_s = setup_s;
    let mut control = Conn::connect(daemon.addr())?;
    let before = Scrape::take(&mut control)?;
    let Conn { tx, rx } = Conn::connect(daemon.addr())?;
    let interval_ns = 1_000_000_000 / gen::MIXED_RATE;
    let sent = AtomicU64::new(0);
    let flushed: Vec<AtomicU64> = if traced {
        ops.iter().map(|_| AtomicU64::new(0)).collect()
    } else {
        Vec::new()
    };
    let start = Instant::now() + Duration::from_millis(2);
    let (sender, receiver) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            send_schedule(
                tx,
                &ops,
                start,
                interval_ns,
                &sent,
                &flushed,
                Tracer::new(traced, ctx.origin),
            )
        });
        let receiver = scope.spawn(|| {
            receive_schedule(
                rx,
                &ops,
                start,
                interval_ns,
                &sent,
                &flushed,
                Tracer::new(traced, ctx.origin),
            )
        });
        (
            sender
                .join()
                .unwrap_or_else(|_| Err("sender panicked".to_string())),
            receiver
                .join()
                .unwrap_or_else(|_| Err("receiver panicked".to_string())),
        )
    });
    let sent_ops = sender?;
    let received = receiver?;
    let after = Scrape::take(&mut control)?;
    let daemon_stats = stats(&mut control)?;
    let daemon_retained = retained(&mut control)?;
    pass.peak_rss_mb = daemon.peak_rss_mb()?;
    drop(control);
    daemon.kill();
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    pass.attempted = ops.len() as u64;
    pass.failed = received.failed;
    let window = ns(received.last.saturating_duration_since(start));
    window_of(&mut pass, received.window, window);
    // Every slice of an open loop completes the offered rate; the achieved
    // rate over the whole window shows whether the daemon kept up.
    pass.throughput_rps = ops.len() as f64 / (window as f64 / 1e9);
    let mut lateness = sent_ops.lateness;
    let late = Latency::of(&mut lateness);
    pass.notes.push(format!(
        "offered {} ops/s for {} s; generator lateness p50 {:.1} us p99 {:.1} us; \
         backlog max {} ops",
        gen::MIXED_RATE,
        ctx.seconds,
        late.p50_ns / 1e3,
        late.p99_ns / 1e3,
        received.backlog_max
    ));

    let mut replica = Replica::restored(&snapshots, traced)?;
    let bought_before: usize = replica
        .shards
        .iter()
        .map(|s| s.engine.ledger().leases_bought())
        .sum();
    let mut times = DemandTimes::default();
    for (tenant, time) in gen::mixed_warm(ctx.seed, ctx.sizes.mixed_warm) {
        times.add(tenant, time);
    }
    let mut lists = received.lists.iter().peekable();
    let mut list_mismatches = 0;
    let mut demands = 0;
    for (i, op) in ops.iter().enumerate() {
        let answer = replica.apply(*op)?;
        if op.kind == OpKind::Submit {
            times.add(op.tenant, op.time);
            demands += 1;
        }
        if let Some(expected) = answer {
            match lists.peek() {
                Some((j, got)) if *j == i => {
                    if *got != expected {
                        list_mismatches += 1;
                    }
                    lists.next();
                }
                _ => {}
            }
        }
    }
    pass.check(list_mismatches == 0, || {
        format!("{list_mismatches} list-active answers differ from the reference replay")
    });
    let whole = Delta {
        before: &before,
        after: &after,
    };
    daemon_checks(&mut pass, &whole, demands, &daemon_stats, &replica, &times)?;
    if traced {
        let mut tr = sent_ops.tracer;
        tr.merge(received.tracer);
        daemon_layers(
            &mut pass,
            &whole,
            demands as f64,
            received.reads.0 as f64 / received.reads.1.max(1) as f64,
        );
        pass.layer(
            "protocol.encode_ns_per_entry",
            tr.totals("protocol.encode").mean_ns(),
        );
        decode_layer(&mut pass, &sent_ops.payloads);
        engine_layers(&mut pass, &replica, bought_before, &replica);
        pass.layer("ledger.retained_decisions", daemon_retained);
        let engine_per_call =
            replica.engine_time.ns as f64 / replica.engine_time.calls.max(1) as f64;
        let hop: Vec<ShardRequest> = ops
            .iter()
            .filter(|op| op.tenant % SHARDS == 0)
            .take(HOP_SAMPLE)
            .map(|op| {
                let (tenant, time) = (op.tenant as usize, op.time);
                match op.kind {
                    OpKind::Submit => ShardRequest::Submit { tenant, time },
                    OpKind::List => ShardRequest::ListActive { tenant, time },
                    OpKind::Release => ShardRequest::ForceRelease { tenant, time },
                }
            })
            .collect();
        hop_layer(&mut pass, hop, snapshots.first().cloned(), engine_per_call);
        waterfall(&mut pass, &tr, whole.hist_mean("leased_submit_latency_ns"));
        pass.tracer = Some(tr);
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(scale: f64) -> Ctx {
        let scratch = std::env::temp_dir().join(format!("leasebench-test-{}", std::process::id()));
        Ctx {
            leased: Target::InProcess,
            sizes: Sizes::new(1, scale),
            cache: scratch.join("cache"),
            scratch,
            seed: 5,
            seconds: 1,
            origin: Instant::now(),
        }
    }

    #[test]
    fn the_reference_replay_matches_the_daemon_on_a_tiny_stream() {
        let ctx = ctx(1.0);
        let (daemon, _) = start_daemon(&ctx, None, None).unwrap();
        let mut conn = Conn::connect(daemon.addr()).unwrap();
        // Few tenants, so demands, releases and reads interleave on each.
        let ops: Vec<Op> = gen::mixed_ops(9, 400, 0)
            .into_iter()
            .map(|op| Op {
                tenant: op.tenant % 12,
                ..op
            })
            .collect();
        let mut replica = Replica::fresh(SHARDS as usize, false);
        let mut lists = 0;
        for op in &ops {
            let response = conn
                .request(&protocol::decode(&encode_op(op)).unwrap())
                .unwrap();
            match (replica.apply(*op).unwrap(), response) {
                (None, Response::Ok) => {}
                (Some(expected), Response::Leases(got)) => {
                    assert_eq!(got, expected, "list-active answer for {op:?}");
                    lists += 1;
                }
                (expected, got) => panic!("{op:?}: daemon said {got:?}, replay {expected:?}"),
            }
        }
        assert!(lists > 20, "the stream reads as well as writes");
        assert_eq!(stats(&mut conn).unwrap().to_json(), replica.stats_json());
        drop(conn);
        daemon.kill();
    }

    fn assert_waterfall(pass: &Pass) {
        assert!(pass.violations.is_empty(), "{:?}", pass.violations);
        let accounted = pass.layers["waterfall.accounted_frac"];
        assert!(
            (accounted - 1.0).abs() <= WATERFALL_TOLERANCE,
            "stage means account for {accounted} of the observed mean"
        );
        let tr = pass.tracer.as_ref().unwrap();
        let frames = tr.totals("client.frame").count;
        assert!(frames > 0);
        for stage in &STAGES[2..] {
            assert_eq!(tr.totals(stage).count, frames, "{stage} spans every frame");
        }
        assert_eq!(
            tr.totals("client.lateness").count,
            0,
            "closed loops have no due time"
        );
    }

    /// A traced pass with one frame of 1000 ns whose stages are `stages`.
    fn one_frame(stages: &[(&'static str, u64, u64)]) -> Pass {
        let mut tr = Tracer::new(true, Instant::now());
        tr.record("client.frame", None, 0, 0, 1_000);
        for &(name, start, end) in stages {
            tr.record(name, Some("client.frame"), 0, start, end);
        }
        let mut window = Window::new(SLO_NS);
        window.record(1, 1_000, true);
        let mut pass = Pass::default();
        window_of(&mut pass, window, 1_000);
        waterfall(&mut pass, &tr, 0.0);
        pass
    }

    #[test]
    fn the_waterfall_fails_on_an_untimed_or_doubly_timed_stage() {
        let whole = [
            ("client.send", 0, 100),
            ("client.flush", 100, 300),
            ("client.recv", 300, 900),
            ("protocol.decode", 900, 1_000),
        ];
        assert!(one_frame(&whole).violations.is_empty());
        let missing = one_frame(&whole[..3]);
        assert_eq!(missing.violations.len(), 1, "decode untimed");
        let missing = one_frame(&[whole[0], whole[1], whole[3]]);
        assert_eq!(missing.violations.len(), 1, "recv untimed");
        let mut twice = whole.to_vec();
        twice.push(("client.flush", 100, 300));
        assert_eq!(one_frame(&twice).violations.len(), 1, "flush timed twice");
    }

    #[test]
    fn the_snapshot_cache_belongs_to_one_build() {
        let state = std::env::temp_dir().join(format!("leasebench-cache-{}", std::process::id()));
        std::fs::create_dir_all(&state).unwrap();
        let bin = state.join("leased");
        std::fs::write(&bin, "build one").unwrap();
        let target = Target::Process(bin.clone());
        let first = cache_dir(&state, &target).unwrap();
        std::fs::create_dir_all(&first).unwrap();
        assert_eq!(
            cache_dir(&state, &target).unwrap(),
            first,
            "same build, same cache"
        );
        std::fs::write(&bin, "build two, longer").unwrap();
        let second = cache_dir(&state, &target).unwrap();
        assert_ne!(second, first);
        assert!(!first.exists(), "another build's cache is removed");
        std::fs::remove_dir_all(&state).unwrap();
    }

    #[test]
    fn traced_stages_account_for_the_observed_lockstep_mean() {
        let pass = lockstep(&ctx(0.005), true).unwrap();
        assert_waterfall(&pass);
        assert_eq!(pass.layers["shard.clamped_total"], 0.0);
        assert_eq!(pass.layers["engine.demands_per_call"], 1.0);
        assert!(pass.cost_ratio >= 1.0);
    }

    #[test]
    fn traced_stages_account_for_the_observed_pipelined_mean() {
        let pass = pipelined(&ctx(0.0005), true).unwrap();
        assert_waterfall(&pass);
        assert!(
            pass.layers["engine.demands_per_call"] > 32.0,
            "64-entry frames, one short"
        );
        assert!(pass.cost_ratio >= 1.0);
    }
}
