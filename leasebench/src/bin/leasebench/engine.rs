//! `engine-stream`: the library surface with no transport. The measured
//! engine runs in a child process (`leasebench engine-child`) so that its
//! peak memory is the engine's own.

use crate::daemon::peak_rss_mb;
use crate::gen::{self, EngineStream, Sizes};
use crate::reference::{structure, DemandTimes, PolicyClock, Replica, ShardEngine};
use crate::runs::{Ctx, Pass, SETUPS};
use crate::stats::{median, Latency, Window};
use crate::trace::Tracer;
use leased::metrics::ShardMetrics;
use leased::protocol::{self, Request, Response};
use leased::shard::{restore_shard, Shard, ShardRequest};
use leased::TenantOp;
use leasing_core::engine::DecisionRetention;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retention of the measured engine.
const ENGINE_RETENTION: DecisionRetention = DecisionRetention::Bounded(4096);
/// 64-entry frames replayed for the transport-layer numbers of a stream
/// that never crosses a socket.
const CODEC_FRAMES: usize = 2_000;

/// The warm single-engine snapshot, built once per seed in the cache of
/// this build.
fn warm_snapshot(ctx: &Ctx) -> Result<(String, std::path::PathBuf), String> {
    let path = ctx.cache.join(format!(
        "engine-warm-{}-{}.json",
        ctx.seed, ctx.sizes.engine_warm
    ));
    if let Ok(text) = std::fs::read_to_string(&path) {
        return Ok((text, path));
    }
    let mut replica = Replica::fresh(1, false);
    for (tenant, time) in gen::engine_warm(ctx.seed, ctx.sizes.engine_warm) {
        replica.submit_run(time, &[tenant])?;
    }
    let text = replica.shards[0].snapshot();
    std::fs::create_dir_all(&ctx.cache).map_err(|e| format!("{}: {e}", ctx.cache.display()))?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, &text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((text, path))
}

/// The child: restore, stream for `seconds`, finish untimed, report.
/// Prints `name value` lines, then `stats <json>`.
pub fn child(
    snapshot: &Path,
    seed: u64,
    seconds: u64,
    sizes: Sizes,
    traced: bool,
    trace_out: &Path,
) -> Result<(), String> {
    let text =
        std::fs::read_to_string(snapshot).map_err(|e| format!("{}: {e}", snapshot.display()))?;
    let clock = traced.then(|| Rc::new(PolicyClock::default()));
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let started = Instant::now();
        let restored = match &clock {
            None => restore_shard(structure(), &text)
                .map(|(e, _)| e)
                .map_err(|e| e.to_string())?,
            Some(c) => ShardEngine::restore(&text, Some(Rc::clone(c)))?.engine,
        };
        setups.push(started.elapsed().as_secs_f64());
        engine = Some(restored);
    }
    let mut engine = engine.ok_or("no engine restored")?;
    engine.set_retention(ENGINE_RETENTION);
    let bought_before = engine.ledger().leases_bought();
    let mut tr = Tracer::new(traced, Instant::now());

    let mut stream = EngineStream::new(seed, sizes.engine_demands, sizes.engine_warm);
    let mut run = Vec::new();
    let mut window = Window::new(crate::runs::SLO_NS);
    let (mut window_demands, mut demands, mut calls) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut measuring = true;
    let mut window_end = deadline;
    // Policy time inside the measured window.
    let policy_ns = |c: &Option<Rc<PolicyClock>>| c.as_ref().map_or(0, |c| c.ns.get());
    let mut window_policy_ns = None;
    while let Some(time) = stream.next_run(&mut run) {
        let started = Instant::now();
        if measuring && started >= deadline {
            measuring = false;
            window_policy_ns = Some(policy_ns(&clock));
        }
        let span_start = tr.now();
        engine
            .submit_at(time, run.iter().map(|&t| TenantOp::Demand(t)))
            .map_err(|e| e.to_string())?;
        if measuring {
            let done = Instant::now();
            window.record(run.len() as u64, (done - started).as_nanos() as u64, true);
            tr.record("engine.submit_at", None, calls, span_start, tr.now());
            window_demands += run.len() as u64;
            window_end = done;
            calls += 1;
        }
        demands += run.len() as u64;
    }
    let window_policy_ns = window_policy_ns.unwrap_or_else(|| policy_ns(&clock));
    let rss = peak_rss_mb("/proc/self/status")?;
    let window_ns = (window_end - start).as_nanos() as u64;
    let throughput = window.throughput(window_ns);
    let slo_misses = window.misses();
    let latency = window.latency();
    let mut out = std::io::stdout().lock();
    let mut line = |name: &str, value: f64| writeln!(out, "{name} {value}");
    let io = |e: std::io::Error| e.to_string();
    line("setup_s", median(&setups)).map_err(io)?;
    line("peak_rss_mb", rss).map_err(io)?;
    line("throughput_rps", throughput).map_err(io)?;
    line("latency_p50_ns", latency.p50_ns).map_err(io)?;
    line("latency_p99_ns", latency.p99_ns).map_err(io)?;
    line("latency_mean_ns", latency.mean_ns).map_err(io)?;
    line("latency_count", latency.count as f64).map_err(io)?;
    line("slo_misses", slo_misses as f64).map_err(io)?;
    line("demands", demands as f64).map_err(io)?;
    line("total_cost", engine.cost()).map_err(io)?;
    if let Some(clock) = &clock {
        let engine_ns = tr.totals("engine.submit_at").total_ns;
        tr.add_totals("policy.on_request", clock.calls.get(), clock.ns.get());
        line(
            "engine.submit_at_ns_per_demand",
            engine_ns as f64 / window_demands.max(1) as f64,
        )
        .map_err(io)?;
        line(
            "engine.demands_per_call",
            window_demands as f64 / calls.max(1) as f64,
        )
        .map_err(io)?;
        line(
            "policy.on_request_ns",
            clock.ns.get() as f64 / clock.calls.get().max(1) as f64,
        )
        .map_err(io)?;
        line(
            "policy.purchases_per_demand",
            (engine.ledger().leases_bought() - bought_before) as f64 / demands.max(1) as f64,
        )
        .map_err(io)?;
        // The policy wrapper is the one separately timed span inside a
        // `submit_at` call: its share of the observed call time.
        line(
            "waterfall.accounted_frac",
            window_policy_ns as f64 / (latency.mean_ns * calls as f64),
        )
        .map_err(io)?;
        let mut pass = Pass::default();
        crate::runs::ledger_layers(&mut pass, &[&engine], &[&engine]);
        for (name, value) in &pass.layers {
            line(name, *value).map_err(io)?;
        }
        let mut file = std::fs::File::create(trace_out).map_err(|e| e.to_string())?;
        tr.write(&mut file).map_err(io)?;
    }
    writeln!(out, "stats {}", engine.stats().to_json()).map_err(io)?;
    Ok(())
}

/// The parent side of `engine-stream`.
pub fn engine_stream(ctx: &Ctx, traced: bool, trace_out: &Path) -> Result<Pass, String> {
    let (snapshot, path) = warm_snapshot(ctx)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("engine-child")
        .arg("--snapshot")
        .arg(&path)
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--trace-out")
        .arg(trace_out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("engine child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("engine child failed ({}): {text}", output.status));
    }
    let mut values = BTreeMap::new();
    let mut child_stats = None;
    for line in text.lines() {
        if let Some(json) = line.strip_prefix("stats ") {
            child_stats = Some(json.to_string());
        } else if let Some((name, value)) = line.split_once(' ') {
            values.insert(
                name.to_string(),
                value.parse::<f64>().map_err(|e| format!("{line}: {e}"))?,
            );
        }
    }
    let get = |name: &str| {
        values
            .get(name)
            .copied()
            .ok_or(format!("engine child did not report {name}"))
    };
    let mut pass = Pass {
        setup_s: get("setup_s")?,
        peak_rss_mb: get("peak_rss_mb")?,
        throughput_rps: get("throughput_rps")?,
        latency: Some(Latency {
            count: get("latency_count")? as usize,
            p50_ns: get("latency_p50_ns")?,
            p99_ns: get("latency_p99_ns")?,
            mean_ns: get("latency_mean_ns")?,
        }),
        slo_misses: get("slo_misses")? as u64,
        slo_limit_ns: crate::runs::SLO_NS,
        attempted: get("demands")? as u64,
        ..Pass::default()
    };
    let expected = ctx.sizes.engine_demands;
    let demands = pass.attempted;
    pass.check(demands == expected, || {
        format!("engine served {demands} demands, the stream holds {expected}")
    });

    // Reference: the same stream restored by the benchmark's own snapshot
    // reader and keeping no decisions; stats must not depend on either.
    let mut replica = Replica::restored(std::slice::from_ref(&snapshot), false)?;
    replica.set_retention(DecisionRetention::AggregateOnly);
    let mut times = DemandTimes::default();
    for (tenant, time) in gen::engine_warm(ctx.seed, ctx.sizes.engine_warm) {
        times.add(tenant, time);
    }
    let mut stream = EngineStream::new(ctx.seed, ctx.sizes.engine_demands, ctx.sizes.engine_warm);
    let mut run = Vec::new();
    let mut tenants: Vec<u64> = Vec::new();
    let mut frames: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut frame = Vec::new();
    while let Some(time) = stream.next_run(&mut run) {
        tenants.clear();
        tenants.extend(run.iter().map(|&t| t as u64));
        replica.submit_run(time, &tenants)?;
        for &tenant in &tenants {
            times.add(tenant, time);
            if traced && frames.len() < CODEC_FRAMES {
                frame.push((tenant, time));
                if frame.len() == gen::PIPELINED_BATCH {
                    frames.push(std::mem::take(&mut frame));
                }
            }
        }
    }
    let reference = replica.shards[0].engine.stats().to_json();
    let actual = child_stats.unwrap_or_default();
    pass.check(actual == reference, || {
        format!("engine stats differ from the reference replay:\n  engine    {actual}\n  reference {reference}")
    });
    let cost = replica.total_cost();
    let optimum = times.optimum()?;
    pass.cost_ratio = get("total_cost")? / optimum;
    let ratio = pass.cost_ratio;
    pass.check(
        ratio >= 1.0 - 1e-9 && (cost - get("total_cost")?).abs() <= 1e-6 * cost,
        || format!("cost_ratio {ratio} (engine cost vs reference {cost})"),
    );

    if traced {
        for (name, value) in &values {
            if let Some((name, _)) = crate::PER_LAYER.iter().find(|(n, _)| *n == name.as_str()) {
                pass.layer(name, *value);
            }
        }
        transport_layers(&mut pass, &frames, &snapshot)?;
    }
    Ok(pass)
}

/// What the stream would cost the transport layers: its demands encoded
/// and decoded as 64-entry `submit-batch` frames, and served through an
/// in-process `Shard` restored from the same warm state. The hop is the
/// shard's call time minus the time an untraced engine restored from that
/// state spends on the same frames.
fn transport_layers(
    pass: &mut Pass,
    frames: &[Vec<(u64, u64)>],
    snapshot: &str,
) -> Result<(), String> {
    let entries = (frames.len() * gen::PIPELINED_BATCH).max(1) as f64;
    let requests: Vec<Request> = frames
        .iter()
        .map(|f| Request::SubmitBatch { entries: f.clone() })
        .collect();
    let started = Instant::now();
    let payloads: Vec<String> = requests.iter().map(protocol::encode).collect();
    pass.layer(
        "protocol.encode_ns_per_entry",
        started.elapsed().as_nanos() as f64 / entries,
    );
    let started = Instant::now();
    for payload in &payloads {
        let _ = std::hint::black_box(protocol::decode::<Request>(payload));
    }
    pass.layer(
        "protocol.decode_ns_per_entry",
        started.elapsed().as_nanos() as f64 / entries,
    );
    let reply = protocol::encode(&Response::Submitted(gen::PIPELINED_BATCH as u64));
    let bytes: usize = payloads.iter().map(|p| p.len() + 4 + reply.len() + 4).sum();
    pass.layer("protocol.wire_bytes_per_demand", bytes as f64 / entries);

    let (mut engine, _) = restore_shard(structure(), snapshot).map_err(|e| e.to_string())?;
    let started = Instant::now();
    for f in frames {
        // Equal-time runs, as the shard's micro-batching serves them.
        for run in f.chunk_by(|a, b| a.1 == b.1) {
            engine
                .submit_at(
                    run[0].1,
                    run.iter().map(|&(t, _)| TenantOp::Demand(t as usize)),
                )
                .map_err(|e| e.to_string())?;
        }
    }
    let engine_ns_per_frame = started.elapsed().as_nanos() as f64 / frames.len().max(1) as f64;
    drop(engine);

    let metrics = Arc::new(ShardMetrics::new());
    let shard = Shard::spawn(
        0,
        structure(),
        1024,
        Some(snapshot.to_string()),
        Arc::clone(&metrics),
        0,
        DecisionRetention::Full,
    );
    // The worker restores before its first answer; keep that out of the timings.
    let _ = shard.call(ShardRequest::Stats);
    let mut calls = Vec::with_capacity(frames.len());
    for f in frames {
        let entries = f.iter().map(|&(t, time)| (t as usize, time)).collect();
        let started = Instant::now();
        let _ = shard.call(ShardRequest::SubmitBatch { entries });
        calls.push(started.elapsed().as_nanos() as u64);
    }
    let _ = shard.call(ShardRequest::Shutdown);
    shard.join();
    let call = Latency::of(&mut calls);
    pass.layer("server.dispatch_ns_p50", call.p50_ns);
    pass.layer("server.dispatch_ns_p99", call.p99_ns);
    pass.layer("server.frames_per_flush", 1.0);
    pass.layer("shard.hop_ns", call.mean_ns - engine_ns_per_frame);
    pass.layer(
        "shard.micro_batch_mean",
        metrics.micro_batch_len.snapshot().mean(),
    );
    pass.layer(
        "shard.mailbox_high_watermark",
        metrics.mailbox_high_watermark.get() as f64,
    );
    pass.layer(
        "shard.clamped_total",
        metrics.clamped_timestamps.get() as f64,
    );
    Ok(())
}
