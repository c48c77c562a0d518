//! `leasebench`: the end-to-end and per-layer benchmark of the `leased`
//! daemon and the leasing engine. See `leasebench/README.md`.
//!
//! ```text
//! leasebench run --workload W --seed N --seconds S --trace 0|1
//!                --leased PATH --state DIR
//! ```
//!
//! Prints one line per metric, then, as the last line, a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! correctness check fails, 2 on a usage error.

mod client;
mod daemon;
mod engine;
mod gen;
mod reference;
mod runs;
mod stats;
mod trace;

use daemon::Target;
use gen::Sizes;
use runs::{Ctx, Pass};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: &[&str] = &["lockstep", "pipelined", "mixed", "engine-stream"];

/// End-to-end metrics, with their units, as `BENCHMARK.json` lists them.
/// `latency_p99_us` is printed beside them but not gated: on a shared
/// 2-vCPU machine its run-to-run spread exceeds any allowed bound.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("slo_met_frac", "ratio"),
    ("served_frac", "ratio"),
    ("cost_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, with their units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.encode_ns_per_entry", "ns"),
    ("protocol.decode_ns_per_entry", "ns"),
    ("protocol.wire_bytes_per_demand", "B"),
    ("server.dispatch_ns_p50", "ns"),
    ("server.dispatch_ns_p99", "ns"),
    ("server.frames_per_flush", "frames"),
    ("shard.hop_ns", "ns"),
    ("shard.micro_batch_mean", "demands"),
    ("shard.mailbox_high_watermark", "ops"),
    ("shard.clamped_total", "count"),
    ("engine.submit_at_ns_per_demand", "ns"),
    ("engine.demands_per_call", "demands"),
    ("policy.on_request_ns", "ns"),
    ("policy.purchases_per_demand", "leases"),
    ("ledger.active_lease_query_ns", "ns"),
    ("ledger.retained_decisions", "decisions"),
    ("ledger.snapshot_ns", "ns"),
    ("ledger.restore_ns", "ns"),
    ("ledger.snapshot_bytes", "B"),
    ("waterfall.accounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    leased: PathBuf,
    state: PathBuf,
    snapshot: PathBuf,
    trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command: run or engine-child")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        leased: PathBuf::new(),
        state: PathBuf::new(),
        snapshot: PathBuf::new(),
        trace_out: PathBuf::new(),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--leased" => args.leased = PathBuf::from(value),
            "--state" => args.state = PathBuf::from(value),
            "--snapshot" => args.snapshot = PathBuf::from(value),
            "--trace-out" => args.trace_out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("leasebench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "engine-child" => engine::child(
            &args.snapshot,
            args.seed,
            args.seconds,
            Sizes::new(args.seconds, 1.0),
            args.trace,
            &args.trace_out,
        )
        .map(|()| true),
        "run" => run(&args),
        other => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("leasebench: {message}");
            ExitCode::from(1)
        }
    }
}

fn pass(
    workload: &str,
    ctx: &Ctx,
    traced: bool,
    trace_out: &std::path::Path,
) -> Result<Pass, String> {
    match workload {
        "lockstep" => runs::lockstep(ctx, traced),
        "pipelined" => runs::pipelined(ctx, traced),
        "mixed" => runs::mixed(ctx, traced),
        "engine-stream" => engine::engine_stream(ctx, traced, trace_out),
        other => Err(format!(
            "unknown workload {other}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Runs one workload and prints its report; `Ok(false)` when a
/// correctness check failed.
fn run(args: &Args) -> Result<bool, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?}",
            args.workload
        ));
    }
    let scratch = args.state.join(format!("run-{}", std::process::id()));
    let leased = Target::Process(args.leased.clone());
    let cache = runs::cache_dir(&args.state, &leased)?;
    let ctx = Ctx {
        leased,
        sizes: Sizes::new(args.seconds, 1.0),
        scratch: scratch.clone(),
        cache,
        seed: args.seed,
        seconds: args.seconds,
        origin: Instant::now(),
    };
    let traces = args.state.join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| format!("{}: {e}", traces.display()))?;
    let trace_out = traces.join(format!("{}-seed{}.jsonl", args.workload, args.seed));

    let hardware = hardware();
    println!(
        "leasebench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("hardware: {hardware}");
    let plain = pass(&args.workload, &ctx, false, &trace_out);
    let _ = std::fs::remove_dir_all(&scratch);
    let plain = plain?;
    let mut passes = vec![plain];
    if args.trace {
        let traced = pass(&args.workload, &ctx, true, &trace_out);
        let _ = std::fs::remove_dir_all(&scratch);
        let mut traced = traced?;
        let overhead = traced.mean_ns() / passes[0].mean_ns() - 1.0;
        traced.layer("trace.overhead_frac", overhead);
        if let Some(tr) = &traced.tracer {
            let mut file = std::fs::File::create(&trace_out).map_err(|e| e.to_string())?;
            tr.write(&mut file).map_err(|e| e.to_string())?;
            println!(
                "trace: {} (self time per span name below)",
                trace_out.display()
            );
            for (name, t) in tr.all_totals() {
                println!(
                    "  {name:<18} n={:<9} mean {:>10.0} ns  self {:>10.0} ns",
                    t.count,
                    t.mean_ns(),
                    t.self_ns() as f64 / t.count.max(1) as f64
                );
            }
        }
        passes.push(traced);
    }

    let main = &passes[0];
    let latency = main.latency.ok_or("no latency samples")?;
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let error_rate = main.failed as f64 / main.attempted.max(1) as f64;
    let slo_miss = main.slo_misses as f64 / latency.count.max(1) as f64;
    let e2e: Vec<(&str, f64)> = vec![
        ("throughput_rps", main.throughput_rps),
        ("latency_p50_us", latency.p50_ns / 1e3),
        ("slo_met_frac", 1.0 - slo_miss),
        ("served_frac", 1.0 - error_rate),
        ("cost_ratio", main.cost_ratio),
        ("setup_s", main.setup_s),
        ("peak_rss_mb", main.peak_rss_mb),
    ];
    for (name, value) in &e2e {
        println!("{name} {value} {}", unit(END_TO_END, name));
    }
    println!(
        "latency_p99_us {} us (not gated)\n  latency samples {} ({} beyond p99); \
         slo_miss_frac {slo_miss} (limit {} ms); error_rate {error_rate} ({} of {} ops)",
        latency.p99_ns / 1e3,
        latency.count,
        latency.beyond_p99(),
        main.slo_limit_ns as f64 / 1e6,
        main.failed,
        main.attempted
    );
    for pass in &passes {
        for note in &pass.notes {
            println!("  {note}");
        }
    }
    let violations: Vec<&String> = passes.iter().flat_map(|p| &p.violations).collect();
    for v in &violations {
        println!("CHECK FAILED: {v}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let layers = &passes[passes.len() - 1].layers;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                layers
                    .get(name)
                    .map(|&v| (name, v, unit))
                    .ok_or(format!("per-layer metric {name} was not measured"))
            })
            .collect::<Result<_, _>>()?
    } else {
        e2e.iter()
            .map(|&(name, v)| (name, v, unit(END_TO_END, name)))
            .collect()
    };
    if args.trace {
        for (name, value, unit) in &metrics {
            println!("{name} {value} {unit}");
        }
    }
    let correct = violations.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    let results = args.state.join("results");
    if std::fs::create_dir_all(&results).is_ok() {
        let file = results.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload, args.seed, args.trace as u8
        ));
        let _ = std::fs::write(
            file,
            format!("{{\"hardware\": \"{hardware}\", \"result\": {result}}}\n"),
        );
    }
    println!("{result}");
    Ok(correct)
}

fn unit<'a>(table: &[(&str, &'a str)], name: &str) -> &'a str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// JSON has no NaN or infinity; those become `null` (and fail `correct`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `nproc` and the CPU model, for the report.
fn hardware() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, m)| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc {nproc}, cpu {model}")
}
