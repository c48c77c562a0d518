//! Load generator for the `leased` daemon.
//!
//! ```text
//! loadgen drive [--addr ADDR] [--leases N] [--tenants N]
//!               [--connections C] [--pipeline-depth D] [--batch B]
//!               [--out FILE] [--id ID] [--check-metrics]
//! loadgen stats     [--addr ADDR]
//! loadgen retention [--addr ADDR]
//! loadgen metrics   [--addr ADDR]
//! loadgen snapshot [--addr ADDR]
//! loadgen shutdown [--addr ADDR]
//! ```
//!
//! `drive` pushes `--leases` submit operations across `--tenants` tenants
//! through `--connections` parallel client connections and writes a
//! bench-gate compatible `{"benchmarks": [...]}` report carrying
//! `mean_ns`, `throughput_rps` and `p99_ns`. With `--out FILE` the entry
//! for `--id` is merged into `FILE`: entries for other ids are kept, so
//! regenerating one family never drops another. The traffic is
//! deterministic: request `i` is tenant `i % tenants` at time
//! `i / tenants`, and each connection owns the tenants congruent to its
//! index, so per-tenant order is preserved no matter the connection
//! count.
//!
//! `--batch B` packs up to `B` demands into one `submit-batch` frame;
//! `--pipeline-depth D` keeps up to `D` frames in flight per connection
//! before waiting for an answer. Latency is recorded **per frame, from
//! enqueue**: the clock starts when the frame is queued locally, not when
//! the write returns, so p99 under depth > 1 reflects what a caller
//! actually waits. `throughput_rps` always counts leases per second,
//! whatever the framing. Samples go straight into the workspace's shared
//! `leasing_telemetry` histogram — the same power-of-two bucketing the
//! daemon reports server-side, so client p99 and server p99 are directly
//! comparable — and recording is three relaxed atomic adds, no mid-run
//! allocation on the timing path.
//!
//! `--check-metrics` scrapes the daemon's `metrics` op before and after
//! the drive and verifies the served-demand delta
//! (`leased_submit_demands_total` summed over shards) equals the number
//! of leases this run submitted — the client-side count and the daemon's
//! own books must agree exactly.
//!
//! Defaults exercise the PR 7 scale: 100_000 leases over 1_000 tenants,
//! lockstep framing. The million-lease tier is
//! `--leases 1000000 --tenants 10000 --pipeline-depth 8 --batch 64`; the
//! CI smoke runs pass `--leases 1000 --tenants 16`.
//!
//! `stats` prints the daemon's deterministic stats JSON to stdout — the CI
//! restart check diffs this output byte-for-byte across a
//! snapshot/shutdown/restart cycle. `retention` prints the per-shard
//! decision-trace retention report (`mode`, `limit`, `retained`, `total`)
//! as one JSON line per shard — the CI bounded-retention check asserts
//! `retained <= limit` while the stats JSON matches the full-retention
//! lockstep daemon.

use leased::client::Client;
use leased::protocol::{Request, Response};
use leasing_telemetry::Histogram;
use std::collections::VecDeque;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: loadgen <drive|stats|retention|metrics|snapshot|shutdown> [--addr ADDR] \
                     [--leases N] [--tenants N] [--connections C] [--pipeline-depth D] \
                     [--batch B] [--out FILE] [--id ID] [--check-metrics]";

struct Args {
    command: String,
    addr: String,
    leases: u64,
    tenants: u64,
    connections: usize,
    pipeline_depth: usize,
    batch: usize,
    out: Option<String>,
    id: String,
    check_metrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or(USAGE.to_string())?;
    if !matches!(
        command.as_str(),
        "drive" | "stats" | "retention" | "metrics" | "snapshot" | "shutdown"
    ) {
        return Err(format!("unknown command {command:?}\n{USAGE}"));
    }
    let mut args = Args {
        command,
        addr: "127.0.0.1:7878".to_string(),
        leases: 100_000,
        tenants: 1_000,
        connections: 4,
        pipeline_depth: 1,
        batch: 1,
        out: None,
        id: "leased/loadgen/submit".to_string(),
        check_metrics: false,
    };
    while let Some(flag) = it.next() {
        // Both `--flag value` and `--flag=value` spellings are accepted.
        let (flag, inline) = match flag.split_once('=') {
            Some((name, value)) => (name.to_string(), Some(value.to_string())),
            None => (flag, None),
        };
        let mut value = |name: &str| match inline.clone() {
            Some(value) => Ok(value),
            None => it.next().ok_or(format!("{name} needs a value")),
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--leases" => {
                args.leases = value("--leases")?
                    .parse()
                    .map_err(|e| format!("--leases: {e}"))?
            }
            "--tenants" => {
                args.tenants = value("--tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?
            }
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?
            }
            "--pipeline-depth" => {
                args.pipeline_depth = value("--pipeline-depth")?
                    .parse()
                    .map_err(|e| format!("--pipeline-depth: {e}"))?
            }
            "--batch" => {
                args.batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--id" => args.id = value("--id")?,
            "--check-metrics" => args.check_metrics = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.leases == 0 || args.tenants == 0 {
        return Err("--leases and --tenants must be positive".to_string());
    }
    if args.pipeline_depth == 0 || args.batch == 0 {
        return Err("--pipeline-depth and --batch must be positive".to_string());
    }
    Ok(args)
}

/// The lane-independent drive parameters shared by every worker.
struct LanePlan<'a> {
    addr: &'a str,
    leases: u64,
    tenants: u64,
    lanes: u64,
    depth: usize,
    batch: usize,
}

/// Per-connection drive: submits every request whose tenant is congruent
/// to `lane` modulo `plan.lanes`, packing `plan.batch` demands per frame
/// and keeping up to `plan.depth` frames in flight. Records one latency
/// sample per frame, measured from enqueue, into the shared `latency`
/// histogram.
fn drive_lane(plan: &LanePlan<'_>, lane: u64, latency: &Histogram) -> Result<(), String> {
    let &LanePlan {
        addr,
        leases,
        tenants,
        lanes,
        depth,
        batch,
    } = plan;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // The arrival stream is pre-generated so frame assembly is the only
    // per-op work on the timing path.
    let ops: Vec<(u64, u64)> = (0..leases)
        .filter_map(|i| {
            let tenant = i % tenants;
            (tenant % lanes == lane).then(|| (tenant, i / tenants))
        })
        .collect();
    let mut inflight: VecDeque<Instant> = VecDeque::with_capacity(depth);
    let settle = |client: &mut Client, inflight: &mut VecDeque<Instant>| {
        let Some(enqueued) = inflight.pop_front() else {
            return Err("response accounting out of sync".to_string());
        };
        match client.recv().map_err(|e| format!("recv: {e}"))? {
            Response::Ok | Response::Submitted(_) => {}
            Response::Error(message) => return Err(format!("daemon: {message}")),
            other => return Err(format!("unexpected response {other:?}")),
        }
        let nanos = enqueued.elapsed().as_nanos();
        latency.record(u64::try_from(nanos).unwrap_or(u64::MAX));
        Ok(())
    };
    for chunk in ops.chunks(batch) {
        let request = match chunk {
            &[(tenant, time)] if batch == 1 => Request::Submit { tenant, time },
            entries => Request::SubmitBatch {
                entries: entries.to_vec(),
            },
        };
        // The latency clock starts at enqueue: queued-behind-the-window
        // time is part of what a caller waits for under pipelining.
        inflight.push_back(Instant::now());
        client.send(&request).map_err(|e| format!("send: {e}"))?;
        if inflight.len() >= depth {
            client.flush().map_err(|e| format!("flush: {e}"))?;
            settle(&mut client, &mut inflight)?;
        }
    }
    client.flush().map_err(|e| format!("flush: {e}"))?;
    while !inflight.is_empty() {
        settle(&mut client, &mut inflight)?;
    }
    Ok(())
}

struct DriveReport {
    iterations: u64,
    mean_ns: f64,
    p99_ns: u64,
    throughput_rps: f64,
}

fn drive(args: &Args) -> Result<DriveReport, String> {
    let lanes = u64::try_from(args.connections.max(1)).map_err(|e| e.to_string())?;
    let lanes = lanes.min(args.tenants);
    // One lock-free histogram shared by every lane: recording is a few
    // relaxed atomic adds, and the result is the exact merged view a
    // post-run merge of per-lane histograms would produce.
    let latency = Histogram::new();
    let plan = LanePlan {
        addr: args.addr.as_str(),
        leases: args.leases,
        tenants: args.tenants,
        lanes,
        depth: args.pipeline_depth,
        batch: args.batch,
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..lanes)
            .map(|lane| {
                let (plan, latency) = (&plan, &latency);
                scope.spawn(move || drive_lane(plan, lane, latency))
            })
            .collect();
        let mut merged = Ok(());
        for worker in workers {
            match (worker.join(), &merged) {
                (Ok(Ok(())), _) => {}
                (Ok(Err(message)), Ok(())) => merged = Err(message),
                (Err(_), Ok(())) => merged = Err("drive worker panicked".to_string()),
                _ => {}
            }
        }
        merged
    })?;
    let elapsed = started.elapsed();
    let snapshot = latency.snapshot();
    if snapshot.count() == 0 {
        return Err("no requests were sent".to_string());
    }
    Ok(DriveReport {
        iterations: snapshot.count(),
        mean_ns: snapshot.mean(),
        // Bucketed p99: never below the true order statistic, at most one
        // power of two above it, clamped by the exact recorded max.
        p99_ns: snapshot.quantile(0.99),
        // Throughput counts leases, not frames — a batched frame carries
        // `--batch` of them — so runs with different framing compare on
        // the same axis.
        throughput_rps: args.leases as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
    })
}

/// Sums every sample line of metric `family` in a Prometheus text
/// exposition (bare or labelled), skipping `_bucket`/`_sum`/`_count`
/// sibling series.
fn metric_sum(text: &str, family: &str) -> u64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let rest = line.strip_prefix(family)?;
            let value = match rest.strip_prefix('{') {
                Some(tail) => tail.split_once('}').map(|(_, v)| v)?,
                None if rest.starts_with(' ') => rest,
                None => return None,
            };
            value.trim().parse::<u64>().ok()
        })
        .fold(0u64, |a, v| a.saturating_add(v))
}

/// Scrapes the daemon over the wire protocol and returns the total
/// served-demand count across shards.
fn scrape_submit_demands(addr: &str) -> Result<u64, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let text = client.metrics_text().map_err(|e| format!("metrics: {e}"))?;
    Ok(metric_sum(&text, "leased_submit_demands_total"))
}

/// One baseline entry line for `report` under `id`.
fn report_line(id: &str, report: &DriveReport) -> String {
    format!(
        "{{\"id\": \"{id}\", \"mean_ns\": {:.2}, \"iterations\": {}, \
         \"throughput_rps\": {:.1}, \"p99_ns\": {}}}",
        report.mean_ns, report.iterations, report.throughput_rps, report.p99_ns
    )
}

/// The baseline file holding `line` (the fresh entry for `id`) after the
/// entries of `existing` that this run did not re-measure — the same
/// line-oriented merge the criterion shim's `finalize` performs, so a
/// partial regeneration never drops another gated family.
fn merged_report(existing: Option<&str>, id: &str, line: &str) -> String {
    let mut lines: Vec<&str> = existing
        .into_iter()
        .flat_map(str::lines)
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| {
            l.strip_prefix("{\"id\": \"")
                .and_then(|rest| rest.split('"').next())
                .is_some_and(|kept| kept != id)
        })
        .collect();
    lines.push(line);
    format!(
        "{{\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
        lines.join(",\n    ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    match args.command.as_str() {
        "drive" => {
            let demands_before = if args.check_metrics {
                Some(scrape_submit_demands(&args.addr)?)
            } else {
                None
            };
            let report = drive(args)?;
            if let Some(before) = demands_before {
                // The daemon's counters are cumulative across runs, so the
                // cross-check compares the delta this drive produced.
                let after = scrape_submit_demands(&args.addr)?;
                let served = after.saturating_sub(before);
                if served != args.leases {
                    return Err(format!(
                        "metrics cross-check failed: daemon counted {served} served demands, \
                         client sent {}",
                        args.leases
                    ));
                }
                println!(
                    "loadgen: metrics cross-check ok ({served} demands, client and daemon agree)"
                );
            }
            let line = report_line(&args.id, &report);
            println!(
                "loadgen: {} leases in {} frames, mean {:.0} ns/frame, p99 {} ns, {:.0} rps",
                args.leases,
                report.iterations,
                report.mean_ns,
                report.p99_ns,
                report.throughput_rps
            );
            if let Some(out) = &args.out {
                let existing = std::fs::read_to_string(out).ok();
                let text = merged_report(existing.as_deref(), &args.id, &line);
                std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
            } else {
                print!("{}", merged_report(None, &args.id, &line));
            }
            Ok(())
        }
        "stats" => {
            let mut client =
                Client::connect(args.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!("{}", stats.to_json());
            Ok(())
        }
        "retention" => {
            let mut client =
                Client::connect(args.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
            let shards = client.retention_info().map_err(|e| e.to_string())?;
            for (index, info) in shards.iter().enumerate() {
                println!(
                    "{{\"shard\": {index}, \"mode\": \"{}\", \"limit\": {}, \
                     \"retained\": {}, \"total\": {}}}",
                    info.mode, info.limit, info.retained, info.total
                );
            }
            Ok(())
        }
        "metrics" => {
            let mut client =
                Client::connect(args.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
            let text = client.metrics_text().map_err(|e| e.to_string())?;
            print!("{text}");
            Ok(())
        }
        "snapshot" => {
            let mut client =
                Client::connect(args.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
            client.snapshot().map_err(|e| e.to_string())
        }
        "shutdown" => {
            let mut client =
                Client::connect(args.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
            client.shutdown().map_err(|e| e.to_string())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("loadgen: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{merged_report, metric_sum};

    #[test]
    fn out_file_merge_keeps_entries_this_run_did_not_measure() {
        let existing = "{\n  \"benchmarks\": [\n    \
            {\"id\": \"driver/submit_det_permit/1024\", \"mean_ns\": 45.00, \"iterations\": 9},\n    \
            {\"id\": \"leased/loadgen/submit\", \"mean_ns\": 1.00, \"iterations\": 1},\n    \
            {\"id\": \"leased/loadgen/pipelined\", \"mean_ns\": 2.00, \"iterations\": 2}\n  ]\n}\n";
        let fresh = "{\"id\": \"leased/loadgen/submit\", \"mean_ns\": 7.00, \"iterations\": 3}";
        let merged = merged_report(Some(existing), "leased/loadgen/submit", fresh);
        assert_eq!(
            merged,
            "{\n  \"benchmarks\": [\n    \
             {\"id\": \"driver/submit_det_permit/1024\", \"mean_ns\": 45.00, \"iterations\": 9},\n    \
             {\"id\": \"leased/loadgen/pipelined\", \"mean_ns\": 2.00, \"iterations\": 2},\n    \
             {\"id\": \"leased/loadgen/submit\", \"mean_ns\": 7.00, \"iterations\": 3}\n  ]\n}\n"
        );
        // Without an existing file the report holds just the fresh entry.
        assert_eq!(
            merged_report(None, "leased/loadgen/submit", fresh),
            format!("{{\n  \"benchmarks\": [\n    {fresh}\n  ]\n}}\n")
        );
    }

    #[test]
    fn metric_sum_adds_labelled_and_bare_samples() {
        let text = "# HELP leased_submit_demands_total demands\n\
                    # TYPE leased_submit_demands_total counter\n\
                    leased_submit_demands_total{shard=\"0\"} 40\n\
                    leased_submit_demands_total{shard=\"1\"} 2\n\
                    leased_frames_read_total 7\n";
        assert_eq!(metric_sum(text, "leased_submit_demands_total"), 42);
        assert_eq!(metric_sum(text, "leased_frames_read_total"), 7);
        assert_eq!(metric_sum(text, "leased_missing"), 0);
    }

    #[test]
    fn metric_sum_skips_sibling_series_and_comments() {
        let text = "# TYPE leased_lat histogram\n\
                    leased_lat_bucket{le=\"+Inf\"} 5\n\
                    leased_lat_sum 900\n\
                    leased_lat_count 5\n\
                    leased_lat 3\n";
        assert_eq!(
            metric_sum(text, "leased_lat"),
            3,
            "suffixed series never leak into the family sum"
        );
    }
}
