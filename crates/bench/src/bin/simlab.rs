//! `simlab` — the scenario-matrix CLI over the SimLab subsystem.
//!
//! Runs a cross product of {algorithm × workload × seed} through the
//! unified engine, sharded across worker threads, and emits both a summary
//! table and a machine-readable `BENCH_simlab.json`. The aggregate
//! statistics are bit-identical regardless of `--threads`.
//!
//! ```text
//! cargo run --release --bin simlab -- \
//!     --algorithms permit-det,permit-rand,old \
//!     --workloads rainy:p=0.7,diurnal,spikes --seeds 8 --threads 4
//! simlab --list                       # show algorithms and presets
//! simlab --algorithms all             # run the whole registry
//! simlab --cell-budget-ms 5000        # timeout slow cells as failures
//! simlab --compact-every=2048         # prune coverage history on horizons >= 8192
//! simlab --retention bounded:4096     # cap the per-cell decision trace (or `aggregate`)
//! simlab --baseline old.json          # diff the fresh run vs a baseline
//! simlab --baseline old.json --candidate new.json   # pure file diff
//! simlab --max-ratio 6.0              # absolute empirical-ratio gate
//! ```
//!
//! With `--baseline`, competitive-ratio regressions beyond `--tolerance`
//! (relative, default 0.05) exit with status 3. With `--max-ratio`, any
//! successful cell whose empirical ratio exceeds the bound also exits 3 —
//! the CI guard that the online algorithms keep tracking the paper's
//! guarantees against the offline oracles.

use leasing_bench::table;
use leasing_core::engine::DecisionRetention;
use leasing_simlab::baseline::{diff_reports, ratio_violations};
use leasing_simlab::registry::{select_algorithms, standard_registry};
use leasing_simlab::report::MatrixReport;
use leasing_simlab::runner::{run_matrix, MatrixConfig};
use leasing_simlab::scenario::Scenario;

struct Args {
    algorithms: String,
    workloads: String,
    seeds: u64,
    seed_base: u64,
    threads: usize,
    horizon: u64,
    elements: usize,
    out: String,
    list: bool,
    cell_budget_ms: u64,
    compact_every: Option<u64>,
    retention: DecisionRetention,
    baseline: Option<String>,
    candidate: Option<String>,
    tolerance: f64,
    max_ratio: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        algorithms: "permit-det,permit-rand,rate-threshold,empirical-rate,old".into(),
        workloads: "rainy,diurnal,spikes".into(),
        seeds: 8,
        seed_base: 1,
        threads: 2,
        horizon: 64,
        elements: 4,
        out: "BENCH_simlab.json".into(),
        list: false,
        cell_budget_ms: 0,
        compact_every: None,
        retention: DecisionRetention::Full,
        baseline: None,
        candidate: None,
        tolerance: 0.05,
        max_ratio: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--algorithms" => args.algorithms = value("--algorithms")?,
            "--workloads" => args.workloads = value("--workloads")?,
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--seed-base" => {
                args.seed_base = value("--seed-base")?
                    .parse()
                    .map_err(|e| format!("--seed-base: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--horizon" => {
                args.horizon = value("--horizon")?
                    .parse()
                    .map_err(|e| format!("--horizon: {e}"))?
            }
            "--elements" => {
                args.elements = value("--elements")?
                    .parse()
                    .map_err(|e| format!("--elements: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--list" => args.list = true,
            "--cell-budget-ms" => {
                args.cell_budget_ms = value("--cell-budget-ms")?
                    .parse()
                    .map_err(|e| format!("--cell-budget-ms: {e}"))?
            }
            "--compact-every" => {
                args.compact_every = Some(parse_compact_every(&value("--compact-every")?)?)
            }
            other if other.starts_with("--compact-every=") => {
                args.compact_every = Some(parse_compact_every(&other["--compact-every=".len()..])?)
            }
            "--retention" => args.retention = value("--retention")?.parse()?,
            other if other.starts_with("--retention=") => {
                args.retention = other["--retention=".len()..].parse()?
            }
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--candidate" => args.candidate = Some(value("--candidate")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--max-ratio" => {
                let bound: f64 = value("--max-ratio")?
                    .parse()
                    .map_err(|e| format!("--max-ratio: {e}"))?;
                if !bound.is_finite() || bound < 1.0 {
                    return Err("--max-ratio must be a finite ratio >= 1".into());
                }
                args.max_ratio = Some(bound);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.candidate.is_some() && args.baseline.is_none() {
        return Err("--candidate requires --baseline".into());
    }
    Ok(args)
}

fn parse_compact_every(text: &str) -> Result<u64, String> {
    let n: u64 = text.parse().map_err(|e| format!("--compact-every: {e}"))?;
    if n == 0 {
        return Err("--compact-every must be at least 1".into());
    }
    Ok(n)
}

fn load_report(path: &str) -> MatrixReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("simlab: cannot read {path}: {e}");
        std::process::exit(2);
    });
    MatrixReport::from_json(&text).unwrap_or_else(|e| {
        eprintln!("simlab: {path} is not a matrix report: {e}");
        std::process::exit(2);
    })
}

/// Diffs `current` against the baseline file; returns `false` on
/// regressions (the caller combines every gate's verdict before exiting,
/// so one tripped gate never hides another's report).
/// Baseline groups the candidate no longer covers are warned about (a
/// regressing group must not pass the gate by being renamed or dropped)
/// but do not fail the diff — narrower candidate runs are legitimate.
fn gate_on_baseline(baseline_path: &str, current: &MatrixReport, tolerance: f64) -> bool {
    let baseline = load_report(baseline_path);
    for (algorithm, workload) in leasing_simlab::baseline::missing_groups(&baseline, current) {
        eprintln!(
            "warning: baseline group {algorithm}/{workload} is absent from the candidate \
             (not compared)"
        );
    }
    let regressions = diff_reports(&baseline, current, tolerance);
    if regressions.is_empty() {
        println!(
            "baseline {baseline_path}: no competitive-ratio regressions beyond {:.1}%",
            tolerance * 100.0
        );
        return true;
    }
    eprintln!(
        "baseline {baseline_path}: {} regression(s) beyond {:.1}%:",
        regressions.len(),
        tolerance * 100.0
    );
    for r in &regressions {
        eprintln!("  {r}");
    }
    false
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("simlab: {msg}");
            std::process::exit(2);
        }
    };

    if args.list {
        println!("algorithms (paper guarantee in brackets):");
        for alg in standard_registry() {
            println!(
                "  {:<16} ({}) [{}]",
                alg.name,
                alg.family,
                alg.theory.unwrap_or("no worst-case bound")
            );
        }
        println!("\nworkloads (parameterizable, e.g. rainy:p=0.7, pareto:alpha=1.5):");
        for s in Scenario::presets() {
            println!("  {:<16} {:?}", s.name, s.spec);
        }
        return;
    }

    // Pure diff mode: compare two existing reports, run nothing.
    if let (Some(baseline), Some(candidate)) = (&args.baseline, &args.candidate) {
        let current = load_report(candidate);
        if !gate_on_baseline(baseline, &current, args.tolerance) {
            std::process::exit(3);
        }
        return;
    }

    let algorithms = match select_algorithms(&args.algorithms) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlab: {e}");
            std::process::exit(2);
        }
    };
    let scenarios = match Scenario::select(&args.workloads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simlab: {e}");
            std::process::exit(2);
        }
    };
    let seeds: Vec<u64> = (0..args.seeds).map(|i| args.seed_base + i).collect();
    let config = MatrixConfig {
        horizon: args.horizon,
        num_elements: args.elements,
        threads: args.threads,
        cell_budget_ms: (args.cell_budget_ms > 0).then_some(args.cell_budget_ms),
        compact_every: args.compact_every,
        retention: args.retention,
        ..MatrixConfig::default_config()
    };

    println!(
        "== simlab: {} algorithms x {} workloads x {} seeds on {} threads (horizon {}) ==\n",
        algorithms.len(),
        scenarios.len(),
        seeds.len(),
        config.threads,
        config.horizon
    );
    let started = std::time::Instant::now();
    let report = run_matrix(&algorithms, &scenarios, &seeds, &config);
    let elapsed = started.elapsed();

    table::header(
        &[
            "algorithm",
            "workload",
            "mean",
            "p99",
            "max",
            "opt",
            "act^",
            "fail",
        ],
        12,
    );
    for agg in &report.aggregates {
        let (mean, p99, max) = agg
            .empirical_ratio
            .map(|r| (r.mean, r.p99, r.max))
            .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        table::row(
            &[
                agg.algorithm.clone(),
                agg.workload.clone(),
                table::f(mean),
                table::f(p99),
                table::f(max),
                table::f(agg.mean_opt_cost),
                table::i(agg.active_peak),
                table::i(agg.failures),
            ],
            12,
        );
    }

    let json = report.to_json();
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("simlab: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    let failures: usize = report.aggregates.iter().map(|a| a.failures).sum();
    println!(
        "\n{} cells in {:.2?} ({} failed); report written to {}",
        report.cells.len(),
        elapsed,
        failures,
        args.out
    );
    println!("(aggregates are bit-identical for any --threads value)");

    // Every requested gate runs and reports before the process exits, so
    // a tripped ratio bound never hides a simultaneous baseline
    // regression (or vice versa).
    let mut clean = true;
    if let Some(bound) = args.max_ratio {
        clean &= gate_on_max_ratio(&report, bound);
    }
    if let Some(baseline) = &args.baseline {
        clean &= gate_on_baseline(baseline, &report, args.tolerance);
    }
    if !clean {
        std::process::exit(3);
    }
}

/// Enforces the absolute empirical-ratio bound, listing every violating
/// cell; returns `false` when the gate trips. Failed cells also trip the
/// gate — a cell that never produced a ratio must not let the matrix pass
/// vacuously (e.g. a shared oracle timing out and failing its whole
/// family).
fn gate_on_max_ratio(report: &MatrixReport, bound: f64) -> bool {
    let violations = ratio_violations(report, bound);
    let failed: Vec<_> = report.cells.iter().filter(|c| c.error.is_some()).collect();
    if violations.is_empty() && failed.is_empty() {
        println!("max-ratio {bound}: every cell ran and stayed within the bound");
        return true;
    }
    if !violations.is_empty() {
        eprintln!(
            "max-ratio {bound}: {} cell(s) beyond the bound:",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
    }
    if !failed.is_empty() {
        eprintln!(
            "max-ratio {bound}: {} cell(s) failed and were never ratio-checked:",
            failed.len()
        );
        for c in &failed {
            eprintln!(
                "  {}/{} seed {}: {}",
                c.algorithm,
                c.workload,
                c.seed,
                c.error.as_deref().unwrap_or("unknown failure")
            );
        }
    }
    false
}
