//! The bench regression gate behind the `bench_gate` binary: compares a
//! freshly measured `BENCH_driver.json` against the committed baseline and
//! flags hot-path benchmarks whose `mean_ns` regressed beyond a relative
//! tolerance.
//!
//! The gate follows the same CI convention as `simlab --max-ratio` /
//! `--baseline`: exit code 3 on any regression, 2 on unusable input.
//! Baseline ids absent from the candidate are *warned about* but do not
//! fail the gate (narrower candidate runs are legitimate), unless *every*
//! matched id is absent: then the gate compared nothing — a renamed
//! benchmark id would silently hollow it out — and it exits 2.

use serde::{json, Value};

/// One parsed benchmark baseline entry.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Full benchmark id (`group/function/parameter`).
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Work items per second, when the baseline recorded one.
    pub throughput_rps: Option<f64>,
}

/// One benchmark whose candidate mean regressed beyond the tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRegression {
    /// Benchmark id.
    pub id: String,
    /// Baseline mean ns/iteration.
    pub baseline_ns: f64,
    /// Candidate mean ns/iteration.
    pub candidate_ns: f64,
}

impl BenchRegression {
    /// Relative slowdown, e.g. `0.25` = 25% slower than the baseline.
    pub fn slowdown(&self) -> f64 {
        self.candidate_ns / self.baseline_ns - 1.0
    }
}

impl std::fmt::Display for BenchRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.1} ns -> {:.1} ns (+{:.1}%)",
            self.id,
            self.baseline_ns,
            self.candidate_ns,
            self.slowdown() * 100.0
        )
    }
}

/// The result of one gate comparison.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateOutcome {
    /// Benchmarks beyond the tolerance, in baseline order.
    pub regressions: Vec<BenchRegression>,
    /// Baseline ids matching the pattern that the candidate did not
    /// re-measure.
    pub missing: Vec<String>,
    /// Number of ids compared.
    pub compared: usize,
}

impl GateOutcome {
    /// Whether the gate matched baseline ids but compared none of them —
    /// every one is absent from the candidate, so nothing was gated (a
    /// renamed benchmark id hollows out its gate this way).
    pub fn is_hollow(&self) -> bool {
        self.compared == 0 && !self.missing.is_empty()
    }
}

/// Parses the `{"benchmarks": [{"id": ..., "mean_ns": ...}, ...]}` file
/// written by the vendored criterion shim.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn parse_entries(text: &str) -> Result<Vec<BenchEntry>, String> {
    let value = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let Some(Value::Seq(items)) = value.get("benchmarks") else {
        return Err("missing `benchmarks` array".into());
    };
    let mut entries = Vec::with_capacity(items.len());
    for item in items {
        let id = match item.get("id") {
            Some(Value::Str(id)) => id.clone(),
            _ => return Err("entry without a string `id`".into()),
        };
        let mean_ns = match number(item.get("mean_ns")) {
            Some(v) => v,
            None => return Err(format!("entry {id} without a numeric `mean_ns`")),
        };
        entries.push(BenchEntry {
            id,
            mean_ns,
            throughput_rps: number(item.get("throughput_rps")),
        });
    }
    Ok(entries)
}

fn number(value: Option<&Value>) -> Option<f64> {
    match value {
        Some(Value::Float(v)) => Some(*v),
        Some(Value::UInt(v)) => Some(*v as f64),
        Some(Value::Int(v)) => Some(*v as f64),
        _ => None,
    }
}

/// Compares every baseline id starting with `pattern` against the
/// candidate: a candidate mean beyond `baseline * (1 + tolerance)` is a
/// regression.
pub fn diff(
    baseline: &[BenchEntry],
    candidate: &[BenchEntry],
    pattern: &str,
    tolerance: f64,
) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    for base in baseline.iter().filter(|e| e.id.starts_with(pattern)) {
        let Some(cand) = candidate.iter().find(|e| e.id == base.id) else {
            outcome.missing.push(base.id.clone());
            continue;
        };
        outcome.compared += 1;
        if cand.mean_ns > base.mean_ns * (1.0 + tolerance) {
            outcome.regressions.push(BenchRegression {
                id: base.id.clone(),
                baseline_ns: base.mean_ns,
                candidate_ns: cand.mean_ns,
            });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(entries: &[(&str, f64)]) -> String {
        let lines: Vec<String> = entries
            .iter()
            .map(|(id, ns)| {
                format!(
                    "{{\"id\": \"{id}\", \"mean_ns\": {ns:.2}, \"iterations\": 3, \
                     \"throughput_rps\": 1.0}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
            lines.join(",\n    ")
        )
    }

    #[test]
    fn parses_the_shim_format_including_legacy_entries_without_rps() {
        let text = r#"{"benchmarks": [
            {"id": "driver/submit_noop/1024", "mean_ns": 2628.89, "iterations": 26197},
            {"id": "driver/submit_det_permit/8192", "mean_ns": 1157350.90, "iterations": 80,
             "throughput_rps": 2127.5}
        ]}"#;
        let entries = parse_entries(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].throughput_rps, None);
        assert_eq!(entries[1].id, "driver/submit_det_permit/8192");
        assert_eq!(entries[1].throughput_rps, Some(2127.5));
    }

    #[test]
    fn rejects_malformed_files_with_a_reason() {
        assert!(parse_entries("nonsense").is_err());
        assert!(parse_entries("{}").unwrap_err().contains("benchmarks"));
        assert!(parse_entries(r#"{"benchmarks": [{"mean_ns": 1.0}]}"#).is_err());
    }

    #[test]
    fn flags_only_pattern_matches_beyond_tolerance() {
        let baseline = parse_entries(&file(&[
            ("driver/submit_noop/1024", 100.0),
            ("driver/submit_det_permit/8192", 1000.0),
            ("oracle/interval_dp/1024", 10.0),
        ]))
        .unwrap();
        let candidate = parse_entries(&file(&[
            ("driver/submit_noop/1024", 114.9),        // within 15%
            ("driver/submit_det_permit/8192", 1200.0), // +20% -> regression
            ("oracle/interval_dp/1024", 1_000_000.0),  // outside the pattern
        ]))
        .unwrap();
        let outcome = diff(&baseline, &candidate, "driver/submit_", 0.15);
        assert_eq!(outcome.compared, 2);
        assert!(outcome.missing.is_empty());
        assert_eq!(outcome.regressions.len(), 1);
        let r = &outcome.regressions[0];
        assert_eq!(r.id, "driver/submit_det_permit/8192");
        assert!((r.slowdown() - 0.2).abs() < 1e-9);
        assert!(r.to_string().contains("+20.0%"), "{r}");
    }

    #[test]
    fn missing_candidate_ids_are_reported_not_compared() {
        let baseline = parse_entries(&file(&[("driver/submit_noop/1024", 100.0)])).unwrap();
        let outcome = diff(&baseline, &[], "driver/submit_", 0.15);
        assert_eq!(outcome.compared, 0);
        assert_eq!(outcome.missing, vec!["driver/submit_noop/1024".to_string()]);
        assert!(outcome.regressions.is_empty());
    }

    #[test]
    fn a_gate_whose_every_baseline_id_is_missing_fails() {
        let baseline = parse_entries(&file(&[("driver/submit_noop/1024", 100.0)])).unwrap();
        let renamed = parse_entries(&file(&[("driver/submit_nop/1024", 100.0)])).unwrap();
        let outcome = diff(&baseline, &renamed, "driver/submit_", 0.15);
        assert!(outcome.regressions.is_empty());
        assert!(outcome.is_hollow(), "nothing compared, one id missing");
        let partial = diff(
            &parse_entries(&file(&[
                ("driver/submit_noop/1024", 100.0),
                ("driver/submit_det_permit/1024", 100.0),
            ]))
            .unwrap(),
            &baseline,
            "driver/submit_",
            0.15,
        );
        assert!(!partial.is_hollow(), "one id compared, one missing");
    }

    #[test]
    fn improvements_pass_the_gate() {
        let baseline = parse_entries(&file(&[("driver/submit_det_permit/8192", 1000.0)])).unwrap();
        let candidate = parse_entries(&file(&[("driver/submit_det_permit/8192", 400.0)])).unwrap();
        let outcome = diff(&baseline, &candidate, "driver/submit_", 0.15);
        assert_eq!(outcome.compared, 1);
        assert!(outcome.regressions.is_empty());
    }
}
