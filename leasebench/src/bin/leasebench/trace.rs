//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! origin), the name of the span that caused it, and the id of the request
//! it belongs to; all spans of one request share that id. Totals per name
//! are kept for every span; the spans themselves are kept up to a cap and
//! written out as JSON lines when the run ends. A span's self time is its
//! duration minus the durations of its child spans, which never overlap
//! one another and lie inside their parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Count, summed duration and summed child duration of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

impl Totals {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// A tracer; a disabled one records nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    cap: usize,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// Spans kept per tracer for the trace file; totals are unbounded.
    pub const DEFAULT_CAP: usize = 20_000;

    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            cap: Tracer::DEFAULT_CAP,
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin (0 when disabled, so untraced runs
    /// make no clock reads on the tracer's behalf).
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Nanoseconds from the origin to `instant` (0 before it).
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let duration = end_ns.saturating_sub(start_ns);
        let totals = self.totals.entry(name).or_default();
        totals.count += 1;
        totals.total_ns += duration;
        if let Some(parent) = parent {
            self.totals.entry(parent).or_default().child_ns += duration;
        }
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                parent,
                id,
                start_ns,
                end_ns,
            });
        }
    }

    /// Adds pre-aggregated time for `name` (work timed in bulk).
    pub fn add_totals(&mut self, name: &'static str, count: u64, total_ns: u64) {
        if !self.enabled {
            return;
        }
        let totals = self.totals.entry(name).or_default();
        totals.count += count;
        totals.total_ns += total_ns;
    }

    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn all_totals(&self) -> &BTreeMap<&'static str, Totals> {
        &self.totals
    }

    /// Folds another tracer (e.g. a second connection thread) into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.child_ns += t.child_ns;
        }
        let room = self.cap.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Writes the kept spans as JSON lines, then one `totals` line per name.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\":\"{}\",\"parent\":{},\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.id,
                s.start_ns,
                s.end_ns
            )?;
        }
        for (name, t) in &self.totals {
            writeln!(
                out,
                "{{\"totals\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count,
                t.total_ns,
                t.self_ns()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_tracers_record_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.record("frame", None, 1, 0, 100);
        t.record("encode", Some("frame"), 1, 0, 30);
        t.record("recv", Some("frame"), 1, 40, 90);
        assert_eq!(t.totals("frame").self_ns(), 20);
        assert_eq!(t.totals("encode").mean_ns(), 30.0);
        assert_eq!(t.spans.len(), 3);
        assert!(t.spans.iter().all(|s| s.id == 1));

        let mut off = Tracer::new(false, Instant::now());
        off.record("frame", None, 1, 0, 100);
        assert_eq!(off.now(), 0);
        assert_eq!(off.totals("frame").count, 0);
        assert!(off.spans.is_empty());

        let mut other = Tracer::new(true, Instant::now());
        other.record("frame", None, 2, 0, 50);
        t.merge(other);
        assert_eq!(t.totals("frame").count, 2);
        let mut out = Vec::new();
        t.write(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"span\":\"encode\",\"parent\":\"frame\",\"id\":1"));
    }
}
