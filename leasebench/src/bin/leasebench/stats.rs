//! Percentiles from raw samples, and the summary of a measured window.

/// The `q`-quantile (`0.0..=1.0`) of ascending `sorted` samples, linearly
/// interpolated between the two closest ranks (the definition numpy and
/// most plotting tools use by default). `None` for an empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let a = sorted[lo] as f64;
    let b = sorted[hi] as f64;
    Some(a + (b - a) * (rank - lo as f64))
}

/// Median of unsorted floats (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency summary: p50 and p99 with the sample count behind them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub count: usize,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub mean_ns: f64,
}

impl Latency {
    /// Summarizes raw per-op latencies (sorts in place).
    pub fn of(samples: &mut [u64]) -> Latency {
        samples.sort_unstable();
        let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
        Latency {
            count: samples.len(),
            p50_ns: quantile(samples, 0.50).unwrap_or(f64::NAN),
            p99_ns: quantile(samples, 0.99).unwrap_or(f64::NAN),
            mean_ns: sum as f64 / samples.len().max(1) as f64,
        }
    }

    /// Samples beyond the p99 rank — the guide asks for at least ten.
    pub fn beyond_p99(&self) -> usize {
        self.count - (0.99 * self.count as f64).ceil() as usize
    }
}

/// The ops completed inside a measured window: their latencies, the
/// demands they served, and the ops that missed the latency limit. Every
/// figure covers the whole window, so a longer run averages over the phases
/// in which a shared machine runs slower.
#[derive(Clone, Debug)]
pub struct Window {
    limit_ns: u64,
    samples: Vec<u64>,
    demands: u64,
    misses: u64,
}

impl Window {
    /// An empty window whose ops miss when they fail or take longer than
    /// `limit_ns`.
    pub fn new(limit_ns: u64) -> Window {
        Window {
            limit_ns,
            samples: Vec::new(),
            demands: 0,
            misses: 0,
        }
    }

    /// Records one op; a failed op counts as a miss however fast it was.
    pub fn record(&mut self, demands: u64, latency_ns: u64, ok: bool) {
        self.demands += demands;
        self.samples.push(latency_ns);
        self.misses += u64::from(!ok || latency_ns > self.limit_ns);
    }

    pub fn merge(&mut self, other: Window) {
        debug_assert_eq!(self.limit_ns, other.limit_ns);
        self.demands += other.demands;
        self.samples.extend(other.samples);
        self.misses += other.misses;
    }

    /// Demands served per second of a window `window_ns` long.
    pub fn throughput(&self, window_ns: u64) -> f64 {
        self.demands as f64 / (window_ns.max(1) as f64 / 1e9)
    }

    pub fn limit_ns(&self) -> u64 {
        self.limit_ns
    }

    /// Ops that failed or took longer than the limit, each counted once.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn latency(mut self) -> Latency {
        Latency::of(&mut self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let data: Vec<u64> = (1..=101).collect();
        assert_eq!(quantile(&data, 0.5), Some(51.0));
        assert_eq!(quantile(&data, 0.99), Some(100.0));
        assert_eq!(quantile(&data, 0.0), Some(1.0));
        assert_eq!(quantile(&data, 1.0), Some(101.0));
        assert_eq!(quantile(&[10, 20], 0.5), Some(15.0));
        assert_eq!(quantile(&[10, 20, 30, 40], 0.25), Some(17.5));
        assert_eq!(quantile(&[7], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn latency_summaries_come_from_raw_samples_not_buckets() {
        // A power-of-two histogram would report 131071 for all of these.
        let mut samples: Vec<u64> = (0..1000).map(|i| 70_000 + i * 10).collect();
        samples.reverse();
        let l = Latency::of(&mut samples);
        assert_eq!(l.count, 1000);
        assert_eq!(l.p50_ns, 74_995.0);
        assert!((l.p99_ns - 79_890.1).abs() < 1e-6);
        assert_eq!(l.mean_ns, 74_995.0);
        assert_eq!(l.beyond_p99(), 10);
    }

    #[test]
    fn windows_cover_every_op_they_recorded() {
        let mut a = Window::new(1_000_000);
        a.record(64, 300, true);
        a.record(64, 100, true);
        let mut b = Window::new(1_000_000);
        b.record(1, 2_000_000, true);
        a.merge(b);
        assert_eq!(a.throughput(500_000_000), 258.0);
        assert_eq!(a.misses(), 1);
        let l = a.latency();
        assert_eq!((l.count, l.p50_ns), (3, 300.0));
    }

    #[test]
    fn a_failed_op_is_one_miss_however_long_it_took() {
        let mut w = Window::new(1_000);
        w.record(1, 10, false);
        w.record(1, 5_000, false);
        w.record(1, 5_000, true);
        w.record(1, 10, true);
        assert_eq!(w.misses(), 3);
    }

    #[test]
    fn medians_handle_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
