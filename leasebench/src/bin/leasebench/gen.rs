//! Seeded workload generators. Every stream is a pure function of
//! `(workload, seed, seconds)`: the benchmark regenerates a stream instead
//! of storing it when it replays it for the correctness checks.

/// Daemon shard count every daemon workload runs with.
pub const SHARDS: u64 = 2;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams of the same
    /// seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed ranks `0..n` with exponent `s`, sampled by inverting a
/// precomputed CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&p| p <= u)
            .min(self.cdf.len() - 1) as u64
    }
}

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Submit,
    List,
    Release,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub tenant: u64,
    pub time: u64,
}

impl Op {
    pub fn submit(tenant: u64, time: u64) -> Op {
        Op {
            kind: OpKind::Submit,
            tenant,
            time,
        }
    }
}

/// Stream sizes of one run: the per-second rates below times the run's
/// seconds, times `scale` (1 in benchmark runs; tests shrink it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    pub lockstep_ops: u64,
    pub lane_demands: u64,
    pub mixed_warm: u64,
    pub mixed_ops: u64,
    pub engine_warm: u64,
    pub engine_demands: u64,
}

impl Sizes {
    pub fn new(seconds: u64, scale: f64) -> Sizes {
        let n = |count: u64| ((count as f64 * scale) as u64).max(1);
        Sizes {
            lockstep_ops: n(LOCKSTEP_OPS_PER_SECOND * seconds),
            lane_demands: n(PIPELINED_LANE_DEMANDS_PER_SECOND * seconds),
            mixed_warm: n(MIXED_WARM_DEMANDS),
            mixed_ops: n(MIXED_RATE * seconds),
            engine_warm: n(ENGINE_WARM_DEMANDS),
            engine_demands: n(ENGINE_DEMANDS_PER_SECOND * seconds),
        }
    }
}

/// `lockstep`: tenants served one single-demand frame at a time.
pub const LOCKSTEP_TENANTS: u64 = 1024;
/// Demands generated per measured second; the measured window stops at
/// `--seconds`, and whatever it did not reach is drained untimed so the
/// daemon's final state (and `cost_ratio`) depends on the seed alone.
pub const LOCKSTEP_OPS_PER_SECOND: u64 = 30_000;
/// The logical clock advances once per this many demands.
pub const LOCKSTEP_OPS_PER_TICK: u64 = 512;

pub fn lockstep_ops(seed: u64, n: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 1);
    (0..n)
        .map(|i| Op::submit(rng.below(LOCKSTEP_TENANTS), i / LOCKSTEP_OPS_PER_TICK))
        .collect()
}

/// `pipelined`: Zipf-popular tenants, 64-demand batches, one lane per
/// connection. Lane `c` carries only tenants `t` with `t % SHARDS == c`, so
/// each daemon shard receives one ordered stream.
pub const PIPELINED_TENANTS: u64 = 10_000;
pub const PIPELINED_ZIPF_S: f64 = 1.0;
pub const PIPELINED_BATCH: usize = 64;
pub const PIPELINED_DEPTH: usize = 8;
/// Demands per lane per measured second (see [`LOCKSTEP_OPS_PER_SECOND`]).
pub const PIPELINED_LANE_DEMANDS_PER_SECOND: u64 = 1_300_000;
/// A lane's clock advances once per this many batches.
const PIPELINED_BATCHES_PER_TICK: u64 = 16;

/// The demand stream of one `pipelined` lane, produced batch by batch.
pub struct Lane {
    rng: Rng,
    zipf: Zipf,
    lane: u64,
    left: u64,
    batches: u64,
}

impl Lane {
    /// Lane `lane` of `demands` demands.
    pub fn new(seed: u64, lane: u64, demands: u64) -> Lane {
        Lane {
            rng: Rng::new(seed, 100 + lane),
            zipf: Zipf::new((PIPELINED_TENANTS / SHARDS) as usize, PIPELINED_ZIPF_S),
            lane,
            left: demands,
            batches: 0,
        }
    }

    /// Replaces `batch` with the next batch (all at one time step); `false`
    /// once the lane is exhausted.
    pub fn next_batch(&mut self, batch: &mut Vec<(u64, u64)>) -> bool {
        batch.clear();
        let n = (PIPELINED_BATCH as u64).min(self.left);
        if n == 0 {
            return false;
        }
        self.left -= n;
        let time = self.batches / PIPELINED_BATCHES_PER_TICK;
        for _ in 0..n {
            let rank = self.zipf.sample(&mut self.rng);
            batch.push((rank * SHARDS + self.lane, time));
        }
        self.batches += 1;
        true
    }
}

/// `mixed`: warm state of this many tenants, restored from a snapshot.
pub const MIXED_TENANTS: u64 = 100_000;
const MIXED_WARM_DEMANDS: u64 = 200_000;
const MIXED_WARM_PER_TICK: u64 = 1_000;
/// Offered open-loop rate, operations per second.
pub const MIXED_RATE: u64 = 8_000;
const MIXED_OPS_PER_TICK: u64 = 8;

/// The demands that build `mixed`'s warm snapshot, in time order.
pub fn mixed_warm(seed: u64, n: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed, 3);
    (0..n)
        .map(|i| (rng.below(MIXED_TENANTS), i / MIXED_WARM_PER_TICK))
        .collect()
}

/// The measured `mixed` operations: 80% submits, 15% `list-active`, 5%
/// `force-release`, continuing the clock of a warm stream of `warm` demands.
pub fn mixed_ops(seed: u64, n: u64, warm: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 4);
    let start = warm / MIXED_WARM_PER_TICK;
    (0..n)
        .map(|i| {
            let roll = rng.below(100);
            let kind = match roll {
                0..=79 => OpKind::Submit,
                80..=94 => OpKind::List,
                _ => OpKind::Release,
            };
            Op {
                kind,
                tenant: rng.below(MIXED_TENANTS),
                time: start + i / MIXED_OPS_PER_TICK,
            }
        })
        .collect()
}

/// `engine-stream`: Zipf-popular tenants arriving in equal-time runs
/// separated by sparse gaps, in-process.
pub const ENGINE_TENANTS: u64 = 100_000;
pub const ENGINE_ZIPF_S: f64 = 1.0;
const ENGINE_WARM_DEMANDS: u64 = 100_000;
const ENGINE_WARM_PER_TICK: u64 = 500;
/// Demands generated per measured second (see [`LOCKSTEP_OPS_PER_SECOND`]).
pub const ENGINE_DEMANDS_PER_SECOND: u64 = 900_000;
/// Equal-time runs hold 1..=this many demands; gaps between runs are
/// 1..=[`ENGINE_MAX_GAP`] steps.
const ENGINE_MAX_RUN: u64 = 256;
const ENGINE_MAX_GAP: u64 = 8;

/// The demands behind `engine-stream`'s warm snapshot: every tenant
/// about once.
pub fn engine_warm(seed: u64, n: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed, 5);
    (0..n)
        .map(|i| (rng.below(ENGINE_TENANTS), i / ENGINE_WARM_PER_TICK))
        .collect()
}

/// The measured `engine-stream`, produced one equal-time run at a time.
pub struct EngineStream {
    rng: Rng,
    zipf: Zipf,
    left: u64,
    time: u64,
}

impl EngineStream {
    /// A stream of `demands` demands after a warm stream of `warm`.
    pub fn new(seed: u64, demands: u64, warm: u64) -> EngineStream {
        EngineStream {
            rng: Rng::new(seed, 6),
            zipf: Zipf::new(ENGINE_TENANTS as usize, ENGINE_ZIPF_S),
            left: demands,
            time: warm / ENGINE_WARM_PER_TICK,
        }
    }

    /// Replaces `run` with the next run's tenants and returns its time, or
    /// `None` once the stream is exhausted.
    pub fn next_run(&mut self, run: &mut Vec<usize>) -> Option<u64> {
        run.clear();
        if self.left == 0 {
            return None;
        }
        self.time += 1 + self.rng.below(ENGINE_MAX_GAP);
        let n = (1 + self.rng.below(ENGINE_MAX_RUN)).min(self.left);
        self.left -= n;
        for _ in 0..n {
            run.push(self.zipf.sample(&mut self.rng) as usize);
        }
        Some(self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_prefix(seed: u64, lane: u64) -> Vec<(u64, u64)> {
        let mut gen = Lane::new(seed, lane, 10_000);
        let mut out = Vec::new();
        let mut batch = Vec::new();
        for _ in 0..50 {
            assert!(gen.next_batch(&mut batch));
            out.extend_from_slice(&batch);
        }
        out
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_different_stream() {
        assert_eq!(lockstep_ops(7, 1000), lockstep_ops(7, 1000));
        assert_ne!(lockstep_ops(7, 1000), lockstep_ops(8, 1000));
        assert_eq!(mixed_ops(7, 1000, 0), mixed_ops(7, 1000, 0));
        assert_ne!(mixed_ops(7, 1000, 0), mixed_ops(8, 1000, 0));
        assert_eq!(mixed_warm(7, 1000), mixed_warm(7, 1000));
        assert_ne!(mixed_warm(7, 1000), mixed_warm(8, 1000));
        assert_eq!(lane_prefix(7, 0), lane_prefix(7, 0));
        assert_ne!(lane_prefix(7, 0), lane_prefix(8, 0));
        let engine = |seed| {
            let mut gen = EngineStream::new(seed, 10_000, 0);
            let mut run = Vec::new();
            (0..100)
                .map(|_| (gen.next_run(&mut run), run.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(engine(7), engine(7));
        assert_ne!(engine(7), engine(8));
    }

    #[test]
    fn lanes_carry_only_the_tenants_of_their_shard() {
        for lane in 0..SHARDS {
            let demands = lane_prefix(3, lane);
            assert!(demands
                .iter()
                .all(|&(tenant, _)| leased::shard_of(tenant, SHARDS as usize) == lane as usize));
            assert!(demands.windows(2).all(|w| w[0].1 <= w[1].1), "monotone");
        }
    }

    #[test]
    fn streams_are_monotone_in_time() {
        let warm = mixed_warm(1, 5000);
        let ops = mixed_ops(1, 1000, 5000);
        assert!(ops.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(warm.last().unwrap().1 <= ops[0].time);
        assert!(lockstep_ops(1, 1000)
            .windows(2)
            .all(|w| w[0].time <= w[1].time));
        let sizes = Sizes::new(8, 1.0);
        assert_eq!(sizes.lockstep_ops, 8 * LOCKSTEP_OPS_PER_SECOND);
        assert_eq!(Sizes::new(8, 0.0).lane_demands, 1, "sizes never reach zero");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1, 1);
        let samples: Vec<u64> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        let head = samples.iter().filter(|&&r| r < 10).count();
        assert!(head > 3000, "top 1% of ranks draws {head} of 10000");
        assert!(samples.iter().all(|&r| r < 1000));
    }
}
