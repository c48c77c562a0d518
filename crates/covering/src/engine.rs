//! The full generic online covering engine: fractional growth (step i),
//! per-variable threshold rounding (step ii) and the cheapest-candidate
//! fallback (step iii) — the exact three-phase shape of thesis Algorithm 3
//! and Algorithm 5, over arbitrary variable keys.

use crate::fractional::{DualCertificate, FractionalCovering};
use crate::rounding::ThresholdSampler;
use crate::FxHashSet;
use std::hash::Hash;

/// Integral-phase telemetry of a [`CoveringEngine`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Cost of variables bought because their fraction beat their threshold.
    pub rounded_cost: f64,
    /// Cost of cheapest-candidate fallback purchases.
    pub fallback_cost: f64,
    /// Number of fallback purchases.
    pub fallbacks: usize,
}

/// The generic randomized online covering algorithm: grow fractions, round
/// against per-variable thresholds, fall back to the cheapest candidate.
///
/// The SMCL and SCLD algorithms of Chapters 3 and 5 are thin wrappers over
/// this engine (see [`crate::adapters`] for the bit-exact equivalence); it
/// can equally drive any other covering-with-leases problem by choosing the
/// candidate construction.
///
/// ```
/// use online_covering::CoveringEngine;
///
/// let mut engine: CoveringEngine<&str> = CoveringEngine::new(4, 7);
/// let chosen = engine.serve(&[("day pass", 1.0), ("season pass", 5.0)]);
/// assert!(engine.owns(&chosen));
/// assert!(engine.total_cost() >= 1.0);
/// ```
#[derive(Debug)]
pub struct CoveringEngine<V> {
    fractional: FractionalCovering<V>,
    thresholds: ThresholdSampler<V>,
    owned: FxHashSet<V>,
    cost: f64,
    stats: EngineStats,
}

impl<V: Eq + Hash + Copy> CoveringEngine<V> {
    /// Creates an engine with `q` uniforms per rounding threshold and the
    /// given RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn new(q: u32, seed: u64) -> Self {
        CoveringEngine {
            fractional: FractionalCovering::new(),
            thresholds: ThresholdSampler::new(q, seed),
            owned: FxHashSet::default(),
            cost: 0.0,
            stats: EngineStats::default(),
        }
    }

    /// Serves one covering constraint and returns a candidate that is owned
    /// afterwards (the first owned candidate in slice order, matching
    /// Algorithm 3's *i-Cover* return value).
    ///
    /// # Panics
    ///
    /// Panics on empty or invalidly-priced candidate slices (see
    /// [`FractionalCovering::serve`]).
    pub fn serve(&mut self, candidates: &[(V, f64)]) -> V {
        // (i) Fractional phase.
        self.fractional.serve(candidates);

        // (ii) Threshold rounding, in candidate order.
        for &(v, c) in candidates {
            let f = self.fractional.fraction(&v);
            let mu = self.thresholds.threshold(&v);
            if f > mu && !self.owned.contains(&v) {
                self.owned.insert(v);
                self.cost += c;
                self.stats.rounded_cost += c;
            }
        }

        // (iii) Fallback: buy the cheapest candidate if none is owned.
        if let Some(&(v, _)) = candidates.iter().find(|(v, _)| self.owned.contains(v)) {
            return v;
        }
        let &(v, c) = candidates
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
            .expect("candidates are non-empty");
        self.owned.insert(v);
        self.cost += c;
        self.stats.fallback_cost += c;
        self.stats.fallbacks += 1;
        v
    }

    /// Total integral cost paid so far.
    pub fn total_cost(&self) -> f64 {
        self.cost
    }

    /// Integral-phase telemetry.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The underlying fractional solution (fractions, increments, loads).
    pub fn fractional(&self) -> &FractionalCovering<V> {
        &self.fractional
    }

    /// The online weak-duality certificate of the fractional phase.
    pub fn certificate(&self) -> DualCertificate {
        self.fractional.certificate()
    }

    /// Whether `v` has been bought.
    pub fn owns(&self, v: &V) -> bool {
        self.owned.contains(v)
    }

    /// Iterates over all bought variables (arbitrary order).
    pub fn owned(&self) -> impl Iterator<Item = &V> {
        self.owned.iter()
    }

    /// Number of bought variables.
    pub fn num_owned(&self) -> usize {
        self.owned.len()
    }

    /// Pins the rounding threshold of `v` (tests and ablations); see
    /// [`ThresholdSampler::pin`].
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= mu <= 1.0`.
    pub fn pin_threshold(&mut self, v: V, mu: f64) {
        self.thresholds.pin(v, mu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serve_always_returns_an_owned_candidate() {
        let mut e: CoveringEngine<u32> = CoveringEngine::new(4, 1);
        for j in 0..10u32 {
            let cands = [(j % 3, 1.0 + (j % 3) as f64), (3 + j % 2, 2.0)];
            let chosen = e.serve(&cands);
            assert!(e.owns(&chosen));
            assert!(cands.iter().any(|&(v, _)| v == chosen));
        }
    }

    #[test]
    fn pinned_high_thresholds_force_fallback_to_cheapest() {
        let mut e: CoveringEngine<u32> = CoveringEngine::new(1, 3);
        e.pin_threshold(0, 1.0);
        e.pin_threshold(1, 1.0);
        // Fractions never exceed ~2 < threshold ∞ is impossible, but
        // f > 1.0 can happen after overshoot; use a cheap/expensive pair and
        // check the fallback picked the cheap one when rounding bought none.
        let chosen = e.serve(&[(0u32, 5.0), (1, 1.0)]);
        if e.stats().fallbacks == 1 {
            assert_eq!(chosen, 1, "fallback must buy the cheapest candidate");
            assert_eq!(e.total_cost(), 1.0);
        } else {
            // Rounding bought something despite µ = 1 (fraction overshot 1).
            assert!(e.stats().rounded_cost > 0.0);
        }
    }

    #[test]
    fn pinned_zero_thresholds_buy_every_candidate_with_mass() {
        let mut e: CoveringEngine<u32> = CoveringEngine::new(1, 3);
        e.pin_threshold(0, 0.0);
        e.pin_threshold(1, 0.0);
        e.serve(&[(0u32, 1.0), (1, 1.0)]);
        assert_eq!(e.num_owned(), 2, "both candidates exceed a zero threshold");
        assert_eq!(e.stats().fallbacks, 0);
    }

    #[test]
    fn repeat_constraint_is_free_once_owned() {
        let mut e: CoveringEngine<u32> = CoveringEngine::new(4, 9);
        let cands = [(0u32, 2.0), (1, 3.0)];
        e.serve(&cands);
        let cost = e.total_cost();
        e.serve(&cands);
        assert_eq!(
            e.total_cost(),
            cost,
            "re-serving an owned constraint is free"
        );
    }

    #[test]
    fn total_cost_decomposes_into_rounded_plus_fallback() {
        let mut e: CoveringEngine<u32> = CoveringEngine::new(2, 11);
        for j in 0..20u32 {
            e.serve(&[(j % 5, 1.0 + (j % 5) as f64), (5 + j % 3, 2.5)]);
        }
        let s = e.stats();
        assert!((e.total_cost() - (s.rounded_cost + s.fallback_cost)).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut e: CoveringEngine<u32> = CoveringEngine::new(4, seed);
            (0..12u32)
                .map(|j| e.serve(&[(j % 4, 1.0), (4 + j % 2, 3.0)]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    proptest! {
        /// Every served constraint ends up integrally covered, and the
        /// integral cost equals the cost of the owned set.
        #[test]
        fn integral_feasibility_and_cost_accounting(
            stream in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 1..4),
                1..15,
            ),
            seed in 0u64..50,
        ) {
            let mut e: CoveringEngine<u32> = CoveringEngine::new(3, seed);
            let mut served: Vec<Vec<(u32, f64)>> = Vec::new();
            for raw in &stream {
                let mut seen = std::collections::HashSet::new();
                let c: Vec<(u32, f64)> = raw
                    .iter()
                    .filter(|v| seen.insert(**v))
                    .map(|&v| (v, (v + 1) as f64))
                    .collect();
                e.serve(&c);
                served.push(c);
            }
            for c in &served {
                prop_assert!(c.iter().any(|(v, _)| e.owns(v)), "constraint left uncovered");
            }
            let owned_cost: f64 = e.owned().map(|&v| (v + 1) as f64).sum();
            prop_assert!((owned_cost - e.total_cost()).abs() < 1e-9);
        }
    }
}
