//! The deterministic dual-ascent engine (§2.1; thesis Algorithm 1 and the
//! §5.3 OLD algorithm).
//!
//! The thesis' deterministic primal-dual algorithms share one step: raise
//! the arriving demand's dual variable until the constraint of some
//! candidate becomes tight, then buy tight candidates. Algorithm 1 (parking
//! permit, Theorem 2.7) buys *every* tight candidate; the OLD algorithm
//! (§5.3) buys the tight candidates covering the arrival day and mirrors
//! them at the deadline. This module isolates the shared machinery —
//! contribution accounting, the minimum-surplus dual raise, tightness
//! checks and purchase bookkeeping — so both algorithms become thin
//! adapters (see [`crate::adapters`]), and `Σ y` is tracked once as the
//! weak-duality lower bound both analyses use.

use crate::FxHashSet;
use leasing_core::engine::FxHashMap;
use leasing_core::EPS;
use std::hash::Hash;

/// The generic deterministic dual-ascent state: per-candidate dual
/// contributions, the owned set and the primal/dual cost ledgers.
///
/// ```
/// use online_covering::DualAscent;
///
/// let mut engine: DualAscent<&str> = DualAscent::new();
/// let bought = engine.serve(&[("day", 1.0), ("week", 5.0)]);
/// assert_eq!(bought, vec!["day"]); // cheapest constraint turns tight first
/// assert_eq!(engine.total_cost(), 1.0);
/// assert_eq!(engine.dual_value(), 1.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DualAscent<V> {
    contributions: FxHashMap<V, f64>,
    owned: FxHashSet<V>,
    purchases: Vec<V>,
    cost: f64,
    dual_value: f64,
}

impl<V: Eq + Hash + Copy> DualAscent<V> {
    /// Creates an empty engine (all contributions zero, nothing owned).
    pub fn new() -> Self {
        DualAscent {
            contributions: FxHashMap::default(),
            owned: FxHashSet::default(),
            purchases: Vec::new(),
            cost: 0.0,
            dual_value: 0.0,
        }
    }

    /// Accumulated dual contribution `Σ y` towards candidate `v`.
    pub fn contribution(&self, v: &V) -> f64 {
        self.contributions.get(v).copied().unwrap_or(0.0)
    }

    /// Whether the dual constraint of `v` (with price `cost`) is tight.
    pub fn is_tight(&self, v: &V, cost: f64) -> bool {
        self.contribution(v) >= cost - EPS
    }

    /// Raises the current demand's dual by the minimum surplus of
    /// `candidates` — after the raise at least one candidate is tight.
    /// Returns the raise `δ` (zero when a candidate is already tight).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or a price is non-finite or
    /// non-positive.
    pub fn raise(&mut self, candidates: &[(V, f64)]) -> f64 {
        assert!(
            !candidates.is_empty(),
            "dual raise needs at least one candidate"
        );
        let delta = candidates
            .iter()
            .map(|&(v, c)| {
                assert!(
                    c.is_finite() && c > 0.0,
                    "candidate price must be positive and finite"
                );
                (c - self.contribution(&v)).max(0.0)
            })
            .fold(f64::INFINITY, f64::min);
        self.dual_value += delta;
        for &(v, _) in candidates {
            *self.contributions.entry(v).or_insert(0.0) += delta;
        }
        delta
    }

    /// Buys every tight, not-yet-owned candidate (in slice order); returns
    /// the newly bought ones.
    pub fn buy_tight(&mut self, candidates: &[(V, f64)]) -> Vec<V> {
        let mut bought = Vec::new();
        for &(v, c) in candidates {
            if self.is_tight(&v, c) && self.buy(v, c) {
                bought.push(v);
            }
        }
        bought
    }

    /// Force-buys `v` at `cost` (the OLD algorithm's Step 2 mirror
    /// purchases). Returns whether the purchase was new.
    pub fn buy(&mut self, v: V, cost: f64) -> bool {
        if !self.owned.insert(v) {
            return false;
        }
        self.cost += cost;
        self.purchases.push(v);
        true
    }

    /// Algorithm 1's full step: raise until tight, buy every tight
    /// candidate. Returns the newly bought candidates.
    ///
    /// # Panics
    ///
    /// Panics on empty or invalidly-priced candidate slices.
    pub fn serve(&mut self, candidates: &[(V, f64)]) -> Vec<V> {
        self.raise(candidates);
        self.buy_tight(candidates)
    }

    /// Whether `v` has been bought.
    pub fn owns(&self, v: &V) -> bool {
        self.owned.contains(v)
    }

    /// The purchases in buy order.
    pub fn purchases(&self) -> &[V] {
        &self.purchases
    }

    /// Total primal cost paid.
    pub fn total_cost(&self) -> f64 {
        self.cost
    }

    /// Total dual value `Σ y` raised — a lower bound on the optimum of the
    /// served covering constraints whenever the per-candidate contributions
    /// respect the prices (which [`raise`](Self::raise) guarantees), by
    /// weak duality (Theorem 2.3).
    pub fn dual_value(&self) -> f64 {
        self.dual_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_stops_at_the_cheapest_surplus() {
        let mut e: DualAscent<u32> = DualAscent::new();
        let delta = e.raise(&[(0, 3.0), (1, 5.0)]);
        assert_eq!(delta, 3.0);
        assert!(e.is_tight(&0, 3.0));
        assert!(!e.is_tight(&1, 5.0));
        assert_eq!(e.contribution(&1), 3.0);
    }

    #[test]
    fn second_raise_accounts_prior_contributions() {
        let mut e: DualAscent<u32> = DualAscent::new();
        e.serve(&[(0, 3.0), (1, 5.0)]);
        // Candidate 1 already carries 3.0: surplus is 2.0 now.
        let delta = e.raise(&[(1, 5.0), (2, 10.0)]);
        assert_eq!(delta, 2.0);
        assert!(e.is_tight(&1, 5.0));
        assert_eq!(e.dual_value(), 5.0);
    }

    #[test]
    fn serve_buys_every_tight_candidate() {
        let mut e: DualAscent<u32> = DualAscent::new();
        // Equal prices: both turn tight simultaneously and both are bought.
        let bought = e.serve(&[(0, 2.0), (1, 2.0)]);
        assert_eq!(bought, vec![0, 1]);
        assert_eq!(e.total_cost(), 4.0);
    }

    #[test]
    fn owned_candidates_are_not_rebought() {
        let mut e: DualAscent<u32> = DualAscent::new();
        e.serve(&[(0, 2.0)]);
        let again = e.serve(&[(0, 2.0)]);
        assert!(
            again.is_empty(),
            "already-owned candidate must not be rebought"
        );
        assert_eq!(e.total_cost(), 2.0);
        // The raise is free because the candidate is already tight.
        assert_eq!(e.dual_value(), 2.0);
    }

    #[test]
    fn forced_buy_is_idempotent() {
        let mut e: DualAscent<u32> = DualAscent::new();
        assert!(e.buy(7, 4.0));
        assert!(!e.buy(7, 4.0));
        assert_eq!(e.total_cost(), 4.0);
        assert_eq!(e.purchases(), &[7]);
    }

    #[test]
    fn dual_value_lower_bounds_primal_cost_by_tightness() {
        // Each purchase is fully paid by contributions, and a contribution
        // unit lands on at most `max candidates per serve` purchases — the
        // K-factor of Theorem 2.7. With disjoint serves, cost == dual.
        let mut e: DualAscent<u32> = DualAscent::new();
        e.serve(&[(0, 1.0)]);
        e.serve(&[(1, 2.0)]);
        assert_eq!(e.total_cost(), e.dual_value());
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_raise_rejected() {
        let mut e: DualAscent<u32> = DualAscent::new();
        e.raise(&[]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn invalid_price_rejected() {
        let mut e: DualAscent<u32> = DualAscent::new();
        e.raise(&[(0, f64::NAN)]);
    }
}
