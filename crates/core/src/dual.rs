//! The deterministic primal-dual step (§2.1; thesis Algorithm 1,
//! Theorem 2.7, and the §5.3 OLD algorithm).
//!
//! Every deterministic primal-dual algorithm of the thesis serves an
//! uncovered demand the same way: raise the demand's dual variable until
//! the dual constraint of some candidate lease is tight, then buy tight
//! candidates. The raise `δ` is the minimum over the candidates of
//! `max(price − paid, 0)` (folded from `+∞`), every candidate's paid sum
//! grows by `δ`, and a candidate is tight once `paid ≥ price − EPS`. The
//! algorithms differ only in which tight candidates they buy and in how
//! they store the paid sums, so the step lives here in its two shapes:
//!
//! - [`DualAscent`] keys the paid sums by candidate, for candidate sets of
//!   any shape (deadline windows, vertex-cover endpoints).
//! - [`AlignedDuals`] keeps the `K` live slots of one element whose
//!   candidates are the aligned windows containing the demand (the
//!   interval model), so it needs no map at all.
//!
//! Neither records purchases: the driver's ledger is the only purchase
//! record, and callers buy tight candidates into it in candidate order.

use crate::engine::FxHashMap;
use crate::interval::aligned_start;
use crate::lease::{Lease, LeaseStructure};
use crate::time::TimeStep;
use crate::EPS;
use std::hash::Hash;

/// Size below which [`DualAscent::retire`] never sweeps its map.
const MIN_SWEEP: usize = 8;

/// Per-candidate paid sums plus the dual tally `Σ y`.
///
/// ```
/// use leasing_core::dual::DualAscent;
///
/// let mut duals: DualAscent<&str> = DualAscent::new();
/// let candidates = [("day", 1.0), ("week", 5.0)];
/// assert_eq!(duals.raise(&candidates), 1.0);
/// // The cheapest constraint turns tight first.
/// assert!(duals.is_tight(&"day", 1.0));
/// assert!(!duals.is_tight(&"week", 5.0));
/// assert_eq!(duals.dual_value(), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct DualAscent<V> {
    paid: FxHashMap<V, f64>,
    dual_value: f64,
    /// Map size at which [`retire`](Self::retire) sweeps next.
    sweep_at: usize,
}

impl<V: Eq + Hash + Copy> Default for DualAscent<V> {
    fn default() -> Self {
        DualAscent::new()
    }
}

impl<V: Eq + Hash + Copy> DualAscent<V> {
    /// Creates an empty state: every paid sum and the dual are zero.
    pub fn new() -> Self {
        DualAscent {
            paid: FxHashMap::default(),
            dual_value: 0.0,
            sweep_at: MIN_SWEEP,
        }
    }

    /// The dual mass `Σ y` paid towards candidate `v` so far.
    fn paid(&self, v: &V) -> f64 {
        self.paid.get(v).copied().unwrap_or(0.0)
    }

    /// Whether the dual constraint of `v` (priced `price`) is tight.
    pub fn is_tight(&self, v: &V, price: f64) -> bool {
        self.paid(v) >= price - EPS
    }

    /// Raises the demand's dual by the minimum surplus of `candidates`,
    /// after which at least one of them is tight. Returns the raise `δ`
    /// (zero when a candidate already was tight).
    pub fn raise(&mut self, candidates: &[(V, f64)]) -> f64 {
        let delta = candidates
            .iter()
            .map(|(v, price)| (price - self.paid(v)).max(0.0))
            .fold(f64::INFINITY, f64::min);
        self.dual_value += delta;
        for &(v, _) in candidates {
            *self.paid.entry(v).or_insert(0.0) += delta;
        }
        delta
    }

    /// Drops the candidates `keep` rejects. Callers pass "the candidate's
    /// window ends after the arriving demand's time": arrivals are
    /// time-ordered, so a candidate whose window has ended is never read
    /// again. The map is swept only once it has doubled since the last
    /// sweep, which keeps the cost amortized constant per entry and the
    /// size within twice the live candidates (or [`MIN_SWEEP`]).
    pub fn retire(&mut self, mut keep: impl FnMut(&V) -> bool) {
        if self.paid.len() < self.sweep_at {
            return;
        }
        self.paid.retain(|v, _| keep(v));
        self.sweep_at = (2 * self.paid.len()).max(MIN_SWEEP);
    }

    /// Total dual value `Σ y` raised: by weak duality (Theorem 2.3) a lower
    /// bound on the optimum of the served covering constraints, since
    /// [`raise`](Self::raise) never lets a paid sum pass its price.
    pub fn dual_value(&self) -> f64 {
        self.dual_value
    }
}

/// The `K` live `(window start, paid)` slots of one element under
/// monotone time, one per lease type.
///
/// The candidates of day `t` in the interval model are exactly the aligned
/// windows containing `t`, one per type, and a window the clock has left is
/// never a candidate again, so slot `k` only ever needs the type-`k` window
/// of the latest demand; a slot whose window slid reads as zero.
///
/// ```
/// use leasing_core::dual::AlignedDuals;
/// use leasing_core::lease::{Lease, LeaseStructure, LeaseType};
///
/// # fn main() -> Result<(), leasing_core::lease::LeaseStructureError> {
/// let s = LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(4, 3.0)])?;
/// let price = |k: usize| s.cost(k);
/// let mut duals = AlignedDuals::new(s.num_types());
/// assert_eq!(duals.raise(5, &s, price), 1.0);
/// assert_eq!(duals.tight(price).collect::<Vec<_>>(), vec![Lease::new(0, 5)]);
/// assert_eq!(duals.slots(), &[(5, 1.0), (4, 1.0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct AlignedDuals {
    slots: Vec<(TimeStep, f64)>,
}

impl AlignedDuals {
    /// `num_types` empty slots. Their sentinel start `TimeStep::MAX` is no
    /// aligned window's start, so the first raise resets every slot.
    pub fn new(num_types: usize) -> Self {
        AlignedDuals {
            slots: vec![(TimeStep::MAX, 0.0); num_types],
        }
    }

    /// Rebuilds the slots [`slots`](Self::slots) returned.
    pub fn from_slots(slots: Vec<(TimeStep, f64)>) -> Self {
        AlignedDuals { slots }
    }

    /// The `(window start, paid)` slot of each lease type.
    pub fn slots(&self) -> &[(TimeStep, f64)] {
        &self.slots
    }

    /// Slides each slot to the aligned window of `structure` containing
    /// `t`, then raises the demand's dual by the minimum surplus against
    /// `price_of_type`. Returns the raise `δ`.
    pub fn raise(
        &mut self,
        t: TimeStep,
        structure: &LeaseStructure,
        price_of_type: impl Fn(usize) -> f64,
    ) -> f64 {
        let mut delta = f64::INFINITY;
        for (k, slot) in self.slots.iter_mut().enumerate() {
            let start = aligned_start(t, structure.length(k));
            if slot.0 != start {
                *slot = (start, 0.0);
            }
            delta = delta.min((price_of_type(k) - slot.1).max(0.0));
        }
        for slot in &mut self.slots {
            slot.1 += delta;
        }
        delta
    }

    /// The leases whose slots are tight against `price_of_type`, in type
    /// order.
    pub fn tight<'a>(
        &'a self,
        price_of_type: impl Fn(usize) -> f64 + 'a,
    ) -> impl Iterator<Item = Lease> + 'a {
        self.slots
            .iter()
            .enumerate()
            .filter(move |&(k, slot)| slot.1 >= price_of_type(k) - EPS)
            .map(|(k, slot)| Lease::new(k, slot.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::candidate_leases;
    use crate::lease::LeaseType;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(4, 3.0),
            LeaseType::new(16, 8.0),
        ])
        .unwrap()
    }

    #[test]
    fn raise_stops_at_the_cheapest_surplus() {
        let mut e: DualAscent<u32> = DualAscent::new();
        let delta = e.raise(&[(0, 3.0), (1, 5.0)]);
        assert_eq!(delta, 3.0);
        assert!(e.is_tight(&0, 3.0));
        assert!(!e.is_tight(&1, 5.0));
        assert_eq!(e.paid(&1), 3.0);
    }

    #[test]
    fn second_raise_accounts_prior_contributions() {
        let mut e: DualAscent<u32> = DualAscent::new();
        e.raise(&[(0, 3.0), (1, 5.0)]);
        // Candidate 1 already carries 3.0: surplus is 2.0 now.
        let delta = e.raise(&[(1, 5.0), (2, 10.0)]);
        assert_eq!(delta, 2.0);
        assert!(e.is_tight(&1, 5.0));
        assert_eq!(e.dual_value(), 5.0);
    }

    #[test]
    fn equal_prices_turn_tight_together() {
        let mut e: DualAscent<u32> = DualAscent::new();
        e.raise(&[(0, 2.0), (1, 2.0)]);
        assert!(e.is_tight(&0, 2.0) && e.is_tight(&1, 2.0));
    }

    #[test]
    fn a_tight_candidate_raises_for_free() {
        let mut e: DualAscent<u32> = DualAscent::new();
        e.raise(&[(0, 2.0)]);
        assert_eq!(e.raise(&[(0, 2.0), (1, 7.0)]), 0.0);
        assert_eq!(e.dual_value(), 2.0);
        assert_eq!(e.paid(&1), 0.0);
    }

    #[test]
    fn dual_value_sums_the_raises() {
        let mut e: DualAscent<u32> = DualAscent::new();
        let raised = e.raise(&[(0, 1.0)]) + e.raise(&[(1, 2.0)]) + e.raise(&[(1, 2.0), (2, 4.0)]);
        assert_eq!(e.dual_value(), raised);
        assert_eq!(e.dual_value(), 3.0);
    }

    /// Serves one demand per day over `horizon` days, retiring ended
    /// windows before each raise; returns the largest map size seen.
    fn peak_map_size(horizon: TimeStep) -> usize {
        let s = structure();
        let mut e: DualAscent<Lease> = DualAscent::new();
        let mut peak = 0;
        for t in 0..horizon {
            e.retire(|l| l.window(&s).end() > t);
            let candidates: Vec<(Lease, f64)> =
                candidate_leases(&s, t).map(|l| (l, l.cost(&s))).collect();
            e.raise(&candidates);
            peak = peak.max(e.paid.len());
        }
        peak
    }

    #[test]
    fn retiring_ended_windows_bounds_the_map_independently_of_the_horizon() {
        let short = peak_map_size(1_000);
        let long = peak_map_size(100_000);
        assert_eq!(short, long, "the map must not grow with the horizon");
        // A day holds K = 3 live windows; the sweep lets the map reach at
        // most twice the live set or the sweep floor, plus one raise.
        assert!(long <= MIN_SWEEP + 3, "peak {long}");
    }

    #[test]
    fn retiring_keeps_live_candidates_paid() {
        let mut e: DualAscent<u32> = DualAscent::new();
        for v in 0..MIN_SWEEP as u32 {
            e.raise(&[(v, 1.0 + f64::from(v))]);
        }
        e.retire(|&v| v % 2 == 0);
        assert_eq!(e.paid.len(), MIN_SWEEP / 2);
        assert_eq!(e.paid(&1), 0.0);
        assert_eq!(e.paid(&2), 3.0);
    }

    #[test]
    fn aligned_slots_slide_and_report_tight_leases_in_type_order() {
        let s = structure();
        let price = |k: usize| s.cost(k);
        let mut duals = AlignedDuals::new(s.num_types());
        // Days 0, 1, 2 of one 4-day window: the 4-day slot collects 1 per
        // day and turns tight on day 2 together with that day's lease.
        for t in 0..2 {
            assert_eq!(duals.raise(t, &s, price), 1.0);
        }
        assert_eq!(duals.raise(2, &s, price), 1.0);
        let tight: Vec<Lease> = duals.tight(price).collect();
        assert_eq!(tight, vec![Lease::new(0, 2), Lease::new(1, 0)]);
        // Day 4 opens a new 4-day window: its slot restarts from zero.
        duals.raise(4, &s, price);
        assert_eq!(duals.slots()[1], (4, 1.0));
        assert_eq!(duals.slots()[2], (0, 4.0));
    }

    #[test]
    fn aligned_slots_round_trip() {
        let s = structure();
        let mut duals = AlignedDuals::new(s.num_types());
        duals.raise(9, &s, |k| s.cost(k));
        let copy = AlignedDuals::from_slots(duals.slots().to_vec());
        assert_eq!(copy, duals);
    }
}
