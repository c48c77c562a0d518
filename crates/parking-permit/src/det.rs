//! The deterministic primal-dual algorithm (thesis Algorithm 1).
//!
//! When an uncovered demand arrives at day `t'`, its dual variable `y_{t'}`
//! is raised until the dual constraint of some candidate lease becomes
//! tight; every tight candidate is then bought. In the interval model
//! exactly `K` candidate leases cover any day, which caps the primal cost at
//! `K` times the dual value and yields the `O(K)` competitive ratio of
//! Theorem 2.7.

use crate::{PermitOnline, PurchaseLog, PERMIT_ELEMENT};
use leasing_core::engine::{Books, LeasingAlgorithm, Ledger};
use leasing_core::framework::{OnlineAlgorithm, Triple};
use leasing_core::interval::aligned_start;
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::time::TimeStep;
use leasing_core::EPS;

/// Deterministic primal-dual parking-permit algorithm over aligned
/// (interval-model) leases.
///
/// Coverage and ownership are queried from the ledger's coverage index
/// ([`Ledger::covered`]/[`Ledger::owns`]) — the algorithm keeps no private
/// active-lease table.
#[derive(Clone, Debug)]
pub struct DeterministicPrimalDual {
    structure: LeaseStructure,
    /// Accumulated dual contribution `Σ y` of the *current* aligned
    /// window per lease type: `(window start, Σ y)`. The candidates of
    /// day `t` are exactly the aligned windows containing `t`, and a
    /// window the clock has left never becomes a candidate again, so only
    /// `K` live accumulators are ever needed — the per-lease map the
    /// algorithm used to keep was write-only beyond the current windows.
    /// Stale entries (start ≠ the current aligned start) read as zero.
    contributions: Vec<(TimeStep, f64)>,
    /// Total dual value Σ y raised so far (a lower bound on the interval
    /// model optimum by weak duality — used by tests and experiments).
    dual_value: f64,
    /// Purchase log in buy order.
    purchases: Vec<Lease>,
    /// Decision ledger backing the deprecated [`PermitOnline`] entry point;
    /// the single source of truth for cost on that path.
    ledger: Ledger,
}

impl DeterministicPrimalDual {
    /// Creates the algorithm for the given permit structure.
    ///
    /// The structure is used with *aligned* starts (a type-`k` lease starts
    /// only at multiples of `l_k`), i.e. in the interval model of Definition
    /// 2.5. Lengths need not be powers of two; alignment alone guarantees
    /// the "exactly `K` candidates per day" property the analysis needs.
    pub fn new(structure: LeaseStructure) -> Self {
        let ledger = Ledger::new(structure.clone());
        // Sentinel start: no aligned window starts at `u64::MAX`.
        let contributions = vec![(TimeStep::MAX, 0.0); structure.num_types()];
        DeterministicPrimalDual {
            structure,
            contributions,
            dual_value: 0.0,
            purchases: Vec::new(),
            ledger,
        }
    }

    /// Core primal-dual step, recording purchases into the books.
    fn serve_with(&mut self, t: TimeStep, books: &mut Books<'_>) {
        if books.covered(PERMIT_ELEMENT, t) {
            return;
        }
        // Slide each type's accumulator to the aligned window containing
        // `t` (windows the clock has left reset to zero — they can never
        // be candidates again), then raise y_t until the first candidate
        // constraint becomes tight. No allocation, no hashing: K slots.
        let structure = &self.structure;
        let mut delta = f64::INFINITY;
        for (k, slot) in self.contributions.iter_mut().enumerate() {
            let start = aligned_start(t, structure.length(k));
            if slot.0 != start {
                *slot = (start, 0.0);
            }
            delta = delta.min((structure.cost(k) - slot.1).max(0.0));
        }
        self.dual_value += delta;
        for (k, slot) in self.contributions.iter_mut().enumerate() {
            slot.1 += delta;
            let triple = Triple::new(PERMIT_ELEMENT, k, slot.0);
            if slot.1 >= structure.cost(k) - EPS && !books.owns(triple) {
                books.buy(t, triple);
                self.purchases.push(Lease::new(k, slot.0));
            }
        }
        debug_assert!(
            books.covered(PERMIT_ELEMENT, t),
            "primal-dual step must cover the demand"
        );
    }

    /// The permit structure this algorithm leases from.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// The leases bought so far, in purchase order.
    pub fn purchases(&self) -> &[Lease] {
        &self.purchases
    }

    /// Total dual value `Σ_t y_t` raised so far. By weak duality this is a
    /// lower bound on the cost of an optimal interval-model solution.
    pub fn dual_value(&self) -> f64 {
        self.dual_value
    }

    /// Total primal cost paid so far (inherent mirror of the trait methods,
    /// so callers need not disambiguate between [`PermitOnline`] and
    /// [`OnlineAlgorithm`]).
    /// Reports the internal legacy-path ledger; when driving through a
    /// [`Driver`](leasing_core::engine::Driver), read the driver's ledger
    /// (or [`Report`](leasing_core::engine::Report)) instead.
    pub fn total_cost(&self) -> f64 {
        self.ledger.total_cost()
    }

    /// The internal decision ledger backing the deprecated serve path.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }
}

impl LeasingAlgorithm for DeterministicPrimalDual {
    type Request = ();

    fn on_request(&mut self, time: TimeStep, _request: (), mut books: Books<'_>) {
        self.serve_with(time, &mut books);
    }
}

impl PurchaseLog for DeterministicPrimalDual {
    fn purchases(&self) -> &[Lease] {
        &self.purchases
    }
}

impl PermitOnline for DeterministicPrimalDual {
    fn serve_demand(&mut self, t: TimeStep) {
        let mut ledger = std::mem::take(&mut self.ledger);
        ledger.advance(t);
        self.serve_with(t, &mut Books::new(&mut ledger));
        self.ledger = ledger;
    }

    fn is_covered(&self, t: TimeStep) -> bool {
        self.ledger.covered(PERMIT_ELEMENT, t)
    }

    fn total_cost(&self) -> f64 {
        self.ledger.total_cost()
    }
}

impl OnlineAlgorithm for DeterministicPrimalDual {
    type Request = ();

    fn serve(&mut self, time: TimeStep, _request: ()) {
        self.serve_demand(time);
    }

    fn total_cost(&self) -> f64 {
        self.ledger.total_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline;
    use leasing_core::lease::LeaseType;
    use leasing_core::rng::seeded;
    use rand::RngExt;

    fn two_type() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(4, 3.0)]).unwrap()
    }

    #[test]
    fn single_demand_buys_cheapest_tight_candidate() {
        let mut alg = DeterministicPrimalDual::new(two_type());
        alg.serve_demand(5);
        // y = 1 makes the day lease tight first; only it is bought.
        assert_eq!(alg.purchases(), &[Lease::new(0, 5)]);
        assert!((alg.total_cost() - 1.0).abs() < 1e-9);
        assert!((alg.dual_value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_demands_in_same_window_trigger_longer_lease() {
        let mut alg = DeterministicPrimalDual::new(two_type());
        // Days 0..3 all live in the aligned window [0,4) of the long lease.
        for t in 0..4 {
            alg.serve_demand(t);
        }
        // Day 0: y=1, buy day lease (long gets 1). Day 1: y=1, buy day lease
        // (long gets 2). Day 2: y=1 makes long tight as well -> buy day + long.
        // Day 3: covered by the long lease, no purchase.
        assert!(alg.is_covered(3));
        let bought_types: Vec<usize> = alg.purchases().iter().map(|l| l.type_index).collect();
        assert_eq!(bought_types, vec![0, 0, 0, 1]);
        assert!((alg.total_cost() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn covered_demand_is_free() {
        let mut alg = DeterministicPrimalDual::new(two_type());
        alg.serve_demand(0);
        let cost = alg.total_cost();
        alg.serve_demand(0);
        assert_eq!(alg.total_cost(), cost);
    }

    #[test]
    fn dual_value_lower_bounds_interval_optimum() {
        let s = LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(4, 2.5),
            LeaseType::new(16, 6.0),
        ])
        .unwrap();
        let mut rng = seeded(99);
        for _ in 0..20 {
            let demands: Vec<u64> = {
                let mut d: Vec<u64> = (0..48).filter(|_| rng.random::<f64>() < 0.4).collect();
                if d.is_empty() {
                    d.push(0);
                }
                d
            };
            let mut alg = DeterministicPrimalDual::new(s.clone());
            for &t in &demands {
                alg.serve_demand(t);
            }
            let opt = offline::optimal_cost_interval_model(&s, &demands);
            assert!(
                alg.dual_value() <= opt + 1e-6,
                "dual {} must lower-bound opt {}",
                alg.dual_value(),
                opt
            );
            // Theorem 2.7: primal <= K * dual.
            assert!(
                alg.total_cost() <= s.num_types() as f64 * alg.dual_value() + 1e-6,
                "primal {} vs K*dual {}",
                alg.total_cost(),
                s.num_types() as f64 * alg.dual_value()
            );
        }
    }

    #[test]
    fn competitive_ratio_at_most_k_on_random_instances() {
        let s = LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(8, 4.0),
            LeaseType::new(64, 16.0),
        ])
        .unwrap();
        let k = s.num_types() as f64;
        let mut rng = seeded(7);
        for trial in 0..25 {
            let p = 0.1 + 0.8 * rng.random::<f64>();
            let demands: Vec<u64> = (0..128).filter(|_| rng.random::<f64>() < p).collect();
            if demands.is_empty() {
                continue;
            }
            let mut alg = DeterministicPrimalDual::new(s.clone());
            for &t in &demands {
                alg.serve_demand(t);
            }
            let opt = offline::optimal_cost_interval_model(&s, &demands);
            assert!(
                alg.total_cost() <= k * opt + 1e-6,
                "trial {trial}: alg {} opt {opt}",
                alg.total_cost()
            );
        }
    }

    #[test]
    fn online_algorithm_trait_delegates() {
        use leasing_core::framework::run_online;
        let mut alg = DeterministicPrimalDual::new(two_type());
        let cost = run_online(&mut alg, vec![(0, ()), (1, ())]).unwrap();
        assert!(cost > 0.0);
    }
}
