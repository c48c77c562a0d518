//! The deterministic primal-dual algorithm (thesis Algorithm 1).
//!
//! When an uncovered demand arrives at day `t'`, its dual variable `y_{t'}`
//! is raised until the dual constraint of some candidate lease becomes
//! tight; every tight candidate is then bought. In the interval model
//! exactly `K` candidate leases cover any day, which caps the primal cost at
//! `K` times the dual value and yields the `O(K)` competitive ratio of
//! Theorem 2.7.

use crate::{PermitOnline, PERMIT_ELEMENT};
use leasing_core::dual::AlignedDuals;
use leasing_core::engine::{Books, LeasingAlgorithm, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;

/// Deterministic primal-dual parking-permit algorithm over aligned
/// (interval-model) leases.
///
/// Coverage and ownership are queried from the books' coverage index
/// ([`Ledger::covered`](leasing_core::engine::Ledger::covered)/
/// [`Ledger::owns`](leasing_core::engine::Ledger::owns)) — the algorithm
/// keeps no private active-lease table.
#[derive(Clone, Debug)]
pub struct DeterministicPrimalDual {
    structure: LeaseStructure,
    /// The `K` live dual accumulators, one per lease type: the candidates
    /// of day `t` are exactly the aligned windows containing `t`.
    duals: AlignedDuals,
    /// Total dual value Σ y raised so far (a lower bound on the interval
    /// model optimum by weak duality — used by tests and experiments).
    dual_value: f64,
}

impl DeterministicPrimalDual {
    /// Creates the algorithm for the given permit structure.
    ///
    /// The structure is used with *aligned* starts (a type-`k` lease starts
    /// only at multiples of `l_k`), i.e. in the interval model of Definition
    /// 2.5. Lengths need not be powers of two; alignment alone guarantees
    /// the "exactly `K` candidates per day" property the analysis needs.
    pub fn new(structure: LeaseStructure) -> Self {
        DeterministicPrimalDual {
            duals: AlignedDuals::new(structure.num_types()),
            structure,
            dual_value: 0.0,
        }
    }

    /// The permit structure this algorithm leases from.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// Total dual value `Σ_t y_t` raised so far. By weak duality this is a
    /// lower bound on the cost of an optimal interval-model solution.
    pub fn dual_value(&self) -> f64 {
        self.dual_value
    }
}

impl PermitOnline for DeterministicPrimalDual {
    /// The primal-dual step for one demand of `element`.
    fn serve(&mut self, t: TimeStep, element: usize, books: &mut Books<'_>) {
        if books.covered(element, t) {
            return;
        }
        let structure = &self.structure;
        let price = |k: usize| structure.cost(k);
        self.dual_value += self.duals.raise(t, structure, price);
        for lease in self.duals.tight(price) {
            let triple = Triple::new(element, lease.type_index, lease.start);
            if !books.owns(triple) {
                books.buy_priced(t, triple, price(lease.type_index), CATEGORY_LEASE);
            }
        }
        debug_assert!(
            books.covered(element, t),
            "primal-dual step must cover the demand"
        );
    }
}

impl LeasingAlgorithm for DeterministicPrimalDual {
    type Request = ();

    fn on_request(&mut self, time: TimeStep, _request: (), mut books: Books<'_>) {
        self.serve(time, PERMIT_ELEMENT, &mut books);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline;
    use leasing_core::engine::Driver;
    use leasing_core::lease::{Lease, LeaseType};
    use leasing_core::rng::seeded;
    use rand::RngExt;

    /// A driver over the primal-dual algorithm for `s`.
    fn permit(s: LeaseStructure) -> Driver<DeterministicPrimalDual> {
        Driver::new(DeterministicPrimalDual::new(s.clone()), s)
    }

    /// The leases `driver` bought, in purchase order.
    fn bought(driver: &Driver<DeterministicPrimalDual>) -> Vec<Lease> {
        driver
            .ledger()
            .decisions()
            .iter()
            .filter_map(|d| d.lease)
            .collect()
    }

    fn two_type() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(4, 3.0)]).unwrap()
    }

    #[test]
    fn single_demand_buys_cheapest_tight_candidate() {
        let mut driver = permit(two_type());
        driver.submit(5, ()).unwrap();
        // y = 1 makes the day lease tight first; only it is bought.
        assert_eq!(bought(&driver), vec![Lease::new(0, 5)]);
        assert!((driver.cost() - 1.0).abs() < 1e-9);
        assert!((driver.algorithm().dual_value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_demands_in_same_window_trigger_longer_lease() {
        let mut driver = permit(two_type());
        // Days 0..3 all live in the aligned window [0,4) of the long lease.
        for t in 0..4 {
            driver.submit(t, ()).unwrap();
        }
        // Day 0: y=1, buy day lease (long gets 1). Day 1: y=1, buy day lease
        // (long gets 2). Day 2: y=1 makes long tight as well -> buy day + long.
        // Day 3: covered by the long lease, no purchase.
        assert!(driver.ledger().covered(PERMIT_ELEMENT, 3));
        let bought_types: Vec<usize> = bought(&driver).iter().map(|l| l.type_index).collect();
        assert_eq!(bought_types, vec![0, 0, 0, 1]);
        assert!((driver.cost() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn covered_demand_is_free() {
        let mut driver = permit(two_type());
        driver.submit(0, ()).unwrap();
        let cost = driver.cost();
        driver.submit(0, ()).unwrap();
        assert_eq!(driver.cost(), cost);
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
            let mut driver = permit(s.clone());
            for &t in &demands {
                driver.submit(t, ()).unwrap();
            }
            let opt = offline::optimal_cost_interval_model(&s, &demands);
            assert!(
                driver.algorithm().dual_value() <= opt + 1e-6,
                "dual {} must lower-bound opt {}",
                driver.algorithm().dual_value(),
                opt
            );
            // Theorem 2.7: primal <= K * dual.
            assert!(
                driver.cost() <= s.num_types() as f64 * driver.algorithm().dual_value() + 1e-6,
                "primal {} vs K*dual {}",
                driver.cost(),
                s.num_types() as f64 * driver.algorithm().dual_value()
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
            let mut driver = permit(s.clone());
            for &t in &demands {
                driver.submit(t, ()).unwrap();
            }
            let opt = offline::optimal_cost_interval_model(&s, &demands);
            assert!(
                driver.cost() <= k * opt + 1e-6,
                "trial {trial}: alg {} opt {opt}",
                driver.cost()
            );
        }
    }
}
