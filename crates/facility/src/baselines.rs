//! Online baselines for facility leasing.
//!
//! [`GreedyLease`] is the natural lease-or-connect heuristic: each client
//! either connects to the closest currently-active facility or leases the
//! facility/type pair minimising `c_{ik}/l_k`-amortised opening plus
//! connection cost — whichever is cheaper *right now*. It carries no
//! worst-case guarantee and serves as the strawman the primal-dual algorithm
//! is compared against in experiment E9.

use crate::instance::FacilityInstance;
use leasing_core::engine::{Books, LeasingAlgorithm, CATEGORY_CONNECTION, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_core::time::TimeStep;

/// Greedy lease-or-connect baseline. The books it is handed are the only
/// record of the leases it bought.
#[derive(Debug)]
pub struct GreedyLease<'a> {
    instance: &'a FacilityInstance,
    assignments: Vec<Option<(usize, usize)>>,
}

impl<'a> GreedyLease<'a> {
    /// Creates the baseline for `instance`.
    pub fn new(instance: &'a FacilityInstance) -> Self {
        GreedyLease {
            instance,
            assignments: vec![None; instance.num_clients()],
        }
    }

    /// Final `(client, facility, type)` assignments.
    pub fn assignments(&self) -> Vec<(usize, usize, usize)> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(j, a)| a.map(|(i, k)| (j, i, k)))
            .collect()
    }
}

impl<'a> LeasingAlgorithm for GreedyLease<'a> {
    /// The batch of (globally numbered) clients arriving at a time step.
    type Request = Vec<usize>;

    fn on_request(&mut self, time: TimeStep, clients: Vec<usize>, mut books: Books<'_>) {
        let inst = self.instance;
        for j in clients {
            // Option A: connect to the best already-active facility.
            let mut best_connect: Option<(f64, usize, usize)> = None;
            for k in 0..inst.structure().num_types() {
                let start = aligned_start(time, inst.structure().length(k));
                for i in 0..inst.num_facilities() {
                    if books.owns(Triple::new(i, k, start)) {
                        let d = inst.distance(i, j);
                        if best_connect.is_none_or(|(bd, _, _)| d < bd) {
                            best_connect = Some((d, i, k));
                        }
                    }
                }
            }
            // Option B: lease a new facility/type.
            let mut best_lease: Option<(f64, usize, usize)> = None;
            for i in 0..inst.num_facilities() {
                for k in 0..inst.structure().num_types() {
                    let total = inst.cost(i, k) + inst.distance(i, j);
                    if best_lease.is_none_or(|(bt, _, _)| total < bt) {
                        best_lease = Some((total, i, k));
                    }
                }
            }
            let (lease_total, li, lk) = best_lease.expect("instance has at least one facility");
            let (i, k) = match best_connect {
                Some((d, i, k)) if d <= lease_total => (i, k),
                _ => {
                    let start = aligned_start(time, inst.structure().length(lk));
                    let triple = Triple::new(li, lk, start);
                    if !books.owns(triple) {
                        books.buy_priced(time, triple, inst.cost(li, lk), CATEGORY_LEASE);
                    }
                    (li, lk)
                }
            };
            books.charge(time, i, inst.distance(i, j), CATEGORY_CONNECTION);
            self.assignments[j] = Some((i, k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Point;
    use crate::online::is_feasible;
    use leasing_core::engine::{Driver, Ledger};
    use leasing_core::lease::{LeaseStructure, LeaseType};

    /// Drives `alg` over every batch of `inst`; returns the driver's ledger.
    fn drive(alg: &mut GreedyLease<'_>, inst: &FacilityInstance) -> Ledger {
        let mut driver = Driver::new(alg, inst.structure().clone());
        driver.submit_batch(inst.online_requests()).unwrap();
        driver.into_parts().1
    }

    fn lengths() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap()
    }

    #[test]
    fn greedy_produces_feasible_solutions() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(1.0, 0.0)]),
                (5, vec![Point::new(9.0, 0.0), Point::new(11.0, 0.0)]),
            ],
        )
        .unwrap();
        let mut alg = GreedyLease::new(&inst);
        let ledger = drive(&mut alg, &inst);
        assert!(ledger.total_cost() > 0.0);
        assert!(is_feasible(&inst, &ledger, &alg.assignments()));
    }

    #[test]
    fn greedy_reuses_active_leases() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(0.1, 0.0)]),
                (1, vec![Point::new(0.2, 0.0)]),
            ],
        )
        .unwrap();
        let mut alg = GreedyLease::new(&inst);
        assert_eq!(drive(&mut alg, &inst).leases_bought(), 1);
    }

    #[test]
    fn greedy_prefers_connection_when_cheaper() {
        // Second client is close: connecting (0.2) beats a fresh lease (>= 2).
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(0.3, 0.0)],
            lengths(),
            vec![(0, vec![Point::new(0.0, 0.0), Point::new(0.2, 0.0)])],
        )
        .unwrap();
        let mut alg = GreedyLease::new(&inst);
        assert_eq!(drive(&mut alg, &inst).leases_bought(), 1);
    }
}
