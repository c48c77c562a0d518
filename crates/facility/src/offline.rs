//! The Figure 4.1 ILP for facility leasing, and its LP relaxation.
//!
//! Variables: `x_{ikt}` per candidate lease triple (binary) and `y_{ijt}`
//! per (facility, client) pair (continuous in `[0,1]`; integral `x` admits
//! an integral optimal `y`). Constraints exactly as printed:
//! `Σ_i y_{ijt} ≥ 1` and `Σ_{(i,k,t') ∈ F̄_t} x_{ikt'} − y_{ijt} ≥ 0`.

use crate::instance::FacilityInstance;
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_lp::{Cmp, IntegerProgram, LinearProgram};
use std::collections::BTreeMap;

/// Builds the Figure 4.1 ILP. Returns the program and the lease triple each
/// `x` variable stands for.
pub fn build_ilp(instance: &FacilityInstance) -> (IntegerProgram, Vec<Triple>) {
    let mut lp = LinearProgram::new();
    let mut x_of: BTreeMap<Triple, usize> = BTreeMap::new();
    let mut triples: Vec<Triple> = Vec::new();

    // x variables: candidate aligned leases per facility/type/batch time.
    for b in instance.batches() {
        for k in 0..instance.structure().num_types() {
            let start = aligned_start(b.time, instance.structure().length(k));
            for i in 0..instance.num_facilities() {
                let tr = Triple::new(i, k, start);
                x_of.entry(tr).or_insert_with(|| {
                    triples.push(tr);
                    lp.add_bounded_var(instance.cost(i, k), 1.0)
                });
            }
        }
    }

    // y variables + constraints per client.
    for b in instance.batches() {
        for &j in &b.clients {
            let mut assign_row = Vec::new();
            for i in 0..instance.num_facilities() {
                let y = lp.add_bounded_var(instance.distance(i, j), 1.0);
                assign_row.push((y, 1.0));
                // y_{ijt} <= Σ_{(i,k,t') covering t} x_{ikt'}
                let mut row = vec![(y, 1.0)];
                for k in 0..instance.structure().num_types() {
                    let start = aligned_start(b.time, instance.structure().length(k));
                    let x = x_of[&Triple::new(i, k, start)];
                    row.push((x, -1.0));
                }
                lp.add_constraint(row, Cmp::Le, 0.0);
            }
            lp.add_constraint(assign_row, Cmp::Ge, 1.0);
        }
    }

    let mut ip = IntegerProgram::new(lp);
    for tr in &triples {
        ip.mark_integer(x_of[tr]);
    }
    (ip, triples)
}

/// Exact optimum via branch-and-bound; `None` if the node budget is
/// exhausted.
pub fn optimal_cost(instance: &FacilityInstance, node_limit: usize) -> Option<f64> {
    if instance.num_clients() == 0 {
        return Some(0.0);
    }
    let (ip, _) = build_ilp(instance);
    match ip.solve(node_limit) {
        leasing_lp::IlpOutcome::Optimal(sol) => Some(sol.objective),
        _ => None,
    }
}

/// LP-relaxation lower bound on the optimum (always valid).
pub fn lp_lower_bound(instance: &FacilityInstance) -> f64 {
    if instance.num_clients() == 0 {
        return 0.0;
    }
    let (ip, _) = build_ilp(instance);
    ip.relaxation_bound()
        .expect("facility covering relaxation is feasible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Point;
    use leasing_core::lease::{LeaseStructure, LeaseType};

    fn lengths() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap()
    }

    #[test]
    fn single_client_optimum_is_cheapest_lease_plus_distance() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![(0, vec![Point::new(3.0, 0.0)])],
        )
        .unwrap();
        let opt = optimal_cost(&inst, 100_000).unwrap();
        assert!((opt - 5.0).abs() < 1e-5, "opt {opt}");
    }

    #[test]
    fn long_lease_amortises_many_batches() {
        // Client at the facility site every 2 steps for 16 steps: one long
        // lease (6) beats four short ones (8).
        let batches: Vec<(u64, Vec<Point>)> = (0..8)
            .map(|i| (2 * i, vec![Point::new(0.0, 0.0)]))
            .collect();
        let inst =
            FacilityInstance::euclidean(vec![Point::new(0.0, 0.0)], lengths(), batches).unwrap();
        let opt = optimal_cost(&inst, 200_000).unwrap();
        assert!((opt - 6.0).abs() < 1e-5, "opt {opt}");
    }

    #[test]
    fn far_client_connects_rather_than_opening_far_facility() {
        // Two facilities: one cheap at distance 4, one expensive at distance
        // 0. Optimal: lease cheap far one only if 2 + 4 < 6 + 0.
        let inst = FacilityInstance::euclidean_with_costs(
            vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)],
            lengths(),
            vec![vec![20.0, 60.0], vec![2.0, 6.0]],
            vec![(0, vec![Point::new(0.0, 0.0)])],
        )
        .unwrap();
        let opt = optimal_cost(&inst, 100_000).unwrap();
        assert!((opt - 6.0).abs() < 1e-5, "opt {opt}"); // lease far (2) + connect (4)
    }

    #[test]
    fn lp_bound_is_valid() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            lengths(),
            vec![(0, vec![Point::new(1.0, 0.0), Point::new(9.0, 0.0)])],
        )
        .unwrap();
        let lb = lp_lower_bound(&inst);
        let opt = optimal_cost(&inst, 100_000).unwrap();
        assert!(lb <= opt + 1e-6, "lb {lb} opt {opt}");
        assert!(lb > 0.0);
    }

    #[test]
    fn empty_instance_is_free() {
        let inst =
            FacilityInstance::euclidean(vec![Point::new(0.0, 0.0)], lengths(), vec![]).unwrap();
        assert_eq!(optimal_cost(&inst, 10).unwrap(), 0.0);
        assert_eq!(lp_lower_bound(&inst), 0.0);
    }
}
