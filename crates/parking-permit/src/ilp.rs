//! The literal ILP encoding of Figure 2.2, over interval-model candidates.
//!
//! Variables `x_{(k,t)}` per aligned lease touching a demand; one covering
//! constraint per demand day. Solved with the [`leasing_lp`] substrate to
//! cross-check the combinatorial DPs (experiment E15).

use crate::PermitInstance;
use leasing_core::interval::candidates_covering;
use leasing_core::lease::Lease;
use leasing_lp::{Cmp, IntegerProgram, LinearProgram};
use std::collections::BTreeMap;

/// The ILP of Figure 2.2 for `instance`, together with the lease each
/// variable represents.
pub fn build_ilp(instance: &PermitInstance) -> (IntegerProgram, Vec<Lease>) {
    let mut lp = LinearProgram::new();
    let mut var_of: BTreeMap<Lease, usize> = BTreeMap::new();
    let mut leases: Vec<Lease> = Vec::new();
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();

    for &t in &instance.demands {
        let mut row = Vec::new();
        for cand in candidates_covering(&instance.structure, t) {
            let var = *var_of.entry(cand).or_insert_with(|| {
                leases.push(cand);
                lp.add_bounded_var(cand.cost(&instance.structure), 1.0)
            });
            row.push((var, 1.0));
        }
        rows.push(row);
    }
    for row in rows {
        lp.add_constraint(row, Cmp::Ge, 1.0);
    }
    (IntegerProgram::all_integer(lp), leases)
}

/// Optimal interval-model cost of `instance` via branch-and-bound on the
/// Figure 2.2 ILP.
///
/// # Panics
///
/// Panics if the node budget (1e6) is exhausted — does not happen on the
/// instance sizes used in tests and experiments.
pub fn optimal_cost_ilp(instance: &PermitInstance) -> f64 {
    let (ip, _) = build_ilp(instance);
    if instance.demands.is_empty() {
        return 0.0;
    }
    ip.solve(1_000_000).expect_optimal().objective
}

/// Objective value of the LP relaxation of the Figure 2.2 ILP — a lower
/// bound on the interval-model optimum.
pub fn lp_lower_bound(instance: &PermitInstance) -> f64 {
    let (ip, _) = build_ilp(instance);
    if instance.demands.is_empty() {
        return 0.0;
    }
    ip.relaxation_bound().expect("covering LP is feasible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline;
    use leasing_core::lease::{LeaseStructure, LeaseType};
    use leasing_core::rng::seeded;
    use rand::RngExt;

    fn nested() -> LeaseStructure {
        LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(4, 3.0),
            LeaseType::new(16, 8.0),
        ])
        .unwrap()
    }

    #[test]
    fn ilp_matches_hierarchical_dp_on_random_instances() {
        let s = nested();
        let mut rng = seeded(31);
        for trial in 0..15 {
            let demands: Vec<u64> = (0..32).filter(|_| rng.random::<f64>() < 0.3).collect();
            let inst = PermitInstance::new(s.clone(), demands.clone());
            let dp = offline::optimal_cost_interval_model(&s, &inst.demands);
            let ilp = optimal_cost_ilp(&inst);
            assert!(
                (dp - ilp).abs() < 1e-5,
                "trial {trial}: dp {dp} vs ilp {ilp} (demands {demands:?})"
            );
        }
    }

    #[test]
    fn lp_relaxation_lower_bounds_the_dp() {
        let s = nested();
        let inst = PermitInstance::new(s.clone(), (0..16).collect());
        let lb = lp_lower_bound(&inst);
        let dp = offline::optimal_cost_interval_model(&s, &inst.demands);
        assert!(lb <= dp + 1e-6, "lb {lb} dp {dp}");
        assert!(lb > 0.0);
    }

    #[test]
    fn empty_instance_is_free() {
        let inst = PermitInstance::new(nested(), vec![]);
        assert_eq!(optimal_cost_ilp(&inst), 0.0);
        assert_eq!(lp_lower_bound(&inst), 0.0);
    }

    #[test]
    fn ilp_variables_cover_each_demand_k_times() {
        let inst = PermitInstance::new(nested(), vec![0, 5]);
        let (ip, leases) = build_ilp(&inst);
        // 2 demands x 3 types, minus shared candidates: day 0 and day 5 share
        // the type-2 lease at 0 -> 5 distinct variables.
        assert_eq!(leases.len(), 5);
        assert_eq!(ip.relaxation().num_constraints(), 2);
    }
}
