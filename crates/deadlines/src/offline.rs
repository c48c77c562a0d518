//! Offline optima for Chapter 5: the Figure 5.2 (OLD) and Figure 5.4 (SCLD)
//! ILPs, solved with the [`leasing_lp`] substrate.

use crate::old::OldInstance;
use crate::scld::ScldInstance;
use leasing_core::framework::Triple;
use leasing_core::interval::candidates_intersecting;
use leasing_core::lease::Lease;
use leasing_lp::{Cmp, IntegerProgram, LinearProgram};
use std::collections::BTreeMap;

/// Builds the Figure 5.2 ILP for an OLD instance: a binary variable per
/// candidate lease, and per client one row `Σ_{leases touching its window}
/// x ≥ 1`.
pub fn build_old_ilp(instance: &OldInstance) -> (IntegerProgram, Vec<Lease>) {
    let mut lp = LinearProgram::new();
    let mut var_of: BTreeMap<Lease, usize> = BTreeMap::new();
    let mut leases = Vec::new();
    let mut rows = Vec::new();
    for client in &instance.clients {
        let mut row = Vec::new();
        for cand in candidates_intersecting(&instance.structure, client.window()) {
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

/// Exact OLD optimum; `None` if the node budget is exhausted.
pub fn old_optimal_cost(instance: &OldInstance, node_limit: usize) -> Option<f64> {
    if instance.clients.is_empty() {
        return Some(0.0);
    }
    let (ip, _) = build_old_ilp(instance);
    match ip.solve(node_limit) {
        leasing_lp::IlpOutcome::Optimal(sol) => Some(sol.objective),
        _ => None,
    }
}

/// LP-relaxation lower bound on the OLD optimum.
pub fn old_lp_lower_bound(instance: &OldInstance) -> f64 {
    if instance.clients.is_empty() {
        return 0.0;
    }
    let (ip, _) = build_old_ilp(instance);
    ip.relaxation_bound()
        .expect("covering relaxation is feasible")
}

/// Builds the Figure 5.4 ILP for an SCLD instance: a binary variable per
/// candidate triple and one covering row per arrival.
pub fn build_scld_ilp(instance: &ScldInstance) -> (IntegerProgram, Vec<Triple>) {
    let mut lp = LinearProgram::new();
    let mut var_of: BTreeMap<Triple, usize> = BTreeMap::new();
    let mut triples = Vec::new();
    let mut rows = Vec::new();
    for a in &instance.arrivals {
        let mut row = Vec::new();
        for cand in instance.candidates(a) {
            let var = *var_of.entry(cand).or_insert_with(|| {
                triples.push(cand);
                lp.add_bounded_var(instance.cost(cand.element, cand.type_index), 1.0)
            });
            row.push((var, 1.0));
        }
        rows.push(row);
    }
    for row in rows {
        lp.add_constraint(row, Cmp::Ge, 1.0);
    }
    (IntegerProgram::all_integer(lp), triples)
}

/// Exact SCLD optimum; `None` if the node budget is exhausted.
pub fn scld_optimal_cost(instance: &ScldInstance, node_limit: usize) -> Option<f64> {
    if instance.arrivals.is_empty() {
        return Some(0.0);
    }
    let (ip, _) = build_scld_ilp(instance);
    match ip.solve(node_limit) {
        leasing_lp::IlpOutcome::Optimal(sol) => Some(sol.objective),
        _ => None,
    }
}

/// LP-relaxation lower bound on the SCLD optimum.
pub fn scld_lp_lower_bound(instance: &ScldInstance) -> f64 {
    if instance.arrivals.is_empty() {
        return 0.0;
    }
    let (ip, _) = build_scld_ilp(instance);
    ip.relaxation_bound()
        .expect("covering relaxation is feasible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::old::OldClient;
    use crate::scld::ScldArrival;
    use leasing_core::lease::{LeaseStructure, LeaseType};
    use set_cover_leasing::system::SetSystem;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    #[test]
    fn flexible_windows_share_one_lease() {
        // Two clients whose windows overlap on day 4: one short lease at an
        // aligned position inside both windows suffices.
        let inst = OldInstance::new(
            structure(),
            vec![OldClient::new(0, 4), OldClient::new(4, 4)],
        )
        .unwrap();
        let opt = old_optimal_cost(&inst, 100_000).unwrap();
        assert!((opt - 1.0).abs() < 1e-6, "opt {opt}");
    }

    #[test]
    fn rigid_demands_cost_more_than_flexible_ones() {
        let rigid = OldInstance::new(
            structure(),
            vec![OldClient::new(0, 0), OldClient::new(7, 0)],
        )
        .unwrap();
        let flexible = OldInstance::new(
            structure(),
            vec![OldClient::new(0, 7), OldClient::new(7, 7)],
        )
        .unwrap();
        let r = old_optimal_cost(&rigid, 100_000).unwrap();
        let f = old_optimal_cost(&flexible, 100_000).unwrap();
        assert!(f <= r + 1e-9, "flexible {f} must not exceed rigid {r}");
        assert!((r - 2.0).abs() < 1e-6);
        assert!((f - 1.0).abs() < 1e-6);
    }

    #[test]
    fn old_lp_bound_is_valid() {
        let inst = OldInstance::new(
            structure(),
            vec![
                OldClient::new(0, 2),
                OldClient::new(5, 1),
                OldClient::new(9, 4),
            ],
        )
        .unwrap();
        let lb = old_lp_lower_bound(&inst);
        let opt = old_optimal_cost(&inst, 100_000).unwrap();
        assert!(lb <= opt + 1e-6);
        assert!(lb > 0.0);
    }

    #[test]
    fn scld_optimum_uses_deadline_flexibility() {
        let system = SetSystem::new(2, vec![vec![0], vec![1]]).unwrap();
        // Element 0 at t=0 with slack 4 and element 1 at t=4 rigid: set 0 and
        // set 1 are different sets, so two leases are needed; but element 0
        // can wait so its lease may sit anywhere in [0,4].
        let inst = ScldInstance::uniform(
            system,
            structure(),
            vec![ScldArrival::new(0, 0, 4), ScldArrival::new(4, 1, 0)],
        )
        .unwrap();
        let opt = scld_optimal_cost(&inst, 100_000).unwrap();
        assert!((opt - 2.0).abs() < 1e-6, "opt {opt}");
    }

    #[test]
    fn scld_lp_bound_is_valid() {
        let system = SetSystem::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
        let inst = ScldInstance::uniform(
            system,
            structure(),
            vec![
                ScldArrival::new(0, 0, 2),
                ScldArrival::new(1, 1, 0),
                ScldArrival::new(6, 2, 5),
            ],
        )
        .unwrap();
        let lb = scld_lp_lower_bound(&inst);
        let opt = scld_optimal_cost(&inst, 100_000).unwrap();
        assert!(lb <= opt + 1e-6, "lb {lb} opt {opt}");
        assert!(lb > 0.0);
    }

    #[test]
    fn empty_instances_are_free() {
        let old = OldInstance::new(structure(), vec![]).unwrap();
        assert_eq!(old_optimal_cost(&old, 10).unwrap(), 0.0);
        assert_eq!(old_lp_lower_bound(&old), 0.0);
        let system = SetSystem::new(1, vec![vec![0]]).unwrap();
        let scld = ScldInstance::uniform(system, structure(), vec![]).unwrap();
        assert_eq!(scld_optimal_cost(&scld, 10).unwrap(), 0.0);
        assert_eq!(scld_lp_lower_bound(&scld), 0.0);
    }
}
