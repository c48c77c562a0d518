//! Offline primal-dual facility leasing — the §4.1 baseline.
//!
//! The thesis cites Nagarajan–Williamson \[9\] for improving Anthony–Gupta's
//! `O(K)`-approximation to a **3-approximation** in the offline setting.
//! This module reconstructs that baseline as a Jain–Vazirani-style
//! primal-dual algorithm \[38\] run globally over the time-expanded instance
//! (the `x_{ikt}` / `α_{jt}` LP of Figure 4.1):
//!
//! 1. **Dual growth** — all demand duals `α_{(j,t)}` grow simultaneously; a
//!    demand bids `(α − d_ij)⁺` towards every candidate triple `(i, k, t')`
//!    whose window covers its arrival time. A triple becomes *temporarily
//!    open* when its bids reach its lease price; a demand freezes as soon as
//!    its dual reaches the connection distance of an open triple.
//! 2. **Conflict resolution** — temporarily open triples are scanned in
//!    opening order; a triple joins the solution unless a demand positively
//!    contributes to both it and an earlier-opened member (the maximal
//!    independent set of \[38\]).
//! 3. **Assignment** — each demand connects to the nearest opened triple
//!    covering its arrival time; if none covers it (possible when its
//!    witness lost the conflict resolution to a triple of a *different*
//!    time window — a leasing-specific case classical facility location
//!    does not have), its witness is re-opened to restore feasibility.
//!
//! The dual solution built in step 1 is feasible for the Figure 4.1 dual
//! **throughout**, so `Σ α` is a certified per-instance lower bound on the
//! optimum (weak duality, Theorem 2.3) and
//! [`certified_factor`](PrimalDualSolution::certified_factor) a certified
//! approximation factor. The Jain–Vazirani argument bounds the factor by 3
//! whenever no witness re-opening occurs; experiment E29 measures both the
//! factor and the re-opening frequency.

use crate::instance::FacilityInstance;
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_core::time::TimeStep;
use std::collections::BTreeMap;

/// Numeric tolerance of the event-driven dual growth.
const EPS: f64 = 1e-9;

/// One flattened demand `(j, t)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Demand {
    client: usize,
    time: TimeStep,
}

/// The output of [`solve`]: opened lease triples, per-demand assignment and
/// the dual certificate.
#[derive(Clone, Debug)]
pub struct PrimalDualSolution {
    /// Lease triples bought (conflict-resolution winners plus any re-opened
    /// witnesses).
    pub opened: Vec<Triple>,
    /// For every client (global id, in arrival order): the triple serving
    /// it.
    pub assignment: Vec<(usize, Triple)>,
    /// Total lease cost of [`opened`](Self::opened).
    pub facility_cost: f64,
    /// Total connection cost of [`assignment`](Self::assignment).
    pub connection_cost: f64,
    /// `Σ α` of the feasible dual built during growth — a certified lower
    /// bound on the offline optimum.
    pub dual_sum: f64,
    /// Number of witness triples re-opened in step 3 to restore coverage
    /// (zero on classical-facility-location-like instances; the JV factor-3
    /// argument applies exactly when this is zero).
    pub witness_reopenings: usize,
}

impl PrimalDualSolution {
    /// Total cost (lease + connection).
    pub fn total_cost(&self) -> f64 {
        self.facility_cost + self.connection_cost
    }

    /// `total / Σα` — a per-instance certified approximation factor (the
    /// true factor w.r.t. the optimum is at most this, by weak duality).
    /// Returns 1.0 for empty instances.
    pub fn certified_factor(&self) -> f64 {
        if self.dual_sum <= 0.0 {
            return 1.0;
        }
        self.total_cost() / self.dual_sum
    }
}

/// Runs the offline primal-dual algorithm on `instance`.
///
/// Candidate triples are the aligned leases of the interval model — the same
/// universe as the Figure 4.1 ILP in [`crate::offline`], so costs compare
/// directly against [`crate::offline::optimal_cost`].
pub fn solve(instance: &FacilityInstance) -> PrimalDualSolution {
    let demands: Vec<Demand> = instance
        .batches()
        .iter()
        .flat_map(|b| {
            b.clients.iter().map(|&j| Demand {
                client: j,
                time: b.time,
            })
        })
        .collect();
    if demands.is_empty() {
        return PrimalDualSolution {
            opened: Vec::new(),
            assignment: Vec::new(),
            facility_cost: 0.0,
            connection_cost: 0.0,
            dual_sum: 0.0,
            witness_reopenings: 0,
        };
    }

    // Candidate triples (aligned, deduplicated) and their covered demands.
    let structure = instance.structure();
    let mut index_of: BTreeMap<Triple, usize> = BTreeMap::new();
    let mut triples: Vec<Triple> = Vec::new();
    let mut covered: Vec<Vec<usize>> = Vec::new();
    for (d_idx, d) in demands.iter().enumerate() {
        for k in 0..structure.num_types() {
            let start = aligned_start(d.time, structure.length(k));
            for i in 0..instance.num_facilities() {
                let tr = Triple::new(i, k, start);
                let slot = *index_of.entry(tr).or_insert_with(|| {
                    triples.push(tr);
                    covered.push(Vec::new());
                    triples.len() - 1
                });
                covered[slot].push(d_idx);
            }
        }
    }
    let price = |t: &Triple| instance.cost(t.element, t.type_index);
    let dist = |t: &Triple, d: &Demand| instance.distance(t.element, d.client);

    // ---- Phase 1: simultaneous dual growth. -------------------------------
    let n = demands.len();
    let mut alpha = vec![0.0f64; n];
    let mut frozen = vec![false; n];
    let mut witness: Vec<usize> = vec![usize::MAX; n];
    let mut open = vec![false; triples.len()];
    let mut opening_order: Vec<usize> = Vec::new();
    let mut theta = 0.0f64;
    let mut num_frozen = 0usize;

    while num_frozen < n {
        // Next tightness event per still-closed triple with growth potential.
        let mut next_event = f64::INFINITY;
        for (ti, tr) in triples.iter().enumerate() {
            if open[ti] {
                continue;
            }
            let fixed: f64 = covered[ti]
                .iter()
                .filter(|&&d| frozen[d])
                .map(|&d| (alpha[d] - dist(tr, &demands[d])).max(0.0))
                .sum();
            let mut unfrozen_d: Vec<f64> = covered[ti]
                .iter()
                .filter(|&&d| !frozen[d])
                .map(|&d| dist(tr, &demands[d]))
                .collect();
            if unfrozen_d.is_empty() {
                continue; // bids can no longer grow
            }
            unfrozen_d.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            // Sweep the piecewise-linear paid(θ) = fixed + Σ (θ - d)⁺.
            let c = price(tr);
            let mut active = 0usize;
            let mut active_d_sum = 0.0f64;
            let mut tight_at = f64::INFINITY;
            for (idx, &dv) in unfrozen_d.iter().enumerate() {
                // Slope becomes idx+1 at θ >= dv; candidate segment
                // [max(theta, dv), next breakpoint).
                active += 1;
                active_d_sum += dv;
                let seg_start = dv.max(theta);
                let seg_end = unfrozen_d.get(idx + 1).copied().unwrap_or(f64::INFINITY);
                // paid(θ) = fixed + active·θ - active_d_sum on [seg_start, seg_end)
                let needed = (c - fixed + active_d_sum) / active as f64;
                if needed + EPS >= seg_start && needed <= seg_end + EPS {
                    tight_at = needed.max(seg_start);
                    break;
                }
            }
            next_event = next_event.min(tight_at.max(theta));
        }

        // Next freeze-by-reaching-an-open-triple event.
        for (d_idx, d) in demands.iter().enumerate() {
            if frozen[d_idx] {
                continue;
            }
            for &ti in opening_order.iter() {
                if covered[ti].contains(&d_idx) {
                    let dv = dist(&triples[ti], d);
                    if dv >= theta - EPS {
                        next_event = next_event.min(dv.max(theta));
                    }
                }
            }
        }

        assert!(
            next_event.is_finite(),
            "dual growth stalled: some demand has no candidate triple"
        );
        theta = next_event;

        // Open every triple that is tight at θ, freezing its in-range
        // unfrozen demands at α = θ.
        for (ti, tr) in triples.iter().enumerate() {
            if open[ti] {
                continue;
            }
            let paid: f64 = covered[ti]
                .iter()
                .map(|&d| {
                    let a = if frozen[d] { alpha[d] } else { theta };
                    (a - dist(tr, &demands[d])).max(0.0)
                })
                .sum();
            if paid + EPS >= price(tr) {
                open[ti] = true;
                opening_order.push(ti);
                for &d in &covered[ti] {
                    if !frozen[d] && dist(tr, &demands[d]) <= theta + EPS {
                        frozen[d] = true;
                        alpha[d] = theta;
                        witness[d] = ti;
                        num_frozen += 1;
                    }
                }
            }
        }

        // Freeze demands that reached an already-open triple at θ.
        for (d_idx, d) in demands.iter().enumerate() {
            if frozen[d_idx] {
                continue;
            }
            for &ti in opening_order.iter() {
                if covered[ti].contains(&d_idx) && dist(&triples[ti], d) <= theta + EPS {
                    frozen[d_idx] = true;
                    alpha[d_idx] = theta;
                    witness[d_idx] = ti;
                    num_frozen += 1;
                    break;
                }
            }
        }
    }

    debug_assert!(dual_is_feasible(
        instance, &demands, &triples, &covered, &alpha
    ));

    // ---- Phase 2: conflict resolution in opening order. --------------------
    let contrib =
        |d: usize, ti: usize| -> f64 { (alpha[d] - dist(&triples[ti], &demands[d])).max(0.0) };
    let mut chosen: Vec<usize> = Vec::new();
    for &ti in &opening_order {
        let conflicts = chosen.iter().any(|&si| {
            covered[ti]
                .iter()
                .any(|&d| contrib(d, ti) > EPS && covered[si].contains(&d) && contrib(d, si) > EPS)
        });
        if !conflicts {
            chosen.push(ti);
        }
    }

    // ---- Phase 3: assignment with witness re-opening fallback. -------------
    let mut opened_idx: Vec<usize> = chosen.clone();
    let mut witness_reopenings = 0usize;
    for (d_idx, &w) in witness.iter().enumerate() {
        let covered_by_open = opened_idx.iter().any(|&ti| covered[ti].contains(&d_idx));
        if !covered_by_open {
            debug_assert!(w != usize::MAX, "every demand froze on a witness");
            if !opened_idx.contains(&w) {
                opened_idx.push(w);
                witness_reopenings += 1;
            }
        }
    }
    let mut assignment: Vec<(usize, Triple)> = Vec::with_capacity(n);
    let mut connection_cost = 0.0;
    for (d_idx, d) in demands.iter().enumerate() {
        let best = opened_idx
            .iter()
            .filter(|&&ti| covered[ti].contains(&d_idx))
            .min_by(|&&a, &&b| {
                dist(&triples[a], d)
                    .partial_cmp(&dist(&triples[b], d))
                    .expect("finite distances")
            })
            .copied()
            .expect("witness re-opening guarantees coverage");
        connection_cost += dist(&triples[best], d);
        assignment.push((d.client, triples[best]));
    }
    let facility_cost: f64 = opened_idx.iter().map(|&ti| price(&triples[ti])).sum();

    PrimalDualSolution {
        opened: opened_idx.iter().map(|&ti| triples[ti]).collect(),
        assignment,
        facility_cost,
        connection_cost,
        dual_sum: alpha.iter().sum(),
        witness_reopenings,
    }
}

/// Checks the Figure 4.1 dual feasibility of the grown duals: for every
/// candidate triple, the bids `Σ (α − d)⁺` of covered demands stay below its
/// price (up to tolerance).
fn dual_is_feasible(
    instance: &FacilityInstance,
    demands: &[Demand],
    triples: &[Triple],
    covered: &[Vec<usize>],
    alpha: &[f64],
) -> bool {
    triples.iter().enumerate().all(|(ti, tr)| {
        let paid: f64 = covered[ti]
            .iter()
            .map(|&d| (alpha[d] - instance.distance(tr.element, demands[d].client)).max(0.0))
            .sum();
        paid <= instance.cost(tr.element, tr.type_index) + 1e-6
    })
}

/// Validates a [`PrimalDualSolution`] against its instance: every client is
/// assigned to an opened triple whose window covers the client's arrival
/// time, and the reported costs match the assignment.
pub fn is_feasible(instance: &FacilityInstance, sol: &PrimalDualSolution) -> bool {
    let mut times: BTreeMap<usize, TimeStep> = BTreeMap::new();
    for b in instance.batches() {
        for &j in &b.clients {
            times.insert(j, b.time);
        }
    }
    if sol.assignment.len() != instance.num_clients() {
        return false;
    }
    sol.assignment
        .iter()
        .all(|(j, tr)| sol.opened.contains(tr) && tr.covers(instance.structure(), times[j]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Point;
    use crate::offline;
    use leasing_core::lease::{LeaseStructure, LeaseType};
    use proptest::prelude::*;

    fn lengths() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap()
    }

    #[test]
    fn empty_instance_is_free() {
        let inst =
            FacilityInstance::euclidean(vec![Point::new(0.0, 0.0)], lengths(), vec![]).unwrap();
        let sol = solve(&inst);
        assert_eq!(sol.total_cost(), 0.0);
        assert_eq!(sol.certified_factor(), 1.0);
        assert!(is_feasible(&inst, &sol));
    }

    #[test]
    fn single_client_opens_one_cheap_lease() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![(0, vec![Point::new(3.0, 0.0)])],
        )
        .unwrap();
        let sol = solve(&inst);
        assert!(is_feasible(&inst, &sol));
        // Opt = cheap lease (2) + distance (3) = 5; primal-dual matches here.
        assert!(
            (sol.total_cost() - 5.0).abs() < 1e-6,
            "cost {}",
            sol.total_cost()
        );
        assert_eq!(sol.witness_reopenings, 0);
    }

    #[test]
    fn colocated_clients_share_one_lease() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![(
                0,
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(0.0, 0.0),
                    Point::new(0.0, 0.0),
                ],
            )],
        )
        .unwrap();
        let sol = solve(&inst);
        assert!(is_feasible(&inst, &sol));
        assert!(
            (sol.total_cost() - 2.0).abs() < 1e-6,
            "one cheap lease suffices"
        );
    }

    #[test]
    fn repeating_client_prefers_the_long_lease() {
        // Same site every 2 steps for 16 steps: long lease (6) beats 4x short (8).
        let batches: Vec<(u64, Vec<Point>)> = (0..8)
            .map(|i| (2 * i, vec![Point::new(0.0, 0.0)]))
            .collect();
        let inst =
            FacilityInstance::euclidean(vec![Point::new(0.0, 0.0)], lengths(), batches).unwrap();
        let sol = solve(&inst);
        assert!(is_feasible(&inst, &sol));
        let opt = offline::optimal_cost(&inst, 200_000).unwrap();
        assert!(
            sol.total_cost() <= 3.0 * opt + 1e-6,
            "{} vs 3x{}",
            sol.total_cost(),
            opt
        );
    }

    #[test]
    fn dual_sum_lower_bounds_the_lp_optimum() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(1.0, 0.0), Point::new(7.0, 0.0)]),
                (5, vec![Point::new(4.0, 0.0)]),
            ],
        )
        .unwrap();
        let sol = solve(&inst);
        let lp = offline::lp_lower_bound(&inst);
        assert!(
            sol.dual_sum <= lp + 1e-6,
            "dual {} vs LP {lp}",
            sol.dual_sum
        );
        assert!(sol.dual_sum > 0.0);
    }

    #[test]
    fn certified_factor_upper_bounds_true_factor() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(2.0, 0.0)]),
                (2, vec![Point::new(5.0, 0.0), Point::new(6.0, 0.0)]),
            ],
        )
        .unwrap();
        let sol = solve(&inst);
        let opt = offline::optimal_cost(&inst, 200_000).unwrap();
        let true_factor = sol.total_cost() / opt;
        assert!(
            true_factor <= sol.certified_factor() + 1e-9,
            "certified {} < true {true_factor}",
            sol.certified_factor()
        );
    }

    #[test]
    fn far_apart_clients_open_separate_facilities() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
            lengths(),
            vec![(0, vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)])],
        )
        .unwrap();
        let sol = solve(&inst);
        assert!(is_feasible(&inst, &sol));
        assert_eq!(
            sol.opened.len(),
            2,
            "no single facility can serve both cheaply"
        );
        assert!(sol.connection_cost < 1e-9);
    }

    #[test]
    fn assignment_costs_match_reported_totals() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(1.0, 0.0)]),
                (3, vec![Point::new(4.0, 0.0)]),
            ],
        )
        .unwrap();
        let sol = solve(&inst);
        let recomputed: f64 = sol
            .assignment
            .iter()
            .map(|(j, tr)| inst.distance(tr.element, *j))
            .sum();
        assert!((recomputed - sol.connection_cost).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random Euclidean instances: feasibility, weak duality against the
        /// LP bound, and the empirical factor-3 envelope of experiment E29.
        #[test]
        fn random_instances_feasible_and_certified(
            sites in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0), 2..4),
            clients in proptest::collection::vec((0u64..12, 0.0f64..20.0, 0.0f64..20.0), 1..6),
        ) {
            let facilities: Vec<Point> = sites.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut by_time: std::collections::BTreeMap<u64, Vec<Point>> = Default::default();
            for &(t, x, y) in &clients {
                by_time.entry(t).or_default().push(Point::new(x, y));
            }
            let batches: Vec<(u64, Vec<Point>)> = by_time.into_iter().collect();
            let inst = FacilityInstance::euclidean(facilities, lengths(), batches).unwrap();
            let sol = solve(&inst);
            prop_assert!(is_feasible(&inst, &sol));
            let lp = offline::lp_lower_bound(&inst);
            prop_assert!(sol.dual_sum <= lp + 1e-6, "dual {} > LP {}", sol.dual_sum, lp);
            if let Some(opt) = offline::optimal_cost(&inst, 50_000) {
                prop_assert!(
                    sol.total_cost() <= 3.0 * opt + 1e-6,
                    "cost {} exceeds 3x opt {}",
                    sol.total_cost(),
                    opt
                );
            }
        }
    }
}
