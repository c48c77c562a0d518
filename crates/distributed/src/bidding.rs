//! Distributed phase 1 of the facility-leasing algorithm: dual-ascent
//! bidding as a LOCAL-model protocol (§4.5 outlook).
//!
//! Phase 1 of the Chapter 4 algorithm grows client potentials `α` that bid
//! `(α − d_ij)⁺` towards candidate facilities; a facility opens temporarily
//! when the bids reach its lease price (invariant INV1), and a client
//! freezes when its potential covers the distance to an open facility.
//! Centrally this is an exact event simulation; in a network of client and
//! facility nodes (the sensor-network setting the outlook cites [34, 48])
//! the continuous growth must be discretized.
//!
//! This module implements the standard discretization: potentials grow
//! **geometrically** by a factor `1 + ε` per ping-pong round (clients send
//! bids, facilities answer with open declarations). The discretization
//! weakens the continuous invariants in a controlled way:
//!
//! * INV1 overshoots additively: a facility opens with
//!   `Σ bids ≤ price + ε · Σ_{bidders} α` (the final growth step adds at
//!   most `ε·α_j` per bidder). The *measured* factor is reported as
//!   [`BiddingOutcome::invariant_violation`], and `α / violation` is
//!   always a feasible dual, so
//!   [`BiddingOutcome::certified_lower_bound`] stays valid;
//! * a client that freezes on an already-open facility does so at exactly
//!   its connection distance (the growth cap), so direct connections pay
//!   no discretization penalty at all.
//!
//! The round count is `O(log_{1+ε}(range))` ping-pongs, where `range` is
//! the ratio of the largest to the smallest relevant scale — the classic
//! accuracy/rounds trade-off, measured in experiment E20.
//!
//! Composing this protocol with the distributed Luby phase 2
//! ([`crate::conflict`]) gives the fully distributed per-step
//! facility-leasing pipeline [`distributed_step`].

use crate::conflict::{resolve_conflicts, ConflictInstance, MisStrategy};
use crate::net::{run, Envelope, Protocol, RunStats};
use leasing_graph::graph::Graph;
use std::collections::BTreeMap;

/// Numeric slack used when comparing bids against prices.
const EPS: f64 = 1e-9;

/// Why a [`BiddingInstance`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum BiddingError {
    /// Facility prices must be positive and finite; the index is the
    /// offending facility.
    BadPrice(usize),
    /// The distance table must be `num_facilities x num_clients` with
    /// non-negative finite entries.
    BadDistance(usize, usize),
    /// At least one facility and one client are required.
    Empty,
}

impl std::fmt::Display for BiddingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BiddingError::BadPrice(i) => write!(f, "facility {i} has an invalid price"),
            BiddingError::BadDistance(i, j) => {
                write!(f, "distance ({i}, {j}) is missing or invalid")
            }
            BiddingError::Empty => write!(f, "bidding needs at least one facility and client"),
        }
    }
}

impl std::error::Error for BiddingError {}

/// A single-time-step bidding instance: candidate facilities (one per
/// `(i, k)` lease pair in the thesis' per-step subproblem) with lease
/// prices, and the facility-client distance table.
#[derive(Clone, Debug, PartialEq)]
pub struct BiddingInstance {
    prices: Vec<f64>,
    /// `distances[i][j]`.
    distances: Vec<Vec<f64>>,
}

impl BiddingInstance {
    /// Validates and builds an instance.
    ///
    /// # Errors
    ///
    /// Returns a [`BiddingError`] on empty inputs, non-positive prices or
    /// malformed distance rows.
    pub fn new(prices: Vec<f64>, distances: Vec<Vec<f64>>) -> Result<Self, BiddingError> {
        if prices.is_empty() || distances.first().is_none_or(|r| r.is_empty()) {
            return Err(BiddingError::Empty);
        }
        for (i, &p) in prices.iter().enumerate() {
            if !p.is_finite() || p <= 0.0 {
                return Err(BiddingError::BadPrice(i));
            }
        }
        let num_clients = distances[0].len();
        if distances.len() != prices.len() {
            return Err(BiddingError::BadDistance(distances.len(), 0));
        }
        for (i, row) in distances.iter().enumerate() {
            if row.len() != num_clients {
                return Err(BiddingError::BadDistance(i, row.len()));
            }
            for (j, &d) in row.iter().enumerate() {
                if !d.is_finite() || d < 0.0 {
                    return Err(BiddingError::BadDistance(i, j));
                }
            }
        }
        Ok(BiddingInstance { prices, distances })
    }

    /// Number of candidate facilities.
    pub fn num_facilities(&self) -> usize {
        self.prices.len()
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.distances[0].len()
    }

    /// Lease price of facility `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn price(&self, i: usize) -> f64 {
        self.prices[i]
    }

    /// Distance from facility `i` to client `j`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.distances[i][j]
    }

    /// The bipartite communication graph: facility nodes `0..F`, client
    /// nodes `F..F+C`, one edge per (facility, client) pair. Edge weights
    /// are `distance + 1` — the protocol reads true distances from the
    /// instance; the graph only provides topology (and the substrate
    /// requires positive weights).
    pub fn communication_graph(&self) -> Graph {
        let f = self.num_facilities();
        let c = self.num_clients();
        let mut edges = Vec::with_capacity(f * c);
        for i in 0..f {
            for j in 0..c {
                edges.push((i, f + j, self.distances[i][j] + 1.0));
            }
        }
        Graph::new(f + c, edges).expect("bipartite edges are valid")
    }
}

/// Messages of the bidding protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum BidMessage {
    /// Client → facility: the client's current bid `(α − d)⁺`.
    Bid(f64),
    /// Facility → client: the facility is (temporarily) open.
    Open,
    /// Client → facility: the client froze; its bid is final.
    Frozen,
}

/// The result of a distributed phase-1 run.
#[derive(Clone, Debug, PartialEq)]
pub struct BiddingOutcome {
    /// Final client potentials `α̂`.
    pub alpha: Vec<f64>,
    /// Which facilities opened temporarily.
    pub open: Vec<bool>,
    /// For every client: the open facility it froze on.
    pub connected_to: Vec<usize>,
    /// For every client: the facilities it bids positively on (input to the
    /// phase-2 conflict graph).
    pub positive_bids: Vec<Vec<usize>>,
    /// Largest `Σ bids / price` over open facilities — the measured INV1
    /// violation factor. Bounded by `1 + ε · Σ_{bidders} α / price`
    /// (additive overshoot of the final growth step).
    pub invariant_violation: f64,
    /// LOCAL-model accounting.
    pub stats: RunStats,
    /// The growth parameter used.
    pub epsilon: f64,
}

impl BiddingOutcome {
    /// `Σα / invariant_violation` — a certified lower bound on the optimum
    /// of the (single-step) facility location LP, by weak duality.
    pub fn certified_lower_bound(&self) -> f64 {
        if self.alpha.is_empty() {
            return 0.0;
        }
        self.alpha.iter().sum::<f64>() / self.invariant_violation.max(1.0)
    }
}

/// Internal node state of [`BiddingProtocol`].
#[derive(Clone, Debug)]
enum NodeState {
    Facility {
        price: f64,
        bids: BTreeMap<usize, f64>,
        open: bool,
        announced: bool,
        frozen_neighbors: usize,
    },
    Client {
        alpha: f64,
        frozen: bool,
        sent_frozen: bool,
        /// Facility node ids known to be open, with their distances.
        open_neighbors: Vec<(usize, f64)>,
        connected_to: Option<usize>,
    },
}

/// The LOCAL-model protocol: facilities are nodes `0..F`, clients
/// `F..F+C`; rounds alternate client bids and facility open declarations.
#[derive(Debug)]
pub struct BiddingProtocol<'a> {
    instance: &'a BiddingInstance,
    states: Vec<NodeState>,
    alpha0: f64,
    epsilon: f64,
}

impl<'a> BiddingProtocol<'a> {
    /// Creates the protocol with growth factor `1 + epsilon`.
    ///
    /// # Panics
    ///
    /// Panics unless `epsilon > 0`.
    pub fn new(instance: &'a BiddingInstance, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "epsilon must be positive"
        );
        let f = instance.num_facilities();
        let c = instance.num_clients();
        // Starting potential: small enough that the total starting bid mass
        // stays below ε times the cheapest price.
        let p_min = (0..f)
            .map(|i| instance.price(i))
            .fold(f64::INFINITY, f64::min);
        let alpha0 = (epsilon * p_min / c as f64).min(p_min);
        let mut states = Vec::with_capacity(f + c);
        for i in 0..f {
            states.push(NodeState::Facility {
                price: instance.price(i),
                bids: BTreeMap::new(),
                open: false,
                announced: false,
                frozen_neighbors: 0,
            });
        }
        for _ in 0..c {
            states.push(NodeState::Client {
                alpha: 0.0,
                frozen: false,
                sent_frozen: false,
                open_neighbors: Vec::new(),
                connected_to: None,
            });
        }
        BiddingProtocol {
            instance,
            states,
            alpha0,
            epsilon,
        }
    }

    fn num_facilities(&self) -> usize {
        self.instance.num_facilities()
    }

    /// Extracts the outcome after the run completed.
    fn outcome(&self, stats: RunStats) -> BiddingOutcome {
        let f = self.num_facilities();
        let c = self.instance.num_clients();
        let mut alpha = Vec::with_capacity(c);
        let mut connected_to = Vec::with_capacity(c);
        let mut positive_bids = vec![Vec::new(); c];
        let mut open = vec![false; f];
        for (i, s) in self.states.iter().enumerate().take(f) {
            if let NodeState::Facility { open: o, .. } = s {
                open[i] = *o;
            }
        }
        for (j, bids) in positive_bids.iter_mut().enumerate() {
            match &self.states[f + j] {
                NodeState::Client {
                    alpha: a,
                    connected_to: Some(t),
                    ..
                } => {
                    alpha.push(*a);
                    connected_to.push(*t);
                    for i in 0..f {
                        if *a - self.instance.distance(i, j) > EPS {
                            bids.push(i);
                        }
                    }
                }
                other => panic!("client {j} did not freeze: {other:?}"),
            }
        }
        let mut violation = 1.0f64;
        for (i, _) in open.iter().enumerate().filter(|(_, &o)| o) {
            let paid: f64 = (0..c)
                .map(|j| (alpha[j] - self.instance.distance(i, j)).max(0.0))
                .sum();
            violation = violation.max(paid / self.instance.price(i));
        }
        BiddingOutcome {
            alpha,
            open,
            connected_to,
            positive_bids,
            invariant_violation: violation,
            stats,
            epsilon: self.epsilon,
        }
    }
}

impl Protocol for BiddingProtocol<'_> {
    type Message = BidMessage;

    fn step(
        &mut self,
        node: usize,
        round: usize,
        inbox: &[Envelope<BidMessage>],
    ) -> Vec<(usize, BidMessage)> {
        let f = self.num_facilities();
        let alpha0 = self.alpha0;
        let epsilon = self.epsilon;
        match &mut self.states[node] {
            NodeState::Facility {
                price,
                bids,
                open,
                announced,
                frozen_neighbors,
            } => {
                for env in inbox {
                    match &env.payload {
                        BidMessage::Bid(b) => {
                            bids.insert(env.from, *b);
                        }
                        BidMessage::Frozen => *frozen_neighbors += 1,
                        BidMessage::Open => unreachable!("facilities never receive Open"),
                    }
                }
                if !*open && bids.values().sum::<f64>() + EPS >= *price {
                    *open = true;
                }
                if *open && !*announced {
                    *announced = true;
                    let targets: Vec<usize> =
                        (0..self.instance.num_clients()).map(|j| f + j).collect();
                    return targets.into_iter().map(|t| (t, BidMessage::Open)).collect();
                }
                Vec::new()
            }
            NodeState::Client {
                alpha,
                frozen,
                sent_frozen,
                open_neighbors,
                connected_to,
            } => {
                let j = node - f;
                for env in inbox {
                    if matches!(env.payload, BidMessage::Open) {
                        let d = self.instance.distance(env.from, j);
                        open_neighbors.push((env.from, d));
                    }
                }
                if *frozen {
                    if !*sent_frozen {
                        *sent_frozen = true;
                        return (0..f).map(|i| (i, BidMessage::Frozen)).collect();
                    }
                    return Vec::new();
                }
                // Freeze if an open facility is already within reach.
                let reachable = open_neighbors
                    .iter()
                    .filter(|&&(_, d)| d <= *alpha + EPS)
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
                if let Some(&(target, _)) = reachable {
                    *frozen = true;
                    *connected_to = Some(target);
                    return Vec::new(); // Frozen notices go out next round.
                }
                // Only grow on client rounds (odd rounds: facilities answered
                // in the previous even round).
                if round.is_multiple_of(2) {
                    // Grow geometrically, capped at the nearest known-open
                    // facility's distance (the exact freeze point).
                    let mut next = if *alpha <= 0.0 {
                        alpha0
                    } else {
                        *alpha * (1.0 + epsilon)
                    };
                    if let Some(&(target, d)) = open_neighbors
                        .iter()
                        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                    {
                        if next >= d {
                            next = d;
                            *alpha = next;
                            *frozen = true;
                            *connected_to = Some(target);
                            return Vec::new();
                        }
                    }
                    *alpha = next;
                    // Send (positive) bids.
                    let mut out = Vec::new();
                    for i in 0..f {
                        let bid = *alpha - self.instance.distance(i, j);
                        if bid > EPS {
                            out.push((i, BidMessage::Bid(bid)));
                        }
                    }
                    return out;
                }
                Vec::new()
            }
        }
    }

    fn is_done(&self, node: usize) -> bool {
        let f = self.num_facilities();
        match &self.states[node] {
            // Facilities are passive: done once every client froze (they
            // heard a Frozen from each) or they announced their opening.
            NodeState::Facility {
                frozen_neighbors, ..
            } => *frozen_neighbors == self.instance.num_clients(),
            NodeState::Client { sent_frozen, .. } => {
                let _ = f;
                *sent_frozen
            }
        }
    }
}

/// Runs the distributed phase-1 bidding on `instance` with growth factor
/// `1 + epsilon`.
///
/// # Panics
///
/// Panics if the protocol fails to terminate within its internal round
/// budget (only possible for degenerate `epsilon` values).
pub fn distributed_bidding(instance: &BiddingInstance, epsilon: f64) -> BiddingOutcome {
    let graph = instance.communication_graph();
    let mut protocol = BiddingProtocol::new(instance, epsilon);
    // Range: from α0 to the largest conceivable potential (price sum + max
    // distance); geometric growth crosses it in log_{1+ε} steps.
    let p_sum: f64 = (0..instance.num_facilities())
        .map(|i| instance.price(i))
        .sum();
    let d_max = (0..instance.num_facilities())
        .flat_map(|i| (0..instance.num_clients()).map(move |j| (i, j)))
        .map(|(i, j)| instance.distance(i, j))
        .fold(0.0f64, f64::max);
    let range = (p_sum + d_max) / protocol.alpha0;
    let growth_steps = range.ln() / (1.0 + epsilon).ln();
    let budget = 16 + 4 * growth_steps.ceil().max(1.0) as usize;
    let stats = run(&graph, &mut protocol, budget);
    assert!(
        stats.terminated,
        "bidding did not terminate within {budget} rounds"
    );
    protocol.outcome(stats)
}

/// The outcome of the fully distributed per-step pipeline
/// ([`distributed_bidding`] + Luby phase 2).
#[derive(Clone, Debug, PartialEq)]
pub struct DistributedStepOutcome {
    /// Phase-1 result.
    pub bidding: BiddingOutcome,
    /// Facilities opened permanently (a maximal independent set of the
    /// conflict graph restricted to temporarily open facilities).
    pub chosen: Vec<usize>,
    /// Per client: the permanently open facility serving it.
    pub assignment: Vec<usize>,
    /// Total cost (lease prices of chosen facilities + connections).
    pub total_cost: f64,
    /// Phase-2 LOCAL accounting.
    pub phase2_stats: Option<RunStats>,
}

/// Runs both distributed phases on a single-step instance: geometric-growth
/// bidding, then Luby's MIS on the conflict graph of temporarily open
/// facilities, then reconnection of clients whose facility lost.
///
/// # Panics
///
/// Panics if either protocol exceeds its round budget.
pub fn distributed_step(
    instance: &BiddingInstance,
    epsilon: f64,
    seed: u64,
) -> DistributedStepOutcome {
    let bidding = distributed_bidding(instance, epsilon);
    // Conflict graph over *open* facilities only, renumbered densely.
    let open_ids: Vec<usize> = (0..instance.num_facilities())
        .filter(|&i| bidding.open[i])
        .collect();
    let dense: BTreeMap<usize, usize> = open_ids.iter().enumerate().map(|(d, &i)| (i, d)).collect();
    let bids: Vec<Vec<usize>> = bidding
        .positive_bids
        .iter()
        .map(|per_client| {
            per_client
                .iter()
                .filter_map(|i| dense.get(i).copied())
                .collect()
        })
        .collect();
    let conflict = ConflictInstance::from_bids(open_ids.len(), &bids);
    let outcome = resolve_conflicts(&conflict, MisStrategy::DistributedLuby { seed });
    let chosen: Vec<usize> = outcome.open_ids().iter().map(|&d| open_ids[d]).collect();
    assert!(
        !chosen.is_empty(),
        "at least one open facility survives conflict resolution"
    );

    let mut assignment = Vec::with_capacity(instance.num_clients());
    let mut total_cost: f64 = chosen.iter().map(|&i| instance.price(i)).sum();
    for j in 0..instance.num_clients() {
        let &best = chosen
            .iter()
            .min_by(|&&a, &&b| {
                instance
                    .distance(a, j)
                    .partial_cmp(&instance.distance(b, j))
                    .expect("finite distances")
            })
            .expect("chosen is non-empty");
        total_cost += instance.distance(best, j);
        assignment.push(best);
    }
    DistributedStepOutcome {
        bidding,
        chosen,
        assignment,
        total_cost,
        phase2_stats: outcome.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn single() -> BiddingInstance {
        BiddingInstance::new(vec![4.0], vec![vec![1.0]]).unwrap()
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert_eq!(
            BiddingInstance::new(vec![], vec![]),
            Err(BiddingError::Empty)
        );
        assert_eq!(
            BiddingInstance::new(vec![0.0], vec![vec![1.0]]),
            Err(BiddingError::BadPrice(0))
        );
        assert_eq!(
            BiddingInstance::new(vec![1.0, 2.0], vec![vec![1.0]]),
            Err(BiddingError::BadDistance(1, 0))
        );
        assert_eq!(
            BiddingInstance::new(vec![1.0], vec![vec![-1.0]]),
            Err(BiddingError::BadDistance(0, 0))
        );
    }

    #[test]
    fn single_client_opens_the_only_facility() {
        let outcome = distributed_bidding(&single(), 0.05);
        assert!(outcome.open[0]);
        assert_eq!(outcome.connected_to, vec![0]);
        // α must cover price + distance: exact value is 5; geometric growth
        // overshoots by at most (1 + ε).
        assert!(outcome.alpha[0] >= 5.0 - 1e-6);
        assert!(
            outcome.alpha[0] <= 5.0 * 1.05 + 1e-6,
            "alpha {}",
            outcome.alpha[0]
        );
        assert!(outcome.stats.terminated);
    }

    #[test]
    fn invariant_overshoot_is_bounded_by_final_growth_step() {
        // Additive overshoot: for every open facility, Σ bids stays below
        // price + ε · Σ_{bidders} α (the last growth step's contribution).
        for eps in [0.01, 0.1, 0.5] {
            let inst = BiddingInstance::new(
                vec![3.0, 5.0],
                vec![vec![0.0, 2.0, 4.0], vec![4.0, 2.0, 0.0]],
            )
            .unwrap();
            let outcome = distributed_bidding(&inst, eps);
            for i in 0..inst.num_facilities() {
                if !outcome.open[i] {
                    continue;
                }
                let mut paid = 0.0;
                let mut bidder_alpha = 0.0;
                for (j, &a) in outcome.alpha.iter().enumerate() {
                    let bid = a - inst.distance(i, j);
                    if bid > 0.0 {
                        paid += bid;
                        bidder_alpha += a;
                    }
                }
                assert!(
                    paid <= inst.price(i) + eps * bidder_alpha + 1e-6,
                    "eps {eps} facility {i}: paid {paid} vs bound {}",
                    inst.price(i) + eps * bidder_alpha
                );
            }
            assert!(outcome.invariant_violation >= 1.0);
        }
    }

    #[test]
    fn shared_facility_splits_the_price() {
        // Two co-located clients on a price-4 facility: each pays ~2.
        let inst = BiddingInstance::new(vec![4.0], vec![vec![0.0, 0.0]]).unwrap();
        let outcome = distributed_bidding(&inst, 0.02);
        assert!(outcome.open[0]);
        for &a in &outcome.alpha {
            assert!(a <= 2.0 * 1.02 + 1e-6, "alpha {a} should be ~2");
            assert!(a >= 2.0 / 1.02 - 1e-6, "alpha {a} should be ~2");
        }
    }

    #[test]
    fn late_clients_freeze_at_their_distance_to_an_open_facility() {
        // Client 0 sits on the facility and opens it; client 1 at distance
        // 8 should freeze at α ≈ 8 (the cap rule), not overshoot.
        let inst = BiddingInstance::new(vec![1.0], vec![vec![0.0, 8.0]]).unwrap();
        let outcome = distributed_bidding(&inst, 0.1);
        assert!(
            (outcome.alpha[1] - 8.0).abs() < 1e-9,
            "cap freezes exactly at d"
        );
    }

    #[test]
    fn smaller_epsilon_needs_more_rounds() {
        let inst = BiddingInstance::new(
            vec![6.0, 6.0],
            vec![vec![0.0, 3.0, 5.0], vec![5.0, 3.0, 0.0]],
        )
        .unwrap();
        let fine = distributed_bidding(&inst, 0.01).stats.rounds;
        let coarse = distributed_bidding(&inst, 0.5).stats.rounds;
        assert!(fine > coarse, "rounds: fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn certified_lower_bound_is_consistent() {
        let inst =
            BiddingInstance::new(vec![3.0, 3.0], vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let outcome = distributed_bidding(&inst, 0.05);
        let lb = outcome.certified_lower_bound();
        // Serving both clients costs at least one facility price: lb must
        // not exceed the (here easily computed) optimum 3 + 1 = 4.
        assert!(lb <= 4.0 + 1e-6, "lb {lb}");
        assert!(lb > 0.0);
    }

    #[test]
    fn full_step_serves_every_client_with_a_chosen_facility() {
        let inst = BiddingInstance::new(
            vec![2.0, 2.0, 2.0],
            vec![
                vec![0.0, 1.0, 9.0, 9.0],
                vec![1.0, 0.0, 1.0, 9.0],
                vec![9.0, 9.0, 0.0, 1.0],
            ],
        )
        .unwrap();
        let step = distributed_step(&inst, 0.1, 7);
        assert_eq!(step.assignment.len(), 4);
        for (j, &i) in step.assignment.iter().enumerate() {
            assert!(
                step.chosen.contains(&i),
                "client {j} assigned to unchosen facility"
            );
        }
        assert!(step.total_cost > 0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_rejected() {
        let _ = BiddingProtocol::new(&single(), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Random metric (line-embedded) instances: termination, bounded
        /// INV1 violation and the JV cost envelope `cost ≤ 3(1+ε)·Σα`.
        #[test]
        fn random_line_instances_satisfy_jv_envelope(
            fac_pos in proptest::collection::vec(0.0f64..20.0, 1..4),
            cli_pos in proptest::collection::vec(0.0f64..20.0, 1..6),
            price in 1.0f64..6.0,
        ) {
            let distances: Vec<Vec<f64>> = fac_pos
                .iter()
                .map(|&fx| cli_pos.iter().map(|&cx| (fx - cx).abs()).collect())
                .collect();
            let inst = BiddingInstance::new(vec![price; fac_pos.len()], distances).unwrap();
            let eps = 0.1;
            let step = distributed_step(&inst, eps, 11);
            prop_assert!(step.bidding.stats.terminated);
            // Additive INV1 overshoot bound per open facility.
            for i in 0..inst.num_facilities() {
                if !step.bidding.open[i] {
                    continue;
                }
                let mut paid = 0.0;
                let mut bidder_alpha = 0.0;
                for (j, &a) in step.bidding.alpha.iter().enumerate() {
                    let bid = a - inst.distance(i, j);
                    if bid > 0.0 {
                        paid += bid;
                        bidder_alpha += a;
                    }
                }
                prop_assert!(paid <= inst.price(i) + eps * bidder_alpha + 1e-6);
            }
            // JV cost envelope: the Lemma 4.1-style accounting survives the
            // discretization because facility prices are still fully paid by
            // contributions and reconnections still pay <= 3α.
            let dual_sum: f64 = step.bidding.alpha.iter().sum();
            prop_assert!(
                step.total_cost <= 3.0 * (1.0 + eps) * dual_sum + 1e-6,
                "cost {} vs 3(1+eps)·Σα {}",
                step.total_cost,
                3.0 * (1.0 + eps) * dual_sum
            );
        }
    }
}
