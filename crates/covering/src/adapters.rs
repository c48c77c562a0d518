//! The thesis' randomized algorithms re-derived as instances of the generic
//! covering engine.
//!
//! Each adapter builds the same candidate sets, in the same order, with the
//! same costs as its specialized counterpart, and drives either the
//! [`CoveringEngine`] (per-variable thresholds; Algorithms 3 and 5) or the
//! [`FractionalCovering`] solver plus [`suffix_crossing`] (single-τ
//! coupling; Algorithm 2). Consequently the adapters are **bit-for-bit
//! equivalent** to `parking_permit::rand_alg::RandomizedPermit`,
//! `set_cover_leasing::online::SmclOnline` and
//! `leasing_deadlines::scld::ScldOnline` under the same seed — the
//! equivalence tests below and experiment E28 assert exactly that. What the
//! adapters add is the engine's online dual certificate: a per-run certified
//! lower bound on the offline optimum that needs no ILP solve.

use crate::engine::{CoveringEngine, EngineStats};
use crate::fractional::{DualCertificate, FractionalCovering};
use crate::rounding::suffix_crossing;
use leasing_core::dual::DualAscent;
use leasing_core::engine::{Books, LeasingAlgorithm, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::interval::{aligned_start, candidates_covering, candidates_intersecting};
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::rng::threshold_count;
use leasing_core::time::TimeStep;
use leasing_core::EPS;
use leasing_deadlines::old::{OldClient, OldInstance, OLD_ELEMENT};
use leasing_deadlines::scld::{ScldArrival, ScldInstance};
use parking_permit::PERMIT_ELEMENT;
use rand::{Rng, RngExt};
use set_cover_leasing::instance::SmclInstance;
use std::collections::BTreeSet;

/// Algorithm 2 (randomized parking permit) as a generic-covering instance:
/// the fractional phase runs on the shared [`FractionalCovering`] solver and
/// the integral phase is the suffix-sum single-τ coupling.
///
/// Bit-for-bit equivalent to
/// [`RandomizedPermit`](parking_permit::rand_alg::RandomizedPermit) with the
/// same threshold.
#[derive(Clone, Debug)]
pub struct GenericParkingPermit {
    structure: LeaseStructure,
    fractional: FractionalCovering<Lease>,
    tau: f64,
}

impl GenericParkingPermit {
    /// Creates the adapter, drawing its threshold from `rng` exactly as
    /// `RandomizedPermit::new` does.
    pub fn new<R: Rng + ?Sized>(structure: LeaseStructure, rng: &mut R) -> Self {
        let tau = rng.random::<f64>();
        GenericParkingPermit::with_threshold(structure, tau)
    }

    /// Creates the adapter with an explicit threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < tau <= 1.0`.
    pub fn with_threshold(structure: LeaseStructure, tau: f64) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "threshold must lie in (0, 1]");
        GenericParkingPermit {
            structure,
            fractional: FractionalCovering::new(),
            tau,
        }
    }

    /// The permit structure this adapter leases from.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// Accumulated fractional cost `Σ c · f`.
    pub fn fractional_cost(&self) -> f64 {
        self.fractional.fractional_cost()
    }

    /// The online weak-duality certificate: a lower bound on the offline
    /// optimum of the served rainy days.
    pub fn certificate(&self) -> DualCertificate {
        self.fractional.certificate()
    }
}

impl LeasingAlgorithm for GenericParkingPermit {
    type Request = ();

    fn on_request(&mut self, t: TimeStep, _request: (), mut books: Books<'_>) {
        let candidates: Vec<(Lease, f64)> = candidates_covering(&self.structure, t)
            .into_iter()
            .map(|l| (l, l.cost(&self.structure)))
            .collect();
        self.fractional.serve(&candidates);

        let fractions: Vec<(Lease, f64)> = candidates
            .iter()
            .map(|&(l, _)| (l, self.fractional.fraction(&l)))
            .collect();
        let lease = suffix_crossing(&fractions, self.tau).unwrap_or(candidates[0].0);
        let triple = Triple::new(PERMIT_ELEMENT, lease.type_index, lease.start);
        if !books.owns(triple) {
            books.buy_priced(t, triple, lease.cost(&self.structure), CATEGORY_LEASE);
        }
        debug_assert!(books.covered(PERMIT_ELEMENT, t));
    }
}

/// Algorithms 3 and 4 (set multicover leasing) as a generic-covering
/// instance: the layering of Figure 3.3 runs outside the engine, one engine
/// constraint per layer.
///
/// Bit-for-bit equivalent to
/// [`SmclOnline`](set_cover_leasing::online::SmclOnline) under the same
/// seed.
#[derive(Debug)]
pub struct GenericSmcl<'a> {
    instance: &'a SmclInstance,
    engine: CoveringEngine<Triple>,
    cursor: usize,
}

impl<'a> GenericSmcl<'a> {
    /// Creates the adapter with the paper's threshold count
    /// `q = 2⌈log₂(n+1)⌉`.
    pub fn new(instance: &'a SmclInstance, seed: u64) -> Self {
        let q = threshold_count(instance.system.num_elements() as u64);
        GenericSmcl::with_threshold_count(instance, seed, q)
    }

    /// Creates the adapter with an explicit threshold count.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn with_threshold_count(instance: &'a SmclInstance, seed: u64, q: u32) -> Self {
        GenericSmcl {
            instance,
            engine: CoveringEngine::new(q, seed),
            cursor: 0,
        }
    }

    /// Runs over all arrivals of the instance; returns the total cost.
    pub fn run(&mut self) -> f64 {
        while self.cursor < self.instance.arrivals.len() {
            let a = self.instance.arrivals[self.cursor];
            self.cursor += 1;
            self.serve_arrival(a.time, a.element, a.multiplicity);
        }
        self.engine.total_cost()
    }

    /// Serves one demand: `multiplicity` layers, each covered by a distinct
    /// set (the layering technique of §3.2).
    ///
    /// # Panics
    ///
    /// Panics if the multiplicity exceeds the number of usable sets.
    pub fn serve_arrival(&mut self, t: TimeStep, element: usize, multiplicity: usize) {
        let mut used_sets: BTreeSet<usize> = BTreeSet::new();
        for _layer in 0..multiplicity {
            let candidates = self.candidates(t, element, &used_sets);
            assert!(
                !candidates.is_empty(),
                "no usable set contains element {element}"
            );
            let chosen = self.engine.serve(&candidates);
            used_sets.insert(chosen.element);
        }
    }

    /// Total integral cost paid so far.
    pub fn total_cost(&self) -> f64 {
        self.engine.total_cost()
    }

    /// The underlying engine (fractions, stats, owned set).
    pub fn engine(&self) -> &CoveringEngine<Triple> {
        &self.engine
    }

    /// Integral-phase telemetry.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The online weak-duality certificate: a lower bound on the offline
    /// optimum of the served layers.
    pub fn certificate(&self) -> DualCertificate {
        self.engine.certificate()
    }

    /// The triples leased so far.
    pub fn owned(&self) -> impl Iterator<Item = &Triple> {
        self.engine.owned()
    }

    /// Candidate triples in the same order as `SmclOnline::candidates`.
    fn candidates(
        &self,
        t: TimeStep,
        element: usize,
        excluded: &BTreeSet<usize>,
    ) -> Vec<(Triple, f64)> {
        let mut out = Vec::new();
        for &s in self.instance.system.sets_containing(element) {
            if excluded.contains(&s) {
                continue;
            }
            for k in 0..self.instance.structure.num_types() {
                let start = aligned_start(t, self.instance.structure.length(k));
                out.push((Triple::new(s, k, start), self.instance.cost(s, k)));
            }
        }
        out
    }
}

/// Algorithm 5 (set cover leasing with deadlines) as a generic-covering
/// instance.
///
/// Bit-for-bit equivalent to
/// [`ScldOnline`](leasing_deadlines::scld::ScldOnline) under the same seed.
#[derive(Debug)]
pub struct GenericScld<'a> {
    instance: &'a ScldInstance,
    engine: CoveringEngine<Triple>,
    next_arrival: usize,
}

impl<'a> GenericScld<'a> {
    /// Creates the adapter with the paper's threshold count
    /// `q = 2⌈log₂(l_max)⌉` (the count that makes Theorem 5.7
    /// time-independent).
    pub fn new(instance: &'a ScldInstance, seed: u64) -> Self {
        let q = threshold_count(instance.structure.l_max());
        GenericScld::with_threshold_count(instance, seed, q)
    }

    /// Creates the adapter with an explicit threshold count.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn with_threshold_count(instance: &'a ScldInstance, seed: u64, q: u32) -> Self {
        GenericScld {
            instance,
            engine: CoveringEngine::new(q, seed),
            next_arrival: 0,
        }
    }

    /// Serves all remaining arrivals; returns the total cost.
    pub fn run(&mut self) -> f64 {
        while self.next_arrival < self.instance.arrivals.len() {
            let a = self.instance.arrivals[self.next_arrival];
            self.next_arrival += 1;
            self.serve(&a);
        }
        self.engine.total_cost()
    }

    /// Serves one deadline-flexible arrival.
    pub fn serve(&mut self, a: &ScldArrival) {
        let candidates: Vec<(Triple, f64)> = self
            .instance
            .candidates(a)
            .into_iter()
            .map(|c| (c, self.instance.cost(c.element, c.type_index)))
            .collect();
        debug_assert!(!candidates.is_empty(), "validated instances are coverable");
        self.engine.serve(&candidates);
    }

    /// Total integral cost paid so far.
    pub fn total_cost(&self) -> f64 {
        self.engine.total_cost()
    }

    /// The underlying engine.
    pub fn engine(&self) -> &CoveringEngine<Triple> {
        &self.engine
    }

    /// The online weak-duality certificate.
    pub fn certificate(&self) -> DualCertificate {
        self.engine.certificate()
    }

    /// The triples leased so far.
    pub fn owned(&self) -> impl Iterator<Item = &Triple> {
        self.engine.owned()
    }
}

/// Algorithm 1 (deterministic parking permit, Theorem 2.7) as a
/// [`DualAscent`] instance.
///
/// Bit-for-bit equivalent to
/// [`DeterministicPrimalDual`](parking_permit::det::DeterministicPrimalDual).
///
/// ```
/// use leasing_core::engine::Driver;
/// use leasing_core::lease::{LeaseStructure, LeaseType};
/// use online_covering::GenericDeterministicPermit;
/// use parking_permit::PERMIT_ELEMENT;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let permits = LeaseStructure::new(vec![
///     LeaseType::new(1, 1.0),
///     LeaseType::new(4, 3.0),
/// ])?;
/// let mut alg = Driver::new(GenericDeterministicPermit::new(permits.clone()), permits);
/// alg.submit_batch([0u64, 1, 2, 3].map(|day| (day, ())))?;
/// assert!(alg.ledger().covered(PERMIT_ELEMENT, 3));
/// // Weak duality: the raised dual lower-bounds the optimum; Theorem 2.7
/// // bounds the cost by K times that.
/// assert!(alg.cost() <= 2.0 * alg.algorithm().dual_value());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct GenericDeterministicPermit {
    structure: LeaseStructure,
    duals: DualAscent<Lease>,
}

impl GenericDeterministicPermit {
    /// Creates the adapter for the given permit structure (used with
    /// aligned starts, i.e. the interval model).
    pub fn new(structure: LeaseStructure) -> Self {
        GenericDeterministicPermit {
            structure,
            duals: DualAscent::new(),
        }
    }

    /// The permit structure this adapter leases from.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// Total dual value `Σ y` raised (the Theorem 2.7 lower bound).
    pub fn dual_value(&self) -> f64 {
        self.duals.dual_value()
    }
}

impl LeasingAlgorithm for GenericDeterministicPermit {
    type Request = ();

    fn on_request(&mut self, t: TimeStep, _request: (), mut books: Books<'_>) {
        if books.covered(PERMIT_ELEMENT, t) {
            return;
        }
        let structure = &self.structure;
        self.duals.retire(|l| l.window(structure).end() > t);
        let candidates: Vec<(Lease, f64)> = candidates_covering(structure, t)
            .into_iter()
            .map(|l| (l, l.cost(structure)))
            .collect();
        self.duals.raise(&candidates);
        for (lease, price) in candidates {
            let triple = Triple::new(PERMIT_ELEMENT, lease.type_index, lease.start);
            if self.duals.is_tight(&lease, price) && !books.owns(triple) {
                books.buy_priced(t, triple, price, CATEGORY_LEASE);
            }
        }
        debug_assert!(books.covered(PERMIT_ELEMENT, t));
    }
}

/// The §5.3 deterministic OLD algorithm as a [`DualAscent`] instance:
/// Step 1 raises over the window's candidates and buys the tight
/// arrival-day leases; Step 2 mirrors them at the deadline. A request is
/// the arriving client's slack, as for `OldPrimalDual`.
///
/// Bit-for-bit equivalent to
/// [`OldPrimalDual`](leasing_deadlines::old::OldPrimalDual).
#[derive(Clone, Debug)]
pub struct GenericOld<'a> {
    instance: &'a OldInstance,
    duals: DualAscent<Lease>,
    positive_clients: Vec<OldClient>,
}

impl<'a> GenericOld<'a> {
    /// Creates the adapter for `instance`.
    pub fn new(instance: &'a OldInstance) -> Self {
        GenericOld {
            instance,
            duals: DualAscent::new(),
            positive_clients: Vec::new(),
        }
    }

    /// Total dual value raised.
    pub fn dual_value(&self) -> f64 {
        self.duals.dual_value()
    }

    /// Buys `lease` unless the books already own it.
    fn buy(t: TimeStep, lease: Lease, books: &mut Books<'_>) {
        let triple = Triple::new(OLD_ELEMENT, lease.type_index, lease.start);
        if !books.owns(triple) {
            books.buy(t, triple);
        }
    }
}

impl<'a> LeasingAlgorithm for GenericOld<'a> {
    type Request = u64;

    fn on_request(&mut self, t: TimeStep, slack: u64, mut books: Books<'_>) {
        let client = OldClient::new(t, slack);
        // §5.3 precondition: skip clients intersecting a previous
        // positive-dual client at its deadline — the Step 2 mirror already
        // serves them.
        let skip = self.positive_clients.iter().any(|p| {
            p.arrival < client.arrival
                && p.deadline() >= client.arrival
                && p.deadline() <= client.deadline()
        });
        if skip {
            debug_assert!(books.covered_during(OLD_ELEMENT, client.window()));
            return;
        }

        // Step 1: raise over the whole window's candidates.
        let structure = &self.instance.structure;
        self.duals.retire(|l| l.window(structure).end() > t);
        let candidates: Vec<(Lease, f64)> = candidates_intersecting(structure, client.window())
            .into_iter()
            .map(|l| (l, l.cost(structure)))
            .collect();
        if self.duals.raise(&candidates) > EPS {
            self.positive_clients.push(client);
        }

        // Buy every tight candidate covering the arrival day.
        let mut bought_types = Vec::new();
        for lease in candidates_covering(structure, t) {
            if self.duals.is_tight(&lease, lease.cost(structure)) {
                bought_types.push(lease.type_index);
                Self::buy(t, lease, &mut books);
            }
        }
        debug_assert!(
            !bought_types.is_empty(),
            "Proposition 5.1 guarantees a tight cover"
        );

        // Step 2: mirror at the deadline.
        if client.slack > 0 {
            for k in bought_types {
                let start = aligned_start(client.deadline(), structure.length(k));
                Self::buy(t, Lease::new(k, start), &mut books);
            }
        }
        debug_assert!(books.covered_during(OLD_ELEMENT, client.window()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::{Driver, Ledger};
    use leasing_core::lease::LeaseType;
    use leasing_core::rng::seeded;
    use parking_permit::rand_alg::RandomizedPermit;
    use set_cover_leasing::instance::Arrival;
    use set_cover_leasing::online::{is_feasible_cover, SmclOnline};
    use set_cover_leasing::system::SetSystem;

    /// A driver over `alg`, pricing with [`structure`].
    fn drive<A: LeasingAlgorithm<Request = ()>>(alg: A) -> Driver<A> {
        Driver::new(alg, structure())
    }

    /// The triples `ledger` bought.
    fn bought(ledger: &Ledger) -> BTreeSet<Triple> {
        ledger
            .decisions()
            .iter()
            .filter_map(|d| d.triple())
            .collect()
    }

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(4, 3.0),
            LeaseType::new(16, 8.0),
        ])
        .unwrap()
    }

    fn triangle_system() -> SetSystem {
        SetSystem::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    #[test]
    fn parking_permit_adapter_is_bit_equal_to_randomized_permit() {
        let demands: Vec<u64> = vec![0, 1, 5, 6, 7, 20, 40, 41, 64, 65];
        for pct in 1..=10 {
            let tau = pct as f64 / 10.0;
            let mut spec = drive(RandomizedPermit::with_threshold(structure(), tau));
            let mut gen = drive(GenericParkingPermit::with_threshold(structure(), tau));
            for &t in &demands {
                spec.submit(t, ()).unwrap();
                gen.submit(t, ()).unwrap();
            }
            assert_eq!(
                spec.cost().to_bits(),
                gen.cost().to_bits(),
                "tau {tau}: integral costs diverge"
            );
            assert_eq!(
                spec.ledger().decisions(),
                gen.ledger().decisions(),
                "tau {tau}: decisions diverge"
            );
            assert_eq!(
                spec.algorithm().fractional_cost().to_bits(),
                gen.algorithm().fractional_cost().to_bits(),
                "tau {tau}: fractional costs diverge"
            );
        }
    }

    #[test]
    fn parking_permit_adapter_same_rng_draws_same_tau() {
        let mut r1 = seeded(9);
        let mut r2 = seeded(9);
        let mut spec = drive(RandomizedPermit::new(structure(), &mut r1));
        let mut gen = drive(GenericParkingPermit::new(structure(), &mut r2));
        for t in [0u64, 2, 3, 17] {
            spec.submit(t, ()).unwrap();
            gen.submit(t, ()).unwrap();
        }
        assert_eq!(spec.cost().to_bits(), gen.cost().to_bits());
        assert_eq!(spec.ledger().decisions(), gen.ledger().decisions());
    }

    #[test]
    fn smcl_adapter_is_bit_equal_to_smcl_online() {
        let arrivals = vec![
            Arrival::new(0, 0, 1),
            Arrival::new(1, 1, 2),
            Arrival::new(6, 2, 2),
            Arrival::new(20, 0, 2),
            Arrival::new(21, 1, 1),
        ];
        let lengths =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap();
        let inst = SmclInstance::uniform(triangle_system(), lengths, arrivals).unwrap();
        for seed in 0..20 {
            let mut spec = SmclOnline::new(&inst, seed);
            let mut driver = Driver::new(&mut spec, inst.structure.clone());
            driver.submit_batch(inst.online_requests()).unwrap();
            let spec_cost = driver.cost();
            let mut gen = GenericSmcl::new(&inst, seed);
            let gen_cost = gen.run();
            assert_eq!(
                spec_cost.to_bits(),
                gen_cost.to_bits(),
                "seed {seed}: costs diverge"
            );
            let spec_owned: BTreeSet<Triple> = bought(driver.ledger());
            let gen_owned: BTreeSet<Triple> = gen.owned().copied().collect();
            assert_eq!(spec_owned, gen_owned, "seed {seed}: owned sets diverge");
            assert_eq!(
                spec.stats().fractional_cost.to_bits(),
                gen.engine().fractional().fractional_cost().to_bits(),
                "seed {seed}: fractional costs diverge"
            );
            assert_eq!(spec.stats().fallbacks, gen.stats().fallbacks);
        }
    }

    #[test]
    fn smcl_adapter_solutions_are_feasible_multicovers() {
        let arrivals = vec![Arrival::new(0, 0, 2), Arrival::new(9, 2, 2)];
        let lengths =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap();
        let inst = SmclInstance::uniform(triangle_system(), lengths, arrivals).unwrap();
        for seed in 0..8 {
            let mut gen = GenericSmcl::new(&inst, seed);
            gen.run();
            let mut ledger = Ledger::new(inst.structure.clone());
            for &triple in gen.owned() {
                ledger.buy(0, triple);
            }
            assert!(is_feasible_cover(&inst, &ledger), "seed {seed}");
        }
    }

    #[test]
    fn scld_adapter_is_bit_equal_to_scld_online() {
        use leasing_deadlines::scld::ScldOnline;
        let lengths =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap();
        let arrivals = vec![
            ScldArrival::new(0, 0, 3),
            ScldArrival::new(2, 1, 0),
            ScldArrival::new(7, 2, 10),
            ScldArrival::new(20, 0, 2),
        ];
        let inst = ScldInstance::uniform(triangle_system(), lengths, arrivals).unwrap();
        for seed in 0..20 {
            let mut spec = ScldOnline::new(&inst, seed);
            let mut driver = Driver::new(&mut spec, inst.structure.clone());
            driver.submit_batch(inst.online_requests()).unwrap();
            let spec_cost = driver.cost();
            let mut gen = GenericScld::new(&inst, seed);
            let gen_cost = gen.run();
            assert_eq!(
                spec_cost.to_bits(),
                gen_cost.to_bits(),
                "seed {seed}: costs diverge"
            );
            let spec_owned: BTreeSet<Triple> = bought(driver.ledger());
            let gen_owned: BTreeSet<Triple> = gen.owned().copied().collect();
            assert_eq!(spec_owned, gen_owned, "seed {seed}: owned sets diverge");
        }
    }

    #[test]
    fn scld_adapter_certificate_lower_bounds_measured_cost() {
        let lengths =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap();
        let arrivals = vec![ScldArrival::new(0, 0, 3), ScldArrival::new(9, 1, 1)];
        let inst = ScldInstance::uniform(triangle_system(), lengths, arrivals).unwrap();
        let mut gen = GenericScld::new(&inst, 5);
        let cost = gen.run();
        let cert = gen.certificate();
        assert!(
            cert.lower_bound <= cost + 1e-9,
            "certificate must not exceed the paid cost"
        );
        assert!(cert.lower_bound >= 0.0);
    }

    #[test]
    fn deterministic_permit_adapter_is_bit_equal_to_algorithm_1() {
        use parking_permit::det::DeterministicPrimalDual;
        let demands: Vec<u64> = vec![0, 1, 2, 5, 6, 7, 20, 40, 41, 64, 65, 80];
        let mut spec = drive(DeterministicPrimalDual::new(structure()));
        let mut gen = drive(GenericDeterministicPermit::new(structure()));
        for &t in &demands {
            spec.submit(t, ()).unwrap();
            gen.submit(t, ()).unwrap();
            assert!(gen.ledger().covered(PERMIT_ELEMENT, t));
        }
        assert_eq!(spec.cost().to_bits(), gen.cost().to_bits());
        assert_eq!(spec.ledger().decisions(), gen.ledger().decisions());
        assert_eq!(
            spec.algorithm().dual_value().to_bits(),
            gen.algorithm().dual_value().to_bits()
        );
    }

    #[test]
    fn old_adapter_is_bit_equal_to_old_primal_dual() {
        use leasing_deadlines::old::OldPrimalDual;
        let clients = vec![
            OldClient::new(0, 6),
            OldClient::new(2, 0),
            OldClient::new(4, 10),
            OldClient::new(9, 3),
            OldClient::new(20, 0),
            OldClient::new(21, 8),
        ];
        let inst = OldInstance::new(structure(), clients).expect("sorted clients");
        let mut driver = Driver::new(OldPrimalDual::new(&inst), inst.structure.clone());
        driver.submit_batch(inst.online_requests()).unwrap();
        let mut gen = Driver::new(GenericOld::new(&inst), inst.structure.clone());
        gen.submit_batch(inst.online_requests()).unwrap();
        assert_eq!(driver.cost().to_bits(), gen.cost().to_bits());
        assert_eq!(driver.ledger().decisions(), gen.ledger().decisions());
        assert_eq!(
            driver.algorithm().dual_value().to_bits(),
            gen.algorithm().dual_value().to_bits()
        );
        assert!(leasing_deadlines::old::is_feasible(&inst, gen.ledger()));
    }

    #[test]
    fn old_adapter_collapses_to_deterministic_permit_at_zero_slack() {
        // d = 0 for all clients makes OLD the parking permit problem; the
        // two deterministic adapters must then pay the same.
        let days = [0u64, 1, 5, 20, 21, 40];
        let clients: Vec<OldClient> = days.iter().map(|&t| OldClient::new(t, 0)).collect();
        let inst = OldInstance::new(structure(), clients).expect("sorted clients");
        let mut old = Driver::new(GenericOld::new(&inst), inst.structure.clone());
        old.submit_batch(inst.online_requests()).unwrap();
        let mut permit = drive(GenericDeterministicPermit::new(structure()));
        for &t in &days {
            permit.submit(t, ()).unwrap();
        }
        assert_eq!(old.cost().to_bits(), permit.cost().to_bits());
    }

    #[test]
    fn parking_permit_certificate_lower_bounds_exact_optimum() {
        // The DP optimum is available for the parking permit problem — the
        // certificate must stay below it.
        let s = structure();
        let demands: Vec<u64> = (0..16).chain(40..44).collect();
        let opt = parking_permit::offline::optimal_cost_interval_model(&s, &demands);
        let mut gen = drive(GenericParkingPermit::with_threshold(s, 0.5));
        for &t in &demands {
            gen.submit(t, ()).unwrap();
        }
        let cert = gen.algorithm().certificate();
        assert!(
            cert.lower_bound <= opt + 1e-9,
            "certificate {} exceeds DP optimum {opt}",
            cert.lower_bound
        );
        assert!(cert.lower_bound > 0.0);
    }
}
