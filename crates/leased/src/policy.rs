//! [`TenantPermit`]: the daemon's multi-tenant leasing policy.
//!
//! Each tenant is one covered element of the thesis' deterministic
//! parking-permit primal-dual (Algorithm 1): an uncovered demand raises
//! the tenant's dual variable until some aligned candidate lease becomes
//! tight, and every tight candidate is bought — `O(K)`-competitive per
//! tenant, hence per shard, since tenants share no constraints. The raise
//! itself is [`AlignedDuals`], the step `DeterministicPrimalDual` runs, so
//! this module holds only what the daemon adds around it.
//!
//! On top of the paper algorithm the daemon adds **force-release**: an
//! operator op that voids a tenant's live leases (a zero-cost
//! [`CATEGORY_FORCE_RELEASE`] charge keeps the audit trail in the ledger's
//! decision trace). Released leases stay in the ledger — cost history is
//! append-only — so the policy overlays a released set and re-buys (and
//! re-pays) when a demand arrives for a voided window.
//!
//! The policy state lives behind an `Rc<RefCell<_>>` core shared with the
//! owning shard: the engine handle boxes the policy away
//! (`Box<dyn LeasingAlgorithm>`), and the shard still needs the released
//! overlay for `list-active` and the accumulators for snapshots, whose
//! `tenant-permit/v1` encoding stores each tenant's
//! [`AlignedDuals::slots`]. Shards are single-threaded, so the `Rc` never
//! crosses a thread boundary.

use leasing_core::dual::AlignedDuals;
use leasing_core::engine::{Books, LeasingAlgorithm};
use leasing_core::framework::Triple;
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;
use serde::{de, value_field, Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Ledger category of the zero-cost force-release audit charge.
pub const CATEGORY_FORCE_RELEASE: &str = "force-release";

/// Schema tag of [`PermitCore::to_value`] payloads.
pub const POLICY_SNAPSHOT_SCHEMA: &str = "tenant-permit/v1";

/// One engine request: the daemon translates wire ops into these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantOp {
    /// A lease demand of the tenant.
    Demand(usize),
    /// Void the tenant's live leases (future demands buy fresh).
    Release(usize),
}

/// The shared mutable core of a [`TenantPermit`] policy.
#[derive(Clone, Debug, PartialEq)]
pub struct PermitCore {
    structure: LeaseStructure,
    /// Per-tenant dual accumulators, exactly as in the single-tenant
    /// deterministic primal-dual.
    contributions: BTreeMap<usize, AlignedDuals>,
    /// Total dual value raised across tenants (a lower bound on the
    /// interval-model optimum by weak duality).
    dual_value: f64,
    /// Force-released leases, `(tenant, type, window start)`. Present
    /// means: the ledger owns the triple but the daemon treats it as
    /// void; a re-buy removes the entry.
    released: BTreeSet<(usize, usize, TimeStep)>,
}

impl PermitCore {
    fn new(structure: LeaseStructure) -> Self {
        PermitCore {
            structure,
            contributions: BTreeMap::new(),
            dual_value: 0.0,
            released: BTreeSet::new(),
        }
    }

    /// Whether `triple` has been force-released (and not re-bought).
    pub fn is_released(&self, triple: Triple) -> bool {
        self.released
            .contains(&(triple.element, triple.type_index, triple.start))
    }

    /// Total dual value raised so far (lower-bounds the interval-model
    /// optimum across tenants).
    pub fn dual_value(&self) -> f64 {
        self.dual_value
    }

    /// The lease structure the policy prices from.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// `tenant` has a live (owned and not released) lease covering `t`.
    fn covered_live(&self, tenant: usize, t: TimeStep, books: &Books<'_>) -> bool {
        (0..self.structure.num_types()).any(|k| {
            books
                .active_lease_of_type(tenant, k, t)
                .is_some_and(|triple| !self.is_released(triple))
        })
    }

    /// The primal-dual step for one demand of `tenant` at `t`.
    fn serve_demand(&mut self, t: TimeStep, tenant: usize, books: &mut Books<'_>) {
        if self.covered_live(tenant, t, books) {
            return;
        }
        let PermitCore {
            structure,
            contributions,
            dual_value,
            released,
        } = self;
        let duals = contributions
            .entry(tenant)
            .or_insert_with(|| AlignedDuals::new(structure.num_types()));
        let price = |k: usize| structure.cost(k);
        *dual_value += duals.raise(t, structure, price);
        for lease in duals.tight(price) {
            let triple = Triple::new(tenant, lease.type_index, lease.start);
            // A released window re-buys (and re-pays); an owned live one
            // does not.
            let was_released = released.remove(&(tenant, lease.type_index, lease.start));
            if was_released || !books.owns(triple) {
                books.buy(t, triple);
            }
        }
        debug_assert!(
            self.covered_live(tenant, t, books),
            "the primal-dual step must cover the demand"
        );
    }

    /// Voids `tenant`'s live leases at `t` and records the audit charge.
    fn serve_release(&mut self, t: TimeStep, tenant: usize, books: &mut Books<'_>) {
        for k in 0..self.structure.num_types() {
            if let Some(triple) = books.active_lease_of_type(tenant, k, t) {
                self.released
                    .insert((triple.element, triple.type_index, triple.start));
            }
        }
        books.charge(t, tenant, 0.0, CATEGORY_FORCE_RELEASE);
    }

    /// Serializes the policy state (schema [`POLICY_SNAPSHOT_SCHEMA`]).
    /// The structure itself is daemon configuration and is not embedded.
    pub fn to_value(&self) -> Value {
        let contributions: Vec<(u64, Vec<(TimeStep, f64)>)> = self
            .contributions
            .iter()
            .map(|(&tenant, duals)| (tenant as u64, duals.slots().to_vec()))
            .collect();
        let released: Vec<(u64, u64, TimeStep)> = self
            .released
            .iter()
            .map(|&(tenant, k, start)| (tenant as u64, k as u64, start))
            .collect();
        Value::Map(vec![
            (
                "schema".to_string(),
                Value::Str(POLICY_SNAPSHOT_SCHEMA.to_string()),
            ),
            ("dual_value".to_string(), self.dual_value.to_value()),
            ("contributions".to_string(), contributions.to_value()),
            ("released".to_string(), released.to_value()),
        ])
    }

    /// Rebuilds a core from [`PermitCore::to_value`] output and the
    /// daemon's configured `structure`.
    ///
    /// # Errors
    ///
    /// Rejects payloads with a wrong schema tag or malformed fields.
    pub fn from_value(structure: LeaseStructure, value: &Value) -> Result<Self, de::Error> {
        let schema = serde::value_str(value_field(value, "schema")?)?;
        if schema != POLICY_SNAPSHOT_SCHEMA {
            return Err(de::Error::new(format!(
                "expected schema {POLICY_SNAPSHOT_SCHEMA}, found {schema}"
            )));
        }
        let dual_value = f64::from_value(value_field(value, "dual_value")?)?;
        let raw_contributions =
            Vec::<(u64, Vec<(TimeStep, f64)>)>::from_value(value_field(value, "contributions")?)?;
        let raw_released =
            Vec::<(u64, u64, TimeStep)>::from_value(value_field(value, "released")?)?;
        let index = |v: u64| -> Result<usize, de::Error> {
            usize::try_from(v).map_err(|_| de::Error::new(format!("index {v} overflows usize")))
        };
        let mut contributions = BTreeMap::new();
        for (tenant, slots) in raw_contributions {
            contributions.insert(index(tenant)?, AlignedDuals::from_slots(slots));
        }
        let mut released = BTreeSet::new();
        for (tenant, k, start) in raw_released {
            released.insert((index(tenant)?, index(k)?, start));
        }
        Ok(PermitCore {
            structure,
            contributions,
            dual_value,
            released,
        })
    }
}

/// The policy object handed to the engine: a shared handle onto a
/// [`PermitCore`].
#[derive(Clone, Debug)]
pub struct TenantPermit {
    core: Rc<RefCell<PermitCore>>,
}

impl TenantPermit {
    /// A fresh policy over `structure`.
    pub fn new(structure: LeaseStructure) -> Self {
        TenantPermit {
            core: Rc::new(RefCell::new(PermitCore::new(structure))),
        }
    }

    /// Wraps an existing (e.g. snapshot-restored) core.
    pub fn from_core(core: Rc<RefCell<PermitCore>>) -> Self {
        TenantPermit { core }
    }

    /// A shared handle onto the policy core — the shard keeps one to
    /// answer `list-active` and to snapshot while the engine owns the
    /// policy itself.
    pub fn core(&self) -> Rc<RefCell<PermitCore>> {
        Rc::clone(&self.core)
    }
}

impl LeasingAlgorithm for TenantPermit {
    type Request = TenantOp;

    fn on_request(&mut self, time: TimeStep, request: TenantOp, mut books: Books<'_>) {
        let mut core = self.core.borrow_mut();
        match request {
            TenantOp::Demand(tenant) => core.serve_demand(time, tenant, &mut books),
            TenantOp::Release(tenant) => core.serve_release(time, tenant, &mut books),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::EngineHandle;
    use leasing_core::lease::LeaseType;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(4, 3.0)]).unwrap()
    }

    fn engine() -> (EngineHandle<'static, TenantOp>, Rc<RefCell<PermitCore>>) {
        let policy = TenantPermit::new(structure());
        let core = policy.core();
        (EngineHandle::new(policy, structure()), core)
    }

    #[test]
    fn tenants_are_independent_permit_instances() {
        let (mut engine, core) = engine();
        engine.submit(0, TenantOp::Demand(1)).unwrap();
        engine.submit(0, TenantOp::Demand(2)).unwrap();
        // Each first demand buys the cheapest (day) lease for its tenant.
        assert!((engine.cost() - 2.0).abs() < 1e-9);
        assert!(engine.ledger().covered(1, 0));
        assert!(engine.ledger().covered(2, 0));
        assert!(!engine.ledger().covered(3, 0));
        assert!((core.borrow().dual_value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_demands_escalate_to_the_long_lease() {
        let (mut engine, _) = engine();
        for t in 0..4 {
            engine.submit(t, TenantOp::Demand(5)).unwrap();
        }
        // Same trajectory as the single-tenant algorithm: three day leases,
        // then the long lease becomes tight.
        assert!((engine.cost() - 6.0).abs() < 1e-9);
        assert!(engine.ledger().covered(5, 3));
    }

    #[test]
    fn covered_demands_are_free() {
        let (mut engine, _) = engine();
        engine.submit(0, TenantOp::Demand(9)).unwrap();
        let cost = engine.cost();
        engine.submit(0, TenantOp::Demand(9)).unwrap();
        assert_eq!(engine.cost(), cost);
    }

    #[test]
    fn force_release_voids_coverage_and_rebuys_fresh() {
        let (mut engine, core) = engine();
        for t in 0..3 {
            engine.submit(t, TenantOp::Demand(4)).unwrap();
        }
        let cost_before = engine.cost();
        // The long lease [0,4) is live; release everything at t=3.
        engine.submit(3, TenantOp::Release(4)).unwrap();
        assert_eq!(engine.cost(), cost_before, "releasing is free");
        assert!(
            core.borrow().is_released(Triple::new(4, 1, 0)),
            "the long lease is voided"
        );
        // The ledger still covers t=3, but the policy re-buys on demand.
        assert!(engine.ledger().covered(4, 3));
        engine.submit(3, TenantOp::Demand(4)).unwrap();
        assert!(engine.cost() > cost_before, "a voided window re-pays");
        // The re-bought window is live again.
        assert!(!core.borrow().is_released(Triple::new(4, 1, 0)));
        // The audit charge is on the books.
        assert!(engine
            .stats()
            .cost_by_category
            .iter()
            .any(|(category, _)| category == CATEGORY_FORCE_RELEASE));
    }

    #[test]
    fn policy_state_round_trips_through_values() {
        let (mut engine, core) = engine();
        for t in 0..4 {
            engine.submit(t, TenantOp::Demand(t as usize % 2)).unwrap();
        }
        engine.submit(3, TenantOp::Release(1)).unwrap();
        let snap = core.borrow().to_value();
        let restored = PermitCore::from_value(structure(), &snap).unwrap();
        assert_eq!(restored, *core.borrow());
        assert_eq!(restored.to_value(), snap, "snapshots are idempotent");
    }

    #[test]
    fn malformed_policy_snapshots_are_rejected() {
        let snap = Value::Map(vec![(
            "schema".to_string(),
            Value::Str("wrong/v9".to_string()),
        )]);
        assert!(PermitCore::from_value(structure(), &snap).is_err());
        assert!(PermitCore::from_value(structure(), &Value::Null).is_err());
    }
}
