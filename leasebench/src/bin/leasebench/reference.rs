//! The in-process reference: the same streams replayed through
//! `EngineHandle` + `TenantPermit`, one engine per daemon shard, with the
//! optional timing wrapper around the policy, plus the hindsight optimum
//! that `cost_ratio` divides by.

use crate::gen::{Op, OpKind};
use leased::policy::PermitCore;
use leased::protocol::{ActiveLease, DaemonStats};
use leased::shard::SHARD_SNAPSHOT_SCHEMA;
use leased::{TenantOp, TenantPermit};
use leasing_core::engine::{Books, DecisionRetention, EngineHandle, LeasingAlgorithm};
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::time::TimeStep;
use leasing_oracle::{OfflineOracle, PermitDpOracle};
use serde::{json, value_field, value_str};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// The daemon's default lease structure (`--lease 1:1,4:2.5,16:6`).
pub fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![
        LeaseType::new(1, 1.0),
        LeaseType::new(4, 2.5),
        LeaseType::new(16, 6.0),
    ])
    .expect("the default structure is valid")
}

/// Calls and nanoseconds spent inside the wrapped policy.
#[derive(Default)]
pub struct PolicyClock {
    pub calls: Cell<u64>,
    pub ns: Cell<u64>,
}

/// A `LeasingAlgorithm` that delegates to `TenantPermit` and, when
/// `clock` is set, times every `on_request`.
pub struct TimedPolicy {
    inner: TenantPermit,
    clock: Option<Rc<PolicyClock>>,
}

impl LeasingAlgorithm for TimedPolicy {
    type Request = TenantOp;

    fn on_request(&mut self, time: TimeStep, request: TenantOp, books: Books<'_>) {
        match &self.clock {
            None => self.inner.on_request(time, request, books),
            Some(clock) => {
                let started = Instant::now();
                self.inner.on_request(time, request, books);
                clock
                    .ns
                    .set(clock.ns.get() + started.elapsed().as_nanos() as u64);
                clock.calls.set(clock.calls.get() + 1);
            }
        }
    }
}

pub struct ShardEngine {
    pub engine: EngineHandle<'static, TenantOp>,
    pub core: Rc<RefCell<PermitCore>>,
}

impl ShardEngine {
    pub fn fresh(clock: Option<Rc<PolicyClock>>) -> ShardEngine {
        let inner = TenantPermit::new(structure());
        let core = inner.core();
        ShardEngine {
            engine: EngineHandle::new(TimedPolicy { inner, clock }, structure()),
            core,
        }
    }

    /// Restores a `leased-shard/v1` snapshot, as the daemon does at start.
    pub fn restore(text: &str, clock: Option<Rc<PolicyClock>>) -> Result<ShardEngine, String> {
        let envelope = json::parse(text).map_err(|e| e.to_string())?;
        let schema = value_field(&envelope, "schema")
            .and_then(value_str)
            .map_err(|e| e.to_string())?;
        if schema != SHARD_SNAPSHOT_SCHEMA {
            return Err(format!("unexpected snapshot schema {schema}"));
        }
        let policy = value_field(&envelope, "policy").map_err(|e| e.to_string())?;
        let core = Rc::new(RefCell::new(
            PermitCore::from_value(structure(), policy).map_err(|e| e.to_string())?,
        ));
        let engine_text =
            json::to_string(value_field(&envelope, "engine").map_err(|e| e.to_string())?);
        let inner = TenantPermit::from_core(Rc::clone(&core));
        let engine = EngineHandle::restore(TimedPolicy { inner, clock }, &engine_text)
            .map_err(|e| e.to_string())?;
        Ok(ShardEngine { engine, core })
    }

    /// `list-active` exactly as a shard answers it: the live, unreleased
    /// lease of each type covering `time`.
    pub fn list_active(&self, tenant: usize, time: TimeStep) -> Vec<ActiveLease> {
        let core = self.core.borrow();
        let ledger = self.engine.ledger();
        (0..core.structure().num_types())
            .filter_map(|k| {
                ledger
                    .active_lease_of_type(tenant, k, time)
                    .filter(|&triple| !core.is_released(triple))
                    .map(|triple| ActiveLease {
                        tenant: tenant as u64,
                        type_index: k,
                        start: triple.start,
                        end: triple.start + core.structure().length(k),
                    })
            })
            .collect()
    }

    /// The `leased-shard/v1` snapshot of this engine.
    pub fn snapshot(&self) -> String {
        let engine = json::parse(&self.engine.snapshot()).expect("engine snapshots are JSON");
        let envelope = serde::Value::Map(vec![
            (
                "schema".to_string(),
                serde::Value::Str(SHARD_SNAPSHOT_SCHEMA.to_string()),
            ),
            ("engine".to_string(), engine),
            ("policy".to_string(), self.core.borrow().to_value()),
        ]);
        json::to_string(&envelope)
    }
}

/// Engine-call accounting of a replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineTime {
    pub calls: u64,
    pub demands: u64,
    pub ns: u64,
}

/// One engine per daemon shard, fed the ops each shard received.
pub struct Replica {
    pub shards: Vec<ShardEngine>,
    pub policy: Option<Rc<PolicyClock>>,
    pub engine_time: EngineTime,
    timed: bool,
}

impl Replica {
    pub fn fresh(shards: usize, timed: bool) -> Replica {
        let policy = timed.then(|| Rc::new(PolicyClock::default()));
        Replica {
            shards: (0..shards)
                .map(|_| ShardEngine::fresh(policy.clone()))
                .collect(),
            policy,
            engine_time: EngineTime::default(),
            timed,
        }
    }

    pub fn restored(snapshots: &[String], timed: bool) -> Result<Replica, String> {
        let policy = timed.then(|| Rc::new(PolicyClock::default()));
        let shards = snapshots
            .iter()
            .map(|text| ShardEngine::restore(text, policy.clone()))
            .collect::<Result<_, _>>()?;
        Ok(Replica {
            shards,
            policy,
            engine_time: EngineTime::default(),
            timed,
        })
    }

    fn shard(&mut self, tenant: u64) -> &mut ShardEngine {
        let index = leased::shard_of(tenant, self.shards.len());
        &mut self.shards[index]
    }

    /// Serves one equal-time run of demands on `tenant`'s shard (the run
    /// must not span shards) with one `submit_at` call.
    pub fn submit_run(&mut self, time: TimeStep, tenants: &[u64]) -> Result<(), String> {
        let Some(&first) = tenants.first() else {
            return Ok(());
        };
        let timed = self.timed;
        let shard = self.shard(first);
        let started = timed.then(Instant::now);
        shard
            .engine
            .submit_at(time, tenants.iter().map(|&t| TenantOp::Demand(t as usize)))
            .map_err(|e| e.to_string())?;
        if let Some(started) = started {
            self.engine_time.ns += started.elapsed().as_nanos() as u64;
        }
        self.engine_time.calls += 1;
        self.engine_time.demands += tenants.len() as u64;
        Ok(())
    }

    /// Applies one client op; `list-active` returns its answer.
    pub fn apply(&mut self, op: Op) -> Result<Option<Vec<ActiveLease>>, String> {
        match op.kind {
            OpKind::Submit => self.submit_run(op.time, &[op.tenant]).map(|()| None),
            OpKind::Release => {
                let shard = self.shard(op.tenant);
                shard
                    .engine
                    .submit(op.time, TenantOp::Release(op.tenant as usize))
                    .map_err(|e| e.to_string())?;
                Ok(None)
            }
            OpKind::List => Ok(Some(
                self.shard(op.tenant)
                    .list_active(op.tenant as usize, op.time),
            )),
        }
    }

    /// The `stats` answer the daemon should give for the same state.
    pub fn stats_json(&self) -> String {
        DaemonStats {
            shards: self.shards.iter().map(|s| s.engine.stats()).collect(),
        }
        .to_json()
    }

    pub fn engines(&self) -> Vec<&EngineHandle<'static, TenantOp>> {
        self.shards.iter().map(|s| &s.engine).collect()
    }

    pub fn total_cost(&self) -> f64 {
        self.shards.iter().map(|s| s.engine.cost()).sum()
    }

    pub fn set_retention(&mut self, retention: DecisionRetention) {
        for shard in &mut self.shards {
            shard.engine.set_retention(retention);
        }
    }
}

/// Per-tenant distinct demand times, for the hindsight optimum.
#[derive(Default)]
pub struct DemandTimes {
    per_tenant: Vec<Vec<u32>>,
}

impl DemandTimes {
    pub fn add(&mut self, tenant: u64, time: TimeStep) {
        let tenant = tenant as usize;
        if tenant >= self.per_tenant.len() {
            self.per_tenant.resize_with(tenant + 1, Vec::new);
        }
        let times = &mut self.per_tenant[tenant];
        let time = u32::try_from(time).expect("benchmark times fit in u32");
        if times.last() != Some(&time) {
            times.push(time);
        }
    }

    /// Σ over tenants of `PermitDpOracle`'s interval-model optimum.
    pub fn optimum(&self) -> Result<f64, String> {
        let oracle = PermitDpOracle::new(structure());
        let mut total = 0.0;
        let mut days: Vec<TimeStep> = Vec::new();
        for times in self.per_tenant.iter().filter(|t| !t.is_empty()) {
            days.clear();
            days.extend(times.iter().map(|&t| TimeStep::from(t)));
            total += oracle.optimum(&days).map_err(|e| e.to_string())?.value();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_optimum_prices_each_tenant_separately() {
        let mut times = DemandTimes::default();
        for t in 0..16 {
            times.add(0, t);
            times.add(0, t);
        }
        times.add(3, 5);
        // Tenant 0 is covered all 16 days by one long lease (6.0); tenant 3
        // needs one day lease (1.0).
        assert_eq!(times.optimum().unwrap(), 7.0);
    }

    #[test]
    fn snapshots_round_trip_through_restore() {
        let mut replica = Replica::fresh(2, false);
        for t in 0..40u64 {
            replica.submit_run(t, &[t % 6]).unwrap();
        }
        replica
            .apply(Op {
                kind: OpKind::Release,
                tenant: 2,
                time: 39,
            })
            .unwrap();
        let snaps: Vec<String> = replica.shards.iter().map(ShardEngine::snapshot).collect();
        let restored = Replica::restored(&snaps, true).unwrap();
        assert_eq!(restored.stats_json(), replica.stats_json());
        assert_eq!(
            restored.shards[0].list_active(2, 39),
            replica.shards[0].list_active(2, 39)
        );
        assert!(replica.shards[0].list_active(2, 39).is_empty(), "released");
        assert!(!replica.shards[1].list_active(3, 39).is_empty(), "live");
    }
}
