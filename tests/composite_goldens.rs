//! Byte pins for the composite algorithms built from parking-permit
//! subroutines: per-edge permits (Steiner leasing), per-facility permits
//! (randomized facility leasing), the price-aware permit, the
//! prediction-robust `SwitchCombiner` and the Theorem 2.8 adaptive
//! adversary; and for the deterministic primal-dual algorithms that raise
//! a demand's dual until a candidate is tight (OLD, multi-day demands,
//! service windows, vertex cover and the generic covering adapters).
//!
//! Each test drives a fixed-seed run through a [`Driver`] and compares the
//! serialized ledger (plus the raised dual's bits, or the adversary's
//! demand list and cost bits) with a committed golden under
//! `tests/golden/`, so a refactor of how the algorithms raise their duals
//! or record their purchases cannot silently change a single decision,
//! price or category.
//!
//! Regenerate the goldens with `UPDATE_GOLDEN=1 cargo test --test
//! composite_goldens` after an intentional behaviour change.

use online_resource_leasing::core::engine::Driver;
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::core::time::TimeStep;
use online_resource_leasing::covering::{GenericDeterministicPermit, GenericOld};
use online_resource_leasing::deadlines::multi_day::{
    MultiDayClient, MultiDayInstance, MultiDayOnline,
};
use online_resource_leasing::deadlines::old::{OldClient, OldInstance, OldPrimalDual};
use online_resource_leasing::deadlines::windows::{WindowClient, WindowInstance, WindowPrimalDual};
use online_resource_leasing::facility::instance::FacilityInstance;
use online_resource_leasing::facility::metric::Point;
use online_resource_leasing::facility::randomized::RandomizedFacility;
use online_resource_leasing::graph::graph::Graph;
use online_resource_leasing::graph_cover::vertex_cover::{VcLeasingInstance, VcPrimalDual};
use online_resource_leasing::parking_permit::adversary::run_adaptive_adversary;
use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
use online_resource_leasing::steiner::instance::{PairRequest, SteinerInstance};
use online_resource_leasing::steiner::online::{RandomizedSteinerLeasing, SteinerLeasingOnline};
use online_resource_leasing::stochastic::policies::{RateThreshold, SwitchCombiner};
use online_resource_leasing::stochastic::prices::{PriceAwarePermit, PricePath};
use rand::RngExt;
use std::path::PathBuf;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![
        LeaseType::new(1, 1.0),
        LeaseType::new(4, 2.5),
        LeaseType::new(16, 6.0),
    ])
    .unwrap()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `text` against the committed golden (or rewrites it under
/// `UPDATE_GOLDEN=1`).
fn assert_matches_golden(name: &str, text: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(text, golden, "{name} drifted from the committed golden");
}

/// A five-node graph with a cheap spine and expensive shortcuts, and ten
/// seeded pair requests over 40 days.
fn steiner_instance() -> SteinerInstance {
    let g = Graph::new(
        5,
        vec![
            (0, 1, 1.0),
            (1, 2, 1.5),
            (2, 3, 1.0),
            (3, 4, 2.0),
            (0, 4, 6.0),
            (1, 3, 3.0),
        ],
    )
    .unwrap();
    let mut rng = seeded(17);
    let mut t = 0u64;
    let requests = (0..10)
        .map(|_| {
            t += rng.random_range(0..5u64);
            let u = rng.random_range(0..5usize);
            let v = (u + 1 + rng.random_range(0..4usize)) % 5;
            PairRequest::new(t, u, v)
        })
        .collect();
    SteinerInstance::new(g, structure(), requests).unwrap()
}

/// Three sites and six seeded client batches.
fn facility_instance() -> FacilityInstance {
    let mut rng = seeded(23);
    let sites = vec![
        Point::new(0.0, 0.0),
        Point::new(5.0, 1.0),
        Point::new(2.0, 6.0),
    ];
    let mut t = 0u64;
    let batches = (0..6)
        .map(|_| {
            t += 1 + rng.random_range(0..4u64);
            let n = 1 + rng.random_range(0..3usize);
            let clients = (0..n)
                .map(|_| Point::new(rng.random::<f64>() * 6.0, rng.random::<f64>() * 6.0))
                .collect();
            (t, clients)
        })
        .collect();
    FacilityInstance::euclidean(sites, structure(), batches).unwrap()
}

/// A dense burst followed by sparse days: the leader of a combiner that
/// predicts a high rate changes along the way.
fn phased_days() -> Vec<TimeStep> {
    let mut rng = seeded(31);
    (0..96u64)
        .filter(|&t| rng.random::<f64>() < if t < 24 { 0.85 } else { 0.1 })
        .collect()
}

#[test]
fn deterministic_steiner_ledger_matches_golden() {
    let inst = steiner_instance();
    let mut driver = Driver::new(SteinerLeasingOnline::new(&inst), inst.structure.clone());
    driver.submit_batch(inst.online_requests()).unwrap();
    assert_matches_golden("steiner-det-ledger.json", &driver.ledger().to_json());
}

#[test]
fn randomized_steiner_ledger_matches_golden() {
    let inst = steiner_instance();
    let alg = RandomizedSteinerLeasing::new(&inst, &mut seeded(5));
    let mut driver = Driver::new(alg, inst.structure.clone());
    driver.submit_batch(inst.online_requests()).unwrap();
    assert_matches_golden("steiner-rand-ledger.json", &driver.ledger().to_json());
}

#[test]
fn randomized_facility_ledger_matches_golden() {
    let inst = facility_instance();
    let alg = RandomizedFacility::new(&inst, &mut seeded(9));
    let mut driver = Driver::new(alg, inst.structure().clone());
    driver.submit_batch(inst.online_requests()).unwrap();
    assert_matches_golden("facility-rand-ledger.json", &driver.ledger().to_json());
}

#[test]
fn price_aware_permit_ledger_matches_golden() {
    let prices = PricePath::sample(&mut seeded(41), 96, 0.3, 0.5, 2.0);
    let mut driver = Driver::new(PriceAwarePermit::new(structure(), &prices), structure());
    driver
        .submit_batch(phased_days().into_iter().map(|t| (t, ())))
        .unwrap();
    assert_matches_golden("price-aware-ledger.json", &driver.ledger().to_json());
}

#[test]
fn switch_combiner_ledger_and_counters_match_golden() {
    let combiner = SwitchCombiner::new(
        structure(),
        RateThreshold::new(structure(), 0.9),
        DeterministicPrimalDual::new(structure()),
    );
    let mut driver = Driver::new(combiner, structure());
    driver
        .submit_batch(phased_days().into_iter().map(|t| (t, ())))
        .unwrap();
    let (a, b) = driver.algorithm().inner_costs();
    let text = format!(
        "{{\"switches\":{},\"inner_cost_bits\":[{},{}],\"ledger\":{}}}",
        driver.algorithm().switches(),
        a.to_bits(),
        b.to_bits(),
        driver.ledger().to_json()
    );
    assert_matches_golden("switch-combiner.json", &text);
}

#[test]
fn adaptive_adversary_demands_and_cost_match_golden() {
    let s = LeaseStructure::meyerson_adversarial(3);
    let mut driver = Driver::new(DeterministicPrimalDual::new(s.clone()), s.clone());
    let demands = run_adaptive_adversary(&mut driver, s.l_max()).unwrap();
    let text = format!(
        "{{\"demands\":{demands:?},\"cost_bits\":{}}}",
        driver.cost().to_bits()
    );
    assert_matches_golden("adaptive-adversary.json", &text);
}

/// The combiner over lease lengths that do not divide each other. A
/// long-lease prediction pays 3 per isolated demand where the primal-dual
/// pays 1, so the primal-dual leads; each later pair of demands in one
/// aligned 3-day window makes it buy a day lease and a 3-day lease in the
/// same step, and the combiner must replicate the first of the two.
#[test]
fn switch_combiner_over_non_nested_lengths_matches_golden() {
    let s = LeaseStructure::new(vec![
        LeaseType::new(1, 1.0),
        LeaseType::new(3, 2.0),
        LeaseType::new(5, 3.0),
    ])
    .unwrap();
    let combiner = SwitchCombiner::new(
        s.clone(),
        RateThreshold::new(s.clone(), 1.0),
        DeterministicPrimalDual::new(s.clone()),
    );
    let isolated = (0..10u64).map(|i| 10 * i);
    let pairs = (0..10u64).flat_map(|i| [102 + 9 * i, 103 + 9 * i]);
    let mut driver = Driver::new(combiner, s);
    driver
        .submit_batch(isolated.chain(pairs).map(|t| (t, ())))
        .unwrap();
    let (a, b) = driver.algorithm().inner_costs();
    let text = format!(
        "{{\"switches\":{},\"inner_cost_bits\":[{},{}],\"ledger\":{}}}",
        driver.algorithm().switches(),
        a.to_bits(),
        b.to_bits(),
        driver.ledger().to_json()
    );
    assert_matches_golden("switch-combiner-non-nested.json", &text);
}

/// The ledger of a primal-dual run next to the bits of its raised dual.
fn ledger_and_dual(ledger_json: &str, dual_value: f64) -> String {
    format!(
        "{{\"dual_bits\":{},\"ledger\":{ledger_json}}}",
        dual_value.to_bits()
    )
}

/// Ninety seeded OLD clients over ~90 days with slacks up to 5, so the run
/// crosses several aligned 16-day windows and buys every lease type.
fn old_instance() -> OldInstance {
    let mut rng = seeded(53);
    let mut t = 0u64;
    let clients = (0..90)
        .map(|_| {
            t += rng.random_range(0..3u64);
            OldClient::new(t, rng.random_range(0..6u64))
        })
        .collect();
    OldInstance::new(structure(), clients).unwrap()
}

#[test]
fn old_primal_dual_ledger_and_dual_match_golden() {
    let inst = old_instance();
    let mut driver = Driver::new(OldPrimalDual::new(&inst), inst.structure.clone());
    driver.submit_batch(inst.online_requests()).unwrap();
    let text = ledger_and_dual(&driver.ledger().to_json(), driver.algorithm().dual_value());
    assert_matches_golden("old-primal-dual.json", &text);
}

#[test]
fn multi_day_ledger_matches_golden() {
    let mut rng = seeded(59);
    let mut t = 0u64;
    let clients = (0..50)
        .map(|_| {
            t += rng.random_range(0..6u64);
            let slack = rng.random_range(0..8u64);
            let duration = 1 + rng.random_range(0..=slack.min(3));
            MultiDayClient::new(t, slack, duration)
        })
        .collect();
    let inst = MultiDayInstance::new(structure(), clients).unwrap();
    let mut driver = Driver::new(MultiDayOnline::new(&inst), inst.structure.clone());
    driver.submit_batch(inst.online_requests()).unwrap();
    assert_matches_golden("multi-day-ledger.json", &driver.ledger().to_json());
}

#[test]
fn window_primal_dual_ledger_and_dual_match_golden() {
    let mut rng = seeded(61);
    let mut t = 0u64;
    let clients = (0..60)
        .map(|i| {
            t += rng.random_range(0..5u64);
            match i % 3 {
                0 => WindowClient::interval(t, rng.random_range(0..6u64)),
                1 => WindowClient::periodic(t, 1 + rng.random_range(0..7u64), 3),
                _ => {
                    let first = t + rng.random_range(0..3u64);
                    WindowClient::specific(t, vec![first, first + 5, first + 11]).unwrap()
                }
            }
        })
        .collect();
    let inst = WindowInstance::new(structure(), clients).unwrap();
    let mut driver = Driver::new(WindowPrimalDual::new(&inst), inst.structure.clone());
    driver.submit_batch(inst.online_requests()).unwrap();
    let text = ledger_and_dual(&driver.ledger().to_json(), driver.algorithm().dual_value());
    assert_matches_golden("window-primal-dual.json", &text);
}

#[test]
fn vertex_cover_primal_dual_ledger_and_dual_match_golden() {
    let g = Graph::new(
        6,
        vec![
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (5, 0, 1.0),
            (0, 3, 1.0),
            (1, 4, 1.0),
        ],
    )
    .unwrap();
    let mut rng = seeded(67);
    let mut t = 0u64;
    let arrivals = (0..120)
        .map(|_| {
            t += rng.random_range(0..2u64);
            (t, rng.random_range(0..8usize))
        })
        .collect();
    let weights = vec![1.0, 1.5, 0.75, 2.0, 1.25, 1.0];
    let inst = VcLeasingInstance::new(g, structure(), weights, arrivals).unwrap();
    let mut driver = Driver::new(VcPrimalDual::new(&inst), inst.structure.clone());
    driver.submit_batch(inst.arrivals.iter().copied()).unwrap();
    let text = ledger_and_dual(&driver.ledger().to_json(), driver.algorithm().dual_value());
    assert_matches_golden("vertex-cover-primal-dual.json", &text);
}

#[test]
fn generic_deterministic_permit_ledger_and_dual_match_golden() {
    let mut driver = Driver::new(GenericDeterministicPermit::new(structure()), structure());
    driver
        .submit_batch(phased_days().into_iter().map(|t| (t, ())))
        .unwrap();
    let text = ledger_and_dual(&driver.ledger().to_json(), driver.algorithm().dual_value());
    assert_matches_golden("generic-deterministic-permit.json", &text);
}

#[test]
fn generic_old_purchases_and_cost_match_golden() {
    let inst = old_instance();
    let mut driver = Driver::new(GenericOld::new(&inst), inst.structure.clone());
    driver.submit_batch(inst.online_requests()).unwrap();
    let (cost, alg) = (driver.cost(), driver.algorithm());
    let purchases: Vec<(usize, TimeStep)> = driver
        .ledger()
        .decisions()
        .iter()
        .filter_map(|d| d.lease)
        .map(|l| (l.type_index, l.start))
        .collect();
    let text = format!(
        "{{\"purchases\":{purchases:?},\"cost_bits\":{},\"dual_bits\":{}}}",
        cost.to_bits(),
        alg.dual_value().to_bits()
    );
    assert_matches_golden("generic-old.json", &text);
}
