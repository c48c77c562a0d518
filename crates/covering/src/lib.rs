//! **online-covering** — the generic online primal-dual covering engine
//! behind the thesis' randomized algorithms.
//!
//! Section 2.1 of *Online Resource Leasing* (Markarian, 2015) introduces the
//! primal-dual method as the unifying design technique of the thesis; the
//! randomized algorithms of Chapters 2, 3 and 5 all instantiate the same
//! scheme (due to Buchbinder–Naor, the thesis' references [27, 28]):
//!
//! 1. **Fractional phase** — on each arriving demand, grow the fractions of
//!    its candidate leases multiplicatively until they sum to one
//!    ([`FractionalCovering`]).
//! 2. **Rounding phase** — convert the fractional solution to an integral
//!    one online, either with per-variable thresholds (`min` of `q`
//!    uniforms; [`ThresholdSampler`], Chapters 3/5) or with the suffix-sum
//!    single-τ coupling ([`suffix_crossing`], Chapter 2).
//! 3. **Fallback** — buy the cheapest candidate if rounding left the demand
//!    uncovered ([`CoveringEngine`]).
//!
//! This crate isolates that scheme over arbitrary variable keys and adds an
//! **online dual certificate** ([`DualCertificate`]): a certified lower
//! bound on the offline optimum, produced as a by-product of the fractional
//! update via weak duality (Theorem 2.3) — no LP or ILP solve required.
//!
//! The thesis' *deterministic* primal-dual algorithms (Algorithm 1,
//! Theorem 2.7; the §5.3 OLD algorithm, Theorem 5.3) share the dual-ascent
//! step "raise until tight, buy tight candidates", which lives in
//! [`leasing_core::dual`] and is the one copy every deterministic algorithm
//! of the workspace calls.
//!
//! The [`adapters`] module re-derives all five thesis algorithms as engine
//! instances (the two deterministic ones over
//! [`DualAscent`](leasing_core::dual::DualAscent)) and proves them
//! *bit-for-bit equivalent* to the specialized implementations in
//! `parking-permit`, `set-cover-leasing` and `leasing-deadlines`
//! (experiment E28).
//!
//! ```
//! use online_covering::CoveringEngine;
//!
//! // Lease a meeting room: each constraint is "some candidate must be
//! // active"; the engine grows fractions, rounds, and certifies.
//! let mut engine: CoveringEngine<(&str, u64)> = CoveringEngine::new(4, 42);
//! for day in 0..6u64 {
//!     let candidates = [(("daily", day), 1.0), (("weekly", day / 7), 5.0)];
//!     engine.serve(&candidates);
//! }
//! let cert = engine.certificate();
//! assert!(cert.lower_bound <= engine.total_cost());
//! assert!(engine.total_cost() > 0.0);
//! ```

pub mod adapters;
pub mod engine;
pub mod fractional;
pub mod rounding;

pub use adapters::{
    GenericDeterministicPermit, GenericOld, GenericParkingPermit, GenericScld, GenericSmcl,
};
pub use engine::{CoveringEngine, EngineStats};
pub use fractional::{DualCertificate, FractionalCovering};
pub use rounding::{suffix_crossing, ThresholdSampler};

/// `HashSet` keyed by the engine's deterministic [`FxHasher`]: its
/// iteration order depends on the keys alone, never on a per-process seed.
///
/// [`FxHasher`]: leasing_core::engine::FxHasher
type FxHashSet<V> =
    std::collections::HashSet<V, std::hash::BuildHasherDefault<leasing_core::engine::FxHasher>>;
