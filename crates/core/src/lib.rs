//! Core leasing framework shared by every problem crate in this workspace.
//!
//! This crate implements the modelling layer of the thesis *“Online Resource
//! Leasing”* (C. Markarian, 2015; PODC 2015 announcement with F. Meyer auf
//! der Heide):
//!
//! * [`lease`] — lease types `(length, cost)` and validated [`LeaseStructure`]s
//!   (the `K` lease types every problem in the thesis is parameterised by),
//! * [`time`] — the discrete time model and half-open [`Window`]s,
//! * [`interval`] — Meyerson's *interval model* (Definition 2.5) together with
//!   the Lemma 2.6 transformation between the general and the interval model,
//! * [`dual`] — the deterministic primal-dual step "raise the demand's dual
//!   until a candidate is tight" shared by every deterministic algorithm,
//! * [`framework`] — the leasing framework of §2.3 that turns an online
//!   covering problem into its leasing variant,
//! * [`engine`] — the unified driver-facing API: [`LeasingAlgorithm`],
//!   the centralized [`Ledger`] of decisions, the generic [`Driver`] with
//!   typed monotone-time errors, and the [`Report`] summary,
//! * [`harness`] — competitive-ratio accounting used by all experiments,
//! * [`rng`] — seeded randomness helpers (e.g. the min-of-`q`-uniforms
//!   thresholds used by the randomized rounding schemes in Chapters 3 and 5).
//!
//! # Example
//!
//! ```
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//! use leasing_core::interval::candidates_covering;
//!
//! # fn main() -> Result<(), leasing_core::lease::LeaseStructureError> {
//! // Three lease types: a day, a week (8 days), a month (32 days).
//! let structure = LeaseStructure::new(vec![
//!     LeaseType::new(1, 1.0),
//!     LeaseType::new(8, 5.0),
//!     LeaseType::new(32, 15.0),
//! ])?;
//! // In the interval model exactly K leases cover any given day.
//! let candidates = candidates_covering(&structure, 41);
//! assert_eq!(candidates.len(), 3);
//! # Ok(())
//! # }
//! ```

pub mod dual;
pub mod engine;
pub mod framework;
pub mod harness;
pub mod interval;
pub mod lease;
pub mod rng;
pub mod time;

pub use engine::{
    Books, Decision, Driver, DriverError, EngineHandle, EngineStats, LeasingAlgorithm, Ledger,
    Report, SnapshotError,
};
pub use harness::{CompetitiveOutcome, RatioStats};
pub use interval::{aligned_start, candidate_leases, candidates_covering, candidates_intersecting};
pub use lease::{Lease, LeaseStructure, LeaseStructureError, LeaseType};
pub use time::{TimeStep, Window};

/// Absolute tolerance used when comparing accumulated `f64` costs, e.g. for
/// tightness tests (`contribution == cost`) inside primal-dual loops.
pub const EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` are equal up to [`EPS`] (absolute) or a
/// relative tolerance of [`EPS`] for large magnitudes.
///
/// ```
/// assert!(leasing_core::approx_eq(1.0, 1.0 + 1e-12));
/// assert!(!leasing_core::approx_eq(1.0, 1.1));
/// ```
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= EPS || diff <= EPS * a.abs().max(b.abs())
}

/// Returns `true` when `a >= b` up to the shared [`EPS`] tolerance.
///
/// ```
/// assert!(leasing_core::approx_ge(1.0, 1.0 + 1e-12));
/// assert!(!leasing_core::approx_ge(1.0, 1.1));
/// ```
pub fn approx_ge(a: f64, b: f64) -> bool {
    a >= b - EPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_tiny_absolute_error() {
        assert!(approx_eq(0.3, 0.1 + 0.2));
    }

    #[test]
    fn approx_eq_tolerates_relative_error_on_large_values() {
        let big = 1e12;
        assert!(approx_eq(big, big + 1e-1));
    }

    #[test]
    fn approx_eq_rejects_real_differences() {
        assert!(!approx_eq(1.0, 2.0));
        assert!(!approx_eq(-1.0, 1.0));
    }

    #[test]
    fn approx_ge_accepts_equal_and_greater() {
        assert!(approx_ge(2.0, 1.0));
        assert!(approx_ge(1.0, 1.0));
        assert!(approx_ge(1.0 - 1e-12, 1.0));
        assert!(!approx_ge(0.5, 1.0));
    }
}
