//! Two-phase primal simplex with Bland's anti-cycling rule and an optional
//! warm-start path.
//!
//! The implementation favours robustness over speed: dense tableau,
//! Bland's rule for both the entering and the leaving variable, and dual
//! recovery by solving `Bᵀy = c_B` on the *original* standard-form matrix
//! with Gaussian elimination (immune to tableau drift).
//!
//! # Warm starts
//!
//! [`solve_warm`] accepts the [`WarmStart`] returned by a previous solve
//! and re-installs that basis before optimizing. Basis entries are keyed by
//! *identity* (constraint insertion index, variable index), not by
//! position, so the warm start stays valid when the program has since
//! grown by appended variables and constraints — the incremental per-time
//! covering LPs of the offline oracles. Installation is conservative:
//! whenever the old basis cannot be re-established (singular pivot,
//! primal-infeasible right-hand side, vanished rows), the solver silently
//! falls back to the cold two-phase method, so a warm start can never
//! change the outcome — only the work needed to reach it.

use crate::model::{Cmp, LinearProgram, LpOutcome, LpSolution};
use crate::LP_EPS;
use std::collections::BTreeMap;

/// Identity of an assembled row, stable across re-solves of a grown
/// program: user constraints keep their insertion index, upper-bound rows
/// follow their variable.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum RowId {
    /// The `i`-th explicitly added constraint.
    Constraint(usize),
    /// The internal `x_j ≤ u_j` row of variable `j`.
    Bound(usize),
}

/// Identity of an assembled column, stable across re-solves.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum ColId {
    /// Structural variable `j`.
    Var(usize),
    /// The slack/surplus column of a row.
    Slack(RowId),
    /// The phase-1 artificial column of a row (only ever basic at zero in
    /// an optimal basis).
    Artificial(RowId),
}

/// An opaque basis snapshot from a previous [`solve_warm`] call, reusable
/// as the starting point of the next solve of the same — possibly grown —
/// program.
#[derive(Clone, Debug, Default)]
pub struct WarmStart {
    /// Basic column of each row, keyed by identity.
    basis: Vec<(RowId, ColId)>,
}

impl WarmStart {
    /// Number of basis entries recorded.
    pub fn len(&self) -> usize {
        self.basis.len()
    }

    /// Whether the snapshot carries no basis information.
    pub fn is_empty(&self) -> bool {
        self.basis.is_empty()
    }
}

/// Hard iteration cap. Bland's rule guarantees termination; this cap only
/// guards against tolerance-induced stalls on pathological inputs.
const MAX_ITERS: usize = 500_000;

struct Tableau {
    m: usize,
    ncols: usize,
    /// Current tableau rows (`m x ncols`).
    a: Vec<Vec<f64>>,
    /// Current right-hand sides (always kept `>= -LP_EPS`).
    b: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
}

enum StepOutcome {
    Optimal(f64),
    Unbounded,
}

/// Bounds-checked element read. Out of range reads as `0.0`; every call
/// site derives the index from a scan over the same row set, so the
/// fallback is structurally unreachable and exists only to keep the
/// panic-free contract explicit.
fn at(row: &[f64], j: usize) -> f64 {
    row.get(j).copied().unwrap_or(0.0)
}

impl Tableau {
    fn pivot(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.m && c < self.ncols, "pivot indexes in range");
        // Split the pivot row out so it can be read while every other row
        // is rewritten; `r` comes from the ratio test (or the designated
        // warm-start pivots), so the splits always succeed.
        let (b_head, b_rest) = self.b.split_at_mut(r);
        let (a_head, a_rest) = self.a.split_at_mut(r);
        let (Some((b_r, b_tail)), Some((row_r, a_tail))) =
            (b_rest.split_first_mut(), a_rest.split_first_mut())
        else {
            return;
        };
        let piv = at(row_r, c);
        debug_assert!(piv.abs() > LP_EPS, "pivot on (near-)zero element");
        if piv == 0.0 {
            return;
        }
        let inv = 1.0 / piv;
        for v in row_r.iter_mut() {
            *v *= inv;
        }
        *b_r *= inv;
        let eliminate = |row_i: &mut Vec<f64>, b_i: &mut f64| {
            let f = at(row_i, c);
            if f.abs() <= 1e-13 {
                return;
            }
            for (vi, &vr) in row_i.iter_mut().zip(row_r.iter()) {
                *vi -= f * vr;
            }
            *b_i -= f * *b_r;
            // Clamp tiny negatives introduced by cancellation.
            if *b_i < 0.0 && *b_i > -LP_EPS {
                *b_i = 0.0;
            }
        };
        for (row_i, b_i) in a_head.iter_mut().zip(b_head.iter_mut()) {
            eliminate(row_i, b_i);
        }
        for (row_i, b_i) in a_tail.iter_mut().zip(b_tail.iter_mut()) {
            eliminate(row_i, b_i);
        }
        if let Some(slot) = self.basis.get_mut(r) {
            *slot = c;
        }
    }

    /// Minimises `cost · x` from the current basis, only letting columns with
    /// `allowed[j]` enter. Returns the optimal objective or `Unbounded`.
    fn optimize(&mut self, cost: &[f64], allowed: &[bool]) -> StepOutcome {
        debug_assert_eq!(cost.len(), self.ncols);
        // Basis entries always index `cost`; the fallback mirrors [`at`].
        let cost_of = |j: usize| cost.get(j).copied().unwrap_or(0.0);
        // Reduced costs d_j = c_j - c_B B^{-1} A_j, maintained incrementally.
        // Row-by-row subtraction visits each d_j in the same i-order as the
        // column-by-column definition, so the float stream is unchanged.
        let mut d: Vec<f64> = cost.to_vec();
        for (row, &bi) in self.a.iter().zip(&self.basis) {
            let cb = cost_of(bi);
            if cb != 0.0 {
                for (dj, &aij) in d.iter_mut().zip(row) {
                    *dj -= cb * aij;
                }
            }
        }
        for _ in 0..MAX_ITERS {
            // Bland: entering column = smallest index with negative reduced cost.
            let entering = d
                .iter()
                .zip(allowed)
                .position(|(&dj, &ok)| ok && dj < -LP_EPS);
            let Some(c) = entering else {
                let obj: f64 = self
                    .basis
                    .iter()
                    .zip(&self.b)
                    .map(|(&bi, &bv)| cost_of(bi) * bv)
                    .sum();
                return StepOutcome::Optimal(obj);
            };
            // Ratio test; Bland tie-break on the basis index.
            let mut best: Option<(f64, usize, usize)> = None;
            for (i, ((row, &bv), &bvar)) in self.a.iter().zip(&self.b).zip(&self.basis).enumerate()
            {
                let aic = at(row, c);
                if aic > LP_EPS {
                    let ratio = bv.max(0.0) / aic;
                    let better = match best {
                        None => true,
                        Some((br, _, best_var)) => {
                            ratio < br - 1e-12 || ((ratio - br).abs() <= 1e-12 && bvar < best_var)
                        }
                    };
                    if better {
                        best = Some((ratio, i, bvar));
                    }
                }
            }
            let Some((_, r, _)) = best else {
                return StepOutcome::Unbounded;
            };
            let d_c = d.get(c).copied().unwrap_or(0.0);
            self.pivot(r, c);
            if let Some(row_r) = self.a.get(r) {
                for (dj, &arj) in d.iter_mut().zip(row_r) {
                    *dj -= d_c * arj;
                }
            }
            if let Some(slot) = d.get_mut(c) {
                *slot = 0.0;
            }
        }
        // lint:allow(panic: hard stop for tolerance-induced stalls; Bland's rule makes the cap unreachable on well-posed inputs)
        panic!("simplex iteration limit exceeded — pathological numerical input");
    }
}

/// Solves `lp` (see [`LinearProgram::solve`]).
pub fn solve(lp: &LinearProgram) -> LpOutcome {
    solve_warm(lp, None).0
}

/// Solves `lp`, optionally starting from the basis of a previous solve of
/// the same (possibly since-grown) program, and returns the final basis
/// for the next solve (`None` unless the outcome is optimal).
pub fn solve_warm(lp: &LinearProgram, warm: Option<&WarmStart>) -> (LpOutcome, Option<WarmStart>) {
    let n = lp.num_vars();

    // --- Assemble rows: user constraints first, then upper bounds. ---
    struct Row {
        id: RowId,
        coeffs: Vec<f64>,
        cmp: Cmp,
        rhs: f64,
        flipped: bool,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (i, c) in lp.constraints().iter().enumerate() {
        let mut dense = vec![0.0; n];
        for &(j, a) in &c.coeffs {
            // The model builder validates variable indexes; an out-of-range
            // coefficient would have been rejected there, so the miss arm
            // is dead and the accumulation stays panic-free.
            if let Some(slot) = dense.get_mut(j) {
                *slot += a;
            }
        }
        rows.push(Row {
            id: RowId::Constraint(i),
            coeffs: dense,
            cmp: c.cmp,
            rhs: c.rhs,
            flipped: false,
        });
    }
    let num_user_rows = rows.len();
    for (j, ub) in lp.upper_bounds().iter().enumerate() {
        if let Some(u) = ub {
            let mut dense = vec![0.0; n];
            if let Some(slot) = dense.get_mut(j) {
                *slot = 1.0;
            }
            rows.push(Row {
                id: RowId::Bound(j),
                coeffs: dense,
                cmp: Cmp::Le,
                rhs: *u,
                flipped: false,
            });
        }
    }
    // Normalise to rhs >= 0, flipping the comparison when negating.
    for row in &mut rows {
        if row.rhs < 0.0 {
            for a in &mut row.coeffs {
                *a = -*a;
            }
            row.rhs = -row.rhs;
            row.flipped = true;
            row.cmp = match row.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
    }

    let m = rows.len();
    // Columns: n structural, then one slack/surplus per inequality row, then
    // one artificial per Ge/Eq row.
    let num_slack = rows.iter().filter(|r| r.cmp != Cmp::Eq).count();
    let num_art = rows.iter().filter(|r| r.cmp != Cmp::Le).count();
    let slack_start = n;
    let art_start = n + num_slack;
    let ncols = art_start + num_art;

    let mut a0 = vec![vec![0.0; ncols]; m];
    let mut b0 = vec![0.0; m];
    let mut basis = vec![usize::MAX; m];
    // Identity of every non-structural column, for warm-start resolution
    // in both directions.
    let mut col_ids: Vec<ColId> = (0..n).map(ColId::Var).collect();
    {
        // Writes a single assembled coefficient; columns are allocated
        // above, so the slot always exists.
        fn set(row: &mut [f64], col: usize, v: f64) {
            debug_assert!(col < row.len(), "assembled column in range");
            if let Some(slot) = row.get_mut(col) {
                *slot = v;
            }
        }
        let mut next_slack = slack_start;
        // Artificial columns live after every slack; assign them in row
        // order with a first pass so `col_ids` stays index-aligned.
        let art_of_row: Vec<usize> = rows
            .iter()
            .scan(art_start, |next_art, row| {
                Some(if row.cmp != Cmp::Le {
                    let col = *next_art;
                    *next_art += 1;
                    col
                } else {
                    usize::MAX
                })
            })
            .collect();
        for (((row, a_row), b_slot), (basis_slot, &art_col)) in rows
            .iter()
            .zip(a0.iter_mut())
            .zip(b0.iter_mut())
            .zip(basis.iter_mut().zip(&art_of_row))
        {
            for (dst, &src) in a_row.iter_mut().zip(&row.coeffs) {
                *dst = src;
            }
            *b_slot = row.rhs;
            match row.cmp {
                Cmp::Le => {
                    set(a_row, next_slack, 1.0);
                    *basis_slot = next_slack;
                    col_ids.push(ColId::Slack(row.id));
                    next_slack += 1;
                }
                Cmp::Ge => {
                    set(a_row, next_slack, -1.0);
                    col_ids.push(ColId::Slack(row.id));
                    next_slack += 1;
                    set(a_row, art_col, 1.0);
                    *basis_slot = art_col;
                }
                Cmp::Eq => {
                    set(a_row, art_col, 1.0);
                    *basis_slot = art_col;
                }
            }
        }
        for row in rows.iter().filter(|r| r.cmp != Cmp::Le) {
            col_ids.push(ColId::Artificial(row.id));
        }
        debug_assert_eq!(col_ids.len(), ncols);
    }

    // --- Warm start: try to re-install the previous basis. ---
    let default_basis = basis.clone();
    let warm_tableau = warm.and_then(|w| {
        let row_ids: Vec<RowId> = rows.iter().map(|r| r.id).collect();
        install_warm_basis(w, &row_ids, &col_ids, &a0, &b0, &default_basis)
    });
    let (mut tableau, warm_feasible) = match warm_tableau {
        Some(t) => {
            // A fully re-installed basis with no artificial left is primal
            // feasible as-is: phase 1 can be skipped entirely.
            let clean = t.basis.iter().all(|&c| c < art_start);
            (t, clean)
        }
        None => (
            Tableau {
                m,
                ncols,
                a: a0.clone(),
                b: b0.clone(),
                basis,
            },
            false,
        ),
    };

    // --- Phase 1: minimise the sum of artificials. ---
    if num_art > 0 && !warm_feasible {
        let mut phase1_cost = vec![0.0; art_start];
        phase1_cost.resize(ncols, 1.0);
        let allowed = vec![true; ncols];
        match tableau.optimize(&phase1_cost, &allowed) {
            StepOutcome::Optimal(obj) => {
                if obj > 1e-6 {
                    return (LpOutcome::Infeasible, None);
                }
            }
            StepOutcome::Unbounded => {
                // lint:allow(panic: the phase-1 objective is a sum of nonnegative artificials, bounded below by zero)
                unreachable!("phase-1 objective is bounded below by zero")
            }
        }
        // Drive remaining artificials out of the basis where possible.
        for r in 0..m {
            if tableau.basis.get(r).is_some_and(|&v| v >= art_start) {
                let pivot_col = tableau
                    .a
                    .get(r)
                    .and_then(|row| row.iter().take(art_start).position(|v| v.abs() > 1e-7));
                if let Some(c) = pivot_col {
                    tableau.pivot(r, c);
                }
                // Otherwise the row is redundant; the artificial stays basic
                // at value 0 and is barred from phase 2 below.
            }
        }
    }

    // --- Phase 2: minimise the real objective, artificials barred. ---
    let mut phase2_cost = lp.objective().to_vec();
    phase2_cost.resize(ncols, 0.0);
    let mut allowed = vec![true; art_start];
    allowed.resize(ncols, false);
    let objective = match tableau.optimize(&phase2_cost, &allowed) {
        StepOutcome::Optimal(obj) => obj,
        StepOutcome::Unbounded => return (LpOutcome::Unbounded, None),
    };

    // --- Extract the primal solution. ---
    let mut x = vec![0.0; n];
    for (&v, &bv) in tableau.basis.iter().zip(&tableau.b) {
        // Only structural variables (v < n) land in `x`; slacks and
        // artificials fall through the bounds-checked write.
        if let Some(slot) = x.get_mut(v) {
            *slot = bv.max(0.0);
        }
    }

    // --- Recover duals: solve Bᵀ y = c_B on the original matrix. ---
    let y = solve_duals(&a0, &tableau.basis, &phase2_cost, m);
    let duals = rows
        .iter()
        .zip(&y)
        .take(num_user_rows)
        .map(|(row, &yi)| if row.flipped { -yi } else { yi })
        .collect();

    // --- Snapshot the optimal basis by identity for the next solve. ---
    let next_warm = WarmStart {
        basis: tableau
            .basis
            .iter()
            .zip(&rows)
            .filter_map(|(&c, row)| col_ids.get(c).map(|&cid| (row.id, cid)))
            .collect(),
    };

    (
        LpOutcome::Optimal(LpSolution {
            objective,
            x,
            duals,
        }),
        Some(next_warm),
    )
}

/// Tries to re-install a previous basis onto the freshly assembled
/// standard form: resolves the identity-keyed entries against the current
/// rows/columns, then runs designated-pivot Gauss-Jordan to make the basis
/// columns unit. Returns `None` — cold start — whenever the basis cannot
/// be re-established exactly (unresolvable ids, duplicate columns,
/// singular pivots or a primal-infeasible right-hand side).
fn install_warm_basis(
    warm: &WarmStart,
    row_ids: &[RowId],
    col_ids: &[ColId],
    a0: &[Vec<f64>],
    b0: &[f64],
    default_basis: &[usize],
) -> Option<Tableau> {
    let m = row_ids.len();
    let ncols = col_ids.len();
    if warm.basis.is_empty() {
        return None;
    }
    let row_of: BTreeMap<RowId, usize> = row_ids.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let col_of: BTreeMap<ColId, usize> = col_ids.iter().enumerate().map(|(j, &c)| (c, j)).collect();

    let mut basis = default_basis.to_vec();
    for &(rid, cid) in &warm.basis {
        if let (Some(&r), Some(&c)) = (row_of.get(&rid), col_of.get(&cid)) {
            if let Some(slot) = basis.get_mut(r) {
                *slot = c;
            }
        }
        // Vanished rows/columns keep their default (slack/artificial) basic.
    }
    // A basis must not repeat a column (an out-of-range entry — impossible,
    // since every entry came from `col_of` — also falls back to cold).
    let mut used = vec![false; ncols];
    for &c in &basis {
        match used.get_mut(c) {
            Some(flag) if !*flag => *flag = true,
            _ => return None,
        }
    }

    let mut tableau = Tableau {
        m,
        ncols,
        a: a0.to_vec(),
        b: b0.to_vec(),
        basis: basis.clone(),
    };
    // Designated-pivot Gauss-Jordan: default rows already hold their unit
    // slack/artificial column, so only overridden rows need a pivot.
    for (r, (&c, &default)) in basis.iter().zip(default_basis).enumerate() {
        if c == default {
            continue;
        }
        let pivotable = tableau.a.get(r).is_some_and(|row| at(row, c).abs() > 1e-9);
        if !pivotable {
            return None;
        }
        tableau.pivot(r, c);
    }
    // The simplex invariant requires B⁻¹ b ≥ 0. Artificials basic at a
    // *positive* value are fine — freshly appended rows start exactly
    // there, and phase 1 (which runs whenever an artificial is basic) only
    // has to repair those rows instead of re-deriving the whole basis.
    for b in &mut tableau.b {
        if *b < 0.0 && *b > -LP_EPS {
            *b = 0.0;
        }
        if *b < 0.0 {
            return None;
        }
    }
    Some(tableau)
}

/// Solves `Bᵀ y = c_B` by Gaussian elimination with partial pivoting, where
/// `B` consists of the original standard-form columns of the basic
/// variables. Returns `y` (length `m`); a numerically singular basis yields
/// a least-effort solution with zeros in dependent positions.
fn solve_duals(a0: &[Vec<f64>], basis: &[usize], cost: &[f64], m: usize) -> Vec<f64> {
    // Build the augmented M = [Bᵀ | c_B] (m x m+1): row i is original
    // column basis[i] read down all rows, with rhs cost[basis[i]].
    let mut mat: Vec<Vec<f64>> = basis
        .iter()
        .take(m)
        .map(|&bi| {
            let mut row: Vec<f64> = a0.iter().map(|orig| at(orig, bi)).collect();
            row.push(cost.get(bi).copied().unwrap_or(0.0));
            row
        })
        .collect();
    // Forward elimination with partial pivoting.
    let mut pivot_col_of_row = vec![usize::MAX; m];
    let mut row = 0;
    for col in 0..m {
        let mut best = row;
        let mut best_abs = 0.0;
        for (r, mrow) in mat.iter().enumerate().skip(row) {
            let v = at(mrow, col).abs();
            if v > best_abs {
                best_abs = v;
                best = r;
            }
        }
        if best_abs <= 1e-10 {
            continue;
        }
        mat.swap(row, best);
        // Split below the pivot row so it can be read while the rows under
        // it are eliminated; `head` is non-empty because it ends at `row`.
        let (head, tail) = mat.split_at_mut(row + 1);
        let Some(src) = head.last() else { continue };
        let piv = at(src, col);
        for dst in tail.iter_mut() {
            let f = at(dst, col) / piv;
            if f.abs() > 1e-13 {
                for (dj, &sj) in dst.iter_mut().zip(src.iter()).skip(col) {
                    *dj -= f * sj;
                }
            }
        }
        if let Some(slot) = pivot_col_of_row.get_mut(row) {
            *slot = col;
        }
        row += 1;
        if row == m {
            break;
        }
    }
    // Back substitution.
    let mut y = vec![0.0; m];
    for r in (0..row).rev() {
        let (Some(&col), Some(mrow)) = (pivot_col_of_row.get(r), mat.get(r)) else {
            continue;
        };
        // Every row below `row` recorded its pivot column; the guard keeps
        // the unset sentinel from overflowing `col + 1`.
        if col >= m {
            continue;
        }
        let mut v = at(mrow, m);
        for (j, &yj) in y.iter().enumerate().skip(col + 1) {
            v -= at(mrow, j) * yj;
        }
        let piv = at(mrow, col);
        if let Some(slot) = y.get_mut(col) {
            *slot = v / piv;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use crate::model::{Cmp, LinearProgram, LpOutcome};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_covering_lp() {
        // min x + 2y  s.t. x + y >= 1, y >= 0.25
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Ge, 0.25);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 1.25);
        assert_close(sol.x[0], 0.75);
        assert_close(sol.x[1], 0.25);
    }

    #[test]
    fn maximization_via_negated_costs() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic: opt 36)
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-3.0);
        let y = lp.add_var(-5.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, -36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
    }

    #[test]
    fn equality_constraints_are_respected() {
        // min x + y s.t. x + y = 2, x - y = 0 -> x = y = 1
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 0.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 2.0);
        assert_close(sol.x[0], 1.0);
        assert_close(sol.x[1], 1.0);
    }

    #[test]
    fn infeasible_lp_is_detected() {
        // x >= 2 and x <= 1 is infeasible.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_lp_is_detected() {
        // min -x with x unbounded above.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 0.0);
        assert_eq!(lp.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn upper_bounds_cap_variables() {
        // min -x, 0 <= x <= 3.5
        let mut lp = LinearProgram::new();
        let x = lp.add_bounded_var(-1.0, 3.5);
        let _ = x;
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, -3.5);
        assert_close(sol.x[0], 3.5);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // min x s.t. -x <= -2  (i.e. x >= 2)
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, -1.0)], Cmp::Le, -2.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Known degenerate instance (Beale-like); Bland must terminate.
        let mut lp = LinearProgram::new();
        let x1 = lp.add_var(-0.75);
        let x2 = lp.add_var(150.0);
        let x3 = lp.add_var(-0.02);
        let x4 = lp.add_var(6.0);
        lp.add_constraint(
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_constraint(vec![(x3, 1.0)], Cmp::Le, 1.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, -0.05);
    }

    #[test]
    fn duals_satisfy_strong_duality_on_covering_lp() {
        // min 3a + 2b s.t. a + b >= 2, a >= 0.5
        let mut lp = LinearProgram::new();
        let a = lp.add_var(3.0);
        let b = lp.add_var(2.0);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 2.0);
        lp.add_constraint(vec![(a, 1.0)], Cmp::Ge, 0.5);
        let sol = lp.solve().expect_optimal();
        // Dual objective = 2*y1 + 0.5*y2 must equal the primal optimum.
        let dual_obj = 2.0 * sol.duals[0] + 0.5 * sol.duals[1];
        assert_close(sol.objective, dual_obj);
        // Covering duals are non-negative.
        assert!(sol.duals.iter().all(|&y| y >= -1e-9));
    }

    #[test]
    fn duals_of_le_rows_are_nonpositive_in_minimisation() {
        // min -x s.t. x <= 5 -> dual of the row is -1.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.duals[0], -1.0);
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        // x + y = 1 listed twice.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 1.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 1.0);
        assert_close(sol.x[0], 1.0);
    }

    #[test]
    fn zero_variable_lp_is_trivially_optimal() {
        let lp = LinearProgram::new();
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 0.0);
        assert!(sol.x.is_empty());
    }

    // --- warm starts -----------------------------------------------------

    #[test]
    fn warm_resolve_of_the_same_program_matches_cold() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Ge, 0.25);
        let (cold, warm) = lp.solve_warm(None);
        let warm = warm.expect("optimal solves return a basis");
        assert!(!warm.is_empty());
        let (again, _) = lp.solve_warm(Some(&warm));
        let a = cold.expect_optimal();
        let b = again.expect_optimal();
        assert_close(a.objective, b.objective);
        assert_eq!(a.x.len(), b.x.len());
        for (u, v) in a.x.iter().zip(&b.x) {
            assert_close(*u, *v);
        }
    }

    /// The oracle use case: grow a covering LP constraint by constraint,
    /// re-solving warm each step; every warm objective must equal the cold
    /// objective of the same program.
    #[test]
    fn incrementally_grown_covering_lp_stays_correct_under_warm_starts() {
        let mut lp = LinearProgram::new();
        let mut warm: Option<crate::WarmStart> = None;
        let mut vars = Vec::new();
        for step in 0..6 {
            // One new variable and one new covering row touching a window
            // of recent variables — the shape of the per-time oracle LPs.
            let v = lp.add_bounded_var(1.0 + 0.3 * step as f64, 1.0);
            vars.push(v);
            let row: Vec<(usize, f64)> = vars.iter().rev().take(3).map(|&v| (v, 1.0)).collect();
            lp.add_constraint(row, Cmp::Ge, 1.0);
            let (warm_outcome, next) = lp.solve_warm(warm.as_ref());
            let warm_sol = warm_outcome.expect_optimal();
            let cold_sol = lp.solve().expect_optimal();
            assert_close(warm_sol.objective, cold_sol.objective);
            assert!(lp.is_feasible(&warm_sol.x, 1e-6), "step {step}");
            warm = next;
        }
    }

    #[test]
    fn warm_start_survives_infeasible_and_unbounded_transitions() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        let (_, warm) = lp.solve_warm(None);
        let warm = warm.unwrap();
        // Growing into infeasibility is detected warm.
        let mut infeasible = lp.clone();
        infeasible.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        let (outcome, next) = infeasible.solve_warm(Some(&warm));
        assert_eq!(outcome, LpOutcome::Infeasible);
        assert!(next.is_none());
        // Growing into unboundedness is detected warm.
        let mut unbounded = lp;
        let z = unbounded.add_var(-1.0);
        unbounded.add_constraint(vec![(z, 1.0)], Cmp::Ge, 0.0);
        let (outcome, next) = unbounded.solve_warm(Some(&warm));
        assert_eq!(outcome, LpOutcome::Unbounded);
        assert!(next.is_none());
    }

    #[test]
    fn stale_warm_starts_fall_back_to_the_cold_answer() {
        // Build a basis on one program, then apply it to an unrelated one:
        // the ids resolve to different rows, installation fails or lands on
        // a nonsense basis, and the fallback must still give the optimum.
        let mut donor = LinearProgram::new();
        let a = donor.add_var(1.0);
        let b = donor.add_var(1.0);
        donor.add_constraint(vec![(a, 1.0), (b, 2.0)], Cmp::Ge, 4.0);
        let (_, warm) = donor.solve_warm(None);
        let warm = warm.unwrap();

        let mut other = LinearProgram::new();
        let x = other.add_var(3.0);
        let y = other.add_var(2.0);
        other.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 2.0);
        other.add_constraint(vec![(x, 1.0)], Cmp::Ge, 0.5);
        let cold = other.solve().expect_optimal();
        let (warm_outcome, _) = other.solve_warm(Some(&warm));
        assert_close(warm_outcome.expect_optimal().objective, cold.objective);
    }

    #[test]
    fn warm_duals_match_cold_duals() {
        let mut lp = LinearProgram::new();
        let a = lp.add_var(3.0);
        let b = lp.add_var(2.0);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 2.0);
        lp.add_constraint(vec![(a, 1.0)], Cmp::Ge, 0.5);
        let (_, warm) = lp.solve_warm(None);
        lp.add_constraint(vec![(b, 1.0)], Cmp::Ge, 0.25);
        let cold = lp.solve().expect_optimal();
        let (warm_outcome, _) = lp.solve_warm(warm.as_ref());
        let warm_sol = warm_outcome.expect_optimal();
        assert_close(warm_sol.objective, cold.objective);
        let dual_obj: f64 = [2.0, 0.5, 0.25]
            .iter()
            .zip(&warm_sol.duals)
            .map(|(rhs, y)| rhs * y)
            .sum();
        assert_close(dual_obj, warm_sol.objective);
    }
}
