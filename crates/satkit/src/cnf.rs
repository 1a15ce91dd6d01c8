//! A convenience layer for building CNF formulas: fresh variables, common
//! constraint shapes (implication, equivalence, at-most-one, exactly-one),
//! and Tseitin encodings of AND/OR gates.

use crate::{Lit, Solver, Var};

/// Incremental CNF builder that feeds a [`Solver`].
///
/// The builder owns the solver; retrieve it with [`CnfBuilder::into_solver`]
/// or solve in place via [`CnfBuilder::solver_mut`]. Search-control knobs
/// (e.g. [`Solver::set_restart_policy`], [`Solver::set_interrupt`]) are
/// configured through the same accessor — the builder adds encoding
/// convenience only and never touches solver tuning.
///
/// # Example
///
/// ```
/// use satkit::CnfBuilder;
///
/// let mut b = CnfBuilder::new();
/// let xs: Vec<_> = (0..4).map(|_| b.fresh()).collect();
/// b.exactly_one(xs.iter().map(|&v| satkit::Lit::pos(v)));
/// assert!(b.solver_mut().solve().is_sat());
/// ```
#[derive(Debug, Default)]
pub struct CnfBuilder {
    solver: Solver,
}

impl CnfBuilder {
    /// Create an empty builder.
    pub fn new() -> CnfBuilder {
        CnfBuilder {
            solver: Solver::new(),
        }
    }

    /// Create a fresh variable.
    pub fn fresh(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Access the underlying solver.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Consume the builder, returning the solver.
    pub fn into_solver(self) -> Solver {
        self.solver
    }

    /// Add a raw clause.
    pub fn clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.solver.add_clause(lits);
    }

    /// Assert a single literal.
    pub fn assert_lit(&mut self, l: Lit) {
        self.solver.add_clause([l]);
    }

    /// Add `a -> b`.
    pub fn implies(&mut self, a: Lit, b: Lit) {
        self.solver.add_clause([!a, b]);
    }

    /// Add `a <-> b`.
    pub fn iff(&mut self, a: Lit, b: Lit) {
        self.implies(a, b);
        self.implies(b, a);
    }

    /// Add `if cond then all of `then`` (cond -> l for each l).
    pub fn implies_all<I: IntoIterator<Item = Lit>>(&mut self, cond: Lit, then: I) {
        for l in then {
            self.implies(cond, l);
        }
    }

    /// At least one of the literals holds.
    pub fn at_least_one<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.solver.add_clause(lits);
    }

    /// Pairwise at-most-one encoding (fine for the small sets we use).
    pub fn at_most_one<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let ls: Vec<Lit> = lits.into_iter().collect();
        for i in 0..ls.len() {
            for j in (i + 1)..ls.len() {
                self.solver.add_clause([!ls[i], !ls[j]]);
            }
        }
    }

    /// Exactly one of the literals holds.
    pub fn exactly_one<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let ls: Vec<Lit> = lits.into_iter().collect();
        self.at_least_one(ls.iter().copied());
        self.at_most_one(ls);
    }

    /// Tseitin AND: returns a literal equivalent to the conjunction.
    pub fn and<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let ls: Vec<Lit> = lits.into_iter().collect();
        if ls.len() == 1 {
            return ls[0];
        }
        let g = Lit::pos(self.fresh());
        for &l in &ls {
            self.implies(g, l);
        }
        let mut cl: Vec<Lit> = ls.iter().map(|&l| !l).collect();
        cl.push(g);
        self.clause(cl);
        g
    }

    /// Build a *unary counter* over `lits` (duplicates allowed): returns
    /// `out` with `out[j]` ⟺ at least `j+1` of the literals are true,
    /// truncated to `cap` outputs. Uses the totalizer encoding with both
    /// implication directions, so the outputs are exact.
    pub fn unary_count(&mut self, lits: &[Lit], cap: usize) -> Vec<Lit> {
        match lits.len() {
            0 => Vec::new(),
            1 => vec![lits[0]].into_iter().take(cap).collect(),
            n => {
                let (a, b) = lits.split_at(n / 2);
                let ua = self.unary_count(a, cap);
                let ub = self.unary_count(b, cap);
                self.merge_unary(&ua, &ub, cap)
            }
        }
    }

    fn merge_unary(&mut self, a: &[Lit], b: &[Lit], cap: usize) -> Vec<Lit> {
        let lo = (a.len() + b.len()).min(cap);
        let out: Vec<Lit> = (0..lo).map(|_| Lit::pos(self.fresh())).collect();
        // Direction 1: i of a and j of b true → at least i+j true.
        for i in 0..=a.len() {
            for j in 0..=b.len() {
                let k = i + j;
                if k == 0 || k > lo {
                    continue;
                }
                let mut clause = Vec::new();
                if i > 0 {
                    clause.push(!a[i - 1]);
                }
                if j > 0 {
                    clause.push(!b[j - 1]);
                }
                clause.push(out[k - 1]);
                self.clause(clause);
            }
        }
        // Direction 2: fewer than i+1 in a and fewer than j+1 in b → fewer
        // than i+j+1 total.
        for i in 0..=a.len() {
            for j in 0..=b.len() {
                let k = i + j;
                if k >= lo {
                    continue;
                }
                let mut clause = Vec::new();
                if i < a.len() {
                    clause.push(a[i]);
                }
                if j < b.len() {
                    clause.push(b[j]);
                }
                clause.push(!out[k]);
                self.clause(clause);
            }
        }
        out
    }

    /// Exactly `k` of the literals are true (duplicates allowed and counted
    /// with multiplicity).
    pub fn exactly_k<I: IntoIterator<Item = Lit>>(&mut self, lits: I, k: usize) {
        let ls: Vec<Lit> = lits.into_iter().collect();
        if k > ls.len() {
            // Unsatisfiable.
            self.clause([]);
            return;
        }
        let u = self.unary_count(&ls, k + 1);
        if k >= 1 {
            self.assert_lit(u[k - 1]);
        }
        if k < ls.len() {
            self.assert_lit(!u[k]);
        }
    }

    /// At most `k` of the literals are true (counting multiplicity).
    pub fn at_most_k<I: IntoIterator<Item = Lit>>(&mut self, lits: I, k: usize) {
        let ls: Vec<Lit> = lits.into_iter().collect();
        if k >= ls.len() {
            return;
        }
        let u = self.unary_count(&ls, k + 1);
        self.assert_lit(!u[k]);
    }

    /// Tseitin OR: returns a literal equivalent to the disjunction.
    pub fn or<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let ls: Vec<Lit> = lits.into_iter().collect();
        if ls.len() == 1 {
            return ls[0];
        }
        let g = Lit::pos(self.fresh());
        for &l in &ls {
            self.implies(l, g);
        }
        let mut cl: Vec<Lit> = ls.clone();
        cl.push(!g);
        self.clause(cl);
        g
    }

    /// Tseitin XOR: returns a literal equivalent to `a ≠ b` (the sum bit of
    /// a ripple adder).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let g = Lit::pos(self.fresh());
        self.clause([!g, a, b]);
        self.clause([!g, !a, !b]);
        self.clause([g, !a, b]);
        self.clause([g, a, !b]);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_one_model() {
        let mut b = CnfBuilder::new();
        let xs: Vec<Var> = (0..5).map(|_| b.fresh()).collect();
        b.exactly_one(xs.iter().map(|&v| Lit::pos(v)));
        let s = b.solver_mut();
        assert!(s.solve().is_sat());
        let count = xs.iter().filter(|&&v| s.value(v) == Some(true)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn at_most_one_allows_zero() {
        let mut b = CnfBuilder::new();
        let xs: Vec<Var> = (0..3).map(|_| b.fresh()).collect();
        b.at_most_one(xs.iter().map(|&v| Lit::pos(v)));
        for &v in &xs {
            b.assert_lit(Lit::neg(v));
        }
        assert!(b.solver_mut().solve().is_sat());
    }

    #[test]
    fn at_most_one_rejects_two() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        b.at_most_one([Lit::pos(x), Lit::pos(y)]);
        b.assert_lit(Lit::pos(x));
        b.assert_lit(Lit::pos(y));
        assert!(b.solver_mut().solve().is_unsat());
    }

    #[test]
    fn tseitin_and_semantics() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        let g = b.and([Lit::pos(x), Lit::pos(y)]);
        b.assert_lit(g);
        let s = b.solver_mut();
        assert!(s.solve().is_sat());
        assert_eq!(s.value(x), Some(true));
        assert_eq!(s.value(y), Some(true));
    }

    #[test]
    fn tseitin_and_negated() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        let g = b.and([Lit::pos(x), Lit::pos(y)]);
        b.assert_lit(!g);
        b.assert_lit(Lit::pos(x));
        let s = b.solver_mut();
        assert!(s.solve().is_sat());
        assert_eq!(s.value(y), Some(false));
    }

    #[test]
    fn tseitin_or_semantics() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        let g = b.or([Lit::pos(x), Lit::pos(y)]);
        b.assert_lit(!g);
        let s = b.solver_mut();
        assert!(s.solve().is_sat());
        assert_eq!(s.value(x), Some(false));
        assert_eq!(s.value(y), Some(false));
    }

    #[test]
    fn tseitin_xor_truth_table() {
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut b = CnfBuilder::new();
            let (p, q) = (Lit::pos(b.fresh()), Lit::pos(b.fresh()));
            let g = b.xor(p, q);
            b.assert_lit(if x { p } else { !p });
            b.assert_lit(if y { q } else { !q });
            let s = b.solver_mut();
            assert!(s.solve().is_sat());
            assert_eq!(s.value(g.var()), Some(x != y), "{x} xor {y}");
        }
    }

    #[test]
    fn exactly_k_counts() {
        for n in 1..=5usize {
            for k in 0..=n {
                let mut b = CnfBuilder::new();
                let xs: Vec<Var> = (0..n).map(|_| b.fresh()).collect();
                b.exactly_k(xs.iter().map(|&v| Lit::pos(v)), k);
                let s = b.solver_mut();
                assert!(s.solve().is_sat(), "n={n} k={k}");
                let cnt = xs.iter().filter(|&&v| s.value(v) == Some(true)).count();
                assert_eq!(cnt, k, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn exactly_k_with_duplicates() {
        // x repeated twice + y: exactly 2 ⇒ (x ∧ ¬y) — count 2 — or... x twice
        // counts double, so x=true,y=false (2) or x=false,y can't reach 2.
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        b.exactly_k([Lit::pos(x), Lit::pos(x), Lit::pos(y)], 2);
        let s = b.solver_mut();
        assert!(s.solve().is_sat());
        assert_eq!(s.value(x), Some(true));
        assert_eq!(s.value(y), Some(false));
    }

    #[test]
    fn exactly_k_overconstrained_unsat() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        b.exactly_k([Lit::pos(x)], 2);
        assert!(b.solver_mut().solve().is_unsat());
    }

    #[test]
    fn exactly_k_forced_conflict() {
        let mut b = CnfBuilder::new();
        let xs: Vec<Var> = (0..4).map(|_| b.fresh()).collect();
        b.exactly_k(xs.iter().map(|&v| Lit::pos(v)), 2);
        // Force three of them true: contradiction.
        for &v in &xs[..3] {
            b.assert_lit(Lit::pos(v));
        }
        assert!(b.solver_mut().solve().is_unsat());
    }

    #[test]
    fn at_most_k_boundary() {
        let mut b = CnfBuilder::new();
        let xs: Vec<Var> = (0..4).map(|_| b.fresh()).collect();
        b.at_most_k(xs.iter().map(|&v| Lit::pos(v)), 2);
        for &v in &xs[..2] {
            b.assert_lit(Lit::pos(v));
        }
        let s = b.solver_mut();
        assert!(s.solve().is_sat());
        let cnt = xs.iter().filter(|&&v| s.value(v) == Some(true)).count();
        assert!(cnt <= 2);
    }

    #[test]
    fn unary_count_outputs_are_exact() {
        let mut b = CnfBuilder::new();
        let xs: Vec<Var> = (0..3).map(|_| b.fresh()).collect();
        let u = b.unary_count(&xs.iter().map(|&v| Lit::pos(v)).collect::<Vec<_>>(), 3);
        // Force exactly two true.
        b.assert_lit(Lit::pos(xs[0]));
        b.assert_lit(Lit::pos(xs[1]));
        b.assert_lit(Lit::neg(xs[2]));
        let s = b.solver_mut();
        assert!(s.solve().is_sat());
        assert_eq!(s.value(u[0].var()).map(|v| v == u[0].sign()), Some(true));
        assert_eq!(s.value(u[1].var()).map(|v| v == u[1].sign()), Some(true));
        assert_eq!(s.value(u[2].var()).map(|v| v == u[2].sign()), Some(false));
    }

    #[test]
    fn iff_propagates_both_ways() {
        let mut b = CnfBuilder::new();
        let x = b.fresh();
        let y = b.fresh();
        b.iff(Lit::pos(x), Lit::pos(y));
        b.assert_lit(Lit::neg(y));
        let s = b.solver_mut();
        assert!(s.solve().is_sat());
        assert_eq!(s.value(x), Some(false));
    }
}
