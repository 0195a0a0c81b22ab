//! Problem-construction API: variables, objective, constraints, bounds.

use crate::revised::solve_sparse;
use crate::simplex::solve_dense;
use crate::types::{LpError, Solution};

/// Direction of the objective function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Min,
    /// Maximize the objective.
    Max,
}

/// Relation between a constraint's left-hand side and its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Left-hand side must be less than or equal to the right-hand side.
    Le,
    /// Left-hand side must be greater than or equal to the right-hand side.
    Ge,
    /// Left-hand side must equal the right-hand side.
    Eq,
}

/// A single linear constraint in sparse form.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices may repeat (summed).
    pub terms: Vec<(usize, f64)>,
    /// The relation between the linear form and `rhs`.
    pub relation: Relation,
    /// Right-hand-side constant.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
///
/// Variables are indexed `0..num_vars` and implicitly constrained to be
/// non-negative, which matches every model in Tetrium (task fractions,
/// stage durations and WAN volumes are all non-negative quantities). A
/// variable may additionally carry an upper bound ([`Problem::set_upper`]);
/// bounds are handled natively by the solver's bounded ratio test instead
/// of materializing as constraint rows, so pinning a variable to zero or
/// boxing it costs nothing per row. The placement models use `ub = 0` pins
/// for dead sources, which previously required one explicit row per pinned
/// site.
#[derive(Debug, Clone)]
pub struct Problem {
    num_vars: usize,
    sense: Sense,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    upper: Vec<f64>,
}

impl Problem {
    /// Creates a minimization problem with `num_vars` non-negative variables.
    pub fn minimize(num_vars: usize) -> Self {
        Self::new(num_vars, Sense::Min)
    }

    /// Creates a maximization problem with `num_vars` non-negative variables.
    pub fn maximize(num_vars: usize) -> Self {
        Self::new(num_vars, Sense::Max)
    }

    /// Creates a problem with the given objective sense.
    pub fn new(num_vars: usize, sense: Sense) -> Self {
        Self {
            num_vars,
            sense,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
            upper: vec![f64::INFINITY; num_vars],
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the objective coefficients from sparse `(index, coefficient)`
    /// pairs; unspecified coefficients stay zero, repeated indices are summed.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn set_objective(&mut self, terms: &[(usize, f64)]) {
        self.objective = vec![0.0; self.num_vars];
        for &(i, c) in terms {
            assert!(i < self.num_vars, "objective index {i} out of range");
            self.objective[i] += c;
        }
    }

    /// Adds `coefficient` to the objective coefficient of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn add_objective_term(&mut self, var: usize, coefficient: f64) {
        assert!(var < self.num_vars, "objective index {var} out of range");
        self.objective[var] += coefficient;
    }

    /// Sets the upper bound of variable `var` (default `+∞`). `0.0` pins the
    /// variable to zero — the sparse-friendly replacement for an explicit
    /// `x ≤ 0` constraint row.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range, or `ub` is NaN or negative.
    pub fn set_upper(&mut self, var: usize, ub: f64) {
        assert!(var < self.num_vars, "bound index {var} out of range");
        assert!(ub >= 0.0, "upper bound must be non-negative, got {ub}");
        self.upper[var] = ub;
    }

    /// The upper bound of variable `var` (`+∞` if never set).
    pub fn upper_bound(&self, var: usize) -> f64 {
        self.upper[var]
    }

    /// Adds a constraint from sparse `(index, coefficient)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or any value is non-finite.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], relation: Relation, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(i, c) in terms {
            assert!(i < self.num_vars, "constraint index {i} out of range");
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        self.constraints.push(Constraint {
            terms: terms.to_vec(),
            relation,
            rhs,
        });
    }

    /// Solves the problem, returning variable values and objective value.
    ///
    /// Runs the sparse revised simplex ([`crate::revised`]) and extracts the
    /// answer canonically — values and duals are re-derived from the optimal
    /// vertex by a deterministic refinement, so the reported bits are a
    /// function of the problem, not of the pivot path.
    ///
    /// Returns [`LpError::Infeasible`] when no assignment satisfies all
    /// constraints and [`LpError::Unbounded`] when the objective can improve
    /// without limit.
    pub fn solve(&self) -> Result<Solution, LpError> {
        // Normalize to a minimization problem; flip the objective back at the
        // end for maximization.
        let (objective, flip) = self.min_objective();
        let result = solve_sparse(self.num_vars, &objective, &self.constraints, &self.upper);
        #[cfg(feature = "audit")]
        self.audit_against_dense(&objective, &result);
        let mut sol = result?;
        if flip {
            flip_sense(&mut sol);
        }
        Ok(sol)
    }

    /// Solves through the retained dense tableau oracle instead of the
    /// sparse revised simplex. For problems whose bounds are all `0`/`+∞`
    /// the result is bit-identical to [`Problem::solve`] (same normalized
    /// system, same canonical vertex, same refinement); positive finite
    /// bounds are materialized as explicit rows here and are only
    /// tolerance-comparable. Intended for audits, tests and benchmarks —
    /// the dense tableau is O(m·n) *per pivot*.
    ///
    /// # Errors
    ///
    /// Exactly as [`Problem::solve`].
    pub fn solve_dense(&self) -> Result<Solution, LpError> {
        let (objective, flip) = self.min_objective();
        let mut result = solve_dense(self.num_vars, &objective, &self.constraints, &self.upper);
        if flip {
            if let Ok(sol) = &mut result {
                flip_sense(sol);
            }
        }
        result
    }

    /// Minimization-sense objective plus whether the result must flip back.
    fn min_objective(&self) -> (Vec<f64>, bool) {
        let flip = matches!(self.sense, Sense::Max);
        let objective = if flip {
            self.objective.iter().map(|c| -c).collect()
        } else {
            self.objective.clone()
        };
        (objective, flip)
    }

    /// Prints the full problem to stderr so an audit mismatch in a long
    /// scheduler run can be replayed as a standalone LP instance.
    #[cfg(feature = "audit")]
    fn dump_for_repro(&self) {
        eprintln!(
            "lp audit repro: NUM_VARS {}\nSENSE {:?}\nOBJ {:?}\nUPPER {:?}",
            self.num_vars, self.sense, self.objective, self.upper
        );
        for c in &self.constraints {
            eprintln!("CON {:?} {:?} rhs={:?}", c.relation, c.terms, c.rhs);
        }
    }

    /// Audit-mode oracle: re-solves (size-gated) instances through the dense
    /// tableau and asserts agreement with the sparse result — bit-exact
    /// values and objective when the bound pattern is pure `0`/`+∞` (the
    /// only kind the schedulers emit), objective-tolerance otherwise
    /// (finite bounds materialize as rows in the dense system, which indexes
    /// columns differently and may canonicalize a different vertex of the
    /// same optimum).
    #[cfg(feature = "audit")]
    fn audit_against_dense(&self, objective: &[f64], sparse: &Result<Solution, LpError>) {
        // The dense tableau is O(m·n) per pivot; keep audited instances to
        // the scales the figure suite actually solves.
        if self.constraints.len() > 400 || self.num_vars > 1600 {
            return;
        }
        let dense = solve_dense(self.num_vars, objective, &self.constraints, &self.upper);
        match (sparse, &dense) {
            (Err(se), Err(de)) => assert_eq!(
                se, de,
                "lp audit: sparse and dense solver disagree on the error kind"
            ),
            (Ok(_), Err(de)) => {
                self.dump_for_repro();
                panic!("lp audit: dense oracle failed with {de} where sparse solved")
            }
            (Err(se), Ok(_)) => {
                self.dump_for_repro();
                panic!("lp audit: sparse solver failed with {se} where dense solved")
            }
            (Ok(s), Ok(d)) => {
                let pure_bounds = self.upper.iter().all(|&u| u.is_infinite() || u == 0.0);
                if pure_bounds {
                    assert_eq!(
                        s.objective.to_bits(),
                        d.objective.to_bits(),
                        "lp audit: objective mismatch (sparse {} vs dense {})",
                        s.objective,
                        d.objective
                    );
                    for (j, (sv, dv)) in s.values.iter().zip(&d.values).enumerate() {
                        if sv.to_bits() != dv.to_bits() {
                            self.dump_for_repro();
                        }
                        assert_eq!(
                            sv.to_bits(),
                            dv.to_bits(),
                            "lp audit: value mismatch at var {j} (sparse {sv} vs dense {dv})"
                        );
                    }
                } else {
                    let scale = 1.0 + s.objective.abs().max(d.objective.abs());
                    assert!(
                        (s.objective - d.objective).abs() / scale < 1e-6,
                        "lp audit: objective mismatch beyond tolerance (sparse {} vs dense {})",
                        s.objective,
                        d.objective
                    );
                }
            }
        }
    }
}

/// Flips a minimization-sense solution back to maximization sense.
fn flip_sense(sol: &mut Solution) {
    sol.objective = -sol.objective;
    // Duals computed against the negated objective flip with it.
    for d in &mut sol.duals {
        *d = -*d;
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn objective_terms_accumulate() {
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 1.0), (0, 2.0)]);
        p.add_objective_term(1, 4.0);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        p.add_constraint(&[(1, 1.0)], Relation::Ge, 1.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 7.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        let mut p = Problem::minimize(1);
        p.add_constraint(&[(3, 1.0)], Relation::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_bound() {
        let mut p = Problem::minimize(1);
        p.set_upper(0, -1.0);
    }
}
