//! # jmatch-smt
//!
//! A from-scratch SMT solver used by the JMatch 2.0 reproduction (PLDI 2013,
//! "Reconciling Exhaustive Pattern Matching with Objects") as its stand-in for
//! Z3. It decides quantifier-free formulas over:
//!
//! * booleans with arbitrary propositional structure,
//! * linear integer arithmetic (`QF_LIA`), and
//! * equality with uninterpreted functions and sorts (`QF_UF`),
//!
//! and supports *lazy theory expansion* via the [`LazyExpander`] plugin trait,
//! which the JMatch verifier uses to unroll type invariants and
//! `matches`/`ensures` clauses on demand with iterative deepening — the same
//! architecture the paper builds on Z3's external theory plugin (§6.2).
//!
//! ## Example
//!
//! ```
//! use jmatch_smt::{Solver, SatResult, Sort, TermStore};
//!
//! let mut store = TermStore::new();
//! let mut solver = Solver::new();
//!
//! // n >= 0 && n + 1 <= 0 is unsatisfiable.
//! let n = store.var("n", Sort::Int);
//! let zero = store.int(0);
//! let one = store.int(1);
//! let ge = store.ge(n, zero);
//! let np1 = store.add(n, one);
//! let le = store.le(np1, zero);
//! solver.assert_formula(&store, ge);
//! solver.assert_formula(&store, le);
//! assert_eq!(solver.check(&mut store), SatResult::Unsat);
//! ```
//!
//! ## Architecture
//!
//! | module | role |
//! |---|---|
//! | [`term`] | hash-consed terms, formulas, sorts |
//! | [`sat`] | CDCL propositional core |
//! | [`cnf`] | incremental Tseitin encoding |
//! | [`lia`] | linear integer arithmetic (Fourier–Motzkin + branch-and-bound) |
//! | [`euf`] | congruence closure for equality and uninterpreted functions |
//! | [`hash`] | the integer hasher of every solver-id-keyed table |
//! | [`plugin`] | lazy expansion hooks (Z3 external-theory analog) |
//! | [`pool`] | scoped worker pool for sharding independent solver sessions |
//! | [`solver`] | the DPLL(T) loop with iterative deepening |
//! | [`model`] | satisfying assignments / counterexamples |
//!
//! ## Completeness
//!
//! The solver is sound: `Unsat` answers are always correct, and `Sat` answers
//! come with a model of the asserted formulas as abstracted by the theories.
//! It is deliberately incomplete in two places, both reported as
//! [`SatResult::Unknown`]: branch-and-bound over integers has a branching
//! budget, and lazy expansion has a depth budget. Cross-theory equality
//! propagation (Nelson–Oppen) is not performed, which can make the solver
//! accept a model that a complete combination would reject; for the JMatch
//! verifier this only ever produces *extra* warnings, never missing ones.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cnf;
pub mod euf;
pub mod hash;
pub mod lia;
pub mod model;
pub mod plugin;
pub mod pool;
pub mod rational;
pub mod sat;
pub mod solver;
pub mod sorts;
pub mod sym;
pub mod term;

pub use model::Model;
pub use plugin::{Expansion, LazyExpander, NoExpansion};
pub use pool::{configured_threads, map_ordered};
pub use rational::Rat;
pub use solver::{SatResult, Solver, SolverConfig, SolverStats};
pub use sorts::Sort;
pub use sym::Symbol;
pub use term::{TermData, TermId, TermStore};
