//! # jmatch
//!
//! Facade crate for the reproduction of *Reconciling Exhaustive Pattern
//! Matching with Objects* (Isradisaikul & Myers, PLDI 2013): JMatch 2.0 as a
//! Rust library.
//!
//! The workspace is split into focused crates, all re-exported here:
//!
//! | crate | contents |
//! |---|---|
//! | [`syntax`] | lexer, AST, parser, token counter for the JMatch 2.0 dialect |
//! | [`smt`] | the from-scratch incremental SMT solver standing in for Z3 |
//! | [`core`] | class table, modes, `ExtractM`, VC generation, the verifier, and the [`core::lower`] plan compiler |
//! | [`runtime`] | dynamic semantics: the plan evaluator plus the legacy tree-walking oracle |
//! | [`corpus`] | the paper's Table 1 evaluation programs |
//!
//! ## One solver session per compilation
//!
//! Just as the paper keeps a single Z3 process alive across its checks
//! (§6.2), [`core::compile`] discharges **all** verification conditions of a
//! compilation through one shared [`smt::Solver`] session: each VC query is
//! delimited with `push`/`pop`, the hash-consed term store and atom
//! encodings persist, invariant/`matches`/`ensures` expansion lemmas are
//! replayed from a session cache instead of being re-derived, and query
//! results are memoized by their canonicalized fact sets.
//!
//! ## One lowering pass per program
//!
//! The paper's translation picks a solved form per mode *statically* (§2.3).
//! [`core::lower`] is that pass: after class-table and mode resolution it
//! compiles every method body — declarative formulas, `switch` dispatch,
//! `foreach` enumeration, imperative blocks — into a mode-specialized query
//! plan, and [`runtime::Program`] executes those plans over flat slot frames.
//! The pre-lowering tree-walking interpreter stays available behind
//! [`runtime::Engine::TreeWalk`] as a differential-testing oracle.
//!
//! ## Quick start
//!
//! ```
//! use jmatch::core::{compile, CompileOptions, WarningKind};
//!
//! let source = "
//!     interface Nat {
//!         invariant(this = zero() | succ(_));
//!         constructor zero() returns();
//!         constructor succ(Nat n) returns(n);
//!     }
//!     static Nat pred(Nat m) {
//!         switch (m) {
//!             case succ(Nat k): return k;
//!         }
//!     }
//! ";
//! let compiled = compile(source, &CompileOptions::default())?;
//! assert!(compiled.diagnostics.has_warning(WarningKind::NonExhaustive)
//!     || compiled.diagnostics.has_warning(WarningKind::Unknown));
//! # Ok::<(), jmatch::syntax::ParseError>(())
//! ```
//!
//! ## The embedding API: compile once, query many, pull lazily
//!
//! The paper's compilation story targets Java_yield — coroutines that
//! *lazily* yield one solution at a time (§2.3, §5). The embedding surface
//! mirrors that shape: a [`Workspace`] builds a cheap-to-clone, `Send +
//! Sync` [`Program`] (class table + lowered plans, lowered exactly once),
//! [`MethodRef`] / [`CtorRef`] handles resolve string lookups once, and
//! every enumeration is a [`Query`] whose [`Solutions`] is a pull-based
//! [`Iterator`] — `take(1)` does O(first solution) work. Keep the
//! [`Workspace`] around and later edits ([`Workspace::update_source`] /
//! [`Workspace::update_method`]) rebuild incrementally: only changed
//! methods and their dependents are re-verified and re-lowered.
//!
//! ```
//! use jmatch::{args, Value, Workspace};
//!
//! let source = "
//!     interface Nat {
//!         invariant(this = zero() | succ(_));
//!         constructor zero() returns();
//!         constructor succ(Nat n) returns(n);
//!     }
//!     class ZNat implements Nat {
//!         int val;
//!         private invariant(val >= 0);
//!         private ZNat(int n) matches(n >= 0) returns(n) ( val = n && n >= 0 )
//!         constructor zero() returns() ( val = 0 )
//!         constructor succ(Nat n) returns(n) ( val >= 1 && ZNat(val - 1) = n )
//!     }
//! ";
//! // Compile (and verify) once; `Program` is Send + Sync and cheap to clone.
//! let program = Workspace::new().verify(true).compile(source)?;
//! assert!(program.diagnostics().errors.is_empty());
//!
//! // Resolve handles once, call through them with no per-call lookups.
//! let zero = program.ctor("ZNat", "zero")?;
//! let succ = program.ctor("ZNat", "succ")?;
//! let mut three = zero.construct(args![])?;
//! for _ in 0..3 {
//!     three = succ.construct(args![three])?;
//! }
//!
//! // Backward mode as a lazy query: only the pulled solutions are computed.
//! let pred = program.deconstruct(&three, "succ")?;
//! let first = pred.first().expect("three = succ(two)");
//! assert_eq!(first["n"].field("val"), Some(&Value::Int(2)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use jmatch_core as core;
pub use jmatch_corpus as corpus;
pub use jmatch_runtime as runtime;
pub use jmatch_smt as smt;
pub use jmatch_syntax as syntax;

pub use jmatch_runtime::{
    args, Bindings, CtorRef, Engine, Generation, Limits, MethodRef, Program, Query, RebuildReport,
    Solutions, Value, Workspace,
};
