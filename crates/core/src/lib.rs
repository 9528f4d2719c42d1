//! # jmatch-core
//!
//! The static-analysis half of the JMatch 2.0 reproduction (*Reconciling
//! Exhaustive Pattern Matching with Objects*, PLDI 2013): class-table
//! resolution, mode analysis, matching-precondition extraction (`ExtractM`),
//! verification-condition generation (the paper's `F` language and the
//! `VF`/`VM`/`VP` translations of Figure 10), and the verification driver for
//! exhaustiveness, redundancy, totality, disjointness and multiplicity.
//!
//! [`VerifyEngine`] is the one verification driver: it checks every method
//! in its own solver session and caches the verdicts of unchanged methods
//! across edits. The runnable build (parse, resolve, verify, lower) is
//! `jmatch_runtime::Workspace`; code that only needs resolution calls
//! [`jmatch_syntax::parse_program`] and [`ClassTable::build`] directly.
//!
//! ## Example
//!
//! ```
//! use jmatch_core::{ClassTable, Diagnostics, Fingerprints, VerifyEngine, VerifyOptions};
//! use jmatch_core::WarningKind;
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
//! let program = jmatch_syntax::parse_program(source)?;
//! let mut diagnostics = Diagnostics::new();
//! let table = ClassTable::build(&program, &mut diagnostics);
//! let (verdicts, _) = VerifyEngine::new(VerifyOptions::default())
//!     .verify(&table, &Fingerprints::of(&table), 1);
//! // The switch is missing the zero() case, and the verifier says so.
//! assert!(verdicts.has_warning(WarningKind::NonExhaustive)
//!     || verdicts.has_warning(WarningKind::Unknown));
//! # Ok::<(), jmatch_syntax::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod bytecode;
pub mod diag;
pub mod expand;
pub mod extract;
pub mod incremental;
pub mod intern;
pub mod lower;
pub mod table;
pub mod vc;
pub mod verify;

pub use analysis::{AnalysisOptions, AnalysisReport, Justification, Prune};
pub use diag::{CompileError, Diagnostics, Warning, WarningKind};
pub use expand::JMatchExpander;
pub use extract::{extract, Extracted};
pub use incremental::{Fingerprints, RebuildStats, UnitFp, UnitKey, VerifyEngine};
pub use intern::{Interner, Sym};
pub use lower::{MethodPlan, PlanId, ProgramPlan, SlotId};
pub use table::{ClassLayout, ClassTable, MethodInfo, Mode, TypeInfo};
pub use vc::{Env, Seq, VcGen, F};
pub use verify::{Session, SessionStats, Verifier, VerifyOptions};

/// Options of a build: whether to verify, and how deep. `jmatch_runtime`'s
/// `Workspace` keeps one and turns it into [`VerifyOptions`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Whether to run the static verification passes (exhaustiveness,
    /// redundancy, totality, disjointness, multiplicity). Turning this off
    /// corresponds to the "w/o verif" column of the paper's Table 1.
    pub verify: bool,
    /// Iterative-deepening bound for lazy expansion (§6.2).
    pub max_expansion_depth: u32,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            verify: true,
            max_expansion_depth: VerifyOptions::default().max_expansion_depth,
        }
    }
}
