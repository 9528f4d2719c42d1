//! The incremental embedding surface: a [`Workspace`] holds a program
//! across edits and rebuilds only what changed.
//!
//! `Workspace` is the one way to build a runnable program: parse, resolve,
//! verify through [`VerifyEngine`], lower, analyze and emit bytecode. A
//! one-shot build ([`Workspace::compile`]) is a workspace with a single
//! generation. A `Workspace` can also be long-lived: it keeps the
//! previous generation's class table, query plans, verification results
//! and solver sessions, so [`Workspace::update_source`] /
//! [`Workspace::update_method`] produce the next [`Program`] generation by
//! re-lowering, re-verifying, re-analyzing and re-compiling **only the
//! methods the edit actually touched** — everything else is shared with the
//! previous generation by `Arc`.
//!
//! ```text
//! Workspace ──load──▶ Generation₀ ──update_source──▶ Generation₁ ── ...
//!                        │ program()                    │ program()
//!                        ▼                              ▼
//!                     Program  (plans shared by Arc)  Program
//! ```
//!
//! # The red/green invariants
//!
//! Incrementality is fingerprint-driven (see [`jmatch_core::incremental`]).
//! Every method unit gets:
//!
//! * a **signature fingerprint** — name, kind, modes, parameters, return
//!   type, `matches`/`ensures` clauses: everything another method's
//!   verification can observe;
//! * a **body fingerprint** — the implementation, which *only* that
//!   method's own lowering and verification observe;
//! * an **environment key** — the fixpoint closure of the signature
//!   fingerprints and type shapes (supertypes, invariants, field types)
//!   the unit's specs can reach. The verifier unrolls *specifications*
//!   (invariants, `matches`, `ensures`), never bodies, so this closure is
//!   exactly what a verification result depends on besides the body;
//! * a **verify key** = H(environment, body). A unit whose verify key
//!   survived the edit is **green**: its cached diagnostics are replayed
//!   verbatim and zero solver queries run. A unit whose verify key changed
//!   is **red** and re-verifies — which is why editing a `matches` clause
//!   re-verifies the *callers* whose environment closure contains it,
//!   while a body-only edit re-verifies just the edited method.
//!
//! Red units whose environment key survived keep their incremental solver
//! session (term store, learned lemmas, canonicalized-VC result cache), so
//! even the re-verification of an edited body replays cached VC verdicts
//! for the parts of the method that did not change.
//!
//! Plans, analysis and bytecode follow the same discipline one level up:
//! when the **structure hash** (type shapes plus every unit's signature)
//! survived, plan ids, interned symbols and dispatch tables are stable, so
//! clean plans are `Arc`-shared, dead-arm analysis carries forward, and
//! bytecode is re-emitted only for changed plans and for plans whose
//! recorded [`jmatch_core::MethodPlan::bc_deps`] (inlining and
//! constructor-match dependencies) intersect the changed set.
//!
//! # Parallel verification
//!
//! Red units are sharded across per-worker solver sessions
//! ([`jmatch_smt::map_ordered`]). Each unit owns its session and results
//! are reassembled in declaration order, so diagnostics are deterministic
//! and **identical at any worker count**. The worker count comes from
//! [`Workspace::verify_threads`], defaulting to the `JMATCH_PAR_THREADS`
//! environment variable (see [`jmatch_smt::pool::configured_threads`]).
//! Queries take no worker count: every enumeration runs on one machine.
//!
//! # Example
//!
//! ```
//! use jmatch_runtime::{args, Value, Workspace};
//!
//! let mut ws = Workspace::new().verify(false);
//! let gen0 = ws.load(
//!     "static int double(int x) { return x + x; }
//!      static int quad(int x) { return double(double(x)); }",
//! )?;
//! assert_eq!(
//!     gen0.program().free_method("quad")?.call(None, args![3])?,
//!     Value::Int(12),
//! );
//!
//! // Edit one body: only `double` (and its inliner `quad`) rebuild.
//! let gen1 = ws.update_method(None, "double", "static int double(int x) { return 2 * x; }")?;
//! assert!(!gen1.report().full);
//! assert_eq!(
//!     gen1.program().free_method("quad")?.call(None, args![3])?,
//!     Value::Int(12),
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::api::Limits;
use crate::{Program, RtError, RtResult};
use jmatch_core::diag::Diagnostics;
use jmatch_core::incremental::Fingerprints;
use jmatch_core::lower::ProgramPlan;
use jmatch_core::table::ClassTable;
use jmatch_core::verify::VerifyOptions;
use jmatch_core::{CompileOptions, SessionStats, VerifyEngine};
use jmatch_syntax::ast::{self, Decl};
use jmatch_syntax::{parse_program, ParseError};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// RebuildReport / Generation
// ---------------------------------------------------------------------------

/// What one workspace rebuild actually did — the accounting a hot-reload
/// server or an IDE loop surfaces to its user.
#[derive(Debug, Clone, Default)]
pub struct RebuildReport {
    /// `true` when the whole program was rebuilt from scratch (first load,
    /// or an edit that changed the program structure: signatures, types,
    /// or the method set).
    pub full: bool,
    /// Qualified names of the methods whose compiled plan changed (re-
    /// lowered, re-analyzed, or bytecode re-emitted), in declaration order.
    pub recompiled: Vec<String>,
    /// Number of method plans shared untouched from the previous
    /// generation.
    pub reused_plans: usize,
    /// Qualified names of the methods that went back to the solver, in
    /// declaration order. Empty when verification is off.
    pub reverified: Vec<String>,
    /// Number of methods whose cached verification diagnostics were
    /// replayed without any solver work.
    pub reused_verifications: usize,
    /// Solver work this rebuild spent (deltas, not session lifetime
    /// totals): `verify_stats.solver_queries` is the counter the
    /// incremental tests assert on. Its `*_ns` fields say where the
    /// verification time went (SAT, LIA, EUF, expansion); they are
    /// wall-clock sums over all verification workers, so they vary from run
    /// to run and with several workers may add up to more than the
    /// rebuild's wall time.
    pub verify_stats: SessionStats,
}

/// One program generation produced by a [`Workspace`] rebuild: the
/// ready-to-query [`Program`] plus the [`RebuildReport`] describing how it
/// was produced.
#[derive(Debug, Clone)]
pub struct Generation {
    program: Program,
    report: RebuildReport,
}

impl Generation {
    /// The compiled program of this generation (cheap to clone; unchanged
    /// plans are shared with the previous generation by `Arc`).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Consumes the generation, keeping only the program.
    pub fn into_program(self) -> Program {
        self.program
    }

    /// What this rebuild re-lowered, re-verified and reused.
    pub fn report(&self) -> &RebuildReport {
        &self.report
    }
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

/// The previous generation's artifacts, carried across edits.
#[derive(Debug)]
struct State {
    ast: ast::Program,
    table: Arc<ClassTable>,
    plan: Arc<ProgramPlan>,
    fps: Fingerprints,
}

/// The compile entry point of the runtime: an editable program whose
/// rebuilds are incremental.
///
/// Configure it with the fluent setters, [`Workspace::load`] the initial
/// source, then feed edits through [`Workspace::update_source`] (whole new
/// source) or [`Workspace::update_method`] (one method declaration). Every
/// call
/// returns a [`Generation`]; see the [module docs](self) for the red/green
/// rules that decide how much of the program each edit rebuilds.
///
/// One-shot compilation is [`Workspace::compile`] — a workspace with a
/// single generation.
#[derive(Debug)]
pub struct Workspace {
    options: CompileOptions,
    limits: Limits,
    verify_threads: usize,
    state: Option<State>,
    verifier: Option<VerifyEngine>,
}

impl Workspace {
    /// A workspace with verification on and default limits; its programs
    /// run on the plan engine.
    pub fn new() -> Self {
        Workspace {
            options: CompileOptions::default(),
            limits: Limits::default(),
            verify_threads: 0,
            state: None,
            verifier: None,
        }
    }

    /// Whether to run the static verification passes (exhaustiveness,
    /// redundancy, totality, disjointness, multiplicity).
    pub fn verify(mut self, on: bool) -> Self {
        self.options.verify = on;
        self
    }

    /// Iterative-deepening bound for the verifier's lazy expansion (§6.2).
    pub fn max_expansion_depth(mut self, depth: u32) -> Self {
        self.options.max_expansion_depth = depth;
        self
    }

    /// Default work ceilings for every query and call of the programs this
    /// workspace produces.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Worker threads for parallel verification of red units. `0` (the
    /// default) defers to the `JMATCH_PAR_THREADS` environment variable
    /// via [`jmatch_smt::pool::configured_threads`]. Any worker count
    /// produces identical diagnostics in identical order.
    pub fn verify_threads(mut self, threads: usize) -> Self {
        self.verify_threads = threads;
        self
    }

    /// Parses, builds and verifies `source` from scratch, resetting any
    /// previous generation **and** the cached verification state. The
    /// baseline every later [`Workspace::update_source`] /
    /// [`Workspace::update_method`] is incremental against.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the source is not syntactically valid;
    /// semantic problems are reported through
    /// [`Program::diagnostics`] of the generation's program.
    pub fn load(&mut self, source: &str) -> Result<Generation, ParseError> {
        let ast = parse_program(source)?;
        self.state = None;
        self.verifier = None;
        Ok(self.rebuild(ast))
    }

    /// One-shot convenience: [`Workspace::load`] and keep only the
    /// program.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the source is not syntactically valid.
    pub fn compile(&mut self, source: &str) -> Result<Program, ParseError> {
        self.load(source).map(Generation::into_program)
    }

    /// Rebuilds against the new full `source`, reusing everything the
    /// edit did not touch (first call behaves like [`Workspace::load`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the source is not syntactically valid —
    /// the previous generation stays current in that case.
    pub fn update_source(&mut self, source: &str) -> Result<Generation, ParseError> {
        let ast = parse_program(source)?;
        Ok(self.rebuild(ast))
    }

    /// Replaces (or adds) **one method declaration** and rebuilds
    /// incrementally. `owner` is the declaring class/interface, or `None`
    /// for a free-standing method; `source` is the full replacement
    /// declaration, e.g. `"static int f(int x) { return x; }"` or, with an
    /// owner, `"constructor zero() returns() ( val = 0 )"`.
    ///
    /// If a method of that name already exists on the owner its first
    /// declaration is replaced (a body-only edit keeps the whole rest of
    /// the program green); otherwise the method is appended.
    ///
    /// # Errors
    ///
    /// Fails when no program is loaded, `owner` names no declared type, or
    /// `source` does not parse as exactly one method declaration. The
    /// previous generation stays current on error.
    pub fn update_method(
        &mut self,
        owner: Option<&str>,
        name: &str,
        source: &str,
    ) -> RtResult<Generation> {
        let state = self
            .state
            .as_ref()
            .ok_or_else(|| RtError::new("no program loaded: call `Workspace::load` first"))?;
        let decl = parse_method_decl(owner, source)?;
        if decl.name != name {
            return Err(RtError::new(format!(
                "replacement declares `{}`, not `{name}`",
                decl.name
            )));
        }
        let mut ast = state.ast.clone();
        splice_method(&mut ast, owner, name, decl)?;
        Ok(self.rebuild(ast))
    }

    /// The class table of the current generation, if any program is
    /// loaded.
    pub fn table(&self) -> Option<&Arc<ClassTable>> {
        self.state.as_ref().map(|s| &s.table)
    }

    // -- internals -----------------------------------------------------------

    fn verify_options(&self) -> VerifyOptions {
        VerifyOptions {
            max_expansion_depth: self.options.max_expansion_depth,
            ..VerifyOptions::default()
        }
    }

    /// The one rebuild pipeline: resolve → fingerprint → (incremental)
    /// verify → (incremental) lower/analyze/bytecode → assemble.
    fn rebuild(&mut self, ast: ast::Program) -> Generation {
        let prev = self.state.take();
        let mut diagnostics = Diagnostics::new();
        let table = match &prev {
            Some(st) => ClassTable::build_reusing(&ast, &mut diagnostics, &st.table),
            None => ClassTable::build(&ast, &mut diagnostics),
        };
        let fps = Fingerprints::of(&table);
        let mut report = RebuildReport::default();

        if self.options.verify {
            let want = self.verify_options();
            let reusable = matches!(&self.verifier, Some(v) if *v.options() == want);
            if !reusable {
                self.verifier = Some(VerifyEngine::new(want));
            }
            let engine = self.verifier.as_mut().expect("verifier just installed");
            let (vdiags, stats) = engine.verify(&table, &fps, self.verify_threads);
            diagnostics.extend(vdiags);
            report.reverified = stats.reverified;
            report.reused_verifications = stats.reused;
            report.verify_stats = stats.stats;
        } else {
            self.verifier = None;
        }

        let incremental = prev.as_ref().filter(|st| st.fps.structure == fps.structure);
        let plan = match incremental {
            Some(st) => {
                let dirty: Vec<bool> = st
                    .fps
                    .units
                    .iter()
                    .zip(&fps.units)
                    .map(|(old, new)| old.body != new.body)
                    .collect();
                let next = ProgramPlan::recompile(&st.plan, Arc::clone(&table), &dirty);
                for (pid, mp) in next.methods().iter().enumerate() {
                    if Arc::ptr_eq(mp, &st.plan.methods()[pid]) {
                        report.reused_plans += 1;
                    } else {
                        report.recompiled.push(mp.info.qualified_name());
                    }
                }
                next
            }
            None => {
                report.full = true;
                let plan = ProgramPlan::compile(Arc::clone(&table));
                report.recompiled = plan
                    .methods()
                    .iter()
                    .map(|mp| mp.info.qualified_name())
                    .collect();
                plan
            }
        };

        let program = Program::assemble(Arc::clone(&plan), self.limits, Arc::new(diagnostics));
        self.state = Some(State {
            ast,
            table,
            plan,
            fps,
        });
        Generation { program, report }
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

/// Parses `source` as exactly one method declaration, in the context of
/// `owner` (so constructors and class-constructor kinds resolve the same
/// way they would inside the real declaration).
fn parse_method_decl(owner: Option<&str>, source: &str) -> RtResult<ast::MethodDecl> {
    let parse_err = |e: ParseError| RtError::new(format!("method does not parse: {e}"));
    match owner {
        None => {
            let prog = parse_program(source).map_err(parse_err)?;
            match <[Decl; 1]>::try_from(prog.decls) {
                Ok([Decl::Method(m)]) => Ok(m),
                _ => Err(RtError::new(
                    "expected exactly one free-standing method declaration",
                )),
            }
        }
        Some(owner) => {
            let wrapped = format!("class {owner} {{ {source} }}");
            let prog = parse_program(&wrapped).map_err(parse_err)?;
            match <[Decl; 1]>::try_from(prog.decls) {
                Ok([Decl::Class(c)]) if c.methods.len() == 1 && c.fields.is_empty() => {
                    Ok(c.methods.into_iter().next().expect("checked length"))
                }
                _ => Err(RtError::new("expected exactly one method declaration")),
            }
        }
    }
}

/// Replaces the first same-named method of `owner` (appending when absent).
fn splice_method(
    ast: &mut ast::Program,
    owner: Option<&str>,
    name: &str,
    decl: ast::MethodDecl,
) -> RtResult<()> {
    let methods: &mut Vec<ast::MethodDecl> = match owner {
        None => {
            for d in ast.decls.iter_mut() {
                if let Decl::Method(m) = d {
                    if m.name == name {
                        *m = decl;
                        return Ok(());
                    }
                }
            }
            ast.decls.push(Decl::Method(decl));
            return Ok(());
        }
        Some(owner) => ast
            .decls
            .iter_mut()
            .find_map(|d| match d {
                Decl::Class(c) if c.name == owner => Some(&mut c.methods),
                Decl::Interface(i) if i.name == owner => Some(&mut i.methods),
                _ => None,
            })
            .ok_or_else(|| RtError::new(format!("no class or interface named `{owner}`")))?,
    };
    match methods.iter_mut().find(|m| m.name == name) {
        Some(slot) => *slot = decl,
        None => methods.push(decl),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;
    use crate::Value;

    const BASE: &str = r#"
        interface Nat {
            invariant(this = zero() | succ(_));
            constructor zero() returns();
            constructor succ(Nat n) returns(n);
        }
        class PZero implements Nat {
            constructor zero() returns() ( true )
            constructor succ(Nat n) returns(n) ( false )
        }
        class PSucc implements Nat {
            Nat pred;
            constructor zero() returns() ( false )
            constructor succ(Nat n) returns(n) ( pred = n )
        }
        static Nat pred(Nat m) {
            switch (m) {
                case succ(Nat k): return k;
                case zero(): return m;
            }
        }
        static int answer() { return 42; }
    "#;

    #[test]
    fn first_load_is_a_full_build() {
        let mut ws = Workspace::new();
        let g = ws.load(BASE).unwrap();
        assert!(g.report().full);
        assert_eq!(g.report().reused_plans, 0);
        assert!(g.report().reverified.len() > 1);
        let answer = g.program().free_method("answer").unwrap();
        assert_eq!(answer.call(None, args![]).unwrap(), Value::Int(42));
    }

    #[test]
    fn identical_source_reuses_everything() {
        let mut ws = Workspace::new();
        ws.load(BASE).unwrap();
        let g = ws.update_source(BASE).unwrap();
        assert!(!g.report().full);
        assert!(g.report().recompiled.is_empty(), "{:?}", g.report());
        assert!(g.report().reverified.is_empty(), "{:?}", g.report());
        assert_eq!(g.report().verify_stats.solver_queries, 0);
    }

    #[test]
    fn body_edit_rebuilds_one_method_and_matches_scratch() {
        let mut ws = Workspace::new();
        let g0 = ws.load(BASE).unwrap();
        let g1 = ws
            .update_method(None, "answer", "static int answer() { return 6 * 7; }")
            .unwrap();
        assert!(!g1.report().full);
        assert_eq!(g1.report().recompiled, vec!["<toplevel>.answer"]);
        assert_eq!(g1.report().reverified, vec!["<toplevel>.answer"]);
        assert_eq!(g1.report().reused_plans, g0.report().recompiled.len() - 1);
        // Diagnostics identical to a from-scratch build of the edited source.
        let scratch = Workspace::new()
            .compile(&BASE.replace("return 42;", "return 6 * 7;"))
            .unwrap();
        assert_eq!(g1.program().diagnostics(), scratch.diagnostics());
        let answer = g1.program().free_method("answer").unwrap();
        assert_eq!(answer.call(None, args![]).unwrap(), Value::Int(42));
        // The old generation still runs the old body.
        let old = g0.program().free_method("answer").unwrap();
        assert_eq!(old.call(None, args![]).unwrap(), Value::Int(42));
    }

    #[test]
    fn method_add_falls_back_to_full_rebuild_and_works() {
        let mut ws = Workspace::new().verify(false);
        ws.load(BASE).unwrap();
        let g = ws
            .update_method(None, "twice", "static int twice(int x) { return x + x; }")
            .unwrap();
        assert!(g.report().full);
        let twice = g.program().free_method("twice").unwrap();
        assert_eq!(twice.call(None, args![21]).unwrap(), Value::Int(42));
    }

    #[test]
    fn update_method_rejects_unknown_owner_and_bad_source() {
        let mut ws = Workspace::new().verify(false);
        assert!(ws
            .update_method(None, "f", "static int f() { return 1; }")
            .is_err());
        ws.load(BASE).unwrap();
        assert!(ws
            .update_method(Some("NoSuch"), "f", "int f() { return 1; }")
            .is_err());
        assert!(ws.update_method(None, "f", "not a method").is_err());
        assert!(ws
            .update_method(None, "f", "static int g() { return 1; }")
            .is_err());
    }

    #[test]
    fn instance_method_edit_via_owner() {
        let mut ws = Workspace::new().verify(false);
        ws.load(BASE).unwrap();
        let g = ws
            .update_method(
                Some("PSucc"),
                "succ",
                "constructor succ(Nat n) returns(n) ( pred = n )",
            )
            .unwrap();
        // Identical declaration: nothing recompiles.
        assert!(!g.report().full);
        assert!(g.report().recompiled.is_empty());
    }
}
