//! The verification driver: exhaustiveness, redundancy, totality,
//! disjointness and multiplicity checking (§5).
//!
//! For every method the verifier performs the checks of the paper:
//!
//! * `switch` / `cond` / `if` statements are checked arm by arm for
//!   redundancy and, when no `default`/`else` is present, for exhaustiveness
//!   (§5.1);
//! * `let` statements (including variable declarations) are checked for
//!   totality (§5.1);
//! * declarative method bodies are checked against their `matches` clause
//!   (assertion (2)) and `ensures` clause (assertion (3)) in every mode
//!   (§5.2); interface and abstract methods are checked for
//!   `ExtractM(matches) ⇒ ExtractM(ensures)`;
//! * `|` (disjoint disjunction) arms are checked pairwise disjoint and
//!   non-iterative modes are checked for multiplicity (§5.3).
//!
//! All checks reduce to (un)satisfiability queries against [`jmatch_smt`]
//! with the lazy [`crate::expand::JMatchExpander`] plugin, exactly as the
//! paper discharges them with Z3.
//!
//! ## One solver session per method
//!
//! The paper keeps a single Z3 process alive across all queries (§6.2); this
//! verifier does the same at method granularity with [`jmatch_smt::Solver`]'s
//! assertion scopes. A [`Session`] — one [`TermStore`], one solver, one
//! [`JMatchExpander`] — is threaded through every check of one method, each
//! VC query being delimited by `push`/`pop` so that learned clauses, Tseitin
//! encodings, and expanded invariant/`matches`/`ensures` lemmas carry over
//! from query to query. On top of that, query results are memoized in a
//! per-session cache keyed on the canonicalized (sorted, deduplicated) fact
//! set — hash-consing in the store makes structurally equal formulas share a
//! [`TermId`], so the key is canonical by construction. The driver,
//! [`crate::incremental::VerifyEngine`], owns one session per method, keeps
//! it across edits that leave the method's environment unchanged, and
//! checks dirty methods on a worker pool.

use crate::diag::{Diagnostics, WarningKind};
use crate::expand::JMatchExpander;
use crate::extract;
use crate::table::{ClassTable, MethodInfo, TypeInfo};
use crate::vc::{Env, Seq, VcGen, F};
use jmatch_smt::hash::IdMap;
use jmatch_smt::{SatResult, Solver, SolverConfig, SolverStats, TermId, TermStore};
use jmatch_syntax::ast::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Options controlling verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Maximum lazy-expansion depth (iterative deepening bound, §6.2).
    pub max_expansion_depth: u32,
    /// Whether to emit [`WarningKind::Unknown`] warnings when the solver gives
    /// up rather than staying silent.
    pub report_unknown: bool,
    /// Whether a method's VC queries share one incremental solver session
    /// (the default, mirroring the paper's single Z3 process). Turning this
    /// off rebuilds a solver and expander for every individual query — the
    /// pre-incremental architecture. Its one use off the default is
    /// `jmatch-bench`'s `session_modes_agree_on_the_corpus` test, which
    /// checks that both settings give the same diagnostics on every corpus
    /// row.
    pub session_reuse: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            max_expansion_depth: 3,
            report_unknown: false,
            session_reuse: true,
        }
    }
}

/// The verifier.
#[derive(Debug, Clone)]
pub struct Verifier {
    gen: VcGen,
    options: VerifyOptions,
}

/// The solver session threaded through the checks of one method: one term
/// store, one incremental solver, one lazy expander, and a cache of VC query
/// results keyed on canonicalized fact sets.
#[derive(Debug)]
pub struct Session {
    store: TermStore,
    solver: Solver,
    expander: JMatchExpander,
    cache: IdMap<Vec<TermId>, SatResult>,
    stats: SessionStats,
}

/// Counters describing how a [`Session`] discharged its VC queries.
///
/// The counters are deterministic for a given program and expansion depth,
/// whatever the worker count. The `*_ns` fields sum the solver's per-layer
/// wall-clock times ([`jmatch_smt::SolverStats`]) and vary from run to run,
/// so checks that demand exact repeats (perfbench's, the depth-3 pin in
/// `tests/corpus_diagnostics.rs`) read only the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// VC queries answered by actually running the solver.
    pub solver_queries: u64,
    /// VC queries answered from the canonical-formula cache.
    pub cache_hits: u64,
    /// Candidate boolean models examined across all queries.
    pub rounds: u64,
    /// Theory conflicts (blocking clauses) across all queries.
    pub theory_conflicts: u64,
    /// Lazy-expansion lemmas asserted across all queries.
    pub lemmas: u64,
    /// Congruence-closure checks that extended the previous round's
    /// closure instead of rebuilding it
    /// ([`jmatch_smt::SolverStats::euf_reused`]). The EUF layer's cost
    /// depends on this share of its checks; like the other counters it is
    /// deterministic.
    pub euf_reused: u64,
    /// CDCL conflicts across the whole session.
    pub sat_conflicts: u64,
    /// CDCL decisions across the whole session.
    pub sat_decisions: u64,
    /// CDCL unit propagations across the whole session.
    pub sat_propagations: u64,
    /// Wall-clock nanoseconds in the CDCL core, across all queries.
    pub sat_ns: u64,
    /// Wall-clock nanoseconds in linear-arithmetic checks.
    pub lia_ns: u64,
    /// Wall-clock nanoseconds in congruence-closure checks.
    pub euf_ns: u64,
    /// Wall-clock nanoseconds in lazy expansion
    /// ([`jmatch_smt::SolverStats::expand_ns`]).
    pub expand_ns: u64,
    /// Of `expand_ns`, the wall-clock nanoseconds inside the expander
    /// plugin ([`jmatch_smt::SolverStats::plugin_ns`]).
    pub plugin_ns: u64,
    /// Wall-clock nanoseconds around the solver's checks: opening each
    /// query's scope and asserting its facts, then popping the scope,
    /// which garbage-collects the scope's clauses.
    pub scope_ns: u64,
}

impl SessionStats {
    /// Adds the counters of another session (used when aggregating over
    /// several sessions, e.g. one per method).
    pub fn absorb(&mut self, other: SessionStats) {
        self.solver_queries += other.solver_queries;
        self.cache_hits += other.cache_hits;
        self.rounds += other.rounds;
        self.theory_conflicts += other.theory_conflicts;
        self.lemmas += other.lemmas;
        self.euf_reused += other.euf_reused;
        self.sat_conflicts += other.sat_conflicts;
        self.sat_decisions += other.sat_decisions;
        self.sat_propagations += other.sat_propagations;
        self.sat_ns += other.sat_ns;
        self.lia_ns += other.lia_ns;
        self.euf_ns += other.euf_ns;
        self.expand_ns += other.expand_ns;
        self.plugin_ns += other.plugin_ns;
        self.scope_ns += other.scope_ns;
    }

    /// Folds in one solver query's statistics.
    fn absorb_query(&mut self, qs: SolverStats) {
        self.rounds += qs.rounds;
        self.theory_conflicts += qs.theory_conflicts;
        self.lemmas += qs.lemmas;
        self.euf_reused += qs.euf_reused;
        self.sat_ns += qs.sat_ns;
        self.lia_ns += qs.lia_ns;
        self.euf_ns += qs.euf_ns;
        self.expand_ns += qs.expand_ns;
        self.plugin_ns += qs.plugin_ns;
    }
}

impl Session {
    /// Repoints the session's lazy expander at a (new) verifier without
    /// discarding the term store, the solver's learned clauses, or the VC
    /// result cache.
    ///
    /// This is the session-reuse half of incremental recompilation: a method
    /// whose *verification environment* is unchanged by an edit (same
    /// signature, same spec closure, same type hierarchy — see
    /// [`crate::incremental`]) keeps its session across rebuilds, and only the
    /// expander — whose [`VcGen`] captures the class table of the new
    /// generation — must be swapped, and with it the expansion templates
    /// derived from the old table. Because the expander only ever unrolls
    /// *specs* (`is$T` invariants, `matches`/`ensures` clauses), never bodies,
    /// an unchanged environment means every cached VC verdict and learned
    /// clause is still sound for the new generation; the persistent
    /// [`TermStore`] keeps the hash-consed [`TermId`] cache keys valid.
    pub fn retarget(&mut self, verifier: &Verifier) {
        self.expander = JMatchExpander::new(verifier.gen.clone());
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.stats;
        // The shared solver's CDCL counters are cumulative; per-query
        // throwaway solvers (`session_reuse: false`) were already folded in.
        let (c, d, p) = self.solver.sat_counters();
        stats.sat_conflicts += c;
        stats.sat_decisions += d;
        stats.sat_propagations += p;
        stats
    }
}

/// Verification context threaded through statement checking: accumulated
/// facts (invariants, path conditions, earlier bindings) plus the variable
/// environment.
struct Ctx {
    facts: Vec<TermId>,
    env: Env,
}

impl Verifier {
    /// Creates a verifier for a resolved program.
    pub fn new(table: Arc<ClassTable>, options: VerifyOptions) -> Self {
        Verifier {
            gen: VcGen::new(table),
            options,
        }
    }

    /// Creates a fresh solver session for [`Verifier::verify_method_in`].
    pub fn new_session(&self) -> Session {
        Session {
            store: TermStore::new(),
            solver: Solver::with_config(SolverConfig {
                max_expansion_depth: self.options.max_expansion_depth,
            }),
            expander: JMatchExpander::new(self.gen.clone()),
            cache: IdMap::default(),
            stats: SessionStats::default(),
        }
    }

    /// Verifies a single method (all applicable checks) inside `sess`.
    pub fn verify_method_in(
        &self,
        sess: &mut Session,
        owner: Option<&TypeInfo>,
        minfo: &MethodInfo,
        diags: &mut Diagnostics,
    ) {
        let context = minfo.qualified_name();
        match &minfo.decl.body {
            MethodBody::Absent => self.verify_abstract_specs(sess, minfo, &context, diags),
            MethodBody::Formula(body) => {
                self.verify_declarative(sess, owner, minfo, body, &context, diags);
                self.verify_disjointness_in_formula(sess, owner, minfo, body, &context, diags);
                self.verify_multiplicity(minfo, body, &context, diags);
            }
            MethodBody::Block(stmts) => {
                self.verify_block(sess, owner, minfo, stmts, &context, diags);
            }
        }
    }

    // ------------------------------------------------------------------
    // Solver plumbing
    // ------------------------------------------------------------------

    /// Discharges one VC query through the shared session: the fact set is
    /// canonicalized (hash-consed ids, sorted, deduplicated) and looked up in
    /// the cache; on a miss the facts are asserted inside a `push`/`pop`
    /// scope so learned clauses and expansion lemmas persist while the
    /// query-local assertions retire.
    fn check_sat(&self, sess: &mut Session, facts: &[TermId]) -> SatResult {
        let mut key: Vec<TermId> = facts.to_vec();
        key.sort_unstable();
        key.dedup();
        if !self.options.session_reuse {
            // Baseline architecture: a throwaway solver and expander per
            // query, and no session state beyond the term store — in
            // particular no VC result cache, so benchmarks against this mode
            // measure the full pre-incremental cost of every query.
            sess.stats.solver_queries += 1;
            let mut solver = Solver::with_config(SolverConfig {
                max_expansion_depth: self.options.max_expansion_depth,
            });
            for &f in &key {
                solver.assert_formula(&sess.store, f);
            }
            let mut expander = JMatchExpander::new(self.gen.clone());
            let result = solver.check_with_expander(&mut sess.store, &mut expander);
            sess.stats.absorb_query(solver.stats());
            let (c, d, p) = solver.sat_counters();
            sess.stats.sat_conflicts += c;
            sess.stats.sat_decisions += d;
            sess.stats.sat_propagations += p;
            return result;
        }
        if let Some(hit) = sess.cache.get(&key) {
            sess.stats.cache_hits += 1;
            return hit.clone();
        }
        sess.stats.solver_queries += 1;
        let clock = Instant::now();
        sess.solver.push();
        for &f in &key {
            sess.solver.assert_formula(&sess.store, f);
        }
        let mut scope = clock.elapsed();
        let result = sess
            .solver
            .check_with_expander(&mut sess.store, &mut sess.expander);
        let clock = Instant::now();
        sess.solver.pop();
        scope += clock.elapsed();
        sess.stats.scope_ns += u64::try_from(scope.as_nanos()).unwrap_or(u64::MAX);
        sess.stats.absorb_query(sess.solver.stats());
        sess.cache.insert(key, result.clone());
        result
    }

    /// Sets up the environment for verifying a method of `owner`: `this`,
    /// parameters, and the invariants visible from inside the class.
    fn method_ctx(
        &self,
        store: &mut TermStore,
        owner: Option<&TypeInfo>,
        minfo: &MethodInfo,
    ) -> Ctx {
        let mut env = Env::new();
        let mut seq = Seq::new();
        if let Some(ty) = owner {
            env.self_class = Some(ty.name.clone());
            if !minfo.decl.is_static {
                let this = self.gen.declare_var(
                    store,
                    &mut env,
                    &mut seq,
                    "this",
                    &Type::Named(ty.name.clone()),
                );
                env.this_term = Some(this);
            }
        }
        for p in &minfo.decl.params {
            self.gen
                .declare_var(store, &mut env, &mut seq, &p.name, &p.ty);
        }
        env.result_type = Some(minfo.result_type());
        let mut facts = vec![seq.close(F::True).lower(store)];
        // Private invariants of the owner are available when verifying its own
        // methods (the public ones come through the is$T expansion).
        if let (Some(ty), Some(this)) = (owner, env.this_term) {
            facts.extend(self.private_invariant_facts(store, &ty.name, this));
        }
        Ctx { facts, env }
    }

    /// The owner's private invariants instantiated on a given object term.
    fn private_invariant_facts(
        &self,
        store: &mut TermStore,
        owner: &str,
        this: TermId,
    ) -> Vec<TermId> {
        let mut facts = Vec::new();
        for inv in self.gen.table.visible_invariants(owner, true) {
            if inv.visibility == Visibility::Private {
                let mut e2 = Env::new();
                e2.self_class = Some(owner.to_owned());
                e2.this_term = Some(this);
                let mut s2 = Seq::new();
                self.gen
                    .declare_formula_vars(store, &mut e2, &mut s2, &inv.formula);
                if self.gen.vf(store, &mut e2, &mut s2, &inv.formula).is_ok() {
                    facts.push(s2.close(F::True).lower(store));
                }
            }
        }
        facts
    }

    fn counterexample(&self, store: &TermStore, model: &jmatch_smt::Model, ctx: &Ctx) -> String {
        let mut terms: Vec<TermId> = Vec::new();
        for name in ctx.env.names() {
            if let Some((t, _)) = ctx.env.lookup(name) {
                terms.push(*t);
            }
        }
        terms.sort();
        terms.dedup();
        let rendered = model.display_for(store, &terms);
        if rendered.is_empty() {
            "(no concrete witness rendered)".to_owned()
        } else {
            rendered
        }
    }

    // ------------------------------------------------------------------
    // §5.2: declarative bodies against matches / ensures
    // ------------------------------------------------------------------

    fn verify_declarative(
        &self,
        sess: &mut Session,
        owner: Option<&TypeInfo>,
        minfo: &MethodInfo,
        body: &Formula,
        context: &str,
        diags: &mut Diagnostics,
    ) {
        let owner_name = owner.map(|t| t.name.clone()).unwrap_or_default();
        let matches_clause = self.gen.matches_clause(&owner_name, minfo);
        let ensures_clause = self.gen.ensures_clause(&owner_name, minfo);
        if matches_clause.is_none() && ensures_clause.is_none() {
            return;
        }
        for (mode_idx, mode) in minfo.modes.iter().enumerate() {
            let mut ctx = self.method_ctx(&mut sess.store, owner, minfo);

            // In this mode the unknown parameters are unknowns to be solved by
            // the body; the known parameters keep the terms from the context.
            let env = ctx.env.clone();
            let unknown_names: HashSet<String> = mode.unknown_params.iter().cloned().collect();
            let mut env_for_body = Env::new();
            env_for_body.self_class = env.self_class.clone();
            env_for_body.this_term = env.this_term;
            env_for_body.result_type = env.result_type.clone();
            let mut mode_seq = Seq::new();
            for p in &minfo.decl.params {
                if unknown_names.contains(&p.name) {
                    self.gen.declare_var(
                        &mut sess.store,
                        &mut env_for_body,
                        &mut mode_seq,
                        &p.name,
                        &p.ty,
                    );
                    env_for_body.mark_unknown(&p.name);
                } else if let Some((t, ty)) = env.lookup(&p.name) {
                    env_for_body.bind(p.name.clone(), *t, ty.clone());
                }
            }
            let owner_name_opt = owner.map(|t| t.name.clone());
            if !mode.result_unknown {
                // The result (the matched object) is a known of this mode.
                let rty = minfo.result_type();
                let r = self.gen.declare_var(
                    &mut sess.store,
                    &mut env_for_body,
                    &mut mode_seq,
                    "$result",
                    &rty,
                );
                env_for_body.result_term = Some(r);
                if minfo.constructs_owner() {
                    env_for_body.this_term = Some(r);
                    if let Some(on) = &owner_name_opt {
                        ctx.facts
                            .extend(self.private_invariant_facts(&mut sess.store, on, r));
                    }
                }
            } else if minfo.constructs_owner() {
                // Construction mode: the fields of the object under
                // construction are unknowns to be solved for (§3.1).
                if let Some(ty) = owner {
                    for field in &ty.fields {
                        self.gen.declare_var(
                            &mut sess.store,
                            &mut env_for_body,
                            &mut mode_seq,
                            &field.name,
                            &field.ty,
                        );
                        env_for_body.mark_unknown(&field.name);
                    }
                }
            }
            ctx.facts
                .push(mode_seq.close(F::True).lower(&mut sess.store));

            // Assertion (2): ExtractM(matches) ∧ ¬VF(body) is unsatisfiable.
            if let Some(mclause) = &matches_clause {
                let knowns = self.gen.mode_knowns(minfo, mode, mode_idx);
                let unknowns: Vec<String> = {
                    let mut u = mode.unknown_params.clone();
                    if mode.result_unknown {
                        u.push("result".into());
                    }
                    u
                };
                let extracted = extract::extract(&self.gen.table, mclause, &knowns, &unknowns);
                let mut e_env = env_for_body.clone();
                let mut e_seq = Seq::new();
                self.gen.declare_formula_vars(
                    &mut sess.store,
                    &mut e_env,
                    &mut e_seq,
                    &extracted.formula,
                );
                if self
                    .gen
                    .vf(&mut sess.store, &mut e_env, &mut e_seq, &extracted.formula)
                    .is_err()
                {
                    continue;
                }
                let extract_term = e_seq.close(F::True).lower(&mut sess.store);

                let mut b_env = env_for_body.clone();
                let mut b_seq = Seq::new();
                self.gen
                    .declare_formula_vars(&mut sess.store, &mut b_env, &mut b_seq, body);
                if self
                    .gen
                    .vf(&mut sess.store, &mut b_env, &mut b_seq, body)
                    .is_err()
                {
                    continue;
                }
                let body_neg = b_seq.close(F::True).negate().lower(&mut sess.store);

                let mut facts = ctx.facts.clone();
                facts.push(extract_term);
                facts.push(body_neg);
                match self.check_sat(sess, &facts) {
                    SatResult::Sat(model) => {
                        let ce = self.counterexample(&sess.store, &model, &ctx);
                        diags.warn_with_counterexample(
                            WarningKind::TotalityViolation,
                            context,
                            format!(
                                "mode {mode_idx}: body may fail although the matching precondition holds"
                            ),
                            ce,
                        );
                    }
                    SatResult::Unknown if self.options.report_unknown => {
                        diags.warn(
                            WarningKind::Unknown,
                            context,
                            format!("mode {mode_idx}: could not verify totality"),
                        );
                    }
                    _ => {}
                }
            }

            // Assertion (3): VF(body) ∧ ¬VF(ensures) is unsatisfiable.
            if let Some(eclause) = &ensures_clause {
                let mut b_env = env_for_body.clone();
                let mut b_seq = Seq::new();
                self.gen
                    .declare_formula_vars(&mut sess.store, &mut b_env, &mut b_seq, body);
                if self
                    .gen
                    .vf(&mut sess.store, &mut b_env, &mut b_seq, body)
                    .is_err()
                {
                    continue;
                }
                let body_term = b_seq.close(F::True).lower(&mut sess.store);
                // The ensures clause is evaluated in the environment *after*
                // the body bound its unknowns.
                let mut e_seq = Seq::new();
                self.gen
                    .declare_formula_vars(&mut sess.store, &mut b_env, &mut e_seq, eclause);
                if self
                    .gen
                    .vf(&mut sess.store, &mut b_env, &mut e_seq, eclause)
                    .is_err()
                {
                    continue;
                }
                let ens_neg = e_seq.close(F::True).negate().lower(&mut sess.store);
                let mut facts = ctx.facts.clone();
                facts.push(body_term);
                facts.push(ens_neg);
                match self.check_sat(sess, &facts) {
                    SatResult::Sat(model) => {
                        let ce = self.counterexample(&sess.store, &model, &ctx);
                        diags.warn_with_counterexample(
                            WarningKind::PostconditionViolation,
                            context,
                            format!("mode {mode_idx}: body may succeed without establishing the ensures clause"),
                            ce,
                        );
                    }
                    SatResult::Unknown if self.options.report_unknown => {
                        diags.warn(
                            WarningKind::Unknown,
                            context,
                            format!("mode {mode_idx}: could not verify the ensures clause"),
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    /// Interface / abstract methods: `ExtractM(matches) ⇒ ExtractM(ensures)`.
    fn verify_abstract_specs(
        &self,
        sess: &mut Session,
        minfo: &MethodInfo,
        context: &str,
        diags: &mut Diagnostics,
    ) {
        let (Some(mclause), Some(eclause)) = (&minfo.decl.matches, &minfo.decl.ensures) else {
            return;
        };
        if mclause == eclause {
            return; // `matches ensures(f)` shorthand is trivially consistent.
        }
        for (mode_idx, mode) in minfo.modes.iter().enumerate() {
            let mut ctx = self.method_ctx(&mut sess.store, None, minfo);
            ctx.env.self_class = Some(minfo.owner.clone());
            let knowns = self.gen.mode_knowns(minfo, mode, mode_idx);
            let unknowns: Vec<String> = {
                let mut u = mode.unknown_params.clone();
                if mode.result_unknown {
                    u.push("result".into());
                }
                u
            };
            let em = extract::extract(&self.gen.table, mclause, &knowns, &unknowns);
            let ee = extract::extract(&self.gen.table, eclause, &knowns, &unknowns);
            let mut env = ctx.env.clone();
            if !mode.result_unknown {
                let rty = minfo.result_type();
                let mut seq = Seq::new();
                let r = self
                    .gen
                    .declare_var(&mut sess.store, &mut env, &mut seq, "$result", &rty);
                env.result_term = Some(r);
                if minfo.is_named_constructor() {
                    env.this_term = Some(r);
                }
                ctx.facts.push(seq.close(F::True).lower(&mut sess.store));
            }
            let mut s1 = Seq::new();
            let mut env1 = env.clone();
            self.gen
                .declare_formula_vars(&mut sess.store, &mut env1, &mut s1, &em.formula);
            if self
                .gen
                .vf(&mut sess.store, &mut env1, &mut s1, &em.formula)
                .is_err()
            {
                continue;
            }
            let m_term = s1.close(F::True).lower(&mut sess.store);
            let mut s2 = Seq::new();
            let mut env2 = env.clone();
            self.gen
                .declare_formula_vars(&mut sess.store, &mut env2, &mut s2, &ee.formula);
            if self
                .gen
                .vf(&mut sess.store, &mut env2, &mut s2, &ee.formula)
                .is_err()
            {
                continue;
            }
            let e_neg = s2.close(F::True).negate().lower(&mut sess.store);
            let mut facts = ctx.facts.clone();
            facts.push(m_term);
            facts.push(e_neg);
            if let SatResult::Sat(model) = self.check_sat(sess, &facts) {
                let ce = self.counterexample(&sess.store, &model, &ctx);
                diags.warn_with_counterexample(
                    WarningKind::SpecificationMismatch,
                    context,
                    format!(
                        "mode {mode_idx}: matches clause does not guarantee the ensures clause"
                    ),
                    ce,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // §5.3: disjointness and multiplicity
    // ------------------------------------------------------------------

    fn verify_disjointness_in_formula(
        &self,
        sess: &mut Session,
        owner: Option<&TypeInfo>,
        minfo: &MethodInfo,
        body: &Formula,
        context: &str,
        diags: &mut Diagnostics,
    ) {
        let mut pairs: Vec<(Formula, Formula)> = Vec::new();
        collect_disjoint_pairs(body, &mut pairs);
        for inv in owner.iter().flat_map(|t| t.invariants.iter()) {
            collect_disjoint_pairs(&inv.formula, &mut pairs);
        }
        for (a, b) in pairs {
            let ctx = self.method_ctx(&mut sess.store, owner, minfo);
            let mut env_a = ctx.env.clone();
            let mut seq_a = Seq::new();
            self.gen
                .declare_formula_vars(&mut sess.store, &mut env_a, &mut seq_a, &a);
            let mut env_b = ctx.env.clone();
            let mut seq_b = Seq::new();
            self.gen
                .declare_formula_vars(&mut sess.store, &mut env_b, &mut seq_b, &b);
            if self
                .gen
                .vf(&mut sess.store, &mut env_a, &mut seq_a, &a)
                .is_err()
                || self
                    .gen
                    .vf(&mut sess.store, &mut env_b, &mut seq_b, &b)
                    .is_err()
            {
                continue;
            }
            let ta = seq_a.close(F::True).lower(&mut sess.store);
            let tb = seq_b.close(F::True).lower(&mut sess.store);
            let mut facts = ctx.facts.clone();
            facts.push(ta);
            facts.push(tb);
            if let SatResult::Sat(model) = self.check_sat(sess, &facts) {
                let ce = self.counterexample(&sess.store, &model, &ctx);
                diags.warn_with_counterexample(
                    WarningKind::NotDisjoint,
                    context,
                    "the arms of `|` may match the same value",
                    ce,
                );
            }
        }
    }

    fn verify_multiplicity(
        &self,
        minfo: &MethodInfo,
        body: &Formula,
        context: &str,
        diags: &mut Diagnostics,
    ) {
        for (mode_idx, mode) in minfo.modes.iter().enumerate() {
            if mode.iterative || mode.unknown_params.is_empty() {
                continue;
            }
            if formula_or_mentions(body, &mode.unknown_params) {
                diags.warn(
                    WarningKind::Multiplicity,
                    context,
                    format!(
                        "mode {mode_idx} is not iterative but `||`/`#` may produce several solutions for {:?}",
                        mode.unknown_params
                    ),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // §5.1: statements
    // ------------------------------------------------------------------

    fn verify_block(
        &self,
        sess: &mut Session,
        owner: Option<&TypeInfo>,
        minfo: &MethodInfo,
        stmts: &[Stmt],
        context: &str,
        diags: &mut Diagnostics,
    ) {
        let mut ctx = self.method_ctx(&mut sess.store, owner, minfo);
        self.verify_stmts(sess, &mut ctx, stmts, context, diags);
    }

    fn verify_stmts(
        &self,
        sess: &mut Session,
        ctx: &mut Ctx,
        stmts: &[Stmt],
        context: &str,
        diags: &mut Diagnostics,
    ) {
        for stmt in stmts {
            self.verify_stmt(sess, ctx, stmt, context, diags);
        }
    }

    fn verify_stmt(
        &self,
        sess: &mut Session,
        ctx: &mut Ctx,
        stmt: &Stmt,
        context: &str,
        diags: &mut Diagnostics,
    ) {
        match stmt {
            Stmt::Let(f) => {
                // Totality of the binding (§5.1): negate(VF⟦f⟧) must be unsat.
                let mut env = ctx.env.clone();
                let mut seq = Seq::new();
                self.gen
                    .declare_formula_vars(&mut sess.store, &mut env, &mut seq, f);
                if self.gen.vf(&mut sess.store, &mut env, &mut seq, f).is_err() {
                    return;
                }
                let closed = seq.close(F::True);
                let neg = closed.clone().negate().lower(&mut sess.store);
                let mut facts = ctx.facts.clone();
                facts.push(neg);
                match self.check_sat(sess, &facts) {
                    SatResult::Sat(model) => {
                        let ce = self.counterexample(&sess.store, &model, ctx);
                        diags.warn_with_counterexample(
                            WarningKind::LetMayFail,
                            context,
                            "`let` (or variable initializer) may fail to match",
                            ce,
                        );
                    }
                    SatResult::Unknown if self.options.report_unknown => {
                        diags.warn(
                            WarningKind::Unknown,
                            context,
                            "could not verify `let` totality",
                        );
                    }
                    _ => {}
                }
                // The bindings and facts remain available afterwards.
                ctx.facts.push(closed.lower(&mut sess.store));
                ctx.env = env;
            }
            Stmt::Switch {
                scrutinees,
                cases,
                default,
            } => {
                // Desugar to cond (§5.1): y_i = v_i, arms are pattern matches.
                let mut scrutinee_terms = Vec::new();
                for s in scrutinees {
                    let mut seq = Seq::new();
                    match self
                        .gen
                        .tr_value(&mut sess.store, &mut ctx.env, &mut seq, s)
                    {
                        Ok((t, ty)) => {
                            ctx.facts.push(seq.close(F::True).lower(&mut sess.store));
                            scrutinee_terms.push((t, ty));
                        }
                        Err(_) => return,
                    }
                }
                let arms: Vec<F> = cases
                    .iter()
                    .filter_map(|case| {
                        let mut env = ctx.env.clone();
                        let mut seq = Seq::new();
                        for p in &case.patterns {
                            for (ty, name) in p.declared_vars() {
                                if name != "_" && env.lookup(&name).is_none() {
                                    self.gen.declare_var(
                                        &mut sess.store,
                                        &mut env,
                                        &mut seq,
                                        &name,
                                        &ty,
                                    );
                                }
                            }
                        }
                        for (i, p) in case.patterns.iter().enumerate() {
                            let (t, ty) = scrutinee_terms.get(i)?.clone();
                            self.gen
                                .tr_match(&mut sess.store, &mut env, &mut seq, p, t, &ty)
                                .ok()?;
                        }
                        Some(seq.close(F::True))
                    })
                    .collect();
                if arms.len() == cases.len() {
                    self.check_cond_arms(sess, ctx, &arms, default.is_some(), context, diags);
                }
                for case in cases {
                    self.verify_stmts(sess, ctx, &case.body, context, diags);
                }
                if let Some(d) = default {
                    self.verify_stmts(sess, ctx, d, context, diags);
                }
            }
            Stmt::Cond { arms, else_arm } => {
                let mut translated = Vec::new();
                for (f, _) in arms {
                    let mut env = ctx.env.clone();
                    let mut seq = Seq::new();
                    self.gen
                        .declare_formula_vars(&mut sess.store, &mut env, &mut seq, f);
                    if self.gen.vf(&mut sess.store, &mut env, &mut seq, f).is_err() {
                        return;
                    }
                    translated.push(seq.close(F::True));
                }
                self.check_cond_arms(sess, ctx, &translated, else_arm.is_some(), context, diags);
                for ((f, body), closed) in arms.iter().zip(translated.iter()) {
                    let mut inner = Ctx {
                        facts: ctx.facts.clone(),
                        env: ctx.env.clone(),
                    };
                    // Refine the context with the arm's formula (§5.1).
                    inner.facts.push(closed.clone().lower(&mut sess.store));
                    let _ = f;
                    self.verify_stmts(sess, &mut inner, body, context, diags);
                }
                if let Some(body) = else_arm {
                    self.verify_stmts(sess, ctx, body, context, diags);
                }
            }
            Stmt::If { cond, then, els } => {
                let mut env = ctx.env.clone();
                let mut seq = Seq::new();
                self.gen
                    .declare_formula_vars(&mut sess.store, &mut env, &mut seq, cond);
                if self
                    .gen
                    .vf(&mut sess.store, &mut env, &mut seq, cond)
                    .is_ok()
                {
                    let closed = seq.close(F::True);
                    let mut inner = Ctx {
                        facts: ctx.facts.clone(),
                        env,
                    };
                    inner.facts.push(closed.clone().lower(&mut sess.store));
                    self.verify_stmts(sess, &mut inner, then, context, diags);
                    if let Some(e) = els {
                        let mut inner_else = Ctx {
                            facts: ctx.facts.clone(),
                            env: ctx.env.clone(),
                        };
                        inner_else
                            .facts
                            .push(closed.negate().lower(&mut sess.store));
                        self.verify_stmts(sess, &mut inner_else, e, context, diags);
                    }
                }
            }
            Stmt::Foreach { formula, body }
            | Stmt::While {
                cond: formula,
                body,
            } => {
                let mut env = ctx.env.clone();
                let mut seq = Seq::new();
                self.gen
                    .declare_formula_vars(&mut sess.store, &mut env, &mut seq, formula);
                if self
                    .gen
                    .vf(&mut sess.store, &mut env, &mut seq, formula)
                    .is_ok()
                {
                    let mut inner = Ctx {
                        facts: ctx.facts.clone(),
                        env,
                    };
                    inner.facts.push(seq.close(F::True).lower(&mut sess.store));
                    self.verify_stmts(sess, &mut inner, body, context, diags);
                }
            }
            Stmt::Block(stmts) => self.verify_stmts(sess, ctx, stmts, context, diags),
            Stmt::Return(_) | Stmt::Assign(..) | Stmt::ExprStmt(_) => {}
        }
    }

    /// The cond-verification algorithm of §5.1 over already-translated arms.
    fn check_cond_arms(
        &self,
        sess: &mut Session,
        ctx: &Ctx,
        arms: &[F],
        has_default: bool,
        context: &str,
        diags: &mut Diagnostics,
    ) {
        let mut invariant = ctx.facts.clone();
        for (idx, arm) in arms.iter().enumerate() {
            // Redundancy: I_i ∧ VF⟦f_i⟧ must be satisfiable.
            let arm_term = arm.clone().lower(&mut sess.store);
            let mut facts = invariant.clone();
            facts.push(arm_term);
            match self.check_sat(sess, &facts) {
                SatResult::Unsat => {
                    diags.warn(
                        WarningKind::RedundantArm,
                        context,
                        format!("arm {} can never match", idx + 1),
                    );
                }
                SatResult::Sat(_) | SatResult::Unknown => {}
            }
            // I_{i+1} = I_i ∧ negate(VF⟦f_i⟧).
            invariant.push(arm.negate().lower(&mut sess.store));
        }
        if has_default {
            return;
        }
        match self.check_sat(sess, &invariant) {
            SatResult::Sat(model) => {
                let ce = self.counterexample(&sess.store, &model, ctx);
                diags.warn_with_counterexample(
                    WarningKind::NonExhaustive,
                    context,
                    "the cases do not cover all values",
                    ce,
                );
            }
            SatResult::Unknown => {
                diags.warn(
                    WarningKind::Unknown,
                    context,
                    "could not prove exhaustiveness (no counterexample found within the depth budget)",
                );
            }
            SatResult::Unsat => {}
        }
    }
}

/// Collects the arm pairs of every `|` in a formula (both the formula-level
/// and pattern-level disjoint disjunctions).
fn collect_disjoint_pairs(f: &Formula, out: &mut Vec<(Formula, Formula)>) {
    match f {
        Formula::DisjointOr(a, b) => {
            out.push(((**a).clone(), (**b).clone()));
            collect_disjoint_pairs(a, out);
            collect_disjoint_pairs(b, out);
        }
        Formula::And(a, b) | Formula::Or(a, b) => {
            collect_disjoint_pairs(a, out);
            collect_disjoint_pairs(b, out);
        }
        Formula::Not(a) => collect_disjoint_pairs(a, out),
        Formula::Cmp(_, l, r) => {
            collect_expr_disjoint_pairs(l, r, out);
        }
        Formula::Atom(_) | Formula::Bool(_) => {}
    }
}

fn collect_expr_disjoint_pairs(l: &Expr, r: &Expr, out: &mut Vec<(Formula, Formula)>) {
    // Pattern-level `p1 | p2` on the right of `lhs = ...`: the disjointness
    // obligation is that `lhs = p1` and `lhs = p2` cannot both hold.
    if let Expr::DisjointOr(a, b) = r {
        out.push((
            Formula::Cmp(CmpOp::Eq, l.clone(), (**a).clone()),
            Formula::Cmp(CmpOp::Eq, l.clone(), (**b).clone()),
        ));
    }
    if let Expr::DisjointOr(a, b) = l {
        out.push((
            Formula::Cmp(CmpOp::Eq, r.clone(), (**a).clone()),
            Formula::Cmp(CmpOp::Eq, r.clone(), (**b).clone()),
        ));
    }
}

/// Whether the formula contains a `||` / `#` whose branches mention any of the
/// given unknown parameters (a conservative multiplicity trigger).
fn formula_or_mentions(f: &Formula, unknowns: &[String]) -> bool {
    match f {
        Formula::Or(a, b) => {
            let mut vars = Vec::new();
            collect_formula_var_names(a, &mut vars);
            collect_formula_var_names(b, &mut vars);
            vars.iter().any(|v| unknowns.contains(v))
                || formula_or_mentions(a, unknowns)
                || formula_or_mentions(b, unknowns)
        }
        Formula::And(a, b) | Formula::DisjointOr(a, b) => {
            formula_or_mentions(a, unknowns) || formula_or_mentions(b, unknowns)
        }
        Formula::Not(a) => formula_or_mentions(a, unknowns),
        Formula::Cmp(..) | Formula::Atom(_) | Formula::Bool(_) => false,
    }
}

fn collect_formula_var_names(f: &Formula, out: &mut Vec<String>) {
    match f {
        Formula::Cmp(_, a, b) => {
            out.extend(extract::collect_vars(a));
            out.extend(extract::collect_vars(b));
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
            collect_formula_var_names(a, out);
            collect_formula_var_names(b, out);
        }
        Formula::Not(a) => collect_formula_var_names(a, out),
        Formula::Atom(e) => out.extend(extract::collect_vars(e)),
        Formula::Bool(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{Fingerprints, VerifyEngine};
    use jmatch_syntax::parse_program;

    fn verify(src: &str) -> Diagnostics {
        let program = parse_program(src).unwrap();
        let mut diags = Diagnostics::new();
        let table = ClassTable::build(&program, &mut diags);
        let (mut d, _) = VerifyEngine::new(VerifyOptions::default()).verify(
            &table,
            &Fingerprints::of(&table),
            1,
        );
        d.errors.extend(diags.errors);
        d
    }

    const NAT_INTERFACE: &str = r#"
        interface Nat {
            invariant(this = zero() | succ(_));
            constructor zero() returns();
            constructor succ(Nat n) returns(n);
        }
    "#;

    #[test]
    fn exhaustive_nat_switch_is_clean() {
        let src = format!(
            "{NAT_INTERFACE}
             static Nat plus(Nat m, Nat n) {{
                 switch (m) {{
                     case zero(): return n;
                     case succ(Nat k): return k;
                 }}
             }}"
        );
        let d = verify(&src);
        assert!(
            !d.has_warning(WarningKind::NonExhaustive),
            "{:?}",
            d.warnings
        );
        assert!(
            !d.has_warning(WarningKind::RedundantArm),
            "{:?}",
            d.warnings
        );
    }

    #[test]
    fn missing_case_is_reported() {
        let src = format!(
            "{NAT_INTERFACE}
             static Nat pred(Nat m) {{
                 switch (m) {{
                     case succ(Nat k): return k;
                 }}
             }}"
        );
        let d = verify(&src);
        assert!(
            d.has_warning(WarningKind::NonExhaustive) || d.has_warning(WarningKind::Unknown),
            "expected a nonexhaustiveness warning: {:?}",
            d.warnings
        );
    }

    #[test]
    fn figure6_redundant_nested_succ() {
        let src = format!(
            "{NAT_INTERFACE}
             static int classify(Nat n) {{
                 switch (n) {{
                     case succ(Nat p): return 1;
                     case succ(succ(Nat pp)): return 2;
                     case zero(): return 0;
                 }}
             }}"
        );
        let d = verify(&src);
        assert!(
            d.has_warning(WarningKind::RedundantArm),
            "expected the nested succ arm to be redundant: {:?}",
            d.warnings
        );
        // The zero() arm must NOT be flagged (the paper stresses this).
        let redundant = d.warnings_of(WarningKind::RedundantArm);
        assert_eq!(redundant.len(), 1, "{redundant:?}");
        assert!(redundant[0].message.contains("arm 2"), "{redundant:?}");
        assert!(
            !d.has_warning(WarningKind::NonExhaustive),
            "{:?}",
            d.warnings
        );
    }

    #[test]
    fn znat_totality_uses_private_invariant() {
        let src = r#"
            interface Nat {
                invariant(this = zero() | succ(_));
                constructor zero() returns();
                constructor succ(Nat n) returns(n);
            }
            class ZNat implements Nat {
                int val;
                private invariant(val >= 0);
                private ZNat(int n) matches(n >= 0) returns(n) ( val = n && n >= 0 )
                constructor zero() returns() ( val = 0 )
            }
        "#;
        let d = verify(src);
        assert!(
            !d.has_warning(WarningKind::TotalityViolation),
            "ZNat should verify: {:?}",
            d.warnings
        );
    }

    #[test]
    fn znat_without_invariant_fails_totality() {
        // Removing the private invariant makes the backward mode unverifiable
        // (the paper explains the invariant is what makes it total).
        let src = r#"
            class ZNat {
                int val;
                private ZNat(int n) matches(n >= 0) returns(n) ( val = n && n >= 0 )
            }
        "#;
        let d = verify(src);
        assert!(
            d.has_warning(WarningKind::TotalityViolation),
            "expected a totality warning without the invariant: {:?}",
            d.warnings
        );
    }

    #[test]
    fn let_with_guaranteed_match_is_clean_and_failing_let_warns() {
        let src = r#"
            class C {
                int good(int y) {
                    int x = y + 1;
                    return x;
                }
            }
        "#;
        let d = verify(src);
        assert!(!d.has_warning(WarningKind::LetMayFail), "{:?}", d.warnings);
    }

    #[test]
    fn disjoint_constant_patterns_verify() {
        let src = r#"
            class C {
                int pick(int x) matches(true) returns() ( x = 1 | 2 )
            }
        "#;
        let d = verify(src);
        assert!(!d.has_warning(WarningKind::NotDisjoint), "{:?}", d.warnings);
    }

    #[test]
    fn overlapping_disjoint_patterns_warn() {
        let src = r#"
            class C {
                int pick(int x, int y) matches(true) returns() ( x = y | y + 0 )
            }
        "#;
        let d = verify(src);
        assert!(
            d.has_warning(WarningKind::NotDisjoint),
            "expected a disjointness warning: {:?}",
            d.warnings
        );
    }

    #[test]
    fn multiplicity_warning_for_noniterative_disjunction() {
        let src = r#"
            class C {
                boolean greater(int x) returns(x)
                    ( x = 1 || x = 2 )
            }
        "#;
        let d = verify(src);
        assert!(
            d.has_warning(WarningKind::Multiplicity),
            "expected a multiplicity warning: {:?}",
            d.warnings
        );
    }

    #[test]
    fn iterative_mode_allows_disjunction() {
        let src = r#"
            class C {
                boolean greater(int x) iterates(x)
                    ( x = 1 || x = 2 )
            }
        "#;
        let d = verify(src);
        assert!(
            !d.has_warning(WarningKind::Multiplicity),
            "{:?}",
            d.warnings
        );
    }

    #[test]
    fn default_case_suppresses_exhaustiveness_check() {
        let src = format!(
            "{NAT_INTERFACE}
             static int f(Nat n) {{
                 switch (n) {{
                     case zero(): return 0;
                     default: return 1;
                 }}
             }}"
        );
        let d = verify(&src);
        assert!(
            !d.has_warning(WarningKind::NonExhaustive),
            "{:?}",
            d.warnings
        );
    }
}
