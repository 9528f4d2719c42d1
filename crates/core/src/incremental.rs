//! Red/green dependency tracking for incremental recompilation.
//!
//! This module is the fingerprint layer behind the runtime's `Workspace`
//! editing API: it decides, after an edit, *which* methods must be
//! re-verified (and, via [`structure_hash`], whether lowering can be reused
//! at all) — everything else is green and keeps its cached results.
//!
//! ## The red/green invariants
//!
//! Every method (a *unit*: an owned method in declaration order, then the
//! free-standing methods) gets a [`UnitFp`] built from three ingredients,
//! none of which include source positions — an edit that only shifts line
//! numbers dirties nothing:
//!
//! * **signature fingerprint** ([`sig_fp`]): visibility, staticness,
//!   abstractness, kind, return type, name, parameters, declared modes, and
//!   the `matches`/`ensures` clauses. The specification clauses are part of
//!   the *signature* because they are what other methods' verification
//!   conditions unroll (the lazy expander only ever expands specs — `is$T`
//!   invariants, `matches`, `ensures` — never bodies).
//! * **body fingerprint** ([`body_fp`]): the body alone. Because specs, not
//!   bodies, are what cross-method expansion sees, a body-only edit has no
//!   verification dependents: only the edited method re-verifies.
//! * **environment key** (`UnitFp::env`): a hash of the global hierarchy
//!   (the `is$T` disjointness axioms quantify over *all* concrete classes,
//!   so any subtype edge is global), the unit's own signature, and the
//!   *spec closure* — the fixpoint of every signature and type shape
//!   reachable from the unit through names it mentions, following
//!   `matches`/`ensures` clauses, invariants, field types, and supertypes
//!   (but never bodies).
//!
//! The **verify key** (`UnitFp::verify`) is `H(env, body)`. A unit whose
//! verify key is unchanged across an edit is *green*: its cached
//! [`Diagnostics`] are returned without a single solver query. A unit whose
//! verify key changed but whose environment key survived keeps its
//! incremental solver [`Session`] — the persistent term store keeps every
//! canonicalized VC-cache key valid, so re-verification of a body-only edit
//! starts from all previously learned clauses and cached verdicts.
//!
//! ## Parallel verification
//!
//! Distinct methods own distinct sessions, so dirty units shard across
//! workers with [`jmatch_smt::pool::map_ordered`]: results come back in
//! input (= declaration) order, making the assembled diagnostics
//! deterministic and identical at any worker count.

use crate::diag::Diagnostics;
use crate::table::{ClassTable, MethodInfo, TypeInfo};
use crate::verify::{Session, SessionStats, Verifier, VerifyOptions};
use jmatch_syntax::ast::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Hashes any `Hash` value to a 64-bit fingerprint.
fn fp<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Identifies one verification unit across generations: the owner type
/// (`<toplevel>` for free methods), the method name, and the occurrence
/// index among same-named methods of the same owner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnitKey {
    /// Owner type name (`<toplevel>` for free-standing methods).
    pub owner: String,
    /// Method name.
    pub name: String,
    /// Occurrence index among units with the same `(owner, name)`.
    pub occ: u32,
}

impl UnitKey {
    /// `Owner.name` — the diagnostics context string of the unit.
    pub fn qualified(&self) -> String {
        format!("{}.{}", self.owner, self.name)
    }
}

/// The red/green fingerprints of one verification unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitFp {
    /// Cross-generation identity of the unit.
    pub key: UnitKey,
    /// Signature fingerprint (includes `matches`/`ensures` — see module docs).
    pub sig: u64,
    /// Body fingerprint.
    pub body: u64,
    /// Environment key: hierarchy + own signature + spec closure.
    pub env: u64,
    /// Verify key: `H(env, body)`. Unchanged ⇒ the unit is green.
    pub verify: u64,
}

/// All fingerprints of one program generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprints {
    /// Hash of every type's name, flags and supertype edges, in declaration
    /// order. Any change invalidates every environment key (the `is$T`
    /// disjointness axioms are global).
    pub hierarchy: u64,
    /// Hash of everything lowering depends on: type shapes (fields included)
    /// plus every unit's `(owner, name, kind, sig, has_body)` in unit order.
    /// Plans, slot numbering and dispatch tables can only be reused across
    /// an edit when this is unchanged.
    pub structure: u64,
    /// Per-unit fingerprints, in unit order (types in declaration order,
    /// their methods in declaration order, then free methods).
    pub units: Vec<UnitFp>,
}

/// All verification units of a table, in the canonical unit order: types in
/// declaration order, each type's methods in declaration order, then the
/// free-standing methods. [`VerifyEngine::verify`] reports diagnostics in
/// this order.
pub fn units(table: &ClassTable) -> Vec<(Option<&TypeInfo>, &MethodInfo)> {
    let mut out = Vec::new();
    for ty in table.types() {
        for m in &ty.methods {
            out.push((Some(ty), m));
        }
    }
    for m in table.free_methods() {
        out.push((None, m));
    }
    out
}

/// The signature fingerprint of a method: everything another method's
/// verification can observe about it. Positions are excluded.
pub fn sig_fp(minfo: &MethodInfo) -> u64 {
    let d = &minfo.decl;
    fp(&(
        &d.visibility,
        d.is_static,
        d.is_abstract,
        d.kind,
        &d.return_type,
        &d.name,
        &d.params,
        &d.modes,
        &d.matches,
        &d.ensures,
    ))
}

/// The body fingerprint of a method. Positions are excluded.
pub fn body_fp(minfo: &MethodInfo) -> u64 {
    fp(&minfo.decl.body)
}

/// The shape fingerprint of one type: name, flags, supertypes, fields
/// (including initializers) and invariants — everything verification of
/// *other* code can observe about the type. Positions are excluded.
pub fn type_fp(info: &TypeInfo) -> u64 {
    let fields: Vec<_> = info
        .fields
        .iter()
        .map(|f| (&f.visibility, f.is_static, &f.ty, &f.name, &f.init))
        .collect();
    let invariants: Vec<_> = info
        .invariants
        .iter()
        .map(|i| (&i.visibility, &i.formula))
        .collect();
    fp(&(
        &info.name,
        info.is_interface,
        info.is_abstract,
        &info.supertypes,
        fields,
        invariants,
    ))
}

/// Hash of the global type hierarchy: every type's name, interface/abstract
/// flags and supertype edges, in declaration order. Part of every unit's
/// environment key because the expander's `is$T` axioms assert disjointness
/// against **all** unrelated concrete classes.
pub fn hierarchy_hash(table: &ClassTable) -> u64 {
    let mut h = DefaultHasher::new();
    for ty in table.types() {
        (&ty.name, ty.is_interface, ty.is_abstract, &ty.supertypes).hash(&mut h);
    }
    h.finish()
}

/// Hash of everything lowering depends on: every type's shape fingerprint
/// plus every unit's `(owner, name, kind, sig, has_body)` in unit order.
///
/// When this survives an edit, plan ids, interned symbols and dispatch
/// tables of the previous generation are all still valid (the interner fills
/// in declaration order from exactly these names), so only methods whose
/// *body* fingerprint changed need re-lowering.
pub fn structure_hash(table: &ClassTable) -> u64 {
    let mut h = DefaultHasher::new();
    for ty in table.types() {
        type_fp(ty).hash(&mut h);
    }
    for (_, m) in units(table) {
        (
            &m.owner,
            &m.decl.name,
            m.decl.kind,
            sig_fp(m),
            !matches!(m.decl.body, MethodBody::Absent),
        )
            .hash(&mut h);
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Reference collection (names and types a declaration mentions)
// ---------------------------------------------------------------------

/// Names and type names referenced by some syntax, in sets so closure
/// computation is order-independent.
#[derive(Default)]
struct Refs {
    names: BTreeSet<String>,
    types: BTreeSet<String>,
}

fn collect_type(t: &Type, refs: &mut Refs) {
    match t {
        Type::Named(n) => {
            refs.types.insert(n.clone());
        }
        Type::Array(inner) => collect_type(inner, refs),
        _ => {}
    }
}

fn collect_expr(e: &Expr, refs: &mut Refs) {
    match e {
        Expr::Var(n) => {
            // A bare name can be a local, a field, or a class name used as a
            // static-call receiver; record it as both a callable name and a
            // type name — over-approximation only ever re-verifies more.
            refs.names.insert(n.clone());
            refs.types.insert(n.clone());
        }
        Expr::Decl(ty, _) => collect_type(ty, refs),
        Expr::Field(inner, name) => {
            refs.names.insert(name.clone());
            collect_expr(inner, refs);
        }
        Expr::Call {
            receiver,
            name,
            args,
        } => {
            refs.names.insert(name.clone());
            if let Some(r) = receiver {
                collect_expr(r, refs);
            }
            for a in args {
                collect_expr(a, refs);
            }
        }
        Expr::Index(a, b)
        | Expr::Binary(_, a, b)
        | Expr::As(a, b)
        | Expr::OrPat(a, b)
        | Expr::DisjointOr(a, b) => {
            collect_expr(a, refs);
            collect_expr(b, refs);
        }
        Expr::NewArray(ty, len) => {
            collect_type(ty, refs);
            collect_expr(len, refs);
        }
        Expr::Neg(inner) => collect_expr(inner, refs),
        Expr::Tuple(xs) => {
            for x in xs {
                collect_expr(x, refs);
            }
        }
        Expr::Where(p, f) => {
            collect_expr(p, refs);
            collect_formula(f, refs);
        }
        Expr::IntLit(_)
        | Expr::BoolLit(_)
        | Expr::StrLit(_)
        | Expr::Null
        | Expr::This
        | Expr::Result
        | Expr::Wildcard => {}
    }
}

fn collect_formula(f: &Formula, refs: &mut Refs) {
    match f {
        Formula::Bool(_) => {}
        Formula::Cmp(_, a, b) => {
            collect_expr(a, refs);
            collect_expr(b, refs);
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
            collect_formula(a, refs);
            collect_formula(b, refs);
        }
        Formula::Not(a) => collect_formula(a, refs),
        Formula::Atom(e) => collect_expr(e, refs),
    }
}

fn collect_stmts(stmts: &[Stmt], refs: &mut Refs) {
    for s in stmts {
        collect_stmt(s, refs);
    }
}

fn collect_stmt(s: &Stmt, refs: &mut Refs) {
    match s {
        Stmt::Let(f) => collect_formula(f, refs),
        Stmt::Switch {
            scrutinees,
            cases,
            default,
        } => {
            for e in scrutinees {
                collect_expr(e, refs);
            }
            for c in cases {
                for p in &c.patterns {
                    collect_expr(p, refs);
                }
                collect_stmts(&c.body, refs);
            }
            if let Some(d) = default {
                collect_stmts(d, refs);
            }
        }
        Stmt::Cond { arms, else_arm } => {
            for (f, body) in arms {
                collect_formula(f, refs);
                collect_stmts(body, refs);
            }
            if let Some(e) = else_arm {
                collect_stmts(e, refs);
            }
        }
        Stmt::If { cond, then, els } => {
            collect_formula(cond, refs);
            collect_stmts(then, refs);
            if let Some(e) = els {
                collect_stmts(e, refs);
            }
        }
        Stmt::Foreach { formula, body } => {
            collect_formula(formula, refs);
            collect_stmts(body, refs);
        }
        Stmt::While { cond, body } => {
            collect_formula(cond, refs);
            collect_stmts(body, refs);
        }
        Stmt::Return(e) => {
            if let Some(e) = e {
                collect_expr(e, refs);
            }
        }
        Stmt::Assign(a, b) => {
            collect_expr(a, refs);
            collect_expr(b, refs);
        }
        Stmt::ExprStmt(e) => collect_expr(e, refs),
        Stmt::Block(body) => collect_stmts(body, refs),
    }
}

/// References made by a *signature* (specs and types, no body) — what spec
/// closure follows transitively.
fn spec_refs(minfo: &MethodInfo, refs: &mut Refs) {
    for p in &minfo.decl.params {
        collect_type(&p.ty, refs);
    }
    if let Some(rt) = &minfo.decl.return_type {
        collect_type(rt, refs);
    }
    if let Some(f) = &minfo.decl.matches {
        collect_formula(f, refs);
    }
    if let Some(f) = &minfo.decl.ensures {
        collect_formula(f, refs);
    }
    if minfo.owner != "<toplevel>" {
        refs.types.insert(minfo.owner.clone());
    }
}

/// References made by the whole declaration, body included — the closure
/// *seeds* for the declaring unit itself.
fn decl_refs(minfo: &MethodInfo, refs: &mut Refs) {
    spec_refs(minfo, refs);
    refs.names.insert(minfo.decl.name.clone());
    match &minfo.decl.body {
        MethodBody::Absent => {}
        MethodBody::Formula(f) => collect_formula(f, refs),
        MethodBody::Block(stmts) => collect_stmts(stmts, refs),
    }
}

/// The environment key of one unit: hierarchy hash + own signature + the
/// spec closure of everything the unit references.
///
/// The closure follows a name to the signatures of **all** same-named units
/// (method dispatch is by name at spec level), and from there through their
/// `matches`/`ensures` clauses and parameter/return types — never bodies. A
/// type pulls in its shape fingerprint, supertypes, invariant references
/// and field types. Material is accumulated in a [`BTreeSet`] so the hash
/// is independent of traversal order.
fn env_key(table: &ClassTable, minfo: &MethodInfo, hierarchy: u64, sig: u64) -> u64 {
    let mut seeds = Refs::default();
    decl_refs(minfo, &mut seeds);

    // (tag, name, fingerprint) — tag 0 for unit signatures, 1 for types.
    let mut material: BTreeSet<(u8, String, u64)> = BTreeSet::new();
    let mut done_names: BTreeSet<String> = BTreeSet::new();
    let mut done_types: BTreeSet<String> = BTreeSet::new();
    let mut pending_names: Vec<String> = seeds.names.into_iter().collect();
    let mut pending_types: Vec<String> = seeds.types.into_iter().collect();
    let all_units = units(table);

    loop {
        if let Some(n) = pending_names.pop() {
            if !done_names.insert(n.clone()) {
                continue;
            }
            for (_, u) in all_units.iter().filter(|(_, u)| u.decl.name == n) {
                material.insert((0, u.qualified_name(), sig_fp(u)));
                let mut refs = Refs::default();
                spec_refs(u, &mut refs);
                pending_names.extend(refs.names);
                pending_types.extend(refs.types);
            }
        } else if let Some(t) = pending_types.pop() {
            if !done_types.insert(t.clone()) {
                continue;
            }
            match table.type_info(&t) {
                Some(info) => {
                    material.insert((1, t, type_fp(info)));
                    pending_types.extend(info.supertypes.iter().cloned());
                    let mut refs = Refs::default();
                    for inv in &info.invariants {
                        collect_formula(&inv.formula, &mut refs);
                    }
                    for f in &info.fields {
                        collect_type(&f.ty, &mut refs);
                    }
                    pending_names.extend(refs.names);
                    pending_types.extend(refs.types);
                }
                // Undeclared names (locals recorded conservatively, builtin
                // type names): record presence only, so *declaring* a type
                // with that name later changes the key — which is exactly
                // when invalidation is required.
                None => {
                    material.insert((1, t, 0));
                }
            }
        } else {
            break;
        }
    }
    fp(&(hierarchy, sig, &material))
}

impl Fingerprints {
    /// Computes every fingerprint of a resolved program.
    pub fn of(table: &ClassTable) -> Fingerprints {
        let hierarchy = hierarchy_hash(table);
        let structure = structure_hash(table);
        let mut occs: HashMap<(String, String), u32> = HashMap::new();
        let mut out = Vec::new();
        for (_, m) in units(table) {
            let occ = occs
                .entry((m.owner.clone(), m.decl.name.clone()))
                .or_insert(0);
            let key = UnitKey {
                owner: m.owner.clone(),
                name: m.decl.name.clone(),
                occ: *occ,
            };
            *occ += 1;
            let sig = sig_fp(m);
            let body = body_fp(m);
            let env = env_key(table, m, hierarchy, sig);
            let verify = fp(&(env, body));
            out.push(UnitFp {
                key,
                sig,
                body,
                env,
                verify,
            });
        }
        Fingerprints {
            hierarchy,
            structure,
            units: out,
        }
    }

    /// The fingerprint entry for `Owner.name` (first occurrence), if any.
    pub fn unit(&self, owner: &str, name: &str) -> Option<&UnitFp> {
        self.units
            .iter()
            .find(|u| u.key.owner == owner && u.key.name == name)
    }
}

// ---------------------------------------------------------------------
// The incremental verification engine
// ---------------------------------------------------------------------

/// What one [`VerifyEngine::verify`] rebuild actually did.
#[derive(Debug, Clone, Default)]
pub struct RebuildStats {
    /// Qualified names of the units that were re-verified, in unit order.
    pub reverified: Vec<String>,
    /// Number of green units whose cached diagnostics were reused.
    pub reused: usize,
    /// Solver work performed by **this** rebuild only (deltas, not session
    /// lifetime totals).
    pub stats: SessionStats,
}

/// Per-unit cached state carried across rebuilds.
#[derive(Debug)]
struct UnitEntry {
    env: u64,
    verify: u64,
    diags: Diagnostics,
    session: Option<Session>,
}

/// The incremental verification engine: caches per-unit diagnostics and
/// solver sessions across program generations, re-verifying only units
/// whose verify key changed (see the module docs for the invariants).
#[derive(Debug)]
pub struct VerifyEngine {
    options: VerifyOptions,
    units: HashMap<UnitKey, UnitEntry>,
}

/// Field-wise `after - before` (saturating; the shared CDCL counters only
/// ever grow, but saturation keeps the helper total).
fn stats_delta(after: SessionStats, before: SessionStats) -> SessionStats {
    SessionStats {
        solver_queries: after.solver_queries.saturating_sub(before.solver_queries),
        cache_hits: after.cache_hits.saturating_sub(before.cache_hits),
        rounds: after.rounds.saturating_sub(before.rounds),
        theory_conflicts: after
            .theory_conflicts
            .saturating_sub(before.theory_conflicts),
        lemmas: after.lemmas.saturating_sub(before.lemmas),
        euf_reused: after.euf_reused.saturating_sub(before.euf_reused),
        sat_conflicts: after.sat_conflicts.saturating_sub(before.sat_conflicts),
        sat_decisions: after.sat_decisions.saturating_sub(before.sat_decisions),
        sat_propagations: after
            .sat_propagations
            .saturating_sub(before.sat_propagations),
        sat_ns: after.sat_ns.saturating_sub(before.sat_ns),
        lia_ns: after.lia_ns.saturating_sub(before.lia_ns),
        euf_ns: after.euf_ns.saturating_sub(before.euf_ns),
        expand_ns: after.expand_ns.saturating_sub(before.expand_ns),
        plugin_ns: after.plugin_ns.saturating_sub(before.plugin_ns),
        scope_ns: after.scope_ns.saturating_sub(before.scope_ns),
    }
}

impl VerifyEngine {
    /// Creates an engine with the given verification options.
    pub fn new(options: VerifyOptions) -> Self {
        VerifyEngine {
            options,
            units: HashMap::new(),
        }
    }

    /// The verification options the engine runs with.
    pub fn options(&self) -> &VerifyOptions {
        &self.options
    }

    /// Verifies a program generation, reusing cached results for every green
    /// unit. Returns the full diagnostics — identical content and order to a
    /// from-scratch per-method verification — plus what this rebuild did.
    ///
    /// `threads` bounds the worker pool for dirty units (`0` =
    /// [`jmatch_smt::pool::configured_threads`]); because each dirty unit
    /// owns its session and results are reassembled in unit order, the
    /// output is identical at any worker count.
    pub fn verify(
        &mut self,
        table: &Arc<ClassTable>,
        fps: &Fingerprints,
        threads: usize,
    ) -> (Diagnostics, RebuildStats) {
        let verifier = Verifier::new(Arc::clone(table), self.options.clone());
        let mut old = std::mem::take(&mut self.units);
        let us = units(table);
        debug_assert_eq!(us.len(), fps.units.len());

        // Partition into green (cached) and red (to re-verify) units. Green
        // slots are pre-filled; red units carry their previous session when
        // the environment key survived the edit.
        let n = us.len();
        let mut slots: Vec<Option<(Diagnostics, Option<Session>)>> = Vec::new();
        slots.resize_with(n, || None);
        let mut red = vec![false; n];
        let mut work: Vec<(usize, Option<&TypeInfo>, &MethodInfo, Option<Session>)> = Vec::new();
        for (i, ((owner, m), ufp)) in us.iter().zip(&fps.units).enumerate() {
            match old.remove(&ufp.key) {
                Some(entry) if entry.verify == ufp.verify => {
                    slots[i] = Some((entry.diags, entry.session));
                }
                Some(entry) if entry.env == ufp.env => {
                    red[i] = true;
                    work.push((i, *owner, m, entry.session));
                }
                _ => {
                    red[i] = true;
                    work.push((i, *owner, m, None));
                }
            }
        }
        // Sessions of removed units (still in `old`) drop here.
        drop(old);

        // Shard dirty units across workers; each owns its session, results
        // come back in input order.
        let results = jmatch_smt::map_ordered(work, threads, |_, (i, owner, m, session)| {
            let mut sess = match session {
                Some(mut s) => {
                    // Same environment, new class table: keep the term
                    // store, learned clauses and VC cache; swap only the
                    // expander (which captures the table).
                    s.retarget(&verifier);
                    s
                }
                None => verifier.new_session(),
            };
            let before = sess.stats();
            let mut diags = Diagnostics::new();
            verifier.verify_method_in(&mut sess, owner, m, &mut diags);
            let delta = stats_delta(sess.stats(), before);
            (i, diags, delta, sess)
        });

        let mut rebuild = RebuildStats {
            reused: n - results.len(),
            ..RebuildStats::default()
        };
        for (i, diags, delta, sess) in results {
            rebuild.stats.absorb(delta);
            slots[i] = Some((diags, Some(sess)));
        }

        // Reassemble diagnostics in unit order and store the new cache.
        let mut out = Diagnostics::new();
        for (i, ((_, m), ufp)) in us.iter().zip(&fps.units).enumerate() {
            let (diags, session) = slots[i].take().expect("every unit slot is filled");
            if red[i] {
                rebuild.reverified.push(m.qualified_name());
            }
            out.extend(diags.clone());
            self.units.insert(
                ufp.key.clone(),
                UnitEntry {
                    env: ufp.env,
                    verify: ufp.verify,
                    diags,
                    session,
                },
            );
        }
        (out, rebuild)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmatch_syntax::parse_program;

    fn table_for(src: &str) -> Arc<ClassTable> {
        let program = parse_program(src).unwrap();
        let mut diags = Diagnostics::new();
        ClassTable::build(&program, &mut diags)
    }

    const BASE: &str = "
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
                case zero(): return zero();
            }
        }
        static int answer() { return 42; }
    ";

    #[test]
    fn fingerprints_are_reproducible() {
        let a = Fingerprints::of(&table_for(BASE));
        let b = Fingerprints::of(&table_for(BASE));
        assert_eq!(a, b);
    }

    #[test]
    fn whitespace_only_edit_changes_nothing() {
        let a = Fingerprints::of(&table_for(BASE));
        let shifted = format!("\n\n\n{}", BASE.replace("switch (m)", "switch  (m)"));
        let b = Fingerprints::of(&table_for(&shifted));
        assert_eq!(a, b, "position shifts must not dirty any unit");
    }

    #[test]
    fn body_edit_dirties_only_that_unit() {
        let a = Fingerprints::of(&table_for(BASE));
        let b = Fingerprints::of(&table_for(&BASE.replace("return 42;", "return 43;")));
        assert_eq!(a.hierarchy, b.hierarchy);
        assert_eq!(a.structure, b.structure, "a body edit keeps the structure");
        let changed: Vec<&UnitKey> = a
            .units
            .iter()
            .zip(&b.units)
            .filter(|(x, y)| x.verify != y.verify)
            .map(|(x, _)| &x.key)
            .collect();
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].qualified(), "<toplevel>.answer");
        // The environment survived: the session would be reused.
        let (x, y) = (
            a.unit("<toplevel>", "answer").unwrap(),
            b.unit("<toplevel>", "answer").unwrap(),
        );
        assert_eq!(x.env, y.env);
        assert_ne!(x.body, y.body);
    }

    #[test]
    fn spec_edit_dirties_dependents() {
        // Changing succ's matches clause on the interface must re-verify
        // every unit whose closure reaches `succ` — in particular `pred`.
        let a = Fingerprints::of(&table_for(BASE));
        let edited = BASE.replace(
            "constructor succ(Nat n) returns(n);",
            "constructor succ(Nat n) returns(n) matches(true);",
        );
        let b = Fingerprints::of(&table_for(&edited));
        assert_ne!(a.structure, b.structure, "a spec edit changes structure");
        let pred = (
            a.unit("<toplevel>", "pred").unwrap(),
            b.unit("<toplevel>", "pred").unwrap(),
        );
        assert_ne!(pred.0.env, pred.1.env, "pred depends on succ's spec");
        let answer = (
            a.unit("<toplevel>", "answer").unwrap(),
            b.unit("<toplevel>", "answer").unwrap(),
        );
        assert_eq!(
            answer.0.verify, answer.1.verify,
            "answer references neither succ nor Nat"
        );
    }

    #[test]
    fn hierarchy_edit_dirties_everything() {
        let a = Fingerprints::of(&table_for(BASE));
        let edited = format!("{BASE} class PExtra implements Nat {{ constructor zero() returns() ( false ) constructor succ(Nat n) returns(n) ( false ) }}");
        let b = Fingerprints::of(&table_for(&edited));
        assert_ne!(a.hierarchy, b.hierarchy);
        for (x, y) in a.units.iter().zip(&b.units) {
            assert_ne!(
                x.env,
                y.env,
                "{}: hierarchy edits are global (is$T disjointness)",
                x.key.qualified()
            );
        }
    }

    #[test]
    fn engine_skips_green_units_and_agrees_with_fresh() {
        let t1 = table_for(BASE);
        let fp1 = Fingerprints::of(&t1);
        let mut engine = VerifyEngine::new(VerifyOptions::default());
        let (full, first) = engine.verify(&t1, &fp1, 1);
        assert_eq!(first.reverified.len(), fp1.units.len());
        assert!(first.stats.solver_queries > 0);

        // No edit: everything green, zero queries.
        let (again, stats) = engine.verify(&t1, &fp1, 1);
        assert_eq!(again, full);
        assert_eq!(stats.reverified, Vec::<String>::new());
        assert_eq!(stats.stats.solver_queries, 0);

        // Body edit: exactly one unit re-verifies, and the result matches a
        // fresh engine's verdict on the edited program.
        let t2 = table_for(&BASE.replace("return 42;", "return 40 + 2;"));
        let fp2 = Fingerprints::of(&t2);
        let (inc, stats) = engine.verify(&t2, &fp2, 1);
        assert_eq!(stats.reverified, vec!["<toplevel>.answer".to_string()]);
        let mut fresh = VerifyEngine::new(VerifyOptions::default());
        let (scratch, _) = fresh.verify(&t2, &fp2, 1);
        assert_eq!(inc, scratch);
    }

    #[test]
    fn diagnostics_identical_at_any_worker_count() {
        let table = table_for(&BASE.replace("case zero(): return zero();", ""));
        let fps = Fingerprints::of(&table);
        let baseline = VerifyEngine::new(VerifyOptions::default())
            .verify(&table, &fps, 1)
            .0;
        assert!(
            baseline.has_warning(crate::diag::WarningKind::NonExhaustive)
                || baseline.has_warning(crate::diag::WarningKind::Unknown)
        );
        for threads in [2, 8] {
            let got = VerifyEngine::new(VerifyOptions::default())
                .verify(&table, &fps, threads)
                .0;
            assert_eq!(got, baseline, "threads={threads}");
        }
    }
}
