//! Lazy expansion of JMatch specification predicates (§6.2).
//!
//! The verifier abstracts type invariants, `matches` and `ensures` clauses as
//! uninterpreted predicates (`is$T`, `ok$Owner$m$mode`, `ens$Owner$m`). This
//! module is the external-theory plugin that the SMT solver calls back into
//! when it assigns one of those predicates a truth value:
//!
//! * `is$T(x)` set **true** asserts the conjunction of `T`'s visible
//!   invariants instantiated at `x`, membership in `T`'s supertypes, and
//!   disjointness from unrelated concrete classes;
//! * `ok$Owner$m$mode(knowns…)` set **false** asserts the negation of the
//!   matching precondition `ExtractM(matches)` instantiated at the knowns;
//! * `ens$Owner$m(result, args…)` set **true** asserts the `ensures` clause
//!   instantiated at the arguments.
//!
//! Facts produced by an expansion may mention further specification
//! predicates; those are expanded at the next depth, bounded by the solver's
//! iterative deepening — exactly the architecture the paper builds on Z3's
//! external theory plugin.
//!
//! ## Templates
//!
//! A derivation depends on the predicate's symbol, its polarity and the
//! sorts of its arguments, not on which terms the arguments are. So the
//! expander derives each `(symbol, polarity)` once per session, at one
//! placeholder variable per argument, and records that *template*: its
//! lemmas, its placeholders and the variables the derivation made with
//! [`TermStore::fresh_var`] (named constants such as `class$T` are shared,
//! not renamed). Every later atom of the predicate instantiates it: the
//! placeholders map to the atom's arguments, each template fresh variable to
//! a new fresh variable of the same prefix and sort, and
//! [`TermStore::substitute`] rebuilds the lemmas through the term builders,
//! so they fold as a direct derivation's would (where two arguments coincide,
//! `x = x` becomes true) and equal it up to the names of the fresh
//! variables.
//!
//! The templates live in the expander, which lives as long as its session's
//! [`TermStore`]; a reload builds a new expander
//! ([`crate::verify::Session::retarget`]), so a template never outlives the
//! class table it was derived from. An atom with an integer or boolean
//! constant argument is derived directly instead, because the derivation
//! branches on constants (multiplication by a constant stays linear), and so
//! is an atom whose argument sorts differ from the template's.

use crate::extract;
use crate::table::MethodInfo;
use crate::vc::{Env, Seq, VcGen, F};
use jmatch_smt::hash::IdMap;
use jmatch_smt::{Expansion, LazyExpander, Sort, Symbol, TermData, TermId, TermStore};
use jmatch_syntax::ast::Type;

/// The lazy expander for JMatch specifications.
#[derive(Debug, Clone)]
pub struct JMatchExpander {
    gen: VcGen,
    /// [`LazyExpander::can_expand`]'s answer per (predicate symbol,
    /// polarity). The answer depends only on the symbol's name and the class
    /// table, which is fixed for the expander's lifetime (a reload builds a
    /// new expander).
    expandable: IdMap<(Symbol, bool), bool>,
    /// The derivation of each (predicate symbol, polarity) at placeholder
    /// arguments; `None` when the predicate is not this plugin's. Valid for
    /// the same reason as `expandable`, in the one store the expander serves.
    templates: IdMap<(Symbol, bool), Option<Template>>,
}

/// One predicate's expansion derived at placeholder arguments (see the
/// [module documentation](self)).
#[derive(Debug, Clone)]
struct Template {
    /// One placeholder variable per argument position.
    params: Vec<TermId>,
    /// The variables the derivation created with [`TermStore::fresh_var`],
    /// in creation order, each with the prefix it was made from.
    fresh: Vec<(TermId, String)>,
    /// The lemmas at the placeholders.
    lemmas: Vec<TermId>,
}

impl Template {
    /// Whether `args` can stand for the placeholders: same arity and sorts.
    fn fits(&self, store: &TermStore, args: &[TermId]) -> bool {
        self.params.len() == args.len()
            && self
                .params
                .iter()
                .zip(args)
                .all(|(&p, &a)| store.sort(p) == store.sort(a))
    }

    /// The lemmas at `args`, with new fresh variables for the template's.
    fn instantiate(&self, store: &mut TermStore, args: &[TermId]) -> Vec<TermId> {
        let mut map: IdMap<TermId, TermId> = self
            .params
            .iter()
            .copied()
            .zip(args.iter().copied())
            .collect();
        for (v, prefix) in &self.fresh {
            let sort = store.sort(*v);
            map.insert(*v, store.fresh_var(prefix, sort));
        }
        self.lemmas
            .iter()
            .map(|&l| store.substitute(l, &mut map))
            .collect()
    }
}

impl JMatchExpander {
    /// Creates an expander sharing the verifier's class table.
    pub fn new(gen: VcGen) -> Self {
        JMatchExpander {
            gen,
            expandable: IdMap::default(),
            templates: IdMap::default(),
        }
    }

    /// Derives the template of `sym` assigned `value`, at placeholders of
    /// the sorts of `args`.
    fn build_template(
        &self,
        store: &mut TermStore,
        sym: Symbol,
        args: &[TermId],
        value: bool,
    ) -> Option<Template> {
        let params: Vec<TermId> = args
            .iter()
            .map(|&a| {
                let sort = store.sort(a);
                store.fresh_var("tpl", sort)
            })
            .collect();
        let name = store.symbol_name(sym).to_owned();
        let atom = store.app(&name, params.clone(), Sort::Bool);
        let mark = store.fresh_vars().len();
        let Expansion::Lemmas(lemmas) = self.derive(store, atom, value) else {
            return None;
        };
        let fresh = store.fresh_vars()[mark..]
            .iter()
            .map(|&v| {
                let TermData::Var(sym, _) = store.data(v) else {
                    unreachable!("fresh_var creates variables")
                };
                let name = store.symbol_name(*sym);
                let prefix = name.rsplit_once('!').map_or(name, |(p, _)| p);
                (v, prefix.to_owned())
            })
            .collect();
        Some(Template {
            params,
            fresh,
            lemmas,
        })
    }

    /// The expansion of `atom` assigned `value`, derived from the
    /// specifications (the template builder and the constant-argument
    /// fallback of [`LazyExpander::expand`]).
    fn derive(&self, store: &mut TermStore, atom: TermId, value: bool) -> Expansion {
        let TermData::App(sym, args, Sort::Bool) = store.data(atom) else {
            return Expansion::NotApplicable;
        };
        let args = args.clone();
        let name = store.symbol_name(*sym).to_owned();
        if let Some(ty) = name.strip_prefix("is$") {
            if !value || args.len() != 1 {
                return Expansion::Lemmas(Vec::new());
            }
            return Expansion::Lemmas(self.expand_is(store, atom, ty, args[0]));
        }
        if let Some((owner, mname, mode_idx)) = Self::parse_ok_name(&name) {
            if value {
                return Expansion::Lemmas(Vec::new());
            }
            let Some(minfo) = self.lookup(&owner, &mname) else {
                return Expansion::Lemmas(Vec::new());
            };
            return Expansion::Lemmas(self.expand_ok(store, atom, &owner, minfo, mode_idx, &args));
        }
        if let Some((owner, mname)) = Self::parse_ens_name(&name) {
            if !value {
                return Expansion::Lemmas(Vec::new());
            }
            let Some(minfo) = self.lookup(&owner, &mname) else {
                return Expansion::Lemmas(Vec::new());
            };
            return Expansion::Lemmas(self.expand_ens(store, atom, &owner, minfo, &args));
        }
        Expansion::NotApplicable
    }

    fn expand_is(&self, store: &mut TermStore, atom: TermId, ty: &str, x: TermId) -> Vec<TermId> {
        let mut lemmas = Vec::new();
        let Some(info) = self.gen.table.type_info(ty) else {
            return lemmas;
        };
        // Membership implies the supertype memberships.
        for sup in &info.supertypes {
            if self.gen.table.type_info(sup).is_some() {
                let sup_atom = store.app(&format!("is${sup}"), vec![x], Sort::Bool);
                lemmas.push(store.implies(atom, sup_atom));
            }
        }
        // Concrete classes are disjoint from unrelated concrete classes.
        if !info.is_interface && !info.is_abstract {
            let others: Vec<String> = self
                .gen
                .table
                .types()
                .filter(|t| {
                    !t.is_interface
                        && !t.is_abstract
                        && t.name != ty
                        && !self.gen.table.types_may_overlap(ty, &t.name)
                })
                .map(|t| t.name.clone())
                .collect();
            for other in others {
                let other_atom = store.app(&format!("is${other}"), vec![x], Sort::Bool);
                let neg = store.not(other_atom);
                lemmas.push(store.implies(atom, neg));
            }
        }
        // Membership implies the publicly visible invariants.
        for inv in self.gen.table.visible_invariants(ty, false) {
            let mut env = Env::new();
            env.self_class = Some(ty.to_owned());
            env.this_term = Some(x);
            let mut seq = Seq::new();
            self.gen
                .declare_formula_vars(store, &mut env, &mut seq, &inv.formula);
            if self.gen.vf(store, &mut env, &mut seq, &inv.formula).is_ok() {
                let body = seq.close(F::True).lower(store);
                lemmas.push(store.implies(atom, body));
            }
        }
        lemmas
    }

    fn expand_ok(
        &self,
        store: &mut TermStore,
        atom: TermId,
        owner: &str,
        minfo: &MethodInfo,
        mode_idx: usize,
        args: &[TermId],
    ) -> Vec<TermId> {
        let Some(clause) = self.gen.matches_clause(owner, minfo) else {
            return Vec::new();
        };
        let Some(mode) = minfo.modes.get(mode_idx) else {
            return Vec::new();
        };
        let knowns = self.gen.mode_knowns(minfo, mode, mode_idx);
        let unknowns: Vec<String> = {
            let mut u = mode.unknown_params.clone();
            if mode.result_unknown {
                u.push("result".into());
            }
            u
        };
        let extracted = extract::extract(&self.gen.table, clause, &knowns, &unknowns);
        if matches!(extracted.formula, jmatch_syntax::ast::Formula::Bool(false)) {
            // ¬ok ⇒ ¬false is trivial.
            return Vec::new();
        }

        // Build the environment mapping the knowns to the predicate arguments.
        let mut env = Env::new();
        env.self_class = Some(owner.to_owned());
        let mut seq = Seq::new();
        for (name, term) in knowns.iter().zip(args.iter()) {
            if name == "result" {
                env.result_term = Some(*term);
                env.result_type = Some(minfo.result_type());
                if minfo.constructs_owner() {
                    env.this_term = Some(*term);
                }
            } else {
                let ty = minfo
                    .decl
                    .params
                    .iter()
                    .find(|p| &p.name == name)
                    .map(|p| p.ty.clone())
                    .unwrap_or(Type::Object);
                env.bind(name.clone(), *term, ty);
            }
        }
        // Remaining (solvable) unknowns become fresh variables.
        for u in &extracted.remaining_unknowns {
            if env.lookup(u).is_none() && u != "result" {
                let ty = extract::declared_type_of(clause, u)
                    .or_else(|| {
                        minfo
                            .decl
                            .params
                            .iter()
                            .find(|p| &p.name == u)
                            .map(|p| p.ty.clone())
                    })
                    .unwrap_or(Type::Object);
                self.gen.declare_var(store, &mut env, &mut seq, u, &ty);
                env.mark_unknown(u);
            }
        }
        self.gen
            .declare_formula_vars(store, &mut env, &mut seq, &extracted.formula);
        if self
            .gen
            .vf(store, &mut env, &mut seq, &extracted.formula)
            .is_err()
        {
            return Vec::new();
        }
        let extract_f = seq.close(F::True);
        // ¬ok ⇒ ¬ExtractM
        let negated = extract_f.negate().lower(store);
        let not_atom = store.not(atom);
        vec![store.implies(not_atom, negated)]
    }

    fn expand_ens(
        &self,
        store: &mut TermStore,
        atom: TermId,
        owner: &str,
        minfo: &MethodInfo,
        args: &[TermId],
    ) -> Vec<TermId> {
        let Some(clause) = self.gen.ensures_clause(owner, minfo) else {
            return Vec::new();
        };
        let mut env = Env::new();
        env.self_class = Some(owner.to_owned());
        if let Some(first) = args.first() {
            env.result_term = Some(*first);
            env.result_type = Some(minfo.result_type());
            if minfo.constructs_owner() {
                env.this_term = Some(*first);
            }
        }
        for (i, p) in minfo.decl.params.iter().enumerate() {
            if let Some(t) = args.get(i + 1) {
                env.bind(p.name.clone(), *t, p.ty.clone());
            }
        }
        let mut seq = Seq::new();
        self.gen
            .declare_formula_vars(store, &mut env, &mut seq, clause);
        if self.gen.vf(store, &mut env, &mut seq, clause).is_err() {
            return Vec::new();
        }
        let body = seq.close(F::True).lower(store);
        vec![store.implies(atom, body)]
    }

    /// Splits `ok$Owner$name$mN` into its parts.
    fn parse_ok_name(name: &str) -> Option<(String, String, usize)> {
        let rest = name.strip_prefix("ok$")?;
        let (owner_and_name, mode_part) = rest.rsplit_once('$')?;
        let mode_idx: usize = mode_part.strip_prefix('m')?.parse().ok()?;
        let (owner, mname) = owner_and_name.split_once('$')?;
        Some((owner.to_owned(), mname.to_owned(), mode_idx))
    }

    fn parse_ens_name(name: &str) -> Option<(String, String)> {
        let rest = name.strip_prefix("ens$")?;
        let mut on = rest.splitn(2, '$');
        let owner = on.next()?.to_owned();
        let mname = on.next()?.to_owned();
        Some((owner, mname))
    }

    fn lookup(&self, owner: &str, name: &str) -> Option<&MethodInfo> {
        if owner == "<toplevel>" {
            return self.gen.table.lookup_free_method(name);
        }
        self.gen.table.lookup_method(owner, name)
    }

    /// Whether a predicate named `name` is expanded when assigned `value`.
    fn is_expandable(&self, name: &str, value: bool) -> bool {
        if let Some(ty) = name.strip_prefix("is$") {
            return value && self.gen.table.type_info(ty).is_some();
        }
        if let Some((owner, mname, _)) = Self::parse_ok_name(name) {
            return !value
                && self
                    .lookup(&owner, &mname)
                    .is_some_and(|m| self.gen.matches_clause(&owner, m).is_some());
        }
        if let Some((owner, mname)) = Self::parse_ens_name(name) {
            return value
                && self
                    .lookup(&owner, &mname)
                    .is_some_and(|m| self.gen.ensures_clause(&owner, m).is_some());
        }
        false
    }
}

impl LazyExpander for JMatchExpander {
    fn can_expand(&mut self, store: &TermStore, atom: TermId, value: bool) -> bool {
        let TermData::App(sym, _, Sort::Bool) = store.data(atom) else {
            return false;
        };
        if let Some(&known) = self.expandable.get(&(*sym, value)) {
            return known;
        }
        let answer = self.is_expandable(store.symbol_name(*sym), value);
        self.expandable.insert((*sym, value), answer);
        answer
    }

    fn expand(
        &mut self,
        store: &mut TermStore,
        atom: TermId,
        value: bool,
        _depth: u32,
    ) -> Expansion {
        let TermData::App(sym, args, Sort::Bool) = store.data(atom) else {
            return Expansion::NotApplicable;
        };
        let (sym, args) = (*sym, args.clone());
        let constant = |t: &TermId| {
            matches!(
                store.data(*t),
                TermData::IntConst(_) | TermData::BoolConst(_)
            )
        };
        if args.iter().any(constant) {
            return self.derive(store, atom, value);
        }
        if !self.templates.contains_key(&(sym, value)) {
            let template = self.build_template(store, sym, &args, value);
            self.templates.insert((sym, value), template);
        }
        match &self.templates[&(sym, value)] {
            None => Expansion::NotApplicable,
            Some(template) if template.fits(store, &args) => {
                Expansion::Lemmas(template.instantiate(store, &args))
            }
            Some(_) => self.derive(store, atom, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::table::ClassTable;
    use jmatch_smt::{SatResult, Solver};
    use jmatch_syntax::parse_program;

    fn gen_for(src: &str) -> VcGen {
        let program = parse_program(src).unwrap();
        let mut d = Diagnostics::new();
        let table = ClassTable::build(&program, &mut d);
        assert!(d.errors.is_empty(), "{:?}", d.errors);
        VcGen::new(table)
    }

    const LIST_SRC: &str = r#"
        interface List {
            invariant(this = nil() | cons(_, _));
            constructor nil() matches(notall(result));
            constructor cons(Object hd, List tl)
                matches(notall(result)) returns(hd, tl);
            constructor snoc(List hd, Object tl)
                matches ensures(cons(_, _)) returns(hd, tl);
        }
    "#;

    /// Structural equality of terms of two stores up to a bijective renaming
    /// of fresh variables, with `Eq` operands unordered.
    struct Alpha<'a> {
        a: &'a TermStore,
        b: &'a TermStore,
        fresh_a: jmatch_smt::hash::IdSet<TermId>,
        fresh_b: jmatch_smt::hash::IdSet<TermId>,
        fwd: IdMap<TermId, TermId>,
        bwd: IdMap<TermId, TermId>,
    }

    impl<'a> Alpha<'a> {
        fn new(a: &'a TermStore, b: &'a TermStore) -> Self {
            Alpha {
                a,
                b,
                fresh_a: a.fresh_vars().iter().copied().collect(),
                fresh_b: b.fresh_vars().iter().copied().collect(),
                fwd: IdMap::default(),
                bwd: IdMap::default(),
            }
        }

        fn all(&mut self, xs: &[TermId], ys: &[TermId]) -> bool {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(&x, &y)| self.eq(x, y))
        }

        fn eq(&mut self, x: TermId, y: TermId) -> bool {
            use TermData as D;
            let (a, b) = (self.a, self.b);
            if a.sort(x) != b.sort(y) {
                return false;
            }
            match (a.data(x), b.data(y)) {
                (D::Var(sx, _), D::Var(sy, _)) => {
                    let fresh = self.fresh_a.contains(&x);
                    if fresh != self.fresh_b.contains(&y) {
                        return false;
                    }
                    if !fresh {
                        return a.symbol_name(*sx) == b.symbol_name(*sy);
                    }
                    match (self.fwd.get(&x), self.bwd.get(&y)) {
                        (None, None) => {
                            self.fwd.insert(x, y);
                            self.bwd.insert(y, x);
                            true
                        }
                        (Some(&y2), Some(&x2)) => y2 == y && x2 == x,
                        _ => false,
                    }
                }
                (D::App(f, xs, _), D::App(g, ys, _)) => {
                    a.symbol_name(*f) == b.symbol_name(*g) && self.all(xs, ys)
                }
                (D::Eq(x1, x2), D::Eq(y1, y2)) => {
                    let saved = (self.fwd.clone(), self.bwd.clone());
                    if self.all(&[*x1, *x2], &[*y1, *y2]) {
                        return true;
                    }
                    (self.fwd, self.bwd) = saved;
                    self.all(&[*x1, *x2], &[*y2, *y1])
                }
                (D::BoolConst(p), D::BoolConst(q)) => p == q,
                (D::IntConst(m), D::IntConst(n)) => m == n,
                (D::MulConst(m, x1), D::MulConst(n, y1)) => m == n && self.eq(*x1, *y1),
                (D::Neg(x1), D::Neg(y1)) | (D::Not(x1), D::Not(y1)) => self.eq(*x1, *y1),
                (D::Add(x1, x2), D::Add(y1, y2))
                | (D::Sub(x1, x2), D::Sub(y1, y2))
                | (D::Le(x1, x2), D::Le(y1, y2))
                | (D::Lt(x1, x2), D::Lt(y1, y2))
                | (D::Implies(x1, x2), D::Implies(y1, y2))
                | (D::Iff(x1, x2), D::Iff(y1, y2)) => self.all(&[*x1, *x2], &[*y1, *y2]),
                (D::And(xs), D::And(ys)) | (D::Or(xs), D::Or(ys)) => self.all(xs, ys),
                _ => false,
            }
        }
    }

    /// The fresh variables (of `store`'s log) occurring in `lemmas`.
    fn fresh_in(store: &TermStore, lemmas: &[TermId]) -> Vec<TermId> {
        let fresh: jmatch_smt::hash::IdSet<TermId> = store.fresh_vars().iter().copied().collect();
        let mut out: Vec<TermId> = lemmas
            .iter()
            .flat_map(|&l| store.free_vars(l))
            .filter(|v| fresh.contains(v))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every expandable predicate of a program, with its argument sorts and
    /// the polarity it expands at: each type's `is$T`, each `(method, mode)`
    /// with a `matches` clause, and each method with an `ensures` clause.
    fn predicates(gen: &VcGen, store: &mut TermStore) -> Vec<(String, Vec<Sort>, bool)> {
        let obj = Sort::Obj(store.symbol(crate::vc::OBJECT_SORT_NAME));
        let mut out = Vec::new();
        let mut methods: Vec<(String, &MethodInfo)> = Vec::new();
        for t in gen.table.types() {
            out.push((format!("is${}", t.name), vec![obj], true));
            methods.extend(t.methods.iter().map(|m| (t.name.clone(), m)));
        }
        methods.extend(
            gen.table
                .free_methods()
                .iter()
                .map(|m| ("<toplevel>".to_owned(), m)),
        );
        for (owner, m) in methods {
            let param_sort = |store: &mut TermStore, name: &str| {
                let p = m.decl.params.iter().find(|p| p.name == name);
                gen.sort_of(store, &p.map_or(Type::Object, |p| p.ty.clone()))
            };
            if gen.matches_clause(&owner, m).is_some() {
                for (idx, mode) in m.modes.iter().enumerate() {
                    let sorts = gen
                        .mode_knowns(m, mode, idx)
                        .iter()
                        .map(|k| match k.as_str() {
                            "result" => gen.sort_of(store, &m.result_type()),
                            name => param_sort(store, name),
                        })
                        .collect();
                    out.push((format!("ok${owner}${}$m{idx}", m.decl.name), sorts, false));
                }
            }
            if gen.ensures_clause(&owner, m).is_some() {
                let mut sorts = vec![gen.sort_of(store, &m.result_type())];
                for p in &m.decl.params {
                    sorts.push(gen.sort_of(store, &p.ty));
                }
                out.push((format!("ens${owner}${}", m.decl.name), sorts, true));
            }
        }
        out
    }

    #[test]
    fn template_instances_equal_direct_derivations_on_every_corpus_row() {
        let mut checked = 0;
        for row in jmatch_corpus::entries() {
            let gen = gen_for(&row.combined_jmatch());
            let mut store = TermStore::new();
            let mut expander = JMatchExpander::new(gen.clone());
            for (name, sorts, value) in predicates(&gen, &mut store) {
                let mut instances: Vec<Vec<TermId>> = Vec::new();
                // Rounds 0 and 1 use distinct argument variables; round 2
                // one variable per sort, so the builders must refold the
                // instance where arguments coincide (`x = x` is true).
                for round in 0..3 {
                    let args: Vec<TermId> = sorts
                        .iter()
                        .enumerate()
                        .map(|(i, &s)| match round {
                            2 => store.var(&format!("same${s}"), s),
                            _ => store.var(&format!("arg{round}${i}"), s),
                        })
                        .collect();
                    let atom = store.app(&name, args, Sort::Bool);
                    let mut direct_store = store.clone();
                    let direct = expander.derive(&mut direct_store, atom, value);
                    let instance = expander.expand(&mut store, atom, value, 0);
                    let (Expansion::Lemmas(direct), Expansion::Lemmas(instance)) =
                        (direct, instance)
                    else {
                        panic!("{}: {name} is not expandable", row.name);
                    };
                    let mut alpha = Alpha::new(&store, &direct_store);
                    assert!(
                        alpha.all(&instance, &direct),
                        "{}: {name} instance {round} differs from its derivation:\n{:?}\n{:?}",
                        row.name,
                        instance
                            .iter()
                            .map(|&l| store.display(l))
                            .collect::<Vec<_>>(),
                        direct
                            .iter()
                            .map(|&l| direct_store.display(l))
                            .collect::<Vec<_>>(),
                    );
                    instances.push(instance);
                }
                let (first, second) = (
                    fresh_in(&store, &instances[0]),
                    fresh_in(&store, &instances[1]),
                );
                assert!(
                    first.iter().all(|v| !second.contains(v)),
                    "{}: {name}: two instances share fresh variables",
                    row.name
                );
                checked += 1;
            }
        }
        // Every row has at least its types' `is$T`; the corpus has many more.
        assert!(checked > 100, "only {checked} predicates checked");
    }

    #[test]
    fn constant_arguments_are_derived_directly() {
        // `n * 2` at a constant `n` lowers to `3 * 2`, at a variable to
        // `2 * n`: a template instance would differ from the derivation.
        let gen = gen_for(
            r#"
            class Doubler {
                int twice(int n) ensures(result = 2 * n && result = n * 2) ( result = n + n )
            }
        "#,
        );
        let mut store = TermStore::new();
        let mut expander = JMatchExpander::new(gen);
        let r = store.var("r", Sort::Int);
        let n = store.var("n", Sort::Int);
        let at_var = store.app("ens$Doubler$twice", vec![r, n], Sort::Bool);
        let Expansion::Lemmas(first) = expander.expand(&mut store, at_var, true, 0) else {
            panic!("ens$Doubler$twice is expandable");
        };
        assert_eq!(first.len(), 1);
        let three = store.int(3);
        let at_const = store.app("ens$Doubler$twice", vec![r, three], Sort::Bool);
        let mut direct_store = store.clone();
        let direct = expander.derive(&mut direct_store, at_const, true);
        assert_eq!(expander.expand(&mut store, at_const, true, 0), direct);
        assert_eq!(store.len(), direct_store.len());
    }

    #[test]
    fn parse_predicate_names() {
        assert_eq!(
            JMatchExpander::parse_ok_name("ok$Nat$succ$m1"),
            Some(("Nat".into(), "succ".into(), 1))
        );
        assert_eq!(
            JMatchExpander::parse_ens_name("ens$List$snoc"),
            Some(("List".into(), "snoc".into()))
        );
        assert_eq!(JMatchExpander::parse_ok_name("is$Nat"), None);
    }

    #[test]
    fn invariant_expansion_drives_exhaustiveness() {
        // inv(l) && not nil-matches(l) && not cons-matches(l) is unsat once
        // the List invariant is expanded.
        let gen = gen_for(LIST_SRC);
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let obj = Sort::Obj(store.symbol(crate::vc::OBJECT_SORT_NAME));
        let l = store.var("l", obj);
        let is_list = store.app("is$List", vec![l], Sort::Bool);
        let ok_nil = store.app("ok$List$nil$m1", vec![l], Sort::Bool);
        let ok_cons = store.app("ok$List$cons$m1", vec![l], Sort::Bool);
        solver.assert_formula(&store, is_list);
        let n1 = store.not(ok_nil);
        let n2 = store.not(ok_cons);
        solver.assert_formula(&store, n1);
        solver.assert_formula(&store, n2);
        let mut expander = JMatchExpander::new(gen);
        let result = solver.check_with_expander(&mut store, &mut expander);
        assert_eq!(result, SatResult::Unsat);
    }

    #[test]
    fn snoc_failure_implies_cons_failure() {
        // Figure 12: not snoc-matches(l) expands (through snoc's matches
        // clause `cons(_,_)`) to not cons-matches(l); asserting cons-matches
        // then yields a contradiction.
        let gen = gen_for(LIST_SRC);
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let obj = Sort::Obj(store.symbol(crate::vc::OBJECT_SORT_NAME));
        let l = store.var("l", obj);
        let ok_snoc = store.app("ok$List$snoc$m1", vec![l], Sort::Bool);
        let ok_cons = store.app("ok$List$cons$m1", vec![l], Sort::Bool);
        let not_snoc = store.not(ok_snoc);
        solver.assert_formula(&store, not_snoc);
        solver.assert_formula(&store, ok_cons);
        let mut expander = JMatchExpander::new(gen);
        let result = solver.check_with_expander(&mut store, &mut expander);
        assert_eq!(result, SatResult::Unsat);
    }

    #[test]
    fn unrelated_assignment_stays_sat() {
        let gen = gen_for(LIST_SRC);
        let mut store = TermStore::new();
        let mut solver = Solver::new();
        let obj = Sort::Obj(store.symbol(crate::vc::OBJECT_SORT_NAME));
        let l = store.var("l", obj);
        let is_list = store.app("is$List", vec![l], Sort::Bool);
        let ok_cons = store.app("ok$List$cons$m1", vec![l], Sort::Bool);
        solver.assert_formula(&store, is_list);
        solver.assert_formula(&store, ok_cons);
        let mut expander = JMatchExpander::new(gen);
        let result = solver.check_with_expander(&mut store, &mut expander);
        // The recursive List invariant cannot be expanded to a fixed point, so
        // the solver may answer Unknown here; it must not claim Unsat.
        assert!(!result.is_unsat(), "{result:?}");
    }
}
