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

use crate::extract;
use crate::table::MethodInfo;
use crate::vc::{Env, Seq, VcGen, F};
use jmatch_smt::{Expansion, LazyExpander, Sort, Symbol, TermData, TermId, TermStore};
use jmatch_syntax::ast::Type;
use std::collections::HashMap;

/// The lazy expander for JMatch specifications.
#[derive(Debug, Clone)]
pub struct JMatchExpander {
    gen: VcGen,
    /// [`LazyExpander::can_expand`]'s answer per (predicate symbol,
    /// polarity). The answer depends only on the symbol's name and the class
    /// table, which is fixed for the expander's lifetime (a reload builds a
    /// new expander).
    expandable: HashMap<(Symbol, bool), bool>,
}

impl JMatchExpander {
    /// Creates an expander sharing the verifier's class table.
    pub fn new(gen: VcGen) -> Self {
        JMatchExpander {
            gen,
            expandable: HashMap::new(),
        }
    }

    fn atom_parts(&self, store: &TermStore, atom: TermId) -> Option<(String, Vec<TermId>)> {
        match store.data(atom) {
            TermData::App(sym, args, Sort::Bool) => {
                Some((store.symbol_name(*sym).to_owned(), args.clone()))
            }
            _ => None,
        }
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
        let invariants: Vec<_> = self
            .gen
            .table
            .visible_invariants(ty, false)
            .into_iter()
            .cloned()
            .collect();
        for inv in invariants {
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
        let Some((name, args)) = self.atom_parts(store, atom) else {
            return Expansion::NotApplicable;
        };
        if let Some(ty) = name.strip_prefix("is$") {
            if !value || args.len() != 1 {
                return Expansion::Lemmas(Vec::new());
            }
            let ty = ty.to_owned();
            return Expansion::Lemmas(self.expand_is(store, atom, &ty, args[0]));
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
