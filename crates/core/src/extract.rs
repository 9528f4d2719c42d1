//! Extraction of matching preconditions from `matches` clauses (§4.3, §4.4).
//!
//! A method's `matches` clause describes, in one formula, when matching is
//! guaranteed to succeed for the *whole relation* the method implements. For
//! each mode the compiler derives a *matching precondition* over that mode's
//! knowns — `ExtractM M` in the paper — by:
//!
//! 1. converting the clause to negation normal form,
//! 2. reordering atoms inside conjunctions so that as many unknowns as
//!    possible are solved left to right,
//! 3. dropping atoms that still mention unsolvable unknowns (they become
//!    `true`), and
//! 4. treating the opaque `notall(x̄)` predicate as `true` when any listed
//!    variable is unknown and as `false` when all are known (§4.4).
//!
//! The remaining unknowns are exactly the solvable ones; they stay in the
//! formula and are bound (existentially) by the verification-condition
//! translation, as in the paper's definition
//! `ExtractM M ≜ VF⟦M̂⟧ ({û} ∪ vars(M̂)) true`.

use crate::table::ClassTable;
use jmatch_syntax::ast::{CmpOp, Expr, Formula, Type};
use std::collections::HashSet;

/// The result of extracting a matching precondition.
#[derive(Debug, Clone, PartialEq)]
pub struct Extracted {
    /// The reordered, atom-dropped formula (over knowns and the remaining
    /// solvable unknowns).
    pub formula: Formula,
    /// Unknowns that remain in the formula (each is solvable left-to-right).
    pub remaining_unknowns: Vec<String>,
}

impl Extracted {
    /// An extraction that is identically `false` (the default `matches(false)`
    /// of a method without a clause).
    pub fn trivially_false() -> Self {
        Extracted {
            formula: Formula::Bool(false),
            remaining_unknowns: Vec::new(),
        }
    }
}

/// Extracts the matching precondition of `clause` for a mode whose knowns are
/// `knowns` (parameter names, possibly `"result"` and `"this"`).
///
/// `unknowns` are the mode's unknown parameters; variables declared inside the
/// clause are additional unknowns discovered here.
pub fn extract(
    table: &ClassTable,
    clause: &Formula,
    knowns: &[String],
    unknowns: &[String],
) -> Extracted {
    let nnf = to_nnf(clause.clone(), false);
    let mut all_unknowns: HashSet<String> = unknowns.iter().cloned().collect();
    for (_, name) in clause.declared_vars() {
        if name != "_" {
            all_unknowns.insert(name);
        }
    }
    // `knowns` win over unknowns if a name is somehow listed in both.
    for k in knowns {
        all_unknowns.remove(k);
    }
    let mut solved: HashSet<String> = knowns.iter().cloned().collect();
    let formula = extract_formula(table, &nnf, &all_unknowns, &mut solved);
    let remaining: Vec<String> = all_unknowns
        .iter()
        .filter(|u| solved.contains(*u))
        .cloned()
        .collect();
    Extracted {
        formula,
        remaining_unknowns: remaining,
    }
}

/// Negation normal form: negations pushed to the atoms.
pub fn to_nnf(f: Formula, negate: bool) -> Formula {
    match f {
        Formula::Bool(b) => Formula::Bool(b ^ negate),
        Formula::Not(inner) => to_nnf(*inner, !negate),
        Formula::And(a, b) => {
            let a = to_nnf(*a, negate);
            let b = to_nnf(*b, negate);
            if negate {
                Formula::or(a, b)
            } else {
                Formula::and(a, b)
            }
        }
        Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
            let a = to_nnf(*a, negate);
            let b = to_nnf(*b, negate);
            if negate {
                Formula::and(a, b)
            } else {
                Formula::or(a, b)
            }
        }
        Formula::Cmp(op, l, r) => {
            if negate {
                Formula::Cmp(negate_cmp(op), l, r)
            } else {
                Formula::Cmp(op, l, r)
            }
        }
        Formula::Atom(e) => {
            if negate {
                Formula::not(Formula::Atom(e))
            } else {
                Formula::Atom(e)
            }
        }
    }
}

fn negate_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Gt => CmpOp::Le,
    }
}

/// Extracts one (sub)formula. Conjunctions are flattened, reordered and
/// re-assembled; disjunctions are extracted arm by arm with independent
/// copies of the solved set.
fn extract_formula(
    table: &ClassTable,
    f: &Formula,
    unknowns: &HashSet<String>,
    solved: &mut HashSet<String>,
) -> Formula {
    match f {
        Formula::And(..) => {
            let mut conjuncts = Vec::new();
            flatten_and(f, &mut conjuncts);
            let ordered = reorder_and_drop(table, &conjuncts, unknowns, solved);
            ordered
                .into_iter()
                .reduce(Formula::and)
                .unwrap_or(Formula::Bool(true))
        }
        Formula::Or(a, b) => {
            let mut sa = solved.clone();
            let mut sb = solved.clone();
            let ea = extract_formula(table, a, unknowns, &mut sa);
            let eb = extract_formula(table, b, unknowns, &mut sb);
            // A variable counts as solved afterwards only if both arms solve it.
            let both: HashSet<String> = sa.intersection(&sb).cloned().collect();
            *solved = both;
            Formula::or(ea, eb)
        }
        atom => {
            let ordered = reorder_and_drop(table, std::slice::from_ref(atom), unknowns, solved);
            ordered
                .into_iter()
                .reduce(Formula::and)
                .unwrap_or(Formula::Bool(true))
        }
    }
}

fn flatten_and(f: &Formula, out: &mut Vec<Formula>) {
    match f {
        Formula::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// The reorder-and-drop loop over the atoms of one conjunction.
fn reorder_and_drop(
    table: &ClassTable,
    atoms: &[Formula],
    unknowns: &HashSet<String>,
    solved: &mut HashSet<String>,
) -> Vec<Formula> {
    let mut pending: Vec<Formula> = atoms.to_vec();
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        let mut next_pending = Vec::new();
        for atom in pending.drain(..) {
            match atom_status(table, &atom, unknowns, solved) {
                AtomStatus::Ready { solves } => {
                    for s in solves {
                        solved.insert(s);
                    }
                    out.push(normalize_notall(&atom, unknowns, solved));
                    progressed = true;
                }
                AtomStatus::Deferred => next_pending.push(atom),
            }
        }
        pending = next_pending;
        if pending.is_empty() {
            break;
        }
        if !progressed {
            // Everything left mentions unsolvable unknowns: drop (→ true).
            break;
        }
    }
    if out.is_empty() {
        out.push(Formula::Bool(true));
    }
    out
}

enum AtomStatus {
    /// The atom can be emitted now; it newly solves the listed unknowns.
    Ready { solves: Vec<String> },
    /// The atom still mentions unsolved unknowns it cannot solve itself.
    Deferred,
}

fn atom_status(
    table: &ClassTable,
    atom: &Formula,
    unknowns: &HashSet<String>,
    solved: &HashSet<String>,
) -> AtomStatus {
    let unsolved = |name: &str| unknowns.contains(name) && !solved.contains(name);
    match atom {
        Formula::Bool(_) => AtomStatus::Ready { solves: vec![] },
        Formula::Atom(e) if is_notall(e) => {
            // notall is handled by normalize_notall; it is always "ready",
            // because it never needs to solve anything.
            let _ = e;
            AtomStatus::Ready { solves: vec![] }
        }
        Formula::Cmp(CmpOp::Eq, l, r) => {
            let lu = unsolved_vars(l, &unsolved);
            let ru = unsolved_vars(r, &unsolved);
            match (lu.is_empty(), ru.is_empty()) {
                (true, true) => AtomStatus::Ready { solves: vec![] },
                (true, false) => {
                    if solvable_pattern(table, r, &ru) {
                        AtomStatus::Ready { solves: ru }
                    } else {
                        AtomStatus::Deferred
                    }
                }
                (false, true) => {
                    if solvable_pattern(table, l, &lu) {
                        AtomStatus::Ready { solves: lu }
                    } else {
                        AtomStatus::Deferred
                    }
                }
                (false, false) => AtomStatus::Deferred,
            }
        }
        Formula::Cmp(_, l, r) => {
            let mut u = unsolved_vars(l, &unsolved);
            u.extend(unsolved_vars(r, &unsolved));
            if u.is_empty() {
                AtomStatus::Ready { solves: vec![] }
            } else {
                AtomStatus::Deferred
            }
        }
        Formula::Atom(e) => {
            let u = unsolved_vars(e, &unsolved);
            if u.is_empty() {
                return AtomStatus::Ready { solves: vec![] };
            }
            // A predicate-position call can solve unknown arguments if a mode
            // with those outputs exists.
            if let Expr::Call { name, .. } = e {
                if call_can_solve(table, name, e, &u) {
                    return AtomStatus::Ready { solves: u };
                }
            }
            AtomStatus::Deferred
        }
        Formula::Not(inner) => {
            let u = formula_unsolved(inner, &unsolved);
            if u.is_empty() {
                AtomStatus::Ready { solves: vec![] }
            } else {
                AtomStatus::Deferred
            }
        }
        // Nested non-atom structure inside a conjunction (a disjunction):
        // recurse conservatively — ready iff it has no unsolved unknowns.
        other => {
            let u = formula_unsolved(other, &unsolved);
            if u.is_empty() {
                AtomStatus::Ready { solves: vec![] }
            } else {
                AtomStatus::Deferred
            }
        }
    }
}

fn is_notall(e: &Expr) -> bool {
    matches!(e, Expr::Call { receiver: None, name, .. } if name == "notall")
}

/// Applies the §4.4 interpretation of `notall`: dropped (`true`) when any
/// argument is unknown/unsolved, `false` when all are known.
fn normalize_notall(
    atom: &Formula,
    unknowns: &HashSet<String>,
    solved: &HashSet<String>,
) -> Formula {
    if let Formula::Atom(Expr::Call {
        receiver: None,
        name,
        args,
    }) = atom
    {
        if name == "notall" {
            let any_unknown = args.iter().any(|a| {
                collect_vars(a)
                    .iter()
                    .any(|v| unknowns.contains(v) && !solved.contains(v))
            });
            return if any_unknown {
                Formula::Bool(true)
            } else {
                Formula::Bool(false)
            };
        }
    }
    atom.clone()
}

/// Whether a pattern with the given unsolved unknowns can be solved when
/// matched against a known value.
fn solvable_pattern(table: &ClassTable, pattern: &Expr, unsolved: &[String]) -> bool {
    match pattern {
        Expr::Var(_) | Expr::Decl(..) | Expr::Wildcard | Expr::Result | Expr::This => true,
        Expr::Binary(..) | Expr::Neg(_) => {
            // Linear arithmetic is invertible when exactly one unknown occurs.
            unsolved.len() == 1
        }
        Expr::Call { name, .. } => call_can_solve(table, name, pattern, unsolved),
        Expr::Tuple(elems) => elems.iter().all(|e| {
            let u = collect_vars(e)
                .into_iter()
                .filter(|v| unsolved.contains(v))
                .collect::<Vec<_>>();
            u.is_empty() || solvable_pattern(table, e, &u)
        }),
        Expr::As(a, b) | Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => {
            solvable_pattern(table, a, unsolved) || solvable_pattern(table, b, unsolved)
        }
        Expr::Where(p, _) => solvable_pattern(table, p, unsolved),
        _ => false,
    }
}

/// Whether some declared mode of `name` (looked up on any type, since the
/// static receiver type is not tracked during extraction) can output the
/// unsolved variables appearing in the call's arguments.
fn call_can_solve(table: &ClassTable, name: &str, call: &Expr, unsolved: &[String]) -> bool {
    let Expr::Call { args, .. } = call else {
        return false;
    };
    // Which argument positions mention unsolved unknowns?
    let out_positions: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| collect_vars(a).iter().any(|v| unsolved.contains(v)))
        .map(|(i, _)| i)
        .collect();
    // Search every type for a method of this name with a compatible mode.
    for ty in table.types() {
        if let Some(m) = ty.methods.iter().find(|m| m.decl.name == name) {
            for mode in &m.modes {
                let outputs_ok = out_positions.iter().all(|&i| {
                    m.decl
                        .params
                        .get(i)
                        .map(|p| mode.unknown_params.contains(&p.name))
                        .unwrap_or(false)
                });
                if outputs_ok {
                    return true;
                }
            }
        }
    }
    // Free-standing methods too.
    if let Some(m) = table.lookup_free_method(name) {
        for mode in &m.modes {
            let outputs_ok = out_positions.iter().all(|&i| {
                m.decl
                    .params
                    .get(i)
                    .map(|p| mode.unknown_params.contains(&p.name))
                    .unwrap_or(false)
            });
            if outputs_ok {
                return true;
            }
        }
    }
    false
}

fn unsolved_vars(e: &Expr, unsolved: &impl Fn(&str) -> bool) -> Vec<String> {
    collect_vars(e)
        .into_iter()
        .filter(|v| unsolved(v))
        .collect()
}

fn formula_unsolved(f: &Formula, unsolved: &impl Fn(&str) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    collect_formula_vars(f, &mut out);
    out.into_iter().filter(|v| unsolved(v)).collect()
}

/// All variable names mentioned by an expression (references and
/// declarations), excluding wildcards.
pub fn collect_vars(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    collect_expr_vars(e, &mut out);
    out
}

fn collect_expr_vars(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Var(name) => out.push(name.clone()),
        Expr::Decl(_, name) => {
            if name != "_" {
                out.push(name.clone());
            }
        }
        Expr::Field(b, _) => collect_expr_vars(b, out),
        Expr::Call { receiver, args, .. } => {
            if let Some(r) = receiver {
                collect_expr_vars(r, out);
            }
            for a in args {
                collect_expr_vars(a, out);
            }
        }
        Expr::Index(a, b) | Expr::Binary(_, a, b) => {
            collect_expr_vars(a, out);
            collect_expr_vars(b, out);
        }
        Expr::NewArray(_, a) | Expr::Neg(a) => collect_expr_vars(a, out),
        Expr::Tuple(xs) => {
            for x in xs {
                collect_expr_vars(x, out);
            }
        }
        Expr::As(a, b) | Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => {
            collect_expr_vars(a, out);
            collect_expr_vars(b, out);
        }
        Expr::Where(p, f) => {
            collect_expr_vars(p, out);
            collect_formula_vars(f, out);
        }
        // `this` and `result` participate in mode analysis like ordinary
        // variables, under their reserved names.
        Expr::This => out.push("this".to_owned()),
        Expr::Result => out.push("result".to_owned()),
        Expr::IntLit(_) | Expr::BoolLit(_) | Expr::StrLit(_) | Expr::Null | Expr::Wildcard => {}
    }
}

fn collect_formula_vars(f: &Formula, out: &mut Vec<String>) {
    match f {
        Formula::Bool(_) => {}
        Formula::Cmp(_, a, b) => {
            collect_expr_vars(a, out);
            collect_expr_vars(b, out);
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
            collect_formula_vars(a, out);
            collect_formula_vars(b, out);
        }
        Formula::Not(a) => collect_formula_vars(a, out),
        Formula::Atom(e) => collect_expr_vars(e, out),
    }
}

/// Extracts the matching precondition for a declared method and mode, using
/// the defaults of the paper: a missing `matches` clause is `false`, except
/// that every mode of a method *without any* specification clauses defaults
/// to an uninformative `true`… no — the paper's default is `matches(false)`;
/// callers that want a different policy handle it themselves.
pub fn extract_for_mode(
    table: &ClassTable,
    clause: Option<&Formula>,
    knowns: &[String],
    unknowns: &[String],
) -> Extracted {
    match clause {
        None => Extracted::trivially_false(),
        Some(c) => extract(table, c, knowns, unknowns),
    }
}

/// A type hint for the remaining unknowns of an extraction, when the clause
/// declared them explicitly.
pub fn declared_type_of(clause: &Formula, var: &str) -> Option<Type> {
    clause
        .declared_vars()
        .into_iter()
        .find(|(_, n)| n == var)
        .map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use jmatch_syntax::{parse_formula, parse_program};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        let program = parse_program("").unwrap();
        let mut d = Diagnostics::new();
        ClassTable::build(&program, &mut d)
    }

    fn fmt(f: &Formula) -> String {
        format!("{f:?}")
    }

    #[test]
    fn znat_forward_mode_keeps_bound() {
        // matches(n >= 0), forward mode: n known.
        let table = empty_table();
        let clause = parse_formula("n >= 0").unwrap();
        let e = extract(&table, &clause, &["n".into()], &["result".into()]);
        assert_eq!(e.formula, clause);
        assert!(e.remaining_unknowns.is_empty());
    }

    #[test]
    fn znat_backward_mode_drops_bound() {
        // matches(n >= 0), backward mode: result known, n unknown → the atom
        // mentions an unsolvable unknown and is dropped.
        let table = empty_table();
        let clause = parse_formula("n >= 0").unwrap();
        let e = extract(&table, &clause, &["result".into()], &["n".into()]);
        assert_eq!(e.formula, Formula::Bool(true));
    }

    #[test]
    fn paper_example_solvable_unknown_is_kept() {
        // x > 0 && y >= 0 && x+1 = y  with x unknown, y known: reorders so
        // x+1 = y solves x, then keeps everything (§4.3 example).
        let table = empty_table();
        let clause = parse_formula("x > 0 && y >= 0 && x + 1 = y").unwrap();
        let e = extract(&table, &clause, &["y".into()], &["x".into()]);
        // All three atoms survive.
        let text = fmt(&e.formula);
        assert!(text.contains("Gt"), "x > 0 kept: {text}");
        assert!(text.contains("Ge"), "y >= 0 kept: {text}");
        assert!(e.remaining_unknowns.contains(&"x".to_string()));
        // And the solving equation comes before the use of x.
        let mut flat = Vec::new();
        flatten_and(&e.formula, &mut flat);
        let pos_solve = flat
            .iter()
            .position(|f| matches!(f, Formula::Cmp(CmpOp::Eq, ..)))
            .unwrap();
        let pos_use = flat
            .iter()
            .position(|f| matches!(f, Formula::Cmp(CmpOp::Gt, ..)))
            .unwrap();
        assert!(pos_solve < pos_use, "solve before use: {flat:?}");
    }

    #[test]
    fn paper_example_unsolvable_atoms_dropped() {
        // y >= 0 && x < y && x > 0 with x unknown: the two atoms mentioning x
        // cannot solve it and are dropped, leaving y >= 0 (§4.3).
        let table = empty_table();
        let clause = parse_formula("y >= 0 && x < y && x > 0").unwrap();
        let e = extract(&table, &clause, &["y".into()], &["x".into()]);
        let mut flat = Vec::new();
        flatten_and(&e.formula, &mut flat);
        assert_eq!(flat.len(), 1);
        assert!(matches!(flat[0], Formula::Cmp(CmpOp::Ge, ..)));
    }

    #[test]
    fn notall_is_true_with_unknowns_false_without() {
        // matches(notall(result)): construction mode (result unknown) → true;
        // predicate/pattern mode (result known) → false.
        let table = empty_table();
        let clause = parse_formula("notall(result)").unwrap();
        let construction = extract(&table, &clause, &[], &["result".into()]);
        assert_eq!(construction.formula, Formula::Bool(true));
        let predicate = extract(&table, &clause, &["result".into()], &[]);
        assert_eq!(predicate.formula, Formula::Bool(false));
    }

    #[test]
    fn notall_refinement_of_znat_predicate_mode() {
        // matches(n >= 0 && notall(result, n)): in the forward mode (n known,
        // result unknown) the notall is dropped, keeping n >= 0; in the
        // predicate mode (both known) it becomes false.
        let table = empty_table();
        let clause = parse_formula("n >= 0 && notall(result, n)").unwrap();
        let forward = extract(&table, &clause, &["n".into()], &["result".into()]);
        let mut flat = Vec::new();
        flatten_and(&forward.formula, &mut flat);
        assert!(flat.contains(&parse_formula("n >= 0").unwrap()));
        assert!(flat.contains(&Formula::Bool(true)));
        let predicate = extract(&table, &clause, &["n".into(), "result".into()], &[]);
        let mut flat2 = Vec::new();
        flatten_and(&predicate.formula, &mut flat2);
        assert!(flat2.contains(&Formula::Bool(false)));
    }

    #[test]
    fn call_with_mode_solves_unknowns() {
        // bar's matches clause references foo (§5.2 example):
        //   y > 0 && result = foo(y) && result < 4   with y known.
        let program = parse_program(
            "class M {
                int foo(int x) matches(x > 2) ensures(result >= x) ( result = x + 1 )
             }",
        )
        .unwrap();
        let mut d = Diagnostics::new();
        let table = ClassTable::build(&program, &mut d);
        let clause = parse_formula("y > 0 && result = foo(y) && result < 4").unwrap();
        let e = extract(&table, &clause, &["y".into()], &["result".into()]);
        let mut flat = Vec::new();
        flatten_and(&e.formula, &mut flat);
        // All three atoms are kept because result is solved by the call.
        assert_eq!(flat.len(), 3);
        assert!(e.remaining_unknowns.contains(&"result".to_string()));
    }

    #[test]
    fn nnf_pushes_negation_to_atoms() {
        let f = parse_formula("!(x >= 0 && y.zero())").unwrap();
        let nnf = to_nnf(f, false);
        match nnf {
            Formula::Or(a, b) => {
                assert!(matches!(*a, Formula::Cmp(CmpOp::Lt, ..)));
                assert!(matches!(*b, Formula::Not(_)));
            }
            other => panic!("unexpected nnf: {other:?}"),
        }
    }

    #[test]
    fn disjunctive_clause_extracts_each_arm() {
        let table = empty_table();
        let clause = parse_formula("x = 0 || x >= 5").unwrap();
        let e = extract(&table, &clause, &["x".into()], &[]);
        assert!(matches!(e.formula, Formula::Or(..)));
    }

    #[test]
    fn missing_clause_defaults_to_false() {
        let table = empty_table();
        let e = extract_for_mode(&table, None, &[], &[]);
        assert_eq!(e.formula, Formula::Bool(false));
    }

    #[test]
    fn declared_type_lookup() {
        let clause = parse_formula("this = succ(Nat y) && y = x").unwrap();
        assert_eq!(
            declared_type_of(&clause, "y"),
            Some(Type::Named("Nat".into()))
        );
        assert_eq!(declared_type_of(&clause, "z"), None);
    }
}
