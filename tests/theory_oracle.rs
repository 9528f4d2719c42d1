//! The theory checks against ground truth on small seeded instances.
//!
//! * `lia::check` is compared with exhaustive enumeration of a bounded box:
//!   every instance bounds each of its (at most five) variables to
//!   `[-3, 3]` and spreads its constraints over two or three disjoint
//!   variable groups, so the solver's per-component elimination is
//!   exercised. `Infeasible` must hold exactly when no point of the box
//!   satisfies every atom, every `Feasible` model must satisfy every atom,
//!   and the answer is never `Unknown`.
//! * `euf::check` is compared with a transparent quadratic reference
//!   written here (pairwise congruence to a fixpoint) on instances with
//!   equalities, disequalities, nested unary and binary applications,
//!   integer constants and predicates of both polarities; on the
//!   function-free fragment it is also compared with brute force over
//!   every assignment of the variables to a small domain (every partition
//!   of the variables).
//! * One persistent [`Closure`] is fed seeded sequences of assignments
//!   (an extension, a flipped value, dropped atoms, an unrelated set). It
//!   must answer every step as a fresh `euf::check` does, and after every
//!   consistent step its model classes must be the reference's
//!   congruence-closed partition.
//! * The solver's model of `a = b ∧ p(f(a)) ∧ p(f(b))` puts `f(a)` and
//!   `f(b)` in one object class.
//! * The CDCL [`SatSolver`] is driven through random clause sets over at
//!   most ten variables, mixing permanent clauses, `push` /
//!   `add_scoped_clause` / `pop` scopes and `solve_with_assumptions`.
//!   Every answer must match a scan of all assignments over the active
//!   clauses, and every `Sat` model must satisfy them. After every
//!   operation [`SatSolver::check_invariants`] checks the clause store
//!   against its watch lists and occurrence counts. Some `Sat` answers are
//!   followed at once by new clauses and a second solve, added while the
//!   model is still on the trail; a second driver runs long scopes of
//!   3-literal clauses, so that the pop-time compaction runs over tails
//!   where clauses learnt inside the scope survive.
//!
//! The generator is a fixed-seed xorshift, so every run checks the same
//! instances.

use jmatch::smt::euf::{self, Closure, EufResult};
use jmatch::smt::lia::{self, LiaResult};
use jmatch::smt::sat::{Lit, SatOutcome, SatSolver};
use jmatch::smt::{SatResult, Solver, Sort, TermData, TermId, TermStore};
use std::collections::HashMap;

/// Tiny deterministic xorshift generator (std only).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i64
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.next() as usize % xs.len()]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

// ---------------------------------------------------------------------------
// LIA
// ---------------------------------------------------------------------------

/// Box bound of every LIA variable.
const BOX: i64 = 3;

fn eval_int(s: &TermStore, t: TermId, m: &HashMap<TermId, i64>) -> i64 {
    match s.data(t) {
        TermData::IntConst(n) => *n,
        TermData::Var(..) | TermData::App(..) => m.get(&t).copied().unwrap_or(0),
        TermData::Add(a, b) => eval_int(s, *a, m) + eval_int(s, *b, m),
        TermData::Sub(a, b) => eval_int(s, *a, m) - eval_int(s, *b, m),
        TermData::Neg(a) => -eval_int(s, *a, m),
        TermData::MulConst(c, a) => c * eval_int(s, *a, m),
        other => panic!("not an integer term: {other:?}"),
    }
}

fn holds(s: &TermStore, (atom, value): (TermId, bool), m: &HashMap<TermId, i64>) -> bool {
    let truth = match s.data(atom) {
        TermData::Le(a, b) => eval_int(s, *a, m) <= eval_int(s, *b, m),
        TermData::Lt(a, b) => eval_int(s, *a, m) < eval_int(s, *b, m),
        TermData::Eq(a, b) => eval_int(s, *a, m) == eval_int(s, *b, m),
        other => panic!("not an arithmetic atom: {other:?}"),
    };
    truth == value
}

/// A random linear term over one or two variables of `group`, plus a
/// constant.
fn lin_term(s: &mut TermStore, rng: &mut XorShift, group: &[TermId]) -> TermId {
    let mut t = s.int(rng.range(-4, 4));
    for _ in 0..rng.range(1, 2) {
        let v = rng.pick(group);
        let c = rng.pick(&[-3, -2, -1, 1, 1, 2, 3]);
        let cv = if c == 1 { v } else { s.mul_const(c, v) };
        t = s.add(t, cv);
    }
    t
}

/// One instance: its variables and its atom assignment (box bounds
/// included).
fn lia_instance(s: &mut TermStore, rng: &mut XorShift) -> (Vec<TermId>, Vec<(TermId, bool)>) {
    let nvars = rng.range(2, 5) as usize;
    let ngroups = rng.range(2, 3.min(nvars as i64)) as usize;
    let vars: Vec<TermId> = (0..nvars)
        .map(|i| s.var(&format!("x{i}"), Sort::Int))
        .collect();
    // Every group gets at least one variable; the rest are spread at random.
    let mut groups: Vec<Vec<TermId>> = vars[..ngroups].iter().map(|&v| vec![v]).collect();
    for &v in &vars[ngroups..] {
        let g = rng.range(0, ngroups as i64 - 1) as usize;
        groups[g].push(v);
    }
    let lo = s.int(-BOX);
    let hi = s.int(BOX);
    let mut atoms = Vec::new();
    for &v in &vars {
        atoms.push((s.le(lo, v), true));
        atoms.push((s.le(v, hi), true));
    }
    for group in &groups {
        for _ in 0..rng.range(1, 3) {
            let a = lin_term(s, rng, group);
            let b = if rng.chance(50) {
                lin_term(s, rng, group)
            } else {
                s.int(rng.range(-3, 3))
            };
            let atom = match rng.range(0, 2) {
                0 => s.le(a, b),
                1 => s.lt(a, b),
                _ => s.eq(a, b),
            };
            // `eq` folds syntactically equal sides to `true`.
            if matches!(s.data(atom), TermData::BoolConst(_)) {
                continue;
            }
            atoms.push((atom, rng.chance(70)));
        }
    }
    // Now and then a variable-free atom, which no component owns.
    if rng.chance(15) {
        let a = s.int(rng.range(-2, 2));
        let b = s.int(rng.range(-2, 2));
        atoms.push((s.le(a, b), rng.chance(80)));
    }
    (vars, atoms)
}

/// Whether some point of the box satisfies every atom.
fn box_has_solution(s: &TermStore, vars: &[TermId], atoms: &[(TermId, bool)]) -> bool {
    let width = (2 * BOX + 1) as usize;
    let points = width.pow(vars.len() as u32);
    let mut m: HashMap<TermId, i64> = HashMap::new();
    (0..points).any(|mut p| {
        for &v in vars {
            m.insert(v, (p % width) as i64 - BOX);
            p /= width;
        }
        atoms.iter().all(|&a| holds(s, a, &m))
    })
}

#[test]
fn lia_agrees_with_box_enumeration() {
    let mut rng = XorShift(0x5eed_0f1a);
    let (mut feasible, mut infeasible) = (0, 0);
    for i in 0..400 {
        let mut s = TermStore::new();
        let (vars, atoms) = lia_instance(&mut s, &mut rng);
        let expected = box_has_solution(&s, &vars, &atoms);
        match lia::check(&s, &atoms) {
            LiaResult::Feasible(m) => {
                assert!(expected, "instance {i}: Feasible but the box has no point");
                for &a in &atoms {
                    assert!(
                        holds(&s, a, &m),
                        "instance {i}: model {m:?} violates {} = {}",
                        s.display(a.0),
                        a.1
                    );
                }
                feasible += 1;
            }
            LiaResult::Infeasible(_) => {
                assert!(
                    !expected,
                    "instance {i}: Infeasible but the box has a point"
                );
                infeasible += 1;
            }
            LiaResult::Unknown => panic!("instance {i}: Unknown on a bounded box"),
        }
    }
    // The generator must exercise both answers.
    assert!(
        feasible > 50 && infeasible > 50,
        "{feasible} / {infeasible}"
    );
}

// ---------------------------------------------------------------------------
// EUF
// ---------------------------------------------------------------------------

/// Every subterm of `t`.
fn subterms(s: &TermStore, t: TermId, out: &mut Vec<TermId>) {
    if out.contains(&t) {
        return;
    }
    out.push(t);
    if let TermData::App(_, args, _) = s.data(t) {
        for &a in args {
            subterms(s, a, out);
        }
    }
}

/// The reference's subterms and their congruence-closed partition: union-
/// find by a plain parent vector over the asserted equalities, then
/// congruence by comparing every pair of applications until nothing
/// changes.
struct Reference {
    terms: Vec<TermId>,
    parent: Vec<usize>,
}

impl Reference {
    fn new(s: &TermStore, atoms: &[(TermId, bool)]) -> Self {
        let mut terms = Vec::new();
        for &(atom, _) in atoms {
            match s.data(atom) {
                TermData::Eq(a, b) => {
                    subterms(s, *a, &mut terms);
                    subterms(s, *b, &mut terms);
                }
                TermData::App(..) => subterms(s, atom, &mut terms),
                _ => {}
            }
        }
        let mut r = Reference {
            parent: (0..terms.len()).collect(),
            terms,
        };
        for &(atom, value) in atoms {
            if let (TermData::Eq(a, b), true) = (s.data(atom), value) {
                let (ra, rb) = (r.class(*a), r.class(*b));
                r.parent[ra] = rb;
            }
        }
        loop {
            let mut changed = false;
            for i in 0..r.terms.len() {
                for j in 0..r.terms.len() {
                    let (ri, rj) = (r.find(i), r.find(j));
                    if ri != rj && r.congruent(s, r.terms[i], r.terms[j]) {
                        r.parent[ri] = rj;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        r
    }

    fn find(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    fn class(&self, t: TermId) -> usize {
        self.find(self.terms.iter().position(|&x| x == t).unwrap())
    }

    fn congruent(&self, s: &TermStore, p: TermId, q: TermId) -> bool {
        match (s.data(p), s.data(q)) {
            (TermData::App(f, xs, _), TermData::App(g, ys, _)) => {
                f == g
                    && xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|(x, y)| self.class(*x) == self.class(*y))
            }
            _ => false,
        }
    }
}

/// Quadratic reference for `euf::check`: the [`Reference`] partition, then
/// every disequality, every pair of distinct integer constants and every
/// pair of opposite predicate literals.
fn reference_consistent(s: &TermStore, atoms: &[(TermId, bool)]) -> bool {
    let r = Reference::new(s, atoms);
    for &(atom, value) in atoms {
        if let (TermData::Eq(a, b), false) = (s.data(atom), value) {
            if r.class(*a) == r.class(*b) {
                return false;
            }
        }
    }
    for (i, &x) in r.terms.iter().enumerate() {
        for (j, &y) in r.terms.iter().enumerate() {
            if let (TermData::IntConst(m), TermData::IntConst(n)) = (s.data(x), s.data(y)) {
                if m != n && r.find(i) == r.find(j) {
                    return false;
                }
            }
        }
    }
    for &(p, vp) in atoms {
        for &(q, vq) in atoms {
            if vp != vq && r.congruent(s, p, q) {
                return false;
            }
        }
    }
    true
}

fn consistent(s: &TermStore, atoms: &[(TermId, bool)]) -> bool {
    match euf::check(s, atoms) {
        EufResult::Consistent => true,
        EufResult::Inconsistent(_) => false,
    }
}

/// An object term of nesting depth at most `depth` over `vars`, built from
/// the unary `f` and the binary `g`.
fn obj_term(
    s: &mut TermStore,
    rng: &mut XorShift,
    obj: Sort,
    vars: &[TermId],
    depth: u32,
) -> TermId {
    if depth == 0 || rng.chance(45) {
        return rng.pick(vars);
    }
    if rng.chance(60) {
        let a = obj_term(s, rng, obj, vars, depth - 1);
        s.app("f", vec![a], obj)
    } else {
        let a = obj_term(s, rng, obj, vars, depth - 1);
        let b = obj_term(s, rng, obj, vars, depth - 1);
        s.app("g", vec![a, b], obj)
    }
}

/// An integer-sorted term: an integer variable, a constant, or `h(obj)`.
fn int_term(
    s: &mut TermStore,
    rng: &mut XorShift,
    obj: Sort,
    ints: &[TermId],
    objs: &[TermId],
    functions: bool,
) -> TermId {
    match rng.range(0, 2) {
        0 => rng.pick(ints),
        1 => s.int(rng.range(0, 1)),
        _ if functions => {
            let a = obj_term(s, rng, obj, objs, 1);
            s.app("h", vec![a], Sort::Int)
        }
        _ => rng.pick(ints),
    }
}

/// One EUF instance. Without `functions` only variables, integer constants
/// and predicates over variables occur.
fn euf_instance(s: &mut TermStore, rng: &mut XorShift, functions: bool) -> Vec<(TermId, bool)> {
    let sym = s.symbol("Obj");
    let obj = Sort::Obj(sym);
    // Fewer objects when functions occur, so congruent applications are
    // common enough to make a good share of the instances inconsistent.
    let nobj = rng.range(2, if functions { 3 } else { 4 }) as usize;
    let objs: Vec<TermId> = (0..nobj).map(|i| s.var(&format!("o{i}"), obj)).collect();
    let ints: Vec<TermId> = (0..2).map(|i| s.var(&format!("n{i}"), Sort::Int)).collect();
    let depth = if functions { 2 } else { 0 };
    let mut atoms = Vec::new();
    for _ in 0..rng.range(2, if functions { 9 } else { 7 }) {
        let atom = match rng.range(0, 9) {
            0..=4 => {
                let a = obj_term(s, rng, obj, &objs, depth);
                let b = obj_term(s, rng, obj, &objs, depth);
                s.eq(a, b)
            }
            5 | 6 => {
                let a = int_term(s, rng, obj, &ints, &objs, functions);
                let b = int_term(s, rng, obj, &ints, &objs, functions);
                s.eq(a, b)
            }
            7 | 8 => {
                let a = obj_term(s, rng, obj, &objs, depth.min(1));
                s.app("p", vec![a], Sort::Bool)
            }
            _ => {
                let a = obj_term(s, rng, obj, &objs, depth.min(1));
                let b = obj_term(s, rng, obj, &objs, depth.min(1));
                s.app("q", vec![a, b], Sort::Bool)
            }
        };
        // `eq` folds syntactically equal sides to `true`.
        if matches!(s.data(atom), TermData::BoolConst(_)) {
            continue;
        }
        atoms.push((atom, rng.chance(55)));
    }
    atoms
}

/// Brute force over the function-free fragment: some assignment of the
/// variables to values (objects to `0..k`, integers to the two constants
/// or `k` fresh values) satisfies every equality literal, and the
/// predicate literals never give one argument tuple both truth values.
fn brute_force_consistent(s: &TermStore, atoms: &[(TermId, bool)]) -> bool {
    let mut vars: Vec<TermId> = Vec::new();
    for &(atom, _) in atoms {
        let args: Vec<TermId> = match s.data(atom) {
            TermData::Eq(a, b) => vec![*a, *b],
            TermData::App(_, xs, _) => xs.clone(),
            other => panic!("unexpected atom {other:?}"),
        };
        for t in args {
            if matches!(s.data(t), TermData::Var(..)) && !vars.contains(&t) {
                vars.push(t);
            }
        }
    }
    let k = vars.len().max(1) as i64;
    // Object values 0..k; integer values 0, 1 (the constants) and k fresh.
    let domain = |t: TermId| -> Vec<i64> {
        if s.sort(t).is_int() {
            (0..2).chain(100..100 + k).collect()
        } else {
            (0..k).collect()
        }
    };
    let domains: Vec<Vec<i64>> = vars.iter().map(|&v| domain(v)).collect();
    let total: usize = domains.iter().map(Vec::len).product();
    (0..total).any(|mut p| {
        let mut val: HashMap<TermId, i64> = HashMap::new();
        for (v, d) in vars.iter().zip(&domains) {
            val.insert(*v, d[p % d.len()]);
            p /= d.len();
        }
        let value = |t: TermId| match s.data(t) {
            TermData::IntConst(n) => *n,
            _ => val[&t],
        };
        let mut preds: HashMap<(String, Vec<i64>), bool> = HashMap::new();
        atoms.iter().all(|&(atom, truth)| match s.data(atom) {
            TermData::Eq(a, b) => (value(*a) == value(*b)) == truth,
            TermData::App(sym, xs, _) => {
                let key = (
                    s.symbol_name(*sym).to_owned(),
                    xs.iter().map(|&x| value(x)).collect(),
                );
                *preds.entry(key).or_insert(truth) == truth
            }
            _ => unreachable!(),
        })
    })
}

#[test]
fn euf_agrees_with_the_quadratic_reference() {
    let mut rng = XorShift(0x0e0f_c10c);
    let (mut yes, mut no) = (0, 0);
    for i in 0..1500 {
        let mut s = TermStore::new();
        let atoms = euf_instance(&mut s, &mut rng, true);
        let expected = reference_consistent(&s, &atoms);
        let rendered: Vec<String> = atoms
            .iter()
            .map(|&(a, v)| format!("{}={v}", s.display(a)))
            .collect();
        assert_eq!(
            consistent(&s, &atoms),
            expected,
            "instance {i}: {rendered:?}"
        );
        if expected {
            yes += 1;
        } else {
            no += 1;
        }
    }
    assert!(yes > 200 && no > 200, "{yes} / {no}");
}

#[test]
fn euf_agrees_with_brute_force_on_the_function_free_fragment() {
    let mut rng = XorShift(0xb207_e5ee);
    let (mut yes, mut no) = (0, 0);
    for i in 0..1500 {
        let mut s = TermStore::new();
        let atoms = euf_instance(&mut s, &mut rng, false);
        let expected = brute_force_consistent(&s, &atoms);
        let rendered: Vec<String> = atoms
            .iter()
            .map(|&(a, v)| format!("{}={v}", s.display(a)))
            .collect();
        assert_eq!(
            consistent(&s, &atoms),
            expected,
            "instance {i}: {rendered:?}"
        );
        assert_eq!(
            reference_consistent(&s, &atoms),
            expected,
            "reference, instance {i}: {rendered:?}"
        );
        if expected {
            yes += 1;
        } else {
            no += 1;
        }
    }
    assert!(yes > 200 && no > 200, "{yes} / {no}");
}

/// One step of a closure sequence: the assignment and what it is.
fn closure_steps(
    s: &mut TermStore,
    rng: &mut XorShift,
) -> Vec<(&'static str, Vec<(TermId, bool)>)> {
    let full = euf_instance(s, rng, true);
    let half = full.len() / 2;
    let mut flipped = full.clone();
    if !full.is_empty() {
        let k = rng.range(0, full.len() as i64 - 1) as usize;
        flipped[k].1 = !flipped[k].1;
    }
    let dropped: Vec<(TermId, bool)> = full.iter().copied().filter(|_| rng.chance(60)).collect();
    let unrelated = euf_instance(s, rng, true);
    vec![
        ("prefix", full[..half].to_vec()),
        ("extension", full.clone()),
        ("extension again", full),
        ("value flip", flipped),
        ("dropped atoms", dropped),
        ("unrelated set", unrelated),
    ]
}

#[test]
fn persistent_closure_agrees_with_fresh_checks_and_the_reference_partition() {
    let mut rng = XorShift(0xc105_ed5e);
    let (mut reused, mut rebuilt, mut partitions) = (0, 0, 0);
    for i in 0..300 {
        let mut s = TermStore::new();
        let mut closure = Closure::new();
        for (step, atoms) in closure_steps(&mut s, &mut rng) {
            let rendered: Vec<String> = atoms
                .iter()
                .map(|&(a, v)| format!("{}={v}", s.display(a)))
                .collect();
            let answer = closure.check(&s, &atoms);
            if closure.reused() {
                reused += 1;
            } else {
                rebuilt += 1;
            }
            assert_eq!(
                answer,
                euf::check(&s, &atoms),
                "sequence {i}, {step}: {rendered:?}"
            );
            if answer != EufResult::Consistent {
                continue;
            }
            // Same class number exactly when the reference says congruent.
            let r = Reference::new(&s, &atoms);
            let classes = closure.classes(&s);
            let objects: Vec<TermId> = r
                .terms
                .iter()
                .copied()
                .filter(|&t| s.sort(t).is_obj())
                .collect();
            assert_eq!(classes.len(), objects.len(), "sequence {i}, {step}");
            for &x in &objects {
                for &y in &objects {
                    assert_eq!(
                        classes[&x] == classes[&y],
                        r.class(x) == r.class(y),
                        "sequence {i}, {step}: {} vs {} in {rendered:?}",
                        s.display(x),
                        s.display(y)
                    );
                }
            }
            partitions += 1;
        }
    }
    assert!(
        reused > 400 && rebuilt > 400 && partitions > 1200,
        "{reused} reused / {rebuilt} rebuilt / {partitions} partitions"
    );
}

#[test]
fn model_object_classes_respect_congruence() {
    let mut s = TermStore::new();
    let obj = Sort::Obj(s.symbol("Obj"));
    let a = s.var("a", obj);
    let b = s.var("b", obj);
    let fa = s.app("f", vec![a], obj);
    let fb = s.app("f", vec![b], obj);
    let pfa = s.app("p", vec![fa], Sort::Bool);
    let pfb = s.app("p", vec![fb], Sort::Bool);
    let eab = s.eq(a, b);
    let mut solver = Solver::new();
    for f in [eab, pfa, pfb] {
        solver.assert_formula(&s, f);
    }
    let SatResult::Sat(model) = solver.check(&mut s) else {
        panic!("a = b, p(f(a)), p(f(b)) is satisfiable");
    };
    let efab = s.eq(fa, fb);
    assert!(model.eval_bool(&s, efab), "a = b implies f(a) = f(b)");
    assert_eq!(
        model.display_for(&s, &[fa, fb]),
        "f(a) = obj#1, f(b) = obj#1"
    );
}

// ---------------------------------------------------------------------------
// SAT
// ---------------------------------------------------------------------------

/// A clause of 1..=3 literals over distinct variables of `0..n`.
fn random_clause(rng: &mut XorShift, n: u32) -> Vec<Lit> {
    let mut clause: Vec<Lit> = Vec::new();
    for _ in 0..rng.range(1, 3) {
        let var = rng.range(0, i64::from(n) - 1) as u32;
        if clause.iter().all(|l| l.var() != var) {
            clause.push(Lit::new(var, rng.chance(50)));
        }
    }
    clause
}

/// Whether a literal holds under the assignment `mask` (bit `v` is `v`).
fn lit_holds(lit: Lit, mask: u32) -> bool {
    (mask >> lit.var() & 1 == 1) == lit.is_positive()
}

/// Brute force: whether some assignment of `0..n` satisfies every clause
/// and every assumption.
fn brute_force_sat(n: u32, clauses: &[&Vec<Lit>], assumptions: &[Lit]) -> bool {
    (0..1u32 << n).any(|mask| {
        assumptions.iter().all(|&a| lit_holds(a, mask))
            && clauses
                .iter()
                .all(|c| c.iter().any(|&l| lit_holds(l, mask)))
    })
}

/// A clause of exactly three literals over distinct variables of `0..n`.
fn random_3_clause(rng: &mut XorShift, n: u32) -> Vec<Lit> {
    let mut clause: Vec<Lit> = Vec::new();
    while clause.len() < 3 {
        let var = rng.range(0, i64::from(n) - 1) as u32;
        if clause.iter().all(|l| l.var() != var) {
            clause.push(Lit::new(var, rng.chance(50)));
        }
    }
    clause
}

/// The weights of a random SAT session's operations, in percent of the
/// draws: permanent clause, scoped clause, push, pop; the rest solve.
struct OpMix {
    permanent: i64,
    scoped: i64,
    push: i64,
    pop: i64,
}

/// What a random SAT session saw.
#[derive(Default)]
struct SessionTally {
    sat: u32,
    unsat: u32,
    /// `Sat` answers followed at once by new clauses and a second solve.
    extended: u32,
    /// Pops that removed clauses and kept a clause learnt inside the
    /// scope: the pop-time compaction ran over a tail with survivors.
    learnt_survived_pop: u32,
}

/// Drives one solver through `ops` random operations over `n` variables,
/// checking every answer against brute force and the clause store's
/// invariants after every operation.
fn random_session(
    rng: &mut XorShift,
    n: u32,
    ops: usize,
    mix: &OpMix,
    clause: fn(&mut XorShift, u32) -> Vec<Lit>,
    tally: &mut SessionTally,
) {
    let mut solver = SatSolver::new();
    for v in 0..n {
        assert_eq!(solver.new_var(), v);
    }
    // `scopes[0]` holds the permanent clauses, `scopes[k]` those of the
    // k-th open scope.
    let mut scopes: Vec<Vec<Vec<Lit>>> = vec![Vec::new()];
    // `num_learnt()` at each open scope's push. Only a pop removes
    // clauses, and it leaves those older than its scope alone.
    let mut learnt_at_push: Vec<usize> = Vec::new();
    let solve_and_check =
        |solver: &mut SatSolver, scopes: &[Vec<Vec<Lit>>], assumptions: &[Lit]| -> bool {
            let outcome = if assumptions.is_empty() {
                solver.solve()
            } else {
                solver.solve_with_assumptions(assumptions)
            };
            solver.check_invariants();
            let active: Vec<&Vec<Lit>> = scopes.iter().flatten().collect();
            let want = brute_force_sat(n, &active, assumptions);
            assert_eq!(
                outcome == SatOutcome::Sat,
                want,
                "{n} variables, clauses {active:?}, assumptions {assumptions:?}"
            );
            if outcome == SatOutcome::Unsat {
                return false;
            }
            let holds = |l: &Lit| solver.value(l.var()) == Some(l.is_positive());
            for clause in &active {
                assert!(clause.iter().any(holds), "the model falsifies {clause:?}");
            }
            assert!(
                assumptions.iter().all(holds),
                "the model falsifies an assumption of {assumptions:?}"
            );
            true
        };
    for _ in 0..ops {
        let draw = rng.range(0, 99);
        if draw < mix.permanent {
            let c = clause(rng, n);
            solver.add_clause(&c);
            scopes[0].push(c);
        } else if draw < mix.permanent + mix.scoped {
            let c = clause(rng, n);
            solver.add_scoped_clause(&c);
            scopes.last_mut().unwrap().push(c);
        } else if draw < mix.permanent + mix.scoped + mix.push {
            solver.push();
            scopes.push(Vec::new());
            learnt_at_push.push(solver.num_learnt());
        } else if draw < mix.permanent + mix.scoped + mix.push + mix.pop && scopes.len() > 1 {
            let clauses = solver.num_clauses();
            solver.pop();
            scopes.pop();
            let learnt = learnt_at_push.pop().expect("a mark per open scope");
            if solver.num_clauses() < clauses && solver.num_learnt() > learnt {
                tally.learnt_survived_pop += 1;
            }
        } else {
            let assumptions = if rng.chance(50) {
                Vec::new()
            } else {
                let mut lits = random_clause(rng, n);
                lits.truncate(2);
                lits
            };
            if !solve_and_check(&mut solver, &scopes, &assumptions) {
                tally.unsat += 1;
                continue;
            }
            tally.sat += 1;
            if rng.chance(50) {
                // Add clauses while the model is on the trail, without a
                // pop, and solve again under the same assumptions.
                for _ in 0..rng.range(1, 2) {
                    let c = clause(rng, n);
                    if rng.chance(50) {
                        solver.add_clause(&c);
                        scopes[0].push(c);
                    } else {
                        solver.add_scoped_clause(&c);
                        scopes.last_mut().unwrap().push(c);
                    }
                    solver.check_invariants();
                }
                tally.extended += 1;
                if solve_and_check(&mut solver, &scopes, &assumptions) {
                    tally.sat += 1;
                } else {
                    tally.unsat += 1;
                }
            }
        }
        solver.check_invariants();
    }
}

#[test]
fn cdcl_agrees_with_brute_force_under_scopes_and_assumptions() {
    let mut rng = XorShift(0x5a7_c0de);
    let mut tally = SessionTally::default();
    let mix = OpMix {
        permanent: 30,
        scoped: 20,
        push: 10,
        pop: 10,
    };
    for _ in 0..300 {
        let n = rng.range(1, 10) as u32;
        random_session(&mut rng, n, 24, &mix, random_clause, &mut tally);
    }
    // The instances must exercise both answers and clauses added right
    // after a model.
    let SessionTally {
        sat,
        unsat,
        extended,
        ..
    } = tally;
    assert!(sat > 100 && unsat > 100, "{sat} sat, {unsat} unsat");
    assert!(extended > 100, "{extended} models followed by clauses");
}

#[test]
fn cdcl_clause_store_survives_long_scopes_with_learnt_clauses() {
    // Long scopes of 3-literal clauses near the satisfiability threshold
    // make the solver learn, so that pops compact tails that hold learnt
    // clauses and keep those that do not depend on the scope.
    let mut rng = XorShift(0x10a9_5c0e);
    let mut tally = SessionTally::default();
    let mix = OpMix {
        permanent: 15,
        scoped: 55,
        push: 4,
        pop: 4,
    };
    for _ in 0..60 {
        let n = rng.range(8, 12) as u32;
        random_session(&mut rng, n, 160, &mix, random_3_clause, &mut tally);
    }
    let SessionTally {
        sat,
        unsat,
        extended,
        learnt_survived_pop,
    } = tally;
    assert!(sat > 50 && unsat > 50, "{sat} sat, {unsat} unsat");
    assert!(extended > 50, "{extended} models followed by clauses");
    assert!(
        learnt_survived_pop > 20,
        "{learnt_survived_pop} pops kept a clause learnt inside the scope"
    );
}
