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
//!
//! The generator is a fixed-seed xorshift, so every run checks the same
//! instances.

use jmatch::smt::euf::{self, EufResult};
use jmatch::smt::lia::{self, LiaResult};
use jmatch::smt::{Sort, TermData, TermId, TermStore};
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

/// Quadratic reference for `euf::check`: union-find by a plain parent
/// vector, congruence by comparing every pair of applications until
/// nothing changes, then every disequality, every pair of distinct integer
/// constants and every pair of opposite predicate literals.
fn reference_consistent(s: &TermStore, atoms: &[(TermId, bool)]) -> bool {
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
    let idx = |t: TermId| terms.iter().position(|&x| x == t).unwrap();
    let mut parent: Vec<usize> = (0..terms.len()).collect();
    fn find(parent: &[usize], mut i: usize) -> usize {
        while parent[i] != i {
            i = parent[i];
        }
        i
    }
    for &(atom, value) in atoms {
        if let (TermData::Eq(a, b), true) = (s.data(atom), value) {
            let (ra, rb) = (find(&parent, idx(*a)), find(&parent, idx(*b)));
            parent[ra] = rb;
        }
    }
    let congruent = |parent: &[usize], p: TermId, q: TermId| match (s.data(p), s.data(q)) {
        (TermData::App(f, xs, _), TermData::App(g, ys, _)) => {
            f == g
                && xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|(x, y)| find(parent, idx(*x)) == find(parent, idx(*y)))
        }
        _ => false,
    };
    loop {
        let mut changed = false;
        for i in 0..terms.len() {
            for j in 0..terms.len() {
                let (ri, rj) = (find(&parent, i), find(&parent, j));
                if ri != rj && congruent(&parent, terms[i], terms[j]) {
                    parent[ri] = rj;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for &(atom, value) in atoms {
        if let (TermData::Eq(a, b), false) = (s.data(atom), value) {
            if find(&parent, idx(*a)) == find(&parent, idx(*b)) {
                return false;
            }
        }
    }
    for (i, &x) in terms.iter().enumerate() {
        for (j, &y) in terms.iter().enumerate() {
            if let (TermData::IntConst(m), TermData::IntConst(n)) = (s.data(x), s.data(y)) {
                if m != n && find(&parent, i) == find(&parent, j) {
                    return false;
                }
            }
        }
    }
    for &(p, vp) in atoms {
        for &(q, vq) in atoms {
            if vp != vq && congruent(&parent, p, q) {
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
