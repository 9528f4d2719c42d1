//! Property-style integration tests over the core data structures and the
//! paper's headline guarantees.
//!
//! The input domains are small enough to enumerate exhaustively, so instead
//! of sampling them with a property-testing framework these tests sweep every
//! case deterministically (a strict superset of what random sampling covers).

use jmatch::core::table::ClassTable;
use jmatch::core::{extract, Diagnostics};
use jmatch::smt::{SatResult, Solver, Sort, TermStore};
use jmatch::syntax::parse_formula;
use jmatch::Workspace;

/// The SMT substrate agrees with a brute-force evaluation on small bounded
/// integer formulas: for every (a, b, c) in the grid, `-4 <= x <= 4 &&
/// x + a <= b && x != c` is satisfiable exactly when brute force finds a
/// witness, and any model the solver produces really is one.
#[test]
fn smt_agrees_with_bruteforce() {
    for a in -4i64..4 {
        for b in -4i64..4 {
            for c in -4i64..4 {
                let mut store = TermStore::new();
                let mut solver = Solver::new();
                let x = store.var("x", Sort::Int);
                let lo = store.int(-4);
                let hi = store.int(4);
                let ge = store.ge(x, lo);
                let le = store.le(x, hi);
                solver.assert_formula(&store, ge);
                solver.assert_formula(&store, le);
                let ca = store.int(a);
                let cb = store.int(b);
                let cc = store.int(c);
                let xa = store.add(x, ca);
                let f1 = store.le(xa, cb);
                let f2 = store.neq(x, cc);
                solver.assert_formula(&store, f1);
                solver.assert_formula(&store, f2);
                let expected = (-4..=4).any(|v| v + a <= b && v != c);
                match solver.check(&mut store) {
                    SatResult::Sat(m) => {
                        assert!(
                            expected,
                            "({a},{b},{c}): solver found a model but brute force says unsat"
                        );
                        let v = m.eval_int(&store, x);
                        assert!(
                            v + a <= b && v != c && (-4..=4).contains(&v),
                            "({a},{b},{c}): model value {v} violates the constraints"
                        );
                    }
                    SatResult::Unsat => {
                        assert!(
                            !expected,
                            "({a},{b},{c}): solver says unsat but a witness exists"
                        )
                    }
                    SatResult::Unknown => {}
                }
            }
        }
    }
}

/// Matching-precondition extraction never mentions dropped unknowns: the
/// extracted formula for a mode only refers to knowns and solvable unknowns.
#[test]
fn extraction_is_over_knowns() {
    for bound in 0i64..10 {
        let mut diags = Diagnostics::new();
        let program = jmatch::syntax::parse_program("").unwrap();
        let table = ClassTable::build(&program, &mut diags);
        let clause = parse_formula(&format!("n >= {bound} && k < n")).unwrap();
        // Mode where only `result` is known: both atoms mention unknowns that
        // cannot be solved, so everything is dropped.
        let e = extract(
            &table,
            &clause,
            &["result".into()],
            &["n".into(), "k".into()],
        );
        assert_eq!(format!("{:?}", e.formula), "Bool(true)");
        // Mode where n is known: the bound survives, `k < n` is dropped.
        let e2 = extract(&table, &clause, &["n".into()], &["k".into()]);
        let text = format!("{:?}", e2.formula);
        assert!(text.contains("Ge"), "{text}");
        assert!(!text.contains("Lt"), "{text}");
    }
}

#[test]
fn verification_is_deterministic() {
    // Two runs over the same corpus entry produce identical warnings.
    let entry = jmatch::corpus::entry("ConsList").unwrap();
    let run = || {
        Workspace::new()
            .max_expansion_depth(2)
            .compile(&entry.combined_jmatch())
            .unwrap()
            .diagnostics()
            .clone()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}
