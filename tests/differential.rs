//! Differential testing: the plan engine (resumable stack machine) versus
//! the legacy tree-walking interpreter, driven through the `Program` /
//! `Query` embedding API.
//!
//! Every corpus program is driven through both engines by the same generic
//! workload — constructions, lazy deconstruction queries (backward mode),
//! constructor predicates, the deep-equality matrix, and forward method
//! calls with synthesized arguments — and the resulting transcripts
//! (values, solution rows, enumeration order, and failures) must be
//! identical line by line. A separate test pins that both engines honor
//! the same `Limits` (the legacy `Interp::solve` honored `depth` on one
//! engine and ignored it on the other). Another runs the programs the
//! benchmark's `query_exec` workload times and compares every result.

use jmatch::{args, Bindings, Engine, Limits, Program, Solutions, Value, Workspace};

mod harness;
use harness::{construct_pool, named_ctors, transcript};

fn engines_for(src: &str) -> (Program, Program) {
    let program = Workspace::new().verify(false).compile(src).unwrap();
    assert!(program.diagnostics().errors.is_empty());
    (
        program.clone().with_engine(Engine::Plan),
        program.with_engine(Engine::TreeWalk),
    )
}

#[test]
fn every_corpus_program_agrees_across_engines() {
    for entry in jmatch::corpus::entries() {
        let (plan, tree) = engines_for(&entry.combined_jmatch());
        let got = transcript(&plan);
        let want = transcript(&tree);
        // Interface-only entries (no concrete class, no free method) have
        // nothing to drive; everything else must yield a real workload.
        let has_concrete = plan
            .table()
            .types()
            .any(|t| !t.is_interface && !t.is_abstract)
            || !plan.table().free_methods().is_empty();
        if has_concrete {
            assert!(
                got.len() >= 20,
                "{}: workload too small ({} ops) to be meaningful",
                entry.name,
                got.len()
            );
            assert!(
                got.iter().any(|line| !line.contains(" -> err")),
                "{}: every operation failed; the workload exercised nothing",
                entry.name
            );
        }
        assert_eq!(
            got.len(),
            want.len(),
            "{}: transcript lengths diverge",
            entry.name
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "{}: engines diverge", entry.name);
        }
    }
}

/// On the plan engine, `try_collect_rows` gives the rows `solutions()`
/// yields, read off each solution by parameter name, errors included: for
/// every pooled value of every corpus program and every named
/// constructor, on objects of the program's own layout and on objects of a
/// second compile of the same source, whose foreign layout misses the
/// projection fast path, as guarded constructors do.
#[test]
fn collected_rows_equal_the_rows_of_the_solutions() {
    // Cases that take the projection fast path, and cases that run the
    // matching form because the constructor is guarded (not a pure field
    // permutation) or because the object's layout is foreign.
    let (mut fast, mut guarded, mut foreign_layout) = (0, 0, 0);
    for entry in jmatch::corpus::entries() {
        let src = entry.combined_jmatch();
        let compile = || Workspace::new().verify(false).compile(&src).unwrap();
        let (program, foreign) = (compile(), compile());
        let plan = program.plan();
        let pools = [
            (true, construct_pool(&program, &mut Vec::new())),
            (false, construct_pool(&foreign, &mut Vec::new())),
        ];
        for (own_layout, pool) in &pools {
            for v in pool {
                for name in named_ctors(program.table()) {
                    let Ok(query) = program.deconstruct(v, &name) else {
                        continue;
                    };
                    let mp = plan.method(plan.lookup_impl(v.class().unwrap(), &name).unwrap());
                    let projects = mp
                        .fast_ctor
                        .as_ref()
                        .is_some_and(|f| f.projection.is_some());
                    match (projects, own_layout) {
                        (true, true) => fast += 1,
                        (false, true) => guarded += 1,
                        (_, false) => foreign_layout += 1,
                    }
                    let mut solutions = query.solutions();
                    let rows: Vec<Vec<Value>> = solutions
                        .by_ref()
                        .map(|b| {
                            mp.info
                                .decl
                                .params
                                .iter()
                                .map(|p| b[&p.name].clone())
                                .collect()
                        })
                        .collect();
                    let want = match solutions.take_error() {
                        Some(e) => Err(e),
                        None => Ok(rows),
                    };
                    assert_eq!(
                        format!("{:?}", query.try_collect_rows()),
                        format!("{want:?}"),
                        "{}: {v}.{name}",
                        entry.name
                    );
                }
            }
        }
    }
    assert!(
        fast > 0 && guarded > 0 && foreign_layout > 0,
        "fast {fast}, guarded {guarded}, foreign {foreign_layout}"
    );
}

#[test]
fn enumeration_order_agrees_on_iterative_formulas() {
    let src = r#"
        class Gen {
            boolean pick(int n, int x) iterates(x)
                ( x = 0 # 1 # 2 || x = n + 1 || x = n - 1 # 7 )
        }
    "#;
    let (plan, tree) = engines_for(src);
    let collect = |program: &Program| -> Vec<i64> {
        let pick = program.method("Gen", "pick").unwrap();
        let mut env = Bindings::new();
        env.insert("n".into(), Value::Int(10));
        // `pick` is an instance method, but its body only mentions `n` and
        // `x`; iterate without a receiver like the legacy `solve` test did.
        let query = pick.iterate(None, &env).unwrap();
        query
            .solutions()
            .map(|b| b["x"].as_int().unwrap())
            .collect()
    };
    let a = collect(&plan);
    let b = collect(&tree);
    assert_eq!(a, b);
    assert_eq!(a, vec![0, 1, 2, 11, 9, 7]);
}

#[test]
fn imperative_statements_agree_across_engines() {
    let src = r#"
        class Acc {
            int grind(int n) {
                int total = 0;
                int i = 0;
                while (i < n) {
                    foreach (int x = 0 # 1 # 2 # i) {
                        total = total + total + x;
                    }
                    i = i + 1;
                }
                switch (total - total) {
                    case 0: total = total + 1;
                    default: total = -1;
                }
                cond {
                    (total > 100) { return total; }
                    (total > 0)   { return total + 1000; }
                    else          { return 0 - total; }
                }
            }
        }
    "#;
    let (plan, tree) = engines_for(src);
    for n in 0..5i64 {
        let mk = |program: &Program| {
            // No constructor declared: build the instance through the
            // program (all fields Null).
            let obj = program.instance("Acc").unwrap();
            program
                .method("Acc", "grind")
                .unwrap()
                .call(Some(&obj), args![n])
        };
        let a = mk(&plan);
        let b = mk(&tree);
        assert_eq!(a.is_ok(), b.is_ok(), "n={n}");
        if let (Ok(a), Ok(b)) = (a, b) {
            assert_eq!(a, b, "n={n}");
        }
    }

    // Ground truth, not only parity: every statement shape with a
    // hand-computed value or error on both engines.
    let (plan, tree) = engines_for(STATEMENTS);
    for &(name, args, want) in STATEMENT_CASES {
        let args: Vec<Value> = args.iter().map(|&i| Value::Int(i)).collect();
        for (engine, program) in [("plan", &plan), ("tree", &tree)] {
            let got = program
                .free_method(name)
                .unwrap()
                .call(None, args.clone())
                .map_err(|e| e.message);
            match (&got, want) {
                (Ok(Value::Int(v)), Ok(w)) if *v == w => {}
                (Err(msg), Err(w)) if msg.contains(w) => {}
                _ => panic!("{engine}: {name}{args:?} = {got:?}, want {want:?}"),
            }
        }
    }
}

/// One free method per statement shape. A scoped body (an if-then branch,
/// a `cond` arm, a `switch` case, a `foreach` iteration, a `{}` block)
/// keeps its updates to variables bound on entry and drops the variables
/// it introduces.
const STATEMENTS: &str = r#"
    static int maxIf(int a, int b) { int m = b; if (a > b) { m = a; } return m; }
    static int maxCond(int a, int b) {
        int m = b;
        cond { (a > b) { m = a; } else { } }
        return m;
    }
    static int maxCase(int a, int b) {
        int m = b;
        switch (a - b) {
            case 0: m = 0;
            case int d where (d > 0): m = a;
            default: m = m;
        }
        return m;
    }
    static int thenLocal(int n) { int s = 0; if (n > 0) { int t = n; s = t; } return s; }
    static int thenLocalGone(int n) { if (n > 0) { int t = n; } return t; }
    static int letFails(int n) { let (n = 1); return n; }
    static int ifElse(int n) {
        int r = 0;
        if (n > 5) { return 1; } else { r = n; }
        return r;
    }
    static int ifBinds(int n) {
        if (int k = n - 1 && k > 2) { return k; } else { return 0 - n; }
    }
    static int ifBindsGone(int n) {
        if (int k = n - 1 && k > 2) { n = 0; }
        return k;
    }
    static int condPartial(int n) {
        cond { (n > 10) { return 1; } (int k = n && k < 0) { return k; } }
        return 0;
    }
    static int sumDoubles(int n) {
        int s = 0;
        foreach (int x = 1 # 2 # n) { int y = x * 2; s = s + y; }
        return s;
    }
    static int foreachGone(int n) { foreach (int x = n) { } return x; }
    static int shadow(int x) {
        int s = 0;
        foreach (int x = 1 # 2) { s = s + x; }
        return s * 10 + x;
    }
    static int countUp(int n) {
        int i = 0;
        while (i < n && i >= 0) { i = i + 1; }
        return i;
    }
    static int nested(int n) {
        int s = 1;
        { int t = n; s = s + t; { s = s * 2; } }
        return s;
    }
    static int nestedGone(int n) { { int t = n; } return t; }
    static int pair(int a, int b) {
        switch (a, b) {
            case (0, int y): return y;
            case (int x, 0): return x + 100;
            default: return -1;
        }
    }
    static int fallThrough(int n) {
        switch (n) {
            case 1:
            case 2: return 12;
            case 3:
            default: return 99;
        }
    }
    static int fellOff(int n) {
        switch (n) {
            case 1: return 1;
            case 2:
        }
    }
    static int badAssign(int n) { n.f = 10 / n; return 0; }
"#;

/// `(method, arguments, value or error message)` for [`STATEMENTS`].
type StatementCase = (&'static str, &'static [i64], Result<i64, &'static str>);

const STATEMENT_CASES: &[StatementCase] = &[
    ("maxIf", &[5, 3], Ok(5)),
    ("maxIf", &[3, 5], Ok(5)),
    ("maxCond", &[5, 3], Ok(5)),
    ("maxCond", &[3, 5], Ok(5)),
    ("maxCase", &[5, 3], Ok(5)),
    ("maxCase", &[3, 3], Ok(0)),
    ("maxCase", &[3, 5], Ok(5)),
    ("thenLocal", &[3], Ok(3)),
    ("thenLocal", &[-3], Ok(0)),
    // A `foreach` solution binds only the slots unbound on entry: a
    // redeclared outer variable keeps its value.
    ("shadow", &[9], Ok(189)),
    ("thenLocalGone", &[3], Err("unbound variable `t`")),
    ("letFails", &[1], Ok(1)),
    ("letFails", &[2], Err("let statement failed to match")),
    ("ifElse", &[7], Ok(1)),
    ("ifElse", &[4], Ok(4)),
    ("ifBinds", &[7], Ok(6)),
    ("ifBinds", &[2], Ok(-2)),
    ("ifBindsGone", &[7], Err("unbound variable `k`")),
    ("condPartial", &[11], Ok(1)),
    ("condPartial", &[-4], Ok(-4)),
    ("condPartial", &[4], Err("non-exhaustive cond at run time")),
    ("sumDoubles", &[5], Ok(16)),
    ("foreachGone", &[5], Err("unbound variable `x`")),
    ("countUp", &[7], Ok(7)),
    ("countUp", &[-1], Ok(0)),
    ("nested", &[4], Ok(10)),
    ("nestedGone", &[4], Err("unbound variable `t`")),
    ("pair", &[0, 7], Ok(7)),
    ("pair", &[8, 0], Ok(108)),
    ("pair", &[0, 0], Ok(0)),
    ("pair", &[1, 1], Ok(-1)),
    ("fallThrough", &[1], Ok(12)),
    ("fallThrough", &[2], Ok(12)),
    ("fallThrough", &[3], Ok(99)),
    ("fallThrough", &[5], Ok(99)),
    ("fellOff", &[1], Ok(1)),
    ("fellOff", &[2], Err("switch fell off the end")),
    ("fellOff", &[3], Err("non-exhaustive switch at run time")),
    // The right-hand side runs first, so its error wins.
    ("badAssign", &[0], Err("division by zero")),
    ("badAssign", &[2], Err("unsupported assignment target")),
];

/// Both engines stop a `while` loop when its condition would run for the
/// 1,000,001st time, whether the condition compiles to a fused compare or
/// to a general goal: 999,999 iterations pass, 1,000,000 do not.
#[test]
fn while_loops_share_one_iteration_budget() {
    let src = r#"
        static int cmpLoop(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }
        static int goalLoop(int n) {
            int i = 0;
            while (i < n && i >= 0) { i = i + 1; }
            return i;
        }
    "#;
    let (plan, tree) = engines_for(src);
    for name in ["cmpLoop", "goalLoop"] {
        for (engine, program) in [("plan", &plan), ("tree", &tree)] {
            let f = program.free_method(name).unwrap();
            assert_eq!(
                f.call(None, args![999_999i64]).ok(),
                Some(Value::Int(999_999)),
                "{engine}: {name}"
            );
            let err = f.call(None, args![1_000_000i64]).unwrap_err();
            assert_eq!(
                err.message, "while loop exceeded iteration budget",
                "{engine}: {name}"
            );
        }
    }
}

/// A deep-recursion workload both engines can run out of budget on: `elem`
/// descends one constructor match per list cell.
const DEEP_LIST: &str = r#"
    interface IntList {
        constructor nil() returns();
        constructor cons(int h, IntList t) returns(h, t);
        boolean elem(int x) iterates(x);
    }
    class Nil implements IntList {
        constructor nil() returns() ( true )
        constructor cons(int h, IntList t) returns(h, t) ( false )
        boolean elem(int x) iterates(x) ( false )
    }
    class Cons implements IntList {
        int head;
        IntList tail;
        constructor nil() returns() ( false )
        constructor cons(int h, IntList t) returns(h, t) ( head = h && tail = t )
        boolean elem(int x) iterates(x) ( cons(x, _) || cons(_, IntList t) && t.elem(x) )
    }
"#;

fn int_list(program: &Program, n: i64) -> Value {
    let nil = program.ctor("Nil", "nil").unwrap();
    let cons = program.ctor("Cons", "cons").unwrap();
    let mut l = nil.construct(args![]).unwrap();
    for i in 0..n {
        l = cons.construct(args![i, l]).unwrap();
    }
    l
}

/// Satellite fix for the old `Interp::solve` inconsistency: the `depth`
/// parameter was honored by the tree-walker and silently ignored by the
/// plan engine. The `Query` API takes explicit `Limits` and both engines
/// must honor them: generous limits yield identical full enumerations;
/// tight limits make *both* engines stop with a `LimitExceeded` error.
#[test]
fn limits_are_honored_identically_by_both_engines() {
    use jmatch::runtime::RtErrorKind;

    let (plan, tree) = engines_for(DEEP_LIST);
    let enumerate = |program: &Program, limits: Limits| {
        let list = int_list(program, 40);
        let elem = program.method("Cons", "elem").unwrap();
        let query = elem
            .iterate(Some(&list), &Bindings::new())
            .unwrap()
            .limits(limits);
        let mut solutions = query.solutions();
        let seen: Vec<i64> = solutions
            .by_ref()
            .map(|b| b["x"].as_int().unwrap())
            .collect();
        (seen, solutions.take_error())
    };

    // Generous limits: both engines enumerate the full list identically.
    let generous = Limits::default();
    let (plan_seen, plan_err) = enumerate(&plan, generous);
    let (tree_seen, tree_err) = enumerate(&tree, generous);
    assert_eq!(plan_seen, (0..40).rev().collect::<Vec<i64>>());
    assert_eq!(plan_seen, tree_seen);
    assert!(plan_err.is_none(), "{plan_err:?}");
    assert!(tree_err.is_none(), "{tree_err:?}");

    // Tight step budget: both engines stop with a LimitExceeded error.
    let tight_steps = Limits {
        max_steps: 50,
        ..Limits::default()
    };
    for (name, program) in [("plan", &plan), ("tree", &tree)] {
        let (seen, err) = enumerate(program, tight_steps);
        assert!(
            seen.len() < 40,
            "{name}: step budget did not cut the enumeration short"
        );
        let err = err.unwrap_or_else(|| panic!("{name}: no limit error"));
        assert!(
            matches!(&err.kind, RtErrorKind::LimitExceeded { resource, .. } if resource == "steps"),
            "{name}: {err:?}"
        );
    }

    // Tight depth ceiling: both engines stop with a LimitExceeded error.
    let tight_depth = Limits {
        max_depth: 5,
        ..Limits::default()
    };
    for (name, program) in [("plan", &plan), ("tree", &tree)] {
        let (seen, err) = enumerate(program, tight_depth);
        assert!(
            seen.len() < 40,
            "{name}: depth ceiling did not cut the enumeration short"
        );
        let err = err.unwrap_or_else(|| panic!("{name}: no limit error"));
        assert!(
            matches!(&err.kind, RtErrorKind::LimitExceeded { resource, .. } if resource == "depth"),
            "{name}: {err:?}"
        );
    }

    // Deconstruction queries honor limits too (the plan engine used to have
    // a fixed internal ceiling only). Step *units* are engine-specific, so
    // the budget is chosen below what either engine needs for one row.
    let tight_call = Limits {
        max_steps: 1,
        ..Limits::default()
    };
    for (name, program) in [("plan", &plan), ("tree", &tree)] {
        let list = int_list(program, 10);
        let err = program
            .deconstruct(&list, "cons")
            .unwrap()
            .limits(tight_call)
            .try_collect()
            .unwrap_err();
        assert!(
            matches!(&err.kind, RtErrorKind::LimitExceeded { .. }),
            "{name}: {err:?}"
        );
    }
}

/// The goal positions that compile to in-stream sub-chains or to their own
/// bytecode bodies: negation in solved forms and statements, a conjunction
/// only schedulable at run time, `where` refinements at the top of a
/// pattern and nested inside constructor arguments, and `let` / `if` /
/// `cond` / `foreach` / `while` over goals that are not comparisons.
const GOAL_POSITIONS: &str = r#"
    interface List {
        constructor nil() returns();
        constructor cons(int h, List t) returns(h, t);
        boolean has(int x) iterates(x);
        boolean odd(int x) iterates(x);
        boolean rising(int a, int b) iterates(a, b);
    }
    class Nil implements List {
        constructor nil() returns() ( true )
        constructor cons(int h, List t) returns(h, t) ( false )
        boolean has(int x) iterates(x) ( false )
        boolean odd(int x) iterates(x) ( false )
        boolean rising(int a, int b) iterates(a, b) ( false )
    }
    class Cons implements List {
        int head;
        List tail;
        constructor nil() returns() ( false )
        constructor cons(int h, List t) returns(h, t) ( head = h && tail = t )
        boolean has(int x) iterates(x) ( x = head || tail.has(x) )
        boolean odd(int x) iterates(x) ( has(x) && !(x = 2 * (x / 2)) )
        boolean rising(int a, int b) iterates(a, b)
            ( cons(a, cons(int c where (c > a && !(c = a + 1)), _)) && b = c
              || tail.rising(a, b) )
    }
    static int firstOdd(List l) {
        let (l.odd(int x));
        return x;
    }
    static int classify(List l) {
        switch (l) {
            case cons(int h, cons(int k where (k > h), _)) where (!(h = 0)): return 3;
            case cons(int h where (!(h = 0)), _): return 2;
            case cons(_, _): return 1;
            default: return 0;
        }
    }
    static int sumOdds(List l) {
        int acc = 0;
        foreach (l.odd(int x)) { acc = acc * 10 + x; }
        return acc;
    }
    static int walk(List l) {
        int n = 0;
        List cur = l;
        while (cur = cons(int h, List rest)) { n = n * 10 + h; cur = rest; }
        return n;
    }
    static int probe(List l, int v) {
        if (l.has(v) && !(v = 0)) { return 1; } else { return 0; }
    }
    static int shape(List l) {
        cond {
            (l = cons(int h, nil())) { return h; }
            (l = cons(int h, cons(int k, _)) && !(h = k)) { return h - k; }
            else { return -1; }
        }
    }
    static int sched(int k) {
        int acc = 0;
        foreach ((y = k || true) && int x = y + 1 && y = 5) { acc = acc * 10 + x; }
        return acc;
    }
"#;

/// Raw query formulas over the same program: a run-time scheduled
/// conjunction with a disjunction inside one of its items, one whose
/// schedule gets stuck (an error both engines must raise), and a `where`
/// plus negation over an iterative call.
const GOAL_POSITION_QUERIES: &[&str] = &[
    "(y = k || true) && int x = y + 1 && y = 5",
    "int x = int y && int y = k",
    "l.rising(int a, int b) && !(b = a + 2)",
    "l.has(int x where (!(x = k)))",
];

fn goal_position_lists(program: &Program) -> Vec<Value> {
    let nil = program.ctor("Nil", "nil").unwrap();
    let cons = program.ctor("Cons", "cons").unwrap();
    [
        &[][..],
        &[0],
        &[5],
        &[4, 4],
        &[3, 4, 7, 2, 9],
        &[1, 2, 3, 6, 5, 8],
        &[0, 2, 4],
    ]
    .iter()
    .map(|xs| {
        let mut l = nil.construct(args![]).unwrap();
        for &x in xs.iter().rev() {
            l = cons.construct(args![x, l]).unwrap();
        }
        l
    })
    .collect()
}

/// A solution stream as text: sorted `name=value` pairs per solution, and
/// a trailing `err` row with the error's text when the stream ended in an
/// error.
fn solutions_text(mut solutions: Solutions<'_>) -> String {
    let mut rows: Vec<String> = solutions
        .by_ref()
        .map(|b| {
            let mut pairs: Vec<String> = b.iter().map(|(k, v)| format!("{k}={v}")).collect();
            pairs.sort();
            pairs.join(",")
        })
        .collect();
    if let Some(e) = solutions.take_error() {
        rows.push(format!("err {e}"));
    }
    rows.join(";")
}

/// One line per operation: forward calls (nested runs of the machine) and
/// iterative and raw-formula queries (the machine's outermost run).
fn goal_position_transcript(program: &Program) -> Vec<String> {
    let mut log = Vec::new();
    let lists = goal_position_lists(program);
    let outcome = |r: jmatch::runtime::RtResult<Value>| match r {
        Ok(v) => v.to_string(),
        Err(e) => format!("err {e}"),
    };
    for (i, l) in lists.iter().enumerate() {
        for name in ["firstOdd", "classify", "sumOdds", "walk", "shape"] {
            let f = program.free_method(name).unwrap();
            log.push(format!(
                "{name} #{i} -> {}",
                outcome(f.call(None, args![l.clone()]))
            ));
        }
        for v in 0..4i64 {
            let f = program.free_method("probe").unwrap();
            let r = f.call(None, args![l.clone(), v]);
            log.push(format!("probe #{i} {v} -> {}", outcome(r)));
        }
        let Some(class) = l.class().map(str::to_owned) else {
            continue;
        };
        // Forward mode: every parameter known, so `!` and nested `where`
        // run inside a forward call's nested run.
        for x in 0..10i64 {
            let odd = program.method(&class, "odd").unwrap();
            let r = odd.call(Some(l), args![x]);
            log.push(format!("odd #{i} {x} -> {}", outcome(r)));
            let rising = program.method(&class, "rising").unwrap();
            let r = rising.call(Some(l), args![x, x + 3]);
            log.push(format!("rising #{i} {x} -> {}", outcome(r)));
        }
        // Iterative mode: the same goals as the query itself.
        for name in ["has", "odd", "rising"] {
            let m = program.method(&class, name).unwrap();
            let query = m.iterate(Some(l), &Bindings::new()).unwrap();
            log.push(format!(
                "iterate {name} #{i} -> {}",
                solutions_text(query.solutions())
            ));
        }
    }
    for k in 0..7i64 {
        let f = program.free_method("sched").unwrap();
        log.push(format!("sched {k} -> {}", outcome(f.call(None, args![k]))));
    }
    for (qi, text) in GOAL_POSITION_QUERIES.iter().enumerate() {
        let formula = jmatch::syntax::parse_formula(text).unwrap();
        for (i, l) in lists.iter().enumerate() {
            for k in [2i64, 5] {
                let mut env = Bindings::new();
                env.insert("k".into(), Value::Int(k));
                env.insert("l".into(), l.clone());
                let query = program.solve(&formula, &env, None);
                let seq = solutions_text(query.solutions());
                log.push(format!("query {qi} #{i} k={k} -> {seq}"));
            }
        }
    }
    log
}

#[test]
fn goal_positions_agree_across_engines() {
    let (plan, tree) = engines_for(GOAL_POSITIONS);
    let got = goal_position_transcript(&plan);
    let want = goal_position_transcript(&tree);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "engines diverge");
    }
    // The workload must exercise every shape, not just agree on errors.
    for needle in [
        "firstOdd #4 -> 3",
        "sumOdds #4 -> 379",
        "classify #4 -> 3",
        "classify #6 -> 1",
        "walk #4 -> 34729",
        "sched 5 -> 66",
        "sched 2 -> 6",
    ] {
        assert!(got.iter().any(|l| l == needle), "missing `{needle}`");
    }
    // Query 1 ends in an error on some list: its last row is the error.
    assert!(got
        .iter()
        .any(|l| l.starts_with("query 1") && (l.contains(" -> err ") || l.contains(";err "))));
    assert!(got
        .iter()
        .any(|l| l.starts_with("iterate rising #4") && l.contains("a=4,b=7")));
}

/// The constructor-argument pattern rules, in `switch` and query
/// positions: an argument pattern commits to its first solution, and an
/// error raised inside one (here: `y * 2` cannot be inverted) skips the
/// row instead of failing the match.
#[test]
fn argument_pattern_rules_agree_across_engines() {
    let src = r#"
        class P {
            int a;
            int b;
            constructor mk(int x, int y) returns(x, y) ( a = x && b = y )
            boolean bad(int x) iterates(x) ( this = mk(x, int y * 2) )
            boolean rows(int x) iterates(x) ( this = mk(x, 4 | 4) )
        }
        static int pick(P p) {
            switch (p) {
                case mk(int x, int y * 2): return 1;
                case mk(_, _): return 2;
            }
        }
    "#;
    let (plan, tree) = engines_for(src);
    let transcript = |program: &Program| -> Vec<String> {
        let p = program
            .ctor("P", "mk")
            .unwrap()
            .construct(args![3, 4])
            .unwrap();
        let pick = program.free_method("pick").unwrap();
        let mut log = vec![format!("pick -> {:?}", pick.call(None, args![p.clone()]))];
        for name in ["bad", "rows"] {
            let m = program.method("P", name).unwrap();
            let query = m.iterate(Some(&p), &Bindings::new()).unwrap();
            log.push(format!("{name} -> [{}]", solutions_text(query.solutions())));
        }
        log
    };
    let got = transcript(&plan);
    assert_eq!(got, transcript(&tree), "engines diverge");
    assert_eq!(got, ["pick -> Ok(Int(2))", "bad -> []", "rows -> [x=3]"]);
}

/// A benchmark workload: drives a compiled program, returns its results.
type Workload = fn(&Program) -> Vec<i64>;

/// An equation with unknowns on both sides is the one equation no
/// direction solves. Both engines refuse it when it runs, with the same
/// text: the equation in source form.
#[test]
fn unsolvable_equations_fail_alike_on_both_engines() {
    let (plan, tree) = engines_for("static boolean h() { int z; int w; let z = w; return true; }");
    let formula = jmatch::syntax::parse_formula("x = y + 1").unwrap();
    let unsolvable = |equation: &str| {
        format!(
            "runtime error[other]: equation with unknowns on both sides is not solvable: \
             {equation}"
        )
    };
    for (engine, p) in [("plan", &plan), ("tree", &tree)] {
        let query = p.solve(&formula, &Bindings::new(), None);
        let mut solutions = query.solutions();
        assert_eq!(solutions.by_ref().count(), 0, "{engine}");
        let err = solutions.take_error().expect("the query fails");
        assert_eq!(err.to_string(), unsolvable("x = (y + 1)"), "{engine}");
        let err = p.free_method("h").unwrap().call(None, args![]).unwrap_err();
        assert_eq!(err.to_string(), unsolvable("z = w"), "{engine}");
    }
}

/// The programs the benchmark's `query_exec` workload times, run on both
/// engines at fixed sizes: every result must agree.
#[test]
fn benchmark_workloads_agree_across_engines() {
    let runtime = jmatch_bench::runtime_workload_source();
    let dispatch = jmatch_bench::repr_dispatch_source();
    let workloads: [(&str, &str, Workload); 6] = [
        ("nat_plus", &runtime, nat_plus),
        ("list_ops", &runtime, list_ops),
        ("enumeration", &runtime, enumeration),
        ("deconstruct", &runtime, deconstruct),
        (
            "field_access",
            jmatch_bench::REPR_FIELD_SOURCE,
            field_access,
        ),
        ("ctor_dispatch", &dispatch, ctor_dispatch),
    ];
    for (name, src, workload) in workloads {
        let (plan, tree) = engines_for(src);
        assert_eq!(workload(&plan), workload(&tree), "{name}: engines diverge");
    }
}

/// `plus(a, b).toInt()` for every pair of `ZNat` naturals `0..=6`: each
/// recursive step matches `succ` backwards.
fn nat_plus(p: &Program) -> Vec<i64> {
    let succ = p.ctor("ZNat", "succ").unwrap();
    let plus = p.free_method("plus").unwrap();
    let to_int = p.method("ZNat", "toInt").unwrap();
    let mut nats = vec![p.ctor("ZNat", "zero").unwrap().construct(args![]).unwrap()];
    for _ in 0..6 {
        let next = succ.construct(args![nats[nats.len() - 1].clone()]).unwrap();
        nats.push(next);
    }
    let mut out = Vec::new();
    for a in &nats {
        for b in &nats {
            let sum = plus.call(None, args![a.clone(), b.clone()]).unwrap();
            out.push(to_int.call(Some(&sum), args![]).unwrap().as_int().unwrap());
        }
    }
    out
}

/// A 12-element cons list: its `size`, the iterative `contains` called as
/// a predicate on each element, and deep equality with an equal list.
fn list_ops(p: &Program) -> Vec<i64> {
    let (a, b) = (cons_list(p, 12), cons_list(p, 12));
    let size = p.method("ConsList", "size").unwrap();
    let contains = p.method("ConsList", "contains").unwrap();
    let mut out = vec![size.call(Some(&a), args![]).unwrap().as_int().unwrap()];
    for i in 0..12 {
        let hit = contains.call(Some(&a), args![i]).unwrap();
        out.push(i64::from(hit.as_bool() == Some(true)));
    }
    out.push(i64::from(p.values_equal(&a, &b).unwrap()));
    out
}

/// `Gen.burn(40)`: a `while` loop around a `foreach` over an eight-way
/// or-pattern.
fn enumeration(p: &Program) -> Vec<i64> {
    let gen = p.instance("Gen").unwrap();
    let burn = p.method("Gen", "burn").unwrap();
    vec![burn.call(Some(&gen), args![40]).unwrap().as_int().unwrap()]
}

/// Walks a 64-element cons list by backward-mode `cons` queries, probing
/// the `nil` predicate at every cell.
fn deconstruct(p: &Program) -> Vec<i64> {
    let mut cur = cons_list(p, 64);
    let mut out = Vec::new();
    while !p.matches(&cur, "nil").unwrap() {
        let rows = p
            .deconstruct(&cur, "cons")
            .unwrap()
            .try_collect_rows()
            .unwrap();
        out.push(rows[0][0].as_int().unwrap());
        cur = rows[0][1].clone();
    }
    out
}

/// `churn(at(3, 5, 7, 11), 100)`: a hundred rounds of field reads.
fn field_access(p: &Program) -> Vec<i64> {
    let at = p.ctor("Point", "at").unwrap();
    let point = at.construct(args![3, 5, 7, 11]).unwrap();
    let churn = p.free_method("churn").unwrap();
    vec![churn
        .call(None, args![point, 100])
        .unwrap()
        .as_int()
        .unwrap()]
}

/// `route` over one instance of each of the 64 `Tag` classes.
fn ctor_dispatch(p: &Program) -> Vec<i64> {
    let route = p.free_method("route").unwrap();
    (0..jmatch_bench::REPR_DISPATCH_ARMS as i64)
        .map(|k| {
            let class = format!("C{k}");
            let v = p.ctor(&class, &class).unwrap().construct(args![k]).unwrap();
            route.call(None, args![v]).unwrap().as_int().unwrap()
        })
        .collect()
}

/// A corpus `ConsList` holding `0..n`, head first.
fn cons_list(p: &Program, n: i64) -> Value {
    let cons = p.ctor("ConsList", "cons").unwrap();
    let mut l = p
        .ctor("EmptyList", "nil")
        .unwrap()
        .construct(args![])
        .unwrap();
    for i in (0..n).rev() {
        l = cons.construct(args![i, l]).unwrap();
    }
    l
}
