//! Laziness: `Solutions` is a true pull-based iterator, so taking the first
//! solution of a large enumeration does O(1) work, not O(n).
//!
//! This is the Java_yield property the paper compiles to (§2.3, §5): a
//! `foreach` over a backward-mode method yields one solution at a time and
//! can stop early. The test pins it with the solver's own step counter: the
//! iterative `elem` mode over a 10,000-element list must yield its first
//! solution within a constant step bound, while draining the enumeration
//! costs at least one step per element.

use jmatch::{args, Bindings, Engine, Limits, Program, Value, Workspace};

const LIST: &str = r#"
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

const N: i64 = 10_000;

/// Machine steps the first `elem` solution took before the interned-symbol
/// representation landed (measured on the string-keyed layout); the step
/// count must never regress past it.
const FIRST_SOLUTION_STEPS_BASELINE: u64 = 8;

/// Generous ceilings: the machine's activation frames are heap-allocated,
/// so deep structural recursion only needs the budget raised.
const DEEP: Limits = Limits {
    max_depth: 1_000_000,
    max_steps: u64::MAX,
};

fn program() -> Program {
    Workspace::new()
        .verify(false)
        .limits(DEEP)
        .compile(LIST)
        .unwrap()
}

/// Runs a test body on a thread with a deep stack: a 10k-cell list is a
/// 10k-deep `Arc` chain, and *dropping* it recurses once per cell — more
/// native stack than the 2MB default of a Rust test thread.
fn with_deep_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

fn big_list(program: &Program, n: i64) -> Value {
    let nil = program.ctor("Nil", "nil").unwrap();
    let cons = program.ctor("Cons", "cons").unwrap();
    let mut l = nil.construct(args![]).unwrap();
    for i in (0..n).rev() {
        l = cons.construct(args![i, l]).unwrap();
    }
    l
}

#[test]
fn first_solution_of_a_large_enumeration_is_o1() {
    with_deep_stack(first_solution_of_a_large_enumeration_is_o1_body);
}

fn first_solution_of_a_large_enumeration_is_o1_body() {
    let program = program();
    let list = big_list(&program, N);
    let elem = program.method("Cons", "elem").unwrap();
    let query = elem.iterate(Some(&list), &Bindings::new()).unwrap();

    // Pull exactly one solution and read the machine's step counter: the
    // head element must surface without touching the other 9,999 cells.
    let mut solutions = query.solutions();
    let first = solutions.next().expect("a 10k list has a first element");
    assert_eq!(first["x"], Value::Int(0));
    let first_steps = solutions.steps().expect("plan engine reports steps");
    assert!(
        first_steps < 200,
        "first solution took {first_steps} steps; laziness is broken (O(n) work before the first yield?)"
    );
    // Pinned regression bound: the pre-interning machine reached the first
    // solution in exactly 8 steps on this workload, and the slot-indexed
    // representation must not make the first pull more expensive.
    assert!(
        first_steps <= FIRST_SOLUTION_STEPS_BASELINE,
        "first solution took {first_steps} steps; the recorded baseline is {FIRST_SOLUTION_STEPS_BASELINE}"
    );
}

/// Pins O(1) vs O(n) with the step counter on an enumeration whose
/// per-solution cost is constant: a balanced 10k-way disjunction
/// `x = 0 | x = 1 | ...` built as an AST and solved as a raw formula
/// query. (Recursive shapes like `elem` pay O(depth) *per yielded
/// solution* in every engine — solutions propagate through each ancestor
/// constructor match — so they cannot distinguish O(1) from O(n) cleanly.)
#[test]
fn full_drain_is_linear_and_first_solution_constant() {
    let program = program();
    let f = jmatch_bench::balanced_disjunction(0, N - 1);
    let query = program.solve(&f, &Bindings::new(), None);

    let mut one = query.solutions();
    assert_eq!(one.next().map(|b| b["x"].clone()), Some(Value::Int(0)));
    let first_steps = one.steps().unwrap();
    assert!(
        first_steps < 200,
        "first solution took {first_steps} steps over a 10k-way disjunction"
    );
    drop(one);
    // An eager collect starts where the lazy pull did.
    assert_eq!(query.try_collect().unwrap()[0]["x"], Value::Int(0));

    let mut all = query.solutions();
    let count = all.by_ref().count();
    assert_eq!(count, N as usize);
    assert!(all.take_error().is_none());
    let full_steps = all.steps().unwrap();
    assert!(
        full_steps >= N as u64,
        "full enumeration took only {full_steps} steps for {N} solutions?"
    );
    assert!(
        first_steps * 50 < full_steps,
        "first={first_steps} vs full={full_steps}: not O(1) vs O(n)"
    );
}

/// The iterative `contains` mode of the corpus `ConsList` yields the head
/// first, whether pulled lazily or collected eagerly.
#[test]
fn contains_starts_at_the_head_lazily_and_eagerly() {
    let program = Workspace::new()
        .verify(false)
        .compile(&jmatch_bench::runtime_workload_source())
        .unwrap();
    let nil = program.ctor("EmptyList", "nil").unwrap();
    let cons = program.ctor("ConsList", "cons").unwrap();
    let mut list = nil.construct(args![]).unwrap();
    for i in (0..192).rev() {
        list = cons.construct(args![i, list]).unwrap();
    }
    let contains = program.method("ConsList", "contains").unwrap();
    let elements = contains.iterate(Some(&list), &Bindings::new()).unwrap();
    let first = elements.first().expect("a first element");
    assert_eq!(first["elem"], Value::Int(0));
    assert_eq!(elements.try_collect().unwrap()[0]["elem"], Value::Int(0));
}

#[test]
fn early_exit_stops_the_enumeration_midway() {
    with_deep_stack(early_exit_stops_the_enumeration_midway_body);
}

fn early_exit_stops_the_enumeration_midway_body() {
    let program = program();
    let list = big_list(&program, N);
    let elem = program.method("Cons", "elem").unwrap();
    let query = elem.iterate(Some(&list), &Bindings::new()).unwrap();

    let k = 25;
    let mut solutions = query.solutions();
    let first_k: Vec<i64> = solutions
        .by_ref()
        .take(k)
        .map(|b| b["x"].as_int().unwrap())
        .collect();
    assert_eq!(first_k, (0..k as i64).collect::<Vec<_>>());
    let steps = solutions.steps().unwrap();
    // Work scales with the number of pulled solutions, not the list length.
    assert!(
        steps < 100 * k as u64,
        "taking {k} solutions took {steps} steps"
    );
}

/// Re-pins the first-solution step count on the bytecode machine: the
/// threaded form chases deterministic continuations inline within one
/// machine step, so it must reach the first `elem` solution within the
/// pre-interning 8-step baseline (it takes exactly 8 — each resumption
/// boundary costs one step) — and that first solution must be the one the
/// tree-walking oracle yields first.
#[test]
fn bytecode_machine_first_solution_matches_the_pin() {
    with_deep_stack(bytecode_machine_first_solution_matches_the_pin_body);
}

fn bytecode_machine_first_solution_matches_the_pin_body() {
    let program = program();
    let list = big_list(&program, N);
    let elem = program.method("Cons", "elem").unwrap();
    let query = elem.iterate(Some(&list), &Bindings::new()).unwrap();
    let mut solutions = query.solutions();
    let first = solutions.next().expect("a 10k list has a first element");
    let steps = solutions.steps().expect("plan engine reports steps");
    assert_eq!(
        steps, FIRST_SOLUTION_STEPS_BASELINE,
        "bytecode first solution took {steps} steps; \
         the recorded baseline is {FIRST_SOLUTION_STEPS_BASELINE}"
    );
    drop(solutions);

    let walker = program.clone().with_engine(Engine::TreeWalk);
    let elem = walker.method("Cons", "elem").unwrap();
    let query = elem.iterate(Some(&list), &Bindings::new()).unwrap();
    let oracle = query.try_first().unwrap().expect("the oracle yields too");
    assert_eq!(first["x"], Value::Int(0));
    assert_eq!(
        first["x"], oracle["x"],
        "first solution differs from the tree walker's"
    );
}

/// A workload the analysis pass proves deterministic: `min` over a binary
/// tree. Each call's two body branches are guarded by disjoint constructor
/// shapes, so every matching mode is at-most-one and error-free, and the
/// machine commits (discards the pending alternative) at each level of the
/// recursion instead of keeping a choice point per node.
const TREE: &str = r#"
    interface Tree {
        constructor leaf() returns();
        constructor node(int k, Tree l, Tree r) returns(k, l, r);
        boolean min(int m) returns(m);
        boolean empty();
    }
    class Leaf implements Tree {
        constructor leaf() returns() ( true )
        constructor node(int k, Tree l, Tree r) returns(k, l, r) ( false )
        boolean min(int m) returns(m) ( false )
        boolean empty() ( true )
    }
    class Node implements Tree {
        int key;
        Tree left;
        Tree right;
        constructor leaf() returns() ( false )
        constructor node(int k, Tree l, Tree r) returns(k, l, r)
            ( key = k && left = l && right = r )
        boolean min(int m) returns(m)
            ( left.min(int lm) && m = lm || left.empty() && m = key )
        boolean empty() ( false )
    }
"#;

/// Depth of the left chain the determinism pins run on.
const CHAIN: i64 = 200;

/// Pins the determinism commit with the machine's own choice-point
/// counters: on the 200-deep left chain, the analyzed program reaches the
/// (single) solution with **zero** live choice points — every disjunction
/// was committed away — after exploring one disjunction per spine node.
/// The step count is the one an uncommitted run takes: the commit only
/// reclaims memory; it never changes execution.
#[test]
fn det_modes_commit_their_choice_points() {
    let (live, created, steps) = {
        let program = Workspace::new()
            .verify(false)
            .limits(DEEP)
            .compile(TREE)
            .unwrap();
        let leaf = program.ctor("Leaf", "leaf").unwrap();
        let node = program.ctor("Node", "node").unwrap();
        let mut t = leaf.construct(args![]).unwrap();
        for i in (0..CHAIN).rev() {
            let sibling = leaf.construct(args![]).unwrap();
            t = node.construct(args![i + 1000, t, sibling]).unwrap();
        }
        let min = program.method("Node", "min").unwrap();
        let query = min.iterate(Some(&t), &Bindings::new()).unwrap();
        let mut solutions = query.solutions();
        let first = solutions.next().expect("min has a solution");
        assert_eq!(first["m"], Value::Int(1000 + CHAIN - 1));
        (
            solutions.choice_points().expect("plan engine reports them"),
            solutions.choice_points_created().expect("created count"),
            solutions.steps().expect("step count"),
        )
    };

    assert_eq!(steps, 1003, "commit must not change the step count");
    assert_eq!(
        created, CHAIN as u64,
        "one disjunction is explored per spine node"
    );
    assert_eq!(
        live, 0,
        "every det form should have committed its alternatives"
    );
}
