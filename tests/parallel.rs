//! What stays of the parallel entry points.
//!
//! Every enumeration runs on one sequential machine. `Query::par_solutions`
//! is kept only for the repository benchmark and is the sequential
//! enumeration, counters included. The large-tree enumeration is also
//! checked against the tree-walking oracle.
//!
//! The thread counts swept come from `JMATCH_PAR_THREADS` when set (the
//! CI `parallel-stress` matrix pins 1, 2, and 8), defaulting to all of
//! {1, 2, 8} locally.

use jmatch::runtime::RtError;
use jmatch::{Bindings, Engine, Program, Query, Solutions, Value, Workspace};

fn thread_counts() -> Vec<usize> {
    match std::env::var("JMATCH_PAR_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("JMATCH_PAR_THREADS must be a thread count")],
        Err(_) => vec![1, 2, 8],
    }
}

/// Canonical text of one solution, stable across engines and runs.
fn fmt_bindings(b: &Bindings) -> String {
    let mut pairs: Vec<String> = b.iter().map(|(k, v)| format!("{k}={v}")).collect();
    pairs.sort();
    pairs.join(",")
}

/// Drains a stream into (solution texts in order, terminating error).
fn drain(mut s: Solutions<'_>) -> (Vec<String>, Option<RtError>) {
    let items: Vec<String> = s.by_ref().map(|b| fmt_bindings(&b)).collect();
    (items, s.take_error())
}

// ---------------------------------------------------------------------------
// The tree workload
// ---------------------------------------------------------------------------

/// The balanced binary enumeration workload, shared with the benchmark's
/// tree enumeration (`jmatch_bench::PARALLEL_TREE_SOURCE`): `vals` yields
/// every leaf left-to-right, so the choice tree is a complete binary
/// tree.
fn tree_program() -> Program {
    jmatch_bench::parallel_program()
}

fn complete_tree(program: &Program, depth: u32, base: i64) -> Value {
    jmatch_bench::parallel_tree_from(program, depth, base)
}

fn vals_method(program: &Program) -> jmatch::MethodRef {
    program.method("Node", "vals").unwrap()
}

fn vals_query<'p>(vals: &'p jmatch::MethodRef, tree: &Value) -> Query<'p> {
    vals.iterate(Some(tree), &Bindings::new()).unwrap()
}

/// `par_solutions(t)` is the sequential enumeration at every width: the
/// same solution sequence and error as `solutions()`, and the same step,
/// live choice-point and created choice-point counts after each solution
/// and at the end. Run over the 2^10-leaf tree (whose sequential order is
/// the in-order leaf walk), a step ceiling that ends it early, and
/// or-pattern (`#`) choice points mixed with formula disjunction.
#[test]
fn tree_enumeration_is_faithful_at_every_thread_count() {
    let program = tree_program();
    let vals = vals_method(&program);
    let tree = complete_tree(&program, 10, 0);
    let query = vals_query(&vals, &tree);
    let mut solutions = query.solutions();
    let leaves: Vec<i64> = solutions
        .by_ref()
        .map(|b| b["x"].as_int().unwrap())
        .collect();
    let err = solutions.take_error();
    assert!(err.is_none(), "{err:?}");
    assert_eq!(leaves, (0..1 << 10).collect::<Vec<i64>>());

    let tight = vals_query(&vals, &tree).limits(jmatch::Limits {
        max_steps: 5_000,
        ..jmatch::Limits::default()
    });
    let (_, err) = drain(tight.solutions());
    assert!(err.is_some(), "the step ceiling must end the enumeration");

    let src = r#"
        class Gen {
            boolean pick(int n, int x) iterates(x)
                ( x = 0 # 1 # 2 || x = n + 1 || x = n - 1 # 7 )
        }
    "#;
    let gen_program = Workspace::new().verify(false).compile(src).unwrap();
    let gen = gen_program.instance("Gen").unwrap();
    let pick = gen_program.method("Gen", "pick").unwrap();
    let mut env = Bindings::new();
    env.insert("n".into(), Value::Int(10));
    let pick_query = pick.iterate(Some(&gen), &env).unwrap();
    let (picks, _) = drain(pick_query.solutions());
    assert_eq!(
        picks,
        ["0", "1", "2", "11", "9", "7"].map(|x| format!("n=10,x={x}"))
    );

    for (what, query) in [
        ("vals", &query),
        ("tight vals", &tight),
        ("pick", &pick_query),
    ] {
        let (seq, seq_counts, seq_err) = transcript(query.solutions());
        for t in thread_counts() {
            let (par, par_counts, par_err) = transcript(query.par_solutions(t));
            assert_eq!(seq, par, "{what}: solutions diverge at {t} threads");
            assert_eq!(
                seq_counts, par_counts,
                "{what}: counters diverge at {t} threads"
            );
            assert_eq!(seq_err, par_err, "{what}: errors diverge at {t} threads");
        }
    }
}

/// Counters a stream reports: steps, live choice points, choice points
/// created.
type Counts = (Option<u64>, Option<usize>, Option<u64>);

fn counts(s: &Solutions<'_>) -> Counts {
    (s.steps(), s.choice_points(), s.choice_points_created())
}

/// Drains a stream into its solution texts, its counters after every
/// solution and at the end (each asserted present), and its error.
fn transcript(mut s: Solutions<'_>) -> (Vec<String>, Vec<Counts>, Option<RtError>) {
    let (mut items, mut seen) = (Vec::new(), Vec::new());
    while let Some(b) = s.next() {
        items.push(fmt_bindings(&b));
        seen.push(counts(&s));
    }
    seen.push(counts(&s));
    for c in &seen {
        assert!(
            c.0.is_some() && c.1.is_some() && c.2.is_some(),
            "every counter is reported: {c:?}"
        );
    }
    (items, seen, s.take_error())
}

/// On the tree-walker oracle too, `par_solutions` is the sequential
/// iterator with identical results.
#[test]
fn tree_engine_par_solutions_falls_back_sequential() {
    let program = tree_program().with_engine(Engine::TreeWalk);
    let vals = vals_method(&program);
    let tree = complete_tree(&program, 6, 0);
    let query = vals_query(&vals, &tree);
    let (seq, _) = drain(query.solutions());
    let (par, _) = drain(query.par_solutions(4));
    assert_eq!(seq, par);
}

// ---------------------------------------------------------------------------
// Bytecode vs tree-walker parity
// ---------------------------------------------------------------------------

/// On the full 4096-leaf (depth-12) tree, the machine's transcript is
/// identical to the tree-walking oracle's: the same leaves in the same
/// order.
#[test]
fn large_tree_transcript_matches_tree_walker() {
    let program = tree_program();
    let walker = program.clone().with_engine(Engine::TreeWalk);
    let tree = complete_tree(&program, 12, 0);
    let (big, big_err) = drain(vals_query(&vals_method(&program), &tree).solutions());
    assert!(big_err.is_none(), "{big_err:?}");
    assert_eq!(big.len(), 1 << 12);
    let (oracle, oracle_err) = drain(vals_query(&vals_method(&walker), &tree).solutions());
    assert!(oracle_err.is_none(), "{oracle_err:?}");
    assert_eq!(
        big, oracle,
        "4096-leaf transcripts diverge from the tree walker"
    );
}
