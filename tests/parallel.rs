//! OR-parallel enumeration versus the sequential machine.
//!
//! The work-stealing executor behind `Query::par_solutions` /
//! `Query::par_solutions_unordered` must be observationally faithful to
//! the sequential stack machine:
//!
//! * **ordered mode** reproduces the exact sequential solution *sequence*
//!   (and error placement) on every corpus program and on dedicated
//!   branchy workloads, at every thread count;
//! * **unordered mode** reproduces the solution *multiset*;
//! * the shared step budget makes parallel runs error with
//!   `LimitExceeded` whenever the sequential run does, and generous
//!   budgets change nothing;
//! * dropping a parallel stream mid-enumeration deterministically joins
//!   its workers.
//!
//! The thread counts swept come from `JMATCH_PAR_THREADS` when set (the
//! CI `parallel-stress` matrix pins 1, 2, and 8), defaulting to all of
//! {1, 2, 8} locally.

use jmatch::runtime::{RtError, RtErrorKind};
use jmatch::syntax::ast::MethodKind;
use jmatch::{Bindings, Engine, Limits, Program, Query, Solutions, Value, Workspace};

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

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// Asserts the parallel modes of `query` agree with its sequential
/// enumeration at every swept thread count.
fn assert_parallel_faithful(query: &Query<'_>, what: &str) {
    let (seq, seq_err) = drain(query.solutions());
    for t in thread_counts() {
        let (ord, ord_err) = drain(query.par_solutions(t));
        assert_eq!(
            seq, ord,
            "{what}: ordered parallel ({t} threads) diverges from sequential order"
        );
        match (&seq_err, &ord_err) {
            (None, None) => {}
            (Some(a), Some(b)) => assert_eq!(
                a, b,
                "{what}: ordered parallel ({t} threads) surfaces a different error"
            ),
            _ => panic!(
                "{what}: error presence diverges ({t} threads): \
                 sequential {seq_err:?} vs ordered {ord_err:?}"
            ),
        }
        let (unord, unord_err) = drain(query.par_solutions_unordered(t));
        if seq_err.is_none() {
            assert_eq!(
                sorted(seq.clone()),
                sorted(unord),
                "{what}: unordered parallel ({t} threads) diverges as a multiset"
            );
            assert!(
                unord_err.is_none(),
                "{what}: unordered parallel ({t} threads) errored where sequential did not: \
                 {unord_err:?}"
            );
        } else {
            // Unordered mode races solutions against the failure, so only
            // the *presence* of an error is deterministic.
            assert!(
                unord_err.is_some(),
                "{what}: unordered parallel ({t} threads) missed the sequential error {seq_err:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-corpus sweep
// ---------------------------------------------------------------------------

/// Every backward-mode (deconstruction) query of every corpus program:
/// ordered-mode sequences and unordered-mode multisets must match the
/// sequential machine exactly.
#[test]
fn corpus_deconstructions_agree_with_sequential() {
    for entry in jmatch::corpus::entries() {
        let program = Workspace::new()
            .verify(false)
            .compile(&entry.combined_jmatch())
            .unwrap();
        assert!(program.diagnostics().errors.is_empty(), "{}", entry.name);
        let pool = build_pool(&program);
        let ctors = named_constructors(&program);
        for (i, v) in pool.iter().enumerate() {
            for ctor in &ctors {
                let Ok(query) = program.deconstruct(v, ctor) else {
                    // Unresolvable queries fail identically before any
                    // engine (sequential or parallel) is involved.
                    continue;
                };
                assert_parallel_faithful(&query, &format!("{} #{i} {ctor}", entry.name));
            }
        }
    }
}

/// Deterministically builds a pool of corpus objects, like the
/// differential test's construction phase.
fn build_pool(program: &Program) -> Vec<Value> {
    use jmatch::core::table::ClassTable;
    use jmatch::syntax::ast::Type;

    fn synth(ty: &Type, round: i64, pool: &[Value], table: &ClassTable) -> Value {
        match ty {
            Type::Int => Value::Int(round),
            Type::Boolean => Value::Bool(round % 2 == 0),
            Type::Named(t) => pool
                .iter()
                .rev()
                .find(|v| v.class().map(|c| table.is_subtype(c, t)).unwrap_or(false))
                .cloned()
                .unwrap_or(Value::Null),
            Type::Object => pool.last().cloned().unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }

    let table = &**program.table();
    let mut pool: Vec<Value> = Vec::new();
    let classes: Vec<String> = table
        .types()
        .filter(|t| !t.is_interface && !t.is_abstract)
        .map(|t| t.name.clone())
        .collect();
    for round in 0..3i64 {
        for class in &classes {
            let ctors: Vec<_> = table
                .type_info(class)
                .unwrap()
                .methods
                .iter()
                .filter(|m| m.decl.kind != MethodKind::Method)
                .map(|m| (m.decl.name.clone(), m.decl.params.clone()))
                .collect();
            for (ctor, params) in ctors {
                let arg_values: Vec<Value> = params
                    .iter()
                    .map(|p| synth(&p.ty, round, &pool, table))
                    .collect();
                if let Ok(v) = program
                    .ctor(class, &ctor)
                    .and_then(|c| c.construct(arg_values))
                {
                    if matches!(v, Value::Obj(_)) && pool.len() < 24 {
                        pool.push(v);
                    }
                }
            }
        }
    }
    pool
}

fn named_constructors(program: &Program) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for t in program.table().types() {
        for m in &t.methods {
            if m.decl.kind == MethodKind::NamedConstructor && !out.contains(&m.decl.name) {
                out.push(m.decl.name.clone());
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Branchy workloads
// ---------------------------------------------------------------------------

/// The balanced binary enumeration workload, shared with the benchmark's
/// two-worker enumeration (`jmatch_bench::PARALLEL_TREE_SOURCE`): `vals`
/// yields every leaf left-to-right, so the choice tree is a complete
/// binary tree — the shape work stealing splits best.
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

/// Ordered mode reproduces the exact left-to-right leaf order of a
/// 2^10-leaf enumeration; unordered reproduces the multiset.
#[test]
fn tree_enumeration_is_faithful_at_every_thread_count() {
    let program = tree_program();
    let vals = vals_method(&program);
    let tree = complete_tree(&program, 10, 0);
    let query = vals_query(&vals, &tree);
    // The sequential order is the in-order leaf walk.
    let mut solutions = query.solutions();
    let xs: Vec<i64> = solutions
        .by_ref()
        .map(|b| b["x"].as_int().unwrap())
        .collect();
    let err = solutions.take_error();
    assert!(err.is_none(), "{err:?}");
    assert_eq!(xs, (0..1 << 10).collect::<Vec<i64>>());
    assert_parallel_faithful(&query, "tree vals");
}

/// `par_solutions` reports work like the sequential stream: after
/// exhaustion, the steps and choice points of every worker task, summed.
/// Replaying a donated task's choice-path prefix repeats work, so the sums
/// are at least the sequential counts.
#[test]
fn parallel_counters_sum_the_worker_tasks() {
    let program = tree_program();
    let vals = vals_method(&program);
    let tree = complete_tree(&program, 8, 0);
    let query = vals_query(&vals, &tree);
    let mut seq = query.solutions();
    assert_eq!(seq.by_ref().count(), 1 << 8);
    let (steps, created) = (seq.steps().unwrap(), seq.choice_points_created().unwrap());
    for t in thread_counts() {
        for mut par in [query.par_solutions(t), query.par_solutions_unordered(t)] {
            assert_eq!(par.by_ref().count(), 1 << 8, "{t} threads");
            let par_steps = par.steps().expect("parallel steps are reported");
            let par_created = par
                .choice_points_created()
                .expect("parallel choice points are reported");
            assert!(par_steps >= steps, "{t} threads: {par_steps} < {steps}");
            assert!(
                par_created >= created,
                "{t} threads: {par_created} < {created}"
            );
        }
    }
}

/// Or-pattern (`#`) choice points split and replay correctly too: `pick`
/// mixes formula disjunction with or-patterns.
#[test]
fn or_pattern_choice_points_are_faithful() {
    let src = r#"
        class Gen {
            boolean pick(int n, int x) iterates(x)
                ( x = 0 # 1 # 2 || x = n + 1 || x = n - 1 # 7 )
        }
    "#;
    let program = Workspace::new().verify(false).compile(src).unwrap();
    let gen = program.instance("Gen").unwrap();
    let pick = program.method("Gen", "pick").unwrap();
    let mut env = Bindings::new();
    env.insert("n".into(), Value::Int(10));
    let query = pick.iterate(Some(&gen), &env).unwrap();
    let (seq, _) = drain(query.solutions());
    assert_eq!(
        seq,
        vec![
            "n=10,x=0",
            "n=10,x=1",
            "n=10,x=2",
            "n=10,x=11",
            "n=10,x=9",
            "n=10,x=7"
        ]
    );
    assert_parallel_faithful(&query, "pick");
}

// ---------------------------------------------------------------------------
// Shared budgets
// ---------------------------------------------------------------------------

/// The shared step pool makes every parallel mode error with
/// `LimitExceeded` exactly when the sequential machine does: a budget the
/// sequential run exceeds is a fortiori exceeded by the combined parallel
/// work, and a generous budget changes nothing.
#[test]
fn shared_budget_trips_exactly_when_sequential_does() {
    let program = tree_program();
    let vals = vals_method(&program);
    let tree = complete_tree(&program, 8, 0);

    // Measure the sequential step cost of the full enumeration.
    let query = vals_query(&vals, &tree);
    let mut solutions = query.solutions();
    let n = solutions.by_ref().count();
    assert_eq!(n, 1 << 8);
    assert!(solutions.take_error().is_none());
    let seq_steps = solutions.steps().expect("machine reports steps");

    // A budget the sequential run exceeds: every mode, every thread count
    // must stop with a steps LimitExceeded.
    let tight = Limits {
        max_steps: seq_steps / 2,
        ..Limits::default()
    };
    let tight_query = vals_query(&vals, &tree).limits(tight);
    let (_, seq_err) = drain(tight_query.solutions());
    let seq_err = seq_err.expect("sequential run must exceed the tight budget");
    assert!(
        matches!(&seq_err.kind, RtErrorKind::LimitExceeded { resource, .. } if resource == "steps"),
        "{seq_err:?}"
    );
    for t in thread_counts() {
        for (mode, stream) in [
            ("ordered", tight_query.par_solutions(t)),
            ("unordered", tight_query.par_solutions_unordered(t)),
        ] {
            let (_, err) = drain(stream);
            let err = err.unwrap_or_else(|| {
                panic!("{mode} parallel ({t} threads) finished under a budget sequential exceeds")
            });
            assert!(
                matches!(
                    &err.kind,
                    RtErrorKind::LimitExceeded { resource, .. } if resource == "steps"
                ),
                "{mode} ({t} threads): {err:?}"
            );
        }
    }

    // Tight depth ceilings are per-derivation and trip identically.
    let shallow = Limits {
        max_depth: 3,
        ..Limits::default()
    };
    let shallow_query = vals_query(&vals, &tree).limits(shallow);
    let (_, seq_err) = drain(shallow_query.solutions());
    assert!(
        matches!(
            seq_err.as_ref().map(|e| &e.kind),
            Some(RtErrorKind::LimitExceeded { resource, .. }) if resource == "depth"
        ),
        "{seq_err:?}"
    );
    for t in thread_counts() {
        let (_, err) = drain(shallow_query.par_solutions(t));
        assert!(
            matches!(
                err.as_ref().map(|e| &e.kind),
                Some(RtErrorKind::LimitExceeded { resource, .. }) if resource == "depth"
            ),
            "ordered ({t} threads): {err:?}"
        );
    }

    // A generous budget: parallel runs complete and agree (parallel replay
    // costs extra steps, so "generous" means a real margin, not seq_steps).
    let generous = Limits {
        max_steps: seq_steps * 64,
        ..Limits::default()
    };
    let generous_query = vals_query(&vals, &tree).limits(generous);
    assert_parallel_faithful(&generous_query, "tree vals under a generous shared budget");
}

// ---------------------------------------------------------------------------
// Deterministic shutdown
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Asserts the process thread count settles back to (at most) `baseline`.
/// Other tests in this binary run concurrently and may hold their own
/// transient pools, so the check retries instead of sampling once — what
/// must hold is that *our* workers are gone, i.e. the count stops
/// exceeding the baseline once the racing tests' threads drain too.
#[cfg(target_os = "linux")]
fn assert_threads_settle(baseline: usize, what: &str) {
    for _ in 0..250 {
        if live_threads() <= baseline {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    panic!(
        "{what}: thread count stuck at {} (baseline {baseline}) — worker threads leaked",
        live_threads()
    );
}

/// Dropping a parallel stream mid-enumeration cancels, unblocks, and joins
/// every worker before `drop` returns — no leaked pool threads.
#[test]
fn dropping_parallel_solutions_early_joins_the_pool() {
    let program = tree_program();
    let vals = vals_method(&program);
    let tree = complete_tree(&program, 12, 0);
    let query = vals_query(&vals, &tree);
    #[cfg(target_os = "linux")]
    let baseline = live_threads();
    for t in thread_counts() {
        for _ in 0..10 {
            let mut s = query.par_solutions(t);
            assert!(s.next().is_some());
            drop(s); // mid-enumeration: workers are busy and/or blocked sending
            let mut u = query.par_solutions_unordered(t);
            assert!(u.next().is_some());
            drop(u);
        }
    }
    #[cfg(target_os = "linux")]
    assert_threads_settle(baseline, "parallel pool drop");
}

// ---------------------------------------------------------------------------
// Batched entry points
// ---------------------------------------------------------------------------

/// `Program::query_many` / `MethodRef::iterate_many` return exactly what
/// the queries produce one by one, at every pool width.
#[test]
fn batched_queries_match_individual_runs() {
    let program = tree_program();
    let vals = vals_method(&program);
    let trees: Vec<Value> = (0..12)
        .map(|i| complete_tree(&program, 5, i * 100))
        .collect();
    let queries: Vec<Query<'_>> = trees.iter().map(|t| vals_query(&vals, t)).collect();
    let expected: Vec<Vec<String>> = queries
        .iter()
        .map(|q| q.try_collect().unwrap().iter().map(fmt_bindings).collect())
        .collect();
    for t in thread_counts() {
        let got = program.query_many(&queries, t);
        assert_eq!(got.len(), expected.len());
        for (g, want) in got.iter().zip(&expected) {
            let g: Vec<String> = g.as_ref().unwrap().iter().map(fmt_bindings).collect();
            assert_eq!(&g, want, "query_many diverges at {t} threads");
        }

        let calls: Vec<(Option<Value>, Bindings)> = trees
            .iter()
            .map(|tree| (Some(tree.clone()), Bindings::new()))
            .collect();
        let got = vals.iterate_many(&calls, t);
        for (g, want) in got.iter().zip(&expected) {
            let g: Vec<String> = g.as_ref().unwrap().iter().map(fmt_bindings).collect();
            assert_eq!(&g, want, "iterate_many diverges at {t} threads");
        }
    }

    // Per-call errors stay in their slot: a non-declarative method cannot
    // iterate, and the failure must not disturb the batch.
    let bad = program.method("Node", "vals").unwrap();
    let mut calls: Vec<(Option<Value>, Bindings)> = trees
        .iter()
        .take(2)
        .map(|tree| (Some(tree.clone()), Bindings::new()))
        .collect();
    calls.push((None, Bindings::new())); // no receiver: lowering still works, solving fails
    let got = bad.iterate_many(&calls, 2);
    assert_eq!(got.len(), 3);
    assert!(got[0].is_ok() && got[1].is_ok());
}

/// Parallelism is a plan-engine feature; on the tree engine
/// `par_solutions` falls back to the sequential iterator with identical
/// results.
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

/// The bytecode machine's pc-based choice saves must not change what the
/// OR-parallel executor observes. Two layers:
///
/// * on the full 4096-leaf (depth-12) tree, the machine's sequential
///   transcript is identical to the tree-walking oracle's — the choice
///   structure the splitter carves up enumerates the same leaves in the
///   same order;
/// * at 1, 2, and 8 threads, the machine reproduces the oracle's ordered
///   transcript and unordered multiset exactly (on a 512-leaf tree, to
///   keep the 6-way debug-mode sweep affordable).
#[test]
fn bytecode_parallel_transcripts_match_tree_walker() {
    let program = tree_program();
    let walker = program.clone().with_engine(Engine::TreeWalk);
    let vals = vals_method(&program);
    let walker_vals = vals_method(&walker);

    // Depth 12: sequential parity with the oracle over all 4096 leaves.
    let tree = complete_tree(&program, 12, 0);
    let (big, big_err) = drain(vals_query(&vals, &tree).solutions());
    assert!(big_err.is_none(), "{big_err:?}");
    assert_eq!(big.len(), 1 << 12);
    let (oracle_big, oracle_err) = drain(vals_query(&walker_vals, &tree).solutions());
    assert!(oracle_err.is_none(), "{oracle_err:?}");
    assert_eq!(
        big, oracle_big,
        "sequential 4096-leaf transcripts diverge from the tree walker"
    );

    // Depth 9: the machine through both parallel modes at 1, 2, 8 threads.
    let tree = complete_tree(&program, 9, 0);
    let query = vals_query(&vals, &tree);
    let (oracle, oracle_err) = drain(vals_query(&walker_vals, &tree).solutions());
    assert!(oracle_err.is_none(), "{oracle_err:?}");
    assert_eq!(oracle.len(), 1 << 9);
    for t in [1, 2, 8] {
        let (ord, ord_err) = drain(query.par_solutions(t));
        assert!(ord_err.is_none(), "{t} threads: {ord_err:?}");
        assert_eq!(
            ord, oracle,
            "ordered parallel ({t} threads) diverges from the oracle transcript"
        );
        let (unord, unord_err) = drain(query.par_solutions_unordered(t));
        assert!(unord_err.is_none(), "{t} threads: {unord_err:?}");
        assert_eq!(
            sorted(unord),
            sorted(oracle.clone()),
            "unordered parallel ({t} threads) diverges as a multiset"
        );
    }
}
