//! The native-stack guard: forward recursion deeper than the stack of the
//! thread it runs on ends with `LimitExceeded` on `"depth"` instead of
//! overflowing the stack and aborting the process — on both engines, in
//! debug and release builds alike — and so does a tree walk whose
//! enumeration goes deeper than the walk's own thread allows.
//!
//! `ConsList.size()` (`result = tail.size() + 1`) recurses natively once
//! per cell on both engines. The depth ceiling is raised out of the way,
//! so only the guard can stop the recursion; the list is built and dropped
//! on a large stack, because dropping a long `Arc` chain recurses too.

use jmatch::corpus::jmatch::{CONS_LIST, EMPTY_LIST, LIST_INTERFACE};
use jmatch::runtime::{RtErrorKind, RtResult};
use jmatch::{args, Bindings, Engine, Limits, Program, Value, Workspace};

/// The stack of a thread spawned without an explicit size (and of every
/// `cargo test` thread): the smallest stack the guard must protect.
const SMALL_STACK: usize = 2 << 20;

/// Far past the guard on `SMALL_STACK` in every profile: one level of
/// `size()` costs a few KiB of native stack in a release build and tens
/// of KiB in a debug build.
const DEEP: i64 = 3_000;

/// Raised out of the way, so only the guard can stop a recursion.
const NO_DEPTH_CEILING: Limits = Limits {
    max_depth: 1_000_000,
    max_steps: u64::MAX,
};

fn program(engine: Engine) -> Program {
    Workspace::new()
        .verify(false)
        .limits(NO_DEPTH_CEILING)
        .compile(&format!("{LIST_INTERFACE}{EMPTY_LIST}{CONS_LIST}"))
        .unwrap()
        .with_engine(engine)
}

fn on_stack<T: Send + 'static>(bytes: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(bytes)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// An `n`-cell list built by `program`.
fn list_of(program: &Program, n: i64) -> Value {
    let nil = program.ctor("EmptyList", "nil").unwrap();
    let cons = program.ctor("ConsList", "cons").unwrap();
    let mut l = nil.construct(args![]).unwrap();
    for i in 0..n {
        l = cons.construct(args![i, l]).unwrap();
    }
    l
}

/// Uses about `bytes` of native stack, then runs `f`.
fn deep_in_stack<T>(bytes: usize, f: impl FnOnce() -> T) -> T {
    if bytes < 4096 {
        return f();
    }
    let pad = std::hint::black_box([0u8; 4096]);
    let out = deep_in_stack(bytes - 4096, f);
    std::hint::black_box(&pad);
    out
}

/// Calls `size()` on an `n`-cell list from a thread with `SMALL_STACK`.
fn size_on_small_stack(engine: Engine, n: i64) -> RtResult<Value> {
    let program = program(engine);
    let build = program.clone();
    let list = on_stack(64 << 20, move || list_of(&build, n));
    let (result, list) = on_stack(SMALL_STACK, move || {
        let size = program.method("ConsList", "size").unwrap();
        (size.call(Some(&list), args![]), list)
    });
    on_stack(64 << 20, move || drop(list));
    result
}

#[test]
fn deep_forward_recursion_trips_the_guard_on_both_engines() {
    for engine in [Engine::Plan, Engine::TreeWalk] {
        assert_eq!(
            size_on_small_stack(engine, 20).unwrap(),
            Value::Int(20),
            "{engine:?}: a shallow call must still succeed"
        );
        let err = size_on_small_stack(engine, DEEP).unwrap_err();
        assert!(
            matches!(&err.kind, RtErrorKind::LimitExceeded { resource, .. } if resource == "depth"),
            "{engine:?}: {err:?}"
        );
    }
}

/// The guard's bounds belong to the thread a call runs on, not to the
/// thread that built the program: a walker program built on one thread
/// runs on another, and runs from deep inside a large stack.
#[test]
fn the_guard_measures_the_thread_a_walker_runs_on() {
    let program = program(Engine::TreeWalk);
    let list = list_of(&program, 20);
    let (p, l) = (program.clone(), list.clone());
    let elsewhere = on_stack(SMALL_STACK, move || {
        p.method("ConsList", "size")
            .unwrap()
            .call(Some(&l), args![])
    });
    assert_eq!(elsewhere.unwrap(), Value::Int(20));
    let deep = on_stack(8 << 20, move || {
        let size = program.method("ConsList", "size").unwrap();
        deep_in_stack(3 << 20, || size.call(Some(&list), args![]))
    });
    assert_eq!(deep.unwrap(), Value::Int(20));
}

/// A thread that declares its stack recurses as deep as that stack
/// allows; the same thread undeclared is held to the 2 MiB default.
#[test]
fn a_declared_stack_gives_the_depth_back() {
    const BIG_STACK: usize = 64 << 20;
    // Past the default allowance in every profile, inside `BIG_STACK`
    // even at a debug build's tens of KiB per level.
    const N: i64 = 1_500;
    for engine in [Engine::Plan, Engine::TreeWalk] {
        for declare in [false, true] {
            let program = program(engine);
            let got = on_stack(BIG_STACK, move || {
                if declare {
                    jmatch::runtime::declare_thread_stack(BIG_STACK);
                }
                let list = list_of(&program, N);
                let size = program.method("ConsList", "size").unwrap();
                size.call(Some(&list), args![])
            });
            if declare {
                assert_eq!(got.unwrap(), Value::Int(N), "{engine:?}");
            } else {
                let err = got.unwrap_err();
                assert!(
                    matches!(&err.kind, RtErrorKind::LimitExceeded { resource, .. } if resource == "depth"),
                    "{engine:?}: {err:?}"
                );
            }
        }
    }
}

/// An integer list whose iterative `marked` mode yields the list's
/// non-negative elements, the one in cell d from inside d nested
/// constructor matches.
const INT_LIST: &str = r#"
    interface IntList {
        constructor nil() returns();
        constructor cons(int h, IntList t) returns(h, t);
        boolean marked(int x) iterates(x);
    }
    class Nil implements IntList {
        constructor nil() returns() ( true )
        constructor cons(int h, IntList t) returns(h, t) ( false )
        boolean marked(int x) iterates(x) ( false )
    }
    class Cons implements IntList {
        int head;
        IntList tail;
        constructor nil() returns() ( false )
        constructor cons(int h, IntList t) returns(h, t) ( head = h && tail = t )
        boolean marked(int x) iterates(x)
            ( cons(x, _) && x >= 0 || cons(_, IntList t) && t.marked(x) )
    }
"#;

/// The cells of an `n`-cell list that hold a non-negative element: every
/// cell near the head, then cells spaced at about 1/64 of their depth.
/// Each solution climbs back through every cell above it, so marking every
/// cell would make the walk quadratic; but an unguarded walk overflows
/// only in a band a few dozen cells wide (in a debug build) just short of
/// the depth where the descent itself trips the guard, so the marks must
/// stay denser than that band.
fn marked_cells(n: i64) -> Vec<i64> {
    std::iter::successors(Some(0), |&i| Some(i + i / 64 + 1))
        .take_while(|&i| i < n)
        .collect()
}

/// A solution the walker finds at depth d returns through d continuation
/// frames before the walk goes on, so draining `marked` over a list longer
/// than the walk's stack holds must end in the guard's error after a
/// prefix of the solutions, not in a stack overflow.
#[test]
fn a_deep_walker_enumeration_trips_the_guard() {
    // Past the walk's 64 MiB stack in every profile.
    const N: i64 = 10_000;
    let program = Workspace::new()
        .verify(false)
        .limits(NO_DEPTH_CEILING)
        .compile(INT_LIST)
        .unwrap()
        .with_engine(Engine::TreeWalk);
    let all = marked_cells(N);
    let cells = all.clone();
    let (marked, err) = on_stack(64 << 20, move || {
        let nil = program.ctor("Nil", "nil").unwrap();
        let cons = program.ctor("Cons", "cons").unwrap();
        let mut list = nil.construct(args![]).unwrap();
        for i in (0..N).rev() {
            let head = if cells.binary_search(&i).is_ok() {
                i
            } else {
                -1
            };
            list = cons.construct(args![head, list]).unwrap();
        }
        let marked = program.method("Cons", "marked").unwrap();
        let query = marked.iterate(Some(&list), &Bindings::new()).unwrap();
        let mut solutions = query.solutions();
        let marked: Vec<i64> = solutions
            .by_ref()
            .map(|b| b["x"].as_int().unwrap())
            .collect();
        (marked, solutions.take_error())
    });
    assert!(
        !marked.is_empty() && marked.len() < all.len(),
        "{} of {} solutions",
        marked.len(),
        all.len()
    );
    assert_eq!(marked, all[..marked.len()]);
    let err = err.expect("the walk ends with the guard's error");
    assert!(
        matches!(&err.kind, RtErrorKind::LimitExceeded { resource, .. } if resource == "depth"),
        "{err:?}"
    );
}
