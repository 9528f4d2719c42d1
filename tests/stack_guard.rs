//! The native-stack guard: forward recursion deeper than the stack of the
//! thread it runs on ends with `LimitExceeded` on `"depth"` instead of
//! overflowing the stack and aborting the process — on both engines, in
//! debug and release builds alike.
//!
//! `ConsList.size()` (`result = tail.size() + 1`) recurses natively once
//! per cell on both engines. The depth ceiling is raised out of the way,
//! so only the guard can stop the recursion; the list is built and dropped
//! on a large stack, because dropping a long `Arc` chain recurses too.

use jmatch::corpus::jmatch::{CONS_LIST, EMPTY_LIST, LIST_INTERFACE};
use jmatch::runtime::{RtErrorKind, RtResult, TreeWalker};
use jmatch::{args, Engine, Limits, Program, Value, Workspace};
use std::sync::Arc;

/// The stack of a thread spawned without an explicit size (and of every
/// `cargo test` thread): the smallest stack the guard must protect.
const SMALL_STACK: usize = 2 << 20;

/// Far past the guard on `SMALL_STACK` in every profile: one level of
/// `size()` costs a few KiB of native stack in a release build and tens
/// of KiB in a debug build.
const DEEP: i64 = 3_000;

fn program(engine: Engine) -> Program {
    Workspace::new()
        .verify(false)
        .engine(engine)
        .limits(Limits {
            max_depth: 1_000_000,
            max_steps: u64::MAX,
        })
        .compile(&format!("{LIST_INTERFACE}{EMPTY_LIST}{CONS_LIST}"))
        .unwrap()
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
/// walker: a walker built on one thread runs on another, and one built
/// near the top of a stack runs from deep inside it.
#[test]
fn the_guard_measures_the_thread_a_walker_runs_on() {
    let program = program(Engine::TreeWalk);
    let list = list_of(&program, 20);
    let walker = Arc::new(TreeWalker::new(Arc::clone(program.table())));
    let (w, l) = (Arc::clone(&walker), list.clone());
    let elsewhere = on_stack(SMALL_STACK, move || w.call_method(&l, "size", args![]));
    assert_eq!(elsewhere.unwrap(), Value::Int(20));
    let deep = on_stack(8 << 20, move || {
        let walker = TreeWalker::new(Arc::clone(program.table()));
        deep_in_stack(3 << 20, || walker.call_method(&list, "size", args![]))
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
