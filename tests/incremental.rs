//! Differential testing of the incremental rebuild path: a long-lived
//! [`Workspace`] driven through scripted edits must be indistinguishable
//! from compiling each edited source from scratch — identical diagnostics
//! (order included) and identical harness transcripts on both engines —
//! while its rebuild report proves the incremental path did strictly less
//! work (only the edited method re-verified, zero solver queries on
//! no-op edits).
//!
//! The scripted edits cover the red/green matrix: body-only change,
//! signature change, method add and remove, and an edit that introduces
//! and then fixes a verification warning; a probe-method edit on every
//! corpus row must re-verify only the probe. A final test pins that
//! parallel verification is deterministic on the fixture and the whole
//! corpus: 1, 2, and 8 workers produce the same diagnostics in the same
//! order.

use jmatch::{Bindings, Engine, Generation, Program, Value, Workspace};

mod harness;
use harness::transcript;

/// The scripted-edit fixture: an interface with two implementations (so
/// the verifier has real exhaustiveness work), a `switch` method whose
/// arms the edits toggle, and a trivial method the body edits target.
const BASE: &str = r#"
    interface Nat {
        invariant(this = zero() | succ(_));
        constructor zero() returns();
        constructor succ(Nat n) returns(n);
    }
    class PZero implements Nat {
        constructor zero() returns() ( true )
        constructor succ(Nat n) returns(n) ( false )
    }
    class PSucc implements Nat {
        Nat pred;
        constructor zero() returns() ( false )
        constructor succ(Nat n) returns(n) ( pred = n )
    }
    static Nat pred(Nat m) {
        switch (m) {
            case succ(Nat k): return k;
            case zero(): return m;
        }
    }
    static int answer() { return 42; }
"#;

/// Diagnostics flattened to display lines, errors first, production order
/// preserved — the unit of "identical diagnostics".
fn diag_lines(program: &Program) -> Vec<String> {
    let d = program.diagnostics();
    d.errors
        .iter()
        .map(ToString::to_string)
        .chain(d.warnings.iter().map(ToString::to_string))
        .collect()
}

/// The full-rebuild oracle: a fresh one-shot compile of the same source.
fn scratch(source: &str, verify: bool) -> Program {
    Workspace::new().verify(verify).compile(source).unwrap()
}

/// Asserts the incremental generation and a scratch build of the same
/// source are indistinguishable: same diagnostics in the same order, and
/// identical harness transcripts on both engines.
fn assert_matches_scratch(generation: &Generation, source: &str, verify: bool, label: &str) {
    let incremental = generation.program();
    let full = scratch(source, verify);
    assert_eq!(
        diag_lines(incremental),
        diag_lines(&full),
        "{label}: diagnostics diverge from a full rebuild"
    );
    for (name, engine) in [("plan", Engine::Plan), ("tree", Engine::TreeWalk)] {
        let got = transcript(&incremental.clone().with_engine(engine));
        let want = transcript(&full.clone().with_engine(engine));
        assert_eq!(
            got, want,
            "{label}: {name}-engine transcript diverges from a full rebuild"
        );
    }
}

/// Iterative-mode solved forms are memoized per program, so an edit must
/// reach a new handle even after the old generation lowered the shape.
#[test]
fn iterative_body_edit_reaches_new_handles() {
    let source = "static boolean pick(int n, int x) iterates(x) ( x = n || x = n + 1 )";
    let xs = |program: &Program| -> Vec<i64> {
        let known: Bindings = [("n".to_owned(), Value::Int(10))].into_iter().collect();
        let pick = program.free_method("pick").unwrap();
        let rows = pick.iterate(None, &known).unwrap().try_collect().unwrap();
        rows.iter()
            .map(|row| match row["x"] {
                Value::Int(x) => x,
                ref other => panic!("x bound to {other:?}"),
            })
            .collect()
    };
    let mut ws = Workspace::new().verify(false);
    let old = ws.load(source).unwrap().into_program();
    assert_eq!(xs(&old), [10, 11]);

    let g = ws.update_source(&source.replace("n + 1", "n + 5")).unwrap();
    assert_eq!(g.report().recompiled, ["<toplevel>.pick"]);
    let new = g.into_program();
    assert_eq!(xs(&new), [10, 15]);
    // The previous generation keeps serving its own body.
    assert_eq!(xs(&old), [10, 11]);
}

#[test]
fn body_edit_reverifies_only_the_edited_method() {
    let mut ws = Workspace::new().verify(true);
    ws.load(BASE).unwrap();

    // A no-op edit first: everything green, not one solver query.
    let g = ws.update_source(BASE).unwrap();
    assert!(!g.report().full);
    assert_eq!(g.report().recompiled, Vec::<String>::new());
    assert_eq!(g.report().reverified, Vec::<String>::new());
    assert_eq!(
        g.report().verify_stats.solver_queries,
        0,
        "a no-op edit must answer every VC from cache"
    );
    assert_matches_scratch(&g, BASE, true, "no-op edit");

    // Body-only edit of `answer`: exactly that method re-lowers and
    // re-verifies; `pred` and every constructor stay green.
    let edited = BASE.replace("return 42;", "return 43;");
    let g = ws.update_source(&edited).unwrap();
    assert!(
        !g.report().full,
        "a body edit must not force a full rebuild"
    );
    assert_eq!(g.report().recompiled, ["<toplevel>.answer"]);
    assert_eq!(g.report().reverified, ["<toplevel>.answer"]);
    assert!(g.report().reused_verifications > 0);
    assert_matches_scratch(&g, &edited, true, "body edit");

    // The same edit through `update_method` (no full source round trip).
    let g = ws
        .update_method(None, "answer", "static int answer() { return 44; }")
        .unwrap();
    assert_eq!(g.report().recompiled, ["<toplevel>.answer"]);
    assert_eq!(g.report().reverified, ["<toplevel>.answer"]);
    let full = BASE.replace("return 42;", "return 44;");
    assert_matches_scratch(&g, &full, true, "update_method body edit");
}

#[test]
fn verification_warnings_appear_and_clear_like_a_full_rebuild() {
    let mut ws = Workspace::new().verify(true);
    let g = ws.load(BASE).unwrap();
    let clean = diag_lines(g.program());

    // Dropping the `zero()` arm makes `pred` non-exhaustive: the warning
    // must appear through the incremental path exactly as from scratch.
    let broken = BASE.replace("case zero(): return m;\n", "");
    assert_ne!(broken, BASE, "the edit script must actually edit");
    let g = ws.update_source(&broken).unwrap();
    assert!(
        g.report()
            .reverified
            .contains(&"<toplevel>.pred".to_owned()),
        "the edited method must be re-verified: {:?}",
        g.report().reverified
    );
    assert!(
        diag_lines(g.program()).len() > clean.len(),
        "the broken edit must surface a new diagnostic"
    );
    assert_matches_scratch(&g, &broken, true, "warning introduced");

    // Fixing it back clears the warning — the cached diagnostics of the
    // broken generation must not leak into the repaired one.
    let g = ws.update_source(BASE).unwrap();
    assert_eq!(diag_lines(g.program()), clean);
    assert_matches_scratch(&g, BASE, true, "warning fixed");
}

#[test]
fn structural_edits_fall_back_to_a_correct_full_rebuild() {
    let mut ws = Workspace::new().verify(true);
    ws.load(BASE).unwrap();

    // Signature change: same method count, different signature fingerprint.
    let resigned = BASE.replace(
        "static int answer() { return 42; }",
        "static int answer(int bump) { return 42 + bump; }",
    );
    let g = ws.update_source(&resigned).unwrap();
    assert!(g.report().full, "a signature change must rebuild fully");
    assert_matches_scratch(&g, &resigned, true, "signature change");

    // Method add.
    let grown = format!("{BASE}\nstatic int twice(int x) {{ return x * 2; }}");
    let g = ws.update_source(&grown).unwrap();
    assert!(g.report().full, "a method add must rebuild fully");
    assert_matches_scratch(&g, &grown, true, "method add");

    // Method remove (back to the resigned source, dropping `twice`).
    let g = ws.update_source(&resigned).unwrap();
    assert!(g.report().full, "a method remove must rebuild fully");
    assert_matches_scratch(&g, &resigned, true, "method remove");
}

/// Every corpus program, loaded and then no-op re-updated: the reused
/// generation must transcript-match a scratch build on both engines.
/// (Verification off: this pins the plan/bytecode reuse paths; the
/// verifier's incremental behavior is pinned by the tests above.)
#[test]
fn corpus_generations_survive_noop_edits_on_both_engines() {
    for entry in jmatch::corpus::entries() {
        let src = entry.combined_jmatch();
        let mut ws = Workspace::new().verify(false);
        if ws.load(&src).is_err() {
            continue; // entries that do not parse have nothing to reuse
        }
        let g = ws.update_source(&src).unwrap();
        assert!(!g.report().full, "{}: no-op edit rebuilt fully", entry.name);
        assert_eq!(
            g.report().recompiled,
            Vec::<String>::new(),
            "{}: no-op edit recompiled methods",
            entry.name
        );
        assert_matches_scratch(&g, &src, false, entry.name);
    }
}

/// The plan layout a fresh compile fixes: every method body (goals and
/// bytecode), its bytecode dependencies, and the dispatch tables.
fn plan_layout(program: &Program) -> Vec<String> {
    let plan = program.plan();
    let mut out: Vec<String> = plan
        .methods()
        .iter()
        .map(|mp| {
            format!(
                "{} {:?} deps {:?}",
                mp.info.qualified_name(),
                mp.body,
                mp.bc_deps
            )
        })
        .collect();
    out.push(format!("{:?}", plan.dispatch_tables()));
    out
}

/// Every corpus row, with a probe method and a caller that inlines it: a
/// rebuild that reloads the same text, and one that edits the probe's
/// body, give the plans a fresh compile of the same text gives.
#[test]
fn corpus_rebuilds_give_the_plans_of_a_fresh_compile() {
    for entry in jmatch::corpus::entries() {
        let src = entry.combined_jmatch();
        let probe = |n: i64| {
            format!(
                "{src}\nstatic int probe() {{ return {n}; }}\n\
                 static int probe_twice() {{ return probe() + probe(); }}"
            )
        };
        let (base, edited) = (probe(1), probe(2));
        let mut ws = Workspace::new().verify(false);
        ws.load(&base).unwrap();
        for (label, source) in [("reload", &base), ("probe edit", &edited)] {
            let g = ws.update_source(source).unwrap();
            assert!(!g.report().full, "{} {label}: rebuilt fully", entry.name);
            let got = plan_layout(g.program());
            let want = plan_layout(&scratch(source, false));
            assert_eq!(got.len(), want.len(), "{} {label}", entry.name);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    g, w,
                    "{} {label}: plans diverge from a fresh compile",
                    entry.name
                );
            }
        }
    }
}

/// Every corpus row with an appended probe method: a body edit of the
/// probe stays on the incremental path, re-verifies only the probe, and
/// gives the diagnostics of a scratch build.
#[test]
fn corpus_body_edits_reverify_only_the_edited_method() {
    for entry in jmatch::corpus::entries() {
        let src = entry.combined_jmatch();
        let base = format!("{src}\nstatic int probe() {{ return 1; }}");
        let edited = format!("{src}\nstatic int probe() {{ return 2; }}");
        let mut ws = Workspace::new().verify(true);
        ws.load(&base).unwrap();
        let g = ws.update_source(&edited).unwrap();
        assert!(!g.report().full, "{}: body edit rebuilt fully", entry.name);
        assert_eq!(
            g.report().reverified,
            ["<toplevel>.probe"],
            "{}: a one-method edit re-verified more than the method",
            entry.name
        );
        assert_eq!(
            diag_lines(g.program()),
            diag_lines(&scratch(&edited, true)),
            "{}: diagnostics diverge from a full rebuild",
            entry.name
        );
    }
}

/// The scripted fixture, its broken edit and every corpus row: 1, 2 and 8
/// verify workers give the same diagnostics in the same order.
#[test]
fn parallel_verification_is_deterministic_across_worker_counts() {
    let broken = BASE.replace("case zero(): return m;\n", "");
    let mut sources = vec![BASE.to_owned(), broken];
    sources.extend(
        jmatch::corpus::entries()
            .iter()
            .map(|e| e.combined_jmatch()),
    );
    let verify = |src: &str, workers| {
        diag_lines(
            &Workspace::new()
                .verify(true)
                .verify_threads(workers)
                .compile(src)
                .unwrap(),
        )
    };
    for src in &sources {
        let baseline = verify(src, 1);
        for workers in [2, 8] {
            assert_eq!(
                verify(src, workers),
                baseline,
                "{workers}-worker verification diverges from 1 worker"
            );
        }
    }
}
