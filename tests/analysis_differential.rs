//! Observation-equivalence of the plan-analysis pass (`jmatch_core::analysis`).
//!
//! The pass rewrites plans (dead-alternative pruning) and annotates forms
//! (`Det` commits), so its correctness contract is differential: the
//! tree-walking engine (`Engine::TreeWalk`), which runs no plan at all, is
//! the oracle, and the analyzed plan must produce an identical transcript —
//! same values, same solution rows, same enumeration order, same failures —
//! sequentially and across OR-parallel thread counts. Whole-corpus
//! agreement is `tests/differential.rs`.
//!
//! The pruning side is additionally cross-checked against the paper's §5
//! verifier: every arm the analysis removes as `CatchAllDominated` or
//! `DuplicateArm` must also be flagged `RedundantArm` by the SMT-backed
//! redundancy check (`AnalysisOptions::smt`); `StaticallyFalse` prunes
//! carry their own guard-mask justification (a branch that lowered to
//! `Fail` admits no store).

use jmatch::core::lower::{PlanOptions, ProgramPlan};
use jmatch::core::{ClassTable, Diagnostics, Justification, WarningKind};
use jmatch::{args, Bindings, Engine, Limits, Program, Value, Workspace};

fn thread_counts() -> Vec<usize> {
    match std::env::var("JMATCH_PAR_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("JMATCH_PAR_THREADS must be a thread count")],
        Err(_) => vec![1, 2, 8],
    }
}

fn program_with(src: &str, engine: Engine) -> Program {
    let program = Workspace::new()
        .verify(false)
        .compile(src)
        .unwrap()
        .with_engine(engine);
    assert!(program.diagnostics().errors.is_empty());
    program
}

/// Lowers `src` with the SMT prune cross-check enabled, returning the plan
/// (with its analysis report) plus the full verifier diagnostics of a
/// verified `Workspace` build of the same source.
fn plan_with_smt_check(src: &str) -> (std::sync::Arc<ProgramPlan>, Diagnostics) {
    let program = jmatch::syntax::parse_program(src).unwrap();
    let table = ClassTable::build(&program, &mut Diagnostics::new());
    let plan = ProgramPlan::compile_with(
        table,
        PlanOptions {
            smt_prune_check: true,
            ..PlanOptions::default()
        },
    );
    let diags = Workspace::new().compile(src).unwrap().diagnostics().clone();
    assert!(diags.errors.is_empty());
    (plan, diags)
}

/// Every pruned switch arm must be independently flagged `RedundantArm` by
/// the §5 verifier (the SMT cross-check), or be a `StaticallyFalse` prune,
/// which carries its own guard-mask justification.
fn assert_prunes_cross_checked(name: &str, src: &str) {
    let (plan, diags) = plan_with_smt_check(src);
    let report = plan.analysis().expect("analysis ran");
    for p in &report.prunes {
        match p.justification {
            Justification::StaticallyFalse => {}
            Justification::CatchAllDominated | Justification::DuplicateArm => {
                let confirmed = p.smt_confirmed == Some(true)
                    || diags
                        .warnings_of(WarningKind::RedundantArm)
                        .iter()
                        .any(|w| w.context == p.context);
                assert!(
                    confirmed,
                    "{name}: prune {{context: {}, site: {}, justification: {}}} \
                     was not confirmed redundant by the verifier",
                    p.context, p.site, p.justification
                );
            }
        }
    }
}

#[test]
fn pruned_arms_are_cross_checked_against_the_verifier() {
    // A literal arm duplicating an earlier arm, and an arm dominated by an
    // irrefutable catch-all: both are pruned by the analysis and flagged
    // `RedundantArm` by the verifier.
    let src = r#"
        static int dup(int x) {
            switch (x) {
                case 0: return 1;
                case 0: return 2;
                default: return 3;
            }
        }
        static int dominated(int x) {
            switch (x) {
                case int y: return y;
                case 7: return 9;
            }
        }
    "#;
    let (plan, _) = plan_with_smt_check(src);
    let report = plan.analysis().expect("analysis ran");
    assert!(
        report
            .prunes
            .iter()
            .any(|p| p.justification == Justification::DuplicateArm),
        "expected a DuplicateArm prune; got {:?}",
        report.prunes
    );
    assert!(
        report
            .prunes
            .iter()
            .any(|p| p.justification == Justification::CatchAllDominated),
        "expected a CatchAllDominated prune; got {:?}",
        report.prunes
    );
    assert_prunes_cross_checked("handcrafted", src);

    // The pruned program still computes the same results as the oracle.
    for engine in [Engine::Plan, Engine::TreeWalk] {
        let program = program_with(src, engine);
        let dup = program.free_method("dup").unwrap();
        assert_eq!(dup.call(None, args![0]).unwrap(), Value::Int(1));
        assert_eq!(dup.call(None, args![5]).unwrap(), Value::Int(3));
        let dominated = program.free_method("dominated").unwrap();
        assert_eq!(dominated.call(None, args![7]).unwrap(), Value::Int(7));
    }
}

#[test]
fn corpus_prunes_are_cross_checked_against_the_verifier() {
    for entry in jmatch::corpus::entries() {
        assert_prunes_cross_checked(entry.name, &entry.combined_jmatch());
    }
}

/// The flagship deterministic workload: `min` over a binary tree descends
/// the left spine. Its two body branches are guarded by disjoint
/// constructor masks (`Leaf.min` and `Node.empty` both lower to `Fail`),
/// so the analysis proves the matching mode `Det`.
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

/// Builds a left-chain of `n` nodes (min sits at the deepest node).
fn left_chain(program: &Program, n: i64) -> Value {
    let leaf = program.ctor("Leaf", "leaf").unwrap();
    let node = program.ctor("Node", "node").unwrap();
    let mut t = leaf.construct(args![]).unwrap();
    for i in (0..n).rev() {
        let sibling = leaf.construct(args![]).unwrap();
        t = node.construct(args![i + 1000, t, sibling]).unwrap();
    }
    t
}

#[test]
fn determinism_facts_are_inferred_where_expected() {
    let tree = program_with(TREE, Engine::Plan);
    let report = tree.analysis();
    let min = tree.plan().lookup_impl("Node", "min").unwrap();
    let facts = report.matching_facts(min).expect("min has matching facts");
    assert!(
        facts.det(),
        "Node.min's matching mode should be Det: {facts:?}"
    );

    // An iterative mode that genuinely enumerates must NOT be Det.
    let list = program_with(LIST, Engine::Plan);
    let report = list.analysis();
    let elem = list.plan().lookup_impl("Cons", "elem").unwrap();
    let facts = report
        .matching_facts(elem)
        .expect("elem has matching facts");
    assert!(
        !facts.det(),
        "Cons.elem enumerates every member; Det would drop solutions: {facts:?}"
    );
}

/// The determinism commit must not change what a query returns, in any
/// execution mode: sequential, and OR-parallel at every swept thread
/// count, compared against the tree-walking oracle.
#[test]
fn det_workload_agrees_across_analysis_and_thread_counts() {
    let deep = Limits {
        max_depth: 1_000_000,
        max_steps: u64::MAX,
    };
    let run = |engine: Engine| -> (Vec<String>, Vec<Vec<String>>) {
        let program = program_with(TREE, engine).with_limits(deep);
        let t = left_chain(&program, 300);
        let min = program.method("Node", "min").unwrap();
        let query = min.iterate(Some(&t), &Bindings::new()).unwrap();
        let fmt = |b: &Bindings| {
            let mut pairs: Vec<String> = b.iter().map(|(k, v)| format!("{k}={v}")).collect();
            pairs.sort();
            pairs.join(",")
        };
        let seq: Vec<String> = query.solutions().map(|b| fmt(&b)).collect();
        let par: Vec<Vec<String>> = thread_counts()
            .into_iter()
            .map(|t| query.par_solutions(t).map(|b| fmt(&b)).collect())
            .collect();
        (seq, par)
    };
    let (seq_plan, par_plan) = run(Engine::Plan);
    let (seq_tree, par_tree) = run(Engine::TreeWalk);
    // `min` tries the recursive branch first, so it walks the left spine to
    // the deepest node (key 1299) — one solution, found after a full spine
    // of committed-away choice points. The local `lm` of the outermost call
    // is part of the solution row.
    assert_eq!(seq_plan, vec!["lm=1299,m=1299".to_owned()]);
    assert_eq!(seq_plan, seq_tree, "sequential transcripts diverge");
    for (t, (a, b)) in thread_counts()
        .into_iter()
        .zip(par_plan.iter().zip(&par_tree))
    {
        assert_eq!(&seq_plan, a, "analyzed parallel ({t} threads) diverges");
        assert_eq!(a, b, "parallel transcripts diverge at {t} threads");
    }
}

/// The built-in corpus is lint-clean: the CI `lint-corpus` golden pins the
/// same fact through the `jmatch-lint --json` output.
#[test]
fn corpus_is_lint_clean() {
    for entry in jmatch::corpus::entries() {
        let program = program_with(&entry.combined_jmatch(), Engine::Plan);
        assert!(
            program.lints().is_empty(),
            "{}: unexpected lints: {:?}",
            entry.name,
            program.lints()
        );
    }
}
