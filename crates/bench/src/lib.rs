//! # jmatch-bench
//!
//! Measurement helpers behind the evaluation binaries (`table1`, `figure8`,
//! `effectiveness`) that regenerate the paper's evaluation artifacts:
//!
//! * **Table 1** — token counts (JMatch 2.0 vs Java) and compilation time
//!   with / without verification, per corpus row;
//! * **Figure 8** — the `ZNat` relation and the matching preconditions
//!   extracted from its `matches` clause in each mode;
//! * the **§7.3 effectiveness** checks (which warnings fire on the paper's
//!   positive and negative examples).
//!
//! It also holds the workload sources that the `perfbench` benchmark and
//! the integration tests share, so each program text lives in one place.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use jmatch_core::table::ClassTable;
use jmatch_core::{extract, Diagnostics};
use jmatch_corpus::CorpusEntry;
use jmatch_runtime::{args, Program, Value, Workspace};
use jmatch_syntax::ast::{CmpOp, Expr, Formula};
use jmatch_syntax::{count_tokens, parse_formula, parse_program};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Row name.
    pub name: &'static str,
    /// Measured JMatch token count.
    pub jmatch_tokens: usize,
    /// Measured Java token count.
    pub java_tokens: usize,
    /// Token counts reported by the paper (JMatch, Java).
    pub paper_tokens: (usize, usize),
    /// Measured time of a full unverified build (parse, resolve, lower,
    /// analyze, bytecode).
    pub time_without: Duration,
    /// Measured time of the same build with verification on one worker.
    pub time_with: Duration,
    /// Times reported by the paper in seconds (w/o, w/).
    pub paper_times: (f64, f64),
    /// Diagnostics produced with verification enabled.
    pub diagnostics: Diagnostics,
}

impl Table1Row {
    /// Fraction by which the JMatch implementation is shorter than Java.
    pub fn savings(&self) -> f64 {
        if self.java_tokens == 0 {
            0.0
        } else {
            1.0 - self.jmatch_tokens as f64 / self.java_tokens as f64
        }
    }

    /// Verification overhead relative to plain compilation.
    pub fn overhead(&self) -> f64 {
        let base = self.time_without.as_secs_f64();
        if base == 0.0 {
            0.0
        } else {
            self.time_with.as_secs_f64() / base - 1.0
        }
    }
}

/// Measures one corpus entry (one Table 1 row): token counts, then the
/// time of a full unverified [`Workspace`] build (lowering and bytecode
/// included) and of a verified one on one verify worker.
///
/// # Panics
///
/// If either source of the row fails to lex or its JMatch program fails to
/// parse; the message names the row.
pub fn measure_entry(entry: &CorpusEntry, max_expansion_depth: u32) -> Table1Row {
    let tokens = |source, lang| {
        count_tokens(source)
            .unwrap_or_else(|e| panic!("{}: {lang} source fails to lex: {e}", entry.name))
    };
    let jmatch_tokens = tokens(entry.jmatch_source, "JMatch");
    let java_tokens = tokens(entry.java_source, "Java");
    let source = entry.combined_jmatch();
    let build = |verify| {
        let start = Instant::now();
        let program = Workspace::new()
            .verify(verify)
            .max_expansion_depth(max_expansion_depth)
            .verify_threads(1)
            .compile(&source)
            .unwrap_or_else(|e| panic!("{}: JMatch program fails to parse: {e}", entry.name));
        (start.elapsed(), program)
    };
    let (time_without, _) = build(false);
    let (time_with, verified) = build(true);

    Table1Row {
        name: entry.name,
        jmatch_tokens,
        java_tokens,
        paper_tokens: (entry.paper_jmatch_tokens, entry.paper_java_tokens),
        time_without,
        time_with,
        paper_times: (entry.paper_time_without, entry.paper_time_with),
        diagnostics: verified.diagnostics().clone(),
    }
}

/// Measures every corpus entry.
pub fn measure_all(max_expansion_depth: u32) -> Vec<Table1Row> {
    jmatch_corpus::entries()
        .iter()
        .map(|e| measure_entry(e, max_expansion_depth))
        .collect()
}

/// Renders the measured rows as a text table shaped like the paper's Table 1.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>8} {:>8} {:>14} {:>12} {:>12} {:>14}\n",
        "Impl", "JMatch", "Java", "paper(JM/Java)", "w/o verif", "w/ verif", "paper(w/o→w/)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>8} {:>8} {:>14} {:>12} {:>12} {:>14}\n",
            r.name,
            r.jmatch_tokens,
            r.java_tokens,
            format!("{}/{}", r.paper_tokens.0, r.paper_tokens.1),
            format!("{:.3}s", r.time_without.as_secs_f64()),
            format!("{:.3}s", r.time_with.as_secs_f64()),
            format!("{:.2}→{:.2}s", r.paper_times.0, r.paper_times.1),
        ));
    }
    let all_avg: f64 = rows.iter().map(|r| r.savings()).sum::<f64>() / rows.len() as f64;
    // The paper's 42.5% average is dominated by implementation classes; the
    // interfaces carry the new specification clauses and are *longer* than
    // their Java counterparts (the paper reports the same effect).
    let impls: Vec<&Table1Row> = rows
        .iter()
        .filter(|r| r.java_tokens > r.jmatch_tokens)
        .collect();
    let impl_avg: f64 = if impls.is_empty() {
        0.0
    } else {
        impls.iter().map(|r| r.savings()).sum::<f64>() / impls.len() as f64
    };
    let total_verify: f64 = rows.iter().map(|r| r.time_with.as_secs_f64()).sum();
    let total_plain: f64 = rows.iter().map(|r| r.time_without.as_secs_f64()).sum();
    out.push_str(&format!(
        "\naverage conciseness gain, all rows (measured): {:.1}%  (paper: 42.5%)\n",
        all_avg * 100.0
    ));
    out.push_str(&format!(
        "average conciseness gain, implementation rows (measured): {:.1}%\n",
        impl_avg * 100.0
    ));
    out.push_str(&format!(
        "total compile time: {:.3}s without verification, {:.3}s with (paper overhead: 42.4% of a full javac-based compile; here \"without\" is a full unverified build down to this repo's bytecode, not javac, so absolute ratios are not comparable)\n",
        total_plain, total_verify
    ));
    out
}

/// Parses and resolves `source`, without verifying it.
///
/// # Panics
///
/// If `source` fails to parse.
fn resolve(source: &str) -> Arc<ClassTable> {
    let program = parse_program(source).expect("bench program parses");
    ClassTable::build(&program, &mut Diagnostics::new())
}

/// A point of Figure 8: whether `(n, result)` is in the relation / region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure8Point {
    /// The constructor argument `n`.
    pub n: i64,
    /// The candidate result value (the represented natural).
    pub result: i64,
    /// Whether the point is in the actual ZNat relation (Figure 8a).
    pub in_relation: bool,
    /// Whether the point is in the matches-clause region (Figure 8b).
    pub in_matches_region: bool,
}

/// Regenerates the data behind Figure 8: the actual `ZNat(int n)` relation
/// (result represents `n` for `n >= 0`) and the region described by the
/// `matches` clause `n >= 0`, over a small grid.
pub fn figure8_points(range: std::ops::RangeInclusive<i64>) -> Vec<Figure8Point> {
    let mut out = Vec::new();
    for n in range.clone() {
        for result in range.clone() {
            out.push(Figure8Point {
                n,
                result,
                in_relation: n >= 0 && result == n,
                in_matches_region: n >= 0,
            });
        }
    }
    out
}

/// The matching preconditions extracted from ZNat's `matches(n >= 0)` clause
/// for the three modes discussed in §4.2–4.4, rendered as formulas.
pub fn figure8_preconditions() -> Vec<(String, String)> {
    let table = resolve(&jmatch_corpus::entry("ZNat").unwrap().combined_jmatch());
    let clause = parse_formula("n >= 0").unwrap();
    let forward = extract(&table, &clause, &["n".into()], &["result".into()]);
    let backward = extract(&table, &clause, &["result".into()], &["n".into()]);
    let clause_predicate = parse_formula("n >= 0 && notall(result, n)").unwrap();
    let predicate = extract(
        &table,
        &clause_predicate,
        &["result".into(), "n".into()],
        &[],
    );
    vec![
        ("returns(result)".into(), format!("{:?}", forward.formula)),
        ("returns(n)".into(), format!("{:?}", backward.formula)),
        ("returns()".into(), format!("{:?}", predicate.formula)),
    ]
}

/// Outcome of the §7.3 effectiveness checks.
#[derive(Debug, Clone)]
pub struct EffectivenessReport {
    /// (description, expected-warning-present, observed).
    pub checks: Vec<(String, bool, bool)>,
}

impl EffectivenessReport {
    /// Whether every check matched its expectation.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|(_, want, got)| want == got)
    }
}

/// Runs the effectiveness checks of §7.3: the paper's positive examples stay
/// warning-free and its negative examples produce the expected warnings.
pub fn effectiveness() -> EffectivenessReport {
    use jmatch_core::WarningKind;
    let verdicts = |source: &str| {
        Workspace::new()
            .compile(source)
            .expect("effectiveness program parses")
            .diagnostics()
            .clone()
    };
    let mut checks = Vec::new();

    // Figure 6: the nested succ arm is redundant; zero() is not.
    let nat = jmatch_corpus::jmatch::NAT_INTERFACE;
    let fig6 = format!(
        "{nat}
         static int classify(Nat n) {{
             switch (n) {{
                 case succ(Nat p): return 1;
                 case succ(succ(Nat pp)): return 2;
                 case zero(): return 0;
             }}
         }}"
    );
    let d = verdicts(&fig6);
    checks.push((
        "Figure 6: nested succ arm reported redundant".into(),
        true,
        d.has_warning(WarningKind::RedundantArm),
    ));
    checks.push((
        "Figure 6: switch with zero()/succ() not reported non-exhaustive".into(),
        false,
        d.has_warning(WarningKind::NonExhaustive),
    ));

    // Missing zero() case is reported.
    let missing = format!(
        "{nat}
         static Nat pred(Nat m) {{
             switch (m) {{ case succ(Nat k): return k; }}
         }}"
    );
    let d = verdicts(&missing);
    checks.push((
        "missing zero() case reported".into(),
        true,
        d.has_warning(WarningKind::NonExhaustive) || d.has_warning(WarningKind::Unknown),
    ));

    // Figure 12: the cons arm after nil/snoc is redundant.
    let list = jmatch_corpus::jmatch::LIST_INTERFACE;
    let fig12 = format!(
        "{list}
         static int length(List l) {{
             switch (l) {{
                 case nil(): return 0;
                 case snoc(List t, _): return length(t) + 1;
                 case cons(_, List t): return length(t) + 1;
             }}
         }}"
    );
    let d = verdicts(&fig12);
    checks.push((
        "Figure 12: cons arm after snoc reported redundant".into(),
        true,
        d.has_warning(WarningKind::RedundantArm),
    ));

    // ZNat verifies totality thanks to its private invariant.
    let znat = jmatch_corpus::entry("ZNat").unwrap().combined_jmatch();
    let d = verdicts(&znat);
    checks.push((
        "ZNat class constructor verifies total".into(),
        false,
        d.warnings_of(WarningKind::TotalityViolation)
            .iter()
            .any(|w| w.context.contains("ZNat.ZNat")),
    ));

    EffectivenessReport { checks }
}

// ---------------------------------------------------------------------------
// Workload sources shared with perfbench and the tests
// ---------------------------------------------------------------------------

/// An iterator-heavy program: Figure 1's `ZNat` naturals (recursive `succ`
/// matching), the cons-list family, and a loop-heavy imperative grinder.
pub fn runtime_workload_source() -> String {
    let mut src = String::new();
    src.push_str(jmatch_corpus::jmatch::NAT_INTERFACE);
    src.push_str(jmatch_corpus::jmatch::ZNAT);
    src.push_str(jmatch_corpus::jmatch::LIST_INTERFACE);
    src.push_str(jmatch_corpus::jmatch::EMPTY_LIST);
    src.push_str(jmatch_corpus::jmatch::CONS_LIST);
    src.push_str(
        r#"
        class Gen {
            int burn(int n) {
                int total = 0;
                int i = 0;
                while (i < n) {
                    foreach (int x = 0 # 1 # 2 # 3 # 4 # 5 # 6 # 7) {
                        total = total + x + i;
                    }
                    i = i + 1;
                }
                return total;
            }
        }
        "#,
    );
    src
}

/// A balanced `x = 0 | x = 1 | ... | x = n-1` disjunction: `n` solutions,
/// constant work per solution — the enumeration shape that separates lazy
/// pulling from eager materialization most cleanly.
pub fn balanced_disjunction(lo: i64, hi: i64) -> Formula {
    if lo == hi {
        Formula::Cmp(CmpOp::Eq, Expr::Var("x".into()), Expr::IntLit(lo))
    } else {
        let mid = lo + (hi - lo) / 2;
        Formula::Or(
            Box::new(balanced_disjunction(lo, mid)),
            Box::new(balanced_disjunction(mid + 1, hi)),
        )
    }
}

/// A field-heavy program: an eight-field `Point` read back in full both
/// through field-of-`this` names (method bodies) and through explicit
/// `p.f` field expressions, driven by an imperative loop. Dominated by
/// field resolution, the hot path the slot-indexed object layout serves.
pub const REPR_FIELD_SOURCE: &str = r#"
        class Point {
            int x0;
            int x1;
            int x2;
            int x3;
            int x4;
            int x5;
            int x6;
            int x7;
            constructor at(int a, int b, int c, int d) returns(a, b, c, d)
                ( x0 = a && x1 = b && x2 = c && x3 = d
                  && x4 = a + b && x5 = b + c && x6 = c + d && x7 = d + a )
            int norm1() { return x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7; }
            int mix(int k) {
                return x0 * k + x1 + x2 * k + x3 + x4 * k + x5 + x6 * k + x7;
            }
        }
        static int churn(Point p, int rounds) {
            int total = 0;
            int i = 0;
            while (i < rounds) {
                total = total + p.norm1() + p.mix(i)
                    + p.x0 + p.x1 + p.x2 + p.x3 + p.x4 + p.x5 + p.x6 + p.x7;
                i = i + 1;
            }
            return total;
        }
    "#;

/// The determinism flagship: `min` walks the left spine of a binary tree;
/// every matching mode is provably at-most-one and error-free, so the
/// analyzed machine commits one choice point per spine node that an
/// uncommitted run keeps live. See `tests/laziness.rs` for the pinned
/// choice-point counts on the same source.
pub const DET_TREE_SOURCE: &str = r#"
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

/// How many classes / switch arms the dispatch workload uses.
pub const REPR_DISPATCH_ARMS: usize = 64;

/// A 64-class, 64-arm constructor-dispatch program: `route` switches a
/// `Tag` value over one class-constructor pattern per concrete class.
/// Without tag dispatch every call tries the arms one by one (each a
/// method lookup plus a failed match or conversion attempt); with
/// class-keyed dispatch tables only the one possible arm is tried.
pub fn repr_dispatch_source() -> String {
    let mut src = String::from("interface Tag { }\n");
    for k in 0..REPR_DISPATCH_ARMS {
        src.push_str(&format!(
            "class C{k} implements Tag {{ int v; C{k}(int n) returns(n) ( v = n ) }}\n"
        ));
    }
    src.push_str("static int route(Tag t) {\n    switch (t) {\n");
    for k in 0..REPR_DISPATCH_ARMS {
        src.push_str(&format!("        case C{k}(int a): return a + {k};\n"));
    }
    src.push_str("    }\n}\n");
    src
}

/// The tree-enumeration workload: a complete binary tree whose `vals`
/// method enumerates every leaf left-to-right, one two-way choice point
/// per `Node`, so the choice tree is a full binary tree — maximally
/// branchy. perfbench's `query_exec` times its enumeration (the `par.*`
/// rows), and `tests/parallel.rs` checks enumeration, batching and walker
/// parity on it.
pub const PARALLEL_TREE_SOURCE: &str = r#"
    interface Tree {
        constructor leaf(int v) returns(v);
        constructor node(Tree l, Tree r) returns(l, r);
        boolean vals(int x) iterates(x);
    }
    class Leaf implements Tree {
        int val;
        constructor leaf(int v) returns(v) ( val = v )
        constructor node(Tree l, Tree r) returns(l, r) ( false )
        boolean vals(int x) iterates(x) ( leaf(x) )
    }
    class Node implements Tree {
        Tree left;
        Tree right;
        constructor leaf(int v) returns(v) ( false )
        constructor node(Tree l, Tree r) returns(l, r) ( left = l && right = r )
        boolean vals(int x) iterates(x) ( node(Tree l, _) && l.vals(x) || node(_, Tree r) && r.vals(x) )
    }
"#;

/// Compiles [`PARALLEL_TREE_SOURCE`] on the plan engine.
pub fn parallel_program() -> Program {
    let program = Workspace::new()
        .verify(false)
        .compile(PARALLEL_TREE_SOURCE)
        .expect("parallel workload program parses");
    assert!(
        program.diagnostics().errors.is_empty(),
        "{:?}",
        program.diagnostics().errors
    );
    program
}

/// Builds a complete binary tree of the given depth over
/// [`parallel_program`], with leaves numbered in order from `base` (so a
/// batch of trees can carry disjoint leaf values).
pub fn parallel_tree_from(program: &Program, depth: u32, base: i64) -> Value {
    fn build(
        leaf: &jmatch_runtime::CtorRef,
        node: &jmatch_runtime::CtorRef,
        depth: u32,
        next: &mut i64,
    ) -> Value {
        if depth == 0 {
            let v = leaf.construct(args![*next]).unwrap();
            *next += 1;
            v
        } else {
            let l = build(leaf, node, depth - 1, next);
            let r = build(leaf, node, depth - 1, next);
            node.construct(args![l, r]).unwrap()
        }
    }
    let leaf = program.ctor("Leaf", "leaf").unwrap();
    let node = program.ctor("Node", "node").unwrap();
    let mut next = base;
    build(&leaf, &node, depth, &mut next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmatch_core::{Fingerprints, VerifyEngine, VerifyOptions};

    #[test]
    fn figure8_relation_matches_paper_shape() {
        let pts = figure8_points(-1..=4);
        // Every relation point lies inside the matches region.
        assert!(pts.iter().all(|p| !p.in_relation || p.in_matches_region));
        // The matches region is a strict over-approximation.
        assert!(pts.iter().any(|p| p.in_matches_region && !p.in_relation));
        // No point with negative n anywhere.
        assert!(pts
            .iter()
            .filter(|p| p.n < 0)
            .all(|p| !p.in_relation && !p.in_matches_region));
    }

    #[test]
    fn figure8_preconditions_have_three_modes() {
        let pre = figure8_preconditions();
        assert_eq!(pre.len(), 3);
        // The backward mode's precondition is `true` (the bound is dropped).
        assert!(pre[1].1.contains("Bool(true)"), "{:?}", pre[1]);
        // The predicate mode is refined to false by notall.
        assert!(pre[2].1.contains("Bool(false)"), "{:?}", pre[2]);
    }

    #[test]
    fn measure_entry_produces_counts_and_times() {
        let e = jmatch_corpus::entry("Nat").unwrap();
        let row = measure_entry(&e, 2);
        assert!(row.jmatch_tokens > 0 && row.java_tokens > 0);
        assert!(row.time_with >= Duration::from_nanos(1));
    }

    #[test]
    #[should_panic(expected = "Broken: JMatch program fails to parse")]
    fn measure_entry_fails_loudly_on_a_malformed_row() {
        let e = jmatch_corpus::CorpusEntry {
            name: "Broken",
            jmatch_source: "class C { int f( }",
            ..jmatch_corpus::entry("Nat").unwrap()
        };
        measure_entry(&e, 2);
    }

    /// Verifies a resolved program at expansion depth 2 on one worker, with
    /// or without the per-method incremental sessions.
    fn verify(table: &Arc<ClassTable>, session_reuse: bool) -> Diagnostics {
        let options = VerifyOptions {
            max_expansion_depth: 2,
            session_reuse,
            ..VerifyOptions::default()
        };
        VerifyEngine::new(options)
            .verify(table, &Fingerprints::of(table), 1)
            .0
    }

    /// Asserting inside `push`/`pop` scopes, popping, and re-asserting must
    /// give the same verdicts as fresh solvers on the same formulas — here
    /// checked end-to-end on every corpus row: per-method incremental
    /// sessions and a fresh solver per VC query produce identical
    /// diagnostics.
    #[test]
    fn session_modes_agree_on_the_corpus() {
        for entry in jmatch_corpus::entries() {
            let table = resolve(&entry.combined_jmatch());
            assert_eq!(
                verify(&table, true),
                verify(&table, false),
                "{}",
                entry.name
            );
        }
    }
}
