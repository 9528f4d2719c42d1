//! # jmatch-bench
//!
//! Measurement helpers behind the benchmark binaries and Criterion benches
//! that regenerate the paper's evaluation artifacts:
//!
//! * **Table 1** — token counts (JMatch 2.0 vs Java) and compilation time
//!   with / without verification, per corpus row;
//! * **Figure 8** — the `ZNat` relation and the matching preconditions
//!   extracted from its `matches` clause in each mode;
//! * the **§7.3 effectiveness** checks (which warnings fire on the paper's
//!   positive and negative examples).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use jmatch_core::table::ClassTable;
use jmatch_core::{compile, extract, CompileOptions, Diagnostics, Verifier, VerifyOptions};
use jmatch_corpus::CorpusEntry;
use jmatch_runtime::{args, Bindings, Engine, Program, Query, Value, Workspace};
use jmatch_syntax::ast::{CmpOp, Expr, Formula};
use jmatch_syntax::{count_tokens, parse_formula};
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
    /// Measured compile time without verification.
    pub time_without: Duration,
    /// Measured compile time with verification.
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

/// Measures one corpus entry (one Table 1 row).
pub fn measure_entry(entry: &CorpusEntry, max_expansion_depth: u32) -> Table1Row {
    let jmatch_tokens = count_tokens(entry.jmatch_source).unwrap_or(0);
    let java_tokens = count_tokens(entry.java_source).unwrap_or(0);
    let source = entry.combined_jmatch();

    let start = Instant::now();
    let _ = compile(
        &source,
        &CompileOptions {
            verify: false,
            max_expansion_depth,
        },
    );
    let time_without = start.elapsed();

    let start = Instant::now();
    let compiled = compile(
        &source,
        &CompileOptions {
            verify: true,
            max_expansion_depth,
        },
    );
    let time_with = start.elapsed();

    Table1Row {
        name: entry.name,
        jmatch_tokens,
        java_tokens,
        paper_tokens: (entry.paper_jmatch_tokens, entry.paper_java_tokens),
        time_without,
        time_with,
        paper_times: (entry.paper_time_without, entry.paper_time_with),
        diagnostics: compiled
            .map(|c| c.diagnostics)
            .unwrap_or_else(|_| Diagnostics::new()),
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
        "total compile time: {:.3}s without verification, {:.3}s with (paper overhead: 42.4% of a full javac-based compile; this front end has no bytecode backend, so absolute ratios are not comparable)\n",
        total_plain, total_verify
    ));
    out
}

/// Verifies a resolved program through **one shared solver session** (the
/// production path): a single term store, solver, and expander carry learned
/// clauses, Tseitin encodings, and expansion lemmas across every VC query,
/// which are delimited by `push`/`pop` and memoized in the session's
/// canonical-formula cache.
pub fn verify_shared_session(table: &Arc<ClassTable>, max_expansion_depth: u32) -> Diagnostics {
    verify_shared_session_with_stats(table, max_expansion_depth).0
}

/// Like [`verify_shared_session`], also returning the session counters.
pub fn verify_shared_session_with_stats(
    table: &Arc<ClassTable>,
    max_expansion_depth: u32,
) -> (Diagnostics, jmatch_core::verify::SessionStats) {
    let verifier = Verifier::new(
        Arc::clone(table),
        VerifyOptions {
            max_expansion_depth,
            report_unknown: false,
            session_reuse: true,
        },
    );
    verifier.verify_program_with_stats()
}

/// Verifies a resolved program rebuilding the solver and expander for
/// **every individual VC query** — the pre-incremental architecture (the
/// seed's four `TermStore::new()` sites), and the baseline the
/// `incremental_vs_fresh` bench measures the session against.
pub fn verify_fresh_per_query(table: &Arc<ClassTable>, max_expansion_depth: u32) -> Diagnostics {
    let verifier = Verifier::new(
        Arc::clone(table),
        VerifyOptions {
            max_expansion_depth,
            report_unknown: false,
            session_reuse: false,
        },
    );
    verifier.verify_program()
}

/// Verifies a resolved program with **fresh solver state per method**, an
/// intermediate baseline: every method rebuilds its term store, solver, and
/// expander from scratch, so no learned clause, encoding, or expanded lemma
/// is ever reused across methods.
pub fn verify_fresh_per_method(table: &Arc<ClassTable>, max_expansion_depth: u32) -> Diagnostics {
    verify_fresh_per_method_with_stats(table, max_expansion_depth).0
}

/// Like [`verify_fresh_per_method`], also returning the aggregated counters
/// of the per-method sessions.
pub fn verify_fresh_per_method_with_stats(
    table: &Arc<ClassTable>,
    max_expansion_depth: u32,
) -> (Diagnostics, jmatch_core::verify::SessionStats) {
    let verifier = Verifier::new(
        Arc::clone(table),
        VerifyOptions {
            max_expansion_depth,
            report_unknown: false,
            session_reuse: true,
        },
    );
    let mut diags = Diagnostics::new();
    let mut stats = jmatch_core::verify::SessionStats::default();
    let mut run = |owner, minfo, diags: &mut Diagnostics| {
        let mut sess = verifier.new_session();
        verifier.verify_method_in(&mut sess, owner, minfo, diags);
        stats.absorb(sess.stats());
    };
    let types: Vec<_> = table.types().cloned().collect();
    for ty in &types {
        for m in &ty.methods {
            run(Some(ty), m, &mut diags);
        }
    }
    for m in table.free_methods() {
        run(None, m, &mut diags);
    }
    (diags, stats)
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
    let program = jmatch_corpus::entry("ZNat").unwrap().combined_jmatch();
    let compiled = compile(
        &program,
        &CompileOptions {
            verify: false,
            ..CompileOptions::default()
        },
    )
    .expect("ZNat corpus entry must compile");
    let clause = parse_formula("n >= 0").unwrap();
    let forward = extract(&compiled.table, &clause, &["n".into()], &["result".into()]);
    let backward = extract(&compiled.table, &clause, &["result".into()], &["n".into()]);
    let clause_predicate = parse_formula("n >= 0 && notall(result, n)").unwrap();
    let predicate = extract(
        &compiled.table,
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
    let d = compile(&fig6, &CompileOptions::default())
        .unwrap()
        .diagnostics;
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
    let d = compile(&missing, &CompileOptions::default())
        .unwrap()
        .diagnostics;
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
    let d = compile(&fig12, &CompileOptions::default())
        .unwrap()
        .diagnostics;
    checks.push((
        "Figure 12: cons arm after snoc reported redundant".into(),
        true,
        d.has_warning(WarningKind::RedundantArm),
    ));

    // ZNat verifies totality thanks to its private invariant.
    let znat = jmatch_corpus::entry("ZNat").unwrap().combined_jmatch();
    let d = compile(&znat, &CompileOptions::default())
        .unwrap()
        .diagnostics;
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
// Runtime workloads (the `plan_vs_interp` bench)
// ---------------------------------------------------------------------------

/// The iterator-heavy program behind the `plan_vs_interp` bench: Figure 1's
/// `ZNat` naturals (recursive `succ` matching), the cons-list family, and a
/// loop-heavy imperative grinder.
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

/// Builds a [`Program`] over [`runtime_workload_source`] with the given
/// engine. For the plan engine this includes the one-time lowering cost,
/// which the per-call workloads then amortize.
pub fn runtime_program(engine: Engine) -> Program {
    let program = Workspace::new()
        .verify(false)
        .max_expansion_depth(2)
        .engine(engine)
        .compile(&runtime_workload_source())
        .expect("runtime workload program parses");
    assert!(
        program.diagnostics().errors.is_empty(),
        "{:?}",
        program.diagnostics().errors
    );
    program
}

/// Peano addition over `ZNat`: builds the naturals `0..=n` and sums
/// `plus(a, b)` over every pair. Each recursive `plus` step pattern-matches
/// `succ` backwards, so the work is dominated by declarative solving.
pub fn nat_plus_workload(program: &Program, n: i64) -> i64 {
    let zero = program.ctor("ZNat", "zero").unwrap();
    let succ = program.ctor("ZNat", "succ").unwrap();
    let plus = program.free_method("plus").unwrap();
    let to_int = program.method("ZNat", "toInt").unwrap();
    let mut nats = Vec::new();
    let mut v = zero.construct(args![]).unwrap();
    nats.push(v.clone());
    for _ in 0..n {
        v = succ.construct(args![v]).unwrap();
        nats.push(v.clone());
    }
    let mut total = 0;
    for a in &nats {
        for b in &nats {
            let s = plus.call(None, args![a.clone(), b.clone()]).unwrap();
            total += to_int.call(Some(&s), args![]).unwrap().as_int().unwrap();
        }
    }
    total
}

/// Cons-list traversal: `size`, the iterative `contains`, and deep equality
/// over two structurally equal lists of length `n`.
pub fn list_workload(program: &Program, n: i64) -> i64 {
    let nil = program.ctor("EmptyList", "nil").unwrap();
    let cons = program.ctor("ConsList", "cons").unwrap();
    let size = program.method("ConsList", "size").unwrap();
    let contains = program.method("ConsList", "contains").unwrap();
    let mk = || {
        let mut l = nil.construct(args![]).unwrap();
        for i in 0..n {
            l = cons.construct(args![i, l]).unwrap();
        }
        l
    };
    let a = mk();
    let b = mk();
    let mut total = size.call(Some(&a), args![]).unwrap().as_int().unwrap();
    for i in 0..n {
        let hit = contains.call(Some(&a), args![i]).unwrap();
        if hit.as_bool() == Some(true) {
            total += 1;
        }
    }
    if program.values_equal(&a, &b).unwrap() {
        total += 1;
    }
    total
}

/// `while` + `foreach` over an 8-way pattern disjunction: pure enumeration
/// of formula solutions inside an imperative body.
pub fn enumeration_workload(program: &Program, rounds: i64) -> i64 {
    let gen = program.instance("Gen").unwrap();
    program
        .method("Gen", "burn")
        .unwrap()
        .call(Some(&gen), args![rounds])
        .unwrap()
        .as_int()
        .unwrap()
}

// ---------------------------------------------------------------------------
// First-solution workloads (the `first_solution` bench)
// ---------------------------------------------------------------------------

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

/// Early exit: pull exactly one solution of a prepared query through the
/// lazy [`jmatch_runtime::Solutions`] iterator. O(first solution) work —
/// query preparation (lowering, handle resolution) happened once, outside.
pub fn first_solution_lazy(query: &Query<'_>) -> i64 {
    query.first().and_then(|b| b["x"].as_int()).unwrap()
}

/// The pre-redesign shape: materialize *every* solution (what the eager
/// `Interp::deconstruct` / callback `solve` API forced on embedders), then
/// read the first. O(n) work on the same prepared query.
pub fn first_solution_eager(query: &Query<'_>) -> i64 {
    let all = query.try_collect().unwrap();
    all.first().and_then(|b| b["x"].as_int()).unwrap()
}

/// Builds a `Cons`/`Nil` integer list of length `n` from the corpus cons
/// classes, most-recently-consed head first.
pub fn int_list(program: &Program, n: i64) -> Value {
    let nil = program.ctor("EmptyList", "nil").unwrap();
    let cons = program.ctor("ConsList", "cons").unwrap();
    let mut l = nil.construct(args![]).unwrap();
    for i in (0..n).rev() {
        l = cons.construct(args![i, l]).unwrap();
    }
    l
}

/// First solution of a prepared iterative `contains` query over a list —
/// O(first element), independent of list length.
pub fn first_element_lazy(query: &Query<'_>) -> i64 {
    query
        .first()
        .and_then(|b| b.get("elem").and_then(Value::as_int))
        .unwrap()
}

// ---------------------------------------------------------------------------
// Value-representation workloads (the `repr_hot_paths` bench)
// ---------------------------------------------------------------------------

/// A field-heavy program: an eight-field `Point` read back in full both
/// through field-of-`this` names (method bodies) and through explicit
/// `p.f` field expressions, driven by an imperative loop. Dominated by
/// field resolution — the hot path the slot-indexed object layout
/// replaces per-field hash lookups on.
pub fn repr_field_program(engine: Engine) -> Program {
    let program = Workspace::new()
        .verify(false)
        .engine(engine)
        .compile(REPR_FIELD_SOURCE)
        .expect("repr field program parses");
    assert!(program.diagnostics().errors.is_empty());
    program
}

/// The source of [`repr_field_program`], public so other harnesses can
/// compile it with their own settings.
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

/// Compiles `source` on the plan engine with the static-analysis pass
/// toggled — the before/after axis of the `analysis_overhead` bench
/// (`oracle` keeps every choice point and unpruned arm, `analyzed` commits
/// det modes and prunes dead alternatives).
pub fn plan_program_analysis(source: &str, analysis: bool) -> Program {
    let program = Workspace::new()
        .verify(false)
        .max_expansion_depth(2)
        .engine(Engine::Plan)
        .analysis(analysis)
        .compile(source)
        .expect("bench program parses");
    assert!(
        program.diagnostics().errors.is_empty(),
        "{:?}",
        program.diagnostics().errors
    );
    program
}

/// The determinism flagship: `min` walks the left spine of a binary tree;
/// every matching mode is provably at-most-one and error-free, so the
/// analyzed machine commits one choice point per spine node that the
/// unanalyzed oracle keeps live. See `tests/laziness.rs` for the pinned
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

/// Runs `min` over a `depth`-deep left chain and returns the (single)
/// solution plus the machine's live / created choice-point counters at the
/// solution — the quantity the determinism commit exists to shrink.
pub fn det_tree_workload(program: &Program, depth: i64) -> (i64, usize, u64) {
    let leaf = program.ctor("Leaf", "leaf").unwrap();
    let node = program.ctor("Node", "node").unwrap();
    let mut t = leaf.construct(args![]).unwrap();
    for i in (0..depth).rev() {
        let sibling = leaf.construct(args![]).unwrap();
        t = node.construct(args![i + 1000, t, sibling]).unwrap();
    }
    let min = program.method("Node", "min").unwrap();
    let query = min.iterate(Some(&t), &Bindings::new()).unwrap();
    let mut solutions = query.solutions();
    let m = solutions.next().expect("min has a solution")["m"]
        .as_int()
        .unwrap();
    (
        m,
        solutions.choice_points().unwrap(),
        solutions.choice_points_created().unwrap(),
    )
}

/// Field-access workload: `rounds` iterations of two methods that each
/// read all four `Point` fields.
pub fn repr_field_workload(program: &Program, rounds: i64) -> i64 {
    let at = program.ctor("Point", "at").unwrap();
    let churn = program.free_method("churn").unwrap();
    let p = at.construct(args![3, 5, 7, 11]).unwrap();
    churn
        .call(None, args![p, rounds])
        .unwrap()
        .as_int()
        .unwrap()
}

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

/// Builds the dispatch program on the given engine.
pub fn repr_dispatch_program(engine: Engine) -> Program {
    let program = Workspace::new()
        .verify(false)
        .engine(engine)
        .compile(&repr_dispatch_source())
        .expect("repr dispatch program parses");
    assert!(
        program.diagnostics().errors.is_empty(),
        "{:?}",
        program.diagnostics().errors
    );
    program
}

/// Constructor-dispatch workload: routes one instance of every class
/// through the 64-arm switch.
pub fn repr_dispatch_workload(program: &Program) -> i64 {
    let route = program.free_method("route").unwrap();
    let mut total = 0;
    for k in 0..REPR_DISPATCH_ARMS {
        let class = format!("C{k}");
        let v = program
            .ctor(&class, &class)
            .unwrap()
            .construct(args![k as i64])
            .unwrap();
        total += route.call(None, args![v]).unwrap().as_int().unwrap();
    }
    total
}

/// Deconstruction fan-out workload: walks the spine of an `n`-element cons
/// list by repeated backward-mode `cons` queries, probing the `nil`
/// predicate at every cell. Dominated by constructor matching and solution
/// row extraction.
pub fn repr_deconstruct_workload(program: &Program, n: i64) -> i64 {
    let list = int_list(program, n);
    let mut total = 0;
    let mut cur = list;
    loop {
        if program.matches(&cur, "nil").unwrap() {
            break;
        }
        let rows = program
            .deconstruct(&cur, "cons")
            .unwrap()
            .try_collect_rows()
            .unwrap();
        let row = &rows[0];
        total += row[0].as_int().unwrap();
        cur = row[1].clone();
    }
    total
}

// ---------------------------------------------------------------------------
// Parallel-scaling workload (`parallel_scaling` bench, BENCH_par.json)
// ---------------------------------------------------------------------------

/// The OR-parallel scaling workload: a complete binary tree whose `vals`
/// method enumerates every leaf left-to-right, one two-way choice point
/// per `Node`, so the choice tree is a full binary tree — maximally
/// branchy, the shape work stealing splits best. Identical to the
/// `tests/parallel.rs` workload; public so tests can compile it on either
/// engine.
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

/// Compiles the parallel-scaling program on the plan engine.
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

/// Builds a complete binary tree of the given depth with leaves numbered
/// from 0 in order.
pub fn parallel_tree(program: &Program, depth: u32) -> Value {
    parallel_tree_from(program, depth, 0)
}

/// Like [`parallel_tree`] with leaves numbered from `base` (so a batch of
/// trees can carry disjoint leaf values).
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

/// Full sequential enumeration of the tree's leaves; returns the leaf
/// values in sequential (in-order) enumeration order.
pub fn parallel_enumerate_seq(program: &Program, tree: &Value) -> Vec<i64> {
    let vals = program.method("Node", "vals").unwrap();
    let query = vals.iterate(Some(tree), &Bindings::new()).unwrap();
    let mut solutions = query.solutions();
    let out: Vec<i64> = solutions
        .by_ref()
        .map(|b| b["x"].as_int().unwrap())
        .collect();
    assert!(solutions.error().is_none(), "{:?}", solutions.error());
    out
}

/// Full OR-parallel enumeration over `threads` workers; `ordered` selects
/// the sequential-order reorder buffer, otherwise solutions are merged as
/// produced.
pub fn parallel_enumerate_par(
    program: &Program,
    tree: &Value,
    threads: usize,
    ordered: bool,
) -> Vec<i64> {
    let vals = program.method("Node", "vals").unwrap();
    let query = vals.iterate(Some(tree), &Bindings::new()).unwrap();
    let mut solutions = if ordered {
        query.par_solutions(threads)
    } else {
        query.par_solutions_unordered(threads)
    };
    let out: Vec<i64> = solutions
        .by_ref()
        .map(|b| b["x"].as_int().unwrap())
        .collect();
    assert!(solutions.error().is_none(), "{:?}", solutions.error());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Asserting inside `push`/`pop` scopes, popping, and re-asserting must
    /// give the same verdicts as fresh solvers on the same formulas — here
    /// checked end-to-end: the shared session, fresh-per-query, and
    /// fresh-per-method verification modes produce identical diagnostics.
    #[test]
    fn session_modes_agree_on_the_corpus() {
        for name in ["Nat", "ZNat", "List", "ConsList", "TreeLeaf"] {
            let entry = jmatch_corpus::entry(name).unwrap();
            let compiled = compile(
                &entry.combined_jmatch(),
                &CompileOptions {
                    verify: false,
                    max_expansion_depth: 2,
                },
            )
            .unwrap();
            let shared = verify_shared_session(&compiled.table, 2);
            let per_query = verify_fresh_per_query(&compiled.table, 2);
            let per_method = verify_fresh_per_method(&compiled.table, 2);
            assert_eq!(shared, per_query, "{name}: shared vs fresh-per-query");
            assert_eq!(shared, per_method, "{name}: shared vs fresh-per-method");
        }
    }
}
