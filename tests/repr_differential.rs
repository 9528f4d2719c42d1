//! Differential sweep over representation-sensitive programs: field-heavy,
//! string-heavy, and deep-constructor workloads, machine-vs-tree.
//!
//! The interned-symbol / slot-indexed object layout must be invisible:
//! for every workload the two engines' transcripts (values, solution rows,
//! *and enumeration order*) must be identical line by line, and each
//! transcript is additionally pinned against a golden recording taken from
//! the string-keyed representation before interning landed — so a
//! representation bug cannot hide by breaking both engines the same way.

use jmatch::{args, Bindings, Engine, Program, Workspace};

fn engines_for(src: &str) -> (Program, Program) {
    let program = Workspace::new().verify(false).compile(src).unwrap();
    assert!(
        program.diagnostics().errors.is_empty(),
        "{:?}",
        program.diagnostics().errors
    );
    (
        program.clone().with_engine(Engine::Plan),
        program.with_engine(Engine::TreeWalk),
    )
}

fn assert_transcripts_agree(name: &str, run: impl Fn(&Program) -> Vec<String>, golden: &[&str]) {
    let src_run = &run;
    let (plan, tree) = match name {
        "fields" => engines_for(FIELD_HEAVY),
        "strings" => engines_for(STRING_HEAVY),
        "deep" => engines_for(DEEP_CTOR),
        other => panic!("unknown workload {other}"),
    };
    let got = src_run(&plan);
    let want = src_run(&tree);
    assert_eq!(got.len(), want.len(), "{name}: transcript lengths diverge");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{name}: engines diverge");
    }
    let golden: Vec<String> = golden.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        got, golden,
        "{name}: transcript drifted from the pre-interning recording"
    );
}

// ---------------------------------------------------------------------------
// Field-heavy
// ---------------------------------------------------------------------------

const FIELD_HEAVY: &str = r#"
    class Vec3 {
        int x;
        int y;
        int z;
        constructor of(int a, int b, int c) returns(a, b, c)
            ( x = a && y = b && z = c )
        int dot(Vec3 o) { return x * o.x + y * o.y + z * o.z; }
        int sum() { return x + y + z; }
        Vec3 scaled(int k) { return Vec3.of(x * k, y * k, z * k); }
    }
    static int frob(Vec3 a, Vec3 b, int rounds) {
        int total = 0;
        int i = 0;
        while (i < rounds) {
            total = total + a.dot(b) + a.scaled(i).sum() + b.x + b.y + b.z;
            i = i + 1;
        }
        return total;
    }
"#;

fn field_heavy_transcript(program: &Program) -> Vec<String> {
    let mut log = Vec::new();
    let of = program.ctor("Vec3", "of").unwrap();
    let a = of.construct(args![1, 2, 3]).unwrap();
    let b = of.construct(args![4, 5, 6]).unwrap();
    log.push(format!("a = {a}"));
    log.push(format!("b = {b}"));
    // Field reads through the public accessor resolve by name.
    for f in ["x", "y", "z", "nope"] {
        log.push(format!("a.{f} = {:?}", a.field(f).cloned()));
    }
    let frob = program.free_method("frob").unwrap();
    for rounds in [0i64, 1, 7] {
        let out = frob
            .call(None, args![a.clone(), b.clone(), rounds])
            .unwrap();
        log.push(format!("frob r{rounds} -> {out}"));
    }
    // Backward mode binds the constructor parameters from the field slots.
    let rows = program
        .deconstruct(&b, "of")
        .unwrap()
        .try_collect_rows()
        .unwrap();
    log.push(format!("deconstruct b -> {rows:?}"));
    // Structural equality is slot-wise.
    let b2 = of.construct(args![4, 5, 6]).unwrap();
    log.push(format!(
        "b == b2 -> {}",
        program.values_equal(&b, &b2).unwrap()
    ));
    log.push(format!(
        "a == b -> {}",
        program.values_equal(&a, &b).unwrap()
    ));
    log
}

#[test]
fn field_heavy_transcripts_agree_and_match_golden() {
    assert_transcripts_agree(
        "fields",
        field_heavy_transcript,
        &[
            "a = Vec3(x = 1, y = 2, z = 3)",
            "b = Vec3(x = 4, y = 5, z = 6)",
            "a.x = Some(Int(1))",
            "a.y = Some(Int(2))",
            "a.z = Some(Int(3))",
            "a.nope = None",
            "frob r0 -> 0",
            "frob r1 -> 47",
            "frob r7 -> 455",
            "deconstruct b -> [[Int(4), Int(5), Int(6)]]",
            "b == b2 -> true",
            "a == b -> false",
        ],
    );
}

// ---------------------------------------------------------------------------
// String-heavy
// ---------------------------------------------------------------------------

const STRING_HEAVY: &str = r#"
    class Token {
        String kind;
        String text;
        constructor of(String k, String t) returns(k, t)
            ( kind = k && text = t )
        boolean isKeyword() {
            if (kind = "kw") { return true; }
            return false;
        }
    }
    static int classify(Token t) {
        switch (t.kind) {
            case "kw": return 1;
            case "id": return 2;
            case "num": return 3;
            default: return 0;
        }
    }
"#;

fn string_heavy_transcript(program: &Program) -> Vec<String> {
    let mut log = Vec::new();
    let of = program.ctor("Token", "of").unwrap();
    let classify = program.free_method("classify").unwrap();
    let is_kw = program.method("Token", "isKeyword").unwrap();
    for (k, t) in [("kw", "while"), ("id", "total"), ("num", "42"), ("ws", " ")] {
        let tok = of.construct(args![k, t]).unwrap();
        log.push(format!("tok = {tok}"));
        log.push(format!(
            "classify({k}) -> {}",
            classify.call(None, args![tok.clone()]).unwrap()
        ));
        log.push(format!(
            "isKeyword({k}) -> {}",
            is_kw.call(Some(&tok), args![]).unwrap()
        ));
        log.push(format!("text -> {:?}", tok.field("text").cloned()));
    }
    // String-valued solution rows keep enumeration order.
    let kw = of.construct(args!["kw", "if"]).unwrap();
    let rows = program
        .deconstruct(&kw, "of")
        .unwrap()
        .try_collect_rows()
        .unwrap();
    log.push(format!("deconstruct kw -> {rows:?}"));
    log
}

#[test]
fn string_heavy_transcripts_agree_and_match_golden() {
    assert_transcripts_agree(
        "strings",
        string_heavy_transcript,
        &[
            "tok = Token(kind = \"kw\", text = \"while\")",
            "classify(kw) -> 1",
            "isKeyword(kw) -> true",
            "text -> Some(Str(\"while\"))",
            "tok = Token(kind = \"id\", text = \"total\")",
            "classify(id) -> 2",
            "isKeyword(id) -> false",
            "text -> Some(Str(\"total\"))",
            "tok = Token(kind = \"num\", text = \"42\")",
            "classify(num) -> 3",
            "isKeyword(num) -> false",
            "text -> Some(Str(\"42\"))",
            "tok = Token(kind = \"ws\", text = \" \")",
            "classify(ws) -> 0",
            "isKeyword(ws) -> false",
            "text -> Some(Str(\" \"))",
            "deconstruct kw -> [[Str(\"kw\"), Str(\"if\")]]",
        ],
    );
}

// ---------------------------------------------------------------------------
// Deep constructors
// ---------------------------------------------------------------------------

const DEEP_CTOR: &str = r#"
    interface Nat {
        constructor zero() returns();
        constructor succ(Nat n) returns(n);
    }
    class ZNat implements Nat {
        int val;
        private ZNat(int n) matches(n >= 0) returns(n) ( val = n && n >= 0 )
        constructor zero() returns() ( val = 0 )
        constructor succ(Nat n) returns(n) ( val >= 1 && ZNat(val - 1) = n )
    }
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
    static int classify(Nat n) {
        switch (n) {
            case succ(succ(succ(Nat rest))): return 3;
            case succ(succ(Nat rest)): return 2;
            case succ(Nat rest): return 1;
            case zero(): return 0;
        }
    }
"#;

fn deep_ctor_transcript(program: &Program) -> Vec<String> {
    let mut log = Vec::new();
    let zero = program.ctor("ZNat", "zero").unwrap();
    let succ = program.ctor("ZNat", "succ").unwrap();
    let classify = program.free_method("classify").unwrap();
    let mut n = zero.construct(args![]).unwrap();
    for depth in 0..5 {
        log.push(format!(
            "classify {depth} -> {}",
            classify.call(None, args![n.clone()]).unwrap()
        ));
        n = succ.construct(args![n]).unwrap();
    }
    // Deep backward matching: peel five layers one at a time.
    let mut cur = n;
    while !program.matches(&cur, "zero").unwrap() {
        let rows = program
            .deconstruct(&cur, "succ")
            .unwrap()
            .try_collect_rows()
            .unwrap();
        assert_eq!(rows.len(), 1);
        cur = rows[0][0].clone();
        log.push(format!("peel -> {}", cur.field("val").unwrap()));
    }
    // Iterative enumeration over a deep list pins the order of solutions
    // flowing through nested constructor matches.
    let nil = program.ctor("Nil", "nil").unwrap();
    let cons = program.ctor("Cons", "cons").unwrap();
    let mut list = nil.construct(args![]).unwrap();
    for i in (0..6).rev() {
        list = cons.construct(args![i, list]).unwrap();
    }
    let elem = program.method("Cons", "elem").unwrap();
    let order: Vec<i64> = elem
        .iterate(Some(&list), &Bindings::new())
        .unwrap()
        .solutions()
        .map(|b| b["x"].as_int().unwrap())
        .collect();
    log.push(format!("elem order -> {order:?}"));
    log
}

#[test]
fn deep_constructor_transcripts_agree_and_match_golden() {
    assert_transcripts_agree(
        "deep",
        deep_ctor_transcript,
        &[
            "classify 0 -> 0",
            "classify 1 -> 1",
            "classify 2 -> 2",
            "classify 3 -> 3",
            "classify 4 -> 3",
            "peel -> 4",
            "peel -> 3",
            "peel -> 2",
            "peel -> 1",
            "peel -> 0",
            "elem order -> [0, 1, 2, 3, 4, 5]",
        ],
    );
}

/// Pointer-equal objects short-circuit deep equality even when their
/// structure would be expensive to compare; distinct-but-equal structures
/// still compare equal slot-by-slot.
#[test]
fn value_equality_short_circuits_on_identity() {
    let (plan, tree) = engines_for(DEEP_CTOR);
    for program in [plan, tree] {
        let zero = program.ctor("ZNat", "zero").unwrap();
        let succ = program.ctor("ZNat", "succ").unwrap();
        let mut a = zero.construct(args![]).unwrap();
        for _ in 0..64 {
            a = succ.construct(args![a]).unwrap();
        }
        let same = a.clone();
        // Host-level PartialEq and engine-level deep equality agree.
        assert_eq!(a, same);
        assert!(program.values_equal(&a, &same).unwrap());
        let mut b = zero.construct(args![]).unwrap();
        for _ in 0..64 {
            b = succ.construct(args![b]).unwrap();
        }
        assert_eq!(a, b);
        assert!(program.values_equal(&a, &b).unwrap());
    }
}

/// Values cross `Program` boundaries through the public API; symbols are
/// per-program, so field resolution and equality on a *foreign* object
/// must fall back to names — never trust another interner's `u32`s or
/// another layout's slot order.
#[test]
fn foreign_objects_resolve_fields_and_equality_by_name() {
    // Program A's interner assigns `secret` a symbol that program B's
    // interner assigns to `val`; B's layout for `P` also orders the shared
    // field names differently than A's.
    let a = Workspace::new()
        .verify(false)
        .compile(
            "class P { int x; int y; constructor of(int a, int b) returns(a, b) ( x = a && y = b ) }
             class Q { int secret; constructor of(int s) returns(s) ( secret = s ) }",
        )
        .unwrap();
    let b = Workspace::new()
        .verify(false)
        .compile(
            "class P { int y; int x; constructor of(int b, int a) returns(b, a) ( y = b && x = a ) }
             static int getx(P p) { return p.x; }",
        )
        .unwrap();
    let q = a.ctor("Q", "of").unwrap().construct(args![42]).unwrap();
    // `Q` is unknown to program B: reading `p.x` off it must be the same
    // "no field" failure the string-keyed representation produced, not a
    // colliding-symbol read of `secret`.
    let getx = b.free_method("getx").unwrap();
    assert!(getx.call(None, args![q]).is_err());
    // A's P(x = 1, y = 2) and B's P(y = 2, x = 1) store their slots in
    // opposite orders; cross-program reads and equality align by name.
    let pa = a.ctor("P", "of").unwrap().construct(args![1, 2]).unwrap();
    let pb = b.ctor("P", "of").unwrap().construct(args![2, 1]).unwrap();
    assert_eq!(
        getx.call(None, args![pa.clone()]).unwrap().as_int(),
        Some(1)
    );
    assert_eq!(pa, pb);
    assert!(a.values_equal(&pa, &pb).unwrap());
    assert!(b.values_equal(&pa, &pb).unwrap());
    let pb2 = b.ctor("P", "of").unwrap().construct(args![9, 1]).unwrap();
    assert_ne!(pa, pb2);
    assert!(!a.values_equal(&pa, &pb2).unwrap());
}
