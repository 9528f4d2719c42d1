//! # jmatch-runtime
//!
//! Dynamic semantics for the JMatch 2.0 reproduction. The paper compiles
//! JMatch to Java_yield (coroutines) and then to Java, *statically* selecting
//! a solved form per mode (§2.3); this crate executes the same programs
//! through the corresponding two-stage pipeline:
//!
//! 1. [`jmatch_core::lower`] compiles every method body into a
//!    mode-specialized query plan and then into threaded bytecode
//!    ([`jmatch_core::bytecode`]; one-time work per program), and
//! 2. the **plan engine** runs that bytecode over flat slot frames with
//!    explicit choice points on one resumable stack machine: behind
//!    [`Solutions`] as the outermost run, and for every other search — a
//!    forward call's body, negation, a statement goal, a `switch` case —
//!    as a nested run of the machine already running.
//!
//! The original **tree-walking interpreter** — which re-discovers the
//! solving order for every formula at every call — remains callable behind
//! [`Engine::TreeWalk`] (selected only by [`Program::with_engine`]; it has
//! no public type of its own) as a differential-testing oracle;
//! `tests/differential.rs` runs every corpus program through both engines
//! and asserts identical values, bindings, and enumeration order.
//!
//! Both engines support:
//!
//! * forward, backward (pattern-matching) and iterative modes of methods with
//!   declarative bodies,
//! * named constructors with dynamic dispatch on the matched object's runtime
//!   class, and equality constructors for cross-implementation equality
//!   (§3.1–3.2),
//! * `switch` (with fall-through), `cond`, `let`, `if`, `foreach` and `while`
//!   statements in imperative bodies, and
//! * invertible integer arithmetic in patterns (`ZNat(val - 1) = n` solves
//!   for `val`).
//!
//! ## The embedding API
//!
//! The paper's compilation target — Java_yield coroutines that *lazily*
//! yield one solution at a time — is mirrored by the [`Workspace`] /
//! [`Program`] / [`Query`] surface: build once into a cheap-to-clone,
//! `Send + Sync` [`Program`], resolve method lookups once into
//! [`MethodRef`] / [`CtorRef`] handles, and pull solutions through the
//! [`Solutions`] iterator, which does O(first solution) work for
//! `take(1)` instead of enumerating everything.
//!
//! ```
//! use jmatch_runtime::{args, Value, Workspace};
//!
//! let source = r#"
//!     class Box {
//!         int v;
//!         constructor of(int n) returns(n) ( v = n )
//!     }
//!     static int unbox(Box b) {
//!         switch (b) {
//!             case of(int n): return n;
//!         }
//!     }
//! "#;
//! let mut ws = Workspace::new().verify(false);
//! let program = ws.compile(source)?;
//! let of = program.ctor("Box", "of")?;       // resolved once
//! let unbox = program.free_method("unbox")?; // resolved once
//! let boxed = of.construct(args![7])?;
//! assert_eq!(unbox.call(None, args![boxed])?, Value::Int(7));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The workspace is long-lived: [`Workspace::update_source`] /
//! [`Workspace::update_method`] rebuild the *next* program generation
//! incrementally — re-lowering, re-verifying and re-emitting bytecode only
//! for the methods an edit touched, sharing every other compiled artifact
//! with the previous generation by `Arc` (see the [`workspace`] module
//! docs for the red/green rules).
//!
//! ## One machine per query
//!
//! Every enumeration runs on one sequential machine, on the thread that
//! pulls its [`Solutions`]. There is no parallel search and no batch
//! entry point: run independent queries on threads of your own, declaring
//! each thread's stack with [`declare_thread_stack`] if it recurses deep.
//!
//! ## Serving
//!
//! The [`serve`] module turns the embedding API into a multi-tenant TCP
//! query service: a bounded single-flight program cache (compile once,
//! serve forever), per-tenant step quotas with reserve/settle grant
//! accounting, bounded admission with round-robin fairness, and a
//! length-prefixed JSON wire protocol with streamed solution batches —
//! see `PROTOCOL.md` and the `jmatch-serve` / `jmatch-loadgen` binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod api;
mod eval;
mod machine;
pub mod serve;
mod tree;
pub mod workspace;

pub use api::{CtorRef, Limits, MethodRef, Program, Query, Solutions};
pub use eval::declare_thread_stack;
pub use workspace::{Generation, RebuildReport, Workspace};

use jmatch_core::intern::Sym;
use jmatch_core::table::ClassLayout;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A runtime value.
///
/// The enum is `#[non_exhaustive]`: future dialect growth (floats, arrays,
/// ...) may add variants without a semver break, so downstream matches need
/// a wildcard arm. Prefer the typed accessors ([`Value::as_int`],
/// [`Value::as_str`], [`Value::field`]) and the [`From`] / [`TryFrom`]
/// conversions over matching by hand.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// The null reference.
    Null,
    /// An object: its runtime class layout and field slots.
    Obj(Arc<Object>),
}

/// Equality on values: `Obj` short-circuits on pointer identity
/// (`Arc::ptr_eq`) before falling back to structural, slot-wise
/// comparison; everything else compares structurally.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Null, Value::Null) => true,
            (Value::Obj(a), Value::Obj(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

/// A heap object: the compile-time [`ClassLayout`] of its runtime class
/// (shared by every instance of the class) plus one flat slot of field
/// values in layout order. Reading a field is a slot index away — no
/// per-object hash map, no string hashing.
///
/// Construct instances through a constructor ([`CtorRef::construct`]) or
/// [`Program::instance`]; the string-keyed accessors ([`Object::get`],
/// [`Value::field`]) resolve names through the layout at the API boundary.
#[derive(Debug, Clone)]
pub struct Object {
    layout: Arc<ClassLayout>,
    fields: Box<[Value]>,
}

impl Object {
    /// Creates an object over a class layout with the given field values
    /// in slot order. Missing trailing fields are `Null`.
    ///
    /// # Panics
    ///
    /// Panics when more values than the layout has slots are supplied —
    /// silently dropping a value would hide an off-by-one at the
    /// construction site.
    pub fn new(layout: Arc<ClassLayout>, mut fields: Vec<Value>) -> Self {
        assert!(
            fields.len() <= layout.num_fields(),
            "{} field values supplied for the {}-slot layout of `{}`",
            fields.len(),
            layout.num_fields(),
            layout.name(),
        );
        fields.resize(layout.num_fields(), Value::Null);
        Object {
            layout,
            fields: fields.into(),
        }
    }

    /// The runtime class name.
    pub fn class(&self) -> &str {
        self.layout.name()
    }

    /// The class layout this object is laid out by.
    pub fn layout(&self) -> &Arc<ClassLayout> {
        &self.layout
    }

    /// Field values in slot (declaration) order.
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }

    /// A field by name (string-keyed API boundary; resolves through the
    /// layout).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.layout.slot_of(name).map(|s| &self.fields[s])
    }

    /// A field by interned symbol — the hot path. The symbol must come
    /// from the same program's interner as this object's layout; symbols
    /// from another program are meaningless here (the engines guard this
    /// with a layout-identity check and fall back to [`Object::get`]).
    pub fn get_sym(&self, sym: Sym) -> Option<&Value> {
        self.layout.slot_of_sym(sym).map(|s| &self.fields[s])
    }
}

/// Structural object equality: slot-wise when the two objects share a
/// layout (the common, same-program case — no hash-map iteration), and
/// aligned *by field name* for same-named classes from different programs,
/// whose layouts may order fields differently.
impl PartialEq for Object {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.layout, &other.layout) {
            return self.fields == other.fields;
        }
        self.layout.name() == other.layout.name()
            && self.fields.len() == other.fields.len()
            && self
                .layout
                .field_names()
                .iter()
                .zip(self.fields.iter())
                .all(|(name, v)| other.get(name) == Some(v))
    }
}

impl Value {
    /// Convenience accessor for integers.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Convenience accessor for booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience accessor for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A field of an object value, by name.
    ///
    /// Replaces the `Value::Obj(o) => o.fields["val"]` pattern every
    /// embedder used to write by hand. The name resolves through the
    /// object's [`ClassLayout`] at this string-keyed API boundary; inside
    /// the engines field reads go by slot index.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Obj(o) => o.get(name),
            _ => None,
        }
    }

    /// The runtime class of an object value.
    pub fn class(&self) -> Option<&str> {
        match self {
            Value::Obj(o) => Some(o.class()),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl TryFrom<Value> for i64 {
    type Error = RtError;

    fn try_from(v: Value) -> Result<i64, RtError> {
        v.as_int()
            .ok_or_else(|| RtError::new(format!("expected an int, got {v}")))
    }
}

impl TryFrom<Value> for bool {
    type Error = RtError;

    fn try_from(v: Value) -> Result<bool, RtError> {
        v.as_bool()
            .ok_or_else(|| RtError::new(format!("expected a boolean, got {v}")))
    }
}

impl TryFrom<Value> for String {
    type Error = RtError;

    fn try_from(v: Value) -> Result<String, RtError> {
        match v {
            Value::Str(s) => Ok(s),
            other => Err(RtError::new(format!("expected a string, got {other}"))),
        }
    }
}

/// Builds a `Vec<Value>` argument list from host values, converting each
/// element with [`Value::from`] (so `i64`, `bool`, `&str`, `String` and
/// [`Value`] itself all work).
///
/// ```
/// use jmatch_runtime::{args, Value};
///
/// let xs = args![1, true, "hi", Value::Null];
/// assert_eq!(xs[0], Value::Int(1));
/// assert_eq!(xs[2], Value::Str("hi".into()));
/// assert!(args![].is_empty());
/// ```
#[macro_export]
macro_rules! args {
    () => { ::std::vec::Vec::<$crate::Value>::new() };
    ($($e:expr),+ $(,)?) => { ::std::vec![$($crate::Value::from($e)),+] };
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Null => write!(f, "null"),
            Value::Obj(o) => {
                write!(f, "{}(", o.class())?;
                let mut fields: Vec<(&str, &Value)> = o
                    .layout()
                    .field_names()
                    .iter()
                    .map(String::as_str)
                    .zip(o.fields())
                    .collect();
                fields.sort_by(|a, b| a.0.cmp(b.0));
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} = {v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// What went wrong, in a machine-inspectable form.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtErrorKind {
    /// A method / constructor lookup failed.
    MethodNotFound {
        /// The class (or `<toplevel>`) the lookup started from.
        scope: String,
        /// The requested method name.
        name: String,
    },
    /// A call supplied the wrong number of arguments.
    ArityMismatch {
        /// The qualified method name.
        method: String,
        /// Declared parameter count.
        expected: usize,
        /// Supplied argument count.
        actual: usize,
    },
    /// A method was used in a mode it does not support.
    ModeMismatch {
        /// The qualified method name.
        method: String,
        /// The requested mode.
        requested: String,
    },
    /// A work ceiling of [`Limits`] was hit.
    LimitExceeded {
        /// Which resource ran out: `"depth"` or `"steps"`.
        resource: String,
        /// The configured ceiling that tripped ([`Limits::max_depth`] or
        /// [`Limits::max_steps`]), so limit failures are self-explaining.
        limit: u64,
    },
    /// The run was interrupted from outside (a cancel token or request
    /// deadline fired), not by its own work ceilings.
    Interrupted,
    /// Any other runtime failure.
    Other,
}

impl fmt::Display for RtErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtErrorKind::MethodNotFound { .. } => write!(f, "method-not-found"),
            RtErrorKind::ArityMismatch { .. } => write!(f, "arity-mismatch"),
            RtErrorKind::ModeMismatch { .. } => write!(f, "mode-mismatch"),
            RtErrorKind::LimitExceeded { resource, limit } => {
                write!(f, "limit-exceeded:{resource} (ceiling {limit})")
            }
            RtErrorKind::Interrupted => write!(f, "interrupted"),
            RtErrorKind::Other => write!(f, "other"),
        }
    }
}

/// A runtime error (match failure, unsolvable formula, missing method, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtError {
    /// Description of the failure.
    pub message: String,
    /// The structured failure category.
    pub kind: RtErrorKind,
}

impl RtError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        RtError {
            message: message.into(),
            kind: RtErrorKind::Other,
        }
    }

    pub(crate) fn method_not_found(scope: &str, name: &str) -> Self {
        RtError {
            message: format!("method `{name}` not found on `{scope}`"),
            kind: RtErrorKind::MethodNotFound {
                scope: scope.to_owned(),
                name: name.to_owned(),
            },
        }
    }

    pub(crate) fn arity_mismatch(method: &str, expected: usize, actual: usize) -> Self {
        RtError {
            message: format!("{method} expects {expected} argument(s), got {actual}"),
            kind: RtErrorKind::ArityMismatch {
                method: method.to_owned(),
                expected,
                actual,
            },
        }
    }

    pub(crate) fn mode_mismatch(method: &str, requested: &str) -> Self {
        RtError {
            message: format!(
                "{method} does not support the {requested} mode: it has no declarative body"
            ),
            kind: RtErrorKind::ModeMismatch {
                method: method.to_owned(),
                requested: requested.to_owned(),
            },
        }
    }

    pub(crate) fn interrupted() -> Self {
        RtError {
            message: "evaluation interrupted".into(),
            kind: RtErrorKind::Interrupted,
        }
    }

    pub(crate) fn limit(resource: &str, limit: u64, message: impl Into<String>) -> Self {
        RtError {
            message: format!(
                "{} (configured {resource} ceiling: {limit})",
                message.into()
            ),
            kind: RtErrorKind::LimitExceeded {
                resource: resource.to_owned(),
                limit,
            },
        }
    }
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error[{}]: {}", self.kind, self.message)
    }
}

impl std::error::Error for RtError {}

/// Result alias for runtime operations.
pub type RtResult<T> = Result<T, RtError>;

/// Variable bindings during formula solving / statement execution.
pub type Bindings = HashMap<String, Value>;

/// Control flow out of a statement.
pub(crate) enum Flow {
    Normal,
    Return(Value),
}

/// How many times one run of a `while` loop may evaluate its condition;
/// the evaluation past this fails with "while loop exceeded iteration
/// budget" on every engine.
pub(crate) const MAX_WHILE_CONDITIONS: u32 = 1_000_000;

/// Which execution engine a [`Program`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The plan evaluator over lowered query plans (the default).
    #[default]
    Plan,
    /// The legacy tree-walking interpreter, kept as a differential-testing
    /// oracle; only [`Program::with_engine`] selects it.
    TreeWalk,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program_for(src: &str, engine: Engine) -> Program {
        Workspace::new()
            .verify(false)
            .compile(src)
            .unwrap()
            .with_engine(engine)
    }

    fn both_engines(src: &str) -> [Program; 2] {
        [
            program_for(src, Engine::Plan),
            program_for(src, Engine::TreeWalk),
        ]
    }

    const NAT_PROGRAM: &str = r#"
        interface Nat {
            invariant(this = zero() | succ(_));
            constructor zero() returns();
            constructor succ(Nat n) returns(n);
            constructor equals(Nat n);
        }
        class ZNat implements Nat {
            int val;
            private invariant(val >= 0);
            private ZNat(int n) matches(n >= 0) returns(n) ( val = n && n >= 0 )
            constructor zero() returns() ( val = 0 )
            constructor succ(Nat n) returns(n) ( val >= 1 && ZNat(val - 1) = n )
            constructor equals(Nat n) ( zero() && n.zero() | succ(Nat y) && n.succ(y) )
        }
        class PZero implements Nat {
            constructor zero() returns() ( true )
            constructor succ(Nat n) returns(n) ( false )
            constructor equals(Nat n) ( n.zero() )
        }
        class PSucc implements Nat {
            Nat pred;
            constructor zero() returns() ( false )
            constructor succ(Nat n) returns(n) ( pred = n )
            constructor equals(Nat n) ( n.succ(pred) )
        }
        static Nat plus(Nat m, Nat n) {
            switch (m, n) {
                case (zero(), Nat x):
                case (x, zero()):
                    return x;
                case (succ(Nat k), _):
                    return plus(k, ZNat.succ(n));
            }
        }
    "#;

    fn znat(program: &Program, n: i64) -> Value {
        let zero = program.ctor("ZNat", "zero").unwrap();
        let succ = program.ctor("ZNat", "succ").unwrap();
        let mut v = zero.construct(args![]).unwrap();
        for _ in 0..n {
            v = succ.construct(args![v]).unwrap();
        }
        v
    }

    fn znat_value(v: &Value) -> i64 {
        v.field("val").and_then(Value::as_int).expect("not a ZNat")
    }

    fn obj(program: &Program, class: &str) -> Value {
        program.instance(class).unwrap()
    }

    #[test]
    fn construct_and_deconstruct_znat() {
        for program in both_engines(NAT_PROGRAM) {
            let three = znat(&program, 3);
            assert_eq!(znat_value(&three), 3);
            // Backward mode: succ(three) yields the predecessor, lazily.
            let query = program.deconstruct(&three, "succ").unwrap();
            let rows: Vec<Bindings> = query.solutions().collect();
            assert_eq!(rows.len(), 1);
            assert_eq!(znat_value(&rows[0]["n"]), 2);
            // zero() does not match three.
            assert!(!program.matches(&three, "zero").unwrap());
            let zero = znat(&program, 0);
            assert!(program.matches(&zero, "zero").unwrap());
        }
    }

    #[test]
    fn plus_adds_znat_numbers() {
        for program in both_engines(NAT_PROGRAM) {
            let a = znat(&program, 2);
            let b = znat(&program, 3);
            let plus = program.free_method("plus").unwrap();
            let sum = plus.call(None, args![a, b]).unwrap();
            assert_eq!(znat_value(&sum), 5);
        }
    }

    #[test]
    fn plus_handles_zero_cases() {
        for program in both_engines(NAT_PROGRAM) {
            let plus = program.free_method("plus").unwrap();
            let zero = znat(&program, 0);
            let four = znat(&program, 4);
            let s1 = plus.call(None, args![zero.clone(), four.clone()]).unwrap();
            assert_eq!(znat_value(&s1), 4);
            let s2 = plus.call(None, args![four, zero]).unwrap();
            assert_eq!(znat_value(&s2), 4);
        }
    }

    #[test]
    fn peano_implementation_interoperates() {
        for program in both_engines(NAT_PROGRAM) {
            // Build 2 using the Peano classes: PSucc(PSucc(PZero)).
            let p0 = program
                .ctor("PZero", "zero")
                .unwrap()
                .construct(args![])
                .unwrap();
            let psucc = program.ctor("PSucc", "succ").unwrap();
            let p1 = psucc.construct(args![p0]).unwrap();
            let p2 = psucc.construct(args![p1]).unwrap();
            // Deconstruct with the named constructor.
            let rows: Vec<Bindings> = program
                .deconstruct(&p2, "succ")
                .unwrap()
                .solutions()
                .collect();
            assert_eq!(rows.len(), 1);
            // Equality constructors let ZNat(2) equal PSucc(PSucc(PZero)).
            let z2 = znat(&program, 2);
            assert!(program.values_equal(&z2, &p2).unwrap());
            let z3 = znat(&program, 3);
            assert!(!program.values_equal(&z3, &p2).unwrap());
        }
    }

    #[test]
    fn iterative_mode_enumerates_solutions() {
        let src = r#"
            class Range {
                boolean below(int n, int x) iterates(x)
                    ( x = 0 || x = 1 || x = 2 )
            }
        "#;
        for program in both_engines(src) {
            let range = obj(&program, "Range");
            let below = program.method("Range", "below").unwrap();
            let mut env = Bindings::new();
            env.insert("n".into(), Value::Int(3));
            let query = below.iterate(Some(&range), &env).unwrap();
            let seen: Vec<i64> = query
                .solutions()
                .map(|b| b["x"].as_int().unwrap())
                .collect();
            assert_eq!(seen, vec![0, 1, 2]);
            // take(1) stops after the first solution.
            let first: Vec<i64> = query
                .solutions()
                .take(1)
                .map(|b| b["x"].as_int().unwrap())
                .collect();
            assert_eq!(first, vec![0]);
        }
    }

    #[test]
    fn cond_and_let_statements_execute() {
        let src = r#"
            class M {
                int classify(int x) {
                    int doubled = x + x;
                    cond {
                        (doubled >= 10) { return 1; }
                        (doubled >= 0) { return 0; }
                        else { return -1; }
                    }
                }
            }
        "#;
        for program in both_engines(src) {
            let m = obj(&program, "M");
            let classify = program.method("M", "classify").unwrap();
            assert_eq!(classify.call(Some(&m), args![6]).unwrap(), Value::Int(1));
            assert_eq!(classify.call(Some(&m), args![2]).unwrap(), Value::Int(0));
            assert_eq!(classify.call(Some(&m), args![-3]).unwrap(), Value::Int(-1));
        }
    }

    #[test]
    fn foreach_iterates_all_solutions() {
        let src = r#"
            class M {
                int sum3() {
                    int total = 0;
                    foreach (int x = 1 # 2 # 3) {
                        total = total + x;
                    }
                    return total;
                }
            }
        "#;
        for program in both_engines(src) {
            let m = obj(&program, "M");
            let sum3 = program.method("M", "sum3").unwrap();
            assert_eq!(sum3.call(Some(&m), args![]).unwrap(), Value::Int(6));
        }
    }

    #[test]
    fn runtime_match_failure_is_an_error() {
        for program in both_engines(NAT_PROGRAM) {
            // ZNat's private constructor requires n >= 0.
            let ctor = program.ctor("ZNat", "ZNat").unwrap();
            assert!(ctor.construct(args![-1]).is_err());
        }
    }

    #[test]
    fn arity_errors_name_the_method_and_counts() {
        for program in both_engines(NAT_PROGRAM) {
            let err = program
                .ctor("ZNat", "succ")
                .unwrap()
                .construct(args![])
                .unwrap_err();
            assert_eq!(
                err.kind,
                RtErrorKind::ArityMismatch {
                    method: "ZNat.succ".into(),
                    expected: 1,
                    actual: 0,
                }
            );
            assert!(err.message.contains("ZNat.succ"));
            assert!(err.message.contains('1') && err.message.contains('0'));
        }
    }

    #[test]
    fn missing_method_errors_name_scope_and_method() {
        for program in both_engines(NAT_PROGRAM) {
            let err = program.free_method("nosuch").unwrap_err();
            assert_eq!(
                err.kind,
                RtErrorKind::MethodNotFound {
                    scope: "<toplevel>".into(),
                    name: "nosuch".into(),
                }
            );
            let err = program.method("ZNat", "nosuch").unwrap_err();
            assert_eq!(
                err.kind,
                RtErrorKind::MethodNotFound {
                    scope: "ZNat".into(),
                    name: "nosuch".into(),
                }
            );
        }
    }

    #[test]
    fn mode_errors_name_the_requested_mode() {
        let src = r#"
            class M {
                int imperative(int x) { return x; }
            }
            static int probe(M m) {
                switch (m) {
                    case imperative(int n): return n;
                }
            }
        "#;
        for program in both_engines(src) {
            let err = program
                .free_method("probe")
                .unwrap()
                .call(None, args![obj(&program, "M")])
                .unwrap_err();
            assert_eq!(
                err.kind,
                RtErrorKind::ModeMismatch {
                    method: "M.imperative".into(),
                    requested: "backward (pattern-matching)".into(),
                }
            );
        }
    }

    #[test]
    fn value_display_is_readable() {
        let program = program_for(NAT_PROGRAM, Engine::Plan);
        let two = znat(&program, 2);
        let text = two.to_string();
        assert!(text.contains("ZNat"));
        assert!(text.contains("val = 2"));
    }

    #[test]
    fn value_conversions_round_trip() {
        assert_eq!(Value::from(7), Value::Int(7));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(i64::try_from(Value::Int(7)).unwrap(), 7);
        assert!(bool::try_from(Value::Bool(false)).is_ok());
        assert_eq!(String::try_from(Value::Str("s".into())).unwrap(), "s");
        assert!(i64::try_from(Value::Null).is_err());
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Int(1).as_str(), None);
        let program = program_for(NAT_PROGRAM, Engine::Plan);
        let two = znat(&program, 2);
        assert_eq!(two.field("val"), Some(&Value::Int(2)));
        assert_eq!(two.field("nope"), None);
        assert_eq!(Value::Int(1).field("val"), None);
    }

    #[test]
    fn rt_error_display_includes_the_kind() {
        let program = program_for(NAT_PROGRAM, Engine::Plan);
        let err = program.free_method("nosuch").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("method-not-found"), "{text}");
        assert!(text.contains("nosuch"), "{text}");
        let limit = RtError::limit("depth", 1_000, "solver recursion limit exceeded");
        assert!(limit.to_string().contains("limit-exceeded:depth"));
    }

    #[test]
    fn plan_engine_exposes_its_program_plan() {
        let program = program_for(NAT_PROGRAM, Engine::Plan);
        let plan = program.plan();
        assert!(plan.lookup_impl("ZNat", "succ").is_some());
    }
}
