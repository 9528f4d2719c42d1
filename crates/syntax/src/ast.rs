//! Abstract syntax for the JMatch 2.0 dialect.
//!
//! The grammar follows the paper: Java-like class and interface declarations
//! extended with
//!
//! * **modes** on methods (`returns(..)` / `iterates(..)`),
//! * **named constructors** declarable in interfaces and classes (§3.1),
//! * **equality constructors** (`constructor equals(...)`, §3.2),
//! * **class/interface invariants** (§4.1),
//! * **`matches` and `ensures` clauses** (§4.2, §4.5),
//! * declarative method bodies that are boolean **formulas**, and
//! * pattern forms `as`, `#`, `|`, tuples and `where` (§3.3).

use crate::lexer::Pos;
use std::fmt;

/// A whole compilation unit (one or more declarations).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level declarations.
    pub decls: Vec<Decl>,
}

impl Program {
    /// All interface declarations.
    pub fn interfaces(&self) -> impl Iterator<Item = &InterfaceDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Interface(i) => Some(i),
            _ => None,
        })
    }

    /// All class declarations.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Class(c) => Some(c),
            _ => None,
        })
    }

    /// All free-standing (top-level) methods.
    pub fn methods(&self) -> impl Iterator<Item = &MethodDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Method(m) => Some(m),
            _ => None,
        })
    }

    /// Finds a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassDecl> {
        self.classes().find(|c| c.name == name)
    }

    /// Finds an interface by name.
    pub fn interface(&self, name: &str) -> Option<&InterfaceDecl> {
        self.interfaces().find(|i| i.name == name)
    }
}

/// A top-level declaration.
// The variants intentionally carry their declarations inline; programs hold
// few `Decl`s, so the size skew has no practical cost.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// An interface.
    Interface(InterfaceDecl),
    /// A class.
    Class(ClassDecl),
    /// A free-standing method (used for example/driver code such as `plus`).
    Method(MethodDecl),
}

/// Member visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Visibility {
    /// `public`
    Public,
    /// `protected`
    Protected,
    /// package-private (no modifier)
    #[default]
    Package,
    /// `private`
    Private,
}

impl fmt::Display for Visibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Visibility::Public => write!(f, "public"),
            Visibility::Protected => write!(f, "protected"),
            Visibility::Package => write!(f, "package"),
            Visibility::Private => write!(f, "private"),
        }
    }
}

/// An interface declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceDecl {
    /// Interface name.
    pub name: String,
    /// Extended interfaces.
    pub extends: Vec<String>,
    /// Declared invariants.
    pub invariants: Vec<InvariantDecl>,
    /// Method and named-constructor signatures.
    pub methods: Vec<MethodDecl>,
    /// Source position.
    pub pos: Pos,
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Implemented interfaces.
    pub implements: Vec<String>,
    /// Superclass, if any.
    pub extends: Option<String>,
    /// Whether the class is abstract.
    pub is_abstract: bool,
    /// Fields.
    pub fields: Vec<FieldDecl>,
    /// Declared invariants.
    pub invariants: Vec<InvariantDecl>,
    /// Methods, named constructors and class constructors.
    pub methods: Vec<MethodDecl>,
    /// Source position.
    pub pos: Pos,
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Visibility.
    pub visibility: Visibility,
    /// Whether the field is static.
    pub is_static: bool,
    /// Declared type.
    pub ty: Type,
    /// Field name.
    pub name: String,
    /// Optional initializer.
    pub init: Option<Expr>,
    /// Source position.
    pub pos: Pos,
}

/// A class or interface invariant (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantDecl {
    /// Visibility of the invariant.
    pub visibility: Visibility,
    /// The invariant formula (implicitly about `this`).
    pub formula: Formula,
    /// Source position.
    pub pos: Pos,
}

/// What kind of callable a [`MethodDecl`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// An ordinary method with a return type.
    Method,
    /// A named constructor (`constructor zero() ...`, §3.1). The special name
    /// `equals` makes it an equality constructor (§3.2).
    NamedConstructor,
    /// A class constructor (same name as the class, e.g. `private ZNat(int n)`).
    ClassConstructor,
}

/// A mode declaration: which parameters (and implicitly `result`) are solved
/// for when the method is used backwards.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModeDecl {
    /// `true` for `iterates(..)` (many solutions), `false` for `returns(..)`.
    pub iterative: bool,
    /// Names of the parameters that are unknowns in this mode. The return
    /// value (`result`) is an unknown exactly when it is *not* listed and the
    /// mode is not the forward mode — mode resolution in `jmatch-core`
    /// prepends the implicit forward mode and applies this rule.
    pub outputs: Vec<String>,
}

/// A method, named constructor, or class constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Visibility.
    pub visibility: Visibility,
    /// Whether declared `static`.
    pub is_static: bool,
    /// Whether declared `abstract` (or declared in an interface).
    pub is_abstract: bool,
    /// The kind of callable.
    pub kind: MethodKind,
    /// Return type (`None` for constructors, whose result is the object).
    pub return_type: Option<Type>,
    /// Name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Declared backward/iterative modes.
    pub modes: Vec<ModeDecl>,
    /// The `matches` clause, if any (§4.2). Defaults to `false` semantically.
    pub matches: Option<Formula>,
    /// The `ensures` clause, if any (§4.5). Defaults to `true` semantically.
    pub ensures: Option<Formula>,
    /// The body.
    pub body: MethodBody,
    /// Source position.
    pub pos: Pos,
}

impl MethodDecl {
    /// Whether this is an equality constructor (`constructor equals(...)`).
    pub fn is_equality_constructor(&self) -> bool {
        self.kind == MethodKind::NamedConstructor && self.name == "equals"
    }
}

/// A method body.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum MethodBody {
    /// No body (interface or abstract method).
    Absent,
    /// A declarative body: a boolean formula over parameters, fields and
    /// `result`.
    Formula(Formula),
    /// An imperative block of statements.
    Block(Vec<Stmt>),
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Param {
    /// Declared type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
}

/// A (simplified Java) type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `int`
    Int,
    /// `boolean`
    Boolean,
    /// `void`
    Void,
    /// `Object`
    Object,
    /// A named class or interface type.
    Named(String),
    /// An array type.
    Array(Box<Type>),
}

impl Type {
    /// The type name used for diagnostics and sort names.
    pub fn name(&self) -> String {
        match self {
            Type::Int => "int".into(),
            Type::Boolean => "boolean".into(),
            Type::Void => "void".into(),
            Type::Object => "Object".into(),
            Type::Named(n) => n.clone(),
            Type::Array(inner) => format!("{}[]", inner.name()),
        }
    }

    /// Whether this is a reference (object) type.
    pub fn is_reference(&self) -> bool {
        matches!(self, Type::Object | Type::Named(_) | Type::Array(_))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Comparison operators usable at the formula level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=` — equality / pattern match.
    Eq,
    /// `!=`
    Ne,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        };
        write!(f, "{s}")
    }
}

/// Binary arithmetic operators inside patterns/expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
        };
        write!(f, "{s}")
    }
}

/// A boolean formula (the declarative layer of JMatch).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Formula {
    /// `true` or `false`.
    Bool(bool),
    /// A comparison / pattern-match between two patterns.
    Cmp(CmpOp, Expr, Expr),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Disjoint disjunction at the formula level (`f1 | f2`, §3.3): at most
    /// one arm may be satisfiable for any assignment of the knowns; the
    /// compiler verifies this.
    DisjointOr(Box<Formula>, Box<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// A boolean-valued pattern: a predicate-mode method call
    /// (`n.zero()`, `zero()`, `notall(x, y)`), a boolean variable or field.
    Atom(Expr),
}

impl Formula {
    /// Convenience constructor for conjunction.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for disjunction.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: Formula) -> Formula {
        Formula::Not(Box::new(a))
    }
}

/// A pattern (also used as an expression; JMatch patterns and expressions
/// share one syntax).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Boolean literal.
    BoolLit(bool),
    /// String literal.
    StrLit(String),
    /// `null`.
    Null,
    /// `this`.
    This,
    /// `result` (the method result inside bodies and specs).
    Result,
    /// `_` — matches anything, binds nothing.
    Wildcard,
    /// A variable reference (or class name in a static call receiver).
    Var(String),
    /// A declaration pattern `T x`, introducing `x` as an unknown.
    Decl(Type, String),
    /// Field access `e.f`.
    Field(Box<Expr>, String),
    /// A call `recv.name(args)`, `name(args)`, or `Class.name(args)`.
    ///
    /// Covers ordinary method calls, named-constructor invocations and class
    /// constructor invocations; resolution happens in `jmatch-core`.
    Call {
        /// Optional receiver (object expression or class name as `Var`).
        receiver: Option<Box<Expr>>,
        /// Method / constructor name.
        name: String,
        /// Argument patterns.
        args: Vec<Expr>,
    },
    /// Array or collection indexing `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// `new T[len]` array allocation.
    NewArray(Type, Box<Expr>),
    /// Binary arithmetic.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// A tuple pattern `(p1, ..., pn)` (§3.3). Tuples are not first-class
    /// values; they are eliminated during mode planning.
    Tuple(Vec<Expr>),
    /// `p1 as p2` — both patterns match the same value.
    As(Box<Expr>, Box<Expr>),
    /// `p1 # p2` — pattern disjunction (§3.3), may yield several solutions.
    OrPat(Box<Expr>, Box<Expr>),
    /// `p1 | p2` — disjoint pattern disjunction (§3.3), at most one solution;
    /// disjointness is verified statically.
    DisjointOr(Box<Expr>, Box<Expr>),
    /// `p where (f)` — refines a pattern with a formula (§3.3).
    Where(Box<Expr>, Box<Formula>),
}

impl Expr {
    /// Convenience: a call without a receiver.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            receiver: None,
            name: name.into(),
            args,
        }
    }

    /// Convenience: a call with a receiver.
    pub fn method(receiver: Expr, name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            receiver: Some(Box::new(receiver)),
            name: name.into(),
            args,
        }
    }

    /// Collects all variables *declared* by this pattern (via `T x`
    /// declaration patterns), in source order.
    pub fn declared_vars(&self) -> Vec<(Type, String)> {
        let mut out = Vec::new();
        self.collect_declared(&mut out);
        out
    }

    fn collect_declared(&self, out: &mut Vec<(Type, String)>) {
        match self {
            Expr::Decl(ty, name) => out.push((ty.clone(), name.clone())),
            Expr::Field(e, _) => e.collect_declared(out),
            Expr::Call { receiver, args, .. } => {
                if let Some(r) = receiver {
                    r.collect_declared(out);
                }
                for a in args {
                    a.collect_declared(out);
                }
            }
            Expr::Index(a, b) | Expr::Binary(_, a, b) => {
                a.collect_declared(out);
                b.collect_declared(out);
            }
            Expr::NewArray(_, e) | Expr::Neg(e) => e.collect_declared(out),
            Expr::Tuple(xs) => {
                for x in xs {
                    x.collect_declared(out);
                }
            }
            Expr::As(a, b) | Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => {
                a.collect_declared(out);
                b.collect_declared(out);
            }
            Expr::Where(p, f) => {
                p.collect_declared(out);
                f.collect_declared_vars(out);
            }
            _ => {}
        }
    }
}

/// Source form, as run-time errors quote an expression: binary operations
/// are parenthesized, both or-pattern forms print as `|` (they run alike),
/// and a `where` formula prints as `(..)`. `PExpr`'s `Display` in
/// `jmatch-core` prints the lowered form of the same expression
/// byte-identically.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::IntLit(i) => write!(f, "{i}"),
            Expr::BoolLit(b) => write!(f, "{b}"),
            Expr::StrLit(s) => write!(f, "{s:?}"),
            Expr::Null => write!(f, "null"),
            Expr::This => write!(f, "this"),
            Expr::Result => write!(f, "result"),
            Expr::Wildcard => write!(f, "_"),
            Expr::Var(name) => write!(f, "{name}"),
            Expr::Decl(ty, name) => write!(f, "{ty} {name}"),
            Expr::Field(b, name) => write!(f, "{b}.{name}"),
            Expr::Call {
                receiver,
                name,
                args,
            } => {
                if let Some(r) = receiver {
                    write!(f, "{r}.")?;
                }
                write!(f, "{name}(")?;
                write_list(f, args)?;
                write!(f, ")")
            }
            Expr::Index(a, i) => write!(f, "{a}[{i}]"),
            Expr::NewArray(ty, n) => write!(f, "new {ty}[{n}]"),
            Expr::Binary(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Neg(a) => write!(f, "-{a}"),
            Expr::Tuple(xs) => {
                write!(f, "(")?;
                write_list(f, xs)?;
                write!(f, ")")
            }
            Expr::As(a, b) => write!(f, "{a} as {b}"),
            Expr::OrPat(a, b) | Expr::DisjointOr(a, b) => write!(f, "{a} | {b}"),
            Expr::Where(p, _) => write!(f, "{p} where (..)"),
        }
    }
}

/// Writes `xs` separated by `, `.
pub fn write_list<T: fmt::Display>(f: &mut fmt::Formatter<'_>, xs: &[T]) -> fmt::Result {
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{x}")?;
    }
    Ok(())
}

impl Formula {
    /// Collects all variables declared anywhere in the formula (via `T x`
    /// declaration patterns), in source order.
    pub fn declared_vars(&self) -> Vec<(Type, String)> {
        let mut out = Vec::new();
        self.collect_declared_vars(&mut out);
        out
    }

    fn collect_declared_vars(&self, out: &mut Vec<(Type, String)>) {
        match self {
            Formula::Bool(_) => {}
            Formula::Cmp(_, a, b) => {
                a.collect_declared(out);
                b.collect_declared(out);
            }
            Formula::And(a, b) | Formula::Or(a, b) | Formula::DisjointOr(a, b) => {
                a.collect_declared_vars(out);
                b.collect_declared_vars(out);
            }
            Formula::Not(a) => a.collect_declared_vars(out),
            Formula::Atom(e) => e.collect_declared(out),
        }
    }
}

/// A statement in an imperative method body.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Stmt {
    /// `let f;` — solve formula `f`; bindings remain in scope. Variable
    /// declarations `int x = e;` are sugar for this.
    Let(Formula),
    /// `switch (e1, ..., en) { case p: ... default: ... }`.
    Switch {
        /// Scrutinee expressions (more than one forms an implicit tuple).
        scrutinees: Vec<Expr>,
        /// The cases, in order.
        cases: Vec<SwitchCase>,
        /// The default arm, if present.
        default: Option<Vec<Stmt>>,
    },
    /// `cond { (f1) {s1} ... else {s} }` — execute the first arm whose
    /// formula is satisfiable.
    Cond {
        /// The `(formula) { body }` arms.
        arms: Vec<(Formula, Vec<Stmt>)>,
        /// The `else` arm, if present.
        else_arm: Option<Vec<Stmt>>,
    },
    /// `if (f) s else s` — sugar for `cond`.
    If {
        /// Condition formula.
        cond: Formula,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Option<Vec<Stmt>>,
    },
    /// `foreach (f) { s }` — iterate over all solutions of `f`.
    Foreach {
        /// The iterated formula.
        formula: Formula,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `while (f) { s }`.
    While {
        /// Loop condition.
        cond: Formula,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return e;` / `return;`.
    Return(Option<Expr>),
    /// Imperative assignment `x = e;` (to an already-bound variable or field).
    Assign(Expr, Expr),
    /// An expression evaluated for effect.
    ExprStmt(Expr),
    /// A nested block.
    Block(Vec<Stmt>),
}

/// One `case` arm of a `switch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// The case patterns (one per scrutinee).
    pub patterns: Vec<Expr>,
    /// The body; empty means fall through to the next case's body.
    pub body: Vec<Stmt>,
    /// Source position of the `case`.
    pub pos: Pos,
}

// `Hash` deliberately skips `pos`: incremental recompilation fingerprints
// statements by content, and an edit above a case must not dirty it just by
// shifting its line number.
impl std::hash::Hash for SwitchCase {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.patterns.hash(state);
        self.body.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_vars_are_collected_in_order() {
        // succ(Nat k) as Nat m
        let pat = Expr::As(
            Box::new(Expr::call(
                "succ",
                vec![Expr::Decl(Type::Named("Nat".into()), "k".into())],
            )),
            Box::new(Expr::Decl(Type::Named("Nat".into()), "m".into())),
        );
        let vars = pat.declared_vars();
        assert_eq!(
            vars,
            vec![
                (Type::Named("Nat".into()), "k".into()),
                (Type::Named("Nat".into()), "m".into()),
            ]
        );
    }

    #[test]
    fn formula_declared_vars() {
        // val >= 1 && ZNat(val - 1) = n  declares nothing
        let f = Formula::and(
            Formula::Cmp(CmpOp::Ge, Expr::Var("val".into()), Expr::IntLit(1)),
            Formula::Cmp(
                CmpOp::Eq,
                Expr::call(
                    "ZNat",
                    vec![Expr::Binary(
                        BinOp::Sub,
                        Box::new(Expr::Var("val".into())),
                        Box::new(Expr::IntLit(1)),
                    )],
                ),
                Expr::Var("n".into()),
            ),
        );
        assert!(f.declared_vars().is_empty());
        // int x = y - 1 declares x
        let g = Formula::Cmp(
            CmpOp::Eq,
            Expr::Decl(Type::Int, "x".into()),
            Expr::Binary(
                BinOp::Sub,
                Box::new(Expr::Var("y".into())),
                Box::new(Expr::IntLit(1)),
            ),
        );
        assert_eq!(g.declared_vars(), vec![(Type::Int, "x".into())]);
    }

    #[test]
    fn type_names() {
        assert_eq!(Type::Int.name(), "int");
        assert_eq!(Type::Named("Nat".into()).name(), "Nat");
        assert_eq!(Type::Array(Box::new(Type::Object)).name(), "Object[]");
        assert!(Type::Named("Nat".into()).is_reference());
        assert!(!Type::Int.is_reference());
    }
}
