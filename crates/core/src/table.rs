//! The class table: resolved types, methods, modes and specifications.
//!
//! The table is the verifier's (and the runtime's) view of a parsed program:
//! every interface and class with its supertypes, fields, invariants, and
//! methods; every method with its declared modes, `matches` and `ensures`
//! clauses. Lookup is *modular* in the sense of the paper: a client matching
//! on an interface type only ever sees what the interface declares (its
//! invariants and the specifications of its named constructors), never the
//! private representation of an implementation.

use crate::diag::Diagnostics;
use crate::intern::{Interner, Sym};
use jmatch_syntax::ast::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies one mode of a method.
///
/// Mode 0 is always the *forward* mode (all parameters known, `result`
/// unknown); declared `returns`/`iterates` clauses follow in order.
pub type ModeIndex = usize;

/// A resolved mode: which of the method's relation variables are unknowns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mode {
    /// Whether the mode may produce more than one solution (`iterates`).
    pub iterative: bool,
    /// Parameter names solved for in this mode.
    pub unknown_params: Vec<String>,
    /// Whether `result` is an unknown in this mode.
    pub result_unknown: bool,
}

impl Mode {
    /// Whether a parameter is a known (input) in this mode.
    pub fn param_is_known(&self, name: &str) -> bool {
        !self.unknown_params.iter().any(|p| p == name)
    }
}

/// A method (or constructor) together with its owner and resolved modes.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodInfo {
    /// Name of the declaring type.
    pub owner: String,
    /// The declaration itself.
    pub decl: MethodDecl,
    /// All modes: index 0 is the forward mode, the rest are declared modes.
    pub modes: Vec<Mode>,
}

impl MethodInfo {
    /// The mode in which the given set of parameters are unknowns and
    /// `result` is known/unknown as requested. Returns the first match.
    pub fn find_mode(&self, unknown_params: &[String], result_unknown: bool) -> Option<ModeIndex> {
        self.modes.iter().position(|m| {
            m.result_unknown == result_unknown
                && m.unknown_params.len() == unknown_params.len()
                && unknown_params.iter().all(|p| m.unknown_params.contains(p))
        })
    }

    /// Whether this is a named constructor.
    pub fn is_named_constructor(&self) -> bool {
        self.decl.kind == MethodKind::NamedConstructor
    }

    /// Whether this callable constructs (and therefore matches) instances of
    /// its owner type: named constructors and class constructors.
    pub fn constructs_owner(&self) -> bool {
        self.decl.kind != MethodKind::Method
    }

    /// The result type of the method. Constructors produce their owner type.
    pub fn result_type(&self) -> Type {
        match self.decl.kind {
            MethodKind::Method => self.decl.return_type.clone().unwrap_or(Type::Void),
            _ => Type::Named(self.owner.clone()),
        }
    }

    /// A stable identifier `<Owner>.<name>` for diagnostics and predicates.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.owner, self.decl.name)
    }
}

/// A resolved type (interface or class) in the table.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeInfo {
    /// Type name.
    pub name: String,
    /// Whether this is an interface.
    pub is_interface: bool,
    /// Whether the class is abstract (interfaces are implicitly abstract).
    pub is_abstract: bool,
    /// Direct supertypes (implemented interfaces and the superclass).
    pub supertypes: Vec<String>,
    /// Fields declared directly in this type.
    pub fields: Vec<FieldDecl>,
    /// Invariants declared directly in this type.
    pub invariants: Vec<InvariantDecl>,
    /// Methods declared directly in this type (by declaration order).
    pub methods: Vec<MethodInfo>,
}

/// The compile-time object layout of one class: its interned name, its
/// dense *type index* (position in declaration order, the key of every
/// dispatch table), and the slot order of its directly declared fields.
///
/// A runtime `Object` holds an `Arc<ClassLayout>` plus a flat `Box<[Value]>`
/// of field slots; reading a field is `slot_of_sym` (a handful of `u32`
/// compares resolved against symbols interned at compile time) followed by
/// one indexed load, instead of hashing a `String` into a per-object map.
/// The layout covers the fields construction initializes — the class's own
/// declarations, in declaration order — mirroring the previous
/// `HashMap`-shaped objects exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLayout {
    sym: Sym,
    type_index: u32,
    name: String,
    field_names: Box<[String]>,
    field_syms: Box<[Sym]>,
}

impl ClassLayout {
    /// The interned class name.
    pub fn sym(&self) -> Sym {
        self.sym
    }

    /// The class's dense index in declaration order — the key runtime
    /// dispatch tables are indexed by.
    pub fn type_index(&self) -> u32 {
        self.type_index
    }

    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of field slots.
    pub fn num_fields(&self) -> usize {
        self.field_names.len()
    }

    /// Field names in slot order.
    pub fn field_names(&self) -> &[String] {
        &self.field_names
    }

    /// The slot of a field, by name (the string-based API boundary).
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.field_names.iter().position(|f| f == name)
    }

    /// The slot of a field, by interned symbol (the hot path: a few `u32`
    /// compares, no hashing).
    pub fn slot_of_sym(&self, sym: Sym) -> Option<usize> {
        self.field_syms.iter().position(|&f| f == sym)
    }

    /// The field name stored in a slot.
    pub fn field_name(&self, slot: usize) -> &str {
        &self.field_names[slot]
    }
}

/// The resolved program: all types and free-standing methods, plus the
/// frozen name [`Interner`], per-class [`ClassLayout`]s and the
/// precomputed subtype matrix the runtime representation is built on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassTable {
    types: HashMap<String, TypeInfo>,
    type_order: Vec<String>,
    free_methods: Vec<MethodInfo>,
    /// Interned class / field / method names; frozen after `build`.
    interner: Interner,
    /// One layout per type, in declaration order (indexed by type index).
    layouts: Vec<Arc<ClassLayout>>,
    /// Type name → type index.
    type_indices: HashMap<String, u32>,
    /// Dense `n × n` subtype matrix over the declared types
    /// (`subtypes[a * n + b]` ⇔ type `a` is a subtype of type `b`).
    subtypes: Vec<bool>,
}

impl ClassTable {
    /// Builds a class table from a parsed program.
    ///
    /// Resolution problems (duplicate types, unknown supertypes) are recorded
    /// in `diags` as errors; the table is still returned so later phases can
    /// proceed best-effort.
    pub fn build(program: &Program, diags: &mut Diagnostics) -> Arc<ClassTable> {
        Arc::new(Self::build_inner(program, diags))
    }

    /// Like [`ClassTable::build`], but shares per-class [`ClassLayout`]
    /// allocations with a previous generation of the same program wherever
    /// they are value-equal.
    ///
    /// The runtime compares layouts by pointer on its hot paths
    /// (`index_of_layout`), so objects constructed under the previous
    /// generation keep taking the fast path against a recompiled table as
    /// long as their class's layout didn't change. Layouts whose shape *did*
    /// change (renamed fields, reordered types) keep their fresh allocation —
    /// adoption is purely an equality-gated swap.
    pub fn build_reusing(
        program: &Program,
        diags: &mut Diagnostics,
        prev: &ClassTable,
    ) -> Arc<ClassTable> {
        let mut table = Self::build_inner(program, diags);
        table.adopt_layouts(prev);
        Arc::new(table)
    }

    /// Swaps every freshly built layout that is value-equal to the previous
    /// generation's layout of the same class for the previous `Arc`.
    fn adopt_layouts(&mut self, prev: &ClassTable) {
        for layout in &mut self.layouts {
            if let Some(&pi) = prev.type_indices.get(layout.name()) {
                let old = &prev.layouts[pi as usize];
                if **old == **layout {
                    *layout = Arc::clone(old);
                }
            }
        }
    }

    fn build_inner(program: &Program, diags: &mut Diagnostics) -> ClassTable {
        let mut table = ClassTable::default();
        for decl in &program.decls {
            match decl {
                Decl::Interface(i) => {
                    let info = TypeInfo {
                        name: i.name.clone(),
                        is_interface: true,
                        is_abstract: true,
                        supertypes: i.extends.clone(),
                        fields: Vec::new(),
                        invariants: i.invariants.clone(),
                        methods: i
                            .methods
                            .iter()
                            .map(|m| MethodInfo {
                                owner: i.name.clone(),
                                modes: resolve_modes(m),
                                decl: m.clone(),
                            })
                            .collect(),
                    };
                    table.insert_type(info, diags);
                }
                Decl::Class(c) => {
                    let mut supertypes = c.implements.clone();
                    if let Some(sup) = &c.extends {
                        supertypes.push(sup.clone());
                    }
                    let info = TypeInfo {
                        name: c.name.clone(),
                        is_interface: false,
                        is_abstract: c.is_abstract,
                        supertypes,
                        fields: c.fields.clone(),
                        invariants: c.invariants.clone(),
                        methods: c
                            .methods
                            .iter()
                            .map(|m| MethodInfo {
                                owner: c.name.clone(),
                                modes: resolve_modes(m),
                                decl: m.clone(),
                            })
                            .collect(),
                    };
                    table.insert_type(info, diags);
                }
                Decl::Method(m) => {
                    table.free_methods.push(MethodInfo {
                        owner: "<toplevel>".into(),
                        modes: resolve_modes(m),
                        decl: m.clone(),
                    });
                }
            }
        }
        // Validate supertype references.
        for name in table.type_order.clone() {
            let supers = table.types[&name].supertypes.clone();
            for s in supers {
                if !table.types.contains_key(&s) && s != "Object" {
                    diags.error(name.clone(), format!("unknown supertype `{s}`"));
                }
            }
        }
        table.finish();
        table
    }

    /// Freezes the runtime representation: interns every class / field /
    /// method name, assigns type indices, builds per-class layouts and the
    /// dense subtype matrix. Runs once, at the end of `build`.
    fn finish(&mut self) {
        // Class names first (small symbols), then fields, then methods.
        for name in &self.type_order {
            self.interner.intern(name);
        }
        for name in &self.type_order {
            let info = &self.types[name];
            for f in &info.fields {
                self.interner.intern(&f.name);
            }
            for m in &info.methods {
                self.interner.intern(&m.decl.name);
            }
        }
        for m in &self.free_methods {
            self.interner.intern(&m.decl.name);
        }
        let n = self.type_order.len();
        let mut matrix = vec![false; n * n];
        for (a, sub) in self.type_order.iter().enumerate() {
            for (b, sup) in self.type_order.iter().enumerate() {
                matrix[a * n + b] = self.is_subtype_walk(sub, sup);
            }
        }
        self.subtypes = matrix;
        for (i, name) in self.type_order.iter().enumerate() {
            let info = &self.types[name];
            self.layouts.push(Arc::new(ClassLayout {
                sym: self.interner.lookup(name).expect("type name interned"),
                type_index: i as u32,
                name: name.clone(),
                field_names: info.fields.iter().map(|f| f.name.clone()).collect(),
                field_syms: info
                    .fields
                    .iter()
                    .map(|f| self.interner.lookup(&f.name).expect("field name interned"))
                    .collect(),
            }));
            self.type_indices.insert(name.clone(), i as u32);
        }
    }

    fn insert_type(&mut self, info: TypeInfo, diags: &mut Diagnostics) {
        if self.types.contains_key(&info.name) {
            diags.error(info.name.clone(), "duplicate type declaration");
            return;
        }
        self.type_order.push(info.name.clone());
        self.types.insert(info.name.clone(), info);
    }

    /// All types in declaration order.
    pub fn types(&self) -> impl Iterator<Item = &TypeInfo> {
        self.type_order.iter().map(|n| &self.types[n])
    }

    /// Looks up a type by name.
    pub fn type_info(&self, name: &str) -> Option<&TypeInfo> {
        self.types.get(name)
    }

    /// Free-standing methods.
    pub fn free_methods(&self) -> &[MethodInfo] {
        &self.free_methods
    }

    /// Whether `sub` is a subtype of `sup` (reflexive, transitive; every
    /// reference type is a subtype of `Object`). Pairs of declared types
    /// answer from the precomputed matrix; undeclared names (including the
    /// erroneous-program case of a dangling supertype) fall back to the
    /// recursive walk, which also defines the matrix.
    pub fn is_subtype(&self, sub: &str, sup: &str) -> bool {
        if sub == sup || sup == "Object" {
            return true;
        }
        if !self.subtypes.is_empty() {
            if let (Some(&a), Some(&b)) = (self.type_indices.get(sub), self.type_indices.get(sup)) {
                return self.subtypes[a as usize * self.type_order.len() + b as usize];
            }
        }
        self.is_subtype_walk(sub, sup)
    }

    /// The recursive subtype walk (used during `build`, before the matrix
    /// exists, and for names outside the table).
    fn is_subtype_walk(&self, sub: &str, sup: &str) -> bool {
        if sub == sup || sup == "Object" {
            return true;
        }
        let Some(info) = self.types.get(sub) else {
            return false;
        };
        info.supertypes.iter().any(|s| self.is_subtype_walk(s, sup))
    }

    /// Matrix-backed subtype test over type indices — the hot-path form
    /// pattern guards and dispatch use.
    pub fn is_subtype_idx(&self, sub: u32, sup: u32) -> bool {
        sub == sup || self.subtypes[sub as usize * self.type_order.len() + sup as usize]
    }

    /// The frozen name interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Number of declared types (the dimension of dispatch tables).
    pub fn num_types(&self) -> usize {
        self.type_order.len()
    }

    /// The dense type index of a declared type.
    pub fn type_index(&self, name: &str) -> Option<u32> {
        self.type_indices.get(name).copied()
    }

    /// The runtime layout of a declared type, by name.
    pub fn layout(&self, name: &str) -> Option<&Arc<ClassLayout>> {
        self.type_indices
            .get(name)
            .map(|&i| &self.layouts[i as usize])
    }

    /// The runtime layout of a declared type, by type index.
    pub fn layout_at(&self, index: u32) -> &Arc<ClassLayout> {
        &self.layouts[index as usize]
    }

    /// The type index of an object layout *in this table*: one pointer
    /// compare when the layout is this table's own (the common case),
    /// falling back to a name lookup for layouts from another program so
    /// foreign indices are never trusted.
    pub fn index_of_layout(&self, layout: &Arc<ClassLayout>) -> Option<u32> {
        let i = layout.type_index() as usize;
        match self.layouts.get(i) {
            Some(own) if Arc::ptr_eq(own, layout) => Some(layout.type_index()),
            _ => self.type_index(layout.name()),
        }
    }

    /// All *concrete* classes that are subtypes of `name` (including itself
    /// if it is a concrete class).
    pub fn concrete_subtypes(&self, name: &str) -> Vec<&TypeInfo> {
        self.types()
            .filter(|t| !t.is_interface && !t.is_abstract && self.is_subtype(&t.name, name))
            .collect()
    }

    /// Whether two types can have a common instance. Two class types are
    /// compatible only along a subtype chain; an interface is compatible with
    /// anything not provably disjoint.
    pub fn types_may_overlap(&self, a: &str, b: &str) -> bool {
        if a == b || a == "Object" || b == "Object" {
            return true;
        }
        let (Some(ta), Some(tb)) = (self.types.get(a), self.types.get(b)) else {
            return true;
        };
        if !ta.is_interface && !tb.is_interface {
            return self.is_subtype(a, b) || self.is_subtype(b, a);
        }
        // At least one interface: overlap iff some concrete class implements
        // both (or could — if either has no known implementations, assume
        // overlap to stay conservative).
        let impls_a = self.concrete_subtypes(a);
        let impls_b = self.concrete_subtypes(b);
        if impls_a.is_empty() || impls_b.is_empty() {
            return true;
        }
        impls_a.iter().any(|t| self.is_subtype(&t.name, b))
    }

    /// Looks up a method by name on a type, searching supertypes. Named
    /// constructors and ordinary methods share a namespace here.
    pub fn lookup_method(&self, ty: &str, name: &str) -> Option<&MethodInfo> {
        if let Some(info) = self.types.get(ty) {
            if let Some(m) = info.methods.iter().find(|m| m.decl.name == name) {
                return Some(m);
            }
            for sup in &info.supertypes {
                if let Some(m) = self.lookup_method(sup, name) {
                    return Some(m);
                }
            }
        }
        None
    }

    /// Looks up the class constructor of a class (the method named like the
    /// class).
    pub fn lookup_class_constructor(&self, class: &str) -> Option<&MethodInfo> {
        self.types.get(class).and_then(|info| {
            info.methods
                .iter()
                .find(|m| m.decl.kind == MethodKind::ClassConstructor)
        })
    }

    /// Looks up a free-standing method.
    pub fn lookup_free_method(&self, name: &str) -> Option<&MethodInfo> {
        self.free_methods.iter().find(|m| m.decl.name == name)
    }

    /// All invariants visible on a type *and its supertypes* at the given
    /// visibility level. `include_private` is true when verifying the type's
    /// own implementation.
    pub fn visible_invariants(&self, ty: &str, include_private: bool) -> Vec<&InvariantDecl> {
        let mut out = Vec::new();
        self.collect_invariants(ty, include_private, ty, &mut out);
        out
    }

    fn collect_invariants<'a>(
        &'a self,
        ty: &str,
        include_private: bool,
        origin: &str,
        out: &mut Vec<&'a InvariantDecl>,
    ) {
        if let Some(info) = self.types.get(ty) {
            for inv in &info.invariants {
                let visible = match inv.visibility {
                    Visibility::Private => include_private && ty == origin,
                    _ => true,
                };
                if visible {
                    out.push(inv);
                }
            }
            for sup in &info.supertypes {
                self.collect_invariants(sup, include_private, origin, out);
            }
        }
    }

    /// The declared type of a field on `ty` (searching supertypes).
    pub fn field_type(&self, ty: &str, field: &str) -> Option<Type> {
        let info = self.types.get(ty)?;
        if let Some(f) = info.fields.iter().find(|f| f.name == field) {
            return Some(f.ty.clone());
        }
        for sup in &info.supertypes {
            if let Some(t) = self.field_type(sup, field) {
                return Some(t);
            }
        }
        None
    }
}

/// Resolves the declared modes of a method into [`Mode`]s, always prepending
/// the implicit forward mode.
fn resolve_modes(decl: &MethodDecl) -> Vec<Mode> {
    let mut modes = Vec::new();
    // Forward mode: all params known. `result` is unknown unless the method
    // returns void; for boolean methods the forward mode doubles as the
    // predicate mode but still "produces" the boolean result.
    let forward_result_unknown = !matches!(decl.return_type, Some(Type::Void));
    modes.push(Mode {
        iterative: false,
        unknown_params: Vec::new(),
        result_unknown: forward_result_unknown,
    });
    for m in &decl.modes {
        let unknown_params: Vec<String> = m
            .outputs
            .iter()
            .filter(|o| decl.params.iter().any(|p| &p.name == *o))
            .cloned()
            .collect();
        let result_listed = m.outputs.iter().any(|o| o == "result");
        modes.push(Mode {
            iterative: m.iterative,
            unknown_params,
            // In a declared backward mode the result (the value being
            // matched) is a known unless explicitly listed as an output.
            result_unknown: result_listed,
        });
    }
    // Named constructors always support being used as predicates on a known
    // receiver (the mode `returns()`), even when the declaration omits it —
    // the paper's List interface relies on this for `nil()` patterns.
    if decl.kind == MethodKind::NamedConstructor {
        let predicate_mode = Mode {
            iterative: false,
            unknown_params: Vec::new(),
            result_unknown: false,
        };
        if !modes.iter().skip(1).any(|m| *m == predicate_mode) {
            modes.push(predicate_mode);
        }
    }
    modes
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmatch_syntax::parse_program;

    fn table_for(src: &str) -> (Arc<ClassTable>, Diagnostics) {
        let program = parse_program(src).unwrap();
        let mut diags = Diagnostics::new();
        let table = ClassTable::build(&program, &mut diags);
        (table, diags)
    }

    const NAT_SRC: &str = r#"
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
    "#;

    #[test]
    fn builds_nat_hierarchy() {
        let (table, diags) = table_for(NAT_SRC);
        assert!(diags.errors.is_empty(), "{:?}", diags.errors);
        assert!(table.type_info("Nat").unwrap().is_interface);
        assert!(table.is_subtype("ZNat", "Nat"));
        assert!(table.is_subtype("PSucc", "Nat"));
        assert!(!table.is_subtype("Nat", "ZNat"));
        assert!(table.is_subtype("ZNat", "Object"));
        let concrete: Vec<_> = table
            .concrete_subtypes("Nat")
            .iter()
            .map(|t| t.name.clone())
            .collect();
        assert_eq!(concrete, vec!["ZNat", "PZero", "PSucc"]);
    }

    #[test]
    fn method_lookup_searches_supertypes() {
        let (table, _) = table_for(NAT_SRC);
        // zero is declared on ZNat directly.
        let m = table.lookup_method("ZNat", "zero").unwrap();
        assert_eq!(m.owner, "ZNat");
        // Looking it up on the interface finds the interface signature.
        let mi = table.lookup_method("Nat", "succ").unwrap();
        assert_eq!(mi.owner, "Nat");
        assert!(mi.is_named_constructor());
        assert_eq!(mi.result_type(), Type::Named("Nat".into()));
        // Class constructors are found separately.
        let ctor = table.lookup_class_constructor("ZNat").unwrap();
        assert_eq!(ctor.decl.kind, MethodKind::ClassConstructor);
    }

    #[test]
    fn modes_include_forward_and_declared() {
        let (table, _) = table_for(NAT_SRC);
        let succ = table.lookup_method("Nat", "succ").unwrap();
        // Forward, declared returns(n), and the implicit predicate mode.
        assert_eq!(succ.modes.len(), 3);
        // Forward: construct from n.
        assert!(succ.modes[0].unknown_params.is_empty());
        assert!(succ.modes[0].result_unknown);
        // Backward: given the object, solve for n.
        assert_eq!(succ.modes[1].unknown_params, vec!["n".to_string()]);
        assert!(!succ.modes[1].result_unknown);
        assert!(!succ.modes[1].iterative);
        // find_mode locates the pattern-matching mode.
        assert_eq!(succ.find_mode(&["n".into()], false), Some(1));
        assert_eq!(succ.find_mode(&[], true), Some(0));
    }

    #[test]
    fn invariant_visibility() {
        let (table, _) = table_for(NAT_SRC);
        // From the outside, ZNat exposes only the Nat interface invariant.
        let public_view = table.visible_invariants("ZNat", false);
        assert_eq!(public_view.len(), 1);
        // When verifying ZNat itself, the private invariant joins in.
        let private_view = table.visible_invariants("ZNat", true);
        assert_eq!(private_view.len(), 2);
    }

    #[test]
    fn field_types_resolve() {
        let (table, _) = table_for(NAT_SRC);
        assert_eq!(table.field_type("ZNat", "val"), Some(Type::Int));
        assert_eq!(
            table.field_type("PSucc", "pred"),
            Some(Type::Named("Nat".into()))
        );
        assert_eq!(table.field_type("PZero", "whatever"), None);
    }

    #[test]
    fn overlap_analysis() {
        let (table, _) = table_for(NAT_SRC);
        // Unrelated concrete classes never overlap.
        assert!(!table.types_may_overlap("ZNat", "PZero"));
        // A class overlaps its interface.
        assert!(table.types_may_overlap("ZNat", "Nat"));
        assert!(table.types_may_overlap("Nat", "PSucc"));
        // Everything overlaps Object.
        assert!(table.types_may_overlap("ZNat", "Object"));
    }

    #[test]
    fn duplicate_types_are_reported() {
        let (_, diags) = table_for("class A { } class A { }");
        assert_eq!(diags.errors.len(), 1);
    }

    #[test]
    fn unknown_supertype_is_reported() {
        let (_, diags) = table_for("class A implements Missing { }");
        assert_eq!(diags.errors.len(), 1);
        assert!(diags.errors[0].message.contains("Missing"));
    }

    #[test]
    fn build_reusing_shares_unchanged_layouts() {
        let program = parse_program(NAT_SRC).unwrap();
        let first = ClassTable::build(&program, &mut Diagnostics::new());
        let second = ClassTable::build_reusing(&program, &mut Diagnostics::new(), &first);
        for ty in first.types() {
            assert!(
                Arc::ptr_eq(
                    first.layout(&ty.name).unwrap(),
                    second.layout(&ty.name).unwrap()
                ),
                "{}: identical layouts must share allocations",
                ty.name
            );
        }
        // After a field rename, only the edited class gets a fresh layout.
        let edited = parse_program(&NAT_SRC.replace("Nat pred;", "Nat prev;")).unwrap();
        let third = ClassTable::build_reusing(&edited, &mut Diagnostics::new(), &first);
        assert!(!Arc::ptr_eq(
            first.layout("PSucc").unwrap(),
            third.layout("PSucc").unwrap()
        ));
        assert!(Arc::ptr_eq(
            first.layout("ZNat").unwrap(),
            third.layout("ZNat").unwrap()
        ));
    }

    #[test]
    fn iterative_modes_are_flagged() {
        let (table, diags) =
            table_for("interface Collection { boolean contains(Object x) iterates(x); }");
        assert!(diags.errors.is_empty());
        let m = table.lookup_method("Collection", "contains").unwrap();
        assert_eq!(m.modes.len(), 2);
        assert!(m.modes[1].iterative);
        assert_eq!(m.modes[1].unknown_params, vec!["x".to_string()]);
    }
}
