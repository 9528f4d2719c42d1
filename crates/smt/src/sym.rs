//! String interning.
//!
//! Every name that flows through the solver (variable names, uninterpreted
//! function and predicate names, sort names) is interned into a [`Symbol`],
//! a small copyable handle that is cheap to hash and compare.

use crate::hash::IdMap;
use std::collections::hash_map::{Entry, RandomState};
use std::fmt::{self, Write as _};
use std::hash::BuildHasher;

/// An interned string handle.
///
/// Symbols are only meaningful relative to the [`Interner`] (and therefore the
/// [`crate::TermStore`]) that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Raw index of the symbol inside its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner.
///
/// Every name is copied once, onto the end of one text buffer, and hashed
/// once. The table maps a name's std-keyed (`RandomState`) hash to the
/// newest symbol with that hash; older symbols with the same hash are
/// chained behind it, and a lookup compares text only along that chain —
/// the layout of [`crate::TermStore`]'s hash-consing table.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Every name, back to back in symbol order.
    text: String,
    /// Where each symbol's name ends in `text`.
    ends: Vec<u32>,
    hasher: RandomState,
    table: IdMap<u64, Symbol>,
    /// The next older symbol whose name has the same hash.
    same_hash: Vec<Option<Symbol>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing symbol if it was seen before.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let start = self.text.len();
        self.text.push_str(name);
        self.intern_tail(start)
    }

    /// Interns the name `args` formats to, writing it straight into the
    /// text buffer (no intermediate `String`).
    pub(crate) fn intern_fmt(&mut self, args: fmt::Arguments<'_>) -> Symbol {
        let start = self.text.len();
        self.text
            .write_fmt(args)
            .expect("formatting into a String cannot fail");
        self.intern_tail(start)
    }

    /// Interns the name written at `text[start..]`: keeps it as a new
    /// symbol, or truncates it if the name is already interned.
    fn intern_tail(&mut self, start: usize) -> Symbol {
        let hash = self.hasher.hash_one(&self.text[start..]);
        let fresh = Symbol(self.ends.len() as u32);
        let older = match self.table.entry(hash) {
            Entry::Occupied(mut e) => {
                let mut next = Some(*e.get());
                while let Some(sym) = next {
                    if self.text[span(&self.ends, sym)] == self.text[start..] {
                        self.text.truncate(start);
                        return sym;
                    }
                    next = self.same_hash[sym.index()];
                }
                Some(e.insert(fresh))
            }
            Entry::Vacant(e) => {
                e.insert(fresh);
                None
            }
        };
        self.same_hash.push(older);
        self.ends.push(self.text.len() as u32);
        fresh
    }

    /// Returns the string for `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.text[span(&self.ends, sym)]
    }

    /// Looks up a symbol without interning.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        let mut next = self.table.get(&self.hasher.hash_one(name)).copied();
        while let Some(sym) = next {
            if self.resolve(sym) == name {
                return Some(sym);
            }
            next = self.same_hash[sym.index()];
        }
        None
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// The byte range of `sym`'s name in the text buffer.
fn span(ends: &[u32], sym: Symbol) -> std::ops::Range<usize> {
    let start = match sym.index() {
        0 => 0,
        i => ends[i - 1] as usize,
    };
    start..ends[sym.index()] as usize
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("x");
        assert_eq!(a, b);
        assert_eq!(i.resolve(a), "x");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn formatted_names_share_symbols_with_plain_ones() {
        let mut i = Interner::new();
        let a = i.intern("x!1");
        let b = i.intern_fmt(format_args!("{}!{}", "x", 1));
        let c = i.intern_fmt(format_args!("{}!{}", "x", 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.resolve(c), "x!2");
        assert_eq!((i.len(), i.lookup("x!2")), (2, Some(c)));
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.lookup("z").is_none());
        let z = i.intern("z");
        assert_eq!(i.lookup("z"), Some(z));
    }
}
