//! # jmatch-corpus
//!
//! The evaluation corpus of the paper (§7.1, Table 1): each entry pairs a
//! JMatch 2.0 implementation with a functionally equivalent Java
//! implementation, together with the token counts and verification times the
//! paper reports for its own sources. The benchmark harness (`jmatch-bench`)
//! uses these entries to regenerate the Table 1 token-count and
//! verification-time columns.
//!
//! The JMatch sources are written in this repository's dialect and are
//! compiled and verified by `jmatch-core` (their verdicts are pinned by the
//! facade's `tests/corpus_diagnostics.rs`); the Java sources exist only for
//! token counting (the conciseness comparison of §7.2) and are equivalent
//! hand-written implementations, not the paper's original files. The
//! `table1` binary of `jmatch-bench` prints their token counts beside the
//! paper's JMatch/Java ratio, and the README's description of that binary
//! states the substitution.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod java;
pub mod jmatch;

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusEntry {
    /// Row name as it appears in Table 1.
    pub name: &'static str,
    /// The JMatch 2.0 source for this row.
    pub jmatch_source: &'static str,
    /// Sources this row depends on (compiled together, e.g. the interface).
    pub jmatch_deps: &'static [&'static str],
    /// The Java counterpart used for token counting.
    pub java_source: &'static str,
    /// Token count the paper reports for its JMatch 2.0 implementation.
    pub paper_jmatch_tokens: usize,
    /// Token count the paper reports for its Java implementation.
    pub paper_java_tokens: usize,
    /// Compilation time (seconds) without verification, as reported.
    pub paper_time_without: f64,
    /// Compilation time (seconds) with verification, as reported.
    pub paper_time_with: f64,
}

impl CorpusEntry {
    /// The full JMatch program for this entry (dependencies + the entry).
    pub fn combined_jmatch(&self) -> String {
        let mut out = String::new();
        for dep in self.jmatch_deps {
            out.push_str(dep);
            out.push('\n');
        }
        out.push_str(self.jmatch_source);
        out
    }
}

/// All corpus entries, in Table 1 order.
pub fn entries() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "Nat",
            jmatch_source: jmatch::NAT_INTERFACE,
            jmatch_deps: &[],
            java_source: java::NAT_INTERFACE,
            paper_jmatch_tokens: 41,
            paper_java_tokens: 29,
            paper_time_without: 0.100,
            paper_time_with: 0.104,
        },
        CorpusEntry {
            name: "PZero",
            jmatch_source: jmatch::PZERO,
            jmatch_deps: &[jmatch::NAT_INTERFACE],
            java_source: java::PZERO,
            paper_jmatch_tokens: 85,
            paper_java_tokens: 189,
            paper_time_without: 0.258,
            paper_time_with: 0.331,
        },
        CorpusEntry {
            name: "PSucc",
            jmatch_source: jmatch::PSUCC,
            jmatch_deps: &[jmatch::NAT_INTERFACE],
            java_source: java::PSUCC,
            paper_jmatch_tokens: 98,
            paper_java_tokens: 226,
            paper_time_without: 0.280,
            paper_time_with: 0.435,
        },
        CorpusEntry {
            name: "ZNat",
            jmatch_source: jmatch::ZNAT,
            jmatch_deps: &[jmatch::NAT_INTERFACE],
            java_source: java::ZNAT,
            paper_jmatch_tokens: 161,
            paper_java_tokens: 319,
            paper_time_without: 0.377,
            paper_time_with: 0.459,
        },
        CorpusEntry {
            name: "List",
            jmatch_source: jmatch::LIST_INTERFACE,
            jmatch_deps: &[],
            java_source: java::LIST_INTERFACE,
            paper_jmatch_tokens: 114,
            paper_java_tokens: 91,
            paper_time_without: 0.129,
            paper_time_with: 0.123,
        },
        CorpusEntry {
            name: "EmptyList",
            jmatch_source: jmatch::EMPTY_LIST,
            jmatch_deps: &[jmatch::LIST_INTERFACE],
            java_source: java::EMPTY_LIST,
            paper_jmatch_tokens: 164,
            paper_java_tokens: 455,
            paper_time_without: 0.416,
            paper_time_with: 0.510,
        },
        CorpusEntry {
            name: "ConsList",
            jmatch_source: jmatch::CONS_LIST,
            jmatch_deps: &[jmatch::LIST_INTERFACE, jmatch::EMPTY_LIST],
            java_source: java::CONS_LIST,
            paper_jmatch_tokens: 309,
            paper_java_tokens: 1007,
            paper_time_without: 0.807,
            paper_time_with: 2.47,
        },
        CorpusEntry {
            name: "SnocList",
            jmatch_source: jmatch::SNOC_LIST,
            jmatch_deps: &[
                jmatch::LIST_INTERFACE,
                jmatch::EMPTY_LIST,
                jmatch::CONS_LIST,
            ],
            java_source: java::SNOC_LIST,
            paper_jmatch_tokens: 311,
            paper_java_tokens: 1006,
            paper_time_without: 1.05,
            paper_time_with: 3.36,
        },
        CorpusEntry {
            name: "ArrList",
            jmatch_source: jmatch::ARR_LIST,
            jmatch_deps: &[
                jmatch::LIST_INTERFACE,
                jmatch::EMPTY_LIST,
                jmatch::CONS_LIST,
            ],
            java_source: java::ARR_LIST,
            paper_jmatch_tokens: 473,
            paper_java_tokens: 1208,
            paper_time_without: 0.864,
            paper_time_with: 1.90,
        },
        CorpusEntry {
            name: "Expr",
            jmatch_source: jmatch::EXPR_INTERFACE,
            jmatch_deps: &[],
            java_source: java::EXPR_INTERFACE,
            paper_jmatch_tokens: 96,
            paper_java_tokens: 80,
            paper_time_without: 0.710,
            paper_time_with: 0.846,
        },
        CorpusEntry {
            name: "Variable",
            jmatch_source: jmatch::VARIABLE,
            jmatch_deps: &[jmatch::EXPR_INTERFACE],
            java_source: java::VARIABLE,
            paper_jmatch_tokens: 192,
            paper_java_tokens: 434,
            paper_time_without: 0.689,
            paper_time_with: 0.852,
        },
        CorpusEntry {
            name: "Lambda",
            jmatch_source: jmatch::LAMBDA,
            jmatch_deps: &[jmatch::EXPR_INTERFACE],
            java_source: java::LAMBDA,
            paper_jmatch_tokens: 239,
            paper_java_tokens: 500,
            paper_time_without: 1.20,
            paper_time_with: 1.52,
        },
        CorpusEntry {
            name: "Apply",
            jmatch_source: jmatch::APPLY,
            jmatch_deps: &[jmatch::EXPR_INTERFACE],
            java_source: java::APPLY,
            paper_jmatch_tokens: 232,
            paper_java_tokens: 506,
            paper_time_without: 1.15,
            paper_time_with: 2.31,
        },
        CorpusEntry {
            name: "CPS",
            jmatch_source: jmatch::CPS,
            jmatch_deps: &[
                jmatch::EXPR_INTERFACE,
                jmatch::VARIABLE,
                jmatch::LAMBDA,
                jmatch::APPLY,
            ],
            java_source: java::CPS,
            paper_jmatch_tokens: 325,
            paper_java_tokens: 1279,
            paper_time_without: 7.88,
            paper_time_with: 8.37,
        },
        CorpusEntry {
            name: "Tree",
            jmatch_source: jmatch::TREE_INTERFACE,
            jmatch_deps: &[],
            java_source: java::TREE_INTERFACE,
            paper_jmatch_tokens: 114,
            paper_java_tokens: 69,
            paper_time_without: 0.165,
            paper_time_with: 0.170,
        },
        CorpusEntry {
            name: "TreeLeaf",
            jmatch_source: jmatch::TREE_LEAF,
            jmatch_deps: &[jmatch::TREE_INTERFACE],
            java_source: java::TREE_LEAF,
            paper_jmatch_tokens: 124,
            paper_java_tokens: 351,
            paper_time_without: 0.420,
            paper_time_with: 0.510,
        },
        CorpusEntry {
            name: "TreeBranch",
            jmatch_source: jmatch::TREE_BRANCH,
            jmatch_deps: &[jmatch::TREE_INTERFACE],
            java_source: java::TREE_BRANCH,
            paper_jmatch_tokens: 202,
            paper_java_tokens: 553,
            paper_time_without: 0.529,
            paper_time_with: 0.682,
        },
        CorpusEntry {
            name: "AVLTree",
            jmatch_source: jmatch::AVL_TREE,
            jmatch_deps: &[
                jmatch::TREE_INTERFACE,
                jmatch::TREE_LEAF,
                jmatch::TREE_BRANCH,
            ],
            java_source: java::AVL_TREE,
            paper_jmatch_tokens: 535,
            paper_java_tokens: 720,
            paper_time_without: 2.17,
            paper_time_with: 18.7,
        },
    ]
}

/// Looks up an entry by its Table 1 row name.
pub fn entry(name: &str) -> Option<CorpusEntry> {
    entries().into_iter().find(|e| e.name == name)
}

/// The Table 1 rows the paper evaluates that are *not* reproduced by this
/// corpus (the typed lambda calculus / type inference classes and the Java
/// collections-framework conversions). They are listed here so the `table1`
/// binary of `jmatch-bench` can report the gap explicitly (it prints them
/// after the table) instead of padding the corpus with stubs.
pub const UNREPRODUCED_ROWS: &[&str] = &[
    "TypedLambda",
    "Type",
    "BaseType",
    "ArrowType",
    "UnknownType",
    "Environment",
    "ArrayList",
    "LinkedList",
    "HashMap",
    "TreeMap",
];

#[cfg(test)]
mod tests {
    use super::*;
    use jmatch_syntax::count_tokens;

    #[test]
    fn every_java_counterpart_tokenizes() {
        for e in entries() {
            let n = count_tokens(e.java_source)
                .unwrap_or_else(|err| panic!("{} Java source fails to lex: {err}", e.name));
            assert!(n > 0, "{} Java counterpart is empty", e.name);
        }
    }

    #[test]
    fn jmatch_is_more_concise_than_java_for_implementations() {
        // The paper's headline (§7.2): implementations (not the interfaces,
        // which carry the extra specification tokens) are considerably shorter
        // in JMatch than in Java.
        let mut shorter = 0;
        let mut total = 0;
        for e in entries() {
            if e.jmatch_deps.is_empty() {
                continue;
            }
            let jm = count_tokens(e.jmatch_source).unwrap();
            let java = count_tokens(e.java_source).unwrap();
            total += 1;
            if jm < java {
                shorter += 1;
            }
        }
        assert!(total >= 10);
        assert!(
            shorter * 10 >= total * 8,
            "expected at least 80% of implementations to be shorter in JMatch ({shorter}/{total})"
        );
    }

    #[test]
    fn paper_numbers_are_recorded_for_every_row() {
        for e in entries() {
            assert!(e.paper_jmatch_tokens > 0 && e.paper_java_tokens > 0);
            assert!(e.paper_time_with >= e.paper_time_without * 0.9);
        }
        assert_eq!(entries().len() + UNREPRODUCED_ROWS.len(), 28);
    }

    #[test]
    fn entry_lookup_by_name() {
        assert!(entry("CPS").is_some());
        assert!(entry("Nope").is_none());
    }
}
