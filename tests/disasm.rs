//! Golden-text tests for the bytecode disassembler.
//!
//! The disassembly is a public, stable surface (`Program::disasm`): these
//! pins catch accidental changes to instruction selection — a lost
//! superinstruction, a regressed unify-mode analysis, or a switch that
//! stopped compiling to a jump table shows up as a text diff here long
//! before it shows up on a benchmark.

use jmatch::corpus;
use jmatch::Workspace;

fn program(src: &str) -> jmatch::Program {
    Workspace::new().verify(false).compile(src).expect("parse")
}

/// `ZNat.succ` is Figure 3's binary-representation successor: one body,
/// two mode-specialized forms. The pins document what the static unify-mode
/// analysis is expected to prove — forward mode knows `val` and emits a
/// match-eval unification (`me`: solve the pattern side against the
/// evaluated right side); matching mode cannot direct the same equation
/// statically and keeps it dynamic (`dyn`).
#[test]
fn znat_succ_disassembles_to_pinned_text() {
    let entry = corpus::entry("ZNat").unwrap();
    let program = program(entry.jmatch_source);
    let text = program.disasm(Some("ZNat"), "succ").unwrap();
    // Note every `-> next` address is smaller than the pc holding it: the
    // threaded form is emitted right-to-left, which is what lets both
    // engines chase continuations inline without a termination check.
    let expected = "\
; ZNat.succ [forward]
entry: 2
   0: emit
   1: cmp val@2 >= 1 -> 0
   2: unify.me ZNat((val@2 - 1)) = n@0 -> 1
; ZNat.succ [matching]
entry: 2
   0: emit
   1: unify.dyn ZNat((val@2 - 1)) = n@0 -> 0
   2: cmp val@2 >= 1 -> 1
";
    assert_eq!(text, expected, "ZNat.succ bytecode drifted:\n{text}");
}

#[test]
fn arrlist_tocons_block_disassembles_to_pinned_text() {
    let entry = corpus::entry("ArrList").unwrap();
    let mut src = String::new();
    for dep in entry.jmatch_deps {
        src.push_str(dep);
    }
    src.push_str(entry.jmatch_source);
    let program = program(&src);
    let text = program.disasm(Some("ArrList"), "toCons").unwrap();
    // The body is the corpus's hot imperative shape: the two declarations
    // fall back to statement plans, then the `while` becomes a native
    // counted loop — condition as a fused compare-and-branch, accumulator
    // and index as register arithmetic, and only the constructor call
    // leaving the register file.
    let expected = "\
; ArrList.toCons [block]
regs: 3  guards: 1
   0: stmt#0
   1: stmt#1
   2: guard 0 = 0
   3: r0 = slot 2 (i)
   4: r1 = slot 3 (count)
   5: if !(r0 < r1) jmp 15
   6: r1 = eval elems@5[i@2]
   7: r2 = slot 0 (out)
   8: r0 = call plan#15 (r1..+2)
   9: slot 0 = r0
  10: r1 = slot 2 (i)
  11: r2 = const 1
  12: r0 = r1 + r2
  13: slot 2 = r0
  14: loop 3 (guard 0)
  15: r0 = slot 0 (out)
  16: ret r0
  17: end
";
    assert_eq!(text, expected, "ArrList.toCons bytecode drifted:\n{text}");
}

/// Negation and run-time scheduled conjunctions compile to in-stream
/// sub-chains that end at the shared pc-0 `emit`: `not` names the negated
/// chain's entry, `dynseq` one entry per conjunct in source order.
#[test]
fn negation_and_dynamic_conjunctions_disassemble_to_inline_chains() {
    let program = program(
        "class S {
             int v;
             boolean odd(int x) iterates(x) ( x = v && !(x = 2 * (x / 2)) )
             boolean sched(int k, int x) iterates(x) ( (y = k || true) && int z = y + 1 && y = 5 && x = z )
         }",
    );
    let text = program.disasm(Some("S"), "odd").unwrap();
    let expected = "\
; S.odd [forward]
entry: 3
   0: emit
   1: unify.ee x@0 = (2 * (x@0 / 2)) -> 0
   2: not 1 -> 0
   3: unify.dyn x@0 = v@2 -> 2
; S.odd [matching]
entry: 3
   0: emit
   1: unify.dyn x@0 = (2 * (x@0 / 2)) -> 0
   2: not 1 -> 0
   3: unify.dyn x@0 = v@2 -> 2
";
    assert_eq!(text, expected, "S.odd bytecode drifted:\n{text}");
    // Forward mode cannot pin the order (`y` is bound on one branch of the
    // disjunction only), so the conjunction is scheduled at run time: four
    // item chains, the first holding the disjunction's own choice, and
    // every unification inside them left dynamic. Matching mode schedules
    // statically.
    let text = program.disasm(Some("S"), "sched").unwrap();
    let expected = "\
; S.sched [forward]
entry: 6
   0: emit
   1: unify.dyn x@1 = z@5 -> 0
   2: unify.dyn y@4 = 5 -> 0
   3: unify.dyn decl@5 = (y@4 + 1) -> 0
   4: unify.dyn y@4 = k@0 -> 0
   5: choice [4, 0]
   6: dynseq [5, 3, 2, 1] -> 0
; S.sched [matching]
entry: 5
   0: emit
   1: unify.me x@1 = z@5 -> 0
   2: unify.me decl@5 = (y@4 + 1) -> 1
   3: unify.em y@4 = k@0 -> 2
   4: choice [3, 2]
   5: unify.me y@4 = 5 -> 4
";
    assert_eq!(text, expected, "S.sched bytecode drifted:\n{text}");
}
