//! Bytecode is the only executable plan form: every goal the engines can
//! reach carries its compiled body. This walks whole plans — every solved
//! form (forward, matching, `equals`-bound, and standalone forms lowered
//! at query time), every imperative block and the statement goals in its
//! goal pool, and every `where` refinement inside the expressions the
//! compiled streams pool — and requires pass 4's output on each.

use jmatch::core::bytecode::{BcBlock, BcBody, SInstr};
use jmatch::core::lower::{
    lower_standalone, BodyPlan, Goal, GoalPlan, PExpr, ProgramPlan, SolvedForm,
};
use jmatch::syntax::ast::MethodBody;
use jmatch::Workspace;

/// Goal positions the corpus does not use: `where` at the top of a pattern
/// and nested in constructor arguments, negation, a run-time scheduled
/// conjunction, and `let` / `foreach` / `while` over non-comparison goals.
const EXTRA: &str = r#"
    interface List {
        constructor nil() returns();
        constructor cons(int h, List t) returns(h, t);
        boolean rising(int a, int b) iterates(a, b);
    }
    class Nil implements List {
        constructor nil() returns() ( true )
        constructor cons(int h, List t) returns(h, t) ( false )
        boolean rising(int a, int b) iterates(a, b) ( false )
    }
    class Cons implements List {
        int head;
        List tail;
        constructor nil() returns() ( false )
        constructor cons(int h, List t) returns(h, t) ( head = h && tail = t )
        boolean rising(int a, int b) iterates(a, b)
            ( cons(a, cons(int c where (c > a && !(c = a + 1)), _)) && b = c
              || tail.rising(a, b) )
    }
    static int classify(List l) {
        switch (l) {
            case cons(int h, cons(int k where (k > h), _)) where (!(h = 0)): return 3;
            default: return 0;
        }
    }
    static int walk(List l) {
        int n = 0;
        List cur = l;
        let (cur = cons(int first, _));
        while (cur = cons(int h, List rest)) { n = n * 10 + h; cur = rest; }
        foreach ((y = first || true) && int x = y + 1 && y = 5) { n = n + x; }
        return n;
    }
"#;

#[derive(Default)]
struct Census {
    forms: usize,
    blocks: usize,
    goals: usize,
    wheres: usize,
}

impl Census {
    fn body(&mut self, bc: &BcBody, at: &str) {
        for e in &bc.exprs {
            self.expr(e, at);
        }
    }

    fn form(&mut self, form: &SolvedForm, at: &str) {
        self.forms += 1;
        let bc = form
            .bc
            .as_ref()
            .unwrap_or_else(|| panic!("{at}: form has no bytecode"));
        self.goal(&form.goal, at);
        self.body(bc, at);
    }

    fn goal_plan(&mut self, gp: &GoalPlan, at: &str) {
        self.goals += 1;
        let bc = gp
            .bc
            .as_ref()
            .unwrap_or_else(|| panic!("{at}: goal has no bytecode"));
        self.goal(&gp.goal, at);
        self.body(bc, at);
    }

    fn goal(&mut self, g: &Goal, at: &str) {
        match g {
            Goal::Seq(gs) | Goal::Any(gs) => gs.iter().for_each(|g| self.goal(g, at)),
            // Readiness checks only test groundness: a `where` inside one
            // never runs, so it needs no bytecode.
            Goal::DynSeq(items) => items.iter().for_each(|(_, g)| self.goal(g, at)),
            Goal::Not(g) => self.goal(g, at),
            Goal::Unify(a, b) | Goal::Compare(_, a, b) => {
                self.expr(a, at);
                self.expr(b, at);
            }
            Goal::Invoke { receiver, args, .. } => {
                receiver.iter().chain(args).for_each(|e| self.expr(e, at))
            }
            Goal::Test(e) => self.expr(e, at),
            Goal::True | Goal::Fail | Goal::Trivial => {}
        }
    }

    fn expr(&mut self, e: &PExpr, at: &str) {
        match e {
            PExpr::Where(p, g) => {
                self.wheres += 1;
                self.expr(p, at);
                self.goal_plan(g, at);
            }
            PExpr::Field(a, _, _) | PExpr::NewArray(_, a) | PExpr::Neg(a) => self.expr(a, at),
            PExpr::Index(a, b) | PExpr::Binary(_, a, b) | PExpr::As(a, b) | PExpr::OrPat(a, b) => {
                self.expr(a, at);
                self.expr(b, at);
            }
            PExpr::Call { receiver, args, .. } => {
                receiver.iter().for_each(|r| self.expr(r, at));
                args.iter().for_each(|a| self.expr(a, at));
            }
            PExpr::Tuple(xs) => xs.iter().for_each(|x| self.expr(x, at)),
            _ => {}
        }
    }

    fn block(&mut self, bc: &Option<BcBlock>, at: &str) {
        self.blocks += 1;
        let bc = bc
            .as_ref()
            .unwrap_or_else(|| panic!("{at}: block has no bytecode"));
        // Every statement goal the code names is a compiled body in the
        // block's goal pool.
        for i in &bc.code {
            if let SInstr::Solve { goal, .. }
            | SInstr::Foreach { goal, .. }
            | SInstr::Scope {
                goal: Some(goal), ..
            } = i
            {
                assert!((*goal as usize) < bc.goals.len(), "{at}: goal#{goal}");
            }
        }
        for g in &bc.goals {
            self.goals += 1;
            self.body(g, at);
        }
        bc.exprs.iter().for_each(|e| self.expr(e, at));
    }

    fn plan(&mut self, plan: &ProgramPlan, program: &str) {
        for mp in plan.methods() {
            let at = format!("{program}: {}", mp.info.qualified_name());
            match &mp.body {
                BodyPlan::Formula {
                    forward,
                    matching,
                    equals_bound,
                } => {
                    for form in [forward, matching].into_iter().chain(equals_bound) {
                        self.form(form, &at);
                    }
                }
                BodyPlan::Block(bp) => self.block(&bp.bc, &at),
                BodyPlan::Absent => {}
            }
            // The standalone form `MethodRef::iterate` lowers at query time.
            if let MethodBody::Formula(f) = &mp.info.decl.body {
                let this = (mp.info.owner != "<toplevel>").then_some(mp.info.owner.as_str());
                self.form(&lower_standalone(plan, f, &[], this), &at);
            }
        }
    }
}

#[test]
fn every_plan_runs_as_bytecode_only() {
    let mut census = Census::default();
    let mut sources: Vec<(String, String)> = jmatch::corpus::entries()
        .iter()
        .map(|e| (e.name.to_owned(), e.combined_jmatch()))
        .collect();
    sources.push(("goal positions".to_owned(), EXTRA.to_owned()));
    for (name, src) in &sources {
        let program = Workspace::new().verify(false).compile(src).unwrap();
        assert!(program.diagnostics().errors.is_empty(), "{name}");
        census.plan(program.plan(), name);
    }
    // The walk must have met every kind of position it checks.
    assert!(census.forms > 100, "{} forms", census.forms);
    assert!(census.blocks > 10, "{} blocks", census.blocks);
    assert!(
        census.goals > 10,
        "{} statement / where goals",
        census.goals
    );
    assert!(census.wheres >= 6, "{} where goals", census.wheres);
}
