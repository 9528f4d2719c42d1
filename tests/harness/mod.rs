//! Shared differential-testing harness: a generic workload that drives a
//! compiled [`Program`] through constructions, lazy deconstruction
//! queries, constructor predicates, the deep-equality matrix, and forward
//! calls with synthesized arguments, recording every operation and its
//! outcome as a transcript line. Two programs agree iff their transcripts
//! are identical line by line — `tests/differential.rs` compares the plan
//! engine with the tree-walking oracle, `tests/incremental.rs` compares
//! incremental generations with scratch builds.

use jmatch::core::table::ClassTable;
use jmatch::runtime::RtResult;
use jmatch::syntax::ast::{MethodKind, Type};
use jmatch::{Program, Value};

const MAX_POOL: usize = 24;

/// Deterministically synthesizes an argument of the given type: small
/// integers by round, the most recently constructed suitable object for
/// reference types, `null` when nothing fits.
fn synth(ty: &Type, round: i64, pool: &[Value], table: &ClassTable) -> Value {
    match ty {
        Type::Int => Value::Int(round),
        Type::Boolean => Value::Bool(round % 2 == 0),
        Type::Named(t) => pool
            .iter()
            .rev()
            .find(|v| v.class().map(|c| table.is_subtype(c, t)).unwrap_or(false))
            .cloned()
            .unwrap_or(Value::Null),
        Type::Object => pool.last().cloned().unwrap_or(Value::Null),
        _ => Value::Null,
    }
}

fn row_text(rows: &[Vec<Value>]) -> String {
    rows.iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(Value::to_string).collect();
            format!("[{}]", cells.join(","))
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Deconstructs `v` through the query API, as ordered rows.
fn deconstruct_rows(program: &Program, v: &Value, ctor: &str) -> RtResult<Vec<Vec<Value>>> {
    program
        .deconstruct(v, ctor)
        .and_then(|q| q.try_collect_rows())
}

/// Phase 1 of the workload: constructs instances of every concrete class
/// with every constructor, three rounds deep so recursive structures build
/// up, logging each construction. Returns the pool of constructed objects
/// the later phases drive.
pub fn construct_pool(program: &Program, log: &mut Vec<String>) -> Vec<Value> {
    let table = &**program.table();
    let mut pool: Vec<Value> = Vec::new();
    let classes: Vec<String> = table
        .types()
        .filter(|t| !t.is_interface && !t.is_abstract)
        .map(|t| t.name.clone())
        .collect();
    for round in 0..3i64 {
        for class in &classes {
            let ctors: Vec<_> = table
                .type_info(class)
                .unwrap()
                .methods
                .iter()
                .filter(|m| m.decl.kind != MethodKind::Method)
                .map(|m| (m.decl.name.clone(), m.decl.params.clone()))
                .collect();
            for (ctor, params) in ctors {
                let arg_values: Vec<Value> = params
                    .iter()
                    .map(|p| synth(&p.ty, round, &pool, table))
                    .collect();
                let outcome = program
                    .ctor(class, &ctor)
                    .and_then(|c| c.construct(arg_values));
                match outcome {
                    Ok(v) => {
                        log.push(format!("construct {class}.{ctor} r{round} -> {v}"));
                        if matches!(v, Value::Obj(_)) && pool.len() < MAX_POOL {
                            pool.push(v);
                        }
                    }
                    Err(e) => log.push(format!("construct {class}.{ctor} r{round} -> err {e}")),
                }
            }
        }
    }
    pool
}

/// Every named constructor of the program, each name once, in
/// declaration order.
pub fn named_ctors(table: &ClassTable) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for t in table.types() {
        for m in &t.methods {
            if m.decl.kind == MethodKind::NamedConstructor && !names.contains(&m.decl.name) {
                names.push(m.decl.name.clone());
            }
        }
    }
    names
}

/// Runs the generic workload, recording every operation and its outcome.
pub fn transcript(program: &Program) -> Vec<String> {
    let table = &**program.table();
    let mut log = Vec::new();
    let pool = construct_pool(program, &mut log);
    let ctor_names = named_ctors(table);

    // Phase 2: backward mode — deconstruct every pooled value with every
    // named constructor through the lazy query API, capturing solution rows
    // in enumeration order, and probe the constructor predicates.
    for (i, v) in pool.iter().enumerate() {
        for name in &ctor_names {
            match deconstruct_rows(program, v, name) {
                Ok(rows) => log.push(format!("deconstruct #{i} {name} -> {}", row_text(&rows))),
                Err(e) => log.push(format!("deconstruct #{i} {name} -> err {e}")),
            }
            match program.matches(v, name) {
                Ok(b) => log.push(format!("matches #{i} {name} -> {b}")),
                Err(e) => log.push(format!("matches #{i} {name} -> err {e}")),
            }
        }
    }

    // Phase 3: the deep-equality matrix (exercises equality constructors
    // across implementations, §3.2).
    for i in 0..pool.len() {
        for j in 0..pool.len() {
            match program.values_equal(&pool[i], &pool[j]) {
                Ok(b) => log.push(format!("equal #{i} #{j} -> {b}")),
                Err(e) => log.push(format!("equal #{i} #{j} -> err {e}")),
            }
        }
    }

    // Phase 4: forward mode — every (ordinary) method reachable from each
    // pooled value through a resolved `MethodRef`, with synthesized
    // arguments.
    for (i, v) in pool.iter().enumerate() {
        let Some(class) = v.class().map(str::to_owned) else {
            continue;
        };
        let mut names: Vec<(String, Vec<Type>)> = Vec::new();
        collect_methods(table, &class, &mut names);
        for (name, param_tys) in names {
            for round in 0..2i64 {
                let arg_values: Vec<Value> = param_tys
                    .iter()
                    .map(|t| synth(t, round, &pool, table))
                    .collect();
                let outcome = program
                    .method(&class, &name)
                    .and_then(|m| m.call(Some(v), arg_values));
                match outcome {
                    Ok(out) => log.push(format!("call #{i}.{name} r{round} -> {out}")),
                    Err(e) => log.push(format!("call #{i}.{name} r{round} -> err {e}")),
                }
            }
        }
    }

    // Phase 5: free-standing methods.
    let free: Vec<(String, Vec<Type>)> = table
        .free_methods()
        .iter()
        .map(|m| {
            (
                m.decl.name.clone(),
                m.decl.params.iter().map(|p| p.ty.clone()).collect(),
            )
        })
        .collect();
    for (name, param_tys) in free {
        for round in 0..3i64 {
            let arg_values: Vec<Value> = param_tys
                .iter()
                .map(|t| synth(t, round, &pool, table))
                .collect();
            let outcome = program
                .free_method(&name)
                .and_then(|m| m.call(None, arg_values));
            match outcome {
                Ok(out) => log.push(format!("free {name} r{round} -> {out}")),
                Err(e) => log.push(format!("free {name} r{round} -> err {e}")),
            }
        }
    }
    log
}

/// Ordinary methods visible on a class (the class itself, then supertypes).
fn collect_methods(table: &ClassTable, ty: &str, out: &mut Vec<(String, Vec<Type>)>) {
    let Some(info) = table.type_info(ty) else {
        return;
    };
    for m in &info.methods {
        if m.decl.kind == MethodKind::Method && !out.iter().any(|(n, _)| n == &m.decl.name) {
            out.push((
                m.decl.name.clone(),
                m.decl.params.iter().map(|p| p.ty.clone()).collect(),
            ));
        }
    }
    for sup in &info.supertypes {
        collect_methods(table, sup, out);
    }
}
