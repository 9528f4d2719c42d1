//! Criterion bench proving the incremental-session win: verifying the
//! Table 1 corpus through [`jmatch_core::VerifyEngine`]'s **per-method
//! incremental sessions** (`push`/`pop` per VC query, persistent term
//! store, lemma replay, canonical-formula result cache) versus rebuilding
//! the solver and expander for **every individual VC query** (the
//! pre-incremental architecture).
//!
//! Before timing, both modes must produce identical diagnostics on every
//! corpus row. `corpus/*` measures whole-corpus verification throughput —
//! the headline comparison — and the per-row functions break the same
//! comparison down for the expansion-heavy entries where session reuse
//! matters most.

use criterion::{criterion_group, criterion_main, Criterion};
use jmatch_bench::{resolve, verify_fresh_per_query, verify_incremental};

fn bench_incremental_vs_fresh(c: &mut Criterion) {
    let tables: Vec<_> = jmatch_corpus::entries()
        .iter()
        .map(|e| (e.name, resolve(&e.combined_jmatch())))
        .collect();

    // The oracle: session reuse must not change a single verdict.
    for (name, table) in &tables {
        assert_eq!(
            verify_incremental(table, 2),
            verify_fresh_per_query(table, 2),
            "{name}: incremental sessions and fresh-per-query disagree"
        );
    }

    let mut group = c.benchmark_group("incremental_vs_fresh");
    group.sample_size(10);

    // Whole-corpus verification throughput, the headline number: the
    // incremental session must be at least as fast as fresh-per-query.
    group.bench_function("corpus/incremental", |b| {
        b.iter(|| {
            for (_, table) in &tables {
                std::hint::black_box(verify_incremental(table, 2));
            }
        })
    });
    group.bench_function("corpus/fresh_per_query", |b| {
        b.iter(|| {
            for (_, table) in &tables {
                std::hint::black_box(verify_fresh_per_query(table, 2));
            }
        })
    });

    // Per-row breakdown on the expansion-heavy entries.
    for name in ["ConsList", "SnocList", "CPS", "TreeBranch", "AVLTree"] {
        let table = &tables
            .iter()
            .find(|(n, _)| *n == name)
            .expect("corpus row exists")
            .1;
        group.bench_function(format!("incremental/{name}"), |b| {
            b.iter(|| std::hint::black_box(verify_incremental(table, 2)))
        });
        group.bench_function(format!("fresh_per_query/{name}"), |b| {
            b.iter(|| std::hint::black_box(verify_fresh_per_query(table, 2)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_millis(800));
    targets = bench_incremental_vs_fresh
}
criterion_main!(benches);
