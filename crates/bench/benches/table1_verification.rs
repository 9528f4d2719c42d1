//! Criterion bench regenerating the compile-time columns of Table 1 (E2):
//! a full `Workspace` build with and without the verification passes, per
//! corpus row.

use criterion::{criterion_group, criterion_main, Criterion};
use jmatch_runtime::{Program, Workspace};

fn build(source: &str, verify: bool) -> Program {
    Workspace::new()
        .verify(verify)
        .max_expansion_depth(2)
        .verify_threads(1)
        .compile(source)
        .unwrap()
}

fn bench_verification_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_verification");
    group.sample_size(10);
    let fast = [
        "Nat",
        "ZNat",
        "PZero",
        "List",
        "EmptyList",
        "Tree",
        "TreeLeaf",
    ];
    for entry in jmatch_corpus::entries()
        .into_iter()
        .filter(|e| fast.contains(&e.name))
    {
        let source = entry.combined_jmatch();
        group.bench_function(format!("without/{}", entry.name), |b| {
            b.iter(|| build(std::hint::black_box(&source), false))
        });
        group.bench_function(format!("with/{}", entry.name), |b| {
            b.iter(|| build(std::hint::black_box(&source), true))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_millis(800));
    targets = bench_verification_overhead
}
criterion_main!(benches);
