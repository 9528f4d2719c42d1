//! Ablation bench (E5): how the iterative-deepening expansion bound (§6.2)
//! affects verification time on the recursive corpus entries.

use criterion::{criterion_group, criterion_main, Criterion};
use jmatch_runtime::Workspace;

fn bench_depth_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_depth");
    group.sample_size(10);
    for name in ["Nat", "ZNat", "List", "TreeLeaf"] {
        let entry = jmatch_corpus::entry(name).expect("corpus entry");
        let source = entry.combined_jmatch();
        for depth in [1u32, 2, 3] {
            group.bench_function(format!("{name}/depth{depth}"), |b| {
                b.iter(|| {
                    Workspace::new()
                        .max_expansion_depth(depth)
                        .verify_threads(1)
                        .compile(std::hint::black_box(&source))
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_millis(800));
    targets = bench_depth_ablation
}
criterion_main!(benches);
