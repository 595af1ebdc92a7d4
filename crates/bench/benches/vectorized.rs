//! EXP-V1 — scalar vs blocked pipeline micro-costs: the galloping
//! block merge against the seed's id-at-a-time merge, and the
//! cache-line-blocked Bloom filter against the classic bit array, at
//! 10^4–10^6 ids (payloads in `ghostdb_bench::vectorized`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ghostdb_bench::vectorized::{
    bloom_blocked_filter, bloom_keys, bloom_scalar_filter, bloom_scope, merge_blocked,
    merge_scalar, overlapping_lists, probe_blocked, probe_scalar,
};

fn bench_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("vectorized_merge");
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let (a, b) = overlapping_lists(n, 0.01);
        g.bench_with_input(BenchmarkId::new("scalar", n), &n, |bench, _| {
            bench.iter(|| merge_scalar(&a, &b).expect("merge"))
        });
        g.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| merge_blocked(&a, &b).expect("merge"))
        });
    }
    g.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let mut g = c.benchmark_group("vectorized_bloom_probe");
    let scope = bloom_scope();
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let (members, probes) = bloom_keys(n);
        let scalar_f = bloom_scalar_filter(&members, &scope).expect("bloom");
        let blocked_f = bloom_blocked_filter(&members, &scope).expect("bloom");
        let mut hits = Vec::new();
        g.bench_with_input(BenchmarkId::new("scalar", n), &n, |bench, _| {
            bench.iter(|| probe_scalar(&scalar_f, &probes))
        });
        g.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| probe_blocked(&blocked_f, &probes, &mut hits))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_merge, bench_bloom);
criterion_main!(benches);
