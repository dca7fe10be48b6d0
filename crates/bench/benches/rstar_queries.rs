//! Criterion micro-benchmarks for the R*-tree alarm index: point queries
//! (the per-location-update trigger check) and range queries (the per-cell
//! alarm gathering for safe-region computation), at the paper's 10,000
//! alarm scale, and the STR bulk load that builds the tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sa_alarms::{AlarmIndex, AlarmSnapshot, AlarmWorkload, SubscriberId, WorkloadConfig};
use sa_geometry::{Point, Rect};
use sa_index::RStarTree;
use std::hint::black_box;

fn paper_index() -> AlarmSnapshot {
    let workload = AlarmWorkload::generate(&WorkloadConfig::default());
    AlarmSnapshot::from(AlarmIndex::build(workload.alarms().to_vec()))
}

fn bench_point_queries(c: &mut Criterion) {
    let index = paper_index();
    let mut rng = SmallRng::seed_from_u64(17);
    let points: Vec<Point> = (0..512)
        .map(|_| Point::new(rng.gen_range(0.0..31_623.0), rng.gen_range(0.0..31_623.0)))
        .collect();
    c.bench_function("rstar/point_query_10k_alarms", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % points.len();
            let mut hits = 0usize;
            index.relevant_at_visit(SubscriberId(42), black_box(points[i]), |_| hits += 1);
            black_box(hits)
        })
    });
}

fn bench_range_queries(c: &mut Criterion) {
    let index = paper_index();
    let mut group = c.benchmark_group("rstar/range_query_10k_alarms");
    for cell_km2 in [0.4, 2.5, 10.0] {
        let side = (cell_km2 * 1.0e6f64).sqrt();
        let mut rng = SmallRng::seed_from_u64(23);
        let cells: Vec<Rect> = (0..256)
            .map(|_| {
                let x = rng.gen_range(0.0..31_623.0 - side);
                let y = rng.gen_range(0.0..31_623.0 - side);
                Rect::new(x, y, x + side, y + side).unwrap()
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("cell_km2", format!("{cell_km2}")),
            &cells,
            |b, cells| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) % cells.len();
                    let hits = index.relevant_intersecting(SubscriberId(42), black_box(cells[i]));
                    black_box(hits.len())
                })
            },
        );
    }
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(31);
    let entries: Vec<(Rect, usize)> = (0..10_000)
        .map(|_| {
            let x = rng.gen_range(0.0..31_000.0);
            let y = rng.gen_range(0.0..31_000.0);
            Rect::new(x, y, x + rng.gen_range(50.0..500.0), y + rng.gen_range(50.0..500.0))
                .unwrap()
        })
        .enumerate()
        .map(|(i, r)| (r, i))
        .collect();
    c.bench_function("rstar/build_10k", |b| {
        b.iter(|| black_box(RStarTree::bulk_load(entries.clone()).len()))
    });
}

criterion_group!(benches, bench_point_queries, bench_range_queries, bench_build);
criterion_main!(benches);
