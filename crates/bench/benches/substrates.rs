//! Substrate benchmarks: the building blocks the paper's pipeline rests on —
//! Voronoi construction (sequential and parallel), Delaunay triangulation,
//! and the kd-tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use molq_bench::experiments::{bounds, SEED};
use molq_datagen::geonames::synthetic_layer;
use molq_datagen::GeoLayer;
use molq_index::KdTree;
use molq_voronoi::{Delaunay, OrdinaryVoronoi};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrates");
    g.sample_size(10);

    for n in [5_000usize, 20_000] {
        let pts = synthetic_layer(GeoLayer::Streams, n, bounds(), SEED);
        g.bench_with_input(BenchmarkId::new("voronoi_build", n), &pts, |b, pts| {
            b.iter(|| OrdinaryVoronoi::build(pts, bounds()).unwrap())
        });
        g.bench_with_input(
            BenchmarkId::new("voronoi_build_parallel4", n),
            &pts,
            |b, pts| b.iter(|| OrdinaryVoronoi::build_parallel(pts, bounds(), 4).unwrap()),
        );
        g.bench_with_input(BenchmarkId::new("delaunay_build", n), &pts, |b, pts| {
            b.iter(|| Delaunay::build(pts).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("kdtree_build", n), &pts, |b, pts| {
            b.iter(|| KdTree::from_points(pts))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
