//! Criterion benchmarks of the geometry kernels on the UV-diagram hot path:
//! possible-region clipping, convex hulls, overlap checking and the
//! qualification-probability integration — each scalar reference next to its
//! batched SoA arena counterpart, so the kernel-pass speedup is measured
//! directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uv_core::index::{check_overlap, OverlapConstraints};
use uv_core::{Method, PossibleRegion, UvConfig, UvSystem};
use uv_data::{
    qualification_probabilities, Dataset, DatasetKind, EntryArena, GeneratorConfig, KernelArena,
    ObjectEntry, QuadratureScratch, ScreenScratch, UncertainObject,
};
use uv_geom::{convex_hull, Circle, ClipScratch, Point, Rect};

fn ring_of_circles(n: usize, center: Point, radius: f64) -> Vec<Circle> {
    (0..n)
        .map(|k| {
            let angle = std::f64::consts::TAU * k as f64 / n as f64;
            Circle::new(
                Point::new(
                    center.x + radius * angle.cos(),
                    center.y + radius * angle.sin(),
                ),
                20.0,
            )
        })
        .collect()
}

fn bench_region_clip(c: &mut Criterion) {
    let domain = Rect::square(10_000.0);
    let subject = Circle::new(Point::new(5_000.0, 5_000.0), 20.0);
    let mut group = c.benchmark_group("possible_region_clip");
    for &neighbours in &[8usize, 32, 128] {
        let others = ring_of_circles(neighbours, subject.center, 400.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(neighbours),
            &others,
            |b, others| {
                b.iter(|| {
                    let mut region = PossibleRegion::full(subject, &domain);
                    for o in others {
                        region.clip(*o, 8, 156.0);
                    }
                    std::hint::black_box(region.area())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("scratch", neighbours),
            &others,
            |b, others| {
                b.iter(|| {
                    let mut region = PossibleRegion::full(subject, &domain);
                    let mut scratch = ClipScratch::default();
                    for o in others {
                        region.clip_with(*o, 8, 156.0, &mut scratch);
                    }
                    std::hint::black_box(region.area())
                })
            },
        );
    }
    group.finish();
}

fn bench_convex_hull(c: &mut Criterion) {
    let mut group = c.benchmark_group("convex_hull");
    for &n in &[64usize, 1_024] {
        let points: Vec<Point> = (0..n)
            .map(|k| {
                let a = k as f64 * 0.7;
                Point::new(a.sin() * 500.0 + a, a.cos() * 500.0 - a * 0.3)
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, pts| {
            b.iter(|| std::hint::black_box(convex_hull(pts)))
        });
    }
    group.finish();
}

fn bench_check_overlap(c: &mut Criterion) {
    let subject = Circle::new(Point::new(5_000.0, 5_000.0), 20.0);
    let crs = ring_of_circles(24, subject.center, 300.0);
    let region = Rect::new(6_000.0, 6_000.0, 6_200.0, 6_200.0);
    c.bench_function("check_overlap_4point", |b| {
        b.iter(|| std::hint::black_box(check_overlap(subject, &crs, &region)))
    });
}

/// Phase B's per-member split test on a dense-line subject: four scalar
/// `check_overlap` calls (one per quadrant) against one fused
/// `OverlapConstraints::overlaps_quadrants` call. The subject is the object
/// of the 1,500-object Rrlines stand-in (Table II seed) whose reference set
/// is closest to the mean size; the region is a leaf it belongs to.
fn bench_check_overlap_quadrants(c: &mut Criterion) {
    let ds = Dataset::generate(GeneratorConfig {
        kind: DatasetKind::Rrlines,
        ..GeneratorConfig::paper_uniform(1_500)
    });
    let system = UvSystem::build(
        ds.objects.clone(),
        ds.domain,
        Method::IC,
        UvConfig::default(),
    )
    .unwrap();
    let refs = |o: &UncertainObject| system.object_state(o.id).unwrap().reference_ids();
    let mean = ds.objects.iter().map(|o| refs(o).len()).sum::<usize>() / ds.objects.len();
    let subject = ds
        .objects
        .iter()
        .min_by_key(|o| refs(o).len().abs_diff(mean))
        .unwrap();
    let mbc = subject.mbc();
    let crs: Vec<Circle> = refs(subject)
        .iter()
        .map(|r| ds.objects[*r as usize].mbc())
        .collect();
    let (region, _) = system
        .index()
        .leaves()
        .find(|(_, ids)| ids.contains(&subject.id))
        .unwrap();
    let region = *region;
    let quadrants = region.quadrants();
    let constraints = OverlapConstraints::new(mbc, crs.iter().copied());
    println!("check_overlap_quadrants: {} reference objects", crs.len());
    c.bench_function("check_overlap_quadrants_scalar", |b| {
        b.iter(|| std::hint::black_box(quadrants.map(|q| check_overlap(mbc, &crs, &q))))
    });
    c.bench_function("check_overlap_quadrants_fused", |b| {
        b.iter(|| std::hint::black_box(constraints.overlaps_quadrants(&region)))
    });
}

fn bench_probability(c: &mut Criterion) {
    let mut group = c.benchmark_group("qualification_probability");
    for &candidates in &[2usize, 8, 24] {
        let objects: Vec<UncertainObject> = (0..candidates as u32)
            .map(|k| {
                UncertainObject::with_gaussian(
                    k,
                    Point::new(100.0 + 15.0 * k as f64, 80.0 + 7.0 * k as f64),
                    20.0,
                )
            })
            .collect();
        let refs: Vec<&UncertainObject> = objects.iter().collect();
        group.bench_with_input(BenchmarkId::from_parameter(candidates), &refs, |b, refs| {
            b.iter(|| {
                std::hint::black_box(qualification_probabilities(Point::new(0.0, 0.0), refs, 100))
            })
        });
        // The batched SoA arena kernel on the same candidate set: assign
        // once, integrate many times through reused scratch — the engine's
        // per-leaf usage pattern.
        group.bench_with_input(
            BenchmarkId::new("arena", candidates),
            &objects,
            |b, objects| {
                let mut arena = KernelArena::new();
                arena.assign(objects.iter());
                let mut scratch = QuadratureScratch::default();
                b.iter(|| {
                    std::hint::black_box(arena.qualification_probabilities(
                        Point::new(0.0, 0.0),
                        100,
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_fused_screen(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_screen");
    for &entries in &[32usize, 256] {
        let objects: Vec<UncertainObject> = (0..entries as u32)
            .map(|k| {
                UncertainObject::with_uniform(
                    k,
                    Point::new((k as f64 * 37.0) % 1_000.0, (k as f64 * 91.0) % 1_000.0),
                    5.0 + (k % 7) as f64,
                )
            })
            .collect();
        let leaf: Vec<ObjectEntry> = objects.iter().map(|o| ObjectEntry::new(o, 0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(entries), &leaf, |b, leaf| {
            let mut arena = EntryArena::default();
            arena.assign(leaf);
            let mut scratch = ScreenScratch::default();
            let mut candidates = Vec::new();
            b.iter(|| {
                std::hint::black_box(arena.screen(
                    Point::new(500.0, 500.0),
                    &mut scratch,
                    &mut candidates,
                ))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_region_clip, bench_convex_hull, bench_check_overlap,
        bench_check_overlap_quadrants, bench_probability, bench_fused_screen
}
criterion_main!(benches);
