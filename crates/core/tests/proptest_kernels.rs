//! Property-based bit-identity proofs for the batched SoA kernels: across
//! construction methods {IC, ICR} and dataset shapes {Uniform, GaussianSkew},
//! the arena-backed engine path must produce the *same bits* as the retained
//! scalar references (`UvIndex::pnn`, `uv_data::qualification_probabilities`
//! and the documented scalar screen), including on degenerate inputs —
//! co-located seeds, zero-radius circles — and with NaN-free outputs. The
//! Algorithm 5 overlap kernels (`OverlapConstraints`) answer exactly as the
//! scalar `check_overlap`, on random circles and on dense-line subjects.

use proptest::prelude::*;
use uv_core::builder::MIN_LEAF_SIDE_FRACTION;
use uv_core::index::{check_overlap, OverlapConstraints};
use uv_core::{Method, QueryEngine, UvConfig, UvSystem};
use uv_data::{
    qualification_probabilities, Dataset, DatasetKind, EntryArena, GeneratorConfig, KernelArena,
    ObjectEntry, QuadratureScratch, ScreenScratch, UncertainObject,
};
use uv_geom::{Circle, Point, Rect, EPS};

fn build_case(
    n: usize,
    method_pick: u8,
    kind_pick: u8,
    sigma: f64,
    seed: u64,
) -> (Dataset, UvSystem) {
    let method = if method_pick == 0 {
        Method::IC
    } else {
        Method::ICR
    };
    let generator = if kind_pick == 0 {
        GeneratorConfig::paper_uniform(n)
    } else {
        GeneratorConfig::paper_skewed(n, sigma)
    }
    .with_seed(seed);
    let dataset = Dataset::generate(generator);
    let system = UvSystem::build(
        dataset.objects.clone(),
        dataset.domain,
        method,
        UvConfig::default(),
    )
    .unwrap();
    (dataset, system)
}

/// Degenerate-friendly candidate sets: centres snap to a coarse grid (forcing
/// co-located objects), radii include exact zeros, pdfs mix uniform and
/// Gaussian histograms.
fn candidate_set() -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec(
        (
            -4i32..4,
            -4i32..4,
            0.1..30.0f64,
            prop::bool::ANY,
            prop::bool::ANY,
        ),
        1..9,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (gx, gy, r, zero_radius, gaussian))| {
                let c = Point::new(25.0 * gx as f64, 25.0 * gy as f64);
                let r = if zero_radius { 0.0 } else { r };
                if gaussian {
                    UncertainObject::with_gaussian(i as u32, c, r)
                } else {
                    UncertainObject::with_uniform(i as u32, c, r)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// End-to-end: the arena-backed engine answers carry the same probability
    /// bits and candidate counts as the scalar `UvIndex::pnn` reference, for
    /// every {IC, ICR} × {Uniform, GaussianSkew} combination.
    #[test]
    fn engine_kernels_are_bit_identical_to_the_scalar_index_path(
        case in (60..140usize, 0..2u8, 0..2u8, 800.0..2_500.0f64, 0..10_000u64)
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let (dataset, system) = build_case(n, method_pick, kind_pick, sigma, seed);
        let steps = system.index().config().integration_steps;
        let queries = dataset.query_points(24, seed ^ 0xbeef);
        for cache in [true, false] {
            let engine = QueryEngine::new(system.index(), system.object_store())
                .with_cache(cache);
            for q in &queries {
                let scalar = system.index().pnn(system.object_store(), *q, steps);
                let batched = engine.pnn(*q);
                prop_assert_eq!(batched.candidates_examined, scalar.candidates_examined);
                prop_assert_eq!(batched.probabilities.len(), scalar.probabilities.len());
                for ((bi, bp), (si, sp)) in
                    batched.probabilities.iter().zip(&scalar.probabilities)
                {
                    prop_assert_eq!(bi, si);
                    prop_assert!(!bp.is_nan());
                    prop_assert_eq!(bp.to_bits(), sp.to_bits(),
                        "probability bits diverged for object {} at {:?}", bi, q);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The arena quadrature reproduces the scalar
    /// `qualification_probabilities` bit-for-bit on degenerate candidate
    /// sets, and one arena reused across queries stays identical to a fresh
    /// scalar evaluation per query.
    #[test]
    fn arena_quadrature_matches_scalar_on_degenerate_sets(
        objects in candidate_set(),
        qx in -120.0..120.0f64,
        qy in -120.0..120.0f64,
        steps in 2usize..80,
    ) {
        let refs: Vec<&UncertainObject> = objects.iter().collect();
        let mut arena = KernelArena::new();
        arena.assign(objects.iter());
        let mut scratch = QuadratureScratch::default();
        // Several probes through the same arena + scratch: reuse must not
        // leak state between evaluations.
        for (dx, dy) in [(0.0, 0.0), (13.0, -7.0), (-2.5, 40.0)] {
            let q = Point::new(qx + dx, qy + dy);
            let scalar = qualification_probabilities(q, &refs, steps);
            let batched = arena.qualification_probabilities(q, steps, &mut scratch);
            prop_assert_eq!(batched.len(), scalar.len());
            for ((bi, bp), (si, sp)) in batched.iter().zip(&scalar) {
                prop_assert_eq!(bi, si);
                prop_assert!(!bp.is_nan());
                prop_assert_eq!(bp.to_bits(), sp.to_bits(),
                    "bits diverged for object {} at {:?} ({} steps)", bi, q, steps);
            }
        }
    }

    /// The fused screen reproduces the documented scalar passes bit-for-bit:
    /// the `d_minmax` fold, the candidate filter and the stability clearance,
    /// with NaN-free outputs even for zero-radius and co-located entries.
    #[test]
    fn fused_screen_matches_the_scalar_passes(
        objects in candidate_set(),
        qx in -120.0..120.0f64,
        qy in -120.0..120.0f64,
    ) {
        let q = Point::new(qx, qy);
        let entries: Vec<ObjectEntry> =
            objects.iter().map(|o| ObjectEntry::new(o, 0)).collect();
        let mut arena = EntryArena::default();
        arena.assign(&entries);
        let mut scratch = ScreenScratch::default();
        let mut candidates = Vec::new();
        let screen = arena.screen(q, &mut scratch, &mut candidates);

        // Scalar reference: the three separate passes of
        // `UvIndex::pnn` / `candidate_stability_radius`.
        let dminmax = entries
            .iter()
            .map(|e| e.dist_max(q))
            .fold(f64::INFINITY, f64::min);
        let threshold = dminmax + EPS;
        let scalar_candidates: Vec<usize> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.dist_min(q) <= threshold)
            .map(|(i, _)| i)
            .collect();
        let scalar_clearance = entries
            .iter()
            .map(|e| (e.dist_min(q) - threshold).abs() / 2.0)
            .fold(f64::INFINITY, f64::min);

        prop_assert!(!screen.dminmax.is_nan() && !screen.clearance.is_nan());
        prop_assert_eq!(screen.dminmax.to_bits(), dminmax.to_bits());
        prop_assert_eq!(screen.clearance.to_bits(), scalar_clearance.to_bits());
        prop_assert_eq!(candidates, scalar_candidates);
    }
}

/// Circles on a coarse grid (forcing co-located centres, including with the
/// subject) with radii that include exact zeros and values large enough to
/// overlap the subject (an empty outside region).
fn circle() -> impl Strategy<Value = Circle> {
    (-4i32..4, -4i32..4, 0.0..30.0f64, prop::bool::ANY).prop_map(|(gx, gy, r, zero_radius)| {
        Circle::new(
            Point::new(25.0 * gx as f64, 25.0 * gy as f64),
            if zero_radius { 0.0 } else { r },
        )
    })
}

/// Regions anywhere around the circles, from wide down to the side at which
/// the grid stops splitting (`MIN_LEAF_SIDE_FRACTION` of a 1,000-unit
/// domain), where the quadrant centre sits a few ulps from the corners.
fn region() -> impl Strategy<Value = Rect> {
    (-250.0..250.0f64, -250.0..250.0f64, 0u32..5, 0.1..1.0f64).prop_map(|(x, y, scale, f)| {
        let side = match scale {
            0 => 1_000.0 * MIN_LEAF_SIDE_FRACTION,
            1 => 1_000.0 * MIN_LEAF_SIDE_FRACTION * 2.0 * f,
            2 => 5.0 * f,
            3 => 60.0 * f,
            _ => 400.0 * f,
        };
        Rect::new(x, y, x + side, y + side * (0.5 + f))
    })
}

/// Asserts both overlap kernels of `subject` against `refs` over `region`
/// match the scalar `check_overlap`; returns how many of the four quadrants
/// were ruled out.
fn assert_kernels_match(subject: Circle, refs: &[Circle], region: &Rect) -> usize {
    let constraints = OverlapConstraints::new(subject, refs.iter().copied());
    assert_eq!(
        constraints.overlaps(region),
        check_overlap(subject, refs, region),
        "overlaps diverged on {region:?}"
    );
    let fused = constraints.overlaps_quadrants(region);
    for (k, quadrant) in region.quadrants().iter().enumerate() {
        assert_eq!(
            fused[k],
            check_overlap(subject, refs, quadrant),
            "quadrant {k} of {region:?} diverged"
        );
    }
    fused.iter().filter(|inside| !**inside).count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The constraint table and the fused quadrant kernel return exactly the
    /// scalar 4-point test's booleans, on degenerate circles and on regions
    /// down to the depth bound.
    #[test]
    fn overlap_kernels_match_check_overlap(
        subject in circle(),
        refs in prop::collection::vec(circle(), 0..12),
        region in region(),
    ) {
        assert_kernels_match(subject, &refs, &region);
    }

    /// A reference that touches the subject to within `EPS` has an empty
    /// outside region, yet the signed test still reads positive far out
    /// along the line of centres: both kernels must skip it exactly as
    /// `check_overlap` does.
    #[test]
    fn overlap_kernels_skip_references_touching_within_eps(
        angle in 0.0..std::f64::consts::TAU,
        r in 0.0..30.0f64,
        gap in 0.05..0.95f64,
        far in 200.0..2_000.0f64,
    ) {
        let (dx, dy) = (angle.cos(), angle.sin());
        let subject = Circle::new(Point::new(0.0, 0.0), r);
        let d = 2.0 * r + gap * EPS;
        let other = Circle::new(Point::new(d * dx, d * dy), r);
        let (px, py) = (far * dx, far * dy);
        let region = Rect::new(px - 1e-5, py - 1e-5, px + 1e-5, py + 1e-5);
        assert_kernels_match(subject, &[other], &region);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// On dense-line subjects with their real reference sets, both kernels
    /// match `check_overlap` on every leaf region of the built grid, on the
    /// domain and on a depth-bound region at each subject's centre, and the
    /// leaf regions rule out some quadrants (the comparison is not vacuous).
    #[test]
    fn overlap_kernels_match_check_overlap_on_dense_lines(seed in 0..10_000u64) {
        let dataset = Dataset::generate(GeneratorConfig {
            kind: DatasetKind::Rrlines,
            ..GeneratorConfig::paper_uniform(160).with_seed(seed)
        });
        let system = UvSystem::build(
            dataset.objects.clone(),
            dataset.domain,
            Method::IC,
            UvConfig::default().with_leaf_split_capacity(16),
        )
        .unwrap();
        let mbc = |id: u32| system.objects().iter().find(|o| o.id == id).unwrap().mbc();
        let side = dataset.domain.width() * MIN_LEAF_SIDE_FRACTION;
        let leaves: Vec<Rect> = system.index().leaves().map(|(r, _)| *r).collect();
        let mut ruled_out = 0;
        for subject in system.objects().iter().step_by(7) {
            let refs: Vec<Circle> = system
                .object_state(subject.id)
                .unwrap()
                .reference_ids()
                .iter()
                .map(|r| mbc(*r))
                .collect();
            let c = subject.center();
            let bound = Rect::new(c.x, c.y, c.x + side, c.y + side);
            for region in leaves.iter().chain([&dataset.domain, &bound]) {
                ruled_out += assert_kernels_match(subject.mbc(), &refs, region);
            }
        }
        prop_assert!(ruled_out > 0);
    }
}
