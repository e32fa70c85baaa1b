//! Bit-level pins of the exact Mamdani backend and the default compiled
//! surfaces.
//!
//! Each FLC is evaluated on a 7-points-per-axis lattice over its three
//! input universes (343 queries) and the `f64::to_bits` of every output
//! is folded into one FNV-1a hash. One pair of hashes is pinned for each
//! inference configuration an experiment runs: the paper default (the
//! goldens cover only this one), the product T-norm of
//! `--exp ablation-tnorm` and the three alternative defuzzifiers of
//! `--exp ablation-defuzz`. Any change to the order of a floating-point
//! operation on the exact path moves a hash.
//!
//! A second pair hashes both default compiled surfaces queried at all
//! 33³ of their lattice nodes, so a change to how the lattice is filled
//! (its node order or the inference behind each node) moves a hash too.
//! Those surfaces are baked in by the crate's build script, so a further
//! test compiles both again at test time and compares every node bit for
//! bit: a stale bake, or a build script whose definitions drift from the
//! library's, fails it.

use facs::{flc1, flc2, Flc1, Flc2};
use facs_cac::MobilityInfo;
use facs_fuzzy::{
    BackendKind, CompiledSurface, Defuzzifier, InferenceConfig, TNorm, DEFAULT_LATTICE_POINTS,
};

const POINTS: u32 = 7;

/// `points` evenly spaced values spanning `universe`, ends included.
fn axis(universe: (f64, f64), points: u32) -> impl Iterator<Item = f64> + Clone {
    let (lo, hi) = universe;
    (0..points).map(move |i| lo + (hi - lo) * f64::from(i) / f64::from(points - 1))
}

fn fnv1a(hash: u64, bits: u64) -> u64 {
    bits.to_le_bytes().iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn flc1_hash(flc: &Flc1, points: u32) -> u64 {
    let mut hash = FNV_OFFSET;
    for s in axis(flc1::SPEED_UNIVERSE, points) {
        for a in axis(flc1::ANGLE_UNIVERSE, points) {
            for d in axis(flc1::DISTANCE_UNIVERSE, points) {
                let cv = flc.correction_value(&MobilityInfo::new(s, a, d)).unwrap();
                hash = fnv1a(hash, cv.to_bits());
            }
        }
    }
    hash
}

fn flc2_hash(flc: &Flc2, points: u32) -> u64 {
    let mut hash = FNV_OFFSET;
    for cv in axis(flc2::CV_UNIVERSE, points) {
        for r in axis(flc2::REQUEST_UNIVERSE, points) {
            for cs in axis(flc2::COUNTER_UNIVERSE, points) {
                hash = fnv1a(hash, flc.decision_score(cv, r, cs).unwrap().to_bits());
            }
        }
    }
    hash
}

fn config(tnorm: TNorm, defuzzifier: Defuzzifier) -> InferenceConfig {
    InferenceConfig { tnorm, defuzzifier }
}

#[test]
fn exact_outputs_are_pinned_per_inference_config() {
    // (label, config, FLC1 hash, FLC2 hash)
    let pins = [
        ("default", InferenceConfig::default(), 0x23993c9479c36877, 0x2f949cd94236c6dc),
        (
            "product",
            config(TNorm::Product, Defuzzifier::Centroid),
            0x5bd79e35e6f921ae,
            0xfe2b716c083148e5,
        ),
        (
            "bisector",
            config(TNorm::Minimum, Defuzzifier::Bisector),
            0x82bdb5c23a2cc6fc,
            0x62047ba303a2e499,
        ),
        (
            "mom",
            config(TNorm::Minimum, Defuzzifier::MeanOfMaxima),
            0x4542d6e0d6fea70b,
            0xc4e26afd1fba7989,
        ),
        (
            "wavg",
            config(TNorm::Minimum, Defuzzifier::WeightedAverage),
            0x44127f8d3b961625,
            0x3e0190f9d4b5d869,
        ),
    ];
    let mut moved = Vec::new();
    for (label, config, flc1_pin, flc2_pin) in pins {
        let h1 = flc1_hash(&Flc1::with_backend(config, BackendKind::Exact).unwrap(), POINTS);
        let h2 = flc2_hash(&Flc2::with_backend(config, BackendKind::Exact).unwrap(), POINTS);
        if h1 != flc1_pin {
            moved.push(format!("{label} FLC1 {h1:#018x} (pinned {flc1_pin:#018x})"));
        }
        if h2 != flc2_pin {
            moved.push(format!("{label} FLC2 {h2:#018x} (pinned {flc2_pin:#018x})"));
        }
    }
    assert!(moved.is_empty(), "exact outputs moved: {moved:#?}");
}

#[test]
fn default_compiled_surfaces_are_pinned_at_every_lattice_node() {
    let config = InferenceConfig::default();
    let points = u32::try_from(DEFAULT_LATTICE_POINTS).unwrap();
    let h1 = flc1_hash(&Flc1::with_backend(config, BackendKind::compiled()).unwrap(), points);
    let h2 = flc2_hash(&Flc2::with_backend(config, BackendKind::compiled()).unwrap(), points);
    assert_eq!(
        (h1, h2),
        (0x75447817ab70ae4a, 0x4fa3f84d718637fe),
        "compiled surfaces moved: FLC1 {h1:#018x}, FLC2 {h2:#018x}"
    );
}

/// Asserts that `surface` holds exactly the nodes `fresh` holds, bit for
/// bit.
fn assert_same_nodes(label: &str, surface: &CompiledSurface, fresh: &CompiledSurface) {
    assert_eq!(surface.points_per_axis(), fresh.points_per_axis(), "{label}: lattice");
    assert_eq!(surface.len(), fresh.len(), "{label}: node count");
    let moved =
        surface.nodes().iter().zip(fresh.nodes()).position(|(a, b)| a.to_bits() != b.to_bits());
    assert_eq!(moved, None, "{label}: first node that differs from a runtime compile");
}

#[test]
fn baked_default_surfaces_equal_a_runtime_compile() {
    let flc1 = Flc1::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
    let flc2 = Flc2::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
    let fresh1 = CompiledSurface::compile(flc1.engine(), DEFAULT_LATTICE_POINTS).unwrap();
    let fresh2 = CompiledSurface::compile(flc2.engine(), DEFAULT_LATTICE_POINTS).unwrap();
    assert_same_nodes("FLC1", flc1.surface().unwrap(), &fresh1);
    assert_same_nodes("FLC2", flc2.surface().unwrap(), &fresh2);
}

#[test]
fn non_default_surfaces_compile_at_run_time() {
    let default1 = Flc1::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
    let default2 = Flc2::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
    let coarse = Flc1::with_backend(
        InferenceConfig::default(),
        BackendKind::Compiled { points_per_axis: 17 },
    )
    .unwrap();
    let product =
        Flc2::with_backend(config(TNorm::Product, Defuzzifier::Centroid), BackendKind::compiled())
            .unwrap();
    assert_same_nodes(
        "17-point FLC1",
        coarse.surface().unwrap(),
        &CompiledSurface::compile(coarse.engine(), 17).unwrap(),
    );
    assert_same_nodes(
        "product FLC2",
        product.surface().unwrap(),
        &CompiledSurface::compile(product.engine(), DEFAULT_LATTICE_POINTS).unwrap(),
    );
    assert!(!coarse.surface().unwrap().shares_samples(default1.surface().unwrap()));
    assert!(!product.surface().unwrap().shares_samples(default2.surface().unwrap()));
}
