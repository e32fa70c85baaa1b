//! Exact Mamdani vs compiled decision surface, per admission decision.
//!
//! The compiled backend answers from a precomputed lattice by multilinear
//! interpolation, so a full FACS cascade collapses from two
//! O(rules + terms × resolution) inferences to ~16 array reads. The
//! acceptance bar for this bench (EXPERIMENTS.md records measured
//! numbers) is a ≥ 10× per-decision speedup of `facs_cascade_compiled`
//! over `facs_cascade_exact`; in practice it lands around 50×.
//!
//! `cargo bench -p facs-bench --bench decision_surface` to measure;
//! `cargo bench -p facs-bench --bench decision_surface -- --test` (CI)
//! runs every routine once as a smoke test.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use facs::{FacsConfig, FacsController, Flc1, Flc2};
use facs_cac::{
    BandwidthUnits, CallId, CallKind, CallRequest, CellSnapshot, MobilityInfo, ServiceClass,
};
use facs_fuzzy::{BackendKind, InferenceConfig};

fn bench_backends(c: &mut Criterion) {
    let flc1_exact = Flc1::new().unwrap();
    let flc1_compiled =
        Flc1::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
    let flc2_exact = Flc2::new().unwrap();
    let flc2_compiled =
        Flc2::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
    let facs_exact = FacsController::new().unwrap();
    let facs_compiled = FacsController::with_config(FacsConfig::compiled()).unwrap();

    let mobility = MobilityInfo::new(45.0, 30.0, 4.0);
    let cell = CellSnapshot::loaded(BandwidthUnits::new(40), BandwidthUnits::new(17));
    let request = CallRequest::new(CallId(1), ServiceClass::Voice, CallKind::New, mobility);

    c.bench_function("flc1_exact", |b| {
        b.iter(|| flc1_exact.correction_value(black_box(&mobility)).unwrap())
    });
    c.bench_function("flc1_compiled", |b| {
        b.iter(|| flc1_compiled.correction_value(black_box(&mobility)).unwrap())
    });
    c.bench_function("flc2_exact", |b| {
        b.iter(|| flc2_exact.decision_score(black_box(0.6), black_box(5.0), black_box(17.0)))
    });
    c.bench_function("flc2_compiled", |b| {
        b.iter(|| flc2_compiled.decision_score(black_box(0.6), black_box(5.0), black_box(17.0)))
    });
    c.bench_function("facs_cascade_exact", |b| {
        b.iter(|| facs_exact.evaluate(black_box(&request), black_box(&cell)))
    });
    c.bench_function("facs_cascade_compiled", |b| {
        b.iter(|| facs_compiled.evaluate(black_box(&request), black_box(&cell)))
    });
    // One-time cost the compiled backend pays up front (the default
    // surfaces are baked in at build time and never compile at run time,
    // so measure a non-default resolution to see a real compile).
    c.bench_function("surface_compile_flc2_17pts", |b| {
        b.iter(|| {
            Flc2::with_backend(
                InferenceConfig::default(),
                BackendKind::Compiled { points_per_axis: 17 },
            )
            .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_backends
}
criterion_main!(benches);
