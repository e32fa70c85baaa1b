//! Micro-benchmarks of the fuzzy-inference engine on the exact backend:
//! single FLC passes, the full FACS cascade and rule-base compilation.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use facs::{FacsController, Flc1, Flc2};
use facs_cac::{
    BandwidthUnits, CallId, CallKind, CallRequest, CellSnapshot, MobilityInfo, ServiceClass,
};

fn bench_engine(c: &mut Criterion) {
    let flc1 = Flc1::new().unwrap();
    let flc2 = Flc2::new().unwrap();
    let facs = FacsController::new().unwrap();
    let mobility = MobilityInfo::new(45.0, 30.0, 4.0);
    let cell = CellSnapshot::loaded(BandwidthUnits::new(40), BandwidthUnits::new(17));
    let request = CallRequest::new(CallId(1), ServiceClass::Voice, CallKind::New, mobility);

    c.bench_function("flc1_inference", |b| {
        b.iter(|| flc1.correction_value(black_box(&mobility)).unwrap())
    });
    c.bench_function("flc2_inference", |b| {
        b.iter(|| flc2.decision_score(black_box(0.6), black_box(5.0), black_box(17.0)).unwrap())
    });
    c.bench_function("facs_full_cascade", |b| {
        b.iter(|| facs.evaluate(black_box(&request), black_box(&cell)))
    });
    c.bench_function("flc1_build", |b| b.iter(|| Flc1::new().unwrap()));
    c.bench_function("flc2_build", |b| b.iter(|| Flc2::new().unwrap()));
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_engine
}
criterion_main!(benches);
