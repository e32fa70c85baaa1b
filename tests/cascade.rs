//! Cross-crate consistency of the FLC cascade: the `FacsController` must
//! equal the manual composition of `Flc1` and `Flc2` over the generic
//! fuzzy engine, and the rule tables must drive the engines the paper
//! describes.

use facs::{FacsConfig, FacsController, Flc1, Flc2, FRB1, FRB2};
use facs_cac::{
    BandwidthUnits, CallId, CallKind, CallRequest, CellSnapshot, MobilityInfo, ServiceClass,
};
use facs_cellsim::SimRng;

fn snapshot(occupied: u32) -> CellSnapshot {
    CellSnapshot::loaded(BandwidthUnits::new(40), BandwidthUnits::new(occupied))
}

#[test]
fn controller_equals_manual_cascade() {
    let facs = FacsController::new().unwrap();
    let flc1 = Flc1::new().unwrap();
    let flc2 = Flc2::new().unwrap();
    let mut rng = SimRng::seed_from_u64(424242);
    for i in 0..500 {
        let mobility = MobilityInfo::new(
            rng.uniform_range(0.0, 120.0),
            rng.uniform_range(-180.0, 180.0),
            rng.uniform_range(0.0, 10.0),
        );
        let class = match rng.index(3) {
            0 => ServiceClass::Text,
            1 => ServiceClass::Voice,
            _ => ServiceClass::Video,
        };
        let occupied = rng.index(41) as u32;
        let request = CallRequest::new(CallId(i), class, CallKind::New, mobility);
        let eval = facs.evaluate(&request, &snapshot(occupied));

        let cv = flc1.correction_value(&mobility).unwrap();
        let score = flc2.decision_score(cv, class.request_level(), f64::from(occupied)).unwrap();
        let score = (score * 1e12).round() / 1e12;
        assert!((eval.correction_value - cv).abs() < 1e-12, "cv mismatch at iteration {i}");
        assert!((eval.score - score).abs() < 1e-12, "score mismatch at iteration {i}");
    }
}

#[test]
fn rule_tables_reach_every_consequent_term() {
    // Every Cv term the table names exists in FLC1's output variable, and
    // every decision term in FLC2's.
    let flc1 = Flc1::new().unwrap();
    let cv_var = flc1.engine().output();
    for &(_, _, _, cv) in FRB1.iter() {
        assert!(cv_var.term(cv).is_some(), "FLC1 missing term {cv}");
    }
    let flc2 = Flc2::new().unwrap();
    let ar_var = flc2.engine().output();
    for &(_, _, _, ar) in FRB2.iter() {
        assert!(ar_var.term(ar).is_some(), "FLC2 missing term {ar}");
    }
}

#[test]
fn facs_is_monotone_in_occupancy_for_fixed_user() {
    let facs = FacsController::with_config(FacsConfig::default()).unwrap();
    let request = CallRequest::new(
        CallId(1),
        ServiceClass::Voice,
        CallKind::New,
        MobilityInfo::new(45.0, 20.0, 3.0),
    );
    let mut previous = f64::INFINITY;
    for occupied in (0..=40).step_by(5) {
        let eval = facs.evaluate(&request, &snapshot(occupied));
        assert!(
            eval.score <= previous + 0.15,
            "score should not rise with occupancy (at {occupied}: {} > {previous})",
            eval.score
        );
        previous = eval.score;
    }
}

#[test]
fn full_input_space_never_errors() {
    let facs = FacsController::new().unwrap();
    for speed in (0..=120).step_by(20) {
        for angle in (-180..=180).step_by(45) {
            for distance in (0..=10).step_by(2) {
                for occupied in (0..=40).step_by(10) {
                    for class in ServiceClass::ALL {
                        let request = CallRequest::new(
                            CallId(0),
                            class,
                            CallKind::New,
                            MobilityInfo::new(
                                f64::from(speed),
                                f64::from(angle),
                                f64::from(distance),
                            ),
                        );
                        let eval = facs.evaluate(&request, &snapshot(occupied));
                        assert!(
                            (-1.0..=1.0).contains(&eval.score),
                            "score out of range for s={speed} a={angle} d={distance}"
                        );
                    }
                }
            }
        }
    }
}
