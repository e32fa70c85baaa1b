//! Pins the umbrella crate's public API surface: the exact quickstart
//! path documented in README.md and `src/lib.rs` must keep compiling and
//! behaving — `FacsController::new()` admits a reasonable request on an
//! empty cell, reached exclusively through `facs_suite::` re-exports.

use facs_suite::cac::{
    AdmissionController, BandwidthLedger, BandwidthUnits, CallId, CallKind, CallRequest,
    MobilityInfo, ServiceClass, ServiceProfile,
};
use facs_suite::core::FacsController;

#[test]
fn quickstart_admits_on_empty_cell() {
    let mut facs = FacsController::new().expect("default FACS controller builds");
    let cell = BandwidthLedger::new(BandwidthUnits::new(40));
    let request = CallRequest::new(
        CallId(1),
        ServiceClass::Voice,
        CallKind::New,
        MobilityInfo::new(60.0, 10.0, 2.5),
    );
    let plan = facs.decide(&request, &cell);
    assert!(plan.admits(), "empty cell must admit the quickstart request: {:?}", plan.decision());
}

#[test]
fn quickstart_rejects_on_full_cell() {
    let mut facs = FacsController::new().unwrap();
    // 8 rigid voice calls fill the 40-BU cell completely.
    let mut full = BandwidthLedger::new(BandwidthUnits::new(40));
    for i in 0..8 {
        full.allocate(CallId(100 + i), ServiceProfile::paper(ServiceClass::Voice)).unwrap();
    }
    let request = CallRequest::new(
        CallId(2),
        ServiceClass::Video,
        CallKind::New,
        MobilityInfo::new(60.0, 10.0, 2.5),
    );
    assert!(!facs.decide(&request, &full).admits(), "a full cell cannot admit");
}

#[test]
fn every_umbrella_module_is_reachable() {
    // One symbol per re-exported crate, so a dropped re-export fails to
    // compile here rather than in downstream code.
    let _fuzzy = facs_suite::fuzzy::MembershipFunction::triangular(0.5, 0.5, 0.5).unwrap();
    let _cac = facs_suite::cac::BandwidthUnits::new(1);
    let _cellsim = facs_suite::cellsim::HexGrid::single_cell(10.0);
    let _scc = facs_suite::scc::SccConfig::default();
    let _core = facs_suite::core::FacsConfig::default();
}
