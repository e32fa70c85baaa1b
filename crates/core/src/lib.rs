//! # facs — the Fuzzy Admission Control System (Barolli et al., ICDCSW 2007)
//!
//! A faithful reimplementation of the paper's proposed system: two
//! cascaded Mamdani fuzzy logic controllers deciding call admission for
//! wireless cellular networks.
//!
//! * [`Flc1`] predicts how "safe" a user is to serve from GPS mobility
//!   observations — speed, heading angle relative to the base station,
//!   and distance — producing a correction value `Cv` in `[0, 1]`
//!   (42-rule FRB1, paper Table 1, membership functions of Fig. 5).
//! * [`Flc2`] combines `Cv` with the requested bandwidth and the cell's
//!   occupancy counter into a soft accept/reject score in `[-1, 1]`
//!   (27-rule FRB2, paper Table 2, membership functions of Fig. 6).
//! * [`FacsController`] cascades the two (paper Fig. 4) and implements
//!   the [`facs_cac::AdmissionController`] trait, so the simulator can
//!   drive it interchangeably with the baselines.
//!   [`FacsDegradeController`] wraps it with elastic-bandwidth
//!   degradation: handoffs that do not fit at nominal bandwidth may
//!   squeeze existing elastic calls toward their QoS floors.
//!   [`HeadroomFacsController`] admits a new call only where the
//!   cascade admits it at the live occupancy and one BU above it.
//!
//! ## Quickstart
//!
//! ```
//! use facs::FacsController;
//! use facs_cac::{
//!     AdmissionController, BandwidthLedger, BandwidthUnits, CallId, CallKind, CallRequest,
//!     MobilityInfo, ServiceClass,
//! };
//!
//! # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
//! let mut controller = FacsController::new()?;
//! let mut cell = BandwidthLedger::new(BandwidthUnits::new(40));
//! let request = CallRequest::new(
//!     CallId(7),
//!     ServiceClass::Video,
//!     CallKind::New,
//!     MobilityInfo::new(45.0, 15.0, 3.0), // 45 km/h, 15° off-bearing, 3 km out
//! );
//! let plan = controller.decide(&request, &cell);
//! assert!(plan.admits());
//! cell.allocate(request.id, request.profile).expect("10 BU fit in an empty cell");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
mod definitions;
pub mod flc1;
pub mod flc2;
mod fuzzy_controller;
pub mod tables;

pub use controller::{
    CvSegments, FacsConfig, FacsController, FacsDegradeController, FacsEvaluation,
    HeadroomFacsController,
};
pub use flc1::Flc1;
pub use flc2::Flc2;
pub use tables::{FRB1, FRB2};

/// Commonly used items, for glob import in applications and examples.
pub mod prelude {
    pub use crate::controller::{
        FacsConfig, FacsController, FacsDegradeController, FacsEvaluation, HeadroomFacsController,
    };
    pub use crate::flc1::Flc1;
    pub use crate::flc2::Flc2;
}
