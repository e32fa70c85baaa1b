//! # facs-cac — call-admission-control abstractions for cellular networks
//!
//! This crate is the shared vocabulary of the FACS reproduction: bandwidth
//! units and ledgers, traffic classes, admission requests, soft decisions,
//! the [`AdmissionController`] trait every policy implements, and the
//! two classical baseline policies the paper's related-work section
//! surveys (Complete Sharing, Guard Channel).
//!
//! The FACS controller itself lives in the `facs` crate; the Shadow
//! Cluster Concept baseline in `facs-scc`; the simulator driving them in
//! `facs-cellsim`.
//!
//! Calls carry a [`ServiceProfile`] — a `[floor, nominal]` bandwidth
//! band — and controllers answer with an [`AdmissionPlan`]: admit at
//! nominal, admit degraded (listing the per-call squeezes that make
//! room), or reject. Rigid paper-style profiles (`floor == nominal`)
//! make the elastic machinery degenerate to classic unit-cost CAC.
//!
//! ## Example: a guard-channel cell
//!
//! ```
//! use facs_cac::policies::GuardChannel;
//! use facs_cac::{
//!     AdmissionController, BandwidthLedger, BandwidthUnits, CallId, CallKind, CallRequest,
//!     MobilityInfo, ServiceClass,
//! };
//!
//! # fn main() -> Result<(), facs_cac::LedgerError> {
//! let mut ledger = BandwidthLedger::new(BandwidthUnits::new(40));
//! let mut policy = GuardChannel::new(BandwidthUnits::new(10));
//!
//! let request = CallRequest::new(
//!     CallId(1),
//!     ServiceClass::Video,
//!     CallKind::New,
//!     MobilityInfo::new(30.0, 0.0, 2.0),
//! );
//! let plan = policy.decide(&request, &ledger);
//! if plan.admits() {
//!     ledger.allocate(request.id, request.profile)?;
//! }
//! assert_eq!(ledger.occupied().get(), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
pub mod decision;
pub mod ledger;
pub mod policies;
pub mod traffic;
pub mod units;

pub use controller::{Admission, AdmissionController, AdmissionPlan, BoxedController, PolicyKey};
pub use decision::{Decision, Verdict};
pub use ledger::{Allocation, BandwidthLedger, CellSnapshot, LedgerError, Reallocation};
pub use traffic::{
    normalize_angle, CallId, CallKind, CallRequest, CellId, ClassCounts, MobilityInfo,
    ServiceClass, ServiceProfile, ServiceProfileSet,
};
pub use units::BandwidthUnits;

/// Commonly used items, for glob import in applications and examples.
pub mod prelude {
    pub use crate::controller::{AdmissionController, AdmissionPlan, BoxedController};
    pub use crate::decision::{Decision, Verdict};
    pub use crate::ledger::{BandwidthLedger, CellSnapshot, Reallocation};
    pub use crate::traffic::{
        CallId, CallKind, CallRequest, CellId, ClassCounts, MobilityInfo, ServiceClass,
        ServiceProfile, ServiceProfileSet,
    };
    pub use crate::units::BandwidthUnits;
}
