//! # facs-suite — reproduction of Barolli et al., "A Fuzzy-based Call
//! # Admission Control System for Wireless Cellular Networks" (ICDCSW 2007)
//!
//! This umbrella crate re-exports the workspace members so applications
//! can depend on one crate:
//!
//! * [`fuzzy`] (`facs-fuzzy`) — the Mamdani fuzzy-inference engine;
//! * [`cac`] (`facs-cac`) — CAC abstractions and classical baselines;
//! * [`cellsim`] (`facs-cellsim`) — the cellular-network simulator;
//! * [`core`] (`facs`) — FLC1, FLC2 and the FACS controller;
//! * [`scc`] (`facs-scc`) — the Shadow Cluster Concept baseline.
//!
//! The runnable examples live in `examples/`; the experiment harness that
//! regenerates every figure of the paper is the `experiments` binary of
//! the `facs-bench` crate (see EXPERIMENTS.md).
//!
//! ## Quickstart
//!
//! ```
//! use facs_suite::cac::{
//!     AdmissionController, BandwidthLedger, BandwidthUnits, CallId, CallKind, CallRequest,
//!     MobilityInfo, ServiceClass,
//! };
//! use facs_suite::core::FacsController;
//!
//! # fn main() -> Result<(), facs_suite::fuzzy::FuzzyError> {
//! let mut facs = FacsController::new()?;
//! let cell = BandwidthLedger::new(BandwidthUnits::new(40));
//! let request = CallRequest::new(
//!     CallId(1),
//!     ServiceClass::Voice,
//!     CallKind::New,
//!     MobilityInfo::new(60.0, 10.0, 2.5),
//! );
//! assert!(facs.decide(&request, &cell).admits());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use facs_cac as cac;
pub use facs_cellsim as cellsim;
pub use facs_fuzzy as fuzzy;
pub use facs_scc as scc;

/// The paper's core contribution (`facs` crate): FLC1, FLC2 and the FACS
/// controller.
pub mod core {
    pub use facs::*;
}
