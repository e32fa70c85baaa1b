//! # facs-cellsim — a discrete-event wireless cellular-network simulator
//!
//! The evaluation substrate of the FACS reproduction. The paper evaluates
//! its admission controller purely in simulation; this crate rebuilds that
//! simulator from the parameters published in §4: hexagonal cells with
//! 40-BU base stations, users with GPS-observable mobility (speed 0–120
//! km/h, direction −180…180°, distance 0–10 km), a 60/30/10 %
//! text/voice/video mix with 1/5/10 BU requests, Poisson arrivals and
//! exponential holding times.
//!
//! ## Architecture
//!
//! * [`geometry`] — hexagonal cell grid, planar points, locating users;
//! * [`mobility`] — the heading-diffusion walker and straight-line models
//!   plus the GPS observation (`(S, A, D)` triple) FLC1 consumes;
//! * [`traffic`] — traffic mix and holding times;
//! * [`events`] — the shard-independent, content-ordered event queue;
//! * [`engine`] — the sharded deterministic simulation kernel (cells,
//!   users, handoffs, epoch barriers);
//! * [`workload`] — declarative workload descriptions, arrival patterns
//!   (replayed in sorted order in bounded memory) and the named
//!   scenario catalog (hotspot, flash crowd, rush hour, …);
//! * [`fuzz`] — seeded sampling of arbitrary valid workloads with
//!   shrink-on-failure to a minimal reproducing case;
//! * [`scenario`] — the paper's experiment configurations and sweeps;
//! * [`metrics`] — the streaming [`metrics::MetricsSink`] interface,
//!   acceptance/dropping/utilization counters, per-cell load series;
//! * [`validate`] — the invariant-checking sink and the order-insensitive
//!   golden-trace digest behind `--exp validate` / `--exp golden`;
//! * [`rng`] / [`time`] — seeded randomness and integer sim-time.
//!
//! ## Example
//!
//! ```
//! use facs_cac::policies::CompleteSharing;
//! use facs_cac::BoxedController;
//! use facs_cellsim::prelude::*;
//!
//! // Fig. 7-style scenario: 50 requests at a fixed 30 km/h.
//! let config = ScenarioConfig {
//!     requests: 50,
//!     speed: SpeedSpec::Fixed(30.0),
//!     replications: 1,
//!     ..Default::default()
//! };
//! let acceptance = config.acceptance(&|grid: &HexGrid| {
//!     grid.cell_ids()
//!         .map(|_| Box::new(CompleteSharing::new()) as BoxedController)
//!         .collect()
//! });
//! assert!(acceptance > 0.0 && acceptance <= 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod erlang;
pub mod events;
pub mod fuzz;
pub mod geometry;
pub mod metrics;
pub mod mobility;
pub mod rng;
pub mod scenario;
pub mod stats;
pub mod time;
pub mod traffic;
pub mod validate;
pub mod workload;

pub use engine::{MobilityKind, RunInput, Simulation, SimulationConfig, UserSpec};
pub use events::{EngineQueue, QueueEntry, UserId};
pub use fuzz::{
    case_complexity, complexity, shrink, shrink_candidates, ControllerSlot, FuzzCase,
    WorkloadFuzzer,
};
pub use geometry::{HexCoord, HexGrid, Point};
pub use metrics::{
    CellLoadSeries, ClassCounters, Metrics, MetricsSink, RegionRollup, RegionRollupSink, Series,
};
pub use mobility::{MobileState, MobilityModel, StraightLine, Walker};
pub use rng::SimRng;
pub use scenario::{
    acceptance_curve, offered_load_fraction, paper_request_counts, AngleSpec, ControllerBuilder,
    DistanceSpec, MobilityChoice, ScenarioConfig, SpawnSpec, SpeedSpec,
};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
pub use traffic::{HoldingTimes, TrafficMix};
pub use validate::{InvariantSink, TraceDigest};
pub use workload::{
    catalog, catalog_names, planet_scale, scenario_by_name, ArrivalPattern, CatalogEntry, Workload,
    WorkloadChunk, WorkloadStream,
};

/// Commonly used items, for glob import in applications and examples.
pub mod prelude {
    pub use crate::engine::{MobilityKind, RunInput, Simulation, SimulationConfig, UserSpec};
    pub use crate::fuzz::{ControllerSlot, FuzzCase, WorkloadFuzzer};
    pub use crate::geometry::{HexGrid, Point};
    pub use crate::metrics::{CellLoadSeries, Metrics, MetricsSink, RegionRollupSink, Series};
    pub use crate::mobility::{MobileState, MobilityModel, Walker};
    pub use crate::rng::SimRng;
    pub use crate::scenario::{
        acceptance_curve, paper_request_counts, AngleSpec, ControllerBuilder, DistanceSpec,
        MobilityChoice, ScenarioConfig, SpawnSpec, SpeedSpec,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::traffic::{HoldingTimes, TrafficMix};
    pub use crate::validate::{InvariantSink, TraceDigest};
    pub use crate::workload::{
        catalog, scenario_by_name, ArrivalPattern, CatalogEntry, Workload, WorkloadStream,
    };
}
