//! The state and dispatch FLC1 and FLC2 share: a rule engine plus, on the
//! compiled backend, its decision surface.

use facs_fuzzy::{
    BackendKind, CompiledSurface, Engine, FuzzyError, InferenceConfig, DEFAULT_LATTICE_POINTS,
};

/// A default compiled surface baked into the binary: the nodes of the
/// 3-input default lattice, which the build script compiled from the
/// default engine and wrote out as an array literal. Every surface built
/// over it borrows the `static`.
pub(crate) type BakedSurface = [f64; DEFAULT_LATTICE_POINTS.pow(3)];

/// One fuzzy logic controller of the cascade.
#[derive(Debug, Clone)]
pub(crate) struct FuzzyController {
    engine: Engine,
    surface: Option<CompiledSurface>,
}

impl FuzzyController {
    /// Wraps `engine` on `backend`. A compiled surface at the default
    /// configuration and lattice borrows the `baked` nodes, so separately
    /// built controllers (every replication of a sweep) share one sample
    /// block and none runs the engine or copies a node; anything else
    /// compiles fresh.
    pub(crate) fn new(
        engine: Engine,
        backend: BackendKind,
        baked: &'static BakedSurface,
    ) -> Result<Self, FuzzyError> {
        let surface = match backend {
            BackendKind::Exact => None,
            BackendKind::Compiled { points_per_axis }
                if *engine.config() == InferenceConfig::default()
                    && points_per_axis == DEFAULT_LATTICE_POINTS =>
            {
                Some(CompiledSurface::from_nodes(&engine, DEFAULT_LATTICE_POINTS, baked)?)
            }
            BackendKind::Compiled { points_per_axis } => {
                Some(CompiledSurface::compile(&engine, points_per_axis)?)
            }
        };
        Ok(Self { engine, surface })
    }

    pub(crate) fn backend(&self) -> BackendKind {
        match &self.surface {
            None => BackendKind::Exact,
            Some(s) => BackendKind::Compiled { points_per_axis: s.points_per_axis() },
        }
    }

    pub(crate) fn surface(&self) -> Option<&CompiledSurface> {
        self.surface.as_ref()
    }

    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Evaluates the controller on the active backend.
    #[inline]
    pub(crate) fn evaluate(&self, readings: &[f64; 3]) -> Result<f64, FuzzyError> {
        match &self.surface {
            None => self.engine.evaluate_crisp(readings),
            Some(surface) => surface.evaluate_crisp(readings),
        }
    }
}
