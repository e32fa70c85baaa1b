//! The state and dispatch FLC1 and FLC2 share: a rule engine plus, on the
//! compiled backend, its decision surface.

use std::sync::OnceLock;

use facs_fuzzy::{
    BackendKind, CompiledSurface, Engine, FuzzyError, InferenceBackend, InferenceConfig,
    DEFAULT_LATTICE_POINTS,
};

/// One fuzzy logic controller of the cascade.
#[derive(Debug, Clone)]
pub(crate) struct FuzzyController {
    engine: Engine,
    surface: Option<CompiledSurface>,
}

impl FuzzyController {
    /// Wraps `engine` on `backend`. A compiled surface at the default
    /// configuration and lattice is fetched from (or compiled into) the
    /// process-wide `cache`, so separately built controllers (every
    /// replication of a sweep) share one; anything else compiles fresh.
    /// Two threads racing the empty cache may both compile, but
    /// `OnceLock` guarantees they end up sharing one surface.
    pub(crate) fn new(
        engine: Engine,
        backend: BackendKind,
        cache: &'static OnceLock<CompiledSurface>,
    ) -> Result<Self, FuzzyError> {
        let surface = match backend {
            BackendKind::Exact => None,
            BackendKind::Compiled { points_per_axis }
                if *engine.config() == InferenceConfig::default()
                    && points_per_axis == DEFAULT_LATTICE_POINTS =>
            {
                Some(match cache.get() {
                    Some(cached) => cached.clone(),
                    None => {
                        let surface = CompiledSurface::compile(&engine, points_per_axis)?;
                        cache.get_or_init(|| surface).clone()
                    }
                })
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
