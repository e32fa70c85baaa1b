//! The state and dispatch FLC1 and FLC2 share: a rule engine plus, on the
//! compiled backend, its decision surface.

use std::sync::OnceLock;

use facs_fuzzy::{
    BackendKind, CompiledSurface, Engine, FuzzyError, InferenceBackend, InferenceConfig,
    DEFAULT_LATTICE_POINTS,
};

/// A default compiled surface baked into the binary: the little-endian
/// `f64` nodes the build script compiled from the default engine,
/// decoded at most once per process.
pub(crate) struct BakedSurface {
    bytes: &'static [u8],
    decoded: OnceLock<CompiledSurface>,
}

impl BakedSurface {
    pub(crate) const fn new(bytes: &'static [u8]) -> Self {
        Self { bytes, decoded: OnceLock::new() }
    }

    /// The surface over `engine`'s default lattice, shared by every
    /// caller in the process.
    fn surface(&self, engine: &Engine) -> Result<CompiledSurface, FuzzyError> {
        if let Some(decoded) = self.decoded.get() {
            return Ok(decoded.clone());
        }
        let nodes = self
            .bytes
            .chunks_exact(8)
            .map(|node| f64::from_le_bytes(node.try_into().expect("chunks of 8 bytes")))
            .collect();
        let surface = CompiledSurface::from_nodes(engine, DEFAULT_LATTICE_POINTS, nodes)?;
        Ok(self.decoded.get_or_init(|| surface).clone())
    }
}

/// One fuzzy logic controller of the cascade.
#[derive(Debug, Clone)]
pub(crate) struct FuzzyController {
    engine: Engine,
    surface: Option<CompiledSurface>,
}

impl FuzzyController {
    /// Wraps `engine` on `backend`. A compiled surface at the default
    /// configuration and lattice is the `baked` one, so separately built
    /// controllers (every replication of a sweep) share one sample block
    /// and none runs the engine; anything else compiles fresh.
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
                Some(baked.surface(&engine)?)
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
