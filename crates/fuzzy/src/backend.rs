//! Inference backends: how a compiled controller answers queries.
//!
//! [`BackendKind`] selects one of the two ways this workspace evaluates
//! a single-output fuzzy controller; both answer through an
//! `evaluate_crisp` method of their own:
//!
//! * **Exact Mamdani** — [`Engine`] itself: fuzzify, fire the rule base,
//!   aggregate, defuzzify on every query. Each output term's membership
//!   is sampled once, when the engine is built; a query clips each term
//!   once, at the strongest firing among the rules that conclude it
//!   (`max_r min(s_r, μ) = min(max_r s_r, μ)` holds exactly, so this is
//!   the rule-by-rule surface bit for bit), and max-merges the clipped
//!   samples. O(rules + terms × samples) per call.
//! * **Compiled decision surface** — [`CompiledSurface`]: the engine's
//!   defuzzified output precomputed over a dense input lattice at build
//!   time, queried by multilinear interpolation. A handful of array
//!   reads per call, independent of rule count and defuzzifier
//!   resolution.
//!
//! A controller with `d` inputs and `n` lattice points per axis stores
//! `n^d` crisp values; the FACS controllers each have 3 inputs, so the
//! default 33-point lattice is ~36 k doubles (≈280 KiB) — resident in L2
//! cache. Compilation runs the exact engine once per lattice point, so
//! it costs as much as `n^d` exact inferences, paid once per controller
//! build (and the surface is cheap to clone: samples live behind an
//! [`Arc`]). The nodes fill in contiguous ranges, one per available
//! thread; each node is a pure function of its index, so the surface is
//! the same for any thread count. A surface whose nodes were baked into
//! the binary skips that cost: [`CompiledSurface::from_nodes`] borrows a
//! `'static` copy of [`CompiledSurface::nodes`] without running the
//! engine or copying a node.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::engine::Engine;
use crate::error::{FuzzyError, Result};

/// Default lattice points per input axis for compiled surfaces.
///
/// 33 points over each FACS input universe keeps the worst-case
/// interpolation error of the admission score well inside the band that
/// separates accept from reject at the default 0.1 threshold (the
/// equivalence property tests and EXPERIMENTS.md quantify this), while
/// the full 3-input lattice stays cache-resident.
pub const DEFAULT_LATTICE_POINTS: usize = 33;

/// The most input dimensions a [`CompiledSurface`] supports (each
/// dimension count up to it gets its own fixed-size interpolation walk).
pub const MAX_SURFACE_DIMS: usize = 8;

/// The fewest lattice nodes worth a thread of their own when a surface
/// compiles: smaller lattices fill on fewer threads (down to the calling
/// one alone) rather than pay for spawns that outlast the work.
const MIN_NODES_PER_THREAD: usize = 512;

/// Which backend a controller should use — the cheap,
/// copyable selector that configuration types carry (the surface itself
/// is built when the controller is).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// Exact Mamdani inference on every query (paper-faithful default).
    #[default]
    Exact,
    /// Precomputed decision surface, interpolated at query time.
    Compiled {
        /// Lattice points per input axis (≥ 2).
        points_per_axis: usize,
    },
}

impl BackendKind {
    /// The compiled backend at the default lattice resolution
    /// ([`DEFAULT_LATTICE_POINTS`] points per axis).
    #[must_use]
    pub fn compiled() -> Self {
        BackendKind::Compiled { points_per_axis: DEFAULT_LATTICE_POINTS }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendKind::Exact => write!(f, "exact"),
            BackendKind::Compiled { points_per_axis } => {
                write!(f, "compiled({points_per_axis})")
            }
        }
    }
}

/// The weighted corners of one slab of a surface across its first axis:
/// `(node offset, weight)`, room for every corner of the other axes.
type SlabCorners = [(usize, f64); 1 << (MAX_SURFACE_DIMS - 1)];

/// One input axis of a compiled surface.
#[derive(Debug, Clone)]
struct Axis {
    name: String,
    min: f64,
    max: f64,
    points: usize,
}

impl Axis {
    /// The lattice cell a finite `value` falls in, clamped into the
    /// universe, and how far across that cell it sits (0 at its lower
    /// knot, 1 at its upper one). A value on an inner knot starts the
    /// cell above it; the top knot ends the last cell. Every lookup
    /// locates through here, so a surface answers a reading from the
    /// cell its [`first_axis_segment`](CompiledSurface::first_axis_segment)
    /// names.
    #[inline(always)]
    fn cell(&self, value: f64) -> (usize, f64) {
        let x = value.clamp(self.min, self.max);
        let t = (x - self.min) / (self.max - self.min) * (self.points - 1) as f64;
        // `t >= +0.0` after the clamp, so truncation is the floor;
        // `f64::floor` is a libcall on targets without SSE4.1.
        let cell = (t as usize).min(self.points - 2);
        (cell, (t - cell as f64).clamp(0.0, 1.0))
    }
}

/// The node block of a compiled surface.
#[derive(Debug, Clone)]
enum Nodes {
    /// Filled at run time, shared by every clone.
    Shared(Arc<[f64]>),
    /// Baked into the binary.
    Static(&'static [f64]),
}

impl Nodes {
    #[inline(always)]
    fn as_slice(&self) -> &[f64] {
        match self {
            Nodes::Shared(values) => values,
            Nodes::Static(values) => values,
        }
    }
}

/// A compiled decision surface: the defuzzified output of an [`Engine`]
/// precomputed over a dense input lattice, answered by multilinear
/// interpolation.
///
/// Values at lattice nodes are bit-exact against the source engine;
/// between nodes the surface is the piecewise-multilinear interpolant,
/// so accuracy is governed by `points_per_axis`. Cloning is cheap (the
/// sample block is shared behind an [`Arc`], or borrowed from the
/// binary), which lets one compiled controller be stamped out per cell
/// or per thread without recompiling.
///
/// # Examples
///
/// ```
/// use facs_fuzzy::{
///     CompiledSurface, Engine, MembershipFunction, Rule, Variable,
/// };
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// let x = Variable::builder("x", 0.0, 10.0)
///     .term("lo", MembershipFunction::triangular(0.0, 0.0, 10.0)?)
///     .term("hi", MembershipFunction::triangular(10.0, 10.0, 0.0)?)
///     .build()?;
/// let y = Variable::builder("y", 0.0, 1.0)
///     .term("lo", MembershipFunction::triangular(0.0, 0.0, 1.0)?)
///     .term("hi", MembershipFunction::triangular(1.0, 1.0, 0.0)?)
///     .build()?;
/// let engine = Engine::builder()
///     .input(x)
///     .output(y)
///     .rule(Rule::when("x", "lo").then("y", "lo").build()?)
///     .rule(Rule::when("x", "hi").then("y", "hi").build()?)
///     .build()?;
/// let surface = CompiledSurface::compile(&engine, 65)?;
/// let exact = engine.evaluate_crisp(&[7.3])?;
/// let fast = surface.evaluate_crisp(&[7.3])?;
/// assert!((exact - fast).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSurface {
    axes: Vec<Axis>,
    /// Row-major strides per axis (last axis contiguous); entries past
    /// the axis count are unused.
    strides: [usize; MAX_SURFACE_DIMS],
    values: Nodes,
}

impl CompiledSurface {
    /// Precomputes `engine`'s defuzzified output over a dense lattice of
    /// `points_per_axis` points per input axis.
    ///
    /// # Errors
    ///
    /// * [`FuzzyError::InvalidResolution`] — fewer than 2 points per
    ///   axis, or a lattice too large to allocate (> 2^26 nodes);
    /// * [`FuzzyError::InvalidMembership`] — the engine has no inputs or
    ///   more than [`MAX_SURFACE_DIMS`] inputs;
    /// * any evaluation error from the engine at a lattice node (e.g.
    ///   [`FuzzyError::NoRuleFired`] where the rule base has a hole).
    pub fn compile(engine: &Engine, points_per_axis: usize) -> Result<Self> {
        let (axes, strides, total) = Self::lattice(engine, points_per_axis)?;
        let dims = axes.len();

        // Fills `out` with the nodes from flat index `start` on (row-major,
        // last axis fastest), stopping at the first failing node.
        let fill = |start: usize, out: &mut [f64]| -> Result<()> {
            let mut coords = [0.0f64; MAX_SURFACE_DIMS];
            for (i, value) in out.iter_mut().enumerate() {
                let mut rest = start + i;
                for (d, axis) in axes.iter().enumerate().rev() {
                    let t = (rest % axis.points) as f64 / (axis.points - 1) as f64;
                    coords[d] = axis.min + (axis.max - axis.min) * t;
                    rest /= axis.points;
                }
                *value = engine.evaluate_crisp(&coords[..dims])?;
            }
            Ok(())
        };
        // Every node is a pure function of its index, so contiguous
        // ranges fill in parallel into one buffer in node order: the
        // surface is identical for any thread count.
        let threads = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(total.div_ceil(MIN_NODES_PER_THREAD));
        let chunk = total.div_ceil(threads);
        let mut values = vec![0.0f64; total];
        std::thread::scope(|scope| {
            let mut ranges = values.chunks_mut(chunk).enumerate();
            let (_, first) = ranges.next().expect("a lattice has at least 2 nodes");
            let workers: Vec<_> =
                ranges.map(|(k, out)| scope.spawn(move || fill(k * chunk, out))).collect();
            // Joined in range order, so the error reported is that of
            // the lowest-index failing node.
            let mut result = fill(0, first);
            for worker in workers {
                let range_result =
                    worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                result = result.and(range_result);
            }
            result
        })?;
        Ok(Self { axes, strides, values: Nodes::Shared(values.into()) })
    }

    /// Rebuilds the surface [`compile`](Self::compile) would produce for
    /// `engine` at `points_per_axis` from its precomputed node values
    /// (row-major, last axis fastest — the order of
    /// [`nodes`](Self::nodes)), without evaluating the engine. The
    /// surface borrows `nodes`: every surface built from one block
    /// shares it, and none copies it.
    ///
    /// The caller vouches that `nodes` came from this engine; only the
    /// count is checked.
    ///
    /// # Errors
    ///
    /// * [`FuzzyError::InvalidResolution`] — as for
    ///   [`compile`](Self::compile), or `nodes` does not hold exactly one
    ///   value per lattice node;
    /// * [`FuzzyError::InvalidMembership`] — as for
    ///   [`compile`](Self::compile).
    pub fn from_nodes(
        engine: &Engine,
        points_per_axis: usize,
        nodes: &'static [f64],
    ) -> Result<Self> {
        let (axes, strides, total) = Self::lattice(engine, points_per_axis)?;
        if nodes.len() != total {
            return Err(FuzzyError::InvalidResolution { samples: nodes.len() });
        }
        Ok(Self { axes, strides, values: Nodes::Static(nodes) })
    }

    /// The axes, row-major strides and node count of `engine`'s lattice
    /// at `points_per_axis` points per axis.
    fn lattice(
        engine: &Engine,
        points_per_axis: usize,
    ) -> Result<(Vec<Axis>, [usize; MAX_SURFACE_DIMS], usize)> {
        if points_per_axis < 2 {
            return Err(FuzzyError::InvalidResolution { samples: points_per_axis });
        }
        let dims = engine.inputs().len();
        if dims == 0 || dims > MAX_SURFACE_DIMS {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "compiled surfaces support 1..={MAX_SURFACE_DIMS} inputs (engine has {dims})"
                ),
            });
        }
        let axes: Vec<Axis> = engine
            .inputs()
            .iter()
            .map(|v| Axis {
                name: v.name().to_owned(),
                min: v.min(),
                max: v.max(),
                points: points_per_axis,
            })
            .collect();
        let mut total = 1usize;
        for _ in 0..dims {
            total = total
                .checked_mul(points_per_axis)
                .filter(|&t| t <= 1 << 26)
                .ok_or(FuzzyError::InvalidResolution { samples: points_per_axis })?;
        }
        let mut strides = [1usize; MAX_SURFACE_DIMS];
        for d in (0..dims - 1).rev() {
            strides[d] = strides[d + 1] * points_per_axis;
        }
        Ok((axes, strides, total))
    }

    /// The node values, row-major over the lattice (last axis fastest):
    /// what [`from_nodes`](Self::from_nodes) takes back.
    #[must_use]
    pub fn nodes(&self) -> &[f64] {
        self.values.as_slice()
    }

    /// Input dimensionality of the surface.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.axes.len()
    }

    /// Lattice points per input axis.
    #[must_use]
    pub fn points_per_axis(&self) -> usize {
        self.axes[0].points
    }

    /// Total number of precomputed lattice nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes().len()
    }

    /// `false` always — a compiled surface holds at least `2^dims` nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes().is_empty()
    }

    /// `true` when `self` and `other` share one sample block (clones of
    /// the same compilation, or surfaces built from one baked block — no
    /// memory was duplicated).
    #[must_use]
    pub fn shares_samples(&self, other: &CompiledSurface) -> bool {
        std::ptr::eq(self.nodes(), other.nodes())
    }

    /// Evaluates the surface for readings given in input-declaration
    /// order by multilinear interpolation over the precomputed lattice:
    /// locates the enclosing cell per axis, then blends its `2^dims`
    /// corner values. Readings are clamped into each axis universe,
    /// mirroring the exact engine.
    ///
    /// # Errors
    ///
    /// [`FuzzyError::NonFiniteInput`] on NaN/infinite readings, plus
    /// arity errors when `readings` does not match the input count.
    pub fn evaluate_crisp(&self, readings: &[f64]) -> Result<f64> {
        // One dispatch on the axis count picks the walk built for it.
        match self.axes.len() {
            1 => self.interpolate::<1>(readings),
            2 => self.interpolate::<2>(readings),
            3 => self.interpolate::<3>(readings),
            4 => self.interpolate::<4>(readings),
            5 => self.interpolate::<5>(readings),
            6 => self.interpolate::<6>(readings),
            7 => self.interpolate::<7>(readings),
            8 => self.interpolate::<8>(readings),
            dims => unreachable!("a surface has 1..={MAX_SURFACE_DIMS} axes, not {dims}"),
        }
    }

    /// The segment of the first axis that `reading` falls in: the
    /// lattice cell, `0..points_per_axis() - 1`, that
    /// [`evaluate_crisp`](Self::evaluate_crisp) interpolates that axis
    /// across, found by the same arithmetic. A reading on an inner knot
    /// falls in the segment above it, the top knot in the last segment,
    /// and a reading outside the universe is clamped first.
    ///
    /// # Errors
    ///
    /// [`FuzzyError::NonFiniteInput`] on a NaN or infinite reading.
    #[inline]
    pub fn first_axis_segment(&self, reading: f64) -> Result<usize> {
        let axis = &self.axes[0];
        if !reading.is_finite() {
            return Err(FuzzyError::NonFiniteInput { variable: axis.name.clone(), value: reading });
        }
        Ok(axis.cell(reading).0)
    }

    /// The surface's values at the first axis's knots, in knot order,
    /// with every other axis held at `others` (one reading per axis after
    /// the first, located as [`evaluate_crisp`](Self::evaluate_crisp)
    /// locates it). Nothing is allocated.
    ///
    /// The interpolant is linear in the first axis inside each of its
    /// segments ([`first_axis_segment`](Self::first_axis_segment)), so
    /// over a segment it lies between the values at the segment's two
    /// knots, float error aside, and over the whole axis between the
    /// least and the greatest knot value.
    ///
    /// # Errors
    ///
    /// As [`evaluate_crisp`](Self::evaluate_crisp): a wrong
    /// reading count or a non-finite reading.
    pub fn first_axis_knots(&self, others: &[f64]) -> Result<impl Iterator<Item = f64> + '_> {
        let (base, corners, count) = match self.axes.len() {
            1 => self.slab_corners::<1>(others),
            2 => self.slab_corners::<2>(others),
            3 => self.slab_corners::<3>(others),
            4 => self.slab_corners::<4>(others),
            5 => self.slab_corners::<5>(others),
            6 => self.slab_corners::<6>(others),
            7 => self.slab_corners::<7>(others),
            8 => self.slab_corners::<8>(others),
            dims => unreachable!("a surface has 1..={MAX_SURFACE_DIMS} axes, not {dims}"),
        }?;
        let values = self.values.as_slice();
        let stride = self.strides[0];
        Ok((0..self.axes[0].points).map(move |knot| {
            let slab = &values[base + knot * stride..];
            corners[..count].iter().map(|&(offset, weight)| weight * slab[offset]).sum()
        }))
    }

    /// What [`first_axis_knots`](Self::first_axis_knots) blends on a
    /// surface of `D` axes: the node of the first knot's slab that the
    /// other readings locate to, and the corners of a slab with non-zero
    /// weight (offset and weight; the first `count` entries), the same
    /// for every knot.
    fn slab_corners<const D: usize>(&self, others: &[f64]) -> Result<(usize, SlabCorners, usize)> {
        if others.len() + 1 != D {
            return Err(self.arity_error(others.len() + 1));
        }
        let mut readings = [self.axes[0].min; D];
        readings[1..].copy_from_slice(others);
        // Reading 0 sits on knot 0, so `base` is that knot's corner and
        // the first axis's fraction is 0.
        let (base, frac) = self.locate::<D>(&readings)?;
        let mut corners: SlabCorners = [(0, 0.0); 1 << (MAX_SURFACE_DIMS - 1)];
        let mut count = 0;
        for corner in (0..(1usize << D)).step_by(2) {
            let mut weight = 1.0;
            let mut offset = 0usize;
            for (d, (&f, &stride)) in frac.iter().zip(&self.strides).enumerate().skip(1) {
                if corner & (1 << d) != 0 {
                    weight *= f;
                    offset += stride;
                } else {
                    weight *= 1.0 - f;
                }
            }
            if weight > 0.0 {
                corners[count] = (offset, weight);
                count += 1;
            }
        }
        Ok((base, corners, count))
    }

    /// The arity error for `given` positional readings, matching the
    /// exact engine's.
    #[cold]
    fn arity_error(&self, given: usize) -> FuzzyError {
        match self.axes.get(given) {
            Some(axis) => FuzzyError::MissingInput { variable: axis.name.clone() },
            None => FuzzyError::UnknownVariable {
                variable: format!("positional input #{}", self.axes.len()),
            },
        }
    }

    /// Locates the lattice cell enclosing `readings` on a surface of `D`
    /// axes: the flattened base node index plus the per-axis
    /// interpolation fractions.
    // `always`: the kernel calls `evaluate_crisp` per admission, and
    // letting LLVM materialize the (usize, [f64; D]) return through a
    // real call costs ~4% of simulator throughput.
    #[inline(always)]
    fn locate<const D: usize>(&self, readings: &[f64]) -> Result<(usize, [f64; D])> {
        let readings: &[f64; D] =
            readings.try_into().map_err(|_| self.arity_error(readings.len()))?;
        let axes: &[Axis; D] = self.axes.as_slice().try_into().expect("dispatched on axis count");
        let mut frac = [0.0f64; D];
        let mut base = 0usize;
        for d in 0..D {
            let (axis, value) = (&axes[d], readings[d]);
            if !value.is_finite() {
                return Err(FuzzyError::NonFiniteInput { variable: axis.name.clone(), value });
            }
            let (cell, f) = axis.cell(value);
            frac[d] = f;
            base += cell * self.strides[d];
        }
        Ok((base, frac))
    }

    /// Multilinear interpolation on a surface of `D` axes. `D` is a
    /// constant, so the per-axis loops and the `2^D` corner walk unroll.
    #[inline(always)]
    fn interpolate<const D: usize>(&self, readings: &[f64]) -> Result<f64> {
        let (base, frac) = self.locate::<D>(readings)?;
        let values = self.values.as_slice();
        // Fused corner walk: offsets and weights in one pass, loading
        // only corners with non-zero weight.
        let mut acc = 0.0;
        for corner in 0..(1usize << D) {
            let mut weight = 1.0;
            let mut offset = 0usize;
            for (d, (&f, &stride)) in frac.iter().zip(&self.strides).enumerate() {
                if corner & (1 << d) != 0 {
                    weight *= f;
                    offset += stride;
                } else {
                    weight *= 1.0 - f;
                }
            }
            if weight > 0.0 {
                acc += weight * values[base + offset];
            }
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipFunction;
    use crate::rule::Rule;
    use crate::variable::Variable;

    fn ramp_engine() -> Engine {
        let x = Variable::builder("x", 0.0, 10.0)
            .term("lo", MembershipFunction::triangular(0.0, 0.0, 10.0).unwrap())
            .term("hi", MembershipFunction::triangular(10.0, 10.0, 0.0).unwrap())
            .build()
            .unwrap();
        let y = Variable::builder("y", 0.0, 1.0)
            .term("lo", MembershipFunction::triangular(0.0, 0.0, 1.0).unwrap())
            .term("hi", MembershipFunction::triangular(1.0, 1.0, 0.0).unwrap())
            .build()
            .unwrap();
        Engine::builder()
            .input(x)
            .output(y)
            .rule(Rule::when("x", "lo").then("y", "lo").build().unwrap())
            .rule(Rule::when("x", "hi").then("y", "hi").build().unwrap())
            .build()
            .unwrap()
    }

    fn two_input_engine() -> Engine {
        let a = Variable::builder("a", 0.0, 1.0)
            .term("lo", MembershipFunction::triangular(0.0, 0.0, 1.0).unwrap())
            .term("hi", MembershipFunction::triangular(1.0, 1.0, 0.0).unwrap())
            .build()
            .unwrap();
        let b = Variable::builder("b", -1.0, 1.0)
            .term("lo", MembershipFunction::triangular(-1.0, 0.0, 2.0).unwrap())
            .term("hi", MembershipFunction::triangular(1.0, 2.0, 0.0).unwrap())
            .build()
            .unwrap();
        let out = Variable::builder("out", 0.0, 100.0)
            .term("small", MembershipFunction::triangular(0.0, 0.0, 50.0).unwrap())
            .term("large", MembershipFunction::triangular(100.0, 50.0, 0.0).unwrap())
            .build()
            .unwrap();
        Engine::builder()
            .input(a)
            .input(b)
            .output(out)
            .rule(Rule::when("a", "lo").and("b", "lo").then("out", "small").build().unwrap())
            .rule(Rule::when("a", "hi").and("b", "hi").then("out", "large").build().unwrap())
            .rule(Rule::when("a", "lo").and("b", "hi").then("out", "large").build().unwrap())
            .rule(Rule::when("a", "hi").and("b", "lo").then("out", "large").build().unwrap())
            .build()
            .unwrap()
    }

    fn three_input_engine() -> Engine {
        let mut builder = Engine::builder();
        for (name, min, max) in [("a", 0.0, 1.0), ("b", -1.0, 1.0), ("c", 0.0, 5.0)] {
            builder = builder.input(
                Variable::builder(name, min, max)
                    .term("lo", MembershipFunction::triangular(min, 0.0, max - min).unwrap())
                    .term("hi", MembershipFunction::triangular(max, max - min, 0.0).unwrap())
                    .build()
                    .unwrap(),
            );
        }
        builder = builder.output(
            Variable::builder("out", 0.0, 100.0)
                .term("small", MembershipFunction::triangular(0.0, 0.0, 50.0).unwrap())
                .term("mid", MembershipFunction::triangular(50.0, 50.0, 50.0).unwrap())
                .term("large", MembershipFunction::triangular(100.0, 50.0, 0.0).unwrap())
                .build()
                .unwrap(),
        );
        for (a, b, c, out) in [
            ("lo", "lo", "lo", "small"),
            ("lo", "lo", "hi", "mid"),
            ("lo", "hi", "lo", "large"),
            ("lo", "hi", "hi", "small"),
            ("hi", "lo", "lo", "mid"),
            ("hi", "lo", "hi", "large"),
            ("hi", "hi", "lo", "small"),
            ("hi", "hi", "hi", "large"),
        ] {
            builder = builder
                .rule(Rule::when("a", a).and("b", b).and("c", c).then("out", out).build().unwrap());
        }
        builder.build().unwrap()
    }

    /// The dimension-generic lookup: arity check, per-axis locate, then
    /// the `2^dims` corner walk, all over the runtime axis count. The
    /// fixed-size walk must answer exactly as this does. It locates with
    /// `floor`, so the comparison also pins `locate`'s truncating cast.
    fn reference_walk(surface: &CompiledSurface, readings: &[f64]) -> Result<f64> {
        let dims = surface.axes.len();
        if readings.len() < dims {
            return Err(FuzzyError::MissingInput {
                variable: surface.axes[readings.len()].name.clone(),
            });
        }
        if readings.len() > dims {
            return Err(FuzzyError::UnknownVariable {
                variable: format!("positional input #{dims}"),
            });
        }
        let mut frac = [0.0f64; MAX_SURFACE_DIMS];
        let mut base = 0usize;
        for (d, axis) in surface.axes.iter().enumerate() {
            let value = readings[d];
            if !value.is_finite() {
                return Err(FuzzyError::NonFiniteInput { variable: axis.name.clone(), value });
            }
            let x = value.clamp(axis.min, axis.max);
            let t = (x - axis.min) / (axis.max - axis.min) * (axis.points - 1) as f64;
            let cell = (t.floor() as usize).min(axis.points - 2);
            frac[d] = (t - cell as f64).clamp(0.0, 1.0);
            base += cell * surface.strides[d];
        }
        let mut acc = 0.0;
        for corner in 0..(1usize << dims) {
            let mut weight = 1.0;
            let mut offset = 0usize;
            for (d, &stride) in surface.strides[..dims].iter().enumerate() {
                if corner & (1 << d) != 0 {
                    weight *= frac[d];
                    offset += stride;
                } else {
                    weight *= 1.0 - frac[d];
                }
            }
            if weight > 0.0 {
                acc += weight * surface.nodes()[base + offset];
            }
        }
        Ok(acc)
    }

    #[test]
    fn fixed_size_walk_matches_the_generic_reference_bit_for_bit() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let same = |surface: &CompiledSurface, readings: &[f64]| {
            let (fast, slow) =
                (surface.evaluate_crisp(readings), reference_walk(surface, readings));
            match (&fast, &slow) {
                (Ok(f), Ok(s)) => assert_eq!(f.to_bits(), s.to_bits(), "{readings:?}"),
                _ => assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{readings:?}"),
            }
        };
        for (engine, points) in
            [(ramp_engine(), 17), (two_input_engine(), 9), (three_input_engine(), 7)]
        {
            let surface = CompiledSurface::compile(&engine, points).unwrap();
            let dims = surface.dims();
            let axes = surface.axes.clone();
            // Per axis: the bounds, every lattice knot, just outside the
            // universe on both sides, and far outside it.
            let special = |axis: &Axis| -> Vec<f64> {
                let span = axis.max - axis.min;
                let mut values: Vec<f64> = (0..axis.points)
                    .map(|k| axis.min + span * (k as f64 / (axis.points - 1) as f64))
                    .collect();
                values.extend([axis.min - 1e-9, axis.max + 1e-9, axis.min - span, 1e6 * axis.max]);
                values
            };
            let mut readings = vec![0.0; dims];
            for _ in 0..4000 {
                for (d, axis) in axes.iter().enumerate() {
                    readings[d] = match (uniform() * 4.0) as u32 {
                        0 => {
                            let choices = special(axis);
                            choices[(uniform() * choices.len() as f64) as usize]
                        }
                        1 => axis.min - 0.5 + (axis.max - axis.min + 1.0) * uniform(),
                        _ => axis.min + (axis.max - axis.min) * uniform(),
                    };
                }
                same(&surface, &readings);
            }
            for (d, axis) in axes.iter().enumerate() {
                for knot in special(axis) {
                    readings.iter_mut().for_each(|r| *r = 0.5 * (axis.min + axis.max));
                    readings[d] = knot;
                    same(&surface, &readings);
                }
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    readings[d] = bad;
                    same(&surface, &readings);
                    assert!(matches!(
                        surface.evaluate_crisp(&readings),
                        Err(FuzzyError::NonFiniteInput { .. })
                    ));
                }
                readings[d] = axis.min;
            }
            same(&surface, &readings[..dims - 1]);
            same(&surface, &[readings.as_slice(), &[0.0]].concat());
        }
    }

    #[test]
    fn lattice_nodes_are_bit_exact() {
        let engine = ramp_engine();
        let surface = CompiledSurface::compile(&engine, 17).unwrap();
        for i in 0..17 {
            let x = 10.0 * f64::from(i) / 16.0;
            assert_eq!(
                surface.evaluate_crisp(&[x]).unwrap(),
                engine.evaluate_crisp(&[x]).unwrap(),
                "node {i} diverged"
            );
        }
    }

    #[test]
    fn parallel_fill_stores_every_node_in_row_major_order() {
        // 65² = 4,225 nodes: enough to split across every available
        // thread; each stored value must be the engine's at its node.
        let engine = two_input_engine();
        let surface = CompiledSurface::compile(&engine, 65).unwrap();
        for i in 0..65 {
            for j in 0..65 {
                let a = f64::from(i) / 64.0;
                let b = -1.0 + 2.0 * (f64::from(j) / 64.0);
                let exact = engine.evaluate_crisp(&[a, b]).unwrap();
                assert_eq!(surface.nodes()[i as usize * 65 + j as usize], exact, "node ({i}, {j})");
            }
        }
    }

    #[test]
    fn off_node_queries_are_close_to_exact() {
        let engine = two_input_engine();
        let surface = CompiledSurface::compile(&engine, 33).unwrap();
        let mut worst = 0.0f64;
        for i in 0..=20 {
            for j in 0..=20 {
                let a = f64::from(i) / 20.0 + 0.013;
                let b = -1.0 + 2.0 * f64::from(j) / 20.0 + 0.007;
                let exact = engine.evaluate_crisp(&[a, b]).unwrap();
                let fast = surface.evaluate_crisp(&[a, b]).unwrap();
                worst = worst.max((exact - fast).abs());
            }
        }
        assert!(worst < 2.0, "max divergence {worst} over a 100-unit universe");
    }

    #[test]
    fn out_of_universe_readings_are_clamped() {
        let engine = ramp_engine();
        let surface = CompiledSurface::compile(&engine, 9).unwrap();
        assert_eq!(
            surface.evaluate_crisp(&[-5.0]).unwrap(),
            surface.evaluate_crisp(&[0.0]).unwrap()
        );
        assert_eq!(
            surface.evaluate_crisp(&[99.0]).unwrap(),
            surface.evaluate_crisp(&[10.0]).unwrap()
        );
    }

    #[test]
    fn arity_and_finiteness_errors_match_the_exact_backend() {
        let engine = two_input_engine();
        let surface = CompiledSurface::compile(&engine, 5).unwrap();
        assert!(matches!(surface.evaluate_crisp(&[0.5]), Err(FuzzyError::MissingInput { .. })));
        assert!(matches!(
            surface.evaluate_crisp(&[0.5, 0.5, 0.5]),
            Err(FuzzyError::UnknownVariable { .. })
        ));
        assert!(matches!(
            surface.evaluate_crisp(&[f64::NAN, 0.5]),
            Err(FuzzyError::NonFiniteInput { .. })
        ));
        assert!(matches!(engine.evaluate_crisp(&[0.5]), Err(FuzzyError::MissingInput { .. })));
        assert!(matches!(
            engine.evaluate_crisp(&[0.5, 0.5, 0.5]),
            Err(FuzzyError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn first_axis_knots_bound_every_segment_of_a_sweep() {
        for (engine, points) in [(ramp_engine(), 9), (three_input_engine(), 7)] {
            let surface = CompiledSurface::compile(&engine, points).unwrap();
            let axes = engine.inputs();
            let (min, max) = (axes[0].min(), axes[0].max());
            let knot_at = |k: usize| min + (max - min) * (k as f64 / (points - 1) as f64);
            let others: Vec<Vec<f64>> = match axes.len() {
                1 => vec![vec![]],
                _ => vec![vec![-1.0, 0.0], vec![-0.37, 2.9], vec![0.5, 5.0], vec![3.0, -2.0]],
            };
            for rest in others {
                let at = |x: f64| {
                    let readings: Vec<f64> =
                        std::iter::once(x).chain(rest.iter().copied()).collect();
                    surface.evaluate_crisp(&readings).unwrap()
                };
                let knots: Vec<f64> = surface.first_axis_knots(&rest).unwrap().collect();
                assert_eq!(knots.len(), points);
                for (k, &value) in knots.iter().enumerate() {
                    assert_eq!(value, at(knot_at(k)), "knot {k} at {rest:?}");
                    assert_eq!(surface.first_axis_segment(knot_at(k)).unwrap(), k.min(points - 2));
                }
                // A sweep past both ends, every knot and one ulp either
                // side of it: each value lies between the knots of the
                // segment it is located in.
                let ulps = (0..points).flat_map(|k| {
                    let x = knot_at(k);
                    [f64::from_bits(x.to_bits().wrapping_sub(1)), f64::from_bits(x.to_bits() + 1)]
                });
                let sweep = (-20..=420).map(|i| min + (max - min) * f64::from(i) / 400.0);
                for x in sweep.chain(ulps).filter(|x| x.is_finite()) {
                    let segment = surface.first_axis_segment(x).unwrap();
                    let t = (x.clamp(min, max) - min) / (max - min) * (points - 1) as f64;
                    assert_eq!(segment, (t.floor() as usize).min(points - 2), "{x}");
                    let (a, b) = (knots[segment], knots[segment + 1]);
                    let value = at(x);
                    assert!(a.min(b) - 1e-9 <= value && value <= a.max(b) + 1e-9, "{x}: {value}");
                }
            }
        }
        let surface = CompiledSurface::compile(&two_input_engine(), 5).unwrap();
        assert!(matches!(surface.first_axis_knots(&[]), Err(FuzzyError::MissingInput { .. })));
        assert!(matches!(
            surface.first_axis_knots(&[f64::NAN]),
            Err(FuzzyError::NonFiniteInput { .. })
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                surface.first_axis_segment(bad),
                Err(FuzzyError::NonFiniteInput { .. })
            ));
        }
    }

    #[test]
    fn compile_rejects_degenerate_lattices() {
        let engine = ramp_engine();
        assert!(matches!(
            CompiledSurface::compile(&engine, 1),
            Err(FuzzyError::InvalidResolution { .. })
        ));
    }

    #[test]
    fn from_nodes_round_trips_a_compiled_surface() {
        let engine = two_input_engine();
        let compiled = CompiledSurface::compile(&engine, 17).unwrap();
        let nodes: &'static [f64] = compiled.nodes().to_vec().leak();
        let rebuilt = CompiledSurface::from_nodes(&engine, 17, nodes).unwrap();
        assert!(rebuilt.shares_samples(&CompiledSurface::from_nodes(&engine, 17, nodes).unwrap()));
        assert!(!rebuilt.shares_samples(&compiled));
        assert_eq!(rebuilt.points_per_axis(), 17);
        for i in 0..=12 {
            for j in 0..=12 {
                let a = f64::from(i) / 12.0 + 0.011;
                let b = -1.0 + 2.0 * f64::from(j) / 12.0 - 0.017;
                assert_eq!(
                    rebuilt.evaluate_crisp(&[a, b]).unwrap().to_bits(),
                    compiled.evaluate_crisp(&[a, b]).unwrap().to_bits(),
                    "({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn from_nodes_rejects_a_node_block_that_misses_the_lattice() {
        let engine = two_input_engine();
        let nodes = CompiledSurface::compile(&engine, 9).unwrap().nodes().to_vec();
        let short = nodes[..nodes.len() - 1].to_vec();
        let mut long = nodes.clone();
        long.push(0.0);
        for bad in [short, long, Vec::new()] {
            let len = bad.len();
            assert_eq!(
                CompiledSurface::from_nodes(&engine, 9, bad.leak()).unwrap_err(),
                FuzzyError::InvalidResolution { samples: len }
            );
        }
        assert!(matches!(
            CompiledSurface::from_nodes(&engine, 1, &[0.0]),
            Err(FuzzyError::InvalidResolution { samples: 1 })
        ));
        assert!(matches!(
            CompiledSurface::from_nodes(&engine, 0, &[]),
            Err(FuzzyError::InvalidResolution { samples: 0 })
        ));
    }

    #[test]
    fn surface_metadata_is_consistent() {
        let surface = CompiledSurface::compile(&two_input_engine(), 9).unwrap();
        assert_eq!(surface.dims(), 2);
        assert_eq!(surface.points_per_axis(), 9);
        assert_eq!(surface.len(), 81);
        assert!(!surface.is_empty());
    }

    #[test]
    fn clones_share_the_sample_block() {
        let surface = CompiledSurface::compile(&ramp_engine(), 33).unwrap();
        let clone = surface.clone();
        assert!(surface.shares_samples(&clone));
        assert!(!surface.shares_samples(&CompiledSurface::compile(&ramp_engine(), 33).unwrap()));
    }

    #[test]
    fn backend_kind_selector() {
        assert_eq!(BackendKind::default(), BackendKind::Exact);
        let compiled = BackendKind::compiled();
        assert_eq!(compiled, BackendKind::Compiled { points_per_axis: DEFAULT_LATTICE_POINTS });
        assert_eq!(compiled.to_string(), "compiled(33)");
        assert_eq!(BackendKind::Exact.to_string(), "exact");
    }

    #[test]
    fn surface_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledSurface>();
    }
}
