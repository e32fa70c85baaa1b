//! Declarative workload descriptions and the named scenario catalog.
//!
//! A [`Workload`] is plain data — arrival pattern, spawn placement,
//! speed/angle/distance distributions, mobility model and traffic mix —
//! that deterministically expands into a list of [`UserSpec`]s for a
//! given grid, request count, window and seed. [`crate::scenario::ScenarioConfig`] assembles
//! its knobs into a `Workload`, and the `experiments` binary runs every
//! entry of the [`catalog`].
//!
//! The [`catalog`] names the scenario families the suite ships beyond
//! the paper's homogeneous Poisson/hex-grid setup: hotspot cells, flash
//! crowds, rush-hour time-varying arrival rates, heterogeneous
//! service-class mixes (cf. arXiv:1412.3630, arXiv:1004.4444) and
//! highway-corridor mobility.

use std::collections::VecDeque;

use facs_cac::{ServiceProfile, ServiceProfileSet};
use serde::{Deserialize, Serialize};

use crate::engine::{MobilityKind, UserSpec};
use crate::geometry::{HexGrid, Point};
use crate::mobility::{MobileState, Walker};
use crate::rng::SimRng;
use crate::scenario::ScenarioConfig;
use crate::traffic::{HoldingTimes, TrafficMix};

/// How user speed is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedSpec {
    /// Every user moves at exactly this speed (km/h) — Fig. 7's curves.
    Fixed(f64),
    /// Uniform over the paper's 0–120 km/h range.
    PaperUniform,
    /// Uniform over a custom range.
    Uniform(f64, f64),
}

impl SpeedSpec {
    fn sample(self, rng: &mut SimRng) -> f64 {
        match self {
            SpeedSpec::Fixed(v) => v,
            SpeedSpec::PaperUniform => rng.uniform_range(0.0, 120.0),
            SpeedSpec::Uniform(lo, hi) => rng.uniform_range(lo, hi),
        }
    }
}

/// How the user's heading (and therefore FLC1's angle input) is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AngleSpec {
    /// The observed angle at request time is exactly this value (degrees)
    /// — Fig. 8's curves.
    Fixed(f64),
    /// Uniform over −180…180°.
    Uniform,
    /// An absolute compass heading in degrees (counterclockwise from
    /// +x), independent of the base-station bearing — corridor traffic.
    Heading(f64),
    /// The GPS-substitution model (DESIGN.md): users originally headed at
    /// the base station, but their heading has diffused for `history_s`
    /// seconds of walker motion — so slow users arrive with nearly
    /// uniform headings while fast users still point at the BS. This is
    /// the mechanism behind Fig. 7.
    HeadingHistory {
        /// Seconds of heading diffusion before the request.
        history_s: f64,
    },
}

/// How the user's distance from the base station is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DistanceSpec {
    /// Exactly this many km from the BS — Fig. 9's curves.
    Fixed(f64),
    /// Uniform over `0..cell radius`.
    UniformInCell,
    /// Uniform over a custom range (km).
    Uniform(f64, f64),
}

/// Where users spawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpawnSpec {
    /// All requests target the center cell (figs. 7–9: one BS).
    CenterCell,
    /// Requests spread uniformly over all cells (fig. 10: a cluster).
    AnyCell,
    /// A fraction of requests concentrates on one cell, the rest spread
    /// uniformly — a persistent hotspot (stadium, mall).
    Hotspot {
        /// The hot cell's id.
        cell: u32,
        /// Fraction of requests targeting the hot cell (clamped 0–1).
        fraction: f64,
    },
    /// Requests spawn along a straight corridor through the grid center
    /// (a highway crossing the coverage area).
    Corridor {
        /// Corridor heading, degrees counterclockwise from +x.
        heading_deg: f64,
        /// Half the corridor width, km (lateral spawn offset).
        half_width_km: f64,
    },
}

/// Which mobility model users follow after the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MobilityChoice {
    /// Walker for sampled-angle populations, straight-line for pinned
    /// angles (so the controlled variable stays controlled).
    Auto,
    /// Always the heading-diffusion walker.
    Walker,
    /// Always straight-line.
    StraightLine,
}

/// When users arrive inside the window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalPattern {
    /// Conditioned Poisson: given `n` arrivals in the window, instants
    /// are i.i.d. uniform — the paper's process.
    Uniform,
    /// A flash crowd: `weight` of the arrivals land uniformly inside a
    /// burst of `width` (fraction of the window) centered at `center`
    /// (fraction of the window); the rest arrive uniformly.
    Burst {
        /// Burst center as a fraction of the window (0–1).
        center: f64,
        /// Burst width as a fraction of the window (0–1).
        width: f64,
        /// Fraction of all arrivals belonging to the burst (0–1).
        weight: f64,
    },
    /// A time-varying arrival rate: the window splits into equal stages
    /// with the given relative rates (e.g. a rush-hour ramp
    /// `[0.2, 0.6, 1.0, 1.0, 0.6, 0.2]`).
    Stages(Vec<f64>),
}

impl ArrivalPattern {
    /// Draws `count` arrival instants in `[0, window_s)`, ascending: the
    /// collect-and-sort reference for the streamed replay, which yields
    /// the same instants in bounded memory.
    #[must_use]
    pub fn sample_times(&self, count: usize, window_s: f64, rng: &mut SimRng) -> Vec<f64> {
        self.check();
        let window = window_s.max(f64::MIN_POSITIVE);
        let mut times: Vec<f64> = (0..count).map(|_| self.draw(window, rng)).collect();
        // Instants that `total_cmp` calls equal have identical bits, so
        // an unstable sort gives the stable sort's result, without its
        // scratch buffer.
        times.sort_unstable_by(f64::total_cmp);
        times
    }

    /// The validation that needs no draw.
    fn check(&self) {
        if let ArrivalPattern::Stages(rates) = self {
            assert!(!rates.is_empty(), "empty arrival stages");
        }
    }

    /// Draws one arrival instant: the pattern's one definition of an
    /// arrival, shared by [`ArrivalPattern::sample_times`] and the
    /// replay. `window` is already clamped positive. Each call consumes
    /// a fixed number of draws — one for `Uniform`, two otherwise — so
    /// a clone of `rng` replays the same instants.
    #[inline(always)]
    fn draw(&self, window: f64, rng: &mut SimRng) -> f64 {
        match self {
            // Conditioned Poisson: given `n` arrivals in the window, the
            // instants are i.i.d. uniform.
            ArrivalPattern::Uniform => rng.uniform_range(0.0, window),
            ArrivalPattern::Burst { center, width, weight } => {
                if rng.chance(*weight) {
                    let lo = (center - width / 2.0).max(0.0) * window;
                    let hi = ((center + width / 2.0).min(1.0) * window).max(lo + 1e-9);
                    rng.uniform_range(lo, hi)
                } else {
                    rng.uniform_range(0.0, window)
                }
            }
            ArrivalPattern::Stages(rates) => {
                let stage_len = window / rates.len() as f64;
                let stage = rng.weighted_index(rates);
                stage as f64 * stage_len + rng.uniform_range(0.0, stage_len)
            }
        }
    }
}

/// How many value slices [`ArrivalReplay`] splits the arrival instants
/// into; each slice costs one pass over every draw.
const ARRIVAL_SLICES: usize = 8;

/// The fewest instants worth a slice of their own: a stream of at most
/// this many arrivals replays in one pass.
const MIN_SLICE_LEN: usize = 4096;

/// Draws the slice edges are taken from (the quantiles of a pilot
/// sample, so each slice holds about `1 / ARRIVAL_SLICES` of them).
const PILOT_DRAWS: usize = 16_384;

/// Draws a pass filters per block before handing the kept ones over.
const FILTER_BLOCK: usize = 256;

/// `f64::total_cmp`'s order as an integer: `a.total_cmp(&b)` equals
/// `order_key(a).cmp(&order_key(b))`. The map is its own inverse on the
/// bits, so [`from_order_key`] recovers the instant exactly.
fn order_key(t: f64) -> i64 {
    let bits = t.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The instant whose [`order_key`] is `key`.
fn from_order_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// A workload's arrival instants, ascending, in bounded memory.
///
/// The instants are `count` i.i.d. draws that a global sort would put in
/// order. Instead, their `total_cmp` order splits into up to
/// [`ARRIVAL_SLICES`] consecutive value slices, with edges at a pilot
/// sample's quantiles. A slice's pass regenerates all `count` draws from
/// a clone of the post-seed RNG, keeps the draws inside the slice and
/// sorts their [`order_key`]s. The slices partition that order, so
/// concatenated they are the full sort bit for bit. The first pass runs
/// whole when the stream starts, and the RNG it leaves behind is the
/// state user synthesis continues from. Each later pass is paced over
/// the chunks that drain the slice before it, its keys queueing behind
/// that slice's remainder, so about one slice is held at a time.
#[derive(Debug)]
struct ArrivalReplay {
    pattern: ArrivalPattern,
    window: f64,
    count: usize,
    /// The post-seed RNG state every pass starts from.
    origin: SimRng,
    /// The lower `order_key` of each slice, strictly ascending from
    /// `i64::MIN`; the last slice runs to `i64::MAX`. Empty until
    /// [`ArrivalReplay::start`].
    lower: Vec<i64>,
    /// The current slice's unconsumed instants, sorted, followed by the
    /// instants the running pass has kept so far, all as order keys.
    ready: VecDeque<i64>,
    /// Instants of the current slice still at the front of `ready`.
    current: usize,
    /// Instants taken from the current slice.
    taken: usize,
    /// The slice the running pass collects (`lower.len()` once every
    /// pass has run), its RNG and the draws it has made.
    filling: usize,
    pass: SimRng,
    drawn: usize,
}

impl ArrivalReplay {
    fn new(pattern: &ArrivalPattern, count: usize, window_s: f64, origin: &SimRng) -> Self {
        pattern.check();
        Self {
            pattern: pattern.clone(),
            window: window_s.max(f64::MIN_POSITIVE),
            count,
            origin: origin.clone(),
            lower: Vec::new(),
            ready: VecDeque::new(),
            current: 0,
            taken: 0,
            filling: 0,
            pass: origin.clone(),
            drawn: 0,
        }
    }

    /// Sets the slice edges, runs the first slice's pass and returns the
    /// RNG state after all `count` arrival draws.
    fn start(&mut self) -> SimRng {
        let slices = self.count.div_ceil(MIN_SLICE_LEN).clamp(1, ARRIVAL_SLICES);
        self.lower = vec![i64::MIN];
        if slices > 1 {
            let mut rng = self.origin.clone();
            let mut pilot: Vec<i64> = (0..self.count.min(PILOT_DRAWS))
                .map(|_| order_key(self.pattern.draw(self.window, &mut rng)))
                .collect();
            pilot.sort_unstable();
            for s in 1..slices {
                let edge = pilot[s * pilot.len() / slices];
                if edge > self.lower[self.lower.len() - 1] {
                    self.lower.push(edge);
                }
            }
        }
        // A slice's share strays from `1 / slices` by the pilot's ~2 %
        // sampling error; past this margin `fill` grows the buffer in
        // sixteenths.
        let slice = self.count.div_ceil(slices);
        self.ready.reserve_exact(self.count.min(slice + slice / 16 + FILTER_BLOCK));
        self.fill(self.count);
        let rng = self.pass.clone();
        self.next_slice();
        rng
    }

    /// The next instant in ascending order.
    fn next(&mut self) -> f64 {
        while self.taken == self.current {
            self.next_slice();
        }
        self.taken += 1;
        from_order_key(self.ready.pop_front().expect("the current slice has instants left"))
    }

    /// Finishes the running pass, sorts its slice into place and starts
    /// the pass after it.
    fn next_slice(&mut self) {
        assert!(self.filling < self.lower.len(), "arrival replay overrun");
        self.fill(self.count - self.drawn);
        self.ready.make_contiguous().sort_unstable();
        self.current = self.ready.len();
        self.taken = 0;
        self.filling += 1;
        self.pass = self.origin.clone();
        self.drawn = 0;
    }

    /// Advances the running pass in step with the current slice's drain,
    /// so the pass completes as the slice empties.
    fn pace(&mut self) {
        if self.filling < self.lower.len() {
            let due = (self.count * self.taken).div_ceil(self.current);
            self.fill(due.saturating_sub(self.drawn));
        }
    }

    /// Makes `draws` more draws of the running pass and queues the ones
    /// inside its slice.
    fn fill(&mut self, draws: usize) {
        let lo = self.lower[self.filling];
        let hi = self.lower.get(self.filling + 1).map_or(i64::MAX, |next| next - 1);
        let span = hi.wrapping_sub(lo) as u64;
        let (pattern, window) = (&self.pattern, self.window);
        let mut rng = self.pass.clone();
        let mut block = [0; FILTER_BLOCK];
        let mut left = draws;
        while left > 0 {
            let len = left.min(FILTER_BLOCK);
            let mut kept = 0;
            for _ in 0..len {
                let key = order_key(pattern.draw(window, &mut rng));
                block[kept] = key;
                kept += usize::from(key.wrapping_sub(lo) as u64 <= span);
            }
            if self.ready.capacity() - self.ready.len() < kept {
                // Grow by a sixteenth, not the doubling `extend` would do.
                self.ready.reserve_exact(kept.max(self.ready.capacity() / 16));
            }
            self.ready.extend(&block[..kept]);
            left -= len;
        }
        self.pass = rng;
        self.drawn += draws;
    }
}

/// A declarative workload description: everything the generator needs,
/// as plain (serde-friendly) data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Arrival-time pattern inside the window.
    pub arrivals: ArrivalPattern,
    /// Spawn placement.
    pub spawn: SpawnSpec,
    /// Speed distribution.
    pub speed: SpeedSpec,
    /// Angle distribution.
    pub angle: AngleSpec,
    /// Distance distribution (ignored by corridor placement, which fixes
    /// positions geometrically).
    pub distance: DistanceSpec,
    /// Mobility model choice.
    pub mobility: MobilityChoice,
    /// Traffic class mix.
    pub mix: TrafficMix,
    /// Per-class service profiles. `None` reproduces the paper's rigid
    /// unit costs ([`ServiceProfile::paper`]) with holding times drawn
    /// from the scenario-level mean — bit-identical to the pre-elastic
    /// random stream. `Some` attaches elastic profiles and draws each
    /// call's holding time from its class's mean duration instead.
    pub profiles: Option<ServiceProfileSet>,
}

impl Default for Workload {
    /// The paper's §4 population: uniform arrivals at the center cell,
    /// 0–120 km/h, heading-history angles, uniform in-cell distances,
    /// 60/30/10 % text/voice/video.
    fn default() -> Self {
        Self {
            arrivals: ArrivalPattern::Uniform,
            spawn: SpawnSpec::CenterCell,
            speed: SpeedSpec::PaperUniform,
            angle: AngleSpec::HeadingHistory { history_s: 300.0 },
            distance: DistanceSpec::UniformInCell,
            mobility: MobilityChoice::Auto,
            mix: TrafficMix::PAPER,
            profiles: None,
        }
    }
}

impl Workload {
    /// Expands the description into `count` concrete [`UserSpec`]s over
    /// `grid`, arrivals spread over `window_s` seconds, holding times
    /// drawn from `holding`. All randomness derives from `seed` alone,
    /// so competing controllers face byte-identical traffic.
    ///
    /// This is the eager path; a run takes it only when
    /// [`ScenarioConfig::streamed`] is `false`. It drains a
    /// [`WorkloadStream`] in a single chunk, so eager and streamed
    /// synthesis are bit-identical by construction — they run the same
    /// generator code on the same random stream — and the whole
    /// population's specs sit in memory at once.
    #[must_use]
    pub fn generate(
        &self,
        grid: &HexGrid,
        count: usize,
        window_s: f64,
        holding: HoldingTimes,
        seed: u64,
    ) -> Vec<UserSpec> {
        let mut stream = self.stream(grid, count, window_s, holding, seed, count.max(1));
        match stream.next_chunk() {
            Some(chunk) => chunk.specs,
            None => Vec::new(),
        }
    }

    /// Opens a resumable streaming generator over the same random stream
    /// as [`Workload::generate`]: users are synthesized lazily in arrival
    /// order, `chunk_size` at a time. This call only validates and
    /// clones; the first [`WorkloadStream::next_chunk`] starts the
    /// arrival replay, which sorts the instants a value slice at a time,
    /// about `count / 8` instants held at once. Peak residency is one
    /// chunk plus that slice instead of `count` full [`UserSpec`]s.
    #[must_use]
    pub fn stream(
        &self,
        grid: &HexGrid,
        count: usize,
        window_s: f64,
        holding: HoldingTimes,
        seed: u64,
        chunk_size: usize,
    ) -> WorkloadStream {
        let rng = SimRng::seed_from_u64(seed);
        let arrivals = ArrivalReplay::new(&self.arrivals, count, window_s, &rng);
        // The corridor spans the grid's full extent plus one cell radius.
        let corridor_reach = (f64::from(grid.radius()) * 3f64.sqrt() + 1.0) * grid.cell_radius_km();
        WorkloadStream {
            workload: self.clone(),
            grid: grid.clone(),
            holding,
            corridor_reach,
            rng,
            arrivals,
            next: 0,
            chunk_size: chunk_size.max(1),
            pool: Vec::new(),
        }
    }

    /// Synthesizes one user's attributes, consuming exactly the same
    /// draws from `rng` as the original eager generator. Shared by the
    /// eager and streamed paths.
    fn user_spec(
        &self,
        arrival_s: f64,
        grid: &HexGrid,
        corridor_reach: f64,
        holding: HoldingTimes,
        rng: &mut SimRng,
    ) -> UserSpec {
        let class = self.mix.sample(rng);
        let speed = self.speed.sample(rng);
        let (position, bearing_to_bs) = match self.spawn {
            SpawnSpec::Corridor { heading_deg, half_width_km } => {
                let along = rng.uniform_range(-corridor_reach, corridor_reach);
                let offset = if half_width_km > 0.0 {
                    rng.uniform_range(-half_width_km, half_width_km)
                } else {
                    0.0
                };
                let position =
                    Point::ORIGIN.step(heading_deg, along).step(heading_deg + 90.0, offset);
                let bs = grid.center_of(grid.locate(position));
                let bearing = if position.distance_to(bs) > 1e-9 {
                    position.bearing_to(bs)
                } else {
                    rng.uniform_range(-180.0, 180.0)
                };
                (position, bearing)
            }
            placement => {
                let cell = match placement {
                    SpawnSpec::CenterCell => facs_cac::CellId(0),
                    SpawnSpec::AnyCell => facs_cac::CellId(rng.index(grid.len()) as u32),
                    SpawnSpec::Hotspot { cell, fraction } => {
                        if rng.chance(fraction) {
                            facs_cac::CellId(cell.min(grid.len() as u32 - 1))
                        } else {
                            facs_cac::CellId(rng.index(grid.len()) as u32)
                        }
                    }
                    SpawnSpec::Corridor { .. } => unreachable!("matched above"),
                };
                let bs = grid.center_of(cell);
                let distance = match self.distance {
                    DistanceSpec::Fixed(d) => d,
                    DistanceSpec::UniformInCell => rng.uniform_range(0.0, grid.cell_radius_km()),
                    DistanceSpec::Uniform(lo, hi) => rng.uniform_range(lo, hi),
                };
                // Place the user on a uniformly random bearing
                // from the BS.
                let bearing_from_bs = rng.uniform_range(-180.0, 180.0);
                let position = bs.step(bearing_from_bs, distance);
                let bearing_to_bs = if distance > 1e-9 {
                    position.bearing_to(bs)
                } else {
                    rng.uniform_range(-180.0, 180.0)
                };
                (position, bearing_to_bs)
            }
        };
        let heading = match self.angle {
            AngleSpec::Fixed(angle) => bearing_to_bs + angle,
            AngleSpec::Uniform => rng.uniform_range(-180.0, 180.0),
            AngleSpec::Heading(heading_deg) => heading_deg,
            AngleSpec::HeadingHistory { history_s } => {
                let sigma = Walker.turn_sigma_at(speed) * history_s.sqrt();
                if sigma >= 60.0 {
                    // Past ~60° of diffusion a wrapped normal is
                    // dispersed enough that the direction carries
                    // no usable information — the paper's
                    // "walking users can change their direction"
                    // regime. Model it as fully randomized.
                    rng.uniform_range(-180.0, 180.0)
                } else {
                    bearing_to_bs + rng.normal(0.0, sigma)
                }
            }
        };
        let mobility = match self.mobility {
            MobilityChoice::Walker => MobilityKind::Walker,
            MobilityChoice::StraightLine => MobilityKind::StraightLine,
            MobilityChoice::Auto => match self.angle {
                AngleSpec::Fixed(_) | AngleSpec::Heading(_) => MobilityKind::StraightLine,
                _ => MobilityKind::Walker,
            },
        };
        let profile = match &self.profiles {
            Some(set) => set.profile_of(class),
            None => ServiceProfile::paper(class),
        };
        // Same draw count either way, so attaching profiles only
        // reparameterizes the holding draw — every earlier draw
        // in the stream is untouched.
        let holding_s = match &self.profiles {
            Some(_) => HoldingTimes::new(profile.mean_duration_s).sample_s(rng),
            None => holding.sample_s(rng),
        };
        UserSpec {
            arrival_s,
            profile,
            start: MobileState::new(position, heading, speed),
            mobility,
            holding_s,
        }
    }
}

/// One chunk of streamed users: `specs[i]` is workload index
/// `first_user + i`. Chunks come out in arrival order and, because
/// arrival instants ascend globally, every chunk is time-sorted and no
/// later chunk contains an earlier arrival.
#[derive(Debug)]
pub struct WorkloadChunk {
    /// Global workload index of `specs[0]` (the engine's stable user id).
    pub first_user: u64,
    /// The users of this chunk, in arrival order.
    pub specs: Vec<UserSpec>,
}

/// A resumable, chunked generator over a [`Workload`]'s user population.
///
/// Produced by [`Workload::stream`]. The generator replays the arrival
/// instants in ascending order and continues user synthesis from the
/// RNG state after every arrival draw, so the specs it yields are
/// bit-identical to `Workload::generate` regardless of where chunk
/// boundaries fall. The kernel frees each drained chunk; a caller that
/// drains the stream itself may hand chunks back with
/// [`WorkloadStream::recycle`] to reuse their buffers.
#[derive(Debug)]
pub struct WorkloadStream {
    workload: Workload,
    grid: HexGrid,
    holding: HoldingTimes,
    corridor_reach: f64,
    /// The post-seed state until the first chunk, then the state after
    /// every arrival draw, which user synthesis continues from.
    rng: SimRng,
    arrivals: ArrivalReplay,
    next: usize,
    chunk_size: usize,
    pool: Vec<Vec<UserSpec>>,
}

/// How many drained chunk buffers [`WorkloadStream::recycle`] retains.
const CHUNK_POOL_CAP: usize = 2;

impl WorkloadStream {
    /// Total number of users this stream will produce.
    #[must_use]
    pub fn total(&self) -> usize {
        self.arrivals.count
    }

    /// Number of users already produced (== the next chunk's first id).
    #[must_use]
    pub fn produced(&self) -> usize {
        self.next
    }

    /// True once every user has been produced.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.next >= self.arrivals.count
    }

    /// Synthesizes the next chunk of users, or `None` when exhausted.
    pub fn next_chunk(&mut self) -> Option<WorkloadChunk> {
        if self.is_exhausted() {
            return None;
        }
        if self.next == 0 {
            self.rng = self.arrivals.start();
        }
        let first_user = self.next as u64;
        let end = (self.next + self.chunk_size).min(self.arrivals.count);
        let mut specs = self.pool.pop().unwrap_or_default();
        specs.clear();
        specs.reserve(end - self.next);
        for _ in self.next..end {
            let spec = self.workload.user_spec(
                self.arrivals.next(),
                &self.grid,
                self.corridor_reach,
                self.holding,
                &mut self.rng,
            );
            specs.push(spec);
        }
        self.next = end;
        if self.is_exhausted() {
            // The stream is drained: drop the last slice's buffer and any
            // pooled buffers so a long tail of in-flight calls does not
            // pin the synthesis bookkeeping.
            self.arrivals.ready = VecDeque::new();
            self.pool = Vec::new();
        } else {
            self.arrivals.pace();
        }
        Some(WorkloadChunk { first_user, specs })
    }

    /// Returns a drained chunk's buffer to the bounded pool so the next
    /// chunk reuses it instead of reallocating. Once the stream is
    /// exhausted no chunk follows, so the buffer is dropped instead.
    pub fn recycle(&mut self, chunk: WorkloadChunk) {
        if !self.is_exhausted() && self.pool.len() < CHUNK_POOL_CAP {
            self.pool.push(chunk.specs);
        }
    }
}

/// One named entry of the scenario catalog.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Stable machine-friendly name (used for JSON artifact filenames).
    pub name: &'static str,
    /// One-line human description.
    pub summary: &'static str,
    /// The ready-to-run configuration.
    pub config: ScenarioConfig,
}

/// The named scenario catalog: the paper's baseline plus the workload
/// families the suite grows beyond it. Every entry runs on any shard
/// count with bit-identical results (for cell-local controllers).
#[must_use]
pub fn catalog() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry {
            name: "paper-baseline",
            summary: "figs 7-10 population: uniform arrivals, paper mix, single BS",
            config: ScenarioConfig { requests: 100, ..ScenarioConfig::default() },
        },
        CatalogEntry {
            name: "hotspot",
            summary: "70% of requests pile onto the center cell of a 7-cell cluster",
            config: ScenarioConfig {
                requests: 280,
                grid_radius: 1,
                spawn: SpawnSpec::Hotspot { cell: 0, fraction: 0.7 },
                mobility: MobilityChoice::Walker,
                ..ScenarioConfig::default()
            },
        },
        CatalogEntry {
            name: "flash-crowd",
            summary: "80% of arrivals burst into 10% of the window at a hot cell",
            config: ScenarioConfig {
                requests: 320,
                grid_radius: 1,
                spawn: SpawnSpec::Hotspot { cell: 0, fraction: 0.5 },
                arrivals: ArrivalPattern::Burst { center: 0.5, width: 0.1, weight: 0.8 },
                mobility: MobilityChoice::Walker,
                ..ScenarioConfig::default()
            },
        },
        CatalogEntry {
            name: "rush-hour",
            summary: "time-varying arrival rate ramping 0.2x -> 1x -> 0.2x over the window",
            config: ScenarioConfig {
                requests: 320,
                grid_radius: 1,
                spawn: SpawnSpec::AnyCell,
                arrivals: ArrivalPattern::Stages(vec![0.2, 0.6, 1.0, 1.0, 0.6, 0.2]),
                mobility: MobilityChoice::Walker,
                ..ScenarioConfig::default()
            },
        },
        CatalogEntry {
            name: "hetero-mix",
            summary: "video-heavy 20/30/50 class mix stressing multi-class allocation",
            config: ScenarioConfig {
                requests: 220,
                grid_radius: 1,
                spawn: SpawnSpec::AnyCell,
                mix: TrafficMix { text: 0.2, voice: 0.3, video: 0.5 },
                mobility: MobilityChoice::Walker,
                ..ScenarioConfig::default()
            },
        },
        CatalogEntry {
            name: "highway",
            summary: "fast corridor traffic crossing a 19-cell grid (handoff-dominated)",
            config: ScenarioConfig {
                requests: 240,
                grid_radius: 2,
                cell_radius_km: 2.0,
                spawn: SpawnSpec::Corridor { heading_deg: 0.0, half_width_km: 0.5 },
                speed: SpeedSpec::Uniform(60.0, 120.0),
                angle: AngleSpec::Heading(0.0),
                mobility: MobilityChoice::StraightLine,
                holding_mean_s: 120.0,
                movement_tick_s: 2.0,
                ..ScenarioConfig::default()
            },
        },
        CatalogEntry {
            name: "congested",
            summary: "overloaded elastic multi-class mix on a 7-cell cluster (degradation stress)",
            config: ScenarioConfig {
                requests: 420,
                grid_radius: 1,
                spawn: SpawnSpec::AnyCell,
                mix: TrafficMix { text: 0.3, voice: 0.4, video: 0.3 },
                mobility: MobilityChoice::Walker,
                holding_mean_s: 120.0,
                profiles: Some(ServiceProfileSet::elastic_paper(0.5)),
                ..ScenarioConfig::default()
            },
        },
    ]
}

/// Looks a catalog scenario up by name.
#[must_use]
pub fn scenario_by_name(name: &str) -> Option<ScenarioConfig> {
    catalog().into_iter().find(|e| e.name == name).map(|e| e.config)
}

/// The catalog's scenario names, in catalog order.
#[must_use]
pub fn catalog_names() -> Vec<&'static str> {
    catalog().into_iter().map(|e| e.name).collect()
}

/// The planet-scale stress scenario: `requests` users (nominally 10M)
/// spread over a ~100k-cell grid (radius 182 → 99,919 cells), run
/// through the chunked [`crate::WorkloadStream`] so peak memory tracks
/// *active* calls, not total users.
///
/// Deliberately **not** part of [`catalog`]: the golden-digest suite
/// pins the catalog's seven entries, and this scenario exists to stress
/// memory and throughput, not admission-policy behaviour. The nightly
/// smoke runs it at 10M requests; the PR gate uses a smaller count via
/// the same constructor.
#[must_use]
pub fn planet_scale(requests: usize) -> CatalogEntry {
    CatalogEntry {
        name: "planet-scale",
        summary: "planet-scale streamed stress: ~100k cells, memory-flat synthesis + rollups",
        config: ScenarioConfig {
            requests,
            window_s: 3600.0,
            holding_mean_s: 30.0,
            grid_radius: 182, // 3r(r+1)+1 = 99,919 cells
            cell_radius_km: 2.0,
            spawn: SpawnSpec::AnyCell,
            mobility: MobilityChoice::Walker,
            movement_tick_s: 15.0,
            shards: 8,
            workers: 0,
            replications: 1,
            ..ScenarioConfig::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_stable() {
        let names = catalog_names();
        assert_eq!(
            names,
            vec![
                "paper-baseline",
                "hotspot",
                "flash-crowd",
                "rush-hour",
                "hetero-mix",
                "highway",
                "congested"
            ]
        );
        for name in names {
            assert!(scenario_by_name(name).is_some(), "missing {name}");
        }
        assert!(scenario_by_name("no-such-scenario").is_none());
    }

    #[test]
    fn arrival_times_are_sorted_in_window() {
        let mut rng = SimRng::seed_from_u64(8);
        let times = ArrivalPattern::Uniform.sample_times(500, 100.0, &mut rng);
        assert_eq!(times.len(), 500);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| (0.0..100.0).contains(&t)));
    }

    #[test]
    fn burst_concentrates_arrivals() {
        let mut rng = SimRng::seed_from_u64(1);
        let pattern = ArrivalPattern::Burst { center: 0.5, width: 0.1, weight: 0.8 };
        let times = pattern.sample_times(2_000, 100.0, &mut rng);
        assert_eq!(times.len(), 2_000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let in_burst = times.iter().filter(|&&t| (45.0..55.0).contains(&t)).count();
        // 80% targeted + ~10% of the uniform remainder ≈ 82%.
        assert!(in_burst > 1_500, "only {in_burst} of 2000 in the burst");
    }

    #[test]
    fn stages_shape_the_rate() {
        let mut rng = SimRng::seed_from_u64(2);
        let pattern = ArrivalPattern::Stages(vec![1.0, 0.0, 3.0, 0.0]);
        let times = pattern.sample_times(4_000, 400.0, &mut rng);
        let count = |lo: f64, hi: f64| times.iter().filter(|&&t| (lo..hi).contains(&t)).count();
        assert_eq!(count(100.0, 200.0) + count(300.0, 400.0), 0, "zero-rate stages got arrivals");
        let first = count(0.0, 100.0);
        let third = count(200.0, 300.0);
        assert!(third > 2 * first, "stage weights ignored: {first} vs {third}");
    }

    #[test]
    fn hotspot_concentrates_spawns() {
        let config = ScenarioConfig {
            requests: 1_000,
            grid_radius: 1,
            spawn: SpawnSpec::Hotspot { cell: 3, fraction: 0.7 },
            ..ScenarioConfig::default()
        };
        let grid = config.grid();
        let specs = config.generate_workload(5);
        let hot =
            specs.iter().filter(|s| grid.locate(s.start.position) == facs_cac::CellId(3)).count();
        // 70% targeted plus 1/7th of the remainder ≈ 74%; spawn distance
        // can land a user over the cell border, so leave slack.
        assert!(hot > 550, "only {hot} of 1000 spawns hit the hotspot");
    }

    #[test]
    fn corridor_spawns_on_the_line_heading_along_it() {
        let config = scenario_by_name("highway").expect("highway in catalog");
        let specs = config.generate_workload(11);
        for spec in &specs {
            assert!(spec.start.position.y.abs() <= 0.5 + 1e-9, "off corridor: {spec:?}");
            assert_eq!(spec.start.heading_deg, 0.0);
            assert!(spec.start.speed_kmh >= 60.0 && spec.start.speed_kmh <= 120.0);
            assert!(matches!(spec.mobility, MobilityKind::StraightLine));
        }
    }

    #[test]
    fn a_drained_stream_keeps_no_recycled_buffer() {
        let config = ScenarioConfig { requests: 10, ..ScenarioConfig::default() };
        let mut stream = config.workload().stream(
            &config.grid(),
            config.requests,
            config.window_s,
            HoldingTimes::new(config.holding_mean_s),
            3,
            4,
        );
        let mut chunks = Vec::new();
        while let Some(chunk) = stream.next_chunk() {
            chunks.push(chunk);
        }
        assert_eq!(chunks.len(), 3);
        for chunk in chunks {
            stream.recycle(chunk);
        }
        assert!(stream.pool.is_empty(), "a drained stream pinned {} buffers", stream.pool.len());
        assert_eq!(stream.pool.capacity(), 0);
    }

    /// Drains an arrival replay the way [`WorkloadStream::next_chunk`]
    /// does, pacing after every `chunk` instants. Returns the instants,
    /// the RNG user synthesis would continue from and the most instants
    /// the replay's buffer had room for at once.
    fn drain_replay(
        pattern: &ArrivalPattern,
        count: usize,
        window_s: f64,
        seed: u64,
        chunk: usize,
    ) -> (Vec<f64>, SimRng, usize) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut replay = ArrivalReplay::new(pattern, count, window_s, &rng);
        let mut times = Vec::with_capacity(count);
        let mut held = 0;
        if count > 0 {
            rng = replay.start();
        }
        while times.len() < count {
            for _ in 0..chunk.min(count - times.len()) {
                times.push(replay.next());
            }
            held = held.max(replay.ready.capacity());
            replay.pace();
        }
        (times, rng, held)
    }

    #[test]
    fn arrival_replay_equals_the_full_sort_bit_for_bit() {
        let patterns = [
            ArrivalPattern::Uniform,
            ArrivalPattern::Burst { center: 0.5, width: 0.1, weight: 0.8 },
            // At a 1e7 s window the burst starts at 4.2e6 s, where the
            // 1e-9 s floor width is one ulp, so every burst draw is one
            // of two instants: 45 % of the arrivals share one value,
            // several slices' worth.
            ArrivalPattern::Burst { center: 0.42, width: 0.0, weight: 0.9 },
            ArrivalPattern::Stages(vec![0.0, 1.0, 0.0, 3.0, 0.0]),
            ArrivalPattern::Stages(vec![2.0]),
        ];
        let counts = [0, 1, 2, MIN_SLICE_LEN, MIN_SLICE_LEN + 1, 100_000];
        for (p, pattern) in patterns.iter().enumerate() {
            let two_values = p == 2;
            let windows =
                if two_values { [1e7, f64::MIN_POSITIVE] } else { [600.0, f64::MIN_POSITIVE] };
            for window_s in windows {
                for count in counts {
                    let seed = 17 + count as u64;
                    let mut expected_rng = SimRng::seed_from_u64(seed);
                    let expected = pattern.sample_times(count, window_s, &mut expected_rng);
                    let chunk = if count > 1_000 { 8192 } else { 1 };
                    let (times, mut rng, held) =
                        drain_replay(pattern, count, window_s, seed, chunk);
                    let case = format!("{pattern:?}, {count} arrivals in {window_s} s");
                    assert!(
                        times.iter().map(|t| t.to_bits()).eq(expected.iter().map(|t| t.to_bits())),
                        "{case}: the replay differs from the sort"
                    );
                    assert_eq!(
                        rng.uniform().to_bits(),
                        expected_rng.uniform().to_bits(),
                        "{case}: synthesis would continue from another RNG state"
                    );
                    if count == 100_000 && !two_values {
                        assert!(
                            held <= count / ARRIVAL_SLICES * 5 / 4,
                            "{case}: the replay held {held} instants at once"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generate_equals_the_chunked_drain() {
        let config = ScenarioConfig {
            requests: 5 * MIN_SLICE_LEN - 9,
            grid_radius: 2,
            spawn: SpawnSpec::AnyCell,
            ..ScenarioConfig::default()
        };
        let (grid, holding) = (config.grid(), HoldingTimes::new(config.holding_mean_s));
        let workload = config.workload();
        let eager: Vec<String> = workload
            .generate(&grid, config.requests, config.window_s, holding, 4)
            .iter()
            .map(|spec| format!("{spec:?}"))
            .collect();
        for chunk_size in [1, 7, 8192] {
            let mut stream =
                workload.stream(&grid, config.requests, config.window_s, holding, 4, chunk_size);
            let mut drained = Vec::with_capacity(config.requests);
            while let Some(chunk) = stream.next_chunk() {
                assert_eq!(chunk.first_user, drained.len() as u64);
                drained.extend(chunk.specs.iter().map(|spec| format!("{spec:?}")));
            }
            assert!(drained == eager, "chunk size {chunk_size} changed the specs");
        }
    }

    #[test]
    fn workload_generation_is_deterministic() {
        for entry in catalog() {
            let a = entry.config.generate_workload(77);
            let b = entry.config.generate_workload(77);
            assert_eq!(a.len(), b.len(), "{}", entry.name);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.arrival_s, y.arrival_s, "{}", entry.name);
                assert_eq!(x.start, y.start, "{}", entry.name);
                assert_eq!(x.profile, y.profile, "{}", entry.name);
                assert_eq!(x.holding_s, y.holding_s, "{}", entry.name);
            }
        }
    }
}
