//! Traffic classes and call descriptors.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::units::BandwidthUnits;

/// The paper's three service classes, with their per-call bandwidth demand
/// (§4: "The requested size was 1, 5 and 10 BU for text, voice and video").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ServiceClass {
    /// Queue-able, delay-tolerant data traffic (1 BU).
    Text,
    /// Real-time audio (5 BU).
    Voice,
    /// Real-time video (10 BU).
    Video,
}

impl ServiceClass {
    /// All classes, in demand order.
    pub const ALL: [ServiceClass; 3] =
        [ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video];

    /// Position of the class in [`ServiceClass::ALL`], for per-class
    /// arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            ServiceClass::Text => 0,
            ServiceClass::Voice => 1,
            ServiceClass::Video => 2,
        }
    }

    /// Bandwidth demanded by one call of this class.
    #[must_use]
    pub const fn demand(self) -> BandwidthUnits {
        match self {
            ServiceClass::Text => BandwidthUnits::new(1),
            ServiceClass::Voice => BandwidthUnits::new(5),
            ServiceClass::Video => BandwidthUnits::new(10),
        }
    }

    /// Whether the class carries real-time traffic (drives the paper's
    /// RTC/NRTC differentiated-service counters).
    #[must_use]
    pub const fn is_real_time(self) -> bool {
        matches!(self, ServiceClass::Voice | ServiceClass::Video)
    }

    /// The crisp value fed to FLC2's `R` (required bandwidth) input — the
    /// demand in BU, over the paper's `[0, 10]` universe.
    #[must_use]
    pub fn request_level(self) -> f64 {
        f64::from(self.demand().get())
    }
}

impl fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServiceClass::Text => "text",
            ServiceClass::Voice => "voice",
            ServiceClass::Video => "video",
        };
        f.write_str(s)
    }
}

/// The bandwidth contract of one call: how much it asks for, how far it
/// can be squeezed, and how long it is expected to last.
///
/// The paper's calls are rigid — a voice call costs 5 BU, full stop. An
/// *elastic* profile (cf. Chowdhury et al., arXiv:1412.3630) instead
/// spans `[rb_cost_min, rb_cost_nominal]`: the ledger grants the nominal
/// cost when it can, and may degrade the allocation down to — but never
/// below — the floor to squeeze in higher-priority traffic, re-upgrading
/// when bandwidth frees up. A profile with `rb_cost_min ==
/// rb_cost_nominal` (every [`ServiceProfile::paper`] profile) degenerates
/// to the paper's rigid behavior bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceProfile {
    /// The service class this profile belongs to.
    pub class: ServiceClass,
    /// The QoS floor in bandwidth units: the least allocation the call
    /// can run on. Never violated by degradation.
    pub rb_cost_min: BandwidthUnits,
    /// The nominal (full-quality) allocation, granted when capacity
    /// allows.
    pub rb_cost_nominal: BandwidthUnits,
    /// The floor as a fraction of nominal in `(0, 1]` — kept alongside
    /// `rb_cost_min` as the declarative knob it was derived from.
    pub qos_floor: f64,
    /// Expected call duration in seconds (drives per-class holding-time
    /// draws in workload generation; advisory elsewhere).
    pub mean_duration_s: f64,
}

impl ServiceProfile {
    /// Mean call duration assumed when a request is built without an
    /// explicit profile (the paper does not pin one; 180 s is the
    /// classical 3-minute call).
    pub const DEFAULT_MEAN_DURATION_S: f64 = 180.0;

    /// The paper's rigid profile for `class`: floor == nominal ==
    /// [`ServiceClass::demand`], so degradation is impossible.
    #[must_use]
    pub fn paper(class: ServiceClass) -> Self {
        Self::fixed(class, class.demand())
    }

    /// A rigid (inelastic) profile with an arbitrary cost.
    #[must_use]
    pub fn fixed(class: ServiceClass, cost: BandwidthUnits) -> Self {
        Self {
            class,
            rb_cost_min: cost,
            rb_cost_nominal: cost,
            qos_floor: 1.0,
            mean_duration_s: Self::DEFAULT_MEAN_DURATION_S,
        }
    }

    /// An elastic profile: `qos_floor` (clamped to `(0, 1]`) scales the
    /// nominal cost down to the floor, which is rounded up and kept in
    /// `[1, nominal]` so every call always holds at least 1 BU.
    ///
    /// # Panics
    ///
    /// Panics when `nominal` is zero or `mean_duration_s` is not finite
    /// and positive.
    #[must_use]
    pub fn elastic(
        class: ServiceClass,
        nominal: BandwidthUnits,
        qos_floor: f64,
        mean_duration_s: f64,
    ) -> Self {
        assert!(!nominal.is_zero(), "zero-bandwidth profile");
        assert!(
            mean_duration_s.is_finite() && mean_duration_s > 0.0,
            "bad mean duration {mean_duration_s}"
        );
        let qos_floor = if qos_floor.is_finite() { qos_floor.clamp(0.0, 1.0) } else { 1.0 };
        let floor_bu =
            ((f64::from(nominal.get()) * qos_floor).ceil() as u32).clamp(1, nominal.get());
        Self {
            class,
            rb_cost_min: BandwidthUnits::new(floor_bu),
            rb_cost_nominal: nominal,
            qos_floor,
            mean_duration_s,
        }
    }

    /// Whether the profile has any room to degrade (`floor < nominal`).
    #[must_use]
    pub fn is_elastic(&self) -> bool {
        self.rb_cost_min < self.rb_cost_nominal
    }

    /// The degradable width `nominal - floor`.
    #[must_use]
    pub fn slack(&self) -> BandwidthUnits {
        self.rb_cost_nominal - self.rb_cost_min
    }
}

impl fmt::Display for ServiceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}..{}]", self.class, self.rb_cost_min.get(), self.rb_cost_nominal.get())
    }
}

/// One [`ServiceProfile`] per service class — the service contract a
/// whole workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceProfileSet {
    /// Profile for text calls.
    pub text: ServiceProfile,
    /// Profile for voice calls.
    pub voice: ServiceProfile,
    /// Profile for video calls.
    pub video: ServiceProfile,
}

impl ServiceProfileSet {
    /// Builds a set from three per-class profiles.
    ///
    /// # Panics
    ///
    /// Panics when a profile sits in the wrong slot.
    #[must_use]
    pub fn new(text: ServiceProfile, voice: ServiceProfile, video: ServiceProfile) -> Self {
        assert_eq!(text.class, ServiceClass::Text, "text slot holds {}", text.class);
        assert_eq!(voice.class, ServiceClass::Voice, "voice slot holds {}", voice.class);
        assert_eq!(video.class, ServiceClass::Video, "video slot holds {}", video.class);
        Self { text, voice, video }
    }

    /// The paper's rigid 1/5/10 BU profiles — workloads on this set
    /// behave exactly like the pre-elastic simulator.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            text: ServiceProfile::paper(ServiceClass::Text),
            voice: ServiceProfile::paper(ServiceClass::Voice),
            video: ServiceProfile::paper(ServiceClass::Video),
        }
    }

    /// Elastic variants of the paper's costs: voice and video accept
    /// degradation down to `qos_floor` of nominal; text (1 BU) has no
    /// room to shrink. Per-class mean durations are staggered
    /// (60/120/180 s) so classes also differ in holding time.
    #[must_use]
    pub fn elastic_paper(qos_floor: f64) -> Self {
        Self {
            text: ServiceProfile::elastic(
                ServiceClass::Text,
                ServiceClass::Text.demand(),
                1.0,
                60.0,
            ),
            voice: ServiceProfile::elastic(
                ServiceClass::Voice,
                ServiceClass::Voice.demand(),
                qos_floor,
                120.0,
            ),
            video: ServiceProfile::elastic(
                ServiceClass::Video,
                ServiceClass::Video.demand(),
                qos_floor,
                180.0,
            ),
        }
    }

    /// The profile for `class`.
    #[must_use]
    pub fn profile_of(&self, class: ServiceClass) -> ServiceProfile {
        match class {
            ServiceClass::Text => self.text,
            ServiceClass::Voice => self.voice,
            ServiceClass::Video => self.video,
        }
    }
}

impl Default for ServiceProfileSet {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-class active-call counts of one cell — the multi-class
/// replacement for the paper's scalar RTC/NRTC pair (which it still
/// derives, via [`ClassCounts::real_time`] / [`ClassCounts::non_real_time`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClassCounts {
    /// Active text calls.
    pub text: u32,
    /// Active voice calls.
    pub voice: u32,
    /// Active video calls.
    pub video: u32,
}

impl ClassCounts {
    /// The count for `class`.
    #[must_use]
    pub fn of(&self, class: ServiceClass) -> u32 {
        match class {
            ServiceClass::Text => self.text,
            ServiceClass::Voice => self.voice,
            ServiceClass::Video => self.video,
        }
    }

    /// Bumps the count for `class`.
    pub fn increment(&mut self, class: ServiceClass) {
        match class {
            ServiceClass::Text => self.text += 1,
            ServiceClass::Voice => self.voice += 1,
            ServiceClass::Video => self.video += 1,
        }
    }

    /// Drops the count for `class`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, wraps in release) when the count is
    /// already zero — a bookkeeping bug upstream.
    pub fn decrement(&mut self, class: ServiceClass) {
        match class {
            ServiceClass::Text => self.text -= 1,
            ServiceClass::Voice => self.voice -= 1,
            ServiceClass::Video => self.video -= 1,
        }
    }

    /// The paper's Real Time Counter (RTC): voice + video calls.
    #[must_use]
    pub fn real_time(&self) -> u32 {
        self.voice + self.video
    }

    /// The paper's Non Real Time Counter (NRTC): text calls.
    #[must_use]
    pub fn non_real_time(&self) -> u32 {
        self.text
    }

    /// Total active calls.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.text + self.voice + self.video
    }
}

/// Whether a request is a brand-new call or an ongoing call handed off
/// from a neighboring cell. Handoffs are dropped (not blocked) on
/// rejection, which users perceive as far worse — CAC schemes treat them
/// with priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CallKind {
    /// A new call originating in the cell.
    New,
    /// An active call arriving from a neighbor cell.
    Handoff,
}

impl fmt::Display for CallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CallKind::New => "new",
            CallKind::Handoff => "handoff",
        })
    }
}

/// Unique identifier of a call across the whole network.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CallId(pub u64);

impl fmt::Display for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "call#{}", self.0)
    }
}

/// Unique identifier of a cell / base station.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CellId(pub u32);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// The GPS-derived mobility observation the paper feeds to FLC1:
/// user speed, heading deviation from the base station, and distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilityInfo {
    /// User speed in km/h (paper universe: 0–120).
    pub speed_kmh: f64,
    /// Angle between the user's heading and the bearing toward the BS, in
    /// degrees (paper universe: −180…180; 0 = heading straight at the BS).
    pub angle_deg: f64,
    /// Distance between user and BS in km (paper universe: 0–10).
    pub distance_km: f64,
}

impl MobilityInfo {
    /// Creates a mobility observation, normalizing the angle into
    /// `(-180, 180]` and clamping speed/distance at zero.
    ///
    /// Non-finite values pass through unchanged so that
    /// [`MobilityInfo::is_finite`] can still detect a corrupted GPS fix —
    /// silently coercing NaN to 0 would turn garbage into a "perfect"
    /// stationary reading.
    #[must_use]
    pub fn new(speed_kmh: f64, angle_deg: f64, distance_km: f64) -> Self {
        // `if v < 0.0` (not `v.max(0.0)`) so NaN is preserved, not masked.
        Self {
            speed_kmh: if speed_kmh < 0.0 { 0.0 } else { speed_kmh },
            angle_deg: normalize_angle(angle_deg),
            distance_km: if distance_km < 0.0 { 0.0 } else { distance_km },
        }
    }

    /// A stationary observation at the cell center — the most favorable
    /// input FLC1 can see; useful as a neutral default in tests.
    #[must_use]
    pub fn stationary() -> Self {
        Self { speed_kmh: 0.0, angle_deg: 0.0, distance_km: 0.0 }
    }

    /// `true` when every field is finite (a corrupted GPS fix is not).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.speed_kmh.is_finite() && self.angle_deg.is_finite() && self.distance_km.is_finite()
    }
}

/// Wraps an angle into `(-180, 180]` degrees.
#[must_use]
pub fn normalize_angle(angle_deg: f64) -> f64 {
    if !angle_deg.is_finite() {
        return angle_deg;
    }
    let mut a = angle_deg % 360.0;
    if a <= -180.0 {
        a += 360.0;
    } else if a > 180.0 {
        a -= 360.0;
    }
    a
}

/// A complete admission request: who is asking, for what, and how they are
/// moving.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CallRequest {
    /// Network-unique call identifier.
    pub id: CallId,
    /// Requested service class.
    pub class: ServiceClass,
    /// New call or handoff.
    pub kind: CallKind,
    /// GPS mobility observation at request time.
    pub mobility: MobilityInfo,
    /// The call's bandwidth contract. Defaults to the paper's rigid
    /// per-class profile; elastic workloads attach their own via
    /// [`CallRequest::with_profile`].
    pub profile: ServiceProfile,
}

impl CallRequest {
    /// Convenience constructor using the paper's rigid profile for
    /// `class` (floor == nominal == the class demand).
    #[must_use]
    pub fn new(id: CallId, class: ServiceClass, kind: CallKind, mobility: MobilityInfo) -> Self {
        Self { id, class, kind, mobility, profile: ServiceProfile::paper(class) }
    }

    /// Replaces the bandwidth contract (and aligns `class` with it).
    #[must_use]
    pub fn with_profile(mut self, profile: ServiceProfile) -> Self {
        self.class = profile.class;
        self.profile = profile;
        self
    }

    /// Nominal bandwidth this request asks for.
    #[must_use]
    pub fn demand(&self) -> BandwidthUnits {
        self.profile.rb_cost_nominal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demands_match_paper() {
        assert_eq!(ServiceClass::Text.demand().get(), 1);
        assert_eq!(ServiceClass::Voice.demand().get(), 5);
        assert_eq!(ServiceClass::Video.demand().get(), 10);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, class) in ServiceClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn real_time_split_matches_paper() {
        assert!(!ServiceClass::Text.is_real_time());
        assert!(ServiceClass::Voice.is_real_time());
        assert!(ServiceClass::Video.is_real_time());
    }

    #[test]
    fn request_levels_span_flc2_universe() {
        for class in ServiceClass::ALL {
            let r = class.request_level();
            assert!((0.0..=10.0).contains(&r));
        }
    }

    #[test]
    fn angle_normalization() {
        assert_eq!(normalize_angle(0.0), 0.0);
        assert_eq!(normalize_angle(180.0), 180.0);
        assert_eq!(normalize_angle(-180.0), 180.0);
        assert_eq!(normalize_angle(190.0), -170.0);
        assert_eq!(normalize_angle(-190.0), 170.0);
        assert_eq!(normalize_angle(360.0), 0.0);
        assert_eq!(normalize_angle(720.0 + 45.0), 45.0);
    }

    #[test]
    fn mobility_new_sanitizes() {
        let m = MobilityInfo::new(-5.0, 270.0, -1.0);
        assert_eq!(m.speed_kmh, 0.0);
        assert_eq!(m.angle_deg, -90.0);
        assert_eq!(m.distance_km, 0.0);
        assert!(m.is_finite());
        assert!(!MobilityInfo::new(f64::NAN, 0.0, 0.0).is_finite());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ServiceClass::Voice.to_string(), "voice");
        assert_eq!(CallKind::Handoff.to_string(), "handoff");
        assert_eq!(CallId(7).to_string(), "call#7");
        assert_eq!(CellId(3).to_string(), "cell#3");
    }

    #[test]
    fn request_demand_delegates() {
        let req = CallRequest::new(
            CallId(1),
            ServiceClass::Video,
            CallKind::New,
            MobilityInfo::stationary(),
        );
        assert_eq!(req.demand().get(), 10);
        assert_eq!(req.profile, ServiceProfile::paper(ServiceClass::Video));
        assert!(!req.profile.is_elastic());
    }

    #[test]
    fn elastic_profile_floor_rounds_up_within_band() {
        let p = ServiceProfile::elastic(ServiceClass::Video, BandwidthUnits::new(10), 0.5, 180.0);
        assert_eq!(p.rb_cost_min.get(), 5);
        assert_eq!(p.rb_cost_nominal.get(), 10);
        assert!(p.is_elastic());
        assert_eq!(p.slack().get(), 5);
        // ceil(5 * 0.3) = 2
        let voice = ServiceProfile::elastic(ServiceClass::Voice, BandwidthUnits::new(5), 0.3, 60.0);
        assert_eq!(voice.rb_cost_min.get(), 2);
        // 1-BU nominal cannot shrink below 1 even with a tiny floor.
        let text = ServiceProfile::elastic(ServiceClass::Text, BandwidthUnits::new(1), 0.1, 30.0);
        assert_eq!(text.rb_cost_min.get(), 1);
        assert!(!text.is_elastic());
        // Out-of-range floors clamp into (0, 1].
        let clamped =
            ServiceProfile::elastic(ServiceClass::Video, BandwidthUnits::new(10), 7.0, 30.0);
        assert_eq!(clamped.rb_cost_min.get(), 10);
    }

    #[test]
    fn with_profile_aligns_class() {
        let elastic =
            ServiceProfile::elastic(ServiceClass::Voice, BandwidthUnits::new(5), 0.4, 120.0);
        let req = CallRequest::new(
            CallId(1),
            ServiceClass::Video,
            CallKind::Handoff,
            MobilityInfo::stationary(),
        )
        .with_profile(elastic);
        assert_eq!(req.class, ServiceClass::Voice);
        assert_eq!(req.demand().get(), 5);
        assert_eq!(req.profile.rb_cost_min.get(), 2);
    }

    #[test]
    fn profile_set_dispatches_by_class() {
        let set = ServiceProfileSet::paper();
        for class in ServiceClass::ALL {
            assert_eq!(set.profile_of(class).class, class);
            assert_eq!(set.profile_of(class).rb_cost_nominal, class.demand());
            assert!(!set.profile_of(class).is_elastic());
        }
        let elastic = ServiceProfileSet::elastic_paper(0.5);
        assert!(elastic.voice.is_elastic());
        assert!(elastic.video.is_elastic());
        assert!(!elastic.text.is_elastic(), "1-BU text has no room to degrade");
        assert!(elastic.text.mean_duration_s < elastic.video.mean_duration_s);
    }

    #[test]
    fn class_counts_roundtrip() {
        let mut counts = ClassCounts::default();
        counts.increment(ServiceClass::Voice);
        counts.increment(ServiceClass::Voice);
        counts.increment(ServiceClass::Video);
        counts.increment(ServiceClass::Text);
        assert_eq!(counts.of(ServiceClass::Voice), 2);
        assert_eq!(counts.real_time(), 3);
        assert_eq!(counts.non_real_time(), 1);
        assert_eq!(counts.total(), 4);
        counts.decrement(ServiceClass::Voice);
        assert_eq!(counts.real_time(), 2);
        assert_eq!(counts.total(), 3);
    }
}
