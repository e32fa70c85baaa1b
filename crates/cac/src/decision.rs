//! Admission decisions, including the paper's five-level soft verdicts.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The paper's soft decision levels for FLC2's `A/R` output
/// (`{Reject, Weak Reject, Not Reject Not Accept, Weak Accept, Accept}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// Firm rejection.
    Reject,
    /// Leaning toward rejection.
    WeakReject,
    /// Neutral — the paper's "not reject, not accept".
    Undecided,
    /// Leaning toward acceptance.
    WeakAccept,
    /// Firm acceptance.
    Accept,
}

impl Verdict {
    /// Maps a crisp score in `[-1, 1]` to the nearest verdict level, using
    /// the centers of the paper's five output terms (−1, −0.5, 0, 0.5, 1).
    #[must_use]
    pub fn from_score(score: f64) -> Self {
        match score {
            s if s <= -0.75 => Verdict::Reject,
            s if s <= -0.25 => Verdict::WeakReject,
            s if s < 0.25 => Verdict::Undecided,
            s if s < 0.75 => Verdict::WeakAccept,
            _ => Verdict::Accept,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Reject => "reject",
            Verdict::WeakReject => "weak-reject",
            Verdict::Undecided => "undecided",
            Verdict::WeakAccept => "weak-accept",
            Verdict::Accept => "accept",
        })
    }
}

/// The outcome of one admission decision: the binary gate plus the
/// controller's soft evidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    admit: bool,
    score: f64,
    verdict: Verdict,
}

impl Decision {
    /// An acceptance with the given soft score in `[-1, 1]`.
    #[must_use]
    pub fn accept(score: f64) -> Self {
        let score = score.clamp(-1.0, 1.0);
        Self { admit: true, score, verdict: Verdict::from_score(score) }
    }

    /// A rejection with the given soft score in `[-1, 1]`.
    #[must_use]
    pub fn reject(score: f64) -> Self {
        let score = score.clamp(-1.0, 1.0);
        Self { admit: false, score, verdict: Verdict::from_score(score) }
    }

    /// Gates a soft score with an acceptance threshold: admit iff
    /// `score > threshold`. This is how FACS turns FLC2's defuzzified
    /// `A/R` value into a binary decision.
    #[must_use]
    pub fn from_score(score: f64, threshold: f64) -> Self {
        let score = score.clamp(-1.0, 1.0);
        Self { admit: score > threshold, score, verdict: Verdict::from_score(score) }
    }

    /// A crisp binary decision with canonical scores ±1.
    #[must_use]
    pub fn binary(admit: bool) -> Self {
        if admit {
            Self::accept(1.0)
        } else {
            Self::reject(-1.0)
        }
    }

    /// Whether the call is admitted.
    #[must_use]
    pub fn admits(&self) -> bool {
        self.admit
    }

    /// The soft score in `[-1, 1]` (higher = stronger acceptance).
    #[must_use]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The five-level verdict corresponding to the score.
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        self.verdict
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (score {:+.3}, {})",
            if self.admit { "ADMIT" } else { "DENY" },
            self.score,
            self.verdict
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_banding_matches_term_centers() {
        assert_eq!(Verdict::from_score(-1.0), Verdict::Reject);
        assert_eq!(Verdict::from_score(-0.8), Verdict::Reject);
        assert_eq!(Verdict::from_score(-0.5), Verdict::WeakReject);
        assert_eq!(Verdict::from_score(-0.3), Verdict::WeakReject);
        assert_eq!(Verdict::from_score(0.0), Verdict::Undecided);
        assert_eq!(Verdict::from_score(0.24), Verdict::Undecided);
        assert_eq!(Verdict::from_score(0.5), Verdict::WeakAccept);
        assert_eq!(Verdict::from_score(0.74), Verdict::WeakAccept);
        assert_eq!(Verdict::from_score(0.75), Verdict::Accept);
        assert_eq!(Verdict::from_score(1.0), Verdict::Accept);
    }

    #[test]
    fn verdicts_are_ordered() {
        assert!(Verdict::Reject < Verdict::WeakReject);
        assert!(Verdict::WeakReject < Verdict::Undecided);
        assert!(Verdict::Undecided < Verdict::WeakAccept);
        assert!(Verdict::WeakAccept < Verdict::Accept);
    }

    #[test]
    fn threshold_gate() {
        assert!(Decision::from_score(0.1, 0.0).admits());
        assert!(!Decision::from_score(0.0, 0.0).admits());
        assert!(!Decision::from_score(-0.1, 0.0).admits());
        // Stricter threshold.
        assert!(!Decision::from_score(0.1, 0.25).admits());
        // Permissive threshold.
        assert!(Decision::from_score(-0.1, -0.5).admits());
    }

    #[test]
    fn scores_are_clamped() {
        assert_eq!(Decision::accept(5.0).score(), 1.0);
        assert_eq!(Decision::reject(-5.0).score(), -1.0);
    }

    #[test]
    fn binary_decisions() {
        let a = Decision::binary(true);
        assert!(a.admits());
        assert_eq!(a.verdict(), Verdict::Accept);
        let r = Decision::binary(false);
        assert!(!r.admits());
        assert_eq!(r.verdict(), Verdict::Reject);
    }

    #[test]
    fn display_is_informative() {
        let d = Decision::from_score(0.5, 0.0);
        let s = d.to_string();
        assert!(s.contains("ADMIT"));
        assert!(s.contains("weak-accept"));
    }
}
