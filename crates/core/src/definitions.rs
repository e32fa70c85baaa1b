//! The FLC1 and FLC2 engine definitions: universes, membership terms and
//! rule assembly (paper Tables 1–2, Figs. 5–6).
//!
//! The crate's build script includes this file as well, to compile the
//! default decision surfaces that `Flc1`/`Flc2` load from the binary, so
//! the library and the baked surfaces come from one definition. It may
//! therefore depend on nothing but `facs_fuzzy` and `crate::tables`.

/// FLC1, the mobility-prediction controller: (Speed, Angle, Distance) →
/// Cv.
pub mod flc1 {
    use facs_fuzzy::{Engine, FuzzyError, InferenceConfig, MembershipFunction, Rule, Variable};

    use crate::tables::FRB1;

    /// Universe of the speed input, km/h (paper §4).
    pub const SPEED_UNIVERSE: (f64, f64) = (0.0, 120.0);
    /// Universe of the angle input, degrees.
    pub const ANGLE_UNIVERSE: (f64, f64) = (-180.0, 180.0);
    /// Universe of the distance input, km.
    pub const DISTANCE_UNIVERSE: (f64, f64) = (0.0, 10.0);
    /// Universe of the correction-value output.
    pub const CV_UNIVERSE: (f64, f64) = (0.0, 1.0);

    /// Speed break-points of Fig. 5(a): Slow flat to 15, gone by 30;
    /// Middle peaks at 30; Fast flat from 60.
    pub const SPEED_BREAKS: [f64; 4] = [0.0, 15.0, 30.0, 60.0];
    /// Angle term centers of Fig. 5(b), degrees.
    pub const ANGLE_CENTERS: [f64; 7] = [-180.0, -90.0, -45.0, 0.0, 45.0, 90.0, 135.0];

    /// Builds the speed variable (Fig. 5a).
    fn speed_variable() -> Result<Variable, FuzzyError> {
        Variable::builder("s", SPEED_UNIVERSE.0, SPEED_UNIVERSE.1)
            .term("sl", MembershipFunction::trapezoidal(0.0, 15.0, 0.0, 15.0)?)
            .term("m", MembershipFunction::triangular(30.0, 15.0, 30.0)?)
            .term("fa", MembershipFunction::trapezoidal(60.0, 120.0, 30.0, 0.0)?)
            .build()
    }

    /// Builds the angle variable (Fig. 5b). B1/B2 are the "back"
    /// trapezoids at ±180°; the five triangles sit at −90, −45, 0, 45, 90
    /// with 45° flanks.
    fn angle_variable() -> Result<Variable, FuzzyError> {
        Variable::builder("a", ANGLE_UNIVERSE.0, ANGLE_UNIVERSE.1)
            .term("b1", MembershipFunction::trapezoidal(-180.0, -135.0, 0.0, 45.0)?)
            .term("l1", MembershipFunction::triangular(-90.0, 45.0, 45.0)?)
            .term("l2", MembershipFunction::triangular(-45.0, 45.0, 45.0)?)
            .term("st", MembershipFunction::triangular(0.0, 45.0, 45.0)?)
            .term("r1", MembershipFunction::triangular(45.0, 45.0, 45.0)?)
            .term("r2", MembershipFunction::triangular(90.0, 45.0, 45.0)?)
            .term("b2", MembershipFunction::trapezoidal(135.0, 180.0, 45.0, 0.0)?)
            .build()
    }

    /// Builds the distance variable (Fig. 5c): Near and Far crossing at
    /// 5 km.
    fn distance_variable() -> Result<Variable, FuzzyError> {
        Variable::builder("d", DISTANCE_UNIVERSE.0, DISTANCE_UNIVERSE.1)
            .term("n", MembershipFunction::triangular(0.0, 0.0, 10.0)?)
            .term("f", MembershipFunction::triangular(10.0, 10.0, 0.0)?)
            .build()
    }

    /// Builds the Cv output (Fig. 5d): nine terms evenly spaced over
    /// `[0, 1]` with edge trapezoids (a Ruspini partition with centers at
    /// i/8).
    fn cv_variable() -> Result<Variable, FuzzyError> {
        let step = 1.0 / 8.0;
        let mut builder = Variable::builder("cv", CV_UNIVERSE.0, CV_UNIVERSE.1)
            .term("cv1", MembershipFunction::trapezoidal(-1.0, 0.0, 0.0, step)?);
        for i in 2..=8 {
            let center = step * (i as f64 - 1.0);
            builder =
                builder.term(format!("cv{i}"), MembershipFunction::triangular(center, step, step)?);
        }
        builder.term("cv9", MembershipFunction::trapezoidal(1.0, 2.0, step, 0.0)?).build()
    }

    /// The FLC1 engine — the variables of Fig. 5 and the 42 rules of
    /// FRB1 — under `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] from the engine builders (cannot happen
    /// for the built-in tables).
    pub fn engine(config: InferenceConfig) -> Result<Engine, FuzzyError> {
        let rules: Result<Vec<Rule>, FuzzyError> = FRB1
            .iter()
            .enumerate()
            .map(|(i, &(s, a, d, cv))| {
                Rule::when("s", s)
                    .and("a", a)
                    .and("d", d)
                    .then("cv", cv)
                    .label(format!("frb1-{i}"))
                    .build()
            })
            .collect();
        Engine::builder()
            .input(speed_variable()?)
            .input(angle_variable()?)
            .input(distance_variable()?)
            .output(cv_variable()?)
            .rules(rules?)
            .config(config)
            .build()
    }
}

/// FLC2, the admission-decision controller: (Cv, Request, Counter
/// state) → A/R.
pub mod flc2 {
    use facs_fuzzy::{Engine, FuzzyError, InferenceConfig, MembershipFunction, Rule, Variable};

    use crate::tables::FRB2;

    /// Universe of the Cv input.
    pub const CV_UNIVERSE: (f64, f64) = (0.0, 1.0);
    /// Universe of the request input, BU.
    pub const REQUEST_UNIVERSE: (f64, f64) = (0.0, 10.0);
    /// Universe of the counter-state input, BU (the paper's 40-BU cell).
    pub const COUNTER_UNIVERSE: (f64, f64) = (0.0, 40.0);
    /// Universe of the decision output.
    pub const DECISION_UNIVERSE: (f64, f64) = (-1.0, 1.0);

    fn cv_variable() -> Result<Variable, FuzzyError> {
        Variable::builder("cv", CV_UNIVERSE.0, CV_UNIVERSE.1)
            .term("b", MembershipFunction::triangular(0.0, 0.0, 0.5)?)
            .term("n", MembershipFunction::triangular(0.5, 0.5, 0.5)?)
            .term("g", MembershipFunction::triangular(1.0, 0.5, 0.0)?)
            .build()
    }

    fn request_variable() -> Result<Variable, FuzzyError> {
        Variable::builder("r", REQUEST_UNIVERSE.0, REQUEST_UNIVERSE.1)
            .term("t", MembershipFunction::triangular(0.0, 0.0, 5.0)?)
            .term("vo", MembershipFunction::triangular(5.0, 5.0, 5.0)?)
            .term("vi", MembershipFunction::triangular(10.0, 5.0, 0.0)?)
            .build()
    }

    fn counter_variable() -> Result<Variable, FuzzyError> {
        Variable::builder("cs", COUNTER_UNIVERSE.0, COUNTER_UNIVERSE.1)
            .term("s", MembershipFunction::triangular(0.0, 0.0, 20.0)?)
            .term("m", MembershipFunction::triangular(20.0, 20.0, 20.0)?)
            .term("f", MembershipFunction::triangular(40.0, 20.0, 0.0)?)
            .build()
    }

    fn decision_variable() -> Result<Variable, FuzzyError> {
        Variable::builder("ar", DECISION_UNIVERSE.0, DECISION_UNIVERSE.1)
            .term("r", MembershipFunction::trapezoidal(-2.0, -1.0, 0.0, 0.5)?)
            .term("wr", MembershipFunction::triangular(-0.5, 0.5, 0.5)?)
            .term("nrna", MembershipFunction::triangular(0.0, 0.5, 0.5)?)
            .term("wa", MembershipFunction::triangular(0.5, 0.5, 0.5)?)
            .term("a", MembershipFunction::trapezoidal(1.0, 2.0, 0.5, 0.0)?)
            .build()
    }

    /// The FLC2 engine — the variables of Fig. 6 and the 27 rules of
    /// FRB2 — under `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] from the engine builders (cannot happen
    /// for the built-in tables).
    pub fn engine(config: InferenceConfig) -> Result<Engine, FuzzyError> {
        let rules: Result<Vec<Rule>, FuzzyError> = FRB2
            .iter()
            .enumerate()
            .map(|(i, &(cv, r, cs, ar))| {
                Rule::when("cv", cv)
                    .and("r", r)
                    .and("cs", cs)
                    .then("ar", ar)
                    .label(format!("frb2-{i}"))
                    .build()
            })
            .collect();
        Engine::builder()
            .input(cv_variable()?)
            .input(request_variable()?)
            .input(counter_variable()?)
            .output(decision_variable()?)
            .rules(rules?)
            .config(config)
            .build()
    }
}
