//! Build a custom fuzzy controller with the `facs-fuzzy` engine — here, a
//! handoff-urgency controller that decides how aggressively a cell should
//! prepare to hand a user over.
//!
//! ```sh
//! cargo run --example custom_fuzzy_controller
//! ```

use facs_suite::fuzzy::{Engine, MembershipFunction, Rule, Variable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Inputs: signal strength (dBm, -110..-50) and user speed (km/h).
    let signal = Variable::builder("signal", -110.0, -50.0)
        .term("weak", MembershipFunction::trapezoidal(-110.0, -95.0, 0.0, 15.0)?)
        .term("fair", MembershipFunction::triangular(-80.0, 15.0, 15.0)?)
        .term("strong", MembershipFunction::trapezoidal(-65.0, -50.0, 15.0, 0.0)?)
        .build()?;
    let speed = Variable::builder("speed", 0.0, 120.0)
        .term("slow", MembershipFunction::trapezoidal(0.0, 15.0, 0.0, 15.0)?)
        .term("fast", MembershipFunction::trapezoidal(60.0, 120.0, 45.0, 0.0)?)
        .build()?;
    // Output: handoff urgency in [0, 1].
    let urgency = Variable::builder("urgency", 0.0, 1.0).uniform_partition("u", 5).build()?;

    // One rule per (signal, speed) pair, like the rows of the paper's
    // rule tables; the label names the rule when it is printed.
    let table = [
        ("panic", "weak", "fast", "u5"),
        ("worried", "weak", "slow", "u4"),
        ("watch", "fair", "fast", "u3"),
        ("calm", "fair", "slow", "u2"),
        ("idle", "strong", "fast", "u1"),
        ("idle-slow", "strong", "slow", "u1"),
    ];
    let mut builder = Engine::builder().input(signal).input(speed).output(urgency);
    for (label, sig, spd, urg) in table {
        let rule = Rule::when("signal", sig)
            .and("speed", spd)
            .then("urgency", urg)
            .label(label)
            .build()?;
        println!("{rule}");
        builder = builder.rule(rule);
    }
    let engine = builder.build()?;

    println!();
    println!("signal dBm | speed km/h | handoff urgency");
    println!("-----------+------------+----------------");
    for (dbm, kmh) in [(-100.0, 90.0), (-100.0, 5.0), (-80.0, 90.0), (-80.0, 5.0), (-55.0, 60.0)] {
        // Readings follow the input declaration order: signal, then speed.
        let urgency = engine.evaluate_crisp(&[dbm, kmh])?;
        println!("{dbm:10.0} | {kmh:10.0} | {urgency:.3}");
    }
    Ok(())
}
