//! Analytical Erlang-B blocking, used to validate the simulator.
//!
//! For single-class Poisson arrivals with exponential holding times and no
//! admission policy beyond capacity (Complete Sharing with one class), the
//! steady-state blocking probability has the closed Erlang-B form. The
//! integration test `erlang_validation` drives the simulator with exactly
//! that workload and checks the measured blocking against this module —
//! tying the discrete-event engine to queueing theory instead of to
//! itself.

/// Erlang-B blocking probability for `servers` circuits offered
/// `erlangs` of traffic, computed with the numerically stable recurrence
/// `B(0) = 1`, `B(n) = a·B(n−1) / (n + a·B(n−1))`.
///
/// # Panics
///
/// Panics if `erlangs` is negative or non-finite — offered load is a
/// configuration value, not runtime data.
#[must_use]
pub fn erlang_b(servers: u32, erlangs: f64) -> f64 {
    assert!(erlangs.is_finite() && erlangs >= 0.0, "bad offered load {erlangs}");
    if erlangs == 0.0 {
        return 0.0;
    }
    let mut b = 1.0;
    for n in 1..=servers {
        b = erlangs * b / (f64::from(n) + erlangs * b);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_values() {
        // Classic table entries (3-decimal precision).
        assert!((erlang_b(1, 1.0) - 0.5).abs() < 1e-12);
        assert!((erlang_b(2, 1.0) - 0.2).abs() < 1e-12);
        // B(5, 3) = 0.1101 (standard table).
        assert!((erlang_b(5, 3.0) - 0.1101).abs() < 1e-4);
        // B(10, 5) ≈ 0.0184.
        assert!((erlang_b(10, 5.0) - 0.0184).abs() < 1e-4);
    }

    #[test]
    fn zero_load_never_blocks() {
        assert_eq!(erlang_b(10, 0.0), 0.0);
    }

    #[test]
    fn blocking_decreases_with_servers() {
        let mut prev = 1.0;
        for servers in 1..=40 {
            let b = erlang_b(servers, 8.0);
            assert!(b < prev, "B({servers}, 8) = {b} did not decrease");
            prev = b;
        }
    }

    #[test]
    fn blocking_increases_with_load() {
        let mut prev = 0.0;
        for tenth in 1..=100 {
            let a = f64::from(tenth) / 10.0;
            let b = erlang_b(8, a);
            assert!(b > prev, "B(8, {a}) = {b} did not increase");
            prev = b;
        }
    }

    #[test]
    fn heavy_traffic_limit() {
        // As load -> infinity, blocking -> 1 and carried -> servers.
        let b = erlang_b(4, 1e6);
        assert!(b > 0.999_99);
        assert!((1e6 * (1.0 - b) - 4.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "bad offered load")]
    fn rejects_negative_load() {
        let _ = erlang_b(4, -1.0);
    }
}
