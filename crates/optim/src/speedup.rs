//! Parallel-execution time-adjustment curves `ζ_i` (paper §3.4).
//!
//! `ζ_i(n)` multiplies the summed execution time of the `n` tasks on
//! cluster `i`: `ζ ≡ 1` recovers the sequential setting of Eq. (3), while
//! the paper's §4.5 evaluation uses "an exponential decay curve from 1 to
//! 0.6, reflecting the diminishing marginal effect" of batching more tasks.
//! The curve must be differentiable in `n` because the relaxation treats
//! `n_i = xᵢᵀ1` as a continuous quantity.

/// A differentiable speedup curve `ζ(n)` over the (fractional) task count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedupCurve {
    /// Sequential execution: `ζ(n) = 1`.
    None,
    /// `ζ(n) = floor + (1 - floor) · exp(-rate · (n - 1))` for `n ≥ 1`,
    /// and `ζ(n) = 1` for `n < 1` (a single task cannot speed up).
    ///
    /// `ζ(1) = 1`, `ζ(∞) = floor`. With `floor = 0.6` this is the paper's
    /// §4.5 curve.
    ExpDecay {
        /// Asymptotic speedup ratio in `(0, 1]`.
        floor: f64,
        /// Decay rate per additional task, `> 0`.
        rate: f64,
    },
}

impl SpeedupCurve {
    /// The paper's §4.5 configuration: exponential decay from 1 to 0.6.
    pub fn paper_parallel() -> Self {
        SpeedupCurve::ExpDecay {
            floor: 0.6,
            rate: 0.35,
        }
    }

    /// Evaluates `ζ(n)`.
    pub fn eval(self, n: f64) -> f64 {
        match self {
            SpeedupCurve::None => 1.0,
            SpeedupCurve::ExpDecay { floor, rate } => {
                if n <= 1.0 {
                    1.0
                } else {
                    floor + (1.0 - floor) * (-rate * (n - 1.0)).exp()
                }
            }
        }
    }

    /// Derivative `dζ/dn`.
    pub fn derivative(self, n: f64) -> f64 {
        match self {
            SpeedupCurve::None => 0.0,
            SpeedupCurve::ExpDecay { floor, rate } => {
                if n <= 1.0 {
                    0.0
                } else {
                    -rate * (1.0 - floor) * (-rate * (n - 1.0)).exp()
                }
            }
        }
    }

    /// Second derivative `d²ζ/dn²` (one-sided at the kink `n = 1`, like
    /// [`Self::derivative`]).
    pub fn second_derivative(self, n: f64) -> f64 {
        match self {
            SpeedupCurve::None => 0.0,
            SpeedupCurve::ExpDecay { floor, rate } => {
                if n <= 1.0 {
                    0.0
                } else {
                    rate * rate * (1.0 - floor) * (-rate * (n - 1.0)).exp()
                }
            }
        }
    }

    /// Whether the curve is identically one (the convex case).
    pub fn is_trivial(self) -> bool {
        matches!(self, SpeedupCurve::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let c = SpeedupCurve::None;
        for n in [0.0, 1.0, 5.0, 100.0] {
            assert_eq!(c.eval(n), 1.0);
            assert_eq!(c.derivative(n), 0.0);
        }
        assert!(c.is_trivial());
    }

    #[test]
    fn exp_decay_endpoints() {
        let c = SpeedupCurve::paper_parallel();
        assert_eq!(c.eval(1.0), 1.0);
        assert!((c.eval(1000.0) - 0.6).abs() < 1e-9);
        assert!(!c.is_trivial());
    }

    #[test]
    fn exp_decay_monotone_decreasing() {
        let c = SpeedupCurve::paper_parallel();
        let mut prev = c.eval(1.0);
        for k in 2..20 {
            let v = c.eval(k as f64);
            assert!(v < prev, "ζ must strictly decrease past n=1");
            assert!(v >= 0.6);
            prev = v;
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let c = SpeedupCurve::ExpDecay {
            floor: 0.6,
            rate: 0.35,
        };
        for n in [1.5, 2.0, 3.7, 10.0] {
            let h = 1e-6;
            let numeric = (c.eval(n + h) - c.eval(n - h)) / (2.0 * h);
            assert!((c.derivative(n) - numeric).abs() < 1e-6, "at n={n}");
        }
    }

    #[test]
    fn total_time_still_grows_with_tasks() {
        // ζ(n)·n must be increasing: adding work never reduces wall time.
        let c = SpeedupCurve::paper_parallel();
        let mut prev = 0.0;
        for k in 1..30 {
            let total = c.eval(k as f64) * k as f64;
            assert!(total > prev);
            prev = total;
        }
    }
}
