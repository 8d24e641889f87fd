//! The benchmark's arithmetic: percentiles under the tail-sample rule,
//! run-to-run spreads, failure and SLO accounting, peak-RSS parsing and
//! the unattributed share. Kept free of I/O so the unit tests below pin
//! every rule the reported numbers depend on.

/// Samples a percentile must leave strictly beyond it before it is
/// reported: with fewer, the value is one or two outliers, not a tail.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), reported
/// only when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
///
/// Nearest rank `k = ceil(q·n)` puts `n − k` samples strictly above the
/// reported rank, so p99 needs `n ≥ 1000` and p50 needs `n ≥ 20`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    // Integer rank arithmetic in per-mille keeps 0.99·1000 from
    // rounding up to rank 991 through floating-point error.
    let per_mille = (q * 1000.0).round() as usize;
    let rank = (per_mille * n).div_ceil(1000).max(1);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so the repeat mode
/// reports the same spreads an external checker computes from the same
/// values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let ld = values.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Run-to-run spread of one metric over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median of the runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(q3 − q1) / |median|`.
    pub iqr_share: f64,
    /// `(max − min) / |median|`.
    pub range_share: f64,
}

impl Spread {
    /// True when the quartile spread exceeds `bound` — the rule a
    /// gated metric's runs are held to.
    pub fn exceeds(&self, bound: f64) -> bool {
        self.iqr_share > bound
    }
}

/// Computes the [`Spread`] of `values` (at least two).
pub fn spread(values: &[f64]) -> Spread {
    let (q1, q2, q3) = quartiles(values);
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let scale = q2.abs();
    Spread {
        median: q2,
        q1,
        q3,
        iqr_share: (q3 - q1) / scale,
        range_share: (hi - lo) / scale,
    }
}

/// Failure accounting for the serve path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeTally {
    /// Arrival events offered to the daemon.
    pub arrivals: u64,
    /// Arrivals the daemon shed at admission.
    pub shed: u64,
    /// Resolves the daemon ran.
    pub resolves: u64,
    /// Resolves whose ladder returned an error (the previous matching
    /// stayed in place).
    pub solve_errors: u64,
    /// Resolves that blew their deadline budget.
    pub deadline_misses: u64,
}

impl ServeTally {
    /// Operations attempted: every arrival plus every resolve.
    pub fn attempted(&self) -> u64 {
        self.arrivals + self.resolves
    }

    /// Operations failed: shed arrivals, solve errors, deadline misses.
    pub fn failed(&self) -> u64 {
        self.shed + self.solve_errors + self.deadline_misses
    }

    /// Share of requests that missed the latency `limit_ms`: resolves
    /// slower than the limit plus every shed arrival, which never got
    /// an answer and so misses every limit.
    pub fn slo_miss_share(&self, resolve_ms: &[f64], limit_ms: f64) -> f64 {
        let slow = resolve_ms.iter().filter(|&&v| v > limit_ms).count() as u64;
        share(slow + self.shed, resolve_ms.len() as u64 + self.shed)
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size in MB from a `/proc/<pid>/status` document
/// (`VmHWM:` is reported in kB).
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vmhwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Share of `wall` not covered by the attributed layer times. Negative
/// when the layer times overlap (they are then not additive — a sign
/// the attribution double-counts).
pub fn unattributed_share(wall: f64, layers: &[f64]) -> f64 {
    if wall <= 0.0 {
        return 0.0;
    }
    (wall - layers.iter().sum::<f64>()) / wall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None, "999 leave 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0), "10 beyond 990");
    }

    #[test]
    fn p50_rule_and_nearest_rank() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None, "rank 10 of 19 leaves 9");
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 1.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Values computed with Python 3.11 `statistics.quantiles(v, n=4)`.
        assert_eq!(
            quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]),
            (2.0, 5.0, 8.0)
        );
        assert_eq!(quartiles(&[1.5, 2.5]), (1.25, 2.0, 2.75));
        let v: Vec<f64> = (1..=10).map(|i| 10.0 * f64::from(i)).collect();
        assert_eq!(quartiles(&v), (27.5, 55.0, 82.5));
    }

    #[test]
    fn spread_shares() {
        let s = spread(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]);
        assert_eq!(s.median, 55.0);
        assert!((s.iqr_share - 55.0 / 55.0).abs() < 1e-12);
        assert!((s.range_share - 90.0 / 55.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn phase_flipping_setup_is_flagged() {
        // A sub-second multi-threaded set-up on a host whose speed flips
        // between phases (0.41 s and 0.70 s for identical work): its
        // quartile spread exceeds even the largest bound a gated metric
        // may have.
        let flipping = [0.41, 0.43, 0.70, 0.44, 0.68, 0.42, 0.69, 0.45, 0.41, 0.66];
        assert!(spread(&flipping).exceeds(0.25));
        let steady = [1.31, 1.28, 1.35, 1.30, 1.33, 1.29, 1.32, 1.30, 1.34, 1.31];
        assert!(!spread(&steady).exceeds(0.25));
    }

    #[test]
    fn shed_arrival_counts_as_failed_and_as_latency_miss() {
        let tally = ServeTally {
            arrivals: 6,
            shed: 2,
            resolves: 4,
            solve_errors: 0,
            deadline_misses: 1,
        };
        assert_eq!(tally.attempted(), 10);
        assert_eq!(tally.failed(), 3);
        assert!((share(tally.failed(), tally.attempted()) - 0.3).abs() < 1e-12);
        // One of four resolves is over 5 ms, and both shed arrivals miss:
        // 3 misses over 4 resolves + 2 shed requests.
        let lat = [1.0, 2.0, 9.0, 4.0];
        assert!((tally.slo_miss_share(&lat, 5.0) - 3.0 / 6.0).abs() < 1e-12);
        assert_eq!(share(0, 0), 0.0);
    }

    #[test]
    fn vmhwm_parsing() {
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_mb(status), Some(200.0));
        assert_eq!(parse_vmhwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm_mb("VmHWM:\t12 MB\n"), None, "unit must be kB");
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn unattributed_is_the_uncovered_remainder() {
        assert!((unattributed_share(10.0, &[6.0, 3.0]) - 0.1).abs() < 1e-12);
        assert!(unattributed_share(10.0, &[6.0, 6.0]) < 0.0, "overlap shows");
        assert_eq!(unattributed_share(0.0, &[1.0]), 0.0);
    }
}
