//! Reads what the program already records: `mfcp_obs::snapshot()`
//! differences, summed over the steps of one path.
//!
//! A run interleaves serve steps with retrain steps, so each step is
//! bracketed by two snapshots and its difference is added to that
//! path's totals — the two paths' counters never mix.

use std::collections::BTreeMap;

use mfcp_obs::Snapshot;

/// One path's registry changes, summed over its steps.
#[derive(Debug, Default)]
pub struct ObsTotals {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, (u64, f64)>,
    // Histogram name -> (count, sum, bucket lower bound -> count).
    hists: BTreeMap<String, (u64, f64, BTreeMap<u64, u64>)>,
}

impl ObsTotals {
    /// Adds the change between `before` and `after`.
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        for (name, &v) in &after.counters {
            let old = before.counters.get(name).copied().unwrap_or(0);
            *self.counters.entry(name.clone()).or_default() += v.saturating_sub(old);
        }
        for (path, s) in &after.spans {
            let (c0, t0) = before
                .spans
                .get(path)
                .map_or((0, 0.0), |o| (o.count, o.total_secs));
            let e = self.spans.entry(path.clone()).or_default();
            e.0 += s.count.saturating_sub(c0);
            e.1 += (s.total_secs - t0).max(0.0);
        }
        for (name, h) in &after.histograms {
            let old = before.histograms.get(name);
            let e = self.hists.entry(name.clone()).or_default();
            e.0 += h.count.saturating_sub(old.map_or(0, |o| o.count));
            e.1 += h.sum - old.map_or(0.0, |o| o.sum);
            for &(lo, _, c) in &h.buckets {
                let c0 = old
                    .and_then(|o| o.buckets.iter().find(|b| b.0 == lo))
                    .map_or(0, |b| b.2);
                *e.2.entry(lo.to_bits()).or_default() += c.saturating_sub(c0);
            }
        }
    }

    /// Counter increase.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Count and total seconds of every span path accepted by `path`.
    pub fn spans(&self, path: impl Fn(&str) -> bool) -> (u64, f64) {
        self.spans
            .iter()
            .filter(|(p, _)| path(p))
            .fold((0, 0.0), |(c, t), (_, v)| (c + v.0, t + v.1))
    }

    /// Count and sum of a histogram's new observations.
    pub fn hist(&self, name: &str) -> (u64, f64) {
        self.hists.get(name).map_or((0, 0.0), |h| (h.0, h.1))
    }

    /// New observations in buckets starting at or above `lo` (bucket
    /// bounds are `k·10^e`, so a cap such as 400 is a bucket boundary
    /// and this counts values `≥ lo` exactly).
    pub fn hist_at_least(&self, name: &str, lo: f64) -> u64 {
        self.hists.get(name).map_or(0, |h| {
            h.2.iter()
                .filter(|(b, _)| f64::from_bits(**b) >= lo)
                .map(|(_, c)| c)
                .sum()
        })
    }
}

/// Per-path registry totals of a traced run.
#[derive(Debug, Default)]
pub struct PathObs {
    /// Changes during serve steps.
    pub serve: ObsTotals,
    /// Changes during retrain steps.
    pub train: ObsTotals,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_step_differences() {
        let c = mfcp_obs::counter("e2ebench.test.steps");
        let h = mfcp_obs::histogram("e2ebench.test.iters");
        let mut totals = ObsTotals::default();
        for _ in 0..2 {
            let before = mfcp_obs::snapshot();
            c.add(3);
            h.record(400.0);
            h.record(12.0);
            totals.add(&before, &mfcp_obs::snapshot());
            c.inc(); // between steps: not counted
        }
        assert_eq!(totals.counter("e2ebench.test.steps"), 6);
        assert_eq!(totals.hist("e2ebench.test.iters"), (4, 824.0));
        assert_eq!(totals.hist_at_least("e2ebench.test.iters", 400.0), 2);
    }
}
