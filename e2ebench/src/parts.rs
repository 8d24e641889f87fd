//! An untraced run as a sequence of parts: fresh child processes, each
//! with its own set-up, serve trace and share of the timed window, whose
//! samples are pooled into the run's end-to-end metrics.
//!
//! Identical work runs several percent faster or slower from one process
//! to the next on the same host, with the same seed and inputs (address
//! layout and page placement differ per process), and one retrain in one
//! process moved by up to a fifth against the next process's. A run that
//! is one process carries one draw of that effect into every metric;
//! pooling the samples of several processes averages it out.

use std::process::{Command, Stdio};

use mfcp_obs::json::{self, Json};

use crate::metrics::Values;
use crate::retrain::RetrainRun;
use crate::serve::ServeRun;
use crate::stats::{self, ServeTally};

/// Fresh processes per untraced run; `setup_s` is the median of their
/// set-ups.
pub const PARTS: u64 = 5;

/// What one part measured: its set-up time and its raw samples.
#[derive(Debug, Clone, PartialEq)]
pub struct PartRecord {
    /// Threads the part's fan-outs used.
    pub threads: u64,
    /// Wall time from the part's start to the end of its set-up.
    pub setup_s: f64,
    /// Wall time of each timed retrain.
    pub retrain_secs: Vec<f64>,
    /// Decision-focused rounds over the timed retrains.
    pub rounds: u64,
    /// Cluster-gradient attempts over the timed retrains.
    pub gradient_attempts: u64,
    /// Cluster gradients skipped over the timed retrains.
    pub skipped: u64,
    /// Hash of the loss history's bits every retrain of the part
    /// reproduced; equal across parts, since they retrain the same inputs.
    pub loss_hash: u64,
    /// Wall-clock latency of every timed resolving call, ms.
    pub resolve_ms: Vec<f64>,
    /// Thread CPU time of the same calls, ms.
    pub resolve_cpu_ms: Vec<f64>,
    /// Timed calls that did not resolve.
    pub admits: u64,
    /// Time inside timed `apply`/`finish` calls.
    pub apply_secs: f64,
    /// Timed events.
    pub events: u64,
    /// Whole trace passes.
    pub passes: u64,
    /// Serve failure accounting.
    pub tally: ServeTally,
    /// Quality means over the first pass's resolves, and their count.
    pub objective_mean: f64,
    pub reliability_mean: f64,
    pub quality_resolves: u64,
    /// `VmHWM` once the first pass and three retrains were done.
    pub peak_rss_mb: f64,
    /// The set-up predictor's held-out regret (part 0 only).
    pub test_regret: Option<f64>,
}

impl PartRecord {
    /// The record of a part's set-up and timed samples.
    pub fn new(
        threads: usize,
        setup_s: f64,
        (retrains, loss_history): (&RetrainRun, &[f64]),
        served: &ServeRun,
        peak_rss_mb: f64,
        test_regret: Option<f64>,
    ) -> Self {
        PartRecord {
            threads: threads as u64,
            setup_s,
            retrain_secs: retrains.secs.clone(),
            rounds: retrains.rounds,
            gradient_attempts: retrains.gradient_attempts,
            skipped: retrains.skipped,
            loss_hash: bits_hash(loss_history),
            resolve_ms: served.resolve_ms.clone(),
            resolve_cpu_ms: served.resolve_cpu_ms.clone(),
            admits: served.admit_us.len() as u64,
            apply_secs: served.apply_secs,
            events: served.events,
            passes: served.passes,
            tally: served.tally,
            objective_mean: served.objective_mean,
            reliability_mean: served.reliability_mean,
            quality_resolves: served.quality_resolves,
            peak_rss_mb,
            test_regret,
        }
    }

    /// One line of strict JSON: the last line a part prints.
    pub fn to_json(&self) -> String {
        let num = |v: f64| json::number(v);
        let list = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|&x| json::number(x)).collect();
            format!("[{}]", items.join(","))
        };
        let t = &self.tally;
        format!(
            "{{\"threads\":{},\"setup_s\":{},\"retrain_secs\":{},\"rounds\":{},\
             \"gradient_attempts\":{},\"skipped\":{},\"loss_hash\":\"{:016x}\",\
             \"resolve_ms\":{},\"resolve_cpu_ms\":{},\"admits\":{},\"apply_secs\":{},\
             \"events\":{},\"passes\":{},\"arrivals\":{},\"shed\":{},\"resolves\":{},\
             \"solve_errors\":{},\"deadline_misses\":{},\"objective_mean\":{},\
             \"reliability_mean\":{},\"quality_resolves\":{},\"peak_rss_mb\":{},\
             \"test_regret\":{}}}",
            self.threads,
            num(self.setup_s),
            list(&self.retrain_secs),
            self.rounds,
            self.gradient_attempts,
            self.skipped,
            self.loss_hash,
            list(&self.resolve_ms),
            list(&self.resolve_cpu_ms),
            self.admits,
            num(self.apply_secs),
            self.events,
            self.passes,
            t.arrivals,
            t.shed,
            t.resolves,
            t.solve_errors,
            t.deadline_misses,
            num(self.objective_mean),
            num(self.reliability_mean),
            self.quality_resolves,
            num(self.peak_rss_mb),
            self.test_regret.map_or("null".to_string(), num),
        )
    }

    /// Parses [`PartRecord::to_json`]'s output.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let doc = json::parse(line).map_err(|e| format!("part record: {e:?}"))?;
        let f = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("part record lacks {key}"))
        };
        let n = |key: &str| f(key).map(|v| v as u64);
        let list = |key: &str| -> Result<Vec<f64>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("part record lacks {key}"))?
                .iter()
                .map(|v| v.as_f64().ok_or(format!("{key} holds a non-number")))
                .collect()
        };
        let loss_hash = doc
            .get("loss_hash")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("part record lacks loss_hash")?;
        Ok(PartRecord {
            threads: n("threads")?,
            setup_s: f("setup_s")?,
            retrain_secs: list("retrain_secs")?,
            rounds: n("rounds")?,
            gradient_attempts: n("gradient_attempts")?,
            skipped: n("skipped")?,
            loss_hash,
            resolve_ms: list("resolve_ms")?,
            resolve_cpu_ms: list("resolve_cpu_ms")?,
            admits: n("admits")?,
            apply_secs: f("apply_secs")?,
            events: n("events")?,
            passes: n("passes")?,
            tally: ServeTally {
                arrivals: n("arrivals")?,
                shed: n("shed")?,
                resolves: n("resolves")?,
                solve_errors: n("solve_errors")?,
                deadline_misses: n("deadline_misses")?,
            },
            objective_mean: f("objective_mean")?,
            reliability_mean: f("reliability_mean")?,
            quality_resolves: n("quality_resolves")?,
            peak_rss_mb: f("peak_rss_mb")?,
            test_regret: doc.get("test_regret").and_then(Json::as_f64),
        })
    }
}

/// FNV-1a over the bits of `values`.
pub fn bits_hash(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs the parts of one run in sequence, each as a fresh process of
/// this executable with `--part`, and collects their records. A part
/// that fails or prints no record fails the run.
pub fn run_all(workload: &str, seed: u64, seconds: f64) -> Result<Vec<PartRecord>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let per_part = seconds / PARTS as f64;
    (0..PARTS)
        .map(|part| {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed"])
                .arg(seed.to_string())
                .arg("--seconds")
                .arg(per_part.to_string())
                .args(["--trace", "0", "--part"])
                .arg(part.to_string())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("part {part}: {e}"))?;
            let text = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                return Err(format!("part {part} failed ({})", output.status));
            }
            PartRecord::from_json(text.lines().last().unwrap_or_default())
                .map_err(|e| format!("part {part}: {e}"))
        })
        .collect()
}

/// A run's pooled samples and its end-to-end metric values.
#[derive(Debug, Default)]
pub struct Pooled {
    /// The end-to-end values.
    pub values: Values,
    /// Every part's set-up time.
    pub setup_secs: Vec<f64>,
    /// Every timed retrain.
    pub retrain_secs: Vec<f64>,
    /// Every timed resolve, wall clock and thread CPU, ms.
    pub resolve_ms: Vec<f64>,
    pub resolve_cpu_ms: Vec<f64>,
    /// Summed counts.
    pub rounds: u64,
    pub admits: u64,
    pub events: u64,
    pub passes: u64,
    pub gradient_attempts: u64,
    pub skipped: u64,
    pub tally: ServeTally,
    /// The parts' `VmHWM` readings.
    pub peak_rss: Vec<f64>,
    /// Operations attempted and failed, for the result line.
    pub attempted: u64,
    pub failed: u64,
}

/// Pools the parts' samples into the end-to-end metrics: latency
/// percentiles over every part's resolves (the median in wall-clock
/// time, the tail in thread CPU time), rates over summed work and
/// time, quality weighted by each part's resolves, and the medians of
/// the parts' set-ups and peak RSS. Fails when the parts disagree on
/// the retrain's loss history or a metric cannot be measured.
pub fn pool(parts: &[PartRecord]) -> Result<Pooled, String> {
    let first = parts.first().ok_or("a run needs at least one part")?;
    if let Some(odd) = parts.iter().position(|p| p.loss_hash != first.loss_hash) {
        return Err(format!(
            "part {odd} retrained to a different loss history than part 0"
        ));
    }
    let mut p = Pooled::default();
    let mut quality = (0.0, 0.0, 0u64);
    for r in parts {
        p.setup_secs.push(r.setup_s);
        p.retrain_secs.extend(&r.retrain_secs);
        p.resolve_ms.extend(&r.resolve_ms);
        p.resolve_cpu_ms.extend(&r.resolve_cpu_ms);
        p.rounds += r.rounds;
        p.admits += r.admits;
        p.events += r.events;
        p.passes += r.passes;
        p.gradient_attempts += r.gradient_attempts;
        p.skipped += r.skipped;
        p.tally.arrivals += r.tally.arrivals;
        p.tally.shed += r.tally.shed;
        p.tally.resolves += r.tally.resolves;
        p.tally.solve_errors += r.tally.solve_errors;
        p.tally.deadline_misses += r.tally.deadline_misses;
        p.peak_rss.push(r.peak_rss_mb);
        let w = r.quality_resolves as f64;
        quality.0 += w * r.objective_mean;
        quality.1 += w * r.reliability_mean;
        quality.2 += r.quality_resolves;
    }
    // The tail is taken in thread CPU time. A vCPU the hypervisor
    // deschedules stalls whatever resolve is running for milliseconds;
    // in bursts that last minutes this tripled the wall-clock p99 of
    // identical runs while their p50 moved by a tenth. Thread CPU time
    // leaves that stolen time out; the wall-clock p99 is printed beside
    // it, and the wall-clock median stays gated, so a resolve that starts
    // to wait still shows.
    let (Some(p50), Some(p99)) = (
        stats::percentile(&p.resolve_ms, 0.5),
        stats::percentile(&p.resolve_cpu_ms, 0.99),
    ) else {
        return Err(format!(
            "{} resolves are too few for p99 (needs {} beyond)",
            p.resolve_ms.len(),
            stats::MIN_TAIL_SAMPLES
        ));
    };
    if quality.2 == 0 || p.retrain_secs.is_empty() || p.events == 0 {
        return Err("a run needs served resolves, events and retrains".into());
    }
    let apply_secs: f64 = parts.iter().map(|r| r.apply_secs).sum();
    let test_regret = first.test_regret.ok_or("part 0 reported no test regret")?;
    let v = &mut p.values;
    v.set("setup_s", stats::median(&p.setup_secs));
    v.set("resolve_p50_ms", p50);
    v.set("resolve_p99_ms", p99);
    v.set("events_per_s", p.events as f64 / apply_secs);
    v.set("objective_mean", quality.0 / quality.2 as f64);
    v.set("reliability_mean", quality.1 / quality.2 as f64);
    v.set("retrain_p50_s", stats::median(&p.retrain_secs));
    v.set(
        "rounds_per_s",
        p.rounds as f64 / p.retrain_secs.iter().sum::<f64>(),
    );
    v.set("test_regret", test_regret);
    v.set("peak_rss_mb", stats::median(&p.peak_rss));
    p.attempted = p.tally.attempted() + p.gradient_attempts;
    p.failed = p.tally.failed() + p.skipped;
    p.values
        .set("failed_share", stats::share(p.failed, p.attempted));
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(setup_s: f64, resolve_ms: Vec<f64>, quality: (f64, u64)) -> PartRecord {
        PartRecord {
            threads: 1,
            setup_s,
            retrain_secs: vec![0.5, 0.7],
            rounds: 16,
            gradient_attempts: 48,
            skipped: 1,
            loss_hash: bits_hash(&[0.25, 0.125]),
            resolve_ms: resolve_ms.clone(),
            // Half the wall time on the CPU, so the pooled percentiles
            // show which series each one reads.
            resolve_cpu_ms: resolve_ms.iter().map(|v| v / 2.0).collect(),
            admits: 3,
            apply_secs: 2.0,
            events: 100,
            passes: 1,
            tally: ServeTally {
                arrivals: 50,
                shed: 1,
                resolves: resolve_ms.len() as u64,
                solve_errors: 0,
                deadline_misses: 0,
            },
            objective_mean: quality.0,
            reliability_mean: 0.9,
            quality_resolves: quality.1,
            peak_rss_mb: setup_s * 10.0,
            test_regret: None,
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut r = record(0.75, vec![1.5, 2.0 / 3.0], (0.3, 7));
        r.test_regret = Some(0.1 + 0.2);
        r.loss_hash = u64::MAX - 5;
        assert_eq!(PartRecord::from_json(&r.to_json()), Ok(r.clone()));
        r.test_regret = None;
        assert_eq!(PartRecord::from_json(&r.to_json()), Ok(r));
    }

    #[test]
    fn pooling_sums_work_and_weights_quality() {
        // 600 resolves each: pooled, 1200 leave 12 beyond p99.
        let mut a = record(0.8, (1..=600).map(f64::from).collect(), (0.2, 100));
        a.test_regret = Some(0.4);
        let b = record(0.6, (601..=1200).map(f64::from).collect(), (0.5, 300));
        let c = record(0.7, Vec::new(), (0.5, 0));
        let p = pool(&[a.clone(), b.clone(), c]).expect("pooled");
        let v = |name| p.values.get(name).unwrap();
        assert_eq!(v("setup_s"), 0.7);
        assert_eq!(v("peak_rss_mb"), 0.7 * 10.0);
        assert_eq!(
            v("resolve_p50_ms"),
            600.0,
            "wall clock, nearest rank over 1200"
        );
        assert_eq!(v("resolve_p99_ms"), 1188.0 / 2.0, "thread CPU time");
        assert_eq!(v("events_per_s"), 300.0 / 6.0);
        assert!((v("objective_mean") - (0.2 * 100.0 + 0.5 * 300.0) / 400.0).abs() < 1e-15);
        assert_eq!(v("retrain_p50_s"), 0.6);
        assert!((v("rounds_per_s") - 48.0 / 3.6).abs() < 1e-12);
        assert_eq!(v("test_regret"), 0.4);
        // Attempted: arrivals + resolves + gradient attempts; failed: shed
        // arrivals and skipped gradients.
        assert_eq!(p.attempted, 150 + 1200 + 144);
        assert_eq!(p.failed, 3 + 3);

        let mut odd = b.clone();
        odd.loss_hash ^= 1;
        assert!(pool(&[a.clone(), odd]).is_err(), "diverged retrain");
        assert!(
            pool(&[b, a.clone()]).is_err(),
            "part 0 must carry test_regret"
        );
        let few = record(0.8, vec![1.0; 50], (0.2, 10));
        assert!(
            pool(&[PartRecord {
                test_regret: Some(0.1),
                ..few
            }])
            .is_err(),
            "too few resolves for p99"
        );
    }
}
