//! Metric definitions, mirrored in `BENCHMARK.json`, and the result
//! line every run ends with.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in the result line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: printed by every untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("resolve_p50_ms", "ms", Lower, 0.25),
    e2e("resolve_p99_ms", "ms", Lower, 0.25),
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("objective_mean", "obj", Lower, 0.25),
    e2e("reliability_mean", "prob", Higher, 0.05),
    e2e("retrain_p50_s", "s", Lower, 0.25),
    e2e("rounds_per_s", "1/s", Higher, 0.25),
    e2e("test_regret", "h", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// End-to-end metrics printed by every run but left out of the result
/// line and `BENCHMARK.json`, because a gated metric's median must never
/// be 0: `failed_share` is 0 on every workload (the result line's
/// `failed` and `attempted` carry it).
pub const REPORTED: &[MetricDef] = &[layer("failed_share", "ratio", Lower)];

/// Per-layer metrics: printed by every traced run of every workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("serve.admit_us", "us", Lower),
    layer("serve.snapshot_ms", "ms", Lower),
    layer("serve.restore_ms", "ms", Lower),
    layer("platform.matrices_ms_per_resolve", "ms", Lower),
    layer("nn.matrices_ms_per_resolve", "ms", Lower),
    layer("learned.seed_ms_per_resolve", "ms", Lower),
    layer("learned.predicted_cols_per_resolve", "count", Higher),
    layer("learned.reject_share", "ratio", Lower),
    layer("optim.solve_ms_per_resolve", "ms", Lower),
    layer("optim.iters_per_resolve", "count", Lower),
    layer("optim.cap_hit_share", "ratio", Lower),
    layer("optim.rungs_per_resolve", "count", Lower),
    layer("optim.primary_fail_share", "ratio", Lower),
    layer("optim.cache_hit_share", "ratio", Higher),
    layer("optim.cache_stale_share", "ratio", Lower),
    layer("train.warm_start_s", "s", Lower),
    layer("train.round_ms", "ms", Lower),
    layer("train.rollback_share", "ratio", Lower),
    layer("optim.solves_per_round", "count", Lower),
    layer("optim.iters_per_solve", "count", Lower),
    layer("optim.solve_ms_per_round", "ms", Lower),
    layer("optim.train_cap_hit_share", "ratio", Lower),
    layer("kkt.grad_ms_per_call", "ms", Lower),
    layer("kkt.structured_share", "ratio", Higher),
    layer("zeroth.grad_ms_per_call", "ms", Lower),
    layer("zeroth.solves_per_grad", "count", Lower),
    layer("nn.forward_ms", "ms", Lower),
    layer("autodiff.backward_adam_ms", "ms", Lower),
    layer("parallel.fanout_efficiency", "ratio", Higher),
    layer("obs.tracing_overhead_share", "ratio", Lower),
    layer("serve.unattributed_share", "ratio", Lower),
    layer("train.unattributed_share", "ratio", Lower),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(REPORTED)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

/// Measured values, keyed by metric name, in insertion order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name`, which must be a defined metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "undefined metric {name}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Names in `defs` that `values` lacks or holds a non-finite value for.
pub fn missing(defs: &[MetricDef], values: &Values) -> Vec<&'static str> {
    defs.iter()
        .filter(|d| !values.get(d.name).is_some_and(f64::is_finite))
        .map(|d| d.name)
        .collect()
}

/// The human-readable table of `defs`.
pub fn table(defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::new();
    for d in defs {
        let v = values.get(d.name).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "  {:<36} {:>14.6} {:<6} ({} is better)",
            d.name,
            v,
            d.unit,
            d.better.as_str()
        );
    }
    out
}

/// The result line: `correct`, `attempted`, `failed`, and each metric
/// of `defs` with its value and unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    let mut first = true;
    for d in defs {
        let Some(v) = values.get(d.name).filter(|v| v.is_finite()) else {
            continue;
        };
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            mfcp_obs::json::escape(d.name),
            mfcp_obs::json::number(v),
            mfcp_obs::json::escape(d.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfcp_obs::json::{parse, Json};

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn definitions_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let check = |key: &str, defs: &[MetricDef]| {
            let listed = doc.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} count");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let expected: Vec<&str> = crate::scenario::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn result_line_is_strict_json_with_every_value() {
        let mut v = Values::default();
        v.set("setup_s", 1.25);
        v.set("events_per_s", 1234.5678);
        let line = result_line(true, 10, 1, &END_TO_END[..4], &v);
        let doc = parse(&line).expect("strict JSON");
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), 2, "unmeasured metrics are left out");
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            missing(&END_TO_END[..4], &v),
            ["resolve_p50_ms", "resolve_p99_ms"]
        );
    }
}
