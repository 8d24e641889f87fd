//! Repeat mode: runs a workload N times as child processes, each with
//! its own seed, and reports each end-to-end metric's median, quartiles
//! and spreads. A metric whose run-to-run spread exceeds its bound is
//! flagged — the check that catches a metric too noisy to gate on, such
//! as a sub-second set-up of multi-threaded work.

use std::process::{Command, ExitCode, Stdio};

use mfcp_obs::json::{self, Json};

use crate::metrics::END_TO_END;
use crate::scenario::Workload;
use crate::stats::spread;

/// Runs `workload` (or every workload) `n` times with seeds
/// `seed..seed+n`; exits non-zero if a run fails or a spread is flagged.
pub fn run(workload: &Option<Workload>, seed: u64, seconds: f64, n: usize) -> ExitCode {
    if n < 2 {
        eprintln!("e2ebench: --repeat needs at least 2 runs");
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2ebench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<Workload> = match workload {
        Some(w) => vec![*w],
        None => Workload::ALL.to_vec(),
    };
    let mut ok = true;
    for w in workloads {
        let mut runs: Vec<Json> = Vec::new();
        for k in 0..n as u64 {
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed"])
                .arg((seed + k).to_string())
                .arg("--seconds")
                .arg(seconds.to_string())
                .args(["--trace", "0"])
                .stderr(Stdio::inherit())
                .output();
            let parsed = output.map_err(|e| e.to_string()).and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                let last = text.lines().last().unwrap_or_default().to_string();
                let doc = json::parse(&last).map_err(|e| format!("{e:?}"))?;
                match (o.status.success(), doc.get("correct")) {
                    (true, Some(Json::Bool(true))) => Ok(doc),
                    _ => Err(format!("run failed ({}): {last}", o.status)),
                }
            });
            match parsed {
                Ok(doc) => runs.push(doc),
                Err(e) => {
                    eprintln!("e2ebench: {} seed {}: {e}", w.name(), seed + k);
                    ok = false;
                }
            }
        }
        if runs.len() < 2 {
            ok = false;
            continue;
        }
        println!("{} over {} runs:", w.name(), runs.len());
        println!(
            "  {:<18} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
        );
        for d in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(d.name)?.get("value")?.as_f64())
                .collect();
            if values.len() < 2 {
                println!("  {:<18} missing", d.name);
                ok = false;
                continue;
            }
            let s = spread(&values);
            let bound = d.bound.unwrap_or(f64::INFINITY);
            let flagged = s.exceeds(bound);
            ok &= !flagged;
            println!(
                "  {:<18} {:>12.6} {:>12.6} {:>12.6} {:>8.4} {:>8.4} {:>6.2}{}",
                d.name,
                s.median,
                s.q1,
                s.q3,
                s.iqr_share,
                s.range_share,
                bound,
                if flagged { "  SPREAD > BOUND" } else { "" }
            );
            let runs: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!("  {:<18} runs: {}", "", runs.join(" "));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
