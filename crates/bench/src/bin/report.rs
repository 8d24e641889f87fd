//! Profile report for the solve-and-train pipeline.
//!
//! Runs one observability workload pass (solver fallback ladder, guarded
//! training, fault-injected execution — see
//! `mfcp_bench::report`), prints the human-readable profile tree and
//! metric summary, and writes the JSON snapshot for machine consumption
//! (CI uploads it as a workflow artifact).
//!
//! Usage:
//!   cargo run --release -p mfcp-bench --bin report -- \
//!     [--tasks N] [--rounds N] [--seed N] [--out PATH] [--overhead [REPS]] \
//!     [--trace PATH]
//!
//! `--overhead` additionally A/Bs the workload with recording enabled
//! vs. disabled and prints the relative instrumentation cost.
//! `--trace PATH` exports the workload's flight-recorder contents as
//! Chrome trace-event JSON (loadable in chrome://tracing or Perfetto).

use mfcp_bench::report::{measure_overhead, run_report, ReportConfig};
use std::path::PathBuf;

struct Args {
    cfg: ReportConfig,
    out: PathBuf,
    overhead_reps: Option<usize>,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut cfg = ReportConfig::default();
    let mut out = PathBuf::from("results/profile.json");
    let mut overhead_reps = None;
    let mut trace = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take_value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--tasks" => {
                cfg.tasks = take_value(i)?
                    .parse()
                    .map_err(|e| format!("--tasks: {e}"))?;
                i += 2;
            }
            "--rounds" => {
                cfg.rounds = take_value(i)?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
                i += 2;
            }
            "--seed" => {
                cfg.seed = take_value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--out" => {
                out = PathBuf::from(take_value(i)?);
                i += 2;
            }
            "--trace" => {
                trace = Some(PathBuf::from(take_value(i)?));
                i += 2;
            }
            "--overhead" => {
                // Optional numeric value; defaults to 3 repetitions.
                match argv.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                    Some(reps) => {
                        overhead_reps = Some(reps.max(1));
                        i += 2;
                    }
                    None => {
                        overhead_reps = Some(3);
                        i += 1;
                    }
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        cfg,
        out,
        overhead_reps,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("report: {msg}");
            eprintln!(
                "usage: report [--tasks N] [--rounds N] [--seed N] [--out PATH] \
                 [--overhead [REPS]] [--trace PATH]"
            );
            std::process::exit(2);
        }
    };

    println!(
        "running report workload: tasks {} rounds {} seed {}",
        args.cfg.tasks, args.cfg.rounds, args.cfg.seed
    );
    let snap = run_report(&args.cfg);
    print!("{}", snap.to_text());

    if let Some(trace_path) = &args.trace {
        let trace = mfcp_obs::trace::drain();
        if let Some(dir) = trace_path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("report: cannot create {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
        if let Err(e) = std::fs::write(trace_path, trace.to_chrome_json()) {
            eprintln!("report: cannot write {}: {e}", trace_path.display());
            std::process::exit(1);
        }
        println!(
            "wrote {} ({} events, {} dropped)",
            trace_path.display(),
            trace.events.len(),
            trace.dropped
        );
    }

    if let Some(dir) = args.out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("report: cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&args.out, snap.to_json()) {
        eprintln!("report: cannot write {}: {e}", args.out.display());
        std::process::exit(1);
    }
    println!("wrote {}", args.out.display());

    if let Some(reps) = args.overhead_reps {
        println!("measuring instrumentation overhead ({reps} reps per arm)...");
        let o = measure_overhead(&args.cfg, reps);
        println!(
            "overhead: enabled {:.3}s vs disabled {:.3}s over {} reps -> {:.2}%",
            o.enabled_secs,
            o.disabled_secs,
            o.reps,
            o.fraction() * 100.0
        );
    }
}
