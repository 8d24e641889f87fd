//! Continuous benchmark gate for the solve-and-train pipeline.
//!
//! Runs the fixed perfgate suite (see `mfcp_bench::perfgate`) at its one
//! configuration, writes the schema-stable JSON report, and in `--check`
//! mode compares it against the checked-in expected file, exiting
//! nonzero when a counter differs from its expected value or a suite's
//! median wall time exceeds its bound.
//!
//! Usage:
//!   cargo run --release -p mfcp-bench --bin perfgate -- \
//!     [--out PATH] [--baseline PATH] [--check] [--trace PATH]
//!
//! `--trace PATH` additionally exports the flight-recorder contents of
//! the final training-round run as Chrome trace-event JSON (loadable in
//! chrome://tracing or Perfetto).

use mfcp_bench::perfgate::{run_perfgate, PerfgateConfig, PerfgateReport, WALL_BOUND};
use std::path::{Path, PathBuf};

struct Args {
    out: PathBuf,
    baseline: PathBuf,
    check: bool,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("BENCH_perfgate.json"),
        baseline: PathBuf::from("bench/baseline.json"),
        check: false,
        trace: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take_value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--out" => {
                args.out = PathBuf::from(take_value(i)?);
                i += 2;
            }
            "--baseline" => {
                args.baseline = PathBuf::from(take_value(i)?);
                i += 2;
            }
            "--check" => {
                args.check = true;
                i += 1;
            }
            "--trace" => {
                args.trace = Some(PathBuf::from(take_value(i)?));
                i += 2;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn write_creating_dir(path: &Path, content: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfgate: {msg}");
            eprintln!("usage: perfgate [--out PATH] [--baseline PATH] [--check] [--trace PATH]");
            std::process::exit(2);
        }
    };

    let cfg = PerfgateConfig::default();
    let mut trace_json = String::new();
    let report = run_perfgate(&cfg, args.trace.is_some().then_some(&mut trace_json));
    for s in &report.suites {
        println!(
            "  {:<17} median {:>9.4}s over {} runs",
            s.name, s.median_wall_secs, cfg.runs
        );
    }

    if let Err(msg) = write_creating_dir(&args.out, &report.to_json()) {
        eprintln!("perfgate: {msg}");
        std::process::exit(1);
    }
    println!("wrote {}", args.out.display());

    if let Some(trace_path) = &args.trace {
        if let Err(msg) = write_creating_dir(trace_path, &trace_json) {
            eprintln!("perfgate: {msg}");
            std::process::exit(1);
        }
        println!("wrote {}", trace_path.display());
    }

    if args.check {
        let baseline_text = match std::fs::read_to_string(&args.baseline) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "perfgate: cannot read baseline {}: {e}",
                    args.baseline.display()
                );
                std::process::exit(1);
            }
        };
        let baseline = mfcp_obs::json::parse(&baseline_text)
            .map_err(|e| e.to_string())
            .and_then(|doc| PerfgateReport::from_json(&doc));
        let baseline = match baseline {
            Ok(b) => b,
            Err(msg) => {
                eprintln!(
                    "perfgate: invalid baseline {}: {msg}",
                    args.baseline.display()
                );
                std::process::exit(1);
            }
        };
        let violations = report.compare(&baseline);
        let rule = format!("counters exact, wall time within {WALL_BOUND}x");
        if violations.is_empty() {
            println!("check PASSED against {} ({rule})", args.baseline.display());
        } else {
            eprintln!("check FAILED against {} ({rule}):", args.baseline.display());
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}
