//! End-to-end benchmark for MFCP: the serve daemon's re-matching path
//! and the decision-focused retrain, on two workloads.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_day --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_learned --seed 1 --seconds 10 --repeat 5
//! ```
//!
//! `--trace 0` runs the workload as a sequence of fresh processes (parts)
//! and prints every end-to-end metric over their pooled samples;
//! `--trace 1` runs one process, adds a traced copy of its timed part and
//! prints every per-layer metric, the layer table and the tracing
//! overhead, and writes the benchmark's spans as Chrome trace JSON. The
//! last line of standard output is the JSON result. See README.md for
//! workloads, metrics and design.

mod host;
mod interleave;
mod layers;
mod metrics;
mod obsdelta;
mod parts;
mod repeat;
mod retrain;
mod scenario;
mod serve;
mod stats;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Values, END_TO_END, PER_LAYER, REPORTED};
use parts::{PartRecord, Pooled};
use scenario::{Inputs, Trained, Workload};
use tracer::Tracer;

/// A CPU/wall ratio of the median resolve below this is flagged: the
/// resolves then wait, which the CPU-time p99 does not show.
const MIN_CPU_WALL_RATIO: f64 = 0.9;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    trace_out: Option<PathBuf>,
    /// Set when this process is one part of an untraced run.
    part: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: 0,
        trace_out: None,
        part: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--part" => args.part = Some(value()?.parse().map_err(|e| format!("--part: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.repeat > 0 {
        return repeat::run(&args.workload, args.seed, args.seconds, args.repeat);
    }
    let Some(workload) = args.workload else {
        eprintln!("e2ebench: --workload is required ({})", workload_names());
        return ExitCode::from(2);
    };
    match run(workload, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {workload:?}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where traced runs write their span file and scratch snapshots,
/// relative to the repository root the benchmark runs from.
fn out_dir() -> PathBuf {
    PathBuf::from("target/e2ebench")
}

fn workload_names() -> String {
    Workload::ALL.map(|w| w.name()).join(", ")
}

/// One benchmark run, or one part of one. Incorrect output prints a
/// `correct: false` result and returns an error, so the process exits
/// non-zero.
fn run(workload: Workload, args: &Args) -> Result<(), String> {
    if let Some(part) = args.part {
        // One CPU per process: the daemon is single-threaded, and the
        // retrain's fan-outs run sequentially. On a shared 2-vCPU host,
        // two-thread retrains spread run to run by more than the bound.
        host::pin_to_current_cpu()?;
        let measured = measure_part(
            workload,
            args.seed,
            part,
            args.seconds,
            &mut Tracer::new(false),
        )?;
        println!("{}", measured.record.to_json());
        return Ok(());
    }
    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        return run_traced(workload, args);
    }
    let pooled = parts::run_all(workload.name(), args.seed, args.seconds).and_then(|records| {
        println!(
            "parts: {} fresh processes of {:.3} s, threads={}",
            records.len(),
            args.seconds / records.len() as f64,
            records[0].threads
        );
        parts::pool(&records)
    });
    let pooled = finish(pooled, END_TO_END)?;
    report(&pooled);
    println!(
        "peak RSS: median {:.3} MB over the parts (each read after its first pass and three retrains)",
        pooled.values.get("peak_rss_mb").unwrap_or(f64::NAN)
    );
    print_result(&pooled, END_TO_END)
}

/// A traced run: one process measures the timed part untraced, then
/// again traced with the layer probes, and prints the per-layer metrics.
fn run_traced(workload: Workload, args: &Args) -> Result<(), String> {
    host::pin_to_current_cpu()?;
    println!("threads={}", mfcp_parallel::default_threads());
    let mut tracer = Tracer::new(true);
    let outcome = (|| {
        let measured = measure_part(workload, args.seed, 0, args.seconds, &mut tracer)?;
        let mut pooled = parts::pool(std::slice::from_ref(&measured.record))?;
        report(&pooled);
        layers::traced(
            &measured.inputs,
            &measured.trained,
            Duration::from_secs_f64(args.seconds),
            (&measured.timed.retrains, &measured.timed.served),
            &out_dir().join(format!("snapshot-{}-{}", workload.name(), args.seed)),
            &mut tracer,
            &mut pooled.values,
        )?;
        println!(
            "peak RSS: {:.3} MB after the first pass and three retrains, {:.3} MB at exit",
            measured.record.peak_rss_mb,
            stats::peak_rss_mb().unwrap_or(f64::NAN)
        );
        Ok(pooled)
    })();
    let path = args
        .trace_out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("{}-{}.trace.json", workload.name(), args.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, tracer.to_chrome_json())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", tracer.len(), path.display());
    let pooled = finish(outcome, PER_LAYER)?;
    print_result(&pooled, PER_LAYER)
}

/// Passes a measured run through, or prints the failed result line for
/// one that could not be measured.
fn finish(outcome: Result<Pooled, String>, defs: &[metrics::MetricDef]) -> Result<Pooled, String> {
    outcome.inspect_err(|_| {
        println!(
            "{}",
            metrics::result_line(false, 1, 1, defs, &Values::default())
        );
    })
}

/// Prints the result line; a metric that could not be measured makes
/// the run incorrect.
fn print_result(p: &Pooled, defs: &[metrics::MetricDef]) -> Result<(), String> {
    let gaps = metrics::missing(defs, &p.values);
    let correct = gaps.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, p.attempted, p.failed, defs, &p.values)
    );
    if correct {
        Ok(())
    } else {
        Err(format!("metrics not measured: {}", gaps.join(", ")))
    }
}

/// What one part measured, and what a traced run measures next from it.
struct PartRun {
    record: PartRecord,
    inputs: Inputs,
    trained: Trained,
    timed: interleave::Timed,
}

/// One part: set-up (build the inputs, run one retrain and check its
/// predictor, replay the fixed warm-up day through a fresh daemon), the
/// timed part, and — on part 0 — the held-out evaluation behind
/// `test_regret`. The first replay in a process runs slower than later
/// ones, so that warm-up belongs to the set-up and not to the timed part.
fn measure_part(
    workload: Workload,
    seed: u64,
    part: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<PartRun, String> {
    let span = tracer.begin("setup", part);
    let started = Instant::now();
    let inputs = Inputs::build(workload, seed, part);
    let trained = inputs.retrain();
    retrain::check_predictor(&inputs, &trained)?;
    serve::ServeSession::new(&inputs, &trained, &inputs.warm_up, false)
        .finish_pass(&mut Tracer::new(false))?;
    let setup_s = started.elapsed().as_secs_f64();
    tracer.end(span);

    let timed = interleave::run(
        &inputs,
        &trained,
        Duration::from_secs_f64(seconds),
        &mut Tracer::new(false),
        None,
    )?;
    let test_regret = if part == 0 {
        Some(retrain::test_regret(&inputs, &trained)?)
    } else {
        None
    };
    let record = PartRecord::new(
        mfcp_parallel::default_threads(),
        setup_s,
        (&timed.retrains, &trained.loss_history),
        &timed.served,
        timed.peak_rss_mb,
        test_regret,
    );
    Ok(PartRun {
        record,
        inputs,
        trained,
        timed,
    })
}

/// Prints a run's sample counts, resolve percentiles in wall and CPU
/// time, failure accounting and end-to-end table.
fn report(p: &Pooled) {
    println!(
        "samples: set-ups={} retrains={} rounds={} passes={} events={} resolves={} admits={}",
        p.setup_secs.len(),
        p.retrain_secs.len(),
        p.rounds,
        p.passes,
        p.events,
        p.resolve_ms.len(),
        p.admits
    );
    for (label, samples) in [("cpu", &p.resolve_cpu_ms), ("wall", &p.resolve_ms)] {
        let tail: Vec<String> = [0.5, 0.9, 0.99]
            .iter()
            .filter_map(|&q| {
                Some(format!(
                    "p{}={:.3}",
                    q * 100.0,
                    stats::percentile(samples, q)?
                ))
            })
            .collect();
        println!("resolve {label} ms: {}", tail.join(" "));
    }
    // The daemon resolves on the calling thread and never blocks, so a
    // resolve's median wall time is its CPU time plus little else. A ratio
    // well below 1 means resolves now wait or hand work to other threads,
    // and the gated p99, taken in CPU time, no longer covers that wait.
    let ratio = stats::median(&p.resolve_cpu_ms) / stats::median(&p.resolve_ms);
    println!("resolve cpu/wall p50 ratio: {ratio:.3}");
    if ratio < MIN_CPU_WALL_RATIO {
        println!(
            "WARNING: resolves spend {:.0}% of their median latency off the CPU; \
             resolve_p99_ms (thread CPU time) misses that wait, read the wall-clock p99 above",
            100.0 * (1.0 - ratio)
        );
    }
    println!(
        "failed: serve {} of {} arrivals+resolves ({} shed), train {} of {} cluster gradients; \
         slo_miss_share@{}ms {:.6}",
        p.tally.failed(),
        p.tally.attempted(),
        p.tally.shed,
        p.skipped,
        p.gradient_attempts,
        layers::SLO_LIMIT_MS,
        p.tally.slo_miss_share(&p.resolve_ms, layers::SLO_LIMIT_MS),
    );
    println!("end-to-end:\n{}", metrics::table(END_TO_END, &p.values));
    println!(
        "reported, not gated:\n{}",
        metrics::table(REPORTED, &p.values)
    );
}
