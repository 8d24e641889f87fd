//! The traced run: the timed part again, with benchmark spans, a
//! registry snapshot around every step and per-resolve probes, then the
//! layer probes at round shape and a snapshot/restore round trip.
//! Produces every per-layer metric, the layer tables, the
//! `unattributed` shares and the tracing overhead.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use crate::interleave;
use crate::metrics::{self, Values, PER_LAYER};
use crate::obsdelta::PathObs;
use crate::retrain::{self, RetrainRun};
use crate::scenario::{Inputs, Trained};
use crate::serve::{ServeRun, ServeSession};
use crate::stats::{self, share, unattributed_share};
use crate::tracer::Tracer;

/// Latency limit for the printed SLO-miss share (not a bounded metric:
/// a closed loop with one caller never queues, so misses are rare).
pub const SLO_LIMIT_MS: f64 = 20.0;

/// Probe budget per layer in a traced run.
const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// Snapshot/restore round trips averaged in a traced run.
const SNAPSHOT_REPS: usize = 5;

/// Iteration cap of the daemon's first-order rungs: `ExchangeDaemon`
/// builds its `RobustSolver` with the default solver options.
fn serve_iteration_cap() -> f64 {
    mfcp_optim::SolverOptions::default().max_iters as f64
}

/// One row of the layer table.
struct Row {
    layer: &'static str,
    secs: f64,
    count: u64,
    on_path: bool,
}

fn row(layer: &'static str, secs: f64, count: u64, on_path: bool) -> Row {
    Row {
        layer,
        secs,
        count,
        on_path,
    }
}

fn table(title: &str, wall: f64, rows: &[Row], unattributed: f64) -> String {
    let mut out = format!("{title} (wall {wall:.4} s)\n");
    let _ = writeln!(
        out,
        "  {:<24} {:>12} {:>9} {:>9}",
        "layer", "time_s", "count", "share"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<24} {:>12.6} {:>9} {:>8.2}%{}",
            r.layer,
            r.secs,
            r.count,
            100.0 * r.secs / wall,
            if r.on_path {
                ""
            } else {
                "  (off path: probe only)"
            }
        );
    }
    let _ = writeln!(
        out,
        "  {:<24} {:>12.6} {:>9} {:>8.2}%",
        "unattributed",
        unattributed * wall,
        "",
        100.0 * unattributed
    );
    out
}

/// Runs the traced timed part and the probes; fills every per-layer
/// metric.
pub fn traced(
    inputs: &Inputs,
    trained: &Trained,
    total: Duration,
    (plain_retrains, plain_served): (&RetrainRun, &ServeRun),
    scratch: &Path,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<(), String> {
    let mut obs = PathObs::default();
    let interleave::Timed {
        retrains, served, ..
    } = interleave::run(inputs, trained, total, tracer, Some(&mut obs))?;
    let (train_obs, serve_obs) = (&obs.train, &obs.serve);
    if served.final_bits != plain_served.final_bits {
        return Err("the traced replay ended in a different matching than the untraced one".into());
    }
    let round = retrain::probe_round(inputs, trained, PROBE_BUDGET, tracer)?;

    // Snapshot and restore write and read fsync'd files: timed here
    // only, on a daemon that has served the warm-up day.
    let mut session = ServeSession::new(inputs, trained, &inputs.warm_up, false);
    let mut off = Tracer::new(false);
    for _ in 0..inputs.warm_up.len() {
        // A zero budget applies exactly one event.
        session.step(Duration::ZERO, &mut off)?;
    }
    let span = tracer.begin("serve.snapshot_round_trip", 0);
    let round_trip = session.snapshot_round_trip(scratch, SNAPSHOT_REPS);
    tracer.end(span);
    std::fs::remove_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let (snapshot_secs, restore_secs) = round_trip?;
    values.set("serve.snapshot_ms", 1e3 * snapshot_secs);
    values.set("serve.restore_ms", 1e3 * restore_secs);

    // ---- serve path -----------------------------------------------------
    let probes = served.probes.clone().unwrap_or_default();
    let resolves = served.resolve_ms.len() as u64;
    let per_resolve = |v: f64| v / resolves.max(1) as f64;
    let admit_secs: f64 = served.admit_us.iter().sum::<f64>() / 1e6;
    let (solves, solve_secs) = serve_obs.spans(|p| p.ends_with("robust_solve"));
    let (predicts, predict_secs) = serve_obs.spans(|p| p.ends_with("learned.predict"));
    let (attempts, iters) = serve_obs.hist("optim.robust.attempt_iters");
    let primary_ok = serve_obs.counter("optim.robust.stage.primary.ok");
    let primary_failed = serve_obs.counter("optim.robust.stage.primary.failed");
    let (hit, miss, stale) = (
        serve_obs.counter("cache.hit"),
        serve_obs.counter("cache.miss"),
        serve_obs.counter("cache.stale"),
    );
    let lookups = hit + miss + stale;
    let learned = inputs.spec.learned;
    let has_head = trained.head.is_some();

    values.set(
        "serve.admit_us",
        1e6 * admit_secs / served.admit_us.len().max(1) as f64,
    );
    values.set(
        "platform.matrices_ms_per_resolve",
        1e3 * per_resolve(probes.platform_secs),
    );
    values.set(
        "nn.matrices_ms_per_resolve",
        1e3 * per_resolve(probes.nn_secs),
    );
    values.set(
        "learned.seed_ms_per_resolve",
        1e3 * per_resolve(probes.seed_secs),
    );
    values.set(
        "learned.predicted_cols_per_resolve",
        per_resolve(serve_obs.counter("serve.predicted_seed_cols") as f64),
    );
    values.set(
        "learned.reject_share",
        share(
            serve_obs.counter("serve.predicted_seed_rejected")
                + serve_obs.counter("optim.learned.rejected"),
            probes.seed_predictions + serve_obs.counter("optim.learned.predict"),
        ),
    );
    values.set("optim.solve_ms_per_resolve", 1e3 * per_resolve(solve_secs));
    values.set("optim.iters_per_resolve", per_resolve(iters));
    values.set(
        "optim.cap_hit_share",
        share(
            serve_obs.hist_at_least("optim.robust.attempt_iters", serve_iteration_cap()),
            attempts,
        ),
    );
    values.set("optim.rungs_per_resolve", per_resolve(attempts as f64));
    values.set(
        "optim.primary_fail_share",
        share(primary_failed, primary_ok + primary_failed),
    );
    values.set("optim.cache_hit_share", share(hit, lookups));
    values.set("optim.cache_stale_share", share(stale, lookups));

    let matrices_secs = if learned {
        probes.nn_secs
    } else {
        probes.platform_secs
    };
    let seed_secs = if has_head { probes.seed_secs } else { 0.0 };
    let serve_unattributed = unattributed_share(
        served.apply_secs,
        &[
            admit_secs,
            solve_secs,
            predict_secs,
            matrices_secs,
            seed_secs,
        ],
    );
    values.set("serve.unattributed_share", serve_unattributed);
    let serve_rows = [
        row(
            "serve.admit",
            admit_secs,
            served.admit_us.len() as u64,
            true,
        ),
        row("optim.robust_solve", solve_secs, solves, true),
        row("learned.predict", predict_secs, predicts, has_head),
        row(
            "platform.matrices",
            probes.platform_secs,
            resolves,
            !learned,
        ),
        row("nn.matrices", probes.nn_secs, resolves, learned),
        row(
            "learned.seed",
            probes.seed_secs,
            probes.seed_calls,
            has_head,
        ),
    ];
    print!(
        "{}",
        table(
            "serve path layers",
            served.apply_secs,
            &serve_rows,
            serve_unattributed
        )
    );

    // ---- retrain path ---------------------------------------------------
    let calls = retrains.secs.len() as f64;
    let rounds = retrains.rounds.max(1) as f64;
    let wall: f64 = retrains.secs.iter().sum();
    let (warm_n, warm_secs) = train_obs.spans(|p| p.ends_with("warm_start"));
    let (round_n, round_secs) = train_obs.spans(|p| p == "train_mfcp/round");
    let (val_n, val_secs) = train_obs.spans(|p| p == "train_mfcp/validation");
    let (relaxed_n, relaxed_secs) = train_obs.spans(|p| p.ends_with("solve_relaxed"));
    let (solve_n, solve_iters) = train_obs.hist("optim.solve.iters");
    let structured = train_obs.counter("kkt.structured");
    let dense = train_obs.counter("kkt.dense_fallback");

    values.set("train.warm_start_s", warm_secs / calls);
    values.set("train.round_ms", 1e3 * round_secs / rounds);
    values.set(
        "train.rollback_share",
        train_obs.counter("train.rollbacks") as f64 / rounds,
    );
    values.set(
        "optim.solves_per_round",
        train_obs.counter("optim.solve.calls") as f64 / rounds,
    );
    values.set("optim.iters_per_solve", solve_iters / solve_n.max(1) as f64);
    values.set("optim.solve_ms_per_round", 1e3 * relaxed_secs / rounds);
    values.set(
        "optim.train_cap_hit_share",
        share(
            train_obs.hist_at_least(
                "optim.solve.iters",
                inputs.spec.train.solver.max_iters as f64,
            ),
            solve_n,
        ),
    );
    values.set("kkt.grad_ms_per_call", 1e3 * round.kkt_secs);
    values.set(
        "kkt.structured_share",
        if structured + dense > 0 {
            share(structured, structured + dense)
        } else {
            round.kkt_structured_share
        },
    );
    values.set("zeroth.grad_ms_per_call", 1e3 * round.zeroth_secs);
    values.set("zeroth.solves_per_grad", round.zeroth_solves);
    values.set("nn.forward_ms", 1e3 * round.forward_secs);
    values.set("autodiff.backward_adam_ms", 1e3 * round.backward_adam_secs);
    values.set("parallel.fanout_efficiency", round.fanout_efficiency);
    let train_unattributed = unattributed_share(wall, &[warm_secs, round_secs, val_secs]);
    values.set("train.unattributed_share", train_unattributed);
    let analytic = structured + dense > 0;
    let train_rows = [
        row("core.warm_start", warm_secs, warm_n, true),
        row("core.round", round_secs, round_n, true),
        row("core.validation", val_secs, val_n, true),
    ];
    print!(
        "{}",
        table("retrain path layers", wall, &train_rows, train_unattributed)
    );
    println!(
        "  inside rounds: optim.solve_relaxed {:.6} s over {} solves; \
         kkt {:.3} ms/call{}; zeroth {:.3} ms/call{}; nn.forward {:.4} ms, autodiff.backward+adam {:.4} ms per cluster step",

        relaxed_secs,
        relaxed_n,
        1e3 * round.kkt_secs,
        if analytic { "" } else { " (off path: probe only)" },
        1e3 * round.zeroth_secs,
        if analytic { " (off path: probe only)" } else { "" },
        1e3 * round.forward_secs,
        1e3 * round.backward_adam_secs,
    );

    // ---- tracing overhead on the serve path, the latency users see ------
    let serve_overhead = (served.apply_secs / served.events as f64)
        / (plain_served.apply_secs / plain_served.events as f64)
        - 1.0;
    let train_overhead = stats::median(&retrains.secs) / stats::median(&plain_retrains.secs) - 1.0;
    values.set("obs.tracing_overhead_share", serve_overhead);
    println!(
        "tracing overhead: serve {:+.4} (per-event apply time), retrain {:+.4} (median retrain)",
        serve_overhead, train_overhead
    );
    println!("per-layer:\n{}", metrics::table(PER_LAYER, values));
    Ok(())
}
