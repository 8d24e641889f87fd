//! The timed part of a run: retrains and serve steps interleaved.
//!
//! On a shared 2-vCPU host the same work runs at speeds that drift by
//! tens of percent over phases lasting seconds. Alternating a retrain
//! with a serve step sized to the workload's serve share spreads both
//! paths' samples across the whole run, so each end-to-end metric
//! averages over every phase the run saw instead of over a contiguous
//! slice of it.

use std::time::{Duration, Instant};

use crate::obsdelta::PathObs;
use crate::retrain::RetrainRun;
use crate::scenario::{Inputs, Trained};
use crate::serve::{ServeRun, ServeSession};
use crate::tracer::Tracer;

/// Fewest retrains a run times, however long each one takes.
const MIN_RETRAINS: usize = 3;

/// What the timed part measured.
pub struct Timed {
    /// The retrain path's samples.
    pub retrains: RetrainRun,
    /// The serve path's samples.
    pub served: ServeRun,
    /// `VmHWM` once the first trace pass had completed and at least
    /// [`MIN_RETRAINS`] retrains had run: the peak of a full serve pass
    /// and of the retrains around it.
    pub peak_rss_mb: f64,
}

/// Runs the timed part for `total`: after each retrain, serves for the
/// time that keeps serving at the workload's share of the run. Ends
/// once `total` has elapsed, at least [`MIN_RETRAINS`] retrains ran and
/// the first trace pass completed. With `obs`, every step's registry
/// change is added to its path's totals.
pub fn run(
    inputs: &Inputs,
    trained: &Trained,
    total: Duration,
    tracer: &mut Tracer,
    mut obs: Option<&mut PathObs>,
) -> Result<Timed, String> {
    let share = crate::scenario::SERVE_SHARE;
    let mut retrains = RetrainRun::default();
    let mut session = ServeSession::new(inputs, trained, &inputs.trace, tracer.enabled());
    let mut peak_rss_mb = None;
    let window = tracer.begin("timed", 0);
    let start = Instant::now();
    loop {
        let time_up = start.elapsed() >= total;
        let need_retrain = retrains.secs.len() < MIN_RETRAINS;
        let need_pass = session.run.passes == 0;
        if peak_rss_mb.is_none() && !need_retrain && !need_pass {
            peak_rss_mb =
                Some(crate::stats::peak_rss_mb().ok_or("VmHWM missing from /proc/self/status")?);
        }
        if time_up && !need_retrain && !need_pass {
            break;
        }
        let mut serve_budget = None;
        if !time_up || need_retrain {
            let before = obs.as_ref().map(|_| mfcp_obs::snapshot());
            let retrain_secs = retrains.step(inputs, trained, tracer)?;
            if let (Some(o), Some(b)) = (obs.as_deref_mut(), before) {
                o.train.add(&b, &mfcp_obs::snapshot());
            }
            serve_budget = Some(retrain_secs.mul_f64(share / (1.0 - share)));
        }
        if time_up && !need_pass {
            continue;
        }
        let before = obs.as_ref().map(|_| mfcp_obs::snapshot());
        let step = tracer.begin("serve.step", session.run.passes);
        match serve_budget.filter(|_| !time_up) {
            Some(budget) => session.step(budget, tracer)?,
            None => session.finish_pass(tracer)?,
        }
        tracer.end(step);
        if let (Some(o), Some(b)) = (obs.as_deref_mut(), before) {
            o.serve.add(&b, &mfcp_obs::snapshot());
        }
    }
    tracer.end(window);
    Ok(Timed {
        retrains,
        served: session.run,
        peak_rss_mb: peak_rss_mb.expect("set when the loop ends"),
    })
}
