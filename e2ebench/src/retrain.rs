//! The retrain path: timed `train_mfcp` calls that repeat the
//! workload's dataset, configuration and seed, the held-out evaluation
//! behind `test_regret`, and the traced-run probes of the layers a
//! training round runs through, called at round shape.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mfcp_autodiff::Graph;
use mfcp_core::eval::{evaluate_method, EvalOptions};
use mfcp_core::train::GradientMode;
use mfcp_linalg::Matrix;
use mfcp_nn::{Adam, Optimizer};
use mfcp_optim::kkt::{implicit_gradients_with, KktWorkspace};
use mfcp_optim::objective;
use mfcp_optim::solver::solve_relaxed;
use mfcp_optim::zeroth::estimate_gradient;
use mfcp_optim::MatchingProblem;
use mfcp_parallel::{solve_batch, ParallelConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scenario::{fg_options, Inputs, Trained, HISTORY_SEED};
use crate::tracer::Tracer;

/// Held-out evaluation rounds behind `test_regret`.
const EVAL_ROUNDS: usize = 60;

/// What the retrains of a run measured.
#[derive(Debug, Clone, Default)]
pub struct RetrainRun {
    /// Wall time of each `train_mfcp` call.
    pub secs: Vec<f64>,
    /// Decision-focused rounds run across all calls.
    pub rounds: u64,
    /// Cluster-gradient attempts across all calls (rounds × clusters).
    pub gradient_attempts: u64,
    /// Cluster gradients skipped across all calls.
    pub skipped: u64,
}

impl RetrainRun {
    /// Runs and times one retrain, which must reproduce `reference` bit
    /// for bit; returns its wall time.
    pub fn step(
        &mut self,
        inputs: &Inputs,
        reference: &Trained,
        tracer: &mut Tracer,
    ) -> Result<Duration, String> {
        let span = tracer.begin("retrain", self.secs.len() as u64);
        let started = Instant::now();
        let trained = inputs.retrain();
        let elapsed = started.elapsed();
        tracer.end(span);
        self.secs.push(elapsed.as_secs_f64());
        if !same_bits(&trained.loss_history, &reference.loss_history) {
            return Err(format!(
                "retrain {} diverged from the reference loss history",
                self.secs.len()
            ));
        }
        let rounds = trained.loss_history.len() as u64;
        self.rounds += rounds;
        self.gradient_attempts += rounds * inputs.clusters() as u64;
        self.skipped += trained.skipped_clusters;
        Ok(elapsed)
    }
}

/// True when two float sequences agree bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks that a trained predictor's predictions on the held-out
/// features are finite.
pub fn check_predictor(inputs: &Inputs, trained: &Trained) -> Result<(), String> {
    for (i, p) in trained.predictor.predictors.iter().enumerate() {
        let t = p.predict_times(&inputs.test.features);
        let a = p.predict_reliability(&inputs.test.features);
        if t.iter().chain(&a).any(|v| !v.is_finite()) {
            return Err(format!("cluster {i} predictor returns non-finite values"));
        }
    }
    if !trained.loss_history.iter().all(|l| l.is_finite()) {
        return Err("the loss history has a non-finite round".into());
    }
    Ok(())
}

/// The paper's Eq. 6 makespan regret of the trained predictor on the
/// held-out dataset, averaged over [`EVAL_ROUNDS`] sampled rounds.
pub fn test_regret(inputs: &Inputs, trained: &Trained) -> Result<f64, String> {
    let cfg = &inputs.spec.train;
    let opts = EvalOptions {
        round_size: cfg.round_size,
        rounds: EVAL_ROUNDS,
        gamma: cfg.gamma,
        speedup: cfg.speedup.clone(),
        relaxation: cfg.relaxation,
        solver: cfg.solver,
        executions_per_round: 0,
    };
    let mut rng = StdRng::seed_from_u64(HISTORY_SEED ^ 0xE7A1);
    let scores = evaluate_method(&trained.predictor, &inputs.test, &opts, &mut rng);
    let regret = scores.regret.mean();
    if regret.is_finite() && regret >= 0.0 {
        Ok(regret)
    } else {
        Err(format!(
            "test regret {regret} is not a finite non-negative number"
        ))
    }
}

/// Layer probe results at the workload's round shape.
#[derive(Debug, Clone, Default)]
pub struct RoundProbes {
    /// `implicit_gradients_with` per call, seconds.
    pub kkt_secs: f64,
    /// Structured share of the probe's KKT factorizations.
    pub kkt_structured_share: f64,
    /// `estimate_gradient` per call, seconds.
    pub zeroth_secs: f64,
    /// Perturbation solves per `estimate_gradient` call.
    pub zeroth_solves: f64,
    /// Predictor forward pass per cluster, seconds.
    pub forward_secs: f64,
    /// `Graph::backward_with_seed` + gradient read + Adam step per
    /// cluster, seconds.
    pub backward_adam_secs: f64,
    /// Slot busy time over threads × wall of a `solve_batch` fan-out of
    /// the per-cluster round solves.
    pub fanout_efficiency: f64,
    /// Threads the fan-out used.
    pub threads: usize,
}

/// Repeats `f` until `budget` has elapsed (at least `min` times) and
/// returns the mean seconds per call.
fn time_per_call(budget: Duration, min: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls < min || start.elapsed() < budget {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Times the layers of one decision-focused round from outside, on a
/// round built exactly as `train_mfcp` builds it: the first
/// `round_size` training tasks, times normalized by the round's mean,
/// cluster 0's row replaced by the trained predictor's.
pub fn probe_round(
    inputs: &Inputs,
    trained: &Trained,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<RoundProbes, String> {
    let cfg = &inputs.spec.train;
    let params = cfg.relaxation;
    let m = inputs.clusters();
    let n = cfg.round_size.min(inputs.train.len());
    let data = &inputs.train;
    let features = Matrix::from_fn(n, data.features.cols(), |r, c| data.features[(r, c)]);
    let t_raw = Matrix::from_fn(m, n, |i, j| data.times[(i, j)]);
    let t_meas = t_raw.scale(1.0 / t_raw.mean().max(1e-9));
    let a_meas = Matrix::from_fn(m, n, |i, j| data.reliability[(i, j)].clamp(0.0, 1.0));
    let speedup = if cfg.speedup.is_empty() {
        vec![mfcp_optim::SpeedupCurve::None; m]
    } else {
        cfg.speedup.clone()
    };
    let problem_true = MatchingProblem::with_speedup(t_meas, a_meas, cfg.gamma, speedup);
    let predictor = &trained.predictor.predictors[0];
    let round_scale = t_raw.mean().max(1e-9) / trained.predictor.time_scale;
    let t_hat: Vec<f64> = predictor
        .predict_times(&features)
        .into_iter()
        .map(|v| v / round_scale.max(1e-9))
        .collect();
    let problem_pred = problem_true.with_time_row(0, &t_hat);
    let sol = solve_relaxed(&problem_pred, &params, &cfg.solver);
    let dl_dx = objective::grad_x(&problem_true, &params, &sol.x).scale(1.0 / n as f64);
    let mut out = RoundProbes::default();

    // KKT needs the convex (sequential-execution) problem; on the
    // speedup workload it is probed at the same shape without curves.
    let mut convex = problem_pred.clone();
    convex.speedup = vec![mfcp_optim::SpeedupCurve::None; m];
    let convex_sol = solve_relaxed(&convex, &params, &cfg.solver);
    let mut ws = KktWorkspace::new();
    let span = tracer.begin("kkt.probe", 0);
    out.kkt_secs = time_per_call(budget, 3, || {
        let g = implicit_gradients_with(&convex, &params, &convex_sol.x, &dl_dx, &mut ws);
        black_box(g.ok());
    });
    tracer.end(span);
    let factors = ws.structured_factors() + ws.dense_fallbacks();
    out.kkt_structured_share = crate::stats::share(ws.structured_factors(), factors);

    let zo = match &cfg.mode {
        GradientMode::ForwardGradient(zo) => zo.clone(),
        GradientMode::Analytic => fg_options(),
    };
    let solves = AtomicU64::new(0);
    let mut calls = 0u64;
    let mut rng = StdRng::seed_from_u64(HISTORY_SEED);
    let span = tracer.begin("zeroth.probe", 0);
    out.zeroth_secs = time_per_call(budget, 2, || {
        let solve = |theta: &[f64]| {
            solves.fetch_add(1, Ordering::Relaxed);
            let row: Vec<f64> = theta.iter().map(|&v| v.max(1e-6)).collect();
            solve_relaxed(&problem_pred.with_time_row(0, &row), &params, &cfg.solver).x
        };
        black_box(estimate_gradient(
            &t_hat, &sol.x, &dl_dx, solve, &zo, &mut rng,
        ));
        calls += 1;
    });
    tracer.end(span);
    out.zeroth_solves = solves.load(Ordering::Relaxed) as f64 / calls as f64;

    let mut model = predictor.time_model.clone();
    let mut adam = Adam::new(cfg.lr);
    let seed_grad = Matrix::from_fn(n, 1, |r, _| 1e-3 * (r as f64 + 1.0));
    let (mut forward, mut backward, mut reps) = (0.0, 0.0, 0u32);
    let span = tracer.begin("nn.probe", 0);
    let start = Instant::now();
    while reps < 20 || start.elapsed() < budget {
        let t0 = Instant::now();
        let mut g = Graph::new();
        let xi = g.input(features.clone());
        let pass = model.forward(&mut g, xi);
        let t1 = Instant::now();
        g.backward_with_seed(pass.output, seed_grad.clone());
        let grads = model.grads(&g, &pass);
        adam.step(&mut model.params_mut(), &grads);
        let t2 = Instant::now();
        forward += (t1 - t0).as_secs_f64();
        backward += (t2 - t1).as_secs_f64();
        reps += 1;
    }
    tracer.end(span);
    out.forward_secs = forward / f64::from(reps);
    out.backward_adam_secs = backward / f64::from(reps);

    // The timed retrains run on one CPU, so `parallel` is off their
    // path; the fan-out is probed on a thread that may use every CPU.
    let span = tracer.begin("parallel.probe", 0);
    let (threads, busy, wall) = std::thread::scope(|s| {
        s.spawn(|| {
            crate::host::allow_every_cpu()?;
            let config = ParallelConfig::default();
            let clusters: Vec<usize> = (0..m).collect();
            let (mut busy, mut wall) = (0.0, 0.0);
            let start = Instant::now();
            while wall == 0.0 || start.elapsed() < budget {
                let t0 = Instant::now();
                let slots = solve_batch(&config, &clusters, |_, &i| {
                    let s = Instant::now();
                    let p = problem_true.with_time_row(i, &t_hat);
                    black_box(solve_relaxed(&p, &params, &cfg.solver));
                    s.elapsed().as_secs_f64()
                });
                wall += t0.elapsed().as_secs_f64();
                busy += slots.into_iter().map(|s| s.unwrap_or(0.0)).sum::<f64>();
            }
            Ok::<_, String>((config.threads.min(m).max(1), busy, wall))
        })
        .join()
        .map_err(|_| "the fan-out probe panicked".to_string())?
    })?;
    tracer.end(span);
    out.threads = threads;
    out.fanout_efficiency = busy / (threads as f64 * wall);
    Ok(out)
}
