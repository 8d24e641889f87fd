//! Learned dual predictions with instance-robust feasibility repair.
//!
//! A solve handed a previous solve's prices starts next to its
//! optimum; this module carries the idea to instances with *no*
//! previous solve, following Dinitz et al. 2021 ("Faster
//! Matchings via Learned Duals") and Lavastida et al. 2021 ("Learnable
//! and Instance-Robust Predictions for Online Matching, Flows and Load
//! Balancing"): learn a map from structure-only problem features to the
//! per-task simplex duals and the relaxed assignment, repair any
//! infeasibility in the prediction, and seed the solver ladder from the
//! repaired point. A good prediction lands inside the basin of the new
//! optimum and converges in a fraction of the cold iterations; a bad
//! prediction is either rejected by [`repair`] before any solver work,
//! or costs exactly one failed attempt before the cold attempt runs.
//!
//! The pieces:
//!
//! * [`features`] — per-column feature extraction: structural scalars
//!   (shape, γ, speedup/capacity statistics) plus the normalized
//!   time/reliability columns; nothing time-dependent or
//!   nondeterministic.
//! * [`DualPrediction`] / [`DualPredictor`] — the raw model output (a
//!   relaxed assignment plus per-column duals) and the trait the solver
//!   consumes. Predictors return *raw* output; the solver repairs it, so
//!   tests can drive the ladder with adversarial mock predictors.
//! * [`repair`] — the instance-robust feasibility repair: reject wrong
//!   shapes and non-finite or out-of-scale duals outright
//!   ([`RepairError`]), clamp duals to [`DUAL_ABS_BOUND`], and project
//!   each primal column onto the simplex. Columns already on the simplex
//!   (within `1e-12`) are passed through untouched, which makes repair
//!   idempotent and bitwise-identity on feasible seeds.
//! * [`LearnedDualHead`] — an [`mfcp_nn::DualHead`] regression model
//!   over the features, trained online from the duals of measured solves
//!   ([`LearnedDualHead::observe`]) and served through [`DualPredictor`]
//!   once enough observations have accumulated. A second, instance-level
//!   head maps the [`instance_features`] to the optimum's prices
//!   ([`crate::objective::prices`]): a solve that takes price trials
//!   starts from them directly ([`DualPredictor::predict_prices`]), at
//!   the cost of one feature row through the network instead of one
//!   row per task.
//!
//! Fallback semantics are owned by [`crate::recovery::RobustSolver`]:
//! given prices beat predictions, predictions beat cold starts, and a
//! rejected or failed prediction falls through to the cold attempt with
//! a typed [`crate::recovery::SeedProvenance`] in the diagnostics.

use std::fmt;

use crate::objective::{self, RelaxationParams};
use crate::problem::MatchingProblem;
use crate::solver::project_simplex_with;
use mfcp_linalg::Matrix;
use mfcp_nn::DualHead;

/// Largest admissible dual magnitude.
///
/// Duals of the entropic relaxation are gradient column-minima; on every
/// workload the platform generates they are `O(1)`–`O(10)`. Anything
/// beyond this bound is a corrupted or wildly out-of-distribution
/// prediction (e.g. the ×1e6-scaled adversarial case), and seeding from
/// it would waste the predicted attempt — reject instead. Start prices,
/// given or predicted, pass the same bound ([`prices_admissible`]).
pub const DUAL_ABS_BOUND: f64 = 1e3;

/// Whether `prices` are on the scale of a solve's start prices: every
/// entry finite and within [`DUAL_ABS_BOUND`] (prices are gradient
/// components of the same scale as duals). The layout is the caller's
/// to check against [`crate::objective::price_dim`].
pub fn prices_admissible(prices: &[f64]) -> bool {
    prices
        .iter()
        .all(|v| v.is_finite() && v.abs() <= DUAL_ABS_BOUND)
}

/// Tolerance under which a primal column counts as already feasible and
/// repair passes it through bit-for-bit (see [`repair`]).
pub const FEASIBLE_TOL: f64 = 1e-12;

/// Number of per-column feature slots that do not scale with `m` (see
/// [`features`]).
pub const GLOBAL_FEATURES: usize = 8;

/// Interior blend for predicted seeds (see [`predicted_init`]).
///
/// Much larger than the `1e-9` blend the solver tests warm-start exact
/// optima with, deliberately. A warm start is a true optimum of a
/// sibling instance: its small coordinates are small in the *right*
/// places, so the blend only needs
/// to lift exact zeros out of the mirror-descent fixed point. A learned
/// prediction's small coordinates are wrong at the model's error scale
/// (~1e-2): the simplex projection routinely lands columns *on the
/// boundary*, and multiplicative updates grow a coordinate from `1e-9`
/// about three times slower than from `1e-3` (measured: a predicted
/// seed 20× closer than uniform converged no faster than cold under the
/// `1e-9` blend). `1e-3` floors every coordinate at `τ/m` — negligible
/// perturbation next to the prediction error, decisive for recovery
/// speed.
pub const PREDICTED_BLEND: f64 = 1e-3;

/// Interior blend for predicted seeds: `(1 − τ)·x + τ·uniform` with
/// `τ =` [`PREDICTED_BLEND`]. Keeps every coordinate at least `τ/m`
/// so mirror descent can cheaply move mass the prediction misplaced,
/// and keeps columns exactly stochastic.
pub fn predicted_init(x: &Matrix) -> Matrix {
    let (m, n) = x.shape();
    let u = 1.0 / m.max(1) as f64;
    Matrix::from_fn(m, n, |i, j| {
        (1.0 - PREDICTED_BLEND) * x[(i, j)] + PREDICTED_BLEND * u
    })
}

/// Feature dimension for an `m`-cluster problem: the normalized time
/// column, the reliability column, and [`GLOBAL_FEATURES`] structural
/// scalars.
pub fn feature_dim(m: usize) -> usize {
    2 * m + GLOBAL_FEATURES
}

/// Structure-only features for every task column of `problem`, one row
/// per column (`n × feature_dim(m)`).
///
/// Per column `j`: the execution-time column normalized by its mean
/// (scale-free), the raw reliability column, then the structural
/// scalars — γ, ρ, β/10, λ, `ln(1+n)/4`, `ln(1+mean_j)` (the time
/// scale), the fraction of trivial speedup curves, and a capacity
/// statistic (`0` without constraints, else `1/(1+mean limit)`). All
/// deterministic and finite for any valid problem.
pub fn features(problem: &MatchingProblem, params: &RelaxationParams) -> Matrix {
    let ctx = FeatureContext::new(problem);
    Matrix::from_fn(problem.tasks(), feature_dim(problem.clusters()), |j, k| {
        ctx.value(problem, params, j, k)
    })
}

/// Instance-level features of `problem`: the mean of its [`features`]
/// rows (`1 × feature_dim(m)`), the input of the price head.
pub fn instance_features(problem: &MatchingProblem, params: &RelaxationParams) -> Matrix {
    let ctx = FeatureContext::new(problem);
    let n = problem.tasks();
    Matrix::from_fn(1, feature_dim(problem.clusters()), |_, k| {
        (0..n)
            .map(|j| ctx.value(problem, params, j, k))
            .sum::<f64>()
            / n.max(1) as f64
    })
}

/// The per-problem statistics behind [`features`]: each column's mean
/// time, the fraction of trivial speedup curves and the capacity
/// statistic.
struct FeatureContext {
    col_mean: Vec<f64>,
    trivial: f64,
    cap_stat: f64,
}

impl FeatureContext {
    fn new(problem: &MatchingProblem) -> Self {
        let (m, n) = (problem.clusters(), problem.tasks());
        let trivial = if m == 0 {
            1.0
        } else {
            problem.speedup.iter().filter(|c| c.is_trivial()).count() as f64 / m as f64
        };
        let cap_stat = match &problem.capacity {
            None => 0.0,
            Some(cap) => {
                let mean = cap.limits.iter().sum::<f64>() / cap.limits.len().max(1) as f64;
                1.0 / (1.0 + mean)
            }
        };
        let col_mean = (0..n)
            .map(|j| {
                let sum: f64 = (0..m).map(|i| problem.times[(i, j)]).sum();
                (sum / m.max(1) as f64).max(1e-12)
            })
            .collect();
        FeatureContext {
            col_mean,
            trivial,
            cap_stat,
        }
    }

    /// Feature `k` of task column `j`.
    fn value(
        &self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
        j: usize,
        k: usize,
    ) -> f64 {
        let (m, n) = (problem.clusters(), problem.tasks());
        if k < m {
            problem.times[(k, j)] / self.col_mean[j]
        } else if k < 2 * m {
            problem.reliability[(k - m, j)]
        } else {
            match k - 2 * m {
                0 => problem.gamma,
                1 => params.rho,
                2 => params.beta / 10.0,
                3 => params.lambda,
                4 => (1.0 + n as f64).ln() / 4.0,
                5 => (1.0 + self.col_mean[j]).ln(),
                6 => self.trivial,
                _ => self.cap_stat,
            }
        }
    }
}

/// Whether `problem`'s solves keep prices in the layout the price head
/// predicts: no speedup curve (whose count prices widen `θ`) and no
/// capacity constraints, so `θ` has `m + 1` entries.
fn priced_layout(problem: &MatchingProblem) -> bool {
    problem.capacity.is_none() && problem.speedup.iter().all(|c| c.is_trivial())
}

/// Regression targets for training a dual head from a solved optimum:
/// one row per task column, holding the column of `x` followed by its
/// dual (`n × (m+1)`).
pub fn targets(x: &Matrix, duals: &[f64]) -> Matrix {
    let (m, n) = x.shape();
    assert_eq!(duals.len(), n, "one dual per task column");
    Matrix::from_fn(n, m + 1, |j, k| if k < m { x[(k, j)] } else { duals[j] })
}

/// Per-task simplex duals `ν_j = min_i ∂F/∂x_ij` of `problem` at `x`.
///
/// At an interior optimum of the entropic relaxation the gradient is
/// constant across the support of each column, so the column minimum
/// recovers the stationarity multiplier of the simplex constraint.
pub fn column_duals(problem: &MatchingProblem, params: &RelaxationParams, x: &Matrix) -> Vec<f64> {
    column_minima(&objective::grad_x(problem, params, x))
}

/// Each column's minimum of an `m × n` gradient: the per-task duals of
/// the point it was taken at (see [`column_duals`]).
pub(crate) fn column_minima(grad: &Matrix) -> Vec<f64> {
    let (m, n) = grad.shape();
    (0..n)
        .map(|j| (0..m).map(|i| grad[(i, j)]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Whether `duals` is an admissible dual vector for an `n`-column
/// problem: correct length, every entry finite, and every magnitude
/// within [`DUAL_ABS_BOUND`]. Used by [`repair`] and by
/// [`LearnedDualHead::observe`].
pub fn duals_admissible(duals: &[f64], n: usize) -> bool {
    duals.len() == n
        && duals
            .iter()
            .all(|d| d.is_finite() && d.abs() <= DUAL_ABS_BOUND)
}

/// A predicted solver state: a relaxed assignment seed (`m × n`,
/// columns ideally on the simplex) plus per-task duals (length `n`).
#[derive(Debug, Clone, PartialEq)]
pub struct DualPrediction {
    /// Predicted relaxed assignment (primal seed).
    pub x: Matrix,
    /// Predicted per-task simplex duals.
    pub duals: Vec<f64>,
}

/// Why [`repair`] rejected a prediction outright (as opposed to fixing
/// it up). Carried into the solve diagnostics as the typed recovery
/// event for a bad prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairError {
    /// The primal seed has the wrong shape for the problem.
    PrimalShape,
    /// The dual vector length does not match the task count.
    DualCount,
    /// The primal seed contains NaN or infinite entries.
    NonFinitePrimal,
    /// The dual vector contains NaN or infinite entries.
    NonFiniteDual,
    /// A dual magnitude exceeds [`DUAL_ABS_BOUND`] — an out-of-scale
    /// (e.g. ×1e6) prediction.
    DualOutOfScale,
    /// Start prices — given ([`crate::recovery::SolveCtx::prices`]) or
    /// predicted ([`DualPredictor::predict_prices`]) — have the wrong
    /// length for the problem, an entry that is not finite or exceeds
    /// [`DUAL_ABS_BOUND`], or meet a solve that takes no price trials.
    Prices,
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RepairError::PrimalShape => "predicted assignment has the wrong shape",
            RepairError::DualCount => "predicted dual count does not match the task count",
            RepairError::NonFinitePrimal => "predicted assignment contains non-finite entries",
            RepairError::NonFiniteDual => "predicted duals contain non-finite entries",
            RepairError::DualOutOfScale => "predicted dual magnitude exceeds the sanity bound",
            RepairError::Prices => "start prices are mis-sized, non-finite, or out of scale",
        })
    }
}

impl std::error::Error for RepairError {}

/// Whether column `j` of `x` is already on the simplex within
/// [`FEASIBLE_TOL`]: all entries non-negative and the column sum within
/// the tolerance of one.
fn column_feasible(x: &Matrix, j: usize) -> bool {
    let mut sum = 0.0;
    for i in 0..x.rows() {
        let v = x[(i, j)];
        if v < 0.0 {
            return false;
        }
        sum += v;
    }
    (sum - 1.0).abs() <= FEASIBLE_TOL
}

/// Feasibility-repairs a raw prediction for an `m × n` problem.
///
/// Rejection (the prediction is unusable, [`RepairError`]): wrong primal
/// shape or dual count, non-finite entries anywhere, or a dual magnitude
/// beyond [`DUAL_ABS_BOUND`].
///
/// Repair (the prediction is usable after fix-up): every primal column
/// not already on the simplex (within [`FEASIBLE_TOL`]) is replaced by
/// its Euclidean simplex projection
/// ([`project_simplex_with`][crate::solver::project_simplex_with]), and
/// duals are clamped to the bound (a no-op after the scale check — kept
/// as defense in depth).
///
/// Columns that are already feasible are passed through bit-for-bit, so
/// repair is idempotent and repairing an already-feasible seed returns
/// it unchanged.
pub fn repair(pred: &DualPrediction, m: usize, n: usize) -> Result<DualPrediction, RepairError> {
    if pred.x.shape() != (m, n) {
        return Err(RepairError::PrimalShape);
    }
    if pred.duals.len() != n {
        return Err(RepairError::DualCount);
    }
    if !pred.x.as_slice().iter().all(|v| v.is_finite()) {
        return Err(RepairError::NonFinitePrimal);
    }
    if !pred.duals.iter().all(|d| d.is_finite()) {
        return Err(RepairError::NonFiniteDual);
    }
    if pred.duals.iter().any(|d| d.abs() > DUAL_ABS_BOUND) {
        return Err(RepairError::DualOutOfScale);
    }
    let mut x = pred.x.clone();
    let mut col = vec![0.0; m];
    let mut scratch = Vec::with_capacity(m);
    for j in 0..n {
        if column_feasible(&x, j) {
            continue;
        }
        for (i, slot) in col.iter_mut().enumerate() {
            *slot = x[(i, j)];
        }
        project_simplex_with(&mut col, &mut scratch);
        for (i, &v) in col.iter().enumerate() {
            x[(i, j)] = v;
        }
    }
    let duals = pred
        .duals
        .iter()
        .map(|d| d.clamp(-DUAL_ABS_BOUND, DUAL_ABS_BOUND))
        .collect();
    Ok(DualPrediction { x, duals })
}

/// A source of raw dual/primal predictions for unseen instances.
///
/// Implementations return their *unrepaired* output (or `None` when
/// they cannot predict for this problem shape); the consumer runs
/// [`repair`] and owns the fallback semantics. This split lets the
/// differential tests drive [`crate::RobustSolver`] with adversarial
/// mock predictors.
pub trait DualPredictor {
    /// Predicts solver state for `problem`, or `None` if this predictor
    /// cannot cover the instance (wrong shape family, not trained yet).
    fn predict_duals(
        &self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
    ) -> Option<DualPrediction>;

    /// Predicts the final prices ([`crate::objective::prices`] layout)
    /// of a solve of `problem`, or `None` (the default) if this
    /// predictor has none. The consumer checks them against the same
    /// scale bound as duals and starts a price-path solve from them; a
    /// solve that takes no price trials never asks.
    fn predict_prices(
        &self,
        _problem: &MatchingProblem,
        _params: &RelaxationParams,
    ) -> Option<Vec<f64>> {
        None
    }
}

/// Default number of observed solves before a [`LearnedDualHead`] starts
/// serving predictions.
const DEFAULT_MIN_OBSERVATIONS: u64 = 8;

/// Hidden width of the default head architecture.
const HIDDEN_WIDTH: usize = 32;

/// Adam learning rate for online head training.
const HEAD_LR: f64 = 5e-3;

/// Mixed into the head's seed to initialize the price head apart from
/// the column head.
const PRICE_HEAD_SEED: u64 = 0x5052_4943_4553;

/// A learned dual predictor for `m`-cluster problems: an
/// [`mfcp_nn::DualHead`] regression model mapping [`features`] rows to
/// per-column `(x_col, dual)` targets, trained online from the duals of
/// measured solves, and a price head mapping [`instance_features`] to
/// the optimum's `m + 1` prices, trained from the same solves.
///
/// The column head is column-wise, so one model covers any task count
/// `n`; the cluster count `m` is fixed at construction (it sets the
/// feature and target dimensions). Until [`LearnedDualHead::ready`] —
/// fewer than `min_observations` successful updates — the predictor
/// abstains (`predict_duals` returns `None`) rather than serve noise;
/// the price head abstains likewise until it has seen as many
/// instances with trivial speedups and no capacity constraints.
#[derive(Debug, Clone)]
pub struct LearnedDualHead {
    head: DualHead,
    price_head: DualHead,
    m: usize,
    min_observations: u64,
    observations: u64,
    price_observations: u64,
}

impl LearnedDualHead {
    /// A fresh head for `m`-cluster problems, deterministically
    /// initialized from `seed`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize, seed: u64) -> Self {
        assert!(m > 0, "need at least one cluster");
        LearnedDualHead {
            head: DualHead::new(feature_dim(m), m + 1, &[HIDDEN_WIDTH], HEAD_LR, seed),
            price_head: DualHead::new(
                feature_dim(m),
                m + 1,
                &[HIDDEN_WIDTH],
                HEAD_LR,
                seed ^ PRICE_HEAD_SEED,
            ),
            m,
            min_observations: DEFAULT_MIN_OBSERVATIONS,
            observations: 0,
            price_observations: 0,
        }
    }

    /// Overrides the readiness threshold (number of observed solves
    /// before predictions are served).
    pub fn with_min_observations(mut self, min_observations: u64) -> Self {
        self.min_observations = min_observations;
        self
    }

    /// Cluster count this head was built for.
    pub fn clusters(&self) -> usize {
        self.m
    }

    /// Number of successful training observations so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Whether the head has seen enough solves to serve predictions.
    pub fn ready(&self) -> bool {
        self.observations >= self.min_observations
    }

    /// Whether the price head has seen enough instances to serve
    /// price predictions.
    pub fn prices_ready(&self) -> bool {
        self.price_observations >= self.min_observations
    }

    /// Trains on one measured solve: extracts duals from the optimum
    /// `x_star` of `problem`, and takes one gradient step toward
    /// predicting `(x_star, duals)` from the problem features. Returns
    /// the pre-step loss, or `None` if the observation was rejected
    /// (shape mismatch, empty problem, or inadmissible duals — e.g. a
    /// degenerate solve whose gradient blew up) — rejected observations
    /// leave the model untouched. An accepted observation of an
    /// instance in the price head's layout also takes one step of the
    /// price head toward the optimum's prices.
    pub fn observe(
        &mut self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
        x_star: &Matrix,
    ) -> Option<f64> {
        let (m, n) = (problem.clusters(), problem.tasks());
        if m != self.m || n == 0 || x_star.shape() != (m, n) {
            mfcp_obs::counter("optim.learned.observe_rejected").inc();
            return None;
        }
        if !x_star.as_slice().iter().all(|v| v.is_finite()) {
            mfcp_obs::counter("optim.learned.observe_rejected").inc();
            return None;
        }
        let duals = column_duals(problem, params, x_star);
        if !duals_admissible(&duals, n) {
            mfcp_obs::counter("optim.learned.observe_rejected").inc();
            return None;
        }
        let per_task = features(problem, params);
        let loss = self.head.fit_step(&per_task, &targets(x_star, &duals));
        match loss {
            Some(l) => {
                if priced_layout(problem) {
                    let prices = objective::prices(problem, params, x_star);
                    if prices.iter().all(|p| p.abs() <= DUAL_ABS_BOUND)
                        && self
                            .price_head
                            .fit_step(
                                &instance_features(problem, params),
                                &Matrix::from_rows(&[&prices]),
                            )
                            .is_some()
                    {
                        self.price_observations += 1;
                    }
                }
                self.observations += 1;
                mfcp_obs::counter("optim.learned.observed").inc();
                mfcp_obs::histogram("optim.learned.fit_loss").record(l);
                Some(l)
            }
            None => {
                mfcp_obs::counter("optim.learned.observe_rejected").inc();
                None
            }
        }
    }
}

impl DualPredictor for LearnedDualHead {
    fn predict_duals(
        &self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
    ) -> Option<DualPrediction> {
        let (m, n) = (problem.clusters(), problem.tasks());
        if m != self.m || n == 0 || !self.ready() {
            return None;
        }
        let out = self.head.predict(&features(problem, params));
        let x = Matrix::from_fn(m, n, |i, j| out[(j, i)]);
        let duals = (0..n).map(|j| out[(j, m)]).collect();
        Some(DualPrediction { x, duals })
    }

    fn predict_prices(
        &self,
        problem: &MatchingProblem,
        params: &RelaxationParams,
    ) -> Option<Vec<f64>> {
        if problem.clusters() != self.m
            || problem.tasks() == 0
            || !self.prices_ready()
            || !priced_layout(problem)
        {
            return None;
        }
        let out = self.price_head.predict(&instance_features(problem, params));
        Some(out.row(0).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::is_column_stochastic;

    fn problem(m: usize, n: usize) -> MatchingProblem {
        let t = Matrix::from_fn(m, n, |i, j| 1.0 + 0.3 * i as f64 + 0.1 * j as f64);
        let a = Matrix::from_fn(m, n, |i, j| 0.8 + 0.02 * ((i + j) % 10) as f64);
        MatchingProblem::new(t, a, 0.6)
    }

    fn bits(x: &Matrix) -> Vec<u64> {
        x.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn features_are_deterministic_finite_and_shaped() {
        let p = problem(3, 5);
        let params = RelaxationParams::default();
        let f = features(&p, &params);
        assert_eq!(f.shape(), (5, feature_dim(3)));
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(f, features(&p, &params));
        // Structure-only: scaling one time entry moves only that column's
        // time features, never produces non-finite values.
        let p2 = p.with_time_row(0, &[9.0, 9.0, 9.0, 9.0, 9.0]);
        assert!(features(&p2, &params)
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    fn repair_of_feasible_seed_is_bitwise_identity() {
        // Dyadic entries: every column sums to exactly 1.0.
        let x = Matrix::from_rows(&[&[0.25, 0.5, 1.0], &[0.75, 0.5, 0.0]]);
        let pred = DualPrediction {
            x: x.clone(),
            duals: vec![0.5, -1.25, 3.0],
        };
        let fixed = repair(&pred, 2, 3).expect("feasible seed accepted");
        assert_eq!(bits(&fixed.x), bits(&x));
        assert_eq!(
            fixed.duals.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            pred.duals.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn repair_projects_onto_simplex_to_1e12() {
        let x = Matrix::from_rows(&[
            &[1.7, -0.3, 100.0, 0.0],
            &[-0.4, 0.9, -50.0, 0.0],
            &[0.2, 0.8, 2.0, 0.0],
        ]);
        let pred = DualPrediction {
            x,
            duals: vec![0.0; 4],
        };
        let fixed = repair(&pred, 3, 4).expect("finite seed accepted");
        assert!(is_column_stochastic(&fixed.x, 1e-12));
        assert!(fixed.x.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn repair_is_idempotent() {
        let x = Matrix::from_rows(&[&[2.0, -1.0, 0.3], &[0.5, 0.5, 0.3], &[-0.1, 1.2, 0.3]]);
        let pred = DualPrediction {
            x,
            duals: vec![999.0, -999.0, 0.125],
        };
        let once = repair(&pred, 3, 3).expect("repairable");
        let twice = repair(&once, 3, 3).expect("repaired output is admissible");
        assert_eq!(bits(&twice.x), bits(&once.x));
        assert_eq!(
            twice.duals.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            once.duals.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn repair_rejects_adversarial_predictions() {
        let good = Matrix::filled(2, 3, 0.5);
        // NaN dual.
        let p = DualPrediction {
            x: good.clone(),
            duals: vec![0.0, f64::NAN, 0.0],
        };
        assert_eq!(repair(&p, 2, 3), Err(RepairError::NonFiniteDual));
        // Infinite dual.
        let p = DualPrediction {
            x: good.clone(),
            duals: vec![f64::INFINITY, 0.0, 0.0],
        };
        assert_eq!(repair(&p, 2, 3), Err(RepairError::NonFiniteDual));
        // Out-of-scale (×1e6) duals.
        let p = DualPrediction {
            x: good.clone(),
            duals: vec![1.5e6, -2.0e6, 0.0],
        };
        assert_eq!(repair(&p, 2, 3), Err(RepairError::DualOutOfScale));
        // Wrong-shape primal.
        let p = DualPrediction {
            x: Matrix::filled(3, 3, 1.0 / 3.0),
            duals: vec![0.0; 3],
        };
        assert_eq!(repair(&p, 2, 3), Err(RepairError::PrimalShape));
        // Wrong dual count.
        let p = DualPrediction {
            x: good.clone(),
            duals: vec![0.0; 2],
        };
        assert_eq!(repair(&p, 2, 3), Err(RepairError::DualCount));
        // NaN primal.
        let mut x = good.clone();
        x[(0, 0)] = f64::NAN;
        let p = DualPrediction {
            x,
            duals: vec![0.0; 3],
        };
        assert_eq!(repair(&p, 2, 3), Err(RepairError::NonFinitePrimal));
    }

    #[test]
    fn prices_admissible_gates_scale_and_finiteness() {
        // Any length passes; the layout is the caller's check.
        for ok in [
            &[][..],
            &[0.5, 0.5, -0.1],
            &[0.0; 7],
            &[-DUAL_ABS_BOUND, DUAL_ABS_BOUND],
        ] {
            assert!(prices_admissible(ok), "{ok:?}");
        }
        for bad in [
            &[0.5, f64::NAN, -0.1][..],
            &[0.5, f64::INFINITY, -0.1],
            &[f64::NEG_INFINITY],
            &[0.5, 1e6, -0.1],
            &[-DUAL_ABS_BOUND * (1.0 + 1e-12)],
        ] {
            assert!(!prices_admissible(bad), "{bad:?}");
        }
    }

    #[test]
    fn duals_admissible_matches_repair_gate() {
        assert!(duals_admissible(&[0.0, -DUAL_ABS_BOUND, DUAL_ABS_BOUND], 3));
        assert!(!duals_admissible(&[0.0, 0.0], 3), "wrong length");
        assert!(!duals_admissible(&[f64::NAN, 0.0, 0.0], 3));
        assert!(!duals_admissible(&[1e6, 0.0, 0.0], 3));
    }

    #[test]
    fn head_abstains_until_ready_then_predicts_shapes() {
        let params = RelaxationParams::default();
        let p = problem(3, 4);
        let mut head = LearnedDualHead::new(3, 17).with_min_observations(2);
        assert!(head.predict_duals(&p, &params).is_none(), "untrained");
        let x = crate::solver::uniform_init(3, 4);
        assert!(head.observe(&p, &params, &x).is_some());
        assert!(head.predict_duals(&p, &params).is_none(), "one short");
        assert!(head.observe(&p, &params, &x).is_some());
        assert!(head.ready());
        let pred = head
            .predict_duals(&p, &params)
            .expect("ready head predicts");
        assert_eq!(pred.x.shape(), (3, 4));
        assert_eq!(pred.duals.len(), 4);
        // Different task count, same model.
        let p7 = problem(3, 7);
        assert!(head.predict_duals(&p7, &params).is_some());
        // Wrong cluster count: abstain.
        assert!(head.predict_duals(&problem(4, 4), &params).is_none());
    }

    #[test]
    fn observe_rejects_mismatched_or_poisoned_solutions() {
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let mut head = LearnedDualHead::new(2, 1);
        // Wrong cluster count.
        assert!(head
            .observe(&problem(3, 3), &params, &crate::solver::uniform_init(3, 3))
            .is_none());
        // Wrong solution shape.
        assert!(head
            .observe(&p, &params, &crate::solver::uniform_init(2, 4))
            .is_none());
        // Non-finite solution.
        let mut x = crate::solver::uniform_init(2, 3);
        x[(0, 0)] = f64::NAN;
        assert!(head.observe(&p, &params, &x).is_none());
        assert_eq!(head.observations(), 0);
    }

    #[test]
    fn price_head_learns_an_optimums_prices_and_abstains_off_layout() {
        let params = RelaxationParams::default();
        let p = problem(2, 3);
        let mut head = LearnedDualHead::new(2, 5).with_min_observations(2);
        let x = crate::solver::solve_relaxed(&p, &params, &Default::default()).x;
        let target = objective::prices(&p, &params, &x);
        assert_eq!(target.len(), 3);
        head.observe(&p, &params, &x).expect("clean observation");
        assert!(!head.prices_ready() && head.predict_prices(&p, &params).is_none());
        for _ in 0..300 {
            head.observe(&p, &params, &x).expect("clean observation");
        }
        let predicted = head.predict_prices(&p, &params).expect("ready");
        for (a, b) in predicted.iter().zip(&target) {
            assert!((a - b).abs() < 0.05, "price far from target: {a} vs {b}");
        }
        // Capacity constraints or a speedup curve change the price
        // layout: the price head neither predicts nor trains there.
        let mut capped = p.clone();
        capped.capacity = Some(crate::problem::CapacityConstraint {
            usage: Matrix::filled(2, 3, 1.0),
            limits: vec![3.0, 3.0],
        });
        assert!(head.predict_prices(&capped, &params).is_none());
        let mut fresh = LearnedDualHead::new(2, 5).with_min_observations(1);
        fresh
            .observe(&capped, &params, &x)
            .expect("clean observation");
        assert!(fresh.ready() && !fresh.prices_ready());
    }

    #[test]
    fn head_learns_the_uniform_family() {
        // Observing a family with near-identical optima must drive the
        // prediction toward those optima (sanity that gradients flow end
        // to end through features → targets).
        let params = RelaxationParams::default();
        let mut head = LearnedDualHead::new(2, 5).with_min_observations(1);
        let p = problem(2, 3);
        let x = crate::solver::uniform_init(2, 3);
        let first = head.observe(&p, &params, &x).expect("clean observation");
        let mut last = first;
        for _ in 0..200 {
            last = head.observe(&p, &params, &x).expect("clean observation");
        }
        assert!(last < first * 0.5, "loss did not drop: {first} -> {last}");
        let pred = head.predict_duals(&p, &params).expect("ready");
        let fixed = repair(&pred, 2, 3).expect("trained prediction repairable");
        for (a, b) in fixed.x.as_slice().iter().zip(x.as_slice()) {
            assert!(
                (a - b).abs() < 0.2,
                "prediction far from target: {a} vs {b}"
            );
        }
    }
}
