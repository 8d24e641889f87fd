//! The relaxed cluster–task matching layer of MFCP.
//!
//! This crate implements §2 and §3.2–§3.4 of the paper:
//!
//! * [`MatchingProblem`] — the integer program of Eq. (2): assign each of
//!   `N` deep-learning tasks to one of `M` clusters, minimizing the
//!   makespan `max_i ζ_i(n_i)·xᵢᵀtᵢ` (Eq. 3 / Eq. 16) subject to the
//!   platform-wide reliability constraint `g(X, A) ≥ 0` (Eq. 4).
//! * [`objective`] — the continuous relaxation: log-sum-exp smoothing of
//!   the max (Eq. 8, Theorem 1), the logarithmic interior-point barrier
//!   (Eq. 9), the hard-penalty ablation (Table 1 row 2), the linear-cost
//!   ablation (Table 1 row 1), and an entropy regularizer that makes the
//!   relaxed optimum unique and interior (a standard DFL device; see
//!   DESIGN.md).
//! * [`solver`] — Algorithm 1: projected gradient descent over the product
//!   of per-task simplices, with mirror-descent (exponentiated-gradient),
//!   literal-paper-softmax and Euclidean projections.
//! * [`rounding`] — deployment-time rounding of the relaxed solution plus
//!   reliability repair and local search (§3.2: "rounded to produce
//!   discrete solutions").
//! * [`exact`] — a branch-and-bound solver for small instances, used as
//!   ground truth in tests and benches.
//! * [`kkt`] — implicit differentiation of the optimum (Eq. 14–15) in the
//!   solver's price coordinates: one `r×r` adjoint solve per backward
//!   pass, the MFCP-AD gradient path.
//! * [`zeroth`] — the zeroth-order forward-gradient estimator of
//!   Algorithm 2 (lines 5–11), the MFCP-FG gradient path.
//! * [`recovery`] — fault-tolerant solving: input validation, one
//!   guarded mirror-descent attempt (request budget and finiteness
//!   checked on every iterate), greedy rounding when it fails, and
//!   per-stage diagnostics. [`RobustSolver::solve`] is the one entry
//!   point: a [`SolveCtx`] hands it a previous solve's prices and/or a
//!   learned predictor, and the typed [`SeedProvenance`] in its
//!   diagnostics says which start ran.
//! * [`learned`] — learned dual predictions for *unseen* instances: a
//!   small `mfcp-nn` head maps structure-only problem features to
//!   per-column duals and a primal seed, with instance-robust
//!   feasibility repair before the seed reaches the ladder (see
//!   DESIGN.md, "Learned duals and instance-robust repair").
//! * [`budget`] — per-request deadlines and cooperative cancellation,
//!   checked on every guarded iterate so an online daemon can bound the
//!   latency of a single matching solve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod exact;
pub mod kkt;
pub mod learned;
pub mod objective;
pub mod problem;
pub mod recovery;
pub mod rounding;
pub mod solver;
pub mod speedup;
pub mod zeroth;

pub use budget::{Budget, CancelToken};
pub use kkt::{KktGradients, KktWorkspace};
pub use learned::{DualPrediction, DualPredictor, LearnedDualHead, RepairError};
pub use objective::{BarrierKind, CostKind, RelaxationParams};
pub use problem::{Assignment, CapacityConstraint, MatchingProblem};
pub use recovery::{
    FallbackStage, RobustSolution, RobustSolver, SeedProvenance, SeedSource, SolveCtx,
    SolveDiagnostics, SolveError, StageAttempt, StageOutcome,
};
pub use solver::{PgdWorkspace, ProjectionKind, RelaxedSolution, SolverOptions, StopReason};
pub use speedup::SpeedupCurve;
