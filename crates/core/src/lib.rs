//! MFCP — Matching-Focused Cluster Performance Prediction.
//!
//! The paper's contribution: train the per-cluster performance predictors
//! *through* the downstream cluster–task matching so that they minimize
//! matching regret (Eq. 5/12) instead of MSE. This crate assembles the
//! substrates (`mfcp-nn`, `mfcp-optim`, `mfcp-platform`) into:
//!
//! * [`predictor`] — per-cluster execution-time (`m_ω`) and reliability
//!   (`m_φ`) networks with positivity/probability output heads.
//! * [`methods`] — the five evaluated systems: TAM (task-agnostic
//!   averages), TSM (two-stage MSE), UCB (robust confidence-bound
//!   matching), MFCP-AD (analytic KKT gradients) and MFCP-FG
//!   (zeroth-order forward gradients).
//! * [`train`] — the end-to-end MFCP training loop (paper Fig. 3 /
//!   Algorithm 2): splice one cluster's predictions into the measured
//!   matrices, solve the relaxed matching, backpropagate the regret
//!   gradient through the matching layer into that cluster's predictors.
//! * [`eval`] — the §4.1.3 evaluation harness: regret, reliability and
//!   cluster utilization over sampled test rounds, against the exact
//!   branch-and-bound ground truth.
//! * [`platform`] — a deployable orchestrator: match incoming rounds,
//!   buffer fresh measurements, retrain periodically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod methods;
pub mod platform;
pub mod predictor;
pub mod train;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::eval::{evaluate_method, EvalOptions, MethodScores};
    pub use crate::methods::{
        EnsembleUcbPredictor, MfcpPredictor, PerformancePredictor, TamPredictor, TsmPredictor,
        UcbPredictor,
    };
    pub use crate::platform::{ExchangePlatform, PlatformConfig};
    pub use crate::predictor::ClusterPredictor;
    pub use crate::train::{
        GradientMode, MfcpTrainConfig, RecoveryEvent, TrainReport, TsmTrainConfig,
    };
}
