//! Minimal neural-network library, pinned to `mfcp-autodiff`'s tape.
//!
//! MFCP's predictors `m_ω` (execution time) and `m_φ` (reliability) are
//! small fully-connected networks over fixed task features (the paper's
//! §4.1.1: a GNN embeds tasks, "in the subsequent predictor training, we
//! only utilized fully connected layers"). This crate provides everything
//! those predictors need:
//!
//! * [`Mlp`] — a multi-layer perceptron trained without a tape: a forward
//!   pass that keeps its pre-activations in a caller-owned
//!   [`MlpWorkspace`], a backward pass from a [`Loss`] (TSM's MSE
//!   training) or from an externally seeded adjoint (MFCP's
//!   decision-focused regret gradient), and an in-place Adam step, with no
//!   allocation per step. The same pass recorded on an autodiff
//!   [`Graph`](mfcp_autodiff::Graph) is kept as the reference it is pinned
//!   to bit for bit (`tests/fused_vs_tape.rs`).
//! * [`Activation`] — ReLU / LeakyReLU / Tanh / Sigmoid / scaled softplus
//!   (smooth positive outputs for execution times) / identity.
//! * [`init`] — Xavier and He initialization.
//! * [`Sgd`] / [`Adam`] behind the [`Optimizer`] trait, with
//!   [`LrSchedule`]s.
//! * [`DualHead`] — a small Adam-trained regression head (MSE, full-batch
//!   steps, non-finite rejection) backing the learned-duals warm-start
//!   path in `mfcp-optim`.
//! * [`data`] — deterministic shuffling, train/test splits, mini-batches.
//! * [`persist`] — dependency-free text serialization of trained models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
pub mod data;
mod dual_head;
pub mod init;
mod loss;
mod mlp;
mod optimizer;
pub mod persist;

pub use activation::Activation;
pub use dual_head::DualHead;
pub use loss::Loss;
pub use mlp::{Mlp, MlpPass, MlpWorkspace};
pub use optimizer::{Adam, LrSchedule, Optimizer, Sgd};
