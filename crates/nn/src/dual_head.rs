//! A small regression head for predicting solver state from problem
//! features ("learned duals").
//!
//! [`DualHead`] is a thin training harness around [`Mlp`]: identity
//! output, full-batch Adam steps on an MSE loss, and a non-finite guard
//! that drops poisoned updates instead of corrupting the weights. The
//! head is deliberately generic — rows are samples, columns are
//! features/targets — so `mfcp-optim` can own the feature extraction
//! (problem → per-column features) without this crate depending on it.

use crate::{Activation, Adam, Loss, Mlp, MlpWorkspace};
use mfcp_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A trainable regression head: `features (rows = samples) → targets`.
///
/// Wraps an [`Mlp`] with Tanh hidden layers and an identity output, plus
/// an [`Adam`] optimizer. [`DualHead::fit_step`] performs one full-batch
/// gradient step and rejects non-finite losses/gradients so a single bad
/// sample cannot destroy the model.
#[derive(Debug, Clone)]
pub struct DualHead {
    mlp: Mlp,
    opt: Adam,
    steps: u64,
    ws: MlpWorkspace,
}

impl DualHead {
    /// Builds a head mapping `input_dim` features to `output_dim` targets
    /// through the given hidden widths, trained with Adam at `lr`.
    /// Initialization is deterministic in `seed`.
    ///
    /// # Panics
    /// Panics if `input_dim` or `output_dim` is zero.
    pub fn new(input_dim: usize, output_dim: usize, hidden: &[usize], lr: f64, seed: u64) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(output_dim > 0, "output_dim must be positive");
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(input_dim);
        dims.extend_from_slice(hidden);
        dims.push(output_dim);
        let mut rng = StdRng::seed_from_u64(seed);
        DualHead {
            mlp: Mlp::new(&dims, Activation::Tanh, Activation::Identity, &mut rng),
            opt: Adam::new(lr),
            steps: 0,
            ws: MlpWorkspace::new(),
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.mlp.input_dim()
    }

    /// Output (target) dimension.
    pub fn output_dim(&self) -> usize {
        self.mlp.output_dim()
    }

    /// Number of successful gradient steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs the head on a feature batch (`rows × input_dim`), returning
    /// `rows × output_dim` predictions.
    pub fn predict(&self, features: &Matrix) -> Matrix {
        self.mlp.predict(features)
    }

    /// One full-batch Adam step on the MSE between `predict(features)`
    /// and `targets`. Returns the pre-step loss, or `None` if the batch
    /// was rejected (shape mismatch, non-finite inputs, loss, or
    /// gradients) — rejected batches leave the weights untouched.
    pub fn fit_step(&mut self, features: &Matrix, targets: &Matrix) -> Option<f64> {
        if features.rows() == 0
            || features.rows() != targets.rows()
            || features.cols() != self.mlp.input_dim()
            || targets.cols() != self.mlp.output_dim()
        {
            return None;
        }
        let finite = |m: &Matrix| m.as_slice().iter().all(|v| v.is_finite());
        if !finite(features) || !finite(targets) {
            return None;
        }
        self.ws
            .batch_mut(features.rows(), features.cols())
            .copy_from_slice(features.as_slice());
        self.mlp.forward_train(&mut self.ws);
        let loss_value = self
            .mlp
            .backward_loss(&mut self.ws, Loss::Mse, targets.as_slice());
        if !loss_value.is_finite() || !self.ws.grads().iter().all(finite) {
            return None;
        }
        self.mlp.step_adam(&mut self.opt, self.ws.grads());
        self.steps += 1;
        Some(loss_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn deterministic_in_seed() {
        let a = DualHead::new(3, 2, &[8], 1e-2, 7);
        let b = DualHead::new(3, 2, &[8], 1e-2, 7);
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3]]);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn fit_reduces_loss_on_linear_map() {
        let mut rng = StdRng::seed_from_u64(11);
        let xs = Matrix::from_fn(48, 2, |_, _| rng.gen_range(-1.0..1.0));
        let ys = Matrix::from_fn(48, 2, |r, c| match c {
            0 => 0.5 * xs[(r, 0)] - xs[(r, 1)],
            _ => xs[(r, 0)] + 0.25 * xs[(r, 1)],
        });
        let mut head = DualHead::new(2, 2, &[16], 5e-3, 3);
        let first = head.fit_step(&xs, &ys).expect("clean batch accepted");
        let mut last = first;
        for _ in 0..300 {
            last = head.fit_step(&xs, &ys).expect("clean batch accepted");
        }
        assert!(
            last < first * 0.2,
            "training failed to reduce loss: {first} -> {last}"
        );
        assert_eq!(head.steps(), 301);
    }

    #[test]
    fn rejects_non_finite_batches_without_touching_weights() {
        let mut head = DualHead::new(2, 1, &[4], 1e-2, 5);
        let probe = Matrix::from_rows(&[&[0.4, -0.2]]);
        let before = head.predict(&probe);
        let bad_x = Matrix::from_rows(&[&[f64::NAN, 0.0]]);
        let y = Matrix::from_rows(&[&[1.0]]);
        assert!(head.fit_step(&bad_x, &y).is_none());
        let x = Matrix::from_rows(&[&[0.3, 0.1]]);
        let bad_y = Matrix::from_rows(&[&[f64::INFINITY]]);
        assert!(head.fit_step(&x, &bad_y).is_none());
        assert_eq!(head.steps(), 0);
        assert_eq!(head.predict(&probe), before);
    }

    #[test]
    fn rejects_shape_mismatches() {
        let mut head = DualHead::new(3, 1, &[4], 1e-2, 5);
        let x = Matrix::from_rows(&[&[0.1, 0.2]]); // wrong input width
        let y = Matrix::from_rows(&[&[1.0]]);
        assert!(head.fit_step(&x, &y).is_none());
        let x3 = Matrix::from_rows(&[&[0.1, 0.2, 0.3]]);
        let y2 = Matrix::from_rows(&[&[1.0, 2.0]]); // wrong target width
        assert!(head.fit_step(&x3, &y2).is_none());
    }
}
