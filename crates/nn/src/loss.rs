//! Regression losses as graph builders.

use mfcp_autodiff::{Graph, NodeId};

/// Which regression loss to record on the graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Loss {
    /// Mean squared error.
    #[default]
    Mse,
    /// Mean Huber penalty with threshold `delta` — robust to the
    /// heavy-tailed residuals that memory-wall tasks produce.
    Huber {
        /// Residual magnitude where the penalty switches from quadratic
        /// to linear.
        delta: f64,
    },
}

impl Loss {
    /// Records `loss(pred, target)` on the graph as a `1 x 1` node.
    pub fn build(self, g: &mut Graph, pred: NodeId, target: NodeId) -> NodeId {
        match self {
            Loss::Mse => g.mse(pred, target),
            Loss::Huber { delta } => {
                let d = g.sub(pred, target);
                let h = g.huber(d, delta);
                g.mean(h)
            }
        }
    }

    /// Writes `∂L/∂pred` into `adj` and returns `L`, bit for bit what
    /// [`Loss::build`] and a unit-seeded backward sweep produce: the mean's
    /// adjoint is `1/n`, and MSE's `Mul(d, d)` adds its two equal halves.
    pub(crate) fn adjoint(self, pred: &[f64], target: &[f64], adj: &mut [f64]) -> f64 {
        assert_eq!(pred.len(), target.len(), "target shape must match output");
        assert_eq!(pred.len(), adj.len(), "adjoint shape must match output");
        let n = pred.len().max(1) as f64;
        let g = 1.0 / n;
        let residuals = pred.iter().zip(target).map(|(p, t)| p - t);
        let total: f64 = match self {
            Loss::Mse => {
                for (a, d) in adj.iter_mut().zip(residuals.clone()) {
                    let half = g * d;
                    *a = half + half;
                }
                residuals.map(|d| d * d).sum()
            }
            Loss::Huber { delta } => {
                assert!(delta > 0.0, "delta must be positive");
                for (a, d) in adj.iter_mut().zip(residuals.clone()) {
                    *a = g * d.clamp(-delta, delta);
                }
                residuals
                    .map(|x| {
                        if x.abs() <= delta {
                            0.5 * x * x
                        } else {
                            delta * (x.abs() - 0.5 * delta)
                        }
                    })
                    .sum()
            }
        };
        if pred.is_empty() {
            0.0
        } else {
            total / pred.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfcp_linalg::Matrix;

    #[test]
    fn mse_and_huber_agree_on_small_residuals() {
        // Inside the Huber threshold, huber = d²/2, so 2·huber == mse.
        let pred_m = Matrix::from_rows(&[&[0.1, -0.2, 0.3]]);
        let target_m = Matrix::zeros(1, 3);
        let value = |loss: Loss| {
            let mut g = Graph::new();
            let p = g.input(pred_m.clone());
            let t = g.input(target_m.clone());
            let l = loss.build(&mut g, p, t);
            g.value(l)[(0, 0)]
        };
        let mse = value(Loss::Mse);
        let huber = value(Loss::Huber { delta: 1.0 });
        assert!((mse - 2.0 * huber).abs() < 1e-12);
    }

    #[test]
    fn huber_downweights_outliers() {
        // One large residual: Huber grows linearly, MSE quadratically.
        let small = Matrix::from_rows(&[&[10.0]]);
        let big = Matrix::from_rows(&[&[20.0]]);
        let target = Matrix::zeros(1, 1);
        let value = |loss: Loss, pred: &Matrix| {
            let mut g = Graph::new();
            let p = g.input(pred.clone());
            let t = g.input(target.clone());
            let l = loss.build(&mut g, p, t);
            g.value(l)[(0, 0)]
        };
        let mse_ratio = value(Loss::Mse, &big) / value(Loss::Mse, &small);
        let huber_ratio =
            value(Loss::Huber { delta: 1.0 }, &big) / value(Loss::Huber { delta: 1.0 }, &small);
        assert!((mse_ratio - 4.0).abs() < 1e-12);
        assert!(
            huber_ratio < 2.2,
            "Huber must grow ~linearly, got {huber_ratio}"
        );
    }

    #[test]
    fn gradients_flow_for_both() {
        for loss in [Loss::Mse, Loss::Huber { delta: 0.5 }] {
            let mut g = Graph::new();
            let p = g.input(Matrix::from_rows(&[&[1.0, -2.0]]));
            let t = g.input(Matrix::zeros(1, 2));
            let l = loss.build(&mut g, p, t);
            g.backward(l);
            let grad = g.grad(p).unwrap();
            assert!(grad.max_abs() > 0.0, "{loss:?}");
        }
    }
}
