//! Activation functions applied between layers.

use mfcp_autodiff::{Graph, NodeId};

/// Elementwise activation applied by [`crate::Mlp`] layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// No activation.
    Identity,
    /// `max(0, x)`.
    Relu,
    /// `x` for `x > 0`, `alpha * x` otherwise.
    LeakyRelu(f64),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid — the reliability head, whose outputs are
    /// probabilities in `(0, 1)`.
    Sigmoid,
    /// `log(1 + exp(beta x)) / beta` — the execution-time head, whose
    /// outputs must stay strictly positive for the matching objective.
    SoftplusScaled(f64),
}

impl Activation {
    /// Records the activation on the graph.
    pub fn apply(self, g: &mut Graph, x: NodeId) -> NodeId {
        match self {
            Activation::Identity => x,
            Activation::Relu => g.relu(x),
            Activation::LeakyRelu(alpha) => g.leaky_relu(x, alpha),
            Activation::Tanh => g.tanh(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::SoftplusScaled(beta) => g.softplus_scaled(x, beta),
        }
    }

    /// Evaluates the activation on a plain scalar (no graph), used by
    /// inference-only paths.
    pub fn eval(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(alpha) => {
                if x > 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::SoftplusScaled(beta) => {
                let bx = beta * x;
                if bx > 30.0 {
                    x
                } else {
                    bx.exp().ln_1p() / beta
                }
            }
        }
    }

    /// Turns the adjoint of the activation's output into the adjoint of its
    /// input, in place, given the input `pre` and output `out`: the graph's
    /// backward rule for [`Activation::apply`], per element and with the
    /// same arithmetic.
    pub(crate) fn backprop(self, pre: &[f64], out: &[f64], adj: &mut [f64]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for (g, &x) in adj.iter_mut().zip(pre) {
                    *g = if x > 0.0 { *g } else { 0.0 };
                }
            }
            Activation::LeakyRelu(alpha) => {
                for (g, &x) in adj.iter_mut().zip(pre) {
                    *g = if x > 0.0 { *g } else { alpha * *g };
                }
            }
            Activation::Tanh => {
                for (g, &t) in adj.iter_mut().zip(out) {
                    *g *= 1.0 - t * t;
                }
            }
            Activation::Sigmoid => {
                for (g, &s) in adj.iter_mut().zip(out) {
                    *g = *g * s * (1.0 - s);
                }
            }
            Activation::SoftplusScaled(beta) => {
                for (g, &x) in adj.iter_mut().zip(pre) {
                    *g /= 1.0 + (-beta * x).exp();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfcp_linalg::Matrix;

    #[test]
    fn graph_and_eval_agree() {
        let xs = [-2.0, -0.5, 0.0, 0.7, 3.0];
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::LeakyRelu(0.01),
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::SoftplusScaled(2.0),
        ] {
            let mut g = Graph::new();
            let x = g.input(Matrix::row_vector(&xs));
            let y = act.apply(&mut g, x);
            for (i, &xv) in xs.iter().enumerate() {
                let expected = act.eval(xv);
                assert!(
                    (g.value(y)[(0, i)] - expected).abs() < 1e-12,
                    "{act:?} at {xv}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_in_unit_interval() {
        for x in [-50.0, -1.0, 0.0, 1.0, 50.0] {
            let v = Activation::Sigmoid.eval(x);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn softplus_positive_and_asymptotic() {
        let sp = Activation::SoftplusScaled(1.0);
        assert!(sp.eval(-10.0) > 0.0);
        // For large x, softplus(x) ≈ x.
        assert!((sp.eval(50.0) - 50.0).abs() < 1e-9);
    }
}
