//! The multi-layer perceptron.

use crate::init::{weight_matrix, Init};
use crate::Activation;
use mfcp_autodiff::{Graph, NodeId};
use mfcp_linalg::Matrix;
use rand::Rng;

/// One fully-connected layer: `y = act(x W + b)`.
#[derive(Debug, Clone)]
struct Linear {
    weight: Matrix, // in x out
    bias: Matrix,   // 1 x out
    activation: Activation,
}

/// A multi-layer perceptron over row-major batches.
///
/// Parameters live in the `Mlp` itself; each [`Mlp::forward`] call records
/// them as fresh graph inputs and returns an [`MlpPass`] remembering their
/// node ids so gradients can be pulled out after any backward sweep.
///
/// ```
/// use mfcp_autodiff::Graph;
/// use mfcp_linalg::Matrix;
/// use mfcp_nn::{Activation, Mlp};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(&[3, 8, 1], Activation::Relu, Activation::Identity, &mut rng);
/// let mut g = Graph::new();
/// let x = g.input(Matrix::from_rows(&[&[0.1, 0.2, 0.3]]));
/// let pass = mlp.forward(&mut g, x);
/// assert_eq!(g.value(pass.output).shape(), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// The record of one forward pass: the output node plus the graph nodes of
/// every parameter, in [`Mlp::params`] order.
#[derive(Debug, Clone)]
pub struct MlpPass {
    /// Network output node.
    pub output: NodeId,
    /// Parameter nodes in `params()` order (weight, bias per layer).
    pub param_nodes: Vec<NodeId>,
    /// The input node the pass was built from.
    pub input: NodeId,
}

impl Mlp {
    /// Builds an MLP with layer widths `dims` (at least two entries:
    /// input and output), `hidden` activation on every layer but the last
    /// and `output` activation on the last.
    ///
    /// Hidden weights use He initialization (paired with ReLU-family
    /// activations); the output layer uses Xavier.
    ///
    /// # Panics
    /// Panics if `dims.len() < 2`.
    pub fn new(dims: &[usize], hidden: Activation, output: Activation, rng: &mut impl Rng) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let last = i == dims.len() - 2;
            let init = if last {
                Init::XavierUniform
            } else {
                Init::HeUniform
            };
            layers.push(Linear {
                weight: weight_matrix(init, dims[i], dims[i + 1], rng),
                bias: Matrix::zeros(1, dims[i + 1]),
                activation: if last { output } else { hidden },
            });
        }
        Mlp { layers }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].weight.rows()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().unwrap().weight.cols()
    }

    /// Number of parameter tensors (2 per layer).
    pub fn num_param_tensors(&self) -> usize {
        self.layers.len() * 2
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weight.len() + l.bias.len())
            .sum()
    }

    /// Immutable views of all parameter tensors (weight, bias per layer).
    pub fn params(&self) -> Vec<&Matrix> {
        self.layers
            .iter()
            .flat_map(|l| [&l.weight, &l.bias])
            .collect()
    }

    /// Mutable views of all parameter tensors, in [`Mlp::params`] order.
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.layers
            .iter_mut()
            .flat_map(|l| [&mut l.weight, &mut l.bias])
            .collect()
    }

    /// Records a forward pass for the batch at node `x` (`batch x in_dim`).
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> MlpPass {
        let mut param_nodes = Vec::with_capacity(self.num_param_tensors());
        let mut h = x;
        for layer in &self.layers {
            let w = g.input(layer.weight.clone());
            let b = g.input(layer.bias.clone());
            param_nodes.push(w);
            param_nodes.push(b);
            let z = g.matmul(h, w);
            let zb = g.add_row_broadcast(z, b);
            h = layer.activation.apply(g, zb);
        }
        MlpPass {
            output: h,
            param_nodes,
            input: x,
        }
    }

    /// Runs the network on a plain matrix (inference only): bitwise the
    /// output of [`Mlp::forward`], without recording a graph.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        // The recorded forward pass's arithmetic (product, row-broadcast
        // bias, elementwise activation) without a tape or weight copies.
        let mut h = x.matmul(&self.layers[0].weight).expect("input width");
        for (k, layer) in self.layers.iter().enumerate() {
            if k > 0 {
                h = h.matmul(&layer.weight).expect("layer width");
            }
            let bias = layer.bias.row(0);
            for r in 0..h.rows() {
                for (v, &b) in h.row_mut(r).iter_mut().zip(bias) {
                    *v = layer.activation.eval(*v + b);
                }
            }
        }
        h
    }

    /// Extracts parameter gradients recorded on `g` for `pass`, in
    /// [`Mlp::params`] order. Parameters the sweep never reached get zero
    /// gradients of the right shape.
    pub fn grads(&self, g: &Graph, pass: &MlpPass) -> Vec<Matrix> {
        let params = self.params();
        pass.param_nodes
            .iter()
            .zip(params)
            .map(|(&node, p)| {
                g.grad(node)
                    .cloned()
                    .unwrap_or_else(|| Matrix::zeros(p.rows(), p.cols()))
            })
            .collect()
    }

    /// Layer specifications `(weight, bias, activation)` in forward order
    /// (used by the [`crate::persist`] serializer).
    pub fn layer_specs(&self) -> Vec<(&Matrix, &Matrix, Activation)> {
        self.layers
            .iter()
            .map(|l| (&l.weight, &l.bias, l.activation))
            .collect()
    }

    /// Reassembles an MLP from raw layer tensors (the inverse of
    /// [`Mlp::layer_specs`]).
    ///
    /// # Panics
    /// Panics if the list is empty or consecutive layer shapes are
    /// incompatible.
    pub fn from_layer_specs(specs: Vec<(Matrix, Matrix, Activation)>) -> Self {
        assert!(!specs.is_empty(), "need at least one layer");
        for window in specs.windows(2) {
            assert_eq!(
                window[0].0.cols(),
                window[1].0.rows(),
                "incompatible consecutive layer shapes"
            );
        }
        let layers = specs
            .into_iter()
            .map(|(weight, bias, activation)| {
                assert_eq!(bias.rows(), 1, "bias must be a row vector");
                assert_eq!(bias.cols(), weight.cols(), "bias width mismatch");
                Linear {
                    weight,
                    bias,
                    activation,
                }
            })
            .collect();
        Mlp { layers }
    }

    /// Applies `update[i]` additively to parameter tensor `i` (used by
    /// optimizers; most callers want [`crate::Optimizer::step`] instead).
    pub fn apply_update(&mut self, update: &[Matrix]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), update.len(), "update count mismatch");
        for (p, u) in params.iter_mut().zip(update) {
            **p += u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfcp_autodiff::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Identity, &mut rng)
    }

    #[test]
    fn shapes() {
        let mlp = tiny_mlp(0);
        assert_eq!(mlp.input_dim(), 2);
        assert_eq!(mlp.output_dim(), 1);
        assert_eq!(mlp.num_param_tensors(), 4);
        assert_eq!(mlp.num_params(), 2 * 4 + 4 + 4 + 1);
        let y = mlp.predict(&Matrix::from_rows(&[&[0.1, 0.2], &[0.3, 0.4]]));
        assert_eq!(y.shape(), (2, 1));
    }

    #[test]
    fn predict_is_bitwise_the_recorded_forward_pass() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Matrix::from_fn(5, 3, |i, j| (i as f64 - 2.0) * 0.7 + j as f64 * 0.3);
        for (hidden, output) in [
            (Activation::Tanh, Activation::Identity),
            (Activation::Relu, Activation::Sigmoid),
            (Activation::LeakyRelu(0.1), Activation::SoftplusScaled(2.0)),
        ] {
            let mlp = Mlp::new(&[3, 6, 4, 2], hidden, output, &mut rng);
            let mut g = Graph::new();
            let xi = g.input(x.clone());
            let pass = mlp.forward(&mut g, xi);
            let recorded = g.value(pass.output);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&mlp.predict(&x)),
                bits(recorded),
                "{hidden:?}/{output:?}"
            );
        }
    }

    #[test]
    fn predict_rows_are_independent_of_the_batch() {
        // A 1-row prediction equals the same row of a batch bit for bit,
        // below and past the row count where `matmul` splits the output
        // into panels: the serve daemon predicts each task once, alone,
        // and must match the whole-set prediction.
        let mut rng = StdRng::seed_from_u64(9);
        let activations = [
            Activation::Identity,
            Activation::Relu,
            Activation::LeakyRelu(0.1),
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::SoftplusScaled(2.0),
        ];
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for rows in [7, 64, 130] {
            // Every fifth input is an exact zero, the product's skip case.
            let x = Matrix::from_fn(rows, 5, |i, j| {
                if (i + j) % 5 == 0 {
                    0.0
                } else {
                    ((i * 7 + j * 3) % 11) as f64 * 0.37 - 1.8
                }
            });
            for &hidden in &activations {
                for &output in &activations {
                    let mlp = Mlp::new(&[5, 9, 6, 2], hidden, output, &mut rng);
                    let batch = mlp.predict(&x);
                    for r in 0..rows {
                        let one = mlp.predict(&Matrix::from_rows(&[x.row(r)]));
                        assert_eq!(
                            bits(&one),
                            bits(&Matrix::from_rows(&[batch.row(r)])),
                            "{hidden:?}/{output:?}, row {r} of {rows}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forward_deterministic() {
        let mlp = tiny_mlp(1);
        let x = Matrix::from_rows(&[&[0.5, -0.5]]);
        assert_eq!(mlp.predict(&x), mlp.predict(&x));
    }

    #[test]
    fn param_gradients_match_finite_differences() {
        let mlp = tiny_mlp(2);
        let x = Matrix::from_rows(&[&[0.3, 0.8], &[-0.2, 0.4], &[0.9, -0.6]]);
        let target = Matrix::from_rows(&[&[0.5], &[-0.1], &[0.3]]);

        let mut g = Graph::new();
        let xi = g.input(x.clone());
        let pass = mlp.forward(&mut g, xi);
        let ti = g.input(target.clone());
        let loss = g.mse(pass.output, ti);
        g.backward(loss);
        let grads = mlp.grads(&g, &pass);

        // Check every parameter tensor against central differences.
        for (pi, analytic) in grads.iter().enumerate() {
            let numeric = {
                let base = mlp.clone();
                gradcheck::finite_diff(
                    mlp.params()[pi],
                    |perturbed| {
                        let mut m = base.clone();
                        *m.params_mut()[pi] = perturbed.clone();
                        let pred = m.predict(&x);
                        let d = &pred - &target;
                        d.as_slice().iter().map(|v| v * v).sum::<f64>() / pred.len() as f64
                    },
                    1e-6,
                )
            };
            let err = gradcheck::relative_error(analytic, &numeric);
            assert!(err < 1e-6, "param {pi}: relative error {err}");
        }
    }

    #[test]
    fn input_gradient_flows() {
        let mlp = tiny_mlp(3);
        let x = Matrix::from_rows(&[&[0.3, 0.8]]);
        let mut g = Graph::new();
        let xi = g.input(x);
        let pass = mlp.forward(&mut g, xi);
        let s = g.sum(pass.output);
        g.backward(s);
        assert!(g.grad(pass.input).is_some());
    }

    #[test]
    fn external_seed_produces_same_grads_as_equivalent_loss() {
        // Seeding the output with dL/dy must equal backprop through an
        // explicit loss with that gradient: here L = <c, y> so dL/dy = c.
        let mlp = tiny_mlp(4);
        let x = Matrix::from_rows(&[&[0.2, -0.4], &[0.6, 0.1]]);
        let c = Matrix::from_rows(&[&[2.0], &[-3.0]]);

        let mut g1 = Graph::new();
        let xi1 = g1.input(x.clone());
        let pass1 = mlp.forward(&mut g1, xi1);
        g1.backward_with_seed(pass1.output, c.clone());
        let seeded = mlp.grads(&g1, &pass1);

        let mut g2 = Graph::new();
        let xi2 = g2.input(x.clone());
        let pass2 = mlp.forward(&mut g2, xi2);
        let ci = g2.input(c);
        let weighted = g2.mul(pass2.output, ci);
        let loss = g2.sum(weighted);
        g2.backward(loss);
        let explicit = mlp.grads(&g2, &pass2);

        for (a, b) in seeded.iter().zip(&explicit) {
            assert!(a.approx_eq(b, 1e-12));
        }
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        // Fit y = x0 - 2 x1 with plain gradient descent.
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(
            &[2, 16, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        use rand::Rng;
        let xs = Matrix::from_fn(64, 2, |_, _| rng.gen_range(-1.0..1.0));
        let ys = Matrix::from_fn(64, 1, |r, _| xs[(r, 0)] - 2.0 * xs[(r, 1)]);

        let loss_at = |m: &Mlp| {
            let pred = m.predict(&xs);
            let d = &pred - &ys;
            d.frobenius_norm().powi(2) / 64.0
        };
        let initial = loss_at(&mlp);
        for _ in 0..200 {
            let mut g = Graph::new();
            let xi = g.input(xs.clone());
            let pass = mlp.forward(&mut g, xi);
            let ti = g.input(ys.clone());
            let loss = g.mse(pass.output, ti);
            g.backward(loss);
            let grads = mlp.grads(&g, &pass);
            let update: Vec<Matrix> = grads.iter().map(|gm| gm.scale(-0.05)).collect();
            mlp.apply_update(&update);
        }
        let fin = loss_at(&mlp);
        assert!(
            fin < initial * 0.2,
            "training failed to reduce loss: {initial} -> {fin}"
        );
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_dim() {
        let mut rng = StdRng::seed_from_u64(0);
        Mlp::new(&[3], Activation::Relu, Activation::Identity, &mut rng);
    }
}
