//! The multi-layer perceptron.

use crate::init::{weight_matrix, Init};
use crate::{Activation, Adam, Loss};
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

impl Linear {
    fn width(&self) -> usize {
        self.weight.cols()
    }

    /// `out = act(x·W + b)` over the rows of `x`, keeping `x·W + b` in
    /// `pre` when given: bitwise the recorded graph's (see [`product`]).
    fn forward(&self, x: &[f64], out: &mut [f64], mut pre: Option<&mut [f64]>) {
        let (k, n) = self.weight.shape();
        product(x, (k, 1), self.weight.as_slice(), out, n);
        let b = self.bias.as_slice();
        for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
            for (o, &bv) in out_row.iter_mut().zip(b) {
                *o += bv;
            }
            if let Some(pre) = pre.as_deref_mut() {
                pre[r * n..(r + 1) * n].copy_from_slice(out_row);
            }
            for o in out_row.iter_mut() {
                *o = self.activation.eval(*o);
            }
        }
    }

    /// Backpropagates through the layer given its input `x`, its kept
    /// pre-activations and outputs, and the output adjoint in `adj`
    /// (turned into `∂L/∂(xW + b)` in place). Writes the weight and bias
    /// gradients and, when `dx` is given, `∂L/∂x`. Each entry repeats the
    /// graph's arithmetic: the bias gradient is a column sum from `0.0`,
    /// and `xᵀ·adj` and `adj·Wᵀ` accumulate like [`Matrix::matmul`].
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        x: &[f64],
        pre: &[f64],
        out: &[f64],
        adj: &mut [f64],
        grad_w: &mut Matrix,
        grad_b: &mut Matrix,
        dx: Option<&mut [f64]>,
    ) {
        let (k, n) = self.weight.shape();
        self.activation.backprop(pre, out, adj);
        let gb = grad_b.as_mut_slice();
        gb.fill(0.0);
        for dz_row in adj.chunks_exact(n) {
            for (s, &g) in gb.iter_mut().zip(dz_row) {
                *s += g;
            }
        }
        product(x, (1, k), adj, grad_w.as_mut_slice(), n);
        let Some(dx) = dx else { return };
        let w = self.weight.as_slice();
        for (dz_row, dx_row) in adj.chunks_exact(n).zip(dx.chunks_exact_mut(k)) {
            for (d, w_row) in dx_row.iter_mut().zip(w.chunks_exact(n)) {
                let mut acc = 0.0;
                for (&a, &wv) in dz_row.iter().zip(w_row) {
                    if a != 0.0 {
                        acc += a * wv;
                    }
                }
                *d = acc;
            }
        }
    }
}

/// `out = A·B` for a row-major `B` with `out`'s width, where `A`'s entry
/// `(r, k)` is `a[r·stride.0 + k·stride.1]`, so `A` may be a transposed
/// view. Each entry starts at `0.0` and adds its terms in ascending `k`,
/// skipping zero `A` entries, which is how [`Matrix::matmul`] sums a
/// product entry; the result is therefore the graph's, bit for bit, and
/// each output row is independent of the others. Independent sums are
/// kept in registers: sixteen columns of one row where the output is wide,
/// one column of eight rows where it is narrow.
fn product(a: &[f64], stride: (usize, usize), b: &[f64], out: &mut [f64], n: usize) {
    if n == 0 || out.is_empty() {
        return;
    }
    let (rows, depth) = (out.len() / n, b.len() / n);
    let wide = n - n % 16;
    let tall = rows - rows % 8;
    let mut tile = Tile {
        a,
        stride,
        b,
        depth,
        n,
        out,
    };
    for r in 0..rows {
        for j in (0..wide).step_by(16) {
            tile.sum::<1, 16>(r, j);
        }
    }
    for j in wide..n {
        for r in (0..tall).step_by(8) {
            tile.sum::<8, 1>(r, j);
        }
        for r in tall..rows {
            tile.sum::<1, 1>(r, j);
        }
    }
}

/// The operands of one [`product`].
struct Tile<'a> {
    a: &'a [f64],
    stride: (usize, usize),
    b: &'a [f64],
    depth: usize,
    n: usize,
    out: &'a mut [f64],
}

impl Tile<'_> {
    /// The `R × C` block of the product at row `r0`, column `j0`.
    #[inline(always)]
    fn sum<const R: usize, const C: usize>(&mut self, r0: usize, j0: usize) {
        let mut acc = [[0.0; C]; R];
        for k in 0..self.depth {
            let b_row = &self.b[k * self.n + j0..][..C];
            for (i, acc_row) in acc.iter_mut().enumerate() {
                let av = self.a[(r0 + i) * self.stride.0 + k * self.stride.1];
                if av == 0.0 {
                    continue;
                }
                for (s, &bv) in acc_row.iter_mut().zip(b_row) {
                    *s += av * bv;
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate() {
            self.out[(r0 + i) * self.n + j0..][..C].copy_from_slice(acc_row);
        }
    }
}

/// Caller-owned buffers for training an [`Mlp`] without a tape: the batch,
/// each layer's pre-activations, outputs and adjoints, and the parameter
/// gradients in [`Mlp::params`] order.
///
/// Buffers are sized on first use and reused after, so a step over no more
/// rows than an earlier one on the same network shape allocates nothing.
/// One workspace serves any networks of one shape in turn.
#[derive(Debug, Clone, Default)]
pub struct MlpWorkspace {
    rows: usize,
    input: Vec<f64>,
    pre: Vec<Vec<f64>>,
    out: Vec<Vec<f64>>,
    adj: Vec<Vec<f64>>,
    grads: Vec<Matrix>,
}

impl MlpWorkspace {
    /// An empty workspace; the first step sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the batch to `rows` rows of `cols` features and returns it,
    /// row-major, for the caller to fill before [`Mlp::forward_train`].
    pub fn batch_mut(&mut self, rows: usize, cols: usize) -> &mut [f64] {
        self.rows = rows;
        self.input.resize(rows * cols, 0.0);
        &mut self.input
    }

    /// The last backward pass's parameter gradients, in [`Mlp::params`]
    /// order.
    pub fn grads(&self) -> &[Matrix] {
        &self.grads
    }

    /// Shapes the per-layer buffers for `mlp` at the current batch size.
    fn fit(&mut self, mlp: &Mlp) {
        let same_shape = self.grads.len() == mlp.num_param_tensors()
            && mlp
                .layers
                .iter()
                .zip(self.grads.chunks_exact(2))
                .all(|(l, g)| g[0].shape() == l.weight.shape());
        if !same_shape {
            self.grads = mlp
                .params()
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            let layers = mlp.layers.len();
            self.pre = vec![Vec::new(); layers];
            self.out = vec![Vec::new(); layers];
            self.adj = vec![Vec::new(); layers];
        }
        for (l, layer) in mlp.layers.iter().enumerate() {
            let len = self.rows * layer.width();
            self.pre[l].resize(len, 0.0);
            self.out[l].resize(len, 0.0);
            self.adj[l].resize(len, 0.0);
        }
    }
}

/// A multi-layer perceptron over row-major batches.
///
/// Parameters live in the `Mlp` itself. Training runs without a tape:
/// [`Mlp::forward_train`], then [`Mlp::backward_loss`] or
/// [`Mlp::backward_seed`], then [`Mlp::step_adam`], all over one
/// [`MlpWorkspace`]. The reference those steps are pinned to bit for bit
/// records the same pass on a graph: each [`Mlp::forward`] call records
/// the parameters as fresh graph inputs and returns an [`MlpPass`]
/// remembering their node ids, so [`Mlp::grads`] can pull gradients out
/// after any backward sweep.
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
        assert_eq!(x.cols(), self.input_dim(), "input width");
        let rows = x.rows();
        let (last, hidden) = self.layers.split_last().expect("at least one layer");
        let (mut h, mut next) = (Vec::new(), Vec::new());
        for (l, layer) in hidden.iter().enumerate() {
            next.resize(rows * layer.width(), 0.0);
            layer.forward(if l == 0 { x.as_slice() } else { &h }, &mut next, None);
            std::mem::swap(&mut h, &mut next);
        }
        let mut out = Matrix::zeros(rows, last.width());
        let input = if hidden.is_empty() { x.as_slice() } else { &h };
        last.forward(input, out.as_mut_slice(), None);
        out
    }

    /// Runs the network on the batch in `ws` (see
    /// [`MlpWorkspace::batch_mut`]), keeping what a backward pass needs,
    /// and returns the outputs row-major. Bitwise [`Mlp::predict`].
    ///
    /// # Panics
    /// Panics if the batch width is not [`Mlp::input_dim`].
    pub fn forward_train<'w>(&self, ws: &'w mut MlpWorkspace) -> &'w [f64] {
        assert_eq!(
            ws.input.len(),
            ws.rows * self.input_dim(),
            "batch width must match the input dimension"
        );
        ws.fit(self);
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.out.split_at_mut(l);
            let x = done.last().map_or(ws.input.as_slice(), Vec::as_slice);
            layer.forward(x, &mut rest[0], Some(ws.pre[l].as_mut_slice()));
        }
        &ws.out[self.layers.len() - 1]
    }

    /// Backward pass from `loss(output, target)` after
    /// [`Mlp::forward_train`]: leaves the parameter gradients in
    /// [`MlpWorkspace::grads`] and returns the loss. Gradients and loss are
    /// bitwise those of [`Loss::build`] and [`Graph::backward`] on
    /// [`Mlp::forward`]'s graph.
    ///
    /// # Panics
    /// Panics if `target` does not have the output's length.
    pub fn backward_loss(&self, ws: &mut MlpWorkspace, loss: Loss, target: &[f64]) -> f64 {
        let last = self.layers.len() - 1;
        let value = loss.adjoint(&ws.out[last], target, &mut ws.adj[last]);
        self.backprop(ws);
        value
    }

    /// Backward pass from an upstream adjoint `seed` of the outputs
    /// (row-major) after [`Mlp::forward_train`]: bitwise
    /// [`Graph::backward_with_seed`] on [`Mlp::forward`]'s output node.
    ///
    /// # Panics
    /// Panics if `seed` does not have the output's length.
    pub fn backward_seed(&self, ws: &mut MlpWorkspace, seed: &[f64]) {
        let last = self.layers.len() - 1;
        ws.adj[last].copy_from_slice(seed);
        self.backprop(ws);
    }

    /// Runs the layers' backward passes from the output adjoint, last layer
    /// first. The input batch's own adjoint is never needed, so it is never
    /// computed.
    fn backprop(&self, ws: &mut MlpWorkspace) {
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let x = if l == 0 { &ws.input } else { &ws.out[l - 1] };
            let (below, adj) = ws.adj.split_at_mut(l);
            let (grad_w, grad_b) = ws.grads[2 * l..].split_at_mut(1);
            layer.backward(
                x,
                &ws.pre[l],
                &ws.out[l],
                &mut adj[0],
                &mut grad_w[0],
                &mut grad_b[0],
                below.last_mut().map(Vec::as_mut_slice),
            );
        }
    }

    /// One [`Adam`] step on the parameters from `grads` (in [`Mlp::params`]
    /// order), in place: bitwise `opt.step(&mut self.params_mut(), grads)`
    /// without collecting the parameter borrows.
    pub fn step_adam(&mut self, opt: &mut Adam, grads: &[Matrix]) {
        assert_eq!(
            grads.len(),
            self.num_param_tensors(),
            "param/grad count mismatch"
        );
        let params = self
            .layers
            .iter_mut()
            .flat_map(|l| [&mut l.weight, &mut l.bias]);
        opt.step_each(params, grads);
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
