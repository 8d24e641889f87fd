//! The tape-free training step against the autodiff graph, bit for bit.
//!
//! Each case trains two copies of one network side by side for several
//! consecutive steps. The reference records [`Mlp::forward`] on a
//! [`Graph`], runs [`Loss::build`] plus [`Graph::backward`] (or
//! [`Graph::backward_with_seed`]) and steps a copy of Adam written with
//! whole-matrix operations. The fused side runs [`Mlp::forward_train`],
//! [`Mlp::backward_loss`] / [`Mlp::backward_seed`] and [`Mlp::step_adam`]
//! over one reused [`MlpWorkspace`]. After every step the parameters, the
//! Adam moments and the loss must agree in every bit.
//!
//! The cases cover every [`Activation`] arm as the hidden and as the
//! output activation, MSE, Huber and seeded backward passes, depths one to
//! three, and batches of 1, 7 and 32 rows plus a ragged 13-row tail, in an
//! order that shrinks and regrows the workspace. Inputs hold exact zeros
//! so the products' zero-skip runs, and targets sit far enough from the
//! outputs that Huber clips.

use mfcp_autodiff::Graph;
use mfcp_linalg::Matrix;
use mfcp_nn::{Activation, Adam, DualHead, Loss, Mlp, MlpWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ACTIVATIONS: [Activation; 6] = [
    Activation::Identity,
    Activation::Relu,
    Activation::LeakyRelu(0.1),
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::SoftplusScaled(2.0),
];

/// Rows per consecutive step: every batch size, a ragged tail, and a
/// shrink-then-regrow of the workspace.
const SCHEDULE: [usize; 6] = [32, 7, 1, 13, 32, 7];

#[derive(Debug, Clone, Copy)]
enum Drive {
    Loss(Loss),
    Seed,
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Deterministic values in about `[-1.9, 1.9]`, every fifth an exact zero.
fn data(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        if (i + 2 * j + salt).is_multiple_of(5) {
            0.0
        } else {
            ((i * 7 + j * 3 + salt * 5) % 13) as f64 * 0.31 - 1.9
        }
    })
}

/// Adam as whole-matrix operations: the reference the in-place update is
/// pinned to.
struct ReferenceAdam {
    lr: f64,
    weight_decay: f64,
    t: i32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl ReferenceAdam {
    const BETA1: f64 = 0.9;
    const BETA2: f64 = 0.999;
    const EPS: f64 = 1e-8;

    fn new(lr: f64, weight_decay: f64) -> Self {
        ReferenceAdam {
            lr,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn step(&mut self, params: &mut [&mut Matrix], grads: &[Matrix]) {
        if self.m.is_empty() {
            self.m = grads
                .iter()
                .map(|g| Matrix::zeros(g.rows(), g.cols()))
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        if self.weight_decay > 0.0 {
            let shrink = 1.0 - self.lr * self.weight_decay;
            for p in params.iter_mut() {
                **p = p.scale(shrink);
            }
        }
        let bc1 = 1.0 - Self::BETA1.powi(self.t);
        let bc2 = 1.0 - Self::BETA2.powi(self.t);
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            *m = m.scale(Self::BETA1).axpy(1.0 - Self::BETA1, g).unwrap();
            let g2 = g.hadamard(g).unwrap();
            *v = v.scale(Self::BETA2).axpy(1.0 - Self::BETA2, &g2).unwrap();
            let update = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                let mhat = m[(r, c)] / bc1;
                let vhat = v[(r, c)] / bc2;
                -self.lr * mhat / (vhat.sqrt() + Self::EPS)
            });
            **p += &update;
        }
    }
}

/// One recorded step; returns the loss (NaN for a seeded step).
fn tape_step(
    mlp: &mut Mlp,
    opt: &mut ReferenceAdam,
    x: &Matrix,
    target: &Matrix,
    drive: Drive,
) -> f64 {
    let mut g = Graph::new();
    let xi = g.input(x.clone());
    let pass = mlp.forward(&mut g, xi);
    let value = match drive {
        Drive::Loss(loss) => {
            let ti = g.input(target.clone());
            let l = loss.build(&mut g, pass.output, ti);
            g.backward(l);
            g.value(l)[(0, 0)]
        }
        Drive::Seed => {
            g.backward_with_seed(pass.output, target.clone());
            f64::NAN
        }
    };
    let grads = mlp.grads(&g, &pass);
    opt.step(&mut mlp.params_mut(), &grads);
    value
}

/// One fused step; returns the loss (NaN for a seeded step).
fn fused_step(
    mlp: &mut Mlp,
    opt: &mut Adam,
    ws: &mut MlpWorkspace,
    x: &Matrix,
    target: &Matrix,
    drive: Drive,
) -> f64 {
    ws.batch_mut(x.rows(), x.cols())
        .copy_from_slice(x.as_slice());
    mlp.forward_train(ws);
    let value = match drive {
        Drive::Loss(loss) => mlp.backward_loss(ws, loss, target.as_slice()),
        Drive::Seed => {
            mlp.backward_seed(ws, target.as_slice());
            f64::NAN
        }
    };
    mlp.step_adam(opt, ws.grads());
    value
}

fn assert_same_step(fused: (&Mlp, &Adam, f64), tape: (&Mlp, &ReferenceAdam, f64), case: &str) {
    let (mlp, opt, loss) = fused;
    let (ref_mlp, ref_opt, ref_loss) = tape;
    assert_eq!(loss.to_bits(), ref_loss.to_bits(), "loss, {case}");
    for (k, (p, q)) in mlp.params().iter().zip(ref_mlp.params()).enumerate() {
        assert_eq!(bits(p), bits(q), "parameter tensor {k}, {case}");
    }
    let (m, v) = opt.moments();
    for (k, (a, b)) in m.iter().zip(&ref_opt.m).enumerate() {
        assert_eq!(bits(a), bits(b), "first moment {k}, {case}");
    }
    for (k, (a, b)) in v.iter().zip(&ref_opt.v).enumerate() {
        assert_eq!(bits(a), bits(b), "second moment {k}, {case}");
    }
}

/// Trains a fused and a recorded copy of one network through
/// [`SCHEDULE`] and compares them after every step.
fn check(dims: &[usize], hidden: Activation, output: Activation, drive: Drive, decay: f64) {
    let mut rng = StdRng::seed_from_u64(dims.len() as u64 * 31 + dims[1] as u64);
    let mut fused = Mlp::new(dims, hidden, output, &mut rng);
    let mut tape = fused.clone();
    let (lr, input, width) = (0.05, dims[0], *dims.last().unwrap());
    let mut opt = Adam::with_weight_decay(lr, decay);
    let mut ref_opt = ReferenceAdam::new(lr, decay);
    let mut ws = MlpWorkspace::new();
    for (step, &rows) in SCHEDULE.iter().enumerate() {
        let x = data(rows, input, step);
        let target = data(rows, width, step + 3).scale(1.5);
        let loss = fused_step(&mut fused, &mut opt, &mut ws, &x, &target, drive);
        let ref_loss = tape_step(&mut tape, &mut ref_opt, &x, &target, drive);
        let case = format!("{dims:?} {hidden:?}/{output:?} {drive:?} decay {decay}, step {step}");
        assert_same_step((&fused, &opt, loss), (&tape, &ref_opt, ref_loss), &case);
    }
}

const DRIVES: [Drive; 3] = [
    Drive::Loss(Loss::Mse),
    Drive::Loss(Loss::Huber { delta: 0.5 }),
    Drive::Seed,
];

#[test]
fn one_layer_matches_the_tape_for_every_output_activation() {
    for output in ACTIVATIONS {
        for drive in DRIVES {
            check(&[5, 2], Activation::Identity, output, drive, 0.0);
        }
    }
}

#[test]
fn two_layers_match_the_tape_for_every_activation_pair() {
    for hidden in ACTIVATIONS {
        for output in ACTIVATIONS {
            for drive in DRIVES {
                check(&[5, 8, 2], hidden, output, drive, 0.0);
            }
        }
    }
}

#[test]
fn three_layers_match_the_tape_for_every_activation_pair() {
    for hidden in ACTIVATIONS {
        for output in ACTIVATIONS {
            for drive in DRIVES {
                check(&[5, 8, 6, 3], hidden, output, drive, 0.0);
            }
        }
    }
}

#[test]
fn predictor_shapes_match_the_tape_with_and_without_weight_decay() {
    // The cluster predictors: ReLU hidden layers with a log-time
    // (identity) or reliability (sigmoid) head.
    for dims in [&[12, 16, 1][..], &[12, 32, 32, 1]] {
        for output in [Activation::Identity, Activation::Sigmoid] {
            for drive in DRIVES {
                for decay in [0.0, 0.01] {
                    check(dims, Activation::Relu, output, drive, decay);
                }
            }
        }
    }
}

#[test]
fn forward_train_outputs_are_the_predictions() {
    let mut rng = StdRng::seed_from_u64(4);
    let mlp = Mlp::new(&[5, 9, 3], Activation::Tanh, Activation::Sigmoid, &mut rng);
    let mut ws = MlpWorkspace::new();
    for rows in [32, 1, 7] {
        let x = data(rows, 5, rows);
        ws.batch_mut(rows, 5).copy_from_slice(x.as_slice());
        let out = mlp.forward_train(&mut ws).to_vec();
        let predicted = mlp.predict(&x);
        let out_bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(out_bits, bits(&predicted), "{rows} rows");
    }
}

#[test]
fn dual_head_fit_step_matches_the_tape() {
    // `DualHead::new` builds a Tanh/identity network from its seed; the
    // reference rebuilds it from the same seed and trains it on the tape.
    let (input, output, hidden, lr, seed) = (6, 3, [8, 5], 5e-3, 17);
    let mut head = DualHead::new(input, output, &hidden, lr, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tape = Mlp::new(
        &[input, hidden[0], hidden[1], output],
        Activation::Tanh,
        Activation::Identity,
        &mut rng,
    );
    let mut ref_opt = ReferenceAdam::new(lr, 0.0);
    let probe = data(9, input, 11);
    for (step, &rows) in SCHEDULE.iter().enumerate() {
        let x = data(rows, input, step);
        let y = data(rows, output, step + 2);
        let loss = head.fit_step(&x, &y).expect("clean batch accepted");
        let ref_loss = tape_step(&mut tape, &mut ref_opt, &x, &y, Drive::Loss(Loss::Mse));
        assert_eq!(loss.to_bits(), ref_loss.to_bits(), "loss, step {step}");
        assert_eq!(
            bits(&head.predict(&probe)),
            bits(&tape.predict(&probe)),
            "predictions after step {step}"
        );
    }
}
