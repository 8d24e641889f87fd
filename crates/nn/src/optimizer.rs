//! First-order optimizers and learning-rate schedules.

use mfcp_linalg::Matrix;

/// Learning-rate schedule evaluated per epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant(f64),
    /// `base * decay^(epoch / step)` (integer division).
    StepDecay {
        /// Initial learning rate.
        base: f64,
        /// Multiplicative factor applied every `step` epochs.
        decay: f64,
        /// Epoch interval between decays.
        step: usize,
    },
    /// Cosine annealing from `base` down to `floor` over `total` epochs.
    Cosine {
        /// Initial learning rate.
        base: f64,
        /// Final learning rate.
        floor: f64,
        /// Annealing horizon in epochs.
        total: usize,
    },
}

impl LrSchedule {
    /// The learning rate at `epoch` (0-based).
    pub fn at(&self, epoch: usize) -> f64 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::StepDecay { base, decay, step } => {
                base * decay.powi((epoch / step.max(1)) as i32)
            }
            LrSchedule::Cosine { base, floor, total } => {
                let t = (epoch.min(total)) as f64 / total.max(1) as f64;
                floor + 0.5 * (base - floor) * (1.0 + (std::f64::consts::PI * t).cos())
            }
        }
    }
}

/// A first-order optimizer updating a list of parameter tensors in place.
pub trait Optimizer {
    /// Applies one update step given gradients aligned with `params`.
    fn step(&mut self, params: &mut [&mut Matrix], grads: &[Matrix]);

    /// Resets any internal state (moments, velocity, step counters).
    fn reset(&mut self);

    /// Updates the learning rate (for schedules driven by the caller).
    fn set_lr(&mut self, lr: f64);
}

/// Stochastic gradient descent with optional classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f64) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum coefficient `momentum`.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        if self.momentum == 0.0 {
            for (p, g) in params.iter_mut().zip(grads) {
                **p += &g.scale(-self.lr);
            }
            return;
        }
        if self.velocity.len() != params.len() {
            self.velocity = grads
                .iter()
                .map(|g| Matrix::zeros(g.rows(), g.cols()))
                .collect();
        }
        for ((p, g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            *v = v.scale(self.momentum).axpy(-self.lr, g).expect("shape");
            **p += v;
        }
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction, optionally with
/// decoupled weight decay (AdamW; Loshchilov & Hutter, 2019).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    weight_decay: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with standard hyper-parameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adam with explicit moment coefficients.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64) -> Self {
        Adam {
            beta1,
            beta2,
            ..Adam::new(lr)
        }
    }

    /// AdamW: decoupled weight decay applied multiplicatively to the
    /// parameters each step (`p ← p · (1 − lr·wd)` before the Adam
    /// update), independent of the gradient moments.
    pub fn with_weight_decay(lr: f64, weight_decay: f64) -> Self {
        Adam {
            weight_decay,
            ..Adam::new(lr)
        }
    }

    /// The first and second moment estimates, in parameter order (empty
    /// before the first step).
    pub fn moments(&self) -> (&[Matrix], &[Matrix]) {
        (&self.m, &self.v)
    }

    /// One Adam step over `params`, paired in order with `grads`, updating
    /// the moments and the parameters in place. [`Optimizer::step`] and
    /// [`crate::Mlp::step_adam`] both run it, so the arithmetic is the
    /// same per element whichever way the parameters are borrowed.
    pub(crate) fn step_each<'p>(
        &mut self,
        params: impl Iterator<Item = &'p mut Matrix>,
        grads: &[Matrix],
    ) {
        if self.m.len() != grads.len() {
            self.m = grads
                .iter()
                .map(|g| Matrix::zeros(g.rows(), g.cols()))
                .collect();
            self.v = self.m.clone();
            self.t = 0;
        }
        self.t += 1;
        let shrink = 1.0 - self.lr * self.weight_decay;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let mut stepped = 0;
        for ((p, g), (m, v)) in params
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!(p.shape(), g.shape(), "shape");
            assert_eq!(m.shape(), g.shape(), "shape");
            let entries = p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()));
            for ((p, &g), (m, v)) in entries {
                if self.weight_decay > 0.0 {
                    *p *= shrink;
                }
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * (g * g);
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p += -lr * mhat / (vhat.sqrt() + eps);
            }
            stepped += 1;
        }
        assert_eq!(stepped, grads.len(), "param/grad count mismatch");
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        self.step_each(params.iter_mut().map(|p| &mut **p), grads);
    }

    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }

    fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)² from x = 0 with the given optimizer.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut x = Matrix::from_vec(1, 1, vec![0.0]);
        for _ in 0..steps {
            let grad = Matrix::from_vec(1, 1, vec![2.0 * (x[(0, 0)] - 3.0)]);
            let mut params = [&mut x];
            opt.step(&mut params, &[grad]);
        }
        x[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let x = run_quadratic(&mut opt, 200);
        assert!((x - 3.0).abs() < 1e-6);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let x = run_quadratic(&mut opt, 300);
        assert!((x - 3.0).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let x = run_quadratic(&mut opt, 500);
        assert!((x - 3.0).abs() < 1e-3);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        // Zero gradients: AdamW still shrinks weights geometrically.
        let mut opt = Adam::with_weight_decay(0.1, 0.5);
        let mut x = Matrix::from_vec(1, 1, vec![1.0]);
        for _ in 0..10 {
            let grad = Matrix::zeros(1, 1);
            let mut params = [&mut x];
            opt.step(&mut params, &[grad]);
        }
        let expected = 0.95f64.powi(10);
        assert!((x[(0, 0)] - expected).abs() < 1e-9);
        // Plain Adam with zero gradient leaves parameters untouched.
        let mut opt = Adam::new(0.1);
        let mut y = Matrix::from_vec(1, 1, vec![1.0]);
        let mut params = [&mut y];
        opt.step(&mut params, &[Matrix::zeros(1, 1)]);
        assert_eq!(y[(0, 0)], 1.0);
    }

    #[test]
    fn adamw_still_converges_on_quadratic() {
        let mut opt = Adam::with_weight_decay(0.1, 0.01);
        let x = run_quadratic(&mut opt, 500);
        // Weight decay biases slightly toward zero but must stay close.
        assert!((x - 3.0).abs() < 0.2, "got {x}");
    }

    #[test]
    fn adam_reset_clears_state() {
        let mut opt = Adam::new(0.1);
        run_quadratic(&mut opt, 10);
        opt.reset();
        assert_eq!(opt.t, 0);
        assert!(opt.m.is_empty());
    }

    #[test]
    fn schedules() {
        let c = LrSchedule::Constant(0.5);
        assert_eq!(c.at(0), 0.5);
        assert_eq!(c.at(100), 0.5);

        let s = LrSchedule::StepDecay {
            base: 1.0,
            decay: 0.5,
            step: 10,
        };
        assert_eq!(s.at(0), 1.0);
        assert_eq!(s.at(9), 1.0);
        assert_eq!(s.at(10), 0.5);
        assert_eq!(s.at(25), 0.25);

        let cos = LrSchedule::Cosine {
            base: 1.0,
            floor: 0.1,
            total: 100,
        };
        assert!((cos.at(0) - 1.0).abs() < 1e-12);
        assert!((cos.at(100) - 0.1).abs() < 1e-12);
        assert!(cos.at(50) < 1.0 && cos.at(50) > 0.1);
        // Monotone decreasing.
        assert!(cos.at(10) > cos.at(40));
    }

    #[test]
    #[should_panic(expected = "param/grad count mismatch")]
    fn count_mismatch_panics() {
        let mut opt = Sgd::new(0.1);
        let mut x = Matrix::zeros(1, 1);
        let mut params = [&mut x];
        opt.step(&mut params, &[]);
    }
}
