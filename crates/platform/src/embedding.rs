//! Deterministic task-feature embedding — the stand-in for the paper's
//! GNN task encoder.
//!
//! The paper (§2.1) treats task-to-feature embedding as a solved,
//! orthogonal problem ("we focus on training predictors that map features
//! to the performance predictions and omit the distinction between tasks
//! and features"). We therefore use a fixed, deterministic nonlinear
//! embedding: interpretable structural features (log-compute, memory
//! pressure, family one-hots, …) passed through a seeded random projection
//! with a tanh nonlinearity — an echo-state-style featurizer that gives
//! the predictors a rich but *imperfect* view of the task, exactly the
//! regime where prediction error (and hence regret) is unavoidable.

use crate::task::TaskSpec;
use mfcp_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of raw structural features extracted before projection.
pub const RAW_FEATURES: usize = 10;

/// A fixed nonlinear embedding from [`TaskSpec`]s to feature vectors.
#[derive(Debug, Clone)]
pub struct FeatureEmbedder {
    dim: usize,
    projection: Matrix, // RAW_FEATURES x dim
    raw_indices: Vec<usize>,
}

impl FeatureEmbedder {
    /// Creates an embedder with `dim` projected features (plus all the raw
    /// structural features when `include_raw`). The projection matrix is
    /// derived deterministically from `seed`.
    pub fn new(dim: usize, include_raw: bool, seed: u64) -> Self {
        let raw_indices = if include_raw {
            (0..RAW_FEATURES).collect()
        } else {
            Vec::new()
        };
        Self::with_raw_subset(raw_indices, dim, seed)
    }

    /// Creates an embedder exposing only the raw features at
    /// `raw_indices` (see [`FeatureEmbedder::raw_features`] for the
    /// ordering) plus `dim` nonlinear projections of all of them — an
    /// information bottleneck mimicking an imperfect learned encoder.
    pub fn with_raw_subset(raw_indices: Vec<usize>, dim: usize, seed: u64) -> Self {
        assert!(raw_indices.iter().all(|&i| i < RAW_FEATURES));
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (2.0 / RAW_FEATURES as f64).sqrt();
        let projection = Matrix::from_fn(RAW_FEATURES, dim, |_, _| rng.gen_range(-scale..scale));
        FeatureEmbedder {
            dim,
            projection,
            raw_indices,
        }
    }

    /// The default embedder used across the experiments.
    pub fn default_platform() -> Self {
        FeatureEmbedder::new(8, true, 0x5eed)
    }

    /// A bottlenecked embedder: the predictors see the model family and
    /// the memory footprint directly, but all compute detail only through
    /// the nonlinear projections.
    pub fn bottlenecked_platform() -> Self {
        FeatureEmbedder::with_raw_subset(vec![0, 1, 2, 5], 8, 0x5eed)
    }

    /// Output feature dimension.
    pub fn dim(&self) -> usize {
        self.dim + self.raw_indices.len()
    }

    /// Raw structural features, roughly normalized to `[-1, 1]`.
    pub fn raw_features(task: &TaskSpec) -> [f64; RAW_FEATURES] {
        let f = task.family.index();
        [
            (f == 0) as u8 as f64,
            (f == 1) as u8 as f64,
            (f == 2) as u8 as f64,
            ((task.params_millions() + 1.0).ln() / 8.0).tanh(),
            ((task.epoch_tflops() + 1.0).ln() / 8.0).tanh(),
            (task.memory_units() / 50.0).tanh(),
            task.comm_intensity(),
            (task.depth as f64 / 50.0).clamp(0.0, 1.0),
            (task.width as f64 / 1024.0).clamp(0.0, 1.0),
            ((task.batch_size as f64).log2() / 8.0).clamp(0.0, 1.0),
        ]
    }

    /// Embeds one task.
    pub fn embed(&self, task: &TaskSpec) -> Vec<f64> {
        let raw = Self::raw_features(task);
        let mut out = Vec::with_capacity(self.dim());
        for &i in &self.raw_indices {
            out.push(raw[i]);
        }
        for c in 0..self.dim {
            let mut acc = 0.0;
            for (r, &x) in raw.iter().enumerate() {
                acc += self.projection[(r, c)] * x;
            }
            out.push(acc.tanh());
        }
        out
    }

    /// Embeds a batch of tasks into an `n x dim()` matrix.
    pub fn embed_batch(&self, tasks: &[TaskSpec]) -> Matrix {
        let d = self.dim();
        let mut m = Matrix::zeros(tasks.len(), d);
        for (r, task) in tasks.iter().enumerate() {
            let z = self.embed(task);
            m.row_mut(r).copy_from_slice(&z);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskFamily, TaskGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn embedding_dimensions() {
        let e = FeatureEmbedder::new(8, true, 1);
        assert_eq!(e.dim(), 18);
        let e2 = FeatureEmbedder::new(8, false, 1);
        assert_eq!(e2.dim(), 8);
    }

    #[test]
    fn deterministic() {
        let e1 = FeatureEmbedder::new(6, true, 42);
        let e2 = FeatureEmbedder::new(6, true, 42);
        let mut rng = StdRng::seed_from_u64(5);
        let t = TaskGenerator::default().sample(&mut rng);
        assert_eq!(e1.embed(&t), e2.embed(&t));
        let e3 = FeatureEmbedder::new(6, true, 43);
        assert_ne!(e1.embed(&t), e3.embed(&t));
    }

    #[test]
    fn features_bounded() {
        let e = FeatureEmbedder::default_platform();
        let mut rng = StdRng::seed_from_u64(6);
        for t in TaskGenerator::default().sample_many(100, &mut rng) {
            for &f in &e.embed(&t) {
                assert!(f.is_finite());
                assert!((-1.5..=1.5).contains(&f), "feature {f} out of range");
            }
        }
    }

    #[test]
    fn distinguishes_families() {
        let e = FeatureEmbedder::default_platform();
        let mut rng = StdRng::seed_from_u64(7);
        let gen = TaskGenerator::default();
        let tasks = gen.sample_many(50, &mut rng);
        let cnn = tasks.iter().find(|t| t.family == TaskFamily::Cnn).unwrap();
        let tr = tasks
            .iter()
            .find(|t| t.family == TaskFamily::Transformer)
            .unwrap();
        assert_ne!(e.embed(cnn)[..3], e.embed(tr)[..3]);
    }

    #[test]
    fn batch_matches_single() {
        // Bit for bit: the serve daemon embeds each task once, alone,
        // and must match the whole-set batch.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(8);
        let tasks = TaskGenerator::default().sample_many(70, &mut rng);
        for e in [
            FeatureEmbedder::default_platform(),
            FeatureEmbedder::bottlenecked_platform(),
        ] {
            let batch = e.embed_batch(&tasks);
            assert_eq!(batch.shape(), (tasks.len(), e.dim()));
            for (r, t) in tasks.iter().enumerate() {
                assert_eq!(bits(batch.row(r)), bits(&e.embed(t)));
            }
        }
    }
}
