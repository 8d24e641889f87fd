//! Per-cluster performance predictors `m_ω` (time) and `m_φ` (reliability).

use mfcp_linalg::Matrix;
use mfcp_nn::{Activation, Mlp};
use rand::Rng;

/// The pair of cluster-specific predictors of §2.1: `t̂ = m_ω(z)` with a
/// strictly positive output head and `â = m_φ(z)` with a sigmoid head.
///
/// The time network predicts **log execution time** (`t̂ = exp(out)`):
/// real cluster runtimes are heavy-tailed (a memory-thrashing job can be
/// 100x slower than the median), and a log head keeps both the regression
/// targets and the decision gradients well-conditioned across that range.
#[derive(Debug, Clone)]
pub struct ClusterPredictor {
    /// Execution-time network (`ω`) — linear output head, interpreted in
    /// log-time space.
    pub time_model: Mlp,
    /// Reliability network (`φ`).
    pub rel_model: Mlp,
}

/// Clamp on the log-time head so `exp` can never overflow.
pub const MAX_LOG_TIME: f64 = 30.0;

impl ClusterPredictor {
    /// Builds both networks with the given hidden widths.
    pub fn new(input_dim: usize, hidden: &[usize], rng: &mut impl Rng) -> Self {
        let mut dims = vec![input_dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        ClusterPredictor {
            time_model: Mlp::new(&dims, Activation::Relu, Activation::Identity, rng),
            rel_model: Mlp::new(&dims, Activation::Relu, Activation::Sigmoid, rng),
        }
    }

    /// Predicted execution times for an `N x d` feature batch
    /// (`exp` of the log-time head, clamped against overflow).
    pub fn predict_times(&self, features: &Matrix) -> Vec<f64> {
        self.time_model
            .predict(features)
            .into_vec()
            .into_iter()
            .map(|o| o.clamp(-MAX_LOG_TIME, MAX_LOG_TIME).exp())
            .collect()
    }

    /// Raw log-time head outputs (the quantity the MSE phase regresses).
    pub fn predict_log_times(&self, features: &Matrix) -> Vec<f64> {
        self.time_model.predict(features).into_vec()
    }

    /// Predicted reliabilities for an `N x d` feature batch.
    pub fn predict_reliability(&self, features: &Matrix) -> Vec<f64> {
        self.rel_model.predict(features).into_vec()
    }

    /// Serializes both networks into one text document.
    pub fn to_document(&self) -> String {
        format!(
            "mfcp-cluster-predictor v1\n--time--\n{}--reliability--\n{}",
            mfcp_nn::persist::mlp_to_string(&self.time_model),
            mfcp_nn::persist::mlp_to_string(&self.rel_model)
        )
    }

    /// Parses a document produced by [`ClusterPredictor::to_document`].
    pub fn from_document(text: &str) -> Result<Self, mfcp_nn::persist::ModelFormatError> {
        let err = |m: &str| mfcp_nn::persist::ModelFormatError {
            message: m.to_string(),
        };
        let rest = text
            .strip_prefix("mfcp-cluster-predictor v1\n")
            .ok_or_else(|| err("bad cluster-predictor header"))?;
        let rest = rest
            .strip_prefix("--time--\n")
            .ok_or_else(|| err("missing --time-- section"))?;
        let (time_part, rel_part) = rest
            .split_once("--reliability--\n")
            .ok_or_else(|| err("missing --reliability-- section"))?;
        Ok(ClusterPredictor {
            time_model: mfcp_nn::persist::mlp_from_string(time_part)?,
            rel_model: mfcp_nn::persist::mlp_from_string(rel_part)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_heads_respect_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = ClusterPredictor::new(6, &[16, 16], &mut rng);
        let features = Matrix::from_fn(40, 6, |_, _| {
            use rand::Rng;
            rng.gen_range(-1.0..1.0)
        });
        for t in p.predict_times(&features) {
            assert!(t > 0.0, "times must be strictly positive");
        }
        for a in p.predict_reliability(&features) {
            assert!(
                (0.0..=1.0).contains(&a),
                "reliabilities must be probabilities"
            );
        }
    }

    #[test]
    fn batch_size_matches() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = ClusterPredictor::new(4, &[8], &mut rng);
        let features = Matrix::zeros(7, 4);
        assert_eq!(p.predict_times(&features).len(), 7);
        assert_eq!(p.predict_reliability(&features).len(), 7);
    }

    #[test]
    fn time_and_rel_models_are_independent() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = ClusterPredictor::new(4, &[8], &mut rng);
        // Different initializations (drawn sequentially from the RNG).
        assert_ne!(
            p.time_model.params()[0].as_slice(),
            p.rel_model.params()[0].as_slice()
        );
    }
}
