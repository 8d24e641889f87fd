//! Per-task matrix columns.
//!
//! Column `j` of a resolve's time and reliability matrices holds task
//! `j`'s predicted times `t̂_ij` and reliabilities `â_ij` on every
//! cluster `i`. It is a pure function of the task's spec and the frozen
//! [`MatrixSource`]: the predictors embed and predict each task on its
//! own (every `matmul` output row and every embedding row is computed
//! independently of the others), and the ground-truth model is per task
//! by definition. So the daemon computes a task's column once, on the
//! first resolve that sees the task, keeps it until the task departs,
//! and gathers each resolve's matrices from the store.
//!
//! The store is derived state: snapshots leave it out, and a restored
//! daemon starts it empty and refills it on its first resolve.

use std::collections::BTreeMap;

use mfcp_linalg::Matrix;
use mfcp_platform::task::TaskSpec;

use crate::daemon::MatrixSource;

/// Per-task `(t̂, â)` columns keyed by task id: each entry holds the
/// task's `M` clamped times, then its `M` clamped reliabilities, exactly
/// as [`MatrixSource::matrices`] writes them.
#[derive(Debug, Default)]
pub(crate) struct ColumnStore {
    columns: BTreeMap<u64, Box<[f64]>>,
}

impl ColumnStore {
    /// Number of tasks with a column.
    pub(crate) fn len(&self) -> usize {
        self.columns.len()
    }

    /// Drops the column of task `id`, if it has one.
    pub(crate) fn remove(&mut self, id: u64) {
        self.columns.remove(&id);
    }

    /// Computes, in one batch through [`MatrixSource::matrices`], the
    /// columns of the tasks in `active` that have none yet. Returns how
    /// many it computed.
    pub(crate) fn fill(
        &mut self,
        source: &MatrixSource,
        active: &BTreeMap<u64, TaskSpec>,
    ) -> usize {
        let (ids, specs): (Vec<u64>, Vec<TaskSpec>) = active
            .iter()
            .filter(|(id, _)| !self.columns.contains_key(id))
            .map(|(id, spec)| (*id, spec.clone()))
            .unzip();
        if ids.is_empty() {
            return 0;
        }
        let (t, a) = source.matrices(&specs);
        let m = t.rows();
        for (j, &id) in ids.iter().enumerate() {
            let column = (0..m).map(|i| t[(i, j)]).chain((0..m).map(|i| a[(i, j)]));
            self.columns.insert(id, column.collect());
        }
        ids.len()
    }

    /// The `m × N` time and reliability matrices over the tasks of
    /// `active`, in its (id) order; `None` unless the store holds a
    /// column for exactly those tasks.
    pub(crate) fn gather(
        &self,
        m: usize,
        active: &BTreeMap<u64, TaskSpec>,
    ) -> Option<(Matrix, Matrix)> {
        let n = active.len();
        if self.columns.len() != n {
            return None;
        }
        let mut t = Matrix::zeros(m, n);
        let mut a = Matrix::zeros(m, n);
        // Both maps iterate in ascending id order, so equal lengths and
        // pairwise-equal keys mean equal key sets.
        for (j, (id, (key, column))) in active.keys().zip(&self.columns).enumerate() {
            if id != key {
                return None;
            }
            for i in 0..m {
                t[(i, j)] = column[i];
                a[(i, j)] = column[m + i];
            }
        }
        Some((t, a))
    }
}
