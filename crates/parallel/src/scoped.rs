//! Borrow-friendly fork/join helpers built on `crossbeam::thread::scope`.

use std::sync::OnceLock;

/// Cached observability handles so the fork/join helpers pay a registry
/// lookup once per process, not once per call.
struct ScopedMetrics {
    calls: mfcp_obs::Counter,
    items: mfcp_obs::Histogram,
}

fn metrics() -> &'static ScopedMetrics {
    static METRICS: OnceLock<ScopedMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ScopedMetrics {
        calls: mfcp_obs::counter("parallel.scoped.calls"),
        items: mfcp_obs::histogram("parallel.scoped.items"),
    })
}

fn record_scoped_call(len: usize) {
    let m = metrics();
    m.calls.inc();
    m.items.record(len as f64);
}

/// Tuning knobs for the scoped parallel helpers.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Maximum number of worker threads to fork.
    pub threads: usize,
    /// Inputs shorter than this run sequentially on the calling thread.
    pub sequential_cutoff: usize,
}

impl Default for ParallelConfig {
    /// Every available CPU of the calling thread, queried from the OS now
    /// (see [`crate::default_threads`]).
    fn default() -> Self {
        ParallelConfig::with_threads(crate::default_threads())
    }
}

impl ParallelConfig {
    /// A configuration with an explicit thread count and the default cutoff.
    /// Never queries the OS.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
            sequential_cutoff: 2,
        }
    }

    /// Forces sequential execution (useful for deterministic debugging).
    pub fn sequential() -> Self {
        ParallelConfig {
            threads: 1,
            sequential_cutoff: usize::MAX,
        }
    }

    pub(crate) fn effective_threads(&self, len: usize) -> usize {
        if len < self.sequential_cutoff {
            1
        } else {
            self.threads.max(1).min(len.max(1))
        }
    }
}

/// Applies `f` to every element of `items`, returning outputs in input order.
///
/// `f` runs on up to `config.threads` forked threads. Panics in `f` are
/// propagated to the caller after all threads have been joined.
///
/// ```
/// use mfcp_parallel::{par_map, ParallelConfig};
/// let squares = par_map(&ParallelConfig::default(), &[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(config: &ParallelConfig, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    record_scoped_call(items.len());
    let threads = config.effective_threads(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    crossbeam::thread::scope(|scope| {
        let f = &f;
        let mut rest = out.as_mut_slice();
        for (ci, in_chunk) in items.chunks(chunk).enumerate() {
            let (head, tail) = rest.split_at_mut(in_chunk.len());
            rest = tail;
            let base = ci * chunk;
            scope.spawn(move |_| {
                for (slot, (off, item)) in head.iter_mut().zip(in_chunk.iter().enumerate()) {
                    let _ = base + off; // index retained for clarity in panics
                    *slot = Some(f(item));
                }
            });
        }
    })
    .expect("par_map worker panicked");
    out.into_iter().map(|v| v.expect("slot filled")).collect()
}

/// Applies `f` to every element of `items` for its side effects.
pub fn par_for_each<T, F>(config: &ParallelConfig, items: &[T], f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    record_scoped_call(items.len());
    let threads = config.effective_threads(items.len());
    if threads <= 1 {
        items.iter().for_each(f);
        return;
    }
    let chunk = items.len().div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        let f = &f;
        for in_chunk in items.chunks(chunk) {
            scope.spawn(move |_| in_chunk.iter().for_each(f));
        }
    })
    .expect("par_for_each worker panicked");
}

/// Splits `items` into contiguous mutable chunks and hands each chunk (with
/// the index of its first element) to `f` on a forked thread.
///
/// This is the building block for parallel in-place updates such as blocked
/// matmul row panels.
pub fn par_chunks_mut<T, F>(config: &ParallelConfig, items: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let threads = config.effective_threads(items.len().div_ceil(chunk_len));
    if threads <= 1 {
        for (ci, chunk) in items.chunks_mut(chunk_len).enumerate() {
            f(ci * chunk_len, chunk);
        }
        return;
    }
    crossbeam::thread::scope(|scope| {
        let f = &f;
        for (ci, chunk) in items.chunks_mut(chunk_len).enumerate() {
            scope.spawn(move |_| f(ci * chunk_len, chunk));
        }
    })
    .expect("par_chunks_mut worker panicked");
}

/// Parallel map-reduce: maps each element with `map`, then folds the mapped
/// values with the associative operation `reduce`, starting from `identity`.
///
/// `reduce` must be associative and `identity` its neutral element, otherwise
/// the result depends on the chunking.
///
/// ```
/// use mfcp_parallel::{par_reduce, ParallelConfig};
/// let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
/// let sum = par_reduce(&ParallelConfig::default(), &data, 0.0, |&x| x, |a, b| a + b);
/// assert_eq!(sum, 5050.0);
/// ```
pub fn par_reduce<T, U, M, R>(
    config: &ParallelConfig,
    items: &[T],
    identity: U,
    map: M,
    reduce: R,
) -> U
where
    T: Sync,
    U: Send + Clone,
    M: Fn(&T) -> U + Sync,
    R: Fn(U, U) -> U + Sync,
{
    record_scoped_call(items.len());
    let threads = config.effective_threads(items.len());
    if threads <= 1 {
        return items.iter().map(map).fold(identity, &reduce);
    }
    let chunk = items.len().div_ceil(threads);
    let partials: Vec<U> = crossbeam::thread::scope(|scope| {
        let map = &map;
        let reduce = &reduce;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|in_chunk| {
                let id = identity.clone();
                scope.spawn(move |_| in_chunk.iter().map(map).fold(id, reduce))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .expect("par_reduce worker panicked");
    partials.into_iter().fold(identity, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&ParallelConfig::with_threads(7), &items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_input() {
        let items: Vec<u32> = vec![];
        let out = par_map(&ParallelConfig::default(), &items, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn map_sequential_config_matches_parallel() {
        let items: Vec<i64> = (0..257).collect();
        let seq = par_map(&ParallelConfig::sequential(), &items, |&x| x * x - 3);
        let par = par_map(&ParallelConfig::with_threads(8), &items, |&x| x * x - 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn for_each_touches_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..500).collect();
        let sum = AtomicUsize::new(0);
        par_for_each(&ParallelConfig::with_threads(4), &items, |&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 500 * 499 / 2);
    }

    #[test]
    fn chunks_mut_writes_disjoint_ranges() {
        let mut data = vec![0usize; 103];
        par_chunks_mut(
            &ParallelConfig::with_threads(4),
            &mut data,
            10,
            |base, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = base + i;
                }
            },
        );
        assert_eq!(data, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_matches_sequential() {
        let data: Vec<f64> = (0..1234).map(|i| (i as f64).sin()).collect();
        let seq: f64 = data.iter().map(|x| x * x).sum();
        let par = par_reduce(
            &ParallelConfig::with_threads(6),
            &data,
            0.0,
            |&x| x * x,
            |a, b| a + b,
        );
        assert!((seq - par).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn map_propagates_panics() {
        let items: Vec<usize> = (0..100).collect();
        par_map(&ParallelConfig::with_threads(4), &items, |&x| {
            if x == 57 {
                panic!("expected");
            }
            x
        });
    }

    proptest::proptest! {
        #[test]
        fn prop_par_map_equals_serial(v in proptest::collection::vec(-1e6f64..1e6, 0..200),
                                      threads in 1usize..9) {
            let par = par_map(&ParallelConfig::with_threads(threads), &v, |&x| x.abs() + 1.0);
            let ser: Vec<f64> = v.iter().map(|&x| x.abs() + 1.0).collect();
            proptest::prop_assert_eq!(par, ser);
        }

        #[test]
        fn prop_par_reduce_sum(v in proptest::collection::vec(-100i64..100, 0..300),
                               threads in 1usize..9) {
            let par = par_reduce(&ParallelConfig::with_threads(threads), &v, 0i64, |&x| x, |a, b| a + b);
            let ser: i64 = v.iter().sum();
            proptest::prop_assert_eq!(par, ser);
        }
    }
}
