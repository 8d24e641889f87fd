//! Per-request solve budgets: deadlines and cooperative cancellation.
//!
//! A long-running exchange daemon cannot let one pathological instance
//! hold the matching loop hostage — every request carries a latency
//! budget, and a solve that blows it must yield the thread *now* and let
//! the solve degrade to greedy rounding instead of queueing work
//! unboundedly behind it. [`Budget`] packages the two mechanisms the
//! guarded solver checks on every accepted iterate:
//!
//! * a **wall-clock deadline** — an absolute [`Instant`] past which the
//!   solve aborts with [`crate::recovery::SolveError::DeadlineExceeded`];
//! * a **cancel token** — a shared flag another thread (an admission
//!   controller, a shutdown path, a chaos harness) can set to stop the
//!   solve at the next iterate boundary, deterministically.
//!
//! Budgets are cooperative: nothing is interrupted mid-step, so expiry
//! latency is one inner iteration. Greedy rounding always runs
//! regardless of the budget — a request past its deadline still gets
//! a feasible matching, just not an optimized one.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag. Cloning is cheap; all clones observe the
/// same state. Cancellation is one-way — there is no reset — so a token
/// is per-request, not per-solver.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every solve holding a clone of this token
    /// aborts at its next iterate boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A per-request solve budget: an optional absolute deadline plus an
/// optional cancel token. The default budget is unlimited.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// A budget with no deadline and no cancel token.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget expiring `limit` from now.
    pub fn with_deadline(limit: Duration) -> Self {
        Budget {
            deadline: Some(Instant::now() + limit),
            cancel: None,
        }
    }

    /// A budget expiring at the absolute instant `at`.
    pub fn until(at: Instant) -> Self {
        Budget {
            deadline: Some(at),
            cancel: None,
        }
    }

    /// Attaches a cancel token (builder-style).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether this budget can ever expire (deadline or token present).
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Whether the budget is spent: the deadline has passed or the
    /// cancel token fired. Checked by the guarded primary attempt on
    /// every accepted iterate.
    pub fn expired(&self) -> bool {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return true;
            }
        }
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Time left until the deadline (`None` when no deadline is set;
    /// zero once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.deadline, &self.cancel) {
            (None, None) => f.write_str("unlimited"),
            (Some(_), None) => write!(f, "deadline({:?} left)", self.remaining().unwrap()),
            (None, Some(t)) => write!(f, "cancellable(fired={})", t.is_cancelled()),
            (Some(_), Some(t)) => write!(
                f,
                "deadline({:?} left, cancel fired={})",
                self.remaining().unwrap(),
                t.is_cancelled()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_expires() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        assert!(!b.expired());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn deadline_expires() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert!(b.is_limited());
        assert!(!b.expired());
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
        let past = Budget::until(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn cancel_token_fires_across_clones() {
        let tok = CancelToken::new();
        let b = Budget::unlimited().with_cancel(tok.clone());
        assert!(b.is_limited());
        assert!(!b.expired());
        tok.cancel();
        assert!(b.expired());
        assert!(tok.is_cancelled());
    }
}
