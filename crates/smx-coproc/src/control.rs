//! Cooperative execution control: cancellation and wall-clock deadlines.
//!
//! A [`CancelToken`] is the service layer's handle into a running
//! alignment. A block sweeping strips checks the whole token before each
//! strip of tile rows and polls only the shared cancel flag every `VL`
//! diagonals inside it, so a cancelled pair is abandoned within about one
//! tile's worth of work and an over-budget one within one strip (at most
//! 64 rows), while the clock is read once per strip. Under a fault
//! session the token is checked at every tile boundary, the hook point
//! the fault watchdog uses. Either way a stuck or over-budget pair does
//! not stall its worker for the rest of the block. Cancellation is
//! cooperative and lossless: an abandoned pair fails with a typed
//! [`AlignError::Cancelled`] / [`AlignError::DeadlineExceeded`] error and
//! never produces a partial or corrupt alignment.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smx_align_core::AlignError;

/// A shareable cancellation handle with an optional wall-clock deadline.
///
/// Clones (and [`fork_with_deadline`](CancelToken::fork_with_deadline)
/// children) share the cancellation flag: cancelling any handle cancels
/// them all. Deadlines are per-handle, so a batch-wide token can fork a
/// fresh per-pair deadline for every pair it dispatches.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<(Instant, u64)>,
}

impl CancelToken {
    /// A fresh token with no deadline.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A child sharing this token's cancellation flag, with a wall-clock
    /// deadline of `budget` from now.
    #[must_use]
    pub fn fork_with_deadline(&self, budget: Duration) -> CancelToken {
        CancelToken {
            cancelled: Arc::clone(&self.cancelled),
            deadline: Some((Instant::now() + budget, budget.as_millis() as u64)),
        }
    }

    /// Signals cancellation to every handle sharing this token's flag.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been signalled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Whether this handle's deadline (if any) has expired.
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|(at, _)| Instant::now() >= at)
    }

    /// The strip- and tile-boundary check: fails fast with the typed
    /// reason when the token is cancelled or past its deadline.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::Cancelled`] or
    /// [`AlignError::DeadlineExceeded`].
    pub fn check(&self) -> Result<(), AlignError> {
        if self.is_cancelled() {
            return Err(AlignError::Cancelled);
        }
        if let Some((at, budget_ms)) = self.deadline {
            if Instant::now() >= at {
                return Err(AlignError::DeadlineExceeded { budget_ms });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        assert!(!t.deadline_exceeded());
    }

    #[test]
    fn cancel_propagates_to_clones_and_forks() {
        let t = CancelToken::new();
        let clone = t.clone();
        let fork = t.fork_with_deadline(Duration::from_secs(3600));
        clone.cancel();
        assert!(matches!(t.check(), Err(AlignError::Cancelled)));
        assert!(matches!(fork.check(), Err(AlignError::Cancelled)));
    }

    #[test]
    fn zero_budget_deadline_fires_immediately() {
        let t = CancelToken::new().fork_with_deadline(Duration::ZERO);
        assert!(t.deadline_exceeded());
        assert!(matches!(t.check(), Err(AlignError::DeadlineExceeded { budget_ms: 0 })));
        // The parent carries no deadline.
        assert!(CancelToken::new().check().is_ok());
    }

    #[test]
    fn forked_deadline_does_not_cancel_parent() {
        let parent = CancelToken::new();
        let child = parent.fork_with_deadline(Duration::ZERO);
        assert!(child.check().is_err());
        assert!(parent.check().is_ok());
    }

    #[test]
    fn token_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
    }
}
