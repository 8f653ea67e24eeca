//! Assertion helpers shared by unit tests, integration tests, and the
//! bench harnesses.
//!
//! Service reports are positional; a failed lookup should say *which*
//! pair failed and *why the batch thinks it failed*, not just panic on
//! a bare `unwrap`. Centralizing the checks keeps the panic messages
//! descriptive and identical everywhere the byte-identity invariant is
//! asserted — the unit tests, the proptest harnesses, and the
//! `fault_storm` bench all call the same code.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use smx_align_core::Alignment;

use crate::service::{PairOutcome, ServiceBatchReport};

/// A monotone rendezvous counter for deterministic cross-thread
/// interleavings in tests: threads [`Gate::arrive`] at numbered steps
/// and [`Gate::wait_for`] the steps of others, turning a racy schedule
/// into an explicit happens-before chain.
///
/// Waits are bounded (10 s) so a wrong schedule fails the test with a
/// panic naming the step it was stuck on instead of hanging CI.
#[derive(Debug, Default)]
pub struct Gate {
    step: Mutex<u64>,
    advanced: Condvar,
}

impl Gate {
    /// A gate at step 0.
    #[must_use]
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Marks `step` reached (steps are monotone: arriving at a lower
    /// step than the current one is a no-op) and wakes all waiters.
    pub fn arrive(&self, step: u64) {
        let mut cur = self.step.lock().expect("gate lock poisoned");
        if step > *cur {
            *cur = step;
        }
        drop(cur);
        self.advanced.notify_all();
    }

    /// Blocks until some thread has arrived at `step` (or beyond).
    ///
    /// # Panics
    ///
    /// After 10 seconds — a deadlocked schedule is a test bug.
    pub fn wait_for(&self, step: u64) {
        let deadline = Duration::from_secs(10);
        let guard = self.step.lock().expect("gate lock poisoned");
        let (guard, timeout) = self
            .advanced
            .wait_timeout_while(guard, deadline, |cur| *cur < step)
            .expect("gate lock poisoned");
        assert!(!timeout.timed_out(), "gate stuck waiting for step {step} (at {})", *guard);
    }
}

/// The alignment for pair `index`, or a panic that names the pair and
/// dumps the report's failure summary.
///
/// # Panics
///
/// When the pair failed, was shed, or is out of range.
#[must_use]
pub fn expect_aligned(report: &ServiceBatchReport, index: usize) -> &Alignment {
    match report.outcomes.get(index) {
        Some(PairOutcome::Aligned(a)) => a,
        Some(PairOutcome::Failed(e)) => {
            panic!("pair {index} failed: {e}\n{}", report.failure_summary())
        }
        Some(PairOutcome::Shed) => {
            panic!("pair {index} was shed by admission\n{}", report.failure_summary())
        }
        None => {
            panic!("pair {index} out of range: the report has {} outcomes", report.outcomes.len())
        }
    }
}

/// Asserts every pair in the batch aligned.
///
/// # Panics
///
/// With the report's failure summary when any pair failed or was shed.
pub fn assert_all_aligned(report: &ServiceBatchReport) {
    assert!(report.all_succeeded(), "batch had failures:\n{}", report.failure_summary());
}

/// Asserts the report's alignments are byte-identical to `golden`
/// (score and CIGAR string), pair by pair — the workspace's core
/// invariant: no fault pattern, pool width, breaker state, audit rate,
/// or hedge setting may change alignment content.
///
/// # Panics
///
/// Naming the first diverging pair and what diverged.
pub fn assert_byte_identical(report: &ServiceBatchReport, golden: &[Alignment]) {
    assert_eq!(report.outcomes.len(), golden.len(), "pair count mismatch");
    for (i, g) in golden.iter().enumerate() {
        let a = expect_aligned(report, i);
        assert_eq!(a.score, g.score, "pair {i}: score diverged from the clean baseline");
        assert_eq!(
            a.cigar.to_string(),
            g.cigar.to_string(),
            "pair {i}: CIGAR diverged from the clean baseline"
        );
    }
}
