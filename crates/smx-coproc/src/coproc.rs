//! The SMX-2D coprocessor façade (paper §5.1): an engine shared by
//! multiple SMX-workers, exposed through the block-offload interface the
//! core drives via memory-mapped configuration registers.

use crate::block::{compute_block, BlockMode, BlockOutput};
use crate::control::CancelToken;
use crate::engine::SmxEngine;
use crate::traceback::{traceback_output, RecomputeStats};
use smx_align_core::{AlignError, Cigar, ElementWidth, ScoringScheme};
use smx_diffenc::boundary::BlockBorders;

/// The SMX-2D coprocessor: one SMX-engine plus `workers` SMX-worker
/// control units.
///
/// The worker count does not change functional results — it determines
/// how many DP-blocks can be in flight, which the timing model in
/// `smx-sim` consumes.
#[derive(Debug, Clone)]
pub struct SmxCoprocessor {
    engine: SmxEngine,
    workers: usize,
    control: Option<CancelToken>,
}

impl SmxCoprocessor {
    /// Default worker count used in the paper's evaluation (§7).
    pub const DEFAULT_WORKERS: usize = 4;

    /// Builds a coprocessor for `ew` / `scheme` with `workers` workers.
    ///
    /// # Errors
    ///
    /// Propagates engine configuration errors; rejects zero workers.
    pub fn new(
        ew: ElementWidth,
        scheme: &ScoringScheme,
        workers: usize,
    ) -> Result<SmxCoprocessor, AlignError> {
        if workers == 0 {
            return Err(AlignError::Internal("coprocessor needs at least one worker".into()));
        }
        Ok(SmxCoprocessor { engine: SmxEngine::new(ew, scheme)?, workers, control: None })
    }

    /// Installs (or clears) the cooperative cancellation / deadline token
    /// checked at every tile boundary of subsequent block computations and
    /// tracebacks.
    pub fn set_control(&mut self, control: Option<CancelToken>) {
        self.control = control;
    }

    /// The installed control token, if any.
    #[must_use]
    pub fn control(&self) -> Option<&CancelToken> {
        self.control.as_ref()
    }

    /// The compute engine.
    #[must_use]
    pub fn engine(&self) -> &SmxEngine {
        &self.engine
    }

    /// Number of SMX-workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Offloads one DP-block computation.
    ///
    /// # Errors
    ///
    /// See [`compute_block`].
    pub fn compute_block(
        &self,
        query: &[u8],
        reference: &[u8],
        input: Option<&BlockBorders>,
        mode: BlockMode,
    ) -> Result<BlockOutput, AlignError> {
        compute_block(&self.engine, query, reference, input, mode, None, self.control.as_ref())
    }

    /// Traces back a block previously computed in traceback mode: over
    /// its kept cells when it has them, else by recomputing tiles.
    ///
    /// # Errors
    ///
    /// See [`traceback_output`].
    pub fn traceback(
        &self,
        query: &[u8],
        reference: &[u8],
        output: &BlockOutput,
    ) -> Result<(Cigar, RecomputeStats), AlignError> {
        traceback_output(&self.engine, query, reference, output, None, self.control.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::{dp, AlignmentConfig};

    #[test]
    fn full_offload_roundtrip() {
        let cfg = AlignmentConfig::DnaGap;
        let c = SmxCoprocessor::new(cfg.element_width(), &cfg.scoring(), 4).unwrap();
        let q: Vec<u8> = (0..50).map(|i| (i % 4) as u8).collect();
        let r: Vec<u8> = (0..45).map(|i| (i % 3) as u8).collect();
        let out = c.compute_block(&q, &r, None, BlockMode::Traceback).unwrap();
        let (cigar, _) = c.traceback(&q, &r, &out).unwrap();
        let scheme = cfg.scoring();
        assert_eq!(out.score, dp::score_only(&q, &r, &scheme));
        assert_eq!(cigar.score(&q, &r, &scheme).unwrap(), out.score);
    }

    #[test]
    fn score_only_block_cannot_trace() {
        let cfg = AlignmentConfig::DnaEdit;
        let c = SmxCoprocessor::new(cfg.element_width(), &cfg.scoring(), 1).unwrap();
        let q = vec![0u8; 8];
        let out = c.compute_block(&q, &q, None, BlockMode::ScoreOnly).unwrap();
        assert!(c.traceback(&q, &q, &out).is_err());
    }

    #[test]
    fn cancelled_token_aborts_block_at_tile_boundary() {
        let cfg = AlignmentConfig::DnaGap;
        let mut c = SmxCoprocessor::new(cfg.element_width(), &cfg.scoring(), 2).unwrap();
        let q: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
        let token = CancelToken::new();
        token.cancel();
        c.set_control(Some(token));
        let err = c.compute_block(&q, &q, None, BlockMode::Traceback).unwrap_err();
        assert!(matches!(err, AlignError::Cancelled));
        // Clearing the control restores normal operation.
        c.set_control(None);
        assert!(c.compute_block(&q, &q, None, BlockMode::Traceback).is_ok());
    }

    #[test]
    fn expired_deadline_aborts_block() {
        let cfg = AlignmentConfig::DnaEdit;
        let mut c = SmxCoprocessor::new(cfg.element_width(), &cfg.scoring(), 2).unwrap();
        let q = vec![0u8; 48];
        c.set_control(Some(CancelToken::new().fork_with_deadline(std::time::Duration::ZERO)));
        let err = c.compute_block(&q, &q, None, BlockMode::ScoreOnly).unwrap_err();
        assert!(matches!(err, AlignError::DeadlineExceeded { .. }));
    }

    #[test]
    fn zero_workers_rejected() {
        let cfg = AlignmentConfig::DnaEdit;
        assert!(SmxCoprocessor::new(cfg.element_width(), &cfg.scoring(), 0).is_err());
    }
}
