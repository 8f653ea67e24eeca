//! DP-block computation on the coprocessor (paper §5.1): the SMX-worker
//! sweeps the tile grid, keeps only tile borders, and tracks the absolute
//! anchors needed to recompute any tile during traceback.

use crate::control::CancelToken;
use crate::engine::SmxEngine;
use crate::faults::FaultSession;
use crate::tile::{TileInput, TileOutput};
use crate::worker::{block_transfer_stats, TransferStats};
use smx_align_core::AlignError;
use smx_diffenc::boundary::BlockBorders;

/// What the coprocessor retains from a block computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockMode {
    /// Keep only the output borders (score-only use cases).
    ScoreOnly,
    /// Additionally keep every tile's input borders and corner anchors so
    /// the core can recompute tiles along the traceback path.
    Traceback,
}

/// Stored per-tile state enabling selective recomputation (paper Fig. 8a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileBorderStore {
    vl: usize,
    m: usize,
    n: usize,
    t_rows: usize,
    t_cols: usize,
    /// Input borders, row-major over the tile grid.
    inputs: Vec<TileInput>,
    /// Absolute DP value at each tile's top-left corner `M(ti·VL, tj·VL)`,
    /// relative to the block anchor.
    anchors: Vec<i32>,
}

impl TileBorderStore {
    /// Tile grid rows.
    #[must_use]
    pub fn tile_rows(&self) -> usize {
        self.t_rows
    }

    /// Tile grid columns.
    #[must_use]
    pub fn tile_cols(&self) -> usize {
        self.t_cols
    }

    /// Tile side (`VL`).
    #[must_use]
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Block dimensions `(m, n)`.
    #[must_use]
    pub fn block_dims(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Input borders of tile `(ti, tj)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn input(&self, ti: usize, tj: usize) -> &TileInput {
        assert!(ti < self.t_rows && tj < self.t_cols);
        &self.inputs[ti * self.t_cols + tj]
    }

    /// Absolute anchor of tile `(ti, tj)` (relative to the block anchor).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn anchor(&self, ti: usize, tj: usize) -> i32 {
        assert!(ti < self.t_rows && tj < self.t_cols);
        self.anchors[ti * self.t_cols + tj]
    }

    /// The (row, col) ranges covered by tile `(ti, tj)`.
    #[must_use]
    pub fn tile_span(
        &self,
        ti: usize,
        tj: usize,
    ) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let r0 = ti * self.vl;
        let c0 = tj * self.vl;
        (r0..(r0 + self.vl).min(self.m), c0..(c0 + self.vl).min(self.n))
    }
}

/// The result of a block computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockOutput {
    /// Bottom-right DP value relative to the block anchor.
    pub score: i32,
    /// Δh′ outputs of the bottom row.
    pub bottom_dh: Vec<u8>,
    /// Δv′ outputs of the rightmost column.
    pub right_dv: Vec<u8>,
    /// Tile border store ([`BlockMode::Traceback`] only).
    pub borders: Option<TileBorderStore>,
    /// Memory-transfer ledger for the timing model.
    pub stats: TransferStats,
}

/// Computes an `m × n` DP-block by sweeping the tile grid.
///
/// `input` borders of `None` mean a fresh, origin-anchored block.
///
/// # Errors
///
/// Returns [`AlignError::EmptySequence`] on empty inputs and
/// [`AlignError::Internal`] on border-length mismatches; propagates engine
/// errors.
pub fn compute_block(
    engine: &SmxEngine,
    query: &[u8],
    reference: &[u8],
    input: Option<&BlockBorders>,
    mode: BlockMode,
) -> Result<BlockOutput, AlignError> {
    compute_block_inner(engine, query, reference, input, mode, None, None)
}

/// [`compute_block`] with optional fault injection and cooperative
/// control: `control` is checked at every tile boundary, abandoning the
/// block with [`AlignError::Cancelled`] / [`AlignError::DeadlineExceeded`]
/// when the token fires.
///
/// # Errors
///
/// Same conditions as [`compute_block_resilient`], plus the control
/// errors above.
pub fn compute_block_controlled(
    engine: &SmxEngine,
    query: &[u8],
    reference: &[u8],
    input: Option<&BlockBorders>,
    mode: BlockMode,
    session: Option<&mut FaultSession>,
    control: Option<&CancelToken>,
) -> Result<BlockOutput, AlignError> {
    compute_block_inner(engine, query, reference, input, mode, session, control)
}

/// [`compute_block`] under an active fault-injection session: every tile
/// runs through the session's checksum/watchdog/retry/fallback machinery
/// (see [`crate::faults`]).
///
/// # Errors
///
/// Same conditions as [`compute_block`], plus
/// [`AlignError::RecoveryExhausted`] when a tile cannot be recovered
/// under the session's policy.
pub fn compute_block_resilient(
    engine: &SmxEngine,
    query: &[u8],
    reference: &[u8],
    input: Option<&BlockBorders>,
    mode: BlockMode,
    session: &mut FaultSession,
) -> Result<BlockOutput, AlignError> {
    compute_block_inner(engine, query, reference, input, mode, Some(session), None)
}

fn compute_block_inner(
    engine: &SmxEngine,
    query: &[u8],
    reference: &[u8],
    input: Option<&BlockBorders>,
    mode: BlockMode,
    mut session: Option<&mut FaultSession>,
    control: Option<&CancelToken>,
) -> Result<BlockOutput, AlignError> {
    let (m, n) = (query.len(), reference.len());
    if m == 0 || n == 0 {
        return Err(AlignError::EmptySequence);
    }
    let fresh = BlockBorders::fresh(m, n);
    let borders = input.unwrap_or(&fresh);
    if borders.rows() != m || borders.cols() != n {
        return Err(AlignError::Internal(format!(
            "block borders ({}, {}) do not match ({m}, {n})",
            borders.rows(),
            borders.cols()
        )));
    }
    let scheme = engine.scheme();
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
    let vl = engine.tile_dim();
    let t_rows = m.div_ceil(vl);
    let t_cols = n.div_ceil(vl);

    // The carried borders, advanced in place tile by tile: `dh_carry`
    // ends as the block's bottom row, and each tile row's slice of
    // `right_dv` starts as the block's left border and ends as its right.
    let mut dh_carry: Vec<u8> = borders.top_dh.clone();
    let mut right_dv: Vec<u8> = borders.left_dv.clone();
    let mut inputs: Vec<TileInput> = Vec::new();
    let mut anchors: Vec<i32> = Vec::new();
    let keep = mode == BlockMode::Traceback;
    if keep {
        inputs.reserve(t_rows * t_cols);
        anchors.reserve(t_rows * t_cols);
    }
    let epoch = session.as_mut().map_or(0, |s| s.begin_epoch());

    // Absolute anchor of the current tile-row's left edge.
    let mut left_anchor: i32 = 0;
    for ti in 0..t_rows {
        let r0 = ti * vl;
        let rows = (m - r0).min(vl);
        let q_seg = &query[r0..r0 + rows];
        let dv_carry = &mut right_dv[r0..r0 + rows];
        let mut anchor = left_anchor;
        for tj in 0..t_cols {
            // Tile boundary: the cooperative cancellation / deadline hook
            // (same granularity as the fault watchdog).
            if let Some(token) = control {
                token.check()?;
            }
            let c0 = tj * vl;
            let cols = (n - c0).min(vl);
            let r_seg = &reference[c0..c0 + cols];
            let dh_top = &mut dh_carry[c0..c0 + cols];
            // The tile's input borders, copied once, only when the
            // traceback store keeps them or the fault session runs from
            // them.
            let tin = (keep || session.is_some())
                .then(|| TileInput { dv_left: dv_carry.to_vec(), dh_top: dh_top.to_vec() });
            if keep {
                anchors.push(anchor);
            }
            // Advance the anchor across this tile's top edge.
            anchor += dh_top.iter().map(|&d| i32::from(d) + gd).sum::<i32>();
            match (session.as_mut(), &tin) {
                (Some(s), Some(tin)) => {
                    let TileOutput { dv_right, dh_bottom } =
                        s.run_tile(engine, q_seg, r_seg, tin, epoch, ti, tj)?;
                    dv_carry.copy_from_slice(&dv_right);
                    dh_top.copy_from_slice(&dh_bottom);
                }
                _ => engine.compute_tile_in_place(q_seg, r_seg, dv_carry, dh_top)?,
            }
            if keep {
                inputs.extend(tin);
            }
        }
        // Advance the left anchor down this tile-row's left edge.
        left_anchor +=
            borders.left_dv[r0..r0 + rows].iter().map(|&d| i32::from(d) + gi).sum::<i32>();
    }

    let top_sum: i32 = borders.top_dh.iter().map(|&d| i32::from(d) + gd).sum();
    let right_sum: i32 = right_dv.iter().map(|&d| i32::from(d) + gi).sum();
    let stats = block_transfer_stats(m, n, engine.ew(), mode);

    Ok(BlockOutput {
        score: top_sum + right_sum,
        bottom_dh: dh_carry,
        right_dv,
        borders: keep.then_some(TileBorderStore { vl, m, n, t_rows, t_cols, inputs, anchors }),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::{dp, AlignmentConfig};

    fn engine(cfg: AlignmentConfig) -> SmxEngine {
        SmxEngine::new(cfg.element_width(), &cfg.scoring()).unwrap()
    }

    fn seq(cfg: AlignmentConfig, len: usize, stride: u32) -> Vec<u8> {
        let card = cfg.alphabet().cardinality() as u32;
        (0..len as u32).map(|i| (i.wrapping_mul(stride) % card) as u8).collect()
    }

    #[test]
    fn block_score_matches_golden_all_configs() {
        for cfg in AlignmentConfig::ALL {
            let e = engine(cfg);
            let scheme = cfg.scoring();
            let q = seq(cfg, 75, 7);
            let r = seq(cfg, 90, 11);
            let out = compute_block(&e, &q, &r, None, BlockMode::ScoreOnly).unwrap();
            assert_eq!(out.score, dp::score_only(&q, &r, &scheme), "{cfg}");
            assert!(out.borders.is_none());
        }
    }

    #[test]
    fn traceback_mode_stores_all_tiles() {
        let cfg = AlignmentConfig::Ascii; // VL = 8
        let e = engine(cfg);
        let q = seq(cfg, 20, 3);
        let r = seq(cfg, 17, 5);
        let out = compute_block(&e, &q, &r, None, BlockMode::Traceback).unwrap();
        let store = out.borders.unwrap();
        assert_eq!(store.tile_rows(), 3);
        assert_eq!(store.tile_cols(), 3);
        assert_eq!(store.input(0, 0).rows(), 8);
        assert_eq!(store.input(2, 2).rows(), 4); // 20 - 16
        assert_eq!(store.input(2, 2).cols(), 1); // 17 - 16
    }

    #[test]
    fn anchors_match_golden_matrix() {
        let cfg = AlignmentConfig::DnaGap; // VL = 16
        let e = engine(cfg);
        let scheme = cfg.scoring();
        let q = seq(cfg, 40, 7);
        let r = seq(cfg, 35, 3);
        let out = compute_block(&e, &q, &r, None, BlockMode::Traceback).unwrap();
        let store = out.borders.unwrap();
        let golden = dp::full_matrix(&q, &r, &scheme);
        for ti in 0..store.tile_rows() {
            for tj in 0..store.tile_cols() {
                assert_eq!(
                    store.anchor(ti, tj),
                    golden.get(ti * 16, tj * 16),
                    "anchor ({ti}, {tj})"
                );
            }
        }
    }

    #[test]
    fn borders_chain_across_split() {
        // Splitting the reference across two block computations must agree
        // with a single block.
        let cfg = AlignmentConfig::DnaEdit;
        let e = engine(cfg);
        let q = seq(cfg, 50, 7);
        let r = seq(cfg, 64, 11);
        let whole = compute_block(&e, &q, &r, None, BlockMode::ScoreOnly).unwrap();
        let left = compute_block(&e, &q, &r[..40], None, BlockMode::ScoreOnly).unwrap();
        let bb = BlockBorders::from_neighbors(vec![0; 24], left.right_dv.clone());
        let right = compute_block(&e, &q, &r[40..], Some(&bb), BlockMode::ScoreOnly).unwrap();
        assert_eq!(right.right_dv, whole.right_dv);
        assert_eq!(right.bottom_dh, whole.bottom_dh[40..].to_vec());
    }

    #[test]
    fn empty_block_rejected() {
        let e = engine(AlignmentConfig::DnaEdit);
        assert!(compute_block(&e, &[], &[0], None, BlockMode::ScoreOnly).is_err());
    }

    #[test]
    fn wrong_borders_rejected() {
        let e = engine(AlignmentConfig::DnaEdit);
        let bb = BlockBorders::fresh(3, 3);
        assert!(compute_block(&e, &[0, 1], &[0, 1], Some(&bb), BlockMode::ScoreOnly).is_err());
    }

    #[test]
    fn resilient_block_is_bit_exact_under_faults() {
        use crate::faults::{FaultPlan, FaultSession, RecoveryPolicy};
        let cfg = AlignmentConfig::DnaGap;
        let e = engine(cfg);
        let q = seq(cfg, 75, 7);
        let r = seq(cfg, 90, 11);
        let clean = compute_block(&e, &q, &r, None, BlockMode::Traceback).unwrap();
        for rate in [0.0, 0.05, 0.5, 1.0] {
            let plan = FaultPlan::new(99, rate);
            let mut s = FaultSession::new(plan, RecoveryPolicy::default());
            let out =
                compute_block_resilient(&e, &q, &r, None, BlockMode::Traceback, &mut s).unwrap();
            assert_eq!(out.score, clean.score, "rate {rate}");
            assert_eq!(out.bottom_dh, clean.bottom_dh, "rate {rate}");
            assert_eq!(out.right_dv, clean.right_dv, "rate {rate}");
            assert_eq!(out.borders, clean.borders, "rate {rate}");
            assert!(s.stats().invariants_hold(), "rate {rate}: {:?}", s.stats());
        }
    }

    #[test]
    fn tile_span_clamps_at_edges() {
        let cfg = AlignmentConfig::Ascii;
        let e = engine(cfg);
        let q = seq(cfg, 10, 3);
        let r = seq(cfg, 9, 5);
        let out = compute_block(&e, &q, &r, None, BlockMode::Traceback).unwrap();
        let store = out.borders.unwrap();
        let (rs, cs) = store.tile_span(1, 1);
        assert_eq!(rs, 8..10);
        assert_eq!(cs, 8..9);
    }
}
