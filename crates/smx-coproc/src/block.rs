//! DP-block computation on the coprocessor (paper §5.1): the SMX-worker
//! sweeps the tile grid and keeps only tile borders, from which the
//! traceback recomputes any tile it crosses.

use std::cell::Cell;

use crate::control::CancelToken;
use crate::engine::SmxEngine;
use crate::faults::FaultSession;
use crate::kernel::{self, LaneKernel, Planes, Strips};
use crate::worker::{block_transfer_stats, TransferStats};
use smx_align_core::AlignError;
use smx_diffenc::boundary::BlockBorders;

/// What the coprocessor retains from a block computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockMode {
    /// Keep only the output borders (score-only use cases).
    ScoreOnly,
    /// Additionally keep every tile's input borders so the core can
    /// recompute tiles along the traceback path.
    Traceback,
}

/// Stored tile input borders enabling selective recomputation (paper
/// Fig. 8a), as two flat border planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileBorderStore {
    vl: usize,
    m: usize,
    n: usize,
    t_rows: usize,
    t_cols: usize,
    /// `t_cols × m`: the Δv′ entering each tile column, one block-height
    /// column per tile column.
    dv: Vec<u8>,
    /// `t_rows × n`: the Δh′ entering each tile row, one block-width row
    /// per tile row.
    dh: Vec<u8>,
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

    /// Input borders of tile `(ti, tj)`: the Δv′ entering each of its
    /// rows from the left and the Δh′ entering each of its columns from
    /// the top.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn input(&self, ti: usize, tj: usize) -> (&[u8], &[u8]) {
        assert!(ti < self.t_rows && tj < self.t_cols);
        let (rs, cs) = self.tile_span(ti, tj);
        (&self.dv[tj * self.m..][rs], &self.dh[ti * self.n..][cs])
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

thread_local! {
    /// The border planes of this thread's last traceback-mode block,
    /// handed back when its store dropped: one slot, reused by the next
    /// block that fits, so a thread aligning pair after pair does not
    /// map and fault fresh planes every block.
    static SPARE_PLANES: Cell<Option<(Vec<u8>, Vec<u8>)>> = const { Cell::new(None) };
}

/// Two zeroed planes of `dv_len` and `dh_len` bytes: this thread's
/// spare pair when both are large enough, else fresh ones (a spare too
/// small is freed first, so the two never coexist).
fn border_planes(dv_len: usize, dh_len: usize) -> (Vec<u8>, Vec<u8>) {
    let fits = |(dv, dh): &(Vec<u8>, Vec<u8>)| dv.capacity() >= dv_len && dh.capacity() >= dh_len;
    let spare = SPARE_PLANES.try_with(Cell::take).ok().flatten().filter(fits);
    let Some((mut dv, mut dh)) = spare else {
        return (vec![0u8; dv_len], vec![0u8; dh_len]);
    };
    dv.clear();
    dv.resize(dv_len, 0);
    dh.clear();
    dh.resize(dh_len, 0);
    (dv, dh)
}

impl Drop for TileBorderStore {
    fn drop(&mut self) {
        let planes = (std::mem::take(&mut self.dv), std::mem::take(&mut self.dh));
        if planes.0.capacity() > 0 {
            // Replacing the slot frees whatever spare it held.
            let _ = SPARE_PLANES.try_with(|spare| spare.set(Some(planes)));
        }
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
/// `input` borders of `None` mean a fresh, origin-anchored block. Without
/// a `session` the block runs strip by strip on every lane kernel (see
/// `kernel.rs`): `control` is checked whole before each strip, so its
/// deadline fires within one strip of at most 64 rows, and its cancel
/// flag alone every `VL` diagonals inside it. With a `session`, every
/// tile runs through its checksum/watchdog/retry/fallback machinery (see
/// [`crate::faults`]) and `control` is checked at every tile boundary.
///
/// # Errors
///
/// Returns [`AlignError::EmptySequence`] on empty inputs and
/// [`AlignError::Internal`] on border-length mismatches; propagates engine
/// errors; returns [`AlignError::RecoveryExhausted`] when a tile cannot be
/// recovered under the session's policy, and [`AlignError::Cancelled`] /
/// [`AlignError::DeadlineExceeded`] when the token fires.
pub fn compute_block(
    engine: &SmxEngine,
    query: &[u8],
    reference: &[u8],
    input: Option<&BlockBorders>,
    mode: BlockMode,
    session: Option<&mut FaultSession>,
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
    let vl = engine.tile_dim();
    let t_rows = m.div_ceil(vl);
    let t_cols = n.div_ceil(vl);

    // The carried borders, advanced in place strip by strip (or tile by
    // tile): `dh_carry` ends as the block's bottom row, and each tile
    // row's slice of `right_dv` starts as the block's left border and
    // ends as its right.
    let mut dh_carry: Vec<u8> = borders.top_dh.clone();
    let mut right_dv: Vec<u8> = borders.left_dv.clone();
    let keep = mode == BlockMode::Traceback;
    let (mut dv_plane, mut dh_plane) =
        if keep { border_planes(t_cols * m, t_rows * n) } else { (Vec::new(), Vec::new()) };
    if let Some(session) = session {
        let epoch = session.begin_epoch();
        for ti in 0..t_rows {
            let r0 = ti * vl;
            let rows = (m - r0).min(vl);
            let q_seg = &query[r0..r0 + rows];
            let dv_carry = &mut right_dv[r0..r0 + rows];
            for tj in 0..t_cols {
                // Tile boundary: the cooperative cancellation / deadline
                // hook (same granularity as the fault watchdog).
                if let Some(token) = control {
                    token.check()?;
                }
                let c0 = tj * vl;
                let cols = (n - c0).min(vl);
                let r_seg = &reference[c0..c0 + cols];
                let dh_top = &mut dh_carry[c0..c0 + cols];
                if keep {
                    dv_plane[tj * m + r0..][..rows].copy_from_slice(dv_carry);
                    dh_plane[ti * n + c0..][..cols].copy_from_slice(dh_top);
                }
                session.run_tile(engine, q_seg, r_seg, dv_carry, dh_top, epoch, ti, tj)?;
            }
        }
    } else {
        // Tile column 0 and tile row 0 of the planes are the block's
        // own borders as they came in, before the sweep masks them; the
        // sweep fills the rest.
        let planes = keep.then(|| {
            dv_plane[..m].copy_from_slice(&right_dv);
            dh_plane[..n].copy_from_slice(&dh_carry);
            Planes { dv: &mut dv_plane, dh: &mut dh_plane }
        });
        let mut job = Strips {
            engine,
            q: query,
            r: reference,
            dv: &mut right_dv,
            dh: &mut dh_carry,
            planes,
            control,
        };
        kernel::block(LaneKernel::current(), &mut job)?;
    }

    let top_sum: i32 = borders.top_dh.iter().map(|&d| i32::from(d) + scheme.gap_delete()).sum();
    let right_sum: i32 = right_dv.iter().map(|&d| i32::from(d) + scheme.gap_insert()).sum();
    let stats = block_transfer_stats(m, n, engine.ew(), mode);

    Ok(BlockOutput {
        score: top_sum + right_sum,
        bottom_dh: dh_carry,
        right_dv,
        borders: keep.then_some(TileBorderStore {
            vl,
            m,
            n,
            t_rows,
            t_cols,
            dv: dv_plane,
            dh: dh_plane,
        }),
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
            let out = compute_block(&e, &q, &r, None, BlockMode::ScoreOnly, None, None).unwrap();
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
        let out = compute_block(&e, &q, &r, None, BlockMode::Traceback, None, None).unwrap();
        let store = out.borders.unwrap();
        assert_eq!(store.tile_rows(), 3);
        assert_eq!(store.tile_cols(), 3);
        assert_eq!(store.input(0, 0).0.len(), 8);
        assert_eq!(store.input(2, 2).0.len(), 4); // 20 - 16
        assert_eq!(store.input(2, 2).1.len(), 1); // 17 - 16
    }

    #[test]
    fn borders_chain_across_split() {
        // Splitting the reference across two block computations must agree
        // with a single block.
        let cfg = AlignmentConfig::DnaEdit;
        let e = engine(cfg);
        let q = seq(cfg, 50, 7);
        let r = seq(cfg, 64, 11);
        let whole = compute_block(&e, &q, &r, None, BlockMode::ScoreOnly, None, None).unwrap();
        let left = compute_block(&e, &q, &r[..40], None, BlockMode::ScoreOnly, None, None).unwrap();
        let bb = BlockBorders::from_neighbors(vec![0; 24], left.right_dv.clone());
        let right =
            compute_block(&e, &q, &r[40..], Some(&bb), BlockMode::ScoreOnly, None, None).unwrap();
        assert_eq!(right.right_dv, whole.right_dv);
        assert_eq!(right.bottom_dh, whole.bottom_dh[40..].to_vec());
    }

    #[test]
    fn empty_block_rejected() {
        let e = engine(AlignmentConfig::DnaEdit);
        assert!(compute_block(&e, &[], &[0], None, BlockMode::ScoreOnly, None, None).is_err());
    }

    #[test]
    fn wrong_borders_rejected() {
        let e = engine(AlignmentConfig::DnaEdit);
        let bb = BlockBorders::fresh(3, 3);
        assert!(compute_block(&e, &[0, 1], &[0, 1], Some(&bb), BlockMode::ScoreOnly, None, None)
            .is_err());
    }

    #[test]
    fn resilient_block_is_bit_exact_under_faults() {
        use crate::faults::{FaultPlan, FaultSession, RecoveryPolicy};
        let cfg = AlignmentConfig::DnaGap;
        let e = engine(cfg);
        let q = seq(cfg, 75, 7);
        let r = seq(cfg, 90, 11);
        let clean = compute_block(&e, &q, &r, None, BlockMode::Traceback, None, None).unwrap();
        for rate in [0.0, 0.05, 0.5, 1.0] {
            let plan = FaultPlan::new(99, rate);
            let mut s = FaultSession::new(plan, RecoveryPolicy::default());
            let out =
                compute_block(&e, &q, &r, None, BlockMode::Traceback, Some(&mut s), None).unwrap();
            assert_eq!(out.score, clean.score, "rate {rate}");
            assert_eq!(out.bottom_dh, clean.bottom_dh, "rate {rate}");
            assert_eq!(out.right_dv, clean.right_dv, "rate {rate}");
            assert_eq!(out.borders, clean.borders, "rate {rate}");
            assert!(s.stats().invariants_hold(), "rate {rate}: {:?}", s.stats());
        }
    }

    /// Every lane kernel, the portable one included, sweeps whole strips
    /// through `kernel::block`: a block of several strips leaves the
    /// reference's output borders and border planes in both plane modes.
    #[test]
    fn every_lane_kernel_sweeps_strips_to_the_reference() {
        use crate::kernel::supported;
        use smx_diffenc::delta::DeltaBlock;
        for cfg in AlignmentConfig::ALL {
            let e = engine(cfg);
            let (q, r) = (seq(cfg, 150, 7), seq(cfg, 130, 11));
            let (m, n, vl) = (q.len(), r.len(), e.tile_dim());
            let (top, left) = DeltaBlock::fresh_borders(m, n);
            let whole =
                DeltaBlock::compute(cfg.element_width(), &q, &r, &cfg.scoring(), &top, &left)
                    .unwrap();
            // Tile column `k / m`'s entering Δv′ and tile row `k / n`'s
            // entering Δh′.
            let want_dv: Vec<u8> = (0..n.div_ceil(vl) * m)
                .map(|k| match (k / m, k % m) {
                    (0, i) => left[i],
                    (tj, i) => whole.dv(i, tj * vl - 1),
                })
                .collect();
            let want_dh: Vec<u8> = (0..m.div_ceil(vl) * n)
                .map(|k| match (k / n, k % n) {
                    (0, j) => top[j],
                    (ti, j) => whole.dh(ti * vl - 1, j),
                })
                .collect();
            for kernel in supported() {
                for keep in [false, true] {
                    let ctx = format!("{kernel:?} {cfg} planes {keep}");
                    let (mut dv, mut dh) = (left.clone(), top.clone());
                    let mut dv_plane = vec![0u8; want_dv.len()];
                    let mut dh_plane = vec![0u8; want_dh.len()];
                    dv_plane[..m].copy_from_slice(&left);
                    dh_plane[..n].copy_from_slice(&top);
                    let planes = keep.then(|| Planes { dv: &mut dv_plane, dh: &mut dh_plane });
                    let mut job = Strips {
                        engine: &e,
                        q: &q,
                        r: &r,
                        dv: &mut dv,
                        dh: &mut dh,
                        planes,
                        control: None,
                    };
                    kernel::block(kernel, &mut job).unwrap_or_else(|err| panic!("{ctx}: {err}"));
                    assert_eq!(dv, whole.right_dv(), "{ctx}");
                    assert_eq!(dh, whole.bottom_dh(), "{ctx}");
                    if keep {
                        assert_eq!(dv_plane, want_dv, "{ctx}");
                        assert_eq!(dh_plane, want_dh, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn tile_span_clamps_at_edges() {
        let cfg = AlignmentConfig::Ascii;
        let e = engine(cfg);
        let q = seq(cfg, 10, 3);
        let r = seq(cfg, 9, 5);
        let out = compute_block(&e, &q, &r, None, BlockMode::Traceback, None, None).unwrap();
        let store = out.borders.unwrap();
        let (rs, cs) = store.tile_span(1, 1);
        assert_eq!(rs, 8..10);
        assert_eq!(cs, 8..9);
    }
}
