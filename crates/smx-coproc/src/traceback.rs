//! Traceback with selective tile recomputation (paper §6, Fig. 8a).
//!
//! The coprocessor stores only tile borders; the traceback walks from the
//! block's bottom-right corner, recomputing the interior of exactly the
//! tiles the optimal path crosses (green tiles in Fig. 8a) and skipping
//! the rest. Each recomputed tile is walked with the global tie-break
//! (diagonal ≻ insert ≻ delete), comparing neighbouring scores through
//! the tile's deltas.
//!
//! Every tile is recomputed into one reused, stack-sized buffer, in the
//! layout its kernel leaves it in: diagonal-major lanes (two vector stores
//! per diagonal), or an edit tile's per-column Myers words, read by bit
//! tests. The walk reads either through one accessor, so the traceback
//! allocates nothing per tile; the CIGAR is sized once for a path of at
//! most `m + n` steps.

use crate::block::TileBorderStore;
use crate::control::CancelToken;
use crate::engine::SmxEngine;
use crate::faults::FaultSession;
use crate::kernel::{TileCells, MAX_VL};
use smx_align_core::{AlignError, Cigar, Op};

/// Work performed by a traceback (for Fig. 2's cells-computed accounting
/// and the CPU-side timing of the SMX-2D-only implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecomputeStats {
    /// Tiles recomputed.
    pub tiles: u64,
    /// DP-elements recomputed.
    pub elements: u64,
    /// Traceback steps taken.
    pub steps: u64,
}

/// Traces back through a block computed in [`crate::BlockMode::Traceback`]
/// mode.
///
/// `query`/`reference` must be the same slices the block was computed
/// from. With a `session`, every stored border the traceback re-reads
/// crosses the (possibly faulty) L2 port and is verified against the
/// checksum recorded when the worker stored it (see [`crate::faults`]);
/// `control` is checked before every tile recomputation. Returns the CIGAR
/// (left-to-right) and recomputation statistics.
///
/// # Errors
///
/// Returns [`AlignError::Internal`] if the store is inconsistent with the
/// sequences or the walk breaks (both indicate a bug upstream);
/// [`AlignError::RecoveryExhausted`] when a border read cannot be
/// recovered under the session's policy, and [`AlignError::Cancelled`] /
/// [`AlignError::DeadlineExceeded`] when the token fires.
pub fn traceback_block(
    engine: &SmxEngine,
    query: &[u8],
    reference: &[u8],
    store: &TileBorderStore,
    mut session: Option<&mut FaultSession>,
    control: Option<&CancelToken>,
) -> Result<(Cigar, RecomputeStats), AlignError> {
    let (m, n) = store.block_dims();
    if query.len() != m || reference.len() != n {
        return Err(AlignError::Internal(format!(
            "sequences ({}, {}) do not match stored block ({m}, {n})",
            query.len(),
            reference.len()
        )));
    }
    let scheme = engine.scheme();
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
    let vl = store.vl();
    let epoch = session.as_mut().map_or(0, |s| s.begin_epoch());
    let mut stats = RecomputeStats::default();
    // A path takes at most `m + n` steps, so this is the CIGAR's only
    // growth, and the recompute buffer is reused by every tile.
    let mut cigar = Cigar::with_capacity(m + n);
    let mut cells = TileCells::new();
    let mut gi_pos = m; // global row (cells consumed from query)
    let mut gj_pos = n; // global column

    while gi_pos > 0 || gj_pos > 0 {
        if gi_pos == 0 {
            cigar.push_run(Op::Delete, gj_pos as u32);
            stats.steps += gj_pos as u64;
            break;
        }
        if gj_pos == 0 {
            cigar.push_run(Op::Insert, gi_pos as u32);
            stats.steps += gi_pos as u64;
            break;
        }
        // Tile boundary: the cooperative cancellation / deadline hook.
        if let Some(token) = control {
            token.check()?;
        }
        let ti = (gi_pos - 1) / vl;
        let tj = (gj_pos - 1) / vl;
        let (rspan, cspan) = store.tile_span(ti, tj);
        let (rows, cols) = (rspan.len(), cspan.len());
        let (mut dv_read, mut dh_read) = ([0u8; MAX_VL], [0u8; MAX_VL]);
        let (dv_left, dh_top) = match session.as_mut() {
            Some(s) => {
                let (dv, dh) = store.input(ti, tj);
                let (dv_read, dh_read) = (&mut dv_read[..rows], &mut dh_read[..cols]);
                s.fetch_input(epoch, ti, tj, dv, dh, dv_read, dh_read)?;
                (&*dv_read, &*dh_read)
            }
            None => store.input(ti, tj),
        };
        let q_seg = &query[rspan.clone()];
        let r_seg = &reference[cspan.clone()];
        engine.recompute_tile(q_seg, r_seg, dv_left, dh_top, &mut cells)?;
        stats.tiles += 1;
        stats.elements += (rows * cols) as u64;

        // Walk within the tile until we leave through its top or left edge.
        // The tie-break compares absolute scores, but every comparison is
        // a difference of neighbours, i.e. the tile's own deltas:
        // M(i,j) − M(i−1,j) = Δv′ + I, M(i,j) − M(i,j−1) = Δh′ + D, and
        // M(i,j) − M(i−1,j−1) = (Δv′ + I) + (Δh′ above + D), where the
        // row above the first is the tile's top border.
        let mut li = gi_pos - rspan.start;
        let mut lj = gj_pos - cspan.start;
        while li > 0 && lj > 0 {
            stats.steps += 1;
            let (qc, rc) = (q_seg[li - 1], r_seg[lj - 1]);
            let dv = i32::from(cells.dv(li - 1, lj - 1));
            let dh = i32::from(cells.dh(li - 1, lj - 1));
            let dh_above =
                i32::from(if li == 1 { dh_top[lj - 1] } else { cells.dh(li - 2, lj - 1) });
            if dv + gi + dh_above + gd == scheme.score(qc, rc) {
                cigar.push(if qc == rc { Op::Match } else { Op::Mismatch });
                li -= 1;
                lj -= 1;
            } else if dv == 0 {
                cigar.push(Op::Insert);
                li -= 1;
            } else if dh == 0 {
                cigar.push(Op::Delete);
                lj -= 1;
            } else {
                return Err(AlignError::Internal(format!(
                    "broken tile traceback at global ({gi_pos}, {gj_pos})"
                )));
            }
            gi_pos = rspan.start + li;
            gj_pos = cspan.start + lj;
        }
    }
    cigar.reverse();
    Ok((cigar, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{compute_block, BlockMode};
    use proptest::prelude::*;
    use smx_align_core::{dp, AlignmentConfig};

    fn engine(cfg: AlignmentConfig) -> SmxEngine {
        SmxEngine::new(cfg.element_width(), &cfg.scoring()).unwrap()
    }

    fn seq(cfg: AlignmentConfig, len: usize, stride: u32) -> Vec<u8> {
        let card = cfg.alphabet().cardinality() as u32;
        (0..len as u32)
            .map(|i| (i.wrapping_mul(stride).wrapping_add(i >> 3) % card) as u8)
            .collect()
    }

    fn roundtrip(cfg: AlignmentConfig, q: &[u8], r: &[u8]) {
        let e = engine(cfg);
        let scheme = cfg.scoring();
        let out = compute_block(&e, q, r, None, BlockMode::Traceback, None, None).unwrap();
        let store = out.borders.as_ref().unwrap();
        let (cigar, stats) = traceback_block(&e, q, r, store, None, None).unwrap();
        let golden = dp::align_codes(q, r, &scheme);
        assert_eq!(out.score, golden.score, "{cfg}: score");
        let rescored = cigar.score(q, r, &scheme).unwrap();
        assert_eq!(rescored, golden.score, "{cfg}: cigar score");
        assert!(stats.tiles >= 1);
        // The path can cross at most (tile_rows + tile_cols) tiles plus
        // revisits when it re-enters a tile after a detour; bound loosely.
        assert!(stats.steps as usize >= q.len().max(r.len()));
    }

    #[test]
    fn traceback_matches_golden_all_configs() {
        for cfg in AlignmentConfig::ALL {
            let q = seq(cfg, 70, 7);
            let r = seq(cfg, 61, 5);
            roundtrip(cfg, &q, &r);
        }
    }

    #[test]
    fn traceback_single_tile() {
        let cfg = AlignmentConfig::DnaEdit;
        roundtrip(cfg, &seq(cfg, 8, 3), &seq(cfg, 6, 5));
    }

    #[test]
    fn traceback_tall_and_wide_blocks() {
        let cfg = AlignmentConfig::Ascii;
        roundtrip(cfg, &seq(cfg, 40, 13), &seq(cfg, 5, 9));
        roundtrip(cfg, &seq(cfg, 5, 13), &seq(cfg, 40, 9));
    }

    #[test]
    fn recompute_is_selective() {
        // Identical sequences: the path is the main diagonal, so only the
        // diagonal tiles are recomputed.
        let cfg = AlignmentConfig::DnaEdit; // VL = 32
        let e = engine(cfg);
        let q = seq(cfg, 128, 7);
        let out = compute_block(&e, &q, &q, None, BlockMode::Traceback, None, None).unwrap();
        let store = out.borders.as_ref().unwrap();
        let (cigar, stats) = traceback_block(&e, &q, &q, store, None, None).unwrap();
        assert_eq!(cigar.to_string(), "128=");
        assert_eq!(stats.tiles, 4, "only the 4 diagonal tiles");
        // 16 tiles exist; we recomputed a quarter of the block.
        assert_eq!(stats.elements, 4 * 32 * 32);
    }

    #[test]
    fn cigar_is_byte_identical_to_golden() {
        // The shared tie-break (diagonal ≻ insert ≻ delete) makes the tile
        // traceback's CIGAR identical to the golden model's — which is
        // what lets the software fallback preserve byte-identical output.
        for cfg in AlignmentConfig::ALL {
            let e = engine(cfg);
            let q = seq(cfg, 70, 7);
            let r = seq(cfg, 61, 5);
            let out = compute_block(&e, &q, &r, None, BlockMode::Traceback, None, None).unwrap();
            let store = out.borders.as_ref().unwrap();
            let (cigar, _) = traceback_block(&e, &q, &r, store, None, None).unwrap();
            let golden = dp::align_codes(&q, &r, &cfg.scoring());
            assert_eq!(cigar.to_string(), golden.cigar.to_string(), "{cfg}");
        }
    }

    #[test]
    fn resilient_traceback_is_byte_identical_under_faults() {
        use crate::faults::{FaultPlan, FaultSession, RecoveryPolicy};
        let cfg = AlignmentConfig::DnaGap;
        let e = engine(cfg);
        let q = seq(cfg, 70, 7);
        let r = seq(cfg, 61, 5);
        let out = compute_block(&e, &q, &r, None, BlockMode::Traceback, None, None).unwrap();
        let store = out.borders.as_ref().unwrap();
        let (clean, _) = traceback_block(&e, &q, &r, store, None, None).unwrap();
        for rate in [0.01, 0.2, 1.0] {
            let mut s = FaultSession::new(FaultPlan::new(17, rate), RecoveryPolicy::default());
            let (cigar, _) = traceback_block(&e, &q, &r, store, Some(&mut s), None).unwrap();
            assert_eq!(cigar.to_string(), clean.to_string(), "rate {rate}");
            assert!(s.stats().invariants_hold(), "rate {rate}: {:?}", s.stats());
        }
    }

    #[test]
    fn mismatched_sequences_rejected() {
        let cfg = AlignmentConfig::DnaEdit;
        let e = engine(cfg);
        let q = seq(cfg, 16, 3);
        let out = compute_block(&e, &q, &q, None, BlockMode::Traceback, None, None).unwrap();
        let store = out.borders.unwrap();
        assert!(traceback_block(&e, &q[..8], &q, &store, None, None).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_blocks_roundtrip(
            q in proptest::collection::vec(0u8..4, 1..90),
            r in proptest::collection::vec(0u8..4, 1..90),
        ) {
            let cfg = AlignmentConfig::DnaGap;
            let e = engine(cfg);
            let scheme = cfg.scoring();
            let out = compute_block(&e, &q, &r, None, BlockMode::Traceback, None, None).unwrap();
            let store = out.borders.as_ref().unwrap();
            let (cigar, _) = traceback_block(&e, &q, &r, store, None, None).unwrap();
            let golden = dp::score_only(&q, &r, &scheme);
            prop_assert_eq!(out.score, golden);
            prop_assert_eq!(cigar.score(&q, &r, &scheme).unwrap(), golden);
        }
    }
}
