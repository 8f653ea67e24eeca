//! Traceback with selective tile recomputation (paper §6, Fig. 8a), or
//! over a small block's kept cells.
//!
//! A block's border store holds only tile borders; the traceback walks
//! from the block's bottom-right corner, recomputing the interior of
//! exactly the tiles the optimal path crosses (green tiles in Fig. 8a)
//! and skipping the rest. A block that kept its cells
//! ([`crate::block::KEPT_CELL_BUDGET`]: an edit block's Myers words or a
//! lane block's Δ′ lanes) already holds every one, so
//! [`traceback_output`] walks them strip by strip and recomputes no
//! tile. Every region, a recomputed tile or a strip of kept cells, is
//! walked by one loop with the global tie-break (diagonal ≻ insert ≻
//! delete), comparing neighbouring scores through the region's deltas.
//!
//! Every tile is recomputed into one reused, stack-sized buffer, in the
//! layout its kernel leaves it in: diagonal-major lanes (two vector stores
//! per diagonal), or an edit tile's per-column Myers words, read by bit
//! tests. The walk reads tiles and kept strips through one accessor
//! ([`Cells`]), so the traceback allocates nothing per region; the CIGAR
//! is sized once for a path of at most `m + n` steps.

use crate::block::{BlockOutput, Kept, TileBorderStore};
use crate::control::CancelToken;
use crate::engine::SmxEngine;
use crate::faults::FaultSession;
use crate::kernel::{Cells, TileCells, MAX_VL};
use smx_align_core::{AlignError, Cigar, Op, ScoringScheme};

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

/// Traces back through a block's output: over its kept cells (Myers
/// words or Δ′ lanes) when it has them and no `session` is given,
/// recomputing nothing; otherwise through its border store with
/// [`traceback_block`].
///
/// # Errors
///
/// Returns [`AlignError::Internal`] if the block was computed score-only;
/// otherwise as [`traceback_block`].
pub fn traceback_output(
    engine: &SmxEngine,
    query: &[u8],
    reference: &[u8],
    output: &BlockOutput,
    session: Option<&mut FaultSession>,
    control: Option<&CancelToken>,
) -> Result<(Cigar, RecomputeStats), AlignError> {
    let store = output
        .borders
        .as_ref()
        .ok_or_else(|| AlignError::Internal("block was computed in score-only mode".into()))?;
    match (store.kept(), session) {
        (Some(kept), None) => walk_kept(engine, query, reference, store, kept, control),
        (_, session) => traceback_block(engine, query, reference, store, session, control),
    }
}

/// Traces back through a block computed in [`crate::BlockMode::Traceback`]
/// mode, recomputing every tile the path crosses from its stored borders.
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
    check_dims(query, reference, store)?;
    let scheme = engine.scheme();
    let vl = store.vl();
    let epoch = session.as_mut().map_or(0, |s| s.begin_epoch());
    // The recompute buffer is reused by every tile.
    let mut cells = TileCells::new();
    trace(store.block_dims(), control, |(gi, gj), cigar, stats| {
        let (ti, tj) = ((gi - 1) / vl, (gj - 1) / vl);
        let (rspan, cspan) = store.tile_span(ti, tj);
        let (rows, cols) = (rspan.len(), cspan.len());
        let (mut dv_stored, mut dh_stored) = ([0u8; MAX_VL], [0u8; MAX_VL]);
        let (dv, dh) = (&mut dv_stored[..rows], &mut dh_stored[..cols]);
        store.read_input(ti, tj, dv, dh);
        let (mut dv_read, mut dh_read) = ([0u8; MAX_VL], [0u8; MAX_VL]);
        let (dv_left, dh_top) = match session.as_mut() {
            Some(s) => {
                let (dv_read, dh_read) = (&mut dv_read[..rows], &mut dh_read[..cols]);
                s.fetch_input(epoch, ti, tj, dv, dh, dv_read, dh_read)?;
                (&*dv_read, &*dh_read)
            }
            None => (&*dv, &*dh),
        };
        let (q_seg, r_seg) = (&query[rspan.clone()], &reference[cspan.clone()]);
        engine.recompute_tile(q_seg, r_seg, dv_left, dh_top, &mut cells)?;
        stats.tiles += 1;
        stats.elements += (rows * cols) as u64;
        let region = Region { cells: &cells, q: q_seg, r: r_seg, top: |j| dh_top[j] };
        let (li, lj) = region.walk(scheme, (gi - rspan.start, gj - cspan.start), cigar, stats)?;
        Ok((rspan.start + li, cspan.start + lj))
    })
}

/// Traces back through a block's kept cells, recomputing no tile.
fn walk_kept(
    engine: &SmxEngine,
    query: &[u8],
    reference: &[u8],
    store: &TileBorderStore,
    kept: &Kept,
    control: Option<&CancelToken>,
) -> Result<(Cigar, RecomputeStats), AlignError> {
    check_dims(query, reference, store)?;
    let walk = Strips { scheme: engine.scheme(), query, reference, top: store.top(), control };
    match kept {
        Kept::Words(words) => walk.walk(words.rows, |s| words.strip(s)),
        Kept::Lanes(lanes) => walk.walk(lanes.rows(), |s| lanes.strip(s)),
    }
}

/// A walk over a block's kept strips.
struct Strips<'a> {
    scheme: &'a ScoringScheme,
    query: &'a [u8],
    reference: &'a [u8],
    /// The block's top border.
    top: &'a [u8],
    control: Option<&'a CancelToken>,
}

impl Strips<'_> {
    /// Walks strips of `rows` rows (the last may have fewer), strip `s`'s
    /// cells `strip(s)`: each strip is one region across the whole block,
    /// entered from the strip above it (or, for the first, from the
    /// block's top border). `control` is checked before every strip.
    fn walk<C: Cells>(
        &self,
        rows: usize,
        strip: impl Fn(usize) -> C,
    ) -> Result<(Cigar, RecomputeStats), AlignError> {
        let (m, n) = (self.query.len(), self.reference.len());
        trace((m, n), self.control, |(gi, gj), cigar, stats| {
            let s = (gi - 1) / rows;
            let r0 = s * rows;
            let above = s.checked_sub(1).map(&strip);
            let top = |j| above.as_ref().map_or(self.top[j], |above| above.dh(rows - 1, j));
            let q_seg = &self.query[r0..m.min(r0 + rows)];
            let region = Region { cells: &strip(s), q: q_seg, r: self.reference, top };
            let (li, lj) = region.walk(self.scheme, (gi - r0, gj), cigar, stats)?;
            Ok((r0 + li, lj))
        })
    }
}

/// Whether `query` and `reference` have the stored block's dimensions.
fn check_dims(query: &[u8], reference: &[u8], store: &TileBorderStore) -> Result<(), AlignError> {
    let (m, n) = store.block_dims();
    if query.len() != m || reference.len() != n {
        return Err(AlignError::Internal(format!(
            "sequences ({}, {}) do not match stored block ({m}, {n})",
            query.len(),
            reference.len()
        )));
    }
    Ok(())
}

/// The walk from the bottom-right corner of an `m × n` block: `region`
/// takes the path through the region holding global cell `(gi, gj)` and
/// returns where it left it, until the path reaches the top row or left
/// column; the rest is one gap run. `control` is checked before every
/// region.
fn trace(
    (m, n): (usize, usize),
    control: Option<&CancelToken>,
    mut region: impl FnMut(
        (usize, usize),
        &mut Cigar,
        &mut RecomputeStats,
    ) -> Result<(usize, usize), AlignError>,
) -> Result<(Cigar, RecomputeStats), AlignError> {
    let mut stats = RecomputeStats::default();
    // A path takes at most `m + n` steps, so this is the CIGAR's only
    // growth.
    let mut cigar = Cigar::with_capacity(m + n);
    let (mut gi, mut gj) = (m, n);
    while gi > 0 && gj > 0 {
        // Region boundary: the cooperative cancellation / deadline hook.
        if let Some(token) = control {
            token.check()?;
        }
        (gi, gj) = region((gi, gj), &mut cigar, &mut stats)?;
    }
    cigar.push_run(Op::Delete, gj as u32);
    cigar.push_run(Op::Insert, gi as u32);
    stats.steps += (gi + gj) as u64;
    cigar.reverse();
    Ok((cigar, stats))
}

/// One region of a walk: its cells, its query rows and reference
/// columns, and `top(j)`, the Δh′ entering its column `j` from above.
struct Region<'a, C: ?Sized, T> {
    cells: &'a C,
    q: &'a [u8],
    r: &'a [u8],
    top: T,
}

impl<C: Cells + ?Sized, T: Fn(usize) -> u8> Region<'_, C, T> {
    /// Walks from local cell `(li, lj)` until the path leaves through the
    /// region's top or left edge, and returns where it left.
    ///
    /// The tie-break compares absolute scores, but every comparison is a
    /// difference of neighbours, i.e. the region's own deltas:
    /// M(i,j) − M(i−1,j) = Δv′ + I, M(i,j) − M(i,j−1) = Δh′ + D, and
    /// M(i,j) − M(i−1,j−1) = (Δv′ + I) + (Δh′ above + D), where the row
    /// above the first is the region's top border.
    #[inline]
    fn walk(
        &self,
        scheme: &ScoringScheme,
        (mut li, mut lj): (usize, usize),
        cigar: &mut Cigar,
        stats: &mut RecomputeStats,
    ) -> Result<(usize, usize), AlignError> {
        let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
        while li > 0 && lj > 0 {
            stats.steps += 1;
            let (qc, rc) = (self.q[li - 1], self.r[lj - 1]);
            let dv = i32::from(self.cells.dv(li - 1, lj - 1));
            let dh = i32::from(self.cells.dh(li - 1, lj - 1));
            let dh_above =
                i32::from(if li == 1 { (self.top)(lj - 1) } else { self.cells.dh(li - 2, lj - 1) });
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
                    "broken traceback at region cell ({li}, {lj})"
                )));
            }
        }
        Ok((li, lj))
    }
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
