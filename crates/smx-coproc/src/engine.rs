//! The SMX-engine (paper §5.2): a 2D array of SMX-PEs computing one
//! `VL × VL` DP-tile per cycle, with per-EW geometry (32×32, 16×16,
//! 10×10, 8×8) and the pipeline depths of the 1 GHz design point.

use crate::kernel::{self, Cells, TileCells, MAX_VL};
use smx_align_core::{AlignError, ElementWidth, ScoringScheme};
use smx_diffenc::delta::DeltaBlock;
use smx_isa::config::SmxConfig;

/// Functional model of the SMX-engine compute array.
///
/// Holds the validated configuration and scoring scheme (the hardware
/// keeps the substitution matrix in registers so ten columns can be read
/// per cycle — functionally equivalent to a scheme lookup).
#[derive(Debug, Clone)]
pub struct SmxEngine {
    ew: ElementWidth,
    scheme: ScoringScheme,
}

impl SmxEngine {
    /// Builds an engine for `ew` and `scheme`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors (theta overflow,
    /// non-encodable scheme).
    pub fn new(ew: ElementWidth, scheme: &ScoringScheme) -> Result<SmxEngine, AlignError> {
        let _ = SmxConfig::from_scheme(ew, scheme)?;
        Ok(SmxEngine { ew, scheme: scheme.clone() })
    }

    /// The configured element width.
    #[must_use]
    pub fn ew(&self) -> ElementWidth {
        self.ew
    }

    /// The scoring scheme.
    #[must_use]
    pub fn scheme(&self) -> &ScoringScheme {
        &self.scheme
    }

    /// Tile side length (`VL`).
    #[must_use]
    pub fn tile_dim(&self) -> usize {
        self.ew.vl()
    }

    /// Pipeline depth in cycles at the 1 GHz design point.
    #[must_use]
    pub fn pipeline_depth(&self) -> u32 {
        self.ew.engine_pipeline_depth()
    }

    /// Peak DP-elements per cycle (`VL²`): 1024 / 256 / 100 / 64.
    #[must_use]
    pub fn peak_elements_per_cycle(&self) -> u32 {
        (self.tile_dim() * self.tile_dim()) as u32
    }

    /// Computes one tile over caller-owned borders: `dv` enters as the
    /// left border and leaves as the right one, `dh` enters as the top
    /// border and leaves as the bottom one. Allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::Internal`] if the segment lengths disagree
    /// with the borders or exceed `VL`.
    pub fn compute_tile(
        &self,
        q_seg: &[u8],
        r_seg: &[u8],
        dv: &mut [u8],
        dh: &mut [u8],
    ) -> Result<(), AlignError> {
        self.check_tile(q_seg, r_seg, dv.len(), dh.len())?;
        kernel::tile(self.ew, &self.scheme, q_seg, r_seg, dv, dh, None);
        Ok(())
    }

    /// Computes one tile from its input borders keeping the full interior,
    /// row-major: the cells the traceback walks, read out of its
    /// recompute buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmxEngine::compute_tile`].
    pub fn compute_tile_full(
        &self,
        q_seg: &[u8],
        r_seg: &[u8],
        dv_left: &[u8],
        dh_top: &[u8],
    ) -> Result<DeltaBlock, AlignError> {
        let mut cells = TileCells::new();
        self.recompute_tile(q_seg, r_seg, dv_left, dh_top, &mut cells)?;
        let (m, n) = (q_seg.len(), r_seg.len());
        let row_major = |cell: fn(&TileCells, usize, usize) -> u8| -> Vec<u8> {
            (0..m * n).map(|k| cell(&cells, k / n, k % n)).collect()
        };
        Ok(DeltaBlock::from_interior(m, n, row_major(TileCells::dv), row_major(TileCells::dh)))
    }

    /// Recomputes one tile from its input borders into `cells` (the
    /// traceback path). Allocates nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmxEngine::compute_tile`].
    pub(crate) fn recompute_tile(
        &self,
        q_seg: &[u8],
        r_seg: &[u8],
        dv_left: &[u8],
        dh_top: &[u8],
        cells: &mut TileCells,
    ) -> Result<(), AlignError> {
        self.check_tile(q_seg, r_seg, dv_left.len(), dh_top.len())?;
        let (mut left, mut top) = ([0u8; MAX_VL], [0u8; MAX_VL]);
        let (left, top) = (&mut left[..q_seg.len()], &mut top[..r_seg.len()]);
        left.copy_from_slice(dv_left);
        top.copy_from_slice(dh_top);
        kernel::tile(self.ew, &self.scheme, q_seg, r_seg, left, top, Some(cells));
        Ok(())
    }

    /// Checks a tile's segments against `VL` and its border lengths. The
    /// scheme itself was validated once, in [`SmxEngine::new`].
    pub(crate) fn check_tile(
        &self,
        q_seg: &[u8],
        r_seg: &[u8],
        rows: usize,
        cols: usize,
    ) -> Result<(), AlignError> {
        let vl = self.tile_dim();
        if q_seg.len() > vl || r_seg.len() > vl {
            return Err(AlignError::Internal(format!(
                "tile segment ({}, {}) exceeds VL={vl}",
                q_seg.len(),
                r_seg.len()
            )));
        }
        if rows != q_seg.len() || cols != r_seg.len() {
            return Err(AlignError::Internal(format!(
                "tile borders ({rows}, {cols}) do not match segments ({}, {})",
                q_seg.len(),
                r_seg.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::{dp, AlignmentConfig};

    fn engine(cfg: AlignmentConfig) -> SmxEngine {
        SmxEngine::new(cfg.element_width(), &cfg.scoring()).unwrap()
    }

    #[test]
    fn geometry_matches_paper() {
        assert_eq!(engine(AlignmentConfig::DnaEdit).peak_elements_per_cycle(), 1024);
        assert_eq!(engine(AlignmentConfig::DnaGap).peak_elements_per_cycle(), 256);
        assert_eq!(engine(AlignmentConfig::Protein).peak_elements_per_cycle(), 100);
        assert_eq!(engine(AlignmentConfig::Ascii).peak_elements_per_cycle(), 64);
    }

    #[test]
    fn full_tile_matches_golden_score() {
        let cfg = AlignmentConfig::DnaEdit;
        let e = engine(cfg);
        let q: Vec<u8> = (0..32).map(|i| (i % 4) as u8).collect();
        let r: Vec<u8> = (0..32).map(|i| (i % 3) as u8).collect();
        let (mut dv, mut dh) = (vec![0u8; 32], vec![0u8; 32]);
        e.compute_tile(&q, &r, &mut dv, &mut dh).unwrap();
        let scheme = cfg.scoring();
        // Reconstruct score from borders and compare to golden.
        let score: i32 = r.len() as i32 * scheme.gap_delete()
            + dv.iter().map(|&d| i32::from(d) + scheme.gap_insert()).sum::<i32>();
        assert_eq!(score, dp::score_only(&q, &r, &scheme));
    }

    #[test]
    fn partial_tile_supported() {
        let e = engine(AlignmentConfig::Protein);
        let q = [7u8, 4, 0];
        let r = [15u8, 0];
        let (mut dv, mut dh) = (vec![0u8; 3], vec![0u8; 2]);
        e.compute_tile(&q, &r, &mut dv, &mut dh).unwrap();
        let full = e.compute_tile_full(&q, &r, &[0; 3], &[0; 2]).unwrap();
        assert_eq!((dv, dh), (full.right_dv(), full.bottom_dh()));
    }

    #[test]
    fn out_of_range_border_bits_are_masked_like_pe_exact() {
        for cfg in AlignmentConfig::ALL {
            let e = engine(cfg);
            let (vl, mask) = (e.tile_dim(), cfg.element_width().max_value() as u8);
            let q: Vec<u8> = (0..vl).map(|i| (i % 3) as u8).collect();
            let r: Vec<u8> = (0..vl).map(|i| (i % 2) as u8).collect();
            let raw_dv: Vec<u8> = (0..vl).map(|i| (i * 37 + 200) as u8).collect();
            let raw_dh: Vec<u8> = (0..vl).map(|i| (i * 53 + 100) as u8).collect();
            let masked_dv: Vec<u8> = raw_dv.iter().map(|&x| x & mask).collect();
            let masked_dh: Vec<u8> = raw_dh.iter().map(|&x| x & mask).collect();
            let tile = |dv: &[u8], dh: &[u8]| {
                let (mut dv, mut dh) = (dv.to_vec(), dh.to_vec());
                e.compute_tile(&q, &r, &mut dv, &mut dh).unwrap();
                (dv, dh)
            };
            assert_eq!(tile(&raw_dv, &raw_dh), tile(&masked_dv, &masked_dh), "{cfg}");
            assert_eq!(
                e.compute_tile_full(&q, &r, &raw_dv, &raw_dh).unwrap(),
                e.compute_tile_full(&q, &r, &masked_dv, &masked_dh).unwrap(),
                "{cfg}"
            );
        }
    }

    #[test]
    fn oversized_tile_rejected() {
        let e = engine(AlignmentConfig::Ascii); // VL = 8
        let q = vec![0u8; 9];
        let r = vec![0u8; 8];
        assert!(e.compute_tile(&q, &r, &mut [0; 9], &mut [0; 8]).is_err());
        assert!(e.compute_tile_full(&q, &r, &[0; 9], &[0; 8]).is_err());
    }

    #[test]
    fn mismatched_borders_rejected() {
        let e = engine(AlignmentConfig::DnaEdit);
        let q = vec![0u8; 4];
        let r = vec![0u8; 4];
        assert!(e.compute_tile(&q, &r, &mut [0; 3], &mut [0; 4]).is_err());
        assert!(e.compute_tile_full(&q, &r, &[0; 4], &[0; 5]).is_err());
    }
}
