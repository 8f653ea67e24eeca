//! Block-level differential DP (paper Eq. 3–6).
//!
//! A *DP-block* is a rectangular region of the DP-matrix computed in
//! shifted differential form. Block inputs are the Δh′ values of the row
//! above it and the Δv′ values of the column left of it; outputs are the
//! Δh′ of its bottom row and the Δv′ of its rightmost column. For a block
//! anchored at the matrix origin the input borders are all zero, because
//! the global-alignment boundary conditions `M_{i,0} = i·I`,
//! `M_{0,j} = j·D` make every boundary delta exactly the shift constant.

use crate::pe;
use smx_align_core::{AlignError, ElementWidth, ScoringScheme};

/// A fully computed DP-block in shifted differential form.
///
/// Stores the complete interior (`m × n` values of Δv′ and Δh′), which is
/// what the traceback recomputation path materializes per tile. The
/// coprocessor's border-only storage keeps just
/// [`bottom_dh`](DeltaBlock::bottom_dh) / [`right_dv`](DeltaBlock::right_dv).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaBlock {
    m: usize,
    n: usize,
    dv: Vec<u8>,
    dh: Vec<u8>,
}

impl DeltaBlock {
    /// Computes a block of `query.len() × reference.len()` DP-elements.
    ///
    /// `top_dh` must hold `reference.len()` shifted Δh′ inputs and
    /// `left_dv` must hold `query.len()` shifted Δv′ inputs.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::ElementWidthOverflow`] if the scheme's theta
    /// does not fit `ew`, [`AlignError::InvalidScoring`] if the scheme is
    /// not encodable, and [`AlignError::Internal`] on border-length
    /// mismatches.
    pub fn compute(
        ew: ElementWidth,
        query: &[u8],
        reference: &[u8],
        scheme: &ScoringScheme,
        top_dh: &[u8],
        left_dv: &[u8],
    ) -> Result<DeltaBlock, AlignError> {
        scheme.check_encodable()?;
        let theta = scheme.theta();
        if !ew.fits_theta(theta) {
            return Err(AlignError::ElementWidthOverflow { theta, ew_bits: ew.bits() });
        }
        let (m, n) = (query.len(), reference.len());
        if top_dh.len() != n || left_dv.len() != m {
            return Err(AlignError::Internal(format!(
                "border lengths ({}, {}) do not match block ({m}, {n})",
                top_dh.len(),
                left_dv.len()
            )));
        }
        let mut dv = vec![0u8; m * n];
        let mut dh = vec![0u8; m * n];
        // Row-major sweep; Δh′ flows down a column, Δv′ flows right along
        // a row. We keep the "incoming Δh′ per column" in a rolling buffer.
        let mut dh_in: Vec<u8> = top_dh.to_vec();
        for i in 0..m {
            let mut dv_in = left_dv[i];
            for j in 0..n {
                let s = scheme.shifted_score(query[i], reference[j]) as u8;
                let (v, h) = pe::pe_exact(ew, dv_in, dh_in[j], s);
                dv[i * n + j] = v;
                dh[i * n + j] = h;
                dv_in = v;
                dh_in[j] = h;
            }
        }
        Ok(DeltaBlock { m, n, dv, dh })
    }

    /// Wraps an interior computed elsewhere (row-major `m × n` Δv′ and
    /// Δh′ values), e.g. by a fast tile kernel proven equal to
    /// [`DeltaBlock::compute`].
    ///
    /// # Panics
    ///
    /// Panics if either buffer does not hold `m · n` values.
    #[must_use]
    pub fn from_interior(m: usize, n: usize, dv: Vec<u8>, dh: Vec<u8>) -> DeltaBlock {
        assert!(dv.len() == m * n && dh.len() == m * n, "interior must hold {m}×{n} values");
        DeltaBlock { m, n, dv, dh }
    }

    /// Fresh borders (all-zero shifted deltas) for an `m × n` block
    /// anchored at the DP-matrix origin.
    #[must_use]
    pub fn fresh_borders(m: usize, n: usize) -> (Vec<u8>, Vec<u8>) {
        (vec![0u8; n], vec![0u8; m])
    }

    /// Query-side size (rows).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Reference-side size (columns).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Shifted Δv′ at local cell `(i, j)` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn dv(&self, i: usize, j: usize) -> u8 {
        assert!(i < self.m && j < self.n);
        self.dv[i * self.n + j]
    }

    /// Shifted Δh′ at local cell `(i, j)` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn dh(&self, i: usize, j: usize) -> u8 {
        assert!(i < self.m && j < self.n);
        self.dh[i * self.n + j]
    }

    /// The Δh′ outputs of the bottom row (inputs for the block below).
    #[must_use]
    pub fn bottom_dh(&self) -> Vec<u8> {
        (0..self.n).map(|j| self.dh(self.m - 1, j)).collect()
    }

    /// The Δv′ outputs of the rightmost column (inputs for the block to
    /// the right).
    #[must_use]
    pub fn right_dv(&self) -> Vec<u8> {
        (0..self.m).map(|i| self.dv(i, self.n - 1)).collect()
    }

    /// Reconstructs the absolute DP value at local interior cell `(i, j)`
    /// (0-based; global cell `(i0+1+i, j0+1+j)`), given the absolute
    /// anchor `M(i0, j0)` at the block's top-left corner and the block's
    /// input left border.
    ///
    /// Walks the left border down to row `i`, then the interior Δh′ values
    /// across row `i`. Used by the traceback path, which converts a tile's
    /// deltas back to absolute scores.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of range or `left_dv` is shorter than
    /// `i + 1`.
    #[must_use]
    pub fn absolute_at(
        &self,
        anchor: i32,
        scheme: &ScoringScheme,
        left_dv: &[u8],
        i: usize,
        j: usize,
    ) -> i32 {
        let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
        let mut v = anchor;
        for &b in &left_dv[..=i] {
            v += b as i32 + gi;
        }
        for l in 0..=j {
            v += self.dh(i, l) as i32 + gd;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smx_align_core::dp;

    /// Reconstructs the absolute DP matrix from a DeltaBlock and compares
    /// with the golden model. This is the central correctness property of
    /// the whole encoding.
    fn assert_block_matches_golden(ew: ElementWidth, q: &[u8], r: &[u8], scheme: &ScoringScheme) {
        let (top, left) = DeltaBlock::fresh_borders(q.len(), r.len());
        let blk = DeltaBlock::compute(ew, q, r, scheme, &top, &left).unwrap();
        let golden = dp::full_matrix(q, r, scheme);
        let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
        // M[i][j] for i,j >= 1 via prefix sums of unshifted deltas down
        // column j: M[i][j] = M[0][j] + sum_{k=1..=i} Δv[k][j].
        for j in 1..=r.len() {
            let mut acc = golden.get(0, j);
            for i in 1..=q.len() {
                acc += blk.dv(i - 1, j - 1) as i32 + gi;
                assert_eq!(acc, golden.get(i, j), "Δv path at ({i},{j})");
            }
        }
        // And across row i: M[i][j] = M[i][0] + sum Δh.
        for i in 1..=q.len() {
            let mut acc = golden.get(i, 0);
            for j in 1..=r.len() {
                acc += blk.dh(i - 1, j - 1) as i32 + gd;
                assert_eq!(acc, golden.get(i, j), "Δh path at ({i},{j})");
            }
        }
    }

    #[test]
    fn edit_block_matches_golden() {
        let q = [0u8, 1, 2, 3, 0, 1];
        let r = [0u8, 2, 2, 3, 1];
        assert_block_matches_golden(ElementWidth::W2, &q, &r, &ScoringScheme::edit());
    }

    #[test]
    fn gap_block_matches_golden() {
        let q = [0u8, 1, 2, 3, 0, 1, 3, 3];
        let r = [0u8, 2, 2, 3, 1, 0, 0];
        let scheme = ScoringScheme::linear(2, -4, -4).unwrap();
        assert_block_matches_golden(ElementWidth::W4, &q, &r, &scheme);
    }

    #[test]
    fn protein_block_matches_golden() {
        let scheme = ScoringScheme::matrix(smx_align_core::SubstMatrix::blosum50(), -5).unwrap();
        let q: Vec<u8> = b"HEAGAWGHEE".iter().map(|c| c - b'A').collect();
        let r: Vec<u8> = b"PAWHEAE".iter().map(|c| c - b'A').collect();
        assert_block_matches_golden(ElementWidth::W6, &q, &r, &scheme);
    }

    #[test]
    fn chained_blocks_equal_one_big_block() {
        // Split a 6x6 computation into four 3x3 blocks wired through their
        // borders; the composite must equal the monolithic block.
        let q = [0u8, 1, 2, 3, 0, 1];
        let r = [3u8, 2, 2, 3, 1, 0];
        let scheme = ScoringScheme::edit();
        let ew = ElementWidth::W2;
        let (top, left) = DeltaBlock::fresh_borders(6, 6);
        let whole = DeltaBlock::compute(ew, &q, &r, &scheme, &top, &left).unwrap();

        let b00 =
            DeltaBlock::compute(ew, &q[..3], &r[..3], &scheme, &[0, 0, 0], &[0, 0, 0]).unwrap();
        let b01 = DeltaBlock::compute(ew, &q[..3], &r[3..], &scheme, &[0, 0, 0], &b00.right_dv())
            .unwrap();
        let b10 = DeltaBlock::compute(ew, &q[3..], &r[..3], &scheme, &b00.bottom_dh(), &[0, 0, 0])
            .unwrap();
        let b11 =
            DeltaBlock::compute(ew, &q[3..], &r[3..], &scheme, &b01.bottom_dh(), &b10.right_dv())
                .unwrap();

        for j in 0..6 {
            let (blk, jj) = if j < 3 { (&b10, j) } else { (&b11, j - 3) };
            assert_eq!(whole.dh(5, j), blk.dh(2, jj), "bottom row col {j}");
        }
        for i in 0..6 {
            let (blk, ii) = if i < 3 { (&b01, i) } else { (&b11, i - 3) };
            assert_eq!(whole.dv(i, 5), blk.dv(ii, 2), "right col row {i}");
        }
    }

    #[test]
    fn absolute_at_matches_golden() {
        let q = [0u8, 1, 2, 3, 0, 1];
        let r = [3u8, 2, 2, 3, 1];
        let scheme = ScoringScheme::linear(2, -4, -4).unwrap();
        let (top, left) = DeltaBlock::fresh_borders(q.len(), r.len());
        let blk = DeltaBlock::compute(ElementWidth::W4, &q, &r, &scheme, &top, &left).unwrap();
        let golden = dp::full_matrix(&q, &r, &scheme);
        for i in 0..q.len() {
            for j in 0..r.len() {
                assert_eq!(
                    blk.absolute_at(0, &scheme, &left, i, j),
                    golden.get(i + 1, j + 1),
                    "cell ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn rejects_wrong_border_lengths() {
        let r = DeltaBlock::compute(
            ElementWidth::W2,
            &[0, 1],
            &[0, 1],
            &ScoringScheme::edit(),
            &[0],
            &[0, 0],
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_theta_overflow() {
        // theta = 10 does not fit 2 bits.
        let scheme = ScoringScheme::linear(2, -4, -4).unwrap();
        let r = DeltaBlock::compute(ElementWidth::W2, &[0], &[0], &scheme, &[0], &[0]);
        assert!(matches!(r, Err(AlignError::ElementWidthOverflow { .. })));
    }

    proptest! {
        #[test]
        fn random_dna_blocks_match_golden(
            q in proptest::collection::vec(0u8..4, 1..24),
            r in proptest::collection::vec(0u8..4, 1..24),
        ) {
            assert_block_matches_golden(ElementWidth::W2, &q, &r, &ScoringScheme::edit());
            let gap = ScoringScheme::linear(2, -4, -4).unwrap();
            assert_block_matches_golden(ElementWidth::W4, &q, &r, &gap);
        }

        #[test]
        fn random_protein_blocks_match_golden(
            q in proptest::collection::vec(0u8..26, 1..16),
            r in proptest::collection::vec(0u8..26, 1..16),
        ) {
            let scheme =
                ScoringScheme::matrix(smx_align_core::SubstMatrix::blosum50(), -5).unwrap();
            assert_block_matches_golden(ElementWidth::W6, &q, &r, &scheme);
        }

        #[test]
        fn deltas_never_exceed_theta(
            q in proptest::collection::vec(0u8..4, 1..20),
            r in proptest::collection::vec(0u8..4, 1..20),
        ) {
            // The §4.1 range theorem: all Δ′ lie in [0, theta].
            let scheme = ScoringScheme::linear(2, -4, -4).unwrap();
            let theta = scheme.theta() as u8;
            let (top, left) = DeltaBlock::fresh_borders(q.len(), r.len());
            let blk = DeltaBlock::compute(ElementWidth::W4, &q, &r, &scheme, &top, &left).unwrap();
            for i in 0..q.len() {
                for j in 0..r.len() {
                    prop_assert!(blk.dv(i, j) <= theta);
                    prop_assert!(blk.dh(i, j) <= theta);
                }
            }
        }
    }
}
