//! Golden-model dynamic programming: full-matrix Needleman–Wunsch with
//! traceback, and a linear-memory score-only variant (paper §2.1, Eq. 1–2).
//!
//! These are deliberately simple, allocation-heavy reference
//! implementations; every accelerated engine in the workspace is validated
//! against them. The global traceback tie-break is **diagonal ≻ up
//! (insert) ≻ left (delete)** and is shared by all engines so CIGARs are
//! directly comparable.

use crate::cigar::{Alignment, Cigar, Op};
use crate::error::AlignError;
use crate::scoring::ScoringScheme;
use crate::sequence::Sequence;

/// A dense `(m+1) × (n+1)` DP matrix of absolute scores.
///
/// Row `i` corresponds to having consumed `i` query symbols; column `j` to
/// `j` reference symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

impl DpMatrix {
    /// Builds a matrix from raw row-major data (used by engines that
    /// reconstruct absolute values from deltas and then reuse
    /// [`traceback`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    #[must_use]
    pub fn from_raw(rows: usize, cols: usize, data: Vec<i32>) -> DpMatrix {
        assert!(rows > 0 && cols > 0, "matrix must be non-empty");
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        DpMatrix { rows, cols, data }
    }

    /// Number of rows (`query length + 1`).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`reference length + 1`).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> i32 {
        assert!(i < self.rows && j < self.cols, "({i}, {j}) out of bounds");
        self.data[i * self.cols + j]
    }

    fn set(&mut self, i: usize, j: usize, v: i32) {
        self.data[i * self.cols + j] = v;
    }

    /// The bottom-right element: the optimal global alignment score.
    #[must_use]
    pub fn final_score(&self) -> i32 {
        self.data[self.rows * self.cols - 1]
    }
}

/// Computes the full DP matrix for `query` × `reference` codes.
///
/// Complexity: `O(m·n)` time and space. Intended as a golden model and for
/// small tiles; larger computations should use the engines built on it.
#[must_use]
pub fn full_matrix(query: &[u8], reference: &[u8], scheme: &ScoringScheme) -> DpMatrix {
    full_matrix_checked(query, reference, scheme, &mut || Ok(()))
        .expect("an infallible check cannot abort the DP")
}

/// Rows computed between cooperative `check` calls in
/// [`full_matrix_checked`] — the host-side analogue of the coprocessor's
/// tile-boundary granularity.
const CHECK_INTERVAL_ROWS: usize = 64;

/// [`full_matrix`] with a cooperative abort point every
/// [`CHECK_INTERVAL_ROWS`] rows: `check`'s error (typically a
/// cancellation or deadline) aborts the computation. This is what makes
/// host-side recomputation honor the same deadline budget as the
/// accelerated paths instead of running to completion regardless.
///
/// # Errors
///
/// Whatever `check` returns.
pub fn full_matrix_checked(
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    check: &mut dyn FnMut() -> Result<(), AlignError>,
) -> Result<DpMatrix, AlignError> {
    let (m, n) = (query.len(), reference.len());
    let mut dp = DpMatrix { rows: m + 1, cols: n + 1, data: vec![0; (m + 1) * (n + 1)] };
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
    // Saturating arithmetic throughout: pathological lengths × penalties
    // (`i as i32 * gi` and long accumulation chains) must clamp instead of
    // wrapping, so extreme inputs stay well-defined.
    for i in 1..=m {
        dp.set(i, 0, (i as i32).saturating_mul(gi));
    }
    for j in 1..=n {
        dp.set(0, j, (j as i32).saturating_mul(gd));
    }
    for i in 1..=m {
        if i % CHECK_INTERVAL_ROWS == 0 {
            check()?;
        }
        for j in 1..=n {
            let diag =
                dp.get(i - 1, j - 1).saturating_add(scheme.score(query[i - 1], reference[j - 1]));
            let up = dp.get(i - 1, j).saturating_add(gi);
            let left = dp.get(i, j - 1).saturating_add(gd);
            dp.set(i, j, diag.max(up).max(left));
        }
    }
    Ok(dp)
}

/// Computes only the optimal score, using `O(n)` memory.
#[must_use]
pub fn score_only(query: &[u8], reference: &[u8], scheme: &ScoringScheme) -> i32 {
    last_row(query, reference, scheme)[reference.len()]
}

/// Computes the last DP row (`M_{m, 0..=n}`) in `O(n)` memory.
///
/// This is the primitive Hirschberg's algorithm is built from.
#[must_use]
pub fn last_row(query: &[u8], reference: &[u8], scheme: &ScoringScheme) -> Vec<i32> {
    let mut row = Vec::new();
    last_row_into(query, reference, scheme, &mut row);
    row
}

/// [`last_row`] into a caller's buffer: `row` is overwritten with the
/// `n + 1` entries of `M_{m, 0..=n}`, and grows only when its capacity
/// is short, so a reused buffer makes repeated calls allocation-free.
pub fn last_row_into(query: &[u8], reference: &[u8], scheme: &ScoringScheme, row: &mut Vec<i32>) {
    let n = reference.len();
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
    row.clear();
    row.extend((0..=n as i32).map(|j| j.saturating_mul(gd)));
    for (i, &q) in query.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = (i as i32 + 1).saturating_mul(gi);
        for j in 1..=n {
            let diag = prev_diag.saturating_add(scheme.score(q, reference[j - 1]));
            let up = row[j].saturating_add(gi);
            let left = row[j - 1].saturating_add(gd);
            prev_diag = row[j];
            row[j] = diag.max(up).max(left);
        }
    }
}

/// Traces back through a full DP matrix, producing the optimal path.
///
/// Tie-break order: diagonal ≻ up (insert) ≻ left (delete).
#[must_use]
pub fn traceback(dp: &DpMatrix, query: &[u8], reference: &[u8], scheme: &ScoringScheme) -> Cigar {
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
    let mut i = query.len();
    let mut j = reference.len();
    let mut cigar = Cigar::new();
    while i > 0 || j > 0 {
        let here = dp.get(i, j);
        if i > 0
            && j > 0
            && here
                == dp.get(i - 1, j - 1).saturating_add(scheme.score(query[i - 1], reference[j - 1]))
        {
            cigar.push(if query[i - 1] == reference[j - 1] { Op::Match } else { Op::Mismatch });
            i -= 1;
            j -= 1;
        } else if i > 0 && here == dp.get(i - 1, j).saturating_add(gi) {
            cigar.push(Op::Insert);
            i -= 1;
        } else {
            debug_assert!(
                j > 0 && here == dp.get(i, j - 1).saturating_add(gd),
                "broken traceback at ({i},{j})"
            );
            cigar.push(Op::Delete);
            j -= 1;
        }
    }
    cigar.reverse();
    cigar
}

/// Aligns two sequences with the golden model, returning score + CIGAR.
///
/// # Errors
///
/// Returns [`AlignError::AlphabetMismatch`] if the sequences use different
/// alphabets and [`AlignError::EmptySequence`] if either is empty.
pub fn align(
    query: &Sequence,
    reference: &Sequence,
    scheme: &ScoringScheme,
) -> Result<Alignment, AlignError> {
    if query.alphabet() != reference.alphabet() {
        return Err(AlignError::AlphabetMismatch);
    }
    if query.is_empty() || reference.is_empty() {
        return Err(AlignError::EmptySequence);
    }
    Ok(align_codes(query.codes(), reference.codes(), scheme))
}

/// Aligns raw code slices (no validation) with the golden model.
#[must_use]
pub fn align_codes(query: &[u8], reference: &[u8], scheme: &ScoringScheme) -> Alignment {
    let dp = full_matrix(query, reference, scheme);
    let cigar = traceback(&dp, query, reference, scheme);
    Alignment { score: dp.final_score(), cigar }
}

/// [`align_codes`] with the cooperative abort point of
/// [`full_matrix_checked`]. An aborted alignment returns `check`'s error
/// and produces no partial result.
///
/// # Errors
///
/// Whatever `check` returns.
pub fn align_codes_checked(
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    check: &mut dyn FnMut() -> Result<(), AlignError>,
) -> Result<Alignment, AlignError> {
    let dp = full_matrix_checked(query, reference, scheme, check)?;
    let cigar = traceback(&dp, query, reference, scheme);
    Ok(Alignment { score: dp.final_score(), cigar })
}

/// The edit distance between two code slices (a convenience built on the
/// edit scheme: `distance = −score`).
#[must_use]
pub fn edit_distance(a: &[u8], b: &[u8]) -> u32 {
    (-score_only(a, b, &ScoringScheme::edit())) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::submat::SubstMatrix;

    fn dna(s: &str) -> Sequence {
        Sequence::from_text(Alphabet::Dna2, s).unwrap()
    }

    #[test]
    fn identical_sequences_score_zero_edit() {
        let s = dna("ACGTACGT");
        let a = align(&s, &s, &ScoringScheme::edit()).unwrap();
        assert_eq!(a.score, 0);
        assert_eq!(a.cigar.to_string(), "8=");
    }

    #[test]
    fn single_substitution() {
        let a = align(&dna("ACGT"), &dna("AGGT"), &ScoringScheme::edit()).unwrap();
        assert_eq!(a.score, -1);
        assert_eq!(a.cigar.to_string(), "1=1X2=");
    }

    #[test]
    fn single_insertion() {
        let a = align(&dna("ACGGT"), &dna("ACGT"), &ScoringScheme::edit()).unwrap();
        assert_eq!(a.score, -1);
        assert_eq!(a.cigar.query_len(), 5);
        assert_eq!(a.cigar.reference_len(), 4);
    }

    #[test]
    fn empty_rejected() {
        let e = Sequence::from_text(Alphabet::Dna2, "").unwrap();
        assert!(matches!(
            align(&e, &dna("A"), &ScoringScheme::edit()),
            Err(AlignError::EmptySequence)
        ));
    }

    #[test]
    fn alphabet_mismatch_rejected() {
        let p = Sequence::from_text(Alphabet::Protein, "ACG").unwrap();
        assert!(matches!(
            align(&p, &dna("ACG"), &ScoringScheme::edit()),
            Err(AlignError::AlphabetMismatch)
        ));
    }

    #[test]
    fn edit_distance_known_pairs() {
        let a = Sequence::from_text(Alphabet::Ascii, "kitten").unwrap();
        let b = Sequence::from_text(Alphabet::Ascii, "sitting").unwrap();
        assert_eq!(edit_distance(a.codes(), b.codes()), 3);
        assert_eq!(edit_distance(b.codes(), a.codes()), 3);
        assert_eq!(edit_distance(a.codes(), a.codes()), 0);
    }

    #[test]
    fn score_only_matches_full_matrix() {
        let q = dna("GATTACAGATTACA");
        let r = dna("GACTATAGATCAA");
        for scheme in [ScoringScheme::edit(), ScoringScheme::linear(2, -4, -4).unwrap()] {
            let dp = full_matrix(q.codes(), r.codes(), &scheme);
            assert_eq!(dp.final_score(), score_only(q.codes(), r.codes(), &scheme));
        }
    }

    #[test]
    fn last_row_matches_full_matrix() {
        let q = dna("ACGTAC");
        let r = dna("AGTACC");
        let scheme = ScoringScheme::linear(1, -2, -2).unwrap();
        let dp = full_matrix(q.codes(), r.codes(), &scheme);
        let row = last_row(q.codes(), r.codes(), &scheme);
        for (j, &v) in row.iter().enumerate() {
            assert_eq!(v, dp.get(q.len(), j), "column {j}");
        }
        // One reused buffer across inputs, a longer reference before a
        // shorter one included: each fill must equal `last_row` exactly,
        // with no stale tail left from the previous fill.
        let mut buf = Vec::new();
        let inputs = [
            ("ACGTAC", "AGTACC"),
            ("ACGTACGTTA", "AGTACCGATTGCA"),
            ("GA", "TAC"),
            ("", "ACG"),
            ("ACG", ""),
            ("T", "T"),
        ];
        for (qt, rt) in inputs {
            let (q, r) = (dna(qt), dna(rt));
            last_row_into(q.codes(), r.codes(), &scheme, &mut buf);
            assert_eq!(buf, last_row(q.codes(), r.codes(), &scheme), "{qt} vs {rt}");
        }
    }

    #[test]
    fn traceback_rescores_to_optimal() {
        let q = dna("GATTACA");
        let r = dna("GCATGCT");
        for scheme in [ScoringScheme::edit(), ScoringScheme::linear(3, -2, -3).unwrap()] {
            let a = align(&q, &r, &scheme).unwrap();
            a.verify(q.codes(), r.codes(), &scheme).unwrap();
        }
    }

    #[test]
    fn protein_alignment_with_blosum() {
        let scheme = ScoringScheme::matrix(SubstMatrix::blosum50(), -5).unwrap();
        let q = Sequence::from_text(Alphabet::Protein, "HEAGAWGHEE").unwrap();
        let r = Sequence::from_text(Alphabet::Protein, "PAWHEAE").unwrap();
        let a = align(&q, &r, &scheme).unwrap();
        a.verify(q.codes(), r.codes(), &scheme).unwrap();
        // Global alignment with strong gaps; score must match re-derivation.
        assert_eq!(a.score, full_matrix(q.codes(), r.codes(), &scheme).final_score());
    }

    #[test]
    fn paper_figure3_example() {
        // Figure 3 of the paper aligns two short proteins under BLOSUM62
        // with I = D = -4. We verify our golden model reproduces an optimal
        // score consistent with its own traceback (exact DP-matrix values in
        // the figure depend on its matrix variant).
        let scheme = ScoringScheme::matrix(SubstMatrix::blosum62(), -4).unwrap();
        let q = Sequence::from_text(Alphabet::Protein, "MKVLAA").unwrap();
        let r = Sequence::from_text(Alphabet::Protein, "MKWLSA").unwrap();
        let a = align(&q, &r, &scheme).unwrap();
        a.verify(q.codes(), r.codes(), &scheme).unwrap();
    }

    #[test]
    fn boundary_rows_follow_gap_penalties() {
        let scheme = ScoringScheme::linear_asym(1, -1, -2, -3).unwrap();
        let dp = full_matrix(&[0, 1], &[0, 1, 2], &scheme);
        assert_eq!(dp.get(1, 0), -2);
        assert_eq!(dp.get(2, 0), -4);
        assert_eq!(dp.get(0, 1), -3);
        assert_eq!(dp.get(0, 3), -9);
    }

    #[test]
    fn extreme_penalties_and_lengths_saturate_instead_of_overflowing() {
        // 5000 rows x a -1e6 gap penalty drives the border init past
        // i32::MIN (-5e9); without saturating arithmetic this wraps (and
        // panics in debug builds). The score must stay well-defined and
        // the three entry points must agree with each other.
        let scheme = ScoringScheme::linear(1, -1_000_000_000, -1_000_000_000).unwrap();
        let q = vec![0u8; 5000];
        let r = vec![1u8; 4000];
        let dp = full_matrix(&q, &r, &scheme);
        assert_eq!(dp.get(5000, 0), i32::MIN, "border init must saturate");
        assert_eq!(dp.final_score(), score_only(&q, &r, &scheme));
        let row = last_row(&q, &r, &scheme);
        assert_eq!(row[r.len()], dp.final_score());
        // The traceback must still terminate and cover both sequences.
        let cigar = traceback(&dp, &q, &r, &scheme);
        assert_eq!(cigar.query_len() as usize, q.len());
        assert_eq!(cigar.reference_len() as usize, r.len());
    }

    #[test]
    fn degenerate_inputs_are_well_defined() {
        let scheme = ScoringScheme::linear(1, -1, -2).unwrap();
        // Empty query: the whole reference is deleted.
        let a = align_codes(&[], &[0, 1, 2], &scheme);
        assert_eq!(a.score, 3 * scheme.gap_delete());
        assert_eq!(a.cigar.to_string(), "3D");
        a.verify(&[], &[0, 1, 2], &scheme).unwrap();
        // Empty reference: the whole query is inserted.
        let a = align_codes(&[0, 1], &[], &scheme);
        assert_eq!(a.score, 2 * scheme.gap_insert());
        assert_eq!(a.cigar.to_string(), "2I");
        // Both empty: zero score, empty CIGAR.
        let a = align_codes(&[], &[], &scheme);
        assert_eq!(a.score, 0);
        assert!(a.cigar.runs().is_empty());
        // Single symbols.
        let a = align_codes(&[1], &[1], &scheme);
        assert_eq!(a.score, 1);
        assert_eq!(a.cigar.to_string(), "1=");
        let a = align_codes(&[1], &[2], &scheme);
        a.verify(&[1], &[2], &scheme).unwrap();
        // query == reference: all matches, perfect score.
        let q: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
        let a = align_codes(&q, &q, &scheme);
        assert_eq!(a.score, 64);
        assert_eq!(a.cigar.to_string(), "64=");
    }

    #[test]
    fn dp_matrix_get_bounds() {
        let dp = full_matrix(&[0], &[0], &ScoringScheme::edit());
        assert_eq!(dp.rows(), 2);
        assert_eq!(dp.cols(), 2);
        let r = std::panic::catch_unwind(|| dp.get(2, 0));
        assert!(r.is_err());
    }
}
