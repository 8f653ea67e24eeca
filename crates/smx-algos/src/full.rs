//! Full-matrix alignment (the "Full" algorithm of Figs. 2, 11, 14).

use crate::metrics::AlgoOutcome;
use smx_align_core::{dp, ScoringScheme};

/// Cell-count threshold above which the alignment path is produced by the
/// linear-memory Hirschberg recursion instead of a dense matrix (the
/// reported *work profile* stays that of the full algorithm).
const DENSE_LIMIT: u64 = 16_000_000;

/// Runs the full-matrix algorithm.
///
/// With `want_alignment = false` only the score is produced (linear
/// memory); otherwise the full optimal path is returned.
#[must_use]
pub fn full_align(
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    want_alignment: bool,
) -> AlgoOutcome {
    let (m, n) = (query.len(), reference.len());
    let cells = m as u64 * n as u64;
    let mut out = AlgoOutcome::new();
    out.cells_computed = cells;
    out.blocks.push((m, n));
    out.pack_chars = (m + n) as u64;
    if want_alignment {
        out.cells_stored = cells;
        let alignment = if cells <= DENSE_LIMIT {
            dp::align_codes(query, reference, scheme)
        } else {
            // A co-optimal path via Hirschberg: same score, but it can
            // break ties differently from the golden DP (two of four
            // 6 kbp ONT DnaGap pairs, datagen seed 5, get another CIGAR),
            // and `traceback_steps` follows its length. The figure
            // harnesses read only the full algorithm's work profile,
            // reported anyway; the device's CIGAR is the contract.
            crate::hirschberg::hirschberg_align(query, reference, scheme)
                .alignment
                .expect("hirschberg always yields an alignment")
        };
        out.traceback_steps = alignment.cigar.len() as u64;
        out.score = Some(alignment.score);
        out.alignment = Some(alignment);
    } else {
        out.cells_stored = (n + 1) as u64;
        out.score = Some(dp::score_only(query, reference, scheme));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::ScoringScheme;

    #[test]
    fn score_only_matches_golden() {
        let q = [0u8, 1, 2, 3, 1];
        let r = [0u8, 1, 3, 3, 1];
        let s = ScoringScheme::edit();
        let out = full_align(&q, &r, &s, false);
        assert_eq!(out.score, Some(dp::score_only(&q, &r, &s)));
        assert!(out.alignment.is_none());
        assert_eq!(out.cells_computed, 25);
        assert_eq!(out.cells_stored, 6);
    }

    #[test]
    fn alignment_verifies() {
        let q = [0u8, 1, 2, 3, 1, 2, 0];
        let r = [0u8, 2, 3, 3, 1, 0];
        let s = ScoringScheme::linear(2, -4, -4).unwrap();
        let out = full_align(&q, &r, &s, true);
        let aln = out.alignment.unwrap();
        aln.verify(&q, &r, &s).unwrap();
        assert_eq!(out.traceback_steps, aln.cigar.len() as u64);
        assert_eq!(out.blocks, vec![(7, 6)]);
    }
}
