//! Myers's blocked bit-parallel edit-distance algorithm (Myers 1999,
//! Hyyrö's blocked formulation — the core of Edlib, the paper's
//! edit-distance software reference [95]).
//!
//! Computes the global (Needleman–Wunsch) edit distance processing 64
//! DP-cells per machine word per text character: the strongest *software*
//! baseline for the DNA-edit configuration, complementary to the
//! KSW2-style SIMD model in `timing`.

use smx_align_core::AlignError;
use smx_diffenc::pe::myers_step;

const HIGH_BIT: u64 = 1 << 63;

/// Per-symbol match-bit masks for each 64-row block of the query.
struct PatternEq {
    blocks: usize,
    m: usize,
    /// `eq[symbol * blocks + block]`.
    eq: Vec<u64>,
}

impl PatternEq {
    fn new(query: &[u8], symbols: usize) -> PatternEq {
        let m = query.len();
        let blocks = m.div_ceil(64);
        let mut eq = vec![0u64; symbols * blocks];
        for (i, &c) in query.iter().enumerate() {
            eq[c as usize * blocks + i / 64] |= 1u64 << (i % 64);
        }
        PatternEq { blocks, m, eq }
    }

    fn mask(&self, symbol: u8, block: usize) -> u64 {
        self.eq[symbol as usize * self.blocks + block]
    }
}

/// One Myers block step (Edlib's `calculateBlock`) over a full 64-row
/// word: the shared [`myers_step`], with the outgoing horizontal delta
/// `hout ∈ {-1, 0, +1}` read at the top bit.
fn step(pv: &mut u64, mv: &mut u64, eq: u64, hin: i32) -> i32 {
    let (ph, mh) = myers_step(pv, mv, eq, hin);
    i32::from(ph & HIGH_BIT != 0) - i32::from(mh & HIGH_BIT != 0)
}

/// Global edit distance via blocked bit-parallel DP.
///
/// `symbols` is the alphabet cardinality (codes must be `< symbols`).
///
/// # Errors
///
/// Returns [`AlignError::EmptySequence`] for empty inputs and
/// [`AlignError::InvalidCode`] for out-of-range codes.
pub fn edit_distance(query: &[u8], reference: &[u8], symbols: usize) -> Result<u32, AlignError> {
    if query.is_empty() || reference.is_empty() {
        return Err(AlignError::EmptySequence);
    }
    if let Some(&bad) = query.iter().chain(reference).find(|&&c| c as usize >= symbols) {
        return Err(AlignError::InvalidCode { code: bad, alphabet: "myers" });
    }
    let pat = PatternEq::new(query, symbols);
    let blocks = pat.blocks;
    let mut pv = vec![u64::MAX; blocks];
    let mut mv = vec![0u64; blocks];
    let m = pat.m;
    for &c in reference {
        let mut hin = 1i32; // global alignment: D[0][j] − D[0][j−1] = +1
        for b in 0..blocks {
            hin = step(&mut pv[b], &mut mv[b], pat.mask(c, b), hin);
        }
    }
    // After processing all of the reference, (Pv, Mv) hold the vertical
    // deltas of the final column: D[m][n] = D[0][n] + Σ_i Δv(i, n) and
    // D[0][n] = n for global alignment.
    let mut d: i64 = reference.len() as i64;
    for i in 0..m {
        let (b, bit) = (i / 64, 1u64 << (i % 64));
        if pv[b] & bit != 0 {
            d += 1;
        } else if mv[b] & bit != 0 {
            d -= 1;
        }
    }
    Ok(d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smx_align_core::dp;

    #[test]
    fn matches_golden_small() {
        let q = b"kitten".map(|c| c - b'a');
        let r = b"sitting".map(|c| c - b'a');
        assert_eq!(edit_distance(&q, &r, 26).unwrap(), 3);
    }

    #[test]
    fn identical_is_zero() {
        let q = vec![1u8; 100];
        assert_eq!(edit_distance(&q, &q, 4).unwrap(), 0);
    }

    #[test]
    fn exactly_64_rows() {
        let q: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
        let mut r = q.clone();
        r[10] ^= 1;
        r.remove(40);
        assert_eq!(edit_distance(&q, &r, 4).unwrap(), dp::edit_distance(&q, &r));
    }

    #[test]
    fn multi_block_lengths() {
        for m in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            let q: Vec<u8> = (0..m as u32).map(|i| (i.wrapping_mul(7) % 4) as u8).collect();
            let r: Vec<u8> = (0..(m + 13) as u32).map(|i| (i.wrapping_mul(5) % 4) as u8).collect();
            assert_eq!(edit_distance(&q, &r, 4).unwrap(), dp::edit_distance(&q, &r), "m = {m}");
        }
    }

    #[test]
    fn word_boundary_edit_at_block_seam() {
        // Pattern lengths straddling the 64-bit word boundary, with the
        // single edit placed exactly at the seam rows (63, 64, 65), so the
        // vertical-delta transfer between blocks is what carries the
        // distance. Each case must match the golden DP.
        for m in [63usize, 64, 65, 128] {
            let q: Vec<u8> = (0..m as u32).map(|i| (i % 4) as u8).collect();
            for edit_at in [0usize, 62, 63, 64, m - 1] {
                let edit_at = edit_at.min(m - 1);
                // Substitution at the seam.
                let mut r = q.clone();
                r[edit_at] ^= 1;
                assert_eq!(
                    edit_distance(&q, &r, 4).unwrap(),
                    dp::edit_distance(&q, &r),
                    "m={m} subst at {edit_at}"
                );
                // Deletion at the seam (reference one shorter).
                if m > 1 {
                    let mut r = q.clone();
                    r.remove(edit_at);
                    assert_eq!(
                        edit_distance(&q, &r, 4).unwrap(),
                        dp::edit_distance(&q, &r),
                        "m={m} del at {edit_at}"
                    );
                }
                // Insertion at the seam (reference one longer).
                let mut r = q.clone();
                r.insert(edit_at, 3);
                assert_eq!(
                    edit_distance(&q, &r, 4).unwrap(),
                    dp::edit_distance(&q, &r),
                    "m={m} ins at {edit_at}"
                );
            }
        }
    }

    #[test]
    fn word_boundary_high_bit_carry_stress() {
        // All-mismatch pairs maximize +1 horizontal deltas, driving the Ph
        // high bit (the inter-block carry) on every column; all-match tails
        // after a mismatch head drive the Mh high bit on the way back down.
        for m in [63usize, 64, 65, 128] {
            let q = vec![0u8; m];
            for n in [m - 1, m, m + 1, 2 * m] {
                let r = vec![1u8; n];
                assert_eq!(
                    edit_distance(&q, &r, 4).unwrap(),
                    dp::edit_distance(&q, &r),
                    "all-mismatch m={m} n={n}"
                );
            }
            // Mismatch head, match tail: the distance is decided by Mv bits
            // above the first block.
            let mut q2 = vec![2u8; m];
            let r2 = vec![3u8; m];
            for c in q2.iter_mut().skip(m / 2) {
                *c = 3;
            }
            assert_eq!(
                edit_distance(&q2, &r2, 4).unwrap(),
                dp::edit_distance(&q2, &r2),
                "half-mismatch m={m}"
            );
        }
    }

    #[test]
    fn step_preserves_delta_word_disjointness() {
        // Pv and Mv encode +1/−1 vertical deltas; a row can't be both, so
        // the words must stay disjoint through any step — the invariant the
        // blocked formulation's carry logic relies on.
        let mut pv = u64::MAX;
        let mut mv = 0u64;
        for (i, &(eq, hin)) in [
            (0u64, 1i32),
            (0x8000_0000_0000_0001, -1),
            (u64::MAX, 0),
            (0x5555_5555_5555_5555, 1),
            (0xAAAA_AAAA_AAAA_AAAA, -1),
        ]
        .iter()
        .enumerate()
        {
            let hout = step(&mut pv, &mut mv, eq, hin);
            assert!((-1..=1).contains(&hout), "round {i}");
            assert_eq!(pv & mv, 0, "Pv/Mv overlap after round {i}");
        }
    }

    #[test]
    fn rejects_bad_codes() {
        assert!(edit_distance(&[5], &[0], 4).is_err());
        assert!(edit_distance(&[], &[0], 4).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn matches_golden_random(
            q in proptest::collection::vec(0u8..4, 1..180),
            r in proptest::collection::vec(0u8..4, 1..180),
        ) {
            prop_assert_eq!(
                edit_distance(&q, &r, 4).unwrap(),
                dp::edit_distance(&q, &r)
            );
        }

        #[test]
        fn protein_alphabet_random(
            q in proptest::collection::vec(0u8..26, 1..100),
            r in proptest::collection::vec(0u8..26, 1..100),
        ) {
            prop_assert_eq!(
                edit_distance(&q, &r, 26).unwrap(),
                dp::edit_distance(&q, &r)
            );
        }
    }
}
