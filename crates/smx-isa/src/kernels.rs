//! Software kernels driving the SMX-1D unit (paper §4, Fig. 4b): the
//! column-strip DP-block computation, its score-only variant, the
//! delta-based traceback, and `smx.pack` sequence packing.
//!
//! Each kernel records the dynamic instructions it would execute on the
//! core (SMX ops, CSR writes, loads/stores, scalar overhead); the timing
//! model turns those into cycles.

use crate::insn::rs2_operand;
use crate::unit::{InsnCounts, Smx1dUnit};
use smx_align_core::{AlignError, Alphabet, Cigar, ScoringScheme};
use smx_diffenc::boundary::BlockBorders;
use smx_diffenc::pack::{PackedSeq, PackedVec};

/// The outcome of a block computation on the SMX-1D path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockResult {
    /// Score of the bottom-right DP-element **relative to the block
    /// anchor** `M(i0, j0)` (equal to the global score for an
    /// origin-anchored block with fresh borders).
    pub score: i32,
    /// Δh′ outputs of the bottom row.
    pub bottom_dh: Vec<u8>,
    /// Δv′ outputs of the rightmost column.
    pub right_dv: Vec<u8>,
    /// Interior Δv′ values, one `Vec` per column (present when the caller
    /// asked to keep the interior for traceback).
    pub dv_columns: Option<Vec<Vec<u8>>>,
    /// Dynamic instructions executed by this call.
    pub counts: InsnCounts,
}

/// Computes a DP-block, keeping the interior Δv′ columns for traceback.
///
/// `borders` of `None` means fresh (origin-anchored) borders.
///
/// # Errors
///
/// Returns [`AlignError::EmptySequence`] for empty inputs and propagates
/// configuration errors from the unit.
pub fn compute_block(
    unit: &mut Smx1dUnit,
    query: &[u8],
    reference: &[u8],
    borders: Option<&BlockBorders>,
) -> Result<BlockResult, AlignError> {
    run_block(unit, query, reference, borders, true, false)
}

/// Computes a DP-block keeping only its output borders (score-only path).
///
/// # Errors
///
/// Same conditions as [`compute_block`].
pub fn score_block(
    unit: &mut Smx1dUnit,
    query: &[u8],
    reference: &[u8],
    borders: Option<&BlockBorders>,
) -> Result<BlockResult, AlignError> {
    run_block(unit, query, reference, borders, false, false)
}

/// Score-only block computation using the merged `smx.vh` instruction
/// (paper §4.2's dual-destination-port variant): one SMX instruction per
/// column instead of two.
///
/// # Errors
///
/// Same conditions as [`compute_block`].
pub fn score_block_dualport(
    unit: &mut Smx1dUnit,
    query: &[u8],
    reference: &[u8],
    borders: Option<&BlockBorders>,
) -> Result<BlockResult, AlignError> {
    run_block(unit, query, reference, borders, false, true)
}

fn run_block(
    unit: &mut Smx1dUnit,
    query: &[u8],
    reference: &[u8],
    borders: Option<&BlockBorders>,
    keep_interior: bool,
    dual_port: bool,
) -> Result<BlockResult, AlignError> {
    let (m, n) = (query.len(), reference.len());
    if m == 0 || n == 0 {
        return Err(AlignError::EmptySequence);
    }
    let cfg = unit.config();
    let ew = cfg.ew;
    let vl = ew.vl();
    let (gi, gd) = (i32::from(cfg.gap_insert), i32::from(cfg.gap_delete));
    let fresh = BlockBorders::fresh(m, n);
    let borders = borders.unwrap_or(&fresh);
    if borders.rows() != m || borders.cols() != n {
        return Err(AlignError::Internal(format!(
            "borders ({}, {}) do not match block ({m}, {n})",
            borders.rows(),
            borders.cols()
        )));
    }
    let before = unit.counts();

    // Δh′ carried from strip to strip, one per column.
    let mut dh_carry: Vec<u8> = borders.top_dh.clone();
    // Border-words loaded once (EW-bit packed).
    let border_words = (n * ew.bits() as usize).div_ceil(64) as u64;
    unit.charge(border_words, 0, 0);

    let mut dv_columns: Option<Vec<Vec<u8>>> =
        if keep_interior { Some(vec![Vec::with_capacity(m); n]) } else { None };
    let mut right_dv: Vec<u8> = Vec::with_capacity(m);
    let mut right_sum: i64 = 0;

    let strips = m.div_ceil(vl);
    for s in 0..strips {
        let row0 = s * vl;
        let len = (m - row0).min(vl);
        unit.set_query(&query[row0..row0 + len])?;
        unit.charge(1, 0, 1); // query word load + address update

        // Initial rs1: left-border lanes for this strip.
        let mut rs1 = PackedVec::from_lanes(ew, &borders.left_dv[row0..row0 + len])?.word();
        // Per-strip Δh′ row load/store (EW-bit packed words).
        let dh_words = (n * ew.bits() as usize).div_ceil(64) as u64;
        unit.charge(dh_words, dh_words, 0);

        let mut last_col_word = 0u64;
        for j in 0..n {
            if j % vl == 0 {
                let seg_end = (j + vl).min(n);
                unit.set_reference(&reference[j..seg_end])?;
                unit.charge(1, 0, 1);
            }
            let rs2 = rs2_operand(dh_carry[j], (j % vl) as u8, len as u8);
            let (new_dv, dh_out) = if dual_port {
                let (v, h) = unit.exec_vh(rs1, rs2);
                (v, h as u8)
            } else {
                let v = unit.exec_v(rs1, rs2);
                let h = unit.exec_h(rs1, rs2) as u8;
                (v, h)
            };
            unit.charge(0, 0, 2); // loop control + rs2 composition
            dh_carry[j] = dh_out;
            rs1 = new_dv;
            if let Some(cols) = dv_columns.as_mut() {
                cols[j].extend(PackedVec::from_word(ew, new_dv).to_lanes(len));
                unit.charge(0, 1, 0);
            }
            if j + 1 == n {
                last_col_word = new_dv;
            }
        }
        // Right-column contribution via smx.redsum (inactive lanes are 0).
        right_sum += unit.exec_redsum(last_col_word) as i64 + (len as i64) * i64::from(gi);
        unit.charge(0, 0, 2);
        right_dv.extend(PackedVec::from_word(ew, last_col_word).to_lanes(len));
    }

    // Top-border contribution, summed in software.
    let top_sum: i64 = borders.top_dh.iter().map(|&d| i64::from(d) + i64::from(gd)).sum();
    unit.charge(0, 0, n as u64);

    let after = unit.counts();
    let mut counts = after;
    counts.smx_v -= before.smx_v;
    counts.smx_h -= before.smx_h;
    counts.smx_redsum -= before.smx_redsum;
    counts.smx_pack -= before.smx_pack;
    counts.smx_vh -= before.smx_vh;
    counts.csr_write -= before.csr_write;
    counts.load_words -= before.load_words;
    counts.store_words -= before.store_words;
    counts.scalar_ops -= before.scalar_ops;

    Ok(BlockResult {
        score: (top_sum + right_sum) as i32,
        bottom_dh: dh_carry,
        right_dv,
        dv_columns,
        counts,
    })
}

/// Traces back through stored Δv′ columns, reconstructing absolute values
/// lazily one column at a time.
///
/// `top_abs` holds the absolute DP values of the row above the block
/// (`n + 1` values, starting at the anchor) and `left_abs` the column left
/// of the block (`m + 1` values, same anchor first).
///
/// Returns the CIGAR and the scalar-operation count charged for the
/// sequential, branch-heavy walk.
///
/// # Errors
///
/// Returns [`AlignError::Internal`] on inconsistent inputs.
pub fn traceback_from_columns(
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    dv_columns: &[Vec<u8>],
    top_abs: &[i32],
    left_abs: &[i32],
) -> Result<(Cigar, u64), AlignError> {
    let (m, n) = (query.len(), reference.len());
    if dv_columns.len() != n || top_abs.len() != n + 1 || left_abs.len() != m + 1 {
        return Err(AlignError::Internal(format!(
            "traceback inputs inconsistent: {} columns for n={n}, top {} for n+1={}, left {} for m+1={}",
            dv_columns.len(),
            top_abs.len(),
            n + 1,
            left_abs.len(),
            m + 1
        )));
    }
    if top_abs[0] != left_abs[0] {
        return Err(AlignError::Internal("top/left anchors disagree".into()));
    }
    let gi = scheme.gap_insert();
    let mut ops_cost: u64 = 0;

    // Absolute column j (0..=n), values for rows 0..=m.
    let abs_col = |j: usize, cost: &mut u64| -> Vec<i32> {
        if j == 0 {
            return left_abs.to_vec();
        }
        let mut col = Vec::with_capacity(m + 1);
        let mut acc = top_abs[j];
        col.push(acc);
        for &d in &dv_columns[j - 1] {
            acc += i32::from(d) + gi;
            col.push(acc);
        }
        *cost += m as u64;
        col
    };

    let mut j = n;
    let mut i = m;
    let mut cur = abs_col(j, &mut ops_cost);
    if cur.len() != m + 1 {
        return Err(AlignError::Internal(format!(
            "column {j} has {} values, expected {}",
            cur.len(),
            m + 1
        )));
    }
    let mut prev = if j > 0 { abs_col(j - 1, &mut ops_cost) } else { Vec::new() };
    let mut cigar = Cigar::new();
    while i > 0 || j > 0 {
        ops_cost += 4; // compare/branch/update per step
        let here = cur[i];
        if i > 0 && j > 0 && here == prev[i - 1] + scheme.score(query[i - 1], reference[j - 1]) {
            cigar.push(if query[i - 1] == reference[j - 1] {
                smx_align_core::Op::Match
            } else {
                smx_align_core::Op::Mismatch
            });
            i -= 1;
            j -= 1;
            cur = prev;
            prev = if j > 0 { abs_col(j - 1, &mut ops_cost) } else { Vec::new() };
        } else if i > 0 && here == cur[i - 1] + gi {
            cigar.push(smx_align_core::Op::Insert);
            i -= 1;
        } else if j > 0 && here == prev[i] + scheme.gap_delete() {
            cigar.push(smx_align_core::Op::Delete);
            j -= 1;
            cur = prev;
            prev = if j > 0 { abs_col(j - 1, &mut ops_cost) } else { Vec::new() };
        } else {
            return Err(AlignError::Internal(format!("broken delta traceback at ({i}, {j})")));
        }
    }
    cigar.reverse();
    Ok((cigar, ops_cost))
}

/// Convenience: origin-anchored absolute borders for an `m × n` block.
#[must_use]
pub fn origin_absolute_borders(m: usize, n: usize, scheme: &ScoringScheme) -> (Vec<i32>, Vec<i32>) {
    let top = (0..=n as i32).map(|j| j * scheme.gap_delete()).collect();
    let left = (0..=m as i32).map(|i| i * scheme.gap_insert()).collect();
    (top, left)
}

/// Full SMX-1D alignment of a block: compute with interior, then trace
/// back. Returns `(alignment, counts)`.
///
/// # Errors
///
/// Propagates block-computation and traceback errors.
pub fn align_block(
    unit: &mut Smx1dUnit,
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
) -> Result<(smx_align_core::Alignment, InsnCounts), AlignError> {
    let res = compute_block(unit, query, reference, None)?;
    let (top, left) = origin_absolute_borders(query.len(), reference.len(), scheme);
    let cols = res.dv_columns.as_ref().expect("compute_block keeps interior");
    let (cigar, tb_cost) = traceback_from_columns(query, reference, scheme, cols, &top, &left)?;
    unit.charge(0, 0, tb_cost);
    let mut counts = res.counts;
    counts.scalar_ops += tb_cost;
    Ok((smx_align_core::Alignment { score: res.score, cigar }, counts))
}

/// One word of the `smx.pack` loop both packing kernels share: packs
/// eight ASCII bytes and charges the word's load and two scalar ops
/// (address step and loop control).
fn pack_word(unit: &mut Smx1dUnit, ascii: u64) -> u64 {
    let packed = unit.exec_pack(ascii);
    unit.charge(1, 0, 2);
    packed
}

/// The ASCII word of up to eight bytes, lane 0 in the low byte and zero
/// bytes past `bytes`.
fn ascii_word(bytes: impl DoubleEndedIterator<Item = u8>) -> u64 {
    bytes.rev().fold(0, |word, b| word << 8 | u64::from(b))
}

/// Packs an ASCII byte string into the configured EW representation using
/// `smx.pack`, eight characters per instruction.
///
/// # Errors
///
/// Propagates packing errors (codes always fit EW by construction).
pub fn pack_ascii_sequence(unit: &mut Smx1dUnit, ascii: &[u8]) -> Result<PackedSeq, AlignError> {
    let ew = unit.config().ew;
    let mut codes = Vec::with_capacity(ascii.len());
    for chunk in ascii.chunks(8) {
        let packed = PackedVec::from_word(ew, pack_word(unit, ascii_word(chunk.iter().copied())));
        codes.extend((0..chunk.len()).map(|k| packed.lane(k)));
    }
    PackedSeq::from_codes(ew, &codes)
}

/// The device's ingress: streams the codes of an `alphabet` sequence
/// through `smx.pack`, eight per instruction, and checks each packed word
/// against the codes in place. Each word's ASCII is built from the codes
/// through the alphabet's decode table, so the unit sees (and the counts
/// charge) exactly what [`pack_ascii_sequence`] would for the decoded
/// text.
///
/// # Errors
///
/// [`AlignError::PackDivergence`] at the first symbol whose packed code
/// differs from its own code (a code the unit's width cannot hold, or
/// an alphabet the unit does not pack).
pub fn pack_codes(
    unit: &mut Smx1dUnit,
    alphabet: Alphabet,
    codes: &[u8],
) -> Result<(), AlignError> {
    let table = alphabet.ascii_table();
    let ew = unit.config().ew;
    let bits = u32::from(ew.bits());
    for (w, chunk) in codes.chunks(8).enumerate() {
        let packed = pack_word(unit, ascii_word(chunk.iter().map(|&c| table[usize::from(c)])));
        // The codes' own word at EW bits per lane; a code too wide for a
        // lane bleeds into its neighbour, and the lane check below
        // still finds it.
        let (own, fits) = chunk.iter().enumerate().fold((0u64, true), |(own, fits), (k, &c)| {
            (own | u64::from(c) << (k as u32 * bits), fits && u32::from(c) <= ew.max_value())
        });
        let used = chunk.len() as u32 * bits;
        let mask = if used >= 64 { u64::MAX } else { (1u64 << used) - 1 };
        if fits && packed & mask == own {
            continue;
        }
        let packed = PackedVec::from_word(ew, packed);
        let k = (0..chunk.len()).find(|&k| packed.lane(k) != chunk[k]).unwrap_or(chunk.len());
        return Err(AlignError::PackDivergence { position: w * 8 + k });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::{dp, AlignmentConfig, ElementWidth};
    use smx_diffenc::boundary;
    use smx_diffenc::delta::DeltaBlock;

    fn unit_for(cfg: AlignmentConfig) -> Smx1dUnit {
        Smx1dUnit::configure(cfg.element_width(), &cfg.scoring()).unwrap()
    }

    #[test]
    fn block_score_matches_golden_dna_edit() {
        let mut u = unit_for(AlignmentConfig::DnaEdit);
        let q = [0u8, 1, 2, 3, 0, 1, 2, 3, 1, 1, 0];
        let r = [0u8, 1, 2, 2, 0, 1, 3, 3, 1];
        let res = compute_block(&mut u, &q, &r, None).unwrap();
        let expect = dp::score_only(&q, &r, &ScoringScheme::edit());
        assert_eq!(res.score, expect);
    }

    #[test]
    fn block_score_matches_golden_over_strips() {
        // Query longer than VL to exercise multi-strip carry.
        let cfg = AlignmentConfig::Protein; // VL = 10
        let scheme = cfg.scoring();
        let mut u = unit_for(cfg);
        let q: Vec<u8> = (0..37).map(|i| (i * 7 % 26) as u8).collect();
        let r: Vec<u8> = (0..23).map(|i| (i * 11 % 26) as u8).collect();
        let res = compute_block(&mut u, &q, &r, None).unwrap();
        assert_eq!(res.score, dp::score_only(&q, &r, &scheme));
    }

    #[test]
    fn borders_match_deltablock() {
        let cfg = AlignmentConfig::DnaGap;
        let scheme = cfg.scoring();
        let mut u = unit_for(cfg);
        let q: Vec<u8> = (0..20).map(|i| (i % 4) as u8).collect();
        let r: Vec<u8> = (0..30).map(|i| (i % 3) as u8).collect();
        let res = compute_block(&mut u, &q, &r, None).unwrap();
        let (top, left) = DeltaBlock::fresh_borders(q.len(), r.len());
        let blk = DeltaBlock::compute(ElementWidth::W4, &q, &r, &scheme, &top, &left).unwrap();
        assert_eq!(res.bottom_dh, blk.bottom_dh());
        assert_eq!(res.right_dv, blk.right_dv());
    }

    #[test]
    fn nonfresh_borders_flow_through() {
        let cfg = AlignmentConfig::DnaEdit;
        let mut u = unit_for(cfg);
        let q = [0u8, 1, 2, 3, 2, 1];
        let r = [3u8, 1, 0, 2, 2];
        // Compute the left half then feed its borders into the right half.
        let full = compute_block(&mut u, &q, &r, None).unwrap();
        let left_part = compute_block(&mut u, &q, &r[..2], None).unwrap();
        let borders = BlockBorders::from_neighbors(vec![0; 3], left_part.right_dv.clone());
        let right_part = compute_block(&mut u, &q, &r[2..], Some(&borders)).unwrap();
        assert_eq!(right_part.bottom_dh, full.bottom_dh[2..].to_vec());
        assert_eq!(right_part.right_dv, full.right_dv);
    }

    #[test]
    fn score_block_skips_interior() {
        let mut u = unit_for(AlignmentConfig::DnaEdit);
        let res = score_block(&mut u, &[0, 1, 2], &[0, 1, 2], None).unwrap();
        assert!(res.dv_columns.is_none());
        assert_eq!(res.score, 0);
    }

    #[test]
    fn align_block_matches_golden_alignment() {
        for cfg in [AlignmentConfig::DnaEdit, AlignmentConfig::DnaGap, AlignmentConfig::Ascii] {
            let scheme = cfg.scoring();
            let mut u = unit_for(cfg);
            let card = cfg.alphabet().cardinality() as u32;
            let q: Vec<u8> = (0..33u32).map(|i| (i.wrapping_mul(7) % card) as u8).collect();
            let r: Vec<u8> = (0..29u32).map(|i| (i.wrapping_mul(5) % card) as u8).collect();
            let (aln, _) = align_block(&mut u, &q, &r, &scheme).unwrap();
            let golden = dp::align_codes(&q, &r, &scheme);
            assert_eq!(aln.score, golden.score, "{cfg}");
            aln.verify(&q, &r, &scheme).unwrap();
        }
    }

    #[test]
    fn align_block_protein_matches_golden() {
        let cfg = AlignmentConfig::Protein;
        let scheme = cfg.scoring();
        let mut u = unit_for(cfg);
        let q: Vec<u8> = b"HEAGAWGHEEMKVLAAWWYV".iter().map(|c| c - b'A').collect();
        let r: Vec<u8> = b"PAWHEAEMKWLSAYV".iter().map(|c| c - b'A').collect();
        let (aln, _) = align_block(&mut u, &q, &r, &scheme).unwrap();
        let golden = dp::align_codes(&q, &r, &scheme);
        assert_eq!(aln.score, golden.score);
        aln.verify(&q, &r, &scheme).unwrap();
    }

    #[test]
    fn instruction_counts_scale_with_block() {
        let mut u = unit_for(AlignmentConfig::DnaEdit);
        let q = vec![0u8; 64]; // 2 strips of 32
        let r = vec![1u8; 10];
        let res = score_block(&mut u, &q, &r, None).unwrap();
        // 2 strips x 10 columns, one smx.v + smx.h each.
        assert_eq!(res.counts.smx_v, 20);
        assert_eq!(res.counts.smx_h, 20);
        assert_eq!(res.counts.smx_redsum, 2);
        assert!(res.counts.csr_write >= 4); // 2 query words + ref loads
    }

    #[test]
    fn dualport_matches_two_instruction_variant() {
        let cfg = AlignmentConfig::DnaGap;
        let mut u1 = unit_for(cfg);
        let mut u2 = unit_for(cfg);
        let q: Vec<u8> = (0..45).map(|i| (i % 4) as u8).collect();
        let r: Vec<u8> = (0..38).map(|i| (i % 3) as u8).collect();
        let two = score_block(&mut u1, &q, &r, None).unwrap();
        let merged = score_block_dualport(&mut u2, &q, &r, None).unwrap();
        assert_eq!(two.score, merged.score);
        assert_eq!(two.bottom_dh, merged.bottom_dh);
        assert_eq!(two.right_dv, merged.right_dv);
        // Half the SMX column instructions.
        assert_eq!(merged.counts.smx_vh * 2, two.counts.smx_v + two.counts.smx_h);
        assert_eq!(merged.counts.smx_v, 0);
    }

    #[test]
    fn empty_block_rejected() {
        let mut u = unit_for(AlignmentConfig::DnaEdit);
        assert!(compute_block(&mut u, &[], &[0], None).is_err());
    }

    #[test]
    fn pack_sequence_roundtrip() {
        let mut u = unit_for(AlignmentConfig::DnaEdit);
        let packed = pack_ascii_sequence(&mut u, b"ACGTACGTACG").unwrap();
        assert_eq!(packed.unpack(), vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2]);
        assert_eq!(u.counts().smx_pack, 2);
    }

    /// The text path, `pack_codes`'s reference: decode to text, pack it
    /// with `pack_ascii_sequence`, unpack, and report the first position
    /// whose packed code differs.
    fn text_round_trip(u: &mut Smx1dUnit, alphabet: Alphabet, codes: &[u8]) -> Option<usize> {
        let text: Vec<u8> = codes.iter().map(|&c| alphabet.decode(c).unwrap() as u8).collect();
        let packed = pack_ascii_sequence(u, &text).unwrap().unpack();
        packed.iter().zip(codes).position(|(a, b)| a != b)
    }

    #[test]
    fn pack_codes_charges_and_accepts_what_the_text_path_does() {
        for cfg in AlignmentConfig::ALL {
            let alphabet = cfg.alphabet();
            let card = alphabet.cardinality();
            for len in [1, 7, 8, 9, 150, 371] {
                let codes: Vec<u8> = (0..len).map(|i| ((i * 7 + i / 5) % card) as u8).collect();
                let (mut streamed, mut text) = (unit_for(cfg), unit_for(cfg));
                pack_codes(&mut streamed, alphabet, &codes).unwrap();
                assert_eq!(text_round_trip(&mut text, alphabet, &codes), None, "{cfg}");
                assert_eq!(streamed.counts(), text.counts(), "{cfg} len {len}");
                assert_eq!(streamed.counts().smx_pack, len.div_ceil(8) as u64);
            }
        }
    }

    #[test]
    fn pack_codes_reports_the_text_paths_divergence_position() {
        // 4-bit DNA codes through the 2-bit unit: `N` (4) and the IUPAC
        // codes past it do not fit two bits, and `smx.pack` sends their
        // letters to `A` (0). Protein codes through the 4-bit unit: `G`
        // is code 6 there and 2 in DNA.
        let protein: Vec<u8> = b"AAGQ".iter().map(|c| c - b'A').collect();
        let cases = [
            (AlignmentConfig::DnaEdit, Alphabet::Dna4, vec![0u8, 1, 2, 3, 4, 0], 4),
            (
                AlignmentConfig::DnaEdit,
                Alphabet::Dna4,
                [[3u8; 13].as_slice(), &[9, 0]].concat(),
                13,
            ),
            (
                AlignmentConfig::DnaEdit,
                Alphabet::Dna4,
                (0..40).map(|i| (i % 4 + i / 31 * 12) as u8).collect(),
                31,
            ),
            (AlignmentConfig::DnaGap, Alphabet::Protein, protein, 2),
        ];
        for (cfg, alphabet, codes, position) in cases {
            let before = text_round_trip(&mut unit_for(cfg), alphabet, &codes);
            assert_eq!(before, Some(position), "{cfg} {alphabet}");
            let got = pack_codes(&mut unit_for(cfg), alphabet, &codes);
            assert_eq!(got, Err(AlignError::PackDivergence { position }), "{cfg} {alphabet}");
        }
    }

    #[test]
    fn block_score_helper_consistent_with_boundary_math() {
        let cfg = AlignmentConfig::DnaGap;
        let scheme = cfg.scoring();
        let mut u = unit_for(cfg);
        let q: Vec<u8> = (0..9).map(|i| (i % 4) as u8).collect();
        let r: Vec<u8> = (0..7).map(|i| (i % 4) as u8).collect();
        let res = compute_block(&mut u, &q, &r, None).unwrap();
        let borders = BlockBorders::fresh(q.len(), r.len());
        let blk = DeltaBlock::compute(
            ElementWidth::W4,
            &q,
            &r,
            &scheme,
            &borders.top_dh,
            &borders.left_dv,
        )
        .unwrap();
        assert_eq!(res.score, boundary::block_score(0, &borders, &blk, &scheme));
    }
}
