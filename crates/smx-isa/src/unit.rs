//! The SMX-1D functional unit (paper §4.3): per-EW PE arrays, the
//! match/mismatch comparator array, and the substitution-matrix access
//! path, exposed as instruction-execution methods with instruction-count
//! accounting for the timing model.

use crate::config::{ScoreMode, SmxConfig};
use crate::insn::{split_rs2, Insn};
use crate::regs::ArchState;
use smx_align_core::{AlignError, Alphabet, ElementWidth, ScoringScheme};
use smx_diffenc::pack::PackedVec;
use smx_diffenc::pe;

/// Dynamic instruction counts accumulated by a unit and the kernels built
/// on it. These feed the loop-level CPU timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsnCounts {
    /// `smx.v` executions.
    pub smx_v: u64,
    /// `smx.h` executions.
    pub smx_h: u64,
    /// `smx.redsum` executions.
    pub smx_redsum: u64,
    /// `smx.pack` executions.
    pub smx_pack: u64,
    /// Merged `smx.vh` executions (dual-destination cores).
    pub smx_vh: u64,
    /// CSR writes (query/reference/config loads).
    pub csr_write: u64,
    /// 64-bit words loaded from memory by the driving software.
    pub load_words: u64,
    /// 64-bit words stored to memory by the driving software.
    pub store_words: u64,
    /// Scalar ALU/branch operations executed by the driving software
    /// (loop control, address generation, traceback decisions).
    pub scalar_ops: u64,
}

impl InsnCounts {
    /// Total dynamic instructions (all classes).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.smx_v
            + self.smx_h
            + self.smx_redsum
            + self.smx_pack
            + self.smx_vh
            + self.csr_write
            + self.load_words
            + self.store_words
            + self.scalar_ops
    }

    /// SMX custom instructions only.
    #[must_use]
    pub fn smx_total(&self) -> u64 {
        self.smx_v + self.smx_h + self.smx_redsum + self.smx_pack + self.smx_vh
    }

    /// Accumulates another count set.
    pub fn merge(&mut self, other: &InsnCounts) {
        self.smx_v += other.smx_v;
        self.smx_h += other.smx_h;
        self.smx_redsum += other.smx_redsum;
        self.smx_pack += other.smx_pack;
        self.smx_vh += other.smx_vh;
        self.csr_write += other.csr_write;
        self.load_words += other.load_words;
        self.store_words += other.store_words;
        self.scalar_ops += other.scalar_ops;
    }
}

/// The SMX-1D functional unit with its architectural state.
#[derive(Debug, Clone)]
pub struct Smx1dUnit {
    state: ArchState,
    counts: InsnCounts,
}

impl Smx1dUnit {
    /// Creates a unit configured for `ew` and `scheme`, loading the submat
    /// memory when the scheme is matrix-based.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors ([`AlignError::InvalidScoring`],
    /// [`AlignError::ElementWidthOverflow`]).
    pub fn configure(ew: ElementWidth, scheme: &ScoringScheme) -> Result<Smx1dUnit, AlignError> {
        let cfg = SmxConfig::from_scheme(ew, scheme)?;
        let mut state = ArchState::new();
        state.smx_config = cfg.encode();
        if scheme.uses_matrix() {
            state.load_submat(scheme)?;
        }
        Ok(Smx1dUnit { state, counts: InsnCounts::default() })
    }

    /// The architectural state (read-only).
    #[must_use]
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Accumulated instruction counts.
    #[must_use]
    pub fn counts(&self) -> InsnCounts {
        self.counts
    }

    /// Resets the instruction counters (state is preserved).
    pub fn reset_counts(&mut self) {
        self.counts = InsnCounts::default();
    }

    /// Adds software-side costs (loads/stores/scalar ops) recorded by a
    /// kernel driving this unit.
    pub fn charge(&mut self, loads: u64, stores: u64, scalar: u64) {
        self.counts.load_words += loads;
        self.counts.store_words += stores;
        self.counts.scalar_ops += scalar;
    }

    /// The decoded configuration.
    #[must_use]
    pub fn config(&self) -> SmxConfig {
        SmxConfig::decode(self.state.smx_config)
    }

    /// Writes the packed query register from lane codes (a CSR write).
    ///
    /// # Errors
    ///
    /// Returns an error if the lanes overflow the configured EW.
    pub fn set_query(&mut self, lanes: &[u8]) -> Result<(), AlignError> {
        let ew = self.config().ew;
        self.state.smx_query = PackedVec::from_lanes(ew, lanes)?.word();
        self.counts.csr_write += 1;
        Ok(())
    }

    /// Writes the packed reference register from lane codes (a CSR write).
    ///
    /// # Errors
    ///
    /// Returns an error if the lanes overflow the configured EW.
    pub fn set_reference(&mut self, lanes: &[u8]) -> Result<(), AlignError> {
        let ew = self.config().ew;
        self.state.smx_reference = PackedVec::from_lanes(ew, lanes)?.word();
        self.counts.csr_write += 1;
        Ok(())
    }

    /// Generates the shifted score S′ for one (query-lane, reference-char)
    /// pair, through either the comparator array or the submat memory.
    fn s_prime(&self, cfg: &SmxConfig, q: u8, r: u8) -> u8 {
        match cfg.mode {
            ScoreMode::MatchMismatch => {
                let base = if q == r { cfg.match_score } else { cfg.mismatch };
                (base as i32 - cfg.gap_insert as i32 - cfg.gap_delete as i32) as u8
            }
            ScoreMode::SubstMatrix => self.state.submat_lookup(q % 26, r % 26),
        }
    }

    fn column_chain(&self, rs1: u64, rs2: u64) -> (u64, u8) {
        let cfg = self.config();
        let ew = cfg.ew;
        let vl = ew.vl();
        let (dh_in, ref_lane, active) = split_rs2(rs2);
        let active = if active == 0 { vl } else { (active as usize).min(vl) };
        let qvec = PackedVec::from_word(ew, self.state.smx_query);
        let rchar = PackedVec::from_word(ew, self.state.smx_reference).lane(ref_lane as usize % vl);
        let dv_in = PackedVec::from_word(ew, rs1);
        let mut out = PackedVec::from_word(ew, 0);
        let mut dh = dh_in & (ew.max_value() as u8);
        for k in 0..active {
            let s = self.s_prime(&cfg, qvec.lane(k), rchar);
            let (v, h) = pe::pe_exact(ew, dv_in.lane(k), dh, s);
            out = out.with_lane(k, v);
            dh = h;
        }
        (out.word(), dh)
    }

    /// Executes `smx.v`: returns the packed ΔV′ output column.
    #[must_use]
    pub fn exec_v(&mut self, rs1: u64, rs2: u64) -> u64 {
        self.counts.smx_v += 1;
        self.column_chain(rs1, rs2).0
    }

    /// Executes `smx.h`: returns the bottom Δh′ of the column.
    #[must_use]
    pub fn exec_h(&mut self, rs1: u64, rs2: u64) -> u64 {
        self.counts.smx_h += 1;
        u64::from(self.column_chain(rs1, rs2).1)
    }

    /// Executes the merged `smx.vh` (dual-destination cores, paper §4.2):
    /// returns `(ΔV′ word, bottom Δh′)` in one instruction.
    #[must_use]
    pub fn exec_vh(&mut self, rs1: u64, rs2: u64) -> (u64, u64) {
        self.counts.smx_vh += 1;
        let (v, h) = self.column_chain(rs1, rs2);
        (v, u64::from(h))
    }

    /// Executes `smx.redsum`: the sum of all VL packed lanes of `rs1`.
    #[must_use]
    pub fn exec_redsum(&mut self, rs1: u64) -> u64 {
        self.counts.smx_redsum += 1;
        let ew = self.config().ew;
        PackedVec::from_word(ew, rs1).lane_sum(ew.vl())
    }

    /// Executes `smx.pack`: packs 8 ASCII bytes from `rs1` into EW-width
    /// codes (lane 0 = least-significant byte), each through the width's
    /// compile-time table.
    #[must_use]
    pub fn exec_pack(&mut self, rs1: u64) -> u64 {
        self.counts.smx_pack += 1;
        let ew = self.config().ew;
        let table = &PACK_TABLES[ew as usize];
        let bits = u32::from(ew.bits());
        rs1.to_le_bytes().iter().enumerate().fold(0, |out, (k, &ascii)| {
            out | u64::from(table[usize::from(ascii)]) << (k as u32 * bits)
        })
    }

    /// Dispatches a decoded instruction against explicit operand values.
    #[must_use]
    pub fn execute(&mut self, insn: Insn, rs1_val: u64, rs2_val: u64) -> u64 {
        match insn {
            Insn::SmxV { .. } => self.exec_v(rs1_val, rs2_val),
            Insn::SmxH { .. } => self.exec_h(rs1_val, rs2_val),
            Insn::SmxRedsum { .. } => self.exec_redsum(rs1_val),
            Insn::SmxPack { .. } => self.exec_pack(rs1_val),
            Insn::SmxVh { .. } => self.exec_vh(rs1_val, rs2_val).0,
        }
    }
}

/// `smx.pack`'s code for every byte, one table per element width in
/// [`ElementWidth::ALL`] order, built at compile time. Each width encodes
/// its configuration's alphabet and sends an unknown byte to its
/// catch-all code (`A` for 2-bit DNA, `N` for 4-bit, `X` for protein);
/// 8-bit lanes take the byte as it is.
static PACK_TABLES: [[u8; 256]; 4] = [
    pack_table(ElementWidth::W2),
    pack_table(ElementWidth::W4),
    pack_table(ElementWidth::W6),
    pack_table(ElementWidth::W8),
];

const fn pack_table(ew: ElementWidth) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut byte = 0;
    while byte < table.len() {
        let ascii = byte as u8;
        table[byte] = match ew {
            ElementWidth::W2 => unwrap_or(Alphabet::Dna2.encode_byte(ascii), 0),
            ElementWidth::W4 => unwrap_or(Alphabet::Dna4.encode_byte(ascii), 4),
            ElementWidth::W6 => unwrap_or(Alphabet::Protein.encode_byte(ascii), 23),
            ElementWidth::W8 => ascii,
        };
        byte += 1;
    }
    table
}

/// `Option::unwrap_or` for the `const` table builder.
const fn unwrap_or(code: Option<u8>, unknown: u8) -> u8 {
    match code {
        Some(code) => code,
        None => unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::SubstMatrix;

    /// `smx.pack`'s code for one byte through `Alphabet::encode` on its
    /// character: the tables' reference.
    fn pack_ascii(ew: ElementWidth, ascii: u8) -> u8 {
        let c = ascii as char;
        match ew {
            ElementWidth::W2 => Alphabet::Dna2.encode(c).unwrap_or(0),
            ElementWidth::W4 => Alphabet::Dna4.encode(c).unwrap_or(4), // unknown -> N
            ElementWidth::W6 => Alphabet::Protein.encode(c).unwrap_or(23), // unknown -> X
            ElementWidth::W8 => ascii,
        }
    }

    #[test]
    fn pack_tables_match_the_per_character_reference() {
        for ew in ElementWidth::ALL {
            for ascii in 0u8..=255 {
                let want = pack_ascii(ew, ascii);
                assert_eq!(PACK_TABLES[ew as usize][usize::from(ascii)], want, "{ew} byte {ascii}");
            }
        }
    }

    #[test]
    fn exec_pack_matches_the_reference_in_every_lane() {
        for cfg in smx_align_core::AlignmentConfig::ALL {
            let ew = cfg.element_width();
            let mut u = Smx1dUnit::configure(ew, &cfg.scoring()).unwrap();
            for start in (0u8..=255).step_by(8) {
                let bytes: [u8; 8] =
                    std::array::from_fn(|k| start.wrapping_add((k as u8).wrapping_mul(37)));
                let packed = u.exec_pack(u64::from_le_bytes(bytes));
                let lanes = PackedVec::from_word(ew, packed).to_lanes(8);
                let want: Vec<u8> = bytes.iter().map(|&b| pack_ascii(ew, b)).collect();
                assert_eq!(lanes, want, "{ew}");
            }
        }
    }

    fn edit_unit() -> Smx1dUnit {
        Smx1dUnit::configure(ElementWidth::W2, &ScoringScheme::edit()).unwrap()
    }

    #[test]
    fn exec_v_matches_pe_chain() {
        let mut u = edit_unit();
        let q: Vec<u8> = (0..32).map(|k| (k % 4) as u8).collect();
        u.set_query(&q).unwrap();
        u.set_reference(&[1u8; 32]).unwrap();
        let scheme = ScoringScheme::edit();
        let dv_in = vec![0u8; 32];
        let rs1 = PackedVec::from_lanes(ElementWidth::W2, &dv_in).unwrap().word();
        let rs2 = crate::insn::rs2_operand(0, 0, 0);
        let out = u.exec_v(rs1, rs2);
        let s_col: Vec<u8> = q.iter().map(|&qc| scheme.shifted_score(qc, 1) as u8).collect();
        let (expect, _) = pe::pe_chain(ElementWidth::W2, &dv_in, 0, &s_col);
        assert_eq!(PackedVec::from_word(ElementWidth::W2, out).to_lanes(32), expect);
    }

    #[test]
    fn exec_h_returns_chain_bottom() {
        let mut u = edit_unit();
        u.set_query(&[0u8; 32]).unwrap();
        u.set_reference(&[0u8; 32]).unwrap();
        let rs2 = crate::insn::rs2_operand(1, 0, 0);
        let h = u.exec_h(0, rs2);
        // All matches: S' = 2 each; chain behaviour checked vs pe_chain.
        let s_col = vec![2u8; 32];
        let (_, expect) = pe::pe_chain(ElementWidth::W2, &[0u8; 32], 1, &s_col);
        assert_eq!(h, u64::from(expect));
    }

    #[test]
    fn partial_active_lanes() {
        let mut u = edit_unit();
        u.set_query(&[0, 1, 2]).unwrap();
        u.set_reference(&[2u8]).unwrap();
        let scheme = ScoringScheme::edit();
        let rs2 = crate::insn::rs2_operand(0, 0, 3);
        let h = u.exec_h(0, rs2);
        let s_col: Vec<u8> =
            [0u8, 1, 2].iter().map(|&qc| scheme.shifted_score(qc, 2) as u8).collect();
        let (_, expect) = pe::pe_chain(ElementWidth::W2, &[0, 0, 0], 0, &s_col);
        assert_eq!(h, u64::from(expect));
    }

    #[test]
    fn submat_mode_uses_matrix() {
        let scheme = ScoringScheme::matrix(SubstMatrix::blosum50(), -5).unwrap();
        let mut u = Smx1dUnit::configure(ElementWidth::W6, &scheme).unwrap();
        u.set_query(&[22u8; 10]).unwrap(); // 'W'
        u.set_reference(&[22u8; 10]).unwrap();
        let rs2 = crate::insn::rs2_operand(0, 0, 1);
        let v = u.exec_v(0, rs2);
        // S'(W, W) = 15 + 10 = 25; PE with dv=dh=0 gives max(25, 0, 0) = 25.
        assert_eq!(PackedVec::from_word(ElementWidth::W6, v).lane(0), 25);
    }

    #[test]
    fn redsum_sums_lanes() {
        let mut u = edit_unit();
        let lanes = vec![1u8; 32];
        let rs1 = PackedVec::from_lanes(ElementWidth::W2, &lanes).unwrap().word();
        assert_eq!(u.exec_redsum(rs1), 32);
    }

    #[test]
    fn pack_dna2() {
        let mut u = edit_unit();
        let text = u64::from_le_bytes(*b"ACGTACGT");
        let packed = u.exec_pack(text);
        let v = PackedVec::from_word(ElementWidth::W2, packed);
        assert_eq!(v.to_lanes(8), vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn pack_protein() {
        let scheme = ScoringScheme::matrix(SubstMatrix::blosum50(), -5).unwrap();
        let mut u = Smx1dUnit::configure(ElementWidth::W6, &scheme).unwrap();
        let text = u64::from_le_bytes(*b"HEAGAWG*");
        let packed = u.exec_pack(text);
        let v = PackedVec::from_word(ElementWidth::W6, packed);
        assert_eq!(v.to_lanes(8), vec![7, 4, 0, 6, 0, 22, 6, 23]); // '*' -> X
    }

    #[test]
    fn counts_accumulate() {
        let mut u = edit_unit();
        u.set_query(&[0u8; 32]).unwrap();
        u.set_reference(&[0u8; 32]).unwrap();
        let _ = u.exec_v(0, 0);
        let _ = u.exec_h(0, 0);
        let _ = u.exec_redsum(0);
        let _ = u.exec_pack(0);
        u.charge(3, 2, 10);
        let c = u.counts();
        assert_eq!(c.smx_v, 1);
        assert_eq!(c.smx_h, 1);
        assert_eq!(c.smx_redsum, 1);
        assert_eq!(c.smx_pack, 1);
        assert_eq!(c.csr_write, 2);
        assert_eq!(c.total(), 1 + 1 + 1 + 1 + 2 + 3 + 2 + 10);
        assert_eq!(c.smx_total(), 4);
    }

    #[test]
    fn execute_dispatches() {
        let mut u = edit_unit();
        let insn = Insn::SmxRedsum { rd: 1, rs1: 2 };
        let rs1 = PackedVec::from_lanes(ElementWidth::W2, &[3, 3]).unwrap().word();
        assert_eq!(u.execute(insn, rs1, 0), 6);
    }
}
