//! The SMX Processing Element (paper §4.3.1, Fig. 5).
//!
//! One PE computes one DP-element in shifted differential form:
//!
//! ```text
//! Δv′_out = max( S′ − Δh′_in,  Δv′_in − Δh′_in,  0 )
//! Δh′_out = max( S′ − Δv′_in,  Δh′_in − Δv′_in,  0 )
//! ```
//!
//! The hardware uses exactly four subtractors — `a = S′ − Δh′`,
//! `b = Δv′ − Δh′`, `c = S′ − Δv′`, `d = Δh′ − Δv′` — whose sign
//! (overflow) bits drive two 3:1 muxes:
//!
//! * `Δv′_out`: if `sign(c) = 0` then (`a` if `sign(a) = 0` else `0`)
//!   else (`b` if `sign(b) = 0` else `0`) — because `a − b = c`, the sign
//!   of `c` decides which of `a`, `b` is larger.
//! * `Δh′_out`: symmetric, with `c − d = a` deciding between `c` and `d`.
//!
//! [`pe_exact`] models this datapath with EW+1-bit two's-complement
//! arithmetic; [`pe_reference`] is the obvious wide-integer version. The
//! two are proven equivalent by property tests for all in-range inputs.

use smx_align_core::ElementWidth;

/// Wide-integer reference PE: plain `max` over `i32`.
///
/// Inputs and outputs are *shifted* values (`Δ′ ∈ [0, θ]`, `S′ ∈ [0, θ]`).
/// Inlined, so that a caller's loop over lanes can vectorise it.
#[inline]
#[must_use]
pub fn pe_reference(dv_in: u8, dh_in: u8, s: u8) -> (u8, u8) {
    let (dv, dh, s) = (dv_in as i32, dh_in as i32, s as i32);
    let dv_out = (s - dh).max(dv - dh).max(0);
    let dh_out = (s - dv).max(dh - dv).max(0);
    (dv_out as u8, dh_out as u8)
}

/// Bit-exact PE: EW+1-bit subtractors with sign-bit-controlled muxes,
/// mirroring the Fig. 5 datapath.
///
/// # Panics
///
/// Debug builds assert that the inputs fit in `ew` bits; release builds
/// mask silently (as the hardware would).
#[must_use]
pub fn pe_exact(ew: ElementWidth, dv_in: u8, dh_in: u8, s: u8) -> (u8, u8) {
    let bits = ew.bits() as u32;
    debug_assert!(u32::from(dv_in) <= ew.max_value(), "dv_in {dv_in} overflows {ew}");
    debug_assert!(u32::from(dh_in) <= ew.max_value(), "dh_in {dh_in} overflows {ew}");
    debug_assert!(u32::from(s) <= ew.max_value(), "s {s} overflows {ew}");
    let mask = (1u16 << (bits + 1)) - 1; // EW+1-bit datapath
    let value_mask = (1u16 << bits) - 1;
    let sign_bit = 1u16 << bits;

    let dv = u16::from(dv_in) & value_mask;
    let dh = u16::from(dh_in) & value_mask;
    let s = u16::from(s) & value_mask;

    // Four subtractors in EW+1-bit two's complement.
    let sub = |x: u16, y: u16| x.wrapping_sub(y) & mask;
    let a = sub(s, dh); // S′ − Δh′
    let b = sub(dv, dh); // Δv′ − Δh′
    let c = sub(s, dv); // S′ − Δv′
    let d = sub(dh, dv); // Δh′ − Δv′
    let neg = |x: u16| x & sign_bit != 0;

    // Δv′ mux: sign(c) picks between a and b (a − b = c); the selected
    // value's own sign picks between it and zero.
    let dv_out = if !neg(c) {
        if !neg(a) {
            a
        } else {
            0
        }
    } else if !neg(b) {
        b
    } else {
        0
    };
    // Δh′ mux: sign(a) picks between c and d (c − d = a).
    let dh_out = if !neg(a) {
        if !neg(c) {
            c
        } else {
            0
        }
    } else if !neg(d) {
        d
    } else {
        0
    };
    ((dv_out & value_mask) as u8, (dh_out & value_mask) as u8)
}

/// Runs a vertical chain of `pe_exact` steps: the SMX-1D column operation.
///
/// Lane `k` computes the DP-element at row `k` of the current column:
/// its `Δv′` input comes from `dv_col_in[k]` (the previous column), its
/// `Δh′` input from the cell above (`dh_top` for lane 0, then the chain).
/// Returns the new column `Δv′` values and the bottom `Δh′` output.
#[must_use]
pub fn pe_chain(ew: ElementWidth, dv_col_in: &[u8], dh_top: u8, s_col: &[u8]) -> (Vec<u8>, u8) {
    assert_eq!(dv_col_in.len(), s_col.len(), "Δv column and S′ column must match");
    let mut dv_out = Vec::with_capacity(dv_col_in.len());
    let mut dh = dh_top;
    for (&dv, &s) in dv_col_in.iter().zip(s_col) {
        let (v, h) = pe_exact(ew, dv, dh, s);
        dv_out.push(v);
        dh = h;
    }
    (dv_out, dh)
}

/// One Myers/Hyyrö block step in Edlib's operation order: the
/// bit-parallel form of a column of unit-cost edit PEs.
///
/// Bit `i` of `(pv, mv)` marks a vertical edit-distance delta of +1 / −1
/// at row `i`; `eq` marks the rows whose query code matches the column's
/// reference code; `hin ∈ {−1, 0, +1}` is the horizontal delta entering
/// the top row. Advances `(pv, mv)` to this column and returns its
/// horizontal delta words `(ph, mh)` (bit `i`: row `i`'s horizontal
/// delta is +1 / −1). Carries only move upward, so a column of fewer
/// than 64 rows ignores the bits above it and reads its bottom row at
/// bit `rows − 1`.
#[inline]
#[must_use]
pub fn myers_step(pv: &mut u64, mv: &mut u64, eq: u64, hin: i32) -> (u64, u64) {
    // Edlib's canonical operation order: Xv is derived from the *raw*
    // match mask, before the incoming horizontal delta folds into bit 0 of
    // Eq for the Xh carry chain. (When hin < 0 the adjusted bit 0 is
    // masked out of the Pv'/Mv' update by the forced Mh bit below, so the
    // distinction is unobservable — but matching the reference ordering
    // keeps the high-bit carry reasoning auditable against Edlib.)
    let xv = eq | *mv;
    let mut eq = eq;
    if hin < 0 {
        eq |= 1;
    }
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let (mut phs, mut mhs) = (ph << 1, mh << 1);
    if hin < 0 {
        mhs |= 1;
    } else if hin > 0 {
        phs |= 1;
    }
    *pv = mhs | !(xv | phs);
    *mv = phs & xv;
    (ph, mh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pe_matches_reference_exhaustive_small_widths() {
        for ew in [ElementWidth::W2, ElementWidth::W4] {
            let max = ew.max_value() as u8;
            for dv in 0..=max {
                for dh in 0..=max {
                    for s in 0..=max {
                        assert_eq!(
                            pe_exact(ew, dv, dh, s),
                            pe_reference(dv, dh, s),
                            "{ew} dv={dv} dh={dh} s={s}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn pe_matches_reference_w6_w8(dv in 0u8..=255, dh in 0u8..=255, s in 0u8..=255) {
            for ew in [ElementWidth::W6, ElementWidth::W8] {
                let modulus = ew.max_value() as u16 + 1;
                let reduce = |x: u8| (x as u16 % modulus) as u8;
                let (dv, dh, s) = (reduce(dv), reduce(dh), reduce(s));
                prop_assert_eq!(pe_exact(ew, dv, dh, s), pe_reference(dv, dh, s));
            }
        }

        #[test]
        fn outputs_stay_in_range(dv in 0u8..=63, dh in 0u8..=63, s in 0u8..=63) {
            // Closure property: in-range inputs produce in-range outputs,
            // the "no truncation or overflow" claim of §4.1.
            let (v, h) = pe_reference(dv, dh, s);
            let theta = dv.max(dh).max(s);
            prop_assert!(v <= theta);
            prop_assert!(h <= theta);
        }
    }

    #[test]
    fn mutual_dependence_of_first_terms() {
        // Paper §4.1: if the first term (S′ − Δ) is selected in one
        // equation it is also selected in the other — check a case where
        // S′ dominates both.
        let (v, h) = pe_reference(1, 2, 63);
        assert_eq!(v, 61); // S′ − Δh′
        assert_eq!(h, 62); // S′ − Δv′
    }

    #[test]
    fn chain_matches_manual_steps() {
        let ew = ElementWidth::W4;
        let dv_col = [3u8, 0, 7];
        let s_col = [10u8, 4, 10];
        let (out, dh_bot) = pe_chain(ew, &dv_col, 5, &s_col);
        let mut dh = 5u8;
        let mut expect = Vec::new();
        for k in 0..3 {
            let (v, h) = pe_reference(dv_col[k], dh, s_col[k]);
            expect.push(v);
            dh = h;
        }
        assert_eq!(out, expect);
        assert_eq!(dh_bot, dh);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn chain_rejects_mismatched_lengths() {
        let _ = pe_chain(ElementWidth::W2, &[0, 0], 0, &[0]);
    }
}
