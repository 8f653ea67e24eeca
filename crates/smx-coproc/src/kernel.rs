//! Fast SMX-2D tile kernels, bit-exact to [`DeltaBlock::compute`] over
//! [`pe_exact`].
//!
//! Why they are exact: every tile input border is first masked to EW
//! bits, as `pe_exact` masks its operands. On masked inputs the plain
//! max of [`pe_reference`] equals `pe_exact` (the exhaustive and
//! property tests in `smx_diffenc::pe` prove it), and its outputs never
//! exceed its largest input, so interior values stay in range and never
//! need masking again. Both kernels below therefore evaluate
//! `pe_reference`, only in a different cell order or encoding.
//!
//! * **Lane kernel** (every scheme; the only one for W4/W6): the tile is
//!   swept by anti-diagonal with one lane per tile row, so one diagonal
//!   is a single pass of saturating subtracts and maxes over a 16-byte
//!   vector. Tiles taller than [`LANES`] run as stacked row bands.
//! * **Edit-word kernel** (the unit-cost edit scheme, θ = 2): the shifted
//!   deltas {0, 1, 2} are the edit-distance deltas {+1, 0, −1}, so a
//!   tile column fits two bit-words and one reference character is one
//!   Myers/Hyyrö word step. A border value above θ falls back to the
//!   lane kernel.
//!
//! `SMX_FORCE_SCALAR` (via `smx_align_core::dispatch::force_scalar`) and
//! non-x86_64 targets run scalar twins with the same structure; SSE2 is
//! part of the x86_64 baseline, so no runtime detection is needed.
//!
//! [`DeltaBlock::compute`]: smx_diffenc::delta::DeltaBlock::compute
//! [`pe_exact`]: smx_diffenc::pe::pe_exact

use smx_align_core::{ElementWidth, ScoringScheme, SubstMatrix};
use smx_diffenc::pe::{myers_step, pe_reference};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Tile rows one lane vector holds.
const LANES: usize = 16;
/// Largest tile side (the W2 geometry).
pub(crate) const MAX_VL: usize = 32;
/// Anti-diagonals of the largest band (`LANES + MAX_VL − 1`).
const MAX_DIAGS: usize = LANES + MAX_VL - 1;
/// The edit scheme's θ: borders above it leave the edit-word kernel.
const EDIT_THETA: u8 = 2;

/// Row-major `rows × n` interior the traceback recompute materializes.
pub(crate) struct Interior<'a> {
    pub(crate) dv: &'a mut [u8],
    pub(crate) dh: &'a mut [u8],
    pub(crate) n: usize,
}

impl Interior<'_> {
    #[inline]
    fn put(&mut self, i: usize, j: usize, dv: u8, dh: u8) {
        let k = i * self.n + j;
        self.dv[k] = dv;
        self.dh[k] = dh;
    }
}

/// Computes one `q.len() × r.len()` tile in place: `dv` enters as the
/// left border and leaves as the right border, `dh` enters as the top
/// border and leaves as the bottom border. `interior`, when given,
/// receives every cell.
///
/// The caller guarantees `dv.len() == q.len() ≤ 32`, `dh.len() ==
/// r.len() ≤ 32`, and a scheme validated for `ew` (encodable, θ fits).
pub(crate) fn tile(
    ew: ElementWidth,
    scheme: &ScoringScheme,
    q: &[u8],
    r: &[u8],
    dv: &mut [u8],
    dh: &mut [u8],
    mut interior: Option<&mut Interior<'_>>,
) {
    debug_assert!(dv.len() == q.len() && dh.len() == r.len() && q.len() <= MAX_VL);
    if q.is_empty() || r.is_empty() {
        return;
    }
    let mask = ew.max_value() as u8;
    dv.iter_mut().chain(dh.iter_mut()).for_each(|x| *x &= mask);
    if matches!(scheme, ScoringScheme::Edit) && dv.iter().chain(dh.iter()).all(|&x| x <= EDIT_THETA)
    {
        edit_tile(q, r, dv, dh, interior);
        return;
    }
    let subst = Subst::of(scheme);
    for (b, (qb, dvb)) in q.chunks(LANES).zip(dv.chunks_mut(LANES)).enumerate() {
        lane_band(qb, r, subst, dvb, dh, b * LANES, interior.as_deref_mut());
    }
}

/// Shifted substitution scores `S′` of a validated scheme.
#[derive(Clone, Copy)]
enum Subst<'a> {
    /// Match/mismatch schemes: `hit` on equal codes, `miss` otherwise.
    Uniform { hit: u8, miss: u8 },
    /// Substitution-matrix schemes: the matrix score plus `−I − D`.
    Matrix { matrix: &'a SubstMatrix, shift: i32 },
}

impl Subst<'_> {
    fn of(scheme: &ScoringScheme) -> Subst<'_> {
        match scheme {
            ScoringScheme::Matrix { matrix, .. } => {
                Subst::Matrix { matrix, shift: -scheme.gap_insert() - scheme.gap_delete() }
            }
            _ => Subst::Uniform {
                hit: scheme.shifted_score(0, 0) as u8,
                miss: scheme.shifted_score(0, 1) as u8,
            },
        }
    }

    #[inline]
    fn at(self, a: u8, b: u8) -> u8 {
        match self {
            Subst::Uniform { hit, miss } => {
                if a == b {
                    hit
                } else {
                    miss
                }
            }
            Subst::Matrix { matrix, shift } => (matrix.score(a, b) + shift) as u8,
        }
    }
}

/// One band of at most [`LANES`] rows of the lane kernel, in place
/// (`dv`: this band's left/right border, `dh`: the tile's top border in,
/// this band's bottom row out). `row0` is the band's first tile row.
fn lane_band(
    q: &[u8],
    r: &[u8],
    subst: Subst<'_>,
    dv: &mut [u8],
    dh: &mut [u8],
    row0: usize,
    interior: Option<&mut Interior<'_>>,
) {
    #[cfg(target_arch = "x86_64")]
    if !smx_align_core::dispatch::force_scalar() {
        // SAFETY: SSE2 is part of the x86_64 baseline, so the function's
        // only target feature is present on every x86_64 host.
        unsafe { lane_band_sse2(q, r, subst, dv, dh, row0, interior) };
        return;
    }
    lane_band_scalar(q, r, subst, dv, dh, row0, interior);
}

/// Scalar twin of [`lane_band_sse2`]: the same anti-diagonal sweep, one
/// live lane at a time.
fn lane_band_scalar(
    q: &[u8],
    r: &[u8],
    subst: Subst<'_>,
    dv: &mut [u8],
    dh: &mut [u8],
    row0: usize,
    mut interior: Option<&mut Interior<'_>>,
) {
    let (rows, cols) = (q.len(), r.len());
    // Δh′ each lane produced on the previous diagonal.
    let mut lane_dh = [0u8; LANES];
    for d in 0..rows + cols - 1 {
        // Descending lanes read lane i − 1's previous-diagonal Δh′ before
        // this diagonal overwrites it. Lane 0 reads the top border at
        // column d before the bottom row writes column d − rows + 1.
        for i in (d.saturating_sub(cols - 1)..=d.min(rows - 1)).rev() {
            let j = d - i;
            let dh_in = if i == 0 { dh[j] } else { lane_dh[i - 1] };
            let (v, h) = pe_reference(dv[i], dh_in, subst.at(q[i], r[j]));
            dv[i] = v;
            lane_dh[i] = h;
            if i + 1 == rows {
                dh[j] = h;
            }
            if let Some(int) = interior.as_deref_mut() {
                int.put(row0 + i, j, v, h);
            }
        }
    }
}

/// The lane kernel on SSE2: lane `i` of diagonal `d` computes cell
/// `(i, d − i)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn lane_band_sse2(
    q: &[u8],
    r: &[u8],
    subst: Subst<'_>,
    dv: &mut [u8],
    dh: &mut [u8],
    row0: usize,
    interior: Option<&mut Interior<'_>>,
) {
    match subst {
        Subst::Uniform { hit, miss } => {
            // Lane i needs r[d − i]: with the reference reversed around
            // REV, one unaligned load at REV − d serves every lane.
            const REV: usize = MAX_DIAGS;
            let mut rrev = [0u8; REV + LANES];
            for (j, &c) in r.iter().enumerate() {
                rrev[REV - j] = c;
            }
            let mut qb = [0u8; LANES];
            qb[..q.len()].copy_from_slice(q);
            let vq = load16(&qb);
            let (vhit, vmiss) = (_mm_set1_epi8(hit as i8), _mm_set1_epi8(miss as i8));
            sweep_sse2(dv, dh, row0, interior, |d| {
                let eq = _mm_cmpeq_epi8(vq, load16(&rrev[REV - d..]));
                _mm_or_si128(_mm_and_si128(eq, vhit), _mm_andnot_si128(eq, vmiss))
            });
        }
        Subst::Matrix { .. } => {
            // The per-tile lane array: S′ of diagonal d, lane i.
            let mut sdiag = [0u8; MAX_DIAGS * LANES];
            for (j, &c) in r.iter().enumerate() {
                for (i, &a) in q.iter().enumerate() {
                    sdiag[(i + j) * LANES + i] = subst.at(a, c);
                }
            }
            sweep_sse2(dv, dh, row0, interior, |d| load16(&sdiag[d * LANES..]));
        }
    }
}

/// The anti-diagonal sweep shared by both substitution sources; `s_at(d)`
/// yields the `S′` lanes of diagonal `d`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn sweep_sse2(
    dv: &mut [u8],
    dh: &mut [u8],
    row0: usize,
    mut interior: Option<&mut Interior<'_>>,
    s_at: impl Fn(usize) -> __m128i,
) {
    let (rows, cols) = (dv.len(), dh.len());
    let mut lanes = [0u8; LANES];
    lanes[..rows].copy_from_slice(dv);
    let mut vdv = load16(&lanes);
    let mut vdh = _mm_setzero_si128();
    // Column of each lane's cell, `d − i`, wrapping below zero to ≥ 240.
    let mut col =
        _mm_setr_epi8(0, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12, -13, -14, -15);
    let (one, last_col) = (_mm_set1_epi8(1), _mm_set1_epi8(cols as i8 - 1));
    let (mut out_dv, mut out_dh) = ([0u8; LANES], [0u8; LANES]);
    for d in 0..rows + cols - 1 {
        // Δh′ moves one lane down; lane 0 takes the top border.
        let top = if d < cols { dh[d] } else { 0 };
        let dh_in = _mm_or_si128(_mm_slli_si128::<1>(vdh), _mm_cvtsi32_si128(i32::from(top)));
        let s = s_at(d);
        let v = _mm_max_epu8(_mm_subs_epu8(s, dh_in), _mm_subs_epu8(vdv, dh_in));
        let h = _mm_max_epu8(_mm_subs_epu8(s, vdv), _mm_subs_epu8(dh_in, vdv));
        // Lanes outside 0 ≤ d − i < cols keep their Δv′ (not started, or
        // already holding the right border). Their Δh′ only ever feeds
        // lanes that are outside too.
        let live = _mm_cmpeq_epi8(_mm_min_epu8(col, last_col), col);
        vdv = _mm_or_si128(_mm_and_si128(live, v), _mm_andnot_si128(live, vdv));
        col = _mm_add_epi8(col, one);
        vdh = h;
        if d + 1 >= rows || interior.is_some() {
            store16(&mut out_dh, h);
            if d + 1 >= rows {
                dh[d + 1 - rows] = out_dh[rows - 1];
            }
            if let Some(int) = interior.as_deref_mut() {
                store16(&mut out_dv, v);
                for i in d.saturating_sub(cols - 1)..=d.min(rows - 1) {
                    int.put(row0 + i, d - i, out_dv[i], out_dh[i]);
                }
            }
        }
    }
    store16(&mut lanes, vdv);
    dv.copy_from_slice(&lanes[..rows]);
}

/// Unaligned load of the first 16 bytes of `bytes`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn load16(bytes: &[u8]) -> __m128i {
    assert!(bytes.len() >= LANES);
    // SAFETY: the assert above proves 16 readable bytes, and
    // `_mm_loadu_si128` has no alignment requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Unaligned store of `v` into `out`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn store16(out: &mut [u8; LANES], v: __m128i) {
    // SAFETY: `out` is exactly 16 writable bytes, and `_mm_storeu_si128`
    // has no alignment requirement.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) }
}

/// The edit-word kernel: bit `i` of `(pv, mv)` is the edit delta of tile
/// row `i` in the current column (`pv`: +1, `mv`: −1), and each
/// reference character is one Edlib-order step.
fn edit_tile(
    q: &[u8],
    r: &[u8],
    dv: &mut [u8],
    dh: &mut [u8],
    interior: Option<&mut Interior<'_>>,
) {
    #[cfg(target_arch = "x86_64")]
    if !smx_align_core::dispatch::force_scalar() {
        // SAFETY: SSE2 is part of the x86_64 baseline, so the function's
        // only target feature is present on every x86_64 host.
        unsafe { edit_tile_sse2(q, r, dv, dh, interior) };
        return;
    }
    edit_sweep(q, r, dv, dh, interior, |c| {
        q.iter().enumerate().fold(0, |eq, (i, &a)| eq | u64::from(a == c) << i)
    });
}

/// [`edit_tile`] with the per-column match word from two byte compares.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn edit_tile_sse2(
    q: &[u8],
    r: &[u8],
    dv: &mut [u8],
    dh: &mut [u8],
    interior: Option<&mut Interior<'_>>,
) {
    let mut qb = [0u8; MAX_VL];
    qb[..q.len()].copy_from_slice(q);
    let (lo, hi) = (load16(&qb[..LANES]), load16(&qb[LANES..]));
    edit_sweep(q, r, dv, dh, interior, |c| {
        let vc = _mm_set1_epi8(c as i8);
        let lo = _mm_movemask_epi8(_mm_cmpeq_epi8(lo, vc)) as u32;
        let hi = _mm_movemask_epi8(_mm_cmpeq_epi8(hi, vc)) as u32;
        u64::from(lo | hi << LANES)
    });
}

/// The column loop of the edit-word kernel; `eq_of(c)` is the match word
/// of reference character `c` (bit `i` set when `q[i] == c`; bits at and
/// above `q.len()` are ignored).
#[inline]
fn edit_sweep(
    q: &[u8],
    r: &[u8],
    dv: &mut [u8],
    dh: &mut [u8],
    mut interior: Option<&mut Interior<'_>>,
    eq_of: impl Fn(u8) -> u64,
) {
    let rows = q.len();
    let (mut pv, mut mv) = (0u64, 0u64);
    for (i, &x) in dv.iter().enumerate() {
        pv |= u64::from(x == 0) << i;
        mv |= u64::from(x == EDIT_THETA) << i;
    }
    let bottom = 1u64 << (rows - 1);
    for (j, &c) in r.iter().enumerate() {
        // Shifted Δh′ = 1 − edit delta.
        let hin = 1 - i32::from(dh[j]);
        let (ph, mh) = myers_step(&mut pv, &mut mv, eq_of(c), hin);
        dh[j] = shifted(ph, mh, bottom);
        if let Some(int) = interior.as_deref_mut() {
            for i in 0..rows {
                int.put(i, j, shifted(pv, mv, 1 << i), shifted(ph, mh, 1 << i));
            }
        }
    }
    for (i, x) in dv.iter_mut().enumerate() {
        *x = shifted(pv, mv, 1 << i);
    }
}

/// The shifted `Δ′` of the edit delta at `bit` of a (+1, −1) word pair.
#[inline]
fn shifted(plus: u64, minus: u64, bit: u64) -> u8 {
    1 + u8::from(minus & bit != 0) - u8::from(plus & bit != 0)
}
