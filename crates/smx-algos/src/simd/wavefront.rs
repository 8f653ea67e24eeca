//! Anti-diagonal vectorized kernel, one body generic over its lane type.
//!
//! The row recurrence `M[i][j] = max(M[i-1][j-1]+s, M[i-1][j]+gi,
//! M[i][j-1]+gd)` carries a dependency along `j` (each cell needs its
//! left neighbour), which defeats vectorization. Re-indexing by
//! anti-diagonal `d = i + j` removes it: every cell of diagonal `d`
//! depends only on diagonals `d-1` and `d-2`, so the whole diagonal is
//! one independent element-wise pass —
//!
//! ```text
//! A_d[i] = max(A_{d-2}[i-1] + s(q[i-1], r[d-i-1]),   // diagonal
//!              A_{d-1}[i-1] + gi,                    // up (insert)
//!              A_{d-1}[i]   + gd)                    // left (delete)
//! ```
//!
//! with borders `A_d[0] = d·gd` (cell `(0, d)`, while `d ≤ n`) and
//! `A_d[d] = d·gi` (cell `(d, 0)`, while `d ≤ m`). The reference is
//! pre-reversed (`rrev[t] = r[n-1-t]`) so the diagonal's substitution
//! operands `r[d-i-1] = rrev[i+n-d]` load with forward unit stride, like
//! every other operand.
//!
//! The inner loop is written branchlessly over exact pre-sliced ranges so
//! LLVM auto-vectorizes it. The body is written once and specialised
//! three ways:
//!
//! - over its [`Lane`] type: `i16` (16 lanes per AVX2 register) or `i32`
//!   (8). Arithmetic is *wrapping* (saturating lane ops don't
//!   vectorize); the dispatcher in [`super`] routes a pair to a width
//!   only when the no-overflow bound behind [`super::selected_kernel`]
//!   proves wrapping and saturating arithmetic coincide at that width,
//!   which makes every instantiation byte-identical to the scalar
//!   reference wherever both run;
//! - over `STATS`: with it, the path counters and match flags ride
//!   along ([`super::score_profile`]); without it, they are compiled out
//!   and only the scores are swept ([`super::score`], the audit);
//! - over the ISA: a baseline instantiation and one under
//!   `#[target_feature(enable = "avx2")]`, whose matrix schemes fill
//!   each diagonal's substitution scores with hardware gathers. The
//!   dispatcher decides which one runs, once, through the cached
//!   `avx2_available()`; nothing here probes the CPU again.
//!
//! Stats ride along as one lockstep `u32` diagonal packing the winning
//! path's matches and query-insertions as `(matches << 16 |
//! gap_inserts)`, selected with the same golden tie-break as the scalar
//! kernel; both fields are bounded by the query length, and the dispatch
//! bound `m < 2^15` (implied by the `i16` bound) keeps the packing
//! carry-free. The other two counts are implied by the path shape. The
//! counters stay `u32` under `i16` scores too: the compiler vectorizes
//! that mixed-width loop, but not one with two `u16` counter diagonals
//! (measured at four to five times the packed loop's time per pair).

use super::{finish, ScoreProfile, SimdWorkspace};
use smx_align_core::{ScoringScheme, SubstMatrix};

/// The score lane an instantiation sweeps in.
pub(crate) trait Lane: Copy + Default + Ord + std::fmt::Debug + 'static {
    /// `x` wrapped to the lane.
    fn of(x: i32) -> Self;
    fn get(self) -> i32;
    fn add(self, other: Self) -> Self;
    /// This width's rolling state in `ws`.
    fn state(ws: &mut SimdWorkspace) -> &mut Diagonals<Self>;
    /// `sv[t] = flat[(qs[t] & 31) << 5 | (rs[t] & 31)]` with hardware
    /// gathers.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    // SAFETY: callers hold AVX2; `qs`, `rs` and `sv` have one length.
    unsafe fn gather(flat: &[i32; 1024], qs: &[u8], rs: &[u8], sv: &mut [Self]);
}

impl Lane for i16 {
    #[inline(always)]
    fn of(x: i32) -> i16 {
        x as i16
    }
    #[inline(always)]
    fn get(self) -> i32 {
        i32::from(self)
    }
    #[inline(always)]
    fn add(self, other: i16) -> i16 {
        self.wrapping_add(other)
    }
    fn state(ws: &mut SimdWorkspace) -> &mut Diagonals<i16> {
        &mut ws.narrow
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: see the trait; every gather offset is below 1024.
    unsafe fn gather(flat: &[i32; 1024], qs: &[u8], rs: &[u8], sv: &mut [i16]) {
        let w = sv.len();
        let mut t = 0;
        while t + 16 <= w {
            // SAFETY: t + 16 <= w and qs/rs/sv all have length w, so the
            // two 16-byte loads and the 32-byte store stay in bounds.
            unsafe {
                let q = _mm_loadu_si128(qs.as_ptr().add(t).cast());
                let r = _mm_loadu_si128(rs.as_ptr().add(t).cast());
                let lo = gather8(flat, q, r);
                let hi = gather8(flat, _mm_srli_si128::<8>(q), _mm_srli_si128::<8>(r));
                // `packs` narrows within 128-bit halves; the permute puts
                // the two gathers' lanes back in order.
                let v = _mm256_permute4x64_epi64::<0xD8>(_mm256_packs_epi32(lo, hi));
                _mm256_storeu_si256(sv.as_mut_ptr().add(t).cast(), v);
            }
            t += 16;
        }
        for t in t..w {
            sv[t] = flat[flat_index(qs[t], rs[t])] as i16;
        }
    }
}

impl Lane for i32 {
    #[inline(always)]
    fn of(x: i32) -> i32 {
        x
    }
    #[inline(always)]
    fn get(self) -> i32 {
        self
    }
    #[inline(always)]
    fn add(self, other: i32) -> i32 {
        self.wrapping_add(other)
    }
    fn state(ws: &mut SimdWorkspace) -> &mut Diagonals<i32> {
        &mut ws.wide
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: see the trait; every gather offset is below 1024.
    unsafe fn gather(flat: &[i32; 1024], qs: &[u8], rs: &[u8], sv: &mut [i32]) {
        let w = sv.len();
        let mut t = 0;
        while t + 8 <= w {
            // SAFETY: t + 8 <= w and qs/rs/sv all have length w, so every
            // 8-byte load and 32-byte store below stays in bounds.
            unsafe {
                let q = _mm_loadl_epi64(qs.as_ptr().add(t).cast());
                let r = _mm_loadl_epi64(rs.as_ptr().add(t).cast());
                _mm256_storeu_si256(sv.as_mut_ptr().add(t).cast(), gather8(flat, q, r));
            }
            t += 8;
        }
        for t in t..w {
            sv[t] = flat[flat_index(qs[t], rs[t])];
        }
    }
}

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// The table entries of the low eight (query, reference) byte pairs of
/// `q` and `r`: widened to `i32` lanes, combined into masked `a << 5 | b`
/// offsets (all `< 1024`, the table length), fetched in one `vpgatherdd`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline]
#[target_feature(enable = "avx2")]
fn gather8(flat: &[i32; 1024], q: __m128i, r: __m128i) -> __m256i {
    let mask = _mm256_set1_epi32(31);
    let qi = _mm256_and_si256(_mm256_cvtepu8_epi32(q), mask);
    let ri = _mm256_and_si256(_mm256_cvtepu8_epi32(r), mask);
    let idx = _mm256_or_si256(_mm256_slli_epi32(qi, 5), ri);
    // SAFETY: every offset is masked to 0..1024, the exact table length.
    unsafe { _mm256_i32gather_epi32::<4>(flat.as_ptr(), idx) }
}

/// `(a & 31) << 5 | (b & 31)`: the index of `S(a, b)` in a [`MatrixTable`].
#[inline(always)]
fn flat_index(a: u8, b: u8) -> usize {
    ((a as usize & 31) << 5) | (b as usize & 31)
}

/// Rolling state of one lane width: three anti-diagonals of scores and
/// of packed `(matches << 16 | gap_inserts)` counters, the reversed
/// reference, and one diagonal's prefilled substitution scores and match
/// flags.
#[derive(Debug, Clone, Default)]
pub(crate) struct Diagonals<L: Lane> {
    pub(crate) v: [Vec<L>; 3],
    pub(crate) c: [Vec<u32>; 3],
    pub(crate) rrev: Vec<u8>,
    pub(crate) subs: Vec<L>,
    pub(crate) eqs: Vec<u32>,
}

/// A substitution matrix flattened to a power-of-two stride: `(a << 5 |
/// b)` indexes a fixed 1024-entry array, so the masked lookup needs no
/// bounds check and stays a single load (or one lane of a gather). Built
/// once per workspace and matrix.
#[derive(Debug, Clone)]
pub(crate) struct MatrixTable {
    matrix: SubstMatrix,
    flat: Box<[i32; 1024]>,
}

impl MatrixTable {
    /// `cached` if it was built for `matrix`, else a new table.
    fn for_matrix(cached: Option<MatrixTable>, matrix: &SubstMatrix) -> MatrixTable {
        if let Some(table) = cached.filter(|t| t.matrix == *matrix) {
            return table;
        }
        let mut flat = Box::new([0i32; 1024]);
        for a in 0..26u8 {
            for b in 0..26u8 {
                flat[flat_index(a, b)] = matrix.score(a, b);
            }
        }
        MatrixTable { matrix: matrix.clone(), flat }
    }
}

/// Substitution scorer a kernel instantiation is specialized over.
trait SubScore: Copy {
    fn sub(&self, a: u8, b: u8) -> i32;

    /// Fills one diagonal's substitution scores; `AVX2`: the caller holds
    /// AVX2, so implementations may use it.
    #[inline(always)]
    fn fill<L: Lane, const AVX2: bool>(&self, qs: &[u8], rs: &[u8], sv: &mut [L]) {
        for t in 0..sv.len() {
            sv[t] = L::of(self.sub(qs[t], rs[t]));
        }
    }
}

/// Uniform match/mismatch scoring (Edit and Linear schemes).
#[derive(Clone, Copy)]
struct Uniform {
    matched: i32,
    differs: i32,
}

impl SubScore for Uniform {
    #[inline(always)]
    fn sub(&self, a: u8, b: u8) -> i32 {
        if a == b {
            self.matched
        } else {
            self.differs
        }
    }
}

/// Substitution-matrix scoring through a [`MatrixTable`]. Codes are `<
/// 26` for any validated [`smx_align_core::Sequence`]; out-of-range codes
/// would read a padding entry here where the scalar kernel's checked
/// lookup panics.
#[derive(Clone, Copy)]
struct Table<'a> {
    flat: &'a [i32; 1024],
}

impl SubScore for Table<'_> {
    #[inline(always)]
    fn sub(&self, a: u8, b: u8) -> i32 {
        self.flat[flat_index(a, b)]
    }

    #[inline(always)]
    fn fill<L: Lane, const AVX2: bool>(&self, qs: &[u8], rs: &[u8], sv: &mut [L]) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if AVX2 {
            // SAFETY: `AVX2` is set only inside `run_avx2`, which the
            // dispatcher enters only where the host has AVX2; the three
            // slices share the diagonal's length.
            unsafe { L::gather(self.flat, qs, rs, sv) };
            return;
        }
        for t in 0..sv.len() {
            sv[t] = L::of(self.sub(qs[t], rs[t]));
        }
    }
}

/// Score, path counts, and last-row contract produced by one kernel run.
#[derive(Debug, Clone, Copy)]
struct KernelOut {
    score: i32,
    cm: u32,
    ci: u32,
    best_score: i32,
    best_end: usize,
}

/// Anti-diagonal score+stats pass in lanes of `L`, on AVX2 when `avx2`.
/// Caller guarantees non-empty slices and `L`'s no-overflow bound.
pub(crate) fn profile<L: Lane>(
    avx2: bool,
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    ws: &mut SimdWorkspace,
) -> ScoreProfile {
    let out = run::<L, true>(avx2, query, reference, scheme, ws);
    finish(query.len(), reference.len(), out.score, out.cm, out.ci, out.best_score, out.best_end)
}

/// The global score alone: the same pass with the counter and match-flag
/// diagonals compiled out.
pub(crate) fn score<L: Lane>(
    avx2: bool,
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    ws: &mut SimdWorkspace,
) -> i32 {
    run::<L, false>(avx2, query, reference, scheme, ws).score
}

fn run<L: Lane, const STATS: bool>(
    avx2: bool,
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    ws: &mut SimdWorkspace,
) -> KernelOut {
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
    let table = match scheme {
        ScoringScheme::Matrix { matrix, .. } => {
            Some(MatrixTable::for_matrix(ws.table.take(), matrix))
        }
        _ => None,
    };
    let st = L::state(ws);
    st.rrev.clear();
    st.rrev.extend(reference.iter().rev());
    let len = query.len() + 1;
    let counters = if STATS { len } else { 0 };
    for buf in &mut st.v {
        buf.clear();
        buf.resize(len, L::default());
    }
    for buf in &mut st.c {
        buf.clear();
        buf.resize(counters, 0);
    }
    st.subs.clear();
    st.subs.resize(len, L::default());
    st.eqs.clear();
    st.eqs.resize(counters, 0);
    // Only a matrix scheme has a table; only the edit scheme reaches the
    // last arm.
    let out = match (scheme, &table) {
        (_, Some(t)) => on_isa::<L, _, STATS>(avx2, query, st, gi, gd, Table { flat: &t.flat }),
        (ScoringScheme::Linear { match_score, mismatch, .. }, None) => {
            let sub = Uniform { matched: *match_score, differs: *mismatch };
            on_isa::<L, _, STATS>(avx2, query, st, gi, gd, sub)
        }
        _ => on_isa::<L, _, STATS>(avx2, query, st, gi, gd, Uniform { matched: 0, differs: -1 }),
    };
    if table.is_some() {
        ws.table = table;
    }
    out
}

/// Runs the instantiation `avx2` names.
fn on_isa<L: Lane, S: SubScore, const STATS: bool>(
    avx2: bool,
    query: &[u8],
    st: &mut Diagonals<L>,
    gi: i32,
    gd: i32,
    sub: S,
) -> KernelOut {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if avx2 {
        // SAFETY: the dispatcher names the AVX2 kernel only where
        // `avx2_available()` holds.
        return unsafe { run_avx2::<L, S, STATS>(query, st, gi, gd, sub) };
    }
    let _ = avx2;
    run_body::<L, S, STATS, false>(query, st, gi, gd, sub)
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
// SAFETY: callers must hold AVX2; the body is safe code that the
// attribute recompiles with AVX2 codegen enabled.
unsafe fn run_avx2<L: Lane, S: SubScore, const STATS: bool>(
    query: &[u8],
    st: &mut Diagonals<L>,
    gi: i32,
    gd: i32,
    sub: S,
) -> KernelOut {
    run_body::<L, S, STATS, true>(query, st, gi, gd, sub)
}

/// The one kernel body, for every lane width, with or without stats, on
/// either ISA.
#[inline(always)]
fn run_body<L: Lane, S: SubScore, const STATS: bool, const AVX2: bool>(
    query: &[u8],
    st: &mut Diagonals<L>,
    gi: i32,
    gd: i32,
    sub: S,
) -> KernelOut {
    let m = query.len();
    let n = st.rrev.len();
    let rrev: &[u8] = &st.rrev;
    let [v0, v1, v2] = &mut st.v;
    let [c0, c1, c2] = &mut st.c;
    let (subs, eqs) = (&mut st.subs, &mut st.eqs);
    let (lgi, lgd) = (L::of(gi), L::of(gd));
    // The d = 0 diagonal lives in the "1" slot (already zeroed): cell
    // (0, 0) = 0 with zero counts.
    let mut best_row = i32::MIN;
    let mut best_end = 0usize;
    for d in 1..=(m + n) {
        let ilo = if d > n { d - n } else { 1 };
        let ihi = if d - 1 < m { d - 1 } else { m };
        if d <= n {
            v0[0] = L::of((d as i32).wrapping_mul(gd));
            if STATS {
                c0[0] = 0;
            }
        }
        if d <= m {
            // Border cell (d, 0): d query insertions, zero matches.
            v0[d] = L::of((d as i32).wrapping_mul(gi));
            if STATS {
                c0[d] = d as u32;
            }
        }
        if ilo <= ihi {
            let w = ihi - ilo + 1;
            // Exact operand windows: all loads and stores walk forward
            // with unit stride, which is what lets the loop vectorize.
            let qs = &query[ilo - 1..ilo - 1 + w];
            let rb = ilo + n - d;
            let rs = &rrev[rb..rb + w];
            let dgv = &v2[ilo - 1..ilo - 1 + w];
            let (upv, lfv) = (&v1[ilo - 1..ilo - 1 + w], &v1[ilo..ilo + w]);
            let ov = &mut v0[ilo..ilo + w];
            let sv = &mut subs[..w];
            // Prefill pass: substitution scores widen the byte operands
            // once, so the DP loop below is purely lane-wide. For matrix
            // schemes this also keeps the table gather out of the
            // auto-vectorized loop.
            sub.fill::<L, AVX2>(qs, rs, sv);
            if STATS {
                let dgc = &c2[ilo - 1..ilo - 1 + w];
                let (upc, lfc) = (&c1[ilo - 1..ilo - 1 + w], &c1[ilo..ilo + w]);
                let oc = &mut c0[ilo..ilo + w];
                let ev = &mut eqs[..w];
                for t in 0..w {
                    ev[t] = u32::from(qs[t] == rs[t]);
                }
                for t in 0..w {
                    let diag = dgv[t].add(sv[t]);
                    let up = upv[t].add(lgi);
                    let left = lfv[t].add(lgd);
                    let best = diag.max(up).max(left);
                    // Golden tie-break, branchless: diagonal ≻ up ≻ left.
                    // Counters ride packed as (matches << 16 |
                    // gap_inserts); both fields are < 2^15 (dispatch
                    // bound), so the +1 on the insert field can never
                    // carry across.
                    let d_win = diag >= up && diag >= left;
                    let u_win = up >= left;
                    let pk_d = dgc[t].wrapping_add(ev[t] << 16);
                    let pk_g = if u_win { upc[t].wrapping_add(1) } else { lfc[t] };
                    ov[t] = best;
                    oc[t] = if d_win { pk_d } else { pk_g };
                }
            } else {
                for t in 0..w {
                    let diag = dgv[t].add(sv[t]);
                    let up = upv[t].add(lgi);
                    let left = lfv[t].add(lgd);
                    ov[t] = diag.max(up).max(left);
                }
            }
        }
        // Last-needle-row contract: cell (m, d-m) is this diagonal's
        // entry of row m. Strictly-greater keeps the leftmost maximum.
        if STATS && d >= m {
            let v = v0[m].get();
            if v > best_row {
                best_row = v;
                best_end = d - m;
            }
        }
        // Rotate (A, B, C) -> (B, C, A): the oldest diagonal's storage
        // is reused for the next one.
        std::mem::swap(v2, v1);
        std::mem::swap(v1, v0);
        if STATS {
            std::mem::swap(c2, c1);
            std::mem::swap(c1, c0);
        }
    }
    // After the final rotation the d = m+n diagonal sits in the "1" slot.
    let score = v1[m].get();
    let packed = if STATS { c1[m] } else { 0 };
    let (cm, ci) = (packed >> 16, packed & 0xFFFF);
    KernelOut { score, cm, ci, best_score: best_row, best_end }
}
