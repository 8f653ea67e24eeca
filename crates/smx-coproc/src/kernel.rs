//! Fast SMX-2D kernels, bit-exact to [`DeltaBlock::compute`] over
//! [`pe_exact`].
//!
//! Why they are exact: a block (or a lone tile) masks its input borders
//! to EW bits once, on entry, as `pe_exact` masks its operands. On masked
//! inputs the plain max of [`pe_reference`] equals `pe_exact` (the
//! exhaustive and property tests in `smx_diffenc::pe` prove it), and its
//! outputs never exceed its largest input, so interior values stay in
//! range and never need masking again. A tile boundary inside a sweep is
//! therefore just another column, and every kernel below evaluates
//! `pe_reference`, only in a different cell order or encoding.
//!
//! * **Strips.** Without a fault session a block runs one *strip* at a
//!   time: as many whole tile rows as one lane register holds, one lane
//!   per query row, swept across all `n` columns in one anti-diagonal
//!   pass, so the sweep ramps up and down once per strip instead of once
//!   per tile. 16 SSE2 lanes hold one W4 or W6 tile row or two W8 tile
//!   rows (a W2 tile row runs as two 16-row strips); 32 AVX2 lanes hold
//!   two W4, three W6, four W8 or one W2 tile row.
//! * **Lane sweep** ([`sweep`], every scheme; the only one for W4/W6): one
//!   diagonal is one pass of saturating subtracts and maxes over a lane
//!   register. It is written once, generic over [`Vector`], and
//!   instantiated for SSE2 and AVX2 under `#[target_feature]` and for
//!   16 portable lanes in plain Rust. `S′` comes
//!   per diagonal from one skewed load of the reversed reference and one
//!   compare (match/mismatch schemes), or from the block's reference
//!   profile (matrix schemes). The profile holds one row of `S′` per
//!   query code, built by byte lookups ([`Vector::lookup`]: two `pshufb`
//!   and a blend on AVX2), and every [`CHUNK`] diagonals the lanes' runs
//!   of it are transposed into a diagonal-major buffer: one load per
//!   lane and four unpack stages per 16 × 16 byte block
//!   ([`Vector::unpack`]). The `S′` source ([`Source`]) inlines into the
//!   sweep, refill included. The sweep
//!   runs in chunks of `VL` diagonals; in each, the ramps and the run on
//!   which every lane is inside the block are loops of their own. A lone
//!   tile is the same sweep over a strip one tile wide: fault sessions
//!   use it, because they draw faults per tile, and so does the
//!   traceback recompute, which needs the interior.
//! * **Edit-word kernel** (the unit-cost edit scheme, θ = 2): the shifted
//!   deltas {0, 1, 2} are the edit-distance deltas {+1, 0, −1}, so a
//!   column of up to 64 rows fits two bit-words and one reference
//!   character is one Myers/Hyyrö word step. A block strip is one `u64`
//!   word (two W2 tile rows) across the block, taken when every border
//!   value it reads is at most θ; otherwise that strip runs the lane
//!   sweep. Both are exact, so the result is the same either way. The
//!   column loop ([`EditColumn::sweep`]) only steps and stores each
//!   column's `[pv, mv, ph, mh]`; everything else reads those words
//!   after it, so the words stay in scalar registers.
//! * **Border planes** (traceback mode, a block that keeps no lanes), in
//!   a fixed number of vector operations per diagonal ([`PlaneCapture`]):
//!   one masked OR gathers the Δv′ of the lanes crossing a tile-column
//!   boundary into an accumulator, which leaves for the planes of
//!   `TileBorderStore` with one store per tile row at the end of each
//!   chunk; each inner tile row's entering Δh′ is one byte per diagonal
//!   of the sweep's `out` store. An edit strip reads the same values from
//!   the words of each tile column once it is swept.
//! * **Kept cells** (traceback mode, within `KEPT_CELL_BUDGET`): an edit
//!   block whose strips all run as words stores them in place of the
//!   per-tile-column scratch, and a lane block stores every diagonal's
//!   Δv′ and Δh′ lanes ([`Diagonals`], two vector stores per diagonal)
//!   into [`KeptLanes`] and captures no planes. The traceback walks either
//!   ([`Cells`] for `[[u64; 4]]` and [`LaneStrip`]) instead of recomputing
//!   tiles; a reader of a kept-lane block's planes derives them from the
//!   lanes.
//! * **Recompute** (traceback): a tile's interior stays in the layout
//!   its kernel leaves it in, one fixed [`TileCells`] buffer: lanes by
//!   diagonal, or an edit tile's Myers words by column.
//! * **Match words.** Every edit strip and tile sets its query codes'
//!   entries in one per-thread table and clears them after
//!   ([`with_match_words`]), so no block or tile fills the 2 KB table.
//! * **Cancellation.** A block checks its whole token (flag and
//!   deadline) before each strip, and polls only the cancel flag every
//!   `VL` diagonals (or columns) inside it, so the clock is read once
//!   per strip.
//!
//! Dispatch: AVX2 where `avx2_available()` says so, else SSE2, which is
//! part of the x86_64 baseline. `SMX_FORCE_SCALAR` (via
//! `smx_align_core::dispatch::force_scalar`) and non-x86_64 targets run
//! the portable lanes, whose `pe` is [`pe_reference`] on each lane:
//! every target runs the same strips, captures and edit words. Tests pin
//! a thread to each instantiation with [`pinned`].
//!
//! [`DeltaBlock::compute`]: smx_diffenc::delta::DeltaBlock::compute
//! [`pe_exact`]: smx_diffenc::pe::pe_exact

use crate::control::CancelToken;
use crate::engine::SmxEngine;
use smx_align_core::{AlignError, ElementWidth, ScoringScheme, SubstMatrix};
use smx_diffenc::pe::{myers_step, pe_reference};
use std::cell::{Cell, RefCell};

#[cfg(target_arch = "x86_64")]
use smx_align_core::dispatch::{avx2_available, force_scalar};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Lanes of the widest register (AVX2), and the row stride of every
/// diagonal-major lane buffer.
const MAX_LANES: usize = 32;
/// Largest tile side (the W2 geometry).
pub(crate) const MAX_VL: usize = 32;
/// Largest lane start ([`Vector::START`]).
const MAX_START: usize = MAX_LANES;
/// Padding on each side of a reversed reference: every skewed load of
/// the sweep stays inside it.
const PAD: usize = MAX_START;
/// Diagonals of a matrix scheme's `S′` buffer between refills.
const CHUNK: usize = 32;
/// Rows of one edit-word strip: the bits of a `u64`.
const WORD_ROWS: usize = 64;
/// Smallest tile side (the W8 geometry).
const MIN_VL: usize = 8;
/// The edit scheme's θ: borders above it leave the edit-word kernel.
const EDIT_THETA: u8 = 2;
/// Letters of a substitution matrix.
const MATRIX_CODES: usize = 26;

/// Diagonals of a [`TileCells`] lane plane: one more than the last one
/// any instantiation sweeps a tile in (`VL − 1 + START[VL − 1]`).
const TILE_DIAGS: usize = 2 * MAX_VL;

/// The interior of one recomputed tile, in the layout the kernel that
/// computed it leaves behind, and the one reader the traceback walks.
///
/// A lane sweep stores each diagonal's Δv′ and Δh′ lanes as they are, so
/// row `i`'s cell in column `j` sits at `(j + start[i]) · MAX_LANES + i`,
/// with `start` the lane starts of the instantiation (a 16-lane tile of
/// more rows runs as strips that restart at lane 0). An edit tile keeps
/// each column's Myers words instead, and a cell is two bit tests.
pub(crate) struct TileCells {
    /// Whether the tile ran as edit words (`cols`) or lanes (`dv`, `dh`).
    words: bool,
    /// The diagonal offset of each tile row.
    start: [u8; MAX_VL],
    dv: [u8; TILE_DIAGS * MAX_LANES],
    dh: [u8; TILE_DIAGS * MAX_LANES],
    /// `[pv, mv, ph, mh]` of each column.
    cols: [[u64; 4]; MAX_VL],
}

impl TileCells {
    pub(crate) fn new() -> TileCells {
        TileCells {
            words: false,
            start: [0; MAX_VL],
            dv: [0; TILE_DIAGS * MAX_LANES],
            dh: [0; TILE_DIAGS * MAX_LANES],
            cols: [[0; 4]; MAX_VL],
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> usize {
        (j + usize::from(self.start[i])) * MAX_LANES + i
    }

    /// Makes the cells a lane layout with row starts `start`.
    fn lanes(&mut self, start: [u8; MAX_VL]) {
        self.words = false;
        self.start = start;
    }
}

/// The cells of one region of a block as the traceback walks them: a
/// recomputed tile ([`TileCells`]), one strip of an edit block's kept
/// Myers words, `[pv, mv, ph, mh]` per column, where a cell is two bit
/// tests, or one strip of a lane block's kept lanes ([`LaneStrip`]).
pub(crate) trait Cells {
    /// Δv′ of row `i` in column `j`.
    fn dv(&self, i: usize, j: usize) -> u8;
    /// Δh′ of row `i` in column `j`.
    fn dh(&self, i: usize, j: usize) -> u8;
}

impl<C: Cells + ?Sized> Cells for &C {
    #[inline]
    fn dv(&self, i: usize, j: usize) -> u8 {
        (**self).dv(i, j)
    }

    #[inline]
    fn dh(&self, i: usize, j: usize) -> u8 {
        (**self).dh(i, j)
    }
}

impl Cells for [[u64; 4]] {
    #[inline]
    fn dv(&self, i: usize, j: usize) -> u8 {
        let [pv, mv, ..] = self[j];
        shifted(pv, mv, 1 << i)
    }

    #[inline]
    fn dh(&self, i: usize, j: usize) -> u8 {
        let [.., ph, mh] = self[j];
        shifted(ph, mh, 1 << i)
    }
}

impl Cells for TileCells {
    #[inline]
    fn dv(&self, i: usize, j: usize) -> u8 {
        if self.words {
            self.cols.dv(i, j)
        } else {
            self.dv[self.at(i, j)]
        }
    }

    #[inline]
    fn dh(&self, i: usize, j: usize) -> u8 {
        if self.words {
            self.cols.dh(i, j)
        } else {
            self.dh[self.at(i, j)]
        }
    }
}

/// This thread's spare block buffers, one slot per kind, each handed
/// back when its owner drops and reused by the next block that needs
/// one, so a thread aligning pair after pair does not map and fault
/// fresh buffers every block. An edit block that keeps its words also
/// holds planes, so the kinds never share a slot.
pub(crate) struct Scratch {
    /// The border planes of the last traceback-mode block.
    planes: Cell<Option<(Vec<u8>, Vec<u8>)>>,
    /// The Δv′ and Δh′ buffers of the last block that kept its lanes;
    /// the next such block zeroes only what it needs beyond them.
    lanes: Cell<Option<(Vec<u8>, Vec<u8>)>>,
    /// The word buffer of the last edit block that kept its words; the
    /// next such block zeroes only what it needs beyond it.
    words: Cell<Option<Vec<[u64; 4]>>>,
}

thread_local! {
    static SCRATCH: Scratch = const {
        Scratch { planes: Cell::new(None), lanes: Cell::new(None), words: Cell::new(None) }
    };
}

/// One slot of the thread's [`Scratch`].
pub(crate) type Slot<T> = fn(&Scratch) -> &Cell<Option<T>>;
pub(crate) const PLANES: Slot<(Vec<u8>, Vec<u8>)> = |s| &s.planes;
const LANES: Slot<(Vec<u8>, Vec<u8>)> = |s| &s.lanes;
pub(crate) const WORDS: Slot<Vec<[u64; 4]>> = |s| &s.words;

/// Takes the spare in `slot`, if this thread holds one.
pub(crate) fn take_spare<T>(slot: Slot<T>) -> Option<T> {
    SCRATCH.try_with(|s| slot(s).take()).ok().flatten()
}

/// Hands `spare` back to `slot`, freeing whatever spare it held.
pub(crate) fn return_spare<T>(slot: Slot<T>, spare: T) {
    let _ = SCRATCH.try_with(|s| slot(s).set(Some(spare)));
}

/// A traceback-mode lane block's kept cells: its left and top borders as
/// they came in, then every strip's Δv′ and Δh′ lanes as the sweep left
/// them, one whole register per diagonal ([`Diagonals`]). Strip `s`
/// starts at `s · lanes · (n + start[rows − 1])` past `dv0` (`dh0`), and
/// its row `i`'s cell in column `j` sits at `(j + start[i]) · lanes + i`
/// from there. The traceback walks the strips in place ([`LaneStrip`])
/// and recomputes no tile.
#[derive(Debug, Clone)]
pub(crate) struct KeptLanes {
    /// The lane start of each strip row, the rows of a strip, and the
    /// lanes of a register (the bytes from one diagonal to the next).
    start: [u8; MAX_LANES],
    rows: usize,
    lanes: usize,
    /// The block's width.
    n: usize,
    /// The left border (`m` bytes), then, from `dv0` (aligned to
    /// `MAX_LANES` bytes), the strips' Δv′ lanes.
    dv: Vec<u8>,
    dv0: usize,
    /// The top border (`n` bytes), then, from `dh0`, the strips' Δh′
    /// lanes.
    dh: Vec<u8>,
    dh0: usize,
}

impl KeptLanes {
    /// A block's `left` and `top` borders as they came in, with room
    /// after them for the lane strips `kernel` sweeps on tiles of side
    /// `vl` (and up to `MAX_LANES` bytes to align them), in this thread's
    /// spare buffers when it has them.
    pub(crate) fn new(kernel: LaneKernel, vl: usize, left: &[u8], top: &[u8]) -> KeptLanes {
        let (start, rows, lanes) = kernel.strip_layout(vl);
        let (dv, dh) = take_spare(LANES).unwrap_or_default();
        let (m, n) = (left.len(), top.len());
        let mut kept = KeptLanes { start, rows, lanes, n, dv, dh, dv0: 0, dh0: 0 };
        let len = kept.base(m.div_ceil(rows)) + MAX_LANES;
        let runs = [(&mut kept.dv, &mut kept.dv0, left), (&mut kept.dh, &mut kept.dh0, top)];
        for (buf, at, border) in runs {
            grow(buf, border.len() + len);
            buf[..border.len()].copy_from_slice(border);
            // Aligned, so that no vector store splits a cache line: with
            // the lanes 30 bytes apart, the AVX2 protein block's stores
            // split half the time and it ran ~7% slower.
            let lead = buf[border.len()..].as_ptr().align_offset(MAX_LANES).min(MAX_LANES);
            *at = border.len() + lead;
        }
        kept
    }

    /// Where strip `s`'s lanes start, past `dv0` and `dh0`.
    fn base(&self, s: usize) -> usize {
        s * self.lanes * (self.n + usize::from(self.start[self.rows - 1]))
    }

    /// Where the sweep of strip `s` stores its lanes.
    fn capture(&mut self, s: usize) -> Diagonals<'_> {
        let at = self.base(s);
        let (dv, dh) = (&mut self.dv[self.dv0 + at..], &mut self.dh[self.dh0 + at..]);
        Diagonals { dv, dh, stride: self.lanes }
    }

    /// Rows of a strip (the last may have fewer).
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// The block's top border, as it came in.
    pub(crate) fn top(&self) -> &[u8] {
        &self.dh[..self.n]
    }

    /// Strip `s`'s cells.
    pub(crate) fn strip(&self, s: usize) -> LaneStrip<'_> {
        let at = self.base(s);
        LaneStrip {
            dv: &self.dv[self.dv0 + at..],
            dh: &self.dh[self.dh0 + at..],
            start: &self.start,
            stride: self.lanes,
        }
    }

    /// Writes the Δv′ entering the block rows `rows` from column `c0`
    /// to `dv`, and the Δh′ entering the block columns `cols` from row
    /// `r0` to `dh`: the block's own borders at column or row 0, else
    /// the cells left of or above them. These are the border planes'
    /// bytes, so a kept-lane block needs no planes.
    pub(crate) fn input(
        &self,
        (rows, cols): (std::ops::Range<usize>, std::ops::Range<usize>),
        dv: &mut [u8],
        dh: &mut [u8],
    ) {
        let (c0, r0, h) = (cols.start, rows.start, self.rows);
        for (x, i) in dv.iter_mut().zip(rows) {
            *x = if c0 == 0 { self.dv[i] } else { self.strip(i / h).dv(i % h, c0 - 1) };
        }
        for (x, j) in dh.iter_mut().zip(cols) {
            *x = if r0 == 0 { self.dh[j] } else { self.strip((r0 - 1) / h).dh((r0 - 1) % h, j) };
        }
    }
}

/// `buf` at least `len` bytes long; bytes it already had keep their
/// (stale) values, so only the growth is zeroed.
fn grow(buf: &mut Vec<u8>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0);
    }
}

impl Drop for KeptLanes {
    fn drop(&mut self) {
        let lanes = (std::mem::take(&mut self.dv), std::mem::take(&mut self.dh));
        if lanes.0.capacity() > 0 {
            return_spare(LANES, lanes);
        }
    }
}

/// One strip of a block's [`KeptLanes`]: its cells sit by diagonal,
/// `stride` bytes apart.
pub(crate) struct LaneStrip<'a> {
    dv: &'a [u8],
    dh: &'a [u8],
    start: &'a [u8; MAX_LANES],
    stride: usize,
}

impl Cells for LaneStrip<'_> {
    #[inline]
    fn dv(&self, i: usize, j: usize) -> u8 {
        self.dv[(j + usize::from(self.start[i])) * self.stride + i]
    }

    #[inline]
    fn dh(&self, i: usize, j: usize) -> u8 {
        self.dh[(j + usize::from(self.start[i])) * self.stride + i]
    }
}

/// The instantiation of the lane kernel a thread runs. Every one sweeps
/// the same strips; the x86 ones exist only on x86_64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKernel {
    /// 16 portable lanes in plain Rust, each evaluating [`pe_reference`].
    Scalar,
    /// 16 SSE2 lanes.
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// 32 AVX2 lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

thread_local! {
    static PINNED: Cell<Option<LaneKernel>> = const { Cell::new(None) };
}

impl LaneKernel {
    /// The instantiation this thread runs: its [`pinned`] one, else the
    /// portable lanes under `SMX_FORCE_SCALAR` or off x86_64, else AVX2
    /// where the host has it, else SSE2.
    pub(crate) fn current() -> LaneKernel {
        if let Some(kernel) = PINNED.with(Cell::get) {
            return kernel;
        }
        #[cfg(target_arch = "x86_64")]
        if !force_scalar() {
            return if avx2_available() { LaneKernel::Avx2 } else { LaneKernel::Sse2 };
        }
        LaneKernel::Scalar
    }

    /// The lane starts and the rows of this instantiation's lane strips
    /// for tiles of side `vl`.
    fn strip_layout(self, vl: usize) -> ([u8; MAX_LANES], usize, usize) {
        match self {
            LaneKernel::Scalar => (Portable::START, lane_rows::<Portable>(vl), Portable::N),
            #[cfg(target_arch = "x86_64")]
            LaneKernel::Sse2 => (Sse2::START, lane_rows::<Sse2>(vl), Sse2::N),
            #[cfg(target_arch = "x86_64")]
            LaneKernel::Avx2 => (Avx2::START, lane_rows::<Avx2>(vl), Avx2::N),
        }
    }
}

/// Rows of a lane strip of `V` for tiles of side `vl`: whole tile rows,
/// or a register's worth of a tile row taller than it.
fn lane_rows<V: Vector>(vl: usize) -> usize {
    if vl <= V::N {
        V::N / vl * vl
    } else {
        V::N
    }
}

/// Every instantiation this host runs, the portable lanes first.
#[must_use]
pub fn supported() -> Vec<LaneKernel> {
    let kernels = [
        Some(LaneKernel::Scalar),
        #[cfg(target_arch = "x86_64")]
        Some(LaneKernel::Sse2),
        #[cfg(target_arch = "x86_64")]
        avx2_available().then_some(LaneKernel::Avx2),
    ];
    kernels.into_iter().flatten().collect()
}

/// Runs `f` with this thread's tile and block kernels pinned to
/// `kernel`, so tests can hold every instantiation against the same
/// inputs.
///
/// # Panics
///
/// Panics if the host does not run `kernel` (see [`supported`]).
pub fn pinned<T>(kernel: LaneKernel, f: impl FnOnce() -> T) -> T {
    /// Restores the previous pin, also when `f` panics.
    struct Restore(Option<LaneKernel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.with(|p| p.set(self.0));
        }
    }
    assert!(supported().contains(&kernel), "{kernel:?} does not run on this host");
    let _restore = Restore(PINNED.with(|p| p.replace(Some(kernel))));
    f()
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

/// Computes one `q.len() × r.len()` tile in place: `dv` enters as the
/// left border and leaves as the right border, `dh` enters as the top
/// border and leaves as the bottom border. `cells`, when given, receives
/// every cell (the traceback recompute).
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
    cells: Option<&mut TileCells>,
) {
    debug_assert!(dv.len() == q.len() && dh.len() == r.len() && q.len() <= MAX_VL);
    if q.is_empty() || r.is_empty() {
        return;
    }
    let mask = ew.max_value() as u8;
    let in_theta = mask_in_theta(dv, mask) & mask_in_theta(dh, mask);
    if matches!(scheme, ScoringScheme::Edit) && in_theta {
        edit_tile(q, r, dv, dh, cells);
        return;
    }
    let subst = Subst::of(scheme);
    match LaneKernel::current() {
        // SAFETY: the portable lanes need no target feature.
        LaneKernel::Scalar => unsafe { tile_on::<Portable>(q, r, subst, dv, dh, cells) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        LaneKernel::Sse2 => unsafe { tile_sse2(q, r, subst, dv, dh, cells) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `current` picks AVX2 only where `supported` lists it.
        LaneKernel::Avx2 => unsafe { tile_avx2(q, r, subst, dv, dh, cells) },
    }
}

/// Whether every value is a valid edit-word delta.
fn in_theta(border: &[u8]) -> bool {
    border.iter().all(|&x| x <= EDIT_THETA)
}

/// Masks `border` to EW bits (`mask`) in place and returns whether every
/// value is then a valid edit-word delta: one pass for both.
fn mask_in_theta(border: &mut [u8], mask: u8) -> bool {
    border.iter_mut().fold(true, |ok, x| {
        *x &= mask;
        ok & (*x <= EDIT_THETA)
    })
}

/// One lane register of [`sweep`]: `N` unsigned byte lanes. Lane `i`
/// holds strip row `i`, and on diagonal `d` it computes column
/// `d − START[i]`.
///
/// Every method may run only where the instantiation's target feature is
/// enabled, which is what the `unsafe` on each one stands for (the
/// portable lanes have none).
trait Vector: Copy + 'static {
    /// Lanes per register.
    const N: usize;
    /// The diagonal each lane starts on: `i`, or one more in AVX2's
    /// upper half (see its [`Vector::shift_in`]).
    const START: [u8; MAX_LANES];
    /// `STARTED[k]`: the lanes with `START[i] ≤ k`, as a byte mask.
    const STARTED: [[u8; MAX_LANES]; MASKS] = lane_masks(Self::START, true);
    /// `UNFINISHED[k]`: the lanes with `START[i] ≥ k`, as a byte mask.
    const UNFINISHED: [[u8; MAX_LANES]; MASKS] = lane_masks(Self::START, false);
    /// The lane start of each row of a tile swept in strips of `N` rows.
    const TILE_START: [u8; MAX_VL] = tile_starts(Self::START, Self::N);

    /// The first `N` bytes of `src`.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn load(src: &[u8]) -> Self;
    /// Lane `i` from `src[START[i]]`.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn load_skewed(src: &[u8]) -> Self;
    /// Writes the lanes to the first `N` bytes of `out`.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn store(self, out: &mut [u8]);
    /// `x` in every lane.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn splat(x: u8) -> Self;
    /// The Δh′ entering each lane on the next diagonal: lane `i` takes
    /// lane `i − 1`'s output for the same column and lane 0 takes `top`.
    /// `h1` and `h2` are the outputs of the last two diagonals.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn shift_in(h1: Self, h2: Self, top: u8) -> Self;
    /// [`pe_reference`] on every lane: `(Δv′, Δh′)` out of `S′`, Δv′ and
    /// Δh′ in.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn pe(s: Self, dv: Self, dh: Self) -> (Self, Self);
    /// `miss + delta` in the lanes where `q == r`, `miss` elsewhere
    /// (wrapping, so `miss + delta` can be any byte).
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn uniform(q: Self, r: Self, miss: Self, delta: Self) -> Self;
    /// `new` in the lanes set in both byte masks `a` and `b`, `old`
    /// elsewhere.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn keep_live(new: Self, old: Self, a: &[u8], b: &[u8]) -> Self;
    /// `new` in the lanes set in the byte mask `mask`, `old` elsewhere.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn blend(new: Self, old: Self, mask: &[u8]) -> Self;
    /// `acc` with `v`'s lanes that are set in the byte mask `mask` OR-ed
    /// in.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn or_masked(acc: Self, v: Self, mask: &[u8]) -> Self;
    /// Runs `f` in a frame of its own, compiled with the instantiation's
    /// target feature: a strip's sweep, kept apart from the block's strip
    /// loop so the lane registers never spill.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn isolated<I: Isolated>(f: I) -> I::Output;
    /// The 16 bytes of `run(i)` from `at` in each 16-lane half: lane `i`
    /// below, and lane `i + 16` above where the register has 32 lanes.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn load_run<'r>(run: &impl Fn(usize) -> &'r [u8], i: usize, at: usize) -> Self;
    /// `punpckl`/`punpckh` over units of `W` bytes, in each 16-byte half:
    /// the units of the low (high) halves of `a` and `b`, interleaved.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn unpack<const W: usize>(a: Self, b: Self) -> (Self, Self);
    /// `table[idx]` in every lane; every index is below 32.
    // SAFETY: callers hold the instantiation's target feature.
    unsafe fn lookup(table: &[u8; 32], idx: Self) -> Self;
}

/// Portable lanes: 16 bytes in plain Rust, for every target. Each lane's
/// `pe` is [`pe_reference`] itself.
#[derive(Clone, Copy)]
struct Portable([u8; 16]);

impl Portable {
    /// Lane `i` from `f(i)`, in a loop the compiler can vectorise.
    #[inline(always)]
    fn lanes(f: impl Fn(usize) -> u8) -> Portable {
        let mut out = [0u8; 16];
        for (i, x) in out.iter_mut().enumerate() {
            *x = f(i);
        }
        Portable(out)
    }
}

/// `new` in the lanes set in the byte mask `m`, `old` elsewhere.
#[inline(always)]
fn select(m: u8, new: u8, old: u8) -> u8 {
    (m & new) | (!m & old)
}

impl Vector for Portable {
    const N: usize = 16;
    const START: [u8; MAX_LANES] = lane_starts(0);

    #[inline(always)]
    // SAFETY: plain Rust; the slice index proves 16 readable bytes.
    unsafe fn load(src: &[u8]) -> Portable {
        let src = &src[..16];
        Portable::lanes(|i| src[i])
    }

    #[inline(always)]
    // SAFETY: `START` is the identity here, so this is `load`.
    unsafe fn load_skewed(src: &[u8]) -> Portable {
        Portable::load(src)
    }

    #[inline(always)]
    // SAFETY: plain Rust; the slice index proves 16 writable bytes.
    unsafe fn store(self, out: &mut [u8]) {
        out[..16].copy_from_slice(&self.0);
    }

    #[inline(always)]
    // SAFETY: plain Rust.
    unsafe fn splat(x: u8) -> Portable {
        Portable([x; 16])
    }

    #[inline(always)]
    // SAFETY: plain Rust.
    unsafe fn shift_in(h1: Portable, _h2: Portable, top: u8) -> Portable {
        let mut out = [top; 16];
        out[1..].copy_from_slice(&h1.0[..15]);
        Portable(out)
    }

    #[inline(always)]
    // SAFETY: plain Rust.
    unsafe fn pe(s: Portable, dv: Portable, dh: Portable) -> (Portable, Portable) {
        let (mut v, mut h) = ([0u8; 16], [0u8; 16]);
        for i in 0..16 {
            (v[i], h[i]) = pe_reference(dv.0[i], dh.0[i], s.0[i]);
        }
        (Portable(v), Portable(h))
    }

    #[inline(always)]
    // SAFETY: plain Rust.
    unsafe fn uniform(q: Portable, r: Portable, miss: Portable, delta: Portable) -> Portable {
        Portable::lanes(|i| miss.0[i].wrapping_add(if q.0[i] == r.0[i] { delta.0[i] } else { 0 }))
    }

    #[inline(always)]
    // SAFETY: plain Rust; the slice indices prove both masks' lengths.
    unsafe fn keep_live(new: Portable, old: Portable, a: &[u8], b: &[u8]) -> Portable {
        let (a, b) = (&a[..16], &b[..16]);
        Portable::lanes(|i| select(a[i] & b[i], new.0[i], old.0[i]))
    }

    #[inline(always)]
    // SAFETY: plain Rust; the slice index proves the mask's length.
    unsafe fn blend(new: Portable, old: Portable, mask: &[u8]) -> Portable {
        let mask = &mask[..16];
        Portable::lanes(|i| select(mask[i], new.0[i], old.0[i]))
    }

    #[inline(always)]
    // SAFETY: plain Rust; the slice index proves the mask's length.
    unsafe fn or_masked(acc: Portable, v: Portable, mask: &[u8]) -> Portable {
        let mask = &mask[..16];
        Portable::lanes(|i| acc.0[i] | (v.0[i] & mask[i]))
    }

    #[inline(never)]
    // SAFETY: a plain call.
    unsafe fn isolated<I: Isolated>(f: I) -> I::Output {
        f.run()
    }

    #[inline(always)]
    // SAFETY: plain Rust.
    unsafe fn load_run<'r>(run: &impl Fn(usize) -> &'r [u8], i: usize, at: usize) -> Portable {
        Portable::load(&run(i)[at..])
    }

    #[inline(always)]
    // SAFETY: plain Rust.
    unsafe fn unpack<const W: usize>(a: Portable, b: Portable) -> (Portable, Portable) {
        let half = |from: usize| {
            Portable::lanes(|k| {
                let (unit, at) = (k / W, k % W);
                let src = if unit % 2 == 0 { &a } else { &b };
                src.0[from + unit / 2 * W + at]
            })
        };
        (half(0), half(8))
    }

    #[inline(always)]
    // SAFETY: plain Rust.
    unsafe fn lookup(table: &[u8; 32], idx: Portable) -> Portable {
        Portable::lanes(|i| table[usize::from(idx.0[i] & 31)])
    }
}

/// SSE2 lanes: one 16-byte register.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Sse2(__m128i);

#[cfg(target_arch = "x86_64")]
impl Vector for Sse2 {
    const N: usize = 16;
    const START: [u8; MAX_LANES] = lane_starts(0);

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: the slice index proves 16 readable bytes, and the load has
    // no alignment requirement.
    unsafe fn load(src: &[u8]) -> Sse2 {
        Sse2(_mm_loadu_si128(src[..16].as_ptr().cast()))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: `START` is the identity here, so this is `load`.
    unsafe fn load_skewed(src: &[u8]) -> Sse2 {
        Sse2::load(src)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: the slice index proves 16 writable bytes, and the store has
    // no alignment requirement.
    unsafe fn store(self, out: &mut [u8]) {
        _mm_storeu_si128(out[..16].as_mut_ptr().cast(), self.0);
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: register arithmetic only.
    unsafe fn splat(x: u8) -> Sse2 {
        Sse2(_mm_set1_epi8(x as i8))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: register arithmetic only.
    unsafe fn shift_in(h1: Sse2, _h2: Sse2, top: u8) -> Sse2 {
        Sse2(_mm_or_si128(_mm_slli_si128::<1>(h1.0), _mm_cvtsi32_si128(i32::from(top))))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: register arithmetic only.
    unsafe fn pe(s: Sse2, dv: Sse2, dh: Sse2) -> (Sse2, Sse2) {
        let v = _mm_max_epu8(_mm_subs_epu8(s.0, dh.0), _mm_subs_epu8(dv.0, dh.0));
        let h = _mm_max_epu8(_mm_subs_epu8(s.0, dv.0), _mm_subs_epu8(dh.0, dv.0));
        (Sse2(v), Sse2(h))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: register arithmetic only.
    unsafe fn uniform(q: Sse2, r: Sse2, miss: Sse2, delta: Sse2) -> Sse2 {
        Sse2(_mm_add_epi8(miss.0, _mm_and_si128(_mm_cmpeq_epi8(q.0, r.0), delta.0)))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: `load` checks both masks' lengths; the rest is register
    // arithmetic.
    unsafe fn keep_live(new: Sse2, old: Sse2, a: &[u8], b: &[u8]) -> Sse2 {
        let live = _mm_and_si128(Sse2::load(a).0, Sse2::load(b).0);
        Sse2(_mm_or_si128(_mm_and_si128(live, new.0), _mm_andnot_si128(live, old.0)))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: `load` checks the mask's length; the rest is register
    // arithmetic.
    unsafe fn blend(new: Sse2, old: Sse2, mask: &[u8]) -> Sse2 {
        let mask = Sse2::load(mask).0;
        Sse2(_mm_or_si128(_mm_and_si128(mask, new.0), _mm_andnot_si128(mask, old.0)))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: `load` checks the mask's length; the rest is register
    // arithmetic.
    unsafe fn or_masked(acc: Sse2, v: Sse2, mask: &[u8]) -> Sse2 {
        Sse2(_mm_or_si128(acc.0, _mm_and_si128(v.0, Sse2::load(mask).0)))
    }

    #[inline(never)]
    #[target_feature(enable = "sse2")]
    // SAFETY: a plain call.
    unsafe fn isolated<I: Isolated>(f: I) -> I::Output {
        f.run()
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: `load` checks the run's length.
    unsafe fn load_run<'r>(run: &impl Fn(usize) -> &'r [u8], i: usize, at: usize) -> Sse2 {
        Sse2::load(&run(i)[at..])
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: register arithmetic only.
    unsafe fn unpack<const W: usize>(a: Sse2, b: Sse2) -> (Sse2, Sse2) {
        let (a, b) = (a.0, b.0);
        let (lo, hi) = match W {
            1 => (_mm_unpacklo_epi8(a, b), _mm_unpackhi_epi8(a, b)),
            2 => (_mm_unpacklo_epi16(a, b), _mm_unpackhi_epi16(a, b)),
            4 => (_mm_unpacklo_epi32(a, b), _mm_unpackhi_epi32(a, b)),
            _ => (_mm_unpacklo_epi64(a, b), _mm_unpackhi_epi64(a, b)),
        };
        (Sse2(lo), Sse2(hi))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    // SAFETY: `load` and `store` work on local arrays; SSE2 has no byte
    // shuffle, so the lookup goes through memory.
    unsafe fn lookup(table: &[u8; 32], idx: Sse2) -> Sse2 {
        let mut lanes = [0u8; 16];
        idx.store(&mut lanes);
        lanes.iter_mut().for_each(|x| *x = table[usize::from(*x & 31)]);
        Sse2::load(&lanes)
    }
}

/// AVX2 lanes: one 32-byte register. The upper half starts one diagonal
/// late, so the Δh′ that crosses from lane 15 to lane 16 is two
/// diagonals old and the lane-crossing permute stays off the diagonal's
/// dependency chain.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2(__m256i);

#[cfg(target_arch = "x86_64")]
impl Vector for Avx2 {
    const N: usize = 32;
    const START: [u8; MAX_LANES] = lane_starts(1);

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: the slice index proves 32 readable bytes, and the load has
    // no alignment requirement.
    unsafe fn load(src: &[u8]) -> Avx2 {
        Avx2(_mm256_loadu_si256(src[..32].as_ptr().cast()))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: the slice index proves bytes 0..33 readable, covering both
    // 16-byte loads (at 0 and at `START[16]` = 17), and neither load has
    // an alignment requirement.
    unsafe fn load_skewed(src: &[u8]) -> Avx2 {
        let src = &src[..33];
        let lo = _mm_loadu_si128(src.as_ptr().cast());
        let hi = _mm_loadu_si128(src[17..].as_ptr().cast());
        Avx2(_mm256_set_m128i(hi, lo))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: the slice index proves 32 writable bytes, and the store has
    // no alignment requirement.
    unsafe fn store(self, out: &mut [u8]) {
        _mm256_storeu_si256(out[..32].as_mut_ptr().cast(), self.0);
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: register arithmetic only.
    unsafe fn splat(x: u8) -> Avx2 {
        Avx2(_mm256_set1_epi8(x as i8))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: register arithmetic only.
    unsafe fn shift_in(h1: Avx2, h2: Avx2, top: u8) -> Avx2 {
        // `alignr` shifts each 128-bit half by one byte and fills its lane
        // 0 from byte 15 of `b`: `top` for the lower half, and lane 15 of
        // the diagonal before last for the upper half, which lags by one.
        let t = _mm_slli_si128::<15>(_mm_cvtsi32_si128(i32::from(top)));
        let b = _mm256_permute2x128_si256::<0x02>(h2.0, _mm256_castsi128_si256(t));
        Avx2(_mm256_alignr_epi8::<15>(h1.0, b))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: register arithmetic only.
    unsafe fn pe(s: Avx2, dv: Avx2, dh: Avx2) -> (Avx2, Avx2) {
        let v = _mm256_max_epu8(_mm256_subs_epu8(s.0, dh.0), _mm256_subs_epu8(dv.0, dh.0));
        let h = _mm256_max_epu8(_mm256_subs_epu8(s.0, dv.0), _mm256_subs_epu8(dh.0, dv.0));
        (Avx2(v), Avx2(h))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: register arithmetic only.
    unsafe fn uniform(q: Avx2, r: Avx2, miss: Avx2, delta: Avx2) -> Avx2 {
        Avx2(_mm256_add_epi8(miss.0, _mm256_and_si256(_mm256_cmpeq_epi8(q.0, r.0), delta.0)))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: `load` checks both masks' lengths; the rest is register
    // arithmetic.
    unsafe fn keep_live(new: Avx2, old: Avx2, a: &[u8], b: &[u8]) -> Avx2 {
        let live = _mm256_and_si256(Avx2::load(a).0, Avx2::load(b).0);
        Avx2(_mm256_blendv_epi8(old.0, new.0, live))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: `load` checks the mask's length; the rest is register
    // arithmetic.
    unsafe fn blend(new: Avx2, old: Avx2, mask: &[u8]) -> Avx2 {
        Avx2(_mm256_blendv_epi8(old.0, new.0, Avx2::load(mask).0))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: `load` checks the mask's length; the rest is register
    // arithmetic.
    unsafe fn or_masked(acc: Avx2, v: Avx2, mask: &[u8]) -> Avx2 {
        Avx2(_mm256_or_si256(acc.0, _mm256_and_si256(v.0, Avx2::load(mask).0)))
    }

    #[inline(never)]
    #[target_feature(enable = "avx2")]
    // SAFETY: a plain call.
    unsafe fn isolated<I: Isolated>(f: I) -> I::Output {
        f.run()
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: the slice indices prove 16 readable bytes in each run, and
    // neither load has an alignment requirement.
    unsafe fn load_run<'r>(run: &impl Fn(usize) -> &'r [u8], i: usize, at: usize) -> Avx2 {
        let lo = _mm_loadu_si128(run(i)[at..][..16].as_ptr().cast());
        let hi = _mm_loadu_si128(run(i + 16)[at..][..16].as_ptr().cast());
        Avx2(_mm256_set_m128i(hi, lo))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: register arithmetic only.
    unsafe fn unpack<const W: usize>(a: Avx2, b: Avx2) -> (Avx2, Avx2) {
        let (a, b) = (a.0, b.0);
        let (lo, hi) = match W {
            1 => (_mm256_unpacklo_epi8(a, b), _mm256_unpackhi_epi8(a, b)),
            2 => (_mm256_unpacklo_epi16(a, b), _mm256_unpackhi_epi16(a, b)),
            4 => (_mm256_unpacklo_epi32(a, b), _mm256_unpackhi_epi32(a, b)),
            _ => (_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b)),
        };
        (Avx2(lo), Avx2(hi))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    // SAFETY: the table is a fixed 32-byte array; the rest is register
    // arithmetic.
    unsafe fn lookup(table: &[u8; 32], idx: Avx2) -> Avx2 {
        // `pshufb` reads the low four bits of each index within its
        // 128-bit half: one lookup in each 16-entry half of the table,
        // and a blend on bit 4.
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(table[16..].as_ptr().cast()));
        let upper = _mm256_cmpgt_epi8(idx.0, _mm256_set1_epi8(15));
        let (a, b) = (_mm256_shuffle_epi8(lo, idx.0), _mm256_shuffle_epi8(hi, idx.0));
        Avx2(_mm256_blendv_epi8(a, b, upper))
    }
}

/// Entries of a lane-mask table: every diagonal offset up to one past
/// the largest lane start, after which the masks no longer change.
const MASKS: usize = MAX_START + 2;

/// `[k]`: the lanes with `start[i] ≤ k` (`started`) or `start[i] ≥ k`
/// (otherwise), as byte masks.
const fn lane_masks(start: [u8; MAX_LANES], started: bool) -> [[u8; MAX_LANES]; MASKS] {
    let mut out = [[0u8; MAX_LANES]; MASKS];
    let mut k = 0;
    while k < MASKS {
        let mut i = 0;
        while i < MAX_LANES {
            let s = start[i] as usize;
            if (started && s <= k) || (!started && s >= k) {
                out[k][i] = 0xFF;
            }
            i += 1;
        }
        k += 1;
    }
    out
}

/// `start` of row `i mod n`: the lane starts of a tile's rows when it is
/// swept in strips of `n` rows.
const fn tile_starts(start: [u8; MAX_LANES], n: usize) -> [u8; MAX_VL] {
    let mut out = [0u8; MAX_VL];
    let mut i = 0;
    while i < MAX_VL {
        out[i] = start[i % n];
        i += 1;
    }
    out
}

/// Lane starts `i`, plus `lag` from lane 16 on.
const fn lane_starts(lag: u8) -> [u8; MAX_LANES] {
    let mut out = [0u8; MAX_LANES];
    let mut i = 0;
    while i < MAX_LANES {
        out[i] = i as u8 + if i >= 16 { lag } else { 0 };
        i += 1;
    }
    out
}

/// What a sweep keeps besides its output borders.
trait Capture<V: Vector> {
    /// Runs `step` over the diagonals `ds` in order, from and to the lane
    /// registers `regs`, keeping what the capture needs of each; `LIVE`:
    /// every lane is inside the block on each of them. The capture drives
    /// the loop so that its state stays in locals.
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn range<S: Source<V>, const LIVE: bool>(
        &mut self,
        regs: (V, V, V),
        ds: std::ops::Range<usize>,
        step: &mut Step<'_, S>,
    ) -> (V, V, V);

    /// Sees the end of each of the sweep's chunks.
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn chunk_done(&mut self) {}
}

/// Keeps nothing: score-only strips, and tiles without cells.
struct Borders;

impl<V: Vector> Capture<V> for Borders {
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn range<S: Source<V>, const LIVE: bool>(
        &mut self,
        mut regs: (V, V, V),
        ds: std::ops::Range<usize>,
        step: &mut Step<'_, S>,
    ) -> (V, V, V) {
        let mut step = step.local();
        let mut out = [0u8; MAX_LANES];
        for d in ds {
            step.diagonal::<V, LIVE>(&mut regs, d, &mut out);
        }
        regs
    }
}

/// Stores a strip's lanes as they are, two vector stores per diagonal:
/// diagonal `d`'s Δv′ and Δh′ lanes at `d · stride` of `dv` and `dh`. A
/// one-tile strip stores to a [`TileCells`] plane, a block strip to its
/// [`KeptLanes`] run.
struct Diagonals<'c> {
    dv: &'c mut [u8],
    dh: &'c mut [u8],
    stride: usize,
}

impl<V: Vector> Capture<V> for Diagonals<'_> {
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn range<S: Source<V>, const LIVE: bool>(
        &mut self,
        mut regs: (V, V, V),
        ds: std::ops::Range<usize>,
        step: &mut Step<'_, S>,
    ) -> (V, V, V) {
        let mut step = step.local();
        let mut out = [0u8; MAX_LANES];
        for d in ds {
            let (v, h) = step.diagonal::<V, LIVE>(&mut regs, d, &mut out);
            let k = d * self.stride;
            v.store(&mut self.dv[k..]);
            h.store(&mut self.dh[k..]);
        }
        regs
    }
}

/// Lanes of a strip whose Δv′ [`PlaneCapture`] stores together: a run of
/// one tile row with consecutive lane starts, so all of them cross a
/// tile-column boundary within `VL` diagonals.
#[derive(Clone, Copy)]
struct Group {
    /// The lanes `lo..hi`, and as a byte mask.
    lo: usize,
    hi: usize,
    mask: [u8; MAX_LANES],
    /// The lanes that crossed the boundary in the chunk before the one
    /// its last lane crosses it in.
    early: [u8; MAX_LANES],
    /// The tile column of the boundary the group finishes in chunk `k`,
    /// less `k`.
    col_of_chunk: isize,
}

/// Most [`Group`]s of a strip: four W8 tile rows in 32 lanes, or three
/// W6 ones, one of them split by AVX2's lag.
const GROUPS: usize = MAX_LANES / 8 + 1;

/// `[t]`: the lanes that cross a tile-column boundary on the diagonals
/// `d ≡ t (mod VL)`, as byte masks.
type BoundaryMasks = [[u8; MAX_LANES]; MAX_VL];

/// The [`BoundaryMasks`] of `V`'s lanes for tiles of side `vl`: lane `i`
/// crosses boundary `c` on diagonal `c − 1 + START[i]`.
fn boundary_masks<V: Vector>(vl: usize) -> BoundaryMasks {
    let mut masks = [[0u8; MAX_LANES]; MAX_VL];
    for (i, &start) in V::START[..V::N].iter().enumerate() {
        masks[crossing_phase(start, vl)][i] = 0xFF;
    }
    masks
}

/// `d mod vl` of the diagonals on which a lane starting on diagonal
/// `start` crosses a tile-column boundary.
fn crossing_phase(start: u8, vl: usize) -> usize {
    (usize::from(start) + vl - 1) % vl
}

/// Fills the border planes from a lane strip as it sweeps, in a fixed
/// number of vector operations per diagonal.
///
/// The sweep runs in chunks of `VL` diagonals from a multiple of `VL`.
/// Lane `i` crosses boundary column `c` (a multiple of `VL`) on diagonal
/// `c − 1 + START[i]`, once per chunk, on the diagonals `d ≡ START[i] − 1
/// (mod VL)`: one mask per `d mod VL`. One masked OR per diagonal gathers
/// each lane's Δv′ at the boundary it crossed in the chunk into one of
/// two accumulators, by chunk parity. A [`Group`]'s lanes cross a boundary
/// within `VL` diagonals, so at the end of a chunk the two accumulators
/// hold a whole plane column for each group, which leaves with one blend
/// and one store. Each inner tile row's entering Δh′ is one byte per
/// diagonal from the lane above it, read from the sweep's `out` store.
struct PlaneCapture<'p, 'a, V> {
    planes: &'p mut Planes<'a>,
    masks: &'p BoundaryMasks,
    /// The accumulators of even and odd chunks (zero in the lanes the
    /// chunk has not reached yet), the chunk the sweep is in, and `d mod
    /// VL` of its next diagonal.
    acc: [V; 2],
    chunk: usize,
    phase: usize,
    /// The strip's first block row, the block's height and its tile
    /// geometry.
    s0: usize,
    m: usize,
    n: usize,
    vl: usize,
    t_cols: usize,
    groups: [Group; GROUPS],
    group_len: usize,
    /// The lanes whose row ends a tile row inside the strip, each with
    /// its start and the plane row it feeds.
    inner: [(usize, usize, usize); MAX_LANES / 8],
    inner_len: usize,
}

impl<'p, 'a, V: Vector> PlaneCapture<'p, 'a, V> {
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn new(
        planes: &'p mut Planes<'a>,
        masks: &'p BoundaryMasks,
        s0: usize,
        rows: usize,
        (m, n, vl): (usize, usize, usize),
    ) -> Self {
        let start = |i: usize| V::START[i];
        let none = [0; MAX_LANES];
        let first = Group { lo: 0, hi: 0, mask: none, early: none, col_of_chunk: 0 };
        let (mut groups, mut group_len) = ([first; GROUPS], 0);
        let (mut inner, mut inner_len) = ([(0, 0, 0); MAX_LANES / 8], 0);
        // Lane `i`'s tile row, and its row within it.
        let (mut tile_row, mut k) = (s0 / vl, s0 % vl);
        for i in 0..rows {
            if i == 0 || k == 0 || start(i) != start(i - 1) + 1 {
                groups[group_len].lo = i;
                group_len += 1;
            }
            let g = &mut groups[group_len - 1];
            g.hi = i + 1;
            g.mask[i] = 0xFF;
            k += 1;
            if k == vl {
                (tile_row, k) = (tile_row + 1, 0);
                if i + 1 < rows {
                    inner[inner_len] = (i, usize::from(start(i)), tile_row * n);
                    inner_len += 1;
                }
            }
        }
        for g in &mut groups[..group_len] {
            // The group's last lane crosses boundary `c` on diagonal
            // `c − 1 + START[hi − 1]`, at phase `last`; lanes at a later
            // phase crossed it in the chunk before.
            let last = crossing_phase(start(g.hi - 1), vl);
            for i in g.lo..g.hi {
                if crossing_phase(start(i), vl) > last {
                    g.early[i] = 0xFF;
                }
            }
            let lead = last as isize + 1 - isize::from(start(g.hi - 1));
            g.col_of_chunk = lead / vl as isize;
        }
        PlaneCapture {
            planes,
            masks,
            acc: [V::splat(0); 2],
            chunk: 0,
            phase: 0,
            s0,
            m,
            n,
            vl,
            t_cols: n.div_ceil(vl),
            groups,
            group_len,
            inner,
            inner_len,
        }
    }
}

impl<V: Vector> Capture<V> for PlaneCapture<'_, '_, V> {
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn range<S: Source<V>, const LIVE: bool>(
        &mut self,
        regs: (V, V, V),
        ds: std::ops::Range<usize>,
        step: &mut Step<'_, S>,
    ) -> (V, V, V) {
        match (LIVE, self.inner_len) {
            (false, _) => self.ramp(regs, ds, step),
            (true, 0) => self.live::<S, 0>(regs, ds, step),
            (true, 1) => self.live::<S, 1>(regs, ds, step),
            (true, 2) => self.live::<S, 2>(regs, ds, step),
            (true, _) => self.live::<S, 3>(regs, ds, step),
        }
    }

    /// Stores each group's plane column that the chunk finished.
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn chunk_done(&mut self) {
        let k = self.chunk;
        let (now, before) = (self.acc[k % 2], self.acc[(k + 1) % 2]);
        for g in &self.groups[..self.group_len] {
            let tj = k as isize + g.col_of_chunk;
            if tj >= 1 && (tj as usize) < self.t_cols {
                let col = V::blend(before, now, &g.early);
                store_group(g, col, &mut self.planes.dv[tj as usize * self.m + self.s0..]);
            }
        }
        self.acc[(k + 1) % 2] = V::splat(0);
        self.chunk += 1;
    }
}

impl<'p, V: Vector> PlaneCapture<'p, '_, V> {
    /// The masks of the next `len` diagonals. The sweep's chunks are `VL`
    /// diagonals from a multiple of `VL`, so those of a run never wrap.
    #[inline(always)]
    fn masks(&mut self, len: usize) -> &'p [[u8; MAX_LANES]] {
        let (masks, phase) = (self.masks, self.phase);
        self.phase = if phase + len == self.vl { 0 } else { phase + len };
        &masks[phase..][..len]
    }

    /// [`Capture::range`] on a ramp: each inner tile row's Δh′ is stored
    /// where its lane is inside the block.
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn ramp<S: Source<V>>(
        &mut self,
        mut regs: (V, V, V),
        ds: std::ops::Range<usize>,
        step: &mut Step<'_, S>,
    ) -> (V, V, V) {
        let mut step = step.local();
        let masks = self.masks(ds.len());
        let (mut acc, n) = (self.acc[self.chunk % 2], self.n);
        let mut out = [0u8; MAX_LANES];
        for (d, mask) in ds.zip(masks) {
            let (v, _) = step.diagonal::<V, false>(&mut regs, d, &mut out);
            acc = V::or_masked(acc, v, mask);
            for &(i, start, row) in &self.inner[..self.inner_len] {
                let j = d.wrapping_sub(start);
                if j < n {
                    self.planes.dh[row + j] = out[i];
                }
            }
        }
        self.acc[self.chunk % 2] = acc;
        regs
    }

    /// [`Capture::range`] on a run where every lane is inside the block,
    /// with `K` inner tile rows: each one's Δh′ goes to a run of its plane
    /// row cut before the loop.
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn live<S: Source<V>, const K: usize>(
        &mut self,
        mut regs: (V, V, V),
        ds: std::ops::Range<usize>,
        step: &mut Step<'_, S>,
    ) -> (V, V, V) {
        let mut step = step.local();
        let len = ds.len();
        let (mut lanes, mut at) = ([0; K], [0; K]);
        for (k, &(i, start, row)) in self.inner[..K].iter().enumerate() {
            (lanes[k], at[k]) = (i % MAX_LANES, row + ds.start - start);
        }
        let masks = self.masks(len);
        let mut rows = runs_mut(&mut *self.planes.dh, at, len);
        let mut acc = self.acc[self.chunk % 2];
        let mut out = [0u8; MAX_LANES];
        for (t, (d, mask)) in ds.zip(masks).enumerate() {
            let (v, _) = step.diagonal::<V, true>(&mut regs, d, &mut out);
            acc = V::or_masked(acc, v, mask);
            for (row, &i) in rows.iter_mut().zip(&lanes) {
                row[t] = out[i];
            }
        }
        self.acc[self.chunk % 2] = acc;
        regs
    }
}

/// `K` runs of `len` bytes of `plane`, at the increasing offsets `at`
/// that are at least `len` apart.
#[inline(always)]
fn runs_mut<const K: usize>(mut plane: &mut [u8], at: [usize; K], len: usize) -> [&mut [u8]; K] {
    let mut runs: [&mut [u8]; K] = std::array::from_fn(|_| <&mut [u8]>::default());
    let mut base = 0;
    for (run, o) in runs.iter_mut().zip(at) {
        (*run, plane) = std::mem::take(&mut plane)[o - base..].split_at_mut(len);
        base = o + len;
    }
    runs
}

/// Stores group `g`'s lanes of `acc` to the plane column `col` (from the
/// strip's first row on): one blend into its first `N` bytes, or a copy
/// where they run off the plane.
#[inline(always)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn store_group<V: Vector>(g: &Group, acc: V, col: &mut [u8]) {
    if col.len() >= V::N {
        V::blend(acc, V::load(col), &g.mask).store(col);
    } else {
        let mut lanes = [0u8; MAX_LANES];
        acc.store(&mut lanes);
        col[g.lo..g.hi].copy_from_slice(&lanes[g.lo..g.hi]);
    }
}

/// The lane sweep: strip rows `0..rows` (at most `V::N`, one per lane)
/// across `dh.len()` columns, in place: `dv` enters as the strip's left
/// border and leaves as its right, `dh` enters as its top and leaves as
/// its bottom row. `s_at.at(d)` yields the `S′` lanes of diagonal `d`
/// (called once per diagonal, in order) and `cap` sees every diagonal. The sweep
/// runs in a frame of its own ([`Vector::isolated`]), in chunks of `every`
/// diagonals, and polls `token`'s cancel flag between them.
///
/// Lanes outside `0 ≤ d − START[i] < n` keep their Δv′ (not started, or
/// already holding the right border); only the ramps at either end of
/// the sweep mask them. Their Δh′ only ever feeds lanes that are outside
/// too.
#[inline(always)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn sweep<V: Vector, C: Capture<V>>(
    rows: usize,
    dv: &mut [u8],
    dh: &mut [u8],
    s_at: impl Source<V>,
    cap: &mut C,
    (token, every): (Option<&CancelToken>, usize),
) -> Result<(), AlignError> {
    let last = usize::from(V::START[rows - 1]);
    let total = dh.len() + last;
    let mut lanes = [0u8; MAX_LANES];
    lanes[..rows].copy_from_slice(&dv[..rows]);
    // The lane registers: Δv′ carried along each row, and the Δh′ of the
    // last two diagonals.
    let regs = (V::load(&lanes), V::splat(0), V::splat(0));
    let mut step = Step { rows, last, dh, s_at };
    let regs = V::isolated(Chunks { regs, step: &mut step, cap, token, every, total })?;
    let vdv = regs.0;
    vdv.store(&mut lanes);
    dv[..rows].copy_from_slice(&lanes[..rows]);
    Ok(())
}

/// Work [`Vector::isolated`] runs in a frame of its own.
trait Isolated {
    type Output;

    /// Does the work; always inlined, so that it takes on the frame's
    /// target feature.
    // SAFETY: callers hold the target feature of the lanes it uses.
    unsafe fn run(self) -> Self::Output;
}

/// [`sweep`]'s diagonals `0..total` from the lane registers `regs`, in
/// chunks of `every`, with `token`'s cancel flag polled between them.
struct Chunks<'r, 'a, V, C, S> {
    regs: (V, V, V),
    step: &'r mut Step<'a, S>,
    cap: &'r mut C,
    token: Option<&'r CancelToken>,
    every: usize,
    total: usize,
}

impl<V: Vector, C: Capture<V>, S: Source<V>> Isolated for Chunks<'_, '_, V, C, S> {
    type Output = Result<(V, V, V), AlignError>;

    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn run(self) -> Self::Output {
        let Chunks { mut regs, step, cap, token, every, total } = self;
        for lo in (0..total).step_by(every) {
            if lo > 0 && token.is_some_and(CancelToken::is_cancelled) {
                return Err(AlignError::Cancelled);
            }
            regs = diagonals(regs, lo..total.min(lo.saturating_add(every)), step, cap);
            cap.chunk_done();
        }
        Ok(regs)
    }
}

/// Diagonals `ds` of [`sweep`], from and to the lane registers `regs`:
/// the ramps and the run between them, where every lane is inside the
/// block, each in a loop of its own.
#[inline(always)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn diagonals<V: Vector, C: Capture<V>, S: Source<V>>(
    mut regs: (V, V, V),
    ds: std::ops::Range<usize>,
    step: &mut Step<'_, S>,
    cap: &mut C,
) -> (V, V, V) {
    for (part, live) in step.parts(ds).into_iter().filter(|(part, _)| !part.is_empty()) {
        regs = match live {
            true => cap.range::<_, true>(regs, part, step),
            false => cap.range::<_, false>(regs, part, step),
        };
    }
    regs
}

/// One diagonal of [`sweep`]: the strip's rows, the diagonal its last
/// lane starts on, its top border in and bottom row out, and its `S′`.
struct Step<'a, S> {
    rows: usize,
    last: usize,
    dh: &'a mut [u8],
    s_at: S,
}

impl<S> Step<'_, S> {
    /// `ds` cut into the runs on which every lane is inside the block
    /// (`true`: the diagonals `last .. n`) and the ramps on either side.
    fn parts(&self, ds: std::ops::Range<usize>) -> [(std::ops::Range<usize>, bool); 3] {
        let n = self.dh.len();
        let clamp = |d: usize| d.clamp(ds.start, ds.end);
        let (live, done) = (clamp(self.last.min(n)), clamp(n));
        [(ds.start..live, false), (live..done, true), (done..ds.end, false)]
    }

    /// The same step over borrowed borders and `S′`, for a loop to keep
    /// in locals.
    #[inline(always)]
    fn local(&mut self) -> Step<'_, &mut S> {
        Step { rows: self.rows, last: self.last, dh: &mut *self.dh, s_at: &mut self.s_at }
    }

    /// Computes diagonal `d` from and to the lane registers `regs`,
    /// stores its Δh′ lanes to `out` and returns its Δv′ and Δh′ lanes.
    /// `LIVE`: every lane is inside the block on `d`; otherwise `d` is on
    /// a ramp, where only the lanes inside take their new Δv′.
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn diagonal<V: Vector, const LIVE: bool>(
        &mut self,
        regs: &mut (V, V, V),
        d: usize,
        out: &mut [u8; MAX_LANES],
    ) -> (V, V)
    where
        S: Source<V>,
    {
        let (vdv, h1, h2) = *regs;
        let (n, last) = (self.dh.len(), self.last);
        let top = if LIVE || d < n { self.dh[d] } else { 0 };
        let dh_in = V::shift_in(h1, h2, top);
        let (v, h) = V::pe(self.s_at.at(d), vdv, dh_in);
        let vdv = if LIVE {
            v
        } else {
            let finished = (d + 1).saturating_sub(n);
            let (a, b) = (&V::STARTED[d.min(MASKS - 1)], &V::UNFINISHED[finished.min(MASKS - 1)]);
            V::keep_live(v, vdv, a, b)
        };
        *regs = (vdv, h, h1);
        h.store(out);
        if LIVE || d >= last {
            self.dh[d - last] = out[self.rows - 1];
        }
        (v, h)
    }
}

/// Lays `r` out reversed around `PAD` bytes of padding on each side, so
/// `rrev[n − 1 + PAD − d + START[i]]` is `r[d − START[i]]` and one
/// skewed load at `n − 1 + PAD − d` serves every lane of diagonal `d`.
fn reverse_into(r: &[u8], rrev: &mut [u8]) {
    let base = r.len() - 1 + PAD;
    for (j, &c) in r.iter().enumerate() {
        rrev[base - j] = c;
    }
}

/// Where a sweep's `S′` lanes come from, one diagonal at a time.
trait Source<V: Vector> {
    /// The `S′` lanes of diagonal `d`; called once per diagonal, in order.
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn at(&mut self, d: usize) -> V;
}

impl<V: Vector, S: Source<V>> Source<V> for &mut S {
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn at(&mut self, d: usize) -> V {
        (**self).at(d)
    }
}

/// The `S′` lanes of a match/mismatch scheme on the strip `qv` (query
/// codes per lane): one skewed load of the reversed reference `rrev` and
/// one compare per diagonal.
struct UniformAt<'a, V> {
    qv: V,
    miss: V,
    delta: V,
    rrev: &'a [u8],
    /// `n − 1 + PAD`, for `n` columns.
    base: usize,
}

impl<'a, V: Vector> UniformAt<'a, V> {
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn new(q: &[u8], (hit, miss): (u8, u8), rrev: &'a [u8], n: usize) -> Self {
        let (miss, delta) = (V::splat(miss), V::splat(hit.wrapping_sub(miss)));
        UniformAt { qv: query_lanes(q), miss, delta, rrev, base: n - 1 + PAD }
    }
}

impl<V: Vector> Source<V> for UniformAt<'_, V> {
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn at(&mut self, d: usize) -> V {
        V::uniform(self.qv, V::load_skewed(&self.rrev[self.base - d..]), self.miss, self.delta)
    }
}

/// A matrix scheme's `S′` lanes from a diagonal-major buffer, refilled
/// with diagonals `d0 .. d0 + CHUNK` every [`CHUNK`] diagonals. The
/// refill is inlined into the sweep, so it runs on the sweep's lanes.
struct Chunked<F> {
    buf: [u8; CHUNK * MAX_LANES],
    end: usize,
    refill: F,
}

impl<F> Chunked<F> {
    fn new(refill: F) -> Self {
        Chunked { buf: [0; CHUNK * MAX_LANES], end: 0, refill }
    }
}

impl<V: Vector, F: Refill<V>> Source<V> for Chunked<F> {
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn at(&mut self, d: usize) -> V {
        if d == self.end {
            self.refill.refill(&mut self.buf, d);
            self.end = d + CHUNK;
        }
        V::load(&self.buf[(d + CHUNK - self.end) * MAX_LANES..])
    }
}

/// Writes the `S′` lanes of diagonals `d0 .. d0 + CHUNK` to a
/// diagonal-major buffer.
trait Refill<V: Vector> {
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn refill(&mut self, buf: &mut [u8; CHUNK * MAX_LANES], d0: usize);
}

/// A one-tile strip `q` × `r`, one byte at a time ([`fill_tile_chunk`]).
struct TileRefill<'a> {
    q: &'a [u8],
    r: &'a [u8],
    matrix: &'a SubstMatrix,
    shift: i32,
}

impl<V: Vector> Refill<V> for TileRefill<'_> {
    #[inline(always)]
    // SAFETY: plain Rust.
    unsafe fn refill(&mut self, buf: &mut [u8; CHUNK * MAX_LANES], d0: usize) {
        let (matrix, shift) = (self.matrix, self.shift);
        fill_tile_chunk::<V>(buf, d0, self.q, self.r, |a, b| (matrix.score(a, b) + shift) as u8);
    }
}

/// A block strip, transposed from the block's reference profile
/// ([`fill_strip_chunk`]).
struct StripRefill<'a> {
    runs: [usize; MAX_LANES],
    profile: Profile<'a>,
}

impl<V: Vector> Refill<V> for StripRefill<'_> {
    #[inline(always)]
    // SAFETY: callers hold `V`'s target feature.
    unsafe fn refill(&mut self, buf: &mut [u8; CHUNK * MAX_LANES], d0: usize) {
        fill_strip_chunk::<V>(buf, d0, &self.runs, &self.profile);
    }
}

/// The query codes of a strip, one per lane.
#[inline(always)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn query_lanes<V: Vector>(q: &[u8]) -> V {
    let mut lanes = [0u8; MAX_LANES];
    lanes[..q.len()].copy_from_slice(q);
    V::load(&lanes)
}

/// Writes the `S′` lanes of diagonals `d0 .. d0 + CHUNK` of a one-tile
/// strip `q` × `r` to `buf` (diagonal-major), with `sub(a, b)` the `S′`
/// of query code `a` against reference code `b`. Lanes outside the tile
/// keep stale values; the sweep discards them. Plain byte stores, kept
/// out of line: a recomputed tile refills once or twice.
#[inline(never)]
fn fill_tile_chunk<V: Vector>(
    buf: &mut [u8; CHUNK * MAX_LANES],
    d0: usize,
    q: &[u8],
    r: &[u8],
    sub: impl Fn(u8, u8) -> u8,
) {
    for (i, &a) in q.iter().enumerate() {
        let st = usize::from(V::START[i]);
        let (lo, hi) = (d0.max(st), (d0 + CHUNK).min(st + r.len()));
        if lo < hi {
            for (k, &c) in r[lo - st..hi - st].iter().enumerate() {
                buf[(lo - d0 + k) * MAX_LANES + i] = sub(a, c);
            }
        }
    }
}

/// Writes the `S′` lanes of diagonals `d0 .. d0 + CHUNK` of a block strip
/// to `buf` (diagonal-major) from the block's reference profile: lane
/// `i` reads the run of its query code's row at `runs[i] + d0`, and the
/// lanes' runs are transposed in 16 × 16 byte blocks by four unpack
/// stages. Lanes past the strip's rows read the last row's code, and the
/// sweep discards them.
#[inline(always)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn fill_strip_chunk<V: Vector>(
    buf: &mut [u8; CHUNK * MAX_LANES],
    d0: usize,
    runs: &[usize; MAX_LANES],
    profile: &Profile<'_>,
) {
    let run = |i: usize| &profile.rows[runs[i] + d0..][..CHUNK];
    for t0 in (0..CHUNK).step_by(16) {
        // Loaded in bit-reversed lane order, so that the unpack network
        // leaves the lanes of each diagonal in order.
        let mut x: [V; 16] = std::array::from_fn(|j| V::load_run(&run, BIT_REVERSED[j], t0));
        x = unpack_stage::<V, 1>(x);
        x = unpack_stage::<V, 2>(x);
        x = unpack_stage::<V, 4>(x);
        x = unpack_stage::<V, 8>(x);
        for (t, v) in x.iter().enumerate() {
            v.store(&mut buf[(t0 + t) * MAX_LANES..]);
        }
    }
}

/// `j` with its four bits reversed.
const BIT_REVERSED: [usize; 16] = [0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15];

/// One stage of the 16 × 16 byte transpose: registers `j` and `j + 8`
/// unpack over `W`-byte units into registers `2j` and `2j + 1`.
#[inline(always)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn unpack_stage<V: Vector, const W: usize>(x: [V; 16]) -> [V; 16] {
    let mut y = x;
    for j in 0..8 {
        (y[2 * j], y[2 * j + 1]) = V::unpack::<W>(x[j], x[j + 8]);
    }
    y
}

/// The lane offsets [`fill_strip_chunk`] reads the strip `q` at: the
/// start of lane `i`'s code row, plus `PAD`, less its lane start.
fn strip_runs<V: Vector>(q: &[u8], row_len: usize) -> [usize; MAX_LANES] {
    let mut runs = [0; MAX_LANES];
    for (i, run) in runs.iter_mut().enumerate().take(V::N) {
        let code = usize::from(q[i.min(q.len() - 1)]);
        *run = code * row_len + PAD - usize::from(V::START[i]);
    }
    runs
}

/// Builds a matrix scheme's reference profile for `q` × `r` into `rows`
/// (zeroed, `MATRIX_CODES` rows of `row_len`): the rows of the query
/// codes the block has, `N` columns per byte lookup into the code's
/// 32-entry `S′` row.
#[inline(always)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn build_profile<V: Vector>(
    subst: Subst<'_>,
    q: &[u8],
    r: &[u8],
    rows: &mut [u8],
    row_len: usize,
) {
    let mut filled = [false; MATRIX_CODES];
    let whole = r.len() / V::N * V::N;
    for &a in q {
        if std::mem::replace(&mut filled[usize::from(a)], true) {
            continue;
        }
        let mut table = [0u8; 32];
        for (c, x) in table.iter_mut().enumerate().take(MATRIX_CODES) {
            *x = subst.at(a, c as u8);
        }
        let row = &mut rows[usize::from(a) * row_len + PAD..][..r.len()];
        for j in (0..whole).step_by(V::N) {
            V::lookup(&table, V::load(&r[j..])).store(&mut row[j..]);
        }
        for (s, &c) in row[whole..].iter_mut().zip(&r[whole..]) {
            *s = table[usize::from(c)];
        }
    }
}

/// A matrix scheme's reference profile for one block: per query code
/// `a`, the row `S′(a, r[j])` over the block's columns `j`, behind `PAD`
/// zero bytes and followed by `PAD + CHUNK` more.
struct Profile<'a> {
    rows: &'a [u8],
    len: usize,
}

/// [`tile`]'s lane path on SSE2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn tile_sse2(
    q: &[u8],
    r: &[u8],
    subst: Subst<'_>,
    dv: &mut [u8],
    dh: &mut [u8],
    cells: Option<&mut TileCells>,
) {
    // SAFETY: this function enables SSE2.
    unsafe { tile_on::<Sse2>(q, r, subst, dv, dh, cells) }
}

/// [`tile`]'s lane path on AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tile_avx2(
    q: &[u8],
    r: &[u8],
    subst: Subst<'_>,
    dv: &mut [u8],
    dh: &mut [u8],
    cells: Option<&mut TileCells>,
) {
    // SAFETY: this function enables AVX2.
    unsafe { tile_on::<Avx2>(q, r, subst, dv, dh, cells) }
}

/// One tile as strips of at most `V::N` rows, one tile wide.
#[inline(always)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn tile_on<V: Vector>(
    q: &[u8],
    r: &[u8],
    subst: Subst<'_>,
    dv: &mut [u8],
    dh: &mut [u8],
    cells: Option<&mut TileCells>,
) {
    match cells {
        Some(cells) => {
            cells.lanes(V::TILE_START);
            for (b, (qb, dvb)) in q.chunks(V::N).zip(dv.chunks_mut(V::N)).enumerate() {
                let row0 = b * V::N;
                let (cells_dv, cells_dh) = (&mut cells.dv[row0..], &mut cells.dh[row0..]);
                let mut cap = Diagonals { dv: cells_dv, dh: cells_dh, stride: MAX_LANES };
                tile_strip::<V, _>(qb, r, subst, dvb, dh, &mut cap);
            }
        }
        None => {
            for (qb, dvb) in q.chunks(V::N).zip(dv.chunks_mut(V::N)) {
                tile_strip::<V, _>(qb, r, subst, dvb, dh, &mut Borders);
            }
        }
    }
}

/// One strip of at most `V::N` tile rows across one tile.
#[inline(always)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn tile_strip<V: Vector, C: Capture<V>>(
    q: &[u8],
    r: &[u8],
    subst: Subst<'_>,
    dv: &mut [u8],
    dh: &mut [u8],
    cap: &mut C,
) {
    let rows = q.len();
    let done = match subst {
        Subst::Uniform { hit, miss } => {
            let mut rrev = [0u8; MAX_VL + 2 * PAD];
            reverse_into(r, &mut rrev);
            let s_at = UniformAt::<V>::new(q, (hit, miss), &rrev, r.len());
            sweep::<V, C>(rows, dv, dh, s_at, cap, (None, usize::MAX))
        }
        Subst::Matrix { matrix, shift } => {
            let s_at = Chunked::new(TileRefill { q, r, matrix, shift });
            sweep::<V, C>(rows, dv, dh, s_at, cap, (None, usize::MAX))
        }
    };
    debug_assert!(done.is_ok(), "a sweep without a token cannot fail");
}

/// The two border planes of a traceback-mode block (`TileBorderStore`'s
/// layout): `dv` is `t_cols × m`, `dh` is `t_rows × n`.
pub(crate) struct Planes<'a> {
    pub(crate) dv: &'a mut [u8],
    pub(crate) dh: &'a mut [u8],
}

/// One block for [`block`]: `dv` (left border in, right border out) and
/// `dh` (top border in, bottom row out) are carried in place, and masked
/// to EW bits on the way in.
pub(crate) struct Strips<'a> {
    pub(crate) engine: &'a SmxEngine,
    pub(crate) q: &'a [u8],
    pub(crate) r: &'a [u8],
    pub(crate) dv: &'a mut [u8],
    pub(crate) dh: &'a mut [u8],
    /// Tile input borders of the block (traceback mode). Tile column 0
    /// and tile row 0 are the block's own borders, which the caller
    /// stores; the sweep fills the rest.
    pub(crate) planes: Option<Planes<'a>>,
    /// Where each edit-word strip stores its columns' Myers words: one
    /// `n`-column run per strip of [`word_rows`] rows, in strip order.
    /// The first strip that runs on lanes clears it, and the block keeps
    /// no words.
    pub(crate) words: Option<&'a mut [[u64; 4]]>,
    /// Where each lane strip stores its lanes, in place of the planes
    /// (a lane scheme's block that keeps its cells).
    pub(crate) lanes: Option<&'a mut KeptLanes>,
    pub(crate) control: Option<&'a CancelToken>,
}

/// Rows of a block's edit-word strip for tile side `vl`: `WORD_ROWS`
/// rounded down to whole tile rows.
pub(crate) fn word_rows(vl: usize) -> usize {
    WORD_ROWS / vl * vl
}

/// Computes a block strip by strip on `kernel`. `control` is checked
/// whole before each strip, and its cancel flag every `VL` diagonals (or
/// columns) inside it.
pub(crate) fn block(kernel: LaneKernel, job: &mut Strips<'_>) -> Result<(), AlignError> {
    match kernel {
        // SAFETY: the portable lanes need no target feature.
        LaneKernel::Scalar => unsafe { block_on::<Portable>(job) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        LaneKernel::Sse2 => unsafe { block_sse2(job) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `current` picks AVX2 only where `supported` lists it.
        LaneKernel::Avx2 => unsafe { block_avx2(job) },
    }
}

/// [`block`] on SSE2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn block_sse2(job: &mut Strips<'_>) -> Result<(), AlignError> {
    // SAFETY: this function enables SSE2.
    unsafe { block_on::<Sse2>(job) }
}

/// [`block`] on AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_avx2(job: &mut Strips<'_>) -> Result<(), AlignError> {
    // SAFETY: this function enables AVX2.
    unsafe { block_on::<Avx2>(job) }
}

/// The strip loop: edit-word strips of `WORD_ROWS` rows rounded down to
/// whole tile rows where the scheme and the borders allow, lane strips
/// of `V::N` rows rounded down the same way otherwise.
#[inline(always)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn block_on<V: Vector>(job: &mut Strips<'_>) -> Result<(), AlignError> {
    let (engine, q, r, control) = (job.engine, job.q, job.r, job.control);
    let (dv, dh) = (&mut *job.dv, &mut *job.dh);
    let (m, n, vl) = (q.len(), r.len(), engine.tile_dim());
    let mask = engine.ew().max_value() as u8;
    let edit = matches!(engine.scheme(), ScoringScheme::Edit);
    let lane_rows = lane_rows::<V>(vl);
    let strip_rows = if edit { word_rows(vl) } else { lane_rows };
    debug_assert!(job.lanes.as_ref().is_none_or(|kept| kept.rows == lane_rows));
    // Each border is masked and θ-checked in one pass: the top here, the
    // left a strip at a time. A word strip leaves the carried Δh′ in θ.
    let mut top_in_theta = mask_in_theta(dh, mask);
    let subst = Subst::of(engine.scheme());
    // Built by the first lane strip in traceback mode: an edit block
    // whose strips all run as words never needs them.
    let mut masks = None;
    // Allocated by the first lane strip: the reversed reference, or a
    // matrix scheme's reference profile.
    let mut scratch = Vec::new();
    let row_len = n + 2 * PAD + CHUNK;
    for r0 in (0..m).step_by(strip_rows) {
        let rows = strip_rows.min(m - r0);
        let whole_word = mask_in_theta(&mut dv[r0..r0 + rows], mask) && top_in_theta && edit;
        let substrip = if whole_word { rows } else { lane_rows };
        for s0 in (r0..r0 + rows).step_by(substrip) {
            if let Some(t) = control {
                t.check()?;
            }
            let h = substrip.min(r0 + rows - s0);
            let (qs, dvs) = (&q[s0..s0 + h], &mut dv[s0..s0 + h]);
            if let Some(p) = job.planes.as_mut() {
                if s0.is_multiple_of(vl) && s0 > 0 {
                    p.dh[s0 / vl * n..][..n].copy_from_slice(dh);
                }
            }
            if whole_word {
                let at = job.planes.as_mut().map(|p| (p, s0, m));
                let words = job.words.as_deref_mut().map(|w| &mut w[s0 / strip_rows * n..][..n]);
                edit_strip(qs, r, dvs, dh, (at, words), vl, control)?;
                continue;
            }
            // The block keeps no words once a strip runs on lanes.
            job.words = None;
            if scratch.is_empty() {
                scratch = match subst {
                    Subst::Uniform { .. } => {
                        let mut rrev = vec![0u8; n + 2 * PAD];
                        reverse_into(r, &mut rrev);
                        rrev
                    }
                    Subst::Matrix { .. } => {
                        let mut rows = vec![0u8; MATRIX_CODES * row_len];
                        build_profile::<V>(subst, q, r, &mut rows, row_len);
                        rows
                    }
                };
            }
            let every = (control, vl);
            match (job.lanes.as_deref_mut(), job.planes.as_mut()) {
                (Some(kept), _) => {
                    let mut cap = kept.capture(s0 / lane_rows);
                    lane_strip::<V, _>(qs, r, subst, &scratch, dvs, dh, &mut cap, every)?;
                }
                (None, Some(p)) => {
                    let masks = masks.get_or_insert_with(|| boundary_masks::<V>(vl));
                    let mut cap = PlaneCapture::<V>::new(p, masks, s0, h, (m, n, vl));
                    lane_strip::<V, _>(qs, r, subst, &scratch, dvs, dh, &mut cap, every)?;
                }
                (None, None) => {
                    lane_strip::<V, _>(qs, r, subst, &scratch, dvs, dh, &mut Borders, every)?;
                }
            }
        }
        if edit && !whole_word {
            top_in_theta = in_theta(dh);
        }
    }
    Ok(())
}

/// One lane strip of a block, with `S′` from `scratch`: the reversed
/// reference, or the matrix scheme's reference profile. It takes the
/// sweep's operands plus that source, hence the argument count.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// SAFETY: callers hold `V`'s target feature.
unsafe fn lane_strip<V: Vector, C: Capture<V>>(
    q: &[u8],
    r: &[u8],
    subst: Subst<'_>,
    scratch: &[u8],
    dv: &mut [u8],
    dh: &mut [u8],
    cap: &mut C,
    control: (Option<&CancelToken>, usize),
) -> Result<(), AlignError> {
    let (rows, n) = (q.len(), r.len());
    match subst {
        Subst::Uniform { hit, miss } => {
            let s_at = UniformAt::<V>::new(q, (hit, miss), scratch, n);
            sweep::<V, C>(rows, dv, dh, s_at, cap, control)
        }
        Subst::Matrix { .. } => {
            let profile = Profile { rows: scratch, len: n + 2 * PAD + CHUNK };
            let runs = strip_runs::<V>(q, profile.len);
            let s_at = Chunked::new(StripRefill { runs, profile });
            sweep::<V, C>(rows, dv, dh, s_at, cap, control)
        }
    }
}

/// The edit-word kernel on a tile. `cells`, when given, keeps each
/// column's words.
fn edit_tile(q: &[u8], r: &[u8], dv: &mut [u8], dh: &mut [u8], cells: Option<&mut TileCells>) {
    let mut scratch = [[0u64; 4]; MAX_VL];
    let cols = match cells {
        Some(c) => {
            c.words = true;
            &mut c.cols
        }
        None => &mut scratch,
    };
    let mut column = EditColumn::enter(dv);
    with_match_words(q, |peq| column.sweep(r, dh, peq, &mut cols[..r.len()]));
    column.leave(dv);
}

thread_local! {
    /// This thread's match-word table ([`with_match_words`]): all zero
    /// between edit strips and tiles.
    static MATCH_WORDS: RefCell<[u64; 256]> = const { RefCell::new([0; 256]) };
}

/// Runs `f` over this thread's match-word table with the rows `q` (at
/// most 64) set: bit `i` of `[c]` is set when `q[i] == c`. Only `q`'s
/// entries are set, and they are cleared after `f`, also when it fails
/// or unwinds, so the table stays zero between calls and no strip or
/// tile fills its 2 KB whole.
fn with_match_words<T>(q: &[u8], f: impl FnOnce(&[u64; 256]) -> T) -> T {
    /// Clears the entries of `q` on drop.
    struct Clear<'a>(&'a mut [u64; 256], &'a [u8]);
    impl Drop for Clear<'_> {
        fn drop(&mut self) {
            for &a in self.1 {
                self.0[usize::from(a)] = 0;
            }
        }
    }
    MATCH_WORDS.with_borrow_mut(|peq| {
        for (i, &a) in q.iter().enumerate() {
            peq[usize::from(a)] |= 1 << i;
        }
        let table = Clear(peq, q);
        f(table.0)
    })
}

/// A block's planes, with the first block row of a strip and the block
/// height.
type PlanesAt<'p, 'a> = (&'p mut Planes<'a>, usize, usize);

/// One edit-word strip of a block: at most 64 rows `q` across the whole
/// reference, one tile column (`vl` columns) at a time, with `control`'s
/// cancel flag polled before each. `words`, when given, receives each
/// column's `[pv, mv, ph, mh]` (one per column of `r`). With `at` (the
/// planes, the strip's first block row and the block height), each
/// inner tile row's entering Δh′ and each tile column's entering Δv′ are
/// read from a tile column's words once it is swept, so the column loop
/// itself only stores words.
fn edit_strip(
    q: &[u8],
    r: &[u8],
    dv: &mut [u8],
    dh: &mut [u8],
    (mut at, mut words): (Option<PlanesAt<'_, '_>>, Option<&mut [[u64; 4]]>),
    vl: usize,
    control: Option<&CancelToken>,
) -> Result<(), AlignError> {
    let (rows, n) = (q.len(), r.len());
    // Each inner tile row's entering Δh′ is the bit of the row above it,
    // stored to its Δh′ plane row. The strip starts on a tile row, so its
    // tile row `k` starts at block row `r0 + k·vl`.
    let mut inner = [(0u64, 0usize); WORD_ROWS / MIN_VL];
    let mut inner_len = 0;
    if let Some((_, r0, _)) = at.as_ref() {
        for (slot, i) in inner.iter_mut().zip((vl..rows).step_by(vl)) {
            *slot = (1 << (i - 1), (r0 + i) / vl * n);
            inner_len += 1;
        }
    }
    let mut column = EditColumn::enter(dv);
    let mut scratch = [[0u64; 4]; MAX_VL];
    with_match_words(q, |peq| {
        for (c0, (rs, dhs)) in (0..n).step_by(vl).zip(r.chunks(vl).zip(dh.chunks_mut(vl))) {
            if control.is_some_and(CancelToken::is_cancelled) {
                return Err(AlignError::Cancelled);
            }
            let cols = match words.as_deref_mut() {
                Some(words) => &mut words[c0..c0 + rs.len()],
                None => &mut scratch[..rs.len()],
            };
            column.sweep(rs, dhs, peq, cols);
            let Some((p, r0, m)) = at.as_mut() else { continue };
            for &(bit, row) in &inner[..inner_len] {
                for (x, &[.., ph, mh]) in p.dh[row + c0..].iter_mut().zip(cols.iter()) {
                    *x = shifted(ph, mh, bit);
                }
            }
            let next = c0 + rs.len();
            if next < n {
                let [pv, mv, ..] = cols[rs.len() - 1];
                column_deltas(pv, mv, &mut p.dv[next / vl * *m + *r0..][..rows]);
            }
        }
        Ok(())
    })?;
    column.leave(dv);
    Ok(())
}

/// The running column of the edit-word kernel over at most 64 rows: bit
/// `i` of `(pv, mv)` is the edit delta of row `i` in the current column
/// (`pv`: +1, `mv`: −1), and each reference character is one
/// Edlib-order step.
struct EditColumn {
    pv: u64,
    mv: u64,
    /// The bit of the bottom row.
    bottom: u64,
}

impl EditColumn {
    /// The column left of the first, from the Δv′ entering each row.
    fn enter(dv: &[u8]) -> EditColumn {
        let (mut pv, mut mv) = (0u64, 0u64);
        for (i, &x) in dv.iter().enumerate() {
            pv |= u64::from(x == 0) << i;
            mv |= u64::from(x == EDIT_THETA) << i;
        }
        EditColumn { pv, mv, bottom: 1 << (dv.len() - 1) }
    }

    /// Steps across the reference codes `r`, with the match words `peq`
    /// ([`with_match_words`]): `dh` enters as the Δh′ from above each column
    /// and leaves as the bottom row's, and `cols` gets each column's
    /// `[pv, mv, ph, mh]`. The loop does nothing else, so the words stay
    /// in scalar registers.
    #[inline]
    fn sweep(&mut self, r: &[u8], dh: &mut [u8], peq: &[u64; 256], cols: &mut [[u64; 4]]) {
        let (mut pv, mut mv) = (self.pv, self.mv);
        for ((&c, d), col) in r.iter().zip(dh.iter_mut()).zip(cols.iter_mut()) {
            // Shifted Δh′ = 1 − edit delta.
            let hin = 1 - i32::from(*d);
            let (ph, mh) = myers_step(&mut pv, &mut mv, peq[usize::from(c)], hin);
            *d = shifted(ph, mh, self.bottom);
            *col = [pv, mv, ph, mh];
        }
        (self.pv, self.mv) = (pv, mv);
    }

    /// Writes the Δv′ leaving each row to `dv`.
    fn leave(&self, dv: &mut [u8]) {
        column_deltas(self.pv, self.mv, dv);
    }
}

/// Writes the shifted Δ′ of each row of a `(+1, −1)` word pair to `col`,
/// eight rows per step: `1 + minus − plus` in every byte at once, with
/// each byte's bit spread by [`SPREAD`] (the two words never share a
/// bit, so no byte borrows).
fn column_deltas(plus: u64, minus: u64, col: &mut [u8]) {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    for (k, out) in col.chunks_mut(8).enumerate() {
        let byte = |w: u64| SPREAD[usize::from((w >> (8 * k)) as u8)];
        let deltas = ONES + byte(minus) - byte(plus);
        out.copy_from_slice(&deltas.to_le_bytes()[..out.len()]);
    }
}

/// `SPREAD[b]`: bit `i` of `b` as byte `i` (0 or 1).
static SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            table[b] |= ((b as u64 >> i) & 1) << (8 * i);
            i += 1;
        }
        b += 1;
    }
    table
};

/// The shifted `Δ′` of the edit delta at `bit` of a (+1, −1) word pair.
#[inline]
fn shifted(plus: u64, minus: u64, bit: u64) -> u8 {
    1 + u8::from(minus & bit != 0) - u8::from(plus & bit != 0)
}
