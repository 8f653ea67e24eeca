//! Streaming SIMD score+stats kernel for the software baseline
//! (ROADMAP item 1; DESIGN.md §7).
//!
//! Every resilience path in the service layer (breaker reroute, hedged
//! backup, audit recompute, whole-alignment degradation) lands on the
//! software baseline, so its speed multiplies service throughput under
//! any fault load. This module provides the cheap half of a **two-phase
//! contract**: a streaming dynamic program over rolling state that
//! produces the optimal score, the best last-row score and end position,
//! and the match/mismatch/gap counts of the optimal path — with **no
//! matrix and no traceback pass**. The expensive half (a full CIGAR via
//! [`smx_align_core::dp::align_codes`]) runs only for winners or when an
//! audit disagrees.
//!
//! Two interchangeable kernels sit behind [`score_profile`]:
//!
//! - [`scalar`]: a row-streaming reference that mirrors
//!   [`smx_align_core::dp::last_row`] operation-for-operation (saturating
//!   arithmetic included), so its score is byte-identical to
//!   [`smx_align_core::dp::score_only`] on *every* input.
//! - [`wavefront`]: an anti-diagonal (wavefront) formulation whose inner
//!   loop has no loop-carried dependency, written branchlessly over
//!   contiguous slices so LLVM auto-vectorizes it. Its one body is
//!   generic over the lane type ([`LaneWidth`]: `i16` or `i32`) and
//!   instantiated for the baseline ISA and for AVX2.
//!
//! The vectorized kernel uses wrapping arithmetic (saturating ops do not
//! vectorize); it is only dispatched when a conservative no-overflow
//! bound proves wrapping and saturating arithmetic coincide, so both
//! kernels are byte-identical wherever both run. [`selected_kernel`]
//! takes the narrowest lane that bound admits: `i16` while `(m + n + 2) ·
//! max|score| ≤ 16383` (for BLOSUM50 with gap −5, `m + n ≤ 1090`), `i32`
//! up to half the `i32` range, and the scalar kernel for pathological
//! schemes (|penalty| ~ 1e9). That one decision, made through the cached
//! `avx2_available()`, names the instantiation that runs.
//!
//! [`score`] is the same kernel with its counter and match-flag
//! diagonals compiled out: the global score alone, which is all the
//! pool's audit reads.
//!
//! The per-cell winner selection (diagonal ≻ up ≻ left) replicates the
//! golden traceback tie-break, so the reported counts equal
//! `align_codes(..).cigar.stats()` exactly — the streaming pass and the
//! full DP agree not just on the score but on the shape of the optimal
//! path.

mod scalar;
mod wavefront;

use smx_align_core::ScoringScheme;

/// Which kernel services score-only baseline work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Baseline {
    /// The row-streaming scalar reference (saturating arithmetic).
    Scalar,
    /// The vectorized anti-diagonal kernel. Falls back to [`Baseline::Scalar`]
    /// only when the no-overflow bound fails (correctness, not policy).
    Simd,
    /// Runtime selection: the vectorized kernel when it is safe, the scalar
    /// reference otherwise. Honours the `SMX_FORCE_SCALAR` environment
    /// variable (any value but `0`) so CI can pin the fallback path.
    #[default]
    Auto,
}

impl Baseline {
    /// All baselines, for CLI parsing and sweeps.
    pub const ALL: [Baseline; 3] = [Baseline::Scalar, Baseline::Simd, Baseline::Auto];

    /// Stable CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Scalar => "scalar",
            Baseline::Simd => "simd",
            Baseline::Auto => "auto",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Baseline> {
        Baseline::ALL.into_iter().find(|b| b.name() == name)
    }
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The kernel a `(baseline, scheme, lengths)` combination resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Row-streaming scalar reference.
    Scalar,
    /// Anti-diagonal kernel, baseline-ISA instantiation.
    SimdPortable(LaneWidth),
    /// Anti-diagonal kernel, AVX2 instantiation.
    SimdAvx2(LaneWidth),
}

/// The score lane the anti-diagonal kernel sweeps in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneWidth {
    /// `i16` scores: 16 lanes per AVX2 register, taken while `(m + n +
    /// 2)·max|score| ≤ 16383`.
    I16,
    /// `i32` scores: 8 lanes per AVX2 register.
    I32,
}

impl KernelKind {
    /// Human-readable name for harness reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::SimdPortable(LaneWidth::I16) => "simd-portable-i16",
            KernelKind::SimdPortable(LaneWidth::I32) => "simd-portable-i32",
            KernelKind::SimdAvx2(LaneWidth::I16) => "simd-avx2-i16",
            KernelKind::SimdAvx2(LaneWidth::I32) => "simd-avx2-i32",
        }
    }
}

/// Everything the streaming pass produces: the full-DP score, the
/// last-needle-row contract, and the optimal path's operation counts.
///
/// The scoring contract follows the frizbee-style full-needle convention
/// (SNIPPETS.md): in addition to the global score `M[m][n]`,
/// `best_score` is the maximum over the last needle (query) row
/// `M[m][0..=n]` and `best_end` the *leftmost* reference position
/// attaining it — the natural prefix-alignment end position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScoreProfile {
    /// Global alignment score `M[m][n]` (byte-identical to
    /// [`dp::score_only`]).
    pub score: i32,
    /// `max_j M[m][j]`: the best score over the last query row.
    pub best_score: i32,
    /// Leftmost `j` attaining `best_score`.
    pub best_end: usize,
    /// Matched positions on the optimal (golden tie-break) path.
    pub matches: u64,
    /// Mismatched positions on the optimal path.
    pub mismatches: u64,
    /// Inserted query characters on the optimal path.
    pub gap_inserts: u64,
    /// Deleted reference characters on the optimal path.
    pub gap_deletes: u64,
    /// DP cells the streaming pass covered (`m·n`).
    pub cells: u64,
}

/// Reusable buffers for the streaming kernels; steady-state calls are
/// allocation-free once capacity has grown to the workload's sizes.
#[derive(Debug, Clone, Default)]
pub struct SimdWorkspace {
    // Scalar kernel: one rolling row of scores plus lockstep counters.
    pub(crate) row: Vec<i32>,
    pub(crate) row_cm: Vec<u32>,
    pub(crate) row_ci: Vec<u32>,
    // Wavefront kernel: the rolling diagonals of each lane width, and a
    // matrix scheme's flattened table (built once per matrix).
    pub(crate) narrow: wavefront::Diagonals<i16>,
    pub(crate) wide: wavefront::Diagonals<i32>,
    pub(crate) table: Option<wavefront::MatrixTable>,
}

impl SimdWorkspace {
    /// A fresh workspace (buffers grow on first use).
    #[must_use]
    pub fn new() -> SimdWorkspace {
        SimdWorkspace::default()
    }
}

/// Whether `SMX_FORCE_SCALAR` pins [`Baseline::Auto`] to the scalar
/// kernel; the switch lives in `smx-align-core` so the SMX-2D tile
/// kernel honours the same one.
pub use smx_align_core::dispatch::force_scalar;

/// Whether the AVX2 instantiation of the vectorized kernel is available
/// on this host (cached; the SMX-2D lane kernel asks the same switch).
pub use smx_align_core::dispatch::avx2_available;

/// Conservative no-overflow bound: every intermediate of the wrapping
/// kernel stays within `±(m+n+2)·max|score|`, so requiring that product
/// to fit in half a lane's signed range proves wrapping == saturating in
/// that lane. Returns the product.
fn span(scheme: &ScoringScheme, m: usize, n: usize) -> Option<u64> {
    let maxabs = [scheme.s_min(), scheme.s_max(), scheme.gap_insert(), scheme.gap_delete()]
        .into_iter()
        .map(|v| i64::from(v).unsigned_abs())
        .max()
        .unwrap_or(1)
        .max(1);
    (m as u64 + n as u64 + 2).checked_mul(maxabs)
}

/// The lane width whose no-overflow bound holds for this pair, if any.
fn lane_width(scheme: &ScoringScheme, m: usize, n: usize) -> Option<LaneWidth> {
    let span = span(scheme, m, n)?;
    if span <= (i16::MAX as u64) / 2 {
        Some(LaneWidth::I16)
    } else if span <= (i32::MAX as u64) / 2 && m < (1 << 15) {
        // The i32 kernel packs its two path counters into one u32 as
        // (matches << 16 | gap_inserts); both are bounded by the query
        // length, so m < 2^15 keeps the low field carry-free even after
        // a +1.
        Some(LaneWidth::I32)
    } else {
        None
    }
}

/// The kernel `score_profile` will run for this combination — exposed so
/// harnesses can report (and tests can pin) the dispatch decision. The
/// narrowest lane width whose no-overflow bound holds wins.
#[must_use]
pub fn selected_kernel(
    baseline: Baseline,
    scheme: &ScoringScheme,
    m: usize,
    n: usize,
) -> KernelKind {
    let width = lane_width(scheme, m, n).filter(|_| m > 0 && n > 0);
    let vectorized = match baseline {
        Baseline::Scalar => None,
        Baseline::Simd => width,
        Baseline::Auto => width.filter(|_| !force_scalar()),
    };
    match vectorized {
        None => KernelKind::Scalar,
        Some(w) if avx2_available() => KernelKind::SimdAvx2(w),
        Some(w) => KernelKind::SimdPortable(w),
    }
}

/// Runs the streaming score+stats pass over raw code slices.
///
/// Byte-identical to the golden model on every input and baseline:
/// `score == dp::score_only(q, r, scheme)`, `(best_score, best_end) ==
/// dp::last_row_best(&dp::last_row(q, r, scheme))`, and the counts equal
/// `dp::align_codes(q, r, scheme).cigar.stats()`.
pub fn score_profile(
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    baseline: Baseline,
    ws: &mut SimdWorkspace,
) -> ScoreProfile {
    let (m, n) = (query.len(), reference.len());
    if m == 0 || n == 0 {
        return degenerate(m, n, scheme);
    }
    let (q, r) = (query, reference);
    match selected_kernel(baseline, scheme, m, n) {
        KernelKind::Scalar => scalar::profile(q, r, scheme, ws),
        KernelKind::SimdPortable(LaneWidth::I16) => {
            wavefront::profile::<i16>(false, q, r, scheme, ws)
        }
        KernelKind::SimdPortable(LaneWidth::I32) => {
            wavefront::profile::<i32>(false, q, r, scheme, ws)
        }
        KernelKind::SimdAvx2(LaneWidth::I16) => wavefront::profile::<i16>(true, q, r, scheme, ws),
        KernelKind::SimdAvx2(LaneWidth::I32) => wavefront::profile::<i32>(true, q, r, scheme, ws),
    }
}

/// The global score alone: `score_profile(..).score`, from the same
/// kernel with its counter and match-flag diagonals compiled out. What
/// the audit's optimality check reads.
pub fn score(
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    baseline: Baseline,
    ws: &mut SimdWorkspace,
) -> i32 {
    let (m, n) = (query.len(), reference.len());
    if m == 0 || n == 0 {
        return degenerate(m, n, scheme).score;
    }
    let (q, r) = (query, reference);
    match selected_kernel(baseline, scheme, m, n) {
        KernelKind::Scalar => scalar::profile(q, r, scheme, ws).score,
        KernelKind::SimdPortable(LaneWidth::I16) => {
            wavefront::score::<i16>(false, q, r, scheme, ws)
        }
        KernelKind::SimdPortable(LaneWidth::I32) => {
            wavefront::score::<i32>(false, q, r, scheme, ws)
        }
        KernelKind::SimdAvx2(LaneWidth::I16) => wavefront::score::<i16>(true, q, r, scheme, ws),
        KernelKind::SimdAvx2(LaneWidth::I32) => wavefront::score::<i32>(true, q, r, scheme, ws),
    }
}

/// Closed-form profile for empty inputs (mirrors the golden model's
/// border initialization, saturating arithmetic included).
fn degenerate(m: usize, n: usize, scheme: &ScoringScheme) -> ScoreProfile {
    if m == 0 {
        // The whole reference is deleted; the last row is row 0, whose
        // maximum sits at j = 0 with value 0 (gap penalties are negative).
        ScoreProfile {
            score: (n as i32).saturating_mul(scheme.gap_delete()),
            best_score: 0,
            best_end: 0,
            gap_deletes: n as u64,
            ..ScoreProfile::default()
        }
    } else {
        // n == 0: the whole query is inserted; the last row is the single
        // border cell M[m][0].
        let score = (m as i32).saturating_mul(scheme.gap_insert());
        ScoreProfile {
            score,
            best_score: score,
            best_end: 0,
            gap_inserts: m as u64,
            ..ScoreProfile::default()
        }
    }
}

/// Assembles a profile from the two tracked counters; the remaining two
/// counts are implied by the path shape (`cm + cx + ci = m`,
/// `cm + cx + cd = n`).
pub(crate) fn finish(
    m: usize,
    n: usize,
    score: i32,
    cm: u32,
    ci: u32,
    best_score: i32,
    best_end: usize,
) -> ScoreProfile {
    let (cm, ci) = (u64::from(cm), u64::from(ci));
    ScoreProfile {
        score,
        best_score,
        best_end,
        matches: cm,
        mismatches: m as u64 - cm - ci,
        gap_inserts: ci,
        gap_deletes: n as u64 + ci - m as u64,
        cells: m as u64 * n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smx_align_core::{dp, AlignmentConfig, SubstMatrix};

    fn schemes() -> Vec<(&'static str, ScoringScheme)> {
        vec![
            ("edit", ScoringScheme::edit()),
            ("ksw2", ScoringScheme::linear(2, -4, -4).unwrap()),
            ("asym", ScoringScheme::linear_asym(1, -3, -2, -5).unwrap()),
            ("zero-match", ScoringScheme::linear(0, -2, -3).unwrap()),
            ("blosum62", ScoringScheme::matrix(SubstMatrix::blosum62(), -5).unwrap()),
        ]
    }

    /// Asserts the full byte-identity contract of both kernels on one pair.
    fn check(q: &[u8], r: &[u8], scheme: &ScoringScheme) {
        let mut ws = SimdWorkspace::new();
        let scalar = score_profile(q, r, scheme, Baseline::Scalar, &mut ws);
        let simd = score_profile(q, r, scheme, Baseline::Simd, &mut ws);
        let auto = score_profile(q, r, scheme, Baseline::Auto, &mut ws);
        assert_eq!(scalar, simd, "kernels must be byte-identical");
        assert_eq!(scalar, auto, "auto must match");
        assert_eq!(scalar.score, dp::score_only(q, r, scheme), "global score");
        for baseline in Baseline::ALL {
            assert_eq!(score(q, r, scheme, baseline, &mut ws), scalar.score, "{baseline} score");
        }
        let row = dp::last_row(q, r, scheme);
        assert_eq!((scalar.best_score, scalar.best_end), dp::last_row_best(&row), "contract");
        let golden = dp::align_codes(q, r, scheme);
        assert_eq!(scalar.score, golden.score);
        let stats = golden.cigar.stats();
        assert_eq!(scalar.matches, stats.matches, "matches");
        assert_eq!(scalar.mismatches, stats.mismatches, "mismatches");
        assert_eq!(scalar.gap_inserts, stats.insertions, "inserts");
        assert_eq!(scalar.gap_deletes, stats.deletions, "deletes");
    }

    #[test]
    fn empty_and_degenerate_sequences() {
        for (_, scheme) in schemes() {
            check(&[], &[], &scheme);
            check(&[], &[0, 1, 2], &scheme);
            check(&[0, 1], &[], &scheme);
            check(&[1], &[1], &scheme);
            check(&[1], &[2], &scheme);
            check(&[0], &[0, 0, 0, 0], &scheme);
        }
    }

    #[test]
    fn identical_and_disjoint_pairs() {
        for (_, scheme) in schemes() {
            let q: Vec<u8> = (0..257u32).map(|i| (i % 4) as u8).collect();
            check(&q, &q, &scheme);
            let r: Vec<u8> = vec![5u8; 97];
            check(&q, &r, &scheme);
            check(&r, &q, &scheme);
        }
    }

    #[test]
    fn full_512_boundary() {
        // The satellite's upper bound, plus off-by-one neighbours around
        // likely vector-width boundaries.
        let scheme = ScoringScheme::linear(2, -4, -4).unwrap();
        for (m, n) in [(512, 512), (511, 513), (8, 512), (512, 8), (63, 65), (64, 64)] {
            let q: Vec<u8> = (0..m as u32).map(|i| ((i * 7 + (i >> 4)) % 4) as u8).collect();
            let r: Vec<u8> = (0..n as u32).map(|i| ((i * 5) % 4) as u8).collect();
            check(&q, &r, &scheme);
        }
    }

    #[test]
    fn pathological_penalties_fall_back_to_scalar_saturating() {
        // |penalty| ~ 1e9 saturates the golden model; the dispatcher must
        // refuse the wrapping kernel and stay byte-identical anyway.
        let scheme = ScoringScheme::linear(1, -1_000_000_000, -1_000_000_000).unwrap();
        let (m, n) = (300usize, 200usize);
        assert_eq!(selected_kernel(Baseline::Simd, &scheme, m, n), KernelKind::Scalar);
        let q = vec![0u8; m];
        let r = vec![1u8; n];
        let mut ws = SimdWorkspace::new();
        let p = score_profile(&q, &r, &scheme, Baseline::Simd, &mut ws);
        assert_eq!(p.score, dp::score_only(&q, &r, &scheme));
    }

    #[test]
    fn dispatch_reports_kernels() {
        let scheme = ScoringScheme::edit();
        assert_eq!(selected_kernel(Baseline::Scalar, &scheme, 10, 10), KernelKind::Scalar);
        let simd = selected_kernel(Baseline::Simd, &scheme, 10, 10);
        assert_ne!(simd, KernelKind::Scalar);
        if avx2_available() {
            assert_eq!(simd, KernelKind::SimdAvx2(LaneWidth::I16));
        }
    }

    /// The width a `Baseline::Simd` dispatch picks, whatever the ISA.
    fn width(scheme: &ScoringScheme, m: usize, n: usize) -> Option<LaneWidth> {
        match selected_kernel(Baseline::Simd, scheme, m, n) {
            KernelKind::Scalar => None,
            KernelKind::SimdPortable(w) | KernelKind::SimdAvx2(w) => Some(w),
        }
    }

    #[test]
    fn i16_lanes_end_at_a_span_of_16383() {
        // max|score| = 1: the span is m + n + 2 itself.
        let edit = ScoringScheme::edit();
        assert_eq!(width(&edit, 8000, 16383 - 2 - 8000), Some(LaneWidth::I16));
        assert_eq!(width(&edit, 8000, 16384 - 2 - 8000), Some(LaneWidth::I32));
        // BLOSUM50 with gap -5: max|score| = 15, so m + n = 1090 spans
        // 16380 and m + n = 1091 spans 16395.
        let blosum = AlignmentConfig::Protein.scoring();
        assert_eq!(width(&blosum, 545, 545), Some(LaneWidth::I16));
        assert_eq!(width(&blosum, 545, 546), Some(LaneWidth::I32));
        assert_eq!(width(&blosum, 1 << 15, 10), None, "packed i32 counters need m < 2^15");
    }

    #[test]
    fn baseline_names_roundtrip() {
        for b in Baseline::ALL {
            assert_eq!(Baseline::parse(b.name()), Some(b));
        }
        assert_eq!(Baseline::parse("vector"), None);
        assert_eq!(Baseline::default(), Baseline::Auto);
    }

    #[test]
    fn workspace_reuse_is_allocation_stable() {
        // Steady state: a second identical call must not regrow buffers.
        let scheme = ScoringScheme::edit();
        let q = vec![1u8; 200];
        let r = vec![2u8; 180];
        let mut ws = SimdWorkspace::new();
        let first = score_profile(&q, &r, &scheme, Baseline::Simd, &mut ws);
        let caps = |ws: &SimdWorkspace| {
            let w = &ws.narrow;
            (w.v[0].capacity(), w.c[0].capacity(), w.rrev.capacity())
        };
        let before = caps(&ws);
        let second = score_profile(&q, &r, &scheme, Baseline::Simd, &mut ws);
        assert_eq!(first, second);
        assert_eq!(before, caps(&ws));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn kernels_match_golden_dna(
            q in proptest::collection::vec(0u8..4, 0..300),
            r in proptest::collection::vec(0u8..4, 0..300),
        ) {
            for (_, scheme) in schemes() {
                check(&q, &r, &scheme);
            }
        }

        #[test]
        fn kernels_match_golden_protein(
            q in proptest::collection::vec(0u8..26, 0..160),
            r in proptest::collection::vec(0u8..26, 0..160),
        ) {
            let scheme = ScoringScheme::matrix(SubstMatrix::blosum50(), -5).unwrap();
            check(&q, &r, &scheme);
        }

        #[test]
        fn protein_lengths_straddling_the_i16_bound(
            q in proptest::collection::vec(0u8..26, 500..590),
            r in proptest::collection::vec(0u8..26, 500..590),
        ) {
            // m + n runs 1000..1178 across BLOSUM50's i16 bound of 1090:
            // the full profile equals the scalar kernel's on either
            // width, and the score-only kernel equals the golden score.
            let scheme = AlignmentConfig::Protein.scoring();
            let mut ws = SimdWorkspace::new();
            let scalar = score_profile(&q, &r, &scheme, Baseline::Scalar, &mut ws);
            let simd = score_profile(&q, &r, &scheme, Baseline::Simd, &mut ws);
            prop_assert_eq!(scalar, simd);
            let golden = dp::score_only(&q, &r, &scheme);
            prop_assert_eq!(score(&q, &r, &scheme, Baseline::Simd, &mut ws), golden);
            prop_assert_eq!(scalar.score, golden);
        }

        #[test]
        fn kernels_match_golden_ascii_long(
            q in proptest::collection::vec(0u8..96, 0..512),
            r in proptest::collection::vec(0u8..96, 0..512),
        ) {
            // Length range up to the satellite's 512 bound on one scheme
            // (full-matrix golden keeps the runtime reasonable).
            let scheme = ScoringScheme::linear(1, -1, -2).unwrap();
            check(&q, &r, &scheme);
        }
    }
}
