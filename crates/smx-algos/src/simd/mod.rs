//! Streaming SIMD score kernel for the software baseline (DESIGN.md §7).
//!
//! Every resilience path in the service layer (breaker reroute, hedged
//! backup, audit recompute, whole-alignment degradation) lands on the
//! software baseline, and the pool's audit re-checks every sampled
//! device result against an independently computed optimum. This module
//! provides that optimum: [`score`], the global score `M[m][n]` from a
//! streaming pass over rolling state, with **no matrix and no traceback
//! pass**. The expensive full CIGAR (via
//! [`smx_align_core::dp::align_codes`]) runs only when an audit
//! disagrees.
//!
//! Two interchangeable kernels sit behind [`score`]:
//!
//! - the golden model's own rolling row,
//!   [`smx_align_core::dp::last_row_into`], run on the workspace's row
//!   buffer: saturating arithmetic, total on every input, and the score
//!   [`smx_align_core::dp::score_only`] reports by construction;
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
//! up to half the `i32` range, and the golden row for pathological
//! schemes (|penalty| ~ 1e9) and empty inputs. That one decision, made
//! through the cached `avx2_available()`, names the instantiation that
//! runs.

mod wavefront;

use smx_align_core::{dp, ScoringScheme};

/// Which kernel services score-only baseline work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Baseline {
    /// The golden model's rolling row (saturating arithmetic).
    Scalar,
    /// The vectorized anti-diagonal kernel. Falls back to [`Baseline::Scalar`]
    /// only when the no-overflow bound fails (correctness, not policy).
    Simd,
    /// Runtime selection: the vectorized kernel when it is safe, the golden
    /// row otherwise. Honours the `SMX_FORCE_SCALAR` environment
    /// variable (any value but `0`) so CI can pin the fallback path.
    #[default]
    Auto,
}

impl Baseline {
    /// All baselines, for sweeps and identity checks.
    pub const ALL: [Baseline; 3] = [Baseline::Scalar, Baseline::Simd, Baseline::Auto];

    /// Stable name, for harness reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Baseline::Scalar => "scalar",
            Baseline::Simd => "simd",
            Baseline::Auto => "auto",
        }
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
    /// The golden model's rolling row ([`dp::last_row_into`]).
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

/// What perfbench's traced `simd.score` probe reads: the global score
/// alone. See [`score_profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScoreProfile {
    /// Global alignment score `M[m][n]` (byte-identical to
    /// [`dp::score_only`]).
    pub score: i32,
}

/// Reusable buffers for the streaming kernels; steady-state calls are
/// allocation-free once capacity has grown to the workload's sizes.
#[derive(Debug, Clone, Default)]
pub struct SimdWorkspace {
    // Golden row: one rolling row of scores.
    pub(crate) row: Vec<i32>,
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
    } else if span <= (i32::MAX as u64) / 2 {
        Some(LaneWidth::I32)
    } else {
        None
    }
}

/// The kernel [`score`] will run for this combination — exposed so
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

/// The global score `M[m][n]`, byte-identical to
/// `dp::score_only(query, reference, scheme)` on every input and
/// baseline. What the audit's optimality check reads.
pub fn score(
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    baseline: Baseline,
    ws: &mut SimdWorkspace,
) -> i32 {
    let (q, r) = (query, reference);
    match selected_kernel(baseline, scheme, q.len(), r.len()) {
        KernelKind::Scalar => {
            dp::last_row_into(q, r, scheme, &mut ws.row);
            ws.row[r.len()]
        }
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

/// [`score`], wrapped for the repository benchmark (perfbench's traced
/// `simd.score` probe), which is its only caller; everything else calls
/// [`score`].
pub fn score_profile(
    query: &[u8],
    reference: &[u8],
    scheme: &ScoringScheme,
    baseline: Baseline,
    ws: &mut SimdWorkspace,
) -> ScoreProfile {
    ScoreProfile { score: score(query, reference, scheme, baseline, ws) }
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

    /// Asserts that every baseline reproduces the golden score on one pair.
    fn check(q: &[u8], r: &[u8], scheme: &ScoringScheme) {
        let mut ws = SimdWorkspace::new();
        let golden = dp::score_only(q, r, scheme);
        for baseline in Baseline::ALL {
            assert_eq!(score(q, r, scheme, baseline, &mut ws), golden, "{baseline} score");
        }
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
        assert_eq!(
            score(&q, &r, &scheme, Baseline::Simd, &mut ws),
            dp::score_only(&q, &r, &scheme)
        );
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
        assert_eq!(width(&blosum, 1 << 15, 10), Some(LaneWidth::I32));
    }

    #[test]
    fn long_queries_take_i32_lanes() {
        // A 2^15-code query: the edit scheme's span is 32 786, past the
        // i16 bound, and i32 lanes take it at any query length.
        let edit = ScoringScheme::edit();
        let q: Vec<u8> = (0..1u32 << 15).map(|i| ((i * 7 + (i >> 5)) % 4) as u8).collect();
        let r: Vec<u8> = (0..16u32).map(|i| ((i * 5) % 4) as u8).collect();
        assert_eq!(width(&edit, q.len(), r.len()), Some(LaneWidth::I32));
        check(&q, &r, &edit);
    }

    #[test]
    fn baseline_names_roundtrip() {
        let names: std::collections::BTreeSet<String> =
            Baseline::ALL.iter().map(Baseline::to_string).collect();
        assert_eq!(names, Baseline::ALL.iter().map(|b| b.name().to_owned()).collect());
        assert_eq!(names.len(), Baseline::ALL.len());
        assert_eq!(Baseline::default(), Baseline::Auto);
    }

    #[test]
    fn workspace_reuse_is_allocation_stable() {
        // Steady state: a second identical call must not regrow buffers.
        let scheme = ScoringScheme::edit();
        let q = vec![1u8; 200];
        let r = vec![2u8; 180];
        let mut ws = SimdWorkspace::new();
        let first = score(&q, &r, &scheme, Baseline::Simd, &mut ws);
        let caps = |ws: &SimdWorkspace| {
            let w = &ws.narrow;
            (w.v[0].capacity(), w.rrev.capacity())
        };
        let before = caps(&ws);
        let second = score(&q, &r, &scheme, Baseline::Simd, &mut ws);
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
            // every baseline equals the golden score on either width.
            let scheme = AlignmentConfig::Protein.scoring();
            let mut ws = SimdWorkspace::new();
            let golden = dp::score_only(&q, &r, &scheme);
            for baseline in Baseline::ALL {
                prop_assert_eq!(score(&q, &r, &scheme, baseline, &mut ws), golden);
            }
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
