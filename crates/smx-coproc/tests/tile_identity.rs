//! Byte identity of the fast SMX-2D tile kernels against the reference
//! `DeltaBlock::compute` (a row-major `pe_exact` sweep).
//!
//! Covers every `AlignmentConfig` plus element-width/scheme pairings the
//! configs do not use (a 32-row lane tile, the edit scheme on wider
//! elements, a matrix scheme on W8), random partial tiles, and borders
//! in `[0, θ]` or, in a quarter of the cases, anywhere in `[0, 2^EW)`.
//! Every fresh block is also run under a fault session, which must
//! reproduce the clean borders, border store and CIGAR. Whole-strip
//! blocks up to ~300 columns run on every lane-kernel instantiation the
//! host supports, edit-word strips that fall back to lanes included, and
//! each one's traceback walks its own recomputed tiles to the reference
//! CIGAR.
//! Every instantiation, the portable lanes included, runs the same strip
//! sweep; under `SMX_FORCE_SCALAR=1` the unpinned blocks, tiles and
//! fault sessions run on the portable lanes too. Small DnaEdit blocks
//! keep their Myers words, and their traceback walks them to the
//! reference CIGAR with no tile recomputed; a block with a strip on
//! lanes, over the kept-cell budget or under a fault session recomputes
//! as before. Small DnaGap and protein blocks keep their Δ′ lanes the
//! same way, and their planes, derived from the lanes when read, equal
//! the reference's.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smx_align_core::{AlignmentConfig, Cigar, ElementWidth, Op, ScoringScheme, SubstMatrix};
use smx_coproc::block::{compute_block, BlockMode, KEPT_CELL_BUDGET};
use smx_coproc::lane_kernels::{pinned, supported};
use smx_coproc::traceback::{traceback_block, traceback_output, RecomputeStats};
use smx_coproc::{FaultPlan, FaultSession, RecoveryPolicy, SmxEngine, TileBorderStore};
use smx_diffenc::boundary::BlockBorders;
use smx_diffenc::delta::DeltaBlock;

/// `(element width, scheme, alphabet cardinality)` under test.
fn setups() -> Vec<(ElementWidth, ScoringScheme, u8)> {
    let mut out: Vec<_> = AlignmentConfig::ALL
        .iter()
        .map(|c| (c.element_width(), c.scoring(), c.alphabet().cardinality() as u8))
        .collect();
    out.push((ElementWidth::W2, ScoringScheme::linear(1, -1, -1).unwrap(), 4));
    out.push((ElementWidth::W4, ScoringScheme::edit(), 4));
    out.push((ElementWidth::W6, ScoringScheme::edit(), 26));
    out.push((ElementWidth::W8, ScoringScheme::matrix(SubstMatrix::blosum62(), -5).unwrap(), 26));
    out
}

fn codes(rng: &mut StdRng, len: usize, card: u8) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..card)).collect()
}

/// Borders in `[0, θ]`, or in a quarter of the draws in `[0, 2^EW)`.
fn border(rng: &mut StdRng, len: usize, ew: ElementWidth, theta: u8) -> Vec<u8> {
    let hi = if rng.gen_range(0..4u32) == 0 { ew.max_value() as u8 } else { theta };
    (0..len).map(|_| rng.gen_range(0..=hi)).collect()
}

#[test]
fn random_tiles_match_reference() {
    for kernel in supported() {
        pinned(kernel, || random_tiles_match_reference_on(&format!("{kernel:?}")));
    }
}

fn random_tiles_match_reference_on(kernel: &str) {
    let mut rng = StdRng::seed_from_u64(0x5EED_711E);
    for (ew, scheme, card) in setups() {
        let engine = SmxEngine::new(ew, &scheme).unwrap();
        let (vl, theta) = (ew.vl(), scheme.theta() as u8);
        for case in 0..1500 {
            let (rows, cols) = (rng.gen_range(1..=vl), rng.gen_range(1..=vl));
            let q = codes(&mut rng, rows, card);
            let r = codes(&mut rng, cols, card);
            let dv_left = border(&mut rng, rows, ew, theta);
            let dh_top = border(&mut rng, cols, ew, theta);
            let reference = DeltaBlock::compute(ew, &q, &r, &scheme, &dh_top, &dv_left).unwrap();
            let ctx = || {
                format!(
                    "{kernel} {ew} {scheme:?} case {case}: q={q:?} r={r:?} {dv_left:?} {dh_top:?}"
                )
            };
            let (mut dv, mut dh) = (dv_left.clone(), dh_top.clone());
            engine.compute_tile(&q, &r, &mut dv, &mut dh).unwrap();
            assert_eq!(dv, reference.right_dv(), "right Δv′, {}", ctx());
            assert_eq!(dh, reference.bottom_dh(), "bottom Δh′, {}", ctx());
            let full = engine.compute_tile_full(&q, &r, &dv_left, &dh_top).unwrap();
            assert_eq!(full, reference, "interior, {}", ctx());
        }
    }
}

/// Reference traceback over a whole block's `pe_exact` interior, with
/// the global tie-break (diagonal ≻ insert ≻ delete), for a block with
/// fresh borders.
fn reference_cigar(blk: &DeltaBlock, q: &[u8], r: &[u8], scheme: &ScoringScheme) -> Cigar {
    let (top, left) = DeltaBlock::fresh_borders(q.len(), r.len());
    reference_cigar_within(blk, q, r, scheme, (&top, &left))
}

/// [`reference_cigar`] for a block inside a larger matrix, entered by the
/// borders `top` and `left`.
fn reference_cigar_within(
    blk: &DeltaBlock,
    q: &[u8],
    r: &[u8],
    scheme: &ScoringScheme,
    (top, left): (&[u8], &[u8]),
) -> Cigar {
    let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
    let (m, n) = (q.len(), r.len());
    let at = |i: usize, j: usize| i * (n + 1) + j;
    let mut abs = vec![0i32; (m + 1) * (n + 1)];
    for j in 1..=n {
        abs[at(0, j)] = abs[at(0, j - 1)] + i32::from(top[j - 1]) + gd;
    }
    for i in 1..=m {
        abs[at(i, 0)] = abs[at(i - 1, 0)] + i32::from(left[i - 1]) + gi;
        for j in 1..=n {
            abs[at(i, j)] = abs[at(i - 1, j)] + i32::from(blk.dv(i - 1, j - 1)) + gi;
        }
    }
    let (mut i, mut j) = (m, n);
    let mut cigar = Cigar::new();
    while i > 0 && j > 0 {
        let here = abs[at(i, j)];
        if here == abs[at(i - 1, j - 1)] + scheme.score(q[i - 1], r[j - 1]) {
            cigar.push(if q[i - 1] == r[j - 1] { Op::Match } else { Op::Mismatch });
            (i, j) = (i - 1, j - 1);
        } else if here == abs[at(i - 1, j)] + gi {
            cigar.push(Op::Insert);
            i -= 1;
        } else {
            assert_eq!(here, abs[at(i, j - 1)] + gd, "broken reference walk at ({i}, {j})");
            cigar.push(Op::Delete);
            j -= 1;
        }
    }
    cigar.push_run(Op::Insert, i as u32);
    cigar.push_run(Op::Delete, j as u32);
    cigar.reverse();
    cigar
}

/// Asserts that every stored tile input equals the neighbouring cells of
/// the block's reference interior, or on the block edges its own input
/// borders `top` and `left`, as they came in.
fn assert_store_matches(
    store: &TileBorderStore,
    whole: &DeltaBlock,
    (top, left): (&[u8], &[u8]),
    ctx: &str,
) {
    for ti in 0..store.tile_rows() {
        for tj in 0..store.tile_cols() {
            let (rs, cs) = store.tile_span(ti, tj);
            let dv: Vec<u8> = (rs.clone())
                .map(|i| if cs.start == 0 { left[i] } else { whole.dv(i, cs.start - 1) })
                .collect();
            let dh: Vec<u8> = (cs.clone())
                .map(|j| if rs.start == 0 { top[j] } else { whole.dh(rs.start - 1, j) })
                .collect();
            assert_eq!(store.input(ti, tj), (&dv[..], &dh[..]), "{ctx} tile ({ti}, {tj})");
        }
    }
}

#[test]
fn random_blocks_and_tracebacks_match_reference() {
    let mut rng = StdRng::seed_from_u64(0xB10C_4A11);
    for (ew, scheme, card) in setups() {
        let engine = SmxEngine::new(ew, &scheme).unwrap();
        let (vl, theta) = (ew.vl(), scheme.theta() as u8);
        let mut faults_injected = 0;
        for case in 0..40u64 {
            let (m, n) = (rng.gen_range(1..=3 * vl + 3), rng.gen_range(1..=3 * vl + 3));
            let q = codes(&mut rng, m, card);
            let r = codes(&mut rng, n, card);
            let ctx = format!("{ew} {scheme:?} case {case} ({m}×{n})");

            // Fresh block, both modes, plus the stored borders and the
            // traceback CIGAR; then the same block under a fault session
            // must reproduce the clean run's borders, store and CIGAR.
            let (top, left) = DeltaBlock::fresh_borders(m, n);
            let whole = DeltaBlock::compute(ew, &q, &r, &scheme, &top, &left).unwrap();
            for mode in [BlockMode::ScoreOnly, BlockMode::Traceback] {
                let out = compute_block(&engine, &q, &r, None, mode, None, None).unwrap();
                assert_eq!(out.right_dv, whole.right_dv(), "{ctx} {mode:?}");
                assert_eq!(out.bottom_dh, whole.bottom_dh(), "{ctx} {mode:?}");
                assert_eq!(out.score, whole.absolute_at(0, &scheme, &left, m - 1, n - 1), "{ctx}");
                let cigar = out.borders.as_ref().map(|store| {
                    assert_store_matches(store, &whole, (&top, &left), &ctx);
                    let (cigar, _) = traceback_block(&engine, &q, &r, store, None, None).unwrap();
                    assert_eq!(cigar, reference_cigar(&whole, &q, &r, &scheme), "{ctx}");
                    cigar
                });

                let plan = FaultPlan::new(case, 0.3);
                let mut session = FaultSession::new(plan, RecoveryPolicy::default());
                let faulty =
                    compute_block(&engine, &q, &r, None, mode, Some(&mut session), None).unwrap();
                assert_eq!(faulty.right_dv, out.right_dv, "{ctx} {mode:?} faulted");
                assert_eq!(faulty.bottom_dh, out.bottom_dh, "{ctx} {mode:?} faulted");
                assert_eq!(faulty.borders, out.borders, "{ctx} {mode:?} faulted");
                if let Some(store) = faulty.borders.as_ref() {
                    let (faulty_cigar, _) =
                        traceback_block(&engine, &q, &r, store, Some(&mut session), None).unwrap();
                    assert_eq!(Some(faulty_cigar), cigar, "{ctx} faulted");
                }
                let stats = session.stats();
                assert!(stats.invariants_hold(), "{ctx} {mode:?}: {stats:?}");
                faults_injected += stats.faults_injected;
            }

            // A block inside a larger matrix: random in-range borders.
            let top = border(&mut rng, n, ew, theta);
            let left = border(&mut rng, m, ew, theta);
            let whole = DeltaBlock::compute(ew, &q, &r, &scheme, &top, &left).unwrap();
            let bb = BlockBorders::from_neighbors(top, left);
            let out = compute_block(&engine, &q, &r, Some(&bb), BlockMode::ScoreOnly, None, None)
                .unwrap();
            assert_eq!(out.right_dv, whole.right_dv(), "{ctx} bordered");
            assert_eq!(out.bottom_dh, whole.bottom_dh(), "{ctx} bordered");
        }
        assert!(faults_injected > 0, "{ew} {scheme:?}: the fault sessions never fired");
    }
}

/// A left border drawn in 16-row runs, each in `[0, θ]` or, one run in
/// four, anywhere in `[0, 2^EW)`: so some edit-word strips of a block
/// take the word path and others fall back to lanes.
fn left_border(rng: &mut StdRng, len: usize, ew: ElementWidth, theta: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let run = border(rng, 16.min(len - out.len()), ew, theta);
        out.extend(run);
    }
    out
}

/// Every instantiation computes whole-strip blocks and their border
/// planes byte for byte as the reference does, and walks them to the
/// reference CIGAR with the default kernel's `RecomputeStats`. The first
/// shapes are fixed so that every setup has strips of several tile rows
/// (W8 and W6 on AVX2, a W6 tile row split by its lag) with ragged last
/// tile rows and columns.
#[test]
fn whole_strip_blocks_match_reference_on_every_lane_kernel() {
    let mut rng = StdRng::seed_from_u64(0x5751_B10C);
    let kernels = supported();
    for (ew, scheme, card) in setups() {
        let engine = SmxEngine::new(ew, &scheme).unwrap();
        let theta = scheme.theta() as u8;
        let (gi, gd) = (scheme.gap_insert(), scheme.gap_delete());
        for case in 0..12u64 {
            let (m, n) = match case {
                0 => (125, 211),
                1 => (69, 45),
                _ => (rng.gen_range(1..=150), rng.gen_range(1..=300)),
            };
            let q = codes(&mut rng, m, card);
            let r = codes(&mut rng, n, card);
            let (top, left) = match case % 3 {
                0 => DeltaBlock::fresh_borders(m, n),
                _ => (border(&mut rng, n, ew, theta), left_border(&mut rng, m, ew, theta)),
            };
            let whole = DeltaBlock::compute(ew, &q, &r, &scheme, &top, &left).unwrap();
            let right_dv = whole.right_dv();
            let score = top.iter().map(|&d| i32::from(d) + gd).sum::<i32>()
                + right_dv.iter().map(|&d| i32::from(d) + gi).sum::<i32>();
            let bb = BlockBorders::from_neighbors(top.clone(), left.clone());
            // The walk is defined where the borders are true DP deltas.
            let walkable = top.iter().chain(&left).all(|&x| x <= theta);
            let cigar = reference_cigar_within(&whole, &q, &r, &scheme, (&top, &left));
            let default_stats = walkable.then(|| {
                let out =
                    compute_block(&engine, &q, &r, Some(&bb), BlockMode::Traceback, None, None);
                let store = out.unwrap().borders.unwrap();
                traceback_block(&engine, &q, &r, &store, None, None).unwrap().1
            });
            for &kernel in &kernels {
                for mode in [BlockMode::ScoreOnly, BlockMode::Traceback] {
                    let ctx = format!("{kernel:?} {ew} {scheme:?} case {case} ({m}×{n}) {mode:?}");
                    let out = pinned(kernel, || {
                        compute_block(&engine, &q, &r, Some(&bb), mode, None, None).unwrap()
                    });
                    assert_eq!(out.score, score, "{ctx}");
                    assert_eq!(out.right_dv, right_dv, "{ctx}");
                    assert_eq!(out.bottom_dh, whole.bottom_dh(), "{ctx}");
                    assert_eq!(out.borders.is_some(), mode == BlockMode::Traceback, "{ctx}");
                    if let Some(store) = out.borders.as_ref() {
                        assert_store_matches(store, &whole, (&top, &left), &ctx);
                        if let Some(stats) = default_stats {
                            let (walked, walk_stats) = pinned(kernel, || {
                                traceback_block(&engine, &q, &r, store, None, None).unwrap()
                            });
                            assert_eq!(walked, cigar, "{ctx} CIGAR");
                            assert_eq!(walk_stats, stats, "{ctx} RecomputeStats");
                        }
                    }
                }
            }
        }
    }
}

/// A protein block on every instantiation: the query uses all 26 codes,
/// so every row of the reference profile is built and transposed, and
/// the width is no multiple of the `S′` chunk or of any lane count, so
/// the profile's lookup tail and the last chunk's partial transpose both
/// run. Scores, borders, border planes and the CIGAR equal the
/// reference's.
#[test]
fn protein_blocks_with_every_code_match_reference_on_every_lane_kernel() {
    let mut rng = StdRng::seed_from_u64(0x26_C0DE5);
    let config = AlignmentConfig::Protein;
    let (ew, scheme) = (config.element_width(), config.scoring());
    let engine = SmxEngine::new(ew, &scheme).unwrap();
    for (m, n) in [(97, 333), (26, 45), (130, 1001)] {
        let mut q: Vec<u8> = (0..m).map(|i| (i % 26) as u8).collect();
        for i in (1..m).rev() {
            q.swap(i, rng.gen_range(0..=i));
        }
        let r = codes(&mut rng, n, 26);
        let (top, left) = DeltaBlock::fresh_borders(m, n);
        let whole = DeltaBlock::compute(ew, &q, &r, &scheme, &top, &left).unwrap();
        let cigar = reference_cigar(&whole, &q, &r, &scheme);
        for kernel in supported() {
            for mode in [BlockMode::ScoreOnly, BlockMode::Traceback] {
                let ctx = format!("{kernel:?} protein {m}×{n} {mode:?}");
                let out = pinned(kernel, || {
                    compute_block(&engine, &q, &r, None, mode, None, None).unwrap()
                });
                assert_eq!(out.score, whole.absolute_at(0, &scheme, &left, m - 1, n - 1), "{ctx}");
                assert_eq!(out.right_dv, whole.right_dv(), "{ctx}");
                assert_eq!(out.bottom_dh, whole.bottom_dh(), "{ctx}");
                if let Some(store) = out.borders.as_ref() {
                    assert_store_matches(store, &whole, (&top, &left), &ctx);
                    let (walked, _) = pinned(kernel, || {
                        traceback_block(&engine, &q, &r, store, None, None).unwrap()
                    });
                    assert_eq!(walked, cigar, "{ctx} CIGAR");
                }
            }
        }
    }
}

/// The borders of a block in [`edit_blocks_walk_their_words_on_every_lane_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EditBorders {
    /// An origin-anchored block.
    Fresh,
    /// Random borders in `[0, θ]`.
    InTheta,
    /// In-θ borders, except one left-border value of `θ + 1` that sends
    /// one 64-row strip to lanes.
    OneStripOnLanes,
}

/// A DnaEdit block keeps its Myers words in traceback mode, and its
/// traceback walks them: on every instantiation, for shapes on both
/// sides of the 64-row strip and 32-column tile edges, with fresh or
/// random in-θ borders, the border planes and the CIGAR equal the
/// reference's and no tile is recomputed, in the same steps as the
/// recompute walk. A block with one strip on lanes keeps no words and
/// traces back with `traceback_block`'s stats, and so does a block one
/// column over `KEPT_CELL_BUDGET`, while one exactly at it walks its
/// words. Under a fault session the block keeps no words either.
#[test]
fn edit_blocks_walk_their_words_on_every_lane_kernel() {
    let mut rng = StdRng::seed_from_u64(0x3D17_3A1C);
    let config = AlignmentConfig::DnaEdit;
    let (ew, scheme) = (config.element_width(), config.scoring());
    let engine = SmxEngine::new(ew, &scheme).unwrap();
    let theta = scheme.theta() as u8;
    // A strip's words take 32 bytes per column.
    let budget_cols = KEPT_CELL_BUDGET / 32;
    let mut shapes = Vec::new();
    for m in [1, 63, 64, 65, 128, 129, 150, 192] {
        for n in [1, 31, 32, 33, 150, 300] {
            for borders in [EditBorders::Fresh, EditBorders::InTheta, EditBorders::OneStripOnLanes]
            {
                shapes.push((m, n, borders));
            }
        }
    }
    shapes.push((64, budget_cols, EditBorders::Fresh));
    shapes.push((64, budget_cols + 1, EditBorders::Fresh));
    let (mut walked, mut recomputed) = (0, 0);
    for (case, &(m, n, borders)) in shapes.iter().enumerate() {
        let q = codes(&mut rng, m, 4);
        let r: Vec<u8> = q
            .iter()
            .cycle()
            .take(n)
            .map(|&c| if rng.gen_range(0..6) == 0 { 3 - c } else { c })
            .collect();
        let (top, left) = match borders {
            EditBorders::Fresh => DeltaBlock::fresh_borders(m, n),
            _ => {
                let top = (0..n).map(|_| rng.gen_range(0..=theta)).collect();
                let mut left: Vec<u8> = (0..m).map(|_| rng.gen_range(0..=theta)).collect();
                if borders == EditBorders::OneStripOnLanes {
                    left[rng.gen_range(0..m)] = theta + 1;
                }
                (top, left)
            }
        };
        let whole = DeltaBlock::compute(ew, &q, &r, &scheme, &top, &left).unwrap();
        let cigar = reference_cigar_within(&whole, &q, &r, &scheme, (&top, &left));
        let bb = BlockBorders::from_neighbors(top.clone(), left.clone());
        let words = borders != EditBorders::OneStripOnLanes && m.div_ceil(64) * n <= budget_cols;
        if words {
            walked += 1;
        } else {
            recomputed += 1;
        }
        for kernel in supported() {
            let ctx = format!("{kernel:?} case {case} ({m}×{n}) {borders:?}");
            let (out, (path, stats), recompute) = pinned(kernel, || {
                let out =
                    compute_block(&engine, &q, &r, Some(&bb), BlockMode::Traceback, None, None)
                        .unwrap();
                let walk = traceback_output(&engine, &q, &r, &out, None, None).unwrap();
                let store = out.borders.as_ref().unwrap();
                let recompute = traceback_block(&engine, &q, &r, store, None, None).unwrap();
                (out, walk, recompute)
            });
            assert_store_matches(out.borders.as_ref().unwrap(), &whole, (&top, &left), &ctx);
            assert_eq!(path, cigar, "{ctx} CIGAR");
            assert_eq!(recompute.0, cigar, "{ctx} recomputed CIGAR");
            let want = match words {
                true => RecomputeStats { tiles: 0, elements: 0, steps: recompute.1.steps },
                false => recompute.1,
            };
            assert_eq!(stats, want, "{ctx} RecomputeStats");
            assert!(words || stats.tiles > 0, "{ctx}: the recompute path recomputes");
        }
        if borders == EditBorders::Fresh && n <= 300 {
            // A fault session's block keeps no words: its traceback
            // recomputes through the session, as the clean store does.
            let mut session =
                FaultSession::new(FaultPlan::new(case as u64, 0.3), RecoveryPolicy::default());
            let out = compute_block(
                &engine,
                &q,
                &r,
                None,
                BlockMode::Traceback,
                Some(&mut session),
                None,
            )
            .unwrap();
            let (path, stats) =
                traceback_output(&engine, &q, &r, &out, Some(&mut session), None).unwrap();
            let store = out.borders.as_ref().unwrap();
            let clean = traceback_block(&engine, &q, &r, store, None, None).unwrap();
            assert_eq!((path, stats), clean, "case {case} ({m}×{n}) under faults");
            assert!(session.stats().invariants_hold(), "case {case}: {:?}", session.stats());
        }
    }
    assert_eq!((walked, recomputed), (97, 49), "word-path and recompute cases");
}

/// A lane block (DnaGap, and protein with every code) keeps its Δ′ lanes
/// in traceback mode, and its traceback walks them: on every
/// instantiation, for shapes on both sides of the strip and tile edges
/// (DnaGap: 16-row tiles in 16- or 32-row strips; protein: 10-row tiles
/// in 10- or 30-row strips), with fresh or random in-θ borders, the CIGAR
/// equals the reference's and no tile is recomputed, in the same steps as
/// the recompute walk, which reads its tile borders from the lanes; the
/// planes derived from the lanes afterwards equal the reference's. A
/// block exactly at `KEPT_CELL_BUDGET` (two bytes a cell) walks its lanes,
/// one a column over it recomputes. Under a fault session the block keeps
/// no lanes: its border store equals the clean one, and its traceback
/// recomputes through the session.
#[test]
fn small_lane_blocks_walk_their_lanes_on_every_lane_kernel() {
    let mut rng = StdRng::seed_from_u64(0x1A4E_5EED);
    // Two kept bytes a cell: a 512 × 512 block is exactly at the budget.
    let side = 512;
    assert_eq!(2 * side * side, KEPT_CELL_BUDGET);
    let dna = [1, 15, 16, 17, 31, 32, 33, 70];
    let protein = [1, 9, 10, 11, 29, 30, 31, 61];
    let mut cases = Vec::new();
    for (config, sides) in [(AlignmentConfig::DnaGap, dna), (AlignmentConfig::Protein, protein)] {
        for m in sides {
            for n in sides.iter().map(|&s| s + 3 * (s % 2)) {
                for fresh in [true, false] {
                    cases.push((config, m, n, fresh));
                }
            }
        }
    }
    cases.push((AlignmentConfig::DnaGap, side, side, true));
    cases.push((AlignmentConfig::DnaGap, side, side + 1, true));
    let (mut walked, mut recomputed) = (0, 0);
    for (case, &(config, m, n, fresh)) in cases.iter().enumerate() {
        let (ew, scheme) = (config.element_width(), config.scoring());
        let engine = SmxEngine::new(ew, &scheme).unwrap();
        let card = config.alphabet().cardinality() as u8;
        // The query takes every code of the alphabet once it is long
        // enough, in a shuffled order.
        let mut q: Vec<u8> = (0..m).map(|i| (i % usize::from(card)) as u8).collect();
        for i in (1..m).rev() {
            q.swap(i, rng.gen_range(0..=i));
        }
        let r: Vec<u8> = q
            .iter()
            .cycle()
            .take(n)
            .map(|&c| if rng.gen_range(0..5) == 0 { rng.gen_range(0..card) } else { c })
            .collect();
        let theta = scheme.theta() as u8;
        let (top, left) = match fresh {
            true => DeltaBlock::fresh_borders(m, n),
            false => (
                (0..n).map(|_| rng.gen_range(0..=theta)).collect(),
                (0..m).map(|_| rng.gen_range(0..=theta)).collect(),
            ),
        };
        let whole = DeltaBlock::compute(ew, &q, &r, &scheme, &top, &left).unwrap();
        let cigar = reference_cigar_within(&whole, &q, &r, &scheme, (&top, &left));
        let bb = BlockBorders::from_neighbors(top.clone(), left.clone());
        let lanes = 2 * m * n <= KEPT_CELL_BUDGET;
        if lanes {
            walked += 1;
        } else {
            recomputed += 1;
        }
        for kernel in supported() {
            let ctx = format!("{kernel:?} {config} case {case} ({m}×{n}) fresh {fresh}");
            let (out, (path, stats), recompute) = pinned(kernel, || {
                let out =
                    compute_block(&engine, &q, &r, Some(&bb), BlockMode::Traceback, None, None)
                        .unwrap();
                let walk = traceback_output(&engine, &q, &r, &out, None, None).unwrap();
                let store = out.borders.as_ref().unwrap();
                let recompute = traceback_block(&engine, &q, &r, store, None, None).unwrap();
                (out, walk, recompute)
            });
            assert_eq!(out.right_dv, whole.right_dv(), "{ctx}");
            assert_eq!(out.bottom_dh, whole.bottom_dh(), "{ctx}");
            assert_eq!(path, cigar, "{ctx} CIGAR");
            assert_eq!(recompute.0, cigar, "{ctx} recomputed CIGAR");
            let want = match lanes {
                true => RecomputeStats { tiles: 0, elements: 0, steps: recompute.1.steps },
                false => recompute.1,
            };
            assert_eq!(stats, want, "{ctx} RecomputeStats");
            assert!(lanes || stats.tiles > 0, "{ctx}: the recompute path recomputes");
            assert_store_matches(out.borders.as_ref().unwrap(), &whole, (&top, &left), &ctx);
        }
        if fresh && n < side {
            // A fault session's block keeps no lanes: its planes equal
            // those the clean block's lanes give, and its traceback
            // recomputes through the session, as the clean store does.
            let mut session =
                FaultSession::new(FaultPlan::new(case as u64, 0.3), RecoveryPolicy::default());
            let clean = compute_block(&engine, &q, &r, None, BlockMode::Traceback, None, None)
                .unwrap()
                .borders;
            let out = compute_block(
                &engine,
                &q,
                &r,
                None,
                BlockMode::Traceback,
                Some(&mut session),
                None,
            )
            .unwrap();
            assert_eq!(out.borders, clean, "case {case} ({m}×{n}) store under faults");
            let (path, stats) =
                traceback_output(&engine, &q, &r, &out, Some(&mut session), None).unwrap();
            let store = out.borders.as_ref().unwrap();
            let recompute = traceback_block(&engine, &q, &r, store, None, None).unwrap();
            assert_eq!((path, stats), recompute, "case {case} ({m}×{n}) under faults");
            assert!(stats.tiles > 0, "case {case}: the session's traceback recomputes");
            assert!(session.stats().invariants_hold(), "case {case}: {:?}", session.stats());
        }
    }
    assert_eq!((walked, recomputed), (257, 1), "lane-walk and recompute cases");
}
