//! Heavier cross-crate property tests and simulator invariants: the
//! checks that tie the functional stack, the timing stack, and the
//! physical model together under randomized inputs.

use proptest::prelude::*;
use smx::align::{dp, AlignmentConfig, ElementWidth, Sequence};
use smx::coproc::block::BlockMode;
use smx::coproc::SmxCoprocessor;
use smx::prelude::*;
use smx::sim::coproc::{BlockShape, CoprocSim, CoprocTimingConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The heterogeneous device's alignment equals the golden model for
    /// random sequences in every configuration, and its CIGAR verifies.
    #[test]
    fn device_matches_golden_on_random_inputs(
        seed in 0u64..1000,
        m in 1usize..120,
        n in 1usize..120,
        cfg_idx in 0usize..4,
    ) {
        let config = AlignmentConfig::ALL[cfg_idx];
        let card = config.alphabet().cardinality() as u64;
        let gen = |mut x: u64, len: usize| -> Vec<u8> {
            (0..len).map(|_| { x ^= x << 13; x ^= x >> 7; x ^= x << 17; (x % card) as u8 }).collect()
        };
        let q = Sequence::from_codes(config.alphabet(), gen(seed | 1, m)).unwrap();
        let r = Sequence::from_codes(config.alphabet(), gen((seed * 31 + 7) | 1, n)).unwrap();
        let mut dev = SmxDevice::new(config, 2).unwrap();
        let aln = dev.align(&q, &r).unwrap();
        let golden = dp::score_only(q.codes(), r.codes(), &config.scoring());
        prop_assert_eq!(aln.score, golden);
        aln.verify(q.codes(), r.codes(), &config.scoring()).unwrap();
    }

    /// Exact algorithms agree with each other on every random pair.
    #[test]
    fn exact_algorithms_agree(
        seed in 0u64..1000,
        m in 1usize..150,
        n in 1usize..150,
    ) {
        let gen = |mut x: u64, len: usize| -> Vec<u8> {
            (0..len).map(|_| { x ^= x << 13; x ^= x >> 7; x ^= x << 17; (x % 4) as u8 }).collect()
        };
        let config = AlignmentConfig::DnaGap;
        let q = Sequence::from_codes(config.alphabet(), gen(seed | 1, m)).unwrap();
        let r = Sequence::from_codes(config.alphabet(), gen((seed * 131 + 3) | 1, n)).unwrap();
        let pair = SeqPair { query: q, reference: r };
        let mut aligner = SmxAligner::new(config);
        let full = aligner
            .algorithm(Algorithm::Full)
            .run_batch(std::slice::from_ref(&pair))
            .unwrap();
        let hirsch = aligner
            .algorithm(Algorithm::Hirschberg)
            .run_batch(std::slice::from_ref(&pair))
            .unwrap();
        let wide_band = aligner
            .algorithm(Algorithm::Banded { band: m.max(n) })
            .run_batch(std::slice::from_ref(&pair))
            .unwrap();
        prop_assert_eq!(full.outcomes[0].score, hirsch.outcomes[0].score);
        prop_assert_eq!(full.outcomes[0].score, wide_band.outcomes[0].score);
    }

    /// Coprocessor-simulator invariants hold for arbitrary geometries:
    /// the engine is never oversubscribed, every tile is issued, and the
    /// port carries exactly the ledger's line count.
    #[test]
    fn coproc_sim_invariants(
        m in 1usize..4000,
        n in 1usize..4000,
        workers in 1usize..8,
        blocks in 1usize..6,
        ew_idx in 0usize..4,
    ) {
        let ew = ElementWidth::ALL[ew_idx];
        let shape = BlockShape::from_dims(m, n, ew, false);
        let sim = CoprocSim::new(CoprocTimingConfig::for_ew(ew, workers));
        let r = sim.simulate_uniform(shape, blocks);
        prop_assert_eq!(r.tiles, shape.tiles() * blocks as u64);
        prop_assert!(r.utilization <= 1.0 + 1e-9);
        prop_assert!(r.cycles >= r.tiles, "engine accepts one tile/cycle");
        // Port ledger: per supertile, 4 fetch + 2 store lines.
        let st = (shape.tile_rows.div_ceil(shape.st_side)
            * shape.tile_cols.div_ceil(shape.st_side)) as u64;
        prop_assert_eq!(r.port_grants, st * 6 * blocks as u64);
    }

    /// Headline robustness invariant: at any injected fault rate the
    /// recovered alignment is byte-identical (score *and* CIGAR) to the
    /// fault-free run, and the recovery counters stay consistent
    /// (fallbacks <= retries <= faults injected, every fault detected).
    #[test]
    fn recovery_is_byte_identical_under_random_faults(
        seed in 0u64..10_000,
        m in 1usize..140,
        n in 1usize..140,
        cfg_idx in 0usize..4,
        rate in 0.0f64..0.6,
    ) {
        let config = AlignmentConfig::ALL[cfg_idx];
        let card = config.alphabet().cardinality() as u64;
        let gen = |mut x: u64, len: usize| -> Vec<u8> {
            (0..len).map(|_| { x ^= x << 13; x ^= x >> 7; x ^= x << 17; (x % card) as u8 }).collect()
        };
        let q = Sequence::from_codes(config.alphabet(), gen(seed | 1, m)).unwrap();
        let r = Sequence::from_codes(config.alphabet(), gen((seed * 31 + 7) | 1, n)).unwrap();

        let mut clean = SmxDevice::new(config, 2).unwrap();
        let reference = clean.align(&q, &r).unwrap();

        let mut faulty = SmxDevice::new(config, 2).unwrap();
        faulty.enable_fault_injection(FaultPlan::new(seed, rate), RecoveryPolicy::default());
        let recovered = faulty.align(&q, &r).unwrap();

        prop_assert_eq!(recovered.score, reference.score);
        prop_assert_eq!(recovered.cigar.to_string(), reference.cigar.to_string());
        let s = faulty.recovery_stats();
        prop_assert!(s.invariants_hold(), "counter invariants violated: {:?}", s);
        prop_assert_eq!(s.faults_detected, s.faults_injected);
        prop_assert!(s.fallbacks <= s.retries || s.retries == 0);
        prop_assert!(s.fallbacks + s.retries == 0 || s.faults_injected > 0);
    }

    /// With retries and tile fallback disabled, the executor's graceful
    /// degradation to the software golden model still reproduces the
    /// fault-free output byte for byte.
    #[test]
    fn strict_policy_degrades_byte_identically(
        seed in 0u64..10_000,
        m in 1usize..100,
        n in 1usize..100,
        rate in 0.05f64..1.0,
    ) {
        let config = AlignmentConfig::DnaGap;
        let gen = |mut x: u64, len: usize| -> Vec<u8> {
            (0..len).map(|_| { x ^= x << 13; x ^= x >> 7; x ^= x << 17; (x % 4) as u8 }).collect()
        };
        let q = Sequence::from_codes(config.alphabet(), gen(seed | 1, m)).unwrap();
        let r = Sequence::from_codes(config.alphabet(), gen((seed * 131 + 3) | 1, n)).unwrap();

        let mut clean = SmxDevice::new(config, 2).unwrap();
        let reference = clean.align(&q, &r).unwrap();

        let mut faulty = SmxDevice::new(config, 2).unwrap();
        faulty.enable_fault_injection(FaultPlan::new(seed, rate), RecoveryPolicy::strict());
        let exec = BatchExecutor::new(faulty, ExecutorConfig::default()).unwrap();
        let report = exec.run(&[(q, r)]);
        let recovered = report.alignment(0).expect("a degraded pair still aligns");

        prop_assert_eq!(recovered.score, reference.score);
        prop_assert_eq!(recovered.cigar.to_string(), reference.cigar.to_string());
        let s = &report.stats;
        prop_assert!(s.software_alignments <= 1);
        prop_assert!(s.recovery.faults_injected == 0 || s.software_alignments == 1,
            "a strict-policy fault must degrade to software: {:?}", s);
    }

    /// Timing monotonicity: more work never takes fewer cycles, on any
    /// engine.
    #[test]
    fn timing_monotone_in_cells(
        base in 64usize..1200,
        factor in 2usize..4,
        engine_idx in 0usize..4,
    ) {
        use smx::algos::timing::{estimate, BatchWork, EngineKind};
        use smx::algos::AlgoOutcome;
        let engines = [EngineKind::Simd, EngineKind::Smx1d, EngineKind::Smx2d, EngineKind::Smx];
        let engine = engines[engine_idx];
        let mk = |len: usize| {
            let mut o = AlgoOutcome::new();
            o.cells_computed = (len * len) as u64;
            o.blocks.push((len, len));
            o.pack_chars = 2 * len as u64;
            BatchWork::from_outcomes(AlignmentConfig::DnaEdit, true, &[o])
        };
        let small = estimate(engine, &mk(base), 4).cycles;
        let large = estimate(engine, &mk(base * factor), 4).cycles;
        prop_assert!(large >= small, "{engine}: {large} < {small}");
    }
}

#[test]
fn border_store_memory_matches_ledger() {
    // The functional border store and the timing ledger must agree on
    // the traceback-memory bytes for the same block.
    for config in AlignmentConfig::ALL {
        let ew = config.element_width();
        let coproc = SmxCoprocessor::new(ew, &config.scoring(), 1).unwrap();
        let card = config.alphabet().cardinality() as u32;
        let q: Vec<u8> = (0..600u32).map(|i| (i.wrapping_mul(7) % card) as u8).collect();
        let out = coproc.compute_block(&q, &q, None, BlockMode::Traceback).unwrap();
        let store = out.borders.as_ref().unwrap();
        // Count stored border elements (inputs per tile).
        let mut elements = 0usize;
        for ti in 0..store.tile_rows() {
            for tj in 0..store.tile_cols() {
                let (dv, dh) = store.input(ti, tj);
                elements += dv.len() + dh.len();
            }
        }
        let ledger_bits = out.stats.border_bytes_stored * 8;
        let actual_bits = (elements * ew.bits() as usize) as u64;
        // The ledger rounds tiles to whole bytes; allow that slack.
        assert!(
            ledger_bits >= actual_bits && ledger_bits <= actual_bits + out.stats.tiles * 8,
            "{config}: ledger {ledger_bits} vs actual {actual_bits}"
        );
    }
}

#[test]
fn degenerate_block_shapes_work() {
    // 1xN and Nx1 blocks exercise the partial-tile edges everywhere.
    for config in AlignmentConfig::ALL {
        let scheme = config.scoring();
        let coproc = SmxCoprocessor::new(config.element_width(), &scheme, 2).unwrap();
        let card = config.alphabet().cardinality() as u32;
        let long: Vec<u8> = (0..150u32).map(|i| (i.wrapping_mul(11) % card) as u8).collect();
        let one = vec![long[0]];
        for (q, r) in [(&one, &long), (&long, &one)] {
            let out = coproc.compute_block(q, r, None, BlockMode::Traceback).unwrap();
            assert_eq!(out.score, dp::score_only(q, r, &scheme), "{config}");
            let (cigar, _) = coproc.traceback(q, r, &out).unwrap();
            assert_eq!(cigar.score(q, r, &scheme).unwrap(), out.score, "{config}");
        }
    }
}

#[test]
fn simd_alignment_mode_degrades_with_cache_spill() {
    // The Fig. 9 cache story: a 10K-class full-alignment working set
    // spills past the LLC and slows the SIMD baseline per cell.
    use smx::algos::timing::{estimate, BatchWork, EngineKind};
    use smx::algos::AlgoOutcome;
    let mk = |len: usize, score_only: bool| {
        let mut o = AlgoOutcome::new();
        o.cells_computed = (len * len) as u64;
        o.blocks.push((len, len));
        o.traceback_steps = if score_only { 0 } else { 2 * len as u64 };
        o.pack_chars = 2 * len as u64;
        BatchWork::from_outcomes(AlignmentConfig::DnaEdit, score_only, &[o])
    };
    let per_cell = |len: usize, score_only: bool| {
        estimate(EngineKind::Simd, &mk(len, score_only), 4).cycles / (len * len) as f64
    };
    let small_aln = per_cell(1000, false);
    let big_aln = per_cell(10_000, false);
    assert!(big_aln > 1.1 * small_aln, "alignment: {big_aln} vs {small_aln}");
    let small_score = per_cell(1000, true);
    let big_score = per_cell(10_000, true);
    assert!(big_score < 1.1 * small_score, "score stays cached: {big_score} vs {small_score}");
}
