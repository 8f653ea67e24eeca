//! The heterogeneous orchestration of paper §6 (Fig. 8a), functionally:
//! the core packs sequences with `smx.pack`, offloads the DP-block to the
//! SMX-2D coprocessor, and reconstructs the alignment by tracing back.
//! The coprocessor keeps tile borders, and the traceback recomputes the
//! tiles its path crosses — the role SMX-1D plays on the core — except
//! on a small block, which keeps its cells (an edit block's Myers words
//! or a lane block's Δ′ lanes, within
//! `smx_coproc::block::KEPT_CELL_BUDGET`) and is walked with no
//! recomputation.

use smx_align_core::{
    dp, AlignError, Alignment, AlignmentConfig, Alphabet, Cigar, Op, ScoringScheme, Sequence,
};
use smx_coproc::block::{self, BlockMode};
use smx_coproc::control::CancelToken;
use smx_coproc::faults::{FaultEvent, FaultPlan, FaultSession, RecoveryPolicy, RecoveryStats};
use smx_coproc::traceback::{self, RecomputeStats};
use smx_coproc::SmxCoprocessor;
use smx_isa::{kernels, InsnCounts, Smx1dUnit};

/// A functional SMX device: one SMX-1D-extended core plus one SMX-2D
/// coprocessor, sharing a configuration. It only computes on the device:
/// a fault its tile-level recovery cannot absorb escalates to the caller,
/// and whether the pair is then recomputed in software
/// ([`align_in_software`]) is the executor's decision.
#[derive(Debug, Clone)]
pub struct SmxDevice {
    config: AlignmentConfig,
    scheme: ScoringScheme,
    unit: Smx1dUnit,
    coproc: SmxCoprocessor,
    recompute: RecomputeStats,
    faults: Option<FaultSession>,
}

impl SmxDevice {
    /// Creates a device for `config` with `workers` SMX-workers.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the ISA unit and coprocessor.
    pub fn new(config: AlignmentConfig, workers: usize) -> Result<SmxDevice, AlignError> {
        let scheme = config.scoring();
        let ew = config.element_width();
        Ok(SmxDevice {
            config,
            scheme: scheme.clone(),
            unit: Smx1dUnit::configure(ew, &scheme)?,
            coproc: SmxCoprocessor::new(ew, &scheme, workers)?,
            recompute: RecomputeStats::default(),
            faults: None,
        })
    }

    /// Enables deterministic fault injection on the coprocessor paths,
    /// recovered under `policy` (tile retry, then tile fallback or
    /// escalation). Replaces any previous session and resets its
    /// statistics.
    pub fn enable_fault_injection(&mut self, plan: FaultPlan, policy: RecoveryPolicy) {
        self.faults = Some(FaultSession::new(plan, policy));
    }

    /// Disables fault injection, discarding the session and its state.
    pub fn disable_fault_injection(&mut self) {
        self.faults = None;
    }

    /// Installs (or clears) a cooperative cancellation / deadline token.
    /// The token is checked at every tile boundary of device block
    /// computations and tracebacks, and at the entry of each alignment
    /// stage, so a cancelled or expired pair aborts within one tile's
    /// worth of work.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.coproc.set_control(token);
    }

    /// The installed cancellation token, if any.
    #[must_use]
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.coproc.control()
    }

    /// Recovery counters accumulated since fault injection was enabled
    /// (all zero when it never was).
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.faults.as_ref().map(FaultSession::stats).unwrap_or_default()
    }

    /// The active fault plan, when injection is enabled. The device pool
    /// reads this off its template device to derive per-device plans.
    #[must_use]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.as_ref().map(FaultSession::plan)
    }

    /// The active recovery policy, when injection is enabled.
    #[must_use]
    pub fn fault_policy(&self) -> Option<RecoveryPolicy> {
        self.faults.as_ref().map(FaultSession::policy)
    }

    /// Drains the cycle-stamped fault event log.
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        self.faults.as_mut().map(FaultSession::take_events).unwrap_or_default()
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> AlignmentConfig {
        self.config
    }

    /// Dynamic SMX-1D instruction counts accumulated so far.
    #[must_use]
    pub fn insn_counts(&self) -> InsnCounts {
        self.unit.counts()
    }

    /// Tile-recomputation statistics accumulated by tracebacks.
    #[must_use]
    pub fn recompute_stats(&self) -> RecomputeStats {
        self.recompute
    }

    /// The entry checks of every device call: input validity, then the
    /// installed token.
    fn enter(&self, q: &Sequence, r: &Sequence) -> Result<(), AlignError> {
        check_pair(q, r, self.config.alphabet())?;
        self.coproc.control().map_or(Ok(()), CancelToken::check)
    }

    /// Streams a sequence's codes through `smx.pack` (eight characters
    /// per instruction) and cross-checks the packed codes against them.
    fn pack(&mut self, s: &Sequence) -> Result<(), AlignError> {
        kernels::pack_codes(&mut self.unit, s.alphabet(), s.codes())
    }

    /// Full heterogeneous alignment: pack → offload → traceback (over the
    /// block's kept cells, or with tile recomputation), routed
    /// through the fault session when one is active.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::AlphabetMismatch`] / [`AlignError::EmptySequence`]
    /// on invalid inputs, the installed token's cancellation or deadline,
    /// and a recoverable device fault
    /// ([`AlignError::is_recoverable_fault`]) when tile-level recovery is
    /// exhausted; other errors indicate a model bug.
    pub fn align(
        &mut self,
        query: &Sequence,
        reference: &Sequence,
    ) -> Result<Alignment, AlignError> {
        self.enter(query, reference)?;
        self.pack(query)?;
        self.pack(reference)?;
        let (q, r) = (query.codes(), reference.codes());
        let (engine, control) = (self.coproc.engine(), self.coproc.control());
        let mode = BlockMode::Traceback;
        let out = block::compute_block(engine, q, r, None, mode, self.faults.as_mut(), control)?;
        let (cigar, stats) =
            traceback::traceback_output(engine, q, r, &out, self.faults.as_mut(), control)?;
        self.recompute.tiles += stats.tiles;
        self.recompute.elements += stats.elements;
        self.recompute.steps += stats.steps;
        // Charge the recomputation to the SMX-1D unit, which performs it
        // on the core (2 instructions per recomputed column).
        let vl = self.config.element_width().vl() as u64;
        self.unit.charge(0, 0, stats.steps * 4);
        let cols = stats.elements / vl.max(1);
        self.unit.charge(cols / 4, 0, cols * 2);
        let mut alignment = Alignment { score: out.score, cigar };
        alignment.verify(q, r, &self.scheme)?;
        // The result readout is the one hop past every checksum and the
        // device's internal re-verification: a plan with a silent rate
        // corrupts the finished alignment here, and only the service
        // layer's audit can catch it.
        if let Some(s) = self.faults.as_mut() {
            s.corrupt_readout(&mut alignment);
        }
        Ok(alignment)
    }

    /// Score-only heterogeneous alignment: pack → offload → Δ-summation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmxDevice::align`].
    pub fn score(&mut self, query: &Sequence, reference: &Sequence) -> Result<i32, AlignError> {
        self.enter(query, reference)?;
        self.pack(query)?;
        self.pack(reference)?;
        let out = block::compute_block(
            self.coproc.engine(),
            query.codes(),
            reference.codes(),
            None,
            BlockMode::ScoreOnly,
            self.faults.as_mut(),
            self.coproc.control(),
        )?;
        Ok(out.score)
    }
}

/// The input checks every device shares: both sequences in the device's
/// alphabet, neither empty.
fn check_pair(q: &Sequence, r: &Sequence, alphabet: Alphabet) -> Result<(), AlignError> {
    if q.alphabet() != alphabet || r.alphabet() != alphabet {
        return Err(AlignError::AlphabetMismatch);
    }
    if q.is_empty() || r.is_empty() {
        return Err(AlignError::EmptySequence);
    }
    Ok(())
}

/// The core's software path (no pack, no offload): the one place a whole
/// pair is computed in software — the breaker route, the fallback after
/// an unrecoverable device fault, the hedge backup, the audit recompute,
/// the brownout plan, and the canary goldens. It shares the global
/// tie-break with the tiled device traceback, so its output is
/// byte-identical to a fault-free device run.
///
/// # Errors
///
/// [`AlignError::AlphabetMismatch`] / [`AlignError::EmptySequence`] on
/// invalid inputs; `token`'s cancellation or deadline, checked at entry
/// and every few DP rows, so a deadline caps software work exactly as
/// the coprocessor's tile boundaries cap device work.
pub fn align_in_software(
    (query, reference): (&Sequence, &Sequence),
    scheme: &ScoringScheme,
    alphabet: Alphabet,
    token: &CancelToken,
) -> Result<Alignment, AlignError> {
    check_pair(query, reference, alphabet)?;
    token.check()?;
    let (q, r) = (query.codes(), reference.codes());
    // Perfect-match fast path: for identical sequences under uniform
    // match scoring the all-diagonal path is optimal and is exactly what
    // the golden tie-break (diagonal ≻ up ≻ left) walks, so the O(m·n)
    // DP collapses to a memcmp plus a score fold. Matrix schemes skip
    // this (a substitution matrix need not be diagonally dominant).
    let alignment = if !scheme.uses_matrix() && q == r {
        let score = q.iter().fold(0i32, |acc, &c| acc.saturating_add(scheme.score(c, c)));
        let mut cigar = Cigar::new();
        cigar.push_run(Op::Match, q.len() as u32);
        Alignment { score, cigar }
    } else {
        dp::align_codes_checked(q, r, scheme, &mut || token.check())?
    };
    alignment.verify(q, r, scheme)?;
    Ok(alignment)
}

/// One pair's structured failure inside a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFailure {
    /// Index of the failing pair within the batch.
    pub index: usize,
    /// The structured error that poisoned it.
    pub error: AlignError,
}

/// The gap-affine heterogeneous device ("SMX-A"): the extension
/// counterpart of [`SmxDevice`], wiring the affine engine and its
/// tile-recompute traceback behind the same pack → offload → traceback
/// flow.
#[derive(Debug, Clone)]
pub struct AffineDevice {
    scheme: smx_align_core::dp_affine::AffineScheme,
    engine: smx_coproc::affine::AffineEngine,
    alphabet: smx_align_core::Alphabet,
}

impl AffineDevice {
    /// Creates an affine device for a DNA alphabet and scheme.
    ///
    /// # Errors
    ///
    /// Propagates datapath-width validation errors.
    pub fn new(
        alphabet: smx_align_core::Alphabet,
        scheme: smx_align_core::dp_affine::AffineScheme,
    ) -> Result<AffineDevice, AlignError> {
        let pen = smx_diffenc::affine::AffinePenalties::from_scheme(&scheme)?;
        let ew = match alphabet {
            smx_align_core::Alphabet::Dna2 => smx_align_core::ElementWidth::W4,
            smx_align_core::Alphabet::Dna4 => smx_align_core::ElementWidth::W4,
            smx_align_core::Alphabet::Protein => smx_align_core::ElementWidth::W6,
            smx_align_core::Alphabet::Ascii => smx_align_core::ElementWidth::W8,
        };
        Ok(AffineDevice {
            scheme,
            engine: smx_coproc::affine::AffineEngine::new(ew, pen)?,
            alphabet,
        })
    }

    /// Score-only affine alignment on the tiled engine.
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::AlphabetMismatch`] / [`AlignError::EmptySequence`]
    /// on invalid inputs.
    pub fn score(&self, query: &Sequence, reference: &Sequence) -> Result<i32, AlignError> {
        check_pair(query, reference, self.alphabet)?;
        self.engine.score_block(query.codes(), reference.codes())
    }

    /// Full affine alignment: border-stored block + layered traceback.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AffineDevice::score`].
    pub fn align(&self, query: &Sequence, reference: &Sequence) -> Result<Alignment, AlignError> {
        check_pair(query, reference, self.alphabet)?;
        let res = self.engine.compute_block_traceback(query.codes(), reference.codes())?;
        let cigar = self.engine.traceback(query.codes(), reference.codes(), &res)?;
        let rescored = smx_align_core::dp_affine::affine_rescore(
            &cigar,
            query.codes(),
            reference.codes(),
            &self.scheme,
        )?;
        if rescored != res.score {
            return Err(AlignError::Internal(format!(
                "affine cigar re-scores to {rescored}, block claims {}",
                res.score
            )));
        }
        Ok(Alignment { score: res.score, cigar })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::dp;

    fn seqs(config: AlignmentConfig, len: usize) -> (Sequence, Sequence) {
        let card = config.alphabet().cardinality() as u32;
        // ASCII codes below 32 are valid bytes; keep them printable for
        // the pack path by staying within the alphabet anyway.
        let take = |stride: u32, off: u32| -> Sequence {
            let codes: Vec<u8> = (0..len as u32)
                .map(|i| {
                    let c = (i * stride + off + (i >> 4)) % card;
                    if config == AlignmentConfig::Ascii {
                        (32 + c % 95) as u8
                    } else {
                        c as u8
                    }
                })
                .collect();
            Sequence::from_codes(config.alphabet(), codes).unwrap()
        };
        (take(7, 1), take(5, 0))
    }

    /// A pinned `len`-symbol pair of `config`: a seeded random query and
    /// a reference copied from it with substitutions and short indels.
    fn related(config: AlignmentConfig, len: usize) -> (Sequence, Sequence) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED ^ len as u64);
        let symbol = |rng: &mut StdRng| match config {
            AlignmentConfig::Ascii => rng.gen_range(32..127u8),
            _ => rng.gen_range(0..config.alphabet().cardinality() as u8),
        };
        let q: Vec<u8> = (0..len).map(|_| symbol(&mut rng)).collect();
        let mut r = Vec::with_capacity(len + len / 8);
        for &c in &q {
            match rng.gen_range(0..40u32) {
                0 => {}
                1 => r.extend([c, symbol(&mut rng)]),
                2..=5 => r.push(symbol(&mut rng)),
                _ => r.push(c),
            }
        }
        let seq = |codes| Sequence::from_codes(config.alphabet(), codes).unwrap();
        (seq(q), seq(r))
    }

    /// `(smx_pack, load_words, scalar_ops)` after one `align`, then after
    /// a `score` of the same pair; every other class stays zero. The
    /// numbers are those the text-packing ingress charged, so streaming
    /// the codes changed no count. Every block here keeps its cells: the
    /// DnaEdit and ASCII blocks (the edit scheme on W2 and W8) their Myers
    /// words, the DnaGap and protein blocks their Δ′ lanes. No walk
    /// recomputes a tile, so each `align` is charged for packing and walk
    /// steps only.
    #[test]
    fn insn_counts_match_the_pinned_numbers() {
        let pinned = [
            (AlignmentConfig::DnaEdit, 150, (38, 38, 696), (76, 76, 772)),
            (AlignmentConfig::DnaGap, 150, (38, 38, 696), (76, 76, 772)),
            (AlignmentConfig::Protein, 370, (94, 94, 1704), (188, 188, 1892)),
            (AlignmentConfig::Ascii, 150, (38, 38, 696), (76, 76, 772)),
        ];
        let classes = |c: InsnCounts| {
            assert_eq!(c.total(), c.smx_pack + c.load_words + c.scalar_ops);
            (c.smx_pack, c.load_words, c.scalar_ops)
        };
        for (config, len, after_align, after_score) in pinned {
            let (q, r) = related(config, len);
            let mut dev = SmxDevice::new(config, 2).unwrap();
            let aln = dev.align(&q, &r).unwrap();
            assert_eq!(aln, dp::align_codes(q.codes(), r.codes(), &config.scoring()), "{config}");
            assert_eq!(classes(dev.insn_counts()), after_align, "{config} align");
            assert_eq!(dev.score(&q, &r).unwrap(), aln.score, "{config}");
            assert_eq!(classes(dev.insn_counts()), after_score, "{config} score");
        }
    }

    #[test]
    fn heterogeneous_align_matches_golden() {
        for config in AlignmentConfig::ALL {
            let (q, r) = seqs(config, 90);
            let mut dev = SmxDevice::new(config, 4).unwrap();
            let aln = dev.align(&q, &r).unwrap();
            let golden = dp::align_codes(q.codes(), r.codes(), &config.scoring());
            assert_eq!(aln.score, golden.score, "{config}");
        }
    }

    #[test]
    fn score_matches_align() {
        let config = AlignmentConfig::DnaGap;
        let (q, r) = seqs(config, 70);
        let mut dev = SmxDevice::new(config, 2).unwrap();
        let s = dev.score(&q, &r).unwrap();
        let a = dev.align(&q, &r).unwrap();
        assert_eq!(s, a.score);
    }

    #[test]
    fn counts_accumulate_across_calls() {
        let config = AlignmentConfig::DnaEdit;
        let (q, r) = seqs(config, 64);
        let mut dev = SmxDevice::new(config, 1).unwrap();
        let _ = dev.align(&q, &r).unwrap();
        let c1 = dev.insn_counts().smx_pack;
        let _ = dev.align(&q, &r).unwrap();
        assert!(dev.insn_counts().smx_pack > c1);
        // Both alignments walk the block's kept Myers words: no tile is
        // recomputed, and each walk takes at least 64 steps.
        let stats = dev.recompute_stats();
        assert_eq!((stats.tiles, stats.elements), (0, 0));
        assert!(stats.steps >= 2 * 64, "{stats:?}");
    }

    /// Software fallback for `pair` under `config`, with a fresh token.
    fn software(
        config: AlignmentConfig,
        q: &Sequence,
        r: &Sequence,
    ) -> Result<Alignment, AlignError> {
        align_in_software((q, r), &config.scoring(), config.alphabet(), &CancelToken::new())
    }

    #[test]
    fn streaming_kernels_match_device_score_and_golden() {
        use smx_algos::simd::{score, Baseline, SimdWorkspace};
        for config in AlignmentConfig::ALL {
            let (q, r) = seqs(config, 90);
            let mut dev = SmxDevice::new(config, 2).unwrap();
            let scheme = config.scoring();
            let golden = dp::score_only(q.codes(), r.codes(), &scheme);
            assert_eq!(dev.score(&q, &r).unwrap(), golden, "{config} device");
            let mut ws = SimdWorkspace::new();
            for b in Baseline::ALL {
                let streamed = score(q.codes(), r.codes(), &scheme, b, &mut ws);
                assert_eq!(streamed, golden, "{config} {b}");
            }
        }
    }

    #[test]
    fn perfect_match_fast_path_is_byte_identical() {
        // Identical sequences hit the memcmp fast path on uniform schemes
        // and the full DP on matrix schemes; both must reproduce the
        // golden model byte-for-byte.
        for config in AlignmentConfig::ALL {
            let (q, _) = seqs(config, 120);
            let fast = software(config, &q, &q).unwrap();
            let golden = dp::align_codes(q.codes(), q.codes(), &config.scoring());
            assert_eq!(fast.score, golden.score, "{config}");
            assert_eq!(fast.cigar.to_string(), golden.cigar.to_string(), "{config}");
        }
    }

    #[test]
    fn affine_device_matches_gotoh() {
        use smx_align_core::dp_affine::{affine_score, AffineScheme};
        let scheme = AffineScheme::minimap2();
        let dev = AffineDevice::new(smx_align_core::Alphabet::Dna2, scheme).unwrap();
        let r = Sequence::from_codes(
            smx_align_core::Alphabet::Dna2,
            (0..90u32).map(|i| ((i * 7 + (i >> 4)) % 4) as u8).collect(),
        )
        .unwrap();
        let mut q_codes = r.codes().to_vec();
        q_codes.drain(30..55);
        let q = Sequence::from_codes(smx_align_core::Alphabet::Dna2, q_codes).unwrap();
        let golden = affine_score(q.codes(), r.codes(), &scheme);
        assert_eq!(dev.score(&q, &r).unwrap(), golden);
        let aln = dev.align(&q, &r).unwrap();
        assert_eq!(aln.score, golden);
        // One consolidated 25-base deletion.
        assert!(aln
            .cigar
            .runs()
            .iter()
            .any(|&(op, n)| op == smx_align_core::Op::Delete && n == 25));
    }

    #[test]
    fn affine_device_rejects_mismatched_alphabet() {
        let dev = AffineDevice::new(
            smx_align_core::Alphabet::Dna2,
            smx_align_core::dp_affine::AffineScheme::minimap2(),
        )
        .unwrap();
        let p = Sequence::from_text(smx_align_core::Alphabet::Protein, "WYV").unwrap();
        assert!(matches!(dev.score(&p, &p), Err(AlignError::AlphabetMismatch)));
    }

    #[test]
    fn wrong_alphabet_rejected() {
        let mut dev = SmxDevice::new(AlignmentConfig::DnaEdit, 1).unwrap();
        let q = Sequence::from_text(smx_align_core::Alphabet::Protein, "WYV").unwrap();
        assert!(matches!(dev.align(&q, &q), Err(AlignError::AlphabetMismatch)));
        let software = software(AlignmentConfig::DnaEdit, &q, &q);
        assert!(matches!(software, Err(AlignError::AlphabetMismatch)));
    }

    #[test]
    fn faulty_align_is_byte_identical_to_clean() {
        for config in AlignmentConfig::ALL {
            let (q, r) = seqs(config, 90);
            let mut clean_dev = SmxDevice::new(config, 4).unwrap();
            let clean = clean_dev.align(&q, &r).unwrap();
            for rate in [1e-4, 1e-3, 1e-2, 0.5] {
                let mut dev = SmxDevice::new(config, 4).unwrap();
                dev.enable_fault_injection(FaultPlan::new(42, rate), RecoveryPolicy::default());
                let aln = dev.align(&q, &r).unwrap();
                assert_eq!(aln.score, clean.score, "{config} rate {rate}");
                assert_eq!(aln.cigar.to_string(), clean.cigar.to_string(), "{config} rate {rate}");
                assert!(dev.recovery_stats().invariants_hold(), "{config} rate {rate}");
            }
        }
    }

    /// A device whose every tile faults persistently, with nothing
    /// retried or recomputed at tile level.
    fn persistently_faulty(config: AlignmentConfig) -> SmxDevice {
        let mut dev = SmxDevice::new(config, 4).unwrap();
        dev.enable_fault_injection(
            FaultPlan::new(7, 1.0).with_persistence(1.0),
            RecoveryPolicy::strict(),
        );
        dev
    }

    #[test]
    fn strict_policy_degrades_to_software() {
        use crate::service::{BatchExecutor, ExecutorConfig};
        let config = AlignmentConfig::DnaGap;
        let (q, r) = seqs(config, 90);
        let clean = SmxDevice::new(config, 4).unwrap().align(&q, &r).unwrap();
        // The device itself escalates; the fault is in its event log.
        let mut dev = persistently_faulty(config);
        assert!(dev.align(&q, &r).unwrap_err().is_recoverable_fault());
        assert!(!dev.take_fault_events().is_empty());
        // The executor degrades the whole pair to the software path.
        let exec = BatchExecutor::new(persistently_faulty(config), ExecutorConfig::default());
        let report = exec.unwrap().run(&[(q, r)]);
        let aln = report.alignment(0).expect("degraded pair aligns");
        assert_eq!(aln.score, clean.score);
        assert_eq!(aln.cigar.to_string(), clean.cigar.to_string());
        assert_eq!(report.stats.software_alignments, 1);
    }

    #[test]
    fn degradation_off_escalates_structured_error() {
        use crate::service::{BatchExecutor, ExecutorConfig};
        let config = AlignmentConfig::DnaGap;
        let (q, r) = seqs(config, 90);
        let err = persistently_faulty(config).align(&q, &r).unwrap_err();
        assert!(matches!(err, AlignError::RecoveryExhausted { .. }), "{err}");
        // A fail-closed executor hands the same typed error back.
        let cfg = ExecutorConfig { fail_closed: true, ..ExecutorConfig::default() };
        let report = BatchExecutor::new(persistently_faulty(config), cfg).unwrap().run(&[(q, r)]);
        let failures = report.failures();
        assert!(matches!(failures[0].error, AlignError::RecoveryExhausted { .. }), "{failures:?}");
        assert_eq!(report.stats.software_alignments, 0);
    }

    #[test]
    fn faulty_score_matches_clean() {
        let config = AlignmentConfig::DnaEdit;
        let (q, r) = seqs(config, 80);
        let clean = SmxDevice::new(config, 2).unwrap().score(&q, &r).unwrap();
        let mut dev = SmxDevice::new(config, 2).unwrap();
        dev.enable_fault_injection(FaultPlan::new(3, 0.3), RecoveryPolicy::default());
        assert_eq!(dev.score(&q, &r).unwrap(), clean);
    }

    #[test]
    fn degenerate_inputs_are_typed_errors_or_defined_results() {
        let config = AlignmentConfig::DnaGap;
        let mut dev = SmxDevice::new(config, 2).unwrap();
        let empty = Sequence::from_codes(config.alphabet(), vec![]).unwrap();
        let one = Sequence::from_codes(config.alphabet(), vec![2]).unwrap();
        // Empty inputs surface as typed errors from every entry point.
        assert!(matches!(dev.align(&empty, &one), Err(AlignError::EmptySequence)));
        assert!(matches!(dev.align(&one, &empty), Err(AlignError::EmptySequence)));
        assert!(matches!(dev.score(&empty, &one), Err(AlignError::EmptySequence)));
        assert!(matches!(software(config, &empty, &one), Err(AlignError::EmptySequence)));
        // Single symbols align.
        let a = dev.align(&one, &one).unwrap();
        assert_eq!(a.cigar.to_string(), "1=");
        // query == reference: perfect diagonal, device and software agree.
        let (q, _) = seqs(config, 75);
        let a = dev.align(&q, &q).unwrap();
        let sw = software(config, &q, &q).unwrap();
        assert_eq!(a.score, sw.score);
        assert_eq!(a.cigar.to_string(), sw.cigar.to_string());
        assert_eq!(a.cigar.query_len(), q.len());
        // Affine device too.
        let adev = AffineDevice::new(
            smx_align_core::Alphabet::Dna2,
            smx_align_core::dp_affine::AffineScheme::minimap2(),
        )
        .unwrap();
        let e2 = Sequence::from_codes(smx_align_core::Alphabet::Dna2, vec![]).unwrap();
        let o2 = Sequence::from_codes(smx_align_core::Alphabet::Dna2, vec![1]).unwrap();
        assert!(matches!(adev.align(&e2, &o2), Err(AlignError::EmptySequence)));
        assert_eq!(adev.align(&o2, &o2).unwrap().cigar.to_string(), "1=");
    }

    #[test]
    fn software_path_is_byte_identical_to_device_path() {
        for config in AlignmentConfig::ALL {
            let (q, r) = seqs(config, 80);
            let mut dev = SmxDevice::new(config, 2).unwrap();
            let device = dev.align(&q, &r).unwrap();
            let software = software(config, &q, &r).unwrap();
            assert_eq!(device.score, software.score, "{config}");
            assert_eq!(device.cigar.to_string(), software.cigar.to_string(), "{config}");
        }
    }

    #[test]
    fn cancel_token_aborts_align_and_deadline_is_typed() {
        let config = AlignmentConfig::DnaGap;
        let (q, r) = seqs(config, 80);
        let mut dev = SmxDevice::new(config, 2).unwrap();
        let token = CancelToken::new();
        dev.set_cancel_token(Some(token.clone()));
        assert!(dev.align(&q, &r).is_ok());
        token.cancel();
        assert!(matches!(dev.align(&q, &r), Err(AlignError::Cancelled)));
        let (scheme, alphabet) = (config.scoring(), config.alphabet());
        let software = align_in_software((&q, &r), &scheme, alphabet, &token);
        assert!(matches!(software, Err(AlignError::Cancelled)));
        dev.set_cancel_token(Some(
            CancelToken::new().fork_with_deadline(std::time::Duration::ZERO),
        ));
        assert!(matches!(dev.align(&q, &r), Err(AlignError::DeadlineExceeded { .. })));
        dev.set_cancel_token(None);
        assert!(dev.align(&q, &r).is_ok());
    }

    #[test]
    fn silent_corruption_escapes_the_device_undetected() {
        let config = AlignmentConfig::DnaGap;
        let (q, r) = seqs(config, 80);
        let clean = SmxDevice::new(config, 2).unwrap().align(&q, &r).unwrap();
        let mut dev = SmxDevice::new(config, 2).unwrap();
        dev.enable_fault_injection(
            FaultPlan::new(11, 0.0).with_silent_rate(1.0),
            RecoveryPolicy::default(),
        );
        // The device "succeeds" — that is the whole problem: the result
        // is plausible-but-wrong and nothing device-side flags it.
        let aln = dev.align(&q, &r).unwrap();
        assert_ne!(
            (aln.score, aln.cigar.to_string()),
            (clean.score, clean.cigar.to_string()),
            "silent corruption must damage the readout"
        );
        let stats = dev.recovery_stats();
        assert_eq!(stats.silent_corruptions, 1);
        assert_eq!(stats.faults_detected, 0);
        // The independent audit oracle catches it.
        let scheme = config.scoring();
        assert!(aln.verify(q.codes(), r.codes(), &scheme).is_err());
        // Accessors used by the pool to derive per-device plans.
        assert_eq!(dev.fault_plan().unwrap().silent_rate(), 1.0);
        assert!(dev.fault_policy().unwrap().software_fallback);
    }

    #[test]
    fn disable_fault_injection_resets_stats() {
        let config = AlignmentConfig::DnaGap;
        let (q, r) = seqs(config, 60);
        let mut dev = SmxDevice::new(config, 2).unwrap();
        dev.enable_fault_injection(FaultPlan::new(5, 1.0), RecoveryPolicy::default());
        let _ = dev.align(&q, &r).unwrap();
        assert!(dev.recovery_stats().faults_injected > 0);
        dev.disable_fault_injection();
        assert_eq!(dev.recovery_stats(), RecoveryStats::default());
    }
}
