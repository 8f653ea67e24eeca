//! The traced pass: spans around the calls into each layer's public
//! functions, made from outside the program on the workload's own pairs.
//!
//! The pass decomposes `SmxDevice::align` into the calls it makes (pack,
//! block, traceback, verify) and times the black-box `align` beside it,
//! so `orchestrator.unattributed_share` shows any gap between the sum of
//! the layers and the end-to-end call. Spans stay in memory and are
//! written out as JSON lines when the pass ends.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use smx::align::{dp, Alignment};
use smx::coproc::{BlockMode, SmxCoprocessor};
use smx::datagen::SeqPair;
use smx::isa::{kernels, Smx1dUnit};
use smx::server::proto::{Request, Response};
use smx::{SmxAligner, SmxDevice};
use smx_io::checkpoint::CheckpointWriter;

use crate::stats::percentile;
use crate::{Inputs, Report, Workload, COPROC_WORKERS};

/// One timed call (or `calls` back-to-back calls) into a layer.
struct Span {
    name: &'static str,
    pair: usize,
    parent: Option<usize>,
    calls: u32,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn open(&mut self, name: &'static str, pair: usize, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, pair, parent, calls: 1, start: now, end: now });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.origin.elapsed();
        if let Some(s) = self.spans.get_mut(id) {
            s.end = now;
        }
    }

    /// Times `f`, which makes `calls` calls into layer `name`.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        pair: usize,
        parent: Option<usize>,
        calls: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, pair, parent);
        let out = f();
        self.close(id);
        if let Some(s) = self.spans.get_mut(id) {
            s.calls = calls;
        }
        out
    }

    /// Durations of every call into `name`, one entry per call.
    pub fn per_call_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| {
                let us = (s.end - s.start).as_secs_f64() * 1e6 / f64::from(s.calls);
                std::iter::repeat_n(us, s.calls as usize)
            })
            .collect()
    }

    /// Total time inside `name` spans.
    fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .sum()
    }

    fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span as one JSON line, with its self time (duration
    /// minus the part its child spans cover).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent.and_then(|p| child.get_mut(p)) {
                *p += s.end - s.start;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"pair\": {}, \"parent\": {}, \"calls\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.pair,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.calls,
                s.start.as_nanos(),
                s.end.as_nanos(),
                dur.saturating_sub(child[i]).as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Per-pair figures of the compute layers, from the traced pass.
pub struct ComputeProbe {
    /// Device alignments of the probed pairs, for the io and proto probes.
    pub alignments: Vec<(usize, Alignment)>,
    /// Mean `SmxDevice::align` time per DP cell, for busy-share figures.
    pub align_ns_per_cell: f64,
    pub align_us: f64,
    /// Outputs of the probe that did not verify.
    pub wrong: u64,
}

/// The probed pair indices: the first `probe_pairs` of the pool.
pub fn sample(w: &Workload, inputs: &Inputs) -> Vec<usize> {
    (0..w.probe_pairs.min(inputs.pairs.len())).collect()
}

/// Times pack → block → traceback → verify, the black-box
/// `SmxDevice::align`, the streaming score kernel, and the host DP on
/// every probed pair, and records the compute-layer metrics.
pub fn compute_probe(
    tr: &mut Tracer,
    w: &Workload,
    inputs: &Inputs,
    report: &mut Report,
) -> Result<ComputeProbe, String> {
    let config = inputs.config;
    let scheme = config.scoring();
    let ew = config.element_width();
    let err = |e: smx::align::AlignError| e.to_string();
    let mut device = SmxDevice::new(config, COPROC_WORKERS).map_err(err)?;
    let mut unit = Smx1dUnit::configure(ew, &scheme).map_err(err)?;
    let coproc = SmxCoprocessor::new(ew, &scheme, COPROC_WORKERS).map_err(err)?;
    let mut ws = smx::algos::simd::SimdWorkspace::new();
    let idx = sample(w, inputs);
    let (mut cells, mut recomputed, mut untraced) = (0u64, 0u64, Duration::ZERO);
    let mut alignments = Vec::new();
    let mut wrong = 0u64;

    for rep in 0..w.probe_reps {
        for &i in &idx {
            let (q, r) = &inputs.pairs[i];
            // The black box.
            let aligned = tr.leaf("orchestrator.align", i, None, 1, || device.align(q, r));
            let aligned = aligned.map_err(err)?;
            // The same work, call by call, under one parent span.
            let root = tr.open("orchestrator.pipeline", i, None);
            let mut pack = |tr: &mut Tracer, s: &smx::align::Sequence| {
                let text = s.to_text();
                let packed = tr.leaf("isa.pack", i, Some(root), 1, || {
                    kernels::pack_ascii_sequence(&mut unit, text.as_bytes())
                });
                packed.map(|p| p.unpack())
            };
            let qc = pack(tr, q).map_err(err)?;
            let rc = pack(tr, r).map_err(err)?;
            let out = tr
                .leaf("coproc.block", i, Some(root), 1, || {
                    coproc.compute_block(&qc, &rc, None, BlockMode::Traceback)
                })
                .map_err(err)?;
            let (cigar, stats) = tr
                .leaf("coproc.traceback", i, Some(root), 1, || coproc.traceback(&qc, &rc, &out))
                .map_err(err)?;
            let piped = Alignment { score: out.score, cigar };
            let verified = tr
                .leaf("orchestrator.verify", i, Some(root), 1, || piped.verify(&qc, &rc, &scheme));
            tr.close(root);
            // The same calls again without spans: the tracing overhead is
            // the traced pipeline's time minus this one.
            let t = Instant::now();
            let qp =
                kernels::pack_ascii_sequence(&mut unit, q.to_text().as_bytes()).map_err(err)?;
            let rp =
                kernels::pack_ascii_sequence(&mut unit, r.to_text().as_bytes()).map_err(err)?;
            let (qu, ru) = (qp.unpack(), rp.unpack());
            let bare = coproc.compute_block(&qu, &ru, None, BlockMode::Traceback).map_err(err)?;
            let (bare_cigar, _) = coproc.traceback(&qu, &ru, &bare).map_err(err)?;
            let bare = Alignment { score: bare.score, cigar: bare_cigar };
            black_box(bare.verify(&qu, &ru, &scheme).is_ok());
            untraced += t.elapsed();

            let profile = tr.leaf("simd.score", i, None, 1, || {
                smx::algos::simd::score_profile(
                    q.codes(),
                    r.codes(),
                    &scheme,
                    smx::algos::simd::Baseline::Auto,
                    &mut ws,
                )
            });
            let sw = tr.leaf("align_core.sw_align", i, None, 1, || {
                dp::align_codes(q.codes(), r.codes(), &scheme)
            });

            let agree = verified.is_ok()
                && inputs.check(i, &aligned)
                && inputs.check(i, &piped)
                && inputs.check(i, &sw)
                && profile.score == inputs.golden[i]
                && piped.cigar.to_string() == aligned.cigar.to_string();
            wrong += u64::from(!agree);
            cells += inputs.cells[i];
            recomputed += stats.elements;
            if rep == 0 {
                alignments.push((i, aligned));
            }
        }
    }

    let n = tr.count("orchestrator.align").max(1) as f64;
    let per_pair = |name: &str| tr.total_us(name) / n;
    let (pack, block, traceback, verify) = (
        per_pair("isa.pack"),
        per_pair("coproc.block"),
        per_pair("coproc.traceback"),
        per_pair("orchestrator.verify"),
    );
    let (align, score, sw) =
        (per_pair("orchestrator.align"), per_pair("simd.score"), per_pair("align_core.sw_align"));
    let cells_per_pair = cells as f64 / n;
    let traced = per_pair("orchestrator.pipeline");
    let bare = untraced.as_secs_f64() * 1e6 / n;

    report.put("isa.pack_us", pack);
    report.put("coproc.block_us", block);
    report.put("coproc.block_gcups", cells_per_pair / (block * 1e3));
    report.put("coproc.traceback_us", traceback);
    report.put("coproc.recompute_share", recomputed as f64 / cells.max(1) as f64);
    report.put("orchestrator.align_us", align);
    report.put("orchestrator.verify_us", verify);
    report.put("orchestrator.self_us", align - (pack + block + traceback + verify));
    report
        .put("orchestrator.unattributed_share", 1.0 - (pack + block + traceback + verify) / align);
    report.put("orchestrator.vs_software", sw / align);
    report.put("simd.score_us", score);
    report.put("simd.gcups", cells_per_pair / (score * 1e3));
    report.put("pool.audit_us", verify + score);
    report.put("align_core.sw_align_us", sw);
    report.put("trace.overhead_us", traced - bare);
    report.put("trace.overhead_share", (traced - bare) / bare);

    // The timing model's prediction for the same pairs on the SMX engine.
    let seq_pairs: Vec<SeqPair> = idx
        .iter()
        .map(|&i| SeqPair {
            query: inputs.pairs[i].0.clone(),
            reference: inputs.pairs[i].1.clone(),
        })
        .collect();
    let predicted = SmxAligner::new(config)
        .engine(smx::algos::EngineKind::Smx)
        .run_batch(&seq_pairs)
        .map_err(err)?
        .gcups();
    report.put("sim.predicted_gcups", predicted);
    report.put("sim.measured_over_predicted", cells_per_pair / (align * 1e3) / predicted);
    report.note(format!(
        "explain: pack {pack:.1} + block {block:.1} + traceback {traceback:.1} + verify {verify:.1} = {:.1} us of align {align:.1} us (unattributed {:.1}%)",
        pack + block + traceback + verify,
        100.0 * (1.0 - (pack + block + traceback + verify) / align)
    ));
    report.note(format!("block share of align: {:.1}%", 100.0 * block / align));

    Ok(ComputeProbe {
        alignments,
        align_ns_per_cell: align * 1e3 / cells_per_pair,
        align_us: align,
        wrong,
    })
}

/// `CheckpointWriter::record` on a temp file inside `dir`, one span per
/// call, cycling through the probe's alignments.
pub fn io_probe(
    tr: &mut Tracer,
    alignments: &[(usize, Alignment)],
    records: usize,
    dir: &Path,
    report: &mut Report,
) -> Result<f64, String> {
    let path = dir.join("io-probe.ckpt");
    let mut writer = CheckpointWriter::create(&path).map_err(|e| e.to_string())?;
    for k in 0..records {
        let (i, a) = &alignments[k % alignments.len()];
        tr.leaf("io.checkpoint_record", *i, None, 1, || writer.record(k, a))
            .map_err(|e| e.to_string())?;
    }
    drop(writer);
    let _ = std::fs::remove_file(&path);
    let us = tr.per_call_us("io.checkpoint_record");
    let p50 = percentile(&us, 0.5);
    report.put("io.checkpoint_record_p50_us", p50);
    report.put("io.checkpoint_record_p99_us", percentile(&us, 0.99));
    Ok(p50)
}

/// The framed-protocol codec on each probed pair's own request and
/// result: encode is `Request::encode` + `Response::encode`, parse is
/// `Request::parse` + `Response::parse`. Returns (encode, parse) µs.
pub fn proto_probe(
    tr: &mut Tracer,
    inputs: &Inputs,
    alignments: &[(usize, Alignment)],
    report: &mut Report,
) -> (f64, f64) {
    const REPS: u32 = 64;
    for (i, a) in alignments {
        let (q, r) = &inputs.texts[*i];
        let req = Request::Pair { id: *i, query: q.clone(), reference: r.clone() };
        let resp =
            Response::Result { id: *i, score: a.score, cigar: a.cigar.to_string(), resumed: false };
        let (req_text, resp_text) = (req.encode(), resp.encode());
        tr.leaf("proto.encode", *i, None, REPS, || {
            for _ in 0..REPS {
                black_box(black_box(&req).encode());
                black_box(black_box(&resp).encode());
            }
        });
        tr.leaf("proto.parse", *i, None, REPS, || {
            for _ in 0..REPS {
                black_box(Request::parse(black_box(&req_text)).is_ok());
                black_box(Response::parse(black_box(&resp_text)).is_ok());
            }
        });
    }
    let encode = crate::stats::mean(&tr.per_call_us("proto.encode"));
    let parse = crate::stats::mean(&tr.per_call_us("proto.parse"));
    report.put("proto.encode_us", encode);
    report.put("proto.parse_us", parse);
    (encode, parse)
}
