//! Microbenchmarks of the functional SMX kernels: the bit-exact PE, lane
//! packing, the SMX-1D column kernel, SMX-2D tile/block compute, and the
//! golden-model DP they are all validated against, and the host SIMD
//! score kernel the pool's audit runs. Run with `cargo bench
//! -p smx-bench`; each row prints as `group/name: N ns/iter  X Melem/s`,
//! the best mean over `ROUNDS` rounds of five calls. The first golden
//! row runs again last, and its end/start ratio flags a run whose host
//! changed pace between the two ([`DRIFT_BAND`]).

use std::hint::black_box;

use smx::algos::adaptive;
use smx::algos::baselines::{myers, wfa};
use smx::algos::simd::{self, Baseline, SimdWorkspace};
use smx::align::dp_affine::AffineScheme;
use smx::align::{dp, AlignmentConfig, ElementWidth, ScoringScheme};
use smx::coproc::affine::AffineEngine;
use smx::coproc::block::BlockMode;
use smx::coproc::SmxCoprocessor;
use smx::datagen::Dataset;
use smx::diffenc::affine::AffinePenalties;
use smx::diffenc::{pack::PackedSeq, pe};
use smx::isa::{kernels, Smx1dUnit};
use smx::sim::coproc::{BlockShape, CoprocSim, CoprocTimingConfig};
use smx_bench::time;

/// Rounds of each row. With three, the protein rows were bimodal on a
/// shared 2-vCPU host (one run in five read ~1.5× slower); with 25, two
/// runs of a row agree within ~10%.
const ROUNDS: usize = 25;

/// The end/start ratio of the repeated golden row outside which a run is
/// flagged: a shared host can fall into a slow phase in which every row
/// reads ~1.5× slower, unchanged ones included, and rows compare only
/// within one run.
const DRIFT_BAND: (f64, f64) = (0.8, 1.25);

/// Times `f`, prints its row and returns its ns per call; `elems`
/// (elements processed per call) adds the throughput column.
fn bench<T>(group: &str, name: &str, elems: Option<u64>, mut f: impl FnMut() -> T) -> u64 {
    const ITERS: u32 = 5;
    let secs = time(ROUNDS, || {
        for _ in 0..ITERS {
            black_box(f());
        }
    });
    let ns = ((secs * 1e9 / f64::from(ITERS)) as u64).max(1);
    let rate =
        elems.map_or(String::new(), |n| format!("  {:.3} Melem/s", n as f64 * 1e3 / ns as f64));
    println!("{group}/{name}: {ns} ns/iter{rate}");
    ns
}

fn seq(len: usize, seed: u64, card: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % card) as u8
        })
        .collect()
}

fn main() {
    let ew2 = ElementWidth::W2;
    bench("pe", "pe_exact_w2", Some(1), || pe::pe_exact(ew2, black_box(1), 2, 2));
    bench("pe", "pe_reference", Some(1), || pe::pe_reference(black_box(1), 2, 2));

    let codes = seq(4096, 7, 4);
    bench("pack", "packed_seq_w2", Some(codes.len() as u64), || {
        PackedSeq::from_codes(ew2, black_box(&codes))
    });

    let cfg = AlignmentConfig::DnaEdit;
    let scheme = cfg.scoring();
    let (q, r) = (seq(512, 3, 4), seq(512, 11, 4));
    let cells = Some((q.len() * r.len()) as u64);
    let g = "block_512x512";
    let golden = || dp::score_only(black_box(&q), &r, &scheme);
    let golden_start = bench(g, "golden_score", cells, golden);
    let mut unit = Smx1dUnit::configure(cfg.element_width(), &scheme).unwrap();
    bench(g, "smx1d_score", cells, || {
        kernels::score_block(&mut unit, black_box(&q), &r, None).unwrap()
    });
    let coproc = SmxCoprocessor::new(cfg.element_width(), &scheme, 4).unwrap();
    bench(g, "smx2d_score", cells, || {
        coproc.compute_block(black_box(&q), &r, None, BlockMode::ScoreOnly).unwrap()
    });
    bench(g, "smx2d_traceback", cells, || {
        let out = coproc.compute_block(black_box(&q), &r, None, BlockMode::Traceback).unwrap();
        coproc.traceback(&q, &r, &out).unwrap()
    });

    // Serve's shape: a 150 bp DnaEdit pair, whose traceback-mode block
    // keeps its Myers words and whose traceback walks them.
    {
        let q = seq(150, 5, 4);
        let r: Vec<u8> = (0..150)
            .filter(|i| i % 50 != 7)
            .map(|i| if i % 11 == 0 { (q[i] + 1) % 4 } else { q[i] })
            .collect();
        let cells = Some((q.len() * r.len()) as u64);
        bench("block_150x150_edit", "smx2d_score", cells, || {
            coproc.compute_block(black_box(&q), &r, None, BlockMode::ScoreOnly).unwrap()
        });
        bench("block_150x150_edit", "smx2d_traceback", cells, || {
            let out = coproc.compute_block(black_box(&q), &r, None, BlockMode::Traceback).unwrap();
            coproc.traceback(&q, &r, &out).unwrap()
        });
    }

    // The lane kernel (DnaEdit above runs the edit-word kernel).
    for cfg in [AlignmentConfig::DnaGap, AlignmentConfig::Protein] {
        let card = cfg.alphabet().cardinality() as u64;
        let (q, r) = (seq(512, 3, card), seq(512, 11, card));
        let coproc = SmxCoprocessor::new(cfg.element_width(), &cfg.scoring(), 4).unwrap();
        bench(&format!("block_512x512_{cfg}"), "smx2d_score", cells, || {
            coproc.compute_block(black_box(&q), &r, None, BlockMode::ScoreOnly).unwrap()
        });
        bench(&format!("block_512x512_{cfg}"), "smx2d_traceback", cells, || {
            let out = coproc.compute_block(black_box(&q), &r, None, BlockMode::Traceback).unwrap();
            coproc.traceback(&q, &r, &out).unwrap()
        });
    }

    // One related uniprot_like pair (batch-protein-audited's shape): its
    // traceback-mode block keeps its Δ′ lanes and the traceback walks them.
    {
        let cfg = AlignmentConfig::Protein;
        let pair = &Dataset::uniprot_like(1, 35).pairs[0];
        let (q, r) = (pair.query.codes(), pair.reference.codes());
        let cells = Some((q.len() * r.len()) as u64);
        let coproc = SmxCoprocessor::new(cfg.element_width(), &cfg.scoring(), 4).unwrap();
        bench("block_uniprot", "smx2d_score", cells, || {
            coproc.compute_block(black_box(q), r, None, BlockMode::ScoreOnly).unwrap()
        });
        bench("block_uniprot", "smx2d_traceback", cells, || {
            let out = coproc.compute_block(black_box(q), r, None, BlockMode::Traceback).unwrap();
            coproc.traceback(q, r, &out).unwrap()
        });
    }

    // The host audit's score kernel on a uniprot-sized protein pair.
    {
        let scheme = AlignmentConfig::Protein.scoring();
        let (q, r) = (seq(350, 3, 26), seq(350, 11, 26));
        let cells = Some((q.len() * r.len()) as u64);
        let mut ws = SimdWorkspace::new();
        bench("protein_350", "simd_score", cells, || {
            simd::score(black_box(&q), &r, &scheme, Baseline::Auto, &mut ws)
        });
    }

    {
        let r = seq(4096, 21, 4);
        let mut q = r.clone();
        q[1000] ^= 1;
        q.remove(3000);
        let cells = Some((q.len() * r.len()) as u64);
        bench("edit_4k", "myers_bitparallel", cells, || {
            myers::edit_distance(black_box(&q), &r, 4).unwrap()
        });
        bench("edit_4k", "wfa", cells, || wfa::edit_distance(black_box(&q), &r).unwrap());
    }

    {
        let q = seq(1024, 5, 4);
        let mut r = q.clone();
        r.remove(512);
        let cells = Some((q.len() * r.len()) as u64);
        let pen = AffinePenalties::from_scheme(&AffineScheme::minimap2()).unwrap();
        let engine = AffineEngine::new(ElementWidth::W4, pen).unwrap();
        bench("extensions_1k", "affine_engine_score", cells, || {
            engine.score_block(black_box(&q), &r).unwrap()
        });
        let scheme = ScoringScheme::edit();
        bench("extensions_1k", "adaptive_band_w33", cells, || {
            adaptive::adaptive_banded_align(black_box(&q), &r, &scheme, 33, false)
        });
    }

    {
        let shape = BlockShape::from_dims(10_000, 10_000, ew2, false);
        let sim = CoprocSim::new(CoprocTimingConfig::for_ew(ew2, 4));
        bench("timing_sim", "coproc_10k_block", None, || sim.simulate_uniform(black_box(shape), 4));
    }

    let drift = bench(g, "golden_score_end", cells, golden) as f64 / golden_start as f64;
    let (lo, hi) = DRIFT_BAND;
    let verdict = if (lo..=hi).contains(&drift) {
        "steady"
    } else {
        "FLAGGED: the host changed pace during this run; rerun before comparing its rows"
    };
    println!("{g}/golden_score end/start: {drift:.3} (band {lo}–{hi}) {verdict}");
}
