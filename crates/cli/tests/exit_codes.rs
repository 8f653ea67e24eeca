//! End-to-end exit-code contract for `--strict` batches: shed, deadline,
//! and integrity failures each get a distinct process exit code so
//! pipelines can branch without parsing stderr, and a torn checkpoint
//! tail is reported with its byte offset on resume. Also `align`'s one
//! path: a plain run prints what a parallel batch prints, `--pretty`
//! adds rows under each result line, and removed flags fail.

use std::fs;
use std::path::Path;
use std::process::{Command, Output};

fn smx_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smx-cli"))
}

fn run(args: &[&str]) -> Output {
    smx_cli().args(args).output().expect("spawn smx-cli")
}

/// Deterministic DNA records, interleaved-pair style: one query file and
/// one reference file with `count` records of `len` bases each.
fn write_pairs(dir: &Path, count: usize, len: usize) -> (String, String) {
    let mut state: u64 = 0x243f_6a88_85a3_08d3;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut q = String::new();
    let mut r = String::new();
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    for i in 0..count {
        let seq: String = (0..len).map(|_| BASES[next() % 4]).collect();
        // The reference is the query with a couple of point edits, so the
        // alignment is non-trivial but still cheap to verify.
        let mut rseq: Vec<char> = seq.chars().collect();
        rseq[len / 3] = BASES[(next() + 1) % 4];
        rseq[2 * len / 3] = BASES[(next() + 2) % 4];
        q.push_str(&format!(">q{i}\n{seq}\n"));
        r.push_str(&format!(">r{i}\n{}\n", rseq.into_iter().collect::<String>()));
    }
    let qp = dir.join("q.fa");
    let rp = dir.join("r.fa");
    fs::write(&qp, q).unwrap();
    fs::write(&rp, r).unwrap();
    (qp.to_string_lossy().into_owned(), rp.to_string_lossy().into_owned())
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("smx-exit-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn strict_shed_exits_with_code_3() {
    let dir = tempdir("shed");
    // Two workers, queue of one, big pairs: the submitter outruns the
    // workers and the shed admission policy drops the overflow.
    let (q, r) = write_pairs(&dir, 16, 2000);
    let out = run(&["align", "--strict", "--shed", "--jobs", "2", "--queue-cap", "1", &q, &r]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn strict_deadline_exits_with_code_4() {
    let dir = tempdir("deadline");
    // Every pair needs far more than 1 ms of matrix work, so each one
    // trips the deadline at a tile boundary.
    let (q, r) = write_pairs(&dir, 4, 2000);
    let out = run(&["align", "--strict", "--jobs", "2", "--deadline-ms", "1", &q, &r]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn strict_integrity_violation_exits_with_code_5() {
    let dir = tempdir("integrity");
    // Every device result is silently corrupt and every pair is audited;
    // --no-degrade fails the audit closed instead of recomputing.
    let (q, r) = write_pairs(&dir, 4, 200);
    let out = run(&[
        "align",
        "--strict",
        "--no-degrade",
        "--jobs",
        "2",
        "--silent-rate",
        "1.0",
        "--audit-rate",
        "1.0",
        "--fault-seed",
        "7",
        &q,
        &r,
    ]);
    assert_eq!(out.status.code(), Some(5), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn generic_errors_exit_with_code_2() {
    let out = run(&["align", "--config", "no-such-config", "a.fa", "b.fa"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn resume_reports_torn_tail_byte_offset() {
    let dir = tempdir("torn");
    let (q, r) = write_pairs(&dir, 4, 120);
    let manifest = dir.join("ckpt.tsv");
    let manifest_s = manifest.to_string_lossy().into_owned();

    let out = run(&["align", "--jobs", "2", "--checkpoint", &manifest_s, &q, &r]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Simulate a crash mid-write: a final line with no newline.
    let clean_len = fs::metadata(&manifest).unwrap().len();
    let mut torn = fs::read(&manifest).unwrap();
    torn.extend_from_slice(b"99\t17\t12");
    fs::write(&manifest, torn).unwrap();

    let out = run(&[
        "align",
        "--jobs",
        "2",
        "--resume",
        &manifest_s,
        "--checkpoint",
        &manifest_s,
        &q,
        &r,
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("byte offset {clean_len}")),
        "expected torn-tail warning with byte offset {clean_len}, got: {stderr}"
    );
}

/// The `align --fault-rate` contract, independent of which batch engine
/// runs it: recovered faults leave stdout byte-identical to the clean run
/// (the README's recovery invariant), and a strict, non-degrading run
/// whose every tile faults fails each pair closed with exit code 2
/// (`EXIT_GENERIC`).
#[test]
fn fault_injected_align_is_byte_identical_or_fails_closed() {
    let dir = tempdir("faults");
    let (q, r) = write_pairs(&dir, 6, 200);

    let clean = run(&["align", &q, &r]);
    assert!(clean.status.success(), "stderr: {}", String::from_utf8_lossy(&clean.stderr));
    let faulty = run(&["align", "--fault-rate", "0.05", "--fault-seed", "7", &q, &r]);
    let stderr = String::from_utf8_lossy(&faulty.stderr);
    assert!(faulty.status.success(), "stderr: {stderr}");
    assert_eq!(
        String::from_utf8_lossy(&faulty.stdout),
        String::from_utf8_lossy(&clean.stdout),
        "recovered faults changed stdout; stderr: {stderr}"
    );
    let injected: u64 = stderr
        .lines()
        .find(|l| l.starts_with("# faults:"))
        .and_then(|l| l.split_whitespace().find_map(|w| w.strip_prefix("injected=")))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no `# faults: ... injected=N` line in stderr: {stderr}"));
    assert!(injected > 0, "the fault plan injected nothing; stderr: {stderr}");

    let failed = run(&[
        "align",
        "--fault-rate",
        "1.0",
        "--max-retries",
        "0",
        "--strict",
        "--no-degrade",
        &q,
        &r,
    ]);
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert_eq!(failed.status.code(), Some(2), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&failed.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "stdout: {stdout}");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("q{i}\tr{i}\tfailed")), "line {i}: {line:?}");
    }
}

/// A strict tile policy with graceful degradation left on: every tile
/// faults, no tile retries or falls back, and each whole pair is
/// recomputed on the software path instead. Stdout stays byte-identical
/// to the clean run, the process exits 0, and the `# faults:` footer
/// line is pinned byte for byte, one software alignment per pair.
#[test]
fn strict_tile_policy_degrades_whole_pairs_byte_identically() {
    let dir = tempdir("degrade");
    let (q, r) = write_pairs(&dir, 6, 200);

    let clean = run(&["align", &q, &r]);
    assert!(clean.status.success(), "stderr: {}", String::from_utf8_lossy(&clean.stderr));
    let degraded = run(&["align", "--fault-rate", "1.0", "--max-retries", "0", "--strict", &q, &r]);
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert_eq!(degraded.status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(degraded.stdout, clean.stdout, "degraded pairs changed stdout; stderr: {stderr}");
    let faults = stderr.lines().find(|l| l.starts_with("# faults:"));
    assert_eq!(
        faults,
        Some(
            "# faults: injected=6 detected=6 retries=0 fallbacks=0 software_alignments=6 \
             silent_corruptions=0 cycles_lost=8348"
        ),
        "stderr: {stderr}"
    );
}

/// One `align` path: a plain run and a `--jobs 2` batch print the same
/// bytes, on a DnaGap pair over 16 M cells too, where a dense DP would
/// hand off to a co-optimal linear-memory path.
#[test]
fn plain_align_prints_what_a_parallel_batch_prints() {
    let dir = tempdir("onepath");
    let pairs = dir.join("pairs.fa");
    let pairs_s = pairs.to_string_lossy().into_owned();
    let gen = run(&[
        "datagen",
        "--config",
        "dna-gap",
        "--len",
        "4100",
        "--count",
        "1",
        "--profile",
        "ont",
        "--seed",
        "5",
        "--out",
        &pairs_s,
    ]);
    assert!(gen.status.success(), "stderr: {}", String::from_utf8_lossy(&gen.stderr));
    // Split the interleaved q0, r0, ... records into two files.
    let text = fs::read_to_string(&pairs).unwrap();
    let (mut q, mut r, mut lens) = (String::new(), String::new(), Vec::new());
    for (i, record) in text.split('>').skip(1).enumerate() {
        lens.push(record.lines().skip(1).map(str::len).sum::<usize>());
        [&mut q, &mut r][i % 2].push_str(&format!(">{record}"));
    }
    assert!(lens[0] * lens[1] > 16_000_000, "pair too small to pin: {lens:?}");
    let (qp, rp) = (dir.join("q.fa"), dir.join("r.fa"));
    fs::write(&qp, q).unwrap();
    fs::write(&rp, r).unwrap();
    let (qp, rp) = (qp.to_string_lossy().into_owned(), rp.to_string_lossy().into_owned());

    let plain = run(&["align", "--config", "dna-gap", &qp, &rp]);
    assert!(plain.status.success(), "stderr: {}", String::from_utf8_lossy(&plain.stderr));
    let batch = run(&["align", "--config", "dna-gap", "--jobs", "2", &qp, &rp]);
    assert!(batch.status.success(), "stderr: {}", String::from_utf8_lossy(&batch.stderr));
    assert!(!plain.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&batch.stdout),
        "plain align and the --jobs 2 batch disagree"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `--pretty` keeps each pair's result line and renders the alignment
/// rows under it.
#[test]
fn pretty_align_renders_rows_under_the_result_line() {
    let dir = tempdir("pretty");
    let (q, r) = write_pairs(&dir, 2, 120);
    let plain = run(&["align", &q, &r]);
    let pretty = run(&["align", "--pretty", &q, &r]);
    assert!(pretty.status.success(), "stderr: {}", String::from_utf8_lossy(&pretty.stderr));
    let plain = String::from_utf8_lossy(&plain.stdout);
    let pretty = String::from_utf8_lossy(&pretty.stdout);
    let first = pretty.lines().next();
    assert!(first.is_some_and(|l| l.starts_with("q0\tr0\tscore=")), "stdout: {pretty}");
    assert_eq!(first, plain.lines().next(), "stdout: {pretty}");
    let rows: Vec<&str> = pretty.lines().skip(1).take_while(|l| !l.starts_with("q1\t")).collect();
    assert!(rows.first().is_some_and(|l| l.starts_with("query ")), "stdout: {pretty}");
    assert!(rows.iter().any(|l| l.starts_with("reference ")), "stdout: {pretty}");
    assert!(pretty.lines().any(|l| Some(l) == plain.lines().nth(1)), "stdout: {pretty}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_options_fail_with_the_usage_error_code() {
    let dir = tempdir("unknown");
    let (q, r) = write_pairs(&dir, 1, 50);
    // Removed options and switches (the model's algorithm, engine and
    // score-only flags among them), a typo'd switch, and a removed serve
    // switch: each fails before any work, naming the key, instead of
    // being ignored or swallowing the next token.
    let cases: [(&[&str], &str); 6] = [
        (&["align", "--baseline", "simd", &q, &r], "--baseline"),
        (&["align", "--algorithm", "banded", &q, &r], "--algorithm"),
        (&["align", "--engine", "simd", &q, &r], "--engine"),
        (&["align", "--score-only", &q, &r], "--score-only"),
        (&["align", "--stirct", &q, &r], "--stirct"),
        (&["serve", "--steal", "off"], "--steal"),
    ];
    for (argv, key) in cases {
        let out = run(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown option {key}")), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} printed results");
    }
    let _ = fs::remove_dir_all(&dir);
}
