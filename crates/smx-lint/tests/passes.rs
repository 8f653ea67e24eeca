//! Fixture-driven pass tests: each pass must flag its deliberately-bad
//! fixture and stay silent on the known-good twin.

use smx_lint::config::Config;
use smx_lint::passes;
use smx_lint::report::Finding;
use smx_lint::source::SourceFile;
use std::path::PathBuf;

fn fixture_config() -> Config {
    Config::parse(include_str!("fixtures/lint.toml")).expect("fixture lint.toml parses")
}

fn run_on(rel: &str, src: &str) -> Vec<Finding> {
    let cfg = fixture_config();
    let file = SourceFile::from_source(PathBuf::from(rel), rel.to_string(), src);
    let mut out = Vec::new();
    for p in passes::all() {
        p.run(&file, &cfg, &mut out);
    }
    out
}

fn of_pass<'a>(findings: &'a [Finding], pass: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.pass == pass).collect()
}

#[test]
fn lock_order_bad_is_flagged() {
    let f = run_on("lock_order_bad.rs", include_str!("fixtures/lock_order_bad.rs"));
    let hits = of_pass(&f, "lock-order");
    assert!(hits.len() >= 4, "expected >=4 lock-order findings, got {:?}", hits);
    assert!(hits.iter().any(|f| f.message.contains("inverts the declared hierarchy")));
    assert!(hits.iter().any(|f| f.message.contains("blocking call `recv`")));
    // The scrutinee-temporary case: acquiring `outer` inside the match
    // body while the `inner` scrutinee guard is still alive.
    assert!(
        hits.iter().any(|f| f.message.contains("`outer`") && f.message.contains("`inner`")),
        "scrutinee-held guard not detected: {:?}",
        hits
    );
    // The acquire-method mapping (`pool.health()` -> `middle`).
    assert!(hits.iter().any(|f| f.message.contains("`middle`")));
    // A `let mut` guard, in a function after a `>>`-closed signature.
    assert!(
        hits.iter().any(|f| f.message.contains("`outer`") && f.message.contains("`heavy_dp`")),
        "mut guard across a blocking call not detected: {:?}",
        hits
    );
}

#[test]
fn lock_order_ok_is_clean() {
    let f = run_on("lock_order_ok.rs", include_str!("fixtures/lock_order_ok.rs"));
    assert!(
        of_pass(&f, "lock-order").is_empty(),
        "false positives: {:?}",
        of_pass(&f, "lock-order")
    );
}

#[test]
fn panic_bad_is_flagged() {
    let f = run_on("panic_bad.rs", include_str!("fixtures/panic_bad.rs"));
    let hits = of_pass(&f, "panic");
    assert_eq!(hits.len(), 5, "unwrap, expect, index, panic!, todo!: {:?}", hits);
}

#[test]
fn panic_ok_is_clean() {
    let f = run_on("panic_ok.rs", include_str!("fixtures/panic_ok.rs"));
    assert!(of_pass(&f, "panic").is_empty(), "false positives: {:?}", of_pass(&f, "panic"));
}

#[test]
fn panic_zone_only_applies_to_configured_paths() {
    // The same panicking source outside the zone is not flagged.
    let f = run_on("other.rs", include_str!("fixtures/panic_bad.rs"));
    assert!(of_pass(&f, "panic").is_empty());
}

#[test]
fn unsafe_bad_is_flagged() {
    let f = run_on("unsafe_bad.rs", include_str!("fixtures/unsafe_bad.rs"));
    let hits = of_pass(&f, "unsafe");
    assert_eq!(hits.len(), 3, "block, fn, and stale-comment sites: {:?}", hits);
}

#[test]
fn unsafe_ok_is_clean() {
    let f = run_on("unsafe_ok.rs", include_str!("fixtures/unsafe_ok.rs"));
    assert!(of_pass(&f, "unsafe").is_empty(), "false positives: {:?}", of_pass(&f, "unsafe"));
}

#[test]
fn unsafe_inventory_counts_documented_sites() {
    let file = SourceFile::from_source(
        PathBuf::from("unsafe_ok.rs"),
        "unsafe_ok.rs".to_string(),
        include_str!("fixtures/unsafe_ok.rs"),
    );
    let inv = passes::unsafe_audit::inventory(&file);
    assert_eq!(inv.len(), 4);
    assert!(inv.iter().all(|(_, _, documented)| *documented));
}

#[test]
fn determinism_bad_is_flagged() {
    let f = run_on("determinism_bad.rs", include_str!("fixtures/determinism_bad.rs"));
    let hits = of_pass(&f, "determinism");
    assert!(hits.len() >= 5, "Instant, SystemTime, sleep, HashMap/Set uses: {:?}", hits);
    assert!(hits.iter().any(|f| f.message.contains("Instant::now")));
    assert!(hits.iter().any(|f| f.message.contains("sleep")));
    assert!(hits.iter().any(|f| f.message.contains("HashMap")));
}

#[test]
fn determinism_ok_is_clean() {
    let f = run_on("determinism_ok.rs", include_str!("fixtures/determinism_ok.rs"));
    assert!(
        of_pass(&f, "determinism").is_empty(),
        "false positives: {:?}",
        of_pass(&f, "determinism")
    );
}

#[test]
fn arith_bad_is_flagged() {
    let f = run_on("arith_bad.rs", include_str!("fixtures/arith_bad.rs"));
    let hits = of_pass(&f, "arith");
    assert_eq!(hits.len(), 3, "+, -, * on score-typed locals: {:?}", hits);
}

#[test]
fn arith_ok_is_clean() {
    let f = run_on("arith_ok.rs", include_str!("fixtures/arith_ok.rs"));
    assert!(of_pass(&f, "arith").is_empty(), "false positives: {:?}", of_pass(&f, "arith"));
}

#[test]
fn cfg_test_regions_are_skipped() {
    let src = r#"
fn prod(v: &[u32]) -> u32 {
    v.iter().sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1u32];
        assert_eq!(v[0], v.first().copied().unwrap());
    }
}
"#;
    let f = run_on("panic_test_region.rs", src);
    assert!(of_pass(&f, "panic").is_empty(), "test-region findings leaked: {:?}", f);
}

#[test]
fn annotation_requires_matching_pass_name() {
    let src = r#"
fn hot(r: Result<u32, ()>) -> u32 {
    // LINT: allow(arith) wrong pass name, does not cover unwrap
    r.unwrap()
}
"#;
    let f = run_on("panic_wrong_allow.rs", src);
    assert_eq!(of_pass(&f, "panic").len(), 1);
}

#[test]
fn baseline_grandfathers_then_goes_stale() {
    use smx_lint::baseline::{render, Baseline};
    let findings = run_on("panic_bad.rs", include_str!("fixtures/panic_bad.rs"));
    let text = render(&findings);
    let baseline = Baseline::parse(&text).expect("generated baseline parses");

    // Same findings: everything grandfathered, nothing new or stale.
    let again = run_on("panic_bad.rs", include_str!("fixtures/panic_bad.rs"));
    let split = baseline.apply(again);
    assert!(split.new_findings.is_empty());
    assert_eq!(split.baselined.len(), 5);
    assert!(split.stale.is_empty());

    // Fixed code: every baseline entry is now stale (shrink-only).
    let clean = run_on("panic_bad.rs", include_str!("fixtures/panic_ok.rs"));
    let split = baseline.apply(clean);
    assert!(split.new_findings.is_empty());
    assert_eq!(split.stale.len(), 5);
}
