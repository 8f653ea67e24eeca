//! Failpoint regression tests for the [`CheckpointWriter`] I/O-error
//! contract: a failed write or fsync surfaces as a typed error and
//! leaves the file in a state `append`/resume provably recovers from —
//! at worst a torn *final* line, never a corrupt middle one. Compiled
//! only with `--features failpoints`.
//!
//! The registry is process-global; every test serializes on
//! [`registry_lock`] and clears the registry on drop.
#![cfg(feature = "failpoints")]

use smx_align_core::{Alignment, Cigar};
use smx_failpoint::{clear, install, Action, FailSchedule};
use smx_io::checkpoint::{CheckpointWriter, Manifest, RecordSink};
use smx_io::IoError;
use std::io::Write;
use std::sync::{Mutex, MutexGuard, PoisonError};

static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> impl Drop {
    struct Guard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            clear();
        }
    }
    Guard(REGISTRY.lock().unwrap_or_else(PoisonError::into_inner))
}

fn aln(score: i32, cigar: &str) -> Alignment {
    Alignment { score, cigar: Cigar::parse(cigar).unwrap() }
}

fn tmpfile(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("smx-ckpt-chaos-{}-{tag}.tsv", std::process::id()))
}

/// A torn half-line from a failed `write` is rolled back on the spot:
/// the file keeps only whole records, later records append cleanly, and
/// the final manifest loads with every *acked* record and nothing else.
/// This is the regression test for the corrupt-middle-line wedge: before
/// the rollback, the torn bytes merged with the next record into a line
/// [`Manifest::load`] hard-rejects, permanently wedging the session.
#[test]
fn partial_write_rolls_back_to_whole_records() {
    let _guard = registry_lock();
    let path = tmpfile("partial-write");
    let _ = std::fs::remove_file(&path);

    let mut w = CheckpointWriter::create(&path).unwrap();
    w.record(0, &aln(5, "5=")).unwrap();

    // Second record: the write tears halfway and must report an error.
    install(FailSchedule::new(2).rule("ckpt.write", None, Action::Partial, 1.0, Some(1)));
    match w.record(1, &aln(7, "3=1X3=")) {
        Err(IoError::Io(_)) => {}
        other => panic!("torn write reported {other:?}"),
    }
    clear();

    // Third record appends over the rolled-back tail.
    w.record(2, &aln(9, "9=")).unwrap();
    drop(w);

    let manifest = Manifest::load(&path).unwrap();
    assert_eq!(
        manifest.completed.keys().copied().collect::<std::collections::BTreeSet<_>>(),
        [0, 2].into_iter().collect(),
        "exactly the acked records survive"
    );
    assert!(!manifest.torn_tail, "rollback must not leave a tear for load to repair");
    std::fs::remove_file(&path).ok();
}

/// A failed fsync is reported as a typed error and the record is NOT
/// acked — but the bytes may be in the page cache, so the rollback
/// truncates them too: retrying the same record later produces exactly
/// one copy.
#[test]
fn failed_fsync_is_typed_and_unacked() {
    let _guard = registry_lock();
    let path = tmpfile("fsync");
    let _ = std::fs::remove_file(&path);

    let mut w = CheckpointWriter::create(&path).unwrap();
    w.record(0, &aln(3, "3=")).unwrap();

    install(FailSchedule::new(4).rule("ckpt.fsync", None, Action::Error, 1.0, Some(1)));
    match w.record(1, &aln(4, "2=1I1=")) {
        Err(IoError::Io(_)) => {}
        other => panic!("failed fsync reported {other:?}"),
    }
    clear();

    // The unacked record is retried — the rollback guarantees no
    // duplicate line from the first attempt's page-cache bytes.
    w.record(1, &aln(4, "2=1I1=")).unwrap();
    drop(w);

    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 2, "retry must not duplicate the rolled-back line");
    let manifest = Manifest::load(&path).unwrap();
    assert_eq!(manifest.completed[&1], aln(4, "2=1I1="));
    std::fs::remove_file(&path).ok();
}

/// The schedule that fires `action` at `site` on hit 1 and on no other
/// hit: the second record (or sync) under it, never the first.
fn second_hit_only(site: &str, action: Action) -> FailSchedule {
    (0..)
        .map(|seed| FailSchedule::new(seed).rule(site, None, action, 0.5, Some(2)))
        .find(|s| s.decide(site, 0, 0).is_none() && s.decide(site, 0, 1) == Some(action))
        .unwrap()
}

/// A `ckpt.write` Partial on the middle record of a batch tears that
/// record only: it is rolled back to the end of the record before it
/// (which was written in the same batch, so not yet durable), the
/// records after it land, and the batch's one sync makes the rest
/// durable.
#[test]
fn partial_write_inside_a_batch_rolls_back_only_that_record() {
    let _guard = registry_lock();
    let path = tmpfile("batch-partial");
    let _ = std::fs::remove_file(&path);

    let mut w = CheckpointWriter::create(&path).unwrap();
    w.record(0, &aln(5, "5=")).unwrap();
    install(second_hit_only("ckpt.write", Action::Partial));
    let batch = [(1, aln(6, "6=")), (2, aln(7, "3=1X3=")), (3, aln(8, "8="))];
    let out = w.record_batch(batch.iter().map(|(i, a)| (*i, a)));
    clear();
    let verdicts: Vec<bool> = out.writes.iter().map(Result::is_ok).collect();
    assert_eq!(verdicts, [true, false, true], "only the torn record fails");
    assert!(out.sync.is_ok(), "the batch still syncs once");
    drop(w);

    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 3, "no torn bytes between records:\n{text}");
    let manifest = Manifest::load(&path).unwrap();
    assert_eq!(
        manifest.completed.keys().copied().collect::<std::collections::BTreeSet<_>>(),
        [0, 1, 3].into_iter().collect(),
    );
    assert!(!manifest.torn_tail);
    std::fs::remove_file(&path).ok();
}

/// A `ckpt.fsync` Error fails the whole batch: every record of it is
/// rolled back to the durable mark, so none of the batch is durable (or
/// left behind to be duplicated), and resubmitting the batch lands one
/// copy of each.
#[test]
fn failed_fsync_leaves_none_of_its_batch_durable() {
    let _guard = registry_lock();
    let path = tmpfile("batch-fsync");
    let _ = std::fs::remove_file(&path);

    let mut w = CheckpointWriter::create(&path).unwrap();
    w.record(0, &aln(3, "3=")).unwrap();
    let durable = std::fs::metadata(&path).unwrap().len();
    install(FailSchedule::new(5).rule("ckpt.fsync", None, Action::Error, 1.0, Some(1)));
    let batch = [(1, aln(4, "2=1I1=")), (2, aln(5, "5=")), (3, aln(1, "1="))];
    let out = w.record_batch(batch.iter().map(|(i, a)| (*i, a)));
    clear();
    assert!(out.writes.iter().all(Result::is_ok), "every record was written");
    assert!(matches!(out.sync, Err(IoError::Io(_))), "the sync failure is typed");
    assert_eq!(std::fs::metadata(&path).unwrap().len(), durable, "rolled back to record 0");
    assert_eq!(Manifest::load(&path).unwrap().completed.len(), 1);

    let retry = w.record_batch(batch.iter().map(|(i, a)| (*i, a)));
    assert!(retry.writes.iter().all(Result::is_ok) && retry.sync.is_ok());
    drop(w);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 4, "the retry must not duplicate a rolled-back line");
    let manifest = Manifest::load(&path).unwrap();
    assert_eq!(manifest.duplicates, 0);
    assert_eq!(manifest.completed[&1], aln(4, "2=1I1="));
    std::fs::remove_file(&path).ok();
}

/// The full crash-recovery story: a run tears mid-record and dies
/// without any rollback (simulating `kill -9` between the torn write and
/// the cleanup), and the next process's `append` + [`Manifest::load`]
/// still recover every durable record.
#[test]
fn append_recovers_from_a_torn_tail_left_by_a_dead_process() {
    let _guard = registry_lock();
    let path = tmpfile("torn-tail");
    let _ = std::fs::remove_file(&path);

    {
        let mut w = CheckpointWriter::create(&path).unwrap();
        w.record(0, &aln(5, "5=")).unwrap();
        w.record(1, &aln(6, "6=")).unwrap();
    }
    // Simulate the kill: append raw torn bytes behind the writer's back,
    // exactly what a died-mid-write process leaves when rollback never
    // ran.
    let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(b"2\t9\t9").unwrap();
    drop(f);

    let loaded = Manifest::load(&path).unwrap();
    assert!(loaded.torn_tail, "load must flag the tear");
    assert_eq!(loaded.completed.len(), 2);

    // The resume path: append truncates the tear, new records follow.
    let mut w = CheckpointWriter::append(&path).unwrap();
    w.record(2, &aln(9, "9=")).unwrap();
    drop(w);

    let healed = Manifest::load(&path).unwrap();
    assert!(!healed.torn_tail);
    assert_eq!(healed.completed.len(), 3);
    assert_eq!(healed.completed[&2], aln(9, "9="));
    std::fs::remove_file(&path).ok();
}

/// When the rollback itself fails, the writer poisons itself: every
/// further `record` returns a typed error without touching the sink, so
/// the damage stays bounded to one torn final line.
#[test]
fn failed_rollback_poisons_the_writer() {
    let _guard = registry_lock();

    /// Sink whose writes fail after a byte budget and whose rollback
    /// always fails — the double-fault path.
    struct BrokenSink {
        data: Vec<u8>,
        budget: usize,
    }
    impl Write for BrokenSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.data.extend_from_slice(&buf[..n]);
            if n < buf.len() {
                return Err(std::io::Error::other("budget exhausted"));
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    impl RecordSink for BrokenSink {
        fn rollback(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("rollback unavailable"))
        }
    }

    let mut w = CheckpointWriter::new(BrokenSink { data: Vec::new(), budget: 4 });
    match w.record(0, &aln(5, "5=")) {
        Err(IoError::Io(_)) => {}
        other => panic!("budget-exhausted write reported {other:?}"),
    }
    // Poisoned: the next record fails typed without writing anything.
    match w.record(1, &aln(6, "6=")) {
        Err(IoError::Io(e)) => {
            assert!(e.to_string().contains("poisoned"), "unexpected error: {e}");
        }
        other => panic!("poisoned writer reported {other:?}"),
    }
}
