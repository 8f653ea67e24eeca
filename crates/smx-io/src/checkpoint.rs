//! Crash-safe batch checkpoint manifests (DESIGN.md §5.4).
//!
//! A manifest is an append-only text file with one line per *completed*
//! pair. Records are appended in batches: each record is its own
//! `write`, and the batch then takes one sync, before the caller acks any
//! pair of it — so a crash loses at most the records of the batch being
//! written, none of which was acked. A lone record is a batch of one.
//! Each line carries the pair index, the score, the CIGAR, and an FNV-1a
//! checksum of the payload, so resuming can re-emit completed alignments
//! byte-identically without recomputing them — and can detect a
//! corrupted manifest instead of trusting it.
//!
//! Loading is tolerant of exactly one failure mode: a torn *final* line
//! (the crash interrupted the last `write`). Anything malformed earlier
//! in the file is a hard, line-numbered [`IoError::Parse`], because a
//! corrupt middle line means the file was damaged after the fact, not
//! torn by a crash.
//!
//! ```
//! use smx_align_core::{Alignment, Cigar};
//! use smx_io::checkpoint::{CheckpointWriter, Manifest};
//!
//! let mut buf = Vec::new();
//! let mut w = CheckpointWriter::new(&mut buf);
//! let aln = Alignment { score: 3, cigar: Cigar::parse("3=").unwrap() };
//! w.record(0, &aln)?;
//! let batch = w.record_batch([(1, &aln), (2, &aln)]);
//! assert!(batch.sync.is_ok() && batch.writes.iter().all(Result::is_ok));
//! drop(w); // flush-on-drop releases the borrow
//! let manifest = Manifest::parse(&buf[..])?;
//! assert_eq!(manifest.completed[&0], aln);
//! assert_eq!(manifest.completed.len(), 3);
//! assert!(!manifest.torn_tail);
//! # Ok::<(), smx_io::IoError>(())
//! ```

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use smx_align_core::{Alignment, Cigar};

use crate::IoError;

/// FNV-1a 64-bit over the line payload; cheap, dependency-free, and
/// plenty to catch truncation and bit rot in a text manifest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn payload(index: usize, score: i32, cigar: &str) -> String {
    format!("{index}\t{score}\t{cigar}")
}

/// A sink [`CheckpointWriter`] can roll back after a failed record or
/// a failed sync, restoring the invariant a resume depends on: the file
/// is a valid prefix of whole records, at worst followed by one torn
/// *final* line. Without the rollback, the torn bytes of a failed record
/// would merge with the next successful one into a corrupt *middle*
/// line — which [`Manifest::load`] rejects by design, permanently
/// wedging the session.
///
/// The sink keeps two marks: the end of the last *whole* record (a
/// record's `write` landed) and the *durable* mark (a sync landed after
/// it). `flush` is the sync.
pub trait RecordSink: Write {
    /// Marks everything written so far as whole records.
    fn mark_whole(&mut self) {}

    /// Marks every whole record as durable (the sync after it landed).
    fn mark_durable(&mut self) {}

    /// Discards everything past the last whole record: undoes one
    /// failed record and keeps the batch's earlier records.
    ///
    /// # Errors
    ///
    /// Propagates the underlying truncation failure; the caller must
    /// then stop appending (the sink may end in torn bytes).
    fn rollback(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Discards everything past the durable mark: undoes every record
    /// of a batch whose sync failed.
    ///
    /// # Errors
    ///
    /// As [`RecordSink::rollback`].
    fn rollback_unsynced(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// In-memory sinks never fail mid-record; nothing to roll back.
impl RecordSink for Vec<u8> {}

impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn mark_whole(&mut self) {
        (**self).mark_whole()
    }

    fn mark_durable(&mut self) {
        (**self).mark_durable()
    }

    fn rollback(&mut self) -> std::io::Result<()> {
        (**self).rollback()
    }

    fn rollback_unsynced(&mut self) -> std::io::Result<()> {
        (**self).rollback_unsynced()
    }
}

/// A [`File`] whose `flush` also issues `sync_data`, so every batch
/// [`CheckpointWriter::record_batch`] appends (and the flush-on-drop)
/// goes through the OS page cache to the device before any of it is
/// acked. Without the sync, a *machine* crash (as opposed to a process
/// crash) could lose lines the writer had already reported as durable.
/// Tracks its whole-record and durable lengths so a failed record or a
/// failed sync can be truncated away.
#[derive(Debug)]
pub struct SyncFile {
    file: File,
    /// Bytes written so far, including any torn tail from a failure.
    len: u64,
    /// Bytes that form whole records.
    whole: u64,
    /// Bytes fully recorded and synced.
    durable: u64,
}

impl SyncFile {
    fn new(file: File, len: u64) -> SyncFile {
        SyncFile { file, len, whole: len, durable: len }
    }

    /// Truncates the file back to `to` bytes and appends from there.
    fn truncate(&mut self, to: u64) -> std::io::Result<()> {
        self.file.set_len(to)?;
        // Reposition for the non-append (`create`) case; append-mode
        // files ignore the cursor and this is a harmless no-op.
        self.file.seek(SeekFrom::Start(to))?;
        self.len = to;
        self.whole = to;
        Ok(())
    }
}

impl Write for SyncFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Failpoint `ckpt.write`: Error refuses the write outright
        // (ENOSPC-style); Partial commits only half the buffer to the
        // file — a real torn tail the rollback must truncate away —
        // and reports the failure to the caller.
        match smx_failpoint::hit("ckpt.write") {
            Some(smx_failpoint::Injected::Error) => {
                return Err(smx_failpoint::injected_io_error());
            }
            Some(smx_failpoint::Injected::Partial) => {
                let torn = buf.get(..buf.len() / 2).unwrap_or(buf);
                self.file.write_all(torn)?;
                self.len += torn.len() as u64;
                let _ = self.file.sync_data();
                return Err(smx_failpoint::injected_io_error());
            }
            None => {}
        }
        let n = self.file.write(buf)?;
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        // Failpoint `ckpt.fsync` (one hit per batch): the durability
        // barrier fails after the page-cache writes went through — the
        // OS has the bytes but the writer must NOT ack them. Partial
        // degrades to Error here (there is no half of an fsync).
        if smx_failpoint::hit("ckpt.fsync").is_some() {
            return Err(smx_failpoint::injected_io_error());
        }
        self.file.sync_data()
    }
}

impl RecordSink for SyncFile {
    fn mark_whole(&mut self) {
        self.whole = self.len;
    }

    fn mark_durable(&mut self) {
        self.durable = self.whole;
    }

    fn rollback(&mut self) -> std::io::Result<()> {
        self.truncate(self.whole)
    }

    fn rollback_unsynced(&mut self) -> std::io::Result<()> {
        self.truncate(self.durable)
    }
}

/// What one [`CheckpointWriter::record_batch`] did to its records.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Each record's own `write`, in order. A record whose write failed
    /// was rolled back alone, to the end of the record before it.
    pub writes: Vec<Result<(), IoError>>,
    /// The batch's one sync, issued when at least one record was
    /// written (`Ok` when none was). On failure every record of the
    /// batch was rolled back to the durable mark: none is durable.
    pub sync: Result<(), IoError>,
}

/// Streams completed pairs into a manifest in batches: each record is
/// its own `write`, and each batch is flushed (and, for file-backed
/// writers, synced) once, so the file is crash-safe at line granularity.
///
/// The I/O-error contract: a record whose `write` fails is rolled back
/// alone, to the previous whole record, and fails only itself; a failed
/// sync rolls the sink back to the last durable mark and fails every
/// record of its batch. The file never holds torn bytes *between* valid
/// records. If a rollback itself fails, the writer poisons itself (every
/// further write and sync errors) and the file ends in at most one torn
/// *final* line, which [`Manifest::load`] and [`CheckpointWriter::append`]
/// recover from.
#[derive(Debug)]
pub struct CheckpointWriter<W: RecordSink> {
    out: W,
    poisoned: bool,
}

impl CheckpointWriter<SyncFile> {
    /// Creates (truncating) a manifest file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: &Path) -> Result<CheckpointWriter<SyncFile>, IoError> {
        Ok(CheckpointWriter::new(SyncFile::new(File::create(path)?, 0)))
    }

    /// Opens `path` for appending (the resume case: completed pairs from
    /// the interrupted run stay valid, new ones are added after them).
    ///
    /// A torn final line left by the crash is truncated away first —
    /// otherwise the tear and the first appended record would merge into
    /// one corrupt *middle* line and poison the next load. (A corrupt
    /// line elsewhere in the file already failed the [`Manifest::load`]
    /// the resume flow does before appending.)
    ///
    /// # Errors
    ///
    /// Propagates file-open and truncation failures.
    pub fn append(path: &Path) -> Result<CheckpointWriter<SyncFile>, IoError> {
        let valid = match std::fs::read(path) {
            Ok(bytes) => valid_prefix_len(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(IoError::Io(e)),
        };
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        file.set_len(valid as u64)?;
        Ok(CheckpointWriter::new(SyncFile::new(file, valid as u64)))
    }
}

impl<W: RecordSink> CheckpointWriter<W> {
    /// Wraps any sink (tests use a `Vec<u8>`).
    pub fn new(out: W) -> CheckpointWriter<W> {
        CheckpointWriter { out, poisoned: false }
    }

    /// Appends one completed pair and syncs it: the one-record batch.
    ///
    /// # Errors
    ///
    /// Returns a typed [`IoError`] on a write or sync failure, after
    /// rolling the sink back to the previous record (see the type-level
    /// contract). A poisoned writer fails every call without touching
    /// the sink.
    pub fn record(&mut self, index: usize, alignment: &Alignment) -> Result<(), IoError> {
        let BatchOutcome { writes, sync } = self.record_batch([(index, alignment)]);
        writes.into_iter().try_for_each(|w| w)?;
        sync
    }

    /// Appends a batch of completed pairs, each its own `write`, then
    /// flushes and (when file-backed) syncs once. A pair of the batch is
    /// durable exactly when its write and the batch's sync both
    /// succeeded; see [`BatchOutcome`] and the type-level contract.
    pub fn record_batch<'a>(
        &mut self,
        records: impl IntoIterator<Item = (usize, &'a Alignment)>,
    ) -> BatchOutcome {
        let writes: Vec<Result<(), IoError>> = records
            .into_iter()
            .map(|(index, alignment)| self.write_record(index, alignment))
            .collect();
        let sync = if writes.iter().any(Result::is_ok) { self.sync() } else { Ok(()) };
        BatchOutcome { writes, sync }
    }

    fn poison_error() -> IoError {
        IoError::Io(std::io::Error::other(
            "checkpoint writer poisoned by an earlier unrecoverable write failure",
        ))
    }

    /// One record's `write`; a failure rolls back to the last whole
    /// record.
    fn write_record(&mut self, index: usize, alignment: &Alignment) -> Result<(), IoError> {
        if self.poisoned {
            return Err(Self::poison_error());
        }
        let cigar = alignment.cigar.to_string();
        let body = payload(index, alignment.score, &cigar);
        let sum = fnv1a64(body.as_bytes());
        let line = format!("{body}\t{sum:016x}\n");
        match self.out.write_all(line.as_bytes()) {
            Ok(()) => {
                self.out.mark_whole();
                Ok(())
            }
            Err(e) => {
                if self.out.rollback().is_err() {
                    self.poisoned = true;
                }
                Err(IoError::Io(e))
            }
        }
    }

    /// The batch's flush and sync; a failure rolls back to the durable
    /// mark.
    fn sync(&mut self) -> Result<(), IoError> {
        if self.poisoned {
            return Err(Self::poison_error());
        }
        match self.out.flush() {
            Ok(()) => {
                self.out.mark_durable();
                Ok(())
            }
            Err(e) => {
                if self.out.rollback_unsynced().is_err() {
                    self.poisoned = true;
                }
                Err(IoError::Io(e))
            }
        }
    }
}

impl<W: RecordSink> Drop for CheckpointWriter<W> {
    fn drop(&mut self) {
        // Every successful batch already flushed and every failed record
        // or sync rolled back, so this only matters for a poisoned writer whose
        // sink may still hold torn bytes the OS has not synced. Errors
        // here have nowhere to go — the next load's checksums catch the
        // damage.
        if !self.poisoned {
            return;
        }
        let _ = self.out.flush();
    }
}

/// A loaded manifest: the completed pairs, and whether the final line
/// was torn by a crash.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Completed pairs by batch index. A pair recorded twice (a resume
    /// appended over an older manifest) keeps the *last* record.
    pub completed: HashMap<usize, Alignment>,
    /// Records whose index appeared earlier in the file (each one
    /// superseded by the later record). A healed torn tail that was
    /// re-appended produces exactly this shape; callers resuming should
    /// surface the count so the dedupe is visible, not silent.
    pub duplicates: u64,
    /// Whether a torn final line was discarded.
    pub torn_tail: bool,
    /// Byte offset where the torn final line starts — the truncation
    /// point a resume will cut back to. `None` when nothing was torn.
    /// Callers resuming over a tear should log this offset so the
    /// discarded record is visible in the run's record, not silent.
    pub torn_offset: Option<u64>,
}

impl Manifest {
    /// Parses a manifest from a reader.
    ///
    /// # Errors
    ///
    /// [`IoError::Parse`] with the 1-based line number for any malformed
    /// line that is not the final one; I/O errors pass through. A torn
    /// final line is tolerated and flagged in [`Manifest::torn_tail`].
    pub fn parse<R: Read>(reader: R) -> Result<Manifest, IoError> {
        let mut bytes = Vec::new();
        BufReader::new(reader).read_to_end(&mut bytes)?;
        // Line starts by byte offset, so a torn tail can be reported as
        // the exact truncation point a resume will cut back to.
        let mut starts: Vec<usize> = vec![0];
        starts.extend(bytes.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(at, _)| at + 1));
        let mut manifest = Manifest::default();
        let last = starts.len();
        for (lineno, &start) in starts.iter().enumerate() {
            let rest = &bytes[start..];
            let end = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
            let line = std::str::from_utf8(&rest[..end])
                .map(|l| l.strip_suffix('\r').unwrap_or(l))
                .map_err(|_| "line is not valid UTF-8".to_string());
            match line {
                Ok("") => continue,
                Ok(line) => match parse_line(line) {
                    Ok((index, alignment)) => {
                        if manifest.completed.insert(index, alignment).is_some() {
                            manifest.duplicates += 1;
                        }
                        continue;
                    }
                    Err(message) if lineno + 1 == last => {
                        // The crash tore the line being written;
                        // everything before it is intact, so resume from
                        // there — recording where the tear starts.
                        let _ = message;
                    }
                    Err(message) => {
                        return Err(IoError::Parse { line: lineno + 1, message });
                    }
                },
                Err(message) if lineno + 1 == last => {
                    let _ = message;
                }
                Err(message) => {
                    return Err(IoError::Parse { line: lineno + 1, message });
                }
            }
            manifest.torn_tail = true;
            manifest.torn_offset = Some(start as u64);
        }
        Ok(manifest)
    }

    /// Parses the manifest at `path`; a missing file is an empty
    /// manifest (a fresh run that has checkpointed nothing yet).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Manifest::parse`].
    pub fn load(path: &Path) -> Result<Manifest, IoError> {
        match File::open(path) {
            Ok(f) => Manifest::parse(f),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Manifest::default()),
            Err(e) => Err(IoError::Io(e)),
        }
    }
}

fn parse_line(line: &str) -> Result<(usize, Alignment), String> {
    let fields: Vec<&str> = line.split('\t').collect();
    let [index, score, cigar, sum] = fields.as_slice() else {
        return Err(format!("expected 4 tab-separated fields, got {}", fields.len()));
    };
    let expected = u64::from_str_radix(sum, 16).map_err(|_| "unparseable checksum".to_string())?;
    let body = payload_str(index, score, cigar);
    let actual = fnv1a64(body.as_bytes());
    if actual != expected {
        return Err(format!(
            "checksum mismatch: line says {expected:016x}, payload hashes to {actual:016x}"
        ));
    }
    let index: usize = index.parse().map_err(|_| format!("bad pair index {index:?}"))?;
    let score: i32 = score.parse().map_err(|_| format!("bad score {score:?}"))?;
    let cigar = Cigar::parse(cigar).map_err(|e| format!("bad cigar: {e}"))?;
    Ok((index, Alignment { score, cigar }))
}

fn payload_str(index: &str, score: &str, cigar: &str) -> String {
    format!("{index}\t{score}\t{cigar}")
}

/// Length of the longest prefix of `bytes` made of whole, valid manifest
/// lines — the safe point to truncate to before appending.
fn valid_prefix_len(bytes: &[u8]) -> usize {
    let mut end = 0;
    let mut start = 0;
    while let Some(nl) = bytes[start..].iter().position(|&b| b == b'\n') {
        let line = &bytes[start..start + nl];
        let ok = line.is_empty() || std::str::from_utf8(line).is_ok_and(|l| parse_line(l).is_ok());
        if !ok {
            break;
        }
        start += nl + 1;
        end = start;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aln(score: i32, cigar: &str) -> Alignment {
        Alignment { score, cigar: Cigar::parse(cigar).unwrap() }
    }

    fn manifest_bytes(entries: &[(usize, Alignment)]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = CheckpointWriter::new(&mut buf);
        for (i, a) in entries {
            w.record(*i, a).unwrap();
        }
        drop(w);
        buf
    }

    #[test]
    fn roundtrip() {
        let entries = vec![(0, aln(5, "5=")), (3, aln(-2, "2=1X1I1D")), (1, aln(0, "1=1X"))];
        let buf = manifest_bytes(&entries);
        let m = Manifest::parse(&buf[..]).unwrap();
        assert!(!m.torn_tail);
        assert_eq!(m.completed.len(), 3);
        for (i, a) in &entries {
            assert_eq!(&m.completed[i], a);
        }
    }

    #[test]
    fn torn_final_line_is_tolerated_at_any_truncation_point() {
        let entries = vec![(0, aln(5, "5=")), (1, aln(7, "3=2X")), (2, aln(1, "1="))];
        let buf = manifest_bytes(&entries);
        // The full file parses; then any strictly-truncated prefix must
        // also parse, keeping every intact line before the tear.
        for cut in 0..buf.len() {
            let m =
                Manifest::parse(&buf[..cut]).unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
            // Number of complete lines before the cut.
            let whole = buf[..cut].iter().filter(|&&b| b == b'\n').count();
            assert!(m.completed.len() >= whole, "cut {cut}");
        }
    }

    #[test]
    fn corrupt_middle_line_is_a_hard_lined_error() {
        let entries = vec![(0, aln(5, "5=")), (1, aln(7, "3=2X")), (2, aln(1, "1="))];
        let mut buf = manifest_bytes(&entries);
        // Flip a digit inside the second line's score field.
        let line2_start = buf.iter().position(|&b| b == b'\n').unwrap() + 1;
        buf[line2_start] = b'9';
        let err = Manifest::parse(&buf[..]).unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("checksum mismatch"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn duplicate_index_keeps_last_record() {
        let buf = manifest_bytes(&[(4, aln(1, "1=")), (4, aln(9, "9="))]);
        let m = Manifest::parse(&buf[..]).unwrap();
        assert_eq!(m.completed[&4], aln(9, "9="));
    }

    #[test]
    fn append_after_torn_tail_yields_loadable_manifest() {
        let dir = std::env::temp_dir().join("smx-checkpoint-append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.tsv");
        let full = manifest_bytes(&[(0, aln(5, "5=")), (1, aln(7, "3=2X"))]);
        // A crash tore the second line mid-way.
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        let mut w = CheckpointWriter::append(&path).unwrap();
        w.record(1, &aln(7, "3=2X")).unwrap();
        w.record(2, &aln(1, "1=")).unwrap();
        drop(w);
        let m = Manifest::load(&path).unwrap();
        assert!(!m.torn_tail, "the tear must have been truncated away");
        assert_eq!(m.completed.len(), 3);
        assert_eq!(m.completed[&1], aln(7, "3=2X"));
    }

    /// The file-backed version of the cut-at-every-byte property: bytes
    /// produced through the `create` → `record` → sync → drop path must
    /// tolerate a tear at *any* byte offset, and appending over each
    /// tear must truncate it away and yield a clean, loadable manifest.
    #[test]
    fn synced_file_writer_survives_cut_at_every_byte() {
        let dir = std::env::temp_dir().join("smx-checkpoint-cut");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.tsv");
        let entries = vec![(0, aln(5, "5=")), (1, aln(7, "3=2X")), (2, aln(1, "1="))];
        {
            let mut w = CheckpointWriter::create(&path).unwrap();
            for (i, a) in &entries {
                w.record(*i, a).unwrap();
            }
        } // flush-on-drop
        let buf = std::fs::read(&path).unwrap();
        assert_eq!(Manifest::parse(&buf[..]).unwrap().completed.len(), entries.len());

        let torn = dir.join("torn.tsv");
        for cut in 0..buf.len() {
            std::fs::write(&torn, &buf[..cut]).unwrap();
            // Loading the torn file keeps every intact line.
            let m = Manifest::load(&torn).unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
            let whole = buf[..cut].iter().filter(|&&b| b == b'\n').count();
            assert!(m.completed.len() >= whole, "cut {cut}");
            // Appending over the tear truncates it and stays loadable.
            let mut w = CheckpointWriter::append(&torn).unwrap();
            w.record(9, &aln(4, "4=")).unwrap();
            drop(w);
            let m = Manifest::load(&torn).unwrap_or_else(|e| panic!("append at {cut}: {e}"));
            assert!(!m.torn_tail, "cut {cut}: the tear must be gone after append");
            assert_eq!(m.completed[&9], aln(4, "4="), "cut {cut}");
            assert!(m.completed.len() > whole, "cut {cut}");
        }
    }

    /// The cut-at-every-byte property over a manifest written in
    /// batches of one, three and two records: every prefix loads as
    /// exactly its whole records, and flags a torn tail only when the
    /// cut falls inside a record (a cut just before a record's newline
    /// leaves that record whole).
    #[test]
    fn batched_manifest_survives_cut_at_every_byte() {
        let dir = std::env::temp_dir().join("smx-checkpoint-batch-cut");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.tsv");
        let entries: Vec<(usize, Alignment)> =
            (0..6).map(|i| (i, aln(i as i32, &format!("{}=1X", i + 1)))).collect();
        {
            let mut w = CheckpointWriter::create(&path).unwrap();
            for batch in [&entries[..1], &entries[1..4], &entries[4..]] {
                let out = w.record_batch(batch.iter().map(|(i, a)| (*i, a)));
                assert_eq!(out.writes.len(), batch.len());
                assert!(out.writes.iter().all(Result::is_ok) && out.sync.is_ok());
            }
        }
        let buf = std::fs::read(&path).unwrap();
        let ends: Vec<usize> =
            buf.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(at, _)| at + 1).collect();
        assert_eq!(ends.len(), entries.len());
        for cut in 0..=buf.len() {
            let m =
                Manifest::parse(&buf[..cut]).unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
            let unterminated = ends.contains(&(cut + 1));
            let whole = ends.iter().filter(|&&e| e <= cut).count() + usize::from(unterminated);
            let mut ids: Vec<usize> = m.completed.keys().copied().collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..whole).collect::<Vec<_>>(), "cut {cut}");
            for (i, a) in &entries[..whole] {
                assert_eq!(&m.completed[i], a, "cut {cut}");
            }
            let torn = cut > 0 && !ends.contains(&cut) && !unterminated;
            assert_eq!(m.torn_tail, torn, "cut {cut}");
        }
    }

    /// A torn tail is reported with the byte offset where the torn
    /// record starts — exactly the offset `append` truncates back to —
    /// so resume flows can log what was discarded instead of silently
    /// dropping it.
    #[test]
    fn torn_tail_reports_its_byte_offset() {
        let entries = vec![(0, aln(5, "5=")), (1, aln(7, "3=2X"))];
        let buf = manifest_bytes(&entries);
        let line2_start = buf.iter().position(|&b| b == b'\n').unwrap() as u64 + 1;
        // Cut anywhere strictly inside the second record: the tear's
        // reported offset is always the start of that record.
        for cut in (line2_start as usize + 1)..buf.len() - 1 {
            let m = Manifest::parse(&buf[..cut]).unwrap();
            assert!(m.torn_tail, "cut {cut}");
            assert_eq!(m.torn_offset, Some(line2_start), "cut {cut}");
            assert_eq!(m.completed.len(), 1, "cut {cut}");
        }
        // An intact manifest reports no tear and no offset.
        let m = Manifest::parse(&buf[..]).unwrap();
        assert!(!m.torn_tail);
        assert_eq!(m.torn_offset, None);
        // The offset is the point `append` truncates to.
        let dir = std::env::temp_dir().join("smx-checkpoint-offset");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.tsv");
        std::fs::write(&path, &buf[..buf.len() - 3]).unwrap();
        let m = Manifest::load(&path).unwrap();
        assert_eq!(m.torn_offset, Some(line2_start));
        drop(CheckpointWriter::append(&path).unwrap());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), line2_start);
    }

    #[test]
    fn missing_file_is_empty_manifest() {
        let m = Manifest::load(Path::new("/nonexistent/smx-checkpoint-test")).unwrap();
        assert!(m.completed.is_empty());
    }

    #[test]
    fn malformed_field_counts_are_reported() {
        let err = Manifest::parse(&b"0\t1\n1\t1\t1=\tdeadbeef\n"[..]).unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("4 tab-separated fields"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
    }
}
