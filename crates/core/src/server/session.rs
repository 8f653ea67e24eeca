//! Crash-consistent server sessions.
//!
//! A persistent session is a checkpoint manifest on disk, one per
//! session ID, written through [`smx_io::checkpoint::CheckpointWriter`]
//! — append-only and checksummed, one `write` per record and one fsync
//! per batch of records, before any ack of that batch. The server acks a
//! pair (`RESULT`) only after its record is durable, so the invariant
//! the storm harness asserts — *no pair acked to a client but absent
//! after a crash* — holds across `kill -9` at any byte: a record is
//! either fully on disk (and will be replayed on resume) or was never
//! acked (and the client re-submits it). The connection's writer
//! (`writer.rs`) decides the batches.
//!
//! Resume is idempotent by construction: re-submitting a completed pair
//! replays the recorded alignment byte-identically without recomputing,
//! and a torn final record (the line the crash interrupted) is truncated
//! away on reopen, with a one-line warning naming the byte offset.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use smx_align_core::Alignment;
use smx_io::checkpoint::{CheckpointWriter, Manifest, SyncFile};
use smx_io::IoError;

/// One open session: the pairs already completed (for replay) and the
/// durable writer for new completions.
#[derive(Debug)]
pub struct Session {
    /// Session ID (`-` for ephemeral).
    pub id: String,
    /// Completed pairs by client pair ID, replayed on re-submission.
    pub completed: HashMap<usize, Alignment>,
    /// The manifest new completions are recorded in, in batches; `None`
    /// for an ephemeral session. The caller must *not* ack a pair whose
    /// record or batch sync failed.
    pub manifest: Option<CheckpointWriter<SyncFile>>,
}

impl Session {
    /// Whether completions are written to a durable manifest.
    #[must_use]
    pub fn durable(&self) -> bool {
        self.manifest.is_some()
    }
}

/// The session registry: maps session IDs to manifest files under one
/// directory and enforces single-connection exclusivity.
#[derive(Debug)]
pub struct SessionStore {
    dir: Option<PathBuf>,
    resume: bool,
    /// Sessions opened during this process lifetime: reopening one of
    /// these always resumes (same-process reconnect), regardless of the
    /// cross-restart `resume` flag.
    seen: HashSet<String>,
    /// Sessions currently held by a live connection.
    active: HashSet<String>,
}

/// Something found while resuming a manifest that the operator should
/// see but that does not fail the open: resume heals it and carries on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeWarning {
    /// A torn final record was discarded; the manifest was truncated
    /// back to this byte offset.
    TornTail {
        /// Byte offset where the torn line started.
        offset: u64,
    },
    /// Records whose pair id appeared more than once (a healed torn
    /// tail re-appended over an older manifest); each duplicate was
    /// deduped to the last durable record instead of replaying twice.
    DuplicateRecords {
        /// Superseded records dropped by the dedupe.
        count: u64,
    },
}

impl std::fmt::Display for ResumeWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeWarning::TornTail { offset } => write!(
                f,
                "discarded a torn final record; manifest truncated to byte offset {offset}"
            ),
            ResumeWarning::DuplicateRecords { count } => {
                write!(f, "deduped {count} duplicate record(s) to the last durable copy")
            }
        }
    }
}

/// Why a session could not be opened.
#[derive(Debug)]
pub enum SessionError {
    /// Another live connection holds this session.
    Busy,
    /// The manifest failed to load or open.
    Io(IoError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Busy => f.write_str("session is held by another connection"),
            SessionError::Io(e) => write!(f, "session manifest: {e}"),
        }
    }
}

impl SessionStore {
    /// A store over `dir` (`None` = every session is ephemeral).
    /// `resume` honors manifests left by a previous process; without it
    /// a fresh process truncates them on first open.
    #[must_use]
    pub fn new(dir: Option<PathBuf>, resume: bool) -> SessionStore {
        SessionStore { dir, resume, seen: HashSet::new(), active: HashSet::new() }
    }

    /// The manifest path for `session`, when the store is durable.
    #[must_use]
    pub fn manifest_path(&self, session: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{session}.ckpt")))
    }

    /// Opens (or resumes) `session`. `-` and store-less servers get an
    /// ephemeral in-memory session. Anything resume had to heal — a
    /// torn final record truncated away, duplicate records deduped to
    /// the last durable copy — is reported through `warn`.
    ///
    /// # Errors
    ///
    /// [`SessionError::Busy`] when a live connection holds the session;
    /// [`SessionError::Io`] for manifest load/open failures.
    pub fn open(
        &mut self,
        session: &str,
        warn: &mut dyn FnMut(ResumeWarning),
    ) -> Result<Session, SessionError> {
        if session == "-" || self.dir.is_none() {
            return Ok(Session {
                id: session.to_string(),
                completed: HashMap::new(),
                manifest: None,
            });
        }
        if !self.active.insert(session.to_string()) {
            return Err(SessionError::Busy);
        }
        // LINT: allow(panic) the in-memory early return above guarantees dir is Some here
        let path = self.manifest_path(session).expect("durable store has a dir");
        let resume = self.resume || self.seen.contains(session);
        self.seen.insert(session.to_string());
        match self.open_durable(&path, resume, warn) {
            Ok(s) => Ok(Session { id: session.to_string(), completed: s.0, manifest: Some(s.1) }),
            Err(e) => {
                self.active.remove(session);
                Err(SessionError::Io(e))
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn open_durable(
        &self,
        path: &Path,
        resume: bool,
        warn: &mut dyn FnMut(ResumeWarning),
    ) -> Result<(HashMap<usize, Alignment>, CheckpointWriter<SyncFile>), IoError> {
        if resume {
            let manifest = Manifest::load(path)?;
            if let Some(offset) = manifest.torn_offset {
                warn(ResumeWarning::TornTail { offset });
            }
            if manifest.duplicates > 0 {
                warn(ResumeWarning::DuplicateRecords { count: manifest.duplicates });
            }
            // `append` truncates the torn tail before writing.
            let writer = CheckpointWriter::append(path)?;
            Ok((manifest.completed, writer))
        } else {
            Ok((HashMap::new(), CheckpointWriter::create(path)?))
        }
    }

    /// Releases a session when its connection closes, making it
    /// reopenable (and same-process resumable).
    pub fn release(&mut self, session: &str) {
        self.active.remove(session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smx_align_core::Cigar;

    fn aln(score: i32, cigar: &str) -> Alignment {
        Alignment { score, cigar: Cigar::parse(cigar).unwrap() }
    }

    fn record(s: &mut Session, id: usize, alignment: &Alignment) {
        s.manifest.as_mut().unwrap().record(id, alignment).unwrap();
    }

    fn temp_store(name: &str, resume: bool) -> SessionStore {
        let dir = std::env::temp_dir().join(format!("smx-session-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        SessionStore::new(Some(dir), resume)
    }

    #[test]
    fn ephemeral_sessions_never_touch_disk() {
        let mut store = SessionStore::new(None, true);
        let s = store.open("anything", &mut |_| panic!("no manifest, no tear")).unwrap();
        assert!(!s.durable());
        assert!(s.completed.is_empty());
        // `-` is ephemeral even on a durable store.
        let mut durable = temp_store("eph", true);
        assert!(!durable.open("-", &mut |_| ()).unwrap().durable());
    }

    #[test]
    fn same_process_reconnect_resumes_without_resume_flag() {
        let mut store = temp_store("reconnect", false);
        let mut s = store.open("s1", &mut |_| ()).unwrap();
        record(&mut s, 0, &aln(5, "5="));
        record(&mut s, 1, &aln(2, "1=1X"));
        drop(s);
        store.release("s1");
        let s = store.open("s1", &mut |_| ()).unwrap();
        assert_eq!(s.completed.len(), 2, "same-process reopen replays the manifest");
        assert_eq!(s.completed[&1], aln(2, "1=1X"));
    }

    #[test]
    fn fresh_process_without_resume_truncates_but_with_resume_replays() {
        let dir;
        {
            let mut store = temp_store("restart", false);
            dir = store.dir.clone().unwrap();
            let mut s = store.open("s1", &mut |_| ()).unwrap();
            record(&mut s, 0, &aln(5, "5="));
        }
        // "New process" with resume: prior records replay.
        let mut resumed = SessionStore::new(Some(dir.clone()), true);
        let s = resumed.open("s1", &mut |_| ()).unwrap();
        assert_eq!(s.completed.len(), 1);
        drop(s);
        // "New process" without resume: manifest is truncated.
        let mut fresh = SessionStore::new(Some(dir), false);
        let s = fresh.open("s1", &mut |_| ()).unwrap();
        assert!(s.completed.is_empty());
    }

    #[test]
    fn torn_tail_on_resume_warns_with_byte_offset() {
        let mut store = temp_store("torn", true);
        let path = store.manifest_path("s1").unwrap();
        {
            let mut s = store.open("s1", &mut |_| ()).unwrap();
            record(&mut s, 0, &aln(5, "5="));
            record(&mut s, 1, &aln(2, "1=1X"));
        }
        store.release("s1");
        // Tear the final record mid-line, as kill -9 would.
        let bytes = std::fs::read(&path).unwrap();
        let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() as u64 + 1;
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let mut warned = Vec::new();
        let s = store.open("s1", &mut |w| warned.push(w)).unwrap();
        assert_eq!(
            warned,
            vec![ResumeWarning::TornTail { offset: second_line }],
            "the warning names the truncation offset"
        );
        assert_eq!(s.completed.len(), 1, "the torn record is gone, the intact one replays");
    }

    #[test]
    fn duplicate_records_dedupe_to_last_and_warn_with_count() {
        // The healed-torn-tail shape: record 1 is written, torn, healed
        // by truncation, then re-appended on the next run — leaving two
        // durable copies of pair 1 (and, here, of pair 0 too).
        let mut store = temp_store("dupes", true);
        {
            let mut s = store.open("s1", &mut |_| ()).unwrap();
            record(&mut s, 0, &aln(5, "5="));
            record(&mut s, 1, &aln(2, "1=1X"));
            record(&mut s, 0, &aln(4, "4="));
            record(&mut s, 1, &aln(3, "3="));
        }
        store.release("s1");
        let mut warned = Vec::new();
        let s = store.open("s1", &mut |w| warned.push(w)).unwrap();
        assert_eq!(
            warned,
            vec![ResumeWarning::DuplicateRecords { count: 2 }],
            "the dedupe is surfaced with its count"
        );
        assert_eq!(s.completed.len(), 2, "each pair replays exactly once");
        assert_eq!(s.completed[&0], aln(4, "4="), "the LAST durable record wins");
        assert_eq!(s.completed[&1], aln(3, "3="));
    }

    #[test]
    fn concurrent_open_of_one_session_is_refused() {
        let mut store = temp_store("busy", true);
        let _held = store.open("s1", &mut |_| ()).unwrap();
        assert!(matches!(store.open("s1", &mut |_| ()), Err(SessionError::Busy)));
        store.release("s1");
        assert!(store.open("s1", &mut |_| ()).is_ok());
    }
}
