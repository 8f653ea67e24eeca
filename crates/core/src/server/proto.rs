//! Framed wire protocol for the alignment service front door.
//!
//! Every message is one frame: a 4-byte big-endian payload length
//! followed by a UTF-8 payload of at most [`MAX_FRAME`] bytes. Inside a
//! frame the payload is a single logical message whose fields are
//! tab-separated (sequences never contain tabs); only `STATS` responses
//! carry embedded newlines. Length-prefixed framing keeps the reader
//! state machine trivial — a slow or malicious client can stall only its
//! own connection, and an oversized or malformed frame produces a typed
//! [`ProtoError`] (the server answers `ERR` and closes) instead of
//! desynchronizing the stream.
//!
//! The same encode/parse pairs serve both directions, so the load
//! generator, the CLI tests, and the server itself speak through one
//! implementation and cannot drift apart.

use std::io::{self, Read, Write};

use crate::server::tenant::Priority;

/// Hard cap on one frame's payload, defending the server against a
/// client that announces a multi-gigabyte frame.
pub const MAX_FRAME: usize = 1 << 20;

/// Framing / message-shape errors. I/O errors pass through as
/// [`ProtoError::Io`]; everything else names what the peer got wrong.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer announced a frame larger than [`MAX_FRAME`].
    Oversized(usize),
    /// The payload was not valid UTF-8.
    NotUtf8,
    /// The payload did not parse as a message.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtoError::NotUtf8 => f.write_str("frame payload is not valid UTF-8"),
            ProtoError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) in one `write` and flushes.
///
/// # Errors
///
/// [`ProtoError::Oversized`] for payloads past [`MAX_FRAME`]; I/O errors
/// pass through.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> Result<(), ProtoError> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(ProtoError::Oversized(bytes.len()));
    }
    // Failpoint `proto.write_frame`: Error drops the frame before any
    // byte leaves (connection-level failure); Partial puts the header
    // and half the payload on the wire — the torn frame a peer sees
    // when a sender dies mid-write — then fails. Either way the caller
    // must treat the stream as dead.
    match smx_failpoint::hit("proto.write_frame") {
        Some(smx_failpoint::Injected::Error) => {
            return Err(ProtoError::Io(smx_failpoint::injected_io_error()));
        }
        Some(smx_failpoint::Injected::Partial) => {
            w.write_all(&(bytes.len() as u32).to_be_bytes())?;
            w.write_all(bytes.get(..bytes.len() / 2).unwrap_or(bytes))?;
            w.flush()?;
            return Err(ProtoError::Io(smx_failpoint::injected_io_error()));
        }
        None => {}
    }
    // Header and payload leave in one `write`, so a raw socket with
    // `TCP_NODELAY` sends one segment per frame and the reader wakes once.
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame payload. `Ok(None)` is a clean EOF *between* frames;
/// an EOF mid-frame is an error (the peer died mid-message).
///
/// # Errors
///
/// [`ProtoError::Oversized`] / [`ProtoError::NotUtf8`] for protocol
/// violations; I/O errors (including read timeouts) pass through.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<String>, ProtoError> {
    // Failpoint `proto.read_frame`: Error surfaces a connection-level
    // read failure; Partial is the peer dying mid-frame — exactly the
    // typed UnexpectedEof a torn sender (see `proto.write_frame`)
    // produces on this side of the wire.
    match smx_failpoint::hit("proto.read_frame") {
        Some(smx_failpoint::Injected::Error) => {
            return Err(ProtoError::Io(smx_failpoint::injected_io_error()));
        }
        Some(smx_failpoint::Injected::Partial) => {
            return Err(ProtoError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "failpoint: peer died mid-frame",
            )));
        }
        None => {}
    }
    let mut len = [0u8; 4];
    match r.read(&mut len) {
        Ok(0) => return Ok(None),
        // LINT: allow(panic) n <= 4 because read() filled at most the 4-byte buffer
        Ok(n) => r.read_exact(&mut len[n..])?,
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(ProtoError::Oversized(n));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload).map(Some).map_err(|_| ProtoError::NotUtf8)
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Opens a session: `HELLO <session> <tenant> <priority> <deadline_ms>`.
    /// A session of `-` is ephemeral (no checkpoint manifest, no resume);
    /// a deadline of 0 means "no per-pair deadline".
    Hello {
        /// Session ID (`[A-Za-z0-9._-]+`, or `-` for ephemeral).
        session: String,
        /// Tenant name for admission accounting.
        tenant: String,
        /// Priority class for queueing and brownout.
        priority: Priority,
        /// Default per-pair deadline in milliseconds (0 = none).
        deadline_ms: u64,
    },
    /// Submits one pair: `PAIR <id> <query> <reference>`.
    Pair {
        /// Client-chosen pair index; doubles as the checkpoint key.
        id: usize,
        /// Query sequence text.
        query: String,
        /// Reference sequence text.
        reference: String,
    },
    /// Requests the stats dump: `STATS`.
    Stats,
    /// Ends the session after flushing in-flight pairs: `BYE`.
    Bye,
}

impl Request {
    /// Encodes to a frame payload.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { session, tenant, priority, deadline_ms } => {
                format!("HELLO\t{session}\t{tenant}\t{priority}\t{deadline_ms}")
            }
            Request::Pair { id, query, reference } => format!("PAIR\t{id}\t{query}\t{reference}"),
            Request::Stats => "STATS".to_string(),
            Request::Bye => "BYE".to_string(),
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] naming the defect.
    pub fn parse(payload: &str) -> Result<Request, ProtoError> {
        let mut fields = payload.split('\t');
        let verb = fields.next().unwrap_or("");
        let rest: Vec<&str> = fields.collect();
        match (verb, rest.as_slice()) {
            ("HELLO", [session, tenant, priority, deadline]) => {
                if session.is_empty() || tenant.is_empty() {
                    return Err(ProtoError::Malformed("empty session or tenant".into()));
                }
                if *session != "-"
                    && !session
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
                {
                    return Err(ProtoError::Malformed(format!(
                        "session {session:?} must match [A-Za-z0-9._-]+"
                    )));
                }
                Ok(Request::Hello {
                    session: (*session).to_string(),
                    tenant: (*tenant).to_string(),
                    priority: Priority::parse(priority).ok_or_else(|| {
                        ProtoError::Malformed(format!("unknown priority {priority:?}"))
                    })?,
                    deadline_ms: deadline
                        .parse()
                        .map_err(|_| ProtoError::Malformed(format!("bad deadline {deadline:?}")))?,
                })
            }
            ("PAIR", [id, query, reference]) => Ok(Request::Pair {
                id: id.parse().map_err(|_| ProtoError::Malformed(format!("bad pair id {id:?}")))?,
                query: (*query).to_string(),
                reference: (*reference).to_string(),
            }),
            ("STATS", []) => Ok(Request::Stats),
            ("BYE", []) => Ok(Request::Bye),
            _ => Err(ProtoError::Malformed(format!("unrecognized request {payload:?}"))),
        }
    }
}

/// Why the server refused a pair without running it. Every reject is
/// typed and carries a retry-after hint — a client never sees a silent
/// drop or an unexplained hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's token bucket is empty.
    RateLimit,
    /// The bounded work queue is full.
    QueueFull,
    /// Brownout is refusing low-priority work.
    Brownout,
    /// The server is draining and accepts no new work.
    Draining,
    /// The connection has too many pairs in flight (slow reader).
    Overloaded,
}

impl RejectReason {
    /// Wire token.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::RateLimit => "rate-limit",
            RejectReason::QueueFull => "queue-full",
            RejectReason::Brownout => "brownout",
            RejectReason::Draining => "draining",
            RejectReason::Overloaded => "overloaded",
        }
    }

    /// Parses a wire token.
    #[must_use]
    pub fn parse(s: &str) -> Option<RejectReason> {
        Some(match s {
            "rate-limit" => RejectReason::RateLimit,
            "queue-full" => RejectReason::QueueFull,
            "brownout" => RejectReason::Brownout,
            "draining" => RejectReason::Draining,
            "overloaded" => RejectReason::Overloaded,
            _ => return None,
        })
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a pair failed after admission (as opposed to being rejected
/// before it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The pair's deadline expired (in queue or at a tile boundary).
    Deadline,
    /// The batch token was cancelled (crash or shutdown).
    Cancelled,
    /// An unrecovered integrity violation (fail-closed audit).
    Integrity,
    /// Any other typed alignment error.
    Error,
}

impl FailKind {
    /// Wire token.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FailKind::Deadline => "deadline",
            FailKind::Cancelled => "cancelled",
            FailKind::Integrity => "integrity",
            FailKind::Error => "error",
        }
    }

    /// Parses a wire token.
    #[must_use]
    pub fn parse(s: &str) -> Option<FailKind> {
        Some(match s {
            "deadline" => FailKind::Deadline,
            "cancelled" => FailKind::Cancelled,
            "integrity" => FailKind::Integrity,
            "error" => FailKind::Error,
            _ => return None,
        })
    }
}

impl std::fmt::Display for FailKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Session accepted: `OK <session> <resumed_count>`.
    Ok {
        /// Echoed session ID.
        session: String,
        /// Pairs already completed in the session's manifest.
        resumed: u64,
    },
    /// A completed pair, acked only after its checkpoint record is
    /// durable: `RESULT <id> <score> <cigar> <resumed>`.
    Result {
        /// Echoed pair ID.
        id: usize,
        /// Alignment score.
        score: i32,
        /// CIGAR string.
        cigar: String,
        /// Whether the result was replayed from the manifest.
        resumed: bool,
    },
    /// A typed refusal: `REJECT <id> <reason> <retry_after_ms>`.
    Reject {
        /// Echoed pair ID.
        id: usize,
        /// Why the pair was refused.
        reason: RejectReason,
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// A typed post-admission failure: `FAIL <id> <kind> <detail>`.
    Fail {
        /// Echoed pair ID.
        id: usize,
        /// Failure class.
        kind: FailKind,
        /// Human-readable detail (tabs/newlines stripped).
        detail: String,
    },
    /// Stats dump: `STATS\n<text>`.
    Stats(String),
    /// Session summary on BYE or drain:
    /// `DONE <completed> <failed> <rejected> <resumed>`.
    Done {
        /// Pairs that aligned this session.
        completed: u64,
        /// Pairs that failed after admission.
        failed: u64,
        /// Pairs rejected at admission.
        rejected: u64,
        /// Pairs replayed from the manifest.
        resumed: u64,
    },
    /// Fatal protocol error; the server closes after sending it.
    Err(String),
}

/// Strips characters that would corrupt the tab-separated framing.
fn clean(detail: &str) -> String {
    detail.replace(['\t', '\n', '\r'], " ")
}

impl Response {
    /// Encodes to a frame payload.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            Response::Ok { session, resumed } => format!("OK\t{session}\t{resumed}"),
            Response::Result { id, score, cigar, resumed } => {
                format!("RESULT\t{id}\t{score}\t{cigar}\t{}", u8::from(*resumed))
            }
            Response::Reject { id, reason, retry_after_ms } => {
                format!("REJECT\t{id}\t{reason}\t{retry_after_ms}")
            }
            Response::Fail { id, kind, detail } => {
                format!("FAIL\t{id}\t{kind}\t{}", clean(detail))
            }
            Response::Stats(text) => format!("STATS\n{text}"),
            Response::Done { completed, failed, rejected, resumed } => {
                format!("DONE\t{completed}\t{failed}\t{rejected}\t{resumed}")
            }
            Response::Err(m) => format!("ERR\t{}", clean(m)),
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] naming the defect.
    pub fn parse(payload: &str) -> Result<Response, ProtoError> {
        if let Some(text) = payload.strip_prefix("STATS\n") {
            return Ok(Response::Stats(text.to_string()));
        }
        let mut fields = payload.split('\t');
        let verb = fields.next().unwrap_or("");
        let rest: Vec<&str> = fields.collect();
        let num = |s: &str| -> Result<u64, ProtoError> {
            s.parse().map_err(|_| ProtoError::Malformed(format!("bad number {s:?}")))
        };
        match (verb, rest.as_slice()) {
            ("OK", [session, resumed]) => {
                Ok(Response::Ok { session: (*session).to_string(), resumed: num(resumed)? })
            }
            ("RESULT", [id, score, cigar, resumed]) => Ok(Response::Result {
                id: num(id)? as usize,
                score: score
                    .parse()
                    .map_err(|_| ProtoError::Malformed(format!("bad score {score:?}")))?,
                cigar: (*cigar).to_string(),
                resumed: *resumed == "1",
            }),
            ("REJECT", [id, reason, retry]) => Ok(Response::Reject {
                id: num(id)? as usize,
                reason: RejectReason::parse(reason).ok_or_else(|| {
                    ProtoError::Malformed(format!("unknown reject reason {reason:?}"))
                })?,
                retry_after_ms: num(retry)?,
            }),
            ("FAIL", [id, kind, detail]) => Ok(Response::Fail {
                id: num(id)? as usize,
                kind: FailKind::parse(kind)
                    .ok_or_else(|| ProtoError::Malformed(format!("unknown fail kind {kind:?}")))?,
                detail: (*detail).to_string(),
            }),
            ("STATS", []) => Ok(Response::Stats(String::new())),
            ("DONE", [completed, failed, rejected, resumed]) => Ok(Response::Done {
                completed: num(completed)?,
                failed: num(failed)?,
                rejected: num(rejected)?,
                resumed: num(resumed)?,
            }),
            ("ERR", [m]) => Ok(Response::Err((*m).to_string())),
            _ => Err(ProtoError::Malformed(format!("unrecognized response {payload:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "PAIR\t0\tACGT\tACGA").unwrap();
        write_frame(&mut buf, "BYE").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "PAIR\t0\tACGT\tACGA");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "BYE");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "STATS").unwrap();
        let mut r = &buf[..buf.len() - 2];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_frame_rejected_on_both_sides() {
        let huge = "x".repeat(MAX_FRAME + 1);
        let mut buf = Vec::new();
        assert!(matches!(write_frame(&mut buf, &huge), Err(ProtoError::Oversized(_))));
        // A hostile length prefix is refused before allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = &wire[..];
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Hello {
                session: "s1".into(),
                tenant: "acme".into(),
                priority: Priority::High,
                deadline_ms: 250,
            },
            Request::Pair { id: 7, query: "ACGT".into(), reference: "ACGA".into() },
            Request::Stats,
            Request::Bye,
        ];
        for r in reqs {
            assert_eq!(Request::parse(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Ok { session: "s1".into(), resumed: 3 },
            Response::Result { id: 7, score: -4, cigar: "3=1X".into(), resumed: true },
            Response::Reject { id: 9, reason: RejectReason::RateLimit, retry_after_ms: 40 },
            Response::Fail { id: 2, kind: FailKind::Deadline, detail: "budget 10ms".into() },
            Response::Stats("queue-depth=3\nbrownout=1".into()),
            Response::Done { completed: 5, failed: 1, rejected: 2, resumed: 3 },
            Response::Err("oversized frame".into()),
        ];
        for r in resps {
            assert_eq!(Response::parse(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn malformed_messages_are_typed_errors() {
        for bad in
            ["HELLO\ts1\tacme", "HELLO\ts/1\tacme\thigh\t0", "PAIR\tx\tACGT\tACGA", "NOPE", ""]
        {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
        for bad in ["RESULT\t1\tzz\t3=\t0", "REJECT\t1\tbecause\t0", "FAIL\t1\toops\td", "HM"] {
            assert!(Response::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn fail_detail_with_tabs_survives_framing() {
        let f = Response::Fail { id: 0, kind: FailKind::Error, detail: "a\tb\nc".into() };
        match Response::parse(&f.encode()).unwrap() {
            Response::Fail { detail, .. } => assert_eq!(detail, "a b c"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
