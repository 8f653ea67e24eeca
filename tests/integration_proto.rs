//! Property tests for the framed wire protocol: `read_frame` /
//! `write_frame` must round-trip any payload through any chunking of the
//! byte stream, turn every malformed or truncated stream into a *typed*
//! [`ProtoError`] without desynchronizing, and never block on input that
//! is already fully in memory (the in-memory readers here are finite, so
//! a hang would be an unbounded-read bug, not a timeout artifact).

use proptest::prelude::*;
use smx::server::proto::{read_frame, write_frame, ProtoError, Request, MAX_FRAME};
use smx::server::tenant::Priority;
use std::io::{Read, Write};

/// Reader that hands out the buffer in caller-chosen chunk sizes,
/// cycling through `chunks`: exercises the partial-header and
/// partial-payload paths of `read_frame`, which a `Cursor` (always
/// returning everything at once) never reaches.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    turn: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> ChunkedReader {
        ChunkedReader { data, pos: 0, chunks, turn: 0 }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.chunks[self.turn % self.chunks.len()].max(1);
        self.turn += 1;
        let n = step.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Writer that accepts at most `step` bytes per `write` call, forcing
/// `write_all` inside `write_frame` to loop across chunk boundaries.
struct ShortWriter {
    data: Vec<u8>,
    step: usize,
}

impl Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.step.max(1).min(buf.len());
        self.data.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Payload alphabet covering the wire format's interesting bytes: field
/// separators (tabs), the STATS newline case, multi-byte UTF-8, and
/// plain text.
fn payload_from(picks: &[usize]) -> String {
    const ATOMS: [&str; 8] = ["A", "z", "9", "\t", "\n", "é", "→", " "];
    picks.iter().map(|&p| ATOMS[p % ATOMS.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any frame sequence round-trips through any read chunking.
    #[test]
    fn frames_round_trip_across_chunk_boundaries(
        picks in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 0..40), 1..5),
        chunks in proptest::collection::vec(1usize..7, 1..6),
    ) {
        let payloads: Vec<String> = picks.iter().map(|p| payload_from(p)).collect();
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut r = ChunkedReader::new(wire, chunks);
        for p in &payloads {
            prop_assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(p.as_str()));
        }
        // Clean EOF *between* frames is the one non-error end state.
        prop_assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// A writer that takes arbitrarily few bytes per call still emits
    /// the exact same wire bytes as an unconstrained one.
    #[test]
    fn short_writes_produce_identical_wire_bytes(
        picks in proptest::collection::vec(0usize..8, 0..200),
        step in 1usize..9,
    ) {
        let payload = payload_from(&picks);
        let mut direct = Vec::new();
        write_frame(&mut direct, &payload).unwrap();
        let mut short = ShortWriter { data: Vec::new(), step };
        write_frame(&mut short, &payload).unwrap();
        prop_assert_eq!(short.data, direct);
    }

    /// Truncating the stream anywhere inside a frame — mid-header or
    /// mid-payload — yields a typed I/O error, never a hang and never a
    /// silently short payload.
    #[test]
    fn truncation_inside_a_frame_is_a_typed_error(
        picks in proptest::collection::vec(0usize..8, 1..60),
        cut_pick in 0usize..10_000,
        chunks in proptest::collection::vec(1usize..5, 1..4),
    ) {
        let payload = payload_from(&picks);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        // Cut strictly inside the frame: after at least one byte, before
        // the last.
        let cut = 1 + cut_pick % (wire.len() - 1);
        wire.truncate(cut);
        let mut r = ChunkedReader::new(wire, chunks);
        match read_frame(&mut r) {
            Err(ProtoError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => prop_assert!(false, "truncated frame produced {other:?}"),
        }
    }

    /// A header announcing more than [`MAX_FRAME`] bytes is rejected as
    /// `Oversized` before any payload is read: the reader must not
    /// trust the peer's length for its allocation.
    #[test]
    fn oversized_header_is_rejected_without_reading_payload(
        extra in 1u64..u64::from(u32::MAX) - MAX_FRAME as u64,
    ) {
        let announced = (MAX_FRAME as u64 + extra) as u32;
        // Header only — if read_frame tried to consume the payload it
        // would report EOF instead of the required Oversized.
        let wire = announced.to_be_bytes().to_vec();
        match read_frame(&mut ChunkedReader::new(wire, vec![2])) {
            Err(ProtoError::Oversized(n)) => prop_assert_eq!(n, announced as usize),
            other => prop_assert!(false, "oversized header produced {other:?}"),
        }
    }

    /// Invalid UTF-8 payloads surface as `NotUtf8`, and the reader stays
    /// framed: the next frame on the stream is still readable.
    #[test]
    fn non_utf8_payload_is_typed_and_does_not_desync(
        junk in proptest::collection::vec(0u8..=255, 1..40),
        picks in proptest::collection::vec(0usize..8, 0..20),
    ) {
        // Force invalidity regardless of the generated bytes.
        let mut bad = junk;
        bad.push(0xFF);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(bad.len() as u32).to_be_bytes());
        wire.extend_from_slice(&bad);
        let follow = payload_from(&picks);
        write_frame(&mut wire, &follow).unwrap();
        let mut r = ChunkedReader::new(wire, vec![3, 1, 7]);
        prop_assert!(matches!(read_frame(&mut r), Err(ProtoError::NotUtf8)));
        prop_assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(follow.as_str()));
    }

    /// Arbitrary byte soup never panics the reader and always terminates
    /// with `Ok` or a typed error (the reader is finite, so returning at
    /// all proves no unbounded blocking read).
    #[test]
    fn garbage_streams_terminate_with_ok_or_typed_error(
        soup in proptest::collection::vec(0u8..=255, 0..120),
        chunks in proptest::collection::vec(1usize..6, 1..5),
    ) {
        let mut r = ChunkedReader::new(soup, chunks);
        // Drain at most a bounded number of frames; garbage decodes to
        // at most len/4 zero-length frames before EOF or an error.
        let mut finished = false;
        for _ in 0..=120 {
            match read_frame(&mut r) {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => {
                    finished = true;
                    break;
                }
            }
        }
        prop_assert!(finished, "reader neither finished nor errored");
    }

    /// Request encode/parse round-trips for identifier-shaped fields and
    /// sequence payloads (the tab-separated format's own property).
    #[test]
    fn request_encode_parse_round_trips(
        id in 0usize..1_000_000,
        qp in proptest::collection::vec(0usize..4, 1..80),
        rp in proptest::collection::vec(0usize..4, 1..80),
        deadline in 0u64..100_000,
    ) {
        const BASES: [&str; 4] = ["A", "C", "G", "T"];
        let seq = |p: &[usize]| -> String { p.iter().map(|&i| BASES[i]).collect() };
        let reqs = [
            Request::Hello {
                session: format!("s-{id}"),
                tenant: format!("t{}", id % 7),
                priority: if id % 2 == 0 { Priority::Normal } else { Priority::Low },
                deadline_ms: deadline,
            },
            Request::Pair { id, query: seq(&qp), reference: seq(&rp) },
            Request::Bye,
        ];
        for req in reqs {
            let encoded = req.encode();
            prop_assert_eq!(Request::parse(&encoded).unwrap(), req);
        }
    }
}

/// Oversized payloads are refused on the *write* side too, before any
/// byte hits the wire — the peer never sees a torn giant frame.
#[test]
fn oversized_payload_refused_before_any_byte_is_written() {
    let big = "x".repeat(MAX_FRAME + 1);
    let mut wire = Vec::new();
    match write_frame(&mut wire, &big) {
        Err(ProtoError::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
        other => panic!("oversized write produced {other:?}"),
    }
    assert!(wire.is_empty(), "refused frame leaked {} bytes", wire.len());
}

/// EOF exactly on a frame boundary is a clean end of stream; one byte
/// later it is a mid-frame death. The boundary case is load-bearing for
/// the server's shutdown path (clients that Bye and close).
#[test]
fn eof_on_frame_boundary_is_clean() {
    let mut wire = Vec::new();
    write_frame(&mut wire, "PING").unwrap();
    let full = wire.clone();
    let mut r = ChunkedReader::new(full, vec![1]);
    assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("PING"));
    assert!(read_frame(&mut r).unwrap().is_none());

    wire.push(0); // one stray header byte, then EOF
    let mut r = ChunkedReader::new(wire, vec![2]);
    assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("PING"));
    match read_frame(&mut r) {
        Err(ProtoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("stray header byte produced {other:?}"),
    }
}

/// Writer that counts `write` and `flush` calls and keeps every byte.
#[derive(Default)]
struct CountingWriter {
    data: Vec<u8>,
    writes: usize,
    flushes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.data.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

/// Header and payload leave in one `write`, so a raw socket with
/// `TCP_NODELAY` sends a frame as one segment.
#[test]
fn each_frame_is_one_write() {
    let pair = Request::Pair { id: 7, query: "ACGT".repeat(38), reference: "ACGA".repeat(37) };
    for payload in [String::new(), "PING".to_string(), pair.encode(), "é".repeat(4096)] {
        let mut w = CountingWriter::default();
        write_frame(&mut w, &payload).unwrap();
        assert_eq!((w.writes, w.flushes), (1, 1), "{}-byte payload", payload.len());
        let header = (payload.len() as u32).to_be_bytes();
        assert_eq!(w.data, [&header[..], payload.as_bytes()].concat());
    }
}
