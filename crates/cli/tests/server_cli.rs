//! Lifecycle tests for `smx-cli serve`: crash consistency under kill -9
//! (acked pairs survive a restart byte-identically), graceful drain on
//! SIGTERM, and the forced-exit escape hatch on a second signal.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use smx::server::proto::{Request, Response};
use smx::server::tenant::Priority;
use smx::Client;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;
/// Bounds every test client's connect, reads and writes.
const TIMEOUT: Duration = Duration::from_secs(30);

struct ServeProc {
    child: Child,
    addr: std::net::SocketAddr,
}

/// Spawns `smx-cli serve` on an ephemeral port and parses the bound
/// address off its first stdout line.
fn spawn_serve(extra: &[&str]) -> ServeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_smx-cli"))
        .arg("serve")
        .args(["--port", "0", "--config", "dna-edit", "--jobs", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn smx-cli serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("parse bound address");
    ServeProc { child, addr }
}

fn pair(id: usize) -> Request {
    // Distinct per-id sequences so a cross-wired replay would be caught
    // by the score/cigar comparison.
    let query = "ACGTACGTACGTACGT".repeat(1 + id % 3);
    let mut reference = query.clone();
    reference.insert(3, 'T');
    Request::Pair { id, query, reference }
}

#[test]
fn kill_dash_nine_then_resume_replays_every_acked_pair_byte_identically() {
    let dir = std::env::temp_dir().join(format!("smx-serve-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_string_lossy().into_owned();

    let mut proc_ = spawn_serve(&["--checkpoint-dir", &dir_s]);
    let mut client = Client::connect(proc_.addr, TIMEOUT).expect("connect");
    let resumed = client.hello("crashy", "itest", Priority::Normal, 0).expect("hello");
    assert_eq!(resumed, 0, "fresh session must have nothing to resume");

    const PAIRS: usize = 6;
    const ACKS_BEFORE_KILL: usize = 3;
    for id in 0..PAIRS {
        client.send(&pair(id)).unwrap();
    }
    let mut acked: HashMap<usize, (i32, String)> = HashMap::new();
    while acked.len() < ACKS_BEFORE_KILL {
        match client.recv().expect("recv result") {
            Some(Response::Result { id, score, cigar, .. }) => {
                acked.insert(id, (score, cigar));
            }
            Some(Response::Reject { .. }) => {}
            other => panic!("expected RESULT, got {other:?}"),
        }
    }

    // SIGKILL mid-stream: no drain, no flush beyond what fsync already
    // made durable.
    proc_.child.kill().unwrap();
    proc_.child.wait().unwrap();
    drop(client);

    let mut proc_ = spawn_serve(&["--checkpoint-dir", &dir_s, "--resume-sessions"]);
    let mut client = Client::connect(proc_.addr, TIMEOUT).expect("connect");
    let resumed = client.hello("crashy", "itest", Priority::Normal, 0).expect("hello");
    // Zero acked-but-lost: everything the client saw acked must be in
    // the manifest the restart loaded (the server may have recorded a
    // few more whose acks were still in flight).
    assert!(
        resumed >= acked.len() as u64,
        "manifest resumed {resumed} pairs but client held {} acks",
        acked.len()
    );

    for id in 0..PAIRS {
        client.send(&pair(id)).unwrap();
    }
    let mut replayed: HashMap<usize, (i32, String, bool)> = HashMap::new();
    while replayed.len() < PAIRS {
        match client.recv().expect("recv replayed result") {
            Some(Response::Result { id, score, cigar, resumed }) => {
                replayed.insert(id, (score, cigar, resumed));
            }
            other => panic!("expected RESULT, got {other:?}"),
        }
    }
    for (id, (score, cigar)) in &acked {
        let (rs, rc, was_resumed) = &replayed[id];
        assert_eq!((rs, rc.as_str()), (&score.clone(), cigar.as_str()), "pair {id} differs");
        assert!(was_resumed, "acked pair {id} should replay from the manifest, not recompute");
    }

    match client.bye(|frame| panic!("expected DONE, got {frame:?}")).expect("bye") {
        Response::Done { resumed, .. } => assert!(resumed >= acked.len() as u64),
        other => panic!("expected DONE, got {other:?}"),
    }
    proc_.child.kill().ok();
    proc_.child.wait().ok();
}

#[test]
fn sigterm_drains_gracefully_and_reports_per_tenant_counts() {
    let mut proc_ = spawn_serve(&[]);
    let mut client = Client::connect(proc_.addr, TIMEOUT).expect("connect");
    client.hello("-", "itest", Priority::Normal, 0).expect("hello");

    client.send(&pair(0)).unwrap();
    match client.recv().expect("recv result") {
        Some(Response::Result { id: 0, .. }) => {}
        other => panic!("expected RESULT 0, got {other:?}"),
    }

    // SAFETY: kill(2) with the child's real pid and a standard signal;
    // no memory is touched.
    let rc = unsafe { kill(proc_.child.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "kill(SIGTERM) failed");

    // The drain flushes in-flight work and hands every connected
    // session a DONE summary before closing.
    loop {
        match client.recv().expect("recv during drain") {
            Some(Response::Done { completed, .. }) => {
                assert!(completed >= 1);
                break;
            }
            Some(_) => {}
            None => panic!("connection closed without a DONE"),
        }
    }

    let status = proc_.child.wait().expect("wait serve");
    assert!(status.success(), "drain exit should be clean, got {status:?}");
    let mut stderr = String::new();
    use std::io::Read as _;
    proc_.child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(stderr.contains("# drain: totals"), "missing drain totals in stderr: {stderr}");
    assert!(stderr.contains("tenant=itest"), "missing per-tenant drain line: {stderr}");

    // One format: a batch run of the same pair prints its footer through
    // the same tally renderer, so its `# routing:` and `# defenses:`
    // lines carry exactly the drain footer's keys.
    let dir = std::env::temp_dir().join(format!("smx-serve-footer-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let Request::Pair { query, reference, .. } = pair(0) else { unreachable!() };
    let (q, r) = (dir.join("q.fa"), dir.join("r.fa"));
    std::fs::write(&q, format!(">q0\n{query}\n")).unwrap();
    std::fs::write(&r, format!(">r0\n{reference}\n")).unwrap();
    let batch = Command::new(env!("CARGO_BIN_EXE_smx-cli"))
        .args(["align", "--config", "dna-edit", "--jobs", "2"])
        .args([&q, &r])
        .output()
        .expect("run smx-cli align");
    let batch_err = String::from_utf8_lossy(&batch.stderr);
    assert!(batch.status.success(), "batch align failed: {batch_err}");
    let keys = |text: &str, head: &str| -> Vec<String> {
        let line = text
            .lines()
            .find(|l| l.starts_with(head))
            .unwrap_or_else(|| panic!("no {head:?} line in:\n{text}"));
        line.split_whitespace()
            .filter_map(|w| w.split_once('=').map(|(k, _)| k.to_string()))
            .collect()
    };
    for head in ["# routing:", "# defenses:"] {
        assert_eq!(keys(&batch_err, head), keys(&stderr, head), "{head} keys differ");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second SIGTERM while the drain is still grinding through a slow
/// backlog forces an immediate exit with the documented distinct code
/// (6), instead of blocking until the backlog finishes. Acked pairs are
/// already fsynced, so operators lose nothing by pulling this cord.
#[test]
fn second_sigterm_mid_drain_forces_exit_with_distinct_code() {
    let mut proc_ = spawn_serve(&["--jobs", "1"]);
    let mut client = Client::connect(proc_.addr, TIMEOUT).expect("connect");
    client.hello("-", "itest", Priority::Normal, 0).expect("hello");

    // A backlog big enough that the single worker cannot drain it
    // before the second signal lands: long sequences make each pair an
    // O(m*n) grind, and 32 of them (within the default queue cap of 64)
    // keep the drain busy for well over the 300 ms between the signals
    // even at several GCUPS.
    let query = "ACGTACGTACGTACGT".repeat(750);
    let mut reference = query.clone();
    reference.insert(3, 'T');
    for id in 0..32 {
        client
            .send(&Request::Pair { id, query: query.clone(), reference: reference.clone() })
            .unwrap();
    }
    // Let the reader pull the pairs off the socket before signalling.
    std::thread::sleep(Duration::from_millis(200));

    // SAFETY: kill(2) with the child's real pid and a standard signal;
    // no memory is touched.
    let rc = unsafe { kill(proc_.child.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "first kill(SIGTERM) failed");
    std::thread::sleep(Duration::from_millis(300));
    // SAFETY: as above.
    let rc = unsafe { kill(proc_.child.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "second kill(SIGTERM) failed");

    let status = proc_.child.wait().expect("wait serve");
    assert_eq!(
        status.code(),
        Some(6),
        "second SIGTERM mid-drain must exit with the documented forced code, got {status:?}"
    );
    let mut stderr = String::new();
    use std::io::Read as _;
    proc_.child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(
        stderr.contains("forcing immediate exit"),
        "missing forced-exit notice in stderr: {stderr}"
    );
    drop(client);
}
