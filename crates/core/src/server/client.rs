//! The workspace's one client for the framed protocol (DESIGN.md §8.1).
//! The server's own tests, the workspace and CLI integration tests and
//! the storm harnesses all speak through it, so every consumer uses the
//! same encoder, and its frames go through [`write_frame`] and
//! [`read_frame`], where the `proto.*` failpoints see them.

use std::io::{Error, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use super::proto::{read_frame, write_frame, ProtoError, Request, Response};
use super::tenant::Priority;

/// A blocking protocol client. The timeout given at connect bounds the
/// connect and every read and write, so a dead or draining server
/// surfaces as a typed error, never a hang. Never panics.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`; `timeout` bounds the connect and every later
    /// read and write.
    ///
    /// # Errors
    ///
    /// Connection failures as `std::io::Error`.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream })
    }

    /// Opens `session` (`-` for none) as `tenant` at `priority`, with a
    /// per-pair deadline of `deadline_ms` (0 for the server's default);
    /// returns how many pairs the session's manifest already holds.
    ///
    /// # Errors
    ///
    /// Socket and framing errors; a connection closed before the reply
    /// as [`ProtoError::Io`]; any reply other than `OK`, an `ERR`
    /// included, as [`ProtoError::Malformed`].
    pub fn hello(
        &mut self,
        session: &str,
        tenant: &str,
        priority: Priority,
        deadline_ms: u64,
    ) -> Result<u64, ProtoError> {
        let (session, tenant) = (session.to_string(), tenant.to_string());
        self.send(&Request::Hello { session, tenant, priority, deadline_ms })?;
        match self.recv()? {
            Some(Response::Ok { resumed, .. }) => Ok(resumed),
            Some(other) => {
                Err(ProtoError::Malformed(format!("expected OK to HELLO, got {other:?}")))
            }
            None => Err(closed("the HELLO reply")),
        }
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Framing/socket errors as [`ProtoError`].
    pub fn send(&mut self, req: &Request) -> Result<(), ProtoError> {
        write_frame(&mut self.stream, &req.encode())
    }

    /// Receives one response frame (`None` on clean EOF).
    ///
    /// # Errors
    ///
    /// Framing/socket errors as [`ProtoError`].
    pub fn recv(&mut self) -> Result<Option<Response>, ProtoError> {
        match read_frame(&mut self.stream)? {
            Some(payload) => Response::parse(&payload).map(Some),
            None => Ok(None),
        }
    }

    /// Sends `BYE` and reads through the server's `DONE`, which it
    /// returns, handing every frame before it to `each` as it arrives:
    /// by the time an error surfaces, `each` has seen every frame that
    /// came before it. A `BYE` that fails to send still reads on, so
    /// replies already in flight reach `each` too.
    ///
    /// # Errors
    ///
    /// The failed send, else the read that ended the exchange; a
    /// connection closed before `DONE` as [`ProtoError::Io`].
    pub fn bye(&mut self, mut each: impl FnMut(Response)) -> Result<Response, ProtoError> {
        let sent = self.send(&Request::Bye);
        let ended = loop {
            match self.recv() {
                Ok(Some(done @ Response::Done { .. })) => return Ok(done),
                Ok(Some(frame)) => each(frame),
                Ok(None) => break closed("DONE"),
                Err(e) => break e,
            }
        };
        sent.and(Err(ended))
    }

    /// A second handle on the same connection, with the same timeouts:
    /// one thread sends while another receives.
    ///
    /// # Errors
    ///
    /// Socket failures as `std::io::Error`.
    pub fn try_clone(&self) -> std::io::Result<Client> {
        Ok(Client { stream: self.stream.try_clone()? })
    }
}

fn closed(before: &str) -> ProtoError {
    ProtoError::Io(Error::new(
        ErrorKind::UnexpectedEof,
        format!("connection closed before {before}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::SmxDevice;
    use crate::server::{Server, ServerConfig};
    use smx_align_core::{AlignmentConfig, Alphabet, Sequence};
    use std::time::Instant;

    #[test]
    fn session_aligns_then_fails_fast_after_drain() {
        let config = AlignmentConfig::DnaEdit;
        let handle = Server::bind(
            SmxDevice::new(config, 2).unwrap(),
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = handle.addr();
        let timeout = Duration::from_secs(5);
        let mut c = Client::connect(addr, timeout).unwrap();
        assert_eq!(c.hello("-", "unit", Priority::Normal, 0).unwrap(), 0);
        let (query, reference) = ("GATTACAGATTACA", "GATTACACATTACA");
        c.send(&Request::Pair { id: 7, query: query.into(), reference: reference.into() }).unwrap();
        let golden = SmxDevice::new(config, 2)
            .unwrap()
            .align(
                &Sequence::from_text(Alphabet::Dna2, query).unwrap(),
                &Sequence::from_text(Alphabet::Dna2, reference).unwrap(),
            )
            .unwrap();
        match c.recv().unwrap() {
            Some(Response::Result { id, score, cigar, .. }) => {
                assert_eq!((id, score, cigar), (7, golden.score, golden.cigar.to_string()));
            }
            other => panic!("expected RESULT, got {other:?}"),
        }
        drop(c);

        // Accepted before the drain, greeted after it.
        let mut late = Client::connect(addr, timeout).unwrap();
        let _ = handle.drain();
        let t0 = Instant::now();
        let refused = late.hello("-", "unit", Priority::Normal, 0);
        assert!(matches!(refused, Err(ProtoError::Io(_))), "{refused:?}");
        let reopened = Client::connect(addr, timeout)
            .map_err(ProtoError::Io)
            .and_then(|mut c| c.hello("-", "unit", Priority::Normal, 0));
        assert!(reopened.is_err(), "a drained server opened a session");
        assert!(t0.elapsed() < timeout + Duration::from_secs(1), "hello outlived its timeout");
    }
}
