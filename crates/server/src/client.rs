//! A minimal blocking client for the sweep-server protocol — what the
//! `sweep-load` generator, the CI smoke step and the integration tests
//! all drive the server with.

use crate::json::{self, Json};
use crate::protocol::{read_frame, write_frame};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Connects to `addr`, retrying for up to `wait` (the server may still
/// be binding when a load generator starts). The returned stream has
/// `TCP_NODELAY` set, so a request frame — written in one call by
/// [`write_frame`] — is sent at once instead of waiting on Nagle's
/// algorithm.
///
/// # Errors
/// The last connection error once the deadline passes, or the error
/// from setting `TCP_NODELAY`.
pub fn connect_retry(addr: &str, wait: Duration) -> io::Result<TcpStream> {
    // nplus:allow(DET001): real network retry deadline — nothing simulated depends on this clock.
    let deadline = std::time::Instant::now() + wait;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            // nplus:allow(DET001): same retry deadline (see above).
            Err(e) if std::time::Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Sends one raw JSON request text over an open connection and parses
/// the response frame. The connection stays usable for more requests.
/// The request goes out as one frame in one write; open the stream with
/// [`connect_retry`] so it also has `TCP_NODELAY` set.
///
/// # Errors
/// I/O errors, a connection closed before the response, or a response
/// that is not valid JSON (which would be a server bug).
pub fn roundtrip(stream: &mut TcpStream, request: &str) -> io::Result<Json> {
    write_frame(stream, request.as_bytes())?;
    let payload = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        )
    })?;
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    json::parse(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unparseable response: {e}"),
        )
    })
}

/// One-shot convenience: connect (with a short retry window), send one
/// request, return the parsed response.
///
/// # Errors
/// As [`connect_retry`] and [`roundtrip`].
pub fn request_once(addr: &str, request: &str) -> io::Result<Json> {
    let mut stream = connect_retry(addr, Duration::from_secs(5))?;
    roundtrip(&mut stream, request)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_retry_turns_nagle_off() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stream = connect_retry(&addr, Duration::from_secs(5)).expect("connect");
        assert!(stream.nodelay().expect("read TCP_NODELAY"));
    }
}
