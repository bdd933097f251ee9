//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! Just enough of RFC 7230 for this service: request line + headers +
//! `Content-Length` body on the way in, `Connection: close` responses on
//! the way out (one request per connection — closed-loop clients like
//! `loadgen` reconnect, which keeps the server free of keep-alive timer
//! state). Both directions frame a message by its `Content-Length`, so
//! neither side waits for the other's close, and each message goes out
//! as one buffer in one write, so the peer wakes once per message. Hard
//! limits bound untrusted input: 16 KiB of head, 64 KiB of body.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD: usize = 16 * 1024;

/// Maximum bytes of request body.
pub const MAX_BODY: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased by the client.
    pub method: String,
    /// Request target as sent (path, no normalization).
    pub target: String,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Reads one request from `stream`.
///
/// Returns `Ok(None)` on a clean immediate EOF (the peer connected and
/// went away — the shutdown wake-up does exactly this).
///
/// # Errors
///
/// I/O errors, malformed request heads, and over-limit heads/bodies all
/// surface as `io::Error` (callers drop the connection either way).
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    let Some((head, body)) = read_message(stream, MAX_BODY)? else {
        return Ok(None);
    };
    let request_line = head.split("\r\n").next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts
        .next()
        .ok_or_else(|| bad_input("request line has no target"))?
        .to_string();
    Ok(Some(Request {
        method,
        target,
        body,
    }))
}

/// Reads one message: its head, then exactly `Content-Length` bytes of
/// body (none without the header), at most `max_body` of them. Returns the
/// head text without its blank line, or `None` on a clean immediate EOF.
fn read_message(
    stream: &mut impl Read,
    max_body: usize,
) -> std::io::Result<Option<(String, Vec<u8>)>> {
    let mut bytes = Vec::with_capacity(1024);
    let mut buf = [0u8; 4096];
    let split = loop {
        if let Some(pos) = find_head_end(&bytes) {
            break pos;
        }
        if bytes.len() > MAX_HEAD {
            return Err(bad_input("message head exceeds limit"));
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            if bytes.is_empty() {
                return Ok(None);
            }
            return Err(bad_input("connection closed mid-head"));
        }
        bytes.extend_from_slice(&buf[..n]);
    };
    let head = std::str::from_utf8(&bytes[..split])
        .map_err(|_| bad_input("non-UTF-8 message head"))?
        .to_string();
    let mut content_length = 0usize;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad_input("bad content-length"))?;
            }
        }
    }
    if content_length > max_body {
        return Err(bad_input("message body exceeds limit"));
    }
    let mut body = bytes.split_off(split + 4);
    while body.len() < content_length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(bad_input("connection closed mid-body"));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);
    Ok(Some((head, body)))
}

/// Writes a complete `Connection: close` response: head and body go out
/// as one buffer in one `write_all`, so the peer wakes once per message.
///
/// # Errors
///
/// Propagates stream write errors.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(&message(head, body))?;
    stream.flush()
}

/// `head` followed by `body` in one buffer.
fn message(head: String, body: &[u8]) -> Vec<u8> {
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    message
}

/// One client round-trip: connects to `addr`, sends `method target` with
/// `body` in one write, reads the response head and its `Content-Length`
/// body, returns `(status, response_body)`. It does not wait for the
/// server's close. This is the whole client side of the crate —
/// `loadgen`, the byte-identity tests, and the throughput bench all speak
/// through it.
///
/// # Errors
///
/// Connection and framing errors surface as `io::Error`.
pub fn roundtrip(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(&message(head, body))?;
    stream.flush()?;
    let (head, body) =
        read_message(&mut stream, usize::MAX)?.ok_or_else(|| bad_input("no response head"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_input("no status code"))?;
    Ok((status, body))
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

fn bad_input(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Round-trips one request through a real socket pair: the in-crate
    /// client talking to the in-crate server framing.
    #[test]
    fn request_framing_round_trips_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = read_request(&mut stream).unwrap().unwrap();
            assert_eq!(request.method, "POST");
            assert_eq!(request.target, "/query");
            assert_eq!(request.body, br#"{"x":1}"#);
            write_response(&mut stream, 200, "application/json", b"{\"ok\":true}").unwrap();
        });
        let (status, body) = roundtrip(&addr, "POST", "/query", br#"{"x":1}"#).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
        server.join().unwrap();
    }

    /// The client frames the response by its `Content-Length`, so it
    /// returns while the server still holds the connection open.
    #[test]
    fn roundtrip_returns_before_the_server_closes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done, closed) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream).unwrap().unwrap();
            write_response(&mut stream, 200, "text/plain", b"held open\n").unwrap();
            // Keep the connection until the client has its answer (or
            // long enough that a client reading to EOF fails the test).
            let _ = closed.recv_timeout(std::time::Duration::from_secs(20));
        });
        let started = std::time::Instant::now();
        let (status, body) = roundtrip(&addr, "GET", "/healthz", b"").unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        assert_eq!((status, body.as_slice()), (200, &b"held open\n"[..]));
        done.send(()).unwrap();
        server.join().unwrap();
    }

    /// A writer that accepts every byte and counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write() {
        for (status, body) in [(200, &b"{\"ok\":true}"[..]), (404, b""), (400, b"bad\n")] {
            let mut writer = CountingWriter::default();
            write_response(&mut writer, status, "application/json", body).unwrap();
            assert_eq!(writer.writes, 1, "status {status}");
            let split = find_head_end(&writer.bytes).unwrap();
            assert_eq!(&writer.bytes[split + 4..], body);
            let head = std::str::from_utf8(&writer.bytes[..split]).unwrap();
            assert!(head.starts_with(&format!("HTTP/1.1 {status} ")), "{head}");
            assert!(
                head.contains(&format!("content-length: {}", body.len())),
                "{head}"
            );
        }
    }

    #[test]
    fn immediate_eof_reads_as_none() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            drop(TcpStream::connect(addr).unwrap());
        });
        let (mut stream, _) = listener.accept().unwrap();
        assert_eq!(read_request(&mut stream).unwrap(), None);
        client.join().unwrap();
    }

    #[test]
    fn oversized_body_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let head = format!(
                "POST /query HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY + 1
            );
            stream.write_all(head.as_bytes()).unwrap();
            // Server rejects from the header alone; no need to send the body.
            let mut sink = Vec::new();
            let _ = stream.read_to_end(&mut sink);
        });
        let (mut stream, _) = listener.accept().unwrap();
        assert!(read_request(&mut stream).is_err());
        drop(stream);
        client.join().unwrap();
    }
}
