//! A minimal HTTP/1.1 client for the daemon's API: one request per
//! connection (the daemon always answers `Connection: close`), with the
//! response body counted byte by byte as it is read.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Counts the bytes read through it.
pub struct ReadCounter<R> {
    inner: R,
    bytes: u64,
}

impl<R> ReadCounter<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        Self { inner, bytes: 0 }
    }

    /// Bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }
}

impl<R: Read> Read for ReadCounter<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// A response: status, and either the body or only its length.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The body, when kept.
    pub body: String,
    /// Body length in bytes (kept or not).
    pub body_bytes: u64,
}

/// No response may take longer than this; a stuck daemon fails the run
/// instead of hanging it.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Sends one request to `127.0.0.1:port`. With `keep_body` false the
/// body is counted and dropped (journal streams).
///
/// # Errors
///
/// Any socket error, a timeout, or a malformed status line.
pub fn call(port: u16, method: &str, path: &str, body: &str, keep_body: bool) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" {
            break;
        }
    }
    let mut counted = ReadCounter::new(reader);
    let mut body = String::new();
    if keep_body {
        counted.read_to_string(&mut body)?;
    } else {
        io::copy(&mut counted, &mut io::sink())?;
    }
    Ok(Reply {
        status,
        body,
        body_bytes: counted.bytes_read(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_counter_counts_every_byte() {
        let mut r = ReadCounter::new(&b"hello, world"[..]);
        let mut buf = [0u8; 5];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(r.bytes_read(), 5);
        io::copy(&mut r, &mut io::sink()).unwrap();
        assert_eq!(r.bytes_read(), 12);
    }
}
