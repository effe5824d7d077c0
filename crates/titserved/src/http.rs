//! A deliberately small HTTP/1.1 layer: exactly what a local prediction
//! service needs and nothing more.
//!
//! One request per connection (`Connection: close` is always sent), no
//! chunked transfer, no keep-alive, no TLS. Requests are parsed from a
//! [`Read`] into a [`Request`]; responses are serialized with a
//! `Content-Length` so clients — including `curl` — can read the body
//! without guessing. This mirrors the repo's shims philosophy: a
//! hand-rolled stand-in instead of a heavyweight dependency, with the
//! protocol surface pinned by unit tests.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Largest accepted request body (a platform spec plus a config — far
/// below this). Oversized requests are refused, not buffered.
pub const MAX_BODY: usize = 4 << 20;

/// Largest accepted request head (request line plus headers). The head
/// is read through a [`Read::take`] of this many bytes, so a client that
/// never sends a newline is refused instead of growing a `String`.
pub const MAX_HEAD: usize = 16 << 10;

/// A parsed HTTP request: method, path, lower-cased headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), upper-case as sent.
    pub method: String,
    /// Request target, e.g. `/predict`.
    pub path: String,
    /// Header map with lower-cased names.
    pub headers: HashMap<String, String>,
    /// Raw request body (may be empty).
    pub body: Vec<u8>,
}

/// Reads one request from `stream`. Returns `Ok(None)` on a clean EOF
/// before any bytes (client connected and left), `Err` on malformed or
/// oversized input.
pub fn read_request<R: Read>(stream: R) -> io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream).take(MAX_HEAD as u64);
    let mut line = String::new();
    if head_line(&mut reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(bad("malformed request line"));
    };
    let (method, path) = (method.to_string(), path.to_string());
    let mut headers = HashMap::new();
    loop {
        let mut hline = String::new();
        if head_line(&mut reader, &mut hline)? == 0 {
            return Err(bad("eof inside headers"));
        }
        let trimmed = hline.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let mut reader = reader.into_inner();
    let len: usize = headers
        .get("content-length")
        .map(|v| v.parse().map_err(|_| bad("bad content-length")))
        .transpose()?
        .unwrap_or(0);
    if len > MAX_BODY {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Serializes one response with `Content-Length` and
/// `Connection: close`. `extra_headers` are emitted verbatim as
/// `name: value` lines (used for the cache-disposition header).
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        _ => "Unknown",
    };
    // One buffer, one write: when a refused request is closed unread the
    // kernel resets the connection and drops whatever it had not sent
    // yet, which would be every piece after the first small write.
    let mut out = Vec::with_capacity(256 + body.len());
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Header map with lower-cased names.
    pub headers: HashMap<String, String>,
    /// Response body.
    pub body: Vec<u8>,
}

/// Reads one response from `stream` (for the built-in client).
pub fn read_response<R: Read>(stream: R) -> io::Result<Response> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("eof before status line"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = HashMap::new();
    loop {
        let mut hline = String::new();
        if reader.read_line(&mut hline)? == 0 {
            return Err(bad("eof inside headers"));
        }
        let trimmed = hline.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let body = match headers.get("content-length") {
        Some(v) => {
            let len: usize = v.parse().map_err(|_| bad("bad content-length"))?;
            if len > MAX_BODY {
                return Err(bad("response body too large"));
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            body
        }
        // Connection-delimited body (we always send content-length,
        // but be liberal in what we accept).
        None => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Reads one line of a request head; a line cut short by the
/// [`MAX_HEAD`] limit is an error, not a truncated header.
fn head_line<R: BufRead>(head: &mut io::Take<R>, line: &mut String) -> io::Result<usize> {
    let n = head.read_line(line)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(bad("request head too large"));
    }
    Ok(n)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let raw = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_request(&raw[..]).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.headers.get("host").unwrap(), "x");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn empty_connection_is_none_not_error() {
        assert!(read_request(&b""[..]).unwrap().is_none());
    }

    #[test]
    fn get_without_body_parses() {
        let raw = b"GET /stats HTTP/1.1\r\n\r\n";
        let req = read_request(&raw[..]).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_body_is_refused() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(read_request(raw.as_bytes()).is_err());
    }

    /// A head that never ends is refused after at most [`MAX_HEAD`] bytes
    /// (plus one buffer of read-ahead), whether it is one endless line or
    /// endless headers; a head of exactly the limit still parses.
    #[test]
    fn oversized_head_is_refused_without_reading_it_all() {
        let endless_line = vec![b'A'; 1 << 20];
        let mut endless_headers = b"GET / HTTP/1.1\r\n".to_vec();
        endless_headers.extend(b"x: y\r\n".repeat(1 << 18));
        for raw in [endless_line, endless_headers] {
            let mut stream = &raw[..];
            let err = read_request(&mut stream).unwrap_err();
            assert_eq!(err.to_string(), "request head too large");
            let consumed = raw.len() - stream.len();
            assert!(consumed <= MAX_HEAD + (8 << 10), "read {consumed} bytes");
        }
        let mut exact = b"GET /stats HTTP/1.1\r\nx: ".to_vec();
        exact.resize(MAX_HEAD - 4, b'y');
        exact.extend(b"\r\n\r\n");
        assert_eq!(exact.len(), MAX_HEAD);
        assert_eq!(read_request(&exact[..]).unwrap().unwrap().path, "/stats");
    }

    #[test]
    fn response_roundtrip() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "application/json",
            &[("x-titserved-cache", "hit")],
            b"{}",
        )
        .unwrap();
        let resp = read_response(&out[..]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-titserved-cache").unwrap(), "hit");
        assert_eq!(resp.headers.get("connection").unwrap(), "close");
        assert_eq!(resp.body, b"{}");
    }
}
