//! Minimal HTTP/1.1 framing shared by the `psca-serve` daemon and the
//! `repro loadgen` client: one request per connection, answered with
//! `Connection: close`.
//!
//! The server side works over any [`Read`] / [`Write`]; callers set
//! socket deadlines themselves, and tests feed byte slices.
//! [`read_request`]'s rules:
//!
//! - the head (request line and headers, up to the blank line) is capped
//!   at [`MAX_HEAD_BYTES`];
//! - the request line needs a method (upper-cased) and a target;
//!   [`Request::path`] drops any `?query`;
//! - [`Request::header`] ignores ASCII case, and the last repeat wins;
//! - only `POST` has a body: exactly `Content-Length` bytes (absent means
//!   empty), where `Content-Length` must parse, must not exceed the
//!   caller's `max_body`, and the body must be UTF-8;
//! - deadline expiry, early close, other read failures, oversize and
//!   malformed input are separate [`FrameError`] variants, each with a
//!   fixed message and status.
//!
//! [`write_response`] sends head and body in one write; [`exchange`] is
//! the matching client.

use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

const HEAD_END: &[u8] = b"\r\n\r\n";

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method.
    pub method: String,
    /// Request target without any `?query`.
    pub path: String,
    /// Header lines after the request line.
    headers: String,
    /// Body (`POST` only).
    pub body: String,
}

impl Request {
    /// The trimmed value of header `name` (ASCII case ignored; the last
    /// repeat wins).
    pub fn header(&self, name: &str) -> Option<&str> {
        let fields = self.headers.split("\r\n").filter_map(|l| l.split_once(':'));
        fields
            .filter(|(n, _)| n.trim().eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim())
            .last()
    }
}

/// Which part of the request a read failure hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Request line and headers.
    Head,
    /// The `Content-Length` body.
    Body,
}

/// Why a request could not be framed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The caller's read deadline expired.
    Timeout(Stage),
    /// The peer closed the connection early.
    Closed(Stage),
    /// Any other read failure.
    ReadFailed(Stage),
    /// The head exceeds [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` exceeds the caller's limit.
    BodyTooLarge {
        /// Declared length.
        len: usize,
        /// The caller's limit.
        max: usize,
    },
    /// Bad request line, `Content-Length` or body encoding; the text
    /// says which.
    Malformed(&'static str),
}

impl FrameError {
    /// The status a server answers with: 408, 413, or else 400.
    pub fn status(&self) -> u16 {
        match self {
            FrameError::Timeout(_) => 408,
            FrameError::HeadTooLarge | FrameError::BodyTooLarge { .. } => 413,
            _ => 400,
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            FrameError::Timeout(Stage::Head) => "read deadline exceeded before request head",
            FrameError::Timeout(Stage::Body) => "read deadline exceeded mid-body",
            FrameError::Closed(Stage::Head) => "connection closed mid-request",
            FrameError::Closed(Stage::Body) => "connection closed mid-body",
            FrameError::ReadFailed(Stage::Head) => "read failed",
            FrameError::ReadFailed(Stage::Body) => "body read failed",
            FrameError::HeadTooLarge => "request head too large",
            FrameError::BodyTooLarge { len, max } => {
                return write!(f, "body of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Malformed(text) => text,
        };
        f.write_str(text)
    }
}

impl std::error::Error for FrameError {}

/// One `read`, classifying failures for `stage`.
fn read_some(r: &mut impl Read, chunk: &mut [u8], stage: Stage) -> Result<usize, FrameError> {
    match r.read(chunk) {
        Ok(0) => Err(FrameError::Closed(stage)),
        Ok(n) => Ok(n),
        // An expired `set_read_timeout`: `WouldBlock` on Unix,
        // `TimedOut` on Windows.
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Err(FrameError::Timeout(stage))
        }
        Err(_) => Err(FrameError::ReadFailed(stage)),
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(HEAD_END.len()).position(|w| w == HEAD_END)
}

/// Reads one request by the module's rules; `max_body` caps a `POST`
/// body.
///
/// # Errors
/// A [`FrameError`] naming what went wrong.
pub fn read_request(r: &mut impl Read, max_body: usize) -> Result<Request, FrameError> {
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let mut scanned = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf[scanned..]) {
            break scanned + pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            break buf.len(); // too long either way: rejected below
        }
        // The terminator may straddle two reads.
        scanned = buf.len().saturating_sub(HEAD_END.len() - 1);
        let n = read_some(r, &mut chunk, Stage::Head)?;
        buf.extend_from_slice(&chunk[..n]);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(FrameError::HeadTooLarge);
    }
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let (request_line, headers) = head.split_once("\r\n").unwrap_or((&head, ""));
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(FrameError::Malformed("malformed request line"));
    };
    let mut request = Request {
        method: method.to_ascii_uppercase(),
        path: target.split('?').next().unwrap_or_default().to_string(),
        headers: headers.to_string(),
        body: String::new(),
    };
    if request.method != "POST" {
        return Ok(request);
    }
    let len = request.header("content-length").map_or(Ok(0), str::parse);
    let len = len.map_err(|_| FrameError::Malformed("malformed Content-Length"))?;
    if len > max_body {
        return Err(FrameError::BodyTooLarge { len, max: max_body });
    }
    let mut body = buf.split_off(head_end + HEAD_END.len());
    while body.len() < len {
        let n = read_some(r, &mut chunk, Stage::Body)?;
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(len);
    request.body =
        String::from_utf8(body).map_err(|_| FrameError::Malformed("body is not UTF-8"))?;
    Ok(request)
}

/// The reason phrase for `status`.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Writes a `Connection: close` response, head and body in one write;
/// `extra_headers` follow `Content-Length`.
///
/// # Errors
/// The write failure.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    w.write_all(finish(head, extra_headers, body).as_bytes())?;
    w.flush()
}

/// Appends `headers`, `Connection: close`, the blank line and `body`.
fn finish(mut head: String, headers: &[(&str, &str)], body: &str) -> String {
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head + "Connection: close\r\n\r\n" + body
}

/// A response as a client reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Everything after the head, lossily decoded.
    pub body: String,
}

impl Response {
    /// Splits a raw response; `None` without a status line or head end.
    pub fn parse(raw: &[u8]) -> Option<Response> {
        let body = &raw[find_head_end(raw)? + HEAD_END.len()..];
        Some(Response {
            status: parse_status(raw)?,
            body: String::from_utf8_lossy(body).into_owned(),
        })
    }
}

/// The status code on a response's first line.
pub fn parse_status(response: &[u8]) -> Option<u16> {
    let line = response.split(|&b| b == b'\r').next()?;
    let line = std::str::from_utf8(line).ok()?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Sends one request to `addr` over a fresh connection, adding `Host`,
/// `Content-Length`, `headers` and `Connection: close`, and reads the
/// response to EOF. `timeout` bounds each read and write.
///
/// # Errors
/// Connection or I/O failure, or an unparseable response.
pub fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
    timeout: Duration,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n",
        body.len()
    );
    stream.write_all(finish(head, headers, body).as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    Response::parse(&raw).ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "bad response"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(raw: &[u8], max_body: usize) -> Result<Request, FrameError> {
        read_request(&mut &raw[..], max_body)
    }

    #[test]
    fn parses_head_headers_and_body() {
        let req = read(
            b"post /v1/predict?x=1 HTTP/1.1\r\nHost: h\r\nCONTENT-length: 5\r\nAccept: a\r\nAccept: b\r\n\r\nhelloEXTRA",
            64,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.header("accept"), Some("b"));
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.header("missing"), None);
        assert_eq!(req.body, "hello");
    }

    #[test]
    fn get_bodies_are_not_read() {
        let req = read(b"GET /healthz HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 0).unwrap();
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    /// Yields `data` one byte per read, so every terminator straddles.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&b, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            buf[0] = b;
            self.0 = rest;
            Ok(1)
        }
    }

    #[test]
    fn terminator_split_across_reads_is_found() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let req = read_request(&mut Trickle(raw), 8).unwrap();
        assert_eq!(req.body, "ok");
    }

    #[test]
    fn framing_errors_are_typed() {
        let cases: [(&[u8], FrameError, u16); 7] = [
            (b"GET /x HTTP/1.1\r\n", FrameError::Closed(Stage::Head), 400),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nab",
                FrameError::Closed(Stage::Body),
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                FrameError::Malformed("malformed Content-Length"),
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\n",
                FrameError::BodyTooLarge { len: 99, max: 16 },
                413,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
                FrameError::Malformed("body is not UTF-8"),
                400,
            ),
            (
                b"GARBAGE\r\n\r\n",
                FrameError::Malformed("malformed request line"),
                400,
            ),
            (b"", FrameError::Closed(Stage::Head), 400),
        ];
        for (raw, want, status) in cases {
            let got = read(raw, 16).unwrap_err();
            assert_eq!(got, want, "{}", String::from_utf8_lossy(raw));
            assert_eq!(got.status(), status);
        }
        let mut huge = b"GET /x HTTP/1.1\r\nX: ".to_vec();
        huge.resize(MAX_HEAD_BYTES + 100, b'a');
        huge.extend_from_slice(b"\r\n\r\n");
        assert_eq!(read(&huge, 0).unwrap_err(), FrameError::HeadTooLarge);
        assert_eq!(FrameError::Timeout(Stage::Body).status(), 408);
    }

    #[test]
    fn response_round_trips_in_one_write() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "application/json",
            &[("traceparent", "t")],
            "{}",
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(out.clone()).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: 2\r\ntraceparent: t\r\nConnection: close\r\n\r\n{}"
        );
        let rsp = Response::parse(&out).unwrap();
        assert_eq!(rsp.status, 429);
        assert_eq!(rsp.body, "{}");
    }

    #[test]
    fn parse_status_reads_the_code() {
        assert_eq!(parse_status(b"HTTP/1.1 200 OK\r\n\r\n"), Some(200));
        assert_eq!(
            parse_status(b"HTTP/1.1 503 Service Unavailable\r\n"),
            Some(503)
        );
        assert_eq!(parse_status(b"garbage"), None);
        assert_eq!(Response::parse(b"HTTP/1.1 200 OK\r\n"), None);
    }
}
