//! Minimal blocking HTTP/1.1 reader/writer.
//!
//! Hand-rolled on purpose: the workspace has no network crates (offline
//! vendoring, see `vendor/README.md`) and the server only needs the subset
//! a JSON API front-end speaks — request line + headers + `Content-Length`
//! bodies, keep-alive, and `Expect: 100-continue`. Everything is bounded
//! ([`Limits`]) so a hostile peer can cost at most a few KiB of buffer per
//! connection, and every malformed input maps to a 4xx/close instead of a
//! panic (`tests/http_robustness.rs` drives those paths over real sockets).

use std::io::{self, BufRead, Read, Write};
use std::time::Instant;

/// Hard caps on what one request may consume.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Longest accepted request line (method + target + version), bytes.
    pub max_request_line: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_line: usize,
    /// Most headers accepted per request.
    pub max_headers: usize,
    /// Largest accepted body, bytes; beyond this → 413.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_headers: 64,
            max_body: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// The request target, e.g. `/query`.
    pub target: String,
    /// Decoded body (empty when the request has none).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Client-supplied per-request deadline from the `x-deadline-ms` header:
    /// milliseconds the client is willing to wait, counted from parse time.
    /// `None` when absent (the request is unbounded).
    pub deadline_ms: Option<u64>,
    /// Client-supplied trace id from the `x-trace-id` header, sanitized to
    /// printable ASCII ≤ 64 bytes (anything else is treated as absent so an
    /// hostile value cannot inject response headers). The server echoes it
    /// and keys the request's spans by it; absent ids are minted.
    pub trace_id: Option<String>,
    /// When the first byte of this request arrived on the socket — the start
    /// of the parse span. Unlike "when `read_request` was called", this
    /// excludes however long the connection sat idle in keep-alive.
    pub received: Option<Instant>,
}

/// Why reading a request failed. [`Self::status`] maps the parse failures
/// to response codes; I/O conditions close the connection instead.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The read timed out before any request byte arrived — the caller
    /// decides whether to keep waiting (keep-alive poll) or give up.
    Idle,
    /// The read timed out (or hit EOF) mid-request.
    Truncated,
    /// Malformed request line / headers / framing → 400.
    BadRequest(&'static str),
    /// Request line over [`Limits::max_request_line`] → 414.
    UriTooLong,
    /// Header section over the limits → 431.
    HeadersTooLarge,
    /// Body over [`Limits::max_body`] → 413.
    PayloadTooLarge,
    /// `Transfer-Encoding` framing the server does not speak → 501.
    UnsupportedEncoding,
    /// Any other socket error.
    Io(io::Error),
}

impl HttpError {
    /// The status line to answer with, when answering is possible.
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::BadRequest(_) => Some((400, "Bad Request")),
            HttpError::UriTooLong => Some((414, "URI Too Long")),
            HttpError::HeadersTooLarge => Some((431, "Request Header Fields Too Large")),
            HttpError::PayloadTooLarge => Some((413, "Payload Too Large")),
            HttpError::UnsupportedEncoding => Some((501, "Not Implemented")),
            HttpError::Truncated => Some((408, "Request Timeout")),
            HttpError::Closed | HttpError::Idle | HttpError::Io(_) => None,
        }
    }
}

/// Most body bytes reserved before any of them has arrived.
const BODY_RESERVE: usize = 64 * 1024;

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one line terminated by `\n` (tolerating a preceding `\r`), bounded
/// by `max` bytes. `started` reports whether any byte of the *request* had
/// been consumed before this line began, which distinguishes an idle
/// keep-alive timeout from a mid-request one.
fn read_line<R: BufRead>(
    reader: &mut R,
    max: usize,
    started: bool,
    over_limit: HttpError,
    first_byte: &mut Option<Instant>,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return Err(if line.is_empty() && !started {
                    HttpError::Closed
                } else {
                    HttpError::Truncated
                });
            }
            Ok(_) => {
                if first_byte.is_none() {
                    *first_byte = Some(Instant::now());
                }
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::BadRequest("non-UTF-8 header data"));
                }
                line.push(byte[0]);
                if line.len() > max {
                    return Err(over_limit);
                }
            }
            Err(e) if is_timeout(&e) => {
                return Err(if line.is_empty() && !started {
                    HttpError::Idle
                } else {
                    HttpError::Truncated
                });
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Reads and parses one request. `writer` is used only to acknowledge
/// `Expect: 100-continue` before the body is read (curl sends it for any
/// body over 1 KiB and waits for the interim response).
pub fn read_request<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    limits: &Limits,
) -> Result<Request, HttpError> {
    let mut received: Option<Instant> = None;
    let request_line = read_line(
        reader,
        limits.max_request_line,
        false,
        HttpError::UriTooLong,
        &mut received,
    )?;

    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::BadRequest("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or(HttpError::BadRequest("missing or relative request target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequest("malformed request line"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadRequest("unsupported HTTP version")),
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive = http11;
    let mut expect_continue = false;
    let mut deadline_ms: Option<u64> = None;
    let mut trace_id: Option<String> = None;
    let mut headers = 0usize;
    loop {
        let line = read_line(
            reader,
            limits.max_header_line,
            true,
            HttpError::HeadersTooLarge,
            &mut received,
        )?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadRequest("header line without ':'"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let parsed: usize = value
                    .parse()
                    .map_err(|_| HttpError::BadRequest("unparseable Content-Length"))?;
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err(HttpError::BadRequest("conflicting Content-Length headers"));
                }
                content_length = Some(parsed);
            }
            "transfer-encoding" if !value.eq_ignore_ascii_case("identity") => {
                return Err(HttpError::UnsupportedEncoding);
            }
            "connection" => {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            }
            "expect" => {
                if value.eq_ignore_ascii_case("100-continue") {
                    expect_continue = true;
                } else {
                    return Err(HttpError::BadRequest("unsupported Expect header"));
                }
            }
            "x-deadline-ms" => {
                deadline_ms = Some(
                    value
                        .parse()
                        .map_err(|_| HttpError::BadRequest("unparseable x-deadline-ms"))?,
                );
            }
            // Echoed into a response header, so only printable ASCII of
            // sane length is honoured; anything else gets a minted id.
            "x-trace-id"
                if !value.is_empty()
                    && value.len() <= 64
                    && value.bytes().all(|b| b.is_ascii_graphic()) =>
            {
                trace_id = Some(value.to_string());
            }
            _ => {}
        }
    }

    let length = content_length.unwrap_or(0);
    if length > limits.max_body {
        return Err(HttpError::PayloadTooLarge);
    }
    // The body grows as its bytes arrive: a header alone never reserves
    // more than `BODY_RESERVE`, whatever length it claims.
    let mut body = Vec::with_capacity(length.min(BODY_RESERVE));
    if length > 0 {
        if expect_continue {
            writer
                .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
                .and_then(|()| writer.flush())
                .map_err(HttpError::Io)?;
        }
        match reader.take(length as u64).read_to_end(&mut body) {
            Ok(n) if n == length => {}
            Ok(_) => return Err(HttpError::Truncated),
            Err(e) if is_timeout(&e) => return Err(HttpError::Truncated),
            Err(e) => return Err(HttpError::Io(e)),
        }
    }

    Ok(Request {
        method,
        target,
        body,
        keep_alive,
        deadline_ms,
        trace_id,
        received,
    })
}

/// Writes one response with correct framing: `content_type` is
/// `application/json` for everything but the `text/plain` `/metrics`
/// exposition, and `extra_headers` (e.g. `Retry-After` on overload
/// responses) are written verbatim — names must be valid as-is.
pub fn write_response_full<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // One write_all, not write!(...) straight to the socket: the format
    // machinery issues a separate small write per fragment, and on an
    // unbuffered TcpStream that interacts with Nagle + delayed ACK to add
    // ~40ms per response.
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        body.len(),
    );
    for (name, value) in extra_headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_bytes(input: &[u8]) -> Result<Request, HttpError> {
        let mut reader = BufReader::new(input);
        let mut sink = Vec::new();
        read_request(&mut reader, &mut sink, &Limits::default())
    }

    #[test]
    fn parses_a_simple_post() {
        let req = parse_bytes(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/query");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse_bytes(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse_bytes(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn malformed_inputs_map_to_4xx() {
        assert!(matches!(
            parse_bytes(b"BROKEN\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"GET /x SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: moo\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::UnsupportedEncoding)
        ));
    }

    #[test]
    fn oversized_inputs_are_rejected_by_limit() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert!(matches!(
            parse_bytes(long_target.as_bytes()),
            Err(HttpError::UriTooLong)
        ));
        let req = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            Limits::default().max_body + 1
        );
        assert!(matches!(
            parse_bytes(req.as_bytes()),
            Err(HttpError::PayloadTooLarge)
        ));
        let many_headers = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            "a: b\r\n".repeat(Limits::default().max_headers + 1)
        );
        assert!(matches!(
            parse_bytes(many_headers.as_bytes()),
            Err(HttpError::HeadersTooLarge)
        ));
    }

    #[test]
    fn truncated_bodies_and_clean_closes_are_distinguished() {
        assert!(matches!(parse_bytes(b""), Err(HttpError::Closed)));
        assert!(matches!(
            parse_bytes(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Truncated)
        ));
        assert!(matches!(
            parse_bytes(b"GET /x HT"),
            Err(HttpError::Truncated)
        ));
    }

    #[test]
    fn expect_continue_is_acknowledged_before_the_body() {
        let input: &[u8] =
            b"POST /q HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok";
        let mut reader = BufReader::new(input);
        let mut interim = Vec::new();
        let req = read_request(&mut reader, &mut interim, &Limits::default()).unwrap();
        assert_eq!(req.body, b"ok");
        assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    #[test]
    fn responses_are_framed_with_content_length() {
        let mut out = Vec::new();
        write_response_full(
            &mut out,
            200,
            "OK",
            "application/json",
            "{\"a\":1}",
            true,
            &[],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }

    #[test]
    fn deadline_header_is_parsed_and_validated() {
        let req = parse_bytes(b"GET /healthz HTTP/1.1\r\nX-Deadline-Ms: 250\r\n\r\n").unwrap();
        assert_eq!(req.deadline_ms, Some(250));
        let req = parse_bytes(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.deadline_ms, None);
        assert!(matches!(
            parse_bytes(b"GET /healthz HTTP/1.1\r\nx-deadline-ms: soon\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut out = Vec::new();
        write_response_full(
            &mut out,
            503,
            "Service Unavailable",
            "application/json",
            "{}",
            false,
            &[("retry-after", "1".to_string())],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
