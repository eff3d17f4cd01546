//! A deliberately small HTTP/1.1 subset.
//!
//! HTTP/1.1 keep-alive on a thread-per-connection loop — no chunked bodies,
//! no pipelining, no TLS.  A connection serves requests sequentially until
//! the client sends `Connection: close` (or speaks HTTP/1.0 without opting
//! in), the per-connection request budget runs out, or a streaming response
//! takes over the socket.  That is exactly enough for the job API (and for
//! `curl`), and it keeps the parser small enough to audit: the request line,
//! headers until the blank line, then `Content-Length` bytes of body, with
//! hard caps on line length, header count and body size so a hostile client
//! can neither balloon the server nor hold a handler thread with an endless
//! header block.

use std::io::{self, BufRead, Write};

/// Largest request body the server will buffer.  Training images dominate
/// legitimate payloads; two 256×256 images JSON-encoded as pixel arrays fit
/// comfortably in 8 MiB.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Largest single header line (and request line) the parser accepts.
const MAX_LINE_BYTES: usize = 16 * 1024;

/// Most header lines one request may carry; past it the request is
/// malformed (400).
const MAX_HEADERS: usize = 100;

/// Requests served over one connection before the server closes it anyway —
/// a bound on how long a single client can monopolise a handler thread.
pub const MAX_REQUESTS_PER_CONNECTION: usize = 64;

/// A parsed request: everything a handler needs, nothing transport-level.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// The request target path, query string stripped.
    pub path: String,
    /// The raw query string (empty when the target carried none).
    pub query: String,
    /// The `Accept` header value (empty when absent) — used for content
    /// negotiation on `/metrics`.
    pub accept: String,
    /// The raw body (empty when the request carried none).
    pub body: Vec<u8>,
    /// Whether the client asked for the connection to end after this
    /// exchange: an explicit `Connection: close`, or HTTP/1.0 without a
    /// `Connection: keep-alive` opt-in.
    pub close: bool,
}

/// Why a request could not be parsed, mapped straight to a status code.
#[derive(Debug)]
pub enum RequestError {
    /// Syntactically broken request → 400.
    Malformed(String),
    /// Body over [`MAX_BODY_BYTES`] → 413.
    TooLarge(usize),
    /// The socket died mid-request.
    Io(io::Error),
    /// The client closed the connection cleanly between requests — the
    /// normal end of a keep-alive session, not an error to respond to.
    Closed,
}

impl From<io::Error> for RequestError {
    fn from(err: io::Error) -> Self {
        RequestError::Io(err)
    }
}

/// Reads one request from a (possibly reused) buffered connection.  The
/// reader must persist across requests on the same connection: bytes of the
/// next request may already sit in its buffer after this one's body.
pub(crate) fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, RequestError> {
    // A clean EOF before the first byte of a request is the client ending a
    // keep-alive session, not a malformed request.
    if reader.fill_buf()?.is_empty() {
        return Err(RequestError::Closed);
    }
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line has no target".into()))?;
    // HTTP/1.0 closes by default; 1.1 keeps alive by default.
    let http_10 = match parts.next() {
        Some(version) if version.starts_with("HTTP/1.") => version == "HTTP/1.0",
        _ => {
            return Err(RequestError::Malformed(
                "request line has no HTTP/1.x version".into(),
            ))
        }
    };
    if !target.starts_with('/') {
        return Err(RequestError::Malformed(format!(
            "request target '{target}' is not an absolute path"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    let mut accept = String::new();
    let mut connection = String::new();
    let mut headers = 0usize;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(RequestError::Malformed(format!(
                "more than {MAX_HEADERS} header lines"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!(
                "header line '{line}' has no colon"
            )));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| RequestError::Malformed("unparsable Content-Length".into()))?;
        } else if name.trim().eq_ignore_ascii_case("accept") {
            accept = value.trim().to_string();
        } else if name.trim().eq_ignore_ascii_case("connection") {
            connection = value.trim().to_ascii_lowercase();
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let close = if http_10 {
        !connection.split(',').any(|t| t.trim() == "keep-alive")
    } else {
        connection.split(',').any(|t| t.trim() == "close")
    };
    Ok(Request {
        method,
        path,
        query,
        accept,
        body,
        close,
    })
}

/// Reads one CRLF- (or bare-LF-) terminated line, size-capped.
fn read_line<R: BufRead>(reader: &mut R) -> Result<String, RequestError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read_exact(&mut byte) {
            Ok(()) => {}
            Err(err) if err.kind() == io::ErrorKind::UnexpectedEof && line.is_empty() => {
                return Err(RequestError::Malformed(
                    "connection closed mid-request".into(),
                ))
            }
            Err(err) => return Err(err.into()),
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| RequestError::Malformed("header bytes are not UTF-8".into()));
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE_BYTES {
            return Err(RequestError::Malformed("header line too long".into()));
        }
    }
}

/// The reason phrase for the status codes the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete response with a body.  `close` announces whether the
/// server will end the connection after this exchange; with `close` false
/// the connection stays open for the client's next request.
///
/// Head and body go out in one `write_all`: split across two writes, the
/// body of a keep-alive response would wait for the client's delayed ACK of
/// the head.
pub(crate) fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )
    .into_bytes();
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Request, RequestError> {
        read_request(&mut Cursor::new(raw))
    }

    /// A `GET` request carrying `headers` filler header lines.
    fn with_headers(headers: usize) -> Vec<u8> {
        let mut raw = b"GET /metrics HTTP/1.1\r\n".to_vec();
        for i in 0..headers {
            raw.extend_from_slice(format!("X-Filler-{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw
    }

    #[test]
    fn header_count_is_capped() {
        let request = parse(&with_headers(MAX_HEADERS)).expect("at the cap is fine");
        assert_eq!(request.path, "/metrics");
        match parse(&with_headers(MAX_HEADERS + 1)) {
            Err(RequestError::Malformed(why)) => assert!(why.contains("header lines"), "{why}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// A writer that records each `write` call it receives.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_goes_out_in_one_write() {
        let mut writer = RecordingWriter::default();
        write_response(
            &mut writer,
            200,
            "application/json",
            b"{\"ok\":true}",
            false,
        )
        .expect("a recording writer cannot fail");
        assert_eq!(writer.writes.len(), 1, "head and body in one write");
        assert_eq!(
            String::from_utf8(writer.writes.remove(0)).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             Connection: keep-alive\r\n\r\n{\"ok\":true}"
        );
    }

    #[test]
    fn clean_eof_before_a_request_is_closed() {
        assert!(matches!(parse(b""), Err(RequestError::Closed)));
    }

    #[test]
    fn content_length_over_the_body_cap_is_too_large() {
        let head = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(head.as_bytes()),
            Err(RequestError::TooLarge(n)) if n == MAX_BODY_BYTES + 1
        ));
    }
}
