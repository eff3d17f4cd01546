//! A minimal HTTP/1.1 keep-alive client, written for the benchmark so that
//! the client side of every measurement is fixed code outside the program.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A stalled server fails the operation instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A response: status code and body.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Writes one complete request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.writer.write_all(request)?;
        self.writer.flush()
    }

    /// Reads one response: the status line, the headers, then
    /// `Content-Length` bytes of body — or everything up to the server's
    /// close when the response carries no length (the NDJSON event stream).
    pub fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed before a response"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(invalid("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    let value = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid("bad Content-Length"))?;
                    length = Some(value);
                }
            }
        }
        let mut body = Vec::new();
        match length {
            Some(length) => {
                body.resize(length, 0);
                self.reader.read_exact(&mut body)?;
            }
            None => {
                self.reader.read_to_end(&mut body)?;
            }
        }
        Ok(Response { status, body })
    }
}

fn invalid(why: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.into())
}

/// Replaces `out` with a request carrying `body`.
pub fn write_request(out: &mut Vec<u8>, method: &str, path: &str, body: &[u8]) {
    out.clear();
    write!(
        out,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
    out.extend_from_slice(body);
}

/// The unsigned integer member `key` of a compact JSON document, found by
/// text search.  The load reads the envelope this way inside the timed
/// window, where a full parse would add client cost.
pub fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    let rest = after_key(body, key)?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// The string member `key` of a compact JSON document (its first
/// occurrence), found by text search.
pub fn json_str<'a>(body: &'a [u8], key: &str) -> Option<&'a str> {
    let rest = after_key(body, key)?.strip_prefix(b"\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&rest[..end]).ok()
}

fn after_key<'a>(body: &'a [u8], key: &str) -> Option<&'a [u8]> {
    let needle = format!("\"{key}\":");
    let at = body
        .windows(needle.len())
        .position(|window| window == needle.as_bytes())?;
    Some(&body[at + needle.len()..])
}
