//! The client side of the line protocol: raw connections, request lines,
//! and a cheap scan of response lines (a full JSON parse of every cell row
//! would cost the client CPU the server shares on a small host).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use assess_serve::protocol::{n, obj, s, to_line};
use serde::Value;

/// One TCP session: the write half and a buffered read half.
pub struct Conn {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects and consumes the server's hello line.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut conn = Conn { reader: BufReader::new(writer.try_clone()?), writer };
        let mut hello = String::new();
        conn.read_line(&mut hello)?;
        if !hello.contains("\"ok\":true") {
            return Err(std::io::Error::other(format!("server refused the session: {hello}")));
        }
        Ok(conn)
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Reads one line (without its newline) into `buf`.
    pub fn read_line(&mut self, buf: &mut String) -> std::io::Result<()> {
        read_line(&mut self.reader, buf)
    }

    /// Sends `line` and returns the response with id `id`, skipping pushed
    /// events.
    pub fn call(&mut self, line: &str, id: u64) -> std::io::Result<String> {
        self.call_keeping_events(line, id, &mut Vec::new())
    }

    /// Like [`Conn::call`], keeping the pushed events that arrive before
    /// the response.
    pub fn call_keeping_events(
        &mut self,
        line: &str,
        id: u64,
        events: &mut Vec<String>,
    ) -> std::io::Result<String> {
        self.send(line)?;
        let mut buf = String::new();
        loop {
            self.read_line(&mut buf)?;
            if scan(&buf).id == Some(id) {
                return Ok(buf);
            }
            if buf.starts_with("{\"event\":") {
                events.push(buf.clone());
            }
        }
    }
}

pub fn read_line(reader: &mut BufReader<TcpStream>, buf: &mut String) -> std::io::Result<()> {
    buf.clear();
    if reader.read_line(buf)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    while buf.ends_with('\n') || buf.ends_with('\r') {
        buf.pop();
    }
    Ok(())
}

/// Rows a `run` in cells format returns (the server's default limit).
pub const ROW_LIMIT: usize = 50;

/// How a `run` asks for its result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// The first `limit` cells as JSON rows.
    Cells(usize),
    /// The whole result as CSV.
    Csv,
}

/// A `run` request line (newline-terminated).
pub fn run_line(id: u64, statement: &str, format: Format, cache: bool) -> String {
    let mut fields = vec![("id", n(id)), ("op", s("run")), ("statement", s(statement))];
    match format {
        Format::Cells(limit) => fields.push(("limit", n(limit as u64))),
        Format::Csv => fields.push(("format", s("csv"))),
    }
    if !cache {
        fields.push(("cache", Value::Bool(false)));
    }
    to_line(&obj(fields))
}

/// An `append` request line carrying a prepared column object.
pub fn append_line(id: u64, rows_json: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"append\",\"cube\":\"SSB\",\"rows\":{rows_json}}}\n")
}

pub fn subscribe_line(id: u64, statement: &str) -> String {
    to_line(&obj(vec![("id", n(id)), ("op", s("subscribe")), ("statement", s(statement))]))
}

/// What the load loop needs from a response line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reply {
    pub id: Option<u64>,
    pub ok: bool,
    pub cached: bool,
    /// Served under soft load shedding (`"shed": "light"`).
    pub shed: bool,
    /// The error code of a failed request.
    pub code: Option<String>,
}

/// Reads the leading fields the server writes first (`id`, `ok`, then
/// `cached` on runs) and the trailing `shed` marker, without parsing rows.
pub fn scan(line: &str) -> Reply {
    let mut reply = Reply::default();
    let Some(rest) = line.strip_prefix("{\"id\":") else {
        return reply;
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    reply.id = rest[..digits].parse().ok();
    let rest = &rest[digits..];
    reply.ok = rest.starts_with(",\"ok\":true");
    if reply.ok {
        reply.cached = rest.starts_with(",\"ok\":true,\"cached\":true");
        reply.shed = line.ends_with(",\"shed\":\"light\"}");
    } else if let Some(at) = rest.find("\"code\":\"") {
        let code = &rest[at + 8..];
        reply.code = Some(code[..code.find('"').unwrap_or(code.len())].to_string());
    } else {
        reply.code = Some("malformed".to_string());
    }
    reply
}

/// Admission refusals, as opposed to failures of the request itself.
pub fn is_refusal(code: &str) -> bool {
    code == "overloaded" || code == "queue_full"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_reads_the_leading_fields() {
        let hit = "{\"id\":12,\"ok\":true,\"cached\":true,\"strategy\":\"POP\",\"rows\":[]}";
        assert_eq!(scan(hit), Reply { id: Some(12), ok: true, cached: true, ..Reply::default() });
        let shed = "{\"id\":3,\"ok\":true,\"cached\":false,\"rows\":[],\"shed\":\"light\"}";
        assert!(scan(shed).shed && !scan(shed).cached);
        let refused =
            "{\"id\":4,\"ok\":false,\"error\":{\"code\":\"queue_full\",\"message\":\"x\"}}";
        assert_eq!(scan(refused).code.as_deref(), Some("queue_full"));
        assert_eq!(scan("{\"event\":\"diff\",\"sub\":1}").id, None);
    }

    #[test]
    fn run_line_is_one_parseable_request() {
        let line = run_line(7, "with SSB\nby year 'x'", Format::Cells(5), false);
        assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
        let request = assess_serve::parse_request(line.trim_end()).unwrap();
        assert_eq!(request.id, Some(7));
    }
}
