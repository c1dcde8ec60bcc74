//! The client side of the line protocol, written as `dwc connect` talks:
//! plain `std::net`, one `write` per request line, no socket options. In
//! particular no `TCP_NODELAY` — the reply stall this exposes is a
//! finding to report, not to work around.

use crate::gen::Fnv;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// No reply may take longer than this; a later one is a failed op.
pub const REPLY_LIMIT: Duration = Duration::from_secs(5);

/// Why a call on a [`Conn`] did not produce its reply.
#[derive(Debug)]
pub enum WireError {
    /// The peer is gone (EOF, reset or broken pipe) — what every
    /// connection sees when the harness kills the server.
    Closed,
    /// The reply missed its deadline.
    TimedOut,
    /// The server answered something else than the protocol promises
    /// (including every `err ...` line).
    Unexpected(String),
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "server closed the connection"),
            WireError::TimedOut => write!(f, "no reply within {} s", REPLY_LIMIT.as_secs()),
            WireError::Unexpected(line) => write!(f, "unexpected reply `{line}`"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl From<WireError> for String {
    fn from(e: WireError) -> String {
        e.to_string()
    }
}

fn io_error(e: std::io::Error) -> WireError {
    match e.kind() {
        ErrorKind::ConnectionReset | ErrorKind::BrokenPipe | ErrorKind::ConnectionAborted => {
            WireError::Closed
        }
        _ => WireError::Io(e),
    }
}

/// Writes one request line with a single `write`.
pub fn send_line(stream: &mut TcpStream, line: &str) -> Result<(), WireError> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stream.write_all(&bytes).map_err(io_error)
}

/// One connection with its own line buffer (so a read that times out
/// mid-line loses nothing).
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as lines.
    consumed: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            consumed: 0,
        })
    }

    /// Sends one request line with a single `write`.
    pub fn send(&mut self, line: &str) -> Result<(), WireError> {
        send_line(&mut self.stream, line)
    }

    /// A second handle on the socket for writing, so that one thread can
    /// pace the sends on a precise clock while another blocks in `read`
    /// (a socket read timeout is only good to a kernel timer tick).
    pub fn writer(&self) -> Result<TcpStream, WireError> {
        self.stream.try_clone().map_err(WireError::Io)
    }

    /// The next reply line, or `None` if none is complete by `deadline`.
    pub fn read_line(&mut self, deadline: Instant) -> Result<Option<String>, WireError> {
        loop {
            if let Some(i) = self.buf[self.consumed..].iter().position(|b| *b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[self.consumed..self.consumed + i])
                    .into_owned();
                self.consumed += i + 1;
                return Ok(Some(line));
            }
            self.buf.drain(..self.consumed);
            self.consumed = 0;
            let wait = deadline.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(wait))
                .map_err(WireError::Io)?;
            let len = self.buf.len();
            self.buf.resize(len + (1 << 16), 0);
            let read = self.stream.read(&mut self.buf[len..]);
            self.buf.truncate(len + *read.as_ref().unwrap_or(&0));
            match read {
                Ok(0) => return Err(WireError::Closed),
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_error(e)),
            }
        }
    }

    /// A reply line that must arrive within [`REPLY_LIMIT`].
    pub fn expect_line(&mut self) -> Result<String, WireError> {
        self.read_line(Instant::now() + REPLY_LIMIT)?
            .ok_or(WireError::TimedOut)
    }

    /// Sends `line` and returns the one-line reply.
    pub fn call(&mut self, line: &str) -> Result<String, WireError> {
        self.send(line)?;
        self.expect_line()
    }

    /// `hello <source>` → the granted `(epoch, resume_seq)`.
    pub fn hello(&mut self, source: &str) -> Result<(u64, u64), WireError> {
        let reply = self.call(&format!("hello {source}"))?;
        let fields: Vec<&str> = reply.split_whitespace().collect();
        match fields[..] {
            ["session", _, epoch, seq] => match (epoch.parse(), seq.parse()) {
                (Ok(epoch), Ok(seq)) => Ok((epoch, seq)),
                _ => Err(WireError::Unexpected(reply)),
            },
            _ => Err(WireError::Unexpected(reply)),
        }
    }

    /// Sends `query <text>` and reads the whole answer.
    pub fn query(&mut self, text: &str) -> Result<Answer, WireError> {
        let header = self.call(&format!("query {text}"))?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        let (epoch, rows) = match fields[..] {
            ["result", epoch, rows, "tuple(s)"] => match (epoch.parse(), rows.parse::<usize>()) {
                (Ok(epoch), Ok(rows)) => (epoch, rows),
                _ => return Err(WireError::Unexpected(header)),
            },
            _ => return Err(WireError::Unexpected(header)),
        };
        let mut digest = RowDigest::default();
        for _ in 0..rows {
            digest.add(self.expect_line()?.trim_start());
        }
        Ok(Answer { epoch, digest })
    }
}

/// An order-independent digest of an answer's rows: row count plus the
/// wrapping sum of the rows' FNV hashes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowDigest {
    pub rows: usize,
    pub sum: u64,
}

impl RowDigest {
    pub fn add(&mut self, row: &str) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(Fnv::of(row.as_bytes()));
    }
}

/// One complete `result` reply.
#[derive(Clone, Copy, Debug)]
pub struct Answer {
    /// The snapshot epoch the server evaluated at.
    pub epoch: u64,
    pub digest: RowDigest,
}
