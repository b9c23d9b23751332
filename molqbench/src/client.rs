//! A minimal keep-alive HTTP/1.1 client.
//!
//! The bench needs DELETE (live removes), the raw response size, and JSON
//! parsing only for the responses it verifies, so it carries its own client
//! instead of `molq_server::Client`.

use molq_server::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket read timeout: longer than the server's 10 s request deadline, so
/// a slow answer arrives as the server's `504` rather than a client error.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Bytes received for the whole response (head and body).
    pub bytes: usize,
}

impl Reply {
    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| format!("body: {e}"))?;
        Json::parse(text)
    }
}

/// A keep-alive connection that reconnects when the server closed it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    /// Connections re-opened after the server closed one.
    pub reconnects: u64,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let mut c = Conn {
            addr,
            stream: None,
            reconnects: 0,
        };
        c.open()?;
        Ok(c)
    }

    fn open(&mut self) -> Result<(), String> {
        let s = TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_read_timeout(Some(READ_TIMEOUT))
            .and_then(|()| s.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        self.stream = Some(BufReader::new(s));
        Ok(())
    }

    /// `GET target`, retried once on a fresh connection if the kept-alive
    /// one turned out to be closed.
    pub fn get(&mut self, target: &str) -> Result<Reply, String> {
        self.send("GET", target, true)
    }

    /// Sends one bodiless request. Only idempotent requests may `retry`: a
    /// live update whose connection broke mid-flight may already be applied.
    pub fn send(&mut self, method: &str, target: &str, retry: bool) -> Result<Reply, String> {
        if self.stream.is_none() {
            self.reconnects += 1;
            self.open()?;
        }
        match self.exchange(method, target) {
            Ok(r) => Ok(r),
            Err(_) if retry => {
                self.reconnects += 1;
                self.open()?;
                self.exchange(method, target)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, method: &str, target: &str) -> Result<Reply, String> {
        let stream = self.stream.as_mut().expect("connection opened above");
        let head = format!("{method} {target} HTTP/1.1\r\nHost: molq\r\nContent-Length: 0\r\n\r\n");
        stream
            .get_mut()
            .write_all(head.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        let mut bytes = stream
            .read_line(&mut line)
            .map_err(|e| format!("status line: {e}"))?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line {line:?}"))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            let n = stream
                .read_line(&mut line)
                .map_err(|e| format!("header: {e}"))?;
            if n == 0 {
                return Err("connection closed inside the response head".into());
            }
            bytes += n;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("content-length: {e}"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; length];
        stream
            .read_exact(&mut body)
            .map_err(|e| format!("body: {e}"))?;
        if close {
            self.stream = None;
        }
        Ok(Reply {
            status,
            body,
            bytes: bytes + length,
        })
    }
}
