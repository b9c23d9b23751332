//! A tiny blocking HTTP/1.1 client for the MOLQ API.
//!
//! Just enough protocol to drive [`crate::http`]: one request per call over
//! a (optionally kept-alive) TCP connection, JSON bodies parsed with
//! [`crate::json`]. The load generator and the end-to-end tests use this so
//! the repo needs no external HTTP tooling.

use crate::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Default socket read timeout — the single knob every hardcoded client
/// timeout derives from. Deliberately larger than the server's default
/// request timeout so the client sees the server's `504` rather than its
/// own socket timeout.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A keep-alive connection to one server.
pub struct Client {
    stream: BufReader<TcpStream>,
}

/// A decoded API response.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Parsed JSON body.
    pub body: Json,
    /// Seconds from a `Retry-After` header, when the server sent one
    /// (load shedding and open-breaker `503`s).
    pub retry_after: Option<u64>,
}

impl Client {
    /// Connects to the server with [`DEFAULT_READ_TIMEOUT`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        Client::connect_with_timeout(addr, DEFAULT_READ_TIMEOUT)
    }

    /// Connects with an explicit socket read timeout.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Issues a GET for a path-with-query (e.g. `/locate?x=1&y=2`).
    pub fn get(&mut self, target: &str) -> Result<ClientResponse, String> {
        self.request("GET", target, b"")
    }

    /// Issues a POST for a path-with-query.
    pub fn post(&mut self, target: &str) -> Result<ClientResponse, String> {
        self.request("POST", target, b"")
    }

    /// Issues a POST for a path-with-query carrying a body (the batch
    /// endpoints take their query list as a JSON body).
    pub fn post_body(&mut self, target: &str, body: &[u8]) -> Result<ClientResponse, String> {
        self.request("POST", target, body)
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        payload: &[u8],
    ) -> Result<ClientResponse, String> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: molq\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        );
        let mut message = head.into_bytes();
        message.extend_from_slice(payload);
        self.stream
            .get_mut()
            .write_all(&message)
            .map_err(|e| format!("send: {e}"))?;

        let mut status_line = String::new();
        self.stream
            .read_line(&mut status_line)
            .map_err(|e| format!("status: {e}"))?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line {status_line:?}"))?;

        let mut content_length = 0usize;
        let mut retry_after = None;
        loop {
            let mut line = String::new();
            self.stream
                .read_line(&mut line)
                .map_err(|e| format!("header: {e}"))?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("content-length: {e}"))?;
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = value.trim().parse().ok();
                }
            }
        }

        let mut body = vec![0u8; content_length];
        self.stream
            .read_exact(&mut body)
            .map_err(|e| format!("body: {e}"))?;
        let text = String::from_utf8(body).map_err(|e| format!("body: {e}"))?;
        Ok(ClientResponse {
            status,
            body: Json::parse(&text)?,
            retry_after,
        })
    }
}

// The tests serve over a socket, which needs Linux.
#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::engine::{DatasetSpec, Engine};
    use crate::http::{start, ServerConfig};
    use crate::service::Service;
    use molq_core::prelude::*;
    use molq_geom::{Mbr, Point};
    use std::sync::Arc;

    fn sample_service() -> Arc<Service> {
        let engine = Engine::new();
        let mk = |name: &str, seed: u64| {
            let mut s = seed;
            let mut next = move || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 33) as f64 / u32::MAX as f64
            };
            ObjectSet::uniform(
                name,
                1.0,
                (0..10)
                    .map(|_| Point::new(next() * 50.0, next() * 50.0))
                    .collect(),
            )
        };
        engine
            .load_from_sets(
                DatasetSpec {
                    bounds: Some(Mbr::new(0.0, 0.0, 50.0, 50.0)),
                    ..DatasetSpec::new("default", Vec::new())
                },
                vec![mk("a", 11), mk("b", 12)],
            )
            .unwrap();
        Arc::new(Service::new(engine))
    }

    #[test]
    fn client_roundtrips_with_keep_alive() {
        let handle = start(sample_service(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        // Several requests over the same connection.
        let health = client.get("/health").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.body.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.retry_after, None);
        let locate = client.get("/locate?x=25&y=25").unwrap();
        assert_eq!(locate.status, 200, "{:?}", locate.body);
        let missing = client.get("/locate?x=25").unwrap();
        assert_eq!(missing.status, 400);
        let reload = client.post("/reload?dataset=default&wait=1").unwrap();
        assert_eq!(reload.status, 200, "{:?}", reload.body);
        assert_eq!(reload.body.get("generation").unwrap().as_u64(), Some(2));
        let background = client.post("/reload?dataset=default").unwrap();
        assert_eq!(background.status, 202, "{:?}", background.body);
        assert_eq!(
            background.body.get("status").unwrap().as_str(),
            Some("building")
        );
        handle.shutdown();
    }

    #[test]
    fn server_rejects_garbage_requests() {
        let handle = start(sample_service(), ServerConfig::default()).unwrap();
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut response = String::new();
        raw.set_read_timeout(Some(DEFAULT_READ_TIMEOUT)).unwrap();
        let mut reader = BufReader::new(&mut raw);
        reader.read_line(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
        handle.shutdown();
    }
}
