//! The HTTP/1.1 transport: a dependency-free server on `std::net` and
//! [`molq_net`] (Linux only).
//!
//! [`ServerConfig::workers`] readiness event loops ([`crate::epoll`]) each
//! own their connections and run the [`Service`] dispatch inline, one
//! acceptor thread balances new connections across them, and all of them
//! speak the wire protocol of the private `proto` module.
//!
//! [`ServerHandle::shutdown`] flips the flag and joins the acceptor, which
//! joins the loops once they have flushed their in-flight responses:
//! graceful by construction, no connection is abandoned mid-response.
//!
//! Resilience at this layer:
//!
//! * **Deadline-aware shedding.** A request that waited behind its loop's
//!   earlier work for longer than the service's request timeout is answered
//!   `503` + `Retry-After` immediately (the evaluation would only have timed
//!   out anyway).
//! * **Loop respawn.** The acceptor supervises the loops and replaces any
//!   that dies — handler panics are already caught per request in the
//!   service layer, so a dead loop means a panic in the transport itself
//!   (or the `http.worker` fault point).
//! * **Overload.** Beyond [`ServerConfig::max_connections`] open
//!   connections, new ones are answered `503` at once.
//! * **Malformed input.** Oversized heads, unparseable or oversized
//!   `Content-Length`, and clients that vanish mid-body all end in a `4xx`
//!   or a clean close — never a panic, never a wedged loop.
//!
//! On other platforms [`start`] returns an [`std::io::ErrorKind::Unsupported`]
//! error; the rest of the crate still builds.

use crate::service::Service;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind host (e.g. `127.0.0.1`).
    pub host: String,
    /// Bind port; `0` picks an ephemeral port (see [`ServerHandle::addr`]).
    pub port: u16,
    /// Event loops, each serving its connections' requests on its own
    /// thread.
    pub workers: usize,
    /// Idle and stalled-connection timeout (also bounds keep-alive idle
    /// time).
    pub read_timeout: Duration,
    /// Open-connection cap; beyond it new connections get the overload
    /// `503`.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".into(),
            port: 0,
            workers: 4,
            read_timeout: Duration::from_secs(5),
            max_connections: 4096,
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    /// The acceptor thread; it joins the event loops on its way out.
    pub(crate) acceptor: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets in-flight responses flush, joins all transport
    /// threads.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join();
    }
}

/// Binds and starts serving `service`; returns once the listener is live.
pub fn start(service: Arc<Service>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    #[cfg(target_os = "linux")]
    return crate::epoll::start(service, config);
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (service, config);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "serving requires Linux (the transport runs on epoll)",
        ))
    }
}
