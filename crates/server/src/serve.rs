//! The socket layer: a `TcpListener` shared by a fixed pool of accept
//! worker threads, plus cooperative shutdown.
//!
//! No async runtime — the offline constraint that gave the workspace its
//! `crates/compat/` shims also rules out tokio, and a thread-per-worker
//! accept loop is enough for a closed-loop benchmark client: each worker
//! blocks in `accept`, serves the connection to completion (one request,
//! `Connection: close`), and loops. The kernel load-balances `accept`
//! across the cloned listeners. Shutdown sets a flag and then makes one
//! dummy connection per worker so every blocked `accept` wakes, sees the
//! flag, and exits — no signals, no non-blocking polling loops.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{read_request, write_response};
use crate::service::QueryService;

/// Server configuration (the `server` binary's flags map 1:1 onto this).
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the tests' default).
    pub addr: String,
    /// Accept-worker count. Workers only add HTTP concurrency: the
    /// measurement engines inside stay single-threaded, so this knob can
    /// never change a response byte (the determinism tests run the same
    /// queries under several worker counts and `cmp` the bodies).
    pub workers: usize,
    /// Capacity of the response and census LRU caches (the graph cache's
    /// is the constant [`crate::service::GRAPH_CACHE_CAPACITY`]).
    pub cache_capacity: usize,
    /// Whether to write one structured log line per request to stderr.
    pub log: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            cache_capacity: 256,
            log: false,
        }
    }
}

/// A running server: join it to serve forever, or shut it down.
pub struct ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub addr: SocketAddr,
    service: Arc<QueryService>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared service (tests read cache/metrics counters through it).
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Blocks until every worker exits (i.e. forever, absent a shutdown
    /// from another thread — the `server` binary's steady state).
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Stops accepting, wakes every blocked worker, and joins them.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for _ in 0..self.workers.len() {
            // One wake-up connection per worker: a blocked accept returns,
            // sees the flag, and exits without reading the connection.
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Binds `config.addr` and spawns the worker pool; returns immediately.
///
/// # Errors
///
/// Propagates bind/clone failures.
///
/// # Panics
///
/// Panics if `config.workers` is zero.
pub fn serve(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    assert!(config.workers > 0, "at least one worker is required");
    // A long-lived server always counts: the engine counters feed
    // `/metrics`, and the disabled-mode saving (one relaxed load) is
    // meaningless against network round-trips.
    faultnet_obs::enable();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let service = Arc::new(QueryService::new(config.cache_capacity));
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers = (0..config.workers)
        .map(|worker_id| {
            let listener = listener.try_clone()?;
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let log = config.log;
            Ok(std::thread::Builder::new()
                .name(format!("faultnet-worker-{worker_id}"))
                .spawn(move || worker_loop(&listener, &service, &shutdown, log))
                .expect("spawn worker"))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(ServerHandle {
        addr,
        service,
        shutdown,
        workers,
    })
}

fn worker_loop(listener: &TcpListener, service: &QueryService, shutdown: &AtomicBool, log: bool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        serve_connection(stream, service, log);
    }
}

/// Serves one connection: read a request, answer it, close. All errors
/// end at dropping the connection — a broken peer must never take a
/// worker down.
fn serve_connection(mut stream: TcpStream, service: &QueryService, log: bool) {
    // A peer that stalls mid-request must not pin a worker forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let started = Instant::now();
    let request = match read_request(&mut stream) {
        Ok(Some(request)) => request,
        Ok(None) => return, // clean EOF (e.g. a shutdown wake-up)
        Err(_) => {
            let _ = write_response(&mut stream, 400, "text/plain", b"malformed request\n");
            return;
        }
    };
    let response = service.handle(&request);
    let _ = write_response(
        &mut stream,
        response.status,
        response.content_type,
        &response.body,
    );
    if log {
        // One write(2) per line under the stderr lock: interleaved workers
        // can reorder whole lines but never shear one mid-line.
        faultnet_obs::log_line(&QueryService::log_line(
            &request,
            &response,
            started.elapsed(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::roundtrip;

    #[test]
    fn serves_and_shuts_down() {
        let handle = serve(&ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr.to_string();
        let (status, body) = roundtrip(&addr, "GET", "/healthz", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"ok\n");
        let (status, _) = roundtrip(
            &addr,
            "POST",
            "/query",
            br#"{"family":"hypercube","n":6,"p":0.6,"trials":4}"#,
        )
        .unwrap();
        assert_eq!(status, 200);
        handle.shutdown();
        // The port is released: connections now fail (or reach nothing).
        assert!(
            roundtrip(&addr, "GET", "/healthz", b"").is_err(),
            "server must be gone after shutdown"
        );
    }

    #[test]
    fn concurrent_connections_are_served() {
        let handle = serve(&ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr.to_string();
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    roundtrip(
                        &addr,
                        "POST",
                        "/query",
                        br#"{"family":"hypercube","n":7,"p":0.6,"trials":4}"#,
                    )
                    .unwrap()
                })
            })
            .collect();
        let bodies: Vec<_> = clients
            .into_iter()
            .map(|client| client.join().unwrap())
            .collect();
        for (status, body) in &bodies {
            assert_eq!(*status, 200);
            assert_eq!(body, &bodies[0].1, "all clients see identical bytes");
        }
        handle.shutdown();
    }
}
