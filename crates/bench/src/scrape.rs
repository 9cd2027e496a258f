//! The live scrape endpoint: a zero-dependency HTTP server over
//! `std::net::TcpListener` exposing the unified observability surface —
//! closing the ROADMAP's deferred "HTTP scrape endpoint over
//! `to_prometheus`" item.
//!
//! Routes:
//!
//! | path | body |
//! |---|---|
//! | `/metrics` | Prometheus text exposition ([`TelemetrySnapshot::to_prometheus`]) |
//! | `/telemetry.json` | structured snapshot ([`TelemetrySnapshot::to_json`]) |
//! | `/trace.json` | Chrome trace-event JSON ([`TraceSnapshot::to_chrome_json`]) — paste into Perfetto |
//! | `/` | a plain-text index of the above |
//!
//! The server holds **pre-rendered bodies** behind a [`ScrapeState`]: the
//! embedding tool publishes a snapshot whenever it likes (typically once
//! per pass), and scrapes never touch the registry or the journal — a
//! scrape can never perturb the measured system. Served by
//! `polymem-top --serve ADDR`.

use polymem::telemetry::TelemetrySnapshot;
use polymem::tracing::TraceSnapshot;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Shared, swappable content for the scrape routes. Publish new snapshots
/// at any time; concurrent scrapes see either the old or the new body,
/// never a torn one.
#[derive(Debug, Default)]
pub struct ScrapeState {
    metrics: Mutex<String>,
    telemetry_json: Mutex<String>,
    trace_json: Mutex<String>,
}

impl ScrapeState {
    /// Empty state: every route serves a placeholder until published.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Publish a telemetry snapshot (renders `/metrics` and
    /// `/telemetry.json`).
    pub fn publish_telemetry(&self, snap: &TelemetrySnapshot) {
        *self.metrics.lock().unwrap() = snap.to_prometheus();
        *self.telemetry_json.lock().unwrap() = snap.to_json();
    }

    /// Publish a trace snapshot (renders `/trace.json`).
    pub fn publish_trace(&self, snap: &TraceSnapshot) {
        *self.trace_json.lock().unwrap() = snap.to_chrome_json();
    }

    /// Route a request path to `(status, content-type, body)` — the pure
    /// core of the server, also used directly by tests.
    pub fn respond(&self, path: &str) -> (u16, &'static str, String) {
        match path {
            "/metrics" => (
                200,
                "text/plain; version=0.0.4",
                self.metrics.lock().unwrap().clone(),
            ),
            "/telemetry.json" => (
                200,
                "application/json",
                self.telemetry_json.lock().unwrap().clone(),
            ),
            "/trace.json" => (
                200,
                "application/json",
                self.trace_json.lock().unwrap().clone(),
            ),
            "/" => (
                200,
                "text/plain",
                "polymem-top\n\n/metrics\n/telemetry.json\n/trace.json\n".to_string(),
            ),
            _ => (404, "text/plain", format!("no such route: {path}\n")),
        }
    }
}

/// A running scrape server: one accept thread, one short-lived connection
/// at a time (scrapes are tiny; Prometheus polls sequentially).
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl ScrapeServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`, or port `0` for an ephemeral
    /// port — read the chosen one back from [`ScrapeServer::addr`]) and
    /// serve `state` until [`ScrapeServer::shutdown`] or process exit.
    pub fn serve(addr: &str, state: Arc<ScrapeState>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = thread::spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    // One bad client must not take the endpoint down.
                    let _ = handle_connection(stream, &state);
                }
            }
        });
        Ok(Self {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. The accept loop blocks
    /// in `accept(2)`, so this pokes it awake with a self-connection.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Block the calling thread until the server stops (the foreground
    /// mode of `polymem-top --serve`).
    pub fn block(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Serve one connection: parse the request line, ignore headers, write one
/// `Connection: close` response.
fn handle_connection(stream: TcpStream, state: &ScrapeState) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // "GET /path HTTP/1.1" — anything else is a 400.
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    // Drain headers so well-behaved clients see a clean close.
    let mut line = String::new();
    while reader.read_line(&mut line).is_ok() && line.trim() != "" {
        line.clear();
    }
    let (status, ctype, body) = if method != "GET" {
        (405, "text/plain", "only GET is supported\n".to_string())
    } else {
        state.respond(path)
    };
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let mut out = reader.into_inner();
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let status: u16 = resp
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let body = resp
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn populated_state() -> Arc<ScrapeState> {
        let state = ScrapeState::new();
        let reg = polymem::TelemetryRegistry::new();
        reg.counter("test_total", vec![("k", "v".to_string())])
            .add(7);
        state.publish_telemetry(&reg.snapshot());
        state
    }

    #[test]
    fn routes_render_published_snapshots() {
        let state = populated_state();
        let (code, ctype, body) = state.respond("/metrics");
        assert_eq!(code, 200);
        assert!(ctype.starts_with("text/plain"));
        assert!(body.contains("test_total"), "{body}");
        let (code, _, body) = state.respond("/telemetry.json");
        assert_eq!(code, 200);
        assert!(body.contains("\"test_total\""));
        let (code, _, _) = state.respond("/nope");
        assert_eq!(code, 404);
    }

    #[test]
    #[cfg(not(feature = "tracing-off"))]
    fn trace_route_serves_chrome_json() {
        use polymem::tracing::{SpanId, TraceJournal, TraceSnapshot};
        let state = ScrapeState::new();
        let journal = TraceJournal::new(16);
        let w = journal.writer("t");
        let n = journal.intern("work");
        let s = w.begin(n, SpanId::NONE);
        journal.set_cycle(5);
        w.end(n, s);
        state.publish_trace(&journal.snapshot());
        let (code, _, body) = state.respond("/trace.json");
        assert_eq!(code, 200);
        let round = TraceSnapshot::from_chrome_json(&body).unwrap();
        assert_eq!(round.events.len(), 2);
    }

    #[test]
    fn server_answers_over_real_sockets_and_shuts_down() {
        let state = populated_state();
        let server = ScrapeServer::serve("127.0.0.1:0", Arc::clone(&state)).unwrap();
        let addr = server.addr();
        let (code, body) = http_get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("test_total"), "{body}");
        let (code, _) = http_get(addr, "/missing");
        assert_eq!(code, 404);
        // Republish: the next scrape sees the new body without restart.
        let reg = polymem::TelemetryRegistry::new();
        reg.counter("fresh_total", vec![]).inc();
        state.publish_telemetry(&reg.snapshot());
        let (_, body) = http_get(addr, "/metrics");
        assert!(body.contains("fresh_total"), "{body}");
        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || http_get_would_fail(addr),
            "listener is gone after shutdown"
        );
    }

    // After shutdown the OS may briefly accept on the dead listener's
    // backlog; a failed connect OR an unanswered request both prove the
    // accept loop exited.
    fn http_get_would_fail(addr: SocketAddr) -> bool {
        let Ok(mut s) = TcpStream::connect(addr) else {
            return true;
        };
        if write!(s, "GET / HTTP/1.1\r\n\r\n").is_err() {
            return true;
        }
        let mut buf = String::new();
        s.read_to_string(&mut buf).map(|n| n == 0).unwrap_or(true)
    }
}
