//! The one HTTP responder, and the live metrics server built on it.
//!
//! Every HTTP server in the workspace runs [`serve_routes`]: a
//! [`Listener`] whose connection threads each answer one request and
//! close (`HTTP/1.0`, `Connection: close`). The responder owns the
//! protocol: the read/write deadline, [`read_request`] with its bounded
//! head and body, the `400`/`413`/`431` refusals, and
//! [`write_response`]. What a request means is left to a route function
//! from the parsed request (or the refusal) and the peer's IP to a
//! [`Response`], so two servers refuse the same bad request the same way
//! and differ only in their routes.
//!
//! [`MetricsServer`] is that responder with the metrics routes. Every
//! trainer rank and every `pbg serve` role runs one, so a
//! `curl http://rank:port/metrics` mid-run answers "is this rank making
//! progress" without waiting for the post-run JSONL dump. Endpoints:
//! - `/metrics` — Prometheus text exposition (version 0.0.4) of the
//!   registry's live snapshot ([`prometheus`], which the embedding
//!   server's `/metrics` also answers with).
//! - `/report` — human-readable snapshot report with histogram
//!   quantiles (p50/p95/p99).
//! - `/healthz` — liveness probe, answers `ok`.

use crate::listener::Listener;
use crate::Registry;
use std::io::{self, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpStream};
use std::time::Duration;

/// Longest request head we will buffer before giving up on a client.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Read and write deadline of every HTTP connection: long enough for a
/// full request body from a slow client, short enough that a stuck one
/// does not pin its thread for long.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A response before it is written: status line, content type, body
/// and any extra headers (`Allow` on a 405, `Retry-After` on a 429).
#[derive(Debug)]
pub struct Response {
    /// Status line after the version, e.g. `200 OK`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Extra headers, written after the standard ones.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// `405` naming the one verb the resource accepts in `Allow`.
    pub fn method_not_allowed(allow: &'static str) -> Response {
        Response::text("405 Method Not Allowed", "method not allowed\n").with_header("Allow", allow)
    }

    /// This response with one more header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// The numeric status code (for logs and error classification).
    pub fn code(&self) -> u16 {
        self.status
            .split(' ')
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let headers: Vec<(&str, &str)> = self
            .headers
            .iter()
            .map(|(name, value)| (*name, value.as_str()))
            .collect();
        write_response(stream, self.status, self.content_type, &self.body, &headers)
    }
}

impl From<RequestError> for Response {
    fn from(e: RequestError) -> Response {
        let (status, body) = e.response();
        Response::text(status, body)
    }
}

/// The live Prometheus exposition of `registry` — what every
/// `/metrics` endpoint answers.
pub fn prometheus(registry: &Registry) -> Response {
    Response {
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        ..Response::text("200 OK", registry.snapshot().to_prometheus())
    }
}

/// Binds `addr` and answers one request per connection through `route`,
/// which sees the parsed request (or the refusal the responder is about
/// to send) and the peer's IP. Bodies above `max_body` bytes are refused
/// with `413` before they are read. Threads are named as in
/// [`Listener::serve`].
///
/// # Errors
///
/// Returns the bind error, or the error spawning the accept thread.
pub fn serve_routes<R>(addr: &str, name: &str, max_body: usize, route: R) -> io::Result<Listener>
where
    R: Fn(Result<&Request, RequestError>, IpAddr) -> Response + Send + Sync + 'static,
{
    Listener::serve(addr, name, move |stream| {
        let _ = respond(stream, max_body, &route);
    })
}

/// Answers one request on `stream` under the connection deadline.
fn respond(
    mut stream: TcpStream,
    max_body: usize,
    route: &dyn Fn(Result<&Request, RequestError>, IpAddr) -> Response,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let peer = stream
        .peer_addr()
        .map(|a| a.ip())
        .unwrap_or(IpAddr::from([0u8, 0, 0, 0]));
    let request = read_request(&mut stream, max_body)?;
    route(request.as_ref().map_err(|e| *e), peer).write_to(&mut stream)
}

/// A running metrics exposition server. Shuts down on drop.
pub struct MetricsServer {
    listener: Listener,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port)
    /// and serves `registry` until shutdown or drop.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn serve(addr: &str, registry: Registry) -> io::Result<MetricsServer> {
        let listener = serve_routes(addr, "pbg-metrics", MAX_REQUEST_BYTES, move |req, _| {
            metrics_route(req, &registry)
        })?;
        Ok(MetricsServer { listener })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops accepting and joins the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

fn metrics_route(req: Result<&Request, RequestError>, registry: &Registry) -> Response {
    let req = match req {
        Ok(req) => req,
        Err(e) => return e.into(),
    };
    if req.method != "GET" {
        // every endpoint here is read-only; tell the client which verb
        // works instead of hanging up on it
        return Response::method_not_allowed("GET");
    }
    match req.route() {
        "/metrics" => prometheus(registry),
        "/report" => Response::text("200 OK", registry.snapshot().render_report()),
        "/" | "/healthz" => Response::text("200 OK", "ok\n"),
        _ => Response::text("404 Not Found", "not found\n"),
    }
}

/// A parsed HTTP request: method, path, and body (present when the
/// client sent a `Content-Length`).
#[derive(Debug)]
pub struct Request {
    /// Request method, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// Request target, including any query string.
    pub path: String,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The path with any query string stripped — what routing matches on.
    pub fn route(&self) -> &str {
        self.path.split('?').next().unwrap_or("")
    }
}

/// Why a request was refused before routing. Each variant maps to a
/// definite HTTP status via [`RequestError::response`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The request head exceeded the buffer cap → `431`.
    HeadTooLarge,
    /// Not parseable as an HTTP request → `400`.
    Malformed,
    /// `Content-Length` exceeded the caller's body cap → `413`.
    BodyTooLarge,
}

impl RequestError {
    /// The HTTP status line and response body for this refusal.
    pub fn response(self) -> (&'static str, &'static str) {
        match self {
            RequestError::HeadTooLarge => (
                "431 Request Header Fields Too Large",
                "request head too large\n",
            ),
            RequestError::Malformed => ("400 Bad Request", "malformed request\n"),
            RequestError::BodyTooLarge => ("413 Payload Too Large", "request body too large\n"),
        }
    }
}

/// Writes a complete HTTP/1.0 response. `extra_headers` lets handlers
/// add e.g. `Allow` on a 405 or rate-limit headers on a 429.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        header.push_str(name);
        header.push_str(": ");
        header.push_str(value);
        header.push_str("\r\n");
    }
    header.push_str("\r\n");
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Where the request head ends: byte offset just past the blank line.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

/// Reads and parses one HTTP request, bounding both the head (at
/// [`MAX_REQUEST_BYTES`]) and the body (at `max_body`) so a client can
/// never make the server buffer unboundedly. The outer `Result` is
/// transport failure; the inner one is a protocol refusal the caller
/// should answer with [`RequestError::response`].
///
/// # Errors
///
/// Propagates socket read failures that occur before any bytes arrive.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
) -> std::io::Result<Result<Request, RequestError>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    let head_len = loop {
        if let Some(end) = head_end(&buf) {
            break end;
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            return Ok(Err(RequestError::HeadTooLarge));
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(Err(RequestError::Malformed)), // EOF mid-head
            Ok(n) => n,
            Err(_) => return Ok(Err(RequestError::Malformed)),
        };
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_len]).into_owned();
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => return Ok(Err(RequestError::Malformed)),
    };
    if !version.starts_with("HTTP/")
        || !path.starts_with('/')
        || method.is_empty()
        || !method.chars().all(|c| c.is_ascii_uppercase())
    {
        return Ok(Err(RequestError::Malformed));
    }
    let mut content_length = 0usize;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => return Ok(Err(RequestError::Malformed)),
                };
            }
        }
    }
    if content_length > max_body {
        return Ok(Err(RequestError::BodyTooLarge));
    }
    let mut body = buf[head_len..].to_vec();
    if body.len() > content_length {
        body.truncate(content_length);
    }
    while body.len() < content_length {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(Err(RequestError::Malformed)), // EOF mid-body
            Ok(n) => n,
            Err(_) => return Ok(Err(RequestError::Malformed)),
        };
        let want = content_length - body.len();
        body.extend_from_slice(&chunk[..n.min(want)]);
    }
    Ok(Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a head/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_live_metrics_and_report() {
        let reg = Registry::new();
        reg.counter("trainer.edges").add(5);
        reg.histogram("net.rpc_latency_ns").observe(1000);
        let server = MetricsServer::serve("127.0.0.1:0", reg.clone()).unwrap();
        let addr = server.local_addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains("version=0.0.4"));
        assert!(body.contains("pbg_trainer_edges 5"));
        crate::snapshot::lint_prometheus(&body).unwrap();

        // the snapshot is live: a later scrape sees later increments
        reg.counter("trainer.edges").add(5);
        let (_, body) = http_get(addr, "/metrics");
        assert!(body.contains("pbg_trainer_edges 10"));

        let (_, report) = http_get(addr, "/report");
        assert!(report.contains("p99="));

        let (head, _) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"));
        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"));
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut server = MetricsServer::serve("127.0.0.1:0", Registry::new()).unwrap();
        server.shutdown();
        server.shutdown();
        drop(server); // must not hang or panic
    }

    fn raw_request(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(bytes).unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn garbage_request_gets_400_and_does_not_kill_the_server() {
        let server = MetricsServer::serve("127.0.0.1:0", Registry::new()).unwrap();
        let addr = server.local_addr();
        let response = raw_request(addr, b"\x00\xffnot http at all\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 400"), "{response}");
        let (head, _) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"));
    }

    #[test]
    fn oversized_head_gets_431_without_unbounded_buffering() {
        let server = MetricsServer::serve("127.0.0.1:0", Registry::new()).unwrap();
        let addr = server.local_addr();
        // a header that never ends: the server must answer 431 after the
        // cap instead of buffering until the client gives up
        let mut request = b"GET /metrics HTTP/1.0\r\nX-Filler: ".to_vec();
        request.extend(std::iter::repeat_n(b'a', 2 * MAX_REQUEST_BYTES));
        let mut s = TcpStream::connect(addr).unwrap();
        // the server may answer and close before the whole flood is
        // written; a broken pipe here is the hardening working
        let _ = s.write_all(&request);
        let mut response = String::new();
        let _ = s.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.0 431"), "{response}");
        let (head, _) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"));
    }

    #[test]
    fn non_get_method_gets_405_with_allow_header() {
        let server = MetricsServer::serve("127.0.0.1:0", Registry::new()).unwrap();
        let addr = server.local_addr();
        for verb in ["POST", "PUT", "DELETE"] {
            let response = raw_request(
                addr,
                format!("{verb} /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n").as_bytes(),
            );
            assert!(response.starts_with("HTTP/1.0 405"), "{verb}: {response}");
            assert!(response.contains("Allow: GET"), "{verb}: {response}");
        }
    }

    #[test]
    fn request_body_is_read_to_content_length() {
        let server = MetricsServer::serve("127.0.0.1:0", Registry::new()).unwrap();
        let addr = server.local_addr();
        // body split across writes; the parser must wait for all of it
        // (the metrics server then answers 405, proving it parsed the
        // head rather than choking on the body bytes)
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /score HTTP/1.0\r\nContent-Length: 10\r\n\r\n12345")
            .unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        s.write_all(b"67890").unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
    }
}
