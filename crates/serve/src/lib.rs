//! `pbg-serve`: the memory-mapped embedding serving tier.
//!
//! Training produces a checkpoint directory; this crate turns it into a
//! live inference service without ever copying embedding shards onto the
//! heap. [`EmbedServer`] memory-maps every per-partition shard through
//! [`pbg_core::checkpoint::open_mmap`] (manifest checksums verified over
//! the mapped bytes), so startup cost is page-table setup plus a
//! checksum scan, resident memory is whatever the page cache keeps warm,
//! and N server processes on one host share a single physical copy of
//! the model.
//!
//! The HTTP side is [`pbg_telemetry::http`]'s one responder on the
//! workspace's one [`Listener`]: deadlines, request parsing, the
//! `400`/`413`/`431` refusals and response writing are the metrics
//! server's, and `/metrics` answers with the same
//! [`http::prometheus`] exposition. This crate supplies only the route
//! function, which adds per-client token-bucket rate limiting,
//! structured JSONL request logs (refusals included), and
//! latency/QPS/error counters in the shared telemetry registry.
//!
//! Endpoints:
//! - `POST /score` — body `{"src": id, "rel": name-or-index, "dsts":
//!   [id, ...]}`; answers `{"scores": [f32, ...]}` through the same
//!   batched kernel path offline evaluation uses.
//! - `POST /topk` — body `{"src": id, "rel": name-or-index, "k": n}`;
//!   answers the `k` best destinations over the *entire* destination
//!   shard, streamed block-by-block straight off the mapping. Ties
//!   resolve to the lower entity id, matching the offline argmax.
//! - `GET /embedding/{type}/{id}` (or `/embedding/{id}` when the schema
//!   has a single entity type) — one raw embedding row.
//! - `GET /healthz` — model card: dim, similarity, entity counts,
//!   mapped bytes.
//! - `GET /metrics` — Prometheus text exposition of the registry.

use pbg_core::model::{Embeddings, MmapEmbeddings};
use pbg_core::PbgError;
use pbg_graph::ids::RelationTypeId;
use pbg_telemetry::http::{self, Request, RequestError, Response};
use pbg_telemetry::listener::Listener;
use pbg_telemetry::metrics::names;
use pbg_telemetry::Registry;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::net::{IpAddr, SocketAddr};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Tuning for one [`EmbedServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Sustained per-client request rate (token-bucket refill). Zero or
    /// negative disables rate limiting.
    pub rate_limit_rps: f64,
    /// Burst capacity per client (bucket depth).
    pub rate_limit_burst: f64,
    /// Largest accepted request body; bigger bodies get `413`.
    pub max_body_bytes: usize,
    /// When set, one JSON line per request is appended here: timestamp,
    /// client, method, path, status, latency, response size.
    pub request_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            rate_limit_rps: 500.0,
            rate_limit_burst: 1000.0,
            max_body_bytes: 256 * 1024,
            request_log: None,
        }
    }
}

/// Per-client token bucket state.
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Classic token-bucket limiter keyed by client IP: each client accrues
/// `rps` tokens per second up to `burst`; a request spends one token or
/// is refused. Keyed by IP (not socket) so reconnecting does not reset
/// the budget.
struct RateLimiter {
    rps: f64,
    burst: f64,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

/// Above this many tracked clients, idle buckets get evicted — bounds
/// limiter memory against address-spraying clients.
const LIMITER_MAX_CLIENTS: usize = 10_000;

impl RateLimiter {
    fn new(rps: f64, burst: f64) -> Self {
        RateLimiter {
            rps,
            burst: burst.max(1.0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Spends one token for `ip`; `false` means throttle (answer 429).
    fn allow(&self, ip: IpAddr) -> bool {
        if self.rps <= 0.0 {
            return true;
        }
        let now = Instant::now();
        let mut map = self.buckets.lock().expect("rate limiter poisoned");
        if map.len() > LIMITER_MAX_CLIENTS {
            map.retain(|_, b| now.duration_since(b.last) < Duration::from_secs(60));
        }
        let b = map.entry(ip).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        b.tokens = (b.tokens + now.duration_since(b.last).as_secs_f64() * self.rps).min(self.burst);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Whole seconds until `ip` has a token again (the `Retry-After`
    /// value), at least 1.
    fn retry_after_secs(&self) -> u64 {
        if self.rps <= 0.0 {
            return 1;
        }
        (1.0 / self.rps).ceil().max(1.0) as u64
    }
}

/// Everything the route function needs, shared by every connection.
struct Ctx {
    model: Arc<MmapEmbeddings>,
    registry: Registry,
    limiter: RateLimiter,
    request_log: Option<Mutex<std::fs::File>>,
}

/// A JSON response body, newline-terminated.
fn json_response(status: &'static str, body: Value) -> Response {
    Response {
        content_type: "application/json",
        ..Response::text(
            status,
            serde_json::to_string(&body).unwrap_or_else(|_| "{}".to_string()) + "\n",
        )
    }
}

/// A client mistake: becomes a `400` with a JSON `error` field.
struct ApiError(String);

impl ApiError {
    fn new(msg: impl Into<String>) -> ApiError {
        ApiError(msg.into())
    }
}

impl From<PbgError> for ApiError {
    fn from(e: PbgError) -> ApiError {
        ApiError(e.to_string())
    }
}

type ApiResult = Result<Value, ApiError>;

/// A running embedding inference server. Shuts down on drop.
pub struct EmbedServer {
    listener: Listener,
}

impl EmbedServer {
    /// Binds `addr` (port 0 picks a free port) and serves `model` until
    /// shutdown or drop. The registry gains `serve.*` request metrics;
    /// `serve.mapped_bytes` is set immediately to the mapped model size.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or the open error for the request log.
    pub fn serve(
        addr: &str,
        model: Arc<MmapEmbeddings>,
        registry: Registry,
        config: ServeConfig,
    ) -> std::io::Result<EmbedServer> {
        let request_log = match &config.request_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        registry
            .gauge(names::SERVE_MAPPED_BYTES)
            .set(model.mapped_bytes() as u64);
        let ctx = Ctx {
            model,
            registry,
            limiter: RateLimiter::new(config.rate_limit_rps, config.rate_limit_burst),
            request_log,
        };
        let listener =
            http::serve_routes(addr, "pbg-serve", config.max_body_bytes, move |req, ip| {
                handle(req, ip, &ctx)
            })?;
        Ok(EmbedServer { listener })
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

/// The route function: routes a parsed request, or takes the
/// responder's refusal as is, then counts and logs the outcome.
fn handle(req: Result<&Request, RequestError>, client_ip: IpAddr, ctx: &Ctx) -> Response {
    let started = Instant::now();
    let (method, path, response) = match req {
        Ok(req) => (req.method.as_str(), req.route(), route(req, client_ip, ctx)),
        Err(e) => ("-", "-", Response::from(e)),
    };
    ctx.registry.counter(names::SERVE_REQUESTS).inc();
    if req.is_ok() {
        ctx.registry
            .histogram(names::SERVE_REQUEST_LATENCY_NS)
            .observe(started.elapsed().as_nanos() as u64);
    }
    let code = response.code();
    if code == 429 {
        ctx.registry.counter(names::SERVE_THROTTLED).inc();
    } else if (400..500).contains(&code) {
        ctx.registry.counter(names::SERVE_CLIENT_ERRORS).inc();
    }
    log_request(
        ctx,
        client_ip,
        method,
        path,
        code,
        started,
        response.body.len(),
    );
    response
}

/// Appends one structured JSONL line to the request log, if configured.
/// Logging failures never fail the request.
fn log_request(
    ctx: &Ctx,
    client: IpAddr,
    method: &str,
    path: &str,
    status: u16,
    started: Instant,
    bytes_out: usize,
) {
    let Some(log) = &ctx.request_log else { return };
    let ts_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let line = json!({
        "ts_ms": ts_ms,
        "client": client.to_string(),
        "method": method,
        "path": path,
        "status": status,
        "latency_ns": started.elapsed().as_nanos() as u64,
        "bytes_out": bytes_out as u64,
    });
    let Ok(text) = serde_json::to_string(&line) else {
        return;
    };
    if let Ok(mut f) = log.lock() {
        use std::io::Write;
        let _ = writeln!(f, "{text}");
    }
}

fn route(req: &Request, client_ip: IpAddr, ctx: &Ctx) -> Response {
    let path = req.route();
    // observability endpoints: never rate limited, GET only
    match path {
        "/" | "/healthz" | "/metrics" if req.method != "GET" => {
            return Response::method_not_allowed("GET")
        }
        "/" | "/healthz" => return json_response("200 OK", healthz(ctx)),
        "/metrics" => return http::prometheus(&ctx.registry),
        _ => {}
    }
    let is_inference =
        path == "/score" || path == "/topk" || path.strip_prefix("/embedding/").is_some();
    if !is_inference {
        return Response::text("404 Not Found", "not found\n");
    }
    if !ctx.limiter.allow(client_ip) {
        return json_response(
            "429 Too Many Requests",
            json!({"error": "rate limit exceeded"}),
        )
        .with_header("Retry-After", ctx.limiter.retry_after_secs().to_string());
    }
    let result = match (req.method.as_str(), path) {
        ("POST", "/score") => api_score(req, ctx),
        ("POST", "/topk") => api_topk(req, ctx),
        (_, "/score") | (_, "/topk") => return Response::method_not_allowed("POST"),
        ("GET", _) => api_embedding(path, ctx),
        _ => return Response::method_not_allowed("GET"),
    };
    match result {
        Ok(body) => json_response("200 OK", body),
        Err(ApiError(msg)) => json_response("400 Bad Request", json!({ "error": msg })),
    }
}

/// The model card `/healthz` answers: enough for a load balancer to
/// check liveness and for an operator to confirm *which* model this is.
fn healthz(ctx: &Ctx) -> Value {
    let m = &ctx.model;
    let entities: Vec<Value> = m
        .schema
        .entity_types()
        .iter()
        .map(|e| json!({"name": e.name(), "num_entities": e.num_entities() as u64}))
        .collect();
    let relations: Vec<Value> = m
        .schema
        .relation_types()
        .iter()
        .map(|r| json!(r.name()))
        .collect();
    json!({
        "status": "ok",
        "dim": m.dim as u64,
        "similarity": format!("{:?}", m.similarity),
        "entity_types": entities,
        "relations": relations,
        "mapped_bytes": m.mapped_bytes() as u64,
    })
}

// ---------------------------------------------------------------------
// Request parsing helpers
// ---------------------------------------------------------------------

fn body_json(req: &Request) -> Result<Value, ApiError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::new("request body is not valid UTF-8"))?;
    serde_json::from_str(text).map_err(|e| ApiError(format!("request body is not JSON: {e:?}")))
}

fn field_u32(v: &Value, name: &str) -> Result<u32, ApiError> {
    let f = v
        .get(name)
        .ok_or_else(|| ApiError(format!("missing field \"{name}\"")))?;
    let n = f
        .as_u64()
        .ok_or_else(|| ApiError(format!("field \"{name}\" must be a non-negative integer")))?;
    u32::try_from(n).map_err(|_| ApiError(format!("field \"{name}\" exceeds u32 range")))
}

/// Resolves the request's `rel` field: a relation name or a numeric
/// index, checked against the schema.
fn resolve_rel(v: &Value, model: &MmapEmbeddings) -> Result<RelationTypeId, ApiError> {
    let f = v
        .get("rel")
        .ok_or_else(|| ApiError::new("missing field \"rel\""))?;
    let rels = model.schema.relation_types();
    if let Some(n) = f.as_u64() {
        return Ok(model.relation_id(n)?);
    }
    if let Some(name) = f.as_str() {
        if let Some(i) = rels.iter().position(|r| r.name() == name) {
            return Ok(RelationTypeId(i as u32));
        }
        return Err(ApiError(format!("unknown relation \"{name}\"")));
    }
    Err(ApiError::new(
        "field \"rel\" must be a relation name or index",
    ))
}

// ---------------------------------------------------------------------
// Endpoint handlers
// ---------------------------------------------------------------------

/// `POST /score`: score one source against an explicit destination list
/// through the batched kernel path — float-identical to offline
/// `score_against_destinations`.
fn api_score(req: &Request, ctx: &Ctx) -> ApiResult {
    let v = body_json(req)?;
    let model = &ctx.model;
    let src = field_u32(&v, "src")?;
    let rel = resolve_rel(&v, model)?;
    let rdef = model.schema.relation_type(rel);
    model.check_entity(rdef.source_type(), src, "src")?;
    let dsts_v = v
        .get("dsts")
        .ok_or_else(|| ApiError::new("missing field \"dsts\""))?
        .as_array()
        .ok_or_else(|| ApiError::new("field \"dsts\" must be an array of entity ids"))?;
    if dsts_v.is_empty() {
        return Err(ApiError::new("field \"dsts\" must not be empty"));
    }
    let mut dsts = Vec::with_capacity(dsts_v.len());
    for d in dsts_v {
        let n = d
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| ApiError::new("field \"dsts\" must contain entity ids"))?;
        model.check_entity(rdef.dest_type(), n, "dst")?;
        dsts.push(n);
    }
    let scores = model.score_against_destinations(src, rel, &dsts);
    ctx.registry
        .counter(names::SERVE_ROWS_SCORED)
        .add(dsts.len() as u64);
    let scores: Vec<f64> = scores.into_iter().map(f64::from).collect();
    Ok(json!({ "scores": scores }))
}

/// `POST /topk`: the `k` best destinations over the whole destination
/// shard, streamed off the mapping block-by-block.
fn api_topk(req: &Request, ctx: &Ctx) -> ApiResult {
    let v = body_json(req)?;
    let model = &ctx.model;
    let src = field_u32(&v, "src")?;
    let rel = resolve_rel(&v, model)?;
    let rdef = model.schema.relation_type(rel);
    model.check_entity(rdef.source_type(), src, "src")?;
    let k = match v.get("k") {
        None => 10,
        Some(kv) => {
            let k = kv
                .as_u64()
                .ok_or_else(|| ApiError::new("field \"k\" must be a positive integer"))?;
            if k == 0 || k > 10_000 {
                return Err(ApiError::new("field \"k\" must be between 1 and 10000"));
            }
            k as usize
        }
    };
    let dest_def = model.schema.entity_type(rdef.dest_type());
    let results = model.top_destinations(src, rel, k);
    ctx.registry
        .counter(names::SERVE_ROWS_SCORED)
        .add(u64::from(dest_def.num_entities()));
    let results: Vec<Value> = results
        .into_iter()
        .map(|(dst, score)| json!({"dst": dst, "score": f64::from(score)}))
        .collect();
    Ok(json!({
        "rel": rdef.name(),
        "entity_type": dest_def.name(),
        "results": results,
    }))
}

/// `GET /embedding/{type}/{id}` (or `/embedding/{id}` for single-type
/// schemas): one raw embedding row, zero-copy until serialization.
fn api_embedding(path: &str, ctx: &Ctx) -> ApiResult {
    let model = &ctx.model;
    let rest = path
        .strip_prefix("/embedding/")
        .ok_or_else(|| ApiError::new("bad embedding path"))?;
    let segs: Vec<&str> = rest.split('/').filter(|s| !s.is_empty()).collect();
    let types = model.schema.entity_types();
    let (type_idx, id_str) = match segs.as_slice() {
        [id] if types.len() == 1 => (0usize, *id),
        [_] => {
            return Err(ApiError(format!(
                "model has {} entity types; use /embedding/{{type}}/{{id}}",
                types.len()
            )))
        }
        [ty, id] => {
            let idx = types
                .iter()
                .position(|e| e.name() == *ty)
                .or_else(|| ty.parse::<usize>().ok().filter(|&i| i < types.len()))
                .ok_or_else(|| ApiError(format!("unknown entity type \"{ty}\"")))?;
            (idx, *id)
        }
        _ => {
            return Err(ApiError::new(
                "use /embedding/{id} or /embedding/{type}/{id}",
            ))
        }
    };
    let id: u32 = id_str
        .parse()
        .map_err(|_| ApiError(format!("entity id \"{id_str}\" is not a number")))?;
    model.check_entity(pbg_graph::ids::EntityTypeId(type_idx as u32), id, "id")?;
    let row: Vec<f64> = model
        .embedding(type_idx, id)
        .iter()
        .map(|&x| f64::from(x))
        .collect();
    Ok(json!({
        "entity_type": types[type_idx].name(),
        "id": id,
        "dim": model.dim as u64,
        "embedding": row,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbg_core::config::PbgConfig;
    use pbg_core::model::Model;
    use pbg_core::storage::InMemoryStore;
    use pbg_core::{checkpoint, model::TrainedEmbeddings};
    use pbg_graph::schema::{EntityTypeDef, GraphSchema, OperatorKind, RelationTypeDef};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn snapshot() -> TrainedEmbeddings {
        let schema = GraphSchema::builder()
            .entity_type(EntityTypeDef::new("user", 30).with_partitions(2))
            .entity_type(EntityTypeDef::new("item", 12))
            .relation_type(
                RelationTypeDef::new("buys", 0u32, 1u32).with_operator(OperatorKind::Translation),
            )
            .relation_type(
                RelationTypeDef::new("follows", 0u32, 0u32).with_operator(OperatorKind::Identity),
            )
            .build()
            .unwrap();
        let config = PbgConfig::builder()
            .dim(8)
            .batch_size(4)
            .chunk_size(2)
            .build()
            .unwrap();
        let model = Model::new(schema, config).unwrap();
        let store = InMemoryStore::new(model.store_layout());
        model.snapshot(&store)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pbg_serve_{name}_{}", std::process::id()))
    }

    struct Fixture {
        dir: std::path::PathBuf,
        server: EmbedServer,
        model: Arc<MmapEmbeddings>,
        registry: Registry,
    }

    impl Fixture {
        fn start(name: &str, config: ServeConfig) -> Fixture {
            let dir = tmp(name);
            std::fs::remove_dir_all(&dir).ok();
            checkpoint::save(&snapshot(), &dir).unwrap();
            let model = Arc::new(checkpoint::open_mmap(&dir).unwrap());
            let registry = Registry::new();
            let server =
                EmbedServer::serve("127.0.0.1:0", Arc::clone(&model), registry.clone(), config)
                    .unwrap();
            Fixture {
                dir,
                server,
                model,
                registry,
            }
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            self.server.shutdown();
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        let req = format!(
            "{method} {path} HTTP/1.0\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        let (head, payload) = response
            .split_once("\r\n\r\n")
            .unwrap_or((response.as_str(), ""));
        let status = head.lines().next().unwrap_or("").to_string();
        (status, payload.to_string())
    }

    fn unlimited() -> ServeConfig {
        ServeConfig {
            rate_limit_rps: 0.0,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn healthz_reports_model_card() {
        let f = Fixture::start("healthz", unlimited());
        let (status, body) = http(f.server.local_addr(), "GET", "/healthz", "");
        assert!(status.contains("200"), "{status}");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("dim").unwrap().as_u64(), Some(8));
        assert_eq!(
            v.get("mapped_bytes").unwrap().as_u64(),
            Some(f.model.mapped_bytes() as u64)
        );
        assert_eq!(v.get("relations").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn metrics_endpoint_is_lint_clean_and_counts_requests() {
        let f = Fixture::start("metrics", unlimited());
        let addr = f.server.local_addr();
        http(addr, "GET", "/healthz", "");
        let (status, body) = http(addr, "GET", "/metrics", "");
        assert!(status.contains("200"), "{status}");
        pbg_telemetry::snapshot::lint_prometheus(&body).unwrap();
        assert!(body.contains("serve_requests"), "{body}");
        assert!(f.registry.counter(names::SERVE_REQUESTS).get() >= 1);
        assert!(f.registry.gauge(names::SERVE_MAPPED_BYTES).get() > 0);
    }

    #[test]
    fn topk_matches_offline_argmax() {
        let f = Fixture::start("topk", unlimited());
        let addr = f.server.local_addr();
        for src in [0u32, 3, 17] {
            // offline reference: score every destination through the
            // batched path and argmax (ties -> lowest id)
            let all: Vec<u32> = (0..12).collect();
            let scores = f
                .model
                .score_against_destinations(src, RelationTypeId(0), &all);
            let mut best = 0usize;
            for (i, &s) in scores.iter().enumerate() {
                if s > scores[best] {
                    best = i;
                }
            }
            let (status, body) = http(
                addr,
                "POST",
                "/topk",
                &format!("{{\"src\": {src}, \"rel\": \"buys\", \"k\": 3}}"),
            );
            assert!(status.contains("200"), "{status} {body}");
            let v: Value = serde_json::from_str(&body).unwrap();
            let results = v.get("results").unwrap().as_array().unwrap();
            assert_eq!(results.len(), 3);
            let top = &results[0];
            assert_eq!(top.get("dst").unwrap().as_u64(), Some(best as u64));
            let served = top.get("score").unwrap().as_f64().unwrap();
            assert!((served - f64::from(scores[best])).abs() < 1e-6);
        }
    }

    #[test]
    fn score_matches_model_and_counts_rows() {
        let f = Fixture::start("score", unlimited());
        let addr = f.server.local_addr();
        let (status, body) = http(
            addr,
            "POST",
            "/score",
            "{\"src\": 5, \"rel\": 0, \"dsts\": [0, 7, 11]}",
        );
        assert!(status.contains("200"), "{status} {body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        let scores = v.get("scores").unwrap().as_array().unwrap();
        let want = f
            .model
            .score_against_destinations(5, RelationTypeId(0), &[0, 7, 11]);
        assert_eq!(scores.len(), 3);
        for (got, want) in scores.iter().zip(&want) {
            assert!((got.as_f64().unwrap() - f64::from(*want)).abs() < 1e-6);
        }
        assert_eq!(f.registry.counter(names::SERVE_ROWS_SCORED).get(), 3);
    }

    #[test]
    fn embedding_roundtrips_by_type_name() {
        let f = Fixture::start("embedding", unlimited());
        let addr = f.server.local_addr();
        let (status, body) = http(addr, "GET", "/embedding/item/4", "");
        assert!(status.contains("200"), "{status} {body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("entity_type").unwrap().as_str(), Some("item"));
        let row = v.get("embedding").unwrap().as_array().unwrap();
        let want = f.model.embedding(1, 4);
        assert_eq!(row.len(), want.len());
        for (got, want) in row.iter().zip(want.iter()) {
            assert!((got.as_f64().unwrap() - f64::from(*want)).abs() < 1e-9);
        }
    }

    #[test]
    fn client_mistakes_get_400_with_json_error() {
        let f = Fixture::start("errors", unlimited());
        let addr = f.server.local_addr();
        for (path, body) in [
            ("/score", "not json"),
            ("/score", "{\"src\": 5}"),
            ("/score", "{\"src\": 5, \"rel\": \"nope\", \"dsts\": [1]}"),
            ("/score", "{\"src\": 5, \"rel\": 0, \"dsts\": [99]}"),
            ("/score", "{\"src\": 99, \"rel\": 0, \"dsts\": [1]}"),
            ("/topk", "{\"src\": 1, \"rel\": 0, \"k\": 0}"),
        ] {
            let (status, reply) = http(addr, "POST", path, body);
            assert!(status.contains("400"), "{path} {body}: {status}");
            let v: Value = serde_json::from_str(&reply).unwrap();
            assert!(v.get("error").unwrap().as_str().is_some());
        }
        let (status, _) = http(addr, "GET", "/embedding/ghost/1", "");
        assert!(status.contains("400"), "{status}");
        assert!(f.registry.counter(names::SERVE_CLIENT_ERRORS).get() >= 7);
    }

    #[test]
    fn unknown_route_404_and_wrong_method_405() {
        let f = Fixture::start("routes", unlimited());
        let addr = f.server.local_addr();
        let (status, _) = http(addr, "GET", "/nope", "");
        assert!(status.contains("404"), "{status}");
        let (status, _) = http(addr, "GET", "/score", "");
        assert!(status.contains("405"), "{status}");
        let (status, _) = http(addr, "POST", "/metrics", "");
        assert!(status.contains("405"), "{status}");
        let (status, _) = http(addr, "POST", "/embedding/item/1", "");
        assert!(status.contains("405"), "{status}");
    }

    /// Sends raw bytes and reads until the server closes. A server may
    /// answer and close before a flood is fully written, so write and
    /// read errors are part of what is being tested, not test failures.
    fn raw(addr: SocketAddr, request: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(request);
        let mut response = String::new();
        let _ = s.read_to_string(&mut response);
        response
    }

    #[test]
    fn metrics_and_embed_servers_refuse_alike() {
        let log_path = tmp("refusals.jsonl");
        std::fs::remove_file(&log_path).ok();
        let config = ServeConfig {
            request_log: Some(log_path.clone()),
            ..unlimited()
        };
        let f = Fixture::start("refusals", config);
        let metrics = pbg_telemetry::MetricsServer::serve("127.0.0.1:0", Registry::new()).unwrap();
        let mut head_flood = b"GET /metrics HTTP/1.0\r\nX-Filler: ".to_vec();
        head_flood.extend(std::iter::repeat_n(b'a', 16 * 1024));
        let cases: [(&[u8], &str, Option<&str>); 4] = [
            (b"\x00\xffnot http at all\r\n\r\n", "400", None),
            (&head_flood, "431", None),
            (
                b"POST /metrics HTTP/1.0\r\nContent-Length: 1000000000\r\n\r\n",
                "413",
                None,
            ),
            (b"DELETE /metrics HTTP/1.0\r\n\r\n", "405", Some("GET")),
        ];
        for (request, code, allow) in cases {
            let from_metrics = raw(metrics.local_addr(), request);
            let from_embed = raw(f.server.local_addr(), request);
            assert!(
                from_metrics.starts_with(&format!("HTTP/1.0 {code} ")),
                "{from_metrics}"
            );
            let allow_header = from_metrics.lines().find_map(|l| l.strip_prefix("Allow: "));
            assert_eq!(allow_header, allow, "{from_metrics}");
            assert_eq!(from_embed, from_metrics, "same refusal from both servers");
        }
        // the embedding server still counts and logs every refusal
        assert_eq!(f.registry.counter(names::SERVE_CLIENT_ERRORS).get(), 4);
        assert_eq!(f.registry.counter(names::SERVE_REQUESTS).get(), 4);
        let text = std::fs::read_to_string(&log_path).unwrap();
        let statuses: Vec<u64> = text
            .lines()
            .map(|l| {
                let v: Value = serde_json::from_str(l).unwrap();
                v.get("status").unwrap().as_u64().unwrap()
            })
            .collect();
        assert_eq!(statuses, [400, 431, 413, 405], "{text}");
        // and both keep serving
        let (status, _) = http(f.server.local_addr(), "GET", "/healthz", "");
        assert!(status.contains("200"), "{status}");
        assert!(raw(metrics.local_addr(), b"GET /healthz HTTP/1.0\r\n\r\n").contains(" 200 "));
        std::fs::remove_file(&log_path).ok();
    }

    #[test]
    fn rate_limiter_throttles_with_retry_after() {
        let config = ServeConfig {
            rate_limit_rps: 0.001,
            rate_limit_burst: 2.0,
            ..ServeConfig::default()
        };
        let f = Fixture::start("throttle", config);
        let addr = f.server.local_addr();
        let body = "{\"src\": 1, \"rel\": 0, \"k\": 1}";
        let mut throttled = 0;
        for _ in 0..4 {
            let mut s = TcpStream::connect(addr).unwrap();
            let req = format!(
                "POST /topk HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            s.write_all(req.as_bytes()).unwrap();
            let mut response = String::new();
            s.read_to_string(&mut response).unwrap();
            if response.contains("429") {
                throttled += 1;
                assert!(response.contains("Retry-After:"), "{response}");
            }
        }
        // burst of 2 at ~zero refill: at least the last two must throttle
        assert!(throttled >= 2, "only {throttled} throttled");
        assert!(f.registry.counter(names::SERVE_THROTTLED).get() >= 2);
        // health stays reachable while the client is throttled
        let (status, _) = http(addr, "GET", "/healthz", "");
        assert!(status.contains("200"), "{status}");
    }

    #[test]
    fn request_log_captures_structured_lines() {
        let log_path = tmp("reqlog.jsonl");
        std::fs::remove_file(&log_path).ok();
        let config = ServeConfig {
            rate_limit_rps: 0.0,
            request_log: Some(log_path.clone()),
            ..ServeConfig::default()
        };
        let f = Fixture::start("reqlog", config);
        let addr = f.server.local_addr();
        http(addr, "GET", "/healthz", "");
        http(addr, "POST", "/topk", "{\"src\": 1, \"rel\": 0, \"k\": 2}");
        http(addr, "GET", "/nope", "");
        let text = std::fs::read_to_string(&log_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for line in &lines {
            let v: Value = serde_json::from_str(line).unwrap();
            for key in ["ts_ms", "client", "method", "path", "status", "latency_ns"] {
                assert!(v.get(key).is_some(), "missing {key} in {line}");
            }
        }
        let topk: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(topk.get("path").unwrap().as_str(), Some("/topk"));
        assert_eq!(topk.get("status").unwrap().as_u64(), Some(200));
        std::fs::remove_file(&log_path).ok();
    }
}
