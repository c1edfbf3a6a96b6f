//! Blocking RPC clients: one TCP connection per remote service,
//! implementing the `distsim::service` traits over the wire protocol.
//!
//! Retry policy: connection *establishment* retries with exponential
//! backoff (a rank may start before its servers), but a failure
//! mid-RPC propagates as [`ServiceError::Transport`] instead of blindly
//! resending — `push_pull` and `checkin` are not idempotent, and a retry
//! after a lost response could double-apply a delta. Injected faults
//! never reach these clients: the rank driver's
//! [`Faulty`](pbg_distsim::fault::Faulty) decorator decides them *before*
//! a request is forwarded, so they never risk duplication either.

use crate::wire::{self, Message, WireError};
use parking_lot::Mutex;
use pbg_core::storage::PartitionKey;
use pbg_distsim::fault;
use pbg_distsim::lockserver::Acquire;
use pbg_distsim::paramserver::ParamKey;
use pbg_distsim::service::{LockService, ParamService, PartitionService, ServiceError};
use pbg_graph::bucket::BucketId;
use pbg_telemetry::metrics::names as metric_name;
use pbg_telemetry::trace::names as span_name;
use pbg_telemetry::{FieldValue, Registry, TraceContext};
use std::net::TcpStream;
use std::time::Instant;

/// How many times to retry the initial TCP connect (with
/// [`fault::backoff`]) before giving up: a trainer rank may come up
/// before its servers finish binding.
const CONNECT_ATTEMPTS: u32 = 30;

/// Client-side network counters, shared by every connection created
/// from the same registry.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    bytes_sent: pbg_telemetry::Counter,
    bytes_received: pbg_telemetry::Counter,
    rpc_latency: pbg_telemetry::Histogram,
    retries: pbg_telemetry::Counter,
}

impl NetMetrics {
    /// Binds the `net.*` instruments in `registry`.
    pub fn new(registry: &Registry) -> Self {
        NetMetrics {
            bytes_sent: registry.counter(metric_name::NET_BYTES_SENT),
            bytes_received: registry.counter(metric_name::NET_BYTES_RECEIVED),
            rpc_latency: registry.histogram(metric_name::NET_RPC_LATENCY_NS),
            retries: registry.counter(metric_name::NET_RPC_RETRIES),
        }
    }

    /// Counter of retried client operations (reconnects, injected
    /// transfer failures).
    pub fn retries(&self) -> &pbg_telemetry::Counter {
        &self.retries
    }
}

/// One lazily-(re)connected TCP connection with RPC framing and
/// telemetry.
#[derive(Debug)]
pub struct Connection {
    addr: String,
    stream: Mutex<Option<TcpStream>>,
    metrics: NetMetrics,
    telemetry: Registry,
}

impl Connection {
    /// Creates a connection to `addr` (connects lazily on first use).
    pub fn new(addr: impl Into<String>, telemetry: &Registry) -> Self {
        Connection {
            addr: addr.into(),
            stream: Mutex::new(None),
            metrics: NetMetrics::new(telemetry),
            telemetry: telemetry.clone(),
        }
    }

    /// The remote address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn connect_with_backoff(&self) -> Result<TcpStream, ServiceError> {
        let mut attempt = 0;
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    return Ok(stream);
                }
                Err(e) => {
                    attempt += 1;
                    if attempt >= CONNECT_ATTEMPTS {
                        return Err(ServiceError::Transport(format!(
                            "connect to {} failed after {attempt} attempts: {e}",
                            self.addr
                        )));
                    }
                    self.metrics.retries.inc();
                    std::thread::sleep(fault::backoff(attempt));
                }
            }
        }
    }

    /// Runs one RPC exchange under the connection lock. `f` performs the
    /// whole request/response conversation on the stream and reports
    /// `(result, bytes_sent, bytes_received)`; any error drops the
    /// stream so the next call reconnects.
    ///
    /// While tracing is on, a [`TraceContext`] is handed to `f` for the
    /// request frame: its `parent_span` is the id of the `rpc` span this
    /// call records, so the server's `handle` span on the other rank
    /// becomes this span's child. With tracing off, `f` gets `None` and
    /// the wire bytes are identical to an untraced build.
    fn call<T>(
        &self,
        label: &'static str,
        f: impl FnOnce(&mut TcpStream, Option<&TraceContext>) -> Result<(T, usize, usize), WireError>,
    ) -> Result<T, ServiceError> {
        let mut guard = self.stream.lock();
        if guard.is_none() {
            *guard = Some(self.connect_with_backoff()?);
        }
        let stream = guard.as_mut().expect("connection just established");
        let ctx = if self.telemetry.tracing() {
            Some(TraceContext {
                trace_id: self.telemetry.trace_id(),
                parent_span: self.telemetry.next_span_id(),
                rank: self.telemetry.rank().unwrap_or(u32::MAX),
            })
        } else {
            None
        };
        let t0_ns = self.telemetry.now_ns();
        let started = Instant::now();
        match f(stream, ctx.as_ref()) {
            Ok((value, sent, received)) => {
                let dur = started.elapsed().as_nanos() as u64;
                self.metrics.bytes_sent.add(sent as u64);
                self.metrics.bytes_received.add(received as u64);
                self.metrics.rpc_latency.observe(dur);
                if let Some(ctx) = &ctx {
                    self.telemetry.record_span(
                        span_name::RPC,
                        t0_ns,
                        dur,
                        vec![
                            ("tag", FieldValue::Str(label.to_string())),
                            ("bytes", FieldValue::U64((sent + received) as u64)),
                            ("span_id", FieldValue::U64(ctx.parent_span)),
                            ("trace_id", FieldValue::U64(ctx.trace_id)),
                        ],
                    );
                }
                Ok(value)
            }
            Err(e) => {
                // the stream may hold half a frame: force a reconnect
                *guard = None;
                Err(match e {
                    WireError::Io(io) => ServiceError::Transport(format!("{label}: {io}")),
                    other => ServiceError::Protocol(format!("{label}: {other}")),
                })
            }
        }
    }

    /// One simple request → response exchange (no streamed chunks).
    fn rpc(&self, label: &'static str, request: &Message) -> Result<Message, ServiceError> {
        let reply = self.call(label, |stream, ctx| {
            let sent = wire::write_message_with(stream, request, ctx)?;
            let (reply, received) = wire::read_message(stream)?;
            Ok((reply, sent, received))
        })?;
        reject_error(label, reply)
    }

    /// Round-trips a ping (used by tests and health checks).
    pub fn ping(&self, nonce: u64) -> Result<(), ServiceError> {
        match self.rpc("ping", &Message::Ping { nonce })? {
            Message::Pong { nonce: back } if back == nonce => Ok(()),
            other => Err(unexpected("ping", &other)),
        }
    }
}

fn reject_error(label: &'static str, reply: Message) -> Result<Message, ServiceError> {
    match reply {
        Message::Error { detail } => Err(ServiceError::Protocol(format!(
            "{label}: server error: {detail}"
        ))),
        other => Ok(other),
    }
}

fn unexpected(label: &'static str, got: &Message) -> ServiceError {
    ServiceError::Protocol(format!("{label}: unexpected reply {}", got.tag_name()))
}

/// Lock server client.
#[derive(Debug)]
pub struct NetLock {
    conn: Connection,
}

impl NetLock {
    /// Connects to the lock server at `addr`.
    pub fn new(addr: impl Into<String>, telemetry: &Registry) -> Self {
        NetLock {
            conn: Connection::new(addr, telemetry),
        }
    }
}

impl LockService for NetLock {
    fn acquire(
        &self,
        machine: usize,
        prev: Option<BucketId>,
    ) -> Result<(usize, Acquire), ServiceError> {
        let request = Message::LockAcquire {
            machine: machine as u64,
            prev,
        };
        match self.conn.rpc("lock_acquire", &request)? {
            Message::LockGrant { epoch, outcome } => Ok((epoch as usize, outcome)),
            other => Err(unexpected("lock_acquire", &other)),
        }
    }

    fn release_bucket(&self, machine: usize, bucket: BucketId) -> Result<(), ServiceError> {
        let request = Message::LockRelease {
            machine: machine as u64,
            bucket,
        };
        match self.conn.rpc("lock_release", &request)? {
            Message::Ack => Ok(()),
            other => Err(unexpected("lock_release", &other)),
        }
    }

    fn reap_expired(&self) -> Result<Vec<BucketId>, ServiceError> {
        match self.conn.rpc("lock_reap", &Message::LockReap)? {
            Message::LockReaped { buckets } => Ok(buckets),
            other => Err(unexpected("lock_reap", &other)),
        }
    }
}

/// Partition server client with chunk-streamed float blocks.
#[derive(Debug)]
pub struct NetPartitions {
    conn: Connection,
    /// Wire precision for check-in *embedding* uploads — Adagrad
    /// accumulators always travel as exact f32 chunks regardless (see
    /// [`wire::write_part_streams`]). Downloads need no configuration:
    /// [`wire::read_chunks`] decodes whatever slab kind the server
    /// sends. Must match the server layout's precision or the
    /// cost-model reconciliation drifts.
    precision: pbg_tensor::Precision,
    /// Embedding dimension, for row-aligned quantized framing (so int8
    /// keeps per-row scales on the wire). Ignored at f32.
    dim: usize,
}

impl NetPartitions {
    /// Connects to the partition server at `addr`, uploading f32.
    pub fn new(addr: impl Into<String>, telemetry: &Registry) -> Self {
        NetPartitions::with_precision(addr, telemetry, pbg_tensor::Precision::F32, 1)
    }

    /// Connects with an explicit wire precision for check-in embedding
    /// uploads; `dim` is the embedding dimension the quantized row
    /// framing aligns to (any value is fine at f32).
    pub fn with_precision(
        addr: impl Into<String>,
        telemetry: &Registry,
        precision: pbg_tensor::Precision,
        dim: usize,
    ) -> Self {
        NetPartitions {
            conn: Connection::new(addr, telemetry),
            precision,
            dim,
        }
    }

    fn fetch(
        &self,
        label: &'static str,
        request: Message,
    ) -> Result<(Vec<f32>, Vec<f32>, u64), ServiceError> {
        let reply = self.conn.call(label, |stream, ctx| {
            let sent = wire::write_message_with(stream, &request, ctx)?;
            let (header, mut received) = wire::read_message(stream)?;
            let (token, emb_len, acc_len) = match header {
                Message::PartData {
                    token,
                    emb_len,
                    acc_len,
                } => (token, emb_len as usize, acc_len as usize),
                Message::Error { detail } => {
                    return Err(WireError::BadPayload(format!("server error: {detail}")))
                }
                other => {
                    return Err(WireError::BadPayload(format!(
                        "expected PartData, got {}",
                        other.tag_name()
                    )))
                }
            };
            // emb then acc arrive as one chunk stream — concatenated f32
            // chunks, or quantized emb frames followed by plain f32 acc
            // chunks; read_chunks decodes both transparently and the
            // cost model mirrors the same framing
            let (mut combined, n) = wire::read_chunks(stream, emb_len + acc_len)?;
            received += n;
            let acc = combined.split_off(emb_len);
            Ok(((combined, acc, token), sent, received))
        })?;
        Ok(reply)
    }
}

impl PartitionService for NetPartitions {
    fn checkout(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>, u64), ServiceError> {
        self.fetch("part_checkout", Message::PartCheckout { key })
    }

    fn checkin(
        &self,
        key: PartitionKey,
        emb: Vec<f32>,
        acc: Vec<f32>,
        token: u64,
    ) -> Result<bool, ServiceError> {
        let committed = self.conn.call("part_checkin", |stream, ctx| {
            let header = Message::PartCheckin {
                key,
                token,
                emb_len: emb.len() as u32,
                acc_len: acc.len() as u32,
            };
            let mut sent = wire::write_message_with(stream, &header, ctx)?;
            // embeddings at the configured wire precision; accumulators
            // always as exact f32 (at f32 both ride one concatenated
            // stream, byte-identical to the unquantized protocol)
            sent += wire::write_part_streams(stream, emb, &acc, self.dim, self.precision)?;
            let (reply, received) = wire::read_message(stream)?;
            match reply {
                Message::PartCheckinResp { committed } => Ok((committed, sent, received)),
                Message::Error { detail } => {
                    Err(WireError::BadPayload(format!("server error: {detail}")))
                }
                other => Err(WireError::BadPayload(format!(
                    "expected PartCheckinResp, got {}",
                    other.tag_name()
                ))),
            }
        })?;
        Ok(committed)
    }

    fn revoke(&self, key: PartitionKey) -> Result<(), ServiceError> {
        match self.conn.rpc("part_revoke", &Message::PartRevoke { key })? {
            Message::Ack => Ok(()),
            other => Err(unexpected("part_revoke", &other)),
        }
    }

    fn peek(&self, key: PartitionKey) -> Result<(Vec<f32>, Vec<f32>), ServiceError> {
        let (emb, acc, _token) = self.fetch("part_peek", Message::PartPeek { key })?;
        Ok((emb, acc))
    }
}

/// Parameter server client.
#[derive(Debug)]
pub struct NetParams {
    conn: Connection,
}

impl NetParams {
    /// Connects to the parameter server at `addr`.
    pub fn new(addr: impl Into<String>, telemetry: &Registry) -> Self {
        NetParams {
            conn: Connection::new(addr, telemetry),
        }
    }
}

/// Largest parameter block one frame carries (tag, key and length
/// prefix take 10 payload bytes). Unpartitioned entity tables travel as
/// parameter blocks, so this bounds their size over TCP.
pub const MAX_PARAM_FLOATS: usize = (wire::MAX_PAYLOAD_BYTES - 10) / 4;

/// Rejects a block the codec could only refuse by panicking.
fn check_block(label: &'static str, floats: &[f32]) -> Result<(), ServiceError> {
    if floats.len() > MAX_PARAM_FLOATS {
        return Err(ServiceError::Protocol(format!(
            "{label}: a block of {} floats does not fit one frame (limit {MAX_PARAM_FLOATS})",
            floats.len()
        )));
    }
    Ok(())
}

impl ParamService for NetParams {
    fn register(&self, key: ParamKey, init: &[f32]) -> Result<Vec<f32>, ServiceError> {
        check_block("param_register", init)?;
        let request = Message::ParamRegister {
            key,
            init: init.to_vec(),
        };
        match self.conn.rpc("param_register", &request)? {
            Message::ParamValue { value } => Ok(value),
            other => Err(unexpected("param_register", &other)),
        }
    }

    fn push_pull(&self, key: ParamKey, delta: &[f32]) -> Result<Vec<f32>, ServiceError> {
        check_block("param_push_pull", delta)?;
        let request = Message::ParamPushPull {
            key,
            delta: delta.to_vec(),
        };
        match self.conn.rpc("param_push_pull", &request)? {
            Message::ParamValue { value } => Ok(value),
            other => Err(unexpected("param_push_pull", &other)),
        }
    }

    fn pull(&self, key: ParamKey) -> Result<Vec<f32>, ServiceError> {
        match self.conn.rpc("param_pull", &Message::ParamPull { key })? {
            Message::ParamValue { value } => Ok(value),
            other => Err(unexpected("param_pull", &other)),
        }
    }
}
