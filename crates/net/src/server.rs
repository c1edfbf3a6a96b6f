//! TCP servers wrapping the `distsim` state machines.
//!
//! Each [`NetServer`] runs on `pbg-telemetry`'s one [`Listener`], the
//! same accept loop the HTTP servers use: every accepted socket gets its
//! own thread, which turns off Nagle and then reads one request frame at
//! a time and replies until the client hangs up. The state machines
//! themselves ([`EpochLock`], [`PartitionServer`], [`ParameterServer`])
//! are the exact objects the in-process simulation uses — the server is
//! only transport.
//!
//! State-machine calls run under `catch_unwind`: the sim servers panic
//! on protocol misuse (unknown partition key, unregistered parameter),
//! and a malicious or buggy client must take down its own RPC, not the
//! server. The `parking_lot` mutexes inside the state machines do not
//! poison, so unwinding is safe to swallow.
//!
//! When a request frame carries a [`TraceContext`], the connection loop
//! records a [`trace::names::HANDLE`] span around the dispatch, parented
//! on the client's RPC span — the server half of every cross-rank edge
//! in a merged timeline. The `*_with` constructors take the registry
//! that receives those spans; the plain constructors serve untraced.

use crate::wire::{self, Message, WireError};
use pbg_distsim::lockserver::EpochLock;
use pbg_distsim::paramserver::ParameterServer;
use pbg_distsim::partitionserver::PartitionServer;
use pbg_telemetry::listener::Listener;
use pbg_telemetry::trace;
use pbg_telemetry::{metrics, Counter, FieldValue, Registry, TraceContext};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Per-server telemetry shared by every connection thread.
struct ServerTelemetry {
    registry: Registry,
    requests: Counter,
}

impl ServerTelemetry {
    fn new(registry: &Registry) -> Self {
        ServerTelemetry {
            registry: registry.clone(),
            requests: registry.counter(metrics::names::NET_REQUESTS_HANDLED),
        }
    }
}

/// A running server: a [`Listener`] whose connection threads run the
/// request loop. Dropping it (or calling [`NetServer::shutdown`]) stops
/// accepting; handler threads exit when their client disconnects.
#[derive(Debug)]
pub struct NetServer {
    listener: Listener,
}

impl NetServer {
    /// Serves an [`EpochLock`] (lock server role), untraced.
    pub fn lock(addr: &str, lock: Arc<EpochLock>) -> io::Result<NetServer> {
        NetServer::lock_with(addr, lock, Registry::disabled())
    }

    /// Serves an [`EpochLock`], recording per-request `handle` spans and
    /// request counts into `telemetry`.
    pub fn lock_with(
        addr: &str,
        lock: Arc<EpochLock>,
        telemetry: &Registry,
    ) -> io::Result<NetServer> {
        serve(
            addr,
            move |stream, msg| handle_lock(stream, msg, &lock),
            ServerTelemetry::new(telemetry),
        )
    }

    /// Serves a [`PartitionServer`] (partition server role), untraced.
    pub fn partitions(addr: &str, parts: Arc<PartitionServer>) -> io::Result<NetServer> {
        NetServer::partitions_with(addr, parts, Registry::disabled())
    }

    /// Serves a [`PartitionServer`] with per-request telemetry.
    pub fn partitions_with(
        addr: &str,
        parts: Arc<PartitionServer>,
        telemetry: &Registry,
    ) -> io::Result<NetServer> {
        serve(
            addr,
            move |stream, msg| handle_partitions(stream, msg, &parts),
            ServerTelemetry::new(telemetry),
        )
    }

    /// Serves a [`ParameterServer`] (parameter server role), untraced.
    pub fn params(addr: &str, params: Arc<ParameterServer>) -> io::Result<NetServer> {
        NetServer::params_with(addr, params, Registry::disabled())
    }

    /// Serves a [`ParameterServer`] with per-request telemetry.
    pub fn params_with(
        addr: &str,
        params: Arc<ParameterServer>,
        telemetry: &Registry,
    ) -> io::Result<NetServer> {
        serve(
            addr,
            move |stream, msg| handle_params(stream, msg, &params),
            ServerTelemetry::new(telemetry),
        )
    }

    /// The bound address (useful with port 0 for ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops accepting connections and joins the accept thread.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

fn serve<H>(addr: &str, handler: H, telemetry: ServerTelemetry) -> io::Result<NetServer>
where
    H: Fn(&mut TcpStream, Message) -> Result<(), WireError> + Send + Sync + 'static,
{
    let listener = Listener::serve(addr, "pbg-net", move |mut stream| {
        stream.set_nodelay(true).ok();
        connection_loop(&mut stream, &handler, &telemetry);
    })?;
    Ok(NetServer { listener })
}

/// Reads requests until the client hangs up. A handler error is
/// reported back as an `Error` frame on a best-effort basis, then the
/// connection is dropped (its framing may be out of sync). Requests
/// carrying a [`TraceContext`] get a `handle` span parented on the
/// client's RPC span.
fn connection_loop(
    stream: &mut TcpStream,
    handler: &(dyn Fn(&mut TcpStream, Message) -> Result<(), WireError> + Send + Sync),
    telemetry: &ServerTelemetry,
) {
    loop {
        match wire::read_message_opt_full(stream) {
            Ok(None) => break,
            Ok(Some((msg, ctx, _))) => {
                telemetry.requests.inc();
                let tag = msg.tag_name();
                let start_ns = telemetry.registry.now_ns();
                let result = handler(stream, msg);
                record_handle_span(telemetry, tag, start_ns, ctx.as_ref());
                if let Err(e) = result {
                    let _ = wire::write_message(
                        stream,
                        &Message::Error {
                            detail: e.to_string(),
                        },
                    );
                    break;
                }
            }
            Err(e) => {
                let _ = wire::write_message(
                    stream,
                    &Message::Error {
                        detail: e.to_string(),
                    },
                );
                break;
            }
        }
    }
}

/// Records the server half of a distributed span: what this role did
/// for one request, linked (via `parent_span`) to the client-side `rpc`
/// span that issued it.
fn record_handle_span(
    telemetry: &ServerTelemetry,
    tag: &'static str,
    start_ns: u64,
    ctx: Option<&TraceContext>,
) {
    let registry = &telemetry.registry;
    let Some(ctx) = ctx else { return };
    if !registry.tracing() {
        return;
    }
    let dur_ns = registry.now_ns().saturating_sub(start_ns);
    registry.record_span(
        trace::names::HANDLE,
        start_ns,
        dur_ns,
        vec![
            ("tag", FieldValue::from(tag)),
            ("trace_id", FieldValue::U64(ctx.trace_id)),
            ("parent_span", FieldValue::U64(ctx.parent_span)),
            ("client_rank", FieldValue::U64(u64::from(ctx.rank))),
        ],
    );
}

/// Runs a state-machine call, converting a panic into a `WireError` the
/// connection loop reports as an `Error` frame.
fn guarded<T>(label: &str, f: impl FnOnce() -> T) -> Result<T, WireError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        let detail = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic");
        WireError::BadPayload(format!("{label} rejected: {detail}"))
    })
}

fn handle_lock(
    stream: &mut TcpStream,
    msg: Message,
    lock: &Arc<EpochLock>,
) -> Result<(), WireError> {
    let reply = match msg {
        Message::Ping { nonce } => Message::Pong { nonce },
        Message::LockAcquire { machine, prev } => {
            let (epoch, outcome) =
                guarded("lock_acquire", || lock.acquire(machine as usize, prev))?;
            Message::LockGrant {
                epoch: epoch as u64,
                outcome,
            }
        }
        Message::LockRelease { machine, bucket } => {
            guarded("lock_release", || {
                lock.release_bucket(machine as usize, bucket)
            })?;
            Message::Ack
        }
        Message::LockReap => {
            let buckets = guarded("lock_reap", || lock.reap_expired())?;
            Message::LockReaped { buckets }
        }
        other => Message::Error {
            detail: format!("lock server cannot handle {}", other.tag_name()),
        },
    };
    wire::write_message(stream, &reply)?;
    Ok(())
}

fn handle_partitions(
    stream: &mut TcpStream,
    msg: Message,
    parts: &Arc<PartitionServer>,
) -> Result<(), WireError> {
    match msg {
        Message::Ping { nonce } => {
            wire::write_message(stream, &Message::Pong { nonce })?;
        }
        Message::PartCheckout { key } => {
            let (emb, acc, token) = guarded("part_checkout", || parts.checkout(key))?;
            let layout = parts.layout();
            send_part_data(stream, token, emb, acc, layout.dim(), layout.precision())?;
        }
        Message::PartPeek { key } => {
            let (emb, acc) = guarded("part_peek", || parts.peek(key))?;
            let layout = parts.layout();
            send_part_data(stream, u64::MAX, emb, acc, layout.dim(), layout.precision())?;
        }
        Message::PartCheckin {
            key,
            token,
            emb_len,
            acc_len,
        } => {
            // the floats arrive (concatenated) before the reply goes out
            let total = emb_len as usize + acc_len as usize;
            let (mut combined, _) = wire::read_chunks(stream, total)?;
            let acc = combined.split_off(emb_len as usize);
            let committed = guarded("part_checkin", || parts.checkin(key, combined, acc, token))?;
            wire::write_message(stream, &Message::PartCheckinResp { committed })?;
        }
        Message::PartRevoke { key } => {
            guarded("part_revoke", || parts.revoke(key))?;
            wire::write_message(stream, &Message::Ack)?;
        }
        other => {
            wire::write_message(
                stream,
                &Message::Error {
                    detail: format!("partition server cannot handle {}", other.tag_name()),
                },
            )?;
        }
    }
    Ok(())
}

fn send_part_data(
    stream: &mut TcpStream,
    token: u64,
    emb: Vec<f32>,
    acc: Vec<f32>,
    dim: usize,
    precision: pbg_tensor::Precision,
) -> Result<(), WireError> {
    wire::write_message(
        stream,
        &Message::PartData {
            token,
            emb_len: emb.len() as u32,
            acc_len: acc.len() as u32,
        },
    )?;
    // embeddings at the layout's storage precision; Adagrad
    // accumulators always as exact f32 chunks
    wire::write_part_streams(stream, emb, &acc, dim, precision)?;
    Ok(())
}

fn handle_params(
    stream: &mut TcpStream,
    msg: Message,
    params: &Arc<ParameterServer>,
) -> Result<(), WireError> {
    let reply = match msg {
        Message::Ping { nonce } => Message::Pong { nonce },
        Message::ParamRegister { key, init } => {
            let value = guarded("param_register", || {
                params.register(key, &init);
                params.pull(key)
            })?;
            Message::ParamValue { value }
        }
        Message::ParamPushPull { key, delta } => {
            let value = guarded("param_push_pull", || params.push_pull(key, &delta))?;
            Message::ParamValue { value }
        }
        Message::ParamPull { key } => {
            let value = guarded("param_pull", || params.pull(key))?;
            Message::ParamValue { value }
        }
        other => Message::Error {
            detail: format!("parameter server cannot handle {}", other.tag_name()),
        },
    };
    wire::write_message(stream, &reply)?;
    Ok(())
}
