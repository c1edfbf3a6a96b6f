//! Framed binary wire protocol.
//!
//! Every message travels as one frame: a fixed 20-byte header, an
//! optional 20-byte trace-context block, and a tagged payload, all
//! little-endian.
//!
//! ```text
//! offset  size  field
//! 0       4     magic        0x5042_4757 ("PBGW")
//! 4       2     version      3
//! 6       2     flags        bit 0 = trace context present; bit 1 =
//!                            quantized chunk payload; other bits
//!                            rejected (every header byte is checked)
//! 8       4     payload_len  ≤ MAX_PAYLOAD_BYTES (excludes the context)
//! 12      8     checksum     checkpoint::checksum of context ++ payload
//! 20      0|20  context      TraceContext (trace id, parent span, rank)
//! 20|40   n     payload      tag u8 + body
//! ```
//!
//! Version 1 used a zero `reserved` field where `flags` now sits.
//! Version 3 replaced v2's byte-serial FNV-1a checksum with the
//! word-wise one every checkpoint and swap shard uses; a v2 peer is
//! refused at the header, so mixed builds fail closed. The context
//! rides *outside* `payload_len` and *inside* the checksum: a flipped
//! flags bit either changes the frame's expected length (0→1 demands 20
//! bytes that are not there) or shifts the checksummed range (1→0 drops
//! the context from it), so the bit-flip property suite holds over the
//! new field too. Clients attach a context only while tracing is
//! enabled — the untraced wire is byte-for-byte unchanged, which the
//! netmodel byte-reconciliation tests rely on.
//!
//! Decoding mirrors the checked-arithmetic style of the checkpoint
//! readers: every length is validated before allocation (capacity capped
//! by the declared — already validated — payload length), truncation and
//! corruption surface as clean [`WireError`]s, never panics.

use pbg_core::storage::PartitionKey;
use pbg_distsim::lockserver::Acquire;
use pbg_distsim::paramserver::ParamKey;
use pbg_graph::bucket::BucketId;
use pbg_telemetry::context::{self, TraceContext};
use pbg_tensor::quant::{self, Precision};
use std::fmt;
use std::io::{self, Read, Write};

/// `"PBGW"` little-endian.
pub const MAGIC: u32 = 0x5042_4757;
/// Current protocol version.
pub const VERSION: u16 = 3;
/// Header bytes before the (optional) context and payload.
pub const FRAME_HEADER_BYTES: usize = 20;
/// Flag bit: a [`TraceContext`] block follows the header.
pub const FLAG_TRACE_CONTEXT: u16 = 0x0001;
/// Flag bit: the payload is a quantized float chunk
/// ([`Message::PartChunkQ`]). Set if and only if the tag agrees, so a
/// flipped flag bit is caught even though the header sits outside the
/// checksum.
pub const FLAG_QUANT: u16 = 0x0002;
/// Every flag bit this version understands; unknown bits are rejected.
pub const KNOWN_FLAGS: u16 = FLAG_TRACE_CONTEXT | FLAG_QUANT;
/// Size of the trace-context block when present.
pub const TRACE_CONTEXT_BYTES: usize = context::WIRE_BYTES;
/// Upper bound on one frame's payload (64 MiB) — a corrupt length field
/// must not cause a huge allocation.
pub const MAX_PAYLOAD_BYTES: usize = 64 << 20;
/// Floats per [`Message::PartChunk`] when streaming a partition.
pub const CHUNK_FLOATS: usize = 65_536;

/// Decode failure. `Io` also covers short reads (truncated frames).
#[derive(Debug)]
pub enum WireError {
    /// Reading or writing the underlying stream failed.
    Io(io::Error),
    /// The frame header is not a valid protocol frame.
    BadHeader(String),
    /// The payload checksum did not match.
    BadChecksum { expected: u64, actual: u64 },
    /// The payload is malformed (bad tag, length overrun, trailing
    /// bytes...).
    BadPayload(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::BadHeader(d) => write!(f, "bad frame header: {d}"),
            WireError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "payload checksum mismatch: expected {expected:#x}, got {actual:#x}"
                )
            }
            WireError::BadPayload(d) => write!(f, "bad payload: {d}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Result of a lock-server acquire, as carried on the wire (the epoch
/// travels alongside in [`Message::LockGrant`]).
pub type WireAcquire = Acquire;

/// Every message in the protocol. Requests and responses share one
/// enum: each RPC is strictly one request frame followed by one response
/// frame, except partition data which streams as a `PartData` header
/// frame followed by zero or more `PartChunk` frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Liveness probe.
    Ping { nonce: u64 },
    /// Liveness reply, echoing the nonce.
    Pong { nonce: u64 },
    /// Generic success reply for requests with no payload.
    Ack,
    /// Server-side failure report (the RPC did not take effect unless
    /// the detail says otherwise).
    Error { detail: String },

    /// Lock server: request a bucket lease.
    LockAcquire {
        machine: u64,
        prev: Option<BucketId>,
    },
    /// Lock server: acquire response with the epoch it belongs to.
    LockGrant { epoch: u64, outcome: WireAcquire },
    /// Lock server: release one held bucket.
    LockRelease { machine: u64, bucket: BucketId },
    /// Lock server: reclaim expired leases.
    LockReap,
    /// Lock server: buckets reclaimed by a reap.
    LockReaped { buckets: Vec<BucketId> },

    /// Partition server: fenced checkout request.
    PartCheckout { key: PartitionKey },
    /// Partition server: checkout/peek response header; `emb_len` +
    /// `acc_len` floats follow as `PartChunk` frames.
    PartData {
        token: u64,
        emb_len: u32,
        acc_len: u32,
    },
    /// Partition server: one slab of a streamed float block
    /// (≤ [`CHUNK_FLOATS`] values).
    PartChunk { data: Vec<f32> },
    /// Partition server: one quantized, *row-aligned* slab of a
    /// streamed embedding block. `precision` is a
    /// [`pbg_tensor::Precision`] tag (f16 or int8 — f32 slabs travel as
    /// plain [`Message::PartChunk`]), `rows`/`cols` the slab's shape,
    /// and `data` a [`quant::encode_rows`] block: for int8, `rows` f32
    /// LE per-row absmax scales followed by `rows * cols` code bytes —
    /// the same per-row scaling the codec uses at rest, so one outlier
    /// row cannot degrade its neighbors' resolution; for f16,
    /// `2 * rows * cols` bytes. Frames carrying this message set
    /// [`FLAG_QUANT`].
    PartChunkQ {
        precision: u8,
        rows: u32,
        cols: u32,
        data: Vec<u8>,
    },
    /// Partition server: check-in header; floats follow as chunks.
    PartCheckin {
        key: PartitionKey,
        token: u64,
        emb_len: u32,
        acc_len: u32,
    },
    /// Partition server: whether the check-in committed (false = fenced
    /// out by a stale token).
    PartCheckinResp { committed: bool },
    /// Partition server: invalidate an outstanding checkout token.
    PartRevoke { key: PartitionKey },
    /// Partition server: read last committed floats without checkout
    /// (response: `PartData` with token `u64::MAX` + chunks).
    PartPeek { key: PartitionKey },

    /// Parameter server: register a block (first writer wins).
    ParamRegister { key: ParamKey, init: Vec<f32> },
    /// Parameter server: value response (canonical or merged).
    ParamValue { value: Vec<f32> },
    /// Parameter server: push a delta, expect the merged value back.
    ParamPushPull { key: ParamKey, delta: Vec<f32> },
    /// Parameter server: read without pushing.
    ParamPull { key: ParamKey },
}

mod tag {
    pub const PING: u8 = 1;
    pub const PONG: u8 = 2;
    pub const ACK: u8 = 3;
    pub const ERROR: u8 = 4;
    pub const LOCK_ACQUIRE: u8 = 10;
    pub const LOCK_GRANT: u8 = 11;
    pub const LOCK_RELEASE: u8 = 12;
    pub const LOCK_REAP: u8 = 13;
    pub const LOCK_REAPED: u8 = 14;
    pub const PART_CHECKOUT: u8 = 20;
    pub const PART_DATA: u8 = 21;
    pub const PART_CHUNK: u8 = 22;
    pub const PART_CHECKIN: u8 = 23;
    pub const PART_CHECKIN_RESP: u8 = 24;
    pub const PART_REVOKE: u8 = 25;
    pub const PART_PEEK: u8 = 26;
    pub const PARAM_REGISTER: u8 = 30;
    pub const PARAM_VALUE: u8 = 31;
    pub const PARAM_PUSH_PULL: u8 = 32;
    pub const PARAM_PULL: u8 = 33;
    pub const PART_CHUNK_Q: u8 = 34;
}

// outcome discriminants inside LockGrant
const OUTCOME_GRANTED: u8 = 0;
const OUTCOME_WAIT: u8 = 1;
const OUTCOME_DONE: u8 = 2;

struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    fn new(tag: u8) -> Self {
        PayloadWriter { buf: vec![tag] }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bucket(&mut self, b: BucketId) {
        self.u32(b.src.0);
        self.u32(b.dst.0);
    }

    fn partition_key(&mut self, k: PartitionKey) {
        self.u32(k.entity_type.0);
        self.u32(k.partition.0);
    }

    fn param_key(&mut self, k: ParamKey) {
        self.u32(k.relation);
        self.u8(k.side);
    }

    fn floats(&mut self, v: &[f32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                WireError::BadPayload(format!(
                    "payload overrun: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bucket(&mut self) -> Result<BucketId, WireError> {
        let src = self.u32()?;
        let dst = self.u32()?;
        Ok(BucketId::new(src, dst))
    }

    fn partition_key(&mut self) -> Result<PartitionKey, WireError> {
        let entity_type = self.u32()?;
        let partition = self.u32()?;
        Ok(PartitionKey::new(entity_type, partition))
    }

    fn param_key(&mut self) -> Result<ParamKey, WireError> {
        let relation = self.u32()?;
        let side = self.u8()?;
        Ok(ParamKey { relation, side })
    }

    fn floats(&mut self) -> Result<Vec<f32>, WireError> {
        let len = self.u32()? as usize;
        // the declared length must fit in the remaining (already
        // checksum-validated) payload before anything is allocated
        let bytes = self.take(
            len.checked_mul(4)
                .ok_or_else(|| WireError::BadPayload(format!("float count {len} overflows")))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::BadPayload(format!("invalid utf-8 string: {e}")))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::BadPayload(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Message {
    /// Serializes the payload (tag + body), without the frame header.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w;
        match self {
            Message::Ping { nonce } => {
                w = PayloadWriter::new(tag::PING);
                w.u64(*nonce);
            }
            Message::Pong { nonce } => {
                w = PayloadWriter::new(tag::PONG);
                w.u64(*nonce);
            }
            Message::Ack => {
                w = PayloadWriter::new(tag::ACK);
            }
            Message::Error { detail } => {
                w = PayloadWriter::new(tag::ERROR);
                w.string(detail);
            }
            Message::LockAcquire { machine, prev } => {
                w = PayloadWriter::new(tag::LOCK_ACQUIRE);
                w.u64(*machine);
                match prev {
                    Some(b) => {
                        w.u8(1);
                        w.bucket(*b);
                    }
                    None => w.u8(0),
                }
            }
            Message::LockGrant { epoch, outcome } => {
                w = PayloadWriter::new(tag::LOCK_GRANT);
                w.u64(*epoch);
                match outcome {
                    Acquire::Granted(b) => {
                        w.u8(OUTCOME_GRANTED);
                        w.bucket(*b);
                    }
                    Acquire::Wait => w.u8(OUTCOME_WAIT),
                    Acquire::Done => w.u8(OUTCOME_DONE),
                }
            }
            Message::LockRelease { machine, bucket } => {
                w = PayloadWriter::new(tag::LOCK_RELEASE);
                w.u64(*machine);
                w.bucket(*bucket);
            }
            Message::LockReap => {
                w = PayloadWriter::new(tag::LOCK_REAP);
            }
            Message::LockReaped { buckets } => {
                w = PayloadWriter::new(tag::LOCK_REAPED);
                w.u32(buckets.len() as u32);
                for b in buckets {
                    w.bucket(*b);
                }
            }
            Message::PartCheckout { key } => {
                w = PayloadWriter::new(tag::PART_CHECKOUT);
                w.partition_key(*key);
            }
            Message::PartData {
                token,
                emb_len,
                acc_len,
            } => {
                w = PayloadWriter::new(tag::PART_DATA);
                w.u64(*token);
                w.u32(*emb_len);
                w.u32(*acc_len);
            }
            Message::PartChunk { data } => {
                w = PayloadWriter::new(tag::PART_CHUNK);
                w.floats(data);
            }
            Message::PartChunkQ {
                precision,
                rows,
                cols,
                data,
            } => {
                w = PayloadWriter::new(tag::PART_CHUNK_Q);
                w.u8(*precision);
                w.u32(*rows);
                w.u32(*cols);
                w.bytes(data);
            }
            Message::PartCheckin {
                key,
                token,
                emb_len,
                acc_len,
            } => {
                w = PayloadWriter::new(tag::PART_CHECKIN);
                w.partition_key(*key);
                w.u64(*token);
                w.u32(*emb_len);
                w.u32(*acc_len);
            }
            Message::PartCheckinResp { committed } => {
                w = PayloadWriter::new(tag::PART_CHECKIN_RESP);
                w.u8(u8::from(*committed));
            }
            Message::PartRevoke { key } => {
                w = PayloadWriter::new(tag::PART_REVOKE);
                w.partition_key(*key);
            }
            Message::PartPeek { key } => {
                w = PayloadWriter::new(tag::PART_PEEK);
                w.partition_key(*key);
            }
            Message::ParamRegister { key, init } => {
                w = PayloadWriter::new(tag::PARAM_REGISTER);
                w.param_key(*key);
                w.floats(init);
            }
            Message::ParamValue { value } => {
                w = PayloadWriter::new(tag::PARAM_VALUE);
                w.floats(value);
            }
            Message::ParamPushPull { key, delta } => {
                w = PayloadWriter::new(tag::PARAM_PUSH_PULL);
                w.param_key(*key);
                w.floats(delta);
            }
            Message::ParamPull { key } => {
                w = PayloadWriter::new(tag::PARAM_PULL);
                w.param_key(*key);
            }
        }
        w.buf
    }

    /// Parses a payload produced by [`Message::encode_payload`].
    pub fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
        let mut r = PayloadReader::new(payload);
        let t = r.u8()?;
        let msg = match t {
            tag::PING => Message::Ping { nonce: r.u64()? },
            tag::PONG => Message::Pong { nonce: r.u64()? },
            tag::ACK => Message::Ack,
            tag::ERROR => Message::Error {
                detail: r.string()?,
            },
            tag::LOCK_ACQUIRE => {
                let machine = r.u64()?;
                let prev = match r.u8()? {
                    0 => None,
                    1 => Some(r.bucket()?),
                    other => {
                        return Err(WireError::BadPayload(format!(
                            "bad option flag {other} in LockAcquire"
                        )))
                    }
                };
                Message::LockAcquire { machine, prev }
            }
            tag::LOCK_GRANT => {
                let epoch = r.u64()?;
                let outcome = match r.u8()? {
                    OUTCOME_GRANTED => Acquire::Granted(r.bucket()?),
                    OUTCOME_WAIT => Acquire::Wait,
                    OUTCOME_DONE => Acquire::Done,
                    other => {
                        return Err(WireError::BadPayload(format!(
                            "bad acquire outcome {other}"
                        )))
                    }
                };
                Message::LockGrant { epoch, outcome }
            }
            tag::LOCK_RELEASE => Message::LockRelease {
                machine: r.u64()?,
                bucket: r.bucket()?,
            },
            tag::LOCK_REAP => Message::LockReap,
            tag::LOCK_REAPED => {
                let n = r.u32()? as usize;
                // 8 bytes per bucket must fit in the remaining payload
                if n.checked_mul(8).is_none_or(|b| b > payload.len()) {
                    return Err(WireError::BadPayload(format!(
                        "LockReaped declares {n} buckets, payload is {} bytes",
                        payload.len()
                    )));
                }
                let mut buckets = Vec::with_capacity(n);
                for _ in 0..n {
                    buckets.push(r.bucket()?);
                }
                Message::LockReaped { buckets }
            }
            tag::PART_CHECKOUT => Message::PartCheckout {
                key: r.partition_key()?,
            },
            tag::PART_DATA => Message::PartData {
                token: r.u64()?,
                emb_len: r.u32()?,
                acc_len: r.u32()?,
            },
            tag::PART_CHUNK => Message::PartChunk { data: r.floats()? },
            tag::PART_CHUNK_Q => {
                let precision = r.u8()?;
                let p = match Precision::from_tag(precision) {
                    Some(p @ (Precision::F16 | Precision::Int8)) => p,
                    // f32 slabs travel as plain PartChunk frames
                    _ => {
                        return Err(WireError::BadPayload(format!(
                            "bad precision tag {precision} in PartChunkQ"
                        )))
                    }
                };
                let rows = r.u32()? as usize;
                let cols = r.u32()? as usize;
                let want = p.payload_bytes(rows, cols).ok_or_else(|| {
                    WireError::BadPayload(format!("quant shape {rows}x{cols} overflows"))
                })?;
                let bytes = r.take(want)?;
                if p == Precision::Int8 {
                    // the leading per-row scale block must hold legal
                    // scales — reject hostile values before anything
                    // dequantizes
                    for (i, s) in bytes[..rows * 4].chunks_exact(4).enumerate() {
                        let scale = f32::from_le_bytes(s.try_into().unwrap());
                        if !scale.is_finite() || scale < 0.0 {
                            return Err(WireError::BadPayload(format!(
                                "bad row scale {scale} (row {i}) in PartChunkQ"
                            )));
                        }
                    }
                }
                Message::PartChunkQ {
                    precision,
                    rows: rows as u32,
                    cols: cols as u32,
                    data: bytes.to_vec(),
                }
            }
            tag::PART_CHECKIN => Message::PartCheckin {
                key: r.partition_key()?,
                token: r.u64()?,
                emb_len: r.u32()?,
                acc_len: r.u32()?,
            },
            tag::PART_CHECKIN_RESP => {
                let committed = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::BadPayload(format!(
                            "bad bool {other} in PartCheckinResp"
                        )))
                    }
                };
                Message::PartCheckinResp { committed }
            }
            tag::PART_REVOKE => Message::PartRevoke {
                key: r.partition_key()?,
            },
            tag::PART_PEEK => Message::PartPeek {
                key: r.partition_key()?,
            },
            tag::PARAM_REGISTER => Message::ParamRegister {
                key: r.param_key()?,
                init: r.floats()?,
            },
            tag::PARAM_VALUE => Message::ParamValue { value: r.floats()? },
            tag::PARAM_PUSH_PULL => Message::ParamPushPull {
                key: r.param_key()?,
                delta: r.floats()?,
            },
            tag::PARAM_PULL => Message::ParamPull {
                key: r.param_key()?,
            },
            other => return Err(WireError::BadPayload(format!("unknown tag {other}"))),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Short name of the message variant, for telemetry labels.
    pub fn tag_name(&self) -> &'static str {
        match self {
            Message::Ping { .. } => "ping",
            Message::Pong { .. } => "pong",
            Message::Ack => "ack",
            Message::Error { .. } => "error",
            Message::LockAcquire { .. } => "lock_acquire",
            Message::LockGrant { .. } => "lock_grant",
            Message::LockRelease { .. } => "lock_release",
            Message::LockReap => "lock_reap",
            Message::LockReaped { .. } => "lock_reaped",
            Message::PartCheckout { .. } => "part_checkout",
            Message::PartData { .. } => "part_data",
            Message::PartChunk { .. } => "part_chunk",
            Message::PartChunkQ { .. } => "part_chunk_q",
            Message::PartCheckin { .. } => "part_checkin",
            Message::PartCheckinResp { .. } => "part_checkin_resp",
            Message::PartRevoke { .. } => "part_revoke",
            Message::PartPeek { .. } => "part_peek",
            Message::ParamRegister { .. } => "param_register",
            Message::ParamValue { .. } => "param_value",
            Message::ParamPushPull { .. } => "param_push_pull",
            Message::ParamPull { .. } => "param_pull",
        }
    }
}

/// Serializes a full frame (header + optional context + payload) to a
/// byte vector.
pub fn encode_frame_with(msg: &Message, ctx: Option<&TraceContext>) -> Vec<u8> {
    let payload = msg.encode_payload();
    assert!(
        payload.len() <= MAX_PAYLOAD_BYTES,
        "payload {} exceeds MAX_PAYLOAD_BYTES — split into chunks",
        payload.len()
    );
    // the checksum covers context ++ payload, so build that body first
    let (mut flags, body) = match ctx {
        Some(ctx) => {
            let mut body = Vec::with_capacity(TRACE_CONTEXT_BYTES + payload.len());
            body.extend_from_slice(&ctx.encode());
            body.extend_from_slice(&payload);
            (FLAG_TRACE_CONTEXT, body)
        }
        None => (0u16, payload),
    };
    if matches!(msg, Message::PartChunkQ { .. }) {
        flags |= FLAG_QUANT;
    }
    let ctx_len = if ctx.is_some() {
        TRACE_CONTEXT_BYTES
    } else {
        0
    };
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&flags.to_le_bytes());
    frame.extend_from_slice(&((body.len() - ctx_len) as u32).to_le_bytes());
    frame.extend_from_slice(&pbg_core::checkpoint::checksum(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Serializes a full frame with no trace context.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    encode_frame_with(msg, None)
}

/// Parses a full frame from a byte slice, returning the message, its
/// trace context (if the sender attached one), and the bytes consumed.
pub fn decode_frame_with(
    bytes: &[u8],
) -> Result<(Message, Option<TraceContext>, usize), WireError> {
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(WireError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame header truncated: {} bytes", bytes.len()),
        )));
    }
    let (payload_len, flags) = validate_header(bytes[..FRAME_HEADER_BYTES].try_into().unwrap())?;
    let expected = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let ctx_len = if flags & FLAG_TRACE_CONTEXT != 0 {
        TRACE_CONTEXT_BYTES
    } else {
        0
    };
    let end = FRAME_HEADER_BYTES
        .checked_add(ctx_len)
        .and_then(|n| n.checked_add(payload_len))
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| {
            WireError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "frame body truncated: declared {payload_len}+{ctx_len}, have {}",
                    bytes.len() - FRAME_HEADER_BYTES
                ),
            ))
        })?;
    let body = &bytes[FRAME_HEADER_BYTES..end];
    let actual = pbg_core::checkpoint::checksum(body);
    if actual != expected {
        return Err(WireError::BadChecksum { expected, actual });
    }
    let ctx = decode_context(body, ctx_len);
    let msg = Message::decode_payload(&body[ctx_len..])?;
    check_quant_flag(&msg, flags)?;
    Ok((msg, ctx, end))
}

/// Parses a full frame, discarding any trace context.
pub fn decode_frame(bytes: &[u8]) -> Result<(Message, usize), WireError> {
    decode_frame_with(bytes).map(|(msg, _, used)| (msg, used))
}

/// The quant flag lives in the header, which the checksum does not
/// cover — requiring it to agree with the (checksummed) payload tag
/// keeps the every-header-byte bit-flip property intact.
fn check_quant_flag(msg: &Message, flags: u16) -> Result<(), WireError> {
    let is_quant = matches!(msg, Message::PartChunkQ { .. });
    let flagged = flags & FLAG_QUANT != 0;
    if is_quant != flagged {
        return Err(WireError::BadPayload(format!(
            "quant flag mismatch: flag bit {} but payload tag {}",
            u8::from(flagged),
            msg.tag_name()
        )));
    }
    Ok(())
}

fn decode_context(body: &[u8], ctx_len: usize) -> Option<TraceContext> {
    if ctx_len == 0 {
        None
    } else {
        Some(TraceContext::decode(
            body[..TRACE_CONTEXT_BYTES].try_into().unwrap(),
        ))
    }
}

/// Validates the 20-byte header, returning the payload length and the
/// flags. Every byte of the header is covered: magic and version are
/// compared exactly, unknown flag bits are rejected, the length is
/// bounded, and the checksum verifies itself against context + payload.
fn validate_header(header: &[u8; FRAME_HEADER_BYTES]) -> Result<(usize, u16), WireError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadHeader(format!("magic {magic:#010x}")));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(WireError::BadHeader(format!(
            "unsupported version {version}"
        )));
    }
    let flags = u16::from_le_bytes(header[6..8].try_into().unwrap());
    if flags & !KNOWN_FLAGS != 0 {
        return Err(WireError::BadHeader(format!(
            "unknown flag bits {:#06x}",
            flags & !KNOWN_FLAGS
        )));
    }
    let payload_len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(WireError::BadHeader(format!(
            "payload length {payload_len} exceeds cap {MAX_PAYLOAD_BYTES}"
        )));
    }
    Ok((payload_len, flags))
}

/// Writes one frame to a stream, attaching `ctx` when given.
pub fn write_message_with<W: Write>(
    w: &mut W,
    msg: &Message,
    ctx: Option<&TraceContext>,
) -> Result<usize, WireError> {
    let frame = encode_frame_with(msg, ctx);
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Writes one frame with no trace context.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> Result<usize, WireError> {
    write_message_with(w, msg, None)
}

/// Reads the context + payload body of a frame whose header has been
/// validated, verifying the checksum, and decodes both parts.
fn read_body<R: Read>(
    r: &mut R,
    header: &[u8; FRAME_HEADER_BYTES],
    payload_len: usize,
    flags: u16,
) -> Result<(Message, Option<TraceContext>, usize), WireError> {
    let expected = u64::from_le_bytes(header[12..20].try_into().unwrap());
    let ctx_len = if flags & FLAG_TRACE_CONTEXT != 0 {
        TRACE_CONTEXT_BYTES
    } else {
        0
    };
    // payload_len is already bounded by MAX_PAYLOAD_BYTES
    let mut body = vec![0u8; ctx_len + payload_len];
    r.read_exact(&mut body)?;
    let actual = pbg_core::checkpoint::checksum(&body);
    if actual != expected {
        return Err(WireError::BadChecksum { expected, actual });
    }
    let ctx = decode_context(&body, ctx_len);
    let msg = Message::decode_payload(&body[ctx_len..])?;
    check_quant_flag(&msg, flags)?;
    Ok((msg, ctx, FRAME_HEADER_BYTES + ctx_len + payload_len))
}

/// Reads one frame from a stream, returning the message, its trace
/// context (if any), and the bytes consumed. Blocks until a full frame
/// arrives; EOF mid-frame is an [`WireError::Io`] with `UnexpectedEof`.
pub fn read_message_full<R: Read>(
    r: &mut R,
) -> Result<(Message, Option<TraceContext>, usize), WireError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut header)?;
    let (payload_len, flags) = validate_header(&header)?;
    read_body(r, &header, payload_len, flags)
}

/// Reads one frame from a stream, discarding any trace context.
pub fn read_message<R: Read>(r: &mut R) -> Result<(Message, usize), WireError> {
    read_message_full(r).map(|(msg, _, used)| (msg, used))
}

/// Like [`read_message_full`], but a clean EOF *before the first byte*
/// of a frame returns `Ok(None)` — how server loops distinguish a
/// client hanging up between requests from a truncated frame.
pub fn read_message_opt_full<R: Read>(
    r: &mut R,
) -> Result<Option<(Message, Option<TraceContext>, usize)>, WireError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("eof after {filled} header bytes"),
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let (payload_len, flags) = validate_header(&header)?;
    read_body(r, &header, payload_len, flags).map(Some)
}

/// Like [`read_message_opt_full`], but discarding any trace context.
pub fn read_message_opt<R: Read>(r: &mut R) -> Result<Option<(Message, usize)>, WireError> {
    Ok(read_message_opt_full(r)?.map(|(msg, _, used)| (msg, used)))
}

/// Writes a float block as a stream of [`Message::PartChunk`] frames
/// (zero frames for an empty block), returning bytes written.
pub fn write_chunks<W: Write>(w: &mut W, data: &[f32]) -> Result<usize, WireError> {
    let mut written = 0;
    for chunk in data.chunks(CHUNK_FLOATS) {
        written += write_message(
            w,
            &Message::PartChunk {
                data: chunk.to_vec(),
            },
        )?;
    }
    Ok(written)
}

/// Encodes one row-aligned, ≤[`CHUNK_FLOATS`]-float slab of `cols`-wide
/// rows at a non-f32 precision via [`quant::encode_rows`], so int8
/// carries the same per-row absmax scales on the wire as it does at
/// rest.
fn quantize_chunk(chunk: &[f32], cols: usize, precision: Precision) -> Message {
    debug_assert!(precision != Precision::F32, "f32 slabs travel as PartChunk");
    let rows = chunk.len() / cols;
    let mut data = Vec::new();
    quant::encode_rows(precision, chunk, rows, cols, &mut data);
    Message::PartChunkQ {
        precision: precision.tag(),
        rows: rows as u32,
        cols: cols as u32,
        data,
    }
}

/// Decodes a [`Message::PartChunkQ`] body back to floats. The payload
/// decoder already validated tag, shape, byte length, and scales.
fn dequantize_chunk(precision: u8, rows: u32, cols: u32, data: &[u8], out: &mut Vec<f32>) {
    let p = Precision::from_tag(precision).expect("decode_payload validated the precision tag");
    let block = quant::decode_rows(p, data, rows as usize, cols as usize)
        .expect("decode_payload validated the byte length");
    out.extend_from_slice(&block);
}

/// Writes a float block of `dim`-wide rows as quantized
/// [`Message::PartChunkQ`] frames at `precision` — row-aligned slabs of
/// up to [`CHUNK_FLOATS`] floats, so every int8 row keeps its own
/// scale — returning bytes written. `Precision::F32` delegates to
/// [`write_chunks`] (the uncompressed wire stays byte-identical);
/// otherwise `data.len()` must be a multiple of `dim`.
pub fn write_chunks_q<W: Write>(
    w: &mut W,
    data: &[f32],
    dim: usize,
    precision: Precision,
) -> Result<usize, WireError> {
    if precision == Precision::F32 {
        return write_chunks(w, data);
    }
    if data.is_empty() {
        return Ok(0);
    }
    if dim == 0 || dim > CHUNK_FLOATS || !data.len().is_multiple_of(dim) {
        return Err(WireError::BadPayload(format!(
            "quantized stream needs row-aligned data: {} floats at dim {dim}",
            data.len()
        )));
    }
    let rows_per_chunk = CHUNK_FLOATS / dim; // ≥ 1
    let mut written = 0;
    for chunk in data.chunks(rows_per_chunk * dim) {
        written += write_message(w, &quantize_chunk(chunk, dim, precision))?;
    }
    Ok(written)
}

/// Streams a partition's float pair — embeddings, then Adagrad
/// accumulators — for a checkout response or check-in request. At f32
/// the two blocks travel as one concatenated [`Message::PartChunk`]
/// stream, byte-identical to the unquantized protocol. At f16/int8 only
/// the embedding block is quantized (row-aligned
/// [`Message::PartChunkQ`] frames); the accumulators always follow as
/// plain f32 chunks, because optimizer state must round-trip exactly:
/// accumulators are monotone sums of squared gradients, which overflow
/// f16's ±65504 range to +inf and collapse to 0 under int8 — either
/// silently corrupts training on the next bucket swap.
pub fn write_part_streams<W: Write>(
    w: &mut W,
    mut emb: Vec<f32>,
    acc: &[f32],
    dim: usize,
    precision: Precision,
) -> Result<usize, WireError> {
    if precision == Precision::F32 {
        emb.extend_from_slice(acc);
        return write_chunks(w, &emb);
    }
    let mut written = write_chunks_q(w, &emb, dim, precision)?;
    written += write_chunks(w, acc)?;
    Ok(written)
}

/// Reads exactly `expected` floats sent by [`write_chunks`] or
/// [`write_chunks_q`] — plain and quantized slabs both decode to f32
/// transparently — returning the block and bytes consumed.
pub fn read_chunks<R: Read>(r: &mut R, expected: usize) -> Result<(Vec<f32>, usize), WireError> {
    let mut out = Vec::with_capacity(expected.min(MAX_PAYLOAD_BYTES / 4));
    let mut consumed = 0;
    while out.len() < expected {
        let (msg, n) = read_message(r)?;
        consumed += n;
        let incoming = match &msg {
            Message::PartChunk { data } => data.len(),
            // bounded: the decoder already checked the shape against the
            // (≤64 MiB) payload it actually carries
            Message::PartChunkQ { rows, cols, .. } => (*rows as usize) * (*cols as usize),
            other => {
                return Err(WireError::BadPayload(format!(
                    "expected PartChunk, got {}",
                    other.tag_name()
                )))
            }
        };
        if out.len() + incoming > expected {
            return Err(WireError::BadPayload(format!(
                "chunk overrun: {} + {incoming} floats > expected {expected}",
                out.len(),
            )));
        }
        match msg {
            Message::PartChunk { data } => out.extend_from_slice(&data),
            Message::PartChunkQ {
                precision,
                rows,
                cols,
                data,
            } => dequantize_chunk(precision, rows, cols, &data, &mut out),
            _ => unreachable!(),
        }
    }
    Ok((out, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let msg = Message::LockAcquire {
            machine: 3,
            prev: Some(BucketId::new(1u32, 2u32)),
        };
        let frame = encode_frame(&msg);
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + 1 + 8 + 1 + 8);
        let (back, used) = decode_frame(&frame).unwrap();
        assert_eq!(back, msg);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn stream_roundtrip_and_eof_detection() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Message::Ping { nonce: 9 }).unwrap();
        write_message(&mut buf, &Message::Ack).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_message_opt(&mut cursor).unwrap().unwrap().0,
            Message::Ping { nonce: 9 }
        );
        assert_eq!(
            read_message_opt(&mut cursor).unwrap().unwrap().0,
            Message::Ack
        );
        assert!(
            read_message_opt(&mut cursor).unwrap().is_none(),
            "clean EOF"
        );
    }

    #[test]
    fn chunk_stream_roundtrip() {
        let data: Vec<f32> = (0..CHUNK_FLOATS + 7).map(|i| i as f32).collect();
        let mut buf = Vec::new();
        let written = write_chunks(&mut buf, &data).unwrap();
        assert_eq!(written, buf.len());
        let mut cursor = std::io::Cursor::new(buf);
        let (back, consumed) = read_chunks(&mut cursor, data.len()).unwrap();
        assert_eq!(back, data);
        assert_eq!(consumed, written);
    }

    #[test]
    fn header_corruption_is_rejected() {
        let frame = encode_frame(&Message::Ack);
        for i in 0..FRAME_HEADER_BYTES {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_frame(&bad).is_err(),
                "flipping header byte {i} went undetected"
            );
        }
    }

    #[test]
    fn huge_declared_length_is_rejected_without_allocating() {
        let mut frame = encode_frame(&Message::Ack);
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&frame) {
            Err(WireError::BadHeader(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    fn test_ctx() -> TraceContext {
        TraceContext {
            trace_id: 0xABCD_EF01_2345_6789,
            parent_span: (2 << 40) | 7,
            rank: 1,
        }
    }

    #[test]
    fn context_rides_the_frame_and_roundtrips() {
        let msg = Message::LockAcquire {
            machine: 1,
            prev: None,
        };
        let bare = encode_frame(&msg);
        let traced = encode_frame_with(&msg, Some(&test_ctx()));
        assert_eq!(traced.len(), bare.len() + TRACE_CONTEXT_BYTES);
        let (back, ctx, used) = decode_frame_with(&traced).unwrap();
        assert_eq!(back, msg);
        assert_eq!(ctx, Some(test_ctx()));
        assert_eq!(used, traced.len());
        // payload_len excludes the context
        assert_eq!(&traced[8..12], &bare[8..12]);

        // the plain accessors still work, dropping the context
        let (back, used) = decode_frame(&traced).unwrap();
        assert_eq!(back, msg);
        assert_eq!(used, traced.len());
    }

    #[test]
    fn untraced_frames_are_byte_identical_to_flagless_encoding() {
        let msg = Message::Ping { nonce: 17 };
        assert_eq!(encode_frame(&msg), encode_frame_with(&msg, None));
        let frame = encode_frame(&msg);
        assert_eq!(u16::from_le_bytes(frame[6..8].try_into().unwrap()), 0);
    }

    #[test]
    fn context_stream_roundtrip_and_mixed_frames() {
        let mut buf = Vec::new();
        write_message_with(&mut buf, &Message::Ack, Some(&test_ctx())).unwrap();
        write_message(&mut buf, &Message::Ack).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (msg, ctx, _) = read_message_full(&mut cursor).unwrap();
        assert_eq!(msg, Message::Ack);
        assert_eq!(ctx, Some(test_ctx()));
        let (msg, ctx, _) = read_message_opt_full(&mut cursor).unwrap().unwrap();
        assert_eq!(msg, Message::Ack);
        assert_eq!(ctx, None);
        assert!(read_message_opt_full(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn traced_header_corruption_is_rejected() {
        let frame = encode_frame_with(&Message::Ack, Some(&test_ctx()));
        for i in 0..FRAME_HEADER_BYTES + TRACE_CONTEXT_BYTES {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_frame_with(&bad).is_err(),
                "flipping byte {i} of a traced frame went undetected"
            );
        }
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let mut frame = encode_frame(&Message::Ack);
        frame[6] |= 0x04; // an undefined flag bit
                          // recompute nothing: unknown flags must fail header validation
        match decode_frame(&frame) {
            Err(WireError::BadHeader(d)) => assert!(d.contains("flag"), "{d}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quant_flag_must_agree_with_tag() {
        // flag set without a quantized payload
        let mut frame = encode_frame(&Message::Ack);
        frame[6] |= (FLAG_QUANT & 0xff) as u8;
        match decode_frame(&frame) {
            Err(WireError::BadPayload(d)) => assert!(d.contains("quant flag"), "{d}"),
            other => panic!("{other:?}"),
        }
        // quantized payload without the flag
        let msg = quantize_chunk(&[1.0, -2.0, 3.5], 3, Precision::F16);
        let mut frame = encode_frame(&msg);
        frame[6] &= !((FLAG_QUANT & 0xff) as u8);
        match decode_frame(&frame) {
            Err(WireError::BadPayload(d)) => assert!(d.contains("quant flag"), "{d}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quant_chunk_stream_roundtrips_with_bounded_error() {
        // 13-wide rows crossing the per-chunk row boundary: 65 536/13 =
        // 5041 rows per frame, 5042 rows total → two frames
        let dim = 13;
        let data: Vec<f32> = (0..5042 * dim)
            .map(|i| (i as f32 - 1000.0) * 0.125)
            .collect();
        for precision in [Precision::F16, Precision::Int8] {
            let mut buf = Vec::new();
            let written = write_chunks_q(&mut buf, &data, dim, precision).unwrap();
            assert_eq!(written, buf.len());
            let mut cursor = std::io::Cursor::new(buf);
            let (back, consumed) = read_chunks(&mut cursor, data.len()).unwrap();
            assert_eq!(consumed, written);
            assert_eq!(back.len(), data.len());
            // per-element error bounds: f16 has 11 bits of significand;
            // int8 is within half a step of its row's scale, which the
            // block-wide absmax bounds from above
            let absmax = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (a, b) in data.iter().zip(&back) {
                let err = (a - b).abs();
                match precision {
                    Precision::F16 => assert!(err <= a.abs() * 1.0 / 1024.0, "{a} -> {b}"),
                    Precision::Int8 => assert!(err <= absmax / 254.0 + 1e-3, "{a} -> {b}"),
                    Precision::F32 => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn int8_wire_scales_are_per_row() {
        // one outlier row must not degrade its neighbors: with per-row
        // scales the small rows round-trip at their own resolution
        let dim = 4;
        let mut data = vec![0.01f32, -0.02, 0.03, -0.04];
        data.extend_from_slice(&[1000.0, -1000.0, 500.0, -500.0]); // outlier row
        let mut buf = Vec::new();
        write_chunks_q(&mut buf, &data, dim, Precision::Int8).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (back, _) = read_chunks(&mut cursor, data.len()).unwrap();
        // under a shared absmax scale the first row's step would be
        // 1000/127 ≈ 7.9 and every small value would collapse to 0;
        // per-row it is 0.04/127 ≈ 3e-4
        for (a, b) in data[..dim].iter().zip(&back[..dim]) {
            assert!((a - b).abs() <= 0.04 / 254.0 + 1e-6, "{a} -> {b}");
            assert!(*b != 0.0, "small row collapsed under an outlier's scale");
        }
    }

    #[test]
    fn part_streams_keep_accumulators_exact() {
        let dim = 4;
        let emb: Vec<f32> = (0..32).map(|i| i as f32 * 0.1).collect();
        // beyond f16 range and off the int8 grid: any lossy encoding of
        // the accumulators would be visible here
        let acc: Vec<f32> = (0..8).map(|i| 70_000.0 + i as f32 * 0.123).collect();
        for precision in [Precision::F16, Precision::Int8] {
            let mut buf = Vec::new();
            let written = write_part_streams(&mut buf, emb.clone(), &acc, dim, precision).unwrap();
            let mut cursor = std::io::Cursor::new(buf);
            let (combined, consumed) = read_chunks(&mut cursor, emb.len() + acc.len()).unwrap();
            assert_eq!(consumed, written);
            assert_eq!(
                &combined[emb.len()..],
                &acc[..],
                "{precision}: accumulators must round-trip bit-exactly"
            );
        }
        // at f32 the pair is one concatenated stream, byte-identical to
        // the unquantized protocol
        let mut plain = Vec::new();
        let mut combined = emb.clone();
        combined.extend_from_slice(&acc);
        write_chunks(&mut plain, &combined).unwrap();
        let mut via = Vec::new();
        write_part_streams(&mut via, emb, &acc, dim, Precision::F32).unwrap();
        assert_eq!(plain, via);
    }

    #[test]
    fn f32_chunks_q_are_byte_identical_to_plain_chunks() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let mut plain = Vec::new();
        write_chunks(&mut plain, &data).unwrap();
        let mut q = Vec::new();
        write_chunks_q(&mut q, &data, 10, Precision::F32).unwrap();
        assert_eq!(plain, q);
    }

    #[test]
    fn misaligned_quantized_stream_is_rejected() {
        let data = [1.0f32; 10];
        for dim in [0usize, 3, CHUNK_FLOATS + 1] {
            let err = write_chunks_q(&mut Vec::new(), &data, dim, Precision::F16)
                .expect_err("misaligned write accepted");
            assert!(matches!(err, WireError::BadPayload(_)), "dim {dim}: {err}");
        }
    }

    #[test]
    fn hostile_quant_payloads_are_rejected() {
        // precision tag 0 (f32) is not a legal quantized chunk
        let msg = Message::PartChunkQ {
            precision: 0,
            rows: 2,
            cols: 2,
            data: vec![0; 8],
        };
        let frame = encode_frame(&msg);
        match decode_frame(&frame) {
            Err(WireError::BadPayload(d)) => assert!(d.contains("precision"), "{d}"),
            other => panic!("{other:?}"),
        }
        // shape larger than the bytes actually present
        let msg = Message::PartChunkQ {
            precision: Precision::F16.tag(),
            rows: 10,
            cols: 10,
            data: vec![0; 4],
        };
        let frame = encode_frame(&msg);
        match decode_frame(&frame) {
            Err(WireError::BadPayload(d)) => assert!(d.contains("overrun"), "{d}"),
            other => panic!("{other:?}"),
        }
        // non-finite per-row scale in the int8 scale block
        let mut data = f32::NAN.to_le_bytes().to_vec();
        data.push(0);
        let msg = Message::PartChunkQ {
            precision: Precision::Int8.tag(),
            rows: 1,
            cols: 1,
            data,
        };
        let frame = encode_frame(&msg);
        match decode_frame(&frame) {
            Err(WireError::BadPayload(d)) => assert!(d.contains("scale"), "{d}"),
            other => panic!("{other:?}"),
        }
    }
}
