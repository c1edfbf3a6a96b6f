//! Network cost model.
//!
//! The paper's cluster uses 50Gb/s ethernet with a TCP backend that "in
//! practice achieves approximately 1 GB/s send/receive bandwidth" (§5.1).
//! Machines-as-threads move bytes through shared memory instantly, so
//! every transfer is *accounted*: the servers record the framed bytes
//! a TCP cluster would move. The model counts bytes and transfers; it
//! keeps no clock (paper-scale hours come from `distsim::event`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Byte costs of the real framed wire protocol (`pbg-net`), so the
/// simulation charges what actually crosses a TCP connection instead of
/// dead-reckoning with raw payload sizes.
///
/// The constants here mirror `pbg-net`'s frame layout exactly — a
/// versioned 20-byte header (magic, version, reserved, payload length,
/// 64-bit payload checksum) followed by a tagged payload — and are
/// pinned against measured loopback traffic by the table-driven
/// reconciliation test in `crates/net/tests/netmodel_recon.rs` (the
/// dependency points net → distsim, so the cross-check lives there).
pub mod wirecost {
    use pbg_tensor::Precision;

    /// Frame header: magic u32 + version u16 + reserved u16 +
    /// payload-length u32 + checksum u64.
    pub const FRAME_HEADER_BYTES: usize = 20;
    /// Floats per `PartChunk` frame when streaming a partition.
    pub const CHUNK_FLOATS: usize = 65_536;

    /// Bytes of one frame carrying `payload` payload bytes.
    pub const fn frame_bytes(payload: usize) -> usize {
        FRAME_HEADER_BYTES + payload
    }

    /// Bytes of the chunk-frame stream carrying `floats` f32 values
    /// (each chunk payload: tag u8 + count u32 + data). Zero floats
    /// stream zero chunks.
    pub fn chunk_stream_bytes(floats: usize) -> usize {
        let chunks = floats.div_ceil(CHUNK_FLOATS);
        chunks * frame_bytes(1 + 4) + 4 * floats
    }

    /// Bytes of the row-aligned quantized chunk stream carrying
    /// `floats = rows × dim` embedding values at a wire [`Precision`].
    /// Quantized chunks (`PartChunkQ`) carry tag u8 + precision u8 +
    /// rows u32 + cols u32, then an `encode_rows` block (f16: two
    /// bytes per value; int8: one f32 scale per row plus one byte per
    /// value); each chunk holds up to `CHUNK_FLOATS / dim` rows. f32
    /// reduces to [`chunk_stream_bytes`] exactly.
    pub fn quant_stream_bytes(floats: usize, dim: usize, precision: Precision) -> usize {
        if precision == Precision::F32 {
            return chunk_stream_bytes(floats);
        }
        assert!(
            dim > 0 && floats.is_multiple_of(dim),
            "quantized stream is row-aligned: {floats} floats at dim {dim}"
        );
        let rows = floats / dim;
        let rows_per_chunk = (CHUNK_FLOATS / dim).max(1);
        let chunks = rows.div_ceil(rows_per_chunk);
        chunks * frame_bytes(1 + 1 + 4 + 4)
            + precision
                .payload_bytes(rows, dim)
                .expect("stream size overflows")
    }

    /// Bytes of the chunk stream carrying a partition's `emb_floats` +
    /// `acc_floats`: at f32 both blocks travel as one concatenated
    /// `PartChunk` stream (byte-identical to the unquantized
    /// protocol); at f16/int8 the embeddings travel quantized and the
    /// Adagrad accumulators follow as plain f32 chunks — optimizer
    /// state is never quantized on the wire.
    pub fn part_stream_bytes(
        emb_floats: usize,
        acc_floats: usize,
        dim: usize,
        precision: Precision,
    ) -> usize {
        if precision == Precision::F32 {
            return chunk_stream_bytes(emb_floats + acc_floats);
        }
        quant_stream_bytes(emb_floats, dim, precision) + chunk_stream_bytes(acc_floats)
    }

    /// `PartCheckout` request: tag + PartitionKey (u32 + u32).
    pub const CHECKOUT_REQUEST_BYTES: usize = frame_bytes(1 + 8);
    /// `PartCheckinResp` response: tag + committed flag.
    pub const CHECKIN_RESPONSE_BYTES: usize = frame_bytes(1 + 1);

    /// `PartData` header frame plus the chunk stream for a checkout (or
    /// peek) response carrying `emb_floats` + `acc_floats` values, with
    /// `dim`-wide embedding rows at a wire [`Precision`] (see
    /// [`part_stream_bytes`] for the framing).
    pub fn part_data_bytes(
        emb_floats: usize,
        acc_floats: usize,
        dim: usize,
        precision: Precision,
    ) -> usize {
        frame_bytes(1 + 8 + 4 + 4) + part_stream_bytes(emb_floats, acc_floats, dim, precision)
    }

    /// Full checkout RPC: request frame + data response, with `dim`-wide
    /// embedding rows at a wire [`Precision`].
    pub fn checkout_rpc_bytes(
        emb_floats: usize,
        acc_floats: usize,
        dim: usize,
        precision: Precision,
    ) -> usize {
        CHECKOUT_REQUEST_BYTES + part_data_bytes(emb_floats, acc_floats, dim, precision)
    }

    /// `PartCheckin` request frames: header (tag + key + token + lens)
    /// plus the chunk stream, with `dim`-wide embedding rows at a wire
    /// [`Precision`].
    pub fn checkin_request_bytes(
        emb_floats: usize,
        acc_floats: usize,
        dim: usize,
        precision: Precision,
    ) -> usize {
        frame_bytes(1 + 8 + 8 + 4 + 4) + part_stream_bytes(emb_floats, acc_floats, dim, precision)
    }

    /// Full check-in RPC: streamed request + commit/reject response, with
    /// `dim`-wide embedding rows at a wire [`Precision`].
    pub fn checkin_rpc_bytes(
        emb_floats: usize,
        acc_floats: usize,
        dim: usize,
        precision: Precision,
    ) -> usize {
        checkin_request_bytes(emb_floats, acc_floats, dim, precision) + CHECKIN_RESPONSE_BYTES
    }

    /// `ParamPushPull`/`ParamRegister` request: tag + ParamKey (u32 +
    /// u8) + vec length u32 + data.
    pub fn param_push_bytes(floats: usize) -> usize {
        frame_bytes(1 + 5 + 4 + 4 * floats)
    }

    /// `ParamValue` response: tag + vec length u32 + data.
    pub fn param_value_bytes(floats: usize) -> usize {
        frame_bytes(1 + 4 + 4 * floats)
    }

    /// Full push/pull (or register) RPC: delta up, merged value down.
    pub fn push_pull_rpc_bytes(floats: usize) -> usize {
        param_push_bytes(floats) + param_value_bytes(floats)
    }

    /// `ParamPull` request: tag + ParamKey.
    pub const PULL_REQUEST_BYTES: usize = frame_bytes(1 + 5);

    /// Full pull RPC.
    pub fn pull_rpc_bytes(floats: usize) -> usize {
        PULL_REQUEST_BYTES + param_value_bytes(floats)
    }
}

/// Byte and transfer accounting for simulated RPCs over a link of a
/// given bandwidth and latency.
#[derive(Debug)]
pub struct NetworkModel {
    bandwidth_bytes_per_sec: f64,
    latency_sec: f64,
    total_bytes: AtomicU64,
    total_transfers: AtomicU64,
}

impl NetworkModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_sec` is not positive or `latency_sec`
    /// is negative.
    pub fn new(bandwidth_bytes_per_sec: f64, latency_sec: f64) -> Self {
        assert!(
            bandwidth_bytes_per_sec > 0.0 && bandwidth_bytes_per_sec.is_finite(),
            "bandwidth must be positive"
        );
        assert!(
            latency_sec >= 0.0 && latency_sec.is_finite(),
            "latency must be non-negative"
        );
        NetworkModel {
            bandwidth_bytes_per_sec,
            latency_sec,
            total_bytes: AtomicU64::new(0),
            total_transfers: AtomicU64::new(0),
        }
    }

    /// The paper's measured setup: ~1 GB/s effective TCP bandwidth,
    /// 0.1 ms latency.
    pub fn paper_default() -> Self {
        NetworkModel::new(1e9, 1e-4)
    }

    /// Records a request/response round trip: both directions' bytes,
    /// counted as two transfers.
    pub fn record_rpc(&self, request_bytes: usize, response_bytes: usize) {
        let bytes = request_bytes + response_bytes;
        self.total_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.total_transfers.fetch_add(2, Ordering::Relaxed);
    }

    /// Total bytes transferred so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Total number of transfers.
    pub fn total_transfers(&self) -> u64 {
        self.total_transfers.load(Ordering::Relaxed)
    }

    /// Configured bandwidth (bytes/second).
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth_bytes_per_sec
    }

    /// Configured latency (seconds).
    pub fn latency(&self) -> f64 {
        self.latency_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates() {
        let net = NetworkModel::new(1e6, 0.0);
        net.record_rpc(500_000, 0);
        net.record_rpc(200_000, 300_000);
        assert_eq!(net.total_bytes(), 1_000_000);
        assert_eq!(net.total_transfers(), 4);
    }

    #[test]
    fn paper_default_moves_a_gigabyte_per_second() {
        let net = NetworkModel::paper_default();
        assert_eq!(net.bandwidth(), 1e9);
        assert_eq!(net.latency(), 1e-4);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        let _ = NetworkModel::new(0.0, 0.0);
    }

    #[test]
    fn rpc_charges_both_directions_and_two_latencies() {
        // two transfers, one per direction, each paying a latency on a
        // real link
        let net = NetworkModel::new(1000.0, 0.25);
        net.record_rpc(300, 700);
        assert_eq!(net.total_bytes(), 1000);
        assert_eq!(net.total_transfers(), 2);
    }

    #[test]
    fn chunk_stream_bytes_matches_framing() {
        use super::wirecost::*;
        // Empty stream sends nothing.
        assert_eq!(chunk_stream_bytes(0), 0);
        // One partial chunk: one frame header + tag + count + data.
        assert_eq!(chunk_stream_bytes(10), frame_bytes(5) + 40);
        // Exactly one full chunk.
        assert_eq!(
            chunk_stream_bytes(CHUNK_FLOATS),
            frame_bytes(5) + 4 * CHUNK_FLOATS
        );
        // One full chunk plus one float spills into a second frame.
        assert_eq!(
            chunk_stream_bytes(CHUNK_FLOATS + 1),
            2 * frame_bytes(5) + 4 * (CHUNK_FLOATS + 1)
        );
    }

    #[test]
    fn f16_partition_round_trip_is_at_most_055x_f32_at_dim_32() {
        // a checkout plus a checkin of a whole partition: embeddings and
        // their f32 accumulator column. The bar is stated at dim 32: the
        // accumulator column is a fixed 4 bytes per row, so at dim 8 the
        // ratio is ~0.56
        use super::wirecost::*;
        use pbg_tensor::Precision;
        let dim = 32;
        let round_trip = |rows: usize, precision| {
            checkout_rpc_bytes(rows * dim, rows, dim, precision)
                + checkin_rpc_bytes(rows * dim, rows, dim, precision)
        };
        for rows in [100, 1_000, 100_000] {
            let (f16, f32) = (
                round_trip(rows, Precision::F16),
                round_trip(rows, Precision::F32),
            );
            assert!(
                f16 * 100 <= f32 * 55,
                "{rows} rows: f16 {f16} B is over 0.55x f32 {f32} B"
            );
        }
    }

    #[test]
    fn quantized_closed_forms_reduce_to_f32_and_shrink() {
        use super::wirecost::*;
        use pbg_tensor::Precision;
        for (e, a) in [(0, 0), (640, 10), (CHUNK_FLOATS, 64), (100_032, 100_000)] {
            // at f32 both blocks ride one concatenated plain chunk stream
            let stream = chunk_stream_bytes(e + a);
            assert_eq!(part_stream_bytes(e, a, 64, Precision::F32), stream);
            assert_eq!(
                checkout_rpc_bytes(e, a, 64, Precision::F32),
                CHECKOUT_REQUEST_BYTES + frame_bytes(1 + 8 + 4 + 4) + stream
            );
            assert_eq!(
                checkin_rpc_bytes(e, a, 64, Precision::F32),
                frame_bytes(1 + 8 + 8 + 4 + 4) + stream + CHECKIN_RESPONSE_BYTES
            );
        }
        // row-aligned quant framing: header + tag + precision + rows +
        // cols, then the encode_rows block
        assert_eq!(
            quant_stream_bytes(10, 10, Precision::F16),
            frame_bytes(10) + 2 * 10
        );
        // int8 pays one f32 scale per row on top of the code bytes
        assert_eq!(
            quant_stream_bytes(10, 5, Precision::Int8),
            frame_bytes(10) + 2 * 4 + 10
        );
        // one row past a full chunk of rows takes a second frame
        let dim = 128;
        let rpc = CHUNK_FLOATS / dim;
        assert_eq!(
            quant_stream_bytes((rpc + 1) * dim, dim, Precision::F16),
            2 * frame_bytes(10) + 2 * (rpc + 1) * dim
        );
        // accumulators ride as plain f32 chunks behind the quantized
        // embeddings — never quantized
        assert_eq!(
            part_stream_bytes(640, 77, 64, Precision::F16),
            quant_stream_bytes(640, 64, Precision::F16) + chunk_stream_bytes(77)
        );
        // a realistic partition stream still compresses close to the
        // element width ratio (f16 ≤ 0.55×, int8 ≤ 0.3× — the f32
        // accumulator tail and int8 scale column eat part of the win)
        let f32_bytes = checkout_rpc_bytes(1 << 20, 1 << 14, 256, Precision::F32);
        assert!(checkout_rpc_bytes(1 << 20, 1 << 14, 256, Precision::F16) * 100 <= f32_bytes * 55);
        assert!(checkout_rpc_bytes(1 << 20, 1 << 14, 256, Precision::Int8) * 100 <= f32_bytes * 30);
    }
}
