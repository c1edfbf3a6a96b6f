//! Isolated probes: timed calls to one layer's public functions at the
//! workload's exact shapes, with nothing else running. A probe says how
//! fast a layer is on its own — the ceiling the in-situ spans are read
//! against — and runs only in the traced pass, after the measured window.

use pbg_core::config::PbgConfig;
use pbg_core::model::{MmapEmbeddings, Model};
use pbg_core::negatives::{candidate_offsets_into, gather_into};
use pbg_core::storage::{DiskStore, PartitionData, PartitionKey, PartitionStore, StoreLayout};
use pbg_core::trainer::step::{
    train_chunk_with_scratch, ChunkContext, ParamGradAccum, StepScratch,
};
use pbg_core::trainer::{bucketize, EpochStep};
use pbg_distsim::service::PartitionService;
use pbg_distsim::{NetworkModel, PartitionServer};
use pbg_graph::edges::EdgeList;
use pbg_graph::schema::GraphSchema;
use pbg_graph::RelationTypeId;
use pbg_net::{wire, NetPartitions, NetServer};
use pbg_telemetry::http::{read_request, write_response};
use pbg_telemetry::Registry;
use pbg_tensor::adagrad::AdagradRow;
use pbg_tensor::hogwild::HogwildArray;
use pbg_tensor::kernels::{self, ScoreGrad};
use pbg_tensor::matrix::Matrix;
use pbg_tensor::rng::Xoshiro256;
use pbg_tensor::{topk, Precision};
use std::collections::HashSet;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time budget of one probe loop.
const PROBE_BUDGET: Duration = Duration::from_millis(200);

/// Runs `f` once to warm up, then repeatedly for [`PROBE_BUDGET`] (at
/// least `min_iters` times); returns nanoseconds per call.
fn ns_per_call(min_iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0usize;
    while iters < min_iters || start.elapsed() < PROBE_BUDGET {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The shape of one training chunk as the trainer sees it.
#[derive(Debug, Clone, Copy)]
pub struct ChunkShape {
    /// Positives per chunk.
    pub chunk: usize,
    /// Uniform negatives per chunk and side.
    pub uniform: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Rows of the partition negatives are drawn from.
    pub rows: usize,
}

impl ChunkShape {
    /// The shape `config` trains with on partitions of `rows` rows.
    pub fn of(config: &PbgConfig, rows: usize) -> ChunkShape {
        ChunkShape {
            chunk: config.chunk_size,
            uniform: config.uniform_negatives,
            dim: config.dim,
            rows,
        }
    }

    fn candidates(&self) -> usize {
        self.chunk + self.uniform
    }
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    m.fill_with(|_, _| rng.gen_normal());
    m
}

/// What the kernel probe measured.
#[derive(Debug, Clone, Copy)]
pub struct KernelProbe {
    /// Single-thread GF/s of scores + fused backward at the chunk shape,
    /// with a dense gradient: the ceiling for `achieved_gflops`.
    pub peak_gflops: f64,
    /// Kernel nanoseconds per chunk (both corruption sides).
    pub ns_per_chunk: f64,
}

/// `tensor::kernels` at chunk × candidates × d: pack, score, fused backward.
pub fn kernels(shape: ChunkShape) -> KernelProbe {
    let mut rng = Xoshiro256::seed_from_u64(1);
    let pos = random_matrix(shape.chunk, shape.dim, &mut rng);
    let cand = random_matrix(shape.candidates(), shape.dim, &mut rng);
    let grad = random_matrix(shape.chunk, shape.candidates(), &mut rng);
    let flops_before = kernels::flops_executed();
    let mut calls = 0u64;
    let ns = ns_per_call(50, || {
        let fused = ScoreGrad::new(black_box(&cand));
        black_box(fused.scores(black_box(&pos)));
        black_box(fused.backward(&pos, black_box(&grad)));
        calls += 1;
    });
    // the warm-up call executed flops too
    let flops_per_call = (kernels::flops_executed() - flops_before) as f64 / (calls) as f64;
    KernelProbe {
        peak_gflops: flops_per_call / ns,
        ns_per_chunk: 2.0 * ns,
    }
}

/// `core::negatives`: candidate offsets + gather for both sides of one
/// chunk, from a partition-sized array (so gathers miss cache as they do
/// in training). Nanoseconds per chunk.
pub fn negatives(shape: ChunkShape) -> f64 {
    let array = HogwildArray::zeros(shape.rows, shape.dim);
    let mut rng = Xoshiro256::seed_from_u64(2);
    let chunk: Vec<u32> = (0..shape.chunk)
        .map(|_| rng.gen_index(shape.rows) as u32)
        .collect();
    let mut offsets = Vec::new();
    let mut out = Matrix::zeros(0, 0);
    ns_per_call(200, || {
        for _side in 0..2 {
            candidate_offsets_into(&mut offsets, &chunk, shape.uniform, shape.rows, &mut rng);
            gather_into(&array, &offsets, &mut out);
        }
        black_box(&out);
    })
}

/// `tensor::adagrad`: `AdagradRow::update` on random rows of an array of
/// at least 50 MB. Nanoseconds per row.
pub fn adagrad(dim: usize) -> f64 {
    let rows = (50_000_000 / (4 * dim)).max(1) + 1;
    let params = HogwildArray::zeros(rows, dim);
    let state = AdagradRow::new(rows, 0.1);
    let mut rng = Xoshiro256::seed_from_u64(3);
    let grad: Vec<f32> = (0..dim).map(|_| rng.gen_normal() * 0.01).collect();
    const BATCH: usize = 256;
    ns_per_call(100, || {
        for _ in 0..BATCH {
            state.update(&params, rng.gen_index(rows), black_box(&grad));
        }
    }) / BATCH as f64
}

/// `core::trainer::step`: one `train_chunk_with_scratch` call on freshly
/// initialised partitions of the workload's shape, with the workload's
/// relation operator. Nanoseconds per chunk.
pub fn chunk(schema: &GraphSchema, config: &PbgConfig, rows: usize) -> f64 {
    let model = Model::new(schema.clone(), config.clone()).expect("probe model");
    let relation = model.relation(RelationTypeId(0));
    let part = |seed| {
        PartitionData::init(
            rows,
            config.dim,
            config.learning_rate,
            config.init_scale,
            seed,
        )
    };
    let (src_data, dst_data) = (part(11), part(12));
    let ctx = ChunkContext {
        config,
        relation,
        src_data: &src_data,
        dst_data: &dst_data,
        src_partition_size: rows,
        dst_partition_size: rows,
        phases: None,
    };
    let mut rng = Xoshiro256::seed_from_u64(4);
    let mut grads = ParamGradAccum::for_relation(relation);
    let mut scratch = StepScratch::new();
    let weights = vec![1.0f32; config.chunk_size];
    let draw = |rng: &mut Xoshiro256| -> Vec<u32> {
        (0..config.chunk_size)
            .map(|_| rng.gen_index(rows) as u32)
            .collect()
    };
    ns_per_call(100, || {
        let (src, dst) = (draw(&mut rng), draw(&mut rng));
        black_box(train_chunk_with_scratch(
            &ctx,
            &src,
            &dst,
            &weights,
            &mut grads,
            &mut rng,
            &mut scratch,
        ));
    })
}

/// `trainer::bucketize` over the training edges: edges per second.
pub fn bucketize_edges_per_s(schema: &GraphSchema, edges: &EdgeList) -> f64 {
    let ns = ns_per_call(2, || {
        black_box(bucketize(schema, black_box(edges)));
    });
    edges.len() as f64 / (ns * 1e-9)
}

/// What the storage replay measured.
#[derive(Debug, Clone, Copy)]
pub struct StorageProbe {
    /// MB/s of synchronous partition loads.
    pub load_mb_per_s: f64,
    /// MB/s of dirty releases (write-back).
    pub release_dirty_mb_per_s: f64,
}

/// `core::storage`: a synchronous `DiskStore` replaying the first
/// `steps` acquire/release steps of the epoch's plan with no training in
/// between — the I/O floor under `swap_wait_s`. Every partition is first
/// written once so the replay reads real files, not lazy initialisers.
pub fn storage_replay(layout: StoreLayout, plan: &[EpochStep], dir: &Path) -> StorageProbe {
    std::fs::remove_dir_all(dir).ok();
    let keys: Vec<PartitionKey> = layout.keys().iter().map(|(k, _)| *k).collect();
    let store = DiskStore::new_sync(layout, dir).expect("probe disk store");
    for &key in &keys {
        drop(store.load(key));
        store.mark_dirty(key);
        store.release(key);
    }
    let (mut load_ns, mut load_bytes) = (0u128, 0usize);
    let (mut release_ns, mut release_bytes) = (0u128, 0usize);
    let mut resident: HashSet<PartitionKey> = HashSet::new();
    let mut release = |key: PartitionKey, bytes: usize| {
        let t = Instant::now();
        store.release(key);
        release_ns += t.elapsed().as_nanos();
        release_bytes += bytes;
    };
    let mut sizes = std::collections::HashMap::new();
    for step in plan {
        for &key in &step.acquire {
            let t = Instant::now();
            let data = store.load(key);
            load_ns += t.elapsed().as_nanos();
            load_bytes += data.bytes();
            sizes.insert(key, data.bytes());
            drop(data);
            store.mark_dirty(key);
            resident.insert(key);
        }
        for &key in &step.release {
            if resident.remove(&key) {
                release(key, sizes[&key]);
            }
        }
    }
    for key in resident {
        release(key, sizes[&key]);
    }
    drop(store);
    std::fs::remove_dir_all(dir).ok();
    let rate = |bytes: usize, ns: u128| {
        if ns == 0 {
            0.0
        } else {
            bytes as f64 / 1e6 / (ns as f64 * 1e-9)
        }
    };
    StorageProbe {
        load_mb_per_s: rate(load_bytes, load_ns),
        release_dirty_mb_per_s: rate(release_bytes, release_ns),
    }
}

/// What the wire codec probe measured.
#[derive(Debug, Clone, Copy)]
pub struct WireProbe {
    /// MB/s of `write_part_streams` into memory.
    pub encode_mb_per_s: f64,
    /// MB/s of `read_chunks` from memory.
    pub decode_mb_per_s: f64,
}

/// `net::wire`: frame and unframe one partition-sized float block in
/// memory (no sockets).
pub fn wire_codec(rows: usize, dim: usize) -> WireProbe {
    let mut rng = Xoshiro256::seed_from_u64(5);
    let emb: Vec<f32> = (0..rows * dim).map(|_| rng.gen_f32()).collect();
    let acc = vec![0.5f32; rows];
    let floats = emb.len() + acc.len();
    let mb = floats as f64 * 4.0 / 1e6;
    let mut frames: Vec<u8> = Vec::with_capacity(floats * 4 + 4096);
    let encode_ns = ns_per_call(2, || {
        frames.clear();
        wire::write_part_streams(&mut frames, emb.clone(), &acc, dim, Precision::F32)
            .expect("encode into memory");
    });
    // the measured closure also clones the embedding block, as the
    // client must (the API takes it by value); time that alone and take
    // it out
    let clone_ns = ns_per_call(2, || {
        black_box(emb.clone());
    });
    let decode_ns = ns_per_call(2, || {
        let (block, _) =
            wire::read_chunks(&mut frames.as_slice(), floats).expect("decode from memory");
        black_box(block);
    });
    WireProbe {
        encode_mb_per_s: mb / ((encode_ns - clone_ns).max(1.0) * 1e-9),
        decode_mb_per_s: mb / (decode_ns * 1e-9),
    }
}

/// `net::client` + `net::server` + `distsim::partitionserver`: one
/// checkout + check-in of a partition against an otherwise idle loopback
/// server. MB/s over both directions.
pub fn partition_roundtrip(layout: StoreLayout) -> f64 {
    let key = layout.keys()[0].0;
    let state = Arc::new(PartitionServer::new(
        layout,
        1,
        Arc::new(NetworkModel::new(1e9, 0.0)),
    ));
    let server = NetServer::partitions("127.0.0.1:0", state).expect("probe partition server");
    let client = NetPartitions::new(server.local_addr().to_string(), &Registry::new());
    let mut bytes = 0usize;
    let ns = ns_per_call(2, || {
        let (emb, acc, token) = client.checkout(key).expect("probe checkout");
        bytes = 2 * 4 * (emb.len() + acc.len());
        assert!(client.checkin(key, emb, acc, token).expect("probe checkin"));
    });
    bytes as f64 / 1e6 / (ns * 1e-9)
}

/// What the read-path probes measured.
#[derive(Debug, Clone, Copy)]
pub struct ReadProbe {
    /// Milliseconds per `top_k_dot` scan of the whole mapped table.
    pub topk_query_ms: f64,
    /// GB/s the scan streams.
    pub topk_scan_gb_per_s: f64,
    /// Nanoseconds per `MmapEmbeddings::score`.
    pub score_ns: f64,
}

/// `tensor::topk` and `core::model` over the mapped table, no HTTP.
pub fn read_path(model: &MmapEmbeddings, sources: &[u32], k: usize) -> ReadProbe {
    let table = model.shards[0].payload().expect("f32 shard");
    let mut i = 0usize;
    let topk_ns = ns_per_call(10, || {
        let query = model.embedding(0, sources[i % sources.len()]);
        black_box(topk::top_k_dot(&query, table, model.dim, k));
        i += 1;
    });
    let score_ns = ns_per_call(1000, || {
        let src = sources[i % sources.len()];
        let dst = sources[(i + 1) % sources.len()];
        black_box(model.score(src, RelationTypeId(0), dst));
        i += 1;
    });
    ReadProbe {
        topk_query_ms: topk_ns / 1e6,
        topk_scan_gb_per_s: (table.len() * 4) as f64 / topk_ns,
        score_ns,
    }
}

/// What the HTTP probes measured.
#[derive(Debug, Clone, Copy)]
pub struct HttpProbe {
    /// Microseconds per `read_request` of an already-delivered request.
    pub parse_us: f64,
    /// Microseconds per `write_response`.
    pub write_us: f64,
}

/// `telemetry::http`: `read_request` and `write_response` take a
/// `TcpStream`, so the probe holds both ends of one loopback connection:
/// the request bytes are written (and so delivered) before the timed
/// parse, and the response is drained after the timed write.
pub fn http(request_body: &str, response_body: &str) -> HttpProbe {
    let listener = TcpListener::bind("127.0.0.1:0").expect("probe listener");
    let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (mut server, _) = listener.accept().expect("accept");
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();
    let request = format!(
        "POST /score HTTP/1.0\r\nContent-Length: {}\r\n\r\n{request_body}",
        request_body.len()
    );
    let (mut parse_ns, mut parses) = (0u128, 0u32);
    let started = Instant::now();
    while parses < 200 || started.elapsed() < PROBE_BUDGET {
        client.write_all(request.as_bytes()).expect("probe request");
        let t = Instant::now();
        let parsed = read_request(&mut server, 1 << 20).expect("probe read");
        parse_ns += t.elapsed().as_nanos();
        assert!(parsed.is_ok_and(|r| r.body.len() == request_body.len()));
        parses += 1;
    }
    // one response to learn its framed length, then timed ones
    write_response(
        &mut server,
        "200 OK",
        "application/json",
        response_body,
        &[],
    )
    .expect("probe response");
    client
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok();
    let mut framed = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n) = client.read(&mut buf) {
        if n == 0 {
            break;
        }
        framed.extend_from_slice(&buf[..n]);
        if framed.ends_with(response_body.as_bytes()) {
            break;
        }
    }
    client.set_read_timeout(None).ok();
    let mut drain = vec![0u8; framed.len()];
    let (mut write_ns, mut writes) = (0u128, 0u32);
    let started = Instant::now();
    while writes < 200 || started.elapsed() < PROBE_BUDGET {
        let t = Instant::now();
        write_response(
            &mut server,
            "200 OK",
            "application/json",
            response_body,
            &[],
        )
        .expect("probe response");
        write_ns += t.elapsed().as_nanos();
        client.read_exact(&mut drain).expect("drain response");
        writes += 1;
    }
    HttpProbe {
        parse_us: parse_ns as f64 / f64::from(parses) / 1e3,
        write_us: write_ns as f64 / f64::from(writes) / 1e3,
    }
}
