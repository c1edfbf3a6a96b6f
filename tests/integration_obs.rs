//! Observability end-to-end: cross-rank distributed tracing and live
//! Prometheus exposition over a real loopback cluster.
//!
//! This drill pins the PR's acceptance criteria:
//!
//! 1. A 2-rank loopback training run with tracing on yields, per rank, a
//!    JSONL span file whose `rpc` spans carry wire-propagated span ids —
//!    and the lock server's registry holds `handle` spans whose
//!    `parent_span` equals a trainer rank's `rpc` span id. That is the
//!    cross-process parent/child link: the request's trace context rode
//!    the frame's reserved header bytes.
//! 2. Merging the per-rank JSONL streams and exporting with
//!    [`pbg::telemetry::export::to_chrome_trace`] produces one valid
//!    Chrome/Perfetto trace-event JSON with per-rank process tracks and
//!    flow arrows for the linked RPC.
//! 3. A live `/metrics` scrape during the run returns Prometheus text
//!    exposition that passes the format lint.
//! 4. A traced single-machine run's trace summary agrees with its
//!    `EpochStats` in edges trained and bucket seconds.

use pbg::core::config::PbgConfig;
use pbg::core::model::Model;
use pbg::core::trainer::Trainer;
use pbg::distsim::lockserver::LockServer;
use pbg::distsim::{EpochLock, NetworkModel, ParameterServer, PartitionServer};
use pbg::graph::edges::{Edge, EdgeList};
use pbg::graph::schema::GraphSchema;
use pbg::net::{
    train_rank, NetLock, NetParams, NetPartitions, NetServer, RankConfig, RankServices,
};
use pbg::telemetry::context::trace_id_from_seed;
use pbg::telemetry::snapshot::lint_prometheus;
use pbg::telemetry::trace::{read_jsonl, summarize, TraceEvent, TraceValue};
use pbg::telemetry::{JsonlSink, MetricsServer, Registry};
use pbg::tensor::rng::Xoshiro256;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const NUM_NODES: u32 = 60;
const NUM_EDGES: usize = 400;
const PARTS: u32 = 2;
const SEED: u64 = 77;

fn dataset() -> (GraphSchema, EdgeList) {
    let schema = GraphSchema::homogeneous(NUM_NODES, PARTS).expect("schema");
    let mut rng = Xoshiro256::seed_from_u64(99);
    let mut edges = EdgeList::new();
    while edges.len() < NUM_EDGES {
        let src = rng.gen_range(NUM_NODES as u64) as u32;
        let mut dst = rng.gen_range(NUM_NODES as u64) as u32;
        dst -= dst % PARTS;
        dst += src % PARTS;
        if dst >= NUM_NODES || dst == src {
            continue;
        }
        edges.push(Edge::new(src, 0u32, dst));
    }
    (schema, edges)
}

fn config() -> PbgConfig {
    PbgConfig::builder()
        .dim(8)
        .epochs(1)
        .batch_size(100)
        .chunk_size(25)
        .uniform_negatives(10)
        .threads(1)
        .seed(SEED)
        .build()
        .expect("config")
}

/// Serializes a registry's drained events through the production JSONL
/// path and parses them back — the same bytes a per-rank `--telemetry`
/// file holds.
fn drain_to_events(registry: &Registry) -> Vec<TraceEvent> {
    let mut buf = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut buf);
        registry.drain_into(&mut sink).expect("drain");
    }
    read_jsonl(BufReader::new(buf.as_slice())).expect("reparse")
}

fn field_str<'a>(event: &'a TraceEvent, name: &str) -> Option<&'a str> {
    match event.field(name) {
        Some(TraceValue::Str(s)) => Some(s),
        _ => None,
    }
}

/// Minimal HTTP GET against the metrics server; returns the body.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.contains(" 200 "), "bad status: {head}");
    body.to_string()
}

#[test]
fn traced_trainer_run_agrees_with_epoch_stats() {
    let (schema, edges) = dataset();
    let mut trainer = Trainer::new(schema, &edges, config()).expect("trainer");
    trainer.telemetry().set_tracing(true);
    let stats = trainer.train();
    let summary = summarize(&drain_to_events(trainer.telemetry()));
    let trained: usize = stats.iter().map(|e| e.edges).sum();
    assert_eq!(summary.total_edges as usize, trained);
    let epoch_secs: f64 = stats.iter().map(|e| e.seconds).sum();
    assert!(
        (summary.total_bucket_s - epoch_secs).abs() <= 0.01 * epoch_secs.max(1e-9),
        "trace bucket time {} vs epoch stats {} diverged",
        summary.total_bucket_s,
        epoch_secs
    );
}

#[test]
fn cross_rank_spans_link_and_metrics_scrape_lints() {
    let (schema, edges) = dataset();
    let cfg = config();

    // --- servers, each with a traced rank-tagged registry (role ranks) ---
    let model = Model::new(schema.clone(), cfg.clone()).expect("model");
    let net = Arc::new(NetworkModel::new(1e9, 0.0));
    let lock_state = Arc::new(EpochLock::new(LockServer::new(), cfg.epochs, PARTS, PARTS));
    let part_state = Arc::new(PartitionServer::new(
        model.store_layout(),
        2,
        Arc::clone(&net),
    ));
    let param_state = Arc::new(ParameterServer::new(1, net));

    let lock_reg = Registry::new();
    lock_reg.set_rank(1000);
    lock_reg.set_trace_id(trace_id_from_seed(SEED));
    lock_reg.set_tracing(true);
    let part_reg = Registry::new();
    part_reg.set_rank(1001);
    part_reg.set_trace_id(trace_id_from_seed(SEED));
    part_reg.set_tracing(true);

    let lock_srv = NetServer::lock_with("127.0.0.1:0", lock_state, &lock_reg).expect("lock");
    let part_srv =
        NetServer::partitions_with("127.0.0.1:0", part_state, &part_reg).expect("partitions");
    let param_srv =
        NetServer::params_with("127.0.0.1:0", param_state, Registry::disabled()).expect("params");

    // --- live /metrics on the lock server's registry, scraped mid-test ---
    let metrics_srv = MetricsServer::serve("127.0.0.1:0", lock_reg.clone()).expect("metrics");
    let metrics_addr = metrics_srv.local_addr().to_string();

    // --- two trainer ranks over real sockets, tracing on ---
    let rank_regs: Vec<Registry> = (0..2)
        .map(|_| {
            let r = Registry::new();
            r.set_tracing(true);
            r
        })
        .collect();
    std::thread::scope(|scope| {
        for (rank, reg) in rank_regs.iter().enumerate() {
            let (schema, edges, cfg) = (&schema, &edges, cfg.clone());
            let (lock_addr, part_addr, param_addr) = (
                lock_srv.local_addr().to_string(),
                part_srv.local_addr().to_string(),
                param_srv.local_addr().to_string(),
            );
            scope.spawn(move || {
                let services = RankServices {
                    lock: NetLock::new(lock_addr, reg),
                    partitions: NetPartitions::new(part_addr, reg),
                    params: NetParams::new(param_addr, reg),
                };
                train_rank(schema, edges, cfg, &services, &RankConfig::new(rank), reg)
                    .expect("train_rank");
            });
        }
    });

    // --- criterion 3: the scrape is valid Prometheus exposition ---
    let scraped = http_get(&metrics_addr, "/metrics");
    lint_prometheus(&scraped).unwrap_or_else(|e| panic!("scrape failed lint: {e}\n{scraped}"));
    assert!(
        scraped.contains("net_requests_handled"),
        "lock server handled requests during the run:\n{scraped}"
    );

    // --- criterion 1: cross-rank parent/child linkage ---
    let rank_events: Vec<Vec<TraceEvent>> = rank_regs.iter().map(drain_to_events).collect();
    let lock_events = drain_to_events(&lock_reg);
    let part_events = drain_to_events(&part_reg);

    // trainer-side lock-acquire rpc spans, keyed by wire-propagated span id
    let mut lock_rpc_ids = Vec::new();
    for (rank, events) in rank_events.iter().enumerate() {
        for e in events {
            assert_eq!(
                e.field_i64("rank"),
                Some(rank as i64),
                "every trainer event is rank-tagged: {e:?}"
            );
            if e.name == "rpc" && field_str(e, "tag") == Some("lock_acquire") {
                let id = e.field_i64("span_id").expect("rpc span carries its id");
                // span ids partition by rank: high bits are rank + 1
                assert_eq!(id >> 40, rank as i64 + 1, "span id {id:#x} of rank {rank}");
                lock_rpc_ids.push(id);
            }
        }
    }
    assert!(!lock_rpc_ids.is_empty(), "ranks recorded lock_acquire rpcs");

    // lock-server handle spans point straight back at them
    let handle_parents: Vec<i64> = lock_events
        .iter()
        .filter(|e| e.name == "handle" && field_str(e, "tag") == Some("lock_acquire"))
        .map(|e| e.field_i64("parent_span").expect("handle records parent"))
        .collect();
    assert!(
        !handle_parents.is_empty(),
        "lock server recorded handle spans"
    );
    let linked: Vec<i64> = lock_rpc_ids
        .iter()
        .copied()
        .filter(|id| handle_parents.contains(id))
        .collect();
    assert!(
        !linked.is_empty(),
        "no lock-server handle span is a child of any trainer lock_acquire rpc \
         (rpc ids {lock_rpc_ids:?}, handle parents {handle_parents:?})"
    );
    for e in &lock_events {
        assert_eq!(
            e.field_i64("rank"),
            Some(1000),
            "server events carry the role rank"
        );
    }

    // partition transfers link the same way (checkout/checkin handles)
    assert!(
        part_events.iter().any(|e| e.name == "handle"),
        "partition server recorded handle spans"
    );

    // --- criterion 2: one merged Perfetto timeline over all ranks ---
    let mut merged: Vec<TraceEvent> = Vec::new();
    for events in &rank_events {
        merged.extend(events.iter().cloned());
    }
    merged.extend(lock_events.iter().cloned());
    merged.extend(part_events.iter().cloned());
    let json = pbg::telemetry::export::to_chrome_trace(&merged);
    assert!(
        json.starts_with("{\"traceEvents\":["),
        "trace-event envelope"
    );
    for pid in [0, 1, 1000] {
        assert!(
            json.contains(&format!("\"process_name\",\"pid\":{pid}")),
            "rank {pid} has a named process track"
        );
    }
    // the linked RPC appears as a flow: start on the trainer, end on the
    // server, same hex id
    let flow_id = format!("{:#x}", linked[0]);
    assert!(
        json.contains(&format!(
            "\"ph\":\"s\",\"name\":\"rpc_flow\",\"cat\":\"rpc\",\"id\":\"{flow_id}\""
        )),
        "flow start for span {flow_id}"
    );
    assert!(
        json.contains(&format!(
            "\"ph\":\"f\",\"bp\":\"e\",\"name\":\"rpc_flow\",\"cat\":\"rpc\",\"id\":\"{flow_id}\""
        )),
        "flow end for span {flow_id}"
    );
}
