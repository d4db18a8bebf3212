//! The traced run: splits a workload's time across the layers it
//! passes through, using only public API.
//!
//! Spans come from the benchmark's own wrappers around calls into each
//! layer, plus the consumer bus's existing tracer:
//!
//! * a [`Transport`] wrapper on the consumer bus times every exchange
//!   and keeps a few replies;
//! * a [`SoapService`] wrapper re-registered on the serving bus times
//!   each WS-DAIR / WS-DAIX / federation handler;
//! * a [`Transport`] wrapper on the serving bus times each federation
//!   shard leg and keeps its bytes.
//!
//! Inner layers (SQL engine, rowset codec, envelope codec, XPath,
//! federation admission and merge) are timed by replaying their public
//! functions on samples captured during the run, off the request path.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dais::dair::messages::{
    parse_sql_expression, rowset_cursor_from_reply_bytes, rowset_from_reply_bytes,
};
use dais::federation::{analyze, merge_cursors};
use dais::obs::names::span_names;
use dais::soap::{BusError, Envelope, Fault, SoapService, StatsSnapshot, Transport};
use dais::sql::{Database, Rowset, Value};
use dais::xml::XmlWriter;
use dais_bench::workload::populate_items;

use crate::deploy::Deployment;
use crate::load::{self, percentile};
use crate::workloads::{
    self, fed_row, Backend, Kind, Op, Workload, FED_INSERT, FED_ROWS, FED_SCHEMA, FED_SQL,
    ITEM_ROWS, PAGE_ROWS, PAYLOAD_WIDTH, POINT_READ, POINT_UPDATE, ROWSET_SQL, SHARDS,
};

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("soap.queue_wait_ns", "ns"),
    ("soap.envelope_parse_ns", "ns"),
    ("soap.envelope_write_ns", "ns"),
    ("soap.transport_ns", "ns"),
    ("soap.self_ns", "ns"),
    ("soap.messages_per_op", "count"),
    ("soap.request_bytes_per_op", "B"),
    ("soap.response_bytes_per_op", "B"),
    ("soap.shed", "count"),
    ("soap.retries", "count"),
    ("soap.faults", "count"),
    ("soap.queue_peak", "count"),
    ("dair.handle_ns", "ns"),
    ("dair.self_ns", "ns"),
    ("daix.handle_ns", "ns"),
    ("daix.self_ns", "ns"),
    ("federation.handle_ns", "ns"),
    ("sqlengine.read_ns", "ns"),
    ("sqlengine.write_ns", "ns"),
    ("sqlengine.rowset_encode_ns", "ns"),
    ("sqlengine.rowset_decode_ns", "ns"),
    ("sqlengine.self_ns", "ns"),
    ("sqlengine.rows_per_op", "count"),
    ("xmldb.xpath_ns", "ns"),
    ("xmldb.items_per_op", "count"),
    ("federation.admit_ns", "ns"),
    ("federation.merge_ns", "ns"),
    ("federation.leg_max_ns", "ns"),
    ("federation.scatter_overhead_ns", "ns"),
    ("federation.legs_per_op", "count"),
    ("federation.shard_bytes_per_op", "B"),
    ("federation.rows_shipped_per_row_returned", "ratio"),
    ("obs.slo_p99_ratio", "ratio"),
    ("obs.tracing_overhead_pct", "%"),
    ("obs.untraced_p50_ms", "ms"),
    ("obs.traced_p50_ms", "ms"),
    ("obs.unexplained_ns", "ns"),
    ("obs.unexplained_pct", "%"),
];

/// Ops in the deterministic count pass.
pub const COUNT_OPS: u64 = 200;
/// Ops (by index, from 0) whose inner layers are replayed.
const REPLAY_OPS: u64 = 64;
/// Replay passes; each metric reports the median pass.
const REPLAY_PASSES: usize = 5;
/// Consumer replies kept for codec replays.
const CAPTURE: usize = 48;
/// Federated queries whose leg replies are kept for merge replays.
const CAPTURE_QUERIES: usize = 48;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Layer {
    Dair,
    Daix,
    Federation,
}

#[derive(Default, Clone, Copy)]
struct Sum {
    n: u64,
    ns: u64,
}

impl Sum {
    fn add(&mut self, d: Duration) {
        self.n += 1;
        self.ns += d.as_nanos() as u64;
    }
}

struct FedQuery {
    start: Instant,
    end: Instant,
    ns: u64,
    key: Option<i64>,
}

struct Leg {
    start: Instant,
    ns: u64,
    request: Vec<u8>,
    reply: Option<Vec<u8>>,
}

#[derive(Default)]
struct Rec {
    exchanges: Sum,
    replies: Vec<Vec<u8>>,
    dair: Sum,
    daix: Sum,
    federation: Sum,
    queries: Vec<FedQuery>,
    legs: Vec<Leg>,
}

#[derive(Default)]
struct Recorder {
    rec: Mutex<Rec>,
}

impl Recorder {
    fn with<R>(&self, f: impl FnOnce(&mut Rec) -> R) -> R {
        f(&mut self.rec.lock().expect("recorder lock poisoned by a panicking thread"))
    }
}

/// Times every consumer exchange (the socket round trip, server work
/// included) and keeps every fourth reply up to [`CAPTURE`].
struct MeteredTransport {
    inner: Arc<dyn Transport>,
    rec: Arc<Recorder>,
}

impl Transport for MeteredTransport {
    fn call(
        &self,
        to: &str,
        action: &str,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), BusError> {
        let t0 = Instant::now();
        let result = self.inner.call(to, action, request, response);
        let took = t0.elapsed();
        self.rec.with(|r| {
            r.exchanges.add(took);
            if r.exchanges.n % 4 == 0 && r.replies.len() < CAPTURE && result.is_ok() {
                r.replies.push(response.clone());
            }
        });
        result
    }

    fn routes(&self, to: &str) -> bool {
        self.inner.routes(to)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds every request it carries, in order, into one FNV-1a hash: a
/// fingerprint of what the services were sent, not of what the
/// benchmark meant to send.
struct HashingTransport {
    inner: Arc<dyn Transport>,
    hash: Mutex<u64>,
}

impl Transport for HashingTransport {
    fn call(
        &self,
        to: &str,
        action: &str,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), BusError> {
        {
            let mut h = self.hash.lock().expect("hash lock poisoned by a panicking thread");
            for &b in to.as_bytes().iter().chain(action.as_bytes()).chain(request) {
                *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.inner.call(to, action, request, response)
    }

    fn routes(&self, to: &str) -> bool {
        self.inner.routes(to)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times one federation shard leg and keeps its request (to group legs
/// by query, off the request path) and, for the first queries, its reply.
struct LegTransport {
    inner: Arc<dyn Transport>,
    rec: Arc<Recorder>,
}

impl Transport for LegTransport {
    fn call(
        &self,
        to: &str,
        action: &str,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), BusError> {
        let start = Instant::now();
        let result = self.inner.call(to, action, request, response);
        let ns = start.elapsed().as_nanos() as u64;
        let request = request.to_vec();
        self.rec.with(|r| {
            let reply = (r.legs.len() < CAPTURE_QUERIES * SHARDS).then(|| response.clone());
            r.legs.push(Leg { start, ns, request, reply });
        });
        result
    }

    fn routes(&self, to: &str) -> bool {
        self.inner.routes(to)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times a service handler and delegates.
struct TimedService {
    inner: Arc<dyn SoapService>,
    layer: Layer,
    rec: Arc<Recorder>,
}

impl SoapService for TimedService {
    fn handle(&self, action: &str, request: &Envelope) -> Result<Envelope, Fault> {
        let start = Instant::now();
        let result = self.inner.handle(action, request);
        let end = Instant::now();
        let took = end - start;
        let key = (self.layer == Layer::Federation).then(|| range_key(request)).flatten();
        self.rec.with(|r| match self.layer {
            Layer::Dair => r.dair.add(took),
            Layer::Daix => r.daix.add(took),
            Layer::Federation => {
                r.federation.add(took);
                r.queries.push(FedQuery { start, end, ns: took.as_nanos() as u64, key });
            }
        });
        result
    }

    fn actions(&self) -> Vec<String> {
        self.inner.actions()
    }
}

/// The range start a federated `SQLExecute` carries as its parameter.
fn range_key(request: &Envelope) -> Option<i64> {
    let (_, params) = parse_sql_expression(request.payload()?).ok()?;
    match params.first() {
        Some(Value::Int(k)) => Some(*k),
        _ => None,
    }
}

fn wrap(dep: &Deployment, address: &str, layer: Layer, rec: &Arc<Recorder>) {
    let inner = dep.serving.endpoint(address).expect("wrapped endpoint is registered");
    dep.serving.register(address, Arc::new(TimedService { inner, layer, rec: rec.clone() }));
}

/// Per-layer metrics of one traced run, keyed by [`PER_LAYER`] name.
pub struct TraceReport {
    pub metrics: HashMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub lines: Vec<String>,
}

pub fn run(kind: Kind, seed: u64, seconds: f64, workers: usize, slow: bool) -> TraceReport {
    let dep = Deployment::launch(workers, slow);
    let mut wl = Workload::launch(kind, seed, &dep);
    wl.prepare_oracle();
    let mut m: HashMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let mut lines = Vec::new();
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    let mut tally = |t: &load::Tally| {
        attempted += t.attempted();
        failed += t.failed;
        let room = 5usize.saturating_sub(errors.len());
        errors.extend(t.errors.iter().take(room).cloned());
    };

    // 1. Count pass: the first ops of the seeded sequence, one at a
    //    time, untraced. Same seed ⇒ same ops ⇒ same counts. The bytes
    //    the consumer sends are hashed on their way to the socket.
    dep.consumer.reset_stats();
    dep.serving.reset_stats();
    let sent = Arc::new(HashingTransport {
        inner: dep.consumer_transport.clone(),
        hash: Mutex::new(FNV_OFFSET),
    });
    dep.consumer.set_transport(sent.clone());
    let count = load::serial(COUNT_OPS, |i| wl.run(i));
    dep.consumer.set_transport(dep.consumer_transport.clone());
    tally(&count);
    let (c, s) = (dep.consumer.stats(), dep.serving.stats());
    let per_op = |v: u64| v as f64 / COUNT_OPS as f64;
    m.insert("soap.messages_per_op", per_op(c.messages));
    m.insert("soap.request_bytes_per_op", per_op(c.request_bytes));
    m.insert("soap.response_bytes_per_op", per_op(c.response_bytes));
    if kind == Kind::XpathBooks {
        m.insert("xmldb.items_per_op", per_op(count.rows));
    } else {
        m.insert("sqlengine.rows_per_op", per_op(count.rows));
    }
    if kind == Kind::FederatedRange {
        m.insert("federation.legs_per_op", per_op(s.messages));
        m.insert("federation.shard_bytes_per_op", per_op(s.total_bytes()));
    }
    lines.push(format!(
        "count pass: {COUNT_OPS} ops, {} consumer messages, {} consumer bytes, {} shard legs, request-bytes hash {:016x}",
        c.messages,
        c.total_bytes(),
        s.messages,
        *sent.hash.lock().expect("hash lock poisoned by a panicking thread")
    ));

    // 2. Warm, then an untraced open phase: the baseline p50 and the
    //    program's own endpoint histogram for the SLO comparison.
    load::closed(workers, Duration::from_millis(300), 1 << 48, |i| wl.run(i));
    let phase = Duration::from_secs_f64(seconds * 0.4);
    dep.consumer.reset_stats();
    dep.consumer.obs().metrics.reset();
    let mut untraced = load::open(workers, kind.open_rate(), phase, 1 << 32, |i| wl.run(i));
    tally(&untraced.tally);
    untraced.latency_ns.sort_unstable();
    let untraced_p50 = percentile(&untraced.latency_ns, 0.5) as f64;
    let untraced_p99 = percentile(&untraced.latency_ns, 0.99) as f64;
    let hist_key = format!("endpoint:{}", wl.address);
    let hist_p99 = dep
        .consumer
        .obs()
        .metrics
        .snapshot()
        .get(&hist_key)
        .map(|h| h.percentile(0.99))
        .unwrap_or(0) as f64;
    m.insert("obs.slo_p99_ratio", hist_p99 / untraced_p99.max(1.0));

    // 3. The traced open phase: wrappers installed, tracer on.
    let rec = Arc::new(Recorder::default());
    dep.consumer.set_transport(Arc::new(MeteredTransport {
        inner: dep.consumer_transport.clone(),
        rec: rec.clone(),
    }));
    dep.serving
        .set_transport(Arc::new(LegTransport { inner: dep.serving_tcp(), rec: rec.clone() }));
    match &wl.backend {
        Backend::Items(_) => wrap(&dep, &wl.address, Layer::Dair, &rec),
        Backend::Books(_) => wrap(&dep, &wl.address, Layer::Daix, &rec),
        Backend::Fleet(fleet) => {
            wrap(&dep, &wl.address, Layer::Federation, &rec);
            for s in 0..fleet.router.shards() {
                for r in 0..fleet.router.replica_count(s) {
                    wrap(&dep, &fleet.router.replica(s, r).endpoint_address(), Layer::Dair, &rec);
                }
            }
        }
    }
    dep.consumer.enable_tracing(seed);
    let mut traced = load::open(workers, kind.open_rate(), phase, 1 << 40, |i| wl.run(i));
    dep.consumer.disable_tracing();
    tally(&traced.tally);
    traced.latency_ns.sort_unstable();
    let traced_p50 = percentile(&traced.latency_ns, 0.5) as f64;
    let stats: StatsSnapshot = dep.consumer.stats();
    m.insert("soap.shed", stats.shed as f64);
    m.insert("soap.retries", stats.retries as f64);
    m.insert("soap.faults", stats.faults as f64);
    m.insert("soap.queue_peak", stats.queue_peak as f64);
    m.insert("obs.untraced_p50_ms", untraced_p50 / 1e6);
    m.insert("obs.traced_p50_ms", traced_p50 / 1e6);
    m.insert(
        "obs.tracing_overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50.max(1.0) * 100.0,
    );
    lines.push(format!(
        "open phases at {}/s: untraced p50 {:.3} ms ({} samples), traced p50 {:.3} ms ({} samples)",
        kind.open_rate(),
        untraced_p50 / 1e6,
        untraced.latency_ns.len(),
        traced_p50 / 1e6,
        traced.latency_ns.len()
    ));

    let spans = dep.consumer.obs().tracer.take();
    let waits: Vec<u64> = spans
        .spans_named(span_names::BUS_EXECUTE)
        .iter()
        .filter_map(|s| s.attrs.iter().find(|(k, _)| *k == "queue_wait_ns"))
        .filter_map(|(_, v)| v.parse().ok())
        .collect();
    m.insert("soap.queue_wait_ns", mean(&waits));

    // 4. Fold the wrapper records, then replay inner layers off-path.
    let rec = std::mem::take(&mut *rec.rec.lock().expect("recorder lock poisoned"));
    let ops = traced.tally.attempted().max(1) as f64;
    let handle_ns = |s: Sum| s.ns as f64 / ops;
    m.insert("dair.handle_ns", handle_ns(rec.dair));
    m.insert("daix.handle_ns", handle_ns(rec.daix));
    m.insert("federation.handle_ns", handle_ns(rec.federation));
    let top_handler = match kind {
        Kind::TuplesPaged | Kind::PointMixed => rec.dair,
        Kind::XpathBooks => rec.daix,
        Kind::FederatedRange => rec.federation,
    };
    m.insert("soap.transport_ns", (rec.exchanges.ns as f64 - top_handler.ns as f64) / ops);

    let codec = replay_codec(&rec.replies, kind);
    m.insert("soap.envelope_parse_ns", codec.parse_ns);
    m.insert("soap.envelope_write_ns", codec.write_ns);
    m.insert("sqlengine.rowset_decode_ns", codec.decode_ns);
    let engine = replay_engine(&wl);
    for (name, v) in &engine {
        m.insert(name, *v);
    }
    if kind == Kind::FederatedRange {
        fold_federation(&mut m, &rec);
    }

    // 5. Self times along the blocking path, and what none explains.
    let g = |m: &HashMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let soap_self = g(&m, "soap.queue_wait_ns")
        + g(&m, "soap.transport_ns")
        + g(&m, "soap.envelope_parse_ns")
        + if kind.raw_lane() { g(&m, "soap.envelope_write_ns") } else { 0.0 };
    m.insert("soap.self_ns", soap_self);
    let sql_inner = g(&m, "sqlengine.read_ns")
        + g(&m, "sqlengine.write_ns")
        + g(&m, "sqlengine.rowset_encode_ns");
    if kind != Kind::XpathBooks {
        m.insert("dair.self_ns", g(&m, "dair.handle_ns") - sql_inner);
        m.insert("sqlengine.self_ns", sql_inner + g(&m, "sqlengine.rowset_decode_ns"));
    } else {
        m.insert("daix.self_ns", g(&m, "daix.handle_ns") - g(&m, "xmldb.xpath_ns"));
    }
    let explained = soap_self + top_handler.ns as f64 / ops + g(&m, "sqlengine.rowset_decode_ns");
    m.insert("obs.unexplained_ns", traced_p50 - explained);
    m.insert("obs.unexplained_pct", (traced_p50 - explained) / traced_p50.max(1.0) * 100.0);

    if let Err(e) = wl.final_check() {
        failed += 1;
        errors.push(e);
    }
    drop(wl);
    dep.shutdown();
    TraceReport { metrics: m, attempted, failed, errors, lines }
}

fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

/// Time `f` over every sample, [`REPLAY_PASSES`] times; return the
/// median pass's mean ns per sample.
fn timed<T>(samples: &[T], mut f: impl FnMut(&T)) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut passes: Vec<f64> = (0..REPLAY_PASSES)
        .map(|_| {
            let t0 = Instant::now();
            for s in samples {
                f(s);
            }
            t0.elapsed().as_nanos() as f64 / samples.len() as f64
        })
        .collect();
    load::median(&mut passes)
}

struct Codec {
    parse_ns: f64,
    write_ns: f64,
    decode_ns: f64,
}

/// Envelope parse and write, and rowset decode, on captured replies.
fn replay_codec(replies: &[Vec<u8>], kind: Kind) -> Codec {
    let parsed: Vec<Envelope> =
        replies.iter().filter_map(|r| Envelope::from_bytes(r).ok()).collect();
    let parse_ns = timed(replies, |r| {
        std::hint::black_box(Envelope::from_bytes(std::hint::black_box(r)).ok());
    });
    let mut buf = Vec::new();
    let write_ns = timed(&parsed, |env| {
        buf.clear();
        env.to_bytes_into(&mut buf);
        std::hint::black_box(&buf);
    });
    let decode_ns = if kind == Kind::XpathBooks {
        0.0
    } else {
        let rowset_replies: Vec<&Vec<u8>> =
            replies.iter().filter(|r| rowset_from_reply_bytes(r).is_ok()).collect();
        // Replies without a rowset (update counts) decode nothing; the
        // per-op figure spreads the decodes over every captured op.
        timed(&rowset_replies, |r| {
            std::hint::black_box(rowset_from_reply_bytes(r).ok());
        }) * rowset_replies.len() as f64
            / replies.len().max(1) as f64
    };
    Codec { parse_ns, write_ns, decode_ns }
}

/// SQL engine, rowset encoder, XPath and admission replays on the first
/// [`REPLAY_OPS`] ops, against twin data; values are per op.
fn replay_engine(wl: &Workload) -> Vec<(&'static str, f64)> {
    let ops: Vec<Op> = (0..REPLAY_OPS).map(|i| wl.op(i)).collect();
    let mut buf = Vec::new();
    match &wl.backend {
        Backend::Items(_) => {
            let twin = Database::new("twin");
            populate_items(&twin, ITEM_ROWS, PAYLOAD_WIDTH);
            if wl.kind == Kind::TuplesPaged {
                let all = twin.execute(ROWSET_SQL, &[]).expect("twin window query");
                let all = all.rowset().expect("SELECT returns a rowset");
                let pages: Vec<Rowset> = ops
                    .iter()
                    .filter_map(|op| match op {
                        Op::Page { start } => Some(all.slice(*start, PAGE_ROWS)),
                        _ => None,
                    })
                    .collect();
                let encode = timed(&pages, |p| {
                    buf.clear();
                    p.to_wire_bytes_into(&mut buf);
                    std::hint::black_box(&buf);
                });
                return vec![("sqlengine.rowset_encode_ns", encode)];
            }
            let n = ops.len() as f64;
            let reads: Vec<i64> = ops
                .iter()
                .filter_map(|op| if let Op::Read { id } = op { Some(*id) } else { None })
                .collect();
            let writes: Vec<i64> = ops
                .iter()
                .filter_map(|op| if let Op::Update { id } = op { Some(*id) } else { None })
                .collect();
            let read = timed(&reads, |id| {
                std::hint::black_box(twin.execute(POINT_READ, &[Value::Int(*id)]).ok());
            });
            let write = timed(&writes, |id| {
                std::hint::black_box(twin.execute(POINT_UPDATE, &[Value::Int(*id)]).ok());
            });
            let rowsets: Vec<Rowset> = reads
                .iter()
                .filter_map(|id| twin.execute(POINT_READ, &[Value::Int(*id)]).ok())
                .filter_map(|r| r.rowset().cloned())
                .collect();
            let encode = timed(&rowsets, |r| {
                buf.clear();
                r.to_wire_bytes_into(&mut buf);
                std::hint::black_box(&buf);
            });
            vec![
                ("sqlengine.read_ns", read * reads.len() as f64 / n),
                ("sqlengine.write_ns", write * writes.len() as f64 / n),
                ("sqlengine.rowset_encode_ns", encode * rowsets.len() as f64 / n),
            ]
        }
        Backend::Books(store) => {
            let exprs: Vec<String> = ops
                .iter()
                .filter_map(|op| {
                    if let Op::Xpath { author } = op {
                        Some(workloads::xpath_expr(*author))
                    } else {
                        None
                    }
                })
                .collect();
            let xpath = timed(&exprs, |e| {
                std::hint::black_box(store.xpath_query("books", e).ok());
            });
            vec![("xmldb.xpath_ns", xpath)]
        }
        Backend::Fleet(fleet) => {
            // One twin per shard, holding exactly the rows the router
            // sent there.
            let twins: Vec<Database> = (0..SHARDS)
                .map(|s| {
                    let db = Database::new(format!("twin{s}"));
                    db.execute_script(FED_SCHEMA).expect("twin schema");
                    db
                })
                .collect();
            for k in 0..FED_ROWS {
                twins[fleet.router.route(&Value::Int(k))]
                    .execute(FED_INSERT, &fed_row(k))
                    .expect("twin row");
            }
            let stmt = analyze(FED_SQL).expect("the range scan is distributable");
            let shard_sql = stmt.shard_statement();
            let los: Vec<i64> = ops
                .iter()
                .filter_map(|op| if let Op::Range { lo } = op { Some(*lo) } else { None })
                .collect();
            let read = timed(&los, |lo| {
                for twin in &twins {
                    std::hint::black_box(twin.execute(&shard_sql, &[Value::Int(*lo)]).ok());
                }
            });
            let leg_rowsets: Vec<Vec<Rowset>> = los
                .iter()
                .map(|lo| {
                    twins
                        .iter()
                        .filter_map(|t| t.execute(&shard_sql, &[Value::Int(*lo)]).ok())
                        .filter_map(|r| r.rowset().cloned())
                        .collect()
                })
                .collect();
            let encode = timed(&leg_rowsets, |legs| {
                for r in legs {
                    buf.clear();
                    r.to_wire_bytes_into(&mut buf);
                    std::hint::black_box(&buf);
                }
            });
            let shipped: usize = leg_rowsets.iter().flatten().map(Rowset::row_count).sum();
            let returned: usize =
                los.iter().map(|lo| (FED_ROWS - lo).min(workloads::FED_LIMIT) as usize).sum();
            let admit = timed(&los, |_| {
                std::hint::black_box(analyze(std::hint::black_box(FED_SQL)).ok());
            });
            vec![
                ("sqlengine.read_ns", read),
                ("sqlengine.rowset_encode_ns", encode),
                ("federation.admit_ns", admit),
                (
                    "federation.rows_shipped_per_row_returned",
                    shipped as f64 / returned.max(1) as f64,
                ),
            ]
        }
    }
}

/// Group shard legs by query (same range key, started inside the
/// federation handler's interval), then take the slowest leg per query
/// and replay the merge over queries whose every leg reply was kept.
fn fold_federation(m: &mut HashMap<&'static str, f64>, rec: &Rec) {
    let mut by_key: HashMap<i64, Vec<&Leg>> = HashMap::new();
    for leg in &rec.legs {
        let key = Envelope::from_bytes(&leg.request)
            .ok()
            .and_then(|env| env.payload().and_then(|p| parse_sql_expression(p).ok()))
            .and_then(|(_, params)| match params.first() {
                Some(Value::Int(k)) => Some(*k),
                _ => None,
            });
        if let Some(k) = key {
            by_key.entry(k).or_default().push(leg);
        }
    }
    let stmt = analyze(FED_SQL).expect("the range scan is distributable");
    let (skip, take) = stmt.window();
    let mut leg_max = Vec::new();
    let mut handler = Vec::new();
    let mut merge_sets: Vec<Vec<&[u8]>> = Vec::new();
    for q in &rec.queries {
        let Some(key) = q.key else { continue };
        let legs: Vec<&&Leg> = by_key
            .get(&key)
            .map(|v| v.iter().filter(|l| l.start >= q.start && l.start <= q.end).collect())
            .unwrap_or_default();
        if legs.is_empty() {
            continue;
        }
        leg_max.push(legs.iter().map(|l| l.ns).max().unwrap_or(0));
        handler.push(q.ns);
        let replies: Vec<&[u8]> = legs.iter().filter_map(|l| l.reply.as_deref()).collect();
        if replies.len() == SHARDS && legs.len() == SHARDS {
            merge_sets.push(replies);
        }
    }
    let mut out = String::new();
    let merge = timed(&merge_sets, |replies| {
        let cursors =
            replies.iter().filter_map(|r| rowset_cursor_from_reply_bytes(r).ok()).collect();
        out.clear();
        let mut w = XmlWriter::new(&mut out);
        std::hint::black_box(merge_cursors(&mut w, cursors, &stmt.keys, skip, take).ok());
        w.finish();
    });
    let leg_max = mean(&leg_max);
    m.insert("federation.leg_max_ns", leg_max);
    m.insert("federation.merge_ns", merge);
    m.insert("federation.scatter_overhead_ns", mean(&handler) - leg_max - merge);
}
