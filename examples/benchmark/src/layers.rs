//! The per-layer table, measured from outside: a single-thread
//! pipeline assembled from each crate's public functions — the same
//! calls, in the same order, the runtime's worker, relay and shard
//! threads make — with one span around each layer's calls for every
//! batch of [`BATCH`] messages.
//!
//! Two things differ from the runtime and are left in the
//! `core.deploy.unaccounted_ns` row rather than hidden: the runtime
//! carries one message through all client-side layers before the next,
//! where this pipeline carries a batch through one layer at a time (so
//! a span costs two clock reads per 64 calls, not per call); and
//! `crypto.split_ns` includes handing the shares' payload refcounts and
//! the pooled record key to the pending broker batch, because the
//! shares borrow the split scratch until the next call.

use crate::trace::{SpanId, Tracer};
use crate::workload::{self, Hosting, Workload, PROXIES};
use crate::Metric;
use privapprox::cluster::wire::{decode_data_batch, encode_ack, encode_data_batch, DataMsg};
use privapprox::cluster::{Frame, FrameKind, TcpTransport, Transport};
use privapprox::core::proxy::{inbound_topic, outbound_topic};
use privapprox::core::{Aggregator, Client, Proxy, QueryResult};
use privapprox::crypto::xor::{
    answer_wire_size, decode_answer_into, encode_answer_into, SlotPool, SplitScratch, XorSplitter,
    WIRE_KEY_LEN,
};
use privapprox::rr::{BucketEstimator, RandomizeScratch, Randomizer};
use privapprox::sql::{ColumnType, Schema, Value};
use privapprox::stream::{
    BatchEntry, Broker, Consumer, JoinOutcome, MidJoiner, Record, TopicWriter,
};
use privapprox::types::{
    AnalystId, BitVec, ClientId, ExecutionParams, MessageId, ProxyId, Query, QueryBuilder, QueryId,
    Timestamp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages carried through one layer under one span: the runtime's
/// own worker flush grain.
const BATCH: usize = 64;
/// Traced epochs are capped so the span log stays a few MiB.
const MAX_TRACED_EPOCHS: usize = 256;
/// Frames timed for each `cluster.*` row.
const WIRE_ROUNDS: usize = 256;
/// Times a share crosses a link in the process transport: parent →
/// proxy child → parent → shard child.
const SOCKET_HOPS: f64 = 3.0;
const ANALYST_KEY: u64 = 0x5EED_0000_CAFE;

/// The layer rows in table order, with how each span's self time is
/// scaled: per message, or per closed window in µs.
const PIPELINE_LAYERS: [(&str, &str); 11] = [
    ("sql.answer_ns", "ns"),
    ("rr.randomize_ns", "ns"),
    ("crypto.encode_ns", "ns"),
    ("crypto.split_ns", "ns"),
    ("stream.broker.append_ns", "ns"),
    ("core.proxy.relay_ns", "ns"),
    ("stream.broker.poll_ns", "ns"),
    ("stream.join.offer_ns", "ns"),
    ("crypto.decode_ns", "ns"),
    ("rr.estimate.push_ns", "ns"),
    ("core.aggregator.close_us", "us"),
];
const WIRE_LAYERS: [(&str, &str); 3] = [
    ("cluster.wire.encode_ns", "ns"),
    ("cluster.wire.decode_ns", "ns"),
    ("cluster.transport.frame_rtt_us", "us"),
];

/// The single-thread pipeline and every buffer it reuses.
struct Pipeline {
    query: Query,
    clients: Vec<Client>,
    rng: StdRng,
    now_ms: u64,
    randomizer: Randomizer,
    splitter: XorSplitter,
    // Client side, one slot per message of a batch.
    truth: Vec<BitVec>,
    randomized: Vec<BitVec>,
    messages: Vec<Vec<u8>>,
    randomize: RandomizeScratch,
    split: SplitScratch,
    keys: SlotPool,
    // Broker hop.
    writers: Vec<TopicWriter>,
    pending: Vec<Vec<BatchEntry>>,
    proxies: Vec<Proxy>,
    consumer: Consumer,
    polled: Vec<(u32, u32, Record)>,
    // Aggregator side.
    joiner: MidJoiner,
    joined: Vec<Vec<u8>>,
    decoded: Vec<BitVec>,
    estimator: BucketEstimator,
    /// A whole `Aggregator` on its own consumer group reads the same
    /// records outside any span, so that closing a window — the one
    /// layer with no free function — is timed on real window state.
    shadow: Aggregator,
    closed: Vec<QueryResult>,
}

impl Pipeline {
    fn new(w: &Workload, seed: u64) -> Pipeline {
        let (_, p, q) = workload::PARAMS;
        let query = QueryBuilder::new(QueryId::new(AnalystId(1), 1), workload::SQL)
            .answer(workload::answer_spec(w.buckets))
            .window(workload::WINDOW_MS, workload::WINDOW_MS)
            .sign_and_build(ANALYST_KEY);
        let clients = (0..w.clients)
            .map(|i| {
                let mut client = Client::new(ClientId(i), seed, ANALYST_KEY);
                let db = client.db_mut();
                db.create_table(
                    workload::TABLE,
                    Schema::new(vec![
                        ("ts", ColumnType::Int),
                        (workload::COLUMN, ColumnType::Float),
                    ]),
                );
                db.insert(
                    workload::TABLE,
                    vec![
                        Value::Int(0),
                        Value::Float(workload::column_value(i as usize)),
                    ],
                )
                .expect("row matches the schema above");
                client
            })
            .collect();

        // Bounded topics trim what every group has consumed, as the
        // deployment's do; the shadow aggregator lags one epoch.
        let broker = Broker::new(1);
        let capacity = 2 * w.clients as usize;
        let proxy_ids = || (0..PROXIES).map(ProxyId);
        for id in proxy_ids() {
            broker.create_topic_with_capacity(&inbound_topic(id), 1, capacity);
            broker.create_topic_with_capacity(&outbound_topic(id), 1, capacity);
        }
        let proxies = proxy_ids().map(|id| Proxy::new(id, &broker)).collect();
        let mut shadow = Aggregator::new(&broker, PROXIES as usize, 0.95);
        shadow.register_query(&query, ExecutionParams::checked(1.0, p, q), w.clients);
        let out_topics: Vec<String> = proxy_ids().map(outbound_topic).collect();
        let out_refs: Vec<&str> = out_topics.iter().map(String::as_str).collect();
        Pipeline {
            clients,
            rng: StdRng::seed_from_u64(seed),
            now_ms: 0,
            randomizer: Randomizer::new(p, q),
            splitter: XorSplitter::new(PROXIES as usize),
            truth: vec![BitVec::zeros(w.buckets); BATCH],
            randomized: vec![BitVec::zeros(w.buckets); BATCH],
            messages: vec![Vec::new(); BATCH],
            randomize: RandomizeScratch::new(),
            split: SplitScratch::new(),
            keys: SlotPool::new(),
            writers: proxy_ids()
                .map(|id| broker.writer(&inbound_topic(id)))
                .collect(),
            pending: vec![Vec::with_capacity(BATCH); PROXIES as usize],
            proxies,
            consumer: broker.consumer("layers", &out_refs),
            polled: Vec::new(),
            joiner: MidJoiner::new(PROXIES as usize, workload::WINDOW_MS),
            joined: Vec::with_capacity(BATCH),
            decoded: vec![BitVec::zeros(w.buckets); BATCH],
            estimator: BucketEstimator::new(w.buckets, p, q),
            shadow,
            closed: Vec::new(),
            query,
        }
    }

    /// One epoch: every client answers once. Returns the time spent in
    /// the shadow aggregator's untimed pump, which is no layer's and is
    /// left out of the traced-vs-untraced comparison.
    fn epoch(&mut self, tracer: &mut Tracer) -> Result<Duration, String> {
        let start = self.now_ms.div_ceil(workload::WINDOW_MS) * workload::WINDOW_MS;
        let ts = Timestamp(start + workload::WINDOW_MS / 2);
        let watermark = Timestamp(start + workload::WINDOW_MS);
        self.now_ms = watermark.0;
        let epoch = tracer.open("epoch", None);

        // Lent out for the loop: a batch of clients and the buffers
        // are borrowed side by side.
        let mut clients = std::mem::take(&mut self.clients);
        for batch in clients.chunks_mut(BATCH) {
            self.one_batch(batch, ts, tracer, epoch)?;
        }
        self.clients = clients;

        let pump = Instant::now();
        let seen = self.shadow.pump();
        let pumped = pump.elapsed();
        tracer.span("core.aggregator.close_us", epoch, || {
            self.shadow
                .advance_watermark_into(watermark, &mut self.closed)
        });
        tracer.close(epoch);
        let clients = self.clients.len() as u64;
        if seen != clients || self.closed.len() != 1 || self.closed[0].sample_size != clients {
            return Err(format!(
                "layer pipeline closed {} of {clients} answers",
                seen
            ));
        }
        self.shadow.recycle_results(&mut self.closed);
        Ok(pumped)
    }

    /// Carries one batch of clients' answers through every layer.
    fn one_batch(
        &mut self,
        batch: &mut [Client],
        ts: Timestamp,
        tracer: &mut Tracer,
        epoch: Option<SpanId>,
    ) -> Result<(), String> {
        let n = batch.len();
        let qtag = self.query.id.to_u64();
        tracer.span("sql.answer_ns", epoch, || {
            for (client, truth) in batch.iter_mut().zip(&mut self.truth) {
                client
                    .truthful_answer_into(&self.query, truth)
                    .map_err(|e| e.to_string())?;
            }
            Ok::<(), String>(())
        })?;
        tracer.span("rr.randomize_ns", epoch, || {
            for (truth, out) in self.truth[..n].iter().zip(&mut self.randomized) {
                self.randomizer.randomize_vec_forked(
                    truth,
                    out,
                    &mut self.randomize,
                    &mut self.rng,
                );
            }
        });
        tracer.span("crypto.encode_ns", epoch, || {
            for (answer, message) in self.randomized[..n].iter().zip(&mut self.messages) {
                encode_answer_into(self.query.id, answer, message);
            }
        });
        tracer.span("crypto.split_ns", epoch, || {
            for message in &self.messages[..n] {
                let mid = MessageId(self.rng.gen());
                let shares = self
                    .splitter
                    .split_into(message, mid, &mut self.rng, &mut self.split);
                let mut key = self.keys.acquire(WIRE_KEY_LEN);
                let slot = Arc::get_mut(&mut key).expect("an acquired key slot is unique");
                slot[..8].copy_from_slice(&qtag.to_be_bytes());
                slot[8..].copy_from_slice(&mid.to_bytes());
                for (share, pending) in shares.iter().zip(&mut self.pending) {
                    pending.push((Some(Arc::clone(&key)), Arc::clone(&share.payload), ts));
                }
                self.keys.release(key);
            }
        });
        tracer.span("stream.broker.append_ns", epoch, || {
            for (writer, pending) in self.writers.iter().zip(&mut self.pending) {
                writer.append_batch(0, pending);
            }
        });
        tracer.span("core.proxy.relay_ns", epoch, || {
            for proxy in &mut self.proxies {
                proxy.pump();
            }
        });
        tracer.span("stream.broker.poll_ns", epoch, || {
            self.consumer.poll_into(2048, &mut self.polled);
        });
        tracer.span("stream.join.offer_ns", epoch, || {
            for (source, _, record) in self.polled.drain(..) {
                let key: [u8; WIRE_KEY_LEN] = record
                    .key
                    .as_deref()
                    .and_then(|k| k.try_into().ok())
                    .expect("the key built above");
                let mid = MessageId::from_bytes(key[8..].try_into().expect("16 of 24 bytes"));
                if let JoinOutcome::Complete(message) =
                    self.joiner
                        .offer(qtag, mid, source as usize, &record.value, record.timestamp)
                {
                    self.joined.push(message);
                }
            }
        });
        if self.joined.len() != n {
            return Err(format!(
                "layer pipeline joined {} of {n} messages",
                self.joined.len()
            ));
        }
        tracer.span("crypto.decode_ns", epoch, || {
            for (message, answer) in self.joined.iter().zip(&mut self.decoded) {
                decode_answer_into(message, answer).ok_or("joined message does not decode")?;
            }
            Ok::<(), String>(())
        })?;
        tracer.span("rr.estimate.push_ns", epoch, || {
            for answer in &self.decoded[..n] {
                self.estimator.push(answer);
            }
        });
        for message in self.joined.drain(..) {
            self.joiner.recycle(message);
        }
        Ok(())
    }
}

/// Times the process transport's per-share codec and one framed round
/// trip over loopback TCP: a [`BATCH`]-record data frame out, its
/// cumulative ack back.
fn wire_layers(w: &Workload, tracer: &mut Tracer) -> Result<(), String> {
    let io = |e: std::io::Error| format!("loopback link: {e}");
    let value: Arc<[u8]> = vec![0x5Au8; answer_wire_size(w.buckets)].into();
    let key: Arc<[u8]> = vec![0xA5u8; WIRE_KEY_LEN].into();
    let batch: Vec<DataMsg> = (0..BATCH as u64)
        .map(|i| DataMsg {
            seq: 1 + i,
            stream: 0,
            partition: 0,
            timestamp: workload::WINDOW_MS / 2,
            key: Some(Arc::clone(&key)),
            value: Arc::clone(&value),
        })
        .collect();
    let mut payload = Vec::new();
    let mut decoded = Vec::with_capacity(BATCH);
    for _ in 0..WIRE_ROUNDS {
        payload = tracer.span("cluster.wire.encode_ns", None, || encode_data_batch(&batch));
        decoded.clear();
        tracer
            .span("cluster.wire.decode_ns", None, || {
                decode_data_batch(&payload, &mut decoded)
            })
            .map_err(io)?;
    }
    if decoded != batch {
        return Err("data batch does not survive the wire codec".into());
    }

    let timeout = Duration::from_secs(2);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    std::thread::scope(|scope| {
        // The far end acks every data frame until told to stop (or
        // until the near end hangs up).
        let far = scope.spawn(move || -> std::io::Result<()> {
            let (stream, _) = listener.accept()?;
            let mut link = TcpTransport::from_stream(stream, timeout)?;
            loop {
                match link.recv()? {
                    Some(f) if f.kind == FrameKind::Data => {
                        link.send(&Frame::new(FrameKind::DataAck, encode_ack(1)))?;
                        link.flush()?;
                    }
                    Some(_) => return Ok(()),
                    None => {}
                }
            }
        });
        let near = (|| -> std::io::Result<()> {
            let mut link = TcpTransport::connect(addr, timeout, timeout)?;
            for _ in 0..WIRE_ROUNDS {
                let frame = Frame::new(FrameKind::Data, payload.clone());
                tracer.span("cluster.transport.frame_rtt_us", None, || {
                    link.send(&frame)?;
                    link.flush()?;
                    match link.recv()? {
                        Some(f) if f.kind == FrameKind::DataAck => Ok(()),
                        _ => Err(std::io::Error::other("no ack for a data frame")),
                    }
                })?;
            }
            link.send(&Frame::bare(FrameKind::Shutdown))?;
            link.flush()
        })();
        let far = far.join().expect("the ack thread does not panic");
        near.and(far).map_err(io)
    })
}

/// The layer table of one workload.
pub struct LayerTable {
    /// Every (B) row, zero where the workload never enters the layer.
    pub rows: Vec<Metric>,
    /// `layers.sum_ns`: per-message CPU the rows account for.
    pub sum_ns: f64,
    /// `bench.trace_overhead_frac`.
    pub overhead_frac: f64,
}

/// Runs the pipeline for about `length`, alternating traced and
/// untraced epochs so both see the same host, then reduces the spans
/// to self time per message and writes them to `spans_to`.
pub fn measure(
    w: &Workload,
    seed: u64,
    length: Duration,
    spans_to: &std::path::Path,
) -> Result<LayerTable, String> {
    let mut pipeline = Pipeline::new(w, seed);
    let batches = (w.clients as usize).div_ceil(BATCH);
    let spans_per_epoch = 2 + batches * (PIPELINE_LAYERS.len() - 1);
    let mut tracer = Tracer::with_capacity(MAX_TRACED_EPOCHS * spans_per_epoch + 3 * WIRE_ROUNDS);

    // Warm plans, pools and topic logs outside the comparison.
    tracer.on = false;
    for _ in 0..2 {
        pipeline.epoch(&mut tracer)?;
    }
    let mut wall = [Duration::ZERO; 2];
    let mut epochs = [0usize; 2];
    let start = Instant::now();
    while epochs[1] < 2 || (start.elapsed() < length && epochs[1] < MAX_TRACED_EPOCHS) {
        for traced in [0, 1] {
            tracer.on = traced == 1;
            let t = Instant::now();
            let shadow = pipeline.epoch(&mut tracer)?;
            wall[traced] += t.elapsed().saturating_sub(shadow);
            epochs[traced] += 1;
        }
    }
    tracer.on = true;
    let total_epochs = 2 + epochs[0] + epochs[1];
    if pipeline.estimator.total() != total_epochs as u64 * w.clients {
        return Err("layer pipeline lost answers".into());
    }
    if w.hosting == Hosting::Socket {
        wire_layers(w, &mut tracer)?;
    }

    let self_time = tracer.self_time_ns();
    let self_ns = |name: &str| {
        self_time
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ns)| *ns as f64)
    };
    let messages = (epochs[1] as u64 * w.clients) as f64;
    let mut rows = Vec::new();
    let mut sum_ns = 0.0;
    for (name, unit) in PIPELINE_LAYERS {
        let per_message_ns = self_ns(name) / messages;
        sum_ns += per_message_ns;
        let value = match unit {
            "us" => self_ns(name) / epochs[1] as f64 / 1e3,
            _ => per_message_ns,
        };
        rows.push(Metric { name, value, unit });
    }
    for (name, unit) in WIRE_LAYERS {
        let value = match unit {
            "us" => self_ns(name) / WIRE_ROUNDS as f64 / 1e3,
            _ => self_ns(name) / (WIRE_ROUNDS * BATCH) as f64,
        };
        if unit == "ns" {
            sum_ns += value * SOCKET_HOPS * PROXIES as f64;
        }
        rows.push(Metric { name, value, unit });
    }
    tracer
        .write_json(spans_to, w.name)
        .map_err(|e| format!("{}: {e}", spans_to.display()))?;
    Ok(LayerTable {
        rows,
        sum_ns,
        overhead_frac: wall[1].as_secs_f64() / wall[0].as_secs_f64() - 1.0,
    })
}
