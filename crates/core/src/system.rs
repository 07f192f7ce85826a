//! An in-process PrivApprox deployment.
//!
//! [`System`] wires clients, proxies (≥ 2), the broker, the
//! aggregator, the initializer and the historical warehouse into one
//! harness with deterministic, epoch-at-a-time execution — the shape
//! every example, integration test and benchmark in this repository
//! drives. The dataflow per epoch is exactly the paper's Figure 3:
//! clients sample/answer/randomize/split; shares travel through the
//! per-proxy broker topics; proxies forward; the aggregator joins,
//! decodes, windows and estimates.

use crate::aggregator::{Aggregator, QueryResult};
use crate::client::{Client, ClientScratch};
use crate::error::CoreError;
use crate::historical::Warehouse;
use crate::initializer::Initializer;
use crate::proxy::{inbound_topic, Proxy};
use privapprox_crypto::xor::wire_key;
use privapprox_sql::{ColumnType, Schema, Value};
use privapprox_stream::broker::{Broker, BrokerStats, Producer};
use privapprox_types::ids::AnalystId;
use privapprox_types::{
    AnswerSpec, Budget, ClientId, ExecutionParams, ProxyId, Query, QueryBuilder, QueryId, Timestamp,
};
use std::collections::HashMap;

/// Static configuration of an in-process deployment.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of client devices.
    pub clients: u64,
    /// Number of proxies (≥ 2).
    pub proxies: u16,
    /// Master seed for all client RNGs.
    pub seed: u64,
    /// Confidence level for reported intervals.
    pub confidence: f64,
    /// The analyst's signing key (shared with clients for
    /// verification).
    pub analyst_key: u64,
    /// Whether decoded answers are also stored for historical
    /// analytics (§3.3.1).
    pub enable_warehouse: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            clients: 100,
            proxies: 2,
            seed: 0,
            confidence: 0.95,
            analyst_key: 0x5EED_0000_CAFE,
            enable_warehouse: false,
        }
    }
}

/// Builder for [`System`].
#[derive(Debug, Clone, Default)]
pub struct SystemBuilder {
    config: SystemConfig,
}

impl SystemBuilder {
    /// Sets the client population size.
    pub fn clients(mut self, n: u64) -> Self {
        self.config.clients = n;
        self
    }

    /// Sets the number of proxies (≥ 2).
    pub fn proxies(mut self, n: u16) -> Self {
        self.config.proxies = n;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the reporting confidence level.
    pub fn confidence(mut self, c: f64) -> Self {
        self.config.confidence = c;
        self
    }

    /// Enables the historical warehouse.
    pub fn warehouse(mut self, enable: bool) -> Self {
        self.config.enable_warehouse = enable;
        self
    }

    /// Builds the deployment.
    ///
    /// # Panics
    ///
    /// Panics on a zero-client population or fewer than two proxies.
    pub fn build(self) -> System {
        let c = self.config;
        assert!(c.clients > 0, "population must be positive");
        assert!(c.proxies >= 2, "PrivApprox requires at least two proxies");
        let broker = Broker::new(1);
        let proxies: Vec<Proxy> = (0..c.proxies)
            .map(|i| Proxy::new(ProxyId(i), &broker))
            .collect();
        let aggregator = Aggregator::new(&broker, c.proxies as usize, c.confidence);
        let clients = (0..c.clients)
            .map(|i| Client::new(ClientId(i), c.seed, c.analyst_key))
            .collect();
        let producer = broker.producer();
        System {
            config: c,
            broker,
            producer,
            clients,
            proxies,
            aggregator,
            queries: HashMap::new(),
            warehouses: HashMap::new(),
            initializer: Initializer::new(),
            now_ms: 0,
            next_serial: 1,
            pending: Vec::new(),
            scratch: ClientScratch::new(),
        }
    }
}

/// An in-process PrivApprox deployment.
pub struct System {
    config: SystemConfig,
    broker: Broker,
    producer: Producer,
    clients: Vec<Client>,
    proxies: Vec<Proxy>,
    aggregator: Aggregator,
    queries: HashMap<QueryId, (Query, ExecutionParams)>,
    warehouses: HashMap<QueryId, Warehouse>,
    initializer: Initializer,
    /// The shared event clock: every query's answers and watermarks
    /// advance along one timeline, mirroring real wall-clock epochs.
    now_ms: u64,
    next_serial: u32,
    /// Closed windows not yet returned by `run_epoch`.
    pending: Vec<QueryResult>,
    /// Reused buffers for every client's randomize → encode → split
    /// stages (each send copies the share once into the broker's
    /// shared immutable buffer, so one scratch serves the whole
    /// population). Sharing is safe for determinism because the
    /// randomize stage re-forks the scratch's bulk generator from
    /// each answer's own RNG per call
    /// (`Randomizer::randomize_vec_forked`), so every client's answer
    /// is a pure function of its seed, the query and the epoch — which
    /// is also why `ShardedSystem`, with one scratch per worker thread,
    /// produces byte-identical results.
    scratch: ClientScratch,
}

impl System {
    /// Starts building a deployment.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Replaces the initializer (e.g. to set a privacy ceiling).
    pub fn set_initializer(&mut self, init: Initializer) {
        self.initializer = init;
    }

    /// Populates every client with a one-row table holding a numeric
    /// column: client `i` gets value `f(i)`. Creates the table as
    /// `(ts INT, <column> FLOAT)` with `ts = 0`.
    pub fn load_numeric_column<F: Fn(usize) -> f64>(&mut self, table: &str, column: &str, f: F) {
        for (i, client) in self.clients.iter_mut().enumerate() {
            let db = client.db_mut();
            db.create_table(
                table,
                Schema::new(vec![("ts", ColumnType::Int), (column, ColumnType::Float)]),
            );
            db.insert(table, vec![Value::Int(0), Value::Float(f(i))])
                .expect("schema arity");
        }
    }

    /// Populates every client with arbitrary rows: `f(i)` returns the
    /// rows for client `i` under the given schema.
    pub fn load_rows<F: Fn(usize) -> Vec<Vec<Value>>>(
        &mut self,
        table: &str,
        schema: Schema,
        f: F,
    ) {
        for (i, client) in self.clients.iter_mut().enumerate() {
            let db = client.db_mut();
            db.create_table(table, schema.clone());
            for row in f(i) {
                db.insert(table, row).expect("schema arity");
            }
        }
    }

    /// Opens an analyst session for query submission.
    pub fn analyst(&mut self) -> AnalystSession<'_> {
        AnalystSession {
            system: self,
            sql: String::new(),
            buckets: None,
            budget: Budget::default_accuracy(),
            window: None,
            explicit_params: None,
        }
    }

    /// The execution parameters currently assigned to a query.
    pub fn params(&self, id: QueryId) -> Option<ExecutionParams> {
        self.queries.get(&id).map(|(_, p)| *p)
    }

    /// Overrides a query's execution parameters (used by the feedback
    /// loop and parameter-sweep benchmarks).
    pub fn set_params(&mut self, id: QueryId, params: ExecutionParams) -> Result<(), CoreError> {
        let (query, slot) = match self.queries.get_mut(&id) {
            Some((q, p)) => (q.clone(), p),
            None => return Err(CoreError::UnknownQuery),
        };
        *slot = params;
        self.aggregator
            .register_query(&query, params, self.config.clients);
        Ok(())
    }

    /// Runs one epoch of a query: every client flips its coin,
    /// participants answer, shares flow through the proxies, and the
    /// epoch's window is closed and estimated.
    ///
    /// Returns the epoch's windowed result.
    pub fn run_epoch(&mut self, query: &Query) -> Result<QueryResult, CoreError> {
        let (_, params) = self
            .queries
            .get(&query.id)
            .copied_params(query.id)
            .ok_or(CoreError::UnknownQuery)?;
        let window_size = query.window.size;
        // Align the epoch to this query's window grid on the shared
        // event clock, so the emitted window is exactly one epoch.
        let epoch_start = self.now_ms.div_ceil(window_size) * window_size;
        let ts = Timestamp(epoch_start + window_size / 2);
        let watermark = Timestamp(epoch_start + window_size);
        self.now_ms = watermark.0;

        // Clients answer and transmit shares to their proxies.
        let n_proxies = self.config.proxies as usize;
        for client in &mut self.clients {
            if let Some(shares) =
                client.answer_query_into(query, &params, ts, n_proxies, &mut self.scratch)?
            {
                for (pi, share) in shares.iter().enumerate() {
                    // One copy of the share into a shared immutable
                    // buffer; every downstream hop (proxy poll,
                    // forward, aggregator poll) shares it by refcount.
                    self.producer.send(
                        &inbound_topic(ProxyId(pi as u16)),
                        Some(wire_key(query.id, share.mid).to_vec()),
                        &share.payload[..],
                        ts,
                    );
                }
            }
        }
        // Proxies forward; the aggregator joins/decodes/windows.
        for proxy in &mut self.proxies {
            proxy.pump();
        }
        let warehouses = &mut self.warehouses;
        self.aggregator.pump_with(|qid, ts, mid, answer| {
            if let Some(w) = warehouses.get_mut(&qid) {
                w.append(ts, mid, answer.clone());
            }
        });
        // Close the epoch's window (appends into the pending buffer
        // without allocating once the aggregator's pools are warm).
        self.aggregator
            .advance_watermark_into(watermark, &mut self.pending);
        // Return the newest result for this query.
        let idx = self
            .pending
            .iter()
            .rposition(|r| r.query == query.id)
            .ok_or(CoreError::UnknownQuery)?;
        Ok(self.pending.remove(idx))
    }

    /// Drains any additional closed windows (sliding-window queries
    /// emit several per epoch).
    pub fn drain_results(&mut self) -> Vec<QueryResult> {
        std::mem::take(&mut self.pending)
    }

    /// Broker traffic counters (Figure 9a).
    pub fn broker_stats(&self) -> BrokerStats {
        self.broker.stats()
    }

    /// The historical warehouse for a query, when enabled.
    pub fn warehouse(&self, id: QueryId) -> Option<&Warehouse> {
        self.warehouses.get(&id)
    }

    /// Aggregator health counters: `(undecodable, unroutable,
    /// duplicates, expired_joins)`.
    pub fn aggregator_health(&self) -> (u64, u64, u64, u64) {
        (
            self.aggregator.undecodable(),
            self.aggregator.unroutable(),
            self.aggregator.duplicates(),
            self.aggregator.expired_joins(),
        )
    }
}

/// Small helper trait so `run_epoch` can copy params out of the map
/// without fighting the borrow checker.
trait CopiedParams {
    fn copied_params(&self, id: QueryId) -> Option<(QueryId, ExecutionParams)>;
}

impl CopiedParams for Option<&(Query, ExecutionParams)> {
    fn copied_params(&self, id: QueryId) -> Option<(QueryId, ExecutionParams)> {
        self.map(|(_, p)| (id, *p))
    }
}

/// A fluent analyst session: SQL → buckets → budget → submit.
pub struct AnalystSession<'a> {
    system: &'a mut System,
    sql: String,
    buckets: Option<AnswerSpec>,
    budget: Budget,
    window: Option<(u64, u64)>,
    explicit_params: Option<ExecutionParams>,
}

impl<'a> AnalystSession<'a> {
    /// Sets the SQL text.
    pub fn query(mut self, sql: impl Into<String>) -> Self {
        self.sql = sql.into();
        self
    }

    /// Sets the answer format `A[n]`.
    pub fn buckets(mut self, spec: AnswerSpec) -> Self {
        self.buckets = Some(spec);
        self
    }

    /// Sets the execution budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets sliding-window parameters `(w, δ)` in milliseconds.
    pub fn window(mut self, size: u64, slide: u64) -> Self {
        self.window = Some((size, slide));
        self
    }

    /// Bypasses the initializer with explicit `(s, p, q)` — used by
    /// the parameter-sweep experiments.
    pub fn params(mut self, params: ExecutionParams) -> Self {
        self.explicit_params = Some(params);
        self
    }

    /// Signs, registers and distributes the query; returns it.
    pub fn submit(self) -> Result<Query, CoreError> {
        let spec = self.buckets.ok_or_else(|| {
            CoreError::InfeasibleBudget("query needs an answer bucket spec".into())
        })?;
        let (w, d) = self.window.unwrap_or((60_000, 60_000));
        let sys = self.system;
        let id = QueryId::new(AnalystId(1), sys.next_serial);
        sys.next_serial += 1;
        let query = QueryBuilder::new(id, self.sql)
            .answer(spec)
            .window(w, d)
            .sign_and_build(sys.config.analyst_key);
        let params = match self.explicit_params {
            Some(p) => p,
            None => sys.initializer.derive(&self.budget, sys.config.clients)?,
        };
        sys.aggregator
            .register_query(&query, params, sys.config.clients);
        if sys.config.enable_warehouse {
            sys.warehouses.insert(
                id,
                Warehouse::new(id, query.answer.len(), params, sys.config.clients),
            );
        }
        sys.queries.insert(id, (query.clone(), params));
        Ok(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed_spec() -> AnswerSpec {
        AnswerSpec::ranges_with_overflow(0.0, 110.0, 11)
    }

    #[test]
    fn end_to_end_exact_mode() {
        let mut system = System::builder().clients(200).proxies(2).seed(1).build();
        system.load_numeric_column("vehicle", "speed", |i| (i % 110) as f64);
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 200);
        assert_eq!(result.population, 200);
        // 200 clients, speeds i % 110: speeds 0–89 appear twice,
        // 90–109 once → buckets 0–8 hold 20, buckets 9–10 hold 10.
        let total: f64 = result.buckets.iter().map(|b| b.estimate).sum();
        assert_eq!(total, 200.0);
        for b in 0..9 {
            assert_eq!(result.buckets[b].estimate, 20.0, "bucket {b}");
        }
        assert_eq!(result.buckets[9].estimate, 10.0);
        assert_eq!(result.buckets[10].estimate, 10.0);
        assert_eq!(result.buckets[11].estimate, 0.0);
        let (undec, unrout, dup, expired) = system.aggregator_health();
        assert_eq!((undec, unrout, dup, expired), (0, 0, 0, 0));
    }

    #[test]
    fn end_to_end_private_mode_estimates() {
        let mut system = System::builder().clients(3_000).proxies(2).seed(2).build();
        // Bimodal speeds: 60 % at 15 mph, 40 % at 55 mph.
        system.load_numeric_column("vehicle", "speed", |i| if i % 10 < 6 { 15.0 } else { 55.0 });
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(0.9, 0.9, 0.6))
            .submit()
            .unwrap();
        let result = system.run_epoch(&query).unwrap();
        // Bucket 1 = [10,20): truth 1800; bucket 5 = [50,60): 1200.
        let b1 = result.buckets[1].estimate;
        let b5 = result.buckets[5].estimate;
        assert!((b1 - 1_800.0).abs() < 250.0, "bucket1 {b1}");
        assert!((b5 - 1_200.0).abs() < 250.0, "bucket5 {b5}");
        assert!(result.buckets[1].ci.contains(1_800.0));
        assert!(result.privacy.eps_zk.is_finite());
        assert!(result.sample_size < 3_000, "sampling really happened");
    }

    #[test]
    fn budget_driven_submission_derives_params() {
        let mut system = System::builder().clients(10_000).proxies(2).seed(3).build();
        system.load_numeric_column("vehicle", "speed", |i| (i % 100) as f64);
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .budget(Budget::Resources {
                max_answers_per_window: 2_500,
            })
            .submit()
            .unwrap();
        let params = system.params(query.id).unwrap();
        assert!((params.s - 0.25).abs() < 1e-9, "s = {}", params.s);
        let result = system.run_epoch(&query).unwrap();
        assert!(
            (result.sample_size as f64 - 2_500.0).abs() < 200.0,
            "sample {}",
            result.sample_size
        );
    }

    #[test]
    fn epochs_advance_windows() {
        let mut system = System::builder().clients(50).proxies(2).seed(4).build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0);
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        let r1 = system.run_epoch(&query).unwrap();
        let r2 = system.run_epoch(&query).unwrap();
        assert!(r2.window.start > r1.window.start);
        assert_eq!(r1.sample_size, 50);
        assert_eq!(r2.sample_size, 50);
    }

    #[test]
    fn warehouse_accumulates_when_enabled() {
        let mut system = System::builder()
            .clients(100)
            .proxies(2)
            .seed(5)
            .warehouse(true)
            .build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0);
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 0.9, 0.6))
            .submit()
            .unwrap();
        system.run_epoch(&query).unwrap();
        system.run_epoch(&query).unwrap();
        let w = system.warehouse(query.id).expect("warehouse enabled");
        assert_eq!(w.len(), 200, "two epochs of 100 answers");
    }

    #[test]
    fn three_proxy_deployments_work() {
        let mut system = System::builder().clients(100).proxies(3).seed(6).build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0);
        let query = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .buckets(speed_spec())
            .params(ExecutionParams::checked(1.0, 1.0, 0.5))
            .submit()
            .unwrap();
        let result = system.run_epoch(&query).unwrap();
        assert_eq!(result.sample_size, 100);
        assert_eq!(result.buckets[1].estimate, 100.0);
    }

    #[test]
    fn traffic_shrinks_with_sampling() {
        let run = |s: f64| {
            let mut system = System::builder().clients(2_000).proxies(2).seed(7).build();
            system.load_numeric_column("vehicle", "speed", |_| 15.0);
            let query = system
                .analyst()
                .query("SELECT speed FROM vehicle")
                .buckets(speed_spec())
                .params(ExecutionParams::checked(s, 0.9, 0.6))
                .submit()
                .unwrap();
            system.run_epoch(&query).unwrap();
            system.broker_stats().bytes_in
        };
        let full = run(1.0);
        let sampled = run(0.6);
        let ratio = full as f64 / sampled as f64;
        // The paper's Figure 9a: s = 0.6 cuts traffic by ≈1.6×.
        assert!((ratio - 1.0 / 0.6).abs() < 0.15, "traffic ratio {ratio}");
    }

    #[test]
    fn unknown_query_is_rejected() {
        let mut system = System::builder().clients(10).proxies(2).seed(8).build();
        system.load_numeric_column("vehicle", "speed", |_| 15.0);
        let foreign =
            QueryBuilder::new(QueryId::new(AnalystId(1), 999), "SELECT speed FROM vehicle")
                .answer(speed_spec())
                .sign_and_build(system.config().analyst_key);
        assert_eq!(
            system.run_epoch(&foreign).unwrap_err(),
            CoreError::UnknownQuery
        );
    }

    #[test]
    fn submit_without_buckets_fails() {
        let mut system = System::builder().clients(10).proxies(2).seed(9).build();
        let err = system
            .analyst()
            .query("SELECT speed FROM vehicle")
            .submit()
            .unwrap_err();
        assert!(matches!(err, CoreError::InfeasibleBudget(_)));
    }
}
