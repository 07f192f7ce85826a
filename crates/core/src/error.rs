//! Errors surfaced by the PrivApprox system layer.

use privapprox_sql::SqlError;
use privapprox_stream::broker::BrokerError;
use privapprox_types::budget::ParamError;

/// System-level failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The client's local SQL execution failed.
    Sql(SqlError),
    /// Execution parameters were out of range.
    Params(ParamError),
    /// The query's signature did not verify at the client.
    BadSignature,
    /// A query referenced an unknown query id.
    UnknownQuery,
    /// The answer column could not be bucketized (no matching bucket).
    Unbucketizable(String),
    /// The budget cannot be met (e.g. latency target below the
    /// per-answer floor even at the minimum sampling fraction).
    InfeasibleBudget(String),
    /// A deployment runtime fault (thread death, backpressure
    /// deadline, failed respawn); see [`DeployError`].
    Deploy(DeployError),
}

/// Faults of the threaded deployment runtime
/// ([`ShardedSystem`](crate::ShardedSystem)): these are *reported*
/// conditions, not hangs — the supervisor catches thread panics,
/// converts stalled backpressure into typed errors, and (by default)
/// respawns dead threads so the pipeline keeps producing degraded but
/// unbiased results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The builder was given an impossible configuration.
    InvalidConfig(String),
    /// A client worker thread panicked; its clients' answers are
    /// missing from the affected epochs (a sampling loss, not a
    /// corruption).
    WorkerPanic {
        /// Worker index.
        worker: usize,
        /// The captured panic payload.
        message: String,
    },
    /// An aggregator shard thread panicked; decodes it held for open
    /// windows are lost and the affected epochs close partially.
    ShardPanic {
        /// Shard index.
        shard: usize,
        /// The captured panic payload.
        message: String,
    },
    /// A proxy bridge thread (process transport) panicked; shares on
    /// its proxy's topic sit until it is respawned.
    ProxyPanic {
        /// Proxy index.
        proxy: usize,
        /// The captured panic payload.
        message: String,
    },
    /// A bounded broker partition stayed full past the backpressure
    /// deadline (mirrors
    /// [`BrokerError::Backpressure`](privapprox_stream::broker::BrokerError)).
    Backpressure {
        /// Topic whose partition stayed full.
        topic: String,
        /// The full partition.
        partition: usize,
    },
    /// A dead thread could not be respawned (respawn disabled, or the
    /// replacement died immediately).
    RespawnFailed {
        /// Thread role: `"worker"`, `"proxy"` or `"shard"`.
        role: &'static str,
        /// Thread index within its role.
        index: usize,
    },
    /// The durable store failed: a journal/snapshot I/O error, or
    /// corruption detected by the store's CRC framing. Carried as a
    /// rendered [`StoreError`](privapprox_store::StoreError) — the
    /// typed detail (corruption kind, offset, path) is preserved in
    /// the text.
    Persist {
        /// The rendered store error.
        detail: String,
    },
}

impl From<SqlError> for CoreError {
    fn from(e: SqlError) -> CoreError {
        CoreError::Sql(e)
    }
}

impl From<ParamError> for CoreError {
    fn from(e: ParamError) -> CoreError {
        CoreError::Params(e)
    }
}

impl From<DeployError> for CoreError {
    fn from(e: DeployError) -> CoreError {
        CoreError::Deploy(e)
    }
}

impl From<BrokerError> for DeployError {
    fn from(e: BrokerError) -> DeployError {
        match e {
            BrokerError::Backpressure {
                topic, partition, ..
            } => DeployError::Backpressure { topic, partition },
        }
    }
}

impl From<BrokerError> for CoreError {
    fn from(e: BrokerError) -> CoreError {
        CoreError::Deploy(e.into())
    }
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::Sql(e) => write!(f, "client SQL error: {e}"),
            CoreError::Params(e) => write!(f, "parameter error: {e}"),
            CoreError::BadSignature => write!(f, "query signature verification failed"),
            CoreError::UnknownQuery => write!(f, "unknown query id"),
            CoreError::Unbucketizable(v) => write!(f, "value '{v}' matches no answer bucket"),
            CoreError::InfeasibleBudget(m) => write!(f, "infeasible budget: {m}"),
            CoreError::Deploy(e) => write!(f, "deployment fault: {e}"),
        }
    }
}

impl core::fmt::Display for DeployError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeployError::InvalidConfig(m) => write!(f, "invalid deployment config: {m}"),
            DeployError::WorkerPanic { worker, message } => {
                write!(f, "worker thread {worker} panicked: {message}")
            }
            DeployError::ShardPanic { shard, message } => {
                write!(f, "shard thread {shard} panicked: {message}")
            }
            DeployError::ProxyPanic { proxy, message } => {
                write!(f, "proxy bridge {proxy} panicked: {message}")
            }
            DeployError::Backpressure { topic, partition } => write!(
                f,
                "backpressure deadline on partition {partition} of topic {topic:?}"
            ),
            DeployError::RespawnFailed { role, index } => {
                write!(f, "could not respawn dead {role} thread {index}")
            }
            DeployError::Persist { detail } => write!(f, "durable store fault: {detail}"),
        }
    }
}

impl std::error::Error for CoreError {}
impl std::error::Error for DeployError {}
