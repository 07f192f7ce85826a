//! Stream-processing substrate: the Kafka + Flink stand-in.
//!
//! PrivApprox's proxies are "implemented … based on Apache Kafka" as
//! plain pub/sub relays over two topics (`key` and `answer`), and its
//! aggregator runs on Apache Flink using exactly three streaming
//! features: a keyed two-stream join (by message id), sliding-window
//! assignment, and windowed aggregation (paper §5). This crate
//! implements those pieces natively:
//!
//! * [`broker`] — an in-process, thread-safe topic/partition/offset
//!   log with producers, consumer groups, blocking polls, and byte
//!   accounting (the Figure 9a traffic numbers come from here);
//! * [`wake`] — the event count every broker park sleeps on (no
//!   lost wakeups, so no timed re-checks);
//! * [`join`] — the MID-keyed share joiner with timeout eviction and
//!   duplicate-defence;
//! * [`window`] — event-time sliding-window folding with watermarks
//!   and allowed lateness;
//! * [`dataflow`] — small thread-per-operator pipeline helpers over
//!   crossbeam channels.

pub mod broker;
pub mod dataflow;
pub mod join;
pub mod wake;
pub mod window;

pub use broker::{
    BatchEntry, Broker, BrokerError, BrokerStats, Consumer, Producer, Record, TopicWriter,
};
pub use join::{JoinOutcome, MidJoiner};
pub use wake::EventCount;
pub use window::WindowedFold;
