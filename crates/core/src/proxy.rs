//! The PrivApprox proxy: a forward-only relay (paper §3.2.3).
//!
//! "In PRIVAPPROX, the processing at proxies contains only the answer
//! transmission" — that single sentence is the system's performance
//! story (Figure 6). A proxy consumes the shares clients addressed to
//! it and republishes them on its aggregator-facing topic. It never
//! inspects payloads (they are XOR pads or encrypted answers —
//! indistinguishable), never synchronizes with other proxies, and
//! keeps no per-client state: source rewriting means the records it
//! sees carry no client identity at all.
//!
//! [`System`](crate::System) runs this relay between two topics. In a
//! [`ShardedSystem`](crate::ShardedSystem) a proxy is its inbound
//! topic: shards subscribe to it, so a share is appended once.

use privapprox_stream::broker::{Broker, BrokerError, Consumer, Record, TopicWriter};
use privapprox_stream::EventCount;
use privapprox_types::ProxyId;
use std::sync::Arc;

/// Naming convention for the client→proxy topic.
pub fn inbound_topic(id: ProxyId) -> String {
    format!("proxy-{}-in", id.0)
}

/// Naming convention for the proxy→aggregator topic.
pub fn outbound_topic(id: ProxyId) -> String {
    format!("proxy-{}-out", id.0)
}

/// A forwarding proxy bound to one broker.
pub struct Proxy {
    id: ProxyId,
    consumer: Consumer,
    writer: TopicWriter,
    /// Reused poll batch: the forward loop allocates nothing per
    /// record (poll clones are refcounts, the writer's topic handle
    /// is cached, and consumers are woken once per batch).
    batch: Vec<(u32, u32, Record)>,
    /// Shares forwarded over the proxy's lifetime.
    forwarded: u64,
}

impl Proxy {
    /// Creates proxy `id` on the broker, subscribing to its inbound
    /// topic. The outbound topic is created with the **same partition
    /// count** as the inbound one, because forwarding is
    /// partition-preserving (see [`Proxy::pump`]).
    pub fn new(id: ProxyId, broker: &Broker) -> Proxy {
        let in_topic = inbound_topic(id);
        let out_topic = outbound_topic(id);
        broker.create_topic(&out_topic, broker.partitions(&in_topic));
        Proxy {
            id,
            consumer: broker.consumer(&format!("proxy-{}", id.0), &[&in_topic]),
            writer: broker.writer(&out_topic),
            batch: Vec::new(),
            forwarded: 0,
        }
    }

    /// The proxy id.
    pub fn id(&self) -> ProxyId {
        self.id
    }

    /// Drains pending inbound shares and forwards them unchanged.
    /// Returns the number forwarded in this pump.
    ///
    /// Forwarding is **partition-preserving**: a share polled from
    /// inbound partition `p` is republished on outbound partition `p`,
    /// so the client → partition affinity a sharded aggregator relies
    /// on survives the proxy hop (all of one client's shares stay in
    /// one partition index across every proxy's output). Key, value
    /// (by refcount) and timestamp pass through untouched.
    pub fn pump(&mut self) -> u64 {
        self.try_pump().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Proxy::pump`] reporting a backpressure deadline on the
    /// outbound topic as a typed error instead of panicking. Shares
    /// already polled but not yet re-published stay in the batch
    /// buffer, so a later pump retries them — nothing is dropped. What
    /// the pump did publish before the stall stays counted in
    /// [`Proxy::forwarded`].
    pub fn try_pump(&mut self) -> Result<u64, BrokerError> {
        let mut n = 0;
        loop {
            n += self.try_forward()?;
            if self.consumer.poll_into(1024, &mut self.batch) == 0 {
                break;
            }
        }
        Ok(n)
    }

    /// The event count the proxy's consumer is woken through: a share
    /// on the inbound topic, or a control wake. A proxy thread reads a
    /// token from it, pumps, and parks on the token when the pump
    /// forwarded nothing.
    pub fn wake(&self) -> &Arc<EventCount> {
        self.consumer.wake()
    }

    /// Forwards the pending poll batch partition-for-partition: key
    /// and value pass through by refcount, and consumers are woken
    /// once at the end of the batch. On a backpressure error the
    /// unforwarded tail (including the failing record) is retained
    /// for retry, and left out of the count.
    fn try_forward(&mut self) -> Result<u64, BrokerError> {
        let mut sent = 0usize;
        let mut fault = None;
        for (_, partition, record) in &self.batch {
            match self.writer.try_append_quiet(
                *partition as usize,
                record.key.clone(),
                record.value.clone(),
                record.timestamp,
            ) {
                Ok(_) => sent += 1,
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            }
        }
        if sent > 0 {
            self.batch.drain(..sent);
            self.writer.notify();
        }
        self.forwarded += sent as u64;
        match fault {
            None => Ok(sent as u64),
            Some(e) => Err(e),
        }
    }

    /// Total shares forwarded over the proxy's lifetime.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privapprox_types::Timestamp;
    use std::time::Duration;

    /// Appends one record, stamped 777, to `topic`'s `partition` and
    /// wakes its consumers.
    fn put(broker: &Broker, topic: &str, partition: usize, key: Option<&[u8]>, value: &[u8]) {
        let w = broker.writer(topic);
        (w.try_append_quiet(partition, key.map(Arc::from), value, Timestamp(777))).unwrap();
        w.notify();
    }

    /// Everything `group` can read of `topic`.
    fn read_all(broker: &Broker, group: &str, topic: &str) -> Vec<(u32, u32, Record)> {
        let mut out = Vec::new();
        broker.consumer(group, &[topic]).poll_into(1000, &mut out);
        out
    }

    #[test]
    fn topics_are_stable() {
        assert_eq!(inbound_topic(ProxyId(0)), "proxy-0-in");
        assert_eq!(outbound_topic(ProxyId(3)), "proxy-3-out");
    }

    #[test]
    fn pump_forwards_everything_in_order() {
        let broker = Broker::new(1);
        for i in 0..5u8 {
            put(&broker, "proxy-0-in", 0, None, &[i]);
        }
        let mut proxy = Proxy::new(ProxyId(0), &broker);
        assert_eq!(proxy.pump(), 5);
        assert_eq!(proxy.forwarded(), 5);

        let got = read_all(&broker, "agg", "proxy-0-out");
        let values: Vec<u8> = got.iter().map(|(_, _, r)| r.value[0]).collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn payloads_and_timestamps_pass_through_unchanged() {
        let broker = Broker::new(1);
        put(&broker, "proxy-1-in", 0, Some(b"mid"), b"opaque-share");
        let mut proxy = Proxy::new(ProxyId(1), &broker);
        proxy.pump();
        let got = read_all(&broker, "agg", "proxy-1-out");
        assert_eq!(&*got[0].2.value, b"opaque-share");
        assert_eq!(got[0].2.key.as_deref(), Some(&b"mid"[..]));
        assert_eq!(got[0].2.timestamp, Timestamp(777));
    }

    #[test]
    fn proxies_are_independent() {
        // Shares sent to proxy 0 never appear on proxy 1's output —
        // the unlinkability path separation.
        let broker = Broker::new(1);
        put(&broker, "proxy-0-in", 0, None, b"for-0");
        let mut p0 = Proxy::new(ProxyId(0), &broker);
        let mut p1 = Proxy::new(ProxyId(1), &broker);
        assert_eq!(p0.pump(), 1);
        assert_eq!(p1.pump(), 0);
        assert_eq!(broker.topic_len("proxy-1-out"), 0);
    }

    #[test]
    fn forwarding_preserves_partitions() {
        let broker = Broker::new(4);
        for p in 0..4usize {
            put(&broker, "proxy-0-in", p, None, &[p as u8]);
        }
        let mut proxy = Proxy::new(ProxyId(0), &broker);
        assert_eq!(proxy.pump(), 4);
        let mut got: Vec<(u32, u8)> = (read_all(&broker, "agg", "proxy-0-out").iter())
            .map(|(_, p, r)| (*p, r.value[0]))
            .collect();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![(0, 0), (1, 1), (2, 2), (3, 3)],
            "share polled from partition p must be re-published on partition p"
        );
    }

    /// A proxy thread's loop: a token from [`Proxy::wake`], a pump, and
    /// a park on the token when nothing moved. The park times out on an
    /// empty inbound topic and ends as soon as a share lands.
    #[test]
    fn parked_proxy_wakes_on_data_and_times_out_empty() {
        let broker = Broker::new(1);
        let mut proxy = Proxy::new(ProxyId(0), &broker);
        let token = proxy.wake().token();
        assert_eq!(proxy.pump(), 0);
        assert!(!proxy.wake().park(token, Duration::from_millis(20)));
        let token = proxy.wake().token();
        let t = std::thread::spawn({
            let broker = broker.clone();
            move || {
                std::thread::sleep(Duration::from_millis(20));
                put(&broker, "proxy-0-in", 0, None, b"wake");
            }
        });
        let started = std::time::Instant::now();
        assert!(proxy.wake().park(token, Duration::from_secs(5)));
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "woken, not timed out"
        );
        t.join().unwrap();
        assert_eq!(proxy.pump(), 1, "the pump forwards the record that woke it");
        assert_eq!(broker.topic_len("proxy-0-out"), 1);
    }

    /// A pump that stalls on a full outbound topic keeps the count of
    /// every batch it published before the stall, not just the
    /// stalled batch's part, and does not count the unpublished tail.
    #[test]
    fn a_stall_loses_no_forwarded_count() {
        let broker = Broker::new(1);
        broker.create_topic_with_capacity("proxy-0-out", 1, 1_500);
        broker.set_backpressure_deadline(Duration::from_millis(10));
        // Live, so the capacity binds; it never polls.
        let _stuck = broker.consumer("agg", &["proxy-0-out"]);
        for i in 0..2_048u32 {
            put(&broker, "proxy-0-in", 0, None, &i.to_le_bytes());
        }
        let mut proxy = Proxy::new(ProxyId(0), &broker);
        assert!(proxy.try_pump().is_err(), "the outbound topic is full");
        assert_eq!(broker.topic_len("proxy-0-out"), 1_500);
        assert_eq!(proxy.forwarded(), 1_500);
    }

    #[test]
    fn repeated_pumps_do_not_duplicate() {
        let broker = Broker::new(1);
        put(&broker, "proxy-0-in", 0, None, b"x");
        let mut proxy = Proxy::new(ProxyId(0), &broker);
        assert_eq!(proxy.pump(), 1);
        assert_eq!(proxy.pump(), 0);
        assert_eq!(broker.topic_len("proxy-0-out"), 1);
    }
}
