//! Network links: latency + bandwidth delay model.

/// A point-to-point link with fixed latency and finite bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way propagation latency in microseconds.
    pub latency_us: u64,
    /// Bandwidth in bytes per microsecond (1 byte/µs = 1 MB/s).
    pub bytes_per_us: f64,
}

impl Link {
    /// Time to transfer `bytes` starting at `start`: latency plus
    /// serialization delay.
    pub fn transfer(&self, start: u64, bytes: u64) -> u64 {
        assert!(self.bytes_per_us > 0.0, "bandwidth must be positive");
        start + self.latency_us + (bytes as f64 / self.bytes_per_us).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_includes_latency_and_serialization() {
        let link = Link {
            latency_us: 100,
            bytes_per_us: 10.0,
        };
        // 1000 bytes at 10 B/µs = 100 µs + 100 µs latency.
        assert_eq!(link.transfer(0, 1000), 200);
        assert_eq!(link.transfer(50, 1000), 250);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let link = Link {
            latency_us: 100,
            bytes_per_us: 125.0,
        };
        assert_eq!(link.transfer(0, 0), 100);
    }
}
