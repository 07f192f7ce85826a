//! Reservoir sampling (Vitter's Algorithm R).
//!
//! Historical analytics re-samples stored responses at the aggregator
//! "to ensure that the batch analytics computation remains within the
//! query budget" (paper §3.3.1). The warehouse streams past responses
//! through a fixed-capacity reservoir, giving a uniform random subset
//! without knowing the stream length in advance.

use rand::Rng;

/// A fixed-capacity uniform sample over a stream of unknown length.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// Creates a reservoir holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Reservoir<T> {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Offers one stream element to the reservoir.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            // Replace a random slot with probability capacity/seen.
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// Number of elements offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The current sample (at most `capacity` items).
    pub fn sample(&self) -> &[T] {
        &self.items
    }

    /// Capacity of the reservoir.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn short_streams_are_kept_verbatim() {
        let mut r = Reservoir::new(10);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..5 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.sample(), &[0, 1, 2, 3, 4]);
        assert_eq!(r.seen(), 5);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut r = Reservoir::new(16);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..10_000 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.sample().len(), 16);
        assert_eq!(r.seen(), 10_000);
    }

    #[test]
    fn sampling_is_uniform_enough() {
        // Each of 1000 items should land in a 100-slot reservoir with
        // probability 0.1. Run many trials and check per-item hit
        // frequencies.
        let trials = 400;
        let n = 1000;
        let cap = 100;
        let mut hits = vec![0u32; n];
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..trials {
            let mut r = Reservoir::new(cap);
            for i in 0..n {
                r.offer(i, &mut rng);
            }
            for &i in r.sample() {
                hits[i] += 1;
            }
        }
        let expect = trials as f64 * cap as f64 / n as f64; // 40
                                                            // Every item within 6σ of the expectation (σ ≈ 6 here); also
                                                            // check first/middle/last items specifically for position bias.
        let sigma = (expect * (1.0 - cap as f64 / n as f64)).sqrt();
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                (h as f64 - expect).abs() < 6.0 * sigma,
                "item {i} hit {h} times, expected ~{expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _: Reservoir<u8> = Reservoir::new(0);
    }
}
