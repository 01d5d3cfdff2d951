//! The textbook Bloom filter: `m` bits, `k` independent hash functions.

use crate::{mix64, Amq};

/// A standard Bloom filter over `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    k: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Creates a filter with `bits_per_key · expected_keys` bits and the
    /// optimal hash count `k = ln 2 · bits_per_key` (at least 1).
    pub fn new(expected_keys: usize, bits_per_key: f64) -> Self {
        assert!(bits_per_key > 0.0);
        let num_bits = ((expected_keys.max(1) as f64 * bits_per_key).ceil() as u64).max(64);
        let k = ((bits_per_key * std::f64::consts::LN_2).round() as u32).max(1);
        Self::with_geometry(num_bits, k)
    }

    /// Creates a filter with explicit geometry.
    pub fn with_geometry(num_bits: u64, k: u32) -> Self {
        let words = num_bits.div_ceil(64) as usize;
        BloomFilter {
            bits: vec![0u64; words],
            num_bits: words as u64 * 64,
            k,
            inserted: 0,
        }
    }

    /// Reconstructs a filter from its wire format (see [`Amq::to_words`]).
    pub fn from_words(words: &[u64]) -> Self {
        assert!(words.len() >= 2, "malformed bloom wire format");
        let k = words[0] as u32;
        let inserted = words[1];
        let bits: Vec<u64> = words[2..].to_vec();
        BloomFilter {
            num_bits: bits.len() as u64 * 64,
            bits,
            k,
            inserted,
        }
    }

    /// Number of keys inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    #[inline]
    fn bit_index(&self, key: u64, i: u32) -> u64 {
        // k independent hashes per key. Double hashing (h1 + i·h2) would be
        // cheaper but its arithmetic-progression probe sets measurably
        // exceed the ideal false-positive rate at the tiny filter sizes the
        // approximate global phase ships, which would bias the truthful
        // estimator.
        mix64(key ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)) % self.num_bits
    }

    #[inline]
    fn set_bit(&mut self, idx: u64) {
        self.bits[(idx / 64) as usize] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn get_bit(&self, idx: u64) -> bool {
        self.bits[(idx / 64) as usize] & (1u64 << (idx % 64)) != 0
    }
}

impl Amq for BloomFilter {
    fn insert(&mut self, key: u64) {
        for i in 0..self.k {
            let idx = self.bit_index(key, i);
            self.set_bit(idx);
        }
        self.inserted += 1;
    }

    fn contains(&self, key: u64) -> bool {
        (0..self.k).all(|i| self.get_bit(self.bit_index(key, i)))
    }

    /// `ρ^k` with `ρ` the *realised* fraction of set bits. Using the
    /// measured density instead of the textbook `(1 − e^{−kn/m})^k`
    /// self-calibrates for in-filter hash collisions, which matters for the
    /// truthful estimator's bias at the small filter sizes shipped per
    /// neighborhood.
    fn false_positive_rate(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        let rho = set as f64 / self.num_bits as f64;
        rho.powf(self.k as f64)
    }

    fn to_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(2 + self.bits.len());
        out.push(self.k as u64);
        out.push(self.inserted);
        out.extend_from_slice(&self.bits);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1000, 8.0);
        for key in (0..1000u64).map(|i| i * 7 + 3) {
            f.insert(key);
        }
        for key in (0..1000u64).map(|i| i * 7 + 3) {
            assert!(f.contains(key));
        }
    }

    #[test]
    fn false_positive_rate_near_prediction() {
        let n = 2000usize;
        let mut f = BloomFilter::new(n, 10.0);
        for key in 0..n as u64 {
            f.insert(key);
        }
        let trials = 20_000u64;
        let fp = (0..trials)
            .map(|i| 1_000_000 + i * 13)
            .filter(|&k| f.contains(k))
            .count() as f64
            / trials as f64;
        let predicted = f.false_positive_rate();
        assert!(predicted < 0.02, "10 bits/key should give <2%: {predicted}");
        assert!(
            (fp - predicted).abs() < 0.01,
            "measured {fp} vs predicted {predicted}"
        );
    }

    #[test]
    fn wire_roundtrip() {
        let mut f = BloomFilter::new(100, 8.0);
        for key in 0..100u64 {
            f.insert(key * 3);
        }
        let words = f.to_words();
        let g = BloomFilter::from_words(&words);
        assert_eq!(f, g);
        for key in 0..100u64 {
            assert!(g.contains(key * 3));
        }
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::new(10, 8.0);
        assert!(!f.contains(42));
        assert_eq!(f.false_positive_rate(), 0.0);
    }

    #[test]
    fn tiny_geometry_saturates_gracefully() {
        let mut f = BloomFilter::with_geometry(64, 2);
        for key in 0..1000u64 {
            f.insert(key);
        }
        assert!(f.false_positive_rate() > 0.9);
        assert!(f.contains(123)); // saturated → everything positive
    }
}
