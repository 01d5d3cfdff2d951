//! A blocked, single-probe Bloom filter in the spirit of the
//! cache-/space-efficient filters of Putze, Sanders & Singler (the paper's
//! footnote 2 recommendation for the approximate extension).
//!
//! Each key maps to exactly one 64-bit block and sets `k` bits *inside that
//! block* (one cache line / one machine word per query — "single shot").
//! Queries touch a single word, making the receiver-side intersection probe
//! O(1) per candidate with a tiny constant.

use crate::{mix64, Amq};

/// A blocked single-probe Bloom filter over `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingleShotBloom {
    blocks: Vec<u64>,
    k: u32,
    inserted: u64,
}

impl SingleShotBloom {
    /// Creates a filter sized for `expected_keys` at roughly `bits_per_key`
    /// bits per key, with `k` bits set per key inside its block.
    pub fn new(expected_keys: usize, bits_per_key: f64, k: u32) -> Self {
        assert!(bits_per_key > 0.0 && (1..=32).contains(&k));
        let num_blocks =
            ((expected_keys.max(1) as f64 * bits_per_key / 64.0).ceil() as usize).max(1);
        SingleShotBloom {
            blocks: vec![0u64; num_blocks],
            k,
            inserted: 0,
        }
    }

    /// Reconstructs from the wire format.
    pub fn from_words(words: &[u64]) -> Self {
        assert!(words.len() >= 2, "malformed single-shot wire format");
        SingleShotBloom {
            k: words[0] as u32,
            inserted: words[1],
            blocks: words[2..].to_vec(),
        }
    }

    /// Number of keys inserted.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// The 64-bit mask a key sets/tests within its block.
    #[inline]
    fn mask_and_block(&self, key: u64) -> (usize, u64) {
        let h = mix64(key);
        let block = (h % self.blocks.len() as u64) as usize;
        // k independently hashed in-block bit positions (correlated slices
        // of one hash would inflate the false-positive rate past the
        // density-based prediction the estimator relies on)
        let mut mask = 0u64;
        for i in 0..self.k as u64 {
            mask |= 1u64 << (mix64(h ^ i.wrapping_mul(0xA24B_AED4_963E_E407)) & 63);
        }
        (block, mask)
    }
}

impl Amq for SingleShotBloom {
    fn insert(&mut self, key: u64) {
        let (b, mask) = self.mask_and_block(key);
        self.blocks[b] |= mask;
        self.inserted += 1;
    }

    fn contains(&self, key: u64) -> bool {
        let (b, mask) = self.mask_and_block(key);
        self.blocks[b] & mask == mask
    }

    /// Estimated from the *per-block* realised bit densities: a foreign key
    /// lands in block `b` uniformly; its mask is covered iff **each of its
    /// `k` independent draws** lands on a set bit (duplicate draws are
    /// covered together), i.e. with probability `ρ_b^k` exactly. The rate is
    /// the mean over blocks; per-block densities matter because block loads
    /// are skewed for small neighborhoods.
    fn false_positive_rate(&self) -> f64 {
        let k = self.k as i32;
        let sum: f64 = self
            .blocks
            .iter()
            .map(|b| (b.count_ones() as f64 / 64.0).powi(k))
            .sum();
        sum / self.blocks.len() as f64
    }

    fn to_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(2 + self.blocks.len());
        out.push(self.k as u64);
        out.push(self.inserted);
        out.extend_from_slice(&self.blocks);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = SingleShotBloom::new(500, 12.0, 4);
        for key in (0..500u64).map(|i| i * 11 + 1) {
            f.insert(key);
        }
        for key in (0..500u64).map(|i| i * 11 + 1) {
            assert!(f.contains(key));
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let n = 2000usize;
        let mut f = SingleShotBloom::new(n, 12.0, 4);
        for key in 0..n as u64 {
            f.insert(key);
        }
        let trials = 20_000u64;
        let fp = (0..trials)
            .map(|i| 5_000_000 + i * 17)
            .filter(|&k| f.contains(k))
            .count() as f64
            / trials as f64;
        let predicted = f.false_positive_rate();
        assert!(fp < 0.1, "measured fp {fp} too high for 12 bits/key");
        assert!(
            (fp - predicted).abs() < 0.05,
            "measured {fp} vs predicted {predicted}"
        );
    }

    #[test]
    fn wire_roundtrip() {
        let mut f = SingleShotBloom::new(64, 10.0, 3);
        for key in 0..64u64 {
            f.insert(key * 5);
        }
        let g = SingleShotBloom::from_words(&f.to_words());
        assert_eq!(f, g);
    }

    #[test]
    fn more_compact_than_standard_bloom_at_same_target() {
        // the point of the single-shot variant: fewer words on the wire for
        // a comparable (small-neighborhood) workload
        let n = 64usize;
        let std_f = crate::BloomFilter::new(n, 16.0);
        let ss = SingleShotBloom::new(n, 12.0, 4);
        assert!(ss.to_words().len() <= std_f.to_words().len());
    }

    #[test]
    fn empty_filter_rejects() {
        let f = SingleShotBloom::new(10, 10.0, 4);
        assert!(!f.contains(99));
        assert_eq!(f.false_positive_rate(), 0.0);
    }
}
