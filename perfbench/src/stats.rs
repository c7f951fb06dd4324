//! Order statistics over latency samples, and the FNV digest the output
//! checks compare.

/// Samples below this many nanoseconds are counted in a dense table.
const DENSE: usize = 1 << 16;

/// Nanosecond samples, kept exactly: values below 65.5 µs are counted in
/// a dense 1-ns table, larger ones stored as they are. Millions of
/// microsecond-scale ops then cost the table's 256 KiB, so the
/// benchmark's own sample buffer does not show up in `peak_rss_mb`.
#[derive(Default)]
pub struct Samples {
    dense: Vec<u32>,
    sparse: Vec<u64>,
    len: usize,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.len += 1;
        match usize::try_from(ns) {
            Ok(v) if v < DENSE => {
                if self.dense.is_empty() {
                    self.dense = vec![0; DENSE];
                }
                self.dense[v] += 1;
            }
            _ => self.sparse.push(ns),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// The `k`-th smallest sample (0-based); `sparse` must be sorted.
    fn nth(&self, k: usize) -> u64 {
        let mut seen = 0;
        for (v, &c) in self.dense.iter().enumerate() {
            seen += c as usize;
            if seen > k {
                return v as u64;
            }
        }
        self.sparse[k - seen]
    }

    /// Median (mean of the two middle samples for an even count); 0 for
    /// no samples.
    pub fn median(&mut self) -> f64 {
        self.sparse.sort_unstable();
        let n = self.len;
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.nth(n / 2) as f64,
            _ => (self.nth(n / 2 - 1) as f64 + self.nth(n / 2) as f64) / 2.0,
        }
    }

    /// The sample a quarter of the way up (the `n/4`-th smallest); 0 for
    /// no samples.
    pub fn lower_quartile(&mut self) -> f64 {
        self.sparse.sort_unstable();
        match self.len {
            0 => 0.0,
            n => self.nth(n / 4) as f64,
        }
    }

    /// The highest percentile with at least ten samples beyond it, capped
    /// at p99.995 and never taken below the median. Returns `(value,
    /// percentile)`; with ten or fewer samples it is the maximum at
    /// percentile 100.
    ///
    /// The cap matters only past 2·10⁵ samples, i.e. for microsecond ops.
    /// Host scheduling stalls of several milliseconds hit about one such
    /// op in 10⁵, a number that varies from run to run; keeping one
    /// sample in 20 000 beyond the tail keeps it on the program's own
    /// slow ops rather than on the host's.
    pub fn tail(&mut self) -> (f64, f64) {
        self.sparse.sort_unstable();
        let n = self.len;
        if n == 0 {
            return (0.0, 0.0);
        }
        if n <= 10 {
            return (self.nth(n - 1) as f64, 100.0);
        }
        let beyond = (n / 20_000).max(10);
        let rank = (n - 1 - beyond).max(n / 2);
        (self.nth(rank) as f64, 100.0 * (rank + 1) as f64 / n as f64)
    }
}

impl FromIterator<u64> for Samples {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut s = Samples::default();
        for v in iter {
            s.push(v);
        }
        s
    }
}

/// 64-bit FNV-1a, fed incrementally.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of an interference count vector.
pub fn digest_u32(counts: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for &c in counts {
        h.bytes(&c.to_le_bytes());
    }
    h.finish()
}

/// SplitMix64 step: derives well-spread per-op seeds from the run seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let mut s: Samples = (1..=100).map(|v| v * 1000).collect();
        assert_eq!(s.tail(), (90_000.0, 90.0));
        assert_eq!(s.median(), 50_500.0);
        // Too few samples for a percentile above the median.
        let mut s: Samples = (1..=15).collect();
        assert_eq!(s.tail().0, 8.0);
        let mut s: Samples = (1..=16).collect();
        assert!(s.tail().0 >= s.median());
        let mut s: Samples = [3, 5].into_iter().collect();
        assert_eq!(s.tail(), (5.0, 100.0));
        // Past 2·10⁵ samples the tail stays at p99.995.
        let mut s: Samples = (1..=1_000_000).collect();
        assert_eq!(s.tail(), (999_950.0, 99.995));
    }

    #[test]
    fn dense_and_sparse_samples_order_together() {
        let mut s: Samples = [70_000, 5, 65_535, 65_536, 5].into_iter().collect();
        assert_eq!(s.len(), 5);
        assert_eq!(s.median(), 65_535.0);
        let mut s: Samples = [100_000, 1, 2, 200_000].into_iter().collect();
        assert_eq!(s.median(), 50_001.0);
        assert_eq!(Samples::default().median(), 0.0);
        let mut s: Samples = [9, 1, 7, 3, 5, 100_000, 8, 2].into_iter().collect();
        assert_eq!(s.lower_quartile(), 3.0);
        assert_eq!(Samples::default().lower_quartile(), 0.0);
    }
}
