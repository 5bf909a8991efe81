//! Exact LRU stack-distance (reuse-distance) computation.

use spm_sim::FastMap;
use spm_stats::LogHistogram;

/// Fenwick (binary indexed) tree over access-time slots, supporting
/// point update and prefix sum in `O(log n)`. Capacity grows by
/// doubling with an `O(n)` rebuild, amortizing to `O(1)` per append.
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<i64>,
    raw: Vec<i64>,
}

impl Fenwick {
    fn ensure(&mut self, index: usize) {
        if index < self.raw.len() {
            return;
        }
        let cap = (index + 1).next_power_of_two().max(1024);
        self.raw.resize(cap, 0);
        // O(n) Fenwick construction from the raw array.
        self.tree = vec![0; cap + 1];
        for i in 1..=cap {
            self.tree[i] += self.raw[i - 1];
            let parent = i + (i & i.wrapping_neg());
            if parent <= cap {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    fn add(&mut self, i: usize, delta: i64) {
        self.ensure(i);
        self.raw[i] += delta;
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over slots `[0, i]`; slots never written count as zero.
    fn prefix(&self, i: usize) -> i64 {
        let mut i = (i + 1).min(self.tree.len().saturating_sub(1));
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Computes the exact reuse distance of every access: the number of
/// **distinct** cache lines referenced since the previous access to the
/// same line (`None` for the first, cold access).
///
/// Addresses are tracked at line granularity. The classic algorithm:
/// keep each line's last access time, a Fenwick tree marking the times
/// that are the *most recent* access of some line, and count marked
/// times after the line's previous access.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct ReuseTracker {
    line_shift: u32,
    last_access: FastMap<u64, usize>,
    marked: Fenwick,
    time: usize,
    live: usize,
    distances: LogHistogram,
    cold: u64,
}

impl ReuseTracker {
    /// Creates a tracker with the given line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            line_shift: line_bytes.trailing_zeros(),
            last_access: FastMap::default(),
            marked: Fenwick::default(),
            time: 0,
            live: 0,
            distances: LogHistogram::new(),
            cold: 0,
        }
    }

    /// Number of distinct lines seen so far.
    pub fn distinct_lines(&self) -> usize {
        self.live
    }

    /// Total accesses processed.
    pub fn accesses(&self) -> usize {
        self.time
    }

    /// The histogram of observed (warm) reuse distances.
    pub fn distance_histogram(&self) -> &LogHistogram {
        &self.distances
    }

    /// The **miss-ratio curve** of the access stream so far: for each
    /// power-of-two cache capacity (in lines), the miss ratio a
    /// fully-associative LRU cache of that size would have had — the
    /// classic stack-distance result Mattson et al. proved and tools
    /// like the paper's Cheetah simulator exploit: an access with reuse
    /// distance `d` hits iff the cache holds more than `d` lines.
    ///
    /// Returns `(capacity_lines, miss_ratio)` pairs with capacities
    /// `1, 2, 4, ...` up to the first capacity where only cold misses
    /// remain. Resolution is one power of two (the histogram's bucket
    /// granularity), with each bucket's misses attributed
    /// conservatively (a capacity within a bucket counts the whole
    /// bucket as missing).
    pub fn miss_ratio_curve(&self) -> Vec<(u64, f64)> {
        let total = self.time as f64;
        if total == 0.0 {
            return Vec::new();
        }
        let mut curve = Vec::new();
        // misses(capacity 2^k) = cold + warm accesses with distance >= 2^k.
        let mut tail: u64 = self.distances.count();
        let mut bucket = 0usize;
        loop {
            let capacity = 1u64 << bucket;
            // Remove buckets entirely below this capacity: distances in
            // [2^(bucket-1), 2^bucket) fit a cache of 2^bucket lines.
            let misses = self.cold + tail;
            curve.push((capacity, misses as f64 / total));
            if tail == 0 {
                break;
            }
            tail -= self.distances.bucket_count(bucket);
            bucket += 1;
        }
        curve
    }

    /// Processes one access and returns its reuse distance (`None` when
    /// cold).
    pub fn access(&mut self, addr: u64) -> Option<u64> {
        let line = addr >> self.line_shift;
        let now = self.time;
        self.time += 1;
        let distance = match self.last_access.insert(line, now) {
            Some(prev) => {
                // Distinct lines touched strictly after `prev`:
                // marked times in (prev, now).
                let d = self.marked.prefix(now) - self.marked.prefix(prev);
                self.marked.add(prev, -1);
                self.distances.record(d as u64);
                Some(d as u64)
            }
            None => {
                self.live += 1;
                self.cold += 1;
                None
            }
        };
        self.marked.add(now, 1);
        distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive O(n^2) reuse distance for cross-checking.
    fn naive(addrs: &[u64], line: u64) -> Vec<Option<u64>> {
        let lines: Vec<u64> = addrs.iter().map(|a| a / line).collect();
        let mut out = Vec::new();
        for (i, &l) in lines.iter().enumerate() {
            let prev = lines[..i].iter().rposition(|&x| x == l);
            match prev {
                None => out.push(None),
                Some(p) => {
                    let mut seen: Vec<u64> = lines[p + 1..i].to_vec();
                    seen.sort_unstable();
                    seen.dedup();
                    out.push(Some(seen.len() as u64));
                }
            }
        }
        out
    }

    #[test]
    fn sequential_has_unbounded_distance() {
        // A cyclic scan over N lines: after warmup every access has
        // distance N-1.
        let mut t = ReuseTracker::new(64);
        let n = 10u64;
        for round in 0..3 {
            for i in 0..n {
                let d = t.access(i * 64);
                if round > 0 {
                    assert_eq!(d, Some(n - 1));
                }
            }
        }
        assert_eq!(t.distinct_lines(), 10);
        assert_eq!(t.accesses(), 30);
    }

    #[test]
    fn same_line_distance_zero() {
        let mut t = ReuseTracker::new(64);
        t.access(100);
        assert_eq!(t.access(101), Some(0), "same 64B line");
        assert_eq!(t.access(127), Some(0), "line 1 spans bytes 64..128");
    }

    #[test]
    fn stack_behaviour() {
        // a b c b a: distance of final a = 2 (b, c distinct since).
        let mut t = ReuseTracker::new(64);
        let (a, b, c) = (0u64, 64, 128);
        t.access(a);
        t.access(b);
        t.access(c);
        assert_eq!(t.access(b), Some(1));
        assert_eq!(t.access(a), Some(2));
    }

    #[test]
    fn mrc_for_cyclic_scan() {
        // Cyclic scan over 32 lines: warm distances are all 31, so any
        // capacity > 31 lines hits everything except the 32 cold misses,
        // and any capacity <= 31 misses everything.
        let mut t = ReuseTracker::new(64);
        for _ in 0..10 {
            for i in 0..32u64 {
                t.access(i * 64);
            }
        }
        let curve = t.miss_ratio_curve();
        let at = |cap: u64| curve.iter().find(|&&(c, _)| c == cap).map(|&(_, m)| m);
        assert_eq!(at(1), Some(1.0), "{curve:?}");
        assert_eq!(at(16), Some(1.0), "distance 31 misses in 16 lines");
        // Capacity 32: distance-31 accesses hit; only cold misses remain.
        let expect = 32.0 / 320.0;
        assert!((at(32).unwrap() - expect).abs() < 1e-9, "{curve:?}");
        // The curve is non-increasing in capacity.
        assert!(curve.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn mrc_empty_stream() {
        let t = ReuseTracker::new(64);
        assert!(t.miss_ratio_curve().is_empty());
    }

    #[test]
    fn distance_histogram_counts_warm_accesses() {
        let mut t = ReuseTracker::new(64);
        t.access(0);
        t.access(64);
        t.access(0);
        assert_eq!(t.distance_histogram().count(), 1);
    }

    proptest! {
        #[test]
        fn matches_naive(addrs in proptest::collection::vec(0u64..4096, 1..300)) {
            let mut t = ReuseTracker::new(64);
            let fast: Vec<Option<u64>> = addrs.iter().map(|&a| t.access(a)).collect();
            prop_assert_eq!(fast, naive(&addrs, 64));
        }

        #[test]
        fn mrc_is_monotone_and_bounded(
            addrs in proptest::collection::vec(0u64..1 << 14, 1..400)
        ) {
            let mut t = ReuseTracker::new(64);
            for &a in &addrs {
                t.access(a);
            }
            let curve = t.miss_ratio_curve();
            prop_assert!(!curve.is_empty());
            prop_assert!(curve.windows(2).all(|w| w[0].1 >= w[1].1), "{curve:?}");
            for &(_, m) in &curve {
                prop_assert!((0.0..=1.0).contains(&m));
            }
            // The largest capacity leaves only cold misses.
            let last = curve.last().unwrap().1;
            prop_assert!((last - t.distinct_lines() as f64 / addrs.len() as f64).abs() < 1e-9);
        }

        #[test]
        fn distance_bounded_by_distinct_lines(
            addrs in proptest::collection::vec(0u64..1 << 16, 1..500)
        ) {
            let mut t = ReuseTracker::new(64);
            for &a in &addrs {
                if let Some(d) = t.access(a) {
                    prop_assert!((d as usize) < t.distinct_lines());
                }
            }
        }
    }
}
