//! Accumulating one interval's basic block vector.

use spm_ir::BlockId;

/// Accumulates block execution counts for the current interval and
/// produces instruction-weighted, normalized vectors.
///
/// The builder is reused across intervals: [`take`](Self::take) returns
/// the finished vector and resets the counts (only touched entries are
/// cleared, so per-interval cost is proportional to the code the
/// interval actually executed).
#[derive(Debug, Clone)]
pub struct BbvBuilder {
    sizes: Vec<u32>,
    counts: Vec<u64>,
    touched: Vec<u32>,
    instrs: u64,
}

impl BbvBuilder {
    /// Creates a builder over `dims` static blocks (a program's block
    /// count, or an `spmstk01` footer's `block_dims`). Block sizes are
    /// learned from the `instrs` carried by each event (see
    /// [`note_block`](Self::note_block)), so no program is needed;
    /// blocks beyond `dims` grow the vector.
    pub fn new(dims: usize) -> Self {
        Self {
            sizes: vec![0; dims],
            counts: vec![0; dims],
            touched: Vec::new(),
            instrs: 0,
        }
    }

    /// Number of dimensions (static blocks).
    pub fn dims(&self) -> usize {
        self.sizes.len()
    }

    /// Instructions accumulated in the current interval.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Records one execution of `block`, `instrs` instructions long.
    /// Out-of-range blocks grow the dimension space instead of
    /// panicking (callers comparing vectors should pad earlier ones to
    /// the final [`dims`](Self::dims)).
    pub fn note_block(&mut self, block: BlockId, instrs: u32) {
        let idx = block.index();
        if idx >= self.sizes.len() {
            self.sizes.resize(idx + 1, 0);
            self.counts.resize(idx + 1, 0);
        }
        self.sizes[idx] = instrs;
        if self.counts[idx] == 0 {
            self.touched.push(block.0);
        }
        self.counts[idx] += 1;
        self.instrs += u64::from(instrs);
    }

    /// Finishes the current interval: returns the instruction-weighted
    /// vector normalized to sum 1 (an all-zero vector for an empty
    /// interval) and resets the builder.
    pub fn take(&mut self) -> Vec<f64> {
        let mut v = vec![0.0; self.sizes.len()];
        let total = self.instrs as f64;
        for &b in &self.touched {
            let idx = b as usize;
            v[idx] = self.counts[idx] as f64 * f64::from(self.sizes[idx]);
            if total > 0.0 {
                v[idx] /= total;
            }
            self.counts[idx] = 0;
        }
        self.touched.clear();
        self.instrs = 0;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn weighting_and_normalization() {
        let mut b = BbvBuilder::new(3);
        b.note_block(BlockId(0), 10);
        b.note_block(BlockId(2), 5);
        b.note_block(BlockId(2), 5);
        // weights: 10, 0, 10 -> normalized 0.5, 0, 0.5
        assert_eq!(b.take(), vec![0.5, 0.0, 0.5]);
    }

    #[test]
    fn take_resets() {
        let mut b = BbvBuilder::new(1);
        b.note_block(BlockId(0), 10);
        let _ = b.take();
        assert_eq!(b.instrs(), 0);
        assert_eq!(b.take(), vec![0.0], "empty interval is all zero");
    }

    proptest! {
        #[test]
        fn vectors_sum_to_one_or_zero(
            blocks in proptest::collection::vec(0usize..8, 0..100)
        ) {
            let sizes = [3u32, 5, 7, 11, 13, 17, 19, 23];
            let mut b = BbvBuilder::new(sizes.len());
            for &blk in &blocks {
                b.note_block(BlockId(blk as u32), sizes[blk]);
            }
            let v = b.take();
            let sum: f64 = v.iter().sum();
            if blocks.is_empty() {
                prop_assert_eq!(sum, 0.0);
            } else {
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
            prop_assert!(v.iter().all(|&x| x >= 0.0));
        }

        #[test]
        fn reuse_is_equivalent_to_fresh(
            first in proptest::collection::vec(0usize..4, 1..50),
            second in proptest::collection::vec(0usize..4, 1..50),
        ) {
            let sizes = [2u32, 3, 5, 7];
            let mut reused = BbvBuilder::new(sizes.len());
            for &b in &first {
                reused.note_block(BlockId(b as u32), sizes[b]);
            }
            let _ = reused.take();
            for &b in &second {
                reused.note_block(BlockId(b as u32), sizes[b]);
            }
            let from_reused = reused.take();

            let mut fresh = BbvBuilder::new(sizes.len());
            for &b in &second {
                fresh.note_block(BlockId(b as u32), sizes[b]);
            }
            prop_assert_eq!(from_reused, fresh.take());
        }
    }
}
