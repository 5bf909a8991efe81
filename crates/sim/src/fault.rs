//! Deterministic fault injection for trace streams and trace files.
//!
//! Robustness claims need adversarial inputs. This module produces
//! them reproducibly, at the two levels corruption happens in practice:
//!
//! * [`FaultObserver`] wraps any [`TraceObserver`] and perturbs the
//!   *event stream* on its way in — dropping `Return` events (a crashed
//!   instrumentation layer) or duplicating `LoopIter` events (a
//!   double-firing probe). This is how profilers' shadow stacks get
//!   unbalanced.
//! * [`TraceCorruptor`] damages *recorded bytes* — truncating a trace
//!   file mid-stream or flipping bits — the way files get damaged on
//!   disk or in transit.
//!
//! Everything is seed-driven: the same seed produces the same faults,
//! so a failing injection test is replayable. The generator is a
//! self-contained splitmix64, keeping fault placement independent of
//! the engine's RNG streams.

use crate::events::{TraceEvent, TraceObserver};

/// Minimal deterministic generator for fault placement.
///
/// Public so other fault layers (e.g. `spm-store`'s failpoint I/O)
/// place their faults with the same replayable generator instead of
/// growing private near-copies.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator whose whole sequence derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Which event-stream fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Drop roughly one in `one_in` `Return` events (dropped returns
    /// leave procedure frames open — the classic unbalanced stack).
    DropReturns {
        /// Average gap between dropped returns; `1` drops every one.
        one_in: u32,
    },
    /// Deliver roughly one in `one_in` `LoopIter` events twice (a loop
    /// back-edge probe firing twice).
    DuplicateLoopIters {
        /// Average gap between duplicated iterations.
        one_in: u32,
    },
    /// Drop roughly one in `one_in` `LoopExit` events (the loop frame
    /// is never closed).
    DropLoopExits {
        /// Average gap between dropped exits.
        one_in: u32,
    },
}

/// Trace observer that forwards a deterministically perturbed event
/// stream to an inner observer.
///
/// It keeps the default [`TraceObserver::reads`] (every kind) whatever
/// its inner observer reads, so the inner observer sees the perturbed
/// full stream and a fault's position is an index into it.
///
/// # Examples
///
/// Feeding a profiler a stream with dropped returns must yield a typed
/// error, not a panic — see `tests/fault_injection.rs` for the full
/// matrix.
#[derive(Debug)]
pub struct FaultObserver<'a, T: TraceObserver> {
    inner: &'a mut T,
    kind: FaultKind,
    rng: SplitMix64,
    injected: u64,
}

impl<'a, T: TraceObserver> FaultObserver<'a, T> {
    /// Wraps `inner`, injecting `kind` faults placed by `seed`.
    pub fn new(inner: &'a mut T, kind: FaultKind, seed: u64) -> Self {
        Self {
            inner,
            kind,
            rng: SplitMix64(seed),
            injected: 0,
        }
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    fn hit(&mut self, one_in: u32) -> bool {
        self.rng.below(u64::from(one_in.max(1))) == 0
    }

    fn step(&mut self, icount: u64, event: &TraceEvent) {
        match (self.kind, event) {
            (FaultKind::DropReturns { one_in }, TraceEvent::Return { .. }) if self.hit(one_in) => {
                self.injected += 1; // swallowed
            }
            (FaultKind::DropLoopExits { one_in }, TraceEvent::LoopExit { .. })
                if self.hit(one_in) =>
            {
                self.injected += 1; // swallowed
            }
            (FaultKind::DuplicateLoopIters { one_in }, TraceEvent::LoopIter { .. })
                if self.hit(one_in) =>
            {
                self.injected += 1;
                self.inner.on_event(icount, event); // extra delivery
                self.inner.on_event(icount, event);
            }
            _ => self.inner.on_event(icount, event),
        }
    }
}

impl<T: TraceObserver> TraceObserver for FaultObserver<'_, T> {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.step(*icount, event);
        }
    }
}

/// Deterministic byte-level damage for recorded trace files.
#[derive(Debug, Clone)]
pub struct TraceCorruptor {
    seed: u64,
}

impl TraceCorruptor {
    /// Creates a corruptor whose damage placement derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Truncates the trace at a seed-chosen point strictly inside the
    /// byte range `keep_min..bytes.len()` (pass the header length as
    /// `keep_min` to cut inside the payload).
    pub fn truncate(&self, bytes: &[u8], keep_min: usize) -> Vec<u8> {
        let mut rng = SplitMix64(self.seed ^ 0x7472_756e); // "trun"
        let keep_min = keep_min.min(bytes.len());
        let span = bytes.len() - keep_min;
        let cut = keep_min + rng.below(span.max(1) as u64) as usize;
        bytes[..cut].to_vec()
    }

    /// Flips `flips` seed-chosen bits at byte offsets `from..` (pass
    /// the header length to corrupt only the payload).
    pub fn bit_flip(&self, bytes: &[u8], from: usize, flips: usize) -> Vec<u8> {
        let mut rng = SplitMix64(self.seed ^ 0x666c_6970); // "flip"
        let mut out = bytes.to_vec();
        let from = from.min(out.len());
        let span = out.len() - from;
        if span == 0 {
            return out;
        }
        for _ in 0..flips {
            let at = from + rng.below(span as u64) as usize;
            let bit = rng.below(8) as u8;
            out[at] ^= 1 << bit;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::record::{decode_event, encode_event};
    use spm_ir::{Input, ProgramBuilder, Trip};

    #[derive(Default)]
    struct Counter {
        returns: u64,
        iters: u64,
        exits: u64,
        total: u64,
    }

    impl TraceObserver for Counter {
        fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
            for (_, event) in batch {
                self.total += 1;
                match event {
                    TraceEvent::Return { .. } => self.returns += 1,
                    TraceEvent::LoopIter { .. } => self.iters += 1,
                    TraceEvent::LoopExit { .. } => self.exits += 1,
                    _ => {}
                }
            }
        }
    }

    fn program() -> spm_ir::Program {
        let mut b = ProgramBuilder::new("t");
        b.proc("main", |p| {
            p.loop_(Trip::Fixed(50), |body| {
                body.block(10).done();
                body.call("f");
            });
        });
        b.proc("f", |p| p.block(5).done());
        b.build("main").unwrap()
    }

    fn clean_run() -> Counter {
        let mut counter = Counter::default();
        run(&program(), &Input::new("x", 1), &mut [&mut counter]).unwrap();
        counter
    }

    fn run_with_fault(kind: FaultKind, seed: u64) -> (Counter, u64) {
        let mut counter = Counter::default();
        let mut faulty = FaultObserver::new(&mut counter, kind, seed);
        run(&program(), &Input::new("x", 1), &mut [&mut faulty]).unwrap();
        let injected = faulty.injected();
        (counter, injected)
    }

    #[test]
    fn drop_returns_removes_events() {
        let clean = clean_run();
        let (faulty, injected) = run_with_fault(FaultKind::DropReturns { one_in: 2 }, 1);
        assert!(injected > 0);
        assert_eq!(faulty.returns, clean.returns - injected);
    }

    #[test]
    fn duplicate_loop_iters_adds_events() {
        let clean = clean_run();
        let (faulty, injected) = run_with_fault(FaultKind::DuplicateLoopIters { one_in: 3 }, 5);
        assert!(injected > 0);
        assert_eq!(faulty.iters, clean.iters + injected);
    }

    #[test]
    fn drop_loop_exits_removes_events() {
        let clean = clean_run();
        let (faulty, injected) = run_with_fault(FaultKind::DropLoopExits { one_in: 1 }, 9);
        assert!(injected > 0);
        assert_eq!(faulty.exits, clean.exits - injected);
    }

    #[test]
    fn same_seed_same_faults() {
        let (a, ia) = run_with_fault(FaultKind::DropReturns { one_in: 4 }, 42);
        let (b, ib) = run_with_fault(FaultKind::DropReturns { one_in: 4 }, 42);
        assert_eq!(ia, ib);
        assert_eq!(a.total, b.total);
    }

    #[test]
    fn batched_and_per_event_delivery_inject_the_same_faults() {
        let mut tape: Vec<(u64, TraceEvent)> = Vec::new();
        run(&program(), &Input::new("x", 1), &mut [&mut tape]).unwrap();
        for kind in [
            FaultKind::DropReturns { one_in: 3 },
            FaultKind::DuplicateLoopIters { one_in: 3 },
            FaultKind::DropLoopExits { one_in: 1 },
        ] {
            let mut batched: Vec<(u64, TraceEvent)> = Vec::new();
            let mut faulty = FaultObserver::new(&mut batched, kind, 11);
            faulty.on_batch(&tape);
            let batched_injected = faulty.injected();

            let mut single: Vec<(u64, TraceEvent)> = Vec::new();
            let mut faulty = FaultObserver::new(&mut single, kind, 11);
            for (icount, event) in &tape {
                faulty.on_event(*icount, event);
            }
            assert!(batched_injected > 0, "{kind:?} injected nothing");
            assert_eq!(batched_injected, faulty.injected(), "{kind:?}");
            assert_eq!(batched, single, "{kind:?}");
        }
    }

    /// The program's event stream as raw codec bytes.
    fn recorded_trace() -> Vec<u8> {
        let mut tape: Vec<(u64, TraceEvent)> = Vec::new();
        run(&program(), &Input::new("x", 1), &mut [&mut tape]).unwrap();
        let mut bytes = Vec::new();
        let mut last = 0;
        for (icount, event) in &tape {
            encode_event(&mut bytes, icount - last, event);
            last = *icount;
        }
        bytes
    }

    /// Events decoded before the first error (or the end).
    fn decodable_events(bytes: &[u8]) -> usize {
        let mut pos = 0;
        let mut n = 0;
        while pos < bytes.len() && decode_event(bytes, &mut pos).is_ok() {
            n += 1;
        }
        n
    }

    #[test]
    fn corruptor_is_deterministic_and_damages_the_stream() {
        let trace = recorded_trace();
        let total = decodable_events(&trace);
        let c = TraceCorruptor::new(7);
        let cut_a = c.truncate(&trace, 1);
        let cut_b = c.truncate(&trace, 1);
        assert_eq!(cut_a, cut_b, "same seed, same cut");
        assert!(cut_a.len() < trace.len());
        assert!(
            decodable_events(&cut_a) < total,
            "truncation must lose events"
        );

        let flipped = c.bit_flip(&trace, 1, 3);
        assert_eq!(flipped.len(), trace.len());
        assert_ne!(flipped, trace);
        assert_eq!(flipped, c.bit_flip(&trace, 1, 3), "same seed, same flips");
        // Decoding damaged bytes is total: it stops or continues, but
        // never panics.
        decodable_events(&flipped);
    }
}
