//! The trace event stream and the observer interface.

use spm_ir::{BlockId, BranchId, LoopId, ProcId};

/// One event in the execution trace.
///
/// Events are delivered in program order together with the instruction
/// count *after* the event (see [`TraceObserver::on_batch`]). Only
/// [`BlockExec`](TraceEvent::BlockExec) advances the instruction count;
/// control constructs (calls, loops, branches) are instantaneous, so the
/// instruction totals seen by every analysis agree exactly with the sum
/// of basic-block sizes — the same accounting the paper's BBVs use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A basic block executed.
    BlockExec {
        /// The block.
        block: BlockId,
        /// Its instruction count.
        instrs: u32,
        /// Its base CPI (for the timing model).
        base_cpi: f64,
    },
    /// One data access issued by the current block.
    MemAccess {
        /// Byte address.
        addr: u64,
        /// Whether the access is a write.
        write: bool,
    },
    /// A conditional branch resolved.
    Branch {
        /// The branch.
        branch: BranchId,
        /// Whether it was taken.
        taken: bool,
    },
    /// A procedure was called (event fires before its body runs).
    Call {
        /// The callee.
        proc: ProcId,
    },
    /// A procedure returned.
    Return {
        /// The procedure returning.
        proc: ProcId,
    },
    /// A loop was entered (before the first iteration, if any).
    LoopEnter {
        /// The loop.
        loop_id: LoopId,
    },
    /// One loop iteration is about to run (fires once per iteration,
    /// including the first — the "loop back edge" view of the paper).
    LoopIter {
        /// The loop.
        loop_id: LoopId,
    },
    /// The loop exited.
    LoopExit {
        /// The loop.
        loop_id: LoopId,
    },
    /// Execution finished; always the last event.
    Finish,
}

/// A set of data event kinds: [`BlockExec`](TraceEvent::BlockExec),
/// [`MemAccess`](TraceEvent::MemAccess) and
/// [`Branch`](TraceEvent::Branch). Call-loop events (`Call`, `Return`,
/// `Loop*`) and `Finish` are in no set: every producer delivers them.
///
/// An observer names the kinds it reads through
/// [`TraceObserver::reads`]; [`run`](crate::run) builds only the union
/// of its observers' sets.
///
/// # Examples
///
/// ```
/// use spm_ir::{BlockId, ProcId};
/// use spm_sim::{Reads, TraceEvent};
///
/// let block = TraceEvent::BlockExec { block: BlockId(0), instrs: 4, base_cpi: 1.0 };
/// assert!(Reads::BLOCKS.admits(&block));
/// assert!(!Reads::MEM.admits(&block));
/// assert!(Reads::NONE.admits(&TraceEvent::Call { proc: ProcId(1) }));
/// assert_eq!(Reads::BLOCKS | Reads::MEM | Reads::BRANCHES, Reads::ALL);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reads(u8);

impl Reads {
    /// No data events: the call-loop subsequence of the stream.
    pub const NONE: Reads = Reads(0);
    /// [`BlockExec`](TraceEvent::BlockExec).
    pub const BLOCKS: Reads = Reads(1);
    /// [`MemAccess`](TraceEvent::MemAccess).
    pub const MEM: Reads = Reads(1 << 1);
    /// [`Branch`](TraceEvent::Branch).
    pub const BRANCHES: Reads = Reads(1 << 2);
    /// Every kind: the full stream.
    pub const ALL: Reads = Reads(0b111);

    /// The kind of `event` as a set: one kind for a data event, empty
    /// for a call-loop event or `Finish`.
    #[inline]
    pub fn of(event: &TraceEvent) -> Reads {
        match event {
            TraceEvent::BlockExec { .. } => Reads::BLOCKS,
            TraceEvent::MemAccess { .. } => Reads::MEM,
            TraceEvent::Branch { .. } => Reads::BRANCHES,
            _ => Reads::NONE,
        }
    }

    /// Whether every kind in `other` is in `self`.
    #[inline]
    pub const fn contains(self, other: Reads) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether a producer filtering to `self` hands `event` over.
    #[inline]
    pub fn admits(self, event: &TraceEvent) -> bool {
        self.contains(Reads::of(event))
    }
}

impl std::ops::BitOr for Reads {
    type Output = Reads;

    fn bitor(self, other: Reads) -> Reads {
        Reads(self.0 | other.0)
    }
}

/// Consumes the trace stream of one execution.
///
/// Implementations are the reproduction's equivalent of ATOM analysis
/// routines; several observers are driven from a single pass. Every
/// producer — the engine ([`run`](crate::run)), `spm-store` replay and
/// the serve analyzer — delivers the stream as consecutive batches, so
/// [`on_batch`](TraceObserver::on_batch) is the one method an observer
/// implements.
pub trait TraceObserver {
    /// Delivers a run of consecutive events, each paired with `icount`
    /// = total instructions executed up to and including that event.
    ///
    /// Batch boundaries carry no meaning: producers cut the stream
    /// wherever their buffers fill (an engine arena, a store block), so
    /// an observer must end in the same state however the stream is
    /// split. Implementations iterate the slice with static dispatch —
    /// one virtual call per batch, not per event.
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]);

    /// Delivers one event: a one-element [`on_batch`]. Kept for callers
    /// that hold events one at a time (unit tests, wrappers forwarding
    /// a perturbed stream); observers do not implement it.
    ///
    /// [`on_batch`]: TraceObserver::on_batch
    fn on_event(&mut self, icount: u64, event: &TraceEvent) {
        self.on_batch(std::slice::from_ref(&(icount, *event)));
    }

    /// The data event kinds this observer reads. The default,
    /// [`Reads::ALL`], asks for the full stream.
    ///
    /// [`run`](crate::run) asks every observer once and builds only the
    /// union of their sets; every observer of the run is handed that
    /// union, so one that reads more than another gets the other the
    /// kinds it reads too. Call-loop events and `Finish` are always
    /// delivered, with the icounts of the full stream. Every block,
    /// access and branch still executes, so the [`RunSummary`] is the
    /// same whatever is read. Other producers (store replay, serve)
    /// deliver the full stream, so an observer must still accept every
    /// kind.
    ///
    /// Wrappers keep the default rather than forward their inner
    /// observer's set: a wrapper that counts or perturbs events by
    /// position (`FaultObserver`) needs positions in the full stream.
    ///
    /// [`RunSummary`]: crate::RunSummary
    fn reads(&self) -> Reads {
        Reads::ALL
    }

    /// Before a batch, a producer that filters the stream reports how
    /// many events of the full stream it did not hand over since the
    /// previous batch: those between that batch's last event and this
    /// batch's last event. The default ignores the count; an observer
    /// that counts the full stream (`CallLoopProfiler::events`) adds
    /// it. A producer that withholds nothing never calls it.
    fn withheld(&mut self, _events: u64) {}
}

/// Blanket implementation so plain closures can observe traces in tests
/// and examples: the closure sees the stream one event at a time.
impl<F: FnMut(u64, &TraceEvent)> TraceObserver for F {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self(*icount, event);
        }
    }
}

/// A plain vector is a recording observer: it keeps every delivered
/// `(icount, event)` pair in order, the one event collector tests,
/// benches, and stream re-encoders share.
impl TraceObserver for Vec<(u64, TraceEvent)> {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        self.extend_from_slice(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_record_single_and_batched_events() {
        let mut tape: Vec<(u64, TraceEvent)> = Vec::new();
        tape.on_event(1, &TraceEvent::Call { proc: ProcId(2) });
        tape.on_batch(&[
            (4, TraceEvent::Return { proc: ProcId(2) }),
            (4, TraceEvent::Finish),
        ]);
        assert_eq!(
            tape,
            vec![
                (1, TraceEvent::Call { proc: ProcId(2) }),
                (4, TraceEvent::Return { proc: ProcId(2) }),
                (4, TraceEvent::Finish),
            ]
        );
    }

    #[test]
    fn closures_are_observers() {
        let mut seen = Vec::new();
        {
            let mut obs = |icount: u64, ev: &TraceEvent| {
                seen.push((icount, matches!(ev, TraceEvent::Finish)));
            };
            obs.on_event(5, &TraceEvent::Finish);
        }
        assert_eq!(seen, vec![(5, true)]);
    }

    #[test]
    fn closure_batches_are_seen_in_order() {
        let mut seen = Vec::new();
        {
            let mut obs = |icount: u64, ev: &TraceEvent| {
                seen.push((icount, *ev));
            };
            let batch = vec![
                (3, TraceEvent::Call { proc: ProcId(1) }),
                (3, TraceEvent::Return { proc: ProcId(1) }),
                (9, TraceEvent::Finish),
            ];
            obs.on_batch(&batch);
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 3);
        assert_eq!(seen[2], (9, TraceEvent::Finish));
    }
}
