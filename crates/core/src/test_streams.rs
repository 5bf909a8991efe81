//! Random trace streams for the call-loop walkers' property tests.

use spm_ir::{BlockId, BranchId, LoopId, ProcId};
use spm_sim::TraceEvent;

/// Ids the generated streams and marker sets draw from, including
/// the top of the `u32` range and strided ids.
pub(crate) const IDS: [u32; 7] = [0, 1, 2, 7, 1 << 20, u32::MAX - 1, u32::MAX];

/// A stream from `(op, id)` choices, closed at the end. Ops 0–4 keep it
/// well nested: an iteration or a close only where the open frame
/// allows it. Ops 5–7 damage it as a lost block does: a `Return` or
/// `LoopExit` with no matching open, or a `LoopIter` with no loop
/// entry. Every other choice is a data event (a block, an access or a
/// branch). Each event is 3 instructions after the one before.
pub(crate) fn event_stream(ops: &[(u8, usize)]) -> Vec<(u64, TraceEvent)> {
    let mut open: Vec<TraceEvent> = Vec::new();
    let mut events = Vec::new();
    for &(op, index) in ops {
        let id = IDS[index];
        let event = match (op, open.last()) {
            (0, _) => TraceEvent::Call { proc: ProcId(id) },
            (1, _) => TraceEvent::LoopEnter {
                loop_id: LoopId(id),
            },
            (2, Some(&TraceEvent::LoopEnter { loop_id })) => TraceEvent::LoopIter { loop_id },
            (3, Some(&TraceEvent::Call { proc })) => TraceEvent::Return { proc },
            (3, Some(&TraceEvent::LoopEnter { loop_id })) => TraceEvent::LoopExit { loop_id },
            (5, _) => TraceEvent::Return { proc: ProcId(id) },
            (6, _) => TraceEvent::LoopExit {
                loop_id: LoopId(id),
            },
            (7, _) => TraceEvent::LoopIter {
                loop_id: LoopId(id),
            },
            _ => match index % 3 {
                0 => TraceEvent::BlockExec {
                    block: BlockId(id),
                    instrs: 3,
                    base_cpi: 1.0,
                },
                1 => TraceEvent::MemAccess {
                    addr: u64::from(id) * 8,
                    write: false,
                },
                _ => TraceEvent::Branch {
                    branch: BranchId(id),
                    taken: true,
                },
            },
        };
        match (op, event) {
            (_, TraceEvent::Call { .. } | TraceEvent::LoopEnter { .. }) => open.push(event),
            (3, _) => {
                open.pop();
            }
            _ => {}
        }
        events.push((3 * events.len() as u64, event));
    }
    while let Some(event) = open.pop() {
        let close = match event {
            TraceEvent::Call { proc } => TraceEvent::Return { proc },
            TraceEvent::LoopEnter { loop_id } => TraceEvent::LoopExit { loop_id },
            _ => unreachable!("only opens are kept"),
        };
        events.push((3 * events.len() as u64, close));
    }
    events
}
