//! Execution engine for workload programs: the reproduction's stand-in
//! for ATOM-instrumented Alpha binaries.
//!
//! [`run`] interprets a [`Program`](spm_ir::Program) under an
//! [`Input`](spm_ir::Input) and streams [`TraceEvent`]s — basic-block
//! executions, procedure calls/returns, loop entries/iterations/exits,
//! conditional branches, and data addresses — to any number of
//! [`TraceObserver`]s. Every analysis in the reproduction (call-loop
//! profiling, BBV collection, cache simulation, reuse-distance analysis,
//! marker detection) is an observer, so a single deterministic execution
//! feeds them all, exactly as one ATOM-instrumented run did in the paper.
//! Each observer names the data kinds it reads ([`Reads`]), and [`run`]
//! builds only the kinds some observer reads. It lowers the program
//! once per run: every block knows its access count and the random
//! draws its accesses make, with samplers resolved against the input's
//! region sizes, and every loop whose body is straight-line blocks
//! knows one iteration's sums. A run that reads no accesses then skips
//! them at the cost of their draws alone, and one that reads neither
//! blocks nor accesses steps such a loop an iteration at a time
//! without walking its body — the same stream, summary and random
//! words as a run that builds every event.
//!
//! The crate also provides the baseline machine model:
//! [`TimingModel`] (in-order core + DL1 + 2-bit branch predictor) and
//! [`Timeline`], which records cycles/misses/accesses/branches at a
//! fine granule so that per-interval CPI, miss rates, and mispredict
//! rates can be queried afterwards for *any* interval partitioning
//! (fixed-length or variable-length). [`record`] is the compact byte
//! codec for the event stream; `spm-store` packs it into durable
//! `spmstk01` trace files that replay without the program.
//!
//! # Examples
//!
//! ```
//! use spm_ir::{Input, ProgramBuilder, Trip};
//! use spm_sim::{run, Timeline};
//!
//! let mut b = ProgramBuilder::new("toy");
//! let data = b.region_bytes("data", 1 << 16);
//! b.proc("main", |p| {
//!     p.loop_(Trip::Fixed(1000), |body| {
//!         body.block(50).seq_read(data, 4).done();
//!     });
//! });
//! let program = b.build("main").unwrap();
//! let input = Input::new("ref", 7);
//!
//! let mut timeline = Timeline::new(1000);
//! let summary = run(&program, &input, &mut [&mut timeline]).unwrap();
//! assert_eq!(summary.instrs, 50_000);
//! let cpi = timeline.cpi(0..summary.instrs);
//! assert!(cpi > 0.5 && cpi < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod engine;
mod events;
pub mod fault;
pub mod hash;
pub mod record;
mod timeline;
mod timing;

pub use engine::{run, RunError, RunSummary, MAX_CALL_DEPTH};
pub use events::{Reads, TraceEvent, TraceObserver};
pub use fault::{FaultKind, FaultObserver, SplitMix64, TraceCorruptor};
pub use hash::{FastMap, FoldHash};
pub use timeline::{Timeline, TimelineSample};
pub use timing::TimingModel;
