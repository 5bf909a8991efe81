//! Adaptive data-cache reconfiguration driven by software phase markers
//! (the paper's Section 6.1 / Figure 10 for one benchmark): the first
//! two intervals of each phase explore cache configurations; afterwards
//! the phase's best (smallest, miss-neutral) configuration is reused.
//!
//! ```text
//! cargo run --release --example cache_reconfig [workload]
//! ```

use spm::cache::adaptive::{run_adaptive, IntervalRecord, Tolerance};
use spm::cache::{reconfigurable_configs, CacheBank};
use spm::core::{partition, select_markers, CallLoopProfiler, MarkerRuntime, SelectConfig};
use spm::sim::{run, TraceEvent, TraceObserver};
use spm::workloads::build;

/// Minimal per-interval cache measurement: replays the address stream
/// into all eight configurations while tracking marker-defined interval
/// boundaries.
struct Recorder<'m> {
    runtime: MarkerRuntime<'m>,
    bank: CacheBank,
    instrs: u64,
    /// `(end icount, accesses, misses per config)` snapshots at marker
    /// boundaries.
    snaps: Vec<(u64, u64, Vec<u64>)>,
}

impl Recorder<'_> {
    fn step(&mut self, icount: u64, event: &TraceEvent) {
        let before = self.runtime.firings().len();
        self.runtime.on_event(icount, event);
        if self.runtime.firings().len() != before || matches!(event, TraceEvent::Finish) {
            self.snaps
                .push((icount, self.bank.accesses(), self.bank.misses()));
        }
        match *event {
            TraceEvent::MemAccess { addr, write } => self.bank.access(addr, write),
            TraceEvent::BlockExec { instrs, .. } => self.instrs += u64::from(instrs),
            _ => {}
        }
    }
}

impl TraceObserver for Recorder<'_> {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        for (icount, event) in batch {
            self.step(*icount, event);
        }
    }
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "mesh".to_string());
    let workload = build(&name).unwrap_or_else(|| {
        eprintln!("unknown workload `{name}`");
        std::process::exit(1);
    });

    // Select markers on the train input (cross-input reuse, as the
    // paper advocates for reconfiguration).
    let mut profiler = CallLoopProfiler::new();
    run(
        &workload.program,
        &workload.train_input,
        &mut [&mut profiler],
    )
    .expect("runs");
    let markers =
        select_markers(&profiler.into_graph().unwrap(), &SelectConfig::new(10_000)).markers;

    let configs = reconfigurable_configs();
    let mut recorder = Recorder {
        runtime: MarkerRuntime::new(&markers),
        bank: CacheBank::new(configs.clone()),
        instrs: 0,
        snaps: vec![],
    };
    run(&workload.program, &workload.ref_input, &mut [&mut recorder]).expect("runs");

    // Convert boundary snapshots into per-interval records.
    let vlis = partition(&recorder.runtime.firings(), recorder.instrs);
    let mut records = Vec::new();
    let mut prev = (0u64, 0u64, vec![0u64; configs.len()]);
    let mut si = 0;
    for v in &vlis {
        // Advance to the snapshot at this interval's end.
        let mut cur = prev.clone();
        while si < recorder.snaps.len() && recorder.snaps[si].0 <= v.end {
            cur = recorder.snaps[si].clone();
            si += 1;
        }
        records.push(IntervalRecord {
            phase: v.phase,
            instrs: v.len(),
            accesses: cur.1 - prev.1,
            misses: cur.2.iter().zip(&prev.2).map(|(a, b)| a - b).collect(),
        });
        prev = cur;
    }

    let outcome = run_adaptive(
        &configs,
        &records,
        Tolerance {
            relative: 0.02,
            absolute_rate: 0.05,
        },
    );
    println!(
        "workload: {name} ({} intervals, {} markers)",
        records.len(),
        markers.len()
    );
    println!("  average adaptive cache:  {:.1} KB", outcome.avg_size_kb);
    println!("  best fixed cache:        {:.1} KB", outcome.best_fixed_kb);
    println!(
        "  adaptive miss rate:      {:.3}%",
        outcome.miss_rate() * 100.0
    );
    println!(
        "  best fixed miss rate:    {:.3}%",
        outcome.best_fixed_miss_rate() * 100.0
    );
    for (phase, choice) in outcome.phase_choices.iter().enumerate() {
        if let Some(c) = choice {
            println!("  phase {phase}: {} KB", configs[*c].size_kb());
        }
    }
}
