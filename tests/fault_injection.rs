//! The fault-injection matrix: every workload in the suite, under every
//! injected corruption, must come out the other end as a *typed* error
//! or a documented fixed-length-interval fallback — never a panic.
//!
//! Two corruption levels are exercised, mirroring where damage happens
//! in practice:
//!
//! * **event-stream faults** ([`FaultObserver`]): dropped `Return`s,
//!   dropped `LoopExit`s, duplicated `LoopIter` back-edges — the
//!   profiler must either still produce a graph or report a
//!   [`ProfileError`](spm::core::ProfileError);
//! * **byte-level faults** ([`TraceCorruptor`]): truncated and
//!   bit-flipped `spmstk01` trace stores — a truncated store must
//!   recover exactly its committed-block prefix, and a flipped bit in a
//!   block must be skipped and reported, never delivered or panicked on.

use spm::core::{
    partition_with_fallback, select_markers, CallLoopProfiler, FallbackReason, SelectConfig,
};
use spm::sim::{run, FaultKind, FaultObserver, TraceCorruptor, TraceEvent};
use spm::workloads::suite;
use spm_store::format::{BlockMeta, FRAME_LEN, HEADER_LEN};
use spm_store::{StoreReader, StoreWriter};

/// Seeds tried per (workload, fault) cell. Small, but combined with 16
/// workloads and 3+2 fault kinds this covers hundreds of distinct
/// corruption placements deterministically.
const SEEDS: [u64; 2] = [1, 2];

fn event_faults() -> Vec<FaultKind> {
    vec![
        FaultKind::DropReturns { one_in: 50 },
        FaultKind::DropLoopExits { one_in: 50 },
        FaultKind::DuplicateLoopIters { one_in: 50 },
    ]
}

/// Runs `w` under `fault` and pushes the perturbed stream through the
/// whole analysis pipeline: profile -> select -> partition. Returns
/// whether the profiler rejected the stream (vs. absorbing the fault).
fn pipeline_survives(w: &spm::workloads::Workload, fault: FaultKind, seed: u64) -> bool {
    let mut profiler = CallLoopProfiler::new();
    let mut faulty = FaultObserver::new(&mut profiler, fault, seed);
    run(&w.program, &w.train_input, &mut [&mut faulty])
        .expect("the engine itself is not under test");

    match profiler.into_graph() {
        Err(_) => true, // typed ProfileError: acceptable outcome
        Ok(graph) => {
            // The graph may be oddly shaped (duplicated iterations skew
            // averages) but every downstream stage must stay total.
            let outcome = select_markers(&graph, &SelectConfig::new(10_000));
            let partition = partition_with_fallback(
                &outcome.markers,
                &[],
                1_000_000,
                10_000,
                outcome.degenerate_cov,
            );
            // With no firings the partition must degrade, not panic,
            // and must still tile the full range.
            let fb = partition.fallback.expect("no firings forces a fallback");
            assert!(matches!(
                fb.reason,
                FallbackReason::NoMarkers
                    | FallbackReason::NoFirings
                    | FallbackReason::DegenerateCov
            ));
            assert_eq!(partition.vlis.last().map(|v| v.end), Some(1_000_000));
            false
        }
    }
}

#[test]
fn event_faults_yield_typed_errors_or_fallback_across_the_suite() {
    let mut rejected = 0u32;
    let mut absorbed = 0u32;
    for w in suite() {
        for fault in event_faults() {
            for seed in SEEDS {
                if pipeline_survives(&w, fault, seed) {
                    rejected += 1;
                } else {
                    absorbed += 1;
                }
            }
        }
    }
    // The matrix must actually exercise both outcomes somewhere: faults
    // that always get absorbed would mean the injector is a no-op, and
    // faults that always reject would mean selection never ran.
    assert!(
        rejected > 0,
        "no fault was ever detected ({absorbed} absorbed)"
    );
}

#[test]
fn dropped_returns_are_reported_with_event_context() {
    // One workload in detail: the typed error must carry localization.
    let w = spm::workloads::build("gzip").expect("known workload");
    let mut profiler = CallLoopProfiler::new();
    let mut faulty = FaultObserver::new(&mut profiler, FaultKind::DropReturns { one_in: 1 }, 7);
    run(&w.program, &w.train_input, &mut [&mut faulty]).expect("engine runs");
    assert!(faulty.injected() > 0);
    let err = profiler
        .into_graph()
        .expect_err("dropping every return must be caught");
    let text = err.to_string();
    assert!(
        text.contains("event"),
        "error should localize the fault: {text}"
    );
}

/// Block budget small enough that every workload's train run spans
/// many blocks, so truncations land at varied block boundaries.
const BLOCK_BUDGET: usize = 4096;

/// One workload's train run, packed into an in-memory store.
struct Packed {
    name: &'static str,
    store: Vec<u8>,
    /// The live event stream the store must reproduce.
    live: Vec<(u64, TraceEvent)>,
    /// The intact store's block index.
    index: Vec<BlockMeta>,
}

/// Packs every suite workload.
fn packed_suite() -> Vec<Packed> {
    suite()
        .iter()
        .map(|w| {
            let mut store = Vec::new();
            let mut live = Vec::new();
            let mut writer = StoreWriter::with_block_budget(&mut store, BLOCK_BUDGET);
            run(&w.program, &w.train_input, &mut [&mut writer, &mut live]).expect("engine runs");
            writer.finish().expect("in-memory store");
            let index = StoreReader::from_bytes(store.clone())
                .expect("intact store opens")
                .index()
                .to_vec();
            assert!(index.len() > 1, "{}: needs several blocks", w.name);
            Packed {
                name: w.name,
                store,
                live,
                index,
            }
        })
        .collect()
}

/// Opens store bytes and replays everything they yield.
fn replay_store(bytes: &[u8]) -> (spm_store::StoreReplayReport, Vec<(u64, TraceEvent)>) {
    let mut reader = StoreReader::from_bytes(bytes.to_vec()).expect("store header intact");
    let mut got = Vec::new();
    let report = reader
        .replay(&mut [&mut got])
        .expect("replay degrades, never fails");
    (report, got)
}

#[test]
fn truncated_stores_recover_the_committed_prefix_across_the_suite() {
    for Packed {
        name,
        store,
        live,
        index,
    } in packed_suite()
    {
        for seed in SEEDS {
            // The store recovers exactly the blocks that lie wholly
            // before the cut, as a prefix of the true stream.
            let cut = TraceCorruptor::new(seed).truncate(&store, HEADER_LEN);
            let committed: u64 = index
                .iter()
                .filter(|m| {
                    m.offset + (FRAME_LEN as u64) + u64::from(m.payload_len) <= cut.len() as u64
                })
                .map(|m| u64::from(m.events))
                .sum();
            let (report, got) = replay_store(&cut);
            assert!(report.is_clean(), "{name}: recovery must drop torn blocks");
            assert_eq!(got.len() as u64, committed, "{name}: committed prefix");
            assert_eq!(got[..], live[..got.len()], "{name}: prefix diverged");
        }
    }
}

#[test]
fn bit_flipped_blocks_are_skipped_and_reported_across_the_suite() {
    for Packed {
        name,
        store,
        live,
        index,
    } in packed_suite()
    {
        for seed in SEEDS {
            // A flip inside one block's payload: that block is skipped
            // and reported, and every other block still replays.
            let victim = index[seed as usize % index.len()];
            let start = victim.offset as usize + FRAME_LEN;
            let payload = start..start + victim.payload_len as usize;
            let mut flipped = store.clone();
            let damaged = TraceCorruptor::new(seed).bit_flip(&store[payload.clone()], 0, 1);
            flipped[payload].copy_from_slice(&damaged);
            let (report, got) = replay_store(&flipped);
            assert_eq!(report.skipped.len(), 1, "{name}: flip not caught");
            assert_eq!(report.skipped[0].events, u64::from(victim.events));
            let (first, end) = (victim.first_seq as usize, victim.end_seq() as usize);
            assert_eq!(got.len(), live.len() - (end - first), "{name}");
            assert_eq!(got[..first], live[..first], "{name}");
            assert_eq!(got[first..], live[end..], "{name}");
        }
    }
}
