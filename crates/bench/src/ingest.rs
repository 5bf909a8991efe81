//! Ingest-throughput figure: one recorded event stream decoded four
//! ways — sequential `spmstk01` store replay (the production hot path,
//! one `on_batch` call per block), parallel
//! store replay, sequential replay of an LZ-compressed container, and
//! recovery-path replay of a store whose ingest was killed mid-write by
//! the seeded [`spm_store::FaultyIo`] failpoint disk (the crash-safety
//! overhead of DESIGN.md §12: transient-retry absorption on the way in,
//! torn-tail recovery on the way out).
//!
//! Store rows read real files through [`StoreReader::open`] — the
//! production path, where block payloads are zero-copy slices of the
//! page cache when the platform maps them.
//!
//! The rendered text contains only deterministic facts (event counts,
//! byte sizes, block count, compression ratio, recovered prefix and
//! retry counts — the fault schedule is seeded) so CI can byte-compare
//! it as a golden. Decode throughput is machine-dependent and is not
//! measured here: `perfbench`'s `replay` workload reports it as
//! `store.decode.ns_per_event`.

use crate::{analysis_error, workload};
use spm_core::SpmError;
use spm_sim::{run, TraceEvent, TraceObserver};
use spm_store::{
    Compression, FaultPlan, FaultyIo, FinishOutcome, RetryPolicy, StoreReader, StoreWriter,
};

/// Workload whose `ref` input feeds the ingest figure.
pub const INGEST_WORKLOAD: &str = "gzip";

/// The decode paths, in figure order. `store-batch` is the sequential
/// replay.
pub const DECODERS: [&str; 4] = [
    "store-batch",
    "store-par",
    "store-compressed",
    "store-faulted",
];

/// Seed of the faulted-ingest schedule (any seed must satisfy the
/// durability invariant; this one is fixed so the figure is a golden).
const FAULT_SEED: u64 = crate::ANALYSIS_SEED ^ 0x1265;

/// One transient write error roughly every this many I/O operations on
/// the faulted path.
const TRANSIENT_ONE_IN: u32 = 16;

/// Counts delivered events without retaining them.
struct Count(u64);

impl TraceObserver for Count {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        self.0 += batch.len() as u64;
    }
}

/// The deterministic facts behind the ingest figure.
#[derive(Debug)]
pub struct IngestData {
    /// Events in the recorded stream.
    pub events: u64,
    /// Instructions simulated to produce it.
    pub instructions: u64,
    /// `spmstk01` container size in bytes.
    pub store_bytes: u64,
    /// LZ-compressed `spmstk01` container size in bytes.
    pub compressed_bytes: u64,
    /// Blocks in the container.
    pub blocks: u64,
    /// Events redelivered by each decoder, in [`DECODERS`] order. All
    /// but `store-faulted` must equal `events`; `store-faulted`
    /// recovers the committed prefix of an ingest killed mid-write, so
    /// it is at most `events` and at least the crash-time commit
    /// watermark.
    pub decoded: [u64; 4],
    /// Events the writer had durably committed when the faulted ingest
    /// was killed (the floor for `decoded[store-faulted]`).
    pub faulted_committed: u64,
    /// Transient write errors the faulted ingest absorbed by retrying
    /// before the kill (seeded, so deterministic).
    pub faulted_retries: u64,
}

/// Writes container bytes to a scratch file so readers take the same
/// mmap-backed path the CLI uses, returning an opened reader.
fn opened_store(name: &str, bytes: &[u8]) -> Result<(std::path::PathBuf, StoreReader), SpmError> {
    // Unique per call: parallel test threads each run `compute`.
    static SCRATCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let serial = SCRATCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "spm-bench-ingest-{}-{serial}-{name}.spmstk",
        std::process::id()
    ));
    std::fs::write(&path, bytes).map_err(|e| analysis_error("ingest/write", e))?;
    let reader = StoreReader::open(&path).map_err(|e| analysis_error("ingest/open", e))?;
    Ok((path, reader))
}

/// Replays every block of `reader` into a counter, sequentially or
/// over the `spm-par` pool, returning the events delivered.
fn decode(reader: &mut StoreReader, parallel: bool, stage: &str) -> Result<u64, SpmError> {
    let mut count = Count(0);
    let report = if parallel {
        reader.par_replay(&mut [&mut count])
    } else {
        reader.replay(&mut [&mut count])
    }
    .map_err(|e| analysis_error(stage, e))?;
    debug_assert!(report.is_clean());
    Ok(count.0)
}

/// Records the workload once into the plain and the compressed
/// container, then decodes the same stream along every path.
///
/// # Errors
///
/// Propagates workload-build and engine failures; decode failures over
/// the freshly written containers surface as [`SpmError::Analysis`].
pub fn compute() -> Result<IngestData, SpmError> {
    let w = workload(INGEST_WORKLOAD)?;
    let mut store_buf = Vec::new();
    let mut writer = StoreWriter::new(&mut store_buf);
    writer.set_block_dims(w.program.block_sizes().len() as u32);
    let mut lz_buf = Vec::new();
    let mut lz_writer = StoreWriter::new(&mut lz_buf).compression(Compression::Lz);
    let summary = run(&w.program, &w.ref_input, &mut [&mut writer, &mut lz_writer])?;
    let packed = writer
        .finish()
        .map_err(|e| analysis_error("ingest/pack", e))?;
    let lz_packed = lz_writer
        .finish()
        .map_err(|e| analysis_error("ingest/pack-compressed", e))?;

    // Production path: whole blocks delivered per observer call.
    let (store_path, mut reader) = opened_store("plain", &store_buf)?;
    let batch_decoded = decode(&mut reader, false, "ingest/store-batch")?;
    let par_decoded = decode(&mut reader, true, "ingest/store-par")?;
    drop(reader);
    std::fs::remove_file(&store_path).ok();
    // The faulted row repacks this same stream (see below); build its
    // torn image now so the clean container can be released.
    let (torn, faulted_committed, faulted_retries) = faulted_pack(&store_buf)?;
    drop(store_buf);

    let (lz_path, mut reader) = opened_store("lz", &lz_buf)?;
    let compressed_decoded = decode(&mut reader, false, "ingest/store-compressed")?;
    drop(reader);
    std::fs::remove_file(&lz_path).ok();

    // Faulted path: the same stream repacked through the failpoint
    // disk, flaky (retried transients) and then killed at 3/4 of the
    // clean pass's I/O operations; opening it pays recovery (index
    // rebuild, torn-tail discard) before the committed prefix replays.
    let mut reader =
        StoreReader::from_bytes(torn).map_err(|e| analysis_error("ingest/store-faulted", e))?;
    let faulted_decoded = decode(&mut reader, false, "ingest/store-faulted")?;
    if faulted_decoded < faulted_committed {
        return Err(analysis_error(
            "ingest/store-faulted",
            format!("recovered {faulted_decoded} events, {faulted_committed} were committed"),
        ));
    }

    Ok(IngestData {
        events: packed.events,
        instructions: summary.instrs,
        store_bytes: packed.file_bytes,
        compressed_bytes: lz_packed.file_bytes,
        blocks: packed.blocks,
        decoded: [
            batch_decoded,
            par_decoded,
            compressed_decoded,
            faulted_decoded,
        ],
        faulted_committed,
        faulted_retries,
    })
}

/// Repacks the clean container's event stream through [`FaultyIo`]:
/// one clean pass to count I/O operations, then the faulted pass with
/// seeded transients and a kill at 3/4 of those operations. Returns the
/// torn image, the commit watermark at the kill, and the retries
/// absorbed.
fn faulted_pack(store: &[u8]) -> Result<(Vec<u8>, u64, u64), SpmError> {
    let repack = |plan: FaultPlan, stage: &str| -> Result<FinishOutcome<FaultyIo>, SpmError> {
        let no_backoff = RetryPolicy {
            max_retries: 3,
            base_delay: std::time::Duration::ZERO,
        };
        let mut writer = StoreWriter::new(FaultyIo::new(plan)).retry_policy(no_backoff);
        StoreReader::from_bytes(store.to_vec())
            .and_then(|mut reader| reader.replay(&mut [&mut writer]))
            .map_err(|e| analysis_error(stage, e))?;
        Ok(writer.finish_with_sink())
    };
    let outcome = repack(FaultPlan::new(FAULT_SEED), "ingest/faulted-count")?;
    outcome
        .result
        .map_err(|e| analysis_error("ingest/faulted-count", e))?;
    let clean_ops = outcome.sink.ops();

    let plan = FaultPlan::new(FAULT_SEED)
        .transient_one_in(TRANSIENT_ONE_IN)
        .crash_at_op(clean_ops * 3 / 4);
    let outcome = repack(plan, "ingest/faulted-pack")?;
    if outcome.result.is_ok() {
        return Err(analysis_error(
            "ingest/faulted-pack",
            "pack survived a scheduled kill",
        ));
    }
    let committed = outcome.committed.events;
    let retries = outcome.sink.injected_transients();
    Ok((outcome.sink.into_bytes(), committed, retries))
}

/// Renders the figure. Every line is deterministic across machines.
pub fn render(d: &IngestData) -> String {
    let mut out = format!("# Ingest: spmstk01 store decode ({INGEST_WORKLOAD}/ref)\n");
    out.push_str(&format!("events\t{}\n", d.events));
    out.push_str(&format!("instructions\t{}\n", d.instructions));
    out.push_str(&format!("store_bytes\t{}\n", d.store_bytes));
    let ratio = d.compressed_bytes as f64 / d.store_bytes.max(1) as f64;
    out.push_str(&format!(
        "compressed_bytes\t{}\tcompression_ratio\t{ratio:.4}\n",
        d.compressed_bytes
    ));
    out.push_str(&format!("blocks\t{}\n", d.blocks));
    for (name, decoded) in DECODERS.iter().zip(&d.decoded) {
        out.push_str(&format!("decoded[{name}]\t{decoded}\n"));
    }
    out.push_str(&format!(
        "faulted_committed\t{}\tfaulted_retries\t{}\n",
        d.faulted_committed, d.faulted_retries
    ));
    out.push_str(
        "# decode throughput is machine-dependent: see perfbench `replay` \
(store.decode.ns_per_event)\n",
    );
    out
}

/// Computes and renders the figure in one step (the `all_figures`
/// entry point).
///
/// # Errors
///
/// See [`compute`].
pub fn figure() -> Result<String, SpmError> {
    Ok(render(&compute()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_decoder_recovers_the_full_stream() {
        let d = compute().unwrap();
        assert!(d.events > 0);
        assert!(d.blocks >= 1);
        // Every decoder but the deliberately torn one sees the full
        // stream.
        for (name, decoded) in DECODERS.iter().zip(&d.decoded).take(DECODERS.len() - 1) {
            assert_eq!(*decoded, d.events, "decoder {name} lost events");
        }
        // LZ must shrink the container: event payloads are repetitive.
        assert!(
            d.compressed_bytes < d.store_bytes,
            "compression grew the container: {} vs {}",
            d.compressed_bytes,
            d.store_bytes
        );
        // The faulted path was killed mid-write: it recovers at least
        // every committed event, never more than the clean stream, and
        // the kill at 3/4 of the ops must have lost the tail.
        let faulted = d.decoded[DECODERS.len() - 1];
        assert!(faulted >= d.faulted_committed, "committed events lost");
        assert!(faulted < d.events, "the kill must lose the torn tail");
        assert!(d.faulted_committed > 0, "kill too early: nothing durable");
        assert!(d.faulted_retries > 0, "no transients injected");
        // The container pays per-block framing plus a footer index but
        // no more: under 8 bytes per event all told.
        let per_event = d.store_bytes as f64 / d.events as f64;
        assert!(per_event < 8.0, "{per_event:.2} bytes/event is too fat");
    }

    #[test]
    fn render_is_deterministic_and_parseable() {
        let a = render(&compute().unwrap());
        let b = render(&compute().unwrap());
        assert_eq!(a, b, "figure text must be byte-stable for CI goldens");
        for line in a.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.split('\t').count() >= 2, "bad line: {line}");
        }
        assert!(!a.contains("events_per_sec\t"), "no wall-clock in goldens");
    }
}
