//! Round-trip, seek, parallel-decode, and corruption-recovery tests
//! for the `spmstk01` container, against real simulator event streams.

use proptest::prelude::*;
use spm_ir::{Input, ProcId, Program, ProgramBuilder, Trip};
use spm_sim::{run, TraceEvent, TraceObserver};
use spm_store::format::{fnv1a64, FOOTER_LEN, FRAME_LEN, INDEX_ENTRY_LEN};
use spm_store::{Compression, StoreReader, StoreWriter};
use std::sync::atomic::{AtomicU64, Ordering};

/// Records every delivered event like a plain `Vec` collector, but
/// also counts batch boundaries — proving batch and per-event delivery
/// carry the same stream.
#[derive(Default)]
struct BatchCollect {
    events: Vec<(u64, TraceEvent)>,
    batches: usize,
}

impl TraceObserver for BatchCollect {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        self.batches += 1;
        self.events.extend_from_slice(batch);
    }
}

/// A program with calls, nested loops, and branches — every structural
/// event kind the encoder handles.
fn program() -> Program {
    let mut b = ProgramBuilder::new("roundtrip");
    b.proc("main", |p| {
        p.loop_(Trip::Fixed(60), |outer| {
            outer.if_prob(0.5, |t| t.call("work"), |e| e.call("rest"));
        });
        p.call("work");
    });
    b.proc("work", |p| {
        p.block(13).done();
        p.loop_(Trip::Fixed(5), |inner| {
            inner.block(7).done();
        });
        p.call("leaf");
    });
    b.proc("rest", |p| {
        p.block(29).done();
    });
    b.proc("leaf", |p| {
        p.block(3).done();
    });
    b.build("main").expect("valid program")
}

/// Runs the program, packing into a store with the given block budget
/// and collecting the flat event list on the side.
fn pack(budget: usize, seed: u64) -> (Vec<u8>, Vec<(u64, TraceEvent)>) {
    let prog = program();
    let mut flat = Vec::new();
    let mut bytes = Vec::new();
    let mut writer = StoreWriter::with_block_budget(&mut bytes, budget);
    run(&prog, &Input::new("t", seed), &mut [&mut flat, &mut writer]).expect("sim run");
    let summary = writer.finish().expect("finish");
    assert_eq!(summary.events, flat.len() as u64);
    (bytes, flat)
}

fn open(bytes: Vec<u8>) -> StoreReader {
    StoreReader::from_bytes(bytes).expect("open store")
}

/// Writes `bytes` to a fresh temporary file and opens it through
/// [`StoreReader::open`], the file-backed (memory-mapped) path. The
/// file is removed once opened; the reader keeps its own view.
fn open_file(bytes: &[u8]) -> StoreReader {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "spm-roundtrip-{}-{}.spmstk",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("write store file");
    let reader = StoreReader::open(&path);
    std::fs::remove_file(&path).ok();
    reader.expect("open store file")
}

#[test]
fn replay_matches_direct_observation() {
    let (bytes, flat) = pack(256, 42);
    let mut reader = open(bytes);
    assert!(reader.info().blocks > 3, "budget must force many blocks");
    assert_eq!(reader.info().events, flat.len() as u64);
    let mut got = Vec::new();
    let report = reader.replay(&mut [&mut got]).expect("replay");
    assert!(report.is_clean());
    assert_eq!(report.events, flat.len() as u64);
    assert_eq!(got, flat);
}

#[test]
fn par_replay_matches_sequential_replay() {
    let (bytes, flat) = pack(256, 7);
    let mut seq = Vec::new();
    let mut par = Vec::new();
    open(bytes.clone()).replay(&mut [&mut seq]).expect("replay");
    let report = open(bytes).par_replay(&mut [&mut par]).expect("par_replay");
    assert!(report.is_clean());
    assert_eq!(par, seq);
    assert_eq!(par, flat);
}

#[test]
fn info_reflects_the_stream() {
    let (bytes, flat) = pack(512, 3);
    let reader = open(bytes.clone());
    let info = *reader.info();
    assert_eq!(info.events, flat.len() as u64);
    assert_eq!(info.total_icount, flat.last().expect("events").0);
    assert_eq!(info.file_bytes, bytes.len() as u64);
    assert_eq!(info.block_budget, 512);
    assert!(!info.recovered_index);
}

#[test]
fn truncated_footer_recovers_block_prefix() {
    let (bytes, flat) = pack(256, 11);
    let reader = open(bytes.clone());
    let kept_blocks = 3.min(reader.index().len());
    let cut = reader.index()[kept_blocks - 1];
    let kept_events = cut.end_seq();
    drop(reader);
    // Cut the file just past block `kept_blocks - 1`: no index, no
    // footer, later blocks gone.
    let cut_at = (cut.offset + FRAME_LEN as u64 + u64::from(cut.payload_len)) as usize;
    let mut truncated = bytes;
    truncated.truncate(cut_at);

    let mut reader = StoreReader::from_bytes(truncated).expect("recovering open");
    assert!(reader.info().recovered_index);
    assert_eq!(reader.info().events, kept_events);
    let mut got = Vec::new();
    let report = reader.replay(&mut [&mut got]).expect("replay");
    assert!(report.is_clean());
    assert_eq!(got, flat[..kept_events as usize]);
}

#[test]
fn content_key_identifies_committed_content() {
    let (bytes, _) = pack(256, 42);
    let key = open(bytes.clone()).content_key().expect("key");
    // Identical bytes key identically (the corpus dedupe contract).
    assert_eq!(open(bytes.clone()).content_key().expect("key"), key);
    // A different event stream keys differently.
    let (other, _) = pack(256, 43);
    assert_ne!(open(other).content_key().expect("key"), key);
    // So does the same stream under a different block partitioning.
    let (repacked, _) = pack(512, 42);
    assert_ne!(open(repacked).content_key().expect("key"), key);
    // A single flipped payload byte keys differently.
    let meta = open(bytes.clone()).index()[0];
    let mut mutated = bytes.clone();
    mutated[meta.offset as usize + FRAME_LEN] ^= 1;
    assert_ne!(open(mutated).content_key().expect("key"), key);
    // Tearing off the redundant index+footer leaves the committed
    // content — and therefore the key — unchanged.
    let reader = open(bytes.clone());
    let last = *reader.index().last().expect("blocks");
    drop(reader);
    let mut torn = bytes.clone();
    torn.truncate((last.offset + FRAME_LEN as u64 + u64::from(last.payload_len)) as usize);
    let recovered = StoreReader::from_bytes(torn).expect("recovering open");
    assert!(recovered.info().recovered_index);
    assert_eq!(recovered.content_key().expect("key"), key);
}

#[test]
fn content_key_is_identical_from_file_and_from_bytes() {
    let (bytes, _) = pack(256, 9);
    let in_memory = open(bytes.clone()).content_key().expect("key");
    assert_eq!(open_file(&bytes).content_key().expect("key"), in_memory);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Corrupting one random payload byte loses exactly that block's
    /// events; every other block still replays, in order.
    #[test]
    fn corrupt_block_loses_only_that_block(
        seed in 0u64..1000,
        pick in 0usize..1_000_000,
    ) {
        let (mut bytes, flat) = pack(512, seed);
        let reader = open(bytes.clone());
        let index: Vec<_> = reader.index().to_vec();
        drop(reader);
        prop_assume!(index.len() >= 2);
        let victim = pick % index.len();
        let meta = index[victim];
        let payload_at = meta.offset as usize + FRAME_LEN;
        let byte = pick % meta.payload_len as usize;
        bytes[payload_at + byte] ^= 0x55;

        // The file-backed reader sees the same damage the same way.
        let mut from_file = Vec::new();
        let file_report = open_file(&bytes).replay(&mut [&mut from_file]).expect("replay");
        let mut got = Vec::new();
        let report = open(bytes).replay(&mut [&mut got]).expect("replay");
        prop_assert_eq!(&file_report, &report);
        prop_assert_eq!(&from_file, &got);
        prop_assert_eq!(report.skipped.len(), 1);
        prop_assert_eq!(report.skipped[0].block, victim as u64);
        prop_assert_eq!(report.skipped[0].events, u64::from(meta.events));
        prop_assert_eq!(report.events + report.skipped_events(), flat.len() as u64);

        // Expected stream: everything except the victim's range.
        let expected: Vec<_> = flat
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let seq = *i as u64;
                seq < meta.first_seq || seq >= meta.end_seq()
            })
            .map(|(_, e)| *e)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Seeking to a sequence number delivers exactly the tail of a full
    /// scan.
    #[test]
    fn seek_to_sequence_equals_scan_tail(
        seed in 0u64..1000,
        pick in 0usize..1_000_000,
    ) {
        let (bytes, flat) = pack(512, seed);
        let seq = (pick % (flat.len() + 2)) as u64;
        let mut got = Vec::new();
        let report = open(bytes)
            .replay_from_seq(seq, &mut [&mut got])
            .expect("seek replay");
        let tail = &flat[(seq as usize).min(flat.len())..];
        prop_assert!(report.is_clean());
        prop_assert_eq!(report.events, tail.len() as u64);
        prop_assert_eq!(&got[..], tail);
    }

    /// Truncating *inside* the footer or the index (including mid-way
    /// through an index entry or the footer's checksum field) loses no
    /// block: every block frame is still intact, so recovery rebuilds
    /// the full index and replay matches the flat stream exactly,
    /// reporting the discarded tail.
    #[test]
    fn truncation_inside_footer_or_index_recovers_every_block(
        seed in 0u64..1000,
        pick in 0usize..1_000_000,
    ) {
        let (bytes, flat) = pack(512, seed);
        let reader = open(bytes.clone());
        let last = *reader.index().last().expect("blocks");
        drop(reader);
        // The index region starts right after the last block's payload;
        // everything from there to EOF is index entries + footer.
        let index_offset = (last.offset + FRAME_LEN as u64 + u64::from(last.payload_len)) as usize;
        let tail_len = bytes.len() - index_offset;
        let cut_at = index_offset + pick % tail_len;
        let mut truncated = bytes;
        truncated.truncate(cut_at);

        let mut reader = StoreReader::from_bytes(truncated).expect("recovering open");
        prop_assert!(reader.info().recovered_index);
        prop_assert_eq!(reader.info().events, flat.len() as u64);
        prop_assert_eq!(
            reader.info().recovered_tail_bytes,
            (cut_at - index_offset) as u64
        );
        let mut got = Vec::new();
        let report = reader.replay(&mut [&mut got]).expect("replay");
        prop_assert!(report.is_clean());
        prop_assert_eq!(got, flat);
    }

    /// A store with zero committed blocks truncated inside its footer
    /// still opens: recovery finds no frames and yields an empty,
    /// replayable container rather than an error.
    #[test]
    fn zero_committed_blocks_truncated_footer_recovers_empty(
        pick in 0usize..1_000_000,
    ) {
        let mut bytes = Vec::new();
        StoreWriter::new(&mut bytes).finish().expect("finish empty");
        let header_len = spm_store::format::HEADER_LEN;
        // Cut anywhere inside the footer (the header must survive for
        // the file to be recognizable as a store at all).
        let cut_at = header_len + pick % (bytes.len() - header_len);
        bytes.truncate(cut_at);

        let mut reader = StoreReader::from_bytes(bytes).expect("recovering open");
        prop_assert!(reader.info().recovered_index);
        prop_assert_eq!(reader.info().blocks, 0);
        prop_assert_eq!(reader.info().events, 0);
        let mut got = Vec::new();
        let report = reader.replay(&mut [&mut got]).expect("replay");
        prop_assert!(report.is_clean());
        prop_assert!(got.is_empty());
    }

    /// Corruption and parallel decode compose: par_replay skips the
    /// same block the sequential path does.
    #[test]
    fn par_replay_handles_corruption_like_sequential(
        seed in 0u64..1000,
        pick in 0usize..1_000_000,
    ) {
        let (mut bytes, _flat) = pack(512, seed);
        let reader = open(bytes.clone());
        let index: Vec<_> = reader.index().to_vec();
        drop(reader);
        prop_assume!(index.len() >= 2);
        let victim = pick % index.len();
        let meta = index[victim];
        bytes[meta.offset as usize + FRAME_LEN + (pick % meta.payload_len as usize)] ^= 0xaa;

        let mut seq = Vec::new();
        let mut par = Vec::new();
        let seq_report = open(bytes.clone()).replay(&mut [&mut seq]).expect("replay");
        let par_report = open(bytes).par_replay(&mut [&mut par]).expect("par_replay");
        prop_assert_eq!(seq, par);
        prop_assert_eq!(seq_report.skipped.len(), par_report.skipped.len());
        prop_assert_eq!(seq_report.events, par_report.events);
    }
}

#[test]
fn replay_from_icount_starts_at_covering_block() {
    let (bytes, flat) = pack(512, 5);
    let total = flat.last().expect("events").0;
    let target = total / 2;
    let mut reader = open(bytes);
    let block = reader.block_for_icount(target).expect("in range");
    let first_seq = reader.index()[block].first_seq;
    let mut got = Vec::new();
    let report = reader
        .replay_from_icount(target, &mut [&mut got])
        .expect("icount replay");
    assert!(report.is_clean());
    assert_eq!(&got[..], &flat[first_seq as usize..]);
    // The covering block's events reach past the target.
    assert!(got.last().expect("events").0 >= target);
}

#[test]
fn not_a_store_is_a_typed_error() {
    let err = StoreReader::from_bytes(b"definitely not a store".to_vec())
        .expect_err("foreign bytes are not a store");
    assert!(matches!(err, spm_store::StoreError::Corrupt { .. }));
    let err = StoreReader::from_bytes(b"spmstk99xxxxxxxx".to_vec()).expect_err("unknown version");
    assert!(err.to_string().contains("version"));
}

/// Like [`pack`], but with per-block LZ compression enabled.
fn pack_compressed(budget: usize, seed: u64) -> (Vec<u8>, Vec<(u64, TraceEvent)>) {
    let prog = program();
    let mut flat = Vec::new();
    let mut bytes = Vec::new();
    let mut writer =
        StoreWriter::with_block_budget(&mut bytes, budget).compression(Compression::Lz);
    run(&prog, &Input::new("t", seed), &mut [&mut flat, &mut writer]).expect("sim run");
    writer.finish().expect("finish");
    (bytes, flat)
}

#[test]
fn compressed_store_round_trips_and_shrinks() {
    let (plain, flat) = pack(2048, 42);
    let (packed, flat_c) = pack_compressed(2048, 42);
    assert_eq!(flat, flat_c);
    let mut reader = open(packed.clone());
    assert_eq!(reader.info().compression, Compression::Lz);
    assert!(
        reader.info().payload_bytes < open(plain).info().payload_bytes,
        "event streams are repetitive; LZ must shrink the payload"
    );
    let mut got = Vec::new();
    let report = reader.replay(&mut [&mut got]).expect("replay");
    assert!(report.is_clean());
    assert_eq!(got, flat);
    // Parallel decode composes with compression.
    let mut par = Vec::new();
    let report = open(packed).par_replay(&mut [&mut par]).expect("par");
    assert!(report.is_clean());
    assert_eq!(par, flat);
}

#[test]
fn batch_delivery_is_identical_to_per_event_delivery() {
    for pack_fn in [pack, pack_compressed] {
        let (bytes, flat) = pack_fn(512, 23);
        // A closure observer sees the stream one event at a time.
        let mut per_event = Vec::new();
        let mut per_event_obs = |icount: u64, event: &TraceEvent| per_event.push((icount, *event));
        let mut batched = BatchCollect::default();
        open(bytes.clone())
            .replay(&mut [&mut per_event_obs, &mut batched])
            .expect("replay");
        assert_eq!(per_event, flat);
        assert_eq!(batched.events, flat);
        assert!(batched.batches > 3, "one batch per block");
        let mut batched_par = BatchCollect::default();
        open(bytes)
            .par_replay(&mut [&mut batched_par])
            .expect("par");
        assert_eq!(batched_par.events, flat);
    }
}

#[test]
fn corrupt_compressed_block_payload_is_skipped_not_fatal() {
    let (mut bytes, flat) = pack_compressed(512, 9);
    let reader = open(bytes.clone());
    let index: Vec<_> = reader.index().to_vec();
    drop(reader);
    assert!(index.len() >= 2, "need multiple blocks");
    let meta = index[1];
    let payload_at = meta.offset as usize + FRAME_LEN;
    // Flip a stored byte *and* re-stamp the frame checksum so the
    // damage reaches the decompressor (not just the checksum check):
    // the decompressor must fail typed, and replay must skip only this
    // block.
    bytes[payload_at + meta.payload_len as usize / 2] ^= 0x41;
    let restamped =
        spm_store::format::fnv1a64(&bytes[payload_at..payload_at + meta.payload_len as usize]);
    bytes[meta.offset as usize + 32..meta.offset as usize + 40]
        .copy_from_slice(&restamped.to_le_bytes());

    let mut got = Vec::new();
    let report = open(bytes).replay(&mut [&mut got]).expect("replay");
    assert!(report.skipped.len() <= 1, "at most the damaged block");
    assert_eq!(
        report.events + report.skipped_events(),
        flat.len() as u64,
        "every event is either delivered or accounted to a skip"
    );
    if let Some(skip) = report.skipped.first() {
        assert_eq!(skip.block, 1);
    }
}

#[test]
fn truncated_compressed_block_recovers_prefix() {
    let (bytes, flat) = pack_compressed(512, 31);
    let reader = open(bytes.clone());
    let index: Vec<_> = reader.index().to_vec();
    drop(reader);
    assert!(index.len() >= 3);
    // Cut mid-way through the third block's stored payload: recovery
    // must keep exactly the first two blocks.
    let victim = index[2];
    let cut_at = victim.offset as usize + FRAME_LEN + victim.payload_len as usize / 2;
    let mut torn = bytes;
    torn.truncate(cut_at);
    let mut reader = StoreReader::from_bytes(torn).expect("recovering open");
    assert!(reader.info().recovered_index);
    assert_eq!(reader.info().blocks, 2);
    let mut got = Vec::new();
    let report = reader.replay(&mut [&mut got]).expect("replay");
    assert!(report.is_clean());
    assert_eq!(got, flat[..index[1].end_seq() as usize]);
}

#[test]
fn file_replay_matches_in_memory_replay() {
    for pack_fn in [pack as fn(_, _) -> _, pack_compressed] {
        let (bytes, flat) = pack_fn(512, 77);
        let mut got = Vec::new();
        let report = open_file(&bytes)
            .replay(&mut [&mut got])
            .expect("file replay");
        assert!(report.is_clean());
        assert_eq!(got, flat);
        let mut par = Vec::new();
        open_file(&bytes)
            .par_replay(&mut [&mut par])
            .expect("file par");
        assert_eq!(par, flat);
        let mut seek = Vec::new();
        let mid = (flat.len() / 2) as u64;
        open_file(&bytes)
            .replay_from_seq(mid, &mut [&mut seek])
            .expect("file seek");
        assert_eq!(&seek[..], &flat[mid as usize..]);
    }
}

/// A small store of `Call` events cut into 64-byte blocks.
fn call_store() -> (Vec<u8>, Vec<(u64, TraceEvent)>) {
    let events: Vec<_> = (0..100u64)
        .map(|i| (i, TraceEvent::Call { proc: ProcId(1) }))
        .collect();
    let mut bytes = Vec::new();
    let mut writer = StoreWriter::with_block_budget(&mut bytes, 64);
    writer.on_batch(&events);
    writer.finish().expect("finish");
    (bytes, events)
}

/// Overwrites the footer's index checksum to match the index bytes, so
/// a crafted index passes verification.
fn restamp_index_checksum(bytes: &mut [u8], index_offset: usize) {
    let footer_at = bytes.len() - FOOTER_LEN;
    let checksum = fnv1a64(&bytes[index_offset..footer_at]);
    bytes[footer_at + 32..footer_at + 40].copy_from_slice(&checksum.to_le_bytes());
}

#[test]
fn over_long_last_block_is_skipped_alike_from_file_and_from_bytes() {
    let (mut bytes, events) = call_store();
    let index = open(bytes.clone()).index().to_vec();
    assert!(index.len() >= 3, "the budget must force several blocks");
    let victim = index.len() - 1;
    let last = index[victim];
    // Declare a payload running past EOF in both the frame and the
    // index entry, keeping the index checksum valid.
    let past_eof = (bytes.len() as u32).to_le_bytes();
    let frame_at = last.offset as usize;
    bytes[frame_at..frame_at + 4].copy_from_slice(&past_eof);
    let index_offset = (last.offset + FRAME_LEN as u64 + u64::from(last.payload_len)) as usize;
    let entry_at = index_offset + victim * INDEX_ENTRY_LEN;
    bytes[entry_at + 36..entry_at + 40].copy_from_slice(&past_eof);
    restamp_index_checksum(&mut bytes, index_offset);

    let mut from_file = Vec::new();
    let file_report = open_file(&bytes)
        .replay(&mut [&mut from_file])
        .expect("replay");
    let mut in_memory = Vec::new();
    let mut reader = open(bytes);
    assert!(!reader.info().recovered_index, "the crafted index verifies");
    let report = reader.replay(&mut [&mut in_memory]).expect("replay");
    assert_eq!(file_report, report);
    assert_eq!(from_file, in_memory);
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.skipped[0].block, victim as u64);
    assert_eq!(in_memory, events[..last.first_seq as usize]);
}

#[test]
fn footer_whose_index_range_wraps_u64_falls_back_to_recovery() {
    let (mut bytes, events) = call_store();
    let footer_at = bytes.len() - FOOTER_LEN;
    // `index_offset + block_count * 40` wraps around u64 to exactly the
    // footer's position; the footer carries no checksum of its own.
    let block_count = 1u64 << 58;
    let index_offset = (footer_at as u64).wrapping_sub(block_count * INDEX_ENTRY_LEN as u64);
    bytes[footer_at..footer_at + 8].copy_from_slice(&index_offset.to_le_bytes());
    bytes[footer_at + 8..footer_at + 16].copy_from_slice(&block_count.to_le_bytes());
    for mut reader in [open_file(&bytes), open(bytes.clone())] {
        assert!(reader.info().recovered_index);
        assert_eq!(reader.info().events, events.len() as u64);
        let mut got = Vec::new();
        let report = reader.replay(&mut [&mut got]).expect("replay");
        assert!(report.is_clean());
        assert_eq!(got, events);
    }
}

#[test]
fn short_header_files_are_typed_errors() {
    // Every truncation of the 16-byte header (and a valid-prefix file
    // cut inside it) must produce a typed Corrupt error, never a panic.
    let (bytes, _) = pack(512, 1);
    for len in 0..spm_store::format::HEADER_LEN {
        let err =
            StoreReader::from_bytes(bytes[..len].to_vec()).expect_err("short header must not open");
        assert!(
            matches!(err, spm_store::StoreError::Corrupt { .. }),
            "len {len}: {err}"
        );
    }
}

#[test]
fn unknown_compression_byte_is_rejected() {
    let (mut bytes, _) = pack(512, 1);
    bytes[spm_store::format::COMPRESSION_OFFSET] = 0x7e;
    let err = StoreReader::from_bytes(bytes).expect_err("unknown codec");
    assert!(matches!(err, spm_store::StoreError::Corrupt { .. }));
    assert!(err.to_string().contains("126"), "{err}");
}

#[test]
fn empty_stream_round_trips() {
    let mut bytes = Vec::new();
    let writer = StoreWriter::new(&mut bytes);
    let summary = writer.finish().expect("finish empty");
    assert_eq!(summary.blocks, 0);
    assert_eq!(summary.events, 0);
    assert_eq!(
        summary.file_bytes as usize,
        spm_store::format::HEADER_LEN + FOOTER_LEN
    );
    let mut reader = open(bytes);
    let mut got = Vec::new();
    let report = reader.replay(&mut [&mut got]).expect("replay empty");
    assert!(report.is_clean());
    assert!(got.is_empty());
}

#[test]
fn bad_blocks_in_a_verification_group_are_skipped_alone() {
    // Sequential replay checksums blocks four at a time. A bad block in
    // the middle of a group, and the last block of a trailing partial
    // group, must each be skipped alone while their group neighbours
    // are delivered, in block order.
    let (mut bytes, flat) = pack(256, 42);
    let index = open(bytes.clone()).index().to_vec();
    assert!(index.len() >= 10, "{} blocks", index.len());
    let last = index.len() - 1;
    assert_ne!(index.len() % 4, 0, "the last group must be partial");
    let victims = [5, last];
    for &victim in &victims {
        // One flipped payload byte: the block fails its own checksum.
        let meta = index[victim];
        bytes[meta.offset as usize + FRAME_LEN + meta.payload_len as usize / 2] ^= 0x20;
    }
    let kept = |seq: usize| {
        victims
            .iter()
            .all(|&v| (seq as u64) < index[v].first_seq || (seq as u64) >= index[v].end_seq())
    };
    let expected: Vec<_> = (0..flat.len())
        .filter(|&i| kept(i))
        .map(|i| flat[i])
        .collect();

    for mut reader in [open(bytes.clone()), open_file(&bytes)] {
        let mut got = Vec::new();
        let report = reader.replay(&mut [&mut got]).expect("replay");
        let skipped: Vec<_> = report.skipped.iter().map(|s| s.block).collect();
        assert_eq!(skipped, [5, last as u64]);
        for s in &report.skipped {
            assert!(
                matches!(
                    s.error,
                    spm_sim::record::DecodeError::ChecksumMismatch { .. }
                ),
                "{s:?}"
            );
            assert_eq!(s.events, u64::from(index[s.block as usize].events));
        }
        assert_eq!(report.blocks, index.len() as u64 - 2);
        assert_eq!(got, expected);

        // Seeking into the middle of a block (groups then start at the
        // seek block), a bad one included, delivers the same suffix.
        for block in [4, 5, 6, 7, last - 1] {
            let seq = index[block].first_seq + u64::from(index[block].events) / 2;
            let mut tail = Vec::new();
            let report = reader
                .replay_from_seq(seq, &mut [&mut tail])
                .expect("seek replay");
            let suffix: Vec<_> = (seq as usize..flat.len())
                .filter(|&i| kept(i))
                .map(|i| flat[i])
                .collect();
            assert_eq!(tail, suffix, "from block {block}");
            assert_eq!(
                report.skipped.iter().map(|s| s.block).collect::<Vec<_>>(),
                victims
                    .iter()
                    .filter(|&&v| v >= block)
                    .map(|&v| v as u64)
                    .collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn end_watermark_mismatch_is_an_icount_error() {
    let (bytes, _) = pack(512, 9);
    let meta = open(bytes.clone()).index()[0];
    let at = meta.offset as usize + FRAME_LEN;
    let payload = &bytes[at..at + meta.payload_len as usize];
    assert!(spm_store::decode_block(payload, meta, Compression::None).is_ok());
    let off_by_one = spm_store::format::BlockMeta {
        end_icount: meta.end_icount + 1,
        ..meta
    };
    let err = spm_store::decode_block(payload, off_by_one, Compression::None)
        .expect_err("watermark disagrees");
    assert_eq!(
        err,
        spm_sim::record::DecodeError::IcountMismatch {
            declared: meta.end_icount + 1,
            actual: meta.end_icount,
        }
    );
    let text = err.to_string();
    assert!(text.contains("instruction count mismatch"), "{text}");
    assert!(!text.contains("events"), "{text}");
}
