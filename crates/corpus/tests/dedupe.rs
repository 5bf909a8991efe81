//! Round-trip and dedupe guarantees of `corpus add`: re-ingesting an
//! unchanged run changes zero bytes on disk, and a one-byte-different
//! container produces a new object key and a new run identity.

use proptest::prelude::*;
use spm_corpus::{add, ArtifactKind, Corpus, RunSpec};
use spm_ir::{Input, Program, ProgramBuilder, Trip};
use spm_sim::run;
use spm_store::format::{fnv1a64, FRAME_LEN};
use spm_store::{StoreReader, StoreWriter};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn program() -> Program {
    let mut b = ProgramBuilder::new("dedupe");
    b.proc("main", |p| {
        p.loop_(Trip::Fixed(40), |body| {
            body.if_prob(0.5, |t| t.call("work"), |e| e.block(11).done());
        });
    });
    b.proc("work", |p| {
        p.block(5).done();
        p.loop_(Trip::Fixed(3), |inner| {
            inner.block(2).done();
        });
    });
    b.build("main").expect("valid program")
}

/// Simulates the program into an `spmstk01` container.
fn pack(seed: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = StoreWriter::with_block_budget(&mut bytes, 256);
    run(&program(), &Input::new("t", seed), &mut [&mut writer]).expect("sim run");
    writer.finish().expect("finish");
    bytes
}

/// Every file under `dir` with its content checksum — the "what would
/// git see" view used to prove a dedup add is a byte-level no-op.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, u64> {
    fn walk(dir: &Path, out: &mut BTreeMap<PathBuf, u64>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.insert(path.clone(), fnv1a64(&std::fs::read(&path).expect("read")));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, &mut out);
    out
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spm-corpus-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write(dir: &Path, name: &str, bytes: &[u8]) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write artifact");
    path
}

fn spec(seed: u64, artifacts: Vec<(ArtifactKind, PathBuf)>) -> RunSpec {
    RunSpec {
        workload: "dedupe".into(),
        input: "train".into(),
        seed,
        label: format!("dedupe/train#{seed}"),
        artifacts,
    }
}

const MARKERS: &str = "markers v1\nedge root p0.head\ngroup 2 40\n";
const METRICS: &str = concat!(
    r#"{"v":1,"kind":"span","name":"sim/run","dur_us":10000,"fields":{}}"#,
    "\n",
    r#"{"v":1,"kind":"span","name":"bbv/collect","dur_us":2000,"fields":{}}"#,
    "\n",
);
const PARTITION: &str = "begin\tend\tphase\tcpi\tdl1_miss\n0\t99\t0\t1.10\t0.02\n";

#[test]
fn re_ingesting_an_unchanged_run_is_a_byte_level_no_op() {
    let work = TempDir::new("noop-work");
    let corpus = TempDir::new("noop-corpus");
    let store = write(work.path(), "run.spmstk", &pack(42));
    let markers = write(work.path(), "markers.txt", MARKERS.as_bytes());
    let metrics = write(work.path(), "metrics.jsonl", METRICS.as_bytes());
    let partition = write(work.path(), "partition.tsv", PARTITION.as_bytes());
    let spec = spec(
        1,
        vec![
            (ArtifactKind::Store, store),
            (ArtifactKind::Markers, markers),
            (ArtifactKind::Metrics, metrics),
            (ArtifactKind::Partition, partition),
        ],
    );

    let first = add(corpus.path(), &spec).expect("first add");
    assert!(!first.deduplicated);
    assert_eq!(first.seq, 1);
    assert_eq!(first.new_objects, 4);
    assert_eq!(first.dedup_objects, 0);
    assert!(first.bytes_written > 0);

    let before = snapshot(corpus.path());
    let second = add(corpus.path(), &spec).expect("second add");
    assert!(second.deduplicated, "unchanged run must dedup");
    assert_eq!(second.run_id, first.run_id);
    assert_eq!(second.seq, first.seq, "dedup keeps the original seq");
    assert_eq!(second.new_objects, 0);
    assert_eq!(second.dedup_objects, 4);
    assert_eq!(second.bytes_written, 0);
    assert_eq!(snapshot(corpus.path()), before, "no byte may change");

    let loaded = Corpus::load(corpus.path()).expect("load");
    assert_eq!(loaded.runs().len(), 1);
    assert_eq!(loaded.runs()[0].run_id, first.run_id);
}

#[test]
fn shared_artifacts_dedup_across_distinct_runs() {
    let work = TempDir::new("shared-work");
    let corpus = TempDir::new("shared-corpus");
    let store = write(work.path(), "run.spmstk", &pack(42));
    let markers = write(work.path(), "markers.txt", MARKERS.as_bytes());
    let one = spec(
        1,
        vec![
            (ArtifactKind::Store, store.clone()),
            (ArtifactKind::Markers, markers.clone()),
        ],
    );
    let two = spec(
        2,
        vec![
            (ArtifactKind::Store, store),
            (ArtifactKind::Markers, markers),
        ],
    );
    let first = add(corpus.path(), &one).expect("first add");
    let second = add(corpus.path(), &two).expect("second add");
    assert_ne!(first.run_id, second.run_id, "seed is part of the identity");
    assert_eq!(second.seq, 2);
    assert!(!second.deduplicated, "a new seed is a new run");
    assert_eq!(second.new_objects, 0, "but its blobs are all shared");
    assert_eq!(second.dedup_objects, 2);
    assert_eq!(second.bytes_written, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any single-byte flip in a committed block payload re-keys the
    /// container: the corpus stores a new object and a new run identity
    /// rather than silently aliasing the mutated trace to the old one.
    #[test]
    fn mutated_container_gets_a_fresh_key_and_run_id(seed in 0u64..1000, flip in any::<u8>()) {
        let work = TempDir::new(&format!("mutate-work-{seed}-{flip}"));
        let corpus = TempDir::new(&format!("mutate-corpus-{seed}-{flip}"));
        let bytes = pack(seed);
        let meta = StoreReader::from_bytes(bytes.clone()).expect("open").index()[0];
        let mut mutated = bytes.clone();
        let at = meta.offset as usize + FRAME_LEN;
        mutated[at] ^= if flip == 0 { 1 } else { flip };

        let store = write(work.path(), "run.spmstk", &bytes);
        let outcome = add(corpus.path(), &spec(1, vec![(ArtifactKind::Store, store.clone())]))
            .expect("clean add");
        std::fs::write(&store, &mutated).expect("overwrite with mutated container");
        let changed = add(corpus.path(), &spec(1, vec![(ArtifactKind::Store, store)]))
            .expect("mutated add");

        prop_assert_ne!(changed.run_id, outcome.run_id);
        prop_assert!(!changed.deduplicated);
        prop_assert_eq!(changed.new_objects, 1);
        let loaded = Corpus::load(corpus.path()).expect("load");
        prop_assert_eq!(loaded.runs().len(), 2);
        prop_assert_ne!(
            loaded.runs()[0].artifacts[0].object,
            loaded.runs()[1].artifacts[0].object
        );
    }
}
