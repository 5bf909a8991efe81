//! Hostile bytes into the corpus's two JSON decoders — run manifests
//! (`runs/<id>.json`) and ingested bench reports — must come back as
//! `Ok` or `Err`, never a panic or an abort. Inputs are random bytes,
//! every truncation and random single-byte flips of a valid document,
//! and documents nested far deeper than any the repository writes.

use proptest::collection::vec;
use proptest::prelude::*;
use spm_corpus::{Artifact, ArtifactKind, RunManifest};
use spm_report::bench::validate_bench_report;

/// The committed bench report: a valid document of the current schema.
const REPORT: &str = include_str!("../../../results/BENCH_report.json");

fn manifest() -> String {
    let artifacts = vec![
        Artifact {
            kind: ArtifactKind::Store,
            object: 0x1234_5678_9abc_def0,
            bytes: 4096,
        },
        Artifact {
            kind: ArtifactKind::BenchReport,
            object: 0x0fed_cba9_8765_4321,
            bytes: 2048,
        },
    ];
    RunManifest {
        run_id: RunManifest::identity("gzip", "train", 7, "gzip \"t\"\n", &artifacts),
        seq: 3,
        workload: "gzip".into(),
        input: "train".into(),
        seed: 7,
        label: "gzip \"t\"\n".into(),
        artifacts,
    }
    .encode()
}

/// Runs both decoders over `bytes`; reaching the end is the property.
fn decode_both(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = RunManifest::parse(&text);
    let _ = validate_bench_report(&text);
}

#[test]
fn the_seed_documents_are_valid() {
    let text = manifest();
    assert_eq!(RunManifest::parse(&text).unwrap().encode(), text);
    validate_bench_report(REPORT).unwrap();
}

#[test]
fn every_truncation_decodes_or_fails_typed() {
    for doc in [manifest(), REPORT.to_string()] {
        for cut in 0..doc.len() {
            decode_both(&doc.as_bytes()[..cut]);
        }
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let deep = "[".repeat(100_000);
    assert!(RunManifest::parse(&deep).is_err());
    assert!(validate_bench_report(&deep).is_err());
    // The same depth inside an otherwise valid document.
    let manifest = manifest().replacen("\"artifacts\": [", &format!("\"artifacts\": {deep}"), 1);
    assert!(RunManifest::parse(&manifest).is_err());
    let report = REPORT.replacen("\"runs\": [", &format!("\"runs\": {deep}"), 1);
    assert!(validate_bench_report(&report).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes decode to a value or a typed error.
    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(bytes in vec(any::<u8>(), 0..256)) {
        decode_both(&bytes);
    }

    /// Any single-byte flip of a valid manifest or report decodes or
    /// fails typed.
    #[test]
    fn single_byte_flips_decode_or_fail_typed(
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        for doc in [manifest(), REPORT.to_string()] {
            let mut bytes = doc.into_bytes();
            let i = at % bytes.len();
            bytes[i] ^= mask;
            decode_both(&bytes);
        }
    }
}
