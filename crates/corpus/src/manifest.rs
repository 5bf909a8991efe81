//! Run manifests: the `spm-corpus/run/v1` JSON document that records
//! one ingested run — its workload/input/seed/label coordinates and the
//! content keys of its artifacts.
//!
//! Manifests are written deterministically (fixed key order, fixed
//! number formatting) so that identical runs produce identical bytes:
//! the dedupe contract of the corpus rests on this file's encoder.

use spm_obs::jsonl::{parse, push_json_str, Json};
use spm_store::format::fnv1a64;
use std::fmt;

/// Schema identifier of a run manifest.
pub const RUN_SCHEMA: &str = "spm-corpus/run/v1";

/// Formats a content key the way the corpus names objects: 16 lowercase
/// hex digits (also the format of `spm info`'s `key=` line).
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Parses a [`key_hex`]-formatted content key.
pub fn parse_key(hex: &str) -> Option<u64> {
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The kinds of artifact one run may carry (at most one of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// A packed `spmstk01` trace container, keyed by its
    /// [`content_key`](spm_store::StoreReader::content_key).
    Store,
    /// An `spm-obs` JSONL metrics/spans/profile stream (schema v1/v2).
    Metrics,
    /// A selected-marker file (`markers v1` text format).
    Markers,
    /// A phase-partition table (`begin\tend\tphase\t...` TSV).
    Partition,
    /// An `all_figures` bench report
    /// ([`spm_report::bench::BENCH_REPORT_SCHEMA`]).
    BenchReport,
}

impl ArtifactKind {
    /// Every kind, in the canonical manifest order.
    pub const ALL: [ArtifactKind; 5] = [
        ArtifactKind::Store,
        ArtifactKind::Metrics,
        ArtifactKind::Markers,
        ArtifactKind::Partition,
        ArtifactKind::BenchReport,
    ];

    /// The manifest (and CLI flag) name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Store => "store",
            ArtifactKind::Metrics => "metrics",
            ArtifactKind::Markers => "markers",
            ArtifactKind::Partition => "partition",
            ArtifactKind::BenchReport => "bench-report",
        }
    }

    /// Parses a manifest kind name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One stored artifact of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Artifact {
    /// What the blob is.
    pub kind: ArtifactKind,
    /// Content key — the blob lives at `objects/<key_hex(object)>`.
    pub object: u64,
    /// Size of the blob in bytes.
    pub bytes: u64,
}

/// One ingested run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Content-derived run identity (see [`RunManifest::identity`]).
    pub run_id: u64,
    /// Ingest sequence number (1-based, monotonically increasing per
    /// corpus): the corpus-wide "when" axis of trajectory and
    /// regression queries. Re-ingesting an existing run keeps its
    /// original number.
    pub seq: u64,
    /// Workload name the run belongs to (stability groups by this).
    pub workload: String,
    /// Input name (`-` when not applicable, e.g. bench-suite runs).
    pub input: String,
    /// Input seed the run used.
    pub seed: u64,
    /// Free-form display label.
    pub label: String,
    /// The run's artifacts, sorted by kind, at most one per kind.
    pub artifacts: Vec<Artifact>,
}

/// `s` as a quoted, escaped JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

fn str_field(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn int_field(doc: &Json, key: &str) -> Result<u64, String> {
    match doc.get(key).and_then(Json::as_num) {
        Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(format!("missing or non-integer `{key}`")),
    }
}

fn key_field(doc: &Json, key: &str) -> Result<u64, String> {
    let hex = str_field(doc, key)?;
    parse_key(&hex).ok_or_else(|| format!("`{key}` is not a 16-hex-digit content key: `{hex}`"))
}

impl RunManifest {
    /// The content-derived identity of a run: FNV-1a-64 over its
    /// coordinates and the content keys of its artifacts. Two `add`s of
    /// byte-identical outputs produce the same id (the dedupe no-op);
    /// any changed artifact — a one-byte-different container — produces
    /// a new one.
    pub fn identity(
        workload: &str,
        input: &str,
        seed: u64,
        label: &str,
        artifacts: &[Artifact],
    ) -> u64 {
        let mut id = format!("{workload}\u{0}{input}\u{0}{seed}\u{0}{label}");
        for a in artifacts {
            id.push('\u{0}');
            id.push_str(a.kind.name());
            id.push('=');
            id.push_str(&key_hex(a.object));
        }
        fnv1a64(id.as_bytes())
    }

    /// The artifact of the given kind, if the run carries one.
    pub fn artifact(&self, kind: ArtifactKind) -> Option<&Artifact> {
        self.artifacts.iter().find(|a| a.kind == kind)
    }

    /// Renders the manifest as its canonical (deterministic) JSON
    /// document, trailing newline included.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str(RUN_SCHEMA)));
        out.push_str(&format!("  \"run\": \"{}\",\n", key_hex(self.run_id)));
        out.push_str(&format!("  \"seq\": {},\n", self.seq));
        out.push_str(&format!("  \"workload\": {},\n", json_str(&self.workload)));
        out.push_str(&format!("  \"input\": {},\n", json_str(&self.input)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"label\": {},\n", json_str(&self.label)));
        out.push_str("  \"artifacts\": [\n");
        for (i, a) in self.artifacts.iter().enumerate() {
            let comma = if i + 1 < self.artifacts.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"kind\": {}, \"object\": \"{}\", \"bytes\": {}}}{comma}\n",
                json_str(a.kind.name()),
                key_hex(a.object),
                a.bytes,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a manifest document, checking the schema tag, the
    /// artifact ordering invariant, and that the recorded run id
    /// matches the recomputed identity.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn parse(text: &str) -> Result<RunManifest, String> {
        let doc = parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(RUN_SCHEMA) => {}
            Some(other) => return Err(format!("schema is `{other}`, expected `{RUN_SCHEMA}`")),
            None => return Err("missing `schema`".into()),
        }
        let run_id = key_field(&doc, "run")?;
        let seq = int_field(&doc, "seq")?;
        let workload = str_field(&doc, "workload")?;
        let input = str_field(&doc, "input")?;
        let seed = int_field(&doc, "seed")?;
        let label = str_field(&doc, "label")?;
        let Some(Json::Arr(entries)) = doc.get("artifacts") else {
            return Err("missing `artifacts` array".into());
        };
        if entries.is_empty() {
            return Err("`artifacts` is empty".into());
        }
        let mut artifacts = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let at = |message: String| format!("artifacts[{i}]: {message}");
            let kind_name = str_field(entry, "kind").map_err(&at)?;
            let kind = ArtifactKind::from_name(&kind_name)
                .ok_or_else(|| at(format!("unknown kind `{kind_name}`")))?;
            let object = key_field(entry, "object").map_err(&at)?;
            let bytes = int_field(entry, "bytes").map_err(&at)?;
            artifacts.push(Artifact {
                kind,
                object,
                bytes,
            });
        }
        if !artifacts.windows(2).all(|w| w[0].kind < w[1].kind) {
            return Err("artifacts are not sorted by kind (or a kind repeats)".into());
        }
        let expected = RunManifest::identity(&workload, &input, seed, &label, &artifacts);
        if expected != run_id {
            return Err(format!(
                "run id `{}` does not match the recomputed identity `{}`",
                key_hex(run_id),
                key_hex(expected),
            ));
        }
        Ok(RunManifest {
            run_id,
            seq,
            workload,
            input,
            seed,
            label,
            artifacts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let artifacts = vec![
            Artifact {
                kind: ArtifactKind::Store,
                object: 0x1234_5678_9abc_def0,
                bytes: 4096,
            },
            Artifact {
                kind: ArtifactKind::Markers,
                object: 0x0fed_cba9_8765_4321,
                bytes: 64,
            },
        ];
        let run_id =
            RunManifest::identity("gzip", "train", 464801, "gzip/train#464801", &artifacts);
        RunManifest {
            run_id,
            seq: 3,
            workload: "gzip".into(),
            input: "train".into(),
            seed: 464801,
            label: "gzip/train#464801".into(),
            artifacts,
        }
    }

    #[test]
    fn encode_parse_round_trips() {
        let m = sample();
        let text = m.encode();
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        // Canonical encoding is a fixed point.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn identity_is_stable_and_content_sensitive() {
        let m = sample();
        let same = RunManifest::identity(&m.workload, &m.input, m.seed, &m.label, &m.artifacts);
        assert_eq!(same, m.run_id);
        // Any changed artifact key changes the identity.
        let mut changed = m.artifacts.clone();
        changed[0].object ^= 1;
        let other = RunManifest::identity(&m.workload, &m.input, m.seed, &m.label, &changed);
        assert_ne!(other, m.run_id);
        // So does any changed coordinate.
        let other =
            RunManifest::identity(&m.workload, &m.input, m.seed + 1, &m.label, &m.artifacts);
        assert_ne!(other, m.run_id);
    }

    #[test]
    fn tampered_run_id_is_rejected() {
        let mut m = sample();
        m.run_id ^= 0xff;
        let err = RunManifest::parse(&m.encode()).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn unsorted_or_duplicate_kinds_are_rejected() {
        let mut m = sample();
        m.artifacts.swap(0, 1);
        m.run_id = RunManifest::identity(&m.workload, &m.input, m.seed, &m.label, &m.artifacts);
        let err = RunManifest::parse(&m.encode()).unwrap_err();
        assert!(err.contains("sorted"), "{err}");
    }

    #[test]
    fn strings_are_escaped() {
        let mut m = sample();
        m.label = "a\"b\\c\nd".into();
        m.run_id = RunManifest::identity(&m.workload, &m.input, m.seed, &m.label, &m.artifacts);
        let back = RunManifest::parse(&m.encode()).unwrap();
        assert_eq!(back.label, m.label);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in ArtifactKind::ALL {
            assert_eq!(ArtifactKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ArtifactKind::from_name("nope"), None);
    }

    #[test]
    fn key_hex_is_16_lowercase_digits() {
        assert_eq!(key_hex(0xABC), "0000000000000abc");
        assert_eq!(parse_key("0000000000000abc"), Some(0xabc));
        assert_eq!(parse_key("abc"), None);
        assert_eq!(parse_key("zzzzzzzzzzzzzzzz"), None);
    }
}
