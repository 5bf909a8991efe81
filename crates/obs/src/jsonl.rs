//! The versioned JSONL encoding of the event stream, plus a
//! dependency-free parser/validator for consumers and tests.
//!
//! One event per line. Every line is a JSON object carrying at least:
//!
//! | key      | type   | meaning                                     |
//! |----------|--------|---------------------------------------------|
//! | `v`      | number | schema version ([`SCHEMA_VERSION`])          |
//! | `kind`   | string | `span`, `counter`, `gauge`, `hist`, `warning`|
//! | `name`   | string | hierarchical event name                      |
//! | `fields` | object | free-form key/value context                  |
//!
//! Kind-specific keys: `dur_us` (span), `value` (counter, gauge),
//! `count` + `buckets` (hist, with `buckets` an array of
//! `[lo, hi_exclusive, count]` triples), and `count` (sample, schema
//! v2+, with the folded stack in the `stack` field). JSON has no
//! NaN/Inf literals,
//! so the encoder writes non-finite floats as `null` — and
//! [`validate_line`] *rejects* such lines: a NaN metric is a bug in the
//! emitter (an unguarded division, an empty statistic), not a value a
//! consumer can aggregate, so emitters must guard non-finite values at
//! the source. The contract is documented in DESIGN.md §9.

use crate::event::{Event, EventKind, Value, MIN_SCHEMA_VERSION, SCHEMA_VERSION};
use crate::recorder::Recorder;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Serializes one event as a single JSON line (no trailing newline).
pub fn encode(event: &Event) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"v\":");
    let _ = write!(out, "{SCHEMA_VERSION}");
    out.push_str(",\"kind\":\"");
    out.push_str(event.kind.tag());
    out.push_str("\",\"name\":");
    push_json_str(&mut out, &event.name);
    match &event.kind {
        EventKind::Span { dur_us } => {
            let _ = write!(out, ",\"dur_us\":{dur_us}");
        }
        EventKind::Counter { value } => {
            let _ = write!(out, ",\"value\":{value}");
        }
        EventKind::Gauge { value } => {
            out.push_str(",\"value\":");
            push_json_f64(&mut out, *value);
        }
        EventKind::Histogram { count, buckets } => {
            let _ = write!(out, ",\"count\":{count},\"buckets\":[");
            for (i, (lo, hi, c)) in buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{hi},{c}]");
            }
            out.push(']');
        }
        EventKind::Warning => {}
        EventKind::Sample { count } => {
            let _ = write!(out, ",\"count\":{count}");
        }
    }
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in event.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, k);
        out.push(':');
        match v {
            Value::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Value::F64(x) => push_json_f64(&mut out, *x),
            Value::Str(s) => push_json_str(&mut out, s),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
    out.push_str("}}");
    out
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
        // `{}` omits the decimal point for integral floats; keep the
        // value unambiguously a number either way (JSON: both fine).
    } else {
        out.push_str("null");
    }
}

/// A [`Recorder`] writing the JSONL encoding to a file, line-buffered
/// behind a mutex. `spans_only` restricts output to span events (the
/// CLI's `--spans` flag).
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
    spans_only: bool,
}

impl JsonlSink {
    /// Creates (truncates) `path` and writes every event to it.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            spans_only: false,
        })
    }

    /// Creates (truncates) `path` and writes only span events to it.
    pub fn create_spans_only(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            spans_only: true,
        })
    }
}

impl Recorder for JsonlSink {
    fn record(&self, event: &Event) {
        if self.spans_only && !matches!(event.kind, EventKind::Span { .. }) {
            return;
        }
        let line = encode(event);
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Metric output is best-effort; a full disk must not take the
        // pipeline down with it.
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .flush();
    }
}

// ---------------------------------------------------------------------
// Parsing / validation
// ---------------------------------------------------------------------

/// A parsed JSON value (the subset the schema uses; no nested escapes
/// beyond the standard ones).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Nesting depth (arrays and objects) at which [`parse`] gives up. The
/// parser recurses once per level, so without a cap a hostile document
/// of nothing but `[` overflows the stack; the deepest document the
/// repository writes nests 4 levels.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (used on one JSONL line at a time).
///
/// # Errors
///
/// A description of the first syntax error, or of nesting that reaches
/// `MAX_DEPTH` (128) levels.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object one level deeper, refusing to reach
    /// `MAX_DEPTH`.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth + 1 >= MAX_DEPTH {
            return Err(format!(
                "nesting reaches {MAX_DEPTH} levels at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}`"))
    }
}

/// Validates one JSONL line against the event schema: parses it, checks
/// the version stamp, the kind tag, and the kind-specific keys. Returns
/// the parsed object for further inspection.
///
/// Non-finite numbers are rejected everywhere one is expected: a
/// `null` (the encoding of NaN/Inf) or an overflowed literal (`1e999`
/// parses to Inf) in a `value`, `dur_us`, bucket triple, or field
/// value fails validation, because a non-finite metric cannot be
/// aggregated and always indicates an unguarded emitter.
pub fn validate_line(line: &str) -> Result<Json, String> {
    let doc = parse(line)?;
    let v = doc
        .get("v")
        .and_then(Json::as_num)
        .ok_or("missing schema version `v`")?;
    if v < MIN_SCHEMA_VERSION as f64 || v > SCHEMA_VERSION as f64 || v.fract() != 0.0 {
        return Err(format!("unknown schema version {v}"));
    }
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing `kind`")?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing `name`")?;
    if name.is_empty() {
        return Err("empty `name`".into());
    }
    let Some(Json::Obj(fields)) = doc.get("fields") else {
        return Err("missing `fields` object".into());
    };
    for (key, value) in fields {
        match value {
            Json::Null => {
                return Err(format!("field `{key}` is null (non-finite float?)"));
            }
            Json::Num(n) if !n.is_finite() => {
                return Err(format!("field `{key}` is non-finite"));
            }
            _ => {}
        }
    }
    let finite = |key: &'static str| -> Result<f64, String> {
        match doc.get(key) {
            Some(Json::Num(n)) if n.is_finite() => Ok(*n),
            Some(Json::Null) => Err(format!("{kind} `{key}` is null (non-finite float?)")),
            Some(Json::Num(_)) => Err(format!("{kind} `{key}` is non-finite")),
            _ => Err(format!("{kind} without numeric `{key}`")),
        }
    };
    match kind {
        "span" => {
            finite("dur_us")?;
        }
        "counter" | "gauge" => {
            finite("value")?;
        }
        "hist" => {
            finite("count")?;
            let Some(Json::Arr(buckets)) = doc.get("buckets") else {
                return Err("hist without `buckets`".into());
            };
            for b in buckets {
                let Json::Arr(triple) = b else {
                    return Err("bucket is not an array".into());
                };
                if triple.len() != 3
                    || triple
                        .iter()
                        .any(|x| !x.as_num().is_some_and(f64::is_finite))
                {
                    return Err("bucket is not a finite [lo,hi,count] triple".into());
                }
            }
        }
        "warning" => {}
        "sample" => {
            if v < 2.0 {
                return Err("`sample` kind requires schema v2".into());
            }
            finite("count")?;
            match doc.get("fields").and_then(|f| f.get("stack")) {
                Some(Json::Str(s)) if !s.is_empty() => {}
                _ => return Err("sample without a `stack` field".into()),
            }
        }
        other => return Err(format!("unknown kind `{other}`")),
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::histogram_kind;
    use spm_stats::LogHistogram;

    #[test]
    fn encode_and_validate_every_kind() {
        let mut hist = LogHistogram::new();
        hist.extend([10u64, 20, 40_000]);
        let events = vec![
            Event::new("cli/select", EventKind::Span { dur_us: 1234 }).with("workload", "gzip"),
            Event::new("select/markers", EventKind::Counter { value: 11 }),
            Event::new("select/cov_threshold", EventKind::Gauge { value: 0.0731 })
                .with("avg_cov", 0.05)
                .with("std_cov", 0.02),
            Event::new("partition/vli_lengths", histogram_kind(&hist)),
            Event::new("fallback", EventKind::Warning)
                .with("reason", "no-markers")
                .with("interval", 10_000u64),
            Event::new("prof/sample", EventKind::Sample { count: 42 })
                .with("stack", "cli/select;sim/run"),
        ];
        for e in &events {
            let line = encode(e);
            let doc = validate_line(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(doc.get("kind").and_then(Json::as_str), Some(e.kind.tag()));
            assert_eq!(
                doc.get("name").and_then(Json::as_str),
                Some(e.name.as_str())
            );
        }
    }

    #[test]
    fn strings_escape_round_trip() {
        let e = Event::new("weird\"name\\with\nnewline", EventKind::Warning)
            .with("msg", "tab\there \u{1} done");
        let line = encode(&e);
        let doc = validate_line(&line).unwrap();
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("weird\"name\\with\nnewline")
        );
        let fields = doc.get("fields").unwrap();
        assert_eq!(
            fields.get("msg").and_then(Json::as_str),
            Some("tab\there \u{1} done")
        );
    }

    #[test]
    fn non_finite_values_encode_as_null_and_fail_validation() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = Event::new("g", EventKind::Gauge { value: bad });
            let line = encode(&e);
            assert!(line.contains("\"value\":null"), "{line}");
            let err = validate_line(&line).unwrap_err();
            assert!(err.contains("null"), "{err}");
        }
        // Same for a non-finite float riding in a field.
        let e = Event::new("g", EventKind::Gauge { value: 0.5 }).with("avg_cov", f64::NAN);
        let err = validate_line(&encode(&e)).unwrap_err();
        assert!(err.contains("avg_cov"), "{err}");
        // Overflowed literals parse to Inf and must also be rejected.
        let err = validate_line(
            "{\"v\":1,\"kind\":\"gauge\",\"name\":\"x\",\"value\":1e999,\"fields\":{}}",
        )
        .unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn nan_cov_through_the_recorder_is_rejected() {
        // Regression test for unguarded emitters: a degenerate CoV
        // (0/0 division) recorded as a gauge must come out of the sink
        // as a line the validator refuses, not as a silently-null
        // metric a consumer would average over.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("spm-obs-test-nan-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        let zero = spm_stats::Running::new();
        let nan_cov = zero.population_stddev() / zero.mean(); // 0/0 = NaN
        assert!(nan_cov.is_nan());
        sink.record(
            &Event::new("select/cov_threshold", EventKind::Gauge { value: nan_cov })
                .with("avg_cov", nan_cov),
        );
        sink.record(&Event::new(
            "select/cov_threshold",
            EventKind::Gauge { value: 0.05 },
        ));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let verdicts: Vec<Result<Json, String>> = text.lines().map(validate_line).collect();
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts[0].is_err(), "NaN CoV line must fail validation");
        assert!(verdicts[1].is_ok(), "finite CoV line must pass");
    }

    #[test]
    fn validation_rejects_bad_lines() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line("{}").is_err(), "missing version");
        assert!(
            validate_line("{\"v\":99,\"kind\":\"span\",\"name\":\"x\",\"dur_us\":1,\"fields\":{}}")
                .is_err(),
            "unknown version"
        );
        assert!(
            validate_line("{\"v\":1,\"kind\":\"blip\",\"name\":\"x\",\"fields\":{}}").is_err(),
            "unknown kind"
        );
        assert!(
            validate_line("{\"v\":1,\"kind\":\"span\",\"name\":\"x\",\"fields\":{}}").is_err(),
            "span without duration"
        );
        assert!(
            validate_line("{\"v\":1,\"kind\":\"hist\",\"name\":\"x\",\"count\":1,\"buckets\":[[1,2]],\"fields\":{}}")
                .is_err(),
            "bucket pair, not triple"
        );
    }

    #[test]
    fn v1_lines_still_validate_and_samples_require_v2() {
        // Old v1 streams (pre-profiler) must keep validating.
        validate_line("{\"v\":1,\"kind\":\"span\",\"name\":\"x\",\"dur_us\":1,\"fields\":{}}")
            .unwrap();
        // Current-version sample lines validate...
        validate_line(
            "{\"v\":2,\"kind\":\"sample\",\"name\":\"prof/sample\",\"count\":3,\"fields\":{\"stack\":\"a;b\"}}",
        )
        .unwrap();
        // ...but the kind did not exist at v1, needs a count, and needs
        // a non-empty folded stack.
        assert!(validate_line(
            "{\"v\":1,\"kind\":\"sample\",\"name\":\"prof/sample\",\"count\":3,\"fields\":{\"stack\":\"a\"}}"
        )
        .is_err());
        assert!(validate_line(
            "{\"v\":2,\"kind\":\"sample\",\"name\":\"prof/sample\",\"fields\":{\"stack\":\"a\"}}"
        )
        .is_err());
        assert!(validate_line(
            "{\"v\":2,\"kind\":\"sample\",\"name\":\"prof/sample\",\"count\":3,\"fields\":{}}"
        )
        .is_err());
        // Fractional versions are not versions.
        assert!(validate_line(
            "{\"v\":1.5,\"kind\":\"span\",\"name\":\"x\",\"dur_us\":1,\"fields\":{}}"
        )
        .is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        // A hostile line of nothing but openers must fail, not abort.
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let err = parse(&"{\"a\":".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // One level short of the cap still parses, arrays and objects
        // alike; the cap itself does not.
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH - 1)).is_ok());
        assert!(parse(&deep(MAX_DEPTH)).is_err());
        let deep_obj = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH - 1),
            "}".repeat(MAX_DEPTH - 1)
        );
        assert!(parse(&deep_obj).is_ok());
    }

    #[test]
    fn parser_handles_nested_structures() {
        let doc = parse(r#"{"a":[1,2,{"b":null}],"c":-1.5e3,"d":true}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_num), Some(-1500.0));
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
        let Some(Json::Arr(items)) = doc.get("a") else {
            panic!("a is an array")
        };
        assert_eq!(items.len(), 3);
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn jsonl_sink_writes_and_filters() {
        let dir = std::env::temp_dir();
        let all = dir.join(format!("spm-obs-test-all-{}.jsonl", std::process::id()));
        let spans = dir.join(format!("spm-obs-test-spans-{}.jsonl", std::process::id()));
        let sink_all = JsonlSink::create(&all).unwrap();
        let sink_spans = JsonlSink::create_spans_only(&spans).unwrap();
        let span_ev = Event::new("s", EventKind::Span { dur_us: 5 });
        let ctr_ev = Event::new("c", EventKind::Counter { value: 1 });
        for sink in [&sink_all, &sink_spans] {
            sink.record(&span_ev);
            sink.record(&ctr_ev);
            sink.flush();
        }
        let all_text = std::fs::read_to_string(&all).unwrap();
        let spans_text = std::fs::read_to_string(&spans).unwrap();
        assert_eq!(all_text.lines().count(), 2);
        assert_eq!(spans_text.lines().count(), 1);
        for line in all_text.lines().chain(spans_text.lines()) {
            validate_line(line).unwrap();
        }
        std::fs::remove_file(&all).ok();
        std::fs::remove_file(&spans).ok();
    }
}
