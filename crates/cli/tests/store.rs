//! End-to-end tests of the `spmstk01` store through the binary:
//! `pack`/`record`, `info`, `replay`, store auto-detection on the
//! analysis commands, byte-identity with the live-run paths, and
//! corruption degradation.

use std::path::PathBuf;
use std::process::{Command, Output};

fn spm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spm"))
        .args(args)
        .output()
        .expect("spm binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spm-store-test-{}-{name}", std::process::id()));
    p
}

/// The committed workload corpus the CI gate also runs over.
const WORKLOAD_FILES: &[&str] = &[
    "workloads/art.spm",
    "workloads/example.spm",
    "workloads/gzip.spm",
    "workloads/streamjoin.spm",
];

fn workload_path(rel: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push(rel);
    assert!(p.is_file(), "missing committed workload {rel}");
    p.to_str().expect("utf8 path").to_string()
}

/// Packs `workload` (with the given input) and returns the store path.
fn pack(workload: &str, input: &str, name: &str) -> PathBuf {
    let store = tmp(name);
    let out = spm(&[
        "pack",
        workload,
        "--input",
        input,
        "--out",
        store.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "pack failed: {}", stderr(&out));
    store
}

#[test]
fn pack_and_info_over_committed_workloads() {
    for (i, rel) in WORKLOAD_FILES.iter().enumerate() {
        let wl = workload_path(rel);
        let store = pack(&wl, "train", &format!("golden-{i}.spmstk"));
        let err = stderr(&spm(&[
            "pack",
            &wl,
            "--input",
            "train",
            "--out",
            store.to_str().expect("utf8"),
        ]));
        assert!(err.starts_with("packed "), "{rel}: {err}");
        assert!(err.contains("blocks"), "{rel}: {err}");

        let out = spm(&["info", store.to_str().expect("utf8")]);
        assert!(out.status.success(), "{rel}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("format:        spmstk01"), "{rel}: {text}");
        for field in ["blocks:", "events:", "instructions:", "block dims:"] {
            assert!(text.contains(field), "{rel}: info missing {field}");
        }
        // info is deterministic: two packs of the same run describe
        // the same container byte-for-byte.
        let again = spm(&["info", store.to_str().expect("utf8")]);
        assert_eq!(stdout(&again), text, "{rel}: info not deterministic");
        std::fs::remove_file(&store).ok();
    }
}

#[test]
fn select_from_store_is_byte_identical_to_flat() {
    for (i, rel) in WORKLOAD_FILES.iter().enumerate() {
        let wl = workload_path(rel);
        let store = pack(&wl, "train", &format!("sel-{i}.spmstk"));
        let flat = spm(&["select", &wl]);
        assert!(flat.status.success(), "{rel}: {}", stderr(&flat));
        for jobs in ["1", "4"] {
            let stored = spm(&[
                "select",
                "--store",
                store.to_str().expect("utf8"),
                "--jobs",
                jobs,
            ]);
            assert!(stored.status.success(), "{rel}: {}", stderr(&stored));
            assert_eq!(
                stdout(&stored),
                stdout(&flat),
                "{rel}: store select differs at --jobs {jobs}"
            );
            assert_eq!(
                stderr(&stored),
                stderr(&flat),
                "{rel}: store select stderr differs at --jobs {jobs}"
            );
        }
        std::fs::remove_file(&store).ok();
    }
}

#[test]
fn simpoint_from_store_matches_flat() {
    let wl = workload_path("workloads/example.spm");
    let store = pack(&wl, "ref", "simpoint.spmstk");
    let flat = spm(&["simpoint", &wl]);
    assert!(flat.status.success(), "{}", stderr(&flat));
    let stored = spm(&["simpoint", store.to_str().expect("utf8")]);
    assert!(stored.status.success(), "{}", stderr(&stored));
    assert_eq!(stdout(&stored), stdout(&flat));
    std::fs::remove_file(&store).ok();
}

#[test]
fn partition_from_store_produces_intervals() {
    let wl = workload_path("workloads/gzip.spm");
    let store = pack(&wl, "ref", "partition.spmstk");
    let out = spm(&["partition", store.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("begin\tend\tphase"), "{text}");
    assert!(lines.len() > 1, "no intervals: {text}");
    for line in &lines[1..] {
        assert_eq!(line.split('\t').count(), 5, "bad row: {line}");
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn corrupt_block_degrades_to_warning_and_exit_zero() {
    let wl = workload_path("workloads/art.spm");
    let store = pack(&wl, "train", "corrupt.spmstk");
    let mut bytes = std::fs::read(&store).expect("read store");
    // Flip a byte inside the first block's payload (past the 16-byte
    // header and 40-byte frame).
    bytes[16 + 40 + 64] ^= 0x55;
    std::fs::write(&store, &bytes).expect("write corrupted store");

    let out = spm(&["select", "--store", store.to_str().expect("utf8")]);
    assert!(
        out.status.success(),
        "corrupt block must degrade, not fail: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("store=degraded") && err.contains("skipped_blocks=1"),
        "missing degradation warning: {err}"
    );
    assert!(
        stdout(&out).starts_with("markers v1"),
        "still produces markers"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn replay_reads_stores() {
    // `record` is `pack` under another name, and `replay` reads what
    // either wrote: the same timing summary from both.
    let wl = workload_path("workloads/example.spm");
    let packed = pack(&wl, "train", "replay-pack.spmstk");
    let recorded = tmp("replay-record.spmstk");
    let out = spm(&[
        "record",
        &wl,
        "--input",
        "train",
        "--out",
        recorded.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).starts_with("packed "), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(&packed).expect("packed"),
        std::fs::read(&recorded).expect("recorded"),
        "record and pack must write the same store"
    );
    let out = spm(&["replay", packed.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for field in [
        "events:",
        "instructions:",
        "CPI:",
        "DL1 miss rate:",
        "mispredicts:",
    ] {
        assert!(text.contains(field), "replay missing {field}: {text}");
    }
    assert!(
        stderr(&out).is_empty(),
        "clean store, no warnings: {}",
        stderr(&out)
    );
    std::fs::remove_file(&packed).ok();
    std::fs::remove_file(&recorded).ok();
}

#[test]
fn replay_rejects_flat_spmtrc02_files_as_bad_magic() {
    // The retired flat format (32-byte `spmtrc02` header + payload) is
    // not a store: a typed trace-decode error, exit 8.
    let flat = tmp("retired.spmtrc");
    let mut bytes = b"spmtrc02".to_vec();
    bytes.resize(32, 0);
    bytes.extend_from_slice(&[11, 0]); // one Finish event
    std::fs::write(&flat, &bytes).expect("write flat trace");
    let out = spm(&["replay", flat.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(8), "{}", stderr(&out));
    assert!(stderr(&out).contains("magic"), "{}", stderr(&out));
    std::fs::remove_file(&flat).ok();
}

fn spm_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spm"));
    cmd.args(args);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output().expect("spm binary runs")
}

/// Packs `workload` through the `SPM_PACK_FAULT` failpoint disk with a
/// crash scheduled, leaving a torn store at the returned path.
fn pack_torn(workload: &str, name: &str, fault: &str) -> PathBuf {
    let store = tmp(name);
    let out = spm_env(
        &[
            "pack",
            workload,
            "--input",
            "train",
            "--out",
            store.to_str().expect("utf8"),
            "--block-size",
            "2048",
        ],
        &[("SPM_PACK_FAULT", fault)],
    );
    assert!(!out.status.success(), "crashed pack must fail");
    assert_eq!(out.status.code(), Some(3), "crash is an I/O error");
    let err = stderr(&out);
    assert!(
        err.contains("pack died after committing"),
        "missing crash report: {err}"
    );
    assert!(store.is_file(), "surviving image must be written");
    store
}

#[test]
fn interrupted_pack_leaves_a_store_the_analyses_consume() {
    let wl = workload_path("workloads/example.spm");
    // Crash late enough that several 2 KiB blocks were committed.
    let store = pack_torn(&wl, "torn.spmstk", "seed=3,crash-at-op=40");
    let path = store.to_str().expect("utf8");

    // select: exit 0, recovery warning, identical output at any --jobs.
    let mut selects = Vec::new();
    for jobs in ["1", "4"] {
        let out = spm(&["select", "--store", path, "--jobs", jobs]);
        assert!(
            out.status.success(),
            "torn store must degrade, not fail (--jobs {jobs}): {}",
            stderr(&out)
        );
        let err = stderr(&out);
        assert!(
            err.contains("store=recovered"),
            "missing recovery warning at --jobs {jobs}: {err}"
        );
        assert!(
            stdout(&out).starts_with("markers v1"),
            "still produces markers at --jobs {jobs}"
        );
        selects.push((stdout(&out), err));
    }
    assert_eq!(selects[0], selects[1], "recovery must not depend on --jobs");

    // partition and simpoint consume the same torn store.
    let out = spm(&["partition", path]);
    assert!(out.status.success(), "partition: {}", stderr(&out));
    assert!(stderr(&out).contains("store=recovered"), "{}", stderr(&out));
    assert!(stdout(&out).starts_with("begin\tend\tphase"));
    let out = spm(&["simpoint", path]);
    assert!(out.status.success(), "simpoint: {}", stderr(&out));
    assert!(stderr(&out).contains("store=recovered"), "{}", stderr(&out));

    std::fs::remove_file(&store).ok();
}

#[test]
fn exhausted_retries_exit_with_their_own_code() {
    let wl = workload_path("workloads/example.spm");
    let store = tmp("stuck.spmstk");
    // Op 5 fails with a transient error forever: the retry budget must
    // run out and surface the dedicated exit code, distinct from plain
    // I/O failures.
    let out = spm_env(
        &[
            "pack",
            &wl,
            "--input",
            "train",
            "--out",
            store.to_str().expect("utf8"),
        ],
        &[("SPM_PACK_FAULT", "stuck-at-op=5")],
    );
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(11), "exhausted-retries exit code");
    let err = stderr(&out);
    assert!(
        err.contains("retries exhausted") && err.contains("attempts"),
        "missing exhaustion report: {err}"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn pack_with_a_bad_workload_or_input_leaves_out_untouched() {
    let store = tmp("untouched.spmstk");
    let path = store.to_str().expect("utf8");
    let gzip = workload_path("workloads/gzip.spm");
    let bad: [&[&str]; 2] = [&["nosuchwl"], &[gzip.as_str(), "--input", "nosuchinput"]];
    for args in bad {
        for fault in [None, Some("seed=3,crash-at-op=40")] {
            std::fs::write(&store, b"abcdef").expect("write");
            let mut argv = vec!["pack"];
            argv.extend_from_slice(args);
            argv.extend(["--out", path]);
            let envs: Vec<_> = fault.map(|f| ("SPM_PACK_FAULT", f)).into_iter().collect();
            let out = spm_env(&argv, &envs);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{argv:?} {fault:?}: {}",
                stderr(&out)
            );
            assert_eq!(
                std::fs::read(&store).expect("read"),
                b"abcdef",
                "{argv:?} {fault:?} touched --out"
            );
        }
    }
    std::fs::remove_file(&store).ok();
}

#[test]
fn transient_faults_are_absorbed_with_retry_telemetry() {
    let wl = workload_path("workloads/example.spm");
    let store = tmp("flaky.spmstk");
    // One in four ops fails transiently; every failure must be retried
    // away and reported in the summary line.
    let out = spm_env(
        &[
            "pack",
            &wl,
            "--input",
            "train",
            "--out",
            store.to_str().expect("utf8"),
            "--block-size",
            "2048",
        ],
        &[("SPM_PACK_FAULT", "seed=9,transient-one-in=4")],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("io retries="), "missing retry count: {err}");

    // The flaky-but-successful pack is a normal clean store.
    let info = spm(&["info", store.to_str().expect("utf8")]);
    assert!(info.status.success());
    assert!(stdout(&info).contains("durability:    clean"));
    std::fs::remove_file(&store).ok();
}

#[test]
fn info_reports_durability_sync_policy_and_watermarks() {
    let wl = workload_path("workloads/example.spm");

    // Clean store, default policy.
    let store = pack(&wl, "train", "durability.spmstk");
    let out = spm(&["info", store.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("sync policy:   block"), "{text}");
    assert!(text.contains("durability:    clean"), "{text}");
    assert!(text.contains("committed:     seq "), "{text}");
    assert!(!text.contains("torn tail:"), "{text}");
    std::fs::remove_file(&store).ok();

    // --sync is recorded in the header and reported back.
    let store = tmp("nosync.spmstk");
    let out = spm(&[
        "pack",
        &wl,
        "--input",
        "train",
        "--out",
        store.to_str().expect("utf8"),
        "--sync",
        "none",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("sync=none"), "{}", stderr(&out));
    let info = spm(&["info", store.to_str().expect("utf8")]);
    assert!(stdout(&info).contains("sync policy:   none"));
    std::fs::remove_file(&store).ok();

    // A bad --sync value is a usage error.
    let out = spm(&["pack", &wl, "--out", "/tmp/x.spmstk", "--sync", "often"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("none|block|close"),
        "{}",
        stderr(&out)
    );

    // A torn store reports recovery and the discarded tail.
    let store = pack_torn(&wl, "torninfo.spmstk", "seed=5,crash-at-op=31");
    let info = spm(&["info", store.to_str().expect("utf8")]);
    assert!(info.status.success(), "{}", stderr(&info));
    let text = stdout(&info);
    assert!(text.contains("durability:    recovered-on-open"), "{text}");
    assert!(text.contains("torn tail:"), "{text}");
    std::fs::remove_file(&store).ok();
}

#[test]
fn replay_reports_skipped_blocks_of_damaged_store() {
    let store = tmp("damaged.spmstk");
    let out = spm(&[
        "record",
        "mgrid",
        "--block-size",
        "4096",
        "--out",
        store.to_str().expect("utf8"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let clean = spm(&["replay", store.to_str().expect("utf8")]);
    assert!(clean.status.success(), "{}", stderr(&clean));

    // Flip a bit inside the first block's payload (header 16 bytes,
    // frame 40): that block is skipped and reported, the rest replays.
    let mut bytes = std::fs::read(&store).expect("read store");
    bytes[100] ^= 0x10;
    std::fs::write(&store, &bytes).expect("damage store");
    let out = spm(&["replay", store.to_str().expect("utf8")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("warning: store=degraded skipped_blocks=1 "),
        "degraded warning missing: {err}"
    );
    assert_ne!(stdout(&out), stdout(&clean), "the skipped events are gone");
    std::fs::remove_file(&store).ok();
}

#[test]
fn compressed_store_is_byte_identical_and_smaller() {
    let wl = workload_path("workloads/gzip.spm");
    let plain = pack(&wl, "train", "cmp-plain.spmstk");
    let packed = tmp("cmp-lz.spmstk");
    let out = spm(&[
        "pack",
        &wl,
        "--input",
        "train",
        "--compress",
        "--out",
        packed.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success(),
        "compressed pack failed: {}",
        stderr(&out)
    );
    let plain_len = std::fs::metadata(&plain).expect("plain meta").len();
    let packed_len = std::fs::metadata(&packed).expect("packed meta").len();
    assert!(
        packed_len < plain_len,
        "compressed store ({packed_len} bytes) not smaller than plain ({plain_len} bytes)"
    );

    // `info` names the codec.
    let info = stdout(&spm(&["info", packed.to_str().expect("utf8")]));
    assert!(info.contains("compression:   lz"), "{info}");
    let info_plain = stdout(&spm(&["info", plain.to_str().expect("utf8")]));
    assert!(info_plain.contains("compression:   none"), "{info_plain}");

    // Every analysis output is byte-identical across flat, plain store,
    // and compressed store, serial and parallel. Each command is paired
    // with a store packed from its default input (select reads train,
    // simpoint reads ref).
    for (cmd, input) in [("select", "train"), ("simpoint", "ref")] {
        let plain_in = pack(&wl, input, &format!("cmp-plain-{input}.spmstk"));
        let packed_in = tmp(format!("cmp-lz-{input}.spmstk").as_str());
        let out = spm(&[
            "pack",
            &wl,
            "--input",
            input,
            "--compress",
            "--out",
            packed_in.to_str().expect("utf8"),
        ]);
        assert!(out.status.success(), "{cmd}: {}", stderr(&out));
        let flat = spm(&[cmd, &wl]);
        assert!(flat.status.success(), "{cmd}: {}", stderr(&flat));
        for store in [&plain_in, &packed_in] {
            for jobs in ["1", "4"] {
                let stored = spm(&[
                    cmd,
                    "--store",
                    store.to_str().expect("utf8"),
                    "--jobs",
                    jobs,
                ]);
                assert!(stored.status.success(), "{cmd}: {}", stderr(&stored));
                assert_eq!(
                    stdout(&stored),
                    stdout(&flat),
                    "{cmd} differs for {store:?} at --jobs {jobs}"
                );
            }
        }
        std::fs::remove_file(&plain_in).ok();
        std::fs::remove_file(&packed_in).ok();
    }
    std::fs::remove_file(&plain).ok();
    std::fs::remove_file(&packed).ok();
}

#[test]
fn short_header_files_get_typed_errors_not_panics() {
    // Every truncation of a store header — including the empty file —
    // must produce a clean typed decode error (exit 8) from both `info`
    // and the `--store` analyses. A panic or a raw io error would show
    // up as a different exit code and stderr shape.
    let wl = workload_path("workloads/example.spm");
    let store = pack(&wl, "train", "short-hdr.spmstk");
    let bytes = std::fs::read(&store).expect("read store");
    let short = tmp("short-hdr-cut.spmstk");
    for len in 0..16 {
        std::fs::write(&short, &bytes[..len]).expect("write truncated");
        for args in [
            vec!["info", short.to_str().expect("utf8")],
            vec!["select", "--store", short.to_str().expect("utf8")],
        ] {
            let out = spm(&args);
            assert_eq!(
                out.status.code(),
                Some(8),
                "len {len} {args:?}: expected decode-error exit, got {:?}\n{}",
                out.status.code(),
                stderr(&out)
            );
            let err = stderr(&out);
            assert!(
                !err.contains("panicked"),
                "len {len} {args:?} panicked: {err}"
            );
        }
    }
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&short).ok();
}

#[test]
fn torn_compressed_pack_recovers_like_plain() {
    // Crash-at-op faults compose with compression: the surviving image
    // opens with a recovered index and the analyses still run.
    let wl = workload_path("workloads/example.spm");
    let store = tmp("torn-lz.spmstk");
    let out = spm_env(
        &[
            "pack",
            &wl,
            "--input",
            "train",
            "--compress",
            "--block-size",
            "2048",
            "--out",
            store.to_str().expect("utf8"),
        ],
        &[("SPM_PACK_FAULT", "seed=3,crash-at-op=40")],
    );
    assert!(!out.status.success(), "faulted pack must fail");
    let info = spm(&["info", store.to_str().expect("utf8")]);
    assert!(info.status.success(), "{}", stderr(&info));
    let text = stdout(&info);
    assert!(text.contains("compression:   lz"), "{text}");
    assert!(text.contains("recovered-on-open"), "{text}");
    let sel = spm(&["select", "--store", store.to_str().expect("utf8")]);
    assert!(sel.status.success(), "{}", stderr(&sel));
    std::fs::remove_file(&store).ok();
}
