//! End-to-end serve tests over loopback TCP: online/batch
//! equivalence, reconnect-resume, restart-recovery, backpressure,
//! budgets, health, hostile-peer isolation, and the session lifecycle
//! (finalized, failed and attached sessions).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use spm_core::text::write_markers;
use spm_core::{CallLoopProfiler, SelectConfig};
use spm_ir::{Input, ProgramBuilder, Trip};
use spm_serve::proto::{self, Message};
use spm_serve::{
    send_events, SendConfig, SendFaultPlan, ServeError, Server, ServerConfig, SessionConfig,
};
use spm_sim::{run, TraceEvent, TraceObserver};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// A phased trace with enough structure for a non-trivial marker set.
fn trace(scale: u64) -> Vec<(u64, TraceEvent)> {
    let mut b = ProgramBuilder::new("serve-test");
    b.proc("main", |p| {
        p.loop_(Trip::Fixed(20 * scale), |outer| {
            outer.call("phase_a");
            outer.call("phase_b");
        });
    });
    b.proc("phase_a", |p| {
        p.loop_(Trip::Fixed(30), |inner| {
            inner.block(40).done();
        });
    });
    b.proc("phase_b", |p| {
        p.loop_(Trip::Fixed(50), |inner| {
            inner.block(25).done();
        });
    });
    let program = b.build("main").unwrap();
    let mut tape = Vec::new();
    run(&program, &Input::new("t", 3), &mut [&mut tape]).unwrap();
    tape
}

fn batch_markers(events: &[(u64, TraceEvent)], config: SelectConfig) -> String {
    let mut profiler = CallLoopProfiler::new();
    profiler.on_batch(events);
    let graph = profiler.into_graph().unwrap();
    write_markers(&spm_core::select_markers(&graph, &config).markers)
}

fn select_config() -> SelectConfig {
    SelectConfig::new(2_000)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        health_addr: None,
        session: SessionConfig {
            select: select_config(),
            ..SessionConfig::default()
        },
        expect: None,
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spm-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn online_session_matches_batch_selection() {
    let events = trace(1);
    let server = Server::start(server_config()).unwrap();
    let mut config = SendConfig::new(&server.addr().to_string(), "equiv");
    config.block_budget = 512;
    let outcome = send_events(&config, &events).unwrap();
    assert!(!outcome.resumed);
    assert_eq!(outcome.done.events, events.len() as u64);
    assert_eq!(
        outcome.done.markers_text,
        batch_markers(&events, select_config()),
        "online selection must converge to the batch marker set"
    );
    assert!(
        outcome.done.converged_at > 0,
        "a long repetitive trace should converge mid-stream"
    );
    assert!(!outcome.deltas.is_empty());
    let report = server.stop();
    assert_eq!(report.done, 1);
    assert_eq!(report.failed, 0);
}

#[test]
fn deltas_compose_to_the_final_marker_count() {
    let events = trace(1);
    let server = Server::start(server_config()).unwrap();
    let mut config = SendConfig::new(&server.addr().to_string(), "deltas");
    config.block_budget = 1024;
    let outcome = send_events(&config, &events).unwrap();
    let mut set: Vec<String> = Vec::new();
    for delta in &outcome.deltas {
        for text in &delta.removed {
            set.retain(|m| m != text);
        }
        for (_, text) in &delta.added {
            set.push(text.clone());
        }
    }
    let final_lines = outcome
        .done
        .markers_text
        .lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .count();
    assert_eq!(set.len(), final_lines, "deltas must compose to the set");
    server.stop();
}

#[test]
fn disconnect_resumes_from_the_watermark() {
    let events = trace(1);
    let server = Server::start(server_config()).unwrap();
    let mut config = SendConfig::new(&server.addr().to_string(), "resume");
    config.block_budget = 512;
    config.fault = SendFaultPlan {
        drop_after_blocks: Some(3),
        ..SendFaultPlan::default()
    };
    let outcome = send_events(&config, &events).unwrap();
    assert_eq!(outcome.reconnects, 1);
    assert!(
        !outcome.resumed,
        "the first connection opened a fresh session"
    );
    assert_eq!(
        outcome.events_sent,
        events.len() as u64,
        "no event analyzed twice: fresh events across both connections add up"
    );
    assert_eq!(outcome.done.events, events.len() as u64, "nothing lost");
    assert_eq!(
        outcome.done.markers_text,
        batch_markers(&events, select_config())
    );
    let report = server.stop();
    assert_eq!(report.done, 1);
    assert_eq!(report.failed, 0);
}

#[test]
fn disconnect_after_fin_recovers_the_done_summary() {
    let events = trace(1);
    let server = Server::start(server_config()).unwrap();
    let mut config = SendConfig::new(&server.addr().to_string(), "findrop");
    config.block_budget = 512;
    config.fault = SendFaultPlan {
        drop_after_fin: true,
        ..SendFaultPlan::default()
    };
    let outcome = send_events(&config, &events).unwrap();
    assert_eq!(outcome.reconnects, 1);
    assert_eq!(outcome.done.events, events.len() as u64);
    assert_eq!(
        outcome.done.markers_text,
        batch_markers(&events, select_config())
    );
    let report = server.stop();
    assert_eq!(report.done, 1, "one finalize, even across the drop");
    assert_eq!(report.failed, 0);
}

#[test]
fn finished_session_reattach_replays_done() {
    let events = trace(1);
    let server = Server::start(server_config()).unwrap();
    let mut config = SendConfig::new(&server.addr().to_string(), "twice");
    config.block_budget = 512;
    let first = send_events(&config, &events).unwrap();
    // A rerun of the same session (a client that lost the DONE reply
    // and started over) skips everything below the watermark and
    // collects the stored summary instead of an `already finalized`
    // rejection.
    let second = send_events(&config, &events).unwrap();
    assert!(second.resumed, "the finalized session must reattach");
    assert_eq!(second.events_sent, 0, "nothing re-analyzed");
    assert_eq!(second.done, first.done, "the stored DONE is replayed");
    let report = server.stop();
    assert_eq!(report.done, 1, "replaying DONE is not a second finalize");
    assert_eq!(report.failed, 0);
}

#[test]
fn traversal_session_name_is_rejected_before_touching_disk() {
    let dir = tmp("traverse");
    let mut config = server_config();
    config.session.dir = Some(dir.clone());
    let server = Server::start(config).unwrap();
    for name in ["../escapee", "sub/dir", ".sneaky"] {
        let send = SendConfig::new(&server.addr().to_string(), name);
        match send_events(&send, &trace(1)) {
            Err(ServeError::Rejected { code, .. }) => {
                assert_eq!(code, proto::ErrCode::BadFrame, "name {name:?}");
            }
            Err(other) => panic!("name {name:?}: expected BadFrame rejection, got {other}"),
            Ok(_) => panic!("name {name:?}: the server must reject it"),
        }
    }
    assert!(
        !dir.parent().unwrap().join("escapee.g1.spmstk").exists(),
        "no journal file may appear outside the serve dir"
    );
    assert!(!dir.exists(), "rejected names never created the serve dir");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_restart_resumes_from_the_journal() {
    let events = trace(1);
    let dir = tmp("restart");
    let mut config = server_config();
    config.session.dir = Some(dir.clone());

    // First server: stream part of the session, no FIN, then stop.
    {
        let server = Server::start(config.clone()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut w = &stream;
        proto::write_message(
            &mut w,
            &Message::Hello {
                name: "restart".into(),
            },
        )
        .unwrap();
        let mut r = &stream;
        let welcome = proto::read_message(&mut r).unwrap();
        assert!(matches!(welcome, Message::Welcome { resumed: false, .. }));
        let blocks = proto::chunk_events(&events, 512);
        let half = blocks.len() / 2;
        for block in &blocks[..half] {
            'send: loop {
                proto::write_message(&mut w, &Message::Block(block.clone())).unwrap();
                loop {
                    match proto::read_message(&mut r).unwrap() {
                        Message::Ack { .. } => break 'send,
                        Message::Delta(_) => {}
                        Message::Busy { .. } => {
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            continue 'send;
                        }
                        other => panic!("unexpected reply {other:?}"),
                    }
                }
            }
        }
        drop(stream);
        server.stop();
    }

    // Second server on the same directory: the journaled prefix is
    // replayed; the client resends everything and the server skips the
    // committed prefix. The client re-chunks with another budget, so
    // one block straddles the watermark and the server must drop only
    // its journaled head.
    let server = Server::start(config).unwrap();
    let mut send = SendConfig::new(&server.addr().to_string(), "restart");
    send.block_budget = 700;
    let outcome = send_events(&send, &events).unwrap();
    assert!(outcome.resumed, "WELCOME must report the resumed session");
    assert!(
        outcome.skipped_events > 0,
        "the journaled prefix must not be re-analyzed"
    );
    assert!(
        outcome.skipped_events + outcome.events_sent < events.len() as u64,
        "a resent block must straddle the watermark"
    );
    assert_eq!(outcome.done.events, events.len() as u64);
    assert_eq!(
        outcome.done.markers_text,
        batch_markers(&events, select_config())
    );

    // The finished session left journal generations plus the final
    // marker file for corpus ingest.
    let markers_file = dir.join("restart.markers");
    let on_disk = std::fs::read_to_string(&markers_file).unwrap();
    assert_eq!(on_disk, outcome.done.markers_text);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn busy_backpressure_is_survivable_and_lossless() {
    let events = trace(1);
    let mut config = server_config();
    config.session.queue_capacity = 1;
    config.session.analysis_delay_ms = 15;
    let server = Server::start(config).unwrap();
    let mut send = SendConfig::new(&server.addr().to_string(), "busy");
    send.block_budget = 256;
    send.busy_backoff = std::time::Duration::from_millis(5);
    let outcome = send_events(&send, &events).unwrap();
    assert!(
        outcome.busy_retries > 0,
        "a 1-deep queue with slowed analysis must push back"
    );
    assert_eq!(outcome.done.events, events.len() as u64, "lossless");
    assert_eq!(
        outcome.done.markers_text,
        batch_markers(&events, select_config())
    );
    let report = server.stop();
    assert!(report.busy_rejections > 0);
    assert_eq!(report.failed, 0);
}

#[test]
fn memory_budget_violation_is_a_typed_fatal_error() {
    let events = trace(1);
    let mut config = server_config();
    config.session.mem_budget = 64; // far below one decoded block
    let server = Server::start(config).unwrap();
    let send = SendConfig::new(&server.addr().to_string(), "hog");
    match send_events(&send, &events) {
        Err(ServeError::Rejected { code, .. }) => {
            assert_eq!(code, proto::ErrCode::BudgetExceeded);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    let report = server.stop();
    assert_eq!(report.failed, 1);
}

#[test]
fn malformed_peers_do_not_poison_other_sessions() {
    let events = trace(1);
    let server = Server::start(server_config()).unwrap();
    let addr = server.addr();

    // Hostile peers, each a distinct violation.
    type Hostile = Box<dyn FnOnce(&mut TcpStream) + Send>;
    let hostiles: Vec<Hostile> = vec![
        // Garbage bytes instead of a HELLO frame.
        Box::new(|s: &mut TcpStream| {
            let _ = s.write_all(b"GET / HTTP/1.0\r\n\r\n");
        }),
        // Wrong protocol version.
        Box::new(|s: &mut TcpStream| {
            let mut payload = Vec::new();
            payload.extend_from_slice(b"spmsrv99");
            payload.extend_from_slice(&1u64.to_le_bytes());
            payload.push(b'x');
            let mut frame = vec![0x01u8];
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame.extend_from_slice(&spm_store::format::fnv1a64(&payload).to_le_bytes());
            let _ = s.write_all(&frame);
        }),
        // A frame truncated mid-payload, then a hard close.
        Box::new(|s: &mut TcpStream| {
            let msg = proto::encode_message(&Message::Hello { name: "t".into() });
            let _ = s.write_all(&msg[..msg.len() / 2]);
            let _ = s.shutdown(std::net::Shutdown::Both);
        }),
    ];
    let mut waiters = Vec::new();
    for hostile in hostiles {
        let addr = addr.to_string();
        waiters.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            hostile(&mut stream);
            // Drain whatever the server replies until it closes.
            let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
            let mut sink = [0u8; 4096];
            while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        }));
    }

    // A well-behaved session runs to completion in the same window.
    let mut send = SendConfig::new(&addr.to_string(), "good");
    send.block_budget = 512;
    let outcome = send_events(&send, &events).unwrap();
    assert_eq!(
        outcome.done.markers_text,
        batch_markers(&events, select_config())
    );
    for waiter in waiters {
        waiter.join().unwrap();
    }
    let report = server.stop();
    assert_eq!(report.done, 1);
    assert_eq!(report.failed, 0, "hostile peers must not fail sessions");
    assert!(
        report.protocol_errors >= 2,
        "typed protocol violations are counted (got {})",
        report.protocol_errors
    );
}

#[test]
fn hostile_block_headers_get_typed_errors_not_an_abort() {
    let events = trace(1);
    let server = Server::start(server_config()).unwrap();
    let empty = spm_store::format::BlockMeta {
        offset: 0,
        first_seq: 0,
        start_icount: 0,
        end_icount: 0,
        events: 0,
        payload_len: 0,
    };
    let hostiles = [
        // Claims u32::MAX events over an empty payload: the reservation
        // must not trust the header.
        (
            spm_store::format::BlockMeta {
                events: u32::MAX,
                ..empty
            },
            proto::ErrCode::BadFrame,
        ),
        // `first_seq + events` past u64::MAX must not overflow.
        (
            spm_store::format::BlockMeta {
                first_seq: u64::MAX,
                events: 1,
                ..empty
            },
            proto::ErrCode::SequenceGap,
        ),
    ];
    for (i, (meta, expected)) in hostiles.into_iter().enumerate() {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let (mut r, mut w) = (&stream, &stream);
        let name = format!("hostile-{i}");
        proto::write_message(&mut w, &Message::Hello { name }).unwrap();
        match proto::read_message(&mut r).unwrap() {
            Message::Welcome { events: 0, .. } => {}
            other => panic!("expected a fresh WELCOME, got {other:?}"),
        }
        // 53 bytes, every checksum valid.
        let frame = proto::encode_message(&Message::Block(proto::WireBlock::new(meta, Vec::new())));
        assert_eq!(frame.len(), 53);
        w.write_all(&frame).unwrap();
        match proto::read_message(&mut r).unwrap() {
            Message::Err { code, .. } => assert_eq!(code, expected, "{meta:?}"),
            other => panic!("{meta:?}: expected ERR {expected:?}, got {other:?}"),
        }
    }

    // The server survives and finishes the next session.
    let send = SendConfig::new(&server.addr().to_string(), "after-hostile");
    let outcome = send_events(&send, &events).unwrap();
    assert_eq!(
        outcome.done.markers_text,
        batch_markers(&events, select_config())
    );
    let report = server.stop();
    assert_eq!(report.done, 1);
    assert_eq!(report.protocol_errors, 2, "both bad frames are counted");
}

#[test]
fn wrong_version_hello_gets_a_typed_reply() {
    let server = Server::start(server_config()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut payload = Vec::new();
    payload.extend_from_slice(b"spmsrv77");
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(b's');
    let mut frame = vec![0x01u8];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&spm_store::format::fnv1a64(&payload).to_le_bytes());
    let mut w = &stream;
    w.write_all(&frame).unwrap();
    let mut r = &stream;
    match proto::read_message(&mut r).unwrap() {
        Message::Err { code, .. } => {
            assert_eq!(code, proto::ErrCode::UnsupportedVersion);
        }
        other => panic!("expected ERR, got {other:?}"),
    }
    server.stop();
}

#[test]
fn health_endpoint_serves_schema_valid_jsonl() {
    let events = trace(1);
    let mut config = server_config();
    config.health_addr = Some("127.0.0.1:0".to_string());
    let server = Server::start(config).unwrap();
    let health = server.health_addr().unwrap();

    let mut send = SendConfig::new(&server.addr().to_string(), "healthy");
    send.block_budget = 512;
    let outcome = send_events(&send, &events).unwrap();
    assert_eq!(
        outcome.done.markers_text,
        batch_markers(&events, select_config())
    );

    let mut stream = TcpStream::connect(health).unwrap();
    stream.write_all(b"GET /health HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"));
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    assert!(!body.is_empty());
    let mut session_lines = 0usize;
    for line in body.lines().filter(|l| !l.is_empty()) {
        let parsed = spm_obs::jsonl::validate_line(line)
            .unwrap_or_else(|e| panic!("invalid health line `{line}`: {e}"));
        let name = parsed.get("name").and_then(|v| v.as_str()).unwrap();
        if name.starts_with("serve/session/") {
            session_lines += 1;
        }
    }
    assert!(session_lines > 0, "per-session gauges must be published");
    server.stop();
}

/// Opens a raw connection and sends `HELLO name`; returns the stream
/// and the server's first reply.
fn hello(addr: std::net::SocketAddr, name: &str) -> (TcpStream, Message) {
    let stream = TcpStream::connect(addr).unwrap();
    proto::write_message(&mut &stream, &Message::Hello { name: name.into() }).unwrap();
    let reply = proto::read_message(&mut &stream).unwrap();
    (stream, reply)
}

/// Sends `msg` and returns the first reply that is not a `DELTA`.
fn request(stream: &TcpStream, msg: &Message) -> Message {
    proto::write_message(&mut { stream }, msg).unwrap();
    loop {
        match proto::read_message(&mut { stream }).unwrap() {
            Message::Delta(_) => {}
            other => return other,
        }
    }
}

/// Sends `block` again while the server answers `BUSY` (its analyzer
/// may lag on a loaded host); returns the first other reply.
fn send_block(stream: &TcpStream, block: &proto::WireBlock) -> Message {
    loop {
        match request(stream, &Message::Block(block.clone())) {
            Message::Busy { .. } => std::thread::sleep(Duration::from_millis(1)),
            other => return other,
        }
    }
}

/// The `serve/session/state` gauge of every session in one health
/// scrape, by session name.
fn session_states(health: std::net::SocketAddr) -> Vec<(String, f64)> {
    let mut stream = TcpStream::connect(health).unwrap();
    stream.write_all(b"GET /health HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    let mut states = Vec::new();
    for line in body.lines().filter(|l| !l.is_empty()) {
        let parsed = spm_obs::jsonl::validate_line(line).unwrap();
        if parsed.get("name").and_then(|v| v.as_str()) == Some("serve/session/state") {
            let session = parsed
                .get("fields")
                .and_then(|f| f.get("session"))
                .and_then(|v| v.as_str())
                .unwrap();
            let value = parsed.get("value").and_then(|v| v.as_num()).unwrap();
            states.push((session.to_string(), value));
        }
    }
    states.sort_by(|a, b| a.0.cmp(&b.0));
    states
}

#[test]
fn failed_session_rejects_reattach() {
    let mut config = server_config();
    config.session.mem_budget = 64;
    let server = Server::start(config).unwrap();
    let send = SendConfig::new(&server.addr().to_string(), "sunk");
    assert!(matches!(
        send_events(&send, &trace(1)),
        Err(ServeError::Rejected {
            code: proto::ErrCode::BudgetExceeded,
            ..
        })
    ));
    let (_stream, reply) = hello(server.addr(), "sunk");
    assert_eq!(
        reply,
        Message::Err {
            code: proto::ErrCode::SessionFailed,
            detail: "session `sunk` failed".into(),
        }
    );
    let report = server.stop();
    assert_eq!(report.failed, 1, "a rejected reattach fails nothing more");
}

#[test]
fn finalized_session_rejects_fresh_blocks() {
    let events = trace(1);
    let blocks = proto::chunk_events(&events, 512);
    let half = blocks.len() / 2;
    let server = Server::start(server_config()).unwrap();
    let (stream, reply) = hello(server.addr(), "sealed");
    assert!(matches!(reply, Message::Welcome { resumed: false, .. }));
    for block in &blocks[..half] {
        let reply = send_block(&stream, block);
        assert!(matches!(reply, Message::Ack { .. }), "{reply:?}");
    }
    assert!(matches!(request(&stream, &Message::Fin), Message::Done(_)));
    drop(stream);

    let watermark = blocks[half].meta.first_seq;
    let (stream, reply) = hello(server.addr(), "sealed");
    match reply {
        Message::Welcome {
            events, resumed, ..
        } => {
            assert_eq!(events, watermark);
            assert!(resumed);
        }
        other => panic!("expected WELCOME, got {other:?}"),
    }
    assert_eq!(
        request(&stream, &Message::Block(blocks[0].clone())),
        Message::Ack { events: watermark },
        "a resent block below the watermark is acked"
    );
    assert_eq!(
        request(&stream, &Message::Block(blocks[half].clone())),
        Message::Err {
            code: proto::ErrCode::SessionFailed,
            detail: "session already finalized; new blocks rejected".into(),
        }
    );
    let report = server.stop();
    assert_eq!(report.done, 1);
    assert_eq!(report.failed, 0, "the rejected block fails nothing");
}

/// A server that stops on `expect` counts a session once the `DONE`
/// reporting it is written, so the reply is already on the client's
/// socket when `wait` returns and a caller that then stops the server
/// (or exits) cannot cut it off. Checked over repeated sessions.
#[test]
fn expect_waits_until_done_is_on_the_wire() {
    let blocks = proto::chunk_events(&trace(1), 512);
    for round in 0..20 {
        let server = Server::start(ServerConfig {
            expect: Some(1),
            ..server_config()
        })
        .unwrap();
        let (stream, reply) = hello(server.addr(), &format!("expect-{round}"));
        assert!(matches!(reply, Message::Welcome { .. }));
        for block in &blocks {
            let reply = send_block(&stream, block);
            assert!(
                matches!(reply, Message::Ack { .. }),
                "round {round}: {reply:?}"
            );
        }
        proto::write_message(&mut &stream, &Message::Fin).unwrap();
        server.wait();
        // Everything written so far is readable without waiting.
        stream.set_nonblocking(true).unwrap();
        let mut bytes = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match (&stream).read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => bytes.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("round {round}: {e}"),
            }
        }
        let report = server.stop();
        assert_eq!(report.done, 1);
        let mut rest = &bytes[..];
        let mut last = None;
        while !rest.is_empty() {
            last = Some(proto::read_message(&mut rest).unwrap());
        }
        assert!(
            matches!(last, Some(Message::Done(_))),
            "round {round}: DONE not written when `wait` returned, last reply {last:?}"
        );
    }
}

#[test]
fn second_hello_is_rejected_while_a_connection_is_attached() {
    let server = Server::start(server_config()).unwrap();
    let (_first, reply) = hello(server.addr(), "owned");
    assert!(matches!(reply, Message::Welcome { .. }));
    // The server retries the attach for a moment (a reconnect may race
    // the old connection's close), then gives up.
    let (_second, reply) = hello(server.addr(), "owned");
    assert_eq!(
        reply,
        Message::Err {
            code: proto::ErrCode::Internal,
            detail: "session `owned` already has a live connection".into(),
        }
    );
    server.stop();
}

#[test]
fn hello_waits_for_the_old_connection_to_close() {
    let server = Server::start(server_config()).unwrap();
    let (old, reply) = hello(server.addr(), "handover");
    assert!(matches!(reply, Message::Welcome { .. }));
    let addr = server.addr();
    let new = std::thread::spawn(move || hello(addr, "handover").1);
    // The new HELLO arrives while the old connection still holds the
    // session; closing it well inside the retry window lets it through.
    std::thread::sleep(std::time::Duration::from_millis(200));
    drop(old);
    assert!(matches!(
        new.join().unwrap(),
        Message::Welcome { resumed: true, .. }
    ));
    server.stop();
}

#[test]
fn live_gauges_follow_the_analyzer() {
    let events = trace(1);
    let server = Server::start(server_config()).unwrap();
    let (stream, _) = hello(server.addr(), "gauged");
    let first = proto::chunk_events(&events, 512).remove(0);
    let expected = u64::from(first.meta.events);
    assert!(matches!(
        request(&stream, &Message::Block(first)),
        Message::Ack { .. }
    ));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let stats = loop {
        let stats = server.session_stats("gauged").unwrap();
        if stats.blocks == 1 {
            break stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the analyzed block never showed: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    assert_eq!(stats.events, expected);
    assert_eq!(stats.queue_len, 0);
    assert!(stats.analysis_bytes > 0);
    assert_eq!(stats.mem_bytes, stats.queued_bytes + stats.analysis_bytes);
    drop(stream);
    server.stop();
}

#[test]
fn mem_gauge_adds_the_queue_to_the_analysis() {
    let events = trace(1);
    let mut config = server_config();
    config.session.analysis_delay_ms = 200;
    let server = Server::start(config).unwrap();
    let (stream, _) = hello(server.addr(), "queued");
    for block in proto::chunk_events(&events, 512).into_iter().take(3) {
        assert!(matches!(
            request(&stream, &Message::Block(block)),
            Message::Ack { .. }
        ));
    }
    // The analyzer sleeps on the first block, so the others wait in
    // the queue: one snapshot shows them in `mem_bytes`.
    let stats = server.session_stats("queued").unwrap();
    assert!(stats.queue_len > 0 && stats.queued_bytes > 0, "{stats:?}");
    assert_eq!(stats.mem_bytes, stats.queued_bytes + stats.analysis_bytes);
    drop(stream);
    server.stop();
}

#[test]
fn health_state_gauge_tracks_the_lifecycle() {
    let events = trace(1);
    let mut config = server_config();
    config.health_addr = Some("127.0.0.1:0".to_string());
    let server = Server::start(config.clone()).unwrap();
    let (live, reply) = hello(server.addr(), "live");
    assert!(matches!(reply, Message::Welcome { .. }));
    let first = proto::chunk_events(&events, 512).remove(0);
    assert!(matches!(
        request(&live, &Message::Block(first)),
        Message::Ack { .. }
    ));
    send_events(
        &SendConfig::new(&server.addr().to_string(), "done"),
        &events,
    )
    .unwrap();
    assert_eq!(
        session_states(server.health_addr().unwrap()),
        [("done".to_string(), 1.0), ("live".to_string(), 0.0)]
    );
    drop(live);
    server.stop();

    config.session.mem_budget = 64;
    let server = Server::start(config).unwrap();
    let send = SendConfig::new(&server.addr().to_string(), "failed");
    assert!(send_events(&send, &events).is_err());
    assert_eq!(
        session_states(server.health_addr().unwrap()),
        [("failed".to_string(), 2.0)]
    );
    server.stop();
}

#[test]
fn session_memory_gauge_stays_under_budget() {
    let events = trace(2);
    let mut config = server_config();
    config.session.mem_budget = 32 * 1024 * 1024;
    config.session.analysis_delay_ms = 2;
    let server = Server::start(config.clone()).unwrap();
    let mut send = SendConfig::new(&server.addr().to_string(), "bounded");
    send.block_budget = 1024;

    let sender = {
        let send = send.clone();
        let events = events.clone();
        std::thread::spawn(move || send_events(&send, &events))
    };
    // Sample the gauge while the session streams.
    let mut peak = 0u64;
    while !sender.is_finished() {
        if let Some(stats) = server.session_stats("bounded") {
            peak = peak.max(stats.mem_bytes);
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let outcome = sender.join().unwrap().unwrap();
    assert_eq!(outcome.done.events, events.len() as u64);
    assert!(
        peak <= config.session.mem_budget,
        "peak session memory {peak} exceeded the budget"
    );
    assert!(peak > 0, "the gauge must have been observed live");
    server.stop();
}
