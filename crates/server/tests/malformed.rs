//! Server-side hardening: oversized, truncated, and garbage frames must
//! produce a protocol-error reply (or a clean close) — never a panic —
//! and must cost only the offending connection.

#![cfg(target_os = "linux")]

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use txboost_client::{Connection, ScriptBuilder};
use txboost_server::{Server, ServerConfig};
use txboost_wire::{recv_response, ProtoErrorCode, Response, ScriptStatus, MAX_FRAME_LEN};

fn start_server() -> Server {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

/// Write raw bytes, then read whatever single response the server
/// sends before closing. `None` means the connection closed without a
/// frame.
fn raw_exchange(addr: &str, bytes: &[u8]) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    recv_response(&mut reader, MAX_FRAME_LEN).ok().flatten()
}

#[test]
fn oversized_frame_is_rejected_with_protocol_error() {
    let server = start_server();
    let addr = server.local_addr().to_string();

    // Advertise a frame one byte over the limit; send no payload. The
    // server must reject on the header alone (no allocation, no wait).
    let header = (MAX_FRAME_LEN + 1).to_le_bytes();
    match raw_exchange(&addr, &header) {
        Some(Response::Error { code, message, .. }) => {
            assert_eq!(code, ProtoErrorCode::FrameTooLarge);
            assert!(!message.is_empty());
        }
        other => panic!("expected FrameTooLarge error, got {other:?}"),
    }
    server.join();
}

#[test]
fn garbage_payload_is_rejected_with_protocol_error() {
    let server = start_server();
    let addr = server.local_addr().to_string();

    // A well-framed payload of garbage: length prefix is honest, the
    // content is not a request.
    let garbage = [0xDEu8, 0xAD, 0xBE, 0xEF, 0x42, 0x42, 0x42];
    let mut bytes = (garbage.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&garbage);
    match raw_exchange(&addr, &bytes) {
        Some(Response::Error { code, .. }) => {
            assert!(
                matches!(
                    code,
                    ProtoErrorCode::Malformed | ProtoErrorCode::UnknownKind
                ),
                "unexpected error code {code:?}"
            );
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    server.join();
}

#[test]
fn truncated_frame_closes_the_connection_without_panic() {
    let server = start_server();
    let addr = server.local_addr().to_string();

    // Promise 100 bytes, deliver 10, half-close. The server cannot
    // answer (the frame never completed) but must shed the connection
    // promptly and quietly.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut bytes = 100u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[7u8; 10]);
        stream.write_all(&bytes).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut rest = Vec::new();
        let n = stream.read_to_end(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "server replied to a frame that never completed");
    }

    // The server is still healthy: real clients keep working.
    let mut conn = Connection::connect(&addr).unwrap();
    conn.ping().unwrap();
    server.join();
}

#[test]
fn malformed_connection_does_not_disturb_healthy_ones() {
    let server = start_server();
    let addr = server.local_addr().to_string();

    let mut good = Connection::connect(&addr).unwrap();
    let out = good
        .execute(ScriptBuilder::new().counter_add("survivor", 1).build())
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);

    // A rotating cast of abusive connections...
    for junk in [
        vec![0xFFu8; 3],             // truncated header
        5u32.to_le_bytes().to_vec(), // header, then EOF mid-payload
        {
            let mut b = 4u32.to_le_bytes().to_vec();
            b.extend_from_slice(&[0x7E, 0, 0, 0]); // unknown request kind
            b
        },
    ] {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(&junk).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // Drain whatever the server says and let the socket die.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut sink = Vec::new();
        let _ = BufReader::new(stream).read_to_end(&mut sink);
    }

    // ...while the good connection keeps its state and its latency.
    let out = good
        .execute(ScriptBuilder::new().counter_get("survivor").build())
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);

    // The abuse is visible in stats (unknown-kind and any decode
    // failures count as protocol errors; pure truncations just close).
    let stats = good.stats_json().unwrap();
    let proto_errors: u64 = stats
        .split("\"proto_errors\":")
        .nth(1)
        .and_then(|s| s.split(['}', ',']).next())
        .and_then(|s| s.trim().parse().ok())
        .expect("proto_errors in stats");
    assert!(proto_errors >= 1, "stats did not count protocol errors");
    server.join();
}
