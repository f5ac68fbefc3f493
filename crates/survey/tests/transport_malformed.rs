//! Malformed-frame tolerance: truncated, bit-flipped, unframed, and
//! garbage variants of every protocol message, fed to live servers over
//! both transports. The server must answer each damaged frame with a
//! retryable signal (or drop it cleanly), never die, and keep serving
//! well-formed traffic afterwards.

use crc_survey::frame;
use crc_survey::json::Json;
use crc_survey::transport::{
    FileQueueServer, Reply, Request, ServeTransport, ShardLease, TcpServer,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crc-malformed-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One frame per protocol message shape (requests and replies — a
/// confused peer may send either at either end).
fn sample_frames() -> Vec<String> {
    let reqs = [
        Request::Hello {
            worker: "w1".into(),
        },
        Request::Lease {
            worker: "w1".into(),
        },
        Request::Submit {
            worker: "w1".into(),
            log: Json::obj([("shard", Json::Int(3))]),
            lease_next: false,
        },
        Request::Submit {
            worker: "w1".into(),
            log: Json::obj([("shard", Json::Int(3))]),
            lease_next: true,
        },
        Request::Status {
            worker: "w1".into(),
        },
    ];
    let replies = [
        Reply::Welcome {
            config: Json::obj([("width", Json::Int(13))]),
            config_hash: "0x0123456789abcdef".into(),
        },
        Reply::Assign {
            shard: 5,
            start: 0,
            end: 99,
        },
        Reply::Wait { backoff_ms: 50 },
        Reply::Retry {
            reason: "CRC mismatch".into(),
        },
        Reply::Done,
        Reply::Accepted {
            shard: 5,
            fresh: true,
            complete: false,
            next: Some(ShardLease {
                shard: 6,
                start: 100,
                end: 199,
            }),
        },
    ];
    // CRC-valid, but its `next` lease has no `end`.
    let bad_next = r#"{"type": "accepted", "shard": 5, "fresh": true, "complete": false, "next": {"shard": 6, "start": 100}}"#;
    reqs.iter()
        .map(|r| frame::encode(&r.to_json().render_compact()))
        .chain(
            replies
                .iter()
                .map(|r| frame::encode(&r.to_json().render_compact())),
        )
        .chain([frame::encode(bad_next)])
        .collect()
}

/// Damaged variants of one frame: truncations at several depths, bit
/// flips across the payload and the trailer, the bare payload with no
/// trailer, and outright garbage.
fn mangled(framed: &str) -> Vec<Vec<u8>> {
    let bytes = framed.as_bytes();
    let mut out = Vec::new();
    for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
        out.push(bytes[..cut].to_vec());
    }
    for (i, bit) in [
        (0, 0),
        (bytes.len() / 3, 4),
        (bytes.len() - 2, 5),
        (bytes.len() - 9, 1),
    ] {
        let mut v = bytes.to_vec();
        v[i] ^= 1 << bit;
        out.push(v);
    }
    out.push(framed.as_bytes()[..framed.len() - 15].to_vec()); // no trailer
    out.push(b"!!! not even json !!!".to_vec());
    out.push(vec![0xFF, 0xFE, 0x00, 0x41]); // invalid UTF-8
    out
}

#[test]
fn file_queue_server_survives_every_mangled_frame() {
    let root = test_dir("fq");
    let mut server = FileQueueServer::new(&root).unwrap();
    let mut handled = 0u32;
    let mut seq = 0u32;

    for framed in sample_frames() {
        for damage in mangled(&framed) {
            seq += 1;
            let name = format!("req-w1-{seq:08}.json");
            std::fs::write(root.join("inbox").join(&name), &damage).unwrap();
            let served = server
                .serve_one(&mut |_req| {
                    handled += 1;
                    Reply::Done
                })
                .expect("a damaged frame must never error the serve loop");
            assert!(served, "the damaged file was consumed");
            assert!(
                !root.join("inbox").join(&name).exists(),
                "damaged request file must be removed"
            );
            // A CRC-rejected frame earns a framed Retry into the
            // sender's outbox (attribution survives in the file name).
            let rsp = root
                .join("outbox")
                .join("w1")
                .join(format!("rsp-{seq:08}.json"));
            if frame::decode_bytes(&damage).is_err() {
                let text = std::fs::read_to_string(&rsp).unwrap();
                let payload = frame::decode(&text).unwrap();
                let reply = Reply::from_json(&Json::parse(payload).unwrap()).unwrap();
                assert!(
                    matches!(reply, Reply::Retry { .. }),
                    "expected a retry signal, got {reply:?}"
                );
                let _ = std::fs::remove_file(&rsp);
            }
        }
    }
    assert_eq!(handled, 0, "no damaged frame may ever reach the handler");
    assert!(server.wire_stats().frames_rejected > 0);

    // The server still serves honest traffic afterwards.
    let honest = frame::encode(
        &Request::Lease {
            worker: "w1".into(),
        }
        .to_json()
        .render_compact(),
    );
    std::fs::write(root.join("inbox").join("req-w1-99999999.json"), honest).unwrap();
    server
        .serve_one(&mut |_req| {
            handled += 1;
            Reply::Done
        })
        .unwrap();
    assert_eq!(handled, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tcp_server_survives_every_mangled_frame() {
    let mut server = TcpServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();

    let exchange = |line: &[u8], server: &mut TcpServer, handled: &mut u32| -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut msg = line.to_vec();
        msg.push(b'\n');
        stream.write_all(&msg).unwrap();
        // Serve until the server picks the call up (an idle call waits
        // at most a bounded time, then returns false).
        loop {
            match server.serve_one(&mut |_req| {
                *handled += 1;
                Reply::Done
            }) {
                Ok(true) => break,
                Ok(false) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => panic!("a damaged frame must never error the serve loop: {e}"),
            }
        }
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        reply
    };

    let mut handled = 0u32;
    for framed in sample_frames() {
        for damage in mangled(&framed) {
            // Frames containing a newline would split into two lines —
            // the remainder is just another (truncated, rejected) line,
            // but keep the accounting simple by skipping those.
            if damage.contains(&b'\n') {
                continue;
            }
            let reply_line = exchange(&damage, &mut server, &mut handled);
            assert!(!reply_line.is_empty(), "server must answer, not die");
            let payload = frame::decode_bytes(&reply_line).unwrap();
            let reply = Reply::from_json(&Json::parse(&payload).unwrap()).unwrap();
            if frame::decode_bytes(&damage).is_err() {
                assert!(
                    matches!(reply, Reply::Retry { .. }),
                    "CRC-damaged line must earn a retry, got {reply:?}"
                );
            } else {
                // Intact frames: requests are handled, replies-as-
                // requests are schema errors → refused.
                assert!(
                    matches!(reply, Reply::Done | Reply::Refused { .. }),
                    "unexpected reply {reply:?}"
                );
            }
        }
    }
    assert_eq!(handled, 0, "no damaged frame may ever reach the handler");
    assert!(server.wire_stats().frames_rejected > 0);

    // Still serving honest traffic.
    let honest = frame::encode(
        &Request::Status {
            worker: "w9".into(),
        }
        .to_json()
        .render_compact(),
    );
    let reply_line = exchange(honest.as_bytes(), &mut server, &mut handled);
    let payload = frame::decode_bytes(&reply_line).unwrap();
    assert_eq!(
        Reply::from_json(&Json::parse(&payload).unwrap()).unwrap(),
        Reply::Done
    );
    assert_eq!(handled, 1);
}
