//! HTTP-layer edge cases, at two levels: the incremental parser driven
//! byte-by-byte (split reads, pipelining, size limits, malformed bodies)
//! and a live server poked with raw sockets (abrupt disconnects,
//! pipelined requests over one connection, error statuses on the wire).

mod common;

use cc_server::http::DEFAULT_MAX_BODY_BYTES;
use cc_server::{HttpClient, ParseError, RequestParser};
use std::io::{Read, Write};
use std::net::TcpStream;

// ---------------------------------------------------------------------------
// Parser level.

#[test]
fn request_split_across_arbitrary_read_boundaries() {
    let raw = b"POST /v1/check?top=2 HTTP/1.1\r\nhost: x\r\ncontent-length: 11\r\n\r\nhello world";
    // Every prefix split point: feed [..k) then [k..); the request must
    // parse identically, and never early.
    for k in 0..raw.len() {
        let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
        p.feed(&raw[..k]);
        let early = p.try_next().unwrap();
        if k < raw.len() {
            assert!(early.is_none(), "complete request claimed after {k}/{} bytes", raw.len());
        }
        p.feed(&raw[k..]);
        let req = p.try_next().unwrap().expect("complete after all bytes");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/check");
        assert_eq!(req.query_param("top"), Some("2"));
        assert_eq!(req.body, b"hello world");
        assert!(p.is_empty());
    }
    // And fully byte-by-byte.
    let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
    let mut parsed = 0;
    for &b in raw.iter() {
        p.feed(&[b]);
        if p.try_next().unwrap().is_some() {
            parsed += 1;
        }
    }
    assert_eq!(parsed, 1);
}

#[test]
fn pipelined_requests_parse_in_order() {
    let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
    p.feed(b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/check HTTP/1.1\r\ncontent-length: 2\r\n\r\nokGET /metrics HTTP/1.1\r\n\r\n");
    let a = p.try_next().unwrap().unwrap();
    let b = p.try_next().unwrap().unwrap();
    let c = p.try_next().unwrap().unwrap();
    assert_eq!(
        (a.path.as_str(), b.path.as_str(), c.path.as_str()),
        ("/healthz", "/v1/check", "/metrics")
    );
    assert_eq!(b.body, b"ok");
    assert!(p.try_next().unwrap().is_none());
    assert!(p.is_empty());
}

#[test]
fn oversized_headers_rejected_incrementally() {
    let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
    p.feed(b"GET / HTTP/1.1\r\n");
    // Keep feeding header lines without ever terminating the block; the
    // parser must flag the overflow without waiting for the terminator.
    let line = format!("x-filler: {}\r\n", "y".repeat(998));
    let mut result = Ok(None);
    for _ in 0..20 {
        p.feed(line.as_bytes());
        result = p.try_next();
        if result.is_err() {
            break;
        }
    }
    assert_eq!(result, Err(ParseError::HeadersTooLarge));
    // A terminated-but-huge header block is rejected too.
    let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
    p.feed(format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "y".repeat(17_000)).as_bytes());
    assert_eq!(p.try_next(), Err(ParseError::HeadersTooLarge));
}

#[test]
fn zero_length_and_bounded_bodies() {
    let mut p = RequestParser::new(16);
    p.feed(b"POST /v1/reload HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
    let req = p.try_next().unwrap().unwrap();
    assert!(req.body.is_empty());
    // Declared over the cap: rejected before any body byte arrives.
    p.feed(b"POST /v1/check HTTP/1.1\r\ncontent-length: 17\r\n\r\n");
    assert_eq!(p.try_next(), Err(ParseError::BodyTooLarge));
}

#[test]
fn malformed_bodies_and_framing() {
    // Non-numeric and negative content-lengths are framing errors.
    for bad in ["abc", "-1", "1e3", ""] {
        let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
        p.feed(format!("POST / HTTP/1.1\r\ncontent-length: {bad}\r\n\r\n").as_bytes());
        assert!(
            matches!(p.try_next(), Err(ParseError::BadRequest(_))),
            "content-length '{bad}' must be rejected"
        );
    }
    // A body shorter than declared stays incomplete (the connection
    // loop's EOF then surfaces it as an abrupt disconnect).
    let mut p = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
    p.feed(b"POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nab");
    assert_eq!(p.try_next(), Ok(None));
    assert!(!p.is_empty());
}

// ---------------------------------------------------------------------------
// Socket level, against a live server.

#[test]
fn live_server_survives_abuse() {
    // Same abuse, both connection cores: the epoll reactor and the
    // threaded pool must shed it identically.
    for io in common::io_modes() {
        live_server_survives_abuse_on(io);
    }
}

fn live_server_survives_abuse_on(io: cc_server::IoMode) {
    let dir = common::temp_dir(&format!("abuse_{io:?}"));
    common::write_profile(&dir, "p", &common::regime_profile(300, 0.0));
    let handle = common::start_server_io(&dir, 2, io);
    let addr = handle.addr();

    // 1. Abrupt disconnect mid-request: half a request line, then drop.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /v1/check HTTP/1.1\r\ncontent-length: 100\r\n\r\ntrunc").unwrap();
        drop(s);
    }
    // 2. Immediate disconnect with nothing sent.
    drop(TcpStream::connect(addr).unwrap());

    // 3. Garbage bytes: the server answers an error and closes.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"\x16\x03\x01 this is not http\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    }

    // 4. Oversized header block on the wire → 431.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let huge = format!("GET /healthz HTTP/1.1\r\nx: {}\r\n\r\n", "y".repeat(20_000));
        s.write_all(huge.as_bytes()).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        assert!(String::from_utf8_lossy(&buf).starts_with("HTTP/1.1 431"));
    }

    // 5. Two pipelined requests in one write → two in-order responses
    //    on the same connection.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/profiles HTTP/1.1\r\nconnection: close\r\n\r\n",
        )
        .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
        let first = text.find("\"status\":\"ok\"").unwrap();
        let second = text.find("\"profiles\":[{\"name\":\"p\"").unwrap();
        assert!(first < second, "pipelined responses out of order");
    }

    // After all the abuse, a normal request still works.
    let mut client = HttpClient::connect(addr).unwrap();
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));

    // Method/route errors come back as structured JSON.
    assert_eq!(client.get("/v1/check").unwrap().status, 405);
    assert_eq!(client.request("POST", "/healthz", b"").unwrap().status, 405);
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.request("POST", "/v1/check", b"{broken").unwrap().status, 400);
    assert_eq!(client.request("POST", "/v1/check", b"{}").unwrap().status, 400);
    let missing = client.request("POST", "/v1/check?profile=ghost", b"{\"columns\":{}}").unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.text().contains("ghost"));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A body of 100 000 nested `[` is about 100 KB, far under the body
/// limit. The JSON parser recurses once per nesting level, so without
/// its depth cap this body would overflow a worker's stack and abort the
/// daemon. It must be a 400 with the JSON error envelope, and the daemon
/// must keep serving.
#[test]
fn deeply_nested_json_body_is_a_400_not_a_crash() {
    for io in common::io_modes() {
        let dir = common::temp_dir(&format!("deep_json_{io:?}"));
        common::write_profile(&dir, "p", &common::regime_profile(300, 0.0));
        let handle = common::start_server_io(&dir, 2, io);
        let mut client = HttpClient::connect(handle.addr()).unwrap();

        let body = "[".repeat(100_000);
        let resp = client.request("POST", "/v2/check?profile=p", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "{io:?}: {}", resp.text());
        let envelope = resp.json().unwrap();
        let error = envelope.field("error").unwrap();
        assert_eq!(error.field("code").unwrap(), &serde_json::Value::String("bad_request".into()));
        let serde_json::Value::String(message) = error.field("message").unwrap() else {
            panic!("{io:?}: error message is not a string: {}", resp.text());
        };
        assert!(message.contains("recursion limit exceeded"), "{io:?}: {message}");

        // The same connection, and a fresh one, are still answered.
        assert_eq!(client.get("/healthz").unwrap().status, 200, "{io:?}");
        let mut fresh = HttpClient::connect(handle.addr()).unwrap();
        assert_eq!(fresh.get("/healthz").unwrap().status, 200, "{io:?}");

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
