//! The acceptance-criteria integration tests: HTTP-path results are
//! bit-identical to direct library calls, and registry hot-reload swaps
//! profiles under live concurrent traffic without failing a single
//! in-flight request.

mod common;

use cc_server::HttpClient;
use conformance::CompiledProfile;
use serde_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};

/// Pulls `"violations"` out of a `/v1/check` response as raw f64s.
fn violations_of(v: &Value) -> Vec<f64> {
    let Some(Value::Array(items)) = field(v, "violations") else {
        panic!("response lacks violations: {v:?}");
    };
    items.iter().map(|x| cc_server::json::as_f64(x).expect("numeric violation")).collect()
}

use cc_server::json::get as field;

#[test]
fn http_check_bit_identical_to_library_path() {
    let dir = common::temp_dir("bitid");
    let profile = common::regime_profile(900, 0.0);
    common::write_profile(&dir, "main", &profile);
    let handle = common::start_server(&dir, 2);
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // Serving batches that straddle the evaluation block size, plus the
    // degenerate empty batch.
    for n in [0, 1, 511, 512, 513, 700] {
        let serve = common::regime_frame(n, 3.0);
        let body = common::columns_body(&serve);
        let resp = client.post_json("/v1/check", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let http_v = violations_of(&resp.json().unwrap());

        // The library path on the same frame. The wire carries f64s in
        // shortest-round-trip decimal both directions, so equality must
        // hold to the bit.
        let plan = CompiledProfile::compile(&profile);
        let lib_v = plan.violations(&serve).unwrap();
        assert_eq!(http_v.len(), lib_v.len());
        for (i, (h, l)) in http_v.iter().zip(&lib_v).enumerate() {
            assert_eq!(h.to_bits(), l.to_bits(), "row {i} of n={n}: http {h} vs lib {l}");
        }
    }

    // Drift over HTTP matches the aggregators over the same plan.
    let serve = common::regime_frame(333, 5.0);
    let resp = client.post_json("/v1/drift", &common::columns_body(&serve)).unwrap();
    assert_eq!(resp.status, 200);
    let drift = resp.json().unwrap();
    let plan = CompiledProfile::compile(&profile);
    for (key, agg) in [
        ("mean", conformance::DriftAggregator::Mean),
        ("p95", conformance::DriftAggregator::Quantile(0.95)),
        ("max", conformance::DriftAggregator::Max),
    ] {
        let Some(Value::Number(got)) = field(&drift, key) else { panic!("missing {key}") };
        let want = agg.aggregate_compiled(&plan, &serve).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "{key}");
    }

    // Explain: breakdown labels match the plan's, and responsibility
    // appears when means are supplied.
    let means: Vec<(String, Value)> =
        profile.numeric_attributes.iter().map(|a| (a.clone(), Value::Number(0.0))).collect();
    let mut body = common::columns_body(&common::regime_frame(40, 50.0));
    if let Value::Object(pairs) = &mut body {
        pairs.push(("means".to_owned(), Value::Object(means)));
    }
    let resp = client.post_json("/v1/explain", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let explain = resp.json().unwrap();
    assert!(matches!(field(&explain, "breakdown"), Some(Value::Array(a)) if !a.is_empty()));
    let Some(Value::Array(resp_items)) = field(&explain, "responsibility") else {
        panic!("responsibility missing when means were supplied");
    };
    assert_eq!(resp_items.len(), profile.numeric_attributes.len());

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_reload_under_concurrent_traffic() {
    let dir = common::temp_dir("hotswap");
    let profile_a = common::regime_profile(600, 0.0);
    common::write_profile(&dir, "live", &profile_a);
    let handle = common::start_server(&dir, 4);
    let addr = handle.addr();

    let serve = common::regime_frame(257, 1.0);
    let body = common::columns_body(&serve);
    let plan_a = CompiledProfile::compile(&profile_a);
    let expect_a = plan_a.violations(&serve).unwrap();
    let profile_b = common::regime_profile(600, 40.0);
    let plan_b = CompiledProfile::compile(&profile_b);
    let expect_b = plan_b.violations(&serve).unwrap();
    assert_ne!(
        expect_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        expect_b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "the two generations must be distinguishable"
    );

    // Clients hammer /v1/check on keep-alive connections while the main
    // thread swaps the profile file and reloads repeatedly. Every
    // response must be a 200 whose violations match generation A or
    // generation B exactly — never an error, never a mix.
    let stop = AtomicBool::new(false);
    let checks_done = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut client = HttpClient::connect(addr).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let resp = client.post_json("/v1/check", &body).unwrap();
                    assert_eq!(resp.status, 200, "in-flight request failed: {}", resp.text());
                    let got = violations_of(&resp.json().unwrap());
                    let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    let a: Vec<u64> = expect_a.iter().map(|v| v.to_bits()).collect();
                    let b: Vec<u64> = expect_b.iter().map(|v| v.to_bits()).collect();
                    assert!(
                        bits == a || bits == b,
                        "response matches neither generation bit-for-bit"
                    );
                    checks_done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Interleave a dozen swap+reload cycles with the traffic.
        let mut admin = HttpClient::connect(addr).unwrap();
        for gen in 0..12 {
            let next = if gen % 2 == 0 { &profile_b } else { &profile_a };
            common::write_profile(&dir, "live", next);
            let resp = admin.request("POST", "/v1/reload", b"").unwrap();
            assert_eq!(resp.status, 200, "reload failed: {}", resp.text());
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        checks_done.load(Ordering::Relaxed) >= 20,
        "traffic threads barely ran ({} checks)",
        checks_done.load(Ordering::Relaxed)
    );

    // Registry generation advanced through all 12 reloads + initial load.
    let mut client = HttpClient::connect(addr).unwrap();
    let health = client.get("/healthz").unwrap().json().unwrap();
    let Some(Value::Number(generation)) = field(&health, "generation") else {
        panic!("healthz lacks generation")
    };
    assert_eq!(*generation, 13.0);

    // The last swap left generation A on disk (gen 11 wrote profile_a):
    // post-reload traffic must now match A exactly.
    let resp = client.post_json("/v1/check", &body).unwrap();
    let bits: Vec<u64> = violations_of(&resp.json().unwrap()).iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, expect_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

    // A reload failure (broken file) keeps serving the old snapshot.
    std::fs::write(dir.join("live.json"), "{oops").unwrap();
    let resp = client.request("POST", "/v1/reload", b"").unwrap();
    assert_eq!(resp.status, 409, "{}", resp.text());
    let resp = client.post_json("/v1/check", &body).unwrap();
    assert_eq!(resp.status, 200);

    // Metrics reflect the reload churn.
    let metrics = client.get("/metrics").unwrap();
    let text = metrics.text();
    assert!(text.contains("cc_server_profile_compiles_total{profile=\"live\"} 13"), "{text}");
    assert!(text.contains("cc_server_registry_generation 13"), "{text}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_is_not_blocked_by_a_partial_request() {
    for io in common::io_modes() {
        shutdown_is_not_blocked_by_a_partial_request_on(io);
    }
}

fn shutdown_is_not_blocked_by_a_partial_request_on(io: cc_server::IoMode) {
    let dir = common::temp_dir(&format!("partial_{io:?}"));
    common::write_profile(&dir, "p", &common::regime_profile(300, 0.0));
    let handle = common::start_server_io(&dir, 1, io);
    let addr = handle.addr();
    // Half a request, never completed: the lone worker is reading it.
    use std::io::Write;
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /v1/check HTTP/1.1\r\ncontent-length: 1000\r\n\r\npartial").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Graceful shutdown must still complete promptly — incomplete
    // requests are dropped, not waited out.
    let t = std::time::Instant::now();
    handle.shutdown();
    assert!(
        t.elapsed() < std::time::Duration::from_secs(5),
        "shutdown hung on a partial request ({:?})",
        t.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_keep_alive_client_does_not_starve_others() {
    for io in common::io_modes() {
        persistent_keep_alive_client_does_not_starve_others_on(io);
    }
}

fn persistent_keep_alive_client_does_not_starve_others_on(io: cc_server::IoMode) {
    let dir = common::temp_dir(&format!("fairness_{io:?}"));
    common::write_profile(&dir, "p", &common::regime_profile(300, 0.0));
    // One worker: under the threads core, without fair requeueing a
    // single persistent keep-alive client would pin it forever; under
    // the epoll core the lone compute worker drains jobs FIFO across
    // connections.
    let handle = common::start_server_io(&dir, 1, io);
    let addr = handle.addr();
    let body = common::columns_body(&common::regime_frame(64, 1.0));

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut hog = HttpClient::connect(addr).unwrap();
            while !stop.load(Ordering::Relaxed) {
                // The hog never idles; only fairness lets anyone else in.
                let resp = hog.post_json("/v1/check", &body).unwrap();
                assert_eq!(resp.status, 200);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        // A latecomer on a raw socket with a hard read deadline: it must
        // be answered while the hog keeps hammering.
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        use std::io::{Read, Write};
        s.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("latecomer starved behind keep-alive client");
        assert!(String::from_utf8_lossy(&buf).starts_with("HTTP/1.1 200"));
        stop.store(true, Ordering::Relaxed);
    });
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_completes_inflight_requests() {
    for io in common::io_modes() {
        graceful_shutdown_completes_inflight_requests_on(io);
    }
}

fn graceful_shutdown_completes_inflight_requests_on(io: cc_server::IoMode) {
    let dir = common::temp_dir(&format!("drain_{io:?}"));
    common::write_profile(&dir, "p", &common::regime_profile(400, 0.0));
    let handle = common::start_server_io(&dir, 2, io);
    let addr = handle.addr();
    let body = common::columns_body(&common::regime_frame(2000, 1.0));

    // Fire a request from a thread, then shut down concurrently; the
    // response must still arrive complete (keep-alive demoted to close).
    let worker = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.post_json("/v1/check", &body).map(|r| r.status)
    });
    std::thread::sleep(std::time::Duration::from_millis(5));
    handle.shutdown();
    let status = worker.join().unwrap();
    assert!(
        matches!(status, Ok(200)) || status.is_err(),
        "in-flight request must finish cleanly or the connection predate the server: {status:?}"
    );
    // After shutdown the port stops answering.
    match HttpClient::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.get("/healthz").is_err(), "server still serving after shutdown"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request's `threads` is capped at the host's parallelism, and the
/// reply does not depend on it: `threads=64` returns the same bytes as
/// `threads=1`, on `/v1/check` and on `/v1/ingest` (two fresh monitors
/// fed the same batches, whose replies differ only in the name).
#[test]
fn thread_count_does_not_change_reply_bytes() {
    let dir = common::temp_dir("threads");
    let profile = common::regime_profile(900, 0.0);
    common::write_profile(&dir, "main", &profile);
    let handle = common::start_server(&dir, 2);
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // Four evaluation blocks and a ragged tail, so more than one thread
    // has work when more are allowed.
    let serve = common::regime_frame(4 * 512 + 7, 3.0);
    let body = common::columns_body(&serve);
    let one = client.post_json("/v1/check?threads=1", &body).unwrap();
    let many = client.post_json("/v1/check?threads=64", &body).unwrap();
    assert_eq!(one.status, 200, "{}", one.text());
    assert_eq!(many.status, 200, "{}", many.text());
    assert_eq!(one.body, many.body);

    for round in 0..3 {
        let batch = common::columns_body(&common::regime_frame(1500, round as f64));
        let [one, many] = ["1", "64"].map(|threads| {
            let target = format!("/v1/ingest?monitor=t{threads}&window=200&threads={threads}");
            let resp = client.post_json(&target, &batch).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.text());
            resp.text().replace(&format!("\"t{threads}\""), "\"t\"")
        });
        assert_eq!(one, many, "ingest round {round}");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
