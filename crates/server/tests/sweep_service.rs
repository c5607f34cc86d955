//! End-to-end contract of the sweep service: a repeated identical
//! request is served from the cache, marked as a hit, and bit-identical
//! to the cold computation — across connections and thread counts.

use nplus_server::{client, Json, SweepServer};
use std::net::SocketAddr;
use std::thread::JoinHandle;

fn start_server() -> (SocketAddr, JoinHandle<()>) {
    let server = SweepServer::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.serve().expect("serve loop"));
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<()>) {
    client::request_once(&addr.to_string(), "{\"cmd\":\"shutdown\"}").expect("shutdown");
    handle.join().expect("serve loop exits");
}

#[test]
fn repeated_requests_hit_the_cache_bit_identically() {
    let (addr, handle) = start_server();
    let addr_s = addr.to_string();
    let request = "{\"cmd\":\"sweep\",\"scenario\":\"pairs:2\",\"rounds\":3,\
                   \"seeds\":[0,1],\"policies\":[\"dot11n\",\"nplus\"],\"threads\":1}";

    let cold = client::request_once(&addr_s, request).expect("cold request");
    assert_eq!(cold.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(cold.get("cache_hit").and_then(Json::as_bool), Some(false));
    let key = cold
        .get("key")
        .and_then(Json::as_str)
        .expect("key")
        .to_string();
    assert_eq!(key.len(), 32, "key is 32 hex chars: {key}");
    let cold_stats = cold.get("stats").expect("stats").clone();
    assert_eq!(cold_stats.as_array().map(<[Json]>::len), Some(2));

    // Same request again, on a new connection: a hit, same key,
    // bit-identical serialized statistics.
    let warm = client::request_once(&addr_s, request).expect("warm request");
    assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("key").and_then(Json::as_str), Some(key.as_str()));
    assert_eq!(
        warm.get("stats").expect("stats").to_string_compact(),
        cold_stats.to_string_compact(),
        "cached stats must be bit-identical to the cold computation"
    );

    // The same spec at a different thread count is the same key (threads
    // are an execution detail) and still bit-identical.
    let two_threads = request.replace("\"threads\":1", "\"threads\":2");
    let parallel = client::request_once(&addr_s, &two_threads).expect("parallel request");
    assert_eq!(
        parallel.get("cache_hit").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        parallel.get("key").and_then(Json::as_str),
        Some(key.as_str())
    );
    assert_eq!(
        parallel.get("stats").expect("stats").to_string_compact(),
        cold_stats.to_string_compact()
    );

    // A genuinely different spec is a different key and a fresh miss.
    let other = request.replace("\"rounds\":3", "\"rounds\":4");
    let resp = client::request_once(&addr_s, &other).expect("different spec");
    assert_eq!(resp.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert_ne!(resp.get("key").and_then(Json::as_str), Some(key.as_str()));

    // Counters agree: 2 hits, 2 misses, 2 distinct entries.
    let counters = client::request_once(&addr_s, "{\"cmd\":\"stats\"}").expect("counters");
    assert_eq!(counters.get("entries").and_then(Json::as_u64), Some(2));
    assert_eq!(counters.get("hits").and_then(Json::as_u64), Some(2));
    assert_eq!(counters.get("misses").and_then(Json::as_u64), Some(2));

    // The stats response is deterministic: cached keys come back in
    // ascending order (not hash-map order), so the serialized response
    // is byte-identical between consecutive calls on the same state.
    let keys: Vec<&str> = counters
        .get("keys")
        .and_then(Json::as_array)
        .expect("keys")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(keys.len(), 2);
    assert!(keys.contains(&key.as_str()), "stats lists the cached key");
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "stats keys must be sorted");
    let again = client::request_once(&addr_s, "{\"cmd\":\"stats\"}").expect("counters again");
    assert_eq!(
        again.to_string_compact(),
        counters.to_string_compact(),
        "stats response must serialize byte-identically"
    );
    shutdown(addr, handle);
}

#[test]
fn cached_results_match_an_in_process_run_exactly() {
    use nplus::prelude::*;

    let (addr, handle) = start_server();
    let request = "{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":2,\
                   \"seeds\":[0],\"policies\":[\"nplus\"],\"environment\":\"outdoor\"}";
    let served = client::request_once(&addr.to_string(), request).expect("request");
    assert_eq!(served.get("status").and_then(Json::as_str), Some("ok"));

    let local = SweepSpec::new(Scenario::three_pairs())
        .environment_named("outdoor")
        .expect("registry name")
        .rounds(2)
        .seeds([0u64])
        .policy_named("nplus")
        .expect("registry name")
        .try_run()
        .expect("local run");
    let stats = served.get("stats").and_then(Json::as_array).expect("stats");
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].get("policy").and_then(Json::as_str), Some("nplus"));
    assert_eq!(
        stats[0].get("mean_total_mbps").and_then(Json::as_f64),
        Some(local[0].mean_total_mbps),
        "served mean must equal the in-process engine exactly"
    );
    assert_eq!(
        stats[0].get("n_runs").and_then(Json::as_u64),
        Some(local[0].n_runs as u64)
    );
    shutdown(addr, handle);
}

#[test]
fn one_connection_can_pipeline_requests_and_errors() {
    let (addr, handle) = start_server();
    let mut stream = client::connect_retry(&addr.to_string(), std::time::Duration::from_secs(5))
        .expect("connect");

    let pong = client::roundtrip(&mut stream, "{\"cmd\":\"ping\"}").expect("ping");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    // An error response leaves the same connection usable.
    let err = client::roundtrip(
        &mut stream,
        "{\"cmd\":\"sweep\",\"scenario\":\"nope\",\"rounds\":1}",
    )
    .expect("error roundtrip");
    assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
    assert!(err
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("nope"));

    let ok = client::roundtrip(
        &mut stream,
        "{\"cmd\":\"sweep\",\"scenario\":\"pairs:2\",\"rounds\":2,\"seeds\":[1],\"policies\":[\"dot11n\"]}",
    )
    .expect("sweep after error");
    assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
    drop(stream);
    shutdown(addr, handle);
}

/// A ~80-byte request naming ten billion seeds is refused with an error
/// response before anything is allocated for it: the server process
/// survives (an allocation failure would abort this test binary) and
/// the same connection still answers `ping`.
#[test]
fn huge_seed_count_is_refused_and_the_server_keeps_answering() {
    let (addr, handle) = start_server();
    let mut stream = client::connect_retry(&addr.to_string(), std::time::Duration::from_secs(5))
        .expect("connect");

    let err = client::roundtrip(
        &mut stream,
        r#"{"cmd":"sweep","scenario":"three_pairs","rounds":2,"seed_count":10000000000}"#,
    )
    .expect("error roundtrip");
    assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
    assert!(err
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("seed_count"));

    let pong = client::roundtrip(&mut stream, "{\"cmd\":\"ping\"}").expect("ping");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    drop(stream);
    shutdown(addr, handle);
}

/// Sends `request` as one frame in one write and reads the response
/// frame, without the crate's client, so only the server's transport is
/// under test.
fn raw_roundtrip(stream: &mut std::net::TcpStream, request: &str) -> Json {
    use std::io::{Read, Write};
    let mut frame = (request.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(request.as_bytes());
    stream.write_all(&frame).expect("write request frame");
    let mut prefix = [0u8; 4];
    stream
        .read_exact(&mut prefix)
        .expect("read response prefix");
    let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
    stream.read_exact(&mut body).expect("read response body");
    nplus_server::json::parse(std::str::from_utf8(&body).expect("UTF-8 response"))
        .expect("JSON response")
}

/// Back-to-back round trips on one connection do not stall in the
/// transport. A response written as two sends (prefix, then payload)
/// on a socket with Nagle's algorithm on waits ~40 ms for the client's
/// delayed ACK, so these 250 exchanges would take ≥ 8.8 s; answered at
/// once they take a few milliseconds.
#[test]
fn sequential_round_trips_do_not_wait_on_delayed_acks() {
    let (addr, handle) = start_server();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    let sweep = "{\"cmd\":\"sweep\",\"scenario\":\"pairs:2\",\"rounds\":2,\
                 \"seeds\":[0],\"policies\":[\"dot11n\"],\"threads\":1}";
    let cold = raw_roundtrip(&mut stream, sweep);
    assert_eq!(cold.get("cache_hit").and_then(Json::as_bool), Some(false));

    let started = std::time::Instant::now();
    for _ in 0..200 {
        let pong = raw_roundtrip(&mut stream, "{\"cmd\":\"ping\"}");
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    }
    for _ in 0..50 {
        let warm = raw_roundtrip(&mut stream, sweep);
        assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "250 round trips took {elapsed:?}: the transport is stalling"
    );
    drop(stream);
    shutdown(addr, handle);
}
