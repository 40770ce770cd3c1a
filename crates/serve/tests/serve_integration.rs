//! End-to-end tests for the advisory server: the bit-identity contract
//! (coalesced == cached == direct `advise`), per-request error isolation,
//! shutdown draining, and the TCP wire.
//!
//! All tests use an **untrained** tiny advisor: weights are random but
//! seeded, so probabilities are deterministic — and inference behavior
//! (bucketing, batching, caching) is identical to a trained advisor's,
//! without paying a training run per test.

use pragformer_core::{Advice, Advisor, Scale};
use pragformer_serve::{AdvisorServer, ServeConfig, ServeError, TcpServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Snippets covering several length buckets, repeated idioms, and a
/// reduction.
fn snippets() -> Vec<&'static str> {
    vec![
        "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
        "for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);",
        "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
        "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x[i] = x[i] + A[i][j] * y[j];",
        "for (i = 0; i < n; i++) a[i] = b[i] + c[i];", // duplicate of [0]
    ]
}

fn assert_advice_bits_eq(a: &Advice, b: &Advice, ctx: &str) {
    assert_eq!(a.needs_directive, b.needs_directive, "{ctx}: verdict");
    assert_eq!(a.confidence.to_bits(), b.confidence.to_bits(), "{ctx}: confidence bits");
    assert_eq!(
        a.private_probability.to_bits(),
        b.private_probability.to_bits(),
        "{ctx}: private bits"
    );
    assert_eq!(
        a.reduction_probability.to_bits(),
        b.reduction_probability.to_bits(),
        "{ctx}: reduction bits"
    );
    assert_eq!(a.compar_agrees, b.compar_agrees, "{ctx}: compar");
    assert_eq!(
        a.suggestion.as_ref().map(|d| d.to_string()),
        b.suggestion.as_ref().map(|d| d.to_string()),
        "{ctx}: suggestion"
    );
}

/// Coalesced concurrent requests — and a second, fully cache-hit round —
/// return bit-identical advice to direct `Advisor::advise` calls.
#[test]
fn coalesced_and_cached_match_direct_advise_bitwise() {
    let mut advisor = Advisor::untrained(Scale::Tiny, 7);
    let sources = snippets();
    let direct: Vec<Advice> =
        sources.iter().map(|s| advisor.advise(s).expect("snippet parses")).collect();

    let server = AdvisorServer::start(
        advisor,
        ServeConfig {
            deadline: Duration::from_millis(1000),
            max_batch: sources.len(),
            ..ServeConfig::default()
        },
    );

    let run_round = |server: &AdvisorServer| -> Vec<Advice> {
        let barrier = Arc::new(Barrier::new(sources.len()));
        let handles: Vec<_> = sources
            .iter()
            .map(|&src| {
                let client = server.client();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    client.advise(src).expect("snippet parses")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    };

    // Round 1: cold cache, coalesced forwards.
    let round1 = run_round(&server);
    for (i, (served, want)) in round1.iter().zip(&direct).enumerate() {
        assert_advice_bits_eq(served, want, &format!("cold round, snippet {i}"));
    }
    let after_cold = server.stats();
    assert!(
        after_cold.max_batch >= 2,
        "requests submitted through a barrier must coalesce (max_batch = {})",
        after_cold.max_batch
    );
    assert!(after_cold.cache_misses >= 1);

    // Round 2: warm cache — every forward is skipped, bits unchanged.
    let round2 = run_round(&server);
    for (i, (served, want)) in round2.iter().zip(&direct).enumerate() {
        assert_advice_bits_eq(served, want, &format!("warm round, snippet {i}"));
    }
    let after_warm = server.stats();
    assert!(
        after_warm.cache_hits > after_cold.cache_hits,
        "second round must hit the cache (hits {} -> {})",
        after_cold.cache_hits,
        after_warm.cache_hits
    );
    assert_eq!(
        after_warm.cache_misses, after_cold.cache_misses,
        "second round must add no cache misses"
    );
    assert_eq!(after_warm.requests, 2 * sources.len() as u64);

    // The advisor comes back out on shutdown, still usable.
    let mut advisor = server.shutdown();
    let again = advisor.advise(sources[0]).unwrap();
    assert_advice_bits_eq(&again, &direct[0], "post-shutdown direct advise");
}

/// A parse error inside a coalesced batch reaches only the request that
/// submitted the bad snippet.
#[test]
fn parse_errors_are_isolated_to_their_request() {
    let advisor = Advisor::untrained(Scale::Tiny, 9);
    let server = AdvisorServer::start(
        advisor,
        ServeConfig {
            deadline: Duration::from_millis(1000),
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    let good = "for (i = 0; i < n; i++) a[i] = b[i] + c[i];";
    let bad = "for (i = 0; i < ; i++ {";

    let barrier = Arc::new(Barrier::new(4));
    let mk = |src: &'static str| {
        let client = server.client();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            client.advise(src)
        })
    };
    let results = [mk(good), mk(bad), mk(good), mk(good)].map(|h| h.join().expect("client thread"));

    assert!(results[0].is_ok(), "good snippet poisoned by neighbor: {:?}", results[0]);
    match &results[1] {
        Err(ServeError::Parse(_)) => {}
        other => panic!("bad snippet must fail with Parse, got {other:?}"),
    }
    assert!(results[2].is_ok());
    assert!(results[3].is_ok());
    assert_eq!(server.stats().requests, 4);
}

/// Shutdown answers every request already submitted (drain), and later
/// submits observe `Closed`.
#[test]
fn shutdown_drains_in_flight_requests() {
    let advisor = Advisor::untrained(Scale::Tiny, 11);
    let server = AdvisorServer::start(
        advisor,
        ServeConfig {
            // A long deadline: without the shutdown message the batch
            // would sit collecting for 30 s.
            deadline: Duration::from_secs(30),
            max_batch: 64,
            ..ServeConfig::default()
        },
    );
    let clients: Vec<_> = (0..6).map(|_| server.client()).collect();
    let handles: Vec<_> = clients
        .into_iter()
        .map(|client| {
            std::thread::spawn(move || client.advise("for (i = 0; i < n; i++) a[i] = 2 * b[i];"))
        })
        .collect();
    // Let every submit land in the queue (the collector is holding the
    // batch open under its 30 s deadline).
    std::thread::sleep(Duration::from_millis(300));

    let late_client = server.client();
    let _ = server.shutdown(); // must not hang, must answer all six

    for (i, h) in handles.into_iter().enumerate() {
        let result = h.join().expect("client thread");
        assert!(result.is_ok(), "request {i} dropped during shutdown: {result:?}");
    }
    match late_client.advise("for (i = 0; i < n; i++) a[i] = 0;") {
        Err(ServeError::Closed) => {}
        other => panic!("post-shutdown submit must observe Closed, got {other:?}"),
    }
}

/// Full loopback round-trip: NDJSON over TCP, multiple requests per
/// connection, malformed lines answered without killing the connection,
/// floats surviving the wire bit-for-bit.
#[test]
fn tcp_roundtrip_preserves_bits_and_isolates_errors() {
    let mut advisor = Advisor::untrained(Scale::Tiny, 13);
    let probe = "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];";
    let direct = advisor.advise(probe).expect("probe parses");

    let server = AdvisorServer::start(
        advisor,
        ServeConfig { deadline: Duration::from_millis(1), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), 2).expect("bind loopback");
    let addr = tcp.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    let send = |writer: &mut TcpStream, line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
    };
    let recv = |reader: &mut BufReader<TcpStream>| -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        line
    };

    // 1. A well-formed request round-trips with exact float bits.
    send(
        &mut writer,
        &format!("{{\"id\": 31, \"code\": \"{}\"}}", pragformer_serve::wire::escape_json(probe)),
    );
    let resp = pragformer_serve::wire::parse_response(&recv(&mut reader)).expect("parse response");
    assert_eq!(resp.id, 31);
    assert!(resp.ok, "probe must be advised: {:?}", resp.error);
    assert_eq!(resp.confidence.to_bits(), direct.confidence.to_bits());
    assert_eq!(resp.private_probability.to_bits(), direct.private_probability.to_bits());
    assert_eq!(resp.reduction_probability.to_bits(), direct.reduction_probability.to_bits());
    assert_eq!(resp.compar_agrees, direct.compar_agrees);
    assert_eq!(resp.suggestion, direct.suggestion.as_ref().map(|d| d.to_string()));

    // 2. A snippet that fails to parse returns ok:false on its own id.
    send(&mut writer, "{\"id\": 32, \"code\": \"for (i = 0; i < ; i++ {\"}");
    let resp = pragformer_serve::wire::parse_response(&recv(&mut reader)).unwrap();
    assert_eq!(resp.id, 32);
    assert!(!resp.ok);
    assert!(resp.error.is_some());

    // 3. A malformed JSON line answers an error and keeps the connection.
    send(&mut writer, "this is not json");
    let resp = pragformer_serve::wire::parse_response(&recv(&mut reader)).unwrap();
    assert!(!resp.ok);

    // 4. The connection still serves after the garbage line.
    send(
        &mut writer,
        &format!("{{\"id\": 33, \"code\": \"{}\"}}", "for (i = 0; i < n; i++) a[i] = 1;"),
    );
    let resp = pragformer_serve::wire::parse_response(&recv(&mut reader)).unwrap();
    assert_eq!(resp.id, 33);
    assert!(resp.ok);

    drop(writer);
    drop(reader);
    tcp.shutdown();
    let _ = server.shutdown();
}

/// Pipelined request lines on one connection are answered in order,
/// with per-line error isolation, and large ids survive verbatim.
#[test]
fn tcp_pipelined_requests_answer_in_order() {
    let advisor = Advisor::untrained(Scale::Tiny, 19);
    let server = AdvisorServer::start(
        advisor,
        ServeConfig { deadline: Duration::from_millis(5), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), 2).expect("bind loopback");

    let stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // One burst: three valid requests (one with an id above 2^53), one
    // malformed line, one parse error — five responses expected, in
    // order.
    let big_id = (1u64 << 53) + 7;
    let burst = format!(
        "{{\"id\": 1, \"code\": \"for (i = 0; i < n; i++) a[i] = b[i];\"}}\n\
         {{\"id\": 2, \"code\": \"for (i = 0; i < n; i++) v[i] = v[i] / norm;\"}}\n\
         not json at all\n\
         {{\"id\": 3, \"code\": \"for (i = 0; i < ; i++ {{\"}}\n\
         {{\"id\": {big_id}, \"code\": \"for (i = 0; i < n; i++) a[i] = b[i];\"}}\n"
    );
    writer.write_all(burst.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut responses = Vec::new();
    for _ in 0..5 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        responses.push(pragformer_serve::wire::parse_response(&line).expect("parse response"));
    }
    assert_eq!(responses[0].id, 1);
    assert!(responses[0].ok);
    assert_eq!(responses[1].id, 2);
    assert!(responses[1].ok);
    assert!(!responses[2].ok, "malformed line answered in place");
    assert_eq!(responses[3].id, 3);
    assert!(!responses[3].ok, "parse error answered in place");
    assert_eq!(responses[4].id, big_id, "large ids echo verbatim");
    assert!(responses[4].ok);
    // Identical snippets in one burst share one result.
    assert_eq!(responses[0].confidence.to_bits(), responses[4].confidence.to_bits());

    drop(writer);
    drop(reader);
    tcp.shutdown();
    let _ = server.shutdown();
}

/// A snippet with a `#pragma omp` line inside a loop body gets advice over
/// TCP, and the server keeps answering: the next, ordinary request on the
/// same connection gets advice too.
#[test]
fn tcp_nested_pragma_request_keeps_the_server_up() {
    let advisor = Advisor::untrained(Scale::Tiny, 21);
    let server = AdvisorServer::start(
        advisor,
        ServeConfig { deadline: Duration::from_millis(1), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), 2).expect("bind loopback");

    let stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    // A dead collector must fail this test, not hang it.
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let nested = "for (i = 0; i < n; i++) {\n#pragma omp parallel for\nfor (j = 0; j < m; j++) a[i][j] = 0;\n}";
    let ordinary = "for (i = 0; i < n; i++) a[i] = b[i] + c[i];";
    for (id, code) in [(41u64, nested), (42, ordinary)] {
        let line = format!(
            "{{\"id\": {id}, \"code\": \"{}\"}}\n",
            pragformer_serve::wire::escape_json(code)
        );
        writer.write_all(line.as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        let resp = pragformer_serve::wire::parse_response(&line).expect("parse response");
        assert_eq!(resp.id, id);
        assert!(resp.ok, "request {id} must get advice: {:?}", resp.error);
    }

    drop(writer);
    drop(reader);
    tcp.shutdown();
    let _ = server.shutdown();
}

/// Two TCP connections served concurrently share the scheduler: batches
/// (and the cache) form across connections.
#[test]
fn tcp_connections_share_the_cache() {
    let advisor = Advisor::untrained(Scale::Tiny, 17);
    let server = AdvisorServer::start(
        advisor,
        ServeConfig { deadline: Duration::from_millis(1), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), 2).expect("bind loopback");
    let addr = tcp.local_addr();
    let code = "for (i = 0; i < n; i++) a[i] = b[i] + c[i];";

    let ask = |id: u64| -> pragformer_serve::WireResponse {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer
            .write_all(
                format!(
                    "{{\"id\": {id}, \"code\": \"{}\"}}\n",
                    pragformer_serve::wire::escape_json(code)
                )
                .as_bytes(),
            )
            .unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        pragformer_serve::wire::parse_response(&line).expect("parse response")
    };

    let first = ask(1);
    let second = ask(2); // fresh connection, same snippet → cache hit
    assert!(first.ok && second.ok);
    assert_eq!(first.confidence.to_bits(), second.confidence.to_bits());
    let stats = server.stats();
    assert!(stats.cache_hits >= 1, "second connection must hit the cross-request cache: {stats:?}");

    tcp.shutdown();
    let _ = server.shutdown();
}

/// The `stats` wire request: counters come back over the same NDJSON
/// connection, reflect the requests already answered, and never disturb
/// advice traffic.
#[test]
fn tcp_stats_request_returns_live_counters() {
    let advisor = Advisor::untrained(Scale::Tiny, 23);
    let server = AdvisorServer::start(
        advisor,
        ServeConfig { deadline: Duration::from_millis(1), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), 2).expect("bind loopback");

    let stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let send = |writer: &mut TcpStream, line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
    };
    let recv = |reader: &mut BufReader<TcpStream>| -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        line
    };

    // Two advice requests (one repeated → a cache hit), then stats.
    for id in [1u64, 2] {
        send(
            &mut writer,
            &format!("{{\"id\": {id}, \"code\": \"for (i = 0; i < n; i++) a[i] = b[i];\"}}"),
        );
        let resp = pragformer_serve::wire::parse_response(&recv(&mut reader)).unwrap();
        assert!(resp.ok, "advice request {id} failed: {:?}", resp.error);
    }
    send(&mut writer, "{\"id\": 3, \"stats\": true}");
    let (id, stats) = pragformer_serve::wire::parse_stats_response(&recv(&mut reader))
        .expect("stats response parses");
    assert_eq!(id, 3);
    assert_eq!(stats.requests, 2, "stats request itself must not count as a request");
    assert!(stats.batches >= 1);
    assert!(stats.cache_misses >= 1);
    assert!(stats.cache_hits >= 1, "repeated snippet must hit the cache: {stats:?}");
    // The handler snapshot equals the server's own view.
    let direct = server.stats();
    assert_eq!(direct.requests, stats.requests);
    assert_eq!(direct.cache_hits, stats.cache_hits);

    // Stats interleave with advice on a pipelined burst: both answered,
    // in order.
    send(&mut writer, "{\"id\": 4, \"code\": \"for (i = 0; i < n; i++) a[i] = 0;\"}\n{\"id\": 5, \"stats\": true}");
    let resp = pragformer_serve::wire::parse_response(&recv(&mut reader)).unwrap();
    assert_eq!(resp.id, 4);
    assert!(resp.ok);
    let (id, stats2) = pragformer_serve::wire::parse_stats_response(&recv(&mut reader)).unwrap();
    assert_eq!(id, 5);
    assert_eq!(stats2.requests, 3);

    drop(writer);
    drop(reader);
    tcp.shutdown();
    let _ = server.shutdown();
}

/// Issues one HTTP request against the NDJSON listener and returns
/// `(status_line, body)`, reading until the server closes the socket.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body separator");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// `GET /metrics` on the NDJSON port returns a Prometheus exposition
/// with the serving and per-stage advise families — while concurrent
/// NDJSON advice traffic on other connections stays bit-identical to
/// direct `advise`. Unknown paths get a 404; the NDJSON `metrics`
/// request returns the same exposition in-band.
#[test]
fn tcp_metrics_scrape_coexists_with_advice() {
    let mut advisor = Advisor::untrained(Scale::Tiny, 29);
    let sources = snippets();
    let direct: Vec<Advice> =
        sources.iter().map(|s| advisor.advise(s).expect("snippet parses")).collect();

    let server = AdvisorServer::start(
        advisor,
        ServeConfig { deadline: Duration::from_millis(1), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), 8).expect("bind loopback");
    let addr = tcp.local_addr();

    // Advice traffic: each thread round-trips every snippet over its own
    // NDJSON connection while the scraper polls /metrics.
    let advice_threads: Vec<_> = (0..3)
        .map(|t| {
            let sources = sources.clone();
            std::thread::spawn(move || -> Vec<pragformer_serve::WireResponse> {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                sources
                    .iter()
                    .enumerate()
                    .map(|(i, src)| {
                        let id = (t * 100 + i) as u64;
                        writer
                            .write_all(
                                format!(
                                    "{{\"id\": {id}, \"code\": \"{}\"}}\n",
                                    pragformer_serve::wire::escape_json(src)
                                )
                                .as_bytes(),
                            )
                            .unwrap();
                        writer.flush().unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("read response");
                        pragformer_serve::wire::parse_response(&line).expect("parse response")
                    })
                    .collect()
            })
        })
        .collect();

    // Scrape concurrently with the advice traffic.
    let (status, first_scrape) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");

    for handle in advice_threads {
        let responses = handle.join().expect("advice thread");
        for (resp, want) in responses.iter().zip(&direct) {
            assert!(resp.ok, "advice under scrape failed: {:?}", resp.error);
            assert_eq!(
                resp.confidence.to_bits(),
                want.confidence.to_bits(),
                "scraping must not perturb advice bits"
            );
            assert_eq!(resp.private_probability.to_bits(), want.private_probability.to_bits());
            assert_eq!(resp.reduction_probability.to_bits(), want.reduction_probability.to_bits());
        }
    }

    // A post-traffic scrape must carry the serving families and the
    // per-stage advise histograms (the registry is process-global, so
    // families from other tests may appear too — containment, not
    // equality). With PRAGFORMER_OBS=off the exposition is legitimately
    // empty; the HTTP path and the bit-identity contract above still
    // hold.
    let (status, exposition) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    if pragformer_obs::enabled() {
        for family in [
            "# TYPE pragformer_serve_requests_total counter",
            "# TYPE pragformer_serve_batch_size histogram",
            "# TYPE pragformer_serve_queue_depth gauge",
            "# TYPE pragformer_span_seconds histogram",
            "pragformer_span_seconds_bucket{backend=",
        ] {
            assert!(exposition.contains(family), "scrape missing {family:?}:\n{exposition}");
        }
        for span in ["advise.prepare", "advise.bucket", "advise.forward", "advise.post"] {
            assert!(
                exposition.contains(&format!("span=\"{span}\"")),
                "scrape missing stage {span:?}"
            );
        }
        assert!(
            exposition.len() >= first_scrape.len(),
            "exposition must not shrink as traffic accrues"
        );
    }

    // Unknown paths 404 without disturbing the listener.
    let (status, _) = http_get(addr, "/not-metrics");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    // The NDJSON `metrics` request returns the same exposition in-band.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"id\": 9, \"metrics\": true}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    let (id, wire_exposition) =
        pragformer_serve::wire::parse_metrics_response(&line).expect("metrics response parses");
    assert_eq!(id, 9);
    if pragformer_obs::enabled() {
        assert!(wire_exposition.contains("# TYPE pragformer_serve_requests_total counter"));
        assert!(wire_exposition.contains("pragformer_serve_http_requests_total{path=\"/metrics\"}"));
    }

    drop(writer);
    drop(reader);
    tcp.shutdown();
    let _ = server.shutdown();
}
