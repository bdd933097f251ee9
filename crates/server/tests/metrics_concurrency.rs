//! Concurrency contract for the observability endpoints.
//!
//! `GET /metrics` and `GET /version` are scraped while query traffic is in
//! flight from several client threads. The contract under test:
//!
//! * every `/metrics` body is **well-formed** — each line is
//!   `name value` or `name{labels} value` with a parseable number, never a
//!   sheared fragment of two concurrent renders;
//! * the counters are **monotone** — a later scrape never reports fewer
//!   requests than an earlier one (atomics only go up);
//! * `/version` is **byte-identical** across all concurrent fetches — its
//!   body is a pure function of the build, so concurrency must not show.
//!
//! The engine-level `faultnet_obs` counters ride the same render
//! (`faultnet_obs_counter{name="..."} N` lines), so their shape is covered
//! by the same line validator.

use faultnet_server::http::roundtrip;
use faultnet_server::{serve, ServerConfig};

const QUERY: &[u8] = br#"{"family":"hypercube","n":7,"p":0.6,"trials":4}"#;

/// Asserts one exposition line is `name value` or `name{labels} value`.
fn assert_well_formed_line(line: &str, body: &str) {
    let (name_part, value_part) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("no value separator in line {line:?} of body:\n{body}"));
    assert!(
        value_part.parse::<f64>().is_ok(),
        "unparseable value {value_part:?} in line {line:?}"
    );
    let name = name_part.split('{').next().unwrap();
    assert!(
        !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
        "malformed metric name in line {line:?}"
    );
    // Labels, when present, must close their brace before the value.
    if let Some(rest) = name_part.strip_prefix(name) {
        if !rest.is_empty() {
            assert!(
                rest.starts_with('{') && rest.ends_with('}'),
                "unbalanced labels in line {line:?}"
            );
        }
    }
}

/// Extracts the value of an unlabelled counter from an exposition body.
fn counter(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from body:\n{body}"))
        .parse()
        .unwrap_or_else(|_| panic!("{name} has a non-integer value in body:\n{body}"))
}

#[test]
fn metrics_scrapes_stay_well_formed_and_monotone_under_load() {
    let handle = serve(&ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr.to_string();

    // Warm the cache once so the traffic mixes hits and misses.
    let (status, _) = roundtrip(&addr, "POST", "/query", QUERY).unwrap();
    assert_eq!(status, 200);

    let clients: Vec<_> = (0..6)
        .map(|client_id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut scrapes = Vec::new();
                for round in 0..10 {
                    if (client_id + round) % 2 == 0 {
                        let (status, _) = roundtrip(&addr, "POST", "/query", QUERY).unwrap();
                        assert_eq!(status, 200);
                    } else {
                        let (status, body) = roundtrip(&addr, "GET", "/metrics", b"").unwrap();
                        assert_eq!(status, 200);
                        scrapes.push(String::from_utf8(body).unwrap());
                    }
                }
                scrapes
            })
        })
        .collect();
    let per_client: Vec<Vec<String>> = clients
        .into_iter()
        .map(|client| client.join().unwrap())
        .collect();

    // Every scraped body is a clean set of exposition lines.
    for body in per_client.iter().flatten() {
        assert!(!body.is_empty());
        for line in body.lines() {
            assert_well_formed_line(line, body);
        }
        assert!(body.contains("faultnet_server_uptime_seconds "));
        assert!(body.contains("faultnet_requests_total "));
    }

    // Within one client's scrape sequence the counters are monotone.
    for scrapes in &per_client {
        for pair in scrapes.windows(2) {
            assert!(
                counter(&pair[0], "faultnet_requests_total")
                    <= counter(&pair[1], "faultnet_requests_total"),
                "requests_total went backwards"
            );
        }
    }

    // A final quiet scrape accounts for every request the clients made:
    // 1 warm-up + 60 client rounds (a request records *after* its body
    // renders, so the final scrape does not count itself).
    let (status, body) = roundtrip(&addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    let body = String::from_utf8(body).unwrap();
    assert_eq!(counter(&body, "faultnet_requests_total"), 1 + 60);
    // The serve() path enables obs, so the engine counters ride along and
    // agree with the request-level cache accounting: every conditioned
    // trial came from a measured (non-cached) query.
    assert!(
        body.contains("faultnet_obs_counter{name=\"routing.trials.conditioned\"}"),
        "engine counters missing from /metrics:\n{body}"
    );
    handle.shutdown();
}

#[test]
fn version_is_byte_identical_across_concurrent_clients() {
    let handle = serve(&ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr.to_string();
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || roundtrip(&addr, "GET", "/version", b"").unwrap())
        })
        .collect();
    let bodies: Vec<_> = clients
        .into_iter()
        .map(|client| client.join().unwrap())
        .collect();
    for (status, body) in &bodies {
        assert_eq!(*status, 200);
        assert_eq!(body, &bodies[0].1, "version bodies must be identical");
    }
    let text = std::str::from_utf8(&bodies[0].1).unwrap();
    assert!(text.contains("\"version\":"));
    assert!(text.contains("\"measure_threads\":1"));
    handle.shutdown();
}
