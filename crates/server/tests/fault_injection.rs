//! Deterministic fault-injection tests of the serve stack, driven by
//! seeded [`rvz_experiments::FaultPlan`]s over real loopback sockets. The
//! plan rides on [`ServiceOptions::faults`]; the server reads its worker
//! and connection sites from the service it wraps. Covered: worker
//! panics (queue-lock poisoning), handler panics, cache-compute
//! failures, connection resets, queue overflow shedding, and the drain
//! deadline. Every plan here uses rate `1.0` with a `limit`, so the
//! injected faults are exactly the first `limit` visits to the site —
//! fully deterministic regardless of seed or interleaving.

use rvz_experiments::{FaultPlan, SweepOptions};
use rvz_server::{client, HttpClient, Service, ServiceOptions};
use rvz_server::{spawn_with, ServerHandle, ServerOptions};
use std::time::Duration;

const BODY: &str = r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#;

fn service_options() -> ServiceOptions {
    ServiceOptions {
        sweep: SweepOptions {
            threads: 1,
            contact: rvz_sim::ContactOptions {
                max_steps: 20_000,
                horizon: rvz_core::completion_time(6),
                ..SweepOptions::default().contact
            },
            ..SweepOptions::default()
        },
        ..ServiceOptions::default()
    }
}

fn start(service: ServiceOptions, server: &ServerOptions) -> ServerHandle {
    spawn_with("127.0.0.1:0", Service::new(service), server).expect("bind an ephemeral port")
}

/// One fault plan: rate 1.0 at a single site, capped at `limit` shots.
fn one_site(site: &str, limit: u64) -> FaultPlan {
    FaultPlan::parse(&format!("seed=42,{site}=1,limit={limit}")).unwrap()
}

#[test]
fn worker_panic_poisons_the_queue_but_the_server_keeps_answering() {
    // Regression for the pool death spiral: a worker that panics while
    // holding the queue lock poisons it; survivors must recover the
    // lock instead of unwinding one after another.
    let server = start(
        ServiceOptions {
            faults: Some(one_site("worker_panic", 1)),
            ..service_options()
        },
        &ServerOptions {
            workers: 2,
            ..ServerOptions::default()
        },
    );
    let addr = server.addr().to_string();

    // The first pop panics with the connection in hand: its client sees
    // a clean close before any status line.
    let first = client::request(&addr, "GET", "/healthz", None);
    assert!(first.is_err(), "the sacrificed connection must not answer");

    // Every request after the panic is served by survivors that locked
    // the poisoned mutex. Run enough to need the queue repeatedly.
    for i in 0..10 {
        let resp = client::request(&addr, "GET", "/healthz", None)
            .unwrap_or_else(|e| panic!("post-poison request {i} failed: {e}"));
        assert_eq!(resp.status, 200);
    }
    let resp = client::request(&addr, "POST", "/first-contact", Some(BODY)).unwrap();
    assert_eq!(resp.status, 200);
    assert!(server.shutdown(), "drain should be clean");
}

#[test]
fn handler_panic_costs_one_500_never_the_worker() {
    // HandlerPanic fires inside `Service::handle`, reached through the
    // worker's `catch_unwind`.
    let server = start(
        ServiceOptions {
            faults: Some(one_site("handler_panic", 1)),
            ..service_options()
        },
        &ServerOptions {
            workers: 1,
            ..ServerOptions::default()
        },
    );
    let addr = server.addr().to_string();
    let resp = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(resp.body.contains("panicked"), "{}", resp.body);
    assert_eq!(resp.header("connection"), Some("close"));
    // The single worker survived the panic and keeps serving.
    for _ in 0..5 {
        let resp = client::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200);
    }
    assert!(server.shutdown());
}

#[test]
fn cache_compute_failure_releases_the_single_flight_claim() {
    let server = start(
        ServiceOptions {
            faults: Some(one_site("cache_fail", 1)),
            ..service_options()
        },
        &ServerOptions {
            workers: 4,
            ..ServerOptions::default()
        },
    );
    let addr = server.addr().to_string();

    // The first compute dies: that request gets the panic-isolation
    // 500. The claim must be released on unwind, so the retry computes
    // fresh (miss), and the one after that hits.
    let resp = client::request(&addr, "POST", "/first-contact", Some(BODY)).unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body);
    let resp = client::request(&addr, "POST", "/first-contact", Some(BODY)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("x-rvz-cache"), Some("miss"));
    let resp = client::request(&addr, "POST", "/first-contact", Some(BODY)).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-rvz-cache"), Some("hit"));
    assert!(server.shutdown());
}

#[test]
fn cache_compute_failure_does_not_strand_concurrent_waiters() {
    let server = start(
        ServiceOptions {
            faults: Some(one_site("cache_fail", 1)),
            ..service_options()
        },
        &ServerOptions {
            workers: 6,
            ..ServerOptions::default()
        },
    );
    let addr = std::sync::Arc::new(server.addr().to_string());

    // Six concurrent identical queries race into the single-flight
    // claim; the first compute panics. Nobody may hang: the victim gets
    // a 500, everyone else either recomputes or joins a good result.
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let addr = std::sync::Arc::clone(&addr);
            std::thread::spawn(move || {
                client::request(&addr, "POST", "/first-contact", Some(BODY))
                    .expect("transport should survive a compute panic")
                    .status
            })
        })
        .collect();
    let statuses: Vec<u16> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 500),
        "unexpected statuses: {statuses:?}"
    );
    assert!(
        statuses.iter().filter(|s| **s == 200).count() >= 5,
        "at most one request pays for the injected failure: {statuses:?}"
    );
    assert!(server.shutdown());
}

#[test]
fn sweep_joins_a_concurrent_first_contact_for_the_same_orbit() {
    // Every engine run sleeps 300 ms. A `/first-contact` claims the
    // orbit; a `/sweep` holding the same scenario arrives while that
    // claim is in flight and must join it, not run the engine again.
    let svc = std::sync::Arc::new(Service::new(ServiceOptions {
        faults: Some(FaultPlan::parse("seed=7,delay_rate=1,delay_ms=300").unwrap()),
        ..service_options()
    }));
    let post = |path: &str, body: &str| rvz_server::Request {
        method: "POST".to_string(),
        path: path.to_string(),
        query: Vec::new(),
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
    };
    let single = {
        let svc = std::sync::Arc::clone(&svc);
        let req = post("/first-contact", BODY);
        std::thread::spawn(move || svc.handle(&req).0)
    };
    std::thread::sleep(Duration::from_millis(50));
    let (batch, _) = svc.handle(&post("/sweep", &format!(r#"{{"scenarios":[{BODY}]}}"#)));
    let single = single.join().unwrap();
    assert_eq!((single.status, batch.status), (200, 200), "{}", batch.body);

    let stats = svc.cache_stats();
    assert_eq!(stats.misses, 1, "the sweep re-ran the engine: {stats:?}");
    assert_eq!(stats.joined, 1, "{stats:?}");
    let parse = |body: &str| rvz_experiments::json::parse(body).unwrap();
    let (single, batch) = (parse(&single.body), parse(&batch.body));
    assert_eq!(
        single.get("record"),
        batch
            .get("records")
            .and_then(rvz_experiments::Json::as_array)
            .map(|records| &records[0]),
    );
}

#[test]
fn connection_reset_truncates_one_response_then_recovers() {
    let server = start(
        ServiceOptions {
            faults: Some(one_site("conn_reset", 1)),
            ..service_options()
        },
        &ServerOptions {
            workers: 1,
            ..ServerOptions::default()
        },
    );
    let addr = server.addr().to_string();
    let first = client::request(&addr, "GET", "/healthz", None);
    assert!(first.is_err(), "the reset connection must see truncation");
    let resp = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(server.shutdown());
}

#[test]
fn queue_overflow_sheds_503_with_retry_after_and_recovers() {
    let server = start(
        service_options(),
        &ServerOptions {
            workers: 1,
            queue_depth: 1,
            ..ServerOptions::default()
        },
    );
    let addr = server.addr().to_string();

    // Pin the single worker with a keep-alive connection (the pool is
    // connection-granular: the worker stays in this connection's loop).
    let mut pinned = HttpClient::connect(&addr).unwrap();
    assert_eq!(pinned.request("GET", "/healthz", None).unwrap().status, 200);

    // Fill the one queue slot with an idle connection...
    let waiting = HttpClient::connect(&addr).unwrap();
    // ...then the next arrival must be shed at the accept thread.
    let shed = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body.contains("overloaded"), "{}", shed.body);
    assert_eq!(server.shed_connections(), 1);

    // Releasing the worker drains the queue: the waiting connection is
    // served, and fresh arrivals are admitted again.
    drop(pinned);
    let mut waiting = waiting;
    assert_eq!(
        waiting.request("GET", "/healthz", None).unwrap().status,
        200,
        "the queued connection must be served after the worker frees"
    );
    // Release the worker again (keep-alive pins it) before probing.
    drop(waiting);
    let resp = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(server.shutdown());
}

#[test]
fn drain_deadline_detaches_a_wedged_worker_instead_of_hanging() {
    // The engine sleeps 1.5s per request (injected latency); the drain
    // allows 100ms. Shutdown must come back `false` promptly — the
    // wedged worker is detached, not joined.
    let server = start(
        ServiceOptions {
            faults: Some(FaultPlan::parse("seed=7,delay_rate=1,delay_ms=1500").unwrap()),
            ..service_options()
        },
        &ServerOptions {
            workers: 2,
            drain: Duration::from_millis(100),
            ..ServerOptions::default()
        },
    );
    let addr = server.addr().to_string();
    let busy = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let _ = client::request(&addr, "POST", "/first-contact", Some(BODY));
        })
    };
    // Let the slow request reach the engine before initiating shutdown.
    std::thread::sleep(Duration::from_millis(200));
    let started = std::time::Instant::now();
    let clean = server.shutdown();
    assert!(!clean, "a worker sleeping past the drain must be detached");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "join must respect the drain deadline, took {:?}",
        started.elapsed()
    );
    busy.join().unwrap();
}

#[test]
fn injected_faults_bump_their_site_counters() {
    use rvz_obs::counter;
    // The counters are process-global and other tests in this binary
    // inject faults concurrently, so assert deltas with `>=`. Each plan
    // gets its own server: a plan is one seed and one `limit` for every
    // site, and these two sites are capped differently.
    let handler_before = counter!("rvz_faults_injected_total", "site" => "handler_panic").get();
    let reset_before = counter!("rvz_faults_injected_total", "site" => "conn_reset").get();

    // Counts client-visible failures over 8 sequential requests.
    let failures = |plan: FaultPlan| {
        let server = start(
            ServiceOptions {
                faults: Some(plan),
                ..service_options()
            },
            &ServerOptions {
                workers: 1,
                ..ServerOptions::default()
            },
        );
        let addr = server.addr().to_string();
        let mut failures = 0;
        for _ in 0..8 {
            match client::request(&addr, "GET", "/healthz", None) {
                Ok(resp) if resp.status == 500 => failures += 1, // handler panic
                Ok(resp) => assert_eq!(resp.status, 200),
                Err(_) => failures += 1, // injected reset
            }
        }
        assert!(server.shutdown());
        failures
    };
    assert_eq!(failures(one_site("handler_panic", 3)), 3, "3 panics");
    assert_eq!(failures(one_site("conn_reset", 1)), 1, "1 reset");

    let handler_after = counter!("rvz_faults_injected_total", "site" => "handler_panic").get();
    let reset_after = counter!("rvz_faults_injected_total", "site" => "conn_reset").get();
    assert!(
        handler_after >= handler_before + 3,
        "handler_panic injections must be counted: {handler_before} -> {handler_after}"
    );
    assert!(
        reset_after > reset_before,
        "conn_reset injections must be counted: {reset_before} -> {reset_after}"
    );
}

#[test]
fn clean_shutdown_reports_a_clean_drain() {
    let server = start(service_options(), &ServerOptions::default());
    let addr = server.addr().to_string();
    assert_eq!(
        client::request(&addr, "GET", "/healthz", None)
            .unwrap()
            .status,
        200
    );
    assert!(server.shutdown(), "idle workers drain within the deadline");
}
