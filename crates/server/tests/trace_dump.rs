//! The flight recorder has one JSON rendering (`TraceEvent::write_json`):
//! for the same recorder contents, the events of a `GET /trace/recent`
//! body and the lines of a sweep checkpoint's `<path>.trace.jsonl` dump
//! are the same text, in the same order (newest first).
//!
//! Its own test binary: the recorder ring is process-wide, so no other
//! test may push spans between the dump and the scrape.

use rvz_experiments::{run_sweep_checkpointed, ScenarioGrid, SweepOptions};
use rvz_server::{Request, Service, ServiceOptions};
use std::collections::HashMap;

#[test]
fn trace_recent_events_and_checkpoint_dump_lines_are_the_same_text() {
    let dir = std::env::temp_dir().join(format!("rvz-trace-dump-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.ckpt");
    let scenarios = ScenarioGrid::new()
        .speeds(&[0.5, 1.0])
        .clocks(&[0.6, 1.0])
        .distances(&[0.9])
        .visibilities(&[0.25])
        .build();
    let opts = SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    };
    // The final sync dumps the ring: one "scenario" span per scenario.
    run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();
    let dump = std::fs::read_to_string(dir.join("sweep.ckpt.trace.jsonl")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let lines: Vec<&str> = dump.lines().collect();
    assert!(lines.len() >= scenarios.len(), "{dump}");

    let service = Service::new(ServiceOptions::default());
    let (resp, _) = service.handle(&Request {
        method: "GET".to_string(),
        path: "/trace/recent".to_string(),
        query: vec![("n".to_string(), rvz_obs::RING_CAPACITY.to_string())],
        headers: HashMap::new(),
        body: Vec::new(),
    });
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, format!("{{\"events\":[{}]}}", lines.join(",")));
}
