//! The flight recorder: a bounded in-memory ring of the most recent
//! trace events.
//!
//! Writers claim a slot with one atomic `fetch_add` and take that
//! slot's own mutex only for the copy — two writers contend only when
//! they land on the same slot, i.e. when one has lapped the ring.
//! Pushing never allocates (event names are `&'static str`), so spans
//! inside the allocation-gated engine paths stay zero-alloc.
//!
//! Readers ([`recent`]) walk backwards from the write cursor and clone
//! out up to [`RING_CAPACITY`] events, newest first. A read races
//! in-flight writes benignly: each slot is copied under its mutex, so
//! every returned event is internally consistent.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Slots in the ring.
pub const RING_CAPACITY: usize = 1024;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The span name (static — recording never allocates).
    pub name: &'static str,
    /// The recording thread's trace id at drop time (0 when none).
    pub trace_id: u64,
    /// Span start, µs since the process observation epoch.
    pub start_us: u64,
    /// Span duration in µs.
    pub dur_us: u64,
    /// Dense id of the recording thread.
    pub thread: u32,
    /// Span nesting depth at drop (0 = top level).
    pub depth: u8,
}

impl TraceEvent {
    /// Appends the event as one JSON object, the one rendering that
    /// `GET /trace/recent` and the checkpoint's `.trace.jsonl` dump
    /// share. Span names are static identifiers, written unescaped.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"span\":\"{}\",\"trace\":\"{:016x}\",\"start_us\":{},\"dur_us\":{},\
             \"thread\":{},\"depth\":{}}}",
            self.name, self.trace_id, self.start_us, self.dur_us, self.thread, self.depth,
        );
    }
}

static HEAD: AtomicUsize = AtomicUsize::new(0);
static SLOTS: [Mutex<Option<TraceEvent>>; RING_CAPACITY] =
    [const { Mutex::new(None) }; RING_CAPACITY];

/// Records an event, overwriting the oldest once the ring is full.
/// No-op when recording is disabled.
pub fn push(event: TraceEvent) {
    if !crate::metrics::enabled() {
        return;
    }
    let slot = HEAD.fetch_add(1, Ordering::Relaxed) % RING_CAPACITY;
    let mut guard = SLOTS[slot]
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    *guard = Some(event);
}

/// The most recent events, newest first, at most `max` (clamped to
/// [`RING_CAPACITY`]).
pub fn recent(max: usize) -> Vec<TraceEvent> {
    let max = max.min(RING_CAPACITY);
    let head = HEAD.load(Ordering::Relaxed);
    let mut events = Vec::with_capacity(max);
    for back in 1..=RING_CAPACITY {
        if events.len() >= max {
            break;
        }
        let slot = (head.wrapping_sub(back)) % RING_CAPACITY;
        let guard = SLOTS[slot]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(e) = *guard {
            events.push(e);
        }
    }
    events
}
